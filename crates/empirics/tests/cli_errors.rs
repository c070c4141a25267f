//! Operator errors of the sweep front-end, through the real
//! `fig2_avg_poa` binary: every bad or contradictory flag prints exactly
//! one `error:` line and exits with status 2 — never a panic — while a
//! store that cannot be opened or a manifest that cannot be written
//! exits with the distinct status 1. Every bnf-empirics binary refuses
//! an unknown, repeated or stray argument the same way (exit 2).

use std::process::Output;

fn run_fig2(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_fig2_avg_poa"))
        .args(["--n", "5", "--csv"])
        .args(args)
        .env_remove("BNF_FAULT")
        .output()
        .expect("spawn fig2_avg_poa")
}

/// Asserts the exit status, no panic, no figure output, and exactly one
/// `error:` line containing `needle`.
fn assert_error(out: &Output, status: i32, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(status), "{needle}: {stderr}");
    assert!(
        !stderr.contains("panicked") && out.stdout.is_empty(),
        "{stderr}"
    );
    let errors: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("error: "))
        .collect();
    assert!(
        errors.len() == 1 && errors[0].contains(needle),
        "{needle}: {errors:?}"
    );
}

#[test]
fn bad_flags_exit_2_with_one_error_line() {
    let seg = std::env::temp_dir().join(format!("bnf-cli-errors-{}.seg", std::process::id()));
    let seg = seg.to_str().unwrap();
    let cases: [(&[&str], &str); 12] = [
        (&["--shards", "many"], "--shards"),
        (&["--shards", "0"], "--shards"),
        (&["--shards"], "--shards needs a value"),
        (&["--shard", "1-4", "--atlas", seg], "bad --shard"),
        (&["--shard", "4/4", "--atlas", seg], "out of range"),
        (&["--shard", "0/0", "--atlas", seg], "bad --shard"),
        (&["--shard", "0/1000000000000", "--atlas", seg], "ranges"),
        (&["--shard", "0/4"], "--atlas"),
        (&["--resume"], "--atlas"),
        (
            &["--shard", "0/4", "--shards", "auto", "--atlas", seg],
            "mutually exclusive",
        ),
        (&["--grid", "linear:1:2"], "bad --grid"),
        (
            &["--grid", "linear:1/3037000493:3037000499/2:3"],
            "bad --grid",
        ),
    ];
    for (args, needle) in cases {
        assert_error(&run_fig2(args), 2, needle);
    }
    assert!(
        !std::path::Path::new(seg).exists(),
        "a rejected invocation must not create the segment store"
    );
}

#[test]
fn unreadable_store_exits_1() {
    let corrupt = std::env::temp_dir().join(format!("bnf-cli-errors-{}.bad", std::process::id()));
    std::fs::write(&corrupt, b"definitely not an atlas").unwrap();
    assert_error(
        &run_fig2(&["--atlas", corrupt.to_str().unwrap()]),
        1,
        "cannot open atlas",
    );
    std::fs::remove_file(&corrupt).ok();
}

#[test]
fn resume_from_another_frontier_exits_1() {
    // One committed range of an n = 6 partition cut from a 999-parent
    // frontier: the rebuilt frontier has 21 parents, so the stored
    // ranges would skip the wrong parents and the resume is refused
    // before any range runs.
    let store = std::env::temp_dir().join(format!(
        "bnf-cli-errors-{}-frontier.bnfatlas",
        std::process::id()
    ));
    std::fs::remove_file(&store).ok();
    let mut atlas = bnf_atlas::ClassificationAtlas::open(&store).unwrap();
    atlas
        .append_shard_meta(&bnf_atlas::ShardMeta {
            order: 6,
            shard_index: 0,
            shard_count: 4,
            frontier_len: 999,
            parent_lo: 0,
            parent_hi: 249,
            emitted: 0,
            elapsed_ms: 0,
            peak_rss_kb: None,
            orchestrator_run: Some(1),
            frontier_prune: Default::default(),
            final_prune: Default::default(),
        })
        .unwrap();
    drop(atlas);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fig2_avg_poa"))
        .args(["--n", "6", "--csv", "--resume", "--atlas"])
        .arg(&store)
        .env_remove("BNF_FAULT")
        .output()
        .expect("spawn fig2_avg_poa");
    assert_error(
        &out,
        1,
        "different n=6 frontier (stored frontier_len=999, rebuilt 21)",
    );
    std::fs::remove_file(&store).ok();
}

#[test]
fn unwritable_manifest_exits_1() {
    let missing = std::env::temp_dir()
        .join(format!("bnf-cli-errors-{}-no-such-dir", std::process::id()))
        .join("run.manifest.json");
    assert_error(
        &run_fig2(&["--report-json", missing.to_str().unwrap()]),
        1,
        "cannot write run manifest to",
    );
}

#[test]
fn orders_above_the_sweep_cap_exit_2_in_every_sweep_binary() {
    let bins = [
        ("fig2_avg_poa", env!("CARGO_BIN_EXE_fig2_avg_poa")),
        ("fig3_avg_links", env!("CARGO_BIN_EXE_fig3_avg_links")),
        ("poa_bounds", env!("CARGO_BIN_EXE_poa_bounds")),
        ("efficiency_scan", env!("CARGO_BIN_EXE_efficiency_scan")),
    ];
    for (name, exe) in bins {
        // Unset, the cap is 8; an opt-in above the enumeration bound
        // clamps to 10. Either way the refusal comes before any output.
        for max_n in [None, Some("12")] {
            let mut cmd = std::process::Command::new(exe);
            cmd.args(["--n", "12"]).env_remove("BNF_MAX_N");
            if let Some(v) = max_n {
                cmd.env("BNF_MAX_N", v);
            }
            let out = cmd.output().unwrap_or_else(|e| panic!("spawn {name}: {e}"));
            assert_error(&out, 2, "BNF_MAX_N");
        }
    }
}

#[test]
fn non_numeric_counts_exit_2_in_every_binary() {
    let bins = [
        ("fig2_avg_poa", env!("CARGO_BIN_EXE_fig2_avg_poa")),
        ("fig3_avg_links", env!("CARGO_BIN_EXE_fig3_avg_links")),
        ("poa_bounds", env!("CARGO_BIN_EXE_poa_bounds")),
        ("efficiency_scan", env!("CARGO_BIN_EXE_efficiency_scan")),
    ];
    for (name, exe) in bins {
        for args in [
            &["--n", "seven"][..],
            &["--n", "5", "--threads", "two"],
            &["--n", "-1"],
            &["--n", "5", "--threads"],
        ] {
            let out = std::process::Command::new(exe)
                .args(args)
                .output()
                .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
            let flag = if args.len() == 2 { "--n" } else { "--threads" };
            assert_error(&out, 2, flag);
        }
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lemma6_cycles"))
        .args(["--max", "twenty"])
        .output()
        .expect("spawn lemma6_cycles");
    assert_error(&out, 2, "--max wants a number");
}

#[test]
fn unknown_repeated_and_stray_arguments_exit_2_in_every_binary() {
    let store = std::env::temp_dir().join(format!("bnf-cli-errors-{}-stray", std::process::id()));
    let store = store.to_str().unwrap();
    let sweeps = [
        env!("CARGO_BIN_EXE_fig2_avg_poa"),
        env!("CARGO_BIN_EXE_fig3_avg_links"),
        env!("CARGO_BIN_EXE_poa_bounds"),
        env!("CARGO_BIN_EXE_efficiency_scan"),
    ];
    for exe in sweeps {
        // Each mistake follows an --atlas the run must never open.
        let cases: [(&[&str], &str); 5] = [
            (&["--bogus"], "unknown argument \"--bogus\""),
            (&["--bogus", "1"], "unknown argument \"--bogus\""),
            (&["--thread", "2"], "unknown argument \"--thread\""),
            (&["--n", "4", "--n", "5"], "--n given twice"),
            (&["stray"], "unknown argument \"stray\""),
        ];
        for (args, needle) in cases {
            let out = std::process::Command::new(exe)
                .args(["--atlas", store])
                .args(args)
                .output()
                .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
            assert_error(&out, 2, needle);
        }
    }
    assert!(
        !std::path::Path::new(store).exists(),
        "a refused run opened its store"
    );
    let lemma6 = env!("CARGO_BIN_EXE_lemma6_cycles");
    let gallery = env!("CARGO_BIN_EXE_fig1_gallery");
    let cases: [(&str, &[&str], &str); 7] = [
        (lemma6, &["--max", "5", "--x"], "unknown argument \"--x\""),
        (lemma6, &["--bogus", "1"], "unknown argument \"--bogus\""),
        (lemma6, &["--max", "5", "--max", "6"], "--max given twice"),
        (lemma6, &["5"], "unknown argument \"5\""),
        (gallery, &["--bogus"], "unknown argument \"--bogus\""),
        (gallery, &["--bogus", "1"], "unknown argument \"--bogus\""),
        (gallery, &["stray"], "unknown argument \"stray\""),
    ];
    for (exe, args, needle) in cases {
        let out = std::process::Command::new(exe)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
        assert_error(&out, 2, needle);
    }
}
