//! Operator errors of the sweep front-end, through the real
//! `fig2_avg_poa` binary: every bad or contradictory flag prints exactly
//! one `error:` line and exits with status 2 — never a panic — while a
//! store that cannot be opened or a manifest that cannot be written
//! exits with the distinct status 1. Every bnf-empirics binary refuses
//! an unknown, repeated or stray argument the same way (exit 2).
//!
//! `stream_count` follows the same split: a usage error exits 2, and a
//! `--checkpoint` that is not an atlas store (left byte for byte as it
//! was) or holds ranges of another frontier exits 1; a torn final
//! commit frame is recovered, not an error.

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
fn resume_from_a_count_checkpoint_exits_1_before_any_range() {
    // A stream_count checkpoint commits ranges without records: killed
    // after its second n = 6 range, it holds two ShardMeta frames that
    // vouch for records the store does not hold, so a sweep may not
    // continue it — one error line, and the store keeps every byte.
    let store = scratch_path("count-checkpoint");
    std::fs::remove_file(&store).ok();
    let killed = std::process::Command::new(env!("CARGO_BIN_EXE_stream_count"))
        .args(["--n", "6", "--shards", "4", "--checkpoint"])
        .arg(&store)
        .env("BNF_FAULT", "range_commit:2")
        .output()
        .expect("spawn stream_count");
    let stderr = String::from_utf8_lossy(&killed.stderr);
    assert!(!killed.status.success(), "{stderr}");
    assert!(stderr.contains("tripping range_commit:2"), "{stderr}");
    let bytes = std::fs::read(&store).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fig2_avg_poa"))
        .args(["--n", "6", "--csv", "--resume", "--atlas"])
        .arg(&store)
        .env_remove("BNF_FAULT")
        .output()
        .expect("spawn fig2_avg_poa");
    assert_error(&out, 1, "the store holds 0 of that order");
    assert_eq!(std::fs::read(&store).unwrap(), bytes, "the store changed");
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

/// Runs `stream_count` with `args` and no armed fault.
fn run_count(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_stream_count"))
        .args(args)
        .env_remove("BNF_FAULT")
        .output()
        .expect("spawn stream_count")
}

/// A `stream_count` usage error: one `error:` line, exit status 2.
fn assert_usage_error(args: &[&str], needle: &str) {
    assert_error(&run_count(args), 2, needle);
}

fn scratch_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bnf-count-cli-{}-{tag}.ckpt", std::process::id()))
}

/// `stream_count` on order 5 (a 6-parent frontier) with `--checkpoint
/// path`, plus `extra`.
fn count_into(path: &std::path::Path, extra: &[&str]) -> Output {
    let path = path.to_str().unwrap();
    let args = [
        &["--n", "5", "--threads", "1", "--checkpoint", path][..],
        extra,
    ]
    .concat();
    run_count(&args)
}

#[test]
fn non_numeric_flags_exit_2_with_one_error_line() {
    let cases: [(&[&str], &str); 5] = [
        (&["--n", "eight"], "--n wants a number"),
        (&["--n", "5", "--threads", "x"], "--threads wants a number"),
        (&["--n", "5", "--expect", "many"], "--expect wants a number"),
        (&["--n", "5", "--shards", "lots"], "--shards wants"),
        (&["--n", "-3"], "--n wants a number"),
    ];
    for (args, needle) in cases {
        assert_usage_error(args, needle);
    }
}

#[test]
fn orders_above_the_enumeration_bound_exit_2() {
    for n in ["11", "64"] {
        assert_usage_error(&["--n", n], "above the enumeration bound n=10");
    }
}

#[test]
fn resume_without_checkpoint_exits_2() {
    assert_usage_error(&["--n", "5", "--resume"], "pass --checkpoint PATH");
    assert_usage_error(&["--n", "5", "--shards", "4", "--resume"], "--checkpoint");
}

#[test]
fn unwritable_manifest_exits_1_before_any_report() {
    let json = scratch_path("no-such-dir").join("report.json");
    let json = json.to_str().unwrap();
    let args = ["--n", "5", "--threads", "1", "--report-json", json];
    assert_error(&run_count(&args), 1, "cannot write run manifest to");
}

#[test]
fn bad_checkpoints_exit_1_with_one_error_line() {
    use bnf_atlas::{ClassificationAtlas, ShardMeta};
    // Files that are not atlas stores — cold or resumed, the run refuses
    // them and leaves every byte as it found it.
    for (tag, bytes) in [
        ("garbage", b"garbage\n".to_vec()),
        ("binary", vec![0xff, 0xfe, b'\n']),
        ("text", b"done 0 1 2 3 4 5 6\ndone 1 1 2 3 4 5 6\n".to_vec()),
    ] {
        let path = scratch_path(tag);
        for resume in [&[][..], &["--resume"]] {
            std::fs::write(&path, &bytes).unwrap();
            assert_error(&count_into(&path, resume), 1, "not an atlas file");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{tag} {resume:?}");
        }
        std::fs::remove_file(&path).ok();
    }
    // Ranges committed from another n=5 frontier.
    let path = scratch_path("frontier");
    std::fs::remove_file(&path).ok();
    let mut store = ClassificationAtlas::open(&path).unwrap();
    store
        .append_shard_meta(&ShardMeta {
            order: 5,
            shard_index: 1,
            shard_count: 4,
            frontier_len: 999,
            parent_lo: 249,
            parent_hi: 499,
            emitted: 3,
            elapsed_ms: 0,
            peak_rss_kb: None,
            orchestrator_run: Some(7),
            frontier_prune: Default::default(),
            final_prune: Default::default(),
        })
        .unwrap();
    assert_error(
        &count_into(&path, &["--resume"]),
        1,
        "different n=5 frontier",
    );
    std::fs::remove_file(&path).ok();
    // A checkpoint path that cannot be read as a file at all.
    let dir = std::env::temp_dir();
    let dir_arg = dir.to_string_lossy().into_owned();
    assert_error(
        &run_count(&["--n", "5", "--resume", "--checkpoint", &dir_arg]),
        1,
        "cannot recover atlas",
    );
}

#[test]
fn torn_final_frame_is_dropped_not_an_error() {
    let path = scratch_path("torn");
    std::fs::remove_file(&path).ok();
    let whole = count_into(&path, &["--shards", "4"]);
    assert!(whole.status.success(), "{whole:?}");
    // Tear the last range's commit frame, as a kill mid-append would:
    // the store is a 12-byte header and four equal ShardMeta frames.
    let len = std::fs::metadata(&path).unwrap().len();
    let dropped = (len - 12) / 4 - 12;
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(len - 12).unwrap();
    drop(file);
    let out = count_into(&path, &["--shards", "4", "--resume"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stdout.contains("recovered_ranges: 3\n"), "{stdout}");
    assert!(stdout.contains("connected_graphs: 21\n"), "{stdout}");
    let report = format!("torn tail: {dropped} byte(s) dropped");
    assert!(stderr.contains(&report), "{stderr}");
    // The tail is cut on disk too, and the redone range committed: a
    // second resume recovers all four ranges and drops nothing.
    let again = count_into(&path, &["--shards", "4", "--resume"]);
    let stdout = String::from_utf8_lossy(&again.stdout);
    let stderr = String::from_utf8_lossy(&again.stderr);
    assert!(stdout.contains("recovered_ranges: 4\n"), "{stdout}");
    assert!(
        stderr.contains("redoing 0; torn tail: 0 byte(s)"),
        "{stderr}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_repeated_and_stray_arguments_exit_2() {
    let cases: [(&[&str], &str); 5] = [
        (&["--n", "4", "--bogus"], "unknown argument \"--bogus\""),
        (
            &["--n", "4", "--bogus", "1"],
            "unknown argument \"--bogus\"",
        ),
        (&["--n", "4", "--n", "5"], "--n given twice"),
        (
            &["--n", "4", "--resume", "--resume"],
            "--resume given twice",
        ),
        (&["--n", "4", "stray"], "unknown argument \"stray\""),
    ];
    for (args, needle) in cases {
        assert_usage_error(args, needle);
    }
}
