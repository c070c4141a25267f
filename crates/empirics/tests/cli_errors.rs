//! Operator errors of the sweep front-end, through the real
//! `fig2_avg_poa` binary: every bad or contradictory flag prints exactly
//! one `error:` line and exits with status 2 — never a panic — while a
//! store that cannot be opened exits with the distinct status 1.

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
        (&["--shards"], "--shards wants a value"),
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
