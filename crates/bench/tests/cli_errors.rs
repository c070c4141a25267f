//! Operator errors of `bench_gate`, through the real binary: an unknown
//! or repeated flag, too few arguments or a tolerance that is not a
//! number prints exactly one `error:` line and exits 2 before any file
//! is read; an estimate file that cannot be read prints exactly one
//! `error:` line and exits 1. `--strict` is accepted in any position.

use std::path::PathBuf;
use std::process::Output;

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bnf-gate-cli-{}-{tag}.json", std::process::id()))
}

fn gate(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .args(args)
        .output()
        .expect("spawn bench_gate")
}

/// Asserts the exit status, no panic, nothing on stdout, and exactly
/// one `error:` line containing `needle`.
fn assert_error(out: &Output, status: i32, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(status), "{needle}: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "{needle}: a report was printed");
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
fn usage_mistakes_exit_2_and_unreadable_files_exit_1() {
    let base = scratch_path("base");
    std::fs::write(&base, r#"{"benchmarks":[{"id":"a","mean_ns":100.0}]}"#).unwrap();
    let base = base.to_str().unwrap();
    let cases: [(&[&str], &str); 7] = [
        (
            &["--bogus", base, "0.25", base],
            "unknown argument \"--bogus\"",
        ),
        (
            &["--bogus", "1", base, "0.25", base],
            "unknown argument \"--bogus\"",
        ),
        (
            &["--strict", "--strict", base, "0.25", base],
            "--strict given twice",
        ),
        (&[base, "0.25"], "no estimate files given"),
        (
            &[base],
            "expected a baseline, a tolerance and estimate files",
        ),
        (&[], "expected a baseline, a tolerance and estimate files"),
        (&[base, "quarter", base], "bad tolerance \"quarter\""),
    ];
    for (args, needle) in cases {
        assert_error(&gate(args), 2, needle);
    }
    let missing = scratch_path("missing");
    let missing = missing.to_str().unwrap();
    assert_error(&gate(&[base, "0.25", missing]), 1, "cannot read");
    std::fs::remove_file(base).ok();
}

#[test]
fn strict_is_accepted_in_any_position() {
    let base = scratch_path("strict-base");
    let est = scratch_path("strict-est");
    std::fs::write(&base, r#"{"benchmarks":[{"id":"a","mean_ns":100.0}]}"#).unwrap();
    std::fs::write(
        &est,
        r#"{"benchmarks":[{"id":"a","mean_ns":100.0},{"id":"fresh","mean_ns":1.0}]}"#,
    )
    .unwrap();
    let (base_path, est_path) = (base.to_str().unwrap(), est.to_str().unwrap());
    assert!(gate(&[base_path, "0.25", est_path]).status.success());
    for args in [
        [base_path, "0.25", est_path, "--strict"],
        [base_path, "--strict", "0.25", est_path],
    ] {
        let out = gate(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("UNGATED"), "{stdout}");
    }
    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&est).ok();
}
