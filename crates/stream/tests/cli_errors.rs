//! Operator errors of `stream_count`, through the real binary: a flag
//! value that is not a number, or `--resume` without the `--checkpoint`
//! it resumes from, prints exactly one `error:` line and exits with
//! status 2 — never a panic, and no count is run.

/// Runs `stream_count` with `args` and asserts exit status 2, no panic,
/// no count output, and exactly one `error:` line containing `needle`.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_stream_count"))
        .args(args)
        .output()
        .expect("spawn stream_count");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran a count");
    let errors: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("error: "))
        .collect();
    assert!(
        errors.len() == 1 && errors[0].contains(needle),
        "{args:?}: {errors:?}"
    );
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
fn resume_without_checkpoint_exits_2() {
    assert_usage_error(&["--n", "5", "--resume"], "pass --checkpoint PATH");
    assert_usage_error(&["--n", "5", "--shards", "4", "--resume"], "--checkpoint");
}
