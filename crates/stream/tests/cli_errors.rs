//! Operator errors of `stream_count`, through the real binary: an
//! unknown, repeated or stray argument, a flag value that is not a
//! number, or `--resume` without the `--checkpoint` it resumes from,
//! prints exactly one `error:` line and exits with status 2; a checkpoint sidecar that cannot be read or does not
//! describe the run prints exactly one `error:` line and exits with
//! status 1, and so does a `--report-json` path that cannot be written
//! — never a panic, and no count is reported.

use std::path::PathBuf;

/// Runs `stream_count` with `args` and asserts exit status `status`, no
/// panic, no count output, and exactly one `error:` line containing
/// `needle`.
fn assert_one_error(args: &[&str], status: i32, needle: &str) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_stream_count"))
        .args(args)
        .env_remove("BNF_FAULT")
        .output()
        .expect("spawn stream_count");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(status), "{args:?}: {stderr}");
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

/// A usage error: one `error:` line, exit status 2.
fn assert_usage_error(args: &[&str], needle: &str) {
    assert_one_error(args, 2, needle);
}

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bnf-stream-cli-{}-{tag}.ckpt", std::process::id()))
}

/// Resumes an order-5 count (a 6-parent frontier) from a sidecar
/// holding `bytes`.
fn resume_from(tag: &str, bytes: &[u8]) -> (PathBuf, std::process::Output) {
    let path = scratch_path(tag);
    std::fs::write(&path, bytes).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_stream_count"))
        .args(["--n", "5", "--threads", "1", "--resume", "--checkpoint"])
        .arg(&path)
        .env_remove("BNF_FAULT")
        .output()
        .expect("spawn stream_count");
    (path, out)
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
    assert_one_error(&args, 1, "cannot write run manifest to");
}

#[test]
fn bad_checkpoints_exit_1_with_one_error_line() {
    const HEADER: &str = "bnfckpt 1 n=5 ranges=4 frontier_len=6\n";
    let with_header = |body: &str| format!("{HEADER}{body}").into_bytes();
    let cases: Vec<(&str, Vec<u8>, &str)> = vec![
        ("utf8", vec![0xff, 0xfe, b'\n'], "not valid UTF-8"),
        ("garbage", b"garbage\n".to_vec(), "unrecognized header"),
        (
            "magic",
            b"bnfckpt 2 n=5 ranges=4 frontier_len=6\n".to_vec(),
            "unrecognized header",
        ),
        (
            "field",
            b"bnfckpt 1 n=5 ranges=four frontier_len=6\n".to_vec(),
            "header lacks ranges=",
        ),
        (
            "order",
            b"bnfckpt 1 n=6 ranges=4 frontier_len=21\n".to_vec(),
            "belongs to order 6, not n=5",
        ),
        ("done", with_header("done 1 2 3\n"), "malformed line"),
        (
            "word",
            with_header("finished 1 0 0 0 0 0 0\n"),
            "malformed line",
        ),
        (
            "index",
            with_header("done 4 0 0 0 0 0 0\n"),
            "range index 4 outside the 4-range partition",
        ),
        (
            "zero",
            b"bnfckpt 1 n=5 ranges=0 frontier_len=6\n".to_vec(),
            "header ranges=0 is outside",
        ),
        (
            "huge",
            b"bnfckpt 1 n=5 ranges=4294967296 frontier_len=6\n".to_vec(),
            "header ranges=4294967296 is outside",
        ),
        (
            "frontier",
            b"bnfckpt 1 n=5 ranges=4 frontier_len=999\n".to_vec(),
            "different n=5 frontier",
        ),
    ];
    for (tag, bytes, needle) in cases {
        let path = scratch_path(tag);
        std::fs::write(&path, &bytes).unwrap();
        let path_arg = path.to_string_lossy().into_owned();
        assert_one_error(
            &[
                "--n",
                "5",
                "--threads",
                "1",
                "--resume",
                "--checkpoint",
                &path_arg,
            ],
            1,
            needle,
        );
        std::fs::remove_file(&path).ok();
    }
    // A checkpoint path that cannot be read as a file at all.
    let dir = std::env::temp_dir();
    let dir_arg = dir.to_string_lossy().into_owned();
    assert_one_error(
        &["--n", "5", "--resume", "--checkpoint", &dir_arg],
        1,
        "cannot read checkpoint",
    );
}

#[test]
fn torn_final_line_is_dropped_not_an_error() {
    let (path, out) = resume_from(
        "torn",
        b"bnfckpt 1 n=5 ranges=4 frontier_len=6\ndone 0 1 2 3",
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stdout.contains("recovered_ranges: 0\n"), "{stdout}");
    assert!(stdout.contains("connected_graphs: 21\n"), "{stdout}");
    assert!(stderr.contains("torn tail: 12 byte(s) dropped"), "{stderr}");
    // The tail is cut on disk too, and the redone ranges appended.
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.ends_with('\n') && text.lines().count() == 5,
        "{text:?}"
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
