//! Crash/resume of `stream_count`'s checkpointed count, through the real
//! binary and real kills: a count SIGKILLed at the sweeps' `range_commit`
//! kill point (the moment a range's `ShardMeta` frame is durably in the
//! checkpoint store) — plainly, or after tearing bytes off that frame —
//! must resume from the store, recover exactly the durable ranges, and
//! report the count, level sizes and every pruning counter of an
//! uninterrupted run — on one worker and on two, whose ranges finish
//! out of index order. A count checkpoint holds no records, so a sweep
//! `--resume` handed one refuses it without printing a figure.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Arguments every run shares: order 7 (853 graphs) cut into 8 ranges.
const BASE: [&str; 4] = ["--n", "7", "--shards", "8"];

/// The stdout lines that must not depend on how the count was reached.
const INVARIANT: [&str; 9] = [
    "connected_graphs",
    "level_sizes",
    "candidates",
    "orbit_skipped",
    "cheap_rejected",
    "search_rejected",
    "duplicates",
    "accepted",
    "candidates_per_survivor",
];

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "bnf-count-resume-{}-{tag}.bnfatlas",
        std::process::id()
    ))
}

/// Spawns `stream_count` with the shared arguments plus `extra`, and an
/// optional armed fault.
fn run(extra: &[&str], checkpoint: Option<&Path>, fault: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_stream_count"));
    cmd.args(BASE).args(extra).env_remove("BNF_FAULT");
    if let Some(path) = checkpoint {
        cmd.arg("--checkpoint").arg(path);
    }
    if let Some(spec) = fault {
        cmd.env("BNF_FAULT", spec);
    }
    cmd.output().expect("spawn stream_count")
}

/// The value of the `key: value` stdout line `key`.
fn line<'a>(stdout: &'a str, key: &str) -> Option<&'a str> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(": "))
}

/// The stdout of an uninterrupted count on `threads` workers.
fn uninterrupted(threads: &str) -> String {
    let whole = run(&["--threads", threads], None, None);
    assert!(whole.status.success(), "{whole:?}");
    let whole = String::from_utf8(whole.stdout).unwrap();
    assert_eq!(line(&whole, "connected_graphs"), Some("853"));
    whole
}

#[test]
fn killed_counts_resume_to_the_uninterrupted_counters() {
    // One worker, so ranges complete in index order.
    let whole = uninterrupted("1");
    for (fault, recovered) in [("range_commit:3", "3"), ("range_commit:3:tear:5", "2")] {
        let path = scratch_path(&fault.replace(':', "-"));
        std::fs::remove_file(&path).ok();
        let killed = run(&["--threads", "1"], Some(&path), Some(fault));
        assert!(
            !killed.status.success() && killed.status.code().is_none(),
            "{fault}: the armed kill must fire, got {killed:?}"
        );
        assert!(
            killed.stdout.is_empty(),
            "{fault}: a killed count reports nothing"
        );

        let resumed = run(&["--threads", "1", "--resume"], Some(&path), None);
        let stderr = String::from_utf8_lossy(&resumed.stderr);
        assert!(resumed.status.success(), "{fault}: {stderr}");
        let stdout = String::from_utf8(resumed.stdout).unwrap();
        assert_eq!(
            line(&stdout, "recovered_ranges"),
            Some(recovered),
            "{fault}"
        );
        assert_eq!(line(&stdout, "ranges"), Some("8"), "{fault}");
        for key in INVARIANT {
            assert_eq!(line(&stdout, key), line(&whole, key), "{fault}: {key}");
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn two_worker_kill_resumes_to_the_uninterrupted_counters() {
    // Two workers finish ranges out of index order; the calling thread
    // still commits every range, so the kill at the third commit leaves
    // exactly three durable ranges, whichever they are — two when the
    // kill also tears the third frame.
    let whole = uninterrupted("2");
    for (fault, recovered) in [("range_commit:3", "3"), ("range_commit:3:tear:5", "2")] {
        let path = scratch_path(&format!("two-workers-{}", fault.replace(':', "-")));
        std::fs::remove_file(&path).ok();
        let killed = run(&["--threads", "2"], Some(&path), Some(fault));
        assert!(
            !killed.status.success() && killed.status.code().is_none(),
            "{fault}: the armed kill must fire, got {killed:?}"
        );
        let resumed = run(&["--threads", "2", "--resume"], Some(&path), None);
        let stderr = String::from_utf8_lossy(&resumed.stderr);
        assert!(resumed.status.success(), "{fault}: {stderr}");
        let stdout = String::from_utf8(resumed.stdout).unwrap();
        assert_eq!(
            line(&stdout, "recovered_ranges"),
            Some(recovered),
            "{fault}"
        );
        for key in INVARIANT {
            assert_eq!(line(&stdout, key), line(&whole, key), "{fault}: {key}");
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn whole_counts_get_at_most_one_range_per_parent() {
    // Order 5 has a 6-parent frontier: 100 requested ranges become 6.
    let out = Command::new(env!("CARGO_BIN_EXE_stream_count"))
        .args(["--n", "5", "--shards", "100"])
        .env_remove("BNF_FAULT")
        .output()
        .expect("spawn stream_count");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(line(&stdout, "ranges"), Some("6"));
    assert_eq!(line(&stdout, "connected_graphs"), Some("21"));
}

#[test]
fn zero_threads_run_and_report_one_worker() {
    let json = scratch_path("threads-0.json");
    let out = Command::new(env!("CARGO_BIN_EXE_stream_count"))
        .args(["--n", "4", "--threads", "0", "--report-json"])
        .arg(&json)
        .env_remove("BNF_FAULT")
        .output()
        .expect("spawn stream_count");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(line(&stdout, "threads"), Some("1"));
    assert_eq!(line(&stdout, "connected_graphs"), Some("6"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("(1 worker thread(s)"), "{stderr}");
    let manifest = std::fs::read_to_string(&json).unwrap();
    let manifest = bnf_obs::RunManifest::from_json(&manifest).unwrap();
    assert_eq!(manifest.counter("threads"), Some(1));
    std::fs::remove_file(&json).ok();
}

#[test]
fn sweep_resume_refuses_a_count_checkpoint_without_a_figure() {
    // A finished order-7 count: every range committed, no records.
    let path = scratch_path("sweep-resume");
    std::fs::remove_file(&path).ok();
    let count = run(&["--threads", "1"], Some(&path), None);
    assert!(count.status.success(), "{count:?}");
    let sweep = Command::new(env!("CARGO_BIN_EXE_fig2_avg_poa"))
        .args(["--n", "7", "--threads", "1", "--csv", "--resume", "--atlas"])
        .arg(&path)
        .env_remove("BNF_FAULT")
        .output()
        .expect("spawn fig2_avg_poa");
    let stderr = String::from_utf8_lossy(&sweep.stderr);
    assert_eq!(sweep.status.code(), Some(1), "{stderr}");
    assert!(sweep.stdout.is_empty(), "a partial figure was printed");
    assert!(stderr.contains("error: "), "{stderr}");
    std::fs::remove_file(&path).ok();
}
