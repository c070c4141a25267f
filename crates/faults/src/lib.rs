//! Env-armed fault injection for crash-safety tests.
//!
//! The crash-resume guarantees of the sweep stack — torn-tail recovery
//! (`bnf_atlas::ClassificationAtlas::open_recovering`), checkpointed
//! orchestrated runs (`--resume`) — are only worth trusting if a test
//! can kill a real run at a *chosen* point and watch the next run
//! recover. This crate is that trigger: production code marks its
//! commit points with [`trip`] / [`trip_with_file`], and a test arms at
//! most **one** fault per process through the `BNF_FAULT` environment
//! variable. Unarmed (the only state outside the fault tests), every
//! kill point is a single relaxed atomic load against a decoded-once
//! spec — dormant by default, no branches on the hot paths that matter.
//!
//! # Arming
//!
//! ```text
//! BNF_FAULT=<point>:<n>[:<action>]
//! ```
//!
//! * `point` — the kill-point name passed to [`trip`], e.g.
//!   `range_commit`, the one per-range durability point: a sweep
//!   binary's range commit and a `stream_count --checkpoint` range
//!   commit both trip it, once the range's `ShardMeta` frame is fsynced.
//! * `n` — trip on the `n`-th hit of that point (1-based), so a test
//!   can let a prefix of the run commit durably before the crash.
//! * `action` — what tripping does:
//!   * `kill` (default) — SIGKILL this process: the no-cleanup crash,
//!     exactly what a machine reboot or OOM kill leaves behind.
//!   * `panic` — panic at the kill point: exercises unwind paths (the
//!     orchestrator's writer-panic propagation) rather than raw death.
//!   * `tear:BYTES` — chop the final `BYTES` bytes off the file passed
//!     to [`trip_with_file`], fsync the truncation, then SIGKILL: a
//!     mid-append torn write, the case torn-tail recovery exists for.
//!
//! A malformed spec panics at the first kill point rather than running
//! the whole test with a silently disabled fault.
//!
//! # Example
//!
//! ```no_run
//! // In the code under test, at the point where a range becomes
//! // durable:
//! bnf_faults::trip("range_commit");
//!
//! // In the test harness:
//! // Command::new(bin).env("BNF_FAULT", "range_commit:3").spawn()
//! // → the process SIGKILLs itself right after its 3rd completed range.
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// What an armed fault does when its kill point trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// SIGKILL this process (no unwinding, no destructors).
    Kill,
    /// Panic at the kill point (exercises unwind propagation).
    Panic,
    /// Truncate the kill point's file by this many tail bytes (fsynced),
    /// then SIGKILL — a simulated torn write.
    Tear(u64),
}

/// One armed fault, decoded from `BNF_FAULT` exactly once per process.
#[derive(Debug)]
struct Fault {
    point: String,
    /// Trip on this hit of the point (1-based).
    at: u64,
    action: Action,
}

static FAULT: OnceLock<Option<Fault>> = OnceLock::new();
/// Hits of the armed fault's point (other points are never counted —
/// one fault per process keeps runs reproducible).
static HITS: AtomicU64 = AtomicU64::new(0);

/// Decodes `point:n[:action]`; panics on anything malformed, so a typo
/// in a test's spec fails the test instead of silently disarming it.
fn parse(spec: &str) -> Fault {
    let bad = |why: &str| -> ! {
        panic!(
            "bnf-faults: bad BNF_FAULT spec {spec:?}: {why} (want point:n[:kill|panic|tear:BYTES])"
        )
    };
    let mut parts = spec.splitn(3, ':');
    let point = match parts.next() {
        Some(p) if !p.is_empty() => p.to_owned(),
        _ => bad("empty kill-point name"),
    };
    let at = match parts.next().map(str::parse::<u64>) {
        Some(Ok(at)) if at >= 1 => at,
        _ => bad("hit count must be a positive integer"),
    };
    let action = match parts.next() {
        None | Some("kill") => Action::Kill,
        Some("panic") => Action::Panic,
        Some(tear) => match tear.strip_prefix("tear:").map(str::parse::<u64>) {
            Some(Ok(bytes)) if bytes >= 1 => Action::Tear(bytes),
            _ => bad("unknown action"),
        },
    };
    Fault { point, at, action }
}

/// The process's armed fault, if any — decoded from `BNF_FAULT` on
/// first use and fixed for the process lifetime (re-arming after the
/// first kill point has fired would make hit counts meaningless).
fn armed() -> Option<&'static Fault> {
    FAULT
        .get_or_init(|| std::env::var("BNF_FAULT").ok().map(|s| parse(&s)))
        .as_ref()
}

/// SIGKILL the current process. `kill(1)` is POSIX-required and the
/// workspace has no libc binding; if even that is missing, abort — the
/// one thing a kill point must never do is return as if nothing
/// happened.
fn kill_self() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .args(["-9", &pid])
        .status();
    // Signal delivery can lag the status() return by a scheduler tick;
    // never fall back into the caller's post-commit code.
    std::process::abort();
}

/// Marks a kill point: counts one hit of `point` against the armed
/// fault and performs its action when the count reaches the armed
/// threshold. Unarmed, or armed for a different point, this is a
/// no-op. A tripping `tear` action at a file-less kill point degrades
/// to a plain kill (there is nothing to tear).
pub fn trip(point: &str) {
    trip_impl(point, None);
}

/// [`trip`] for kill points that own a file a `tear:BYTES` action can
/// truncate — pass the store/sidecar the surrounding code just
/// appended to.
pub fn trip_with_file(point: &str, file: &Path) {
    trip_impl(point, Some(file));
}

fn trip_impl(point: &str, file: Option<&Path>) {
    let Some(fault) = armed() else { return };
    if fault.point != point {
        return;
    }
    let hit = HITS.fetch_add(1, Ordering::Relaxed) + 1;
    if hit != fault.at {
        return;
    }
    // The one stderr line a harness greps to confirm the fault actually
    // fired (a run that never reaches its kill point would otherwise
    // pass the resume test vacuously).
    eprintln!("bnf-faults: tripping {point}:{hit} ({:?})", fault.action);
    match fault.action {
        Action::Panic => panic!("bnf-faults: armed panic at kill point {point:?} (hit {hit})"),
        Action::Kill => kill_self(),
        Action::Tear(bytes) => {
            if let Some(path) = file {
                let torn = std::fs::metadata(path)
                    .map(|m| m.len().saturating_sub(bytes))
                    .unwrap_or(0);
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .unwrap_or_else(|e| panic!("bnf-faults: cannot tear {}: {e}", path.display()));
                file.set_len(torn)
                    .and_then(|()| file.sync_all())
                    .unwrap_or_else(|e| panic!("bnf-faults: cannot tear {}: {e}", path.display()));
            }
            kill_self();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse() {
        let f = parse("range_commit:3");
        assert_eq!(
            (f.point.as_str(), f.at, f.action),
            ("range_commit", 3, Action::Kill)
        );
        let f = parse("append:1:panic");
        assert_eq!(
            (f.point.as_str(), f.at, f.action),
            ("append", 1, Action::Panic)
        );
        let f = parse("range_commit:7:tear:13");
        assert_eq!(
            (f.point.as_str(), f.at, f.action),
            ("range_commit", 7, Action::Tear(13))
        );
    }

    #[test]
    fn malformed_specs_panic() {
        for spec in [
            "",
            "point",
            "point:0",
            "point:x",
            ":3",
            "point:1:explode",
            "point:1:tear:0",
            "point:1:tear:x",
        ] {
            assert!(
                std::panic::catch_unwind(|| parse(spec)).is_err(),
                "spec {spec:?} must be rejected"
            );
        }
    }

    #[test]
    fn unarmed_kill_points_are_noops() {
        // The test process has no BNF_FAULT: every point is dormant.
        for _ in 0..10 {
            trip("range_commit");
            trip_with_file("range_commit", Path::new("/nonexistent"));
        }
    }
}
