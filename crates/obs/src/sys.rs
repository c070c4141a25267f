//! Small process-introspection helpers behind the run manifest.

/// Peak resident set size of **this process** in kibibytes (`VmHWM`
/// from `/proc/self/status`), `None` where unavailable (non-Linux).
///
/// The figure binaries report this so a sweep's memory is read off its
/// own report instead of an external profiler session. Note the scope:
/// a multi-process sharded sweep must record one value *per shard
/// process* (each stamps its own into the segment's shard metadata) —
/// reading it once from a driver process would understate the fleet's
/// memory roughly `m`-fold.
///
/// `None` is a real outcome, not an error: the stderr report renders it
/// as an explicit `peak RSS: unavailable` line and the manifest stores
/// a JSON `null`, so a non-Linux run is distinguishable from one whose
/// report was truncated.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_on_linux() {
        // On Linux this must parse; elsewhere None is acceptable — the
        // graceful-None contract callers rely on off Linux.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb().is_some_and(|kb| kb > 0));
        } else {
            assert_eq!(peak_rss_kb(), None);
        }
    }
}
