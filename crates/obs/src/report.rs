//! The one stderr formatter over the run manifest.
//!
//! Every sweep binary used to carry its own copy of the diagnostics
//! block; now each line is rendered *from the manifest*, so the human
//! report and the `--report-json` document cannot disagree — they are
//! the same numbers formatted twice.

use crate::manifest::RunManifest;

/// The `classified … topologies` headline, including the orchestrated
/// path's range/thread/frontier detail (the CI cold/warm gate seds the
/// `classification took N ms` out of this line — keep it stable).
pub fn render_classified_line(m: &RunManifest) -> String {
    if m.path == "orchestrated" {
        format!(
            "classified {} topologies: classification took {} ms (orchestrated path, \
             {} ranges on {} threads, frontier of {} parents built once)",
            m.emitted,
            m.elapsed_ms,
            m.counter("ranges").unwrap_or(0),
            m.counter("threads").unwrap_or(0),
            m.counter("frontier_len").unwrap_or(0),
        )
    } else {
        format!(
            "classified {} topologies: classification took {} ms ({} path)",
            m.emitted, m.elapsed_ms, m.path
        )
    }
}

/// The canonical-construction pruning-counter line, when the run
/// enumerated (a warm replay has no counters and renders nothing).
pub fn render_enumeration_line(m: &RunManifest) -> Option<String> {
    let candidates = m.counter("candidates")?;
    let accepted = m.counter("accepted").unwrap_or(0);
    let ratio = if accepted == 0 {
        0.0
    } else {
        candidates as f64 / accepted as f64
    };
    Some(format!(
        "enumeration: {} candidates ({} orbit-skipped masks), {} cheap-rejected, \
         {} search-rejected, {} duplicates, {} accepted ({ratio:.2} candidates/survivor)",
        candidates,
        m.counter("orbit_skipped").unwrap_or(0),
        m.counter("cheap_rejected").unwrap_or(0),
        m.counter("search_rejected").unwrap_or(0),
        m.counter("duplicates").unwrap_or(0),
        accepted,
    ))
}

/// The peak-RSS line. `None` renders an explicit `unavailable` —
/// silently omitting the line made non-Linux reports look like the
/// number had simply been forgotten.
pub fn format_peak_rss(kb: Option<u64>, path: &str) -> String {
    match kb {
        Some(kb) => format!("peak RSS: {:.1} MiB ({path} path)", kb as f64 / 1024.0),
        None => format!("peak RSS: unavailable ({path} path)"),
    }
}

/// The full report block (classified line, enumeration line where the
/// run enumerated, peak-RSS line), newline-terminated — what the sweep
/// CLIs print to stderr after a run.
pub fn render_run_report(m: &RunManifest) -> String {
    let mut out = String::new();
    out.push_str(&render_classified_line(m));
    out.push('\n');
    if let Some(line) = render_enumeration_line(m) {
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&format_peak_rss(m.peak_rss_kb, &m.path));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(path: &str) -> RunManifest {
        let mut m = RunManifest::new("fig2_avg_poa", 7, path);
        m.emitted = 853;
        m.elapsed_ms = 42;
        m.set_counter("candidates", 4_082);
        m.set_counter("orbit_skipped", 100);
        m.set_counter("cheap_rejected", 200);
        m.set_counter("search_rejected", 300);
        m.set_counter("duplicates", 400);
        m.set_counter("accepted", 853);
        m
    }

    #[test]
    fn classified_line_matches_the_legacy_formats() {
        let m = manifest("streaming");
        assert_eq!(
            render_classified_line(&m),
            "classified 853 topologies: classification took 42 ms (streaming path)"
        );
        let mut orch = manifest("orchestrated");
        orch.set_counter("ranges", 64);
        orch.set_counter("threads", 4);
        orch.set_counter("frontier_len", 112);
        assert_eq!(
            render_classified_line(&orch),
            "classified 853 topologies: classification took 42 ms (orchestrated path, \
             64 ranges on 4 threads, frontier of 112 parents built once)"
        );
    }

    #[test]
    fn enumeration_line_renders_counters_and_ratio() {
        let m = manifest("streaming");
        assert_eq!(
            render_enumeration_line(&m).unwrap(),
            "enumeration: 4082 candidates (100 orbit-skipped masks), 200 cheap-rejected, \
             300 search-rejected, 400 duplicates, 853 accepted (4.79 candidates/survivor)"
        );
        // Warm replay: no counters, no line.
        let mut warm = RunManifest::new("fig2_avg_poa", 7, "replay");
        warm.emitted = 853;
        assert_eq!(render_enumeration_line(&warm), None);
    }

    #[test]
    fn peak_rss_is_explicit_when_unavailable() {
        assert_eq!(
            format_peak_rss(Some(51_200), "streaming"),
            "peak RSS: 50.0 MiB (streaming path)"
        );
        assert_eq!(
            format_peak_rss(None, "orchestrated"),
            "peak RSS: unavailable (orchestrated path)"
        );
    }

    #[test]
    fn full_report_covers_the_none_rss_branch() {
        let mut m = manifest("streaming");
        m.peak_rss_kb = None;
        let report = render_run_report(&m);
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[2], "peak RSS: unavailable (streaming path)");
        m.peak_rss_kb = Some(2_048);
        assert!(render_run_report(&m).contains("peak RSS: 2.0 MiB (streaming path)"));
    }
}
