//! CI perf gate: compares criterion-shim JSON estimates against a
//! committed baseline and fails on regression.
//!
//! Usage: `bench_gate [--strict] <BENCH_BASELINE.json> <tolerance> <estimates.json>...`
//!
//! Every benchmark id in the baseline must appear in (exactly one of)
//! the estimate files with a mean no more than `(1 + tolerance) ×`
//! the baseline mean; a missing or slower benchmark exits 1 — an id
//! the run never measured is a MISSING failure, never a silent skip.
//! With `--strict`, the converse also gates: a *measured* id with no
//! baseline entry fails (UNGATED), so a new hot-path benchmark cannot
//! land in the CI filter set without a baseline mean in the same
//! commit. Without `--strict`, extra estimates are reported as
//! `(not gated)` but pass.
//!
//! Two estimate shapes are understood, keyed off what follows each
//! `"id"`: the criterion shim's `{"benchmarks":[{"id":…,"mean_ns":…}]}`
//! (`BNF_CRITERION_JSON`) and the `bnf-obs` run manifest's `metrics`
//! array (`{"id":…,"value":…}`, e.g. `manifest/candidates_per_survivor/8`
//! from `--report-json`) — so one gate covers wall-clock means and
//! counter-derived work metrics alike. `manifest/...` ids print raw
//! values instead of milliseconds. See `crates/bench/README.md` for the
//! baseline-refresh procedure.
//! A usage mistake exits 2, a file that cannot be read or parsed exits
//! 1, each with one `error:` line.

use std::collections::BTreeMap;
use std::process::ExitCode;

use bnf_obs::cli::Flags;

const USAGE: &str = "bench_gate [--strict] <BENCH_BASELINE.json> <tolerance> <estimates.json>...";

/// Extracts `id → value` pairs from one JSON document: the shim's
/// `"mean_ns"` estimates or a run manifest's `"value"` metrics —
/// whichever key follows each `"id"` first.
///
/// Not a general JSON parser: both producers emit one flat object per
/// entry with `"id"` preceding its number, which is all this scanner
/// assumes (a manifest's counters/spans use `"name"` keys, so only its
/// metrics array matches). Malformed input yields an error rather than
/// silently passing the gate.
fn parse_estimates(doc: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    let mut rest = doc;
    while let Some(idx) = rest.find("\"id\":\"") {
        rest = &rest[idx + 6..];
        let end = rest
            .find('"')
            .ok_or_else(|| "unterminated id string".to_string())?;
        let id = rest[..end].to_string();
        if id.contains('\\') {
            return Err(format!("id {id:?} contains escapes the gate cannot parse"));
        }
        rest = &rest[end + 1..];
        // The number key nearest this id wins, so a shim entry's
        // mean_ns cannot be satisfied by some later metric's value (or
        // vice versa).
        let (midx, key) = ["\"mean_ns\":", "\"value\":"]
            .into_iter()
            .filter_map(|k| rest.find(k).map(|i| (i, k)))
            .min_by_key(|&(i, _)| i)
            .ok_or_else(|| format!("no mean_ns or value after id {id:?}"))?;
        let after = &rest[midx + key.len()..];
        let num: String = after
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
            .collect();
        let mean: f64 = num
            .parse()
            .map_err(|_| format!("bad {key} number {num:?} for id {id:?}"))?;
        if out.insert(id.clone(), mean).is_some() {
            return Err(format!("duplicate id {id:?}"));
        }
        rest = after;
    }
    Ok(out)
}

fn load(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_estimates(&doc).map_err(|e| format!("{path}: {e}"))
}

/// Shim estimates are nanosecond means; `manifest/...` metrics are
/// dimensionless (ratios, shares) and print raw.
fn fmt_value(id: &str, v: f64) -> String {
    if id.starts_with("manifest/") {
        format!("{v:.3}")
    } else {
        format!("{:.3} ms", v / 1e6)
    }
}

/// Gates the estimate files against the baseline: `Ok(false)` on a
/// regression (or a missing / ungated id), `Err` when a file cannot be
/// read or parsed.
fn run(
    strict: bool,
    baseline_path: &str,
    tolerance: f64,
    estimate_paths: &[String],
) -> Result<bool, String> {
    let baseline = load(baseline_path)?;
    if baseline.is_empty() {
        return Err(format!("{baseline_path}: no benchmarks in baseline"));
    }
    let mut measured: BTreeMap<String, f64> = BTreeMap::new();
    for path in estimate_paths {
        for (id, mean) in load(path)? {
            if measured.insert(id.clone(), mean).is_some() {
                return Err(format!("benchmark {id:?} measured in two estimate files"));
            }
        }
    }
    let mut ok = true;
    println!(
        "{:<44} {:>12} {:>12} {:>8}  status",
        "benchmark", "baseline", "measured", "ratio"
    );
    for (id, base) in &baseline {
        match measured.get(id) {
            None => {
                ok = false;
                println!(
                    "{id:<44} {:>12} {:>12} {:>8}  MISSING",
                    fmt_value(id, *base),
                    "-",
                    "-"
                );
            }
            Some(&mean) => {
                let ratio = mean / base;
                let pass = ratio <= 1.0 + tolerance;
                ok &= pass;
                println!(
                    "{id:<44} {:>12} {:>12} {ratio:>8.2}  {}",
                    fmt_value(id, *base),
                    fmt_value(id, mean),
                    if pass { "ok" } else { "REGRESSED" }
                );
            }
        }
    }
    for (id, mean) in &measured {
        if !baseline.contains_key(id) {
            // In strict mode a measured benchmark with no baseline mean
            // is a failure: new hot-path benches must land their
            // baseline entry in the same commit that adds them to CI.
            ok &= !strict;
            println!(
                "{id:<44} {:>12} {:>12} {:>8}  {}",
                "-",
                fmt_value(id, *mean),
                "-",
                if strict {
                    "UNGATED (missing baseline id)"
                } else {
                    "(not gated)"
                }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let (flags, args) = Flags::parse(&[], &["--strict"], true, USAGE);
    let [baseline, tolerance, estimates @ ..] = &args[..] else {
        flags.fail("expected a baseline, a tolerance and estimate files")
    };
    if estimates.is_empty() {
        flags.fail("no estimate files given");
    }
    let tolerance: f64 = tolerance
        .parse()
        .unwrap_or_else(|_| flags.fail(&format!("bad tolerance {tolerance:?} (want e.g. 0.25)")));
    match run(flags.switch("--strict"), baseline, tolerance, estimates) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench gate FAILED: regression beyond tolerance (or missing benchmark)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"benchmarks":[
  {"id":"fig2_fig3/sweep/7","mean_ns":123456789.0,"min_ns":1.0,"max_ns":2.0,"samples":10},
  {"id":"streaming_sweep/streaming/7","mean_ns":98765432.1,"min_ns":1.0,"max_ns":2.0,"samples":10}
]}"#;

    #[test]
    fn parses_shim_output() {
        let map = parse_estimates(SAMPLE).unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map["fig2_fig3/sweep/7"], 123456789.0);
        assert_eq!(map["streaming_sweep/streaming/7"], 98765432.1);
    }

    #[test]
    fn parses_manifest_metrics() {
        // The relevant slice of a bnf-obs run manifest: counters/spans
        // key on "name" (invisible to the scanner); metrics on "id"
        // with "value".
        let manifest = r#"{
"bnf_manifest_version":1,
"counters":[{"name":"candidates","value":65431},{"name":"accepted","value":11117}],
"metrics":[{"id":"manifest/candidates_per_survivor/8","value":5.886},
           {"id":"manifest/heaviest_range_share/8","value":0.141}],
"shards":[]
}"#;
        let map = parse_estimates(manifest).unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map["manifest/candidates_per_survivor/8"], 5.886);
        assert_eq!(map["manifest/heaviest_range_share/8"], 0.141);
        // A mixed load (shim estimates + manifest metrics) keys each id
        // off its nearest number, never a later entry's.
        let mixed = format!("{SAMPLE}{manifest}");
        let map = parse_estimates(&mixed).unwrap();
        assert_eq!(map.len(), 4);
        assert_eq!(map["streaming_sweep/streaming/7"], 98765432.1);
        assert_eq!(map["manifest/candidates_per_survivor/8"], 5.886);
        // Manifest metrics render raw; shim means render as ms.
        assert_eq!(fmt_value("manifest/x/8", 5.886), "5.886");
        assert_eq!(
            fmt_value("streaming_sweep/streaming/7", 46.5e6),
            "46.500 ms"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_estimates(r#"{"benchmarks":[{"id":"x}"#).is_err());
        assert!(parse_estimates(r#"{"id":"x","other":1}"#).is_err());
        assert!(parse_estimates(r#"{"id":"x","mean_ns":"fast"}"#).is_err());
        assert!(
            parse_estimates(r#"{"id":"a","mean_ns":1},{"id":"a","mean_ns":2}"#).is_err(),
            "duplicates"
        );
        // No benchmarks at all parses as empty (the caller rejects it).
        assert!(parse_estimates("{}").unwrap().is_empty());
    }

    #[test]
    fn gate_logic_end_to_end() {
        let dir = std::env::temp_dir();
        let base = dir.join(format!("bnf-gate-base-{}.json", std::process::id()));
        let est = dir.join(format!("bnf-gate-est-{}.json", std::process::id()));
        std::fs::write(&base, r#"{"benchmarks":[{"id":"a","mean_ns":100.0}]}"#).unwrap();
        // Within tolerance (20% over, 25% allowed).
        std::fs::write(&est, r#"{"benchmarks":[{"id":"a","mean_ns":120.0}]}"#).unwrap();
        let base_path = base.to_str().unwrap();
        let estimates = [est.to_str().unwrap().to_string()];
        assert_eq!(run(false, base_path, 0.25, &estimates), Ok(true));
        assert_eq!(
            run(false, base_path, 0.1, &estimates),
            Ok(false),
            "20% over a 10% gate fails"
        );
        // A baseline id absent from the estimates fails (no silent
        // skip for unmeasured baselines).
        std::fs::write(&est, r#"{"benchmarks":[{"id":"b","mean_ns":1.0}]}"#).unwrap();
        assert_eq!(run(false, base_path, 0.25, &estimates), Ok(false));
        std::fs::remove_file(&base).ok();
        std::fs::remove_file(&est).ok();
    }

    #[test]
    fn strict_mode_fails_ids_missing_from_the_baseline() {
        let dir = std::env::temp_dir();
        let base = dir.join(format!("bnf-gate-sbase-{}.json", std::process::id()));
        let est = dir.join(format!("bnf-gate-sest-{}.json", std::process::id()));
        std::fs::write(&base, r#"{"benchmarks":[{"id":"a","mean_ns":100.0}]}"#).unwrap();
        // `a` passes; `fresh` has no baseline entry.
        std::fs::write(
            &est,
            r#"{"benchmarks":[{"id":"a","mean_ns":100.0},{"id":"fresh","mean_ns":1.0}]}"#,
        )
        .unwrap();
        let base_path = base.to_str().unwrap();
        let estimates = [est.to_str().unwrap().to_string()];
        assert_eq!(
            run(false, base_path, 0.25, &estimates),
            Ok(true),
            "lenient mode only reports extras"
        );
        assert_eq!(
            run(true, base_path, 0.25, &estimates),
            Ok(false),
            "strict mode gates them"
        );
        std::fs::remove_file(&base).ok();
        std::fs::remove_file(&est).ok();
    }
}
