//! End-to-end benchmark of the bilateral-formation workspace.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_sweep|warm_replay|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Prints a report (every metric by name,
//! unit and sample count, the machine stamp, and with `--trace 1` the
//! per-layer ledger), then one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the
//! end-to-end metrics untraced, the per-layer metrics traced. Exits
//! non-zero, naming the workload, when any check fails. See README.md.

mod cold;
mod figures;
mod fixture;
mod layout;
mod ledger;
mod mix;
mod oracle;
mod replay;
mod serve;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The catalogue order every workload runs at.
pub const N: usize = 9;

/// Worker threads and client connections: the load comes from one
/// process with at most two of each.
pub const THREADS: usize = 2;

/// The end-to-end metrics: every workload reports all four (name,
/// unit). Their meaning per workload is in README.md.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics (name, unit). A traced run reports all of
/// them; a layer a workload never calls reads 0.
pub const LAYERS: [(&str, &str); 39] = [
    ("stream.frontier_build_s", "s"),
    ("stream.produce_s", "s"),
    ("stream.candidates_per_survivor", "ratio"),
    ("core.total_distance_s", "s"),
    ("core.bcg_window_s", "s"),
    ("core.transfer_window_s", "s"),
    ("core.ucg_necessary_s", "s"),
    ("core.ucg_build_s", "s"),
    ("core.ucg_support_s", "s"),
    ("core.ucg_solver_share", "ratio"),
    ("engine.worker_busy_s", "s"),
    ("engine.worker_idle_share", "ratio"),
    ("engine.heaviest_range_s", "s"),
    ("atlas.encode_s", "s"),
    ("atlas.append_s", "s"),
    ("atlas.commit_s", "s"),
    ("atlas.bytes_written", "B"),
    ("atlas.scan_block_switches", "count"),
    ("atlas.open_s", "s"),
    ("atlas.complete_sweep_s", "s"),
    ("atlas.decode_s", "s"),
    ("atlas.index_probe_us", "us"),
    ("atlas.block_decode_us", "us"),
    ("atlas.records_decoded_per_lookup", "count"),
    ("atlas.stream_sweep_s", "s"),
    ("graph.canonical_form_us", "us"),
    ("empirics.grid_evaluate_s", "s"),
    ("empirics.stats_s", "s"),
    ("empirics.render_s", "s"),
    ("empirics.fold_ns_per_record_alpha", "ns"),
    ("serve.handle_us.classify", "us"),
    ("serve.handle_us.relabel", "us"),
    ("serve.handle_us.record", "us"),
    ("serve.handle_us.live", "us"),
    ("serve.handle_us.grid", "us"),
    ("serve.handle_us.grid_miss", "us"),
    ("serve.transport_us", "us"),
    ("ledger.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Per-layer run instead of end-to-end.
    pub trace: bool,
}

/// What one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sweeps, replays or requests).
    pub attempted: u64,
    /// Operations whose output or status was wrong.
    pub failed: u64,
    /// Why operations failed (first few).
    pub failures: Vec<String>,
    /// Set-up samples, seconds.
    pub setup_s: Vec<f64>,
    /// Headline wall-clock samples, seconds.
    pub wall_s: Vec<f64>,
    /// Operations completed per second of the measured phase, and the
    /// number of samples behind it (sweeps, replays, or one-second
    /// windows of the serve loop).
    pub ops_per_s: (f64, usize),
    /// VmHWM of the timed phase, MiB.
    pub peak_rss_mib: f64,
    /// The workload's own named numbers (name, value, unit, samples),
    /// printed in the report.
    pub report: Vec<(String, f64, String, usize)>,
    /// Per-layer values (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// The rendered ledger (traced runs).
    pub ledger: Option<String>,
}

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Adds a named report line.
    pub fn note(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.report
            .push((name.to_owned(), value, unit.to_owned(), samples));
    }

    /// Sets a per-layer metric (must be one of [`LAYERS`]).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYERS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, value);
    }
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?.to_owned();
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed wants an unsigned integer".to_owned())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds wants a number".to_owned())?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Output of a short command, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and build the numbers were measured on.
fn stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only the checkout's own repository: git would otherwise report
    // whatever repository encloses it.
    let git = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    format!(
        "stamp: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" git={git}",
        command_line("rustc", &["-V"]),
    )
}

/// A finite value for the JSON line.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn print_result(args: &Args, out: &Outcome) {
    println!("{}", stamp());
    let e2e = [
        util::median(&out.setup_s),
        util::median(&out.wall_s),
        out.ops_per_s.0,
        out.peak_rss_mib,
    ];
    let samples = [out.setup_s.len(), out.wall_s.len(), out.ops_per_s.1, 1];
    for (((name, unit), v), n) in END_TO_END.iter().zip(e2e).zip(samples) {
        println!(
            "metric {} {name} = {v:.6} {unit} (samples: {n})",
            args.workload
        );
    }
    for (name, v, unit, n) in &out.report {
        println!(
            "report {} {name} = {v:.6} {unit} (samples: {n})",
            args.workload
        );
    }
    if let Some(ledger) = &out.ledger {
        print!("{ledger}");
    }
    for why in &out.failures {
        println!("FAILED {}: {why}", args.workload);
    }
    let mut metrics = String::new();
    let mut push = |name: &str, value: f64, unit: &str| {
        if !metrics.is_empty() {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            finite(value)
        ));
    };
    if args.trace {
        for (name, unit) in LAYERS {
            let v = out.layers.get(name).copied().unwrap_or(0.0);
            println!("layer {} {name} = {v} {unit}", args.workload);
            push(name, v, unit);
        }
    } else {
        for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
            push(name, v, unit);
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
    );
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--internal") {
        return match fixture::internal(&raw[1..]) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench set-up: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload cold_sweep|warm_replay|serve_mix --seed N --seconds S --trace 0|1"
            );
            return ExitCode::FAILURE;
        }
    };
    // Orders above 8 need this opt-in; set before any thread starts.
    std::env::set_var("BNF_MAX_N", N.to_string());
    let result = match args.workload.as_str() {
        "cold_sweep" => cold::run(&args),
        "warm_replay" => replay::run(&args),
        "serve_mix" => serve::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(out) => {
            print_result(&args, &out);
            if out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: workload {} failed {} of {} operations",
                    args.workload, out.failed, out.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: workload {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(LAYERS.iter())
            .map(|(n, _)| *n)
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }

    #[test]
    fn arguments_parse() {
        let raw: Vec<String> = "--workload serve_mix --seed 3 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&raw).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mix", 3, 10.0, true)
        );
        assert!(parse_args(&raw[..4]).is_err());
    }
}
