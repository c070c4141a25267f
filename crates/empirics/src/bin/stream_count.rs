//! Enumeration-only counter: counts every non-isomorphic connected
//! graph on `n ≤ 10` vertices and reports the [`bnf_stream::StreamStats`]
//! level sizes and pruning counters — the CI smoke that certifies the
//! `n = 10` scale (OEIS A001349: 11 716 571 connected topologies)
//! without paying any classification.
//!
//! Usage: `stream_count [--n 8] [--threads T] [--shards auto|R]
//! [--checkpoint PATH [--resume]] [--expect COUNT] [--report-json PATH]`
//! (the CI smoke runs `--n 10 --expect 11716571`)
//!
//! The count runs the sweep orchestrator's frontier partition
//! ([`bnf_stream::FrontierPartition`]): one frontier build, `--shards`
//! ranges (`auto`, the default, is 16 per worker thread; never more
//! ranges than parents) stolen by worker threads that only count — no
//! sort tag, no graph6 key, no classification.
//!
//! `--checkpoint PATH` makes the count crash-safe through the sweeps'
//! own range ledger ([`bnf_empirics::run_count_cli`]): an atlas store
//! holding one fsynced `ShardMeta` frame per completed range.
//! `--resume` recovers it after a crash — a torn final frame is dropped
//! and reported — and counts only the missing ranges, as a sweep
//! `--resume` does. A checkpoint that is not an atlas store or does not
//! describe this run's partition prints one `error:` line and exits 1.
//!
//! With `--expect`, a count mismatch exits non-zero — the regression
//! gate. The report goes to stdout in `key: value` lines;
//! `--report-json PATH` also writes the [`bnf_obs::RunManifest`] with
//! the same counters plus spans and histograms.

use std::process::ExitCode;

use bnf_obs::cli::Flags;

const USAGE: &str = "stream_count [--n 8] [--threads T] [--shards auto|R] \
     [--checkpoint PATH [--resume]] [--expect COUNT] [--report-json PATH]";

fn main() -> ExitCode {
    let known = [
        "--n",
        "--threads",
        "--shards",
        "--checkpoint",
        "--expect",
        "--report-json",
    ];
    let (flags, _) = Flags::parse(&known, &["--resume"], false, USAGE);
    let n: usize = flags.number("--n", 8);
    if n > 10 {
        flags.fail(&format!("--n {n} is above the enumeration bound n=10"));
    }
    // The scheduler runs at least one worker; report what ran.
    let threads = flags
        .number(
            "--threads",
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        )
        .max(1);
    let expect = flags
        .get("--expect")
        .map(|_| flags.number::<u64>("--expect", 0));
    let resume = flags.switch("--resume");
    let started = std::time::Instant::now();
    let (stats, ranges, recovered) = bnf_empirics::run_count_cli(n, threads, &flags);
    let count = stats.emitted();
    let elapsed_ms = started.elapsed().as_millis() as u64;
    // The manifest goes first: a path that cannot be written is one
    // `error:` line with nothing on stdout, not a report followed by a
    // failure.
    if let Some(path) = flags.get("--report-json") {
        let mut manifest = bnf_obs::RunManifest::new("stream_count", n as u32, "orchestrated");
        manifest.emitted = count;
        manifest.elapsed_ms = elapsed_ms;
        manifest.peak_rss_kb = bnf_obs::peak_rss_kb();
        bnf_empirics::push_stream_stats(&mut manifest, n, &stats);
        manifest.set_counter("threads", threads as u64);
        manifest.set_counter("ranges", ranges as u64);
        if resume {
            manifest.set_counter("resume_recovered_ranges", recovered as u64);
            manifest.set_counter("resume_redone_ranges", (ranges - recovered) as u64);
        }
        if let Err(e) = manifest.write(path) {
            eprintln!("error: cannot write run manifest to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("n: {n}");
    println!("threads: {threads}");
    println!("ranges: {ranges}");
    println!("frontier_builds: 1");
    if resume {
        println!("recovered_ranges: {recovered}");
    }
    println!("connected_graphs: {count}");
    println!("elapsed_ms: {elapsed_ms}");
    println!("level_sizes: {:?}", stats.level_sizes);
    for (name, value) in stats.prune.named() {
        println!("{name}: {value}");
    }
    println!(
        "candidates_per_survivor: {:.3}",
        stats.prune.candidates_per_survivor()
    );
    if let Some(want) = expect {
        if count != want {
            eprintln!("count mismatch: expected {want}, got {count}");
            return ExitCode::FAILURE;
        }
        eprintln!("count matches expected {want}");
    }
    ExitCode::SUCCESS
}
