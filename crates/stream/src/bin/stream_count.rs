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
//! `--checkpoint PATH` makes the count crash-safe: the calling thread
//! appends one fsynced line (index, emitted, pruning counters) per
//! completed range to a plain-text sidecar. `--resume` re-reads it after
//! a crash — a torn final line (the write the kill interrupted) is
//! dropped and reported — checks its partition against the rebuilt
//! frontier, folds the recovered ranges' counts in, and enumerates only
//! the missing ranges (the sweep binaries get the same from their
//! `--atlas` store). A sidecar that cannot be read or does not describe
//! this run's partition prints one `error:` line and exits 1.
//!
//! With `--expect`, a count mismatch exits non-zero — the regression
//! gate. The report goes to stdout in `key: value` lines;
//! `--report-json PATH` also writes the [`bnf_obs::RunManifest`] with
//! the same counters plus spans and histograms.

use std::io::Write;
use std::process::ExitCode;

use bnf_obs::cli::Flags;
use bnf_stream::{
    FrontierPartition, ParentFrontier, PruneCounters, RangeSelection, RangeStats, StreamStats,
};

const USAGE: &str = "stream_count [--n 8] [--threads T] [--shards auto|R] \
     [--checkpoint PATH [--resume]] [--expect COUNT] [--report-json PATH]";

/// Prints one `error:` line and exits 1: the file-error convention of
/// the sweep binaries, for a checkpoint that cannot be read, written or
/// trusted.
fn file_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1)
}

/// The largest range count: the sweep binaries' `--shards` bound (their
/// `ShardMeta` stores range indices as `u32`).
const MAX_RANGES: usize = u32::MAX as usize;

/// The prior state a `--resume` run recovered from its `--checkpoint`
/// sidecar (absent file or empty file ⇒ cold start, no recovery).
struct Recovered {
    /// The interrupted run's partition, pinned to its frontier length,
    /// minus the ranges it durably counted.
    selection: RangeSelection,
    /// Those ranges' emissions and final-level counters, summed — folded
    /// into the totals without re-enumerating them.
    counted: RangeStats,
    /// Bytes of the file up to and including its last newline.
    clean_len: u64,
    /// Bytes of the torn final line the interrupting kill left behind.
    dropped_bytes: u64,
}

/// Version tag of the checkpoint sidecar's header line.
const CHECKPOINT_MAGIC: &str = "bnfckpt 1";

/// Parses the checkpoint sidecar: a header line binding the partition
/// (`bnfckpt 1 n=<n> ranges=<R> frontier_len=<L>`) followed by one
/// `done <index> <emitted> <c> <o> <ch> <s> <d>` line per completed
/// range. A final line without its newline is the write the kill
/// interrupted — dropped and counted, never trusted. Anything malformed
/// *before* the tail is an error: a checkpoint is tiny and
/// hand-inspectable, so mid-file garbage means the wrong file, not a
/// crash artifact.
fn load_checkpoint(path: &str, n: usize) -> Result<Option<Recovered>, String> {
    let bytes = match std::fs::read(path) {
        Ok(b) if !b.is_empty() => b,
        Ok(_) => return Ok(None),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read checkpoint {path}: {e}")),
    };
    let text = std::str::from_utf8(&bytes)
        .map_err(|e| format!("checkpoint {path} is not valid UTF-8: {e}"))?;
    // Everything after the last newline is the torn tail.
    let clean_len = text.rfind('\n').map_or(0, |last| last + 1);
    let mut lines = text[..clean_len].lines();
    let Some(header) = lines.next() else {
        return Ok(None); // only a torn header: nothing was ever committed
    };
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 5 || fields[..2].join(" ") != CHECKPOINT_MAGIC {
        return Err(format!("checkpoint {path}: unrecognized header {header:?}"));
    }
    let field = |key: &str| -> Result<u64, String> {
        fields
            .iter()
            .find_map(|f| f.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
            .ok_or_else(|| format!("checkpoint {path}: header lacks {key}=: {header:?}"))
    };
    let order = field("n")?;
    if order != n as u64 {
        return Err(format!(
            "checkpoint {path} belongs to order {order}, not n={n}"
        ));
    }
    let ranges = field("ranges")?;
    if !(1..=MAX_RANGES as u64).contains(&ranges) {
        return Err(format!(
            "checkpoint {path}: header ranges={ranges} is outside 1..={MAX_RANGES}"
        ));
    }
    let frontier_len = field("frontier_len")?;
    let mut done = std::collections::BTreeMap::new();
    for line in lines {
        let nums: Option<Vec<u64>> = line
            .strip_prefix("done ")
            .map(|rest| rest.split_whitespace().map(|v| v.parse().ok()).collect())
            .unwrap_or_default();
        let Some(&[index, emitted, c, o, ch, s, d]) = nums.as_deref() else {
            return Err(format!("checkpoint {path}: malformed line {line:?}"));
        };
        if index >= ranges {
            return Err(format!(
                "checkpoint {path}: range index {index} outside the {ranges}-range partition"
            ));
        }
        done.entry(index as usize).or_insert(RangeStats {
            emitted,
            prune: PruneCounters {
                candidates: c,
                orbit_skipped: o,
                cheap_rejected: ch,
                search_rejected: s,
                duplicates: d,
            },
        });
    }
    let mut counted = RangeStats::default();
    done.values().for_each(|range| counted.merge(range));
    let done: Vec<usize> = done.into_keys().collect();
    Ok(Some(Recovered {
        selection: RangeSelection::all(ranges as usize).resuming(&done, frontier_len),
        counted,
        clean_len: clean_len as u64,
        dropped_bytes: (text.len() - clean_len) as u64,
    }))
}

/// Opens the `--checkpoint` sidecar for appending: a cold run truncates
/// it and stamps the partition header; a resumed run cuts the torn tail
/// on disk too, so a second resume does not re-drop (and re-report) the
/// same bytes.
fn open_checkpoint(
    path: &str,
    header: &str,
    recovered: Option<&Recovered>,
) -> Result<std::fs::File, String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open checkpoint {path}: {e}"))?;
    match recovered {
        None => file
            .set_len(0)
            .and_then(|()| writeln!(file, "{header}"))
            .and_then(|()| file.sync_all())
            .map_err(|e| format!("cannot stamp checkpoint {path}: {e}"))?,
        Some(r) => file
            .set_len(r.clean_len)
            .and_then(|()| file.sync_all())
            .map_err(|e| format!("cannot truncate torn checkpoint {path}: {e}"))?,
    }
    Ok(file)
}

/// The partitioned count: returns the unsharded-equivalent
/// [`StreamStats`], the range count used, and how many ranges a
/// `--resume` recovered without re-enumeration. With `checkpoint`,
/// every completed range appends one fsynced line to the sidecar — the
/// durability point a later `--resume` rebuilds from.
fn count_ranges(
    n: usize,
    threads: usize,
    ranges: usize,
    checkpoint: Option<&str>,
    resume: bool,
) -> Result<(StreamStats, usize, usize), String> {
    let recovered = match (resume, checkpoint) {
        (true, Some(path)) => load_checkpoint(path, n)?,
        _ => None,
    };
    // The stored partition wins: range boundaries are a pure function of
    // (frontier_len, ranges), so resuming must reuse the interrupted
    // run's cut exactly.
    let selection = recovered
        .as_ref()
        .map_or_else(|| RangeSelection::all(ranges), |r| r.selection.clone());
    let frontier = ParentFrontier::build(n, threads);
    let partition = FrontierPartition::new(&frontier, &selection)
        .map_err(|e| format!("checkpoint {}: {e}", checkpoint.unwrap_or_default()))?;
    let ranges = partition.ranges;
    let header = format!(
        "{CHECKPOINT_MAGIC} n={n} ranges={ranges} frontier_len={}",
        frontier.len()
    );
    let mut sidecar = checkpoint
        .map(|path| open_checkpoint(path, &header, recovered.as_ref()).map(|file| (path, file)))
        .transpose()?;
    let mut total = partition.run(
        threads,
        || (),
        |(), lo, hi| (frontier.stream_range(lo, hi, |_, _| {}), ()),
        |run| {
            let Some((path, file)) = &mut sidecar else {
                return;
            };
            let p = &run.stats.prune;
            // One line, then fsync: the range is durably complete only
            // once its line is on disk.
            writeln!(
                file,
                "done {} {} {} {} {} {} {}",
                run.index,
                run.stats.emitted,
                p.candidates,
                p.orbit_skipped,
                p.cheap_rejected,
                p.search_rejected,
                p.duplicates,
            )
            .and_then(|()| file.sync_all())
            .unwrap_or_else(|e| file_error(&format!("checkpoint {path}: append failed: {e}")));
            // Armed kill point (BNF_FAULT=range_checkpoint:N[:tear:B]):
            // fires with the line durably on disk, the worst moment a
            // resume must survive.
            bnf_faults::trip_with_file("range_checkpoint", std::path::Path::new(path));
        },
    );
    let mut recovered_ranges = 0;
    if let Some(r) = &recovered {
        // Fold the recovered ranges back in: the reported count and
        // counters describe the *whole* partition, identical to an
        // uninterrupted run — recovery changes what was re-enumerated,
        // not what is true.
        total.merge(&r.counted);
        recovered_ranges = r.selection.done.len();
        eprintln!(
            "resumed count: recovered {recovered_ranges}/{ranges} completed range(s) from \
             checkpoint, redoing {}; torn tail: {} byte(s) dropped",
            ranges - recovered_ranges,
            r.dropped_bytes,
        );
    }
    Ok((frontier.stream_stats(total), ranges, recovered_ranges))
}

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
    let threads: usize = flags.number(
        "--threads",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    let ranges = match flags.get("--shards") {
        None | Some("auto") => bnf_stream::auto_range_count(threads),
        Some(v) => match v.parse() {
            Ok(r) if (1..=MAX_RANGES).contains(&r) => r,
            _ => flags.fail(&format!(
                "--shards wants `auto` or a range count from 1 to {MAX_RANGES}, got {v:?}"
            )),
        },
    };
    let expect = flags
        .get("--expect")
        .map(|_| flags.number::<u64>("--expect", 0));
    let checkpoint = flags.get("--checkpoint");
    let resume = flags.switch("--resume");
    if resume && checkpoint.is_none() {
        flags.fail("--resume recovers completed ranges from the sidecar: pass --checkpoint PATH");
    }
    // Scope the global recorder to this run, then let the enumeration
    // heartbeat report progress against the known connected count.
    bnf_obs::Recorder::global().take();
    bnf_obs::heartbeat::install(
        &format!("n={n} count"),
        bnf_obs::heartbeat::expected_connected(n),
    );
    eprintln!(
        "counting the connected topologies on n={n} vertices ({threads} worker thread(s) \
         stealing frontier ranges)..."
    );
    let started = std::time::Instant::now();
    let (stats, ranges, recovered) =
        count_ranges(n, threads, ranges, checkpoint, resume).unwrap_or_else(|e| file_error(&e));
    let count = stats.emitted();
    let elapsed_ms = started.elapsed().as_millis() as u64;
    bnf_obs::heartbeat::finish();
    // The manifest goes first: a path that cannot be written is one
    // `error:` line with nothing on stdout, not a report followed by a
    // failure.
    if let Some(path) = flags.get("--report-json") {
        let mut manifest = bnf_obs::RunManifest::new("stream_count", n as u32, "orchestrated");
        manifest.emitted = count;
        manifest.elapsed_ms = elapsed_ms;
        manifest.peak_rss_kb = bnf_obs::peak_rss_kb();
        manifest.level_sizes = stats.level_sizes.clone();
        for (name, value) in stats.prune.named() {
            manifest.set_counter(name, value);
        }
        manifest.set_counter("threads", threads as u64);
        manifest.set_counter("ranges", ranges as u64);
        if resume {
            manifest.set_counter("resume_recovered_ranges", recovered as u64);
            manifest.set_counter(
                "resume_redone_ranges",
                ranges.saturating_sub(recovered) as u64,
            );
        }
        manifest.push_metric(
            &format!("manifest/candidates_per_survivor/{n}"),
            stats.prune.candidates_per_survivor(),
        );
        if let Err(e) = manifest.write(path) {
            file_error(&format!("cannot write run manifest to {path}: {e}"));
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
