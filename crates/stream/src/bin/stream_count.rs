//! Enumeration-only counter: streams every non-isomorphic connected
//! graph on `n` vertices through the canonical-construction pruned
//! producer and reports the count plus the [`bnf_stream::StreamStats`]
//! pruning counters — the CI smoke that certifies the `n = 10` scale
//! (OEIS A001349: 11 716 571 connected topologies) without paying any
//! classification.
//!
//! Usage: `stream_count --n 10 [--threads T] [--shards auto|R]
//! [--checkpoint PATH [--resume]] [--expect 11716571] [--report-json PATH]`
//!
//! `--shards auto` (or an explicit range count) switches to the
//! in-process orchestrated path: the parent
//! frontier is built **once**, oversplit into ranges, and worker threads
//! steal ranges off an atomic counter — the enumeration-only twin of the
//! sweep binaries' orchestrator, and the cheapest way to verify the
//! work-stolen partition reproduces the whole count. Trivial orders
//! (`n < 2`) have no frontier and fall back to the plain path.
//!
//! `--checkpoint PATH` makes the orchestrated count crash-safe: every
//! completed range appends one fsynced line (index, emitted, pruning
//! counters) to a plain-text sidecar. `--resume` re-reads that sidecar
//! after a crash — a torn final line (the write the kill interrupted) is
//! dropped and reported — checks its partition against the rebuilt
//! frontier, folds the recovered ranges' counts in, and enumerates only
//! the missing ranges. The sweep binaries get the same behaviour from
//! their `--atlas` store; `stream_count` has no store, hence the
//! sidecar.
//!
//! With `--expect`, a count mismatch exits non-zero — the regression
//! gate. The counter report goes to stdout in `key: value` lines so CI
//! can upload it as an artifact; `--report-json PATH` additionally
//! writes the versioned [`bnf_obs::RunManifest`] with the same
//! counters plus spans and histograms.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use bnf_stream::{stream_connected, ParentFrontier, PruneCounters, ShardSpec, StreamStats};

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Prints one `error:` line and exits 2: the usage-error convention of
/// every binary in the workspace.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// Parses a present flag value, or exits with a usage error — a
/// malformed gate invocation must fail the CI step, never silently
/// disable the check.
fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    arg_value(args, name).map(|v| {
        v.parse()
            .unwrap_or_else(|_| usage_error(&format!("{name} wants a number, got {v:?}")))
    })
}

/// Ranges cut per worker thread on `--shards auto` — mirrors the
/// engine orchestrator's oversplit so both paths exercise the same
/// partition shape.
const OVERSPLIT: usize = 16;

/// One completed range recovered from a checkpoint sidecar: its index,
/// emission count, and final-level pruning counters — everything needed
/// to fold the range into the totals without re-enumerating it.
struct DoneRange {
    index: usize,
    emitted: u64,
    prune: PruneCounters,
}

/// The prior state a `--resume` run recovered from its `--checkpoint`
/// sidecar (absent file or empty file ⇒ cold start, no recovery).
struct Recovered {
    ranges: usize,
    frontier_len: u64,
    done: Vec<DoneRange>,
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
/// *before* the tail is a hard error: a checkpoint is tiny and
/// hand-inspectable, so mid-file garbage means the wrong file, not a
/// crash artifact.
fn load_checkpoint(path: &str, n: usize) -> Option<Recovered> {
    let bytes = match std::fs::read(path) {
        Ok(b) if !b.is_empty() => b,
        Ok(_) => return None,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        Err(e) => panic!("cannot read checkpoint {path}: {e}"),
    };
    let text = std::str::from_utf8(&bytes)
        .unwrap_or_else(|e| panic!("checkpoint {path} is not valid UTF-8: {e}"));
    let (complete, dropped_bytes) = match text.rfind('\n') {
        // Everything after the last newline is the torn tail.
        Some(last) => (&text[..=last], (text.len() - last - 1) as u64),
        None => ("", text.len() as u64),
    };
    let mut lines = complete.lines();
    let header = lines.next()?;
    let mut fields = header.split_whitespace();
    assert_eq!(
        (fields.next(), fields.next()),
        {
            let mut magic = CHECKPOINT_MAGIC.split_whitespace();
            (magic.next(), magic.next())
        },
        "checkpoint {path}: unrecognized header {header:?}"
    );
    let field = |key: &str| -> u64 {
        let mut fields = header.split_whitespace();
        fields
            .find_map(|f| f.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
            .unwrap_or_else(|| panic!("checkpoint {path}: header lacks {key}=: {header:?}"))
    };
    assert_eq!(
        field("n") as usize,
        n,
        "checkpoint {path} belongs to a different order"
    );
    let ranges = field("ranges") as usize;
    let frontier_len = field("frontier_len");
    let mut done = Vec::new();
    for line in lines {
        let nums: Vec<u64> = line
            .strip_prefix("done ")
            .map(|rest| {
                rest.split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        let [index, emitted, c, o, ch, s, d] = nums[..] else {
            panic!("checkpoint {path}: malformed line {line:?}");
        };
        assert!(
            (index as usize) < ranges,
            "checkpoint {path}: range index {index} outside the {ranges}-range partition"
        );
        done.push(DoneRange {
            index: index as usize,
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
    done.sort_by_key(|r| r.index);
    done.dedup_by_key(|r| r.index);
    Some(Recovered {
        ranges,
        frontier_len,
        done,
        dropped_bytes,
    })
}

/// The orchestrated count: one frontier build, work-stolen ranges, no
/// classification — returns the final-level count and the
/// unsharded-equivalent [`StreamStats`], plus the range count used and
/// how many ranges a `--resume` recovered without re-enumeration.
///
/// With `checkpoint`, every completed range appends one fsynced line to
/// the sidecar — the durability point a later `--resume` rebuilds from.
fn count_orchestrated(
    n: usize,
    threads: usize,
    ranges: Option<usize>,
    checkpoint: Option<&str>,
    resume: bool,
) -> (u64, StreamStats, usize, usize) {
    let recovered = match (resume, checkpoint) {
        (true, Some(path)) => load_checkpoint(path, n),
        _ => None,
    };
    let ranges = match &recovered {
        // The stored partition wins: range boundaries are a pure
        // function of (frontier_len, ranges), so resuming must reuse
        // the interrupted run's cut exactly.
        Some(r) => r.ranges.max(1),
        None => ranges
            .unwrap_or_else(|| threads.max(1).saturating_mul(OVERSPLIT))
            .max(1),
    };
    let frontier = ParentFrontier::build(n, threads);
    if let Some(r) = &recovered {
        assert_eq!(
            r.frontier_len,
            frontier.len() as u64,
            "checkpoint was cut from a different n={n} frontier — incompatible build?"
        );
    }
    let sidecar = checkpoint.map(|path| {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("cannot open checkpoint {path}: {e}"));
        if recovered.is_none() {
            // Fresh (or overwritten-cold) run: truncate any stale state
            // and stamp the partition header first.
            file.set_len(0)
                .unwrap_or_else(|e| panic!("cannot reset checkpoint {path}: {e}"));
            writeln!(
                file,
                "{CHECKPOINT_MAGIC} n={n} ranges={ranges} frontier_len={}",
                frontier.len()
            )
            .and_then(|()| file.sync_all())
            .unwrap_or_else(|e| panic!("cannot stamp checkpoint {path}: {e}"));
        } else if let Some(r) = &recovered {
            // Drop the torn tail on disk too, so a second resume does
            // not re-drop (and re-report) the same bytes.
            let clean = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0) - r.dropped_bytes;
            file.set_len(clean)
                .and_then(|()| file.sync_all())
                .unwrap_or_else(|e| panic!("cannot truncate torn checkpoint {path}: {e}"));
        }
        std::sync::Mutex::new(file)
    });
    let completed: Vec<usize> = recovered
        .as_ref()
        .map(|r| r.done.iter().map(|d| d.index).collect())
        .unwrap_or_default();
    let next = AtomicUsize::new(0);
    let count = AtomicU64::new(0);
    let final_prune = std::sync::Mutex::new(PruneCounters::default());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut local = 0u64;
                let mut prune = PruneCounters::default();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= ranges {
                        break;
                    }
                    if completed.binary_search(&index).is_ok() {
                        continue; // durably counted by the prior run
                    }
                    let (lo, hi) = ShardSpec::new(index, ranges).range(frontier.len());
                    let range = frontier.stream_range(lo, hi, |_, _| {});
                    if let Some(sidecar) = &sidecar {
                        use std::io::Write;
                        let p = &range.prune;
                        let mut file = sidecar.lock().unwrap();
                        // One line, then fsync: the range is durably
                        // complete only once its line is on disk.
                        writeln!(
                            file,
                            "done {index} {} {} {} {} {} {}",
                            range.emitted,
                            p.candidates,
                            p.orbit_skipped,
                            p.cheap_rejected,
                            p.search_rejected,
                            p.duplicates,
                        )
                        .and_then(|()| file.sync_all())
                        .unwrap_or_else(|e| panic!("checkpoint append failed: {e}"));
                        // Armed kill point (BNF_FAULT=range_checkpoint:N
                        // [:tear:B]): fires with the line durably on
                        // disk, the worst moment a resume must survive.
                        if let Some(path) = checkpoint {
                            bnf_faults::trip_with_file(
                                "range_checkpoint",
                                std::path::Path::new(path),
                            );
                        }
                    }
                    local += range.emitted;
                    prune.merge(&range.prune);
                }
                count.fetch_add(local, Ordering::Relaxed);
                final_prune.lock().unwrap().merge(&prune);
            });
        }
    });
    let mut stats = StreamStats {
        level_sizes: frontier.level_sizes().to_vec(),
        prune: frontier.frontier_prune(),
    };
    // Fold the recovered ranges back in: the reported count and
    // counters describe the *whole* partition, identical to an
    // uninterrupted run — recovery changes what was re-enumerated, not
    // what is true.
    let mut count = count.load(Ordering::Relaxed);
    let mut prune = final_prune.into_inner().unwrap();
    for done in recovered.iter().flat_map(|r| &r.done) {
        count += done.emitted;
        prune.merge(&done.prune);
    }
    stats.level_sizes.push(count);
    stats.prune.merge(&prune);
    if let Some(r) = &recovered {
        eprintln!(
            "resumed count: recovered {}/{ranges} completed range(s) from checkpoint, \
             redoing {}; torn tail: {} byte(s) dropped",
            r.done.len(),
            ranges - r.done.len(),
            r.dropped_bytes,
        );
    }
    (count, stats, ranges, completed.len())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = parsed(&args, "--n").unwrap_or(8);
    let threads: usize = parsed(&args, "--threads").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    let shards = arg_value(&args, "--shards");
    let expect: Option<u64> = parsed(&args, "--expect");
    let report_json = arg_value(&args, "--report-json");
    let checkpoint = arg_value(&args, "--checkpoint");
    let resume = args.iter().any(|a| a == "--resume");
    if resume && checkpoint.is_none() {
        usage_error("--resume recovers completed ranges from the sidecar: pass --checkpoint PATH");
    }
    // Checkpointing is per-range, so both flags imply the orchestrated
    // partition even without an explicit --shards.
    let orchestrated = (shards.is_some() || checkpoint.is_some() || resume) && n >= 2;
    // Scope the global recorder to this run, then let the enumeration
    // heartbeat report progress against the known connected count.
    bnf_obs::Recorder::global().take();
    bnf_obs::heartbeat::install(
        &format!("n={n} count"),
        bnf_obs::heartbeat::expected_connected(n),
    );
    let (count, stats, elapsed_ms, used_ranges, recovered_ranges) = if orchestrated {
        let ranges = match shards.as_deref() {
            None | Some("auto") => None,
            Some(v) => Some(v.parse().unwrap_or_else(|_| {
                usage_error(&format!(
                    "--shards wants `auto` or a range count, got {v:?}"
                ))
            })),
        };
        eprintln!(
            "orchestrating the n={n} enumeration in-process ({threads} worker threads \
             stealing frontier ranges)..."
        );
        let started = std::time::Instant::now();
        let (count, stats, ranges, recovered) =
            count_orchestrated(n, threads, ranges, checkpoint.as_deref(), resume);
        let elapsed = started.elapsed();
        println!("n: {n}");
        println!("threads: {threads}");
        println!("ranges: {ranges}");
        println!("frontier_builds: 1");
        if resume {
            println!("recovered_ranges: {recovered}");
        }
        println!("connected_graphs: {count}");
        println!("elapsed_ms: {}", elapsed.as_millis());
        (
            count,
            stats,
            elapsed.as_millis() as u64,
            Some(ranges),
            resume.then_some(recovered),
        )
    } else {
        eprintln!("enumerating all connected topologies on n={n} vertices ({threads} threads)...");
        let started = std::time::Instant::now();
        let count = AtomicU64::new(0);
        let stats = stream_connected(n, threads, &|_, _| {
            count.fetch_add(1, Ordering::Relaxed);
            true
        });
        let elapsed = started.elapsed();
        let count = count.load(Ordering::Relaxed);
        println!("n: {n}");
        println!("threads: {threads}");
        println!("connected_graphs: {count}");
        println!("elapsed_ms: {}", elapsed.as_millis());
        (count, stats, elapsed.as_millis() as u64, None, None)
    };
    bnf_obs::heartbeat::finish();
    println!("level_sizes: {:?}", stats.level_sizes);
    println!("candidates: {}", stats.prune.candidates);
    println!("orbit_skipped: {}", stats.prune.orbit_skipped);
    println!("cheap_rejected: {}", stats.prune.cheap_rejected);
    println!("search_rejected: {}", stats.prune.search_rejected);
    println!("duplicates: {}", stats.prune.duplicates);
    println!("accepted: {}", stats.prune.accepted());
    println!(
        "candidates_per_survivor: {:.3}",
        stats.prune.candidates_per_survivor()
    );
    if let Some(path) = report_json {
        let mut manifest = bnf_obs::RunManifest::new(
            "stream_count",
            n as u32,
            if orchestrated {
                "orchestrated"
            } else {
                "streaming"
            },
        );
        manifest.emitted = count;
        manifest.elapsed_ms = elapsed_ms;
        manifest.peak_rss_kb = bnf_obs::peak_rss_kb();
        manifest.level_sizes = stats.level_sizes.clone();
        for (name, value) in stats.prune.named() {
            manifest.set_counter(name, value);
        }
        manifest.set_counter("threads", threads as u64);
        if let Some(ranges) = used_ranges {
            manifest.set_counter("ranges", ranges as u64);
        }
        if let Some(recovered) = recovered_ranges {
            manifest.set_counter("resume_recovered_ranges", recovered as u64);
            manifest.set_counter(
                "resume_redone_ranges",
                used_ranges.unwrap_or(0).saturating_sub(recovered) as u64,
            );
        }
        manifest.push_metric(
            &format!("manifest/candidates_per_survivor/{n}"),
            stats.prune.candidates_per_survivor(),
        );
        manifest.absorb(bnf_obs::Recorder::global().take());
        if let Err(e) = std::fs::write(&path, manifest.to_json()) {
            eprintln!("cannot write run manifest to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("run manifest written to {path}");
    }
    if let Some(want) = expect {
        if count != want {
            eprintln!("count mismatch: expected {want}, got {count}");
            return ExitCode::FAILURE;
        }
        eprintln!("count matches expected {want}");
    }
    ExitCode::SUCCESS
}
