//! `cold_sweep`: classify every connected n = 9 topology with the
//! orchestrator into a fresh v4 store, declare coverage, and render the
//! paper-grid Figure 2 CSV — what `fig2_avg_poa --n 9 --csv --shards
//! auto --jobs 2 --atlas <fresh>` does.
//!
//! `wall_s` is that whole flow; `ops_per_s` is topologies classified
//! per second of it. The traced run drives the same orchestrator with a
//! job that calls the six classify steps one by one, so the ledger can
//! split classification by step.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bnf_atlas::{
    build_index, index_path, ClassificationAtlas, MappedAtlas, ShardCoverage, ShardMeta,
};
use bnf_core::{
    stability_window_with, transfer_stability_window_with, ucg_necessary_window_with, UcgAnalyzer,
    WindowRecord,
};
use bnf_empirics::grid;
use bnf_empirics::sweep::WindowSweep;
use bnf_engine::{Analysis, AnalysisEngine, OrchestratorStats, RangeSegment, WorkerScratch};
use bnf_graph::{BfsScratch, Graph};
use bnf_stream::ParentFrontier;

use crate::fixture::{self, Dirs, SETUP_REPS};
use crate::ledger::Ledger;
use crate::oracle::Oracle;
use crate::util::{median, reset_hwm, vm_hwm_kib};
use crate::{figures, layout, Args, Outcome, N, THREADS};

/// The six classify steps, as ledger rows and as per-layer metrics.
pub const STEPS: [(&str, &str); 6] = [
    ("core.total_distance", "core.total_distance_s"),
    ("core.bcg_window", "core.bcg_window_s"),
    ("core.transfer_window", "core.transfer_window_s"),
    ("core.ucg_necessary", "core.ucg_necessary_s"),
    ("core.ucg_build", "core.ucg_build_s"),
    ("core.ucg_support", "core.ucg_support_s"),
];

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// `WindowRecord::classify_with_key` taken apart into its six public
/// steps, each timed: the assembled record, each step's nanoseconds in
/// [`STEPS`] order, and whether the graph reached the UCG solver.
pub fn classify_steps(
    key: &str,
    g: &Graph,
    bfs: &mut BfsScratch,
) -> (WindowRecord, [u64; 6], bool) {
    let t0 = Instant::now();
    let total_distance = g
        .total_distance_with(bfs)
        .expect("classified topologies are connected");
    let t1 = Instant::now();
    let stability = stability_window_with(g, bfs);
    let t2 = Instant::now();
    let transfer = transfer_stability_window_with(g, bfs);
    let t3 = Instant::now();
    let necessary = ucg_necessary_window_with(g, bfs);
    let t4 = Instant::now();
    let (ucg_support, t5, t6) = match necessary {
        None => (Vec::new(), t4, t4),
        Some(nec) => {
            let analyzer = UcgAnalyzer::new(g).expect("connected graph within the UCG bound");
            let t5 = Instant::now();
            let support = analyzer.support_intervals_within(nec);
            (support, t5, Instant::now())
        }
    };
    let record = WindowRecord {
        key: key.to_owned(),
        order: g.order() as u32,
        edges: g.edge_count() as u64,
        total_distance,
        stability,
        transfer,
        ucg_support,
    };
    let steps = [
        ns(t0, t1),
        ns(t1, t2),
        ns(t2, t3),
        ns(t3, t4),
        ns(t4, t5),
        ns(t5, t6),
    ];
    (record, steps, necessary.is_some())
}

/// Nanosecond accumulators of the traced classify job, shared by the
/// worker threads (statistics only, so `Relaxed`).
#[derive(Debug, Default)]
struct StepClock {
    steps: [AtomicU64; 6],
    job: AtomicU64,
    check: AtomicU64,
    graphs: AtomicU64,
    solver: AtomicU64,
    checked: AtomicU64,
    mismatched: AtomicU64,
    /// First classify call, ns after `base`.
    first: AtomicU64,
}

/// The classify job of the traced run: [`classify_steps`], with every
/// 32nd record also classified whole and compared.
#[derive(Debug)]
struct TracedJob {
    clock: StepClock,
    base: Instant,
}

impl Analysis for TracedJob {
    type Output = WindowRecord;

    fn classify(&self, g: &Graph, scratch: &mut WorkerScratch) -> WindowRecord {
        self.classify_keyed(&g.canonical_form().to_graph6(), g, scratch)
    }

    fn classify_keyed(&self, key: &str, g: &Graph, scratch: &mut WorkerScratch) -> WindowRecord {
        let c = &self.clock;
        let t0 = Instant::now();
        c.first.fetch_min(ns(self.base, t0), Ordering::Relaxed);
        let (record, steps, solver) = classify_steps(key, g, &mut scratch.bfs);
        let t1 = Instant::now();
        if c.graphs.fetch_add(1, Ordering::Relaxed).is_multiple_of(32) {
            let whole = WindowRecord::classify_with_key(key.to_owned(), g, &mut scratch.bfs);
            c.checked.fetch_add(1, Ordering::Relaxed);
            if whole != record {
                c.mismatched.fetch_add(1, Ordering::Relaxed);
            }
        }
        for (acc, v) in c.steps.iter().zip(steps) {
            acc.fetch_add(v, Ordering::Relaxed);
        }
        c.job.fetch_add(ns(t0, t1), Ordering::Relaxed);
        c.check.fetch_add(ns(t1, Instant::now()), Ordering::Relaxed);
        if solver {
            c.solver.fetch_add(1, Ordering::Relaxed);
        }
        record
    }
}

/// One cold sweep: its outputs and the times of each stage.
#[derive(Debug)]
struct Sweep {
    wall: f64,
    records: Vec<WindowRecord>,
    stats: OrchestratorStats,
    csv: String,
    coverage: Option<ShardCoverage>,
    error: Option<String>,
    sweep_start: Instant,
    last_segment: Instant,
    sweep_end: Instant,
    open_s: f64,
    append_s: f64,
    meta_s: f64,
    coverage_s: f64,
    evaluate_s: f64,
    stats_s: f64,
    render_s: f64,
    busy_ms: u64,
    heaviest_ms: u64,
}

/// Runs the cold flow into a fresh store at `store`; `job` selects the
/// traced classify job instead of the production one.
fn sweep(store: &Path, job: Option<&TracedJob>) -> Result<Sweep, String> {
    fixture::remove_store(store);
    let started = Instant::now();
    let mut atlas = ClassificationAtlas::open(store).map_err(|e| e.to_string())?;
    let open_s = started.elapsed().as_secs_f64();
    let run_id = u64::from(std::process::id());
    let (mut append_s, mut meta_s) = (0.0, 0.0);
    let (mut busy_ms, mut heaviest_ms) = (0u64, 0u64);
    let mut error: Option<String> = None;
    let mut last_segment = Instant::now();
    // The writer the sweep CLI runs: append each finished range and
    // its shard metadata as it arrives.
    let on_segment = |seg: RangeSegment<'_, WindowRecord>| {
        busy_ms += seg.elapsed_ms;
        heaviest_ms = heaviest_ms.max(seg.elapsed_ms);
        if error.is_none() {
            let t0 = Instant::now();
            if let Err(e) = atlas.append_records(seg.records) {
                error = Some(format!("append_records: {e}"));
            }
            let t1 = Instant::now();
            let meta = ShardMeta {
                order: N as u16,
                shard_index: seg.index as u32,
                shard_count: seg.ranges as u32,
                frontier_len: seg.frontier_len,
                parent_lo: seg.parent_lo,
                parent_hi: seg.parent_hi,
                emitted: seg.emitted,
                elapsed_ms: seg.elapsed_ms,
                peak_rss_kb: None,
                orchestrator_run: Some(run_id),
                frontier_prune: seg.frontier_prune,
                final_prune: seg.final_prune,
            };
            if let Err(e) = atlas.append_shard_meta(&meta) {
                error = Some(format!("append_shard_meta: {e}"));
            }
            let t2 = Instant::now();
            append_s += (t1 - t0).as_secs_f64();
            meta_s += (t2 - t1).as_secs_f64();
            last_segment = t2;
        }
    };
    let sweep_start = Instant::now();
    let (records, stats) = match job {
        None => {
            let (windows, stats) =
                WindowSweep::run_orchestrated(N, THREADS, None, None, on_segment);
            (windows.records, stats)
        }
        Some(job) => AnalysisEngine::new(THREADS)
            .run_connected_streaming_keyed_orchestrated(N, None, job, on_segment),
    };
    let sweep_end = Instant::now();
    let coverage = atlas
        .declare_sharded_coverage()
        .map_err(|e| format!("declare_sharded_coverage: {e}"))?
        .into_iter()
        .find(|(order, _)| *order == N)
        .map(|(_, c)| c);
    let t_cov = Instant::now();
    let windows = WindowSweep { n: N, records };
    let result = grid::evaluate(&windows, &figures::alphas("paper"));
    let t_eval = Instant::now();
    let (bcg, ucg) = figures::stats(&result);
    let t_stats = Instant::now();
    let csv = figures::fig2_csv(&bcg, &ucg);
    let end = Instant::now();
    Ok(Sweep {
        wall: (end - started).as_secs_f64(),
        records: windows.records,
        stats,
        csv,
        coverage,
        error,
        sweep_start,
        last_segment,
        sweep_end,
        open_s,
        append_s,
        meta_s,
        coverage_s: (t_cov - sweep_end).as_secs_f64(),
        evaluate_s: (t_eval - t_cov).as_secs_f64(),
        stats_s: (t_stats - t_eval).as_secs_f64(),
        render_s: (end - t_stats).as_secs_f64(),
        busy_ms,
        heaviest_ms,
    })
}

/// Everything a cold sweep must reproduce; `Err` names the first
/// difference.
fn check(s: &Sweep, reference: &Path, oracle: &Oracle) -> Result<(), String> {
    if let Some(e) = &s.error {
        return Err(e.clone());
    }
    oracle.check("topologies", &s.records.len().to_string())?;
    oracle.check(
        "candidates_per_survivor",
        &s.stats.stats.prune.candidates_per_survivor().to_string(),
    )?;
    match s.coverage {
        Some(ShardCoverage::Declared(c)) if c as usize == s.records.len() => {}
        ref other => return Err(format!("coverage not declared: {other:?}")),
    }
    oracle.check("fig2_paper", &crate::util::Digest::of(&s.csv))?;
    oracle.check("catalogue", &figures::catalogue_digest(&s.records))?;
    // The store the other workloads serve holds exactly this catalogue.
    let mapped = MappedAtlas::open(reference).map_err(|e| e.to_string())?;
    let mut at = 0usize;
    let mut first_diff = None;
    mapped
        .stream_sweep(N, |rec| {
            if first_diff.is_none() && s.records.get(at) != Some(&rec) {
                first_diff = Some(at);
            }
            at += 1;
        })
        .map_err(|e| e.to_string())?;
    match first_diff {
        None if at == s.records.len() => Ok(()),
        None => Err(format!(
            "reference store holds {at} records, sweep {}",
            s.records.len()
        )),
        Some(i) => Err(format!("record {i} differs from the reference store")),
    }
}

/// The workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let dirs = Dirs::new()?;
    fixture::ensure_catalogue(&dirs)?;
    let oracle = Oracle::load();
    let reference = dirs.file("reference.bnfatlas");
    let mut out = Outcome::default();
    for _ in 0..SETUP_REPS {
        out.setup_s.push(fixture::build_store(&dirs, &reference)?);
    }
    let store = dirs.file("cold.bnfatlas");
    let measuring = Instant::now();
    let mut swept = 0usize;
    let mut sweep_secs = 0.0;
    while out.wall_s.is_empty() || measuring.elapsed().as_secs_f64() < args.seconds {
        reset_hwm();
        let s = sweep(&store, None)?;
        out.peak_rss_mib = out
            .peak_rss_mib
            .max(vm_hwm_kib().unwrap_or(0) as f64 / 1024.0);
        out.attempted += 1;
        if let Err(e) = check(&s, &reference, &oracle) {
            out.fail(e);
        }
        swept += s.records.len();
        sweep_secs += s.wall;
        out.wall_s.push(s.wall);
    }
    out.ops_per_s = (swept as f64 / sweep_secs, out.wall_s.len());
    out.note("sweep_s", median(&out.wall_s), "s", out.wall_s.len());
    let per_sweep = swept / out.wall_s.len();
    out.note(
        "store_bytes_per_record",
        file_len(&store) as f64 / per_sweep.max(1) as f64,
        "B",
        1,
    );
    if args.trace {
        trace(&mut out, &store, &reference, &oracle)?;
    }
    Ok(out)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The traced sweep, its ledger, and the probes of single layers.
fn trace(out: &mut Outcome, store: &Path, reference: &Path, oracle: &Oracle) -> Result<(), String> {
    let untraced = median(&out.wall_s);
    let job = TracedJob {
        clock: StepClock {
            first: AtomicU64::new(u64::MAX),
            ..StepClock::default()
        },
        base: Instant::now(),
    };
    let s = sweep(store, Some(&job))?;
    out.attempted += 1;
    if let Err(e) = check(&s, reference, oracle) {
        out.fail(format!("traced sweep: {e}"));
    }
    let c = &job.clock;
    let get = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / 1e9;
    if c.mismatched.load(Ordering::Relaxed) > 0 {
        out.fail(format!(
            "{} of {} step-assembled records differ from classify_with_key",
            c.mismatched.load(Ordering::Relaxed),
            c.checked.load(Ordering::Relaxed)
        ));
    }
    let threads = THREADS as f64;
    let first = job.base + std::time::Duration::from_nanos(c.first.load(Ordering::Relaxed));
    let busy = s.busy_ms as f64 / 1e3;
    let parallel = s
        .last_segment
        .saturating_duration_since(first)
        .as_secs_f64();
    let steps: Vec<f64> = c.steps.iter().map(get).collect();
    let step_sum: f64 = steps.iter().sum();
    let job_s = get(&c.job);
    let check_s = get(&c.check);

    let mut ledger = Ledger::default();
    ledger.add("atlas.open", s.open_s);
    ledger.add(
        "stream.frontier_build (to first classify)",
        first.saturating_duration_since(s.sweep_start).as_secs_f64(),
    );
    for ((row, _), v) in STEPS.iter().zip(&steps) {
        ledger.add(row, v / threads);
    }
    ledger.add("core.record_assembly", (job_s - step_sum) / threads);
    ledger.add("trace.sample_check", check_s / threads);
    ledger.add(
        "stream.produce (in sweep)",
        (busy - job_s - check_s) / threads,
    );
    ledger.add("engine.worker_idle", parallel - busy / threads);
    ledger.add(
        "engine.merge",
        s.sweep_end
            .saturating_duration_since(s.last_segment)
            .as_secs_f64(),
    );
    ledger.add("atlas.coverage_commit", s.coverage_s);
    ledger.add("empirics.grid_evaluate", s.evaluate_s);
    ledger.add("empirics.stats", s.stats_s);
    ledger.add("empirics.render", s.render_s);
    ledger.add_overlapped("atlas.append (writer thread)", s.append_s);
    ledger.add_overlapped("atlas.shard_meta_commit (writer thread)", s.meta_s);
    out.ledger = Some(ledger.render(
        "cold_sweep",
        s.wall,
        untraced,
        ("wall-clock", "s", s.wall, untraced),
    ));
    out.layer(
        "ledger.unattributed_share",
        ledger.unattributed(s.wall) / s.wall,
    );
    out.layer("trace.overhead_share", (s.wall - untraced) / untraced);

    for ((_, metric), v) in STEPS.iter().zip(&steps) {
        out.layer(metric, *v);
    }
    out.layer(
        "core.ucg_solver_share",
        c.solver.load(Ordering::Relaxed) as f64 / c.graphs.load(Ordering::Relaxed).max(1) as f64,
    );
    out.layer("engine.worker_busy_s", busy);
    out.layer(
        "engine.worker_idle_share",
        1.0 - busy / (threads * parallel),
    );
    out.layer("engine.heaviest_range_s", s.heaviest_ms as f64 / 1e3);
    out.layer("atlas.open_s", s.open_s);
    out.layer("atlas.append_s", s.append_s);
    out.layer("atlas.commit_s", s.meta_s + s.coverage_s);
    out.layer("atlas.bytes_written", file_len(store) as f64);
    out.layer("empirics.grid_evaluate_s", s.evaluate_s);
    out.layer("empirics.stats_s", s.stats_s);
    out.layer("empirics.render_s", s.render_s);
    out.layer(
        "empirics.fold_ns_per_record_alpha",
        s.evaluate_s * 1e9 / (s.records.len() as f64 * figures::alphas("paper").len() as f64),
    );
    out.layer(
        "stream.candidates_per_survivor",
        s.stats.stats.prune.candidates_per_survivor(),
    );

    // Probes: single layers called on their own, outside the ledger.
    let t = Instant::now();
    let frontier = ParentFrontier::build(N, THREADS);
    out.layer("stream.frontier_build_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let mut emitted = 0u64;
    frontier.stream_range(0, frontier.len(), |_, _| emitted += 1);
    out.layer("stream.produce_s", t.elapsed().as_secs_f64());
    if emitted != s.records.len() as u64 {
        out.fail(format!(
            "stream_range emitted {emitted}, sweep {}",
            s.records.len()
        ));
    }
    let t = Instant::now();
    let mut body = Vec::new();
    for chunk in s.records.chunks(bnf_atlas::BLOCK_RECORDS) {
        let refs: Vec<&WindowRecord> = chunk.iter().collect();
        body.clear();
        bnf_atlas::codec::encode_block(&refs, &mut body);
    }
    out.layer("atlas.encode_s", t.elapsed().as_secs_f64());
    build_index(store).map_err(|e| e.to_string())?;
    let offsets =
        layout::engine_order_offsets(&index_path(store), N as u16).map_err(|e| e.to_string())?;
    out.layer(
        "atlas.scan_block_switches",
        layout::block_switches(&offsets) as f64,
    );
    Ok(())
}
