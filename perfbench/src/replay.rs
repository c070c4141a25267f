//! `warm_replay`: from a complete, engine-ordered n = 9 store, replay
//! the catalogue and render Figures 2 and 3 on the paper grid and on
//! `log2:1/4:64:32` — the "new α axis, no recompute" flow of
//! `fig2_avg_poa --atlas` / `fig3_avg_links --atlas --grid …`.
//!
//! `wall_s` is the median replay (open the store → all four CSVs);
//! `ops_per_s` is catalogue records replayed per second.

use std::path::Path;
use std::time::Instant;

use bnf_atlas::ClassificationAtlas;
use bnf_empirics::grid;
use bnf_empirics::sweep::WindowSweep;

use crate::fixture::{self, Dirs, SETUP_REPS};
use crate::ledger::Ledger;
use crate::oracle::Oracle;
use crate::util::{median, reset_hwm, vm_hwm_kib, Digest};
use crate::{figures, layout, Args, Outcome, N};

/// One replay: the CSVs it rendered and the time of each stage.
#[derive(Debug, Default)]
struct Replay {
    wall: f64,
    records: usize,
    csvs: Vec<(String, String)>,
    open_s: f64,
    complete_sweep_s: f64,
    evaluate_s: f64,
    stats_s: f64,
    render_s: f64,
    close_s: f64,
    record_alphas: f64,
}

fn replay(store: &Path) -> Result<Replay, String> {
    let started = Instant::now();
    let atlas = ClassificationAtlas::open(store).map_err(|e| e.to_string())?;
    let t_open = Instant::now();
    let records = atlas
        .complete_sweep(N)
        .ok_or("the store has no complete n=9 sweep")?;
    let t_sweep = Instant::now();
    let windows = WindowSweep { n: N, records };
    let mut r = Replay {
        records: windows.records.len(),
        open_s: (t_open - started).as_secs_f64(),
        complete_sweep_s: (t_sweep - t_open).as_secs_f64(),
        ..Replay::default()
    };
    for spec in figures::GRIDS {
        let alphas = figures::alphas(spec);
        let t0 = Instant::now();
        let result = grid::evaluate(&windows, &alphas);
        let t1 = Instant::now();
        let (bcg, ucg) = figures::stats(&result);
        let t2 = Instant::now();
        let fig2 = figures::fig2_csv(&bcg, &ucg);
        let fig3 = figures::fig3_csv(&bcg, &ucg);
        let t3 = Instant::now();
        r.evaluate_s += (t1 - t0).as_secs_f64();
        r.stats_s += (t2 - t1).as_secs_f64();
        r.render_s += (t3 - t2).as_secs_f64();
        r.record_alphas += (windows.records.len() * alphas.len()) as f64;
        r.csvs.push((format!("fig2_{spec}"), fig2));
        r.csvs.push((format!("fig3_{spec}"), fig3));
    }
    let t_close = Instant::now();
    drop(windows);
    drop(atlas);
    r.close_s = t_close.elapsed().as_secs_f64();
    r.wall = started.elapsed().as_secs_f64();
    Ok(r)
}

/// The workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let dirs = Dirs::new()?;
    fixture::ensure_catalogue(&dirs)?;
    let oracle = Oracle::load();
    let store = dirs.file("warm.bnfatlas");
    let mut out = Outcome::default();
    for _ in 0..SETUP_REPS {
        out.setup_s.push(fixture::build_store(&dirs, &store)?);
    }
    let measuring = Instant::now();
    let mut replayed = 0usize;
    let mut replay_secs = 0.0;
    while out.wall_s.is_empty() || measuring.elapsed().as_secs_f64() < args.seconds {
        reset_hwm();
        let r = replay(&store)?;
        out.peak_rss_mib = out
            .peak_rss_mib
            .max(vm_hwm_kib().unwrap_or(0) as f64 / 1024.0);
        out.attempted += 1;
        let wrong: Vec<String> = r
            .csvs
            .iter()
            .filter_map(|(name, csv)| oracle.check(name, &Digest::of(csv)).err())
            .collect();
        if !wrong.is_empty() {
            out.fail(wrong.join("; "));
        }
        replayed += r.records;
        replay_secs += r.wall;
        out.wall_s.push(r.wall);
    }
    out.ops_per_s = (replayed as f64 / replay_secs, out.wall_s.len());
    out.note("replay_s", median(&out.wall_s), "s", out.wall_s.len());
    if args.trace {
        trace(&mut out, &store)?;
    }
    Ok(out)
}

/// One more replay with its ledger, plus the block-decode probe.
fn trace(out: &mut Outcome, store: &Path) -> Result<(), String> {
    let untraced = median(&out.wall_s);
    let r = replay(store)?;
    let mut ledger = Ledger::default();
    ledger.add("atlas.open (read + decode every frame)", r.open_s);
    ledger.add("atlas.complete_sweep", r.complete_sweep_s);
    ledger.add("empirics.grid_evaluate", r.evaluate_s);
    ledger.add("empirics.stats", r.stats_s);
    ledger.add("empirics.render", r.render_s);
    ledger.add("atlas.close (free the catalogue)", r.close_s);
    out.ledger = Some(ledger.render(
        "warm_replay",
        r.wall,
        untraced,
        ("wall-clock", "s", r.wall, untraced),
    ));
    out.layer(
        "ledger.unattributed_share",
        ledger.unattributed(r.wall) / r.wall,
    );
    out.layer("trace.overhead_share", (r.wall - untraced) / untraced);
    out.layer("atlas.open_s", r.open_s);
    out.layer("atlas.complete_sweep_s", r.complete_sweep_s);
    out.layer("empirics.grid_evaluate_s", r.evaluate_s);
    out.layer("empirics.stats_s", r.stats_s);
    out.layer("empirics.render_s", r.render_s);
    out.layer(
        "empirics.fold_ns_per_record_alpha",
        r.evaluate_s * 1e9 / r.record_alphas,
    );
    // Probe: decode every block of the store on its own.
    let blocks = layout::block_frames(store).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut decoded = 0usize;
    for (_, body) in &blocks {
        decoded += bnf_atlas::codec::decode_block(body)?.len();
    }
    out.layer("atlas.decode_s", t.elapsed().as_secs_f64());
    if decoded != r.records {
        out.fail(format!(
            "store blocks hold {decoded} records, replay {}",
            r.records
        ));
    }
    Ok(())
}
