//! The orchestrated sweep and its multi-process form: the same n = 7
//! window sweep as one in-process run over 16 work-stolen ranges, and
//! as the four `--shard i/4` process blocks run back to back. Peak-RSS
//! comparisons live in CHANGES.md — high-water marks need separate
//! processes, so they are recorded from `fig2_avg_poa` runs rather than
//! measured here.
//!
//! The group also reports `candidates_per_survivor/8`, a
//! counter-derived pruning-quality metric (not a timing): constructed
//! augmentation candidates per emitted graph across the whole n = 8
//! enumeration. The perf gate holds it alongside the wall-clock means —
//! a pruning regression shows up here before it shows up in noise-prone
//! timings.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bnf_empirics::WindowSweep;
use bnf_stream::{RangeSelection, ShardSpec};

fn bench_streaming_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_sweep");
    group.sample_size(10);
    // The multi-process fleet's single-machine cost model: all four
    // process blocks of an n = 7 window sweep run back to back — what
    // one CPU pays for a whole fleet, including the 4× frontier rebuild
    // (the overhead the merge amortizes across processes).
    group.bench_function("sharded_4x/7", |b| {
        b.iter(|| {
            for index in 0..4 {
                let block = RangeSelection::shard(ShardSpec::new(index, 4)).expect("4 processes");
                black_box(
                    WindowSweep::run_selected(7, bnf_empirics::default_threads(), &block, |_| {})
                        .expect("an unpinned block fits the frontier"),
                );
            }
        })
    });
    // The in-process orchestrator on the same sweep: one frontier
    // build, 16 work-stolen ranges — the single-command path that
    // replaces the 4× fleet above (and its redundant frontier rebuilds).
    group.bench_function("orchestrated_16x/7", |b| {
        b.iter(|| {
            black_box(WindowSweep::run_orchestrated(
                7,
                bnf_empirics::default_threads(),
                Some(16),
                None,
                |_| {},
            ))
        })
    });
    let stats = bnf_stream::for_each_connected_stats(8, |_, _| {});
    group.report_metric(
        "candidates_per_survivor/8",
        stats.prune.candidates_per_survivor(),
    );
    group.finish();
}

criterion_group!(benches, bench_streaming_sweep);
criterion_main!(benches);
