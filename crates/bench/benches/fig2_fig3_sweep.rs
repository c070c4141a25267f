//! Figures 2 and 3: the full engine-backed enumeration sweep (exhaustive
//! topologies × α grid × exact equilibrium tests, scheduled by
//! `bnf_engine::AnalysisEngine`) plus the aggregation passes. These are
//! the numbers the figure binaries actually pay — the bench and the
//! binaries share the same orchestrated window sweep and grid
//! post-pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bnf_empirics::{default_threads, SweepConfig, SweepResult};
use bnf_games::GameKind;

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_fig3");
    group.sample_size(10);
    for n in [5usize, 6, 7] {
        group.bench_with_input(BenchmarkId::new("sweep", n), &n, |b, &n| {
            let mut config = SweepConfig::standard(n);
            config.threads = 1; // single-thread for stable numbers
            b.iter(|| black_box(SweepResult::run(&config)))
        });
    }
    // End-to-end engine scaling: the same n=7 job on the full worker
    // pool (what `fig2_avg_poa --n 7` runs by default).
    group.bench_function(
        format!("sweep_engine/7/threads/{}", default_threads()),
        |b| {
            let config = SweepConfig::standard(7);
            b.iter(|| black_box(SweepResult::run(&config)))
        },
    );
    let sweep = SweepResult::run(&SweepConfig::standard(7));
    group.bench_function("aggregate_stats_n7", |b| {
        b.iter(|| {
            black_box(sweep.stats(GameKind::Bilateral));
            black_box(sweep.stats(GameKind::Unilateral));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
