//! Equilibrium-analysis benchmarks: exact stability windows, pairwise
//! Nash checks and the UCG orientation solver — the kernels of the
//! Figure 2/3 sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bnf_atlas::named::{clebsch, mcgee, petersen};
use bnf_core::{
    is_pairwise_nash, stability_window, ucg_necessary_window, UcgAnalyzer, WindowRecord,
};
use bnf_games::Ratio;
use bnf_graph::{BfsScratch, Graph};

fn theta7() -> Graph {
    // A 7-vertex workhorse: two hubs joined by three paths.
    Graph::from_edges(
        7,
        [
            (0, 5),
            (0, 6),
            (1, 5),
            (1, 6),
            (2, 3),
            (2, 6),
            (3, 4),
            (4, 5),
        ],
    )
    .unwrap()
}

fn bench_equilibria(c: &mut Criterion) {
    let mut group = c.benchmark_group("equilibria");
    for (name, g) in [
        ("petersen", petersen()),
        ("mcgee", mcgee()),
        ("clebsch", clebsch()),
    ] {
        group.bench_function(format!("stability_window_{name}"), |b| {
            b.iter(|| black_box(stability_window(&g)))
        });
    }
    let t = theta7();
    group.bench_function("pairwise_nash_theta7", |b| {
        b.iter(|| black_box(is_pairwise_nash(&t, Ratio::from(2))))
    });
    group.bench_function("ucg_analyzer_build_theta7", |b| {
        b.iter(|| black_box(UcgAnalyzer::new(&t).unwrap()))
    });
    let solver = UcgAnalyzer::new(&t).unwrap();
    group.bench_function("ucg_supportable_theta7", |b| {
        b.iter(|| black_box(solver.is_nash_supportable(Ratio::new(5, 2))))
    });
    group.bench_function("ucg_support_intervals_theta7", |b| {
        b.iter(|| black_box(solver.support_intervals()))
    });
    // The UCG share of a cold n = 7 window sweep, start to finish:
    // necessary-window pre-filter, exact analyzer build, clipped
    // support-interval extraction — over every connected 7-vertex
    // topology. This is the hot path the propagating solver rewrote;
    // the perf gate holds the line on it.
    let n7: Vec<Graph> = bnf_enumerate::connected_graphs(7);
    group.bench_function("ucg_support_intervals_n7_batch", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for g in &n7 {
                if let Some(nec) = ucg_necessary_window(g) {
                    let solver = UcgAnalyzer::new(g).unwrap();
                    total += solver.support_intervals_within(nec).len();
                }
            }
            black_box(total)
        })
    });
    // The whole classify kernel — canonical form, the single-link Δ
    // table and its three windows, the UCG tables and solver — over
    // every connected 7-vertex topology: the per-graph work of a cold
    // sweep without enumeration or storage.
    group.bench_function("classify_n7_batch", |b| {
        let mut scratch = BfsScratch::new();
        b.iter(|| {
            let mut total = 0u64;
            for g in &n7 {
                total += WindowRecord::classify(g, &mut scratch).total_distance;
            }
            black_box(total)
        })
    });
    group.bench_function("ucg_analyzer_build_n7_batch", |b| {
        b.iter(|| {
            for g in &n7 {
                black_box(UcgAnalyzer::new(g).unwrap());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_equilibria);
criterion_main!(benches);
