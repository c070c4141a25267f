//! The Section 5 empirical study: classify every connected topology on
//! `n` vertices as BCG-pairwise-stable / UCG-Nash-supportable across a
//! grid of link costs, then aggregate the statistics behind Figures 2
//! (average price of anarchy) and 3 (average number of links).
//!
//! The paper ran this at n = 10 (11 716 571 connected topologies); the
//! default here is n = 7 (853) with n = 8 (11 117) a command-line flag —
//! see DESIGN.md §4 for the substitution rationale. The pipeline is
//! identical: exhaustive non-isomorphic enumeration, exact equilibrium
//! tests, per-α aggregation.
//!
//! The sweep is **windows-first**: classification emits one
//! α-independent [`WindowRecord`] per topology ([`WindowSweep`],
//! optionally replayed from a persistent
//! [`ClassificationAtlas`]), and any α
//! grid is evaluated afterwards as a pure post-pass
//! ([`crate::grid::evaluate`], one [`crate::grid::GridFold`] pass) — so
//! finer Figure 2/3 axes cost O(records · log|grid| + equilibrium pairs)
//! time and O(|grid|) memory, never a re-classification. A
//! [`SweepResult`] is the per-α aggregate table that fold produces; it
//! holds no per-record data. The original per-α job survives only as a
//! test oracle inside this crate, the reference the equivalence tests
//! compare the fold against bit for bit.

use bnf_atlas::ClassificationAtlas;
use bnf_core::{stability_window_with, WindowRecord};
use bnf_engine::{
    default_threads, Analysis, AnalysisEngine, OrchestratorStats, RangeSegment, WorkerScratch,
};
use bnf_games::{GameKind, Ratio};
use bnf_graph::Graph;
use bnf_stream::{FrontierMismatch, RangeSelection};

/// Configuration of an empirical sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Number of players (vertices).
    pub n: usize,
    /// Link-cost grid (exact rationals; the paper plots a log-α axis).
    pub alphas: Vec<Ratio>,
    /// Worker threads.
    pub threads: usize,
}

impl SweepConfig {
    /// The standard grid used by the figure binaries: log-spaced link
    /// costs from 1/4 to 64.
    pub fn standard(n: usize) -> SweepConfig {
        let alphas = [
            (1, 4),
            (1, 2),
            (3, 4),
            (1, 1),
            (3, 2),
            (2, 1),
            (3, 1),
            (4, 1),
            (6, 1),
            (8, 1),
            (12, 1),
            (16, 1),
            (24, 1),
            (32, 1),
            (48, 1),
            (64, 1),
        ]
        .into_iter()
        .map(|(p, q)| Ratio::new(p, q))
        .collect();
        SweepConfig {
            n,
            alphas,
            threads: default_threads(),
        }
    }
}

/// Running totals over one game's equilibrium set at one α: what the
/// Figure 2/3 means and the worst-case PoA are computed from.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SeriesTotals {
    /// Equilibrium topologies seen.
    count: usize,
    /// Σ price of anarchy, summed in catalogue order.
    poa_sum: f64,
    /// Worst price of anarchy (0.0 while empty).
    poa_max: f64,
    /// Σ links.
    links: u64,
}

impl SeriesTotals {
    /// Adds one equilibrium topology with `edges` links and price of
    /// anarchy `rho`.
    pub(crate) fn add(&mut self, edges: u64, rho: f64) {
        self.count += 1;
        self.links += edges;
        self.poa_sum += rho;
        self.poa_max = self.poa_max.max(rho);
    }

    fn stats(&self, alpha: Ratio) -> EquilibriumStats {
        let mean = |total: f64| {
            if self.count == 0 {
                f64::NAN
            } else {
                total / self.count as f64
            }
        };
        EquilibriumStats {
            alpha,
            count: self.count,
            mean_poa: mean(self.poa_sum),
            max_poa: self.poa_max,
            mean_links: mean(self.links as f64),
        }
    }
}

/// Bitwise on the f64 sums: two tables are equal only if every
/// aggregate they report would render identically.
impl PartialEq for SeriesTotals {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.poa_sum.to_bits() == other.poa_sum.to_bits()
            && self.poa_max.to_bits() == other.poa_max.to_bits()
            && self.links == other.links
    }
}

impl Eq for SeriesTotals {}

/// The per-α aggregate table of all connected topologies on `n`
/// vertices: equilibrium counts, PoA and link totals for the bilateral,
/// unilateral and transfer games, and conjecture-violation counts. It
/// holds O(|grid|) numbers and no per-record data; equality is bitwise
/// on every f64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepResult {
    /// Number of players.
    pub n: usize,
    /// The link-cost grid.
    pub alphas: Vec<Ratio>,
    /// Connected non-isomorphic topologies folded in.
    pub topologies: usize,
    // Per-α tables, indexed like `alphas`.
    pub(crate) bilateral: Vec<SeriesTotals>,
    pub(crate) unilateral: Vec<SeriesTotals>,
    pub(crate) transfer: Vec<SeriesTotals>,
    pub(crate) violations: Vec<usize>,
}

/// Per-α aggregate statistics over one game's equilibrium set — the data
/// series of Figures 2 and 3.
#[derive(Debug, Clone, Copy)]
pub struct EquilibriumStats {
    /// The link cost.
    pub alpha: Ratio,
    /// Number of equilibrium topologies at this α.
    pub count: usize,
    /// Mean price of anarchy over the equilibrium set (Figure 2).
    pub mean_poa: f64,
    /// Worst-case price of anarchy over the equilibrium set.
    pub max_poa: f64,
    /// Mean number of links over the equilibrium set (Figure 3).
    pub mean_links: f64,
}

/// The windows-first classification job: emits one α-independent
/// [`WindowRecord`] per topology.
///
/// This is the workhorse [`Analysis`] of the workspace: the figure
/// binaries, the efficiency scan, the Proposition 4 table and the
/// conjecture checks all fold its records (through
/// [`crate::grid::evaluate`] for α-grid questions). The orchestrator
/// classifies through [`Analysis::classify_keyed`], so each record
/// carries the canonical graph6 key the enumeration already computed.
/// The job never reads a store: classification is a pure function of
/// the key, and a store is read only to replay a covered order
/// ([`WindowSweep::run`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowJob;

impl Analysis for WindowJob {
    type Output = WindowRecord;

    fn classify(&self, g: &Graph, scratch: &mut WorkerScratch) -> WindowRecord {
        // Unkeyed fallback (ad-hoc graph lists): canonicalize here so
        // the record still carries the canonical key.
        WindowRecord::classify(g, &mut scratch.bfs)
    }

    fn classify_keyed(&self, key: &str, g: &Graph, scratch: &mut WorkerScratch) -> WindowRecord {
        // The enumeration emits canonical forms, so `key` is stamped
        // as given and no second canonical search runs.
        WindowRecord::classify_with_key(key.to_owned(), g, &mut scratch.bfs)
    }
}

/// The α-independent classified catalogue: one [`WindowRecord`] per
/// connected topology on `n` vertices, in the engine's deterministic
/// enumeration order. Evaluate any α grid over it with
/// [`crate::grid::evaluate`]; persist it with
/// [`ClassificationAtlas::append_records`].
#[derive(Debug, Clone)]
pub struct WindowSweep {
    /// Number of players.
    pub n: usize,
    /// One record per connected non-isomorphic graph (enumeration
    /// order: edge count, then canonical key).
    pub records: Vec<WindowRecord>,
}

impl WindowSweep {
    /// Enumerates and classifies all connected topologies on `n`
    /// vertices into window records with the orchestrator
    /// ([`WindowSweep::run_orchestrated`], automatic range split). The
    /// `atlas` is read only as a replay source: when it declares
    /// *complete* coverage for `n` ([`ClassificationAtlas::mark_complete`]
    /// after a prior full sweep) and replays cleanly, the whole
    /// catalogue comes from the store in engine order and the enumerator
    /// never runs — the warm-run fast path. Otherwise every topology is
    /// classified; the caller owns appending the records (and the
    /// coverage marker) back to the atlas.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`crate::max_sweep_n`] (default 8; opt in
    /// via `BNF_MAX_N`).
    pub fn run(n: usize, threads: usize, atlas: Option<&ClassificationAtlas>) -> WindowSweep {
        assert_sweep_cap(n);
        if let Some(records) = atlas.and_then(|a| a.complete_sweep(n)) {
            return WindowSweep { n, records };
        }
        Self::run_orchestrated(n, threads, None, None, |_| {}).0
    }

    /// The orchestrated sweep: builds the parent frontier **once**,
    /// splits it into `ranges` work-stolen ranges (`None` → ≈ 16× the
    /// thread count; never more ranges than parents) classified on
    /// `threads` workers
    /// ([`AnalysisEngine::run_connected_streaming_keyed_orchestrated`]),
    /// and invokes `on_segment` with each completed range — where the
    /// CLI commits records and per-range [`bnf_atlas::ShardMeta`] —
    /// before returning the full catalogue in engine order plus the
    /// run's [`OrchestratorStats`].
    ///
    /// The store argument is not read: every topology is classified.
    /// It stays only because the repository benchmark calls this
    /// five-argument form.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`crate::max_sweep_n`]; propagates panics
    /// from `on_segment`.
    pub fn run_orchestrated<W>(
        n: usize,
        threads: usize,
        ranges: Option<usize>,
        _atlas: Option<&ClassificationAtlas>,
        on_segment: W,
    ) -> (WindowSweep, OrchestratorStats)
    where
        W: FnMut(RangeSegment<'_, WindowRecord>),
    {
        let ranges = ranges.unwrap_or_else(|| bnf_stream::auto_range_count(threads));
        Self::run_selected(n, threads, &RangeSelection::all(ranges), on_segment)
            .expect("an unpinned selection fits any frontier")
    }

    /// [`WindowSweep::run_orchestrated`] over only the ranges
    /// `selection` names ([`AnalysisEngine::run_connected_selected`]) —
    /// one process's `--shard` block, or the ranges a resumed run still
    /// owes. The returned [`WindowSweep`] holds the executed ranges'
    /// records only.
    ///
    /// # Errors
    ///
    /// [`FrontierMismatch`] when the selection pins another frontier
    /// length; nothing has run.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`crate::max_sweep_n`] or the selection's
    /// span does not fit its partition; propagates panics from
    /// `on_segment`.
    pub fn run_selected<W>(
        n: usize,
        threads: usize,
        selection: &RangeSelection,
        on_segment: W,
    ) -> Result<(WindowSweep, OrchestratorStats), FrontierMismatch>
    where
        W: FnMut(RangeSegment<'_, WindowRecord>),
    {
        assert_sweep_cap(n);
        let (records, stats) = AnalysisEngine::new(threads)
            .run_connected_selected(n, selection, &WindowJob, on_segment)?;
        Ok((WindowSweep { n, records }, stats))
    }
}

/// Refuses orders above [`crate::max_sweep_n`].
fn assert_sweep_cap(n: usize) {
    let cap = crate::max_sweep_n();
    assert!(
        n <= cap,
        "sweeps beyond n={cap} need a deliberate opt-in (set BNF_MAX_N)"
    );
}

impl SweepResult {
    /// Enumerates and classifies all connected topologies on
    /// `config.n` vertices into α-independent [`WindowRecord`]s
    /// ([`WindowSweep::run`]), and evaluates the config's α grid as a
    /// post-pass.
    ///
    /// # Panics
    ///
    /// Panics if `config.n` exceeds [`crate::max_sweep_n`] (default 8 —
    /// the UCG orientation solve on all 261 080 9-vertex graphs costs
    /// minutes; opt in via `BNF_MAX_N`).
    pub fn run(config: &SweepConfig) -> SweepResult {
        let windows = WindowSweep::run(config.n, config.threads, None);
        crate::grid::evaluate(&windows, &config.alphas)
    }

    fn series_stats(&self, series: &[SeriesTotals]) -> Vec<EquilibriumStats> {
        self.alphas
            .iter()
            .zip(series)
            .map(|(&alpha, totals)| totals.stats(alpha))
            .collect()
    }

    /// Per-α equilibrium statistics for one game (mean PoA and links
    /// are NaN, max PoA 0.0, where the equilibrium set is empty).
    pub fn stats(&self, kind: GameKind) -> Vec<EquilibriumStats> {
        match kind {
            GameKind::Bilateral => self.series_stats(&self.bilateral),
            GameKind::Unilateral => self.series_stats(&self.unilateral),
        }
    }

    /// Conjecture check (Section 4.3): per α, the number of topologies
    /// that are UCG-Nash-supportable but *not* BCG-pairwise-stable. The
    /// conjecture (proved for trees as Proposition 5) predicts all zeros.
    pub fn conjecture_violations(&self) -> Vec<(Ratio, usize)> {
        self.alphas
            .iter()
            .copied()
            .zip(self.violations.iter().copied())
            .collect()
    }

    /// Per-α statistics over the transfer-stable set (evaluated with
    /// the bilateral social cost — transfers move money between the
    /// pair, not in or out).
    pub fn transfer_stats(&self) -> Vec<EquilibriumStats> {
        self.series_stats(&self.transfer)
    }

    /// Per α, how many equilibrium topologies each game admits — the
    /// multiplicity the paper blames for the average-PoA hump at
    /// intermediate α.
    pub fn equilibrium_counts(&self) -> Vec<(Ratio, usize, usize)> {
        self.alphas
            .iter()
            .zip(self.bilateral.iter().zip(&self.unilateral))
            .map(|(&alpha, (b, u))| (alpha, b.count, u.count))
            .collect()
    }
}

/// Enumerates the *graphs* (not just counts) that are pairwise stable in
/// the BCG at `alpha` — the catalogue behind the figures, exposed for
/// cross-validation against dynamics fixed points and for inspection.
///
/// # Panics
///
/// Panics if `n` exceeds [`crate::max_sweep_n`] or `alpha <= 0`.
pub fn stable_catalog(n: usize, alpha: Ratio) -> Vec<Graph> {
    let cap = crate::max_sweep_n();
    assert!(
        n <= cap,
        "catalogues beyond n={cap} need a deliberate opt-in (set BNF_MAX_N)"
    );
    assert!(alpha > Ratio::ZERO, "link cost must be positive");
    let (stable, _) = AnalysisEngine::with_default_threads()
        .run_connected_streaming_keyed_orchestrated(n, None, &StableAt(alpha), |_| {});
    stable.into_iter().flatten().collect()
}

/// The [`stable_catalog`] job: keeps a topology iff its BCG stability
/// window contains the link cost.
struct StableAt(Ratio);

impl Analysis for StableAt {
    type Output = Option<Graph>;

    fn classify(&self, g: &Graph, scratch: &mut WorkerScratch) -> Option<Graph> {
        stability_window_with(g, &mut scratch.bfs)
            .is_some_and(|w| w.contains(self.0))
            .then(|| g.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep(n: usize) -> SweepResult {
        let config = SweepConfig {
            n,
            alphas: vec![
                Ratio::new(1, 2),
                Ratio::ONE,
                Ratio::from(2),
                Ratio::from(4),
                Ratio::from(10),
            ],
            threads: 2,
        };
        SweepResult::run(&config)
    }

    #[test]
    fn unique_stable_graph_below_one() {
        // Lemma 4: at α = 1/2 the complete graph is the only pairwise
        // stable topology (and the only UCG Nash graph is complete too).
        let sweep = tiny_sweep(5);
        let k = 0; // α = 1/2
        for kind in [GameKind::Bilateral, GameKind::Unilateral] {
            let s = sweep.stats(kind)[k];
            assert_eq!(s.count, 1, "{kind:?}");
            assert_eq!(s.mean_links, 10.0, "{kind:?}: K5");
            assert_eq!(s.max_poa, 1.0, "{kind:?}: K5 is efficient below 1");
        }
    }

    #[test]
    fn star_always_among_stable_above_one() {
        let sweep = tiny_sweep(5);
        let windows = WindowSweep::run(5, 2, None);
        assert_eq!(sweep.topologies, windows.records.len());
        for &alpha in &sweep.alphas[1..] {
            let has_tree_stable = windows
                .records
                .iter()
                .any(|r| r.bcg_stable(alpha) && r.edges == 4);
            assert!(has_tree_stable, "alpha={alpha}");
        }
    }

    #[test]
    fn streaming_sweep_bit_identical_to_materializing() {
        // The orchestrated sweep against the materialized reference
        // catalogue: identical records, so an identical aggregate table.
        let config = SweepConfig {
            n: 6,
            alphas: vec![Ratio::new(1, 2), Ratio::ONE, Ratio::from(3)],
            threads: 2,
        };
        let reference = crate::per_alpha::reference_sweep(config.n);
        let mat = crate::grid::evaluate(&reference, &config.alphas);
        let stream = SweepResult::run(&config);
        assert_eq!(stream, mat, "aggregate tables must match bit for bit");
        for kind in [GameKind::Bilateral, GameKind::Unilateral] {
            for (s, m) in stream.stats(kind).iter().zip(mat.stats(kind).iter()) {
                assert_eq!(s.count, m.count);
                // f64 equality is the point: identical record order means
                // identical summation order, bit for bit.
                assert_eq!(s.mean_poa.to_bits(), m.mean_poa.to_bits());
                assert_eq!(s.max_poa.to_bits(), m.max_poa.to_bits());
                assert_eq!(s.mean_links.to_bits(), m.mean_links.to_bits());
            }
        }
    }

    #[test]
    fn trivial_orders_run_through_the_orchestrator() {
        // n ∈ {0, 1}: the one-graph frontier is orchestrated like any
        // other order — one record equal to the materialized oracle's,
        // and the serial enumeration's stats.
        for n in [0usize, 1] {
            let (windows, orch) = WindowSweep::run_orchestrated(n, 2, None, None, |_| {});
            let stats = orch.stats;
            let serial = bnf_stream::for_each_connected_stats(n, |_, _| {});
            assert_eq!(stats.level_sizes, vec![1], "n={n}");
            assert_eq!(stats.level_sizes, serial.level_sizes, "n={n}");
            assert_eq!(stats.prune, serial.prune, "n={n}");
            assert_eq!(windows.n, n);
            assert_eq!(windows.records.len(), 1, "n={n}");
            let reference = crate::per_alpha::reference_sweep(n);
            assert_eq!(windows.records, reference.records, "n={n}");
            assert_eq!(windows.records[0].order as usize, n);
        }
    }

    #[test]
    fn stable_catalog_matches_the_materialized_filter() {
        // The orchestrated catalogue keeps exactly the graphs the plain
        // filter over the materialized catalogue keeps, in its order.
        for n in 0..=7 {
            let graphs = bnf_enumerate::connected_graphs(n);
            let mut scratch = bnf_graph::BfsScratch::new();
            for alpha in SweepConfig::standard(n).alphas {
                let expect: Vec<Graph> = graphs
                    .iter()
                    .filter(|g| {
                        stability_window_with(g, &mut scratch).is_some_and(|w| w.contains(alpha))
                    })
                    .cloned()
                    .collect();
                assert_eq!(stable_catalog(n, alpha), expect, "n={n} alpha={alpha}");
            }
        }
    }

    #[test]
    fn stats_shapes_and_sanity() {
        let sweep = tiny_sweep(5);
        let bcg = sweep.stats(GameKind::Bilateral);
        let ucg = sweep.stats(GameKind::Unilateral);
        assert_eq!(bcg.len(), 5);
        for s in bcg.iter().chain(&ucg) {
            assert!(s.count > 0, "equilibrium set never empty (star/complete)");
            assert!(s.mean_poa >= 1.0 - 1e-12, "PoA >= 1, got {}", s.mean_poa);
            assert!(s.max_poa >= s.mean_poa - 1e-12);
            assert!(s.mean_links >= (sweep.n - 1) as f64 - 1e-9);
        }
    }

    #[test]
    fn conjecture_violations_at_n5_only_at_boundary() {
        // The paper conjectures UCG-Nash ⊆ BCG-stable (Section 4.3). At
        // n = 5 exactly one violating topology exists on this grid — the
        // triangle with two pendants at the knife-edge α = 2, where the
        // UCG owner of the severable edge is exactly indifferent while
        // the BCG non-owner strictly gains by severing. (At n = 6 the
        // theta graph violates the conjecture on a whole interval; see
        // bnf-core::theorems.)
        let sweep = tiny_sweep(5);
        for (alpha, bad) in sweep.conjecture_violations() {
            if alpha == Ratio::from(2) {
                assert_eq!(bad, 1, "exactly the pendant-triangle at alpha=2");
            } else {
                assert_eq!(bad, 0, "no violation at alpha={alpha}");
            }
        }
    }

    #[test]
    fn bcg_admits_at_least_as_many_equilibria_in_tail() {
        // Section 4.4: the BCG stable set is richer; by α large both
        // collapse toward trees, but BCG keeps (weakly) more topologies
        // at every grid point here.
        let sweep = tiny_sweep(6);
        for (alpha, bcg, ucg) in sweep.equilibrium_counts() {
            assert!(bcg >= ucg, "alpha={alpha}: bcg={bcg} < ucg={ucg}");
        }
    }
}
