//! Exact Nash analysis of the unilateral connection game (UCG) of
//! Fabrikant et al. — the baseline the paper compares against.
//!
//! A graph `G` is *Nash-supportable* at link cost α if some strategy
//! profile supporting `G` is a Nash equilibrium. In any UCG equilibrium
//! every edge is bought by exactly one endpoint (double purchases and
//! unreciprocated wishes waste α), so the question becomes: does some
//! *orientation* (edge → buyer assignment) make every player's purchase
//! set a best response among all `2^(n-1)` wish sets?
//!
//! # Method
//!
//! 1. For player `i`, the deviation graph depends only on `i`'s *effective
//!    row* `R = (N(i) \ O_i) ∪ S` (others' purchases survive; `i` rewires
//!    freely). With row `R`, `d(i, v) = 1 + min_{u ∈ R} d_{G−i}(u, v)`,
//!    so `n − 1` bitset BFS in `G − i` plus a subset-min DP — one
//!    16-byte lane-wise min per row `R ⊆ N \ {i}` — tabulate every
//!    distance sum `D_i(R)` the analysis can ever need: `n(n − 1)` BFS
//!    and `n · 2^(n-1)` lane mins for the whole graph.
//! 2. Every Nash constraint is linear in α with integer coefficients:
//!    `α(|S| - |O_i|) + (D_S - D_cur) ≥ 0`. Among wish sets of one size
//!    the cheapest binds hardest, so a **ranked superset-min transform**
//!    — `F[K][t] = min D_i(T)` over `T ⊇ K` with `|T| = t`, in
//!    `(n − 1) · 2^(n-2)` lane-wise mins per vertex (ranking by `|T|`
//!    rather than `|T \ K|` spares the per-step lane shift) — leaves
//!    each (vertex, owned set) at most `n` constraints, read from
//!    `F[N(i) \ O_i]` and folded into an exact closed
//!    rational interval of admissible α ([`ClosedInterval`]). (The
//!    per-wish-set fold over `3^deg · 2^(n-1-deg)` deviations survives
//!    as a `#[cfg(test)]` oracle.)
//! 3. Nash-supportability at α is an exact cover problem: assign each
//!    edge an owner so every vertex's owned set has an interval
//!    containing α. Each α probe first **resolves its admissible
//!    masks**: per vertex, the owned masks whose interval contains α,
//!    copied once into one flat buffer, so the search never touches a
//!    rational again. It is then solved by **constraint propagation**:
//!    per vertex, the admissible masks consistent with the current
//!    partial orientation (`m & decided == owned`) are intersected and
//!    unioned as bit sets — a bit forced into every consistent mask
//!    orients its edge toward the vertex, a bit absent from all of them
//!    orients it away (unit-literal propagation); a vertex is re-folded
//!    only after another vertex orients one of its edges. Only when the
//!    fixpoint leaves genuinely free edges does the solver branch,
//!    fail-first, on the most constrained vertex, copying a fixed-size
//!    state per branch. Probes share no answers: on the sweep
//!    catalogues nearly every graph's necessary window is a single
//!    point, which [`UcgAnalyzer::support_intervals_within`] probes
//!    once, so there are no repeated probes for a memo to catch. (The
//!    pre-propagation edge-by-edge backtracker survives as a
//!    `#[cfg(test)]` oracle.)
//!
//! **The point branch.** When the necessary window is one integer
//! point `a` (both of its bounds are integers) — 91 829 of the 92 019
//! order-9 graphs that reach the solver — the window record skips
//! steps 2–3's tables. At α = a, owning `O ⊆ N(i)` is a best response
//! iff `W_i[N(i) \ O] ≥ D_i(N(i)) + a·deg(i)`, where
//! `W_i[K] = min_{T ⊇ K} D_i(T) + a·|T|`: the cheapest deviation that
//! keeps the links others buy, `K = N(i) \ O`, costs `W_i[K] − a·|K|`
//! against the current `a·|O| + D_i(N(i))`. So after step 1 each vertex
//! needs one *scalar* superset-min: one pass folds every row `R` into
//! the integer minimum at `R ∩ N(i)`, and the superset-min then runs
//! over the `deg(i)` neighbour bits alone. The owned sets that clear
//! the threshold go straight into the solver's mask buffer — no
//! interval, no rational, no gcd — before the same propagating search
//! runs.

use std::fmt;

use bnf_games::Ratio;
use bnf_graph::{BfsScratch, Graph};

use crate::delta::link_windows;
#[cfg(test)]
use crate::delta::{DeltaCalc, DistanceDelta};
use crate::interval::{ClosedInterval, Threshold};

/// Maximum order accepted by the exact solver (`2^(n-1)` wish sets per
/// player are enumerated).
pub const MAX_UCG_ORDER: usize = 16;

/// Why a graph is outside the exact UCG solver's domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UcgError {
    /// The order exceeds [`MAX_UCG_ORDER`] (the solver enumerates
    /// `2^(n-1)` wish sets per player).
    OrderTooLarge {
        /// The rejected graph's order.
        order: usize,
    },
    /// The graph is disconnected — every profile has infinite cost, so
    /// Nash-supportability is undefined in the model.
    Disconnected,
}

impl fmt::Display for UcgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UcgError::OrderTooLarge { order } => write!(
                f,
                "UCG solver supports order <= {MAX_UCG_ORDER}, got {order}"
            ),
            UcgError::Disconnected => {
                write!(f, "UCG Nash analysis requires a connected graph")
            }
        }
    }
}

impl std::error::Error for UcgError {}

/// Precomputed exact Nash data for one graph in the UCG.
///
/// # Examples
///
/// ```
/// use bnf_core::UcgAnalyzer;
/// use bnf_games::Ratio;
/// use bnf_graph::Graph;
///
/// // The star is Nash-supportable in the UCG exactly for α ≥ 1.
/// let star = Graph::from_edges(5, (1..5).map(|i| (0, i))).unwrap();
/// let ucg = UcgAnalyzer::new(&star)?;
/// assert!(!ucg.is_nash_supportable(Ratio::new(1, 2)));
/// assert!(ucg.is_nash_supportable(Ratio::ONE));
/// assert!(ucg.is_nash_supportable(Ratio::from(50)));
/// # Ok::<(), bnf_core::UcgError>(())
/// ```
#[derive(Debug)]
pub struct UcgAnalyzer {
    n: usize,
    edges: Vec<(usize, usize)>,
    rows: Vec<u64>,
    /// Per vertex: (owned-neighbour mask, admissible α interval) pairs
    /// sorted by mask (absent masks are infeasible at every α).
    tables: Vec<Vec<(u64, ClosedInterval)>>,
}

/// One byte lane per vertex of `G − i` (compressed index) or per
/// wish-set size: a distance, a distance sum, or [`UNREACHED`]. Bytes
/// are exact up to [`MAX_UCG_ORDER`]: a connected graph on 16 vertices
/// has no distance sum above `15 · 16 / 2 = 120`.
type Lanes = [u8; 16];

/// Lane value of an unreachable vertex or a disconnecting deviation.
const UNREACHED: u8 = u8::MAX;

#[inline]
fn lane_min(a: &Lanes, b: &Lanes) -> Lanes {
    std::array::from_fn(|k| a[k].min(b[k]))
}

/// Lane `v`: `1 + d_{G−i}(u, v)`, player `i`'s distance to `v` through
/// a link to `u`, by bitset BFS over the compressed adjacency `sub` of
/// `G − i`. Lanes past `sub.len()` stay 0 so they add nothing to a sum.
fn via_lanes(sub: &[u64], u: usize) -> Lanes {
    let mut lanes = [0u8; 16];
    lanes[..sub.len()].fill(UNREACHED);
    let mut seen = 1u64 << u;
    let mut frontier = seen;
    let mut d = 1u8;
    while frontier != 0 {
        let mut next = 0u64;
        let mut f = frontier;
        while f != 0 {
            let v = f.trailing_zeros() as usize;
            f &= f - 1;
            lanes[v] = d;
            next |= sub[v];
        }
        next &= !seen;
        seen |= next;
        frontier = next;
        d += 1;
    }
    lanes
}

/// Inserts a zero bit at position `i`, expanding a compressed
/// `(n-1)`-bit mask over `N \ {i}` to an `n`-bit vertex mask.
#[cfg(test)]
fn expand_mask(c: u64, i: usize) -> u64 {
    let low = c & ((1u64 << i) - 1);
    let high = c >> i;
    low | (high << (i + 1))
}

/// Inverse of [`expand_mask`] (bit `i` of `m` must be zero).
#[inline]
fn compress_mask(m: u64, i: usize) -> u64 {
    let low = m & ((1u64 << i) - 1);
    let high = m >> (i + 1);
    low | (high << i)
}

impl UcgAnalyzer {
    /// Builds the exact per-(vertex, owned set) best-response tables
    /// (module docs, steps 1–2): per vertex, `n − 1` bitset BFS in
    /// `G − i`, a subset-min DP and a ranked superset-min transform over
    /// one scratch table of `2^(n-1)` 16-byte lanes — allocated once per
    /// call (4 KiB at `n = 9`) — then at most `n` reads per owned set.
    ///
    /// # Errors
    ///
    /// Returns [`UcgError::OrderTooLarge`] when the order exceeds
    /// [`MAX_UCG_ORDER`] and [`UcgError::Disconnected`] for disconnected
    /// graphs.
    pub fn new(g: &Graph) -> Result<UcgAnalyzer, UcgError> {
        let n = g.order();
        if n > MAX_UCG_ORDER {
            return Err(UcgError::OrderTooLarge { order: n });
        }
        if !g.is_connected() {
            return Err(UcgError::Disconnected);
        }
        let rows: Vec<u64> = (0..n).map(|v| g.neighbor_bits(v)).collect();
        let edges: Vec<(usize, usize)> = g.edges().collect();
        let mut ranks: Vec<Lanes> = vec![[UNREACHED; 16]; if n == 0 { 0 } else { 1 << (n - 1) }];
        let tables = (0..n).map(|i| vertex_table(&rows, i, &mut ranks)).collect();
        Ok(UcgAnalyzer {
            n,
            edges,
            rows,
            tables,
        })
    }

    /// The exact α interval for which owning exactly the edges to
    /// `owned_mask` is a best response for player `i` (given all other
    /// purchases of the graph fixed), or `None` when some deviation
    /// dominates at every α.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `owned_mask` is not a subset of
    /// `i`'s neighbourhood.
    pub fn best_response_window(&self, i: usize, owned_mask: u64) -> Option<ClosedInterval> {
        assert!(i < self.n, "vertex {i} out of range");
        assert_eq!(
            owned_mask & !self.rows[i],
            0,
            "owned mask must be a neighbour subset"
        );
        self.tables[i]
            .binary_search_by_key(&owned_mask, |&(m, _)| m)
            .ok()
            .map(|idx| self.tables[i][idx].1)
    }

    /// Whether `g` is Nash-supportable at `alpha`: some orientation makes
    /// every player best-respond.
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 0`.
    pub fn is_nash_supportable(&self, alpha: Ratio) -> bool {
        self.find_orientation(alpha).is_some()
    }

    /// A witness orientation at `alpha` as `(buyer, other)` pairs, or
    /// `None` when the graph is not Nash-supportable at `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 0`.
    pub fn find_orientation(&self, alpha: Ratio) -> Option<Vec<(usize, usize)>> {
        let mut solver = OrientationSolver::new(&self.rows);
        if !solver.resolve(&self.tables, alpha) {
            return None;
        }
        let state = solver.search()?;
        Some(
            self.edges
                .iter()
                .map(|&(u, v)| {
                    if state.owned[u] >> v & 1 == 1 {
                        (u, v)
                    } else {
                        (v, u)
                    }
                })
                .collect(),
        )
    }

    /// The pre-propagation reference solver: edge-by-edge backtracking
    /// with per-vertex forward pruning, exactly the algorithm the
    /// propagating solver replaced. Kept as the independent oracle the
    /// equivalence tests certify [`UcgAnalyzer::find_orientation`]
    /// against over every small connected graph.
    #[cfg(test)]
    pub(crate) fn find_orientation_oracle(&self, alpha: Ratio) -> Option<Vec<(usize, usize)>> {
        assert!(alpha > Ratio::ZERO, "link cost must be positive");
        let allowed: Vec<Vec<u64>> = self
            .tables
            .iter()
            .map(|t| {
                t.iter()
                    .filter(|(_, iv)| iv.contains(alpha))
                    .map(|&(m, _)| m)
                    .collect()
            })
            .collect();
        if allowed.iter().any(Vec::is_empty) {
            return None;
        }
        let mut remaining = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            remaining[u] += 1;
            remaining[v] += 1;
        }
        let mut owned = vec![0u64; self.n];
        let mut decided = vec![0u64; self.n];
        let mut owners = Vec::with_capacity(self.edges.len());
        if self.assign(
            0,
            &allowed,
            &mut remaining,
            &mut owned,
            &mut decided,
            &mut owners,
        ) {
            Some(owners)
        } else {
            None
        }
    }

    #[cfg(test)]
    fn vertex_feasible(&self, allowed: &[Vec<u64>], v: usize, owned: u64, decided: u64) -> bool {
        allowed[v].iter().any(|&m| m & decided == owned)
    }

    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    fn assign(
        &self,
        idx: usize,
        allowed: &[Vec<u64>],
        remaining: &mut [usize],
        owned: &mut [u64],
        decided: &mut [u64],
        owners: &mut Vec<(usize, usize)>,
    ) -> bool {
        if idx == self.edges.len() {
            return true;
        }
        let (u, v) = self.edges[idx];
        for (buyer, other) in [(u, v), (v, u)] {
            owned[buyer] |= 1 << other;
            decided[u] |= 1 << v;
            decided[v] |= 1 << u;
            remaining[u] -= 1;
            remaining[v] -= 1;
            let ok = [u, v].into_iter().all(|w| {
                if remaining[w] == 0 {
                    allowed[w].contains(&owned[w])
                } else {
                    self.vertex_feasible(allowed, w, owned[w], decided[w])
                }
            });
            if ok && self.assign(idx + 1, allowed, remaining, owned, decided, owners) {
                owners.push((buyer, other));
                return true;
            }
            owned[buyer] &= !(1u64 << other);
            decided[u] &= !(1u64 << v);
            decided[v] &= !(1u64 << u);
            remaining[u] += 1;
            remaining[v] += 1;
        }
        false
    }

    /// The exact set of link costs at which the graph is
    /// Nash-supportable, as a union of disjoint closed intervals (last
    /// one possibly unbounded). Computed by sampling the finitely many
    /// interval endpoints of the best-response tables plus the midpoints
    /// between them — supportability is constant between consecutive
    /// endpoints.
    pub fn support_intervals(&self) -> Vec<ClosedInterval> {
        self.support_intervals_within(ClosedInterval::ALL)
    }

    /// [`UcgAnalyzer::support_intervals`] restricted to `clip` — for
    /// callers that already *know* the support set is contained in
    /// `clip` (e.g. the orientation-free necessary window of
    /// [`ucg_necessary_window`], which provably contains it). Probing is
    /// limited to the table endpoints inside `clip` plus `clip`'s own
    /// bounds, and a `clip` that is a single positive point is probed
    /// at that point alone. Each probe resolves its α once — the masks
    /// admissible there — and solves from scratch: no answer is carried
    /// from one probe to the next.
    ///
    /// With `clip` = [`ClosedInterval::ALL`] this is exactly
    /// [`UcgAnalyzer::support_intervals`]. With a proper `clip` the
    /// result equals the full support set **provided** the support set
    /// is contained in `clip`; callers violating that premise get the
    /// intersection-shaped subset only.
    pub fn support_intervals_within(&self, clip: ClosedInterval) -> Vec<ClosedInterval> {
        let probes = self.support_probes(clip);
        let unbounded = matches!(clip.hi, Threshold::Infinite);
        let mut solver = OrientationSolver::new(&self.rows);
        let status: Vec<bool> = probes
            .iter()
            .map(|&p| solver.resolve(&self.tables, p) && solver.search().is_some())
            .collect();
        // A run starting at the eps probe (present only when clip
        // reaches down to 0) extends down to 0 (exclusive — α must be
        // positive); report lo = 0. With a positive clip.lo the first
        // probe is clip.lo itself and the run genuinely starts there.
        let run_lo = |s: usize| {
            if s == 0 && clip.lo <= Ratio::ZERO {
                Ratio::ZERO
            } else {
                probes[s]
            }
        };
        let mut out: Vec<ClosedInterval> = Vec::new();
        let mut run_start: Option<usize> = None;
        for k in 0..probes.len() {
            match (status[k], run_start) {
                (true, None) => run_start = Some(k),
                (false, Some(s)) => {
                    out.push(ClosedInterval {
                        lo: run_lo(s),
                        hi: Threshold::Finite(probes[k - 1]),
                    });
                    run_start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = run_start {
            // A run still open at the last probe: unbounded when the
            // probe sequence ran past every endpoint, capped at clip's
            // (inclusive) upper bound otherwise.
            let hi = if unbounded {
                Threshold::Infinite
            } else {
                Threshold::Finite(*probes.last().expect("nonempty"))
            };
            out.push(ClosedInterval { lo: run_lo(s), hi });
        }
        out
    }

    /// The α probes of [`UcgAnalyzer::support_intervals_within`]:
    /// supportability only flips at table endpoints, so the sequence is
    /// a point below every endpoint (supportability there means "all
    /// α > 0 up to the first endpoint"; skipped when `clip` starts above
    /// zero — its lower bound is already the first endpoint), each
    /// endpoint inside `clip` and `clip`'s own positive bounds, the
    /// midpoints between neighbours, and — when `clip` is unbounded
    /// above — one point beyond the largest endpoint.
    ///
    /// A single positive point `clip` yields that point alone without
    /// reading the tables: every endpoint inside it equals the point, and
    /// there is no point below it or beyond it.
    fn support_probes(&self, clip: ClosedInterval) -> Vec<Ratio> {
        if clip.lo > Ratio::ZERO && clip.hi == Threshold::Finite(clip.lo) {
            return vec![clip.lo];
        }
        let mut endpoints: Vec<Ratio> = Vec::new();
        for t in &self.tables {
            for (_, iv) in t.iter() {
                if iv.lo > Ratio::ZERO && clip.contains(iv.lo) {
                    endpoints.push(iv.lo);
                }
                if let Threshold::Finite(h) = iv.hi {
                    if h > Ratio::ZERO && clip.contains(h) {
                        endpoints.push(h);
                    }
                }
            }
        }
        if clip.lo > Ratio::ZERO {
            endpoints.push(clip.lo);
        }
        if let Threshold::Finite(h) = clip.hi {
            if h > Ratio::ZERO {
                endpoints.push(h);
            }
        }
        if endpoints.is_empty() {
            endpoints.push(Ratio::new(1, 2)); // ensure at least one probe
        }
        endpoints.sort();
        endpoints.dedup();
        let mut probes: Vec<Ratio> = Vec::with_capacity(endpoints.len() * 2 + 2);
        if clip.lo <= Ratio::ZERO {
            probes.push(endpoints[0] / Ratio::from(2));
        }
        for (k, &e) in endpoints.iter().enumerate() {
            if k > 0 {
                probes.push(Ratio::midpoint(endpoints[k - 1], e));
            }
            probes.push(e);
        }
        if matches!(clip.hi, Threshold::Infinite) {
            probes.push(*endpoints.last().expect("nonempty") + Ratio::ONE);
        }
        probes.retain(|&p| p > Ratio::ZERO);
        probes
    }
}

/// A partial orientation: per vertex, which incident edges are decided
/// and which of those the vertex itself owns (bit masks over
/// neighbours), plus how many admissible masks agreed with it when the
/// vertex was last folded. Fixed-size, so a branch is a plain copy.
#[derive(Debug, Clone, Copy)]
struct OrientationState {
    owned: [u64; MAX_UCG_ORDER],
    decided: [u64; MAX_UCG_ORDER],
    count: [u32; MAX_UCG_ORDER],
}

impl OrientationState {
    /// Orients one undecided edge: `buyer` purchases the edge to
    /// `other`.
    #[inline]
    fn orient(&mut self, buyer: usize, other: usize) {
        self.owned[buyer] |= 1 << other;
        self.decided[buyer] |= 1 << other;
        self.decided[other] |= 1 << buyer;
    }
}

/// The propagating orientation solver (see the module docs, step 3).
///
/// Solving one α takes two calls: resolve the admissible masks into one
/// flat buffer — [`OrientationSolver::resolve`] from an analyzer's
/// tables, or [`point_supportable`] straight from distance sums — then
/// [`OrientationSolver::search`], which compares masks only and
/// allocates nothing per node. A solver is reused across the probes of
/// one [`UcgAnalyzer::support_intervals_within`] call for its buffer
/// alone; no answer carries over from one probe to the next.
struct OrientationSolver {
    n: usize,
    rows: [u64; MAX_UCG_ORDER],
    /// The masks admissible at the current α, vertex `v`'s in
    /// `masks[start[v]..start[v + 1]]`, in increasing mask order.
    masks: Vec<u64>,
    start: [usize; MAX_UCG_ORDER + 1],
}

impl OrientationSolver {
    fn new(rows: &[u64]) -> Self {
        let mut fixed = [0; MAX_UCG_ORDER];
        fixed[..rows.len()].copy_from_slice(rows);
        OrientationSolver {
            n: rows.len(),
            rows: fixed,
            masks: Vec::new(),
            start: [0; MAX_UCG_ORDER + 1],
        }
    }

    /// Resolves `alpha` against best-response `tables`: per vertex, the
    /// owned masks whose interval contains it. `false` when some vertex
    /// has none — the graph is refuted at `alpha` without a search.
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 0`.
    fn resolve(&mut self, tables: &[Vec<(u64, ClosedInterval)>], alpha: Ratio) -> bool {
        assert!(alpha > Ratio::ZERO, "link cost must be positive");
        self.masks.clear();
        for (v, table) in tables.iter().enumerate() {
            let admissible = table.iter().filter(|(_, iv)| iv.contains(alpha));
            self.masks.extend(admissible.map(|&(m, _)| m));
            if !self.close_vertex(v) {
                return false;
            }
        }
        true
    }

    /// Ends vertex `v`'s run of admissible masks: those pushed since
    /// vertex `v − 1`'s closed. `false` when the run is empty — no owned
    /// set of `v` is a best response.
    #[inline]
    fn close_vertex(&mut self, v: usize) -> bool {
        self.start[v + 1] = self.masks.len();
        self.start[v + 1] > self.start[v]
    }

    /// A supporting orientation over the resolved masks, or `None`.
    fn search(&self) -> Option<OrientationState> {
        let mut state = OrientationState {
            owned: [0; MAX_UCG_ORDER],
            decided: [0; MAX_UCG_ORDER],
            count: [0; MAX_UCG_ORDER],
        };
        let every_vertex = (1u64 << self.n) - 1;
        self.branch(&mut state, every_vertex).then_some(state)
    }

    /// `v`'s admissible masks consistent with the partial orientation
    /// (`m & decided == owned`), folded into their count, union and
    /// intersection.
    #[inline]
    fn fold(&self, v: usize, state: &OrientationState) -> (u32, u64, u64) {
        let (owned, decided) = (state.owned[v], state.decided[v]);
        let mut count = 0u32;
        let mut union = 0u64;
        let mut inter = !0u64;
        for &m in &self.masks[self.start[v]..self.start[v + 1]] {
            if m & decided == owned {
                count += 1;
                union |= m;
                inter &= m;
            }
        }
        (count, union, inter)
    }

    /// Unit-literal propagation to fixpoint. Per vertex the consistent
    /// admissible masks are folded into an intersection and a union over
    /// the undecided bits: a bit in every mask is a forced purchase by
    /// the vertex, a bit in none is a forced purchase by the other
    /// endpoint. Returns `false` on a refuted vertex (no consistent
    /// mask).
    ///
    /// Passes run over the vertices in index order, folding only the
    /// `dirty` ones — those whose edges another vertex oriented since
    /// their last fold. Skipping the rest changes nothing: a vertex's
    /// own forced orientations keep exactly the masks it folded, so a
    /// second fold would force nothing and count the same.
    fn propagate(&self, state: &mut OrientationState, mut dirty: u64) -> bool {
        while dirty != 0 {
            for v in 0..self.n {
                if dirty >> v & 1 == 0 {
                    continue;
                }
                dirty &= !(1u64 << v);
                let (count, union, inter) = self.fold(v, state);
                if count == 0 {
                    return false;
                }
                state.count[v] = count;
                let und = self.rows[v] & !state.decided[v];
                let mut must = inter & und; // v buys these or nothing fits
                let mut cant = und & !union; // v never buys: the other end must
                dirty |= must | cant;
                while must != 0 {
                    state.orient(v, must.trailing_zeros() as usize);
                    must &= must - 1;
                }
                while cant != 0 {
                    state.orient(cant.trailing_zeros() as usize, v);
                    cant &= cant - 1;
                }
            }
        }
        true
    }

    /// Propagate from the `dirty` vertices, then branch fail-first on an
    /// undecided edge of the vertex with the fewest consistent admissible
    /// masks.
    fn branch(&self, state: &mut OrientationState, dirty: u64) -> bool {
        if !self.propagate(state, dirty) {
            return false;
        }
        // Most-constrained undecided vertex (fail-first ordering); at the
        // fixpoint every vertex's last fold count is current.
        let mut pick: Option<(u32, usize)> = None; // (mask count, vertex)
        for v in 0..self.n {
            if self.rows[v] & !state.decided[v] == 0 {
                continue;
            }
            let count = state.count[v];
            if pick.is_none_or(|(c, _)| count < c) {
                pick = Some((count, v));
            }
        }
        let Some((_, v)) = pick else {
            return true; // every edge decided and every vertex feasible
        };
        let b = (self.rows[v] & !state.decided[v]).trailing_zeros() as usize;
        for (buyer, other) in [(v, b), (b, v)] {
            let mut child = *state;
            child.orient(buyer, other);
            if self.branch(&mut child, 1u64 << buyer | 1u64 << other) {
                *state = child;
                return true;
            }
        }
        false
    }
}

/// Step 1 for player `i`: afterwards `ranks[R]` lane `v` is `i`'s
/// distance to `v` of `G − i` with row `R` — `1 + min_{u ∈ R}
/// d_{G−i}(u, v)` — for every row `R ⊆ N \ {i}`, indexed by compressed
/// masks: `n − 1` bitset BFS, then the subset-min DP.
fn reach_lanes(rows: &[u64], i: usize, ranks: &mut [Lanes]) {
    let n = rows.len();
    let m = n - 1;
    // Adjacency of G − i over compressed indices.
    let mut sub = [0u64; MAX_UCG_ORDER];
    for v in (0..n).filter(|&v| v != i) {
        sub[v - usize::from(v > i)] = compress_mask(rows[v] & !(1u64 << i), i);
    }
    let sub = &sub[..m];
    let mut via = [[0u8; 16]; MAX_UCG_ORDER];
    for (u, lanes) in via.iter_mut().enumerate().take(m) {
        *lanes = via_lanes(sub, u);
    }
    subset_min(ranks, &via[..m]);
}

/// The distance sum `D_i(R)` of one row's lanes, or `None` for a
/// disconnecting row. At most 15 lanes of at most 15 each unless some
/// lane is [`UNREACHED`], so the sum alone tells the two apart.
#[inline]
fn distance_sum(lanes: &Lanes) -> Option<u32> {
    let sum: u32 = lanes.iter().map(|&x| u32::from(x)).sum();
    (sum < u32::from(UNREACHED)).then_some(sum)
}

/// Player `i`'s best-response table: `(owned mask, admissible α)` for
/// every owned set with a nonempty interval, in increasing mask order.
/// `ranks` is the `2^(n-1)`-entry scratch table, indexed by compressed
/// rows over `N \ {i}`.
fn vertex_table(rows: &[u64], i: usize, ranks: &mut [Lanes]) -> Vec<(u64, ClosedInterval)> {
    let n = rows.len();
    reach_lanes(rows, i, ranks);
    // Distance sums D_i(R), each in the lane of its row size |R|; then
    // the ranked superset-min transform in place. Ranking by |T| rather
    // than |T \ K| makes every step a plain lane-wise min, and afterwards
    // ranks[K][t] = min D_i(T) over T ⊇ K with |T| = t.
    for (c, r) in ranks.iter_mut().enumerate() {
        let sum = distance_sum(r);
        *r = [UNREACHED; 16];
        r[c.count_ones() as usize] = sum.map_or(UNREACHED, |s| s as u8);
    }
    superset_min(ranks, n - 1);
    let row = rows[i];
    let d_cur = ranks[compress_mask(row, i) as usize][row.count_ones() as usize];
    assert_ne!(d_cur, UNREACHED, "connected graph has finite sums");
    // Owned subsets O of N(i) in increasing order (ascending submask
    // enumeration). Wish sets range over S disjoint from `keep`, the
    // neighbours whose edges others buy: wishing for an edge i already
    // has costs α for the identical graph, so those constraints are
    // dominated.
    submasks(row as usize)
        .map(|o| o as u64)
        .filter_map(|o| {
            let keep = row & !o;
            let by_size = &ranks[compress_mask(keep, i) as usize][keep.count_ones() as usize..n];
            ranked_interval(by_size, o.count_ones() as usize, d_cur).map(|iv| (o, iv))
        })
        .collect()
}

/// Player `i`'s owned sets that are best responses at the integer link
/// cost `a`, pushed onto `out` in increasing mask order — the point
/// branch of the module docs. `W_i[K]` is only ever read at
/// `K ⊆ N(i)`, so it is built in two passes over compressed rows: first
/// `least[K] = min D_i(R) + a·|R|` over the rows `R` with
/// `R ∩ N(i) = K` (one visit per row), then a superset-min over the
/// `deg(i)` neighbour bits alone. `ranks` and `least` are
/// `2^(n-1)`-entry scratch tables indexed by compressed rows over
/// `N \ {i}`; `least` is read and written at `K ⊆ N(i)` only.
fn point_masks(
    rows: &[u64],
    i: usize,
    a: u32,
    ranks: &mut [Lanes],
    least: &mut [u32],
    out: &mut Vec<u64>,
) {
    reach_lanes(rows, i, ranks);
    let row = rows[i];
    let nbr = compress_mask(row, i) as usize;
    let others = (ranks.len() - 1) & !nbr;
    let threshold =
        distance_sum(&ranks[nbr]).expect("connected graph has finite sums") + a * row.count_ones();
    // Rows R = K ∪ X, K ⊆ N(i) and X outside it: the a·|X| share is
    // added per X, the a·|K| share once per K afterwards. u32::MAX
    // stands for "every row over K disconnects".
    least[..=nbr].fill(u32::MAX);
    for x in submasks(others) {
        let ax = a * x.count_ones();
        for k in submasks(nbr) {
            if let Some(d) = distance_sum(&ranks[k | x]) {
                least[k] = least[k].min(d + ax);
            }
        }
    }
    for k in submasks(nbr) {
        least[k] = least[k].saturating_add(a * k.count_ones());
    }
    let mut bits = nbr;
    while bits != 0 {
        let b = bits & bits.wrapping_neg();
        bits &= bits - 1;
        for k in submasks(nbr & !b) {
            least[k] = least[k].min(least[k | b]);
        }
    }
    // Now least[K] = W_i[K] for every K ⊆ N(i). Submasks of N(i) and of
    // its compressed form ascend in lock step, so `c` is O compressed.
    for (o, c) in submasks(row as usize).zip(submasks(nbr)) {
        if least[nbr ^ c] >= threshold {
            out.push(o as u64);
        }
    }
}

/// The submasks of `mask` in increasing order, `0` and `mask` included.
fn submasks(mask: usize) -> impl Iterator<Item = usize> {
    let mut next = Some(0);
    std::iter::from_fn(move || {
        let k = next?;
        next = (k != mask).then(|| k.wrapping_sub(mask) & mask);
        Some(k)
    })
}

/// Whether connected `g` is Nash-supportable at the integer link cost
/// `a > 0`, by the point branch: each vertex's [`point_masks`] go
/// straight into the solver's buffer — a vertex without one refutes
/// the graph — and the propagating search runs once.
fn point_supportable(g: &Graph, a: u32) -> bool {
    let n = g.order();
    let rows: Vec<u64> = (0..n).map(|v| g.neighbor_bits(v)).collect();
    let mut ranks: Vec<Lanes> = vec![[UNREACHED; 16]; 1 << (n - 1)];
    let mut least = vec![0u32; 1 << (n - 1)];
    let mut solver = OrientationSolver::new(&rows);
    for i in 0..n {
        point_masks(&rows, i, a, &mut ranks, &mut least, &mut solver.masks);
        if !solver.close_vertex(i) {
            return false;
        }
    }
    solver.search().is_some()
}

/// Every vertex's [`point_masks`] at `a`, for the equivalence suite
/// (no early exit on a vertex without masks).
#[cfg(test)]
pub(crate) fn point_masks_per_vertex(g: &Graph, a: u32) -> Vec<Vec<u64>> {
    let n = g.order();
    let rows: Vec<u64> = (0..n).map(|v| g.neighbor_bits(v)).collect();
    let half = 1 << n.saturating_sub(1);
    let mut ranks: Vec<Lanes> = vec![[UNREACHED; 16]; half];
    let mut least = vec![0u32; half];
    (0..n)
        .map(|i| {
            let mut masks = Vec::new();
            point_masks(&rows, i, a, &mut ranks, &mut least, &mut masks);
            masks
        })
        .collect()
}

/// The exact support set of connected `g` from its necessary window
/// `nec`, which contains it — what a window record stores. A single
/// positive integer point `a` takes the point branch (module docs) and
/// yields `[a, a]` or nothing, exactly as
/// [`UcgAnalyzer::support_intervals_within`] would; any other window
/// builds the analyzer and probes its tables.
///
/// # Panics
///
/// Panics if `g` is disconnected or exceeds [`MAX_UCG_ORDER`].
pub(crate) fn support_within_necessary(g: &Graph, nec: ClosedInterval) -> Vec<ClosedInterval> {
    let point = nec.lo > Ratio::ZERO && nec.hi == Threshold::Finite(nec.lo);
    if !(point && nec.lo.is_integer() && g.order() <= MAX_UCG_ORDER) {
        return UcgAnalyzer::new(g)
            .expect("connected graph within the UCG order bound")
            .support_intervals_within(nec);
    }
    // A distance delta: at most 120 within the order bound.
    let a = u32::try_from(nec.lo.numer()).expect("necessary bound fits u32");
    if point_supportable(g, a) {
        vec![nec]
    } else {
        Vec::new()
    }
}

/// Subset-min DP, doubling over the vertices of `G − i`: a row `R ∪ {b}`
/// reaches each vertex the cheaper way of `R` or of a link to `b`, so
/// `ranks[R]` lane `v` ends as `1 + min_{u ∈ R} d_{G−i}(u, v)`: one
/// byte-wise min per row.
fn subset_min(ranks: &mut [Lanes], via: &[Lanes]) {
    ranks[0] = [0; 16];
    ranks[0][..via.len()].fill(UNREACHED);
    for (b, via) in via.iter().enumerate() {
        let (done, next) = ranks.split_at_mut(1 << b);
        for (t, r) in next.iter_mut().zip(done.iter()) {
            *t = lane_min(r, via);
        }
    }
}

/// Superset-min over the `m` row bits: afterwards each `ranks[K]`
/// holds the lane-wise min over every `ranks[T]`, `T ⊇ K`:
/// `m · 2^(m-1)` byte-wise mins.
fn superset_min(ranks: &mut [Lanes], m: usize) {
    for b in 0..m {
        for block in ranks.chunks_exact_mut(2 << b) {
            let (without, with) = block.split_at_mut(1 << b);
            for (k, t) in without.iter_mut().zip(with.iter()) {
                *k = lane_min(k, t);
            }
        }
    }
}

/// Folds the Nash constraints of one `(vertex, owned set)` pair into an
/// admissible-α interval. `by_size[s]` is the cheapest distance sum
/// over wish sets of size `s` ([`UNREACHED`] when every one
/// disconnects), `k = |owned|` and `d_cur` the current sum: per size,
/// the cheapest wish set is the binding constraint.
///
/// This is the hot loop of the analyzer build — one call per owned
/// subset of every neighbourhood, at most `n` reads each. Bounds stay
/// raw `(numerator, denominator)` pairs compared by cross-multiplication
/// (sums ≤ 120 and sizes ≤ 15: exact in `i64`) until
/// [`bounds_interval`].
fn ranked_interval(by_size: &[u8], k: usize, d_cur: u8) -> Option<ClosedInterval> {
    let d_cur = i64::from(d_cur);
    // Fewer wishes than owned links: need α ≤ (D_s − D_cur) / (k − s).
    let mut hi: Option<(i64, i64)> = None;
    for (s, &d_s) in by_size[..k].iter().enumerate() {
        if d_s != UNREACHED {
            let cand = (i64::from(d_s) - d_cur, (k - s) as i64);
            if hi.is_none_or(|h| cand.0 * h.1 < h.0 * cand.1) {
                hi = Some(cand);
            }
        }
    }
    // As many wishes: a strictly cheaper rewiring dominates at every α.
    if i64::from(by_size[k]) < d_cur {
        return None;
    }
    // More wishes: need α ≥ (D_cur − D_s) / (s − k).
    let mut lo = (0i64, 1i64);
    for (extra, &d_s) in (1i64..).zip(&by_size[k + 1..]) {
        if d_s != UNREACHED && (d_cur - i64::from(d_s)) * lo.1 > lo.0 * extra {
            lo = (d_cur - i64::from(d_s), extra);
        }
    }
    bounds_interval(lo, hi)
}

/// The closed interval `[max(0, lo), hi]` of raw `(numerator,
/// denominator)` bound pairs (positive denominators), or `None` when it
/// is empty. Emptiness is decided on the raw pairs, so only surviving
/// intervals pay for `Ratio` normalization (a gcd each).
fn bounds_interval(lo: (i64, i64), hi: Option<(i64, i64)>) -> Option<ClosedInterval> {
    let lo = if lo.0 <= 0 { (0, 1) } else { lo };
    if hi.is_some_and(|h| h.0 * lo.1 < lo.0 * h.1) {
        return None;
    }
    Some(ClosedInterval {
        lo: Ratio::new(lo.0, lo.1),
        hi: hi.map_or(Threshold::Infinite, |h| {
            Threshold::Finite(Ratio::new(h.0, h.1))
        }),
    })
}

/// The pre-transform tables, kept as the independent oracle of
/// [`vertex_table`]: one BFS per effective row `R ⊆ N \ {i}` and a fold
/// over every wish set `S` of every owned set.
#[cfg(test)]
pub(crate) fn best_response_tables_oracle(g: &Graph) -> Vec<Vec<(u64, ClosedInterval)>> {
    let n = g.order();
    let rows: Vec<u64> = (0..n).map(|v| g.neighbor_bits(v)).collect();
    let half = if n == 0 { 0 } else { 1u64 << (n - 1) };
    let mut tables = Vec::with_capacity(n);
    let mut dist: Vec<u64> = vec![u64::MAX; half as usize];
    for i in 0..n {
        for c in 0..half {
            dist[c as usize] =
                crate::delta::distsum_with_row(&rows, n, i, expand_mask(c, i)).unwrap_or(u64::MAX);
        }
        let row = rows[i];
        let d_cur = dist[compress_mask(row, i) as usize];
        let mut table: Vec<(u64, ClosedInterval)> = Vec::new();
        let mut o = row;
        loop {
            let keep_c = compress_mask(row & !o, i);
            let comp = (half - 1) & !keep_c;
            if let Some(iv) =
                best_response_interval(&dist, keep_c, comp, i64::from(o.count_ones()), d_cur)
            {
                table.push((o, iv));
            }
            if o == 0 {
                break;
            }
            o = (o - 1) & row;
        }
        table.sort_unstable_by_key(|&(m, _)| m);
        tables.push(table);
    }
    tables
}

/// Folds the Nash constraints of one `(vertex, owned set)` pair into an
/// admissible-α interval. `keep_c` is the compressed mask of neighbours
/// whose edges others buy, `comp` the compressed complement the wish
/// sets range over, `k = |owned|`, and `dist` the tabulated distance
/// sums (`u64::MAX` = disconnecting deviation). The oracle of
/// [`ranked_interval`].
#[cfg(test)]
fn best_response_interval(
    dist: &[u64],
    keep_c: u64,
    comp: u64,
    k: i64,
    d_cur: u64,
) -> Option<ClosedInterval> {
    // Bounds are tracked as raw numerator/denominator pairs compared by
    // cross-multiplication (exact in i128) and normalized into `Ratio`
    // (one gcd) only once at the end, instead of per deviation.
    let mut lo = (0i64, 1i64); // max(0, -diff/coeff) over coeff > 0
    let mut hi: Option<(i64, i64)> = None; // min of diff/-coeff over coeff < 0; None = ∞
    let mut c = comp;
    loop {
        let d_s = dist[(keep_c | c) as usize];
        if d_s == u64::MAX {
            // Disconnecting deviation: infinite cost, never better.
            if c == 0 {
                break;
            }
            c = (c - 1) & comp;
            continue;
        }
        let m = i64::from(c.count_ones());
        let diff = d_s as i64 - d_cur as i64; // distance change of deviation
        let coeff = m - k; // α-units change of deviation
        match coeff.cmp(&0) {
            std::cmp::Ordering::Greater => {
                // need α ≥ -diff / coeff
                if i128::from(-diff) * i128::from(lo.1) > i128::from(lo.0) * i128::from(coeff) {
                    lo = (-diff, coeff);
                }
            }
            std::cmp::Ordering::Less => {
                // need α ≤ diff / (-coeff)
                let cand = (diff, -coeff);
                if hi.is_none_or(|h| {
                    i128::from(cand.0) * i128::from(h.1) < i128::from(h.0) * i128::from(cand.1)
                }) {
                    hi = Some(cand);
                }
            }
            std::cmp::Ordering::Equal => {
                if diff < 0 {
                    return None; // strictly dominating deviation at all α
                }
            }
        }
        if c == 0 {
            break;
        }
        c = (c - 1) & comp;
    }
    let lo = if lo.0 <= 0 {
        Ratio::ZERO
    } else {
        Ratio::new(lo.0, lo.1)
    };
    match hi {
        Some(h) => {
            let h = Ratio::new(h.0, h.1);
            if h < lo {
                None
            } else {
                Some(ClosedInterval {
                    lo,
                    hi: Threshold::Finite(h),
                })
            }
        }
        None => Some(ClosedInterval {
            lo,
            hi: Threshold::Infinite,
        }),
    }
}

/// Orientation-free necessary bounds for UCG Nash-supportability — the
/// cheap pre-filter ("fast checks to rule out inadmissible topologies",
/// Section 5 footnote): every single-link addition must be unprofitable
/// for *both* endpoints (`α ≥ max(Δ_u, Δ_v)` per missing link — contrast
/// the BCG's `min`), and every edge must admit *some* owner who keeps it
/// (`α ≤ max(Δdrop_u, Δdrop_v)` per edge).
///
/// Returns `None` when no positive α passes, which proves the graph is
/// not Nash-supportable at any α. A returned interval is necessary, not
/// sufficient.
pub fn ucg_necessary_window(g: &Graph) -> Option<ClosedInterval> {
    let mut scratch = BfsScratch::new();
    ucg_necessary_window_with(g, &mut scratch)
}

/// [`ucg_necessary_window`] with caller-provided BFS buffers (used for
/// orders above 64; smaller graphs run on adjacency bit rows): the UCG
/// part of the one pass over single-link deltas.
pub fn ucg_necessary_window_with(g: &Graph, scratch: &mut BfsScratch) -> Option<ClosedInterval> {
    link_windows(g, scratch).and_then(|w| w.necessary)
}

/// The pre-table window body: one [`DeltaCalc`] query per endpoint,
/// kept as the independent oracle of [`ucg_necessary_window_with`].
#[cfg(test)]
pub(crate) fn necessary_window_oracle(g: &Graph) -> Option<ClosedInterval> {
    if !g.is_connected() {
        return None;
    }
    let mut calc = DeltaCalc::new(g);
    let mut lo = Ratio::ZERO;
    for (u, v) in g.non_edges().collect::<Vec<_>>() {
        for (a, b) in [(u, v), (v, u)] {
            match calc.add_delta(a, b) {
                DistanceDelta::Infinite => return None,
                DistanceDelta::Finite(t) => lo = Ratio::max(lo, Ratio::from(t as i64)),
            }
        }
    }
    let mut hi = Threshold::Infinite;
    for (u, v) in g.edges().collect::<Vec<_>>() {
        let du = calc.drop_delta(u, v);
        let dv = calc.drop_delta(v, u);
        let edge_cap = match (du, dv) {
            (DistanceDelta::Infinite, _) | (_, DistanceDelta::Infinite) => Threshold::Infinite,
            (DistanceDelta::Finite(a), DistanceDelta::Finite(b)) => {
                Threshold::Finite(Ratio::from(a.max(b) as i64))
            }
        };
        hi = Threshold::min(hi, edge_cap);
    }
    match hi {
        Threshold::Finite(h) if h < lo => None,
        _ => Some(ClosedInterval { lo, hi }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::{assert_solver_matches_oracle, table_probes};

    fn r(n: i64) -> Ratio {
        Ratio::from(n)
    }

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    fn star(n: usize) -> Graph {
        Graph::from_edges(n, (1..n).map(|i| (0, i))).unwrap()
    }

    #[test]
    fn mask_compress_expand_roundtrip() {
        for i in 0..8 {
            for c in 0..128u64 {
                let m = expand_mask(c, i);
                assert_eq!(m >> i & 1, 0);
                assert_eq!(compress_mask(m, i), c);
            }
        }
    }

    #[test]
    fn star_supportable_from_one() {
        let ucg = UcgAnalyzer::new(&star(6)).unwrap();
        assert!(!ucg.is_nash_supportable(Ratio::new(9, 10)));
        assert!(ucg.is_nash_supportable(r(1)));
        assert!(ucg.is_nash_supportable(r(7)));
        let ivs = ucg.support_intervals();
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].lo, r(1));
        assert_eq!(ivs[0].hi, Threshold::Infinite);
    }

    #[test]
    fn complete_supportable_up_to_one() {
        // K_n is Nash for α ≤ 1 (dropping an owned edge saves α, costs 1
        // hop) and for α ≤ 2 via ... no: adding is never profitable in
        // K_n; the binding move is dropping. At α slightly above 1 a
        // buyer drops its edge.
        let ucg = UcgAnalyzer::new(&Graph::complete(5)).unwrap();
        assert!(ucg.is_nash_supportable(Ratio::new(1, 2)));
        assert!(ucg.is_nash_supportable(r(1)));
        assert!(!ucg.is_nash_supportable(Ratio::new(3, 2)));
    }

    #[test]
    fn cycle6_never_supportable() {
        // Footnote 5 of the paper: C_n for n > 5 is not Nash-supportable
        // in the UCG (node 0 re-links to node 2 instead), yet it is
        // pairwise stable in the BCG.
        let ucg = UcgAnalyzer::new(&cycle(6)).unwrap();
        assert!(ucg.support_intervals().is_empty());
        for num in 1..30 {
            assert!(
                !ucg.is_nash_supportable(Ratio::new(num, 2)),
                "alpha={num}/2"
            );
        }
    }

    #[test]
    fn cycle5_supportable_somewhere() {
        // C5 *is* Nash-supportable for a window of α (each player buys
        // its clockwise edge).
        let ucg = UcgAnalyzer::new(&cycle(5)).unwrap();
        let ivs = ucg.support_intervals();
        assert!(!ivs.is_empty(), "C5 should be Nash for some alpha");
        let any = ivs[0].lo;
        assert!(ucg.is_nash_supportable(Ratio::max(any, Ratio::new(1, 2))));
    }

    #[test]
    fn path_supportable_for_large_alpha() {
        let p4 = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let ucg = UcgAnalyzer::new(&p4).unwrap();
        // At α ≥ 2 no one wants extra links; severing disconnects.
        assert!(ucg.is_nash_supportable(r(2)));
        assert!(ucg.is_nash_supportable(r(400)));
        // At α = 1/2, endpoints buy shortcuts: not Nash.
        assert!(!ucg.is_nash_supportable(Ratio::new(1, 2)));
    }

    #[test]
    fn orientation_witness_is_valid() {
        let g = star(5);
        let ucg = UcgAnalyzer::new(&g).unwrap();
        let owners = ucg.find_orientation(r(2)).expect("star is Nash at 2");
        assert_eq!(owners.len(), g.edge_count());
        // The witness must cover the edge set exactly once — the
        // StrategyProfile constructor re-validates this.
        let profile = bnf_games::StrategyProfile::supporting_unilateral(&g, &owners);
        assert_eq!(profile.induced_graph(bnf_games::GameKind::Unilateral), g);
    }

    #[test]
    fn necessary_window_filters() {
        // C6 necessary window is empty or misses its BCG window entirely:
        // adding the antipodal chord helps both ends by 2, so α ≥ 2; but
        // each edge's drop delta is 6 ≥ ... the necessary window is
        // [2, 6] — nonempty! (necessary ≠ sufficient; the exact solver
        // says never.) The star's necessary window is [1, ∞).
        let w = ucg_necessary_window(&cycle(6)).unwrap();
        assert_eq!(w.lo, r(2));
        assert_eq!(w.hi, Threshold::Finite(r(6)));
        let ws = ucg_necessary_window(&star(7)).unwrap();
        assert_eq!(ws.lo, r(1));
        assert_eq!(ws.hi, Threshold::Infinite);
        assert_eq!(ucg_necessary_window(&Graph::empty(3)), None);
    }

    #[test]
    fn necessary_window_contains_exact_support() {
        for g in [star(5), cycle(5), Graph::complete(5), cycle(4)] {
            let necessary = ucg_necessary_window(&g);
            let ucg = UcgAnalyzer::new(&g).unwrap();
            for iv in ucg.support_intervals() {
                let nec = necessary.expect("supportable graph passes necessary check");
                assert!(nec.contains(iv.lo), "{g:?}: lo {} outside {nec}", iv.lo);
                if let Threshold::Finite(h) = iv.hi {
                    assert!(nec.contains(h), "{g:?}: hi {h} outside {nec}");
                }
            }
        }
    }

    #[test]
    fn clipped_support_matches_unclipped() {
        // For every graph whose support set sits inside its necessary
        // window (a theorem; cross-checked in
        // `necessary_window_contains_exact_support`), clipping the probe
        // sequence to that window must not change the answer.
        let p4 = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let theta =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]).unwrap();
        for g in [
            star(5),
            star(7),
            cycle(4),
            cycle(5),
            cycle(6),
            Graph::complete(5),
            p4,
            theta,
        ] {
            let nec = ucg_necessary_window(&g);
            let ucg = UcgAnalyzer::new(&g).unwrap();
            let full = ucg.support_intervals();
            match nec {
                None => assert!(full.is_empty(), "{g:?}: no necessary window"),
                Some(nec) => {
                    assert_eq!(
                        ucg.support_intervals_within(nec),
                        full,
                        "{g:?}: clip {nec} changed the support set"
                    );
                }
            }
            // Clipping to ALL is the identity by construction.
            assert_eq!(ucg.support_intervals_within(ClosedInterval::ALL), full);
        }
    }

    #[test]
    fn propagating_solver_matches_oracle_exhaustively() {
        // Every connected graph on up to 7 vertices: identical
        // supportability at every best-response table endpoint cell,
        // and valid witnesses.
        for n in 2..=7 {
            for g in bnf_enumerate::connected_graphs(n) {
                assert_solver_matches_oracle(&g);
            }
        }
    }

    #[test]
    fn propagating_solver_matches_oracle_on_named_graphs() {
        // The named atlas exhibits within the solver's practical order:
        // Petersen, the octahedron and the 8-star.
        let petersen = {
            let mut e = Vec::new();
            for i in 0..5 {
                e.push((i, (i + 1) % 5));
                e.push((5 + i, 5 + (i + 2) % 5));
                e.push((i, 5 + i));
            }
            Graph::from_edges(10, e).unwrap()
        };
        let octahedron = Graph::from_edges(
            6,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (0, 4),
                (0, 5),
                (1, 3),
                (1, 5),
                (2, 3),
                (2, 4),
            ],
        )
        .unwrap();
        for g in [petersen, octahedron, star(8), cycle(8)] {
            assert_solver_matches_oracle(&g);
        }
    }

    #[test]
    fn support_intervals_unchanged_by_solver_rewrite() {
        // The support sets of every small connected graph, re-derived
        // probe by probe with the oracle, must equal the intervals the
        // propagating path reports.
        for n in 2..=6 {
            for g in bnf_enumerate::connected_graphs(n) {
                let ucg = UcgAnalyzer::new(&g).unwrap();
                let ivs = ucg.support_intervals();
                for p in table_probes(&ucg, &g) {
                    let in_support = ivs.iter().any(|iv| iv.contains(p));
                    assert_eq!(
                        in_support,
                        ucg.find_orientation_oracle(p).is_some(),
                        "{g:?} at alpha={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_vertices() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let ucg = UcgAnalyzer::new(&g).unwrap();
        // One player buys the edge; severing disconnects: Nash for all α.
        assert!(ucg.is_nash_supportable(r(1)));
        assert!(ucg.is_nash_supportable(r(1000)));
    }

    #[test]
    fn out_of_domain_graphs_get_typed_errors() {
        assert_eq!(
            UcgAnalyzer::new(&Graph::empty(3)).unwrap_err(),
            UcgError::Disconnected
        );
        let big = star(MAX_UCG_ORDER + 1);
        assert_eq!(
            UcgAnalyzer::new(&big).unwrap_err(),
            UcgError::OrderTooLarge {
                order: MAX_UCG_ORDER + 1
            }
        );
        let msg = UcgError::OrderTooLarge { order: 17 }.to_string();
        assert!(msg.contains("17") && msg.contains("16"), "{msg}");
    }
}
