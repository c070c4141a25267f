//! α-grid construction and the windows-first post-pass.
//!
//! Figures 2 and 3 are curves over the link cost α. Classification is
//! α-independent (one [`bnf_core::WindowRecord`] per topology), so a
//! grid — the paper's 16 log-spaced costs, a dense linear axis, or a
//! log-dense axis — is evaluated afterwards as one pass over the
//! records: [`GridFold`] folds each record straight into per-α
//! accumulators (equilibrium count, PoA sum, PoA max, link sum for the
//! bilateral, unilateral and transfer sets, plus conjecture-violation
//! counts), and [`evaluate`] is that fold over a [`WindowSweep`].
//!
//! Cost: each window's endpoints are binary-searched in the sorted
//! grid, and each record then touches only the α indices inside its
//! windows — O(records · log|grid| + equilibrium pairs) time and
//! O(|grid|) memory, whatever the catalogue size. The price of anarchy
//! of an equilibrium pair is one f64 division of exact integers
//! (see [`GridFold`]); per α, records are added in catalogue order, so
//! every f64 aggregate is bit-identical to the legacy per-α
//! classification, which this crate's tests keep as an oracle.

use std::fmt;
use std::ops::Range;

use bnf_core::{ClosedInterval, StabilityWindow, WindowRecord};
use bnf_games::{poa_of_summary, CostSummary, GameKind, Ratio};

use crate::sweep::{SeriesTotals, SweepConfig, SweepResult, WindowSweep};

/// The most α points one grid may hold. [`GridSpec::parse`] rejects
/// specs beyond it, so a request cannot make [`GridSpec::alphas`]
/// allocate without bound.
pub const MAX_GRID_POINTS: usize = 65_536;

/// The largest numerator or denominator a grid point may have in lowest
/// terms. [`GridSpec::parse`] rejects specs with any point beyond it, so
/// the price-of-anarchy arithmetic downstream — `α·2·45 + 330·q` at
/// `n = 10`, then one ratio of two such integers — stays far inside the
/// exact `i64` / f64 range instead of overflowing.
pub const MAX_GRID_COMPONENT: i64 = 1 << 40;

/// A named α-grid family, parseable from the figure binaries'
/// `--grid` flag.
///
/// All grids are exact rationals. "Log-dense" subdivides each octave
/// `[lo·2^k, lo·2^{k+1}]` linearly — rational throughout, denser at
/// small α in absolute terms, evenly spaced per octave on the paper's
/// log axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridSpec {
    /// The 16-point grid of the figure binaries
    /// ([`SweepConfig::standard`]): log-spaced costs from 1/4 to 64.
    Paper,
    /// `steps` evenly spaced costs from `lo` to `hi` inclusive.
    Linear {
        /// Smallest link cost (must be positive).
        lo: Ratio,
        /// Largest link cost.
        hi: Ratio,
        /// Number of grid points (≥ 2).
        steps: usize,
    },
    /// `per_octave` evenly spaced costs inside every octave from `lo`
    /// up to and including the first power-of-two multiple of `lo`
    /// reaching `hi`.
    LogDense {
        /// Smallest link cost (must be positive).
        lo: Ratio,
        /// Octave doubling stops once reached.
        hi: Ratio,
        /// Grid points per octave (≥ 1).
        per_octave: usize,
    },
}

/// Why a `--grid` / `/grid?spec=` string was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridSpecError {
    /// Not `paper`, `linear:…` or `log2:…` with four fields.
    UnknownGrid(String),
    /// A ratio component is not a decimal `i64`.
    BadRatio(String),
    /// A ratio has denominator zero.
    ZeroDenominator,
    /// `lo ≤ 0`: link costs are positive.
    NonPositive(Ratio),
    /// `hi < lo`.
    EmptyRange {
        /// The lower end.
        lo: Ratio,
        /// The upper end.
        hi: Ratio,
    },
    /// The step or per-octave count is not a decimal `usize`.
    BadCount(String),
    /// A linear grid with fewer than 2 steps.
    TooFewSteps,
    /// A log2 grid with no point per octave.
    EmptyOctave,
    /// The grid would hold more than [`MAX_GRID_POINTS`] points.
    TooManyPoints {
        /// Points the spec asks for.
        points: u128,
    },
    /// Some grid point's numerator or denominator in lowest terms
    /// exceeds [`MAX_GRID_COMPONENT`].
    PointTooLarge,
}

impl fmt::Display for GridSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridSpecError::UnknownGrid(s) => write!(
                f,
                "unknown grid {s:?}: expected paper, linear:<lo>:<hi>:<steps> or log2:<lo>:<hi>:<per_octave>"
            ),
            GridSpecError::BadRatio(t) => write!(f, "bad ratio component {t:?}"),
            GridSpecError::ZeroDenominator => write!(f, "ratio denominator is zero"),
            GridSpecError::NonPositive(lo) => {
                write!(f, "link costs must be positive, got lo={lo}")
            }
            GridSpecError::EmptyRange { lo, hi } => write!(f, "empty grid: hi={hi} < lo={lo}"),
            GridSpecError::BadCount(t) => write!(f, "bad point count {t:?}"),
            GridSpecError::TooFewSteps => write!(f, "linear grids need at least 2 steps"),
            GridSpecError::EmptyOctave => {
                write!(f, "log2 grids need at least 1 point per octave")
            }
            GridSpecError::TooManyPoints { points } => write!(
                f,
                "grid has {points} points, more than the limit of {MAX_GRID_POINTS}"
            ),
            GridSpecError::PointTooLarge => write!(
                f,
                "a grid point's numerator or denominator exceeds the limit of \
                 {MAX_GRID_COMPONENT}"
            ),
        }
    }
}

impl std::error::Error for GridSpecError {}

impl GridSpec {
    /// Parses a `--grid` argument:
    ///
    /// * `paper`
    /// * `linear:<lo>:<hi>:<steps>` — e.g. `linear:1/4:64:256`
    /// * `log2:<lo>:<hi>:<per_octave>` — e.g. `log2:1/4:64:32`
    ///
    /// Ratios accept `p` or `p/q` in decimal integers.
    ///
    /// # Errors
    ///
    /// Returns a [`GridSpecError`] for unknown grid names, ratio syntax
    /// errors, non-positive `lo`, `hi < lo`, degenerate step counts,
    /// grids of more than [`MAX_GRID_POINTS`] points, or grid points
    /// with a component beyond [`MAX_GRID_COMPONENT`].
    pub fn parse(s: &str) -> Result<GridSpec, GridSpecError> {
        let parts: Vec<&str> = s.split(':').collect();
        let spec = match parts.as_slice() {
            ["paper"] => GridSpec::Paper,
            ["linear", lo, hi, steps] => {
                let (lo, hi) = parse_range(lo, hi)?;
                let steps = parse_count(steps)?;
                if steps < 2 {
                    return Err(GridSpecError::TooFewSteps);
                }
                GridSpec::Linear { lo, hi, steps }
            }
            ["log2", lo, hi, per_octave] => {
                let (lo, hi) = parse_range(lo, hi)?;
                let per_octave = parse_count(per_octave)?;
                if per_octave < 1 {
                    return Err(GridSpecError::EmptyOctave);
                }
                GridSpec::LogDense { lo, hi, per_octave }
            }
            _ => return Err(GridSpecError::UnknownGrid(s.to_owned())),
        };
        let points = spec.points_bound();
        if points > MAX_GRID_POINTS as u128 {
            return Err(GridSpecError::TooManyPoints { points });
        }
        spec.checked_alphas()?;
        Ok(spec)
    }

    /// How many points [`GridSpec::alphas`] generates before
    /// deduplication, computed without generating them.
    fn points_bound(&self) -> u128 {
        match *self {
            GridSpec::Paper => SweepConfig::standard(0).alphas.len() as u128,
            GridSpec::Linear { steps, .. } => steps as u128,
            GridSpec::LogDense { lo, hi, per_octave } => {
                // Octaves = the least k with lo·2^k ≥ hi. Both sides are
                // products of two i64 magnitudes (< 2^126), and the left
                // doubles only while below the right, so it stays < 2^127.
                let target = i128::from(hi.numer()) * i128::from(lo.denom());
                let mut base = i128::from(lo.numer()) * i128::from(hi.denom());
                let mut octaves = 0u128;
                while base < target {
                    base *= 2;
                    octaves += 1;
                }
                1 + octaves * per_octave as u128
            }
        }
    }

    /// Materializes the grid as sorted, deduplicated link costs.
    ///
    /// # Panics
    ///
    /// Panics on a spec [`GridSpec::parse`] would have rejected (a
    /// hand-built variant with a point beyond [`MAX_GRID_COMPONENT`]).
    pub fn alphas(&self) -> Vec<Ratio> {
        self.checked_alphas()
            .unwrap_or_else(|e| panic!("unvalidated grid spec {self:?}: {e}"))
    }

    /// [`GridSpec::alphas`] in checked `i128` arithmetic: each point is
    /// built as one exact fraction and reduced, so an out-of-range point
    /// is a [`GridSpecError::PointTooLarge`] instead of a `Ratio`
    /// overflow.
    fn checked_alphas(&self) -> Result<Vec<Ratio>, GridSpecError> {
        let mut out = match *self {
            GridSpec::Paper => SweepConfig::standard(0).alphas,
            GridSpec::Linear { lo, hi, steps } => {
                // lo + (hi − lo)·k/(steps − 1)
                //   = (a·d·s + (c·b − a·d)·k) / (b·d·s), s = steps − 1;
                // products of two i64 components cannot overflow i128.
                let (a, b) = (i128::from(lo.numer()), i128::from(lo.denom()));
                let (c, d) = (i128::from(hi.numer()), i128::from(hi.denom()));
                let s = (steps - 1) as i128;
                let (ad, den) = (a * d, (b * d).checked_mul(s));
                (0..steps as i128)
                    .map(|k| {
                        let num = ad
                            .checked_mul(s)?
                            .checked_add((c * b - ad).checked_mul(k)?)?;
                        grid_point(num, den?)
                    })
                    .collect::<Option<Vec<_>>>()
                    .ok_or(GridSpecError::PointTooLarge)?
            }
            GridSpec::LogDense { lo, hi, per_octave } => {
                // Octave j holds lo·2^j·(p + k)/p for k = 1..=p; octaves
                // continue while lo·2^j < hi (cross-multiplied: a·2^j·d < c·b,
                // both sides below 2^127 as in `points_bound`).
                let (a, b) = (i128::from(lo.numer()), i128::from(lo.denom()));
                let (c, d) = (i128::from(hi.numer()), i128::from(hi.denom()));
                let p = per_octave as i128;
                let mut alphas = vec![grid_point(a, b).ok_or(GridSpecError::PointTooLarge)?];
                let mut base = a; // lo·2^j scaled by b
                while base * d < c * b {
                    for k in 1..=p {
                        let point = base
                            .checked_mul(p + k)
                            .and_then(|num| grid_point(num, b * p));
                        alphas.push(point.ok_or(GridSpecError::PointTooLarge)?);
                    }
                    base = base.checked_mul(2).ok_or(GridSpecError::PointTooLarge)?;
                }
                alphas
            }
        };
        out.sort();
        out.dedup();
        Ok(out)
    }
}

/// `num/den` in lowest terms, when both components fit
/// [`MAX_GRID_COMPONENT`].
fn grid_point(num: i128, den: i128) -> Option<Ratio> {
    Ratio::checked_from_i128(num, den)
        .filter(|a| a.numer() <= MAX_GRID_COMPONENT && a.denom() <= MAX_GRID_COMPONENT)
}

fn parse_count(s: &str) -> Result<usize, GridSpecError> {
    s.parse().map_err(|_| GridSpecError::BadCount(s.to_owned()))
}

fn parse_ratio(s: &str) -> Result<Ratio, GridSpecError> {
    let parse_int = |t: &str| -> Result<i64, GridSpecError> {
        t.parse().map_err(|_| GridSpecError::BadRatio(t.to_owned()))
    };
    match s.split_once('/') {
        Some((p, q)) => {
            let q = parse_int(q)?;
            if q == 0 {
                return Err(GridSpecError::ZeroDenominator);
            }
            Ok(Ratio::new(parse_int(p)?, q))
        }
        None => Ok(Ratio::from(parse_int(s)?)),
    }
}

fn parse_range(lo: &str, hi: &str) -> Result<(Ratio, Ratio), GridSpecError> {
    let lo = parse_ratio(lo)?;
    let hi = parse_ratio(hi)?;
    if lo <= Ratio::ZERO {
        return Err(GridSpecError::NonPositive(lo));
    }
    if hi < lo {
        return Err(GridSpecError::EmptyRange { lo, hi });
    }
    Ok((lo, hi))
}

/// Largest integer magnitude an f64 holds exactly.
const EXACT_F64: u128 = 1 << 53;

/// The price of anarchy at one (game, α) for any topology on `n`
/// vertices: `ρ = C/OPT` as one f64 division of exact integers.
///
/// With `α = a/b`, `C = (a·units + d·b)/b` and
/// `OPT = min(star, complete) = opt/b` (both efficient graphs' costs
/// share the denominator `b`), so `ρ = (a·units + d·b) / opt`. When both
/// integers are below 2⁵³ they convert to f64 exactly and IEEE division
/// rounds the same rational `poa_of_summary` reduces and divides — the
/// result is bit-identical. Otherwise (huge α components, `n ≤ 1`, a
/// non-positive optimum) it falls back to [`poa_of_summary`] itself.
#[derive(Debug)]
struct PoaKernel {
    kind: GameKind,
    n: usize,
    alpha: Ratio,
    /// `opt` as an exact f64, or `None` to always take the fallback.
    opt: Option<f64>,
}

impl PoaKernel {
    fn new(kind: GameKind, n: usize, alpha: Ratio) -> PoaKernel {
        PoaKernel {
            kind,
            n,
            alpha,
            opt: Self::exact_opt(kind, n, alpha),
        }
    }

    /// `b · OPT` as an exact f64 (see the type docs), when it is a
    /// positive integer below 2⁵³.
    fn exact_opt(kind: GameKind, n: usize, alpha: Ratio) -> Option<f64> {
        if n <= 1 {
            return None;
        }
        let (a, b) = (i128::from(alpha.numer()), i128::from(alpha.denom()));
        let mult = i128::from(kind.social_link_multiplicity());
        let n1 = i128::try_from(n - 1).ok()?;
        let pairs = n1.checked_mul(n1 + 1)? / 2;
        // Cost of a graph with `links` edges and distance total `dist`,
        // scaled by b: a·mult·links + dist·b.
        let scaled = |links: i128, dist: i128| -> Option<i128> {
            a.checked_mul(mult.checked_mul(links)?)?
                .checked_add(dist.checked_mul(b)?)
        };
        let star = scaled(n1, 2 * n1.checked_mul(n1)?)?;
        let complete = scaled(pairs, 2 * pairs)?;
        let opt = star.min(complete);
        (opt > 0 && opt.unsigned_abs() < EXACT_F64).then_some(opt as f64)
    }

    fn poa(&self, edges: u64, total_distance: u64) -> f64 {
        if let (Some(opt), Some(units)) = (
            self.opt,
            self.kind.social_link_multiplicity().checked_mul(edges),
        ) {
            // The same `as i64` casts `CostSummary::social_cost_exact`
            // applies, so the fast path sees the operands it would.
            let cost = i128::from(self.alpha.numer()) * i128::from(units as i64)
                + i128::from(total_distance as i64) * i128::from(self.alpha.denom());
            if cost.unsigned_abs() < EXACT_F64 {
                return cost as f64 / opt;
            }
        }
        let summary = CostSummary {
            order: self.n,
            edges,
            total_distance: Some(total_distance),
            kind: self.kind,
        };
        poa_of_summary(&summary, self.alpha)
    }
}

/// The indices of the sorted grid `sorted` inside a convex α set given
/// by two monotone tests: `reached(α)` (false, then true as α grows) and
/// `admits_upper(α)` (true, then false).
fn span(
    sorted: &[Ratio],
    reached: impl Fn(Ratio) -> bool,
    admits_upper: impl Fn(Ratio) -> bool,
) -> Range<usize> {
    let start = sorted.partition_point(|&a| !reached(a));
    let end = sorted.partition_point(|&a| admits_upper(a));
    start..end.max(start)
}

/// Grid indices where [`WindowRecord::bcg_stable`] holds.
fn bcg_span(sorted: &[Ratio], w: &StabilityWindow) -> Range<usize> {
    span(
        sorted,
        |a| a > Ratio::ZERO && w.lower.admits(a),
        |a| w.upper.admits(a),
    )
}

/// Grid indices where a closed interval holds, optionally intersected
/// with α > 0.
fn interval_span(sorted: &[Ratio], iv: &ClosedInterval, positive: bool) -> Range<usize> {
    span(
        sorted,
        |a| a >= iv.lo && (!positive || a > Ratio::ZERO),
        |a| iv.hi.admits(a),
    )
}

/// The one-pass α-grid fold: push window records in catalogue order,
/// then [`GridFold::finish`] yields the per-α aggregate table
/// ([`SweepResult`]).
///
/// Memory is O(|grid|) no matter how many records stream through it,
/// so the offline sweeps ([`evaluate`]) and `bnf-serve`'s `/grid`
/// (records straight off the store) share it.
///
/// The grid may be in any order and hold duplicates; the fold searches
/// a sorted copy and reports in the caller's order.
#[derive(Debug)]
pub struct GridFold {
    n: usize,
    alphas: Vec<Ratio>,
    /// `sorted[i] = alphas[order[i]]`, ascending.
    order: Vec<usize>,
    sorted: Vec<Ratio>,
    bilateral_poa: Vec<PoaKernel>,
    unilateral_poa: Vec<PoaKernel>,
    topologies: usize,
    // Accumulators, indexed by sorted position.
    bilateral: Vec<SeriesTotals>,
    unilateral: Vec<SeriesTotals>,
    transfer: Vec<SeriesTotals>,
    violations: Vec<usize>,
}

impl GridFold {
    /// An empty fold of topologies on `n` vertices over `alphas`.
    pub fn new(n: usize, alphas: &[Ratio]) -> GridFold {
        let mut order: Vec<usize> = (0..alphas.len()).collect();
        order.sort_by_key(|&i| alphas[i]);
        let sorted: Vec<Ratio> = order.iter().map(|&i| alphas[i]).collect();
        let kernels = |kind| sorted.iter().map(|&a| PoaKernel::new(kind, n, a)).collect();
        let zeros = vec![SeriesTotals::default(); sorted.len()];
        GridFold {
            n,
            alphas: alphas.to_vec(),
            bilateral_poa: kernels(GameKind::Bilateral),
            unilateral_poa: kernels(GameKind::Unilateral),
            order,
            topologies: 0,
            bilateral: zeros.clone(),
            unilateral: zeros.clone(),
            transfer: zeros,
            violations: vec![0; sorted.len()],
            sorted,
        }
    }

    /// Folds one record in. Records must arrive in catalogue order for
    /// the f64 sums to match the per-α reference bit for bit.
    pub fn push(&mut self, rec: &WindowRecord) {
        self.topologies += 1;
        let (edges, dist) = (rec.edges, rec.total_distance);
        let bcg = rec.stability.map_or(0..0, |w| bcg_span(&self.sorted, &w));
        for k in bcg.clone() {
            let rho = self.bilateral_poa[k].poa(edges, dist);
            self.bilateral[k].add(edges, rho);
        }
        if let Some(iv) = rec.transfer {
            for k in interval_span(&self.sorted, &iv, false) {
                let rho = self.bilateral_poa[k].poa(edges, dist);
                self.transfer[k].add(edges, rho);
            }
        }
        // The support intervals are sorted and disjoint; clamping each
        // start past the previous end counts an α once even if they
        // touched.
        let mut covered = 0;
        for iv in &rec.ucg_support {
            let ucg = interval_span(&self.sorted, iv, true);
            for k in ucg.start.max(covered)..ucg.end {
                let rho = self.unilateral_poa[k].poa(edges, dist);
                self.unilateral[k].add(edges, rho);
                if !bcg.contains(&k) {
                    self.violations[k] += 1;
                }
            }
            covered = covered.max(ucg.end);
        }
    }

    /// The per-α aggregate table, in the order of the grid passed to
    /// [`GridFold::new`].
    pub fn finish(self) -> SweepResult {
        let order = &self.order;
        SweepResult {
            n: self.n,
            topologies: self.topologies,
            bilateral: unsort(order, self.bilateral),
            unilateral: unsort(order, self.unilateral),
            transfer: unsort(order, self.transfer),
            violations: unsort(order, self.violations),
            alphas: self.alphas,
        }
    }
}

/// Moves `sorted[i]` back to position `order[i]`.
fn unsort<T: Clone + Default>(order: &[usize], sorted: Vec<T>) -> Vec<T> {
    let mut out = vec![T::default(); sorted.len()];
    for (value, &i) in sorted.into_iter().zip(order) {
        out[i] = value;
    }
    out
}

/// Evaluates an α grid over a windows-first sweep: the [`GridFold`] of
/// its records, producing the same per-α aggregates — every f64 bit for
/// bit — that classifying every topology per grid point computes.
pub fn evaluate(windows: &WindowSweep, alphas: &[Ratio]) -> SweepResult {
    let mut fold = GridFold::new(windows.n, alphas);
    for rec in &windows.records {
        fold.push(rec);
    }
    fold.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(p: i64, q: i64) -> Ratio {
        Ratio::new(p, q)
    }

    #[test]
    fn parse_paper_and_errors() {
        assert_eq!(GridSpec::parse("paper"), Ok(GridSpec::Paper));
        assert!(matches!(
            GridSpec::parse("exponential:1:2:3"),
            Err(GridSpecError::UnknownGrid(_))
        ));
        assert_eq!(
            GridSpec::parse("linear:0:4:5"),
            Err(GridSpecError::NonPositive(Ratio::ZERO)),
            "lo must be > 0"
        );
        assert!(
            matches!(
                GridSpec::parse("linear:4:1:5"),
                Err(GridSpecError::EmptyRange { .. })
            ),
            "hi < lo"
        );
        assert_eq!(
            GridSpec::parse("linear:1:4:1"),
            Err(GridSpecError::TooFewSteps),
            "steps < 2"
        );
        assert!(matches!(
            GridSpec::parse("linear:1:4:x"),
            Err(GridSpecError::BadCount(_))
        ));
        assert_eq!(
            GridSpec::parse("log2:1/0:4:4"),
            Err(GridSpecError::ZeroDenominator),
            "zero denominator"
        );
        assert_eq!(
            GridSpec::parse("log2:1:4:0"),
            Err(GridSpecError::EmptyOctave)
        );
    }

    #[test]
    fn parse_bounds_the_point_count() {
        let at_cap = format!("linear:1:2:{MAX_GRID_POINTS}");
        assert_eq!(
            GridSpec::parse(&at_cap).unwrap().alphas().len(),
            MAX_GRID_POINTS
        );
        assert_eq!(
            GridSpec::parse("linear:1:2:1000000000"),
            Err(GridSpecError::TooManyPoints {
                points: 1_000_000_000
            })
        );
        // 1/4 → 64 is 8 octaves: 1 + 8·8191 points fit, 8192 per octave
        // do not.
        assert!(GridSpec::parse("log2:1/4:64:8191").is_ok());
        assert_eq!(
            GridSpec::parse("log2:1/4:64:8192"),
            Err(GridSpecError::TooManyPoints {
                points: 1 + 8 * 8192
            })
        );
        // The widest i64 range: 126 octaves, counted without overflow.
        assert_eq!(
            GridSpec::parse(&format!("log2:1/{}:{}:600", i64::MAX, i64::MAX)),
            Err(GridSpecError::TooManyPoints {
                points: 1 + 126 * 600
            })
        );
        assert_eq!(
            GridSpec::parse(&format!("log2:1/{}:{}:{}", i64::MAX, i64::MAX, usize::MAX)),
            Err(GridSpecError::TooManyPoints {
                points: 1 + 126 * usize::MAX as u128
            })
        );
        // A single-point log2 grid may ask for any density.
        assert!(GridSpec::parse(&format!("log2:3:3:{}", usize::MAX)).is_ok());
    }

    #[test]
    fn overflowing_grid_points_are_typed_errors() {
        // The first spec used to parse, then yield
        // 9223372012704246009/12148001972 and overflow the PoA fold.
        let m = MAX_GRID_COMPONENT;
        for spec in [
            "linear:1/3037000493:3037000499/2:3".to_owned(),
            format!("linear:1:{}:2", m + 1),
            format!("linear:1/{}:1:2", m + 1),
            format!("log2:1:{}:1", i64::MAX),
            format!("linear:1/{}:{}:65536", i64::MAX, i64::MAX),
        ] {
            assert_eq!(
                GridSpec::parse(&spec),
                Err(GridSpecError::PointTooLarge),
                "{spec}"
            );
        }
        // At the bound itself the grid parses and every point evaluates,
        // up to the widest cost of n = 10: K_n links at path distance.
        let mut alphas = GridSpec::parse(&format!("linear:1/{m}:{m}:2"))
            .unwrap()
            .alphas();
        alphas.extend(
            GridSpec::parse(&format!("log2:1/{m}:3/{m}:1"))
                .unwrap()
                .alphas(),
        );
        for (kind, &alpha) in [GameKind::Bilateral, GameKind::Unilateral]
            .iter()
            .flat_map(|k| alphas.iter().map(move |a| (*k, a)))
        {
            let rho = PoaKernel::new(kind, 10, alpha).poa(45, 330);
            assert!(rho.is_finite() && rho > 0.0, "{kind:?} α={alpha}");
        }
    }

    #[test]
    fn points_bound_matches_generated_grids() {
        for spec in ["log2:1/4:64:32", "log2:1:8:2", "log2:3/7:5:3", "log2:5:5:9"] {
            let g = GridSpec::parse(spec).unwrap();
            // alphas() only deduplicates, so its length is the bound.
            assert_eq!(g.points_bound(), g.alphas().len() as u128, "{spec}");
        }
    }

    #[test]
    fn paper_grid_matches_standard_config() {
        assert_eq!(GridSpec::Paper.alphas(), SweepConfig::standard(7).alphas);
        assert_eq!(GridSpec::Paper.alphas().len(), 16);
    }

    #[test]
    fn linear_grid_is_exact_and_inclusive() {
        let g = GridSpec::parse("linear:1/2:5/2:5").unwrap();
        assert_eq!(
            g.alphas(),
            vec![r(1, 2), Ratio::ONE, r(3, 2), r(2, 1), r(5, 2)]
        );
        // Degenerate span: dedups to a single point.
        let point = GridSpec::Linear {
            lo: r(3, 1),
            hi: r(3, 1),
            steps: 4,
        };
        assert_eq!(point.alphas(), vec![r(3, 1)]);
    }

    #[test]
    fn log_dense_grid_subdivides_octaves() {
        let g = GridSpec::parse("log2:1:8:2").unwrap();
        // Octaves [1,2], [2,4], [4,8], two points each, plus the start.
        assert_eq!(
            g.alphas(),
            vec![
                Ratio::ONE,
                r(3, 2),
                r(2, 1),
                r(3, 1),
                r(4, 1),
                r(6, 1),
                r(8, 1)
            ]
        );
        // The paper's own grid is log2:1/4:64:2 minus its two sub-one
        // half-steps — sanity: log2 grids stay sorted and positive.
        let dense = GridSpec::parse("log2:1/4:64:4").unwrap().alphas();
        assert!(dense.windows(2).all(|w| w[0] < w[1]));
        assert!(dense[0] == r(1, 4) && *dense.last().unwrap() == r(64, 1));
    }

    #[test]
    fn evaluate_matches_per_alpha_reference() {
        let config = SweepConfig {
            n: 5,
            alphas: GridSpec::parse("log2:1/2:16:3").unwrap().alphas(),
            threads: 2,
        };
        let reference = SweepResult::run_per_alpha(&config);
        let windows = WindowSweep::run(config.n, config.threads, None);
        let evaluated = evaluate(&windows, &config.alphas);
        assert_eq!(evaluated, reference);
    }

    #[test]
    fn unsorted_grids_report_in_caller_order() {
        let windows = WindowSweep::run(5, 2, None);
        let sorted = vec![r(1, 2), Ratio::ONE, r(2, 1), r(2, 1), r(5, 1)];
        let shuffled = vec![r(5, 1), r(2, 1), r(1, 2), r(2, 1), Ratio::ONE];
        let a = evaluate(&windows, &sorted);
        let b = evaluate(&windows, &shuffled);
        let reference = SweepResult::run_per_alpha(&SweepConfig {
            n: 5,
            alphas: shuffled.clone(),
            threads: 2,
        });
        assert_eq!(b, reference);
        let pick = |res: &SweepResult, alpha| {
            let k = res.alphas.iter().position(|&x| x == alpha).unwrap();
            res.stats(GameKind::Unilateral)[k].mean_poa.to_bits()
        };
        for alpha in &sorted {
            assert_eq!(pick(&a, *alpha), pick(&b, *alpha));
        }
    }

    /// SplitMix64 — deterministic, dependency-free randomness.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Seeded property: the integer ρ kernel equals `poa_of_summary` bit
    /// for bit for both games, across orders, edge counts, distance
    /// totals and α components reaching 2³² — far enough that both the
    /// fast path and the fallback run. (Inputs stay where
    /// `poa_of_summary` itself does not overflow.)
    #[test]
    fn poa_kernel_bit_equal_to_poa_of_summary() {
        let mut state = 0x00C0_FFEE_2026u64;
        let (mut fast, mut fallback) = (0usize, 0usize);
        for n in 2..=10usize {
            let pairs = (n * (n - 1) / 2) as u64;
            for round in 0..400 {
                let mut component = || {
                    let bits = splitmix(&mut state) % 32 + 1;
                    (splitmix(&mut state) % (1 << bits)) as i64 + 1
                };
                let alpha = if round % 50 == 0 {
                    // Beyond 2⁵³ / (n·n): even the optimum leaves the
                    // fast path.
                    Ratio::new((1 << 50) + component(), component() % 7 + 1)
                } else {
                    Ratio::new(component(), component())
                };
                // Realistic records most of the time, arbitrary sizes
                // otherwise.
                let (edges, dist) = if round % 50 != 0 && splitmix(&mut state).is_multiple_of(4) {
                    (
                        splitmix(&mut state) % (1 << 28),
                        splitmix(&mut state) % (1 << 28),
                    )
                } else {
                    let edges = (n as u64 - 1) + splitmix(&mut state) % (pairs + 2 - n as u64);
                    let dist = 2 * pairs + splitmix(&mut state) % (n as u64 * n as u64 * n as u64);
                    (edges, dist)
                };
                for kind in [GameKind::Bilateral, GameKind::Unilateral] {
                    let kernel = PoaKernel::new(kind, n, alpha);
                    let summary = CostSummary {
                        order: n,
                        edges,
                        total_distance: Some(dist),
                        kind,
                    };
                    let expected = poa_of_summary(&summary, alpha);
                    let got = kernel.poa(edges, dist);
                    assert_eq!(
                        got.to_bits(),
                        expected.to_bits(),
                        "{kind:?} n={n} alpha={alpha} edges={edges} dist={dist}"
                    );
                    let units = kind.social_link_multiplicity() * edges;
                    let cost = i128::from(alpha.numer()) * i128::from(units)
                        + i128::from(dist) * i128::from(alpha.denom());
                    if kernel.opt.is_some() && cost.unsigned_abs() < EXACT_F64 {
                        fast += 1;
                    } else {
                        fallback += 1;
                    }
                }
            }
        }
        assert!(fast > 1000, "fast path ran {fast} times");
        assert!(fallback > 200, "fallback ran {fallback} times");
    }

    #[test]
    fn poa_kernel_degenerate_orders_fall_back() {
        for n in [0, 1] {
            let k = PoaKernel::new(GameKind::Bilateral, n, Ratio::ONE);
            assert!(k.opt.is_none());
            assert_eq!(k.poa(0, 0), 1.0);
        }
    }
}
