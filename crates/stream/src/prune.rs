//! McKay-style canonical-construction pruning for the vertex-augmentation
//! producer.
//!
//! The unpruned augmentation canonicalizes **every** non-empty
//! neighbour mask of every parent — `2^k - 1` candidates per parent at
//! level `k`, i.e. a 255×/511× per-parent blowup at the top levels —
//! and deduplicates the canonical keys in a global set. This module
//! replaces that with the canonical construction path method (McKay
//! 1998, as in nauty's `geng`): each isomorphism class of children is
//! *accepted* by exactly one `(parent, mask)` pair, so no global dedup
//! set exists at all and the expensive canonical search runs only on
//! survivors (plus the rare invariant ties).
//!
//! # Invariants the pruning rests on
//!
//! Write `C = P + z` for the child built from connected parent `P` on
//! `k` vertices by joining a new vertex `z = k` to the non-empty mask
//! `m`. Call a vertex of `C` *eligible* when deleting it leaves `C`
//! connected (`z` always is: `C - z = P`). The **canonical deletion
//! orbit** of `C` is chosen isomorphism-invariantly: among eligible
//! vertices maximizing the cheap invariant (degree, neighbour-degree
//! multiset), the `Aut(C)`-orbit containing the vertex with the
//! greatest canonical label. The accept rule is
//!
//! > accept `(P, m)` iff `z` lies in the canonical deletion orbit of
//! > `C`.
//!
//! 1. **Completeness** — every isomorphism class of connected
//!    `(k+1)`-graphs has a vertex `v` in its canonical deletion orbit;
//!    deleting it yields a connected parent class that *is* enumerated,
//!    and the corresponding mask produces the class with `z` in that
//!    orbit (the choice is isomorphism-invariant), so it is accepted at
//!    least once.
//! 2. **Uniqueness** — two accepted candidates of isomorphic children
//!    have an isomorphism mapping `z` to `z` (both lie in the same
//!    invariant orbit), which restricts to a parent isomorphism: the
//!    parents are the same canonical form and the masks lie in one
//!    `Aut(P)`-orbit. Masks are therefore pruned to one representative
//!    per `Aut(P)`-orbit (generators exported by
//!    [`bnf_graph::Graph::canonical_search`]), and a per-parent
//!    accepted-key set backstops the orbit computation — a duplicate
//!    there is counted, skipped, and cannot corrupt the stream.
//! 3. **Cheap rejection first** — `z` can only be in the canonical
//!    deletion orbit if no eligible vertex beats its invariant, so a
//!    candidate whose invariant loses to any eligible vertex is
//!    rejected on degree sequences and one-vertex-deleted connectivity
//!    alone (bitmask BFS, no canonical search). Only invariant *ties*
//!    pay the full search for the rejected side; unique maximizers are
//!    accepted outright and pay exactly the one search every survivor
//!    needs anyway for its canonical form and key.
//!
//! The orbit partition exported by the canonical search is the *true*
//! `Aut(C)` partition (discovered generators generate the full group —
//! cross-checked against brute force in `bnf-graph`'s tests), which is
//! what makes the tie-break above consistent across isomorphic copies.

use bnf_graph::{CanonKey, Graph, VertexSet};

/// Upper bound (exclusive) on child order for the stack-allocated row
/// buffers — the enumeration bound is `n = 10`.
const MAX_CHILD: usize = 11;

/// Neighbour masks of one parent (order ≤ `MAX_CHILD - 2`): the bound of
/// the per-parent mask arrays.
const MAX_MASKS: usize = 1 << (MAX_CHILD - 2);

// A child's whole canonical key fits its prefix word, so accepted keys
// are compared by that word alone.
const _: () = assert!((MAX_CHILD - 1) * (MAX_CHILD - 2) / 2 <= 64);

/// Work counters of the pruned augmentation, aggregated over all levels
/// of one enumeration run and surfaced through
/// [`crate::StreamStats`] into the sweep reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneCounters {
    /// Children actually constructed and tested (orbit-representative
    /// masks; the unpruned path would have canonicalized all
    /// `2^k - 1` masks per parent).
    pub candidates: u64,
    /// Masks skipped as `Aut(parent)`-orbit duplicates of an already
    /// tested representative — never constructed.
    pub orbit_skipped: u64,
    /// Candidates rejected by the degree-sequence / deleted-vertex
    /// connectivity pre-filter, **before** any canonical search.
    pub cheap_rejected: u64,
    /// Candidates that tied the cheap invariant and were rejected by
    /// the canonical-orbit accept test (these pay a full search).
    pub search_rejected: u64,
    /// Accepted candidates that duplicated an earlier survivor of the
    /// same parent — the belt-and-braces backstop for the orbit
    /// computation. Expected to stay 0; counted so a regression is
    /// visible in the streaming report rather than silent.
    pub duplicates: u64,
}

impl PruneCounters {
    /// Candidates that survived every filter and were emitted.
    ///
    /// Saturating: a partially-merged counter set (one shard's rejection
    /// counters folded in before its candidate counter, or a final-level
    /// slice folded without its frontier) reports `0` instead of
    /// wrapping the `u64` subtraction.
    pub fn accepted(&self) -> u64 {
        self.candidates
            .saturating_sub(self.cheap_rejected)
            .saturating_sub(self.search_rejected)
            .saturating_sub(self.duplicates)
    }

    /// Constructed candidates per emitted survivor (the pruning-quality
    /// metric gated in CI; the unpruned path sits near 11× at the top
    /// levels). `0.0` before anything was accepted — a zero-survivor
    /// shard (small parent ranges make this reachable) must report a
    /// defined value, never `NaN`/`inf`, into the gated metric.
    pub fn candidates_per_survivor(&self) -> f64 {
        match self.accepted() {
            0 => 0.0,
            survivors => self.candidates as f64 / survivors as f64,
        }
    }

    /// The counters as stable `(name, value)` pairs — the schema the
    /// run-manifest counter table and the stderr report both read, so
    /// renaming a field here is a manifest schema change.
    pub fn named(&self) -> [(&'static str, u64); 6] {
        [
            ("candidates", self.candidates),
            ("orbit_skipped", self.orbit_skipped),
            ("cheap_rejected", self.cheap_rejected),
            ("search_rejected", self.search_rejected),
            ("duplicates", self.duplicates),
            ("accepted", self.accepted()),
        ]
    }

    /// Folds another counter set into this one (per-worker merge).
    pub fn merge(&mut self, other: &PruneCounters) {
        self.candidates += other.candidates;
        self.orbit_skipped += other.orbit_skipped;
        self.cheap_rejected += other.cheap_rejected;
        self.search_rejected += other.search_rejected;
        self.duplicates += other.duplicates;
    }
}

/// Applies a parent-vertex permutation to a neighbour mask.
#[inline]
fn apply_perm_to_mask(perm: &[usize], mask: u64) -> u64 {
    let mut out = 0u64;
    let mut m = mask;
    while m != 0 {
        let v = m.trailing_zeros() as usize;
        m &= m - 1;
        out |= 1u64 << perm[v];
    }
    out
}

/// Whether the graph on vertices `0..n` given by adjacency `rows` stays
/// connected after deleting vertex `skip` (requires `n >= 2`).
#[inline]
fn connected_without(rows: &[u64], n: usize, skip: usize) -> bool {
    let full = ((1u64 << n) - 1) & !(1u64 << skip);
    let start = full.trailing_zeros() as usize;
    let mut seen = 1u64 << start;
    let mut frontier = seen;
    while frontier != 0 {
        let mut next = 0u64;
        let mut f = frontier;
        while f != 0 {
            let v = f.trailing_zeros() as usize;
            f &= f - 1;
            next |= rows[v];
        }
        next &= full & !seen;
        seen |= next;
        frontier = next;
    }
    seen == full
}

/// Isomorphism-invariant vertex invariant, packed into one comparable
/// word: degree in the high bits, then the neighbour-degree multiset as
/// per-degree counts in 4-bit nibbles (orders ≤ 10 keep every count
/// < 16 and every degree ≤ 9).
#[inline]
fn vertex_invariant(rows: &[u64], degs: &[u32], v: usize) -> u64 {
    let mut nd = 0u64;
    let mut r = rows[v];
    while r != 0 {
        let w = r.trailing_zeros() as usize;
        r &= r - 1;
        nd += 1u64 << (4 * (degs[w] as u64 - 1));
    }
    (u64::from(degs[v]) << 40) | nd
}

/// `Aut(parent)` generators for mask-orbit pruning, skipping the search
/// when a cheap rigidity certificate holds: pairwise-distinct vertex
/// invariants leave no room for a non-trivial automorphism.
fn parent_generators(parent: &Graph, rows: &[u64], k: usize) -> Vec<Vec<usize>> {
    let mut degs = [0u32; MAX_CHILD];
    for v in 0..k {
        degs[v] = rows[v].count_ones();
    }
    let mut invs = [0u64; MAX_CHILD];
    for (v, inv) in invs.iter_mut().enumerate().take(k) {
        *inv = vertex_invariant(rows, &degs, v);
    }
    let invs = &mut invs[..k];
    invs.sort_unstable();
    if invs.windows(2).all(|w| w[0] != w[1]) {
        return Vec::new();
    }
    parent.canonical_search().generators
}

/// Augments one connected parent by a new vertex over every
/// `Aut(parent)`-orbit representative of the non-empty neighbour masks,
/// emitting exactly the children *accepted* by the canonical
/// construction path rule (see the module docs). Children arrive in
/// canonical form with their canonical key.
///
/// Every isomorphism class of connected `(k+1)`-graphs is emitted by
/// exactly one `(parent, mask)` pair across the whole level — the
/// caller needs **no** dedup set.
///
/// # Panics
///
/// Panics if the parent is empty or the child order exceeds the
/// enumeration bound of 10.
pub fn augment_connected_parent<F>(parent: &Graph, counters: &mut PruneCounters, mut emit: F)
where
    F: FnMut(Graph, CanonKey),
{
    let k = parent.order();
    assert!(k >= 1, "augmentation needs a non-empty parent");
    assert!(
        k + 1 < MAX_CHILD,
        "child order exceeds the enumeration bound"
    );
    let n = k + 1;
    let z = k;
    let mut rows = [0u64; MAX_CHILD];
    for (v, r) in rows.iter_mut().enumerate().take(k) {
        *r = parent.neighbor_bits(v);
    }
    let gens = parent_generators(parent, &rows, k);
    // Orbit-visited flags, and the closure's stack: each mask is pushed
    // at most once, when first seen.
    let mut mask_seen = [0u64; MAX_MASKS / 64];
    let mut stack = [0u64; MAX_MASKS];
    // Prefix words of the keys accepted so far (at most one per mask).
    let mut accepted = [0u64; MAX_MASKS];
    let mut accepted_len = 0usize;
    let mut degs = [0u32; MAX_CHILD];
    let mut tied = [0usize; MAX_CHILD];
    for m in 1..(1u64 << k) {
        if !gens.is_empty() {
            if mask_seen[(m >> 6) as usize] >> (m & 63) & 1 == 1 {
                counters.orbit_skipped += 1;
                continue;
            }
            // Close the Aut(parent)-orbit of m so equivalent masks are
            // skipped — they would build the same child class with z in
            // the same deletion orbit and be accepted twice.
            mask_seen[(m >> 6) as usize] |= 1 << (m & 63);
            stack[0] = m;
            let mut depth = 1;
            while depth > 0 {
                depth -= 1;
                let x = stack[depth];
                for gen in &gens {
                    let y = apply_perm_to_mask(gen, x);
                    if mask_seen[(y >> 6) as usize] >> (y & 63) & 1 == 0 {
                        mask_seen[(y >> 6) as usize] |= 1 << (y & 63);
                        stack[depth] = y;
                        depth += 1;
                    }
                }
            }
        }
        counters.candidates += 1;
        // Child adjacency on the stack: parent rows plus z's column.
        let mut crows = rows;
        crows[z] = m;
        let mut mm = m;
        while mm != 0 {
            let v = mm.trailing_zeros() as usize;
            mm &= mm - 1;
            crows[v] |= 1 << z;
        }
        for (v, d) in degs.iter_mut().enumerate().take(n) {
            *d = crows[v].count_ones();
        }
        let inv_z = vertex_invariant(&crows, &degs, z);
        // z survives only as an invariant maximizer among eligible
        // vertices: any eligible vertex strictly above it rejects the
        // candidate on arithmetic alone.
        let mut tied_len = 0usize;
        let mut rejected = false;
        for v in 0..k {
            let iv = vertex_invariant(&crows, &degs, v);
            if iv > inv_z {
                if connected_without(&crows, n, v) {
                    rejected = true;
                    break;
                }
            } else if iv == inv_z {
                tied[tied_len] = v;
                tied_len += 1;
            }
        }
        if rejected {
            counters.cheap_rejected += 1;
            continue;
        }
        // Keep the eligible tied vertices, in place.
        let mut elig_len = 0usize;
        for i in 0..tied_len {
            if connected_without(&crows, n, tied[i]) {
                tied[elig_len] = tied[i];
                elig_len += 1;
            }
        }
        let elig_tied = &tied[..elig_len];
        let child = parent.with_extra_vertex(&VertexSet::from_mask(k, m));
        let (form, key) = if elig_tied.is_empty() {
            // z is the unique eligible maximizer: the deletion orbit is
            // its own. Accepted — pay the one search every survivor
            // needs for its canonical form and key.
            child.canonical_form_and_key()
        } else {
            // Tie: accept iff z's Aut(C)-orbit contains the greatest
            // canonical label among the eligible maximizers.
            let s = child.canonical_search();
            let mut l_star = s.labels[z];
            for &v in elig_tied {
                l_star = l_star.max(s.labels[v]);
            }
            let oz = s.orbits[z];
            let orb_max = (0..n)
                .filter(|&v| s.orbits[v] == oz)
                .map(|v| s.labels[v])
                .max()
                .expect("z is in its own orbit");
            if orb_max != l_star {
                counters.search_rejected += 1;
                continue;
            }
            (s.form, s.key)
        };
        let word = key.prefix_word();
        if accepted[..accepted_len].contains(&word) {
            counters.duplicates += 1;
            continue;
        }
        accepted[accepted_len] = word;
        accepted_len += 1;
        emit(form, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn accepted_key_set(parent: &Graph) -> HashSet<CanonKey> {
        let mut counters = PruneCounters::default();
        let mut out = HashSet::new();
        augment_connected_parent(parent, &mut counters, |_, key| {
            assert!(out.insert(key), "augmentation emitted one class twice");
        });
        assert_eq!(counters.accepted() as usize, out.len());
        out
    }

    #[test]
    fn acceptance_is_label_invariant() {
        // The accept rule must not depend on the parent's labelling:
        // relabelled parents accept exactly the same child classes.
        let parents = [
            Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap(),
            Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]).unwrap(),
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]).unwrap(),
            Graph::complete(4),
        ];
        for p in &parents {
            let n = p.order();
            let rotation: Vec<usize> = (0..n).map(|v| (v + 1) % n).collect();
            let reversal: Vec<usize> = (0..n).map(|v| n - 1 - v).collect();
            let mult = if n % 3 == 0 { 5 } else { 3 }; // coprime to n
            let stride: Vec<usize> = (0..n).map(|v| (v * mult + 1) % n).collect();
            let base = accepted_key_set(p);
            for perm in [rotation, reversal, stride] {
                let relabelled = p.relabel(&perm);
                assert_eq!(accepted_key_set(&relabelled), base, "parent {p:?}");
            }
        }
    }

    #[test]
    fn counters_add_up() {
        let parent = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut counters = PruneCounters::default();
        let mut emitted = 0u64;
        augment_connected_parent(&parent, &mut counters, |g, key| {
            emitted += 1;
            assert_eq!(g.canonical_key(), key);
            assert_eq!(g.canonical_form(), g);
            assert!(g.is_connected());
        });
        assert_eq!(counters.accepted(), emitted);
        assert_eq!(
            counters.candidates + counters.orbit_skipped,
            (1u64 << parent.order()) - 1,
            "every non-empty mask is tested or orbit-skipped"
        );
        let mut merged = PruneCounters::default();
        merged.merge(&counters);
        merged.merge(&counters);
        assert_eq!(merged.candidates, 2 * counters.candidates);
        assert_eq!(merged.accepted(), 2 * counters.accepted());
    }

    #[test]
    fn zero_survivor_counters_report_defined_ratio() {
        // A fresh counter set and a shard whose every candidate was
        // rejected both have zero survivors; the gated metric must be a
        // defined finite value, not NaN/inf.
        let empty = PruneCounters::default();
        assert_eq!(empty.accepted(), 0);
        assert_eq!(empty.candidates_per_survivor(), 0.0);
        let all_rejected = PruneCounters {
            candidates: 7,
            cheap_rejected: 5,
            search_rejected: 2,
            ..PruneCounters::default()
        };
        assert_eq!(all_rejected.accepted(), 0);
        assert_eq!(all_rejected.candidates_per_survivor(), 0.0);
        assert!(all_rejected.candidates_per_survivor().is_finite());
    }

    #[test]
    fn partially_merged_counters_saturate_instead_of_wrapping() {
        // A merge order that folds a shard's rejection counters in
        // before its candidates (or a final-level slice without its
        // frontier) transiently has rejections > candidates; accepted()
        // must clamp to 0, not wrap to ~u64::MAX.
        let partial = PruneCounters {
            candidates: 3,
            cheap_rejected: 10,
            search_rejected: 1,
            duplicates: 1,
            ..PruneCounters::default()
        };
        assert_eq!(partial.accepted(), 0);
        assert_eq!(partial.candidates_per_survivor(), 0.0);
        // Folding in the missing candidates restores the true count.
        let mut whole = partial;
        whole.merge(&PruneCounters {
            candidates: 20,
            ..PruneCounters::default()
        });
        assert_eq!(whole.accepted(), 11);
    }

    #[test]
    fn named_counters_cover_every_field_and_the_derived_accept_count() {
        let c = PruneCounters {
            candidates: 100,
            orbit_skipped: 9,
            cheap_rejected: 40,
            search_rejected: 7,
            duplicates: 3,
        };
        let named = c.named();
        let get = |want: &str| {
            named
                .iter()
                .find(|(name, _)| *name == want)
                .expect("counter present")
                .1
        };
        assert_eq!(get("candidates"), 100);
        assert_eq!(get("orbit_skipped"), 9);
        assert_eq!(get("cheap_rejected"), 40);
        assert_eq!(get("search_rejected"), 7);
        assert_eq!(get("duplicates"), 3);
        assert_eq!(get("accepted"), c.accepted());
        // The names are pairwise distinct — a manifest counter table
        // upserts by name, so a collision would silently sum fields.
        let mut names: Vec<&str> = named.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn connectivity_helper_matches_graph_queries() {
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]).unwrap();
        let rows: Vec<u64> = (0..6).map(|v| g.neighbor_bits(v)).collect();
        for v in 0..6 {
            assert_eq!(
                connected_without(&rows, 6, v),
                g.without_vertex(v).is_connected(),
                "vertex {v}"
            );
        }
    }

    #[test]
    fn mask_permutation_application() {
        let perm = [2usize, 0, 1];
        assert_eq!(apply_perm_to_mask(&perm, 0b011), 0b101);
        assert_eq!(apply_perm_to_mask(&perm, 0), 0);
        assert_eq!(apply_perm_to_mask(&perm, 0b111), 0b111);
    }
}
