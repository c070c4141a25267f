//! Canonical labelling, isomorphism testing and automorphism counting.
//!
//! The empirical study of the paper enumerates *non-isomorphic* connected
//! topologies; this module provides the canonical form used to deduplicate
//! them. The algorithm is the classic individualization–refinement scheme
//! (a small nauty; McKay & Piperno, *Practical Graph Isomorphism II*,
//! 2014): equitable partition refinement, branching on a target cell, and
//! pruning of branches equivalent under already-discovered automorphisms.
//! The canonical form is the lexicographically greatest packed
//! upper-triangle adjacency string over all explored leaves.
//!
//! # Layout
//!
//! A search allocates its state once per call and grows it only when the
//! path gets deeper than before or a generator is stored; no search node,
//! refinement step or leaf allocates. The tree is walked depth first over
//! a stack of *frames*, one per level of the current path, each holding:
//!
//! - the level's ordered partition: the cell count, then one record per
//!   cell — a metadata word (the cell size, plus a *stable* flag during
//!   refinement) followed by the cell's members as a bitset as wide as an
//!   adjacency row;
//! - the level's branch candidates, as one more bitset.
//!
//! A vertex's neighbour count into a cell is a popcount of its adjacency
//! row against the cell's bitset, so every order works, above 64 too. A
//! leaf's packed key is built in a per-search buffer and compared word by
//! word with the best key, abandoning the leaf at the first smaller word;
//! automorphism generators accumulate in one flat per-search buffer.
//! Counting automorphisms stores no generators.
//!
//! # The ordered-partition contract
//!
//! Stored keys, engine order, every CSV and the enumeration's pruning
//! counters depend on the exact labelling, orbits and generators a search
//! returns, not just on their invariance under isomorphism. So every node
//! of the search has one prescribed ordered partition:
//!
//! - cells keep their members in ascending order;
//! - refinement looks for the first splitter cell, by index, that splits
//!   some cell, and for the first such target cell by index; it replaces
//!   the target by its sub-cells in ascending order of neighbour count into
//!   the splitter, then starts over from the first splitter. A cell that
//!   split nothing cannot split anything until it is itself split (the
//!   sub-cells of a uniform cell are uniform), so the scan skips such
//!   *stable* cells, and the targets a splitter already found uniform,
//!   without changing which split comes next;
//! - the search branches on the first non-singleton cell, replacing it by
//!   `{v}` followed by the rest of the cell for each candidate `v`;
//! - a node's candidates are computed once, before its first child: the
//!   smallest member of each orbit of the target cell under the
//!   generators found so far that fix the individualized prefix pointwise
//!   (the whole cell when counting). Generators found below the first
//!   child do not prune its later siblings;
//! - the first leaf with the greatest key is kept; a later leaf with an
//!   equal key yields the automorphism `best⁻¹ ∘ perm`, stored unless it
//!   is the identity.
//!
//! The `#[cfg(test)]` oracle at the end of this module implements the same
//! contract with a cloned partition per node; the tests hold the search
//! to it field by field.

use std::cmp::Ordering;

use crate::bitset::{clear_bit, has_bit, next_bit, ones, popcount, set_bit, words_for};
use crate::graph::Graph;

/// A hashable, comparable canonical key: the graph order plus the packed
/// upper-triangle adjacency bits of the canonical form.
///
/// Two graphs are isomorphic iff their keys are equal.
///
/// # Examples
///
/// ```
/// use bnf_graph::Graph;
///
/// let p3a = Graph::from_edges(3, [(0, 1), (1, 2)])?;
/// let p3b = Graph::from_edges(3, [(0, 2), (2, 1)])?;
/// assert_eq!(p3a.canonical_key(), p3b.canonical_key());
/// # Ok::<(), bnf_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonKey {
    n: usize,
    bits: Box<[u64]>,
}

impl CanonKey {
    /// The order of the graph this key was derived from.
    pub fn order(&self) -> usize {
        self.n
    }

    /// The leading word of the packed canonical adjacency bits (0 for the
    /// empty key).
    ///
    /// This is the *prefix* used to shard canonical-key sets: for graphs
    /// of order ≤ 11 the whole upper triangle fits in this word, and for
    /// larger orders the high bits still carry the lexicographically most
    /// significant adjacency entries. Consumers should mix it (e.g.
    /// Fibonacci hashing) before reducing modulo a shard count — the
    /// canonical form is the lexicographically *greatest* labelling, so
    /// the raw high bits are heavily biased toward 1.
    pub fn prefix_word(&self) -> u64 {
        self.bits.first().copied().unwrap_or(0)
    }
}

/// Metadata flag of a cell that, as a splitter, splits no cell of the
/// partition being refined.
const STABLE: u64 = 1 << 32;
/// Metadata bits holding a cell's size.
const SIZE: u64 = STABLE - 1;

/// Popcount of `row & mask`: a vertex's neighbours in a cell.
#[inline]
fn count_in(row: &[u64], mask: &[u64]) -> u64 {
    row.iter()
        .zip(mask)
        .map(|(a, b)| u64::from((a & b).count_ones()))
        .sum()
}

/// Stores packed key word `wi` of the leaf being compared and settles the
/// comparison with the best key as far as this word decides it. Returns
/// `false` once the leaf is known to be smaller.
#[inline]
fn settle(key: &mut [u64], best: &[u64], wi: usize, word: u64, order: &mut Ordering) -> bool {
    key[wi] = word;
    if *order == Ordering::Equal {
        *order = word.cmp(&best[wi]);
    }
    *order != Ordering::Less
}

/// Where a search keeps its state: one arena of `u64` words holding the
/// fixed-size scratch ([`Parts`], in field order) and then one frame per
/// level of the current path.
///
/// A frame is the level's cell count, the vertex individualized to reach
/// the level, `n` cell records of `1 + w` words (a metadata word with the
/// size and the [`STABLE`] flag, then the members as a bitset) and the
/// level's branch candidates as a bitset.
#[derive(Clone, Copy)]
struct Layout {
    n: usize,
    /// Words per vertex bitset: the graph's row width.
    w: usize,
    /// Words of a packed key.
    key_words: usize,
    /// Words per frame.
    frame: usize,
    /// Words before the first frame.
    fixed: usize,
}

/// Disjoint views of a search's arena.
struct Parts<'a> {
    /// Packed key of the leaf being compared, and the greatest so far.
    key: &'a mut [u64],
    best: &'a mut [u64],
    /// `inv[k]` is the vertex labelled `k` at the current leaf, and
    /// `best_inv[k]` at the first leaf with the greatest key.
    inv: &'a mut [u64],
    best_inv: &'a mut [u64],
    /// Neighbour count into the splitter of each vertex of the target.
    counts: &'a mut [u64],
    /// The distinct neighbour counts of the target being split.
    values: &'a mut [u64],
    /// Orbit closure: vertices reached, and those still to expand.
    seen: &'a mut [u64],
    frontier: &'a mut [u64],
    frames: &'a mut [u64],
}

impl Layout {
    fn new(g: &Graph) -> Layout {
        let n = g.order();
        let w = g.row_words();
        let key_words = words_for(n * (n - 1) / 2).max(1);
        Layout {
            n,
            w,
            key_words,
            frame: 2 + n * (1 + w) + w,
            fixed: 2 * key_words + 3 * n + words_for(n + 1) + 2 * w,
        }
    }

    /// Offset of cell `c`'s metadata word within a frame; its members
    /// follow.
    #[inline]
    fn cell(&self, c: usize) -> usize {
        2 + c * (1 + self.w)
    }

    /// Offset of the candidate bitset within a frame.
    #[inline]
    fn cands(&self) -> usize {
        self.frame - self.w
    }

    #[inline]
    fn parts<'a>(&self, arena: &'a mut [u64]) -> Parts<'a> {
        let (key, rest) = arena.split_at_mut(self.key_words);
        let (best, rest) = rest.split_at_mut(self.key_words);
        let (inv, rest) = rest.split_at_mut(self.n);
        let (best_inv, rest) = rest.split_at_mut(self.n);
        let (counts, rest) = rest.split_at_mut(self.n);
        let (values, rest) = rest.split_at_mut(words_for(self.n + 1));
        let (seen, rest) = rest.split_at_mut(self.w);
        let (frontier, frames) = rest.split_at_mut(self.w);
        Parts {
            key,
            best,
            inv,
            best_inv,
            counts,
            values,
            seen,
            frontier,
            frames,
        }
    }

    /// Equitable refinement of one frame's partition, in place.
    fn refine(&self, g: &Graph, frame: &mut [u64], counts: &mut [u64], values: &mut [u64]) {
        // The first cell that may be unstable, and the first target not
        // yet known to be uniform under it.
        let (mut from, mut start) = (0, 0);
        loop {
            let cells = frame[0] as usize;
            let Some(si) = (from..cells).find(|&c| frame[self.cell(c)] & STABLE == 0) else {
                return;
            };
            if si != from {
                start = 0;
            }
            let mut split = None;
            for ci in start..cells {
                if frame[self.cell(ci)] & SIZE > 1 {
                    if let Some(parts) = self.split(g, frame, counts, values, si, ci) {
                        split = Some((ci, parts));
                        break;
                    }
                }
            }
            (from, start) = match split {
                // Cells before the splitter stay stable, and targets before
                // the split one, or cut from it, stay uniform under it.
                Some((ci, parts)) if ci > si => (si, ci + parts),
                Some((ci, _)) => (ci, 0),
                None => {
                    frame[self.cell(si)] |= STABLE;
                    (si + 1, 0)
                }
            };
        }
    }

    /// Splits cell `ci` of the frame by neighbour counts into cell `si`:
    /// sub-cells in ascending count order, none of them stable. Returns
    /// the number of sub-cells, or `None`, changing nothing, when the
    /// counts are uniform.
    fn split(
        &self,
        g: &Graph,
        frame: &mut [u64],
        counts: &mut [u64],
        values: &mut [u64],
        si: usize,
        ci: usize,
    ) -> Option<usize> {
        let (w, cs) = (self.w, 1 + self.w);
        let s = self.cell(si) + 1;
        let t = self.cell(ci);
        if frame[s - 1] & SIZE == 1 {
            // A singleton {u} splits by adjacency to u: the members
            // outside N(u) (count 0) keep the target's place, and those
            // inside follow.
            let u = next_bit(&frame[s..s + w], 0).expect("a singleton cell has a member");
            let row = g.row(u);
            let size = frame[t] & SIZE;
            let inside = count_in(row, &frame[t + 1..t + cs]);
            if inside == 0 || inside == size {
                return None;
            }
            self.open(frame, ci, 1);
            let sub = t + cs;
            frame[sub] = inside;
            frame[t] = size - inside;
            for (k, &r) in row.iter().enumerate() {
                frame[sub + 1 + k] = frame[t + 1 + k] & r;
                frame[t + 1 + k] &= !r;
            }
            return Some(2);
        }
        values.fill(0);
        for v in ones(&frame[t + 1..t + cs]) {
            let c = count_in(g.row(v), &frame[s..s + w]);
            counts[v] = c;
            set_bit(values, c as usize);
        }
        let parts = popcount(values);
        if parts == 1 {
            return None;
        }
        // The target keeps the members of rank 0; the records opened after
        // it take ranks 1, 2, ….
        self.open(frame, ci, parts - 1);
        let mut kept = 0;
        for wi in 0..w {
            let mut word = frame[t + 1 + wi];
            while word != 0 {
                let v = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let c = counts[v] as usize;
                let rank = popcount(&values[..c / 64])
                    + (values[c / 64] & ((1u64 << (c % 64)) - 1)).count_ones() as usize;
                if rank == 0 {
                    kept += 1;
                } else {
                    let sub = t + rank * cs;
                    frame[sub] += 1;
                    set_bit(&mut frame[sub + 1..sub + cs], v);
                    clear_bit(&mut frame[t + 1..t + cs], v);
                }
            }
        }
        frame[t] = kept;
        Some(parts)
    }

    /// Opens `extra` empty cell records directly after cell `ci`.
    fn open(&self, frame: &mut [u64], ci: usize, extra: usize) {
        let cells = frame[0] as usize;
        let after = self.cell(ci + 1);
        let width = extra * (1 + self.w);
        frame.copy_within(after..self.cell(cells), after + width);
        frame[after..after + width].fill(0);
        frame[0] = (cells + extra) as u64;
    }

    /// Writes the frame after `frames[..self.frame]`: its partition with
    /// cell `ti` replaced by `{v}` followed by the rest of the cell. Only
    /// `{v}` is unstable. Every other cell stays stable, since sub-cells
    /// of a uniform cell are uniform. So does the rest of the cell: its
    /// counts are the whole cell's, which are uniform on every cell, minus
    /// those of `{v}`, which comes first and so is stable before the rest
    /// is ever scanned.
    fn individualize(&self, frames: &mut [u64], ti: usize, v: usize) {
        let (parent, child) = frames.split_at_mut(self.frame);
        let cs = 1 + self.w;
        let cells = parent[0] as usize;
        let (t, end) = (self.cell(ti), self.cell(cells));
        child[0] = cells as u64 + 1;
        child[1] = v as u64;
        child[2..t].copy_from_slice(&parent[2..t]);
        child[t + 2 * cs..end + cs].copy_from_slice(&parent[t + cs..end]);
        child[t] = 1;
        child[t + 1..t + cs].fill(0);
        set_bit(&mut child[t + 1..t + cs], v);
        let rest = t + cs;
        child[rest] = ((parent[t] & SIZE) - 1) | STABLE;
        child[rest + 1..rest + cs].copy_from_slice(&parent[t + 1..t + cs]);
        clear_bit(&mut child[rest + 1..rest + cs], v);
    }
}

/// One individualization–refinement search (see the module docs for the
/// ordered-partition contract it keeps).
struct Search<'g> {
    g: &'g Graph,
    lay: Layout,
    /// Count the leaves attaining the canonical key instead of pruning
    /// by automorphisms; no generator is stored.
    count_mode: bool,
    /// The state [`Layout`] describes, in one allocation that grows only
    /// when the path gets deeper than it has been.
    arena: Vec<u64>,
    /// Discovered automorphisms (vertex → vertex), `n` entries each.
    gens: Vec<usize>,
    /// Indices of the generators that fix the current prefix pointwise.
    fixing: Vec<usize>,
    /// Leaves attaining the best key (0 before the first leaf).
    canonical_leaves: u64,
}

impl<'g> Search<'g> {
    /// Runs the search on a graph of order ≥ 1.
    fn run(g: &'g Graph, count_mode: bool) -> Self {
        let lay = Layout::new(g);
        // Room for a few levels up front: most searches stay that shallow.
        let mut arena = Vec::with_capacity(lay.fixed + 4 * lay.frame);
        arena.resize(lay.fixed + lay.frame, 0);
        // The root partition: one cell holding every vertex.
        let root = &mut arena[lay.fixed..];
        root[0] = 1;
        root[lay.cell(0)] = lay.n as u64;
        for v in 0..lay.n {
            set_bit(&mut root[lay.cell(0) + 1..], v);
        }
        let mut search = Search {
            g,
            lay,
            count_mode,
            arena,
            gens: Vec::new(),
            fixing: Vec::new(),
            canonical_leaves: 0,
        };
        search.node(0);
        search
    }

    fn node(&mut self, depth: usize) {
        let lay = self.lay;
        let base = depth * lay.frame;
        let p = lay.parts(&mut self.arena);
        let frame = &mut p.frames[base..base + lay.frame];
        lay.refine(self.g, frame, p.counts, p.values);
        let cells = frame[0] as usize;
        if cells == lay.n {
            self.leaf(base);
            return;
        }
        let ti = (0..cells)
            .find(|&c| frame[lay.cell(c)] & SIZE > 1)
            .expect("non-discrete partition has a non-singleton cell");
        self.candidates(depth, ti);
        let end = lay.fixed + base + 2 * lay.frame;
        if self.arena.len() < end {
            self.arena.resize(end, 0);
        }
        let cands = lay.fixed + base + lay.cands();
        let mut from = 0;
        while let Some(v) = next_bit(&self.arena[cands..cands + lay.w], from) {
            from = v + 1;
            lay.individualize(&mut self.arena[lay.fixed + base..], ti, v);
            self.node(depth + 1);
        }
    }

    /// Writes the candidate bitset of the frame at `depth`: the smallest
    /// member of each orbit of target cell `ti` under the generators found
    /// so far that fix the individualized prefix pointwise.
    fn candidates(&mut self, depth: usize, ti: usize) {
        let (lay, n) = (self.lay, self.lay.n);
        let p = lay.parts(&mut self.arena);
        let base = depth * lay.frame;
        let (t, cands) = (base + lay.cell(ti) + 1, base + lay.cands());
        p.frames.copy_within(t..t + lay.w, cands);
        if self.count_mode || self.gens.is_empty() {
            return;
        }
        self.fixing.clear();
        for (gi, gen) in self.gens.chunks_exact(n).enumerate() {
            let fixes = (1..=depth).all(|d| {
                let v = p.frames[d * lay.frame + 1] as usize;
                gen[v] == v
            });
            if fixes {
                self.fixing.push(gi);
            }
        }
        if self.fixing.is_empty() {
            return;
        }
        p.seen.fill(0);
        for wi in 0..lay.w {
            let mut word = p.frames[t + wi];
            while word != 0 {
                let v = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if has_bit(p.seen, v) {
                    clear_bit(&mut p.frames[cands..cands + lay.w], v);
                    continue;
                }
                // `v` is the smallest member of its orbit: close the orbit.
                set_bit(p.seen, v);
                set_bit(p.frontier, v);
                while let Some(x) = next_bit(p.frontier, 0) {
                    clear_bit(p.frontier, x);
                    for &gi in &self.fixing {
                        let y = self.gens[gi * n + x];
                        if !has_bit(p.seen, y) {
                            set_bit(p.seen, y);
                            set_bit(p.frontier, y);
                        }
                    }
                }
            }
        }
    }

    /// Packs the discrete partition's labelling into the key buffer and
    /// compares it with the best leaf, keeping the first greatest and
    /// recording the automorphism between equal leaves.
    fn leaf(&mut self, base: usize) {
        let (g, lay) = (self.g, self.lay);
        let p = lay.parts(&mut self.arena);
        for (k, inv) in p.inv.iter_mut().enumerate() {
            let cell = base + lay.cell(k) + 1;
            *inv = next_bit(&p.frames[cell..cell + lay.w], 0)
                .expect("a discrete partition's cells are singletons") as u64;
        }
        let mut order = if self.canonical_leaves == 0 {
            Ordering::Greater
        } else {
            Ordering::Equal
        };
        let (mut word, mut idx) = (0u64, 0usize);
        for (i, &vi) in p.inv.iter().enumerate() {
            let row = g.row(vi as usize);
            for &u in &p.inv[i + 1..] {
                let u = u as usize;
                word |= (row[u / 64] >> (u % 64) & 1) << (63 - idx % 64);
                idx += 1;
                if idx % 64 == 0 {
                    if !settle(p.key, p.best, idx / 64 - 1, word, &mut order) {
                        return;
                    }
                    word = 0;
                }
            }
        }
        // The last, partial word (below order 2, the one empty word).
        if (idx % 64 != 0 || idx == 0) && !settle(p.key, p.best, idx / 64, word, &mut order) {
            return;
        }
        if order == Ordering::Greater {
            p.best.copy_from_slice(p.key);
            p.best_inv.copy_from_slice(p.inv);
            self.canonical_leaves = 1;
            return;
        }
        self.canonical_leaves += 1;
        // Both labellings give the same graph, so best⁻¹ ∘ perm is an
        // automorphism: it maps the vertex labelled k here to the one
        // labelled k at the best leaf.
        if !self.count_mode && p.inv != p.best_inv {
            let at = self.gens.len();
            self.gens.resize(at + lay.n, 0);
            for (&v, &b) in p.inv.iter().zip(p.best_inv.iter()) {
                self.gens[at + v as usize] = b as usize;
            }
        }
    }

    /// `labels[v]`: the canonical label of vertex `v`.
    fn labels(&mut self) -> Vec<usize> {
        let p = self.lay.parts(&mut self.arena);
        let mut labels = vec![0; self.lay.n];
        for (k, &v) in p.best_inv.iter().enumerate() {
            labels[v as usize] = k;
        }
        labels
    }

    fn key(&mut self) -> CanonKey {
        CanonKey {
            n: self.lay.n,
            bits: self.lay.parts(&mut self.arena).best.into(),
        }
    }
}

/// The complete result of one individualization–refinement search:
/// canonical form, canonical key, the relabelling that produced it, the
/// orbit partition of the vertices under `Aut(G)`, and the discovered
/// automorphism generators.
///
/// This is the fused entry point the enumeration crates build canonical-
/// construction pruning on: one search yields everything the McKay-style
/// accept test needs (orbits of the child) *and* everything mask-orbit
/// pruning needs (generators of the parent), at the cost of
/// [`Graph::canonical_form_and_key`] alone.
#[derive(Debug, Clone)]
pub struct CanonicalSearch {
    /// The canonical form (a relabelled copy equal for all graphs of the
    /// isomorphism class).
    pub form: Graph,
    /// The canonical key; equal iff isomorphic.
    pub key: CanonKey,
    /// `labels[v]` is the canonical label vertex `v` receives in
    /// [`CanonicalSearch::form`].
    pub labels: Vec<usize>,
    /// `orbits[v]` is the smallest vertex in `v`'s orbit under `Aut(G)`:
    /// `orbits[u] == orbits[v]` iff some automorphism maps `u` to `v`.
    pub orbits: Vec<usize>,
    /// Automorphism generators (vertex → vertex maps) discovered by the
    /// search. They generate the full automorphism group — the property
    /// the orbit partition (and the enumeration pruning built on it)
    /// relies on, cross-checked against brute force in the test suite.
    pub generators: Vec<Vec<usize>>,
}

impl CanonicalSearch {
    /// Orbit representatives (one smallest vertex per orbit), ascending.
    pub fn orbit_representatives(&self) -> Vec<usize> {
        let mut reps: Vec<usize> = (0..self.orbits.len())
            .filter(|&v| self.orbits[v] == v)
            .collect();
        reps.dedup();
        reps
    }
}

/// Collapses discovered generators into the orbit partition
/// (union-find, path-halving; orbit id = smallest member).
fn orbits_from_generators<'a>(
    n: usize,
    generators: impl IntoIterator<Item = &'a [usize]>,
) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    for gen in generators {
        for (v, &w) in gen.iter().enumerate() {
            let (a, b) = (find(&mut parent, v), find(&mut parent, w));
            if a != b {
                // Root the union at the smaller vertex so the final
                // labels are canonical (smallest member of the orbit).
                parent[a.max(b)] = a.min(b);
            }
        }
    }
    for v in 0..n {
        parent[v] = find(&mut parent, v);
    }
    parent
}

/// The key of the order-0 graph.
fn empty_key() -> CanonKey {
    CanonKey {
        n: 0,
        bits: Box::new([]),
    }
}

impl Graph {
    /// Runs the individualization–refinement search once and returns the
    /// canonical form, key, labelling, vertex orbits and automorphism
    /// generators together — see [`CanonicalSearch`].
    pub fn canonical_search(&self) -> CanonicalSearch {
        let n = self.order();
        if n == 0 {
            return CanonicalSearch {
                form: Graph::empty(0),
                key: empty_key(),
                labels: Vec::new(),
                orbits: Vec::new(),
                generators: Vec::new(),
            };
        }
        let mut search = Search::run(self, false);
        let labels = search.labels();
        CanonicalSearch {
            form: self.relabel(&labels),
            key: search.key(),
            orbits: orbits_from_generators(n, search.gens.chunks_exact(n)),
            generators: search.gens.chunks_exact(n).map(<[usize]>::to_vec).collect(),
            labels,
        }
    }

    /// The canonical relabelling permutation: vertex `v` of `self` receives
    /// label `canonical_permutation()[v]` in the canonical form.
    pub fn canonical_permutation(&self) -> Vec<usize> {
        if self.order() == 0 {
            return Vec::new();
        }
        Search::run(self, false).labels()
    }

    /// The canonical form: a relabelled copy equal for all graphs in this
    /// graph's isomorphism class.
    pub fn canonical_form(&self) -> Graph {
        self.relabel(&self.canonical_permutation())
    }

    /// The canonical key (order + packed canonical adjacency); equal iff
    /// isomorphic. This is the hash key used by the enumeration crate.
    pub fn canonical_key(&self) -> CanonKey {
        if self.order() == 0 {
            return empty_key();
        }
        Search::run(self, false).key()
    }

    /// Packs this graph's **own** adjacency into a key without any
    /// canonical search — O(n²), no individualization–refinement.
    ///
    /// The result equals [`Graph::canonical_key`] exactly when `self`
    /// already *is* a canonical form (the canonical form's identity
    /// labelling is its own canonical labelling). Consumers holding
    /// canonical forms at rest — the classification atlas replaying a
    /// stored sweep in engine order — use this to recover sort keys
    /// without paying the search per graph.
    pub fn packed_self_key(&self) -> CanonKey {
        let n = self.order();
        if n == 0 {
            return empty_key();
        }
        let mut bits = vec![0u64; words_for(n * (n - 1) / 2).max(1)];
        let mut idx = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                if self.has_edge(i, j) {
                    bits[idx / 64] |= 1 << (63 - idx % 64);
                }
                idx += 1;
            }
        }
        CanonKey {
            n,
            bits: bits.into_boxed_slice(),
        }
    }

    /// The canonical form and its key from a *single*
    /// individualization–refinement search.
    ///
    /// [`Graph::canonical_form`] followed by [`Graph::canonical_key`]
    /// runs the search twice; enumeration inner loops (which
    /// canonicalize every augmentation candidate) use this fused entry
    /// point to halve that cost. The returned key equals
    /// `self.canonical_key()` and the returned graph equals
    /// `self.canonical_form()`.
    pub fn canonical_form_and_key(&self) -> (Graph, CanonKey) {
        if self.order() == 0 {
            return (Graph::empty(0), empty_key());
        }
        let mut search = Search::run(self, false);
        (self.relabel(&search.labels()), search.key())
    }

    /// Isomorphism test via canonical keys.
    pub fn is_isomorphic(&self, other: &Graph) -> bool {
        self.order() == other.order()
            && self.edge_count() == other.edge_count()
            && self.degree_sequence() == other.degree_sequence()
            && self.canonical_key() == other.canonical_key()
    }

    /// Order of the automorphism group.
    ///
    /// Runs the individualization–refinement search without automorphism
    /// pruning and counts leaves attaining the canonical key (these form a
    /// coset of `Aut(G)`). Exponential for extremely symmetric graphs;
    /// intended for graphs of order ≲ 10 or with small groups.
    pub fn automorphism_count(&self) -> u64 {
        if self.order() == 0 {
            return 1;
        }
        Search::run(self, true).canonical_leaves
    }
}

/// The clone-per-node search the module's search is held to: the same
/// ordered-partition contract, written plainly (a `Vec` per cell, a
/// cloned partition per child, a mask per splitter scan, a key and a
/// permutation per leaf).
#[cfg(test)]
mod oracle {
    use super::{orbits_from_generators, CanonKey, CanonicalSearch};
    use crate::bitset::words_for;
    use crate::graph::Graph;

    /// Packs the upper triangle (row-major, `u < v`) of `g` relabelled by
    /// `perm` (vertex `v` gets label `perm[v]`).
    fn packed_key(g: &Graph, perm: &[usize]) -> Box<[u64]> {
        let n = g.order();
        let nbits = n * (n.saturating_sub(1)) / 2;
        let mut bits = vec![0u64; words_for(nbits).max(1)];
        let mut inv = vec![0usize; n];
        for (v, &p) in perm.iter().enumerate() {
            inv[p] = v;
        }
        let mut idx = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                if g.has_edge(inv[i], inv[j]) {
                    bits[idx / 64] |= 1 << (63 - (idx % 64));
                }
                idx += 1;
            }
        }
        bits.into_boxed_slice()
    }

    /// Ordered partition of the vertex set into cells.
    type Partition = Vec<Vec<usize>>;

    fn cell_mask(n: usize, cell: &[usize]) -> Vec<u64> {
        let mut mask = vec![0u64; words_for(n).max(1)];
        for &v in cell {
            mask[v / 64] |= 1 << (v % 64);
        }
        mask
    }

    fn count_in(g: &Graph, v: usize, mask: &[u64]) -> usize {
        g.row(v)
            .iter()
            .zip(mask)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Equitable refinement: splits cells by neighbour counts into other cells
    /// until stable. Deterministic: subcells are ordered by ascending count.
    fn refine(g: &Graph, cells: &mut Partition) {
        let n = g.order();
        loop {
            let mut split_done = false;
            'scan: for si in 0..cells.len() {
                let mask = cell_mask(n, &cells[si]);
                for ci in 0..cells.len() {
                    if cells[ci].len() <= 1 {
                        continue;
                    }
                    let counts: Vec<usize> =
                        cells[ci].iter().map(|&v| count_in(g, v, &mask)).collect();
                    let first = counts[0];
                    if counts.iter().all(|&c| c == first) {
                        continue;
                    }
                    // Stable split by ascending count.
                    let mut pairs: Vec<(usize, usize)> =
                        counts.into_iter().zip(cells[ci].iter().copied()).collect();
                    pairs.sort_by_key(|&(c, v)| (c, v));
                    let mut subcells: Partition = Vec::new();
                    let mut cur_count = usize::MAX;
                    for (c, v) in pairs {
                        if c != cur_count {
                            subcells.push(Vec::new());
                            cur_count = c;
                        }
                        subcells.last_mut().expect("just pushed").push(v);
                    }
                    cells.splice(ci..=ci, subcells);
                    split_done = true;
                    break 'scan;
                }
            }
            if !split_done {
                return;
            }
        }
    }

    struct Search<'g> {
        g: &'g Graph,
        best_key: Option<Box<[u64]>>,
        best_perm: Vec<usize>,
        /// Discovered automorphisms (vertex -> vertex maps).
        generators: Vec<Vec<usize>>,
        /// Individualized vertices along the current path.
        prefix: Vec<usize>,
        /// When true, skip automorphism pruning and count canonical leaves.
        count_mode: bool,
        canonical_leaves: u64,
    }

    impl<'g> Search<'g> {
        fn new(g: &'g Graph, count_mode: bool) -> Self {
            Search {
                g,
                best_key: None,
                best_perm: Vec::new(),
                generators: Vec::new(),
                prefix: Vec::new(),
                count_mode,
                canonical_leaves: 0,
            }
        }

        fn leaf(&mut self, cells: &Partition) {
            let n = self.g.order();
            let mut perm = vec![0usize; n];
            for (label, cell) in cells.iter().enumerate() {
                perm[cell[0]] = label;
            }
            let key = packed_key(self.g, &perm);
            match &self.best_key {
                None => {
                    self.best_key = Some(key);
                    self.best_perm = perm;
                    self.canonical_leaves = 1;
                }
                Some(best) => {
                    if key > *best {
                        self.best_key = Some(key);
                        self.best_perm = perm;
                        self.canonical_leaves = 1;
                    } else if key == *best {
                        self.canonical_leaves += 1;
                        // perm and best_perm map G to the same labelled graph:
                        // phi = best_perm^{-1} . perm is an automorphism.
                        let mut inv_best = vec![0usize; n];
                        for (v, &p) in self.best_perm.iter().enumerate() {
                            inv_best[p] = v;
                        }
                        let phi: Vec<usize> = (0..n).map(|v| inv_best[perm[v]]).collect();
                        if phi.iter().enumerate().any(|(v, &p)| v != p) {
                            self.generators.push(phi);
                        }
                    }
                }
            }
        }

        /// Orbit representatives of `cell` under generators fixing the current
        /// prefix pointwise. Sound pruning: branches within one orbit explore
        /// identical leaf-key sets.
        fn branch_candidates(&self, cell: &[usize]) -> Vec<usize> {
            if self.count_mode || self.generators.is_empty() {
                return cell.to_vec();
            }
            let fixing: Vec<&Vec<usize>> = self
                .generators
                .iter()
                .filter(|gen| self.prefix.iter().all(|&p| gen[p] == p))
                .collect();
            if fixing.is_empty() {
                return cell.to_vec();
            }
            let n = self.g.order();
            let mut orbit_of = vec![usize::MAX; n];
            let mut reps = Vec::new();
            for &start in cell {
                if orbit_of[start] != usize::MAX {
                    continue;
                }
                reps.push(start);
                let mut stack = vec![start];
                orbit_of[start] = start;
                while let Some(v) = stack.pop() {
                    for gen in &fixing {
                        let w = gen[v];
                        if orbit_of[w] == usize::MAX {
                            orbit_of[w] = start;
                            stack.push(w);
                        }
                    }
                }
            }
            reps
        }

        fn run(&mut self, mut cells: Partition) {
            refine(self.g, &mut cells);
            if cells.iter().all(|c| c.len() == 1) {
                self.leaf(&cells);
                return;
            }
            let ti = cells
                .iter()
                .position(|c| c.len() > 1)
                .expect("non-discrete partition has a non-singleton cell");
            let target = cells[ti].clone();
            for v in self.branch_candidates(&target) {
                let mut child = cells.clone();
                let rest: Vec<usize> = target.iter().copied().filter(|&u| u != v).collect();
                child.splice(ti..=ti, [vec![v], rest]);
                self.prefix.push(v);
                self.run(child);
                self.prefix.pop();
            }
        }
    }

    fn search(g: &Graph, count_mode: bool) -> Search<'_> {
        let mut search = Search::new(g, count_mode);
        search.run(vec![(0..g.order()).collect()]);
        search
    }

    /// The key and labelling of a graph of order ≥ 1.
    pub(super) fn key_and_labels(g: &Graph) -> (CanonKey, Vec<usize>) {
        let search = search(g, false);
        let bits = search
            .best_key
            .expect("search of nonempty graph yields a leaf");
        (CanonKey { n: g.order(), bits }, search.best_perm)
    }

    /// [`Graph::canonical_search`] of a graph of order ≥ 1.
    pub(super) fn canonical_search(g: &Graph) -> CanonicalSearch {
        let search = search(g, false);
        let orbits = orbits_from_generators(g.order(), search.generators.iter().map(Vec::as_slice));
        CanonicalSearch {
            form: g.relabel(&search.best_perm),
            key: CanonKey {
                n: g.order(),
                bits: search
                    .best_key
                    .expect("search of nonempty graph yields a leaf"),
            },
            labels: search.best_perm,
            orbits,
            generators: search.generators,
        }
    }

    /// [`Graph::automorphism_count`] of a graph of order ≥ 1.
    pub(super) fn automorphism_count(g: &Graph) -> u64 {
        search(g, true).canonical_leaves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph6::tests::{random_graph, splitmix};

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    fn petersen() -> Graph {
        // Outer C5 (0..5), inner pentagram (5..10), spokes.
        let mut e = Vec::new();
        for i in 0..5 {
            e.push((i, (i + 1) % 5));
            e.push((5 + i, 5 + (i + 2) % 5));
            e.push((i, 5 + i));
        }
        Graph::from_edges(10, e).unwrap()
    }

    #[test]
    fn packed_self_key_of_canonical_form_is_the_canonical_key() {
        for g in [
            Graph::empty(0),
            Graph::empty(1),
            cycle(5),
            cycle(8),
            petersen(),
            Graph::complete(6),
            Graph::from_edges(6, [(0, 3), (1, 4), (2, 5), (0, 5), (1, 3)]).unwrap(),
        ] {
            let (form, key) = g.canonical_form_and_key();
            assert_eq!(form.packed_self_key(), key, "graph {g:?}");
            assert_eq!(form.packed_self_key().prefix_word(), key.prefix_word());
        }
    }

    #[test]
    fn canonical_form_is_permutation_invariant() {
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]).unwrap();
        let perms = [
            vec![1, 2, 3, 4, 5, 0],
            vec![5, 4, 3, 2, 1, 0],
            vec![2, 0, 4, 1, 5, 3],
        ];
        let base = g.canonical_form();
        for p in &perms {
            assert_eq!(g.relabel(p).canonical_form(), base);
            assert_eq!(g.relabel(p).canonical_key(), g.canonical_key());
        }
    }

    #[test]
    fn isomorphism_distinguishes() {
        // Two non-isomorphic trees on 4 vertices: path vs star.
        let path = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let star = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        assert!(!path.is_isomorphic(&star));
        assert!(path.is_isomorphic(&path.relabel(&[3, 1, 0, 2])));
    }

    #[test]
    fn c6_vs_two_triangles() {
        // Same order, size and degree sequence; not isomorphic.
        let two_triangles =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        assert!(!cycle(6).is_isomorphic(&two_triangles));
    }

    #[test]
    fn automorphism_counts_known_groups() {
        assert_eq!(cycle(5).automorphism_count(), 10); // dihedral D5
        assert_eq!(cycle(6).automorphism_count(), 12); // D6
        assert_eq!(Graph::complete(4).automorphism_count(), 24); // S4
        assert_eq!(Graph::empty(4).automorphism_count(), 24);
        let star = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(star.automorphism_count(), 6); // S3 on leaves
        let path = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(path.automorphism_count(), 2);
    }

    #[test]
    fn petersen_automorphisms_and_self_iso() {
        let p = petersen();
        assert_eq!(p.automorphism_count(), 120);
        // Petersen is vertex-transitive; relabelings are isomorphic.
        assert!(p.is_isomorphic(&p.relabel(&[9, 8, 7, 6, 5, 4, 3, 2, 1, 0])));
    }

    #[test]
    fn complete_graph_canonical_fast_path() {
        // Automorphism pruning must keep K8 tractable.
        let k8 = Graph::complete(8);
        assert_eq!(k8.canonical_form(), k8);
    }

    #[test]
    fn canonical_key_orders_and_hashes() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(cycle(5).canonical_key());
        set.insert(cycle(5).relabel(&[4, 3, 2, 1, 0]).canonical_key());
        set.insert(cycle(6).canonical_key());
        assert_eq!(set.len(), 2);
        assert_eq!(cycle(5).canonical_key().order(), 5);
    }

    #[test]
    fn fused_form_and_key_matches_separate_calls() {
        for g in [
            petersen(),
            cycle(6),
            Graph::complete(5),
            Graph::empty(3),
            Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]).unwrap(),
        ] {
            let (form, key) = g.canonical_form_and_key();
            assert_eq!(form, g.canonical_form());
            assert_eq!(key, g.canonical_key());
            // Idempotence: the canonical form keys to the same key.
            assert_eq!(form.canonical_key(), key);
        }
        let (form, key) = Graph::empty(0).canonical_form_and_key();
        assert_eq!(form.order(), 0);
        assert_eq!(key, Graph::empty(0).canonical_key());
        assert_eq!(key.prefix_word(), 0);
    }

    #[test]
    fn prefix_word_carries_leading_adjacency_bits() {
        // K5's canonical upper triangle is all ones: 10 bits set from the
        // top of the word.
        let (_, key) = Graph::complete(5).canonical_form_and_key();
        assert_eq!(key.prefix_word() >> 54, 0b1111111111);
        // An edgeless graph packs all zeros.
        assert_eq!(Graph::empty(5).canonical_key().prefix_word(), 0);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        assert_eq!(Graph::empty(0).canonical_key().order(), 0);
        assert_eq!(Graph::empty(1).automorphism_count(), 1);
        assert_eq!(Graph::empty(2).automorphism_count(), 2);
        assert!(Graph::empty(0).is_isomorphic(&Graph::empty(0)));
    }

    #[test]
    fn disconnected_graphs_canonicalize() {
        let a = Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap();
        let b = Graph::from_edges(5, [(3, 4), (1, 2)]).unwrap();
        assert!(a.is_isomorphic(&b));
    }

    /// True orbits by brute force: try every permutation of `0..n`, keep
    /// the automorphisms, union their orbits.
    fn brute_force_orbits(g: &Graph) -> Vec<usize> {
        let n = g.order();
        let mut orbit: Vec<usize> = (0..n).collect();
        let mut perm: Vec<usize> = (0..n).collect();
        // Heap's algorithm, iterative.
        let mut c = vec![0usize; n];
        let consider = |perm: &[usize], orbit: &mut Vec<usize>| {
            if g.relabel(perm) == *g {
                for (v, &w) in perm.iter().enumerate() {
                    let (a, b) = (orbit[v].min(orbit[w]), orbit[v].max(orbit[w]));
                    if a != b {
                        for o in orbit.iter_mut() {
                            if *o == b {
                                *o = a;
                            }
                        }
                    }
                }
            }
        };
        consider(&perm, &mut orbit);
        let mut i = 0;
        while i < n {
            if c[i] < i {
                if i % 2 == 0 {
                    perm.swap(0, i);
                } else {
                    perm.swap(c[i], i);
                }
                consider(&perm, &mut orbit);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        orbit
    }

    #[test]
    fn search_orbits_match_brute_force_on_small_graphs() {
        // The enumeration pruning's soundness rests on the discovered
        // generators generating the *full* automorphism group (finer
        // orbits would split one true orbit across representatives).
        // Cross-check every graph on <= 5 vertices plus assorted
        // 6/7-vertex shapes against all n! permutations.
        let mut graphs: Vec<Graph> = Vec::new();
        for n in 0..=5usize {
            let pairs: Vec<(usize, usize)> = (0..n)
                .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
                .collect();
            for mask in 0..(1u32 << pairs.len()) {
                let edges = pairs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &e)| e);
                graphs.push(Graph::from_edges(n, edges).unwrap());
            }
        }
        graphs.push(cycle(6));
        graphs.push(cycle(7));
        graphs.push(Graph::complete(6));
        graphs.push(
            Graph::from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3)]).unwrap(),
        );
        graphs.push(
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]).unwrap(),
        );
        for g in &graphs {
            let s = g.canonical_search();
            assert_eq!(s.orbits, brute_force_orbits(g), "orbits of {g:?}");
            for gen in &s.generators {
                assert_eq!(&g.relabel(gen), g, "non-automorphism generator for {g:?}");
            }
        }
    }

    #[test]
    fn canonical_search_agrees_with_existing_entry_points() {
        for g in [
            petersen(),
            cycle(6),
            Graph::complete(5),
            Graph::empty(3),
            Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]).unwrap(),
        ] {
            let s = g.canonical_search();
            assert_eq!(s.form, g.canonical_form());
            assert_eq!(s.key, g.canonical_key());
            assert_eq!(s.labels, g.canonical_permutation());
            // Orbit labels are the smallest member of each orbit.
            for (v, &o) in s.orbits.iter().enumerate() {
                assert!(o <= v);
                assert_eq!(s.orbits[o], o);
            }
        }
        let s = Graph::empty(0).canonical_search();
        assert!(s.orbits.is_empty() && s.generators.is_empty() && s.labels.is_empty());
    }

    /// Holds the search to the oracle on every field it returns, and the
    /// automorphism count too unless `count` is false.
    fn assert_matches_oracle(g: &Graph, count: bool) {
        let s = g.canonical_search();
        let o = oracle::canonical_search(g);
        assert_eq!(s.key, o.key, "key of {g:?}");
        assert_eq!(s.labels, o.labels, "labels of {g:?}");
        assert_eq!(s.form, o.form, "form of {g:?}");
        assert_eq!(s.orbits, o.orbits, "orbits of {g:?}");
        assert_eq!(s.generators, o.generators, "generators of {g:?}");
        if count {
            assert_eq!(
                g.automorphism_count(),
                oracle::automorphism_count(g),
                "automorphism count of {g:?}"
            );
        }
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    fn random_perm(state: &mut u64, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, (splitmix(state) % (i as u64 + 1)) as usize);
        }
        perm
    }

    /// The McGee graph, LCF [12, 7, -7]^8: 24 vertices, |Aut| = 32.
    fn mcgee() -> Graph {
        let mut g = cycle(24);
        for i in 0..24usize {
            let offset = [12, 7, 24 - 7][i % 3];
            g.add_edge(i, (i + offset) % 24);
        }
        g
    }

    #[test]
    fn search_matches_oracle_on_every_labelled_graph_up_to_six() {
        for n in 0..=6usize {
            let pairs: Vec<(usize, usize)> = (0..n)
                .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
                .collect();
            for mask in 0..(1u32 << pairs.len()) {
                let edges = pairs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &e)| e);
                let g = Graph::from_edges(n, edges).unwrap();
                if n == 0 {
                    let s = g.canonical_search();
                    assert_eq!(s.key, Graph::empty(0).packed_self_key());
                    assert_eq!(g.automorphism_count(), 1);
                } else {
                    assert_matches_oracle(&g, true);
                }
            }
        }
    }

    #[test]
    fn search_matches_oracle_on_seeded_random_graphs() {
        let mut state = 0x0716_2026_u64;
        for n in 7..=16usize {
            for density in [2u64, 4, 6] {
                for _ in 0..3 {
                    let g = random_graph(&mut state, n, density);
                    assert_matches_oracle(&g, true);
                    assert_matches_oracle(&g.relabel(&random_perm(&mut state, n)), true);
                }
            }
        }
    }

    #[test]
    fn search_matches_oracle_on_symmetric_and_multi_word_graphs() {
        // The prism C35 × K2: 70 vertices (two adjacency words), |Aut| = 140.
        let mut prism = Graph::empty(70);
        for i in 0..35 {
            prism.add_edge(i, (i + 1) % 35);
            prism.add_edge(35 + i, 35 + (i + 1) % 35);
            prism.add_edge(i, 35 + i);
        }
        let mut state = 0x70u64;
        let random70 = random_graph(&mut state, 70, 4);
        for g in [petersen(), mcgee(), prism, random70] {
            let n = g.order();
            assert_matches_oracle(&g, true);
            assert_matches_oracle(&g.relabel(&random_perm(&mut state, n)), true);
        }
        assert_eq!(mcgee().automorphism_count(), 32);
    }

    /// Every connected class of order `n`, built without the search under
    /// test: augment each class of order `k` by a new vertex over every
    /// non-empty neighbour mask, keeping the first candidate of each
    /// oracle key (as its oracle canonical form).
    fn connected_classes_by_oracle(n: usize) -> Vec<Graph> {
        let mut level = vec![Graph::empty(1)];
        for k in 1..n {
            let mut seen = std::collections::HashSet::new();
            let mut next = Vec::new();
            for parent in &level {
                for mask in 1..(1u64 << k) {
                    let child = parent.with_extra_vertex(&crate::VertexSet::from_mask(k, mask));
                    let (key, labels) = oracle::key_and_labels(&child);
                    if seen.insert(key) {
                        next.push(child.relabel(&labels));
                    }
                }
            }
            level = next;
        }
        level
    }

    #[test]
    #[ignore = "exhaustive over order 9, about a minute in release: \
                cargo test --release -p bnf-graph -- --ignored"]
    fn search_matches_oracle_on_every_connected_order_9_class() {
        let classes = connected_classes_by_oracle(9);
        assert_eq!(classes.len(), 261_080, "A001349(9)");
        let mut state = 0x0009_2026_u64;
        for g in &classes {
            assert_matches_oracle(g, false);
            assert_matches_oracle(&g.relabel(&random_perm(&mut state, 9)), false);
        }
        // Standalone timing, same process, best of three passes.
        let best_of_three = |search: &dyn Fn(&Graph) -> usize| {
            (0..3)
                .map(|_| {
                    let started = std::time::Instant::now();
                    let total: usize = classes.iter().map(search).sum();
                    assert!(total > 0);
                    started.elapsed()
                })
                .min()
                .expect("three passes")
        };
        let fast = best_of_three(&|g| g.canonical_search().labels.len());
        let plain = best_of_three(&|g| oracle::canonical_search(g).labels.len());
        eprintln!(
            "canonical_search over the {} order-9 forms: {fast:.2?} (oracle {plain:.2?}, {:.2}x)",
            classes.len(),
            plain.as_secs_f64() / fast.as_secs_f64()
        );
    }

    #[test]
    fn orbit_representatives_are_sorted_roots() {
        let s = petersen().canonical_search();
        // Petersen is vertex-transitive: one orbit.
        assert_eq!(s.orbit_representatives(), vec![0]);
        let star = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let s = star.canonical_search();
        assert_eq!(s.orbit_representatives(), vec![0, 1]);
    }
}
