//! Fixed-capacity bit sets over vertex indices.
//!
//! [`VertexSet`] is the public set type used throughout the workspace for
//! vertex subsets (components, orbits, neighbourhood snapshots). Internally
//! graphs store raw `u64` word rows; the free helpers here are shared by
//! both representations.

use std::fmt;

/// Number of `u64` words needed to hold `nbits` bits.
#[inline]
pub(crate) const fn words_for(nbits: usize) -> usize {
    nbits.div_ceil(64)
}

/// Iterate the indices of set bits in a word slice.
#[inline]
pub(crate) fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        std::iter::successors(if w == 0 { None } else { Some(w) }, |&w| {
            let w = w & (w - 1);
            if w == 0 {
                None
            } else {
                Some(w)
            }
        })
        .map(move |w| wi * 64 + w.trailing_zeros() as usize)
    })
}

/// Count set bits in a word slice.
#[inline]
pub(crate) fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// The first set bit at or after `from` in a word slice.
#[inline]
pub(crate) fn next_bit(words: &[u64], from: usize) -> Option<usize> {
    let mut wi = from / 64;
    let mut word = *words.get(wi)? & (!0u64 << (from % 64));
    loop {
        if word != 0 {
            return Some(wi * 64 + word.trailing_zeros() as usize);
        }
        wi += 1;
        word = *words.get(wi)?;
    }
}

/// Set bit `v` of a word slice.
#[inline]
pub(crate) fn set_bit(words: &mut [u64], v: usize) {
    words[v / 64] |= 1 << (v % 64);
}

/// Clear bit `v` of a word slice.
#[inline]
pub(crate) fn clear_bit(words: &mut [u64], v: usize) {
    words[v / 64] &= !(1 << (v % 64));
}

/// Whether bit `v` of a word slice is set.
#[inline]
pub(crate) fn has_bit(words: &[u64], v: usize) -> bool {
    words[v / 64] >> (v % 64) & 1 == 1
}

/// A set of vertex indices `0..capacity` backed by a bit vector.
///
/// The capacity is fixed at construction; inserting an index at or beyond
/// the capacity panics. Two sets compare equal when they have the same
/// capacity and the same members.
///
/// # Examples
///
/// ```
/// use bnf_graph::VertexSet;
///
/// let mut s = VertexSet::new(10);
/// s.insert(3);
/// s.insert(7);
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(3));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 7]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct VertexSet {
    nbits: usize,
    words: Vec<u64>,
}

impl VertexSet {
    /// Creates an empty set with capacity for vertices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        VertexSet {
            nbits: capacity,
            words: vec![0; words_for(capacity)],
        }
    }

    /// Creates the full set `{0, 1, ..., capacity - 1}`.
    pub fn full(capacity: usize) -> Self {
        let mut s = VertexSet::new(capacity);
        for w in 0..s.words.len() {
            s.words[w] = !0;
        }
        s.trim();
        s
    }

    /// Builds a set over `0..capacity` from the low `capacity` bits of
    /// `mask` (bit `v` set ⇒ vertex `v` is a member). Bits at or above
    /// `capacity` are ignored.
    ///
    /// This is the enumeration crates' neighbour-mask decoder: vertex
    /// augmentation iterates all `2^k` neighbour sets of a new vertex as
    /// a `u64` counter.
    ///
    /// # Panics
    ///
    /// Panics if `capacity > 64` (a single word cannot address it).
    pub fn from_mask(capacity: usize, mask: u64) -> Self {
        assert!(capacity <= 64, "from_mask addresses at most 64 vertices");
        let mut s = VertexSet::new(capacity);
        if let Some(first) = s.words.first_mut() {
            *first = if capacity == 64 {
                mask
            } else {
                mask & ((1u64 << capacity) - 1)
            };
        }
        s
    }

    /// Builds a set from raw words (extra high bits must be clear).
    pub(crate) fn from_words(nbits: usize, words: Vec<u64>) -> Self {
        debug_assert_eq!(words.len(), words_for(nbits));
        let mut s = VertexSet { nbits, words };
        s.trim();
        s
    }

    fn trim(&mut self) {
        let tail = self.nbits % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// The fixed capacity (universe size) of this set.
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        popcount(&self.words)
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Membership test.
    ///
    /// # Panics
    ///
    /// Panics if `v >= capacity`.
    pub fn contains(&self, v: usize) -> bool {
        assert!(v < self.nbits, "vertex {v} out of range 0..{}", self.nbits);
        self.words[v / 64] >> (v % 64) & 1 == 1
    }

    /// Inserts `v`, returning whether it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `v >= capacity`.
    pub fn insert(&mut self, v: usize) -> bool {
        assert!(v < self.nbits, "vertex {v} out of range 0..{}", self.nbits);
        let was = self.words[v / 64] >> (v % 64) & 1;
        self.words[v / 64] |= 1u64 << (v % 64);
        was == 0
    }

    /// Removes `v`, returning whether it was present.
    ///
    /// # Panics
    ///
    /// Panics if `v >= capacity`.
    pub fn remove(&mut self, v: usize) -> bool {
        assert!(v < self.nbits, "vertex {v} out of range 0..{}", self.nbits);
        let was = self.words[v / 64] >> (v % 64) & 1;
        self.words[v / 64] &= !(1u64 << (v % 64));
        was == 1
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Iterates members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        ones(&self.words)
    }

    /// The smallest member, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &VertexSet) {
        assert_eq!(self.nbits, other.nbits, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &VertexSet) {
        assert_eq!(self.nbits, other.nbits, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`).
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn difference_with(&mut self, other: &VertexSet) {
        assert_eq!(self.nbits, other.nbits, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Whether `self` and `other` share no members.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn is_disjoint(&self, other: &VertexSet) -> bool {
        assert_eq!(self.nbits, other.nbits, "capacity mismatch");
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Whether every member of `self` is in `other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn is_subset(&self, other: &VertexSet) -> bool {
        assert_eq!(self.nbits, other.nbits, "capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }
}

impl fmt::Debug for VertexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for VertexSet {
    /// Collects indices into a set whose capacity is one more than the
    /// largest index (or 0 for an empty iterator).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |&m| m + 1);
        let mut s = VertexSet::new(cap);
        for v in items {
            s.insert(v);
        }
        s
    }
}

impl Extend<usize> for VertexSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = VertexSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert_eq!(s.len(), 3);
        assert!(s.contains(129));
        assert!(!s.contains(1));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn from_mask_decodes_low_bits() {
        let s = VertexSet::from_mask(5, 0b10110);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2, 4]);
        assert_eq!(s.capacity(), 5);
        // Bits at or above capacity are ignored.
        let t = VertexSet::from_mask(3, 0b11111000 | 0b101);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(VertexSet::from_mask(0, !0).len(), 0);
        assert_eq!(VertexSet::from_mask(64, !0).len(), 64);
    }

    #[test]
    fn full_set_has_exact_members() {
        for cap in [0, 1, 63, 64, 65, 128, 130] {
            let s = VertexSet::full(cap);
            assert_eq!(s.len(), cap, "cap={cap}");
            assert_eq!(s.iter().collect::<Vec<_>>(), (0..cap).collect::<Vec<_>>());
        }
    }

    #[test]
    fn iter_is_sorted() {
        let s: VertexSet = [5usize, 2, 99, 64].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 5, 64, 99]);
    }

    #[test]
    fn set_algebra() {
        let a: VertexSet = [1usize, 2, 3].into_iter().collect();
        let mut b = VertexSet::new(a.capacity());
        b.insert(3);
        b.insert(0);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 2]);
        assert!(i.is_subset(&a));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        VertexSet::new(4).insert(4);
    }

    #[test]
    fn ones_helper_spans_words() {
        let words = vec![1u64 << 63, 1u64];
        assert_eq!(ones(&words).collect::<Vec<_>>(), vec![63, 64]);
        assert_eq!(popcount(&words), 2);
    }

    #[test]
    fn empty_and_clear() {
        let mut s = VertexSet::new(10);
        assert!(s.is_empty());
        s.insert(9);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
    }
}
