//! Thread identifiers and dense thread-indexed sets.
//!
//! The fair scheduler of the companion `chess-core` crate manipulates sets
//! of threads heavily (the `P`, `E`, `D` and `S` structures of Algorithm 1
//! in the paper), so [`TidSet`] is a growable bitset over `u64` words with
//! cheap union/intersection/difference.

use std::fmt;

/// Identifier of a guest thread inside a [`crate::Kernel`].
///
/// Thread ids are dense: the `i`-th thread added to a kernel (either at
/// setup time or by a dynamic spawn) gets id `i`. This makes them usable
/// as indices into per-thread tables.
///
/// # Examples
///
/// ```
/// use chess_kernel::ThreadId;
/// let t = ThreadId::new(3);
/// assert_eq!(t.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(u32);

impl ThreadId {
    /// Creates a thread id from a dense index.
    pub const fn new(index: usize) -> Self {
        ThreadId(index as u32)
    }

    /// Returns the dense index of this thread id.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<ThreadId> for usize {
    fn from(t: ThreadId) -> usize {
        t.index()
    }
}

/// A growable set of [`ThreadId`]s backed by `u64` bitset words.
///
/// All binary operations treat missing high words as zero, so sets of
/// different capacities compose without reallocation surprises.
/// Equality and hashing follow the same rule: they compare
/// [`TidSet::canonical_words`], so two sets with the same members are
/// equal however their backing storage grew or shrank.
///
/// # Examples
///
/// ```
/// use chess_kernel::{ThreadId, TidSet};
/// let mut s = TidSet::new();
/// s.insert(ThreadId::new(1));
/// s.insert(ThreadId::new(70));
/// assert!(s.contains(ThreadId::new(70)));
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Default)]
pub struct TidSet {
    words: Vec<u64>,
}

impl Clone for TidSet {
    fn clone(&self) -> Self {
        TidSet {
            words: self.words.clone(),
        }
    }

    /// Copies `source` into `self`, reusing `self`'s allocation.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
    }
}

impl PartialEq for TidSet {
    fn eq(&self, other: &Self) -> bool {
        self.canonical_words() == other.canonical_words()
    }
}

impl Eq for TidSet {}

impl std::hash::Hash for TidSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.canonical_words().hash(state);
    }
}

impl TidSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        TidSet { words: Vec::new() }
    }

    /// Creates a set containing all thread ids `0..n`.
    pub fn full(n: usize) -> Self {
        let mut s = TidSet::new();
        for i in 0..n {
            s.insert(ThreadId::new(i));
        }
        s
    }

    /// Makes this set `{0, .., n-1}` in place, reusing its allocation —
    /// the allocation-free form of [`TidSet::full`].
    pub fn fill(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n / 64, u64::MAX);
        let tail = n % 64;
        if tail > 0 {
            self.words.push((1u64 << tail) - 1);
        }
    }

    fn ensure(&mut self, word: usize) {
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
    }

    /// Inserts `t`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, t: ThreadId) -> bool {
        let (w, b) = (t.index() / 64, t.index() % 64);
        self.ensure(w);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `t`; returns `true` if it was present.
    pub fn remove(&mut self, t: ThreadId) -> bool {
        let (w, b) = (t.index() / 64, t.index() % 64);
        if w >= self.words.len() {
            return false;
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Returns whether `t` is in the set.
    pub fn contains(&self, t: ThreadId) -> bool {
        let (w, b) = (t.index() / 64, t.index() % 64);
        w < self.words.len() && self.words[w] & (1 << b) != 0
    }

    /// Returns the number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// In-place union: `self ∪= other`.
    pub fn union_with(&mut self, other: &TidSet) {
        self.ensure(other.words.len().saturating_sub(1));
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection: `self ∩= other`.
    pub fn intersect_with(&mut self, other: &TidSet) {
        for (i, a) in self.words.iter_mut().enumerate() {
            *a &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// In-place difference: `self \= other`.
    pub fn difference_with(&mut self, other: &TidSet) {
        for (i, a) in self.words.iter_mut().enumerate() {
            *a &= !other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// In-place `self ∪= a \ b`, without materializing the difference.
    pub fn union_with_difference(&mut self, a: &TidSet, b: &TidSet) {
        self.ensure(a.words.len().saturating_sub(1));
        for (i, (s, &w)) in self.words.iter_mut().zip(&a.words).enumerate() {
            *s |= w & !b.words.get(i).copied().unwrap_or(0);
        }
    }

    /// Returns `self ∪ other` as a new set.
    pub fn union(&self, other: &TidSet) -> TidSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns `self ∩ other` as a new set.
    pub fn intersection(&self, other: &TidSet) -> TidSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns `self \ other` as a new set.
    pub fn difference(&self, other: &TidSet) -> TidSet {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// Returns whether `self ∩ other` is nonempty.
    pub fn intersects(&self, other: &TidSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Returns whether every element of `self` is in `other`.
    pub fn is_subset(&self, other: &TidSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Iterates over the members in increasing id order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The backing bit words with trailing zero words trimmed — a
    /// canonical form: equal sets return equal slices regardless of
    /// insertion/removal history. Lets fingerprinting consume a set one
    /// word at a time instead of one member at a time.
    pub fn canonical_words(&self) -> &[u64] {
        let end = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        &self.words[..end]
    }

    /// Returns the smallest member, if any.
    pub fn first(&self) -> Option<ThreadId> {
        self.iter().next()
    }
}

impl FromIterator<ThreadId> for TidSet {
    fn from_iter<I: IntoIterator<Item = ThreadId>>(iter: I) -> Self {
        let mut s = TidSet::new();
        for t in iter {
            s.insert(t);
        }
        s
    }
}

impl Extend<ThreadId> for TidSet {
    fn extend<I: IntoIterator<Item = ThreadId>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

impl<'a> IntoIterator for &'a TidSet {
    type Item = ThreadId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the members of a [`TidSet`], in increasing id order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a TidSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = ThreadId;

    fn next(&mut self) -> Option<ThreadId> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(ThreadId::new(self.word * 64 + b));
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

impl fmt::Debug for TidSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = TidSet::new();
        assert!(s.insert(t(5)));
        assert!(!s.insert(t(5)));
        assert!(s.contains(t(5)));
        assert!(!s.contains(t(6)));
        assert!(s.remove(t(5)));
        assert!(!s.remove(t(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn grows_past_word_boundary() {
        let mut s = TidSet::new();
        s.insert(t(0));
        s.insert(t(63));
        s.insert(t(64));
        s.insert(t(200));
        assert_eq!(s.len(), 4);
        let v: Vec<_> = s.iter().map(|x| x.index()).collect();
        assert_eq!(v, vec![0, 63, 64, 200]);
    }

    #[test]
    fn full_contains_range() {
        let s = TidSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(t(0)));
        assert!(s.contains(t(69)));
        assert!(!s.contains(t(70)));
    }

    #[test]
    fn set_algebra() {
        let a: TidSet = [t(1), t(2), t(65)].into_iter().collect();
        let b: TidSet = [t(2), t(65), t(100)].into_iter().collect();
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersection(&b).len(), 2);
        let d = a.difference(&b);
        assert_eq!(d.len(), 1);
        assert!(d.contains(t(1)));
        assert!(a.intersects(&b));
        assert!(a.intersection(&b).is_subset(&a));
    }

    #[test]
    fn difference_with_shorter_other() {
        let mut a: TidSet = [t(1), t(100)].into_iter().collect();
        let b: TidSet = [t(1)].into_iter().collect();
        a.difference_with(&b);
        assert_eq!(a.len(), 1);
        assert!(a.contains(t(100)));
    }

    #[test]
    fn intersect_with_shorter_other_clears_high_words() {
        let mut a: TidSet = [t(1), t(100)].into_iter().collect();
        let b: TidSet = [t(1)].into_iter().collect();
        a.intersect_with(&b);
        assert_eq!(a.len(), 1);
        assert!(a.contains(t(1)));
    }

    #[test]
    fn first_and_empty_iter() {
        let s = TidSet::new();
        assert_eq!(s.first(), None);
        let s: TidSet = [t(9)].into_iter().collect();
        assert_eq!(s.first(), Some(t(9)));
    }

    #[test]
    fn fill_matches_full() {
        for n in [0, 1, 63, 64, 65, 128, 130] {
            let mut s: TidSet = [t(200)].into_iter().collect();
            s.fill(n);
            assert_eq!(s, TidSet::full(n), "n = {n}");
            assert_eq!(s.len(), n);
        }
    }

    #[test]
    fn union_with_difference_matches_allocating_form() {
        let a: TidSet = [t(1), t(2), t(70), t(130)].into_iter().collect();
        let b: TidSet = [t(2), t(130)].into_iter().collect();
        let mut s: TidSet = [t(5)].into_iter().collect();
        s.union_with_difference(&a, &b);
        assert_eq!(s, [t(1), t(5), t(70)].into_iter().collect());
        let mut short = TidSet::new();
        short.union_with_difference(&a, &TidSet::new());
        assert_eq!(short, a);
    }

    /// Equality must not depend on allocation history: a set emptied by
    /// `remove` equals a fresh empty set.
    #[test]
    fn emptied_set_equals_new() {
        let mut s = TidSet::new();
        s.insert(t(1));
        s.remove(t(1));
        assert_eq!(s, TidSet::new());
    }

    /// A set whose storage once grew to hold a high id equals a fresh set
    /// with the same members.
    #[test]
    fn shrunk_set_equals_fresh_set() {
        let mut s: TidSet = [t(3), t(100)].into_iter().collect();
        s.remove(t(100));
        let fresh: TidSet = [t(3)].into_iter().collect();
        assert_eq!(s, fresh);
    }

    /// Hashing agrees with equality: a hash-set lookup for the shrunk set
    /// finds the fresh one.
    #[test]
    fn shrunk_set_hashes_like_fresh_set() {
        let mut s: TidSet = [t(3), t(100)].into_iter().collect();
        s.remove(t(100));
        let fresh: TidSet = [t(3)].into_iter().collect();
        let set: std::collections::HashSet<TidSet> = [fresh].into_iter().collect();
        assert!(set.contains(&s));
    }

    #[test]
    fn clone_from_copies_members() {
        let src: TidSet = [t(2), t(66)].into_iter().collect();
        let mut dst: TidSet = [t(300)].into_iter().collect();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert!(!dst.contains(t(300)));
    }

    #[test]
    fn debug_formats() {
        let s: TidSet = [t(1)].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{t1}");
        assert_eq!(format!("{}", t(3)), "t3");
    }
}
