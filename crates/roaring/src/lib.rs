//! A from-scratch roaring bitmap, the compressed integer-set representation
//! of the paper's ref \[19\] (Chambi, Lemire et al.), here holding the
//! query engine's posting lists.
//!
//! A [`RoaringBitmap`] stores a set of `u32` values by splitting each value
//! into a high 16-bit *chunk key* and a low 16-bit payload. Sparse chunks
//! keep a sorted array; dense chunks switch to a 65 536-bit bitset.
//!
//! A posting list is only built by inserts and read by walks
//! ([`RoaringBitmap::for_each`], [`RoaringBitmap::fold`]) that decode
//! bitsets word by word. The crate has no pairwise set algebra: a
//! trajectory's own fingerprint set, the one set Jaccard compares, is a
//! sorted slice (`geodabs_core::Fingerprints`).
//!
//! # Examples
//!
//! ```
//! use geodabs_roaring::RoaringBitmap;
//!
//! let mut posting: RoaringBitmap = [1u32, 2, 3, 100_000].into_iter().collect();
//! assert!(posting.insert(4));
//! assert!(posting.remove(2));
//! assert_eq!(posting.len(), 4);
//! assert_eq!(posting.iter().collect::<Vec<_>>(), [1, 3, 4, 100_000]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod container;
pub mod kernels;
pub mod wire;

pub use wire::WireError;

use container::Container;
use std::fmt;

/// A compressed bitmap over `u32` values.
///
/// See the [crate-level documentation](crate) for the representation.
/// Containers are canonical, so the derived equality is set equality.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct RoaringBitmap {
    /// Non-empty containers sorted by chunk key.
    containers: Vec<(u16, Container)>,
}

impl RoaringBitmap {
    /// Creates an empty bitmap.
    pub fn new() -> RoaringBitmap {
        RoaringBitmap::default()
    }

    /// Number of values in the set.
    pub fn len(&self) -> u64 {
        self.containers.iter().map(|(_, c)| c.len() as u64).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.containers.is_empty()
    }

    /// Whether `value` is in the set.
    pub fn contains(&self, value: u32) -> bool {
        let (key, low) = split(value);
        match self.containers.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(idx) => self.containers[idx].1.contains(low),
            Err(_) => false,
        }
    }

    /// Inserts a value; returns whether it was newly added.
    pub fn insert(&mut self, value: u32) -> bool {
        let (key, low) = split(value);
        match self.containers.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(idx) => self.containers[idx].1.insert(low),
            Err(pos) => {
                let mut c = Container::new();
                c.insert(low);
                self.containers.insert(pos, (key, c));
                true
            }
        }
    }

    /// Removes a value; returns whether it was present.
    pub fn remove(&mut self, value: u32) -> bool {
        let (key, low) = split(value);
        match self.containers.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(idx) => {
                let removed = self.containers[idx].1.remove(low);
                if removed && self.containers[idx].1.is_empty() {
                    self.containers.remove(idx);
                }
                removed
            }
            Err(_) => false,
        }
    }

    /// Smallest value in the set.
    pub fn min(&self) -> Option<u32> {
        self.containers.first().map(|(k, c)| {
            join(
                *k,
                *c.to_sorted_vec().first().expect("containers are non-empty"),
            )
        })
    }

    /// Largest value in the set.
    pub fn max(&self) -> Option<u32> {
        self.containers.last().map(|(k, c)| {
            join(
                *k,
                *c.to_sorted_vec().last().expect("containers are non-empty"),
            )
        })
    }

    /// Iterates over the values in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            bitmap: self,
            container_idx: 0,
            values: Vec::new(),
            value_idx: 0,
        }
    }

    /// Calls `f` for every value of the set in ascending order without
    /// allocating — bitmap containers are decoded word at a time straight
    /// into the callback, so this is the fast way to bulk-feed an
    /// accumulator (every posting-list walk of the query engine).
    pub fn for_each(&self, mut f: impl FnMut(u32)) {
        self.fold((), |(), value| f(value));
    }

    /// [`RoaringBitmap::for_each`] threading a state through the visitor
    /// by value: returns `f(… f(f(init, v₀), v₁) …)` over the values in
    /// ascending order. A running counter kept in the state, rather than
    /// in a variable the visitor captures, stays in a register for the
    /// whole walk — the query engine's candidate end is one.
    ///
    /// ```
    /// use geodabs_roaring::RoaringBitmap;
    ///
    /// let set: RoaringBitmap = [3u32, 70_000, 9].into_iter().collect();
    /// assert_eq!(set.fold(0u64, |sum, v| sum + u64::from(v)), 70_012);
    /// ```
    pub fn fold<B>(&self, init: B, mut f: impl FnMut(B, u32) -> B) -> B {
        self.containers.iter().fold(init, |acc, (key, c)| {
            c.fold((*key as u32) << 16, acc, &mut f)
        })
    }
}

fn split(value: u32) -> (u16, u16) {
    ((value >> 16) as u16, value as u16)
}

fn join(key: u16, low: u16) -> u32 {
    (key as u32) << 16 | low as u32
}

impl fmt::Debug for RoaringBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() > 16 {
            return write!(f, "RoaringBitmap{{{} values}}", self.len());
        }
        let mut set = f.debug_set();
        for v in self.iter() {
            set.entry(&v);
        }
        set.finish()
    }
}

impl FromIterator<u32> for RoaringBitmap {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> RoaringBitmap {
        let mut bm = RoaringBitmap::new();
        bm.extend(iter);
        bm
    }
}

impl Extend<u32> for RoaringBitmap {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<'a> IntoIterator for &'a RoaringBitmap {
    type Item = u32;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Ascending iterator over the values of a [`RoaringBitmap`].
///
/// Created by [`RoaringBitmap::iter`].
pub struct Iter<'a> {
    bitmap: &'a RoaringBitmap,
    container_idx: usize,
    values: Vec<u16>,
    value_idx: usize,
}

impl Iterator for Iter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.value_idx < self.values.len() {
                let (key, _) = self.bitmap.containers[self.container_idx - 1];
                let low = self.values[self.value_idx];
                self.value_idx += 1;
                return Some(join(key, low));
            }
            let (_, container) = self.bitmap.containers.get(self.container_idx)?;
            self.values = container.to_sorted_vec();
            self.value_idx = 0;
            self.container_idx += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn bm(values: &[u32]) -> RoaringBitmap {
        values.iter().copied().collect()
    }

    #[test]
    fn basic_insert_contains_remove() {
        let mut b = RoaringBitmap::new();
        assert!(b.is_empty());
        assert!(b.insert(42));
        assert!(!b.insert(42));
        assert!(b.contains(42));
        assert!(!b.contains(41));
        assert_eq!(b.len(), 1);
        assert!(b.remove(42));
        assert!(!b.remove(42));
        assert!(b.is_empty());
    }

    #[test]
    fn values_across_chunks() {
        let values = [0u32, 1, 65_535, 65_536, 1 << 20, u32::MAX];
        let b = bm(&values);
        assert_eq!(b.len(), values.len() as u64);
        for v in values {
            assert!(b.contains(v), "{v}");
        }
        assert_eq!(b.iter().collect::<Vec<_>>(), {
            let mut v = values.to_vec();
            v.sort_unstable();
            v
        });
    }

    #[test]
    fn min_max() {
        let b = bm(&[5, 1 << 20, 3]);
        assert_eq!(b.min(), Some(3));
        assert_eq!(b.max(), Some(1 << 20));
        assert_eq!(RoaringBitmap::new().min(), None);
        assert_eq!(RoaringBitmap::new().max(), None);
    }

    #[test]
    fn removing_last_value_drops_container() {
        let mut b = bm(&[1, 65_536]);
        b.remove(65_536);
        assert_eq!(b.len(), 1);
        assert!(b.contains(1));
        assert!(!b.contains(65_536));
    }

    #[test]
    fn dense_chunk_upgrades() {
        let b: RoaringBitmap = (0..10_000u32).collect();
        assert_eq!(b.len(), 10_000);
        assert!(b.contains(9_999));
        assert!(!b.contains(10_000));
        assert_eq!(b.iter().count(), 10_000);
    }

    #[test]
    fn equality_is_set_equality() {
        let a = bm(&[3, 1, 2]);
        let b = bm(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_ne!(a, bm(&[1, 2]));
        assert_ne!(a, bm(&[1, 2, 4]));
        // A chunk that went dense and back is an array again.
        let mut c: RoaringBitmap = (0..5_000u32).collect();
        for v in 4_096..5_000 {
            c.remove(v);
        }
        assert_eq!(c, (0..4_096u32).collect());
    }

    #[test]
    fn debug_output_truncates() {
        let small = bm(&[1, 2]);
        assert_eq!(format!("{small:?}"), "{1, 2}");
        let big: RoaringBitmap = (0..100u32).collect();
        let s = format!("{big:?}");
        assert!(s.contains("100 values"), "{s}");
    }

    proptest! {
        #[test]
        fn prop_matches_btreeset_model(
            xs in proptest::collection::vec(0u32..200_000, 0..400),
            probes in proptest::collection::vec(0u32..200_000, 0..50),
        ) {
            let a: RoaringBitmap = xs.iter().copied().collect();
            let sa: BTreeSet<u32> = xs.iter().copied().collect();

            prop_assert_eq!(a.len(), sa.len() as u64);
            prop_assert_eq!(a.iter().collect::<Vec<_>>(), sa.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(a.min(), sa.first().copied());
            prop_assert_eq!(a.max(), sa.last().copied());
            for p in probes {
                prop_assert_eq!(a.contains(p), sa.contains(&p));
            }
        }

        #[test]
        fn prop_insert_remove_roundtrip(xs in proptest::collection::vec(any::<u32>(), 0..200)) {
            let mut b = RoaringBitmap::new();
            for &x in &xs {
                b.insert(x);
            }
            for &x in &xs {
                prop_assert!(b.contains(x));
            }
            for &x in &xs {
                b.remove(x);
            }
            prop_assert!(b.is_empty());
        }

        #[test]
        fn prop_dense_boundary_transitions(start in 0u32..100, extra in 1u32..200) {
            // Straddle the array->bitmap boundary (4096) in one chunk.
            let n = 4096 + extra;
            let b: RoaringBitmap = (start..start + n).collect();
            prop_assert_eq!(b.len(), n as u64);
            let mut b2 = b.clone();
            for v in start..start + extra {
                b2.remove(v);
            }
            prop_assert_eq!(b2.len(), 4096);
            prop_assert_eq!(
                b2.iter().collect::<Vec<_>>(),
                (start + extra..start + n).collect::<Vec<_>>()
            );
        }
    }
}
