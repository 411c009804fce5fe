//! The two container kinds of a roaring bitmap.
//!
//! A roaring bitmap partitions the `u32` space into 2^16 chunks keyed by the
//! high 16 bits. Each non-empty chunk stores its low 16 bits either as a
//! sorted array (sparse chunks, up to [`ARRAY_MAX`] entries) or as a 2^16-bit
//! bitset (dense chunks), following Lemire et al., "Roaring Bitmaps:
//! Implementation of an Optimized Software Library" (the paper's ref \[19\]).

use crate::kernels;

/// A sparse container converts to a bitmap once it exceeds this many values;
/// past this point the bitset (8 KiB) is smaller than the array.
pub(crate) const ARRAY_MAX: usize = 4096;

const WORDS: usize = 1024;

/// Fixed 2^16-bit bitset with a cached cardinality.
#[derive(Clone)]
pub(crate) struct BitmapStore {
    words: Box<[u64; WORDS]>,
    cardinality: u32,
}

impl BitmapStore {
    fn new() -> Self {
        BitmapStore {
            words: Box::new([0u64; WORDS]),
            cardinality: 0,
        }
    }

    fn contains(&self, low: u16) -> bool {
        self.words[(low >> 6) as usize] & (1u64 << (low & 63)) != 0
    }

    fn insert(&mut self, low: u16) -> bool {
        let w = &mut self.words[(low >> 6) as usize];
        let mask = 1u64 << (low & 63);
        if *w & mask == 0 {
            *w |= mask;
            self.cardinality += 1;
            true
        } else {
            false
        }
    }

    fn remove(&mut self, low: u16) -> bool {
        let w = &mut self.words[(low >> 6) as usize];
        let mask = 1u64 << (low & 63);
        if *w & mask != 0 {
            *w &= !mask;
            self.cardinality -= 1;
            true
        } else {
            false
        }
    }

    fn to_array(&self) -> Vec<u16> {
        let mut out = Vec::with_capacity(self.cardinality as usize);
        for (wi, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                out.push((wi as u16) << 6 | bit as u16);
                bits &= bits - 1;
            }
        }
        out
    }
}

/// A single 16-bit-keyed chunk of a roaring bitmap.
#[derive(Clone)]
pub(crate) enum Container {
    /// Sorted array of low 16-bit values (sparse).
    Array(Vec<u16>),
    /// 65536-bit bitset (dense).
    Bitmap(BitmapStore),
}

impl Container {
    pub(crate) fn new() -> Container {
        Container::Array(Vec::new())
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Bitmap(b) => b.cardinality as usize,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn contains(&self, low: u16) -> bool {
        match self {
            Container::Array(v) => v.binary_search(&low).is_ok(),
            Container::Bitmap(b) => b.contains(low),
        }
    }

    /// Inserts a value; returns whether it was newly added. Upgrades to a
    /// bitmap container past [`ARRAY_MAX`] values.
    pub(crate) fn insert(&mut self, low: u16) -> bool {
        match self {
            Container::Array(v) => match v.binary_search(&low) {
                Ok(_) => false,
                Err(pos) => {
                    if v.len() < ARRAY_MAX {
                        v.insert(pos, low);
                    } else {
                        let mut bm = BitmapStore::new();
                        for &x in v.iter() {
                            bm.insert(x);
                        }
                        bm.insert(low);
                        *self = Container::Bitmap(bm);
                    }
                    true
                }
            },
            Container::Bitmap(b) => b.insert(low),
        }
    }

    /// Removes a value; returns whether it was present. Downgrades to an
    /// array container when the cardinality drops back to [`ARRAY_MAX`].
    pub(crate) fn remove(&mut self, low: u16) -> bool {
        match self {
            Container::Array(v) => match v.binary_search(&low) {
                Ok(pos) => {
                    v.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Container::Bitmap(b) => {
                let removed = b.remove(low);
                if removed && (b.cardinality as usize) <= ARRAY_MAX {
                    *self = Container::Array(b.to_array());
                }
                removed
            }
        }
    }

    /// Sorted vector of the contained low values.
    pub(crate) fn to_sorted_vec(&self) -> Vec<u16> {
        match self {
            Container::Array(v) => v.clone(),
            Container::Bitmap(b) => b.to_array(),
        }
    }

    /// Builds the best-fitting container from a sorted, deduplicated vector.
    pub(crate) fn from_sorted_vec(values: Vec<u16>) -> Container {
        debug_assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "input must be strictly sorted"
        );
        if values.len() <= ARRAY_MAX {
            Container::Array(values)
        } else {
            let mut bm = BitmapStore::new();
            for v in values {
                bm.insert(v);
            }
            Container::Bitmap(bm)
        }
    }

    /// Number of values `<= low` in this container.
    pub(crate) fn rank(&self, low: u16) -> usize {
        match self {
            Container::Array(v) => match v.binary_search(&low) {
                Ok(i) => i + 1,
                Err(i) => i,
            },
            Container::Bitmap(b) => {
                let word_idx = (low >> 6) as usize;
                let mut count: usize = b.words[..word_idx]
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum();
                let bit = low & 63;
                let mask = if bit == 63 {
                    u64::MAX
                } else {
                    (1u64 << (bit + 1)) - 1
                };
                count += (b.words[word_idx] & mask).count_ones() as usize;
                count
            }
        }
    }

    /// The `n`-th smallest value (0-based), if it exists.
    pub(crate) fn select(&self, n: usize) -> Option<u16> {
        match self {
            Container::Array(v) => v.get(n).copied(),
            Container::Bitmap(b) => {
                if n >= b.cardinality as usize {
                    return None;
                }
                let mut remaining = n;
                for (wi, &word) in b.words.iter().enumerate() {
                    let ones = word.count_ones() as usize;
                    if remaining < ones {
                        // Find the (remaining)-th set bit of `word`.
                        let mut bits = word;
                        for _ in 0..remaining {
                            bits &= bits - 1;
                        }
                        let bit = bits.trailing_zeros() as u16;
                        return Some((wi as u16) << 6 | bit);
                    }
                    remaining -= ones;
                }
                unreachable!("cardinality bound checked above")
            }
        }
    }

    pub(crate) fn and(&self, other: &Container) -> Container {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => Container::Array(intersect_sorted(a, b)),
            (Container::Array(a), Container::Bitmap(b)) => {
                Container::Array(a.iter().copied().filter(|&x| b.contains(x)).collect())
            }
            (Container::Bitmap(_), Container::Array(_)) => other.and(self),
            (Container::Bitmap(a), Container::Bitmap(b)) => {
                // A cheap vectorized popcount pass picks the result
                // representation up front, so the dense case writes the
                // bitset exactly once and the sparse case decodes
                // straight into a right-sized array — no 8 KiB scratch
                // bitset plus second materialization either way.
                let card = kernels::and_words_len(&a.words[..], &b.words[..]);
                if card as usize <= ARRAY_MAX {
                    let mut values = Vec::with_capacity(card as usize);
                    kernels::and_words_visit(&a.words[..], &b.words[..], 0, |v| {
                        values.push(v as u16)
                    });
                    Container::Array(values)
                } else {
                    let mut bm = BitmapStore::new();
                    let written =
                        kernels::and_words_into(&a.words[..], &b.words[..], &mut bm.words[..]);
                    debug_assert_eq!(written, card);
                    bm.cardinality = card;
                    Container::Bitmap(bm)
                }
            }
        }
    }

    /// Writes the sorted intersection of two containers into `out`
    /// (cleared first) — the allocation-free variant of
    /// [`Container::and`] for iteration hot paths that reuse one buffer.
    pub(crate) fn and_into(&self, other: &Container, out: &mut Vec<u16>) {
        out.clear();
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => {
                kernels::intersect_into(a, b, out);
            }
            (Container::Array(a), Container::Bitmap(b)) => {
                out.extend(a.iter().copied().filter(|&x| b.contains(x)));
            }
            (Container::Bitmap(_), Container::Array(_)) => other.and_into(self, out),
            (Container::Bitmap(a), Container::Bitmap(b)) => {
                kernels::and_words_visit(&a.words[..], &b.words[..], 0, |v| out.push(v as u16));
            }
        }
    }

    pub(crate) fn and_len(&self, other: &Container) -> usize {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => kernels::intersect_len(a, b),
            (Container::Array(a), Container::Bitmap(b)) => {
                a.iter().filter(|&&x| b.contains(x)).count()
            }
            (Container::Bitmap(_), Container::Array(_)) => other.and_len(self),
            (Container::Bitmap(a), Container::Bitmap(b)) => {
                // The plain scalar loop beats the 8-lane chunked form
                // here: rustc already emits hardware popcnt for it, and
                // the chunked version's lane bookkeeping costs more than
                // it saves on 1 KiB inputs. The chunked kernel stays as
                // the bench/reference pair (`crit_kernels`).
                kernels::and_words_len_scalar(&a.words[..], &b.words[..]) as usize
            }
        }
    }

    /// `min(|self ∩ other|, cap)`: exact when the intersection is smaller
    /// than `cap`, and stops counting once `cap` is reached — the
    /// building block of [`crate::RoaringBitmap::intersection_len_at_least`].
    pub(crate) fn and_len_capped(&self, other: &Container, cap: usize) -> usize {
        match (self, other) {
            // Array payloads are at most ARRAY_MAX entries; the full
            // galloping count is already cheap.
            (Container::Array(_), Container::Array(_)) => self.and_len(other).min(cap),
            (Container::Array(a), Container::Bitmap(b)) => {
                let mut n = 0usize;
                for &x in a {
                    if b.contains(x) {
                        n += 1;
                        if n >= cap {
                            return cap;
                        }
                    }
                }
                n
            }
            (Container::Bitmap(_), Container::Array(_)) => other.and_len_capped(self, cap),
            (Container::Bitmap(a), Container::Bitmap(b)) => {
                kernels::and_words_len_capped(&a.words[..], &b.words[..], cap)
            }
        }
    }

    /// Folds `f` over `base | low` for every value, ascending, without
    /// materializing a vector (unlike [`Container::to_sorted_vec`]).
    pub(crate) fn fold<B>(&self, base: u32, init: B, f: &mut impl FnMut(B, u32) -> B) -> B {
        match self {
            Container::Array(v) => v.iter().fold(init, |acc, &low| f(acc, base | low as u32)),
            Container::Bitmap(b) => kernels::words_fold(&b.words[..], base, init, f),
        }
    }

    pub(crate) fn or(&self, other: &Container) -> Container {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => {
                Container::from_sorted_vec(union_sorted(a, b))
            }
            (Container::Array(a), Container::Bitmap(b)) => {
                let mut bm = b.clone();
                for &x in a {
                    bm.insert(x);
                }
                Container::Bitmap(bm)
            }
            (Container::Bitmap(_), Container::Array(_)) => other.or(self),
            (Container::Bitmap(a), Container::Bitmap(b)) => {
                let mut bm = BitmapStore::new();
                let mut card = 0u32;
                for i in 0..WORDS {
                    let w = a.words[i] | b.words[i];
                    bm.words[i] = w;
                    card += w.count_ones();
                }
                bm.cardinality = card;
                Container::Bitmap(bm)
            }
        }
    }

    pub(crate) fn sub(&self, other: &Container) -> Container {
        match (self, other) {
            (Container::Array(a), _) => {
                Container::Array(a.iter().copied().filter(|&x| !other.contains(x)).collect())
            }
            (Container::Bitmap(a), Container::Array(b)) => {
                let mut bm = a.clone();
                for &x in b {
                    bm.remove(x);
                }
                if bm.cardinality as usize <= ARRAY_MAX {
                    Container::Array(bm.to_array())
                } else {
                    Container::Bitmap(bm)
                }
            }
            (Container::Bitmap(a), Container::Bitmap(b)) => {
                let mut bm = BitmapStore::new();
                let mut card = 0u32;
                for i in 0..WORDS {
                    let w = a.words[i] & !b.words[i];
                    bm.words[i] = w;
                    card += w.count_ones();
                }
                bm.cardinality = card;
                if card as usize <= ARRAY_MAX {
                    Container::Array(bm.to_array())
                } else {
                    Container::Bitmap(bm)
                }
            }
        }
    }

    pub(crate) fn xor(&self, other: &Container) -> Container {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => {
                Container::from_sorted_vec(xor_sorted(a, b))
            }
            (Container::Array(_), Container::Bitmap(_)) => other.xor(self),
            (Container::Bitmap(a), Container::Array(b)) => {
                let mut bm = a.clone();
                for &x in b {
                    if !bm.remove(x) {
                        bm.insert(x);
                    }
                }
                if bm.cardinality as usize <= ARRAY_MAX {
                    Container::Array(bm.to_array())
                } else {
                    Container::Bitmap(bm)
                }
            }
            (Container::Bitmap(a), Container::Bitmap(b)) => {
                let mut bm = BitmapStore::new();
                let mut card = 0u32;
                for i in 0..WORDS {
                    let w = a.words[i] ^ b.words[i];
                    bm.words[i] = w;
                    card += w.count_ones();
                }
                bm.cardinality = card;
                if card as usize <= ARRAY_MAX {
                    Container::Array(bm.to_array())
                } else {
                    Container::Bitmap(bm)
                }
            }
        }
    }

    /// Bytes [`Container::write_wire`] will append for this container's
    /// payload (excluding the key and cardinality fields the bitmap-level
    /// framing writes).
    pub(crate) fn wire_size(&self) -> usize {
        match self {
            Container::Array(v) => 2 * v.len(),
            Container::Bitmap(_) => 8 * WORDS,
        }
    }

    /// Appends the container payload in its canonical wire form: sorted
    /// `u16` little-endian values for arrays, the raw 1024-word bitset for
    /// bitmaps. The representation is implied by the cardinality (arrays
    /// hold at most [`ARRAY_MAX`] values), so no kind tag is written.
    pub(crate) fn write_wire(&self, out: &mut Vec<u8>) {
        match self {
            Container::Array(v) => {
                for &low in v {
                    out.extend_from_slice(&low.to_le_bytes());
                }
            }
            Container::Bitmap(b) => {
                for &word in b.words.iter() {
                    out.extend_from_slice(&word.to_le_bytes());
                }
            }
        }
    }

    /// Reads a container payload of the given cardinality back, returning
    /// it plus the number of bytes consumed. Rejects (rather than panics
    /// on) every malformed input: short payloads, unsorted arrays, and
    /// bitsets whose population count disagrees with the framed
    /// cardinality.
    pub(crate) fn read_wire(
        data: &[u8],
        cardinality: usize,
    ) -> Result<(Container, usize), &'static str> {
        if cardinality == 0 {
            return Err("empty container");
        }
        if cardinality <= ARRAY_MAX {
            let need = 2 * cardinality;
            if data.len() < need {
                return Err("truncated array container");
            }
            let values: Vec<u16> = data[..need]
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect();
            if !values.windows(2).all(|w| w[0] < w[1]) {
                return Err("array container not strictly sorted");
            }
            Ok((Container::Array(values), need))
        } else {
            let need = 8 * WORDS;
            if data.len() < need {
                return Err("truncated bitmap container");
            }
            let mut store = BitmapStore::new();
            let mut popcount = 0u32;
            for (wi, chunk) in data[..need].chunks_exact(8).enumerate() {
                let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                store.words[wi] = word;
                popcount += word.count_ones();
            }
            if popcount as usize != cardinality {
                return Err("bitmap cardinality mismatch");
            }
            store.cardinality = popcount;
            Ok((Container::Bitmap(store), need))
        }
    }

    pub(crate) fn is_subset(&self, other: &Container) -> bool {
        if self.len() > other.len() {
            return false;
        }
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => kernels::is_subset_sorted(a, b),
            (Container::Array(a), Container::Bitmap(b)) => a.iter().all(|&x| b.contains(x)),
            (Container::Bitmap(a), Container::Bitmap(b)) => {
                kernels::subset_words(&a.words[..], &b.words[..])
            }
            // A bitmap container has > ARRAY_MAX entries, an array container
            // at most ARRAY_MAX, so the len() guard above already returned.
            (Container::Bitmap(_), Container::Array(_)) => false,
        }
    }
}

fn intersect_sorted(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    kernels::intersect_into(a, b, &mut out);
    out
}

fn union_sorted(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

fn xor_sorted(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array(values: &[u16]) -> Container {
        let mut c = Container::new();
        for &v in values {
            c.insert(v);
        }
        c
    }

    fn dense(n: usize) -> Container {
        let mut c = Container::new();
        for v in 0..n as u32 {
            c.insert(v as u16);
        }
        c
    }

    #[test]
    fn insert_contains_remove_array() {
        let mut c = Container::new();
        assert!(c.insert(5));
        assert!(!c.insert(5));
        assert!(c.contains(5));
        assert!(!c.contains(6));
        assert!(c.remove(5));
        assert!(!c.remove(5));
        assert!(c.is_empty());
    }

    #[test]
    fn upgrades_to_bitmap_and_back() {
        let mut c = dense(ARRAY_MAX);
        assert!(matches!(c, Container::Array(_)));
        c.insert(60000);
        assert!(matches!(c, Container::Bitmap(_)));
        assert_eq!(c.len(), ARRAY_MAX + 1);
        assert!(c.contains(60000));
        assert!(c.remove(60000));
        assert!(matches!(c, Container::Array(_)));
        assert_eq!(c.len(), ARRAY_MAX);
    }

    #[test]
    fn to_sorted_vec_is_sorted_for_both_kinds() {
        let c = array(&[9, 1, 5]);
        assert_eq!(c.to_sorted_vec(), vec![1, 5, 9]);
        let c = dense(ARRAY_MAX + 10);
        let v = c.to_sorted_vec();
        assert_eq!(v.len(), ARRAY_MAX + 10);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn and_across_kinds() {
        let a = array(&[1, 2, 3, 100]);
        let b = array(&[2, 100, 200]);
        assert_eq!(a.and(&b).to_sorted_vec(), vec![2, 100]);
        let big = dense(ARRAY_MAX + 100);
        assert_eq!(a.and(&big).to_sorted_vec(), vec![1, 2, 3, 100]);
        assert_eq!(big.and(&a).to_sorted_vec(), vec![1, 2, 3, 100]);
        let big2 = dense(ARRAY_MAX + 200);
        let i = big.and(&big2);
        assert_eq!(i.len(), ARRAY_MAX + 100);
    }

    #[test]
    fn and_len_matches_and() {
        let cases = [
            (array(&[1, 2, 3]), array(&[2, 3, 4])),
            (array(&[1, 2, 3]), dense(ARRAY_MAX + 50)),
            (dense(ARRAY_MAX + 50), dense(ARRAY_MAX + 500)),
        ];
        for (a, b) in cases {
            assert_eq!(a.and_len(&b), a.and(&b).len());
            assert_eq!(b.and_len(&a), a.and_len(&b));
        }
    }

    #[test]
    fn or_across_kinds() {
        let a = array(&[1, 3]);
        let b = array(&[2, 3]);
        assert_eq!(a.or(&b).to_sorted_vec(), vec![1, 2, 3]);
        let big = dense(ARRAY_MAX + 100);
        let u = a.or(&big);
        assert_eq!(u.len(), ARRAY_MAX + 100); // 1 and 3 already included
        let x = array(&[60_000]).or(&big);
        assert_eq!(x.len(), ARRAY_MAX + 101);
    }

    #[test]
    fn sub_and_xor() {
        let a = array(&[1, 2, 3]);
        let b = array(&[2, 4]);
        assert_eq!(a.sub(&b).to_sorted_vec(), vec![1, 3]);
        assert_eq!(b.sub(&a).to_sorted_vec(), vec![4]);
        assert_eq!(a.xor(&b).to_sorted_vec(), vec![1, 3, 4]);
        let big = dense(ARRAY_MAX + 100);
        let d = big.sub(&dense(ARRAY_MAX + 100));
        assert!(d.is_empty());
        let x = big.xor(&big);
        assert!(x.is_empty());
    }

    #[test]
    fn bitmap_sub_downgrades() {
        let big = dense(ARRAY_MAX + 100);
        let d = big.sub(&dense(200));
        assert!(matches!(d, Container::Array(_)));
        assert_eq!(d.len(), ARRAY_MAX - 100);
    }

    #[test]
    fn subset_relations() {
        let a = array(&[1, 2]);
        let b = array(&[1, 2, 3]);
        let big = dense(ARRAY_MAX + 100);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&big));
        assert!(!big.is_subset(&a));
        assert!(big.is_subset(&dense(ARRAY_MAX + 100)));
        assert!(!dense(ARRAY_MAX + 101).is_subset(&big));
        assert!(Container::new().is_subset(&a));
    }

    #[test]
    fn from_sorted_vec_picks_representation() {
        let small = Container::from_sorted_vec((0..10u16).collect());
        assert!(matches!(small, Container::Array(_)));
        let big = Container::from_sorted_vec((0..(ARRAY_MAX as u16 + 1)).collect());
        assert!(matches!(big, Container::Bitmap(_)));
        assert_eq!(big.len(), ARRAY_MAX + 1);
    }
}
