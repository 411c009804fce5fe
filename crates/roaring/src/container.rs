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
#[derive(Clone, PartialEq, Eq)]
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
///
/// The kind is canonical — an array holds at most [`ARRAY_MAX`] values, a
/// bitmap more — so the derived equality is set equality.
#[derive(Clone, PartialEq, Eq)]
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

    /// Folds `f` over `base | low` for every value, ascending, without
    /// materializing a vector (unlike [`Container::to_sorted_vec`]).
    pub(crate) fn fold<B>(&self, base: u32, init: B, f: &mut impl FnMut(B, u32) -> B) -> B {
        match self {
            Container::Array(v) => v.iter().fold(init, |acc, &low| f(acc, base | low as u32)),
            Container::Bitmap(b) => kernels::words_fold(&b.words[..], base, init, f),
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
}
