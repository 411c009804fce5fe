//! The raw set-intersection kernels behind every container operation.
//!
//! Two families live here, both shaped for throughput and both shipped
//! alongside a plainly-written **reference implementation** so the
//! differential suite in `tests/kernel_equivalence.rs` can pin the fast
//! path bit-identical to the slow one:
//!
//! * **Sorted-slice kernels** over the `u16` payloads of array
//!   containers. The workhorse is a galloping (exponential-search)
//!   intersection that activates once the longer side is at least
//!   [`GALLOP_RATIO`] times the shorter one — the common shape when a
//!   rare query term meets a hot posting list — and falls back to the
//!   classic linear merge for balanced inputs.
//! * **Word kernels** over the 1024-word bitsets of bitmap containers,
//!   written as fixed 8-word chunks with independent lane accumulators
//!   so LLVM autovectorizes them (no `unsafe`, no intrinsics).
//!
//! All kernels are allocation-free; the visitor variants hand each
//! matching value to a closure so callers can count, copy, or bump an
//! accumulator without materializing the intersection.

/// Gallop when the longer slice is at least this many times the shorter
/// one; below the ratio the linear merge's branch-predictable scan wins.
pub const GALLOP_RATIO: usize = 16;

/// Reference linear-merge intersection visitor (two pointers, one
/// comparison per step). Retained verbatim as the differential baseline
/// for [`intersect_visit`].
pub fn intersect_visit_linear(a: &[u16], b: &[u16], mut f: impl FnMut(u16)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// First index `>= base` whose element is `>= x`, found by exponential
/// probing from `base` followed by a binary search of the bracketed
/// window — O(log distance) instead of O(distance).
fn gallop_lower_bound(large: &[u16], base: usize, x: u16) -> usize {
    let mut hop = 1usize;
    while base + hop < large.len() && large[base + hop] < x {
        hop <<= 1;
    }
    // The boundary sits in [base + hop/2, base + hop]: everything before
    // the window start is known `< x` (or the window starts at `base`).
    let lo = base + hop / 2;
    let hi = (base + hop).min(large.len());
    lo + large[lo..hi].partition_point(|&v| v < x)
}

/// Galloping intersection visitor: walks `small` and exponential-searches
/// each value in the unconsumed tail of `large`. Callers pick the sides;
/// [`intersect_visit`] does so by [`GALLOP_RATIO`].
pub fn intersect_visit_gallop(small: &[u16], large: &[u16], mut f: impl FnMut(u16)) {
    let mut base = 0usize;
    for &x in small {
        if base >= large.len() {
            return;
        }
        let i = gallop_lower_bound(large, base, x);
        if i < large.len() && large[i] == x {
            f(x);
            base = i + 1;
        } else {
            base = i;
        }
    }
}

/// Intersection visitor over two sorted slices, dispatching between the
/// linear merge and the galloping scan by size ratio.
pub fn intersect_visit(a: &[u16], b: &[u16], f: impl FnMut(u16)) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len().saturating_mul(GALLOP_RATIO) < large.len() {
        intersect_visit_gallop(small, large, f);
    } else {
        intersect_visit_linear(small, large, f);
    }
}

/// Sorted intersection of two sorted slices, appended to `out`
/// (not cleared), via [`intersect_visit`].
pub fn intersect_into(a: &[u16], b: &[u16], out: &mut Vec<u16>) {
    intersect_visit(a, b, |x| out.push(x));
}

/// `|a ∩ b|` over two sorted slices, via [`intersect_visit`].
pub fn intersect_len(a: &[u16], b: &[u16]) -> usize {
    let mut n = 0usize;
    intersect_visit(a, b, |_| n += 1);
    n
}

/// Whether every element of the sorted slice `small` occurs in the sorted
/// slice `large` — the galloping subset check, bailing out at the first
/// missing element.
pub fn is_subset_sorted(small: &[u16], large: &[u16]) -> bool {
    if small.len() > large.len() {
        return false;
    }
    let mut base = 0usize;
    for &x in small {
        if base >= large.len() {
            return false;
        }
        let i = gallop_lower_bound(large, base, x);
        if i >= large.len() || large[i] != x {
            return false;
        }
        base = i + 1;
    }
    true
}

/// How many words each vector-friendly chunk spans: eight 64-bit lanes,
/// one cache line, wide enough for LLVM to keep the AND+popcount loop in
/// vector registers.
const CHUNK: usize = 8;

/// Reference scalar popcount of `a & b`, one word at a time. Retained
/// verbatim as the differential baseline for [`and_words_len`].
pub fn and_words_len_scalar(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&wa, &wb)| (wa & wb).count_ones())
        .sum()
}

/// Popcount of `a & b` in 8-word chunks with per-lane accumulators —
/// the autovectorizable form of [`and_words_len_scalar`].
pub fn and_words_len(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0u32; CHUNK];
    let (a_chunks, a_tail) = a.split_at(a.len() - a.len() % CHUNK);
    let (b_chunks, b_tail) = b.split_at(a_chunks.len());
    for (ca, cb) in a_chunks
        .chunks_exact(CHUNK)
        .zip(b_chunks.chunks_exact(CHUNK))
    {
        for i in 0..CHUNK {
            lanes[i] += (ca[i] & cb[i]).count_ones();
        }
    }
    lanes.iter().sum::<u32>() + and_words_len_scalar(a_tail, b_tail)
}

/// Writes `a & b` into `out` and returns its popcount, in the same
/// chunked form as [`and_words_len`].
pub fn and_words_into(a: &[u64], b: &[u64], out: &mut [u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    let mut lanes = [0u32; CHUNK];
    let whole = a.len() - a.len() % CHUNK;
    for ((ca, cb), co) in a[..whole]
        .chunks_exact(CHUNK)
        .zip(b[..whole].chunks_exact(CHUNK))
        .zip(out[..whole].chunks_exact_mut(CHUNK))
    {
        for i in 0..CHUNK {
            let w = ca[i] & cb[i];
            co[i] = w;
            lanes[i] += w.count_ones();
        }
    }
    let mut tail = 0u32;
    for i in whole..a.len() {
        let w = a[i] & b[i];
        out[i] = w;
        tail += w.count_ones();
    }
    lanes.iter().sum::<u32>() + tail
}

/// `min(popcount(a & b), cap)`, counted chunk by chunk and stopping as
/// soon as `cap` is reached, so dense overlaps touch a few cache lines
/// instead of scanning all 8 KiB of both bitsets. Exact below `cap`.
pub fn and_words_len_capped(a: &[u64], b: &[u64], cap: usize) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut count = 0usize;
    let whole = a.len() - a.len() % CHUNK;
    for (ca, cb) in a[..whole]
        .chunks_exact(CHUNK)
        .zip(b[..whole].chunks_exact(CHUNK))
    {
        let mut lane = 0u32;
        for i in 0..CHUNK {
            lane += (ca[i] & cb[i]).count_ones();
        }
        count += lane as usize;
        if count >= cap {
            return cap;
        }
    }
    count += and_words_len_scalar(&a[whole..], &b[whole..]) as usize;
    count.min(cap)
}

/// Whether `a & b` has at least `n` set bits — the early-exit form of
/// [`and_words_len`], via [`and_words_len_capped`].
pub fn and_words_len_at_least(a: &[u64], b: &[u64], n: u32) -> bool {
    and_words_len_capped(a, b, n as usize) >= n as usize
}

/// Whether every set bit of `a` is set in `b` (`a & !b == 0`), checked
/// chunk by chunk with an OR-accumulated miss mask per chunk.
pub fn subset_words(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let whole = a.len() - a.len() % CHUNK;
    for (ca, cb) in a[..whole]
        .chunks_exact(CHUNK)
        .zip(b[..whole].chunks_exact(CHUNK))
    {
        let mut miss = 0u64;
        for i in 0..CHUNK {
            miss |= ca[i] & !cb[i];
        }
        if miss != 0 {
            return false;
        }
    }
    a[whole..]
        .iter()
        .zip(&b[whole..])
        .all(|(&wa, &wb)| wa & !wb == 0)
}

/// Visits every set bit of `a & b` as a value `base | bit_index`, word
/// by word with `trailing_zeros` decoding — how a sparse bitmap∩bitmap
/// result is decoded straight into its array form.
pub fn and_words_visit(a: &[u64], b: &[u64], base: u32, mut f: impl FnMut(u32)) {
    debug_assert_eq!(a.len(), b.len());
    for (wi, (&wa, &wb)) in a.iter().zip(b).enumerate() {
        let mut bits = wa & wb;
        let word_base = base | ((wi as u32) << 6);
        while bits != 0 {
            f(word_base | bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

/// Visits every set bit of `a` as a value `base | bit_index`, in
/// ascending order.
pub fn words_visit(a: &[u64], base: u32, mut f: impl FnMut(u32)) {
    words_fold(a, base, (), |(), value| f(value));
}

/// [`words_visit`] threading a state through the visitor by value:
/// returns `f(… f(f(init, v₀), v₁) …)` over the set bits, ascending.
pub fn words_fold<B>(a: &[u64], base: u32, init: B, mut f: impl FnMut(B, u32) -> B) -> B {
    let mut acc = init;
    for (wi, &word) in a.iter().enumerate() {
        let mut bits = word;
        let word_base = base | ((wi as u32) << 6);
        while bits != 0 {
            acc = f(acc, word_base | bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(a: &[u16], b: &[u16]) -> Vec<u16> {
        let mut out = Vec::new();
        intersect_into(a, b, &mut out);
        out
    }

    #[test]
    fn gallop_matches_linear_on_skewed_inputs() {
        let small: Vec<u16> = vec![3, 900, 901, 40_000];
        let large: Vec<u16> = (0..10_000u16).map(|i| i * 4).collect();
        let mut linear = Vec::new();
        intersect_visit_linear(&small, &large, |x| linear.push(x));
        let mut gallop = Vec::new();
        intersect_visit_gallop(&small, &large, |x| gallop.push(x));
        assert_eq!(linear, gallop);
        assert_eq!(collect(&small, &large), linear);
        assert_eq!(collect(&large, &small), linear);
        assert_eq!(intersect_len(&small, &large), linear.len());
    }

    #[test]
    fn gallop_handles_empty_and_disjoint() {
        assert_eq!(collect(&[], &[1, 2, 3]), Vec::<u16>::new());
        assert_eq!(collect(&[1, 2, 3], &[]), Vec::<u16>::new());
        let mut out = Vec::new();
        intersect_visit_gallop(&[1, 2], &(100..5_000u16).collect::<Vec<_>>(), |x| {
            out.push(x)
        });
        assert!(out.is_empty());
    }

    #[test]
    fn subset_sorted_early_exit_and_exhaustive() {
        let large: Vec<u16> = (0..1_000u16).map(|i| i * 3).collect();
        assert!(is_subset_sorted(&[0, 3, 2_997], &large));
        assert!(!is_subset_sorted(&[0, 4], &large));
        assert!(!is_subset_sorted(&[0, 3, 2_998], &large));
        assert!(is_subset_sorted(&[], &large));
        assert!(!is_subset_sorted(&[1], &[]));
    }

    #[test]
    fn word_kernels_match_scalar_reference() {
        // 1027 words exercises the non-multiple-of-8 tail.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let a: Vec<u64> = (0..1_027).map(|_| step()).collect();
        let b: Vec<u64> = (0..1_027).map(|_| step() & step()).collect();
        let expected = and_words_len_scalar(&a, &b);
        assert_eq!(and_words_len(&a, &b), expected);
        let mut out = vec![0u64; a.len()];
        assert_eq!(and_words_into(&a, &b, &mut out), expected);
        assert_eq!(and_words_len_scalar(&out, &out), expected);
        assert!(and_words_len_at_least(&a, &b, expected));
        assert!(!and_words_len_at_least(&a, &b, expected + 1));
        assert!(and_words_len_at_least(&a, &b, 0));
        assert!(subset_words(&out, &a));
        assert!(subset_words(&out, &b));
        if expected > 0 {
            assert!(!subset_words(&a, &out) || and_words_len_scalar(&a, &a) == expected);
        }
        let mut visited = 0u32;
        and_words_visit(&a, &b, 0, |_| visited += 1);
        assert_eq!(visited, expected);
    }
}
