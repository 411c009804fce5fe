//! The winnowing fingerprint-selection algorithm (Schleimer, Wilkerson &
//! Aiken, SIGMOD'03 — the paper's ref \[25\], adapted in its Algorithm 1).
//!
//! Winnowing slides a window of size `w = t − k + 1` over the sequence of
//! `k`-gram hashes and selects, in each window, the minimum value (the
//! *rightmost* minimum on ties). This gives two guarantees:
//!
//! * any common hash run of length ≥ `w` (i.e. any common sub-trajectory
//!   of ≥ `t` points) contributes at least one common fingerprint;
//! * no fingerprint pair matches on runs shorter than `k` points.
//!
//! The classic `h mod p == 0` sampling (Section III-B of the paper) is
//! also provided, for the `ablation_sampling` bench: it is cheaper but
//! offers no detection guarantee.

/// Selects fingerprints from a candidate hash sequence by winnowing.
///
/// Returns the selected values in positional order; a candidate selected
/// by several consecutive windows is reported once (the standard
/// "record the position" optimization). Sequences no longer than the
/// window yield their single minimum; an empty sequence yields nothing.
///
/// # Panics
///
/// Panics if `window` is zero.
///
/// # Examples
///
/// ```
/// use geodabs_core::winnow::winnow;
///
/// // Window of 4 over the classic winnowing example sequence.
/// let hashes = [77, 74, 42, 17, 98, 50, 17, 98, 8, 88, 67, 39, 77, 74, 42, 17, 98];
/// let picks = winnow(&hashes, 4);
/// assert_eq!(picks, vec![17, 17, 8, 39, 17]);
/// ```
pub fn winnow(candidates: &[u32], window: usize) -> Vec<u32> {
    assert!(window > 0, "winnowing window must be positive");
    if candidates.is_empty() {
        return Vec::new();
    }
    if candidates.len() <= window {
        return vec![rightmost_min(candidates).1];
    }
    // Each window writes its minimum at `len` and keeps it only when its
    // position is new, so no branch waits on the (random) comparison.
    let windows = candidates.len() - window + 1;
    let mut out = vec![0; windows];
    let (mut len, mut last_pos) = (0, usize::MAX);
    for start in 0..windows {
        let (off, val) = rightmost_min(&candidates[start..start + window]);
        let pos = start + off;
        out[len] = val;
        len += usize::from(pos != last_pos);
        last_pos = pos;
    }
    out.truncate(len);
    out
}

/// Selects every candidate `h` with `h % p == 0` (mod-p sampling).
///
/// This is the pre-winnowing practice described in Section III-B: the
/// expected density is `1/p`, but there is **no** guarantee that a long
/// common run produces a common fingerprint.
///
/// # Panics
///
/// Panics if `p` is zero.
pub fn sample_mod_p(candidates: &[u32], p: u32) -> Vec<u32> {
    assert!(p > 0, "sampling modulus must be positive");
    candidates.iter().copied().filter(|h| h % p == 0).collect()
}

/// Streaming winnowing over an iterator of candidates, using a monotonic
/// deque — the "optimised version of this algorithm \[relying\] on circular
/// buffers" the paper mentions (and then drops, since normalized
/// trajectories are short). `O(n)` total instead of `O(n · w)`.
///
/// Produces exactly the same selection as [`winnow`]; the equivalence is
/// enforced by property tests and the `crit_kernels` bench compares their
/// throughput.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn winnow_streaming<I: IntoIterator<Item = u32>>(candidates: I, window: usize) -> Vec<u32> {
    assert!(window > 0, "winnowing window must be positive");
    // Deque of (position, value), values strictly increasing front→back:
    // the front is always the rightmost minimum of the current window.
    let mut deque: std::collections::VecDeque<(usize, u32)> = std::collections::VecDeque::new();
    let mut out = Vec::new();
    let mut last_pos = usize::MAX;
    let mut len = 0usize;
    for (i, v) in candidates.into_iter().enumerate() {
        len = i + 1;
        // Drop entries that can no longer be a rightmost minimum: a new
        // value `v` at a later position wins every tie, so pop `>=`.
        while deque.back().map(|&(_, bv)| bv >= v).unwrap_or(false) {
            deque.pop_back();
        }
        deque.push_back((i, v));
        if i + 1 >= window {
            // Window is [i + 1 - window, i]; expire the front if outside.
            let start = i + 1 - window;
            while deque.front().map(|&(p, _)| p < start).unwrap_or(false) {
                deque.pop_front();
            }
            let &(pos, val) = deque.front().expect("deque holds the current element");
            if pos != last_pos {
                out.push(val);
                last_pos = pos;
            }
        }
    }
    if len == 0 {
        return Vec::new();
    }
    if len < window {
        // Short input: single global rightmost minimum, like `winnow`.
        let &(_, val) = deque.front().expect("non-empty input fills the deque");
        return vec![val];
    }
    out
}

/// The position and value of the last minimum of a non-empty window,
/// scanned with selects rather than branches.
fn rightmost_min(window: &[u32]) -> (usize, u32) {
    let (mut best, mut min) = (0, window[0]);
    for (i, &v) in window.iter().enumerate().skip(1) {
        let take = v <= min;
        best = if take { i } else { best };
        min = if take { v } else { min };
    }
    (best, min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn empty_input_yields_nothing() {
        assert!(winnow(&[], 4).is_empty());
    }

    #[test]
    fn short_input_yields_single_minimum() {
        assert_eq!(winnow(&[9, 3, 7], 4), vec![3]);
        assert_eq!(winnow(&[5], 4), vec![5]);
        // Rightmost minimum on ties.
        assert_eq!(winnow(&[3, 9, 3], 4), vec![3]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        let _ = winnow(&[1, 2], 0);
    }

    #[test]
    fn window_of_one_selects_everything() {
        assert_eq!(winnow(&[4, 2, 9], 1), vec![4, 2, 9]);
    }

    #[test]
    fn selects_rightmost_minimum_in_each_window() {
        // Window [7, 7]: rightmost 7 selected, so moving to the next
        // window with another 7 re-selects a *new* position.
        let picks = winnow(&[7, 7, 7, 7], 2);
        assert_eq!(picks, vec![7, 7, 7]);
    }

    #[test]
    fn strictly_decreasing_selects_each_new_minimum() {
        let picks = winnow(&[9, 8, 7, 6, 5], 3);
        assert_eq!(picks, vec![7, 6, 5]);
    }

    #[test]
    fn strictly_increasing_selects_leading_minimum_then_window_edges() {
        let picks = winnow(&[1, 2, 3, 4, 5], 3);
        // Window 1 picks 1; windows then pick their left edge as it exits.
        assert_eq!(picks, vec![1, 2, 3]);
    }

    #[test]
    fn density_is_about_two_over_w_plus_one() {
        // Schleimer et al. prove the expected density of winnowing is
        // 2/(w+1) for random hashes.
        let mut x: u32 = 12345;
        let hashes: Vec<u32> = (0..20_000)
            .map(|_| {
                // xorshift for a deterministic pseudo-random stream
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        let w = 7;
        let picks = winnow(&hashes, w);
        let density = picks.len() as f64 / hashes.len() as f64;
        let expected = 2.0 / (w as f64 + 1.0);
        assert!(
            (density - expected).abs() < 0.03,
            "density {density:.3}, expected {expected:.3}"
        );
    }

    #[test]
    fn guarantee_shared_run_produces_shared_fingerprint() {
        // Two sequences sharing a run of w consecutive candidates must
        // share at least one selected fingerprint.
        let shared = [42, 17, 98, 50, 23, 61, 11];
        let w = shared.len();
        let mut a = vec![900, 901, 902];
        a.extend_from_slice(&shared);
        a.extend_from_slice(&[903, 904]);
        let mut b = vec![700];
        b.extend_from_slice(&shared);
        b.extend_from_slice(&[701, 702, 703, 704]);
        let pa: HashSet<u32> = winnow(&a, w).into_iter().collect();
        let pb: HashSet<u32> = winnow(&b, w).into_iter().collect();
        assert!(!pa.is_disjoint(&pb), "guarantee violated: {pa:?} vs {pb:?}");
    }

    #[test]
    fn streaming_matches_reference_on_examples() {
        let cases: Vec<(Vec<u32>, usize)> = vec![
            (vec![], 4),
            (vec![5], 4),
            (vec![9, 3, 7], 4),
            (vec![7, 7, 7, 7], 2),
            (vec![9, 8, 7, 6, 5], 3),
            (vec![1, 2, 3, 4, 5], 3),
            (
                vec![
                    77, 74, 42, 17, 98, 50, 17, 98, 8, 88, 67, 39, 77, 74, 42, 17, 98,
                ],
                4,
            ),
        ];
        for (hashes, w) in cases {
            assert_eq!(
                winnow_streaming(hashes.iter().copied(), w),
                winnow(&hashes, w),
                "input {hashes:?} window {w}"
            );
        }
    }

    #[test]
    fn streaming_accepts_iterators() {
        let picks = winnow_streaming((0..100u32).rev(), 5);
        assert_eq!(picks, winnow(&(0..100u32).rev().collect::<Vec<_>>(), 5));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn streaming_zero_window_panics() {
        let _ = winnow_streaming([1u32, 2], 0);
    }

    #[test]
    fn mod_p_sampling_filters_by_residue() {
        let hashes = [0, 3, 4, 8, 9, 12, 16];
        assert_eq!(sample_mod_p(&hashes, 4), vec![0, 4, 8, 12, 16]);
        assert_eq!(sample_mod_p(&hashes, 1).len(), hashes.len());
        assert!(sample_mod_p(&[], 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn mod_zero_panics() {
        let _ = sample_mod_p(&[1], 0);
    }

    proptest! {
        #[test]
        fn prop_every_window_contains_a_selection(
            hashes in proptest::collection::vec(any::<u32>(), 1..200),
            w in 1usize..12,
        ) {
            let picks = winnow(&hashes, w);
            prop_assert!(!picks.is_empty());
            // Reconstruct selected positions by simulating again, then
            // check the coverage guarantee window by window.
            let mut positions = Vec::new();
            if hashes.len() <= w {
                let (mut best, _) = (0usize, hashes[0]);
                for (i, &v) in hashes.iter().enumerate() {
                    if v <= hashes[best] { best = i; }
                }
                positions.push(best);
            } else {
                let mut last = usize::MAX;
                for s in 0..=hashes.len() - w {
                    let mut best = s;
                    for i in s..s + w {
                        if hashes[i] <= hashes[best] { best = i; }
                    }
                    if best != last {
                        positions.push(best);
                        last = best;
                    }
                }
                for s in 0..=hashes.len() - w {
                    prop_assert!(
                        positions.iter().any(|&p| (s..s + w).contains(&p)),
                        "window at {s} has no selection"
                    );
                }
            }
            // And the reported values match the positions.
            let values: Vec<u32> = positions.iter().map(|&p| hashes[p]).collect();
            prop_assert_eq!(picks, values);
        }

        #[test]
        fn prop_selection_is_subset_of_input(
            hashes in proptest::collection::vec(any::<u32>(), 0..100),
            w in 1usize..10,
        ) {
            let input: HashSet<u32> = hashes.iter().copied().collect();
            for v in winnow(&hashes, w) {
                prop_assert!(input.contains(&v));
            }
        }

        #[test]
        fn prop_streaming_equals_reference(
            hashes in proptest::collection::vec(any::<u32>(), 0..300),
            w in 1usize..16,
        ) {
            prop_assert_eq!(winnow_streaming(hashes.iter().copied(), w), winnow(&hashes, w));
        }

        #[test]
        fn prop_streaming_equals_reference_small_alphabet(
            // Small value alphabet maximizes ties, stressing the
            // rightmost-minimum tie-breaking.
            hashes in proptest::collection::vec(0u32..4, 0..200),
            w in 1usize..10,
        ) {
            prop_assert_eq!(winnow_streaming(hashes.iter().copied(), w), winnow(&hashes, w));
        }

        #[test]
        fn prop_mod_p_density(p in 1u32..64) {
            let hashes: Vec<u32> = (0..4096u32).map(|i| i.wrapping_mul(2654435761)).collect();
            let picked = sample_mod_p(&hashes, p).len() as f64;
            let expected = hashes.len() as f64 / p as f64;
            // Loose bound: within a factor of 2 for this deterministic mix.
            prop_assert!(picked <= expected * 2.0 + 8.0);
        }
    }
}
