//! The word kernels behind every walk of a bitmap container.
//!
//! A dense container is a 1024-word bitset; these decode its set bits
//! word by word with `trailing_zeros`, straight into a closure, so
//! callers can count, copy, or bump an accumulator without
//! materializing the values. They are allocation-free.

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
