//! Bit interleaving (Morton encoding) for the Z-order space-filling curve.
//!
//! A geohash is exactly a Morton code over quantized longitude/latitude
//! (Figure 2 of the paper): even bit positions (starting from the most
//! significant bit of the hash) subdivide longitude, odd positions subdivide
//! latitude. Interpreting the resulting bit string as an integer orders the
//! cells along the Z-order curve, which is what the sharding strategy of
//! Section VI-E exploits.

/// Per-byte spread table: entry `b` is the 16-bit value whose bit `2 * i`
/// equals bit `i` of `b` — one lookup replaces the five shift-and-mask
/// rounds of [`spread_masks`] per input byte.
const SPREAD_BYTE: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut v = 0u16;
        let mut i = 0;
        while i < 8 {
            if b & (1 << i) != 0 {
                v |= 1 << (2 * i);
            }
            i += 1;
        }
        table[b] = v;
        b += 1;
    }
    table
};

/// Spreads the lower 32 bits of `x` so that bit `i` of the input lands at bit
/// `2 * i` of the output.
///
/// ```
/// use geodabs_geo::morton::spread;
///
/// assert_eq!(spread(0b11), 0b101);
/// assert_eq!(spread(u32::MAX), 0x5555_5555_5555_5555);
/// ```
pub fn spread(x: u32) -> u64 {
    let b = x.to_le_bytes();
    (SPREAD_BYTE[b[0] as usize] as u64)
        | (SPREAD_BYTE[b[1] as usize] as u64) << 16
        | (SPREAD_BYTE[b[2] as usize] as u64) << 32
        | (SPREAD_BYTE[b[3] as usize] as u64) << 48
}

/// Shift-and-mask implementation of [`spread`], retained as the reference
/// the differential tests and the `crit_kernels` encode benches compare the
/// byte-LUT path against.
pub fn spread_masks(x: u32) -> u64 {
    let mut v = x as u64;
    v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333_3333_3333;
    v = (v | (v << 1)) & 0x5555_5555_5555_5555;
    v
}

/// Inverse of [`spread`]: collects every second bit (starting at bit 0) into
/// a compact 32-bit value.
pub fn compact(v: u64) -> u32 {
    let mut v = v & 0x5555_5555_5555_5555;
    v = (v | (v >> 1)) & 0x3333_3333_3333_3333;
    v = (v | (v >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v >> 4)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v >> 8)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v >> 16)) & 0x0000_0000_FFFF_FFFF;
    v as u32
}

/// Interleaves two 32-bit values into a 64-bit Morton code.
///
/// Bit `i` of `even` lands at output bit `2 * i` and bit `i` of `odd` at
/// `2 * i + 1`. For geohashes, the longitude occupies the *higher* of each
/// bit pair once the code is left-aligned, matching the convention that the
/// first bisection is on the longitude axis.
#[inline]
pub fn interleave(even: u32, odd: u32) -> u64 {
    // Eight byte lookups build the full 64-bit code: each input byte pair
    // yields one 16-bit slice of the output.
    let e = even.to_le_bytes();
    let o = odd.to_le_bytes();
    let mut code = 0u64;
    for i in 0..4 {
        let pair = SPREAD_BYTE[e[i] as usize] as u64 | (SPREAD_BYTE[o[i] as usize] as u64) << 1;
        code |= pair << (16 * i);
    }
    code
}

/// Splits a Morton code back into its even-position and odd-position halves.
///
/// Inverse of [`interleave`].
pub fn deinterleave(code: u64) -> (u32, u32) {
    (compact(code), compact(code >> 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn spread_known_values() {
        assert_eq!(spread(0), 0);
        assert_eq!(spread(1), 1);
        assert_eq!(spread(0b10), 0b100);
        assert_eq!(spread(0b111), 0b10101);
        assert_eq!(spread(u32::MAX), 0x5555_5555_5555_5555);
    }

    #[test]
    fn compact_inverts_spread_on_known_values() {
        for x in [0u32, 1, 2, 3, 0xFF, 0xDEAD_BEEF, u32::MAX] {
            assert_eq!(compact(spread(x)), x);
        }
    }

    #[test]
    fn interleave_known_pattern() {
        // even = 0b11 -> bits 0 and 2; odd = 0b01 -> bit 1.
        assert_eq!(interleave(0b11, 0b01), 0b111);
        assert_eq!(interleave(0, u32::MAX), 0xAAAA_AAAA_AAAA_AAAA);
        assert_eq!(interleave(u32::MAX, 0), 0x5555_5555_5555_5555);
    }

    #[test]
    fn deinterleave_known_pattern() {
        assert_eq!(deinterleave(0b111), (0b11, 0b01));
        assert_eq!(deinterleave(u64::MAX), (u32::MAX, u32::MAX));
    }

    #[test]
    fn zorder_monotone_in_quadrants() {
        // Points in the lower-left quadrant must order before the upper-right
        // quadrant on the Z-curve when the leading bits differ.
        let low = interleave(0x0000_0000, 0x0000_0000);
        let high = interleave(0x8000_0000, 0x8000_0000);
        assert!(low < high);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(even: u32, odd: u32) {
            let code = interleave(even, odd);
            prop_assert_eq!(deinterleave(code), (even, odd));
        }

        #[test]
        fn prop_spread_compact_roundtrip(x: u32) {
            prop_assert_eq!(compact(spread(x)), x);
        }

        #[test]
        fn prop_interleave_is_bitwise_disjoint(even: u32, odd: u32) {
            prop_assert_eq!(spread(even) & (spread(odd) << 1), 0);
            prop_assert_eq!(interleave(even, odd), spread(even) ^ (spread(odd) << 1));
        }

        #[test]
        fn prop_lut_matches_shift_mask_reference(even: u32, odd: u32) {
            prop_assert_eq!(spread(even), spread_masks(even));
            prop_assert_eq!(
                interleave(even, odd),
                spread_masks(even) | (spread_masks(odd) << 1)
            );
        }
    }
}
