//! A fast, non-cryptographic hasher (FxHash-style) implemented locally so the
//! engine does not depend on external hashing crates.
//!
//! The std `SipHash` default is robust against HashDoS but measurably slow for
//! the short integer-heavy keys (rule encodings, bit masks) that dominate
//! SIRUM's shuffles. All hash maps in this workspace key on data we generate
//! ourselves, so DoS resistance is not required.
//!
//! One state, two readings of it:
//!
//! * [`Hasher::finish`] — what [`FxHashMap`] sees — returns the
//!   state rotated so its high bits land low. A multiply only carries
//!   entropy upward: the product's low bits depend only on the key's low
//!   bits, and `std`'s map picks a key's home bucket from those low bits. A
//!   packed rule code holds its *last* dimensions in its low bits, so
//!   without the rotation every code that agrees on the last few fields
//!   shares one home bucket and each probe walks a long group chain.
//! * [`fx_hash_one`] — the shuffle route — returns the state as it is.
//!   Which reducer a key reaches decides which ≤ `TOP_PER_PARTITION`
//!   candidates survive there, so these bits are part of the mining output
//!   and stay fixed. The sweep's slot table, which buckets by them, takes
//!   their top bits.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;
/// How far [`Hasher::finish`] rotates the state left: the product's best
/// mixed bits, from bit 38 up, become the low bits a map buckets by.
const FINISH_ROTATE: u32 = 26;

/// FxHash-style multiplicative hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FINISH_ROTATE)
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&bytes[..4]);
            self.add_to_hash(u64::from(u32::from_le_bytes(buf)));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        // Two word-mixes instead of std's default byte-slice fallback:
        // packed u128 rule codes sit on the sweep's hottest probe path.
        self.add_to_hash(v as u64);
        self.add_to_hash((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Hash a single value with [`FxHasher`]; used for shuffle partitioning.
///
/// Returns the un-rotated state, not [`Hasher::finish`]: these are the
/// route bits every shuffle has always used, and they decide which
/// reducer keeps which candidates (see the module doc).
#[inline]
pub fn fx_hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_deterministic() {
        assert_eq!(fx_hash_one(&42u64), fx_hash_one(&42u64));
        assert_eq!(fx_hash_one(&"abc"), fx_hash_one(&"abc"));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(fx_hash_one(&1u64), fx_hash_one(&2u64));
        assert_ne!(fx_hash_one(&[1u32, 2]), fx_hash_one(&[2u32, 1]));
        // u128 mixes both halves, not just the low word.
        assert_ne!(fx_hash_one(&1u128), fx_hash_one(&(1u128 << 64 | 1)));
        assert_ne!(fx_hash_one(&0u128), fx_hash_one(&(1u128 << 127)));
    }

    #[test]
    fn byte_tails_are_mixed() {
        // Inputs that differ only in a non-word-aligned tail byte must differ.
        assert_ne!(fx_hash_one(&[1u8, 2, 3]), fx_hash_one(&[1u8, 2, 4]));
        assert_ne!(
            fx_hash_one(&[1u8, 2, 3, 4, 5]),
            fx_hash_one(&[1u8, 2, 3, 4, 6])
        );
    }

    #[test]
    fn map_round_trip() {
        let mut m: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(vec![i, i + 1], u64::from(i));
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m[&vec![i, i + 1]], u64::from(i));
        }
    }

    #[test]
    fn route_bits_are_pinned() {
        // Values taken before `finish` learned to rotate: shuffles route by
        // these bits, so they must not move with it.
        assert_eq!(
            fx_hash_one(&0x0123_4567_89ab_cdef_u64),
            0x56cc_4aad_99c8_321b
        );
        let wide = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210_u128;
        assert_eq!(fx_hash_one(&wide), 0x9b67_5350_4669_aa49);
        let (odd, even, one): (&[u32], &[u32], &[u32]) =
            (&[3, 1, 4, 1, 5], &[2, 7, 1, 8], &[u32::MAX]);
        assert_eq!(fx_hash_one(&odd), 0xc5d2_6089_abee_7fb1);
        assert_eq!(fx_hash_one(&even), 0xa463_6df2_12a5_3538);
        assert_eq!(fx_hash_one(&one), 0x2069_9457_910a_3479);
        // `sirum_core`'s `routes_are_pinned` pins a `Rule` and its codes.
    }

    #[test]
    fn map_buckets_spread_keys_that_differ_only_in_high_bits() {
        // Packed rule codes keep their first dimensions in their high bits.
        // A map buckets by the low bits of `finish`; bucket 4096 such keys
        // as a 4096-bucket table does. Without the rotation all of them
        // share bucket 0.
        let mut buckets = vec![0usize; 1 << 12];
        for i in 0..4096u64 {
            let mut h = FxHasher::default();
            h.write_u64(i << 40);
            buckets[(h.finish() & 0xfff) as usize] += 1;
        }
        let fullest = buckets.iter().max().copied().unwrap_or(0);
        assert!(fullest <= 8, "fullest bucket holds {fullest} of 4096 keys");
    }
}
