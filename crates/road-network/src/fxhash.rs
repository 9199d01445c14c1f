//! A tiny Fx-style multiplicative hasher for integer keys.
//!
//! The standard library's SipHash is needlessly slow for the `(u32, u32)`
//! vertex-pair keys that dominate this workspace (distance cache, grid cells).
//! Dedicated hashing crates are outside the allowed dependency set, so we
//! implement the well-known `FxHash` mixing step (as used by rustc)
//! locally: multiply-rotate with a 64-bit odd constant. HashDoS is not a
//! concern — keys are internal vertex ids, never attacker-controlled.

use std::hash::{BuildHasherDefault, Hasher};

/// The rustc-Fx 64-bit mixing constant (golden-ratio derived).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic hasher for small integer-like keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer keys: fold 8 bytes at a time.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("chunk of 8")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i + 1), u64::from(i) * 3);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i + 1)), Some(&(u64::from(i) * 3)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn distinct_keys_usually_distinct_hashes() {
        use std::hash::BuildHasher;
        let bh = FxBuildHasher::default();
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(bh.hash_one(i));
        }
        // A decent mixer should have no collisions on 10k sequential ints.
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn byte_stream_fallback_consistent() {
        use std::hash::Hasher as _;
        let mut a = FxHasher::default();
        a.write(b"hello world, this is a byte stream");
        let mut b = FxHasher::default();
        b.write(b"hello world, this is a byte stream");
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(b"hello world, this is a byte strean");
        assert_ne!(a.finish(), c.finish());
    }
}
