//! A small Fx-style hasher for integer-keyed maps on hot paths.
//!
//! The mining loop keys hash maps by cell ids and by short `u32` pattern
//! sequences; SipHash's HashDoS resistance buys nothing there and costs
//! real time (see the perf guide's Hashing chapter). This is the classic
//! "Fx" multiply-rotate hash used by rustc, implemented locally to avoid an
//! extra dependency.
//!
//! [`FxHasher::finish`] rotates the running product before handing it to
//! the table. The std `HashMap` picks a bucket from the *low* bits of the
//! hash, and the low bits of a product `key × K` depend only on the low
//! bits of the key. Keys that differ only in their high bits — the growth
//! engine's pair memo keys ordered pairs as `(a << 32) | b`, so all pairs
//! sharing `b` differ only above bit 32 — would otherwise share one home
//! bucket and walk one long probe chain per insert. The product's high
//! bits depend on every key bit, and the rotation moves them down to
//! where the bucket is chosen.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hash map using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// Hash set using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;
/// How far [`FxHasher::finish`] rotates the product: bits 38–63, which
/// depend on every bit of a one-word key, land in the low bits the table
/// indexes by (see the module docs).
const FINISH_ROTATE: u32 = 26;

/// A fast, non-cryptographic hasher (the rustc "Fx" algorithm).
#[derive(Debug, Default, Clone)]
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
    fn write(&mut self, bytes: &[u8]) {
        // Consume 8 bytes at a time, then the remainder.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf) | ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
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

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FINISH_ROTATE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&vec![1u32, 2, 3]), hash_of(&vec![1u32, 2, 3]));
    }

    #[test]
    fn discriminates_simple_inputs() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&vec![1u32, 2]), hash_of(&vec![2u32, 1]));
        // Length-extension style collisions are avoided by the remainder tag.
        assert_ne!(hash_of(&b"ab".to_vec()), hash_of(&b"ab\0".to_vec()));
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FxHashMap<Vec<u32>, f64> = FxHashMap::default();
        m.insert(vec![1, 2, 3], -0.5);
        m.insert(vec![3, 2, 1], -0.25);
        assert_eq!(m.get(&vec![1, 2, 3]), Some(&-0.5));
        assert_eq!(m.len(), 2);

        let mut s: FxHashSet<u32> = FxHashSet::default();
        for i in 0..1000 {
            s.insert(i % 100);
        }
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn distribution_is_reasonable() {
        // Sequential keys should not all land in the same few buckets: check
        // that the low 8 bits of the hashes of 0..4096 take many values.
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            seen.insert(hash_of(&i) & 0xff);
        }
        assert!(seen.len() > 200, "only {} low-byte values", seen.len());
    }

    #[test]
    fn pair_keys_spread_over_low_bits() {
        // The growth engine keys ordered pairs as `(a << 32) | b`. With a
        // few distinct `b` and many `a`, the keys differ only in their
        // high half; the low byte (the bucket the table probes first)
        // must still take many values, not one per `b`.
        let mut seen = std::collections::HashSet::new();
        for b in 0..8u64 {
            for a in 0..512u64 {
                seen.insert(hash_of(&((a << 32) | (b * 97 + 3))) & 0xff);
            }
        }
        assert!(seen.len() >= 200, "only {} low-byte values", seen.len());
    }
}
