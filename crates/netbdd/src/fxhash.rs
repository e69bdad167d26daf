//! A minimal Fx-style hasher for the manager's internal tables.
//!
//! BDD operations are dominated by unique-table and computed-cache
//! lookups whose keys are two or three word-sized ids. SipHash (the
//! standard-library default) is overkill for that shape; this is the
//! word-at-a-time multiply-rotate hash used by the Rust compiler's
//! `FxHashMap`, reimplemented here (public-domain algorithm) to keep the
//! crate dependency-free. HashDoS resistance is irrelevant for these
//! internal tables: keys are arena indices, not attacker-controlled
//! data.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher over machine words.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path: fold word-sized chunks, then the tail.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
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
        self.hash
    }
}

/// `HashMap` build-hasher alias used throughout the manager.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by small fixed-size ids.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` of small fixed-size ids (traversal visited sets).
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal() {
        assert_eq!(hash_of(&(1u32, 2u32, 3u32)), hash_of(&(1u32, 2u32, 3u32)));
    }

    #[test]
    fn different_keys_usually_differ() {
        let a = hash_of(&(1u32, 2u32, 3u32));
        let b = hash_of(&(3u32, 2u32, 1u32));
        let c = hash_of(&(1u32, 2u32, 4u32));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn byte_path_matches_itself_and_spreads() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u32 {
            seen.insert(hash_of(&i.to_le_bytes().to_vec()));
        }
        assert!(seen.len() > 990, "hash must spread distinct inputs");
    }

    #[test]
    fn fxhashmap_works_as_a_map() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..100 {
            m.insert((i, i * 2), i);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&(7, 14)), Some(&7));
    }
}
