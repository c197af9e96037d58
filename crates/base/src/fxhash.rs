//! A fast, deterministic hasher for the simulator's hot lookup tables.
//!
//! The default `std` hasher (SipHash) showed up prominently in profiles of
//! full-machine runs: page-table translations, directory lookups, and the
//! DirNNB value store all hash a `u64`-sized key on nearly every simulated
//! memory operation. This module provides the well-known Fx multiply-mix
//! hash (as used by rustc) — a couple of nanoseconds per key instead of
//! tens — with no external dependency.
//!
//! **Why `finish` rotates.** The multiply carries low key bits up into
//! high hash bits but never high key bits down: bit `i` of `key × SEED`
//! depends only on key bits `0..=i`. `std`'s `HashMap` (hashbrown) picks
//! the start bucket from the *low* bits of the hash, so without a final
//! mix the bucket depends only on the key's low bits. Two key shapes in
//! this workspace broke on that:
//!
//! - `tt-net`'s per-link occupancy keys, `source << 42 | link`: every
//!   source's entry for one link started in the same bucket, so each
//!   routed send walked a probe chain as long as the number of sources
//!   (on a 256-node mesh, most of the host time of a routed send);
//! - block addresses, multiples of 32 (DirNNB's busy, deferred and
//!   wide-sharer maps; the EM3D and `kv_update` copy, in-flight and
//!   deferred maps): only every 32nd start bucket was ever used.
//!
//! `finish` rotates the well-mixed high bits down
//! (`rotate_left(26)`, as rustc-hash 2 does), so the low bits depend on
//! the whole key. Map contents are unchanged by the hasher; only bucket
//! order moves, and with it when a map that also removes entries
//! rebuilds its table (where its tombstones fall): an allocation count
//! can move, a simulated cycle cannot.
//!
//! **Use only for maps that are never iterated on a semantics-bearing
//! path.** Swapping the hasher changes a `HashMap`'s internal bucket
//! order; any code that iterates one of these maps and schedules events
//! or allocates resources in iteration order would change simulation
//! results. Lookup/insert/remove-only maps are bit-exact under any
//! hasher, and the maps that are iterated sort first. (It is also not
//! DoS-resistant, which a simulator does not need.)

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;
/// Final rotation in `finish`: brings the multiply's high bits, which
/// depend on the whole key, down to where hashbrown indexes buckets.
const FINISH_ROTATE: u32 = 26;

/// The Fx string/integer hasher: `hash = (rotl(hash, 5) ^ word) * SEED`
/// per 8-byte word, finished with `rotl(hash, 26)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FINISH_ROTATE)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_keys() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(1);
        b.write_u64(2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn byte_tail_is_hashed() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"abcdefghijk");
        b.write(b"abcdefghijj");
        assert_ne!(a.finish(), b.finish());
    }

    fn finish_u64(key: u64) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(key);
        h.finish()
    }

    #[test]
    fn link_keys_spread_across_low_bits() {
        // `tt-net` link occupancy keys: one link, 256 sources.
        let low: FxHashSet<u64> = (0..256u64)
            .map(|s| finish_u64(s << 42 | 5) & 0xFFF)
            .collect();
        assert!(low.len() >= 200, "{} distinct low-bit values", low.len());
    }

    #[test]
    fn block_addresses_do_not_all_share_low_bits() {
        let low_bits_zero = (0..4096u64).all(|i| finish_u64(32 * i) & 0x1F == 0);
        assert!(
            !low_bits_zero,
            "block addresses only reach every 32nd bucket"
        );
    }

    #[test]
    fn map_round_trip() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 4096, i as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 4096)), Some(&(i as u32)));
        }
        assert_eq!(m.len(), 1000);
    }
}
