//! The fixed-capacity ITE computed cache.
//!
//! The previous engine memoised ITE results in an unbounded `FxHashMap`,
//! so a long analysis traded ever more memory for hits and the map's
//! growth rehashes sat in the hottest loop of the whole system. This is
//! the classic alternative (CUDD, BuDDy, Sylvan all do a variant):
//! a fixed-size, open-addressed array of `(f, g, h) → r` entries probed
//! at two slots per key. Collisions *overwrite* — an eviction costs at
//! worst one recomputation later, while bounding memory exactly and
//! keeping every probe O(1) with no rehash cliffs.
//!
//! Keys store the raw `Ref` bits of the **normalized** standard triple
//! (first and second arguments regular, see `Bdd::ite`), so the sentinel
//! for an empty slot can be `f == 0` (`Ref::TRUE`'s raw value): terminal
//! first arguments never reach the cache — the trivial cases all resolve
//! before the probe. A zeroed allocation is therefore an empty cache.

use crate::node::Ref;

#[derive(Clone, Copy, Default)]
struct Slot {
    f: u32,
    g: u32,
    h: u32,
    r: u32,
}

/// Raw `f` value marking an empty slot (`Ref::TRUE`, never a cached key).
const EMPTY: u32 = 0;

/// Default cache size: 2^18 two-way buckets ≈ 262k entries, 4 MiB per
/// manager. Large enough that the fig6–fig9 workloads stay under ~15%
/// eviction traffic; small enough that a per-worker manager costs a few
/// MiB regardless of how long the analysis runs.
pub(crate) const DEFAULT_ITE_CACHE_LOG2: u32 = 18;

pub(crate) struct IteCache {
    /// Power-of-two slot array, allocated lazily on the first insert so
    /// trivial managers (tests build thousands) never pay the memset.
    slots: Box<[Slot]>,
    mask: u32,
    log2: u32,
    occupied: usize,
    lookups: u64,
    hits: u64,
    evictions: u64,
}

/// The key mix shared with the unique table (`unique.rs`).
#[inline]
pub(crate) fn mix(f: u32, g: u32, h: u32) -> u64 {
    // Each word gets its own odd multiplier before combining, and callers
    // index with the *high* bits of the final product: the low bits of a
    // multiply depend only on equally-low input bits, so a single
    // shift-xor-multiply starves whichever operand lands in the high
    // lanes and triples differing mostly in `h` pile onto the same slots.
    let x = (f as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (g as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ (h as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl IteCache {
    pub fn new(log2: u32) -> IteCache {
        assert!((4..=30).contains(&log2), "ite cache size out of range");
        IteCache {
            slots: Box::new([]),
            mask: (1u32 << log2) - 1,
            log2,
            occupied: 0,
            lookups: 0,
            hits: 0,
            evictions: 0,
        }
    }

    /// Total slots the cache holds once allocated.
    #[inline]
    pub fn capacity(&self) -> usize {
        1usize << self.log2
    }

    /// Bytes allocated for the slot array (0 until the first insert).
    pub fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
    }

    /// Slots currently holding an entry.
    #[inline]
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    #[inline]
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.lookups, self.hits, self.evictions)
    }

    /// The two probe positions for a key: a bucket pair sharing one cache
    /// line (slots are 16 bytes; a pair spans 32). Indexed by the high
    /// bits of the mixed key — see [`mix`].
    #[inline]
    fn probes(&self, f: Ref, g: Ref, h: Ref) -> (usize, usize) {
        let i = ((mix(f.0, g.0, h.0) >> (64 - self.log2)) & self.mask as u64) as usize;
        (i, i ^ 1)
    }

    #[inline]
    pub fn lookup(&mut self, f: Ref, g: Ref, h: Ref) -> Option<Ref> {
        self.lookups += 1;
        if self.slots.is_empty() || f.0 == EMPTY {
            // A terminal first argument is indistinguishable from the
            // empty-slot sentinel; it must never match a slot.
            return None;
        }
        let (i, j) = self.probes(f, g, h);
        for k in [i, j] {
            let s = self.slots[k];
            if s.f == f.0 && s.g == g.0 && s.h == h.0 {
                self.hits += 1;
                return Some(Ref(s.r));
            }
        }
        None
    }

    pub fn insert(&mut self, f: Ref, g: Ref, h: Ref, r: Ref) {
        if f.0 == EMPTY {
            // Terminal first arguments resolve before the probe, but a
            // caller that slipped one through would store a key aliasing
            // the empty-slot sentinel: a slot that is occupied yet reads
            // as empty, which later inserts would count a second time
            // until `occupied` crept past capacity. Refuse to cache
            // rather than corrupt the accounting.
            return;
        }
        if self.slots.is_empty() {
            self.slots = vec![Slot::default(); self.capacity()].into_boxed_slice();
        }
        let (i, j) = self.probes(f, g, h);
        // Prefer refreshing an existing entry for the same key, then an
        // empty slot; otherwise overwrite the first probe (direct-mapped
        // eviction).
        let target = if self.slots[i].f == f.0 && self.slots[i].g == g.0 && self.slots[i].h == h.0 {
            i
        } else if self.slots[j].f == f.0 && self.slots[j].g == g.0 && self.slots[j].h == h.0 {
            j
        } else if self.slots[i].f == EMPTY {
            i
        } else if self.slots[j].f == EMPTY {
            j
        } else {
            i
        };
        // Account from the pre-write state of the slot actually written,
        // so one physical slot can never be counted occupied twice:
        // filling an empty slot grows occupancy, replacing another key is
        // an eviction, refreshing the same key is neither.
        let prev = self.slots[target];
        if prev.f == EMPTY {
            self.occupied += 1;
        } else if prev.f != f.0 || prev.g != g.0 || prev.h != h.0 {
            self.evictions += 1;
        }
        debug_assert!(self.occupied <= self.capacity());
        self.slots[target] = Slot {
            f: f.0,
            g: g.0,
            h: h.0,
            r: r.0,
        };
    }

    /// Drop every entry, keeping the allocation and the cumulative
    /// counters.
    pub fn clear(&mut self) {
        self.slots.fill(Slot::default());
        self.occupied = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x: u32) -> Ref {
        Ref(x)
    }

    #[test]
    fn empty_cache_misses_without_allocating() {
        let mut c = IteCache::new(8);
        assert_eq!(c.lookup(r(2), r(4), r(6)), None);
        assert_eq!(c.occupied(), 0);
        assert_eq!(c.counters(), (1, 0, 0));
        assert!(c.slots.is_empty(), "lookup must not allocate");
    }

    #[test]
    fn insert_then_hit() {
        let mut c = IteCache::new(8);
        c.insert(r(2), r(4), r(6), r(8));
        assert_eq!(c.lookup(r(2), r(4), r(6)), Some(r(8)));
        assert_eq!(c.occupied(), 1);
        let (lookups, hits, evictions) = c.counters();
        assert_eq!((lookups, hits, evictions), (1, 1, 0));
    }

    #[test]
    fn same_key_refreshes_in_place() {
        let mut c = IteCache::new(8);
        c.insert(r(2), r(4), r(6), r(8));
        c.insert(r(2), r(4), r(6), r(10));
        assert_eq!(c.occupied(), 1);
        assert_eq!(c.counters().2, 0, "refresh is not an eviction");
        assert_eq!(c.lookup(r(2), r(4), r(6)), Some(r(10)));
    }

    #[test]
    fn capacity_is_bounded_and_evictions_counted() {
        let mut c = IteCache::new(4); // 16 slots
        for i in 0..400u32 {
            c.insert(r(2 + 2 * i), r(4), r(6), r(8));
        }
        assert!(c.occupied() <= c.capacity());
        let (_, _, evictions) = c.counters();
        assert!(evictions > 0, "overfill must evict");
        // The cache still answers *something* correctly: reinsert and hit.
        c.insert(r(2), r(4), r(6), r(12));
        assert_eq!(c.lookup(r(2), r(4), r(6)), Some(r(12)));
    }

    #[test]
    fn occupancy_never_exceeds_capacity_under_forced_collisions() {
        let mut c = IteCache::new(4); // 16 slots, tiny enough to thrash
        let mut last_evictions = 0;
        for i in 0..2_000u32 {
            // Alternate fresh keys with re-inserts of earlier ones so
            // every slot sees fills, refreshes, and overwrites.
            let key = 2 + 2 * (i % 700);
            c.insert(r(key), r(4), r(6), r(8 + 2 * i));
            assert!(
                c.occupied() <= c.capacity(),
                "occupancy {} exceeded capacity {} after insert {}",
                c.occupied(),
                c.capacity(),
                i
            );
            let (_, _, evictions) = c.counters();
            assert!(evictions >= last_evictions, "eviction counter regressed");
            last_evictions = evictions;
        }
        let (_, _, evictions) = c.counters();
        assert!(evictions > 0, "collision workload must evict");
        // A full round of eviction churn must not inflate occupancy: the
        // slot array is the ground truth.
        let live = c.slots.iter().filter(|s| s.f != EMPTY).count();
        assert_eq!(c.occupied(), live, "occupancy diverged from live slots");
    }

    #[test]
    fn terminal_first_argument_is_never_cached() {
        let mut c = IteCache::new(4);
        // Fill one slot legitimately, then hammer the sentinel-aliasing
        // key: neither occupancy nor counters may drift past capacity.
        c.insert(r(2), r(4), r(6), r(8));
        for i in 0..100u32 {
            c.insert(r(EMPTY), r(4 + 2 * i), r(6), r(8));
        }
        assert_eq!(c.occupied(), 1);
        assert_eq!(c.lookup(r(EMPTY), r(4), r(6)), None);
        assert!(c.occupied() <= c.capacity());
    }

    #[test]
    fn clear_keeps_counters_drops_entries() {
        let mut c = IteCache::new(6);
        c.insert(r(2), r(4), r(6), r(8));
        let _ = c.lookup(r(2), r(4), r(6));
        c.clear();
        assert_eq!(c.occupied(), 0);
        assert_eq!(c.lookup(r(2), r(4), r(6)), None);
        let (lookups, hits, _) = c.counters();
        assert_eq!((lookups, hits), (2, 1));
    }
}
