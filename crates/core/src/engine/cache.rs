//! The query-result LRU the daemon keeps its rendered answers in.

use std::collections::HashMap;

/// Counters and occupancy of a [`QueryCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryCacheStats {
    /// Lookups answered from the cache (monotone).
    pub hits: u64,
    /// Lookups that missed (monotone).
    pub misses: u64,
    /// Entries dropped, by LRU pressure or delta flushes (monotone).
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

/// A capacity-bounded LRU cache for query responses.
///
/// Capacity pressure evicts the least-recently-used entry; a delta
/// flushes the whole cache ([`QueryCache::flush`]) rather than patching
/// entries, because a delta can move any answer. Counters are monotone
/// across flushes so long-lived gauges stay meaningful.
#[derive(Debug)]
pub struct QueryCache {
    capacity: usize,
    tick: u64,
    map: HashMap<String, (u64, String)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl QueryCache {
    /// A cache holding at most `capacity` responses (minimum 1).
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<String> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some((tick, value)) => {
                *tick = self.tick;
                self.hits += 1;
                Some(value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store a response, evicting the least-recently-used entry if the
    /// cache is full.
    pub fn insert(&mut self, key: String, value: String) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&lru);
                self.evictions += 1;
            }
        }
        self.map.insert(key, (self.tick, value));
    }

    /// Drop every entry (the on-delta invalidation). Each dropped entry
    /// counts as an eviction; hit/miss counters are untouched.
    pub fn flush(&mut self) {
        self.evictions += self.map.len() as u64;
        self.map.clear();
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> QueryCacheStats {
        QueryCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            capacity: self.capacity,
        }
    }
}
