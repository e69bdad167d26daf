//! The gauge/counter registry.
//!
//! Gauges are point-in-time snapshots (last write wins): BDD node
//! counts, cache sizes, hit rates. Counters are monotone tallies
//! (increments accumulate): jobs executed, evictions, rules processed.
//! Both live in one global registry guarded by a mutex — these are
//! called at phase boundaries, not in inner loops, so contention is not
//! a concern; the disabled path never touches the lock.

use std::collections::BTreeMap;
use std::sync::Mutex;

#[derive(Default)]
struct Registry {
    gauges: BTreeMap<String, f64>,
    counters: BTreeMap<String, u64>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    gauges: BTreeMap::new(),
    counters: BTreeMap::new(),
});

fn lock() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Set a gauge to a point-in-time value. No-op while disabled.
pub fn gauge(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    lock().gauges.insert(name.to_string(), value);
}

/// Add to a monotone counter. No-op while disabled.
pub fn counter(name: &str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    *lock().counters.entry(name.to_string()).or_insert(0) += delta;
}

pub(crate) fn reset() {
    let mut r = lock();
    r.gauges.clear();
    r.counters.clear();
}

/// Snapshot every gauge without draining anything — unlike
/// [`crate::report`], which takes the calling thread's span tree as a
/// side effect. This is what a serving endpoint (`/metrics`) wants:
/// read-only, repeatable, cheap.
pub fn gauges_snapshot() -> BTreeMap<String, f64> {
    lock().gauges.clone()
}

/// Snapshot every counter without draining anything; see
/// [`gauges_snapshot`].
pub fn counters_snapshot() -> BTreeMap<String, u64> {
    lock().counters.clone()
}
