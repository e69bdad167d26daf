//! netobs glue: snapshot [`netbdd::Stats`] into the gauge registry.
//!
//! The BDD manager is deliberately netobs-free — its operations are the
//! innermost hot loop and must not even test the enabled flag per call.
//! Instead the manager keeps its own plain counters ([`netbdd::Stats`],
//! [`netbdd::OpCounts`]) and pipeline code snapshots them into gauges at
//! phase boundaries with this helper.

use netbdd::Stats;

/// Publish a manager statistics snapshot under `prefix` (e.g. `bdd` →
/// `bdd.nodes`, `bdd.ops.or`, ...). No-op while netobs is disabled.
pub fn publish_bdd_gauges(prefix: &str, stats: &Stats) {
    if !netobs::enabled() {
        return;
    }
    netobs::gauge(&format!("{prefix}.nodes"), stats.nodes as f64);
    netobs::gauge(
        &format!("{prefix}.ite_cache_entries"),
        stats.ite_cache_entries as f64,
    );
    netobs::gauge(
        &format!("{prefix}.ite_cache_capacity"),
        stats.ite_cache_capacity as f64,
    );
    netobs::gauge(
        &format!("{prefix}.ite_cache_occupancy"),
        stats.ite_cache_occupancy(),
    );
    netobs::gauge(
        &format!("{prefix}.ite_evictions"),
        stats.ite_evictions as f64,
    );
    netobs::gauge(
        &format!("{prefix}.prob_cache_entries"),
        stats.prob_cache_entries as f64,
    );
    netobs::gauge(
        &format!("{prefix}.prob_evictions"),
        stats.prob_evictions as f64,
    );
    netobs::gauge(
        &format!("{prefix}.unique_hit_rate"),
        stats.unique_hit_rate(),
    );
    netobs::gauge(&format!("{prefix}.ite_hit_rate"), stats.ite_hit_rate());
    let ops = stats.ops;
    for (class, n) in [
        ("or", ops.or),
        ("and", ops.and),
        ("not", ops.not),
        ("diff", ops.diff),
        ("xor", ops.xor),
        ("restrict", ops.restrict),
        ("quantify", ops.quantify),
    ] {
        netobs::gauge(&format!("{prefix}.ops.{class}"), n as f64);
    }
    netobs::gauge(&format!("{prefix}.ops.total"), ops.total() as f64);
    for (part, bytes) in [
        ("arena", stats.arena_bytes),
        ("unique", stats.unique_bytes),
        ("ite_cache", stats.ite_cache_bytes),
        ("prob_memo", stats.prob_memo_bytes),
    ] {
        netobs::gauge(&format!("{prefix}.bytes.{part}"), bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_lands_in_the_registry() {
        netobs::enable();
        let mut bdd = netbdd::Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let _ = bdd.and(a, b);
        publish_bdd_gauges("bdd", &bdd.stats());
        let report = netobs::report();
        assert!(report.gauges["bdd.nodes"] > 2.0);
        assert_eq!(report.gauges["bdd.ops.and"], 1.0);
        assert_eq!(report.gauges["bdd.ops.total"], 1.0);
        // Bounded-cache telemetry from the complement-edge engine.
        assert!(report.gauges["bdd.ite_cache_capacity"] >= 16.0);
        assert!(report.gauges["bdd.ite_cache_occupancy"] >= 0.0);
        assert_eq!(report.gauges["bdd.ite_evictions"], 0.0);
        assert_eq!(report.gauges["bdd.prob_evictions"], 0.0);
        // Where the bytes go, straight from the allocations.
        let s = bdd.stats();
        assert_eq!(report.gauges["bdd.bytes.arena"], s.arena_bytes as f64);
        assert_eq!(report.gauges["bdd.bytes.unique"], s.unique_bytes as f64);
        assert_eq!(
            report.gauges["bdd.bytes.ite_cache"],
            s.ite_cache_bytes as f64
        );
        assert_eq!(
            report.gauges["bdd.bytes.prob_memo"],
            s.prob_memo_bytes as f64
        );
        assert!(s.unique_bytes > 0 && s.ite_cache_bytes > 0);
        netobs::disable();
    }
}
