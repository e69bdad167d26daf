//! The persistent coverage engine — incremental serving (long-lived
//! daemon mode).
//!
//! Batch operation computes everything once: match sets, a trace, covered
//! sets, metrics, exit. A serving deployment instead keeps the analysis
//! *alive* while the network underneath it changes: routes are programmed
//! and withdrawn, test suites run and are retired, and operators ask
//! coverage questions in between. [`CoverageEngine`] owns all of that
//! state — the routed FIBs, the per-device match-set and covered-set
//! shards, the per-test traces — and accepts deltas, recomputing only the
//! devices a delta touches:
//!
//! * **Rule deltas** ([`CoverageEngine::insert_rule`] /
//!   [`CoverageEngine::withdraw_rule`]) re-derive the one device's
//!   disjoint match sets ([`MatchSets::recompute_device`]) and re-run
//!   Algorithm 1 for that device ([`CoveredSets::recompute_device`]).
//!   Every other device's shard is untouched. A route the attached
//!   routing engine installed is not a rule delta's to withdraw
//!   ([`EngineError::ControlPlaneRoute`]): only the topology delta that
//!   takes the route away removes it.
//! * **Topology deltas** ([`CoverageEngine::apply_topology`])
//!   re-converge the attached [`routing::RoutingEngine`] and walk the FIB
//!   diff it returns. A device that gained or lost a prefix takes the
//!   rule-delta refresh above. A device whose entries only swapped their
//!   next-hops — every change an in-place replacement, as on every
//!   device a ToR-uplink flap of a fat-tree touches — keeps both shards:
//!   `M[r]` and `T[r]` are functions of match fields,
//!   table order and the trace, and none of those moved. Only its
//!   action classes ([`MatchSets::action_classes`]), the one thing
//!   derived from actions, are dropped. A delta made of such devices
//!   alone does no BDD work at all.
//! * **Test deltas** ([`CoverageEngine::add_trace`] /
//!   [`CoverageEngine::remove_test`]) keep one isolated
//!   [`CoverageTrace`] per test. Adding a test unions its trace into the
//!   combined trace (traces are monotone, so a union suffices); removing
//!   one rebuilds the combined trace from the survivors — coverage is
//!   not subtractive, `P_T` is a union — and re-runs Algorithm 1 only at
//!   the devices the departed trace had marked.
//!
//! There is one way in and one way out. [`CoverageEngine::add_trace`]
//! registers a trace built in the engine's own manager and is the only
//! place a test is merged and recorded; a trace from another manager
//! (the daemon's wire form) arrives as a [`PortableTrace`] through
//! [`CoverageEngine::add_test`], which checks and validates it before
//! building anything and then calls `add_trace`. Every read goes through
//! [`CoverageEngine::analyzer`], an [`Analyzer`] that borrows the
//! resident shards beside the manager, so a read recomputes and copies
//! nothing.
//!
//! The unit of recomputation is the *device*, not the rule: match sets
//! are first-match chains, so a rule that comes or goes invalidates
//! every later rule on the same device anyway. Because every recompute
//! runs the same math in the same hash-consed manager, incremental state
//! is bit-identical to a from-scratch batch recompute of the same
//! network and trace.
//!
//! Rule identity is positional (`RuleId.index`): an insert or withdraw
//! renumbers later rules on that device. Rule marks in traces are
//! interpreted against the *current* table, exactly as a batch run over
//! the final state would.
//!
//! Query results are memoised in a capacity-bounded LRU [`QueryCache`]
//! that is flushed whole on every applied delta (flush, never
//! surgically patch: a delta can move any answer), with hit, miss and
//! eviction counters that stay monotone across flushes.
//!
//! The headline aggregates are memoised the same way, keyed on the
//! engine version: every delta bumps it, so
//! [`CoverageEngine::headline_metrics`] re-aggregates only on the first
//! call after a delta and answers every later one from the memo. A GC
//! keeps the memo — relocation changes no packet set, so no
//! probability.
//!
//! The config-level queries ([`CoverageEngine::config_coverage`],
//! [`CoverageEngine::construct_coverage`]) keep no state of their own.
//! Each is computed on the query from the resident shards and the
//! attached routing engine's distance fields (see [`crate::config`]),
//! so no delta path maintains anything for them.
//!
//! [`Analyzer`]: crate::analyzer::Analyzer
//! [`PortableTrace`]: crate::trace::PortableTrace

mod cache;
mod deltas;
mod error;
mod queries;
mod tests;

pub use cache::{QueryCache, QueryCacheStats};
pub use deltas::{DeltaKind, DeltaRecord};
pub use error::EngineError;
pub use queries::{HeadlineMetrics, RuleCoverage};

use std::collections::BTreeMap;

use netbdd::{Bdd, GcStats};
use netmodel::{MatchSetCache, MatchSets, Network};

use crate::covered::CoveredSets;
use crate::trace::CoverageTrace;

/// Default capacity of the query-result LRU cache.
const DEFAULT_QUERY_CACHE_CAPACITY: usize = 128;

/// How many of the newest [`DeltaRecord`]s the engine keeps at least for
/// `/delta-since`. The log drops its older half when it reaches twice
/// this, so trimming is amortised O(1) per delta; asking for a dropped
/// record is an [`EngineError::DeltaLogTruncated`].
pub(crate) const DELTA_LOG_CAPACITY: usize = 1024;

/// The long-lived incremental coverage engine (see the module docs for
/// the invalidation model).
pub struct CoverageEngine {
    net: Network,
    /// Resident incremental routing engine; `None` until
    /// [`CoverageEngine::attach_routing`], which arms topology deltas.
    routing: Option<routing::RoutingEngine>,
    bdd: Bdd,
    ms_cache: MatchSetCache,
    ms: MatchSets,
    tests: BTreeMap<String, CoverageTrace>,
    combined: CoverageTrace,
    covered: CoveredSets,
    version: u64,
    /// At least the newest `DELTA_LOG_CAPACITY` deltas, oldest first.
    log: Vec<DeltaRecord>,
    query_cache: QueryCache,
    /// The headline aggregates and the version they were computed at.
    headline_cache: Option<(u64, HeadlineMetrics)>,
    /// `/metrics` answered from `headline_cache`, and those that
    /// re-aggregated (`engine.headline_cache.{hits,misses}`).
    headline_hits: u64,
    headline_misses: u64,
    /// Devices named by the deltas applied so far
    /// (`engine.devices_invalidated_total`).
    devices_invalidated: u64,
    /// Device shards Algorithm 1 re-ran on so far
    /// (`engine.shards_recomputed_total`): fewer than the devices named
    /// wherever a topology delta only replaced actions.
    shards_recomputed: u64,
    /// Node-count watermark above which a delta triggers a collection
    /// (`None` disables automatic GC).
    gc_watermark: Option<usize>,
    gc_collections: u64,
    gc_reclaimed_total: u64,
    /// Wall time of the last collection and the longest so far, in µs
    /// (`bdd.gc.pause_us`, `bdd.gc.pause_us_max`).
    gc_pause_us: f64,
    gc_pause_us_max: f64,
}

impl CoverageEngine {
    /// Build an engine around a finalized network.
    ///
    /// `_threads` is ignored: the engine is sequential (every delta path
    /// is a per-device recompute, and no parallel form of Algorithm 1
    /// beat the sequential one at any measured size — DESIGN decision
    /// 13). The parameter survives only because the frozen
    /// `benchmark/` crate calls this two-argument form.
    pub fn new(net: Network, _threads: usize) -> CoverageEngine {
        let mut bdd = Bdd::new();
        let mut ms_cache = MatchSetCache::new();
        let ms = MatchSets::compute_cached(&net, &mut bdd, &mut ms_cache);
        let combined = CoverageTrace::new();
        let covered = CoveredSets::compute(&net, &ms, &combined, &mut bdd);
        CoverageEngine {
            net,
            routing: None,
            bdd,
            ms_cache,
            ms,
            tests: BTreeMap::new(),
            combined,
            covered,
            version: 0,
            log: Vec::new(),
            query_cache: QueryCache::new(DEFAULT_QUERY_CACHE_CAPACITY),
            headline_cache: None,
            headline_hits: 0,
            headline_misses: 0,
            devices_invalidated: 0,
            shards_recomputed: 0,
            gc_watermark: None,
            gc_collections: 0,
            gc_reclaimed_total: 0,
            gc_pause_us: 0.0,
            gc_pause_us_max: 0.0,
        }
    }

    /// The network currently being served.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Attach a resident [`routing::RoutingEngine`], arming
    /// [`CoverageEngine::apply_topology`]. The engine must be the one
    /// whose control plane compiled this network
    /// ([`routing::RibBuilder::into_engine`]) — its FIB diffs are
    /// applied to the served network in place.
    pub fn attach_routing(&mut self, routing: routing::RoutingEngine) {
        debug_assert_eq!(
            routing.topology().device_count(),
            self.net.topology().device_count(),
            "routing engine built over a different topology"
        );
        self.routing = Some(routing);
    }

    /// The attached routing engine, if any.
    pub fn routing(&self) -> Option<&routing::RoutingEngine> {
        self.routing.as_ref()
    }

    /// Number of deltas applied so far.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Names of the registered tests, sorted.
    pub fn test_names(&self) -> impl Iterator<Item = &str> {
        self.tests.keys().map(String::as_str)
    }

    /// The query cache (the HTTP layer stores rendered responses here).
    pub fn query_cache(&mut self) -> &mut QueryCache {
        &mut self.query_cache
    }

    /// Query-cache counters without taking a mutable borrow.
    pub fn query_cache_stats(&self) -> QueryCacheStats {
        self.query_cache.stats()
    }

    /// Publish the engine's state as `netobs` gauges (`engine.*`).
    pub fn publish_gauges(&self) {
        netobs::gauge("engine.version", self.version as f64);
        netobs::gauge("engine.devices", self.net.topology().device_count() as f64);
        netobs::gauge("engine.rules", self.net.rule_count() as f64);
        netobs::gauge("engine.tests", self.tests.len() as f64);
        netobs::gauge(
            "engine.devices_invalidated_total",
            self.devices_invalidated as f64,
        );
        netobs::gauge(
            "engine.shards_recomputed_total",
            self.shards_recomputed as f64,
        );
        netobs::gauge("engine.headline_cache.hits", self.headline_hits as f64);
        netobs::gauge("engine.headline_cache.misses", self.headline_misses as f64);
        let s = self.query_cache.stats();
        netobs::gauge("engine.query_cache.hits", s.hits as f64);
        netobs::gauge("engine.query_cache.misses", s.misses as f64);
        netobs::gauge("engine.query_cache.evictions", s.evictions as f64);
        netobs::gauge("engine.query_cache.entries", s.entries as f64);
        crate::publish_bdd_gauges("bdd", &self.bdd.stats());
        netobs::gauge("bdd.gc.collections", self.gc_collections as f64);
        netobs::gauge("bdd.gc.reclaimed_total", self.gc_reclaimed_total as f64);
        netobs::gauge("bdd.gc.pause_us", self.gc_pause_us);
        netobs::gauge("bdd.gc.pause_us_max", self.gc_pause_us_max);
    }

    /// Arm (or, with `None`, disarm) automatic garbage collection: after
    /// any delta that leaves the manager above `watermark` live nodes,
    /// the engine runs [`CoverageEngine::gc`] before returning.
    pub fn set_gc_watermark(&mut self, watermark: Option<usize>) {
        self.gc_watermark = watermark;
    }

    /// Collect the BDD arena now, from the engine's registered roots
    /// (match sets, covered sets, the combined trace, and every resident
    /// test trace). Every held `Ref` is rewritten through the relocation
    /// map, so all subsequent queries see identical packet sets; the
    /// match-set and query caches are flushed, and the headline memo
    /// (floats, not `Ref`s) is kept. Publishes the `bdd.gc.*`
    /// gauges — `pause_us` is this whole call, root registration and
    /// every owner's rewrite included — and returns the collection's
    /// stats.
    pub fn gc(&mut self) -> GcStats {
        let started = std::time::Instant::now();
        let mut roots = Vec::new();
        self.ms.collect_refs(&mut roots);
        self.covered.collect_refs(&mut roots);
        self.combined.collect_refs(&mut roots);
        for trace in self.tests.values() {
            trace.collect_refs(&mut roots);
        }
        // The memo cache holds refs keyed by match fields; those refs die
        // with the old arena, so drop them rather than rooting them.
        self.ms_cache.clear();
        let (reloc, stats) = self.bdd.collect(&roots);
        self.ms.remap_refs(|r| reloc.relocate(r));
        self.covered.remap_refs(|r| reloc.relocate(r));
        self.combined.remap_refs(|r| reloc.relocate(r));
        for trace in self.tests.values_mut() {
            trace.remap_refs(|r| reloc.relocate(r));
        }
        self.query_cache.flush();
        self.gc_collections += 1;
        self.gc_reclaimed_total += stats.reclaimed() as u64;
        self.gc_pause_us = started.elapsed().as_secs_f64() * 1e6;
        self.gc_pause_us_max = self.gc_pause_us_max.max(self.gc_pause_us);
        netobs::gauge("bdd.gc.pause_us", self.gc_pause_us);
        netobs::gauge("bdd.gc.pause_us_max", self.gc_pause_us_max);
        netobs::gauge("bdd.gc.collections", self.gc_collections as f64);
        netobs::gauge("bdd.gc.nodes_before", stats.nodes_before as f64);
        netobs::gauge("bdd.gc.nodes_after", stats.nodes_after as f64);
        netobs::gauge("bdd.gc.reclaimed_total", self.gc_reclaimed_total as f64);
        netobs::gauge("bdd.nodes", stats.nodes_after as f64);
        stats
    }

    /// Collections run so far (manual and watermark-triggered).
    pub fn gc_collections(&self) -> u64 {
        self.gc_collections
    }
}
