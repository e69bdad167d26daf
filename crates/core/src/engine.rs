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
//!   `M[r]`, `T[r]` and the device total are functions of match fields,
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
//! that is flushed whole on every applied delta (the
//! [`netmodel::MatchSetCache`] policy: flush, never surgically patch,
//! and keep monotone hit/miss/eviction counters across flushes).
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

use std::collections::{BTreeMap, BTreeSet, HashMap};

use netbdd::{Bdd, GcStats, PortableBddError};
use netmodel::header;
use netmodel::provenance::Construct;
use netmodel::topology::DeviceId;
use netmodel::{IfaceId, Location, MatchSetCache, MatchSets, Network, Rule, RuleId};

use crate::analyzer::Analyzer;
use crate::config::{self, ConfigCoverage, ConstructCoverage};
use crate::covered::{rule_covered, CoveredSets};
use crate::framework::Aggregator;
use crate::trace::{CoverageTrace, PortableTrace};

/// Default capacity of the query-result LRU cache.
const DEFAULT_QUERY_CACHE_CAPACITY: usize = 128;

/// How many of the newest [`DeltaRecord`]s the engine keeps at least for
/// `/delta-since`. The log drops its older half when it reaches twice
/// this, so trimming is amortised O(1) per delta; asking for a dropped
/// record is an [`EngineError::DeltaLogTruncated`].
pub(crate) const DELTA_LOG_CAPACITY: usize = 1024;

/// Why the engine refused a delta or a query. Deltas arrive over the
/// wire, so every malformed one must be a named error, never a panic —
/// the same discipline `routing::RibError` applies to control-plane
/// descriptions and topology deltas.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The device id is outside the topology.
    UnknownDevice {
        /// The offending device id.
        device: DeviceId,
        /// How many devices the topology has.
        device_count: usize,
    },
    /// A rule referenced an interface that is absent or belongs to a
    /// different device.
    BadIface {
        /// The offending interface id.
        iface: IfaceId,
        /// The device the rule was destined for.
        device: DeviceId,
    },
    /// The rule index is outside its device's table.
    BadRuleIndex {
        /// The offending rule id.
        id: RuleId,
        /// The device's current table length.
        table_len: usize,
    },
    /// The rule would leave its device's table mixing ingress-scoped and
    /// unscoped rules, which match-set derivation does not support.
    MixedIngressScope {
        /// The device the rule was destined for.
        device: DeviceId,
    },
    /// A test with this name is already registered.
    DuplicateTest {
        /// The offending test name.
        name: String,
    },
    /// No test with this name is registered.
    UnknownTest {
        /// The offending test name.
        name: String,
    },
    /// A test's portable trace failed validation on import.
    MalformedTrace {
        /// The location whose packet-set snapshot is malformed.
        location: Location,
        /// What was wrong with the snapshot.
        error: PortableBddError,
    },
    /// A test's portable trace splits on a variable outside the packet
    /// header (`netmodel::header::NVARS` and up).
    OffHeaderVariable {
        /// The location whose packet-set snapshot uses the variable.
        location: Location,
        /// The offending variable.
        var: u32,
    },
    /// The rule is the one the attached routing engine installed for its
    /// `(device, prefix)` key: it is withdrawn by the topology delta that
    /// takes the route away, not by a rule delta.
    ControlPlaneRoute {
        /// The offending rule id.
        id: RuleId,
    },
    /// A topology delta arrived but no routing engine is attached
    /// ([`CoverageEngine::attach_routing`] was never called).
    NoRoutingEngine,
    /// The attached routing engine refused the topology delta.
    Routing(routing::RibError),
    /// The deltas after `since` are no longer all in the bounded delta
    /// log: the reader must resync rather than apply a tail with a gap.
    DeltaLogTruncated {
        /// The version the reader asked to continue from.
        since: u64,
        /// The oldest version the log still holds.
        oldest: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownDevice {
                device,
                device_count,
            } => write!(
                f,
                "unknown device {device:?} (topology has {device_count} devices)"
            ),
            EngineError::BadIface { iface, device } => {
                write!(f, "interface {iface:?} does not belong to {device:?}")
            }
            EngineError::BadRuleIndex { id, table_len } => write!(
                f,
                "rule r{}.{} is outside its device's table ({table_len} rules)",
                id.device.0, id.index
            ),
            EngineError::MixedIngressScope { device } => write!(
                f,
                "the rule would mix ingress-scoped and unscoped rules in the table of {device:?}"
            ),
            EngineError::DuplicateTest { name } => {
                write!(f, "test {name:?} is already registered")
            }
            EngineError::UnknownTest { name } => write!(f, "no test named {name:?}"),
            EngineError::MalformedTrace { location, error } => {
                write!(f, "malformed trace at {location:?}: {error}")
            }
            EngineError::OffHeaderVariable { location, var } => write!(
                f,
                "trace at {location:?} uses variable {var}, outside the {}-variable header",
                header::NVARS
            ),
            EngineError::ControlPlaneRoute { id } => write!(
                f,
                "rule r{}.{} is installed by the control plane; a topology delta withdraws it",
                id.device.0, id.index
            ),
            EngineError::NoRoutingEngine => {
                write!(f, "no routing engine attached: topology deltas unavailable")
            }
            EngineError::Routing(e) => write!(f, "{e}"),
            EngineError::DeltaLogTruncated { since, oldest } => write!(
                f,
                "the deltas after version {since} are gone from the delta log \
                 (oldest retained: {oldest}); resync"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// What kind of delta a [`DeltaRecord`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    /// A rule was inserted on a device.
    RuleInserted,
    /// A rule was withdrawn from a device.
    RuleWithdrawn,
    /// A test's trace was registered.
    TestAdded,
    /// A test's trace was retired.
    TestRemoved,
    /// A link failed; the routing engine re-converged around it.
    LinkDown,
    /// A link recovered.
    LinkUp,
    /// A device failed; its FIB and routes through it are withdrawn.
    DeviceDown,
    /// A device recovered.
    DeviceUp,
}

impl DeltaKind {
    /// Stable wire name of the kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            DeltaKind::RuleInserted => "rule-inserted",
            DeltaKind::RuleWithdrawn => "rule-withdrawn",
            DeltaKind::TestAdded => "test-added",
            DeltaKind::TestRemoved => "test-removed",
            DeltaKind::LinkDown => "link-down",
            DeltaKind::LinkUp => "link-up",
            DeltaKind::DeviceDown => "device-down",
            DeltaKind::DeviceUp => "device-up",
        }
    }
}

/// One applied delta, as reported by `/delta-since`.
#[derive(Clone, Debug)]
pub struct DeltaRecord {
    /// The engine version this delta produced (versions start at 0 for
    /// the freshly built engine and increase by 1 per delta).
    pub version: u64,
    /// What happened.
    pub kind: DeltaKind,
    /// Human-readable subject: `r<device>.<index>` for rule deltas, the
    /// test name for test deltas.
    pub detail: String,
    /// The devices the delta names: those whose tables changed (rule
    /// and topology deltas) or that the test's trace marks (test
    /// deltas). Not every one of them is recomputed — a device whose
    /// rules a topology delta only replaced in place keeps its shards.
    pub devices: Vec<DeviceId>,
}

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
/// entries — the [`netmodel::MatchSetCache`] policy. Counters are
/// monotone across flushes so long-lived gauges stay meaningful.
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

/// Coverage of a single rule, as served by `/covers`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuleCoverage {
    /// The rule queried.
    pub id: RuleId,
    /// `P(M[r])` — probability mass of the rule's disjoint match set.
    pub match_probability: f64,
    /// `P(T[r])` — probability mass of the rule's covered set.
    pub covered_probability: f64,
    /// `P(T[r]) / P(M[r])`, or `None` for fully-shadowed rules.
    pub coverage: Option<f64>,
    /// Whether any test exercised the rule at all.
    pub exercised: bool,
}

/// The three headline aggregates served by `/metrics`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeadlineMetrics {
    /// Network-wide fractional rule coverage.
    pub rule_fractional: Option<f64>,
    /// Network-wide probability-weighted rule coverage.
    pub rule_weighted: Option<f64>,
    /// Network-wide fractional device coverage.
    pub device_fractional: Option<f64>,
}

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

    /// The deltas applied after engine version `since`, oldest first, or
    /// [`EngineError::DeltaLogTruncated`] naming the oldest retained
    /// version when the log no longer holds all of them.
    pub fn deltas_since(&self, since: u64) -> Result<&[DeltaRecord], EngineError> {
        match self.log.first() {
            Some(oldest) if since < oldest.version - 1 => Err(EngineError::DeltaLogTruncated {
                since,
                oldest: oldest.version,
            }),
            _ => Ok(&self.log[self.log.partition_point(|r| r.version <= since)..]),
        }
    }

    /// The newest logged delta: the daemon renders a `/delta` answer
    /// from it.
    pub(crate) fn last_delta(&self) -> Option<&DeltaRecord> {
        self.log.last()
    }

    /// The one way to read the engine's state: an [`Analyzer`] borrowing
    /// the served network, the resident shards and the combined trace,
    /// beside the engine's manager. Nothing is recomputed or copied.
    pub fn analyzer(&mut self) -> (Analyzer<'_>, &mut Bdd) {
        let covered = std::borrow::Cow::Borrowed(&self.covered);
        let analyzer = Analyzer::with_covered(&self.net, &self.ms, &self.combined, covered);
        (analyzer, &mut self.bdd)
    }

    /// Whether any registered test exercises rule `id` (its covered set
    /// is non-empty). `id` must name a current rule.
    pub fn is_exercised(&self, id: RuleId) -> bool {
        self.covered.is_exercised(id)
    }

    /// Coverage of one rule, straight from the resident shards.
    pub fn rule_coverage(&mut self, id: RuleId) -> Result<RuleCoverage, EngineError> {
        self.check_rule(id)?;
        let m = self.ms.get(id);
        let t = self.covered.get(id);
        let match_probability = self.bdd.probability(m);
        let covered_probability = self.bdd.probability(t);
        let coverage = if m.is_false() {
            None
        } else {
            Some(covered_probability / match_probability)
        };
        Ok(RuleCoverage {
            id,
            match_probability,
            covered_probability,
            coverage,
            exercised: !t.is_false(),
        })
    }

    /// Config-level coverage: every live construct of the attached
    /// routing engine, covered, uncovered or unreferenced (see
    /// [`crate::config`]). One pass over the rules marks the installed
    /// keys, and [`routing::RoutingEngine::mark_constructs`] carries the
    /// marks backwards to the constructs. No footprint is built and no
    /// probability computed. Requires [`CoverageEngine::attach_routing`]
    /// — without a control plane there is no configuration to attribute
    /// rules to. Provenance is read off the routing engine's *current*
    /// (possibly degraded) state, so the report tracks topology deltas
    /// without keeping any state of its own.
    pub fn config_coverage(&mut self) -> Result<ConfigCoverage, EngineError> {
        self.routing().ok_or(EngineError::NoRoutingEngine)?;
        let _span = netobs::span!("config_summary");
        let keys = {
            let _span = netobs::span!("config_keys");
            config::entry_marks(&self.analyzer().0)
        };
        let marked = {
            let _span = netobs::span!("provenance_marks");
            let routing = self.routing().ok_or(EngineError::NoRoutingEngine)?;
            routing.mark_constructs(keys)
        };
        Ok(ConfigCoverage::from_marks(marked))
    }

    /// One construct's footprint and probability sums, or `None` when
    /// the construct is not in the live configuration. An unreferenced
    /// construct has an empty footprint. The footprint comes from a
    /// forward walk ([`routing::RoutingEngine::attributed_keys`]). The
    /// sums run in rule-id order, so they do not depend on how the
    /// footprint was found.
    pub fn construct_coverage(
        &mut self,
        construct: &Construct,
    ) -> Result<Option<ConstructCoverage>, EngineError> {
        let routing = self.routing().ok_or(EngineError::NoRoutingEngine)?;
        let _span = netobs::span!("config_drilldown");
        let Some(keys) = routing.attributed_keys(construct) else {
            return Ok(None);
        };
        let (analyzer, bdd) = self.analyzer();
        Ok(Some(config::footprint(*construct, &keys, &analyzer, bdd)))
    }

    /// Names of the registered tests that exercise at least one of
    /// `rules` — the per-construct drill-down behind the daemon's
    /// `/config-coverage?construct=` query. A test exercises a rule when
    /// Algorithm 1 run on its trace alone gives the rule a non-empty
    /// covered set. The test traces are read beside the shards, so this
    /// borrows the engine's fields directly rather than through
    /// [`CoverageEngine::analyzer`].
    pub fn tests_exercising(&mut self, rules: &[RuleId]) -> Vec<String> {
        let (net, ms, bdd) = (&self.net, &self.ms, &mut self.bdd);
        let mut exercises = |trace, id| !rule_covered(net, ms, trace, bdd, id, None).is_false();
        self.tests
            .iter()
            .filter(|(_, trace)| rules.iter().any(|&id| exercises(trace, id)))
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// The headline aggregates over the whole network, re-aggregated by
    /// the batch [`Analyzer`] only when a delta has been applied since the
    /// last call.
    pub fn headline_metrics(&mut self) -> HeadlineMetrics {
        if let Some((version, headline)) = self.headline_cache {
            if version == self.version {
                self.headline_hits += 1;
                return headline;
            }
        }
        self.headline_misses += 1;
        let (a, bdd) = self.analyzer();
        let headline = HeadlineMetrics {
            rule_fractional: a.aggregate_rules(bdd, Aggregator::Fractional, |_, _| true),
            rule_weighted: a.aggregate_rules(bdd, Aggregator::Weighted, |_, _| true),
            device_fractional: a.aggregate_devices(bdd, Aggregator::Fractional, |_, _| true),
        };
        self.headline_cache = Some((self.version, headline));
        headline
    }

    // ----- deltas ----------------------------------------------------------

    /// Insert `rule` on `device` (first-match position is derived from
    /// the rule, as [`netmodel::Table::insert_sorted`] does) and refresh
    /// that device's match-set and covered-set shards.
    pub fn insert_rule(&mut self, device: DeviceId, rule: Rule) -> Result<RuleId, EngineError> {
        self.check_device(device)?;
        for &iface in rule.action.out_ifaces() {
            self.check_iface(device, iface)?;
        }
        let scoped = rule.matches.in_iface.is_some();
        if let Some(iface) = rule.matches.in_iface {
            self.check_iface(device, iface)?;
        }
        // An empty table accepts either kind; after that it holds one.
        let table = self.net.device_rules(device);
        if table.iter().any(|r| r.matches.in_iface.is_some() != scoped) {
            return Err(EngineError::MixedIngressScope { device });
        }
        let id = self.net.insert_rule(device, rule);
        self.refresh_device(device);
        self.record(
            DeltaKind::RuleInserted,
            format!("r{}.{}", id.device.0, id.index),
            vec![device],
        );
        Ok(id)
    }

    /// Withdraw the rule `id` and refresh its device's shards. Later
    /// rules on the device shift down one index. A rule the attached
    /// routing engine installed is refused: re-convergence edits it in
    /// place, so it must stay in the table.
    pub fn withdraw_rule(&mut self, id: RuleId) -> Result<Rule, EngineError> {
        self.check_rule(id)?;
        let rule = &self.net.device_rules(id.device)[id.index as usize];
        if let (Some(routing), Some(dst)) = (self.routing(), rule.matches.dst) {
            if routing.installed_rule(id.device, dst) == Some(rule) {
                return Err(EngineError::ControlPlaneRoute { id });
            }
        }
        let rule = self.net.withdraw_rule(id);
        self.refresh_device(id.device);
        self.record(
            DeltaKind::RuleWithdrawn,
            format!("r{}.{}", id.device.0, id.index),
            vec![id.device],
        );
        Ok(rule)
    }

    /// Register under `name` a test's trace from another manager (the
    /// wire form). Its devices and header variables are checked and its
    /// snapshots validated before it is imported; then it is registered
    /// by [`CoverageEngine::add_trace`].
    pub fn add_test(
        &mut self,
        name: &str,
        trace: &PortableTrace,
    ) -> Result<Vec<DeviceId>, EngineError> {
        // Everything is checked before the first node is built, so a
        // refused test leaves the arena as it found it.
        let locations = trace.packets().iter().map(|(location, _)| *location);
        self.check_test(name, locations, trace.rules())?;
        for (location, snapshot) in trace.packets() {
            if let Some(&(var, ..)) = snapshot.nodes().iter().find(|n| n.0 >= header::NVARS) {
                return Err(EngineError::OffHeaderVariable {
                    location: *location,
                    var,
                });
            }
        }
        let trace = trace
            .try_import(&mut self.bdd)
            .map_err(|(location, error)| EngineError::MalformedTrace { location, error })?;
        self.add_trace(name, trace)
    }

    /// Register under `name` a trace built in this engine's own manager,
    /// say by a [`crate::Tracker`] over [`CoverageEngine::analyzer`]; a
    /// trace from another manager must come through
    /// [`CoverageEngine::add_test`]. Covered sets are recomputed only at
    /// the devices the trace marks. Returns those devices.
    pub fn add_trace(
        &mut self,
        name: &str,
        trace: CoverageTrace,
    ) -> Result<Vec<DeviceId>, EngineError> {
        let locations = trace.packets.iter().map(|(location, _)| location);
        self.check_test(name, locations, &trace.rules)?;
        let devices = trace_devices(&trace);
        self.combined.merge(&mut self.bdd, &trace);
        for &device in &devices {
            self.recompute_covered(device);
        }
        self.tests.insert(name.to_string(), trace);
        self.record(DeltaKind::TestAdded, name.to_string(), devices.clone());
        Ok(devices)
    }

    /// Retire the test registered under `name`. Coverage is a union, not
    /// a sum, so the combined trace is rebuilt from the surviving tests
    /// and Algorithm 1 re-runs only at the devices the departed trace
    /// had marked. Returns those devices.
    pub fn remove_test(&mut self, name: &str) -> Result<Vec<DeviceId>, EngineError> {
        let trace = self
            .tests
            .remove(name)
            .ok_or_else(|| EngineError::UnknownTest { name: name.into() })?;
        let devices = trace_devices(&trace);
        let mut combined = CoverageTrace::new();
        for t in self.tests.values() {
            combined.merge(&mut self.bdd, t);
        }
        self.combined = combined;
        for &device in &devices {
            self.recompute_covered(device);
        }
        self.record(DeltaKind::TestRemoved, name.to_string(), devices.clone());
        Ok(devices)
    }

    /// Apply a topology failure/recovery delta through the attached
    /// routing engine and walk the FIB diff it emits, device by device.
    /// A device all of whose changes are in-place replacements
    /// ([`routing::FibChange::is_replacement`]: same key, same match
    /// fields, same index) keeps its match-set and covered-set shards —
    /// `M[r]`, `T[r]` and the device total are functions of match
    /// fields, table order and the trace, never of actions — and only
    /// drops its action classes. A device that gained or lost a prefix
    /// takes the whole-device refresh a rule delta takes. The delta is
    /// versioned in the log like any rule or test delta. Returns the
    /// devices whose tables changed.
    pub fn apply_topology(
        &mut self,
        delta: &routing::TopologyDelta,
    ) -> Result<Vec<DeviceId>, EngineError> {
        let routing = self.routing.as_mut().ok_or(EngineError::NoRoutingEngine)?;
        let diff = routing
            .apply(&mut self.net, delta)
            .map_err(EngineError::Routing)?;
        let mut devices = Vec::new();
        for changes in diff.changes.chunk_by(|x, y| x.device == y.device) {
            let device = changes[0].device;
            devices.push(device);
            if changes.iter().all(routing::FibChange::is_replacement) {
                self.ms.drop_action_classes(device);
            } else {
                self.refresh_device(device);
            }
        }
        let (kind, detail) = match *delta {
            routing::TopologyDelta::LinkDown { a, b } => {
                (DeltaKind::LinkDown, format!("link:{}-{}", a.0, b.0))
            }
            routing::TopologyDelta::LinkUp { a, b } => {
                (DeltaKind::LinkUp, format!("link:{}-{}", a.0, b.0))
            }
            routing::TopologyDelta::DeviceDown { device } => {
                (DeltaKind::DeviceDown, format!("device:{}", device.0))
            }
            routing::TopologyDelta::DeviceUp { device } => {
                (DeltaKind::DeviceUp, format!("device:{}", device.0))
            }
        };
        self.record(kind, detail, devices.clone());
        Ok(devices)
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

    // ----- internals -------------------------------------------------------

    fn check_device(&self, device: DeviceId) -> Result<(), EngineError> {
        let count = self.net.topology().device_count();
        if device.0 as usize >= count {
            return Err(EngineError::UnknownDevice {
                device,
                device_count: count,
            });
        }
        Ok(())
    }

    fn check_iface(&self, device: DeviceId, iface: IfaceId) -> Result<(), EngineError> {
        let topo = self.net.topology();
        if iface.0 as usize >= topo.iface_count() || topo.iface(iface).device != device {
            return Err(EngineError::BadIface { iface, device });
        }
        Ok(())
    }

    /// A test to register needs a free name; each location it marks must
    /// name a device and, if it names an interface, one of that device's;
    /// each rule it marks must name a device.
    fn check_test(
        &self,
        name: &str,
        locations: impl Iterator<Item = Location>,
        rules: &BTreeSet<RuleId>,
    ) -> Result<(), EngineError> {
        if self.tests.contains_key(name) {
            return Err(EngineError::DuplicateTest { name: name.into() });
        }
        for location in locations {
            self.check_device(location.device)?;
            if let Some(iface) = location.iface {
                self.check_iface(location.device, iface)?;
            }
        }
        for id in rules {
            self.check_device(id.device)?;
        }
        Ok(())
    }

    fn check_rule(&self, id: RuleId) -> Result<(), EngineError> {
        self.check_device(id.device)?;
        let table_len = self.net.device_rules(id.device).len();
        if id.index as usize >= table_len {
            return Err(EngineError::BadRuleIndex { id, table_len });
        }
        Ok(())
    }

    /// Refresh one device's match-set and covered-set shards after its
    /// table gained or lost a rule.
    fn refresh_device(&mut self, device: DeviceId) {
        self.ms
            .recompute_device(&self.net, &mut self.bdd, &mut self.ms_cache, device);
        self.recompute_covered(device);
    }

    /// Re-run Algorithm 1 on one device's shard.
    fn recompute_covered(&mut self, device: DeviceId) {
        self.covered
            .recompute_device(&self.net, &self.ms, &self.combined, &mut self.bdd, device);
        self.shards_recomputed += 1;
    }

    /// Log a delta, bump the version, and flush the query cache.
    fn record(&mut self, kind: DeltaKind, detail: String, devices: Vec<DeviceId>) {
        self.version += 1;
        self.devices_invalidated += devices.len() as u64;
        if self.log.len() == 2 * DELTA_LOG_CAPACITY {
            self.log.drain(..DELTA_LOG_CAPACITY);
        }
        self.log.push(DeltaRecord {
            version: self.version,
            kind,
            detail,
            devices,
        });
        self.query_cache.flush();
        self.publish_gauges();
        self.maybe_gc();
    }

    /// Run a collection if the arena has grown past the armed watermark.
    fn maybe_gc(&mut self) {
        if let Some(mark) = self.gc_watermark {
            if self.bdd.node_count() > mark {
                self.gc();
            }
        }
    }
}

/// The distinct devices a trace marks, via packets or rule inspections.
fn trace_devices(trace: &CoverageTrace) -> Vec<DeviceId> {
    let mut out: BTreeSet<DeviceId> = trace.packets.devices().into_iter().collect();
    out.extend(trace.rules.iter().map(|id| id.device));
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::addr::Prefix;
    use netmodel::header;
    use netmodel::rule::RouteClass;
    use netmodel::topology::{IfaceKind, Role, Topology};

    /// Two devices; the tor has a /24 to hosts plus a default up.
    fn build() -> (Network, DeviceId, DeviceId, IfaceId) {
        let mut t = Topology::new();
        let tor = t.add_device("tor", Role::Tor);
        let spine = t.add_device("spine", Role::Spine);
        let hosts = t.add_iface(tor, "hosts", IfaceKind::Host);
        let (up, down) = t.add_link(tor, spine);
        let mut n = Network::new(t);
        n.add_rule(
            tor,
            Rule::forward(
                "10.0.0.0/24".parse().unwrap(),
                vec![hosts],
                RouteClass::HostSubnet,
            ),
        );
        n.add_rule(
            tor,
            Rule::forward(Prefix::v4_default(), vec![up], RouteClass::StaticDefault),
        );
        n.add_rule(
            spine,
            Rule::forward(
                "10.0.0.0/24".parse().unwrap(),
                vec![down],
                RouteClass::HostSubnet,
            ),
        );
        n.finalize();
        (n, tor, spine, hosts)
    }

    /// A portable trace marking `prefix` at `device`.
    fn mark_trace(device: DeviceId, prefix: &str) -> PortableTrace {
        let mut bdd = Bdd::new();
        let mut t = CoverageTrace::new();
        let set = header::dst_in(&mut bdd, &prefix.parse().unwrap());
        t.add_packets(&mut bdd, Location::device(device), set);
        t.export(&bdd)
    }

    /// Batch recompute of the engine's current state in the engine's own
    /// manager; `Ref`s must agree exactly (hash-consing).
    fn assert_matches_batch(engine: &mut CoverageEngine) {
        let net = engine.net.clone();
        let combined = engine.combined.clone();
        let batch_ms = MatchSets::compute(&net, &mut engine.bdd);
        let batch_cov = CoveredSets::compute(&net, &batch_ms, &combined, &mut engine.bdd);
        for (id, _) in net.rules() {
            assert_eq!(engine.ms.get(id), batch_ms.get(id), "match set at {id:?}");
            assert_eq!(
                engine.covered.get(id),
                batch_cov.get(id),
                "covered set at {id:?}"
            );
        }
    }

    #[test]
    fn rule_insert_refreshes_only_that_device_and_matches_batch() {
        let (n, tor, spine, hosts) = build();
        let mut engine = CoverageEngine::new(n, 1);
        engine
            .add_test("t", &mark_trace(tor, "10.0.0.0/8"))
            .unwrap();
        let spine_before = engine.covered.get(RuleId {
            device: spine,
            index: 0,
        });
        let id = engine
            .insert_rule(
                tor,
                Rule::forward(
                    "10.0.0.7/32".parse().unwrap(),
                    vec![hosts],
                    RouteClass::Other,
                ),
            )
            .unwrap();
        // The /32 outranks the /24: it lands at index 0.
        assert_eq!(
            id,
            RuleId {
                device: tor,
                index: 0
            }
        );
        // Spine shard untouched (same Ref, not just same function).
        assert_eq!(
            engine.covered.get(RuleId {
                device: spine,
                index: 0
            }),
            spine_before
        );
        assert_matches_batch(&mut engine);
    }

    #[test]
    fn rule_withdraw_matches_batch() {
        let (n, tor, _, hosts) = build();
        let mut engine = CoverageEngine::new(n, 1);
        engine
            .add_test("t", &mark_trace(tor, "10.0.0.0/8"))
            .unwrap();
        let id = engine
            .insert_rule(
                tor,
                Rule::forward(
                    "10.0.0.0/16".parse().unwrap(),
                    vec![hosts],
                    RouteClass::Other,
                ),
            )
            .unwrap();
        engine.withdraw_rule(id).unwrap();
        assert_matches_batch(&mut engine);
        assert_eq!(engine.version(), 3);
    }

    #[test]
    fn test_add_then_remove_restores_prior_coverage() {
        let (n, tor, _, _) = build();
        let mut engine = CoverageEngine::new(n, 1);
        engine
            .add_test("a", &mark_trace(tor, "10.0.0.0/25"))
            .unwrap();
        let before: Vec<_> = engine
            .net
            .rules()
            .map(|(id, _)| id)
            .collect::<Vec<_>>()
            .into_iter()
            .map(|id| (id, engine.covered.get(id)))
            .collect();
        let devices = engine
            .add_test("b", &mark_trace(tor, "10.0.0.0/8"))
            .unwrap();
        assert_eq!(devices, vec![tor]);
        engine.remove_test("b").unwrap();
        for (id, r) in before {
            assert_eq!(engine.covered.get(id), r, "covered set at {id:?}");
        }
        assert_matches_batch(&mut engine);
    }

    #[test]
    fn rule_coverage_reports_exercised_fractions() {
        let (n, tor, _, _) = build();
        let mut engine = CoverageEngine::new(n, 1);
        engine
            .add_test("t", &mark_trace(tor, "10.0.0.0/24"))
            .unwrap();
        let c = engine
            .rule_coverage(RuleId {
                device: tor,
                index: 0,
            })
            .unwrap();
        assert!(c.exercised);
        assert!((c.coverage.unwrap() - 1.0).abs() < 1e-12);
        let d = engine
            .rule_coverage(RuleId {
                device: tor,
                index: 1,
            })
            .unwrap();
        assert!(!d.exercised);
        assert_eq!(d.coverage, Some(0.0));
    }

    #[test]
    fn deltas_are_validated_not_panicking() {
        let (n, tor, _, hosts) = build();
        let mut engine = CoverageEngine::new(n, 1);
        assert!(matches!(
            engine.insert_rule(
                DeviceId(99),
                Rule::null_route(Prefix::v4_default(), RouteClass::Other)
            ),
            Err(EngineError::UnknownDevice { .. })
        ));
        // `hosts` belongs to the tor, not the spine.
        assert!(matches!(
            engine.insert_rule(
                DeviceId(1),
                Rule::forward(Prefix::v4_default(), vec![hosts], RouteClass::Other)
            ),
            Err(EngineError::BadIface { .. })
        ));
        assert!(matches!(
            engine.withdraw_rule(RuleId {
                device: tor,
                index: 9
            }),
            Err(EngineError::BadRuleIndex { table_len: 2, .. })
        ));
        assert!(matches!(
            engine.remove_test("ghost"),
            Err(EngineError::UnknownTest { .. })
        ));
        engine
            .add_test("t", &mark_trace(tor, "10.0.0.0/8"))
            .unwrap();
        assert!(matches!(
            engine.add_test("t", &mark_trace(tor, "10.0.0.0/8")),
            Err(EngineError::DuplicateTest { .. })
        ));
        // No delta was applied by any of the rejected calls.
        assert_eq!(engine.version(), 1);
    }

    #[test]
    fn a_rule_of_the_other_ingress_kind_is_rejected_before_the_table_changes() {
        let (n, tor, spine, hosts) = build();
        let mut engine = CoverageEngine::new(n, 1);
        let dst: Prefix = "10.9.0.0/24".parse().unwrap();
        let scoped = |iface: IfaceId| {
            let mut r = Rule::null_route(dst, RouteClass::Other);
            r.matches.in_iface = Some(iface);
            r
        };

        // Scoped into the tor's non-empty unscoped table.
        let before = engine.network().device_rules(tor).to_vec();
        assert_eq!(
            engine.insert_rule(tor, scoped(hosts)),
            Err(EngineError::MixedIngressScope { device: tor })
        );
        assert_eq!(engine.version(), 0);
        assert_eq!(engine.network().device_rules(tor), before);

        // An empty table accepts either kind; once scoped, the reverse
        // is refused the same way.
        let down = engine.network().device_rules(spine)[0].action.out_ifaces()[0];
        engine
            .withdraw_rule(RuleId {
                device: spine,
                index: 0,
            })
            .unwrap();
        engine.insert_rule(spine, scoped(down)).unwrap();
        let before = engine.network().device_rules(spine).to_vec();
        let err = engine
            .insert_rule(spine, Rule::null_route(dst, RouteClass::Other))
            .unwrap_err();
        assert_eq!(err, EngineError::MixedIngressScope { device: spine });
        assert!(err.to_string().contains("ingress-scoped"), "{err}");
        assert_eq!(engine.version(), 2);
        assert_eq!(engine.network().device_rules(spine), before);
        // The engine still answers.
        assert!(engine.headline_metrics().rule_fractional.is_some());
    }

    #[test]
    fn malformed_trace_is_rejected_with_location() {
        use netbdd::PortableBdd;
        let (n, tor, _, _) = build();
        let mut engine = CoverageEngine::new(n, 1);
        let loc = Location::device(tor);
        let bad = PortableTrace::from_parts(
            vec![(loc, PortableBdd::from_parts(vec![(0, 0, 12)], 2))],
            Default::default(),
        );
        match engine.add_test("bad", &bad) {
            Err(EngineError::MalformedTrace { location, .. }) => assert_eq!(location, loc),
            other => panic!("expected MalformedTrace, got {other:?}"),
        }
        assert_eq!(engine.version(), 0);
    }

    #[test]
    fn delta_log_slices_by_version() {
        let (n, tor, _, _) = build();
        let mut engine = CoverageEngine::new(n, 1);
        engine
            .add_test("a", &mark_trace(tor, "10.0.0.0/8"))
            .unwrap();
        engine.remove_test("a").unwrap();
        assert_eq!(engine.deltas_since(0).unwrap().len(), 2);
        let tail = engine.deltas_since(1).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].kind, DeltaKind::TestRemoved);
        assert_eq!(tail[0].detail, "a");
        assert!(engine.deltas_since(2).unwrap().is_empty());
    }

    /// The log keeps between `DELTA_LOG_CAPACITY` and twice that many of
    /// the newest records; a reader whose version is older than the
    /// window gets an error naming the oldest retained version instead of
    /// a tail with a gap.
    #[test]
    fn delta_log_is_bounded_and_names_the_oldest_retained_version() {
        let (n, tor, _, _) = build();
        let mut engine = CoverageEngine::new(n, 1);
        let trace = mark_trace(tor, "10.0.0.0/25");
        let total = 2 * DELTA_LOG_CAPACITY as u64 + 10;
        for v in 0..total {
            if v % 2 == 0 {
                engine.add_test("t", &trace).unwrap();
            } else {
                engine.remove_test("t").unwrap();
            }
            assert!(engine.log.len() <= 2 * DELTA_LOG_CAPACITY);
        }
        assert_eq!(engine.version(), total);
        // The 2·capacity-th record dropped the older half.
        let oldest = DELTA_LOG_CAPACITY as u64 + 1;
        assert_eq!(engine.log.len(), DELTA_LOG_CAPACITY + 10);

        // From the version just before the oldest record on, the tail is
        // whole.
        let tail = engine.deltas_since(oldest - 1).unwrap();
        assert_eq!(tail.len(), DELTA_LOG_CAPACITY + 10);
        assert_eq!(tail[0].version, oldest);
        assert_eq!(tail[tail.len() - 1].version, total);
        assert_eq!(engine.deltas_since(total - 1).unwrap().len(), 1);
        assert!(engine.deltas_since(total).unwrap().is_empty());
        assert!(engine.deltas_since(total + 5).unwrap().is_empty());

        // Older than that, version `oldest - 1` itself is gone.
        for since in [0, oldest - 2] {
            let err = engine.deltas_since(since).unwrap_err();
            assert_eq!(err, EngineError::DeltaLogTruncated { since, oldest });
            assert!(
                err.to_string()
                    .contains(&format!("oldest retained: {oldest}")),
                "{err}"
            );
        }
    }

    /// The headline memo is keyed on the version: a quiet `/metrics` is a
    /// hit, the first one after any delta re-aggregates, and a GC (no
    /// delta, no changed packet set) keeps the memo.
    #[test]
    fn a_quiet_metrics_call_is_a_headline_cache_hit() {
        use crate::daemon::{handle, Request};
        use routing::TopologyDelta;
        let (ft, routing) = topogen::fattree_with_engine(topogen::FatTreeParams::paper(4));
        let (tor, agg) = (ft.tors[0].0, ft.aggs[0]);
        let mut engine = CoverageEngine::new(ft.net, 1);
        engine.attach_routing(routing);
        engine
            .add_test("t", &mark_trace(tor, "10.0.0.0/8"))
            .unwrap();
        let metrics = Request::new("GET", "/metrics", "");
        let read = |engine: &mut CoverageEngine| {
            let resp = handle(engine, &metrics);
            assert_eq!(resp.status, 200, "{}", resp.body);
            (engine.headline_hits, engine.headline_misses)
        };

        assert_eq!(read(&mut engine), (0, 1), "the first /metrics aggregates");
        for _ in 0..99 {
            read(&mut engine);
        }
        assert_eq!(read(&mut engine), (100, 1), "100 quiet /metrics calls");

        let hosts = ft.tors[0].2;
        engine
            .insert_rule(
                tor,
                Rule::forward(
                    "10.0.0.7/32".parse().unwrap(),
                    vec![hosts],
                    RouteClass::Other,
                ),
            )
            .unwrap();
        assert_eq!(read(&mut engine), (100, 2), "one rule delta");

        for delta in [
            TopologyDelta::LinkDown { a: tor, b: agg },
            TopologyDelta::LinkUp { a: tor, b: agg },
        ] {
            engine.apply_topology(&delta).unwrap();
        }
        assert_eq!(read(&mut engine), (100, 3), "a ToR-uplink flap");

        engine.gc();
        assert_eq!(read(&mut engine), (101, 3), "a collection");

        // The memo after all that is what re-aggregating gives.
        let (a, bdd) = engine.analyzer();
        let fresh = HeadlineMetrics {
            rule_fractional: a.aggregate_rules(bdd, Aggregator::Fractional, |_, _| true),
            rule_weighted: a.aggregate_rules(bdd, Aggregator::Weighted, |_, _| true),
            device_fractional: a.aggregate_devices(bdd, Aggregator::Fractional, |_, _| true),
        };
        assert_eq!(engine.headline_metrics(), fresh);
    }

    #[test]
    fn query_cache_is_lru_and_flushes_on_delta() {
        let mut c = QueryCache::new(2);
        c.insert("a".into(), "1".into());
        c.insert("b".into(), "2".into());
        assert_eq!(c.get("a").as_deref(), Some("1")); // refresh a
        c.insert("c".into(), "3".into()); // evicts b (LRU)
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("a").as_deref(), Some("1"));
        assert_eq!(c.get("c").as_deref(), Some("3"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (3, 1, 1, 2));
        c.flush();
        let s = c.stats();
        // Counters survive the flush; the two resident entries count as
        // evictions.
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (3, 1, 3, 0));

        // And the engine flushes on every applied delta.
        let (n, tor, _, _) = build();
        let mut engine = CoverageEngine::new(n, 1);
        engine.query_cache().insert("k".into(), "v".into());
        engine
            .add_test("t", &mark_trace(tor, "10.0.0.0/8"))
            .unwrap();
        assert_eq!(engine.query_cache().get("k"), None);
    }

    /// `engine.devices_invalidated_total` counts the devices a delta
    /// names, `engine.shards_recomputed_total` the shards Algorithm 1
    /// re-ran on: a ToR-uplink flap names devices and recomputes none, a
    /// device failure recomputes the device that lost its table.
    #[test]
    fn an_action_only_delta_names_devices_and_recomputes_no_shard() {
        use routing::TopologyDelta;
        let (ft, routing) = topogen::fattree_with_engine(topogen::FatTreeParams::paper(4));
        let (tor, agg, core) = (ft.tors[0].0, ft.aggs[0], ft.cores[0]);
        let mut engine = CoverageEngine::new(ft.net, 1);
        engine.attach_routing(routing);
        engine
            .add_test("t", &mark_trace(tor, "10.0.0.0/8"))
            .unwrap();
        let counters = |e: &CoverageEngine| (e.devices_invalidated, e.shards_recomputed);
        assert_eq!(counters(&engine), (1, 1), "one test on one device");

        for delta in [
            TopologyDelta::LinkDown { a: tor, b: agg },
            TopologyDelta::LinkUp { a: tor, b: agg },
        ] {
            let (named, recomputed) = counters(&engine);
            let devices = engine.apply_topology(&delta).unwrap();
            assert!(devices.contains(&tor), "{delta:?} names {devices:?}");
            assert_eq!(
                counters(&engine),
                (named + devices.len() as u64, recomputed),
                "{delta:?}"
            );
            assert_eq!(
                engine.deltas_since(engine.version() - 1).unwrap()[0].devices,
                devices
            );
            assert_matches_batch(&mut engine);
        }

        let (named, recomputed) = counters(&engine);
        let devices = engine
            .apply_topology(&TopologyDelta::DeviceDown { device: core })
            .unwrap();
        assert!(devices.len() > 1 && devices.contains(&core));
        // The core lost its table; the aggs under it only lost an ECMP leg.
        assert_eq!(
            counters(&engine),
            (named + devices.len() as u64, recomputed + 1)
        );
        assert_matches_batch(&mut engine);
    }

    /// Churn tests to strand garbage, collect, and check both halves of
    /// the GC contract: nodes are reclaimed, and every surviving covered
    /// set answers identically after relocation.
    #[test]
    fn gc_reclaims_garbage_and_preserves_answers() {
        use netbdd::PortableBdd;
        let (n, tor, _, _) = build();
        let mut engine = CoverageEngine::new(n, 1);
        for i in 0..16 {
            engine
                .add_test(
                    &format!("t{i}"),
                    &mark_trace(tor, &format!("10.{i}.0.0/16")),
                )
                .unwrap();
        }
        for i in 0..15 {
            engine.remove_test(&format!("t{i}")).unwrap();
        }
        let before: Vec<(RuleId, PortableBdd)> = engine
            .net
            .rules()
            .map(|(id, _)| (id, engine.bdd.export(engine.covered.get(id))))
            .collect();
        let stats = engine.gc();
        assert!(stats.reclaimed() > 0, "churn left no garbage to reclaim");
        assert_eq!(engine.bdd.node_count(), stats.nodes_after);
        assert_eq!(engine.gc_collections(), 1);
        for (id, p) in &before {
            assert_eq!(
                &engine.bdd.export(engine.covered.get(*id)),
                p,
                "covered set changed across GC at {id:?}"
            );
        }
        // The engine still computes correct fresh results in the
        // compacted arena.
        assert_matches_batch(&mut engine);
    }

    /// An armed watermark runs the collector automatically once a delta
    /// leaves the arena above it.
    #[test]
    fn watermark_triggers_automatic_collection() {
        let (n, tor, _, _) = build();
        let mut engine = CoverageEngine::new(n, 1);
        engine.set_gc_watermark(Some(engine.bdd.node_count()));
        engine
            .add_test("t", &mark_trace(tor, "10.1.2.0/24"))
            .unwrap();
        assert!(engine.gc_collections() >= 1, "watermark never fired");
        assert_matches_batch(&mut engine);
    }
}
