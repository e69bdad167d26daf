//! Config-level coverage via control-plane provenance (NetCov-style).
//!
//! Rule coverage answers "which FIB entries did the tests exercise?"
//! but operators reason in terms of *configuration*: BGP sessions,
//! route originations, static routes. This module maps the Algorithm-1
//! covered sets through the provenance layer of the `routing` crate and
//! reports, per configuration construct, whether any FIB rule it
//! contributed to was exercised — so an untested construct reads as "no
//! test ever depended on this line of config", the actionable gap NetCov
//! surfaces for IGP/BGP networks.
//!
//! ## Attribution
//!
//! A FIB rule belongs to a construct's *footprint* when the rule is a
//! destination-prefix route (its match is dst-only) and the control
//! plane attributes its `(device, prefix)` key to the construct.
//! Shadowed rules (empty disjoint match set) are excluded — they cannot
//! carry packets, so they cannot witness coverage. Constructs whose
//! footprint ends up empty are reported separately as *unreferenced*:
//! config that never produced a testable FIB entry (dead config, or
//! config fully shadowed by more-preferred routes).
//!
//! ## Two queries, no footprint in the summary
//!
//! The summary ([`ConfigCoverage`]) needs two bits per construct, not its
//! footprint. One pass over the rules (`entry_marks`) tags each
//! installed key *testable* and/or *exercised*.
//! [`routing::RoutingEngine::mark_constructs`] then ORs those tags
//! backwards over the shortest-path DAG of each prefix group, the way
//! NetCov computes coverage backwards from the tested facts. No per-key
//! construct set is built. One construct's footprint and its
//! probabilities ([`ConstructCoverage`]) come from a forward walk
//! ([`routing::RoutingEngine::attributed_keys`]) and `footprint`. The
//! attribution database `RoutingEngine::config_db` builds every per-key
//! set at once, and it is the oracle both queries are tested against.
//!
//! ## Metrics
//!
//! A construct is **covered** iff some footprint rule has a non-empty
//! covered set `T[r]`. The per-construct **weighted** metric refines
//! the bit: `Σ P(T[r]) / Σ P(M[r])` over the footprint — how much of
//! the construct's forwarding behaviour the tests actually swept. The
//! headline **fractional** metric is covered ÷ coverable, the direct
//! analogue of the paper's fractional rule coverage one level up the
//! provenance chain.

use netbdd::Bdd;
use netmodel::provenance::{Construct, Marks};
use netmodel::topology::DeviceId;
use netmodel::{Prefix, RuleId};

use crate::analyzer::{ratio, Analyzer};

/// Coverage of one configuration construct: its FIB-rule footprint and
/// the covered/match probability mass accumulated over it.
#[derive(Clone, Debug, PartialEq)]
pub struct ConstructCoverage {
    /// The construct this entry describes.
    pub construct: Construct,
    /// The footprint: every non-shadowed FIB rule attributed to the
    /// construct, in rule-id order. Empty for an unreferenced construct.
    pub rules: Vec<RuleId>,
    /// Whether any footprint rule has a non-empty covered set.
    pub covered: bool,
    /// `Σ P(M[r])` over the footprint (total testable mass).
    pub match_probability: f64,
    /// `Σ P(T[r])` over the footprint (mass the tests swept).
    pub covered_probability: f64,
}

impl ConstructCoverage {
    /// The weighted metric `Σ P(T[r]) / Σ P(M[r])`, or `None` when the
    /// footprint carries no probability mass at all.
    pub fn weighted(&self) -> Option<f64> {
        ratio(self.match_probability, self.covered_probability)
    }
}

/// Config-level coverage: every live construct, split by what the
/// Algorithm-1 covered sets say about its footprint. Each list is in
/// construct order.
///
/// # Examples
///
/// ```
/// use netmodel::{Location, Prefix};
/// use netmodel::provenance::Construct;
/// use routing::{Origination, RibBuilder, Scope};
/// use yardstick::{CoverageEngine, CoverageTrace};
/// # use netmodel::{Role, IfaceKind};
///
/// // A one-link fabric: tor originates a host prefix, spine learns it
/// // over the session.
/// let mut topo = netmodel::topology::Topology::new();
/// let tor = topo.add_device("tor", Role::Tor);
/// let spine = topo.add_device("spine", Role::Spine);
/// let hosts = topo.add_iface(tor, "hosts", IfaceKind::Host);
/// topo.add_link(tor, spine);
/// let mut rb = RibBuilder::new(topo);
/// rb.set_tier(tor, 0);
/// rb.set_tier(spine, 1);
/// let p: Prefix = "10.0.0.0/24".parse().unwrap();
/// rb.originate(Origination::new(
///     tor,
///     p,
///     netmodel::rule::RouteClass::HostSubnet,
///     Some(hosts),
///     Scope::All,
/// ));
/// let (routing, net) = rb.into_engine().unwrap();
/// let mut engine = CoverageEngine::new(net, 1);
/// engine.attach_routing(routing);
///
/// // No tests yet: both constructs are coverable, none covered.
/// let cov = engine.config_coverage().unwrap();
/// assert_eq!(cov.coverable(), 2);
/// assert_eq!(cov.covered_count(), 0);
///
/// // A probe observed at the spine exercises the session AND the
/// // origination behind it.
/// let mut bdd = netbdd::Bdd::new();
/// let mut probe = CoverageTrace::new();
/// let packets = netmodel::header::dst_in(&mut bdd, &p);
/// probe.add_packets(&mut bdd, Location::device(spine), packets);
/// engine.add_test("probe", &probe.export(&bdd)).unwrap();
/// let cov = engine.config_coverage().unwrap();
/// assert_eq!(cov.covered, vec![
///     Construct::Origination { device: tor, prefix: p },
///     Construct::session(tor, spine),
/// ]);
/// assert_eq!(cov.fractional(), Some(1.0));
///
/// // The drill-down names the footprint: the spine's one route.
/// let session = engine.construct_coverage(&Construct::session(tor, spine)).unwrap();
/// assert_eq!(session.unwrap().rules.len(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConfigCoverage {
    /// Coverable constructs some footprint rule of which was exercised.
    pub covered: Vec<Construct>,
    /// Coverable constructs no test exercised — the actionable gap list.
    pub uncovered: Vec<Construct>,
    /// Constructs with an empty footprint — config that never produced
    /// a testable FIB entry. Excluded from every metric.
    pub unreferenced: Vec<Construct>,
}

impl ConfigCoverage {
    /// Sort a marked construct universe
    /// ([`routing::RoutingEngine::mark_constructs`]) into the three
    /// lists.
    pub(crate) fn from_marks(marked: Vec<(Construct, Marks)>) -> ConfigCoverage {
        let mut cov = ConfigCoverage::default();
        for (c, marks) in marked {
            let list = match (marks.testable(), marks.exercised()) {
                (false, _) => &mut cov.unreferenced,
                (true, false) => &mut cov.uncovered,
                (true, true) => &mut cov.covered,
            };
            list.push(c);
        }
        cov
    }

    /// Number of coverable constructs (non-empty footprint).
    pub fn coverable(&self) -> usize {
        self.covered.len() + self.uncovered.len()
    }

    /// Number of covered constructs.
    pub fn covered_count(&self) -> usize {
        self.covered.len()
    }

    /// The headline fractional metric: covered ÷ coverable. `None` when
    /// nothing is coverable.
    pub fn fractional(&self) -> Option<f64> {
        match self.coverable() {
            0 => None,
            coverable => Some(self.covered_count() as f64 / coverable as f64),
        }
    }
}

/// The rule pass of the summary: the `(device, prefix)` key of every
/// destination-prefix route with a non-empty match set, marked
/// *testable*, and *exercised* too when its covered set is non-empty.
/// The result is in key order, the order
/// [`routing::RoutingEngine::mark_constructs`] merges in, so its sort
/// has nothing to do.
pub(crate) fn entry_marks(analyzer: &Analyzer) -> Vec<((DeviceId, Prefix), Marks)> {
    let (net, ms) = (analyzer.network(), analyzer.match_sets());
    let mut out = Vec::with_capacity(net.rule_count());
    for (device, _) in net.topology().devices() {
        let start = out.len();
        for (index, rule) in net.device_rules(device).iter().enumerate() {
            let Some(dst) = rule.matches.route_prefix() else {
                continue;
            };
            let id = RuleId {
                device,
                index: index as u32,
            };
            if ms.get(id).is_false() {
                continue; // shadowed: untestable, no footprint
            }
            let marks = match analyzer.covered_sets().is_exercised(id) {
                true => Marks::TESTABLE | Marks::EXERCISED,
                false => Marks::TESTABLE,
            };
            out.push(((device, dst), marks));
        }
        // An LPM table is a few prefix-sorted runs, one per prefix
        // length; the stable sort merges runs instead of re-sorting.
        out[start..].sort_by_key(|&(key, _)| key);
    }
    out
}

/// One construct's footprint over the keys attributed to it
/// ([`routing::RoutingEngine::attributed_keys`], in key order): every
/// destination-prefix route on those keys with a non-empty match set,
/// with `P(M[r])` and `P(T[r])` summed in rule-id order.
pub(crate) fn footprint(
    construct: Construct,
    keys: &[(DeviceId, Prefix)],
    analyzer: &Analyzer,
    bdd: &mut Bdd,
) -> ConstructCoverage {
    let (net, ms) = (analyzer.network(), analyzer.match_sets());
    let mut entry = ConstructCoverage {
        construct,
        rules: Vec::new(),
        covered: false,
        match_probability: 0.0,
        covered_probability: 0.0,
    };
    for at_device in keys.chunk_by(|x, y| x.0 == y.0) {
        let device = at_device[0].0;
        for (index, rule) in net.device_rules(device).iter().enumerate() {
            let Some(dst) = rule.matches.route_prefix() else {
                continue;
            };
            if at_device.binary_search(&(device, dst)).is_err() {
                continue;
            }
            let id = RuleId {
                device,
                index: index as u32,
            };
            if ms.get(id).is_false() {
                continue;
            }
            let (m, t) = analyzer.rule_measures(bdd, id);
            entry.rules.push(id);
            entry.match_probability += m;
            entry.covered_probability += t;
            entry.covered |= analyzer.covered_sets().is_exercised(id);
        }
    }
    entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CoverageEngine;
    use crate::trace::{CoverageTrace, PortableTrace};
    use netmodel::header;
    use netmodel::rule::{RouteClass, Rule};
    use netmodel::topology::{IfaceKind, Role, Topology};
    use netmodel::Location;
    use routing::{Origination, RibBuilder, Scope, StaticRoute, StaticTarget};

    /// tor—spine with an origination at the tor and a null static on
    /// the spine for a dark prefix nothing probes.
    fn build() -> (CoverageEngine, DeviceId, DeviceId) {
        let mut topo = Topology::new();
        let tor = topo.add_device("tor", Role::Tor);
        let spine = topo.add_device("spine", Role::Spine);
        let hosts = topo.add_iface(tor, "hosts", IfaceKind::Host);
        topo.add_link(tor, spine);
        let mut rb = RibBuilder::new(topo);
        rb.set_tier(tor, 0);
        rb.set_tier(spine, 1);
        rb.originate(Origination::new(
            tor,
            "10.0.0.0/24".parse().unwrap(),
            RouteClass::HostSubnet,
            Some(hosts),
            Scope::All,
        ));
        rb.add_static(StaticRoute {
            device: spine,
            prefix: "192.0.2.0/24".parse().unwrap(),
            target: StaticTarget::Null,
            class: RouteClass::Other,
        });
        let (routing, net) = rb.into_engine().unwrap();
        let mut engine = CoverageEngine::new(net, 1);
        engine.attach_routing(routing);
        (engine, tor, spine)
    }

    /// A trace marking `prefix` at `device`.
    fn probe(device: DeviceId, prefix: &str) -> PortableTrace {
        let mut bdd = Bdd::new();
        let mut t = CoverageTrace::new();
        let set = header::dst_in(&mut bdd, &prefix.parse().unwrap());
        t.add_packets(&mut bdd, Location::device(device), set);
        t.export(&bdd)
    }

    fn drill_down(engine: &mut CoverageEngine, c: &Construct) -> ConstructCoverage {
        engine
            .construct_coverage(c)
            .unwrap()
            .expect("a live construct")
    }

    fn dark(spine: DeviceId) -> Construct {
        Construct::Static {
            device: spine,
            prefix: "192.0.2.0/24".parse().unwrap(),
        }
    }

    #[test]
    fn construct_covered_iff_some_footprint_rule_is_covered() {
        // For every coverable construct, the summary's bit equals the
        // drill-down's, which equals "∃ footprint rule with a non-empty
        // covered set", recomputed here independently.
        let (mut engine, _tor, spine) = build();
        engine.add_test("p", &probe(spine, "10.0.0.0/24")).unwrap();
        let cov = engine.config_coverage().unwrap();
        let coverable = cov.covered.iter().map(|c| (c, true));
        for (c, bit) in coverable.chain(cov.uncovered.iter().map(|c| (c, false))) {
            let entry = drill_down(&mut engine, c);
            let oracle = entry.rules.iter().any(|&id| engine.is_exercised(id));
            assert_eq!(entry.covered, oracle, "drill-down disagrees for {c}");
            assert_eq!(bit, oracle, "summary disagrees for {c}");
        }
        // And the specific content: session + origination covered, the
        // dark null static not.
        assert_eq!(cov.covered_count(), 2);
        assert_eq!(cov.uncovered, vec![dark(spine)]);
        assert!(!drill_down(&mut engine, &dark(spine)).covered);
    }

    #[test]
    fn empty_trace_covers_nothing_and_metrics_are_bounded() {
        let (mut engine, _, _) = build();
        let cov = engine.config_coverage().unwrap();
        assert_eq!(cov.covered_count(), 0);
        assert_eq!(cov.fractional(), Some(0.0));
        for c in &cov.uncovered {
            let entry = drill_down(&mut engine, c);
            if let Some(w) = entry.weighted() {
                assert!((0.0..=1.0).contains(&w));
            }
            assert_eq!(entry.covered_probability, 0.0);
        }
    }

    #[test]
    fn every_provenance_construct_is_accounted_for() {
        // Covered ∪ uncovered ∪ unreferenced == the oracle database's
        // universe, disjointly.
        let (mut engine, _, _) = build();
        let cov = engine.config_coverage().unwrap();
        let mut seen = [cov.covered, cov.uncovered, cov.unreferenced].concat();
        seen.sort();
        let db = engine.routing().unwrap().config_db();
        let universe: Vec<Construct> = db.constructs.into_iter().collect();
        assert_eq!(seen, universe);
    }

    #[test]
    fn partial_sweep_shows_in_weighted_not_in_the_bit() {
        // Probing half the /24 covers the origination (bit set) but
        // the weighted metric reports the partial sweep.
        let (mut engine, tor, spine) = build();
        engine
            .add_test("half", &probe(spine, "10.0.0.0/25"))
            .unwrap();
        let orig = Construct::Origination {
            device: tor,
            prefix: "10.0.0.0/24".parse().unwrap(),
        };
        let entry = drill_down(&mut engine, &orig);
        assert!(entry.covered);
        let w = entry.weighted().unwrap();
        assert!(w > 0.0 && w < 1.0, "weighted should be partial, got {w}");
    }

    #[test]
    fn shadowed_rules_do_not_create_footprint() {
        // Every footprint rule has a non-empty match set, and a static
        // whose only rule two more-specific halves shadow is unreferenced.
        let (mut engine, _, spine) = build();
        let cov = engine.config_coverage().unwrap();
        for c in cov.covered.iter().chain(&cov.uncovered) {
            let entry = drill_down(&mut engine, c);
            assert!(!entry.rules.is_empty());
            let (a, _) = engine.analyzer();
            assert!(entry
                .rules
                .iter()
                .all(|&id| !a.match_sets().get(id).is_false()));
        }
        for half in ["192.0.2.0/25", "192.0.2.128/25"] {
            let rule = Rule::null_route(half.parse().unwrap(), RouteClass::Other);
            engine.insert_rule(spine, rule).unwrap();
        }
        let cov = engine.config_coverage().unwrap();
        assert_eq!(cov.unreferenced, vec![dark(spine)]);
        assert!(drill_down(&mut engine, &dark(spine)).rules.is_empty());
    }
}
