//! Phase-2 analysis: from a coverage trace to metrics.
//!
//! The [`Analyzer`] holds the derived covered sets (Algorithm 1), its own
//! or a resident engine's, and exposes the standard per-component metrics
//! plus aggregation over arbitrary component collections with user
//! filters — the "zoom in on a subset of components" facility of §6.
//!
//! Every metric but incoming-interface coverage is a sum over one table
//! of `(P(M[r]), P(T[r]))` per rule, read from the manager once, on first
//! use: Equation 2's weights are the match-set measures themselves, and
//! because match sets are disjoint a device's coverage is
//! ΣP(T[r]) / ΣP(M[r]) over its rules, with no union built.

use std::borrow::Cow;
use std::cell::OnceCell;

use netbdd::Bdd;
use netmodel::topology::{DeviceId, IfaceKind, Role};
use netmodel::{IfaceId, MatchSets, Network, RuleId};

use crate::covered::CoveredSets;
use crate::framework::Aggregator;
use crate::report::RoleMetricsOverall;
use crate::trace::CoverageTrace;

/// Phase-2 coverage analyzer bound to one network snapshot and one trace.
///
/// # Examples
///
/// ```
/// use netbdd::Bdd;
/// use netmodel::MatchSets;
/// use yardstick::{Analyzer, Tracker};
/// # use netmodel::{Network, Prefix, Role, rule::{Rule, RouteClass}, topology::Topology};
/// # let mut topo = Topology::new();
/// # let d = topo.add_device("r1", Role::Tor);
/// # let h = topo.add_iface(d, "hosts", netmodel::IfaceKind::Host);
/// # let mut net = Network::new(topo);
/// # net.add_rule(d, Rule::forward(Prefix::v4_default(), vec![h], RouteClass::StaticDefault));
/// # net.finalize();
/// let mut bdd = Bdd::new();
/// let mut tracker = Tracker::new();
/// // A state-inspection test reports the one rule it checked ...
/// tracker.mark_rule(net.rules().next().unwrap().0);
///
/// // ... and phase 2 turns the trace into metrics.
/// let ms = MatchSets::compute(&net, &mut bdd);
/// let analyzer = Analyzer::new(&net, &ms, tracker.trace(), &mut bdd);
/// assert_eq!(analyzer.device_coverage(&mut bdd, d), Some(1.0));
/// ```
pub struct Analyzer<'a> {
    net: &'a Network,
    ms: &'a MatchSets,
    trace: &'a CoverageTrace,
    covered: Cow<'a, CoveredSets>,
    /// `(P(M[r]), P(T[r]))` per rule, `[device][index]`, once read.
    measures: OnceCell<Vec<Vec<(f64, f64)>>>,
    /// `(ΣP(M[r]), ΣP(T[r]))` per interface over the rules forwarding
    /// out of it, indexed by `IfaceId`, once summed.
    out_iface_sums: OnceCell<Vec<(f64, f64)>>,
}

impl<'a> Analyzer<'a> {
    /// Compute covered sets (Algorithm 1) and return an analyzer.
    pub fn new(
        net: &'a Network,
        ms: &'a MatchSets,
        trace: &'a CoverageTrace,
        bdd: &mut Bdd,
    ) -> Analyzer<'a> {
        let _span = netobs::span!("analysis");
        let covered = CoveredSets::compute(net, ms, trace, bdd);
        Analyzer::with_covered(net, ms, trace, covered)
    }

    /// Wrap covered sets computed elsewhere, owned or borrowed (a resident
    /// engine lends its shards). The caller is responsible for `covered`
    /// actually corresponding to `(net, ms, trace)`; every metric is then
    /// bit-identical to what [`Analyzer::new`] would produce.
    pub fn with_covered(
        net: &'a Network,
        ms: &'a MatchSets,
        trace: &'a CoverageTrace,
        covered: impl Into<Cow<'a, CoveredSets>>,
    ) -> Analyzer<'a> {
        Analyzer {
            net,
            ms,
            trace,
            covered: covered.into(),
            measures: OnceCell::new(),
            out_iface_sums: OnceCell::new(),
        }
    }

    /// The network under analysis.
    pub fn network(&self) -> &'a Network {
        self.net
    }

    /// The network's disjoint match sets.
    pub fn match_sets(&self) -> &'a MatchSets {
        self.ms
    }

    /// The Algorithm-1 covered sets computed from the trace.
    pub fn covered_sets(&self) -> &CoveredSets {
        &self.covered
    }

    /// The coverage trace the analyzer was built from.
    pub fn trace(&self) -> &'a CoverageTrace {
        self.trace
    }

    // ----- per-component metrics -------------------------------------------

    /// `(P(M[r]), P(T[r]))` for one rule, read from the manager: the one
    /// place a rule's measures are read. It builds no BDD node.
    pub(crate) fn rule_measures(&self, bdd: &mut Bdd, rule: RuleId) -> (f64, f64) {
        (
            bdd.probability(self.ms.get(rule)),
            bdd.probability(self.covered.get(rule)),
        )
    }

    /// [`Analyzer::rule_measures`] for every rule, indexed
    /// `[device][index]`: read once, on first use, and summed by every
    /// metric below.
    fn measures(&self, bdd: &mut Bdd) -> &[Vec<(f64, f64)>] {
        self.measures.get_or_init(|| {
            let net = self.net;
            net.topology()
                .devices()
                .map(|(device, _)| {
                    net.device_rule_ids(device)
                        .map(|id| self.rule_measures(bdd, id))
                        .collect()
                })
                .collect()
        })
    }

    /// ΣP(M[r]) and ΣP(T[r]) over `device`'s rules, in table order.
    fn device_sums(&self, bdd: &mut Bdd, device: DeviceId) -> (f64, f64) {
        let measures = self.measures(bdd)[device.0 as usize].iter();
        measures.fold((0.0, 0.0), |(m, t), &(rm, rt)| (m + rm, t + rt))
    }

    /// ΣP(M[r]) and ΣP(T[r]) over the rules that forward out of each
    /// interface, indexed by `IfaceId`: one pass over each table, in table
    /// order, on first use. A rule counts once per interface of its own
    /// device, however often its action names it.
    fn out_iface_sums(&self, bdd: &mut Bdd) -> &[(f64, f64)] {
        let measures = self.measures(bdd);
        self.out_iface_sums.get_or_init(|| {
            let topo = self.net.topology();
            let mut sums = vec![(0.0, 0.0); topo.iface_count()];
            for (device, _) in topo.devices() {
                let table = self.net.device_rules(device);
                for (rule, &(m, t)) in table.iter().zip(&measures[device.0 as usize]) {
                    let out = rule.action.out_ifaces();
                    for (k, &iface) in out.iter().enumerate() {
                        if out[..k].contains(&iface) || topo.iface(iface).device != device {
                            continue;
                        }
                        let sum = &mut sums[iface.0 as usize];
                        sum.0 += m;
                        sum.1 += t;
                    }
                }
            }
            sums
        })
    }

    /// Rule coverage: fraction of the rule's match set covered.
    /// `None` for fully-shadowed rules (empty match set — untestable).
    pub fn rule_coverage(&self, bdd: &mut Bdd, rule: RuleId) -> Option<f64> {
        let (m, t) = self.measures(bdd)[rule.device.0 as usize][rule.index as usize];
        ratio(m, t)
    }

    /// Device coverage: match-set-weighted average over the device's
    /// rules (Equation 2 with weights |M[r]|), ΣP(T[r]) / ΣP(M[r]).
    /// `None` when the device has no (testable) rules.
    pub fn device_coverage(&self, bdd: &mut Bdd, device: DeviceId) -> Option<f64> {
        let (m, t) = self.device_sums(bdd, device);
        ratio(m, t)
    }

    /// Outgoing interface coverage: weighted average over the rules that
    /// forward out of `iface`. `None` when no rule uses the interface
    /// (it cannot carry traffic, so it is untestable).
    pub fn out_iface_coverage(&self, bdd: &mut Bdd, iface: IfaceId) -> Option<f64> {
        let (m, t) = self.out_iface_sums(bdd)[iface.0 as usize];
        ratio(m, t)
    }

    /// Incoming interface coverage: over the device's rules reachable
    /// from `iface`, the fraction of match-set space covered *by packets
    /// recorded on that interface* (§4.3.2: guards limited to packets on
    /// the interface). Requires tests that report ingress locations
    /// (end-to-end traversals do); device-level marks don't count.
    pub fn in_iface_coverage(&self, bdd: &mut Bdd, iface: IfaceId) -> Option<f64> {
        let device = self.net.topology().iface(iface).device;
        let arrived = self.trace.packets.at_device_iface(device, iface);
        let measures = &self.measures(bdd)[device.0 as usize];
        let mut m_total = 0.0;
        let mut t_total = 0.0;
        for (id, &(m, _)) in self.net.device_rule_ids(device).zip(measures) {
            let rule = self.net.rule(id);
            if let Some(required) = rule.matches.in_iface {
                if required != iface {
                    continue;
                }
            }
            if m == 0.0 {
                continue;
            }
            m_total += m;
            // Inspected rules are fully covered regardless of ingress.
            if self.trace.rules.contains(&id) {
                t_total += m;
            } else {
                let t = bdd.and(arrived, self.ms.get(id));
                t_total += bdd.probability(t);
            }
        }
        ratio(m_total, t_total)
    }

    // ----- aggregation (Equation 2) -----------------------------------------

    /// Aggregate rule coverage over rules passing `filter`.
    /// Shadowed rules are excluded. Returns `None` if nothing matches.
    pub fn aggregate_rules(
        &self,
        bdd: &mut Bdd,
        agg: Aggregator,
        filter: impl Fn(RuleId, &netmodel::Rule) -> bool,
    ) -> Option<f64> {
        let measures = self.measures(bdd);
        let items: Vec<(f64, f64)> = self
            .net
            .rules()
            .filter(|(id, r)| filter(*id, r))
            .filter_map(|(id, _)| {
                let (m, t) = measures[id.device.0 as usize][id.index as usize];
                Some((ratio(m, t)?, m))
            })
            .collect();
        agg.fold(&items)
    }

    /// Aggregate device coverage over devices passing `filter`, each
    /// weighted by ΣP(M[r]) over its rules.
    pub fn aggregate_devices(
        &self,
        bdd: &mut Bdd,
        agg: Aggregator,
        filter: impl Fn(DeviceId, &netmodel::Device) -> bool,
    ) -> Option<f64> {
        let items: Vec<(f64, f64)> = self
            .net
            .topology()
            .devices()
            .filter(|(id, d)| filter(*id, d))
            .filter_map(|(id, _)| {
                let (m, t) = self.device_sums(bdd, id);
                Some((ratio(m, t)?, m))
            })
            .collect();
        agg.fold(&items)
    }

    /// Aggregate outgoing-interface coverage over interfaces passing
    /// `filter`. Loopbacks are always excluded (they originate routes but
    /// never carry transit packets); interfaces that no rule forwards out
    /// of count as 0 — an installed but unused-and-untested port is a
    /// gap, not a vacuous component.
    pub fn aggregate_out_ifaces(
        &self,
        bdd: &mut Bdd,
        agg: Aggregator,
        filter: impl Fn(IfaceId, &netmodel::Iface) -> bool,
    ) -> Option<f64> {
        let sums = self.out_iface_sums(bdd);
        let items: Vec<(f64, f64)> = self
            .net
            .topology()
            .ifaces()
            .filter(|(_, f)| f.kind != IfaceKind::Loopback)
            .filter(|(id, f)| filter(*id, f))
            .map(|(id, _)| {
                let (m, t) = sums[id.0 as usize];
                (ratio(m, t).unwrap_or(0.0), m)
            })
            .collect();
        agg.fold(&items)
    }

    /// Aggregate incoming-interface coverage over interfaces passing
    /// `filter`, each weighted by ΣP(M[r]) over its device's rules.
    /// Host/external edges and P2p links all count; loopbacks never
    /// receive transit packets and are excluded. Interfaces with no
    /// reachable rules are vacuous and skipped.
    pub fn aggregate_in_ifaces(
        &self,
        bdd: &mut Bdd,
        agg: Aggregator,
        filter: impl Fn(IfaceId, &netmodel::Iface) -> bool,
    ) -> Option<f64> {
        let items: Vec<(f64, f64)> = self
            .net
            .topology()
            .ifaces()
            .filter(|(_, f)| f.kind != IfaceKind::Loopback)
            .filter(|(id, f)| filter(*id, f))
            .filter_map(|(id, f)| {
                let c = self.in_iface_coverage(bdd, id)?;
                Some((c, self.device_sums(bdd, f.device).0))
            })
            .collect();
        agg.fold(&items)
    }

    /// The four headline metrics over the devices `in_scope` admits,
    /// exactly one group of bars of Figure 6: device fractional,
    /// out-interface fractional, rule fractional, rule weighted.
    pub(crate) fn figure6(
        &self,
        bdd: &mut Bdd,
        in_scope: impl Fn(DeviceId) -> bool,
    ) -> RoleMetricsOverall {
        RoleMetricsOverall {
            device_fractional: self
                .aggregate_devices(bdd, Aggregator::Fractional, |id, _| in_scope(id)),
            iface_fractional: self
                .aggregate_out_ifaces(bdd, Aggregator::Fractional, |_, f| in_scope(f.device)),
            rule_fractional: self
                .aggregate_rules(bdd, Aggregator::Fractional, |id, _| in_scope(id.device)),
            rule_weighted: self
                .aggregate_rules(bdd, Aggregator::Weighted, |id, _| in_scope(id.device)),
        }
    }

    /// Convenience: the four headline metrics for devices of one role,
    /// exactly the bars of Figure 6 (see [`RoleMetrics`]).
    pub fn role_metrics(&self, bdd: &mut Bdd, role: Role) -> RoleMetrics {
        let topo = self.net.topology();
        let RoleMetricsOverall {
            device_fractional,
            iface_fractional,
            rule_fractional,
            rule_weighted,
        } = self.figure6(bdd, |d| topo.device(d).role == role);
        RoleMetrics {
            role,
            device_fractional,
            iface_fractional,
            rule_fractional,
            rule_weighted,
        }
    }
}

/// `t / m`, or `None` when the match-set mass `m` is zero (nothing to
/// cover): Equation 2's ratio for a rule or any sum of rules. A
/// non-empty set has probability ≥ 2⁻²⁰¹, so `m > 0.0` is exactly "some
/// match set is non-empty".
pub(crate) fn ratio(m: f64, t: f64) -> Option<f64> {
    (m > 0.0).then(|| t / m)
}

/// Owned covered sets, as [`Analyzer::with_covered`] takes them from a
/// batch caller (an engine lends its own as `Cow::Borrowed`).
impl From<CoveredSets> for Cow<'_, CoveredSets> {
    fn from(covered: CoveredSets) -> Self {
        Cow::Owned(covered)
    }
}

/// The four headline metrics for one router role (one group of bars in
/// Figure 6).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoleMetrics {
    /// The router role the metrics are aggregated over.
    pub role: Role,
    /// Mean fractional device coverage (`None` if the role is absent).
    pub device_fractional: Option<f64>,
    /// Mean fractional out-interface coverage.
    pub iface_fractional: Option<f64>,
    /// Mean fractional rule coverage.
    pub rule_fractional: Option<f64>,
    /// Mean probability-weighted rule coverage.
    pub rule_weighted: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components;
    use crate::framework::{Combinator, Measure};
    use netmodel::addr::Prefix;
    use netmodel::header;
    use netmodel::rule::{RouteClass, Rule};
    use netmodel::topology::Topology;
    use netmodel::Location;

    fn build() -> (Network, DeviceId, DeviceId) {
        let mut t = Topology::new();
        let tor = t.add_device("tor", Role::Tor);
        let spine = t.add_device("spine", Role::Spine);
        let h = t.add_iface(tor, "hosts", IfaceKind::Host);
        let (ts, st) = t.add_link(tor, spine);
        let mut n = Network::new(t);
        n.add_rule(
            tor,
            Rule::forward(
                "10.0.0.0/24".parse().unwrap(),
                vec![h],
                RouteClass::HostSubnet,
            ),
        );
        n.add_rule(
            tor,
            Rule::forward(Prefix::v4_default(), vec![ts], RouteClass::StaticDefault),
        );
        n.add_rule(
            spine,
            Rule::forward(
                "10.0.0.0/24".parse().unwrap(),
                vec![st],
                RouteClass::HostSubnet,
            ),
        );
        n.finalize();
        (n, tor, spine)
    }

    #[test]
    fn empty_trace_means_zero_everywhere() {
        let (n, tor, _) = build();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let trace = CoverageTrace::new();
        let a = Analyzer::new(&n, &ms, &trace, &mut bdd);
        assert_eq!(a.device_coverage(&mut bdd, tor), Some(0.0));
        assert_eq!(
            a.aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true),
            Some(0.0)
        );
    }

    #[test]
    fn marking_everything_gives_full_coverage() {
        let (n, _, _) = build();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let mut trace = CoverageTrace::new();
        let full = bdd.full();
        for (d, _) in n.topology().devices() {
            trace.add_packets(&mut bdd, Location::device(d), full);
        }
        let a = Analyzer::new(&n, &ms, &trace, &mut bdd);
        for agg in [
            Aggregator::Mean,
            Aggregator::Weighted,
            Aggregator::Fractional,
        ] {
            assert_eq!(a.aggregate_rules(&mut bdd, agg, |_, _| true), Some(1.0));
            assert_eq!(a.aggregate_devices(&mut bdd, agg, |_, _| true), Some(1.0));
        }
    }

    #[test]
    fn monotonicity_adding_marks_never_decreases_metrics() {
        let (n, tor, _) = build();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let mut trace = CoverageTrace::new();
        let p25 = header::dst_in(&mut bdd, &"10.0.0.0/25".parse().unwrap());
        trace.add_packets(&mut bdd, Location::device(tor), p25);
        let before = {
            let a = Analyzer::new(&n, &ms, &trace, &mut bdd);
            (
                a.aggregate_rules(&mut bdd, Aggregator::Weighted, |_, _| true)
                    .unwrap(),
                a.aggregate_devices(&mut bdd, Aggregator::Fractional, |_, _| true)
                    .unwrap(),
            )
        };
        // Add more marks (a superset situation).
        let deflt = header::dst_in(&mut bdd, &"64.0.0.0/2".parse().unwrap());
        trace.add_packets(&mut bdd, Location::device(tor), deflt);
        let after = {
            let a = Analyzer::new(&n, &ms, &trace, &mut bdd);
            (
                a.aggregate_rules(&mut bdd, Aggregator::Weighted, |_, _| true)
                    .unwrap(),
                a.aggregate_devices(&mut bdd, Aggregator::Fractional, |_, _| true)
                    .unwrap(),
            )
        };
        assert!(after.0 >= before.0);
        assert!(after.1 >= before.1);
    }

    #[test]
    fn boundedness_all_metrics_in_unit_interval() {
        let (n, tor, spine) = build();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let mut trace = CoverageTrace::new();
        let p = header::dst_in(&mut bdd, &"10.0.0.0/26".parse().unwrap());
        trace.add_packets(&mut bdd, Location::device(tor), p);
        trace.add_rule(RuleId {
            device: spine,
            index: 0,
        });
        let a = Analyzer::new(&n, &ms, &trace, &mut bdd);
        for (id, _) in n.rules() {
            if let Some(c) = a.rule_coverage(&mut bdd, id) {
                assert!((0.0..=1.0).contains(&c));
            }
        }
        for (d, _) in n.topology().devices() {
            if let Some(c) = a.device_coverage(&mut bdd, d) {
                assert!((0.0..=1.0).contains(&c));
            }
        }
    }

    #[test]
    fn fused_device_coverage_agrees_with_framework_spec() {
        let (n, tor, _) = build();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let mut trace = CoverageTrace::new();
        let p = header::dst_in(&mut bdd, &"10.0.0.0/25".parse().unwrap());
        trace.add_packets(&mut bdd, Location::device(tor), p);
        trace.add_rule(RuleId {
            device: tor,
            index: 1,
        });
        let a = Analyzer::new(&n, &ms, &trace, &mut bdd);
        let fused = a.device_coverage(&mut bdd, tor).unwrap();
        let spec = components::device_spec(&n, &ms, tor);
        let generic = spec.eval(&mut bdd, &n, &ms, a.covered_sets()).unwrap();
        assert!(
            (fused - generic).abs() < 1e-12,
            "fused={fused} generic={generic}"
        );
    }

    #[test]
    fn fused_rule_coverage_agrees_with_framework_spec() {
        let (n, tor, _) = build();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let mut trace = CoverageTrace::new();
        let p = header::dst_in(&mut bdd, &"10.0.0.64/26".parse().unwrap());
        trace.add_packets(&mut bdd, Location::device(tor), p);
        let a = Analyzer::new(&n, &ms, &trace, &mut bdd);
        let id = RuleId {
            device: tor,
            index: 0,
        };
        let fused = a.rule_coverage(&mut bdd, id).unwrap();
        let spec = components::rule_spec(&ms, id);
        let generic = spec.eval(&mut bdd, &n, &ms, a.covered_sets()).unwrap();
        assert!((fused - generic).abs() < 1e-12);
    }

    #[test]
    fn out_iface_coverage_follows_its_rules() {
        let (n, tor, spine) = build();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let mut trace = CoverageTrace::new();
        trace.add_rule(RuleId {
            device: tor,
            index: 1,
        }); // default via uplink
        let a = Analyzer::new(&n, &ms, &trace, &mut bdd);
        // Uplink (iface 1 on tor): fully covered.
        let topo = n.topology();
        let uplink = topo
            .device_ifaces(tor)
            .find(|(_, f)| f.kind == IfaceKind::P2p)
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(a.out_iface_coverage(&mut bdd, uplink), Some(1.0));
        // Spine's downlink: no coverage.
        let down = topo
            .device_ifaces(spine)
            .find(|(_, f)| f.kind == IfaceKind::P2p)
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(a.out_iface_coverage(&mut bdd, down), Some(0.0));
    }

    #[test]
    fn a_rule_naming_its_out_interface_twice_counts_once() {
        let mut t = Topology::new();
        let tor = t.add_device("tor", Role::Tor);
        let spine = t.add_device("spine", Role::Spine);
        let h = t.add_iface(tor, "hosts", IfaceKind::Host);
        let (up, _) = t.add_link(tor, spine);
        let mut n = Network::new(t);
        for (dst, out) in [("10.0.0.0/24", vec![up, up]), ("10.1.0.0/24", vec![up])] {
            n.add_rule(
                tor,
                Rule::forward(dst.parse().unwrap(), out, RouteClass::Other),
            );
        }
        n.add_rule(
            tor,
            Rule::forward(Prefix::v4_default(), vec![h], RouteClass::StaticDefault),
        );
        n.finalize();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let mut trace = CoverageTrace::new();
        let p = header::dst_in(&mut bdd, &"10.0.0.0/25".parse().unwrap());
        trace.add_packets(&mut bdd, Location::device(tor), p);
        let a = Analyzer::new(&n, &ms, &trace, &mut bdd);
        // The uplink carries a half-covered /24 and an untested one: a
        // quarter, where counting the doubled rule twice would read a third.
        assert_eq!(a.out_iface_coverage(&mut bdd, up), Some(0.25));
        let mut items = Vec::new();
        for (iface, f) in n.topology().ifaces() {
            if f.kind == IfaceKind::Loopback {
                continue;
            }
            let spec = components::out_iface_spec(&n, &ms, iface);
            let generic = spec.eval(&mut bdd, &n, &ms, a.covered_sets());
            let fused = a.out_iface_coverage(&mut bdd, iface);
            assert_eq!(fused.is_some(), generic.is_some(), "{iface:?}");
            if let (Some(fused), Some(generic)) = (fused, generic) {
                assert!(
                    (fused - generic).abs() < 1e-12,
                    "{iface:?}: {fused} {generic}"
                );
            }
            let weight: f64 = spec.strings.iter().map(|g| bdd.probability(g.guard)).sum();
            items.push((generic.unwrap_or(0.0), weight));
        }
        for agg in [Aggregator::Mean, Aggregator::Weighted] {
            let fused = a.aggregate_out_ifaces(&mut bdd, agg, |_, _| true).unwrap();
            let generic = agg.fold(&items).unwrap();
            assert!(
                (fused - generic).abs() < 1e-12,
                "{agg:?}: {fused} {generic}"
            );
        }
    }

    #[test]
    fn in_iface_coverage_needs_ingress_marks() {
        let (n, tor, spine) = build();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let topo = n.topology();
        let spine_in = topo
            .device_ifaces(spine)
            .find(|(_, f)| f.kind == IfaceKind::P2p)
            .map(|(id, _)| id)
            .unwrap();
        // Device-level marks at spine: in-iface coverage stays 0.
        let mut t1 = CoverageTrace::new();
        let full = bdd.full();
        t1.add_packets(&mut bdd, Location::device(spine), full);
        let a1 = Analyzer::new(&n, &ms, &t1, &mut bdd);
        assert_eq!(a1.in_iface_coverage(&mut bdd, spine_in), Some(0.0));
        // Ingress-tagged marks: covered.
        let mut t2 = CoverageTrace::new();
        t2.add_packets(&mut bdd, Location::at(spine, spine_in), full);
        let a2 = Analyzer::new(&n, &ms, &t2, &mut bdd);
        assert_eq!(a2.in_iface_coverage(&mut bdd, spine_in), Some(1.0));
        let _ = tor;
    }

    #[test]
    fn aggregate_in_ifaces_tracks_ingress_marks() {
        let (n, tor, spine) = build();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let topo = n.topology();
        let spine_in = topo
            .device_ifaces(spine)
            .find(|(_, f)| f.kind == IfaceKind::P2p)
            .map(|(id, _)| id)
            .unwrap();
        // No ingress-tagged marks: all incoming coverage zero.
        let t0 = CoverageTrace::new();
        let a0 = Analyzer::new(&n, &ms, &t0, &mut bdd);
        assert_eq!(
            a0.aggregate_in_ifaces(&mut bdd, Aggregator::Fractional, |_, _| true),
            Some(0.0)
        );
        // Mark everything arriving on the spine's ingress: only that
        // iface becomes covered.
        let mut t1 = CoverageTrace::new();
        let full = bdd.full();
        t1.add_packets(&mut bdd, Location::at(spine, spine_in), full);
        let a1 = Analyzer::new(&n, &ms, &t1, &mut bdd);
        let frac = a1
            .aggregate_in_ifaces(&mut bdd, Aggregator::Fractional, |_, _| true)
            .unwrap();
        // Interfaces: tor hosts, tor uplink, spine downlink = 3; one hit.
        assert!((frac - 1.0 / 3.0).abs() < 1e-12, "got {frac}");
        assert_eq!(a1.in_iface_coverage(&mut bdd, spine_in), Some(1.0));
        let _ = tor;
    }

    #[test]
    fn role_metrics_group_by_role() {
        let (n, tor, _) = build();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let mut trace = CoverageTrace::new();
        let full = bdd.full();
        trace.add_packets(&mut bdd, Location::device(tor), full);
        let a = Analyzer::new(&n, &ms, &trace, &mut bdd);
        let tor_m = a.role_metrics(&mut bdd, Role::Tor);
        let spine_m = a.role_metrics(&mut bdd, Role::Spine);
        assert_eq!(tor_m.device_fractional, Some(1.0));
        assert_eq!(tor_m.rule_fractional, Some(1.0));
        assert_eq!(spine_m.device_fractional, Some(0.0));
        // No Border devices at all: vacuous.
        let none = a.role_metrics(&mut bdd, Role::Border);
        assert_eq!(none.device_fractional, None);
    }

    #[test]
    fn filters_zoom_in_on_subsets() {
        let (n, tor, spine) = build();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let mut trace = CoverageTrace::new();
        let full = bdd.full();
        trace.add_packets(&mut bdd, Location::device(tor), full);
        let a = Analyzer::new(&n, &ms, &trace, &mut bdd);
        // Filter to spine only: untested.
        let spine_only = a
            .aggregate_devices(&mut bdd, Aggregator::Fractional, |id, _| id == spine)
            .unwrap();
        assert_eq!(spine_only, 0.0);
        // Filter by class: default routes fully tested, host subnets too
        // (everything at tor was marked).
        let defaults = a
            .aggregate_rules(&mut bdd, Aggregator::Fractional, |_, r| {
                r.class == RouteClass::StaticDefault
            })
            .unwrap();
        assert_eq!(defaults, 1.0);
    }

    #[test]
    fn measure_and_combinator_are_reexported_for_custom_metrics() {
        // Smoke-test that the programmable layer is usable from outside.
        let spec = crate::framework::ComponentSpec {
            strings: vec![],
            measure: Measure::HitOrMiss,
            combinator: Combinator::Mean,
        };
        assert!(spec.strings.is_empty());
    }
}
