//! Dependency specifications for the common network components (§4.3.2):
//! rules, devices and outgoing interfaces. Path and flow coverage are
//! folded over the forwarding graph instead ([`crate::pathcov`],
//! [`crate::flowcov`]).
//!
//! Each function builds the `(κ, µ, G)` triple for one component; the
//! [`crate::Analyzer`] evaluates them (and provides the faster fused
//! implementations used by the standard reports, which are tested to
//! agree with these specifications).

use netmodel::topology::DeviceId;
use netmodel::{IfaceId, MatchSets, Network, RuleId};

use crate::framework::{Combinator, ComponentSpec, GuardedString, Measure};

/// Rule coverage: `G = {M[r] ▷ r}`, µ = fraction of the match set
/// covered, κ picks the only element.
pub fn rule_spec(ms: &MatchSets, rule: RuleId) -> ComponentSpec {
    ComponentSpec {
        strings: vec![GuardedString::rule(ms.get(rule), rule)],
        measure: Measure::Fraction,
        combinator: Combinator::Only,
    }
}

/// Device coverage: one guarded string per rule, weighted-average
/// combinator — the fraction of the device's total handled packet space
/// that has been tested.
pub fn device_spec(net: &Network, ms: &MatchSets, device: DeviceId) -> ComponentSpec {
    let strings = net
        .device_rule_ids(device)
        .map(|id| GuardedString::rule(ms.get(id), id))
        .collect();
    ComponentSpec {
        strings,
        measure: Measure::Fraction,
        combinator: Combinator::WeightedByGuard,
    }
}

/// Outgoing-interface coverage: like device coverage but restricted to
/// the rules that forward packets out of `iface`.
pub fn out_iface_spec(net: &Network, ms: &MatchSets, iface: IfaceId) -> ComponentSpec {
    let strings = net
        .rules_out_iface(iface)
        .into_iter()
        .map(|id| GuardedString::rule(ms.get(id), id))
        .collect();
    ComponentSpec {
        strings,
        measure: Measure::Fraction,
        combinator: Combinator::WeightedByGuard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covered::CoveredSets;
    use crate::trace::CoverageTrace;
    use netbdd::Bdd;
    use netmodel::addr::Prefix;
    use netmodel::header;
    use netmodel::rule::{RouteClass, Rule};
    use netmodel::topology::{IfaceKind, Role, Topology};
    use netmodel::Location;

    fn two_rule_net() -> (Network, DeviceId, IfaceId, IfaceId) {
        let mut t = Topology::new();
        let d = t.add_device("r", Role::Tor);
        let h = t.add_iface(d, "hosts", IfaceKind::Host);
        let up = t.add_iface(d, "up", IfaceKind::External);
        let mut n = Network::new(t);
        n.add_rule(
            d,
            Rule::forward(
                "10.0.0.0/24".parse().unwrap(),
                vec![h],
                RouteClass::HostSubnet,
            ),
        );
        n.add_rule(
            d,
            Rule::forward(Prefix::v4_default(), vec![up], RouteClass::StaticDefault),
        );
        n.finalize();
        (n, d, h, up)
    }

    #[test]
    fn device_spec_weights_by_match_set_size() {
        let (n, d, _, _) = two_rule_net();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        // Cover only the /24 (tiny next to the default's residual space).
        let mut trace = CoverageTrace::new();
        let p24 = header::dst_in(&mut bdd, &"10.0.0.0/24".parse().unwrap());
        trace.add_packets(&mut bdd, Location::device(d), p24);
        let cov = CoveredSets::compute(&n, &ms, &trace, &mut bdd);
        let got = device_spec(&n, &ms, d)
            .eval(&mut bdd, &n, &ms, &cov)
            .unwrap();
        // Weighted coverage ≈ |/24| / |v4 plane| — essentially zero.
        assert!(got > 0.0 && got < 1e-4, "got {got}");
        // Whereas covering the default dominates.
        let mut trace2 = CoverageTrace::new();
        trace2.add_rule(RuleId {
            device: d,
            index: 1,
        });
        let cov2 = CoveredSets::compute(&n, &ms, &trace2, &mut bdd);
        let got2 = device_spec(&n, &ms, d)
            .eval(&mut bdd, &n, &ms, &cov2)
            .unwrap();
        assert!(got2 > 0.99, "got {got2}");
    }

    #[test]
    fn out_iface_spec_sees_only_its_rules() {
        let (n, d, h, up) = two_rule_net();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let mut trace = CoverageTrace::new();
        trace.add_rule(RuleId {
            device: d,
            index: 1,
        }); // the default route
        let cov = CoveredSets::compute(&n, &ms, &trace, &mut bdd);
        // The uplink iface (default route) is fully covered.
        let up_cov = out_iface_spec(&n, &ms, up)
            .eval(&mut bdd, &n, &ms, &cov)
            .unwrap();
        assert_eq!(up_cov, 1.0);
        // The host iface (the /24) is untouched.
        let h_cov = out_iface_spec(&n, &ms, h)
            .eval(&mut bdd, &n, &ms, &cov)
            .unwrap();
        assert_eq!(h_cov, 0.0);
    }

    #[test]
    fn iface_with_no_rules_is_vacuous() {
        let (n, _, _, _) = two_rule_net();
        let mut t2 = Topology::new();
        let d2 = t2.add_device("r2", Role::Tor);
        let lonely = t2.add_iface(d2, "unused", IfaceKind::Host);
        let mut n2 = Network::new(t2);
        n2.finalize();
        let mut bdd = Bdd::new();
        let ms2 = MatchSets::compute(&n2, &mut bdd);
        let trace = CoverageTrace::new();
        let cov2 = CoveredSets::compute(&n2, &ms2, &trace, &mut bdd);
        assert_eq!(
            out_iface_spec(&n2, &ms2, lonely).eval(&mut bdd, &n2, &ms2, &cov2),
            None
        );
        let _ = n;
    }

    #[test]
    fn rule_spec_matches_direct_ratio() {
        let (n, d, _, _) = two_rule_net();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let mut trace = CoverageTrace::new();
        let p25 = header::dst_in(&mut bdd, &"10.0.0.128/25".parse().unwrap());
        trace.add_packets(&mut bdd, Location::device(d), p25);
        let cov = CoveredSets::compute(&n, &ms, &trace, &mut bdd);
        let id = RuleId {
            device: d,
            index: 0,
        };
        let got = rule_spec(&ms, id).eval(&mut bdd, &n, &ms, &cov).unwrap();
        assert!((got - 0.5).abs() < 1e-12);
    }
}
