//! Flow coverage (§4.3.2).
//!
//! A flow is a source location plus a header space. Injected into the
//! network it traverses one or more paths (multi-path routing, or
//! different headers routed differently); the flow's dependency
//! specification has one guarded string per path, each guarded by the
//! flow packets that take that path, combined by weighted average. A
//! flow coverage of 75% means state corresponding to 75% of the flow's
//! packet stream has been tested end-to-end.

use netbdd::{Bdd, Ref};
use netmodel::Location;

use dataplane::paths::{fold_paths, ExploreOpts};
use dataplane::Forwarder;

use crate::analyzer::Analyzer;
use crate::pathcov::Survival;

/// A flow: where its packets enter and which headers belong to it.
#[derive(Clone, Copy, Debug)]
pub struct Flow {
    /// Where the flow's packets enter the network.
    pub start: Location,
    /// The header space belonging to the flow.
    pub headers: Ref,
}

/// Per-flow coverage result.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FlowCoverage {
    /// Number of distinct paths the flow takes.
    pub paths: u64,
    /// Weighted-average end-to-end coverage across those paths.
    pub coverage: f64,
    /// Share of the flow's packet space that matched *no* rule at the
    /// source (unroutable portion; excluded from `coverage`).
    pub unrouted_weight: f64,
}

/// Compute coverage of one flow.
///
/// Returns `None` when the flow is empty or none of its packets match
/// any rule (there is no state to test).
pub fn flow_coverage(
    bdd: &mut Bdd,
    analyzer: &Analyzer<'_>,
    flow: Flow,
    opts: &ExploreOpts,
) -> Option<FlowCoverage> {
    if flow.headers.is_false() {
        return None;
    }
    let fwd = Forwarder::new(analyzer.network(), analyzer.match_sets());
    let flow_weight = bdd.probability(flow.headers);
    let opts = ExploreOpts {
        emit_empty_paths: true,
        ..opts.clone()
    };
    let mut value = Survival::new(analyzer, flow.headers);
    let t = fold_paths(bdd, &fwd, &[(flow.start, flow.headers)], &opts, &mut value);

    if t.wtotal == 0.0 {
        return None;
    }
    Some(FlowCoverage {
        paths: t.valued,
        coverage: t.wsum / t.wtotal,
        unrouted_weight: if flow_weight == 0.0 {
            0.0
        } else {
            t.unrouted / flow_weight
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CoverageTrace;
    use netmodel::addr::Prefix;
    use netmodel::header;
    use netmodel::rule::{RouteClass, Rule};
    use netmodel::topology::{DeviceId, IfaceKind, Role, Topology};
    use netmodel::{MatchSets, Network};

    /// Diamond with ECMP: a → {b,c} → d.
    fn diamond() -> (Network, DeviceId, Vec<DeviceId>) {
        let mut t = Topology::new();
        let a = t.add_device("a", Role::Tor);
        let b = t.add_device("b", Role::Spine);
        let c = t.add_device("c", Role::Spine);
        let d = t.add_device("d", Role::Tor);
        let _in = t.add_iface(a, "in", IfaceKind::Host);
        let out = t.add_iface(d, "out", IfaceKind::Host);
        let (ab, _) = t.add_link(a, b);
        let (ac, _) = t.add_link(a, c);
        let (bd, _) = t.add_link(b, d);
        let (cd, _) = t.add_link(c, d);
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        let mut net = Network::new(t);
        net.add_rule(a, Rule::forward(p, vec![ab, ac], RouteClass::HostSubnet));
        net.add_rule(b, Rule::forward(p, vec![bd], RouteClass::HostSubnet));
        net.add_rule(c, Rule::forward(p, vec![cd], RouteClass::HostSubnet));
        net.add_rule(d, Rule::forward(p, vec![out], RouteClass::HostSubnet));
        net.finalize();
        (net, a, vec![a, b, c, d])
    }

    fn flow_of(bdd: &mut Bdd, a: DeviceId) -> Flow {
        let headers = header::dst_in(bdd, &"10.0.0.0/24".parse().unwrap());
        Flow {
            start: Location::device(a),
            headers,
        }
    }

    #[test]
    fn untested_flow_scores_zero() {
        let (net, a, _) = diamond();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let trace = CoverageTrace::new();
        let an = Analyzer::new(&net, &ms, &trace, &mut bdd);
        let flow = flow_of(&mut bdd, a);
        let fc = flow_coverage(&mut bdd, &an, flow, &ExploreOpts::default()).unwrap();
        assert_eq!(fc.paths, 2); // two ECMP paths
        assert_eq!(fc.coverage, 0.0);
    }

    #[test]
    fn fully_tested_flow_scores_one() {
        let (net, a, devs) = diamond();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let mut trace = CoverageTrace::new();
        let full = bdd.full();
        for &d in &devs {
            trace.add_packets(&mut bdd, Location::device(d), full);
        }
        let an = Analyzer::new(&net, &ms, &trace, &mut bdd);
        let flow = flow_of(&mut bdd, a);
        let fc = flow_coverage(&mut bdd, &an, flow, &ExploreOpts::default()).unwrap();
        assert!((fc.coverage - 1.0).abs() < 1e-12);
        assert_eq!(fc.unrouted_weight, 0.0);
    }

    #[test]
    fn covering_one_ecmp_branch_gives_full_weighted_coverage_of_that_path() {
        let (net, a, devs) = diamond();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let mut trace = CoverageTrace::new();
        // Mark everything except device c: the a→b→d path is tested, the
        // a→c→d path is not.
        let full = bdd.full();
        for &d in &devs {
            if net.topology().device(d).name != "c" {
                trace.add_packets(&mut bdd, Location::device(d), full);
            }
        }
        let an = Analyzer::new(&net, &ms, &trace, &mut bdd);
        let flow = flow_of(&mut bdd, a);
        let fc = flow_coverage(&mut bdd, &an, flow, &ExploreOpts::default()).unwrap();
        // Both ECMP paths carry the same guard (the whole flow), so the
        // weighted average is (1 + 0) / 2.
        assert!((fc.coverage - 0.5).abs() < 1e-12, "got {}", fc.coverage);
    }

    #[test]
    fn unrouted_portion_is_reported() {
        let (net, a, devs) = diamond();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let mut trace = CoverageTrace::new();
        let full = bdd.full();
        for &d in &devs {
            trace.add_packets(&mut bdd, Location::device(d), full);
        }
        let an = Analyzer::new(&net, &ms, &trace, &mut bdd);
        // Flow: the /23 containing the routed /24 plus an unrouted /24.
        let headers = header::dst_in(&mut bdd, &"10.0.0.0/23".parse().unwrap());
        let flow = Flow {
            start: Location::device(a),
            headers,
        };
        let fc = flow_coverage(&mut bdd, &an, flow, &ExploreOpts::default()).unwrap();
        assert!((fc.unrouted_weight - 0.5).abs() < 1e-12);
        assert!((fc.coverage - 1.0).abs() < 1e-12); // the routed half is fully tested
    }

    #[test]
    fn empty_flow_is_none() {
        let (net, a, _) = diamond();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let trace = CoverageTrace::new();
        let an = Analyzer::new(&net, &ms, &trace, &mut bdd);
        let flow = Flow {
            start: Location::device(a),
            headers: netbdd::Ref::FALSE,
        };
        assert!(flow_coverage(&mut bdd, &an, flow, &ExploreOpts::default()).is_none());
        // A flow whose packets match nothing is also None.
        let junk = header::dst_in(&mut bdd, &"99.0.0.0/8".parse().unwrap());
        let flow2 = Flow {
            start: Location::device(a),
            headers: junk,
        };
        assert!(flow_coverage(&mut bdd, &an, flow2, &ExploreOpts::default()).is_none());
    }
}
