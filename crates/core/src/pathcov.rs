//! Path coverage over the whole path universe (§4.3.2, §5.2 step 3).
//!
//! The denominator of aggregate path metrics is the number of paths
//! *imputed by the forwarding state* (not the topology, which would admit
//! unrealistic zig-zags). Paths are enumerated depth-first and processed
//! on the fly; per path, Equation (3) runs against the covered sets, and
//! a subtree that recurs in the same state with the same covered
//! intersection is valued once ([`fold_paths`]).

use netbdd::{Bdd, Ref};
use netmodel::rule::Action;
use netmodel::{MatchSets, Network, RuleId};

use dataplane::paths::{fold_paths, ExploreOpts, PathStats, PathValue};
use dataplane::Forwarder;

use crate::analyzer::Analyzer;
use crate::covered::CoveredSets;
use crate::framework::path_survival;

/// Aggregate path-coverage results.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PathCoverage {
    /// Paths enumerated (the metric denominator).
    pub total_paths: u64,
    /// Paths with non-zero end-to-end coverage.
    pub covered_paths: u64,
    /// Mean per-path coverage (simple average).
    pub mean: f64,
    /// Guard-size-weighted mean per-path coverage.
    pub weighted: f64,
    /// Raw exploration statistics.
    pub stats: PathStats,
}

impl PathCoverage {
    /// Fractional path coverage: share of paths tested at all.
    pub fn fractional(&self) -> f64 {
        if self.total_paths == 0 {
            0.0
        } else {
            self.covered_paths as f64 / self.total_paths as f64
        }
    }
}

/// Reconstruct a path's guard `P` — the packets at the path's entry that
/// traverse the whole path — from the final packet set.
///
/// For one-to-one (or absent) transformations the set of *headers* is
/// unchanged along the path, so the guard equals the final set. When a
/// path contains rewrites, walk backwards: take pre-images through each
/// rewrite and re-intersect with each hop's match set (§5.2: *"we compute
/// the guard set by reversing the forwarding operations"*).
pub fn path_guard(
    bdd: &mut Bdd,
    net: &Network,
    ms: &MatchSets,
    rules: &[RuleId],
    final_set: Ref,
) -> Ref {
    let any_rewrite = rules
        .iter()
        .any(|&r| matches!(net.rule(r).action, Action::Rewrite(_, _)));
    if !any_rewrite {
        return final_set;
    }
    let mut g = final_set;
    for &rid in rules.iter().rev() {
        if let Action::Rewrite(rw, _) = &net.rule(rid).action {
            g = rw.preimage(bdd, g);
        }
        let m = ms.get(rid);
        g = bdd.and(g, m);
    }
    g
}

/// Equation 3 as [`fold_paths`] needs it, restricted to the packets
/// `within`.
///
/// A rewrite-free path's guard is its final set `f`, which lies inside
/// every `M[rᵢ]` of the path, so Equation 3's ratios fall along the path
/// and its minimum is the last one, `P(f ∧ ⋂ T[rᵢ]) / P(f)`. The carry
/// is that intersection, built one edge at a time as `K ∧ T[r] ∧
/// packets`. A path with a rewrite keeps [`path_guard`] and
/// [`path_survival`] on its rule stack.
pub(crate) struct Survival<'a> {
    net: &'a Network,
    ms: &'a MatchSets,
    covered: &'a CoveredSets,
    within: Ref,
}

impl<'a> Survival<'a> {
    /// Equation 3 against `analyzer`'s covered sets, with guards cut to
    /// `within`.
    pub(crate) fn new(analyzer: &'a Analyzer<'_>, within: Ref) -> Survival<'a> {
        Survival {
            net: analyzer.network(),
            ms: analyzer.match_sets(),
            covered: analyzer.covered_sets(),
            within,
        }
    }
}

impl PathValue for Survival<'_> {
    fn edge(&mut self, bdd: &mut Bdd, carry: Ref, rule: RuleId, packets: Ref) -> Ref {
        let kept = bdd.and(carry, self.covered.get(rule));
        bdd.and(kept, packets)
    }

    fn leaf(&mut self, bdd: &mut Bdd, carry: Ref, final_set: Ref) -> Option<(f64, f64)> {
        let w = bdd.probability(final_set);
        (w != 0.0).then(|| ((bdd.probability(carry) / w).clamp(0.0, 1.0), w))
    }

    fn rewritten(&mut self, bdd: &mut Bdd, rules: &[RuleId], final_set: Ref) -> Option<(f64, f64)> {
        let guard = path_guard(bdd, self.net, self.ms, rules, final_set);
        let guard = bdd.and(guard, self.within);
        if guard.is_false() {
            return None;
        }
        let m = path_survival(bdd, self.net, self.ms, self.covered, guard, rules);
        Some((m, bdd.probability(guard)))
    }
}

/// Enumerate the path universe from `starts` and measure coverage of
/// every path (Equation 3 per path, each recurring subtree folded once).
pub fn path_coverage(
    bdd: &mut Bdd,
    analyzer: &Analyzer<'_>,
    starts: &[(netmodel::Location, Ref)],
    opts: &ExploreOpts,
) -> PathCoverage {
    let fwd = Forwarder::new(analyzer.network(), analyzer.match_sets());
    let mut value = Survival::new(analyzer, Ref::TRUE);
    let t = fold_paths(bdd, &fwd, starts, opts, &mut value);
    PathCoverage {
        total_paths: t.valued,
        covered_paths: t.hit,
        mean: if t.valued == 0 {
            0.0
        } else {
            t.sum / t.valued as f64
        },
        weighted: if t.wtotal == 0.0 {
            0.0
        } else {
            t.wsum / t.wtotal
        },
        stats: t.stats,
    }
}

/// A compact signature of the path universe, comparable across state
/// snapshots.
///
/// §5.2 notes the risk of state bugs silently changing the path-count
/// denominator, and that Yardstick "can guard against this risk by
/// flagging to the user when the size of the path universe changes
/// dramatically relative to prior state snapshots". This digest carries
/// the counts needed for that check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathUniverseDigest {
    /// Total enumerated paths.
    pub paths: u64,
    /// Paths ending in a delivery.
    pub delivered: u64,
    /// Paths leaving via an external interface.
    pub exited: u64,
    /// Paths ending at an explicit drop.
    pub dropped: u64,
    /// Paths whose final device matched no rule.
    pub unmatched: u64,
}

impl From<PathStats> for PathUniverseDigest {
    fn from(s: PathStats) -> Self {
        PathUniverseDigest {
            paths: s.paths,
            delivered: s.delivered,
            exited: s.exited,
            dropped: s.dropped,
            unmatched: s.unmatched,
        }
    }
}

impl PathUniverseDigest {
    /// Relative drift between two snapshots in `[0, 1]`: the largest
    /// relative change across all terminal-class counts. `0` means the
    /// universes have identical shape; values near `1` mean a terminal
    /// class (e.g. drops) appeared or vanished wholesale.
    pub fn drift(&self, other: &PathUniverseDigest) -> f64 {
        fn rel(a: u64, b: u64) -> f64 {
            let (a, b) = (a as f64, b as f64);
            let denom = a.max(b);
            if denom == 0.0 {
                0.0
            } else {
                (a - b).abs() / denom
            }
        }
        rel(self.paths, other.paths)
            .max(rel(self.delivered, other.delivered))
            .max(rel(self.exited, other.exited))
            .max(rel(self.dropped, other.dropped))
            .max(rel(self.unmatched, other.unmatched))
    }

    /// Whether the drift against a prior snapshot exceeds `threshold`
    /// (a sensible default is 0.1: absent operational changes, the
    /// universe "is not expected to change significantly day-to-day").
    pub fn drifted(&self, prior: &PathUniverseDigest, threshold: f64) -> bool {
        self.drift(prior) > threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CoverageTrace;
    use dataplane::paths::edge_starts;
    use netmodel::addr::Prefix;
    use netmodel::header;
    use netmodel::rule::{RouteClass, Rule};
    use netmodel::topology::{DeviceId, IfaceKind, Role, Topology};
    use netmodel::Location;

    /// tor1 -- spine -- tor2 with a /24 per ToR.
    fn chain() -> (Network, Vec<DeviceId>) {
        let mut t = Topology::new();
        let tor1 = t.add_device("tor1", Role::Tor);
        let spine = t.add_device("spine", Role::Spine);
        let tor2 = t.add_device("tor2", Role::Tor);
        let h1 = t.add_iface(tor1, "hosts", IfaceKind::Host);
        let h2 = t.add_iface(tor2, "hosts", IfaceKind::Host);
        let (t1s, st1) = t.add_link(tor1, spine);
        let (t2s, st2) = t.add_link(tor2, spine);
        let p1: Prefix = "10.0.1.0/24".parse().unwrap();
        let p2: Prefix = "10.0.2.0/24".parse().unwrap();
        let mut net = Network::new(t);
        net.add_rule(tor1, Rule::forward(p1, vec![h1], RouteClass::HostSubnet));
        net.add_rule(tor1, Rule::forward(p2, vec![t1s], RouteClass::HostSubnet));
        net.add_rule(spine, Rule::forward(p1, vec![st1], RouteClass::HostSubnet));
        net.add_rule(spine, Rule::forward(p2, vec![st2], RouteClass::HostSubnet));
        net.add_rule(tor2, Rule::forward(p2, vec![h2], RouteClass::HostSubnet));
        net.add_rule(tor2, Rule::forward(p1, vec![t2s], RouteClass::HostSubnet));
        net.finalize();
        (net, vec![tor1, spine, tor2])
    }

    #[test]
    fn untested_network_has_zero_path_coverage() {
        let (net, _) = chain();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let trace = CoverageTrace::new();
        let a = Analyzer::new(&net, &ms, &trace, &mut bdd);
        let fwd = Forwarder::new(&net, &ms);
        let starts = edge_starts(&mut bdd, &fwd);
        let pc = path_coverage(&mut bdd, &a, &starts, &ExploreOpts::default());
        assert!(pc.total_paths > 0);
        assert_eq!(pc.covered_paths, 0);
        assert_eq!(pc.fractional(), 0.0);
        assert_eq!(pc.mean, 0.0);
    }

    #[test]
    fn fully_marked_network_has_full_path_coverage() {
        let (net, devs) = chain();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let mut trace = CoverageTrace::new();
        let full = bdd.full();
        for &d in &devs {
            trace.add_packets(&mut bdd, Location::device(d), full);
        }
        let a = Analyzer::new(&net, &ms, &trace, &mut bdd);
        let fwd = Forwarder::new(&net, &ms);
        let starts = edge_starts(&mut bdd, &fwd);
        let pc = path_coverage(&mut bdd, &a, &starts, &ExploreOpts::default());
        assert_eq!(pc.fractional(), 1.0);
        assert!((pc.mean - 1.0).abs() < 1e-12);
        assert!((pc.weighted - 1.0).abs() < 1e-12);
    }

    #[test]
    fn universe_counts_both_directions() {
        let (net, _) = chain();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let trace = CoverageTrace::new();
        let a = Analyzer::new(&net, &ms, &trace, &mut bdd);
        let fwd = Forwarder::new(&net, &ms);
        let starts = edge_starts(&mut bdd, &fwd);
        let pc = path_coverage(&mut bdd, &a, &starts, &ExploreOpts::default());
        // From h1: p1 delivered locally (1 rule) + p2 across (3 rules).
        // From h2: symmetric. Total 4 paths.
        assert_eq!(pc.total_paths, 4);
    }

    #[test]
    fn partially_tested_path_counts_fractionally() {
        let (net, devs) = chain();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let mut trace = CoverageTrace::new();
        // End-to-end mark of half of p2 along the tor1→tor2 path.
        let half = header::dst_in(&mut bdd, &"10.0.2.0/25".parse().unwrap());
        for &d in &devs {
            trace.add_packets(&mut bdd, Location::device(d), half);
        }
        let a = Analyzer::new(&net, &ms, &trace, &mut bdd);
        let fwd = Forwarder::new(&net, &ms);
        let starts = edge_starts(&mut bdd, &fwd);
        let pc = path_coverage(&mut bdd, &a, &starts, &ExploreOpts::default());
        // Covered: the tor1→tor2 three-hop path at 1/2, and the tor2-local
        // p2 delivery at 1/2. The two p1 paths are untouched.
        assert_eq!(pc.total_paths, 4);
        assert_eq!(pc.covered_paths, 2);
        assert!((pc.mean - (0.5 + 0.5) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn path_guard_is_identity_without_rewrites() {
        let (net, _) = chain();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let p2 = header::dst_in(&mut bdd, &"10.0.2.0/24".parse().unwrap());
        let rules = vec![
            RuleId {
                device: DeviceId(0),
                index: 1,
            },
            RuleId {
                device: DeviceId(1),
                index: 1,
            },
        ];
        assert_eq!(path_guard(&mut bdd, &net, &ms, &rules, p2), p2);
    }

    #[test]
    fn path_guard_reverses_rewrites() {
        use netmodel::{HeaderField, MatchFields, Rewrite};
        let mut t = Topology::new();
        let a = t.add_device("a", Role::Tor);
        let h = t.add_iface(a, "h", IfaceKind::Host);
        let target = netmodel::addr::ipv4(192, 168, 0, 1);
        let mut net = Network::new(t);
        net.add_rule(
            a,
            Rule {
                matches: MatchFields::dst_prefix("10.0.0.0/24".parse().unwrap()),
                action: netmodel::Action::Rewrite(
                    Rewrite {
                        set: vec![(HeaderField::Dst4, target as u128)],
                    },
                    vec![h],
                ),
                class: RouteClass::Other,
            },
        );
        net.finalize();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let rid = RuleId {
            device: a,
            index: 0,
        };
        // Final set after the rewrite: v4 ∧ dst=target.
        let v4 = header::family_is(&mut bdd, netmodel::Family::V4);
        let t_dst = header::dst_in(&mut bdd, &Prefix::host_v4(target));
        let final_set = bdd.and(v4, t_dst);
        let g = path_guard(&mut bdd, &net, &ms, &[rid], final_set);
        // Guard = the whole /24 (every packet maps onto target).
        assert_eq!(g, ms.get(rid));
    }
}

#[cfg(test)]
mod digest_tests {
    use super::*;
    use crate::analyzer::Analyzer;
    use crate::trace::CoverageTrace;
    use dataplane::paths::edge_starts;
    use dataplane::Forwarder;
    use netbdd::Bdd;
    use netmodel::MatchSets;
    use topogen::{fattree, FatTreeParams};

    fn digest_of(net: &netmodel::Network, bdd: &mut Bdd) -> PathUniverseDigest {
        let ms = MatchSets::compute(net, bdd);
        let trace = CoverageTrace::new();
        let analyzer = Analyzer::new(net, &ms, &trace, bdd);
        let fwd = Forwarder::new(net, &ms);
        let starts = edge_starts(bdd, &fwd);
        let pc = path_coverage(bdd, &analyzer, &starts, &dataplane::ExploreOpts::default());
        PathUniverseDigest::from(pc.stats)
    }

    #[test]
    fn identical_snapshots_have_zero_drift() {
        let ft = fattree(FatTreeParams::paper(4));
        let mut bdd = Bdd::new();
        let d1 = digest_of(&ft.net, &mut bdd);
        let d2 = digest_of(&ft.net, &mut bdd);
        assert_eq!(d1, d2);
        assert_eq!(d1.drift(&d2), 0.0);
        assert!(!d1.drifted(&d2, 0.1));
    }

    #[test]
    fn null_route_shows_up_as_drift() {
        let ft = fattree(FatTreeParams::paper(4));
        let mut bdd = Bdd::new();
        let before = digest_of(&ft.net, &mut bdd);
        let mut broken = ft.net.clone();
        let (_, victim, _) = ft.tors[3];
        topogen::faults::null_route(&mut broken, ft.cores[0], victim);
        let after = digest_of(&broken, &mut bdd);
        // Drops appear where there were none: drift saturates.
        assert_eq!(after.drift(&before), 1.0);
        assert!(after.drifted(&before, 0.1));
    }

    #[test]
    fn drift_is_symmetric_and_bounded() {
        let a = PathUniverseDigest {
            paths: 100,
            delivered: 90,
            exited: 10,
            ..Default::default()
        };
        let b = PathUniverseDigest {
            paths: 120,
            delivered: 95,
            exited: 25,
            ..Default::default()
        };
        assert_eq!(a.drift(&b), b.drift(&a));
        assert!((0.0..=1.0).contains(&a.drift(&b)));
        assert_eq!(a.drift(&a), 0.0);
    }
}
