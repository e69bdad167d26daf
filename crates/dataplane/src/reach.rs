//! End-to-end symbolic reachability by fixpoint propagation.
//!
//! [`reach`] injects a packet set at a start location and propagates it
//! until no new packets arrive anywhere. Packet sets arriving at the same
//! device over different hops are merged, so the propagation cost is
//! bounded by network size times the number of set-changing rounds rather
//! than by the (potentially astronomical) number of paths.
//!
//! The result records, per hop, the located packet sets that an end-to-end
//! behavioural test reports via `markPacket` (§5.1: *"a separate call is
//! made for each hop in the network with the packet set at that hop"*).

use std::collections::HashMap;

use netbdd::{Bdd, Ref};
use netmodel::{IfaceId, LocatedPacketSet, Location, MatchSets, Network, RuleId};

use crate::forward::{Forwarder, Outcome, StepMemo};

/// Result of a symbolic reachability query.
#[derive(Clone, Debug, Default)]
pub struct ReachResult {
    /// Every located packet set observed during propagation, keyed by
    /// (device, ingress interface): the per-hop trace for coverage.
    pub per_hop: LocatedPacketSet,
    /// Packets delivered out host-facing interfaces.
    pub delivered: Vec<(IfaceId, Ref)>,
    /// Packets that left through external interfaces.
    pub exited: Vec<(IfaceId, Ref)>,
    /// Packets dropped by explicit drop rules, with the dropping rule.
    pub dropped: Vec<(RuleId, Ref)>,
    /// Packets that matched no rule somewhere, keyed by the device.
    pub unmatched: Vec<(Location, Ref)>,
}

impl ReachResult {
    /// Union of all packets delivered out a specific interface.
    pub fn delivered_at(&self, bdd: &mut Bdd, iface: IfaceId) -> Ref {
        bdd.or_all(
            self.delivered
                .iter()
                .filter(|&&(i, _)| i == iface)
                .map(|&(_, p)| p),
        )
    }

    /// Union of everything that exited the network.
    pub fn exited_union(&self, bdd: &mut Bdd) -> Ref {
        bdd.or_all(self.exited.iter().map(|&(_, p)| p))
    }

    /// Rules exercised, with the packet subsets that exercised them:
    /// for every rule at a visited location whose ingress it accepts,
    /// the non-empty `per_hop ∧ M[r]`. Derived on demand — propagation
    /// itself splits by action class, not by rule.
    pub fn exercised(&self, bdd: &mut Bdd, net: &Network, ms: &MatchSets) -> Vec<(RuleId, Ref)> {
        let mut out = Vec::new();
        for (loc, set) in self.per_hop.iter() {
            for id in net.device_rule_ids(loc.device) {
                let scope = net.rule(id).matches.in_iface;
                if scope.is_some() && scope != loc.iface {
                    continue;
                }
                let hit = bdd.and(set, ms.get(id));
                if !hit.is_false() {
                    out.push((id, hit));
                }
            }
        }
        out
    }
}

/// Propagate `packets` from `start` to fixpoint.
///
/// `max_rounds` bounds propagation in the presence of forwarding loops;
/// each round processes one frontier of newly arrived packets. A correct
/// hierarchical network converges in diameter-many rounds.
///
/// Each arriving set is split by action class, and a split is computed
/// once per (device, ingress scope, packet set): a fabric device that
/// receives the same packets on several ports is stepped once and the
/// outcomes are replayed for the other ports.
pub fn reach(
    bdd: &mut Bdd,
    fwd: &Forwarder<'_>,
    start: Location,
    packets: Ref,
    max_rounds: usize,
) -> ReachResult {
    let _span = netobs::span!("dataplane_reach");
    let mut result = ReachResult::default();
    // Accumulated set ever seen at each location; the frontier carries
    // only the delta, which guarantees termination even with loops (sets
    // grow monotonically and the lattice is finite).
    let mut seen: HashMap<Location, Ref> = HashMap::new();
    let mut steps = StepMemo::new(fwd, Forwarder::step_classes);
    let mut frontier: Vec<(Location, Ref)> = vec![(start, packets)];

    for _round in 0..max_rounds {
        if frontier.is_empty() {
            break;
        }
        // BTreeMap keeps frontier order deterministic run-to-run.
        let mut next: std::collections::BTreeMap<Location, Ref> = std::collections::BTreeMap::new();
        for (loc, set) in frontier.drain(..) {
            let already = seen.entry(loc).or_insert(Ref::FALSE);
            let fresh = bdd.diff(set, *already);
            if fresh.is_false() {
                continue;
            }
            *already = bdd.or(*already, fresh);
            result.per_hop.add(bdd, loc, fresh);

            let step = steps.step(bdd, loc, fresh);
            if !step.unmatched.is_false() {
                result.unmatched.push((loc, step.unmatched));
            }
            for t in &step.transitions {
                for o in &t.outcomes {
                    match *o {
                        Outcome::Hop {
                            next: nloc,
                            packets,
                        } => {
                            let e = next.entry(nloc).or_insert(Ref::FALSE);
                            *e = bdd.or(*e, packets);
                        }
                        Outcome::Delivered { iface, packets } => {
                            result.delivered.push((iface, packets));
                        }
                        Outcome::Exited { iface, packets } => {
                            result.exited.push((iface, packets));
                        }
                        Outcome::Dropped { packets } => {
                            result.dropped.push((t.rule, packets));
                        }
                    }
                }
            }
        }
        frontier.extend(next);
    }
    steps.publish();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::addr::{ipv4, Prefix};
    use netmodel::header::{self, Packet};
    use netmodel::rule::{RouteClass, Rule};
    use netmodel::topology::{IfaceKind, Role, Topology};
    use netmodel::{MatchSets, Network};

    /// tor1 -- spine -- tor2, each ToR with a host port and a /24.
    fn chain() -> (Network, Vec<netmodel::DeviceId>, Vec<IfaceId>) {
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
        // tor1: own prefix to hosts, everything else up.
        net.add_rule(tor1, Rule::forward(p1, vec![h1], RouteClass::HostSubnet));
        net.add_rule(
            tor1,
            Rule::forward(Prefix::v4_default(), vec![t1s], RouteClass::StaticDefault),
        );
        // spine: both prefixes down.
        net.add_rule(spine, Rule::forward(p1, vec![st1], RouteClass::HostSubnet));
        net.add_rule(spine, Rule::forward(p2, vec![st2], RouteClass::HostSubnet));
        // tor2: own prefix to hosts, everything else up.
        net.add_rule(tor2, Rule::forward(p2, vec![h2], RouteClass::HostSubnet));
        net.add_rule(
            tor2,
            Rule::forward(Prefix::v4_default(), vec![t2s], RouteClass::StaticDefault),
        );
        net.finalize();
        (
            net,
            vec![tor1, spine, tor2],
            vec![h1, h2, t1s, st1, t2s, st2],
        )
    }

    #[test]
    fn cross_rack_traffic_is_delivered() {
        let (net, devs, ifaces) = chain();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let fwd = Forwarder::new(&net, &ms);
        let p2set = header::dst_in(&mut bdd, &"10.0.2.0/24".parse().unwrap());
        let res = reach(&mut bdd, &fwd, Location::device(devs[0]), p2set, 16);
        // Delivered at tor2's host port, the full /24.
        assert_eq!(res.delivered.len(), 1);
        assert_eq!(res.delivered[0].0, ifaces[1]);
        assert!(bdd.equal(res.delivered[0].1, p2set));
        assert!(res.dropped.is_empty());
        assert!(res.unmatched.is_empty());
        // Hops: tor1 (injection), spine, tor2.
        assert_eq!(res.per_hop.devices().len(), 3);
    }

    #[test]
    fn per_hop_sets_shrink_monotonically_here() {
        let (net, devs, _) = chain();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let fwd = Forwarder::new(&net, &ms);
        let v4 = header::family_is(&mut bdd, netmodel::Family::V4);
        let res = reach(&mut bdd, &fwd, Location::device(devs[0]), v4, 16);
        let at_tor1 = res.per_hop.at_device(&mut bdd, devs[0]);
        let at_spine = res.per_hop.at_device(&mut bdd, devs[1]);
        let at_tor2 = res.per_hop.at_device(&mut bdd, devs[2]);
        assert!(bdd.subset(at_spine, at_tor1));
        assert!(bdd.subset(at_tor2, at_spine));
        // Only 10.0.2.0/24 makes it to tor2.
        let p2set = header::dst_in(&mut bdd, &"10.0.2.0/24".parse().unwrap());
        assert!(bdd.equal(at_tor2, p2set));
    }

    #[test]
    fn exercised_rules_record_subsets_of_match_sets() {
        let (net, devs, _) = chain();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let fwd = Forwarder::new(&net, &ms);
        let v4 = header::family_is(&mut bdd, netmodel::Family::V4);
        let res = reach(&mut bdd, &fwd, Location::device(devs[0]), v4, 16);
        let exercised = res.exercised(&mut bdd, &net, &ms);
        assert!(!exercised.is_empty());
        for (rule, subset) in &exercised {
            assert!(
                bdd.subset(*subset, ms.get(*rule)),
                "exercised beyond match set"
            );
        }
    }

    #[test]
    fn forwarding_loop_terminates_and_reports_no_delivery() {
        // a and b default-route at each other: a loop.
        let mut t = Topology::new();
        let a = t.add_device("a", Role::Spine);
        let b = t.add_device("b", Role::Spine);
        let (ab, ba) = t.add_link(a, b);
        let mut net = Network::new(t);
        net.add_rule(
            a,
            Rule::forward(Prefix::v4_default(), vec![ab], RouteClass::StaticDefault),
        );
        net.add_rule(
            b,
            Rule::forward(Prefix::v4_default(), vec![ba], RouteClass::StaticDefault),
        );
        net.finalize();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let fwd = Forwarder::new(&net, &ms);
        let v4 = header::family_is(&mut bdd, netmodel::Family::V4);
        let res = reach(&mut bdd, &fwd, Location::device(a), v4, 64);
        // The fixpoint converges (sets stop changing), nothing delivered.
        assert!(res.delivered.is_empty());
        assert!(res.exited.is_empty());
        assert_eq!(res.per_hop.devices().len(), 2);
    }

    #[test]
    fn dropped_packets_are_attributed_to_the_null_route() {
        let mut t = Topology::new();
        let a = t.add_device("a", Role::Border);
        let mut net = Network::new(t);
        net.add_rule(
            a,
            Rule::null_route(Prefix::v4_default(), RouteClass::StaticDefault),
        );
        net.finalize();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let fwd = Forwarder::new(&net, &ms);
        let pkt = Packet::v4_to(ipv4(8, 8, 8, 8)).to_bdd(&mut bdd);
        let res = reach(&mut bdd, &fwd, Location::device(a), pkt, 4);
        assert_eq!(res.dropped.len(), 1);
        assert!(bdd.equal(res.dropped[0].1, pkt));
    }
}
