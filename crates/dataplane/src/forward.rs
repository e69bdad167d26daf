//! One symbolic forwarding step.
//!
//! A [`Forwarder`] splits an incoming located packet set across a device's
//! disjoint rule match sets and applies each matched rule's action. The
//! result says, per exercised rule, which packets matched and where every
//! surviving subset went — the primitive that both reachability analysis
//! and path enumeration are built on. Path enumeration is defined over
//! rules and splits rule by rule ([`Forwarder::step`]); reachability only
//! asks where packets go and splits by action class
//! ([`Forwarder::step_classes`]). Both walks step through a
//! `StepMemo`, so each `(device, ingress scope, packet set)` is split
//! once per walk however many paths or rounds arrive in that state.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;

use netbdd::{Bdd, Ref};
use netmodel::topology::DeviceId;
use netmodel::{Action, IfaceId, IfaceKind, Location, MatchSets, Network, RuleId};

/// Where one matched subset of packets went.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Forwarded over a point-to-point link; packets now sit at the peer.
    Hop {
        /// The peer location the packets arrive at.
        next: Location,
        /// The packets taking this leg.
        packets: Ref,
    },
    /// Delivered out a host-facing interface.
    Delivered {
        /// The egress interface.
        iface: IfaceId,
        /// The delivered packets.
        packets: Ref,
    },
    /// Left the modelled network through an external (WAN) interface.
    Exited {
        /// The egress interface.
        iface: IfaceId,
        /// The exiting packets.
        packets: Ref,
    },
    /// Dropped by the rule (null route / deny).
    Dropped {
        /// The dropped packets.
        packets: Ref,
    },
}

impl Outcome {
    /// The packet set carried by this outcome, whatever its kind.
    pub fn packets(&self) -> Ref {
        match *self {
            Outcome::Hop { packets, .. }
            | Outcome::Delivered { packets, .. }
            | Outcome::Exited { packets, .. }
            | Outcome::Dropped { packets } => packets,
        }
    }
}

/// One exercised rule within a step: the subset of the input it matched
/// and the outcomes of its action (one per ECMP leg, or a single drop).
#[derive(Clone, Debug)]
pub struct Transition {
    /// The rule that matched.
    pub rule: RuleId,
    /// `input ∩ M[rule]` — the exercised portion, *before* any rewrite.
    pub matched: Ref,
    /// Where the matched packets went (one entry per ECMP leg).
    pub outcomes: Vec<Outcome>,
}

/// Result of symbolically stepping a packet set through one device.
#[derive(Clone, Debug)]
pub struct StepResult {
    /// One entry per rule that matched a non-empty subset.
    pub transitions: Vec<Transition>,
    /// Packets no rule matched: implicitly dropped, exercising nothing.
    pub unmatched: Ref,
}

/// Symbolic forwarding engine bound to a network and its precomputed
/// disjoint match sets.
pub struct Forwarder<'n> {
    net: &'n Network,
    match_sets: &'n MatchSets,
}

impl<'n> Forwarder<'n> {
    /// Bind a forwarder to a network and its precomputed match sets.
    pub fn new(net: &'n Network, match_sets: &'n MatchSets) -> Forwarder<'n> {
        Forwarder { net, match_sets }
    }

    /// The network being stepped through.
    pub fn network(&self) -> &'n Network {
        self.net
    }

    /// The disjoint match sets the forwarder splits against.
    pub fn match_sets(&self) -> &'n MatchSets {
        self.match_sets
    }

    /// Step `packets` (located at `device`, having arrived on `ingress` if
    /// known) through the device's forwarding table.
    pub fn step(
        &self,
        bdd: &mut Bdd,
        device: DeviceId,
        ingress: Option<IfaceId>,
        packets: Ref,
    ) -> StepResult {
        let rules = self.net.device_rule_ids(device).map(|id| {
            let scope = self.net.rule(id).matches.in_iface;
            (scope, id, self.match_sets.get(id))
        });
        self.split(bdd, ingress, packets, rules)
    }

    /// [`Forwarder::step`] at the granularity of the device's action
    /// classes ([`MatchSets::action_classes`]): one transition per class
    /// hit, `rule` naming the class's first member and `matched` the
    /// packets any member matched. The union of outcomes per next
    /// location or egress interface, the dropped packets per drop rule
    /// and `unmatched` are those of the per-rule step.
    pub fn step_classes(
        &self,
        bdd: &mut Bdd,
        device: DeviceId,
        ingress: Option<IfaceId>,
        packets: Ref,
    ) -> StepResult {
        let classes = self.match_sets.action_classes(self.net, bdd, device);
        let pieces = classes.iter().map(|c| (c.scope, c.rule, c.set));
        self.split(bdd, ingress, packets, pieces)
    }

    /// Peel `packets` across disjoint `pieces` — `(ingress scope, rule
    /// whose action applies, match set)` in table order — and apply each
    /// hit piece's action.
    fn split(
        &self,
        bdd: &mut Bdd,
        ingress: Option<IfaceId>,
        packets: Ref,
        pieces: impl Iterator<Item = (Option<IfaceId>, RuleId, Ref)>,
    ) -> StepResult {
        let mut transitions = Vec::new();
        let mut remaining = packets;
        for (scope, rule, set) in pieces {
            if remaining.is_false() {
                break;
            }
            // Ingress-scoped rules only see packets that arrived on their
            // interface; with unknown ingress they are skipped (the
            // conservative choice for injected local test packets).
            if scope.is_some() && scope != ingress {
                continue;
            }
            let matched = bdd.and(remaining, set);
            if matched.is_false() {
                continue;
            }
            remaining = bdd.diff(remaining, matched);
            let outcomes = self.apply_action(bdd, &self.net.rule(rule).action, matched);
            transitions.push(Transition {
                rule,
                matched,
                outcomes,
            });
        }
        StepResult {
            transitions,
            unmatched: remaining,
        }
    }

    /// What of `ingress` the table of `device` can tell apart: the
    /// interface itself when its rules are ingress-scoped (tables are
    /// scoped throughout or not at all), `None` otherwise. Two steps of
    /// the same packets with equal scopes have equal results.
    pub fn ingress_scope(&self, device: DeviceId, ingress: Option<IfaceId>) -> Option<IfaceId> {
        let scoped = self
            .net
            .device_rules(device)
            .first()
            .is_some_and(|r| r.matches.in_iface.is_some());
        ingress.filter(|_| scoped)
    }

    fn apply_action(&self, bdd: &mut Bdd, action: &Action, matched: Ref) -> Vec<Outcome> {
        match action {
            Action::Drop => vec![Outcome::Dropped { packets: matched }],
            Action::Forward(outs) => outs.iter().map(|&o| self.emit(o, matched)).collect(),
            Action::Rewrite(rw, outs) => {
                let rewritten = rw.apply(bdd, matched);
                outs.iter().map(|&o| self.emit(o, rewritten)).collect()
            }
        }
    }

    fn emit(&self, iface: IfaceId, packets: Ref) -> Outcome {
        let ifc = self.net.topology().iface(iface);
        match ifc.kind {
            IfaceKind::P2p => match ifc.peer {
                Some(peer) => {
                    let next_dev = self.net.topology().iface(peer).device;
                    Outcome::Hop {
                        next: Location::at(next_dev, peer),
                        packets,
                    }
                }
                // A P2p interface with no peer is a dangling link: packets
                // leave the model.
                None => Outcome::Exited { iface, packets },
            },
            IfaceKind::Host => Outcome::Delivered { iface, packets },
            IfaceKind::External => Outcome::Exited { iface, packets },
            IfaceKind::Loopback => {
                // Forwarding to a loopback delivers locally (e.g. packets
                // addressed to the router itself).
                Outcome::Delivered { iface, packets }
            }
        }
    }
}

/// A way to step packets through a device: [`Forwarder::step`] or
/// [`Forwarder::step_classes`].
pub(crate) type StepFn<'n> =
    fn(&Forwarder<'n>, &mut Bdd, DeviceId, Option<IfaceId>, Ref) -> StepResult;

/// The steps of one symbolic walk, memoised on what a step can tell
/// apart: `(device, ingress scope, packet set)`.
///
/// A step is a pure function of that key inside one manager, and a
/// `Ref` names one set for as long as nothing collects; a walk holds
/// `&mut Bdd` from start to end, so the memo lives for exactly one walk
/// and a hit replays the result the step would have computed.
pub(crate) struct StepMemo<'f, 'n> {
    fwd: &'f Forwarder<'n>,
    step: StepFn<'n>,
    memo: HashMap<(DeviceId, Option<IfaceId>, Ref), Rc<StepResult>>,
    steps: u64,
    hits: u64,
}

impl<'f, 'n> StepMemo<'f, 'n> {
    /// An empty memo stepping through `fwd` with `step`.
    pub(crate) fn new(fwd: &'f Forwarder<'n>, step: StepFn<'n>) -> StepMemo<'f, 'n> {
        StepMemo {
            fwd,
            step,
            memo: HashMap::new(),
            steps: 0,
            hits: 0,
        }
    }

    /// Step `packets` arriving at `loc`, or replay the step of an
    /// earlier arrival in the same state.
    pub(crate) fn step(&mut self, bdd: &mut Bdd, loc: Location, packets: Ref) -> Rc<StepResult> {
        let scope = self.fwd.ingress_scope(loc.device, loc.iface);
        match self.memo.entry((loc.device, scope, packets)) {
            Entry::Occupied(hit) => {
                self.hits += 1;
                Rc::clone(hit.get())
            }
            Entry::Vacant(slot) => {
                self.steps += 1;
                let res = (self.step)(self.fwd, bdd, loc.device, loc.iface, packets);
                Rc::clone(slot.insert(Rc::new(res)))
            }
        }
    }

    /// Publish the walk's `dataplane.steps` and
    /// `dataplane.step_memo_hits` counters (no-ops unless `netobs` is
    /// collecting).
    pub(crate) fn publish(&self) {
        netobs::counter("dataplane.steps", self.steps);
        netobs::counter("dataplane.step_memo_hits", self.hits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::addr::{ipv4, Prefix};
    use netmodel::header::Packet;
    use netmodel::rule::{RouteClass, Rule};
    use netmodel::topology::{Role, Topology};

    /// a --- b, plus a host port and a WAN port on a.
    struct Fixture {
        net: Network,
        a: DeviceId,
        b: DeviceId,
        host: IfaceId,
        ba: IfaceId,
    }

    fn fixture(rules_a: Vec<Rule>) -> Fixture {
        let mut t = Topology::new();
        let a = t.add_device("a", Role::Tor);
        let b = t.add_device("b", Role::Spine);
        let host = t.add_iface(a, "hosts", IfaceKind::Host);
        let _wan = t.add_iface(a, "wan", IfaceKind::External);
        let (_ab, ba) = t.add_link(a, b);
        let mut net = Network::new(t);
        for r in rules_a {
            net.add_rule(a, r);
        }
        net.finalize();
        Fixture {
            net,
            a,
            b,
            host,
            ba,
        }
    }

    #[test]
    fn step_splits_across_rules() {
        let fx = fixture(vec![
            Rule::forward(
                "10.0.0.0/24".parse().unwrap(),
                vec![IfaceId(0)],
                RouteClass::HostSubnet,
            ),
            Rule::forward(
                Prefix::v4_default(),
                vec![IfaceId(2)],
                RouteClass::StaticDefault,
            ),
        ]);
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&fx.net, &mut bdd);
        let fwd = Forwarder::new(&fx.net, &ms);
        let full = bdd.full();
        let res = fwd.step(&mut bdd, fx.a, None, full);
        assert_eq!(res.transitions.len(), 2);
        // /24 delivered to hosts.
        match &res.transitions[0].outcomes[0] {
            Outcome::Delivered { iface, packets } => {
                assert_eq!(*iface, fx.host);
                let p = Packet::v4_to(ipv4(10, 0, 0, 5));
                assert!(p.matches(&bdd, *packets));
            }
            o => panic!("expected delivery, got {o:?}"),
        }
        // Default hops to b.
        match &res.transitions[1].outcomes[0] {
            Outcome::Hop { next, packets } => {
                assert_eq!(next.device, fx.b);
                assert_eq!(next.iface, Some(fx.ba));
                let p = Packet::v4_to(ipv4(11, 0, 0, 5));
                assert!(p.matches(&bdd, *packets));
                // The /24 was peeled off first.
                let q = Packet::v4_to(ipv4(10, 0, 0, 5));
                assert!(!q.matches(&bdd, *packets));
            }
            o => panic!("expected hop, got {o:?}"),
        }
        // v6 packets matched nothing (only v4 routes installed).
        assert!(!res.unmatched.is_false());
        let v6 = netmodel::header::family_is(&mut bdd, netmodel::Family::V6);
        assert!(bdd.equal(res.unmatched, v6));
    }

    #[test]
    fn drop_rules_drop() {
        let fx = fixture(vec![Rule::null_route(
            Prefix::v4_default(),
            RouteClass::StaticDefault,
        )]);
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&fx.net, &mut bdd);
        let fwd = Forwarder::new(&fx.net, &ms);
        let full = bdd.full();
        let res = fwd.step(&mut bdd, fx.a, None, full);
        assert_eq!(res.transitions.len(), 1);
        assert!(matches!(
            res.transitions[0].outcomes[0],
            Outcome::Dropped { .. }
        ));
    }

    #[test]
    fn ecmp_fans_out_to_all_legs() {
        let fx = fixture(vec![Rule::forward(
            Prefix::v4_default(),
            vec![IfaceId(1), IfaceId(2)], // wan + link
            RouteClass::StaticDefault,
        )]);
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&fx.net, &mut bdd);
        let fwd = Forwarder::new(&fx.net, &ms);
        let full = bdd.full();
        let res = fwd.step(&mut bdd, fx.a, None, full);
        let outs = &res.transitions[0].outcomes;
        assert_eq!(outs.len(), 2);
        assert!(matches!(outs[0], Outcome::Exited { .. }));
        assert!(matches!(outs[1], Outcome::Hop { .. }));
        // Both legs carry the same matched set.
        assert_eq!(outs[0].packets(), outs[1].packets());
        assert_eq!(outs[0].packets(), res.transitions[0].matched);
    }

    #[test]
    fn rewrite_transforms_before_forwarding() {
        use netmodel::{HeaderField, Rewrite};
        let target = ipv4(192, 168, 0, 1) as u128;
        let fx = fixture(vec![Rule {
            matches: netmodel::MatchFields::dst_prefix(Prefix::v4_default()),
            action: Action::Rewrite(
                Rewrite {
                    set: vec![(HeaderField::Dst4, target)],
                },
                vec![IfaceId(2)],
            ),
            class: RouteClass::Other,
        }]);
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&fx.net, &mut bdd);
        let fwd = Forwarder::new(&fx.net, &ms);
        let v4 = netmodel::header::family_is(&mut bdd, netmodel::Family::V4);
        let res = fwd.step(&mut bdd, fx.a, None, v4);
        match &res.transitions[0].outcomes[0] {
            Outcome::Hop { packets, .. } => {
                let sample = netmodel::header::sample_packet(&bdd, *packets).unwrap();
                assert_eq!(sample.dst, target);
            }
            o => panic!("expected hop, got {o:?}"),
        }
        // `matched` records the pre-rewrite exercised set.
        assert!(bdd.equal(res.transitions[0].matched, v4));
    }

    #[test]
    fn ingress_scoped_rules_need_matching_ingress() {
        use netmodel::MatchFields;
        let mut t = Topology::new();
        let a = t.add_device("a", Role::Tor);
        let h1 = t.add_iface(a, "h1", IfaceKind::Host);
        let _h2 = t.add_iface(a, "h2", IfaceKind::Host);
        let mut net = Network::new(t);
        net.add_rule(
            a,
            Rule {
                matches: MatchFields {
                    in_iface: Some(h1),
                    ..MatchFields::default()
                },
                action: Action::Drop,
                class: RouteClass::Other,
            },
        );
        net.finalize();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let fwd = Forwarder::new(&net, &ms);
        let full = bdd.full();
        // Arriving on h1: dropped.
        let r1 = fwd.step(&mut bdd, a, Some(h1), full);
        assert_eq!(r1.transitions.len(), 1);
        // Arriving on h2 (or unknown): rule does not apply.
        let r2 = fwd.step(&mut bdd, a, Some(IfaceId(1)), full);
        assert!(r2.transitions.is_empty());
        assert!(r2.unmatched.is_true());
        let r3 = fwd.step(&mut bdd, a, None, full);
        assert!(r3.transitions.is_empty());
    }

    #[test]
    fn empty_input_exercises_nothing() {
        let fx = fixture(vec![Rule::forward(
            Prefix::v4_default(),
            vec![IfaceId(2)],
            RouteClass::StaticDefault,
        )]);
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&fx.net, &mut bdd);
        let fwd = Forwarder::new(&fx.net, &ms);
        let empty = bdd.empty();
        let res = fwd.step(&mut bdd, fx.a, None, empty);
        assert!(res.transitions.is_empty());
        assert!(res.unmatched.is_false());
    }
}
