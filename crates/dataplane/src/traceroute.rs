//! Concrete single-packet walks: the substrate for traceroute/ping-style
//! tests (Figure 2's "concrete" column, and the ToRPingmesh test of §8).
//!
//! ECMP legs are chosen by a deterministic hash of the packet five-tuple,
//! mimicking per-flow hashing in real routers: the same packet always
//! takes the same path, different packets spread across legs.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use netbdd::Bdd;
use netmodel::header::Packet;
use netmodel::rule::Action;
use netmodel::topology::DeviceId;
use netmodel::{IfaceId, IfaceKind, Location, MatchSets, Network, RuleId};

/// One hop of a concrete trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hop {
    /// Where the packet was when the rule was applied.
    pub location: Location,
    /// The rule that matched.
    pub rule: RuleId,
    /// The packet *as it was at this hop* (rewrites may change it).
    pub packet: Packet,
}

/// How a concrete trace ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Delivered out a host-facing interface of this device.
    Delivered {
        /// The delivering device.
        device: DeviceId,
        /// The host-facing egress interface.
        iface: IfaceId,
    },
    /// Left the network through an external interface.
    Exited {
        /// The border device.
        device: DeviceId,
        /// The external egress interface.
        iface: IfaceId,
    },
    /// Hit an explicit drop rule.
    Dropped {
        /// The dropping device.
        device: DeviceId,
        /// The drop rule that matched.
        rule: RuleId,
    },
    /// Matched no rule at this device.
    Unmatched {
        /// The device with no matching rule.
        device: DeviceId,
    },
    /// Exceeded the hop budget (loop).
    HopLimit,
}

/// A completed concrete trace.
#[derive(Clone, Debug)]
pub struct TraceResult {
    /// The hops traversed, in order.
    pub hops: Vec<Hop>,
    /// How the trace ended.
    pub outcome: TraceOutcome,
}

impl TraceResult {
    /// Devices traversed, in order.
    pub fn devices(&self) -> Vec<DeviceId> {
        self.hops.iter().map(|h| h.location.device).collect()
    }

    /// Whether the trace ended in a delivery.
    pub fn delivered(&self) -> bool {
        matches!(self.outcome, TraceOutcome::Delivered { .. })
    }
}

/// Walk one concrete packet from `start` until it terminates.
///
/// At every hop the rule is the first in table order whose match
/// *fields* admit the packet, and that hit is then checked against the
/// rule's disjoint match set — one BDD walk per hop — so a trace that
/// disagreed with the symbolic engine's first-match semantics would
/// panic rather than be reported.
pub fn traceroute(
    bdd: &mut Bdd,
    net: &Network,
    ms: &MatchSets,
    start: Location,
    packet: Packet,
    max_hops: usize,
) -> TraceResult {
    let mut hops = Vec::new();
    let mut loc = start;
    let mut pkt = packet;
    for _ in 0..max_hops {
        let Some((rule_id, rule)) = lookup(net, ms, bdd, loc, &pkt) else {
            return TraceResult {
                hops,
                outcome: TraceOutcome::Unmatched { device: loc.device },
            };
        };
        hops.push(Hop {
            location: loc,
            rule: rule_id,
            packet: pkt,
        });
        let (out_ifaces, rewritten) = match &rule.action {
            Action::Drop => {
                return TraceResult {
                    hops,
                    outcome: TraceOutcome::Dropped {
                        device: loc.device,
                        rule: rule_id,
                    },
                };
            }
            Action::Forward(outs) => (outs, pkt),
            Action::Rewrite(rw, outs) => {
                // Apply the rewrite to the concrete packet through the
                // symbolic engine to guarantee agreement with it.
                let as_set = pkt.to_bdd(bdd);
                let image = rw.apply(bdd, as_set);
                let new_pkt = netmodel::header::sample_packet(bdd, image)
                    .expect("rewrite image of a packet cannot be empty");
                (outs, new_pkt)
            }
        };
        pkt = rewritten;
        let iface = choose_ecmp_leg(out_ifaces, &pkt, loc.device);
        let ifc = net.topology().iface(iface);
        match ifc.kind {
            IfaceKind::Host | IfaceKind::Loopback => {
                return TraceResult {
                    hops,
                    outcome: TraceOutcome::Delivered {
                        device: loc.device,
                        iface,
                    },
                };
            }
            IfaceKind::External => {
                return TraceResult {
                    hops,
                    outcome: TraceOutcome::Exited {
                        device: loc.device,
                        iface,
                    },
                };
            }
            IfaceKind::P2p => match ifc.peer {
                Some(peer) => {
                    loc = Location::at(net.topology().iface(peer).device, peer);
                }
                None => {
                    return TraceResult {
                        hops,
                        outcome: TraceOutcome::Exited {
                            device: loc.device,
                            iface,
                        },
                    };
                }
            },
        }
    }
    TraceResult {
        hops,
        outcome: TraceOutcome::HopLimit,
    }
}

/// First-match lookup of a concrete packet in a device table: the first
/// rule in table order whose ingress scope admits `loc` and whose match
/// fields admit the packet — by construction of the disjoint match sets
/// the one rule whose set holds the packet, which is asserted.
fn lookup<'n>(
    net: &'n Network,
    ms: &MatchSets,
    bdd: &Bdd,
    loc: Location,
    pkt: &Packet,
) -> Option<(RuleId, &'n netmodel::Rule)> {
    let (id, rule) = net
        .device_rule_ids(loc.device)
        .map(|id| (id, net.rule(id)))
        .find(|(_, rule)| {
            let scope = rule.matches.in_iface;
            (scope.is_none() || scope == loc.iface) && rule.matches.matches_packet(pkt)
        })?;
    assert!(
        pkt.matches(bdd, ms.get(id)),
        "{id:?}: first field match for {pkt} at {loc:?} is outside its disjoint match set"
    );
    Some((id, rule))
}

/// The lookup by definition: scan the disjoint match sets for the one
/// holding the packet, ~65 BDD walks per hop on a fabric switch. The
/// oracle the field-level lookup is tested against.
#[cfg(test)]
fn lookup_by_match_set<'n>(
    net: &'n Network,
    ms: &MatchSets,
    bdd: &Bdd,
    loc: Location,
    pkt: &Packet,
) -> Option<(RuleId, &'n netmodel::Rule)> {
    for id in net.device_rule_ids(loc.device) {
        let rule = net.rule(id);
        if let Some(required) = rule.matches.in_iface {
            if loc.iface != Some(required) {
                continue;
            }
        }
        if pkt.matches(bdd, ms.get(id)) {
            return Some((id, rule));
        }
    }
    None
}

/// Deterministic per-flow ECMP leg choice.
fn choose_ecmp_leg(outs: &[IfaceId], pkt: &Packet, device: DeviceId) -> IfaceId {
    debug_assert!(!outs.is_empty());
    if outs.len() == 1 {
        return outs[0];
    }
    let mut h = DefaultHasher::new();
    // Five-tuple plus device id: per-flow stable, varies across devices.
    pkt.dst.hash(&mut h);
    pkt.src.hash(&mut h);
    pkt.proto.hash(&mut h);
    pkt.sport.hash(&mut h);
    pkt.dport.hash(&mut h);
    device.0.hash(&mut h);
    outs[(h.finish() % outs.len() as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::addr::{ipv4, Prefix};
    use netmodel::rule::{RouteClass, Rule};
    use netmodel::topology::{Role, Topology};

    /// Same diamond as the path tests: a → {b,c} → d, ECMP at a.
    fn diamond() -> (Network, DeviceId, DeviceId, DeviceId, DeviceId) {
        let mut t = Topology::new();
        let a = t.add_device("a", Role::Tor);
        let b = t.add_device("b", Role::Spine);
        let c = t.add_device("c", Role::Spine);
        let d = t.add_device("d", Role::Tor);
        let _in = t.add_iface(a, "in", IfaceKind::Host);
        let egress = t.add_iface(d, "out", IfaceKind::Host);
        let (ab, _) = t.add_link(a, b);
        let (ac, _) = t.add_link(a, c);
        let (bd, _) = t.add_link(b, d);
        let (cd, _) = t.add_link(c, d);
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        let mut net = Network::new(t);
        net.add_rule(a, Rule::forward(p, vec![ab, ac], RouteClass::HostSubnet));
        net.add_rule(b, Rule::forward(p, vec![bd], RouteClass::HostSubnet));
        net.add_rule(c, Rule::forward(p, vec![cd], RouteClass::HostSubnet));
        net.add_rule(d, Rule::forward(p, vec![egress], RouteClass::HostSubnet));
        net.finalize();
        (net, a, b, c, d)
    }

    #[test]
    fn trace_reaches_destination() {
        let (net, a, _, _, d) = diamond();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let pkt = Packet::v4_to(ipv4(10, 0, 0, 9));
        let res = traceroute(&mut bdd, &net, &ms, Location::device(a), pkt, 16);
        assert!(res.delivered());
        assert_eq!(res.hops.len(), 3);
        assert_eq!(res.devices()[0], a);
        assert_eq!(*res.devices().last().unwrap(), d);
    }

    #[test]
    fn trace_is_deterministic() {
        let (net, a, _, _, _) = diamond();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let pkt = Packet::v4_to(ipv4(10, 0, 0, 9));
        let r1 = traceroute(&mut bdd, &net, &ms, Location::device(a), pkt, 16);
        let r2 = traceroute(&mut bdd, &net, &ms, Location::device(a), pkt, 16);
        assert_eq!(r1.devices(), r2.devices());
    }

    #[test]
    fn different_flows_spread_over_ecmp_legs() {
        let (net, a, b, c, _) = diamond();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let mut via = std::collections::HashSet::new();
        for i in 0..64 {
            let pkt = Packet {
                sport: 1000 + i,
                ..Packet::v4_to(ipv4(10, 0, 0, 9))
            };
            let res = traceroute(&mut bdd, &net, &ms, Location::device(a), pkt, 16);
            via.insert(res.devices()[1]);
        }
        assert!(
            via.contains(&b) && via.contains(&c),
            "hashing never used one leg"
        );
    }

    #[test]
    fn unrouted_packet_is_unmatched() {
        let (net, a, _, _, _) = diamond();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let pkt = Packet::v4_to(ipv4(99, 0, 0, 1));
        let res = traceroute(&mut bdd, &net, &ms, Location::device(a), pkt, 16);
        assert_eq!(res.outcome, TraceOutcome::Unmatched { device: a });
        assert!(res.hops.is_empty());
    }

    #[test]
    fn loop_hits_hop_limit() {
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
        let res = traceroute(
            &mut bdd,
            &net,
            &ms,
            Location::device(a),
            Packet::v4_to(1),
            8,
        );
        assert_eq!(res.outcome, TraceOutcome::HopLimit);
        assert_eq!(res.hops.len(), 8);
    }

    #[test]
    fn rewrite_changes_the_traced_packet() {
        use netmodel::{HeaderField, MatchFields, Rewrite};
        let mut t = Topology::new();
        let a = t.add_device("a", Role::Tor);
        let b = t.add_device("b", Role::Tor);
        let out = t.add_iface(b, "out", IfaceKind::Host);
        let (ab, _) = t.add_link(a, b);
        let target = ipv4(192, 168, 1, 1);
        let mut net = Network::new(t);
        net.add_rule(
            a,
            Rule {
                matches: MatchFields::dst_prefix(Prefix::v4_default()),
                action: netmodel::Action::Rewrite(
                    Rewrite {
                        set: vec![(HeaderField::Dst4, target as u128)],
                    },
                    vec![ab],
                ),
                class: RouteClass::Other,
            },
        );
        net.add_rule(
            b,
            Rule::forward(Prefix::host_v4(target), vec![out], RouteClass::HostSubnet),
        );
        net.finalize();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let res = traceroute(
            &mut bdd,
            &net,
            &ms,
            Location::device(a),
            Packet::v4_to(1),
            8,
        );
        assert!(res.delivered());
        assert_eq!(res.hops[1].packet.dst, target as u128);
        // Hop 0 records the pre-rewrite packet.
        assert_eq!(res.hops[0].packet.dst, 1);
    }

    #[test]
    fn dropped_packet_reports_the_rule() {
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
        let res = traceroute(
            &mut bdd,
            &net,
            &ms,
            Location::device(a),
            Packet::v4_to(5),
            8,
        );
        match res.outcome {
            TraceOutcome::Dropped { device, rule } => {
                assert_eq!(device, a);
                assert_eq!(rule.device, a);
            }
            o => panic!("expected drop, got {o:?}"),
        }
    }

    /// The hit of both lookups for `pkt` at `loc`, as rule ids.
    fn both_lookups(
        net: &Network,
        ms: &MatchSets,
        bdd: &Bdd,
        loc: Location,
        pkt: &Packet,
    ) -> (Option<RuleId>, Option<RuleId>) {
        (
            lookup(net, ms, bdd, loc, pkt).map(|(id, _)| id),
            lookup_by_match_set(net, ms, bdd, loc, pkt).map(|(id, _)| id),
        )
    }

    mod differential {
        use super::*;
        use netmodel::{HeaderField, MatchFields, Rewrite, Table, TableMode};
        use oracle::embed::{embed_net, embed_packet};
        use oracle::{ToyAction, ToyIfaceKind, ToyNet, ToyPrefix, ToyRule, ToySpace};
        use proptest::prelude::*;

        /// `((dst_len, raw_dst), (has_src, src_len, raw_src), (has_proto,
        /// proto), drop)` — the rule shape of the netmodel oracle suite.
        type ToySpec = ((u32, u32), (bool, u32, u32), (bool, u32), bool);

        fn arb_toy_rule() -> impl Strategy<Value = ToySpec> {
            (
                (0u32..=4, any::<u32>()),
                (any::<bool>(), 0u32..=2, any::<u32>()),
                (any::<bool>(), 0u32..2),
                any::<bool>(),
            )
        }

        fn toy_prefix(raw: u32, len: u32) -> ToyPrefix {
            ToyPrefix::new(if len == 0 { 0 } else { raw & ((1 << len) - 1) }, len)
        }

        /// `(ingress selector, dst /24+len in 10.0.0.0/24, (has_proto,
        /// proto), (has_dport, lo, hi), action selector)` for one entry
        /// of an ingress-scoped priority table.
        type AclSpec = (bool, (u8, u8), (bool, u8), (bool, u16, u16), u8);

        fn arb_acl_rule() -> impl Strategy<Value = AclSpec> {
            (
                any::<bool>(),
                (0u8..=8, any::<u8>()),
                (any::<bool>(), 5u8..8),
                (any::<bool>(), 20u16..26, 20u16..26),
                0u8..4,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// On embedded toy tables (dst, src and proto matches, drops
            /// and forwards) the field-level lookup picks the rule whose
            /// disjoint match set holds the packet, for every packet of
            /// the toy space at every device.
            #[test]
            fn field_lookup_agrees_with_match_set_scan(
                tables in prop::collection::vec(prop::collection::vec(arb_toy_rule(), 0..6), 1..4)
            ) {
                let space = ToySpace::new(4, 2, 1);
                let mut toy = ToyNet::new();
                for specs in &tables {
                    let d = toy.add_device();
                    let host = toy.add_iface(d, ToyIfaceKind::Host);
                    for &((dst_len, raw_dst), (has_src, src_len, raw_src), (has_proto, proto), drop) in specs {
                        toy.add_rule(d, ToyRule {
                            dst: Some(toy_prefix(raw_dst, dst_len)),
                            src: has_src.then(|| toy_prefix(raw_src, src_len)),
                            proto: has_proto.then_some(proto),
                            action: if drop { ToyAction::Drop } else { ToyAction::Forward(vec![host]) },
                        });
                    }
                }
                toy.finalize();
                let net = embed_net(&space, &toy);
                let mut bdd = Bdd::new();
                let ms = MatchSets::compute(&net, &mut bdd);
                for d in 0..tables.len() as u32 {
                    for p in space.packets() {
                        let pkt = embed_packet(&space, p);
                        let (fields, scan) =
                            both_lookups(&net, &ms, &bdd, Location::device(DeviceId(d)), &pkt);
                        prop_assert_eq!(fields, scan, "device {} packet {:#x}", d, p);
                    }
                }
            }

            /// The same on an ingress-scoped priority table mixing drops,
            /// forwards and a rewrite: each interface runs its own
            /// first-match chain, and a packet of unknown ingress sees no
            /// rule at all.
            #[test]
            fn field_lookup_agrees_on_an_ingress_scoped_acl(
                specs in prop::collection::vec(arb_acl_rule(), 1..10)
            ) {
                let mut t = Topology::new();
                let a = t.add_device("acl", Role::Border);
                let in0 = t.add_iface(a, "in0", IfaceKind::Host);
                let in1 = t.add_iface(a, "in1", IfaceKind::Host);
                let out = t.add_iface(a, "out", IfaceKind::External);
                let mut table = Table::new(TableMode::Priority);
                for &(on_in1, (len, raw), (has_proto, proto), (has_dport, p, q), act) in &specs {
                    let action = match act {
                        0 => Action::Drop,
                        1 => Action::Rewrite(
                            Rewrite { set: vec![(HeaderField::Dport, 8080)] },
                            vec![out],
                        ),
                        _ => Action::Forward(vec![out]),
                    };
                    table.push(Rule {
                        matches: MatchFields {
                            dst: Some(Prefix::v4(ipv4(10, 0, 0, raw), 24 + len)),
                            proto: has_proto.then_some(proto),
                            dport: has_dport.then_some((p.min(q), p.max(q))),
                            in_iface: Some(if on_in1 { in1 } else { in0 }),
                            ..MatchFields::default()
                        },
                        action,
                        class: RouteClass::Other,
                    });
                }
                table.finalize();
                let mut net = Network::new(t);
                net.set_table(a, table);
                net.finalize();
                let mut bdd = Bdd::new();
                let ms = MatchSets::compute(&net, &mut bdd);
                let mut hits = 0;
                for loc in [Location::at(a, in0), Location::at(a, in1), Location::device(a)] {
                    for last in (0..=255u8).step_by(5) {
                        for proto in 5u8..8 {
                            for dport in 19u16..27 {
                                let pkt = Packet { proto, dport, ..Packet::v4_to(ipv4(10, 0, 0, last)) };
                                let (fields, scan) = both_lookups(&net, &ms, &bdd, loc, &pkt);
                                prop_assert_eq!(fields, scan, "{} at {:?}", pkt, loc);
                                hits += usize::from(fields.is_some());
                                if loc.iface.is_none() {
                                    prop_assert_eq!(fields, None);
                                }
                            }
                        }
                    }
                }
                // A /24 entry alone matches every probe on its interface.
                if specs.iter().any(|s| s.1 .0 == 0 && !s.2 .0 && !s.3 .0) {
                    prop_assert!(hits > 0);
                }
            }
        }
    }
}
