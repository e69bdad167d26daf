//! Property-based tests for the network model: prefix algebra against
//! arithmetic oracles, header predicates against concrete-packet
//! membership, match-set disjointness on random tables, and region
//! round-trips.

use std::collections::HashMap;

use netbdd::{Bdd, Ref};
use netmodel::addr::Prefix;
use netmodel::header::{self, Packet};
use netmodel::rule::{Action, RouteClass, Rule};
use netmodel::topology::{DeviceId, IfaceId, IfaceKind, Role, Topology};
use netmodel::{describe_set, Family, MatchFields, MatchSetCache, MatchSets, Network, RuleId};
use proptest::prelude::*;

fn arb_v4_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Prefix::v4(addr, len))
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        arb_v4_prefix(),
        (any::<u128>(), 0u8..=128).prop_map(|(addr, len)| Prefix::v6(addr, len)),
    ]
}

fn optional<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), s).prop_map(|(present, v)| present.then_some(v))
}

fn arb_port_range() -> impl Strategy<Value = (u16, u16)> {
    (any::<u16>(), any::<u16>()).prop_map(|(a, b)| (a.min(b), a.max(b)))
}

/// Match fields over both families with every field optional
/// (`in_iface` is positional and plays no part in header matching).
fn arb_match_fields() -> impl Strategy<Value = MatchFields> {
    (
        optional(arb_prefix()),
        optional(arb_v4_prefix()),
        optional(any::<u8>()),
        optional(arb_port_range()),
        optional(arb_port_range()),
    )
        .prop_map(|(dst, src, proto, dport, sport)| MatchFields {
            dst,
            src,
            proto,
            dport,
            sport,
            in_iface: None,
        })
}

/// Whether `device`'s match sets tile its raw matches: per ingress scope,
/// the union of the rules' `M[r]` is the union of their raw matches.
fn tiles_raw_matches(net: &Network, ms: &MatchSets, bdd: &mut Bdd, device: DeviceId) -> bool {
    let mut by_scope: HashMap<Option<IfaceId>, (Ref, Ref)> = HashMap::new();
    for id in net.device_rule_ids(device) {
        let matches = &net.rule(id).matches;
        let raw = matches.to_bdd(bdd);
        let (sets, raws) = by_scope
            .entry(matches.in_iface)
            .or_insert((Ref::FALSE, Ref::FALSE));
        *sets = bdd.or(*sets, ms.get(id));
        *raws = bdd.or(*raws, raw);
    }
    by_scope.values().all(|(sets, raws)| sets == raws)
}

/// A uniformly random packet almost never matches a random rule, so
/// each field of `raw` selected by a bit of `snap` is pulled onto the
/// match: an address into the prefix (which for `dst` also fixes the
/// family), the protocol onto the constant, a port onto one of the
/// range's endpoints or just outside one.
fn snap_packet(raw: Packet, fields: &MatchFields, snap: u8) -> Packet {
    let into = |p: &Prefix, addr: u128| {
        let width = p.family().width() as u32;
        let host_bits = width - p.len() as u32;
        let host_mask = if host_bits == 0 {
            0
        } else {
            u128::MAX >> (128 - host_bits)
        };
        p.bits() | (addr & host_mask)
    };
    let edge = |range: Option<(u16, u16)>, raw: u16, sel: u8| match (range, sel % 5) {
        (Some((lo, _)), 1) => lo,
        (Some((_, hi)), 2) => hi,
        (Some((lo, _)), 3) => lo.wrapping_sub(1),
        (Some((_, hi)), 4) => hi.wrapping_add(1),
        _ => raw,
    };
    let mut pkt = raw;
    if let (Some(p), true) = (&fields.dst, snap & 1 != 0) {
        pkt.family = p.family();
        pkt.dst = into(p, raw.dst);
    }
    if let (Some(p), true) = (&fields.src, snap & 2 != 0) {
        pkt.src = into(p, raw.src as u128) as u32;
    }
    if let (Some(proto), true) = (fields.proto, snap & 4 != 0) {
        pkt.proto = proto;
    }
    pkt.dport = edge(fields.dport, raw.dport, snap >> 3);
    pkt.sport = edge(fields.sport, raw.sport, snap >> 5);
    pkt
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        any::<bool>(),
        any::<u128>(),
        any::<u32>(),
        any::<u8>(),
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(|(v6, dst, src, proto, sport, dport)| Packet {
            family: if v6 { Family::V6 } else { Family::V4 },
            // An IPv4 packet may carry junk above its 32 address bits;
            // neither side of the comparison may look at it.
            dst,
            src,
            proto,
            sport,
            dport,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parse/display round-trips for canonical prefixes.
    #[test]
    fn prefix_display_parse_roundtrip(p in arb_v4_prefix()) {
        let s = p.to_string();
        let q: Prefix = s.parse().unwrap();
        prop_assert_eq!(p, q);
    }

    /// `contains` agrees with bit arithmetic.
    #[test]
    fn contains_matches_arithmetic(p in arb_v4_prefix(), addr in any::<u32>()) {
        let inside = p.contains_addr(addr as u128);
        let expected = p.len() == 0
            || (addr >> (32 - p.len() as u32)) == ((p.bits() as u32) >> (32 - p.len() as u32));
        prop_assert_eq!(inside, expected);
    }

    /// Containment is transitive over nested prefixes.
    #[test]
    fn containment_transitive(addr in any::<u32>(), l1 in 0u8..=32, l2 in 0u8..=32, l3 in 0u8..=32) {
        let mut ls = [l1, l2, l3];
        ls.sort_unstable();
        let (a, b, c) =
            (Prefix::v4(addr, ls[0]), Prefix::v4(addr, ls[1]), Prefix::v4(addr, ls[2]));
        prop_assert!(a.contains(&b) && b.contains(&c));
        prop_assert!(a.contains(&c));
    }

    /// The BDD of a prefix agrees with `contains_addr` on arbitrary
    /// concrete packets (the symbolic and arithmetic worlds coincide).
    #[test]
    fn dst_in_matches_contains(p in arb_v4_prefix(), addr in any::<u32>()) {
        let mut bdd = Bdd::new();
        let set = header::dst_in(&mut bdd, &p);
        let pkt = Packet::v4_to(addr);
        prop_assert_eq!(pkt.matches(&bdd, set), p.contains_addr(addr as u128));
    }

    /// Field-level matching of one packet is membership in the compiled
    /// match: both families, absent fields, a `src` filter (IPv4-only)
    /// against IPv6 packets, and port ranges probed at their endpoints.
    #[test]
    fn matches_packet_agrees_with_compiled_match(
        fields in arb_match_fields(),
        raw in arb_packet(),
        snap in any::<u8>(),
    ) {
        let mut bdd = Bdd::new();
        let set = fields.to_bdd(&mut bdd);
        let all = snap_packet(raw, &fields, snap | 7);
        let other_family = Packet {
            family: if all.family == Family::V4 { Family::V6 } else { Family::V4 },
            ..all
        };
        for pkt in [raw, snap_packet(raw, &fields, snap), all, other_family] {
            prop_assert_eq!(
                fields.matches_packet(&pkt),
                pkt.matches(&bdd, set),
                "{:?} against {:?}", pkt, fields
            );
        }
    }

    /// Probability of a prefix's packet set equals its exact share of
    /// the modelled space (family bit halves it).
    #[test]
    fn prefix_probability_is_exact(p in arb_v4_prefix()) {
        let mut bdd = Bdd::new();
        let set = header::dst_in(&mut bdd, &p);
        let got = bdd.probability(set);
        let expect = 0.5 * p.fraction_of_family();
        prop_assert!((got - expect).abs() < 1e-15, "{got} vs {expect}");
    }

    /// Random LPM tables always produce pairwise-disjoint match sets
    /// that tile exactly the union of raw match fields.
    #[test]
    fn random_tables_have_disjoint_match_sets(
        prefixes in prop::collection::vec(arb_v4_prefix(), 1..12)
    ) {
        let mut t = Topology::new();
        let d = t.add_device("r", Role::Tor);
        t.add_iface(d, "out", IfaceKind::Host);
        let mut n = Network::new(t);
        for p in &prefixes {
            n.add_rule(d, Rule::forward(*p, vec![IfaceId(0)], RouteClass::Other));
        }
        n.finalize();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let sets: Vec<_> = n.device_rule_ids(d).map(|id| ms.get(id)).collect();
        for i in 0..sets.len() {
            for j in i + 1..sets.len() {
                prop_assert!(!bdd.intersects(sets[i], sets[j]));
            }
        }
        // Tiling: the union of residuals equals the union of raw sets.
        let union_res = bdd.or_all(sets.iter().copied());
        let raws: Vec<_> = prefixes.iter().map(|p| header::dst_in(&mut bdd, p)).collect();
        let union_raw = bdd.or_all(raws);
        prop_assert!(bdd.equal(union_res, union_raw));
        // ... and the union of the installed rules' own compiled matches.
        let installed: Vec<_> = n.device_rules(d).iter().map(|r| r.matches.to_bdd(&mut bdd)).collect();
        let union_installed = bdd.or_all(installed);
        prop_assert!(bdd.equal(union_res, union_installed));
    }

    /// What skipping the refresh of an action-only FIB change rests on:
    /// `M[r]` is a function of match fields and table order, so
    /// replacing actions in place leaves everything `recompute_device`
    /// derives `Ref`-identical, still tiling the raw matches — while the
    /// action classes, which do read actions, equal a fresh
    /// computation's once they are dropped.
    #[test]
    fn replacing_actions_in_place_keeps_every_match_set(
        fields in prop::collection::vec(arb_match_fields(), 1..10),
        edits in prop::collection::vec((any::<u16>(), 0u8..4), 1..6),
    ) {
        let mut t = Topology::new();
        let d = t.add_device("r", Role::Tor);
        let i0 = t.add_iface(d, "p0", IfaceKind::Host);
        let i1 = t.add_iface(d, "p1", IfaceKind::Host);
        let mut n = Network::new(t);
        for f in &fields {
            n.add_rule(d, Rule {
                matches: f.clone(),
                action: Action::Forward(vec![i0]),
                class: RouteClass::Other,
            });
        }
        n.finalize();
        let mut bdd = Bdd::new();
        let mut cache = MatchSetCache::new();
        let mut ms = MatchSets::compute_cached(&n, &mut bdd, &mut cache);
        ms.action_classes(&n, &mut bdd, d); // built, so there is something to go stale
        let before = ms.clone();

        for &(pick, kind) in &edits {
            let id = RuleId { device: d, index: pick as u32 % fields.len() as u32 };
            let action = match kind {
                0 => Action::Drop,
                1 => Action::Forward(vec![i1]),
                2 => Action::Forward(vec![i0, i1]),
                _ => Action::Forward(Vec::new()),
            };
            let matches = n.rule(id).matches.clone();
            n.replace_rule(id, Rule { matches, action, class: RouteClass::Wan });
        }
        ms.drop_action_classes(d);

        let mut oracle = ms.clone();
        oracle.recompute_device(&n, &mut bdd, &mut cache, d);
        for id in n.device_rule_ids(d) {
            prop_assert_eq!(oracle.get(id), before.get(id), "match set of {:?}", id);
            prop_assert_eq!(ms.get(id), before.get(id));
        }
        prop_assert!(tiles_raw_matches(&n, &oracle, &mut bdd, d));
        prop_assert!(tiles_raw_matches(&n, &ms, &mut bdd, d));
        let kept = ms.action_classes(&n, &mut bdd, d).to_vec();
        prop_assert_eq!(kept, oracle.action_classes(&n, &mut bdd, d).to_vec());
    }

    /// Region decomposition is lossless: re-encoding the regions of a
    /// random union of prefixes reproduces the set.
    #[test]
    fn regions_decompose_losslessly(
        prefixes in prop::collection::vec(arb_v4_prefix(), 1..6)
    ) {
        let mut bdd = Bdd::new();
        let mut set = bdd.empty();
        for p in &prefixes {
            let s = header::dst_in(&mut bdd, p);
            set = bdd.or(set, s);
        }
        let (regions, complete) = describe_set(&bdd, set, 10_000);
        prop_assert!(complete);
        // Re-encode each region (family + dst constraint) and union.
        let mut rebuilt = bdd.empty();
        for r in &regions {
            let mut part = match r.family {
                Some(Family::V4) => header::family_is(&mut bdd, Family::V4),
                Some(Family::V6) => header::family_is(&mut bdd, Family::V6),
                None => bdd.full(),
            };
            match &r.dst {
                netmodel::FieldConstraint::Any => {}
                netmodel::FieldConstraint::Prefix { value, len } => {
                    // Region dst values are MSB-aligned in the field the
                    // region was decoded with (32 bits for v4, 128 for v6).
                    let p = match r.family {
                        Some(Family::V6) => Prefix::v6(*value, *len),
                        _ => Prefix::v4(*value as u32, *len),
                    };
                    let s = header::dst_in(&mut bdd, &p);
                    // dst_in re-constrains the family bit; harmless.
                    part = bdd.and(part, s);
                }
                netmodel::FieldConstraint::Masked { .. } => {
                    // Masked dst regions shouldn't arise from prefix unions
                    // of a single family, but if BDD structure produces
                    // them, skip exactness (flagged by the assert below).
                    prop_assert!(false, "unexpected masked region from prefix union");
                }
            }
            rebuilt = bdd.or(rebuilt, part);
        }
        prop_assert!(bdd.equal(rebuilt, set));
    }
}

/// A masked (non-prefix) region renders without panicking and reports
/// its pattern.
#[test]
fn masked_regions_render() {
    let mut bdd = Bdd::new();
    // Constrain the first and third dst bits only: not a prefix.
    let b0 = bdd.var(netmodel::header::DST_START);
    let b2 = bdd.var(netmodel::header::DST_START + 2);
    let v4 = header::family_is(&mut bdd, Family::V4);
    let set = bdd.and_all([v4, b0, b2]);
    let (regions, complete) = describe_set(&bdd, set, 10);
    assert!(complete);
    assert_eq!(regions.len(), 1);
    let text = regions[0].to_string();
    assert!(
        text.contains("pat("),
        "masked constraint must render as a pattern: {text}"
    );
}
