//! Differential tests against the `oracle` crate: random toy networks are
//! embedded into the real model, and the dataplane engines must agree
//! with the oracle's per-packet hop-by-hop walks —
//!
//! * `traceroute` on ECMP-free networks reproduces the oracle's unique
//!   walk exactly (hop sequence and outcome);
//! * `explore`'s symbolic path universe, sliced down to one concrete
//!   packet, is the same multiset of (rule sequence, terminal) as the
//!   oracle's depth-first ECMP walk enumeration;
//! * `reach`, which splits by action class and steps a device once per
//!   distinct arriving set, reports what a rule-by-rule propagation
//!   without any memo reports.

use std::collections::{BTreeMap, HashMap};

use dataplane::forward::{Forwarder, Outcome};
use dataplane::paths::{explore, ExploreOpts, Terminal};
use dataplane::reach::{reach, ReachResult};
use dataplane::traceroute::{traceroute, TraceOutcome};
use netbdd::{Bdd, Ref};
use netmodel::topology::{DeviceId, IfaceKind, Role, Topology};
use netmodel::{
    Action, IfaceId, Location, MatchFields, MatchSets, Network, Prefix, RouteClass, Rule, RuleId,
    Table, TableMode,
};
use oracle::embed::{embed_net, embed_packet};
use oracle::{ToyIfaceKind, ToyNet, ToyPrefix, ToyRule, ToySpace, WalkEnd};
use proptest::prelude::*;

const MAX_HOPS: usize = 12;

fn space() -> ToySpace {
    ToySpace::new(4, 2, 1)
}

/// One device's spec: the raw parent selector (device 0 ignores it) and
/// its rules as `(dst_len, raw_dst, iface_selector, drop)`.
type DeviceSpec = (u32, Vec<(u32, u32, u32, bool)>);

fn arb_device(max_rules: usize) -> impl Strategy<Value = DeviceSpec> {
    (
        any::<u32>(),
        prop::collection::vec(
            (0u32..=4, any::<u32>(), any::<u32>(), any::<bool>()),
            1..max_rules,
        ),
    )
}

fn prefix(raw: u32, len: u32) -> ToyPrefix {
    ToyPrefix::new(if len == 0 { 0 } else { raw & ((1 << len) - 1) }, len)
}

/// Build a random tree-shaped toy network: device 0 is the root, each
/// later device links to a random earlier one, and every device gets a
/// host interface. `ecmp` controls whether forward rules may carry
/// multiple legs (a bitmask over the device's interfaces) or exactly one.
fn build_net(specs: &[DeviceSpec], ecmp: bool) -> ToyNet {
    let mut net = ToyNet::new();
    let mut dev_ifaces: Vec<Vec<u32>> = Vec::new();
    for (d, (parent_raw, _)) in specs.iter().enumerate() {
        let dev = net.add_device();
        let host = net.add_iface(dev, ToyIfaceKind::Host);
        dev_ifaces.push(vec![host]);
        if d > 0 {
            let parent = (*parent_raw as usize) % d;
            let (pi, ci) = net.add_link(parent, dev);
            dev_ifaces[parent].push(pi);
            dev_ifaces[d].push(ci);
        }
    }
    for (d, (_, rules)) in specs.iter().enumerate() {
        for &(dst_len, raw_dst, iface_sel, drop) in rules {
            let action = if drop {
                oracle::ToyAction::Drop
            } else if ecmp {
                // Nonempty leg subset from the selector bits.
                let n = dev_ifaces[d].len() as u32;
                let mask = (iface_sel % ((1 << n) - 1)) + 1;
                let legs = dev_ifaces[d]
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &ifc)| ifc)
                    .collect();
                oracle::ToyAction::Forward(legs)
            } else {
                let pick = dev_ifaces[d][(iface_sel as usize) % dev_ifaces[d].len()];
                oracle::ToyAction::Forward(vec![pick])
            };
            net.add_rule(
                d,
                ToyRule {
                    dst: Some(prefix(raw_dst, dst_len)),
                    src: None,
                    proto: None,
                    action,
                },
            );
        }
    }
    net.finalize();
    net
}

/// A comparable fingerprint of how a path ended: discriminant plus the
/// interface (for delivery/exit) or the rule-sequence already pins the
/// rest.
fn end_key(end: &WalkEnd) -> (u8, u32) {
    match end {
        WalkEnd::Delivered { iface, .. } => (0, *iface),
        WalkEnd::Exited { iface, .. } => (1, *iface),
        WalkEnd::Dropped { .. } => (2, u32::MAX),
        WalkEnd::Unmatched { .. } => (3, u32::MAX),
        WalkEnd::HopLimit => (4, u32::MAX),
    }
}

fn terminal_key(t: &Terminal) -> (u8, u32) {
    match t {
        Terminal::Delivered { iface } => (0, iface.0),
        Terminal::Exited { iface } => (1, iface.0),
        Terminal::Dropped => (2, u32::MAX),
        Terminal::Unmatched => (3, u32::MAX),
        Terminal::Truncated => (4, u32::MAX),
    }
}

fn hops_to_ids(hops: &[(usize, usize)]) -> Vec<RuleId> {
    hops.iter()
        .map(|&(d, i)| RuleId {
            device: DeviceId(d as u32),
            index: i as u32,
        })
        .collect()
}

/// `reach` as it was before action classes: every arriving set is split
/// rule by rule with [`Forwarder::step`], at every location it arrives
/// at. The reference the class-stepping, memoising `reach` must equal.
fn reach_per_rule(
    bdd: &mut Bdd,
    fwd: &Forwarder<'_>,
    start: Location,
    packets: Ref,
    max_rounds: usize,
) -> ReachResult {
    let mut result = ReachResult::default();
    let mut seen: HashMap<Location, Ref> = HashMap::new();
    let mut frontier: Vec<(Location, Ref)> = vec![(start, packets)];
    for _round in 0..max_rounds {
        if frontier.is_empty() {
            break;
        }
        let mut next: BTreeMap<Location, Ref> = BTreeMap::new();
        for (loc, set) in frontier.drain(..) {
            let already = seen.entry(loc).or_insert(Ref::FALSE);
            let fresh = bdd.diff(set, *already);
            if fresh.is_false() {
                continue;
            }
            *already = bdd.or(*already, fresh);
            result.per_hop.add(bdd, loc, fresh);
            let step = fwd.step(bdd, loc.device, loc.iface, fresh);
            if !step.unmatched.is_false() {
                result.unmatched.push((loc, step.unmatched));
            }
            for t in step.transitions {
                for o in t.outcomes {
                    match o {
                        Outcome::Hop {
                            next: nloc,
                            packets,
                        } => {
                            let e = next.entry(nloc).or_insert(Ref::FALSE);
                            *e = bdd.or(*e, packets);
                        }
                        Outcome::Delivered { iface, packets } => {
                            result.delivered.push((iface, packets))
                        }
                        Outcome::Exited { iface, packets } => result.exited.push((iface, packets)),
                        Outcome::Dropped { packets } => result.dropped.push((t.rule, packets)),
                    }
                }
            }
        }
        frontier.extend(next);
    }
    result
}

/// What a [`ReachResult`] says, independent of how finely its lists are
/// cut: the per-hop sets, and per egress interface, per drop rule and
/// per location the union of the packets listed under it. Both runs
/// share a manager, so equal sets are equal `Ref`s.
#[derive(Debug, PartialEq)]
struct ReachSummary {
    per_hop: Vec<(Location, Ref)>,
    delivered: BTreeMap<IfaceId, Ref>,
    exited: BTreeMap<IfaceId, Ref>,
    dropped: BTreeMap<RuleId, Ref>,
    unmatched: BTreeMap<Location, Ref>,
}

fn union_by_key<K: Ord + Copy>(bdd: &mut Bdd, entries: &[(K, Ref)]) -> BTreeMap<K, Ref> {
    let mut out = BTreeMap::new();
    for &(k, set) in entries {
        let e = out.entry(k).or_insert(Ref::FALSE);
        *e = bdd.or(*e, set);
    }
    out
}

fn summarize(bdd: &mut Bdd, res: &ReachResult) -> ReachSummary {
    ReachSummary {
        per_hop: res.per_hop.iter().collect(),
        delivered: union_by_key(bdd, &res.delivered),
        exited: union_by_key(bdd, &res.exited),
        dropped: union_by_key(bdd, &res.dropped),
        unmatched: union_by_key(bdd, &res.unmatched),
    }
}

/// Both propagations of `packets` from `start`, summarised.
fn both_reaches(
    bdd: &mut Bdd,
    fwd: &Forwarder<'_>,
    start: Location,
    packets: Ref,
) -> (ReachSummary, ReachSummary) {
    let by_class = reach(bdd, fwd, start, packets, 32);
    let by_rule = reach_per_rule(bdd, fwd, start, packets, 32);
    (summarize(bdd, &by_class), summarize(bdd, &by_rule))
}

/// Fat-tree k=4 is where classes and the memo bite: a core's rules
/// share a few actions, and an aggregation switch or ToR receives the
/// same set on every uplink.
#[test]
fn reach_by_class_agrees_with_per_rule_on_fattree_k4() {
    let ft = topogen::fattree(topogen::FatTreeParams::paper(4));
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&ft.net, &mut bdd);
    let fwd = Forwarder::new(&ft.net, &ms);
    let full = bdd.full();
    for &(tor, prefix, _) in &ft.tors {
        let own = netmodel::header::dst_in(&mut bdd, &prefix);
        let remote = bdd.diff(full, own);
        let (by_class, by_rule) = both_reaches(&mut bdd, &fwd, Location::device(tor), remote);
        assert!(by_class.delivered.len() >= ft.tors.len() - 1);
        assert_eq!(by_class, by_rule, "from {tor:?}");
    }
}

/// One table with `in_iface` scopes: `b` forwards what arrives from `a`
/// to its hosts except a null-routed /26, and drops everything arriving
/// from `c`. `s` fans out to `a` and `c`, so the same set reaches `b` on
/// both interfaces in one round and must split by the interface it
/// arrived on — the memo must not hand one port the other's step.
#[test]
fn reach_by_class_agrees_with_per_rule_on_an_ingress_scoped_table() {
    let mut t = Topology::new();
    let s = t.add_device("s", Role::Tor);
    let a = t.add_device("a", Role::Spine);
    let b = t.add_device("b", Role::Tor);
    let c = t.add_device("c", Role::Spine);
    let hosts = t.add_iface(b, "hosts", IfaceKind::Host);
    let (sa, _) = t.add_link(s, a);
    let (sc, _) = t.add_link(s, c);
    let (ab, ba) = t.add_link(a, b);
    let (cb, bc) = t.add_link(c, b);
    let p24: Prefix = "10.0.0.0/24".parse().unwrap();
    let p25: Prefix = "10.0.0.0/25".parse().unwrap();
    let p26: Prefix = "10.0.0.64/26".parse().unwrap();
    let scoped = |iface, dst, action| Rule {
        matches: MatchFields {
            dst: Some(dst),
            in_iface: Some(iface),
            ..MatchFields::default()
        },
        action,
        class: RouteClass::Other,
    };
    let mut table = Table::new(TableMode::Priority);
    table.push(scoped(ba, p26, Action::Drop));
    table.push(scoped(ba, p25, Action::Forward(vec![hosts])));
    table.push(scoped(bc, p24, Action::Drop));
    table.push(scoped(ba, p24, Action::Forward(vec![hosts])));
    table.finalize();
    let mut net = Network::new(t);
    net.add_rule(s, Rule::forward(p24, vec![sa, sc], RouteClass::Other));
    net.add_rule(a, Rule::forward(p24, vec![ab], RouteClass::Other));
    net.add_rule(c, Rule::forward(p24, vec![cb], RouteClass::Other));
    net.set_table(b, table);
    net.finalize();
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&net, &mut bdd);
    let fwd = Forwarder::new(&net, &ms);
    let v4 = netmodel::header::family_is(&mut bdd, netmodel::Family::V4);
    for start in [s, a, c, b] {
        let (by_class, by_rule) = both_reaches(&mut bdd, &fwd, Location::device(start), v4);
        assert_eq!(by_class, by_rule, "from {start:?}");
    }
    // The two /25-and-/24 forwards out `hosts` are one class next to the
    // singleton drop: from `a`, three quarters of the /24 arrive.
    let (from_a, _) = both_reaches(&mut bdd, &fwd, Location::device(a), v4);
    let all = netmodel::header::dst_in(&mut bdd, &p24);
    let hole = netmodel::header::dst_in(&mut bdd, &p26);
    assert_eq!(from_a.delivered[&hosts], bdd.diff(all, hole));
    assert_eq!(from_a.dropped.len(), 1);
    let (from_c, _) = both_reaches(&mut bdd, &fwd, Location::device(c), v4);
    assert!(from_c.delivered.is_empty());
    assert_eq!(
        from_c.dropped.values().copied().collect::<Vec<_>>(),
        vec![all]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random tree-shaped toy networks with ECMP fan-out and drops,
    /// from every device: same per-hop sets, and the same packets per
    /// egress interface, per drop rule and per unmatched location.
    #[test]
    fn reach_by_class_agrees_with_per_rule(
        specs in prop::collection::vec(arb_device(5), 1..5)
    ) {
        let s = space();
        let net = build_net(&specs, true);
        let real = embed_net(&s, &net);
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&real, &mut bdd);
        let fwd = Forwarder::new(&real, &ms);
        let full = bdd.full();
        for d in 0..specs.len() as u32 {
            let (by_class, by_rule) =
                both_reaches(&mut bdd, &fwd, Location::device(DeviceId(d)), full);
            prop_assert_eq!(by_class, by_rule, "from device {}", d);
        }
    }

    /// Concrete traceroute replays the oracle's unique walk on ECMP-free
    /// networks: same rule at every hop, same ending.
    #[test]
    fn traceroute_agrees_with_oracle_walk(
        specs in prop::collection::vec(arb_device(4), 1..4)
    ) {
        let s = space();
        let net = build_net(&specs, false);
        let real = embed_net(&s, &net);
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&real, &mut bdd);
        for p in s.packets() {
            let walk = net.walk(&s, 0, p, MAX_HOPS);
            let res = traceroute(
                &mut bdd, &real, &ms,
                Location::device(DeviceId(0)),
                embed_packet(&s, p),
                MAX_HOPS,
            );
            let real_hops: Vec<RuleId> = res.hops.iter().map(|h| h.rule).collect();
            prop_assert_eq!(&real_hops, &hops_to_ids(&walk.hops), "packet {:#x}", p);
            let real_end = match res.outcome {
                TraceOutcome::Delivered { iface, .. } => (0u8, iface.0),
                TraceOutcome::Exited { iface, .. } => (1, iface.0),
                TraceOutcome::Dropped { .. } => (2, u32::MAX),
                TraceOutcome::Unmatched { .. } => (3, u32::MAX),
                TraceOutcome::HopLimit => (4, u32::MAX),
            };
            prop_assert_eq!(real_end, end_key(&walk.end), "packet {:#x}", p);
        }
    }

    /// The symbolic path universe, restricted to any one concrete packet,
    /// is exactly the oracle's set of ECMP walks for that packet.
    #[test]
    fn explore_agrees_with_oracle_walks(
        specs in prop::collection::vec(arb_device(3), 1..4)
    ) {
        let s = space();
        let net = build_net(&specs, true);
        let real = embed_net(&s, &net);
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&real, &mut bdd);
        let fwd = Forwarder::new(&real, &ms);
        let full = bdd.full();
        let opts = ExploreOpts {
            max_hops: MAX_HOPS,
            emit_empty_paths: true,
            ..ExploreOpts::default()
        };
        let mut events: Vec<(Vec<RuleId>, (u8, u32), netbdd::Ref)> = Vec::new();
        explore(
            &mut bdd, &fwd,
            &[(Location::device(DeviceId(0)), full)],
            &opts,
            |_, ev| events.push((ev.rules.to_vec(), terminal_key(&ev.terminal), ev.final_set)),
        );
        for p in s.packets() {
            let pkt = embed_packet(&s, p);
            let mut symbolic: Vec<(Vec<RuleId>, (u8, u32))> = events
                .iter()
                .filter(|(_, _, set)| pkt.matches(&bdd, *set))
                .map(|(rules, term, _)| (rules.clone(), *term))
                .collect();
            let mut concrete: Vec<(Vec<RuleId>, (u8, u32))> = net
                .walks(&s, 0, p, MAX_HOPS)
                .iter()
                .map(|w| (hops_to_ids(&w.hops), end_key(&w.end)))
                .collect();
            symbolic.sort();
            concrete.sort();
            prop_assert_eq!(&symbolic, &concrete, "packet {:#x}", p);
        }
    }
}
