//! Semantic diffs between forwarding-state snapshots.
//!
//! The production deployment (§7.1) evaluates *changes*: a simulator
//! computes the forwarding state a change would produce, tests run
//! against it, and coverage says how much of the state the tests
//! exercised. The natural companion question is *"which packets does
//! the change affect, and are **those** tested?"* — this module answers
//! the first half by computing, per device, the exact packet set whose
//! forwarding behaviour differs between two snapshots.
//!
//! The computation is semantics-based like everything else: two tables
//! that order their rules differently but forward identically produce an
//! empty diff.

use std::collections::BTreeMap;

use netbdd::{Bdd, Ref};
use netmodel::rule::Action;
use netmodel::topology::DeviceId;
use netmodel::{HeaderField, IfaceId, MatchSets, Network};

/// Canonical behaviour key of a rule action: what happens to a matched
/// packet, ignoring rule order/identity.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum ActionKey {
    Drop,
    Forward(Vec<IfaceId>),
    Rewrite(Vec<(HeaderFieldKey, u128)>, Vec<IfaceId>),
}

/// `HeaderField` lacks `Ord`; mirror it with a sortable key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum HeaderFieldKey {
    Family,
    Dst,
    Dst4,
    Src,
    Proto,
    Sport,
    Dport,
}

fn field_key(f: HeaderField) -> HeaderFieldKey {
    match f {
        HeaderField::Family => HeaderFieldKey::Family,
        HeaderField::Dst => HeaderFieldKey::Dst,
        HeaderField::Dst4 => HeaderFieldKey::Dst4,
        HeaderField::Src => HeaderFieldKey::Src,
        HeaderField::Proto => HeaderFieldKey::Proto,
        HeaderField::Sport => HeaderFieldKey::Sport,
        HeaderField::Dport => HeaderFieldKey::Dport,
    }
}

fn action_key(a: &Action) -> ActionKey {
    match a {
        Action::Drop => ActionKey::Drop,
        Action::Forward(outs) => {
            let mut o = outs.clone();
            o.sort();
            ActionKey::Forward(o)
        }
        Action::Rewrite(rw, outs) => {
            let mut o = outs.clone();
            o.sort();
            let mut set: Vec<(HeaderFieldKey, u128)> =
                rw.set.iter().map(|&(f, v)| (field_key(f), v)).collect();
            set.sort();
            ActionKey::Rewrite(set, o)
        }
    }
}

/// The change at one device.
#[derive(Clone, Debug)]
pub struct DeviceDiff {
    /// The device whose behaviour changed.
    pub device: DeviceId,
    /// Packets whose behaviour at this device differs (including packets
    /// only one snapshot has any rule for).
    pub changed: Ref,
    /// `P(changed)` — the share of header space affected.
    pub weight: f64,
}

/// Compute the per-device semantic diff between two snapshots over the
/// same topology. Devices with no behavioural change are omitted.
///
/// # Panics
///
/// Panics if the snapshots have different device counts (diffs are
/// defined over a fixed topology, per the paper's static-snapshot model).
pub fn semantic_diff(
    bdd: &mut Bdd,
    old: &Network,
    old_ms: &MatchSets,
    new: &Network,
    new_ms: &MatchSets,
) -> Vec<DeviceDiff> {
    assert_eq!(
        old.topology().device_count(),
        new.topology().device_count(),
        "semantic diffs require a shared topology"
    );
    old.topology()
        .devices()
        .filter_map(|(device, _)| device_diff(bdd, old, old_ms, new, new_ms, device))
        .collect()
}

/// The semantic diff at one device, or `None` when its behaviour is
/// unchanged. Reads only `device`'s tables and match sets, so a caller
/// that edited one table can judge the edit without touching the rest
/// of the network.
pub fn device_diff(
    bdd: &mut Bdd,
    old: &Network,
    old_ms: &MatchSets,
    new: &Network,
    new_ms: &MatchSets,
    device: DeviceId,
) -> Option<DeviceDiff> {
    // Behaviour signatures: action key → packet set, per snapshot.
    let sig = |net: &Network, ms: &MatchSets, bdd: &mut Bdd| {
        let mut m: BTreeMap<ActionKey, Ref> = BTreeMap::new();
        for id in net.device_rule_ids(device) {
            let k = action_key(&net.rule(id).action);
            let e = m.entry(k).or_insert(Ref::FALSE);
            *e = bdd.or(*e, ms.get(id));
        }
        m
    };
    let old_sig = sig(old, old_ms, bdd);
    let new_sig = sig(new, new_ms, bdd);
    // Agreement: packets with the same behaviour in both.
    let mut agreement = bdd.empty();
    for (k, &o) in &old_sig {
        if let Some(&n) = new_sig.get(k) {
            let both = bdd.and(o, n);
            agreement = bdd.or(agreement, both);
        }
    }
    let old_total = bdd.or_all(old_sig.values().copied());
    let new_total = bdd.or_all(new_sig.values().copied());
    let either = bdd.or(old_total, new_total);
    let changed = bdd.diff(either, agreement);
    if changed.is_false() {
        return None;
    }
    let weight = bdd.probability(changed);
    Some(DeviceDiff {
        device,
        changed,
        weight,
    })
}

/// Whether two snapshots forward identically for every packet at every
/// device — the equivalent-mutant detector: a mutation with no semantic
/// diff cannot be killed by any behavioural or state-semantics test.
pub fn equivalent(
    bdd: &mut Bdd,
    old: &Network,
    old_ms: &MatchSets,
    new: &Network,
    new_ms: &MatchSets,
) -> bool {
    semantic_diff(bdd, old, old_ms, new, new_ms).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::addr::Prefix;
    use netmodel::header::Packet;
    use netmodel::rule::{RouteClass, Rule, Table, TableMode};
    use netmodel::topology::{IfaceKind, Role, Topology};

    fn base() -> Network {
        let mut t = Topology::new();
        let d = t.add_device("r", Role::Tor);
        t.add_iface(d, "h", IfaceKind::Host);
        t.add_iface(d, "up", IfaceKind::External);
        let mut n = Network::new(t);
        n.add_rule(
            d,
            Rule::forward(
                "10.0.0.0/24".parse().unwrap(),
                vec![IfaceId(0)],
                RouteClass::HostSubnet,
            ),
        );
        n.add_rule(
            d,
            Rule::forward(
                Prefix::v4_default(),
                vec![IfaceId(1)],
                RouteClass::StaticDefault,
            ),
        );
        n.finalize();
        n
    }

    #[test]
    fn identical_snapshots_have_empty_diff() {
        let a = base();
        let b = a.clone();
        let mut bdd = Bdd::new();
        let ams = MatchSets::compute(&a, &mut bdd);
        let bms = MatchSets::compute(&b, &mut bdd);
        assert!(semantic_diff(&mut bdd, &a, &ams, &b, &bms).is_empty());
    }

    #[test]
    fn reordered_but_equivalent_tables_have_empty_diff() {
        // Same semantics written in opposite insertion order: LPM
        // normalizes, the diff must be empty (semantics-based, §3.2).
        let a = base();
        let mut t = Topology::new();
        let d = t.add_device("r", Role::Tor);
        t.add_iface(d, "h", IfaceKind::Host);
        t.add_iface(d, "up", IfaceKind::External);
        let mut b = Network::new(t);
        b.add_rule(
            d,
            Rule::forward(
                Prefix::v4_default(),
                vec![IfaceId(1)],
                RouteClass::StaticDefault,
            ),
        );
        b.add_rule(
            d,
            Rule::forward(
                "10.0.0.0/24".parse().unwrap(),
                vec![IfaceId(0)],
                RouteClass::HostSubnet,
            ),
        );
        b.finalize();
        let mut bdd = Bdd::new();
        let ams = MatchSets::compute(&a, &mut bdd);
        let bms = MatchSets::compute(&b, &mut bdd);
        assert!(semantic_diff(&mut bdd, &a, &ams, &b, &bms).is_empty());
    }

    #[test]
    fn null_routing_a_prefix_changes_exactly_that_prefix() {
        let a = base();
        let mut b = a.clone();
        let d = a.topology().device_by_name("r").unwrap();
        // Null-route the /24 in the new snapshot.
        let mut table = Table::new(TableMode::Lpm);
        b.device_rules(d).iter().for_each(|r| {
            let mut r = r.clone();
            if r.matches.dst == Some("10.0.0.0/24".parse().unwrap()) {
                r.action = Action::Drop;
            }
            table.push(r);
        });
        table.finalize();
        b.set_table(d, table);

        let mut bdd = Bdd::new();
        let ams = MatchSets::compute(&a, &mut bdd);
        let bms = MatchSets::compute(&b, &mut bdd);
        let diffs = semantic_diff(&mut bdd, &a, &ams, &b, &bms);
        assert_eq!(diffs.len(), 1);
        let expect = netmodel::header::dst_in(&mut bdd, &"10.0.0.0/24".parse().unwrap());
        assert!(bdd.equal(diffs[0].changed, expect));
        // Witnesses behave as expected.
        let inside = Packet::v4_to(netmodel::addr::ipv4(10, 0, 0, 7));
        assert!(inside.matches(&bdd, diffs[0].changed));
        let outside = Packet::v4_to(netmodel::addr::ipv4(11, 0, 0, 7));
        assert!(!outside.matches(&bdd, diffs[0].changed));
    }

    #[test]
    fn removing_a_rule_diffs_its_residual_space() {
        let a = base();
        let mut b = a.clone();
        let d = a.topology().device_by_name("r").unwrap();
        topogen_remove(&mut b, d, "10.0.0.0/24".parse().unwrap());
        let mut bdd = Bdd::new();
        let ams = MatchSets::compute(&a, &mut bdd);
        let bms = MatchSets::compute(&b, &mut bdd);
        let diffs = semantic_diff(&mut bdd, &a, &ams, &b, &bms);
        // The /24 now falls to the default (different out iface): changed.
        assert_eq!(diffs.len(), 1);
        let expect = netmodel::header::dst_in(&mut bdd, &"10.0.0.0/24".parse().unwrap());
        assert!(bdd.equal(diffs[0].changed, expect));
    }

    /// Local copy of faults::remove_route to avoid a dev-dependency
    /// cycle (topogen dev-depends on dataplane).
    fn topogen_remove(net: &mut Network, device: DeviceId, prefix: Prefix) {
        let rules = net.device_rules(device).to_vec();
        let mut table = Table::new(TableMode::Priority);
        for r in rules {
            if r.matches.dst != Some(prefix) {
                table.push(r);
            }
        }
        table.finalize();
        net.set_table(device, table);
    }

    #[test]
    fn ecmp_reduction_is_a_change() {
        // Dropping one ECMP leg changes behaviour for the prefix.
        let mut t = Topology::new();
        let d = t.add_device("r", Role::Tor);
        t.add_iface(d, "a", IfaceKind::External);
        t.add_iface(d, "b", IfaceKind::External);
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let mut old = Network::new(t.clone());
        old.add_rule(
            d,
            Rule::forward(p, vec![IfaceId(0), IfaceId(1)], RouteClass::Other),
        );
        old.finalize();
        let mut new = Network::new(t);
        new.add_rule(d, Rule::forward(p, vec![IfaceId(0)], RouteClass::Other));
        new.finalize();
        let mut bdd = Bdd::new();
        let oms = MatchSets::compute(&old, &mut bdd);
        let nms = MatchSets::compute(&new, &mut bdd);
        let diffs = semantic_diff(&mut bdd, &old, &oms, &new, &nms);
        assert_eq!(diffs.len(), 1);
        let expect = netmodel::header::dst_in(&mut bdd, &p);
        assert!(bdd.equal(diffs[0].changed, expect));
    }
}
