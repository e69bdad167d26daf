//! Differential proptest for the incremental engine: a random sequence
//! of deltas (rule inserts/withdraws, test adds/removes) applied to a
//! [`CoverageEngine`] must leave it **bit identical** to a from-scratch
//! batch recompute of the final state — every covered set (compared as
//! exported canonical snapshots), every per-rule metric, and the
//! headline aggregates.
//!
//! This is the property the device-sharded invalidation scheme stakes
//! its correctness on: recomputing only touched devices must never be
//! observably different from recomputing everything.
//!
//! The same holds for what `MatchSets` derives lazily from its sets: the
//! action classes symbolic reachability steps through must be rebuilt
//! after a rule delta and after a collection, so `reach` on a mutated
//! and collected engine equals `reach` on an engine booted from its
//! final network. A topology delta that only replaces actions keeps the
//! sets and drops the classes alone; the same comparison gates that.

use std::collections::BTreeMap;

use dataplane::{reach, Forwarder};
use netbdd::{Bdd, PortableBdd, Ref};
use netmodel::header;
use netmodel::rule::RouteClass;
use netmodel::topology::{DeviceId, IfaceKind, Role, Topology};
use netmodel::{Location, MatchSets, Network, Prefix, Rule, RuleId};
use proptest::prelude::*;
use yardstick::daemon::{handle, Request};
use yardstick::{Aggregator, Analyzer, CoverageEngine, CoverageTrace, CoveredSets, PortableTrace};

/// The prefix pool deltas draw from — overlapping on purpose, so
/// inserts land at different first-match positions and marks straddle
/// rule boundaries.
const PREFIXES: &[&str] = &[
    "10.0.0.0/8",
    "10.0.0.0/16",
    "10.0.0.0/24",
    "10.0.1.0/24",
    "10.0.0.0/25",
    "10.0.0.128/25",
    "10.0.0.7/32",
    "0.0.0.0/0",
];

#[derive(Clone, Debug)]
enum Op {
    Insert {
        dev_sel: u32,
        prefix_sel: usize,
        iface_sel: u32,
        drop: bool,
    },
    Withdraw {
        dev_sel: u32,
        idx_sel: u32,
    },
    AddTest {
        dev_sel: u32,
        prefix_sel: usize,
        inspect: bool,
        rule_sel: u32,
    },
    RemoveTest {
        name_sel: u32,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u32>(), 0..PREFIXES.len(), any::<u32>(), any::<bool>()).prop_map(
            |(dev_sel, prefix_sel, iface_sel, drop)| Op::Insert {
                dev_sel,
                prefix_sel,
                iface_sel,
                drop,
            }
        ),
        (any::<u32>(), any::<u32>())
            .prop_map(|(dev_sel, idx_sel)| Op::Withdraw { dev_sel, idx_sel }),
        (any::<u32>(), 0..PREFIXES.len(), any::<bool>(), any::<u32>()).prop_map(
            |(dev_sel, prefix_sel, inspect, rule_sel)| Op::AddTest {
                dev_sel,
                prefix_sel,
                inspect,
                rule_sel,
            }
        ),
        any::<u32>().prop_map(|name_sel| Op::RemoveTest { name_sel }),
    ]
}

/// A 3-device chain (tor — agg — spine), host iface per device, a /24
/// and a default per device. Returns the net and per-device iface lists.
fn base_net() -> (Network, Vec<Vec<netmodel::IfaceId>>) {
    let mut t = Topology::new();
    let roles = [Role::Tor, Role::Aggregation, Role::Spine];
    let mut devs = Vec::new();
    let mut dev_ifaces: Vec<Vec<netmodel::IfaceId>> = Vec::new();
    for (i, role) in roles.iter().enumerate() {
        let d = t.add_device(format!("d{i}"), *role);
        let host = t.add_iface(d, "host", IfaceKind::Host);
        devs.push(d);
        dev_ifaces.push(vec![host]);
        if i > 0 {
            let (up, down) = t.add_link(devs[i - 1], d);
            dev_ifaces[i - 1].push(up);
            dev_ifaces[i].push(down);
        }
    }
    let mut n = Network::new(t);
    for (i, &d) in devs.iter().enumerate() {
        let host = dev_ifaces[i][0];
        n.add_rule(
            d,
            Rule::forward(
                format!("10.0.{i}.0/24").parse().unwrap(),
                vec![host],
                RouteClass::HostSubnet,
            ),
        );
        n.add_rule(
            d,
            Rule::forward(
                Prefix::v4_default(),
                vec![*dev_ifaces[i].last().unwrap()],
                RouteClass::StaticDefault,
            ),
        );
    }
    n.finalize();
    (n, dev_ifaces)
}

/// A portable trace marking `prefix` at `device`, optionally inspecting
/// one of the device's rules (rule marks are positional, like the wire).
fn mark_trace(device: DeviceId, prefix: &str, inspect: Option<u32>) -> PortableTrace {
    let mut bdd = Bdd::new();
    let mut t = CoverageTrace::new();
    let set = header::dst_in(&mut bdd, &prefix.parse().unwrap());
    t.add_packets(&mut bdd, Location::device(device), set);
    if let Some(index) = inspect {
        t.add_rule(RuleId { device, index });
    }
    t.export(&bdd)
}

/// Replay `ops` into a fresh engine; returns the engine plus the
/// surviving tests' portable traces (the batch side's inputs).
fn replay(ops: &[Op]) -> (CoverageEngine, Vec<(String, PortableTrace)>) {
    let (net, dev_ifaces) = base_net();
    let device_count = net.topology().device_count() as u32;
    let mut engine = CoverageEngine::new(net, 1);
    let mut tests: Vec<(String, PortableTrace)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Insert {
                dev_sel,
                prefix_sel,
                iface_sel,
                drop,
            } => {
                let d = dev_sel % device_count;
                let prefix: Prefix = PREFIXES[*prefix_sel].parse().unwrap();
                let rule = if *drop {
                    Rule::null_route(prefix, RouteClass::Other)
                } else {
                    let ifaces = &dev_ifaces[d as usize];
                    let pick = ifaces[*iface_sel as usize % ifaces.len()];
                    Rule::forward(prefix, vec![pick], RouteClass::Other)
                };
                engine.insert_rule(DeviceId(d), rule).unwrap();
            }
            Op::Withdraw { dev_sel, idx_sel } => {
                let d = DeviceId(dev_sel % device_count);
                let len = engine.network().device_rules(d).len() as u32;
                if len > 0 {
                    engine
                        .withdraw_rule(RuleId {
                            device: d,
                            index: idx_sel % len,
                        })
                        .unwrap();
                }
            }
            Op::AddTest {
                dev_sel,
                prefix_sel,
                inspect,
                rule_sel,
            } => {
                let d = DeviceId(dev_sel % device_count);
                let len = engine.network().device_rules(d).len() as u32;
                let inspect = inspect.then(|| rule_sel % len.max(1));
                let trace = mark_trace(d, PREFIXES[*prefix_sel], inspect);
                let name = format!("t{i}");
                engine.add_test(&name, &trace).unwrap();
                tests.push((name, trace));
            }
            Op::RemoveTest { name_sel } => {
                if !tests.is_empty() {
                    let (name, _) = tests.remove(*name_sel as usize % tests.len());
                    engine.remove_test(&name).unwrap();
                }
            }
        }
    }
    (engine, tests)
}

/// Symbolic reachability of the full header space from every device
/// of an engine's live network, as canonical snapshots keyed by what
/// they describe (per-hop set, packets per egress interface, per drop
/// rule, per unmatched location). Leaves every device's action classes
/// built.
fn reach_everywhere(engine: &mut CoverageEngine) -> BTreeMap<String, PortableBdd> {
    let (a, bdd) = engine.analyzer();
    let (net, ms) = (a.network(), a.match_sets());
    let fwd = Forwarder::new(net, ms);
    let full = bdd.full();
    let mut sets: BTreeMap<String, Ref> = BTreeMap::new();
    for (d, _) in net.topology().devices() {
        let res = reach(bdd, &fwd, Location::device(d), full, 16);
        let mut entries: Vec<(String, Ref)> = Vec::new();
        entries.extend(res.per_hop.iter().map(|(l, s)| (format!("hop {l:?}"), s)));
        entries.extend(
            res.delivered
                .iter()
                .map(|&(i, s)| (format!("delivered {i:?}"), s)),
        );
        entries.extend(
            res.exited
                .iter()
                .map(|&(i, s)| (format!("exited {i:?}"), s)),
        );
        entries.extend(
            res.dropped
                .iter()
                .map(|&(r, s)| (format!("dropped {r:?}"), s)),
        );
        entries.extend(
            res.unmatched
                .iter()
                .map(|&(l, s)| (format!("unmatched {l:?}"), s)),
        );
        for (what, set) in entries {
            let e = sets
                .entry(format!("from {d:?}: {what}"))
                .or_insert(Ref::FALSE);
            *e = bdd.or(*e, set);
        }
    }
    sets.into_iter().map(|(k, r)| (k, bdd.export(r))).collect()
}

/// The keys two reachability snapshots disagree on (a key missing on one
/// side counts).
fn differing(a: &BTreeMap<String, PortableBdd>, b: &BTreeMap<String, PortableBdd>) -> Vec<String> {
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    keys.into_iter()
        .filter(|k| a.get(*k) != b.get(*k))
        .cloned()
        .collect()
}

/// Every device's action classes as `(scope, first member, canonical
/// set)`, built if they were not.
fn classes_everywhere(
    engine: &mut CoverageEngine,
) -> Vec<(Option<netmodel::IfaceId>, RuleId, PortableBdd)> {
    let (a, bdd) = engine.analyzer();
    let (net, ms) = (a.network(), a.match_sets());
    let mut out = Vec::new();
    for (d, _) in net.topology().devices() {
        let classes = ms.action_classes(net, bdd, d).to_vec();
        out.extend(classes.iter().map(|c| (c.scope, c.rule, bdd.export(c.set))));
    }
    out
}

/// A link flap replaces actions and nothing else, so it keeps every
/// match-set shard — but the action classes are joined by action and
/// must not outlive the actions they were joined by: after each half of
/// the flap, `action_classes` and `reach` say what an engine booted on
/// the degraded network says.
#[test]
fn reach_and_action_classes_follow_a_link_flap() {
    let (ft, routing) = topogen::fattree_with_engine(topogen::FatTreeParams::paper(4));
    let mut engine = CoverageEngine::new(ft.net, 1);
    engine.attach_routing(routing);
    reach_everywhere(&mut engine); // every device's classes are built
    let (a, b) = (DeviceId(0), DeviceId(2));
    for delta in [
        routing::TopologyDelta::LinkDown { a, b },
        routing::TopologyDelta::LinkUp { a, b },
    ] {
        engine.apply_topology(&delta).unwrap();
        let mut fresh = CoverageEngine::new(engine.network().clone(), 1);
        assert_eq!(
            classes_everywhere(&mut engine),
            classes_everywhere(&mut fresh),
            "action classes after {delta:?}"
        );
        let expected = reach_everywhere(&mut fresh);
        let got = reach_everywhere(&mut engine);
        assert_eq!(
            differing(&got, &expected),
            Vec::<String>::new(),
            "reach after {delta:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Action classes do not outlive the match sets they were joined
    /// from: build them, insert rules (`recompute_device`), collect
    /// (`remap_refs`), and `reach` must still say what a fresh engine on
    /// the same network says.
    #[test]
    fn reach_survives_rule_deltas_and_collection(
        history in prop::collection::vec(arb_op(), 0..8),
        inserts in prop::collection::vec(
            (any::<u32>(), 0..PREFIXES.len(), any::<u32>(), any::<bool>()), 1..4),
    ) {
        let (mut engine, _) = replay(&history);
        let (_, dev_ifaces) = base_net();
        reach_everywhere(&mut engine);
        for &(dev_sel, prefix_sel, iface_sel, drop) in &inserts {
            let d = dev_sel as usize % dev_ifaces.len();
            let prefix: Prefix = PREFIXES[prefix_sel].parse().unwrap();
            let rule = if drop {
                Rule::null_route(prefix, RouteClass::Other)
            } else {
                let pick = dev_ifaces[d][iface_sel as usize % dev_ifaces[d].len()];
                Rule::forward(prefix, vec![pick], RouteClass::Other)
            };
            engine.insert_rule(DeviceId(d as u32), rule).unwrap();
        }
        let expected = reach_everywhere(&mut CoverageEngine::new(engine.network().clone(), 1));
        let none: Vec<String> = Vec::new();
        let got = reach_everywhere(&mut engine);
        prop_assert_eq!(differing(&got, &expected), none.clone(), "after the inserts");
        engine.gc();
        let got = reach_everywhere(&mut engine);
        prop_assert_eq!(differing(&got, &expected), none, "after the collection");
    }

    #[test]
    fn engine_after_deltas_is_bit_identical_to_batch_recompute(
        ops in prop::collection::vec(arb_op(), 0..12),
    ) {
        let (mut engine, tests) = replay(&ops);

        // From-scratch batch recompute of the engine's final state,
        // in a fresh manager.
        let net = engine.network().clone();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let mut combined = CoverageTrace::new();
        for (_, portable) in &tests {
            let t = portable.import(&mut bdd);
            combined.merge(&mut bdd, &t);
        }
        let covered = CoveredSets::compute(&net, &ms, &combined, &mut bdd);

        // Covered sets: canonical exports must be equal node for node.
        let engine_side: Vec<(RuleId, PortableBdd)> = {
            let (a, ebdd) = engine.analyzer();
            net.rules()
                .map(|(id, _)| (id, ebdd.export(a.covered_sets().get(id))))
                .collect()
        };
        for (id, engine_snapshot) in engine_side {
            let batch_snapshot = bdd.export(covered.get(id));
            prop_assert_eq!(
                engine_snapshot,
                batch_snapshot,
                "covered set diverges at {:?}",
                id
            );
        }

        // Metrics: per-rule and headline, exactly equal floats.
        let batch = Analyzer::with_covered(&net, &ms, &combined, covered);
        for (id, _) in net.rules() {
            let e = engine.rule_coverage(id).unwrap();
            let b = batch.rule_coverage(&mut bdd, id);
            prop_assert_eq!(e.coverage, b, "rule metric diverges at {:?}", id);
        }
        let headline = engine.headline_metrics();
        prop_assert_eq!(
            headline.rule_fractional,
            batch.aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true)
        );
        prop_assert_eq!(
            headline.rule_weighted,
            batch.aggregate_rules(&mut bdd, Aggregator::Weighted, |_, _| true)
        );
        prop_assert_eq!(
            headline.device_fractional,
            batch.aggregate_devices(&mut bdd, Aggregator::Fractional, |_, _| true)
        );

        // A warm `/covers` answers from the LRU cache: the hit
        // counter increments and the body is unchanged.
        let first_rule = net.rules().next().map(|(id, _)| id);
        if let Some(id) = first_rule {
            let req = Request::new(
                "GET",
                &format!("/covers?rule={}.{}", id.device.0, id.index),
                "",
            );
            let cold = handle(&mut engine, &req);
            prop_assert_eq!(cold.status, 200);
            let hits_before = engine.query_cache_stats().hits;
            let warm = handle(&mut engine, &req);
            prop_assert_eq!(warm, cold);
            prop_assert_eq!(engine.query_cache_stats().hits, hits_before + 1);
        }
    }
}
