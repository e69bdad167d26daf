//! Topology-delta differential tests for the coverage engine: failure
//! and recovery sequences re-converged incrementally through
//! [`CoverageEngine::apply_topology`] must leave the engine bit-identical
//! to a from-scratch batch engine built over the degraded network, and the
//! headline fractional metric must equal a direct counting of exercised
//! rules (the counting-oracle form of the fractional aggregator).

use netbdd::Bdd;
use netmodel::header;
use netmodel::rule::RouteClass;
use netmodel::topology::DeviceId;
use netmodel::{Location, MatchFields, Network};
use routing::{StaticRoute, StaticTarget, TopologyDelta};
use topogen::{fattree_builder, fattree_with_engine, FatTreeParams};
use yardstick::daemon::{handle, Request};
use yardstick::{CoverageEngine, CoverageTrace, PortableTrace};

/// A portable trace marking `prefix` at `device` (packet marks only —
/// rule marks are positional and topology deltas shift indices).
fn mark_trace(device: DeviceId, prefix: &str) -> PortableTrace {
    let mut bdd = Bdd::new();
    let mut t = CoverageTrace::new();
    let set = header::dst_in(&mut bdd, &prefix.parse().unwrap());
    t.add_packets(&mut bdd, Location::device(device), set);
    t.export(&bdd)
}

/// A deterministic k=4 fat-tree coverage engine with routing attached
/// and two registered probe traces.
fn scenario_engine() -> CoverageEngine {
    let (ft, routing) = fattree_with_engine(FatTreeParams::paper(4));
    let (tor0, p0, _) = ft.tors[0];
    let (tor7, p7, _) = ft.tors[7];
    let mut engine = CoverageEngine::new(ft.net, 1);
    engine.attach_routing(routing);
    engine
        .add_test("probe-local", &mark_trace(tor0, &p0.to_string()))
        .unwrap();
    engine
        .add_test("probe-remote", &mark_trace(tor7, &p7.to_string()))
        .unwrap();
    engine
}

/// A failure/recovery arc touching links and a whole device. Endpoint
/// pairs are fat-tree k=4 wiring: tor-0-0 is device 0, its pod aggs are
/// devices 2 and 3, core-0-0 is device 16.
fn arc() -> Vec<TopologyDelta> {
    vec![
        TopologyDelta::LinkDown {
            a: DeviceId(0),
            b: DeviceId(2),
        },
        TopologyDelta::DeviceDown {
            device: DeviceId(16),
        },
        TopologyDelta::LinkDown {
            a: DeviceId(0),
            b: DeviceId(3),
        },
        TopologyDelta::LinkUp {
            a: DeviceId(0),
            b: DeviceId(2),
        },
        TopologyDelta::DeviceUp {
            device: DeviceId(16),
        },
    ]
}

#[test]
fn topology_deltas_match_batch() {
    let mut engine = scenario_engine();
    for delta in arc() {
        engine.apply_topology(&delta).unwrap();

        // The served network must be bit-identical to a
        // from-scratch rebuild of the degraded control plane.
        let rebuilt = engine.routing().unwrap().full_rebuild().unwrap();
        for (d, _) in rebuilt.topology().devices() {
            assert_eq!(
                engine.network().device_rules(d),
                rebuilt.device_rules(d),
                "FIB diverged at device {} after {:?}",
                d.0,
                delta
            );
        }

        // And the covered sets must equal a fresh batch engine's
        // over that network, as canonical exports.
        let (ft, _) = fattree_with_engine(FatTreeParams::paper(4));
        let (tor0, p0, _) = ft.tors[0];
        let (tor7, p7, _) = ft.tors[7];
        let mut batch = CoverageEngine::new(rebuilt, 1);
        batch
            .add_test("probe-local", &mark_trace(tor0, &p0.to_string()))
            .unwrap();
        batch
            .add_test("probe-remote", &mark_trace(tor7, &p7.to_string()))
            .unwrap();
        let ids: Vec<_> = engine.network().rules().map(|(id, _)| id).collect();
        let mut exercised = 0usize;
        for id in &ids {
            let (a, bdd) = engine.analyzer();
            let engine_snapshot = bdd.export(a.covered_sets().get(*id));
            let (b, bbdd) = batch.analyzer();
            let batch_snapshot = bbdd.export(b.covered_sets().get(*id));
            assert_eq!(
                engine_snapshot, batch_snapshot,
                "covered set diverged at {id:?} after {delta:?}"
            );
            if engine.is_exercised(*id) {
                exercised += 1;
            }
        }

        // Counting oracle for the fractional aggregate: the
        // headline equals exercised/total, counted directly.
        let headline = engine.headline_metrics();
        let want = exercised as f64 / ids.len() as f64;
        let got = headline.rule_fractional.unwrap();
        assert!(
            (got - want).abs() < 1e-12,
            "rule_fractional {got} != counted {want}"
        );
    }
}

/// The k=4 fat-tree with connected /31s over both links of agg-0-0
/// (device 2) into its pod's ToRs (devices 0 and 1), and three tests: two
/// packet probes and a contract-style inspection of every other rule
/// (`R_T` — rule marks are positional). Taking agg-0-0 down then yields
/// all three kinds of device in one diff: the downed device loses its
/// table, its two ToRs lose a /31 beside the next-hops they swap, and
/// everyone else only swaps next-hops.
fn connected_engine() -> (CoverageEngine, Vec<(&'static str, PortableTrace)>) {
    let mut builder = fattree_builder(FatTreeParams::paper(4));
    let agg = DeviceId(2);
    for (iface, peer) in builder.rb.topology().neighbors(agg) {
        if peer.0 > 1 {
            continue; // a core: agg-0-0's uplinks stay unnumbered
        }
        let back = builder.rb.topology().iface(iface).peer.unwrap();
        let prefix = format!("192.168.{}.0/31", peer.0).parse().unwrap();
        for (device, out) in [(agg, iface), (peer, back)] {
            builder.rb.add_static(StaticRoute {
                device,
                prefix,
                target: StaticTarget::Ifaces(vec![out]),
                class: RouteClass::Connected,
            });
        }
    }
    let (ft, routing) = builder.into_engine();
    let (tor0, p0, _) = ft.tors[0];
    let (tor7, p7, _) = ft.tors[7];
    let bdd = Bdd::new();
    let mut contract = CoverageTrace::new();
    for (id, _) in ft.net.rules().filter(|(id, _)| id.index % 2 == 0) {
        contract.add_rule(id);
    }
    let tests = vec![
        ("probe-local", mark_trace(tor0, &p0.to_string())),
        ("probe-remote", mark_trace(tor7, &p7.to_string())),
        ("contract", contract.export(&bdd)),
    ];
    let mut engine = CoverageEngine::new(ft.net, 1);
    engine.attach_routing(routing);
    for (name, trace) in &tests {
        engine.add_test(name, trace).unwrap();
    }
    (engine, tests)
}

/// Every rule's covered set and `rule_coverage` against a batch engine
/// booted on the engine's current network with the same tests, and the
/// headline against a direct count of exercised rules.
fn assert_matches_fresh_batch(
    engine: &mut CoverageEngine,
    tests: &[(&'static str, PortableTrace)],
    when: &str,
) {
    let mut batch = CoverageEngine::new(engine.network().clone(), 1);
    for (name, trace) in tests {
        batch.add_test(name, trace).unwrap();
    }
    let ids: Vec<_> = engine.network().rules().map(|(id, _)| id).collect();
    let mut exercised = 0usize;
    for &id in &ids {
        let (a, bdd) = engine.analyzer();
        let (ms, covered) = (a.match_sets(), a.covered_sets());
        let got = (bdd.export(ms.get(id)), bdd.export(covered.get(id)));
        let (b, bbdd) = batch.analyzer();
        let (bms, bcovered) = (b.match_sets(), b.covered_sets());
        let want = (bbdd.export(bms.get(id)), bbdd.export(bcovered.get(id)));
        assert_eq!(got, want, "M[r] or T[r] diverged at {id:?} {when}");
        assert_eq!(
            engine.rule_coverage(id).unwrap(),
            batch.rule_coverage(id).unwrap(),
            "rule_coverage diverged at {id:?} {when}"
        );
        exercised += engine.is_exercised(id) as usize;
    }
    let headline = engine.headline_metrics();
    assert_eq!(headline, batch.headline_metrics(), "headline {when}");
    let want = exercised as f64 / ids.len() as f64;
    let got = headline.rule_fractional.unwrap();
    assert!(
        (got - want).abs() < 1e-12,
        "rule_fractional {got} != counted {want} {when}"
    );
}

/// The devices of `changed` whose tables hold, rule for rule, the match
/// fields they held in `before`: their delta only replaced rules.
fn action_only(before: &Network, engine: &CoverageEngine, changed: &[DeviceId]) -> Vec<DeviceId> {
    let matches = |net: &Network, d| -> Vec<MatchFields> {
        net.device_rules(d)
            .iter()
            .map(|r| r.matches.clone())
            .collect()
    };
    changed
        .iter()
        .copied()
        .filter(|&d| matches(before, d) == matches(engine.network(), d))
        .collect()
}

#[test]
fn a_device_arc_mixes_full_refreshes_and_action_only_devices_in_one_diff() {
    let (mut engine, tests) = connected_engine();
    let agg = DeviceId(2);
    for delta in [
        TopologyDelta::DeviceDown { device: agg },
        TopologyDelta::DeviceUp { device: agg },
    ] {
        let before = engine.network().clone();
        let changed = engine.apply_topology(&delta).unwrap();
        let kept = action_only(&before, &engine, &changed);
        for d in [agg, DeviceId(0), DeviceId(1)] {
            assert!(
                changed.contains(&d) && !kept.contains(&d),
                "{delta:?}: {d:?}"
            );
        }
        assert!(kept.len() >= 8, "{delta:?}: only {kept:?} are action-only");
        assert_matches_fresh_batch(&mut engine, &tests, &format!("after {delta:?}"));
    }
}

/// Rule marks name rules by position. On an action-only device no
/// position changed, so the contract test's marks select the rules they
/// selected before, and `T[r]` is the very `Ref` it was.
#[test]
fn rule_marks_on_an_action_only_device_read_the_same_covered_sets() {
    let (mut engine, tests) = connected_engine();
    for delta in [
        TopologyDelta::LinkDown {
            a: DeviceId(0),
            b: DeviceId(3),
        },
        TopologyDelta::LinkUp {
            a: DeviceId(0),
            b: DeviceId(3),
        },
    ] {
        let before = engine.network().clone();
        let marked: Vec<_> = {
            let (a, _) = engine.analyzer();
            let (net, covered) = (a.network(), a.covered_sets());
            net.rules().map(|(id, _)| (id, covered.get(id))).collect()
        };
        let changed = engine.apply_topology(&delta).unwrap();
        let kept = action_only(&before, &engine, &changed);
        assert!(
            kept.contains(&DeviceId(0)),
            "{delta:?}: tor-0-0 only swaps next-hops"
        );
        let (a, _) = engine.analyzer();
        let (ms, covered) = (a.match_sets(), a.covered_sets());
        for &(id, was) in marked.iter().filter(|(id, _)| kept.contains(&id.device)) {
            assert_eq!(covered.get(id), was, "T[r] at {id:?} after {delta:?}");
            if id.index % 2 == 0 {
                assert_eq!(
                    was,
                    ms.get(id),
                    "an inspected rule is covered whole: {id:?}"
                );
            }
        }
        assert_matches_fresh_batch(&mut engine, &tests, &format!("after {delta:?}"));
    }
}

/// `/covers` bodies embed the engine version; strip it so comparisons
/// see only the coverage answer itself.
fn strip_version(body: &str) -> String {
    match body.split_once("\"version\":") {
        Some((head, tail)) => {
            let rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
            format!("{head}{rest}")
        }
        None => body.to_string(),
    }
}

#[test]
fn link_down_changes_covers_over_the_wire_and_recovers() {
    let mut engine = scenario_engine();
    let version = engine.version();

    // tor-0-0's table: 8 hosted /24s plus the static default at index 8.
    // Severing both uplinks (to its pod aggs, devices 2 and 3) withdraws
    // every remote route AND the default (its ECMP set dies whole), so
    // the probed rule vanishes — and returns after recovery.
    let covers = Request::new("GET", "/covers?rule=0.8", "");
    let before = handle(&mut engine, &covers);
    assert_eq!(before.status, 200, "{}", before.body);

    for (body, detail) in [
        (r#"{"kind":"link-down","a":0,"b":2}"#, "link:0-2"),
        (r#"{"kind":"link-down","a":0,"b":3}"#, "link:0-3"),
    ] {
        let resp = handle(&mut engine, &Request::new("POST", "/delta", body));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(
            resp.body.contains(&format!("\"detail\":\"{detail}\"")),
            "{}",
            resp.body
        );
    }
    assert_eq!(engine.version(), version + 2);

    let degraded = handle(&mut engine, &covers);
    assert_eq!(
        degraded.status, 404,
        "a severed ToR keeps only its own hosted /24: {}",
        degraded.body
    );
    assert_eq!(engine.network().device_rules(DeviceId(0)).len(), 1);

    for body in [
        r#"{"kind":"link-up","a":0,"b":2}"#,
        r#"{"kind":"link-up","a":0,"b":3}"#,
    ] {
        let resp = handle(&mut engine, &Request::new("POST", "/delta", body));
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let recovered = handle(&mut engine, &covers);
    assert_eq!(recovered.status, 200, "{}", recovered.body);
    assert_eq!(
        strip_version(&recovered.body),
        strip_version(&before.body),
        "recovery must restore the original /covers answer"
    );
}
