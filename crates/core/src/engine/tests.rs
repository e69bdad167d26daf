#![cfg(test)]

use netmodel::addr::Prefix;
use netmodel::header;
use netmodel::rule::RouteClass;
use netmodel::topology::{DeviceId, IfaceKind, Role, Topology};
use netmodel::{IfaceId, Location, Rule, RuleId};

use super::*;
use crate::framework::Aggregator;
use crate::trace::PortableTrace;

/// Two devices; the tor has a /24 to hosts plus a default up.
fn build() -> (Network, DeviceId, DeviceId, IfaceId) {
    let mut t = Topology::new();
    let tor = t.add_device("tor", Role::Tor);
    let spine = t.add_device("spine", Role::Spine);
    let hosts = t.add_iface(tor, "hosts", IfaceKind::Host);
    let (up, down) = t.add_link(tor, spine);
    let mut n = Network::new(t);
    n.add_rule(
        tor,
        Rule::forward(
            "10.0.0.0/24".parse().unwrap(),
            vec![hosts],
            RouteClass::HostSubnet,
        ),
    );
    n.add_rule(
        tor,
        Rule::forward(Prefix::v4_default(), vec![up], RouteClass::StaticDefault),
    );
    n.add_rule(
        spine,
        Rule::forward(
            "10.0.0.0/24".parse().unwrap(),
            vec![down],
            RouteClass::HostSubnet,
        ),
    );
    n.finalize();
    (n, tor, spine, hosts)
}

/// A portable trace marking `prefix` at `device`.
fn mark_trace(device: DeviceId, prefix: &str) -> PortableTrace {
    let mut bdd = Bdd::new();
    let mut t = CoverageTrace::new();
    let set = header::dst_in(&mut bdd, &prefix.parse().unwrap());
    t.add_packets(&mut bdd, Location::device(device), set);
    t.export(&bdd)
}

/// Batch recompute of the engine's current state in the engine's own
/// manager; `Ref`s must agree exactly (hash-consing).
fn assert_matches_batch(engine: &mut CoverageEngine) {
    let net = engine.net.clone();
    let combined = engine.combined.clone();
    let batch_ms = MatchSets::compute(&net, &mut engine.bdd);
    let batch_cov = CoveredSets::compute(&net, &batch_ms, &combined, &mut engine.bdd);
    for (id, _) in net.rules() {
        assert_eq!(engine.ms.get(id), batch_ms.get(id), "match set at {id:?}");
        assert_eq!(
            engine.covered.get(id),
            batch_cov.get(id),
            "covered set at {id:?}"
        );
    }
}

#[test]
fn rule_insert_refreshes_only_that_device_and_matches_batch() {
    let (n, tor, spine, hosts) = build();
    let mut engine = CoverageEngine::new(n, 1);
    engine
        .add_test("t", &mark_trace(tor, "10.0.0.0/8"))
        .unwrap();
    let spine_before = engine.covered.get(RuleId {
        device: spine,
        index: 0,
    });
    let id = engine
        .insert_rule(
            tor,
            Rule::forward(
                "10.0.0.7/32".parse().unwrap(),
                vec![hosts],
                RouteClass::Other,
            ),
        )
        .unwrap();
    // The /32 outranks the /24: it lands at index 0.
    assert_eq!(
        id,
        RuleId {
            device: tor,
            index: 0
        }
    );
    // Spine shard untouched (same Ref, not just same function).
    assert_eq!(
        engine.covered.get(RuleId {
            device: spine,
            index: 0
        }),
        spine_before
    );
    assert_matches_batch(&mut engine);
}

#[test]
fn rule_withdraw_matches_batch() {
    let (n, tor, _, hosts) = build();
    let mut engine = CoverageEngine::new(n, 1);
    engine
        .add_test("t", &mark_trace(tor, "10.0.0.0/8"))
        .unwrap();
    let id = engine
        .insert_rule(
            tor,
            Rule::forward(
                "10.0.0.0/16".parse().unwrap(),
                vec![hosts],
                RouteClass::Other,
            ),
        )
        .unwrap();
    engine.withdraw_rule(id).unwrap();
    assert_matches_batch(&mut engine);
    assert_eq!(engine.version(), 3);
}

#[test]
fn test_add_then_remove_restores_prior_coverage() {
    let (n, tor, _, _) = build();
    let mut engine = CoverageEngine::new(n, 1);
    engine
        .add_test("a", &mark_trace(tor, "10.0.0.0/25"))
        .unwrap();
    let before: Vec<_> = engine
        .net
        .rules()
        .map(|(id, _)| id)
        .collect::<Vec<_>>()
        .into_iter()
        .map(|id| (id, engine.covered.get(id)))
        .collect();
    let devices = engine
        .add_test("b", &mark_trace(tor, "10.0.0.0/8"))
        .unwrap();
    assert_eq!(devices, vec![tor]);
    engine.remove_test("b").unwrap();
    for (id, r) in before {
        assert_eq!(engine.covered.get(id), r, "covered set at {id:?}");
    }
    assert_matches_batch(&mut engine);
}

#[test]
fn rule_coverage_reports_exercised_fractions() {
    let (n, tor, _, _) = build();
    let mut engine = CoverageEngine::new(n, 1);
    engine
        .add_test("t", &mark_trace(tor, "10.0.0.0/24"))
        .unwrap();
    let c = engine
        .rule_coverage(RuleId {
            device: tor,
            index: 0,
        })
        .unwrap();
    assert!(c.exercised);
    assert!((c.coverage.unwrap() - 1.0).abs() < 1e-12);
    let d = engine
        .rule_coverage(RuleId {
            device: tor,
            index: 1,
        })
        .unwrap();
    assert!(!d.exercised);
    assert_eq!(d.coverage, Some(0.0));
}

#[test]
fn deltas_are_validated_not_panicking() {
    let (n, tor, _, hosts) = build();
    let mut engine = CoverageEngine::new(n, 1);
    assert!(matches!(
        engine.insert_rule(
            DeviceId(99),
            Rule::null_route(Prefix::v4_default(), RouteClass::Other)
        ),
        Err(EngineError::UnknownDevice { .. })
    ));
    // `hosts` belongs to the tor, not the spine.
    assert!(matches!(
        engine.insert_rule(
            DeviceId(1),
            Rule::forward(Prefix::v4_default(), vec![hosts], RouteClass::Other)
        ),
        Err(EngineError::BadIface { .. })
    ));
    assert!(matches!(
        engine.withdraw_rule(RuleId {
            device: tor,
            index: 9
        }),
        Err(EngineError::BadRuleIndex { table_len: 2, .. })
    ));
    assert!(matches!(
        engine.remove_test("ghost"),
        Err(EngineError::UnknownTest { .. })
    ));
    engine
        .add_test("t", &mark_trace(tor, "10.0.0.0/8"))
        .unwrap();
    assert!(matches!(
        engine.add_test("t", &mark_trace(tor, "10.0.0.0/8")),
        Err(EngineError::DuplicateTest { .. })
    ));
    // No delta was applied by any of the rejected calls.
    assert_eq!(engine.version(), 1);
}

#[test]
fn a_rule_of_the_other_ingress_kind_is_rejected_before_the_table_changes() {
    let (n, tor, spine, hosts) = build();
    let mut engine = CoverageEngine::new(n, 1);
    let dst: Prefix = "10.9.0.0/24".parse().unwrap();
    let scoped = |iface: IfaceId| {
        let mut r = Rule::null_route(dst, RouteClass::Other);
        r.matches.in_iface = Some(iface);
        r
    };

    // Scoped into the tor's non-empty unscoped table.
    let before = engine.network().device_rules(tor).to_vec();
    assert_eq!(
        engine.insert_rule(tor, scoped(hosts)),
        Err(EngineError::MixedIngressScope { device: tor })
    );
    assert_eq!(engine.version(), 0);
    assert_eq!(engine.network().device_rules(tor), before);

    // An empty table accepts either kind; once scoped, the reverse
    // is refused the same way.
    let down = engine.network().device_rules(spine)[0].action.out_ifaces()[0];
    engine
        .withdraw_rule(RuleId {
            device: spine,
            index: 0,
        })
        .unwrap();
    engine.insert_rule(spine, scoped(down)).unwrap();
    let before = engine.network().device_rules(spine).to_vec();
    let err = engine
        .insert_rule(spine, Rule::null_route(dst, RouteClass::Other))
        .unwrap_err();
    assert_eq!(err, EngineError::MixedIngressScope { device: spine });
    assert!(err.to_string().contains("ingress-scoped"), "{err}");
    assert_eq!(engine.version(), 2);
    assert_eq!(engine.network().device_rules(spine), before);
    // The engine still answers.
    assert!(engine.headline_metrics().rule_fractional.is_some());
}

#[test]
fn malformed_trace_is_rejected_with_location() {
    use netbdd::PortableBdd;
    let (n, tor, _, _) = build();
    let mut engine = CoverageEngine::new(n, 1);
    let loc = Location::device(tor);
    let bad = PortableTrace::from_parts(
        vec![(loc, PortableBdd::from_parts(vec![(0, 0, 12)], 2))],
        Default::default(),
    );
    match engine.add_test("bad", &bad) {
        Err(EngineError::MalformedTrace { location, .. }) => assert_eq!(location, loc),
        other => panic!("expected MalformedTrace, got {other:?}"),
    }
    assert_eq!(engine.version(), 0);
}

#[test]
fn delta_log_slices_by_version() {
    let (n, tor, _, _) = build();
    let mut engine = CoverageEngine::new(n, 1);
    engine
        .add_test("a", &mark_trace(tor, "10.0.0.0/8"))
        .unwrap();
    engine.remove_test("a").unwrap();
    assert_eq!(engine.deltas_since(0).unwrap().len(), 2);
    let tail = engine.deltas_since(1).unwrap();
    assert_eq!(tail.len(), 1);
    assert_eq!(tail[0].kind, DeltaKind::TestRemoved);
    assert_eq!(tail[0].detail, "a");
    assert!(engine.deltas_since(2).unwrap().is_empty());
}

/// The log keeps between `DELTA_LOG_CAPACITY` and twice that many of
/// the newest records; a reader whose version is older than the
/// window gets an error naming the oldest retained version instead of
/// a tail with a gap.
#[test]
fn delta_log_is_bounded_and_names_the_oldest_retained_version() {
    let (n, tor, _, _) = build();
    let mut engine = CoverageEngine::new(n, 1);
    let trace = mark_trace(tor, "10.0.0.0/25");
    let total = 2 * DELTA_LOG_CAPACITY as u64 + 10;
    for v in 0..total {
        if v % 2 == 0 {
            engine.add_test("t", &trace).unwrap();
        } else {
            engine.remove_test("t").unwrap();
        }
        assert!(engine.log.len() <= 2 * DELTA_LOG_CAPACITY);
    }
    assert_eq!(engine.version(), total);
    // The 2·capacity-th record dropped the older half.
    let oldest = DELTA_LOG_CAPACITY as u64 + 1;
    assert_eq!(engine.log.len(), DELTA_LOG_CAPACITY + 10);

    // From the version just before the oldest record on, the tail is
    // whole.
    let tail = engine.deltas_since(oldest - 1).unwrap();
    assert_eq!(tail.len(), DELTA_LOG_CAPACITY + 10);
    assert_eq!(tail[0].version, oldest);
    assert_eq!(tail[tail.len() - 1].version, total);
    assert_eq!(engine.deltas_since(total - 1).unwrap().len(), 1);
    assert!(engine.deltas_since(total).unwrap().is_empty());
    assert!(engine.deltas_since(total + 5).unwrap().is_empty());

    // Older than that, version `oldest - 1` itself is gone.
    for since in [0, oldest - 2] {
        let err = engine.deltas_since(since).unwrap_err();
        assert_eq!(err, EngineError::DeltaLogTruncated { since, oldest });
        assert!(
            err.to_string()
                .contains(&format!("oldest retained: {oldest}")),
            "{err}"
        );
    }
}

/// The headline memo is keyed on the version: a quiet `/metrics` is a
/// hit, the first one after any delta re-aggregates, and a GC (no
/// delta, no changed packet set) keeps the memo.
#[test]
fn a_quiet_metrics_call_is_a_headline_cache_hit() {
    use crate::daemon::{handle, Request};
    use routing::TopologyDelta;
    let (ft, routing) = topogen::fattree_with_engine(topogen::FatTreeParams::paper(4));
    let (tor, agg) = (ft.tors[0].0, ft.aggs[0]);
    let mut engine = CoverageEngine::new(ft.net, 1);
    engine.attach_routing(routing);
    engine
        .add_test("t", &mark_trace(tor, "10.0.0.0/8"))
        .unwrap();
    let metrics = Request::new("GET", "/metrics", "");
    let read = |engine: &mut CoverageEngine| {
        let resp = handle(engine, &metrics);
        assert_eq!(resp.status, 200, "{}", resp.body);
        (engine.headline_hits, engine.headline_misses)
    };

    assert_eq!(read(&mut engine), (0, 1), "the first /metrics aggregates");
    for _ in 0..99 {
        read(&mut engine);
    }
    assert_eq!(read(&mut engine), (100, 1), "100 quiet /metrics calls");

    let hosts = ft.tors[0].2;
    engine
        .insert_rule(
            tor,
            Rule::forward(
                "10.0.0.7/32".parse().unwrap(),
                vec![hosts],
                RouteClass::Other,
            ),
        )
        .unwrap();
    assert_eq!(read(&mut engine), (100, 2), "one rule delta");

    for delta in [
        TopologyDelta::LinkDown { a: tor, b: agg },
        TopologyDelta::LinkUp { a: tor, b: agg },
    ] {
        engine.apply_topology(&delta).unwrap();
    }
    assert_eq!(read(&mut engine), (100, 3), "a ToR-uplink flap");

    engine.gc();
    assert_eq!(read(&mut engine), (101, 3), "a collection");

    // The memo after all that is what re-aggregating gives.
    let (a, bdd) = engine.analyzer();
    let fresh = HeadlineMetrics {
        rule_fractional: a.aggregate_rules(bdd, Aggregator::Fractional, |_, _| true),
        rule_weighted: a.aggregate_rules(bdd, Aggregator::Weighted, |_, _| true),
        device_fractional: a.aggregate_devices(bdd, Aggregator::Fractional, |_, _| true),
    };
    assert_eq!(engine.headline_metrics(), fresh);
}

#[test]
fn query_cache_is_lru_and_flushes_on_delta() {
    let mut c = QueryCache::new(2);
    c.insert("a".into(), "1".into());
    c.insert("b".into(), "2".into());
    assert_eq!(c.get("a").as_deref(), Some("1")); // refresh a
    c.insert("c".into(), "3".into()); // evicts b (LRU)
    assert_eq!(c.get("b"), None);
    assert_eq!(c.get("a").as_deref(), Some("1"));
    assert_eq!(c.get("c").as_deref(), Some("3"));
    let s = c.stats();
    assert_eq!((s.hits, s.misses, s.evictions, s.entries), (3, 1, 1, 2));
    c.flush();
    let s = c.stats();
    // Counters survive the flush; the two resident entries count as
    // evictions.
    assert_eq!((s.hits, s.misses, s.evictions, s.entries), (3, 1, 3, 0));

    // And the engine flushes on every applied delta.
    let (n, tor, _, _) = build();
    let mut engine = CoverageEngine::new(n, 1);
    engine.query_cache().insert("k".into(), "v".into());
    engine
        .add_test("t", &mark_trace(tor, "10.0.0.0/8"))
        .unwrap();
    assert_eq!(engine.query_cache().get("k"), None);
}

/// `engine.devices_invalidated_total` counts the devices a delta
/// names, `engine.shards_recomputed_total` the shards Algorithm 1
/// re-ran on: a ToR-uplink flap names devices and recomputes none, a
/// device failure recomputes the device that lost its table.
#[test]
fn an_action_only_delta_names_devices_and_recomputes_no_shard() {
    use routing::TopologyDelta;
    let (ft, routing) = topogen::fattree_with_engine(topogen::FatTreeParams::paper(4));
    let (tor, agg, core) = (ft.tors[0].0, ft.aggs[0], ft.cores[0]);
    let mut engine = CoverageEngine::new(ft.net, 1);
    engine.attach_routing(routing);
    engine
        .add_test("t", &mark_trace(tor, "10.0.0.0/8"))
        .unwrap();
    let counters = |e: &CoverageEngine| (e.devices_invalidated, e.shards_recomputed);
    assert_eq!(counters(&engine), (1, 1), "one test on one device");

    for delta in [
        TopologyDelta::LinkDown { a: tor, b: agg },
        TopologyDelta::LinkUp { a: tor, b: agg },
    ] {
        let (named, recomputed) = counters(&engine);
        let devices = engine.apply_topology(&delta).unwrap();
        assert!(devices.contains(&tor), "{delta:?} names {devices:?}");
        assert_eq!(
            counters(&engine),
            (named + devices.len() as u64, recomputed),
            "{delta:?}"
        );
        assert_eq!(
            engine.deltas_since(engine.version() - 1).unwrap()[0].devices,
            devices
        );
        assert_matches_batch(&mut engine);
    }

    let (named, recomputed) = counters(&engine);
    let devices = engine
        .apply_topology(&TopologyDelta::DeviceDown { device: core })
        .unwrap();
    assert!(devices.len() > 1 && devices.contains(&core));
    // The core lost its table; the aggs under it only lost an ECMP leg.
    assert_eq!(
        counters(&engine),
        (named + devices.len() as u64, recomputed + 1)
    );
    assert_matches_batch(&mut engine);
}

/// Churn tests to strand garbage, collect, and check both halves of
/// the GC contract: nodes are reclaimed, and every surviving covered
/// set answers identically after relocation.
#[test]
fn gc_reclaims_garbage_and_preserves_answers() {
    use netbdd::PortableBdd;
    let (n, tor, _, _) = build();
    let mut engine = CoverageEngine::new(n, 1);
    for i in 0..16 {
        engine
            .add_test(
                &format!("t{i}"),
                &mark_trace(tor, &format!("10.{i}.0.0/16")),
            )
            .unwrap();
    }
    for i in 0..15 {
        engine.remove_test(&format!("t{i}")).unwrap();
    }
    let before: Vec<(RuleId, PortableBdd)> = engine
        .net
        .rules()
        .map(|(id, _)| (id, engine.bdd.export(engine.covered.get(id))))
        .collect();
    let stats = engine.gc();
    assert!(stats.reclaimed() > 0, "churn left no garbage to reclaim");
    assert_eq!(engine.bdd.node_count(), stats.nodes_after);
    assert_eq!(engine.gc_collections(), 1);
    for (id, p) in &before {
        assert_eq!(
            &engine.bdd.export(engine.covered.get(*id)),
            p,
            "covered set changed across GC at {id:?}"
        );
    }
    // The engine still computes correct fresh results in the
    // compacted arena.
    assert_matches_batch(&mut engine);
}

/// An armed watermark runs the collector automatically once a delta
/// leaves the arena above it.
#[test]
fn watermark_triggers_automatic_collection() {
    let (n, tor, _, _) = build();
    let mut engine = CoverageEngine::new(n, 1);
    engine.set_gc_watermark(Some(engine.bdd.node_count()));
    engine
        .add_test("t", &mark_trace(tor, "10.1.2.0/24"))
        .unwrap();
    assert!(engine.gc_collections() >= 1, "watermark never fired");
    assert_matches_batch(&mut engine);
}
