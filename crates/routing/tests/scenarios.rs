//! Failure-scenario differential tests for the incremental
//! [`RoutingEngine`]: validation error paths (every malformed delta is a
//! named `RibError`, never a panic), plus the bit-identity gate — every random
//! failure/recovery sequence re-converged incrementally must produce
//! exactly the FIBs a from-scratch rebuild (and the message-passing eBGP
//! simulator) computes for the degraded topology.

use netmodel::provenance::Construct;
use netmodel::rule::{RouteClass, Rule};
use netmodel::topology::{DeviceId, IfaceId, IfaceKind, Role, Topology};
use netmodel::{Network, Prefix};
use proptest::prelude::*;
use routing::{
    FibChange, FibDiff, Origination, RibBuilder, RibError, RoutingEngine, Scope, StaticRoute,
    StaticTarget, TopologyDelta,
};

mod bgp;
use bgp::{try_simulate, BgpConfig};

/// A two-tier mini-Clos: 2 ToRs, 2 aggs, 2 spines, full bipartite
/// wiring per tier boundary. Exercises anycast (two spine defaults),
/// scope (`MinTier` WAN route the ToRs refuse), blocking (agg1 refuses
/// the WAN route), and — when `with_statics` — the admin-distance merge
/// (Connected, StaticDefault, null route, degenerate empty ECMP set).
fn mini_builder(with_statics: bool) -> RibBuilder {
    let mut t = Topology::new();
    let tor0 = t.add_device("tor0", Role::Tor);
    let tor1 = t.add_device("tor1", Role::Tor);
    let agg0 = t.add_device("agg0", Role::Aggregation);
    let agg1 = t.add_device("agg1", Role::Aggregation);
    let spine0 = t.add_device("spine0", Role::Spine);
    let spine1 = t.add_device("spine1", Role::Spine);
    let h0 = t.add_iface(tor0, "hosts", IfaceKind::Host);
    let h1 = t.add_iface(tor1, "hosts", IfaceKind::Host);
    let wan_up = t.add_iface(spine0, "internet", IfaceKind::External);
    let (t0a0, _) = t.add_link(tor0, agg0);
    let (t0a1, _) = t.add_link(tor0, agg1);
    t.add_link(tor1, agg0);
    t.add_link(tor1, agg1);
    t.add_link(agg0, spine0);
    t.add_link(agg0, spine1);
    t.add_link(agg1, spine0);
    t.add_link(agg1, spine1);

    let mut rb = RibBuilder::new(t);
    for (d, tier) in [
        (tor0, 0u8),
        (tor1, 0),
        (agg0, 1),
        (agg1, 1),
        (spine0, 2),
        (spine1, 2),
    ] {
        rb.set_tier(d, tier);
        rb.set_asn(d, 65000 + d.0);
    }
    rb.originate(Origination::new(
        tor0,
        "10.0.0.0/24".parse().unwrap(),
        RouteClass::HostSubnet,
        Some(h0),
        Scope::All,
    ));
    rb.originate(Origination::new(
        tor1,
        "10.0.1.0/24".parse().unwrap(),
        RouteClass::HostSubnet,
        Some(h1),
        Scope::All,
    ));
    // Anycast default from both spines (spine1 advertises but
    // blackholes: deliver = None).
    rb.originate(Origination::new(
        spine0,
        Prefix::v4_default(),
        RouteClass::BgpDefault,
        Some(wan_up),
        Scope::All,
    ));
    rb.originate(Origination::new(
        spine1,
        Prefix::v4_default(),
        RouteClass::BgpDefault,
        None,
        Scope::All,
    ));
    // Scoped WAN route the ToRs never install, blocked on agg1.
    let mut wan = Origination::new(
        spine0,
        "52.0.0.0/16".parse().unwrap(),
        RouteClass::Wan,
        Some(wan_up),
        Scope::MinTier(1),
    );
    wan.blocked.push(agg1);
    rb.originate(wan);

    if with_statics {
        // Static default on tor0, ECMP north over both uplinks; its
        // next-hop set shrinks when an uplink dies.
        rb.add_static(StaticRoute {
            device: tor0,
            prefix: Prefix::v4_default(),
            target: StaticTarget::Ifaces(vec![t0a0, t0a1]),
            class: RouteClass::StaticDefault,
        });
        // Connected route over the tor0-agg0 link (admin distance 0).
        rb.add_static(StaticRoute {
            device: tor0,
            prefix: "192.168.0.0/31".parse().unwrap(),
            target: StaticTarget::Ifaces(vec![t0a0]),
            class: RouteClass::Connected,
        });
        // Null route (Figure 1's B2) and a degenerate empty ECMP set,
        // both of which must survive any failure state verbatim.
        rb.add_static(StaticRoute {
            device: agg0,
            prefix: "10.9.0.0/16".parse().unwrap(),
            target: StaticTarget::Null,
            class: RouteClass::Other,
        });
        rb.add_static(StaticRoute {
            device: agg1,
            prefix: "10.8.0.0/16".parse().unwrap(),
            target: StaticTarget::Ifaces(Vec::new()),
            class: RouteClass::Other,
        });
    }
    rb
}

fn mini_engine(with_statics: bool) -> (RoutingEngine, Network) {
    mini_builder(with_statics).into_engine().unwrap()
}

fn assert_identical(got: &Network, want: &Network, what: &str) {
    for (d, dev) in want.topology().devices() {
        assert_eq!(
            got.device_rules(d),
            want.device_rules(d),
            "{what}: FIB of {} diverged",
            dev.name
        );
    }
}

#[test]
fn engine_healthy_network_matches_try_build() {
    let (_, net) = mini_engine(true);
    let batch = mini_builder(true).try_build().unwrap();
    assert_identical(&net, &batch, "healthy state");
}

// ---- satellite: validation error paths (RibError discipline) ----

#[test]
fn link_down_unknown_device_is_rejected() {
    let (mut engine, mut net) = mini_engine(true);
    let err = engine
        .apply(
            &mut net,
            &TopologyDelta::LinkDown {
                a: DeviceId(99),
                b: DeviceId(0),
            },
        )
        .unwrap_err();
    assert!(
        matches!(err, RibError::UnknownDevice { device, .. } if device == DeviceId(99)),
        "got {err:?}"
    );
    assert!(err.to_string().contains("topology delta"));
}

#[test]
fn link_down_unlinked_pair_is_rejected() {
    let (mut engine, mut net) = mini_engine(true);
    // tor0 and tor1 are not adjacent.
    let err = engine
        .apply(
            &mut net,
            &TopologyDelta::LinkDown {
                a: DeviceId(0),
                b: DeviceId(1),
            },
        )
        .unwrap_err();
    assert_eq!(
        err,
        RibError::UnknownLink {
            a: DeviceId(0),
            b: DeviceId(1)
        }
    );
}

#[test]
fn double_link_down_is_rejected() {
    let (mut engine, mut net) = mini_engine(true);
    let d = TopologyDelta::LinkDown {
        a: DeviceId(0),
        b: DeviceId(2),
    };
    engine.apply(&mut net, &d).unwrap();
    let err = engine.apply(&mut net, &d).unwrap_err();
    assert_eq!(
        err,
        RibError::LinkAlreadyDown {
            a: DeviceId(0),
            b: DeviceId(2)
        }
    );
}

#[test]
fn link_up_of_live_link_is_rejected() {
    let (mut engine, mut net) = mini_engine(true);
    let err = engine
        .apply(
            &mut net,
            &TopologyDelta::LinkUp {
                a: DeviceId(0),
                b: DeviceId(2),
            },
        )
        .unwrap_err();
    assert_eq!(
        err,
        RibError::LinkNotDown {
            a: DeviceId(0),
            b: DeviceId(2)
        }
    );
}

#[test]
fn device_state_mismatches_are_rejected() {
    let (mut engine, mut net) = mini_engine(true);
    let err = engine
        .apply(
            &mut net,
            &TopologyDelta::DeviceUp {
                device: DeviceId(4),
            },
        )
        .unwrap_err();
    assert_eq!(
        err,
        RibError::DeviceNotDown {
            device: DeviceId(4)
        }
    );
    engine
        .apply(
            &mut net,
            &TopologyDelta::DeviceDown {
                device: DeviceId(4),
            },
        )
        .unwrap();
    let err = engine
        .apply(
            &mut net,
            &TopologyDelta::DeviceDown {
                device: DeviceId(4),
            },
        )
        .unwrap_err();
    assert_eq!(
        err,
        RibError::DeviceAlreadyDown {
            device: DeviceId(4)
        }
    );
    let err = engine
        .apply(
            &mut net,
            &TopologyDelta::DeviceDown {
                device: DeviceId(99),
            },
        )
        .unwrap_err();
    assert!(matches!(err, RibError::UnknownDevice { .. }), "got {err:?}");
}

#[test]
fn rejected_deltas_leave_state_untouched() {
    let (mut engine, mut net) = mini_engine(true);
    let baseline = engine.full_rebuild().unwrap();
    for bad in [
        TopologyDelta::LinkDown {
            a: DeviceId(0),
            b: DeviceId(1),
        },
        TopologyDelta::LinkUp {
            a: DeviceId(0),
            b: DeviceId(2),
        },
        TopologyDelta::DeviceUp {
            device: DeviceId(3),
        },
    ] {
        engine.apply(&mut net, &bad).unwrap_err();
    }
    assert_identical(&net, &baseline, "after rejected deltas");
}

// ---- flap determinism ----

#[test]
fn link_flap_restores_baseline_bit_identically() {
    let (mut engine, mut net) = mini_engine(true);
    let healthy = mini_builder(true).try_build().unwrap();
    let down = TopologyDelta::LinkDown {
        a: DeviceId(0),
        b: DeviceId(2),
    };
    let up = TopologyDelta::LinkUp {
        a: DeviceId(0),
        b: DeviceId(2),
    };
    let diff = engine.apply(&mut net, &down).unwrap();
    assert!(!diff.is_empty(), "a live uplink failure must edit the FIB");
    assert_identical(&net, &engine.full_rebuild().unwrap(), "degraded");
    let diff = engine.apply(&mut net, &up).unwrap();
    assert!(!diff.is_empty());
    assert_identical(&net, &healthy, "after recovery");
}

#[test]
fn device_flap_restores_baseline_bit_identically() {
    let (mut engine, mut net) = mini_engine(true);
    let healthy = mini_builder(true).try_build().unwrap();
    for dev in [2u32, 4] {
        let device = DeviceId(dev);
        let diff = engine
            .apply(&mut net, &TopologyDelta::DeviceDown { device })
            .unwrap();
        assert!(diff.devices().contains(&device));
        assert_identical(&net, &engine.full_rebuild().unwrap(), "device down");
        engine
            .apply(&mut net, &TopologyDelta::DeviceUp { device })
            .unwrap();
        assert_identical(&net, &healthy, "after device recovery");
    }
}

/// The k=4 fat-tree's fabric and hosted /24s (as `topogen` wires them:
/// pod by pod, ToRs then aggs, cores last), without its statics.
fn fattree_k4() -> RibBuilder {
    let mut t = Topology::new();
    let mut tors = Vec::new();
    let mut aggs = Vec::new();
    for p in 0..4 {
        for i in 0..2 {
            tors.push(t.add_device(format!("tor-{p}-{i}"), Role::Tor));
        }
        for i in 0..2 {
            aggs.push(t.add_device(format!("agg-{p}-{i}"), Role::Aggregation));
        }
    }
    let cores: Vec<DeviceId> = (0..4)
        .map(|c| t.add_device(format!("core-{c}"), Role::Spine))
        .collect();
    let hosts: Vec<IfaceId> = tors
        .iter()
        .map(|&d| t.add_iface(d, "hosts", IfaceKind::Host))
        .collect();
    for p in 0..4 {
        for &tor in &tors[2 * p..2 * p + 2] {
            for &agg in &aggs[2 * p..2 * p + 2] {
                t.add_link(tor, agg);
            }
        }
        for (a, &agg) in aggs[2 * p..2 * p + 2].iter().enumerate() {
            for &core in &cores[2 * a..2 * a + 2] {
                t.add_link(agg, core);
            }
        }
    }
    let mut rb = RibBuilder::new(t);
    for (tier, devs) in [(0u8, &tors), (1, &aggs), (2, &cores)] {
        for &d in devs {
            rb.set_tier(d, tier);
            rb.set_asn(d, 65000 + d.0);
        }
    }
    for (i, (&tor, &h)) in tors.iter().zip(&hosts).enumerate() {
        rb.originate(Origination::new(
            tor,
            format!("10.0.{i}.0/24").parse().unwrap(),
            RouteClass::HostSubnet,
            Some(h),
            Scope::All,
        ));
    }
    rb
}

/// An originator cut off from every neighbour still holds its own
/// prefix; taken down it holds nothing, and brought back up with no live
/// link, it must be seeded again on its own.
#[test]
fn an_isolated_originator_goes_down_and_comes_back() {
    let (mut engine, mut net) = fattree_k4().into_engine().unwrap();
    let (tor0, agg0, agg1) = (DeviceId(0), DeviceId(2), DeviceId(3));
    let own: Prefix = "10.0.0.0/24".parse().unwrap();
    let holds_own = |net: &Network| {
        net.device_rules(tor0)
            .iter()
            .any(|r| r.matches.dst == Some(own))
    };
    for (delta, up) in [
        (TopologyDelta::LinkDown { a: tor0, b: agg0 }, true),
        (TopologyDelta::LinkDown { a: tor0, b: agg1 }, true),
        (TopologyDelta::DeviceDown { device: tor0 }, false),
        (TopologyDelta::DeviceUp { device: tor0 }, true),
        (TopologyDelta::LinkUp { a: tor0, b: agg0 }, true),
        (TopologyDelta::LinkUp { a: tor0, b: agg1 }, true),
    ] {
        engine.apply(&mut net, &delta).unwrap();
        let what = format!("after {delta:?}");
        assert_identical(&net, &engine.full_rebuild().unwrap(), &what);
        assert_eq!(holds_own(&net), up, "{what}: tor0's own /24");
    }
}

// ---- the in-place replacement contract ----

/// Every table of the network, as owned rows.
fn tables(net: &Network) -> Vec<Vec<Rule>> {
    net.topology()
        .devices()
        .map(|(d, _)| net.device_rules(d).to_vec())
        .collect()
}

/// The `FibChange` contract, checked against the tables from before the
/// delta: on a device all of whose changes are replacements, each
/// replaced rule sits where its predecessor sat and nothing else moved.
fn replaced_in_place(before: &[Vec<Rule>], diff: &FibDiff, net: &Network) -> Result<(), String> {
    for changes in diff.changes.chunk_by(|x, y| x.device == y.device) {
        if !changes.iter().all(FibChange::is_replacement) {
            continue;
        }
        let device = changes[0].device;
        let mut want = before[device.0 as usize].clone();
        for c in changes {
            let at = want
                .iter()
                .position(|r| Some(r) == c.old.as_ref())
                .ok_or(format!(
                    "{:?}: the old rule of {} was not installed",
                    device, c.prefix
                ))?;
            want[at] = c.new.clone().expect("a replacement has a new rule");
        }
        if net.device_rules(device) != want {
            return Err(format!(
                "{device:?}: a replacement moved a rule: {:?}, expected {want:?}",
                net.device_rules(device)
            ));
        }
    }
    Ok(())
}

/// A user rule whose prefix sorts *before* the managed /24s of its
/// table, appended after them by `insert_sorted`: the length class is no
/// longer in canonical order, so a withdraw + `insert_canonical` of a
/// managed /24 would land behind the user rule. A replacement never
/// looks a position up, so it cannot be perturbed.
#[test]
fn a_replacement_stays_put_where_user_rules_unsort_its_length_class() {
    let (mut engine, mut net) = mini_engine(true);
    let (tor0, agg1) = (DeviceId(0), DeviceId(3));
    net.insert_rule(
        tor0,
        Rule::null_route("9.0.0.0/24".parse().unwrap(), RouteClass::Other),
    );
    let dsts = |net: &Network| -> Vec<String> {
        net.device_rules(tor0)
            .iter()
            .map(|r| r.matches.dst.unwrap().to_string())
            .collect()
    };
    let order = [
        "192.168.0.0/31",
        "10.0.0.0/24",
        "10.0.1.0/24",
        "9.0.0.0/24",
        "0.0.0.0/0",
    ];
    assert_eq!(dsts(&net), order);
    for delta in [
        TopologyDelta::LinkDown { a: tor0, b: agg1 },
        TopologyDelta::LinkUp { a: tor0, b: agg1 },
    ] {
        let before = tables(&net);
        let diff = engine.apply(&mut net, &delta).unwrap();
        // tor0's route to tor1's /24 and its static default narrow to
        // (widen from) the agg0 leg; nothing of tor0 comes or goes.
        let on_tor0: Vec<&FibChange> = diff.changes.iter().filter(|c| c.device == tor0).collect();
        assert!(
            on_tor0.len() == 2 && on_tor0.iter().all(|c| c.is_replacement()),
            "{delta:?}: {on_tor0:?}"
        );
        replaced_in_place(&before, &diff, &net).unwrap();
        assert_eq!(dsts(&net), order, "after {delta:?}");
    }
}

// ---- provenance attribution ----

#[test]
fn healthy_provenance_attributes_every_entry() {
    let (engine, net) = mini_engine(true);
    let db = engine.config_db();
    // Every engine-managed FIB rule is attributed to ≥1 construct.
    for (d, _) in net.topology().devices() {
        for r in net.device_rules(d) {
            let prefix = r.matches.dst.unwrap();
            let via = db
                .attribution(d, prefix)
                .unwrap_or_else(|| panic!("no attribution for {prefix} on {d:?}"));
            assert!(!via.is_empty(), "{prefix} on {d:?} attributed to nothing");
            // And only to constructs of the live universe.
            for c in via {
                assert!(db.constructs.contains(c), "{c} not in the universe");
            }
        }
    }
    // Statics win their keys: tor0's default is attributed to the
    // static, not to the anycast BGP default behind it.
    let tor0 = DeviceId(0);
    let via = db.attribution(tor0, Prefix::v4_default()).unwrap();
    assert_eq!(
        via.iter().collect::<Vec<_>>(),
        vec![&Construct::Static {
            device: tor0,
            prefix: Prefix::v4_default(),
        }]
    );
    // A remote host route's provenance reaches back to the origination.
    let p1: Prefix = "10.0.1.0/24".parse().unwrap();
    let via = db.attribution(tor0, p1).unwrap();
    assert!(via.contains(&Construct::Origination {
        device: DeviceId(1),
        prefix: p1,
    }));
    // tor0 reaches tor1's prefix over both aggs: both first-hop
    // sessions (and both second-hop sessions) are on the ECMP paths.
    for agg in [DeviceId(2), DeviceId(3)] {
        assert!(via.contains(&Construct::session(tor0, agg)));
        assert!(via.contains(&Construct::session(agg, DeviceId(1))));
    }
}

#[test]
fn provenance_follows_a_link_flap() {
    let (mut engine, mut net) = mini_engine(true);
    let tor0 = DeviceId(0);
    let (agg0, agg1) = (DeviceId(2), DeviceId(3));
    let p1: Prefix = "10.0.1.0/24".parse().unwrap();
    let healthy = engine.config_db();
    engine
        .apply(&mut net, &TopologyDelta::LinkDown { a: tor0, b: agg0 })
        .unwrap();
    let degraded = engine.config_db();
    // The dead session leaves the universe and tor0's path to tor1's
    // prefix narrows to the agg1 leg only.
    assert!(!degraded
        .constructs
        .contains(&Construct::session(tor0, agg0)));
    let via = degraded.attribution(tor0, p1).unwrap();
    assert!(!via.contains(&Construct::session(tor0, agg0)));
    assert!(via.contains(&Construct::session(tor0, agg1)));
    // Recovery restores the healthy attribution database exactly.
    engine
        .apply(&mut net, &TopologyDelta::LinkUp { a: tor0, b: agg0 })
        .unwrap();
    assert_eq!(engine.config_db(), healthy);
}

// ---- differential proptest: random sequences ----

/// Interpret a `(kind, pick)` pair against the engine's current failure
/// state, returning a delta that is valid by construction (or `None`
/// when the kind has no candidates, e.g. no link is down).
fn interpret(
    engine: &RoutingEngine,
    kind: u8,
    pick: u16,
    down_links: &mut [bool],
    down_devs: &mut [bool],
) -> Option<TopologyDelta> {
    let eps = engine.link_endpoints();
    match kind % 4 {
        0 => {
            let cands: Vec<usize> = (0..eps.len()).filter(|&l| !down_links[l]).collect();
            let l = *cands.get(pick as usize % cands.len().max(1))?;
            down_links[l] = true;
            Some(TopologyDelta::LinkDown {
                a: eps[l].0,
                b: eps[l].1,
            })
        }
        1 => {
            let cands: Vec<usize> = (0..eps.len()).filter(|&l| down_links[l]).collect();
            if cands.is_empty() {
                return None;
            }
            let l = cands[pick as usize % cands.len()];
            down_links[l] = false;
            Some(TopologyDelta::LinkUp {
                a: eps[l].0,
                b: eps[l].1,
            })
        }
        2 => {
            let cands: Vec<u32> = (0..down_devs.len() as u32)
                .filter(|&d| !down_devs[d as usize])
                .collect();
            if cands.is_empty() {
                return None;
            }
            let d = cands[pick as usize % cands.len()];
            down_devs[d as usize] = true;
            Some(TopologyDelta::DeviceDown {
                device: DeviceId(d),
            })
        }
        _ => {
            let cands: Vec<u32> = (0..down_devs.len() as u32)
                .filter(|&d| down_devs[d as usize])
                .collect();
            if cands.is_empty() {
                return None;
            }
            let d = cands[pick as usize % cands.len()];
            down_devs[d as usize] = false;
            Some(TopologyDelta::DeviceUp {
                device: DeviceId(d),
            })
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole gate: after EVERY delta in a random
    /// failure/recovery sequence, the incrementally re-converged FIBs
    /// are bit-identical (same rules, same order) to a from-scratch
    /// rebuild of the degraded control plane.
    #[test]
    fn incremental_matches_full_rebuild(
        ops in proptest::collection::vec((0u8..4, 0u16..1024), 1..12),
    ) {
        let (mut engine, mut net) = mini_engine(true);
        let mut down_links = vec![false; engine.link_count()];
        let mut down_devs = vec![false; net.topology().device_count()];
        for (kind, pick) in ops {
            let Some(delta) =
                interpret(&engine, kind, pick, &mut down_links, &mut down_devs)
            else {
                continue;
            };
            engine.apply(&mut net, &delta).unwrap();
            let rebuilt = engine.full_rebuild().unwrap();
            for d in 0..down_devs.len() as u32 {
                prop_assert_eq!(
                    net.device_rules(DeviceId(d)),
                    rebuilt.device_rules(DeviceId(d)),
                    "after {:?}: FIB of device {} diverged",
                    delta,
                    d
                );
            }
            // Same gate for provenance: the attribution database read
            // off the incrementally re-converged engine is bit-identical
            // to one built from scratch on the degraded topology.
            let (scratch, _) =
                engine.degraded_builder().into_engine().unwrap();
            prop_assert_eq!(
                engine.config_db(),
                scratch.config_db(),
                "after {:?}: provenance diverged",
                delta
            );
        }
    }

    /// Cross-check against the message-passing eBGP simulator: on a
    /// statics-free fabric, the incremental FIBs' ECMP sets agree with
    /// `try_simulate` of the degraded topology after every delta.
    #[test]
    fn incremental_matches_bgp_simulation(
        ops in proptest::collection::vec((0u8..4, 0u16..1024), 1..10),
    ) {
        let (mut engine, mut net) = mini_engine(false);
        let mut down_links = vec![false; engine.link_count()];
        let mut down_devs = vec![false; net.topology().device_count()];
        for (kind, pick) in ops {
            let Some(delta) =
                interpret(&engine, kind, pick, &mut down_links, &mut down_devs)
            else {
                continue;
            };
            engine.apply(&mut net, &delta).unwrap();
            let topo = engine.degraded_topology();
            let origs = engine.live_originations();
            let ribs = try_simulate(
                &topo,
                engine.asns(),
                engine.tiers(),
                &origs,
                &BgpConfig::default(),
            )
            .unwrap();
            for d in 0..down_devs.len() as u32 {
                let device = DeviceId(d);
                let mut built: Vec<(Prefix, Vec<IfaceId>)> = if down_devs[d as usize] {
                    // A downed device keeps no FIB state.
                    prop_assert!(net.device_rules(device).is_empty());
                    continue;
                } else {
                    net.device_rules(device)
                        .iter()
                        .map(|r| {
                            let mut outs = r.action.out_ifaces().to_vec();
                            outs.sort();
                            (r.matches.dst.unwrap(), outs)
                        })
                        .collect()
                };
                built.sort();
                let mut simulated: Vec<(Prefix, Vec<IfaceId>)> = Vec::new();
                for (prefix, route) in &ribs.ribs[d as usize] {
                    let outs = if route.next_hops.is_empty() {
                        let mut del: Vec<IfaceId> = origs
                            .iter()
                            .filter(|o| o.device == device && o.prefix == *prefix)
                            .filter_map(|o| o.deliver)
                            .collect();
                        del.sort();
                        del
                    } else {
                        let mut n = route.next_hops.clone();
                        n.sort();
                        n
                    };
                    if outs.is_empty() {
                        // Originator that advertises but blackholes:
                        // the FIB compiles no rule for it.
                        continue;
                    }
                    simulated.push((*prefix, outs));
                }
                simulated.sort();
                prop_assert_eq!(
                    built,
                    simulated,
                    "after {:?}: device {} disagrees with the simulator",
                    delta,
                    d
                );
            }
        }
    }

    /// The in-place contract under random failure/recovery sequences, on
    /// a network that also carries user-inserted rules of the prefix
    /// lengths the engine manages (`insert_sorted` puts them after the
    /// managed rules of their length): replacements never move a rule,
    /// and every table equals `full_rebuild` plus the user rules.
    #[test]
    fn replacements_stay_in_place_beside_user_rules(
        ops in proptest::collection::vec((0u8..4, 0u16..1024), 1..12),
    ) {
        let (mut engine, mut net) = mini_engine(true);
        // Prefixes above every managed one of their length, so gained
        // keys still find their canonical position in front of them.
        let users: Vec<(DeviceId, Rule)> = [
            (0, "203.0.113.0/24"),
            (2, "203.0.113.0/24"),
            (2, "203.0.0.0/16"),
            (4, "203.0.113.0/24"),
        ]
        .into_iter()
        .map(|(d, p)| (DeviceId(d), Rule::null_route(p.parse().unwrap(), RouteClass::Other)))
        .collect();
        for (d, rule) in &users {
            net.insert_rule(*d, rule.clone());
        }
        let mut down_links = vec![false; engine.link_count()];
        let mut down_devs = vec![false; net.topology().device_count()];
        for (kind, pick) in ops {
            let Some(delta) =
                interpret(&engine, kind, pick, &mut down_links, &mut down_devs)
            else {
                continue;
            };
            let before = tables(&net);
            let diff = engine.apply(&mut net, &delta).unwrap();
            if let Err(e) = replaced_in_place(&before, &diff, &net) {
                prop_assert!(false, "after {:?}: {}", delta, e);
            }
            let mut want = engine.full_rebuild().unwrap();
            for (d, rule) in &users {
                want.insert_rule(*d, rule.clone());
            }
            prop_assert_eq!(tables(&net), tables(&want), "after {:?}", delta);
        }
    }
}
