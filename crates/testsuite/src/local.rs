//! Local symbolic tests: they validate one device's forwarding behaviour
//! at a time and report coverage via `markPacket` at that device (§5.1).
//!
//! All three contract tests instantiate the RCDC idea the paper cites:
//! decompose an end-to-end invariant into per-device forwarding
//! contracts. For a prefix originated at device `v`, the contract at a
//! device `d` hops away is "forward the prefix to all neighbors at
//! distance `d − 1`" — on this network design, internal destinations are
//! routed along the full set of topological shortest paths (§7.3).

use std::collections::VecDeque;

use netbdd::Bdd;
use netmodel::header;
use netmodel::topology::{DeviceId, Topology};
use netmodel::{IfaceId, Location, Prefix};

use crate::context::{TestContext, TestReport};
use crate::shard::RoleFilter;

/// BFS hop distances from `from` over the raw topology.
fn hop_distances(topo: &Topology, from: DeviceId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; topo.device_count()];
    let mut q = VecDeque::new();
    dist[from.0 as usize] = 0;
    q.push_back(from);
    while let Some(v) = q.pop_front() {
        let dv = dist[v.0 as usize];
        for (_i, u) in topo.neighbors(v) {
            if dist[u.0 as usize] == u32::MAX {
                dist[u.0 as usize] = dv + 1;
                q.push_back(u);
            }
        }
    }
    dist
}

/// Check one device's local contract for one prefix: its FIB rule for
/// `prefix` forwards to exactly the distance-reducing neighbor links.
/// Marks the prefix's packet set at the device either way (the state was
/// symbolically analysed even if the assertion fails).
fn check_contract(
    bdd: &mut Bdd,
    ctx: &mut TestContext<'_>,
    report: &mut TestReport,
    device: DeviceId,
    prefix: Prefix,
    dist: &[u32],
) {
    let topo = ctx.net.topology();
    let name = &topo.device(device).name;
    let d = dist[device.0 as usize];
    debug_assert!(d > 0, "contracts are for non-originators");
    let packets = header::dst_in(bdd, &prefix);
    ctx.tracker
        .mark_packet(bdd, Location::device(device), packets);

    let rule = ctx
        .net
        .device_rule_ids(device)
        .map(|id| ctx.net.rule(id))
        .find(|r| r.matches.dst == Some(prefix));
    let Some(rule) = rule else {
        report.check(false, || format!("{name}: no route for {prefix}"));
        return;
    };
    let mut expected: Vec<IfaceId> = topo
        .neighbors(device)
        .into_iter()
        .filter(|&(_, n)| dist[n.0 as usize] == d - 1)
        .map(|(i, _)| i)
        .collect();
    expected.sort();
    let mut got: Vec<IfaceId> = rule.action.out_ifaces().to_vec();
    got.sort();
    report.check(got == expected, || {
        format!(
            "{name}: {prefix} forwarded via {:?}, contract requires the full \
             shortest-path set {:?}",
            got, expected
        )
    });
}

/// One `(originator, prefix)` contract at every reachable device whose
/// role `roles` accepts — the unit of AggCanReachTorLoopback (§7.2:
/// aggregation routers, ToR loopbacks), InternalRouteCheck (§7.3: every
/// router, every host subnet and loopback: forwarded through and only
/// through the full set of topological shortest paths) and ToRContract
/// (§8: every router, ToR hosted prefixes — the decomposed form of
/// ToRReachability).
pub(crate) fn check_contract_prefix(
    bdd: &mut Bdd,
    ctx: &mut TestContext<'_>,
    report: &mut TestReport,
    origin: DeviceId,
    prefix: Prefix,
    roles: RoleFilter,
) {
    let topo = ctx.net.topology();
    let dist = hop_distances(topo, origin);
    let devices: Vec<DeviceId> = topo
        .devices()
        .filter(|&(v, dev)| {
            v != origin && dist[v.0 as usize] != u32::MAX && roles.accepts(dev.role)
        })
        .map(|(v, _)| v)
        .collect();
    for v in devices {
        check_contract(bdd, ctx, report, v, prefix, &dist);
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::{regional_info, run_named};
    use crate::{named_test, NetworkInfo};
    use netbdd::Bdd;
    use netmodel::MatchSets;
    use topogen::{fattree, regional, FatTreeParams, RegionalParams};
    use yardstick::Tracker;

    #[test]
    fn internal_route_check_passes_on_regional() {
        let r = regional(RegionalParams::default());
        let info = regional_info(&r);
        let mut tracker = Tracker::new();
        let report = run_named(
            &mut Bdd::new(),
            &r.net,
            &info,
            "InternalRouteCheck",
            &mut tracker,
        );
        assert!(
            report.passed(),
            "{:?}",
            &report.failures[..report.failures.len().min(5)]
        );
        assert!(report.checks > 0);
        // Every device got packet marks (internal prefixes reach all).
        assert_eq!(
            tracker.trace().packets.devices().len(),
            r.net.topology().device_count()
        );
    }

    #[test]
    fn internal_route_check_catches_partial_nexthop_sets() {
        // Null-route one internal prefix at one spine: the contract
        // breaks both at the spine (wrong action) — and the check sees a
        // forwarding set that differs from the shortest-path set.
        let mut r = regional(RegionalParams::default());
        let (_, p, _) = r.tors[0];
        let spine = r.spines[0];
        topogen::faults::null_route(&mut r.net, spine, p);
        let info = regional_info(&r);
        let mut tracker = Tracker::new();
        let report = run_named(
            &mut Bdd::new(),
            &r.net,
            &info,
            "InternalRouteCheck",
            &mut tracker,
        );
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("shortest-path set")));
    }

    #[test]
    fn tor_contract_passes_on_fattree() {
        let ft = fattree(FatTreeParams::paper(4));
        let info = NetworkInfo {
            tor_subnets: ft.tors.clone(),
            ..NetworkInfo::default()
        };
        let mut tracker = Tracker::new();
        let report = run_named(&mut Bdd::new(), &ft.net, &info, "ToRContract", &mut tracker);
        assert!(
            report.passed(),
            "{:?}",
            &report.failures[..report.failures.len().min(5)]
        );
        // 8 prefixes × 19 other devices.
        assert_eq!(report.checks, 8 * 19);
    }

    #[test]
    fn agg_loopback_check_only_touches_aggs() {
        let r = regional(RegionalParams::default());
        let info = regional_info(&r);
        let mut tracker = Tracker::new();
        let report = run_named(
            &mut Bdd::new(),
            &r.net,
            &info,
            "AggCanReachTorLoopback",
            &mut tracker,
        );
        assert!(
            report.passed(),
            "{:?}",
            &report.failures[..report.failures.len().min(5)]
        );
        // Marks exist exactly at aggregation routers.
        let marked = tracker.trace().packets.devices();
        assert_eq!(marked.len(), r.aggs.len());
        assert!(marked.iter().all(|d| r.aggs.contains(d)));
    }

    #[test]
    fn missing_route_is_reported() {
        let mut ft = fattree(FatTreeParams::paper(4));
        let (_, p, _) = ft.tors[3];
        let agg = ft.aggs[0];
        topogen::faults::remove_route(&mut ft.net, agg, p);
        let info = NetworkInfo {
            tor_subnets: ft.tors.clone(),
            ..NetworkInfo::default()
        };
        let report = run_named(
            &mut Bdd::new(),
            &ft.net,
            &info,
            "ToRContract",
            &mut Tracker::new(),
        );
        assert!(report.failures.iter().any(|f| f.contains("no route")));
    }

    #[test]
    fn disabled_tracking_records_nothing_but_checks_run() {
        let ft = fattree(FatTreeParams::paper(4));
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&ft.net, &mut bdd);
        let info = NetworkInfo {
            tor_subnets: ft.tors.clone(),
            ..NetworkInfo::default()
        };
        let mut tracker = Tracker::disabled();
        let report = named_test("ToRContract")
            .run(&mut bdd, &ft.net, &ms, &info, &mut tracker, 0)
            .unwrap();
        assert!(report.passed());
        assert!(tracker.trace().is_empty());
    }
}
