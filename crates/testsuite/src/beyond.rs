//! Beyond the paper: the two tests §7.3 leaves as open work.
//!
//! * The engineers "have yet to define a test for wide-area routes. The
//!   challenge is that there is not yet any specification of the routes
//!   to expect from the wide-area network." In this reproduction the
//!   generator *is* the specification, so WanRouteCheck
//!   (`check_wan_prefix`) closes that gap: every upper-tier router
//!   carries every expected WAN prefix and forwards it along shortest
//!   paths towards the WAN routers.
//! * "We discovered that host-facing interfaces are not being tested,
//!   and as a result, will be developing another new test for these
//!   interfaces soon." HostPortCheck (`check_host_port`) is that test:
//!   each ToR host port has the forwarding rule for its subnet slice.

use std::collections::VecDeque;

use netbdd::Bdd;
use netmodel::header;
use netmodel::topology::{DeviceId, Role, Topology};
use netmodel::{IfaceId, Location, Prefix};

use crate::context::{TestContext, TestReport};

/// Multi-source BFS distances over the subgraph of devices for which
/// `member` holds.
fn subgraph_distances(
    topo: &Topology,
    sources: &[DeviceId],
    member: impl Fn(DeviceId) -> bool,
) -> Vec<u32> {
    let mut dist = vec![u32::MAX; topo.device_count()];
    let mut q = VecDeque::new();
    for &s in sources {
        if dist[s.0 as usize] == u32::MAX {
            dist[s.0 as usize] = 0;
            q.push_back(s);
        }
    }
    while let Some(v) = q.pop_front() {
        let dv = dist[v.0 as usize];
        for (_i, u) in topo.neighbors(v) {
            if dist[u.0 as usize] == u32::MAX && member(u) {
                dist[u.0 as usize] = dv + 1;
                q.push_back(u);
            }
        }
    }
    dist
}

/// The tiers a WAN route may cross: the route-leak policy keeps it above
/// the aggregation layer.
fn carries_wan_routes(role: Role) -> bool {
    matches!(role, Role::Spine | Role::RegionalHub | Role::Wan)
}

/// WanRouteCheck (beyond §7.3) for one WAN prefix, a local symbolic
/// contract check: each WAN router delivers the prefix out an external
/// interface, and every other upper-tier router carries it and forwards
/// it to the full set of shortest-path neighbors towards the WAN routers
/// (staying inside the upper tiers).
pub(crate) fn check_wan_prefix(
    bdd: &mut Bdd,
    ctx: &mut TestContext<'_>,
    report: &mut TestReport,
    prefix: Prefix,
) {
    let topo = ctx.net.topology();
    let wans = &ctx.info.wan_routers;
    let member = |d: DeviceId| carries_wan_routes(topo.device(d).role) || wans.contains(&d);
    let dist = subgraph_distances(topo, wans, member);
    // At the WAN routers themselves the prefix must deliver out an
    // external interface (they are where the route enters).
    for &wan in wans {
        let name = &topo.device(wan).name;
        let found = ctx
            .net
            .device_rule_ids(wan)
            .find(|&id| ctx.net.rule(id).matches.dst == Some(prefix));
        match found {
            Some(id) => {
                ctx.tracker.mark_rule(id);
                let rule = ctx.net.rule(id);
                let ok = rule
                    .action
                    .out_ifaces()
                    .iter()
                    .any(|&i| topo.iface(i).kind == netmodel::IfaceKind::External);
                report.check(ok, || {
                    format!("{name}: WAN prefix {prefix} does not exit externally")
                });
            }
            None => report.check(false, || format!("{name}: missing WAN route {prefix}")),
        }
    }
    for (device, dev) in topo.devices() {
        let d = dist[device.0 as usize];
        if !carries_wan_routes(dev.role) || wans.contains(&device) || d == u32::MAX {
            continue;
        }
        let name = &dev.name;
        // The local symbolic analysis of this prefix at this device.
        let packets = header::dst_in(bdd, &prefix);
        ctx.tracker
            .mark_packet(bdd, Location::device(device), packets);

        let rule = ctx
            .net
            .device_rule_ids(device)
            .map(|id| ctx.net.rule(id))
            .find(|r| r.matches.dst == Some(prefix));
        let Some(rule) = rule else {
            report.check(false, || format!("{name}: missing WAN route {prefix}"));
            continue;
        };
        let mut expected_outs: Vec<IfaceId> = topo
            .neighbors(device)
            .into_iter()
            .filter(|&(_, n)| dist[n.0 as usize] == d.wrapping_sub(1))
            .map(|(i, _)| i)
            .collect();
        expected_outs.sort();
        let mut got: Vec<IfaceId> = rule.action.out_ifaces().to_vec();
        got.sort();
        report.check(got == expected_outs, || {
            format!(
                "{name}: WAN prefix {prefix} forwarded via {:?}, expected the \
                 shortest-path set {:?} towards the WAN",
                got, expected_outs
            )
        });
    }
}

/// HostPortCheck (beyond §7.3) for one entry of `info.host_port_slices`:
/// the ToR carries the forwarding rule for the port's subnet slice,
/// pointing out that port. A state-inspection test, reported via
/// `markRule`.
pub(crate) fn check_host_port(
    ctx: &mut TestContext<'_>,
    report: &mut TestReport,
    slice_index: usize,
) {
    let (device, port, slice) = ctx.info.host_port_slices[slice_index];
    let name = &ctx.net.topology().device(device).name;
    let found = ctx
        .net
        .device_rule_ids(device)
        .find(|&id| ctx.net.rule(id).matches.dst == Some(slice));
    match found {
        Some(id) => {
            ctx.tracker.mark_rule(id);
            let rule = ctx.net.rule(id);
            report.check(rule.action.out_ifaces() == [port], || {
                format!(
                    "{name}: slice {slice} does not deliver out port {:?}",
                    ctx.net.topology().iface(port).name
                )
            });
        }
        None => report.check(false, || format!("{name}: missing slice route {slice}")),
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::{regional_info, run_named};
    use netbdd::Bdd;
    use netmodel::topology::Role;
    use netmodel::MatchSets;
    use topogen::{regional, RegionalParams};
    use yardstick::{Aggregator, Analyzer, Tracker};

    #[test]
    fn wan_route_check_passes_on_healthy_regional() {
        let r = regional(RegionalParams::default());
        let mut tracker = Tracker::new();
        let report = run_named(
            &mut Bdd::new(),
            &r.net,
            &regional_info(&r),
            "WanRouteCheck",
            &mut tracker,
        );
        assert!(
            report.passed(),
            "{:?}",
            &report.failures[..report.failures.len().min(3)]
        );
        // Marks exactly at spines and hubs.
        let marked = tracker.trace().packets.devices();
        assert!(marked
            .iter()
            .all(|d| r.spines.contains(d) || r.hubs.contains(d)));
        assert_eq!(marked.len(), r.spines.len() + r.hubs.len());
    }

    #[test]
    fn wan_route_check_detects_a_missing_route() {
        let mut r = regional(RegionalParams::default());
        topogen::faults::remove_route(&mut r.net, r.spines[0], r.wan_prefixes[0]);
        let info = regional_info(&r);
        let report = run_named(
            &mut Bdd::new(),
            &r.net,
            &info,
            "WanRouteCheck",
            &mut Tracker::new(),
        );
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("missing WAN route"));
    }

    #[test]
    fn host_port_check_passes_and_covers_ports() {
        let r = regional(RegionalParams::default());
        let mut tracker = Tracker::new();
        let report = run_named(
            &mut Bdd::new(),
            &r.net,
            &regional_info(&r),
            "HostPortCheck",
            &mut tracker,
        );
        assert!(report.passed(), "{:?}", report.failures.first());
        assert_eq!(report.checks as usize, r.host_port_slices.len());
        assert_eq!(tracker.trace().rules.len(), r.host_port_slices.len());
    }

    #[test]
    fn host_port_check_detects_missing_slice() {
        let mut r = regional(RegionalParams::default());
        let &(d, _, slice) = &r.host_port_slices[0];
        topogen::faults::remove_route(&mut r.net, d, slice);
        let info = regional_info(&r);
        let report = run_named(
            &mut Bdd::new(),
            &r.net,
            &info,
            "HostPortCheck",
            &mut Tracker::new(),
        );
        assert_eq!(report.failures.len(), 1);
    }

    /// The paper's arc, completed: with the two future-work tests added,
    /// the WAN-route gap and the host-interface gap both close.
    #[test]
    fn beyond_paper_suite_closes_the_remaining_gaps() {
        let r = regional(RegionalParams::default());
        let info = regional_info(&r);
        let mut bdd = Bdd::new();
        let mut tracker = Tracker::new();
        // Paper-final suite, plus the two new ones.
        for test in crate::suite("beyond").unwrap() {
            assert!(run_named(&mut bdd, &r.net, &info, test.name, &mut tracker).passed());
        }
        let ms = MatchSets::compute(&r.net, &mut bdd);
        let trace = tracker.into_trace();
        let a = Analyzer::new(&r.net, &ms, &trace, &mut bdd);
        let wan_cov = a
            .aggregate_rules(&mut bdd, Aggregator::Fractional, |_, rl| {
                rl.class == netmodel::RouteClass::Wan
            })
            .unwrap();
        assert_eq!(wan_cov, 1.0, "WAN routes now fully covered");
        let tor_ifaces = a
            .aggregate_out_ifaces(&mut bdd, Aggregator::Fractional, |_, f| {
                r.net.topology().device(f.device).role == Role::Tor
            })
            .unwrap();
        assert_eq!(tor_ifaces, 1.0, "host-facing ports now covered");
        // Overall rule coverage approaches 1 (only self-routes linger).
        let total = a
            .aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true)
            .unwrap();
        assert!(total > 0.85, "got {total}");
    }
}
