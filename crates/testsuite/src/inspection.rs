//! State-inspection tests: they read forwarding state directly and
//! report coverage via `markRule` (§5.1). Lightweight by design — the
//! paper measures their baseline runtime in fractions of a second even
//! on thousands of routers.

use netmodel::topology::{DeviceId, IfaceKind};
use netmodel::RuleId;

use crate::context::{TestContext, TestReport};

/// DefaultRouteCheck (§7.2, §8) at one device: the router has a default
/// route, and its next hops are exactly the northbound neighbors (or an
/// external uplink for top-tier routers).
pub(crate) fn check_default_route(
    ctx: &mut TestContext<'_>,
    report: &mut TestReport,
    device: DeviceId,
) {
    let topo = ctx.net.topology();
    let dev = topo.device(device);
    let default = ctx.net.device_rule_ids(device).find(|&id| {
        ctx.net
            .rule(id)
            .matches
            .dst
            .map(|p| p.is_default() && p.family() == netmodel::Family::V4)
            .unwrap_or(false)
    });
    let Some(id) = default else {
        report.check(false, || format!("{}: no default route", dev.name));
        return;
    };
    // Inspecting the rule counts as coverage whether or not the
    // assertion below passes — the rule *was* examined.
    ctx.tracker.mark_rule(id);
    let rule = ctx.net.rule(id);
    let my_rank = TestContext::role_rank(dev.role);
    let ok = !rule.action.is_drop()
        && !rule.action.out_ifaces().is_empty()
        && rule.action.out_ifaces().iter().all(|&i| {
            let ifc = topo.iface(i);
            match ifc.kind {
                IfaceKind::External => true,
                IfaceKind::P2p => topo
                    .neighbor_of(i)
                    .map(|n| TestContext::role_rank(topo.device(n).role) > my_rank)
                    .unwrap_or(false),
                _ => false,
            }
        });
    report.check(ok, || {
        format!(
            "{}: default route has wrong next hops ({:?})",
            dev.name, rule.action
        )
    });
}

/// ConnectedRouteCheck (§7.3) for one link: both ends carry the
/// connected route for the link's assigned /31 and /126 prefixes.
pub(crate) fn check_connected_link(
    ctx: &mut TestContext<'_>,
    report: &mut TestReport,
    link_index: usize,
) {
    let topo = ctx.net.topology();
    let (ai, bi, p4, p6) = ctx.info.links[link_index];
    for prefix in [p4, p6] {
        for iface in [ai, bi] {
            let device = topo.iface(iface).device;
            let found: Option<RuleId> = ctx
                .net
                .device_rule_ids(device)
                .find(|&id| ctx.net.rule(id).matches.dst == Some(prefix));
            match found {
                Some(id) => {
                    ctx.tracker.mark_rule(id);
                    let rule = ctx.net.rule(id);
                    report.check(rule.action.out_ifaces().contains(&iface), || {
                        format!(
                            "{}: connected route {} does not point out {}",
                            topo.device(device).name,
                            prefix,
                            topo.iface(iface).name
                        )
                    });
                }
                None => report.check(false, || {
                    format!(
                        "{}: missing connected route {}",
                        topo.device(device).name,
                        prefix
                    )
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::{regional_info, run_named};
    use crate::NetworkInfo;
    use netbdd::Bdd;
    use topogen::{fattree, regional, FatTreeParams, RegionalParams};
    use yardstick::Tracker;

    #[test]
    fn default_route_check_passes_on_healthy_fattree() {
        let ft = fattree(FatTreeParams::paper(4));
        let mut tracker = Tracker::new();
        let info = NetworkInfo::default();
        let report = run_named(
            &mut Bdd::new(),
            &ft.net,
            &info,
            "DefaultRouteCheck",
            &mut tracker,
        );
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.checks, 20); // every router checked
                                       // One rule marked per device.
        assert_eq!(tracker.trace().rules.len(), 20);
    }

    #[test]
    fn default_route_check_fails_on_null_routed_default() {
        let mut ft = fattree(FatTreeParams::paper(4));
        let (tor, _, _) = ft.tors[0];
        topogen::faults::null_route(&mut ft.net, tor, netmodel::Prefix::v4_default());
        let mut tracker = Tracker::new();
        let info = NetworkInfo::default();
        let report = run_named(
            &mut Bdd::new(),
            &ft.net,
            &info,
            "DefaultRouteCheck",
            &mut tracker,
        );
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("wrong next hops"));
        // Coverage still recorded: the rule was inspected.
        assert_eq!(tracker.trace().rules.len(), 20);
    }

    #[test]
    fn connected_route_check_passes_on_regional() {
        let r = regional(RegionalParams::default());
        let mut tracker = Tracker::new();
        let info = regional_info(&r);
        let report = run_named(
            &mut Bdd::new(),
            &r.net,
            &info,
            "ConnectedRouteCheck",
            &mut tracker,
        );
        assert!(
            report.passed(),
            "{:?}",
            &report.failures[..report.failures.len().min(3)]
        );
        // 2 families × 2 ends per link.
        assert_eq!(report.checks as usize, r.links.len() * 4);
        assert_eq!(tracker.trace().rules.len(), r.links.len() * 4);
    }

    #[test]
    fn connected_route_check_catches_missing_routes() {
        let mut r = regional(RegionalParams::default());
        let info = regional_info(&r);
        // Remove one /31 from one end.
        let (ai, _, p4, _) = info.links[0];
        let dev = r.net.topology().iface(ai).device;
        topogen::faults::remove_route(&mut r.net, dev, p4);
        let mut tracker = Tracker::new();
        let report = run_named(
            &mut Bdd::new(),
            &r.net,
            &info,
            "ConnectedRouteCheck",
            &mut tracker,
        );
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("missing connected route"));
    }
}
