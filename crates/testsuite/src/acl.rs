//! ACL tests — the port-blocking rows of the Figure 2 taxonomy.
//!
//! * AclEntryCheck is the state-inspection flavour: "the access control
//!   list on router R must have an entry that blocks packets to port P".
//!   It runs as a `yardstick::testgen::TestSpec::AclEntry`, the same
//!   lookup coverage-guided generation emits: find the deny entry and
//!   report it via `markRule`.
//! * AclBehaviorCheck (`check_acl_behavior`) is the local symbolic
//!   flavour: "router R must drop all packets to port P" — it injects the
//!   full set of matching packets and verifies none survive, reporting
//!   the injected set via `markPacket`.

use netbdd::Bdd;
use netmodel::header;
use netmodel::topology::DeviceId;
use netmodel::Location;

use dataplane::{Forwarder, Outcome};

use crate::context::{TestContext, TestReport};

/// Local symbolic: `device` drops *all* packets to `port` (TCP),
/// regardless of destination.
pub(crate) fn check_acl_behavior(
    bdd: &mut Bdd,
    ctx: &mut TestContext<'_>,
    report: &mut TestReport,
    device: DeviceId,
    port: u16,
) {
    let blocked = {
        let tcp = header::proto_is(bdd, 6);
        let p = header::dport_in(bdd, port, port);
        bdd.and(tcp, p)
    };
    ctx.tracker
        .mark_packet(bdd, Location::device(device), blocked);
    let step = Forwarder::new(ctx.net, ctx.ms).step(bdd, device, None, blocked);
    // Every matched subset must be dropped; nothing may be forwarded.
    let mut leaked = bdd.empty();
    for t in &step.transitions {
        for o in &t.outcomes {
            if !matches!(o, Outcome::Dropped { .. }) {
                leaked = bdd.or(leaked, o.packets());
            }
        }
    }
    report.check(leaked.is_false(), || {
        let sample = header::sample_packet(bdd, leaked)
            .map(|p| format!("{p:?}"))
            .unwrap_or_default();
        format!(
            "{}: port-{port} traffic leaks past the ACL, e.g. {sample}",
            ctx.net.topology().device(device).name
        )
    });
}

#[cfg(test)]
mod tests {
    use crate::testing::run_named;
    use crate::NetworkInfo;
    use netbdd::Bdd;
    use netmodel::topology::DeviceId;
    use netmodel::MatchSets;
    use topogen::acl::{install_acl, AclEntry};
    use topogen::{fattree, FatTreeParams};
    use yardstick::Tracker;

    fn guarded_fattree() -> (topogen::FatTree, Vec<DeviceId>) {
        let mut ft = fattree(FatTreeParams::paper(4));
        let guards: Vec<DeviceId> = ft.cores.clone();
        for &c in &guards {
            install_acl(&mut ft.net, c, &[AclEntry::block_tcp_port(23)]);
        }
        (ft, guards)
    }

    /// Ground truth claiming an ACL for port 23 on each of `devices`.
    fn acls(devices: &[DeviceId]) -> NetworkInfo {
        NetworkInfo {
            acls: devices.iter().map(|&d| (d, 23)).collect(),
            ..NetworkInfo::default()
        }
    }

    #[test]
    fn entry_check_finds_installed_acls() {
        let (ft, guards) = guarded_fattree();
        let mut tracker = Tracker::new();
        let report = run_named(
            &mut Bdd::new(),
            &ft.net,
            &acls(&guards),
            "AclEntryCheck",
            &mut tracker,
        );
        assert!(report.passed());
        assert_eq!(tracker.trace().rules.len(), guards.len());
    }

    #[test]
    fn entry_check_fails_where_no_acl_exists() {
        let (ft, _) = guarded_fattree();
        let (tor, _, _) = ft.tors[0];
        let report = run_named(
            &mut Bdd::new(),
            &ft.net,
            &acls(&[tor]),
            "AclEntryCheck",
            &mut Tracker::new(),
        );
        assert!(!report.passed());
        assert!(report.failures[0].contains("no ACL entry"));
    }

    #[test]
    fn behavior_check_verifies_the_drop_semantically() {
        let (ft, guards) = guarded_fattree();
        let mut tracker = Tracker::new();
        let report = run_named(
            &mut Bdd::new(),
            &ft.net,
            &acls(&guards),
            "AclBehaviorCheck",
            &mut tracker,
        );
        assert!(report.passed(), "{:?}", report.failures.first());
        // Packet marks exist at every guarded device.
        assert_eq!(tracker.trace().packets.devices().len(), guards.len());
    }

    #[test]
    fn behavior_check_catches_a_leak() {
        // ToRs have no ACL: port-23 traffic to a remote prefix leaks.
        let (ft, _) = guarded_fattree();
        let (tor, _, _) = ft.tors[0];
        let report = run_named(
            &mut Bdd::new(),
            &ft.net,
            &acls(&[tor]),
            "AclBehaviorCheck",
            &mut Tracker::new(),
        );
        assert!(!report.passed());
        assert!(report.failures[0].contains("leaks past the ACL"));
    }

    #[test]
    fn acl_coverage_flows_into_metrics() {
        use yardstick::{Aggregator, Analyzer};
        let (ft, guards) = guarded_fattree();
        let mut bdd = Bdd::new();
        let mut tracker = Tracker::new();
        run_named(
            &mut bdd,
            &ft.net,
            &acls(&guards),
            "AclEntryCheck",
            &mut tracker,
        );
        let ms = MatchSets::compute(&ft.net, &mut bdd);
        let trace = tracker.into_trace();
        let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
        // Exactly the ACL rules (class Other, drop) are covered.
        let acl_cov = a
            .aggregate_rules(&mut bdd, Aggregator::Fractional, |_, r| r.action.is_drop())
            .unwrap();
        assert_eq!(acl_cov, 1.0);
        let other_cov = a
            .aggregate_rules(&mut bdd, Aggregator::Fractional, |_, r| !r.action.is_drop())
            .unwrap();
        assert_eq!(other_cov, 0.0);
    }
}
