//! Full-pipeline integration test: the §7 case study as an executable
//! specification. Build the regional network, run the original suite,
//! verify the exact testing-gap pattern the paper reports, add the new
//! tests, verify the gaps close the way Figure 6d shows.

use netbdd::Bdd;
use netmodel::rule::RouteClass;
use netmodel::topology::Role;
use netmodel::MatchSets;
use topogen::{regional, RegionalParams};
use yardstick::{Aggregator, Analyzer, Tracker};

use testsuite::{named_test, suite, NetworkInfo};

fn small_params() -> RegionalParams {
    RegionalParams {
        datacenters: 2,
        pods_per_dc: 2,
        tors_per_pod: 2,
        aggs_per_pod: 2,
        spines_per_dc: 2,
        hubs: 2,
        wan_routers: 2,
        wan_prefixes: 16,
        connected: true,
        loopbacks: true,
        host_ports_per_tor: 4,
    }
}

fn info_for(r: &topogen::Regional) -> NetworkInfo {
    bench::regional_info(r)
}

fn run_suite(
    bdd: &mut Bdd,
    net: &netmodel::Network,
    ms: &MatchSets,
    info: &NetworkInfo,
    with_new_tests: bool,
) -> yardstick::CoverageTrace {
    let mut tracker = Tracker::new();
    let name = if with_new_tests { "final" } else { "original" };
    for test in suite(name).unwrap() {
        let report = test.run(bdd, net, ms, info, &mut tracker, 0).unwrap();
        assert!(report.passed(), "{}", test.name);
    }
    tracker.into_trace()
}

#[test]
fn case_study_gap_pattern_and_improvement() {
    let r = regional(small_params());
    let info = info_for(&r);
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&r.net, &mut bdd);

    // ---- original suite ----------------------------------------------------
    let trace0 = run_suite(&mut bdd, &r.net, &ms, &info, false);
    let a0 = Analyzer::new(&r.net, &ms, &trace0, &mut bdd);

    // Fig 6a observations:
    // (1) fractional device coverage is (near-)perfect for all roles;
    for role in [Role::Tor, Role::Aggregation, Role::Spine, Role::RegionalHub] {
        let m = a0.role_metrics(&mut bdd, role);
        assert_eq!(m.device_fractional, Some(1.0), "{role:?}");
    }
    // (2) interface coverage is high on aggs (the loopback test), low
    //     elsewhere (only default-route uplinks);
    let agg_if = a0
        .role_metrics(&mut bdd, Role::Aggregation)
        .iface_fractional
        .unwrap();
    let tor_if = a0
        .role_metrics(&mut bdd, Role::Tor)
        .iface_fractional
        .unwrap();
    assert!(agg_if > 0.9, "agg ifaces {agg_if}");
    assert!(tor_if < 0.5, "tor ifaces {tor_if}");
    // (3) fractional rule coverage is very low while weighted is high
    //     (the default route dominates the address space).
    let rule_f = a0
        .aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true)
        .unwrap();
    let rule_w = a0
        .aggregate_rules(&mut bdd, Aggregator::Weighted, |_, _| true)
        .unwrap();
    assert!(rule_f < 0.25, "fractional {rule_f}");
    assert!(rule_w > 0.95, "weighted {rule_w}");

    // The three §7.2 gap classes are fully untested.
    for class in [
        RouteClass::HostSubnet,
        RouteClass::Connected,
        RouteClass::Wan,
    ] {
        let cov = a0
            .aggregate_rules(&mut bdd, Aggregator::Fractional, |_, rl| rl.class == class)
            .unwrap();
        assert_eq!(
            cov, 0.0,
            "{class:?} should be untested by the original suite"
        );
    }

    // ---- final suite ---------------------------------------------------------
    let trace1 = run_suite(&mut bdd, &r.net, &ms, &info, true);
    let a1 = Analyzer::new(&r.net, &ms, &trace1, &mut bdd);

    // Internal and connected gaps close. HostSubnet stays a little
    // lower: the ToR-local per-port slice rules are exactly the
    // host-facing gap the paper says remains open after the new tests.
    for (class, threshold) in [
        (RouteClass::HostSubnet, 0.8),
        (RouteClass::Connected, 0.9),
        (RouteClass::Loopback, 0.9),
    ] {
        let cov = a1
            .aggregate_rules(&mut bdd, Aggregator::Fractional, |_, rl| rl.class == class)
            .unwrap();
        assert!(cov > threshold, "{class:?} still mostly untested: {cov}");
    }
    // Wide-area routes remain untested (no specification yet — §7.3).
    let wan = a1
        .aggregate_rules(&mut bdd, Aggregator::Fractional, |_, rl| {
            rl.class == RouteClass::Wan
        })
        .unwrap();
    assert_eq!(wan, 0.0);

    // ToR host-facing interfaces remain untested.
    let tor_if_after = a1
        .role_metrics(&mut bdd, Role::Tor)
        .iface_fractional
        .unwrap();
    assert!(tor_if_after < 0.5, "{tor_if_after}");

    // Overall coverage strictly improves, on every metric.
    let before = a0
        .aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true)
        .unwrap();
    let after = a1
        .aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true)
        .unwrap();
    assert!(
        after > before * 3.0,
        "rule coverage must improve dramatically"
    );
    let if_before = a0
        .aggregate_out_ifaces(&mut bdd, Aggregator::Fractional, |_, _| true)
        .unwrap();
    let if_after = a1
        .aggregate_out_ifaces(&mut bdd, Aggregator::Fractional, |_, _| true)
        .unwrap();
    assert!(if_after > if_before, "interface coverage must improve");
}

#[test]
fn coverage_survives_fault_injection_workflows() {
    // The production workflow: state changes, the suite re-runs, coverage
    // is recomputed. A null-routed internal prefix must both fail the
    // test and change the coverage signature.
    let mut r = regional(small_params());
    let info = info_for(&r);
    let (_, victim, _) = r.tors[0];
    let spine = r.spines[0];
    topogen::faults::null_route(&mut r.net, spine, victim);

    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&r.net, &mut bdd);
    let mut tracker = Tracker::new();
    let report = named_test("InternalRouteCheck")
        .run(&mut bdd, &r.net, &ms, &info, &mut tracker, 0)
        .unwrap();
    assert!(!report.passed(), "the fault must be detected");
    // Coverage was still recorded for everything the test analysed.
    let trace = tracker.into_trace();
    let a = Analyzer::new(&r.net, &ms, &trace, &mut bdd);
    let cov = a.aggregate_rules(&mut bdd, Aggregator::Fractional, |_, rl| {
        rl.class == RouteClass::HostSubnet
    });
    assert!(cov.unwrap() > 0.5);
}

#[test]
fn report_rows_cover_all_roles_in_the_regional_network() {
    let r = regional(small_params());
    let info = info_for(&r);
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&r.net, &mut bdd);
    let trace = run_suite(&mut bdd, &r.net, &ms, &info, true);
    let a = Analyzer::new(&r.net, &ms, &trace, &mut bdd);
    let report = yardstick::CoverageReport::by_role(&mut bdd, &a);
    let roles: Vec<Role> = report.rows.iter().map(|row| row.metrics.role).collect();
    assert_eq!(
        roles,
        vec![
            Role::Tor,
            Role::Aggregation,
            Role::Spine,
            Role::RegionalHub,
            Role::Wan
        ]
    );
    // CSV round-trips the same rows.
    let csv = report.to_csv();
    assert_eq!(csv.lines().count(), roles.len() + 2);
}
