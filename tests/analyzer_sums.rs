//! Equation 2 as sums, held to the paper's forms at network scale.
//!
//! The analyzer reads `(P(M[r]), P(T[r]))` once per rule and sums: a
//! device's coverage is ΣP(T[r]) / ΣP(M[r]) over its rules, which is
//! the union form P(⋃T[r]) / P(⋃M[r]) only because match sets are
//! disjoint. On regional 1× under the final suite (and, ignored,
//! regional ×3) this checks, after the headline aggregates have filled
//! the table:
//!
//! * the aggregates and `role_metrics` for every role build no BDD node;
//! * every device's coverage is within 1e-12 relative of the union form
//!   built here, and exactly 0 where ⋃T[r] is empty;
//! * every device, non-loopback out-interface and rule agrees with its
//!   §4.3.1 specification ([`components`] through
//!   [`yardstick::ComponentSpec::eval`]) within 1e-12.

use netbdd::Bdd;
use netmodel::topology::{IfaceKind, Role};
use netmodel::MatchSets;
use testsuite::{regional_suite_jobs, run_job};
use topogen::{regional, RegionalParams};
use yardstick::{components, Aggregator, Analyzer, Tracker};

const ROLES: [Role; 7] = [
    Role::Tor,
    Role::Aggregation,
    Role::Spine,
    Role::RegionalHub,
    Role::Border,
    Role::Wan,
    Role::Other,
];

fn close(what: &str, sums: Option<f64>, spec: Option<f64>) {
    match (sums, spec) {
        (Some(a), Some(b)) => assert!((a - b).abs() < 1e-12, "{what}: {a} vs spec {b}"),
        _ => assert_eq!(sums, spec, "{what}"),
    }
}

fn check(params: RegionalParams) {
    let r = regional(params);
    let info = bench::regional_info(&r);
    let jobs = regional_suite_jobs(&r.net, &info);
    let net = &r.net;
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(net, &mut bdd);
    let mut tracker = Tracker::new();
    for job in &jobs {
        let report = run_job(&mut bdd, net, &ms, &info, &mut tracker, job);
        assert!(report.passed(), "{}: {:?}", report.name, report.failures);
    }
    let trace = tracker.into_trace();
    let a = Analyzer::new(net, &ms, &trace, &mut bdd);

    let nodes = bdd.node_count();
    let headline = [
        a.aggregate_devices(&mut bdd, Aggregator::Fractional, |_, _| true),
        a.aggregate_out_ifaces(&mut bdd, Aggregator::Fractional, |_, _| true),
        a.aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true),
        a.aggregate_rules(&mut bdd, Aggregator::Weighted, |_, _| true),
    ];
    assert!(headline.iter().all(Option::is_some), "{headline:?}");
    for role in ROLES {
        a.role_metrics(&mut bdd, role);
    }
    assert_eq!(bdd.node_count(), nodes, "the analyzer built nodes");

    let covered = a.covered_sets();
    for (device, _) in net.topology().devices() {
        let sums = a.device_coverage(&mut bdd, device);
        let m = bdd.or_all(net.device_rule_ids(device).map(|id| ms.get(id)));
        let t = bdd.or_all(net.device_rule_ids(device).map(|id| covered.get(id)));
        match sums {
            None => assert!(
                m.is_false(),
                "{device:?}: no coverage over a non-empty ⋃M[r]"
            ),
            Some(c) if t.is_false() => assert_eq!(c, 0.0, "{device:?}"),
            Some(c) => {
                let union = bdd.probability(t) / bdd.probability(m);
                assert!(
                    (c - union).abs() <= 1e-12 * union,
                    "{device:?}: sums {c} vs union {union}"
                );
            }
        }
        let spec = components::device_spec(net, &ms, device).eval(&mut bdd, net, &ms, covered);
        close(&format!("{device:?}"), sums, spec);
    }
    for (iface, f) in net.topology().ifaces() {
        if f.kind == IfaceKind::Loopback {
            continue;
        }
        let spec = components::out_iface_spec(net, &ms, iface).eval(&mut bdd, net, &ms, covered);
        let sums = a.out_iface_coverage(&mut bdd, iface);
        close(&format!("{iface:?}"), sums, spec);
    }
    for (id, _) in net.rules() {
        let spec = components::rule_spec(&ms, id).eval(&mut bdd, net, &ms, covered);
        close(&format!("{id:?}"), a.rule_coverage(&mut bdd, id), spec);
    }
}

#[test]
fn regional_1x_sums_equal_the_union_and_spec_forms() {
    check(RegionalParams::default());
}

/// The benchmarked network: regional 3× (≈ 99 000 rules). Release mode.
#[test]
#[ignore = "regional 3x takes seconds; run with --release -- --ignored"]
fn regional_x3_sums_equal_the_union_and_spec_forms() {
    let d = RegionalParams::default();
    check(RegionalParams {
        pods_per_dc: d.pods_per_dc * 3,
        tors_per_pod: d.tors_per_pod * 3,
        aggs_per_pod: d.aggs_per_pod * 3,
        spines_per_dc: d.spines_per_dc * 3,
        ..d
    });
}
