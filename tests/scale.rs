//! Opt-in large-scale smoke tests (ignored by default; run with
//! `cargo test --release -- --ignored`). They exist so scaling
//! regressions are catchable on demand without making every `cargo
//! test` run minutes long — run them in release, debug-mode BDD work at
//! these sizes is painful.

use netbdd::Bdd;
use netmodel::MatchSets;
use topogen::{fattree, regional, FatTreeParams, RegionalParams};
use yardstick::{Aggregator, Analyzer, Tracker};

use testsuite::{named_test, NetworkInfo};

/// k=16 fat-tree (320 routers, ~41k rules): full local-suite run plus
/// rule aggregation, end to end.
#[test]
#[ignore = "large: run with --release -- --ignored"]
fn fattree_k16_full_local_suite() {
    let ft = fattree(FatTreeParams::paper(16));
    assert_eq!(ft.net.topology().device_count(), 320);
    let info = NetworkInfo {
        tor_subnets: ft.tors.clone(),
        ..NetworkInfo::default()
    };
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&ft.net, &mut bdd);
    let mut tracker = Tracker::new();
    for name in ["DefaultRouteCheck", "ToRContract"] {
        let report = named_test(name).run(&mut bdd, &ft.net, &ms, &info, &mut tracker, 0);
        assert!(report.unwrap().passed(), "{name}");
    }
    let trace = tracker.into_trace();
    let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
    let cov = a
        .aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true)
        .unwrap();
    assert!(
        cov > 0.99,
        "local suite covers ~everything on a fat-tree: {cov}"
    );
}

/// A 4× regional network (~140 devices, ~22k rules incl. dual-stack
/// connected routes): generation, match sets, and the per-role report.
#[test]
#[ignore = "large: run with --release -- --ignored"]
fn regional_4x_report() {
    let r = regional(RegionalParams {
        pods_per_dc: 4,
        tors_per_pod: 8,
        aggs_per_pod: 4,
        spines_per_dc: 4,
        ..RegionalParams::default()
    });
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&r.net, &mut bdd);
    let trace = yardstick::CoverageTrace::new();
    let a = Analyzer::new(&r.net, &ms, &trace, &mut bdd);
    let report = yardstick::CoverageReport::by_role(&mut bdd, &a);
    assert_eq!(report.rows.len(), 5);
    assert_eq!(report.overall.rule_fractional, Some(0.0));
}
