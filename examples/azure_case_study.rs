//! The §7 case study, replayed on the synthesized regional network:
//! coverage reports reveal systematic testing gaps, classify the
//! untested rules, and quantify how the two new tests close the gaps.
//!
//! ```sh
//! cargo run --example azure_case_study --release
//! ```

use netbdd::Bdd;
use netmodel::rule::RouteClass;
use netmodel::{MatchSets, Network};
use topogen::{regional, RegionalParams};
use yardstick::{Aggregator, Analyzer, CoverageReport, CoverageTrace, Tracker};

use testsuite::{suite, NetworkInfo};

/// Run the named suite's jobs on one tracker; every test must pass.
fn run_suite(
    bdd: &mut Bdd,
    net: &Network,
    ms: &MatchSets,
    info: &NetworkInfo,
    name: &str,
) -> CoverageTrace {
    let mut tracker = Tracker::new();
    for test in suite(name).expect("a known suite") {
        let report = test.run(bdd, net, ms, info, &mut tracker, 0);
        assert!(report.is_some_and(|r| r.passed()), "{} failed", test.name);
    }
    tracker.into_trace()
}

fn main() {
    let r = regional(RegionalParams::default());
    println!(
        "regional network: {} routers across {} datacenters, {} rules\n",
        r.net.topology().device_count(),
        r.params.datacenters,
        r.net.rule_count()
    );
    let info = bench::regional_info(&r);
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&r.net, &mut bdd);

    // ---- §7.2: the original suite and its gaps ---------------------------
    println!("== step 1: original test suite (DefaultRouteCheck + AggCanReachTorLoopback) ==");
    let trace = run_suite(&mut bdd, &r.net, &ms, &info, "original");
    let analyzer = Analyzer::new(&r.net, &ms, &trace, &mut bdd);
    println!("{}", CoverageReport::by_role(&mut bdd, &analyzer));

    // Classify the untested rules, as the engineers did: the three §7.2
    // route categories emerge directly from the coverage data.
    println!("untested rules by route class:");
    use std::collections::BTreeMap;
    let mut untested: BTreeMap<RouteClass, usize> = BTreeMap::new();
    let mut totals: BTreeMap<RouteClass, usize> = BTreeMap::new();
    for (id, rule) in r.net.rules() {
        if ms.is_shadowed(id) {
            continue;
        }
        *totals.entry(rule.class).or_default() += 1;
        if analyzer.rule_coverage(&mut bdd, id) == Some(0.0) {
            *untested.entry(rule.class).or_default() += 1;
        }
    }
    for (class, n) in &untested {
        println!("  {:?}: {}/{} untested", class, n, totals[class]);
    }
    assert!(untested[&RouteClass::HostSubnet] > 0, "internal routes gap");
    assert!(untested[&RouteClass::Connected] > 0, "connected routes gap");
    assert!(untested[&RouteClass::Wan] > 0, "wide-area routes gap");
    println!("→ the three gaps of §7.2: internal routes, connected routes, wide-area routes\n");

    // ---- §7.3: the two new tests ------------------------------------------
    println!("== step 2: final suite (+InternalRouteCheck, +ConnectedRouteCheck) ==");
    let final_trace = run_suite(&mut bdd, &r.net, &ms, &info, "final");
    let final_analyzer = Analyzer::new(&r.net, &ms, &final_trace, &mut bdd);
    println!("{}", CoverageReport::by_role(&mut bdd, &final_analyzer));

    let before = analyzer
        .aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true)
        .unwrap();
    let after = final_analyzer
        .aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true)
        .unwrap();
    println!(
        "rule coverage: {:.1}% → {:.1}% after the new tests",
        before * 100.0,
        after * 100.0
    );

    // ---- the remaining gaps, as the paper reports -------------------------
    // Wide-area routes: no specification exists yet, so spines/hubs stay
    // around 50%.
    let spine_rules = final_analyzer
        .aggregate_rules(&mut bdd, Aggregator::Fractional, |id, _| {
            r.spines.contains(&id.device)
        })
        .unwrap();
    println!(
        "spine rule coverage in the final suite: {:.0}% (wide-area routes still \
         untested — no WAN route specification exists yet, §7.3)",
        spine_rules * 100.0
    );
    // Host-facing interfaces: still untested on ToRs.
    let tor_ifaces = final_analyzer
        .aggregate_out_ifaces(&mut bdd, Aggregator::Fractional, |_, f| {
            r.net.topology().device(f.device).role == netmodel::Role::Tor
        })
        .unwrap();
    println!(
        "ToR interface coverage in the final suite: {:.0}% (host-facing ports remain \
         a gap — the paper's engineers planned another test for exactly this)",
        tor_ifaces * 100.0
    );
    assert!(spine_rules < 0.7);
    assert!(tor_ifaces < 0.5);
}
