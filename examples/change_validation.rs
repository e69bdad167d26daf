//! Change validation: "which packets does this change affect — and did
//! our tests exercise them?"
//!
//! ```sh
//! cargo run --example change_validation --release
//! ```
//!
//! The production deployment (§7.1) runs Yardstick inside a pipeline
//! that simulates the forwarding state a change produces and then tests
//! it. This example extends that workflow with the semantic diff: after
//! a simulated maintenance change, it computes exactly the packet space
//! whose behaviour changed, measures how much of *that space* the test
//! suite covered, and prints a gap report with ready-made witness
//! packets for the untested remainder.

use netbdd::Bdd;
use netmodel::MatchSets;
use topogen::{regional, RegionalParams};
use yardstick::{Analyzer, Tracker};

use dataplane::semantic_diff;
use testsuite::{named_test, TestReport};

fn main() {
    // The running network and the proposed post-change state: a planned
    // maintenance drains one spine by null-routing two ToR prefixes on
    // it (a deliberately sloppy drain — the kind that causes trouble).
    let r = regional(RegionalParams::default());
    let mut proposed = r.net.clone();
    let (_, p0, _) = r.tors[0];
    let (_, p1, _) = r.tors[1];
    let spine = r.spines[0];
    topogen::faults::null_route(&mut proposed, spine, p0);
    topogen::faults::null_route(&mut proposed, spine, p1);
    println!(
        "proposed change: null-route {} and {} on {}",
        p0,
        p1,
        r.net.topology().device(spine).name
    );

    let mut bdd = Bdd::new();
    let old_ms = MatchSets::compute(&r.net, &mut bdd);
    let new_ms = MatchSets::compute(&proposed, &mut bdd);

    // 1. What does the change affect?
    let diffs = semantic_diff(&mut bdd, &r.net, &old_ms, &proposed, &new_ms);
    println!(
        "\nsemantic diff: {} device(s) change behaviour",
        diffs.len()
    );
    for d in &diffs {
        let (regions, complete) = netmodel::describe_set(&bdd, d.changed, 4);
        println!("  {}:", r.net.topology().device(d.device).name);
        for reg in &regions {
            println!("    affected: {reg}");
        }
        if !complete {
            println!("    …");
        }
    }
    assert_eq!(diffs.len(), 1);

    // 2. Run the (paper-final) test suite against the proposed state.
    let info = bench::regional_info(&r);
    let mut tracker = Tracker::new();
    let [r1, r2, r3] = [
        "DefaultRouteCheck",
        "InternalRouteCheck",
        "ConnectedRouteCheck",
    ]
    .map(|name| {
        let test = named_test(name);
        let report = test.run(&mut bdd, &proposed, &new_ms, &info, &mut tracker, 0);
        report.expect("applies to the regional network")
    });
    println!(
        "\ntest suite on proposed state: DefaultRouteCheck {}, InternalRouteCheck {}, \
         ConnectedRouteCheck {}",
        verdict(&r1),
        verdict(&r2),
        verdict(&r3)
    );
    // The sloppy drain is caught by InternalRouteCheck...
    assert!(!r2.passed(), "the bad drain must fail the contract check");
    println!("→ InternalRouteCheck flags the drain: {}", r2.failures[0]);

    // 3. Coverage of the *changed* space specifically: even when a change
    //    passes all tests, this is the number that says whether passing
    //    meant anything.
    let trace = tracker.into_trace();
    let analyzer = Analyzer::new(&proposed, &new_ms, &trace, &mut bdd);
    for d in &diffs {
        let covered = analyzer.trace().packets.at_device(&mut bdd, d.device);
        let tested = bdd.and(covered, d.changed);
        let frac = bdd.probability(tested) / bdd.probability(d.changed);
        println!(
            "\ncoverage of the changed space at {}: {:.0}%",
            r.net.topology().device(d.device).name,
            frac * 100.0
        );
        assert!(frac > 0.99, "the suite does analyse the changed prefixes");
    }

    // 4. And the overall gap report for the proposed state, ranked by
    //    untested weight — what to write tests for next.
    println!("\ntop testing gaps in the proposed state:");
    let gaps = analyzer.gap_report(&mut bdd, 3, 2, |_, _| true);
    print!("{gaps}");
}

fn verdict(r: &TestReport) -> &'static str {
    if r.passed() {
        "PASS"
    } else {
        "FAIL"
    }
}
