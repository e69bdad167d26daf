//! Integration tests for the beyond-paper tooling: gap reports feeding
//! new tests (the §7.2 loop, automated), semantic diffs guiding change
//! validation, ATU witnesses, and the drift digest — all working
//! together on generated networks.

use netbdd::Bdd;
use netmodel::header::Packet;
use netmodel::{Location, MatchSets};
use topogen::{fattree, regional, FatTreeParams, RegionalParams};
use yardstick::{Aggregator, Analyzer, CoverageTrace, Tracker};

use dataplane::{semantic_diff, traceroute, Forwarder};
use testsuite::{named_test, NetworkInfo};

/// The full §7.2 loop, closed automatically: run a suite, take the gap
/// report's witness packets, traceroute them as new "tests", and watch
/// coverage strictly improve — the gap report is actionable by
/// construction.
#[test]
fn gap_witnesses_are_actionable_tests() {
    let ft = fattree(FatTreeParams::paper(4));
    let info = NetworkInfo {
        tor_subnets: ft.tors.clone(),
        ..NetworkInfo::default()
    };
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&ft.net, &mut bdd);

    // Seed suite: reachability only (leaves default routes untested).
    let mut tracker = Tracker::new();
    let report = named_test("ToRReachability").run(&mut bdd, &ft.net, &ms, &info, &mut tracker, 0);
    assert!(report.unwrap().passed());
    let mut trace = tracker.into_trace();

    let before = {
        let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
        let cov = a
            .aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true)
            .unwrap();
        // Collect witnesses for the top gaps (they are default routes).
        let gaps = a.gap_report(&mut bdd, 10, 2, |_, _| true);
        assert!(!gaps.entries.is_empty());
        let witnesses: Vec<(netmodel::topology::DeviceId, Packet)> = gaps
            .entries
            .iter()
            .map(|e| (e.rule.device, e.witness.expect("witness")))
            .collect();
        (cov, witnesses)
    };

    // "Write the new tests": traceroute each witness from its device,
    // marking coverage per hop like any concrete test.
    for (device, pkt) in &before.1 {
        let res = traceroute(&mut bdd, &ft.net, &ms, Location::device(*device), *pkt, 32);
        for hop in &res.hops {
            let set = hop.packet.to_bdd(&mut bdd);
            trace.add_packets(&mut bdd, hop.location, set);
        }
    }
    let a2 = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
    let after = a2
        .aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true)
        .unwrap();
    assert!(
        after > before.0,
        "witness-driven tests must improve rule coverage ({} -> {after})",
        before.0
    );
    // Specifically: every gap rule whose witness we traced is now hit.
    for (device, pkt) in &before.1 {
        let covered = a2.trace().packets.at_device(&mut bdd, *device);
        assert!(pkt.matches(&bdd, covered));
    }
}

/// Change validation end to end on the regional network: the semantic
/// diff isolates the affected space, and coverage of that space answers
/// "did the suite test what changed?" for both a well-tested and an
/// untested change.
#[test]
fn diff_guided_change_validation() {
    let r = regional(RegionalParams::default());
    let info = bench::regional_info(&r);
    let mut bdd = Bdd::new();
    let old_ms = MatchSets::compute(&r.net, &mut bdd);

    // Change A: reroute an internal prefix (tested by the suite).
    let (_, internal_prefix, _) = r.tors[0];
    let mut change_a = r.net.clone();
    topogen::faults::null_route(&mut change_a, r.spines[0], internal_prefix);
    // Change B: null-route a WAN prefix (untested by the suite).
    let wan_prefix = r.wan_prefixes[0];
    let mut change_b = r.net.clone();
    topogen::faults::null_route(&mut change_b, r.spines[0], wan_prefix);

    for (label, changed_net, expect_tested) in
        [("internal", change_a, true), ("wan", change_b, false)]
    {
        let new_ms = MatchSets::compute(&changed_net, &mut bdd);
        let diffs = semantic_diff(&mut bdd, &r.net, &old_ms, &changed_net, &new_ms);
        assert_eq!(diffs.len(), 1, "{label}: exactly one device changes");
        let d = &diffs[0];
        assert_eq!(d.device, r.spines[0]);

        // Run the paper-final suite against the changed state (ignore
        // pass/fail; we only need the coverage trace here).
        let mut tracker = Tracker::new();
        for name in [
            "DefaultRouteCheck",
            "InternalRouteCheck",
            "ConnectedRouteCheck",
        ] {
            named_test(name).run(&mut bdd, &changed_net, &new_ms, &info, &mut tracker, 0);
        }
        let trace = tracker.into_trace();

        let covered_at = trace.packets.at_device(&mut bdd, d.device);
        let tested = bdd.and(covered_at, d.changed);
        let frac = bdd.probability(tested) / bdd.probability(d.changed);
        if expect_tested {
            assert!(
                frac > 0.99,
                "{label}: changed space should be tested, got {frac}"
            );
        } else {
            assert!(
                frac < 0.01,
                "{label}: changed space should be untested, got {frac}"
            );
        }
    }
}

/// The drift digest distinguishes a benign re-run from a behaviour
/// change at integration scale.
#[test]
fn drift_digest_flags_state_changes_only() {
    use dataplane::paths::edge_starts;
    use yardstick::pathcov::{path_coverage, PathUniverseDigest};

    let ft = fattree(FatTreeParams::paper(4));
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&ft.net, &mut bdd);
    let trace = CoverageTrace::new();

    let digest = |net: &netmodel::Network, ms: &MatchSets, bdd: &mut Bdd| {
        let a = Analyzer::new(net, ms, &trace, bdd);
        let fwd = Forwarder::new(net, ms);
        let starts = edge_starts(bdd, &fwd);
        let pc = path_coverage(bdd, &a, &starts, &Default::default());
        PathUniverseDigest::from(pc.stats)
    };

    let day1 = digest(&ft.net, &ms, &mut bdd);
    let day2 = digest(&ft.net, &ms, &mut bdd);
    assert!(
        !day2.drifted(&day1, 0.05),
        "identical snapshots must not alarm"
    );

    let mut broken = ft.net.clone();
    topogen::faults::clear_device(&mut broken, ft.cores[0]);
    let broken_ms = MatchSets::compute(&broken, &mut bdd);
    let day3 = digest(&broken, &broken_ms, &mut bdd);
    assert!(day3.drifted(&day1, 0.05), "a dead core must alarm");
}

/// ATU sampling composes with the tracker across test types.
#[test]
fn atu_round_trip_through_tracking() {
    let ft = fattree(FatTreeParams::paper(4));
    let info = NetworkInfo {
        tor_subnets: ft.tors.clone(),
        ..NetworkInfo::default()
    };
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&ft.net, &mut bdd);
    let mut tracker = Tracker::new();
    let report =
        named_test("DefaultRouteCheck").run(&mut bdd, &ft.net, &ms, &info, &mut tracker, 0);
    assert!(report.unwrap().passed());
    let trace = tracker.into_trace();
    let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
    for (id, rule) in ft.net.rules() {
        let is_default = rule.matches.dst.map(|p| p.is_default()).unwrap_or(false);
        let covered = a.sample_covered_atu(&mut bdd, id);
        let uncovered = a.sample_uncovered_atu(&mut bdd, id);
        if is_default {
            // Inspected: fully covered, no uncovered ATUs remain.
            assert!(covered.is_some());
            assert!(uncovered.is_none());
        } else {
            assert!(covered.is_none());
            assert!(uncovered.is_some());
        }
    }
}
