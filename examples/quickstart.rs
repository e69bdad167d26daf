//! Quickstart: measure the coverage of a tiny test suite on a small
//! fat-tree, end to end.
//!
//! ```sh
//! cargo run --example quickstart --release
//! ```
//!
//! The flow is the paper's two-phase design:
//!  1. build a network (here: a generated k=4 fat-tree with BGP-style
//!     forwarding state),
//!  2. run tests that report what they exercise through the two-call
//!     tracking API (`mark_packet` / `mark_rule`) — each named test is a
//!     list of jobs (one per router, one per ToR pair, ...) that
//!     `run_job` executes into a tracker,
//!  3. afterwards, compute whatever coverage metrics you like from the
//!     recorded trace.

use netbdd::Bdd;
use netmodel::MatchSets;
use topogen::{fattree, FatTreeParams};
use yardstick::{Analyzer, CoverageReport, Tracker};

use testsuite::{named_test, run_job, NetworkInfo};

fn main() {
    // 1. A k=4 fat-tree: 20 routers, one hosted /24 per ToR.
    let ft = fattree(FatTreeParams::paper(4));
    println!(
        "network: {} routers, {} forwarding rules",
        ft.net.topology().device_count(),
        ft.net.rule_count()
    );

    // The BDD manager and the disjoint rule match sets (analysis setup).
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&ft.net, &mut bdd);

    // 2. Run two very different tests — a state-inspection check and a
    //    Pingmesh-style concrete probe — into the same tracker.
    let info = NetworkInfo {
        tor_subnets: ft.tors.clone(),
        ..NetworkInfo::default()
    };
    let mut tracker = Tracker::new();
    for name in ["DefaultRouteCheck", "ToRPingmesh"] {
        // Pingmesh samples one address per ToR pair from seed 7.
        let jobs = named_test(name)
            .jobs(&ft.net, &info, 7)
            .expect("applies to a fat-tree");
        let (mut checks, mut passed) = (0, true);
        for job in &jobs {
            let report = run_job(&mut bdd, &ft.net, &ms, &info, &mut tracker, job);
            checks += report.checks;
            passed &= report.passed();
        }
        println!(
            "{name:<18} {} jobs, {checks} checks, passed = {passed}",
            jobs.len()
        );
    }

    // 3. Phase 2: compute coverage from the trace.
    let trace = tracker.into_trace();
    let analyzer = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
    let report = CoverageReport::by_role(&mut bdd, &analyzer);
    println!("\n{report}");

    // Drill in: how well is one specific ToR tested?
    let (tor0, prefix, _) = ft.tors[0];
    let dev_cov = analyzer.device_coverage(&mut bdd, tor0).unwrap();
    println!(
        "{} (hosts {prefix}): device coverage {:.4}%",
        ft.net.topology().device(tor0).name,
        dev_cov * 100.0
    );
    println!(
        "→ the default route dominates the device's packet space, so inspecting it \
         yields high weighted coverage, while Pingmesh's single packets barely move \
         the needle — the concrete-vs-symbolic gap the paper highlights."
    );
}
