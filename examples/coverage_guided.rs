//! Coverage-guided testing: path & flow coverage, zoom-in filters, and
//! watching metrics react to injected faults.
//!
//! ```sh
//! cargo run --example coverage_guided --release
//! ```
//!
//! This example exercises the parts of the framework the other examples
//! don't: the expensive path-universe metric (§4.3.2/§5.2 step 3), flow
//! coverage for an application's traffic, the zoom-in filters of §6, and
//! what happens to coverage when the forwarding state changes under you.

use netbdd::Bdd;
use netmodel::{header, Location, MatchSets};
use topogen::{fattree, FatTreeParams};
use yardstick::flowcov::{flow_coverage, Flow};
use yardstick::pathcov::path_coverage;
use yardstick::{Aggregator, Analyzer, Tracker};

use dataplane::paths::{edge_starts, ExploreOpts};
use dataplane::Forwarder;
use testsuite::{named_test, run_job, NetworkInfo};

fn main() {
    let ft = fattree(FatTreeParams::paper(4));
    let info = NetworkInfo {
        tor_subnets: ft.tors.clone(),
        ..NetworkInfo::default()
    };
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&ft.net, &mut bdd);

    // Run the symbolic reachability test — one job per source ToR — to
    // produce a trace.
    let mut tracker = Tracker::new();
    let jobs = named_test("ToRReachability")
        .jobs(&ft.net, &info, 0)
        .unwrap();
    for job in &jobs {
        assert!(run_job(&mut bdd, &ft.net, &ms, &info, &mut tracker, job).passed());
    }
    let trace = tracker.into_trace();
    let analyzer = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);

    // ---- Path coverage ----------------------------------------------------
    let fwd = Forwarder::new(&ft.net, &ms);
    let starts = edge_starts(&mut bdd, &fwd);
    let pc = path_coverage(&mut bdd, &analyzer, &starts, &ExploreOpts::default());
    println!(
        "path universe: {} paths ({} delivered, {} exit the WAN)",
        pc.total_paths, pc.stats.delivered, pc.stats.exited
    );
    println!(
        "path coverage: fractional {:.1}%, mean {:.3}, weighted {:.3}",
        pc.fractional() * 100.0,
        pc.mean,
        pc.weighted
    );
    // ToR↔ToR paths are fully tested; WAN-bound default paths are not.
    assert!(pc.fractional() < 1.0 && pc.fractional() > 0.0);

    // ---- Flow coverage ------------------------------------------------------
    // "The database tier in rack 0 talking to rack 7" as a flow.
    let (src, _, _) = ft.tors[0];
    let (_, dst_prefix, _) = ft.tors[7];
    let headers = {
        let d = header::dst_in(&mut bdd, &dst_prefix);
        let tcp = header::proto_is(&mut bdd, 6);
        let port = header::dport_in(&mut bdd, 5432, 5432);
        bdd.and_all([d, tcp, port])
    };
    let flow = Flow {
        start: Location::device(src),
        headers,
    };
    let fc = flow_coverage(&mut bdd, &analyzer, flow, &ExploreOpts::default()).unwrap();
    println!(
        "\nflow tor0→tor7 (tcp/5432): {} ECMP paths, end-to-end coverage {:.0}%",
        fc.paths,
        fc.coverage * 100.0
    );
    assert_eq!(
        fc.coverage, 1.0,
        "reachability tested the whole prefix space"
    );

    // ---- Zoom-in filters (§6) ------------------------------------------------
    let pod0 = analyzer
        .aggregate_rules(&mut bdd, Aggregator::Fractional, |id, _| {
            ft.net.topology().device(id.device).group == Some(0)
        })
        .unwrap();
    let default_routes = analyzer
        .aggregate_rules(&mut bdd, Aggregator::Fractional, |_, r| {
            r.class == netmodel::RouteClass::StaticDefault
        })
        .unwrap();
    println!(
        "\nzoom-in: pod-0 rule coverage {:.0}%, default-route coverage {:.0}%",
        pod0 * 100.0,
        default_routes * 100.0
    );
    // ToRReachability never exercises default routes (ToR prefixes are
    // always more specific): a systematic blind spot the filter exposes.
    assert_eq!(default_routes, 0.0);

    // ---- Fault reaction --------------------------------------------------------
    // Null-route one ToR prefix at a core and recompute the same metrics
    // on the *new* state with the *old* trace — the daily-diff workflow.
    let mut broken = ft.net.clone();
    let (_, victim, _) = ft.tors[5];
    topogen::faults::null_route(&mut broken, ft.cores[0], victim);
    let ms2 = MatchSets::compute(&broken, &mut bdd);
    let analyzer2 = Analyzer::new(&broken, &ms2, &trace, &mut bdd);
    let fwd2 = Forwarder::new(&broken, &ms2);
    let starts2 = edge_starts(&mut bdd, &fwd2);
    let pc2 = path_coverage(&mut bdd, &analyzer2, &starts2, &ExploreOpts::default());
    println!(
        "\nafter null-routing {} at {}: delivered paths {} → {}, dropped {} → {}",
        victim,
        broken.topology().device(ft.cores[0]).name,
        pc.stats.delivered,
        pc2.stats.delivered,
        pc.stats.dropped,
        pc2.stats.dropped
    );
    println!(
        "→ the paper flags exactly this: the composition of the path universe shifts \
         when state bugs appear, so Yardstick warns when it changes sharply between \
         snapshots (§5.2)."
    );
    assert!(pc2.stats.delivered < pc.stats.delivered);
    assert!(pc2.stats.dropped > pc.stats.dropped);
}
