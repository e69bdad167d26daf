//! Figure 6: per-role coverage of the case study's test suites on the
//! regional network (§7.2–§7.3).
//!
//! Four panels, as in the paper:
//!   (a) the original suite — DefaultRouteCheck + AggCanReachTorLoopback
//!   (b) InternalRouteCheck alone
//!   (c) ConnectedRouteCheck alone
//!   (d) the final suite — original + both new tests
//!
//! For each panel we print fractional device / interface / rule coverage
//! and weighted rule coverage per router role, and write a CSV.
//!
//! Usage: `cargo run -p bench --bin fig6 --release [--scale N]`
//! where `--scale` multiplies the regional network's pod dimensions.

use netbdd::Bdd;
use netmodel::topology::Role;
use netmodel::MatchSets;
use topogen::{regional, RegionalParams};
use yardstick::{Analyzer, CoverageReport, Tracker};

use bench::{arg_flag, regional_info, time_it, write_csv};
use testsuite::{
    agg_can_reach_tor_loopback, connected_route_check, default_route_check, internal_route_check,
    TestContext,
};

fn main() {
    let trace = bench::trace_arg();
    let scale: u32 = arg_flag("--scale", 1);
    let params = RegionalParams {
        datacenters: 2,
        pods_per_dc: 2 * scale,
        tors_per_pod: 4 * scale,
        aggs_per_pod: 2 * scale,
        spines_per_dc: 2 * scale,
        ..RegionalParams::default()
    };
    println!("== Figure 6: coverage per test suite on the regional network ==");
    let (r, build_time) = time_it(|| regional(params));
    println!(
        "network: {} devices, {} rules ({} links)  [built in {}s]",
        r.net.topology().device_count(),
        r.net.rule_count(),
        r.links.len(),
        bench::secs(build_time)
    );
    let info = regional_info(&r);
    let mut bdd = Bdd::new();
    let (ms, ms_time) = time_it(|| MatchSets::compute(&r.net, &mut bdd));
    println!("match sets computed in {}s", bench::secs(ms_time));

    // The DefaultRouteCheck in the case study excludes some regional hub
    // routers that legitimately lack the default; ours all have it, so
    // check every role.
    type Suite<'a> = (&'a str, &'a str, Vec<&'a str>);
    let panels: Vec<Suite> = vec![
        (
            "6a",
            "Original test suite",
            vec!["DefaultRouteCheck", "AggCanReachTorLoopback"],
        ),
        ("6b", "InternalRouteCheck test", vec!["InternalRouteCheck"]),
        (
            "6c",
            "ConnectedRouteCheck test",
            vec!["ConnectedRouteCheck"],
        ),
        (
            "6d",
            "Final test suite",
            vec![
                "DefaultRouteCheck",
                "AggCanReachTorLoopback",
                "InternalRouteCheck",
                "ConnectedRouteCheck",
            ],
        ),
    ];

    for (panel, title, tests) in panels {
        let mut ctx = TestContext::new(&r.net, &ms, &info);
        for &t in &tests {
            let report = run_test(&mut bdd, &mut ctx, t);
            assert!(
                report.passed(),
                "{t} failed: {:?}",
                &report.failures[..3.min(report.failures.len())]
            );
        }
        let tracker: Tracker = std::mem::take(&mut ctx.tracker);
        let trace = tracker.into_trace();
        let analyzer = Analyzer::new(&r.net, &ms, &trace, &mut bdd);
        let report = CoverageReport::by_role(&mut bdd, &analyzer);
        println!("\n-- Figure {panel}: {title} --");
        print!("{report}");
        write_csv(&format!("fig{panel}.csv"), &report.to_csv());

        // The qualitative observations the paper calls out, checked on
        // panel (a):
        if panel == "6a" {
            let tor = analyzer.role_metrics(&mut bdd, Role::Tor);
            let agg = analyzer.role_metrics(&mut bdd, Role::Aggregation);
            println!(
                "observations: device coverage near-perfect everywhere; \
                 interface coverage high on aggs ({}) vs ToRs ({}); \
                 fractional rule coverage low everywhere while weighted is high",
                pct(agg.iface_fractional),
                pct(tor.iface_fractional),
            );
        }
    }

    if let Some(path) = trace {
        yardstick::publish_bdd_gauges("bdd", &bdd.stats());
        bench::write_trace(&path);
    }
}

fn pct(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{:.0}%", x * 100.0),
        None => "-".into(),
    }
}

fn run_test(bdd: &mut Bdd, ctx: &mut TestContext<'_>, name: &str) -> testsuite::TestReport {
    match name {
        "DefaultRouteCheck" => default_route_check(bdd, ctx, |_| true),
        "AggCanReachTorLoopback" => agg_can_reach_tor_loopback(bdd, ctx),
        "InternalRouteCheck" => internal_route_check(bdd, ctx),
        "ConnectedRouteCheck" => connected_route_check(bdd, ctx),
        other => unreachable!("unknown test {other}"),
    }
}
