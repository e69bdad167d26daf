//! Figure 7: coverage improvement across test-suite iterations (§7.3).
//!
//! Starting from the original suite, add InternalRouteCheck, then
//! ConnectedRouteCheck, and report all-device fractional coverage after
//! each step — the paper's summary of one month of suite evolution,
//! whose headline is "89% more forwarding rules and 17% more network
//! interfaces covered".
//!
//! Usage: `cargo run -p bench --bin fig7 --release [--scale N]`

use netbdd::Bdd;
use netmodel::MatchSets;
use topogen::{regional, RegionalParams};
use yardstick::{Analyzer, Tracker};

use bench::{arg_flag, regional_info, write_csv};
use testsuite::{
    agg_can_reach_tor_loopback, connected_route_check, default_route_check, host_port_check,
    internal_route_check, wan_route_check, TestContext, WanSpec,
};

fn main() {
    let trace = bench::trace_arg();
    let scale: u32 = arg_flag("--scale", 1);
    let params = RegionalParams {
        pods_per_dc: 2 * scale,
        tors_per_pod: 4 * scale,
        aggs_per_pod: 2 * scale,
        spines_per_dc: 2 * scale,
        ..RegionalParams::default()
    };
    println!("== Figure 7: coverage improvement with test suite iterations ==");
    let r = regional(params);
    println!(
        "network: {} devices, {} rules",
        r.net.topology().device_count(),
        r.net.rule_count()
    );
    let info = regional_info(&r);
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&r.net, &mut bdd);

    let iterations: Vec<(&str, Vec<&str>)> = vec![
        (
            "Start: Original Test Suite",
            vec!["DefaultRouteCheck", "AggCanReachTorLoopback"],
        ),
        (
            "Add: Internal Route Check",
            vec![
                "DefaultRouteCheck",
                "AggCanReachTorLoopback",
                "InternalRouteCheck",
            ],
        ),
        (
            "Add: Connected Route Check",
            vec![
                "DefaultRouteCheck",
                "AggCanReachTorLoopback",
                "InternalRouteCheck",
                "ConnectedRouteCheck",
            ],
        ),
        // Beyond the paper: the two tests §7.3 leaves as future work.
        (
            "Beyond: +Wan Route Check",
            vec![
                "DefaultRouteCheck",
                "AggCanReachTorLoopback",
                "InternalRouteCheck",
                "ConnectedRouteCheck",
                "WanRouteCheck",
            ],
        ),
        (
            "Beyond: +Host Port Check",
            vec![
                "DefaultRouteCheck",
                "AggCanReachTorLoopback",
                "InternalRouteCheck",
                "ConnectedRouteCheck",
                "WanRouteCheck",
                "HostPortCheck",
            ],
        ),
    ];

    let mut csv = String::from(
        "iteration,device_fractional,iface_fractional,rule_fractional,rule_weighted\n",
    );
    let mut series = Vec::new();
    println!(
        "\n{:<28} {:>8} {:>8} {:>8} {:>8}",
        "iteration", "dev(f)", "ifc(f)", "rul(f)", "rul(w)"
    );
    for (label, tests) in iterations {
        let mut ctx = TestContext::new(&r.net, &ms, &info);
        for &t in &tests {
            let rep = match t {
                "DefaultRouteCheck" => default_route_check(&mut bdd, &mut ctx, |_| true),
                "AggCanReachTorLoopback" => agg_can_reach_tor_loopback(&mut bdd, &mut ctx),
                "InternalRouteCheck" => internal_route_check(&mut bdd, &mut ctx),
                "ConnectedRouteCheck" => connected_route_check(&mut bdd, &mut ctx),
                "WanRouteCheck" => {
                    let spec = WanSpec {
                        prefixes: r.wan_prefixes.clone(),
                        wan_routers: r.wans.clone(),
                    };
                    wan_route_check(&mut bdd, &mut ctx, &spec, |role| {
                        matches!(
                            role,
                            netmodel::Role::Spine
                                | netmodel::Role::RegionalHub
                                | netmodel::Role::Wan
                        )
                    })
                }
                "HostPortCheck" => host_port_check(&mut bdd, &mut ctx, &r.host_port_slices),
                _ => unreachable!(),
            };
            assert!(rep.passed(), "{t} failed");
        }
        let tracker: Tracker = std::mem::take(&mut ctx.tracker);
        let trace = tracker.into_trace();
        let analyzer = Analyzer::new(&r.net, &ms, &trace, &mut bdd);
        use yardstick::Aggregator;
        let dev = analyzer.aggregate_devices(&mut bdd, Aggregator::Fractional, |_, _| true);
        let ifc = analyzer.aggregate_out_ifaces(&mut bdd, Aggregator::Fractional, |_, _| true);
        let rf = analyzer.aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true);
        let rw = analyzer.aggregate_rules(&mut bdd, Aggregator::Weighted, |_, _| true);
        println!(
            "{:<28} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            label,
            dev.unwrap_or(0.0) * 100.0,
            ifc.unwrap_or(0.0) * 100.0,
            rf.unwrap_or(0.0) * 100.0,
            rw.unwrap_or(0.0) * 100.0
        );
        csv.push_str(&format!(
            "{},{:.6},{:.6},{:.6},{:.6}\n",
            label,
            dev.unwrap_or(0.0),
            ifc.unwrap_or(0.0),
            rf.unwrap_or(0.0),
            rw.unwrap_or(0.0)
        ));
        series.push((rf.unwrap_or(0.0), ifc.unwrap_or(0.0)));
    }
    write_csv("fig7.csv", &csv);

    // Headline numbers: relative improvement from first to last
    // iteration (the paper reports +89% rules, +17% interfaces).
    let (rule0, ifc0) = series[0];
    let (rule_n, ifc_n) = series[2]; // the paper-final suite
    println!(
        "\nheadline: rule coverage improved by {:.0}% (paper: 89%), \
         interface coverage by {:.0}% (paper: 17%)",
        (rule_n - rule0) / rule0.max(1e-9) * 100.0,
        (ifc_n - ifc0) / ifc0.max(1e-9) * 100.0,
    );
    let (rule_b, ifc_b) = *series.last().unwrap();
    println!(
        "beyond the paper: the two future-work tests lift rule coverage to {:.1}% and \
         interface coverage to {:.1}%",
        rule_b * 100.0,
        ifc_b * 100.0
    );

    if let Some(path) = trace {
        yardstick::publish_bdd_gauges("bdd", &bdd.stats());
        bench::write_trace(&path);
    }
}
