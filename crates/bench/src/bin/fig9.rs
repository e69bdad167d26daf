//! Figure 9: time to compute coverage metrics (§8.2).
//!
//! After running the §8 test suite with tracking enabled, time the
//! phase-2 computation of each metric — device, interface, and rule
//! fractional coverage (fast, near-linear) and path coverage (expensive:
//! it enumerates the multipath path universe and blows past any budget
//! beyond mid-size fabrics, exactly as the paper's 1-hour timeout line
//! shows).
//!
//! Usage: `cargo run -p bench --bin fig9 --release \
//!            [--max-k N] [--path-budget PATHS]`
//! The path budget stands in for the paper's 1-hour timeout: if the
//! universe exceeds it, the row reports `>budget` like the paper's
//! missing points.

use netbdd::Bdd;
use netmodel::MatchSets;
use topogen::{fattree, FatTreeParams};
use yardstick::pathcov::path_coverage;
use yardstick::{Aggregator, Analyzer, Tracker};

use bench::{arg_flag, fattree_info, secs, sweep_ks, time_it, write_csv};
use dataplane::paths::{edge_starts, ExploreOpts};
use dataplane::Forwarder;
use testsuite::{default_route_check, tor_contract, tor_pingmesh, tor_reachability, TestContext};

fn main() {
    let trace = bench::trace_arg();
    let max_k: u64 = arg_flag("--max-k", 12);
    let path_budget: u64 = arg_flag("--path-budget", 2_000_000);
    println!("== Figure 9: time to compute coverage metrics ==");
    println!(
        "{:>4} {:>8} | {:>10} {:>10} {:>10} {:>14} {:>12}",
        "k", "routers", "device(s)", "iface(s)", "rule(s)", "path(s)", "paths"
    );
    let mut csv = String::from(
        "k,routers,device_secs,iface_secs,rule_secs,path_secs,paths,path_budget_hit\n",
    );

    for k in sweep_ks(max_k) {
        let ft = fattree(FatTreeParams::paper(k));
        let routers = ft.device_count();
        let info = fattree_info(&ft);
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&ft.net, &mut bdd);

        // Phase 1: collect the coverage trace from the full §8 suite.
        let mut ctx = TestContext::new(&ft.net, &ms, &info);
        default_route_check(&mut bdd, &mut ctx, |_| true);
        tor_contract(&mut bdd, &mut ctx);
        tor_reachability(&mut bdd, &mut ctx);
        tor_pingmesh(&mut bdd, &mut ctx, 0xC0FFEE);
        let tracker: Tracker = std::mem::take(&mut ctx.tracker);
        let trace = tracker.into_trace();

        // Phase 2: time each metric separately (the paper computes each
        // "by itself"). Covered sets are part of the metric computation,
        // so they are included via Analyzer::new inside the closures.
        let (dev_t, ifc_t, rule_t) = {
            let (_, d) = time_it(|| {
                let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
                a.aggregate_devices(&mut bdd, Aggregator::Fractional, |_, _| true)
            });
            let (_, i) = time_it(|| {
                let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
                a.aggregate_out_ifaces(&mut bdd, Aggregator::Fractional, |_, _| true)
            });
            let (_, r) = time_it(|| {
                let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
                a.aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true)
            });
            (d, i, r)
        };

        // Path coverage with a budget standing in for the 1h timeout.
        let analyzer = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
        let fwd = Forwarder::new(&ft.net, &ms);
        let starts = edge_starts(&mut bdd, &fwd);
        let opts = ExploreOpts {
            max_paths: path_budget,
            ..ExploreOpts::default()
        };
        let (pc, path_t) = time_it(|| path_coverage(&mut bdd, &analyzer, &starts, &opts));
        let budget_hit = pc.stats.paths >= path_budget;
        let path_cell = if budget_hit {
            format!(">{} (budget)", secs(path_t))
        } else {
            secs(path_t)
        };
        println!(
            "{:>4} {:>8} | {:>10} {:>10} {:>10} {:>14} {:>12}",
            k,
            routers,
            secs(dev_t),
            secs(ifc_t),
            secs(rule_t),
            path_cell,
            pc.stats.paths
        );
        csv.push_str(&format!(
            "{},{},{:.6},{:.6},{:.6},{:.6},{},{}\n",
            k,
            routers,
            dev_t.as_secs_f64(),
            ifc_t.as_secs_f64(),
            rule_t.as_secs_f64(),
            path_t.as_secs_f64(),
            pc.stats.paths,
            budget_hit
        ));
    }
    write_csv("fig9.csv", &csv);
    println!(
        "\nshape to check against the paper: local metrics stay fast as the network \
         grows; path coverage grows combinatorially with multipath fan-out and is the \
         one metric that hits the budget/timeout."
    );

    if let Some(path) = trace {
        bench::write_trace(&path);
    }
}
