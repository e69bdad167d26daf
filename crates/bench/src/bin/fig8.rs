//! Figure 8: overhead of coverage tracking (§8.1).
//!
//! For fat-trees of growing size, run the four benchmark test types —
//! DefaultRouteCheck (state inspection), ToRReachability (end-to-end
//! symbolic), ToRContract (local symbolic), ToRPingmesh (end-to-end
//! concrete) — once with coverage tracking disabled (baseline) and once
//! enabled, and report both times plus the overhead.
//!
//! "Off" is the test's own work and nothing else: a disabled tracker
//! returns before touching the BDD manager, so for ToRPingmesh it is the
//! field-level lookups plus one match-set check per hop (a few µs per
//! probe), with no packet cube built. Each test runs against a tracker
//! of its own, so no ToRPingmesh mark is already held by its location:
//! "on" pays one cube per probe and one union per hop, the dearest case.
//!
//! The paper's claims to reproduce: absolute overhead stays small, and
//! relative overhead is below ~10% whenever the baseline itself takes
//! over a minute (it is only large in relative terms for sub-second
//! state-inspection tests).
//!
//! Usage: `cargo run -p bench --bin fig8 --release [--max-k N]`
//! (default max-k 16; the paper sweeps to k=88 / 9680 routers, which
//! works here too if you have the hours).

use std::time::Duration;

use netbdd::Bdd;
use netmodel::MatchSets;
use topogen::{fattree, FatTreeParams};

use bench::{arg_flag, fattree_info, secs, sweep_ks, time_it, write_csv};
use testsuite::{
    default_route_check, tor_contract, tor_pingmesh, tor_reachability, TestContext, TestReport,
};

const TESTS: [&str; 4] = [
    "DefaultRouteCheck",
    "ToRContract",
    "ToRReachability",
    "ToRPingmesh",
];

fn main() {
    let trace = bench::trace_arg();
    let max_k: u64 = arg_flag("--max-k", 16);
    println!("== Figure 8: overhead of coverage tracking ==");
    println!(
        "{:>4} {:>8} | {:<18} {:>12} {:>12} {:>10} {:>9}",
        "k", "routers", "test", "off (s)", "on (s)", "ovh (s)", "ovh (%)"
    );
    let mut csv =
        String::from("k,routers,test,baseline_secs,tracking_secs,overhead_secs,overhead_pct\n");

    for k in sweep_ks(max_k) {
        let ft = fattree(FatTreeParams::paper(k));
        let routers = ft.device_count();
        let info = fattree_info(&ft);
        // One shared manager per network size: the match sets are part of
        // the analysis setup, not of any single test's cost.
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&ft.net, &mut bdd);

        for test in TESTS {
            // Warmup: one untimed tracked run so the node arena reaches
            // steady state; operation caches are cleared before each
            // timed run so neither mode inherits the other's memo hits.
            // Modes alternate for two repetitions and the minimum is
            // kept, so arena-growth asymmetry cancels out.
            let mut warm_ctx = TestContext::new(&ft.net, &ms, &info);
            run(&mut bdd, &mut warm_ctx, test);
            let mut t_off = Duration::MAX;
            let mut t_on = Duration::MAX;
            let mut checks = (0u64, 0u64);
            for _rep in 0..2 {
                bdd.clear_caches();
                let mut off_ctx = TestContext::without_tracking(&ft.net, &ms, &info);
                let (rep_off, t) = time_it(|| run(&mut bdd, &mut off_ctx, test));
                assert!(rep_off.passed(), "{test} failed at k={k}");
                t_off = t_off.min(t);
                bdd.clear_caches();
                let mut on_ctx = TestContext::new(&ft.net, &ms, &info);
                let (rep_on, t) = time_it(|| run(&mut bdd, &mut on_ctx, test));
                assert!(rep_on.passed());
                t_on = t_on.min(t);
                checks = (rep_off.checks, rep_on.checks);
            }
            assert_eq!(checks.0, checks.1);

            let overhead = t_on.saturating_sub(t_off);
            let pct = if t_off.as_secs_f64() > 0.0 {
                overhead.as_secs_f64() / t_off.as_secs_f64() * 100.0
            } else {
                0.0
            };
            println!(
                "{:>4} {:>8} | {:<18} {:>12} {:>12} {:>10} {:>8.1}%",
                k,
                routers,
                test,
                secs(t_off),
                secs(t_on),
                secs(overhead),
                pct
            );
            csv.push_str(&format!(
                "{},{},{},{:.6},{:.6},{:.6},{:.2}\n",
                k,
                routers,
                test,
                t_off.as_secs_f64(),
                t_on.as_secs_f64(),
                overhead.as_secs_f64(),
                pct
            ));
        }
    }
    write_csv("fig8.csv", &csv);
    println!(
        "\nshape to check against the paper: tracking overhead is small in absolute \
         terms at every size; relative overhead is only notable for the sub-second \
         state-inspection test."
    );

    if let Some(path) = trace {
        bench::write_trace(&path);
    }
    let _ = Duration::ZERO;
}

fn run(bdd: &mut Bdd, ctx: &mut TestContext<'_>, test: &str) -> TestReport {
    match test {
        "DefaultRouteCheck" => default_route_check(bdd, ctx, |_| true),
        "ToRContract" => tor_contract(bdd, ctx),
        "ToRReachability" => tor_reachability(bdd, ctx),
        "ToRPingmesh" => tor_pingmesh(bdd, ctx, 0xC0FFEE),
        other => unreachable!("unknown test {other}"),
    }
}
