//! `yardstick fig N`: the paper's Figures 6–9 (§7.2–§8). Each figure is
//! one row of [`FIGURES`]; [`draw`] prints its title, runs its body,
//! writes its CSV under `target/figures/`, and handles `--trace`.

use std::time::Duration;

use netbdd::Bdd;
use netmodel::{MatchSets, Role};
use topogen::RegionalParams;
use yardstick::pathcov::path_coverage;
use yardstick::{Aggregator, Analyzer, CoverageReport, Tracker};

use bench::{secs, sweep_ks, time_it, write_csv};
use dataplane::paths::{edge_starts, ExploreOpts};
use dataplane::Forwarder;
use testsuite::NAMED_TESTS;

use crate::{fattree_world, regional_world, run_suite, suite, SEED};

/// The flags `yardstick fig` takes.
pub struct FigOpts {
    /// Multiplies the regional network's pod dimensions (Figures 6–7).
    pub scale: u32,
    /// Largest fat-tree swept (Figures 8–9); `None` takes the default.
    pub max_k: Option<u64>,
    /// Paths Figure 9 enumerates before it reports `>budget`.
    pub path_budget: u64,
    /// Where `--trace` writes the netobs report.
    pub trace: Option<String>,
}

/// One figure: what it is called, the columns of `fig{N}.csv` (empty for
/// Figure 6, whose panels write a CSV each), and the body that prints its
/// rows and fills the CSV on the given manager (a sweep replaces it per
/// network; `--trace` reads the last), returning the lines printed after
/// the CSV.
struct Figure {
    title: &'static str,
    csv: &'static str,
    body: fn(&FigOpts, &mut Bdd, &mut String) -> Result<String, String>,
}

/// Figures 6, 7, 8 and 9, in that order.
const FIGURES: [Figure; 4] = [
    Figure {
        title: "coverage per test suite on the regional network",
        csv: "",
        body: fig6,
    },
    Figure {
        title: "coverage improvement with test suite iterations",
        csv: "iteration,device_fractional,iface_fractional,rule_fractional,rule_weighted\n",
        body: fig7,
    },
    Figure {
        title: "overhead of coverage tracking",
        csv: "k,routers,test,baseline_secs,tracking_secs,overhead_secs,overhead_pct\n",
        body: fig8,
    },
    Figure {
        title: "time to compute coverage metrics",
        csv: "k,routers,device_secs,iface_secs,rule_secs,path_secs,paths,path_budget_hit\n",
        body: fig9,
    },
];

/// Draw Figure `n` (6–9).
pub fn draw(n: u8, opts: &FigOpts) -> Result<(), String> {
    let fig = &FIGURES[usize::from(n - 6)];
    if opts.trace.is_some() {
        netobs::enable();
    }
    println!("== Figure {n}: {} ==", fig.title);
    let (mut bdd, mut csv) = (Bdd::new(), fig.csv.to_string());
    let closing = (fig.body)(opts, &mut bdd, &mut csv)?;
    if !fig.csv.is_empty() {
        write_csv(&format!("fig{n}.csv"), &csv);
    }
    if !closing.is_empty() {
        println!("{closing}");
    }
    if let Some(path) = &opts.trace {
        yardstick::publish_bdd_gauges("bdd", &bdd.stats());
        bench::write_trace(path);
    }
    Ok(())
}

/// The case study's regional network with its pods scaled by `scale`.
fn regional(scale: u32) -> RegionalParams {
    RegionalParams {
        pods_per_dc: 2 * scale,
        tors_per_pod: 4 * scale,
        aggs_per_pod: 2 * scale,
        spines_per_dc: 2 * scale,
        ..RegionalParams::default()
    }
}

const FAILED: &str = "a test failed on a healthy network (see above)";

/// Figure 6: per-role coverage of the original suite, each new test, and
/// the final suite (§7.2–§7.3). The case study's DefaultRouteCheck skips
/// regional hubs that legitimately lack a default; ours all have one, so
/// every role is checked.
fn fig6(opts: &FigOpts, bdd: &mut Bdd, _: &mut String) -> Result<String, String> {
    let ((net, info), built) = time_it(|| regional_world(regional(opts.scale)));
    let (devices, rules) = (net.topology().device_count(), net.rule_count());
    let (links, built) = (info.links.len(), secs(built));
    println!("network: {devices} devices, {rules} rules ({links} links)  [built in {built}s]");
    let (ms, ms_time) = time_it(|| MatchSets::compute(&net, bdd));
    println!("match sets computed in {}s", secs(ms_time));

    let panels = [
        ("6a", "Original test suite", &NAMED_TESTS[..2]),
        ("6b", "InternalRouteCheck test", &NAMED_TESTS[2..3]),
        ("6c", "ConnectedRouteCheck test", &NAMED_TESTS[3..4]),
        ("6d", "Final test suite", &NAMED_TESTS[..4]),
    ];
    for (panel, title, tests) in panels {
        let (trace, true) = run_suite(bdd, (&net, &info), &ms, tests) else {
            return Err(FAILED.into());
        };
        let analyzer = Analyzer::new(&net, &ms, &trace, bdd);
        let report = CoverageReport::by_role(bdd, &analyzer);
        println!("\n-- Figure {panel}: {title} --");
        print!("{report}");
        write_csv(&format!("fig{panel}.csv"), &report.to_csv());
        // The qualitative observations the paper calls out on panel (a).
        if panel == "6a" {
            let pct = |v: Option<f64>| v.map_or("-".into(), |x| format!("{:.0}%", x * 100.0));
            let tor = analyzer.role_metrics(bdd, Role::Tor);
            let agg = analyzer.role_metrics(bdd, Role::Aggregation);
            println!(
                "observations: device coverage near-perfect everywhere; \
                 interface coverage high on aggs ({}) vs ToRs ({}); \
                 fractional rule coverage low everywhere while weighted is high",
                pct(agg.iface_fractional),
                pct(tor.iface_fractional),
            );
        }
    }
    Ok(String::new())
}

/// Figure 7: all-device fractional coverage as the suite grows (§7.3),
/// whose headline is "89% more forwarding rules and 17% more network
/// interfaces covered", then the two tests §7.3 leaves as future work.
fn fig7(opts: &FigOpts, bdd: &mut Bdd, csv: &mut String) -> Result<String, String> {
    let (net, info) = regional_world(regional(opts.scale));
    let (devices, rules) = (net.topology().device_count(), net.rule_count());
    println!("network: {devices} devices, {rules} rules");
    let ms = MatchSets::compute(&net, bdd);
    println!(
        "\n{:<28} {:>8} {:>8} {:>8} {:>8}",
        "iteration", "dev(f)", "ifc(f)", "rul(f)", "rul(w)"
    );
    let iterations = [
        "Start: Original Test Suite",
        "Add: Internal Route Check",
        "Add: Connected Route Check",
        "Beyond: +Wan Route Check",
        "Beyond: +Host Port Check",
    ];
    let mut series = Vec::new();
    for (tests, label) in (2..).zip(iterations) {
        let (trace, true) = run_suite(bdd, (&net, &info), &ms, &NAMED_TESTS[..tests]) else {
            return Err(FAILED.into());
        };
        let a = Analyzer::new(&net, &ms, &trace, bdd);
        // device, interface and rule fractional, rule weighted
        let cells = [
            a.aggregate_devices(bdd, Aggregator::Fractional, |_, _| true),
            a.aggregate_out_ifaces(bdd, Aggregator::Fractional, |_, _| true),
            a.aggregate_rules(bdd, Aggregator::Fractional, |_, _| true),
            a.aggregate_rules(bdd, Aggregator::Weighted, |_, _| true),
        ]
        .map(|v| v.unwrap_or(0.0));
        let pcts: String = cells.map(|v| format!(" {:>7.1}%", v * 100.0)).concat();
        println!("{label:<28}{pcts}");
        let row: String = cells.map(|v| format!(",{v:.6}")).concat();
        csv.push_str(&format!("{label}{row}\n"));
        series.push((cells[2], cells[1]));
    }
    // Relative improvement from the original to the paper-final suite.
    let ((rule0, ifc0), (rule_n, ifc_n), (rule_b, ifc_b)) = (series[0], series[2], series[4]);
    let closing = format!(
        "\nheadline: rule coverage improved by {:.0}% (paper: 89%), \
         interface coverage by {:.0}% (paper: 17%)\n\
         beyond the paper: the two future-work tests lift rule coverage to {:.1}% and \
         interface coverage to {:.1}%",
        (rule_n - rule0) / rule0.max(1e-9) * 100.0,
        (ifc_n - ifc0) / ifc0.max(1e-9) * 100.0,
        rule_b * 100.0,
        ifc_b * 100.0
    );
    Ok(closing)
}

/// Figure 8: overhead of coverage tracking (§8.1). Each §8 test runs on
/// fat-trees of growing size with tracking off and on.
///
/// "Off" is the test's own work and nothing else: a disabled tracker
/// returns before touching the BDD manager. Each run has a tracker of
/// its own, so no ToRPingmesh mark is already held by its location: "on"
/// pays one cube per probe and one union per hop, the dearest case. The
/// paper's claim: absolute overhead stays small, and relative overhead
/// is below ~10% whenever the baseline takes over a minute.
fn fig8(opts: &FigOpts, bdd: &mut Bdd, csv: &mut String) -> Result<String, String> {
    println!(
        "{:>4} {:>8} | {:<18} {:>12} {:>12} {:>10} {:>9}",
        "k", "routers", "test", "off (s)", "on (s)", "ovh (s)", "ovh (%)"
    );
    for k in sweep_ks(opts.max_k.unwrap_or(16)) {
        let (net, info) = fattree_world(k);
        let routers = net.topology().device_count();
        // One manager per network size: the match sets are part of the
        // analysis setup, not of any single test's cost.
        *bdd = Bdd::new();
        let ms = MatchSets::compute(&net, bdd);
        for test in suite("s8")? {
            let run = |bdd: &mut Bdd, tracker: &mut Tracker| {
                test.run(bdd, &net, &ms, &info, tracker, SEED)
            };
            // One untimed tracked run brings the node arena to steady
            // state. Then the modes alternate twice, each on cleared
            // operation caches, and the minimum is kept, so neither mode
            // inherits the other's memo hits or arena growth.
            run(bdd, &mut Tracker::new());
            let (mut time, mut checks) = ([Duration::MAX; 2], [0; 2]);
            for _rep in 0..2 {
                for tracking in [false, true] {
                    bdd.clear_caches();
                    let mut tracker = match tracking {
                        true => Tracker::new(),
                        false => Tracker::disabled(),
                    };
                    let (rep, t) = time_it(|| run(bdd, &mut tracker));
                    let rep = rep
                        .filter(|r| r.passed())
                        .ok_or_else(|| format!("{} failed at k={k}", test.name))?;
                    let i = usize::from(tracking);
                    time[i] = time[i].min(t);
                    checks[i] = rep.checks;
                }
            }
            let test = test.name;
            if checks[0] != checks[1] {
                return Err(format!("{test} ran {checks:?} checks off/on at k={k}"));
            }
            let [off, on] = time;
            let overhead = on.saturating_sub(off);
            let pct = if off.as_secs_f64() > 0.0 {
                overhead.as_secs_f64() / off.as_secs_f64() * 100.0
            } else {
                0.0
            };
            println!(
                "{:>4} {:>8} | {:<18} {:>12} {:>12} {:>10} {:>8.1}%",
                k,
                routers,
                test,
                secs(off),
                secs(on),
                secs(overhead),
                pct
            );
            csv.push_str(&format!(
                "{k},{routers},{test},{:.6},{:.6},{:.6},{pct:.2}\n",
                off.as_secs_f64(),
                on.as_secs_f64(),
                overhead.as_secs_f64(),
            ));
        }
    }
    let closing = "\nshape to check against the paper: tracking overhead is small in absolute \
         terms at every size; relative overhead is only notable for the sub-second \
         state-inspection test.";
    Ok(closing.into())
}

/// Figure 9: time to compute each metric after the §8 suite ran with
/// tracking on (§8.2). Device, interface and rule coverage stay fast;
/// path coverage enumerates the multipath universe and hits
/// `--path-budget`, like the paper's 1-hour timeout line.
fn fig9(opts: &FigOpts, bdd: &mut Bdd, csv: &mut String) -> Result<String, String> {
    println!(
        "{:>4} {:>8} | {:>10} {:>10} {:>10} {:>14} {:>12}",
        "k", "routers", "device(s)", "iface(s)", "rule(s)", "path(s)", "paths"
    );
    for k in sweep_ks(opts.max_k.unwrap_or(12)) {
        let (net, info) = fattree_world(k);
        let routers = net.topology().device_count();
        *bdd = Bdd::new();
        let ms = MatchSets::compute(&net, bdd);
        let (trace, _) = run_suite(bdd, (&net, &info), &ms, suite("s8")?);

        // Each metric by itself, as the paper times them; building the
        // covered sets (`Analyzer::new`) is part of each.
        let metrics: [fn(&Analyzer, &mut Bdd) -> Option<f64>; 3] = [
            |a, bdd| a.aggregate_devices(bdd, Aggregator::Fractional, |_, _| true),
            |a, bdd| a.aggregate_out_ifaces(bdd, Aggregator::Fractional, |_, _| true),
            |a, bdd| a.aggregate_rules(bdd, Aggregator::Fractional, |_, _| true),
        ];
        let [dev_t, ifc_t, rule_t] =
            metrics.map(|metric| time_it(|| metric(&Analyzer::new(&net, &ms, &trace, bdd), bdd)).1);

        let analyzer = Analyzer::new(&net, &ms, &trace, bdd);
        let starts = edge_starts(bdd, &Forwarder::new(&net, &ms));
        let explore = ExploreOpts {
            max_paths: opts.path_budget,
            ..ExploreOpts::default()
        };
        let (pc, path_t) = time_it(|| path_coverage(bdd, &analyzer, &starts, &explore));
        let budget_hit = pc.stats.paths >= opts.path_budget;
        let path_cell = if budget_hit {
            format!(">{} (budget)", secs(path_t))
        } else {
            secs(path_t)
        };
        let local: String = [dev_t, ifc_t, rule_t]
            .map(|t| format!(" {:>10}", secs(t)))
            .concat();
        println!(
            "{k:>4} {routers:>8} |{local} {path_cell:>14} {:>12}",
            pc.stats.paths
        );
        let row = [dev_t, ifc_t, rule_t, path_t].map(|t| format!(",{:.6}", t.as_secs_f64()));
        let paths = pc.stats.paths;
        csv.push_str(&format!(
            "{k},{routers}{},{paths},{budget_hit}\n",
            row.concat()
        ));
    }
    let closing = "\nshape to check against the paper: local metrics stay fast as the network \
         grows; path coverage grows combinatorially with multipath fan-out and is the \
         one metric that hits the budget/timeout.";
    Ok(closing.into())
}
