//! Config-level coverage audit: which configuration constructs did the
//! test suite actually vouch for?
//!
//! The rule-level metrics answer "which FIB rules were exercised"; this
//! audit lifts the answer to the *configuration* through control-plane
//! provenance (the NSDI '23 follow-up's question). Build the §8
//! fat-tree keeping the control plane resident, run the behavioural
//! suite, and attribute every covered destination-prefix rule back to
//! the originations, BGP sessions, and static routes that produced it.
//! A construct is covered iff some rule it produced has a non-empty
//! Algorithm-1 covered set.
//!
//! To guarantee the audit has something to find, the configuration gets
//! one *dark* construct the behavioural suite can never exercise: a
//! null-routed static for TEST-NET-1 (`192.0.2.0/24`) on the first core
//! router — §2's Azure incident in miniature, at the config level. The
//! plain run must report it (and any company) uncovered; `--autogen`
//! then lets the config-coverage-guided generation loop
//! (`yardstick::testgen::autogen_config`) close every closable gap and
//! must end with zero uncovered constructs.
//!
//! The audit also asserts, on every run, that attribution is *complete*:
//! every covered destination-prefix FIB rule traces back to at least one
//! construct. A covered rule nothing in the config explains would mean
//! the provenance layer lost track of the control plane.
//!
//! Usage: `cargo run -p bench --bin config_audit --release -- \
//!            [--k N] [--seed S] [--autogen] [--json] \
//!            [--trace out.json]`
//!
//! `--json` writes `BENCH_config.json` (benchdiff-compatible: gated
//! `metrics`, informational `info`). The committed baseline comes from
//! an `--autogen` run — CI always passes `--autogen`, so the autogen
//! timing leg is part of the gated shape. An unknown option, a malformed
//! value or an odd `--k` exits 2 before any network is built.

use bench::{arity, fattree_info, figures_dir, parse_flag, parse_opt_flag, time_it};
use netmodel::provenance::Construct;
use testsuite::{fattree_suite_jobs, run_job, SuiteVerdict};
use topogen::{fattree_builder, FatTreeParams};
use yardstick::testgen::{autogen_config, ConfigGenReport, GenConfig};
use yardstick::{ConfigCoverage, CoverageEngine, Tracker};

/// The dark prefix: TEST-NET-1, never targeted by any behavioural test
/// (the suite probes the `10.x` ToR prefixes only).
const DARK_PREFIX: &str = "192.0.2.0/24";

fn main() {
    let (k, seed, trace, [use_autogen, json]) =
        bench::bin_args("--k --seed --trace", ["--autogen", "--json"], |args, on| {
            let (k, seed) = (arity(args, 4)?, parse_flag(args, "--seed", 0xC0FFEE)?);
            Ok((k, seed, parse_opt_flag::<String>(args, "--trace")?, on))
        });
    if trace.is_some() {
        netobs::enable();
    }

    println!("== config-level coverage audit (fat-tree k={k}) ==");

    // The network under audit: the §8 fat-tree plus one dark static on
    // the first core — a config construct no behavioural test reaches.
    let mut builder = fattree_builder(FatTreeParams::paper(k));
    let dark_core = builder.cores[0];
    builder.rb.add_static(routing::StaticRoute {
        device: dark_core,
        prefix: DARK_PREFIX.parse().unwrap(),
        target: routing::StaticTarget::Null,
        class: netmodel::rule::RouteClass::Other,
    });
    let (ft, routing_engine) = builder.into_engine();
    let mut engine = CoverageEngine::new(ft.net.clone(), 1);
    engine.attach_routing(routing_engine);
    let boot = engine.config_coverage().expect("routing is attached");
    let universe = [boot.covered, boot.uncovered, boot.unreferenced].concat();
    let dark = Construct::Static {
        device: dark_core,
        prefix: DARK_PREFIX.parse().unwrap(),
    };
    assert!(
        universe.contains(&dark),
        "dark static must register as a config construct"
    );
    println!(
        "   config: {} constructs (dark: {})",
        universe.len(),
        dark.wire_id()
    );

    // Behavioural baseline: the §8 suite, tracked in the engine's own
    // manager over its resident match sets.
    let info = fattree_info(&ft);
    let jobs = fattree_suite_jobs(&ft.net, &info, seed);
    let mut tracker = Tracker::new();
    let (verdict, suite_t) = time_it(|| {
        let (a, bdd) = engine.analyzer();
        let mut verdict = SuiteVerdict::new();
        for job in &jobs {
            let report = run_job(bdd, a.network(), a.match_sets(), &info, &mut tracker, job);
            verdict.record(&report);
        }
        verdict
    });
    assert!(
        verdict.passed(),
        "behavioural suite must pass; failed: {:?}",
        verdict.failed_tests()
    );

    // The audit proper: per-construct coverage through the engine.
    engine
        .add_trace("baseline-suite", tracker.into_trace())
        .expect("the baseline trace marks only topology devices");
    let (cov, audit_t) = time_it(|| engine.config_coverage().expect("routing is attached"));

    print_audit(&cov, "behavioural suite");
    let uncovered_before: Vec<String> = cov.uncovered.iter().map(Construct::wire_id).collect();
    assert!(
        uncovered_before.contains(&dark.wire_id()),
        "the dark static must be uncovered by the behavioural suite"
    );
    println!("   uncovered before autogen: {}", uncovered_before.len());

    // Acceptance: every covered destination-prefix FIB rule must be
    // attributed to at least one construct.
    let (covered_rules, attributed) = attribution_census(&mut engine);
    assert_eq!(
        covered_rules, attributed,
        "a covered dst-prefix rule has no provenance"
    );
    println!("   attribution: {attributed}/{covered_rules} covered dst-prefix rules explained");

    // `--autogen`: let config-coverage-guided generation close the gaps.
    let mut autogen_leg: Option<(ConfigGenReport, f64)> = None;
    if use_autogen {
        let cfg = GenConfig {
            seed,
            budget: 4096,
            ..GenConfig::default()
        };
        let (report, autogen_t) =
            time_it(|| autogen_config(&mut engine, &cfg).expect("routing is attached"));
        println!(
            "   autogen: {} tests in {} round(s), constructs {} -> {} of {}",
            report.tests.len(),
            report.rounds,
            report.covered_before,
            report.covered_after,
            report.coverable
        );
        assert!(
            report.uncovered.is_empty(),
            "autogen left constructs uncovered: {:?}",
            report
                .uncovered
                .iter()
                .map(Construct::wire_id)
                .collect::<Vec<_>>()
        );
        let after = engine.config_coverage().expect("routing is attached");
        print_audit(&after, "suite + generated tests");
        println!("   uncovered after autogen: {}", after.uncovered.len());
        autogen_leg = Some((report, autogen_t.as_secs_f64()));
    }

    println!(
        "\n   suite {:.3}s | audit {:.3}s",
        suite_t.as_secs_f64(),
        audit_t.as_secs_f64()
    );

    if json {
        let json = to_json(
            k,
            seed,
            jobs.len(),
            &engine.config_coverage().expect("routing is attached"),
            &uncovered_before,
            covered_rules,
            suite_t.as_secs_f64(),
            audit_t.as_secs_f64(),
            autogen_leg.as_ref().map(|(r, t)| (r, *t)),
        );
        let path = figures_dir().join("BENCH_config.json");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write BENCH_config.json: {e}"));
        println!("  [json] {}", path.display());
    }
    if let Some(path) = trace {
        bench::write_trace(&path);
    }
}

/// Per-kind coverage table plus the uncovered list.
fn print_audit(cov: &ConfigCoverage, what: &str) {
    let kind = |c: &Construct| match c {
        Construct::Origination { .. } => "origination",
        Construct::Session { .. } => "session",
        Construct::Static { .. } => "static",
    };
    println!("\n   per-construct coverage ({what}):");
    println!("   {:<14} {:>9} {:>8}", "kind", "coverable", "covered");
    for k in ["origination", "session", "static"] {
        let of_kind = |cs: &[Construct]| cs.iter().filter(|c| kind(c) == k).count();
        let hit = of_kind(&cov.covered);
        let total = hit + of_kind(&cov.uncovered);
        println!("   {k:<14} {total:>9} {hit:>8}");
    }
    println!(
        "   {:<14} {:>9} {:>8}   fractional {}",
        "total",
        cov.coverable(),
        cov.covered_count(),
        cov.fractional()
            .map(|f| format!("{:.1}%", f * 100.0))
            .unwrap_or_else(|| "n/a".into())
    );
    for c in cov.uncovered.iter().take(4) {
        println!("     uncovered: {}", c.wire_id());
    }
    if !cov.unreferenced.is_empty() {
        println!("   unreferenced constructs: {}", cov.unreferenced.len());
    }
}

/// Count covered destination-prefix FIB rules and how many of them the
/// provenance layer attributes to at least one construct.
fn attribution_census(engine: &mut CoverageEngine) -> (usize, usize) {
    let routing = engine.routing().expect("routing is attached");
    let (mut covered_rules, mut attributed) = (0usize, 0usize);
    for (id, rule) in engine.network().rules() {
        let Some(dst) = rule.matches.route_prefix() else {
            continue;
        };
        if !engine.is_exercised(id) {
            continue;
        }
        covered_rules += 1;
        let via = routing.rule_provenance(id.device, dst);
        attributed += via.is_some_and(|via| !via.is_empty()) as usize;
    }
    (covered_rules, attributed)
}

/// Benchdiff-compatible JSON: timing legs and the zero-uncovered gate in
/// `metrics`, the audit's findings in `info`.
#[allow(clippy::too_many_arguments)]
fn to_json(
    k: u32,
    seed: u64,
    jobs: usize,
    cov: &ConfigCoverage,
    uncovered_before: &[String],
    covered_rules: usize,
    suite_secs: f64,
    audit_secs: f64,
    autogen: Option<(&ConfigGenReport, f64)>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"config_audit\",\n");
    out.push_str(&format!("  \"workload\": \"fattree-k{k}\",\n"));
    out.push_str(&format!("  \"host_cpus\": {},\n", bench::host_cpus()));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"autogen\": {},\n", autogen.is_some()));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str("  \"metrics\": {\n");
    out.push_str(&format!("    \"suite_secs\": {suite_secs:.6},\n"));
    out.push_str(&format!("    \"audit_secs\": {audit_secs:.6},\n"));
    if let Some((_, autogen_secs)) = autogen {
        out.push_str(&format!("    \"autogen_secs\": {autogen_secs:.6},\n"));
    }
    out.push_str(&format!(
        "    \"uncovered_constructs\": {}\n",
        cov.uncovered.len()
    ));
    out.push_str("  },\n");
    out.push_str("  \"info\": {\n");
    out.push_str(&format!("    \"coverable\": {},\n", cov.coverable()));
    out.push_str(&format!("    \"covered\": {},\n", cov.covered_count()));
    out.push_str(&format!(
        "    \"unreferenced\": {},\n",
        cov.unreferenced.len()
    ));
    out.push_str(&format!(
        "    \"uncovered_before\": {},\n",
        uncovered_before.len()
    ));
    out.push_str(&format!(
        "    \"uncovered_before_ids\": [{}],\n",
        uncovered_before
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if let Some((r, _)) = autogen {
        out.push_str(&format!(
            "    \"autogen\": {{\"tests\": {}, \"rounds\": {}, \"covered_before\": {}, \
             \"covered_after\": {}}},\n",
            r.tests.len(),
            r.rounds,
            r.covered_before,
            r.covered_after
        ));
    }
    out.push_str(&format!("    \"covered_dst_rules\": {covered_rules},\n"));
    out.push_str("    \"attribution_complete\": true\n");
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}
