//! Mutation study: does coverage predict bug detection?
//!
//! The experiment behind the paper's central claim. Build a fat-tree,
//! install bogon-filter ACLs (drop TCP/23 toward TEST-NET-1,
//! `192.0.2.0/24`) on every core — rules the §8 suite never exercises,
//! because every behavioural test targets the `10.x` ToR prefixes — then
//! generate seeded mutants across the whole dataplane, re-run the suite
//! against each, and split the kill rate by whether the mutated rules sat
//! inside the suite's Algorithm-1 covered sets. Covered mutants should
//! die; uncovered ones (the core ACLs — §2's Azure incident in
//! miniature) should survive. Add `--acl-tests` to extend the suite with
//! `AclEntryCheck` state inspections of those same ACLs and watch the
//! survivors move to the covered side and die. Or add `--autogen` and
//! let the coverage-guided generation loop (`yardstick::testgen`) close
//! the same gaps with zero hand-written tests.
//!
//! Usage: `cargo run -p bench --bin mutation_report --release -- \
//!            [--k N] [--seed S] [--cap N] [--acl-tests] [--autogen] \
//!            [--json] [--trace out.json]`
//!
//! `--json` writes `BENCH_mutation.json` (benchdiff-compatible: gated
//! `metrics`, informational `info`); with `--autogen` it writes
//! `BENCH_mutation_autogen.json` instead, so the two study variants keep
//! independent benchdiff baselines. An unknown option, a malformed value
//! or an odd `--k` exits 2 before any network is built.

use bench::{arity, fattree_info, figures_dir, parse_flag, parse_opt_flag, time_it};
use mutate::{cross_reference, evaluate, generate, MutationConfig, MutationReport, Operator};
use netbdd::Bdd;
use netmodel::MatchSets;
use testsuite::{fattree_suite_jobs, named_test, run_job, SuiteJob, SuiteVerdict};
use topogen::acl::{install_acl, AclEntry};
use topogen::{fattree, FatTreeParams};
use yardstick::testgen::{self, GenConfig, GenReport};
use yardstick::{CoverageEngine, CoveredSets, Tracker};

/// The port the bogon filters block. Port 23 keeps the Figure-2 flavour
/// ("block packets to port 23").
const BOGON_PORT: u16 = 23;

fn main() {
    let (k, seed, cap, trace, [acl_tests, use_autogen, json]) = bench::bin_args(
        "--k --seed --cap --trace",
        ["--acl-tests", "--autogen", "--json"],
        |args, on| {
            let (k, seed) = (arity(args, 4)?, parse_flag(args, "--seed", 0xC0FFEE)?);
            let trace = parse_opt_flag::<String>(args, "--trace")?;
            Ok((k, seed, parse_flag(args, "--cap", 12)?, trace, on))
        },
    );
    if trace.is_some() {
        netobs::enable();
    }

    println!("== mutation study: coverage vs. kill rate (fat-tree k={k}) ==");

    // The network under test: the §8 fat-tree plus one bogon-filter ACL
    // entry per core router.
    let mut ft = fattree(FatTreeParams::paper(k));
    let bogon: netmodel::Prefix = "192.0.2.0/24".parse().unwrap();
    let cores = ft.cores.clone();
    for &core in &cores {
        install_acl(
            &mut ft.net,
            core,
            &[AclEntry::block_tcp_port_to(bogon, BOGON_PORT)],
        );
    }
    let mut info = fattree_info(&ft);
    info.acls = cores.iter().map(|&core| (core, BOGON_PORT)).collect();
    let mut jobs = fattree_suite_jobs(&ft.net, &info, seed);
    if acl_tests {
        let acl_jobs = named_test("AclEntryCheck").jobs(&ft.net, &info, seed);
        jobs.extend(acl_jobs.expect("every core has an ACL"));
    }
    println!(
        "   suite: {} jobs ({}), {} core bogon filters installed",
        jobs.len(),
        if acl_tests {
            "with AclEntryCheck"
        } else {
            "behavioural only"
        },
        cores.len()
    );

    // Baseline: the suite must be green on the unmutated network, and its
    // tracked trace yields the covered sets every mutant is judged
    // against.
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&ft.net, &mut bdd);
    let mut tracker = Tracker::new();
    let (baseline, baseline_t) = time_it(|| {
        let mut verdict = SuiteVerdict::new();
        for job in &jobs {
            let report = run_job(&mut bdd, &ft.net, &ms, &info, &mut tracker, job);
            verdict.record(&report);
        }
        verdict
    });
    assert!(
        baseline.passed(),
        "baseline suite must pass before mutation means anything; failed: {:?}",
        baseline.failed_tests()
    );

    // Coverage-guided generation: seed an engine with the behavioural
    // suite's trace, let the loop close the remaining gaps, then replay
    // the emitted tests through the very same tracker so the covered
    // sets (and the mutant evaluation below) include them.
    let mut autogen_leg = None;
    if use_autogen {
        let portable = tracker.trace().export(&bdd);
        let cfg = GenConfig {
            seed,
            budget: 4096,
            ..GenConfig::default()
        };
        let (gen_report, autogen_t) = time_it(|| {
            let mut engine = CoverageEngine::new(ft.net.clone(), 1);
            engine
                .add_test("baseline-suite", &portable)
                .expect("baseline trace must import cleanly");
            testgen::autogen(&mut engine, &cfg)
        });
        assert!(
            gen_report.converged,
            "generation loop must converge on the study network"
        );
        println!(
            "   autogen: {} tests in {} round(s), coverage {:.1}% -> {:.1}%",
            gen_report.tests.len(),
            gen_report.rounds,
            gen_report.before.rule_fractional.unwrap_or(0.0) * 100.0,
            gen_report.after.rule_fractional.unwrap_or(0.0) * 100.0,
        );
        let mut replay = SuiteVerdict::new();
        for t in &gen_report.tests {
            let job = SuiteJob::Generated {
                spec: t.spec.clone(),
            };
            let report = run_job(&mut bdd, &ft.net, &ms, &info, &mut tracker, &job);
            replay.record(&report);
            jobs.push(job);
        }
        assert!(
            replay.passed(),
            "generated tests must pass on the unmutated network; failed: {:?}",
            replay.failed_tests()
        );
        autogen_leg = Some((gen_report, autogen_t));
    }

    let trace_data = tracker.into_trace();
    let covered = CoveredSets::compute(&ft.net, &ms, &trace_data, &mut bdd);

    // Generate, evaluate, cross-reference.
    let cfg = MutationConfig {
        seed,
        per_op_cap: cap,
    };
    let (mutants, generate_t) = time_it(|| generate(&ft.net, &cfg));
    println!(
        "   {} mutants generated (cap {} per operator, seed {seed:#x})",
        mutants.len(),
        cap
    );
    let (outcomes, evaluate_t) = time_it(|| evaluate(&ft.net, &info, &jobs, &mutants));
    let report = cross_reference(seed, &covered, &mutants, &outcomes);

    print_report(&report);
    println!(
        "\n   baseline {:.3}s | generate {:.3}s | evaluate {:.3}s",
        baseline_t.as_secs_f64(),
        generate_t.as_secs_f64(),
        evaluate_t.as_secs_f64(),
    );

    if json {
        let json = to_json(
            &report,
            k,
            acl_tests,
            jobs.len(),
            baseline_t.as_secs_f64(),
            evaluate_t.as_secs_f64(),
            autogen_leg.as_ref().map(|(r, t)| (r, t.as_secs_f64())),
        );
        // The autogen variant keeps its own file (and its own committed
        // benchdiff baseline): the two runs differ structurally, and
        // benchdiff treats a one-sided metric as a failure.
        let name = if use_autogen {
            "BENCH_mutation_autogen.json"
        } else {
            "BENCH_mutation.json"
        };
        let path = figures_dir().join(name);
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {name}: {e}"));
        println!("  [json] {}", path.display());
    }
    if let Some(path) = trace {
        bench::write_trace(&path);
    }
}

fn rate(split: &mutate::CoverageSplit) -> String {
    match split.kill_rate() {
        Some(r) => format!("{:.0}%", r * 100.0),
        None => "n/a".to_string(),
    }
}

fn print_report(report: &MutationReport) {
    println!(
        "\n{:<18} {:>9} {:>10} {:>7} {:>9}",
        "operator", "generated", "equivalent", "killed", "survived"
    );
    for s in &report.per_op {
        println!(
            "{:<18} {:>9} {:>10} {:>7} {:>9}",
            s.op.name(),
            s.generated,
            s.equivalent,
            s.killed,
            s.survived
        );
    }
    println!(
        "\n   covered mutants:   {:>3} killed / {:>3}  ({})",
        report.covered.killed,
        report.covered.total,
        rate(&report.covered)
    );
    println!(
        "   uncovered mutants: {:>3} killed / {:>3}  ({})",
        report.uncovered.killed,
        report.uncovered.total,
        rate(&report.uncovered)
    );
    if report.surviving.is_empty() {
        println!("   no survivors");
    } else {
        println!("   surviving mutant ids: {:?}", report.surviving);
    }
    println!("   kills per test:");
    for (name, kills) in &report.test_kills {
        println!("     {name:<24} {kills}");
    }
}

/// Benchdiff-compatible JSON: `metrics` gate (smaller is better), `info`
/// carries the study's actual findings.
fn to_json(
    report: &MutationReport,
    k: u32,
    acl_tests: bool,
    jobs: usize,
    baseline_secs: f64,
    evaluate_secs: f64,
    autogen: Option<(&GenReport, f64)>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"mutation_report\",\n");
    out.push_str(&format!("  \"workload\": \"fattree-k{k}\",\n"));
    out.push_str(&format!("  \"host_cpus\": {},\n", bench::host_cpus()));
    out.push_str(&format!("  \"seed\": {},\n", report.seed));
    out.push_str(&format!("  \"acl_tests\": {acl_tests},\n"));
    out.push_str(&format!("  \"autogen\": {},\n", autogen.is_some()));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str("  \"metrics\": {\n");
    out.push_str(&format!(
        "    \"baseline_suite_secs\": {baseline_secs:.6},\n"
    ));
    if let Some((_, autogen_secs)) = autogen {
        out.push_str(&format!("    \"autogen_secs\": {autogen_secs:.6},\n"));
    }
    out.push_str(&format!("    \"evaluate_secs\": {evaluate_secs:.6},\n"));
    out.push_str(&format!(
        "    \"surviving_mutants\": {}\n",
        report.surviving.len()
    ));
    out.push_str("  },\n");
    out.push_str("  \"info\": {\n");
    out.push_str(&format!("    \"mutants\": {},\n", report.generated()));
    out.push_str(&format!("    \"equivalent\": {},\n", report.equivalent()));
    if let Some((r, _)) = autogen {
        out.push_str(&format!(
            "    \"autogen\": {{\"tests\": {}, \"rounds\": {}, \"converged\": {}, \
             \"permanent_gaps\": {}}},\n",
            r.tests.len(),
            r.rounds,
            r.converged,
            r.permanent_gaps.len()
        ));
    }
    out.push_str("    \"per_op\": [\n");
    for (i, s) in report.per_op.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"op\": \"{}\", \"generated\": {}, \"equivalent\": {}, \
             \"killed\": {}, \"survived\": {}}}{}\n",
            s.op.name(),
            s.generated,
            s.equivalent,
            s.killed,
            s.survived,
            if i + 1 < report.per_op.len() { "," } else { "" }
        ));
    }
    out.push_str("    ],\n");
    for (label, split) in [
        ("covered", &report.covered),
        ("uncovered", &report.uncovered),
    ] {
        out.push_str(&format!(
            "    \"{label}\": {{\"total\": {}, \"killed\": {}, \"kill_rate\": {}}},\n",
            split.total,
            split.killed,
            split
                .kill_rate()
                .map(|r| format!("{r:.4}"))
                .unwrap_or_else(|| "null".to_string())
        ));
    }
    out.push_str(&format!(
        "    \"surviving_ids\": [{}],\n",
        report
            .surviving
            .iter()
            .map(|id| id.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("    \"test_kills\": [\n");
    for (i, (name, kills)) in report.test_kills.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"test\": \"{name}\", \"kills\": {kills}}}{}\n",
            if i + 1 < report.test_kills.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("    ],\n");
    out.push_str(&format!("    \"operators\": {}\n", Operator::ALL.len()));
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}
