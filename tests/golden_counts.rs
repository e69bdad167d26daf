//! Golden counts: the batch arc's outputs and exact counts, pinned.
//!
//! Each case builds a network, runs its suite's jobs on one live tracker,
//! and analyses the trace — the arc `benchmark/` times — and compares
//! the result with `tests/golden/<case>.json`:
//!
//! * the headline (the four network-wide aggregates) and every per-role
//!   row, as exact `f64` bits;
//! * rules, jobs, `mark_packet` and `mark_rule` calls, exactly;
//! * `nodes_final` and `ops_total` may only fall, and a change that
//!   lowers one rewrites the file in the same diff, so the new numbers
//!   are reviewed. On any mismatch the failure prints the whole document
//!   this run produced.

use netbdd::Bdd;
use netmodel::{MatchSets, Network};
use netobs::json::{self, number, Json};
use testsuite::{fattree_suite_jobs, regional_suite_jobs, run_job, NetworkInfo, SuiteJob};
use topogen::{fattree, regional, FatTreeParams, RegionalParams};
use yardstick::{Analyzer, CoverageReport, Tracker};

const SEED: u64 = 0xC0FFEE;

/// The arc on `net` with `jobs`, rendered as a golden document.
fn arc(net: &Network, info: &NetworkInfo, suite: &str, jobs: &[SuiteJob]) -> String {
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(net, &mut bdd);
    let mut tracker = Tracker::new();
    for job in jobs {
        let report = run_job(&mut bdd, net, &ms, info, &mut tracker, job);
        assert!(report.passed(), "{}: {:?}", report.name, report.failures);
    }
    let (mark_packet, mark_rule) = tracker.call_counts();
    let trace = tracker.into_trace();
    let analyzer = Analyzer::new(net, &ms, &trace, &mut bdd);
    let report = CoverageReport::by_role(&mut bdd, &analyzer);
    let stats = bdd.stats();

    let opt = |v: Option<f64>| v.map_or("null".to_string(), number);
    let metrics = |d: Option<f64>, i: Option<f64>, rf: Option<f64>, rw: Option<f64>| {
        format!(
            "\"device_fractional\": {}, \"iface_fractional\": {}, \
             \"rule_fractional\": {}, \"rule_weighted\": {}",
            opt(d),
            opt(i),
            opt(rf),
            opt(rw)
        )
    };
    let o = &report.overall;
    let roles: Vec<String> = report
        .rows
        .iter()
        .map(|row| {
            let m = &row.metrics;
            format!(
                "    {}: {{\"devices\": {}, \"rules\": {}, {}}}",
                json::quote(m.role.label()),
                row.devices,
                row.rules,
                metrics(
                    m.device_fractional,
                    m.iface_fractional,
                    m.rule_fractional,
                    m.rule_weighted
                )
            )
        })
        .collect();
    format!(
        "{{\n  \"suite\": {},\n  \
         \"exact\": {{\"rules\": {}, \"jobs\": {}, \"mark_packet_calls\": {mark_packet}, \
         \"mark_rule_calls\": {mark_rule}}},\n  \
         \"may_only_fall\": {{\"nodes_final\": {}, \"ops_total\": {}}},\n  \
         \"headline\": {{{}}},\n  \
         \"roles\": {{\n{}\n  }}\n}}\n",
        json::quote(suite),
        net.rule_count(),
        jobs.len(),
        stats.nodes,
        stats.ops.total(),
        metrics(
            o.device_fractional,
            o.iface_fractional,
            o.rule_fractional,
            o.rule_weighted
        ),
        roles.join(",\n"),
    )
}

/// Equal as documents, with numbers compared bit for bit.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Obj(x), Json::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, vx), (ky, vy))| kx == ky && same(vx, vy))
        }
        _ => a == b,
    }
}

/// Compare this run's document with `tests/golden/<case>.json`.
fn check(case: &str, actual: &str) {
    let path = format!("{}/tests/golden/{case}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let golden = json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let got = json::parse(actual).expect("the arc renders valid JSON");
    let mut diffs = Vec::new();
    for (key, want) in golden.entries() {
        let have = got.get(key).unwrap_or(&Json::Null);
        if key != "may_only_fall" && !same(want, have) {
            diffs.push(format!("{key} differs"));
        }
    }
    for (key, want) in golden
        .get("may_only_fall")
        .into_iter()
        .flat_map(Json::entries)
    {
        let want = want.as_f64().unwrap_or(f64::NAN);
        let have = got
            .get("may_only_fall")
            .and_then(|m| m.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        if have > want || have.is_nan() {
            diffs.push(format!("{key} rose from {want} to {have}"));
        } else if have < want {
            diffs.push(format!(
                "{key} fell from {want} to {have}: rewrite {path} in the same change"
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "{case}: {}\n\nthis run:\n{actual}",
        diffs.join("; ")
    );
}

fn fattree_case(k: u32) {
    let ft = fattree(FatTreeParams::paper(k));
    let info = bench::fattree_info(&ft);
    let jobs = fattree_suite_jobs(&ft.net, &info, SEED);
    check(&format!("fattree_k{k}"), &arc(&ft.net, &info, "s8", &jobs));
}

#[test]
fn fattree_k4_s8() {
    fattree_case(4);
}

#[test]
fn fattree_k8_s8() {
    fattree_case(8);
}

#[test]
fn regional_1x_final() {
    let r = regional(RegionalParams::default());
    let info = bench::regional_info(&r);
    let jobs = regional_suite_jobs(&r.net, &info);
    check("regional_1x", &arc(&r.net, &info, "final", &jobs));
}
