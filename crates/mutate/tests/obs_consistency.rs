//! Differential check of the observability layer against a real threaded
//! run: the span trees netobs reports for `mutate::evaluate` must satisfy
//! the nesting invariant (children sum to at most their parent), carry
//! one tree per worker thread, and survive a JSON round-trip.
//!
//! This lives in its own integration-test binary: netobs state is
//! process-global, and sharing a process with unrelated tests would mix
//! their spans into this report.

use mutate::{evaluate, generate, MutationConfig};
use testsuite::{fattree_suite_jobs, NetworkInfo};
use topogen::fattree::{fattree, FatTreeParams};

#[test]
fn threaded_evaluation_produces_consistent_worker_span_trees() {
    let ft = fattree(FatTreeParams::paper(4));
    let info = NetworkInfo {
        tor_subnets: ft.tors.clone(),
        ..NetworkInfo::default()
    };
    let jobs = fattree_suite_jobs(&ft.net, &info, 0xC0FFEE);
    let mutants = generate(
        &ft.net,
        &MutationConfig {
            seed: 7,
            per_op_cap: 2,
        },
    );
    let threads = 3;
    assert!(mutants.len() >= threads);

    netobs::enable();
    let outcomes = evaluate(&ft.net, &info, &jobs, &mutants, threads);
    let report = netobs::report();
    netobs::disable();
    assert_eq!(outcomes.len(), mutants.len());

    // The differential invariant: on every thread, the time attributed to
    // a span's children sums to at most the span's own time.
    assert!(
        report.check_consistent(),
        "span child sums exceed their parent:\n{}",
        report.render()
    );

    // One tree per worker, and between them one span per mutant, each
    // entered exactly once.
    let mut seen = 0;
    for w in 0..threads {
        let label = format!("mutate-worker-{w}");
        let root = report
            .thread(&label)
            .unwrap_or_else(|| panic!("no span tree flushed for {label}"));
        for m in &mutants {
            if let Some(span) = root.child(&format!("mutant-{}", m.id)) {
                assert_eq!(span.count, 1, "{label}/mutant-{} ran once", m.id);
                seen += 1;
            }
        }
    }
    assert_eq!(seen, mutants.len(), "every mutant judged on some worker");
    assert!(report.thread(&format!("mutate-worker-{threads}")).is_none());

    // The export round-trips through our own JSON parser with one span
    // tree per thread.
    let parsed = netobs::json::parse(&report.to_json()).expect("report JSON parses");
    let spans = parsed.get("spans").and_then(|s| s.as_array()).unwrap();
    assert_eq!(spans.len(), report.threads.len());
}
