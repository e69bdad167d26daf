//! Differential check of the observability layer against a real mutant
//! evaluation: the span tree netobs reports for `mutate::evaluate` must
//! satisfy the nesting invariant (children sum to at most their parent),
//! hold one span per mutant in the calling thread's tree, and survive a
//! JSON round-trip.
//!
//! This lives in its own integration-test binary: netobs state is
//! process-global, and sharing a process with unrelated tests would mix
//! their spans into this report.

use mutate::{evaluate, generate, MutationConfig};
use testsuite::{fattree_suite_jobs, NetworkInfo};
use topogen::fattree::{fattree, FatTreeParams};

#[test]
fn evaluation_produces_one_consistent_span_per_mutant() {
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
    assert!(!mutants.is_empty());

    netobs::enable();
    let outcomes = evaluate(&ft.net, &info, &jobs, &mutants);
    let report = netobs::report();
    netobs::disable();
    assert_eq!(outcomes.len(), mutants.len());

    // The differential invariant: the time attributed to a span's
    // children sums to at most the span's own time.
    assert!(
        report.check_consistent(),
        "span child sums exceed their parent:\n{}",
        report.render()
    );

    // Evaluation runs on the calling thread: one tree, and in it one span
    // per mutant, each entered exactly once.
    assert_eq!(report.threads.len(), 1, "{}", report.render());
    let root = report.thread("main").expect("calling thread's tree");
    for m in &mutants {
        let span = root
            .child(&format!("mutant-{}", m.id))
            .unwrap_or_else(|| panic!("no span for mutant-{}", m.id));
        assert_eq!(span.count, 1, "mutant-{} judged once", m.id);
    }
    assert!(
        report
            .threads
            .iter()
            .all(|t| !t.label.starts_with("mutate-worker-")),
        "no worker trees"
    );

    // The export round-trips through our own JSON parser.
    let parsed = netobs::json::parse(&report.to_json()).expect("report JSON parses");
    let spans = parsed.get("spans").and_then(|s| s.as_array()).unwrap();
    assert_eq!(spans.len(), report.threads.len());
}
