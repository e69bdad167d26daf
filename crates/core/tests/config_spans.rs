//! Span shape of the config-coverage queries. Collection is
//! process-global, so this file holds exactly one test (its own test
//! binary, like `routing/tests/obs.rs`).

use netmodel::provenance::Construct;
use netobs::SpanNode;
use topogen::{fattree_with_engine, FatTreeParams};
use yardstick::daemon::{handle, Request};
use yardstick::CoverageEngine;

/// How often a span of this name was entered anywhere in the tree.
fn count(root: &SpanNode, name: &str) -> u64 {
    let mut n = 0;
    root.walk(&mut |node, _| {
        if node.name == name {
            n += node.count;
        }
    });
    n
}

/// Each summary opens one `config_summary` with the rule pass and the
/// DAG walk beneath it; a drill-down opens one `config_drilldown` and
/// never the summary.
#[test]
fn each_query_opens_its_span_tree_once() {
    let (ft, routing) = fattree_with_engine(FatTreeParams::paper(4));
    let session = Construct::session(ft.tors[0].0, ft.aggs[0]);
    let mut engine = CoverageEngine::new(ft.net, 1);
    engine.attach_routing(routing);
    let drill_down = format!("/config-coverage?construct={}", session.wire_id());

    netobs::enable();
    engine.config_coverage().unwrap();
    handle(&mut engine, &Request::new("GET", "/config-coverage", ""));
    let report = netobs::report();
    let root = report.thread("main").expect("main thread spans");
    assert_eq!(count(root, "config_summary"), 2, "{}", report.render());
    let summary = root
        .child("config_summary")
        .expect("config_summary at top level");
    for stage in ["config_keys", "provenance_marks"] {
        let n = summary.child(stage).map(|s| s.count);
        assert_eq!(n, Some(2), "{stage}:\n{}", report.render());
    }

    netobs::enable();
    engine.construct_coverage(&session).unwrap().unwrap();
    handle(&mut engine, &Request::new("GET", &drill_down, ""));
    let report = netobs::report();
    netobs::disable();
    let root = report.thread("main").expect("main thread spans");
    assert_eq!(count(root, "config_drilldown"), 2, "{}", report.render());
    assert_eq!(count(root, "config_summary"), 0, "{}", report.render());
}
