//! Assembling and exporting the observability report.
//!
//! One [`Report`] holds the recording thread's span tree plus the
//! gauge/counter registry. [`Report::to_json`] emits a single JSON
//! document that is simultaneously:
//!
//! * a **chrome-trace file** — the top-level `traceEvents` array is what
//!   `chrome://tracing` and Perfetto load (extra top-level keys are
//!   ignored by both), and
//! * a **span-tree report** — the `spans`, `gauges`, and `counters` keys
//!   carry the aggregate view `benchdiff` and humans read.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{number, quote};
use crate::span::{Event, SpanNode};

/// Everything one measured section produced.
#[derive(Clone, Debug)]
pub struct Report {
    /// The recording thread's span tree (its virtual root), if it
    /// recorded any span.
    pub(crate) tree: Option<SpanNode>,
    /// Retained chrome events, in emission order.
    pub(crate) events: Vec<Event>,
    /// Events discarded beyond the retention cap (the tree keeps
    /// aggregating regardless).
    pub(crate) events_dropped: u64,
    /// Last-write-wins named measurements.
    pub gauges: BTreeMap<String, f64>,
    /// Monotone named tallies.
    pub counters: BTreeMap<String, u64>,
}

/// The label the one span tree is reported under.
const MAIN: &str = "main";

impl Report {
    /// The span tree recorded under `label`: the recording thread's tree
    /// answers to `"main"`, and no other label has one.
    pub fn thread(&self, label: &str) -> Option<&SpanNode> {
        self.tree.as_ref().filter(|_| label == MAIN)
    }

    /// Whether the span tree satisfies the nesting invariant (children
    /// sum to at most their parent).
    pub fn check_consistent(&self) -> bool {
        self.tree.as_ref().is_none_or(SpanNode::check_consistent)
    }

    /// Serialise as chrome-trace-compatible JSON with the span-tree
    /// report alongside (see module docs).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"traceEvents\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "    {{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 0, \
                 \"ts\": {}, \"dur\": {}}}",
                quote(&e.name),
                e.ts_ns / 1_000,
                (e.dur_ns / 1_000).max(1)
            );
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"spans\": [\n");
        if let Some(tree) = &self.tree {
            let _ = write!(
                out,
                "    {{\"thread\": {}, \"events_dropped\": {}, \"tree\": ",
                quote(MAIN),
                self.events_dropped
            );
            span_json(&mut out, tree);
            out.push_str("}\n");
        }
        out.push_str("  ],\n");
        out.push_str("  \"gauges\": {\n");
        let ng = self.gauges.len();
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            let _ = write!(out, "    {}: {}", quote(k), number(*v));
            out.push_str(if i + 1 < ng { ",\n" } else { "\n" });
        }
        out.push_str("  },\n");
        out.push_str("  \"counters\": {\n");
        let nc = self.counters.len();
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let _ = write!(out, "    {}: {}", quote(k), v);
            out.push_str(if i + 1 < nc { ",\n" } else { "\n" });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Human-oriented indented rendering of the span tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(tree) = &self.tree {
            let _ = writeln!(out, "[{MAIN}]");
            tree.walk(&mut |n, depth| {
                if depth == 0 {
                    return; // virtual root
                }
                let _ = writeln!(
                    out,
                    "{:indent$}{:<24} {:>10.3}s  x{}",
                    "",
                    n.name,
                    n.total_secs(),
                    n.count,
                    indent = (depth - 1) * 2
                );
            });
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge   {k} = {v}");
        }
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k} = {v}");
        }
        out
    }
}

fn span_json(out: &mut String, n: &SpanNode) {
    let _ = write!(
        out,
        "{{\"name\": {}, \"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
         \"children\": [",
        quote(&n.name),
        n.count,
        n.stats.total_ns,
        n.stats.min_ns,
        n.stats.max_ns
    );
    for (i, c) in n.children.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        span_json(out, c);
    }
    out.push_str("]}");
}
