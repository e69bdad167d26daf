//! # netobs — zero-dependency observability: spans, gauges, counters
//!
//! The pipeline's measurement substrate. The container this workspace
//! builds in is offline, so there is no `tracing` or `metrics` crate to
//! lean on; like the `shims/` crates, this is a hand-rolled subset of
//! that functionality — exactly the slice the coverage pipeline needs:
//!
//! * **Spans** ([`span!`]): thread-local RAII guards recording nested
//!   wall-clock timings into a private span tree (no locks on the hot
//!   path). [`report`] takes the calling thread's tree into a [`Report`]
//!   exportable as a JSON span tree and a flat chrome-trace-compatible
//!   event list (`chrome://tracing` / Perfetto accept the emitted file
//!   directly). The pipeline runs on one thread, so that tree is the
//!   whole picture; spans another thread opens are never reported.
//! * **Gauges and counters** ([`gauge`], [`counter`]): a global registry
//!   for point-in-time values (BDD node counts, cache hit rates) and
//!   monotone tallies, snapshotted into the same report.
//! * **Disabled-path cost ≈ zero**: every entry point first does one
//!   relaxed atomic load and bails. No `Instant::now()`, no allocation,
//!   no lock is touched unless [`enable`] has been called — so
//!   instrumented code paths cost nothing in ordinary runs (verified by
//!   `bench/benches/netobs_overhead.rs`).
//!
//! ```
//! netobs::enable();
//! {
//!     let _outer = netobs::span!("analysis");
//!     {
//!         let _inner = netobs::span!("covered_sets");
//!         netobs::counter("rules_processed", 42);
//!     }
//!     netobs::gauge("bdd.nodes", 1234.0);
//! }
//! let report = netobs::report();
//! let tree = report.thread("main").unwrap();
//! assert_eq!(tree.child("analysis").unwrap().child("covered_sets").unwrap().count, 1);
//! netobs::disable();
//! ```

#![deny(missing_docs)]

pub mod json;
mod registry;
mod report;
mod span;

pub use registry::{counter, counters_snapshot, gauge, gauges_snapshot};
pub use report::Report;
pub use span::{SpanGuard, SpanNode, SpanStats};

use std::sync::atomic::{AtomicBool, Ordering};

/// The one flag every instrumented call site checks first. Relaxed is
/// enough: enabling happens-before the instrumented work via the usual
/// program order on the enabling thread, and a thread spawned after
/// `enable()` sees it through the spawn.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether instrumentation is currently collecting.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Start collecting. Clears everything a previous enable/report cycle
/// left behind (gauges, counters, the calling thread's span tree), so
/// back-to-back measured sections don't bleed into each other.
pub fn enable() {
    span::take();
    registry::reset();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop collecting. Data already recorded stays available to [`report`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Open a span named by a static string. Prefer the [`span!`] macro.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span::enter(std::borrow::Cow::Borrowed(name))
}

/// Open a span with a runtime-built name (e.g. `mutant-3`).
#[inline]
pub fn span_owned(name: String) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inactive();
    }
    span::enter(std::borrow::Cow::Owned(name))
}

/// Open a named span; the returned guard closes it when dropped.
///
/// Takes a format string — `span!("phase")`, `span!("job-{i}")` —
/// built only when collection is enabled, so disabled call sites pay one
/// atomic load. (The name is always routed through `format!`: a literal
/// with inline captures must not silently become a static name.)
///
/// # Examples
///
/// ```
/// netobs::enable();
/// {
///     let _outer = netobs::span!("compute");
///     for i in 0..3 {
///         let _inner = netobs::span!("job-{i}");
///     }
/// } // guards close their spans on drop
///
/// let report = netobs::report();
/// let compute = report.thread("main").unwrap().children
///     .iter().find(|s| s.name == "compute").unwrap();
/// assert_eq!(compute.count, 1);
/// assert_eq!(compute.children.len(), 3); // job-0, job-1, job-2
/// ```
#[macro_export]
macro_rules! span {
    ($($fmt:tt)+) => {
        if $crate::enabled() {
            $crate::span_owned(::std::format!($($fmt)+))
        } else {
            $crate::SpanGuard::inactive()
        }
    };
}

/// Take the calling thread's span tree and chrome events, reported under
/// the label `main`, together with the gauge/counter registry. Collection
/// stays enabled; the span data is drained, the registry is not.
pub fn report() -> Report {
    let (tree, events, events_dropped) = span::take();
    Report {
        tree,
        events,
        events_dropped,
        gauges: gauges_snapshot(),
        counters: counters_snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // The tests below mutate process-global state; a mutex serialises
    // them (cargo runs #[test]s in one process, many threads).
    use std::sync::Mutex;
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = locked();
        disable();
        {
            let _s = span!("ghost");
            gauge("ghost.gauge", 1.0);
            counter("ghost.counter", 1);
        }
        enable();
        let report = report();
        assert!(report.thread("main").is_none());
        assert!(report.gauges.is_empty());
        assert!(report.counters.is_empty());
        disable();
    }

    #[test]
    fn nested_spans_build_a_tree() {
        let _l = locked();
        enable();
        {
            let _a = span!("outer");
            for _ in 0..3 {
                let _b = span!("inner");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let report = report();
        let main = report.thread("main").expect("main tree reported");
        let outer = main.child("outer").expect("outer span recorded");
        assert_eq!(outer.count, 1);
        let inner = outer.child("inner").expect("inner nested under outer");
        assert_eq!(inner.count, 3);
        assert!(inner.stats.min_ns <= inner.stats.max_ns);
        assert!(inner.stats.total_ns <= outer.stats.total_ns);
        disable();
    }

    #[test]
    fn sibling_spans_of_the_same_name_accumulate() {
        let _l = locked();
        enable();
        for _ in 0..5 {
            let _s = span!("phase");
        }
        let report = report();
        let phase = report.thread("main").unwrap().child("phase").unwrap();
        assert_eq!(phase.count, 5);
        assert!(phase.stats.total_ns >= phase.stats.max_ns);
        disable();
    }

    #[test]
    fn other_threads_spans_stay_out_while_their_gauges_reach_the_report() {
        let _l = locked();
        enable();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _s = span!("worker");
                gauge("worker.gauge", 3.0);
                counter("worker.counter", 2);
            });
        });
        {
            let _m = span!("merge");
        }
        let report = report();
        let main = report.thread("main").unwrap();
        assert!(main.child("merge").is_some());
        assert!(main.child("worker").is_none());
        assert!(report.thread("worker").is_none());
        assert_eq!(report.gauges["worker.gauge"], 3.0);
        assert_eq!(report.counters["worker.counter"], 2);
        let parsed = json::parse(&report.to_json()).unwrap();
        let spans = parsed.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(spans.len(), 1);
        disable();
    }

    #[test]
    fn enable_resets_previous_data() {
        let _l = locked();
        enable();
        {
            let _s = span!("stale");
            counter("stale", 1);
        }
        enable(); // fresh measured section
        {
            let _s = span!("fresh");
        }
        let report = report();
        let main = report.thread("main").unwrap();
        assert!(main.child("stale").is_none());
        assert!(main.child("fresh").is_some());
        assert!(!report.counters.contains_key("stale"));
        disable();
    }

    #[test]
    fn gauges_overwrite_and_counters_accumulate() {
        let _l = locked();
        enable();
        gauge("g", 1.0);
        gauge("g", 2.5);
        counter("c", 3);
        counter("c", 4);
        let report = report();
        assert_eq!(report.gauges["g"], 2.5);
        assert_eq!(report.counters["c"], 7);
        disable();
    }

    #[test]
    fn report_json_contains_tree_gauges_and_chrome_events() {
        let _l = locked();
        enable();
        {
            let _a = span!("pipeline");
            let _b = span!("step");
        }
        gauge("bdd.nodes", 17.0);
        counter("jobs", 2);
        let report = report();
        let out = report.to_json();
        for needle in [
            "\"traceEvents\"",
            "\"spans\"",
            "\"pipeline\"",
            "\"step\"",
            "\"gauges\"",
            "\"bdd.nodes\": 17",
            "\"counters\"",
            "\"jobs\": 2",
            "\"ph\": \"X\"",
        ] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
        // The emitted JSON round-trips through our own parser.
        let parsed = json::parse(&out).expect("report JSON parses");
        assert!(parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .is_some());
        disable();
    }

    #[test]
    fn span_tree_is_time_consistent() {
        let _l = locked();
        enable();
        {
            let _a = span!("parent");
            {
                let _b = span!("child1");
                std::thread::sleep(Duration::from_millis(2));
            }
            {
                let _c = span!("child2");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let report = report();
        let main = report.thread("main").unwrap();
        assert!(
            main.check_consistent(),
            "children must sum to at most their parent: {main:?}"
        );
        disable();
    }
}
