//! Thread-local span recording.
//!
//! The recording thread owns a private [`Recorder`]: an arena of
//! span-tree nodes plus the stack of currently-open spans. Opening and
//! closing a span touches only that thread-local state, so **no lock is
//! taken on the hot path**. [`crate::report`] takes the calling thread's
//! tree; spans another thread records stay in that thread's recorder and
//! never reach a report.
//!
//! Timing uses `Instant`; chrome-trace timestamps are offsets from a
//! process-wide epoch pinned at the first [`crate::enable`].

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// Aggregated wall-clock statistics of one span-tree node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Total nanoseconds across all entries of this span.
    pub total_ns: u64,
    /// Fastest single entry (0 until the span closes once).
    pub min_ns: u64,
    /// Slowest single entry.
    pub max_ns: u64,
}

/// One node of a reported span tree.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// The span's name as given to [`crate::span!`].
    pub name: String,
    /// Times this span was entered and closed.
    pub count: u64,
    /// Aggregated timing over all entries.
    pub stats: SpanStats,
    /// Child spans in first-entered order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// The direct child with this name, if any.
    pub fn child(&self, name: &str) -> Option<&SpanNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Total time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.stats.total_ns as f64 / 1e9
    }

    /// Recursively walk the tree.
    pub fn walk(&self, f: &mut impl FnMut(&SpanNode, usize)) {
        self.walk_at(f, 0)
    }

    fn walk_at(&self, f: &mut impl FnMut(&SpanNode, usize), depth: usize) {
        f(self, depth);
        for c in &self.children {
            c.walk_at(f, depth + 1);
        }
    }

    /// Time-consistency invariant: children run strictly inside their
    /// parent, so their totals must sum to at most the parent's total.
    /// A small absolute slack (1 ms per child) absorbs clock quantisation
    /// on very short spans. Container nodes (`count == 0`, e.g. the
    /// virtual root) carry no timing of their own and only recurse.
    pub fn check_consistent(&self) -> bool {
        let children_total: u64 = self.children.iter().map(|c| c.stats.total_ns).sum();
        let slack = 1_000_000u64 * self.children.len() as u64;
        let self_ok =
            self.count == 0 || children_total <= self.stats.total_ns.saturating_add(slack);
        self_ok && self.children.iter().all(SpanNode::check_consistent)
    }
}

/// One closed span occurrence, for the flat chrome-trace event list.
#[derive(Clone, Debug)]
pub(crate) struct Event {
    pub(crate) name: String,
    /// Start offset from the process trace epoch, nanoseconds.
    pub(crate) ts_ns: u64,
    pub(crate) dur_ns: u64,
}

/// Cap on retained chrome events; the span tree keeps aggregating past
/// it, only the flat list stops growing.
const MAX_EVENTS: usize = 1 << 20;

struct RawNode {
    name: Cow<'static, str>,
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    children: Vec<usize>,
}

impl RawNode {
    fn new(name: Cow<'static, str>) -> RawNode {
        RawNode {
            name,
            count: 0,
            total_ns: 0,
            min_ns: 0,
            max_ns: 0,
            children: Vec::new(),
        }
    }
}

struct Recorder {
    /// Arena; node 0 is the virtual root container.
    nodes: Vec<RawNode>,
    /// Indices of currently-open spans, innermost last.
    stack: Vec<usize>,
    events: Vec<Event>,
    events_dropped: u64,
    /// Bumped on every take; guards opened against an older generation
    /// (e.g. still open across a report) are ignored on drop
    /// instead of touching a recycled arena.
    generation: u64,
}

impl Recorder {
    fn new(generation: u64) -> Recorder {
        Recorder {
            nodes: vec![RawNode::new(Cow::Borrowed(""))],
            stack: Vec::new(),
            events: Vec::new(),
            events_dropped: 0,
            generation,
        }
    }

    fn is_empty(&self) -> bool {
        self.nodes.len() == 1 && self.events.is_empty()
    }

    fn enter(&mut self, name: Cow<'static, str>) -> usize {
        let parent = *self.stack.last().unwrap_or(&0);
        let existing = self.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c].name == name);
        let idx = existing.unwrap_or_else(|| {
            let idx = self.nodes.len();
            self.nodes.push(RawNode::new(name));
            self.nodes[parent].children.push(idx);
            idx
        });
        self.stack.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize, started: Instant, elapsed_ns: u64) {
        // Guards are scope-bound, so exits are LIFO; tolerate misuse by
        // unwinding to the matching entry.
        while let Some(top) = self.stack.pop() {
            if top == idx {
                break;
            }
        }
        let n = &mut self.nodes[idx];
        n.count += 1;
        n.total_ns += elapsed_ns;
        n.min_ns = if n.count == 1 {
            elapsed_ns
        } else {
            n.min_ns.min(elapsed_ns)
        };
        n.max_ns = n.max_ns.max(elapsed_ns);
        if self.events.len() < MAX_EVENTS {
            let ts_ns = started
                .checked_duration_since(epoch())
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            self.events.push(Event {
                name: n.name.clone().into_owned(),
                ts_ns,
                dur_ns: elapsed_ns,
            });
        } else {
            self.events_dropped += 1;
        }
    }

    fn tree(&self, at: usize) -> SpanNode {
        let n = &self.nodes[at];
        SpanNode {
            name: n.name.clone().into_owned(),
            count: n.count,
            stats: SpanStats {
                total_ns: n.total_ns,
                min_ns: n.min_ns,
                max_ns: n.max_ns,
            },
            children: n.children.iter().map(|&c| self.tree(c)).collect(),
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::new(0));
}

/// Process-wide epoch for chrome-trace timestamps.
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// RAII guard returned by [`crate::span()`] and the [`span!`](macro@crate::span)
/// macro; closing happens on drop.
///
/// An inactive guard (instrumentation disabled at entry) is a no-op to
/// create and to drop.
#[must_use = "a span guard measures the scope it lives in"]
pub struct SpanGuard {
    start: Option<(Instant, usize, u64)>,
}

impl SpanGuard {
    /// A guard that records nothing — what every instrumented call site
    /// gets when collection is disabled.
    #[inline]
    pub fn inactive() -> SpanGuard {
        SpanGuard { start: None }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some((started, idx, generation)) = self.start.take() {
            let elapsed_ns = started.elapsed().as_nanos() as u64;
            RECORDER.with(|r| {
                let mut rec = r.borrow_mut();
                if rec.generation == generation {
                    rec.exit(idx, started, elapsed_ns);
                }
            });
        }
    }
}

pub(crate) fn enter(name: Cow<'static, str>) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::inactive();
    }
    let (idx, generation) = RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        (rec.enter(name), rec.generation)
    });
    SpanGuard {
        start: Some((Instant::now(), idx, generation)),
    }
}

/// Take the calling thread's span tree (its virtual root, `None` when
/// nothing was recorded), its chrome events and the count of events past
/// the cap, leaving a fresh recorder behind.
pub(crate) fn take() -> (Option<SpanNode>, Vec<Event>, u64) {
    epoch(); // pin the chrome-trace epoch no later than the first enable
    RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        let fresh = Recorder::new(rec.generation + 1);
        let taken = std::mem::replace(&mut *rec, fresh);
        let tree = (!taken.is_empty()).then(|| taken.tree(0));
        (tree, taken.events, taken.events_dropped)
    })
}
