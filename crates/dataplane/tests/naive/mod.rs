//! The path walk without a memo: a depth-first recursion that calls
//! [`Forwarder::step`] afresh at every arrival. It exists only here, as
//! the oracle the memoised `explore` is compared against; it is shared
//! by `#[path]` with the path-coverage tests of the `yardstick` crate.

use dataplane::forward::{Forwarder, Outcome};
use dataplane::paths::{ExploreOpts, PathStats, Terminal};
use netbdd::{Bdd, Ref};
use netmodel::{Location, RuleId};

/// One path as `explore` hands it to its visitor.
pub type Event = (Location, Vec<RuleId>, Terminal, Ref);

/// What the naive walk found: every path in emission order, the totals
/// `explore` would report, and how many times it stepped a device (one
/// per depth-first visit that was neither cut nor truncated).
pub struct NaiveWalk {
    pub events: Vec<Event>,
    pub stats: PathStats,
    pub steps: u64,
    start: Option<Location>,
    rules: Vec<RuleId>,
}

/// Walk the path universe from `starts` under `opts`, stepping every
/// arrival.
pub fn naive_walk(
    bdd: &mut Bdd,
    fwd: &Forwarder<'_>,
    starts: &[(Location, Ref)],
    opts: &ExploreOpts,
) -> NaiveWalk {
    let mut walk = NaiveWalk {
        events: Vec::new(),
        stats: PathStats::default(),
        steps: 0,
        start: None,
        rules: Vec::new(),
    };
    for &(start, packets) in starts {
        if packets.is_false() {
            continue;
        }
        walk.start = Some(start);
        dfs(bdd, fwd, opts, &mut walk, start, packets);
        if walk.stats.paths >= opts.max_paths {
            break;
        }
    }
    walk
}

fn dfs(
    bdd: &mut Bdd,
    fwd: &Forwarder<'_>,
    opts: &ExploreOpts,
    walk: &mut NaiveWalk,
    loc: Location,
    packets: Ref,
) {
    if walk.stats.paths >= opts.max_paths {
        return;
    }
    if walk.rules.len() >= opts.max_hops {
        emit(walk, Terminal::Truncated, packets);
        return;
    }
    walk.steps += 1;
    let step = fwd.step(bdd, loc.device, loc.iface, packets);
    if !step.unmatched.is_false() && (!walk.rules.is_empty() || opts.emit_empty_paths) {
        emit(walk, Terminal::Unmatched, step.unmatched);
    }
    for t in step.transitions {
        walk.rules.push(t.rule);
        for o in t.outcomes {
            match o {
                Outcome::Hop { next, packets } => dfs(bdd, fwd, opts, walk, next, packets),
                Outcome::Delivered { iface, packets } => {
                    emit(walk, Terminal::Delivered { iface }, packets)
                }
                Outcome::Exited { iface, packets } => {
                    emit(walk, Terminal::Exited { iface }, packets)
                }
                Outcome::Dropped { packets } => emit(walk, Terminal::Dropped, packets),
            }
        }
        walk.rules.pop();
    }
}

fn emit(walk: &mut NaiveWalk, terminal: Terminal, set: Ref) {
    let stats = &mut walk.stats;
    stats.paths += 1;
    stats.max_len = stats.max_len.max(walk.rules.len());
    match terminal {
        Terminal::Delivered { .. } => stats.delivered += 1,
        Terminal::Exited { .. } => stats.exited += 1,
        Terminal::Dropped => stats.dropped += 1,
        Terminal::Unmatched => stats.unmatched += 1,
        Terminal::Truncated => stats.truncated += 1,
    }
    let start = walk.start.expect("set before each start's walk");
    walk.events.push((start, walk.rules.clone(), terminal, set));
}
