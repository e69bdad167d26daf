//! The step memo's counters. Collection is process-global, so this file
//! holds exactly one test (its own test binary, like
//! `core/tests/config_spans.rs`).

mod naive;

use dataplane::forward::Forwarder;
use dataplane::paths::{edge_starts, explore, ExploreOpts};
use dataplane::reach::reach;
use netbdd::Bdd;
use netmodel::{Location, MatchSets};
use topogen::{fattree, FatTreeParams};

use naive::naive_walk;

/// Step and memo-hit counts published by one measured section.
fn counts() -> (u64, u64) {
    let counters = netobs::report().counters;
    (
        counters["dataplane.steps"],
        counters["dataplane.step_memo_hits"],
    )
}

/// On fat-tree k=4 every depth-first visit of `explore` is either a
/// step or a memo hit, and `reach` from every ToR publishes into the
/// same two counters.
#[test]
fn walks_publish_their_steps_and_memo_hits() {
    let ft = fattree(FatTreeParams::paper(4));
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&ft.net, &mut bdd);
    let fwd = Forwarder::new(&ft.net, &ms);
    let starts = edge_starts(&mut bdd, &fwd);
    let opts = ExploreOpts::default();
    let visits = naive_walk(&mut bdd, &fwd, &starts, &opts).steps;

    netobs::enable();
    explore(&mut bdd, &fwd, &starts, &opts, |_, _| {});
    let (steps, hits) = counts();
    assert_eq!(steps + hits, visits);
    assert_eq!((steps, hits), (128, 700));

    netobs::enable();
    let full = bdd.full();
    for &(tor, _, _) in &ft.tors {
        reach(&mut bdd, &fwd, Location::device(tor), full, 32);
    }
    let (steps, hits) = counts();
    netobs::disable();
    assert_eq!((steps, hits), (160, 104));
}
