//! The path fold's counters. Collection is process-global, so this file
//! holds exactly one test (its own test binary, like
//! `dataplane/tests/step_counters.rs`).

use dataplane::forward::Forwarder;
use dataplane::paths::{edge_starts, ExploreOpts};
use netbdd::Bdd;
use netmodel::{Location, MatchSets};
use topogen::{fattree, FatTreeParams};
use yardstick::pathcov::path_coverage;
use yardstick::{Analyzer, CoverageTrace};

/// The step and fold counters one measured section published.
fn counts() -> [u64; 4] {
    let counters = netobs::report().counters;
    [
        "dataplane.steps",
        "dataplane.step_memo_hits",
        "pathcov.fold_keys",
        "pathcov.fold_replays",
    ]
    .map(|name| counters[name])
}

/// On fat-tree k=4 path coverage steps the 128 states `explore` steps,
/// folds each subtree once per covered intersection it arrives with, and
/// publishes nothing while `netobs` is off.
#[test]
fn path_coverage_publishes_its_fold_keys_and_replays() {
    let ft = fattree(FatTreeParams::paper(4));
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&ft.net, &mut bdd);
    let fwd = Forwarder::new(&ft.net, &ms);
    let starts = edge_starts(&mut bdd, &fwd);
    let opts = ExploreOpts::default();

    // Untested, every carry past the first hop is empty; fully tested,
    // every carry is the packets themselves. With every other device
    // tested, arrivals in one state carry different covered sets.
    let untested = CoverageTrace::new();
    let mut tested = CoverageTrace::new();
    let mut half = CoverageTrace::new();
    let full = bdd.full();
    for (d, _) in ft.net.topology().devices() {
        tested.add_packets(&mut bdd, Location::device(d), full);
        if d.0 % 2 == 0 {
            half.add_packets(&mut bdd, Location::device(d), full);
        }
    }
    let mut seen = Vec::new();
    for trace in [&untested, &tested, &half] {
        let analyzer = Analyzer::new(&ft.net, &ms, trace, &mut bdd);
        netobs::enable();
        let pc = path_coverage(&mut bdd, &analyzer, &starts, &opts);
        let published = counts();
        netobs::disable();
        assert_eq!(pc.stats.paths, 284);
        path_coverage(&mut bdd, &analyzer, &starts, &opts);
        assert_eq!(counts(), published, "published while disabled");
        seen.push(published);
    }
    // Steps, step-memo hits, fold keys, whole-subtree replays. `explore`
    // makes the same 128 steps and 700 hits; the fold's replays take the
    // place of most of those hits.
    assert_eq!(
        seen,
        [
            [128, 24, 152, 196],
            [128, 24, 152, 196],
            [128, 138, 266, 234]
        ]
    );
}
