//! Path and flow coverage walk the path universe through `explore`,
//! which steps each `(device, ingress scope, packet set)` once and
//! replays the step for later arrivals. On fat-tree k=8 both metrics
//! must equal, bit for bit, the same folds over the walk without the
//! memo — the recursion in `dataplane/tests/naive`, shared here by
//! `#[path]` so there is one oracle walk.

#[path = "../../dataplane/tests/naive/mod.rs"]
mod naive;

use dataplane::forward::Forwarder;
use dataplane::paths::{edge_starts, ExploreOpts};
use dataplane::reach::reach;
use netbdd::{Bdd, Ref};
use netmodel::header::{dport_in, dst_in, family_is, proto_is};
use netmodel::{Family, Location, MatchSets};
use topogen::{fattree, FatTreeParams};
use yardstick::flowcov::{flow_coverage, Flow, FlowCoverage};
use yardstick::framework::path_survival;
use yardstick::pathcov::{path_coverage, path_guard, PathCoverage};
use yardstick::{Analyzer, Tracker};

use naive::{naive_walk, Event};

/// Equation 3 of one path, with its guard's weight: `None` for the
/// paths both metrics skip (no rules, or an empty guard within `within`).
fn path_value(
    bdd: &mut Bdd,
    analyzer: &Analyzer<'_>,
    event: &Event,
    within: Ref,
) -> Option<(f64, f64)> {
    let (net, ms) = (analyzer.network(), analyzer.match_sets());
    let (_, rules, _, final_set) = event;
    let guard = path_guard(bdd, net, ms, rules, *final_set);
    let guard = bdd.and(guard, within);
    if rules.is_empty() || guard.is_false() {
        return None;
    }
    let m = path_survival(bdd, net, ms, analyzer.covered_sets(), guard, rules);
    Some((m, bdd.probability(guard)))
}

/// `path_coverage`'s fold over the naive walk.
fn naive_path_coverage(
    bdd: &mut Bdd,
    analyzer: &Analyzer<'_>,
    starts: &[(Location, Ref)],
    opts: &ExploreOpts,
) -> PathCoverage {
    let fwd = Forwarder::new(analyzer.network(), analyzer.match_sets());
    let walk = naive_walk(bdd, &fwd, starts, opts);
    let (mut total, mut hit, mut sum, mut wsum, mut wtotal) = (0u64, 0u64, 0.0, 0.0, 0.0);
    for event in &walk.events {
        let Some((m, w)) = path_value(bdd, analyzer, event, Ref::TRUE) else {
            continue;
        };
        total += 1;
        hit += u64::from(m > 0.0);
        sum += m;
        wsum += m * w;
        wtotal += w;
    }
    PathCoverage {
        total_paths: total,
        covered_paths: hit,
        mean: if total == 0 { 0.0 } else { sum / total as f64 },
        weighted: if wtotal == 0.0 { 0.0 } else { wsum / wtotal },
        stats: walk.stats,
    }
}

/// `flow_coverage`'s fold over the naive walk.
fn naive_flow_coverage(bdd: &mut Bdd, analyzer: &Analyzer<'_>, flow: Flow) -> Option<FlowCoverage> {
    if flow.headers.is_false() {
        return None;
    }
    let fwd = Forwarder::new(analyzer.network(), analyzer.match_sets());
    let opts = ExploreOpts {
        emit_empty_paths: true,
        ..ExploreOpts::default()
    };
    let walk = naive_walk(bdd, &fwd, &[(flow.start, flow.headers)], &opts);
    let flow_weight = bdd.probability(flow.headers);
    let (mut paths, mut wsum, mut wtotal, mut unrouted) = (0u64, 0.0, 0.0, 0.0);
    for event in &walk.events {
        if event.1.is_empty() {
            unrouted += bdd.probability(event.3);
            continue;
        }
        let Some((m, w)) = path_value(bdd, analyzer, event, flow.headers) else {
            continue;
        };
        paths += 1;
        wsum += m * w;
        wtotal += w;
    }
    (wtotal != 0.0).then(|| FlowCoverage {
        paths,
        coverage: wsum / wtotal,
        unrouted_weight: if flow_weight == 0.0 {
            0.0
        } else {
            unrouted / flow_weight
        },
    })
}

fn path_bits(pc: &PathCoverage) -> (u64, u64, u64, u64) {
    (
        pc.total_paths,
        pc.covered_paths,
        pc.mean.to_bits(),
        pc.weighted.to_bits(),
    )
}

fn flow_bits(fc: Option<FlowCoverage>) -> Option<(u64, u64, u64)> {
    fc.map(|f| (f.paths, f.coverage.to_bits(), f.unrouted_weight.to_bits()))
}

#[test]
fn path_and_flow_coverage_on_fattree_k8_match_the_naive_walk() {
    let ft = fattree(FatTreeParams::paper(8));
    let net = &ft.net;
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(net, &mut bdd);
    let fwd = Forwarder::new(net, &ms);

    // A partial suite: reachability from every third ToR, each with a
    // different slice of the header space, so paths are covered not at
    // all, in part and in full.
    let full = bdd.full();
    let slices = [proto_is(&mut bdd, 6), dport_in(&mut bdd, 0, 1023), full];
    let mut tracker = Tracker::new();
    for (i, &(tor, _, _)) in ft.tors.iter().enumerate().step_by(3) {
        let res = reach(&mut bdd, &fwd, Location::device(tor), slices[i % 3], 32);
        tracker.mark_packet_set(&mut bdd, &res.per_hop);
    }
    let trace = tracker.into_trace();
    let analyzer = Analyzer::new(net, &ms, &trace, &mut bdd);

    let starts = edge_starts(&mut bdd, &fwd);
    for max_paths in [u64::MAX, 5_000] {
        let opts = ExploreOpts {
            max_paths,
            ..ExploreOpts::default()
        };
        let memoised = path_coverage(&mut bdd, &analyzer, &starts, &opts);
        let naive = naive_path_coverage(&mut bdd, &analyzer, &starts, &opts);
        assert_eq!(memoised.stats, naive.stats, "budget {max_paths}");
        assert_eq!(
            path_bits(&memoised),
            path_bits(&naive),
            "budget {max_paths}"
        );
        assert!(0 < memoised.covered_paths && memoised.covered_paths < memoised.total_paths);
    }
    assert_eq!(
        path_coverage(&mut bdd, &analyzer, &starts, &ExploreOpts::default()).total_paths,
        15_792
    );

    let v4 = family_is(&mut bdd, Family::V4);
    let mut flows = Vec::new();
    for (i, &(tor, _, host)) in ft.tors.iter().enumerate().take(8) {
        let start = Location::at(tor, host);
        let (_, dst, _) = ft.tors[(i * 5 + 3) % ft.tors.len()];
        let headers = dst_in(&mut bdd, &dst);
        flows.push(Flow { start, headers });
        flows.push(Flow { start, headers: v4 });
    }
    let mut covered = 0;
    for flow in flows {
        let memoised = flow_coverage(&mut bdd, &analyzer, flow, &ExploreOpts::default());
        let naive = naive_flow_coverage(&mut bdd, &analyzer, flow);
        covered += usize::from(memoised.is_some_and(|f| f.coverage > 0.0));
        assert_eq!(flow_bits(memoised), flow_bits(naive), "{:?}", flow.start);
    }
    assert!(covered > 0);
}
