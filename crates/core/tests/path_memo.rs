//! Path and flow coverage fold the path universe with `fold_paths`:
//! each `(state, covered intersection, hops left)` subtree is valued
//! once and later arrivals take its totals whole while they fit the
//! budget. Both metrics must equal the same folds over the walk without
//! any memo — the recursion in `dataplane/tests/naive`, shared here by
//! `#[path]` so there is one oracle walk — with every count exact and
//! every sum within 1e-12 relative (the fold adds subtree by subtree,
//! the oracle path by path).

#[path = "../../dataplane/tests/naive/mod.rs"]
mod naive;

use dataplane::forward::Forwarder;
use dataplane::paths::{edge_starts, ExploreOpts};
use dataplane::reach::reach;
use netbdd::{Bdd, Ref};
use netmodel::header::{dport_in, dst_in, family_is, proto_is};
use netmodel::rule::RouteClass;
use netmodel::topology::{DeviceId, IfaceKind, Role, Topology};
use netmodel::{
    Action, Family, HeaderField, Location, MatchFields, MatchSets, Network, Prefix, Rewrite, Rule,
};
use topogen::{fattree, regional, FatTreeParams, RegionalParams};
use yardstick::flowcov::{flow_coverage, Flow, FlowCoverage};
use yardstick::framework::path_survival;
use yardstick::pathcov::{path_coverage, path_guard, PathCoverage};
use yardstick::{Analyzer, CoverageTrace, Tracker};

use naive::{naive_walk, Event};

/// The budgets every universe is walked under: cuts at the first
/// paths, inside the universes and beyond them.
const BUDGETS: [u64; 7] = [1, 2, 7, 284, 5_000, 50_000, u64::MAX];

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

/// `path_coverage`'s metric, path by path over the naive walk.
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

/// `flow_coverage`'s metric, path by path over the naive walk.
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

/// Equal within 1e-12 of the larger magnitude.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

/// Counts exact, means within 1e-12 relative.
fn assert_same_paths(fold: &PathCoverage, oracle: &PathCoverage, what: &str) {
    assert_eq!(fold.stats, oracle.stats, "{what}");
    assert_eq!(
        (fold.total_paths, fold.covered_paths),
        (oracle.total_paths, oracle.covered_paths),
        "{what}"
    );
    assert!(
        close(fold.mean, oracle.mean) && close(fold.weighted, oracle.weighted),
        "{what}: fold {fold:?}, oracle {oracle:?}"
    );
}

fn assert_same_flow(fold: Option<FlowCoverage>, oracle: Option<FlowCoverage>, what: &str) {
    match (fold, oracle) {
        (None, None) => {}
        (Some(f), Some(o)) => assert!(
            f.paths == o.paths
                && close(f.coverage, o.coverage)
                && close(f.unrouted_weight, o.unrouted_weight),
            "{what}: fold {f:?}, oracle {o:?}"
        ),
        (f, o) => panic!("{what}: fold {f:?}, oracle {o:?}"),
    }
}

/// Path coverage from the edge starts, folded and by the oracle, under
/// every budget of [`BUDGETS`]; returns the uncapped fold.
fn assert_every_budget(bdd: &mut Bdd, analyzer: &Analyzer<'_>, what: &str) -> PathCoverage {
    let fwd = Forwarder::new(analyzer.network(), analyzer.match_sets());
    let starts = edge_starts(bdd, &fwd);
    let mut whole = PathCoverage::default();
    for max_paths in BUDGETS {
        let opts = ExploreOpts {
            max_paths,
            ..ExploreOpts::default()
        };
        let fold = path_coverage(bdd, analyzer, &starts, &opts);
        let oracle = naive_path_coverage(bdd, analyzer, &starts, &opts);
        assert_same_paths(&fold, &oracle, &format!("{what}, budget {max_paths}"));
        whole = fold;
    }
    whole
}

/// Reachability from every third of `sources`, each with a different
/// slice of the header space, so paths are covered not at all, in part
/// and in full.
fn partial_trace(bdd: &mut Bdd, fwd: &Forwarder<'_>, sources: &[DeviceId]) -> CoverageTrace {
    let full = bdd.full();
    let slices = [proto_is(bdd, 6), dport_in(bdd, 0, 1023), full];
    let mut tracker = Tracker::new();
    for (i, &src) in sources.iter().enumerate().step_by(3) {
        let res = reach(bdd, fwd, Location::device(src), slices[i % 3], 32);
        tracker.mark_packet_set(bdd, &res.per_hop);
    }
    tracker.into_trace()
}

#[test]
fn path_and_flow_coverage_on_fattree_k8_match_the_naive_walk() {
    let ft = fattree(FatTreeParams::paper(8));
    let net = &ft.net;
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(net, &mut bdd);
    let fwd = Forwarder::new(net, &ms);
    let tors: Vec<DeviceId> = ft.tors.iter().map(|t| t.0).collect();
    let trace = partial_trace(&mut bdd, &fwd, &tors);
    let analyzer = Analyzer::new(net, &ms, &trace, &mut bdd);

    let whole = assert_every_budget(&mut bdd, &analyzer, "fat-tree k=8");
    assert_eq!(whole.total_paths, 15_792);
    assert!(0 < whole.covered_paths && whole.covered_paths < whole.total_paths);

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
        let fold = flow_coverage(&mut bdd, &analyzer, flow, &ExploreOpts::default());
        let oracle = naive_flow_coverage(&mut bdd, &analyzer, flow);
        covered += usize::from(fold.is_some_and(|f| f.coverage > 0.0));
        assert_same_flow(fold, oracle, &format!("{:?}", flow.start));
    }
    assert!(covered > 0);
}

#[test]
fn fattree_k4_and_regional_1x_match_the_naive_walk_at_every_budget() {
    let ft = fattree(FatTreeParams::paper(4));
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&ft.net, &mut bdd);
    let fwd = Forwarder::new(&ft.net, &ms);
    let tors: Vec<DeviceId> = ft.tors.iter().map(|t| t.0).collect();
    let trace = partial_trace(&mut bdd, &fwd, &tors);
    let analyzer = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
    assert_eq!(
        assert_every_budget(&mut bdd, &analyzer, "fat-tree k=4")
            .stats
            .paths,
        284
    );

    // Regional 1×: forwarding loops that truncate, so the hops left
    // tell apart subtrees that start in the same state.
    let r = regional(RegionalParams::default());
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&r.net, &mut bdd);
    let fwd = Forwarder::new(&r.net, &ms);
    let mut sources: Vec<DeviceId> = r.tors.iter().map(|t| t.0).collect();
    sources.extend(&r.aggs);
    let trace = partial_trace(&mut bdd, &fwd, &sources);
    let analyzer = Analyzer::new(&r.net, &ms, &trace, &mut bdd);
    let whole = assert_every_budget(&mut bdd, &analyzer, "regional 1x");
    assert_eq!((whole.stats.paths, whole.stats.truncated), (157_056, 132));
    assert!(0 < whole.covered_paths && whole.covered_paths < whole.total_paths);
}

/// A forwarding loop `b ⇄ c` entered from `a` on both sides: `c` is
/// reached one hop from `a` and two hops from `a` (via `b`), with the
/// same packets and, once a hop is uncovered, the same covered
/// intersection; only the hops left tell those subtrees apart.
#[test]
fn a_forwarding_loop_reached_at_two_depths_matches_the_naive_walk() {
    let mut t = Topology::new();
    let a = t.add_device("a", Role::Tor);
    let b = t.add_device("b", Role::Spine);
    let c = t.add_device("c", Role::Spine);
    let _ingress = t.add_iface(a, "in", IfaceKind::Host);
    let wan = t.add_iface(c, "wan", IfaceKind::External);
    let (ab, _) = t.add_link(a, b);
    let (ac, _) = t.add_link(a, c);
    let (bc, cb) = t.add_link(b, c);
    let default = Prefix::v4_default();
    let mut net = Network::new(t);
    net.add_rule(
        a,
        Rule::forward(default, vec![ab, ac], RouteClass::StaticDefault),
    );
    net.add_rule(
        b,
        Rule::forward(default, vec![bc], RouteClass::StaticDefault),
    );
    net.add_rule(
        c,
        Rule::forward(default, vec![wan, cb], RouteClass::StaticDefault),
    );
    net.finalize();

    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&net, &mut bdd);
    let fwd = Forwarder::new(&net, &ms);
    let starts = edge_starts(&mut bdd, &fwd);
    let half = dst_in(&mut bdd, &"0.0.0.0/1".parse().unwrap());
    // Untested, `a` alone tested, everything tested on half the space.
    let marks: [&[DeviceId]; 3] = [&[], &[a], &[a, b, c]];
    for (i, devices) in marks.into_iter().enumerate() {
        let mut trace = CoverageTrace::new();
        for &d in devices {
            let set = if i == 2 { half } else { bdd.full() };
            trace.add_packets(&mut bdd, Location::device(d), set);
        }
        let analyzer = Analyzer::new(&net, &ms, &trace, &mut bdd);
        for max_hops in [6, 7] {
            for max_paths in BUDGETS {
                let opts = ExploreOpts {
                    max_hops,
                    max_paths,
                    ..ExploreOpts::default()
                };
                let fold = path_coverage(&mut bdd, &analyzer, &starts, &opts);
                let oracle = naive_path_coverage(&mut bdd, &analyzer, &starts, &opts);
                let what = format!("marks {i}, hops {max_hops}, budget {max_paths}");
                assert_same_paths(&fold, &oracle, &what);
                assert!(
                    max_paths < 9 || fold.stats.truncated == 3,
                    "{what}: {:?}",
                    fold.stats
                );
            }
        }
    }
}

/// `s` splits a /24 across `a` and `c`; each rewrites one half of it to
/// the same address and passes the other half on, and `b` delivers.
/// The rewritten packets reach `b` in one state by two routes, one
/// through a tested rewrite and one through an untested one, so a
/// subtree below a rewrite has no single value to fold.
#[test]
fn paths_through_a_rewrite_keep_their_own_value() {
    let mut t = Topology::new();
    let s = t.add_device("s", Role::Tor);
    let a = t.add_device("a", Role::Spine);
    let c = t.add_device("c", Role::Spine);
    let b = t.add_device("b", Role::Tor);
    let ingress = t.add_iface(s, "in", IfaceKind::Host);
    let hosts = t.add_iface(b, "hosts", IfaceKind::Host);
    let (sa, _) = t.add_link(s, a);
    let (sc, _) = t.add_link(s, c);
    let (ab, _) = t.add_link(a, b);
    let (cb, _) = t.add_link(c, b);
    let p24: Prefix = "10.0.0.0/24".parse().unwrap();
    let lower: Prefix = "10.0.0.0/25".parse().unwrap();
    let upper: Prefix = "10.0.0.128/25".parse().unwrap();
    let to_70 = |half: Prefix, out| Rule {
        matches: MatchFields::dst_prefix(half),
        action: Action::Rewrite(
            Rewrite {
                set: vec![(HeaderField::Dst4, u128::from(0x0A00_0046u32))], // 10.0.0.70
            },
            vec![out],
        ),
        class: RouteClass::Other,
    };
    let mut net = Network::new(t);
    net.add_rule(s, Rule::forward(p24, vec![sa, sc], RouteClass::Other));
    net.add_rule(a, to_70(upper, ab));
    net.add_rule(a, Rule::forward(p24, vec![ab], RouteClass::Other));
    net.add_rule(c, to_70(lower, cb));
    net.add_rule(c, Rule::forward(p24, vec![cb], RouteClass::Other));
    net.add_rule(b, Rule::forward(p24, vec![hosts], RouteClass::Other));
    net.finalize();

    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&net, &mut bdd);
    let full = bdd.full();
    let mut trace = CoverageTrace::new();
    for d in [s, a, b] {
        trace.add_packets(&mut bdd, Location::device(d), full);
    }
    let analyzer = Analyzer::new(&net, &ms, &trace, &mut bdd);
    let v4 = family_is(&mut bdd, Family::V4);
    let starts = [(Location::at(s, ingress), v4), (Location::device(a), v4)];
    for max_paths in BUDGETS {
        let opts = ExploreOpts {
            max_paths,
            ..ExploreOpts::default()
        };
        let fold = path_coverage(&mut bdd, &analyzer, &starts, &opts);
        let oracle = naive_path_coverage(&mut bdd, &analyzer, &starts, &opts);
        assert_same_paths(&fold, &oracle, &format!("budget {max_paths}"));
    }
    let whole = path_coverage(&mut bdd, &analyzer, &starts, &ExploreOpts::default());
    assert_eq!((whole.total_paths, whole.covered_paths), (6, 4));

    let headers = dst_in(&mut bdd, &p24);
    let flow = Flow {
        start: Location::at(s, ingress),
        headers,
    };
    let fold = flow_coverage(&mut bdd, &analyzer, flow, &ExploreOpts::default());
    let oracle = naive_flow_coverage(&mut bdd, &analyzer, flow);
    assert_same_flow(fold, oracle, "flow through the rewrites");
    assert!(fold.is_some_and(|f| f.coverage > 0.0 && f.coverage < 1.0));
}
