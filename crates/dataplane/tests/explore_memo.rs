//! `explore` steps each `(device, ingress scope, packet set)` once and
//! replays the step for every later path prefix that arrives in the same
//! state. These tests hold it to the walk without the memo
//! ([`naive::naive_walk`]): both run in one manager, so equal sets are
//! equal `Ref`s, and the two path streams must agree event by event —
//! start, rule sequence, terminal and final set — as must the totals.

mod naive;

use dataplane::forward::Forwarder;
use dataplane::paths::{edge_starts, explore, ExploreOpts, PathStats};
use netbdd::{Bdd, Ref};
use netmodel::topology::{IfaceKind, Role, Topology};
use netmodel::{
    Action, HeaderField, Location, MatchFields, MatchSets, Network, Prefix, Rewrite, RouteClass,
    Rule, Table, TableMode,
};
use routing::TopologyDelta;
use topogen::{fattree, fattree_with_engine, FatTreeParams};

use naive::{naive_walk, Event};

/// Run both walks over `starts` and require identical streams and
/// totals; returns the memoised walk's totals.
fn assert_same_walk(
    bdd: &mut Bdd,
    fwd: &Forwarder<'_>,
    starts: &[(Location, Ref)],
    opts: &ExploreOpts,
) -> PathStats {
    let naive = naive_walk(bdd, fwd, starts, opts);
    let mut memoised: Vec<Event> = Vec::new();
    let stats = explore(bdd, fwd, starts, opts, |_, ev| {
        memoised.push((ev.start, ev.rules.to_vec(), ev.terminal, ev.final_set));
    });
    assert_eq!(stats, naive.stats);
    assert_eq!(memoised.len(), naive.events.len());
    for (i, (got, want)) in memoised.iter().zip(&naive.events).enumerate() {
        assert_eq!(got, want, "path {i}");
    }
    stats
}

fn compile(net: &Network) -> (Bdd, MatchSets) {
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(net, &mut bdd);
    (bdd, ms)
}

#[test]
fn fattree_k4_universe_matches_the_naive_walk() {
    let ft = fattree(FatTreeParams::paper(4));
    let (mut bdd, ms) = compile(&ft.net);
    let fwd = Forwarder::new(&ft.net, &ms);
    let starts = edge_starts(&mut bdd, &fwd);
    let stats = assert_same_walk(&mut bdd, &fwd, &starts, &ExploreOpts::default());
    assert_eq!(stats.paths, 284);
    let opts = ExploreOpts {
        emit_empty_paths: true,
        ..ExploreOpts::default()
    };
    let with_empty = assert_same_walk(&mut bdd, &fwd, &starts, &opts);
    assert!(with_empty.unmatched > stats.unmatched);
}

/// One ToR uplink down: the ToR's table loses an ECMP leg and the
/// aggregation switch at the other end reroutes, so arrivals that used
/// to coincide no longer do.
#[test]
fn fattree_k4_with_a_tor_uplink_down_matches_the_naive_walk() {
    let (ft, mut engine) = fattree_with_engine(FatTreeParams::paper(4));
    let tor = ft.tors[0].0;
    let mut net = ft.net;
    let agg = ft
        .links
        .iter()
        .map(|&(a, b)| {
            (
                net.topology().iface(a).device,
                net.topology().iface(b).device,
            )
        })
        .find_map(|(a, b)| (a == tor).then_some(b).or((b == tor).then_some(a)))
        .expect("the ToR has an uplink");
    let diff = engine
        .apply(&mut net, &TopologyDelta::LinkDown { a: tor, b: agg })
        .unwrap();
    assert!(!diff.is_empty());
    let (mut bdd, ms) = compile(&net);
    let fwd = Forwarder::new(&net, &ms);
    let starts = edge_starts(&mut bdd, &fwd);
    let stats = assert_same_walk(&mut bdd, &fwd, &starts, &ExploreOpts::default());
    assert!(stats.paths > 0);
    assert_ne!(stats.paths, 284, "the degraded universe differs");
}

/// `s` fans out to `a` and `c`; `a` rewrites the upper half of the /24
/// into the /26 that `b` null-routes, and `b`'s table is scoped by
/// ingress (what arrives from `c` is dropped). Both `a` and `c` pass
/// the lower /25 on unchanged, so the same packets reach `b` on both
/// interfaces and the memo must key on the scope, and a
/// rewritten set must be replayed in its rewritten form.
#[test]
fn rewrites_and_ingress_scoped_tables_match_the_naive_walk() {
    let mut t = Topology::new();
    let s = t.add_device("s", Role::Tor);
    let a = t.add_device("a", Role::Spine);
    let b = t.add_device("b", Role::Tor);
    let c = t.add_device("c", Role::Spine);
    let _ingress = t.add_iface(s, "in", IfaceKind::Host);
    let hosts = t.add_iface(b, "hosts", IfaceKind::Host);
    let (sa, _) = t.add_link(s, a);
    let (sc, _) = t.add_link(s, c);
    let (ab, ba) = t.add_link(a, b);
    let (cb, bc) = t.add_link(c, b);
    let p24: Prefix = "10.0.0.0/24".parse().unwrap();
    let p25: Prefix = "10.0.0.0/25".parse().unwrap();
    let upper: Prefix = "10.0.0.128/25".parse().unwrap();
    let p26: Prefix = "10.0.0.64/26".parse().unwrap();
    let scoped = |iface, dst, action| Rule {
        matches: MatchFields {
            dst: Some(dst),
            in_iface: Some(iface),
            ..MatchFields::default()
        },
        action,
        class: RouteClass::Other,
    };
    let mut acl = Table::new(TableMode::Priority);
    acl.push(scoped(ba, p26, Action::Drop));
    acl.push(scoped(ba, p25, Action::Forward(vec![hosts])));
    acl.push(scoped(bc, p24, Action::Drop));
    acl.push(scoped(ba, p24, Action::Forward(vec![hosts])));
    acl.finalize();
    let rewrite = Rewrite {
        set: vec![(HeaderField::Dst4, u128::from(0x0A00_0046u32))], // 10.0.0.70
    };
    let mut net = Network::new(t);
    net.add_rule(s, Rule::forward(p24, vec![sa, sc], RouteClass::Other));
    net.add_rule(
        a,
        Rule {
            matches: MatchFields::dst_prefix(upper),
            action: Action::Rewrite(rewrite, vec![ab]),
            class: RouteClass::Other,
        },
    );
    net.add_rule(a, Rule::forward(p24, vec![ab], RouteClass::Other));
    net.add_rule(c, Rule::forward(p25, vec![cb], RouteClass::Other));
    net.set_table(b, acl);
    net.finalize();

    let (mut bdd, ms) = compile(&net);
    let fwd = Forwarder::new(&net, &ms);
    let mut starts = edge_starts(&mut bdd, &fwd);
    let v4 = netmodel::header::family_is(&mut bdd, netmodel::Family::V4);
    // Unknown ingress at `b` skips every scoped rule.
    starts.extend([s, a, b, c].map(|d| (Location::device(d), v4)));
    let opts = ExploreOpts {
        emit_empty_paths: true,
        ..ExploreOpts::default()
    };
    let stats = assert_same_walk(&mut bdd, &fwd, &starts, &opts);
    assert!(stats.delivered > 0 && stats.dropped > 0 && stats.unmatched > 0);
}

/// `a` sends everything both out its WAN port and to `b`, and `b`
/// sends it straight back: every visit of `a` arrives in the same state
/// until the hop bound cuts the loop.
#[test]
fn a_forwarding_loop_truncates_like_the_naive_walk() {
    let mut t = Topology::new();
    let a = t.add_device("a", Role::Spine);
    let b = t.add_device("b", Role::Spine);
    let ingress = t.add_iface(a, "in", IfaceKind::Host);
    let wan = t.add_iface(a, "wan", IfaceKind::External);
    let (ab, ba) = t.add_link(a, b);
    let mut net = Network::new(t);
    let default = Prefix::v4_default();
    net.add_rule(
        a,
        Rule::forward(default, vec![wan, ab], RouteClass::StaticDefault),
    );
    net.add_rule(
        b,
        Rule::forward(default, vec![ba], RouteClass::StaticDefault),
    );
    net.finalize();
    let (mut bdd, ms) = compile(&net);
    let fwd = Forwarder::new(&net, &ms);
    let v4 = netmodel::header::family_is(&mut bdd, netmodel::Family::V4);
    let opts = ExploreOpts {
        max_hops: 9,
        ..ExploreOpts::default()
    };
    let stats = assert_same_walk(&mut bdd, &fwd, &[(Location::at(a, ingress), v4)], &opts);
    assert_eq!(stats.truncated, 1);
    assert_eq!(stats.exited, 5);
    assert_eq!(stats.max_len, 9);
}

/// A budget that runs out in the middle of a start stops both walks at
/// the same path. Their streams are identical: the universe's first
/// `cut` paths, then the same few terminals the open steps still emit
/// (a cut walk takes no further hop but finishes the step it is in).
#[test]
fn a_budget_cut_mid_start_emits_the_same_prefix() {
    let ft = fattree(FatTreeParams::paper(4));
    let (mut bdd, ms) = compile(&ft.net);
    let fwd = Forwarder::new(&ft.net, &ms);
    let starts = edge_starts(&mut bdd, &fwd);
    let whole = naive_walk(&mut bdd, &fwd, &starts, &ExploreOpts::default()).events;
    let first = whole.iter().filter(|e| e.0 == whole[0].0).count();
    let second = whole[first].0;
    assert!(whole[first..].iter().take_while(|e| e.0 == second).count() > 3);
    for cut in [1, first - 1, first + 3, 200] {
        let opts = ExploreOpts {
            max_paths: cut as u64,
            ..ExploreOpts::default()
        };
        let mut memoised: Vec<Event> = Vec::new();
        let stats = explore(&mut bdd, &fwd, &starts, &opts, |_, ev| {
            memoised.push((ev.start, ev.rules.to_vec(), ev.terminal, ev.final_set));
        });
        assert!(
            memoised.len() >= cut && memoised.len() < whole.len(),
            "cut {cut}"
        );
        assert_eq!(stats.paths, memoised.len() as u64);
        assert_eq!(memoised[..cut], whole[..cut], "cut {cut}");
        assert_same_walk(&mut bdd, &fwd, &starts, &opts);
    }
}
