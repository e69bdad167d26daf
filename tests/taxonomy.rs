//! E9: one runnable instance of every cell of the paper's test taxonomy
//! (Figure 2), all feeding the same coverage machinery — plus the
//! compositionality laws of §3.2 that make mixing them sound.

use netbdd::Bdd;
use netmodel::header::{self, Packet};
use netmodel::{Location, MatchSets, RuleId};
use topogen::{fattree, FatTreeParams};
use yardstick::{Analyzer, CoverageTrace, Tracker};

use dataplane::{reach, traceroute, Forwarder};

struct Fixture {
    ft: topogen::FatTree,
    bdd: Bdd,
    ms: MatchSets,
}

fn fixture() -> Fixture {
    let ft = fattree(FatTreeParams::paper(4));
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&ft.net, &mut bdd);
    Fixture { ft, bdd, ms }
}

/// State inspection: "router R1's forwarding table must have the default
/// route entry".
#[test]
fn state_inspection_test() {
    let Fixture { ft, mut bdd, ms } = fixture();
    let (tor, _, _) = ft.tors[0];
    let mut tracker = Tracker::new();
    let default = ft
        .net
        .device_rule_ids(tor)
        .find(|&id| {
            ft.net
                .rule(id)
                .matches
                .dst
                .map(|p| p.is_default())
                .unwrap_or(false)
        })
        .expect("default route must exist");
    tracker.mark_rule(default);
    // Inspecting the rule covers its entire (residual) match set.
    let trace = tracker.into_trace();
    let analyzer = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
    assert_eq!(analyzer.rule_coverage(&mut bdd, default), Some(1.0));
}

/// Local concrete: "router R1 must forward a given packet with dest. D
/// via neighbor N1".
#[test]
fn local_concrete_test() {
    let Fixture { ft, mut bdd, ms } = fixture();
    let fwd = Forwarder::new(&ft.net, &ms);
    let (tor, _, _) = ft.tors[0];
    let (_, remote, _) = ft.tors[7];
    let pkt = Packet::v4_to(remote.nth_addr(1) as u32);
    let set = pkt.to_bdd(&mut bdd);
    let step = fwd.step(&mut bdd, tor, None, set);
    assert_eq!(step.transitions.len(), 1);
    // The packet leaves via an aggregation neighbor.
    let out = &step.transitions[0].outcomes[0];
    match out {
        dataplane::Outcome::Hop { next, .. } => {
            assert!(ft.aggs.contains(&next.device));
        }
        o => panic!("expected a hop, got {o:?}"),
    }
    // Its coverage: exactly that one packet on that one rule.
    let mut tracker = Tracker::new();
    tracker.mark_packet(&mut bdd, Location::device(tor), set);
    let trace = tracker.into_trace();
    let analyzer = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
    let cov = analyzer
        .rule_coverage(&mut bdd, step.transitions[0].rule)
        .unwrap();
    assert!(
        cov > 0.0 && cov < 1e-6,
        "one packet is a sliver of a /24 rule"
    );
}

/// Local symbolic: "router R1 must forward all packets to prefix P1 via
/// neighbor N1" — and its coverage equals the full rule.
#[test]
fn local_symbolic_test() {
    let Fixture { ft, mut bdd, ms } = fixture();
    let fwd = Forwarder::new(&ft.net, &ms);
    let (tor, _, _) = ft.tors[0];
    let (_, remote, _) = ft.tors[7];
    let set = header::dst_in(&mut bdd, &remote);
    let step = fwd.step(&mut bdd, tor, None, set);
    assert_eq!(step.transitions.len(), 1);
    assert!(step.unmatched.is_false());
    let rule = step.transitions[0].rule;
    let mut tracker = Tracker::new();
    tracker.mark_packet(&mut bdd, Location::device(tor), set);
    let trace = tracker.into_trace();
    let analyzer = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
    assert_eq!(analyzer.rule_coverage(&mut bdd, rule), Some(1.0));
}

/// End-to-end concrete: "ping between two endpoints must succeed".
#[test]
fn end_to_end_concrete_test() {
    let Fixture { ft, mut bdd, ms } = fixture();
    let (src, _, _) = ft.tors[0];
    let (dst, remote, _) = ft.tors[7];
    let pkt = Packet {
        proto: 1,
        ..Packet::v4_to(remote.nth_addr(9) as u32)
    };
    let res = traceroute(&mut bdd, &ft.net, &ms, Location::device(src), pkt, 16);
    assert!(res.delivered());
    assert_eq!(*res.devices().last().unwrap(), dst);
    // Coverage: one rule per hop, one packet each.
    let mut tracker = Tracker::new();
    for hop in &res.hops {
        let set = hop.packet.to_bdd(&mut bdd);
        tracker.mark_packet(&mut bdd, hop.location, set);
    }
    let trace = tracker.into_trace();
    let analyzer = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
    for hop in &res.hops {
        assert!(analyzer.rule_coverage(&mut bdd, hop.rule).unwrap() > 0.0);
    }
}

/// End-to-end symbolic: "all packets in a defined set must succeed
/// between two endpoints".
#[test]
fn end_to_end_symbolic_test() {
    let Fixture { ft, mut bdd, ms } = fixture();
    let fwd = Forwarder::new(&ft.net, &ms);
    let (src, _, _) = ft.tors[0];
    let (_, remote, host) = ft.tors[7];
    let set = header::dst_in(&mut bdd, &remote);
    let res = reach(&mut bdd, &fwd, Location::device(src), set, 16);
    let delivered = res.delivered_at(&mut bdd, host);
    assert!(bdd.equal(delivered, set));
    // Per-hop marks cover every rule on every ECMP path fully.
    let mut tracker = Tracker::new();
    tracker.mark_packet_set(&mut bdd, &res.per_hop);
    let trace = tracker.into_trace();
    let analyzer = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
    let exercised = res.exercised(&mut bdd, &ft.net, &ms);
    assert!(!exercised.is_empty());
    for (rule, _) in &exercised {
        assert_eq!(analyzer.rule_coverage(&mut bdd, *rule), Some(1.0));
    }
}

/// §3.2 law (i): the coverage of a symbolic test equals the combined
/// coverage of concrete tests that collectively cover the same packets.
#[test]
fn compositionality_symbolic_equals_union_of_concrete() {
    let Fixture { ft, mut bdd, ms } = fixture();
    let (tor, _, _) = ft.tors[0];
    // A /30 has 4 addresses — enumerate them concretely.
    let (_, remote, _) = ft.tors[3];
    let base = remote.bits() as u32;

    let mut symbolic = CoverageTrace::new();
    let p30 = header::dst_in(&mut bdd, &netmodel::Prefix::v4(base, 30));
    symbolic.add_packets(&mut bdd, Location::device(tor), p30);

    let mut concrete = CoverageTrace::new();
    for a in 0..4u32 {
        let one = header::dst_in(&mut bdd, &netmodel::Prefix::v4(base + a, 32));
        concrete.add_packets(&mut bdd, Location::device(tor), one);
    }

    let a_sym = Analyzer::new(&ft.net, &ms, &symbolic, &mut bdd);
    let sym_cov: Vec<_> = ft
        .net
        .device_rule_ids(tor)
        .map(|id| a_sym.rule_coverage(&mut bdd, id))
        .collect();
    let a_conc = Analyzer::new(&ft.net, &ms, &concrete, &mut bdd);
    let conc_cov: Vec<_> = ft
        .net
        .device_rule_ids(tor)
        .map(|id| a_conc.rule_coverage(&mut bdd, id))
        .collect();
    assert_eq!(sym_cov, conc_cov);
}

/// §3.2 law (ii): the coverage of a state-inspection test equals a
/// symbolic test over all packets the state can affect.
#[test]
fn compositionality_inspection_equals_symbolic_over_match_set() {
    let Fixture { ft, mut bdd, ms } = fixture();
    let (tor, _, _) = ft.tors[0];
    let rule = RuleId {
        device: tor,
        index: 0,
    };

    let mut inspect = CoverageTrace::new();
    inspect.add_rule(rule);

    let mut symbolic = CoverageTrace::new();
    let m = ms.get(rule);
    symbolic.add_packets(&mut bdd, Location::device(tor), m);

    let a1 = Analyzer::new(&ft.net, &ms, &inspect, &mut bdd);
    let c1 = a1.rule_coverage(&mut bdd, rule);
    let a2 = Analyzer::new(&ft.net, &ms, &symbolic, &mut bdd);
    let c2 = a2.rule_coverage(&mut bdd, rule);
    assert_eq!(c1, c2);
    assert_eq!(c1, Some(1.0));
}

/// Mixing all four kinds in one trace never double-counts: coverage of
/// the union is the union of coverage.
#[test]
fn mixed_test_types_merge_without_double_counting() {
    let Fixture { ft, mut bdd, ms } = fixture();
    let (tor, _, _) = ft.tors[0];
    let (_, remote, _) = ft.tors[7];
    let rule = ft
        .net
        .device_rule_ids(tor)
        .find(|&id| ft.net.rule(id).matches.dst == Some(remote))
        .unwrap();

    // Mark the same /24 twice via different test styles plus markRule.
    let mut trace = CoverageTrace::new();
    let set = header::dst_in(&mut bdd, &remote);
    trace.add_packets(&mut bdd, Location::device(tor), set);
    let one = Packet::v4_to(remote.nth_addr(3) as u32).to_bdd(&mut bdd);
    trace.add_packets(&mut bdd, Location::device(tor), one);
    trace.add_rule(rule);
    trace.add_rule(rule);

    let analyzer = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
    // Coverage is exactly 1.0 — overlap collapsed, nothing exceeds the
    // match set.
    assert_eq!(analyzer.rule_coverage(&mut bdd, rule), Some(1.0));
}
