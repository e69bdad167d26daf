//! Differential tests against the `oracle` crate: random toy networks,
//! coverage traces, and inspected-rule sets are embedded into the real
//! model, and the coverage pipeline must agree with the oracle —
//!
//! * Algorithm 1's covered sets agree packet by packet;
//! * every analyzer metric (rule, device, out-interface, in-interface)
//!   and every aggregator equals the oracle's counting ratio, because the
//!   dst-only embedding preserves measure up to one global constant;
//! * `Tracker::mark_concrete`, which skips marks the trace already holds
//!   and reuses a packet's set across hops, records what
//!   `mark_packet(pkt.to_bdd())` records.

use netbdd::Bdd;
use netmodel::header;
use netmodel::topology::DeviceId;
use netmodel::{Location, MatchSets, RuleId};
use oracle::embed::{dst_prefix_set, embed_dst_prefix, embed_net, embed_packet};
use oracle::{
    net_match_sets, MetricsOracle, ToyAggregator, ToyIfaceKind, ToyNet, ToyPrefix, ToyRule,
    ToySpace, ToyTrace,
};
use proptest::prelude::*;
use yardstick::{Aggregator, Analyzer, CoverageTrace, CoveredSets, Tracker};

fn space() -> ToySpace {
    ToySpace::new(4, 2, 1)
}

/// One device's spec: parent selector plus dst-only rules
/// `(dst_len, raw_dst, iface_selector, drop)`.
type DeviceSpec = (u32, Vec<(u32, u32, u32, bool)>);

/// One trace mark: `(device_selector, tag_ingress, iface_selector,
/// dst_len, raw_dst)` — a destination-prefix packet set recorded at a
/// device, optionally tagged with one of its interfaces.
type MarkSpec = (u32, bool, u32, u32, u32);

fn arb_device() -> impl Strategy<Value = DeviceSpec> {
    (
        any::<u32>(),
        prop::collection::vec((0u32..=4, any::<u32>(), any::<u32>(), any::<bool>()), 1..4),
    )
}

fn prefix(raw: u32, len: u32) -> ToyPrefix {
    ToyPrefix::new(if len == 0 { 0 } else { raw & ((1 << len) - 1) }, len)
}

/// Tree-shaped toy network with a host interface per device and dst-only
/// single-leg rules; returns the net and each device's interface list.
fn build_net(specs: &[DeviceSpec]) -> (ToyNet, Vec<Vec<u32>>) {
    let mut net = ToyNet::new();
    let mut dev_ifaces: Vec<Vec<u32>> = Vec::new();
    for (d, (parent_raw, _)) in specs.iter().enumerate() {
        let dev = net.add_device();
        let host = net.add_iface(dev, ToyIfaceKind::Host);
        dev_ifaces.push(vec![host]);
        if d > 0 {
            let parent = (*parent_raw as usize) % d;
            let (pi, ci) = net.add_link(parent, dev);
            dev_ifaces[parent].push(pi);
            dev_ifaces[d].push(ci);
        }
    }
    for (d, (_, rules)) in specs.iter().enumerate() {
        for &(dst_len, raw_dst, iface_sel, drop) in rules {
            let action = if drop {
                oracle::ToyAction::Drop
            } else {
                let pick = dev_ifaces[d][(iface_sel as usize) % dev_ifaces[d].len()];
                oracle::ToyAction::Forward(vec![pick])
            };
            net.add_rule(
                d,
                ToyRule {
                    dst: Some(prefix(raw_dst, dst_len)),
                    src: None,
                    proto: None,
                    action,
                },
            );
        }
    }
    net.finalize();
    (net, dev_ifaces)
}

/// Materialise the same trace on both sides: dst-prefix marks (optionally
/// ingress-tagged) and inspected rules.
fn build_traces(
    s: &ToySpace,
    bdd: &mut Bdd,
    net: &ToyNet,
    dev_ifaces: &[Vec<u32>],
    marks: &[MarkSpec],
    inspected: &[(u32, u32)],
) -> (ToyTrace, CoverageTrace) {
    let mut toy = ToyTrace::new();
    let mut real = CoverageTrace::new();
    for &(dev_sel, tag, iface_sel, dst_len, raw_dst) in marks {
        let d = (dev_sel as usize) % net.device_count();
        let p = prefix(raw_dst, dst_len);
        let toy_set = dst_prefix_set(s, p);
        let real_set = header::dst_in(bdd, &embed_dst_prefix(s, p));
        let (iface, loc) = if tag {
            let ifc = dev_ifaces[d][(iface_sel as usize) % dev_ifaces[d].len()];
            (
                Some(ifc),
                Location::at(DeviceId(d as u32), netmodel::IfaceId(ifc)),
            )
        } else {
            (None, Location::device(DeviceId(d as u32)))
        };
        toy.add_packets(d, iface, toy_set);
        real.add_packets(bdd, loc, real_set);
    }
    for &(dev_sel, rule_sel) in inspected {
        let d = (dev_sel as usize) % net.device_count();
        let i = (rule_sel as usize) % net.table(d).len();
        toy.add_rule(d, i);
        real.add_rule(RuleId {
            device: DeviceId(d as u32),
            index: i as u32,
        });
    }
    (toy, real)
}

/// Compare two optional coverage values up to float noise.
fn close(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => (x - y).abs() < 1e-9,
        _ => false,
    }
}

/// One step of a marking sequence: a toy packet reported at a run of
/// locations (a traceroute's hops), or — `dst_len` present — a symbolic
/// destination-prefix mark at the first of them. Locations are
/// `(device, tagged, iface)` selectors over a 3×3 grid.
type MarkStep = (u32, Option<u32>, Vec<(u32, bool, u32)>);

fn arb_mark_step() -> impl Strategy<Value = MarkStep> {
    (
        any::<u32>(),
        (any::<bool>(), 0u32..=4).prop_map(|(symbolic, len)| symbolic.then_some(len)),
        prop::collection::vec((0u32..3, any::<bool>(), 0u32..3), 1..5),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interleaved symbolic and concrete marks, with packets drawn from
    /// the 128-packet toy space so that many concrete marks land inside
    /// what the location already holds: marking concretely leaves the
    /// same per-location `Ref`s and the same call counts as marking each
    /// packet's singleton set, and a disabled tracker touches no BDD.
    #[test]
    fn mark_concrete_records_what_mark_packet_of_the_singleton_records(
        steps in prop::collection::vec(arb_mark_step(), 1..24)
    ) {
        let s = space();
        let toy_packets: Vec<_> = s.packets().collect();
        let mut bdd = Bdd::new();
        let mut concrete = Tracker::new();
        let mut by_set = Tracker::new();
        // The disabled tracker gets a manager of its own, where nothing
        // else could have built the nodes it must not build.
        let mut off = Tracker::disabled();
        let mut off_bdd = Bdd::new();
        let untouched = off_bdd.node_count();
        for (raw, symbolic, locs) in &steps {
            let locs: Vec<Location> = locs
                .iter()
                .map(|&(d, tagged, i)| match tagged {
                    true => Location::at(DeviceId(d), netmodel::IfaceId(i)),
                    false => Location::device(DeviceId(d)),
                })
                .collect();
            if let Some(len) = *symbolic {
                let set = header::dst_in(&mut bdd, &embed_dst_prefix(&s, prefix(*raw, len)));
                concrete.mark_packet(&mut bdd, locs[0], set);
                by_set.mark_packet(&mut bdd, locs[0], set);
                continue;
            }
            let pkt = embed_packet(&s, toy_packets[*raw as usize % toy_packets.len()]);
            for &loc in &locs {
                concrete.mark_concrete(&mut bdd, loc, &pkt);
                let set = pkt.to_bdd(&mut bdd);
                by_set.mark_packet(&mut bdd, loc, set);
                off.mark_concrete(&mut off_bdd, loc, &pkt);
            }
        }
        prop_assert_eq!(concrete.call_counts(), by_set.call_counts());
        let got: Vec<_> = concrete.trace().packets.iter().collect();
        let want: Vec<_> = by_set.trace().packets.iter().collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(off_bdd.node_count(), untouched);
        prop_assert_eq!(off.call_counts(), (0, 0));
        prop_assert!(off.into_trace().is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Algorithm 1 agrees with the oracle packet by packet: a toy packet
    /// is in a rule's symbolic covered set exactly when the oracle's
    /// transcription of the algorithm puts it there.
    #[test]
    fn covered_sets_agree_pointwise(
        specs in prop::collection::vec(arb_device(), 1..4),
        marks in prop::collection::vec((any::<u32>(), any::<bool>(), any::<u32>(), 0u32..=4, any::<u32>()), 0..4),
        inspected in prop::collection::vec((any::<u32>(), any::<u32>()), 0..3),
    ) {
        let s = space();
        let (mut net, dev_ifaces) = build_net(&specs);
        let real = embed_net(&s, &net);
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&real, &mut bdd);
        let (toy_trace, real_trace) =
            build_traces(&s, &mut bdd, &net, &dev_ifaces, &marks, &inspected);
        let covered = CoveredSets::compute(&real, &ms, &real_trace, &mut bdd);
        let oracles = net_match_sets(&s, &mut net);
        let toy_covered = oracle::CoveredOracle::compute(&s, &oracles, &toy_trace);
        for d in 0..net.device_count() {
            for i in 0..net.table(d).len() {
                let id = RuleId { device: DeviceId(d as u32), index: i as u32 };
                let t = covered.get(id);
                for p in s.packets() {
                    prop_assert_eq!(
                        embed_packet(&s, p).matches(&bdd, t),
                        toy_covered.get(d, i).contains(p),
                        "device {} rule {} packet {:#x}", d, i, p
                    );
                }
                prop_assert_eq!(covered.is_exercised(id), toy_covered.is_exercised(d, i));
            }
        }
    }

    /// Every analyzer metric and aggregate equals the oracle's counting
    /// ratio on dst-only networks and traces.
    #[test]
    fn analyzer_metrics_agree_with_counting(
        specs in prop::collection::vec(arb_device(), 1..4),
        marks in prop::collection::vec((any::<u32>(), any::<bool>(), any::<u32>(), 0u32..=4, any::<u32>()), 0..4),
        inspected in prop::collection::vec((any::<u32>(), any::<u32>()), 0..3),
    ) {
        let s = space();
        let (mut net, dev_ifaces) = build_net(&specs);
        let real = embed_net(&s, &net);
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&real, &mut bdd);
        let (toy_trace, real_trace) =
            build_traces(&s, &mut bdd, &net, &dev_ifaces, &marks, &inspected);
        let analyzer = Analyzer::new(&real, &ms, &real_trace, &mut bdd);
        let oracles = net_match_sets(&s, &mut net);
        let metrics = MetricsOracle::new(&s, &net, &oracles, &toy_trace);

        for d in 0..net.device_count() {
            for i in 0..net.table(d).len() {
                let id = RuleId { device: DeviceId(d as u32), index: i as u32 };
                prop_assert!(
                    close(analyzer.rule_coverage(&mut bdd, id), metrics.rule_coverage(d, i)),
                    "rule coverage diverges at device {} rule {}", d, i
                );
            }
            prop_assert!(
                close(
                    analyzer.device_coverage(&mut bdd, DeviceId(d as u32)),
                    metrics.device_coverage(d)
                ),
                "device coverage diverges at device {}", d
            );
        }
        for ifc in 0..net.iface_count() as u32 {
            let id = netmodel::IfaceId(ifc);
            prop_assert!(
                close(analyzer.out_iface_coverage(&mut bdd, id), metrics.out_iface_coverage(ifc)),
                "out-iface coverage diverges at iface {}", ifc
            );
            prop_assert!(
                close(analyzer.in_iface_coverage(&mut bdd, id), metrics.in_iface_coverage(ifc)),
                "in-iface coverage diverges at iface {}", ifc
            );
        }
        let pairs = [
            (Aggregator::Mean, ToyAggregator::Mean),
            (Aggregator::Weighted, ToyAggregator::Weighted),
            (Aggregator::Fractional, ToyAggregator::Fractional),
        ];
        for (agg, toy_agg) in pairs {
            prop_assert!(close(
                analyzer.aggregate_rules(&mut bdd, agg, |_, _| true),
                metrics.aggregate_rules(toy_agg, |_, _| true)
            ), "rule aggregate diverges under {:?}", agg);
            prop_assert!(close(
                analyzer.aggregate_devices(&mut bdd, agg, |_, _| true),
                metrics.aggregate_devices(toy_agg, |_| true)
            ), "device aggregate diverges under {:?}", agg);
            prop_assert!(close(
                analyzer.aggregate_out_ifaces(&mut bdd, agg, |_, _| true),
                metrics.aggregate_out_ifaces(toy_agg, |_| true)
            ), "out-iface aggregate diverges under {:?}", agg);
            prop_assert!(close(
                analyzer.aggregate_in_ifaces(&mut bdd, agg, |_, _| true),
                metrics.aggregate_in_ifaces(toy_agg, |_| true)
            ), "in-iface aggregate diverges under {:?}", agg);
        }
    }
}
