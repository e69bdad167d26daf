//! End-to-end behavioural tests: they trace packets across the fabric
//! and report coverage with one `markPacket` per hop, with the packet
//! set as it exists at that hop (§5.1).

use std::collections::HashMap;

use netbdd::{Bdd, Ref};
use netmodel::header::{self, Packet};
use netmodel::{DeviceId, Location};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataplane::{reach, traceroute, Forwarder, TraceOutcome};

use crate::context::{TestContext, TestReport};

/// ToRReachability (§8), end-to-end symbolic, from one source ToR: all
/// packets originating there with a destination address in another
/// ToR's hosted prefix must reach that ToR. One symbolic propagation
/// carries every remote prefix at once.
pub(crate) fn check_reachability_from(
    bdd: &mut Bdd,
    ctx: &mut TestContext<'_>,
    report: &mut TestReport,
    src_index: usize,
) {
    let fwd = Forwarder::new(ctx.net, ctx.ms);
    let topo = ctx.net.topology();
    let tors = &ctx.info.tor_subnets;
    let (src, _, _) = tors[src_index];
    // Destination space: every other ToR's prefix.
    let others: Vec<_> = tors
        .iter()
        .filter(|&&(d, _, _)| d != src)
        .map(|&(dst, prefix, _)| (dst, prefix, header::dst_in(bdd, &prefix)))
        .collect();
    let injected = bdd.or_all(others.iter().map(|&(_, _, set)| set));
    if injected.is_false() {
        return;
    }
    let res = reach(bdd, &fwd, Location::device(src), injected, 64);
    // Coverage: the per-hop packet sets, exactly as computed.
    ctx.tracker.mark_packet_set(bdd, &res.per_hop);
    // No ECMP leg may drop: under per-flow hashing a dropped leg
    // means some real flows die even if other legs still deliver.
    report.check(res.dropped.is_empty(), || {
        format!(
            "{}: {} rule(s) drop ToR-to-ToR traffic (first at {:?})",
            topo.device(src).name,
            res.dropped.len(),
            res.dropped[0].0
        )
    });
    // Assertions: each remote prefix fully delivered at its ToR
    // (union over the ToR's host-facing ports — regional ToRs split
    // their /24 across several ports).
    let mut delivered_at: HashMap<DeviceId, Vec<Ref>> = HashMap::new();
    for &(iface, packets) in &res.delivered {
        delivered_at
            .entry(topo.iface(iface).device)
            .or_default()
            .push(packets);
    }
    for &(dst, dst_prefix, expect) in &others {
        let got = bdd.or_all(delivered_at.get(&dst).into_iter().flatten().copied());
        report.check(bdd.equal(got, expect), || {
            format!(
                "{} → {}: prefix {} not fully delivered",
                topo.device(src).name,
                topo.device(dst).name,
                dst_prefix
            )
        });
    }
}

/// Derive the RNG seed of one ordered ToR pair from the suite seed —
/// [`yardstick::rng::seed_mix`] over (seed, src‖dst), so every pair's
/// sample stream is independent of execution order.
pub(crate) fn pair_seed(seed: u64, src_index: usize, dst_index: usize) -> u64 {
    yardstick::rng::seed_mix(seed, (src_index as u64) << 32 | dst_index as u64)
}

/// ToRPingmesh (§8), end-to-end concrete, for one ordered ToR pair:
/// sample one address from the destination's hosted prefix and
/// traceroute a packet to it (the Pingmesh idea). Coverage: one
/// `markPacket` per hop with the concrete packet (as transformed so far)
/// at that hop's location. `seed` is the pair's own RNG seed (see
/// [`pair_seed`]), so the sampled address is a function of the pair
/// alone, whichever other pairs run and in whatever order.
pub(crate) fn check_ping_pair(
    bdd: &mut Bdd,
    ctx: &mut TestContext<'_>,
    report: &mut TestReport,
    src_index: usize,
    dst_index: usize,
    seed: u64,
) {
    let (src, _, _) = ctx.info.tor_subnets[src_index];
    let (dst, dst_prefix, _dst_host) = ctx.info.tor_subnets[dst_index];
    let mut rng = StdRng::seed_from_u64(seed);
    let free_bits = 32 - dst_prefix.len() as u32;
    let host_part: u128 = rng.gen_range(0..(1u128 << free_bits));
    let pkt = Packet {
        proto: 1, // ICMP, as a ping would be
        ..Packet::v4_to(dst_prefix.nth_addr(host_part) as u32)
    };
    let res = traceroute(bdd, ctx.net, ctx.ms, Location::device(src), pkt, 64);
    for hop in &res.hops {
        ctx.tracker.mark_concrete(bdd, hop.location, &hop.packet);
    }
    report.check(
        matches!(res.outcome, TraceOutcome::Delivered { device, .. } if device == dst),
        || {
            format!(
                "{} → {} ({:?}): {:?}",
                ctx.net.topology().device(src).name,
                ctx.net.topology().device(dst).name,
                pkt.dst,
                res.outcome
            )
        },
    );
}

#[cfg(test)]
mod tests {
    use crate::testing::run_named;
    use crate::NetworkInfo;
    use netbdd::Bdd;
    use topogen::{fattree, FatTreeParams};
    use yardstick::Tracker;

    fn setup() -> (topogen::FatTree, NetworkInfo) {
        let ft = fattree(FatTreeParams::paper(4));
        let info = NetworkInfo {
            tor_subnets: ft.tors.clone(),
            ..NetworkInfo::default()
        };
        (ft, info)
    }

    #[test]
    fn reachability_passes_on_healthy_fattree() {
        let (ft, info) = setup();
        let mut tracker = Tracker::new();
        let report = run_named(
            &mut Bdd::new(),
            &ft.net,
            &info,
            "ToRReachability",
            &mut tracker,
        );
        assert!(
            report.passed(),
            "{:?}",
            &report.failures[..report.failures.len().min(3)]
        );
        assert_eq!(report.checks, 8 * 7 + 8); // pair checks + per-source drop checks
                                              // Per-hop marks land on every router (everything is on some path).
        assert_eq!(
            tracker.trace().packets.devices().len(),
            ft.net.topology().device_count()
        );
    }

    #[test]
    fn reachability_detects_null_routed_prefix() {
        let (mut ft, info) = setup();
        let (_, victim_prefix, _) = ft.tors[5];
        // Null-route the victim's prefix at one core: some flows die.
        topogen::faults::null_route(&mut ft.net, ft.cores[0], victim_prefix);
        let mut tracker = Tracker::new();
        let report = run_named(
            &mut Bdd::new(),
            &ft.net,
            &info,
            "ToRReachability",
            &mut tracker,
        );
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("drop ToR-to-ToR traffic")));
    }

    #[test]
    fn pingmesh_passes_and_marks_hops() {
        let (ft, info) = setup();
        let mut tracker = Tracker::new();
        let report = run_named(&mut Bdd::new(), &ft.net, &info, "ToRPingmesh", &mut tracker);
        assert!(
            report.passed(),
            "{:?}",
            &report.failures[..report.failures.len().min(3)]
        );
        assert_eq!(report.checks, 8 * 7);
        let (packet_calls, _) = tracker.call_counts();
        // Each of the 56 traces has 3 or 5 hops.
        assert!(packet_calls >= 56 * 3);
    }

    #[test]
    fn pingmesh_is_deterministic_per_seed() {
        let (ft, info) = setup();
        let mut bdd = Bdd::new();
        let (mut t1, mut t2) = (Tracker::new(), Tracker::new());
        let r1 = run_named(&mut bdd, &ft.net, &info, "ToRPingmesh", &mut t1);
        let r2 = run_named(&mut bdd, &ft.net, &info, "ToRPingmesh", &mut t2);
        assert_eq!(r1.checks, r2.checks);
        assert_eq!(t1.call_counts(), t2.call_counts());
    }

    #[test]
    fn pingmesh_samples_only_a_sliver_of_coverage() {
        // The defining difference between concrete and symbolic tests:
        // Pingmesh covers single packets, Reachability covers prefixes.
        let (ft, info) = setup();
        let mut bdd = Bdd::new();
        let mut ping = Tracker::new();
        run_named(&mut bdd, &ft.net, &info, "ToRPingmesh", &mut ping);
        let mut sym = Tracker::new();
        run_named(&mut bdd, &ft.net, &info, "ToRReachability", &mut sym);
        let (tor0, _, _) = ft.tors[0];
        let ping_at = ping.trace().packets.at_device(&mut bdd, tor0);
        let sym_at = sym.trace().packets.at_device(&mut bdd, tor0);
        assert!(bdd.subset(ping_at, sym_at));
        assert!(!bdd.equal(ping_at, sym_at));
        let ratio = bdd.probability(ping_at) / bdd.probability(sym_at);
        assert!(
            ratio < 1e-6,
            "concrete coverage must be a sliver, got {ratio}"
        );
    }
}
