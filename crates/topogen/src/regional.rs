//! The Azure-style regional network of the case study (§7.1).
//!
//! A region interconnects several datacenters. Each datacenter is a
//! hierarchical Clos: ToRs at the bottom connected to hosts, aggregation
//! routers grouping ToRs into pods, spines on top of the pods. Spines
//! connect to a layer of regional hub routers which interconnect the
//! datacenters; hubs connect to wide-area (WAN) backbone routers that
//! provide Internet connectivity.
//!
//! Route classes present (the raw material of the §7.2 gap analysis):
//!
//! * **internal routes** — ToR host subnets and per-device loopbacks,
//!   advertised everywhere;
//! * **connected routes** — statically configured /31 (IPv4) and /126
//!   (IPv6) prefixes on every point-to-point link, not redistributed;
//! * **wide-area routes** — advertised by WAN routers to the hub and
//!   spine layers only, never leaked into pods;
//! * **static defaults** — on every router, towards all northbound
//!   neighbors, as the fail-safe.

use netmodel::rule::RouteClass;
use netmodel::topology::{DeviceId, IfaceId, IfaceKind, Role, Topology};
use netmodel::{Network, Prefix};
use routing::{Origination, RibBuilder, Scope, StaticRoute, StaticTarget};

use crate::addressing;

/// Shape of a regional network.
#[derive(Clone, Copy, Debug)]
pub struct RegionalParams {
    /// Number of datacenters in the region.
    pub datacenters: u32,
    /// ToR/aggregation pods per datacenter.
    pub pods_per_dc: u32,
    /// ToR routers per pod.
    pub tors_per_pod: u32,
    /// Aggregation routers per pod.
    pub aggs_per_pod: u32,
    /// Spine routers per datacenter.
    pub spines_per_dc: u32,
    /// Regional hub routers interconnecting the datacenters.
    pub hubs: u32,
    /// WAN routers above the hubs.
    pub wan_routers: u32,
    /// Number of simulated wide-area prefixes advertised by the WAN.
    pub wan_prefixes: u32,
    /// Host-facing ports per ToR (a power of two). The ToR's /24 is
    /// split into equal slices, one per port; the /24 itself is
    /// aggregated into BGP. Several ports per ToR reproduce the case
    /// study's finding that host-facing interfaces go untested.
    pub host_ports_per_tor: u32,
    /// Configure /31 + /126 connected routes (and self routes) per link.
    pub connected: bool,
    /// Redistribute per-device loopback /32s into BGP.
    pub loopbacks: bool,
}

impl Default for RegionalParams {
    /// A small but fully featured region: 2 DCs × 2 pods × (4 ToR + 2
    /// agg) + 2 spines, 2 hubs, 2 WAN routers, 8 WAN prefixes.
    fn default() -> RegionalParams {
        RegionalParams {
            datacenters: 2,
            pods_per_dc: 2,
            tors_per_pod: 4,
            aggs_per_pod: 2,
            spines_per_dc: 2,
            hubs: 2,
            wan_routers: 2,
            wan_prefixes: 40,
            connected: true,
            loopbacks: true,
            host_ports_per_tor: 4,
        }
    }
}

/// A generated regional network with handles for tests and experiments.
pub struct Regional {
    /// The compiled network.
    pub net: Network,
    /// The parameters the region was generated from.
    pub params: RegionalParams,
    /// ToRs with hosted /24 prefix and *first* host-facing interface.
    pub tors: Vec<(DeviceId, Prefix, IfaceId)>,
    /// All host-facing ports of each ToR (parallel to `tors`).
    pub tor_host_ports: Vec<Vec<IfaceId>>,
    /// Flat list of (ToR, host port, the /24-slice it serves).
    pub host_port_slices: Vec<(DeviceId, IfaceId, Prefix)>,
    /// Aggregation routers, pod by pod.
    pub aggs: Vec<DeviceId>,
    /// Spine routers, datacenter by datacenter.
    pub spines: Vec<DeviceId>,
    /// Regional hub routers.
    pub hubs: Vec<DeviceId>,
    /// WAN routers.
    pub wans: Vec<DeviceId>,
    /// The simulated wide-area prefixes the WAN advertises.
    pub wan_prefixes: Vec<Prefix>,
    /// Per-device loopback interface (parallel to device ids), when
    /// loopbacks or connected routes are enabled.
    pub loopback_ifaces: Vec<IfaceId>,
    /// All fabric links, in creation order (the order addressing uses).
    pub links: Vec<(IfaceId, IfaceId)>,
}

/// Generate a regional network per §7.1.
pub fn regional(params: RegionalParams) -> Regional {
    let _span = netobs::span!("topogen_regional");
    let (rb, finish) = describe(params);
    finish(rb.build())
}

/// The control-plane description of a regional network, plus the step
/// that wraps its compiled forwarding state into a [`Regional`].
fn describe(params: RegionalParams) -> (RibBuilder, impl FnOnce(Network) -> Regional) {
    assert!(params.datacenters >= 1 && params.pods_per_dc >= 1);
    assert!(params.tors_per_pod >= 1 && params.aggs_per_pod >= 1);
    assert!(params.spines_per_dc >= 1 && params.hubs >= 1 && params.wan_routers >= 1);
    assert!(
        params.host_ports_per_tor.is_power_of_two() && params.host_ports_per_tor <= 64,
        "host ports per ToR must be a power of two ≤ 64"
    );

    let mut topo = Topology::new();
    let mut tors: Vec<DeviceId> = Vec::new();
    let mut aggs: Vec<DeviceId> = Vec::new();
    let mut spines: Vec<DeviceId> = Vec::new();

    // Devices, grouped by datacenter.
    for dc in 0..params.datacenters {
        for pod in 0..params.pods_per_dc {
            for t in 0..params.tors_per_pod {
                tors.push(topo.add_device_in_group(
                    format!("dc{dc}-pod{pod}-tor{t}"),
                    Role::Tor,
                    Some(dc),
                ));
            }
            for a in 0..params.aggs_per_pod {
                aggs.push(topo.add_device_in_group(
                    format!("dc{dc}-pod{pod}-agg{a}"),
                    Role::Aggregation,
                    Some(dc),
                ));
            }
        }
        for s in 0..params.spines_per_dc {
            spines.push(topo.add_device_in_group(
                format!("dc{dc}-spine{s}"),
                Role::Spine,
                Some(dc),
            ));
        }
    }
    let hubs: Vec<DeviceId> = (0..params.hubs)
        .map(|h| topo.add_device(format!("hub{h}"), Role::RegionalHub))
        .collect();
    let wans: Vec<DeviceId> = (0..params.wan_routers)
        .map(|w| topo.add_device(format!("wan{w}"), Role::Wan))
        .collect();

    // Host edges (several ports per ToR) and WAN edges.
    let tor_host_ports: Vec<Vec<IfaceId>> = tors
        .iter()
        .map(|&d| {
            (0..params.host_ports_per_tor)
                .map(|p| topo.add_iface(d, format!("hosts{p}"), IfaceKind::Host))
                .collect()
        })
        .collect();
    let wan_uplinks: Vec<IfaceId> = wans
        .iter()
        .map(|&d| topo.add_iface(d, "internet", IfaceKind::External))
        .collect();

    // Links.
    let mut links: Vec<(IfaceId, IfaceId)> = Vec::new();
    let tors_per_dc = params.pods_per_dc * params.tors_per_pod;
    let aggs_per_dc = params.pods_per_dc * params.aggs_per_pod;
    for dc in 0..params.datacenters {
        for pod in 0..params.pods_per_dc {
            for t in 0..params.tors_per_pod {
                let tor = tors[(dc * tors_per_dc + pod * params.tors_per_pod + t) as usize];
                for a in 0..params.aggs_per_pod {
                    let agg = aggs[(dc * aggs_per_dc + pod * params.aggs_per_pod + a) as usize];
                    links.push(topo.add_link(tor, agg));
                }
            }
        }
        // Every agg connects to every spine of its DC.
        for pod in 0..params.pods_per_dc {
            for a in 0..params.aggs_per_pod {
                let agg = aggs[(dc * aggs_per_dc + pod * params.aggs_per_pod + a) as usize];
                for s in 0..params.spines_per_dc {
                    let spine = spines[(dc * params.spines_per_dc + s) as usize];
                    links.push(topo.add_link(agg, spine));
                }
            }
        }
        // Every spine connects to every hub.
        for s in 0..params.spines_per_dc {
            let spine = spines[(dc * params.spines_per_dc + s) as usize];
            for &hub in &hubs {
                links.push(topo.add_link(spine, hub));
            }
        }
    }
    // Every hub connects to every WAN router.
    for &hub in &hubs {
        for &wan in &wans {
            links.push(topo.add_link(hub, wan));
        }
    }

    // Loopbacks.
    let need_lo = params.connected || params.loopbacks;
    let loopback_ifaces: Vec<IfaceId> = if need_lo {
        (0..topo.device_count())
            .map(|d| topo.add_iface(DeviceId(d as u32), "lo", IfaceKind::Loopback))
            .collect()
    } else {
        Vec::new()
    };

    // Control plane: tiers and ASNs.
    let mut rb = RibBuilder::new(topo);
    for (i, &d) in tors.iter().enumerate() {
        rb.set_tier(d, 0);
        rb.set_asn(d, 65000 + i as u32);
    }
    for &d in &aggs {
        rb.set_tier(d, 1);
        rb.set_asn(d, 64800);
    }
    for &d in &spines {
        rb.set_tier(d, 2);
        rb.set_asn(d, 64700);
    }
    for &d in &hubs {
        rb.set_tier(d, 3);
        rb.set_asn(d, 64600);
    }
    for &d in &wans {
        rb.set_tier(d, 4);
        rb.set_asn(d, 8075);
    }

    // Internal routes: host subnets. Each ToR advertises its aggregate
    // /24 into BGP; locally the /24 is tiled by per-port slices (the
    // aggregate needs no local rule — LPM delivers via the slices).
    let slice_extra = params.host_ports_per_tor.trailing_zeros() as u8;
    let mut tor_info = Vec::new();
    let mut host_port_slices = Vec::new();
    for (i, &d) in tors.iter().enumerate() {
        let prefix = addressing::host_subnet(i as u32);
        rb.originate(Origination::new(
            d,
            prefix,
            RouteClass::HostSubnet,
            None,
            Scope::All,
        ));
        let slice_len = prefix.len() + slice_extra;
        let free = 32 - slice_len as u32;
        for (p, &port) in tor_host_ports[i].iter().enumerate() {
            let slice_bits = (prefix.bits() as u32) | ((p as u32) << free);
            let slice = Prefix::v4(slice_bits, slice_len);
            rb.add_static(StaticRoute {
                device: d,
                prefix: slice,
                target: StaticTarget::Ifaces(vec![port]),
                class: RouteClass::HostSubnet,
            });
            host_port_slices.push((d, port, slice));
        }
        tor_info.push((d, prefix, tor_host_ports[i][0]));
    }

    // Internal routes: loopbacks, redistributed into BGP.
    if params.loopbacks {
        for (d, &lo) in loopback_ifaces.iter().enumerate() {
            rb.originate(Origination::new(
                DeviceId(d as u32),
                addressing::loopback(d as u32),
                RouteClass::Loopback,
                Some(lo),
                Scope::All,
            ));
        }
    }

    // Connected routes per link, both families.
    if params.connected {
        for (i, &(ai, bi)) in links.iter().enumerate() {
            let a_dev = rb.topology().iface(ai).device.0 as usize;
            let b_dev = rb.topology().iface(bi).device.0 as usize;
            let deliver = (loopback_ifaces[a_dev], loopback_ifaces[b_dev]);
            let (p4, a4, b4) = addressing::p2p_v4(i as u32);
            rb.add_p2p_connected(ai, bi, p4, (a4, b4), deliver);
            let (p6, a6, b6) = addressing::p2p_v6(i as u32);
            rb.add_p2p_connected(ai, bi, p6, (a6, b6), deliver);
        }
    }

    // Wide-area routes: advertised by WAN routers; accepted by hubs and
    // spines (tier ≥ 2) but never leaked into pods.
    let mut wan_prefixes = Vec::new();
    for i in 0..params.wan_prefixes {
        let prefix = addressing::wan_prefix(i);
        for (w, &wan) in wans.iter().enumerate() {
            rb.originate(Origination::new(
                wan,
                prefix,
                RouteClass::Wan,
                Some(wan_uplinks[w]),
                Scope::MinTier(2),
            ));
        }
        wan_prefixes.push(prefix);
    }

    // Static defaults northbound everywhere; WAN routers default out to
    // the Internet.
    for (tier, devs) in [(0u8, &tors), (1, &aggs), (2, &spines), (3, &hubs)] {
        let mut routes = Vec::new();
        for &d in devs.iter() {
            let outs: Vec<IfaceId> = rb
                .topology()
                .neighbors(d)
                .into_iter()
                .filter(|&(_, n)| rb.tier(n) == tier + 1)
                .map(|(i, _)| i)
                .collect();
            assert!(!outs.is_empty());
            routes.push(StaticRoute {
                device: d,
                prefix: Prefix::v4_default(),
                target: StaticTarget::Ifaces(outs),
                class: RouteClass::StaticDefault,
            });
        }
        for r in routes {
            rb.add_static(r);
        }
    }
    for (w, &wan) in wans.iter().enumerate() {
        rb.add_static(StaticRoute {
            device: wan,
            prefix: Prefix::v4_default(),
            target: StaticTarget::Ifaces(vec![wan_uplinks[w]]),
            class: RouteClass::StaticDefault,
        });
    }

    let finish = move |net| Regional {
        net,
        params,
        tors: tor_info,
        tor_host_ports,
        host_port_slices,
        aggs,
        spines,
        hubs,
        wans,
        wan_prefixes,
        loopback_ifaces,
        links,
    };
    (rb, finish)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataplane::{traceroute, TraceOutcome};
    use netbdd::Bdd;
    use netmodel::header::Packet;
    use netmodel::{Location, MatchSets};

    fn small() -> Regional {
        regional(RegionalParams::default())
    }

    #[test]
    fn batch_and_resident_construction_agree() {
        // The two stopping points of the engine's construction, on the
        // default regional description (scoped WAN routes, dual-stack
        // connected routes, loopbacks, static defaults).
        let batch = describe(RegionalParams::default()).0.try_build().unwrap();
        let (_, resident) = describe(RegionalParams::default()).0.into_engine().unwrap();
        for (d, dev) in batch.topology().devices() {
            assert_eq!(
                batch.device_rules(d),
                resident.device_rules(d),
                "FIB of {} diverged",
                dev.name
            );
        }
    }

    #[test]
    fn shape_matches_parameters() {
        let r = small();
        let p = r.params;
        assert_eq!(
            r.tors.len(),
            (p.datacenters * p.pods_per_dc * p.tors_per_pod) as usize
        );
        assert_eq!(
            r.aggs.len(),
            (p.datacenters * p.pods_per_dc * p.aggs_per_pod) as usize
        );
        assert_eq!(r.spines.len(), (p.datacenters * p.spines_per_dc) as usize);
        assert_eq!(r.hubs.len(), p.hubs as usize);
        assert_eq!(r.wans.len(), p.wan_routers as usize);
    }

    #[test]
    fn wan_routes_exist_only_in_upper_tiers() {
        let r = small();
        let wan_p = r.wan_prefixes[0];
        let has = |d: DeviceId| {
            r.net
                .device_rules(d)
                .iter()
                .any(|rl| rl.matches.dst == Some(wan_p))
        };
        for &s in &r.spines {
            assert!(has(s), "spines must carry WAN routes");
        }
        for &h in &r.hubs {
            assert!(has(h), "hubs must carry WAN routes");
        }
        for &(t, _, _) in &r.tors {
            assert!(!has(t), "ToRs must not see WAN routes");
        }
        for &a in &r.aggs {
            assert!(!has(a), "aggs must not see WAN routes");
        }
    }

    #[test]
    fn cross_dc_traffic_goes_through_hubs() {
        let r = small();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&r.net, &mut bdd);
        let (src, _, _) = r.tors[0];
        // Destination in the other datacenter (last ToR).
        let (dst, dst_prefix, _) = *r.tors.last().unwrap();
        let pkt = Packet::v4_to(dst_prefix.nth_addr(10) as u32);
        let res = traceroute(&mut bdd, &r.net, &ms, Location::device(src), pkt, 32);
        assert!(res.delivered(), "{:?}", res.outcome);
        let devices = res.devices();
        assert!(
            devices.iter().any(|d| r.hubs.contains(d)),
            "path must cross a hub"
        );
        assert_eq!(*devices.last().unwrap(), dst);
    }

    #[test]
    fn internet_bound_traffic_exits_at_wan() {
        let r = small();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&r.net, &mut bdd);
        let (src, _, _) = r.tors[0];
        let pkt = Packet::v4_to(netmodel::addr::ipv4(8, 8, 8, 8));
        let res = traceroute(&mut bdd, &r.net, &ms, Location::device(src), pkt, 32);
        match res.outcome {
            TraceOutcome::Exited { device, .. } => assert!(r.wans.contains(&device)),
            o => panic!("expected WAN exit, got {o:?}"),
        }
    }

    #[test]
    fn wan_prefix_traffic_routed_from_spine() {
        let r = small();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&r.net, &mut bdd);
        let pkt = Packet::v4_to(r.wan_prefixes[0].nth_addr(5) as u32);
        let res = traceroute(
            &mut bdd,
            &r.net,
            &ms,
            Location::device(r.spines[0]),
            pkt,
            32,
        );
        match res.outcome {
            TraceOutcome::Exited { device, .. } => assert!(r.wans.contains(&device)),
            o => panic!("expected WAN exit, got {o:?}"),
        }
        // The WAN rule (not the default) was exercised at the spine.
        let first_rule = r.net.rule(res.hops[0].rule);
        assert_eq!(first_rule.class, RouteClass::Wan);
    }

    #[test]
    fn connected_routes_present_on_both_ends_and_both_families() {
        let r = small();
        // Pick the first fabric link's /31: both end devices carry it.
        let (p4, _, _) = addressing::p2p_v4(0);
        let carriers: Vec<DeviceId> = r
            .net
            .topology()
            .devices()
            .filter(|&(d, _)| {
                r.net
                    .device_rules(d)
                    .iter()
                    .any(|rl| rl.class == RouteClass::Connected && rl.matches.dst == Some(p4))
            })
            .map(|(d, _)| d)
            .collect();
        assert_eq!(
            carriers.len(),
            2,
            "a /31 lives on exactly its two endpoints"
        );
        // v6 /126s exist too.
        let (p6, _, _) = addressing::p2p_v6(0);
        let v6_carriers = r
            .net
            .rules()
            .filter(|(_, rl)| rl.matches.dst == Some(p6))
            .count();
        assert_eq!(v6_carriers, 2);
    }

    #[test]
    fn loopbacks_reachable_from_other_dc() {
        let r = small();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&r.net, &mut bdd);
        let (src, _, _) = r.tors[0];
        // Loopback of the last hub.
        let hub = *r.hubs.last().unwrap();
        let lo = addressing::loopback(hub.0);
        let pkt = Packet::v4_to(lo.bits() as u32);
        let res = traceroute(&mut bdd, &r.net, &ms, Location::device(src), pkt, 32);
        match res.outcome {
            TraceOutcome::Delivered { device, .. } => assert_eq!(device, hub),
            o => panic!("expected delivery at the hub loopback, got {o:?}"),
        }
    }

    #[test]
    fn every_router_has_exactly_one_default() {
        let r = small();
        for (d, _) in r.net.topology().devices() {
            let defaults = r
                .net
                .device_rules(d)
                .iter()
                .filter(|rl| rl.matches.dst.map(|p| p.is_default()).unwrap_or(false))
                .count();
            assert_eq!(defaults, 1, "{}", r.net.topology().device(d).name);
        }
    }
}
