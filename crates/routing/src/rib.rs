//! The control-plane description ([`RibBuilder`]) and its validation.
//! Converging it into FIBs is [`crate::engine`]'s job.

mod description;
mod error;

pub use description::{Origination, Scope, StaticRoute, StaticTarget};
pub use error::RibError;

use netmodel::rule::RouteClass;
use netmodel::topology::{DeviceId, IfaceId, Topology};
use netmodel::{Network, Prefix};

use crate::engine::RoutingEngine;

/// Builds a network's forwarding state from a control-plane description.
pub struct RibBuilder {
    pub(crate) topo: Topology,
    /// Per-device tier (0 = ToR ... upward). Used by [`Scope::MinTier`].
    pub(crate) tiers: Vec<u8>,
    /// Per-device BGP ASN. The ASN assignment doesn't change best paths
    /// on a tiered Clos with allow-as-in (path length == hop count), but
    /// it is kept for fidelity and surfaced in diagnostics.
    pub(crate) asns: Vec<u32>,
    pub(crate) originations: Vec<Origination>,
    pub(crate) statics: Vec<StaticRoute>,
}

impl RibBuilder {
    /// Start a builder; tiers and ASNs default to 0 for every device.
    pub fn new(topo: Topology) -> RibBuilder {
        let n = topo.device_count();
        RibBuilder {
            topo,
            tiers: vec![0; n],
            asns: vec![0; n],
            originations: Vec::new(),
            statics: Vec::new(),
        }
    }

    /// The topology the forwarding state is being built over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Mutable access to the topology for late additions (loopbacks etc).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// Set a device's tier (used by [`Scope::MinTier`] route scoping).
    pub fn set_tier(&mut self, device: DeviceId, tier: u8) {
        let idx = device.0 as usize;
        if idx >= self.tiers.len() {
            self.tiers.resize(idx + 1, 0);
        }
        self.tiers[idx] = tier;
    }

    /// Set a device's BGP ASN (diagnostic fidelity; see the field docs).
    pub fn set_asn(&mut self, device: DeviceId, asn: u32) {
        let idx = device.0 as usize;
        if idx >= self.asns.len() {
            self.asns.resize(idx + 1, 0);
        }
        self.asns[idx] = asn;
    }

    /// A device's ASN (0 if never set — devices added after `new`).
    pub fn asn(&self, device: DeviceId) -> u32 {
        self.asns.get(device.0 as usize).copied().unwrap_or(0)
    }

    /// A device's tier (0 if never set — devices added after `new`).
    pub fn tier(&self, device: DeviceId) -> u8 {
        self.tiers.get(device.0 as usize).copied().unwrap_or(0)
    }

    /// Originate a prefix into BGP.
    pub fn originate(&mut self, o: Origination) {
        self.originations.push(o);
    }

    /// Add a statically configured route.
    pub fn add_static(&mut self, s: StaticRoute) {
        self.statics.push(s);
    }

    /// Convenience: both ends of a P2p link get the connected route for
    /// its point-to-point prefix, plus a self /32 (or /128) host route
    /// delivering packets addressed to the local end.
    ///
    /// `addrs` gives `(a_side_addr, b_side_addr)` inside `prefix`.
    pub fn add_p2p_connected(
        &mut self,
        a_iface: IfaceId,
        b_iface: IfaceId,
        prefix: Prefix,
        addrs: (u128, u128),
        self_deliver: (IfaceId, IfaceId),
    ) {
        let a_dev = self.topo.iface(a_iface).device;
        let b_dev = self.topo.iface(b_iface).device;
        debug_assert!(prefix.contains_addr(addrs.0) && prefix.contains_addr(addrs.1));
        // Connected /31 (or /126) pointing across the link.
        for (dev, out) in [(a_dev, a_iface), (b_dev, b_iface)] {
            self.statics.push(StaticRoute {
                device: dev,
                prefix,
                target: StaticTarget::Ifaces(vec![out]),
                class: RouteClass::Connected,
            });
        }
        // Self host routes: packets to my own link address are delivered
        // locally (modelled as forwarding to a local loopback-ish iface),
        // which is what prevents connected routes from ping-ponging.
        // They are a modelling artifact, not one of the paper's route
        // classes, so they are classed Other.
        let host_len = prefix.family().width();
        let mk_host = |addr: u128| match prefix.family() {
            netmodel::Family::V4 => Prefix::v4(addr as u32, host_len),
            netmodel::Family::V6 => Prefix::v6(addr, host_len),
        };
        for (dev, addr, deliver) in [
            (a_dev, addrs.0, self_deliver.0),
            (b_dev, addrs.1, self_deliver.1),
        ] {
            self.statics.push(StaticRoute {
                device: dev,
                prefix: mk_host(addr),
                target: StaticTarget::Ifaces(vec![deliver]),
                class: RouteClass::Other,
            });
        }
    }

    /// Check every device/interface reference in the control-plane
    /// description against the topology before the engine indexes with
    /// them. Malformed descriptions (hand-written configs, fuzzed
    /// inputs) become a [`RibError`] instead of an index panic deep in
    /// the BFS.
    fn validate(&self) -> Result<(), RibError> {
        let n = self.topo.device_count();
        let check_dev = |device: DeviceId, context: &'static str| {
            if (device.0 as usize) < n {
                Ok(())
            } else {
                Err(RibError::UnknownDevice {
                    device,
                    device_count: n,
                    context,
                })
            }
        };
        let check_iface = |iface: IfaceId, device: DeviceId, context: &'static str| {
            if (iface.0 as usize) < self.topo.iface_count()
                && self.topo.iface(iface).device == device
            {
                Ok(())
            } else {
                Err(RibError::BadIface {
                    iface,
                    device,
                    context,
                })
            }
        };
        for o in &self.originations {
            check_dev(o.device, "origination")?;
            if let Some(iface) = o.deliver {
                check_iface(iface, o.device, "origination delivery interface")?;
            }
            for &b in &o.blocked {
                check_dev(b, "origination blocked list")?;
            }
        }
        for s in &self.statics {
            check_dev(s.device, "static route")?;
            if let StaticTarget::Ifaces(outs) = &s.target {
                for &i in outs {
                    check_iface(i, s.device, "static route next-hop")?;
                }
            }
        }
        Ok(())
    }

    /// Compute every device's RIB and compile the forwarding state.
    ///
    /// Panics on a malformed description; [`Self::try_build`] is the
    /// non-panicking form.
    pub fn build(self) -> Network {
        match self.try_build() {
            Ok(net) => net,
            Err(e) => panic!("RibBuilder::build: invalid control-plane description: {e}"),
        }
    }

    /// Validate the description and hand it to a resident
    /// [`RoutingEngine`], returning the engine plus the
    /// compiled healthy-state network. The network is bit-identical to
    /// what [`Self::try_build`] on the same description produces — the
    /// same construction, not stopped early; the engine then keeps it
    /// converged under topology deltas.
    pub fn into_engine(self) -> Result<(RoutingEngine, Network), RibError> {
        let _span = netobs::span!("fib_build");
        self.validate()?;
        Ok(RoutingEngine::converge(self).into_resident())
    }

    /// [`Self::build`], returning [`RibError`] on out-of-range device or
    /// interface references instead of panicking. Runs the engine's
    /// construction — converge, fold, compile — and drops the converged
    /// state.
    pub fn try_build(self) -> Result<Network, RibError> {
        let _span = netobs::span!("fib_build");
        self.validate()?;
        Ok(RoutingEngine::converge(self).compile())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::addr::ipv4;
    use netmodel::rule::Action;
    use netmodel::topology::{IfaceKind, Role};

    /// tor1, tor2 -- spine1, spine2 (full mesh), one prefix per ToR.
    struct Fabric {
        b: RibBuilder,
        tors: Vec<DeviceId>,
        spines: Vec<DeviceId>,
        hosts: Vec<IfaceId>,
        p: Vec<Prefix>,
    }

    fn fabric() -> Fabric {
        let mut t = Topology::new();
        let tors = vec![
            t.add_device("tor1", Role::Tor),
            t.add_device("tor2", Role::Tor),
        ];
        let spines = vec![
            t.add_device("spine1", Role::Spine),
            t.add_device("spine2", Role::Spine),
        ];
        let hosts: Vec<IfaceId> = tors
            .iter()
            .map(|&d| t.add_iface(d, "hosts", IfaceKind::Host))
            .collect();
        for &tor in &tors {
            for &spine in &spines {
                t.add_link(tor, spine);
            }
        }
        let mut b = RibBuilder::new(t);
        for (i, &tor) in tors.iter().enumerate() {
            b.set_tier(tor, 0);
            b.set_asn(tor, 65000 + i as u32);
        }
        for &s in &spines {
            b.set_tier(s, 2);
            b.set_asn(s, 65100);
        }
        let p: Vec<Prefix> = vec![
            "10.0.1.0/24".parse().unwrap(),
            "10.0.2.0/24".parse().unwrap(),
        ];
        for (i, &tor) in tors.iter().enumerate() {
            b.originate(Origination::new(
                tor,
                p[i],
                RouteClass::HostSubnet,
                Some(hosts[i]),
                Scope::All,
            ));
        }
        Fabric {
            b,
            tors,
            spines,
            hosts,
            p,
        }
    }

    #[test]
    fn originator_delivers_locally() {
        let f = fabric();
        let net = f.b.build();
        let rules = net.device_rules(f.tors[0]);
        let own = rules
            .iter()
            .find(|r| r.matches.dst == Some(f.p[0]))
            .unwrap();
        assert_eq!(own.action, Action::Forward(vec![f.hosts[0]]));
        assert_eq!(own.class, RouteClass::HostSubnet);
    }

    #[test]
    fn remote_prefix_gets_ecmp_over_both_spines() {
        let f = fabric();
        let tor1 = f.tors[0];
        let net = f.b.build();
        let rules = net.device_rules(tor1);
        let remote = rules
            .iter()
            .find(|r| r.matches.dst == Some(f.p[1]))
            .unwrap();
        let outs = remote.action.out_ifaces();
        assert_eq!(outs.len(), 2, "expected ECMP across both spines");
        let topo = net.topology();
        let next: Vec<DeviceId> = outs.iter().map(|&i| topo.neighbor_of(i).unwrap()).collect();
        assert!(next.contains(&f.spines[0]) && next.contains(&f.spines[1]));
    }

    #[test]
    fn spines_point_down_to_the_owning_tor() {
        let f = fabric();
        let net = f.b.build();
        for &s in &f.spines {
            for (i, &pref) in f.p.iter().enumerate() {
                let r = net
                    .device_rules(s)
                    .iter()
                    .find(|r| r.matches.dst == Some(pref))
                    .unwrap()
                    .clone();
                let outs = r.action.out_ifaces();
                assert_eq!(outs.len(), 1);
                assert_eq!(net.topology().neighbor_of(outs[0]), Some(f.tors[i]));
            }
        }
    }

    #[test]
    fn scoped_routes_stay_in_upper_tiers() {
        let mut f = fabric();
        let wan_pref: Prefix = "52.0.0.0/8".parse().unwrap();
        // Add a WAN router above spine1 that originates a scoped route.
        let wan = f.b.topology_mut().add_device("wan", Role::Wan);
        let ext =
            f.b.topology_mut()
                .add_iface(wan, "internet", IfaceKind::External);
        f.b.topology_mut().add_link(wan, f.spines[0]);
        f.b.set_tier(wan, 4);
        f.b.set_asn(wan, 65535);
        f.b.originate(Origination::new(
            wan,
            wan_pref,
            RouteClass::Wan,
            Some(ext),
            Scope::MinTier(2),
        ));
        let net = f.b.build();
        // Spine1 has the WAN route; the ToRs do not.
        assert!(net
            .device_rules(f.spines[0])
            .iter()
            .any(|r| r.matches.dst == Some(wan_pref)));
        for &tor in &f.tors {
            assert!(!net
                .device_rules(tor)
                .iter()
                .any(|r| r.matches.dst == Some(wan_pref)));
        }
    }

    #[test]
    fn static_null_route_beats_bgp() {
        let mut f = fabric();
        // tor1 null-routes tor2's prefix statically.
        let tor1 = f.tors[0];
        f.b.add_static(StaticRoute {
            device: tor1,
            prefix: f.p[1],
            target: StaticTarget::Null,
            class: RouteClass::StaticDefault,
        });
        let net = f.b.build();
        let r = net
            .device_rules(tor1)
            .iter()
            .find(|r| r.matches.dst == Some(f.p[1]))
            .unwrap()
            .clone();
        assert!(r.action.is_drop(), "static (distance 1) must beat BGP (20)");
    }

    #[test]
    fn admin_distance_merge_table() {
        // a -- b -- c in a line; a originates `p`, so b always holds a
        // BGP candidate for `p` (forward towards a). Each row adds
        // statics for the same `(b, p)` key, in config order, and names
        // the rule the merge must install — at both stopping points of
        // the engine's construction.
        let p: Prefix = "10.0.1.0/24".parse().unwrap();
        let line = || {
            let mut t = Topology::new();
            let a = t.add_device("a", Role::Tor);
            let b = t.add_device("b", Role::Spine);
            let c = t.add_device("c", Role::Tor);
            let hosts = t.add_iface(a, "hosts", IfaceKind::Host);
            let (_, b_a) = t.add_link(a, b);
            let (b_c, _) = t.add_link(b, c);
            let mut rb = RibBuilder::new(t);
            rb.originate(Origination::new(
                a,
                p,
                RouteClass::HostSubnet,
                Some(hosts),
                Scope::All,
            ));
            (rb, b, b_a, b_c)
        };
        let (_, b, b_a, b_c) = line();
        use StaticTarget::{Ifaces, Null};
        struct Row {
            what: &'static str,
            statics: Vec<(RouteClass, StaticTarget)>,
            class: RouteClass,
            action: Action,
        }
        let rows = [
            Row {
                what: "connected beats an earlier static, which beats BGP",
                statics: vec![
                    (RouteClass::StaticDefault, Ifaces(vec![b_c])),
                    (RouteClass::Connected, Ifaces(vec![b_c, b_a])),
                ],
                class: RouteClass::Connected,
                action: Action::Forward(vec![b_c, b_a]),
            },
            Row {
                what: "among equal distances the first in config order wins",
                statics: vec![
                    (RouteClass::StaticDefault, Ifaces(vec![b_c])),
                    (RouteClass::Other, Null),
                ],
                class: RouteClass::StaticDefault,
                action: Action::Forward(vec![b_c]),
            },
            Row {
                what: "a null static is a drop, and a later static does not displace it",
                statics: vec![
                    (RouteClass::Other, Null),
                    (RouteClass::StaticDefault, Ifaces(vec![b_c])),
                ],
                class: RouteClass::Other,
                action: Action::Drop,
            },
            Row {
                what: "a degenerate empty ECMP set is installed verbatim",
                statics: vec![(RouteClass::Other, Ifaces(Vec::new()))],
                class: RouteClass::Other,
                action: Action::Forward(Vec::new()),
            },
        ];
        for Row {
            what,
            statics,
            class,
            action,
        } in rows
        {
            let describe = || {
                let (mut rb, ..) = line();
                for (class, target) in &statics {
                    rb.add_static(StaticRoute {
                        device: b,
                        prefix: p,
                        target: target.clone(),
                        class: *class,
                    });
                }
                rb
            };
            let batch = describe().try_build().unwrap();
            let (_, resident) = describe().into_engine().unwrap();
            for (entry, net) in [("try_build", &batch), ("into_engine", &resident)] {
                let rules = net.device_rules(b);
                assert_eq!(rules.len(), 1, "{what} ({entry}): one rule per key");
                assert_eq!(rules[0].matches.dst, Some(p), "{what} ({entry})");
                assert_eq!(rules[0].class, class, "{what} ({entry})");
                assert_eq!(rules[0].action, action, "{what} ({entry})");
            }
        }
    }

    #[test]
    fn connected_routes_and_self_hosts() {
        let mut t = Topology::new();
        let a = t.add_device("a", Role::Tor);
        let b = t.add_device("b", Role::Spine);
        let lo_a = t.add_iface(a, "lo", IfaceKind::Loopback);
        let lo_b = t.add_iface(b, "lo", IfaceKind::Loopback);
        let (ai, bi) = t.add_link(a, b);
        let mut rb = RibBuilder::new(t);
        let p31: Prefix = "172.16.0.0/31".parse().unwrap();
        rb.add_p2p_connected(
            ai,
            bi,
            p31,
            (ipv4(172, 16, 0, 0) as u128, ipv4(172, 16, 0, 1) as u128),
            (lo_a, lo_b),
        );
        let net = rb.build();
        // a: /32 self route wins over the /31 for its own address.
        let rules_a = net.device_rules(a);
        assert_eq!(rules_a.len(), 2);
        assert_eq!(rules_a[0].matches.dst.unwrap().len(), 32); // LPM first
        assert_eq!(rules_a[0].action, Action::Forward(vec![lo_a]));
        assert_eq!(rules_a[1].matches.dst, Some(p31));
        assert_eq!(rules_a[1].action, Action::Forward(vec![ai]));
        assert_eq!(rules_a[1].class, RouteClass::Connected);
    }

    #[test]
    fn anycast_prefix_routes_to_nearest_origin() {
        // Both ToRs originate the same prefix; each spine should ECMP to
        // both (distance 1 each); each ToR delivers locally.
        let mut f = fabric();
        let any: Prefix = "10.9.9.0/24".parse().unwrap();
        for (i, &tor) in f.tors.clone().iter().enumerate() {
            f.b.originate(Origination::new(
                tor,
                any,
                RouteClass::HostSubnet,
                Some(f.hosts[i]),
                Scope::All,
            ));
        }
        let net = f.b.build();
        for &tor in &f.tors {
            let r = net
                .device_rules(tor)
                .iter()
                .find(|r| r.matches.dst == Some(any))
                .unwrap()
                .clone();
            assert_eq!(r.action.out_ifaces().len(), 1); // local delivery
        }
        for &s in &f.spines {
            let r = net
                .device_rules(s)
                .iter()
                .find(|r| r.matches.dst == Some(any))
                .unwrap()
                .clone();
            assert_eq!(r.action.out_ifaces().len(), 2); // ECMP to both ToRs
        }
    }

    #[test]
    fn blocked_originator_installs_and_propagates_nothing() {
        // Previously panicking input (debug_assert on an empty ECMP set):
        // the BFS seeded blocked originators, so their neighbors got a
        // finite distance but no acceptable next-hop. The BGP simulator
        // (`simulate` in `tests/bgp`) already treated this correctly — a
        // blocked originator neither installs nor advertises — and the
        // builder must agree with it.
        let mut f = fabric();
        let any: Prefix = "10.66.0.0/24".parse().unwrap();
        let tor1 = f.tors[0];
        let mut o = Origination::new(
            tor1,
            any,
            RouteClass::HostSubnet,
            Some(f.hosts[0]),
            Scope::All,
        );
        o.blocked.push(tor1); // the originator blocks its own route
        f.b.originate(o);
        let net = f.b.build(); // must not panic
        for (device, _) in net.topology().devices() {
            assert!(
                !net.device_rules(device)
                    .iter()
                    .any(|r| r.matches.dst == Some(any)),
                "{device:?} must not hold a route blocked at its only originator"
            );
        }
    }

    #[test]
    fn blocked_originator_with_anycast_peer_leaves_one_path() {
        // Same prefix originated at both ToRs, blocked at tor1: everyone
        // routes towards tor2 only; previously this also tripped the
        // empty-ECMP debug_assert on devices adjacent to tor1.
        let mut f = fabric();
        let any: Prefix = "10.66.0.0/24".parse().unwrap();
        let (tor1, tor2) = (f.tors[0], f.tors[1]);
        for (i, &tor) in [tor1, tor2].iter().enumerate() {
            let mut o = Origination::new(
                tor,
                any,
                RouteClass::HostSubnet,
                Some(f.hosts[i]),
                Scope::All,
            );
            if tor == tor1 {
                o.blocked.push(tor1);
            }
            f.b.originate(o);
        }
        let net = f.b.build();
        assert!(!net
            .device_rules(tor1)
            .iter()
            .any(|r| r.matches.dst == Some(any)));
        for &s in &f.spines {
            let r = net
                .device_rules(s)
                .iter()
                .find(|r| r.matches.dst == Some(any))
                .expect("spines still learn the route from tor2")
                .clone();
            let outs = r.action.out_ifaces();
            assert_eq!(outs.len(), 1);
            assert_eq!(net.topology().neighbor_of(outs[0]), Some(tor2));
        }
    }

    #[test]
    fn out_of_range_origination_device_is_a_rib_error() {
        // Previously panicking input (index out of bounds in the BFS):
        // an origination naming a device the topology doesn't have.
        let f = fabric();
        let mut b = f.b;
        b.originate(Origination::new(
            DeviceId(999),
            "10.77.0.0/24".parse().unwrap(),
            RouteClass::HostSubnet,
            None,
            Scope::All,
        ));
        match b.try_build() {
            Err(RibError::UnknownDevice {
                device, context, ..
            }) => {
                assert_eq!(device, DeviceId(999));
                assert_eq!(context, "origination");
            }
            other => panic!("expected UnknownDevice, got {other:?}"),
        }
    }

    #[test]
    fn foreign_static_next_hop_is_a_rib_error() {
        let f = fabric();
        let mut b = f.b;
        // hosts[1] belongs to tor2, not tor1.
        b.add_static(StaticRoute {
            device: f.tors[0],
            prefix: "10.88.0.0/24".parse().unwrap(),
            target: StaticTarget::Ifaces(vec![f.hosts[1]]),
            class: RouteClass::Other,
        });
        let err = b.try_build().unwrap_err();
        assert!(matches!(err, RibError::BadIface { .. }), "{err:?}");
        assert!(err.to_string().contains("static route next-hop"));
    }

    #[test]
    fn unreachable_devices_get_no_route() {
        let mut t = Topology::new();
        let a = t.add_device("a", Role::Tor);
        let island = t.add_device("island", Role::Tor);
        let h = t.add_iface(a, "hosts", IfaceKind::Host);
        let mut b = RibBuilder::new(t);
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        b.originate(Origination::new(
            a,
            p,
            RouteClass::HostSubnet,
            Some(h),
            Scope::All,
        ));
        let net = b.build();
        assert!(net.device_rules(island).is_empty());
        assert_eq!(net.device_rules(a).len(), 1);
    }
}
