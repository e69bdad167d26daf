//! The control plane: eBGP convergence, the admin-distance fold, FIB
//! compilation — and their delta-aware re-convergence.
//!
//! [`RoutingEngine`] construction is the only code in this crate that
//! turns a control-plane description into FIBs. It runs in three stages:
//!
//! 1. **converge** — index links and adjacencies, group originations by
//!    prefix (multi-origin = anycast), and `RoutingEngine::relax` each
//!    group from its originators over the devices whose scope accepts
//!    the route;
//! 2. **fold** — for every `(device, prefix)` key, in key order, merge
//!    the key's static candidates and its group's BGP candidate by
//!    administrative distance (connected < static < BGP, first in config
//!    order wins ties);
//! 3. **compile** — push the folded rules into a [`Network`].
//!
//! [`RibBuilder::try_build`] runs the three stages and stops, dropping
//! the converged state. [`RibBuilder::into_engine`] runs the same three
//! and keeps the fixpoint *resident* — per-prefix distance vectors plus
//! the folded FIB entry installed for every key — so that topology
//! deltas — [`TopologyDelta::LinkDown`]/[`TopologyDelta::LinkUp`] and
//! device counterparts — re-converge only the affected subtrees. One
//! per-group repair serves every delta:
//!
//! * **deletion** finds the orphans — the dead element's shortest-path
//!   children, the downed device itself, and whatever hangs only off
//!   them — and clears their distances;
//! * **relaxation** then lowers the group again from the orphans' live,
//!   reached neighbours, both ends of each revived link and the group's
//!   originators. It is the same level-by-level sweep construction runs,
//!   and the only code that lowers a distance.
//!
//! Devices whose distance or ECMP set changed are *re-folded* — stage 2
//! for just their `(device, prefix)` keys, under the current failure
//! state — and the resulting rule edits are applied to the live
//! [`Network`]: a key that stays routed is swapped where it sits
//! ([`Network::replace_rule`] — same key, same match fields, same
//! index), a gained key lands at its canonical batch position
//! ([`Network::insert_rule_canonical`]), so the incremental FIB stays
//! bit-identical to a from-scratch build of the degraded description
//! ([`RoutingEngine::full_rebuild`] is exactly that, and the
//! differential tests gate on it). The per-device edits are reported as
//! a [`FibDiff`], from which a coverage engine can tell the devices it
//! must recompute from the ones that only swapped next-hops
//! ([`FibChange::is_replacement`]).
//!
//! Every delta is validated into a named [`RibError`] — against the
//! topology (unknown device/link) and the failure state (double-down,
//! not-down) — before any state is mutated.

mod converge;
mod marks;
mod oracle;
mod repair;

use std::collections::BTreeMap;

use netmodel::rule::{RouteClass, Rule};
use netmodel::topology::{DeviceId, IfaceId, Topology};
use netmodel::{Network, Prefix};

use crate::rib::{Origination, RibBuilder, RibError, StaticRoute, StaticTarget};

/// A topology failure/recovery event applied to the resident engine.
///
/// Links are addressed by their device pair: all parallel links between
/// the two devices toggle together (a fat-tree has exactly one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyDelta {
    /// Take every link between `a` and `b` down.
    LinkDown {
        /// One endpoint device.
        a: DeviceId,
        /// The other endpoint device.
        b: DeviceId,
    },
    /// Bring every downed link between `a` and `b` back up.
    LinkUp {
        /// One endpoint device.
        a: DeviceId,
        /// The other endpoint device.
        b: DeviceId,
    },
    /// Take a whole device down: its links go dead and its originations
    /// and static routes are withdrawn until it comes back.
    DeviceDown {
        /// The failing device.
        device: DeviceId,
    },
    /// Bring a downed device back up.
    DeviceUp {
        /// The recovering device.
        device: DeviceId,
    },
}

/// One FIB entry edit produced by re-convergence.
///
/// When `old` and `new` are both present the entry kept its key, hence
/// its match fields, and [`RoutingEngine::apply`] swapped the rule *in
/// place* ([`Network::replace_rule`]): it sits at the index it had, and
/// no other rule of the device moved because of this change. A device
/// all of whose changes are such replacements has the table order and
/// the match sets it had before the delta.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FibChange {
    /// Device whose table changed.
    pub device: DeviceId,
    /// Destination prefix of the managed entry.
    pub prefix: Prefix,
    /// The rule previously installed for the key (`None` = newly routed).
    pub old: Option<Rule>,
    /// The rule now installed for the key (`None` = withdrawn).
    pub new: Option<Rule>,
}

impl FibChange {
    /// Whether the entry was replaced in place: the key was routed
    /// before and still is, with another action or route class.
    pub fn is_replacement(&self) -> bool {
        self.old.is_some() && self.new.is_some()
    }
}

/// The per-device FIB diff of one applied [`TopologyDelta`], in
/// `(device, prefix)` order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FibDiff {
    /// Every entry edit, ordered by `(device, prefix)`.
    pub changes: Vec<FibChange>,
}

impl FibDiff {
    /// The touched devices, deduplicated, in id order — the unit of
    /// coverage invalidation.
    pub fn devices(&self) -> Vec<DeviceId> {
        let mut out: Vec<DeviceId> = self.changes.iter().map(|c| c.device).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Whether re-convergence changed nothing.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Number of entry edits.
    pub fn len(&self) -> usize {
        self.changes.len()
    }
}

/// A point-to-point link derived from the topology's peered iface pairs.
#[derive(Clone, Copy, Debug)]
struct Link {
    a: DeviceId,
    ai: IfaceId,
    b: DeviceId,
    bi: IfaceId,
}

/// One adjacency entry: out-iface, neighbor, owning link.
#[derive(Clone, Copy, Debug)]
struct Adj {
    iface: IfaceId,
    peer: u32,
    link: usize,
}

/// Resident BFS state of one anycast prefix group.
#[derive(Clone, Debug)]
struct Group {
    prefix: Prefix,
    /// Indexes into `originations`, in origination order.
    origins: Vec<usize>,
    /// FIB class stamped on every rule of the group (first origination).
    class: RouteClass,
    /// Per-device scope/blocked acceptance (static per group).
    accepts: Vec<bool>,
    /// Seed devices (non-blocked originators), deduplicated, in order.
    seeds: Vec<u32>,
    /// Hop distance per device; `u32::MAX` = unreachable.
    dist: Vec<u32>,
}

/// The resident incremental routing engine. See the module docs.
pub struct RoutingEngine {
    topo: Topology,
    tiers: Vec<u8>,
    asns: Vec<u32>,
    originations: Vec<Origination>,
    statics: Vec<StaticRoute>,
    links: Vec<Link>,
    /// Per-iface owning link (`None` for host/loopback/external ifaces).
    iface_link: Vec<Option<usize>>,
    /// Per-device adjacency in iface creation order (matches
    /// [`Topology::neighbors`]).
    adj: Vec<Vec<Adj>>,
    link_down: Vec<bool>,
    device_down: Vec<bool>,
    /// One per originated prefix, in prefix order.
    groups: Vec<Group>,
    group_of: BTreeMap<Prefix, usize>,
    /// Static routes per `(device, prefix)` key, in config order.
    static_keys: BTreeMap<(u32, Prefix), Vec<usize>>,
    // The next three are the resident-only state: empty until
    // `into_resident`, which the batch stopping point never reaches.
    /// Static indexes per device.
    statics_by_device: Vec<Vec<usize>>,
    /// `(device, prefix)` keys whose statics reference an iface.
    statics_by_iface: BTreeMap<u32, Vec<(u32, Prefix)>>,
    /// The rule currently installed per managed `(device, prefix)` key.
    installed: BTreeMap<(u32, Prefix), Rule>,
    /// Monotone counters surfaced as `routing.reconverge.*` gauges.
    reconverge_count: u64,
    devices_touched_total: u64,
    rules_changed_total: u64,
}

impl RoutingEngine {
    /// Number of point-to-point links in the topology.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Endpoint devices of every link, in link order.
    pub fn link_endpoints(&self) -> Vec<(DeviceId, DeviceId)> {
        self.links.iter().map(|l| (l.a, l.b)).collect()
    }

    /// Whether the device is currently down.
    pub fn is_device_down(&self, device: DeviceId) -> bool {
        self.device_down
            .get(device.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// The rule the engine installed for `prefix` on `device`, if it
    /// manages that key.
    pub fn installed_rule(&self, device: DeviceId, prefix: Prefix) -> Option<&Rule> {
        self.installed.get(&(device.0, prefix))
    }

    /// The base (healthy) topology the engine was built over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The base topology with every currently-dead link severed — what
    /// the network looks like under the present failure state.
    pub fn degraded_topology(&self) -> Topology {
        let mut topo = self.topo.clone();
        for (l, link) in self.links.iter().enumerate() {
            if !self.link_live(l) {
                topo.sever_link(link.ai, link.bi);
            }
        }
        topo
    }

    /// The originations surviving the present failure state (down
    /// devices advertise nothing).
    pub fn live_originations(&self) -> Vec<Origination> {
        self.originations
            .iter()
            .filter(|o| !self.device_down[o.device.0 as usize])
            .cloned()
            .collect()
    }

    /// Per-device tiers (length = device count).
    pub fn tiers(&self) -> &[u8] {
        &self.tiers
    }

    /// Per-device ASNs (length = device count).
    pub fn asns(&self) -> &[u32] {
        &self.asns
    }

    /// The control-plane description of the current failure state, as a
    /// fresh [`RibBuilder`]: every dead link severed, down devices'
    /// originations and statics dropped, static next-hops over dead
    /// links pruned. Building it from scratch is the differential
    /// reference for the incremental path — for FIBs
    /// ([`RoutingEngine::full_rebuild`]) and for provenance
    /// ([`RibBuilder::into_engine`] + [`RoutingEngine::config_db`]).
    pub fn degraded_builder(&self) -> RibBuilder {
        let mut rb = RibBuilder::new(self.degraded_topology());
        for d in 0..self.topo.device_count() {
            rb.set_tier(DeviceId(d as u32), self.tiers[d]);
            rb.set_asn(DeviceId(d as u32), self.asns[d]);
        }
        for o in self.live_originations() {
            rb.originate(o);
        }
        for s in &self.statics {
            if self.device_down[s.device.0 as usize] {
                continue;
            }
            match &s.target {
                StaticTarget::Null => rb.add_static(s.clone()),
                StaticTarget::Ifaces(outs) => {
                    if outs.is_empty() {
                        rb.add_static(s.clone());
                        continue;
                    }
                    let live: Vec<IfaceId> = outs
                        .iter()
                        .copied()
                        .filter(|&i| self.iface_live(i))
                        .collect();
                    if !live.is_empty() {
                        rb.add_static(StaticRoute {
                            device: s.device,
                            prefix: s.prefix,
                            target: StaticTarget::Ifaces(live),
                            class: s.class,
                        });
                    }
                }
            }
        }
        rb
    }

    /// Rebuild the FIBs of the current failure state from scratch
    /// ([`RoutingEngine::degraded_builder`] + [`RibBuilder::try_build`]).
    /// This is the reference the incremental path must be bit-identical
    /// to — and the "rebuild" leg of the scenario benchmarks.
    pub fn full_rebuild(&self) -> Result<Network, RibError> {
        self.degraded_builder().try_build()
    }

    /// Whether a link currently carries traffic.
    fn link_live(&self, l: usize) -> bool {
        !self.link_down[l]
            && !self.device_down[self.links[l].a.0 as usize]
            && !self.device_down[self.links[l].b.0 as usize]
    }

    /// Whether an iface can be a next-hop: its link (if any) is live.
    /// The owning device's own state is the caller's concern.
    fn iface_live(&self, iface: IfaceId) -> bool {
        match self.iface_link[iface.0 as usize] {
            Some(l) => self.link_live(l),
            None => true,
        }
    }

    /// All link indexes between two devices (usually one).
    fn links_between(&self, a: DeviceId, b: DeviceId) -> Vec<usize> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| (l.a == a && l.b == b) || (l.a == b && l.b == a))
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether a static route currently contributes a FIB candidate: its
    /// device is up and it is a null route, a degenerate empty ECMP set
    /// (preserved verbatim), or has at least one live next-hop.
    /// [`Self::degraded_builder`] prunes statics by the same rule, on
    /// its own, as the reference side of the differential tests.
    fn static_applies(&self, s: &StaticRoute) -> bool {
        if self.device_down[s.device.0 as usize] {
            return false;
        }
        match &s.target {
            StaticTarget::Null => true,
            StaticTarget::Ifaces(outs) => {
                outs.is_empty() || outs.iter().any(|&i| self.iface_live(i))
            }
        }
    }
}
