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

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use netmodel::provenance::{ConfigDb, Construct, Marks};
use netmodel::rule::{Action, RouteClass, Rule};
use netmodel::topology::{DeviceId, IfaceId, Topology};
use netmodel::{MatchFields, Network, Prefix, RuleId};

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
    /// Stage 1 of construction: index the validated description and
    /// [`Self::relax`] every prefix group from its originators. The result
    /// holds everything [`Self::fold_key`] reads and none of the
    /// delta-only state.
    pub(crate) fn converge(description: RibBuilder) -> RoutingEngine {
        let _span = netobs::span!("fib_converge");
        let RibBuilder {
            topo,
            mut tiers,
            mut asns,
            originations,
            statics,
        } = description;
        let n = topo.device_count();
        tiers.resize(n.max(tiers.len()), 0);
        asns.resize(n.max(asns.len()), 0);

        // Enumerate links from peered iface pairs, in iface id order.
        let mut links = Vec::new();
        let mut iface_link = vec![None; topo.iface_count()];
        for (id, iface) in topo.ifaces() {
            if let Some(peer) = iface.peer {
                if id.0 < peer.0 {
                    let l = links.len();
                    links.push(Link {
                        a: iface.device,
                        ai: id,
                        b: topo.iface(peer).device,
                        bi: peer,
                    });
                    iface_link[id.0 as usize] = Some(l);
                    iface_link[peer.0 as usize] = Some(l);
                }
            }
        }
        let adj: Vec<Vec<Adj>> = (0..n)
            .map(|d| {
                topo.neighbors(DeviceId(d as u32))
                    .into_iter()
                    .map(|(iface, peer)| Adj {
                        iface,
                        peer: peer.0,
                        link: iface_link[iface.0 as usize].expect("peered iface belongs to a link"),
                    })
                    .collect()
            })
            .collect();

        let mut static_keys: BTreeMap<(u32, Prefix), Vec<usize>> = BTreeMap::new();
        for (si, s) in statics.iter().enumerate() {
            static_keys
                .entry((s.device.0, s.prefix))
                .or_default()
                .push(si);
        }

        // Prefix groups: originations of one prefix converge together
        // (multi-origin = anycast ECMP towards the nearest originators).
        let mut group_of = BTreeMap::new();
        let mut by_prefix: BTreeMap<Prefix, Vec<usize>> = BTreeMap::new();
        for (oi, o) in originations.iter().enumerate() {
            by_prefix.entry(o.prefix).or_default().push(oi);
        }
        let mut groups = Vec::new();
        for (prefix, origin_idxs) in by_prefix {
            let blocked = |dev: DeviceId| {
                origin_idxs
                    .iter()
                    .any(|&oi| originations[oi].blocked.contains(&dev))
            };
            // Scope union: a device accepts if any origination's scope
            // admits it (in practice all originations of one prefix
            // share a scope) and none blocks it.
            let accepts: Vec<bool> = (0..n)
                .map(|d| {
                    origin_idxs
                        .iter()
                        .any(|&oi| originations[oi].scope.accepts(tiers[d]))
                        && !blocked(DeviceId(d as u32))
                })
                .collect();
            // A blocked originator neither installs nor advertises its
            // own route — the same seeding rule as the message-passing
            // simulator (`bgp::simulate`); seeding it anyway would leave
            // its neighbors a finite distance but no usable next-hop.
            // Scope is deliberately not checked here: an out-of-scope
            // originator still holds and advertises its origination,
            // exactly as in eBGP.
            let mut seeds = Vec::new();
            for &oi in &origin_idxs {
                let d = originations[oi].device;
                if !blocked(d) && !seeds.contains(&d.0) {
                    seeds.push(d.0);
                }
            }
            let class = originations[origin_idxs[0]].class;
            group_of.insert(prefix, groups.len());
            groups.push(Group {
                prefix,
                origins: origin_idxs,
                class,
                accepts,
                seeds,
                dist: vec![u32::MAX; n],
            });
        }

        let mut engine = RoutingEngine {
            topo,
            tiers,
            asns,
            originations,
            statics,
            link_down: vec![false; links.len()],
            links,
            iface_link,
            adj,
            device_down: vec![false; n],
            groups,
            group_of,
            static_keys,
            statics_by_device: Vec::new(),
            statics_by_iface: BTreeMap::new(),
            installed: BTreeMap::new(),
            reconverge_count: 0,
            devices_touched_total: 0,
            rules_changed_total: 0,
        };
        let mut moved = Vec::new();
        for gi in 0..engine.groups.len() {
            engine.relax(gi, Vec::new(), &mut moved);
            moved.clear();
        }
        engine
    }

    /// Stage 2 of construction: every `(device, prefix)` key a static
    /// names or a group reaches, folded in key order.
    fn fold_all(&self) -> impl Iterator<Item = ((u32, Prefix), Rule)> + '_ {
        let mut keys: Vec<(u32, Prefix)> = self.static_keys.keys().copied().collect();
        for g in &self.groups {
            for (d, &dist) in g.dist.iter().enumerate() {
                if dist != u32::MAX {
                    keys.push((d as u32, g.prefix));
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .filter_map(|key| self.fold_key(key).map(|rule| (key, rule)))
    }

    /// The batch stopping point: fold, compile, and drop the converged
    /// state ([`RibBuilder::try_build`]).
    pub(crate) fn compile(mut self) -> Network {
        let _span = netobs::span!("fib_compile");
        // The fold reads the adjacency index, never `topo`, so the
        // network can take the topology without a copy.
        let topo = std::mem::take(&mut self.topo);
        compile_fib(topo, self.fold_all())
    }

    /// The resident stopping point: fold into `installed`, compile from
    /// it, and index the statics for [`Self::apply`]
    /// ([`RibBuilder::into_engine`]).
    pub(crate) fn into_resident(mut self) -> (RoutingEngine, Network) {
        let compile_span = netobs::span!("fib_compile");
        self.installed = self.fold_all().collect();
        let net = compile_fib(
            self.topo.clone(),
            self.installed
                .iter()
                .map(|(&key, rule)| (key, rule.clone())),
        );
        drop(compile_span);

        self.statics_by_device = vec![Vec::new(); self.topo.device_count()];
        for (si, s) in self.statics.iter().enumerate() {
            self.statics_by_device[s.device.0 as usize].push(si);
            if let StaticTarget::Ifaces(outs) = &s.target {
                for &i in outs {
                    self.statics_by_iface
                        .entry(i.0)
                        .or_default()
                        .push((s.device.0, s.prefix));
                }
            }
        }
        (self, net)
    }

    /// Number of point-to-point links in the topology.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Endpoint devices of every link, in link order.
    pub fn link_endpoints(&self) -> Vec<(DeviceId, DeviceId)> {
        self.links.iter().map(|l| (l.a, l.b)).collect()
    }

    /// Whether every link between the two devices is currently down.
    pub fn is_link_down(&self, a: DeviceId, b: DeviceId) -> bool {
        let ls = self.links_between(a, b);
        !ls.is_empty() && ls.iter().all(|&l| self.link_down[l])
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

    /// Apply a failure/recovery delta, re-converge incrementally, edit
    /// `net` in place, and return the FIB diff. `net` must be the network
    /// this engine built (or last edited) — managed entries are located
    /// by content.
    ///
    /// # Examples
    ///
    /// ```
    /// use netmodel::rule::RouteClass;
    /// use netmodel::topology::{IfaceKind, Role, Topology};
    /// use routing::{Origination, RibBuilder, Scope, TopologyDelta};
    ///
    /// let mut topo = Topology::new();
    /// let tor = topo.add_device("tor", Role::Tor);
    /// let s1 = topo.add_device("s1", Role::Spine);
    /// let s2 = topo.add_device("s2", Role::Spine);
    /// let hosts = topo.add_iface(tor, "hosts", IfaceKind::Host);
    /// topo.add_link(tor, s1);
    /// topo.add_link(tor, s2);
    /// let mut rb = RibBuilder::new(topo);
    /// rb.originate(Origination::new(
    ///     tor,
    ///     "10.0.1.0/24".parse().unwrap(),
    ///     RouteClass::HostSubnet,
    ///     Some(hosts),
    ///     Scope::All,
    /// ));
    /// let (mut engine, mut net) = rb.into_engine().unwrap();
    ///
    /// // Fail tor–s1: only s1 loses its route towards the prefix, and
    /// // the diff names exactly the devices whose tables changed.
    /// let diff = engine
    ///     .apply(&mut net, &TopologyDelta::LinkDown { a: tor, b: s1 })
    ///     .unwrap();
    /// assert_eq!(diff.devices(), vec![s1]);
    /// assert!(net.device_rules(s1).is_empty());
    /// ```
    pub fn apply(&mut self, net: &mut Network, delta: &TopologyDelta) -> Result<FibDiff, RibError> {
        let _span = netobs::span!("reconverge");
        let n = self.topo.device_count();
        let check_dev = |device: DeviceId| -> Result<(), RibError> {
            if (device.0 as usize) < n {
                Ok(())
            } else {
                Err(RibError::UnknownDevice {
                    device,
                    device_count: n,
                    context: "topology delta",
                })
            }
        };

        // Validate and update failure state; collect the links that
        // died or came back, and the device that went down, if any.
        let mut refold: BTreeSet<(u32, Prefix)> = BTreeSet::new();
        let (mut removed, mut added, mut downed) = (Vec::new(), Vec::new(), None);
        match *delta {
            TopologyDelta::LinkDown { a, b } => {
                check_dev(a)?;
                check_dev(b)?;
                let ls = self.links_between(a, b);
                if ls.is_empty() {
                    return Err(RibError::UnknownLink { a, b });
                }
                let targets: Vec<usize> = ls.into_iter().filter(|&l| !self.link_down[l]).collect();
                if targets.is_empty() {
                    return Err(RibError::LinkAlreadyDown { a, b });
                }
                // Only links that were live actually change reachability.
                removed = targets
                    .iter()
                    .copied()
                    .filter(|&l| self.link_live(l))
                    .collect();
                for &l in &targets {
                    self.link_down[l] = true;
                }
            }
            TopologyDelta::LinkUp { a, b } => {
                check_dev(a)?;
                check_dev(b)?;
                let ls = self.links_between(a, b);
                if ls.is_empty() {
                    return Err(RibError::UnknownLink { a, b });
                }
                let targets: Vec<usize> = ls.into_iter().filter(|&l| self.link_down[l]).collect();
                if targets.is_empty() {
                    return Err(RibError::LinkNotDown { a, b });
                }
                for &l in &targets {
                    self.link_down[l] = false;
                }
                added = targets.into_iter().filter(|&l| self.link_live(l)).collect();
            }
            TopologyDelta::DeviceDown { device } => {
                check_dev(device)?;
                let d = device.0 as usize;
                if self.device_down[d] {
                    return Err(RibError::DeviceAlreadyDown { device });
                }
                removed = self.adj[d]
                    .iter()
                    .filter(|a| self.link_live(a.link))
                    .map(|a| a.link)
                    .collect();
                // Every managed entry on the device is withdrawn.
                for (&key, _) in self.installed.iter() {
                    if key.0 == device.0 {
                        refold.insert(key);
                    }
                }
                self.device_down[d] = true;
                downed = Some(device.0);
            }
            TopologyDelta::DeviceUp { device } => {
                check_dev(device)?;
                let d = device.0 as usize;
                if !self.device_down[d] {
                    return Err(RibError::DeviceNotDown { device });
                }
                self.device_down[d] = false;
                added = self.adj[d]
                    .iter()
                    .filter(|a| self.link_live(a.link))
                    .map(|a| a.link)
                    .collect();
                // The device's statics come back even if no BGP route
                // reaches it.
                for &si in &self.statics_by_device[d] {
                    refold.insert((self.statics[si].device.0, self.statics[si].prefix));
                }
            }
        }
        let toggled: Vec<usize> = removed.iter().chain(&added).copied().collect();

        // Statics whose next-hop set crosses a toggled link re-fold.
        for &l in &toggled {
            for iface in [self.links[l].ai, self.links[l].bi] {
                if let Some(keys) = self.statics_by_iface.get(&iface.0) {
                    for &key in keys {
                        refold.insert(key);
                    }
                }
            }
        }

        // Per-group incremental repair.
        for gi in 0..self.groups.len() {
            let changed = self.repair(gi, &removed, &added, downed);
            let prefix = self.groups[gi].prefix;
            // Changed devices and their live neighbors re-fold (a
            // neighbor's ECMP set can change without its distance
            // moving).
            for &v in &changed {
                refold.insert((v, prefix));
                for a in &self.adj[v as usize] {
                    if self.link_live(a.link) {
                        refold.insert((a.peer, prefix));
                    }
                }
            }
            // Toggled-link endpoints re-fold whenever the group reaches
            // them: an endpoint can gain or lose an ECMP leg with no
            // distance change anywhere.
            for &l in &toggled {
                let (x, y) = (self.links[l].a.0, self.links[l].b.0);
                let g = &self.groups[gi];
                if g.dist[x as usize] != u32::MAX || g.dist[y as usize] != u32::MAX {
                    refold.insert((x, prefix));
                    refold.insert((y, prefix));
                }
            }
        }

        // Re-fold and edit the network.
        let mut diff = FibDiff::default();
        for key in refold {
            let new = self.fold_key(key);
            let installed = self.installed.get(&key);
            if installed == new.as_ref() {
                continue;
            }
            let device = DeviceId(key.0);
            // A key that stays routed keeps its match: swap the rule
            // where it sits (the `FibChange` contract). Only a gained
            // key needs its canonical position looked up.
            let old = installed.map(|o| {
                let index = net
                    .device_rules(device)
                    .iter()
                    .position(|r| r == o)
                    .expect("engine-managed rule present in the network")
                    as u32;
                let id = RuleId { device, index };
                match &new {
                    Some(nr) => net.replace_rule(id, nr.clone()),
                    None => net.withdraw_rule(id),
                }
            });
            match &new {
                Some(nr) => {
                    if old.is_none() {
                        net.insert_rule_canonical(device, nr.clone());
                    }
                    self.installed.insert(key, nr.clone());
                }
                None => {
                    self.installed.remove(&key);
                }
            }
            diff.changes.push(FibChange {
                device,
                prefix: key.1,
                old,
                new,
            });
        }

        self.reconverge_count += 1;
        self.devices_touched_total += diff.devices().len() as u64;
        self.rules_changed_total += diff.changes.len() as u64;
        netobs::gauge("routing.reconverge.count", self.reconverge_count as f64);
        netobs::gauge(
            "routing.reconverge.devices_touched_total",
            self.devices_touched_total as f64,
        );
        netobs::gauge(
            "routing.reconverge.rules_changed_total",
            self.rules_changed_total as f64,
        );
        Ok(diff)
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

    /// Re-converge one group after `removed` links died and `added` ones
    /// came back, `downed` being the device that went down, if any.
    /// Returns the devices whose distance changed.
    ///
    /// First the orphan scan: a candidate (a child across a removed link,
    /// the downed device, or a child of an orphan) survives if it is an
    /// up seed or still has a live, unorphaned parent one step closer; a
    /// down device never survives. A ToR-uplink flap thus orphans nothing
    /// in a group where the ToR keeps another uplink. The orphans are
    /// cleared, then [`Self::relax`] lowers the group again from each
    /// orphan's live, reached neighbours plus one, from both ends of each
    /// revived link, and from the group's own seeds.
    fn repair(
        &mut self,
        gi: usize,
        removed: &[usize],
        added: &[usize],
        downed: Option<u32>,
    ) -> Vec<u32> {
        let mut dist = std::mem::take(&mut self.groups[gi].dist);
        let mut queue: VecDeque<u32> = downed.into_iter().collect();
        for &l in removed {
            let (x, y) = (self.links[l].a.0, self.links[l].b.0);
            for (u, v) in [(x, y), (y, x)] {
                let (du, dv) = (dist[u as usize], dist[v as usize]);
                if du != u32::MAX && dv == du + 1 {
                    queue.push_back(v);
                }
            }
        }
        // An orphan is cleared as soon as it is found, so it no longer
        // counts as anyone's parent.
        let mut moved = Vec::new();
        while let Some(v) = queue.pop_front() {
            let vi = v as usize;
            let dv = dist[vi];
            if dv == u32::MAX {
                continue;
            }
            let survives = !self.device_down[vi]
                && (dv == 0
                    || self.adj[vi]
                        .iter()
                        .any(|a| dist[a.peer as usize] == dv - 1 && self.link_live(a.link)));
            if survives {
                continue;
            }
            moved.push((v, dv));
            dist[vi] = u32::MAX;
            for a in &self.adj[vi] {
                if dist[a.peer as usize] == dv + 1 && self.link_live(a.link) {
                    queue.push_back(a.peer);
                }
            }
        }

        let reached = |v: u32| Some(dist[v as usize]).filter(|&d| d != u32::MAX);
        let mut seeds = Vec::new();
        for &(v, _) in &moved {
            let live = self.adj[v as usize]
                .iter()
                .filter(|a| self.link_live(a.link));
            if let Some(d) = live.filter_map(|a| reached(a.peer)).min() {
                seeds.push((d + 1, v));
            }
        }
        for &l in added {
            let (x, y) = (self.links[l].a.0, self.links[l].b.0);
            for (u, v) in [(x, y), (y, x)] {
                if let Some(d) = reached(u) {
                    seeds.push((d + 1, v));
                }
            }
        }
        self.groups[gi].dist = dist;
        self.relax(gi, seeds, &mut moved);

        // An orphan is logged twice, first with its distance before the
        // delta: keep that entry.
        moved.sort_by_key(|&(v, _)| v);
        moved.dedup_by_key(|&mut (v, _)| v);
        let dist = &self.groups[gi].dist;
        moved
            .into_iter()
            .filter(|&(v, before)| dist[v as usize] != before)
            .map(|(v, _)| v)
            .collect()
    }

    /// The one relaxation that lowers a group's distances: a
    /// level-by-level sweep over live links into up devices that accept
    /// the group's route. Each `(distance, device)` seed is taken in when
    /// the sweep reaches its distance; the group's own originators are
    /// always seeded at 0, exempt from acceptance (as in
    /// `bgp::simulate`). Every edge weighs 1, so a device is lowered at
    /// most once, to its exact distance; each lowered device is logged
    /// to `moved` with the distance it had.
    fn relax(&mut self, gi: usize, mut seeds: Vec<(u32, u32)>, moved: &mut Vec<(u32, u32)>) {
        let mut dist = std::mem::take(&mut self.groups[gi].dist);
        let g = &self.groups[gi];
        seeds.extend(g.seeds.iter().map(|&s| (0, s)));
        // Nearest last, so the sweep pops seeds in distance order.
        seeds.sort_unstable_by_key(|&(d, _)| Reverse(d));
        let (mut level, mut frontier, mut next) = (0, Vec::new(), Vec::new());
        loop {
            if frontier.is_empty() {
                match seeds.last() {
                    Some(&(d, _)) => level = d,
                    None => break,
                }
            }
            while let Some((d, v)) = seeds.pop_if(|&mut (d, _)| d == level) {
                let vi = v as usize;
                if !self.device_down[vi] && (d == 0 || g.accepts[vi]) && d < dist[vi] {
                    moved.push((v, dist[vi]));
                    dist[vi] = d;
                    frontier.push(v);
                }
            }
            for &v in &frontier {
                for a in &self.adj[v as usize] {
                    let u = a.peer as usize;
                    if level + 1 < dist[u] && g.accepts[u] && self.link_live(a.link) {
                        moved.push((a.peer, dist[u]));
                        dist[u] = level + 1;
                        next.push(a.peer);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
            level += 1;
        }
        self.groups[gi].dist = dist;
    }

    /// The admin-distance merge for one `(device, prefix)` key under the
    /// current failure state: statics first (in config order, dead
    /// next-hops pruned), then the group's BGP candidate. When one
    /// device has the same prefix from several sources the lowest
    /// distance wins, as on real routers (connected 0, static 1, BGP
    /// 20); the first candidate wins ties.
    fn fold_key(&self, key: (u32, Prefix)) -> Option<Rule> {
        let (device, prefix) = key;
        if self.device_down[device as usize] {
            return None;
        }
        let mut best: Option<(u8, RouteClass, Action)> = None;
        let mut consider = |dist: u8, class: RouteClass, action: Action| match &best {
            Some((d, _, _)) if *d <= dist => {}
            _ => best = Some((dist, class, action)),
        };
        if let Some(sis) = self.static_keys.get(&key) {
            for s in sis.iter().map(|&si| &self.statics[si]) {
                if !self.static_applies(s) {
                    continue;
                }
                let dist = if s.class == RouteClass::Connected {
                    0
                } else {
                    1
                };
                let action = match &s.target {
                    StaticTarget::Null => Action::Drop,
                    StaticTarget::Ifaces(outs) => Action::Forward(
                        outs.iter()
                            .copied()
                            .filter(|&i| self.iface_live(i))
                            .collect(),
                    ),
                };
                consider(dist, s.class, action);
            }
        }
        if let Some(&gi) = self.group_of.get(&prefix) {
            let g = &self.groups[gi];
            let du = g.dist[device as usize];
            if du == 0 {
                // Originator: deliver locally if a delivery iface was
                // given; otherwise the prefix is advertised but the
                // originator holds no usable route (blackhole).
                let outs: Vec<IfaceId> = g
                    .origins
                    .iter()
                    .map(|&oi| &self.originations[oi])
                    .filter(|o| o.device.0 == device)
                    .filter_map(|o| o.deliver)
                    .collect();
                if !outs.is_empty() {
                    consider(20, g.class, Action::Forward(outs));
                }
            } else if du != u32::MAX {
                // ECMP next-hops: every live link to a neighbor one step
                // closer. Finite distance already implies the neighbor
                // accepted (or legitimately originated) the route, so no
                // acceptance re-check — re-checking would wrongly exclude
                // seeded originators, as acceptance is about *installing*
                // propagated routes, not about being a next-hop.
                let mut outs = Vec::new();
                for a in &self.adj[device as usize] {
                    if self.link_live(a.link) && g.dist[a.peer as usize] == du - 1 {
                        outs.push(a.iface);
                    }
                }
                debug_assert!(
                    !outs.is_empty(),
                    "BFS invariant: device d{device} at distance {du} from {prefix:?} \
                     must have a live neighbor one step closer"
                );
                consider(20, g.class, Action::Forward(outs));
            }
        }
        best.map(|(_, class, action)| Rule {
            matches: MatchFields::dst_prefix(prefix),
            action,
            class,
        })
    }

    // ----- provenance ------------------------------------------------------

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

    /// Per-device provenance of one prefix group: for every device the
    /// group reaches, the constructs on its winning/ECMP announcement
    /// paths, sorted and deduplicated. Computed in increasing-distance
    /// order so each device unions `{session to parent} ∪
    /// provenance(parent)` over its ECMP parents — the same edges
    /// `fold_key` turns into next-hops. Only [`Self::config_db`], the
    /// oracle, builds these sets; queries run the recurrence backwards
    /// ([`Self::mark_constructs`]) or forwards ([`Self::attributed_keys`]).
    fn group_provenance(&self, gi: usize) -> Vec<Vec<Construct>> {
        let g = &self.groups[gi];
        let n = self.topo.device_count();
        let mut prov: Vec<Vec<Construct>> = vec![Vec::new(); n];
        let mut order: Vec<usize> = (0..n).filter(|&d| g.dist[d] != u32::MAX).collect();
        order.sort_by_key(|&d| g.dist[d]);
        for d in order {
            let du = g.dist[d];
            if du == 0 {
                prov[d].push(Construct::Origination {
                    device: DeviceId(d as u32),
                    prefix: g.prefix,
                });
                continue;
            }
            let mut set = Vec::new();
            for a in &self.adj[d] {
                if self.link_live(a.link) && g.dist[a.peer as usize] == du - 1 {
                    set.push(Construct::session(DeviceId(d as u32), DeviceId(a.peer)));
                    set.extend_from_slice(&prov[a.peer as usize]);
                }
            }
            set.sort_unstable();
            set.dedup();
            prov[d] = set;
        }
        prov
    }

    /// The constructs contributing to one installed `(device, prefix)`
    /// key, given memoised group provenance. Replays `fold_key`'s winner
    /// determination: a valid static candidate always outranks BGP
    /// (admin distance 0/1 vs 20), so the winner's source is decidable
    /// without re-folding. A `(group, device)` entry belongs to this one
    /// key, so it is moved out of the memo, not copied.
    fn key_provenance(
        &self,
        key: (u32, Prefix),
        memo: &mut BTreeMap<usize, Vec<Vec<Construct>>>,
    ) -> BTreeSet<Construct> {
        let (device, prefix) = key;
        if let Some(sis) = self.static_keys.get(&key) {
            if sis.iter().any(|&si| self.static_applies(&self.statics[si])) {
                return BTreeSet::from([Construct::Static {
                    device: DeviceId(device),
                    prefix,
                }]);
            }
        }
        if let Some(&gi) = self.group_of.get(&prefix) {
            let prov = memo.entry(gi).or_insert_with(|| self.group_provenance(gi));
            return std::mem::take(&mut prov[device as usize])
                .into_iter()
                .collect();
        }
        BTreeSet::new()
    }

    /// The constructs contributing to the FIB entry currently installed
    /// for `prefix` on `device`, or `None` if the engine manages no such
    /// entry. The attribution is [`Self::mark_constructs`] seeded with
    /// this one key, derived on demand from the resident converged state,
    /// so it is always consistent with the last applied delta.
    ///
    /// # Examples
    ///
    /// ```
    /// use netmodel::provenance::Construct;
    /// use netmodel::rule::RouteClass;
    /// use netmodel::topology::{IfaceKind, Role, Topology};
    /// use routing::{Origination, RibBuilder, Scope};
    ///
    /// let mut topo = Topology::new();
    /// let tor = topo.add_device("tor", Role::Tor);
    /// let spine = topo.add_device("spine", Role::Spine);
    /// let hosts = topo.add_iface(tor, "hosts", IfaceKind::Host);
    /// topo.add_link(tor, spine);
    /// let mut rb = RibBuilder::new(topo);
    /// let prefix = "10.0.1.0/24".parse().unwrap();
    /// rb.originate(Origination::new(
    ///     tor,
    ///     prefix,
    ///     RouteClass::HostSubnet,
    ///     Some(hosts),
    ///     Scope::All,
    /// ));
    /// let (engine, _net) = rb.into_engine().unwrap();
    ///
    /// // The spine's route crossed the tor–spine session and exists
    /// // because the tor originates the prefix.
    /// let via = engine.rule_provenance(spine, prefix).unwrap();
    /// assert!(via.contains(&Construct::session(tor, spine)));
    /// assert!(via.contains(&Construct::Origination { device: tor, prefix }));
    /// ```
    pub fn rule_provenance(&self, device: DeviceId, prefix: Prefix) -> Option<BTreeSet<Construct>> {
        if !self.installed.contains_key(&(device.0, prefix)) {
            return None;
        }
        let marked = self.mark_constructs(vec![((device, prefix), Marks::TESTABLE)]);
        Some(
            marked
                .into_iter()
                .filter(|(_, marks)| !marks.is_empty())
                .map(|(c, _)| c)
                .collect(),
        )
    }

    /// The first of one key's statics `sis` that currently applies — the
    /// one whose construct the key is attributed to.
    fn applicable_static(&self, sis: &[usize]) -> Option<usize> {
        sis.iter()
            .copied()
            .find(|&si| self.static_applies(&self.statics[si]))
    }

    /// The live construct universe, each construct with the OR of the
    /// marks of every installed key whose provenance contains it, in
    /// construct order.
    ///
    /// This is `Self::group_provenance`'s recurrence run backwards, and
    /// it builds no per-key set. Each marked key that is installed sends
    /// its marks to one of two places. A key with an applicable static
    /// sends them to its `Static` construct. Any other key sends them to
    /// its device in its prefix group. Each marked group is then swept in
    /// decreasing distance. A device at distance 0 hands its marks to
    /// its origination. Any other device ORs them into every live edge to
    /// a parent one step closer (that edge's session) and into the
    /// parent. Keys the engine has not installed are ignored, and `keys`
    /// may come in any order and repeat a key. The cost is one pass over
    /// the keys, plus one sweep of each marked group, plus one pass over
    /// the universe. The sort that puts the keys in order first is
    /// linear when they arrive sorted.
    ///
    /// # Examples
    ///
    /// ```
    /// use netmodel::provenance::{Construct, Marks};
    /// use netmodel::rule::RouteClass;
    /// use netmodel::topology::{IfaceKind, Role, Topology};
    /// use routing::{Origination, RibBuilder, Scope};
    ///
    /// let mut topo = Topology::new();
    /// let tor = topo.add_device("tor", Role::Tor);
    /// let spine = topo.add_device("spine", Role::Spine);
    /// let hosts = topo.add_iface(tor, "hosts", IfaceKind::Host);
    /// topo.add_link(tor, spine);
    /// let mut rb = RibBuilder::new(topo);
    /// let prefix = "10.0.1.0/24".parse().unwrap();
    /// rb.originate(Origination::new(
    ///     tor,
    ///     prefix,
    ///     RouteClass::HostSubnet,
    ///     Some(hosts),
    ///     Scope::All,
    /// ));
    /// let (engine, _net) = rb.into_engine().unwrap();
    ///
    /// // The tor's own entry was tested; the spine's was exercised too.
    /// let marked = engine.mark_constructs(vec![
    ///     ((tor, prefix), Marks::TESTABLE),
    ///     ((spine, prefix), Marks::TESTABLE | Marks::EXERCISED),
    /// ]);
    /// let both = Marks::TESTABLE | Marks::EXERCISED;
    /// assert_eq!(
    ///     marked,
    ///     vec![
    ///         (Construct::Origination { device: tor, prefix }, both),
    ///         (Construct::session(tor, spine), both),
    ///     ]
    /// );
    /// ```
    pub fn mark_constructs(
        &self,
        mut keys: Vec<((DeviceId, Prefix), Marks)>,
    ) -> Vec<(Construct, Marks)> {
        keys.sort_by_key(|&(key, _)| key);
        let n = self.topo.device_count();
        let mut static_marks = vec![Marks::NONE; self.statics.len()];
        let mut group_marks: Vec<Vec<Marks>> = vec![Vec::new(); self.groups.len()];
        // `installed` and `static_keys` are in key order too, and the
        // groups in prefix order, so one device's keys meet its groups in
        // order: merge all three.
        let mut installed = self.installed.keys().peekable();
        let mut statics = self.static_keys.iter().peekable();
        let (mut at_device, mut gi) = (u32::MAX, 0);
        for ((device, prefix), marks) in keys {
            let key = (device.0, prefix);
            while installed.next_if(|&&k| k < key).is_some() {}
            if installed.peek() != Some(&&key) {
                continue;
            }
            while statics.next_if(|&(&k, _)| k < key).is_some() {}
            let configured = statics.peek().filter(|&(&k, _)| k == key);
            if let Some(si) = configured.and_then(|(_, sis)| self.applicable_static(sis)) {
                static_marks[si] |= marks;
                continue;
            }
            if at_device != device.0 {
                (at_device, gi) = (device.0, 0);
            }
            while self.groups.get(gi).is_some_and(|g| g.prefix < prefix) {
                gi += 1;
            }
            if self.groups.get(gi).is_some_and(|g| g.prefix == prefix) {
                let at = &mut group_marks[gi];
                if at.is_empty() {
                    at.resize(n, Marks::NONE);
                }
                at[device.0 as usize] |= marks;
            }
        }

        let live: Vec<bool> = (0..self.links.len()).map(|l| self.link_live(l)).collect();
        let mut link_marks = vec![Marks::NONE; self.links.len()];
        let mut origin_marks = vec![Marks::NONE; self.originations.len()];
        for (g, marks) in self.groups.iter().zip(&mut group_marks) {
            if marks.is_empty() {
                continue;
            }
            let mut order: Vec<usize> = (0..n).filter(|&d| g.dist[d] != u32::MAX).collect();
            order.sort_unstable_by_key(|&d| Reverse(g.dist[d]));
            for d in order {
                let m = marks[d];
                if m.is_empty() {
                    continue;
                }
                let du = g.dist[d];
                if du == 0 {
                    let oi = g.origins.iter().copied();
                    let oi = oi.filter(|&oi| self.originations[oi].device.0 == d as u32);
                    origin_marks[oi.min().expect("a seed originates its group")] |= m;
                    continue;
                }
                for a in &self.adj[d] {
                    if live[a.link] && g.dist[a.peer as usize] == du - 1 {
                        link_marks[a.link] |= m;
                        marks[a.peer as usize] |= m;
                    }
                }
            }
        }

        let mut out = Vec::with_capacity(self.links.len() + self.originations.len());
        for (l, link) in self.links.iter().enumerate() {
            if live[l] {
                out.push((Construct::session(link.a, link.b), link_marks[l]));
            }
        }
        for (o, &marks) in self.originations.iter().zip(&origin_marks) {
            if !self.device_down[o.device.0 as usize] {
                let (device, prefix) = (o.device, o.prefix);
                out.push((Construct::Origination { device, prefix }, marks));
            }
        }
        for (s, &marks) in self.statics.iter().zip(&static_marks) {
            if self.static_applies(s) {
                let (device, prefix) = (s.device, s.prefix);
                out.push((Construct::Static { device, prefix }, marks));
            }
        }
        out.sort_unstable_by_key(|&(c, _)| c);
        out.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 |= later.1;
            }
            same
        });
        out
    }

    /// The installed keys whose provenance contains `construct`, in key
    /// order, or `None` if the construct is not in the live universe.
    ///
    /// This walks forward, the other way from
    /// [`Self::mark_constructs`]. A static names its own key. An
    /// origination roots a walk at its device in its prefix group. A
    /// session roots one walk per group whose shortest-path DAG crosses
    /// it, at the far endpoint. Each walk follows live edges to children
    /// one step further away. It collects every reached key that is
    /// installed and not taken by an applicable static. A static key does
    /// not stop the walk, because its descendants still route through
    /// the device.
    ///
    /// # Examples
    ///
    /// ```
    /// use netmodel::provenance::Construct;
    /// use netmodel::rule::RouteClass;
    /// use netmodel::topology::{IfaceKind, Role, Topology};
    /// use routing::{Origination, RibBuilder, Scope};
    ///
    /// let mut topo = Topology::new();
    /// let tor = topo.add_device("tor", Role::Tor);
    /// let spine = topo.add_device("spine", Role::Spine);
    /// let hosts = topo.add_iface(tor, "hosts", IfaceKind::Host);
    /// topo.add_link(tor, spine);
    /// let mut rb = RibBuilder::new(topo);
    /// let prefix = "10.0.1.0/24".parse().unwrap();
    /// rb.originate(Origination::new(
    ///     tor,
    ///     prefix,
    ///     RouteClass::HostSubnet,
    ///     Some(hosts),
    ///     Scope::All,
    /// ));
    /// let (engine, _net) = rb.into_engine().unwrap();
    ///
    /// let orig = Construct::Origination { device: tor, prefix };
    /// let session = Construct::session(tor, spine);
    /// assert_eq!(engine.attributed_keys(&orig), Some(vec![(tor, prefix), (spine, prefix)]));
    /// assert_eq!(engine.attributed_keys(&session), Some(vec![(spine, prefix)]));
    /// // A construct the configuration does not hold.
    /// let ghost = Construct::Origination { device: spine, prefix };
    /// assert_eq!(engine.attributed_keys(&ghost), None);
    /// ```
    pub fn attributed_keys(&self, construct: &Construct) -> Option<Vec<(DeviceId, Prefix)>> {
        let mut keys = Vec::new();
        match *construct {
            Construct::Static { device, prefix } => {
                let sis = self.static_keys.get(&(device.0, prefix))?;
                self.applicable_static(sis)?;
                keys.push((device.0, prefix));
            }
            Construct::Origination { device, prefix } => {
                let live = self
                    .originations
                    .iter()
                    .any(|o| o.device == device && o.prefix == prefix);
                if !live || self.is_device_down(device) {
                    return None;
                }
                let gi = *self
                    .group_of
                    .get(&prefix)
                    .expect("an originated prefix has a group");
                if self.groups[gi].dist[device.0 as usize] == 0 {
                    self.walk_forward(gi, device.0, &mut keys);
                }
            }
            Construct::Session { a, b } => {
                if !self
                    .links_between(a, b)
                    .into_iter()
                    .any(|l| self.link_live(l))
                {
                    return None;
                }
                for (gi, g) in self.groups.iter().enumerate() {
                    let (da, db) = (g.dist[a.0 as usize], g.dist[b.0 as usize]);
                    if da != u32::MAX && db == da + 1 {
                        self.walk_forward(gi, b.0, &mut keys);
                    } else if db != u32::MAX && da == db + 1 {
                        self.walk_forward(gi, a.0, &mut keys);
                    }
                }
            }
        }
        keys.sort_unstable();
        Some(keys.into_iter().map(|(d, p)| (DeviceId(d), p)).collect())
    }

    /// Push every installed, BGP-attributed key of group `gi` at `from`
    /// and below it in the shortest-path DAG.
    fn walk_forward(&self, gi: usize, from: u32, keys: &mut Vec<(u32, Prefix)>) {
        let g = &self.groups[gi];
        let mut seen = vec![false; self.topo.device_count()];
        seen[from as usize] = true;
        let mut stack = vec![from];
        while let Some(v) = stack.pop() {
            let key = (v, g.prefix);
            let by_static = self
                .static_keys
                .get(&key)
                .is_some_and(|sis| self.applicable_static(sis).is_some());
            if !by_static && self.installed.contains_key(&key) {
                keys.push(key);
            }
            let dv = g.dist[v as usize];
            for a in &self.adj[v as usize] {
                let p = a.peer as usize;
                if self.link_live(a.link) && g.dist[p] == dv + 1 && !seen[p] {
                    seen[p] = true;
                    stack.push(a.peer);
                }
            }
        }
    }

    /// The full attribution database of the present converged state: the
    /// live construct universe (sessions over live links, originations
    /// and applicable statics of up devices) plus the contributing
    /// constructs of every installed FIB entry.
    ///
    /// The database is a pure function of the resident distance vectors,
    /// the configuration, and the failure state. Because incremental
    /// re-convergence keeps those bit-identical to a from-scratch rebuild
    /// of the degraded topology, the database an engine reports after any
    /// delta sequence equals the one [`RoutingEngine::full_rebuild`]'s
    /// description would produce — the differential scenario tests gate
    /// on exactly that.
    ///
    /// Building it costs a per-key set for every installed key, so the
    /// coverage queries do not: they read [`Self::mark_constructs`] and
    /// [`Self::attributed_keys`], and this database is the oracle those
    /// two are tested against.
    ///
    /// # Examples
    ///
    /// ```
    /// use netmodel::rule::RouteClass;
    /// use netmodel::topology::{IfaceKind, Role, Topology};
    /// use routing::{Origination, RibBuilder, Scope};
    ///
    /// let mut topo = Topology::new();
    /// let tor = topo.add_device("tor", Role::Tor);
    /// let spine = topo.add_device("spine", Role::Spine);
    /// let hosts = topo.add_iface(tor, "hosts", IfaceKind::Host);
    /// topo.add_link(tor, spine);
    /// let mut rb = RibBuilder::new(topo);
    /// rb.originate(Origination::new(
    ///     tor,
    ///     "10.0.1.0/24".parse().unwrap(),
    ///     RouteClass::HostSubnet,
    ///     Some(hosts),
    ///     Scope::All,
    /// ));
    /// let (engine, _net) = rb.into_engine().unwrap();
    ///
    /// let db = engine.config_db();
    /// // One session, one origination; both FIB entries attributed.
    /// assert_eq!(db.len(), 2);
    /// assert_eq!(db.map.len(), 2);
    /// ```
    pub fn config_db(&self) -> ConfigDb {
        let mut db = ConfigDb::default();
        for (l, link) in self.links.iter().enumerate() {
            if self.link_live(l) {
                db.constructs.insert(Construct::session(link.a, link.b));
            }
        }
        for o in &self.originations {
            if !self.device_down[o.device.0 as usize] {
                db.constructs.insert(Construct::Origination {
                    device: o.device,
                    prefix: o.prefix,
                });
            }
        }
        for s in &self.statics {
            if self.static_applies(s) {
                db.constructs.insert(Construct::Static {
                    device: s.device,
                    prefix: s.prefix,
                });
            }
        }
        let mut memo = BTreeMap::new();
        for &key in self.installed.keys() {
            let set = self.key_provenance(key, &mut memo);
            db.map.insert((DeviceId(key.0), key.1), set);
        }
        db
    }
}

/// Stage 3 of construction: the one loop that turns folded rules, in
/// `(device, prefix)` order, into forwarding state.
fn compile_fib(topo: Topology, rules: impl Iterator<Item = ((u32, Prefix), Rule)>) -> Network {
    let mut net = Network::new(topo);
    for ((device, _), rule) in rules {
        net.add_rule(DeviceId(device), rule);
    }
    net.finalize();
    net
}
