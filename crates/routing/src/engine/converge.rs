//! Construction: converge, fold and compile, and the one relaxation
//! that lowers every distance field.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use netmodel::rule::{Action, RouteClass, Rule};
use netmodel::topology::{DeviceId, IfaceId, Topology};
use netmodel::{MatchFields, Network, Prefix};

use super::{Adj, Group, Link, RoutingEngine};
use crate::rib::{RibBuilder, StaticTarget};

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
            // simulator (`simulate` in `tests/bgp`); seeding it anyway
            // would leave its neighbors a finite distance but no usable
            // next-hop.
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

    /// The one relaxation that lowers a group's distances: a
    /// level-by-level sweep over live links into up devices that accept
    /// the group's route. Each `(distance, device)` seed is taken in when
    /// the sweep reaches its distance; the group's own originators are
    /// always seeded at 0, exempt from acceptance (as in the eBGP
    /// simulator in `tests/bgp`). Every edge weighs 1, so a device is
    /// lowered at most once, to its exact distance; each lowered device is
    /// logged to `moved` with the distance it had.
    pub(super) fn relax(
        &mut self,
        gi: usize,
        mut seeds: Vec<(u32, u32)>,
        moved: &mut Vec<(u32, u32)>,
    ) {
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
    pub(super) fn fold_key(&self, key: (u32, Prefix)) -> Option<Rule> {
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
