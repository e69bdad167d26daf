//! Re-convergence: validate a topology delta, repair each prefix group's
//! distances and edit the live network by the re-folded keys.

use std::collections::{BTreeSet, VecDeque};

use netmodel::topology::DeviceId;
use netmodel::{Network, Prefix, RuleId};

use super::{FibChange, FibDiff, RoutingEngine, TopologyDelta};
use crate::rib::RibError;

impl RoutingEngine {
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
}
