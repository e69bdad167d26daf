//! The config-coverage queries: marks carried backwards from installed
//! keys to constructs, and the keys a construct reaches forwards.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use netmodel::provenance::{Construct, Marks};
use netmodel::topology::DeviceId;
use netmodel::Prefix;

use super::RoutingEngine;

impl RoutingEngine {
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
}
