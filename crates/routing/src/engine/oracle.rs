//! The per-key provenance fold: the attribution database the
//! config-coverage queries are tested against.

use std::collections::{BTreeMap, BTreeSet};

use netmodel::provenance::{ConfigDb, Construct};
use netmodel::topology::DeviceId;
use netmodel::Prefix;

use super::RoutingEngine;

impl RoutingEngine {
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
