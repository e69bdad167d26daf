//! Disjoint match-set computation — step 1 of the paper's coverage
//! computation (§5.2).
//!
//! The framework's model assumes each device's rules have *disjoint* match
//! sets, so the rule applying to a packet is unambiguous (§4.1). Real
//! tables are ordered with first-match-wins semantics; this module
//! preprocesses them: walking each device's ordered rules, the effective
//! match set of rule `i` is its raw match minus everything matched
//! earlier. [`MatchSets::compute`] builds the same sets for a
//! destination-only table by a prefix trie ([`crate::trie`]); this chain
//! serves every other table, the resident per-device path, and is the
//! trie's oracle.
//!
//! The result is **semantics-based** (§3.2): it depends only on rule
//! meaning, never on how a device implements lookup. A test exercising the
//! default route covers exactly the default route's residual match set,
//! whether the device scans linearly or walks a trie.

use std::collections::HashMap;
use std::sync::OnceLock;

use netbdd::{Bdd, Ref};

use crate::network::{Network, RuleId};
use crate::rule::{Action, MatchFields};
use crate::topology::{DeviceId, IfaceId};
use crate::trie::PrefixTries;

/// Memo for compiled `fromRule` match sets, keyed by the *header* part of
/// the match fields (`in_iface` is positional, not header bits, and is
/// excluded — [`MatchFields::to_bdd`] ignores it too).
///
/// FIBs are massively repetitive: every router carries the same default
/// route, the same loopback /32 shapes, the same link /31s. Within one
/// [`MatchSets::compute`] the cache collapses those to a single BDD
/// construction; held across analyses of the same or related networks
/// (via [`MatchSets::compute_cached`]) it also spares re-deriving them
/// per run. Entries are `Ref`s into one manager, so a cache must only
/// ever be used with the manager it was filled from.
#[derive(Debug)]
pub struct MatchSetCache {
    map: HashMap<MatchFields, Ref>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Default bound on distinct cached header matches. Production FIBs reuse
/// a few thousand shapes; 2^16 entries is far above any workload here
/// while bounding worst-case memory on adversarial rule streams.
pub const DEFAULT_MATCH_CACHE_CAPACITY: usize = 1 << 16;

impl Default for MatchSetCache {
    fn default() -> MatchSetCache {
        MatchSetCache::with_capacity(DEFAULT_MATCH_CACHE_CAPACITY)
    }
}

impl MatchSetCache {
    /// A cache with the default capacity.
    pub fn new() -> MatchSetCache {
        MatchSetCache::default()
    }

    /// A cache bounded to at most `capacity` distinct header matches
    /// (minimum 1). When an insert would exceed the bound the whole map
    /// is flushed — full-flush eviction, the same policy the BDD computed
    /// caches use: entries are cheap to rebuild relative to the
    /// bookkeeping an LRU would add to every hit, and a flush preserves
    /// the hot-set within one FIB walk (identical shapes recur close
    /// together). Hit/miss counters are *not* reset by eviction; they
    /// stay monotone over the cache's lifetime so rate math stays valid
    /// across flushes.
    pub fn with_capacity(capacity: usize) -> MatchSetCache {
        MatchSetCache {
            map: HashMap::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Compile `m` to a BDD, reusing a previous compilation of the same
    /// header match if there is one.
    pub fn to_bdd(&mut self, bdd: &mut Bdd, m: &MatchFields) -> Ref {
        let key = MatchFields {
            in_iface: None,
            ..m.clone()
        };
        if let Some(&r) = self.map.get(&key) {
            self.hits += 1;
            return r;
        }
        self.misses += 1;
        let r = key.to_bdd(bdd);
        if self.map.len() >= self.capacity {
            self.map.clear();
            self.evictions += 1;
        }
        self.map.insert(key, r);
        r
    }

    /// Drop every cached compilation, keeping the counters. Call this
    /// when retiring the paired `Bdd` manager — entries are `Ref`s into
    /// it and must not outlive it.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Distinct header matches compiled so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(hits, misses)` since construction (monotone across evictions).
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Full-flush evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// Rules of one device that forward alike: same ingress scope, same
/// [`Action::Forward`] out-interface list. A packet set splits across a
/// device's classes exactly as it splits across its rules, only in
/// fewer pieces — what a symbolic walk needs when it asks where packets
/// go, not which rule sent them. `Drop` and `Rewrite` rules are always
/// alone in their class, so a drop is still attributed to its rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ActionClass {
    /// The ingress constraint every member carries.
    pub scope: Option<IfaceId>,
    /// The first member in table order; every member has its action.
    pub rule: RuleId,
    /// Union of the members' disjoint match sets.
    pub set: Ref,
}

/// The disjoint match sets of every rule in a network. `M[r]` in the
/// paper's notation.
#[derive(Clone, Debug)]
pub struct MatchSets {
    /// `sets[device][rule_index]` — the effective (residual) match set.
    sets: Vec<Vec<Ref>>,
    /// `classes[device]` — the device's action classes, derived from
    /// `sets` on first use and dropped whenever `sets` changes.
    classes: Vec<OnceLock<Vec<ActionClass>>>,
}

impl MatchSets {
    /// Compute disjoint match sets for every device in `net`.
    ///
    /// A device whose rules all match on the destination alone gets its
    /// sets from a prefix trie ([`PrefixTries`]); every other device runs the
    /// first-match chain of [`MatchSets::compute_cached`]. The two
    /// constructions give the same `Ref`s. With `netobs` on, the split
    /// is published as `match_sets.trie_devices` and
    /// `match_sets.chain_devices`.
    ///
    /// Rules constrained to an ingress interface (`in_iface`) shadow, and
    /// are shadowed by, only rules with the *same* ingress constraint;
    /// tables mixing iface-specific and unconstrained rules are rejected
    /// because their first-match semantics cannot be expressed in header
    /// space alone.
    pub fn compute(net: &Network, bdd: &mut Bdd) -> MatchSets {
        let mut tries = PrefixTries::new();
        let mut cache = MatchSetCache::new();
        let mut trie_devices = 0usize;
        let ms = Self::per_device(net, bdd, |bdd, device| {
            match tries.match_sets(net, bdd, device) {
                Some(sets) => {
                    trie_devices += 1;
                    sets
                }
                None => device_match_sets(net, bdd, &mut cache, device),
            }
        });
        if netobs::enabled() {
            let chain_devices = net.topology().device_count() - trie_devices;
            netobs::gauge("match_sets.trie_devices", trie_devices as f64);
            netobs::gauge("match_sets.chain_devices", chain_devices as f64);
        }
        ms
    }

    /// Every device's match sets by the first-match chain, through a
    /// caller-held [`MatchSetCache`], so repeated analyses over the same
    /// FIB (or FIBs sharing route shapes) don't rebuild identical prefix
    /// BDDs. The cache must always be paired with the same `bdd`
    /// manager. This is the path a long-lived engine boots with, the one
    /// [`MatchSets::recompute_device`] refreshes a device by, and the
    /// oracle for [`MatchSets::compute`]'s tries.
    pub fn compute_cached(net: &Network, bdd: &mut Bdd, cache: &mut MatchSetCache) -> MatchSets {
        let ms = Self::per_device(net, bdd, |bdd, device| {
            device_match_sets(net, bdd, cache, device)
        });
        if netobs::enabled() {
            let (hits, misses) = cache.counters();
            netobs::gauge("match_cache.entries", cache.len() as f64);
            netobs::gauge("match_cache.hits", hits as f64);
            netobs::gauge("match_cache.misses", misses as f64);
            netobs::gauge("match_cache.evictions", cache.evictions() as f64);
        }
        ms
    }

    /// The match sets of every device in `net`, each device's from
    /// `device_sets`.
    fn per_device(
        net: &Network,
        bdd: &mut Bdd,
        mut device_sets: impl FnMut(&mut Bdd, DeviceId) -> Vec<Ref>,
    ) -> MatchSets {
        let _span = netobs::span!("match_sets");
        let topo = net.topology();
        MatchSets {
            sets: topo.devices().map(|(d, _)| device_sets(bdd, d)).collect(),
            classes: vec![OnceLock::new(); topo.device_count()],
        }
    }

    /// Recompute one device's match sets in place after its table
    /// changed (a rule inserted or withdrawn), leaving every other
    /// device untouched. The incremental complement of
    /// [`MatchSets::compute_cached`]: identical per-device math through
    /// the same [`MatchSetCache`], so the result is bit-identical to a
    /// from-scratch recompute in the same manager.
    pub fn recompute_device(
        &mut self,
        net: &Network,
        bdd: &mut Bdd,
        cache: &mut MatchSetCache,
        device: DeviceId,
    ) {
        self.sets[device.0 as usize] = device_match_sets(net, bdd, cache, device);
        self.drop_action_classes(device);
    }

    /// Drop one device's action classes after rules of its table were
    /// replaced in place ([`Network::replace_rule`]): match fields and
    /// table order are what the match sets are computed from, so those
    /// stay; the classes group rules by action and are rebuilt on next
    /// use.
    pub fn drop_action_classes(&mut self, device: DeviceId) {
        self.classes[device.0 as usize] = OnceLock::new();
    }

    /// The action classes of `device`, in table order of their first
    /// members, built on first use. Shadowed rules (empty match set)
    /// belong to no class. `net` and `bdd` must be the network and
    /// manager the match sets were computed from.
    pub fn action_classes(&self, net: &Network, bdd: &mut Bdd, device: DeviceId) -> &[ActionClass] {
        self.classes[device.0 as usize].get_or_init(|| {
            // (scope, first member, members' sets), in order of first member.
            let mut classes: Vec<(Option<IfaceId>, RuleId, Vec<Ref>)> = Vec::new();
            let mut by_action: HashMap<(Option<IfaceId>, &[IfaceId]), usize> = HashMap::new();
            for id in net.device_rule_ids(device) {
                let set = self.get(id);
                if set.is_false() {
                    continue;
                }
                let rule = net.rule(id);
                let scope = rule.matches.in_iface;
                let slot = match &rule.action {
                    Action::Forward(outs) => *by_action
                        .entry((scope, outs.as_slice()))
                        .or_insert(classes.len()),
                    Action::Drop | Action::Rewrite(..) => classes.len(),
                };
                if slot == classes.len() {
                    classes.push((scope, id, Vec::new()));
                }
                classes[slot].2.push(set);
            }
            classes
                .into_iter()
                .map(|(scope, rule, sets)| ActionClass {
                    scope,
                    rule,
                    set: bdd.or_all(sets),
                })
                .collect()
        })
    }

    /// The disjoint match set of one rule.
    pub fn get(&self, id: RuleId) -> Ref {
        self.sets[id.device.0 as usize][id.index as usize]
    }

    /// Whether a rule is completely shadowed by earlier rules (its
    /// effective match set is empty). Shadowed rules cannot be exercised
    /// by any packet and are excluded from coverage denominators.
    pub fn is_shadowed(&self, id: RuleId) -> bool {
        self.get(id).is_false()
    }

    /// Append every per-rule match-set ref to `roots` (GC root
    /// registration).
    pub fn collect_refs(&self, roots: &mut Vec<Ref>) {
        for dev in &self.sets {
            roots.extend(dev.iter().copied());
        }
    }

    /// Rewrite every held ref through `f` (a GC relocation map). The
    /// action classes are not roots ([`MatchSets::collect_refs`] leaves
    /// them out), so they are dropped here and rebuilt on next use.
    pub fn remap_refs(&mut self, f: impl Fn(Ref) -> Ref) {
        for dev in &mut self.sets {
            for r in dev.iter_mut() {
                *r = f(*r);
            }
        }
        for c in &mut self.classes {
            *c = OnceLock::new();
        }
    }
}

/// One device's first-match chain walk: the shared body of
/// [`MatchSets::compute_cached`] and [`MatchSets::recompute_device`].
fn device_match_sets(
    net: &Network,
    bdd: &mut Bdd,
    cache: &mut MatchSetCache,
    device: DeviceId,
) -> Vec<Ref> {
    let rules = net.device_rules(device);
    let mixed = rules.iter().any(|r| r.matches.in_iface.is_some())
        && rules.iter().any(|r| r.matches.in_iface.is_none());
    assert!(
        !mixed,
        "device {:?}: tables mixing ingress-constrained and unconstrained rules \
         are not supported",
        device
    );
    // Independent first-match chains per ingress scope.
    let mut matched_by_scope: HashMap<Option<IfaceId>, Ref> = HashMap::new();
    let mut dev_sets = Vec::with_capacity(rules.len());
    for rule in rules {
        let scope = rule.matches.in_iface;
        let matched = matched_by_scope.entry(scope).or_insert_with(|| Ref::FALSE);
        let raw = cache.to_bdd(bdd, &rule.matches);
        dev_sets.push(bdd.diff(raw, *matched));
        *matched = bdd.or(*matched, raw);
    }
    dev_sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{ipv4, Prefix};
    use crate::header::Packet;
    use crate::rule::{Action, MatchFields, RouteClass, Rule};
    use crate::topology::{Role, Topology};

    fn one_device_net(rules: Vec<Rule>) -> Network {
        let mut t = Topology::new();
        let d = t.add_device("r", Role::Tor);
        t.add_iface(d, "out", crate::topology::IfaceKind::Host);
        let mut n = Network::new(t);
        for r in rules {
            n.add_rule(d, r);
        }
        n.finalize();
        n
    }

    fn fwd(prefix: &str) -> Rule {
        Rule::forward(prefix.parse().unwrap(), vec![IfaceId(0)], RouteClass::Other)
    }

    /// Whether `device`'s match sets tile its raw matches: per ingress
    /// scope, the union of the rules' `M[r]` is the union of their raw
    /// matches.
    fn tiles_raw_matches(net: &Network, ms: &MatchSets, bdd: &mut Bdd, device: DeviceId) -> bool {
        let mut by_scope: HashMap<Option<IfaceId>, (Ref, Ref)> = HashMap::new();
        for id in net.device_rule_ids(device) {
            let matches = &net.rule(id).matches;
            let raw = matches.to_bdd(bdd);
            let (sets, raws) = by_scope
                .entry(matches.in_iface)
                .or_insert((Ref::FALSE, Ref::FALSE));
            *sets = bdd.or(*sets, ms.get(id));
            *raws = bdd.or(*raws, raw);
        }
        by_scope.values().all(|(sets, raws)| sets == raws)
    }

    #[test]
    fn default_route_excludes_more_specifics() {
        let mut bdd = Bdd::new();
        let net = one_device_net(vec![
            fwd("10.0.0.0/8"),
            Rule::forward(
                Prefix::v4_default(),
                vec![IfaceId(0)],
                RouteClass::StaticDefault,
            ),
        ]);
        let ms = MatchSets::compute(&net, &mut bdd);
        let d = net.topology().device_by_name("r").unwrap();
        let specific = ms.get(RuleId {
            device: d,
            index: 0,
        });
        let default = ms.get(RuleId {
            device: d,
            index: 1,
        });
        assert!(!bdd.intersects(specific, default));
        // A packet in 10/8 belongs to the specific rule, not the default.
        let p = Packet::v4_to(ipv4(10, 9, 9, 9));
        assert!(p.matches(&bdd, specific));
        assert!(!p.matches(&bdd, default));
        // A packet outside 10/8 hits the default.
        let q = Packet::v4_to(ipv4(11, 0, 0, 1));
        assert!(q.matches(&bdd, default));
    }

    #[test]
    fn match_sets_are_pairwise_disjoint_and_tile_the_total() {
        let mut bdd = Bdd::new();
        let net = one_device_net(vec![
            fwd("10.0.0.0/8"),
            fwd("10.1.0.0/16"),
            fwd("10.1.2.0/24"),
            Rule::forward(
                Prefix::v4_default(),
                vec![IfaceId(0)],
                RouteClass::StaticDefault,
            ),
        ]);
        let ms = MatchSets::compute(&net, &mut bdd);
        let d = net.topology().device_by_name("r").unwrap();
        let all: Vec<Ref> = net.device_rule_ids(d).map(|id| ms.get(id)).collect();
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert!(!bdd.intersects(all[i], all[j]), "rules {i} and {j} overlap");
            }
        }
        assert!(tiles_raw_matches(&net, &ms, &mut bdd, d));
        // Prefix::v4_default() is family-tagged, so the union is exactly
        // the v4 plane.
        let union = bdd.or_all(all);
        let v4 = crate::header::family_is(&mut bdd, crate::addr::Family::V4);
        assert!(bdd.equal(union, v4));
    }

    #[test]
    fn fully_shadowed_rule_is_detected() {
        let mut bdd = Bdd::new();
        // /24 inserted twice: the second instance is fully shadowed.
        let net = one_device_net(vec![fwd("10.1.2.0/24"), fwd("10.1.2.0/24")]);
        let ms = MatchSets::compute(&net, &mut bdd);
        let d = net.topology().device_by_name("r").unwrap();
        assert!(!ms.is_shadowed(RuleId {
            device: d,
            index: 0
        }));
        assert!(ms.is_shadowed(RuleId {
            device: d,
            index: 1
        }));
    }

    #[test]
    fn implementation_independence() {
        // The same semantic table expressed in two different orders (LPM
        // sorts them identically) yields identical match sets — the
        // "semantics-based" property of §3.2.
        let mut bdd = Bdd::new();
        let net1 = one_device_net(vec![fwd("10.0.0.0/8"), fwd("10.1.0.0/16")]);
        let net2 = one_device_net(vec![fwd("10.1.0.0/16"), fwd("10.0.0.0/8")]);
        let ms1 = MatchSets::compute(&net1, &mut bdd);
        let ms2 = MatchSets::compute(&net2, &mut bdd);
        let d = net1.topology().device_by_name("r").unwrap();
        // After LPM finalization both tables order /16 before /8.
        for idx in 0..2u32 {
            assert_eq!(
                ms1.get(RuleId {
                    device: d,
                    index: idx
                }),
                ms2.get(RuleId {
                    device: d,
                    index: idx
                })
            );
        }
    }

    #[test]
    fn ingress_scopes_shadow_independently() {
        let mut t = Topology::new();
        let d = t.add_device("r", Role::Tor);
        let i0 = t.add_iface(d, "in0", crate::topology::IfaceKind::Host);
        let i1 = t.add_iface(d, "in1", crate::topology::IfaceKind::Host);
        let mut n = Network::new(t);
        let mk = |iface| Rule {
            matches: MatchFields {
                dst: Some("10.0.0.0/8".parse().unwrap()),
                in_iface: Some(iface),
                ..MatchFields::default()
            },
            action: Action::Drop,
            class: RouteClass::Other,
        };
        n.add_rule(d, mk(i0));
        n.add_rule(d, mk(i1));
        n.finalize();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        // Different scopes: neither shadows the other.
        assert!(!ms.is_shadowed(RuleId {
            device: d,
            index: 0
        }));
        assert!(!ms.is_shadowed(RuleId {
            device: d,
            index: 1
        }));
        assert!(tiles_raw_matches(&n, &ms, &mut bdd, d));
    }

    #[test]
    fn cache_collapses_repeated_matches_within_one_fib() {
        let mut bdd = Bdd::new();
        // The same /24 appears three times (twice shadowed): only one
        // compilation should happen for it.
        let net = one_device_net(vec![
            fwd("10.1.2.0/24"),
            fwd("10.1.2.0/24"),
            fwd("10.1.2.0/24"),
            fwd("10.0.0.0/8"),
        ]);
        let mut cache = MatchSetCache::new();
        let _ = MatchSets::compute_cached(&net, &mut bdd, &mut cache);
        assert_eq!(cache.len(), 2); // two distinct header matches
        assert_eq!(cache.counters(), (2, 2));
    }

    #[test]
    fn persistent_cache_makes_recomputation_free_and_identical() {
        let mut bdd = Bdd::new();
        let net = one_device_net(vec![
            fwd("10.0.0.0/8"),
            fwd("10.1.0.0/16"),
            Rule::forward(
                Prefix::v4_default(),
                vec![IfaceId(0)],
                RouteClass::StaticDefault,
            ),
        ]);
        let mut cache = MatchSetCache::new();
        let ms1 = MatchSets::compute_cached(&net, &mut bdd, &mut cache);
        let (_, misses_after_first) = cache.counters();
        let ms2 = MatchSets::compute_cached(&net, &mut bdd, &mut cache);
        let (_, misses_after_second) = cache.counters();
        // Second analysis compiled nothing new...
        assert_eq!(misses_after_first, misses_after_second);
        // ...and produced bit-identical match sets.
        let d = net.topology().device_by_name("r").unwrap();
        for id in net.device_rule_ids(d) {
            assert_eq!(ms1.get(id), ms2.get(id));
        }
        assert!(tiles_raw_matches(&net, &ms2, &mut bdd, d));
    }

    #[test]
    fn cache_key_ignores_ingress_interface() {
        let mut bdd = Bdd::new();
        let mut cache = MatchSetCache::new();
        let base = MatchFields::dst_prefix("10.0.0.0/8".parse().unwrap());
        let scoped = MatchFields {
            in_iface: Some(IfaceId(3)),
            ..base.clone()
        };
        let a = cache.to_bdd(&mut bdd, &base);
        let b = cache.to_bdd(&mut bdd, &scoped);
        assert_eq!(a, b); // same header bits, one cache entry
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.counters(), (1, 1));
    }

    #[test]
    fn bounded_cache_flushes_at_capacity_and_counters_stay_monotone() {
        let mut bdd = Bdd::new();
        let mut cache = MatchSetCache::with_capacity(4);
        assert_eq!(cache.capacity(), 4);
        // 10 distinct /32s: every insert past the 4th triggers a flush
        // cycle, but identical lookups afterwards still answer correctly.
        let prefixes: Vec<Prefix> = (0..10u8)
            .map(|i| format!("10.0.0.{i}/32").parse().unwrap())
            .collect();
        let mut first: Vec<Ref> = Vec::new();
        for p in &prefixes {
            first.push(cache.to_bdd(&mut bdd, &MatchFields::dst_prefix(*p)));
        }
        assert!(cache.len() <= 4, "bound respected: {} entries", cache.len());
        assert!(cache.evictions() >= 1, "flush must have happened");
        let (h1, m1) = cache.counters();
        assert_eq!(m1, 10); // all distinct: 10 misses, 0 hits
        assert_eq!(h1, 0);
        // Re-resolving yields bit-identical Refs (to_bdd is deterministic
        // in one manager) and never decreases the counters.
        for (p, &r) in prefixes.iter().zip(&first) {
            assert_eq!(cache.to_bdd(&mut bdd, &MatchFields::dst_prefix(*p)), r);
        }
        let (h2, m2) = cache.counters();
        assert!(h2 + m2 == 20 && h2 >= h1 && m2 >= m1, "monotone: {h2}/{m2}");
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let mut bdd = Bdd::new();
        let mut cache = MatchSetCache::new();
        let m = MatchFields::dst_prefix("10.0.0.0/8".parse().unwrap());
        let _ = cache.to_bdd(&mut bdd, &m);
        let _ = cache.to_bdd(&mut bdd, &m);
        assert_eq!(cache.counters(), (1, 1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.counters(), (1, 1));
        let _ = cache.to_bdd(&mut bdd, &m);
        assert_eq!(cache.counters(), (1, 2));
    }

    #[test]
    fn recompute_device_matches_batch_after_delta() {
        let mut bdd = Bdd::new();
        let mut net = one_device_net(vec![
            fwd("10.0.0.0/8"),
            Rule::forward(
                Prefix::v4_default(),
                vec![IfaceId(0)],
                RouteClass::StaticDefault,
            ),
        ]);
        let mut cache = MatchSetCache::new();
        let mut ms = MatchSets::compute_cached(&net, &mut bdd, &mut cache);
        let d = net.topology().device_by_name("r").unwrap();
        // Insert a /16, recompute only the device, compare to batch.
        net.insert_rule(d, fwd("10.1.0.0/16"));
        ms.recompute_device(&net, &mut bdd, &mut cache, d);
        let batch = MatchSets::compute_cached(&net, &mut bdd, &mut cache);
        for id in net.device_rule_ids(d) {
            assert_eq!(ms.get(id), batch.get(id), "rule {id:?} diverged");
        }
        assert!(tiles_raw_matches(&net, &ms, &mut bdd, d));
        // Withdraw it again (it sorted to index 0, ahead of the /8):
        // back to the original sets, bit-identical.
        let withdrawn = net.withdraw_rule(crate::RuleId {
            device: d,
            index: 0,
        });
        assert_eq!(withdrawn.matches.dst.unwrap().len(), 16);
        ms.recompute_device(&net, &mut bdd, &mut cache, d);
        let batch2 = MatchSets::compute_cached(&net, &mut bdd, &mut cache);
        for id in net.device_rule_ids(d) {
            assert_eq!(ms.get(id), batch2.get(id));
        }
    }

    #[test]
    fn action_classes_join_rules_that_forward_alike() {
        let mut t = Topology::new();
        let d = t.add_device("r", Role::Spine);
        let i0 = t.add_iface(d, "p0", crate::topology::IfaceKind::Host);
        let i1 = t.add_iface(d, "p1", crate::topology::IfaceKind::Host);
        let to = |prefix: &str, outs: Vec<IfaceId>| {
            Rule::forward(prefix.parse().unwrap(), outs, RouteClass::Other)
        };
        let mut net = Network::new(t);
        net.add_rule(d, to("10.0.0.0/24", vec![i0]));
        net.add_rule(d, to("10.0.1.0/24", vec![i1]));
        net.add_rule(d, to("10.0.2.0/24", vec![i0]));
        net.add_rule(d, to("10.0.2.0/24", vec![i1])); // shadowed
        net.add_rule(
            d,
            Rule::null_route("10.0.3.0/24".parse().unwrap(), RouteClass::Other),
        );
        net.add_rule(
            d,
            Rule::null_route("10.0.4.0/24".parse().unwrap(), RouteClass::Other),
        );
        net.add_rule(d, to("10.0.5.0/24", vec![i0, i1]));
        net.finalize();
        let mut bdd = Bdd::new();
        let mut ms = MatchSets::compute(&net, &mut bdd);
        let id = |index| RuleId { device: d, index };
        let classes = ms.action_classes(&net, &mut bdd, d).to_vec();
        // {0, 2} out p0, {1} out p1, each drop alone, the ECMP pair alone;
        // the shadowed rule nowhere. Ordered by first member.
        let firsts: Vec<RuleId> = classes.iter().map(|c| c.rule).collect();
        assert_eq!(firsts, vec![id(0), id(1), id(4), id(5), id(6)]);
        assert_eq!(classes[0].set, bdd.or(ms.get(id(0)), ms.get(id(2))));
        assert_eq!(classes[2].set, ms.get(id(4)));
        let union = bdd.or_all(classes.iter().map(|c| c.set));
        assert_eq!(
            union,
            bdd.or_all(net.device_rule_ids(d).map(|id| ms.get(id)))
        );
        assert!(tiles_raw_matches(&net, &ms, &mut bdd, d));
        // A table change drops the device's classes with its sets.
        net.insert_rule(d, to("10.0.6.0/24", vec![i1]));
        ms.recompute_device(&net, &mut bdd, &mut MatchSetCache::new(), d);
        let classes = ms.action_classes(&net, &mut bdd, d);
        assert_eq!(classes.len(), 5);
        let union = bdd.or_all(classes.iter().map(|c| c.set));
        assert_eq!(
            union,
            bdd.or_all(net.device_rule_ids(d).map(|id| ms.get(id)))
        );
        assert!(tiles_raw_matches(&net, &ms, &mut bdd, d));
    }

    #[test]
    #[should_panic]
    fn mixed_ingress_tables_are_rejected() {
        let mut t = Topology::new();
        let d = t.add_device("r", Role::Tor);
        let i0 = t.add_iface(d, "in0", crate::topology::IfaceKind::Host);
        let mut n = Network::new(t);
        n.add_rule(
            d,
            Rule {
                matches: MatchFields {
                    in_iface: Some(i0),
                    ..MatchFields::default()
                },
                action: Action::Drop,
                class: RouteClass::Other,
            },
        );
        n.add_rule(d, Rule::null_route(Prefix::v4_default(), RouteClass::Other));
        n.finalize();
        let mut bdd = Bdd::new();
        let _ = MatchSets::compute(&n, &mut bdd);
    }
}
