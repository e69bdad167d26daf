//! A message-passing eBGP simulator.
//!
//! [`routing::RibBuilder`] computes FIBs by multi-source BFS, justified by
//! the claim that on a tiered Clos running eBGP with per-tier ASNs,
//! `allow-as-in`, and ECMP, best-path selection converges to exactly the
//! topological shortest paths. This module makes that claim *checkable*:
//! it simulates BGP the way the protocol actually works — per-neighbor
//! advertisements carrying AS paths, import filtering, best-path
//! selection on AS-path length, ECMP across ties, synchronous rounds to
//! a fixpoint — and the test suite asserts its FIBs are identical to the
//! BFS builder's on the generated fabrics.
//!
//! It also demonstrates *why* the case-study network needs
//! `allow-as-in` (§7.1): with per-tier ASNs, a route crossing two
//! datacenters re-enters the spine tier's ASN, and without the knob the
//! second spine would reject it as a loop.
//!
//! It lives beside the tests that use it as their reference, not in the
//! library: `equivalence.rs` and `scenarios.rs` each use part of it.

#![allow(dead_code)]

use std::collections::BTreeMap;

use netmodel::topology::{DeviceId, IfaceId, Topology};
use netmodel::Prefix;

use routing::{Origination, RibError, Scope};

/// One route in a device's Loc-RIB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BgpRoute {
    /// AS path to the originator, *excluding* this device's own ASN
    /// (empty at the originator).
    pub as_path: Vec<u32>,
    /// ECMP next-hop interfaces (empty at the originator).
    pub next_hops: Vec<IfaceId>,
}

impl BgpRoute {
    /// AS-path length (the best-path metric on this fabric).
    pub fn path_len(&self) -> usize {
        self.as_path.len()
    }
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct BgpConfig {
    /// Accept routes whose AS path already contains our own ASN (the
    /// `allow-as-in` knob every router in §7.1 enables).
    pub allow_as_in: bool,
    /// Safety bound on synchronous rounds (defaults to device count).
    pub max_rounds: usize,
}

impl Default for BgpConfig {
    fn default() -> BgpConfig {
        BgpConfig {
            allow_as_in: true,
            max_rounds: 0,
        }
    }
}

/// The result: per-device Loc-RIBs.
#[derive(Clone, Debug)]
pub struct BgpRibs {
    /// `ribs[device] : prefix → best route`.
    pub ribs: Vec<BTreeMap<Prefix, BgpRoute>>,
    /// Rounds until the fixpoint (diagnostics; ≈ fabric diameter + 1).
    pub rounds: usize,
}

impl BgpRibs {
    /// The best route a device holds for a prefix, if any.
    pub fn route(&self, device: DeviceId, prefix: &Prefix) -> Option<&BgpRoute> {
        self.ribs[device.0 as usize].get(prefix)
    }
}

/// Run synchronous eBGP to a fixpoint.
///
/// `asns[d]` is device `d`'s ASN; `tiers[d]` feeds [`Scope`] acceptance;
/// originations advertise prefixes with delivery semantics handled by
/// the caller (this simulator computes propagation, not FIB actions).
///
/// Panics on malformed input; [`try_simulate`] is the non-panicking form.
pub fn simulate(
    topo: &Topology,
    asns: &[u32],
    tiers: &[u8],
    originations: &[Origination],
    config: &BgpConfig,
) -> BgpRibs {
    match try_simulate(topo, asns, tiers, originations, config) {
        Ok(ribs) => ribs,
        Err(e) => panic!("bgp::simulate: invalid input: {e}"),
    }
}

/// [`simulate`], returning [`RibError`] on malformed input (attribute
/// slices not covering every device, originations naming devices outside
/// the topology) instead of panicking.
pub fn try_simulate(
    topo: &Topology,
    asns: &[u32],
    tiers: &[u8],
    originations: &[Origination],
    config: &BgpConfig,
) -> Result<BgpRibs, RibError> {
    let _span = netobs::span!("bgp_simulate");
    let n = topo.device_count();
    for (what, len) in [("asns", asns.len()), ("tiers", tiers.len())] {
        if len != n {
            return Err(RibError::LengthMismatch {
                what,
                got: len,
                expected: n,
            });
        }
    }
    for o in originations {
        if o.device.0 as usize >= n {
            return Err(RibError::UnknownDevice {
                device: o.device,
                device_count: n,
                context: "origination",
            });
        }
    }
    let max_rounds = if config.max_rounds == 0 {
        n + 2
    } else {
        config.max_rounds
    };

    // Group originations by prefix for acceptance checks.
    let mut by_prefix: BTreeMap<Prefix, Vec<&Origination>> = BTreeMap::new();
    for o in originations {
        by_prefix.entry(o.prefix).or_default().push(o);
    }
    let accepts = |prefix: &Prefix, d: DeviceId| -> bool {
        let os = &by_prefix[prefix];
        os.iter().any(|o| match o.scope {
            Scope::All => true,
            Scope::MinTier(t) => tiers[d.0 as usize] >= t,
        }) && !os.iter().any(|o| o.blocked.contains(&d))
    };

    // Loc-RIBs, seeded with local originations.
    let mut ribs: Vec<BTreeMap<Prefix, BgpRoute>> = vec![BTreeMap::new(); n];
    for o in originations {
        if by_prefix[&o.prefix]
            .iter()
            .any(|oo| oo.blocked.contains(&o.device))
        {
            continue;
        }
        ribs[o.device.0 as usize].insert(
            o.prefix,
            BgpRoute {
                as_path: Vec::new(),
                next_hops: Vec::new(),
            },
        );
    }

    let mut rounds = 0;
    for _round in 0..max_rounds {
        rounds += 1;
        let mut changed = false;
        // Synchronous: everyone advertises the *previous* round's best.
        let snapshot = ribs.clone();
        for (device, _) in topo.devices() {
            let di = device.0 as usize;
            let my_asn = asns[di];
            // Gather candidate routes per prefix from all neighbors.
            let mut candidates: BTreeMap<Prefix, Vec<(Vec<u32>, IfaceId)>> = BTreeMap::new();
            for (iface, neigh) in topo.neighbors(device) {
                for (prefix, route) in &snapshot[neigh.0 as usize] {
                    if !accepts(prefix, device) {
                        continue;
                    }
                    // The neighbor exports its best path with its own ASN
                    // prepended.
                    let mut path = Vec::with_capacity(route.as_path.len() + 1);
                    path.push(asns[neigh.0 as usize]);
                    path.extend_from_slice(&route.as_path);
                    // Loop prevention: reject paths containing our ASN
                    // unless allow-as-in is configured.
                    if !config.allow_as_in && path.contains(&my_asn) {
                        continue;
                    }
                    candidates.entry(*prefix).or_default().push((path, iface));
                }
            }
            for (prefix, cands) in candidates {
                // Keep local originations (path length 0 always wins).
                if ribs[di]
                    .get(&prefix)
                    .map(|r| r.as_path.is_empty())
                    .unwrap_or(false)
                {
                    continue;
                }
                let best_len = cands.iter().map(|(p, _)| p.len()).min().unwrap();
                let mut next_hops: Vec<IfaceId> = cands
                    .iter()
                    .filter(|(p, _)| p.len() == best_len)
                    .map(|&(_, i)| i)
                    .collect();
                next_hops.sort();
                next_hops.dedup();
                let as_path = cands
                    .iter()
                    .find(|(p, _)| p.len() == best_len)
                    .unwrap()
                    .0
                    .clone();
                let new = BgpRoute { as_path, next_hops };
                let replace = match ribs[di].get(&prefix) {
                    None => true,
                    Some(old) => {
                        new.path_len() < old.path_len()
                            || (new.path_len() == old.path_len() && new != *old)
                    }
                };
                if replace {
                    ribs[di].insert(prefix, new);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    Ok(BgpRibs { ribs, rounds })
}
