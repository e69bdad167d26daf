//! The batch side of the model's checks: the tests' union, role
//! metrics folded by hand, and reachability from every device.

use std::collections::BTreeMap;

use dataplane::{reach, Forwarder};
use netbdd::{Bdd, PortableBdd, Ref};
use netmodel::topology::Role;
use netmodel::{Location, MatchSets, Network, RuleId};
use yardstick::{Aggregator, Analyzer, CoverageTrace, PortableTrace};

/// The union of `tests`' traces, imported into `bdd`.
pub fn combine(tests: &[(String, PortableTrace)], bdd: &mut Bdd) -> CoverageTrace {
    let mut combined = CoverageTrace::new();
    for (_, portable) in tests {
        let t = portable.import(bdd);
        combined.merge(bdd, &t);
    }
    combined
}

/// `[device fractional, rule fractional, rule weighted]` for one role,
/// folded by hand: the rule aggregates over the role's rules as one flat
/// list, the device aggregate counted directly.
pub fn flat_role_metrics(batch: &Analyzer, bdd: &mut Bdd, role: Role) -> [Option<f64>; 3] {
    let (net, ms, covered) = (batch.network(), batch.match_sets(), batch.covered_sets());
    let (mut items, mut devices) = (Vec::new(), Vec::new());
    for device in net.topology().devices_with_role(role) {
        let ids = net.device_rule_ids(device);
        let live: Vec<RuleId> = ids.filter(|&id| !ms.get(id).is_false()).collect();
        if !live.is_empty() {
            devices.push(live.iter().any(|&id| covered.is_exercised(id)));
        }
        for id in live {
            let w = bdd.probability(ms.get(id));
            items.push((bdd.probability(covered.get(id)) / w, w));
        }
    }
    let exercised = devices.iter().filter(|&&e| e).count() as f64;
    [
        (!devices.is_empty()).then(|| exercised / devices.len() as f64),
        Aggregator::Fractional.fold(&items),
        Aggregator::Weighted.fold(&items),
    ]
}

/// Symbolic reachability of the full header space from every device, as
/// exports keyed by what they describe.
pub fn reach_everywhere(
    net: &Network,
    ms: &MatchSets,
    bdd: &mut Bdd,
) -> BTreeMap<String, PortableBdd> {
    let fwd = Forwarder::new(net, ms);
    let full = bdd.full();
    let mut sets: BTreeMap<String, Ref> = BTreeMap::new();
    for (d, _) in net.topology().devices() {
        let res = reach(bdd, &fwd, Location::device(d), full, 6);
        let mut add = |what: String, set: Ref| {
            let e = sets
                .entry(format!("from {d:?}: {what}"))
                .or_insert(Ref::FALSE);
            *e = bdd.or(*e, set);
        };
        for (l, s) in res.per_hop.iter() {
            add(format!("hop {l:?}"), s);
        }
        for (what, ifaces) in [("delivered", &res.delivered), ("exited", &res.exited)] {
            for &(i, s) in ifaces {
                add(format!("{what} {i:?}"), s);
            }
        }
        for &(r, s) in &res.dropped {
            add(format!("dropped {r:?}"), s);
        }
        for &(l, s) in &res.unmatched {
            add(format!("unmatched {l:?}"), s);
        }
    }
    sets.into_iter().map(|(k, r)| (k, bdd.export(r))).collect()
}
