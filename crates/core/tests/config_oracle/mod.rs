//! The config-coverage oracle, shared by `config_differential.rs` and
//! `engine_model.rs`: the footprint fold over a whole `ConfigDb` that
//! answered every `/config-coverage` before the engine marked backwards
//! over the routing DAG. It builds every construct's footprint from the
//! per-key attribution sets, so it shares nothing with the walk but
//! `RuleId`, `MatchSets` and `CoveredSets`.

use std::collections::BTreeMap;

use netbdd::Bdd;
use netmodel::provenance::{ConfigDb, Construct};
use netmodel::{MatchSets, Network};
use netobs::json::{number, quote};
use yardstick::{ConfigCoverage, ConstructCoverage, CoveredSets};

/// Every construct with a non-empty footprint, in construct order, and
/// the constructs without one.
pub struct OracleCoverage {
    pub constructs: Vec<ConstructCoverage>,
    pub unreferenced: Vec<Construct>,
}

/// Walk every FIB rule once: destination-only rules with a non-empty
/// match set contribute their `P(M[r])` / `P(T[r])` mass to each
/// construct the database attributes their key to.
pub fn compute(
    net: &Network,
    ms: &MatchSets,
    covered: &CoveredSets,
    bdd: &mut Bdd,
    db: &ConfigDb,
) -> OracleCoverage {
    let mut acc: BTreeMap<Construct, ConstructCoverage> = BTreeMap::new();
    for (id, rule) in net.rules() {
        let f = &rule.matches;
        let dst = match (f.dst, f.src, f.proto, f.dport, f.sport, f.in_iface) {
            (Some(dst), None, None, None, None, None) => dst,
            _ => continue, // not a destination-prefix route
        };
        let Some(via) = db.attribution(id.device, dst) else {
            continue; // outside the provenance layer (connected, ACL, ...)
        };
        let m = ms.get(id);
        if m.is_false() {
            continue; // shadowed: untestable, no footprint
        }
        let pm = bdd.probability(m);
        let t = covered.get(id);
        let pt = bdd.probability(t);
        for c in via {
            let e = acc.entry(*c).or_insert_with(|| ConstructCoverage {
                construct: *c,
                rules: Vec::new(),
                covered: false,
                match_probability: 0.0,
                covered_probability: 0.0,
            });
            e.rules.push(id);
            e.match_probability += pm;
            e.covered_probability += pt;
            e.covered |= !t.is_false();
        }
    }
    let unreferenced = db
        .constructs
        .iter()
        .filter(|c| !acc.contains_key(c))
        .copied()
        .collect();
    OracleCoverage {
        constructs: acc.into_values().collect(),
        unreferenced,
    }
}

impl OracleCoverage {
    /// The summary the engine must answer.
    pub fn summary(&self) -> ConfigCoverage {
        let (covered, uncovered): (Vec<_>, Vec<_>) =
            self.constructs.iter().partition(|c| c.covered);
        ConfigCoverage {
            covered: covered.into_iter().map(|c| c.construct).collect(),
            uncovered: uncovered.into_iter().map(|c| c.construct).collect(),
            unreferenced: self.unreferenced.clone(),
        }
    }

    /// The `GET /config-coverage` body the daemon must send at `version`.
    pub fn summary_body(&self, version: u64) -> String {
        let s = self.summary();
        let ids = |cs: &[Construct]| {
            let ids: Vec<String> = cs.iter().map(|c| quote(&c.wire_id())).collect();
            ids.join(",")
        };
        let (covered, coverable) = (s.covered.len(), self.constructs.len());
        let fractional = match coverable {
            0 => "null".to_string(),
            _ => number(covered as f64 / coverable as f64),
        };
        format!(
            "{{\"version\":{version},\"coverable\":{coverable},\"covered\":{covered},\
             \"fractional\":{fractional},\"uncovered\":[{}],\"unreferenced\":[{}]}}",
            ids(&s.uncovered),
            ids(&s.unreferenced)
        )
    }
}
