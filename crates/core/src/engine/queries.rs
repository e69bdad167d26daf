//! Reads: one rule's coverage, the memoised headline aggregates and the
//! config-level queries, all over the resident shards.

use netbdd::Bdd;
use netmodel::provenance::Construct;
use netmodel::RuleId;

use super::{CoverageEngine, EngineError};
use crate::analyzer::{ratio, Analyzer};
use crate::config::{self, ConfigCoverage, ConstructCoverage};
use crate::covered::rule_covered;
use crate::framework::Aggregator;

/// Coverage of a single rule, as served by `/covers`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuleCoverage {
    /// The rule queried.
    pub id: RuleId,
    /// `P(M[r])` — probability mass of the rule's disjoint match set.
    pub match_probability: f64,
    /// `P(T[r])` — probability mass of the rule's covered set.
    pub covered_probability: f64,
    /// `P(T[r]) / P(M[r])`, or `None` for fully-shadowed rules.
    pub coverage: Option<f64>,
    /// Whether any test exercised the rule at all.
    pub exercised: bool,
}

/// The three headline aggregates served by `/metrics`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeadlineMetrics {
    /// Network-wide fractional rule coverage.
    pub rule_fractional: Option<f64>,
    /// Network-wide probability-weighted rule coverage.
    pub rule_weighted: Option<f64>,
    /// Network-wide fractional device coverage.
    pub device_fractional: Option<f64>,
}

impl CoverageEngine {
    /// The one way to read the engine's state: an [`Analyzer`] borrowing
    /// the served network, the resident shards and the combined trace,
    /// beside the engine's manager. Nothing is recomputed or copied.
    pub fn analyzer(&mut self) -> (Analyzer<'_>, &mut Bdd) {
        let covered = std::borrow::Cow::Borrowed(&self.covered);
        let analyzer = Analyzer::with_covered(&self.net, &self.ms, &self.combined, covered);
        (analyzer, &mut self.bdd)
    }

    /// Whether any registered test exercises rule `id` (its covered set
    /// is non-empty). `id` must name a current rule.
    pub fn is_exercised(&self, id: RuleId) -> bool {
        self.covered.is_exercised(id)
    }

    /// Coverage of one rule, read through [`CoverageEngine::analyzer`]
    /// from the resident shards: that one rule's measures, no table.
    pub fn rule_coverage(&mut self, id: RuleId) -> Result<RuleCoverage, EngineError> {
        self.check_rule(id)?;
        let exercised = self.is_exercised(id);
        let (analyzer, bdd) = self.analyzer();
        let (match_probability, covered_probability) = analyzer.rule_measures(bdd, id);
        Ok(RuleCoverage {
            id,
            match_probability,
            covered_probability,
            coverage: ratio(match_probability, covered_probability),
            exercised,
        })
    }

    /// Config-level coverage: every live construct of the attached
    /// routing engine, covered, uncovered or unreferenced (see
    /// [`crate::config`]). One pass over the rules marks the installed
    /// keys, and [`routing::RoutingEngine::mark_constructs`] carries the
    /// marks backwards to the constructs. No footprint is built and no
    /// probability computed. Requires [`CoverageEngine::attach_routing`]
    /// — without a control plane there is no configuration to attribute
    /// rules to. Provenance is read off the routing engine's *current*
    /// (possibly degraded) state, so the report tracks topology deltas
    /// without keeping any state of its own.
    pub fn config_coverage(&mut self) -> Result<ConfigCoverage, EngineError> {
        self.routing().ok_or(EngineError::NoRoutingEngine)?;
        let _span = netobs::span!("config_summary");
        let keys = {
            let _span = netobs::span!("config_keys");
            config::entry_marks(&self.analyzer().0)
        };
        let marked = {
            let _span = netobs::span!("provenance_marks");
            let routing = self.routing().ok_or(EngineError::NoRoutingEngine)?;
            routing.mark_constructs(keys)
        };
        Ok(ConfigCoverage::from_marks(marked))
    }

    /// One construct's footprint and probability sums, or `None` when
    /// the construct is not in the live configuration. An unreferenced
    /// construct has an empty footprint. The footprint comes from a
    /// forward walk ([`routing::RoutingEngine::attributed_keys`]). The
    /// sums run in rule-id order, so they do not depend on how the
    /// footprint was found.
    pub fn construct_coverage(
        &mut self,
        construct: &Construct,
    ) -> Result<Option<ConstructCoverage>, EngineError> {
        let routing = self.routing().ok_or(EngineError::NoRoutingEngine)?;
        let _span = netobs::span!("config_drilldown");
        let Some(keys) = routing.attributed_keys(construct) else {
            return Ok(None);
        };
        let (analyzer, bdd) = self.analyzer();
        Ok(Some(config::footprint(*construct, &keys, &analyzer, bdd)))
    }

    /// Names of the registered tests that exercise at least one of
    /// `rules` — the per-construct drill-down behind the daemon's
    /// `/config-coverage?construct=` query. A test exercises a rule when
    /// Algorithm 1 run on its trace alone gives the rule a non-empty
    /// covered set. The test traces are read beside the shards, so this
    /// borrows the engine's fields directly rather than through
    /// [`CoverageEngine::analyzer`].
    pub fn tests_exercising(&mut self, rules: &[RuleId]) -> Vec<String> {
        let (net, ms, bdd) = (&self.net, &self.ms, &mut self.bdd);
        let mut exercises = |trace, id| !rule_covered(net, ms, trace, bdd, id, None).is_false();
        self.tests
            .iter()
            .filter(|(_, trace)| rules.iter().any(|&id| exercises(trace, id)))
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// The headline aggregates over the whole network, re-aggregated by
    /// the batch [`Analyzer`] only when a delta has been applied since the
    /// last call.
    pub fn headline_metrics(&mut self) -> HeadlineMetrics {
        if let Some((version, headline)) = self.headline_cache {
            if version == self.version {
                self.headline_hits += 1;
                return headline;
            }
        }
        self.headline_misses += 1;
        let (a, bdd) = self.analyzer();
        let headline = HeadlineMetrics {
            rule_fractional: a.aggregate_rules(bdd, Aggregator::Fractional, |_, _| true),
            rule_weighted: a.aggregate_rules(bdd, Aggregator::Weighted, |_, _| true),
            device_fractional: a.aggregate_devices(bdd, Aggregator::Fractional, |_, _| true),
        };
        self.headline_cache = Some((self.version, headline));
        headline
    }
}
