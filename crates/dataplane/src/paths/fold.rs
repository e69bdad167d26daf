//! Path metrics as a memoised fold over the walk [`explore`] makes.
//!
//! [`explore`] hands every path to a visitor, so a metric that values
//! each path pays one visit and one valuation per path, however few
//! distinct states the walk steps. [`fold_paths`] walks the same paths
//! under the same [`ExploreOpts`], but carries one [`Ref`] along each
//! edge — what the path has kept so far — and sums the paths' values
//! bottom up. A path that never crosses a `Rewrite` rule is valued from
//! its final set and the carry it ends with alone, so every subtree below
//! a state is a function of `(device, ingress scope, packets, carry, hops
//! left)` and is folded once: a later arrival with the same key takes
//! the subtree's totals whole.
//!
//! [`explore`]: super::explore

use std::collections::HashMap;

use netbdd::{Bdd, Ref};
use netmodel::topology::DeviceId;
use netmodel::{Action, IfaceId, Location, RuleId};

use super::{ExploreOpts, PathStats, Terminal};
use crate::forward::{Forwarder, Outcome, StepMemo};

/// How a [`fold_paths`] values paths: what the carry becomes along an
/// edge, and what a path is worth.
pub trait PathValue {
    /// The carry of a path that leaves a state holding `carry` through
    /// `rule`, whose action is not a rewrite, into `packets`. It must lie
    /// within `packets`.
    fn edge(&mut self, bdd: &mut Bdd, carry: Ref, rule: RuleId, packets: Ref) -> Ref;

    /// The value and weight of a rewrite-free path with final set
    /// `final_set` and carry `carry` (within `final_set`), or `None` if
    /// the path is not valued.
    fn leaf(&mut self, bdd: &mut Bdd, carry: Ref, final_set: Ref) -> Option<(f64, f64)>;

    /// The value and weight of a path whose `rules` include a rewrite,
    /// or `None` if the path is not valued.
    fn rewritten(&mut self, bdd: &mut Bdd, rules: &[RuleId], final_set: Ref) -> Option<(f64, f64)>;
}

/// The totals of a [`fold_paths`] over the paths [`explore`] would
/// emit under the same options.
///
/// [`explore`]: super::explore
#[derive(Clone, Copy, Debug, Default)]
pub struct PathTotals {
    /// The statistics [`explore`](super::explore) returns.
    pub stats: PathStats,
    /// Paths with at least one rule that were valued.
    pub valued: u64,
    /// Valued paths with a value above zero.
    pub hit: u64,
    /// Σ value over the valued paths.
    pub sum: f64,
    /// Σ value · weight over the valued paths.
    pub wsum: f64,
    /// Σ weight over the valued paths.
    pub wtotal: f64,
    /// Σ probability of the final sets of the zero-rule paths.
    pub unrouted: f64,
}

impl PathTotals {
    fn add(&mut self, o: &PathTotals) {
        self.stats.merge(&o.stats);
        self.valued += o.valued;
        self.hit += o.hit;
        self.sum += o.sum;
        self.wsum += o.wsum;
        self.wtotal += o.wtotal;
        self.unrouted += o.unrouted;
    }
}

/// Walk the paths [`explore`] would emit from `starts` under `opts`,
/// valuing each with `value`, and return their totals.
///
/// The carry into a start is its packet set. The budget is checked where
/// [`explore`] checks it — on entry to a state and after each start — so
/// the paths counted are exactly [`explore`]'s: a subtree folded earlier
/// is taken whole only when all of its paths fit in what is left of the
/// budget, and is walked into otherwise. A subtree is folded once it is
/// complete, and only if none of its paths crosses a rewrite; such paths
/// are valued one by one with [`PathValue::rewritten`] on their rule
/// stack. The memo lives for one walk: it keys on `Ref`s, which name one
/// set only as long as nothing collects.
///
/// [`explore`]: super::explore
pub fn fold_paths(
    bdd: &mut Bdd,
    fwd: &Forwarder<'_>,
    starts: &[(Location, Ref)],
    opts: &ExploreOpts,
    value: &mut impl PathValue,
) -> PathTotals {
    let _span = netobs::span!("dataplane_fold_paths");
    let mut fold = Fold {
        opts,
        fwd,
        value,
        memo: StepMemo::new(fwd, Forwarder::step),
        folded: HashMap::new(),
        rules: Vec::new(),
        rewrites: 0,
        paths: 0,
        cut: false,
        replays: 0,
    };
    let mut totals = PathTotals::default();
    for &(start, packets) in starts {
        if packets.is_false() {
            continue;
        }
        let (sub, _) = fold.dfs(bdd, start, packets, packets);
        totals.add(&sub);
        if fold.paths >= opts.max_paths {
            break;
        }
    }
    fold.memo.publish();
    netobs::counter("pathcov.fold_keys", fold.folded.len() as u64);
    netobs::counter("pathcov.fold_replays", fold.replays);
    totals
}

/// What a folded subtree is keyed on: the state it starts in, the carry
/// it arrived with and the hops left before truncation.
type FoldKey = (DeviceId, Option<IfaceId>, Ref, Ref, usize);

/// One [`fold_paths`] call: the rule stack of the current path prefix,
/// how many of its rules rewrite, the paths counted so far, whether the
/// budget has cut the walk, and the folded subtrees.
struct Fold<'w, 'f, 'n, V> {
    opts: &'w ExploreOpts,
    fwd: &'f Forwarder<'n>,
    value: &'w mut V,
    memo: StepMemo<'f, 'n>,
    folded: HashMap<FoldKey, PathTotals>,
    rules: Vec<RuleId>,
    rewrites: usize,
    paths: u64,
    cut: bool,
    replays: u64,
}

impl<V: PathValue> Fold<'_, '_, '_, V> {
    /// The totals of the subtree below `packets` at `loc`, arrived with
    /// `carry`, and whether it may be folded: it was walked to the end
    /// and none of its paths crosses a rewrite.
    fn dfs(
        &mut self,
        bdd: &mut Bdd,
        loc: Location,
        packets: Ref,
        carry: Ref,
    ) -> (PathTotals, bool) {
        let mut totals = PathTotals::default();
        if self.paths >= self.opts.max_paths {
            self.cut = true;
            return (totals, false);
        }
        if self.rules.len() >= self.opts.max_hops {
            self.leaf(bdd, &mut totals, Terminal::Truncated, carry, packets);
            return (totals, self.rewrites == 0);
        }
        let key = (self.rewrites == 0).then(|| {
            let scope = self.fwd.ingress_scope(loc.device, loc.iface);
            let hops_left = self.opts.max_hops - self.rules.len();
            (loc.device, scope, packets, carry, hops_left)
        });
        if let Some(done) = key.and_then(|k| self.folded.get(&k)) {
            if done.stats.paths <= self.opts.max_paths - self.paths {
                self.paths += done.stats.paths;
                self.replays += 1;
                return (*done, true);
            }
        }
        let mut clean = self.rewrites == 0;
        let step = self.memo.step(bdd, loc, packets);
        if !step.unmatched.is_false() && (!self.rules.is_empty() || self.opts.emit_empty_paths) {
            let kept = if self.rewrites == 0 {
                bdd.and(carry, step.unmatched)
            } else {
                carry
            };
            self.leaf(bdd, &mut totals, Terminal::Unmatched, kept, step.unmatched);
        }
        for t in &step.transitions {
            let rewrites = matches!(self.fwd.network().rule(t.rule).action, Action::Rewrite(..));
            self.rules.push(t.rule);
            self.rewrites += usize::from(rewrites);
            clean &= !rewrites;
            // Without a rewrite every outcome carries the matched packets,
            // so the legs of one transition share their carry.
            let next = if self.rewrites == 0 {
                self.value.edge(bdd, carry, t.rule, t.matched)
            } else {
                Ref::FALSE
            };
            for o in &t.outcomes {
                let terminal = match *o {
                    Outcome::Hop { next: to, packets } => {
                        let (sub, whole) = self.dfs(bdd, to, packets, next);
                        totals.add(&sub);
                        clean &= whole;
                        continue;
                    }
                    Outcome::Delivered { iface, .. } => Terminal::Delivered { iface },
                    Outcome::Exited { iface, .. } => Terminal::Exited { iface },
                    Outcome::Dropped { .. } => Terminal::Dropped,
                };
                self.leaf(bdd, &mut totals, terminal, next, o.packets());
            }
            self.rewrites -= usize::from(rewrites);
            self.rules.pop();
        }
        if let Some(k) = key.filter(|_| clean && !self.cut) {
            self.folded.insert(k, totals);
        }
        (totals, clean && !self.cut)
    }

    /// Count one path of the current rule stack ending in `final_set`
    /// with `carry`, and value it.
    fn leaf(
        &mut self,
        bdd: &mut Bdd,
        totals: &mut PathTotals,
        terminal: Terminal,
        carry: Ref,
        final_set: Ref,
    ) {
        self.paths += 1;
        totals.stats.record(terminal, self.rules.len());
        if self.rules.is_empty() {
            totals.unrouted += bdd.probability(final_set);
            return;
        }
        let valued = if self.rewrites == 0 {
            self.value.leaf(bdd, carry, final_set)
        } else {
            self.value.rewritten(bdd, &self.rules, final_set)
        };
        if let Some((m, w)) = valued {
            totals.valued += 1;
            totals.hit += u64::from(m > 0.0);
            totals.sum += m;
            totals.wsum += m * w;
            totals.wtotal += w;
        }
    }
}
