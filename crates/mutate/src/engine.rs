//! Deterministic mutant generation and post-routing application.
//!
//! [`generate`] walks the operator set in fixed order over the network's
//! rules in global `RuleId` order, so the mutant list — ids, targets,
//! seeds — is a pure function of `(network, seed, cap)`. A mutant's
//! table is rebuilt in **priority mode** ([`apply`] swaps it into a
//! clone of the network), freezing the current first-match order with the
//! mutated rule in place: the mutation happens *after* routing, directly
//! in the concrete dataplane model, exactly like the §2 incident where
//! the control plane was healthy and the installed state was not. (An
//! LPM rebuild would re-sort the table and silently undo reorder and
//! prefix-length mutations.)

use netmodel::rule::{Table, TableMode};
use netmodel::{Network, RuleId};
use yardstick::rng::seed_mix;

use crate::operators::Operator;

/// One seeded fault: operator, target rule, and the seed resolving the
/// operator's free choices.
#[derive(Clone, Debug)]
pub struct Mutant {
    /// Position in the generated list; also the report/JSON identifier.
    pub id: u32,
    /// The operator applied.
    pub op: Operator,
    /// The rule mutated, identified in the *unmutated* network.
    pub target: RuleId,
    /// Per-mutant seed — a pure function of the run seed and the mutant's
    /// identity (operator + target), independent of generation order.
    pub seed: u64,
}

impl Mutant {
    /// The unmutated-network rules this mutant perturbs (see
    /// [`Operator::touched`]).
    pub fn touched(&self) -> Vec<RuleId> {
        self.op.touched(self.target)
    }
}

/// Generation limits and seeding for one mutation run.
#[derive(Clone, Copy, Debug)]
pub struct MutationConfig {
    /// Base seed; every mutant derives its own seed from it.
    pub seed: u64,
    /// Upper bound on mutants per operator. Candidates beyond the cap are
    /// thinned by deterministic strided sampling (seeded offset), keeping
    /// the selection spread across the whole network.
    pub per_op_cap: usize,
}

impl Default for MutationConfig {
    fn default() -> MutationConfig {
        MutationConfig {
            seed: 0xD15E_A5E5,
            per_op_cap: 24,
        }
    }
}

/// Enumerate the mutants of a network: for each operator (in
/// [`Operator::ALL`] order) every applicable rule in global order,
/// thinned to the per-operator cap. Ids are assigned in list order.
pub fn generate(net: &Network, cfg: &MutationConfig) -> Vec<Mutant> {
    let mut mutants = Vec::new();
    for (op_index, &op) in Operator::ALL.iter().enumerate() {
        let candidates: Vec<RuleId> = net
            .rules()
            .map(|(id, _)| id)
            .filter(|&id| op.applicable(net, id))
            .collect();
        let picked = thin(
            &candidates,
            cfg.per_op_cap,
            seed_mix(cfg.seed, op_index as u64),
        );
        for target in picked {
            let key =
                ((op_index as u64) << 56) ^ ((target.device.0 as u64) << 28) ^ target.index as u64;
            mutants.push(Mutant {
                id: mutants.len() as u32,
                op,
                target,
                seed: seed_mix(cfg.seed, key),
            });
        }
    }
    mutants
}

/// Deterministic down-sample: at most `cap` elements, evenly strided with
/// a seeded starting offset so different run seeds see different rules
/// while one seed always picks the same set.
fn thin(candidates: &[RuleId], cap: usize, seed: u64) -> Vec<RuleId> {
    if candidates.len() <= cap {
        return candidates.to_vec();
    }
    let stride = candidates.len() / cap;
    let offset = (seed % stride as u64) as usize;
    candidates
        .iter()
        .skip(offset)
        .step_by(stride)
        .take(cap)
        .copied()
        .collect()
}

/// The target device's mutated table: its rules rebuilt as a priority
/// table with the mutation applied in place (see the module docs for why
/// priority mode). Every other device is untouched by definition.
pub(crate) fn mutated_table(net: &Network, mutant: &Mutant) -> Table {
    let device = mutant.target.device;
    let mut rules = net.device_rules(device).to_vec();
    mutant.op.apply(
        &mut rules,
        mutant.target.index as usize,
        net,
        device,
        mutant.seed,
    );
    let mut table = Table::new(TableMode::Priority);
    for r in rules {
        table.push(r);
    }
    table.finalize();
    table
}

/// Build the mutated snapshot: a clone of the network with the target
/// device's table replaced by `mutated_table`.
pub fn apply(net: &Network, mutant: &Mutant) -> Network {
    let mut mutated = net.clone();
    mutated.set_table(mutant.target.device, mutated_table(net, mutant));
    mutated
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::addr::Prefix;
    use netmodel::rule::{RouteClass, Rule};
    use netmodel::topology::{IfaceKind, Role, Topology};
    use netmodel::IfaceId;

    fn net() -> Network {
        let mut t = Topology::new();
        for d in 0..3 {
            let dev = t.add_device(format!("d{d}"), Role::Tor);
            t.add_iface(dev, "h", IfaceKind::Host);
            t.add_iface(dev, "up", IfaceKind::External);
        }
        let mut n = Network::new(t);
        for d in 0..3u32 {
            let dev = netmodel::topology::DeviceId(d);
            n.add_rule(
                dev,
                Rule::forward(
                    format!("10.{d}.0.0/16").parse().unwrap(),
                    vec![IfaceId(2 * d)],
                    RouteClass::HostSubnet,
                ),
            );
            n.add_rule(
                dev,
                Rule::forward(
                    Prefix::v4_default(),
                    vec![IfaceId(2 * d + 1)],
                    RouteClass::StaticDefault,
                ),
            );
        }
        n.finalize();
        n
    }

    #[test]
    fn generation_is_deterministic_and_id_ordered() {
        let n = net();
        let cfg = MutationConfig::default();
        let a = generate(&n, &cfg);
        let b = generate(&n, &cfg);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.id, i as u32);
            assert_eq!((x.op, x.target, x.seed), (y.op, y.target, y.seed));
        }
    }

    #[test]
    fn per_op_cap_thins_but_keeps_spread() {
        let n = net();
        let cfg = MutationConfig {
            seed: 1,
            per_op_cap: 2,
        };
        let mutants = generate(&n, &cfg);
        for op in Operator::ALL {
            let of_op: Vec<_> = mutants.iter().filter(|m| m.op == op).collect();
            assert!(of_op.len() <= 2, "{op:?} over cap: {}", of_op.len());
        }
        // delete_rule has 6 candidates; the 2 picked span > 1 device.
        let deleted: std::collections::BTreeSet<_> = mutants
            .iter()
            .filter(|m| m.op == Operator::DeleteRule)
            .map(|m| m.target.device)
            .collect();
        assert_eq!(deleted.len(), 2);
    }

    #[test]
    fn mutant_seeds_are_independent_of_generation_order() {
        let n = net();
        let a = generate(&n, &MutationConfig::default());
        let b = generate(
            &n,
            &MutationConfig {
                per_op_cap: 1,
                ..MutationConfig::default()
            },
        );
        // The same (op, target) yields the same seed under both caps.
        for m in &b {
            let twin = a
                .iter()
                .find(|x| x.op == m.op && x.target == m.target)
                .expect("cap-1 pick is a subset");
            assert_eq!(twin.seed, m.seed);
        }
    }

    #[test]
    fn apply_rebuilds_the_table_in_priority_mode() {
        let n = net();
        let mutants = generate(&n, &MutationConfig::default());
        let reorder = mutants
            .iter()
            .find(|m| m.op == Operator::ReorderPriority)
            .unwrap();
        let mutated = apply(&n, reorder);
        // Priority mode freezes the swapped order: the default route now
        // sits above the /16 on the mutated device.
        assert_eq!(
            mutated.table(reorder.target.device).mode(),
            TableMode::Priority
        );
        let rules = mutated.device_rules(reorder.target.device);
        assert!(rules[reorder.target.index as usize]
            .matches
            .dst
            .unwrap()
            .is_default());
        // Other devices are untouched.
        for (d, _) in n.topology().devices() {
            if d != reorder.target.device {
                assert_eq!(n.device_rules(d).len(), mutated.device_rules(d).len());
            }
        }
    }

    #[test]
    fn delete_rule_shrinks_exactly_one_table() {
        let n = net();
        let mutants = generate(&n, &MutationConfig::default());
        let del = mutants
            .iter()
            .find(|m| m.op == Operator::DeleteRule)
            .unwrap();
        let mutated = apply(&n, del);
        assert_eq!(
            mutated.device_rules(del.target.device).len(),
            n.device_rules(del.target.device).len() - 1
        );
        assert_eq!(mutated.rule_count(), n.rule_count() - 1);
    }
}
