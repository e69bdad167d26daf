//! Differential tests against the `oracle` crate: random toy rule tables
//! are embedded into the real header model, and `MatchSets`' symbolic
//! residual sets must agree with the oracle's per-packet first-match
//! winner scan on every packet of the toy space.
//!
//! A 7-bit space (4-bit dst + 2-bit src + 1-bit proto, 128 packets) keeps
//! the full cross product of packets × rules × devices cheap.

use netbdd::Bdd;
use netmodel::topology::DeviceId;
use netmodel::{MatchSets, RuleId};
use oracle::embed::{embed_net, embed_packet};
use oracle::{net_match_sets, ToyIfaceKind, ToyNet, ToyPrefix, ToyRule, ToySpace};
use proptest::prelude::*;

fn space() -> ToySpace {
    ToySpace::new(4, 2, 1)
}

/// One generated rule, before masking raw bits down to prefix lengths:
/// `((dst_len, raw_dst), (has_src, src_len, raw_src), (has_proto, proto),
/// drop)`.
type RuleSpec = ((u32, u32), (bool, u32, u32), (bool, u32), bool);

fn arb_rule() -> impl Strategy<Value = RuleSpec> {
    (
        (0u32..=4, any::<u32>()),
        (any::<bool>(), 0u32..=2, any::<u32>()),
        (any::<bool>(), 0u32..2),
        any::<bool>(),
    )
}

fn prefix(raw: u32, len: u32) -> ToyPrefix {
    ToyPrefix::new(if len == 0 { 0 } else { raw & ((1 << len) - 1) }, len)
}

/// Instantiate the spec: dst is always present (see `oracle::embed` on why
/// mixed `Some`/`None` LPM keys would desync rule order), src and proto
/// are optional, and the action is a drop or a forward out the device's
/// host interface.
fn make_rule(spec: &RuleSpec, host_iface: u32) -> ToyRule {
    let ((dst_len, raw_dst), (has_src, src_len, raw_src), (has_proto, proto), drop) = *spec;
    ToyRule {
        dst: Some(prefix(raw_dst, dst_len)),
        src: has_src.then(|| prefix(raw_src, src_len)),
        proto: has_proto.then_some(proto),
        action: if drop {
            oracle::ToyAction::Drop
        } else {
            oracle::ToyAction::Forward(vec![host_iface])
        },
    }
}

/// Build a toy network with one host interface per device (global iface
/// index == device index) and the given rules, finalized.
fn build_net(tables: &[Vec<RuleSpec>]) -> ToyNet {
    let mut net = ToyNet::new();
    for specs in tables {
        let d = net.add_device();
        let host = net.add_iface(d, ToyIfaceKind::Host);
        for spec in specs {
            net.add_rule(d, make_rule(spec, host));
        }
    }
    net.finalize();
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every packet of the toy space and every device, the symbolic
    /// match sets select exactly the rule the oracle's first-match scan
    /// picks, and their union is hit iff some rule matches.
    #[test]
    fn match_sets_agree_with_winner_scan(
        tables in prop::collection::vec(prop::collection::vec(arb_rule(), 0..5), 1..4)
    ) {
        let s = space();
        let mut net = build_net(&tables);
        let real = embed_net(&s, &net);
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&real, &mut bdd);
        let oracles = net_match_sets(&s, &mut net);
        for (d, oracle_ms) in oracles.iter().enumerate() {
            let dev = DeviceId(d as u32);
            let union = bdd.or_all(real.device_rule_ids(dev).map(|id| ms.get(id)));
            for p in s.packets() {
                let pkt = embed_packet(&s, p);
                let winner = net.table(d).winner(&s, p);
                for i in 0..oracle_ms.len() {
                    let id = RuleId { device: dev, index: i as u32 };
                    prop_assert_eq!(
                        pkt.matches(&bdd, ms.get(id)),
                        winner == Some(i),
                        "device {} rule {} packet {:#x}", d, i, p
                    );
                    prop_assert_eq!(oracle_ms.get(i).contains(p), winner == Some(i));
                }
                // The match sets tile the raw matches: a packet is in
                // their union exactly when some rule matches it.
                prop_assert_eq!(pkt.matches(&bdd, union), winner.is_some());
            }
        }
    }

    /// On destination-only tables the embedding preserves measure, so
    /// shadowing verdicts agree exactly and symbolic probabilities are
    /// proportional to oracle cardinalities with one constant per device.
    #[test]
    fn shadowing_and_measure_agree_on_dst_only_tables(
        tables in prop::collection::vec(
            prop::collection::vec((0u32..=4, any::<u32>(), any::<bool>()), 1..6),
            1..3,
        )
    ) {
        let s = space();
        let dst_only: Vec<Vec<RuleSpec>> = tables
            .iter()
            .map(|specs| {
                specs
                    .iter()
                    .map(|&(len, raw, drop)| ((len, raw), (false, 0, 0), (false, 0), drop))
                    .collect()
            })
            .collect();
        let mut net = build_net(&dst_only);
        let real = embed_net(&s, &net);
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&real, &mut bdd);
        let oracles = net_match_sets(&s, &mut net);
        for (d, oracle_ms) in oracles.iter().enumerate() {
            let dev = DeviceId(d as u32);
            let union = bdd.or_all(real.device_rule_ids(dev).map(|id| ms.get(id)));
            let p_total = bdd.probability(union);
            for i in 0..oracle_ms.len() {
                let id = RuleId { device: dev, index: i as u32 };
                prop_assert_eq!(ms.is_shadowed(id), oracle_ms.is_shadowed(i));
                if !oracle_ms.device_total().is_empty() {
                    let sym = bdd.probability(ms.get(id)) / p_total;
                    let cnt = oracle_ms.get(i).len() as f64
                        / oracle_ms.device_total().len() as f64;
                    prop_assert!(
                        (sym - cnt).abs() < 1e-9,
                        "device {} rule {}: symbolic {} vs oracle {}", d, i, sym, cnt
                    );
                }
            }
        }
    }
}
