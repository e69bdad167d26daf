//! Differential test for the prefix-trie constructions: on every
//! destination-only device, [`MatchSets::compute`] and
//! [`CoveredSets::compute`] walk a prefix trie ([`PrefixTries`]) instead of
//! running the first-match chain. Hash-consing makes the two the same
//! function only if they are the same `Ref`, so the check is `==`, in
//! one manager, against the chain: [`MatchSets::compute_cached`] for
//! every `M[r]`, and [`CoveredSets::recompute_device`]
//! (the chain's per-rule body) for every `T[r]`.
//!
//! The networks are the generated ones (fat-tree k=4/8, regional 1×, a
//! fat-tree whose faults leave `Priority` tables) under seeded traces,
//! and a seeded case of random destination-only tables: both table
//! modes, v4 and v6, both `/0`s and no `dst` at all, duplicates, and
//! shorter prefixes ahead of longer ones. Traces mark concrete packets
//! (source and port bits set), `TRUE`, `FALSE`, prefix sets on devices
//! and on interfaces, and rules by inspection.

use netbdd::{Bdd, Ref};
use netmodel::header::{self, Packet};
use netmodel::rule::{Action, RouteClass, Table, TableMode};
use netmodel::topology::{DeviceId, IfaceId, IfaceKind, Role, Topology};
use netmodel::PrefixTries;
use netmodel::{Family, Location, MatchFields, MatchSetCache, MatchSets, Network, Prefix, Rule};
use proptest::prelude::*;
use topogen::{fattree, faults, regional, FatTreeParams, RegionalParams};
use yardstick::rng::splitmix64;
use yardstick::{CoverageTrace, CoveredSets};

/// The seeded draws the traces are made of.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Where the trie and the chain disagree on `net` under `trace`, one
/// line per difference; empty when they agree everywhere.
fn disagreements(net: &Network, trace: &CoverageTrace, bdd: &mut Bdd) -> Vec<String> {
    let mut out = Vec::new();
    let ms = MatchSets::compute(net, bdd);
    let chain = MatchSets::compute_cached(net, bdd, &mut MatchSetCache::new());
    for (id, _) in net.rules() {
        if ms.get(id) != chain.get(id) {
            out.push(format!("M[{id:?}]"));
        }
    }
    let covered = CoveredSets::compute(net, &ms, trace, bdd);
    let mut by_chain = covered.clone();
    for (device, _) in net.topology().devices() {
        by_chain.recompute_device(net, &ms, trace, bdd, device);
    }
    for (id, _) in net.rules() {
        if covered.get(id) != by_chain.get(id) {
            out.push(format!("T[{id:?}]"));
        }
    }
    out
}

/// A packet set drawn from `rng`, shaped after `net`'s rules on
/// `device`: a concrete packet inside a rule's prefix (random source,
/// protocol and ports), a rule's prefix or one half of it, or `TRUE`
/// or `FALSE`.
fn packets(net: &Network, device: DeviceId, rng: &mut Rng, bdd: &mut Bdd) -> Ref {
    let rules = net.device_rules(device);
    let dst = if rules.is_empty() {
        None
    } else {
        rules[rng.below(rules.len() as u64) as usize].matches.dst
    };
    let prefix = dst.unwrap_or_else(Prefix::v4_default);
    match rng.below(6) {
        0 => bdd.full(),
        1 => bdd.empty(),
        2 => header::dst_in(bdd, &prefix),
        3 => {
            let width = prefix.family().width();
            let len = (prefix.len() + 1).min(width);
            let shift = u32::from(width - len);
            let bit = u128::from(rng.bool()) << shift;
            let half = match prefix.family() {
                Family::V4 => Prefix::v4((prefix.bits() | bit) as u32, len),
                Family::V6 => Prefix::v6(prefix.bits() | bit, len),
            };
            header::dst_in(bdd, &half)
        }
        _ => {
            let host = u128::from(rng.next_u64()) | (u128::from(rng.next_u64()) << 64);
            let width = u32::from(prefix.family().width());
            let free = width - u32::from(prefix.len());
            let low = if free == 0 {
                0
            } else {
                host & (u128::MAX >> (128 - free))
            };
            let mut p = match prefix.family() {
                Family::V4 => Packet::v4_to((prefix.bits() | low) as u32),
                Family::V6 => Packet::v6_to(prefix.bits() | low),
            };
            p.src = rng.next_u64() as u32;
            p.proto = rng.below(256) as u8;
            p.sport = rng.next_u64() as u16;
            p.dport = rng.next_u64() as u16;
            p.to_bdd(bdd)
        }
    }
}

/// A seeded trace over `net`: at most `marks_per_device` packet marks at
/// each device (on the device or on one of its interfaces), and about
/// one rule in eight marked by inspection.
fn seeded_trace(net: &Network, seed: u64, marks_per_device: u64, bdd: &mut Bdd) -> CoverageTrace {
    let mut rng = Rng(seed);
    let mut trace = CoverageTrace::new();
    for (device, dev) in net.topology().devices() {
        for _ in 0..rng.below(marks_per_device + 1) {
            let set = packets(net, device, &mut rng, bdd);
            let at = match dev.ifaces.len() as u64 {
                0 => Location::device(device),
                n => match rng.below(n + 1) {
                    0 => Location::device(device),
                    i => Location::at(device, dev.ifaces[i as usize - 1]),
                },
            };
            trace.add_packets(bdd, at, set);
        }
        for id in net.device_rule_ids(device) {
            if rng.below(8) == 0 {
                trace.add_rule(id);
            }
        }
    }
    trace
}

fn assert_agree(name: &str, net: &Network) {
    for seed in [1, 2] {
        let mut bdd = Bdd::new();
        let trace = seeded_trace(net, seed, 6, &mut bdd);
        let diffs = disagreements(net, &trace, &mut bdd);
        assert!(diffs.is_empty(), "{name}, seed {seed}: {diffs:?}");
    }
}

/// Whether every device of `net` takes the trie path.
fn all_trie(net: &Network) -> bool {
    let (mut tries, mut bdd) = (PrefixTries::new(), Bdd::new());
    net.topology()
        .devices()
        .all(|(d, _)| tries.match_sets(net, &mut bdd, d).is_some())
}

#[test]
fn fattree_k4_and_k8_agree() {
    for k in [4, 8] {
        let ft = fattree(FatTreeParams::paper(k));
        assert!(all_trie(&ft.net));
        assert_agree(&format!("fat-tree k={k}"), &ft.net);
    }
}

#[test]
fn regional_1x_agrees() {
    let r = regional(RegionalParams::default());
    assert!(all_trie(&r.net));
    assert_agree("regional 1x", &r.net);
}

#[test]
fn faulted_fattree_with_priority_tables_agrees() {
    let mut ft = fattree(FatTreeParams::paper(4));
    let (tor, hosted, _) = ft.tors[0];
    let (other, other_hosted, _) = ft.tors[1];
    let agg = ft.aggs[0];
    // A removed route rebuilds the table in `Priority` mode.
    assert_eq!(faults::remove_route(&mut ft.net, agg, hosted), 1);
    assert_eq!(
        faults::remove_route(&mut ft.net, tor, Prefix::v4_default()),
        1
    );
    faults::null_route(&mut ft.net, other, other_hosted);
    faults::clear_device(&mut ft.net, ft.cores[0]);
    // A spine's table in reverse, shortest prefix first: the default
    // route shadows everything after it.
    let spine = ft.cores[1];
    let mut reversed = Table::new(TableMode::Priority);
    for rule in ft.net.device_rules(spine).iter().rev() {
        reversed.push(rule.clone());
    }
    reversed.finalize();
    ft.net.set_table(spine, reversed);
    for d in [agg, tor, spine] {
        assert_eq!(ft.net.table(d).mode(), TableMode::Priority);
    }
    assert!(all_trie(&ft.net));
    assert_agree("faulted fat-tree k=4", &ft.net);
}

/// The benchmarked network: regional 3× (≈ 99 000 rules). Release mode.
#[test]
#[ignore = "regional 3x takes seconds; run with --release -- --ignored"]
fn regional_x3_agrees() {
    let d = RegionalParams::default();
    let r = regional(RegionalParams {
        pods_per_dc: d.pods_per_dc * 3,
        tors_per_pod: d.tors_per_pod * 3,
        aggs_per_pod: d.aggs_per_pod * 3,
        spines_per_dc: d.spines_per_dc * 3,
        ..d
    });
    assert!(all_trie(&r.net));
    let mut bdd = Bdd::new();
    let trace = seeded_trace(&r.net, 3, 4, &mut bdd);
    let diffs = disagreements(&r.net, &trace, &mut bdd);
    assert!(diffs.is_empty(), "regional 3x: {diffs:?}");
}

/// One random table entry: what to match, from a small pool of
/// overlapping prefixes so that rules nest, repeat and shadow.
#[derive(Clone, Debug)]
enum Entry {
    /// No `dst`: matches every packet of both families.
    Any,
    /// A v4 prefix of this length over a few varying address bits.
    V4(u64, u8),
    /// A v6 prefix of this length over a few varying address bits.
    V6(u64, u8),
    /// The n-th earlier entry again, truncated by this many bits when it
    /// has a prefix (a shorter prefix after, or before, a longer one).
    Again(usize, u8),
}

fn arb_entry() -> impl Strategy<Value = Entry> {
    prop_oneof![
        Just(Entry::Any),
        (any::<u64>(), 0u8..=32).prop_map(|(b, l)| Entry::V4(b, l)),
        (any::<u64>(), 0u8..=32).prop_map(|(b, l)| Entry::V4(b, l % 9)),
        (any::<u64>(), 0u8..=128).prop_map(|(b, l)| Entry::V6(b, l)),
        (any::<u64>(), 0u8..=12).prop_map(|(b, l)| Entry::V6(b, l)),
        (0usize..64, 0u8..=8).prop_map(|(i, cut)| Entry::Again(i, cut)),
    ]
}

/// Spread the low bits of `b` over a few address positions, so that
/// different entries share leading bits.
fn v4_addr(b: u64) -> u32 {
    0x0A00_0000 | ((b as u32 & 0x3) << 24) | ((b as u32 >> 2 & 0x3) << 15) | (b as u32 >> 4 & 0x7)
}

fn v6_addr(b: u64) -> u128 {
    (0x2001_0db8u128 << 96) | (u128::from(b & 0x3) << 125) | (u128::from(b >> 2 & 0x7) << 60)
}

fn resolve(entries: &[Entry], i: usize) -> Option<Prefix> {
    match entries[i] {
        Entry::Any => None,
        Entry::V4(b, l) => Some(Prefix::v4(v4_addr(b), l)),
        Entry::V6(b, l) => Some(Prefix::v6(v6_addr(b), l)),
        Entry::Again(n, cut) if i > 0 => resolve(entries, n % i).map(|p| match p.family() {
            Family::V4 => Prefix::v4(p.bits() as u32, p.len().saturating_sub(cut)),
            Family::V6 => Prefix::v6(p.bits(), p.len().saturating_sub(cut)),
        }),
        Entry::Again(..) => Some(Prefix::v4_default()),
    }
}

/// Two devices, one table each, from `tables` in the given modes.
fn random_net(tables: &[(bool, Vec<Entry>)]) -> Network {
    let mut t = Topology::new();
    let mut outs = Vec::new();
    for i in 0..tables.len() {
        let d = t.add_device(format!("r{i}"), Role::Tor);
        outs.push(t.add_iface(d, "out", IfaceKind::Host));
        t.add_iface(d, "alt", IfaceKind::External);
    }
    let mut net = Network::new(t);
    for (i, (priority, entries)) in tables.iter().enumerate() {
        let mode = if *priority {
            TableMode::Priority
        } else {
            TableMode::Lpm
        };
        let mut table = Table::new(mode);
        for j in 0..entries.len() {
            let out: IfaceId = outs[i];
            table.push(Rule {
                matches: MatchFields {
                    dst: resolve(entries, j),
                    ..MatchFields::default()
                },
                action: if j % 5 == 4 {
                    Action::Drop
                } else {
                    Action::Forward(vec![out])
                },
                class: RouteClass::Other,
            });
        }
        table.finalize();
        net.set_table(DeviceId(i as u32), table);
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_destination_tables_agree(
        tables in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(arb_entry(), 0..24)),
            1..3,
        ),
        seed in any::<u64>(),
    ) {
        let net = random_net(&tables);
        prop_assert!(all_trie(&net));
        let mut bdd = Bdd::new();
        let trace = seeded_trace(&net, seed, 8, &mut bdd);
        let diffs = disagreements(&net, &trace, &mut bdd);
        prop_assert!(diffs.is_empty(), "{:?}", diffs);
    }
}
