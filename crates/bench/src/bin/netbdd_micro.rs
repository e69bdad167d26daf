//! Microbenchmark for the `netbdd` kernel on a coverage-shaped workload.
//!
//! Every Yardstick metric bottoms out in the BDD manager: Algorithm 1 is
//! repeated `diff`/`or`/`and` over per-rule packet sets, which makes the
//! engine's negation cost and computed-cache behaviour the end-to-end
//! bottleneck. This binary isolates exactly that shape — synthetic FIBs
//! built from LPM prefixes and port-range ACLs, first-match residuals,
//! covered-set accumulation, and a negation-heavy stress leg — and
//! reports per-phase wall clock, final node residency, and computed-cache
//! hit/eviction rates as `BENCH_netbdd.json` (compared by `benchdiff`
//! against `crates/bench/baselines/BENCH_netbdd.json` in CI).
//!
//! The workload is fully deterministic (splitmix64, fixed seed), so the
//! structural metrics (`nodes`, op counts) are exact across runs and
//! machines; only the `*_secs` metrics are hardware-dependent.

use std::time::Instant;

use netbdd::{Bdd, Ref};
use yardstick::rng::splitmix64;

/// Header layout of the synthetic workload: a 32-bit dst field, a 16-bit
/// port field, and an 8-bit tos field — 56 variables, the same order of
/// magnitude per-field as the real `netmodel` header encoding.
const DST: (u32, u32) = (0, 32);
const PORT: (u32, u32) = (32, 16);
const TOS: (u32, u32) = (48, 8);

struct Workload {
    devices: usize,
    rules_per_device: usize,
    tests: usize,
}

/// One device's raw rule match sets: LPM prefixes over a few shared
/// aggregates (FIBs are massively repetitive) plus port-range ACL rules.
fn device_rules(bdd: &mut Bdd, seed: &mut u64, n: usize) -> Vec<Ref> {
    let mut rules = Vec::with_capacity(n);
    for i in 0..n {
        let r = splitmix64(seed);
        let set = if i % 4 == 3 {
            // ACL-shaped rule: dst aggregate ∧ port range.
            let lo = (r >> 8) as u128 & 0xFFF;
            let hi = (lo + 1 + ((r >> 24) as u128 & 0x3FFF)).min((1 << PORT.1) - 1);
            let ports = bdd.int_range(PORT.0, PORT.1, lo, hi);
            let agg = bdd.bits_prefix(DST.0, DST.1, ((r & 0xFF) as u128) << 24, 8);
            let tos = bdd.bits_eq(TOS.0, TOS.1, (r >> 40) as u128 & 0xFF);
            let acl = bdd.and(agg, ports);
            bdd.and(acl, tos)
        } else {
            // Route-shaped rule: /8..=/28 prefix drawn from 16 aggregates.
            let plen = 8 + (r % 21) as u32;
            let addr = (r >> 16) as u128 & 0xFFFF_FFFF;
            let addr = (addr & !0xF000_0000) | (((r >> 4) & 0xF) as u128) << 28;
            let masked = if plen == 32 {
                addr
            } else {
                addr & !((1u128 << (32 - plen)) - 1)
            };
            bdd.bits_prefix(DST.0, DST.1, masked, plen)
        };
        rules.push(set);
    }
    rules
}

/// First-match residuals: `effective[i] = raw[i] \ (raw[0] ∪ … ∪ raw[i-1])`
/// — the negation-heavy inner loop of `MatchSets::compute`.
fn residuals(bdd: &mut Bdd, raw: &[Ref]) -> (Vec<Ref>, Ref) {
    let mut matched = bdd.empty();
    let mut eff = Vec::with_capacity(raw.len());
    for &r in raw {
        let e = bdd.diff(r, matched);
        matched = bdd.or(matched, r);
        eff.push(e);
    }
    (eff, matched)
}

fn main() {
    let w = Workload {
        devices: bench::arg_flag("--devices", 48),
        rules_per_device: bench::arg_flag("--rules", 384),
        tests: bench::arg_flag("--tests", 768),
    };
    let mut bdd = Bdd::new();
    let mut seed = 0xC0FF_EE00_D15E_A5E5u64;

    // Phase 1: fromRule — compile every rule's raw match set.
    let t = Instant::now();
    let raw: Vec<Vec<Ref>> = (0..w.devices)
        .map(|_| device_rules(&mut bdd, &mut seed, w.rules_per_device))
        .collect();
    let fromrule_secs = t.elapsed().as_secs_f64();

    // Phase 2: match sets — first-match residuals per device (diff-heavy).
    let t = Instant::now();
    let per_device: Vec<(Vec<Ref>, Ref)> = raw.iter().map(|r| residuals(&mut bdd, r)).collect();
    let matchsets_secs = t.elapsed().as_secs_f64();

    // Phase 3: covered sets — Algorithm 1's shape: each synthetic test
    // reports a packet set; covered[rule] accumulates test ∩ effective,
    // and the per-device untested remainder is recomputed as a diff.
    let t = Instant::now();
    let mut covered_accum = bdd.empty();
    for i in 0..w.tests {
        let r = splitmix64(&mut seed);
        let probe = {
            let p = bdd.bits_prefix(
                DST.0,
                DST.1,
                ((r >> 16) as u128 & 0xFFFF_FFFF) & !0xFFFF,
                16,
            );
            let tos = bdd.bits_eq(TOS.0, TOS.1, (r >> 52) as u128 & 0xFF);
            bdd.and(p, tos)
        };
        let (eff, total) = &per_device[i % w.devices];
        let reached = bdd.and(probe, *total);
        let hit = bdd.and(reached, eff[(r % w.rules_per_device as u64) as usize]);
        covered_accum = bdd.or(covered_accum, hit);
        // The paper's "what remains untested" query — another negation.
        let untested = bdd.diff(*total, covered_accum);
        let _ = bdd.probability(untested);
    }
    let covered_secs = t.elapsed().as_secs_f64();

    // Phase 4: negation stress — complement/difference chains over the
    // accumulated device totals. With materialized complements this leg
    // grows the arena; with complement edges it is pure cache traffic.
    let t = Instant::now();
    let mut acc = covered_accum;
    for (eff, total) in &per_device {
        let n1 = bdd.not(*total);
        let n2 = bdd.not(acc);
        let x = bdd.xor(n1, n2);
        let d = bdd.diff(x, eff[0]);
        let f = bdd.forall(d, &[TOS.0, TOS.0 + 1]);
        acc = bdd.or(acc, f);
        let _ = bdd.probability(acc);
    }
    let negation_secs = t.elapsed().as_secs_f64();

    let host_cpus = bench::host_cpus();
    let stats = bdd.stats();
    let total_secs = fromrule_secs + matchsets_secs + covered_secs + negation_secs;

    println!(
        "-- netbdd micro ({} devices x {} rules, {} tests) --",
        w.devices, w.rules_per_device, w.tests
    );
    for (name, secs) in [
        ("fromrule", fromrule_secs),
        ("matchsets", matchsets_secs),
        ("covered_sets", covered_secs),
        ("negation_stress", negation_secs),
        ("total", total_secs),
    ] {
        println!("{name:<16} {secs:>9.3}s");
    }
    println!(
        "nodes: {}  ite ops/s: {:.0}  ite hit rate: {:.3}  unique hit rate: {:.3}",
        stats.nodes,
        stats.ite_lookups as f64 / total_secs,
        stats.ite_hit_rate(),
        stats.unique_hit_rate()
    );
    // `metrics` holds smaller-is-better values benchdiff gates on; `info`
    // is context (rates, throughput) reported but never gated.
    let json = format!(
        "{{\n  \"bench\": \"netbdd_micro\",\n  \"workload\": \"{}x{}r{}t\",\n  \
         \"host_cpus\": {},\n  \
         \"metrics\": {{\n    \"fromrule_secs\": {:.6},\n    \"matchsets_secs\": {:.6},\n    \
         \"covered_sets_secs\": {:.6},\n    \"negation_stress_secs\": {:.6},\n    \
         \"total_secs\": {:.6},\n    \"nodes\": {}\n  }},\n  \
         \"info\": {{\n    \
         \"ite_lookups\": {},\n    \"ite_hit_rate\": {:.4},\n    \"unique_hit_rate\": {:.4},\n    \
         \"ite_ops_per_sec\": {:.0},\n    \"ops_total\": {}\n  }}\n}}\n",
        w.devices,
        w.rules_per_device,
        w.tests,
        host_cpus,
        fromrule_secs,
        matchsets_secs,
        covered_secs,
        negation_secs,
        total_secs,
        stats.nodes,
        stats.ite_lookups,
        stats.ite_hit_rate(),
        stats.unique_hit_rate(),
        stats.ite_lookups as f64 / total_secs,
        stats.ops.total(),
    );
    let path = bench::figures_dir().join("BENCH_netbdd.json");
    std::fs::write(&path, json).expect("write BENCH_netbdd.json");
    println!("  [json] {}", path.display());
}
