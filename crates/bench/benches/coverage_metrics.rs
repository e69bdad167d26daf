//! Phase-2 metric computation micro-benchmarks (Figure 9's local-metric
//! lines at bench scale), including covered-set derivation (Algorithm 1)
//! and the per-metric aggregation passes.

use criterion::{criterion_group, criterion_main, Criterion};

use netbdd::Bdd;
use netmodel::MatchSets;
use topogen::{fattree, FatTreeParams};
use yardstick::{Aggregator, Analyzer, CoveredSets, Tracker};

use testsuite::{named_test, NetworkInfo};

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("coverage_metrics");
    group.sample_size(10);

    let ft = fattree(FatTreeParams::paper(8));
    let info = NetworkInfo {
        tor_subnets: ft.tors.clone(),
        ..NetworkInfo::default()
    };
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&ft.net, &mut bdd);
    let mut tracker = Tracker::new();
    for name in ["DefaultRouteCheck", "ToRContract"] {
        named_test(name).run(&mut bdd, &ft.net, &ms, &info, &mut tracker, 0);
    }
    let trace = tracker.into_trace();

    group.bench_function("algorithm1_covered_sets_k8", |b| {
        b.iter(|| CoveredSets::compute(&ft.net, &ms, &trace, &mut bdd))
    });

    let analyzer = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);

    group.bench_function("rule_fractional_k8", |b| {
        b.iter(|| analyzer.aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true))
    });

    group.bench_function("rule_weighted_k8", |b| {
        b.iter(|| analyzer.aggregate_rules(&mut bdd, Aggregator::Weighted, |_, _| true))
    });

    group.bench_function("device_fractional_k8", |b| {
        b.iter(|| analyzer.aggregate_devices(&mut bdd, Aggregator::Fractional, |_, _| true))
    });

    group.bench_function("iface_fractional_k8", |b| {
        b.iter(|| analyzer.aggregate_out_ifaces(&mut bdd, Aggregator::Fractional, |_, _| true))
    });

    group.finish();
}

criterion_group!(benches, bench_metrics);
criterion_main!(benches);
