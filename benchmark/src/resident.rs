//! The resident workloads: boot a `CoverageEngine` the way `coverd
//! serve` does, then drive it through `daemon::handle` — a read-only
//! loop, and a churn loop of rule, link and test deltas with reads in
//! between. One generator, one client, closed loop: the next request is
//! issued when the previous one has answered.

use std::collections::BTreeMap;
use std::time::Instant;

use netbdd::Bdd;
use netmodel::{DeviceId, MatchSets, Network, RuleId};
use testsuite::fattree_suite_jobs;
use testsuite::shard::run_job_isolated;
use topogen::{fattree_builder, FatTreeParams};
use yardstick::daemon::{handle, parse_rule_id, trace_to_json, Request, Response};
use yardstick::{Aggregator, Analyzer, CoverageEngine, CoverageTrace, CoveredSets, PortableTrace};

use crate::ops::{self, OpHash, Round, Shape};
use crate::out::{Checks, Metrics};
use crate::stats::{latency_summary, median, percentile, steady_mean};

/// The test whose trace the churn loop removes and re-adds (ToRContract
/// runs as `Contract` jobs).
pub const CYCLED_TEST: &str = "Contract";

/// Sizes of a resident workload.
#[derive(Clone, Copy, Debug)]
pub struct ResidentPlan {
    /// Fat-tree arity.
    pub k: u32,
    /// Set-up repetitions (the median is `setup_s`).
    pub setups: usize,
    /// Requests per read batch.
    pub read_batch: usize,
    /// Rounds per churn batch.
    pub churn_batch: u64,
    /// Batches at least; more run while the time budget lasts.
    pub min_batches: usize,
    /// Arena node count above which the engine collects.
    pub gc_watermark: usize,
    /// A test is removed and re-added at the end of every this-many-th
    /// round.
    pub test_cycle_every: u64,
    /// A cold `/config-coverage` and a `/metrics` are asked at the end
    /// of every this-many-th round.
    pub config_every: u64,
    /// Rules compared against a freshly booted engine at the end.
    pub verify_rules: usize,
}

/// A booted engine with what the generators and checks need.
pub struct Booted {
    /// The engine, tests registered, routing attached.
    pub engine: CoverageEngine,
    /// The suite's traces, one per test name.
    pub traces: Vec<(String, PortableTrace)>,
    /// Boot-time shape of the network.
    pub shape: Shape,
    /// Suite jobs run during the set-up.
    pub jobs: usize,
    /// Nodes in the exported traces.
    pub portable_nodes: usize,
    /// Seconds the set-up took, checks excluded (the median over the
    /// repetitions once [`boot_repeated`] has run).
    pub setup_s: f64,
}

/// Build the engine from a generated network and exported traces — the
/// steps `coverd serve` takes, plus registering the suite.
fn boot_engine(
    net: Network,
    routing: routing::RoutingEngine,
    traces: &[(String, PortableTrace)],
    gc_watermark: Option<usize>,
) -> CoverageEngine {
    let mut engine = {
        let _s = netobs::span("engine.boot");
        let mut engine = CoverageEngine::new(net, 1);
        engine.attach_routing(routing);
        engine.set_gc_watermark(gc_watermark);
        engine
    };
    for (name, trace) in traces {
        let _s = netobs::span("engine.add_test");
        engine
            .add_test(name, trace)
            .expect("a trace exported from this network registers");
    }
    engine
}

/// A second engine over the same configuration and traces, for the
/// end-of-run identity check and the direct-call replay legs.
pub fn boot_fresh(k: u32, traces: &[(String, PortableTrace)], gc: Option<usize>) -> CoverageEngine {
    let (ft, routing) = fattree_builder(FatTreeParams::paper(k)).into_engine();
    boot_engine(ft.net, routing, traces, gc)
}

/// The whole set-up: generate and route the fat-tree, run the §8 suite
/// once with isolated per-job traces merged per test name, export the
/// traces, boot the engine and register them. Check (b) — the engine's
/// headline equals the batch analyzer's on the same network and merged
/// trace, two independent code paths — runs after the clock stops.
pub fn boot(k: u32, seed: u64, gc_watermark: Option<usize>, checks: &mut Checks) -> Booted {
    let start = Instant::now();
    let setup_span = netobs::span("setup");
    let builder = {
        let _s = netobs::span("topogen.build");
        fattree_builder(FatTreeParams::paper(k))
    };
    let (ft, routing) = {
        let _s = netobs::span("routing.compile");
        builder.into_engine()
    };
    let info = bench::fattree_info(&ft);
    let mut bdd = Bdd::new();
    let ms = {
        let _s = netobs::span("netmodel.matchsets");
        MatchSets::compute(&ft.net, &mut bdd)
    };
    let jobs = fattree_suite_jobs(&ft.net, &info, seed);
    let mut per_test: BTreeMap<&'static str, CoverageTrace> = BTreeMap::new();
    let mut jobs_failed = 0u64;
    {
        let _s = netobs::span("testsuite.suite");
        for job in &jobs {
            let (report, trace) = run_job_isolated(&mut bdd, &ft.net, &ms, &info, job);
            jobs_failed += !report.passed() as u64;
            per_test
                .entry(job.test_name())
                .or_default()
                .merge(&mut bdd, &trace);
        }
    }
    let traces: Vec<(String, PortableTrace)> = {
        let _s = netobs::span("trace.export");
        per_test
            .iter()
            .map(|(name, trace)| (name.to_string(), trace.export(&bdd)))
            .collect()
    };
    let tors: Vec<DeviceId> = ft.tors.iter().map(|t| t.0).collect();
    let shape = Shape::of(&ft.net, &tors, routing.link_endpoints());
    let mut engine = boot_engine(ft.net, routing, &traces, gc_watermark);
    drop(setup_span);
    let setup_s = start.elapsed().as_secs_f64();

    checks.many(
        jobs.len() as u64,
        jobs_failed,
        "suite jobs reported a failed check",
    );
    let mut merged = CoverageTrace::new();
    for trace in per_test.values() {
        merged.merge(&mut bdd, trace);
    }
    let batch = {
        let net = engine.network();
        let covered = CoveredSets::compute(net, &ms, &merged, &mut bdd);
        let analyzer = Analyzer::with_covered(net, &ms, &merged, covered);
        (
            analyzer.aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true),
            analyzer.aggregate_rules(&mut bdd, Aggregator::Weighted, |_, _| true),
            analyzer.aggregate_devices(&mut bdd, Aggregator::Fractional, |_, _| true),
        )
    };
    let h = engine.headline_metrics();
    let resident = (h.rule_fractional, h.rule_weighted, h.device_fractional);
    checks.op(batch == resident && batch.0.is_some(), || {
        format!("engine headline {resident:?} differs from the batch analyzer's {batch:?}")
    });

    let portable_nodes = traces
        .iter()
        .flat_map(|(_, t)| t.packets())
        .map(|(_, p)| p.nodes().len())
        .sum();
    Booted {
        engine,
        traces,
        shape,
        jobs: jobs.len(),
        portable_nodes,
        setup_s,
    }
}

/// Boot `plan.setups` times; the median is `setup_s`, the last engine is
/// the one the workload runs on.
fn boot_repeated(
    plan: &ResidentPlan,
    seed: u64,
    gc_watermark: Option<usize>,
    checks: &mut Checks,
) -> Booted {
    let mut times = Vec::with_capacity(plan.setups);
    let mut booted = boot(plan.k, seed, gc_watermark, checks);
    times.push(booted.setup_s);
    for _ in 1..plan.setups {
        drop(booted); // one engine alive at a time: VmHWM is one boot's
        booted = boot(plan.k, seed, gc_watermark, checks);
        times.push(booted.setup_s);
    }
    booted.setup_s = median(&times);
    booted
}

/// Bounded latency sample: the last `CAP` nanosecond readings, so the
/// memory a run holds does not depend on how many requests it fits in.
pub struct Latencies {
    samples: Vec<u32>,
    next: usize,
    /// Readings pushed since the last [`Latencies::close_batch`].
    open: usize,
    /// Median of each closed batch in microseconds.
    batch_p50_us: Vec<f64>,
}

impl Latencies {
    const CAP: usize = 1 << 20;

    /// An empty sample.
    pub fn new() -> Latencies {
        Latencies {
            samples: Vec::new(),
            next: 0,
            open: 0,
            batch_p50_us: Vec::new(),
        }
    }

    /// Record one reading.
    pub fn push(&mut self, ns: u128) {
        let ns = ns.min(u32::MAX as u128) as u32;
        self.open += 1;
        if self.samples.len() < Self::CAP {
            self.samples.push(ns);
        } else {
            self.samples[self.next] = ns;
            self.next = (self.next + 1) % Self::CAP;
        }
    }

    /// Readings held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// End a batch: keep the median of the readings pushed since the
    /// last one ended (a batch is far smaller than `CAP`).
    pub fn close_batch(&mut self) {
        let n = self.open.min(self.samples.len());
        if n == 0 {
            return;
        }
        let mut batch: Vec<u32> = if self.samples.len() < Self::CAP {
            self.samples[self.samples.len() - n..].to_vec()
        } else {
            (1..=n)
                .map(|back| self.samples[(self.next + Self::CAP - back) % Self::CAP])
                .collect()
        };
        self.batch_p50_us.push(percentile(&mut batch, 0.50) / 1e3);
        self.open = 0;
    }

    /// [`steady_mean`] of the batch medians, in microseconds.
    pub fn steady_p50_us(&self) -> f64 {
        steady_mean(&self.batch_p50_us)
    }

    /// `(p50, tail)` in microseconds; the tail is p99 when the sample
    /// supports it (ten readings beyond), else the highest percentile
    /// that is.
    pub fn summary_us(&mut self, what: &str) -> (f64, f64) {
        let (p50, tail, which) = latency_summary(&mut self.samples);
        eprintln!(
            "  {what}: n={} p50={:.2}us p{:.0}={:.2}us",
            self.samples.len(),
            p50 / 1e3,
            which * 100.0,
            tail / 1e3
        );
        (p50 / 1e3, tail / 1e3)
    }

    /// Median in microseconds.
    pub fn median_us(&self) -> f64 {
        let mut s = self.samples.clone();
        percentile(&mut s, 0.50) / 1e3
    }
}

/// One timed request through `daemon::handle`; the status is checked
/// against the only acceptable one.
fn timed(
    engine: &mut CoverageEngine,
    method: &str,
    target: &str,
    body: &str,
    checks: &mut Checks,
) -> (Response, u128) {
    let t = Instant::now();
    let resp = handle(engine, &Request::new(method, target, body));
    let ns = t.elapsed().as_nanos();
    checks.op(resp.status == 200, || {
        format!("{method} {target} answered {}: {}", resp.status, resp.body)
    });
    (resp, ns)
}

/// What the read loop measured.
pub struct ReadOut {
    /// Requests per second of each batch.
    pub rates: Vec<f64>,
    /// `/covers` latencies.
    pub covers: Latencies,
    /// Latencies of `/covers` answered from the query LRU and of those
    /// computed, split by watching the LRU's hit counter.
    pub hit_miss: (Latencies, Latencies),
    /// Hash of the issued requests.
    pub hash: OpHash,
    /// Response body bytes, requests, nanoseconds inside `handle` and
    /// seconds of batch wall clock, summed over the batches.
    bytes: u64,
    requests: u64,
    in_handle_ns: u128,
    wall_s: f64,
}

impl ReadOut {
    fn new() -> ReadOut {
        ReadOut {
            rates: Vec::new(),
            covers: Latencies::new(),
            hit_miss: (Latencies::new(), Latencies::new()),
            hash: OpHash::default(),
            bytes: 0,
            requests: 0,
            in_handle_ns: 0,
            wall_s: 0.0,
        }
    }

    /// Mean response body size in bytes.
    pub fn response_bytes_mean(&self) -> f64 {
        self.bytes as f64 / self.requests as f64
    }

    /// Share of the batches' wall clock spent inside `handle`.
    pub fn handle_share(&self) -> f64 {
        self.in_handle_ns as f64 / 1e9 / self.wall_s
    }
}

/// The read workload on a booted engine, one batch of
/// `plan.read_batch` requests at a time.
pub struct ReadRun {
    booted: Booted,
    plan: ResidentPlan,
    seed: u64,
    hot: Vec<RuleId>,
    /// Batches issued, measured or not: each draws its own requests.
    issued: u64,
    out: ReadOut,
}

impl ReadRun {
    /// Boot `plan.setups` times and read from the last engine, after
    /// one batch that is not measured: it fills the query LRU and the
    /// caches below it, so the first measured batch is like the rest.
    pub fn new(plan: ResidentPlan, seed: u64, checks: &mut Checks) -> ReadRun {
        let mut run = ReadRun::on(boot_repeated(&plan, seed, None, checks), plan, seed);
        crate::Workload::warm_up(&mut run, checks);
        run
    }

    /// Read from an engine booted elsewhere.
    pub fn on(booted: Booted, plan: ResidentPlan, seed: u64) -> ReadRun {
        ReadRun {
            hot: ops::hot_set(seed, &booted.shape),
            booted,
            plan,
            seed,
            issued: 0,
            out: ReadOut::new(),
        }
    }

    /// Run `n` batches.
    pub fn batches(mut self, n: usize, checks: &mut Checks) -> ReadRun {
        for _ in 0..n {
            crate::Workload::step(&mut self, checks);
        }
        self
    }

    /// The engine and the measurements.
    pub fn into_parts(self) -> (Booted, ReadOut) {
        (self.booted, self.out)
    }
}

impl crate::Workload for ReadRun {
    fn units(&self) -> usize {
        self.out.rates.len()
    }

    fn min_units(&self) -> usize {
        self.plan.min_batches
    }

    fn step(&mut self, checks: &mut Checks) {
        let (engine, out) = (&mut self.booted.engine, &mut self.out);
        let targets = ops::read_batch(
            self.seed,
            &self.booted.shape,
            &self.hot,
            self.issued,
            self.plan.read_batch,
        );
        self.issued += 1;
        let is_covers: Vec<bool> = targets.iter().map(|t| t.starts_with("/covers")).collect();
        for t in &targets {
            out.hash.add(t.as_bytes());
        }
        let start = Instant::now();
        for (target, &covers) in targets.iter().zip(&is_covers) {
            let hits_before = engine.query_cache_stats().hits;
            let (resp, ns) = timed(engine, "GET", target, "", checks);
            out.bytes += resp.body.len() as u64;
            out.in_handle_ns += ns;
            if covers {
                out.covers.push(ns);
                if engine.query_cache_stats().hits > hits_before {
                    out.hit_miss.0.push(ns);
                } else {
                    out.hit_miss.1.push(ns);
                }
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        out.requests += targets.len() as u64;
        out.wall_s += elapsed;
        out.rates.push(targets.len() as f64 / elapsed);
        out.hit_miss.1.close_batch();
    }

    fn warm_up(&mut self, checks: &mut Checks) {
        let measured = std::mem::replace(&mut self.out, ReadOut::new());
        self.step(checks);
        self.out = measured;
    }

    fn finish(mut self: Box<Self>, _checks: &mut Checks) -> Metrics {
        let mut m = Metrics::new();
        m.insert("setup_s".into(), self.booted.setup_s);
        m.insert("read_ops_per_s".into(), steady_mean(&self.out.rates));
        // The median over answers the engine computed, as on the churn
        // workload, where a delta flushes the LRU before every read. Over
        // all `/covers` the latency has two modes, an LRU hit costing a
        // tenth of a miss, and with about half in each the pooled median
        // sits on the cliff between them: it read 2.27 to 2.76 us from
        // one seed to the next while the 75th percentile moved half as
        // much. Hits show in `read_ops_per_s` and in the traced
        // run's `daemon.handle_hit_us`.
        self.out.covers.summary_us("covers, hits and misses");
        put_p50(&mut m, "covers", &mut self.out.hit_miss.1);
        let cache = self.booted.engine.query_cache_stats();
        eprintln!(
            "  read k={}: {} batches of {} requests, LRU hit ratio {:.3}, {:.1}% of the wall clock in handle",
            self.plan.k,
            self.out.rates.len(),
            self.plan.read_batch,
            cache.hits as f64 / (cache.hits + cache.misses) as f64,
            100.0 * self.out.handle_share()
        );
        m
    }
}

/// What the churn loop measured.
pub struct ChurnOut {
    /// Rounds per second of each batch.
    pub rates: Vec<f64>,
    /// `/covers` latencies (every one a miss: each delta flushes the LRU).
    pub covers: Latencies,
    /// `rule-insert` + `rule-withdraw` latency, one sample per round.
    pub rule_delta: Latencies,
    /// `link-down` + `link-up` latency, one sample per round.
    pub topo_delta: Latencies,
    /// Cold `/config-coverage` latencies.
    pub config: Latencies,
    /// `test-remove` and `test-add` latencies, in that order.
    pub test_cycle: (Latencies, Latencies),
    /// Latency of each delta during which the engine collected, with
    /// the arena's node count before and after.
    pub gc_pauses: Vec<(u128, f64, f64)>,
    /// Hash of the issued requests.
    pub hash: OpHash,
    /// Rounds run.
    pub rounds: u64,
    /// Nanoseconds inside `handle` and seconds of batch wall clock,
    /// summed over the batches.
    in_handle_ns: u128,
    wall_s: f64,
}

impl ChurnOut {
    fn new() -> ChurnOut {
        ChurnOut {
            rates: Vec::new(),
            covers: Latencies::new(),
            rule_delta: Latencies::new(),
            topo_delta: Latencies::new(),
            config: Latencies::new(),
            test_cycle: (Latencies::new(), Latencies::new()),
            gc_pauses: Vec::new(),
            hash: OpHash::default(),
            rounds: 0,
            in_handle_ns: 0,
            wall_s: 0.0,
        }
    }

    /// Share of the batches' wall clock spent inside `handle`.
    pub fn handle_share(&self) -> f64 {
        self.in_handle_ns as f64 / 1e9 / self.wall_s
    }
}

/// Fold a boot-time rule id into the device's current table.
fn current(engine: &CoverageEngine, id: RuleId) -> RuleId {
    let len = engine.network().device_rules(id.device).len() as u32;
    RuleId {
        device: id.device,
        index: id.index % len.max(1),
    }
}

/// The rule id a `rule-insert` answer names in its `detail` field.
fn inserted_id(resp: &Response) -> Option<RuleId> {
    let doc = netobs::json::parse(&resp.body).ok()?;
    parse_rule_id(doc.get("detail")?.as_str()?)
}

/// One delta through the daemon: timed, status-checked, and watched for
/// a collection (the engine collects at the end of a delta that leaves
/// the arena above the watermark).
fn delta(
    engine: &mut CoverageEngine,
    body: &str,
    out: &mut ChurnOut,
    checks: &mut Checks,
) -> (Response, u128) {
    out.hash.add(body.as_bytes());
    let collections = engine.gc_collections();
    let (resp, ns) = timed(engine, "POST", "/delta", body, checks);
    out.in_handle_ns += ns;
    if engine.gc_collections() > collections {
        // The gauges exist only while `netobs` collects (the traced run).
        let gauges = netobs::gauges_snapshot();
        let gauge = |name: &str| gauges.get(name).copied().unwrap_or(0.0);
        out.gc_pauses.push((
            ns,
            gauge("bdd.gc.nodes_before"),
            gauge("bdd.gc.nodes_after"),
        ));
    }
    (resp, ns)
}

/// The `/covers` reads that follow a delta.
fn reads(engine: &mut CoverageEngine, picks: &[RuleId], out: &mut ChurnOut, checks: &mut Checks) {
    for &id in picks {
        let target = ops::covers_target(current(engine, id));
        out.hash.add(target.as_bytes());
        let (_, ns) = timed(engine, "GET", &target, "", checks);
        out.in_handle_ns += ns;
        out.covers.push(ns);
    }
}

/// One round, every delta undone before it ends. A delta sample is the
/// pair — the insert plus its withdraw, the link-down plus its link-up:
/// the halves differ tenfold (an insert builds BDD nodes, a withdraw
/// drops a row), so a median over the pooled halves would sit on the
/// cliff between them and flip with the mix.
fn churn_round(
    engine: &mut CoverageEngine,
    round: &Round,
    out: &mut ChurnOut,
    checks: &mut Checks,
) {
    let (resp, insert_ns) = delta(engine, &round.insert_body(), out, checks);
    reads(engine, &round.reads[0], out, checks);
    match inserted_id(&resp) {
        Some(id) => {
            let (_, withdraw_ns) = delta(engine, &ops::withdraw_body(id), out, checks);
            out.rule_delta.push(insert_ns + withdraw_ns);
        }
        None => checks.op(false, || {
            format!("rule-insert answer names no rule: {}", resp.body)
        }),
    }
    let (_, down_ns) = delta(engine, &round.link_body(false), out, checks);
    reads(engine, &round.reads[1], out, checks);
    let (_, up_ns) = delta(engine, &round.link_body(true), out, checks);
    out.topo_delta.push(down_ns + up_ns);
    reads(engine, &round.reads[2], out, checks);
}

/// The churn workload on a booted engine, one batch of
/// `plan.churn_batch` rounds at a time. Every delta is undone within its
/// round, so the engine ends where it booted.
pub struct ChurnRun {
    booted: Booted,
    plan: ResidentPlan,
    seed: u64,
    /// The `test-remove` and `test-add` documents of the cycled test.
    test_cycle: (String, String),
    out: ChurnOut,
}

impl ChurnRun {
    /// Boot `plan.setups` times and churn the last engine, after one
    /// batch that is not measured.
    pub fn new(plan: ResidentPlan, seed: u64, checks: &mut Checks) -> ChurnRun {
        let booted = boot_repeated(&plan, seed, Some(plan.gc_watermark), checks);
        let mut run = ChurnRun::on(booted, plan, seed);
        crate::Workload::warm_up(&mut run, checks);
        run
    }

    /// Churn an engine booted elsewhere.
    pub fn on(booted: Booted, plan: ResidentPlan, seed: u64) -> ChurnRun {
        let cycled = booted
            .traces
            .iter()
            .find(|(name, _)| name == CYCLED_TEST)
            .expect("the suite has a contract test");
        let test_cycle = (
            format!("{{\"kind\":\"test-remove\",\"name\":\"{CYCLED_TEST}\"}}"),
            format!(
                "{{\"kind\":\"test-add\",\"name\":\"{CYCLED_TEST}\",\"trace\":{}}}",
                trace_to_json(&cycled.1)
            ),
        );
        ChurnRun {
            booted,
            plan,
            seed,
            test_cycle,
            out: ChurnOut::new(),
        }
    }

    /// Run `n` batches.
    pub fn batches(mut self, n: usize, checks: &mut Checks) -> ChurnRun {
        for _ in 0..n {
            crate::Workload::step(&mut self, checks);
        }
        self
    }

    /// Run the next `n` rounds, with the test cycle and the cold config
    /// query where they fall; returns the seconds they took.
    fn rounds(&mut self, n: u64, checks: &mut Checks) -> f64 {
        let (engine, out, plan) = (&mut self.booted.engine, &mut self.out, &self.plan);
        let rounds: Vec<Round> = (0..n)
            .map(|i| ops::round(self.seed, &self.booted.shape, out.rounds + i))
            .collect();
        let start = Instant::now();
        for round in &rounds {
            churn_round(engine, round, out, checks);
            out.rounds += 1;
            if out.rounds.is_multiple_of(plan.test_cycle_every) {
                let (_, ns) = delta(engine, &self.test_cycle.0, out, checks);
                out.test_cycle.0.push(ns);
                let (_, ns) = delta(engine, &self.test_cycle.1, out, checks);
                out.test_cycle.1.push(ns);
            }
            if out.rounds.is_multiple_of(plan.config_every) {
                let (_, ns) = timed(engine, "GET", "/config-coverage", "", checks);
                out.config.push(ns);
                out.config.close_batch(); // every query is a unit of its own
                let (_, metrics_ns) = timed(engine, "GET", "/metrics", "", checks);
                out.in_handle_ns += ns + metrics_ns;
            }
        }
        start.elapsed().as_secs_f64()
    }

    /// The engine and the measurements.
    pub fn into_parts(self) -> (Booted, ChurnOut) {
        (self.booted, self.out)
    }
}

impl crate::Workload for ChurnRun {
    fn units(&self) -> usize {
        self.out.rates.len()
    }

    fn min_units(&self) -> usize {
        self.plan.min_batches
    }

    fn step(&mut self, checks: &mut Checks) {
        let elapsed = self.rounds(self.plan.churn_batch, checks);
        let out = &mut self.out;
        out.wall_s += elapsed;
        out.rates.push(self.plan.churn_batch as f64 / elapsed);
        out.covers.close_batch();
        out.rule_delta.close_batch();
        out.topo_delta.close_batch();
    }

    /// Four rounds for every ToR: a round works on the shards of one
    /// ToR drawn by lot, so it takes a few rounds per ToR before every
    /// shard has been touched and a round costs what it does in the
    /// long run (the first fifty of a stretch cost a third more). The
    /// rounds count, so the measured ones insert other addresses.
    fn warm_up(&mut self, checks: &mut Checks) {
        let unmeasured = ChurnOut {
            rounds: self.out.rounds,
            ..ChurnOut::new()
        };
        let measured = std::mem::replace(&mut self.out, unmeasured);
        self.rounds(4 * self.booted.shape.tors.len() as u64, checks);
        self.out = ChurnOut {
            rounds: self.out.rounds,
            ..measured
        };
    }

    fn finish(mut self: Box<Self>, checks: &mut Checks) -> Metrics {
        check_back_at_boot(&mut self.booted, &self.plan, self.seed, checks);
        let collections = self.booted.engine.gc_collections();
        let out = &mut self.out;
        checks.op(collections >= 3, || {
            format!(
                "the watermark collector ran {collections} times in {} rounds, fewer than 3",
                out.rounds
            )
        });
        let mut m = Metrics::new();
        m.insert("setup_s".into(), self.booted.setup_s);
        m.insert("churn_rounds_per_s".into(), steady_mean(&out.rates));
        put_p50(&mut m, "covers", &mut out.covers);
        put_p50(&mut m, "rule_delta", &mut out.rule_delta);
        put_p50(&mut m, "topo_delta", &mut out.topo_delta);
        m.insert("config_query_ms".into(), out.config.steady_p50_us() / 1e3);
        eprintln!(
            "  churn k={}: {} batches of {} rounds, {} collections, {} cold config queries, {:.1}% of the wall clock in handle",
            self.plan.k,
            out.rates.len(),
            self.plan.churn_batch,
            collections,
            out.config.len(),
            100.0 * out.handle_share()
        );
        m
    }
}

/// A response body with its `version` field removed: the engine's
/// version counts deltas, which a churned engine has and a fresh one
/// has not.
fn strip_version(body: &str) -> String {
    let Some(start) = body.find("\"version\":") else {
        return body.to_string();
    };
    match body[start..].find(',') {
        Some(comma) => format!("{}{}", &body[..start], &body[start + comma + 1..]),
        None => body.to_string(),
    }
}

/// Check (d): after the churn loop every delta has been undone, so the
/// engine must answer `/covers` byte for byte like a freshly booted one
/// (version aside) on `plan.verify_rules` seeded rules and on one
/// `/config-coverage` drill-down, hold the fresh
/// engine's tables on every device (a link left down changes actions,
/// which `/covers` does not show), and report its headline.
pub fn check_back_at_boot(
    booted: &mut Booted,
    plan: &ResidentPlan,
    seed: u64,
    checks: &mut Checks,
) {
    let mut fresh = boot_fresh(plan.k, &booted.traces, None);
    // One `?construct=` drill-down rides along (the session over the
    // first round's link): too dear for a timed loop, checked here.
    let (a, b) = ops::round(seed, &booted.shape, 0).link;
    let drill_down = format!(
        "/config-coverage?construct={}",
        netmodel::Construct::session(a, b).wire_id()
    );
    let targets = ops::verify_rules(seed, &booted.shape, plan.verify_rules)
        .into_iter()
        .map(ops::covers_target)
        .chain([drill_down]);
    for target in targets {
        let req = Request::new("GET", &target, "");
        let churned = handle(&mut booted.engine, &req);
        let reference = handle(&mut fresh, &req);
        checks.op(
            churned.status == 200 && strip_version(&churned.body) == strip_version(&reference.body),
            || {
                format!(
                    "{target} after churn: {} {} — fresh engine: {} {}",
                    churned.status, churned.body, reference.status, reference.body
                )
            },
        );
    }
    let (churned, reference) = (booted.engine.network(), fresh.network());
    for d in (0..booted.shape.table_len.len()).map(|d| DeviceId(d as u32)) {
        checks.op(churned.device_rules(d) == reference.device_rules(d), || {
            format!("device {} holds another table than at boot", d.0)
        });
    }
    let (after, boot) = (booted.engine.headline_metrics(), fresh.headline_metrics());
    checks.op(after == boot, || {
        format!("headline after churn {after:?} differs from a fresh engine's {boot:?}")
    });
}

/// Report a latency class as `<name>_p50_us`: the steady mean over the
/// batches of each batch's median. The median and the tail over all
/// readings are logged beside it with the sample count (the p99s are
/// per-layer metrics, taken in the traced run).
fn put_p50(m: &mut Metrics, name: &str, lat: &mut Latencies) {
    lat.summary_us(name);
    m.insert(format!("{name}_p50_us"), lat.steady_p50_us());
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAN: ResidentPlan = ResidentPlan {
        k: 4,
        setups: 1,
        read_batch: 500,
        churn_batch: 10,
        min_batches: 3,
        gc_watermark: 6_000,
        test_cycle_every: 5,
        config_every: 10,
        verify_rules: 50,
    };

    #[test]
    fn boot_agrees_with_the_batch_analyzer_and_registers_the_suite() {
        let mut checks = Checks::default();
        let booted = boot(4, 0xC0FFEE, None, &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        let names: Vec<&str> = booted.engine.test_names().collect();
        assert_eq!(
            names,
            [
                "Contract",
                "DefaultRouteCheck",
                "ToRPingmesh",
                "ToRReachability"
            ]
        );
        assert_eq!(
            booted.shape.rule_count(),
            booted.engine.network().rule_count() as u64
        );
        assert!(booted.jobs > 0 && booted.portable_nodes > 0);
    }

    #[test]
    fn the_loops_issue_one_request_list_per_seed() {
        let run = |seed: u64| {
            let mut checks = Checks::default();
            let booted = boot(4, seed, Some(PLAN.gc_watermark), &mut checks);
            let (booted, read) = ReadRun::on(booted, PLAN, seed)
                .batches(3, &mut checks)
                .into_parts();
            let (_, churn) = ChurnRun::on(booted, PLAN, seed)
                .batches(3, &mut checks)
                .into_parts();
            assert_eq!(checks.failed, 0, "{:?}", checks.notes);
            (read.hash, churn.hash)
        };
        let (read, churn) = run(0xC0FFEE);
        assert_eq!(run(0xC0FFEE), (read, churn));
        let (other_read, other_churn) = run(0xC0FFEF);
        assert_ne!(other_read, read);
        assert_ne!(other_churn, churn);
    }

    #[test]
    fn churn_returns_the_engine_to_its_boot_state() {
        let mut checks = Checks::default();
        let booted = boot(4, 7, Some(PLAN.gc_watermark), &mut checks);
        let (mut booted, out) = ChurnRun::on(booted, PLAN, 7)
            .batches(3, &mut checks)
            .into_parts();
        assert_eq!(out.rounds, 30);
        assert_eq!(out.rule_delta.len(), 30);
        assert_eq!(out.topo_delta.len(), 30);
        assert_eq!(out.covers.len(), 900);
        assert_eq!((out.test_cycle.0.len(), out.config.len()), (6, 3));
        assert!(booted.engine.version() > 0, "deltas were applied");
        // Every table is as long as at boot, and every rule of the
        // network answers like a freshly booted engine (version aside).
        let tables: Vec<u32> = (0..booted.shape.table_len.len())
            .map(|d| {
                booted
                    .engine
                    .network()
                    .device_rules(DeviceId(d as u32))
                    .len() as u32
            })
            .collect();
        assert_eq!(tables, booted.shape.table_len);
        let all_rules = ResidentPlan {
            verify_rules: 2_000,
            ..PLAN
        };
        let before = checks.attempted;
        check_back_at_boot(&mut booted, &all_rules, 7, &mut checks);
        assert_eq!(checks.attempted - before, 2_002 + tables.len() as u64);
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
    }

    #[test]
    fn a_delta_left_standing_fails_the_identity_check() {
        let mut checks = Checks::default();
        let mut booted = boot(4, 7, None, &mut checks);
        let round = ops::round(7, &booted.shape, 0);
        let resp = handle(
            &mut booted.engine,
            &Request::new("POST", "/delta", &round.link_body(false)),
        );
        assert_eq!(resp.status, 200);
        check_back_at_boot(&mut booted, &PLAN, 7, &mut checks);
        assert!(
            checks.failed > 0,
            "a downed link must not pass for boot state"
        );
    }

    #[test]
    fn version_is_stripped_and_nothing_else() {
        let body =
            "{\"rule\":\"r3.7\",\"version\":412,\"match_probability\":0.5,\"exercised\":true}";
        assert_eq!(
            strip_version(body),
            "{\"rule\":\"r3.7\",\"match_probability\":0.5,\"exercised\":true}"
        );
        assert_eq!(strip_version("{\"error\":\"x\"}"), "{\"error\":\"x\"}");
    }

    #[test]
    fn batch_medians_follow_the_ring_around() {
        let mut lat = Latencies::new();
        for batch in 0..3u128 {
            for _ in 0..5 {
                lat.push(1_000 * (batch + 1));
            }
            lat.close_batch();
        }
        lat.close_batch(); // nothing pushed: no batch
        assert_eq!(lat.batch_p50_us, [1.0, 2.0, 3.0]);
        assert_eq!(lat.steady_p50_us(), 2.0);
        // A batch that straddles the point where the ring wraps.
        for _ in 0..(Latencies::CAP - 15 - 3) {
            lat.push(7_000);
        }
        lat.close_batch();
        for ns in [9_000, 9_000, 9_000, 9_000, 9_000, 9_000] {
            lat.push(ns);
        }
        lat.close_batch();
        assert_eq!(lat.len(), Latencies::CAP);
        assert_eq!(lat.batch_p50_us[3..], [7.0, 9.0]);
    }

    #[test]
    fn latency_sample_is_bounded_and_keeps_the_latest() {
        let mut lat = Latencies::new();
        for i in 0..(Latencies::CAP + 10) {
            lat.push(i as u128);
        }
        assert_eq!(lat.len(), Latencies::CAP);
        assert!(lat.samples.contains(&((Latencies::CAP + 9) as u32)));
        assert!(!lat.samples.contains(&0));
    }
}
