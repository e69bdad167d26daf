//! The cold batch arc: parameters → network → match sets → test suite
//! with a live tracker → Algorithm 1 → the four local aggregates, and on
//! the regional network path coverage on top. One function runs it for
//! both the timed (untraced) iterations and the traced ones; every call
//! into a layer sits in a harness span, which costs one atomic load while
//! `netobs` is off.

use std::time::Instant;

use dataplane::paths::{edge_starts, ExploreOpts};
use dataplane::{explore, traceroute, Forwarder};
use netbdd::{Bdd, Stats};
use netmodel::{Location, MatchSets, Network, Packet};
use netobs::SpanNode;
use testsuite::{fattree_suite_jobs, regional_suite_jobs, run_job, NetworkInfo, SuiteJob};
use topogen::{fattree_builder, regional, FatTreeParams, RegionalParams};
use yardstick::pathcov::path_coverage;
use yardstick::rng::splitmix64;
use yardstick::{Aggregator, Analyzer, CoveredSets, Tracker};

use crate::out::{Checks, Metrics};
use crate::stats::{loglog_slope, median, steady_mean};

/// Which network a batch workload generates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetSpec {
    /// The paper's §8 fat-tree of arity `k` (hosted prefixes only).
    FatTree(u32),
    /// `topogen::regional` at `scale` × the default pod dimensions.
    Regional(u32),
}

impl NetSpec {
    fn regional_params(scale: u32) -> RegionalParams {
        let d = RegionalParams::default();
        RegionalParams {
            pods_per_dc: d.pods_per_dc * scale,
            tors_per_pod: d.tors_per_pod * scale,
            aggs_per_pod: d.aggs_per_pod * scale,
            spines_per_dc: d.spines_per_dc * scale,
            ..d
        }
    }

    /// Generate the network and its ground truth. Pure in the
    /// parameters: every call returns the same network. The fat-tree is
    /// built in two calls, so topology generation and FIB compilation
    /// get a harness span each; `regional` is one call, and its routing
    /// share is read off the library's own `fib_build` span.
    pub fn generate(self) -> (Network, NetworkInfo) {
        let _span = netobs::span("generate");
        match self {
            NetSpec::FatTree(k) => {
                let builder = {
                    let _s = netobs::span("topogen.build");
                    fattree_builder(FatTreeParams::paper(k))
                };
                let ft = {
                    let _s = netobs::span("routing.compile");
                    builder.build()
                };
                let info = bench::fattree_info(&ft);
                (ft.net, info)
            }
            NetSpec::Regional(scale) => {
                let r = regional(Self::regional_params(scale));
                let info = bench::regional_info(&r);
                (r.net, info)
            }
        }
    }

    /// The suite's job list. Pingmesh sampling derives from `seed`; the
    /// regional suite is symbolic and inspection only, so it has no
    /// random choices to seed.
    pub fn jobs(self, net: &Network, info: &NetworkInfo, seed: u64) -> Vec<SuiteJob> {
        match self {
            NetSpec::FatTree(_) => fattree_suite_jobs(net, info, seed),
            NetSpec::Regional(_) => regional_suite_jobs(net, info),
        }
    }

    fn with_paths(self) -> bool {
        matches!(self, NetSpec::Regional(_))
    }
}

/// The four local aggregates of one arc: device, out-interface, rule
/// fractional and rule weighted coverage.
pub type Aggregates = [Option<f64>; 4];

/// Everything one cold arc produced that later checks compare.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ArcFacts {
    /// The four aggregates (compared bit for bit across iterations).
    pub aggregates: Aggregates,
    /// Rules in the generated network.
    pub rules: usize,
    /// Arena nodes once the match sets exist.
    pub matchsets_nodes: usize,
    /// Manager statistics at the end of the arc.
    pub bdd: Stats,
    /// `(mark_packet, mark_rule)` calls the tracker accepted.
    pub tracker_calls: (u64, u64),
    /// Suite jobs whose checks did not all pass.
    pub jobs_failed: usize,
    /// Paths enumerated and paths covered (regional only).
    pub paths: Option<(u64, u64)>,
}

/// Wall clock of one arc, as the untraced run reports it.
#[derive(Clone, Copy, Debug)]
pub struct ArcTimes {
    /// Parameters → all four aggregates.
    pub report_s: f64,
    /// `path_coverage` on the finished analyzer (0 when not run).
    pub path_report_s: f64,
}

/// Run the suite's jobs against `tracker`, returning how many failed.
fn run_suite(
    bdd: &mut Bdd,
    net: &Network,
    ms: &MatchSets,
    info: &NetworkInfo,
    tracker: &mut Tracker,
    jobs: &[SuiteJob],
) -> usize {
    jobs.iter()
        .filter(|job| !run_job(bdd, net, ms, info, tracker, job).passed())
        .count()
}

/// One cold arc in a fresh manager; on the regional network path
/// coverage follows, enumerating at most `max_paths` paths.
pub fn cold_arc(spec: NetSpec, jobs: &[SuiteJob], max_paths: u64) -> (ArcFacts, ArcTimes) {
    let start = Instant::now();
    let arc_span = netobs::span("arc");
    let (net, info) = spec.generate();
    let mut bdd = Bdd::new();
    let ms = {
        let _s = netobs::span("netmodel.matchsets");
        MatchSets::compute(&net, &mut bdd)
    };
    let matchsets_nodes = bdd.node_count();
    let mut tracker = Tracker::new();
    let jobs_failed = {
        let _s = netobs::span("testsuite.suite");
        run_suite(&mut bdd, &net, &ms, &info, &mut tracker, jobs)
    };
    let tracker_calls = tracker.call_counts();
    let trace = {
        let _s = netobs::span("tracker.into_trace");
        tracker.into_trace()
    };
    let covered = {
        let _s = netobs::span("covered.compute");
        CoveredSets::compute(&net, &ms, &trace, &mut bdd)
    };
    let analyzer = Analyzer::with_covered(&net, &ms, &trace, covered);
    let aggregates = {
        let device = {
            let _s = netobs::span("analyzer.device");
            analyzer.aggregate_devices(&mut bdd, Aggregator::Fractional, |_, _| true)
        };
        let iface = {
            let _s = netobs::span("analyzer.iface");
            analyzer.aggregate_out_ifaces(&mut bdd, Aggregator::Fractional, |_, _| true)
        };
        let rule_frac = {
            let _s = netobs::span("analyzer.rule_frac");
            analyzer.aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true)
        };
        let rule_weighted = {
            let _s = netobs::span("analyzer.rule_weighted");
            analyzer.aggregate_rules(&mut bdd, Aggregator::Weighted, |_, _| true)
        };
        [device, iface, rule_frac, rule_weighted]
    };
    drop(arc_span);
    let report_s = start.elapsed().as_secs_f64();

    let mut path_report_s = 0.0;
    let paths = spec.with_paths().then(|| {
        let fwd = Forwarder::new(&net, &ms);
        let starts = edge_starts(&mut bdd, &fwd);
        let opts = ExploreOpts {
            max_paths,
            ..ExploreOpts::default()
        };
        let t = Instant::now();
        let pc = {
            let _s = netobs::span("pathcov.path");
            path_coverage(&mut bdd, &analyzer, &starts, &opts)
        };
        path_report_s = t.elapsed().as_secs_f64();
        (pc.stats.paths, pc.covered_paths)
    });

    let facts = ArcFacts {
        aggregates,
        rules: net.rule_count(),
        matchsets_nodes,
        bdd: bdd.stats(),
        tracker_calls,
        jobs_failed,
        paths,
    };
    (
        facts,
        ArcTimes {
            report_s,
            path_report_s,
        },
    )
}

/// How many arcs a batch workload times.
#[derive(Clone, Copy, Debug)]
pub struct BatchPlan {
    /// The network.
    pub spec: NetSpec,
    /// Set-up repetitions before the first arc; one more follows every
    /// timed arc, and the median over all of them is `setup_s`.
    pub setups: usize,
    /// Timed iterations at least; more run while the time budget lasts.
    pub min_iters: usize,
    /// Path-enumeration budget (regional only).
    pub max_paths: u64,
}

/// Set-up of a batch workload: what must exist before the first timed
/// arc — the job list, which needs one generated network to name its
/// devices, prefixes and ToR pairs.
fn setup(spec: NetSpec, seed: u64) -> Vec<SuiteJob> {
    let (net, info) = spec.generate();
    spec.jobs(&net, &info, seed)
}

/// Checks (a) and (e): every iteration of a batch workload repeats the
/// first one exactly — aggregates bit for bit, node and operation
/// counts, tracker calls, path counts — and no suite job fails.
fn check_repeats(checks: &mut Checks, jobs: usize, first: &ArcFacts, again: &ArcFacts) {
    checks.many(
        jobs as u64,
        again.jobs_failed as u64,
        "suite jobs reported a failed check",
    );
    checks.op(again.aggregates == first.aggregates, || {
        format!(
            "aggregates differ between iterations: {:?} vs {:?}",
            first.aggregates, again.aggregates
        )
    });
    checks.op(
        again.bdd.nodes == first.bdd.nodes
            && again.matchsets_nodes == first.matchsets_nodes
            && again.bdd.ops == first.bdd.ops,
        || {
            format!(
                "BDD counts differ between iterations: {} nodes / {} ops vs {} / {}",
                first.bdd.nodes,
                first.bdd.ops.total(),
                again.bdd.nodes,
                again.bdd.ops.total()
            )
        },
    );
    checks.op(again.tracker_calls == first.tracker_calls, || {
        format!(
            "tracker calls differ between iterations: {:?} vs {:?}",
            first.tracker_calls, again.tracker_calls
        )
    });
    checks.op(again.paths == first.paths, || {
        format!(
            "path counts differ between iterations: {:?} vs {:?}",
            first.paths, again.paths
        )
    });
}

/// The untraced run of a batch workload, one cold arc at a time:
/// `setup_s`, `report_s` and (on the regional network) `path_report_s`
/// are taken over the set-ups (median) and the timed arcs (steady mean).
pub struct BatchRun {
    plan: BatchPlan,
    jobs: Vec<SuiteJob>,
    seed: u64,
    first: ArcFacts,
    setup_times: Vec<f64>,
    report: Vec<f64>,
    path: Vec<f64>,
}

impl BatchRun {
    /// Set up `plan.setups` times, then run the warm-up arc that later
    /// arcs are compared against.
    pub fn new(plan: BatchPlan, seed: u64, checks: &mut Checks) -> BatchRun {
        let mut run = BatchRun {
            plan,
            jobs: Vec::new(),
            seed,
            first: ArcFacts::default(),
            setup_times: Vec::new(),
            report: Vec::new(),
            path: Vec::new(),
        };
        for _ in 0..plan.setups {
            run.set_up();
        }
        run.first = cold_arc(plan.spec, &run.jobs, plan.max_paths).0;
        check_repeats(checks, run.jobs.len(), &run.first, &run.first);
        run
    }

    /// One timed set-up.
    fn set_up(&mut self) {
        let t = Instant::now();
        self.jobs = setup(self.plan.spec, self.seed);
        self.setup_times.push(t.elapsed().as_secs_f64());
    }
}

impl crate::Workload for BatchRun {
    fn units(&self) -> usize {
        self.report.len()
    }

    fn min_units(&self) -> usize {
        self.plan.min_iters
    }

    /// One cold arc, and one more set-up: a set-up takes tens of
    /// milliseconds, so `plan.setups` of them in a row sample one moment
    /// of the host; one per arc spreads the sample over the run.
    fn step(&mut self, checks: &mut Checks) {
        let (facts, times) = cold_arc(self.plan.spec, &self.jobs, self.plan.max_paths);
        check_repeats(checks, self.jobs.len(), &self.first, &facts);
        self.report.push(times.report_s);
        self.path.push(times.path_report_s);
        self.set_up();
    }

    /// Nothing: a cold arc builds everything it touches, so it has no
    /// state of its own that another workload's units could have cooled.
    fn warm_up(&mut self, _checks: &mut Checks) {}

    fn finish(self: Box<Self>, _checks: &mut Checks) -> Metrics {
        let mut m = Metrics::new();
        m.insert("setup_s".into(), median(&self.setup_times));
        m.insert("report_s".into(), steady_mean(&self.report));
        if self.plan.spec.with_paths() {
            m.insert("path_report_s".into(), steady_mean(&self.path));
        }
        eprintln!(
            "  {:?}: {} rules, {} jobs, {} timed arcs, {} BDD nodes",
            self.plan.spec,
            self.first.rules,
            self.jobs.len(),
            self.report.len(),
            self.first.bdd.nodes
        );
        m
    }
}

// ----- traced run ---------------------------------------------------------

/// Total seconds of every span named `name` below `node`.
pub fn span_secs(node: &SpanNode, name: &str) -> f64 {
    let mut total = 0.0;
    node.walk(&mut |n, _| {
        if n.name == name {
            total += n.total_secs();
        }
    });
    total
}

/// Drain what `netobs` collected, refusing a span tree whose children
/// outlast their parents.
pub fn drain_report() -> Result<netobs::Report, String> {
    let report = netobs::report();
    if report.check_consistent() {
        Ok(report)
    } else {
        Err(format!(
            "span tree is time-inconsistent:\n{}",
            report.render()
        ))
    }
}

/// Layer seconds of one traced arc, read off its span tree.
#[derive(Debug)]
struct ArcLayers {
    arc: f64,
    topogen: f64,
    routing: f64,
    matchsets: f64,
    suite: f64,
    tests: [f64; 4],
    into_trace: f64,
    covered: f64,
    analyzer: [f64; 4],
    path: f64,
    unattributed: f64,
}

/// The suite's test spans, in the order `ArcLayers::tests` holds them.
/// `Contract` is ToRContract on the fat-tree and the symbolic local
/// tests (AggCanReachTorLoopback, InternalRouteCheck) on the regional
/// network.
const TEST_SPANS: [&str; 4] = [
    "ToRPingmesh",
    "ToRReachability",
    "Contract",
    "DefaultRouteCheck",
];
const ANALYZER_SPANS: [&str; 4] = [
    "analyzer.device",
    "analyzer.iface",
    "analyzer.rule_frac",
    "analyzer.rule_weighted",
];

fn arc_layers(root: &SpanNode) -> Result<ArcLayers, String> {
    let arc = root.child("arc").ok_or("traced arc recorded no span")?;
    let generate = span_secs(arc, "generate");
    let routing = match span_secs(arc, "routing.compile") {
        0.0 => span_secs(arc, "fib_build"),
        compile => compile,
    };
    let attributed: f64 = arc.children.iter().map(SpanNode::total_secs).sum();
    let total = arc.total_secs();
    Ok(ArcLayers {
        arc: total,
        topogen: generate - routing,
        routing,
        matchsets: span_secs(arc, "netmodel.matchsets"),
        suite: span_secs(arc, "testsuite.suite"),
        tests: TEST_SPANS.map(|n| span_secs(arc, n)),
        into_trace: span_secs(arc, "tracker.into_trace"),
        covered: span_secs(arc, "covered.compute"),
        analyzer: ANALYZER_SPANS.map(|n| span_secs(arc, n)),
        path: span_secs(root, "pathcov.path"),
        unattributed: (total - attributed) / total,
    })
}

/// One traced arc: enable collection, run, drain the report.
fn traced_arc(
    spec: NetSpec,
    jobs: &[SuiteJob],
    max_paths: u64,
) -> Result<(ArcFacts, ArcLayers, netobs::Report), String> {
    netobs::enable();
    let (facts, _) = cold_arc(spec, jobs, max_paths);
    let report = drain_report();
    netobs::disable();
    let report = report?;
    let root = report
        .thread("main")
        .ok_or("traced arc recorded no spans")?;
    let layers = arc_layers(root)?;
    Ok((facts, layers, report))
}

/// The suite once more with tracking off, on a fresh manager and fresh
/// match sets so it inherits no memo hits from the tracked run.
fn suite_untracked_s(spec: NetSpec, jobs: &[SuiteJob]) -> f64 {
    let (net, info) = spec.generate();
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&net, &mut bdd);
    let mut tracker = Tracker::disabled();
    let t = Instant::now();
    run_suite(&mut bdd, &net, &ms, &info, &mut tracker, jobs);
    t.elapsed().as_secs_f64()
}

/// Median microseconds of `samples` seeded concrete traceroutes between
/// ToR subnets, and the rate of bare path enumeration (paths per second
/// of `dataplane::explore` with a visitor that does nothing).
fn dataplane_probe(spec: NetSpec, seed: u64, samples: usize, max_paths: u64) -> (f64, f64) {
    let (net, info) = spec.generate();
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&net, &mut bdd);
    let mut rng = seed;
    let tors = &info.tor_subnets;
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let (src, _, _) = tors[splitmix64(&mut rng) as usize % tors.len()];
        let (_, prefix, _) = tors[splitmix64(&mut rng) as usize % tors.len()];
        let dst = prefix.nth_addr(1 + splitmix64(&mut rng) as u128 % 200) as u32;
        let t = Instant::now();
        let res = traceroute(
            &mut bdd,
            &net,
            &ms,
            Location::device(src),
            Packet::v4_to(dst),
            64,
        );
        times.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(res);
    }
    let paths_per_s = if spec.with_paths() {
        let fwd = Forwarder::new(&net, &ms);
        let starts = edge_starts(&mut bdd, &fwd);
        let opts = ExploreOpts {
            max_paths,
            ..ExploreOpts::default()
        };
        let t = Instant::now();
        let stats = explore(&mut bdd, &fwd, &starts, &opts, |_, _| {});
        stats.paths as f64 / t.elapsed().as_secs_f64()
    } else {
        0.0
    };
    (median(&times), paths_per_s)
}

/// The traced run of a batch workload: per-layer metrics from the span
/// trees of `iters` traced arcs, the tracker-off comparison, a dataplane
/// probe, the tracing overhead against `iters` untraced arcs in the same
/// process, and — for the fat-tree — the growth exponents over smaller
/// arities. The last arc's report is returned for the trace file.
pub fn run_traced(
    plan: BatchPlan,
    seed: u64,
    iters: usize,
    scaling_ks: &[u32],
    checks: &mut Checks,
) -> Result<(Metrics, netobs::Report), String> {
    let BatchPlan {
        spec, max_paths, ..
    } = plan;
    let jobs = setup(spec, seed);
    let (first, _) = cold_arc(spec, &jobs, max_paths); // warm-up
    check_repeats(checks, jobs.len(), &first, &first);

    let mut untraced = Vec::new();
    let mut layers = Vec::new();
    let mut last_report = None;
    for _ in 0..iters {
        let (facts, times) = cold_arc(spec, &jobs, max_paths);
        check_repeats(checks, jobs.len(), &first, &facts);
        untraced.push(times.report_s);
        let (facts, l, report) = traced_arc(spec, &jobs, max_paths)?;
        check_repeats(checks, jobs.len(), &first, &facts);
        layers.push(l);
        last_report = Some(report);
    }
    let med = |f: &dyn Fn(&ArcLayers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());

    netobs::enable(); // like for like: the tracked suite ran with spans on
    let suite_off = suite_untracked_s(spec, &jobs);
    netobs::disable();
    let suite_on = med(&|l| l.suite);
    let (traceroute_us, paths_per_s) = dataplane_probe(spec, seed, 2_000, max_paths);

    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    put("topogen.build_s", med(&|l| l.topogen));
    put("routing.compile_s", med(&|l| l.routing));
    put("netmodel.matchsets_s", med(&|l| l.matchsets));
    put("netmodel.matchsets_nodes", first.matchsets_nodes as f64);
    put("netbdd.nodes_final", first.bdd.nodes as f64);
    put("netbdd.ops_total", first.bdd.ops.total() as f64);
    put("netbdd.unique_hit_ratio", first.bdd.unique_hit_rate());
    put("netbdd.ite_hit_ratio", first.bdd.ite_hit_rate());
    put("netbdd.ite_evictions", first.bdd.ite_evictions as f64);
    put("dataplane.traceroute_us", traceroute_us);
    put("dataplane.paths_per_s", paths_per_s);
    put("testsuite.suite_on_s", suite_on);
    put("testsuite.suite_off_s", suite_off);
    put("testsuite.pingmesh_s", med(&|l| l.tests[0]));
    put("testsuite.reachability_s", med(&|l| l.tests[1]));
    let contract = med(&|l| l.tests[2]);
    let (tor_contract, local_symbolic) = match spec {
        NetSpec::FatTree(_) => (contract, 0.0),
        NetSpec::Regional(_) => (0.0, contract),
    };
    put("testsuite.contract_s", tor_contract);
    put("testsuite.local_symbolic_s", local_symbolic);
    put("testsuite.default_route_s", med(&|l| l.tests[3]));
    put("testsuite.jobs", jobs.len() as f64);
    put("tracker.overhead_ratio", suite_on / suite_off - 1.0);
    put("tracker.mark_packet_calls", first.tracker_calls.0 as f64);
    put("tracker.mark_rule_calls", first.tracker_calls.1 as f64);
    put("tracker.into_trace_s", med(&|l| l.into_trace));
    put("covered.compute_s", med(&|l| l.covered));
    put("analyzer.device_s", med(&|l| l.analyzer[0]));
    put("analyzer.iface_s", med(&|l| l.analyzer[1]));
    put("analyzer.rule_frac_s", med(&|l| l.analyzer[2]));
    put("analyzer.rule_weighted_s", med(&|l| l.analyzer[3]));
    put("pathcov.path_s", med(&|l| l.path));
    put("pathcov.paths", first.paths.map_or(0.0, |p| p.0 as f64));
    put(
        "netobs.trace_overhead_ratio",
        med(&|l| l.arc) / median(&untraced) - 1.0,
    );
    let unattributed = med(&|l| l.unattributed);
    put("harness.unattributed_ratio", unattributed);
    checks.op(unattributed <= 0.05, || {
        format!("unattributed share of the arc is {unattributed:.4}, above the 0.05 gate")
    });

    // Share of the arc each group of layers carries — the reason the
    // workload exists; printed for the README, not a declared metric.
    let arc = med(&|l| l.arc);
    eprintln!(
        "  {spec:?}: arc {arc:.3}s  testsuite+tracker {:.1}%  netmodel+covered+analyzer {:.1}%  routing {:.1}%",
        100.0 * (suite_on + med(&|l| l.into_trace)) / arc,
        100.0 * (med(&|l| l.matchsets) + med(&|l| l.covered)
            + med(&|l| l.analyzer.iter().sum::<f64>()))
            / arc,
        100.0 * med(&|l| l.routing) / arc,
    );

    // Growth exponents: layer seconds against rule count, smaller
    // arities first, this workload's own size last.
    let mut points: Vec<(f64, ArcLayers)> = Vec::new();
    for &k in scaling_ks {
        let small = NetSpec::FatTree(k);
        let small_jobs = setup(small, seed);
        cold_arc(small, &small_jobs, 0); // warm-up
        let (facts, l, _) = traced_arc(small, &small_jobs, 0)?;
        checks.op(facts.jobs_failed == 0, || {
            format!("a suite job failed on fat-tree k={k}")
        });
        points.push((facts.rules as f64, l));
    }
    let exponent = |f: &dyn Fn(&ArcLayers) -> f64| {
        if points.is_empty() {
            return 0.0;
        }
        let mut pts: Vec<(f64, f64)> = points.iter().map(|(r, l)| (*r, f(l))).collect();
        pts.push((first.rules as f64, med(f)));
        loglog_slope(&pts)
    };
    put("scaling.testsuite_exp", exponent(&|l| l.suite));
    put("scaling.netmodel_exp", exponent(&|l| l.matchsets));
    put("scaling.routing_exp", exponent(&|l| l.routing));
    put("scaling.covered_exp", exponent(&|l| l.covered));
    put(
        "scaling.analyzer_exp",
        exponent(&|l| l.analyzer.iter().sum::<f64>()),
    );

    Ok((
        m,
        last_report.ok_or("traced run needs at least one iteration")?,
    ))
}
