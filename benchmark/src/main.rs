//! `pipeline_profile` — the repository's end-to-end benchmark.
//!
//! ```text
//! pipeline_profile --workload W --seed N --seconds S --trace 0|1 [--quick]
//! pipeline_profile all [--seed N] [--seconds S] [--runs R] [--quick]
//! pipeline_profile compare A.json B.json
//! ```
//!
//! The first form runs one workload in this process and prints its
//! metrics, the result object last; `all` runs every workload in a
//! process of its own (so `VmHWM` is per workload), untraced `R` times
//! and then once traced, and merges the results into
//! `<out-dir>/results.json`; `compare` judges two such files against the
//! bounds in `BENCHMARK.json`. See `benchmark/README.md`.

mod batch;
mod compare;
mod ops;
mod out;
mod resident;
mod resident_traced;
mod stats;

use std::process::ExitCode;

use batch::{BatchPlan, BatchRun, NetSpec};
use out::{Checks, Metrics, Spec, Value};
use resident::{ChurnRun, ReadRun, ResidentPlan};

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Sizes of the four workloads.
struct Plan {
    fattree: BatchPlan,
    regional: BatchPlan,
    resident: ResidentPlan,
    /// Traced arcs per batch workload.
    traced_iters: usize,
    /// Smaller fat-tree arities the growth exponents are fitted over.
    scaling_ks: &'static [u32],
}

/// The sizes the workloads are named after.
const FULL: Plan = Plan {
    fattree: BatchPlan {
        spec: NetSpec::FatTree(16),
        setups: 2,
        min_iters: 9,
        max_paths: 0,
    },
    regional: BatchPlan {
        spec: NetSpec::Regional(3),
        setups: 2,
        min_iters: 6,
        max_paths: 200_000,
    },
    resident: ResidentPlan {
        k: 12,
        setups: 3,
        read_batch: 100_000,
        churn_batch: 180,
        min_batches: 26,
        gc_watermark: 200_000,
        test_cycle_every: 60,
        config_every: 120,
        verify_rules: 1_000,
    },
    traced_iters: 2,
    scaling_ks: &[8, 12],
};

/// Small sizes for the metrics a full-size run takes from workloads
/// other than its own (see `run_untraced`): they are there because
/// every run reports every metric, so they are sized to be steady and
/// cheap — ten times the smoke test's batch counts so that each median
/// rests on samples from all over the run, five seconds in all, two of
/// them the regional arcs.
const SIDE: Plan = Plan {
    fattree: BatchPlan {
        spec: NetSpec::FatTree(4),
        setups: 1,
        min_iters: 150,
        max_paths: 0,
    },
    regional: BatchPlan {
        spec: NetSpec::Regional(1),
        setups: 1,
        min_iters: 12,
        max_paths: 50_000,
    },
    resident: ResidentPlan {
        k: 4,
        setups: 1,
        read_batch: 10_000,
        churn_batch: 100,
        min_batches: 100,
        gc_watermark: 20_000,
        test_cycle_every: 75,
        config_every: 50,
        verify_rules: 200,
    },
    traced_iters: 0,
    scaling_ks: &[],
};

/// The smoke-test sizes of `--quick`: every workload and every check in
/// a few seconds.
const QUICK: Plan = Plan {
    fattree: BatchPlan {
        spec: NetSpec::FatTree(4),
        setups: 2,
        min_iters: 5,
        max_paths: 0,
    },
    regional: BatchPlan {
        spec: NetSpec::Regional(1),
        setups: 2,
        min_iters: 5,
        max_paths: 20_000,
    },
    resident: ResidentPlan {
        k: 4,
        setups: 3,
        read_batch: 2_000,
        churn_batch: 100,
        min_batches: 10,
        gc_watermark: 6_000,
        test_cycle_every: 50,
        config_every: 50,
        verify_rules: 200,
    },
    traced_iters: 2,
    scaling_ks: &[],
};

/// A workload the untraced run can measure one unit at a time — one
/// cold arc, one batch of requests, one batch of rounds.
pub trait Workload {
    /// Units measured so far.
    fn units(&self) -> usize;
    /// Units a run measures at least.
    fn min_units(&self) -> usize;
    /// Measure one more unit.
    fn step(&mut self, checks: &mut Checks);
    /// Run without measuring until a unit costs what it does in the
    /// long run (other workloads' units have run since the last one).
    fn warm_up(&mut self, checks: &mut Checks);
    /// Run the end-of-run checks and report the metrics.
    fn finish(self: Box<Self>, checks: &mut Checks) -> Metrics;
}

/// Set a workload up at the sizes of `plan`.
fn set_up(
    workload: &str,
    plan: &Plan,
    seed: u64,
    checks: &mut Checks,
) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "fattree_k16_batch" => Box::new(BatchRun::new(plan.fattree, seed, checks)),
        "regional_x3_batch" => Box::new(BatchRun::new(plan.regional, seed, checks)),
        "resident_k12_read" => Box::new(ReadRun::new(plan.resident, seed, checks)),
        "resident_k12_churn" => Box::new(ChurnRun::new(plan.resident, seed, checks)),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Stretches a side workload's units are run in.
const STRETCHES: usize = 10;

/// The untraced run. The workload measures its own units at its own
/// size until `seconds` have passed (and its minimum count is reached).
/// Because every run reports every end-to-end metric, the other three
/// workloads run beside it at the side size with their minimum counts
/// and supply the metrics this workload does not measure itself — a
/// stretch of their units after every few of its own, in step with its
/// progress, so their samples span the whole run: this host moves
/// between a faster and a slower speed every few seconds (a quarter
/// apart), and a reading taken in one short window follows whichever
/// it fell in. A stretch starts on caches the other workloads have
/// emptied, which costs the first fifty rule deltas a third more than
/// the rest, so each stretch opens with units that are not measured.
/// The workload's own readings always win.
fn run_untraced(
    workload: &str,
    spec: &Spec,
    quick: bool,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Result<Metrics, String> {
    let (own_plan, side_plan) = if quick {
        (&QUICK, &QUICK)
    } else {
        (&FULL, &SIDE)
    };
    let mut own = set_up(workload, own_plan, seed, checks)?;
    let mut sides = Vec::new();
    for other in spec.workloads.iter().filter(|w| *w != workload) {
        sides.push(set_up(other, side_plan, seed, checks)?);
    }
    let budget = std::time::Instant::now();
    let seconds = if quick { 0.0 } else { seconds };
    while own.units() < own.min_units() || budget.elapsed().as_secs_f64() < seconds {
        own.step(checks);
        let stretches = STRETCHES.min(own.units() * STRETCHES / own.min_units());
        for side in &mut sides {
            let target = side.min_units() * stretches / STRETCHES;
            if side.units() < target {
                side.warm_up(checks);
            }
            while side.units() < target {
                side.step(checks);
            }
        }
    }
    eprintln!("{workload}:");
    let mut metrics = own.finish(checks);
    eprintln!("beside it, at the side size:");
    for side in sides {
        for (name, value) in side.finish(checks) {
            metrics.entry(name).or_insert(value);
        }
    }
    metrics.insert("peak_rss_mb".into(), peak_rss_mb()?);
    Ok(metrics)
}

/// The traced run: per-layer metrics of the workload's own layers (a
/// layer the workload never calls reads 0), and the trace file.
fn run_traced(
    workload: &str,
    spec: &Spec,
    quick: bool,
    seed: u64,
    out_dir: &str,
    checks: &mut Checks,
) -> Result<Metrics, String> {
    let plan = if quick { &QUICK } else { &FULL };
    eprintln!("{workload} (traced):");
    let (mut metrics, report) = match workload {
        "fattree_k16_batch" => batch::run_traced(
            plan.fattree,
            seed,
            plan.traced_iters,
            plan.scaling_ks,
            checks,
        )?,
        "regional_x3_batch" => {
            batch::run_traced(plan.regional, seed, plan.traced_iters, &[], checks)?
        }
        "resident_k12_read" => resident_traced::run_read_traced(&plan.resident, seed, checks)?,
        "resident_k12_churn" => resident_traced::run_churn_traced(&plan.resident, seed, checks)?,
        other => return Err(format!("unknown workload {other}")),
    };
    for m in &spec.per_layer {
        metrics.entry(m.name.clone()).or_insert(0.0);
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    let path = format!("{out_dir}/trace_{workload}.json");
    std::fs::write(&path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("  span tree and chrome trace: {path}");
    Ok(metrics)
}

/// `VmHWM` of this process in megabytes.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Command-line options shared by the sub-commands.
struct Opts {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: usize,
    out_dir: String,
    benchmark_json: String,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("--seed {s}: {e}"))
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        quick: false,
        runs: 1,
        out_dir: "target/benchmark".into(),
        benchmark_json: "BENCHMARK.json".into(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = parse_seed(&value()?)?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => o.trace = value()? != "0",
            "--runs" => o.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out-dir" => o.out_dir = value()?,
            "--benchmark-json" => o.benchmark_json = value()?,
            "--quick" => o.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

/// Run one workload in this process; print each metric by name with its
/// unit, then the result object. Non-zero exit on any failed check.
fn run_one(o: &Opts, workload: &str) -> Result<ExitCode, String> {
    let spec = Spec::load(&o.benchmark_json)?;
    if !spec.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload {workload}; BENCHMARK.json names {:?}",
            spec.workloads
        ));
    }
    let mut checks = Checks::default();
    let (metrics, declared) = if o.trace {
        (
            run_traced(workload, &spec, o.quick, o.seed, &o.out_dir, &mut checks)?,
            &spec.per_layer,
        )
    } else {
        (
            run_untraced(workload, &spec, o.quick, o.seed, o.seconds, &mut checks)?,
            &spec.end_to_end,
        )
    };
    let line = out::result_line(declared, &metrics, &checks)?;
    for m in declared {
        println!("{:<36} {:>18.6} {}", m.name, metrics[&m.name], m.unit);
    }
    let fail_ratio = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "{:<36} {:>18.6} ratio ({} of {} operations)",
        "fail_ratio", fail_ratio, checks.failed, checks.attempted
    );
    for note in &checks.notes {
        eprintln!("FAILED: {note}");
    }
    println!("{line}");
    Ok(if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One child run of this binary; returns the parsed result object.
fn child(o: &Opts, workload: &str, trace: bool) -> Result<netobs::json::Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &o.seed.to_string()])
        .args([
            "--seconds",
            &o.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args([
            "--out-dir",
            &o.out_dir,
            "--benchmark-json",
            &o.benchmark_json,
        ]);
    if o.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            trace as u8, output.status
        ));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    netobs::json::parse(last)
}

/// Run every workload in its own process — untraced `runs` times, then
/// traced once — and merge everything into `<out-dir>/results.json`.
fn run_all(o: &Opts) -> Result<ExitCode, String> {
    use netobs::json::Json;
    let spec = Spec::load(&o.benchmark_json)?;
    let mut workloads = Vec::new();
    for workload in &spec.workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec.end_to_end.len()];
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut tally = |result: &Json| {
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        };
        let reading = |result: &Json, name: &str| {
            result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}: no reading of {name}"))
        };
        for _ in 0..o.runs {
            let result = child(o, workload, false)?;
            tally(&result);
            for (m, v) in spec.end_to_end.iter().zip(&mut values) {
                v.push(reading(&result, &m.name)?);
            }
        }
        let traced = child(o, workload, true)?;
        tally(&traced);
        let end_to_end = spec.end_to_end.iter().zip(&values).map(|(m, v)| {
            (
                m.name.clone(),
                Value::obj([
                    ("unit", Value::Str(m.unit.clone())),
                    ("median", Value::Num(stats::median(v))),
                    ("iqr_share", Value::Num(stats::iqr_share(v))),
                    (
                        "values",
                        Value::Arr(v.iter().map(|&x| Value::Num(x)).collect()),
                    ),
                ]),
            )
        });
        let mut per_layer = Vec::new();
        for m in &spec.per_layer {
            per_layer.push((
                m.name.clone(),
                Value::obj([
                    ("unit", Value::Str(m.unit.clone())),
                    ("value", Value::Num(reading(&traced, &m.name)?)),
                ]),
            ));
        }
        workloads.push((
            workload.clone(),
            Value::obj([
                ("attempted", Value::Num(attempted)),
                ("failed", Value::Num(failed)),
                ("end_to_end", Value::Obj(end_to_end.collect())),
                ("per_layer", Value::Obj(per_layer)),
            ]),
        ));
    }
    let revision = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = Value::obj([
        ("benchmark", Value::Str("pipeline_profile".into())),
        ("host_cpus", Value::Num(host_cpus as f64)),
        ("seed", Value::Num(o.seed as f64)),
        ("run_seconds", Value::Num(o.seconds)),
        ("quick", Value::Bool(o.quick)),
        ("runs", Value::Num(o.runs as f64)),
        ("git_revision", Value::Str(revision)),
        ("workloads", Value::Obj(workloads)),
    ]);
    std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("cannot create {}: {e}", o.out_dir))?;
    let path = format!("{}/results.json", o.out_dir);
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("results: {path}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_opts(&args).and_then(|o| match (o.positional.first().map(String::as_str), &o.workload) {
        (None, Some(workload)) => run_one(&o, workload),
        (Some("all"), None) | (None, None) => run_all(&o),
        (Some("compare"), None) if o.positional.len() == 3 => {
            compare::run(&o.positional[1], &o.positional[2], &o.benchmark_json)
        }
        _ => Err("usage: pipeline_profile [--workload W --seed N --seconds S --trace 0|1] | all [--runs R] | compare A.json B.json   (options: --quick --out-dir D --benchmark-json P)".into()),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("pipeline_profile: {message}");
            ExitCode::from(3)
        }
    }
}
