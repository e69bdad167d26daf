//! `pipeline_profile compare A.json B.json` — judge run-set B against
//! run-set A (two `results.json` files) with the bounds `BENCHMARK.json`
//! fixes. One row per workload and end-to-end metric: both medians, the
//! ratio with its base, the bound, and a verdict. Exit code 0 when every
//! row is `ok`, 1 when any `regressed`, 2 when none regressed but some
//! are `unresolved`.

use std::process::ExitCode;

use netobs::json::Json;

use crate::out::{MetricSpec, Spec};
use crate::stats::{iqr_share, median};

/// Per-layer metrics that are counts made by the program and repeat
/// exactly: two run-sets of one commit must agree on them to the digit.
const EXACT_COUNTS: [&str; 6] = [
    "netbdd.nodes_final",
    "netbdd.ops_total",
    "tracker.mark_packet_calls",
    "tracker.mark_rule_calls",
    "pathcov.paths",
    "routing.fib_changes_per_delta",
];

/// Outcome of one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of A or B is wider than the bound, so the
    /// medians cannot tell (and not every run of B beats every run of A).
    Unresolved,
}

/// Judge one metric: `a` and `b` are the per-run values of either side.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worsening = if spec.lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    if iqr_share(a).max(iqr_share(b)) > spec.bound {
        let b_always_better = a.iter().all(|&x| {
            b.iter()
                .all(|&y| if spec.lower_is_better { y < x } else { y > x })
        });
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > spec.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    netobs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn layer_value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("per_layer")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn failed(doc: &Json, workload: &str) -> f64 {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("failed"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Compare the two files and print the table.
pub fn run(path_a: &str, path_b: &str, benchmark_json: &str) -> Result<ExitCode, String> {
    let spec = Spec::load(benchmark_json)?;
    let (a, b) = (load(path_a)?, load(path_b)?);
    let cpus = |d: &Json| d.get("host_cpus").and_then(Json::as_f64).unwrap_or(0.0);
    if cpus(&a) != cpus(&b) {
        println!(
            "warning: host shapes differ (A: {} cpus, B: {} cpus); timings are not comparable",
            cpus(&a),
            cpus(&b)
        );
    }
    println!("A = {path_a}\nB = {path_b}");
    let (mut regressed, mut unresolved) = (0, 0);
    for workload in &spec.workloads {
        println!("\n{workload}");
        println!(
            "  {:<22} {:>14} {:>14} {:>6} {:>18} {:>7} {:>7}  verdict",
            "metric", "A median", "B median", "unit", "B/A (base A)", "spread", "bound"
        );
        for m in &spec.end_to_end {
            let (va, vb) = match (values(&a, workload, &m.name), values(&b, workload, &m.name)) {
                (Some(va), Some(vb)) if !va.is_empty() && !vb.is_empty() => (va, vb),
                _ => return Err(format!("{workload}: {} is missing from one file", m.name)),
            };
            let verdict = judge(m, &va, &vb);
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "  {:<22} {:>14.6} {:>14.6} {:>6} {:>9.4} ({:>6.4}) {:>6.1}% {:>6.1}%  {}",
                m.name,
                ma,
                mb,
                m.unit,
                mb / ma,
                ma,
                100.0 * iqr_share(&va).max(iqr_share(&vb)),
                100.0 * m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let (fa, fb) = (failed(&a, workload), failed(&b, workload));
        let clean = fa == 0.0 && fb == 0.0;
        regressed += !clean as usize;
        println!(
            "  {:<22} {:>14} {:>14} {:>6} {:>41}  {}",
            "failed operations",
            fa,
            fb,
            "count",
            "must be 0",
            if clean { "ok" } else { "regressed" }
        );
        for name in EXACT_COUNTS {
            let (ca, cb) = (
                layer_value(&a, workload, name),
                layer_value(&b, workload, name),
            );
            let same = ca.is_some() && ca == cb;
            regressed += !same as usize;
            println!(
                "  {:<28} {:>14} {:>14} {:>41}  {}",
                name,
                ca.map_or("missing".into(), |v| v.to_string()),
                cb.map_or("missing".into(), |v| v.to_string()),
                "exact count",
                if same { "ok" } else { "differs" }
            );
        }
    }
    println!("\n{regressed} regressed, {unresolved} unresolved");
    Ok(match (regressed, unresolved) {
        (0, 0) => ExitCode::SUCCESS,
        (0, _) => ExitCode::from(2),
        _ => ExitCode::from(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "report_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound,
        }
    }

    fn higher(bound: f64) -> MetricSpec {
        MetricSpec {
            lower_is_better: false,
            ..lower(bound)
        }
    }

    #[test]
    fn within_the_bound_is_ok_in_both_directions() {
        let a = [2.00, 2.02, 2.01, 1.99, 2.00];
        assert_eq!(
            judge(&lower(0.10), &a, &[2.15, 2.16, 2.14, 2.15, 2.15]),
            Verdict::Ok
        );
        assert_eq!(judge(&lower(0.10), &a, &[1.0; 5]), Verdict::Ok);
        let r = [1000.0, 1010.0, 990.0, 1005.0, 995.0];
        assert_eq!(
            judge(&higher(0.10), &r, &[930.0, 935.0, 925.0, 930.0, 931.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn beyond_the_bound_is_a_regression() {
        let a = [2.00, 2.02, 2.01, 1.99, 2.00];
        assert_eq!(
            judge(&lower(0.10), &a, &[2.25, 2.26, 2.24, 2.25, 2.25]),
            Verdict::Regressed
        );
        let r = [1000.0, 1010.0, 990.0, 1005.0, 995.0];
        assert_eq!(
            judge(&higher(0.10), &r, &[880.0, 885.0, 875.0, 880.0, 881.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [2.0, 2.6, 1.7, 2.3, 2.9];
        assert_eq!(
            judge(&lower(0.10), &noisy, &[2.1, 2.0, 2.2, 2.1, 2.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&lower(0.10), &noisy, &[1.0, 1.1, 1.2, 1.0, 1.1]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&higher(0.10), &noisy, &[3.0, 3.1, 3.2, 3.0, 3.1]),
            Verdict::Ok
        );
    }

    #[test]
    fn single_runs_have_no_spread_and_are_judged_on_the_medians() {
        assert_eq!(judge(&lower(0.10), &[2.0], &[2.1]), Verdict::Ok);
        assert_eq!(judge(&lower(0.10), &[2.0], &[2.3]), Verdict::Regressed);
    }
}
