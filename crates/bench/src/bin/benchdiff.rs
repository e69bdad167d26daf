//! Compare two benchmark JSON files and fail on perf regressions.
//!
//! ```text
//! cargo run -p bench --bin benchdiff --release -- old.json new.json \
//!     [--tolerance 0.25]
//! ```
//!
//! Both files carry a top-level `"metrics"` object whose numeric values
//! are all smaller-is-better; keys present in both files are compared.
//! An optional `"info"` object is context (rates, throughput) and is
//! never compared.
//!
//! When both files record a top-level `"host_cpus"` and the counts
//! differ, a wall-clock leg (a metric named `*_secs`) compares machine
//! shapes rather than code, so benchdiff prints a warning and marks each
//! such row "not gated". Every other metric is an exact count that no
//! core count moves (`surviving_mutants`, `uncovered_constructs`,
//! netbdd's `nodes`) and still gates, and so does every structural
//! mismatch.
//!
//! A metric is a regression when `new > old * (1 + tolerance)`. Exit
//! status: 0 when nothing regressed, 1 on any regression, 2 on a bad
//! command line (the two files first, then only `--tolerance`) or
//! unusable input (missing file, malformed JSON, no comparable metrics) —
//! including a metric present on only one side, in either direction: a
//! renamed or dropped metric must fail loudly, never silently shrink the
//! comparison.

use std::process::ExitCode;

use bench::{check_flags, parse_flag};
use netobs::json::Json;

struct Row {
    metric: String,
    old: f64,
    new: f64,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (files, flags) = args.split_at(args.len().min(2));
    let tolerance =
        check_flags(flags, "--tolerance", []).and_then(|_| parse_flag(flags, "--tolerance", 0.25));
    let tolerance = match tolerance {
        Ok(t) if files.len() == 2 && !files.iter().any(|f| f.starts_with("--")) => t,
        Ok(_) => {
            eprintln!("usage: benchdiff <old.json> <new.json> [--tolerance 0.25]");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("benchdiff: {e}");
            return ExitCode::from(2);
        }
    };

    let (old, new) = match (load(&files[0]), load(&files[1])) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchdiff: {e}");
            return ExitCode::from(2);
        }
    };

    // A timing measured on a different core count would compare machine
    // shapes, not code; the counts still gate.
    let cpus = |f: &Json| f.get("host_cpus").and_then(|v| v.as_f64());
    let shapes_differ = match (cpus(&old), cpus(&new)) {
        (Some(o), Some(n)) if o != n => {
            println!(
                "benchdiff: WARNING: host_cpus differ (baseline {} vs candidate {}); \
                 `_secs` timings are not gated — re-measure the baseline on this host shape",
                o as u64, n as u64
            );
            true
        }
        _ => false,
    };

    let (rows, mismatches) = collect_rows(&old, &new);
    if !mismatches.is_empty() {
        for m in &mismatches {
            eprintln!("benchdiff: {m}");
        }
        eprintln!(
            "benchdiff: {} structural mismatch(es) between {} and {}",
            mismatches.len(),
            files[0],
            files[1]
        );
        return ExitCode::from(2);
    }
    if rows.is_empty() {
        eprintln!("benchdiff: no comparable timing metrics between the two files");
        return ExitCode::from(2);
    }

    println!(
        "benchdiff: {} vs {} (tolerance {:.0}%)",
        files[0],
        files[1],
        tolerance * 100.0
    );
    println!(
        "{:<32} {:>14} {:>14} {:>9}  status",
        "metric", "old", "new", "delta"
    );
    let mut regressions = 0usize;
    for r in &rows {
        let delta = if r.old > 0.0 {
            (r.new - r.old) / r.old * 100.0
        } else {
            0.0
        };
        let status = if shapes_differ && r.metric.ends_with("_secs") {
            "not gated"
        } else if r.new > r.old * (1.0 + tolerance) {
            regressions += 1;
            "REGRESSION"
        } else if r.new < r.old * (1.0 - tolerance) {
            "improved"
        } else {
            "ok"
        };
        println!(
            "{:<32} {:>14.6} {:>14.6} {:>+8.1}%  {}",
            r.metric, r.old, r.new, delta, status
        );
    }
    if regressions > 0 {
        eprintln!(
            "benchdiff: {regressions} metric(s) regressed beyond {:.0}% \
             (baseline: {})",
            tolerance * 100.0,
            files[0]
        );
        ExitCode::from(1)
    } else {
        println!("benchdiff: no regression beyond {:.0}%", tolerance * 100.0);
        ExitCode::SUCCESS
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    netobs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Pair up every numeric key of the two top-level `"metrics"` objects.
/// A metric present on only one side — in either direction — is a
/// structural mismatch, returned by name so the caller can fail the run:
/// silently skipping it would let a renamed or dropped metric mask a
/// regression.
fn collect_rows(old: &Json, new: &Json) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut mismatches = Vec::new();
    match (old.get("metrics"), new.get("metrics")) {
        (Some(om), Some(nm)) => {
            for (key, ov) in om.entries() {
                let Some(o) = ov.as_f64() else { continue };
                match nm.get(key).and_then(|v| v.as_f64()) {
                    Some(n) => rows.push(Row {
                        metric: format!("metrics.{key}"),
                        old: o,
                        new: n,
                    }),
                    None => mismatches.push(format!(
                        "metric {key:?} present in the baseline, absent from the candidate"
                    )),
                }
            }
            for (key, nv) in nm.entries() {
                if nv.as_f64().is_some() && om.get(key).and_then(|v| v.as_f64()).is_none() {
                    mismatches.push(format!(
                        "metric {key:?} present in the candidate, absent from the baseline"
                    ));
                }
            }
        }
        (Some(_), None) => {
            mismatches.push("\"metrics\" object present in the baseline only".to_string());
        }
        (None, Some(_)) => {
            mismatches.push("\"metrics\" object present in the candidate only".to_string());
        }
        (None, None) => {}
    }
    (rows, mismatches)
}
