//! What a run produces and how it is written down: the metric map, the
//! correctness tally, the metric declarations read from `BENCHMARK.json`,
//! and a small JSON writer (the workspace is offline — no serde; reading
//! goes through `netobs::json`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use netobs::json::Json;

/// Measured values by metric name, in the unit `BENCHMARK.json` declares.
pub type Metrics = BTreeMap<String, f64>;

/// Operations attempted and failed. Everything the benchmark checks —
/// a response status, a test verdict, an identity between two code
/// paths — is one operation; `fail_ratio` is `failed / attempted`.
#[derive(Default, Debug)]
pub struct Checks {
    /// Operations attempted so far.
    pub attempted: u64,
    /// Operations with an unexpected outcome.
    pub failed: u64,
    /// The first few failures, for the operator.
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one operation; `what` describes it if it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn many(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.notes.len() < 20 {
            self.notes.push(format!("{failed} {what}"));
        }
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit string (`s`, `ms`, `us`, `MB`, `1/s`, `count`, `ratio`).
    pub unit: String,
    /// True when a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
}

/// The benchmark's declarations: the single place names, units and
/// bounds live. The harness looks measured values up by these names and
/// refuses to report when one is missing.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, reported by the untraced run.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, reported by the traced run.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parse the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = netobs::json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))
        };
        let text_of = |j: &Json, key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        lower_is_better: text_of(m, "better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Read and parse the file at `path`.
    pub fn load(path: &str) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Spec::parse(&text)
    }
}

/// A JSON value to write.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A finite number (non-finite numbers are written as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys keep their insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Serialise on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // `{}` on f64 prints the shortest text that reads back to the
            // same value, so every measured digit survives.
            Value::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The result object the contract asks for on the last line of standard
/// output: `correct`, `attempted`, `failed`, and the declared metrics
/// with their units. Fails when a declared metric was not measured.
pub fn result_line(
    declared: &[MetricSpec],
    metrics: &Metrics,
    checks: &Checks,
) -> Result<String, String> {
    let mut entries = Vec::with_capacity(declared.len());
    for m in declared {
        let value = *metrics
            .get(&m.name)
            .ok_or_else(|| format!("metric {} is declared but was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        entries.push((
            m.name.clone(),
            Value::obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(m.unit.clone())),
            ]),
        ));
    }
    Ok(Value::obj([
        ("correct", Value::Bool(checks.failed == 0)),
        ("attempted", Value::Num(checks.attempted as f64)),
        ("failed", Value::Num(checks.failed as f64)),
        ("metrics", Value::Obj(entries)),
    ])
    .render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_reads_back_through_the_parser() {
        let v = Value::obj([
            ("name", Value::Str("a \"quoted\"\n\\ line\t\u{1}".into())),
            ("pi", Value::Num(std::f64::consts::PI)),
            ("tiny", Value::Num(1.2034e-7)),
            ("big", Value::Num(3_251_132.0)),
            ("nan", Value::Num(f64::NAN)),
            ("ok", Value::Bool(true)),
            (
                "list",
                Value::Arr(vec![Value::Num(1.0), Value::Num(-2.5), Value::Arr(vec![])]),
            ),
            ("nested", Value::obj([("k", Value::Num(0.0))])),
        ]);
        let parsed = netobs::json::parse(&v.render()).expect("writer output parses");
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("a \"quoted\"\n\\ line\t\u{1}")
        );
        // Every digit survives: the value reads back bit-identical.
        assert_eq!(
            parsed.get("pi").and_then(Json::as_f64),
            Some(std::f64::consts::PI)
        );
        assert_eq!(parsed.get("tiny").and_then(Json::as_f64), Some(1.2034e-7));
        assert_eq!(parsed.get("big").and_then(Json::as_f64), Some(3_251_132.0));
        assert_eq!(parsed.get("nan"), Some(&Json::Null));
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        let list = parsed.get("list").and_then(Json::as_array).unwrap();
        assert_eq!(list.len(), 3);
        assert_eq!(list[1].as_f64(), Some(-2.5));
        assert_eq!(
            parsed
                .get("nested")
                .and_then(|n| n.get("k"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let declared = vec![MetricSpec {
            name: "setup_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: 0.25,
        }];
        let mut metrics = Metrics::new();
        metrics.insert("setup_s".into(), 0.8127);
        metrics.insert("undeclared".into(), 1.0);
        let mut checks = Checks::default();
        checks.op(true, String::new);
        let line = result_line(&declared, &metrics, &checks).unwrap();
        let parsed = netobs::json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed.entries().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = parsed.get("metrics").unwrap();
        assert_eq!(m.entries().count(), 1);
        let setup = m.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));

        metrics.remove("setup_s");
        assert!(result_line(&declared, &metrics, &checks).is_err());
    }

    #[test]
    fn failed_operations_make_the_run_incorrect() {
        let mut checks = Checks::default();
        checks.op(true, String::new);
        checks.op(false, || "status 500".into());
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        let line = result_line(&[], &Metrics::new(), &checks).unwrap();
        assert!(line.contains("\"correct\": false"));
    }

    #[test]
    fn committed_declarations_parse_and_meet_the_contract_limits() {
        let spec = Spec::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            spec.workloads,
            [
                "fattree_k16_batch",
                "regional_x3_batch",
                "resident_k12_read",
                "resident_k12_churn"
            ]
        );
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(setup.lower_is_better && setup.unit == "s");
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        for m in &spec.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound", m.name);
        }
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .chain(spec.workloads.iter().map(String::as_str))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }
}
