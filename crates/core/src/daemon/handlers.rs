//! The request handlers: [`handle`] dispatches a [`Request`] to one
//! pure function per endpoint, which reads or edits the engine and
//! renders the answer.

use netmodel::provenance::Construct;
use netmodel::topology::DeviceId;
use netmodel::RuleId;
use netobs::json::{self, number, quote, Json};

use super::codec::{
    decode_rule, decode_trace, devices_json, headline_json, jopt, num_u32, num_u64, parse_rule_id,
    record_json,
};
use super::{Request, Response};
use crate::engine::{CoverageEngine, EngineError};
use crate::testgen::{autogen, GenConfig};

/// An engine error as its answer: 404 for a missing thing, else 400.
fn engine_error(e: EngineError) -> Response {
    let status = match e {
        EngineError::UnknownDevice { .. }
        | EngineError::UnknownTest { .. }
        | EngineError::BadRuleIndex { .. } => 404,
        EngineError::Routing(
            routing::RibError::UnknownDevice { .. } | routing::RibError::UnknownLink { .. },
        ) => 404,
        _ => 400,
    };
    Response::error(status, &e.to_string())
}

/// The answer stored in the query LRU under `key`, or else `render`'s.
/// Only a successful answer is stored: a refused read is rendered, and
/// counts its miss, every time it is asked.
fn cached(
    engine: &mut CoverageEngine,
    key: String,
    render: impl FnOnce(&mut CoverageEngine) -> Result<String, Response>,
) -> Response {
    if let Some(body) = engine.query_cache().get(&key) {
        return Response::ok(body);
    }
    match render(engine) {
        Ok(body) => {
            engine.query_cache().insert(key, body.clone());
            Response::ok(body)
        }
        Err(refused) => refused,
    }
}

fn handle_covers(engine: &mut CoverageEngine, req: &Request) -> Response {
    let Some(raw) = req.param("rule") else {
        return Response::error(400, "missing query parameter: rule");
    };
    let Some(id) = parse_rule_id(raw) else {
        return Response::error(400, "rule must look like <device>.<index>");
    };
    let key = format!("covers:{}.{}", id.device.0, id.index);
    cached(engine, key, |engine| {
        let c = engine.rule_coverage(id).map_err(engine_error)?;
        Ok(format!(
            "{{\"rule\":\"r{}.{}\",\"version\":{},\"match_probability\":{},\
             \"covered_probability\":{},\"coverage\":{},\"exercised\":{}}}",
            id.device.0,
            id.index,
            engine.version(),
            number(c.match_probability),
            number(c.covered_probability),
            jopt(c.coverage),
            c.exercised
        ))
    })
}

/// `GET /config-coverage`: the headline config-level summary, or — with
/// `?construct=<wire id>` — one construct's drill-down including which
/// registered tests exercise it. Both forms ride the query LRU, keyed
/// like `/covers`, so deltas invalidate them automatically.
fn handle_config_coverage(engine: &mut CoverageEngine, req: &Request) -> Response {
    let Some(raw) = req.param("construct") else {
        return cached(engine, "config-coverage".to_string(), |engine| {
            let cov = engine.config_coverage().map_err(engine_error)?;
            let wire_ids = |cs: &[Construct]| -> Vec<String> {
                cs.iter().map(|c| quote(&c.wire_id())).collect()
            };
            let (uncovered, unreferenced) = (wire_ids(&cov.uncovered), wire_ids(&cov.unreferenced));
            Ok(format!(
                "{{\"version\":{},\"coverable\":{},\"covered\":{},\"fractional\":{},\
                 \"uncovered\":[{}],\"unreferenced\":[{}]}}",
                engine.version(),
                cov.coverable(),
                cov.covered_count(),
                jopt(cov.fractional()),
                uncovered.join(","),
                unreferenced.join(",")
            ))
        });
    };
    let Some(construct) = Construct::parse_wire_id(raw) else {
        return Response::error(
            400,
            "construct must be a wire id like session:d0-d4 or orig:d3:10.0.1.0/24",
        );
    };
    let key = format!("config-coverage:{}", construct.wire_id());
    cached(engine, key, |engine| {
        let entry = engine
            .construct_coverage(&construct)
            .map_err(engine_error)?
            .ok_or_else(|| {
                Response::error(
                    404,
                    &format!("no such construct in the current config: {raw}"),
                )
            })?;
        if entry.rules.is_empty() {
            return Ok(format!(
                "{{\"construct\":{},\"version\":{},\"covered\":false,\
                 \"unreferenced\":true,\"rules\":[],\"tests\":[]}}",
                quote(&construct.wire_id()),
                engine.version()
            ));
        }
        let rules: Vec<String> = entry
            .rules
            .iter()
            .map(|id| quote(&format!("r{}.{}", id.device.0, id.index)))
            .collect();
        let tests: Vec<String> = engine
            .tests_exercising(&entry.rules)
            .iter()
            .map(|name| quote(name))
            .collect();
        Ok(format!(
            "{{\"construct\":{},\"version\":{},\"covered\":{},\
             \"match_probability\":{},\"covered_probability\":{},\"weighted\":{},\
             \"rules\":[{}],\"tests\":[{}]}}",
            quote(&construct.wire_id()),
            engine.version(),
            entry.covered,
            number(entry.match_probability),
            number(entry.covered_probability),
            jopt(entry.weighted()),
            rules.join(","),
            tests.join(",")
        ))
    })
}

fn handle_metrics(engine: &mut CoverageEngine) -> Response {
    let headline = engine.headline_metrics();
    engine.publish_gauges();
    let stats = engine.query_cache_stats();
    let gauges: Vec<String> = netobs::gauges_snapshot()
        .iter()
        .map(|(k, v)| format!("{}:{}", quote(k), number(*v)))
        .collect();
    let counters: Vec<String> = netobs::counters_snapshot()
        .iter()
        .map(|(k, v)| format!("{}:{}", quote(k), v))
        .collect();
    let body = format!(
        "{{\"version\":{},\"devices\":{},\"rules\":{},\"tests\":{},\
         \"headline\":{},\
         \"query_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{},\"capacity\":{}}},\
         \"gauges\":{{{}}},\"counters\":{{{}}}}}",
        engine.version(),
        engine.network().topology().device_count(),
        engine.network().rule_count(),
        engine.test_names().count(),
        headline_json(&headline),
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.entries,
        stats.capacity,
        gauges.join(","),
        counters.join(",")
    );
    Response::ok(body)
}

fn handle_delta_since(engine: &mut CoverageEngine, req: &Request) -> Response {
    let since: u64 = match req.param("trace").map(str::parse) {
        Some(Ok(v)) => v,
        _ => return Response::error(400, "missing or non-numeric query parameter: trace"),
    };
    let deltas: Vec<String> = match engine.deltas_since(since) {
        Ok(records) => records.iter().map(record_json).collect(),
        // Some of the asked-for deltas left the bounded log: `410 Gone`,
        // with the oldest version still held, so the client resyncs.
        Err(e @ EngineError::DeltaLogTruncated { oldest, .. }) => {
            return Response {
                status: 410,
                body: format!(
                    "{{\"error\":{},\"oldest\":{oldest}}}",
                    quote(&e.to_string())
                ),
            }
        }
        Err(e) => return engine_error(e),
    };
    Response::ok(format!(
        "{{\"since\":{},\"version\":{},\"deltas\":[{}]}}",
        since,
        engine.version(),
        deltas.join(",")
    ))
}

fn handle_delta(engine: &mut CoverageEngine, req: &Request) -> Response {
    if let Err(refused) = apply_delta(engine, req) {
        return refused;
    }
    // The answer is the record the engine logged for the delta.
    let r = engine.last_delta().expect("an applied delta is logged");
    Response::ok(format!(
        "{{\"ok\":true,\"version\":{},\"detail\":{},\"devices\":[{}]}}",
        r.version,
        quote(&r.detail),
        devices_json(&r.devices)
    ))
}

/// A malformed request as its answer.
fn bad(e: String) -> Response {
    Response::error(400, &e)
}

/// Decode the delta in `req`'s body, field by field, and apply it.
fn apply_delta(engine: &mut CoverageEngine, req: &Request) -> Result<(), Response> {
    let doc = json::parse(&req.body).map_err(|e| bad(format!("malformed JSON body: {e}")))?;
    let device = |key: &str| num_u32(doc.get(key), key).map(DeviceId).map_err(bad);
    let name = || {
        let name = doc.get("name").and_then(Json::as_str);
        name.ok_or_else(|| bad("missing test name".into()))
    };
    let kind = doc.get("kind").and_then(Json::as_str);
    let outcome = match kind.ok_or_else(|| bad("missing delta kind".into()))? {
        "rule-insert" => {
            let device = device("device")?;
            let rule = doc.get("rule").ok_or("missing rule".to_string());
            engine
                .insert_rule(device, rule.and_then(decode_rule).map_err(bad)?)
                .map(drop)
        }
        "rule-withdraw" => {
            let device = device("device")?;
            let index = num_u32(doc.get("index"), "index").map_err(bad)?;
            engine.withdraw_rule(RuleId { device, index }).map(drop)
        }
        "test-add" => {
            let name = name()?;
            let trace = doc.get("trace").ok_or("missing trace".to_string());
            engine
                .add_test(name, &trace.and_then(decode_trace).map_err(bad)?)
                .map(drop)
        }
        "test-remove" => engine.remove_test(name()?).map(drop),
        kind @ ("link-down" | "link-up") => {
            let (a, b) = (device("a")?, device("b")?);
            let delta = if kind == "link-down" {
                routing::TopologyDelta::LinkDown { a, b }
            } else {
                routing::TopologyDelta::LinkUp { a, b }
            };
            engine.apply_topology(&delta).map(drop)
        }
        kind @ ("device-down" | "device-up") => {
            let device = device("device")?;
            let delta = if kind == "device-down" {
                routing::TopologyDelta::DeviceDown { device }
            } else {
                routing::TopologyDelta::DeviceUp { device }
            };
            engine.apply_topology(&delta).map(drop)
        }
        other => return Err(bad(format!("unknown delta kind {other:?}"))),
    };
    outcome.map_err(engine_error)
}

/// One round of coverage-guided generation ([`autogen`]), bounded so an
/// HTTP request stays an interactive operation: the caller re-posts to
/// iterate, observing the coverage delta between rounds. The optional
/// JSON body overrides the witness seed and test budget.
fn handle_autogen(engine: &mut CoverageEngine, req: &Request) -> Response {
    let mut cfg = GenConfig {
        budget: 64,
        max_rounds: 1,
        ..GenConfig::default()
    };
    if !req.body.trim().is_empty() {
        let doc = match json::parse(&req.body) {
            Ok(doc) => doc,
            Err(e) => return Response::error(400, &format!("malformed JSON body: {e}")),
        };
        if let Some(j) = doc.get("seed") {
            match num_u64(Some(j), "seed") {
                Ok(s) => cfg.seed = s,
                Err(e) => return Response::error(400, &e),
            }
        }
        if let Some(j) = doc.get("budget") {
            match num_u32(Some(j), "budget") {
                Ok(b) => cfg.budget = b as usize,
                Err(e) => return Response::error(400, &e),
            }
        }
    }
    let report = autogen(engine, &cfg);
    let tests: Vec<String> = report
        .tests
        .iter()
        .map(|t| {
            format!(
                "{{\"name\":{},\"kind\":{},\"spec\":{}}}",
                quote(&t.name),
                quote(t.spec.kind()),
                quote(&t.spec.to_string())
            )
        })
        .collect();
    let gaps: Vec<String> = report
        .permanent_gaps
        .iter()
        .map(|id| quote(&format!("r{}.{}", id.device.0, id.index)))
        .collect();
    Response::ok(format!(
        "{{\"ok\":true,\"version\":{},\"rounds\":{},\"converged\":{},\"budget_exhausted\":{},\
         \"tests\":[{}],\"permanent_gaps\":[{}],\
         \"coverage\":{{\"before\":{},\"after\":{}}}}}",
        engine.version(),
        report.rounds,
        report.converged,
        report.budget_exhausted,
        tests.join(","),
        gaps.join(","),
        headline_json(&report.before),
        headline_json(&report.after),
    ))
}

/// Dispatch one request against the engine. Pure with respect to I/O:
/// this is the function the daemon tests drive without sockets.
pub fn handle(engine: &mut CoverageEngine, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/covers") => handle_covers(engine, req),
        ("GET", "/config-coverage") => handle_config_coverage(engine, req),
        ("GET", "/metrics") => handle_metrics(engine),
        ("GET", "/delta-since") => handle_delta_since(engine, req),
        ("POST", "/delta") => handle_delta(engine, req),
        ("POST", "/autogen") => handle_autogen(engine, req),
        ("POST", "/shutdown") => {
            Response::ok(format!("{{\"ok\":true,\"version\":{}}}", engine.version()))
        }
        (
            _,
            "/covers" | "/config-coverage" | "/metrics" | "/delta-since" | "/delta" | "/autogen"
            | "/shutdown",
        ) => Response::error(405, "method not allowed"),
        _ => Response::error(404, &format!("no such endpoint: {}", req.path)),
    }
}
