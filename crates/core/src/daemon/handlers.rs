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

fn engine_error_status(e: &EngineError) -> u16 {
    match e {
        EngineError::UnknownDevice { .. }
        | EngineError::UnknownTest { .. }
        | EngineError::BadRuleIndex { .. } => 404,
        EngineError::Routing(
            routing::RibError::UnknownDevice { .. } | routing::RibError::UnknownLink { .. },
        ) => 404,
        _ => 400,
    }
}

fn handle_covers(engine: &mut CoverageEngine, req: &Request) -> Response {
    let raw = match req.param("rule") {
        Some(r) => r,
        None => return Response::error(400, "missing query parameter: rule"),
    };
    let id = match parse_rule_id(raw) {
        Some(id) => id,
        None => return Response::error(400, "rule must look like <device>.<index>"),
    };
    let key = format!("covers:{}.{}", id.device.0, id.index);
    if let Some(cached) = engine.query_cache().get(&key) {
        return Response::ok(cached);
    }
    let c = match engine.rule_coverage(id) {
        Ok(c) => c,
        Err(e) => return Response::error(engine_error_status(&e), &e.to_string()),
    };
    let body = format!(
        "{{\"rule\":\"r{}.{}\",\"version\":{},\"match_probability\":{},\"covered_probability\":{},\"coverage\":{},\"exercised\":{}}}",
        id.device.0,
        id.index,
        engine.version(),
        number(c.match_probability),
        number(c.covered_probability),
        jopt(c.coverage),
        c.exercised
    );
    engine.query_cache().insert(key, body.clone());
    Response::ok(body)
}

/// `GET /config-coverage`: the headline config-level summary, or — with
/// `?construct=<wire id>` — one construct's drill-down including which
/// registered tests exercise it. Both forms ride the query LRU, keyed
/// like `/covers`, so deltas invalidate them automatically.
fn handle_config_coverage(engine: &mut CoverageEngine, req: &Request) -> Response {
    match req.param("construct") {
        None => {
            let key = "config-coverage".to_string();
            if let Some(cached) = engine.query_cache().get(&key) {
                return Response::ok(cached);
            }
            let cov = match engine.config_coverage() {
                Ok(c) => c,
                Err(e) => return Response::error(engine_error_status(&e), &e.to_string()),
            };
            let wire_ids = |cs: &[Construct]| -> Vec<String> {
                cs.iter().map(|c| quote(&c.wire_id())).collect()
            };
            let (uncovered, unreferenced) = (wire_ids(&cov.uncovered), wire_ids(&cov.unreferenced));
            let body = format!(
                "{{\"version\":{},\"coverable\":{},\"covered\":{},\"fractional\":{},\
                 \"uncovered\":[{}],\"unreferenced\":[{}]}}",
                engine.version(),
                cov.coverable(),
                cov.covered_count(),
                jopt(cov.fractional()),
                uncovered.join(","),
                unreferenced.join(",")
            );
            engine.query_cache().insert(key, body.clone());
            Response::ok(body)
        }
        Some(raw) => {
            let construct = match Construct::parse_wire_id(raw) {
                Some(c) => c,
                None => {
                    return Response::error(
                        400,
                        "construct must be a wire id like session:d0-d4 or orig:d3:10.0.1.0/24",
                    )
                }
            };
            let key = format!("config-coverage:{}", construct.wire_id());
            if let Some(cached) = engine.query_cache().get(&key) {
                return Response::ok(cached);
            }
            let entry = match engine.construct_coverage(&construct) {
                Ok(entry) => entry,
                Err(e) => return Response::error(engine_error_status(&e), &e.to_string()),
            };
            let body = match entry {
                Some(entry) if !entry.rules.is_empty() => {
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
                    format!(
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
                    )
                }
                Some(_) => format!(
                    "{{\"construct\":{},\"version\":{},\"covered\":false,\
                     \"unreferenced\":true,\"rules\":[],\"tests\":[]}}",
                    quote(&construct.wire_id()),
                    engine.version()
                ),
                None => {
                    return Response::error(
                        404,
                        &format!("no such construct in the current config: {raw}"),
                    )
                }
            };
            engine.query_cache().insert(key, body.clone());
            Response::ok(body)
        }
    }
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
         \"headline\":{{\"rule_fractional\":{},\"rule_weighted\":{},\"device_fractional\":{}}},\
         \"query_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{},\"capacity\":{}}},\
         \"gauges\":{{{}}},\"counters\":{{{}}}}}",
        engine.version(),
        engine.network().topology().device_count(),
        engine.network().rule_count(),
        engine.test_names().count(),
        jopt(headline.rule_fractional),
        jopt(headline.rule_weighted),
        jopt(headline.device_fractional),
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
        Err(e) => return Response::error(engine_error_status(&e), &e.to_string()),
    };
    Response::ok(format!(
        "{{\"since\":{},\"version\":{},\"deltas\":[{}]}}",
        since,
        engine.version(),
        deltas.join(",")
    ))
}

fn handle_delta(engine: &mut CoverageEngine, req: &Request) -> Response {
    let doc = match json::parse(&req.body) {
        Ok(doc) => doc,
        Err(e) => return Response::error(400, &format!("malformed JSON body: {e}")),
    };
    let kind = match doc.get("kind").and_then(Json::as_str) {
        Some(k) => k,
        None => return Response::error(400, "missing delta kind"),
    };
    let outcome = match kind {
        "rule-insert" => {
            let device = match num_u32(doc.get("device"), "device") {
                Ok(d) => DeviceId(d),
                Err(e) => return Response::error(400, &e),
            };
            let rule = match doc.get("rule") {
                None => return Response::error(400, "missing rule"),
                Some(j) => match decode_rule(j) {
                    Ok(r) => r,
                    Err(e) => return Response::error(400, &e),
                },
            };
            engine.insert_rule(device, rule).map(drop)
        }
        "rule-withdraw" => {
            let id = match (
                num_u32(doc.get("device"), "device"),
                num_u32(doc.get("index"), "index"),
            ) {
                (Ok(d), Ok(i)) => RuleId {
                    device: DeviceId(d),
                    index: i,
                },
                (Err(e), _) | (_, Err(e)) => return Response::error(400, &e),
            };
            engine.withdraw_rule(id).map(drop)
        }
        "test-add" => {
            let name = match doc.get("name").and_then(Json::as_str) {
                Some(n) => n,
                None => return Response::error(400, "missing test name"),
            };
            let trace = match doc
                .get("trace")
                .ok_or("missing trace".to_string())
                .and_then(decode_trace)
            {
                Ok(t) => t,
                Err(e) => return Response::error(400, &e),
            };
            engine.add_test(name, &trace).map(drop)
        }
        "test-remove" => match doc.get("name").and_then(Json::as_str) {
            Some(name) => engine.remove_test(name).map(drop),
            None => return Response::error(400, "missing test name"),
        },
        "link-down" | "link-up" => {
            let (a, b) = match (num_u32(doc.get("a"), "a"), num_u32(doc.get("b"), "b")) {
                (Ok(a), Ok(b)) => (DeviceId(a), DeviceId(b)),
                (Err(e), _) | (_, Err(e)) => return Response::error(400, &e),
            };
            let delta = if kind == "link-down" {
                routing::TopologyDelta::LinkDown { a, b }
            } else {
                routing::TopologyDelta::LinkUp { a, b }
            };
            engine.apply_topology(&delta).map(drop)
        }
        "device-down" | "device-up" => {
            let device = match num_u32(doc.get("device"), "device") {
                Ok(d) => DeviceId(d),
                Err(e) => return Response::error(400, &e),
            };
            let delta = if kind == "device-down" {
                routing::TopologyDelta::DeviceDown { device }
            } else {
                routing::TopologyDelta::DeviceUp { device }
            };
            engine.apply_topology(&delta).map(drop)
        }
        other => return Response::error(400, &format!("unknown delta kind {other:?}")),
    };
    if let Err(e) = outcome {
        return Response::error(engine_error_status(&e), &e.to_string());
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
