//! Synchronous HTTP/JSON front end for the [`CoverageEngine`].
//!
//! A deliberately small, dependency-free server: a blocking accept loop
//! over [`std::net::TcpListener`], one request per connection
//! (`Connection: close`), hand-rolled HTTP/1.1 framing, and
//! [`netobs::json`] for request bodies. No async runtime — coverage
//! queries are CPU-bound BDD work on the engine's one manager, which is
//! `&mut` for every operation, so a thread pool would only serialise.
//!
//! Endpoints:
//!
//! | method | path | query/body | answer |
//! |--------|------|------------|--------|
//! | GET  | `/covers`      | `rule=<dev>.<idx>`          | coverage of one rule (LRU-cached) |
//! | GET  | `/config-coverage` | optional `construct=<wire id>` | config-level coverage summary, or one construct's drill-down |
//! | GET  | `/metrics`     | —                           | headline metrics (memoised per engine version), engine state, netobs snapshots |
//! | GET  | `/delta-since` | `trace=<version>`           | deltas applied after that engine version; `410` with `oldest` once they left the bounded log |
//! | POST | `/delta`       | JSON delta document         | applies a rule/test/topology delta |
//! | POST | `/autogen`     | optional `{"seed","budget"}` | runs one coverage-guided generation round |
//! | POST | `/shutdown`    | —                           | acknowledges, then the serve loop exits |
//!
//! The parsing and handling layers are pure functions over [`Request`]
//! and [`Response`] so they are testable without sockets; only
//! [`serve`] and the [`http_get`]/[`http_post`] client helpers touch
//! the network.

use std::io::{sink, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use netbdd::PortableBdd;
use netmodel::provenance::Construct;
use netmodel::topology::DeviceId;
use netmodel::{Action, IfaceId, Location, MatchFields, Prefix, RouteClass, Rule, RuleId};
use netobs::json::{self, number, quote, Json};

use crate::engine::{CoverageEngine, DeltaRecord, EngineError};
use crate::testgen::{autogen, GenConfig};
use crate::trace::PortableTrace;

/// A parsed HTTP request: method, path, decoded query pairs, body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The path without the query string.
    pub path: String,
    /// Query parameters in order of appearance, percent-decoded.
    pub query: Vec<(String, String)>,
    /// The request body (empty when absent).
    pub body: String,
}

impl Request {
    /// Build a request from a method, a target (`/path?k=v`), and a body.
    pub fn new(method: &str, target: &str, body: &str) -> Request {
        let (path, qs) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        let query = qs
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| match kv.split_once('=') {
                Some((k, v)) => (percent_decode(k), percent_decode(v)),
                None => (percent_decode(kv), String::new()),
            })
            .collect();
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query,
            body: body.to_string(),
        }
    }

    /// First value of query parameter `name`.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// An HTTP response: status code plus a JSON body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: String,
}

impl Response {
    fn ok(body: String) -> Response {
        Response { status: 200, body }
    }

    fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            body: format!("{{\"error\":{}}}", quote(message)),
        }
    }
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 3 <= bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

// ----- JSON emission ------------------------------------------------------

/// `null` for `None`.
fn jopt(x: Option<f64>) -> String {
    x.map(number).unwrap_or_else(|| "null".to_string())
}

// ----- wire decoding ------------------------------------------------------

fn num_u32(j: Option<&Json>, what: &str) -> Result<u32, String> {
    let n = j
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{what} must be a number"))?;
    if !(0.0..=u32::MAX as f64).contains(&n) || n.fract() != 0.0 {
        return Err(format!("{what} out of range: {n}"));
    }
    Ok(n as u32)
}

/// Non-negative integer as u64. JSON numbers ride through f64, so only
/// values up to 2^53 round-trip exactly — plenty for a seed knob.
fn num_u64(j: Option<&Json>, what: &str) -> Result<u64, String> {
    let n = j
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{what} must be a number"))?;
    if !(0.0..=(1u64 << 53) as f64).contains(&n) || n.fract() != 0.0 {
        return Err(format!("{what} out of range: {n}"));
    }
    Ok(n as u64)
}

/// Parse a rule id of the form `<device>.<index>` or `r<device>.<index>`.
pub fn parse_rule_id(s: &str) -> Option<RuleId> {
    let s = s.strip_prefix('r').unwrap_or(s);
    let (d, i) = s.split_once('.')?;
    Some(RuleId {
        device: DeviceId(d.parse().ok()?),
        index: i.parse().ok()?,
    })
}

/// Decode a rule from its JSON wire form:
/// `{"dst": "10.0.0.0/24", "out_ifaces": [3], "in_iface": 2, "class": "other"}`.
/// Every field is optional; empty `out_ifaces` means drop.
pub fn decode_rule(j: &Json) -> Result<Rule, String> {
    let dst = match j.get("dst") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let s = v.as_str().ok_or("dst must be a prefix string")?;
            Some(s.parse::<Prefix>().map_err(|e| format!("bad dst: {e}"))?)
        }
    };
    let in_iface = match j.get("in_iface") {
        None | Some(Json::Null) => None,
        v => Some(IfaceId(num_u32(v, "in_iface")?)),
    };
    let mut out_ifaces = Vec::new();
    if let Some(arr) = j.get("out_ifaces") {
        for v in arr.as_array().ok_or("out_ifaces must be an array")? {
            out_ifaces.push(IfaceId(num_u32(Some(v), "out_ifaces entry")?));
        }
    }
    let class = match j.get("class").and_then(Json::as_str) {
        None => RouteClass::Other,
        Some("static-default") => RouteClass::StaticDefault,
        Some("bgp-default") => RouteClass::BgpDefault,
        Some("host-subnet") => RouteClass::HostSubnet,
        Some("loopback") => RouteClass::Loopback,
        Some("connected") => RouteClass::Connected,
        Some("wan") => RouteClass::Wan,
        Some("other") => RouteClass::Other,
        Some(other) => return Err(format!("unknown route class {other:?}")),
    };
    Ok(Rule {
        matches: MatchFields {
            dst,
            in_iface,
            ..MatchFields::default()
        },
        action: if out_ifaces.is_empty() {
            Action::Drop
        } else {
            Action::Forward(out_ifaces)
        },
        class,
    })
}

/// Decode a portable trace from its JSON wire form (see
/// [`trace_to_json`] for the encoder). Structural validation of the
/// packet-set snapshots happens later, in
/// [`PortableTrace::try_import`] — this only checks JSON shape.
pub fn decode_trace(j: &Json) -> Result<PortableTrace, String> {
    let mut packets = Vec::new();
    if let Some(arr) = j.get("packets") {
        for p in arr.as_array().ok_or("packets must be an array")? {
            let device = DeviceId(num_u32(p.get("device"), "packet device")?);
            let loc = match p.get("iface") {
                None | Some(Json::Null) => Location::device(device),
                v => Location::at(device, IfaceId(num_u32(v, "packet iface")?)),
            };
            let mut nodes = Vec::new();
            if let Some(ns) = p.get("nodes") {
                for n in ns.as_array().ok_or("nodes must be an array")? {
                    let triple = n.as_array().ok_or("node must be [var, lo, hi]")?;
                    if triple.len() != 3 {
                        return Err("node must be [var, lo, hi]".into());
                    }
                    nodes.push((
                        num_u32(Some(&triple[0]), "node var")?,
                        num_u32(Some(&triple[1]), "node lo")?,
                        num_u32(Some(&triple[2]), "node hi")?,
                    ));
                }
            }
            let root = num_u32(p.get("root"), "packet root")?;
            packets.push((loc, PortableBdd::from_parts(nodes, root)));
        }
    }
    let mut rules = std::collections::BTreeSet::new();
    if let Some(arr) = j.get("rules") {
        for r in arr.as_array().ok_or("rules must be an array")? {
            let pair = r.as_array().ok_or("rule mark must be [device, index]")?;
            if pair.len() != 2 {
                return Err("rule mark must be [device, index]".into());
            }
            rules.insert(RuleId {
                device: DeviceId(num_u32(Some(&pair[0]), "rule mark device")?),
                index: num_u32(Some(&pair[1]), "rule mark index")?,
            });
        }
    }
    Ok(PortableTrace::from_parts(packets, rules))
}

/// Encode a portable trace as the JSON wire form [`decode_trace`] reads.
pub fn trace_to_json(t: &PortableTrace) -> String {
    let packets: Vec<String> = t
        .packets()
        .iter()
        .map(|(loc, p)| {
            let nodes: Vec<String> = p
                .nodes()
                .iter()
                .map(|&(v, lo, hi)| format!("[{v},{lo},{hi}]"))
                .collect();
            let iface = match loc.iface {
                Some(i) => i.0.to_string(),
                None => "null".to_string(),
            };
            format!(
                "{{\"device\":{},\"iface\":{},\"nodes\":[{}],\"root\":{}}}",
                loc.device.0,
                iface,
                nodes.join(","),
                p.root()
            )
        })
        .collect();
    let rules: Vec<String> = t
        .rules()
        .iter()
        .map(|id| format!("[{},{}]", id.device.0, id.index))
        .collect();
    format!(
        "{{\"packets\":[{}],\"rules\":[{}]}}",
        packets.join(","),
        rules.join(",")
    )
}

// ----- handlers -----------------------------------------------------------

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

fn devices_json(devices: &[DeviceId]) -> String {
    let devices: Vec<String> = devices.iter().map(|d| d.0.to_string()).collect();
    devices.join(",")
}

fn record_json(r: &DeltaRecord) -> String {
    format!(
        "{{\"version\":{},\"kind\":{},\"detail\":{},\"devices\":[{}]}}",
        r.version,
        quote(r.kind.as_str()),
        quote(&r.detail),
        devices_json(&r.devices)
    )
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

fn headline_json(h: &crate::engine::HeadlineMetrics) -> String {
    format!(
        "{{\"rule_fractional\":{},\"rule_weighted\":{},\"device_fractional\":{}}}",
        jopt(h.rule_fractional),
        jopt(h.rule_weighted),
        jopt(h.device_fractional)
    )
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

// ----- wire framing -------------------------------------------------------

/// Largest request body [`read_request`] accepts. The largest legitimate
/// body is one exported trace in a `test-add` delta — 1.2 MB for the
/// whole §8 suite as one test on a k=16 fat-tree — so 8 MiB leaves room,
/// and is small enough that a hostile `Content-Length` cannot make the
/// daemon allocate its way to an abort.
const MAX_BODY_BYTES: usize = 8 << 20;

/// Largest request line plus header block [`read_request`] reads. Every
/// request the built-in client sends has a head of a few hundred bytes;
/// without a bound, a request line that never ends grows one `String`
/// until the allocator aborts the daemon.
const MAX_HEAD_BYTES: u64 = 64 << 10;

/// Read one HTTP/1.1 request from a stream (request line, headers,
/// `Content-Length` body).
///
/// The inner `Err` is a framing rejection to send back as is — `431` for
/// a request line and headers longer than 64 KiB together, `400` for a
/// `Content-Length` that is not a number, `413` for one above the 8 MiB
/// body cap — decided before any body byte is read or allocated for, and
/// without involving the engine.
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<Result<Request, Response>> {
    let mut reader = BufReader::new(stream);
    let mut head = (&mut reader).take(MAX_HEAD_BYTES);
    // A line cut short by the bound, not by the peer hanging up.
    let truncated =
        |line: &str, head: &std::io::Take<_>| !line.ends_with('\n') && head.limit() == 0;
    let too_large = || Ok(Err(Response::error(431, "request head too large")));
    let mut line = String::new();
    head.read_line(&mut line)?;
    if truncated(&line, &head) {
        return too_large();
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("/").to_string();
    let mut content_len = 0usize;
    loop {
        let mut header = String::new();
        let read = head.read_line(&mut header)?;
        if truncated(&header, &head) {
            return too_large();
        }
        if read == 0 {
            break;
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_len = match value.trim().parse::<u64>() {
                    Ok(n) if n <= MAX_BODY_BYTES as u64 => n as usize,
                    Ok(_) => return Ok(Err(Response::error(413, "request body too large"))),
                    Err(_) => return Ok(Err(Response::error(400, "unparsable Content-Length"))),
                };
            }
        }
    }
    let mut body = vec![0u8; content_len];
    reader.read_exact(&mut body)?;
    Ok(Ok(Request::new(
        &method,
        &target,
        &String::from_utf8_lossy(&body),
    )))
}

/// Write a [`Response`] as an HTTP/1.1 message.
pub fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let reason = match resp.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        410 => "Gone",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        resp.status,
        reason,
        resp.body.len(),
        resp.body
    )?;
    stream.flush()
}

/// How long [`serve`] waits on one connection for the next bytes of a
/// request, and for the peer to take the next bytes of the answer. The
/// loop is single-threaded, so a client that connects and goes quiet
/// would otherwise hold every other client off for good; the slowest
/// legitimate request is a loopback `test-add` body, which arrives in
/// milliseconds.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Serve requests until a `POST /shutdown` arrives (which is answered
/// before the loop exits). One request per connection, handled on the
/// accepting thread. A connection that stays silent for five seconds
/// before its request is complete is dropped, and the engine never sees
/// it.
pub fn serve(engine: &mut CoverageEngine, listener: TcpListener) -> std::io::Result<()> {
    serve_with_timeout(engine, listener, IO_TIMEOUT)
}

fn serve_with_timeout(
    engine: &mut CoverageEngine,
    listener: TcpListener,
    io_timeout: Duration,
) -> std::io::Result<()> {
    for stream in listener.incoming() {
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if stream.set_read_timeout(Some(io_timeout)).is_err()
            || stream.set_write_timeout(Some(io_timeout)).is_err()
        {
            continue;
        }
        let req = match read_request(&mut stream) {
            Ok(Ok(r)) => r,
            Ok(Err(rejection)) => {
                let _ = write_response(&mut stream, &rejection);
                // Closing with input unread resets the connection, which
                // can destroy the answer before the client reads it: end
                // the answer, then drop what the client sends (at most one
                // more head's worth) until it hangs up or goes quiet.
                let _ = stream.shutdown(Shutdown::Write);
                let _ = std::io::copy(&mut (&mut stream).take(MAX_HEAD_BYTES), &mut sink());
                continue;
            }
            // Timed out or hung up mid-request: nothing reaches the engine.
            Err(_) => continue,
        };
        let shutdown = req.method == "POST" && req.path == "/shutdown";
        let resp = handle(engine, &req);
        let _ = write_response(&mut stream, &resp);
        if shutdown {
            return Ok(());
        }
    }
    Ok(())
}

// ----- built-in client ----------------------------------------------------

/// One HTTP round trip; returns `(status, body)`. The daemon's own
/// client, so scripts and CI never need `curl`.
pub fn http_request(
    addr: &str,
    method: &str,
    target: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// `GET` against a running daemon.
pub fn http_get(addr: &str, target: &str) -> std::io::Result<(u16, String)> {
    http_request(addr, "GET", target, "")
}

/// `POST` against a running daemon.
pub fn http_post(addr: &str, target: &str, body: &str) -> std::io::Result<(u16, String)> {
    http_request(addr, "POST", target, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CoverageTrace;
    use netbdd::Bdd;
    use netmodel::header;
    use netmodel::topology::{IfaceKind, Role, Topology};
    use netmodel::Network;

    fn build_engine() -> CoverageEngine {
        let mut t = Topology::new();
        let tor = t.add_device("tor", Role::Tor);
        let hosts = t.add_iface(tor, "hosts", IfaceKind::Host);
        let up = t.add_iface(tor, "up", IfaceKind::External);
        let mut n = Network::new(t);
        n.add_rule(
            tor,
            Rule::forward(
                "10.0.0.0/24".parse().unwrap(),
                vec![hosts],
                RouteClass::HostSubnet,
            ),
        );
        n.add_rule(
            tor,
            Rule::forward(Prefix::v4_default(), vec![up], RouteClass::StaticDefault),
        );
        n.finalize();
        CoverageEngine::new(n, 1)
    }

    fn mark_trace_json(device: u32, prefix: &str) -> String {
        let mut bdd = Bdd::new();
        let mut t = CoverageTrace::new();
        let set = header::dst_in(&mut bdd, &prefix.parse().unwrap());
        t.add_packets(&mut bdd, Location::device(DeviceId(device)), set);
        trace_to_json(&t.export(&bdd))
    }

    /// A routed engine (provenance-capable): tor originates 10.0.0.0/24,
    /// spine learns it over the session; a dark null static sits on the
    /// spine.
    fn build_routed_engine() -> CoverageEngine {
        let mut topo = Topology::new();
        let tor = topo.add_device("tor", Role::Tor);
        let spine = topo.add_device("spine", Role::Spine);
        let hosts = topo.add_iface(tor, "hosts", IfaceKind::Host);
        topo.add_link(tor, spine);
        let mut rb = routing::RibBuilder::new(topo);
        rb.set_tier(tor, 0);
        rb.set_tier(spine, 1);
        rb.originate(routing::Origination::new(
            tor,
            "10.0.0.0/24".parse().unwrap(),
            RouteClass::HostSubnet,
            Some(hosts),
            routing::Scope::All,
        ));
        rb.add_static(routing::StaticRoute {
            device: spine,
            prefix: "192.0.2.0/24".parse().unwrap(),
            target: routing::StaticTarget::Null,
            class: RouteClass::Other,
        });
        let (rt, net) = rb.into_engine().unwrap();
        let mut engine = CoverageEngine::new(net, 1);
        engine.attach_routing(rt);
        engine
    }

    #[test]
    fn config_coverage_summary_and_drilldown() {
        let mut engine = build_routed_engine();
        // Unattached engines answer with a named error.
        let mut bare = build_engine();
        let resp = handle(&mut bare, &Request::new("GET", "/config-coverage", ""));
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("no routing engine"), "{}", resp.body);

        // Empty suite: everything coverable, nothing covered.
        let resp = handle(&mut engine, &Request::new("GET", "/config-coverage", ""));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = json::parse(&resp.body).unwrap();
        let coverable = doc.get("coverable").unwrap().as_f64().unwrap();
        assert!(coverable >= 3.0, "{}", resp.body); // orig + session + static
        assert_eq!(doc.get("covered").unwrap().as_f64(), Some(0.0));
        assert_eq!(doc.get("fractional").unwrap().as_f64(), Some(0.0));

        // Register a probe at the spine: session + origination flip.
        let body = format!(
            "{{\"kind\":\"test-add\",\"name\":\"spine-probe\",\"trace\":{}}}",
            mark_trace_json(1, "10.0.0.0/24")
        );
        let resp = handle(&mut engine, &Request::new("POST", "/delta", &body));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let resp = handle(&mut engine, &Request::new("GET", "/config-coverage", ""));
        let doc = json::parse(&resp.body).unwrap();
        assert_eq!(doc.get("covered").unwrap().as_f64(), Some(2.0));
        let uncovered = doc.get("uncovered").unwrap().as_array().unwrap();
        assert!(uncovered
            .iter()
            .any(|u| u.as_str() == Some("static:d1:192.0.2.0/24")));

        // Drill-down: the session names its exercising test.
        let resp = handle(
            &mut engine,
            &Request::new("GET", "/config-coverage?construct=session:d0-d1", ""),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = json::parse(&resp.body).unwrap();
        assert_eq!(doc.get("covered").unwrap().as_bool(), Some(true));
        let tests = doc.get("tests").unwrap().as_array().unwrap();
        assert_eq!(tests.len(), 1);
        assert_eq!(tests[0].as_str(), Some("spine-probe"));

        // The dark static's drill-down is uncovered with no tests.
        let resp = handle(
            &mut engine,
            &Request::new(
                "GET",
                "/config-coverage?construct=static:d1:192.0.2.0%2F24",
                "",
            ),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = json::parse(&resp.body).unwrap();
        assert_eq!(doc.get("covered").unwrap().as_bool(), Some(false));
        assert!(doc.get("tests").unwrap().as_array().unwrap().is_empty());

        // Malformed and unknown constructs are named errors.
        assert_eq!(
            handle(
                &mut engine,
                &Request::new("GET", "/config-coverage?construct=nope", "")
            )
            .status,
            400
        );
        assert_eq!(
            handle(
                &mut engine,
                &Request::new("GET", "/config-coverage?construct=session:d7-d9", "")
            )
            .status,
            404
        );
        assert_eq!(
            handle(&mut engine, &Request::new("POST", "/config-coverage", "")).status,
            405
        );
    }

    #[test]
    fn config_coverage_is_cached_and_deltas_invalidate_it() {
        let mut engine = build_routed_engine();
        let req = Request::new("GET", "/config-coverage", "");
        let cold = handle(&mut engine, &req);
        assert_eq!(cold.status, 200, "{}", cold.body);
        let warm = handle(&mut engine, &req);
        assert_eq!(warm, cold);
        assert!(engine.query_cache_stats().hits >= 1);
        // A topology delta must flush the cached summary: the severed
        // session leaves the coverable universe.
        let resp = handle(
            &mut engine,
            &Request::new("POST", "/delta", r#"{"kind":"link-down","a":0,"b":1}"#),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let degraded = handle(&mut engine, &req);
        assert_ne!(degraded.body, cold.body);
        assert!(
            !degraded.body.contains("session:d0-d1"),
            "{}",
            degraded.body
        );
    }

    /// A route the control plane installed is withdrawn by the topology
    /// delta that takes it away: a rule delta for it is refused, so the
    /// routing engine still finds it when that topology delta comes.
    #[test]
    fn withdrawing_a_control_plane_route_is_a_400_and_the_next_link_down_applies() {
        let mut engine = build_routed_engine();
        let spine = DeviceId(1);
        let prefix: Prefix = "10.0.0.0/24".parse().unwrap();
        let index = engine
            .network()
            .device_rules(spine)
            .iter()
            .position(|r| r.matches.dst == Some(prefix))
            .unwrap();
        let before = engine.version();
        let body = format!(r#"{{"kind":"rule-withdraw","device":1,"index":{index}}}"#);
        let resp = handle(&mut engine, &Request::new("POST", "/delta", &body));
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("control plane"), "{}", resp.body);
        assert_eq!(engine.version(), before);
        let resp = handle(
            &mut engine,
            &Request::new("POST", "/delta", r#"{"kind":"link-down","a":0,"b":1}"#),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(engine.version(), before + 1);
    }

    #[test]
    fn request_parsing_splits_target_and_decodes() {
        let r = Request::new("GET", "/covers?rule=r0.1&x=a%20b+c", "");
        assert_eq!(r.path, "/covers");
        assert_eq!(r.param("rule"), Some("r0.1"));
        assert_eq!(r.param("x"), Some("a b c"));
        assert_eq!(r.param("missing"), None);
    }

    #[test]
    fn rule_id_parses_both_spellings() {
        let id = RuleId {
            device: DeviceId(3),
            index: 2,
        };
        assert_eq!(parse_rule_id("3.2"), Some(id));
        assert_eq!(parse_rule_id("r3.2"), Some(id));
        assert_eq!(parse_rule_id("r3"), None);
        assert_eq!(parse_rule_id("a.b"), None);
    }

    #[test]
    fn covers_is_cached_and_warm_answers_hit_the_lru() {
        let mut engine = build_engine();
        let req = Request::new("GET", "/covers?rule=0.0", "");
        let cold = handle(&mut engine, &req);
        assert_eq!(cold.status, 200);
        let stats = engine.query_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let warm = handle(&mut engine, &req);
        assert_eq!(warm, cold);
        let stats = engine.query_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn rule_delta_changes_the_covers_answer_and_flushes_the_cache() {
        let mut engine = build_engine();
        let covers = Request::new("GET", "/covers?rule=0.0", "");
        let before = handle(&mut engine, &covers);
        let delta = Request::new(
            "POST",
            "/delta",
            r#"{"kind":"rule-insert","device":0,"rule":{"dst":"10.0.0.7/32"}}"#,
        );
        let applied = handle(&mut engine, &delta);
        assert_eq!(applied.status, 200, "{}", applied.body);
        assert!(applied.body.contains("\"detail\":\"r0.0\""));
        // The /32 outranks the /24, so rule 0.0 now *is* the new rule:
        // the answer must change, and it must be a fresh (miss) compute.
        let after = handle(&mut engine, &covers);
        assert_ne!(after.body, before.body);
        let stats = engine.query_cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn ingress_scoped_rule_into_an_unscoped_table_is_a_400_and_changes_nothing() {
        // Well-formed on the wire and valid interface by interface; it
        // used to mutate the table and then panic in match-set
        // derivation, killing the daemon with the delta half applied.
        let mut engine = build_engine();
        let table = engine.network().device_rules(DeviceId(0)).to_vec();
        let delta = Request::new(
            "POST",
            "/delta",
            r#"{"kind":"rule-insert","device":0,"rule":{"dst":"10.9.0.0/24","in_iface":0,"out_ifaces":[1]}}"#,
        );
        let resp = handle(&mut engine, &delta);
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("ingress-scoped"), "{}", resp.body);
        assert_eq!(engine.version(), 0);
        assert_eq!(engine.network().device_rules(DeviceId(0)), table);
        let metrics = handle(&mut engine, &Request::new("GET", "/metrics", ""));
        assert_eq!(metrics.status, 200, "{}", metrics.body);
    }

    #[test]
    fn deeply_nested_body_is_a_400_not_a_stack_overflow() {
        // 100 000 `[` — 100 KB, far under the body cap — used to recurse
        // the JSON parser off the end of the stack: an abort, not a panic.
        let mut engine = build_engine();
        let body = "[".repeat(100_000);
        for target in ["/delta", "/autogen"] {
            let resp = handle(&mut engine, &Request::new("POST", target, &body));
            assert_eq!(resp.status, 400, "{target}: {}", resp.body);
            assert!(resp.body.contains("nesting deeper than"), "{}", resp.body);
        }
        assert_eq!(engine.version(), 0);
        let metrics = handle(&mut engine, &Request::new("GET", "/metrics", ""));
        assert_eq!(metrics.status, 200, "{}", metrics.body);
    }

    #[test]
    fn test_delta_roundtrip_over_the_wire_format() {
        let mut engine = build_engine();
        let body = format!(
            "{{\"kind\":\"test-add\",\"name\":\"t1\",\"trace\":{}}}",
            mark_trace_json(0, "10.0.0.0/24")
        );
        let resp = handle(&mut engine, &Request::new("POST", "/delta", &body));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"devices\":[0]"));
        let covers = handle(&mut engine, &Request::new("GET", "/covers?rule=0.0", ""));
        assert!(covers.body.contains("\"coverage\":1,"), "{}", covers.body);
        let resp = handle(
            &mut engine,
            &Request::new("POST", "/delta", r#"{"kind":"test-remove","name":"t1"}"#),
        );
        assert_eq!(resp.status, 200);
        let covers = handle(&mut engine, &Request::new("GET", "/covers?rule=0.0", ""));
        assert!(covers.body.contains("\"coverage\":0,"), "{}", covers.body);
    }

    #[test]
    fn test_remove_delta_flushes_the_cache_like_rule_deltas_do() {
        // Regression guard: every delta kind must flush the query cache,
        // not just rule inserts. A stale cached /covers after test-remove
        // would keep reporting coverage the departed test provided.
        let mut engine = build_engine();
        let body = format!(
            "{{\"kind\":\"test-add\",\"name\":\"t1\",\"trace\":{}}}",
            mark_trace_json(0, "10.0.0.0/24")
        );
        handle(&mut engine, &Request::new("POST", "/delta", &body));
        let covers = Request::new("GET", "/covers?rule=0.0", "");
        let with_test = handle(&mut engine, &covers);
        assert!(with_test.body.contains("\"exercised\":true"));
        assert_eq!(engine.query_cache_stats().entries, 1);
        let resp = handle(
            &mut engine,
            &Request::new("POST", "/delta", r#"{"kind":"test-remove","name":"t1"}"#),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        // The delta must have emptied the cache wholesale...
        assert_eq!(engine.query_cache_stats().entries, 0);
        // ...so the next query is a fresh miss with the test's coverage
        // gone, not a stale hit.
        let without_test = handle(&mut engine, &covers);
        assert!(
            without_test.body.contains("\"exercised\":false"),
            "{}",
            without_test.body
        );
        let stats = engine.query_cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn gc_flushes_the_cache_and_preserves_covers_answers() {
        // Regression guard for the GC arm: a collection relocates every
        // live ref, so cached responses must be dropped — but the
        // recomputed answer over relocated refs must come out identical.
        let mut engine = build_engine();
        let body = format!(
            "{{\"kind\":\"test-add\",\"name\":\"t1\",\"trace\":{}}}",
            mark_trace_json(0, "10.0.0.0/24")
        );
        handle(&mut engine, &Request::new("POST", "/delta", &body));
        let covers = Request::new("GET", "/covers?rule=0.0", "");
        let before = handle(&mut engine, &covers);
        assert_eq!(engine.query_cache_stats().entries, 1);
        let stats = engine.gc();
        assert!(stats.nodes_after <= stats.nodes_before);
        assert_eq!(
            engine.query_cache_stats().entries,
            0,
            "GC must flush the query cache"
        );
        let after = handle(&mut engine, &covers);
        assert_eq!(after, before, "GC relocation changed a /covers answer");
        let stats = engine.query_cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn autogen_endpoint_closes_the_gaps_in_one_round() {
        let mut engine = build_engine();
        let resp = handle(&mut engine, &Request::new("POST", "/autogen", ""));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = json::parse(&resp.body).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("converged").unwrap().as_bool(), Some(true));
        // Both FIB rules get their own traceroute (the /24 delivers to
        // hosts, the default exits upstream), registered as deltas.
        let tests = doc.get("tests").unwrap().as_array().unwrap();
        assert_eq!(tests.len(), 2);
        for t in tests {
            assert_eq!(t.get("kind").unwrap().as_str(), Some("traceroute"));
        }
        assert_eq!(
            doc.get("coverage")
                .unwrap()
                .get("after")
                .unwrap()
                .get("rule_fractional")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(engine.version(), 2);
        // A second round finds nothing left to do.
        let resp = handle(&mut engine, &Request::new("POST", "/autogen", ""));
        let doc = json::parse(&resp.body).unwrap();
        assert_eq!(doc.get("converged").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("rounds").unwrap().as_f64(), Some(0.0));
        assert!(doc.get("tests").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn autogen_body_knobs_are_validated() {
        let mut engine = build_engine();
        let resp = handle(
            &mut engine,
            &Request::new("POST", "/autogen", r#"{"budget":1}"#),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = json::parse(&resp.body).unwrap();
        assert_eq!(doc.get("budget_exhausted").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("tests").unwrap().as_array().unwrap().len(), 1);
        let bad = handle(&mut engine, &Request::new("POST", "/autogen", "{nope"));
        assert_eq!(bad.status, 400);
        let bad = handle(
            &mut engine,
            &Request::new("POST", "/autogen", r#"{"seed":-1}"#),
        );
        assert_eq!(bad.status, 400, "{}", bad.body);
        assert_eq!(
            handle(&mut engine, &Request::new("GET", "/autogen", "")).status,
            405
        );
    }

    #[test]
    fn malformed_trace_snapshot_is_a_400_not_a_panic() {
        let mut engine = build_engine();
        // `root` points past the (empty) node array — exactly the kind of
        // truncated snapshot `try_import` exists to reject.
        let body = r#"{"kind":"test-add","name":"bad","trace":{"packets":[{"device":0,"iface":null,"nodes":[],"root":4}],"rules":[]}}"#;
        let resp = handle(&mut engine, &Request::new("POST", "/delta", body));
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("malformed trace"), "{}", resp.body);
        assert_eq!(engine.version(), 0);
    }

    #[test]
    fn a_test_add_on_a_foreign_interface_is_a_400_and_builds_nothing() {
        // Interface 2 is the spine's end of the link; 999 is no interface
        // at all. Either used to be answered 200, and its packets moved
        // the tor's unscoped rules' coverage.
        let mut engine = build_routed_engine();
        let nodes = engine.analyzer().1.node_count();
        for iface in [2, 999] {
            let body = format!(
                r#"{{"kind":"test-add","name":"x","trace":{{"packets":[{{"device":0,"iface":{iface},"nodes":[],"root":0}}]}}}}"#
            );
            let resp = handle(&mut engine, &Request::new("POST", "/delta", &body));
            assert_eq!(resp.status, 400, "iface {iface}: {}", resp.body);
            assert!(resp.body.contains("does not belong to"), "{}", resp.body);
        }
        assert_eq!(engine.version(), 0);
        assert_eq!(engine.analyzer().1.node_count(), nodes);
        assert!(engine.test_names().next().is_none());
    }

    #[test]
    fn delta_since_reports_the_tail() {
        let mut engine = build_engine();
        let body = format!(
            "{{\"kind\":\"test-add\",\"name\":\"t1\",\"trace\":{}}}",
            mark_trace_json(0, "10.0.0.0/25")
        );
        handle(&mut engine, &Request::new("POST", "/delta", &body));
        handle(
            &mut engine,
            &Request::new(
                "POST",
                "/delta",
                r#"{"kind":"rule-insert","device":0,"rule":{"dst":"10.1.0.0/16"}}"#,
            ),
        );
        let resp = handle(
            &mut engine,
            &Request::new("GET", "/delta-since?trace=1", ""),
        );
        assert_eq!(resp.status, 200);
        let doc = json::parse(&resp.body).unwrap();
        assert_eq!(doc.get("version").unwrap().as_f64(), Some(2.0));
        let deltas = doc.get("deltas").unwrap().as_array().unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(
            deltas[0].get("kind").unwrap().as_str(),
            Some("rule-inserted")
        );
        let missing = handle(&mut engine, &Request::new("GET", "/delta-since", ""));
        assert_eq!(missing.status, 400);
    }

    #[test]
    fn delta_since_past_the_bounded_log_is_a_410_naming_the_oldest() {
        use crate::engine::DELTA_LOG_CAPACITY;
        let mut engine = build_engine();
        let add = format!(
            "{{\"kind\":\"test-add\",\"name\":\"t1\",\"trace\":{}}}",
            mark_trace_json(0, "10.0.0.0/25")
        );
        let remove = r#"{"kind":"test-remove","name":"t1"}"#;
        // The 2·capacity-th delta drops the older half of the log.
        for i in 0..=2 * DELTA_LOG_CAPACITY {
            let body = if i % 2 == 0 { add.as_str() } else { remove };
            let resp = handle(&mut engine, &Request::new("POST", "/delta", body));
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
        let oldest = DELTA_LOG_CAPACITY + 1;
        // Version 1 fell out of the log: a reader at 0 would miss it.
        let gone = handle(
            &mut engine,
            &Request::new("GET", "/delta-since?trace=0", ""),
        );
        assert_eq!(gone.status, 410, "{}", gone.body);
        let doc = json::parse(&gone.body).unwrap();
        assert_eq!(doc.get("oldest").unwrap().as_f64(), Some(oldest as f64));
        assert!(doc
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("resync"));
        // A reader just before the oldest record misses nothing and gets
        // the whole window.
        let whole = handle(
            &mut engine,
            &Request::new("GET", &format!("/delta-since?trace={}", oldest - 1), ""),
        );
        assert_eq!(whole.status, 200, "{}", whole.body);
        let doc = json::parse(&whole.body).unwrap();
        let deltas = doc.get("deltas").unwrap().as_array().unwrap();
        assert_eq!(deltas.len(), DELTA_LOG_CAPACITY + 1);
    }

    #[test]
    fn metrics_body_is_valid_json_with_engine_state() {
        let mut engine = build_engine();
        let resp = handle(&mut engine, &Request::new("GET", "/metrics", ""));
        assert_eq!(resp.status, 200);
        let doc = json::parse(&resp.body).unwrap();
        assert_eq!(doc.get("rules").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            doc.get("headline")
                .unwrap()
                .get("rule_fractional")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        assert!(doc.get("query_cache").unwrap().get("capacity").is_some());
    }

    #[test]
    fn unknown_routes_and_methods_are_named() {
        let mut engine = build_engine();
        assert_eq!(
            handle(&mut engine, &Request::new("GET", "/nope", "")).status,
            404
        );
        assert_eq!(
            handle(&mut engine, &Request::new("POST", "/covers", "")).status,
            405
        );
        assert_eq!(
            handle(&mut engine, &Request::new("GET", "/covers?rule=9.0", "")).status,
            404
        );
        assert_eq!(
            handle(&mut engine, &Request::new("GET", "/covers", "")).status,
            400
        );
    }

    #[test]
    fn serve_loop_answers_over_a_real_socket_and_shuts_down() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut engine = build_engine();
            serve(&mut engine, listener).unwrap();
        });
        let (status, body) = http_get(&addr, "/covers?rule=0.1").unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"rule\":\"r0.1\""));
        let (status, _) = http_post(
            &addr,
            "/delta",
            r#"{"kind":"rule-insert","device":0,"rule":{"dst":"10.9.0.0/16"}}"#,
        )
        .unwrap();
        assert_eq!(status, 200);
        let (status, body) = http_post(&addr, "/shutdown", "").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\":true"));
        server.join().unwrap();
    }

    #[test]
    fn a_silent_client_is_dropped_and_the_next_one_is_served() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut engine = build_engine();
            serve_with_timeout(&mut engine, listener, Duration::from_millis(100)).unwrap();
            engine.version()
        });
        // Two ways to say nothing useful: no byte at all, and a request
        // that stops before its blank line. Both stay connected.
        let silent = TcpStream::connect(&addr).unwrap();
        let mut stalled = TcpStream::connect(&addr).unwrap();
        stalled
            .write_all(b"POST /delta HTTP/1.1\r\nContent-")
            .unwrap();
        let (status, body) = http_get(&addr, "/metrics").unwrap();
        assert_eq!(status, 200, "{body}");
        let (status, _) = http_post(&addr, "/shutdown", "").unwrap();
        assert_eq!(status, 200);
        assert_eq!(server.join().unwrap(), 0, "no delta reached the engine");
        drop((silent, stalled));
    }

    /// One raw round trip with a hand-written header block, for framing
    /// the built-in client would never produce. Returns the status. Only
    /// the status line is read: a daemon that refuses a request closes
    /// with the rest of it unread, which resets the connection.
    fn raw_status(addr: &str, head: &str) -> u16 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(head.as_bytes()).unwrap();
        let mut status = String::new();
        BufReader::new(stream).read_line(&mut status).unwrap();
        status.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    /// The engine version a running daemon reports under `/metrics`.
    fn served_version(addr: &str) -> Option<f64> {
        let (status, body) = http_get(addr, "/metrics").unwrap();
        assert_eq!(status, 200, "{body}");
        json::parse(&body).unwrap().get("version").unwrap().as_f64()
    }

    #[test]
    fn hostile_content_length_is_rejected_without_touching_the_engine() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut engine = build_engine();
            serve(&mut engine, listener).unwrap();
        });
        let before = served_version(&addr);
        for (length, status) in [
            ("99999999999999", 413),
            (&(MAX_BODY_BYTES + 1).to_string(), 413),
            ("banana", 400),
            ("-1", 400),
        ] {
            let head = format!("POST /delta HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
            assert_eq!(raw_status(&addr, &head), status, "Content-Length: {length}");
            assert_eq!(
                served_version(&addr),
                before,
                "after Content-Length: {length}"
            );
        }
        let (status, _) = http_post(&addr, "/shutdown", "").unwrap();
        assert_eq!(status, 200);
        server.join().unwrap();
    }

    #[test]
    fn an_oversized_request_head_is_refused_and_the_next_client_served() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut engine = build_engine();
            serve(&mut engine, listener).unwrap();
        });
        let before = served_version(&addr);
        let bound = MAX_HEAD_BYTES as usize;
        let delta = r#"{"kind":"rule-insert","device":0,"rule":{"dst":"10.9.0.0/16"}}"#;
        let pad = "X-Pad: 0123456789abcdef0123456789abcdef\r\n";
        for (what, head) in [
            // A request line that never ends within the bound.
            ("line", format!("POST /{}", "a".repeat(bound + 1))),
            // Short lines, but more of them than the bound holds.
            (
                "headers",
                format!(
                    "POST /delta HTTP/1.1\r\nContent-Length: {}\r\n{}\r\n{delta}",
                    delta.len(),
                    pad.repeat(bound / pad.len() + 1)
                ),
            ),
        ] {
            assert_eq!(raw_status(&addr, &head), 431, "over-long {what}");
            assert_eq!(served_version(&addr), before, "after the over-long {what}");
        }
        let (status, _) = http_post(&addr, "/shutdown", "").unwrap();
        assert_eq!(status, 200);
        server.join().unwrap();
    }
}
