#![cfg(test)]

mod fixtures;

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use netmodel::topology::DeviceId;
use netmodel::{Prefix, RuleId};
use netobs::json;

use super::framing::{serve_with_timeout, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use super::*;
use fixtures::{build_engine, build_routed_engine, mark_trace_json, raw_status, served_version};

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

/// A refused read is looked up, misses and is not stored, so asking it
/// again misses again; a malformed one is never looked up.
#[test]
fn refused_reads_count_their_miss_and_store_nothing() {
    let mut engine = build_routed_engine();
    let get = |engine: &mut crate::CoverageEngine, target: &str| {
        handle(engine, &Request::new("GET", target, "")).status
    };
    assert_eq!(get(&mut engine, "/covers?rule=0.0"), 200);
    let past_the_end = format!(
        "/covers?rule=0.{}",
        engine.network().device_rules(DeviceId(0)).len()
    );
    let stats = |engine: &crate::CoverageEngine| {
        let s = engine.query_cache_stats();
        (s.hits, s.misses, s.evictions, s.entries)
    };
    assert_eq!(stats(&engine), (0, 1, 0, 1));
    for round in 0..2 {
        let misses = 2 + 2 * round;
        assert_eq!(get(&mut engine, &past_the_end), 404);
        assert_eq!(stats(&engine), (0, misses, 0, 1));
        assert_eq!(
            get(&mut engine, "/config-coverage?construct=session:d7-d9"),
            404
        );
        assert_eq!(stats(&engine), (0, misses + 1, 0, 1));
        assert_eq!(get(&mut engine, "/config-coverage?construct=nope"), 400);
        assert_eq!(stats(&engine), (0, misses + 1, 0, 1));
    }
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

#[test]
fn a_request_head_that_is_not_utf8_gets_a_400_and_the_next_client_is_served() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let mut engine = build_engine();
        serve(&mut engine, listener).unwrap();
    });
    let before = served_version(&addr);
    // "café" in Latin-1: 0xE9 on its own is not UTF-8.
    let latin1 = b"GET /metrics HTTP/1.1\r\nX: caf\xe9\r\n\r\n";
    assert_eq!(raw_status(&addr, latin1), 400);
    assert_eq!(served_version(&addr), before);
    let (status, _) = http_post(&addr, "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    server.join().unwrap();
}
