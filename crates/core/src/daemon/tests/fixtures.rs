#![cfg(test)]

//! Engines and raw-socket helpers the daemon tests share.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use netbdd::Bdd;
use netmodel::header;
use netmodel::topology::{DeviceId, IfaceKind, Role, Topology};
use netmodel::{Location, Network, Prefix, RouteClass, Rule};
use netobs::json;

use crate::daemon::{http_get, trace_to_json};
use crate::engine::CoverageEngine;
use crate::trace::CoverageTrace;

pub(super) fn build_engine() -> CoverageEngine {
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

pub(super) fn mark_trace_json(device: u32, prefix: &str) -> String {
    let mut bdd = Bdd::new();
    let mut t = CoverageTrace::new();
    let set = header::dst_in(&mut bdd, &prefix.parse().unwrap());
    t.add_packets(&mut bdd, Location::device(DeviceId(device)), set);
    trace_to_json(&t.export(&bdd))
}

/// A routed engine (provenance-capable): tor originates 10.0.0.0/24,
/// spine learns it over the session; a dark null static sits on the
/// spine.
pub(super) fn build_routed_engine() -> CoverageEngine {
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

/// One raw round trip with a hand-written header block, for framing
/// the built-in client would never produce. Returns the status. Only
/// the status line is read: a daemon that refuses a request closes
/// with the rest of it unread, which resets the connection.
pub(super) fn raw_status(addr: &str, head: impl AsRef<[u8]>) -> u16 {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(head.as_ref()).unwrap();
    let mut status = String::new();
    BufReader::new(stream).read_line(&mut status).unwrap();
    status.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// The engine version a running daemon reports under `/metrics`.
pub(super) fn served_version(addr: &str) -> Option<f64> {
    let (status, body) = http_get(addr, "/metrics").unwrap();
    assert_eq!(status, 200, "{body}");
    json::parse(&body).unwrap().get("version").unwrap().as_f64()
}
