//! The model's wire: the request bodies it sends, and a loopback
//! connection that carries raw bytes to the daemon's framing.

use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use netbdd::Bdd;
use netmodel::header;
use netmodel::topology::DeviceId;
use netmodel::{Location, Prefix, RuleId};
use yardstick::daemon::{read_request, trace_to_json, Request};
use yardstick::{CoverageTrace, PortableTrace};

/// A portable trace marking `prefix` at `device`, optionally inspecting
/// one rule of its table (rule marks are positional, like the wire).
pub fn mark_trace(device: DeviceId, prefix: Prefix, inspect: Option<u32>) -> PortableTrace {
    let mut bdd = Bdd::new();
    let mut t = CoverageTrace::new();
    let set = header::dst_in(&mut bdd, &prefix);
    t.add_packets(&mut bdd, Location::device(device), set);
    if let Some(index) = inspect {
        t.add_rule(RuleId { device, index });
    }
    t.export(&bdd)
}

pub fn insert(device: DeviceId, rule: &str) -> String {
    let device = device.0;
    format!(r#"{{"kind":"rule-insert","device":{device},"rule":{rule}}}"#)
}

pub fn withdraw(device: DeviceId, index: usize) -> String {
    let device = device.0;
    format!(r#"{{"kind":"rule-withdraw","device":{device},"index":{index}}}"#)
}

pub fn test_add(name: &str, trace: &PortableTrace) -> String {
    let trace = trace_to_json(trace);
    format!(r#"{{"kind":"test-add","name":"{name}","trace":{trace}}}"#)
}

/// A `test-add` at device 0 whose one snapshot is written out by hand.
pub fn raw_test_add(name: &str, nodes: &str, root: u32) -> String {
    let packets = format!(r#"[{{"device":0,"iface":null,"nodes":{nodes},"root":{root}}}]"#);
    format!(r#"{{"kind":"test-add","name":"{name}","trace":{{"packets":{packets}}}}}"#)
}

/// An `up` or `down` delta on a link, or on the device `d` as `(d, d)`.
pub fn topo(change: &str, (a, b): (DeviceId, DeviceId)) -> String {
    match a == b {
        true => format!(r#"{{"kind":"device-{change}","device":{}}}"#, a.0),
        false => format!(r#"{{"kind":"link-{change}","a":{},"b":{}}}"#, a.0, b.0),
    }
}

/// `bytes` as one connection's request on a loopback socket, read back
/// by the daemon's framing: `None` when `read_request` fails (the bytes
/// end before a whole request, or the head is not UTF-8) or answers the
/// request itself.
pub fn over_loopback(bytes: &[u8]) -> Option<Request> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    client.write_all(bytes).unwrap();
    client.shutdown(Shutdown::Write).unwrap();
    let (mut server, _) = listener.accept().unwrap();
    server
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    read_request(&mut server).ok()?.ok()
}
