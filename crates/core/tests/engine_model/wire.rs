//! The model's wire: the request bodies it sends, and a loopback
//! connection that carries raw bytes to the daemon's framing.

use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use netbdd::Bdd;
use netmodel::header;
use netmodel::topology::DeviceId;
use netmodel::{Location, Prefix, RuleId};
use yardstick::daemon::{read_request, trace_to_json, Request, Response};
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
/// by the daemon's framing: the request, the rejection `read_request`
/// answers itself, or the error it fails with (the bytes end before a
/// whole request).
pub fn over_loopback(bytes: &[u8]) -> std::io::Result<Result<Request, Response>> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    client.write_all(bytes).unwrap();
    client.shutdown(Shutdown::Write).unwrap();
    let (mut server, _) = listener.accept().unwrap();
    server
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    read_request(&mut server)
}

/// Whether the head of `bytes` (the lines after the request line, up to
/// the first blank one) has a `Content-Length` larger than the bytes
/// after it carry.
pub fn declares_a_longer_body(bytes: &[u8]) -> bool {
    let mut lines = bytes.split_inclusive(|&b| b == b'\n');
    let mut carried = bytes.len() - lines.next().map_or(0, <[u8]>::len);
    let mut declared = 0u64;
    for line in lines {
        carried -= line.len();
        let line = String::from_utf8_lossy(line);
        let line = line.trim();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                declared = value.trim().parse().unwrap_or(0);
            }
        }
    }
    declared > carried as u64
}
