//! JSON to engine types and back: the wire forms of rule ids, rules and
//! traces, and the JSON fragments the handlers build their answers from.

use netbdd::PortableBdd;
use netmodel::topology::DeviceId;
use netmodel::{Action, IfaceId, Location, MatchFields, Prefix, RouteClass, Rule, RuleId};
use netobs::json::{number, quote, Json};

use crate::engine::DeltaRecord;
use crate::trace::PortableTrace;

// ----- JSON emission ------------------------------------------------------

/// `null` for `None`.
pub(super) fn jopt(x: Option<f64>) -> String {
    x.map(number).unwrap_or_else(|| "null".to_string())
}

pub(super) fn devices_json(devices: &[DeviceId]) -> String {
    let devices: Vec<String> = devices.iter().map(|d| d.0.to_string()).collect();
    devices.join(",")
}

pub(super) fn record_json(r: &DeltaRecord) -> String {
    format!(
        "{{\"version\":{},\"kind\":{},\"detail\":{},\"devices\":[{}]}}",
        r.version,
        quote(r.kind.as_str()),
        quote(&r.detail),
        devices_json(&r.devices)
    )
}

pub(super) fn headline_json(h: &crate::engine::HeadlineMetrics) -> String {
    format!(
        "{{\"rule_fractional\":{},\"rule_weighted\":{},\"device_fractional\":{}}}",
        jopt(h.rule_fractional),
        jopt(h.rule_weighted),
        jopt(h.device_fractional)
    )
}

// ----- wire decoding ------------------------------------------------------

pub(super) fn num_u32(j: Option<&Json>, what: &str) -> Result<u32, String> {
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
pub(super) fn num_u64(j: Option<&Json>, what: &str) -> Result<u64, String> {
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
