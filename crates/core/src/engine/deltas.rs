//! Deltas: rule inserts and withdrawals, test registration and
//! retirement, topology events, and the bounded log every applied delta
//! is recorded in.

use std::collections::BTreeSet;

use netmodel::header;
use netmodel::topology::DeviceId;
use netmodel::{IfaceId, Location, Rule, RuleId};

use super::{CoverageEngine, EngineError, DELTA_LOG_CAPACITY};
use crate::trace::{CoverageTrace, PortableTrace};

/// What kind of delta a [`DeltaRecord`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    /// A rule was inserted on a device.
    RuleInserted,
    /// A rule was withdrawn from a device.
    RuleWithdrawn,
    /// A test's trace was registered.
    TestAdded,
    /// A test's trace was retired.
    TestRemoved,
    /// A link failed; the routing engine re-converged around it.
    LinkDown,
    /// A link recovered.
    LinkUp,
    /// A device failed; its FIB and routes through it are withdrawn.
    DeviceDown,
    /// A device recovered.
    DeviceUp,
}

impl DeltaKind {
    /// Stable wire name of the kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            DeltaKind::RuleInserted => "rule-inserted",
            DeltaKind::RuleWithdrawn => "rule-withdrawn",
            DeltaKind::TestAdded => "test-added",
            DeltaKind::TestRemoved => "test-removed",
            DeltaKind::LinkDown => "link-down",
            DeltaKind::LinkUp => "link-up",
            DeltaKind::DeviceDown => "device-down",
            DeltaKind::DeviceUp => "device-up",
        }
    }
}

/// One applied delta, as reported by `/delta-since`.
#[derive(Clone, Debug)]
pub struct DeltaRecord {
    /// The engine version this delta produced (versions start at 0 for
    /// the freshly built engine and increase by 1 per delta).
    pub version: u64,
    /// What happened.
    pub kind: DeltaKind,
    /// Human-readable subject: `r<device>.<index>` for rule deltas, the
    /// test name for test deltas.
    pub detail: String,
    /// The devices the delta names: those whose tables changed (rule
    /// and topology deltas) or that the test's trace marks (test
    /// deltas). Not every one of them is recomputed — a device whose
    /// rules a topology delta only replaced in place keeps its shards.
    pub devices: Vec<DeviceId>,
}

impl CoverageEngine {
    /// The deltas applied after engine version `since`, oldest first, or
    /// [`EngineError::DeltaLogTruncated`] naming the oldest retained
    /// version when the log no longer holds all of them.
    pub fn deltas_since(&self, since: u64) -> Result<&[DeltaRecord], EngineError> {
        match self.log.first() {
            Some(oldest) if since < oldest.version - 1 => Err(EngineError::DeltaLogTruncated {
                since,
                oldest: oldest.version,
            }),
            _ => Ok(&self.log[self.log.partition_point(|r| r.version <= since)..]),
        }
    }

    /// The newest logged delta: the daemon renders a `/delta` answer
    /// from it.
    pub(crate) fn last_delta(&self) -> Option<&DeltaRecord> {
        self.log.last()
    }

    // ----- deltas ----------------------------------------------------------

    /// Insert `rule` on `device` (first-match position is derived from
    /// the rule, as [`netmodel::Table::insert_sorted`] does) and refresh
    /// that device's match-set and covered-set shards.
    pub fn insert_rule(&mut self, device: DeviceId, rule: Rule) -> Result<RuleId, EngineError> {
        self.check_device(device)?;
        for &iface in rule.action.out_ifaces() {
            self.check_iface(device, iface)?;
        }
        let scoped = rule.matches.in_iface.is_some();
        if let Some(iface) = rule.matches.in_iface {
            self.check_iface(device, iface)?;
        }
        // An empty table accepts either kind; after that it holds one.
        let table = self.net.device_rules(device);
        if table.iter().any(|r| r.matches.in_iface.is_some() != scoped) {
            return Err(EngineError::MixedIngressScope { device });
        }
        let id = self.net.insert_rule(device, rule);
        self.refresh_device(device);
        self.record(
            DeltaKind::RuleInserted,
            format!("r{}.{}", id.device.0, id.index),
            vec![device],
        );
        Ok(id)
    }

    /// Withdraw the rule `id` and refresh its device's shards. Later
    /// rules on the device shift down one index. A rule the attached
    /// routing engine installed is refused: re-convergence edits it in
    /// place, so it must stay in the table.
    pub fn withdraw_rule(&mut self, id: RuleId) -> Result<Rule, EngineError> {
        self.check_rule(id)?;
        let rule = &self.net.device_rules(id.device)[id.index as usize];
        if let (Some(routing), Some(dst)) = (self.routing(), rule.matches.dst) {
            if routing.installed_rule(id.device, dst) == Some(rule) {
                return Err(EngineError::ControlPlaneRoute { id });
            }
        }
        let rule = self.net.withdraw_rule(id);
        self.refresh_device(id.device);
        self.record(
            DeltaKind::RuleWithdrawn,
            format!("r{}.{}", id.device.0, id.index),
            vec![id.device],
        );
        Ok(rule)
    }

    /// Register under `name` a test's trace from another manager (the
    /// wire form). Its devices and header variables are checked and its
    /// snapshots validated before it is imported; then it is registered
    /// by [`CoverageEngine::add_trace`].
    pub fn add_test(
        &mut self,
        name: &str,
        trace: &PortableTrace,
    ) -> Result<Vec<DeviceId>, EngineError> {
        // Everything is checked before the first node is built, so a
        // refused test leaves the arena as it found it.
        let locations = trace.packets().iter().map(|(location, _)| *location);
        self.check_test(name, locations, trace.rules())?;
        for (location, snapshot) in trace.packets() {
            if let Some(&(var, ..)) = snapshot.nodes().iter().find(|n| n.0 >= header::NVARS) {
                return Err(EngineError::OffHeaderVariable {
                    location: *location,
                    var,
                });
            }
        }
        let trace = trace
            .try_import(&mut self.bdd)
            .map_err(|(location, error)| EngineError::MalformedTrace { location, error })?;
        self.add_trace(name, trace)
    }

    /// Register under `name` a trace built in this engine's own manager,
    /// say by a [`crate::Tracker`] over [`CoverageEngine::analyzer`]; a
    /// trace from another manager must come through
    /// [`CoverageEngine::add_test`]. Covered sets are recomputed only at
    /// the devices the trace marks. Returns those devices.
    pub fn add_trace(
        &mut self,
        name: &str,
        trace: CoverageTrace,
    ) -> Result<Vec<DeviceId>, EngineError> {
        let locations = trace.packets.iter().map(|(location, _)| location);
        self.check_test(name, locations, &trace.rules)?;
        let devices = trace_devices(&trace);
        self.combined.merge(&mut self.bdd, &trace);
        for &device in &devices {
            self.recompute_covered(device);
        }
        self.tests.insert(name.to_string(), trace);
        self.record(DeltaKind::TestAdded, name.to_string(), devices.clone());
        Ok(devices)
    }

    /// Retire the test registered under `name`. Coverage is a union, not
    /// a sum, so the combined trace is rebuilt from the surviving tests
    /// and Algorithm 1 re-runs only at the devices the departed trace
    /// had marked. Returns those devices.
    pub fn remove_test(&mut self, name: &str) -> Result<Vec<DeviceId>, EngineError> {
        let trace = self
            .tests
            .remove(name)
            .ok_or_else(|| EngineError::UnknownTest { name: name.into() })?;
        let devices = trace_devices(&trace);
        let mut combined = CoverageTrace::new();
        for t in self.tests.values() {
            combined.merge(&mut self.bdd, t);
        }
        self.combined = combined;
        for &device in &devices {
            self.recompute_covered(device);
        }
        self.record(DeltaKind::TestRemoved, name.to_string(), devices.clone());
        Ok(devices)
    }

    /// Apply a topology failure/recovery delta through the attached
    /// routing engine and walk the FIB diff it emits, device by device.
    /// A device all of whose changes are in-place replacements
    /// ([`routing::FibChange::is_replacement`]: same key, same match
    /// fields, same index) keeps its match-set and covered-set shards —
    /// `M[r]` and `T[r]` are functions of match
    /// fields, table order and the trace, never of actions — and only
    /// drops its action classes. A device that gained or lost a prefix
    /// takes the whole-device refresh a rule delta takes. The delta is
    /// versioned in the log like any rule or test delta. Returns the
    /// devices whose tables changed.
    pub fn apply_topology(
        &mut self,
        delta: &routing::TopologyDelta,
    ) -> Result<Vec<DeviceId>, EngineError> {
        let routing = self.routing.as_mut().ok_or(EngineError::NoRoutingEngine)?;
        let diff = routing
            .apply(&mut self.net, delta)
            .map_err(EngineError::Routing)?;
        let mut devices = Vec::new();
        for changes in diff.changes.chunk_by(|x, y| x.device == y.device) {
            let device = changes[0].device;
            devices.push(device);
            if changes.iter().all(routing::FibChange::is_replacement) {
                self.ms.drop_action_classes(device);
            } else {
                self.refresh_device(device);
            }
        }
        let (kind, detail) = match *delta {
            routing::TopologyDelta::LinkDown { a, b } => {
                (DeltaKind::LinkDown, format!("link:{}-{}", a.0, b.0))
            }
            routing::TopologyDelta::LinkUp { a, b } => {
                (DeltaKind::LinkUp, format!("link:{}-{}", a.0, b.0))
            }
            routing::TopologyDelta::DeviceDown { device } => {
                (DeltaKind::DeviceDown, format!("device:{}", device.0))
            }
            routing::TopologyDelta::DeviceUp { device } => {
                (DeltaKind::DeviceUp, format!("device:{}", device.0))
            }
        };
        self.record(kind, detail, devices.clone());
        Ok(devices)
    }

    // ----- internals -------------------------------------------------------

    fn check_device(&self, device: DeviceId) -> Result<(), EngineError> {
        let count = self.net.topology().device_count();
        if device.0 as usize >= count {
            return Err(EngineError::UnknownDevice {
                device,
                device_count: count,
            });
        }
        Ok(())
    }

    fn check_iface(&self, device: DeviceId, iface: IfaceId) -> Result<(), EngineError> {
        let topo = self.net.topology();
        if iface.0 as usize >= topo.iface_count() || topo.iface(iface).device != device {
            return Err(EngineError::BadIface { iface, device });
        }
        Ok(())
    }

    /// A test to register needs a free name; each location it marks must
    /// name a device and, if it names an interface, one of that device's;
    /// each rule it marks must name a device.
    fn check_test(
        &self,
        name: &str,
        locations: impl Iterator<Item = Location>,
        rules: &BTreeSet<RuleId>,
    ) -> Result<(), EngineError> {
        if self.tests.contains_key(name) {
            return Err(EngineError::DuplicateTest { name: name.into() });
        }
        for location in locations {
            self.check_device(location.device)?;
            if let Some(iface) = location.iface {
                self.check_iface(location.device, iface)?;
            }
        }
        for id in rules {
            self.check_device(id.device)?;
        }
        Ok(())
    }

    pub(super) fn check_rule(&self, id: RuleId) -> Result<(), EngineError> {
        self.check_device(id.device)?;
        let table_len = self.net.device_rules(id.device).len();
        if id.index as usize >= table_len {
            return Err(EngineError::BadRuleIndex { id, table_len });
        }
        Ok(())
    }

    /// Refresh one device's match-set and covered-set shards after its
    /// table gained or lost a rule.
    fn refresh_device(&mut self, device: DeviceId) {
        self.ms
            .recompute_device(&self.net, &mut self.bdd, &mut self.ms_cache, device);
        self.recompute_covered(device);
    }

    /// Re-run Algorithm 1 on one device's shard.
    fn recompute_covered(&mut self, device: DeviceId) {
        self.covered
            .recompute_device(&self.net, &self.ms, &self.combined, &mut self.bdd, device);
        self.shards_recomputed += 1;
    }

    /// Log a delta, bump the version, and flush the query cache.
    fn record(&mut self, kind: DeltaKind, detail: String, devices: Vec<DeviceId>) {
        self.version += 1;
        self.devices_invalidated += devices.len() as u64;
        if self.log.len() == 2 * DELTA_LOG_CAPACITY {
            self.log.drain(..DELTA_LOG_CAPACITY);
        }
        self.log.push(DeltaRecord {
            version: self.version,
            kind,
            detail,
            devices,
        });
        self.query_cache.flush();
        self.publish_gauges();
        self.maybe_gc();
    }

    /// Run a collection if the arena has grown past the armed watermark.
    fn maybe_gc(&mut self) {
        if let Some(mark) = self.gc_watermark {
            if self.bdd.node_count() > mark {
                self.gc();
            }
        }
    }
}

/// The distinct devices a trace marks, via packets or rule inspections.
fn trace_devices(trace: &CoverageTrace) -> Vec<DeviceId> {
    let mut out: BTreeSet<DeviceId> = trace.packets.devices().into_iter().collect();
    out.extend(trace.rules.iter().map(|id| id.device));
    out.into_iter().collect()
}
