//! Why the engine refuses a delta or a query.

use netbdd::PortableBddError;
use netmodel::header;
use netmodel::topology::DeviceId;
use netmodel::{IfaceId, Location, RuleId};

/// Why the engine refused a delta or a query. Deltas arrive over the
/// wire, so every malformed one must be a named error, never a panic —
/// the same discipline `routing::RibError` applies to control-plane
/// descriptions and topology deltas.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The device id is outside the topology.
    UnknownDevice {
        /// The offending device id.
        device: DeviceId,
        /// How many devices the topology has.
        device_count: usize,
    },
    /// A rule referenced an interface that is absent or belongs to a
    /// different device.
    BadIface {
        /// The offending interface id.
        iface: IfaceId,
        /// The device the rule was destined for.
        device: DeviceId,
    },
    /// The rule index is outside its device's table.
    BadRuleIndex {
        /// The offending rule id.
        id: RuleId,
        /// The device's current table length.
        table_len: usize,
    },
    /// The rule would leave its device's table mixing ingress-scoped and
    /// unscoped rules, which match-set derivation does not support.
    MixedIngressScope {
        /// The device the rule was destined for.
        device: DeviceId,
    },
    /// A test with this name is already registered.
    DuplicateTest {
        /// The offending test name.
        name: String,
    },
    /// No test with this name is registered.
    UnknownTest {
        /// The offending test name.
        name: String,
    },
    /// A test's portable trace failed validation on import.
    MalformedTrace {
        /// The location whose packet-set snapshot is malformed.
        location: Location,
        /// What was wrong with the snapshot.
        error: PortableBddError,
    },
    /// A test's portable trace splits on a variable outside the packet
    /// header (`netmodel::header::NVARS` and up).
    OffHeaderVariable {
        /// The location whose packet-set snapshot uses the variable.
        location: Location,
        /// The offending variable.
        var: u32,
    },
    /// The rule is the one the attached routing engine installed for its
    /// `(device, prefix)` key: it is withdrawn by the topology delta that
    /// takes the route away, not by a rule delta.
    ControlPlaneRoute {
        /// The offending rule id.
        id: RuleId,
    },
    /// A topology delta arrived but no routing engine is attached
    /// ([`CoverageEngine::attach_routing`](super::CoverageEngine::attach_routing)
    /// was never called).
    NoRoutingEngine,
    /// The attached routing engine refused the topology delta.
    Routing(routing::RibError),
    /// The deltas after `since` are no longer all in the bounded delta
    /// log: the reader must resync rather than apply a tail with a gap.
    DeltaLogTruncated {
        /// The version the reader asked to continue from.
        since: u64,
        /// The oldest version the log still holds.
        oldest: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownDevice {
                device,
                device_count,
            } => write!(
                f,
                "unknown device {device:?} (topology has {device_count} devices)"
            ),
            EngineError::BadIface { iface, device } => {
                write!(f, "interface {iface:?} does not belong to {device:?}")
            }
            EngineError::BadRuleIndex { id, table_len } => write!(
                f,
                "rule r{}.{} is outside its device's table ({table_len} rules)",
                id.device.0, id.index
            ),
            EngineError::MixedIngressScope { device } => write!(
                f,
                "the rule would mix ingress-scoped and unscoped rules in the table of {device:?}"
            ),
            EngineError::DuplicateTest { name } => {
                write!(f, "test {name:?} is already registered")
            }
            EngineError::UnknownTest { name } => write!(f, "no test named {name:?}"),
            EngineError::MalformedTrace { location, error } => {
                write!(f, "malformed trace at {location:?}: {error}")
            }
            EngineError::OffHeaderVariable { location, var } => write!(
                f,
                "trace at {location:?} uses variable {var}, outside the {}-variable header",
                header::NVARS
            ),
            EngineError::ControlPlaneRoute { id } => write!(
                f,
                "rule r{}.{} is installed by the control plane; a topology delta withdraws it",
                id.device.0, id.index
            ),
            EngineError::NoRoutingEngine => {
                write!(f, "no routing engine attached: topology deltas unavailable")
            }
            EngineError::Routing(e) => write!(f, "{e}"),
            EngineError::DeltaLogTruncated { since, oldest } => write!(
                f,
                "the deltas after version {since} are gone from the delta log \
                 (oldest retained: {oldest}); resync"
            ),
        }
    }
}

impl std::error::Error for EngineError {}
