//! Why a control-plane description cannot be compiled.

use std::fmt;

use netmodel::topology::{DeviceId, IfaceId};

/// Why a control-plane description cannot be compiled into forwarding
/// state. Every variant names the offending object so the error message
/// is actionable without a debugger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RibError {
    /// A device reference points outside the topology.
    UnknownDevice {
        /// The offending device id.
        device: DeviceId,
        /// How many devices the topology has.
        device_count: usize,
        /// Which kind of object held the reference.
        context: &'static str,
    },
    /// An interface reference points outside the topology, or belongs to
    /// a different device than the route naming it.
    BadIface {
        /// The offending interface id.
        iface: IfaceId,
        /// The device the reference was made for.
        device: DeviceId,
        /// Which kind of object held the reference.
        context: &'static str,
    },
    /// A per-device attribute slice has the wrong length (BGP simulator).
    LengthMismatch {
        /// Which attribute slice was mis-sized.
        what: &'static str,
        /// The length that was supplied.
        got: usize,
        /// The device count it must match.
        expected: usize,
    },
    /// A topology delta names a device pair with no link between them.
    UnknownLink {
        /// One endpoint of the missing link.
        a: DeviceId,
        /// The other endpoint.
        b: DeviceId,
    },
    /// A link-down delta targets a link that is already down.
    LinkAlreadyDown {
        /// One endpoint of the link.
        a: DeviceId,
        /// The other endpoint.
        b: DeviceId,
    },
    /// A link-up delta targets a link that is not down.
    LinkNotDown {
        /// One endpoint of the link.
        a: DeviceId,
        /// The other endpoint.
        b: DeviceId,
    },
    /// A device-down delta targets a device that is already down.
    DeviceAlreadyDown {
        /// The targeted device.
        device: DeviceId,
    },
    /// A device-up delta targets a device that is not down.
    DeviceNotDown {
        /// The targeted device.
        device: DeviceId,
    },
}

impl fmt::Display for RibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RibError::UnknownDevice {
                device,
                device_count,
                context,
            } => write!(
                f,
                "{context}: device {device:?} does not exist \
                 (topology has {device_count} devices)"
            ),
            RibError::BadIface {
                iface,
                device,
                context,
            } => write!(
                f,
                "{context}: interface {iface:?} is not an interface of device {device:?}"
            ),
            RibError::LengthMismatch {
                what,
                got,
                expected,
            } => write!(
                f,
                "{what}: got {got} entries, need one per device ({expected})"
            ),
            RibError::UnknownLink { a, b } => {
                write!(f, "topology delta: no link exists between {a:?} and {b:?}")
            }
            RibError::LinkAlreadyDown { a, b } => {
                write!(f, "topology delta: link {a:?}-{b:?} is already down")
            }
            RibError::LinkNotDown { a, b } => {
                write!(f, "topology delta: link {a:?}-{b:?} is not down")
            }
            RibError::DeviceAlreadyDown { device } => {
                write!(f, "topology delta: device {device:?} is already down")
            }
            RibError::DeviceNotDown { device } => {
                write!(f, "topology delta: device {device:?} is not down")
            }
        }
    }
}

impl std::error::Error for RibError {}
