//! Config-construct identity: the vocabulary of config-level coverage.
//!
//! The paper's metrics stop at the dataplane — they grade FIB/ACL rules.
//! The NetCov follow-up attributes each covered rule back through the
//! control plane to the *configuration constructs* that produced it: the
//! origination that injected the prefix into BGP, every eBGP session on
//! the winning/ECMP announcement paths, and the statically configured
//! routes that won the admin-distance merge. This module defines the
//! construct identities ([`Construct`]), the per-entry [`Marks`] that
//! `yardstick` carries backwards through the routing layer to report
//! per-construct coverage, and the full attribution database
//! ([`ConfigDb`]) the routing layer can emit as the reference.
//!
//! Identity is deliberately coarse — a construct names a line of config
//! (one origination statement, one session, one static route), not a
//! control-plane message — so attribution is a pure function of the
//! converged routing state and survives incremental re-convergence
//! unchanged.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::addr::Prefix;
use crate::topology::DeviceId;

/// One configuration construct that can contribute forwarding state.
///
/// Sessions are canonicalised with the lower device id first, so the two
/// directions of one eBGP adjacency are a single construct (config-level
/// coverage asks "was this session exercised?", not "in which
/// direction?").
///
/// # Examples
///
/// ```
/// use netmodel::provenance::Construct;
/// use netmodel::topology::DeviceId;
///
/// let s = Construct::session(DeviceId(4), DeviceId(0));
/// assert_eq!(s.wire_id(), "session:d0-d4"); // canonical order
/// assert_eq!(Construct::parse_wire_id("session:d0-d4"), Some(s));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Construct {
    /// A prefix originated into BGP at a device (one `network`/
    /// redistribution statement).
    Origination {
        /// The originating device.
        device: DeviceId,
        /// The originated prefix.
        prefix: Prefix,
    },
    /// One eBGP session (point-to-point adjacency) between two devices,
    /// canonicalised so `a < b`.
    Session {
        /// The lower-id endpoint.
        a: DeviceId,
        /// The higher-id endpoint.
        b: DeviceId,
    },
    /// A statically configured route (including null routes and
    /// connected /31s) on one device.
    Static {
        /// The configured device.
        device: DeviceId,
        /// The configured destination prefix.
        prefix: Prefix,
    },
}

impl Construct {
    /// A session construct with its endpoints canonicalised (`a < b`).
    pub fn session(x: DeviceId, y: DeviceId) -> Construct {
        let (a, b) = if x.0 <= y.0 { (x, y) } else { (y, x) };
        Construct::Session { a, b }
    }

    /// Short kind tag: `orig`, `session`, or `static`.
    pub fn kind(&self) -> &'static str {
        match self {
            Construct::Origination { .. } => "orig",
            Construct::Session { .. } => "session",
            Construct::Static { .. } => "static",
        }
    }

    /// Stable wire identity, e.g. `orig:d3:10.0.1.0/24`,
    /// `session:d0-d4`, `static:d2:0.0.0.0/0`. Round-trips through
    /// [`Construct::parse_wire_id`].
    pub fn wire_id(&self) -> String {
        match self {
            Construct::Origination { device, prefix } => {
                format!("orig:d{}:{prefix}", device.0)
            }
            Construct::Session { a, b } => format!("session:d{}-d{}", a.0, b.0),
            Construct::Static { device, prefix } => {
                format!("static:d{}:{prefix}", device.0)
            }
        }
    }

    /// Parse a [`Construct::wire_id`] back into a construct. Returns
    /// `None` for malformed input (the HTTP layer turns that into a 400,
    /// never a panic).
    pub fn parse_wire_id(s: &str) -> Option<Construct> {
        let (kind, rest) = s.split_once(':')?;
        let parse_dev = |t: &str| -> Option<DeviceId> {
            t.strip_prefix('d')?.parse::<u32>().ok().map(DeviceId)
        };
        match kind {
            "orig" | "static" => {
                let (dev, prefix) = rest.split_once(':')?;
                let device = parse_dev(dev)?;
                let prefix: Prefix = prefix.parse().ok()?;
                Some(match kind {
                    "orig" => Construct::Origination { device, prefix },
                    _ => Construct::Static { device, prefix },
                })
            }
            "session" => {
                let (a, b) = rest.split_once('-')?;
                let (a, b) = (parse_dev(a)?, parse_dev(b)?);
                if a.0 >= b.0 {
                    return None; // wire form is canonical
                }
                Some(Construct::Session { a, b })
            }
            _ => None,
        }
    }
}

impl fmt::Display for Construct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.wire_id())
    }
}

/// What the tests say about a FIB entry, or about a construct once the
/// marks of every entry it contributed to are OR-ed in: *testable* (some
/// rule for the entry has a non-empty match set `M[r]`) and *exercised*
/// (some rule for it has a non-empty covered set `T[r]`).
///
/// # Examples
///
/// ```
/// use netmodel::provenance::Marks;
///
/// let mut m = Marks::NONE;
/// assert!(m.is_empty());
/// m |= Marks::TESTABLE;
/// m |= Marks::EXERCISED;
/// assert!(m.testable() && m.exercised());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Marks(u8);

impl Marks {
    /// No mark.
    pub const NONE: Marks = Marks(0);
    /// Some rule for the entry can carry packets (`M[r] ≠ ∅`).
    pub const TESTABLE: Marks = Marks(1);
    /// Some rule for the entry was exercised (`T[r] ≠ ∅`).
    pub const EXERCISED: Marks = Marks(2);

    /// Whether the testable bit is set.
    pub fn testable(self) -> bool {
        self.0 & Marks::TESTABLE.0 != 0
    }

    /// Whether the exercised bit is set.
    pub fn exercised(self) -> bool {
        self.0 & Marks::EXERCISED.0 != 0
    }

    /// Whether no bit is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for Marks {
    type Output = Marks;
    fn bitor(self, rhs: Marks) -> Marks {
        Marks(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for Marks {
    fn bitor_assign(&mut self, rhs: Marks) {
        self.0 |= rhs.0;
    }
}

/// The attribution database one converged control plane emits: the live
/// construct universe plus, per installed `(device, prefix)` FIB entry,
/// the set of constructs that contributed to it.
///
/// The universe contains every construct that *could* contribute under
/// the present failure state (live sessions, originations and statics of
/// up devices); the map attributes each entry the control plane actually
/// installed. Liveness overrides (which links/devices are down) are not
/// constructs — they are environment, not configuration — so a database
/// derived incrementally after failures is comparable, entry for entry,
/// with one derived from a from-scratch build of the degraded topology.
///
/// # Examples
///
/// ```
/// use netmodel::provenance::{ConfigDb, Construct};
/// use netmodel::topology::DeviceId;
///
/// let mut db = ConfigDb::default();
/// let prefix = "10.0.1.0/24".parse().unwrap();
/// let orig = Construct::Origination { device: DeviceId(0), prefix };
/// db.constructs.insert(orig);
/// db.map.insert(
///     (DeviceId(1), prefix),
///     [orig, Construct::session(DeviceId(0), DeviceId(1))].into(),
/// );
/// // d1's route to the prefix crossed the d0-d1 session.
/// let via = db.attribution(DeviceId(1), prefix).unwrap();
/// assert!(via.contains(&Construct::session(DeviceId(1), DeviceId(0))));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConfigDb {
    /// Every construct live under the present failure state.
    pub constructs: BTreeSet<Construct>,
    /// Per installed `(device, prefix)` entry: the contributing
    /// constructs (never empty for an attributed entry).
    pub map: BTreeMap<(DeviceId, Prefix), BTreeSet<Construct>>,
}

impl ConfigDb {
    /// The constructs attributed to the FIB entry for `prefix` on
    /// `device`, or `None` if the control plane installed no such entry.
    pub fn attribution(&self, device: DeviceId, prefix: Prefix) -> Option<&BTreeSet<Construct>> {
        self.map.get(&(device, prefix))
    }

    /// Number of constructs in the live universe.
    pub fn len(&self) -> usize {
        self.constructs.len()
    }

    /// Whether the universe is empty (an unconfigured network).
    pub fn is_empty(&self) -> bool {
        self.constructs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_canonicalises_endpoint_order() {
        let a = Construct::session(DeviceId(7), DeviceId(2));
        let b = Construct::session(DeviceId(2), DeviceId(7));
        assert_eq!(a, b);
        assert_eq!(a.wire_id(), "session:d2-d7");
    }

    #[test]
    fn wire_ids_round_trip() {
        let p: Prefix = "10.0.1.0/24".parse().unwrap();
        let cases = [
            Construct::Origination {
                device: DeviceId(3),
                prefix: p,
            },
            Construct::session(DeviceId(0), DeviceId(4)),
            Construct::Static {
                device: DeviceId(2),
                prefix: "0.0.0.0/0".parse().unwrap(),
            },
        ];
        for c in cases {
            assert_eq!(Construct::parse_wire_id(&c.wire_id()), Some(c), "{c}");
        }
    }

    #[test]
    fn malformed_wire_ids_are_rejected() {
        for bad in [
            "",
            "orig",
            "orig:d3",
            "orig:3:10.0.0.0/24",
            "session:d4-d0", // non-canonical order
            "session:d1-d1",
            "session:d1",
            "static:d2:not-a-prefix",
            "mystery:d0:10.0.0.0/8",
        ] {
            assert_eq!(Construct::parse_wire_id(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn attribution_lookup() {
        let p: Prefix = "10.0.1.0/24".parse().unwrap();
        let mut db = ConfigDb::default();
        assert!(db.is_empty());
        let orig = Construct::Origination {
            device: DeviceId(0),
            prefix: p,
        };
        db.constructs.insert(orig);
        db.map.insert((DeviceId(1), p), BTreeSet::from([orig]));
        assert_eq!(db.len(), 1);
        assert!(db.attribution(DeviceId(1), p).unwrap().contains(&orig));
        assert!(db.attribution(DeviceId(9), p).is_none());
    }
}
