//! # netmodel — the stateless dataplane model of §4.1
//!
//! The paper models a network as a 4-tuple `N = (V, I, E, S)`: devices,
//! interfaces, links, and forwarding state. Forwarding state is a set of
//! match-action rules per device; rules operate over *located packets* —
//! a header plus the location (device, interface) the packet currently
//! occupies.
//!
//! This crate provides:
//!
//! * [`addr`] — IPv4/IPv6 prefixes with parsing and containment.
//! * [`header`] — the packet header layout mapped onto BDD variables, and
//!   constructors for header predicates (destination prefixes, port
//!   ranges, concrete packets).
//! * [`topology`] — devices, interfaces, links, and roles.
//! * [`rule`] — match-action rules: match fields, forwarding actions
//!   (including ECMP fan-out and header rewrites), and route provenance.
//! * [`network`] — the assembled `N = (V, I, E, S)` with global rule ids.
//! * [`disjoint`] — preprocessing ordered tables into the disjoint match
//!   sets the paper's framework assumes (§5.2, step 1).
//! * [`trie`] — the same sets, and Algorithm 1's covered sets, for
//!   destination-only tables by prefix-trie walks.
//! * [`located`] — located packet sets: per-location BDDs.
//! * [`provenance`] — config-construct identity and per-rule attribution
//!   (the vocabulary of NetCov-style config-level coverage).
//!
//! The model is deliberately *semantics-based* (§3.2): nothing in this
//! crate depends on how a device implements its lookups, only on what the
//! rules mean.

#![deny(missing_docs)]

pub mod addr;
pub mod disjoint;
pub mod header;
pub mod located;
pub mod network;
pub mod provenance;
pub mod region;
pub mod rule;
pub mod topology;
pub mod trie;

pub use addr::{Family, Prefix};
pub use disjoint::{ActionClass, MatchSetCache, MatchSets};
pub use header::{HeaderField, Packet};
pub use located::{LocatedPacketSet, Location};
pub use network::{Network, RuleId};
pub use provenance::{ConfigDb, Construct, Marks};
pub use region::{describe_set, FieldConstraint, Region};
pub use rule::{Action, MatchFields, Rewrite, RouteClass, Rule, Table, TableMode};
pub use topology::{Device, DeviceId, Iface, IfaceId, IfaceKind, Role, Topology};
pub use trie::PrefixTries;
