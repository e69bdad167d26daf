//! # routing — control-plane substrate: FIB synthesis for Clos networks
//!
//! The paper's case-study network (§7.1) runs eBGP everywhere: private
//! ASNs per tier, `allow-as-in` so paths re-entering a tier's ASN are
//! accepted, ECMP on all routers, static default routes northbound as a
//! fail-safe, connected /31 (IPv4) and /126 (IPv6) routes on point-to-
//! point links, loopbacks redistributed into BGP, and wide-area routes
//! that are advertised to the regional hub and spine layers *but not
//! leaked further down*.
//!
//! This crate reproduces that control plane. On a Clos fabric with
//! per-tier ASNs and `allow-as-in`, BGP best-path selection (shortest AS
//! path, ECMP across ties) converges to the set of *topological shortest
//! paths* towards each prefix's originators — which is exactly the
//! property InternalRouteCheck validates in §7.3.
//!
//! There is one implementation of it. [`RibBuilder`] holds and validates
//! the control-plane description; [`RoutingEngine`]'s construction
//! (see [`engine`]) converges it by one level-by-level relaxation per
//! originated prefix — the same one that repairs it after a topology
//! delta — applies route scopes (the stand-in for route-leak policy),
//! resolves same-prefix conflicts by administrative distance (connected
//! < static < BGP), and compiles everything into [`netmodel::Network`]
//! forwarding state. [`RibBuilder::try_build`] stops there;
//! [`RibBuilder::into_engine`] keeps the converged state resident and
//! re-converges it incrementally under [`TopologyDelta`]s.
//!
//! Substitution note (recorded in DESIGN.md): the real network computes
//! FIBs with a production BGP simulator/emulator; what coverage analysis
//! needs is FIBs with the same *route classes and shapes*, which this
//! builder produces deterministically.

#![deny(missing_docs)]

pub mod engine;
pub mod rib;

pub use engine::{FibChange, FibDiff, RoutingEngine, TopologyDelta};
pub use rib::{Origination, RibBuilder, RibError, Scope, StaticRoute, StaticTarget};
