//! # netbdd — reduced ordered binary decision diagrams for packet sets
//!
//! This crate is the packet-set substrate of the Yardstick reproduction
//! (SIGCOMM 2021, *Test Coverage Metrics for the Network*). The paper's
//! Figure 5 lists the operations coverage computation needs over packet
//! sets — `empty`, `negate`, `union`, `intersect`, `equal`, `fromRule`,
//! `count` — and notes that Yardstick implements them with binary decision
//! diagrams so that very large header spaces can be manipulated
//! efficiently. No sufficiently complete BDD crate was available, so this
//! one is built from scratch.
//!
//! ## Design
//!
//! * **Hash-consed ROBDD with complement edges.** Nodes live in an arena
//!   owned by a [`Bdd`] manager; references carry a complement tag in the
//!   Brace–Rudell–Bryant style, so negation is a bit flip, a function and
//!   its complement share one diagram, and there is a single terminal.
//!   The canonical-form invariant (lo edges regular) plus a unique table
//!   guarantees that equal functions are pointer-equal, which makes
//!   equality, emptiness, and complement-of checks O(1). The unique
//!   table holds arena indices only (open addressing, load ≤ ½), so a
//!   node is stored once.
//! * **ITE with a bounded computed cache.** All binary operations reduce
//!   to if-then-else; calls normalize to standard triples (argument
//!   ordering + complement rewrites) and are memoised in a fixed-size,
//!   direct-mapped, open-addressed computed table — bounded memory,
//!   no rehash cliffs, evictions counted in [`Stats`].
//! * **Handles are plain `u32` ids** ([`Ref`]); they are `Copy` and carry
//!   no lifetime, so callers can store them in network data structures
//!   freely as long as the owning manager stays alive.
//! * **One private arena.** A manager owns its nodes exclusively — no
//!   synchronisation anywhere; parallel sweeps run one manager per
//!   thread. The arena is append-only with children made before parents,
//!   so index order is a topological order; [`Bdd::collect`] uses it for
//!   a mark-compact GC — two linear sweeps, then a [`Relocation`]
//!   forwarding table — for long-lived daemons.
//! * **Counting is probability-based.** Packet headers in this project are
//!   ~200 bits, so exact satisfying counts overflow any fixed-width
//!   integer. [`Bdd::probability`] returns the fraction of the full
//!   variable space a function covers; every coverage metric in the paper
//!   is a *ratio* of counts, so fractions are sufficient (and exact
//!   zero/one tests are free because the BDD is canonical). An exact
//!   [`Bdd::sat_count`] is also provided for small domains, used heavily
//!   in tests.
//!
//! ## Quick example
//!
//! ```
//! use netbdd::Bdd;
//!
//! let mut bdd = Bdd::new();
//! // dst port (16 bits) occupies variables 0..16, MSB first.
//! let telnet = bdd.bits_eq(0, 16, 23);
//! let low_ports = bdd.int_range(0, 16, 0, 1023);
//! assert!(bdd.subset(telnet, low_ports)); // telnet ⊆ low ports
//! let frac = bdd.probability(low_ports);
//! assert!((frac - 1024.0 / 65536.0).abs() < 1e-12);
//! ```

#![deny(missing_docs)]

mod builder;
mod cache;
mod count;
mod cube;
mod debug;
mod fxhash;
mod manager;
mod node;
mod portable;
mod unique;

pub use cube::Cube;
pub use debug::{OpCounts, Stats};
pub use manager::{Bdd, GcStats, Relocation};
pub use node::Ref;
pub use node::Var;
pub use portable::{PortableBdd, PortableBddError, Slot};
