//! The parts of a control-plane description: originations, static
//! routes and the scope a BGP route is accepted in.

use netmodel::rule::RouteClass;
use netmodel::topology::{DeviceId, IfaceId};
use netmodel::Prefix;

/// Which devices accept (install and re-advertise) a BGP route.
///
/// `MinTier` is the stand-in for the production network's route-leak
/// policy: WAN routes are advertised to the regional hub and spine tiers
/// but never leaked into pods (§7.2, "wide-area routes").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Every device installs the route.
    All,
    /// Only devices whose tier is at least this value install the route.
    MinTier(u8),
}

impl Scope {
    pub(crate) fn accepts(self, tier: u8) -> bool {
        match self {
            Scope::All => true,
            Scope::MinTier(t) => tier >= t,
        }
    }
}

/// A prefix originated into BGP at a device (host subnet, loopback,
/// redistributed WAN route, or the BGP default from the WAN).
#[derive(Clone, Debug)]
pub struct Origination {
    /// The originating device.
    pub device: DeviceId,
    /// The originated prefix.
    pub prefix: Prefix,
    /// Route class stamped onto every FIB rule this origination creates.
    pub class: RouteClass,
    /// Where the originator itself sends matching packets: a host,
    /// loopback, or external interface. `None` means the originator
    /// advertises the prefix but blackholes matching traffic locally
    /// (used to model redistribution anomalies).
    pub deliver: Option<IfaceId>,
    /// Which tiers install (and re-advertise) the route.
    pub scope: Scope,
    /// Devices that refuse this route: they neither install nor
    /// re-advertise it. Models propagation anomalies like Figure 1's B2,
    /// whose null-routed static default stops it from passing the BGP
    /// default on to the spines.
    pub blocked: Vec<DeviceId>,
}

impl Origination {
    /// An origination with no blocked devices.
    pub fn new(
        device: DeviceId,
        prefix: Prefix,
        class: RouteClass,
        deliver: Option<IfaceId>,
        scope: Scope,
    ) -> Origination {
        Origination {
            device,
            prefix,
            class,
            deliver,
            scope,
            blocked: Vec::new(),
        }
    }
}

/// Target of a statically configured route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StaticTarget {
    /// Forward out these interfaces (ECMP if several).
    Ifaces(Vec<IfaceId>),
    /// Null route: drop matching packets (Figure 1's B2 misconfiguration).
    Null,
}

/// A statically configured, non-propagated route on one device.
#[derive(Clone, Debug)]
pub struct StaticRoute {
    /// The configured device.
    pub device: DeviceId,
    /// The destination prefix.
    pub prefix: Prefix,
    /// Where matching packets go.
    pub target: StaticTarget,
    /// Route class stamped onto the compiled FIB rule.
    pub class: RouteClass,
}
