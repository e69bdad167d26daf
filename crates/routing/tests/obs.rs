//! Span shape of FIB construction. Collection is process-global, so
//! this file holds exactly one test (its own test binary, like
//! `mutate/tests/obs_consistency.rs`).

use netmodel::rule::RouteClass;
use netmodel::topology::{IfaceKind, Role, Topology};
use routing::{Origination, RibBuilder, Scope};

fn description() -> RibBuilder {
    let mut topo = Topology::new();
    let tor = topo.add_device("tor", Role::Tor);
    let spine = topo.add_device("spine", Role::Spine);
    let hosts = topo.add_iface(tor, "hosts", IfaceKind::Host);
    topo.add_link(tor, spine);
    let mut rb = RibBuilder::new(topo);
    rb.originate(Origination::new(
        tor,
        "10.0.1.0/24".parse().unwrap(),
        RouteClass::HostSubnet,
        Some(hosts),
        Scope::All,
    ));
    rb
}

/// Harnesses sum the spans named `fib_build` into the routing layer's
/// time, so each construction must open exactly one, never nested, at
/// either entry — with the converge and fold+compile stages beneath it.
#[test]
fn each_entry_opens_one_fib_build_with_both_stages() {
    type Entry = fn(RibBuilder);
    let entries: [(&str, Entry); 2] = [
        ("try_build", |rb| drop(rb.try_build().unwrap())),
        ("into_engine", |rb| drop(rb.into_engine().unwrap())),
    ];
    for (entry, run) in entries {
        netobs::enable();
        run(description());
        let report = netobs::report();
        netobs::disable();

        let root = report.thread("main").expect("main thread spans");
        let mut builds = 0;
        root.walk(&mut |node, _| {
            if node.name == "fib_build" {
                builds += node.count;
            }
        });
        assert_eq!(builds, 1, "{entry}:\n{}", report.render());
        let build = root.child("fib_build").expect("fib_build at top level");
        for stage in ["fib_converge", "fib_compile"] {
            let count = build.child(stage).map(|s| s.count);
            assert_eq!(count, Some(1), "{entry}/{stage}:\n{}", report.render());
        }
    }
}
