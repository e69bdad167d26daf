//! Which construction `MatchSets::compute` gave each device, read from
//! its gauges: `match_sets.trie_devices` counts the destination-only
//! devices it walked as prefix tries, `match_sets.chain_devices` the
//! ones it ran the first-match chain on.
//!
//! netobs is process-global (enabling it resets the registry), so this
//! file is its own test binary and holds the only test that enables it.

use netbdd::Bdd;
use netmodel::MatchSets;
use topogen::acl::{install_acl, AclEntry};
use topogen::{fattree, regional, FatTreeParams, RegionalParams};

fn split() -> (f64, f64) {
    let gauges = netobs::gauges_snapshot();
    (
        gauges["match_sets.trie_devices"],
        gauges["match_sets.chain_devices"],
    )
}

#[test]
fn match_sets_publish_the_trie_and_chain_split() {
    netobs::enable();

    // Regional 1×: every FIB matches on the destination alone.
    let r = regional(RegionalParams::default());
    let _ = MatchSets::compute(&r.net, &mut Bdd::new());
    let devices = r.net.topology().device_count() as f64;
    assert_eq!(split(), (devices, 0.0));

    // A fat-tree with ACLs on two ToRs: those two take the chain.
    let mut ft = fattree(FatTreeParams::paper(4));
    for &(tor, prefix, _) in &ft.tors[..2] {
        install_acl(
            &mut ft.net,
            tor,
            &[
                AclEntry::block_tcp_port(23),
                AclEntry::block_tcp_port_to(prefix, 22),
            ],
        );
    }
    let _ = MatchSets::compute(&ft.net, &mut Bdd::new());
    let devices = ft.net.topology().device_count() as f64;
    assert_eq!(split(), (devices - 2.0, 2.0));
}
