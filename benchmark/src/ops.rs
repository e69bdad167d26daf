//! Seeded request generation for the resident workloads.
//!
//! Everything here is a pure function of `(seed, network shape, batch
//! index)`: the program under test receives only the generated requests,
//! and two runs with the same seed issue the same requests in the same
//! order (hashed by [`OpHash`] so a test can say so).

use netmodel::{Action, DeviceId, IfaceId, MatchFields, Network, Prefix, RouteClass, Rule, RuleId};
use yardstick::rng::{seed_mix, splitmix64};

/// Rules in the read workload's hot set. Half of all `/covers` requests
/// go to these. The daemon's query LRU holds 128 entries and every miss
/// inserts one, so a hot rule stays resident only if it is asked again
/// before ~128 other keys are: 32 hot rules are (measured hit ratio 0.49
/// at k=12), 64 are not (0.37).
pub const HOT_SET: usize = 32;

/// Per cent of the read workload's `/covers` requests that go to the hot
/// set: half, so the working set is as much inside the query LRU as
/// outside it. A hot rule is now and then evicted, so the hit ratio is a
/// little below the share.
pub const HOT_SHARE: u64 = 50;

/// `/covers` requests after each delta of a churn round.
pub const COVERS_PER_DELTA: usize = 10;

/// What the generators need to know about the booted network.
#[derive(Clone, Debug, PartialEq)]
pub struct Shape {
    /// Rules per device at boot.
    pub table_len: Vec<u32>,
    /// Running sum of `table_len`, for uniform picks over all rules.
    rule_offsets: Vec<u64>,
    /// ToR devices with their interfaces (forwarding targets of the
    /// inserted rules).
    pub tors: Vec<(DeviceId, Vec<IfaceId>)>,
    /// Endpoint devices of every ToR uplink — the links the churn loop
    /// flaps. A fat-tree has as many aggregation–core links, and those
    /// re-converge 3.5× cheaper (one prefix group moves instead of a
    /// ToR's worth): a median over both classes mixed half and half
    /// would sit on the cliff between them, so rounds stay in one class,
    /// the dearer one.
    pub links: Vec<(DeviceId, DeviceId)>,
}

impl Shape {
    /// Describe `net`, whose ToRs and fabric links the caller names.
    pub fn of(net: &Network, tors: &[DeviceId], links: Vec<(DeviceId, DeviceId)>) -> Shape {
        let topo = net.topology();
        let table_len: Vec<u32> = (0..topo.device_count())
            .map(|d| net.device_rules(DeviceId(d as u32)).len() as u32)
            .collect();
        let mut total = 0u64;
        let rule_offsets = table_len
            .iter()
            .map(|&n| {
                total += n as u64;
                total
            })
            .collect();
        Shape {
            table_len,
            rule_offsets,
            tors: tors
                .iter()
                .map(|&d| (d, topo.device_ifaces(d).map(|(i, _)| i).collect()))
                .collect(),
            links: links
                .into_iter()
                .filter(|(a, b)| tors.contains(a) || tors.contains(b))
                .collect(),
        }
    }

    /// Rules in the network at boot.
    pub fn rule_count(&self) -> u64 {
        self.rule_offsets.last().copied().unwrap_or(0)
    }

    /// The `ordinal`-th rule of the network, counting device by device.
    fn nth_rule(&self, ordinal: u64) -> RuleId {
        let device = self.rule_offsets.partition_point(|&end| end <= ordinal);
        let before = if device == 0 {
            0
        } else {
            self.rule_offsets[device - 1]
        };
        RuleId {
            device: DeviceId(device as u32),
            index: (ordinal - before) as u32,
        }
    }

    /// A rule drawn uniformly over all rules.
    fn uniform_rule(&self, rng: &mut u64) -> RuleId {
        self.nth_rule(splitmix64(rng) % self.rule_count())
    }

    /// The `nth` of consecutive rules on `device` starting at `start`:
    /// distinct for up to a table's length, so reads on one device do
    /// not repeat a key and every one of them is a miss.
    fn rule_on(&self, device: DeviceId, start: u64, nth: usize) -> RuleId {
        RuleId {
            device,
            index: ((start + nth as u64) % self.table_len[device.0 as usize] as u64) as u32,
        }
    }
}

/// FNV-1a over the issued requests: equal hashes mean equal request
/// lists, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpHash(pub u64);

impl Default for OpHash {
    fn default() -> Self {
        OpHash(0xCBF2_9CE4_8422_2325)
    }
}

impl OpHash {
    /// Mix one request in.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xFF]) {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The `/covers` target of a rule.
pub fn covers_target(id: RuleId) -> String {
    format!("/covers?rule={}.{}", id.device.0, id.index)
}

/// The read workload's seeded hot set: `HOT_SET` distinct rules.
pub fn hot_set(seed: u64, shape: &Shape) -> Vec<RuleId> {
    let mut rng = seed_mix(seed, 0x407);
    let want = HOT_SET.min(shape.rule_count() as usize);
    let mut hot = Vec::with_capacity(want);
    while hot.len() < want {
        let id = shape.uniform_rule(&mut rng);
        if !hot.contains(&id) {
            hot.push(id);
        }
    }
    hot
}

/// Request targets of read batch `batch`: of every hundred requests one
/// is `GET /metrics`, one `GET /config-coverage`, and ninety-eight are
/// `GET /covers` — `HOT_SHARE` per cent of them to the hot set, the rest
/// uniform over all rules.
/// The two non-`/covers` requests sit at fixed places in each hundred,
/// so every batch does the same mix of work.
pub fn read_batch(seed: u64, shape: &Shape, hot: &[RuleId], batch: u64, n: usize) -> Vec<String> {
    let mut rng = seed_mix(seed, 0x4EAD ^ (batch << 16));
    (0..n)
        .map(|i| match i % 100 {
            33 => "/metrics".to_string(),
            66 => "/config-coverage".to_string(),
            _ => {
                let r = splitmix64(&mut rng);
                if r % 100 < HOT_SHARE {
                    covers_target(hot[(r / 100) as usize % hot.len()])
                } else {
                    covers_target(shape.uniform_rule(&mut rng))
                }
            }
        })
        .collect()
}

/// One churn round: a rule inserted and withdrawn on a ToR, a link
/// taken down and brought back, with reads after each delta.
#[derive(Clone, Debug, PartialEq)]
pub struct Round {
    /// The ToR that receives the rule.
    pub tor: DeviceId,
    /// Where the inserted rule forwards.
    pub out_iface: IfaceId,
    /// The inserted `/32`: fresh in every round of a run.
    pub addr: u32,
    /// The ToR uplink that flaps.
    pub link: (DeviceId, DeviceId),
    /// Reads after the insert, after link-down and after link-up: in
    /// each group of ten, five on the device the delta touched and five
    /// uniform over all rules. Indices refer to the boot-time tables
    /// and are folded into the table's current length when issued.
    pub reads: [[RuleId; COVERS_PER_DELTA]; 3],
}

/// Round `index` of a run. Inserted addresses come from `11.0.0.0/8`
/// through a bijection of the round index, so no two rounds of a run
/// share one and the BDD arena keeps growing until the collector runs.
pub fn round(seed: u64, shape: &Shape, index: u64) -> Round {
    let mut rng = seed_mix(seed, 0xC4A2 ^ (index << 16));
    let (tor, ifaces) = &shape.tors[splitmix64(&mut rng) as usize % shape.tors.len()];
    let out_iface = ifaces[splitmix64(&mut rng) as usize % ifaces.len()];
    let link = shape.links[splitmix64(&mut rng) as usize % shape.links.len()];
    let offset = seed_mix(seed, 0xADD2) & 0x00FF_FFFF;
    let addr = 0x0B00_0000 | ((index.wrapping_mul(0x9E_3779) + offset) & 0x00FF_FFFF) as u32;
    let mut group = |focus: DeviceId| {
        let start = splitmix64(&mut rng);
        let mut picks = [RuleId {
            device: focus,
            index: 0,
        }; COVERS_PER_DELTA];
        for (i, p) in picks.iter_mut().enumerate() {
            *p = if i < COVERS_PER_DELTA / 2 {
                shape.rule_on(focus, start, i)
            } else {
                shape.uniform_rule(&mut rng)
            };
        }
        picks
    };
    Round {
        tor: *tor,
        out_iface,
        addr,
        link,
        reads: [group(*tor), group(link.0), group(link.0)],
    }
}

impl Round {
    /// The inserted rule, as the daemon decodes it from
    /// [`Round::insert_body`].
    pub fn rule(&self) -> Rule {
        Rule {
            matches: MatchFields {
                dst: Some(Prefix::host_v4(self.addr)),
                ..MatchFields::default()
            },
            action: Action::Forward(vec![self.out_iface]),
            class: RouteClass::Other,
        }
    }

    /// The `rule-insert` delta document.
    pub fn insert_body(&self) -> String {
        let [a, b, c, d] = self.addr.to_be_bytes();
        format!(
            "{{\"kind\":\"rule-insert\",\"device\":{},\"rule\":{{\"dst\":\"{a}.{b}.{c}.{d}/32\",\"out_ifaces\":[{}]}}}}",
            self.tor.0, self.out_iface.0
        )
    }

    /// The flap as the routing engine takes it: down, then up.
    pub fn link_deltas(&self) -> [routing::TopologyDelta; 2] {
        let (a, b) = self.link;
        [
            routing::TopologyDelta::LinkDown { a, b },
            routing::TopologyDelta::LinkUp { a, b },
        ]
    }

    /// The `link-down` / `link-up` delta document.
    pub fn link_body(&self, up: bool) -> String {
        format!(
            "{{\"kind\":\"link-{}\",\"a\":{},\"b\":{}}}",
            if up { "up" } else { "down" },
            self.link.0 .0,
            self.link.1 .0
        )
    }
}

/// The `rule-withdraw` delta document for the rule an insert placed.
pub fn withdraw_body(id: RuleId) -> String {
    format!(
        "{{\"kind\":\"rule-withdraw\",\"device\":{},\"index\":{}}}",
        id.device.0, id.index
    )
}

/// `n` seeded rules for the end-of-run identity check.
pub fn verify_rules(seed: u64, shape: &Shape, n: usize) -> Vec<RuleId> {
    let mut rng = seed_mix(seed, 0x7E21F7);
    (0..n).map(|_| shape.uniform_rule(&mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use topogen::{fattree, FatTreeParams};

    fn shape() -> Shape {
        let ft = fattree(FatTreeParams::paper(4));
        let tors: Vec<DeviceId> = ft.tors.iter().map(|t| t.0).collect();
        let topo = ft.net.topology();
        let links = ft
            .links
            .iter()
            .map(|&(a, b)| (topo.iface(a).device, topo.iface(b).device))
            .collect();
        Shape::of(&ft.net, &tors, links)
    }

    fn read_hash(seed: u64, shape: &Shape) -> OpHash {
        let hot = hot_set(seed, shape);
        let mut h = OpHash::default();
        for batch in 0..3 {
            for target in read_batch(seed, shape, &hot, batch, 500) {
                h.add(target.as_bytes());
            }
        }
        h
    }

    fn churn_hash(seed: u64, shape: &Shape) -> OpHash {
        let mut h = OpHash::default();
        for i in 0..200 {
            let r = round(seed, shape, i);
            h.add(r.insert_body().as_bytes());
            h.add(r.link_body(false).as_bytes());
            for id in r.reads.iter().flatten() {
                h.add(covers_target(*id).as_bytes());
            }
        }
        h
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        let shape = shape();
        assert_eq!(read_hash(0xC0FFEE, &shape), read_hash(0xC0FFEE, &shape));
        assert_ne!(read_hash(0xC0FFEE, &shape), read_hash(0xC0FFEF, &shape));
        assert_eq!(churn_hash(0xC0FFEE, &shape), churn_hash(0xC0FFEE, &shape));
        assert_ne!(churn_hash(0xC0FFEE, &shape), churn_hash(7, &shape));
    }

    #[test]
    fn uniform_picks_name_existing_rules_and_cover_every_device() {
        let shape = shape();
        assert_eq!(
            shape.nth_rule(0),
            RuleId {
                device: DeviceId(0),
                index: 0
            }
        );
        let last = shape.nth_rule(shape.rule_count() - 1);
        assert_eq!(last.device.0 as usize, shape.table_len.len() - 1);
        assert_eq!(last.index + 1, *shape.table_len.last().unwrap());
        let mut rng = 1u64;
        let mut seen = vec![false; shape.table_len.len()];
        for _ in 0..5_000 {
            let id = shape.uniform_rule(&mut rng);
            assert!(id.index < shape.table_len[id.device.0 as usize]);
            seen[id.device.0 as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn read_mix_is_98_1_1_with_the_hot_share_on_the_hot_set() {
        let shape = shape();
        let hot = hot_set(1, &shape);
        assert_eq!(hot.len(), HOT_SET);
        let hot_targets: Vec<String> = hot.iter().map(|&id| covers_target(id)).collect();
        let batch = read_batch(1, &shape, &hot, 0, 10_000);
        let metrics = batch.iter().filter(|t| *t == "/metrics").count();
        let config = batch.iter().filter(|t| *t == "/config-coverage").count();
        assert_eq!((metrics, config), (100, 100));
        let to_hot = batch.iter().filter(|t| hot_targets.contains(t)).count();
        // Half of 9 800 by lot, plus the uniform picks that land on a hot
        // rule by chance (32 of this small network's 180 rules).
        assert!((4_700..6_100).contains(&to_hot), "{to_hot} to the hot set");
    }

    #[test]
    fn inserted_prefixes_are_fresh_in_every_round() {
        let shape = shape();
        let mut seen = std::collections::HashSet::new();
        for i in 0..20_000 {
            let r = round(0xC0FFEE, &shape, i);
            assert_eq!(r.addr >> 24, 11);
            assert!(seen.insert(r.addr), "round {i} reuses an address");
            assert!(shape.tors.iter().any(|(d, _)| *d == r.tor));
        }
    }
}
