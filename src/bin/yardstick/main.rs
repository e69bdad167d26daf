//! `yardstick` — command-line front end for the coverage framework: the
//! analysis views, the paper's Figures 6–9 ([`fig`]), and the resident
//! coverage daemon with its client. Everything is generated and analysed
//! in-process. Every flag goes through `bench::parse_flag` (no CLI
//! dependency): a malformed value or an unknown option exits 2, a failed
//! run exits 1 — see `--help`.

mod fig;

use std::net::{Ipv4Addr, TcpListener};
use std::process::ExitCode;

use bench::{check_flags, parse_flag, parse_opt_flag};
use netbdd::Bdd;
use netmodel::header::Packet;
use netmodel::{DeviceId, IfaceId, Location, MatchSets, Network, Prefix, Role};
use topogen::{fattree, fattree_with_engine, regional, FatTreeParams, RegionalParams};
use yardstick::daemon::{http_request, serve};
use yardstick::{Analyzer, CoverageEngine, CoverageReport, CoverageTrace};

use dataplane::paths::{edge_starts, ExploreOpts};
use dataplane::{semantic_diff, traceroute, Forwarder};
use testsuite::{
    agg_can_reach_tor_loopback, connected_route_check, default_route_check, host_port_check,
    internal_route_check, tor_contract, tor_pingmesh, tor_reachability, wan_route_check,
    NetworkInfo, TestContext, TestReport, WanSpec,
};

const HELP: &str = "\
yardstick — network test coverage metrics (SIGCOMM 2021 reproduction)

USAGE:
    yardstick report|gaps|paths|trace|diff [--topology T] [--k N] [--suite S]
              [--limit N] [--path-budget N] [--dst A.B.C.D]
    yardstick fig 6|7|8|9 [--scale N] [--max-k N] [--path-budget N] [--trace PATH]
    yardstick serve [--port P] [--k N] [--gc-watermark N]
    yardstick get|post ADDR TARGET [BODY]

COMMANDS:
    report     run a test suite and print the per-role coverage report
    gaps       run a test suite and print the ranked gap report
    paths      compute path coverage over the path universe
    trace      traceroute one destination address from the first ToR
    diff       apply a demo change and print the semantic state diff
    fig        draw one of the paper's Figures 6-9; CSVs go to target/figures/
    serve      answer coverage queries over HTTP on 127.0.0.1 until POST /shutdown
    get|post   send `serve` one request, print the body; exit 1 unless 2xx

OPTIONS:
    --topology <fattree|regional>   network to generate [default: regional]
    --k <N>                         fat-tree arity, even and >= 2 [default: 8, serve: 4]
    --suite <original|final|beyond|s8>
                                    which tests to run [default: final]
    --limit <N>                     gap-report length [default: 10]
    --path-budget <N>               max paths to enumerate [default: 2000000]
    --dst <A.B.C.D>                 destination for `trace`
    --scale <N>                     regional pod multiplier, figs 6-7 [default: 1]
    --max-k <N>                     largest fat-tree, figs 8-9, >= 4 [default: 16, fig 9: 12]
    --trace <PATH>                  write the figure's netobs spans and gauges as JSON
    --port <P>                      port to serve on, 0 picks a free one [default: 7070]
    --gc-watermark <N>              collect when a delta leaves more live BDD nodes
    -h, --help                      print this help
";

/// A test the suites, figure panels and iterations name. `None` when the
/// network lacks what the test checks (no WAN routers, no host ports).
type Test = (&'static str, TestFn);
type TestFn = fn(&mut Bdd, &mut TestContext<'_>, &World) -> Option<TestReport>;

/// Every named test. The case study's six come first, in the order its
/// suite grew (§7.3), so its suites and Figure 7's iterations are
/// prefixes; the §8 benchmark's three follow.
static TESTS: [Test; 9] = [
    ("DefaultRouteCheck", |b, c, _| {
        Some(default_route_check(b, c, |_| true))
    }),
    ("AggCanReachTorLoopback", |b, c, _| {
        Some(agg_can_reach_tor_loopback(b, c))
    }),
    ("InternalRouteCheck", |b, c, _| {
        Some(internal_route_check(b, c))
    }),
    ("ConnectedRouteCheck", |b, c, _| {
        Some(connected_route_check(b, c))
    }),
    ("WanRouteCheck", |b, c, w| {
        let roles = |r| matches!(r, Role::Spine | Role::RegionalHub | Role::Wan);
        Some(wan_route_check(b, c, w.wan.as_ref()?, roles))
    }),
    ("HostPortCheck", |b, c, w| {
        (!w.host_slices.is_empty()).then(|| host_port_check(b, c, &w.host_slices))
    }),
    ("ToRContract", |b, c, _| Some(tor_contract(b, c))),
    ("ToRReachability", |b, c, _| Some(tor_reachability(b, c))),
    ("ToRPingmesh", |b, c, _| Some(tor_pingmesh(b, c, 0xC0FFEE))),
];

/// The §8 suite (Figures 8–9): one test of each taxonomy type.
static S8: [Test; 4] = [TESTS[0], TESTS[6], TESTS[7], TESTS[8]];

/// The tests a `--suite` name runs.
fn suite(name: &str) -> Result<&'static [Test], String> {
    match name {
        "original" => Ok(&TESTS[..2]),
        "final" => Ok(&TESTS[..4]),
        "beyond" => Ok(&TESTS[..6]),
        "s8" => Ok(&S8),
        other => Err(format!("unknown suite {other}")),
    }
}

/// What a `--topology` name builds, given the fat-tree arity `--k`.
fn world(topology: &str) -> Result<fn(u32) -> World, String> {
    match topology {
        "fattree" => Ok(World::fattree),
        "regional" => Ok(|_| World::regional(RegionalParams::default())),
        other => Err(format!(
            "unknown topology {other} (try fattree or regional)"
        )),
    }
}

/// A generated network plus everything the named tests need.
struct World {
    net: Network,
    info: NetworkInfo,
    wan: Option<WanSpec>,
    host_slices: Vec<(DeviceId, IfaceId, Prefix)>,
}

impl World {
    fn fattree(k: u32) -> World {
        let ft = fattree(FatTreeParams::paper(k));
        World {
            info: bench::fattree_info(&ft),
            net: ft.net,
            wan: None,
            host_slices: Vec::new(),
        }
    }

    fn regional(params: RegionalParams) -> World {
        let r = regional(params);
        World {
            info: bench::regional_info(&r),
            net: r.net,
            wan: Some(WanSpec {
                prefixes: r.wan_prefixes,
                wan_routers: r.wans,
            }),
            host_slices: r.host_port_slices,
        }
    }
}

/// Run `tests` on one tracker, logging each verdict to stderr; the trace
/// they left, and whether every test that ran passed.
fn run_suite(bdd: &mut Bdd, w: &World, ms: &MatchSets, tests: &[Test]) -> (CoverageTrace, bool) {
    let mut ctx = TestContext::new(&w.net, ms, &w.info);
    let mut passed = true;
    for (name, test) in tests {
        if let Some(rep) = test(bdd, &mut ctx, w) {
            let status = if rep.passed() { "pass" } else { "FAIL" };
            eprintln!("  [{status}] {name} ({} checks)", rep.checks);
            passed &= rep.passed();
        }
    }
    (std::mem::take(&mut ctx.tracker).into_trace(), passed)
}

/// `--k`: a fat-tree arity, which is even and at least 2.
fn arity(args: &[String], default: u32) -> Result<u32, String> {
    match parse_flag(args, "--k", default)? {
        k if k >= 2 && k % 2 == 0 => Ok(k),
        k => Err(format!("--k must be an even fat-tree arity >= 2, got {k}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let run = match argv.split_first() {
        Some((command, args)) if !matches!(command.as_str(), "-h" | "--help") => {
            parse(command, args)
        }
        _ => {
            eprint!("{HELP}");
            return ExitCode::SUCCESS;
        }
    };
    match run.map(|run| run()) {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
        Err(msg) => {
            eprint!("error: {msg}\n\n{HELP}");
            ExitCode::from(2)
        }
    }
}

/// What a checked command line runs.
type Run<'a> = Box<dyn FnOnce() -> Result<(), String> + 'a>;

/// Check `command`'s flags and bind them. Everything a command line can
/// get wrong is found here, before any network is built.
fn parse<'a>(command: &'a str, args: &'a [String]) -> Result<Run<'a>, String> {
    match command {
        "report" | "gaps" | "paths" | "trace" | "diff" => {
            check_flags(args, "--topology --k --suite --limit --path-budget --dst")?;
            let topology: String = parse_flag(args, "--topology", "regional".into())?;
            let view = View {
                world: world(&topology)?,
                topology,
                k: arity(args, 8)?,
                suite: suite(&parse_flag(args, "--suite", "final".to_string())?)?,
                limit: parse_flag(args, "--limit", 10)?,
                path_budget: parse_flag(args, "--path-budget", 2_000_000)?,
                dst: parse_opt_flag(args, "--dst")?,
            };
            if command == "trace" && view.dst.is_none() {
                return Err("trace requires --dst A.B.C.D".into());
            }
            Ok(Box::new(move || analyse(command, &view)))
        }
        "fig" => {
            let n: u8 = match args.first().map(|n| n.parse()) {
                Some(Ok(n @ 6..=9)) => n,
                _ => return Err("fig expects a figure number: 6, 7, 8 or 9".into()),
            };
            let args = &args[1..];
            check_flags(args, "--scale --max-k --path-budget --trace")?;
            let opts = fig::FigOpts {
                scale: parse_flag(args, "--scale", 1)?,
                max_k: parse_opt_flag(args, "--max-k")?,
                path_budget: parse_flag(args, "--path-budget", 2_000_000)?,
                trace: parse_opt_flag(args, "--trace")?,
            };
            if let Some(k) = opts.max_k.filter(|&k| k < 4) {
                return Err(format!(
                    "--max-k must be >= 4, the smallest fat-tree swept, got {k}"
                ));
            }
            Ok(Box::new(move || fig::draw(n, &opts)))
        }
        "serve" => {
            check_flags(args, "--port --k --gc-watermark")?;
            let port = parse_flag(args, "--port", 7070)?;
            let k = arity(args, 4)?;
            let gc_watermark = parse_opt_flag(args, "--gc-watermark")?;
            Ok(Box::new(move || daemon(port, k, gc_watermark)))
        }
        "get" | "post" => match args {
            [addr, target] => Ok(Box::new(move || request(command, addr, target, ""))),
            [addr, target, body] if command == "post" => {
                Ok(Box::new(move || request(command, addr, target, body)))
            }
            _ => Err("usage: yardstick get ADDR TARGET | post ADDR TARGET [BODY]".into()),
        },
        other => Err(format!("unknown command {other}")),
    }
}

/// The flags the analysis views share.
struct View {
    topology: String,
    world: fn(u32) -> World,
    k: u32,
    suite: &'static [Test],
    limit: usize,
    path_budget: u64,
    dst: Option<Ipv4Addr>,
}

fn analyse(command: &str, view: &View) -> Result<(), String> {
    let w = (view.world)(view.k);
    eprintln!(
        "network: {} ({} devices, {} rules)",
        view.topology,
        w.net.topology().device_count(),
        w.net.rule_count()
    );
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&w.net, &mut bdd);

    match command {
        "report" | "gaps" | "paths" => {
            let (trace, _) = run_suite(&mut bdd, &w, &ms, view.suite);
            let analyzer = Analyzer::new(&w.net, &ms, &trace, &mut bdd);
            if command == "report" {
                println!("{}", CoverageReport::by_role(&mut bdd, &analyzer));
                println!("{}", yardstick::ClassReport::by_class(&mut bdd, &analyzer));
            } else if command == "gaps" {
                print!(
                    "{}",
                    analyzer.gap_report(&mut bdd, view.limit, 3, |_, _| true)
                );
            } else {
                let fwd = Forwarder::new(&w.net, &ms);
                let starts = edge_starts(&mut bdd, &fwd);
                let opts = ExploreOpts {
                    max_paths: view.path_budget,
                    ..ExploreOpts::default()
                };
                let pc = yardstick::pathcov::path_coverage(&mut bdd, &analyzer, &starts, &opts);
                println!(
                    "paths: {} ({} delivered, {} exited, {} dropped)",
                    pc.total_paths, pc.stats.delivered, pc.stats.exited, pc.stats.dropped
                );
                println!(
                    "path coverage: fractional {:.1}%  mean {:.3}  weighted {:.3}",
                    pc.fractional() * 100.0,
                    pc.mean,
                    pc.weighted
                );
            }
        }
        "trace" => {
            let pkt = Packet::v4_to(u32::from(view.dst.expect("checked by parse")));
            let start = Location::device(w.info.tor_subnets[0].0);
            let res = traceroute(&mut bdd, &w.net, &ms, start, pkt, 64);
            for (i, hop) in res.hops.iter().enumerate() {
                println!(
                    "{:>3}  {}  rule {:?} ({:?})",
                    i + 1,
                    w.net.topology().device(hop.location.device).name,
                    hop.rule,
                    w.net.rule(hop.rule).class
                );
            }
            println!("outcome: {:?}", res.outcome);
        }
        _ => {
            // Demo change: null-route the first ToR's prefix at the last
            // non-ToR device that carries it.
            let (tor, prefix, _) = w.info.tor_subnets.first().ok_or("no ToRs")?;
            let victim_dev = w
                .net
                .rules()
                .filter(|(id, r)| r.matches.dst == Some(*prefix) && id.device != *tor)
                .map(|(id, _)| id.device)
                .last()
                .ok_or("prefix not propagated")?;
            let mut changed = w.net.clone();
            topogen::faults::null_route(&mut changed, victim_dev, *prefix);
            let new_ms = MatchSets::compute(&changed, &mut bdd);
            println!(
                "demo change: null-route {} on {}",
                prefix,
                w.net.topology().device(victim_dev).name
            );
            for d in &semantic_diff(&mut bdd, &w.net, &ms, &changed, &new_ms) {
                let (regions, complete) = netmodel::describe_set(&bdd, d.changed, 5);
                println!("{}:", w.net.topology().device(d.device).name);
                for r in regions {
                    println!("  affected: {r}");
                }
                if !complete {
                    println!("  …");
                }
            }
        }
    }
    Ok(())
}

/// `serve`: a fat-tree wrapped in a [`CoverageEngine`], answering the
/// HTTP/JSON endpoint in `yardstick::daemon` until `POST /shutdown`.
/// `--gc-watermark N` arms the collector for any delta that leaves more
/// than `N` live nodes (watch `bdd.gc.*` under `/metrics`).
fn daemon(port: u16, k: u32, gc_watermark: Option<usize>) -> Result<(), String> {
    netobs::enable();
    let (ft, routing) = fattree_with_engine(FatTreeParams::paper(k));
    let (devices, rules) = (ft.net.topology().device_count(), ft.net.rule_count());
    let mut engine = CoverageEngine::new(ft.net, 1);
    engine.attach_routing(routing);
    engine.set_gc_watermark(gc_watermark);
    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    println!(
        "yardstick: serving fat-tree k={k} ({devices} devices, {rules} rules) on {addr} [gc-watermark={}]",
        gc_watermark.map_or("off".to_string(), |n| n.to_string()),
    );
    serve(&mut engine, listener).map_err(|e| format!("serve loop failed: {e}"))?;
    println!("yardstick: shutdown after {} deltas", engine.version());
    Ok(())
}

/// `get` / `post`: one request to a running `serve`, so scripts never
/// need `curl`. The body goes to stdout; a non-2xx status is a failure.
fn request(method: &str, addr: &str, target: &str, body: &str) -> Result<(), String> {
    let (status, body) = http_request(addr, &method.to_uppercase(), target, body)
        .map_err(|e| format!("request failed: {e}"))?;
    println!("{body}");
    if (200..300).contains(&status) {
        Ok(())
    } else {
        Err(format!("HTTP {status}"))
    }
}
