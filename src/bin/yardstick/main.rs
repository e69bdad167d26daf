//! `yardstick` — command-line front end for the coverage framework: the
//! analysis views, the paper's Figures 6–9 ([`fig`]), and the resident
//! coverage daemon with its client. Everything is generated and analysed
//! in-process. Every flag goes through `bench::parse_flag` (no CLI
//! dependency): a malformed value or an unknown option exits 2, a failed
//! run exits 1 — see `--help`.

mod fig;

use std::net::{Ipv4Addr, TcpListener};
use std::process::ExitCode;

use bench::{arity, check_flags, parse_flag, parse_opt_flag};
use netbdd::Bdd;
use netmodel::header::Packet;
use netmodel::{Location, MatchSets, Network};
use topogen::{fattree, fattree_with_engine, regional, FatTreeParams, RegionalParams};
use yardstick::daemon::{http_request, serve};
use yardstick::{Analyzer, CoverageEngine, CoverageReport, CoverageTrace, Tracker};

use dataplane::paths::{edge_starts, ExploreOpts};
use dataplane::{semantic_diff, traceroute, Forwarder};
use testsuite::{NamedTest, NetworkInfo};

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

/// The suite seed ToRPingmesh derives its per-pair samples from.
const SEED: u64 = 0xC0FFEE;

/// The tests a `--suite` name runs (see `testsuite::suite`).
fn suite(name: &str) -> Result<&'static [NamedTest], String> {
    testsuite::suite(name).ok_or_else(|| format!("unknown suite {name}"))
}

/// What a `--topology` name builds, given the fat-tree arity `--k`.
fn world(topology: &str) -> Result<fn(u32) -> World, String> {
    match topology {
        "fattree" => Ok(fattree_world),
        "regional" => Ok(|_| regional_world(RegionalParams::default())),
        other => Err(format!(
            "unknown topology {other} (try fattree or regional)"
        )),
    }
}

/// A generated network and its ground truth.
type World = (Network, NetworkInfo);

fn fattree_world(k: u32) -> World {
    let ft = fattree(FatTreeParams::paper(k));
    let info = bench::fattree_info(&ft);
    (ft.net, info)
}

fn regional_world(params: RegionalParams) -> World {
    let r = regional(params);
    let info = bench::regional_info(&r);
    (r.net, info)
}

/// Run `tests` on one tracker, logging each verdict to stderr; the trace
/// they left, and whether every test that ran passed. A test that does
/// not apply to the network is skipped silently.
fn run_suite(
    bdd: &mut Bdd,
    (net, info): (&Network, &NetworkInfo),
    ms: &MatchSets,
    tests: &[NamedTest],
) -> (CoverageTrace, bool) {
    let mut tracker = Tracker::new();
    let mut passed = true;
    for test in tests {
        if let Some(rep) = test.run(bdd, net, ms, info, &mut tracker, SEED) {
            let status = if rep.passed() { "pass" } else { "FAIL" };
            eprintln!("  [{status}] {} ({} checks)", test.name, rep.checks);
            passed &= rep.passed();
        }
    }
    (tracker.into_trace(), passed)
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
            check_flags(
                args,
                "--topology --k --suite --limit --path-budget --dst",
                [],
            )?;
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
            check_flags(args, "--scale --max-k --path-budget --trace", [])?;
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
            check_flags(args, "--port --k --gc-watermark", [])?;
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
    suite: &'static [NamedTest],
    limit: usize,
    path_budget: u64,
    dst: Option<Ipv4Addr>,
}

fn analyse(command: &str, view: &View) -> Result<(), String> {
    let (net, info) = &(view.world)(view.k);
    eprintln!(
        "network: {} ({} devices, {} rules)",
        view.topology,
        net.topology().device_count(),
        net.rule_count()
    );
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(net, &mut bdd);

    match command {
        "report" | "gaps" | "paths" => {
            let (trace, _) = run_suite(&mut bdd, (net, info), &ms, view.suite);
            let analyzer = Analyzer::new(net, &ms, &trace, &mut bdd);
            if command == "report" {
                println!("{}", CoverageReport::by_role(&mut bdd, &analyzer));
                println!("{}", yardstick::ClassReport::by_class(&mut bdd, &analyzer));
            } else if command == "gaps" {
                print!(
                    "{}",
                    analyzer.gap_report(&mut bdd, view.limit, 3, |_, _| true)
                );
            } else {
                let fwd = Forwarder::new(net, &ms);
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
            let start = Location::device(info.tor_subnets[0].0);
            let res = traceroute(&mut bdd, net, &ms, start, pkt, 64);
            for (i, hop) in res.hops.iter().enumerate() {
                println!(
                    "{:>3}  {}  rule {:?} ({:?})",
                    i + 1,
                    net.topology().device(hop.location.device).name,
                    hop.rule,
                    net.rule(hop.rule).class
                );
            }
            println!("outcome: {:?}", res.outcome);
        }
        _ => {
            // Demo change: null-route the first ToR's prefix at the last
            // non-ToR device that carries it.
            let (tor, prefix, _) = info.tor_subnets.first().ok_or("no ToRs")?;
            let victim_dev = net
                .rules()
                .filter(|(id, r)| r.matches.dst == Some(*prefix) && id.device != *tor)
                .map(|(id, _)| id.device)
                .last()
                .ok_or("prefix not propagated")?;
            let mut changed = net.clone();
            topogen::faults::null_route(&mut changed, victim_dev, *prefix);
            let new_ms = MatchSets::compute(&changed, &mut bdd);
            println!(
                "demo change: null-route {} on {}",
                prefix,
                net.topology().device(victim_dev).name
            );
            for d in &semantic_diff(&mut bdd, net, &ms, &changed, &new_ms) {
                let (regions, complete) = netmodel::describe_set(&bdd, d.changed, 5);
                println!("{}:", net.topology().device(d.device).name);
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
