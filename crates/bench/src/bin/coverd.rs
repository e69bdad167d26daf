//! `coverd` — the long-lived coverage daemon, plus its built-in client.
//!
//! Serve mode builds a fat-tree network, wraps it in a
//! [`yardstick::CoverageEngine`], and answers coverage queries over the
//! synchronous HTTP/JSON endpoint in `yardstick::daemon` until a
//! `POST /shutdown` arrives:
//!
//! ```text
//! cargo run -p bench --bin coverd --release -- serve --port 7070 \
//!     [--k 4] [--gc-watermark N]
//! ```
//!
//! `--gc-watermark N` arms the copying collector so any delta that
//! leaves the arena above `N` live nodes triggers a compaction (watch
//! `bdd.gc.*` under `/metrics`).
//!
//! Client mode wraps the daemon's own HTTP client so scripts and CI
//! never need `curl`:
//!
//! ```text
//! coverd get  127.0.0.1:7070 '/covers?rule=0.0'
//! coverd get  127.0.0.1:7070 /metrics
//! coverd post 127.0.0.1:7070 /delta '{"kind":"rule-insert","device":0,"rule":{"dst":"10.0.0.9/32"}}'
//! coverd post 127.0.0.1:7070 /delta '{"kind":"link-down","a":0,"b":2}'
//! coverd post 127.0.0.1:7070 /autogen '{"budget":64}'
//! coverd post 127.0.0.1:7070 /shutdown
//! ```
//!
//! The client prints the response body to stdout and exits 0 for a 2xx
//! status, 1 otherwise — so shell scripts can branch on delivery.

use std::net::TcpListener;
use std::process::ExitCode;

use bench::{arg_flag, arg_value, flag_error};
use topogen::{fattree_with_engine, FatTreeParams};
use yardstick::daemon::{http_get, http_post, serve};
use yardstick::CoverageEngine;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  coverd serve --port P [--k K] [--gc-watermark N]\n  coverd get ADDR TARGET\n  coverd post ADDR TARGET [JSON_BODY]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("serve") => {
            netobs::enable();
            let port: u16 = arg_flag("--port", 7070);
            let k: u32 = arg_flag("--k", 4);
            let gc_watermark = arg_value("--gc-watermark").map(|s| {
                s.parse::<usize>().unwrap_or_else(|_| {
                    flag_error(&format!("--gc-watermark expects a node count, got {s:?}"))
                })
            });
            let (ft, routing) = fattree_with_engine(FatTreeParams::paper(k));
            let devices = ft.net.topology().device_count();
            let rules = ft.net.rule_count();
            let mut engine = CoverageEngine::new(ft.net, 1);
            engine.attach_routing(routing);
            engine.set_gc_watermark(gc_watermark);
            let listener = match TcpListener::bind(("127.0.0.1", port)) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("coverd: cannot bind 127.0.0.1:{port}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "coverd: serving fat-tree k={k} ({devices} devices, {rules} rules) on 127.0.0.1:{port} [gc-watermark={}]",
                gc_watermark.map_or("off".to_string(), |n| n.to_string()),
            );
            match serve(&mut engine, listener) {
                Ok(()) => {
                    println!("coverd: shutdown after {} deltas", engine.version());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("coverd: serve loop failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(method @ ("get" | "post")) => {
            let (Some(addr), Some(target)) = (args.get(2), args.get(3)) else {
                return usage();
            };
            let empty = String::new();
            let body = args.get(4).unwrap_or(&empty);
            let result = if method == "get" {
                http_get(addr, target)
            } else {
                http_post(addr, target, body)
            };
            match result {
                Ok((status, body)) => {
                    println!("{body}");
                    if (200..300).contains(&status) {
                        ExitCode::SUCCESS
                    } else {
                        eprintln!("coverd: HTTP {status}");
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("coverd: request failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
