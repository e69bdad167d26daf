//! End-to-end tests of the `yardstick` CLI binary: every subcommand runs
//! against a generated network and produces the advertised output.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use netobs::json::{self, Json};

/// Run the binary to completion: exit code, stdout, stderr.
fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_yardstick"))
        .args(args)
        .output()
        .expect("binary must run");
    (
        out.status.code().expect("exited, not killed"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn yardstick(args: &[&str]) -> (bool, String, String) {
    let (code, out, err) = run(args);
    (code == 0, out, err)
}

#[test]
fn help_prints_usage_and_succeeds() {
    let (ok, _, err) = yardstick(&["--help"]);
    assert!(ok);
    assert!(err.contains("USAGE"));
    assert!(err.contains("report"));
}

#[test]
fn unknown_command_fails_with_help() {
    let (ok, _, err) = yardstick(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
}

#[test]
fn report_on_fattree_prints_roles_and_classes() {
    let (ok, out, err) = yardstick(&[
        "report",
        "--topology",
        "fattree",
        "--k",
        "4",
        "--suite",
        "original",
    ]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("ToR Router"));
    assert!(out.contains("route class"));
    assert!(err.contains("[pass] DefaultRouteCheck"));
}

#[test]
fn gaps_lists_witness_packets() {
    let (ok, out, _) = yardstick(&[
        "gaps",
        "--topology",
        "fattree",
        "--k",
        "4",
        "--suite",
        "s8",
        "--limit",
        "2",
    ]);
    assert!(ok);
    // The §8 suite on a fat-tree leaves nothing... actually Pingmesh +
    // contract + reachability + default check cover everything at k=4,
    // so the report may be empty; the command must still succeed. Use a
    // weaker suite to guarantee gaps:
    let (ok2, out2, _) = yardstick(&[
        "gaps",
        "--topology",
        "fattree",
        "--k",
        "4",
        "--suite",
        "original",
        "--limit",
        "2",
    ]);
    assert!(ok2);
    assert!(out2.contains("untested:"), "gaps output: {out2}");
    assert!(out2.contains("try: packet"));
    let _ = out;
}

#[test]
fn paths_reports_universe_and_coverage() {
    let (ok, out, _) = yardstick(&[
        "paths",
        "--topology",
        "fattree",
        "--k",
        "4",
        "--suite",
        "s8",
        "--path-budget",
        "100000",
    ]);
    assert!(ok);
    assert!(out.contains("paths: "));
    assert!(out.contains("path coverage: fractional"));
}

/// A walk the budget stops says so, and its terminal classes still sum
/// to the count it prints.
#[test]
fn paths_flags_a_budget_cut() {
    let counts = |out: &str| -> Vec<u64> {
        let line = out.lines().find(|l| l.starts_with("paths: ")).unwrap();
        line.split(|c: char| !c.is_ascii_digit())
            .filter_map(|w| w.parse().ok())
            .collect()
    };
    let args = [
        "paths",
        "--topology",
        "fattree",
        "--k",
        "4",
        "--suite",
        "s8",
    ];
    let (ok, out, err) = yardstick(&[&args[..], &["--path-budget", "100"]].concat());
    assert!(ok, "stderr: {err}");
    let n = counts(&out);
    assert_eq!(n.len(), 6, "{out}");
    assert!(n[0] >= 100 && n[0] < 284, "{out}");
    assert_eq!(n[0], n[1..].iter().sum::<u64>(), "{out}");
    let notice = format!(
        "path budget 100 reached: the walk stopped early, so the universe has at least {} paths",
        n[0]
    );
    assert!(out.contains(&notice), "{out}");

    let (ok, out, _) = yardstick(&args);
    assert!(ok);
    assert_eq!(counts(&out)[0], 284, "{out}");
    assert!(!out.contains("path budget"), "{out}");
}

#[test]
fn trace_walks_to_the_destination() {
    let (ok, out, _) = yardstick(&[
        "trace",
        "--topology",
        "fattree",
        "--k",
        "4",
        "--dst",
        "10.0.3.7",
    ]);
    assert!(ok);
    assert!(out.contains("outcome: Delivered"));
    assert!(out.contains("HostSubnet"));
}

#[test]
fn trace_requires_dst() {
    let (ok, _, err) = yardstick(&["trace", "--topology", "fattree", "--k", "4"]);
    assert!(!ok);
    assert!(err.contains("requires --dst"));
}

#[test]
fn diff_shows_affected_regions() {
    let (ok, out, _) = yardstick(&["diff", "--topology", "fattree", "--k", "4"]);
    assert!(ok);
    assert!(out.contains("demo change: null-route"));
    assert!(out.contains("affected: v4 dst"));
}

#[test]
fn odd_or_zero_fat_tree_arity_is_a_flag_error() {
    for args in [
        &["report", "--topology", "fattree", "--k", "3"][..],
        &["report", "--topology", "fattree", "--k", "0"],
        &["serve", "--port", "0", "--k", "3"],
    ] {
        let (code, _, err) = run(args);
        assert_eq!(code, 2, "{args:?}: {err}");
        assert!(err.contains("--k must be an even"), "{args:?}: {err}");
    }
    for max_k in ["0", "3"] {
        let (code, out, err) = run(&["fig", "8", "--max-k", max_k]);
        assert_eq!(code, 2, "--max-k {max_k}: {err}");
        assert!(err.contains("--max-k must be >= 4"), "{err}");
        assert!(!out.contains("[csv]"), "no figure is drawn: {out}");
    }
}

#[test]
fn unknown_options_and_malformed_values_exit_2_on_every_subcommand() {
    for args in [
        &["report", "--threads", "2"][..],
        &["gaps", "--k", "4", "--verbose"],
        &["fig", "6", "--k", "4"],
        &["fig", "10"],
        &["serve", "--backend", "shared"],
        &["get", "127.0.0.1:7070"],
        &["post", "127.0.0.1:7070", "/delta", "{}", "extra"],
        &["paths", "--path-budget", "lots"],
        &["serve", "--port", "70000"],
        &["trace", "--dst", "10.0.3"],
    ] {
        let (code, _, err) = run(args);
        assert_eq!(code, 2, "{args:?}: {err}");
        assert!(err.starts_with("error: "), "{args:?}: {err}");
    }
}

/// Each figure at its smallest size: the title, its table, and the CSV.
#[test]
fn figures_draw_their_rows_and_write_their_csv() {
    for (args, title, row) in [
        (
            &["fig", "6"][..],
            "Figure 6: coverage per test suite",
            "ALL ",
        ),
        (
            &["fig", "7"],
            "Figure 7: coverage improvement",
            "headline: rule coverage",
        ),
        (
            &["fig", "8", "--max-k", "4"],
            "Figure 8: overhead",
            "ToRPingmesh",
        ),
        (
            &["fig", "9", "--max-k", "4"],
            "Figure 9: time to compute",
            "      284",
        ),
    ] {
        let (code, out, err) = run(args);
        assert_eq!(code, 0, "{args:?}: {err}");
        assert!(out.starts_with(&format!("== {title}")), "{args:?}: {out}");
        assert!(out.contains(row), "{args:?}: {out}");
        let n = args[1];
        assert!(
            out.contains(&format!("/fig{n}")) && out.contains(".csv"),
            "{out}"
        );
    }
}

/// The analysis views print exactly `tests/golden/<file>`: every
/// percentage, rule id, region and witness packet, byte for byte.
#[test]
fn report_and_gaps_stdout_match_their_golden_files() {
    for (args, file) in [
        (
            &["report", "--topology", "fattree", "--k", "8"][..],
            "report_fattree_k8.txt",
        ),
        (
            &[
                "gaps",
                "--topology",
                "regional",
                "--suite",
                "original",
                "--limit",
                "3",
            ],
            "gaps_regional_original.txt",
        ),
    ] {
        let (ok, out, err) = yardstick(args);
        assert!(ok, "{args:?}: {err}");
        let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(out, golden, "{args:?} against {path}");
    }
}

/// `yardstick serve` stopped (killed if still running) when dropped, so a
/// failed assertion cannot leak the process.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn body(json: &str) -> Json {
    json::parse(json.trim()).unwrap_or_else(|e| panic!("{e}: {json}"))
}

/// A `/covers` answer without its `version`, which every delta bumps.
fn without_version(covers: &str) -> Vec<(String, Json)> {
    body(covers)
        .entries()
        .filter(|(k, _)| *k != "version")
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// The daemon end to end over its own client: boot on a port the kernel
/// picks, churn rules past a low GC watermark, read back an untouched
/// rule's answer, refuse a malformed delta, and shut down on request.
#[test]
fn serve_collects_under_rule_churn_and_shuts_down_on_request() {
    let child = Command::new(env!("CARGO_BIN_EXE_yardstick"))
        .args(["serve", "--port", "0", "--k", "4", "--gc-watermark", "600"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve must start");
    let mut daemon = Daemon(child);
    let mut stdout = BufReader::new(daemon.0.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in {banner:?}"))
        .to_string();
    assert!(
        !addr.ends_with(":0"),
        "the bound port, not the requested one: {banner}"
    );
    let get = |target: &str| {
        let (ok, out, err) = yardstick(&["get", &addr, target]);
        assert!(ok, "GET {target}: {err}");
        out
    };
    let post = |target: &str, json: &str| {
        let (ok, out, err) = yardstick(&["post", &addr, target, json]);
        assert!(ok, "POST {target} {json}: {err}");
        body(&out)
    };

    let before = without_version(&get("/covers?rule=0.0"));
    // Each round inserts a /24 on device 1 and withdraws it again at the
    // index the insert reported: the arena churns past the watermark
    // while device 0 stays untouched.
    for i in 1..=12 {
        let insert =
            format!(r#"{{"kind":"rule-insert","device":1,"rule":{{"dst":"10.9.{i}.0/24"}}}}"#);
        let inserted = post("/delta", &insert);
        let detail = inserted.get("detail").and_then(Json::as_str).unwrap();
        let index = detail.strip_prefix("r1.").expect("a rule on device 1");
        post(
            "/delta",
            &format!(r#"{{"kind":"rule-withdraw","device":1,"index":{index}}}"#),
        );
    }
    let metrics = body(&get("/metrics"));
    let collections = metrics
        .get("gauges")
        .and_then(|g| g.get("bdd.gc.collections"))
        .and_then(Json::as_f64)
        .expect("/metrics has bdd.gc.collections");
    assert!(collections >= 1.0, "the collector never fired: {metrics:?}");
    assert_eq!(without_version(&get("/covers?rule=0.0")), before);

    // An ingress-scoped rule cannot join device 0's unscoped table.
    let mixed = r#"{"kind":"rule-insert","device":0,"rule":{"dst":"10.9.0.0/24","in_iface":0,"out_ifaces":[0]}}"#;
    let (code, out, err) = run(&["post", &addr, "/delta", mixed]);
    assert_eq!(code, 1, "{out}");
    assert!(err.contains("HTTP 400"), "{err}");

    post("/shutdown", "");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().unwrap() {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "serve still running 10 s after /shutdown"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "serve exited with {status}");
    let mut farewell = String::new();
    stdout.read_line(&mut farewell).unwrap();
    assert_eq!(farewell.trim(), "yardstick: shutdown after 24 deltas");
}
