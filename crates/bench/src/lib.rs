//! # bench — what the figures and the benchmark harnesses share
//!
//! The paper's Figures 6–9 are subcommands of the root CLI (`yardstick
//! fig N`), which reads its flags, builds its networks and writes its
//! CSVs under `target/figures/` through this crate. The binaries here
//! (`mutation_report`, `scenario_sweep`, `config_audit`, `netbdd_micro`,
//! `benchdiff`) write `BENCH_*.json` and judge it against the committed
//! baselines. Criterion micro-benchmarks for the packet-set operation
//! table (Figure 5) and the design-choice ablations live in `benches/`.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::{Duration, Instant};

use netmodel::{DeviceId, IfaceId, Network, Prefix};
use testsuite::NetworkInfo;
use topogen::{addressing, FatTree, Regional};

/// Ground-truth info for a generated regional network.
pub fn regional_info(r: &Regional) -> NetworkInfo {
    let p = &r.params;
    network_info(&r.net, &r.tors, &r.links, p.loopbacks, p.connected)
}

/// Ground-truth info for a generated fat-tree.
pub fn fattree_info(ft: &FatTree) -> NetworkInfo {
    let p = &ft.params;
    network_info(&ft.net, &ft.tors, &ft.links, p.loopbacks, p.connected)
}

/// The ToR subnets, plus every device's loopback and every link's /31
/// and /126 when the generator assigned them.
fn network_info(
    net: &Network,
    tors: &[(DeviceId, Prefix, IfaceId)],
    links: &[(IfaceId, IfaceId)],
    loopbacks: bool,
    connected: bool,
) -> NetworkInfo {
    let devices = (0..net.topology().device_count() as u32).filter(|_| loopbacks);
    let links = if connected { links } else { &[] };
    NetworkInfo {
        tor_subnets: tors.to_vec(),
        loopbacks: devices
            .map(|d| (DeviceId(d), addressing::loopback(d)))
            .collect(),
        links: (0..)
            .zip(links)
            .map(|(i, &(a, b))| (a, b, addressing::p2p_v4(i).0, addressing::p2p_v6(i).0))
            .collect(),
    }
}

/// Wall-clock one closure.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Where figure CSVs are written (`target/figures/`), created on demand.
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    std::fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Write a CSV next to the other figure outputs and echo the location.
pub fn write_csv(name: &str, contents: &str) {
    let path = figures_dir().join(name);
    std::fs::write(&path, contents).expect("write figure CSV");
    println!("  [csv] {}", path.display());
}

/// The operand of a `--max-k N`-style flag in `args`, parsed straight
/// into the type the caller uses (`u16` for a port, `u32` for a fat-tree
/// k, `Ipv4Addr` for an address), or `default` when it is absent. A flag
/// that is present with a missing, malformed or out-of-range operand is
/// an error naming the flag — never a silent fallback to the default,
/// and never a wrapping cast.
pub fn parse_flag<T>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    Ok(parse_opt_flag(args, name)?.unwrap_or(default))
}

/// [`parse_flag`] for a flag without a default: `None` when it is absent.
pub fn parse_opt_flag<T>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T: FromStr,
    T::Err: Display,
{
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let ty = std::any::type_name::<T>().rsplit("::").next().unwrap_or("");
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} expects a {ty} value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|e| format!("{name} expects a {ty} value, got {value:?} ({e})"))
}

/// Check that `args` is a run of `--flag value` pairs whose flags are
/// all among the space-separated `known`; the first that is not is an
/// error naming it.
pub fn check_flags(args: &[String], known: &str) -> Result<(), String> {
    for pair in args.chunks(2) {
        if !known.split(' ').any(|k| k == pair[0]) {
            return Err(format!("unknown option {}", pair[0]));
        }
    }
    Ok(())
}

/// Print a flag error and exit 2, the bins' bad-flag status.
pub fn flag_error(message: &str) -> ! {
    let bin = std::env::args().next().unwrap_or_default();
    let bin = bin.rsplit('/').next().unwrap_or("bench");
    eprintln!("{bin}: {message}");
    std::process::exit(2)
}

/// [`parse_flag`] over this process's argv; a bad value exits 2.
pub fn arg_flag<T>(name: &str, default: T) -> T
where
    T: FromStr,
    T::Err: Display,
{
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, name, default).unwrap_or_else(|e| flag_error(&e))
}

/// True when a bare flag like `--json` appears in argv.
pub fn arg_present(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The string operand of `--trace <path>`-style flags, if present.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Enable netobs when `--trace <path>` is on the command line. Returns
/// the path collection should be written to on exit (via
/// [`write_trace`]). Call before the workload runs.
pub fn trace_arg() -> Option<String> {
    let path = arg_value("--trace")?;
    netobs::enable();
    Some(path)
}

/// Gather the netobs report, write it to `path` (JSON: chrome-traceable
/// `traceEvents` plus the span trees and gauge/counter registry), and
/// echo a human-readable summary.
pub fn write_trace(path: &str) {
    let report = netobs::report();
    assert!(
        report.check_consistent(),
        "span tree is time-inconsistent:\n{}",
        report.render()
    );
    std::fs::write(path, report.to_json()).expect("write trace JSON");
    print!("{}", report.render());
    println!("  [trace] {path} (open in chrome://tracing or Perfetto)");
}

/// CPUs the host exposes — recorded in bench output so speedups can be
/// judged against the hardware they were measured on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Fat-tree sweep sizes up to `max_k` (even ks, growing stride like the
/// paper's 8..88 sweep).
pub fn sweep_ks(max_k: u64) -> Vec<u32> {
    [4u32, 8, 12, 16, 20, 24, 32, 40, 48, 64, 88]
        .into_iter()
        .filter(|&k| k as u64 <= max_k)
        .collect()
}

/// Pretty `Duration` as seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use topogen::{fattree, regional, FatTreeParams, RegionalParams};

    #[test]
    fn info_builders_cover_all_links_and_tors() {
        let r = regional(RegionalParams::default());
        let info = regional_info(&r);
        assert_eq!(info.tor_subnets.len(), r.tors.len());
        assert_eq!(info.links.len(), r.links.len());
        assert_eq!(info.loopbacks.len(), r.net.topology().device_count());

        let ft = fattree(FatTreeParams::paper(4));
        let fi = fattree_info(&ft);
        assert_eq!(fi.tor_subnets.len(), 8);
        assert!(fi.loopbacks.is_empty());
        assert!(fi.links.is_empty());
    }

    #[test]
    fn sweep_respects_the_cap() {
        assert_eq!(sweep_ks(16), vec![4, 8, 12, 16]);
        assert_eq!(sweep_ks(88).last(), Some(&88));
        assert!(sweep_ks(3).is_empty());
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn absent_flags_take_their_default() {
        assert_eq!(parse_flag(&argv(&["bin", "--json"]), "--k", 4u32), Ok(4));
        assert_eq!(parse_flag(&argv(&["bin"]), "--port", 7070u16), Ok(7070));
        assert_eq!(parse_flag(&argv(&["bin", "--k", "8"]), "--k", 4u32), Ok(8));
    }

    #[test]
    fn malformed_values_name_the_flag() {
        for args in [
            &["bin", "--k", "abc"][..],
            &["bin", "--k", "-1"],
            &["bin", "--k", "--json"],
            &["bin", "--k"],
        ] {
            let err = parse_flag(&argv(args), "--k", 4u32).unwrap_err();
            assert!(
                err.starts_with("--k expects a u32 value"),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        let err = parse_flag(
            &argv(&["bin", "--cap", "18446744073709551616"]),
            "--cap",
            12u64,
        );
        assert!(err.unwrap_err().starts_with("--cap expects a u64 value"));
        // The width of the caller's type is the bound: no wrapping cast.
        let err = parse_flag(&argv(&["bin", "--k", "4294967300"]), "--k", 4u32).unwrap_err();
        assert!(
            err.starts_with("--k expects a u32 value, got \"4294967300\""),
            "{err}"
        );
        let err = parse_flag(&argv(&["bin", "--port", "70000"]), "--port", 7070u16).unwrap_err();
        assert!(
            err.starts_with("--port expects a u16 value, got \"70000\""),
            "{err}"
        );
        assert_eq!(
            parse_flag(&argv(&["bin", "--port", "65535"]), "--port", 7070u16),
            Ok(65535)
        );
    }

    #[test]
    fn flags_without_a_default_are_none_when_absent() {
        assert_eq!(
            parse_opt_flag::<usize>(&argv(&["--k", "4"]), "--gc"),
            Ok(None)
        );
        assert_eq!(
            parse_opt_flag(&argv(&["--gc", "600"]), "--gc"),
            Ok(Some(600usize))
        );
        let err = parse_opt_flag::<String>(&argv(&["--trace"]), "--trace").unwrap_err();
        assert_eq!(err, "--trace expects a String value");
    }

    #[test]
    fn unknown_options_are_named() {
        let known = "--k --suite";
        assert_eq!(check_flags(&argv(&[]), known), Ok(()));
        assert_eq!(
            check_flags(&argv(&["--k", "4", "--suite", "s8"]), known),
            Ok(())
        );
        for (args, bad) in [
            (&["--threads", "2"][..], "--threads"),
            (&["--k", "4", "report"], "report"),
            (&["--k", "4", "--suite", "s8", "-v"], "-v"),
            (&["--k", "4", "--suite", "s8", ""], ""),
        ] {
            assert_eq!(
                check_flags(&argv(args), known),
                Err(format!("unknown option {bad}"))
            );
        }
    }

    #[test]
    fn timing_returns_value_and_duration() {
        let (v, d) = time_it(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
