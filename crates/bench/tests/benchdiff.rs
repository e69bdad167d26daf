//! `benchdiff` across host shapes: when the two files record different
//! `host_cpus`, the `_secs` timings go ungated but exact counts and
//! structural mismatches still fail the comparison.

use std::process::Command;

/// Run benchdiff on a baseline recorded on 1 CPU and a candidate on 2;
/// return its exit code.
fn across_shapes(old_metrics: &str, new_metrics: &str) -> i32 {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let write = |name: &str, cpus: u32, metrics: &str| {
        let path = format!("{dir}/benchdiff_{name}.json");
        let text = format!("{{\"host_cpus\": {cpus}, \"metrics\": {{{metrics}}}}}");
        std::fs::write(&path, text).expect("write temp JSON");
        path
    };
    let (old, new) = (write("old", 1, old_metrics), write("new", 2, new_metrics));
    let out = Command::new(env!("CARGO_BIN_EXE_benchdiff"))
        .args([&old, &new])
        .output()
        .expect("benchdiff runs");
    out.status.code().expect("exited, not killed")
}

#[test]
fn counts_gate_and_timings_do_not_when_host_shapes_differ() {
    let base = "\"evaluate_secs\": 1.0, \"surviving_mutants\": 0";
    assert_eq!(
        across_shapes(base, "\"evaluate_secs\": 1.0, \"surviving_mutants\": 3"),
        1,
        "a count that no core count moves still gates"
    );
    assert_eq!(
        across_shapes(base, "\"evaluate_secs\": 3.0, \"surviving_mutants\": 0"),
        0,
        "a timing leg measured on another shape is not gated"
    );
    assert_eq!(
        across_shapes(base, "\"evaluate_secs\": 1.0"),
        2,
        "a dropped metric is a structural mismatch on any shape"
    );
}
