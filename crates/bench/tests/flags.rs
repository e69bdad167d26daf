//! Every bench binary refuses a bad command line with exit 2 before it
//! builds anything: a misspelt option, and an odd fat-tree `--k` where the
//! binary takes one. Nothing reaches stdout, where each run's first line
//! would be its header.

use std::process::Command;

fn refused(bin: &str, args: &[&str], message: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {err}");
    assert!(err.contains(message), "{bin} {args:?}: {err}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} ran");
}

#[test]
fn misspelt_options_exit_2() {
    for (bin, args, bad) in [
        (
            env!("CARGO_BIN_EXE_mutation_report"),
            &["--acl-test"][..],
            "--acl-test",
        ),
        (
            env!("CARGO_BIN_EXE_config_audit"),
            &["--autogne"],
            "--autogne",
        ),
        (
            env!("CARGO_BIN_EXE_scenario_sweep"),
            &["--k", "4", "--jsn"],
            "--jsn",
        ),
        (
            env!("CARGO_BIN_EXE_netbdd_micro"),
            &["--device", "4"],
            "--device",
        ),
        (
            env!("CARGO_BIN_EXE_benchdiff"),
            &["old.json", "new.json", "--tolerence", "1"],
            "--tolerence",
        ),
    ] {
        refused(bin, args, &format!("unknown option {bad}"));
    }
}

#[test]
fn odd_fat_tree_arity_exits_2() {
    for bin in [
        env!("CARGO_BIN_EXE_mutation_report"),
        env!("CARGO_BIN_EXE_config_audit"),
        env!("CARGO_BIN_EXE_scenario_sweep"),
    ] {
        for k in ["0", "5"] {
            refused(bin, &["--k", k], "--k must be an even fat-tree arity");
        }
    }
}
