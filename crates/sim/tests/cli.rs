//! Argument handling of the `exp` binary.

use std::process::{Command, Output};

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("exp binary runs")
}

#[test]
fn unknown_options_fail_before_any_experiment_runs() {
    // A known option with a bad value fails the same way: a sample that
    // keeps no stratum (or more strata than exist) is rejected.
    for args in [
        &["--bench"][..],
        &["--quik"],
        &["--sample", "0/8"],
        &["--sample", "9/8"],
    ] {
        let flag = args[0];
        let out = exp(&[&["table1"][..], args].concat());
        assert!(!out.status.success(), "exp table1 {args:?} must fail");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.contains("=== table1 ==="),
            "exp table1 {args:?} ran the experiment:\n{stdout}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "error names the option:\n{stderr}");
    }
}

#[test]
fn known_options_still_run() {
    let out = exp(&["table1", "--quick"]);
    assert!(out.status.success(), "exp table1 --quick must succeed");
    assert!(String::from_utf8_lossy(&out.stdout).contains("=== table1 ==="));
}
