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
    for flag in ["--bench", "--quik"] {
        let out = exp(&["table1", flag]);
        assert!(!out.status.success(), "exp table1 {flag} must fail");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.contains("=== table1 ==="),
            "exp table1 {flag} ran the experiment:\n{stdout}"
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
