//! `cellfi-bench`: the repository benchmark's command line.
//!
//! ```text
//! cellfi-bench run <workload> [--seed N] [--seconds S] [--trace [0|1]]
//! cellfi-bench run --workload <workload> ...      (same, named flag)
//! cellfi-bench all [--seed N] [--seconds S] [--trace [0|1]]
//! cellfi-bench compare <parent.jsonl> <change.jsonl>
//! cellfi-bench golden <workload> [--seed N]
//! ```
//!
//! `run` prints one JSON result line (`correct`, `attempted`, `failed`,
//! `metrics`) and exits non-zero when a check failed. `all` runs every
//! workload in its own child process and prints one result line per
//! workload, tagged with `workload` and `seed` — the input format of
//! `compare`. `golden` re-pins a workload's outputs for a seed.

use cellfi_benchmark::alloc::CountingAlloc;
use cellfi_benchmark::compare::compare_files;
use cellfi_benchmark::spec::Spec;
use cellfi_benchmark::{run, write_golden, RunOptions, Scale, Workload};
use serde_json::Value;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: cellfi-bench run <workload> [--seed N] [--seconds S] [--trace [0|1]]
       cellfi-bench all [--seed N] [--seconds S] [--trace [0|1]]
       cellfi-bench compare <parent.jsonl> <change.jsonl>
       cellfi-bench golden <workload> [--seed N]
workloads: paper_saturated, metro_2500, web_paired, fleet_chaos";

/// Parsed `run`/`all`/`golden` arguments.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: Spec::builtin().run_seconds,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                out.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload: {name}"))?);
            }
            "--seed" => {
                let s = value("--seed")?;
                out.seed = s.parse().map_err(|_| format!("bad --seed: {s}"))?;
            }
            "--seconds" => {
                let s = value("--seconds")?;
                out.seconds = s
                    .parse()
                    .ok()
                    .filter(|v: &f64| v.is_finite() && *v >= 0.0)
                    .ok_or(format!("bad --seconds: {s}"))?;
            }
            "--trace" => {
                let level = it.next_if(|s| *s == "0" || *s == "1");
                out.trace = level.is_none_or(|s| s == "1");
            }
            name if !name.starts_with('-') && out.workload.is_none() => {
                out.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload: {name}"))?);
            }
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    Ok(out)
}

fn options(args: &Args) -> RunOptions {
    RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Full,
    }
}

fn cmd_run(args: Args) -> ExitCode {
    let Some(workload) = args.workload else {
        eprintln!("run: name a workload\n{USAGE}");
        return ExitCode::from(2);
    };
    let result = run(workload, &options(&args));
    for failure in &result.failures {
        eprintln!("{}: check failed: {failure}", workload.name());
    }
    println!(
        "{}",
        serde_json::to_string(&result.to_json()).expect("a result serializes")
    );
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child process per workload, so each has its own peak RSS and
/// allocator count.
fn cmd_all(args: Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("all: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let child = Command::new(&exe)
            .args(["run", workload.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let line = match &child {
            Ok(out) => String::from_utf8_lossy(&out.stdout)
                .lines()
                .last()
                .unwrap_or_default()
                .to_owned(),
            Err(e) => {
                eprintln!("all: {}: {e}", workload.name());
                ok = false;
                continue;
            }
        };
        ok &= child.is_ok_and(|out| out.status.success());
        match serde_json::from_str::<Value>(&line) {
            Ok(Value::Object(mut obj)) => {
                obj.insert(
                    "workload".to_owned(),
                    Value::String(workload.name().to_owned()),
                );
                obj.insert("seed".to_owned(), Value::Number(args.seed as f64));
                println!(
                    "{}",
                    serde_json::to_string(&Value::Object(obj)).expect("a result serializes")
                );
            }
            _ => {
                eprintln!("all: {}: no result line", workload.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let [base, cand] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let result =
        read(base).and_then(|b| read(cand).and_then(|c| compare_files(&b, &c, &Spec::builtin())));
    match result {
        Ok((table, regressed)) => {
            print!("{table}");
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_golden(args: Args) -> ExitCode {
    let Some(workload) = args.workload else {
        eprintln!("golden: name a workload\n{USAGE}");
        return ExitCode::from(2);
    };
    match write_golden(workload, args.seed) {
        Ok(path) => {
            eprintln!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("golden: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if command == "compare" {
        return cmd_compare(rest);
    }
    let parsed = match parse(rest) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command.as_str() {
        "run" => cmd_run(parsed),
        "all" => cmd_all(parsed),
        "golden" => cmd_golden(parsed),
        _ => {
            eprintln!("unknown command: {command}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
