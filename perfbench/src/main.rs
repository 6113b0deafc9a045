//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report and, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Stores and trace
//! files go under `.perfbench_work/` in the current directory.

use perfbench::{print_outcome, run, Config, Sizes, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        work_dir: PathBuf::from(".perfbench_work"),
        sizes: Sizes::full(),
        corrupt_expected: false,
    })
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(outcome) => {
            if cfg.trace {
                let path =
                    cfg.work_dir.join(format!("trace-{}-seed{}.jsonl", cfg.workload, cfg.seed));
                match perfbench::trace::write_jsonl(&path, &outcome.spans) {
                    Ok(()) => {
                        println!("  spans: {} written to {}", outcome.spans.len(), path.display())
                    }
                    Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
                }
            }
            print_outcome(&outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", cfg.workload);
            ExitCode::FAILURE
        }
    }
}
