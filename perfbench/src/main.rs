//! Command-line entry point:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mem-policies|compute-policies|replay-store> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use gpgpu_workloads::Scale;
use perfbench::{plan::Workload, run, Options, Report};
use std::process::ExitCode;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

fn parse(args: &[String]) -> Result<Options, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let scratch = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .to_path_buf();
    let mut opts = Options {
        workload: Workload::MemPolicies,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        scale: Scale::Small,
        scratch,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: invalid {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("duration"))?;
                if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                    return Err(bad("duration"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn to_json(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        metrics.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|opts| run(&opts)).and_then(|r| {
        for e in &r.errors {
            eprintln!("perfbench: FAILED {e}");
        }
        to_json(&r)
    });
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
