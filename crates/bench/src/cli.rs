//! Typed command-line interface shared by every `exp` subcommand.
//!
//! One parser produces one [`Cli`] value: [`CommonArgs`] (scale, jobs,
//! out-dir, store, `--json`) apply uniformly to every
//! subcommand, and [`Command`] carries the per-subcommand arguments.
//! Parsing is position-independent — `exp --quick perf` and
//! `exp perf --quick` mean the same thing — which keeps every historical
//! invocation working.
//!
//! # Exit codes (stable)
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | 1    | runtime failure (simulation error, I/O error, perf-gate or fuzz-oracle failure) |
//! | 2    | usage error (unknown flag, malformed value) |

use crate::codec::scale_from_str;
use crate::engine::ReplayMode;
use gpgpu_workloads::Scale;
use std::path::PathBuf;

/// Process exit code for success.
pub const EXIT_OK: u8 = 0;
/// Process exit code for runtime failures (simulation, I/O, gates).
pub const EXIT_RUNTIME: u8 = 1;
/// Process exit code for usage errors.
pub const EXIT_USAGE: u8 = 2;

/// Options every subcommand shares.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    /// Workload scale (`--scale`, `--quick`).
    pub scale: Scale,
    /// Engine worker threads (`--jobs`); `None` means all cores.
    pub jobs: Option<usize>,
    /// Output directory (`--out-dir`); `None` means `results/`.
    pub out_dir: Option<PathBuf>,
    /// Also print machine-readable JSON summaries (`--json`).
    pub json: bool,
    /// Fast path (core sleep, idle fast-forward, booked retries) enabled;
    /// `--no-fast-forward` disables it for `run` and `perf`, and is a
    /// usage error elsewhere.
    pub fast_forward: bool,
    /// Persistent result store to consult/populate (`--store`).
    pub store_dir: Option<PathBuf>,
    /// Record/replay mode (`--replay auto|off|force`): capture one
    /// functional execution per policy-independent group and re-time the
    /// rest from the record.
    pub replay: ReplayMode,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            scale: Scale::Small,
            jobs: None,
            out_dir: None,
            json: false,
            fast_forward: true,
            store_dir: None,
            replay: ReplayMode::Off,
        }
    }
}

/// Arguments of the (default) `run` subcommand.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunArgs {
    /// Experiment ids to run (`e1` … `e11`).
    pub ids: Vec<String>,
    /// Run every experiment (`--all`).
    pub all: bool,
    /// Record telemetry for trace points into this directory
    /// (`--trace-dir`).
    pub trace_dir: Option<PathBuf>,
    /// Telemetry sampling interval in cycles (`--sample-every`).
    pub sample_every: u64,
}

/// Arguments of the `perf` benchmark subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfArgs {
    /// Where the JSON report goes (`--bench-out`).
    pub bench_out: PathBuf,
    /// Previous report to gate against (`--baseline`).
    pub baseline: Option<PathBuf>,
}

impl Default for PerfArgs {
    fn default() -> Self {
        PerfArgs {
            bench_out: PathBuf::from("BENCH_sim.json"),
            baseline: None,
        }
    }
}

/// Arguments of the `fuzz` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzArgs {
    /// Seed window to fuzz (`--seeds A..B`).
    pub seeds: (u64, u64),
    /// Per-run cycle budget (`--budget-cycles`).
    pub budget_cycles: u64,
    /// Replay one reproducer file instead of fuzzing (`--repro`).
    pub repro: Option<PathBuf>,
}

impl Default for FuzzArgs {
    fn default() -> Self {
        FuzzArgs {
            seeds: (0, 50),
            budget_cycles: 1_000_000,
            repro: None,
        }
    }
}

/// Arguments of the `serve` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Address to bind (`--addr`; port 0 picks a free port).
    pub addr: String,
    /// Work-queue bound (`--queue-cap`); submitters block while full.
    pub queue_cap: usize,
    /// Cycles between streamed `run_progress` events
    /// (`--progress-every`; 0 disables).
    pub progress_every: u64,
    /// Seconds between periodic `[serve: stats ...]` log lines
    /// (`--stats-log-every`; 0 disables).
    pub stats_log_every: u64,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            addr: "127.0.0.1:7878".into(),
            queue_cap: 1024,
            progress_every: 1_000_000,
            stats_log_every: 60,
        }
    }
}

/// Arguments of the `report` subcommand.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReportArgs {
    /// Trace directory to aggregate (`--trace-dir`); the alternative
    /// source is the common `--store`.
    pub trace_dir: Option<PathBuf>,
}

/// Arguments of the `submit` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitArgs {
    /// Server address (`--addr`).
    pub addr: String,
    /// Experiment ids to submit.
    pub ids: Vec<String>,
    /// Submit every experiment (`--all`).
    pub all: bool,
    /// Ask the server to stop (after any submitted batches)
    /// (`--shutdown`).
    pub shutdown: bool,
}

impl Default for SubmitArgs {
    fn default() -> Self {
        SubmitArgs {
            addr: "127.0.0.1:7878".into(),
            ids: Vec::new(),
            all: false,
            shutdown: false,
        }
    }
}

/// Which subcommand runs, with its arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run experiments and write tables (the default subcommand).
    Run(RunArgs),
    /// Simulator throughput benchmark.
    Perf(PerfArgs),
    /// Deterministic simulation fuzzer.
    Fuzz(FuzzArgs),
    /// Long-running job server.
    Serve(ServeArgs),
    /// Submit experiments to a job server.
    Submit(SubmitArgs),
    /// Cycle-accounting report over a store or trace directory.
    Report(ReportArgs),
}

/// A fully parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Shared options.
    pub common: CommonArgs,
    /// The subcommand.
    pub command: Command,
}

/// What parsing produced: a command to execute, or text to print and
/// exit 0 (`--help`, `--list`).
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed {
    /// Print this to stdout and exit successfully.
    Exit(String),
    /// Execute this.
    Cli(Cli),
}

const GENERAL_HELP: &str = "\
usage: exp [options] [command]

commands (default: run)
  run               run experiments and write tables (also implied by
                    passing --all or experiment ids alone)
  perf              simulator throughput benchmark
  fuzz              deterministic simulation fuzzer
  serve             long-running job server (NDJSON over TCP)
  submit            run experiments against an `exp serve` server
  report            cycle-accounting report (stall attribution, occupancy)
                    over a result store or trace directory
  exp <command> --help shows the command's own options

common options
  --quick           Tiny workloads (alias for --scale tiny)
  --scale SCALE     workload scale: tiny | small | large | full
                    (default small)
  --jobs N          worker threads for the run engine (default: all cores)
  --out-dir PATH    directory CSVs are written to (default: results/)
  --store PATH      persistent content-addressed result store: results
                    found there are never re-simulated, new results are
                    saved there (run/serve/submit; perf accepts it only
                    with --replay, and then reads execution records only,
                    so throughput numbers stay honest)
  --replay MODE     record/replay: capture one functional execution per
                    policy-independent group, re-time other CTA policies
                    from the record (bit-identical results). Modes:
                    off (default), auto (capture when a batch amortizes
                    it), force (always capture)
  --no-fast-forward run/perf: use the reference cycle-by-cycle loop
                    (bit-identical results; this is the slow path)
  --json            also print the run summary as one JSON object
  --list            list experiment ids
  --help            show this help (after a command: that command's help)

exit status: 0 success, 1 runtime failure, 2 usage error";

const RUN_HELP: &str = "\
usage: exp [options] (--all | e1 e2 ... e11)

run experiments through one shared, deduplicating engine; print tables
and write them as CSV under --out-dir.

  --all             run every experiment (e1..e11)
  --trace-dir PATH  record telemetry for E2/E5/E8 trace points into PATH
  --sample-every N  telemetry sampling interval in cycles (default 1000)

With --store, results already in the store are loaded instead of
simulated, and fresh results are persisted for the next invocation.
Common options (exp --help) apply.";

const PERF_HELP: &str = "\
usage: exp perf [options]

simulator throughput benchmark: run the full E1..E11 batch, report
per-simulation and wall-clock-aggregate cycles/sec, write
BENCH_sim.json. Refuses --store unless
--replay auto|force is given (a warm store would fake the throughput
numbers); with replay, the store supplies execution records only —
cached results are still never served.

  --bench-out PATH  where the JSON report goes (default BENCH_sim.json)
  --baseline PATH   compare against a previous report; exit 1 on a >25%
                    per-simulation cycles/sec regression

Common options (exp --help) apply.";

const FUZZ_HELP: &str = "\
usage: exp fuzz [options]

deterministic simulation fuzzer: seeded random DSL kernels in random
CTA shapes run against differential (fast-forward vs reference),
functional (CPU-mirrored memory, invariant across CTA policies), and
conservation oracles; failures shrink to a reproducer file under
--out-dir.

  --seeds A..B      seed window to fuzz (default 0..50)
  --budget-cycles N per-run cycle budget (default 1000000)
  --repro FILE      replay one reproducer file instead of fuzzing

reproducer files start with `# simcheck reproducer v2`, then plain
key=value lines (# comments allowed): seed, warp, grid=WxH, block=WxH,
kernel (generator seed), segs, smem, divergent, optional
grid2/block2/kernel2 (concurrent in-place kernel), max_ctas, budget.
EXPERIMENTS.md documents the full format with examples.

Common options (exp --help) apply.";

const SERVE_HELP: &str = "\
usage: exp serve [options]

long-running job server: accepts NDJSON batches of run specs over TCP,
executes them on a bounded queue over --jobs workers, streams per-run
progress and results back, and serves --store hits instantly. Duplicate
in-flight submissions coalesce onto one execution. Stops gracefully when
a client sends shutdown (exp submit --shutdown).

  --addr HOST:PORT   address to bind (default 127.0.0.1:7878; port 0
                     picks a free port, printed on startup)
  --queue-cap N      bound on the work queue; submitters block while it
                     is full (default 1024)
  --progress-every N cycles between streamed run_progress events
                     (default 1000000; 0 disables)
  --stats-log-every N seconds between periodic [serve: stats ...] log
                     lines (default 60; 0 disables); the same snapshot
                     is served on demand by the `stats` wire request

Common options (exp --help) apply; --store gives the server persistence
and --replay auto|force lets the shared engine serve policy variants by
re-timing a captured execution record (reported as source=replayed).";

const REPORT_HELP: &str = "\
usage: exp report (--store PATH | --trace-dir PATH) [--json]

cycle-accounting report: where every scheduler slot of every run went
(the stall taxonomy NoResidentWarp / ScoreboardDep / MemPending /
ExecUnitBusy / BarrierWait / FastForwardedIdle), average resident
CTAs/warps per core, and cross-policy comparisons against the baseline
CTA policy of each run group. Re-checks the conservation identity
(sum of stall counters == idle+stalled slots) on every row.

  --store PATH      report over every entry of a result store
  --trace-dir PATH  report over every *.intervals.csv in a trace
                    directory (e.g. from exp --trace-dir)
  --json            print the report as one JSON document instead of text

Exactly one source is required. Common options (exp --help) apply.";

const SUBMIT_HELP: &str = "\
usage: exp submit [options] (--all | e1 e2 ... e11) [--shutdown]

run experiments against an `exp serve` server: plan locally, submit the
spec batch, stream progress, then build the same tables (byte-identical
CSVs) from the returned results.

  --addr HOST:PORT  server address (default 127.0.0.1:7878)
  --shutdown        ask the server to stop (after any submitted batches;
                    usable on its own too)

Common options (exp --help) apply.";

/// The general usage text (printed with usage errors).
pub fn usage() -> &'static str {
    GENERAL_HELP
}

fn help_for(cmd: Option<&str>) -> &'static str {
    match cmd {
        Some("run") => RUN_HELP,
        Some("perf") => PERF_HELP,
        Some("fuzz") => FUZZ_HELP,
        Some("serve") => SERVE_HELP,
        Some("submit") => SUBMIT_HELP,
        Some("report") => REPORT_HELP,
        _ => GENERAL_HELP,
    }
}

const SUBCOMMANDS: [&str; 6] = ["run", "perf", "fuzz", "serve", "submit", "report"];

/// Parses the `--seeds A..B` window syntax.
fn parse_seed_range(s: &str) -> Option<(u64, u64)> {
    let (lo, hi) = s.split_once("..")?;
    let (lo, hi) = (lo.parse().ok()?, hi.parse().ok()?);
    (lo < hi).then_some((lo, hi))
}

impl Cli {
    /// Parses argv (without the program name). Errors are usage errors —
    /// print them with [`usage`] and exit [`EXIT_USAGE`].
    pub fn parse(args: &[String]) -> Result<Parsed, String> {
        let mut common = CommonArgs::default();
        let mut cmd: Option<&str> = None;
        let mut ids: Vec<String> = Vec::new();
        let mut all = false;
        // Subcommand-specific accumulators (validated against `cmd` at
        // the end, so flag position never matters).
        let mut trace_dir: Option<PathBuf> = None;
        let mut sample_every: u64 = 1000;
        let mut perf = PerfArgs::default();
        let mut fuzz = FuzzArgs::default();
        let mut serve = ServeArgs::default();
        let mut addr: Option<String> = None;
        let mut shutdown = false;

        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => common.scale = Scale::Tiny,
                "--all" => all = true,
                "--scale" => {
                    let v = it.next().ok_or("--scale needs a value")?;
                    common.scale = scale_from_str(v)
                        .map_err(|_| format!("--scale must be tiny, small, large, or full, got {v:?}"))?;
                }
                "--jobs" => {
                    let n = it
                        .next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .filter(|&n| n > 0)
                        .ok_or("--jobs needs a positive integer")?;
                    common.jobs = Some(n);
                }
                "--out-dir" => {
                    common.out_dir = Some(it.next().ok_or("--out-dir needs a path")?.into());
                }
                "--store" => {
                    common.store_dir = Some(it.next().ok_or("--store needs a path")?.into());
                }
                "--replay" => {
                    let v = it.next().ok_or("--replay needs a mode: auto, off, or force")?;
                    common.replay = v
                        .parse()
                        .map_err(|_| format!("--replay must be auto, off, or force, got {v:?}"))?;
                }
                "--json" => common.json = true,
                "--no-fast-forward" => common.fast_forward = false,
                "--trace-dir" => {
                    trace_dir = Some(it.next().ok_or("--trace-dir needs a path")?.into());
                }
                "--sample-every" => {
                    sample_every = it
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .filter(|&n| n > 0)
                        .ok_or("--sample-every needs a positive cycle count")?;
                }
                "--bench-out" => {
                    perf.bench_out = it.next().ok_or("--bench-out needs a path")?.into();
                }
                "--baseline" => {
                    perf.baseline = Some(it.next().ok_or("--baseline needs a path")?.into());
                }
                "--seeds" => {
                    fuzz.seeds = it
                        .next()
                        .and_then(|v| parse_seed_range(v))
                        .ok_or("--seeds needs a window like 0..200 (start < end)")?;
                }
                "--budget-cycles" => {
                    fuzz.budget_cycles = it
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .filter(|&n| n >= 1000)
                        .ok_or("--budget-cycles needs an integer >= 1000")?;
                }
                "--repro" => {
                    fuzz.repro = Some(it.next().ok_or("--repro needs a reproducer file path")?.into());
                }
                "--addr" => {
                    addr = Some(it.next().ok_or("--addr needs host:port")?.clone());
                }
                "--queue-cap" => {
                    serve.queue_cap = it
                        .next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .filter(|&n| n > 0)
                        .ok_or("--queue-cap needs a positive integer")?;
                }
                "--progress-every" => {
                    serve.progress_every = it
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or("--progress-every needs a cycle count (0 disables)")?;
                }
                "--stats-log-every" => {
                    serve.stats_log_every = it
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or("--stats-log-every needs a second count (0 disables)")?;
                }
                "--shutdown" => shutdown = true,
                "--list" => {
                    let mut out = String::new();
                    for id in crate::experiments::all_ids() {
                        out.push_str(id);
                        out.push('\n');
                    }
                    out.pop();
                    return Ok(Parsed::Exit(out));
                }
                "--help" | "-h" => {
                    // `exp --help serve` and `exp serve --help` both show
                    // the serve section.
                    let later = it.find(|t| SUBCOMMANDS.contains(&t.as_str()));
                    return Ok(Parsed::Exit(
                        help_for(cmd.or(later.map(String::as_str))).to_string(),
                    ));
                }
                name if SUBCOMMANDS.contains(&name) => {
                    if let Some(prev) = cmd {
                        if prev != name {
                            return Err(format!("two commands given: {prev} and {name}"));
                        }
                    }
                    cmd = Some(name);
                }
                id if id.starts_with('e') && crate::experiments::all_ids().contains(&id) => {
                    ids.push(id.to_string());
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }

        let name = cmd.unwrap_or("run");
        if !common.fast_forward && !matches!(name, "run" | "perf") {
            return Err(format!(
                "--no-fast-forward applies only to run and perf; {name} does not choose \
                 the simulation loop"
            ));
        }
        let command = match name {
            "perf" => {
                if common.store_dir.is_some() && common.replay == ReplayMode::Off {
                    return Err(
                        "perf refuses --store without --replay auto|force: serving cached \
                         results would fake the throughput numbers (replay modes use the \
                         store for execution records only, never cached results)"
                            .into(),
                    );
                }
                Command::Perf(perf)
            }
            "fuzz" => Command::Fuzz(fuzz),
            "serve" => {
                if let Some(a) = addr {
                    serve.addr = a;
                }
                Command::Serve(serve)
            }
            "submit" => {
                if ids.is_empty() && !all && !shutdown {
                    return Err(
                        "submit needs --all, experiment ids, or --shutdown".into()
                    );
                }
                let mut args = SubmitArgs {
                    ids,
                    all,
                    shutdown,
                    ..SubmitArgs::default()
                };
                if let Some(a) = addr {
                    args.addr = a;
                }
                Command::Submit(args)
            }
            "report" => {
                if common.store_dir.is_some() == trace_dir.is_some() {
                    return Err(
                        "report needs exactly one source: --store PATH or --trace-dir PATH".into(),
                    );
                }
                Command::Report(ReportArgs { trace_dir })
            }
            _ => {
                if ids.is_empty() && !all {
                    return Err(
                        "nothing to run; pass --all, experiment ids, or a command".into()
                    );
                }
                Command::Run(RunArgs {
                    ids,
                    all,
                    trace_dir,
                    sample_every,
                })
            }
        };
        Ok(Parsed::Cli(Cli { common, command }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Parsed, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Cli::parse(&v)
    }

    fn cli(args: &[&str]) -> Cli {
        match parse(args).expect("parses") {
            Parsed::Cli(c) => c,
            other => panic!("expected a command, got {other:?}"),
        }
    }

    #[test]
    fn bare_ids_mean_run() {
        let c = cli(&["--quick", "e3", "e5"]);
        assert_eq!(c.common.scale, Scale::Tiny);
        match c.command {
            Command::Run(r) => assert_eq!(r.ids, vec!["e3", "e5"]),
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn flag_position_is_irrelevant() {
        assert_eq!(
            cli(&["--jobs", "2", "perf", "--baseline", "x.json"]),
            cli(&["perf", "--baseline", "x.json", "--jobs", "2"])
        );
    }

    #[test]
    fn per_command_help_is_selected() {
        for args in [&["serve", "--help"][..], &["--help", "serve"][..]] {
            match parse(args).expect("parses") {
                Parsed::Exit(text) => assert!(text.contains("--queue-cap"), "for {args:?}"),
                other => panic!("expected help, got {other:?}"),
            }
        }
        match parse(&["--help"]).expect("parses") {
            Parsed::Exit(text) => assert!(text.contains("usage: exp")),
            other => panic!("expected help, got {other:?}"),
        }
    }

    #[test]
    fn usage_errors_are_reported() {
        assert!(parse(&["--jobs", "zero"]).is_err());
        assert!(parse(&["--nonsense"]).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&["submit"]).is_err());
    }

    #[test]
    fn report_needs_exactly_one_source() {
        assert!(parse(&["report"]).is_err());
        assert!(parse(&["report", "--store", "a", "--trace-dir", "b"]).is_err());
        match cli(&["report", "--store", "cache", "--json"]).command {
            Command::Report(r) => assert_eq!(r.trace_dir, None),
            other => panic!("expected report, got {other:?}"),
        }
        match cli(&["--trace-dir", "traces", "report"]).command {
            Command::Report(r) => {
                assert_eq!(r.trace_dir.as_deref(), Some(std::path::Path::new("traces")));
            }
            other => panic!("expected report, got {other:?}"),
        }
        match parse(&["report", "--help"]).expect("parses") {
            Parsed::Exit(text) => assert!(text.contains("--trace-dir")),
            other => panic!("expected help, got {other:?}"),
        }
    }

    #[test]
    fn replay_flag_parses_on_run_serve_and_perf() {
        assert_eq!(cli(&["--all"]).common.replay, ReplayMode::Off);
        assert_eq!(cli(&["--all", "--replay", "auto"]).common.replay, ReplayMode::Auto);
        assert_eq!(cli(&["serve", "--replay", "force"]).common.replay, ReplayMode::Force);
        assert_eq!(cli(&["perf", "--replay", "auto"]).common.replay, ReplayMode::Auto);
        assert!(parse(&["--all", "--replay"]).is_err());
        assert!(parse(&["--all", "--replay", "sometimes"]).is_err());
    }

    #[test]
    fn perf_store_needs_replay() {
        // Plain cache hits would fake throughput numbers: usage error.
        let err = parse(&["perf", "--store", "cache"]).unwrap_err();
        assert!(err.contains("--replay"), "{err}");
        // With a replay mode, the store is legitimate (records only).
        let c = cli(&["perf", "--store", "cache", "--replay", "auto"]);
        assert_eq!(c.common.store_dir.as_deref(), Some(std::path::Path::new("cache")));
        assert_eq!(c.common.replay, ReplayMode::Auto);
        assert!(parse(&["perf", "--store", "cache", "--replay", "force"]).is_ok());
        assert!(parse(&["perf", "--store", "cache", "--replay", "off"]).is_err());
    }

    #[test]
    fn store_and_serve_flags_parse() {
        let c = cli(&["serve", "--store", "cache", "--addr", "127.0.0.1:0", "--queue-cap", "7"]);
        assert_eq!(c.common.store_dir.as_deref(), Some(std::path::Path::new("cache")));
        match c.command {
            Command::Serve(s) => {
                assert_eq!(s.addr, "127.0.0.1:0");
                assert_eq!(s.queue_cap, 7);
            }
            other => panic!("expected serve, got {other:?}"),
        }
    }
}
