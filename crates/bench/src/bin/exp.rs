//! Experiment CLI: regenerates the paper's tables and figures.
//!
//! ```text
//! exp --all                     # run E1..E11 at Small scale
//! exp e3 e5                     # run a subset
//! exp --quick --all             # Tiny scale (smoke test)
//! exp --store cache --all       # persistent result store: warm reruns
//!                               # simulate nothing
//! exp serve --store cache       # long-running job server
//! exp submit --all              # run E1..E11 against that server
//! exp --list                    # show experiment ids
//! exp <command> --help          # per-command options
//! ```
//!
//! Parsing lives in [`gpgpu_bench::cli`]; this binary only dispatches.
//! All selected experiments are planned up front and deduplicated through
//! one shared [`gpgpu_bench::RunEngine`], so a baseline run shared by several
//! experiments simulates exactly once — and, with `--store`, at most once
//! across *processes*. Exit codes are stable: 0 success, 1 runtime
//! failure, 2 usage error.

use gpgpu_bench::cli::{
    Cli, Command, CommonArgs, FuzzArgs, Parsed, PerfArgs, ReportArgs, RunArgs, ServeArgs,
    SubmitArgs, EXIT_RUNTIME, EXIT_USAGE,
};
use gpgpu_bench::experiments::{all_ids, plan, tabulate, trace_points, write_trace, Runs};
use gpgpu_bench::json::Json;
use gpgpu_bench::service::{Event, RemoteClient, ServeConfig, Server, Source};
use gpgpu_bench::simcheck::{check_case, fuzz_seeds, FuzzCase};
use gpgpu_bench::{Harness, ReplayMode, ResultStore, RunSpec};
use gpgpu_sim::TelemetryConfig;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(Parsed::Exit(text)) => {
            // Tolerate a closed pipe (`exp --help | head`): a best-effort
            // write instead of println!'s broken-pipe panic.
            let _ = writeln!(std::io::stdout(), "{text}");
            return ExitCode::SUCCESS;
        }
        Ok(Parsed::Cli(cli)) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", gpgpu_bench::cli::usage());
            return ExitCode::from(EXIT_USAGE);
        }
    };

    let mut h = Harness::default();
    h.scale = cli.common.scale;
    if let Some(jobs) = cli.common.jobs {
        h.jobs = jobs;
    }
    if let Some(dir) = &cli.common.out_dir {
        h.out_dir = dir.clone();
    }

    let store = match open_store(&cli.common) {
        Ok(s) => s,
        Err(code) => return code,
    };

    match cli.command {
        Command::Run(args) => run_experiments(&h, &cli.common, args, store),
        Command::Perf(args) => run_perf(&h, &args, &cli.common, store),
        Command::Fuzz(args) => run_fuzz(&h, &args),
        Command::Serve(args) => run_serve(&h, &cli.common, args, store),
        Command::Submit(args) => run_submit(&h, &cli.common, args),
        Command::Report(args) => run_report(&cli.common, &args),
    }
}

/// The `report` path: build cycle-accounting rows from the chosen source
/// (the CLI guarantees exactly one of `--store` / `--trace-dir`), render
/// text or JSON, and fail when any row breaks the conservation identity.
fn run_report(common: &CommonArgs, args: &ReportArgs) -> ExitCode {
    use gpgpu_bench::report;
    let rows = match &args.trace_dir {
        Some(dir) => report::rows_from_traces(dir),
        None => {
            let dir = common.store_dir.as_ref().expect("cli validated one source");
            let mut skipped = Vec::new();
            let rows = report::rows_from_store(dir, &mut skipped);
            for note in &skipped {
                eprintln!("warning: skipped store entry: {note}");
            }
            rows
        }
    };
    let rows = match rows {
        Ok(rows) if rows.is_empty() => {
            eprintln!("error: the source holds nothing to report on");
            return ExitCode::from(EXIT_RUNTIME);
        }
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_RUNTIME);
        }
    };
    let report = report::Report::from_rows(rows);
    if common.json {
        println!("{}", report.render_json().render());
    } else {
        print!("{}", report.render_text());
    }
    if !report.identity_ok() {
        eprintln!("error: stall-accounting conservation identity violated (see rows above)");
        return ExitCode::from(EXIT_RUNTIME);
    }
    ExitCode::SUCCESS
}

/// Opens `--store` (when given), failing fast on an unusable directory.
fn open_store(common: &CommonArgs) -> Result<Option<Arc<ResultStore>>, ExitCode> {
    let Some(dir) = &common.store_dir else {
        return Ok(None);
    };
    match ResultStore::open(dir) {
        Ok(s) => Ok(Some(Arc::new(s))),
        Err(e) => {
            eprintln!("error: cannot open store {}: {e}", dir.display());
            Err(ExitCode::from(EXIT_RUNTIME))
        }
    }
}

/// Creates `dir` if needed and verifies files can actually be created in
/// it (catches read-only mounts and paths under non-directories early).
fn ensure_writable_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let probe = dir.join(".write-probe");
    std::fs::File::create(&probe)?;
    std::fs::remove_file(&probe)
}

/// Rejects, as a usage error, a directory flag whose value cannot be
/// written to — before anything simulates.
fn check_writable(what: &str, dir: &Path) -> Result<(), ExitCode> {
    ensure_writable_dir(dir).map_err(|e| {
        eprintln!(
            "error: cannot write to {what} {}: {e}\n\n{}",
            dir.display(),
            gpgpu_bench::cli::usage()
        );
        ExitCode::from(EXIT_USAGE)
    })
}

/// The ids `--all` or the positional arguments select.
fn selected_ids(all: bool, ids: &[String]) -> Vec<String> {
    if all {
        all_ids().into_iter().map(String::from).collect()
    } else {
        ids.to_vec()
    }
}

/// Tabulates `ids` from `runs`, printing each table and writing it as CSV
/// under the harness out-dir (shared by `run` and `submit`, which must
/// produce byte-identical files from the same results). Returns whether
/// every CSV was written.
fn write_tables(h: &Harness, ids: &[String], runs: &Runs) -> bool {
    let mut ok = true;
    for id in ids {
        let t0 = std::time::Instant::now();
        for (file, table) in tabulate(id, h, runs) {
            println!("{table}");
            let path = h.out_dir.join(file);
            if let Err(e) = table.write_csv(&path) {
                eprintln!("error: could not write {}: {e}", path.display());
                ok = false;
            }
        }
        println!("[{id} tabulated in {:.1?}]\n", t0.elapsed());
    }
    ok
}

/// The default `run` path: plan, execute (through the store when given),
/// tabulate, write CSVs and traces.
fn run_experiments(
    h: &Harness,
    common: &CommonArgs,
    args: RunArgs,
    store: Option<Arc<ResultStore>>,
) -> ExitCode {
    let ids = selected_ids(args.all, &args.ids);
    // Fail on an unusable output directory before simulating anything —
    // a bad argument value, so it reports as a usage error.
    if let Some(dir) = &args.trace_dir {
        if let Err(code) = check_writable("trace dir", dir) {
            return code;
        }
    }
    if let Err(code) = check_writable("out dir", &h.out_dir) {
        return code;
    }

    let total = std::time::Instant::now();

    // Plan every selected experiment up front so the engine can dedup
    // shared specs (e.g. the GTO baseline) across experiments, then
    // execute the unique remainder on the worker pool. Trace points are
    // batched alongside, upgrading the shared runs with telemetry.
    let mut engine = h.engine();
    if let Some(store) = store {
        engine.attach_store(store);
    }
    engine.set_replay_mode(common.replay);
    engine.set_reference_loop(!common.fast_forward);
    let mut specs = plan(h, &ids);
    let mut traces: Vec<(&str, RunSpec)> = Vec::new();
    if args.trace_dir.is_some() {
        let cfg = TelemetryConfig::new(args.sample_every);
        for id in &ids {
            traces.extend(trace_points(id, h, cfg));
        }
        specs.extend(traces.iter().map(|(_, s)| s.clone()));
    }
    let runs = Runs::execute(&engine, &specs);

    if !write_tables(h, &ids, &runs) {
        return ExitCode::from(EXIT_RUNTIME);
    }
    if let Some(dir) = &args.trace_dir {
        if let Err(e) = write_traces(dir, &traces, &runs) {
            eprintln!("error writing traces: {e}");
            return ExitCode::from(EXIT_RUNTIME);
        }
    }
    let summary = engine.summary();
    println!("{summary}");
    if common.json {
        println!("{}", summary.to_json());
    }
    println!("[all experiments took {:.1?}]", total.elapsed());
    ExitCode::SUCCESS
}

/// Writes each trace point's event trace and interval series under `dir`.
fn write_traces(dir: &Path, traces: &[(&str, RunSpec)], runs: &Runs) -> std::io::Result<()> {
    for (label, spec) in traces {
        let Some(data) = &runs.get(spec).telemetry else {
            eprintln!("warning: no telemetry recorded for {label}");
            continue;
        };
        write_trace(dir, label, data)?;
        println!(
            "[trace {label}: {} events, {} samples -> {}]",
            data.events.len(),
            data.samples.len(),
            dir.display()
        );
    }
    Ok(())
}

/// The `serve` path: bind, announce, accept until shut down.
fn run_serve(
    h: &Harness,
    common: &CommonArgs,
    args: ServeArgs,
    store: Option<Arc<ResultStore>>,
) -> ExitCode {
    let cfg = ServeConfig {
        addr: args.addr,
        jobs: h.jobs,
        queue_cap: args.queue_cap,
        progress_every: args.progress_every,
        store,
        stats_log_every: args.stats_log_every,
        replay: common.replay,
    };
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot start server: {e}");
            return ExitCode::from(EXIT_RUNTIME);
        }
    };
    println!("[serve: listening on {} ({} workers)]", server.local_addr(), h.jobs);
    match server.run() {
        Ok(()) => {
            println!("[serve: shut down cleanly]");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: server failed: {e}");
            ExitCode::from(EXIT_RUNTIME)
        }
    }
}

/// The `submit` path: plan locally, run the batch on a server, and
/// tabulate its results into the same tables a local `run` would
/// produce — byte-identically.
fn run_submit(h: &Harness, common: &CommonArgs, args: SubmitArgs) -> ExitCode {
    let client = RemoteClient::new(args.addr.clone());
    let ids = selected_ids(args.all, &args.ids);
    if !ids.is_empty() {
        if let Err(code) = check_writable("out dir", &h.out_dir) {
            return code;
        }
        let specs = plan(h, &ids);
        println!(
            "[submit: {} specs from {} experiment(s) -> {}]",
            specs.len(),
            ids.len(),
            args.addr
        );
        let t0 = std::time::Instant::now();
        let mut started = 0usize;
        let items = client.run_batch_observed(&specs, &mut |event| match event {
            Event::Accepted { runs, unique } => {
                println!("[submit: accepted {runs} runs ({unique} unique)]");
            }
            Event::RunStarted { .. } => {
                started += 1;
                println!("[submit: run {started} started on server]");
            }
            Event::RunProgress {
                cycle,
                instructions,
                ..
            } => {
                println!("[submit: in flight at cycle {cycle}, {instructions} instructions]");
            }
            _ => {}
        });
        let items = match items {
            Ok(items) => items,
            Err(e) => {
                eprintln!("error: submit failed: {e}");
                return ExitCode::from(EXIT_RUNTIME);
            }
        };
        let (mut simulated, mut cached, mut coalesced, mut replayed) = (0usize, 0usize, 0usize, 0usize);
        for item in &items {
            match item.source {
                Source::Simulated => simulated += 1,
                Source::Cached => cached += 1,
                Source::Coalesced => coalesced += 1,
                Source::Replayed => replayed += 1,
            }
        }
        println!(
            "[submit: {} results in {:.1?} ({simulated} simulated, {cached} cached, {coalesced} coalesced, {replayed} replayed)]",
            items.len(),
            t0.elapsed()
        );
        let runs: Runs = specs
            .iter()
            .zip(&items)
            .map(|(spec, item)| (spec.key(), Arc::clone(&item.result)))
            .collect();
        if !write_tables(h, &ids, &runs) {
            return ExitCode::from(EXIT_RUNTIME);
        }
        if common.json {
            let count = |n: usize| Json::UInt(n as u64);
            let summary = Json::obj()
                .with("runs", count(items.len()))
                .with("simulated", count(simulated))
                .with("cached", count(cached))
                .with("coalesced", count(coalesced))
                .with("replayed", count(replayed));
            println!("{}", summary.render());
        }
        if args.shutdown {
            if let Err(e) = RemoteClient::new(args.addr).shutdown() {
                eprintln!("error: shutdown failed: {e}");
                return ExitCode::from(EXIT_RUNTIME);
            }
            println!("[submit: server asked to shut down]");
        }
        return ExitCode::SUCCESS;
    }
    // --shutdown alone.
    match client.shutdown() {
        Ok(()) => {
            println!("[submit: server asked to shut down]");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: shutdown failed: {e}");
            ExitCode::from(EXIT_RUNTIME)
        }
    }
}

/// The `perf` path: simulate the full E1..E11 batch (no tables), report
/// per-simulation and wall-clock-aggregate throughput, write a
/// machine-readable `BENCH_sim.json`, and optionally gate against a
/// previous report.
///
/// The two rates answer different questions and must not be conflated:
/// the *per-simulation* rate (total cycles over summed worker time) is
/// how fast one simulation progresses — it is what the regression gate
/// compares, like for like. The
/// *wall-clock aggregate* rate (total cycles over batch elapsed time)
/// additionally scales with `--jobs` batch parallelism.
///
/// The gated reference batch always runs direct (replay off, no cached
/// results): a warm store or a cheap replay would fake the throughput
/// numbers. With `--replay auto|force`, the same batch then runs a
/// second time on a fresh replay-mode engine — the store, when given,
/// supplies execution records only — and the measured direct-vs-replay
/// wall-clock speedup is recorded in the JSON report.
fn run_perf(
    h: &Harness,
    args: &PerfArgs,
    common: &CommonArgs,
    store: Option<Arc<ResultStore>>,
) -> ExitCode {
    let json = common.json;
    let mut engine = h.engine();
    engine.set_reference_loop(!common.fast_forward);
    let specs = plan(h, &all_ids());
    let t0 = std::time::Instant::now();
    engine.execute_batch(&specs);
    let elapsed = t0.elapsed();
    let summary = engine.summary();
    println!("{summary}");
    println!(
        "[perf: {} Mcycles in {:.1}s elapsed ({} worker threads); {:.2} Mcycles/s per simulation, {:.2} Mcycles/s wall-clock aggregate]",
        summary.sim_cycles / 1_000_000,
        elapsed.as_secs_f64(),
        summary.jobs,
        summary.cycles_per_second() / 1e6,
        summary.wall_cycles_per_second(elapsed.as_nanos() as u64) / 1e6
    );

    // With --replay, run the identical batch again on a fresh engine in
    // replay mode (cold memo; the store, when given, supplies execution
    // records only) and measure the wall-clock improvement. Replay is
    // bit-identical to direct execution, so the cycle totals must agree.
    let replay_cmp = if common.replay != ReplayMode::Off {
        let mut replay_engine = h.engine();
        replay_engine.set_use_cached_results(false);
        if let Some(store) = store {
            replay_engine.attach_store(store);
        }
        replay_engine.set_replay_mode(common.replay);
        replay_engine.set_reference_loop(!common.fast_forward);
        let t0 = std::time::Instant::now();
        replay_engine.execute_batch(&specs);
        let replay_elapsed = t0.elapsed();
        let rs = replay_engine.summary();
        if (rs.sim_cycles, rs.sim_instructions) != (summary.sim_cycles, summary.sim_instructions) {
            eprintln!(
                "error: replay batch diverged from direct execution ({} cycles / {} instructions vs {} / {})",
                rs.sim_cycles, rs.sim_instructions, summary.sim_cycles, summary.sim_instructions
            );
            return ExitCode::from(EXIT_RUNTIME);
        }
        let speedup = elapsed.as_secs_f64() / replay_elapsed.as_secs_f64().max(1e-9);
        println!(
            "[perf replay ({}): {} executed + {} replayed in {:.1}s vs {:.1}s direct ({speedup:.2}x)]",
            common.replay,
            rs.executed,
            rs.replayed,
            replay_elapsed.as_secs_f64(),
            elapsed.as_secs_f64()
        );
        Some((replay_elapsed, rs, speedup))
    } else {
        None
    };

    // The engine summary is already flat JSON; prepend the batch-level
    // elapsed time and wall-clock rate.
    let mut payload = format!(
        "{{\"bench\":\"exp_perf\",\"elapsed_nanos\":{},\"wall_cycles_per_second\":{:.1},{}",
        elapsed.as_nanos(),
        summary.wall_cycles_per_second(elapsed.as_nanos() as u64),
        &summary.to_json()[1..]
    );
    // Aggregate cycle accounting over the batch's unique runs, keyed by
    // the scale tier this invocation benchmarked. Observation-only data;
    // the gate reads only the top-level "cycles_per_second" above.
    let mut seen = std::collections::HashSet::new();
    let unique: Vec<_> =
        specs.iter().filter(|s| seen.insert(s.key())).map(|s| engine.get(s)).collect();
    let bd = gpgpu_bench::report::bench_stall_breakdown(h.scale, unique.iter().map(|r| &r.stats));
    payload.pop(); // trailing '}'
    payload.push_str(&format!(",\"stall_breakdown\":{bd}}}"));
    // Measured record/replay comparison (observation-only; the gate
    // below still reads the direct batch's cycles_per_second).
    if let Some((replay_elapsed, rs, speedup)) = &replay_cmp {
        payload.pop(); // trailing '}'
        payload.push_str(&format!(
            ",\"replay\":{{\"mode\":\"{}\",\"direct_elapsed_nanos\":{},\"replay_elapsed_nanos\":{},\"speedup\":{speedup:.3},\"executed\":{},\"replayed\":{}}}}}",
            common.replay,
            elapsed.as_nanos(),
            replay_elapsed.as_nanos(),
            rs.executed,
            rs.replayed
        ));
    }
    if let Err(e) = std::fs::write(&args.bench_out, format!("{payload}\n")) {
        eprintln!("cannot write {}: {e}", args.bench_out.display());
        return ExitCode::from(EXIT_RUNTIME);
    }
    println!("[wrote {}]", args.bench_out.display());
    if json {
        println!("{payload}");
    }
    if let Some(base) = &args.baseline {
        let base_cps = match read_baseline_cps(base) {
            Ok(v) if v > 0.0 => v,
            Ok(_) => {
                eprintln!("baseline {} has no positive cycles_per_second", base.display());
                return ExitCode::from(EXIT_RUNTIME);
            }
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", base.display());
                return ExitCode::from(EXIT_RUNTIME);
            }
        };
        let cps = summary.cycles_per_second();
        println!(
            "[perf gate: {:.2} Mcycles/s vs baseline {:.2} Mcycles/s ({:+.1}%)]",
            cps / 1e6,
            base_cps / 1e6,
            (cps / base_cps - 1.0) * 100.0
        );
        if cps < base_cps * 0.75 {
            eprintln!("perf regression: throughput is >25% below the baseline");
            return ExitCode::from(EXIT_RUNTIME);
        }
    }
    ExitCode::SUCCESS
}

/// Reads the top-level `cycles_per_second` of a previous `BENCH_sim.json`.
fn read_baseline_cps(path: &Path) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    Json::parse(&text)
        .map_err(|e| e.to_string())?
        .get("cycles_per_second")
        .and_then(Json::as_f64)
        .ok_or_else(|| "no numeric top-level cycles_per_second field".to_string())
}

/// The `fuzz` path: either replay one reproducer file, or fuzz a seed
/// window and write a shrunk reproducer per failing seed under the
/// harness's out-dir. Exits nonzero when any oracle fired.
fn run_fuzz(h: &Harness, args: &FuzzArgs) -> ExitCode {
    if let Some(path) = &args.repro {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read reproducer {}: {e}", path.display());
                return ExitCode::from(EXIT_RUNTIME);
            }
        };
        let case = match FuzzCase::from_repro(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("bad reproducer {}: {e}", path.display());
                return ExitCode::from(EXIT_RUNTIME);
            }
        };
        println!("[fuzz: replaying {}]", path.display());
        let failures = check_case(&case);
        if failures.is_empty() {
            println!("[fuzz: reproducer is clean — all oracles passed]");
            return ExitCode::SUCCESS;
        }
        for f in &failures {
            println!("{f}");
        }
        println!("[fuzz: {} oracle failure(s)]", failures.len());
        return ExitCode::from(EXIT_RUNTIME);
    }

    let (lo, hi) = args.seeds;
    let t0 = std::time::Instant::now();
    let report = fuzz_seeds(lo, hi, args.budget_cycles, h.jobs);
    let failures = report.failures;
    if failures.is_empty() {
        println!(
            "[fuzz: seeds {lo}..{hi} clean ({} cases, {} oracle runs) in {:.1?}]",
            hi - lo,
            report.oracle_runs,
            t0.elapsed()
        );
        return ExitCode::SUCCESS;
    }
    if let Err(e) = ensure_writable_dir(&h.out_dir) {
        eprintln!("cannot write to out dir {}: {e}", h.out_dir.display());
        return ExitCode::from(EXIT_RUNTIME);
    }
    for f in &failures {
        println!("seed {} failed {} oracle check(s):", f.seed, f.failures.len());
        for x in &f.failures {
            println!("  {x}");
        }
        let path = h.out_dir.join(format!("simcheck-seed{}.repro", f.seed));
        match std::fs::write(&path, f.shrunk.to_repro()) {
            Ok(()) => println!("  shrunk reproducer: {}", path.display()),
            Err(e) => eprintln!("  cannot write {}: {e}", path.display()),
        }
        for x in &f.shrunk_failures {
            println!("  after shrink: {x}");
        }
    }
    println!(
        "[fuzz: {} of {} seeds failed in {:.1?}]",
        failures.len(),
        hi - lo,
        t0.elapsed()
    );
    ExitCode::from(EXIT_RUNTIME)
}
