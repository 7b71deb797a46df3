//! The benchmark of record for the GPGPU thread-block-scheduling
//! simulator. See `README.md` in this directory for the workloads, every
//! metric, and how to run it.
//!
//! Everything is driven from outside the simulator through the public
//! APIs of `gpgpu-workloads`, `gpgpu-sim`, `tbs-core`, `gpgpu-mem` and
//! `gpgpu-bench`. One simulation runs at a time, on one thread.

pub mod instrument;
pub mod memprobe;
pub mod plan;

use gpgpu_bench::codec::content_key_prefix;
use gpgpu_bench::{Harness, ReplayMode, ResultStore, RunEngine, RunResult, RunSpec};
use gpgpu_isa::Program;
use gpgpu_sim::{ExecRecord, GpuConfig, GpuDevice, SimStats};
use gpgpu_workloads::{by_name, RunMode, Scale};
use instrument::{SchedCounters, TimedCta, TimedWarpFactory};
use memprobe::MemCost;
use plan::{Launch, Unit, Workload, BCS, LCS, MIXED_CKE};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// Per-run cycle budget (the experiment harness default).
pub const MAX_CYCLES: u64 = 400_000_000;

/// Fewest set-up-only repetitions per untraced run, for a steady `setup_s`.
const SETUP_REPS: usize = 9;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated kernels.
    pub seed: u64,
    /// Measurement time: untraced passes repeat while the next one fits.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Problem size (the benchmark uses `Small`; self-tests `Tiny`).
    pub scale: Scale,
    /// Directory for the replay-store workload's temporary stores.
    pub scratch: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Simulations attempted.
    pub attempted: u64,
    /// Simulations that failed: a simulator error, a failed output check,
    /// or a replay that disagrees with its capture.
    pub failed: u64,
    /// What failed (the first few).
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Exact simulated counters of the run set; identical across runs of
    /// the same workload, seed and scale, traced or not.
    pub simulated: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Whether every simulation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// Runs the benchmark.
///
/// # Errors
///
/// Fails when the benchmark itself cannot run (an unusable scratch
/// directory); a simulation that fails is counted in the report instead.
pub fn run(opts: &Options) -> Result<Report, String> {
    gpgpu_sim::set_sim_threads_default(1);
    let units = opts.workload.units(opts.seed);
    let mut report = Report::default();
    if opts.trace {
        traced(opts, &units, &mut report)?;
    } else {
        untraced(opts, &units, &mut report)?;
    }
    Ok(report)
}

fn ratio(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n / d
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

// ---------------------------------------------------------------------------
// One simulation

/// A device with the unit's kernels prepared and launched.
struct Prepared {
    gpu: GpuDevice,
    workloads: Vec<Box<dyn gpgpu_workloads::Workload>>,
    programs: Vec<Arc<Program>>,
    prepare_s: f64,
}

/// Builds the device and launches the unit: everything before the first
/// simulated cycle.
fn set_up(
    unit: &Unit,
    scale: Scale,
    mode: &RunMode,
    counters: Option<&Arc<SchedCounters>>,
) -> Result<Prepared, String> {
    let mut workloads = unit
        .launch
        .names()
        .into_iter()
        .map(|n| by_name(n, scale).ok_or_else(|| format!("unknown workload {n:?}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut warp = unit.policy.warp.factory();
    let mut cta = unit.policy.cta.scheduler();
    if let Some(c) = counters {
        warp = Box::new(TimedWarpFactory::new(warp, Arc::clone(c)));
        cta = Box::new(TimedCta::new(cta, Arc::clone(c)));
    }
    let mut gpu = GpuDevice::new(GpuConfig::fermi(), warp.as_ref(), cta);
    gpu.set_sim_threads(1);
    match mode {
        RunMode::Direct => {}
        RunMode::Capture => gpu.set_capture(true),
        RunMode::Replay(rec) => gpu.set_replay(Arc::clone(rec)),
    }
    let t = Instant::now();
    let descs: Vec<_> = workloads.iter_mut().map(|w| w.prepare(gpu.mem())).collect();
    let prepare_s = t.elapsed().as_secs_f64();
    let programs = descs.iter().map(|d| Arc::clone(d.program())).collect();
    let mut descs = descs.into_iter();
    let first = gpu.launch(descs.next().expect("a launch names at least one kernel"));
    if let (Some(d), Launch::Pair { serial, .. }) = (descs.next(), &unit.launch) {
        if *serial {
            gpu.launch_after(d, first);
        } else {
            gpu.launch(d);
        }
    }
    Ok(Prepared {
        gpu,
        workloads,
        programs,
        prepare_s,
    })
}

/// One finished simulation.
struct Exec {
    stats: SimStats,
    /// Set-up, simulation and output check: the run's host time.
    wall_s: f64,
    setup_s: f64,
    prepare_s: f64,
    run_s: f64,
    verify_s: f64,
    /// Final memory contents hash (not for replays, which touch no data).
    mem_hash: Option<u64>,
    record: Option<ExecRecord>,
    programs: Vec<Arc<Program>>,
}

fn execute(
    unit: &Unit,
    scale: Scale,
    mode: RunMode,
    counters: Option<&Arc<SchedCounters>>,
) -> Result<Exec, String> {
    let t0 = Instant::now();
    let Prepared {
        mut gpu,
        workloads,
        programs,
        prepare_s,
    } = set_up(unit, scale, &mode, counters)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    gpu.run(MAX_CYCLES).map_err(|e| e.to_string())?;
    let run_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let replay = matches!(mode, RunMode::Replay(_));
    if !replay {
        for w in &workloads {
            w.verify(gpu.mem_ref()).map_err(|e| e.to_string())?;
        }
    }
    let verify_s = t.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Exec {
        stats: gpu.stats(),
        wall_s,
        setup_s,
        prepare_s,
        run_s,
        verify_s,
        mem_hash: (!replay).then(|| gpu.mem_ref().content_hash()),
        record: gpu.take_record(),
        programs,
    })
}

/// Checks that every run of the same kernels left the same memory
/// contents, whatever the policies (scheduling never changes results).
#[derive(Default)]
struct SameMemory(HashMap<Vec<String>, u64>);

impl SameMemory {
    fn check(&mut self, unit: &Unit, hash: u64) -> Result<(), String> {
        let key = unit.launch.names().iter().map(|s| s.to_string()).collect();
        let first = *self.0.entry(key).or_insert(hash);
        if first == hash {
            Ok(())
        } else {
            Err(format!(
                "{unit}: final memory differs from another policy's run"
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Passes over the run set

/// What one pass over the run set measured.
#[derive(Default)]
struct Pass {
    /// Host seconds of the run set.
    wall_s: f64,
    /// Host seconds inside `GpuDevice::run` (for the engine: its per-run
    /// wall time).
    run_s: f64,
    setup_s: f64,
    cycles: u64,
    instructions: u64,
    /// Stats per unit, in unit order (`None` where the run failed).
    stats: Vec<Option<SimStats>>,
}

fn direct_pass(units: &[Unit], scale: Scale, report: &mut Report) -> Pass {
    let mut pass = Pass::default();
    let mut same = SameMemory::default();
    for u in units {
        report.attempted += 1;
        let exec = guarded(|| {
            let e = execute(u, scale, RunMode::Direct, None)?;
            same.check(u, e.mem_hash.expect("direct runs hash memory"))?;
            Ok(e)
        });
        match exec {
            Ok(e) => {
                pass.wall_s += e.wall_s;
                pass.run_s += e.run_s;
                pass.setup_s += e.setup_s;
                pass.cycles += e.stats.cycles;
                pass.instructions += e.stats.instructions;
                pass.stats.push(Some(e.stats));
            }
            Err(msg) => {
                report.fail(format!("{u}: {msg}"));
                pass.stats.push(None);
            }
        }
    }
    pass
}

/// Host time spent inside the result store, measured by the traced run.
#[derive(Default)]
struct StoreIo {
    save_s: f64,
    load_s: f64,
    mb_written: f64,
}

/// What the replay-store pass measured besides the [`Pass`].
#[derive(Default)]
struct EngineCounts {
    executed: usize,
    replayed: usize,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The replay-store run set: a cold pass through a fresh engine and
/// store, then a warm pass on a fresh engine that serves no cached
/// results, so it replays every run from the stored records.
fn store_pass(
    units: &[Unit],
    scale: Scale,
    dir: &Path,
    report: &mut Report,
    io: Option<&mut StoreIo>,
) -> Result<(Pass, EngineCounts), String> {
    let harness = Harness {
        scale,
        jobs: 1,
        max_cycles: MAX_CYCLES,
        ..Harness::default()
    };
    let specs: Vec<RunSpec> = units.iter().map(|u| plan::spec(&harness, u)).collect();
    let _ = std::fs::remove_dir_all(dir);
    let open = || {
        ResultStore::open(dir)
            .map(Arc::new)
            .map_err(|e| format!("store {}: {e}", dir.display()))
    };
    let engine = |store: Arc<ResultStore>, cached: bool| {
        let mut e = RunEngine::new(1);
        e.set_replay_mode(ReplayMode::Auto);
        e.set_use_cached_results(cached);
        e.attach_store(store);
        e
    };

    let mut pass = Pass::default();
    let mut counts = EngineCounts::default();
    let mut results: Vec<Vec<Arc<RunResult>>> = Vec::new();
    for cached in [true, false] {
        let eng = engine(open()?, cached);
        report.attempted += specs.len() as u64;
        let t = Instant::now();
        let batch = guarded(|| {
            eng.execute_batch(&specs);
            Ok(())
        });
        pass.wall_s += t.elapsed().as_secs_f64();
        if let Err(msg) = batch {
            for _ in &specs {
                report.fail(format!("engine batch: {msg}"));
            }
            let _ = std::fs::remove_dir_all(dir);
            pass.stats = vec![None; specs.len()];
            return Ok((pass, counts));
        }
        let summary = eng.summary();
        pass.run_s += summary.wall_nanos as f64 / 1e9;
        pass.cycles += summary.sim_cycles;
        pass.instructions += summary.sim_instructions;
        counts.executed += summary.executed;
        counts.replayed += summary.replayed;
        results.push(specs.iter().map(|s| eng.get(s)).collect());
    }
    let (cold, warm) = (&results[0], &results[1]);
    for ((u, c), w) in units.iter().zip(cold).zip(warm) {
        if c.stats != w.stats {
            report.fail(format!("{u}: warm-pass replay differs from the cold pass"));
        }
    }

    // Every replay group's stored record must cover exactly the run's
    // issued instructions, and records of the same kernels must carry the
    // same final memory hash.
    let store = open()?;
    let mut groups: Vec<(String, usize)> = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        let prefix = content_key_prefix(s);
        if !groups.iter().any(|(p, _)| *p == prefix) {
            groups.push((prefix, i));
        }
    }
    let t = Instant::now();
    let records: Vec<(usize, Option<ExecRecord>)> = groups
        .iter()
        .map(|&(_, i)| (i, store.load_record(&specs[i])))
        .collect();
    let load_record_s = t.elapsed().as_secs_f64();
    let mut same = SameMemory::default();
    for (i, rec) in &records {
        let check = match rec {
            None => Err("no execution record in the store".to_string()),
            Some(r) if r.total_steps() != cold[*i].stats.instructions => {
                Err("stored record does not match the run's instruction count".to_string())
            }
            Some(r) => same.check(&units[*i], r.mem_hash),
        };
        if let Err(msg) = check {
            report.fail(format!("{}: {msg}", units[*i]));
        }
    }

    if let Some(io) = io {
        io.mb_written = dir_bytes(dir) as f64 / 1e6;
        let t = Instant::now();
        for s in &specs {
            let _ = store.load(s);
        }
        io.load_s = t.elapsed().as_secs_f64() + load_record_s;
        let copy = dir.with_extension("copy");
        let _ = std::fs::remove_dir_all(&copy);
        let copy_store = ResultStore::open(&copy).map_err(|e| e.to_string())?;
        let t = Instant::now();
        for (s, r) in specs.iter().zip(cold) {
            copy_store.save(s, r, 0).map_err(|e| e.to_string())?;
        }
        for (i, rec) in &records {
            if let Some(r) = rec {
                copy_store
                    .save_record(&specs[*i], r)
                    .map_err(|e| e.to_string())?;
            }
        }
        io.save_s = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&copy);
    }
    let _ = std::fs::remove_dir_all(dir);
    pass.stats = cold.iter().map(|r| Some(r.stats.clone())).collect();
    Ok((pass, counts))
}

fn one_pass(
    opts: &Options,
    units: &[Unit],
    report: &mut Report,
    io: Option<&mut StoreIo>,
) -> Result<(Pass, EngineCounts), String> {
    match opts.workload {
        Workload::ReplayStore => {
            let dir = opts
                .scratch
                .join(format!("perfbench-store-{}", std::process::id()));
            store_pass(units, opts.scale, &dir, report, io)
        }
        _ => Ok((
            direct_pass(units, opts.scale, report),
            EngineCounts::default(),
        )),
    }
}

// ---------------------------------------------------------------------------
// Simulated counters

/// Exact simulated counters over the run set (runs that failed are left
/// out), including the three speedups when every run succeeded.
fn simulated(units: &[Unit], stats: &[Option<SimStats>]) -> BTreeMap<&'static str, f64> {
    let ok: Vec<&SimStats> = stats.iter().flatten().collect();
    let mut b = gpgpu_sim::StallBreakdown::default();
    let (mut l1, mut l2) = (
        gpgpu_mem::CacheStats::default(),
        gpgpu_mem::CacheStats::default(),
    );
    let mut dram = gpgpu_mem::DramStats::default();
    let (mut packets, mut queue_wait, mut xbar_rejected) = (0, 0, 0);
    let (mut requests, mut transactions, mut cycles, mut instructions) = (0, 0, 0, 0);
    for s in &ok {
        let sb = s.stall_breakdown();
        b.core_cycles += sb.core_cycles;
        b.issued_slots += sb.issued_slots;
        b.scoreboard += sb.scoreboard;
        b.mem_pending += sb.mem_pending;
        b.ff_idle += sb.ff_idle;
        b.no_resident += sb.no_resident;
        b.exec_busy += sb.exec_busy;
        b.barrier += sb.barrier;
        b.warp_resident_cycles += sb.warp_resident_cycles;
        l1.merge(&s.l1);
        l2.merge(&s.fabric.l2);
        dram.merge(&s.fabric.dram);
        for x in [&s.fabric.req_xbar, &s.fabric.resp_xbar] {
            packets += x.packets;
            queue_wait += x.queue_wait;
            xbar_rejected += x.rejected;
        }
        requests += s.fabric.loads_in + s.fabric.stores_in;
        transactions += s.cores.iter().map(|c| c.gmem_transactions).sum::<u64>();
        cycles += s.cycles;
        instructions += s.instructions;
    }
    let f = |n: u64| n as f64;
    let mut m = BTreeMap::new();
    m.insert("sim.cycles", f(cycles));
    m.insert("sim.instructions", f(instructions));
    m.insert("sim.gmem_transactions", f(transactions));
    m.insert("sim.core.issue_frac", b.slot_fraction(b.issued_slots));
    m.insert("sim.core.mem_pending_frac", b.slot_fraction(b.mem_pending));
    m.insert("sim.core.scoreboard_frac", b.slot_fraction(b.scoreboard));
    m.insert("sim.core.ff_idle_frac", b.slot_fraction(b.ff_idle));
    m.insert("sim.core.avg_resident_warps", b.avg_resident_warps());
    m.insert("mem.l1.accesses", f(l1.accesses()));
    m.insert("mem.l1.hit_rate", ratio(f(l1.hits()), f(l1.accesses())));
    m.insert("mem.l1.reservation_fails", f(l1.reservation_fails));
    m.insert("mem.xbar.packets", f(packets));
    m.insert(
        "mem.xbar.queue_wait_per_packet",
        ratio(f(queue_wait), f(packets)),
    );
    m.insert("mem.xbar.rejected", f(xbar_rejected));
    m.insert("mem.l2.accesses", f(l2.accesses()));
    m.insert("mem.l2.hit_rate", ratio(f(l2.hits()), f(l2.accesses())));
    m.insert("mem.dram.requests", f(dram.reads + dram.writes));
    m.insert("mem.dram.row_hit_rate", dram.row_hit_rate());
    m.insert("mem.dram.avg_latency", dram.avg_latency());
    m.insert("mem.dram.rejected", f(dram.rejected));
    m.insert("mem.fabric.requests", f(requests));
    if ok.len() == stats.len() {
        let cycles: Vec<u64> = ok.iter().map(|s| s.cycles).collect();
        for (name, policy, pairs) in [
            ("lcs_speedup", LCS, false),
            ("bcs_speedup", BCS, false),
            ("cke_speedup", MIXED_CKE, true),
        ] {
            if let Some(s) = plan::speedup(units, &cycles, policy, pairs) {
                m.insert(name, s);
            }
        }
    }
    m
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics

fn untraced(opts: &Options, units: &[Unit], report: &mut Report) -> Result<(), String> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let (pass, _) = one_pass(opts, units, report, None)?;
        let sim = simulated(units, &pass.stats);
        if passes.is_empty() {
            report.simulated = sim;
        } else if sim != report.simulated {
            report.fail("simulated counters differ between passes of the same run set".into());
        }
        let last = pass.wall_s;
        passes.push(pass);
        if start.elapsed().as_secs_f64() + last > opts.seconds {
            break;
        }
    }
    // The run set's own peak, before the set-up repetitions can leave
    // the heap in a seed-dependent shape.
    let peak_rss = peak_rss_mb()?;
    let mut setups: Vec<f64> = match opts.workload {
        Workload::ReplayStore => Vec::new(),
        _ => passes.iter().map(|p| p.setup_s).collect(),
    };
    // A set-up takes milliseconds: repeat for at least a second too.
    let reps_start = Instant::now();
    let mut reps = 0;
    while reps < SETUP_REPS || reps_start.elapsed().as_secs_f64() < 1.0 {
        reps += 1;
        let t = Instant::now();
        for u in units {
            // A unit that cannot be set up fails its run in the pass.
            let _ = guarded(|| set_up(u, opts.scale, &RunMode::Direct, None).map(drop));
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let med = |f: &dyn Fn(&Pass) -> f64| median(passes.iter().map(f).collect());
    report.push("wall_s", med(&|p| p.wall_s), "s");
    report.push(
        "sim_mcycles_per_s",
        med(&|p| ratio(p.cycles as f64, p.run_s) / 1e6),
        "Mcycles/s",
    );
    report.push(
        "sim_minstr_per_s",
        med(&|p| ratio(p.instructions as f64, p.run_s) / 1e6),
        "Minstr/s",
    );
    report.push(
        "setup_s",
        if setups.is_empty() {
            0.0
        } else {
            median(setups)
        },
        "s",
    );
    report.push("peak_rss_mb", peak_rss, "MB");
    for name in ["lcs_speedup", "bcs_speedup", "cke_speedup"] {
        match report.simulated.get(name) {
            Some(&v) => report.push(name, v, "x"),
            None => report.fail(format!(
                "{name}: no complete baseline/policy pair in the run set"
            )),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics

/// The traced run. Each unit is captured twice back to back, once plain
/// and once with the scheduler instruments, so `trace.overhead_frac`
/// compares like with like; the plain capture's record is then checked,
/// probed and replayed.
fn traced(opts: &Options, units: &[Unit], report: &mut Report) -> Result<(), String> {
    let cfg = GpuConfig::fermi();
    let counters = Arc::new(SchedCounters::default());

    let (mut plain_wall, mut timed_wall, mut timed_run_s) = (0.0, 0.0, 0.0);
    let (mut prepare_s, mut verify_s, mut capture_run_s, mut replay_run_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut record_bytes, mut encode_s, mut decode_s) = (0usize, 0.0, 0.0);
    let mut global_accesses = 0u64;
    let mut mem = MemCost::default();
    let mut stats = Vec::new();
    let mut same = SameMemory::default();

    let mut io = StoreIo::default();
    let mut counts = EngineCounts::default();
    if opts.workload == Workload::ReplayStore {
        counts = one_pass(opts, units, report, Some(&mut io))?.1;
    }

    for (i, u) in units.iter().enumerate() {
        report.attempted += 2;
        // The second run of a unit finds the allocator warm, so the two
        // captures take turns going first.
        let plain_first = i % 2 == 0;
        let capture = |instrumented: bool| {
            let c = instrumented.then_some(&counters);
            guarded(|| execute(u, opts.scale, RunMode::Capture, c))
        };
        let first = capture(!plain_first);
        let second = capture(plain_first);
        let (cap, timed) = if plain_first {
            (first, second)
        } else {
            (second, first)
        };
        let cap = cap.and_then(|e| {
            same.check(u, e.mem_hash.expect("captures hash memory"))?;
            Ok(e)
        });
        let mut cap = match cap {
            Ok(e) => e,
            Err(msg) => {
                report.fail(format!("{u} (capture): {msg}"));
                stats.push(None);
                continue;
            }
        };
        match timed {
            Ok(t) if t.stats == cap.stats => {
                plain_wall += cap.wall_s;
                timed_wall += t.wall_s;
                timed_run_s += t.run_s;
            }
            Ok(_) => report.fail(format!("{u}: the instruments changed the simulation")),
            Err(msg) => report.fail(format!("{u} (instrumented capture): {msg}")),
        }
        prepare_s += cap.prepare_s;
        verify_s += cap.verify_s;
        capture_run_s += cap.run_s;
        let Some(record) = cap.record.take() else {
            report.fail(format!("{u}: capture produced no record"));
            stats.push(Some(cap.stats));
            continue;
        };

        let mut bytes = Vec::new();
        let t = Instant::now();
        record.write_to(&mut bytes).map_err(|e| e.to_string())?;
        encode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let decoded = ExecRecord::read_from(&mut bytes.as_slice());
        decode_s += t.elapsed().as_secs_f64();
        record_bytes += bytes.len();
        drop(bytes);
        if decoded.as_ref().ok() != Some(&record) {
            report.fail(format!("{u}: record does not survive encode/decode"));
        }
        drop(decoded);

        if record.mem_hash != cap.mem_hash.expect("captures hash memory") {
            report.fail(format!(
                "{u}: record's memory hash differs from the capture's memory"
            ));
        }
        global_accesses += memprobe::global_accesses(&record, &cap.programs);
        mem.add(&memprobe::probe(&record, &cap.programs, &cfg));

        report.attempted += 1;
        let record = Arc::new(record);
        match guarded(|| execute(u, opts.scale, RunMode::Replay(Arc::clone(&record)), None)) {
            Ok(rep) if rep.stats == cap.stats => replay_run_s += rep.run_s,
            Ok(_) => report.fail(format!("{u}: replay differs from its capture")),
            Err(msg) => report.fail(format!("{u} (replay): {msg}")),
        }
        stats.push(Some(cap.stats));
    }

    let sim = simulated(units, &stats);
    let c = &counters;
    let load = |a: &std::sync::atomic::AtomicU64| a.load(Relaxed) as f64;
    let cta_busy_s = load(&c.cta_busy_ns) / 1e9;
    let warp_busy_s = load(&c.warp_busy_ns) / 1e9;
    let l1_attempts = sim["mem.l1.accesses"] + sim["mem.l1.reservation_fails"];
    let fabric_requests = sim["mem.fabric.requests"];
    let per = |ns: u64, n: u64| ratio(ns as f64, n as f64);
    let coalesce_ns = per(mem.coalesce_ns, mem.accesses);
    let l1_ns = per(mem.l1_ns, mem.l1_accesses);
    let fabric_ns = per(mem.fabric_ns, mem.fabric_requests);
    let mem_est_s =
        (coalesce_ns * global_accesses as f64 + l1_ns * l1_attempts + fabric_ns * fabric_requests)
            / 1e9;

    let r = report;
    r.push("workloads.prepare_s", prepare_s, "s");
    r.push("workloads.verify_s", verify_s, "s");
    r.push("sim.device.run_s", capture_run_s, "s");
    r.push(
        "sim.device.ns_per_cycle",
        ratio(capture_run_s * 1e9, sim["sim.cycles"]),
        "ns",
    );
    r.push(
        "sim.device.self_s",
        timed_run_s - cta_busy_s - warp_busy_s,
        "s",
    );
    for (name, unit) in [
        ("sim.core.issue_frac", "frac"),
        ("sim.core.mem_pending_frac", "frac"),
        ("sim.core.scoreboard_frac", "frac"),
        ("sim.core.ff_idle_frac", "frac"),
        ("sim.core.avg_resident_warps", "warps"),
    ] {
        r.push(name, sim[name], unit);
    }
    r.push(
        "sim.functional_share",
        1.0 - ratio(replay_run_s, capture_run_s),
        "frac",
    );
    r.push("sim.record.mb", record_bytes as f64 / 1e6, "MB");
    r.push(
        "sim.record.encode_mb_per_s",
        ratio(record_bytes as f64 / 1e6, encode_s),
        "MB/s",
    );
    r.push(
        "sim.record.decode_mb_per_s",
        ratio(record_bytes as f64 / 1e6, decode_s),
        "MB/s",
    );
    r.push("core.cta_sched.calls", load(&c.cta_calls), "count");
    r.push("core.cta_sched.busy_s", cta_busy_s, "s");
    r.push(
        "core.cta_sched.dispatch_frac",
        ratio(load(&c.cta_dispatches), load(&c.cta_selects)),
        "frac",
    );
    r.push("core.warp_sched.picks", load(&c.warp_picks), "count");
    r.push("core.warp_sched.busy_s", warp_busy_s, "s");
    r.push(
        "core.warp_sched.issue_frac",
        ratio(load(&c.warp_issues), load(&c.warp_picks)),
        "frac",
    );
    r.push("sim.coalesce.ns_per_access", coalesce_ns, "ns");
    r.push(
        "sim.coalesce.lines_per_access",
        ratio(sim["sim.gmem_transactions"], global_accesses as f64),
        "lines",
    );
    r.push("mem.l1.accesses", sim["mem.l1.accesses"], "count");
    r.push("mem.l1.hit_rate", sim["mem.l1.hit_rate"], "frac");
    r.push(
        "mem.l1.reservation_fails",
        sim["mem.l1.reservation_fails"],
        "count",
    );
    r.push("mem.l1.ns_per_access", l1_ns, "ns");
    r.push("mem.xbar.packets", sim["mem.xbar.packets"], "count");
    r.push(
        "mem.xbar.queue_wait_per_packet",
        sim["mem.xbar.queue_wait_per_packet"],
        "cycles",
    );
    r.push("mem.xbar.rejected", sim["mem.xbar.rejected"], "count");
    r.push("mem.l2.accesses", sim["mem.l2.accesses"], "count");
    r.push("mem.l2.hit_rate", sim["mem.l2.hit_rate"], "frac");
    r.push("mem.dram.requests", sim["mem.dram.requests"], "count");
    r.push(
        "mem.dram.row_hit_rate",
        sim["mem.dram.row_hit_rate"],
        "frac",
    );
    r.push(
        "mem.dram.avg_latency",
        sim["mem.dram.avg_latency"],
        "cycles",
    );
    r.push("mem.dram.rejected", sim["mem.dram.rejected"], "count");
    r.push("mem.fabric.ns_per_request", fabric_ns, "ns");
    r.push("mem.est_share", ratio(mem_est_s, capture_run_s), "frac");
    r.push("bench.engine.executed", counts.executed as f64, "count");
    r.push("bench.engine.replayed", counts.replayed as f64, "count");
    r.push("bench.store.save_s", io.save_s, "s");
    r.push("bench.store.load_s", io.load_s, "s");
    r.push("bench.store.mb_written", io.mb_written, "MB");
    r.push(
        "trace.overhead_frac",
        ratio(timed_wall, plain_wall) - 1.0,
        "frac",
    );
    r.simulated = sim;
    Ok(())
}
