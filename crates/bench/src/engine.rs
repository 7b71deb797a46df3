//! The declarative run API: [`RunSpec`] describes one simulation as pure
//! data, and [`RunEngine`] executes batches of specs — once each.
//!
//! The engine is the single seam every experiment's simulations flow
//! through. It buys two things over ad-hoc call sites:
//!
//! * **Deduplication.** Experiments overlap heavily (E2–E7 and E9 all
//!   re-measure the `gto`/`baseline` reference point per workload; E3, E5,
//!   and E6 each re-run the full static-limit oracle sweep). Identical
//!   specs — same workload, scale, GPU config, policies, and cycle budget
//!   — are detected by content key and simulated once, within and across
//!   experiments.
//! * **Parallelism.** Unique specs fan out over [`parallel_map`] worker
//!   threads. Each simulation runs on one thread and is deterministic, so
//!   results are bit-identical to a serial run regardless of the worker
//!   count or completion order.
//!
//! The intended shape is two-phase: experiments *plan* (contribute specs)
//! and the engine *executes* the combined batch; experiments then
//! tabulate from the batch's results (`experiments::Runs`), which never
//! simulate. [`RunEngine::get`] reads the memo, or else runs its spec as
//! a batch of one. The job server hands each submitted batch to the same
//! executor.

use crate::service::Source;
use crate::{parallel_map, Harness};
use gpgpu_isa::KernelDescriptor;
use gpgpu_sim::{
    ExecRecord, GlobalMem, GpuConfig, KernelId, ProgressCallback, SimStats, TelemetryConfig,
    TelemetryData,
};
use gpgpu_workloads::{by_name, run_launches, RunMode, RunOptions, RunOutcome, Scale, Workload};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tbs_core::{CtaPolicy, Lcs, WarpPolicy};

/// What a [`RunSpec`] simulates: one kernel, or two kernels sharing the
/// device (the E8 concurrent-kernel-execution shape).
#[derive(Debug, Clone, PartialEq)]
pub enum RunKind {
    /// One workload, launched alone.
    Single {
        /// Suite name of the workload (see `gpgpu_workloads::by_name`).
        workload: String,
    },
    /// Two workloads on one device: both at cycle 0, or `b` after `a`.
    Pair {
        /// Suite name of the first (memory-side) workload.
        a: String,
        /// Suite name of the second (compute-side) workload.
        b: String,
        /// Launch `b` only after `a` completes (serial-execution regime).
        serial: bool,
    },
}

/// A fully declarative description of one simulation: workload(s), scale,
/// GPU configuration, scheduling policies, and cycle budget.
///
/// Two specs with equal content are the *same* run — the engine derives a
/// stable [`RunKey`] from every field and never simulates a key twice.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Workload selection.
    pub kind: RunKind,
    /// Problem-size preset.
    pub scale: Scale,
    /// GPU configuration (keyed by full content, so config sweeps get
    /// distinct runs).
    pub gpu: GpuConfig,
    /// Warp-scheduler policy.
    pub warp: WarpPolicy,
    /// CTA-scheduler policy.
    pub cta: CtaPolicy,
    /// Per-run cycle budget.
    pub max_cycles: u64,
    /// Optional telemetry (interval sampling + event trace) for this run.
    ///
    /// Deliberately **excluded from the dedup key**: telemetry observes a
    /// run without changing it, so a traced spec and its plain twin are
    /// the same simulation. Within a batch the traced variant wins (see
    /// [`RunEngine::execute_batch`]), and every consumer of the shared
    /// result gets the telemetry for free.
    pub telemetry: Option<TelemetryConfig>,
}

impl RunSpec {
    /// A single-workload spec using the harness GPU config and scale.
    pub fn single(h: &Harness, name: &str, warp: WarpPolicy, cta: CtaPolicy) -> Self {
        Self::single_cfg(h, h.gpu.clone(), name, warp, cta)
    }

    /// As [`RunSpec::single`] with an explicit GPU config (for
    /// configuration sweeps).
    pub fn single_cfg(
        h: &Harness,
        gpu: GpuConfig,
        name: &str,
        warp: WarpPolicy,
        cta: CtaPolicy,
    ) -> Self {
        RunSpec {
            kind: RunKind::Single {
                workload: name.to_string(),
            },
            scale: h.scale,
            gpu,
            warp,
            cta,
            max_cycles: h.max_cycles,
            telemetry: None,
        }
    }

    /// A two-kernel spec (concurrent unless `serial`) using the harness
    /// GPU config and scale.
    pub fn pair(h: &Harness, a: &str, b: &str, warp: WarpPolicy, cta: CtaPolicy, serial: bool) -> Self {
        RunSpec {
            kind: RunKind::Pair {
                a: a.to_string(),
                b: b.to_string(),
                serial,
            },
            scale: h.scale,
            gpu: h.gpu.clone(),
            warp,
            cta,
            max_cycles: h.max_cycles,
            telemetry: None,
        }
    }

    /// Attaches a telemetry request to this spec (builder-style). Does not
    /// change the spec's [`key`](Self::key).
    pub fn with_telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// The stable content key identifying this run.
    ///
    /// Derivation lives in one documented place —
    /// [`codec::content_key`](crate::codec::content_key) — shared by the
    /// in-memory memo table and the persistent
    /// [`ResultStore`](crate::store::ResultStore), and pinned by a golden
    /// test so accidental drift (which would silently invalidate every
    /// stored result) fails CI.
    /// The `telemetry` request is excluded — it observes a run without
    /// changing its results.
    pub fn key(&self) -> RunKey {
        RunKey(crate::codec::content_key(self))
    }
}

/// The stable content key of a [`RunSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey(String);

impl RunKey {
    /// The key's stable string form (used to label profiles and traces).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// When the engine may substitute timing replay (`gpgpu_sim::record`)
/// for direct execution. Replay is bit-identical to direct execution
/// (enforced by the golden replay suite and the simcheck oracle), so the
/// mode only changes wall-clock cost, never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayMode {
    /// Never capture or replay (the status quo).
    #[default]
    Off,
    /// Replay whenever an execution record is available (in memory or in
    /// the attached store); capture one when a batch group has several
    /// specs sharing a record and none exists yet.
    Auto,
    /// As [`ReplayMode::Auto`], but capture a record for *every* group
    /// that lacks one — even a lone run — so later runs (and other
    /// processes sharing the store) can always replay.
    Force,
}

impl fmt::Display for ReplayMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReplayMode::Off => "off",
            ReplayMode::Auto => "auto",
            ReplayMode::Force => "force",
        })
    }
}

impl FromStr for ReplayMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(ReplayMode::Off),
            "auto" => Ok(ReplayMode::Auto),
            "force" => Ok(ReplayMode::Force),
            other => Err(format!("unknown replay mode {other:?} (expected auto|off|force)")),
        }
    }
}

/// The memoized result of one executed spec.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Full simulator statistics.
    pub stats: SimStats,
    /// Kernel ids in launch order (one for singles, two for pairs).
    pub kernels: Vec<KernelId>,
    /// When the CTA policy was LCS: the per-core limits it decided during
    /// the run, sorted ascending (the E6 accuracy input).
    pub lcs_limits: Option<Vec<u32>>,
    /// Telemetry collected during the run, when the executed spec
    /// requested it.
    pub telemetry: Option<TelemetryData>,
    /// Whether this result came from timing replay rather than direct
    /// execution. Pure provenance — replayed results are bit-identical —
    /// so it is *not* serialized (the store and the wire never carry it);
    /// `exp serve` uses it to classify a run's source in its stats.
    pub via_replay: bool,
}

impl RunResult {
    /// The first (or only) kernel's outcome, for `RunOutcome`-shaped
    /// consumers.
    pub fn outcome(&self) -> RunOutcome {
        RunOutcome {
            stats: self.stats.clone(),
            kernel: self.kernels[0],
        }
    }

    /// The first kernel's execution cycles.
    pub fn cycles(&self) -> u64 {
        self.outcome().cycles()
    }

    /// The first kernel's IPC.
    pub fn ipc(&self) -> f64 {
        self.outcome().ipc()
    }

    /// Whole-device cycles (for pairs: time to finish both kernels).
    pub fn total_cycles(&self) -> u64 {
        self.stats.cycles
    }
}

/// Executes [`RunSpec`] batches: deduplicates by content key, fans unique
/// specs out over worker threads, and memoizes every result for lookup.
///
/// Cheap to construct; hold one per sweep (or share one across experiments
/// to deduplicate between them, as the `exp` binary does).
pub struct RunEngine {
    jobs: usize,
    memo: Mutex<HashMap<RunKey, Arc<RunResult>>>,
    profiles: Mutex<Vec<RunProfile>>,
    executed: AtomicUsize,
    deduped: AtomicUsize,
    store_hits: AtomicUsize,
    replayed: AtomicUsize,
    store: Option<Arc<crate::store::ResultStore>>,
    progress: Option<ProgressHook>,
    replay: ReplayMode,
    /// Run every simulation on the reference cycle-by-cycle loop (see
    /// [`RunOptions::reference_loop`]).
    reference_loop: bool,
    /// In-memory execution records, keyed by the CTA-policy-independent
    /// content-key prefix (the replay-group key).
    records: Mutex<HashMap<String, Arc<ExecRecord>>>,
    /// The cause of each failed run, by key: a failed key never runs again.
    failed: Mutex<HashMap<RunKey, String>>,
    /// When false (the `exp perf` setting), the store never *serves*
    /// results — only execution records — so every measured run actually
    /// simulates. Results are still saved.
    use_cached_results: bool,
}

/// An observer of simulations: called from the thread running a spec
/// with the run's key and `None` when the run starts, then every
/// `every_cycles` device cycles with `Some((cycle, instructions issued so
/// far))`. Observation only — it cannot affect results (`exp serve` uses
/// it to stream `run_started` and `run_progress` events to clients).
#[derive(Clone)]
pub struct ProgressHook {
    /// Device-cycle interval between progress callbacks (0: start only).
    pub every_cycles: u64,
    /// The callback itself.
    pub callback: Arc<dyn Fn(&RunKey, Option<(u64, u64)>) + Send + Sync>,
}

/// How [`RunEngine::run_batch`] satisfied one requested spec.
#[derive(Clone)]
pub(crate) struct Answer {
    /// Memo or store hit ([`Source::Cached`]), duplicate within the batch
    /// ([`Source::Coalesced`]), executed or replayed.
    pub source: Source,
    /// Wall-clock nanoseconds the run took: 0 when cached, the first
    /// occurrence's for a duplicate.
    pub wall_nanos: u64,
    /// The run's result.
    pub result: Arc<RunResult>,
}

impl Answer {
    fn cached(result: &Arc<RunResult>) -> Answer {
        Answer {
            source: Source::Cached,
            wall_nanos: 0,
            result: Arc::clone(result),
        }
    }
}

/// Wall-clock profile of one executed run (one entry per simulation, in
/// completion-recording order).
#[derive(Debug, Clone, PartialEq)]
pub struct RunProfile {
    /// The run's content key.
    pub key: RunKey,
    /// Wall-clock nanoseconds the simulation took on its worker thread.
    pub wall_nanos: u64,
    /// Device cycles the run simulated.
    pub cycles: u64,
    /// Warp-instructions the run issued.
    pub instructions: u64,
}

impl RunProfile {
    /// Simulation throughput in device cycles per wall-clock second.
    pub fn cycles_per_second(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.cycles as f64 / (self.wall_nanos as f64 / 1e9)
        }
    }
}

/// Machine-readable roll-up of an engine's work: dedup accounting plus
/// aggregate run profiling. Build with [`RunEngine::summary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSummary {
    /// Simulations actually executed.
    pub executed: usize,
    /// Requested runs satisfied from the memo table.
    pub deduped: usize,
    /// Requested runs satisfied from the persistent result store.
    pub store_hits: usize,
    /// Requested runs satisfied by timing replay of a captured execution
    /// record (bit-identical to simulating, but much cheaper).
    pub replayed: usize,
    /// Worker-thread count.
    pub jobs: usize,
    /// Total wall-clock nanoseconds across executed runs (summed over
    /// worker threads, so this can exceed elapsed time).
    pub wall_nanos: u64,
    /// Total device cycles simulated.
    pub sim_cycles: u64,
    /// Total warp-instructions simulated.
    pub sim_instructions: u64,
}

impl EngineSummary {
    /// Total runs requested (executed + deduplicated + store hits +
    /// replayed).
    pub fn requested(&self) -> usize {
        self.executed + self.deduped + self.store_hits + self.replayed
    }

    /// *Per-simulation* throughput in device cycles per second of worker
    /// time: each executed run contributes its own wall time once, no
    /// matter how many `--jobs` workers ran concurrently. This is the
    /// rate a single simulation progresses at (and what the perf gate
    /// compares); it is independent of batch-level `--jobs` parallelism.
    pub fn cycles_per_second(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.sim_cycles as f64 / (self.wall_nanos as f64 / 1e9)
        }
    }

    /// *Wall-clock aggregate* throughput: total simulated cycles over the
    /// batch's elapsed time (which the engine does not track — callers
    /// measure it around `execute_batch`). This rate scales with `--jobs`
    /// and is the right number for "how fast does the whole batch go",
    /// while [`cycles_per_second`](Self::cycles_per_second) answers "how
    /// fast does one simulation go".
    pub fn wall_cycles_per_second(&self, elapsed_nanos: u64) -> f64 {
        if elapsed_nanos == 0 {
            0.0
        } else {
            self.sim_cycles as f64 / (elapsed_nanos as f64 / 1e9)
        }
    }

    /// Renders the summary as one flat JSON object (for `exp --json`).
    /// Carries [`codec::SCHEMA_VERSION`](crate::codec::SCHEMA_VERSION) so
    /// downstream consumers can gate on compatibility.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema_version\":\"{}\",\"executed\":{},\"deduped\":{},\"store_hits\":{},\"replayed\":{},\"requested\":{},\"jobs\":{},\"wall_nanos\":{},\"sim_cycles\":{},\"sim_instructions\":{},\"cycles_per_second\":{:.1}}}",
            crate::codec::SCHEMA_VERSION,
            self.executed,
            self.deduped,
            self.store_hits,
            self.replayed,
            self.requested(),
            self.jobs,
            self.wall_nanos,
            self.sim_cycles,
            self.sim_instructions,
            self.cycles_per_second()
        )
    }
}

impl fmt::Display for EngineSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} runs requested: {} simulated, {} deduplicated, {} from store, {} replayed; {} worker threads; {} Mcycles in {:.1}s worker time ({:.1} Mcycles/s per simulation)]",
            self.requested(),
            self.executed,
            self.deduped,
            self.store_hits,
            self.replayed,
            self.jobs,
            self.sim_cycles / 1_000_000,
            self.wall_nanos as f64 / 1e9,
            self.cycles_per_second() / 1e6
        )
    }
}

impl RunEngine {
    /// An engine fanning out over up to `jobs` worker threads.
    pub fn new(jobs: usize) -> Self {
        RunEngine {
            jobs: jobs.max(1),
            memo: Mutex::new(HashMap::new()),
            profiles: Mutex::new(Vec::new()),
            executed: AtomicUsize::new(0),
            deduped: AtomicUsize::new(0),
            store_hits: AtomicUsize::new(0),
            replayed: AtomicUsize::new(0),
            store: None,
            progress: None,
            replay: ReplayMode::default(),
            reference_loop: false,
            records: Mutex::new(HashMap::new()),
            failed: Mutex::new(HashMap::new()),
            use_cached_results: true,
        }
    }

    /// Sets when the engine may substitute timing replay for direct
    /// execution (default [`ReplayMode::Off`]). Results are bit-identical
    /// in every mode; only wall-clock cost changes.
    pub fn set_replay_mode(&mut self, mode: ReplayMode) {
        self.replay = mode;
    }

    /// Runs every simulation this engine executes on the reference
    /// cycle-by-cycle loop instead of the fast path (default off).
    /// Results are bit-identical either way, so the content key ignores
    /// it and memoized or stored results stay valid.
    pub fn set_reference_loop(&mut self, on: bool) {
        self.reference_loop = on;
    }

    /// When disabled, the attached store never *serves* results — every
    /// requested run actually simulates (directly or via replay) — while
    /// executed results and captured records are still persisted. This is
    /// `exp perf`'s setting: a perf measurement served from cache would
    /// measure nothing.
    pub fn set_use_cached_results(&mut self, on: bool) {
        self.use_cached_results = on;
    }

    /// Attaches a persistent [`ResultStore`](crate::store::ResultStore):
    /// from now on the engine consults it before simulating (specs
    /// requesting telemetry still simulate, since stored entries don't
    /// rebuild in-memory telemetry) and persists every result it
    /// executes. Share one store between engines — or between processes —
    /// to never simulate the same spec twice anywhere.
    pub fn attach_store(&mut self, store: Arc<crate::store::ResultStore>) {
        self.store = Some(store);
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&Arc<crate::store::ResultStore>> {
        self.store.as_ref()
    }

    /// Installs a [`ProgressHook`] observing in-flight simulations (used
    /// by `exp serve` to stream per-run progress). Observation only:
    /// results are byte-identical with or without a hook.
    pub fn set_progress(&mut self, hook: ProgressHook) {
        self.progress = Some(hook);
    }

    /// Consults the attached store for `spec` (memo-miss path). On a hit
    /// the result is memoized and counted.
    fn load_from_store(&self, key: &RunKey, spec: &RunSpec) -> Option<Arc<RunResult>> {
        if !self.use_cached_results {
            return None; // perf mode: measured runs must simulate
        }
        if spec.telemetry.is_some() {
            return None; // stored entries cannot satisfy a telemetry request
        }
        let hit = self.store.as_ref()?.load(spec)?;
        let result = Arc::new(hit.result);
        self.store_hits.fetch_add(1, Ordering::Relaxed);
        let mut memo = self.memo.lock().expect("not poisoned");
        Some(Arc::clone(
            memo.entry(key.clone()).or_insert(result),
        ))
    }

    /// Persists an executed result to the attached store (best-effort: a
    /// full disk must not fail the batch, so errors only warn).
    fn save_to_store(&self, spec: &RunSpec, result: &RunResult, wall_nanos: u64) {
        if let Some(store) = &self.store {
            if let Err(e) = store.save(spec, result, wall_nanos) {
                eprintln!(
                    "warning: could not persist result to store {}: {e}",
                    store.root().display()
                );
            }
        }
    }

    /// The execution record covering `spec`'s replay group (keyed by
    /// `prefix`), from the in-memory cache or the attached store.
    fn lookup_record(&self, prefix: &str, spec: &RunSpec) -> Option<Arc<ExecRecord>> {
        if let Some(r) = self.records.lock().expect("not poisoned").get(prefix) {
            return Some(Arc::clone(r));
        }
        let store = self.store.as_ref()?;
        let rec = store.load_record(spec)?;
        // A record that decodes but was captured from other kernels would
        // send replay past the end of its traces: it is corrupt too.
        if let Err(why) = rec.check_covers(&spec_kernels(spec)) {
            store.evict_record(spec, &why);
            return None;
        }
        let rec = Arc::new(rec);
        let mut cache = self.records.lock().expect("not poisoned");
        Some(Arc::clone(cache.entry(prefix.to_string()).or_insert(rec)))
    }

    /// Caches a freshly captured record in memory and persists it to the
    /// attached store (best-effort, like result saves).
    fn adopt_record(&self, prefix: String, spec: &RunSpec, record: ExecRecord) -> Arc<ExecRecord> {
        if let Some(store) = &self.store {
            if let Err(e) = store.save_record(spec, &record) {
                eprintln!(
                    "warning: could not persist execution record to store {}: {e}",
                    store.root().display()
                );
            }
        }
        let rec = Arc::new(record);
        let mut cache = self.records.lock().expect("not poisoned");
        Arc::clone(cache.entry(prefix).or_insert(rec))
    }

    /// Executes every spec in `specs` that has not already been executed,
    /// in parallel. Duplicates — within the batch or against earlier
    /// batches — are counted as deduplicated and not re-simulated.
    ///
    /// When duplicates within the batch disagree on telemetry, the
    /// telemetry-requesting variant is the one executed (the request
    /// "upgrades" the shared run), so planners can overlay traced specs
    /// on an existing plan without forcing extra simulations.
    ///
    /// # Panics
    ///
    /// Panics, naming the run and its cause, if a simulation fails or its
    /// output does not verify (an experiment must not silently report a
    /// broken run).
    pub fn execute_batch(&self, specs: &[RunSpec]) {
        for (spec, answer) in specs.iter().zip(self.run_batch(specs)) {
            if let Err(cause) = answer {
                panic!("run {} failed: {cause}", spec.key().as_str());
            }
        }
    }

    /// [`execute_batch`](Self::execute_batch) without the panic: for each
    /// spec, in order, how it was satisfied, or why its run failed. A
    /// failed key keeps its cause and never runs again.
    pub(crate) fn run_batch(&self, specs: &[RunSpec]) -> Vec<Result<Answer, String>> {
        let mut answers: Vec<Option<Result<Answer, String>>> = vec![None; specs.len()];
        // The first occurrence of each key the memo and the failures
        // leave open, and each later duplicate's first occurrence.
        let mut fresh: Vec<(usize, RunKey, RunSpec)> = Vec::new();
        let mut twins: Vec<(usize, usize)> = Vec::new();
        {
            let memo = self.memo.lock().expect("not poisoned");
            let failed = self.failed.lock().expect("not poisoned");
            let mut batch_index: HashMap<RunKey, usize> = HashMap::new();
            for (i, spec) in specs.iter().enumerate() {
                let key = spec.key();
                if let Some(result) = memo.get(&key) {
                    self.deduped.fetch_add(1, Ordering::Relaxed);
                    answers[i] = Some(Ok(Answer::cached(result)));
                } else if let Some(cause) = failed.get(&key) {
                    answers[i] = Some(Err(cause.clone()));
                } else if let Some(&f) = batch_index.get(&key) {
                    self.deduped.fetch_add(1, Ordering::Relaxed);
                    if fresh[f].2.telemetry.is_none() {
                        fresh[f].2.telemetry = spec.telemetry;
                    }
                    twins.push((i, fresh[f].0));
                } else {
                    batch_index.insert(key.clone(), fresh.len());
                    fresh.push((i, key, spec.clone()));
                }
            }
        }
        // Persistent-store pass: anything already on disk skips the
        // worker pool entirely. (Telemetry-requesting specs always
        // simulate — see `attach_store`; perf mode never serves results.)
        let (mut run, mut run_at) = (Vec::new(), Vec::new());
        for (i, key, spec) in fresh {
            match self.load_from_store(&key, &spec) {
                Some(result) => answers[i] = Some(Ok(Answer::cached(&result))),
                None => {
                    run_at.push(i);
                    run.push((key, spec));
                }
            }
        }
        for (i, answer) in run_at.into_iter().zip(self.run_fresh(&run)) {
            answers[i] = Some(answer);
        }
        for (i, first) in twins {
            let shared = answers[first].clone().expect("first occurrence answered");
            answers[i] = Some(shared.map(|a| Answer { source: Source::Coalesced, ..a }));
        }
        answers.into_iter().map(|a| a.expect("every spec answered")).collect()
    }

    /// Runs specs that neither the memo nor the store holds on the worker
    /// pool, answering each in order.
    ///
    /// Replay planning: specs sharing a CTA-policy-independent key prefix
    /// form a group, and one execution record re-times all of them. A
    /// group with a record on hand replays at once; a group without one
    /// elects its first spec as the capture run and the rest replay from
    /// its record in a second wave. `Auto` skips capturing for a lone
    /// spec (nothing in the batch amortizes it); `Force` captures anyway
    /// so the record exists for later.
    fn run_fresh(&self, fresh: &[(RunKey, RunSpec)]) -> Vec<Result<Answer, String>> {
        let mut modes: Vec<Option<RunMode>> = vec![Some(RunMode::Direct); fresh.len()];
        let mut awaiting: Vec<Option<String>> = vec![None; fresh.len()];
        if self.replay != ReplayMode::Off {
            // Walked in key order, so records are looked up and loaded in
            // the same order every run.
            let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
            for (i, (_, spec)) in fresh.iter().enumerate() {
                groups
                    .entry(crate::codec::content_key_prefix(spec))
                    .or_default()
                    .push(i);
            }
            for (prefix, members) in groups {
                if let Some(rec) = self.lookup_record(&prefix, &fresh[members[0]].1) {
                    for &i in &members {
                        modes[i] = Some(RunMode::Replay(Arc::clone(&rec)));
                    }
                } else if members.len() > 1 || self.replay == ReplayMode::Force {
                    modes[members[0]] = Some(RunMode::Capture);
                    for &i in &members[1..] {
                        modes[i] = None;
                        awaiting[i] = Some(prefix.clone());
                    }
                }
            }
        }
        // Wave 1: everything not waiting on a capture — direct runs,
        // captures, and replays whose record already exists.
        let wave1 = modes.into_iter().enumerate().filter_map(|(i, m)| Some((i, m?)));
        let mut ran = self.run_wave(fresh, wave1.collect());
        // Wave 2: replays waiting on a wave-1 capture. A capture that
        // produced no record (a degenerate zero-CTA run, or a failed one)
        // falls back to direct execution.
        let wave2 = awaiting.into_iter().enumerate().filter_map(|(i, prefix)| {
            let rec = self.lookup_record(&prefix?, &fresh[i].1);
            Some((i, rec.map_or(RunMode::Direct, RunMode::Replay)))
        });
        ran.extend(self.run_wave(fresh, wave2.collect()));
        ran.sort_unstable_by_key(|(i, _)| *i);
        ran.into_iter().map(|(_, answer)| answer).collect()
    }

    /// Runs one wave of `fresh` specs on the worker pool, then adopts
    /// each captured record on the calling thread.
    fn run_wave(
        &self,
        fresh: &[(RunKey, RunSpec)],
        wave: Vec<(usize, RunMode)>,
    ) -> Vec<(usize, Result<Answer, String>)> {
        let jobs: Vec<_> = wave
            .into_iter()
            .map(|(i, mode)| {
                let (key, spec) = &fresh[i];
                move || (i, self.run_one(key, spec, mode))
            })
            .collect();
        let adopt = |(answer, record): (Answer, Option<ExecRecord>), spec: &RunSpec| {
            if let Some(rec) = record {
                self.adopt_record(crate::codec::content_key_prefix(spec), spec, rec);
            }
            answer
        };
        let ran = parallel_map(jobs, self.jobs).into_iter();
        ran.map(|(i, ran)| (i, ran.map(|r| adopt(r, &fresh[i].1)))).collect()
    }

    /// Runs one spec on the calling worker, persists its result, and
    /// profiles, memoizes and counts it; returns the captured record too.
    /// A run that panics keeps its cause under its key instead. The memo
    /// keeps the first result for a key, since callers may run batches
    /// concurrently.
    fn run_one(
        &self,
        key: &RunKey,
        spec: &RunSpec,
        mode: RunMode,
    ) -> Result<(Answer, Option<ExecRecord>), String> {
        let progress = self.progress.as_ref().and_then(|hook| {
            (hook.callback)(key, None);
            (hook.every_cycles > 0).then(|| {
                let (key, cb) = (key.clone(), Arc::clone(&hook.callback));
                let cb: ProgressCallback =
                    Arc::new(move |cycle, instr| cb(&key, Some((cycle, instr))));
                (hook.every_cycles, cb)
            })
        });
        let t0 = Instant::now();
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_spec(spec, mode, progress, self.reference_loop)
        }));
        let wall_nanos = t0.elapsed().as_nanos() as u64;
        let (result, record) = ran.map_err(|panic| {
            let payload = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("simulation panicked");
            // The elapsed time separates an instant config failure from a
            // deadlock detector tripping an hour in.
            let cause = format!("panicked after {:.2}s: {payload}", wall_nanos as f64 / 1e9);
            self.failed.lock().expect("not poisoned").insert(key.clone(), cause.clone());
            cause
        })?;
        self.save_to_store(spec, &result, wall_nanos);
        self.profiles.lock().expect("not poisoned").push(RunProfile {
            key: key.clone(),
            wall_nanos,
            cycles: result.stats.cycles,
            instructions: result.stats.instructions,
        });
        let (counter, source) = if result.via_replay {
            (&self.replayed, Source::Replayed)
        } else {
            (&self.executed, Source::Simulated)
        };
        let result = {
            let mut memo = self.memo.lock().expect("not poisoned");
            Arc::clone(memo.entry(key.clone()).or_insert_with(|| Arc::new(result)))
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok((Answer { source, wall_nanos, result }, record))
    }

    /// The memoized result for `spec`, or else the result of running it
    /// as a batch of one.
    ///
    /// A memo hit ignores `spec.telemetry` — to guarantee telemetry,
    /// include the traced spec in the planning batch.
    ///
    /// # Panics
    ///
    /// As [`RunEngine::execute_batch`].
    pub fn get(&self, spec: &RunSpec) -> Arc<RunResult> {
        let key = spec.key();
        let memoized = || self.memo.lock().expect("not poisoned").get(&key).cloned();
        if let Some(result) = memoized() {
            return result;
        }
        self.execute_batch(std::slice::from_ref(spec));
        memoized().expect("a successful batch memoizes its runs")
    }

    /// Number of runs that failed; each failed key runs once.
    pub(crate) fn runs_failed(&self) -> usize {
        self.failed.lock().expect("not poisoned").len()
    }

    /// Number of simulations actually executed.
    pub fn runs_executed(&self) -> usize {
        self.executed.load(Ordering::Relaxed)
    }

    /// Number of requested runs satisfied from the memo table instead of
    /// being re-simulated.
    pub fn runs_deduped(&self) -> usize {
        self.deduped.load(Ordering::Relaxed)
    }

    /// Number of requested runs satisfied from the persistent store.
    pub fn runs_from_store(&self) -> usize {
        self.store_hits.load(Ordering::Relaxed)
    }

    /// Number of requested runs satisfied by timing replay of a captured
    /// execution record.
    pub fn runs_replayed(&self) -> usize {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Worker-thread count this engine fans out over.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Per-run wall-clock profiles, one per executed simulation.
    pub fn profiles(&self) -> Vec<RunProfile> {
        self.profiles.lock().expect("not poisoned").clone()
    }

    /// The dedup/profiling roll-up of everything executed so far. Its
    /// totals equal the sums over [`profiles`](Self::profiles).
    pub fn summary(&self) -> EngineSummary {
        let profiles = self.profiles.lock().expect("not poisoned");
        EngineSummary {
            executed: self.runs_executed(),
            deduped: self.runs_deduped(),
            store_hits: self.runs_from_store(),
            replayed: self.runs_replayed(),
            jobs: self.jobs,
            wall_nanos: profiles.iter().map(|p| p.wall_nanos).sum(),
            sim_cycles: profiles.iter().map(|p| p.cycles).sum(),
            sim_instructions: profiles.iter().map(|p| p.instructions).sum(),
        }
    }
}

/// The suite workloads `spec` launches, in launch order.
fn spec_workloads(spec: &RunSpec) -> Vec<Box<dyn Workload>> {
    let names = match &spec.kind {
        RunKind::Single { workload } => vec![workload],
        RunKind::Pair { a, b, .. } => vec![a, b],
    };
    names
        .into_iter()
        .map(|name| {
            by_name(name, spec.scale).unwrap_or_else(|| panic!("unknown workload {name:?}"))
        })
        .collect()
}

/// The kernels `spec` launches, prepared as its run prepares them and in
/// launch order: what a record replaying `spec` must cover.
fn spec_kernels(spec: &RunSpec) -> Vec<KernelDescriptor> {
    let mut mem = GlobalMem::new();
    spec_workloads(spec).iter_mut().map(|w| w.prepare(&mut mem)).collect()
}

/// Runs one spec to completion under the given [`RunMode`], on the
/// reference loop when `reference_loop`, and (except for replay, which
/// never evaluates semantics) verifies it. Direct execution is exactly an
/// ad-hoc `run_launches` call on a fresh device, so results are
/// bit-identical to it; capture and replay are bit-identical to direct
/// execution (the golden replay suite's contract). Returns the captured
/// record when `mode` was [`RunMode::Capture`].
fn execute_spec(
    spec: &RunSpec,
    mode: RunMode,
    progress: Option<(u64, ProgressCallback)>,
    reference_loop: bool,
) -> (RunResult, Option<ExecRecord>) {
    let via_replay = matches!(mode, RunMode::Replay(_));
    let opts = RunOptions {
        serial: matches!(spec.kind, RunKind::Pair { serial: true, .. }),
        telemetry: spec.telemetry,
        mode,
        progress,
        reference_loop,
    };
    let mut workloads = spec_workloads(spec);
    let mut launches: Vec<_> =
        workloads.iter_mut().map(|w| w.as_mut() as &mut dyn Workload).collect();
    let factory = spec.warp.factory();
    let (mut gpu, kernels) = run_launches(
        &mut launches,
        spec.gpu.clone(),
        factory.as_ref(),
        spec.cta.scheduler(),
        spec.max_cycles,
        opts,
    )
    .unwrap_or_else(|e| {
        let what = match &spec.kind {
            RunKind::Single { workload } => workload.clone(),
            RunKind::Pair { a, b, .. } => format!("pair {a}+{b}"),
        };
        panic!("{what} under {}/{}: {e}", spec.warp, spec.cta)
    });
    // Capture LCS's decided limits so accuracy experiments can run
    // through the memo table too (sorted: the scheduler's map iterates in
    // arbitrary order). A pair records none.
    let lcs = gpu.cta_scheduler().as_any().and_then(|a| a.downcast_ref::<Lcs>());
    let lcs_limits = lcs.filter(|_| kernels.len() == 1).map(|lcs| {
        let mut v: Vec<u32> = lcs.decisions().map(|(_, limit)| *limit).collect();
        v.sort_unstable();
        v
    });
    let result = RunResult {
        stats: gpu.stats(),
        kernels,
        lcs_limits,
        telemetry: gpu.take_telemetry(),
        via_replay,
    };
    (result, gpu.take_record())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(h: &Harness) -> RunSpec {
        RunSpec::single(h, "vecadd", WarpPolicy::Gto, CtaPolicy::Baseline(None))
    }

    #[test]
    fn same_spec_twice_simulates_once() {
        let h = Harness::quick();
        let engine = RunEngine::new(2);
        engine.execute_batch(&[spec(&h), spec(&h)]);
        assert_eq!(engine.runs_executed(), 1);
        assert_eq!(engine.runs_deduped(), 1);

        // A later batch and a get() both hit the memo.
        engine.execute_batch(&[spec(&h)]);
        assert_eq!(engine.runs_executed(), 1);
        assert_eq!(engine.runs_deduped(), 2);
        let a = engine.get(&spec(&h));
        let b = engine.get(&spec(&h));
        assert_eq!(engine.runs_executed(), 1);
        assert_eq!(a.stats, b.stats);
        assert!(Arc::ptr_eq(&a, &b), "memo returns the same allocation");
    }

    #[test]
    fn failed_run_names_its_cause_and_never_runs_again() {
        let h = Harness::quick();
        let mut starved = spec(&h);
        starved.max_cycles = 1_000;
        let engine = RunEngine::new(2);
        let panic_of = |specs: &[RunSpec]| {
            let run = std::panic::AssertUnwindSafe(|| engine.execute_batch(specs));
            let panic = std::panic::catch_unwind(run).unwrap_err();
            panic.downcast_ref::<String>().cloned().expect("a formatted message")
        };
        let first = panic_of(&[starved.clone(), starved.clone()]);
        assert!(first.contains("exceeded the 1000-cycle budget"), "{first}");
        assert_eq!(panic_of(std::slice::from_ref(&starved)), first);
        assert_eq!(engine.runs_failed(), 1);
        assert_eq!(engine.runs_executed(), 0);
    }

    #[test]
    fn parallel_results_match_serial() {
        let h = Harness::quick();
        let serial = RunEngine::new(1);
        let parallel = RunEngine::new(4);
        let specs = [
            spec(&h),
            RunSpec::single(&h, "vecadd", WarpPolicy::Gto, CtaPolicy::Lcs(0.7)),
            RunSpec::single(&h, "saxpy", WarpPolicy::Lrr, CtaPolicy::Baseline(None)),
        ];
        serial.execute_batch(&specs);
        parallel.execute_batch(&specs);
        for s in &specs {
            assert_eq!(
                serial.get(s).stats,
                parallel.get(s).stats,
                "worker count must not change results ({:?})",
                s.key()
            );
        }
    }

    #[test]
    fn shared_baseline_dedups_across_experiments() {
        let h = Harness::quick();
        let engine = h.engine();
        // E7 and E9 both measure the gto/baseline reference point for
        // overlapping workloads; planning both through one engine must
        // simulate the shared specs once.
        let specs = crate::experiments::plan(&h, &["e7", "e9"]);
        let planned = specs.len();
        engine.execute_batch(&specs);
        assert!(
            engine.runs_deduped() > 0,
            "expected shared baseline specs across e7/e9"
        );
        assert_eq!(engine.runs_executed() + engine.runs_deduped(), planned);
        assert!(engine.runs_executed() < planned);
    }

    #[test]
    fn telemetry_is_excluded_from_the_key() {
        let h = Harness::quick();
        let plain = spec(&h);
        let traced = spec(&h).with_telemetry(TelemetryConfig::new(500));
        assert_eq!(plain.key(), traced.key());
    }

    #[test]
    fn traced_duplicate_upgrades_the_shared_run() {
        let h = Harness::quick();
        let engine = RunEngine::new(2);
        // Plain spec first, traced twin second: one simulation, and the
        // shared result must carry the telemetry.
        let traced = spec(&h).with_telemetry(TelemetryConfig::new(500));
        engine.execute_batch(&[spec(&h), traced.clone()]);
        assert_eq!(engine.runs_executed(), 1);
        assert_eq!(engine.runs_deduped(), 1);
        let r = engine.get(&spec(&h));
        let data = r.telemetry.as_ref().expect("traced variant must win");
        assert!(!data.samples.is_empty(), "run long enough to sample");
        assert!(!data.events.is_empty(), "at least launch/complete events");
    }

    #[test]
    fn untraced_run_carries_no_telemetry() {
        let h = Harness::quick();
        let engine = RunEngine::new(1);
        engine.execute_batch(&[spec(&h)]);
        assert!(engine.get(&spec(&h)).telemetry.is_none());
    }

    #[test]
    fn summary_totals_equal_profile_sums() {
        let h = Harness::quick();
        let engine = RunEngine::new(2);
        let specs = [
            spec(&h),
            RunSpec::single(&h, "saxpy", WarpPolicy::Gto, CtaPolicy::Baseline(None)),
            spec(&h), // duplicate
        ];
        engine.execute_batch(&specs);
        let profiles = engine.profiles();
        assert_eq!(profiles.len(), engine.runs_executed());
        let summary = engine.summary();
        assert_eq!(summary.executed, 2);
        assert_eq!(summary.deduped, 1);
        assert_eq!(summary.requested(), specs.len());
        assert_eq!(summary.jobs, 2);
        assert_eq!(
            summary.wall_nanos,
            profiles.iter().map(|p| p.wall_nanos).sum::<u64>()
        );
        assert_eq!(
            summary.sim_cycles,
            profiles.iter().map(|p| p.cycles).sum::<u64>()
        );
        assert_eq!(
            summary.sim_instructions,
            profiles.iter().map(|p| p.instructions).sum::<u64>()
        );
        assert!(summary.sim_cycles > 0);
        let json = summary.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"executed\":2"));
        assert!(json.contains("\"deduped\":1"));
    }

    #[test]
    fn replay_auto_captures_once_per_group_and_matches_direct() {
        let h = Harness::quick();
        let sweep = [
            CtaPolicy::Baseline(None),
            CtaPolicy::Lcs(0.7),
            CtaPolicy::Bcs(2),
            CtaPolicy::MixedCke(0.7),
        ];
        let specs: Vec<RunSpec> = sweep
            .iter()
            .map(|cta| RunSpec::single(&h, "vecadd", WarpPolicy::Gto, cta.clone()))
            .collect();

        let direct = RunEngine::new(2);
        direct.execute_batch(&specs);

        let mut replaying = RunEngine::new(2);
        replaying.set_replay_mode(ReplayMode::Auto);
        replaying.execute_batch(&specs);
        assert_eq!(replaying.runs_executed(), 1, "one capture per group");
        assert_eq!(replaying.runs_replayed(), sweep.len() - 1);
        for spec in &specs {
            let d = direct.get(spec);
            let r = replaying.get(spec);
            assert_eq!(d.stats, r.stats, "replay diverged for {}", spec.cta);
            assert_eq!(d.lcs_limits, r.lcs_limits);
        }
        // The capture's own result is direct; the rest are replays.
        assert!(!replaying.get(&specs[0]).via_replay);
        let summary = replaying.summary();
        assert_eq!(summary.replayed, sweep.len() - 1);
        assert_eq!(summary.requested(), sweep.len());
        assert!(summary.to_json().contains(&format!("\"replayed\":{}", sweep.len() - 1)));
    }

    #[test]
    fn replay_auto_leaves_lone_specs_direct_but_force_captures() {
        let h = Harness::quick();
        let mut auto = RunEngine::new(1);
        auto.set_replay_mode(ReplayMode::Auto);
        auto.execute_batch(&[spec(&h)]);
        assert_eq!(auto.runs_executed(), 1);
        assert_eq!(auto.runs_replayed(), 0);
        // Auto captured nothing, so a later sibling spec has no record
        // in memory... but a Force engine always captures.
        let mut force = RunEngine::new(1);
        force.set_replay_mode(ReplayMode::Force);
        force.execute_batch(&[spec(&h)]);
        assert_eq!(force.runs_executed(), 1);
        // The lone run captured a record: a sibling policy now replays.
        let sibling = RunSpec::single(&h, "vecadd", WarpPolicy::Gto, CtaPolicy::Lcs(0.7));
        let r = force.get(&sibling);
        assert!(r.via_replay, "get() must replay from the captured record");
        assert_eq!(force.runs_replayed(), 1);
        let d = RunEngine::new(1);
        assert_eq!(d.get(&sibling).stats, r.stats);

        // `get` runs a memo miss through the batch's own per-spec path: in
        // every replay mode, with and without a store, the same specs
        // reached only through `get` or only through `execute_batch` give
        // equal results, counters and stored file names.
        for mode in [ReplayMode::Off, ReplayMode::Auto, ReplayMode::Force] {
            for with_store in [false, true] {
                let run = |via_get: bool| {
                    let dir = gpgpu_testkit::TempDir::new("get-vs-batch");
                    let mut e = RunEngine::new(1);
                    e.set_replay_mode(mode);
                    if with_store {
                        let store = crate::store::ResultStore::open(dir.path()).unwrap();
                        e.attach_store(Arc::new(store));
                    }
                    let mut results = Vec::new();
                    for s in [spec(&h), sibling.clone()] {
                        if !via_get {
                            e.execute_batch(std::slice::from_ref(&s));
                        }
                        results.push((*e.get(&s)).clone());
                    }
                    let t = e.summary();
                    let counters = (t.executed, t.deduped, t.store_hits, t.replayed, t.sim_cycles);
                    (results, counters, file_names(dir.path()))
                };
                let (via_get, via_batch) = (run(true), run(false));
                assert_eq!(via_get, via_batch, "replay {mode}, store {with_store}");
                assert_eq!(via_get.2.is_empty(), !with_store);
            }
        }
    }

    /// Every file under `dir`, as sorted paths relative to it.
    fn file_names(dir: &std::path::Path) -> Vec<String> {
        let (mut names, mut dirs) = (Vec::new(), vec![dir.to_path_buf()]);
        while let Some(d) = dirs.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                } else {
                    names.push(path.strip_prefix(dir).unwrap().display().to_string());
                }
            }
        }
        names.sort();
        names
    }

    #[test]
    fn replay_records_persist_through_the_store() {
        let h = Harness::quick();
        let dir = std::env::temp_dir().join(format!("replay-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(crate::store::ResultStore::open(&dir).unwrap());

        let mut first = RunEngine::new(1);
        first.attach_store(Arc::clone(&store));
        first.set_replay_mode(ReplayMode::Force);
        first.execute_batch(&[spec(&h)]);
        assert_eq!(first.runs_executed(), 1);

        // A second engine sharing the store replays a *different* CTA
        // policy from the persisted record without executing anything.
        let sibling = RunSpec::single(&h, "vecadd", WarpPolicy::Gto, CtaPolicy::Bcs(2));
        let mut second = RunEngine::new(1);
        second.attach_store(Arc::clone(&store));
        second.set_replay_mode(ReplayMode::Auto);
        let r = second.get(&sibling);
        assert!(r.via_replay);
        assert_eq!(second.runs_executed(), 0);
        assert_eq!(second.runs_replayed(), 1);
        assert_eq!(RunEngine::new(1).get(&sibling).stats, r.stats);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn perf_mode_refuses_cached_results_but_replays() {
        let h = Harness::quick();
        let dir = std::env::temp_dir().join(format!("perf-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(crate::store::ResultStore::open(&dir).unwrap());

        // Warm the store with a result AND a record.
        let mut warm = RunEngine::new(1);
        warm.attach_store(Arc::clone(&store));
        warm.set_replay_mode(ReplayMode::Force);
        warm.execute_batch(&[spec(&h)]);

        // Perf engine: cached results must NOT satisfy the run...
        let mut perf = RunEngine::new(1);
        perf.attach_store(Arc::clone(&store));
        perf.set_use_cached_results(false);
        perf.execute_batch(&[spec(&h)]);
        assert_eq!(perf.runs_from_store(), 0, "perf must not serve results from cache");
        assert_eq!(perf.runs_executed(), 1);

        // ...but with replay on, the stored *record* may drive the run.
        let mut perf_replay = RunEngine::new(1);
        perf_replay.attach_store(Arc::clone(&store));
        perf_replay.set_use_cached_results(false);
        perf_replay.set_replay_mode(ReplayMode::Auto);
        perf_replay.execute_batch(&[spec(&h)]);
        assert_eq!(perf_replay.runs_from_store(), 0);
        assert_eq!(perf_replay.runs_executed(), 0);
        assert_eq!(perf_replay.runs_replayed(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replayed_runs_serve_telemetry_requests() {
        let h = Harness::quick();
        let mut engine = RunEngine::new(2);
        engine.set_replay_mode(ReplayMode::Auto);
        let traced = RunSpec::single(&h, "vecadd", WarpPolicy::Gto, CtaPolicy::Lcs(0.7))
            .with_telemetry(TelemetryConfig::new(500));
        engine.execute_batch(&[spec(&h), traced.clone()]);
        assert_eq!(engine.runs_executed() + engine.runs_replayed(), 2);
        assert_eq!(engine.runs_replayed(), 1);
        let r = engine.get(&traced);
        let data = r.telemetry.as_ref().expect("replay honors telemetry requests");
        assert!(!data.samples.is_empty());
        // Replayed telemetry is byte-identical to direct telemetry.
        let d = RunEngine::new(1).get(&traced);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        data.write_events_jsonl(&mut a).unwrap();
        d.telemetry.as_ref().unwrap().write_events_jsonl(&mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn replay_mode_parses_and_displays() {
        for (s, m) in [
            ("auto", ReplayMode::Auto),
            ("off", ReplayMode::Off),
            ("force", ReplayMode::Force),
        ] {
            assert_eq!(s.parse::<ReplayMode>().unwrap(), m);
            assert_eq!(m.to_string(), s);
        }
        assert!("sometimes".parse::<ReplayMode>().is_err());
    }

    #[test]
    fn key_separates_configs() {
        let h = Harness::quick();
        let base = spec(&h);
        let mut other_gpu = h.gpu.clone();
        other_gpu.l1.size_bytes *= 2;
        let resized = RunSpec::single_cfg(
            &h,
            other_gpu,
            "vecadd",
            WarpPolicy::Gto,
            CtaPolicy::Baseline(None),
        );
        assert_eq!(base.key(), spec(&h).key());
        assert_ne!(base.key(), resized.key());
        assert_ne!(
            base.key(),
            RunSpec::single(&h, "vecadd", WarpPolicy::Gto, CtaPolicy::Lcs(0.7)).key()
        );
    }
}
