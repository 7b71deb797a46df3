//! One-call helpers to run a workload on a device with given policies.

use crate::common::{VerifyError, Workload};
use gpgpu_sim::{
    CtaScheduler, ExecRecord, GpuConfig, GpuDevice, KernelId, MemorySink, SimError, SimStats,
    TelemetryConfig, TelemetryData, WarpSchedulerFactory,
};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// How a run executes its functional side (see `gpgpu_sim::record`).
#[derive(Debug, Clone, Default)]
pub enum RunMode {
    /// Plain execution: evaluate semantics, verify outputs.
    #[default]
    Direct,
    /// Direct execution that also captures an [`ExecRecord`]; outputs
    /// are byte-identical to [`RunMode::Direct`].
    Capture,
    /// Timing replay from a captured record: semantics are never
    /// evaluated and memory data is never touched, so output
    /// verification is skipped — the record's `mem_hash` stands in for
    /// the final memory contents.
    Replay(Arc<ExecRecord>),
}

/// Default cycle budget for harness runs.
pub const DEFAULT_MAX_CYCLES: u64 = 200_000_000;

/// Why a workload run failed.
#[derive(Debug)]
pub enum RunError {
    /// The simulator aborted.
    Sim(SimError),
    /// The kernel ran but produced wrong output.
    Verify(VerifyError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "simulation failed: {e}"),
            RunError::Verify(e) => write!(f, "{e}"),
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Sim(e) => Some(e),
            RunError::Verify(e) => Some(e),
        }
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

impl From<VerifyError> for RunError {
    fn from(e: VerifyError) -> Self {
        RunError::Verify(e)
    }
}

/// The result of a completed, verified run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Full simulator statistics.
    pub stats: SimStats,
    /// Id of the workload's kernel.
    pub kernel: KernelId,
}

impl RunOutcome {
    /// The workload kernel's IPC.
    pub fn ipc(&self) -> f64 {
        self.stats
            .kernel(self.kernel)
            .map(|k| k.ipc())
            .unwrap_or(0.0)
    }

    /// The workload kernel's execution cycles.
    pub fn cycles(&self) -> u64 {
        self.stats
            .kernel(self.kernel)
            .map(|k| k.cycles())
            .unwrap_or(0)
    }
}

/// Runs `workload` to completion on a fresh device and verifies its
/// output.
///
/// # Errors
///
/// Returns [`RunError::Sim`] if the simulation deadlocks or exceeds
/// `max_cycles`, or [`RunError::Verify`] if the output is wrong.
pub fn run_workload(
    workload: &mut dyn Workload,
    cfg: GpuConfig,
    warp: &dyn WarpSchedulerFactory,
    cta: Box<dyn CtaScheduler>,
    max_cycles: u64,
) -> Result<RunOutcome, RunError> {
    run_workload_mode(workload, cfg, warp, cta, max_cycles, None, RunMode::Direct)
        .map(|(outcome, ..)| outcome)
}

/// A fresh device set up for `mode`, with in-memory telemetry when
/// `telemetry` is given.
fn device(
    cfg: GpuConfig,
    warp: &dyn WarpSchedulerFactory,
    cta: Box<dyn CtaScheduler>,
    telemetry: Option<TelemetryConfig>,
    mode: &RunMode,
) -> GpuDevice {
    let mut gpu = GpuDevice::new(cfg, warp, cta);
    match mode {
        RunMode::Direct => {}
        RunMode::Capture => gpu.set_capture(true),
        RunMode::Replay(rec) => gpu.set_replay(Arc::clone(rec)),
    }
    if let Some(t) = telemetry {
        gpu.enable_telemetry(t, Box::new(MemorySink::new()));
    }
    gpu
}

/// As [`run_workload`], parameterized over [`RunMode`] and optional
/// telemetry. Returns the outcome, the device (for post-run inspection of
/// memory contents, or scheduler state via [`CtaScheduler::as_any`]), the
/// telemetry data (when `telemetry` was given), and the captured record
/// (when `mode` was [`RunMode::Capture`]).
///
/// # Errors
///
/// As [`run_workload`] (telemetry from a failed run is discarded); replay
/// runs skip output verification.
pub fn run_workload_mode(
    workload: &mut dyn Workload,
    cfg: GpuConfig,
    warp: &dyn WarpSchedulerFactory,
    cta: Box<dyn CtaScheduler>,
    max_cycles: u64,
    telemetry: Option<TelemetryConfig>,
    mode: RunMode,
) -> Result<(RunOutcome, GpuDevice, Option<TelemetryData>, Option<ExecRecord>), RunError> {
    let mut gpu = device(cfg, warp, cta, telemetry, &mode);
    let desc = workload.prepare(gpu.mem());
    let kernel = gpu.launch(desc);
    gpu.run(max_cycles)?;
    if !matches!(mode, RunMode::Replay(_)) {
        workload.verify(gpu.mem_ref())?;
    }
    let outcome = RunOutcome {
        stats: gpu.stats(),
        kernel,
    };
    let data = gpu.take_telemetry_data();
    let record = gpu.take_record();
    Ok((outcome, gpu, data, record))
}

/// Runs two workloads on one device — both launched at cycle 0, or `b`
/// after `a` when `serial` — and verifies both, parameterized over
/// [`RunMode`] and optional telemetry (see [`run_workload_mode`]).
///
/// # Errors
///
/// As [`run_workload`]; replay runs skip output verification.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
pub fn run_pair_mode(
    a: &mut dyn Workload,
    b: &mut dyn Workload,
    cfg: GpuConfig,
    warp: &dyn WarpSchedulerFactory,
    cta: Box<dyn CtaScheduler>,
    serial: bool,
    max_cycles: u64,
    telemetry: Option<TelemetryConfig>,
    mode: RunMode,
) -> Result<(SimStats, KernelId, KernelId, Option<TelemetryData>, Option<ExecRecord>), RunError> {
    let mut gpu = device(cfg, warp, cta, telemetry, &mode);
    let desc_a = a.prepare(gpu.mem());
    let desc_b = b.prepare(gpu.mem());
    let ka = gpu.launch(desc_a);
    let kb = if serial {
        gpu.launch_after(desc_b, ka)
    } else {
        gpu.launch(desc_b)
    };
    gpu.run(max_cycles)?;
    if !matches!(mode, RunMode::Replay(_)) {
        a.verify(gpu.mem_ref())?;
        b.verify(gpu.mem_ref())?;
    }
    let data = gpu.take_telemetry_data();
    let record = gpu.take_record();
    Ok((gpu.stats(), ka, kb, data, record))
}
