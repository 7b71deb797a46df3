//! Helpers to run workloads on a fresh device with given policies.

use crate::common::{VerifyError, Workload};
use gpgpu_sim::{
    CtaScheduler, ExecRecord, GpuConfig, GpuDevice, KernelId, ProgressCallback, SimError,
    SimStats, TelemetryConfig, WarpSchedulerFactory,
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

impl RunMode {
    /// Sets `gpu` up to run in this mode.
    pub fn configure(&self, gpu: &mut GpuDevice) {
        match self {
            RunMode::Direct => {}
            RunMode::Capture => gpu.set_capture(true),
            RunMode::Replay(rec) => gpu.set_replay(Arc::clone(rec)),
        }
    }
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
    let (gpu, kernels) =
        run_launches(&mut [workload], cfg, warp, cta, max_cycles, RunOptions::default())?;
    Ok(RunOutcome {
        stats: gpu.stats(),
        kernel: kernels[0],
    })
}

/// How [`run_launches`] sets up its device beyond the config, the
/// policies and the cycle budget. The default is a direct run on the fast
/// path with every workload launched at cycle 0, no telemetry and no
/// observer.
#[derive(Clone, Default)]
pub struct RunOptions {
    /// Run the reference cycle-by-cycle loop instead of the fast path
    /// (see [`GpuDevice::set_fast_forward`]); results are bit-identical.
    pub reference_loop: bool,
    /// Launch each workload only after the previous one completes (the
    /// serial-execution regime) instead of all at cycle 0.
    pub serial: bool,
    /// Collect in-memory telemetry (see [`GpuDevice::take_telemetry`]).
    pub telemetry: Option<TelemetryConfig>,
    /// Direct execution, record capture (see [`GpuDevice::take_record`]),
    /// or timing replay.
    pub mode: RunMode,
    /// A progress observer and its period in cycles (see
    /// [`GpuDevice::set_progress`]).
    pub progress: Option<(u64, ProgressCallback)>,
}

/// Runs `workloads` on one fresh device, prepared and launched in order,
/// and verifies each output. Returns the device, for its statistics,
/// memory, telemetry, record, or scheduler state (via
/// [`CtaScheduler::as_any`]), and the kernel ids in launch order.
///
/// # Errors
///
/// As [`run_workload`]; replay runs skip output verification.
pub fn run_launches(
    workloads: &mut [&mut dyn Workload],
    cfg: GpuConfig,
    warp: &dyn WarpSchedulerFactory,
    cta: Box<dyn CtaScheduler>,
    max_cycles: u64,
    opts: RunOptions,
) -> Result<(GpuDevice, Vec<KernelId>), RunError> {
    let mut gpu = GpuDevice::new(cfg, warp, cta);
    gpu.set_fast_forward(!opts.reference_loop);
    opts.mode.configure(&mut gpu);
    if let Some(t) = opts.telemetry {
        gpu.enable_telemetry(t);
    }
    if let Some((every, cb)) = opts.progress {
        gpu.set_progress(every, cb);
    }
    let descs: Vec<_> = workloads.iter_mut().map(|w| w.prepare(gpu.mem())).collect();
    let mut kernels: Vec<KernelId> = Vec::with_capacity(descs.len());
    for desc in descs {
        let kernel = match kernels.last() {
            Some(&prev) if opts.serial => gpu.launch_after(desc, prev),
            _ => gpu.launch(desc),
        };
        kernels.push(kernel);
    }
    gpu.run(max_cycles)?;
    if !matches!(opts.mode, RunMode::Replay(_)) {
        for w in workloads.iter() {
            w.verify(gpu.mem_ref())?;
        }
    }
    Ok((gpu, kernels))
}
