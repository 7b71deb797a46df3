//! A cycle-level SIMT GPU simulator, built from scratch for the HPCA'14
//! reproduction "Improving GPGPU resource utilization through alternative
//! thread block scheduling".
//!
//! The simulated machine is a Fermi GTX480-class GPU (the paper's
//! GPGPU-Sim configuration): 15 SMs with 48-warp/8-CTA occupancy limits,
//! per-SM L1 data caches with MSHRs, a crossbar to 6 memory partitions,
//! each with an L2 slice and a banked FR-FCFS DRAM channel (from
//! `gpgpu-mem`). Kernels are written in the `gpgpu-isa` mini-ISA and run
//! *functionally* — outputs are real and verifiable — while timing is
//! modeled cycle by cycle.
//!
//! Scheduling is pluggable: the paper's policies (and their baselines)
//! implement [`WarpScheduler`]/[`CtaScheduler`] from the `tbs-core` crate.
//!
//! # Example
//!
//! ```no_run
//! use gpgpu_sim::{GpuConfig, GpuDevice};
//! # fn policies() -> (Box<dyn gpgpu_sim::WarpSchedulerFactory>, Box<dyn gpgpu_sim::CtaScheduler>) { unimplemented!() }
//! # fn kernel() -> gpgpu_isa::KernelDescriptor { unimplemented!() }
//! let (warp_sched, cta_sched) = policies(); // e.g. tbs_core::gto() + baseline RR
//! let mut gpu = GpuDevice::new(GpuConfig::fermi(), warp_sched.as_ref(), cta_sched);
//! let k = gpu.launch(kernel());
//! gpu.run(10_000_000).expect("kernel completes");
//! println!("IPC = {:.2}", gpu.stats().kernel(k).unwrap().ipc());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coalesce;
mod config;
pub mod core_model;
pub mod counters;
pub mod decode;
mod device;
pub mod invariants;
pub mod json;
mod memory;
pub mod record;
pub mod sched_api;
pub mod simt;
mod stats;
pub mod telemetry;

pub use config::{GpuConfig, GPU_KNOBS, MAX_WARP_SLOTS};
pub use core_model::{Core, CoreCtaCompletion};
pub use counters::{
    ratio, CoreStats, Counter, Sample, StallBreakdown, COUNTERS, STALL_CATEGORIES, STALL_LABELS,
};
pub use device::{set_sim_threads_default, GpuDevice, ProgressCallback, SimError};
pub use invariants::{assert_conservation, conservation_violations};
pub use memory::{GlobalMem, SharedMem};
pub use record::{CtaRecord, ExecRecord, KernelRecord, TraceStep, WarpTrace};
pub use sched_api::{
    ready_mask, ready_slots, CoreDispatchInfo, CtaCompleteEvent, CtaIssueSample, CtaScheduler,
    Dispatch, DispatchView, IssueView, KernelId, KernelSummary, WarpMeta, WarpScheduler,
    WarpSchedulerFactory,
};
pub use simt::{LaneMask, SimtStack, FULL_MASK};
pub use stats::{KernelStats, SimStats};
pub use telemetry::{IntervalSample, PolicyDecision, TelemetryConfig, TelemetryData, TraceEvent};

// Re-export commonly paired items so downstream crates need fewer
// direct dependencies.
pub use gpgpu_mem::Cycle;
