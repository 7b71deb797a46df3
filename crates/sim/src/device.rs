//! The whole-GPU device: kernel queue, CTA dispatch, the per-cycle main
//! loop, and statistics collection.

use crate::config::GpuConfig;
use crate::core_model::Core;
use crate::decode::DecodedKernel;
use crate::memory::GlobalMem;
use crate::record::{CtaRecord, ExecRecord, KernelRecord, WarpTrace};
use crate::sched_api::{
    CoreDispatchInfo, CtaCompleteEvent, CtaScheduler, DispatchView, KernelId, KernelSummary,
    WarpSchedulerFactory,
};
use crate::stats::{KernelStats, SimStats};
use crate::telemetry::{Telemetry, TelemetryConfig, TelemetryData, TraceEvent};
use gpgpu_isa::KernelDescriptor;
use gpgpu_mem::{Cycle, MemFabric};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Source-compatibility stub: a simulation always steps its cores on the
/// calling thread, so `1` is the only valid thread count and setting it
/// has no effect.
///
/// # Panics
///
/// Panics if `n != 1`.
pub fn set_sim_threads_default(n: usize) {
    assert_eq!(
        n, 1,
        "cores are stepped sequentially; only 1 simulation thread exists"
    );
}

/// Observer invoked periodically from the main loop with
/// `(current_cycle, instructions_issued_so_far)`. Purely observational:
/// simulation outputs are byte-identical with or without a hook attached.
pub type ProgressCallback = Arc<dyn Fn(u64, u64) + Send + Sync>;

/// Periodic progress observer (see [`GpuDevice::set_progress`]).
struct ProgressMeter {
    every: u64,
    next: Cycle,
    cb: ProgressCallback,
}

/// Why a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The cycle budget ran out before all kernels completed.
    MaxCyclesExceeded {
        /// The budget that was exceeded.
        limit: u64,
    },
    /// No forward progress (no issue, no memory activity) for the
    /// configured deadlock window — almost always a malformed kernel or a
    /// scheduling-policy bug.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        at: Cycle,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MaxCyclesExceeded { limit } => {
                write!(f, "simulation exceeded the {limit}-cycle budget")
            }
            SimError::Deadlock { at } => write!(f, "no forward progress; deadlock at cycle {at}"),
        }
    }
}

impl Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelPhase {
    /// Waiting on a dependency.
    Pending,
    /// Dispatchable (CTAs may still be undispatched or in flight).
    Running,
    /// All CTAs retired.
    Done,
}

#[derive(Debug)]
struct KernelState {
    /// The descriptor with its program decoded for the issue stage, once
    /// per launch.
    code: Arc<DecodedKernel>,
    after: Option<KernelId>,
    phase: KernelPhase,
    next_cta: u64,
    completed_ctas: u64,
    start_cycle: Cycle,
    end_cycle: Cycle,
}

/// The simulated GPU.
///
/// Typical use:
///
/// 1. Construct with [`GpuDevice::new`] (a [`GpuConfig`], a warp-scheduler
///    factory, and a CTA scheduler — the policies live in `tbs-core`).
/// 2. Set up device memory through [`mem`](Self::mem) / [`alloc`](Self::alloc).
/// 3. [`launch`](Self::launch) one or more kernels (optionally ordered with
///    [`launch_after`](Self::launch_after)).
/// 4. [`run`](Self::run) to completion and inspect [`stats`](Self::stats)
///    and memory.
pub struct GpuDevice {
    cfg: Arc<GpuConfig>,
    cores: Vec<Core>,
    fabric: MemFabric,
    gmem: GlobalMem,
    kernels: Vec<KernelState>,
    cta_sched: Option<Box<dyn CtaScheduler>>,
    now: Cycle,
    age_counter: u64,
    last_progress: Cycle,
    /// Kernels still in [`KernelPhase::Pending`]; lets the per-cycle
    /// activation scan short-circuit to a counter check.
    pending_kernels: usize,
    /// Whether the CTA scheduler must be consulted this cycle. Set on
    /// kernel activation, CTA completion, and any dispatch-round outcome
    /// that could change later (a successful dispatch, a no-fit stop, a
    /// malformed decision); cleared when the dispatch loop runs. A policy
    /// that declines with unchanged device state is not re-asked, which is
    /// behavior-preserving for any policy whose `select` mutates state
    /// only when it returns a decision.
    dispatch_dirty: bool,
    /// Malformed scheduler decisions discarded (see
    /// [`SimStats::malformed_dispatches`]).
    malformed_dispatches: u64,
    /// Core sleep and idle fast-forward enabled (see
    /// [`set_fast_forward`](Self::set_fast_forward)).
    fast_forward: bool,
    /// Attached telemetry; `None` (the default) keeps every hook a single
    /// branch on the fast path.
    telemetry: Option<Telemetry>,
    /// Periodic progress observer (see [`set_progress`](Self::set_progress));
    /// `None` keeps the main loop's cost to one branch.
    progress: Option<ProgressMeter>,
}

impl fmt::Debug for GpuDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GpuDevice")
            .field("now", &self.now)
            .field("kernels", &self.kernels.len())
            .field("cores", &self.cores.len())
            .finish_non_exhaustive()
    }
}

impl GpuDevice {
    /// Builds a device.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`GpuConfig::validate`].
    pub fn new(
        cfg: GpuConfig,
        warp_sched: &dyn WarpSchedulerFactory,
        cta_sched: Box<dyn CtaScheduler>,
    ) -> Self {
        cfg.validate();
        let cfg = Arc::new(cfg);
        let cores = (0..cfg.num_cores)
            .map(|i| Core::new(i, Arc::clone(&cfg), warp_sched))
            .collect();
        let fabric = MemFabric::new(cfg.fabric.clone());
        GpuDevice {
            cores,
            fabric,
            gmem: GlobalMem::new(),
            kernels: Vec::new(),
            cta_sched: Some(cta_sched),
            now: 0,
            age_counter: 0,
            last_progress: 0,
            pending_kernels: 0,
            dispatch_dirty: false,
            malformed_dispatches: 0,
            fast_forward: true,
            telemetry: None,
            progress: None,
            cfg,
        }
    }

    /// Attaches a progress observer: every `every` cycles (clamped to at
    /// least 1) from now, [`run`](Self::run) passes `cb` the current cycle
    /// and the instructions issued so far.
    pub fn set_progress(&mut self, every: u64, cb: ProgressCallback) {
        let every = every.max(1);
        self.progress = Some(ProgressMeter {
            every,
            next: self.now.saturating_add(every),
            cb,
        });
    }

    /// Source-compatibility stub: [`run`](Self::run) always steps the
    /// cores on the calling thread, so `1` is the only valid thread count
    /// and setting it has no effect.
    ///
    /// # Panics
    ///
    /// Panics if `n != 1`.
    pub fn set_sim_threads(&mut self, n: usize) {
        set_sim_threads_default(n);
    }

    /// Enables or disables the fast path for this device. When enabled
    /// (the default), [`run`](Self::run) skips the cycles of cores that
    /// can only repeat their last cycle (they sleep) and jumps over spans
    /// where every core sleeps, and memory retries that must fail again
    /// are booked rather than re-run: a blocked LSQ head's L1 access, a
    /// stalled L2 request, an issue stage with nothing new to see.
    /// Statistics, per-kernel results, and telemetry are bit-identical
    /// either way. Disabling forces the reference cycle-by-cycle loop,
    /// which re-runs every retry (validation and debugging).
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
        for core in &mut self.cores {
            core.set_fast_path(enabled);
        }
        self.fabric.set_fast_path(enabled);
    }

    /// Turns execution-record capture on or off (see [`crate::record`]).
    /// Capture is observation-only: timing, statistics, memory, and
    /// telemetry are byte-identical to a plain run. Toggle before
    /// launching kernels; collect the record with
    /// [`take_record`](Self::take_record) after [`run`](Self::run).
    pub fn set_capture(&mut self, on: bool) {
        for c in &mut self.cores {
            c.set_capture(on);
        }
    }

    /// Switches the device into timing-replay mode, driven by `record`
    /// (see [`crate::record`]). Kernels must be launched in the same
    /// order as the capture run; the CTA and warp policies may differ.
    /// In replay, global memory is
    /// never read or written by kernels, so workload output verification
    /// must be skipped — the record's
    /// [`mem_hash`](ExecRecord::mem_hash) stands in for the final memory
    /// contents. Install before launching kernels.
    pub fn set_replay(&mut self, record: Arc<ExecRecord>) {
        for c in &mut self.cores {
            c.set_replay(Some(Arc::clone(&record)));
        }
    }

    /// Collects the execution record of a finished capture run: every
    /// warp's issued-instruction trace, assembled across cores into
    /// launch-order kernel records, plus the final memory content hash.
    /// Returns `None` unless capture was enabled and all kernels ran to
    /// completion (a partial record must never be replayed).
    pub fn take_record(&mut self) -> Option<ExecRecord> {
        if !self.all_done() {
            return None;
        }
        let mut kernels: Vec<KernelRecord> = self
            .kernels
            .iter()
            .map(|k| {
                let grid = k.code.desc().grid();
                let ctas = u64::from(grid.x) * u64::from(grid.y);
                let warps = k.code.desc().warps_per_cta() as usize;
                KernelRecord {
                    ctas: (0..ctas)
                        .map(|_| CtaRecord {
                            warps: vec![WarpTrace::default(); warps],
                        })
                        .collect(),
                }
            })
            .collect();
        let mut any = false;
        for c in &mut self.cores {
            for cw in c.take_captured() {
                any = true;
                kernels[cw.kernel].ctas[cw.cta_id as usize].warps[cw.warp_in_cta as usize] =
                    cw.trace;
            }
        }
        if !any {
            return None;
        }
        Some(ExecRecord {
            kernels,
            mem_hash: self.gmem.content_hash(),
        })
    }

    /// Attaches telemetry: interval samples and trace events are
    /// collected from now on. Also enables policy-decision tracing on the
    /// CTA scheduler.
    ///
    /// Attaching at any cycle is allowed: the first interval starts at the
    /// current cycle and the sampler's delta baseline is the current
    /// counter values, so the samples cover exactly what runs afterwards.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        if let Some(cs) = self.cta_sched.as_mut() {
            cs.set_trace_enabled(true);
        }
        self.settle_cores();
        self.telemetry = Some(Telemetry::new(cfg, self.now, &self.cores, &self.fabric));
    }

    /// Detaches telemetry, emitting the final (possibly partial) interval
    /// sample, and returns everything it collected. Returns `None` if
    /// telemetry was never attached.
    pub fn take_telemetry(&mut self) -> Option<TelemetryData> {
        let mut t = self.telemetry.take()?;
        t.final_sample(
            self.now,
            &self.cores,
            &self.fabric,
            self.gmem.resident_pages(),
        );
        if let Some(cs) = self.cta_sched.as_mut() {
            for d in cs.take_trace_events() {
                t.record(TraceEvent::Policy {
                    cycle: self.now,
                    core: d.core,
                    kernel: d.kernel,
                    action: d.action.to_string(),
                    value: d.value,
                });
            }
            cs.set_trace_enabled(false);
        }
        Some(t.into_data())
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The CTA scheduler, for post-run inspection (see
    /// [`CtaScheduler::as_any`]).
    pub fn cta_scheduler(&self) -> &dyn CtaScheduler {
        self.cta_sched.as_deref().expect("scheduler present")
    }

    /// Functional global memory (setup and verification).
    pub fn mem(&mut self) -> &mut GlobalMem {
        &mut self.gmem
    }

    /// Read-only functional global memory.
    pub fn mem_ref(&self) -> &GlobalMem {
        &self.gmem
    }

    /// Reserves device address space.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        self.gmem.alloc(bytes)
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Enqueues a kernel with no ordering dependency (it becomes
    /// dispatchable immediately — concurrent with anything else running).
    pub fn launch(&mut self, desc: KernelDescriptor) -> KernelId {
        self.launch_inner(desc, None)
    }

    /// Enqueues a kernel that becomes dispatchable only after `after`
    /// completes (serial execution).
    pub fn launch_after(&mut self, desc: KernelDescriptor, after: KernelId) -> KernelId {
        self.launch_inner(desc, Some(after))
    }

    fn launch_inner(&mut self, desc: KernelDescriptor, after: Option<KernelId>) -> KernelId {
        let id = KernelId(self.kernels.len());
        let code = Arc::new(DecodedKernel::new(Arc::new(desc), &self.cfg));
        self.pending_kernels += 1;
        self.kernels.push(KernelState {
            code,
            after,
            phase: KernelPhase::Pending,
            next_cta: 0,
            completed_ctas: 0,
            start_cycle: 0,
            end_cycle: 0,
        });
        id
    }

    /// Whether every launched kernel has completed.
    pub fn all_done(&self) -> bool {
        self.kernels.iter().all(|k| k.phase == KernelPhase::Done)
    }

    fn activate_pending(&mut self) {
        if self.pending_kernels == 0 {
            return;
        }
        for i in 0..self.kernels.len() {
            if self.kernels[i].phase != KernelPhase::Pending {
                continue;
            }
            let ready = match self.kernels[i].after {
                None => true,
                Some(dep) => self.kernels[dep.0].phase == KernelPhase::Done,
            };
            if !ready {
                continue;
            }
            self.kernels[i].phase = KernelPhase::Running;
            self.kernels[i].start_cycle = self.now;
            self.pending_kernels -= 1;
            self.dispatch_dirty = true;
            let any_other_running = self
                .kernels
                .iter()
                .enumerate()
                .any(|(j, k)| j != i && k.phase == KernelPhase::Running);
            if self.cfg.flush_l1_on_kernel_launch && !any_other_running {
                for core in &mut self.cores {
                    core.wake(self.now);
                    core.flush_l1();
                }
                self.fabric.flush_l2();
            }
            let desc = Arc::clone(self.kernels[i].code.desc());
            if let Some(cs) = self.cta_sched.as_mut() {
                cs.on_kernel_launch(KernelId(i), &desc, &self.cfg);
            }
            if let Some(t) = self.telemetry.as_mut() {
                t.record(TraceEvent::KernelLaunch {
                    cycle: self.now,
                    kernel: KernelId(i),
                    name: desc.name_shared(),
                    ctas: desc.cta_count(),
                });
            }
        }
    }

    fn kernel_summaries(&self) -> Vec<KernelSummary> {
        self.kernels
            .iter()
            .enumerate()
            .filter(|(_, k)| {
                k.phase == KernelPhase::Running && k.next_cta < k.code.desc().cta_count()
            })
            .map(|(i, k)| KernelSummary {
                id: KernelId(i),
                next_cta: k.next_cta,
                remaining: k.code.desc().cta_count() - k.next_cta,
                total_ctas: k.code.desc().cta_count(),
                warps_per_cta: k.code.desc().warps_per_cta(),
            })
            .collect()
    }

    fn core_dispatch_infos(&self, kernels: &[KernelSummary]) -> Vec<CoreDispatchInfo> {
        self.cores
            .iter()
            .map(|core| CoreDispatchInfo {
                cta_count: core.active_cta_count(),
                kernel_ctas: kernels
                    .iter()
                    .map(|k| (k.id, core.cta_count_of(k.id)))
                    .collect(),
                capacity: kernels
                    .iter()
                    .map(|k| (k.id, core.capacity_for(self.kernels[k.id.0].code.desc())))
                    .collect(),
                completed: kernels
                    .iter()
                    .map(|k| (k.id, core.completed_of(k.id)))
                    .collect(),
            })
            .collect()
    }

    /// Runs the CTA scheduler until it stops dispatching this cycle.
    ///
    /// Event-gated: skipped entirely unless something that could change
    /// the policy's answer happened since the last consultation (kernel
    /// activation, CTA completion, or a prior round that dispatched or
    /// stopped early). A steady-state cycle therefore never rebuilds the
    /// [`KernelSummary`]/[`CoreDispatchInfo`] views.
    fn dispatch_ctas(&mut self) {
        if !self.dispatch_dirty {
            return;
        }
        self.dispatch_dirty = false;
        let mut cta_sched = self.cta_sched.take().expect("scheduler present");
        // Bounded by total CTA slots to guard against a policy that loops.
        let max_rounds = self.cores.len() * self.cfg.max_ctas_per_core as usize + 1;
        for _ in 0..max_rounds {
            let kernels = self.kernel_summaries();
            if kernels.is_empty() {
                break;
            }
            let infos = self.core_dispatch_infos(&kernels);
            let view = DispatchView::new(self.now, &kernels, &infos);
            let Some(d) = cta_sched.select(&view) else {
                break;
            };
            if d.core >= self.cores.len() || d.count == 0 {
                // Malformed decision: discard, count, and re-consult next
                // cycle (the ungated loop would have).
                self.malformed_dispatches += 1;
                self.dispatch_dirty = true;
                debug_assert!(
                    false,
                    "malformed CTA dispatch: core {} (of {}), count {}",
                    d.core,
                    self.cores.len(),
                    d.count
                );
                break;
            }
            let Some(ks) = kernels.iter().find(|k| k.id == d.kernel) else {
                self.malformed_dispatches += 1;
                self.dispatch_dirty = true;
                debug_assert!(
                    false,
                    "CTA dispatch names unknown or undispatchable kernel {:?}",
                    d.kernel
                );
                break;
            };
            let state = &self.kernels[d.kernel.0];
            let capacity = self.cores[d.core].capacity_for(state.code.desc());
            let count = d.count.min(capacity).min(ks.remaining as u32);
            if count == 0 {
                // Does not fit right now; core occupancy may change, so
                // stay dirty and stop to avoid livelock.
                self.dispatch_dirty = true;
                break;
            }
            let code = Arc::clone(&state.code);
            if let Some(t) = self.telemetry.as_mut() {
                // Co-schedule admission: this dispatch brings `d.kernel`
                // onto a core already hosting a different kernel's CTAs.
                let target = &self.cores[d.core];
                if target.cta_count_of(d.kernel) == 0 && target.active_cta_count() > 0 {
                    t.record(TraceEvent::CkeAdmit {
                        cycle: self.now,
                        kernel: d.kernel,
                        core: d.core,
                    });
                }
            }
            self.cores[d.core].wake(self.now);
            for _ in 0..count {
                let cta = self.kernels[d.kernel.0].next_cta;
                self.kernels[d.kernel.0].next_cta += 1;
                self.cores[d.core].dispatch_cta(d.kernel, cta, &code, &mut self.age_counter);
                if let Some(t) = self.telemetry.as_mut() {
                    t.record(TraceEvent::CtaDispatch {
                        cycle: self.now,
                        kernel: d.kernel,
                        cta,
                        core: d.core,
                    });
                }
            }
            // A successful dispatch changes occupancy: re-consult next
            // cycle even if the policy then declines in this one.
            self.dispatch_dirty = true;
        }
        self.cta_sched = Some(cta_sched);
    }

    /// Advances the device one cycle.
    ///
    /// The cores act in ascending id, each running its whole cycle
    /// ([`Core::cycle`]) before the next starts: its global-memory
    /// accesses land at issue, in issue order, and its requests enter the
    /// fabric in that same core order. Then the fabric ticks. Responses
    /// reach a core's output queue only in `tick`, so no core sees a
    /// response earlier or later because of where it sits in the order.
    ///
    /// On the fast path a sleeping core ([`Core::asleep`]) is skipped
    /// unless a response waits for it; dispatch and L1 flushes wake their
    /// cores before they land. The skipped cycles are settled before
    /// anything reads the core's counters: on wake, before a telemetry
    /// sample, and when [`run`](Self::run) returns.
    ///
    /// Returns whether any core issued an instruction (a sleeping core
    /// issues none).
    fn step(&mut self) -> bool {
        self.activate_pending();
        self.dispatch_ctas();

        let now = self.now;
        let mut completions = Vec::new();
        let mut issued = false;
        for core in &mut self.cores {
            if self.fast_forward && core.asleep(now) && !self.fabric.has_response(core.id()) {
                continue;
            }
            issued |= core.cycle(now, &mut self.fabric, &mut self.gmem, &mut completions);
        }
        self.fabric.tick(now);

        // Account completions and notify the CTA scheduler.
        if !completions.is_empty() {
            self.dispatch_dirty = true;
        }
        let mut cta_sched = self.cta_sched.take().expect("scheduler present");
        for c in completions {
            let ev = CtaCompleteEvent {
                core: c.core,
                kernel: c.kernel,
                cta_id: c.cta_id,
                cycle: now,
                completed_on_core: c.completed_on_core,
                core_kernel_issued: c.core_kernel_issued,
                slot_snapshot: c.slot_snapshot,
            };
            cta_sched.on_cta_complete(&ev);
            if let Some(t) = self.telemetry.as_mut() {
                t.record(TraceEvent::CtaRetire {
                    cycle: now,
                    kernel: c.kernel,
                    cta: c.cta_id,
                    core: c.core,
                });
            }
            let k = &mut self.kernels[c.kernel.0];
            k.completed_ctas += 1;
            if k.completed_ctas == k.code.desc().cta_count() {
                k.phase = KernelPhase::Done;
                k.end_cycle = now;
                cta_sched.on_kernel_finish(c.kernel);
                if let Some(t) = self.telemetry.as_mut() {
                    let instructions = self
                        .cores
                        .iter()
                        .map(|core| core.issued_of(c.kernel))
                        .sum();
                    t.record(TraceEvent::KernelComplete {
                        cycle: now,
                        kernel: c.kernel,
                        cycles: now.saturating_sub(k.start_cycle),
                        instructions,
                    });
                }
            }
        }
        // Drain policy decisions buffered this cycle (dispatch- and
        // completion-driven alike) so they land in cycle order.
        if let Some(t) = self.telemetry.as_mut() {
            for d in cta_sched.take_trace_events() {
                t.record(TraceEvent::Policy {
                    cycle: now,
                    core: d.core,
                    kernel: d.kernel,
                    action: d.action.to_string(),
                    value: d.value,
                });
            }
        }
        self.cta_sched = Some(cta_sched);
        self.now += 1;
        if self
            .telemetry
            .as_ref()
            .is_some_and(|t| self.now >= t.next_sample_at())
        {
            self.settle_cores();
        }
        if let Some(t) = self.telemetry.as_mut() {
            t.maybe_sample(
                self.now,
                &self.cores,
                &self.fabric,
                self.gmem.resident_pages(),
            );
        }
        issued
    }

    /// Runs until every launched kernel completes.
    ///
    /// # Errors
    ///
    /// [`SimError::MaxCyclesExceeded`] if `max_cycles` elapse first, or
    /// [`SimError::Deadlock`] if nothing makes progress for the configured
    /// deadlock window.
    pub fn run(&mut self, max_cycles: u64) -> Result<(), SimError> {
        let result = self.run_loop(max_cycles);
        self.settle_cores();
        result
    }

    /// Books every core's slept cycles up to `now`, so its counters read
    /// as the cycle-by-cycle loop's would.
    fn settle_cores(&mut self) {
        for core in &mut self.cores {
            core.settle(self.now);
        }
    }

    fn run_loop(&mut self, max_cycles: u64) -> Result<(), SimError> {
        let limit = self.now + max_cycles;
        while !self.all_done() {
            if self.now >= limit {
                return Err(SimError::MaxCyclesExceeded { limit: max_cycles });
            }
            // Progress detection: any issued instruction counts.
            if self.step() {
                self.last_progress = self.now;
            } else if self.now - self.last_progress > self.cfg.deadlock_cycles {
                return Err(SimError::Deadlock { at: self.now });
            } else if self.fast_forward {
                self.fast_forward_idle(limit);
            }
            // Observation only: a fast-forward jump past several periods
            // fires once here rather than once per period.
            if let Some(p) = self.progress.as_mut() {
                if self.now >= p.next {
                    (p.cb)(self.now, self.cores.iter().map(|c| c.stats().issued).sum());
                    p.next = self.now.saturating_add(p.every);
                }
            }
        }
        Ok(())
    }

    /// Idle fast-forward: when every core sleeps, jump straight to the
    /// earliest cycle at which anything in the device can change. Nothing
    /// is booked here; each core settles its slept cycles later.
    ///
    /// Bit-identity argument: a skipped cycle is one where every core
    /// would sleep through it anyway, and every boundary with its own
    /// semantics caps the jump — each core's wake-up (its next writeback
    /// or shared-pipe release), the fabric's next event (which is `now`
    /// while a response waits for a core), the telemetry sample edge,
    /// the cycle budget, and the deadlock window.
    fn fast_forward_idle(&mut self, limit: Cycle) {
        if self.dispatch_dirty {
            return; // CTA dispatch may act next cycle
        }
        let now = self.now;
        // Deadlock detection must trip on the same cycle it would have:
        // step through the last cycle of the quiet window ourselves.
        let mut target = limit.min(self.last_progress + self.cfg.deadlock_cycles);
        for core in &self.cores {
            if !core.asleep(now) {
                return;
            }
            target = target.min(core.wake_at());
        }
        if let Some(t) = self.fabric.next_event(now) {
            target = target.min(t);
        }
        if let Some(tel) = self.telemetry.as_ref() {
            // The sampler fires on the step that reaches `next_sample_at`,
            // so run that step; the sample then lands on its usual cycle.
            target = target.min(tel.next_sample_at().saturating_sub(1));
        }
        self.now = self.now.max(target);
    }

    /// Snapshot of run statistics.
    pub fn stats(&self) -> SimStats {
        let mut l1 = gpgpu_mem::CacheStats::default();
        for c in &self.cores {
            l1.merge(c.l1_stats());
        }
        let kernels = self
            .kernels
            .iter()
            .enumerate()
            .map(|(i, k)| KernelStats {
                id: KernelId(i),
                name: k.code.desc().name_shared(),
                start_cycle: k.start_cycle,
                end_cycle: k.end_cycle,
                instructions: self
                    .cores
                    .iter()
                    .map(|c| c.issued_of(KernelId(i)))
                    .sum(),
                ctas: k.code.desc().cta_count(),
                started: k.phase != KernelPhase::Pending,
                done: k.phase == KernelPhase::Done,
            })
            .collect();
        SimStats {
            cycles: self.now,
            instructions: self.cores.iter().map(|c| c.stats().issued).sum(),
            kernels,
            l1,
            fabric: self.fabric.stats(),
            cores: self.cores.iter().map(|c| c.stats().clone()).collect(),
            malformed_dispatches: self.malformed_dispatches,
        }
    }
}
