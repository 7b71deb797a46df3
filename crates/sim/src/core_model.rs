//! The SM (streaming multiprocessor) model: warp contexts, scoreboards,
//! issue logic, the load/store unit with its L1 cache, shared memory, and
//! CTA slot/resource management.
//!
//! Execution is *timing-first, functional-now*: an instruction's effects
//! (register writes, memory updates) happen within its issue cycle, while
//! its latency is enforced by per-register scoreboard bits that clear when
//! the modeled writeback completes. Loads additionally hold their
//! destination register until every coalesced line transaction returns
//! from the memory hierarchy.
//!
//! A core advances only through [`Core::cycle`], one pass per cycle:
//! fabric responses, writebacks, the L1 port, the issue stage, then
//! downstream traffic into the fabric. Global loads read and stores write
//! [`GlobalMem`] at issue, so one core's global effects land in issue
//! order; the device runs the cores in ascending id (see
//! `GpuDevice::step`), which fixes the order across cores.

use crate::coalesce::{coalesce, shared_conflict_passes};
use crate::config::GpuConfig;
use crate::counters::CoreStats;
use crate::decode::{DecodedKernel, ReadyState};
use crate::memory::{GlobalMem, SharedMem};
use crate::record::{ExecRecord, WarpTrace};
use crate::sched_api::{
    CtaIssueSample, IssueView, KernelId, WarpMeta, WarpScheduler, WarpSchedulerFactory,
};
use crate::simt::{LaneMask, SimtStack};
use gpgpu_isa::{
    sem, Instr, Instruction, KernelDescriptor, MemSpace, Pc, SpecialReg, WARP_SIZE,
};
use gpgpu_mem::{
    cache::{DownstreamKind, ReservationFailure},
    Access, AccessKind, Cache, Cycle, MemFabric, MemRequest, MemResponse, ReqId,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// A CTA that retired from this core this cycle (the device wraps this
/// into a [`CtaCompleteEvent`](crate::sched_api::CtaCompleteEvent)).
#[derive(Debug, Clone)]
pub struct CoreCtaCompletion {
    /// Core the CTA ran on.
    pub core: usize,
    /// Kernel the CTA belonged to.
    pub kernel: KernelId,
    /// Global CTA id.
    pub cta_id: u64,
    /// CTAs of that kernel completed on this core so far (including this).
    pub completed_on_core: u64,
    /// Cumulative instructions this core has issued for the kernel.
    pub core_kernel_issued: u64,
    /// Issue snapshot of all CTA slots at completion time.
    pub slot_snapshot: Vec<CtaIssueSample>,
}

#[derive(Debug)]
struct CtaState {
    kernel: KernelId,
    cta_id: u64,
    desc: Arc<KernelDescriptor>,
    warp_slots: Vec<usize>,
    live_warps: u32,
    barrier_arrived: u32,
    issued: u64,
    shared: SharedMem,
}

#[derive(Debug)]
struct Warp {
    kernel: KernelId,
    cta_slot: usize,
    cta_id: u64,
    warp_in_cta: u32,
    /// The kernel's decoded program, shared by all its warps.
    code: Arc<DecodedKernel>,
    stack: SimtStack,
    exited: LaneMask,
    regs: Vec<[u64; WARP_SIZE]>,
    preds: Vec<LaneMask>,
    pending_regs: u64,
    pending_preds: u8,
    outstanding_loads: u32,
    at_barrier: bool,
    /// Replay-mode position in this warp's recorded trace; unused (0) in
    /// direct execution.
    trace_cursor: u32,
}

/// One finished warp's captured trace, tagged with its policy-invariant
/// coordinates so the device can assemble per-core buffers into an
/// [`ExecRecord`] regardless of where the CTA scheduler placed the CTA.
#[derive(Debug)]
pub(crate) struct CapturedWarp {
    pub(crate) kernel: usize,
    pub(crate) cta_id: u64,
    pub(crate) warp_in_cta: u32,
    pub(crate) trace: WarpTrace,
}

/// Capture-mode state: one in-progress step buffer per warp slot, plus
/// the traces of already-retired warps.
#[derive(Debug, Default)]
struct CaptureState {
    bufs: Vec<WarpTrace>,
    done: Vec<CapturedWarp>,
}

#[derive(Debug, Clone, Copy)]
enum WbEvent {
    /// Clear the scoreboard bit of a register.
    Reg { warp: usize, reg: u8 },
    /// Clear the scoreboard bit of a predicate.
    Pred { warp: usize, pred: u8 },
    /// One line transaction of a tracked load finished.
    LoadPartDone { token: u64 },
}

#[derive(Debug, Clone, Copy)]
struct Txn {
    id: ReqId,
    line: u64,
    token: Option<u64>,
    is_store: bool,
}

/// One in-flight tracked load, stored in a slab indexed by its token.
/// A slot is free (and its token reusable) once `remaining` reaches 0:
/// every line transaction produces exactly one `LoadPartDone`, so no
/// event can reference a retired token.
#[derive(Debug, Clone, Copy)]
struct LoadTrack {
    warp: usize,
    reg: u8,
    remaining: u32,
}

/// [`ReadyState`] variants; a verdict's discriminant indexes
/// [`ReadyTable::class`].
const READY_CLASSES: usize = 6;

/// The issue stage's view of every warp slot, as bitmasks (one `u64` word
/// per 64 slots): occupancy, the class of each slot's memoized
/// [`ReadyState`], and which verdicts are stale. A verdict only changes
/// through the warp's own issue or an unblocking event (writeback, load
/// completion, barrier release, dispatch into the slot); each of those
/// calls [`invalidate`](Self::invalidate), and the issue stage
/// re-evaluates just a partition's dirty slots, so a blocked warp costs
/// nothing per cycle.
#[derive(Debug)]
struct ReadyTable {
    /// `class[c]`: slots whose verdict is the [`ReadyState`] with
    /// discriminant `c`. An occupied, clean slot is in exactly one class;
    /// bits of dirty or empty slots are meaningless.
    class: [Vec<u64>; READY_CLASSES],
    /// Slots whose verdict must be re-evaluated before it is read.
    dirty: Vec<u64>,
    /// Slots holding a resident warp.
    occupied: Vec<u64>,
    /// `part[s]`: the slots scheduler partition `s` owns (`s`,
    /// `s + nsched`, …).
    part: Vec<Vec<u64>>,
}

impl ReadyTable {
    fn new(slots: usize, nsched: usize) -> Self {
        let words = slots.div_ceil(64);
        let part = (0..nsched)
            .map(|s| {
                let mut m = vec![0; words];
                for slot in (s..slots).step_by(nsched) {
                    m[slot >> 6] |= 1u64 << (slot & 63);
                }
                m
            })
            .collect();
        ReadyTable {
            class: std::array::from_fn(|_| vec![0; words]),
            dirty: vec![0; words],
            occupied: vec![0; words],
            part,
        }
    }

    /// Marks `slot`'s verdict stale.
    fn invalidate(&mut self, slot: usize) {
        self.dirty[slot >> 6] |= 1u64 << (slot & 63);
    }

    /// Records `slot` as occupied (with a stale verdict) or empty.
    fn set_occupied(&mut self, slot: usize, on: bool) {
        let bit = 1u64 << (slot & 63);
        if on {
            self.occupied[slot >> 6] |= bit;
            self.dirty[slot >> 6] |= bit;
        } else {
            self.occupied[slot >> 6] &= !bit;
        }
    }

    /// Stores a fresh verdict for `slot`, clearing its dirty bit.
    fn set(&mut self, slot: usize, state: ReadyState) {
        let (w, bit) = (slot >> 6, 1u64 << (slot & 63));
        for c in &mut self.class {
            c[w] &= !bit;
        }
        self.class[state as usize][w] |= bit;
        self.dirty[w] &= !bit;
    }

    /// Occupied slots of partition `s` in word `w`.
    fn occupied_in(&self, s: usize, w: usize) -> u64 {
        self.occupied[w] & self.part[s][w]
    }

    /// Whether partition `s` holds any resident warp.
    fn partition_occupied(&self, s: usize) -> bool {
        (0..self.occupied.len()).any(|w| self.occupied_in(s, w) != 0)
    }

    /// Issuable slots of partition `s` in word `w`, given the structural
    /// resources. Valid once the partition's dirty slots are re-evaluated.
    fn candidates(&self, s: usize, w: usize, lsq_has_space: bool, shared_free: bool) -> u64 {
        let mut ready = self.class[ReadyState::Ready as usize][w];
        if lsq_has_space {
            ready |= self.class[ReadyState::ReadyMemGlobal as usize][w];
        }
        if shared_free {
            ready |= self.class[ReadyState::ReadyMemShared as usize][w];
        }
        ready & self.occupied_in(s, w)
    }

    /// Attributes a stalled partition (occupied, no candidates) to one
    /// taxonomy cause: the highest-priority cause any of its warps shows,
    /// memory > execution unit > scoreboard > barrier (barrier only when
    /// no warp waits on the scoreboard).
    fn classify_stall(&self, s: usize, lsq_has_space: bool, shared_free: bool) -> SlotStall {
        let any = |state: ReadyState| {
            (0..self.occupied.len())
                .any(|w| self.class[state as usize][w] & self.occupied_in(s, w) != 0)
        };
        if any(ReadyState::BlockedMem) || (!lsq_has_space && any(ReadyState::ReadyMemGlobal)) {
            SlotStall::MemPending
        } else if !shared_free && any(ReadyState::ReadyMemShared) {
            SlotStall::ExecBusy
        } else if any(ReadyState::BlockedBarrier) && !any(ReadyState::BlockedScoreboard) {
            SlotStall::Barrier
        } else {
            SlotStall::Scoreboard
        }
    }
}

/// Why one scheduler partition failed to issue this cycle. Recorded per
/// partition during the issue stage and folded into [`CoreStats`] once the
/// cycle's quiet verdict is known (quiet cycles collapse into
/// `stall_ff_idle` so live and slept accounting agree).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotStall {
    /// The partition issued — no stall to attribute.
    Issued,
    /// No resident warps in the partition.
    NoResident,
    /// Every resident warp blocked on a scoreboard dependency.
    Scoreboard,
    /// Blocked on the memory system (outstanding loads or LSQ/MSHR full).
    MemPending,
    /// A ready shared-memory access waits for the shared pipe.
    ExecBusy,
    /// Every resident warp waits at a CTA barrier.
    Barrier,
}

/// One streaming multiprocessor.
pub struct Core {
    id: usize,
    cfg: Arc<GpuConfig>,
    cta_slots: Vec<Option<CtaState>>,
    warps: Vec<Option<Warp>>,
    warp_meta: Vec<Option<WarpMeta>>,
    schedulers: Vec<Box<dyn WarpScheduler>>,
    used_threads: u32,
    used_warps: u32,
    used_regs: u32,
    used_smem: u32,
    l1: Cache,
    lsq: VecDeque<Txn>,
    staged_downstream: Option<gpgpu_mem::cache::Downstream>,
    /// Slab of in-flight tracked loads; a load's token is its slot index.
    load_slab: Vec<LoadTrack>,
    /// Free slots of `load_slab`, reused LIFO.
    load_free: Vec<u32>,
    /// Occupied slots of `load_slab` (slab length minus free list).
    live_loads: usize,
    /// Load transactions waiting on an L1 MSHR fill, `(txn id, token)`.
    /// Linear-scanned: bounded by the MSHR count, so scans stay tiny.
    txn_wait: Vec<(ReqId, u64)>,
    /// Outstanding downstream fetches, `(request id, line address)`.
    fill_wait: Vec<(ReqId, u64)>,
    next_req: u64,
    /// Writeback timer wheel: `wb_wheel[t & wb_mask]` holds the events of
    /// cycle `t`. The wheel is sized past the longest writeback delay, so
    /// buckets never alias; drained buckets keep their capacity.
    wb_wheel: Vec<Vec<WbEvent>>,
    wb_mask: usize,
    /// Events currently on the wheel.
    wb_pending: usize,
    /// Earliest cycle with a pending event (`Cycle::MAX` when empty).
    wb_next: Cycle,
    /// Warp slots that finished while the schedulers were detached for
    /// the issue stage; they are notified right after.
    finished_warps: Vec<usize>,
    shared_pipe_free: Cycle,
    stats: CoreStats,
    issued_per_kernel: Vec<u64>,
    completed_per_kernel: Vec<u64>,
    /// Persistent scratch for the issue stage (candidate list handed to
    /// the warp scheduler), reused so steady-state cycles do not allocate.
    scratch_candidates: Vec<usize>,
    /// Whether the most recent issue stage found any ready warp; the
    /// sleep check at the end of [`cycle`](Self::cycle) reuses it.
    had_ready_warp: bool,
    /// Whether the LSQ head's L1 access this cycle was rejected for a
    /// full MSHR file or a full merge entry, which only a fill clears.
    l1_blocked: bool,
    /// First cycle this core must run live again; while `now < wake_at`
    /// every cycle would only repeat the last live one (see
    /// [`cycle`](Self::cycle)). 0 when awake.
    wake_at: Cycle,
    /// First cycle not yet booked in the statistics; the cycles from here
    /// to `now` were slept and [`settle`](Self::settle) books them.
    booked_to: Cycle,
    /// Occupancy and memoized readiness of every warp slot (see
    /// [`ReadyTable`]).
    ready: ReadyTable,
    /// Resident CTAs (occupied `cta_slots`), kept so the per-cycle
    /// occupancy integral does not walk the slots.
    resident_ctas: u32,
    /// Persistent scratch recording each scheduler partition's outcome
    /// for the current cycle; folded into the stall taxonomy at the end
    /// of the issue stage once the quiet verdict is known, and again by
    /// [`settle`](Self::settle) for each cycle slept after it.
    scratch_outcomes: Vec<SlotStall>,
    /// Capture-mode trace buffers (`None` in direct/replay execution).
    capture: Option<CaptureState>,
    /// Replay-mode execution record (`None` in direct/capture execution).
    /// Shared read-only across cores.
    replay: Option<Arc<ExecRecord>>,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("ctas", &self.active_cta_count())
            .field("warps", &self.used_warps)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Builds core `id` with scheduler instances from `factory`.
    pub fn new(id: usize, cfg: Arc<GpuConfig>, factory: &dyn WarpSchedulerFactory) -> Self {
        let schedulers = (0..cfg.num_sched_per_core as usize)
            .map(|s| factory.create(id, s))
            .collect();
        // The wheel must outspan the longest writeback delay so a bucket
        // never holds events of two different cycles at once. Shared-memory
        // ops replay up to WARP_SIZE bank-conflict passes on top of their
        // base latency.
        let max_wb_delay = cfg
            .int_latency
            .max(cfg.fp_latency)
            .max(cfg.sfu_latency)
            .max(cfg.l1_latency)
            .max(cfg.shared_latency + WARP_SIZE as u32 - 1);
        let wheel_size = (max_wb_delay as usize + 2).next_power_of_two();
        Core {
            id,
            cta_slots: (0..cfg.max_ctas_per_core as usize).map(|_| None).collect(),
            warps: (0..cfg.max_warps_per_core as usize).map(|_| None).collect(),
            warp_meta: (0..cfg.max_warps_per_core as usize).map(|_| None).collect(),
            schedulers,
            used_threads: 0,
            used_warps: 0,
            used_regs: 0,
            used_smem: 0,
            l1: Cache::new(cfg.l1.clone()),
            lsq: VecDeque::new(),
            staged_downstream: None,
            load_slab: Vec::new(),
            load_free: Vec::new(),
            live_loads: 0,
            txn_wait: Vec::new(),
            fill_wait: Vec::new(),
            next_req: 0,
            wb_wheel: (0..wheel_size).map(|_| Vec::new()).collect(),
            wb_mask: wheel_size - 1,
            wb_pending: 0,
            wb_next: Cycle::MAX,
            finished_warps: Vec::new(),
            shared_pipe_free: 0,
            stats: CoreStats::default(),
            issued_per_kernel: Vec::new(),
            completed_per_kernel: Vec::new(),
            scratch_candidates: Vec::new(),
            had_ready_warp: false,
            l1_blocked: false,
            wake_at: 0,
            booked_to: 0,
            ready: ReadyTable::new(
                cfg.max_warps_per_core as usize,
                cfg.num_sched_per_core as usize,
            ),
            resident_ctas: 0,
            scratch_outcomes: Vec::new(),
            capture: None,
            replay: None,
            cfg,
        }
    }

    /// Turns trace capture on or off. Capture only appends to side
    /// buffers from the issue stage — timing, statistics, and memory are
    /// untouched, so a capture run's outputs equal a direct run's.
    /// Toggle before dispatching any work.
    pub fn set_capture(&mut self, on: bool) {
        self.capture = on.then(|| CaptureState {
            bufs: (0..self.warps.len()).map(|_| WarpTrace::default()).collect(),
            done: Vec::new(),
        });
    }

    /// Installs (or clears) the execution record driving replay mode.
    /// Install before dispatching any work.
    pub fn set_replay(&mut self, record: Option<Arc<ExecRecord>>) {
        self.replay = record;
    }

    /// Drains the traces of every warp that retired while capture was on.
    pub(crate) fn take_captured(&mut self) -> Vec<CapturedWarp> {
        self.capture
            .as_mut()
            .map(|c| std::mem::take(&mut c.done))
            .unwrap_or_default()
    }

    /// This core's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of resident CTAs.
    pub fn active_cta_count(&self) -> u32 {
        debug_assert_eq!(
            self.resident_ctas as usize,
            self.cta_slots.iter().flatten().count()
        );
        self.resident_ctas
    }

    /// Resident CTAs belonging to `kernel`.
    pub fn cta_count_of(&self, kernel: KernelId) -> u32 {
        self.cta_slots
            .iter()
            .filter(|s| s.as_ref().is_some_and(|c| c.kernel == kernel))
            .count() as u32
    }

    /// Warps currently resident on this core (all kernels).
    pub fn resident_warps(&self) -> u32 {
        self.used_warps
    }

    /// L1 MSHR entries currently in use (instantaneous occupancy; the
    /// telemetry sampler's contention signal).
    pub fn l1_mshrs_in_use(&self) -> usize {
        self.l1.mshrs_in_use()
    }

    /// CTAs of `kernel` completed on this core so far.
    pub fn completed_of(&self, kernel: KernelId) -> u64 {
        self.completed_per_kernel.get(kernel.0).copied().unwrap_or(0)
    }

    /// Instructions issued for `kernel` on this core.
    pub fn issued_of(&self, kernel: KernelId) -> u64 {
        self.issued_per_kernel.get(kernel.0).copied().unwrap_or(0)
    }

    /// How many additional CTAs of `desc` fit right now, considering CTA
    /// slots, threads, warps, registers, and shared memory.
    pub fn capacity_for(&self, desc: &KernelDescriptor) -> u32 {
        let free_slots = self.cfg.max_ctas_per_core - self.active_cta_count();
        let threads = desc.threads_per_cta();
        let warps = desc.warps_per_cta();
        let by_threads = (self.cfg.max_threads_per_core - self.used_threads) / threads;
        let by_warps = (self.cfg.max_warps_per_core - self.used_warps) / warps;
        let regs_per_cta = desc.regs_per_thread() * threads;
        let by_regs = if regs_per_cta == 0 {
            u32::MAX
        } else {
            (self.cfg.regfile_per_core - self.used_regs) / regs_per_cta
        };
        let by_smem = if desc.smem_per_cta() == 0 {
            u32::MAX
        } else {
            (self.cfg.smem_per_core - self.used_smem) / desc.smem_per_cta()
        };
        free_slots
            .min(by_threads)
            .min(by_warps)
            .min(by_regs)
            .min(by_smem)
    }

    /// The hardware occupancy limit for `desc` on an empty core
    /// (`min(max_ctas, resource limits)`) — the baseline "max CTAs" the
    /// paper's LCS throttles below.
    pub fn hw_max_ctas(cfg: &GpuConfig, desc: &KernelDescriptor) -> u32 {
        let threads = desc.threads_per_cta();
        let warps = desc.warps_per_cta();
        let regs_per_cta = desc.regs_per_thread() * threads;
        let by_regs = if regs_per_cta == 0 {
            u32::MAX
        } else {
            cfg.regfile_per_core / regs_per_cta
        };
        let by_smem = if desc.smem_per_cta() == 0 {
            u32::MAX
        } else {
            cfg.smem_per_core / desc.smem_per_cta()
        };
        cfg.max_ctas_per_core
            .min(cfg.max_threads_per_core / threads)
            .min(cfg.max_warps_per_core / warps)
            .min(by_regs)
            .min(by_smem)
    }

    /// Installs one CTA of the launched kernel `code`. The caller must have
    /// verified capacity with [`capacity_for`](Self::capacity_for).
    ///
    /// `age` supplies monotonically increasing dispatch stamps for the
    /// CTA's warps (GTO's notion of age).
    ///
    /// # Panics
    ///
    /// Panics if the CTA does not fit.
    pub fn dispatch_cta(
        &mut self,
        kernel: KernelId,
        cta_id: u64,
        code: &Arc<DecodedKernel>,
        age: &mut u64,
    ) {
        let desc = code.desc();
        assert!(self.capacity_for(desc) >= 1, "CTA does not fit on core");
        // Grow the dense per-kernel counters once here so the per-issue
        // and per-retire hot paths are plain indexed accesses.
        if self.issued_per_kernel.len() <= kernel.0 {
            self.issued_per_kernel.resize(kernel.0 + 1, 0);
            self.completed_per_kernel.resize(kernel.0 + 1, 0);
        }
        let slot = self
            .cta_slots
            .iter()
            .position(|s| s.is_none())
            .expect("free CTA slot");
        let warps_needed = desc.warps_per_cta() as usize;
        let threads = desc.threads_per_cta();
        let mut warp_slots = Vec::with_capacity(warps_needed);
        for (w, entry) in self.warps.iter().enumerate() {
            if entry.is_none() {
                warp_slots.push(w);
                if warp_slots.len() == warps_needed {
                    break;
                }
            }
        }
        assert_eq!(warp_slots.len(), warps_needed, "free warp slots");

        let reg_count = desc.program().reg_count().max(1) as usize;
        let pred_count = desc.program().pred_count() as usize;
        for (i, &w) in warp_slots.iter().enumerate() {
            let warp_in_cta = i as u32;
            let base = warp_in_cta * WARP_SIZE as u32;
            let mut mask: LaneMask = 0;
            for lane in 0..WARP_SIZE as u32 {
                if base + lane < threads {
                    mask |= 1 << lane;
                }
            }
            *age += 1;
            let meta = WarpMeta {
                kernel,
                cta_id,
                cta_slot: slot,
                warp_in_cta,
                age: *age,
                issued: 0,
            };
            self.warps[w] = Some(Warp {
                kernel,
                cta_slot: slot,
                cta_id,
                warp_in_cta,
                code: Arc::clone(code),
                stack: SimtStack::new(mask),
                exited: 0,
                regs: vec![[0; WARP_SIZE]; reg_count],
                preds: vec![0; pred_count],
                pending_regs: 0,
                pending_preds: 0,
                outstanding_loads: 0,
                at_barrier: false,
                trace_cursor: 0,
            });
            if let Some(cap) = &mut self.capture {
                cap.bufs[w].steps.clear();
                cap.bufs[w].addrs.clear();
            }
            self.warp_meta[w] = Some(meta);
            self.ready.set_occupied(w, true);
            for s in &mut self.schedulers {
                s.on_warp_start(w, &meta);
            }
        }
        self.used_threads += threads;
        self.used_warps += desc.warps_per_cta();
        self.used_regs += desc.regs_per_thread() * threads;
        self.used_smem += desc.smem_per_cta();
        self.resident_ctas += 1;
        self.cta_slots[slot] = Some(CtaState {
            kernel,
            cta_id,
            desc: Arc::clone(desc),
            warp_slots,
            live_warps: desc.warps_per_cta(),
            barrier_arrived: 0,
            issued: 0,
            shared: SharedMem::new(desc.smem_per_cta()),
        });
    }

    /// Issue-count snapshot of the resident CTA slots.
    pub fn cta_slot_snapshot(&self) -> Vec<CtaIssueSample> {
        self.cta_slots
            .iter()
            .flatten()
            .map(|c| CtaIssueSample {
                kernel: c.kernel,
                cta_id: c.cta_id,
                issued: c.issued,
                running: true,
            })
            .collect()
    }

    /// Handles a memory-fabric response (an L1 line fill).
    fn handle_response(&mut self, now: Cycle, resp: MemResponse) {
        let Some(i) = self.fill_wait.iter().position(|(id, _)| *id == resp.id) else {
            return; // not ours / already handled
        };
        let (_, line) = self.fill_wait.swap_remove(i);
        let out = self.l1.fill(line, now);
        for txn_id in out.ready {
            if let Some(i) = self.txn_wait.iter().position(|(id, _)| *id == txn_id) {
                let (_, token) = self.txn_wait.swap_remove(i);
                self.schedule_wb(now, WbEvent::LoadPartDone { token });
            }
        }
    }

    /// Invalidates the L1 (kernel-boundary cold cache).
    pub fn flush_l1(&mut self) {
        self.l1.flush();
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> &gpgpu_mem::CacheStats {
        self.l1.stats()
    }

    /// Core statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Whether the core holds no work at all.
    pub fn is_idle(&self) -> bool {
        self.active_cta_count() == 0
            && self.lsq.is_empty()
            && self.live_loads == 0
            && self.fill_wait.is_empty()
            && self.staged_downstream.is_none()
            && !self.l1.has_downstream()
    }

    fn fresh_req_id(&mut self) -> ReqId {
        self.next_req += 1;
        ReqId(((self.id as u64) << 48) | self.next_req)
    }

    /// Enqueues a writeback event for cycle `t` on the timer wheel.
    fn schedule_wb(&mut self, t: Cycle, ev: WbEvent) {
        self.wb_wheel[(t as usize) & self.wb_mask].push(ev);
        self.wb_pending += 1;
        if t < self.wb_next {
            self.wb_next = t;
        }
    }

    /// Whether the core sleeps through cycle `now`: its last live cycle
    /// issued nothing and sent nothing, so every cycle until
    /// [`wake_at`](Self::wake_at) would repeat it exactly unless a
    /// fabric response, a CTA dispatch or an L1 flush reaches the core
    /// first. The device skips a sleeping core; [`settle`](Self::settle)
    /// books the skipped cycles.
    pub(crate) fn asleep(&self, now: Cycle) -> bool {
        now < self.wake_at
    }

    /// The cycle a sleeping core wakes by itself: its next writeback or
    /// shared-pipe release (`Cycle::MAX` when neither is pending).
    pub(crate) fn wake_at(&self) -> Cycle {
        self.wake_at
    }

    /// Books the cycles slept before `now` and wakes the core, for an
    /// outside event that changes its state (a CTA dispatch, an L1
    /// flush). Call before the event lands.
    pub(crate) fn wake(&mut self, now: Cycle) {
        self.settle(now);
        self.wake_at = 0;
    }

    /// Books every slept cycle before `upto` in closed form, exactly as
    /// the cycle-by-cycle loop would have: each slept cycle repeats the
    /// last live one, so its scheduler partitions end as that cycle's
    /// recorded outcomes did (all `stall_ff_idle` when the LSQ is empty,
    /// which makes the cycle quiet), residency is frozen, and a blocked
    /// LSQ head retries its rejected L1 access once per cycle. Sleeping
    /// cores stay asleep; settling only brings their counters up to date.
    pub(crate) fn settle(&mut self, upto: Cycle) {
        if upto <= self.booked_to {
            return;
        }
        debug_assert!(upto <= self.wake_at, "settled past the core's wake-up");
        let n = upto - self.booked_to;
        self.booked_to = upto;
        self.book_cycles(n, self.lsq.is_empty());
        if !self.lsq.is_empty() {
            self.l1.book_rejected(n);
        }
    }

    /// Books `n` cycles whose scheduler partitions ended as
    /// `scratch_outcomes` records: idle and stalled slots, the stall
    /// taxonomy (every slot as `stall_ff_idle` when `quiet`), and the
    /// occupancy integrals.
    fn book_cycles(&mut self, n: u64, quiet: bool) {
        let stats = &mut self.stats;
        for o in &self.scratch_outcomes {
            match o {
                SlotStall::Issued => {}
                SlotStall::NoResident => stats.idle_slots += n,
                _ => stats.stalled_slots += n,
            }
            if quiet {
                continue;
            }
            match o {
                SlotStall::Issued => {}
                SlotStall::NoResident => stats.stall_no_resident += n,
                SlotStall::Scoreboard => stats.stall_scoreboard += n,
                SlotStall::MemPending => stats.stall_mem_pending += n,
                SlotStall::ExecBusy => stats.stall_exec_busy += n,
                SlotStall::Barrier => stats.stall_barrier += n,
            }
        }
        if quiet {
            stats.stall_ff_idle += self.scratch_outcomes.len() as u64 * n;
        }
        stats.core_cycles += n;
        stats.cta_resident_cycles += u64::from(self.resident_ctas) * n;
        stats.warp_resident_cycles += u64::from(self.used_warps) * n;
    }

    /// Advances the core one cycle, in one pass: this core's fabric
    /// responses, writebacks, the L1 side of the load/store unit, the
    /// issue stage (global loads and stores access `gmem` at issue, in
    /// issue order), and downstream traffic into the fabric. CTAs that
    /// retire are appended to `completions` in retirement order.
    ///
    /// A cycle that issued nothing, left no downstream message staged or
    /// queued in the L1, and left the LSQ empty or its head rejected for
    /// a full MSHR file or merge entry (only a fill clears those) puts the
    /// core to sleep: until its next writeback, or until the shared pipe
    /// frees if that is sooner and still ahead, each cycle would repeat
    /// this one, and the device skips the core.
    pub fn cycle(
        &mut self,
        now: Cycle,
        fabric: &mut MemFabric,
        gmem: &mut GlobalMem,
        completions: &mut Vec<CoreCtaCompletion>,
    ) {
        self.settle(now);
        while let Some(resp) = fabric.pop_response(self.id) {
            self.handle_response(now, resp);
        }
        self.process_writebacks(now);
        self.pump_l1(now);
        self.issue(now, gmem, completions);
        self.forward_downstream(now, fabric);
        self.booked_to = now + 1;
        self.wake_at = 0;
        if !self.had_ready_warp
            && self.staged_downstream.is_none()
            && !self.l1.has_downstream()
            && (self.lsq.is_empty() || self.l1_blocked)
        {
            self.wake_at = self.wb_next;
            if self.shared_pipe_free > now {
                self.wake_at = self.wake_at.min(self.shared_pipe_free);
            }
        }
    }

    fn process_writebacks(&mut self, now: Cycle) {
        if self.wb_next > now {
            return;
        }
        // Drain every due bucket in cycle order. The wheel outspans the
        // longest writeback delay and a sleeping core wakes by `wb_next`,
        // so buckets cannot alias.
        let mut t = self.wb_next;
        while t <= now {
            let idx = (t as usize) & self.wb_mask;
            if !self.wb_wheel[idx].is_empty() {
                let mut events = std::mem::take(&mut self.wb_wheel[idx]);
                self.wb_pending -= events.len();
                for ev in events.drain(..) {
                    match ev {
                        WbEvent::Reg { warp, reg } => {
                            if let Some(w) = self.warps[warp].as_mut() {
                                w.pending_regs &= !(1u64 << reg);
                                self.ready.invalidate(warp);
                            }
                        }
                        WbEvent::Pred { warp, pred } => {
                            if let Some(w) = self.warps[warp].as_mut() {
                                w.pending_preds &= !(1u8 << pred);
                                self.ready.invalidate(warp);
                            }
                        }
                        WbEvent::LoadPartDone { token } => {
                            let track = &mut self.load_slab[token as usize];
                            debug_assert!(track.remaining > 0, "event for retired token");
                            track.remaining -= 1;
                            if track.remaining == 0 {
                                let (warp, reg) = (track.warp, track.reg);
                                self.load_free.push(token as u32);
                                self.live_loads -= 1;
                                if let Some(w) = self.warps[warp].as_mut() {
                                    w.pending_regs &= !(1u64 << reg);
                                    w.outstanding_loads -= 1;
                                    self.ready.invalidate(warp);
                                }
                            }
                        }
                    }
                }
                // Hand the drained buffer back so its capacity is reused.
                self.wb_wheel[idx] = events;
            }
            t += 1;
        }
        // Recompute the next pending cycle by scanning forward one wheel
        // revolution (only reachable buckets can hold events).
        self.wb_next = Cycle::MAX;
        if self.wb_pending > 0 {
            for dt in 1..=(self.wb_mask as u64 + 1) {
                if !self.wb_wheel[((now + dt) as usize) & self.wb_mask].is_empty() {
                    self.wb_next = now + dt;
                    break;
                }
            }
            debug_assert!(self.wb_next != Cycle::MAX, "pending events must be findable");
        }
    }

    /// Drives the L1 side of the load/store unit. The downstream messages
    /// an access produces stay queued inside the cache until
    /// [`forward_downstream`](Self::forward_downstream) sends them at the
    /// end of the same cycle.
    fn pump_l1(&mut self, now: Cycle) {
        // One L1 port: service the head transaction.
        self.l1_blocked = false;
        if let Some(&txn) = self.lsq.front() {
            let kind = if txn.is_store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let id = (!txn.is_store).then_some(txn.id);
            match self.l1.access(txn.line, kind, id, now) {
                Access::Hit => {
                    if let Some(token) = txn.token {
                        let t = now + u64::from(self.cfg.l1_latency);
                        self.schedule_wb(t, WbEvent::LoadPartDone { token });
                    }
                    self.lsq.pop_front();
                }
                Access::Miss | Access::MissMerged => {
                    if let Some(token) = txn.token {
                        self.txn_wait.push((txn.id, token));
                    }
                    self.lsq.pop_front();
                }
                Access::MissNoAlloc => {
                    self.lsq.pop_front();
                }
                // Structural: retry next cycle.
                Access::Fail(why) => {
                    self.l1_blocked = matches!(
                        why,
                        ReservationFailure::MshrFull | ReservationFailure::MergeLimit
                    );
                }
            }
        }
    }

    /// Forwards L1 downstream messages (fetches, write-throughs,
    /// writebacks) into the fabric until it back-pressures.
    fn forward_downstream(&mut self, now: Cycle, fabric: &mut MemFabric) {
        loop {
            if self.staged_downstream.is_none() {
                self.staged_downstream = self.l1.pop_downstream();
            }
            let Some(d) = self.staged_downstream else {
                break;
            };
            let (kind, size) = match d.kind {
                DownstreamKind::Fetch => (AccessKind::Load, 0),
                DownstreamKind::WriteThrough | DownstreamKind::Writeback => {
                    (AccessKind::Store, d.size)
                }
            };
            let id = self.fresh_req_id();
            let req = MemRequest {
                id,
                addr: d.addr,
                size,
                kind,
                core: self.id,
            };
            if fabric.try_submit(now, req) {
                if matches!(d.kind, DownstreamKind::Fetch) {
                    self.fill_wait.push((id, d.addr));
                }
                self.staged_downstream = None;
            } else {
                break;
            }
        }
    }

    /// Computes the warp-local readiness verdict for `slot`: whether the
    /// scoreboard, barrier, and SIMT-stack state let its next instruction
    /// issue. Structural hazards (LSQ space, shared pipe) are *not*
    /// folded in — they depend on shared state, so the issue stage checks
    /// them fresh against the returned `ReadyMem*` class each cycle. The
    /// verdict is cacheable until the warp issues or an unblocking event
    /// hits the slot.
    ///
    /// Past the barrier and the next pc, the check is the pc's decoded
    /// [`IssueRow`](crate::decode::IssueRow): its register and predicate
    /// hazard masks against the warp's pending bits, plus the drain test
    /// of an `Exit`.
    fn readiness(&mut self, slot: usize) -> ReadyState {
        let Some(w) = self.warps[slot].as_mut() else {
            return ReadyState::BlockedScoreboard;
        };
        if w.at_barrier {
            return ReadyState::BlockedBarrier;
        }
        // Replay mode reads the next pc from the recorded trace (the
        // SIMT stack is not simulated); direct execution syncs the stack.
        // Everything below — the scoreboard, the structural classes — is
        // shared between the two modes.
        let pc = if let Some(rec) = &self.replay {
            rec.warp_trace(w.kernel.0, w.cta_id, w.warp_in_cta).steps[w.trace_cursor as usize].pc
        } else {
            match w.stack.sync(w.exited) {
                Some((pc, _mask)) => pc,
                None => return ReadyState::BlockedScoreboard,
            }
        };
        let row = w.code.row(pc);
        let hazard = w.pending_regs & row.regs != 0
            || w.pending_preds & row.preds != 0
            || (row.drain
                && (w.pending_regs != 0 || w.pending_preds != 0 || w.outstanding_loads != 0));
        if !hazard {
            row.ready
        } else if w.outstanding_loads > 0 {
            // Any scoreboard wait while the warp has global loads in
            // flight is attributed to memory — the load's latency is what
            // the warp is really paying for — otherwise to the in-core
            // writeback pipe.
            ReadyState::BlockedMem
        } else {
            ReadyState::BlockedScoreboard
        }
    }

    /// The per-scheduler issue stage. Each partition re-evaluates only its
    /// dirty slots, then reads its candidates and, when it cannot issue,
    /// its stall cause off the [`ReadyTable`] masks; steady-state cycles
    /// do not allocate. CTAs that retire are appended to `completions`.
    fn issue(
        &mut self,
        now: Cycle,
        gmem: &mut GlobalMem,
        completions: &mut Vec<CoreCtaCompletion>,
    ) {
        let words = self.ready.occupied.len();
        let mut schedulers = std::mem::take(&mut self.schedulers);
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        let mut outcomes = std::mem::take(&mut self.scratch_outcomes);
        outcomes.clear();
        self.had_ready_warp = false;
        for (s, sched) in schedulers.iter_mut().enumerate() {
            if !self.ready.partition_occupied(s) {
                outcomes.push(SlotStall::NoResident);
                continue;
            }
            // Structural resources are re-read per scheduler: the
            // previous scheduler's issue may have consumed them.
            let lsq_has_space = self.lsq.len() < self.cfg.ldst_queue_len;
            let shared_free = self.shared_pipe_free <= now;
            candidates.clear();
            for w in 0..words {
                let mut stale = self.ready.dirty[w] & self.ready.occupied_in(s, w);
                while stale != 0 {
                    let slot = (w << 6) | stale.trailing_zeros() as usize;
                    stale &= stale - 1;
                    let state = self.readiness(slot);
                    self.ready.set(slot, state);
                }
                // Ascending slot order: policies break ties by position.
                let mut ready = self.ready.candidates(s, w, lsq_has_space, shared_free);
                while ready != 0 {
                    candidates.push((w << 6) | ready.trailing_zeros() as usize);
                    ready &= ready - 1;
                }
            }
            if candidates.is_empty() {
                outcomes.push(self.ready.classify_stall(s, lsq_has_space, shared_free));
                continue;
            }
            self.had_ready_warp = true;
            let view = IssueView::new(now, self.id, &self.warp_meta);
            let picked = sched.pick(&view, &candidates);
            // Validate the pick against the candidate mask (O(1), vs. a
            // linear scan of the candidate list).
            let Some(slot) = picked.filter(|&p| {
                p >> 6 < words
                    && self.ready.candidates(s, p >> 6, lsq_has_space, shared_free)
                        & (1u64 << (p & 63))
                        != 0
            }) else {
                // Defensive path: ready work existed but the policy
                // declined it — the issue unit sat on its hands.
                outcomes.push(SlotStall::ExecBusy);
                continue;
            };
            sched.on_issue(slot);
            self.stats.issued_slots += 1;
            outcomes.push(SlotStall::Issued);
            // Issuing advances the warp's pc and scoreboard state: its
            // cached verdict is stale.
            self.ready.invalidate(slot);
            completions.extend(self.execute_one(slot, now, gmem));
        }
        self.scratch_candidates = candidates;
        self.scratch_outcomes = outcomes;
        self.schedulers = schedulers;
        // Cycle accounting. A quiet cycle — no ready warp and no memory
        // work in flight on this core — books its slots as
        // `stall_ff_idle`, from core-local state only, so a quiet cycle
        // counts the same whether it runs live or is slept through.
        // Other cycles book the per-partition outcomes recorded above.
        let quiet = !self.had_ready_warp
            && self.lsq.is_empty()
            && self.staged_downstream.is_none()
            && !self.l1.has_downstream();
        self.book_cycles(1, quiet);
        for slot in std::mem::take(&mut self.finished_warps) {
            for s in &mut self.schedulers {
                s.on_warp_finish(slot);
            }
        }
    }

    /// Executes the next instruction of the warp in `slot` (readiness
    /// already verified). Returns a completion if this retired the warp's
    /// CTA.
    ///
    /// The step — pc, execution mask, and a memory instruction's per-lane
    /// addresses — comes from the SIMT stack and registers in direct
    /// execution and from the warp's recorded trace in replay. Only the
    /// functional effects (register, predicate and memory values, the
    /// SIMT stack) are direct-only; replay just materializes the pages a
    /// global store would write. The timing is common to both: issue
    /// statistics, latencies and scoreboard bits, coalescing and LSQ
    /// traffic, shared-pipe passes, barriers, and retirement. Global
    /// loads read and stores write `gmem` here, at issue.
    ///
    /// The instruction and its writeback latency come from the pc's
    /// decoded [`IssueRow`](crate::decode::IssueRow). Register and
    /// predicate instructions evaluate warp-wide (the `sem::*_warp`
    /// forms): operands resolved once, the op matched once, a dense
    /// 32-lane loop, then a blend under the execution mask. Loads and
    /// stores match their kind once and then visit only the active lanes.
    fn execute_one(
        &mut self,
        slot: usize,
        now: Cycle,
        gmem: &mut GlobalMem,
    ) -> Option<CoreCtaCompletion> {
        let Core {
            cfg,
            warps,
            cta_slots,
            warp_meta,
            capture,
            replay,
            lsq,
            wb_wheel,
            wb_mask,
            wb_pending,
            wb_next,
            load_slab,
            load_free,
            live_loads,
            next_req,
            shared_pipe_free,
            stats,
            issued_per_kernel,
            ready,
            id: core_id,
            ..
        } = self;
        let wb_mask = *wb_mask;
        let w = warps[slot].as_mut().expect("warp present");
        let recorded = replay.as_deref().map(|rec| {
            let trace = rec.warp_trace(w.kernel.0, w.cta_id, w.warp_in_cta);
            (trace, trace.steps[w.trace_cursor as usize])
        });
        let direct = recorded.is_none();
        let (pc, active) = match recorded {
            Some((_, step)) => (step.pc, step.exec_mask),
            None => w.stack.sync(w.exited).expect("ready warp has a pc"),
        };
        let row = *w.code.row(pc);
        let ins = row.ins;
        // Effective lane set: the active mask restricted by the guard (a
        // recorded mask is already guard-resolved).
        let exec_mask = match ins.guard {
            Some(g) if direct => {
                let pv = w.preds[g.pred.0 as usize];
                active & if g.expect { pv } else { !pv }
            }
            _ => active,
        };
        // Per-lane addresses of a memory instruction (zero elsewhere and
        // in inactive lanes).
        let mut addrs = [0u64; WARP_SIZE];
        if let Instr::Ld { addr, .. } | Instr::St { addr, .. } = ins.op {
            match recorded {
                Some((trace, step)) => addrs = trace.addrs_of(&step).copied().unwrap_or_default(),
                None => {
                    let base = &w.regs[addr.base.0 as usize];
                    for (l, a) in addrs.iter_mut().enumerate() {
                        if exec_mask >> l & 1 != 0 {
                            *a = base[l].wrapping_add(addr.offset as u64);
                        }
                    }
                }
            }
        }

        // Statistics. The per-kernel vector was grown at dispatch time, so
        // the hot path is a plain indexed increment.
        stats.issued += 1;
        issued_per_kernel[w.kernel.0] += 1;
        if let Some(m) = warp_meta[slot].as_mut() {
            m.issued += 1;
        }
        let cta = cta_slots[w.cta_slot].as_mut().expect("cta present");
        cta.issued += 1;

        macro_rules! schedule_wb {
            ($t:expr, $ev:expr) => {{
                let t: Cycle = $t;
                wb_wheel[(t as usize) & wb_mask].push($ev);
                *wb_pending += 1;
                if t < *wb_next {
                    *wb_next = t;
                }
            }};
        }
        // Marks a register (predicate) scoreboard-pending until cycle `t`.
        macro_rules! pend_reg {
            ($reg:expr, $t:expr) => {{
                let reg: u8 = $reg;
                w.pending_regs |= 1u64 << reg;
                schedule_wb!($t, WbEvent::Reg { warp: slot, reg });
            }};
        }
        macro_rules! pend_pred {
            ($pred:expr, $t:expr) => {{
                let pred: u8 = $pred;
                w.pending_preds |= 1u8 << pred;
                schedule_wb!($t, WbEvent::Pred { warp: slot, pred });
            }};
        }
        let done = now + u64::from(row.latency);

        match ins.op {
            Instr::Alu { op, dst, a, b, c } => {
                if direct {
                    sem::alu_warp(op, &mut w.regs, dst, [a, b, c], exec_mask);
                }
                pend_reg!(dst.0, done);
            }
            Instr::Mov { dst, src } => {
                if direct {
                    sem::mov_warp(&mut w.regs, dst, src, exec_mask);
                }
                pend_reg!(dst.0, done);
            }
            Instr::Special { dst, sreg } => {
                if direct {
                    let vals = special_lanes(sreg, w.code.desc(), w.cta_id, w.warp_in_cta);
                    sem::blend_lanes(&mut w.regs[dst.0 as usize], &vals, exec_mask);
                }
                pend_reg!(dst.0, done);
            }
            Instr::Param { dst, index } => {
                if direct {
                    let v = w.code.desc().params()[index as usize];
                    sem::blend_lanes(&mut w.regs[dst.0 as usize], &[v; WARP_SIZE], exec_mask);
                }
                pend_reg!(dst.0, done);
            }
            Instr::Sel { dst, pred, a, b } => {
                if direct {
                    let pv = w.preds[pred.0 as usize];
                    sem::sel_warp(&mut w.regs, dst, pv, [a, b], exec_mask);
                }
                pend_reg!(dst.0, done);
            }
            Instr::SetP { dst, cmp, ty, a, b } => {
                if direct {
                    let pv = &mut w.preds[dst.0 as usize];
                    *pv = sem::setp_warp(cmp, ty, &w.regs, [a, b], *pv, exec_mask);
                }
                pend_pred!(dst.0, done);
            }
            Instr::PBool { dst, op, a, b } => {
                if direct {
                    let (av, bv) = (w.preds[a.0 as usize], w.preds[b.0 as usize]);
                    let pv = &mut w.preds[dst.0 as usize];
                    *pv = sem::pbool_warp(op, av, bv, *pv, exec_mask);
                }
                pend_pred!(dst.0, done);
            }
            // Control flow moves the SIMT stack; in replay it is the trace
            // itself, and there is nothing to time.
            Instr::Bra { target } => {
                if direct {
                    w.stack.jump(target);
                }
            }
            Instr::BraCond {
                pred,
                neg,
                target,
                reconv,
            } => {
                if direct {
                    let pv = w.preds[pred.0 as usize];
                    let cond = if neg { !pv } else { pv };
                    w.stack
                        .branch(active & cond, active & !cond, target, reconv);
                }
            }
            Instr::Exit => {
                if direct {
                    w.exited |= exec_mask;
                }
            }
            Instr::Bar => {
                w.at_barrier = true;
                cta.barrier_arrived += 1;
                if cta.barrier_arrived >= cta.live_warps {
                    release_barrier(cta, warps, ready);
                }
            }
            Instr::Ld { space, width, .. } | Instr::St { space, width, .. } => {
                let load_dst = match ins.op {
                    Instr::Ld { dst, .. } => Some(dst.0),
                    _ => None,
                };
                // Lanes in ascending order, so one warp's global effects
                // land in lane order.
                let lanes = (0..WARP_SIZE).filter(|l| exec_mask >> l & 1 != 0);
                let mut buf = None;
                match (ins.op, space, direct) {
                    (Instr::Ld { dst, .. }, MemSpace::Global, true) => {
                        let d = &mut w.regs[dst.0 as usize];
                        lanes.for_each(|l| d[l] = gmem.read_width(addrs[l], width));
                    }
                    (Instr::Ld { dst, .. }, MemSpace::Shared, true) => {
                        let d = &mut w.regs[dst.0 as usize];
                        lanes.for_each(|l| d[l] = cta.shared.read_width(addrs[l], width));
                    }
                    (Instr::St { src, .. }, MemSpace::Global, true) => {
                        let v = sem::operand_lanes(&w.regs, src, &mut buf);
                        lanes.for_each(|l| gmem.write_width(addrs[l], v[l], width));
                    }
                    (Instr::St { src, .. }, MemSpace::Shared, true) => {
                        let v = sem::operand_lanes(&w.regs, src, &mut buf);
                        lanes.for_each(|l| cta.shared.write_width(addrs[l], v[l], width));
                    }
                    // Replay writes no data, but page materialization is a
                    // telemetry observable (`gmem_pages`).
                    (Instr::St { .. }, MemSpace::Global, false) => {
                        lanes.for_each(|l| gmem.touch_store(addrs[l], width));
                    }
                    _ => {}
                }
                match space {
                    MemSpace::Global => {
                        let lines = coalesce(
                            &addrs,
                            exec_mask,
                            width.bytes(),
                            u64::from(cfg.l1.line_bytes),
                        );
                        stats.gmem_transactions += lines.len() as u64;
                        // A load holds its register until every line
                        // transaction returns, tracked by a slab token.
                        let token = match load_dst {
                            // Fully guarded off: behaves like a short ALU op.
                            Some(reg) if lines.is_empty() => {
                                pend_reg!(reg, done);
                                None
                            }
                            Some(reg) => {
                                let track = LoadTrack {
                                    warp: slot,
                                    reg,
                                    remaining: lines.len() as u32,
                                };
                                let token = match load_free.pop() {
                                    Some(i) => {
                                        load_slab[i as usize] = track;
                                        u64::from(i)
                                    }
                                    None => {
                                        load_slab.push(track);
                                        (load_slab.len() - 1) as u64
                                    }
                                };
                                *live_loads += 1;
                                w.pending_regs |= 1u64 << reg;
                                w.outstanding_loads += 1;
                                Some(token)
                            }
                            None => None,
                        };
                        for &line in &lines {
                            *next_req += 1;
                            lsq.push_back(Txn {
                                id: ReqId(((*core_id as u64) << 48) | *next_req),
                                line,
                                token,
                                is_store: load_dst.is_none(),
                            });
                        }
                    }
                    MemSpace::Shared => {
                        let passes = shared_conflict_passes(&addrs, exec_mask).max(1);
                        stats.shared_replays += u64::from(passes - 1);
                        *shared_pipe_free = now + u64::from(passes);
                        if let Some(reg) = load_dst {
                            pend_reg!(reg, done + u64::from(passes - 1));
                        }
                    }
                }
            }
        }

        if let Some(cap) = capture {
            let is_mem = matches!(ins.op, Instr::Ld { .. } | Instr::St { .. });
            cap.bufs[slot].push_step(pc, exec_mask, is_mem.then_some(&addrs));
        }

        // Advance the warp and check whether it finished: a replayed warp
        // retires when its cursor reaches the end of its trace, which is
        // exactly the issue after which the direct run retired it.
        let w = warps[slot].as_mut().expect("warp present");
        let finished = match recorded {
            Some((trace, _)) => {
                w.trace_cursor += 1;
                w.trace_cursor as usize == trace.steps.len()
            }
            None => {
                if !matches!(ins.op, Instr::Bra { .. } | Instr::BraCond { .. }) {
                    w.stack.advance();
                }
                w.stack.is_done(w.exited)
            }
        };
        if finished {
            let (cta_slot, kernel) = (w.cta_slot, w.kernel);
            self.retire_warp(slot, cta_slot, kernel)
        } else {
            None
        }
    }

    /// Removes a finished warp; retires its CTA if it was the last one.
    fn retire_warp(
        &mut self,
        slot: usize,
        cta_slot: usize,
        kernel: KernelId,
    ) -> Option<CoreCtaCompletion> {
        if let Some(cap) = &mut self.capture {
            if let Some(w) = self.warps[slot].as_ref() {
                cap.done.push(CapturedWarp {
                    kernel: w.kernel.0,
                    cta_id: w.cta_id,
                    warp_in_cta: w.warp_in_cta,
                    trace: std::mem::take(&mut cap.bufs[slot]),
                });
            }
        }
        self.warps[slot] = None;
        self.warp_meta[slot] = None;
        self.ready.set_occupied(slot, false);
        self.finished_warps.push(slot);
        let cta = self.cta_slots[cta_slot].as_mut().expect("cta present");
        cta.live_warps -= 1;
        if cta.live_warps > 0 {
            // A warp exiting can release a barrier the rest wait at.
            if cta.barrier_arrived >= cta.live_warps {
                release_barrier(cta, &mut self.warps, &mut self.ready);
            }
            return None;
        }
        // CTA complete: snapshot first (including the finished CTA), then
        // free resources.
        let cta = self.cta_slots[cta_slot].take().expect("cta present");
        self.resident_ctas -= 1;
        let mut snapshot = self.cta_slot_snapshot();
        snapshot.push(CtaIssueSample {
            kernel: cta.kernel,
            cta_id: cta.cta_id,
            issued: cta.issued,
            running: false,
        });
        let threads = cta.desc.threads_per_cta();
        self.used_threads -= threads;
        self.used_warps -= cta.desc.warps_per_cta();
        self.used_regs -= cta.desc.regs_per_thread() * threads;
        self.used_smem -= cta.desc.smem_per_cta();
        self.stats.ctas_completed += 1;
        self.completed_per_kernel[kernel.0] += 1;
        Some(CoreCtaCompletion {
            core: self.id,
            kernel,
            cta_id: cta.cta_id,
            completed_on_core: self.completed_per_kernel[kernel.0],
            core_kernel_issued: self.issued_per_kernel[kernel.0],
            slot_snapshot: snapshot,
        })
    }
}

/// Releases every warp of `cta` from its barrier, invalidating their
/// readiness verdicts.
fn release_barrier(cta: &mut CtaState, warps: &mut [Option<Warp>], ready: &mut ReadyTable) {
    cta.barrier_arrived = 0;
    for &ws in &cta.warp_slots {
        if let Some(w) = warps[ws].as_mut() {
            w.at_barrier = false;
            ready.invalidate(ws);
        }
    }
}

/// Evaluates a special register in every lane of warp `warp_in_cta` of
/// CTA `cta_id`.
fn special_lanes(
    sreg: SpecialReg,
    desc: &KernelDescriptor,
    cta_id: u64,
    warp_in_cta: u32,
) -> sem::Lanes {
    let ntid_x = u64::from(desc.block().x);
    let tid = |lane: usize| u64::from(warp_in_cta) * WARP_SIZE as u64 + lane as u64;
    let (cx, cy) = desc.cta_coords(cta_id);
    let uniform = match sreg {
        SpecialReg::TidX => return std::array::from_fn(|l| tid(l) % ntid_x),
        SpecialReg::TidY => return std::array::from_fn(|l| tid(l) / ntid_x),
        SpecialReg::LaneId => return std::array::from_fn(|l| l as u64),
        SpecialReg::NTidX => ntid_x,
        SpecialReg::NTidY => u64::from(desc.block().y),
        SpecialReg::CtaIdX => u64::from(cx),
        SpecialReg::CtaIdY => u64::from(cy),
        SpecialReg::NCtaIdX => u64::from(desc.grid().x),
        SpecialReg::NCtaIdY => u64::from(desc.grid().y),
        SpecialReg::CtaLinear => cta_id,
    };
    [uniform; WARP_SIZE]
}

/// Instruction-pointer-free helper used by tests and by readiness
/// diagnostics: the name of a [`Pc`]'s instruction in `desc`.
pub fn instr_name(desc: &KernelDescriptor, pc: Pc) -> String {
    let ins: &Instruction = desc.program().fetch(pc);
    format!("{ins}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched_api::WarpSchedulerFactory;
    use gpgpu_isa::dsl::DslKernel;
    use gpgpu_isa::{AccessWidth, CmpOp, CmpTy, Dim2, Operand};
    use gpgpu_mem::FabricConfig;

    /// Trivial loose-round-robin scheduler for core unit tests (the real
    /// policies live in `tbs-core`).
    #[derive(Debug)]
    struct TestSched {
        last: usize,
    }

    impl WarpScheduler for TestSched {
        fn name(&self) -> &str {
            "test-rr"
        }
        fn pick(&mut self, _view: &IssueView<'_>, candidates: &[usize]) -> Option<usize> {
            let next = candidates
                .iter()
                .copied()
                .find(|&c| c > self.last)
                .or_else(|| candidates.first().copied());
            if let Some(n) = next {
                self.last = n;
            }
            next
        }
    }

    #[derive(Debug)]
    struct TestFactory;

    impl WarpSchedulerFactory for TestFactory {
        fn name(&self) -> &str {
            "test-rr"
        }
        fn create(&self, _core: usize, _slot: usize) -> Box<dyn WarpScheduler> {
            Box::new(TestSched { last: usize::MAX })
        }
    }

    fn small_cfg() -> Arc<GpuConfig> {
        let mut c = GpuConfig::fermi();
        c.num_cores = 1;
        c.fabric = FabricConfig::fermi_like(1);
        c.fabric.partitions = 2;
        c.validate();
        Arc::new(c)
    }

    /// `desc` launched on `cfg`, as the device decodes it.
    fn decoded(desc: &Arc<KernelDescriptor>, cfg: &GpuConfig) -> Arc<DecodedKernel> {
        Arc::new(DecodedKernel::new(Arc::clone(desc), cfg))
    }

    fn run_core_to_completion(
        core: &mut Core,
        fabric: &mut MemFabric,
        gmem: &mut GlobalMem,
        max_cycles: u64,
    ) -> (u64, Vec<CoreCtaCompletion>) {
        run_core_inspecting(core, fabric, gmem, max_cycles, |_, _| {})
    }

    /// [`run_core_to_completion`], calling `inspect` after every cycle.
    fn run_core_inspecting(
        core: &mut Core,
        fabric: &mut MemFabric,
        gmem: &mut GlobalMem,
        max_cycles: u64,
        mut inspect: impl FnMut(&mut Core, Cycle),
    ) -> (u64, Vec<CoreCtaCompletion>) {
        let mut completions = Vec::new();
        for now in 0..max_cycles {
            core.cycle(now, fabric, gmem, &mut completions);
            inspect(core, now);
            fabric.tick(now);
            if core.is_idle() && fabric.quiesced() {
                return (now, completions);
            }
        }
        panic!("core did not finish within {max_cycles} cycles");
    }

    /// c[i] = a[i] + b[i]
    fn vecadd_desc(n: u32, a: u64, b: u64, c: u64) -> Arc<KernelDescriptor> {
        let mut k = DslKernel::new("vecadd", Dim2::x(64));
        let pa = k.param(0);
        let pb = k.param(1);
        let pc = k.param(2);
        let pn = k.param(3);
        let gid = k.global_tid_x();
        let in_range = k.setp(CmpOp::Lt, CmpTy::U64, gid, pn);
        k.if_then(in_range, |k| {
            let off = k.shl(gid, 2u64);
            let ea = k.iadd(pa, off);
            let eb = k.iadd(pb, off);
            let ec = k.iadd(pc, off);
            let va = k.ld_global_u32(ea, 0);
            let vb = k.ld_global_u32(eb, 0);
            let vc = k.iadd(va, vb);
            k.st_global_u32(vc, ec, 0);
        });
        let prog = Arc::new(k.compile().unwrap());
        Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(n.div_ceil(64)), Dim2::x(64))
                .params([a, b, c, u64::from(n)])
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn vecadd_single_cta_functional_and_retires() {
        let cfg = small_cfg();
        let mut fabric = MemFabric::new(cfg.fabric.clone());
        let mut gmem = GlobalMem::new();
        let a = gmem.alloc(64 * 4);
        let b = gmem.alloc(64 * 4);
        let c = gmem.alloc(64 * 4);
        let av: Vec<u32> = (0..64).collect();
        let bv: Vec<u32> = (0..64).map(|i| 100 + i).collect();
        gmem.write_u32_slice(a, &av);
        gmem.write_u32_slice(b, &bv);

        let desc = vecadd_desc(64, a, b, c);
        let mut core = Core::new(0, Arc::clone(&cfg), &TestFactory);
        let mut age = 0;
        core.dispatch_cta(KernelId(0), 0, &decoded(&desc, &cfg), &mut age);
        assert_eq!(core.active_cta_count(), 1);

        let (cycles, completions) =
            run_core_to_completion(&mut core, &mut fabric, &mut gmem, 100_000);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].cta_id, 0);
        assert_eq!(core.active_cta_count(), 0);
        assert!(cycles > 50, "must take real time (memory latency)");
        let out = gmem.read_u32_vec(c, 64);
        let expect: Vec<u32> = (0..64).map(|i| i + 100 + i).collect();
        assert_eq!(out, expect);
        assert!(core.stats().issued > 0);
        assert_eq!(core.stats().ctas_completed, 1);
    }

    #[test]
    fn capacity_respects_all_resources() {
        let cfg = small_cfg();
        let core = Core::new(0, Arc::clone(&cfg), &TestFactory);
        // 256 threads/CTA, 20 regs/thread, 0 smem: thread-limited to 6.
        let mut k = DslKernel::new("t", Dim2::x(256));
        k.movi(0u64);
        let prog = Arc::new(k.compile().unwrap());
        let d = Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(100), Dim2::x(256))
                .regs_per_thread(20)
                .build()
                .unwrap(),
        );
        assert_eq!(core.capacity_for(&d), 6); // 1536 / 256
        assert_eq!(Core::hw_max_ctas(&cfg, &d), 6);
        // Shared-memory-limited: 20 KiB per CTA -> 2 CTAs.
        let mut k = DslKernel::new("t2", Dim2::x(64));
        k.movi(0u64);
        let prog = Arc::new(k.compile().unwrap());
        let d = Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(100), Dim2::x(64))
                .smem_per_cta(20 * 1024)
                .build()
                .unwrap(),
        );
        assert_eq!(Core::hw_max_ctas(&cfg, &d), 2);
        // Register-limited: 64 regs * 256 threads = 16384 -> 2 CTAs.
        let mut k = DslKernel::new("t3", Dim2::x(256));
        k.movi(0u64);
        let prog = Arc::new(k.compile().unwrap());
        let d = Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(100), Dim2::x(256))
                .regs_per_thread(64)
                .build()
                .unwrap(),
        );
        assert_eq!(Core::hw_max_ctas(&cfg, &d), 2);
    }

    #[test]
    fn barrier_synchronizes_warps() {
        // Each warp stores its warp id to shared memory, barriers, then
        // reads its neighbour's value: only correct if the barrier works.
        let cfg = small_cfg();
        let mut fabric = MemFabric::new(cfg.fabric.clone());
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(128 * 4);

        let mut k = DslKernel::new("barrier", Dim2::x(128)); // 4 warps
        let pout = k.param(0);
        let tid = k.special(SpecialReg::TidX);
        // shared[tid] = tid
        let saddr = k.shl(tid, 2u64);
        k.st_shared_u32(tid, saddr, 0);
        k.bar();
        // v = shared[(tid + 32) % 128]
        let other = k.iadd(tid, 32u64);
        let wrapped = k.and(other, 127u64);
        let oaddr = k.shl(wrapped, 2u64);
        let v = k.ld_shared_u32(oaddr, 0);
        // out[tid] = v
        let goff = k.shl(tid, 2u64);
        let gaddr = k.iadd(pout, goff);
        k.st_global_u32(v, gaddr, 0);
        let prog = Arc::new(k.compile().unwrap());
        let desc = Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(1), Dim2::x(128))
                .smem_per_cta(128 * 4)
                .params([out])
                .build()
                .unwrap(),
        );

        let mut core = Core::new(0, Arc::clone(&cfg), &TestFactory);
        let mut age = 0;
        core.dispatch_cta(KernelId(0), 0, &decoded(&desc, &cfg), &mut age);
        run_core_to_completion(&mut core, &mut fabric, &mut gmem, 100_000);
        let got = gmem.read_u32_vec(out, 128);
        let expect: Vec<u32> = (0..128).map(|t| (t + 32) % 128).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn divergent_branch_computes_both_sides() {
        // out[i] = if i % 2 == 0 { 10 } else { 20 }
        let cfg = small_cfg();
        let mut fabric = MemFabric::new(cfg.fabric.clone());
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(32 * 4);

        let mut k = DslKernel::new("div", Dim2::x(32));
        let pout = k.param(0);
        let tid = k.special(SpecialReg::TidX);
        let bit = k.and(tid, 1u64);
        let is_even = k.setp(CmpOp::Eq, CmpTy::U64, bit, 0u64);
        let v = k.declare();
        k.if_then_else(is_even, |k| k.mov_to(v, 10u64), |k| k.mov_to(v, 20u64));
        let off = k.shl(tid, 2u64);
        let gaddr = k.iadd(pout, off);
        k.st_global_u32(v, gaddr, 0);
        let prog = Arc::new(k.compile().unwrap());
        let desc = Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(1), Dim2::x(32))
                .params([out])
                .build()
                .unwrap(),
        );
        let mut core = Core::new(0, Arc::clone(&cfg), &TestFactory);
        let mut age = 0;
        core.dispatch_cta(KernelId(0), 0, &decoded(&desc, &cfg), &mut age);
        run_core_to_completion(&mut core, &mut fabric, &mut gmem, 100_000);
        let got = gmem.read_u32_vec(out, 32);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, if i % 2 == 0 { 10 } else { 20 }, "lane {i}");
        }
    }

    #[test]
    fn loop_accumulates() {
        // out[tid] = sum(0..tid)
        let cfg = small_cfg();
        let mut fabric = MemFabric::new(cfg.fabric.clone());
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(32 * 4);

        let mut k = DslKernel::new("loop", Dim2::x(32));
        let pout = k.param(0);
        let tid = k.special(SpecialReg::TidX);
        let acc = k.movi(0u64);
        k.for_range(0u64, tid, 1u64, |k, i| {
            k.alu_to(gpgpu_isa::AluOp::IAdd, acc, acc, i);
        });
        let off = k.shl(tid, 2u64);
        let gaddr = k.iadd(pout, off);
        k.st_global_u32(acc, gaddr, 0);
        let prog = Arc::new(k.compile().unwrap());
        let desc = Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(1), Dim2::x(32))
                .params([out])
                .build()
                .unwrap(),
        );
        let mut core = Core::new(0, Arc::clone(&cfg), &TestFactory);
        let mut age = 0;
        core.dispatch_cta(KernelId(0), 0, &decoded(&desc, &cfg), &mut age);
        run_core_to_completion(&mut core, &mut fabric, &mut gmem, 200_000);
        let got = gmem.read_u32_vec(out, 32);
        for (t, v) in got.iter().enumerate() {
            let expect: u32 = (0..t as u32).sum();
            assert_eq!(*v, expect, "tid {t}");
        }
    }

    #[test]
    fn multiple_ctas_track_issue_counts() {
        let cfg = small_cfg();
        let mut fabric = MemFabric::new(cfg.fabric.clone());
        let mut gmem = GlobalMem::new();
        let a = gmem.alloc(256 * 4);
        let b = gmem.alloc(256 * 4);
        let c = gmem.alloc(256 * 4);
        gmem.write_u32_slice(a, &vec![1; 256]);
        gmem.write_u32_slice(b, &vec![2; 256]);
        let code = decoded(&vecadd_desc(256, a, b, c), &cfg);
        let mut core = Core::new(0, Arc::clone(&cfg), &TestFactory);
        let mut age = 0;
        for cta in 0..4 {
            core.dispatch_cta(KernelId(0), cta, &code, &mut age);
        }
        assert_eq!(core.active_cta_count(), 4);
        let snap = core.cta_slot_snapshot();
        assert_eq!(snap.len(), 4);
        let (_, completions) = run_core_to_completion(&mut core, &mut fabric, &mut gmem, 200_000);
        assert_eq!(completions.len(), 4);
        // Snapshot attached to the first completion includes issue counts.
        assert!(completions[0]
            .slot_snapshot
            .iter()
            .any(|s| !s.running && s.issued > 0));
        assert_eq!(core.completed_of(KernelId(0)), 4);
        assert_eq!(gmem.read_u32_vec(c, 256), vec![3u32; 256]);
    }

    #[test]
    fn guarded_store_skips_lanes() {
        let cfg = small_cfg();
        let mut fabric = MemFabric::new(cfg.fabric.clone());
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(32 * 4);
        gmem.write_u32_slice(out, &vec![7u32; 32]);

        let mut k = DslKernel::new("guard", Dim2::x(32));
        let pout = k.param(0);
        let tid = k.special(SpecialReg::TidX);
        let low = k.setp(CmpOp::Lt, CmpTy::U64, tid, 16u64);
        let off = k.shl(tid, 2u64);
        let gaddr = k.iadd(pout, off);
        k.with_guard(low, true, |k| {
            k.st_global_u32(99u64, gaddr, 0);
        });
        let prog = Arc::new(k.compile().unwrap());
        let desc = Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(1), Dim2::x(32))
                .params([out])
                .build()
                .unwrap(),
        );
        let mut core = Core::new(0, Arc::clone(&cfg), &TestFactory);
        let mut age = 0;
        core.dispatch_cta(KernelId(0), 0, &decoded(&desc, &cfg), &mut age);
        run_core_to_completion(&mut core, &mut fabric, &mut gmem, 100_000);
        let got = gmem.read_u32_vec(out, 32);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, if i < 16 { 99 } else { 7 }, "lane {i}");
        }
    }

    #[test]
    fn guarded_register_ops_keep_inactive_lanes() {
        // Under a guard true in lanes 0..16 only, an ALU op, a SetP and a
        // PBool must leave lanes 16..32 of their destinations as they were.
        let cfg = small_cfg();
        let mut fabric = MemFabric::new(cfg.fabric.clone());
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(32 * 4);

        let mut k = DslKernel::new("guarded-regs", Dim2::x(32));
        let pout = k.param(0);
        let tid = k.special(SpecialReg::TidX);
        let low = k.setp(CmpOp::Lt, CmpTy::U64, tid, 16u64);
        let p = k.setp(CmpOp::Gt, CmpTy::U64, tid, 1000u64);
        let q = k.setp(CmpOp::Gt, CmpTy::U64, tid, 1000u64);
        let all = k.setp(CmpOp::Lt, CmpTy::U64, tid, 1000u64);
        let acc = k.movi(5u64);
        k.with_guard(low, true, |k| {
            k.alu_to(gpgpu_isa::AluOp::IAdd, acc, acc, 10u64);
            k.setp_to(p, CmpOp::Lt, CmpTy::U64, tid, 100u64);
            k.pbool_to(q, gpgpu_isa::PBoolOp::Or, all, low);
        });
        let fp = k.sel(p, 100u64, 0u64);
        let fq = k.sel(q, 1000u64, 0u64);
        let sum = k.iadd(acc, fp);
        let sum = k.iadd(sum, fq);
        let off = k.shl(tid, 2u64);
        let gaddr = k.iadd(pout, off);
        k.st_global_u32(sum, gaddr, 0);
        let prog = Arc::new(k.compile().unwrap());
        let desc = Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(1), Dim2::x(32))
                .params([out])
                .build()
                .unwrap(),
        );
        let mut core = Core::new(0, Arc::clone(&cfg), &TestFactory);
        let mut age = 0;
        core.dispatch_cta(KernelId(0), 0, &decoded(&desc, &cfg), &mut age);
        run_core_to_completion(&mut core, &mut fabric, &mut gmem, 100_000);
        let got = gmem.read_u32_vec(out, 32);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, if i < 16 { 1115 } else { 5 }, "lane {i}");
        }
    }

    #[test]
    fn coalesced_load_uses_fewer_transactions_than_strided() {
        let cfg = small_cfg();
        let build = |stride: u64| {
            let mut k = DslKernel::new("access", Dim2::x(32));
            let pin = k.param(0);
            let tid = k.special(SpecialReg::TidX);
            let off = k.imul(tid, stride);
            let gaddr = k.iadd(pin, off);
            let v = k.ld_global_u32(gaddr, 0);
            let o = k.iadd(v, 0u64);
            let _ = o;
            let prog = Arc::new(k.compile().unwrap());
            Arc::new(
                KernelDescriptor::builder(prog, Dim2::x(1), Dim2::x(32))
                    .params([0x10000])
                    .build()
                    .unwrap(),
            )
        };
        let run = |desc: Arc<KernelDescriptor>| {
            let mut fabric = MemFabric::new(cfg.fabric.clone());
            let mut gmem = GlobalMem::new();
            let mut core = Core::new(0, Arc::clone(&cfg), &TestFactory);
            let mut age = 0;
            core.dispatch_cta(KernelId(0), 0, &decoded(&desc, &cfg), &mut age);
            run_core_to_completion(&mut core, &mut fabric, &mut gmem, 100_000);
            core.stats().gmem_transactions
        };
        let coalesced = run(build(4));
        let strided = run(build(512));
        assert_eq!(coalesced, 1);
        assert_eq!(strided, 32);
    }

    /// Checks the [`ReadyTable`] memo against the warps it describes:
    /// occupancy mirrors the warp slots, and every occupied slot whose
    /// verdict is not marked stale sits in exactly the class a fresh
    /// `readiness` puts it in. Returns how many clean slots it checked.
    fn assert_memo_sound(core: &mut Core, now: Cycle) -> usize {
        let mut checked = 0;
        for slot in 0..core.warps.len() {
            let (w, bit) = (slot >> 6, 1u64 << (slot & 63));
            let occupied = core.ready.occupied[w] & bit != 0;
            assert_eq!(
                occupied,
                core.warps[slot].is_some(),
                "slot {slot} occupancy at cycle {now}"
            );
            if !occupied || core.ready.dirty[w] & bit != 0 {
                continue;
            }
            let memo: Vec<usize> = (0..READY_CLASSES)
                .filter(|&c| core.ready.class[c][w] & bit != 0)
                .collect();
            let fresh = core.readiness(slot);
            assert_eq!(
                memo,
                [fresh as usize],
                "slot {slot} at cycle {now}: memoized classes {memo:?}, fresh verdict {fresh:?}"
            );
            checked += 1;
        }
        checked
    }

    /// Runs every CTA of `desc` on one core with the memo checked after
    /// each cycle: directly with capture on, then replayed from the record
    /// that run captured. Returns how many clean slots were checked.
    fn check_memo_direct_and_replayed(
        desc: &Arc<KernelDescriptor>,
        gmem: impl Fn() -> GlobalMem,
    ) -> usize {
        let cfg = small_cfg();
        let code = decoded(desc, &cfg);
        let ctas = u64::from(desc.grid().x);
        let mut checked = 0;
        let mut run = |replay: Option<Arc<ExecRecord>>| {
            let mut fabric = MemFabric::new(cfg.fabric.clone());
            let mut gmem = gmem();
            let mut core = Core::new(0, Arc::clone(&cfg), &TestFactory);
            core.set_capture(replay.is_none());
            core.set_replay(replay);
            let mut age = 0;
            for cta in 0..ctas {
                core.dispatch_cta(KernelId(0), cta, &code, &mut age);
            }
            run_core_inspecting(&mut core, &mut fabric, &mut gmem, 100_000, |core, now| {
                checked += assert_memo_sound(core, now);
            });
            core.take_captured()
        };
        let mut record = crate::record::KernelRecord::default();
        record
            .ctas
            .resize_with(ctas as usize, || crate::record::CtaRecord {
                warps: vec![WarpTrace::default(); desc.warps_per_cta() as usize],
            });
        for cw in run(None) {
            record.ctas[cw.cta_id as usize].warps[cw.warp_in_cta as usize] = cw.trace;
        }
        run(Some(Arc::new(ExecRecord {
            kernels: vec![record],
            mem_hash: 0,
        })));
        checked
    }

    #[test]
    fn ready_table_memo_matches_fresh_readiness_every_cycle() {
        // Two 4-warp CTAs: a global load, a barrier loop exchanging values
        // through shared memory, then a divergent tail with a second load.
        let setup = || {
            let mut gmem = GlobalMem::new();
            let input = gmem.alloc(256 * 4);
            let out = gmem.alloc(256 * 4);
            gmem.write_u32_slice(input, &(0..256).collect::<Vec<u32>>());
            (gmem, input, out)
        };
        let (_, input, out) = setup();
        let mut k = DslKernel::new("memo", Dim2::x(128));
        let pin = k.param(0);
        let pout = k.param(1);
        let tid = k.special(SpecialReg::TidX);
        let gid = k.global_tid_x();
        let goff = k.shl(gid, 2u64);
        let src = k.iadd(pin, goff);
        let v = k.ld_global_u32(src, 0);
        let acc = k.movi(0u64);
        let saddr = k.shl(tid, 2u64);
        let other = k.iadd(tid, 32u64);
        let wrapped = k.and(other, 127u64);
        let oaddr = k.shl(wrapped, 2u64);
        k.for_range(0u64, 3u64, 1u64, |k, i| {
            let x = k.iadd(v, i);
            k.st_shared_u32(x, saddr, 0);
            k.bar();
            let y = k.ld_shared_u32(oaddr, 0);
            k.alu_to(gpgpu_isa::AluOp::IAdd, acc, acc, y);
            k.bar();
        });
        let bit = k.and(tid, 1u64);
        let is_even = k.setp(CmpOp::Eq, CmpTy::U64, bit, 0u64);
        k.if_then_else(
            is_even,
            |k| k.alu_to(gpgpu_isa::AluOp::IAdd, acc, acc, 1u64),
            |k| {
                let again = k.ld_global_u32(src, 0);
                k.alu_to(gpgpu_isa::AluOp::IAdd, acc, acc, again);
            },
        );
        let dst = k.iadd(pout, goff);
        k.st_global_u32(acc, dst, 0);
        let prog = Arc::new(k.compile().unwrap());
        let desc = Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(2), Dim2::x(128))
                .smem_per_cta(128 * 4)
                .params([input, out])
                .build()
                .unwrap(),
        );
        let checked = check_memo_direct_and_replayed(&desc, || setup().0);
        assert!(checked > 1000, "only {checked} clean slots checked");

        // Warp 0 exits behind a global load while warp 1 already waits at
        // a barrier, so the exit releases it. Structured DSL code cannot
        // express this (its barriers are CTA-uniform), hence raw code.
        use gpgpu_isa::{Guard, Pred, Reg};
        let early = Some(Guard {
            pred: Pred(0),
            expect: true,
        });
        let instrs = vec![
            Instruction::new(Instr::Special {
                dst: Reg(0),
                sreg: SpecialReg::TidX,
            }),
            Instruction::new(Instr::SetP {
                dst: Pred(0),
                cmp: CmpOp::Lt,
                ty: CmpTy::U64,
                a: Operand::Reg(Reg(0)),
                b: Operand::Imm(32),
            }),
            Instruction {
                guard: early,
                op: Instr::Ld {
                    space: MemSpace::Global,
                    dst: Reg(1),
                    addr: gpgpu_isa::AddrExpr {
                        base: Reg(0),
                        offset: 0x1000,
                    },
                    width: AccessWidth::W4,
                },
            },
            Instruction {
                guard: early,
                op: Instr::Exit,
            },
            Instruction::new(Instr::Bar),
            Instruction::new(Instr::Exit),
        ];
        let prog = Arc::new(gpgpu_isa::Program::from_instructions("early-exit", instrs).unwrap());
        let desc = Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(1), Dim2::x(64))
                .build()
                .unwrap(),
        );
        assert!(check_memo_direct_and_replayed(&desc, GlobalMem::new) > 0);
    }

    #[test]
    fn stall_priority_is_mem_then_exec_then_scoreboard_then_barrier() {
        use ReadyState::*;
        // Two partitions over eight slots; partition 0 owns 0, 2, 4, 6.
        let mut t = ReadyTable::new(8, 2);
        let put = |t: &mut ReadyTable, slot: usize, state: ReadyState| {
            t.set_occupied(slot, true);
            t.set(slot, state);
        };
        // A memory-blocked warp in the other partition and a stale class
        // bit on an empty slot of this one must not count.
        put(&mut t, 1, BlockedMem);
        put(&mut t, 6, BlockedMem);
        t.set_occupied(6, false);
        put(&mut t, 0, BlockedBarrier);
        assert_eq!(t.classify_stall(0, false, false), SlotStall::Barrier);
        put(&mut t, 2, BlockedScoreboard);
        assert_eq!(t.classify_stall(0, false, false), SlotStall::Scoreboard);
        put(&mut t, 4, ReadyMemShared);
        assert_eq!(t.candidates(0, 0, false, true), 1 << 4);
        assert_eq!(t.candidates(0, 0, false, false), 0);
        assert_eq!(t.classify_stall(0, false, false), SlotStall::ExecBusy);
        put(&mut t, 2, ReadyMemGlobal);
        assert_eq!(t.candidates(0, 0, true, false), 1 << 2);
        assert_eq!(t.classify_stall(0, false, false), SlotStall::MemPending);
        put(&mut t, 2, BlockedMem);
        assert_eq!(t.classify_stall(0, true, false), SlotStall::MemPending);
        // Re-setting a slot moves it between classes rather than adding one.
        put(&mut t, 2, BlockedScoreboard);
        assert_eq!(t.classify_stall(0, true, false), SlotStall::ExecBusy);
        assert_eq!(t.occupied_in(1, 0), 1 << 1);
    }

    #[test]
    fn special_values() {
        let mut k = DslKernel::new("s", Dim2::new(16, 2));
        k.movi(0u64);
        let prog = Arc::new(k.compile().unwrap());
        let d = KernelDescriptor::builder(prog, Dim2::new(3, 2), Dim2::new(16, 2))
            .build()
            .unwrap();
        let lane = |sreg, cta, warp, lane: usize| special_lanes(sreg, &d, cta, warp)[lane];
        // CTA 4 => coords (1, 1) in a 3x2 grid.
        assert_eq!(lane(SpecialReg::CtaIdX, 4, 0, 0), 1);
        assert_eq!(lane(SpecialReg::CtaIdY, 4, 0, 0), 1);
        // Lane 17 of warp 0: linear tid 17 => (1, 1) in a 16x2 block.
        assert_eq!(lane(SpecialReg::TidX, 0, 0, 17), 1);
        assert_eq!(lane(SpecialReg::TidY, 0, 0, 17), 1);
        assert_eq!(lane(SpecialReg::NTidX, 0, 0, 0), 16);
        assert_eq!(lane(SpecialReg::LaneId, 0, 0, 9), 9);
        assert_eq!(lane(SpecialReg::CtaLinear, 4, 0, 0), 4);
        // Warp 0 of a 16x2 block: lane l is thread (l % 16, l / 16).
        assert_eq!(
            special_lanes(SpecialReg::TidY, &d, 0, 0),
            std::array::from_fn(|l| (l / 16) as u64)
        );
    }
}
