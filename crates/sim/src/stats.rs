//! Simulation statistics: per-kernel and whole-run roll-ups.
//!
//! Every counter here is deterministic and purely observational: a run's
//! [`SimStats`] is byte-identical with the idle fast-forward on or off
//! (enforced by `tests/golden_identity.rs` and the simcheck differential
//! oracle).

use crate::core_model::CoreStats;
use crate::sched_api::KernelId;
use gpgpu_mem::{CacheStats, Cycle, FabricStats};

/// Per-kernel outcome of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// The kernel's id.
    pub id: KernelId,
    /// Kernel name (shared with the descriptor).
    pub name: std::sync::Arc<str>,
    /// Cycle the kernel became dispatchable.
    pub start_cycle: Cycle,
    /// Cycle its last CTA retired (0 while running).
    pub end_cycle: Cycle,
    /// Dynamic warp-instructions issued for this kernel.
    pub instructions: u64,
    /// CTAs in the grid.
    pub ctas: u64,
    /// Whether the kernel has become dispatchable yet (distinguishes a
    /// pending kernel from one activated at cycle 0).
    pub started: bool,
    /// Whether the kernel has completed.
    pub done: bool,
}

impl KernelStats {
    /// Execution time in cycles (0 while running — use
    /// [`elapsed`](Self::elapsed) for an in-flight kernel).
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }

    /// Cycles the kernel has been running as of cycle `now`: its final
    /// execution time once done, the time since activation while in
    /// flight, and 0 while still pending.
    pub fn elapsed(&self, now: Cycle) -> u64 {
        if self.done {
            self.cycles()
        } else if self.started {
            now.saturating_sub(self.start_cycle)
        } else {
            0
        }
    }

    /// Instructions per cycle over the kernel's own lifetime.
    ///
    /// 0 while the kernel is in flight — mid-run consumers (the interval
    /// sampler, progress reports) should use [`ipc_at`](Self::ipc_at).
    pub fn ipc(&self) -> f64 {
        let c = self.cycles();
        if c == 0 {
            0.0
        } else {
            self.instructions as f64 / c as f64
        }
    }

    /// Instructions per cycle as of cycle `now`: meaningful mid-run
    /// (in-flight kernels report their IPC so far rather than 0).
    pub fn ipc_at(&self, now: Cycle) -> f64 {
        let c = self.elapsed(now);
        if c == 0 {
            0.0
        } else {
            self.instructions as f64 / c as f64
        }
    }
}

/// Whole-run statistics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Total warp-instructions issued.
    pub instructions: u64,
    /// Per-kernel outcomes, in launch order.
    pub kernels: Vec<KernelStats>,
    /// L1 counters summed over cores.
    pub l1: CacheStats,
    /// Off-core memory-system counters.
    pub fabric: FabricStats,
    /// Per-core issue/stall counters.
    pub cores: Vec<CoreStats>,
    /// CTA-scheduler decisions the device had to discard as malformed
    /// (nonexistent core, zero count, or unknown kernel). Always 0 for
    /// well-behaved policies; debug builds additionally assert.
    pub malformed_dispatches: u64,
}

impl SimStats {
    /// Aggregate instructions-per-cycle over the whole run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// The stats entry for `kernel`.
    pub fn kernel(&self, kernel: KernelId) -> Option<&KernelStats> {
        self.kernels.iter().find(|k| k.id == kernel)
    }

    /// Device-wide cycle-accounting roll-up: the stall taxonomy and
    /// occupancy integrals summed over every core.
    pub fn stall_breakdown(&self) -> StallBreakdown {
        let mut b = StallBreakdown::default();
        for c in &self.cores {
            b.core_cycles += c.core_cycles;
            b.issued_slots += c.issued_slots;
            b.idle_slots += c.idle_slots;
            b.stalled_slots += c.stalled_slots;
            b.no_resident += c.stall_no_resident;
            b.scoreboard += c.stall_scoreboard;
            b.mem_pending += c.stall_mem_pending;
            b.exec_busy += c.stall_exec_busy;
            b.barrier += c.stall_barrier;
            b.ff_idle += c.stall_ff_idle;
            b.cta_resident_cycles += c.cta_resident_cycles;
            b.warp_resident_cycles += c.warp_resident_cycles;
        }
        b
    }
}

/// Device-wide cycle accounting: where every scheduler slot went, summed
/// over cores (see [`CoreStats`] for the per-core counters and the
/// conservation identity). Built by [`SimStats::stall_breakdown`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Core cycles summed over cores (device cycles × core count).
    pub core_cycles: u64,
    /// Scheduler slots that issued.
    pub issued_slots: u64,
    /// Scheduler slots with no resident warps (legacy counter).
    pub idle_slots: u64,
    /// Scheduler slots with resident but unready warps (legacy counter).
    pub stalled_slots: u64,
    /// `NoResidentWarp` stall slots.
    pub no_resident: u64,
    /// `ScoreboardDep` stall slots.
    pub scoreboard: u64,
    /// `MemPending` (outstanding loads / LSQ / MSHR-full) stall slots.
    pub mem_pending: u64,
    /// `ExecUnitBusy` (shared-pipe busy, pick-declined) stall slots.
    pub exec_busy: u64,
    /// `BarrierWait` stall slots.
    pub barrier: u64,
    /// `FastForwardedIdle` (provably quiet cycle) stall slots.
    pub ff_idle: u64,
    /// Cycle-weighted resident-CTA integral summed over cores.
    pub cta_resident_cycles: u64,
    /// Cycle-weighted resident-warp integral summed over cores.
    pub warp_resident_cycles: u64,
}

impl StallBreakdown {
    /// Sum of the six taxonomy counters; equals
    /// `idle_slots + stalled_slots` by the conservation identity.
    pub fn stall_total(&self) -> u64 {
        self.no_resident
            + self.scoreboard
            + self.mem_pending
            + self.exec_busy
            + self.barrier
            + self.ff_idle
    }

    /// Every scheduler slot accounted: issued plus all stall categories.
    pub fn total_slots(&self) -> u64 {
        self.issued_slots + self.stall_total()
    }

    /// `count` as a fraction of all scheduler slots (0 when empty).
    pub fn slot_fraction(&self, count: u64) -> f64 {
        let total = self.total_slots();
        if total == 0 {
            0.0
        } else {
            count as f64 / total as f64
        }
    }

    /// Average resident CTAs per core over the run.
    pub fn avg_resident_ctas(&self) -> f64 {
        if self.core_cycles == 0 {
            0.0
        } else {
            self.cta_resident_cycles as f64 / self.core_cycles as f64
        }
    }

    /// Average resident warps per core over the run.
    pub fn avg_resident_warps(&self) -> f64 {
        if self.core_cycles == 0 {
            0.0
        } else {
            self.warp_resident_cycles as f64 / self.core_cycles as f64
        }
    }

    /// `(label, count)` pairs for the six taxonomy categories, in
    /// rendering order (the labels are the ISSUE/DESIGN taxonomy names).
    pub fn categories(&self) -> [(&'static str, u64); 6] {
        [
            ("NoResidentWarp", self.no_resident),
            ("ScoreboardDep", self.scoreboard),
            ("MemPending", self.mem_pending),
            ("ExecUnitBusy", self.exec_busy),
            ("BarrierWait", self.barrier),
            ("FastForwardedIdle", self.ff_idle),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_ipc() {
        let k = KernelStats {
            id: KernelId(0),
            name: "k".into(),
            start_cycle: 100,
            end_cycle: 300,
            instructions: 400,
            ctas: 8,
            started: true,
            done: true,
        };
        assert_eq!(k.cycles(), 200);
        assert!((k.ipc() - 2.0).abs() < 1e-12);
        // elapsed/ipc_at agree with the final numbers once done,
        // regardless of `now`.
        assert_eq!(k.elapsed(10_000), 200);
        assert!((k.ipc_at(10_000) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn running_kernel_has_zero_ipc() {
        let k = KernelStats {
            id: KernelId(0),
            name: "k".into(),
            start_cycle: 100,
            end_cycle: 0,
            instructions: 400,
            ctas: 8,
            started: true,
            done: false,
        };
        assert_eq!(k.cycles(), 0);
        assert_eq!(k.ipc(), 0.0);
    }

    #[test]
    fn in_flight_kernel_reports_elapsed_ipc() {
        let k = KernelStats {
            id: KernelId(0),
            name: "k".into(),
            start_cycle: 100,
            end_cycle: 0,
            instructions: 400,
            ctas: 8,
            started: true,
            done: false,
        };
        assert_eq!(k.elapsed(300), 200);
        assert!((k.ipc_at(300) - 2.0).abs() < 1e-12);
        assert_eq!(k.elapsed(50), 0, "clock before activation saturates");
    }

    #[test]
    fn stall_breakdown_sums_cores() {
        let mut a = CoreStats::default();
        a.core_cycles = 100;
        a.issued_slots = 40;
        a.idle_slots = 10;
        a.stalled_slots = 50;
        a.stall_scoreboard = 30;
        a.stall_mem_pending = 20;
        a.stall_no_resident = 10;
        a.cta_resident_cycles = 300;
        a.warp_resident_cycles = 1200;
        let mut b = CoreStats::default();
        b.core_cycles = 100;
        b.stall_ff_idle = 100;
        b.idle_slots = 100;
        let s = SimStats {
            cycles: 100,
            instructions: 0,
            kernels: Vec::new(),
            l1: Default::default(),
            fabric: Default::default(),
            cores: vec![a, b],
            malformed_dispatches: 0,
        };
        let bd = s.stall_breakdown();
        assert_eq!(bd.core_cycles, 200);
        assert_eq!(bd.stall_total(), 30 + 20 + 10 + 100);
        assert_eq!(bd.stall_total(), bd.idle_slots + bd.stalled_slots);
        assert_eq!(bd.total_slots(), 40 + 160);
        assert!((bd.avg_resident_ctas() - 1.5).abs() < 1e-12);
        assert!((bd.avg_resident_warps() - 6.0).abs() < 1e-12);
        assert!((bd.slot_fraction(bd.issued_slots) - 0.2).abs() < 1e-12);
        let cats = bd.categories();
        assert_eq!(cats[1], ("ScoreboardDep", 30));
        assert_eq!(cats[5], ("FastForwardedIdle", 100));
    }

    #[test]
    fn pending_kernel_reports_zero() {
        let k = KernelStats {
            id: KernelId(1),
            name: "k".into(),
            start_cycle: 0,
            end_cycle: 0,
            instructions: 0,
            ctas: 8,
            started: false,
            done: false,
        };
        assert_eq!(k.elapsed(9999), 0, "pending, not 'running since 0'");
        assert_eq!(k.ipc_at(9999), 0.0);
    }
}
