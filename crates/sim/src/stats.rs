//! Simulation statistics: per-kernel and whole-run roll-ups.
//!
//! Every counter here is deterministic and purely observational: a run's
//! [`SimStats`] is byte-identical with the idle fast-forward on or off
//! (enforced by `tests/golden_identity.rs` and the simcheck differential
//! oracle).

use crate::counters::{ratio, CoreStats, StallBreakdown};
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
        ratio(self.instructions, self.cycles())
    }

    /// Instructions per cycle as of cycle `now`: meaningful mid-run
    /// (in-flight kernels report their IPC so far rather than 0).
    pub fn ipc_at(&self, now: Cycle) -> f64 {
        ratio(self.instructions, self.elapsed(now))
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
        ratio(self.instructions, self.cycles)
    }

    /// The stats entry for `kernel`.
    pub fn kernel(&self, kernel: KernelId) -> Option<&KernelStats> {
        self.kernels.iter().find(|k| k.id == kernel)
    }

    /// Device-wide cycle-accounting roll-up: the stall taxonomy and
    /// occupancy integrals summed over every core.
    pub fn stall_breakdown(&self) -> StallBreakdown {
        let mut total = CoreStats::default();
        for c in &self.cores {
            total.merge(c);
        }
        total.breakdown()
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
