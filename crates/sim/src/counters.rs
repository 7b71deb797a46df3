//! The counter registry: every per-core cycle-accounting counter, declared
//! once, as one row of the table at the bottom of this file.
//!
//! The rows use the table machinery of
//! [`gpgpu_mem::counters`](mod@gpgpu_mem::counters) (the row grammar,
//! [`Counter`], [`Sample`], [`ratio`]), which also declares the
//! memory-side tables. They generate [`CoreStats`] and [`COUNTERS`], and
//! the stall-taxonomy rows also [`StallBreakdown`] and [`STALL_LABELS`].
//! The store codec, `exp report`, the interval sampler and the
//! `stall_breakdown` of `BENCH_sim.json` walk [`COUNTERS`]. Sampled rows
//! follow the memory columns of `intervals.csv` in table order, so adding
//! a counter is one row at the end of the table, which appends its column,
//! plus the increment at its source.

pub use gpgpu_mem::counters::{ratio, Counter, Sample};

/// Number of stall-taxonomy categories.
pub const STALL_CATEGORIES: usize = STALL_LABELS.len();

impl StallBreakdown {
    /// Every scheduler slot accounted: issued plus all stall categories.
    pub fn total_slots(&self) -> u64 {
        self.issued_slots + self.stall_total()
    }

    /// `count` as a fraction of all scheduler slots (0 when empty).
    pub fn slot_fraction(&self, count: u64) -> f64 {
        ratio(count, self.total_slots())
    }

    /// Average resident CTAs per core over the run.
    pub fn avg_resident_ctas(&self) -> f64 {
        ratio(self.cta_resident_cycles, self.core_cycles)
    }

    /// Average resident warps per core over the run.
    pub fn avg_resident_warps(&self) -> f64 {
        ratio(self.warp_resident_cycles, self.core_cycles)
    }
}

/// Generates [`StallBreakdown`], [`CoreStats::breakdown`] and
/// [`STALL_LABELS`] from the rewritten rows of the [`CoreStats`] table
/// (the `with` callback of `counters!`).
macro_rules! stall_breakdown {
    ($([$(#[$m:meta])*] $f:ident $bd:ident $since:literal ($sample:expr) ($stall:expr)
        [$($label:literal)?])*) => {
        /// Device-wide cycle accounting: [`CoreStats`] summed over cores,
        /// with the taxonomy fields under their short names. Built by
        /// [`SimStats::stall_breakdown`](crate::SimStats::stall_breakdown).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StallBreakdown {
            $($(#[$m])* pub $bd: u64,)*
        }

        impl CoreStats {
            /// The counters under their [`StallBreakdown`] names.
            pub fn breakdown(&self) -> StallBreakdown {
                StallBreakdown { $($bd: self.$f,)* }
            }

            /// Sum of the stall-taxonomy counters.
            pub fn stall_total(&self) -> u64 {
                self.breakdown().stall_total()
            }
        }

        impl StallBreakdown {
            /// `(label, count)` for each taxonomy category, in table order.
            pub fn categories(&self) -> [(&'static str, u64); STALL_CATEGORIES] {
                [$($(($label, self.$bd),)?)*]
            }

            /// Sum of the taxonomy counters; equals
            /// `idle_slots + stalled_slots` by the conservation identity.
            pub fn stall_total(&self) -> u64 {
                self.categories().iter().map(|&(_, n)| n).sum()
            }
        }

        /// The stall-taxonomy labels, in table order.
        pub const STALL_LABELS: &[&str] = &[$($($label,)?)*];
    };
}

gpgpu_mem::counters! {
    /// Per-core issue/stall statistics.
    ///
    /// Every scheduler slot that fails to issue is attributed to exactly
    /// one stall-taxonomy category, so per core
    /// `stall_total() == idle_slots + stalled_slots` at all times (checked
    /// by [`conservation_violations`](crate::invariants::conservation_violations)).
    /// All counters are observational and byte-identical with the fast
    /// path (core sleep, idle fast-forward) on or off.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct CoreStats in COUNTERS with stall_breakdown {
        /// Instructions issued (warp-instructions, not lane-ops).
        issued: "1.0";
        /// Scheduler-slot cycles with no resident warps at all.
        idle_slots: "1.0";
        /// Scheduler-slot cycles where warps existed but none were ready.
        stalled_slots: "1.0";
        /// Scheduler-slot cycles that issued.
        issued_slots: "1.0";
        /// Global-memory line transactions generated.
        gmem_transactions: "1.0";
        /// Shared-memory replays beyond the first pass (bank conflicts).
        shared_replays: "1.0";
        /// CTAs completed.
        ctas_completed: "1.0";
        /// Core cycles observed (live plus slept); equals the device clock,
        /// since every core is stepped (or settled) every cycle.
        core_cycles: "1.1";
        /// Non-issuing slots of a scheduler partition with no resident warps
        /// (undersubscribed core), outside quiet cycles.
        stall_no_resident: "1.1", stall(no_resident, "NoResidentWarp");
        /// Non-issuing slots where every resident warp waits on a scoreboard
        /// dependency (an in-flight ALU/SFU/shared writeback).
        stall_scoreboard: "1.1", stall(scoreboard, "ScoreboardDep");
        /// Non-issuing slots attributable to the memory system: a warp with
        /// global loads outstanding, or a global access stopped by a full
        /// LSQ/MSHR.
        stall_mem_pending: "1.1", stall(mem_pending, "MemPending");
        /// Non-issuing slots where a ready shared-memory access waits for the
        /// shared pipe (bank-conflict replays in flight).
        stall_exec_busy: "1.1", stall(exec_busy, "ExecUnitBusy");
        /// Non-issuing slots where every resident warp waits at a CTA barrier.
        stall_barrier: "1.1", stall(barrier, "BarrierWait");
        /// Slots of provably-quiet cycles: no ready warp, an empty LSQ and no
        /// downstream traffic, so nothing on this core could issue or make
        /// progress without an external event. Booked identically whether the
        /// core runs the cycle live or sleeps through it.
        stall_ff_idle: "1.1", stall(ff_idle, "FastForwardedIdle");
        /// Cycle-weighted resident-CTA integral: Σ over cycles of the CTA
        /// count. Divide by `core_cycles` for average CTA occupancy.
        cta_resident_cycles: "1.1", sampled per_core(avg_resident_ctas);
        /// Cycle-weighted resident-warp integral: Σ over cycles of the
        /// resident warp count. Divide by `core_cycles` for average warp
        /// occupancy.
        warp_resident_cycles: "1.1", sampled per_core(avg_resident_warps);
    }
}
