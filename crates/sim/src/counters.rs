//! The counter registry: every per-core cycle-accounting counter, declared
//! once, as one row of the table at the bottom of this file.
//!
//! The [`CoreStats`] and [`StallBreakdown`] structs, their sums and
//! deltas, and [`COUNTERS`] are generated from the table. Every consumer
//! that handles counters by name walks [`COUNTERS`]: the store codec,
//! `exp report`, the interval sampler's `intervals.csv` and JSONL columns
//! and the `stall_breakdown` of `BENCH_sim.json`.
//!
//! A row reads `field: "since"`, where `since` is the store schema version
//! that introduced the field (fields since `"1.0"` are required when
//! decoding; later ones decode as 0 when absent), then optionally:
//!
//! - `stall(short, "Label")`: a stall-taxonomy category, called `short` in
//!   [`StallBreakdown`] and `Label` in reports; its interval delta is
//!   sampled under the field name;
//! - `sampled`: the interval delta is sampled under the field name;
//! - `sampled per_core(name)`: it is sampled as a per-core, per-cycle mean
//!   under `name`.
//!
//! Sampled rows follow the memory columns of `intervals.csv` in table
//! order; the older slot columns (`instructions`, `issued_slots`, …) are
//! placed by name in telemetry's column list. **Adding a counter** is one
//! row at the end of the table, which appends its column, plus the
//! increment at its source.

/// How a counter appears in the interval outputs (`intervals.csv` and the
/// JSONL sample).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sample {
    /// Not sampled.
    No,
    /// The interval's delta, under the counter's name.
    Delta,
    /// The interval's delta divided by cycles × cores, under this name.
    PerCoreMean(&'static str),
}

/// One row of the registry.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    /// The [`CoreStats`] field name, which is also its store key.
    pub name: &'static str,
    /// Store schema version that introduced the field.
    pub since: &'static str,
    /// How the interval outputs show it.
    pub sample: Sample,
    /// The stall-taxonomy label, for taxonomy rows.
    pub stall: Option<&'static str>,
    /// Reads the field.
    pub get: fn(&CoreStats) -> u64,
    /// Borrows the field mutably.
    pub get_mut: fn(&mut CoreStats) -> &mut u64,
}

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

/// `n / d`, or 0 when `d` is 0.
pub fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Declares the registry. The `@rows` rules rewrite each row into one
/// shape, `[attrs] field breakdown_name since (sample) (stall) [label]`,
/// and `@gen` generates every item from the rewritten rows.
macro_rules! counters {
    (@rows [$($d:tt)*]) => { counters!(@gen $($d)*); };
    (@rows [$($d:tt)*] $(#[$m:meta])* $f:ident: $v:literal, stall($b:ident, $l:literal); $($r:tt)*) => {
        counters!(@rows [$($d)* [$(#[$m])*] $f $b $v (Sample::Delta) (Some($l)) [$l]] $($r)*);
    };
    (@rows [$($d:tt)*] $(#[$m:meta])* $f:ident: $v:literal, sampled per_core($n:ident); $($r:tt)*) => {
        counters!(@rows [$($d)* [$(#[$m])*] $f $f $v (Sample::PerCoreMean(stringify!($n))) (None) []]
            $($r)*);
    };
    (@rows [$($d:tt)*] $(#[$m:meta])* $f:ident: $v:literal, sampled; $($r:tt)*) => {
        counters!(@rows [$($d)* [$(#[$m])*] $f $f $v (Sample::Delta) (None) []] $($r)*);
    };
    (@rows [$($d:tt)*] $(#[$m:meta])* $f:ident: $v:literal; $($r:tt)*) => {
        counters!(@rows [$($d)* [$(#[$m])*] $f $f $v (Sample::No) (None) []] $($r)*);
    };
    (@gen $([$(#[$m:meta])*] $f:ident $bd:ident $since:literal ($sample:expr) ($stall:expr)
        [$($label:literal)?])*) => {
        /// Per-core issue/stall statistics.
        ///
        /// Every scheduler slot that fails to issue is attributed to
        /// exactly one stall-taxonomy category, so per core
        /// `stall_total() == idle_slots + stalled_slots` at all times
        /// (checked by
        /// [`conservation_violations`](crate::invariants::conservation_violations)).
        /// All counters are observational and byte-identical with the
        /// fast path (core sleep, idle fast-forward) on or off.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct CoreStats {
            $($(#[$m])* pub $f: u64,)*
        }

        /// Device-wide cycle accounting: [`CoreStats`] summed over cores,
        /// with the taxonomy fields under their short names. Built by
        /// [`SimStats::stall_breakdown`](crate::SimStats::stall_breakdown).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StallBreakdown {
            $($(#[$m])* pub $bd: u64,)*
        }

        impl CoreStats {
            /// Adds `other` counter by counter.
            pub fn add(&mut self, other: &CoreStats) {
                $(self.$f += other.$f;)*
            }

            /// `self + other` counter by counter, or `None` when any sum
            /// overflows (for counters read from outside input).
            pub fn checked_add(&self, other: &CoreStats) -> Option<CoreStats> {
                Some(CoreStats { $($f: self.$f.checked_add(other.$f)?,)* })
            }

            /// `self - earlier`, counter by counter.
            pub fn delta(&self, earlier: &CoreStats) -> CoreStats {
                CoreStats { $($f: self.$f - earlier.$f,)* }
            }

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

        /// Every counter, in table order (also the store's field order).
        pub const COUNTERS: &[Counter] = &[$(Counter {
            name: stringify!($f),
            since: $since,
            sample: $sample,
            stall: $stall,
            get: |s| s.$f,
            get_mut: |s| &mut s.$f,
        },)*];
    };
    ($($rows:tt)*) => { counters!(@rows [] $($rows)*); };
}

counters! {
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
