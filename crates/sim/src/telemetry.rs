//! Time-resolved telemetry: an interval sampler and a structured event
//! trace over the running device.
//!
//! End-of-run roll-ups ([`SimStats`](crate::stats::SimStats)) cannot show
//! *when* L1/MSHR contention builds, *when* LCS throttles a core, or how
//! two co-scheduled kernels interleave. This module adds two time-resolved
//! faces, both off by default and zero-cost when disabled:
//!
//! * **Interval sampler** — every `sample_every` cycles the device emits an
//!   [`IntervalSample`]: the deltas of every per-core, L1, L2 and DRAM
//!   counter table, plus instantaneous occupancy (resident CTAs/warps per
//!   core, L1 MSHR entries in use, functional-memory footprint). The first
//!   interval starts at the cycle telemetry is attached.
//! * **Event trace** — a [`TraceEvent`] per kernel launch/completion, CTA
//!   dispatch/retirement (with core id), concurrent-kernel co-schedule
//!   admission, and policy decision (LCS limits, BCS block placements).
//!
//! Both go to one place: the device appends them to a [`TelemetryData`],
//! which [`GpuDevice::take_telemetry`](crate::device::GpuDevice::take_telemetry)
//! hands back when the run detaches telemetry. Writing files stays out of
//! the simulation loop.
//!
//! Events are emitted in simulation order (cycle-major, with a stable
//! within-cycle order: launches, dispatches, retirements, completions,
//! policy decisions, then the sample), so a trace is deterministic and
//! byte-diffable regardless of how many worker threads the harness uses.
//!
//! Events round-trip through flat JSON objects ([`TraceEvent::to_json`]
//! writes them directly; [`TraceEvent::from_json`] reads them with the
//! crate's one JSON parser, [`crate::json`]) and samples render as CSV
//! rows ([`IntervalSample::csv_row`]), whose counter columns come from the
//! [counter registry](crate::counters).

use crate::core_model::Core;
use crate::counters::{ratio, CoreStats, Counter, Sample, COUNTERS};
use crate::json::{quoted, Json};
use crate::sched_api::KernelId;
use gpgpu_mem::{CacheStats, Cycle, DramStats, MemFabric};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::Arc;

/// Telemetry configuration: pure data, carried by harness run specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Interval length in cycles between samples; `0` disables sampling.
    pub sample_every: u64,
}

impl TelemetryConfig {
    /// Sampling every `sample_every` cycles, with the event trace.
    pub fn new(sample_every: u64) -> Self {
        TelemetryConfig { sample_every }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::new(1000)
    }
}

/// A policy-level decision surfaced by a CTA scheduler (see
/// [`CtaScheduler::take_trace_events`](crate::sched_api::CtaScheduler::take_trace_events)).
///
/// The device stamps the cycle when it drains these into the trace, so
/// policies only describe *what* they decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyDecision {
    /// Core the decision applies to.
    pub core: usize,
    /// Kernel the decision applies to.
    pub kernel: KernelId,
    /// Decision kind, e.g. `"lcs-limit"`, `"lcs-keep-max"`, `"bcs-block"`.
    pub action: &'static str,
    /// Decision payload (limit, block size, …); meaning depends on `action`.
    pub value: u64,
}

/// One structured trace event. All variants carry the emitting cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A kernel became dispatchable.
    KernelLaunch {
        /// Emitting cycle.
        cycle: Cycle,
        /// The kernel.
        kernel: KernelId,
        /// Kernel name, shared with the descriptor (no per-event
        /// allocation on the launch path).
        name: Arc<str>,
        /// CTAs in the grid.
        ctas: u64,
    },
    /// A kernel's last CTA retired.
    KernelComplete {
        /// Emitting cycle.
        cycle: Cycle,
        /// The kernel.
        kernel: KernelId,
        /// Execution cycles (completion − activation).
        cycles: u64,
        /// Warp-instructions issued for the kernel.
        instructions: u64,
    },
    /// A CTA was placed onto a core.
    CtaDispatch {
        /// Emitting cycle.
        cycle: Cycle,
        /// Owning kernel.
        kernel: KernelId,
        /// Global (linear) CTA id.
        cta: u64,
        /// Target core.
        core: usize,
    },
    /// A CTA retired from a core.
    CtaRetire {
        /// Emitting cycle.
        cycle: Cycle,
        /// Owning kernel.
        kernel: KernelId,
        /// Global (linear) CTA id.
        cta: u64,
        /// Core it ran on.
        core: usize,
    },
    /// A kernel's first CTA entered a core already hosting a *different*
    /// kernel's CTAs — the concurrent-kernel co-schedule admission point.
    CkeAdmit {
        /// Emitting cycle.
        cycle: Cycle,
        /// The admitted (trailing) kernel.
        kernel: KernelId,
        /// The shared core.
        core: usize,
    },
    /// A CTA-scheduler policy decision (see [`PolicyDecision`]).
    Policy {
        /// Cycle the device drained the decision.
        cycle: Cycle,
        /// Core the decision applies to.
        core: usize,
        /// Kernel the decision applies to.
        kernel: KernelId,
        /// Decision kind.
        action: String,
        /// Decision payload.
        value: u64,
    },
}

impl TraceEvent {
    /// The cycle the event was emitted at.
    pub fn cycle(&self) -> Cycle {
        match self {
            TraceEvent::KernelLaunch { cycle, .. }
            | TraceEvent::KernelComplete { cycle, .. }
            | TraceEvent::CtaDispatch { cycle, .. }
            | TraceEvent::CtaRetire { cycle, .. }
            | TraceEvent::CkeAdmit { cycle, .. }
            | TraceEvent::Policy { cycle, .. } => *cycle,
        }
    }

    /// Renders the event as one flat JSON object (one JSONL line, without
    /// the trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        match self {
            TraceEvent::KernelLaunch {
                cycle,
                kernel,
                name,
                ctas,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"kernel-launch\",\"cycle\":{cycle},\"kernel\":{},\"name\":{},\"ctas\":{ctas}}}",
                    kernel.0,
                    quoted(name)
                );
            }
            TraceEvent::KernelComplete {
                cycle,
                kernel,
                cycles,
                instructions,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"kernel-complete\",\"cycle\":{cycle},\"kernel\":{},\"cycles\":{cycles},\"instructions\":{instructions}}}",
                    kernel.0
                );
            }
            TraceEvent::CtaDispatch {
                cycle,
                kernel,
                cta,
                core,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"cta-dispatch\",\"cycle\":{cycle},\"kernel\":{},\"cta\":{cta},\"core\":{core}}}",
                    kernel.0
                );
            }
            TraceEvent::CtaRetire {
                cycle,
                kernel,
                cta,
                core,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"cta-retire\",\"cycle\":{cycle},\"kernel\":{},\"cta\":{cta},\"core\":{core}}}",
                    kernel.0
                );
            }
            TraceEvent::CkeAdmit {
                cycle,
                kernel,
                core,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"cke-admit\",\"cycle\":{cycle},\"kernel\":{},\"core\":{core}}}",
                    kernel.0
                );
            }
            TraceEvent::Policy {
                cycle,
                core,
                kernel,
                action,
                value,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"policy\",\"cycle\":{cycle},\"core\":{core},\"kernel\":{},\"action\":{},\"value\":{value}}}",
                    kernel.0,
                    quoted(action)
                );
            }
        }
        s
    }

    /// Parses one JSONL line produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem, unknown `type`,
    /// or missing field.
    pub fn from_json(line: &str) -> Result<TraceEvent, String> {
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        let str_field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let num_field = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing unsigned integer field {key:?}"))
        };
        let cycle = num_field("cycle")?;
        match str_field("type")?.as_str() {
            "kernel-launch" => Ok(TraceEvent::KernelLaunch {
                cycle,
                kernel: KernelId(num_field("kernel")? as usize),
                name: Arc::from(str_field("name")?),
                ctas: num_field("ctas")?,
            }),
            "kernel-complete" => Ok(TraceEvent::KernelComplete {
                cycle,
                kernel: KernelId(num_field("kernel")? as usize),
                cycles: num_field("cycles")?,
                instructions: num_field("instructions")?,
            }),
            "cta-dispatch" => Ok(TraceEvent::CtaDispatch {
                cycle,
                kernel: KernelId(num_field("kernel")? as usize),
                cta: num_field("cta")?,
                core: num_field("core")? as usize,
            }),
            "cta-retire" => Ok(TraceEvent::CtaRetire {
                cycle,
                kernel: KernelId(num_field("kernel")? as usize),
                cta: num_field("cta")?,
                core: num_field("core")? as usize,
            }),
            "cke-admit" => Ok(TraceEvent::CkeAdmit {
                cycle,
                kernel: KernelId(num_field("kernel")? as usize),
                core: num_field("core")? as usize,
            }),
            "policy" => Ok(TraceEvent::Policy {
                cycle,
                core: num_field("core")? as usize,
                kernel: KernelId(num_field("kernel")? as usize),
                action: str_field("action")?,
                value: num_field("value")?,
            }),
            other => Err(format!("unknown event type {other:?}")),
        }
    }
}

/// One interval of the time-resolved sampler: counter *deltas* over
/// `[cycle_start, cycle_end)` plus instantaneous occupancy at `cycle_end`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IntervalSample {
    /// First cycle of the interval (inclusive).
    pub cycle_start: Cycle,
    /// End of the interval (exclusive; the sampling instant).
    pub cycle_end: Cycle,
    /// Every registry counter's delta over the interval, summed over
    /// cores (`core.issued` is the warp-instructions issued).
    pub core: CoreStats,
    /// Resident CTAs per core at the sampling instant.
    pub core_ctas: Vec<u32>,
    /// Resident warps per core at the sampling instant.
    pub core_warps: Vec<u32>,
    /// Every L1 counter's delta over the interval, summed over cores.
    pub l1: CacheStats,
    /// L1 MSHR entries in use at the sampling instant, summed over cores.
    pub l1_mshrs_in_use: u64,
    /// Every L2 counter's delta over the interval, summed over slices.
    pub l2: CacheStats,
    /// Every DRAM counter's delta over the interval, summed over channels.
    pub dram: DramStats,
    /// 4 KiB functional-memory pages materialized by the end of the
    /// interval (the workload's touched footprint).
    pub gmem_pages: u64,
}

impl IntervalSample {
    /// Interval length in cycles.
    pub fn cycles(&self) -> u64 {
        self.cycle_end.saturating_sub(self.cycle_start)
    }

    /// Whole-device IPC over the interval.
    pub fn ipc(&self) -> f64 {
        ratio(self.core.issued, self.cycles())
    }

    /// `delta` per core and per cycle of the interval: for an occupancy
    /// integral, the cycle-weighted average occupancy of one core.
    pub fn per_core_mean(&self, delta: u64) -> f64 {
        ratio(delta, self.cycles() * self.core_ctas.len() as u64)
    }

    /// The CSV header matching [`csv_row`](Self::csv_row).
    ///
    /// New columns are append-only: downstream consumers (and the CI
    /// trace-smoke grep) key on the `cycle_start,cycle_end,ipc,` prefix.
    pub fn csv_header() -> String {
        csv_columns().map(Column::name).collect::<Vec<_>>().join(",")
    }

    /// Renders the sample as one CSV row (per-core vectors join with
    /// `|`, so the row stays flat).
    pub fn csv_row(&self) -> String {
        let mut out = String::with_capacity(256);
        for (i, col) in csv_columns().enumerate() {
            if i > 0 {
                out.push(',');
            }
            col.write(self, &mut out);
        }
        out
    }
}

/// One value of an interval output.
enum Cell<'a> {
    Int(u64),
    Real(f64),
    PerCore(&'a [u32]),
}

/// One column of `intervals.csv`: the header name and the value come from
/// the same entry, so they cannot disagree.
enum Column {
    /// A value of the sample itself.
    Field(&'static str, for<'a> fn(&'a IntervalSample) -> Cell<'a>),
    /// A sampled registry counter.
    Counter(&'static Counter<CoreStats>),
}

impl Column {
    fn name(self) -> &'static str {
        match self {
            Column::Field(name, _) => name,
            Column::Counter(c) => match c.sample {
                Sample::PerCoreMean(name) => name,
                Sample::Delta | Sample::No => c.name,
            },
        }
    }

    fn write(self, s: &IntervalSample, out: &mut String) {
        let cell = match self {
            Column::Field(_, get) => get(s),
            Column::Counter(c) => match c.sample {
                Sample::PerCoreMean(_) => Cell::Real(s.per_core_mean((c.get)(&s.core))),
                Sample::Delta | Sample::No => Cell::Int((c.get)(&s.core)),
            },
        };
        let _ = match cell {
            Cell::Int(n) => write!(out, "{n}"),
            Cell::Real(x) => write!(out, "{x:.6}"),
            Cell::PerCore(v) => v.iter().enumerate().try_for_each(|(i, n)| {
                write!(out, "{}{n}", if i > 0 { "|" } else { "" })
            }),
        };
    }
}

/// The `intervals.csv` columns before the sampled registry rows.
const CSV_LEAD: [Column; 24] = [
    Column::Field("cycle_start", |s| Cell::Int(s.cycle_start)),
    Column::Field("cycle_end", |s| Cell::Int(s.cycle_end)),
    Column::Field("ipc", |s| Cell::Real(s.ipc())),
    Column::Field("instructions", |s| Cell::Int(s.core.issued)),
    Column::Field("issued_slots", |s| Cell::Int(s.core.issued_slots)),
    Column::Field("stalled_slots", |s| Cell::Int(s.core.stalled_slots)),
    Column::Field("idle_slots", |s| Cell::Int(s.core.idle_slots)),
    Column::Field("resident_ctas", |s| Cell::Int(s.core_ctas.iter().sum::<u32>().into())),
    Column::Field("resident_warps", |s| Cell::Int(s.core_warps.iter().sum::<u32>().into())),
    Column::Field("core_ctas", |s| Cell::PerCore(&s.core_ctas)),
    Column::Field("core_warps", |s| Cell::PerCore(&s.core_warps)),
    Column::Field("l1_accesses", |s| Cell::Int(s.l1.accesses())),
    Column::Field("l1_hits", |s| Cell::Int(s.l1.hits())),
    Column::Field("l1_hit_rate", |s| Cell::Real(ratio(s.l1.hits(), s.l1.accesses()))),
    Column::Field("l1_reservation_fails", |s| Cell::Int(s.l1.reservation_fails)),
    Column::Field("l1_mshrs_in_use", |s| Cell::Int(s.l1_mshrs_in_use)),
    Column::Field("l2_accesses", |s| Cell::Int(s.l2.accesses())),
    Column::Field("l2_hits", |s| Cell::Int(s.l2.hits())),
    Column::Field("l2_hit_rate", |s| Cell::Real(ratio(s.l2.hits(), s.l2.accesses()))),
    Column::Field("dram_row_hits", |s| Cell::Int(s.dram.row_hits)),
    Column::Field("dram_row_misses", |s| Cell::Int(s.dram.row_conflicts + s.dram.row_empty)),
    Column::Field("dram_row_hit_rate", |s| Cell::Real(s.dram.row_hit_rate())),
    Column::Field("dram_rejected", |s| Cell::Int(s.dram.rejected)),
    Column::Field("gmem_pages", |s| Cell::Int(s.gmem_pages)),
];

fn csv_columns() -> impl Iterator<Item = Column> {
    let sampled = COUNTERS.iter().filter(|c| c.sample != Sample::No);
    CSV_LEAD.into_iter().chain(sampled.map(Column::Counter))
}

/// Everything a run's telemetry produced, in emission order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryData {
    /// Trace events.
    pub events: Vec<TraceEvent>,
    /// Interval samples.
    pub samples: Vec<IntervalSample>,
}

impl TelemetryData {
    /// Writes the event trace as JSONL.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_events_jsonl(&self, w: &mut dyn Write) -> io::Result<()> {
        for ev in &self.events {
            writeln!(w, "{}", ev.to_json())?;
        }
        Ok(())
    }

    /// Writes the interval series as CSV (with header).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_samples_csv(&self, w: &mut dyn Write) -> io::Result<()> {
        writeln!(w, "{}", IntervalSample::csv_header())?;
        for s in &self.samples {
            writeln!(w, "{}", s.csv_row())?;
        }
        Ok(())
    }
}

/// The device-attached telemetry state: the sampling period, the data
/// collected so far, and the sampler's delta baseline. Constructed via
/// [`GpuDevice::enable_telemetry`](crate::device::GpuDevice::enable_telemetry),
/// which may attach it at any cycle: the first interval starts there.
pub(crate) struct Telemetry {
    sample_every: u64,
    data: TelemetryData,
    /// First cycle of the open interval.
    interval_start: Cycle,
    /// The cycle the open interval's sample fires at: `interval_start +
    /// sample_every`, saturated, so `Cycle::MAX` when sampling is off or
    /// the period outlasts any run (then only the final sample fires).
    next_sample_at: Cycle,
    /// Cumulative counters at the last sample boundary (or at attach), so
    /// samples report per-interval deltas.
    base: IntervalSample,
}

impl Telemetry {
    /// Telemetry with `cfg`, attached at cycle `now` to a device whose
    /// counters read as `cores` and `fabric` do: the first interval is
    /// `[now, now + sample_every)` and its deltas start from those
    /// counters.
    pub(crate) fn new(cfg: TelemetryConfig, now: Cycle, cores: &[Core], fabric: &MemFabric) -> Self {
        Telemetry {
            sample_every: cfg.sample_every,
            data: TelemetryData::default(),
            interval_start: now,
            next_sample_at: if cfg.sample_every == 0 {
                Cycle::MAX
            } else {
                now.saturating_add(cfg.sample_every)
            },
            base: totals(cores, fabric),
        }
    }

    /// The next cycle a sample fires at (`Cycle::MAX` when sampling is
    /// off). The idle fast-forward caps its jumps here so every interval
    /// boundary is still observed exactly.
    pub(crate) fn next_sample_at(&self) -> Cycle {
        self.next_sample_at
    }

    /// Records one event.
    pub(crate) fn record(&mut self, ev: TraceEvent) {
        self.data.events.push(ev);
    }

    /// Emits a sample if `now` reached the next interval boundary. Called
    /// by the device at the end of every cycle.
    pub(crate) fn maybe_sample(
        &mut self,
        now: Cycle,
        cores: &[Core],
        fabric: &MemFabric,
        gmem_pages: usize,
    ) {
        if now < self.next_sample_at {
            return;
        }
        self.emit_sample(self.interval_start, now, cores, fabric, gmem_pages);
        self.interval_start = self.next_sample_at;
        self.next_sample_at = self.next_sample_at.saturating_add(self.sample_every);
    }

    /// Emits the final, possibly partial interval when the run detaches
    /// telemetry.
    pub(crate) fn final_sample(
        &mut self,
        now: Cycle,
        cores: &[Core],
        fabric: &MemFabric,
        gmem_pages: usize,
    ) {
        if self.sample_every == 0 || now <= self.interval_start {
            return;
        }
        self.emit_sample(self.interval_start, now, cores, fabric, gmem_pages);
        self.interval_start = now;
        self.next_sample_at = now.saturating_add(self.sample_every);
    }

    fn emit_sample(
        &mut self,
        start: Cycle,
        end: Cycle,
        cores: &[Core],
        fabric: &MemFabric,
        gmem_pages: usize,
    ) {
        let total = totals(cores, fabric);
        let base = std::mem::replace(&mut self.base, total.clone());
        self.data.samples.push(IntervalSample {
            cycle_start: start,
            cycle_end: end,
            core: total.core.delta(&base.core),
            l1: total.l1.delta(&base.l1),
            l2: total.l2.delta(&base.l2),
            dram: total.dram.delta(&base.dram),
            gmem_pages: gmem_pages as u64,
            ..total
        });
    }

    /// Detaches the collected data.
    pub(crate) fn into_data(self) -> TelemetryData {
        self.data
    }
}

/// The device's cumulative counter tables, summed over cores and memory
/// partitions, with the instantaneous occupancy at this cycle.
fn totals(cores: &[Core], fabric: &MemFabric) -> IntervalSample {
    let f = fabric.stats();
    let mut s = IntervalSample {
        l2: f.l2,
        dram: f.dram,
        ..IntervalSample::default()
    };
    for core in cores {
        s.core.merge(core.stats());
        s.l1.merge(core.l1_stats());
        s.core_ctas.push(core.active_cta_count());
        s.core_warps.push(core.resident_warps());
        s.l1_mshrs_in_use += core.l1_mshrs_in_use() as u64;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::KernelLaunch {
                cycle: 0,
                kernel: KernelId(0),
                name: "vec\"add\\weird\n".into(),
                ctas: 120,
            },
            TraceEvent::KernelComplete {
                cycle: 9001,
                kernel: KernelId(1),
                cycles: 9001,
                instructions: 123_456,
            },
            TraceEvent::CtaDispatch {
                cycle: 3,
                kernel: KernelId(0),
                cta: 17,
                core: 14,
            },
            TraceEvent::CtaRetire {
                cycle: 887,
                kernel: KernelId(0),
                cta: 17,
                core: 14,
            },
            TraceEvent::CkeAdmit {
                cycle: 5000,
                kernel: KernelId(1),
                core: 2,
            },
            TraceEvent::Policy {
                cycle: 700,
                core: 3,
                kernel: KernelId(0),
                action: "lcs-limit".into(),
                value: 2,
            },
        ]
    }

    #[test]
    fn events_round_trip_through_json() {
        for ev in sample_events() {
            let line = ev.to_json();
            let back = TraceEvent::from_json(&line)
                .unwrap_or_else(|e| panic!("parse {line:?}: {e}"));
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn malformed_json_is_rejected() {
        for bad in [
            "",
            "{",
            "{}",
            "[1,2]",
            "{\"type\":\"kernel-launch\"}",
            "{\"type\":\"nonsense\",\"cycle\":3}",
            "{\"type\":\"cta-retire\",\"cycle\":1,\"kernel\":0,\"cta\":0,\"core\":0} trailing",
            "{\"type\":\"cta-retire\",\"cycle\":1,\"kernel\":0,\"cta\":0,\"core\":0}}",
            // Negative and fractional numbers are not u64 counters.
            "{\"type\":\"cta-retire\",\"cycle\":-1,\"kernel\":0,\"cta\":0,\"core\":0}",
            "{\"type\":\"cta-retire\",\"cycle\":1.5,\"kernel\":0,\"cta\":0,\"core\":0}",
            "{\"type\":\"cke-admit\",\"cycle\":1,\"kernel\":0,\"core\":2e0}",
            // A field of the wrong type, and a missing one.
            "{\"type\":\"cta-retire\",\"cycle\":\"1\",\"kernel\":0,\"cta\":0,\"core\":0}",
            "{\"type\":\"cta-retire\",\"cycle\":1,\"kernel\":0,\"core\":0}",
            "{\"type\":\"policy\",\"cycle\":1,\"core\":0,\"kernel\":0,\"value\":2}",
            // An unknown or missing event type.
            "{\"type\":\"cta-teleport\",\"cycle\":1,\"kernel\":0,\"cta\":0,\"core\":0}",
            "{\"cycle\":1,\"kernel\":0,\"cta\":0,\"core\":0}",
        ] {
            assert!(TraceEvent::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn sample_rates_and_csv_shape() {
        let s = IntervalSample {
            cycle_start: 1000,
            cycle_end: 2000,
            core: CoreStats {
                issued: 1500,
                issued_slots: 1500,
                stalled_slots: 400,
                idle_slots: 100,
                stall_no_resident: 40,
                stall_scoreboard: 200,
                stall_mem_pending: 150,
                stall_exec_busy: 30,
                stall_barrier: 20,
                stall_ff_idle: 60,
                cta_resident_cycles: 5000,
                warp_resident_cycles: 20_000,
                ..CoreStats::default()
            },
            core_ctas: vec![3, 2],
            core_warps: vec![12, 8],
            l1: CacheStats {
                load_accesses: 60,
                load_hits: 50,
                store_accesses: 40,
                store_hits: 30,
                reservation_fails: 5,
                ..CacheStats::default()
            },
            l1_mshrs_in_use: 7,
            l2: CacheStats {
                load_accesses: 20,
                load_hits: 10,
                ..CacheStats::default()
            },
            dram: DramStats {
                row_hits: 6,
                row_conflicts: 1,
                row_empty: 1,
                rejected: 1,
                ..DramStats::default()
            },
            gmem_pages: 33,
        };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
        // 5000 CTA-cycles over 1000 cycles × 2 cores → 2.5 CTAs/core; the
        // hit rates are 80/100, 10/20 and 6/(6+2).
        assert_eq!(
            s.csv_row(),
            "1000,2000,1.500000,1500,1500,400,100,5,20,3|2,12|8,100,80,0.800000,5,7,\
             20,10,0.500000,6,2,0.750000,1,33,40,200,150,30,20,60,2.500000,10.000000"
        );
        let header_cols = IntervalSample::csv_header().split(',').count();
        assert_eq!(s.csv_row().split(',').count(), header_cols);
    }

    #[test]
    fn empty_sample_is_safe() {
        let s = IntervalSample::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(
            s.csv_row(),
            "0,0,0.000000,0,0,0,0,0,0,,,0,0,0.000000,0,0,0,0,0.000000,0,0,0.000000,0,0,\
             0,0,0,0,0,0,0.000000,0.000000"
        );
    }

    #[test]
    fn telemetry_data_writers() {
        let data = TelemetryData {
            events: sample_events(),
            samples: vec![IntervalSample::default()],
        };
        let mut ev_buf = Vec::new();
        data.write_events_jsonl(&mut ev_buf).unwrap();
        let ev_text = String::from_utf8(ev_buf).unwrap();
        for line in ev_text.lines() {
            TraceEvent::from_json(line).unwrap();
        }
        let mut csv_buf = Vec::new();
        data.write_samples_csv(&mut csv_buf).unwrap();
        let csv_text = String::from_utf8(csv_buf).unwrap();
        assert_eq!(csv_text.lines().count(), 2);
    }
}
