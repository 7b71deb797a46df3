//! Time-resolved telemetry: an interval sampler and a structured event
//! trace over the running device.
//!
//! End-of-run roll-ups ([`SimStats`](crate::stats::SimStats)) cannot show
//! *when* L1/MSHR contention builds, *when* LCS throttles a core, or how
//! two co-scheduled kernels interleave. This module adds two time-resolved
//! faces, both off by default and zero-cost when disabled:
//!
//! * **Interval sampler** — every `sample_every` cycles the device emits an
//!   [`IntervalSample`]: deltas of issue/stall/idle slots, instructions,
//!   L1/L2 accesses and hits, L1 reservation fails, DRAM row hits/misses
//!   and queue rejections, plus instantaneous occupancy (resident
//!   CTAs/warps per core, L1 MSHR entries in use, functional-memory
//!   footprint).
//! * **Event trace** — a [`TraceEvent`] per kernel launch/completion, CTA
//!   dispatch/retirement (with core id), concurrent-kernel co-schedule
//!   admission, and policy decision (LCS limits, BCS block placements),
//!   delivered through a pluggable [`TraceSink`].
//!
//! Events are emitted in simulation order (cycle-major, with a stable
//! within-cycle order: launches, dispatches, retirements, completions,
//! policy decisions, then the sample), so a trace is deterministic and
//! byte-diffable regardless of how many worker threads the harness uses.
//!
//! Events round-trip through flat JSON objects ([`TraceEvent::to_json`]
//! writes them directly; [`TraceEvent::from_json`] reads them with the
//! crate's one JSON parser, [`crate::json`]) and samples render as CSV
//! rows ([`IntervalSample::csv_row`]).

use crate::core_model::Core;
use crate::json::{quoted, Json};
use crate::sched_api::KernelId;
use gpgpu_mem::{Cycle, MemFabric};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::Arc;

/// Telemetry configuration: pure data, carried by harness run specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Interval length in cycles between samples; `0` disables sampling.
    pub sample_every: u64,
    /// Whether to emit the structured event trace.
    pub trace_events: bool,
}

impl TelemetryConfig {
    /// Sampling every `sample_every` cycles with the event trace on.
    pub fn new(sample_every: u64) -> Self {
        TelemetryConfig {
            sample_every,
            trace_events: true,
        }
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
    /// Warp-instructions issued in the interval.
    pub instructions: u64,
    /// Scheduler slots that issued in the interval.
    pub issued_slots: u64,
    /// Scheduler slots where warps existed but none were ready.
    pub stalled_slots: u64,
    /// Scheduler slots with no resident warps at all.
    pub idle_slots: u64,
    /// Resident CTAs per core at the sampling instant.
    pub core_ctas: Vec<u32>,
    /// Resident warps per core at the sampling instant.
    pub core_warps: Vec<u32>,
    /// L1 accesses (loads + stores) in the interval, summed over cores.
    pub l1_accesses: u64,
    /// L1 hits in the interval.
    pub l1_hits: u64,
    /// L1 reservation failures (MSHR/miss-queue structural stalls).
    pub l1_reservation_fails: u64,
    /// L1 MSHR entries in use at the sampling instant, summed over cores.
    pub l1_mshrs_in_use: u64,
    /// L2 accesses in the interval, summed over partitions.
    pub l2_accesses: u64,
    /// L2 hits in the interval.
    pub l2_hits: u64,
    /// DRAM accesses hitting an open row in the interval.
    pub dram_row_hits: u64,
    /// DRAM accesses missing the open row (conflict + empty).
    pub dram_row_misses: u64,
    /// DRAM requests rejected on a full queue in the interval.
    pub dram_rejected: u64,
    /// 4 KiB functional-memory pages materialized by the end of the
    /// interval (the workload's touched footprint).
    pub gmem_pages: u64,
    /// `NoResidentWarp` stall slots in the interval, summed over cores.
    pub stall_no_resident: u64,
    /// `ScoreboardDep` stall slots in the interval.
    pub stall_scoreboard: u64,
    /// `MemPending` (outstanding loads / LSQ full) stall slots in the
    /// interval.
    pub stall_mem_pending: u64,
    /// `ExecUnitBusy` stall slots in the interval.
    pub stall_exec_busy: u64,
    /// `BarrierWait` stall slots in the interval.
    pub stall_barrier: u64,
    /// `FastForwardedIdle` (provably quiet cycle) stall slots in the
    /// interval.
    pub stall_ff_idle: u64,
    /// Cycle-weighted resident-CTA integral over the interval, summed
    /// over cores.
    pub cta_resident_cycles: u64,
    /// Cycle-weighted resident-warp integral over the interval, summed
    /// over cores.
    pub warp_resident_cycles: u64,
}

impl IntervalSample {
    /// Interval length in cycles.
    pub fn cycles(&self) -> u64 {
        self.cycle_end.saturating_sub(self.cycle_start)
    }

    /// Whole-device IPC over the interval.
    pub fn ipc(&self) -> f64 {
        let c = self.cycles();
        if c == 0 {
            0.0
        } else {
            self.instructions as f64 / c as f64
        }
    }

    /// Total resident CTAs at the sampling instant.
    pub fn resident_ctas(&self) -> u32 {
        self.core_ctas.iter().sum()
    }

    /// Total resident warps at the sampling instant.
    pub fn resident_warps(&self) -> u32 {
        self.core_warps.iter().sum()
    }

    /// L1 hit rate over the interval (0 when idle).
    pub fn l1_hit_rate(&self) -> f64 {
        rate(self.l1_hits, self.l1_accesses)
    }

    /// L2 hit rate over the interval (0 when idle).
    pub fn l2_hit_rate(&self) -> f64 {
        rate(self.l2_hits, self.l2_accesses)
    }

    /// DRAM row-hit rate over the interval (0 when idle).
    pub fn dram_row_hit_rate(&self) -> f64 {
        rate(self.dram_row_hits, self.dram_row_hits + self.dram_row_misses)
    }

    /// Average resident CTAs per core over the interval (cycle-weighted,
    /// unlike the instantaneous `resident_ctas` snapshot).
    pub fn avg_resident_ctas(&self) -> f64 {
        let denom = self.cycles() * self.core_ctas.len() as u64;
        if denom == 0 {
            0.0
        } else {
            self.cta_resident_cycles as f64 / denom as f64
        }
    }

    /// Average resident warps per core over the interval (cycle-weighted).
    pub fn avg_resident_warps(&self) -> f64 {
        let denom = self.cycles() * self.core_warps.len() as u64;
        if denom == 0 {
            0.0
        } else {
            self.warp_resident_cycles as f64 / denom as f64
        }
    }

    /// The CSV header matching [`csv_row`](Self::csv_row).
    ///
    /// New columns are append-only: downstream consumers (and the CI
    /// trace-smoke grep) key on the `cycle_start,cycle_end,ipc,` prefix.
    pub fn csv_header() -> &'static str {
        "cycle_start,cycle_end,ipc,instructions,issued_slots,stalled_slots,idle_slots,\
         resident_ctas,resident_warps,core_ctas,core_warps,\
         l1_accesses,l1_hits,l1_hit_rate,l1_reservation_fails,l1_mshrs_in_use,\
         l2_accesses,l2_hits,l2_hit_rate,\
         dram_row_hits,dram_row_misses,dram_row_hit_rate,dram_rejected,gmem_pages,\
         stall_no_resident,stall_scoreboard,stall_mem_pending,stall_exec_busy,\
         stall_barrier,stall_ff_idle,avg_resident_ctas,avg_resident_warps"
    }

    /// Renders the sample as one CSV row (per-core vectors join with
    /// `|`, so the row stays flat).
    pub fn csv_row(&self) -> String {
        let join = |v: &[u32]| {
            v.iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join("|")
        };
        format!(
            "{},{},{:.6},{},{},{},{},{},{},{},{},{},{},{:.6},{},{},{},{},{:.6},{},{},{:.6},{},{},\
             {},{},{},{},{},{},{:.6},{:.6}",
            self.cycle_start,
            self.cycle_end,
            self.ipc(),
            self.instructions,
            self.issued_slots,
            self.stalled_slots,
            self.idle_slots,
            self.resident_ctas(),
            self.resident_warps(),
            join(&self.core_ctas),
            join(&self.core_warps),
            self.l1_accesses,
            self.l1_hits,
            self.l1_hit_rate(),
            self.l1_reservation_fails,
            self.l1_mshrs_in_use,
            self.l2_accesses,
            self.l2_hits,
            self.l2_hit_rate(),
            self.dram_row_hits,
            self.dram_row_misses,
            self.dram_row_hit_rate(),
            self.dram_rejected,
            self.gmem_pages,
            self.stall_no_resident,
            self.stall_scoreboard,
            self.stall_mem_pending,
            self.stall_exec_busy,
            self.stall_barrier,
            self.stall_ff_idle,
            self.avg_resident_ctas(),
            self.avg_resident_warps(),
        )
    }
}

fn rate(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Where telemetry goes. Implementations must tolerate being handed
/// events and samples interleaved, in emission order.
pub trait TraceSink: Send {
    /// Receives one trace event.
    fn event(&mut self, ev: &TraceEvent);

    /// Receives one interval sample.
    fn sample(&mut self, s: &IntervalSample);

    /// Flushes buffered output (called once when telemetry is detached).
    fn flush(&mut self) {}

    /// Downcast hook so callers can recover a concrete sink (the
    /// in-memory sink uses this).
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
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

/// Collects telemetry in memory — the test sink, and what the experiment
/// harness uses so file writing stays out of the simulation loop.
#[derive(Debug, Default)]
pub struct MemorySink {
    data: TelemetryData,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the collected data, leaving the sink empty.
    pub fn take_data(&mut self) -> TelemetryData {
        std::mem::take(&mut self.data)
    }

    /// The collected data so far.
    pub fn data(&self) -> &TelemetryData {
        &self.data
    }
}

impl TraceSink for MemorySink {
    fn event(&mut self, ev: &TraceEvent) {
        self.data.events.push(ev.clone());
    }

    fn sample(&mut self, s: &IntervalSample) {
        self.data.samples.push(s.clone());
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Streams events *and* samples as JSON lines (samples get
/// `"type":"sample"`).
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    w: W,
}

impl<W: Write + Send> JsonlSink<W> {
    /// A sink writing JSONL to `w`.
    pub fn new(w: W) -> Self {
        JsonlSink { w }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn event(&mut self, ev: &TraceEvent) {
        let _ = writeln!(self.w, "{}", ev.to_json());
    }

    fn sample(&mut self, s: &IntervalSample) {
        let _ = writeln!(
            self.w,
            "{{\"type\":\"sample\",\"cycle_start\":{},\"cycle_end\":{},\"instructions\":{},\"ipc\":{:.6},\
             \"stall_no_resident\":{},\"stall_scoreboard\":{},\"stall_mem_pending\":{},\
             \"stall_exec_busy\":{},\"stall_barrier\":{},\"stall_ff_idle\":{},\
             \"avg_resident_ctas\":{:.6},\"avg_resident_warps\":{:.6}}}",
            s.cycle_start,
            s.cycle_end,
            s.instructions,
            s.ipc(),
            s.stall_no_resident,
            s.stall_scoreboard,
            s.stall_mem_pending,
            s.stall_exec_busy,
            s.stall_barrier,
            s.stall_ff_idle,
            s.avg_resident_ctas(),
            s.avg_resident_warps(),
        );
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
    }
}

/// Streams interval samples as CSV (header first); events are dropped —
/// pair with a [`JsonlSink`] or [`MemorySink`] when both faces matter.
#[derive(Debug)]
pub struct CsvSink<W: Write + Send> {
    w: W,
    wrote_header: bool,
}

impl<W: Write + Send> CsvSink<W> {
    /// A sink writing sample CSV to `w`.
    pub fn new(w: W) -> Self {
        CsvSink {
            w,
            wrote_header: false,
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write + Send> TraceSink for CsvSink<W> {
    fn event(&mut self, _ev: &TraceEvent) {}

    fn sample(&mut self, s: &IntervalSample) {
        if !self.wrote_header {
            self.wrote_header = true;
            let _ = writeln!(self.w, "{}", IntervalSample::csv_header());
        }
        let _ = writeln!(self.w, "{}", s.csv_row());
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
    }
}

/// Drops everything (for benchmarking the hook overhead itself).
#[derive(Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn event(&mut self, _ev: &TraceEvent) {}
    fn sample(&mut self, _s: &IntervalSample) {}
}

/// Cumulative counters at the last sample boundary, so samples report
/// per-interval deltas.
#[derive(Debug, Clone, Copy, Default)]
struct Baseline {
    instructions: u64,
    issued_slots: u64,
    stalled_slots: u64,
    idle_slots: u64,
    l1_accesses: u64,
    l1_hits: u64,
    l1_reservation_fails: u64,
    l2_accesses: u64,
    l2_hits: u64,
    dram_row_hits: u64,
    dram_row_misses: u64,
    dram_rejected: u64,
    stall_no_resident: u64,
    stall_scoreboard: u64,
    stall_mem_pending: u64,
    stall_exec_busy: u64,
    stall_barrier: u64,
    stall_ff_idle: u64,
    cta_resident_cycles: u64,
    warp_resident_cycles: u64,
}

/// The device-attached telemetry state: a config, a sink, and the
/// sampler's delta baseline. Constructed via
/// [`GpuDevice::enable_telemetry`](crate::device::GpuDevice::enable_telemetry).
pub struct Telemetry {
    cfg: TelemetryConfig,
    sink: Box<dyn TraceSink>,
    next_sample_at: Cycle,
    base: Baseline,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("cfg", &self.cfg)
            .field("next_sample_at", &self.next_sample_at)
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Telemetry with `cfg` delivering to `sink`.
    pub fn new(cfg: TelemetryConfig, sink: Box<dyn TraceSink>) -> Self {
        Telemetry {
            cfg,
            sink,
            next_sample_at: if cfg.sample_every == 0 {
                Cycle::MAX
            } else {
                cfg.sample_every
            },
            base: Baseline::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// The next cycle a sample fires at (`Cycle::MAX` when sampling is
    /// off). The idle fast-forward caps its jumps here so every interval
    /// boundary is still observed exactly.
    pub(crate) fn next_sample_at(&self) -> Cycle {
        self.next_sample_at
    }

    /// Whether the event trace is on.
    pub fn events_enabled(&self) -> bool {
        self.cfg.trace_events
    }

    /// Records one event (dropped unless the event trace is on).
    pub fn record(&mut self, ev: TraceEvent) {
        if self.cfg.trace_events {
            self.sink.event(&ev);
        }
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
        let start = self.next_sample_at - self.cfg.sample_every;
        self.emit_sample(start, now, cores, fabric, gmem_pages);
        self.next_sample_at += self.cfg.sample_every;
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
        if self.cfg.sample_every == 0 || self.next_sample_at == Cycle::MAX {
            return;
        }
        let start = self.next_sample_at - self.cfg.sample_every;
        if now > start {
            self.emit_sample(start, now, cores, fabric, gmem_pages);
            self.next_sample_at = now + self.cfg.sample_every;
        }
    }

    fn emit_sample(
        &mut self,
        start: Cycle,
        end: Cycle,
        cores: &[Core],
        fabric: &MemFabric,
        gmem_pages: usize,
    ) {
        let mut s = IntervalSample {
            cycle_start: start,
            cycle_end: end,
            gmem_pages: gmem_pages as u64,
            ..IntervalSample::default()
        };
        let mut now = Baseline::default();
        for core in cores {
            let cs = core.stats();
            now.instructions += cs.issued;
            now.issued_slots += cs.issued_slots;
            now.stalled_slots += cs.stalled_slots;
            now.idle_slots += cs.idle_slots;
            now.stall_no_resident += cs.stall_no_resident;
            now.stall_scoreboard += cs.stall_scoreboard;
            now.stall_mem_pending += cs.stall_mem_pending;
            now.stall_exec_busy += cs.stall_exec_busy;
            now.stall_barrier += cs.stall_barrier;
            now.stall_ff_idle += cs.stall_ff_idle;
            now.cta_resident_cycles += cs.cta_resident_cycles;
            now.warp_resident_cycles += cs.warp_resident_cycles;
            let l1 = core.l1_stats();
            now.l1_accesses += l1.accesses();
            now.l1_hits += l1.hits();
            now.l1_reservation_fails += l1.reservation_fails;
            s.core_ctas.push(core.active_cta_count());
            s.core_warps.push(core.resident_warps());
            s.l1_mshrs_in_use += core.l1_mshrs_in_use() as u64;
        }
        let f = fabric.stats();
        now.l2_accesses = f.l2.accesses();
        now.l2_hits = f.l2.hits();
        now.dram_row_hits = f.dram.row_hits;
        now.dram_row_misses = f.dram.row_conflicts + f.dram.row_empty;
        now.dram_rejected = f.dram.rejected;

        s.instructions = now.instructions - self.base.instructions;
        s.issued_slots = now.issued_slots - self.base.issued_slots;
        s.stalled_slots = now.stalled_slots - self.base.stalled_slots;
        s.idle_slots = now.idle_slots - self.base.idle_slots;
        s.l1_accesses = now.l1_accesses - self.base.l1_accesses;
        s.l1_hits = now.l1_hits - self.base.l1_hits;
        s.l1_reservation_fails = now.l1_reservation_fails - self.base.l1_reservation_fails;
        s.l2_accesses = now.l2_accesses - self.base.l2_accesses;
        s.l2_hits = now.l2_hits - self.base.l2_hits;
        s.dram_row_hits = now.dram_row_hits - self.base.dram_row_hits;
        s.dram_row_misses = now.dram_row_misses - self.base.dram_row_misses;
        s.dram_rejected = now.dram_rejected - self.base.dram_rejected;
        s.stall_no_resident = now.stall_no_resident - self.base.stall_no_resident;
        s.stall_scoreboard = now.stall_scoreboard - self.base.stall_scoreboard;
        s.stall_mem_pending = now.stall_mem_pending - self.base.stall_mem_pending;
        s.stall_exec_busy = now.stall_exec_busy - self.base.stall_exec_busy;
        s.stall_barrier = now.stall_barrier - self.base.stall_barrier;
        s.stall_ff_idle = now.stall_ff_idle - self.base.stall_ff_idle;
        s.cta_resident_cycles = now.cta_resident_cycles - self.base.cta_resident_cycles;
        s.warp_resident_cycles = now.warp_resident_cycles - self.base.warp_resident_cycles;
        self.base = now;
        self.sink.sample(&s);
    }

    /// Flushes and detaches the sink.
    pub fn into_sink(mut self) -> Box<dyn TraceSink> {
        self.sink.flush();
        self.sink
    }
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
            instructions: 1500,
            issued_slots: 1500,
            stalled_slots: 400,
            idle_slots: 100,
            core_ctas: vec![3, 2],
            core_warps: vec![12, 8],
            l1_accesses: 100,
            l1_hits: 80,
            l1_reservation_fails: 5,
            l1_mshrs_in_use: 7,
            l2_accesses: 20,
            l2_hits: 10,
            dram_row_hits: 6,
            dram_row_misses: 2,
            dram_rejected: 1,
            gmem_pages: 33,
            stall_no_resident: 40,
            stall_scoreboard: 200,
            stall_mem_pending: 150,
            stall_exec_busy: 30,
            stall_barrier: 20,
            stall_ff_idle: 60,
            cta_resident_cycles: 5000,
            warp_resident_cycles: 20_000,
        };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
        assert_eq!(s.resident_ctas(), 5);
        assert_eq!(s.resident_warps(), 20);
        // 5000 CTA-cycles over 1000 cycles × 2 cores → 2.5 CTAs/core.
        assert!((s.avg_resident_ctas() - 2.5).abs() < 1e-12);
        assert!((s.avg_resident_warps() - 10.0).abs() < 1e-12);
        assert!((s.l1_hit_rate() - 0.8).abs() < 1e-12);
        assert!((s.l2_hit_rate() - 0.5).abs() < 1e-12);
        assert!((s.dram_row_hit_rate() - 0.75).abs() < 1e-12);
        let header_cols = IntervalSample::csv_header().split(',').count();
        let row = s.csv_row();
        assert_eq!(row.split(',').count(), header_cols, "row: {row}");
        assert!(row.contains("3|2"), "per-core vector join: {row}");
    }

    #[test]
    fn empty_sample_is_safe() {
        let s = IntervalSample::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.l1_hit_rate(), 0.0);
        assert_eq!(s.dram_row_hit_rate(), 0.0);
        assert_eq!(
            s.csv_row().split(',').count(),
            IntervalSample::csv_header().split(',').count()
        );
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let mut sink = MemorySink::new();
        let evs = sample_events();
        for ev in &evs {
            sink.event(ev);
        }
        sink.sample(&IntervalSample::default());
        let data = sink.take_data();
        assert_eq!(data.events, evs);
        assert_eq!(data.samples.len(), 1);
        assert!(sink.take_data().events.is_empty(), "take drains");
    }

    #[test]
    fn jsonl_and_csv_sinks_write_parseable_output() {
        let mut jsonl = JsonlSink::new(Vec::new());
        let mut csv = CsvSink::new(Vec::new());
        for ev in sample_events() {
            jsonl.event(&ev);
            csv.event(&ev);
        }
        let s = IntervalSample {
            cycle_end: 1000,
            ..IntervalSample::default()
        };
        jsonl.sample(&s);
        csv.sample(&s);
        let jsonl_out = String::from_utf8(jsonl.into_inner()).unwrap();
        assert_eq!(jsonl_out.lines().count(), sample_events().len() + 1);
        for line in jsonl_out.lines().take(sample_events().len()) {
            TraceEvent::from_json(line).unwrap();
        }
        let csv_out = String::from_utf8(csv.into_inner()).unwrap();
        let mut lines = csv_out.lines();
        assert_eq!(lines.next(), Some(IntervalSample::csv_header()));
        assert_eq!(lines.count(), 1, "events are not CSV rows");
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
