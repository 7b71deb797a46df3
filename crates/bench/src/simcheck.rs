//! `simcheck`: a deterministic simulation fuzzer with differential
//! oracles and failure minimization.
//!
//! Every fuzz case launches one or two kernels drawn from
//! [`gpgpu_isa::dsl::gen_kernel`]: small, *data-race-free* programs with
//! real control flow (nested divergence, counted loops, barrier-phased
//! shared-memory exchange) in which every thread reads its own input word
//! and writes its own output word. The cases run in random CTA shapes —
//! 2-D blocks, sub-warp CTAs, partial last warps, a concurrent second
//! kernel — on tiny device configurations, half of them with one small
//! L1 limit so memory accesses are refused and retried, and the simulator
//! is held to three families of oracles:
//!
//! * **Differential** — the fast path (core sleep, idle fast-forward)
//!   ([`GpuDevice::set_fast_forward`](gpgpu_sim::GpuDevice::set_fast_forward))
//!   must be bit-identical to the reference cycle-by-cycle loop in
//!   statistics, telemetry, and final memory, and a repeated run must be
//!   bit-identical to the first (determinism). Record capture must not
//!   perturb any output, and timing replay from the captured record
//!   ([`gpgpu_sim::GpuDevice::set_replay`]) must reproduce direct
//!   execution's statistics, telemetry, and memory hash under every CTA
//!   policy.
//! * **Functional** — because the generated kernels are race-free, final
//!   global memory is computable on the CPU by the DSL's statement-lockstep
//!   mirror ([`DslKernel::mirror`](gpgpu_isa::dsl::DslKernel::mirror)).
//!   Every CTA-scheduling policy in [`CtaPolicy::sweep_named`] must produce
//!   exactly the mirrored buffers (and the same
//!   [`GlobalMem::content_hash`](gpgpu_sim::GlobalMem::content_hash) as the
//!   baseline), no matter how it interleaves CTAs.
//! * **Invariant** — every run must complete inside the cycle budget and
//!   pass [`conservation_violations`] (issue/execute balance, load
//!   conservation, CTA accounting, no malformed dispatches).
//!
//! On failure, [`shrink`] greedily minimizes the case while the failure
//! reproduces, and the result serializes to a short self-contained
//! reproducer file ([`FuzzCase::to_repro`]) that `exp fuzz --repro FILE`
//! replays.
//!
//! Everything is seed-deterministic: [`FuzzCase::generate`] is a pure
//! function of the seed, and the simulator itself is deterministic, so a
//! failing seed reported by CI reproduces anywhere.

use crate::parallel_map;
use gpgpu_isa::dsl::{gen_kernel, GenCfg, GenKernel, MirrorMem};
use gpgpu_isa::{Dim2, KernelDescriptor};
use gpgpu_mem::{CacheConfig, Config};
use gpgpu_sim::{
    conservation_violations, CtaCompleteEvent, CtaScheduler, Dispatch, DispatchView, ExecRecord,
    GpuConfig, GpuDevice, KernelId, SimError, TelemetryConfig, TelemetryData,
};
use gpgpu_testkit::{Gen, SplitMix64};
use gpgpu_workloads::RunMode;
use std::cell::Cell;
use std::fmt;
use std::sync::Arc;
use tbs_core::{CtaPolicy, WarpPolicy};

/// One kernel of a case: a [`gen_kernel`] draw and the shape it launches
/// in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Launch {
    /// Grid shape, in CTAs.
    pub grid: (u32, u32),
    /// CTA shape, in threads: any shape of up to 512 threads.
    pub block: (u32, u32),
    /// Seeds the kernel's [`gen_kernel`] draw.
    pub kernel: u64,
}

impl Launch {
    /// Threads launched (saturating, so hostile extents cannot overflow).
    pub fn threads(&self) -> u64 {
        u64::from(self.grid.0)
            .saturating_mul(u64::from(self.grid.1))
            .saturating_mul(self.cta_threads())
    }

    fn cta_threads(&self) -> u64 {
        u64::from(self.block.0) * u64::from(self.block.1)
    }
}

/// A fully explicit fuzz case: the launch side only, since every kernel
/// is a [`gen_kernel`] draw. [`generate`](Self::generate) derives one from
/// a seed; after that the spec stands on its own (the shrinker edits
/// fields directly, and the reproducer file records them all).
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Seed the case was generated from. It also seeds the kernels' input
    /// words, so it stays part of a shrunk case.
    pub seed: u64,
    /// Warp-scheduler policy name (parses as [`WarpPolicy`]).
    pub warp: String,
    /// Kernel 1. It reads an input buffer and writes a separate output
    /// buffer (params `[in, out]`).
    pub k1: Launch,
    /// The optional concurrent kernel 2. It updates one buffer in place
    /// (params `[buf, buf]`), so each thread reads and rewrites one slot.
    pub k2: Option<Launch>,
    /// Generator segment count (both kernels).
    pub segs: u32,
    /// Whether the generator may draw shared-memory exchanges.
    pub smem: bool,
    /// Whether the generator may draw divergent segments.
    pub divergent: bool,
    /// Device CTA-residency limit (`GpuConfig::max_ctas_per_core`).
    pub max_ctas: u32,
    /// Cycle budget; exceeding it is an oracle failure.
    pub budget: u64,
    /// The L1 data cache (`GpuConfig::l1`). Part of the cases shrink its
    /// MSHR file, merge limit or miss queue, so LSQ heads meet refused L1
    /// accesses; reproducers carry those three knobs.
    pub l1: CacheConfig,
}

/// Largest CTA a case may launch: a generated kernel uses at most 64
/// registers a thread, so a CTA of this size fits a core's 32768-entry
/// register file.
const MAX_CTA_THREADS: u64 = 512;
/// Largest thread count a case may launch (bounds mirror cost).
const MAX_CASE_THREADS: u64 = 65_536;
/// Largest generator segment count a case may ask for.
const MAX_SEGS: u32 = 64;
/// First line of every reproducer file.
const REPRO_HEADER: &str = "# simcheck reproducer v2";

impl FuzzCase {
    /// Derives a case from `seed`. Pure and deterministic; the same seed
    /// always yields the same case, independent of platform or build.
    pub fn generate(seed: u64, budget: u64) -> FuzzCase {
        // Decouple the stream from seeded workload inputs.
        let mut g = Gen::new(seed ^ 0x51AC_CE55_0000_0001);
        let warp_named = WarpPolicy::all_named();
        let warp = warp_named[g.index(warp_named.len())].0.to_string();
        // Kernel 1's shape class is stratified by seed: of every 8
        // consecutive seeds, 3 launch blocks of whole warps (the shapes
        // the suite and `gen:rand` use) and 5 launch blocks with a
        // partial warp.
        let k1 = draw_launch(&mut g, seed % 8 < 3, (6, 2));
        let k2 = if g.chance(1, 2) {
            let whole_warps = g.chance(1, 2);
            Some(draw_launch(&mut g, whole_warps, (4, 1)))
        } else {
            None
        };
        let mut case = FuzzCase {
            seed,
            warp,
            k1,
            k2,
            segs: g.range(1, 9) as u32,
            smem: g.chance(1, 2),
            divergent: g.chance(1, 2),
            max_ctas: g.range(1, 9) as u32,
            budget,
            l1: default_l1(),
        };
        // The last draw, so every earlier field keeps its value per seed:
        // half the cases get one small L1 limit.
        match g.index(6) {
            0 => case.l1.mshr_entries = g.range(1, 5) as u32,
            1 => case.l1.mshr_max_merge = g.range(1, 3) as u32,
            2 => case.l1.miss_queue_len = g.range(1, 3) as u32,
            _ => {}
        }
        debug_assert_eq!(case.validate(), Ok(()));
        case
    }

    /// The case's kernels in launch order, numbered from 1.
    fn launches(&self) -> impl Iterator<Item = (u64, &Launch)> {
        (1u64..).zip(std::iter::once(&self.k1).chain(&self.k2))
    }

    /// The [`gen_kernel`] draw for one of the case's launches. Pure in
    /// the case fields, so the run path and the mirror path always agree
    /// on the kernel.
    fn kernel(&self, launch: &Launch) -> GenKernel {
        let cfg = GenCfg {
            block: dim(launch.block),
            segments: self.segs as usize,
            smem: self.smem,
            divergence: self.divergent,
            loops: true,
        };
        gen_kernel(&mut Gen::new(launch.kernel), &cfg)
    }

    /// Checks the spec is well-formed (shapes in range, generator knobs
    /// bounded, warp policy parseable). Generated cases always pass;
    /// hand-edited or parsed reproducers are rejected here before they can
    /// wedge the simulator or the generator.
    pub fn validate(&self) -> Result<(), String> {
        let mut threads = 0u64;
        for (which, l) in self.launches() {
            let (g, b) = (l.grid, l.block);
            if g.0 == 0 || g.1 == 0 || b.0 == 0 || b.1 == 0 {
                return Err(format!("kernel {which}: zero extent in grid {g:?} / block {b:?}"));
            }
            if l.cta_threads() > MAX_CTA_THREADS {
                return Err(format!(
                    "kernel {which}: block {b:?} exceeds {MAX_CTA_THREADS} threads"
                ));
            }
            threads = threads.saturating_add(l.threads());
        }
        if threads > MAX_CASE_THREADS {
            return Err(format!("case launches more than {MAX_CASE_THREADS} threads"));
        }
        if self.segs > MAX_SEGS {
            return Err(format!("segs {} exceeds {MAX_SEGS}", self.segs));
        }
        if !(1..=32).contains(&self.max_ctas) {
            return Err(format!("max_ctas {} outside 1..=32", self.max_ctas));
        }
        if self.budget < 1_000 {
            return Err(format!("budget {} below 1000 cycles", self.budget));
        }
        self.l1.check().map_err(|e| format!("l1.{e}"))?;
        self.warp
            .parse::<WarpPolicy>()
            .map_err(|e| format!("bad warp policy {:?}: {e}", self.warp))?;
        Ok(())
    }

    /// Serializes the case as a short `key=value` reproducer (one fact per
    /// line, `#` comments; at most 17 lines, the `l1.` keys only where
    /// they differ from the default). [`from_repro`](Self::from_repro)
    /// round-trips it.
    pub fn to_repro(&self) -> String {
        let wxh = |d: (u32, u32)| format!("{}x{}", d.0, d.1);
        let mut s = format!("{REPRO_HEADER}\n");
        s.push_str(&format!("seed={}\n", self.seed));
        s.push_str(&format!("warp={}\n", self.warp));
        s.push_str(&format!("grid={}\n", wxh(self.k1.grid)));
        s.push_str(&format!("block={}\n", wxh(self.k1.block)));
        s.push_str(&format!("kernel={}\n", self.k1.kernel));
        s.push_str(&format!("segs={}\n", self.segs));
        s.push_str(&format!("smem={}\n", u8::from(self.smem)));
        s.push_str(&format!("divergent={}\n", u8::from(self.divergent)));
        if let Some(k2) = &self.k2 {
            s.push_str(&format!("grid2={}\n", wxh(k2.grid)));
            s.push_str(&format!("block2={}\n", wxh(k2.block)));
            s.push_str(&format!("kernel2={}\n", k2.kernel));
        }
        s.push_str(&format!("max_ctas={}\n", self.max_ctas));
        s.push_str(&format!("budget={}\n", self.budget));
        let default = default_l1();
        for (key, value, default) in [
            ("mshr_entries", self.l1.mshr_entries, default.mshr_entries),
            ("mshr_max_merge", self.l1.mshr_max_merge, default.mshr_max_merge),
            ("miss_queue_len", self.l1.miss_queue_len, default.miss_queue_len),
        ] {
            if value != default {
                s.push_str(&format!("l1.{key}={value}\n"));
            }
        }
        s
    }

    /// Parses a reproducer produced by [`to_repro`](Self::to_repro) (or
    /// edited by hand) and [`validate`](Self::validate)s it. The first
    /// non-blank line must be the v2 header; older formats described
    /// kernels this build no longer generates.
    pub fn from_repro(text: &str) -> Result<FuzzCase, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty());
        let header = lines.next().map_or("", |(_, l)| l);
        if header != REPRO_HEADER {
            let found = match header.strip_prefix("# simcheck reproducer ") {
                Some(version) => format!("reproducer format {version} is not supported"),
                None => format!("missing the `{REPRO_HEADER}` header"),
            };
            return Err(format!(
                "{found}; this build reads only v2 — regenerate the case with \
                 `exp fuzz --seeds N..N+1`, N being its seed"
            ));
        }
        let mut case = FuzzCase {
            seed: 0,
            warp: "lrr".into(),
            k1: Launch {
                grid: (1, 1),
                block: (32, 1),
                kernel: 1,
            },
            k2: None,
            segs: 1,
            smem: false,
            divergent: false,
            max_ctas: 8,
            budget: 1_000_000,
            l1: default_l1(),
        };
        // Kernel 2 exists only when all three of its keys do.
        let mut k2 = case.k1;
        let mut k2_keys = [false; 3];
        for (lineno, line) in lines {
            if line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected key=value"))?;
            let at = |e: String| format!("line {lineno}: {e}");
            match key.trim() {
                "seed" => case.seed = parse_num(value).map_err(at)?,
                "warp" => case.warp = value.trim().to_string(),
                "grid" => case.k1.grid = parse_dim(value).map_err(at)?,
                "block" => case.k1.block = parse_dim(value).map_err(at)?,
                "kernel" => case.k1.kernel = parse_num(value).map_err(at)?,
                "segs" => case.segs = parse_u32(value).map_err(at)?,
                "smem" => case.smem = parse_bool(value).map_err(at)?,
                "divergent" => case.divergent = parse_bool(value).map_err(at)?,
                "grid2" => (k2.grid, k2_keys[0]) = (parse_dim(value).map_err(at)?, true),
                "block2" => (k2.block, k2_keys[1]) = (parse_dim(value).map_err(at)?, true),
                "kernel2" => (k2.kernel, k2_keys[2]) = (parse_num(value).map_err(at)?, true),
                "max_ctas" => case.max_ctas = parse_u32(value).map_err(at)?,
                "budget" => case.budget = parse_num(value).map_err(at)?,
                "l1.mshr_entries" => case.l1.mshr_entries = parse_u32(value).map_err(at)?,
                "l1.mshr_max_merge" => case.l1.mshr_max_merge = parse_u32(value).map_err(at)?,
                "l1.miss_queue_len" => case.l1.miss_queue_len = parse_u32(value).map_err(at)?,
                other => return Err(format!("line {lineno}: unknown key {other:?}")),
            }
        }
        match k2_keys {
            [true, true, true] => case.k2 = Some(k2),
            [false, false, false] => {}
            _ => return Err("grid2, block2 and kernel2 must appear together".into()),
        }
        case.validate()?;
        Ok(case)
    }
}

/// The L1 a case runs with unless it says otherwise: the device's.
fn default_l1() -> CacheConfig {
    GpuConfig::test_small().l1
}

/// Draws one launch. A whole-warp block holds 1 to 4 warps, as one row or
/// folded into two; any other block has a partial warp: a sub-warp CTA, a
/// ragged last warp, or 2-D rows that split warps.
fn draw_launch(g: &mut Gen, whole_warps: bool, max_grid: (u64, u64)) -> Launch {
    let grid = (
        g.range(1, max_grid.0 + 1) as u32,
        g.range(1, max_grid.1 + 1) as u32,
    );
    let block = if whole_warps {
        let y = g.range(1, 3) as u32;
        (32 * g.range(1, 5) as u32 / y, y)
    } else {
        let (x, y) = (g.range(1, 97) as u32, g.range(1, 4) as u32);
        // x * y >= 32 here, so x - 1 >= 10 and the product is no longer
        // a multiple of 32.
        (if (x * y) % 32 == 0 { x - 1 } else { x }, y)
    };
    Launch {
        grid,
        block,
        kernel: g.next_u64(),
    }
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.trim().parse().map_err(|_| format!("bad number {s:?}"))
}

fn parse_u32(s: &str) -> Result<u32, String> {
    u32::try_from(parse_num(s)?).map_err(|_| format!("{s:?} exceeds u32"))
}

fn parse_dim(s: &str) -> Result<(u32, u32), String> {
    let (x, y) = s.trim().split_once('x').ok_or_else(|| format!("bad dim {s:?}"))?;
    Ok((
        x.parse().map_err(|_| format!("bad dim {s:?}"))?,
        y.parse().map_err(|_| format!("bad dim {s:?}"))?,
    ))
}

fn parse_bool(s: &str) -> Result<bool, String> {
    match s.trim() {
        "0" | "false" => Ok(false),
        "1" | "true" => Ok(true),
        other => Err(format!("bad bool {other:?}")),
    }
}

fn dim(d: (u32, u32)) -> Dim2 {
    Dim2::new(d.0, d.1)
}

// ---------------------------------------------------------------------------
// Kernel construction and execution

/// Kernel `which`'s `n` input words, one per global thread.
fn inputs(seed: u64, which: u64, n: u64) -> Vec<u32> {
    (0..n)
        .map(|t| SplitMix64::new(seed ^ (which << 56) ^ t).next_u64() as u32)
        .collect()
}

/// Byte offset of kernel `which`'s `n`-word output buffer from its input
/// buffer: kernel 1 writes the buffer right after its input, kernel 2
/// updates its input in place.
fn output_offset(which: u64, n: u64) -> u64 {
    if which == 1 {
        n * 4
    } else {
        0
    }
}

/// Everything one run produces that an oracle might compare.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// End-of-run statistics.
    pub stats: gpgpu_sim::SimStats,
    /// Content hash of all of global memory (materialization-independent).
    pub mem_hash: u64,
    /// Collected telemetry, when it was enabled.
    pub telemetry: Option<TelemetryData>,
    /// Each kernel's final output buffer, in launch order.
    pub slots: Vec<Vec<u32>>,
}

/// Runs `case` under the given CTA scheduler and returns everything the
/// oracles compare. Deterministic: same inputs, bit-identical output.
///
/// # Errors
///
/// Propagates [`SimError`] (budget exhausted or deadlock) — for a valid
/// case both are oracle failures in their own right.
pub fn run_case(
    case: &FuzzCase,
    cta: Box<dyn CtaScheduler>,
    fast_forward: bool,
    telemetry: bool,
) -> Result<RunOutput, SimError> {
    run_case_mode(case, cta, fast_forward, telemetry, RunMode::Direct).map(|(out, _)| out)
}

/// The full-control variant behind [`run_case`]: also selects
/// capture or replay, and returns the captured record when capturing.
/// Replay never touches global memory data, so its [`RunOutput`] carries
/// the record's `mem_hash` and no result buffers (the functional oracle
/// does not apply).
///
/// # Errors
///
/// As [`run_case`].
pub fn run_case_mode(
    case: &FuzzCase,
    cta: Box<dyn CtaScheduler>,
    fast_forward: bool,
    telemetry: bool,
    mode: RunMode,
) -> Result<(RunOutput, Option<ExecRecord>), SimError> {
    let mut cfg = GpuConfig::test_small();
    cfg.max_ctas_per_core = case.max_ctas;
    cfg.l1 = case.l1.clone();
    // A wedged case should fail fast, not burn the whole budget.
    cfg.deadlock_cycles = cfg.deadlock_cycles.min(case.budget);
    let warp: WarpPolicy = case.warp.parse().expect("validated warp policy");
    let factory = warp.factory();
    let mut dev = GpuDevice::new(cfg, factory.as_ref(), cta);
    dev.set_fast_forward(fast_forward);
    mode.configure(&mut dev);
    if telemetry {
        dev.enable_telemetry(TelemetryConfig::new(500));
    }

    let mut outputs = Vec::new();
    for (which, l) in case.launches() {
        let gk = case.kernel(l);
        let n = l.threads();
        let out_off = output_offset(which, n);
        let base = dev.alloc(n * 4 + out_off);
        dev.mem().write_u32_slice(base, &inputs(case.seed, which, n));
        let prog = Arc::new(gk.kernel.compile().expect("generated kernels compile"));
        let desc = KernelDescriptor::builder(prog, dim(l.grid), dim(l.block))
            .params([base, base + out_off])
            .smem_per_cta(gk.smem_bytes as u32)
            .build()
            .expect("validated case builds");
        dev.launch(desc);
        outputs.push((base + out_off, n));
    }

    dev.run(case.budget)?;
    let (mem_hash, slots) = match mode {
        // Replay never writes memory data: the final hash is the one the
        // record carries, and the buffers still hold their initial values.
        RunMode::Replay(rec) => (rec.mem_hash, Vec::new()),
        _ => (
            dev.mem_ref().content_hash(),
            outputs
                .iter()
                .map(|&(at, n)| dev.mem_ref().read_u32_vec(at, n as usize))
                .collect(),
        ),
    };
    let record = dev.take_record();
    Ok((
        RunOutput {
            stats: dev.stats(),
            mem_hash,
            telemetry: dev.take_telemetry(),
            slots,
        },
        record,
    ))
}

// ---------------------------------------------------------------------------
// The functional mirror

/// Predicts each kernel's final output buffer, in launch order, with the
/// DSL's CPU mirror. Valid because the generated kernels are race-free by
/// construction: each thread touches only its own slots, and shared-memory
/// exchanges are separated by barriers. The kernels derive every address
/// from their params, so mirroring at synthetic base addresses yields the
/// same values as the device run at whatever addresses `alloc` handed out.
pub fn expected_memory(case: &FuzzCase) -> Vec<Vec<u32>> {
    case.launches()
        .map(|(which, l)| {
            let n = l.threads();
            let out_off = output_offset(which, n);
            let mut mem = MirrorMem::new();
            mem.write_u32_slice(0, &inputs(case.seed, which, n));
            case.kernel(l)
                .kernel
                .mirror(dim(l.grid), &[0, out_off], &mut mem)
                .expect("generated kernels mirror");
            mem.read_u32_vec(out_off, n as usize)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Oracles

/// One oracle violation: which oracle fired and what it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The oracle family: `spec`, `run`, `differential`, `determinism`,
    /// `functional`, `cross-policy`, `conservation`, or `replay`.
    pub oracle: &'static str,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

fn fail(oracle: &'static str, detail: impl Into<String>) -> Failure {
    Failure {
        oracle,
        detail: detail.into(),
    }
}

/// First index where two buffers disagree, rendered for a report.
fn diff_slots(label: &str, got: &[u32], want: &[u32]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!(
            "{label}: buffer length {} != expected {}",
            got.len(),
            want.len()
        ));
    }
    let i = (0..got.len()).find(|&i| got[i] != want[i])?;
    Some(format!(
        "{label}: slot {i} is {:#010x}, expected {:#010x}",
        got[i], want[i]
    ))
}

/// Runs the full oracle stack over `case` with stock schedulers. Empty
/// result means the case is clean.
pub fn check_case(case: &FuzzCase) -> Vec<Failure> {
    check_case_with(case, &|p| p.scheduler())
}

/// [`check_case`] with a hook over CTA-scheduler construction, so tests
/// can wrap policies with a deliberately buggy implementation (e.g.
/// [`StarvingCta`]) and watch the oracles catch it.
pub fn check_case_with(
    case: &FuzzCase,
    make_sched: &dyn Fn(CtaPolicy) -> Box<dyn CtaScheduler>,
) -> Vec<Failure> {
    let mut fails = Vec::new();
    if let Err(e) = case.validate() {
        return vec![fail("spec", e)];
    }
    let expected = expected_memory(case);
    let baseline = CtaPolicy::Baseline(None);

    // Differential: fast-forward vs the reference loop, and run-to-run
    // determinism, all under the round-robin baseline with telemetry on.
    let fast = run_case(case, make_sched(baseline), true, true);
    let slow = run_case(case, make_sched(baseline), false, true);
    let again = run_case(case, make_sched(baseline), true, true);
    let ref_hash = match (&fast, &slow) {
        (Ok(a), Ok(b)) => {
            if a.stats != b.stats {
                fails.push(fail(
                    "differential",
                    "SimStats differ between fast-forward and the reference loop",
                ));
            }
            if a.mem_hash != b.mem_hash {
                fails.push(fail(
                    "differential",
                    format!(
                        "memory hash {:#018x} (fast-forward) != {:#018x} (reference)",
                        a.mem_hash, b.mem_hash
                    ),
                ));
            }
            if a.telemetry != b.telemetry {
                fails.push(fail(
                    "differential",
                    "telemetry differs between fast-forward and the reference loop",
                ));
            }
            Some(a.mem_hash)
        }
        (Err(e), _) => {
            fails.push(fail("run", format!("baseline (fast-forward): {e}")));
            None
        }
        (Ok(_), Err(e)) => {
            fails.push(fail("run", format!("baseline (reference loop): {e}")));
            None
        }
    };
    match (&fast, &again) {
        (Ok(a), Ok(c)) if a != c => {
            fails.push(fail("determinism", "two identical runs disagree"));
        }
        (Ok(_), Err(e)) => fails.push(fail("determinism", format!("repeat run failed: {e}"))),
        _ => {}
    }

    // Capture/replay: capturing must not perturb any output, and timing
    // replay from the captured record must reproduce direct execution —
    // stats, telemetry, and (via the record's carried hash) memory —
    // under the baseline, and under every policy in the sweep below.
    let record = match run_case_mode(case, make_sched(baseline), true, true, RunMode::Capture) {
        Err(e) => {
            fails.push(fail("run", format!("baseline (capture): {e}")));
            None
        }
        Ok((out, rec)) => {
            if matches!(&fast, Ok(a) if *a != out) {
                fails.push(fail(
                    "differential",
                    "capture perturbs an output vs plain execution",
                ));
            }
            if rec.is_none() {
                fails.push(fail("replay", "capture run completed but produced no record"));
            }
            rec.map(Arc::new)
        }
    };
    if let (Some(rec), Ok(a)) = (&record, &fast) {
        let replay = RunMode::Replay(Arc::clone(rec));
        match run_case_mode(case, make_sched(baseline), true, true, replay) {
            Err(e) => fails.push(fail("replay", format!("baseline replay: {e}"))),
            Ok((r, _)) => {
                if r.stats != a.stats {
                    fails.push(fail(
                        "replay",
                        "baseline replay: SimStats differ from direct execution",
                    ));
                }
                if r.mem_hash != a.mem_hash {
                    fails.push(fail(
                        "replay",
                        format!(
                            "record hash {:#018x} != direct memory hash {:#018x}",
                            r.mem_hash, a.mem_hash
                        ),
                    ));
                }
                if r.telemetry != a.telemetry {
                    fails.push(fail(
                        "replay",
                        "baseline replay: telemetry differs from direct execution",
                    ));
                }
            }
        }
    }

    // Functional + invariants, across the whole CTA-policy sweep. The
    // final buffers (and the whole-memory hash) must not depend on the
    // scheduling policy; conservation must hold under every policy.
    for (name, policy) in CtaPolicy::sweep_named() {
        match run_case(case, make_sched(policy.clone()), true, false) {
            Err(e) => fails.push(fail("run", format!("{name}: {e}"))),
            Ok(out) => {
                let v = conservation_violations(&out.stats);
                if !v.is_empty() {
                    fails.push(fail("conservation", format!("{name}: {}", v.join("; "))));
                }
                for (k, (got, want)) in out.slots.iter().zip(&expected).enumerate() {
                    if let Some(d) = diff_slots(name, got, want) {
                        fails.push(fail("functional", format!("kernel {}, {d}", k + 1)));
                    }
                }
                if let Some(h) = ref_hash {
                    if out.mem_hash != h {
                        fails.push(fail(
                            "cross-policy",
                            format!(
                                "{name}: memory hash {:#018x} != baseline {h:#018x}",
                                out.mem_hash
                            ),
                        ));
                    }
                }
                // The record was captured under the baseline; replaying
                // it under this policy must re-time to exactly the stats
                // direct execution produced.
                if let Some(rec) = &record {
                    match run_case_mode(
                        case,
                        make_sched(policy),
                        true,
                        false,
                        RunMode::Replay(Arc::clone(rec)),
                    ) {
                        Err(e) => fails.push(fail("replay", format!("{name} (replay): {e}"))),
                        Ok((r, _)) => {
                            if r.stats != out.stats {
                                fails.push(fail(
                                    "replay",
                                    format!(
                                        "{name}: replayed SimStats differ \
                                         from direct execution"
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    fails
}

// ---------------------------------------------------------------------------
// Shrinking

/// Candidate single-step simplifications of `case`, most aggressive first.
/// Every move only lowers a field or resets it to its canonical value, so
/// repeated shrinking reaches a fixed point.
fn shrink_candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut FuzzCase)| {
        let mut c = case.clone();
        f(&mut c);
        if c != *case {
            out.push(c);
        }
    };
    push(&|c| c.k2 = None);
    push(&|c| c.smem = false);
    push(&|c| c.divergent = false);
    push(&|c| c.segs = 0);
    push(&|c| c.segs /= 2);
    for l in launch_moves(&case.k1) {
        push(&|c| c.k1 = l);
    }
    for l in case.k2.iter().flat_map(launch_moves) {
        push(&|c| c.k2 = Some(l));
    }
    push(&|c| c.max_ctas = 1);
    push(&|c| c.warp = "lrr".to_string());
    push(&|c| c.l1 = default_l1());
    out
}

/// Simplifications of one launch: the canonical kernel seed, then smaller
/// grids and blocks.
fn launch_moves(l: &Launch) -> [Launch; 5] {
    let (g, b) = (l.grid, l.block);
    [
        Launch { kernel: 1, ..*l },
        Launch { grid: ((g.0 / 2).max(1), g.1), ..*l },
        Launch { grid: (g.0, 1), ..*l },
        Launch { block: ((b.0 / 2).max(1), b.1), ..*l },
        Launch { block: (b.0, 1), ..*l },
    ]
}

/// Greedily minimizes `case` while `still_fails` holds: repeatedly tries
/// the candidate simplifications and restarts from the first one that
/// still reproduces the failure, until none does. Every accepted step
/// strictly simplifies the spec, so this terminates; the returned case
/// still fails (the caller's predicate accepted it, or no step applied).
pub fn shrink(case: &FuzzCase, still_fails: &mut dyn FnMut(&FuzzCase) -> bool) -> FuzzCase {
    let mut best = case.clone();
    // Belt-and-braces bound; the strict-simplification argument alone
    // already terminates far below this.
    for _ in 0..1_000 {
        let step = shrink_candidates(&best)
            .into_iter()
            .find(|c| c.validate().is_ok() && still_fails(c));
        match step {
            Some(c) => best = c,
            None => break,
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Batch fuzzing

/// One failing seed, with its original failures and the shrunk reproducer.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The failing seed.
    pub seed: u64,
    /// Oracle violations of the generated case.
    pub failures: Vec<Failure>,
    /// The minimized case.
    pub shrunk: FuzzCase,
    /// Oracle violations of the minimized case (what the reproducer shows).
    pub shrunk_failures: Vec<Failure>,
}

/// What [`fuzz_seeds`] found.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The failing seeds; empty for a clean window.
    pub failures: Vec<FuzzFailure>,
    /// Simulations [`check_case`] ran over the window's generated cases
    /// (shrinking not included). Counted as the oracle stack builds each
    /// run's scheduler, so it always matches what the stack does.
    pub oracle_runs: u64,
}

/// Fuzzes seeds `lo..hi` across `jobs` worker threads; every failing seed
/// comes back already shrunk. Deterministic: results are independent of
/// `jobs`.
pub fn fuzz_seeds(lo: u64, hi: u64, budget: u64, jobs: usize) -> FuzzReport {
    let tasks: Vec<_> = (lo..hi)
        .map(|seed| {
            move || {
                let case = FuzzCase::generate(seed, budget);
                let runs = Cell::new(0u64);
                let failures = check_case_with(&case, &|p| {
                    runs.set(runs.get() + 1);
                    p.scheduler()
                });
                if failures.is_empty() {
                    return (runs.get(), None);
                }
                let shrunk = shrink(&case, &mut |c| !check_case(c).is_empty());
                let shrunk_failures = check_case(&shrunk);
                let failure = FuzzFailure {
                    seed,
                    failures,
                    shrunk,
                    shrunk_failures,
                };
                (runs.get(), Some(failure))
            }
        })
        .collect();
    let results = parallel_map(tasks, jobs);
    FuzzReport {
        oracle_runs: results.iter().map(|(runs, _)| runs).sum(),
        failures: results.into_iter().filter_map(|(_, f)| f).collect(),
    }
}

// ---------------------------------------------------------------------------
// Fault injection

/// A deliberately buggy CTA scheduler for exercising the oracle stack: it
/// forwards an inner policy's decisions but silently withholds every
/// kernel's final CTA, so the device can never finish — the kind of
/// off-by-one a real policy could ship with. The run oracle reports the
/// resulting deadlock (or budget exhaustion), and [`shrink`] reduces the
/// triggering case to a minimal reproducer.
#[derive(Debug)]
pub struct StarvingCta {
    inner: Box<dyn CtaScheduler>,
    kernels: Vec<(KernelId, u64, u64)>,
}

impl StarvingCta {
    /// Wraps `inner` with the starvation bug.
    pub fn new(inner: Box<dyn CtaScheduler>) -> Self {
        StarvingCta {
            inner,
            kernels: Vec::new(),
        }
    }
}

impl CtaScheduler for StarvingCta {
    fn name(&self) -> &str {
        "starving"
    }

    fn on_kernel_launch(&mut self, kernel: KernelId, desc: &KernelDescriptor, hw: &GpuConfig) {
        self.kernels.push((kernel, desc.cta_count(), 0));
        self.inner.on_kernel_launch(kernel, desc, hw);
    }

    fn on_kernel_finish(&mut self, kernel: KernelId) {
        self.inner.on_kernel_finish(kernel);
    }

    fn on_cta_complete(&mut self, ev: &CtaCompleteEvent) {
        self.inner.on_cta_complete(ev);
    }

    fn select(&mut self, view: &DispatchView<'_>) -> Option<Dispatch> {
        let d = self.inner.select(view)?;
        let (_, total, dispatched) = self
            .kernels
            .iter_mut()
            .find(|(id, _, _)| *id == d.kernel)?;
        // The bug: refuse any dispatch that would place the last CTA.
        if *dispatched + u64::from(d.count) >= *total {
            return None;
        }
        *dispatched += u64::from(d.count);
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_isa::Instr;

    fn has_instr(gk: &GenKernel, f: fn(&Instr) -> bool) -> bool {
        let p = gk.kernel.compile().expect("generated kernels compile");
        p.instructions().iter().any(|i| f(&i.op))
    }

    fn branches(gk: &GenKernel) -> bool {
        has_instr(gk, |i| matches!(i, Instr::BraCond { .. }))
    }

    /// Shape coverage over the CI seed window, with floors at the counts
    /// the previous two-generator fuzzer drew there (the L1 limits' at
    /// their first counts). Pure generation, no simulation, so it is
    /// cheap even in debug builds.
    #[test]
    fn generation_is_deterministic_and_valid() {
        let cases: Vec<_> = (0..280).map(|s| FuzzCase::generate(s, 1_000_000)).collect();
        for (seed, c) in (0..).zip(&cases) {
            assert_eq!(*c, FuzzCase::generate(seed, 1_000_000));
            assert_eq!(c.validate(), Ok(()));
        }
        let count = |f: &dyn Fn(&FuzzCase) -> bool| cases.iter().filter(|c| f(c)).count();
        let k1_threads = |c: &FuzzCase| c.k1.cta_threads();
        let histogram = [
            ("2-D blocks", count(&|c| c.k1.block.1 > 1), 95),
            ("partial-warp blocks", count(&|c| k1_threads(c) % 32 != 0), 175),
            ("multi-warp CTAs", count(&|c| k1_threads(c) > 32), 194),
            ("whole-warp blocks", count(&|c| k1_threads(c) % 32 == 0), 105),
            ("second kernels", count(&|c| c.k2.is_some()), 97),
            (
                "cases that branch",
                count(&|c| c.launches().any(|(_, l)| branches(&c.kernel(l)))),
                200,
            ),
            ("small L1 MSHR files", count(&|c| c.l1.mshr_entries < 32), 31),
            ("small L1 merge limits", count(&|c| c.l1.mshr_max_merge < 8), 55),
            ("small L1 miss queues", count(&|c| c.l1.miss_queue_len < 8), 48),
        ];
        for (what, got, floor) in histogram {
            assert!(got >= floor, "{what}: {got} of 280 cases, floor {floor}");
        }
        // Every knob takes both values somewhere in the window.
        for knob in [|c: &FuzzCase| c.smem, |c: &FuzzCase| c.divergent] {
            assert!(count(&|c| knob(c)) > 0 && count(&|c| !knob(c)) > 0);
        }
    }

    #[test]
    fn repro_round_trips_and_stays_short() {
        for seed in 0..16 {
            let case = FuzzCase::generate(seed, 1_000_000);
            let text = case.to_repro();
            assert!(text.lines().count() <= 15, "reproducer too long:\n{text}");
            let back = FuzzCase::from_repro(&text).expect("round-trip parses");
            assert_eq!(case, back);
        }
    }

    #[test]
    fn repro_rejects_other_versions() {
        let v2 = FuzzCase::generate(3, 1_000_000).to_repro();
        let v1 = v2.replace("reproducer v2", "reproducer v1");
        let headerless: String = v2.lines().skip(1).map(|l| format!("{l}\n")).collect();
        for (text, names) in [(v1, "format v1"), (headerless, "header")] {
            let e = FuzzCase::from_repro(&text).expect_err("only v2 parses");
            assert!(e.contains(names), "{e}");
            assert!(e.contains("exp fuzz --seeds N..N+1"), "{e}");
        }
    }

    #[test]
    fn repro_rejects_malformed_input() {
        let v2 = |body: &str| format!("{REPRO_HEADER}\n{body}\n");
        assert!(FuzzCase::from_repro(&v2("")).is_ok(), "header alone is the default case");
        for body in [
            "nonsense",
            "warp=nosuch",
            "frob=1",
            "ops=iadd:1",
            "smem=2",
            "block=0x4",
            "block=3",
            "grid2=1x1\nblock2=2x1",
            "kernel2=5",
            "budget=999",
            "l1.mshr_entries=0",
            "l1.miss_queue_len=257",
            "l1.size_bytes=1024",
        ] {
            assert!(FuzzCase::from_repro(&v2(body)).is_err(), "{body:?} accepted");
        }
    }

    /// Hostile extents and counts are rejected with an error: no
    /// arithmetic overflow panic, no silent truncation to a valid value.
    #[test]
    fn repro_rejects_overflowing_input() {
        for body in [
            "block=65536x65536",
            "block=32x32",
            "grid=4294967295x4294967295\nblock=16x32",
            "grid2=4294967295x4294967295\nblock2=16x32\nkernel2=1",
            "grid=256x1\nblock=256x1\ngrid2=1x1\nblock2=32x1\nkernel2=1",
            "segs=4294967297",
            "segs=65",
            "kernel=18446744073709551616",
            "max_ctas=4294967304",
            "l1.mshr_max_merge=4294967297",
        ] {
            let text = format!("{REPRO_HEADER}\n{body}\n");
            assert!(FuzzCase::from_repro(&text).is_err(), "{body:?} accepted");
        }
    }

    /// Byte-level mutants of a v2 reproducer never panic the decoder: each
    /// one is rejected, or it validates and its kernels draw and compile.
    #[test]
    fn mutated_reproducers_are_rejected_or_valid() {
        let mut case = FuzzCase::generate(5, 1_000_000);
        case.k2 = Some(Launch {
            grid: (2, 1),
            block: (10, 3),
            kernel: 77,
        });
        let text = case.to_repro();
        let alphabet = b"0123456789x=#\n-+ ";
        let mut g = Gen::new(0xB17E_F11D);
        let mut accepted = 0;
        for _ in 0..2_000 {
            let mut bytes = text.clone().into_bytes();
            for _ in 0..g.range(1, 4) {
                let i = g.index(bytes.len());
                match g.range(0, 3) {
                    0 => bytes[i] = g.next_u32() as u8,
                    1 => {
                        bytes.remove(i);
                    }
                    _ => bytes.insert(i, *g.choose(alphabet)),
                }
            }
            let mutant = String::from_utf8_lossy(&bytes);
            if let Ok(c) = FuzzCase::from_repro(&mutant) {
                assert_eq!(c.validate(), Ok(()), "{mutant}");
                for (_, l) in c.launches() {
                    c.kernel(l).kernel.compile().expect("valid cases compile");
                }
                accepted += 1;
            }
        }
        // The loop must exercise both outcomes to mean anything.
        assert!((1..2_000).contains(&accepted), "{accepted} mutants accepted");
    }

    #[test]
    fn capture_then_replay_reproduces_direct_outputs() {
        let case = FuzzCase::generate(5, 1_000_000);
        let sched = || CtaPolicy::Baseline(None).scheduler();
        let (direct, _) =
            run_case_mode(&case, sched(), true, true, RunMode::Direct).expect("direct runs");
        let (captured, rec) =
            run_case_mode(&case, sched(), true, true, RunMode::Capture).expect("capture runs");
        assert_eq!(direct, captured, "capture must not perturb outputs");
        let rec = Arc::new(rec.expect("capture yields a record"));
        // Stats, telemetry, and the record-carried hash must match direct
        // execution.
        let (replayed, _) =
            run_case_mode(&case, sched(), true, true, RunMode::Replay(rec)).expect("replay runs");
        assert_eq!(replayed.stats, direct.stats);
        assert_eq!(replayed.telemetry, direct.telemetry);
        assert_eq!(replayed.mem_hash, direct.mem_hash);
        assert!(replayed.slots.is_empty(), "replay never reads result buffers");
    }

    #[test]
    fn shrink_reaches_the_floor_of_every_move() {
        // "Fails whenever shared memory is on and a second kernel runs":
        // every other field must reach its simplest value.
        let mut case = FuzzCase::generate(7, 1_000_000);
        case.smem = true;
        case.divergent = true;
        case.l1.mshr_entries = 2;
        case.k2 = Some(Launch {
            grid: (3, 1),
            block: (24, 2),
            kernel: 99,
        });
        let small = shrink(&case, &mut |c| c.smem && c.k2.is_some());
        let floor = Launch {
            grid: (1, 1),
            block: (1, 1),
            kernel: 1,
        };
        let want = FuzzCase {
            seed: 7,
            warp: "lrr".into(),
            k1: floor,
            k2: Some(floor),
            segs: 0,
            smem: true,
            divergent: false,
            max_ctas: 1,
            budget: 1_000_000,
            l1: default_l1(),
        };
        assert_eq!(small, want);
    }

    /// A case on `block` whose kernels exchange through shared memory,
    /// diverge and loop: the first kernel seed whose draws have a barrier
    /// and a conditional branch.
    fn exercising_case(block: (u32, u32)) -> FuzzCase {
        let mut case = FuzzCase {
            seed: 11,
            warp: "lrr".into(),
            k1: Launch {
                grid: (2, 1),
                block,
                kernel: 0,
            },
            k2: None,
            segs: 8,
            smem: true,
            divergent: true,
            max_ctas: 4,
            budget: 1_000_000,
            l1: default_l1(),
        };
        let exercises = |gk: &GenKernel| branches(gk) && has_instr(gk, |i| matches!(i, Instr::Bar));
        case.k1.kernel = (1..)
            .find(|&k| exercises(&case.kernel(&Launch { kernel: k, ..case.k1 })))
            .expect("some seed exercises every feature");
        case.k2 = Some(Launch {
            grid: (1, 1),
            kernel: case.k1.kernel + 1,
            ..case.k1
        });
        case
    }

    /// The mirror and the device agree on 2-D, sub-warp and partial-warp
    /// blocks, under both warp schedulers and three CTA policies.
    #[test]
    fn dsl_mirror_matches_a_real_run() {
        for block in [(10, 3), (2, 1), (6, 1), (48, 1), (24, 2), (16, 2), (64, 2)] {
            let case = exercising_case(block);
            let want = expected_memory(&case);
            // The outputs must actually have been written: the inputs were
            // drawn from a different stream than zero-initialized memory.
            assert_ne!(want[0], vec![0u32; want[0].len()]);
            for warp in ["lrr", "gto"] {
                for policy in ["baseline", "bcs:2", "lcs:0.7"] {
                    let case = FuzzCase {
                        warp: warp.into(),
                        ..case.clone()
                    };
                    let p: CtaPolicy = policy.parse().expect("known policy");
                    let out = run_case(&case, p.scheduler(), true, false)
                        .unwrap_or_else(|e| panic!("{block:?} {warp} {policy}: {e}"));
                    assert_eq!(out.slots, want, "{block:?} {warp} {policy}");
                }
            }
        }
    }

    #[test]
    fn featureful_case_passes_the_full_oracle_stack() {
        // Includes capture/replay under the baseline and the whole
        // CTA-policy sweep, on a 2-D partial-warp block with a second
        // kernel.
        let fails = check_case(&exercising_case((10, 3)));
        assert!(fails.is_empty(), "{fails:?}");
    }

    #[test]
    fn shrunk_reproducer_stays_green() {
        // A reproducer in exactly the shape `shrink` emits: a sub-warp
        // block, no second kernel, canonical kernel seed. Pinned here so
        // the repro format and the oracle stack keep accepting it.
        let text = "# simcheck reproducer v2\n\
                    seed=11\n\
                    warp=lrr\n\
                    grid=1x1\n\
                    block=3x1\n\
                    kernel=1\n\
                    segs=2\n\
                    smem=0\n\
                    divergent=0\n\
                    max_ctas=1\n\
                    budget=1000000\n";
        let case = FuzzCase::from_repro(text).expect("shrunk reproducer parses");
        assert_eq!(case.k1.block, (3, 1));
        assert_eq!(case.l1, default_l1(), "no l1 keys: the device's L1");
        assert_eq!(case.to_repro(), text, "repro format drifted");
        let fails = check_case(&case);
        assert!(fails.is_empty(), "{fails:?}");
    }
}
