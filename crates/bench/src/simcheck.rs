//! `simcheck`: a deterministic simulation fuzzer with differential
//! oracles and failure minimization.
//!
//! The fuzzer generates small, *data-race-free* kernels (every thread owns
//! one 4-byte slot of a global buffer, indexed by its linearized global
//! thread id), runs them on tiny device configurations, and holds the
//! simulator to three families of oracles. Cases come in two flavors: the
//! classic straight-line op-block kernel, and — when [`FuzzCase::dsl`] is
//! nonzero — a kernel from [`gpgpu_isa::dsl::gen_kernel`] with real
//! control flow (nested divergence, counted loops, barrier-phased shared
//! memory), whose functional oracle is the DSL's own CPU mirror:
//!
//! * **Differential** — the idle fast-forward optimization
//!   ([`GpuDevice::set_fast_forward`](gpgpu_sim::GpuDevice::set_fast_forward))
//!   must be bit-identical to the reference cycle-by-cycle loop in
//!   statistics, telemetry, and final memory, and a repeated run must be
//!   bit-identical to the first (determinism). Record capture must not
//!   perturb any output, and timing replay from the captured record
//!   ([`gpgpu_sim::GpuDevice::set_replay`]) must reproduce direct
//!   execution's statistics, telemetry, and memory hash under every CTA
//!   policy.
//! * **Functional** — because the generated kernels are race-free, final
//!   global memory is computable on the CPU by mirroring each op through
//!   [`gpgpu_isa::sem::eval_alu`]. Every CTA-scheduling policy in
//!   [`CtaPolicy::sweep_named`] must produce exactly the expected buffer
//!   (and the same [`GlobalMem::content_hash`](gpgpu_sim::GlobalMem::content_hash)
//!   as the baseline), no matter how it interleaves CTAs.
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
use gpgpu_isa::dsl::{gen_kernel, DslKernel, GenCfg, GenKernel, MirrorMem};
use gpgpu_isa::{sem, AluOp, CmpOp, CmpTy, Dim2, KernelDescriptor, Program, SpecialReg};
use gpgpu_sim::{
    conservation_violations, CtaCompleteEvent, CtaScheduler, Dispatch, DispatchView, ExecRecord,
    GpuConfig, GpuDevice, KernelId, MemorySink, SimError, TelemetryConfig, TelemetryData,
};
use gpgpu_testkit::{Gen, SplitMix64};
use std::fmt;
use std::sync::Arc;
use tbs_core::{CtaPolicy, WarpPolicy};

/// One step of the per-thread slot transformation: `acc = op(acc, imm)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotOp {
    /// Binary ALU operation, one of [`OP_NAMES`].
    pub op: AluOp,
    /// Immediate operand (zero-extended to 64 bits).
    pub imm: u32,
}

/// The closed set of integer ops generated kernels draw from, with their
/// reproducer-file spellings. All are deterministic and total, so the CPU
/// mirror and the simulator cannot legitimately disagree.
pub const OP_NAMES: &[(&str, AluOp)] = &[
    ("iadd", AluOp::IAdd),
    ("isub", AluOp::ISub),
    ("imul", AluOp::IMul),
    ("and", AluOp::And),
    ("or", AluOp::Or),
    ("xor", AluOp::Xor),
    ("shl", AluOp::Shl),
    ("shr", AluOp::ShrL),
    ("imin", AluOp::IMin),
    ("imax", AluOp::IMax),
];

fn op_name(op: AluOp) -> &'static str {
    OP_NAMES
        .iter()
        .find(|(_, o)| *o == op)
        .map(|(n, _)| *n)
        .expect("op outside the simcheck op set")
}

impl fmt::Display for SlotOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", op_name(self.op), self.imm)
    }
}

impl std::str::FromStr for SlotOp {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (name, imm) = s.split_once(':').ok_or_else(|| format!("bad op {s:?}"))?;
        let op = OP_NAMES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, o)| *o)
            .ok_or_else(|| format!("unknown op {name:?}"))?;
        let imm = imm.parse().map_err(|_| format!("bad immediate in {s:?}"))?;
        Ok(SlotOp { op, imm })
    }
}

/// A fully explicit fuzz case. [`generate`](Self::generate) derives one
/// from a seed; after that the spec stands on its own (the shrinker edits
/// fields directly, and the reproducer file records them all).
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Seed the case was generated from (provenance only once shrunk).
    pub seed: u64,
    /// Warp-scheduler policy name (parses as [`WarpPolicy`]).
    pub warp: String,
    /// Grid shape of kernel 1, in CTAs.
    pub grid: (u32, u32),
    /// CTA shape of kernel 1, in threads. `block.0` is kept even so the
    /// shared-memory partner exchange stays in bounds.
    pub block: (u32, u32),
    /// Times the op block is applied (a counted loop in the kernel).
    pub trips: u32,
    /// Kernel 1's op block.
    pub ops: Vec<SlotOp>,
    /// Whether kernel 1 exchanges values with a partner thread through
    /// shared memory across a barrier.
    pub smem: bool,
    /// Whether even-numbered threads take an extra divergent step.
    pub divergent: bool,
    /// Grid shape of the optional concurrent kernel 2.
    pub grid2: (u32, u32),
    /// CTA shape of kernel 2.
    pub block2: (u32, u32),
    /// Kernel 2's op block; empty means no second kernel.
    pub ops2: Vec<SlotOp>,
    /// Device CTA-residency limit (`GpuConfig::max_ctas_per_core`).
    pub max_ctas: u32,
    /// Nonzero selects a DSL-generated kernel 1: the value seeds
    /// [`gpgpu_isa::dsl::gen_kernel`] (real control flow — nested
    /// divergence, counted loops, barrier-phased shared-memory exchange)
    /// and the functional oracle comes from the DSL's CPU mirror instead
    /// of the straight-line op mirror. `trips` doubles as the generator's
    /// segment count and `smem`/`divergent` gate its feature knobs, so
    /// the shrinker's existing moves also simplify DSL cases. Zero keeps
    /// the classic hand-rolled kernel.
    pub dsl: u64,
    /// Cycle budget; exceeding it is an oracle failure.
    pub budget: u64,
}

/// Largest thread count a case may launch (bounds mirror cost).
const MAX_CASE_THREADS: u64 = 65_536;

impl FuzzCase {
    /// Derives a case from `seed`. Pure and deterministic; the same seed
    /// always yields the same case, independent of platform or build.
    pub fn generate(seed: u64, budget: u64) -> FuzzCase {
        // Decouple the stream from seeded workload inputs.
        let mut g = Gen::new(seed ^ 0x51AC_CE55_0000_0001);
        let warp_named = WarpPolicy::all_named();
        let warp = warp_named[g.index(warp_named.len())].0.to_string();
        let grid2 = (g.range(1, 5) as u32, 1);
        let block2 = (g.range(1, 17) as u32 * 2, 1);
        let ops2 = if g.chance(1, 3) {
            gen_ops(&mut g, 1, 4)
        } else {
            Vec::new()
        };
        // Canonical placeholders when there is no second kernel, so the
        // reproducer round-trip is exact (it omits the unused fields).
        let (grid2, block2) = if ops2.is_empty() {
            ((1, 1), (2, 1))
        } else {
            (grid2, block2)
        };
        let case = FuzzCase {
            seed,
            warp,
            grid: (g.range(1, 7) as u32, g.range(1, 3) as u32),
            block: (g.range(1, 33) as u32 * 2, g.range(1, 3) as u32),
            trips: g.range(1, 5) as u32,
            ops: gen_ops(&mut g, 1, 6),
            smem: g.chance(1, 2),
            divergent: g.chance(1, 2),
            grid2,
            block2,
            ops2,
            max_ctas: g.range(1, 9) as u32,
            dsl: 0,
            budget,
        };
        // Drawn after every classic field so DSL support does not disturb
        // the cases older seeds produced. A DSL kernel needs a 1-D block
        // of whole warps, so the block is redrawn under that constraint.
        let mut case = case;
        if g.chance(1, 3) {
            case.dsl = g.next_u64() | 1;
            case.block = (g.range(1, 5) as u32 * 32, 1);
        }
        debug_assert_eq!(case.validate(), Ok(()));
        case
    }

    /// Threads launched by kernel 1 (saturating, so hostile extents
    /// cannot overflow).
    pub fn threads(&self) -> u64 {
        launch_threads(self.grid, self.block)
    }

    /// Threads launched by kernel 2 (0 when there is none).
    pub fn threads2(&self) -> u64 {
        if self.ops2.is_empty() {
            return 0;
        }
        launch_threads(self.grid2, self.block2)
    }

    /// Checks the spec is well-formed (shapes in range, op set closed,
    /// shared-memory partner exchange in bounds, warp policy parseable).
    /// Generated cases always pass; hand-edited or parsed reproducers are
    /// rejected here before they can wedge the simulator.
    pub fn validate(&self) -> Result<(), String> {
        let dims_ok = |g: (u32, u32), b: (u32, u32)| -> Result<(), String> {
            if g.0 == 0 || g.1 == 0 || b.0 == 0 || b.1 == 0 {
                return Err(format!("zero extent in grid {g:?} / block {b:?}"));
            }
            if u64::from(b.0) * u64::from(b.1) > 1024 {
                return Err(format!("block {b:?} exceeds 1024 threads"));
            }
            Ok(())
        };
        dims_ok(self.grid, self.block)?;
        if self.threads().saturating_add(self.threads2()) > MAX_CASE_THREADS {
            return Err(format!("case launches more than {MAX_CASE_THREADS} threads"));
        }
        if self.ops.is_empty() || self.ops.len() > 64 {
            return Err(format!("ops length {} outside 1..=64", self.ops.len()));
        }
        if !(1..=64).contains(&self.trips) {
            return Err(format!("trips {} outside 1..=64", self.trips));
        }
        if self.smem && (self.block.0 * self.block.1) % 2 != 0 {
            return Err("smem exchange needs an even thread count per CTA".into());
        }
        if !self.ops2.is_empty() {
            dims_ok(self.grid2, self.block2)?;
            if self.ops2.len() > 64 {
                return Err(format!("ops2 length {} outside 0..=64", self.ops2.len()));
            }
        }
        if !(1..=32).contains(&self.max_ctas) {
            return Err(format!("max_ctas {} outside 1..=32", self.max_ctas));
        }
        if self.dsl != 0 && (self.block.1 != 1 || self.block.0 % 32 != 0) {
            return Err(format!(
                "dsl cases need a 1-D block of whole warps, got {:?}",
                self.block
            ));
        }
        if self.budget < 1_000 {
            return Err(format!("budget {} below 1000 cycles", self.budget));
        }
        self.warp
            .parse::<WarpPolicy>()
            .map_err(|e| format!("bad warp policy {:?}: {e}", self.warp))?;
        Ok(())
    }

    /// Serializes the case as a short `key=value` reproducer (one fact per
    /// line, `#` comments; at most 15 lines). [`from_repro`](Self::from_repro)
    /// round-trips it.
    pub fn to_repro(&self) -> String {
        let mut s = String::from("# simcheck reproducer v1\n");
        s.push_str(&format!("seed={}\n", self.seed));
        s.push_str(&format!("warp={}\n", self.warp));
        s.push_str(&format!("grid={}x{}\n", self.grid.0, self.grid.1));
        s.push_str(&format!("block={}x{}\n", self.block.0, self.block.1));
        s.push_str(&format!("trips={}\n", self.trips));
        s.push_str(&format!("ops={}\n", join_ops(&self.ops)));
        s.push_str(&format!("smem={}\n", u8::from(self.smem)));
        s.push_str(&format!("divergent={}\n", u8::from(self.divergent)));
        if !self.ops2.is_empty() {
            s.push_str(&format!("grid2={}x{}\n", self.grid2.0, self.grid2.1));
            s.push_str(&format!("block2={}x{}\n", self.block2.0, self.block2.1));
            s.push_str(&format!("ops2={}\n", join_ops(&self.ops2)));
        }
        if self.dsl != 0 {
            s.push_str(&format!("dsl={}\n", self.dsl));
        }
        s.push_str(&format!("max_ctas={}\n", self.max_ctas));
        s.push_str(&format!("budget={}\n", self.budget));
        s
    }

    /// Parses a reproducer produced by [`to_repro`](Self::to_repro) (or
    /// edited by hand) and [`validate`](Self::validate)s it.
    pub fn from_repro(text: &str) -> Result<FuzzCase, String> {
        let mut case = FuzzCase {
            seed: 0,
            warp: "lrr".into(),
            grid: (1, 1),
            block: (2, 1),
            trips: 1,
            ops: Vec::new(),
            smem: false,
            divergent: false,
            grid2: (1, 1),
            block2: (2, 1),
            ops2: Vec::new(),
            max_ctas: 8,
            dsl: 0,
            budget: 1_000_000,
        };
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key=value", lineno + 1))?;
            let at = |e: String| format!("line {}: {e}", lineno + 1);
            match key.trim() {
                "seed" => case.seed = parse_num(value).map_err(at)?,
                "warp" => case.warp = value.trim().to_string(),
                "grid" => case.grid = parse_dim(value).map_err(at)?,
                "block" => case.block = parse_dim(value).map_err(at)?,
                "trips" => case.trips = parse_u32(value).map_err(at)?,
                "ops" => case.ops = parse_ops(value).map_err(at)?,
                "smem" => case.smem = parse_bool(value).map_err(at)?,
                "divergent" => case.divergent = parse_bool(value).map_err(at)?,
                "grid2" => case.grid2 = parse_dim(value).map_err(at)?,
                "block2" => case.block2 = parse_dim(value).map_err(at)?,
                "ops2" => case.ops2 = parse_ops(value).map_err(at)?,
                "max_ctas" => case.max_ctas = parse_u32(value).map_err(at)?,
                "dsl" => case.dsl = parse_num(value).map_err(at)?,
                "budget" => case.budget = parse_num(value).map_err(at)?,
                other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
            }
        }
        if case.ops.is_empty() {
            return Err("missing ops= line".into());
        }
        case.validate()?;
        Ok(case)
    }
}

/// Threads in a `grid` of `block`-shaped CTAs, saturating at `u64::MAX`.
fn launch_threads(grid: (u32, u32), block: (u32, u32)) -> u64 {
    u64::from(grid.0)
        .saturating_mul(u64::from(grid.1))
        .saturating_mul(u64::from(block.0))
        .saturating_mul(u64::from(block.1))
}

fn gen_ops(g: &mut Gen, min: usize, max: usize) -> Vec<SlotOp> {
    let n = g.range(min as u64, max as u64 + 1) as usize;
    (0..n)
        .map(|_| {
            let (_, op) = *g.choose(OP_NAMES);
            // Small shift distances keep shifted bits observable in the
            // 32-bit slot; everything else takes a full random immediate.
            let imm = match op {
                AluOp::Shl | AluOp::ShrL => g.range(0, 8) as u32,
                _ => g.next_u32(),
            };
            SlotOp { op, imm }
        })
        .collect()
}

fn join_ops(ops: &[SlotOp]) -> String {
    ops.iter()
        .map(|o| o.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_ops(s: &str) -> Result<Vec<SlotOp>, String> {
    s.trim()
        .split(',')
        .filter(|p| !p.is_empty())
        .map(|p| p.trim().parse())
        .collect()
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

// ---------------------------------------------------------------------------
// Kernel construction and execution

/// Deterministic initial value of thread `t`'s slot in kernel `which`.
fn init_value(seed: u64, which: u64, t: u64) -> u32 {
    SplitMix64::new(seed ^ (which << 56) ^ t).next_u64() as u32
}

/// Builds the generated program: each thread loads its slot, applies the
/// op block `trips` times, optionally exchanges with its partner through
/// shared memory, optionally takes a divergent extra step, and stores the
/// slot back. Returns the program and its exact register demand.
fn build_program(
    name: &str,
    block: Dim2,
    ops: &[SlotOp],
    trips: u32,
    smem: bool,
    divergent: bool,
) -> Program {
    let mut k = DslKernel::new(name, block);
    let base = k.param(0);
    let tid = k.global_tid_linear();
    let addr = k.imad(tid, 4u64, base);
    let acc = k.ld_global_u32(addr, 0);
    k.for_range(0u64, u64::from(trips), 1u64, |k, _i| {
        for o in ops {
            k.alu_to(o.op, acc, acc, u64::from(o.imm));
        }
    });
    if smem {
        let ntx = k.special(SpecialReg::NTidX);
        let ty = k.special(SpecialReg::TidY);
        let tx = k.special(SpecialReg::TidX);
        let local = k.imad(ty, ntx, tx);
        let saddr = k.shl(local, 2u64);
        k.st_shared_u32(acc, saddr, 0);
        k.bar();
        let plocal = k.xor(local, 1u64);
        let paddr = k.shl(plocal, 2u64);
        let pval = k.ld_shared_u32(paddr, 0);
        k.alu_to(AluOp::IAdd, acc, acc, pval);
    }
    if divergent {
        let bit = k.and(tid, 1u64);
        let p = k.setp(CmpOp::Eq, CmpTy::U64, bit, 0u64);
        k.if_then(p, |k| {
            k.alu3_to(AluOp::IMad, acc, acc, 3u64, 7u64);
        });
    }
    k.st_global_u32(acc, addr, 0);
    k.compile().expect("generated programs are structured")
}

/// Generator configuration for a DSL case: `trips` doubles as the segment
/// count and the `smem`/`divergent` flags gate the feature knobs, so the
/// shrinker's existing field moves also simplify the generated kernel.
fn dsl_case_cfg(case: &FuzzCase) -> GenCfg {
    GenCfg {
        block: Dim2::x(case.block.0),
        segments: case.trips as usize,
        smem: case.smem,
        divergence: case.divergent,
        loops: true,
    }
}

/// Builds the DSL-generated kernel 1 for a case with `dsl != 0`. Pure in
/// the case fields, so the run path and the mirror path always agree on
/// the kernel.
fn build_dsl_kernel(case: &FuzzCase) -> GenKernel {
    debug_assert_ne!(case.dsl, 0);
    gen_kernel(&mut Gen::new(case.dsl), &dsl_case_cfg(case))
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
    /// Kernel 1's final buffer.
    pub slots: Vec<u32>,
    /// Kernel 2's final buffer (empty when there is no second kernel).
    pub slots2: Vec<u32>,
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
    run_case_mode(case, cta, fast_forward, telemetry, CaseMode::Direct).map(|(out, _)| out)
}

/// How [`run_case_mode`] drives the device: plain execution, execution
/// with record capture, or timing replay from a captured record.
pub enum CaseMode {
    /// Plain execution.
    Direct,
    /// Execute and capture an [`ExecRecord`].
    Capture,
    /// Replay timing from a record; global memory data is never touched,
    /// so the returned [`RunOutput`] carries the record's `mem_hash` and
    /// empty result buffers (the functional oracle does not apply).
    Replay(Arc<ExecRecord>),
}

/// The full-control variant behind [`run_case`]: also selects
/// capture or replay, and returns the captured record when capturing.
///
/// # Errors
///
/// As [`run_case`].
pub fn run_case_mode(
    case: &FuzzCase,
    cta: Box<dyn CtaScheduler>,
    fast_forward: bool,
    telemetry: bool,
    mode: CaseMode,
) -> Result<(RunOutput, Option<ExecRecord>), SimError> {
    let mut cfg = GpuConfig::test_small();
    cfg.max_ctas_per_core = case.max_ctas;
    // A wedged case should fail fast, not burn the whole budget.
    cfg.deadlock_cycles = cfg.deadlock_cycles.min(case.budget);
    let warp: WarpPolicy = case.warp.parse().expect("validated warp policy");
    let factory = warp.factory();
    let mut dev = GpuDevice::new(cfg, factory.as_ref(), cta);
    dev.set_fast_forward(fast_forward);
    let replaying = match &mode {
        CaseMode::Direct => false,
        CaseMode::Capture => {
            dev.set_capture(true);
            false
        }
        CaseMode::Replay(rec) => {
            dev.set_replay(Arc::clone(rec));
            true
        }
    };
    if telemetry {
        dev.enable_telemetry(TelemetryConfig::new(500), Box::new(MemorySink::new()));
    }

    let n1 = case.threads();
    let init1: Vec<u32> = (0..n1).map(|t| init_value(case.seed, 1, t)).collect();
    // For a DSL case, kernel 1 reads `in[tid]` and writes `out[tid]`
    // (two buffers, params `[in, out]`); the classic kernel updates one
    // slot buffer in place. Either way `buf1` is where the final
    // per-thread results land.
    let buf1 = if case.dsl != 0 {
        let gk = build_dsl_kernel(case);
        let buf_in = dev.alloc(n1 * 4);
        dev.mem().write_u32_slice(buf_in, &init1);
        let buf_out = dev.alloc(n1 * 4);
        let prog1 = Arc::new(gk.kernel.compile().expect("validated DSL case compiles"));
        let k1 = KernelDescriptor::builder(
            prog1,
            Dim2::new(case.grid.0, case.grid.1),
            Dim2::new(case.block.0, case.block.1),
        )
        .params([buf_in, buf_out])
        .smem_per_cta(gk.smem_bytes as u32)
        .build()
        .expect("validated case builds");
        dev.launch(k1);
        buf_out
    } else {
        let buf1 = dev.alloc(n1 * 4);
        dev.mem().write_u32_slice(buf1, &init1);
        let prog1 = Arc::new(build_program(
            "fuzz1",
            Dim2::new(case.block.0, case.block.1),
            &case.ops,
            case.trips,
            case.smem,
            case.divergent,
        ));
        let tpc1 = case.block.0 * case.block.1;
        let k1 = KernelDescriptor::builder(
            prog1,
            Dim2::new(case.grid.0, case.grid.1),
            Dim2::new(case.block.0, case.block.1),
        )
        .params([buf1])
        .smem_per_cta(if case.smem { tpc1 * 4 } else { 0 })
        .build()
        .expect("validated case builds");
        dev.launch(k1);
        buf1
    };

    let n2 = case.threads2();
    let buf2 = if n2 > 0 {
        let buf2 = dev.alloc(n2 * 4);
        let init2: Vec<u32> = (0..n2).map(|t| init_value(case.seed, 2, t)).collect();
        dev.mem().write_u32_slice(buf2, &init2);
        let prog2 = Arc::new(build_program(
            "fuzz2",
            Dim2::new(case.block2.0, case.block2.1),
            &case.ops2,
            1,
            false,
            false,
        ));
        let k2 = KernelDescriptor::builder(
            prog2,
            Dim2::new(case.grid2.0, case.grid2.1),
            Dim2::new(case.block2.0, case.block2.1),
        )
        .params([buf2])
        .build()
        .expect("validated case builds");
        dev.launch(k2);
        Some(buf2)
    } else {
        None
    };

    dev.run(case.budget)?;
    let (mem_hash, slots, slots2) = if replaying {
        // Replay never writes memory data: the final hash is the one the
        // record carries, and the buffers still hold their initial values.
        let CaseMode::Replay(rec) = &mode else { unreachable!() };
        (rec.mem_hash, Vec::new(), Vec::new())
    } else {
        let slots = dev.mem_ref().read_u32_vec(buf1, n1 as usize);
        let slots2 = match buf2 {
            Some(b) => dev.mem_ref().read_u32_vec(b, n2 as usize),
            None => Vec::new(),
        };
        (dev.mem_ref().content_hash(), slots, slots2)
    };
    let record = dev.take_record();
    Ok((
        RunOutput {
            stats: dev.stats(),
            mem_hash,
            telemetry: dev.take_telemetry_data(),
            slots,
            slots2,
        },
        record,
    ))
}

// ---------------------------------------------------------------------------
// The functional mirror

/// CPU-computed expected final buffers for a case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpectedMem {
    /// Kernel 1's expected buffer.
    pub k1: Vec<u32>,
    /// Kernel 2's expected buffer (empty when there is no second kernel).
    pub k2: Vec<u32>,
}

/// CPU mirror for a DSL case's kernel 1: seed a [`MirrorMem`] with the
/// same per-thread inputs the device gets and run the statement-lockstep
/// interpreter. The kernel derives every address from its params, so
/// mirroring at synthetic base addresses (`in` at 0, `out` right after)
/// yields the same values as the device run at whatever addresses
/// `alloc` handed out.
fn dsl_expected(case: &FuzzCase) -> Vec<u32> {
    let gk = build_dsl_kernel(case);
    let n = case.threads();
    let mut mem = MirrorMem::new();
    for t in 0..n {
        mem.write_u32(t * 4, init_value(case.seed, 1, t));
    }
    gk.kernel
        .mirror(Dim2::new(case.grid.0, case.grid.1), &[0, n * 4], &mut mem)
        .expect("validated DSL case mirrors");
    mem.read_u32_vec(n * 4, n as usize)
}

/// Mirrors the generated kernels through [`sem::eval_alu`] — the same
/// pure semantics the simulator's cores evaluate — to predict the final
/// global buffers. Valid because the kernels are race-free by
/// construction: each thread touches only its own slot, and the shared
/// memory exchange is separated by a barrier. DSL cases (`dsl != 0`)
/// mirror kernel 1 through the DSL's own lockstep interpreter instead,
/// which models the generated control flow exactly.
pub fn expected_memory(case: &FuzzCase) -> ExpectedMem {
    let mirror = |which: u64,
                  grid: (u32, u32),
                  block: (u32, u32),
                  ops: &[SlotOp],
                  trips: u32,
                  smem: bool,
                  divergent: bool| {
        let tpc = u64::from(block.0) * u64::from(block.1);
        let n = u64::from(grid.0) * u64::from(grid.1) * tpc;
        // Phase 1: loads zero-extend (W4), the op loop runs on the full
        // 64-bit register value.
        let pre: Vec<u64> = (0..n)
            .map(|t| {
                let mut acc = u64::from(init_value(case.seed, which, t));
                for _ in 0..trips {
                    for o in ops {
                        acc = sem::eval_alu(o.op, acc, u64::from(o.imm), 0);
                    }
                }
                acc
            })
            .collect();
        // Phase 2: partner values pass through a 32-bit shared slot, so
        // they truncate; the thread's own accumulator does not.
        let post: Vec<u64> = (0..n as usize)
            .map(|t| {
                let mut acc = pre[t];
                if smem {
                    let local = t as u64 % tpc;
                    let partner = (t as u64 - local + (local ^ 1)) as usize;
                    let pval = u64::from(pre[partner] as u32);
                    acc = sem::eval_alu(AluOp::IAdd, acc, pval, 0);
                }
                if divergent && t % 2 == 0 {
                    acc = sem::eval_alu(AluOp::IMad, acc, 3, 7);
                }
                acc
            })
            .collect();
        // The final store is W4: truncate.
        post.into_iter().map(|v| v as u32).collect::<Vec<u32>>()
    };
    ExpectedMem {
        k1: if case.dsl != 0 {
            dsl_expected(case)
        } else {
            mirror(
                1,
                case.grid,
                case.block,
                &case.ops,
                case.trips,
                case.smem,
                case.divergent,
            )
        },
        k2: if case.ops2.is_empty() {
            Vec::new()
        } else {
            mirror(2, case.grid2, case.block2, &case.ops2, 1, false, false)
        },
    }
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
    let record = match run_case_mode(case, make_sched(baseline), true, true, CaseMode::Capture) {
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
        let replay = CaseMode::Replay(Arc::clone(rec));
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
                if let Some(d) = diff_slots(name, &out.slots, &expected.k1) {
                    fails.push(fail("functional", format!("kernel 1, {d}")));
                }
                if let Some(d) = diff_slots(name, &out.slots2, &expected.k2) {
                    fails.push(fail("functional", format!("kernel 2, {d}")));
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
                        CaseMode::Replay(Arc::clone(rec)),
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
fn shrink_candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut FuzzCase)| {
        let mut c = case.clone();
        f(&mut c);
        if c != *case {
            out.push(c);
        }
    };
    push(&|c| c.dsl = 0);
    push(&|c| {
        if c.dsl > 1 {
            // Keep it a DSL case, but with the canonical seed.
            c.dsl = 1;
        }
    });
    push(&|c| {
        if c.dsl != 0 {
            c.block = (32, 1);
        }
    });
    push(&|c| c.ops2 = Vec::new());
    push(&|c| c.smem = false);
    push(&|c| c.divergent = false);
    push(&|c| c.trips = 1);
    for i in 0..case.ops.len() {
        if case.ops.len() > 1 {
            push(&|c| {
                c.ops.remove(i);
            });
        }
        push(&|c| c.ops[i].imm = 1);
    }
    for i in 0..case.ops2.len() {
        push(&|c| {
            c.ops2.remove(i);
        });
    }
    push(&|c| c.grid.0 = (c.grid.0 / 2).max(1));
    push(&|c| c.grid.1 = 1);
    push(&|c| c.block.0 = (c.block.0 / 2).max(2) & !1);
    push(&|c| c.block.1 = 1);
    push(&|c| c.grid2 = (1, 1));
    push(&|c| c.block2 = (2, 1));
    push(&|c| c.max_ctas = 1);
    push(&|c| c.warp = "lrr".to_string());
    out
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

/// Fuzzes seeds `lo..hi` across `jobs` worker threads and returns the
/// failing ones, each already shrunk. An empty result is a clean window.
/// Deterministic: results are independent of `jobs`.
pub fn fuzz_seeds(lo: u64, hi: u64, budget: u64, jobs: usize) -> Vec<FuzzFailure> {
    let tasks: Vec<_> = (lo..hi)
        .map(|seed| {
            move || {
                let case = FuzzCase::generate(seed, budget);
                let failures = check_case(&case);
                if failures.is_empty() {
                    return None;
                }
                let shrunk = shrink(&case, &mut |c| !check_case(c).is_empty());
                let shrunk_failures = check_case(&shrunk);
                Some(FuzzFailure {
                    seed,
                    failures,
                    shrunk,
                    shrunk_failures,
                })
            }
        })
        .collect();
    parallel_map(tasks, jobs).into_iter().flatten().collect()
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

    #[test]
    fn generation_is_deterministic_and_valid() {
        for seed in 0..32 {
            let a = FuzzCase::generate(seed, 1_000_000);
            let b = FuzzCase::generate(seed, 1_000_000);
            assert_eq!(a, b);
            assert_eq!(a.validate(), Ok(()));
        }
        // Seeds actually vary the space.
        let cases: Vec<_> = (0..32).map(|s| FuzzCase::generate(s, 1_000_000)).collect();
        assert!(cases.iter().any(|c| c.smem));
        assert!(cases.iter().any(|c| !c.smem));
        assert!(cases.iter().any(|c| !c.ops2.is_empty()));
        assert!(cases.iter().any(|c| c.ops2.is_empty()));
    }

    #[test]
    fn repro_round_trips_and_stays_short() {
        for seed in 0..16 {
            let case = FuzzCase::generate(seed, 1_000_000);
            let text = case.to_repro();
            assert!(
                text.lines().count() < 20,
                "reproducer too long:\n{text}"
            );
            let back = FuzzCase::from_repro(&text).expect("round-trip parses");
            assert_eq!(case, back);
        }
    }

    #[test]
    fn repro_rejects_malformed_input() {
        assert!(FuzzCase::from_repro("").is_err(), "missing ops");
        assert!(FuzzCase::from_repro("nonsense").is_err());
        assert!(FuzzCase::from_repro("ops=iadd:1\nblock=3x1\nsmem=1").is_err());
        assert!(FuzzCase::from_repro("ops=iadd:1\nwarp=nosuch").is_err());
        assert!(FuzzCase::from_repro("ops=frob:1").is_err());
    }

    /// Hostile extents and counts are rejected with an error: no
    /// arithmetic overflow panic, no silent truncation to a valid value.
    #[test]
    fn repro_rejects_overflowing_input() {
        for text in [
            "ops=iadd:1\nblock=65536x65536",
            "ops=iadd:1\ngrid=4294967295x4294967295\nblock=32x32",
            "ops=iadd:1\ntrips=4294967297",
            "ops=iadd:1\nmax_ctas=4294967304",
        ] {
            assert!(FuzzCase::from_repro(text).is_err(), "{text:?} accepted");
        }
    }

    #[test]
    fn capture_then_replay_reproduces_direct_outputs() {
        let case = FuzzCase::generate(5, 1_000_000);
        let sched = || CtaPolicy::Baseline(None).scheduler();
        let (direct, _) =
            run_case_mode(&case, sched(), true, true, CaseMode::Direct).expect("direct runs");
        let (captured, rec) =
            run_case_mode(&case, sched(), true, true, CaseMode::Capture).expect("capture runs");
        assert_eq!(direct, captured, "capture must not perturb outputs");
        let rec = Arc::new(rec.expect("capture yields a record"));
        // Stats, telemetry, and the record-carried hash must match direct
        // execution.
        let (replayed, _) =
            run_case_mode(&case, sched(), true, true, CaseMode::Replay(rec)).expect("replay runs");
        assert_eq!(replayed.stats, direct.stats);
        assert_eq!(replayed.telemetry, direct.telemetry);
        assert_eq!(replayed.mem_hash, direct.mem_hash);
        assert!(replayed.slots.is_empty(), "replay never reads result buffers");
    }

    #[test]
    fn expected_memory_matches_a_real_run() {
        let case = FuzzCase::generate(3, 1_000_000);
        let out = run_case(&case, CtaPolicy::Baseline(None).scheduler(), true, false)
            .expect("case runs");
        let exp = expected_memory(&case);
        assert_eq!(out.slots, exp.k1);
        assert_eq!(out.slots2, exp.k2);
    }

    #[test]
    fn shrink_minimizes_against_a_synthetic_predicate() {
        // "Fails whenever kernel 1 contains an IMul" — the shrinker must
        // strip everything else and keep one op.
        let mut case = FuzzCase::generate(7, 1_000_000);
        case.ops = vec![
            SlotOp { op: AluOp::IAdd, imm: 5 },
            SlotOp { op: AluOp::IMul, imm: 1234 },
            SlotOp { op: AluOp::Xor, imm: 9 },
        ];
        let small = shrink(&case, &mut |c| {
            c.ops.iter().any(|o| o.op == AluOp::IMul)
        });
        assert_eq!(small.ops.len(), 1);
        assert_eq!(small.ops[0].op, AluOp::IMul);
        assert_eq!(small.ops[0].imm, 1);
        assert!(small.ops2.is_empty());
        assert!(!small.smem);
        assert!(!small.divergent);
        assert_eq!(small.trips, 1);
        assert_eq!(small.grid, (1, 1));
        assert_eq!(small.block, (2, 1));
    }

    /// A small DSL case exercising every generator knob. `check_case`
    /// runs it through the full oracle stack, so keep the shapes tiny.
    fn dsl_case() -> FuzzCase {
        let case = FuzzCase {
            seed: 11,
            warp: "gto".into(),
            grid: (2, 1),
            block: (32, 1),
            trips: 6,
            ops: vec![SlotOp { op: AluOp::IAdd, imm: 1 }],
            smem: true,
            divergent: true,
            grid2: (1, 1),
            block2: (2, 1),
            ops2: Vec::new(),
            max_ctas: 4,
            dsl: 0xC0FFEE,
            budget: 1_000_000,
        };
        assert_eq!(case.validate(), Ok(()));
        case
    }

    #[test]
    fn generation_covers_dsl_cases() {
        let cases: Vec<_> = (0..64).map(|s| FuzzCase::generate(s, 1_000_000)).collect();
        assert!(cases.iter().any(|c| c.dsl != 0), "no DSL cases in 64 seeds");
        assert!(cases.iter().any(|c| c.dsl == 0), "no classic cases in 64 seeds");
        for c in cases.iter().filter(|c| c.dsl != 0) {
            assert_eq!(c.block.1, 1);
            assert_eq!(c.block.0 % 32, 0);
            // Round-trip through the reproducer format, dsl key included.
            let text = c.to_repro();
            assert!(text.contains("dsl="), "dsl key missing:\n{text}");
            assert_eq!(&FuzzCase::from_repro(&text).expect("parses"), c);
        }
    }

    #[test]
    fn dsl_mirror_matches_a_real_run() {
        let case = dsl_case();
        let out = run_case(&case, CtaPolicy::Baseline(None).scheduler(), true, false)
            .expect("case runs");
        let exp = expected_memory(&case);
        assert_eq!(out.slots, exp.k1);
        // The output buffer must actually have been written: the inputs
        // were drawn from a different stream than zero-initialized gmem.
        assert_ne!(out.slots, vec![0u32; out.slots.len()]);
    }

    #[test]
    fn dsl_case_passes_the_full_oracle_stack() {
        // Includes capture/replay under the baseline and the whole
        // CTA-policy sweep — the oracle must stay green on DSL cases.
        let fails = check_case(&dsl_case());
        assert!(fails.is_empty(), "{fails:?}");
    }

    #[test]
    fn shrink_simplifies_dsl_cases_within_their_constraints() {
        // "Fails whenever kernel 1 is DSL-generated": the shrinker must
        // keep dsl nonzero, canonicalize its seed, and respect the
        // whole-warp block constraint while stripping everything else.
        let mut case = dsl_case();
        case.block = (64, 1);
        case.ops2 = vec![SlotOp { op: AluOp::Xor, imm: 3 }];
        let small = shrink(&case, &mut |c| c.dsl != 0);
        assert_eq!(small.dsl, 1);
        assert_eq!(small.block, (32, 1));
        assert_eq!(small.grid, (1, 1));
        assert_eq!(small.trips, 1);
        assert!(small.ops2.is_empty());
        assert!(!small.smem);
        assert!(!small.divergent);
        assert_eq!(small.validate(), Ok(()));
    }

    #[test]
    fn shrunk_dsl_reproducer_stays_green() {
        // A reproducer in exactly the shape `shrink` emits for a DSL
        // case (minimal shapes, canonical dsl seed). Pinned here so the
        // repro format and the oracle stack keep accepting it.
        let text = "# simcheck reproducer v1\n\
                    seed=11\n\
                    warp=lrr\n\
                    grid=1x1\n\
                    block=32x1\n\
                    trips=1\n\
                    ops=iadd:1\n\
                    smem=0\n\
                    divergent=0\n\
                    dsl=1\n\
                    max_ctas=1\n\
                    budget=1000000\n";
        let case = FuzzCase::from_repro(text).expect("shrunk reproducer parses");
        assert_eq!(case.dsl, 1);
        assert_eq!(case.to_repro(), text, "repro format drifted");
        let fails = check_case(&case);
        assert!(fails.is_empty(), "{fails:?}");
    }
}
