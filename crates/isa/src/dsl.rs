//! The kernel DSL: a structured kernel front end with a compiler to
//! [`Program`] and a CPU-mirror evaluator.
//!
//! Every kernel in the workspace is written here. A [`DslKernel`] records a
//! *statement tree* (straight-line ops, guards, `if`/`else`, counted loops,
//! barriers) whose semantics are known by construction. From that one tree
//! we derive three things:
//!
//! 1. **A [`Program`]** — [`DslKernel::compile`] walks the tree in recording
//!    order and emits instructions through the crate-internal assembler,
//!    which lays out structured control flow with correct reconvergence
//!    PCs. Register allocation is deterministic (one fresh register per
//!    fresh value, in recording order), so the same tree always compiles
//!    to the same bytes.
//! 2. **A CPU mirror** — [`DslKernel::mirror`] executes the tree directly,
//!    statement-lockstep across a CTA with SIMT active masks, using the
//!    same [`sem`](crate::sem) evaluation functions the simulator uses.
//!    Every generated workload therefore ships with its own functional
//!    oracle: expected memory contents without running the simulator.
//! 3. **Static validation** — [`DslKernel::validate`] checks use-before-def
//!    on values and predicates, rejects barriers outside CTA-uniform
//!    control flow (which would deadlock the device), and bounds
//!    register/predicate pressure *before* compilation, so generators can
//!    never trip the assembler's panics.
//!
//! [`gen_kernel`] produces random-but-race-free kernels (per-thread output
//! slots, shared-memory exchange only across top-level barriers) from a
//! seeded [`Gen`] stream; `simcheck` and the ISA property tests both build
//! on it.

use crate::builder::KernelBuilder;
use crate::instr::{AddrExpr, Instr};
use crate::program::{Program, ProgramError};
use crate::sem;
use crate::types::{
    AccessWidth, AluOp, CmpOp, CmpTy, Dim2, MemSpace, Operand, PBoolOp, Pred, Reg, SpecialReg,
};
use gpgpu_testkit::Gen;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Architectural register budget (mirrors the program-level limit).
const MAX_REGS: u16 = 64;
/// Architectural predicate budget.
const MAX_PREDS: u16 = 8;

// ---------------------------------------------------------------------------
// Values and operands
// ---------------------------------------------------------------------------

/// A virtual value produced by a DSL statement; compiles to one
/// architectural register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Val(u32);

/// A virtual predicate; compiles to one architectural predicate register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredVal(u32);

/// A DSL source operand: a virtual value or a 64-bit immediate.
///
/// The `From` impls mirror [`Operand`]'s: `f32` immediates store their bit
/// pattern in the low 32 bits, exactly as the ISA does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Src {
    /// Read a virtual value.
    Val(Val),
    /// A literal, identical across lanes.
    Imm(u64),
}

impl From<Val> for Src {
    fn from(v: Val) -> Self {
        Src::Val(v)
    }
}

impl From<u64> for Src {
    fn from(v: u64) -> Self {
        Src::Imm(v)
    }
}

impl From<i64> for Src {
    fn from(v: i64) -> Self {
        Src::Imm(v as u64)
    }
}

impl From<u32> for Src {
    fn from(v: u32) -> Self {
        Src::Imm(u64::from(v))
    }
}

impl From<f32> for Src {
    fn from(v: f32) -> Self {
        Src::Imm(u64::from(v.to_bits()))
    }
}

// ---------------------------------------------------------------------------
// Statement tree
// ---------------------------------------------------------------------------

/// One recorded statement. The tree is private; it is produced by the
/// [`DslKernel`] builder methods and consumed by compile/mirror/validate.
#[derive(Debug, Clone)]
enum Stmt {
    /// Allocate a register without writing it (for `_to`-style reuse).
    Declare { dst: Val },
    /// Allocate a predicate without writing it.
    DeclarePred { dst: PredVal },
    Param { dst: Val, index: u8 },
    Special { dst: Val, sreg: SpecialReg },
    /// The `ctaid.x * ntid.x + tid.x` idiom (4 registers).
    GlobalTidX { dst: Val },
    /// The any-shape linear thread index idiom (8 registers).
    GlobalTidLinear { dst: Val },
    Mov { dst: Val, src: Src },
    Alu { op: AluOp, dst: Val, a: Src, b: Src, c: Src },
    SetP { dst: PredVal, cmp: CmpOp, ty: CmpTy, a: Src, b: Src },
    PBool { dst: PredVal, op: PBoolOp, a: PredVal, b: PredVal },
    Sel { dst: Val, pred: PredVal, a: Src, b: Src },
    Ld { space: MemSpace, dst: Val, base: Val, offset: i64 },
    St { space: MemSpace, src: Src, base: Val, offset: i64 },
    Bar,
    Guard { pred: PredVal, expect: bool, body: Vec<Stmt> },
    IfThen { pred: PredVal, body: Vec<Stmt> },
    IfThenElse { pred: PredVal, then_body: Vec<Stmt>, else_body: Vec<Stmt> },
    ForRange { induction: Val, start: Src, end: Src, step: Src, body: Vec<Stmt> },
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a DSL kernel failed validation or compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DslError {
    /// A value or predicate was read before any statement wrote it.
    UseBeforeDef {
        /// Human-readable description of the offending read.
        what: String,
    },
    /// A barrier appeared under divergent control flow (an `if`, a guard,
    /// or a loop whose bounds are not CTA-uniform), which would deadlock
    /// the device.
    BarrierInDivergentFlow,
    /// The kernel would allocate more registers than the ISA allows.
    TooManyRegs {
        /// Registers the compiled kernel would need.
        needed: u16,
    },
    /// The kernel would allocate more predicates than the ISA allows.
    TooManyPreds {
        /// Predicates the compiled kernel would need.
        needed: u16,
    },
    /// The compiled instruction sequence failed program validation.
    Program(ProgramError),
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DslError::UseBeforeDef { what } => write!(f, "use before definition: {what}"),
            DslError::BarrierInDivergentFlow => {
                write!(f, "barrier under divergent control flow would deadlock")
            }
            DslError::TooManyRegs { needed } => {
                write!(f, "kernel needs {needed} registers, limit is {MAX_REGS}")
            }
            DslError::TooManyPreds { needed } => {
                write!(f, "kernel needs {needed} predicates, limit is {MAX_PREDS}")
            }
            DslError::Program(e) => write!(f, "compiled program invalid: {e}"),
        }
    }
}

impl Error for DslError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DslError::Program(e) => Some(e),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Records a structured kernel as a statement tree.
///
/// Fresh-form methods (`param`, `iadd`, `ld_global_u32`, ...) return a new
/// value that compiles to a new register; `_to` forms write an existing
/// value (from [`declare`](Self::declare) or an earlier statement), which
/// is how loops reuse registers. See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct DslKernel {
    name: String,
    block: Dim2,
    /// Statement frames: index 0 is the top-level body; structured helpers
    /// push a frame, record into it, then pop it into the parent statement.
    frames: Vec<Vec<Stmt>>,
    next_val: u32,
    next_pred: u32,
    /// Exact register count `compile` will allocate (fresh values plus
    /// idiom-internal temporaries).
    regs_planned: u16,
    /// Exact predicate count `compile` will allocate (fresh predicates plus
    /// one internal per counted loop).
    preds_planned: u16,
    in_guard: bool,
}

impl DslKernel {
    /// Starts a kernel named `name` with CTA shape `block`.
    pub fn new(name: impl Into<String>, block: Dim2) -> Self {
        DslKernel {
            name: name.into(),
            block,
            frames: vec![Vec::new()],
            next_val: 0,
            next_pred: 0,
            regs_planned: 0,
            preds_planned: 0,
            in_guard: false,
        }
    }

    /// The CTA shape this kernel is built for.
    pub fn block_dim(&self) -> Dim2 {
        self.block
    }

    /// The kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers [`compile`](Self::compile) will allocate.
    pub fn regs_planned(&self) -> u16 {
        self.regs_planned
    }

    /// Predicates [`compile`](Self::compile) will allocate.
    pub fn preds_planned(&self) -> u16 {
        self.preds_planned
    }

    fn fresh_val(&mut self, extra_regs: u16) -> Val {
        let v = Val(self.next_val);
        self.next_val += 1;
        self.regs_planned += 1 + extra_regs;
        v
    }

    fn fresh_pred(&mut self) -> PredVal {
        let p = PredVal(self.next_pred);
        self.next_pred += 1;
        self.preds_planned += 1;
        p
    }

    fn push(&mut self, s: Stmt) {
        self.frames.last_mut().expect("frame stack nonempty").push(s);
    }

    // ----- declarations --------------------------------------------------

    /// Allocates a value without writing it, for `_to`-style register reuse
    /// (compiles to a register allocation with no instruction). The value
    /// must be written before it is read.
    pub fn declare(&mut self) -> Val {
        let v = self.fresh_val(0);
        self.push(Stmt::Declare { dst: v });
        v
    }

    /// Allocates a predicate without writing it (compiles to a predicate
    /// allocation with no instruction).
    pub fn declare_pred(&mut self) -> PredVal {
        let p = self.fresh_pred();
        self.push(Stmt::DeclarePred { dst: p });
        p
    }

    // ----- straight-line statements --------------------------------------

    /// Loads kernel parameter `index` into a fresh value.
    pub fn param(&mut self, index: u8) -> Val {
        let v = self.fresh_val(0);
        self.push(Stmt::Param { dst: v, index });
        v
    }

    /// Reads special register `sreg` into a fresh value.
    pub fn special(&mut self, sreg: SpecialReg) -> Val {
        let v = self.fresh_val(0);
        self.push(Stmt::Special { dst: v, sreg });
        v
    }

    /// The global 1-D thread index idiom (`ctaid.x * ntid.x + tid.x`).
    pub fn global_tid_x(&mut self) -> Val {
        let v = self.fresh_val(3);
        self.push(Stmt::GlobalTidX { dst: v });
        v
    }

    /// The linearized global thread index idiom for any grid/block shape.
    pub fn global_tid_linear(&mut self) -> Val {
        let v = self.fresh_val(7);
        self.push(Stmt::GlobalTidLinear { dst: v });
        v
    }

    /// Returns a fresh value holding `src`.
    pub fn movi(&mut self, src: impl Into<Src>) -> Val {
        let v = self.fresh_val(0);
        self.push(Stmt::Mov { dst: v, src: src.into() });
        v
    }

    /// `dst = src` into an existing value.
    pub fn mov_to(&mut self, dst: Val, src: impl Into<Src>) {
        self.push(Stmt::Mov { dst, src: src.into() });
    }

    /// A binary ALU op into a fresh value.
    pub fn alu(&mut self, op: AluOp, a: impl Into<Src>, b: impl Into<Src>) -> Val {
        let v = self.fresh_val(0);
        self.push(Stmt::Alu { op, dst: v, a: a.into(), b: b.into(), c: Src::Imm(0) });
        v
    }

    /// A binary ALU op into an existing value.
    pub fn alu_to(&mut self, op: AluOp, dst: Val, a: impl Into<Src>, b: impl Into<Src>) {
        self.push(Stmt::Alu { op, dst, a: a.into(), b: b.into(), c: Src::Imm(0) });
    }

    /// A ternary ALU op (`IMad`/`FFma`) into a fresh value.
    pub fn alu3(
        &mut self,
        op: AluOp,
        a: impl Into<Src>,
        b: impl Into<Src>,
        c: impl Into<Src>,
    ) -> Val {
        let v = self.fresh_val(0);
        self.push(Stmt::Alu { op, dst: v, a: a.into(), b: b.into(), c: c.into() });
        v
    }

    /// A ternary ALU op into an existing value.
    pub fn alu3_to(
        &mut self,
        op: AluOp,
        dst: Val,
        a: impl Into<Src>,
        b: impl Into<Src>,
        c: impl Into<Src>,
    ) {
        self.push(Stmt::Alu { op, dst, a: a.into(), b: b.into(), c: c.into() });
    }

    /// `a + b` into a fresh value.
    pub fn iadd(&mut self, a: impl Into<Src>, b: impl Into<Src>) -> Val {
        self.alu(AluOp::IAdd, a, b)
    }

    /// `a - b` into a fresh value.
    pub fn isub(&mut self, a: impl Into<Src>, b: impl Into<Src>) -> Val {
        self.alu(AluOp::ISub, a, b)
    }

    /// `a * b` into a fresh value.
    pub fn imul(&mut self, a: impl Into<Src>, b: impl Into<Src>) -> Val {
        self.alu(AluOp::IMul, a, b)
    }

    /// `a * b + c` into a fresh value.
    pub fn imad(&mut self, a: impl Into<Src>, b: impl Into<Src>, c: impl Into<Src>) -> Val {
        self.alu3(AluOp::IMad, a, b, c)
    }

    /// `a << b` into a fresh value.
    pub fn shl(&mut self, a: impl Into<Src>, b: impl Into<Src>) -> Val {
        self.alu(AluOp::Shl, a, b)
    }

    /// `a >> b` (logical) into a fresh value.
    pub fn shr(&mut self, a: impl Into<Src>, b: impl Into<Src>) -> Val {
        self.alu(AluOp::ShrL, a, b)
    }

    /// `a & b` into a fresh value.
    pub fn and(&mut self, a: impl Into<Src>, b: impl Into<Src>) -> Val {
        self.alu(AluOp::And, a, b)
    }

    /// `a ^ b` into a fresh value.
    pub fn xor(&mut self, a: impl Into<Src>, b: impl Into<Src>) -> Val {
        self.alu(AluOp::Xor, a, b)
    }

    /// `a % b` (unsigned, SFU path) into a fresh value.
    pub fn urem(&mut self, a: impl Into<Src>, b: impl Into<Src>) -> Val {
        self.alu(AluOp::URem, a, b)
    }

    /// `f32` add into a fresh value.
    pub fn fadd(&mut self, a: impl Into<Src>, b: impl Into<Src>) -> Val {
        self.alu(AluOp::FAdd, a, b)
    }

    /// `f32` multiply into a fresh value.
    pub fn fmul(&mut self, a: impl Into<Src>, b: impl Into<Src>) -> Val {
        self.alu(AluOp::FMul, a, b)
    }

    /// Fused multiply-add into a fresh value.
    pub fn ffma(&mut self, a: impl Into<Src>, b: impl Into<Src>, c: impl Into<Src>) -> Val {
        self.alu3(AluOp::FFma, a, b, c)
    }

    /// Fused multiply-add into an existing value (accumulator form).
    pub fn ffma_to(&mut self, dst: Val, a: impl Into<Src>, b: impl Into<Src>, c: impl Into<Src>) {
        self.alu3_to(AluOp::FFma, dst, a, b, c)
    }

    /// Emits `n` dependent FFMAs on an accumulator.
    pub fn ffma_chain(&mut self, acc: Val, mul: impl Into<Src> + Copy, n: usize) {
        for _ in 0..n {
            self.ffma_to(acc, acc, mul, 1.0f32);
        }
    }

    /// Compares `a` and `b` into a fresh predicate.
    pub fn setp(
        &mut self,
        cmp: CmpOp,
        ty: CmpTy,
        a: impl Into<Src>,
        b: impl Into<Src>,
    ) -> PredVal {
        let p = self.fresh_pred();
        self.push(Stmt::SetP { dst: p, cmp, ty, a: a.into(), b: b.into() });
        p
    }

    /// Compares `a` and `b` into an existing predicate.
    pub fn setp_to(
        &mut self,
        dst: PredVal,
        cmp: CmpOp,
        ty: CmpTy,
        a: impl Into<Src>,
        b: impl Into<Src>,
    ) {
        self.push(Stmt::SetP { dst, cmp, ty, a: a.into(), b: b.into() });
    }

    /// Combines two predicates into a fresh one.
    pub fn pbool(&mut self, op: PBoolOp, a: PredVal, b: PredVal) -> PredVal {
        let p = self.fresh_pred();
        self.push(Stmt::PBool { dst: p, op, a, b });
        p
    }

    /// Combines two predicates into an existing one.
    pub fn pbool_to(&mut self, dst: PredVal, op: PBoolOp, a: PredVal, b: PredVal) {
        self.push(Stmt::PBool { dst, op, a, b });
    }

    /// `if pred { a } else { b }` into a fresh value.
    pub fn sel(&mut self, pred: PredVal, a: impl Into<Src>, b: impl Into<Src>) -> Val {
        let v = self.fresh_val(0);
        self.push(Stmt::Sel { dst: v, pred, a: a.into(), b: b.into() });
        v
    }

    /// A CTA-wide barrier. Only valid under uniform control flow (top level
    /// or loops with CTA-uniform bounds); [`validate`](Self::validate)
    /// rejects it elsewhere.
    pub fn bar(&mut self) {
        self.push(Stmt::Bar);
    }

    // ----- memory --------------------------------------------------------

    /// 4-byte global load from `[base + offset]` into a fresh value.
    pub fn ld_global_u32(&mut self, base: Val, offset: i64) -> Val {
        let v = self.fresh_val(0);
        self.push(Stmt::Ld { space: MemSpace::Global, dst: v, base, offset });
        v
    }

    /// 4-byte global load into an existing value.
    pub fn ld_global_u32_to(&mut self, dst: Val, base: Val, offset: i64) {
        self.push(Stmt::Ld { space: MemSpace::Global, dst, base, offset });
    }

    /// 4-byte global store of `src` to `[base + offset]`.
    pub fn st_global_u32(&mut self, src: impl Into<Src>, base: Val, offset: i64) {
        self.push(Stmt::St { space: MemSpace::Global, src: src.into(), base, offset });
    }

    /// 4-byte shared-memory load into a fresh value.
    pub fn ld_shared_u32(&mut self, base: Val, offset: i64) -> Val {
        let v = self.fresh_val(0);
        self.push(Stmt::Ld { space: MemSpace::Shared, dst: v, base, offset });
        v
    }

    /// 4-byte shared-memory load into an existing value.
    pub fn ld_shared_u32_to(&mut self, dst: Val, base: Val, offset: i64) {
        self.push(Stmt::Ld { space: MemSpace::Shared, dst, base, offset });
    }

    /// 4-byte shared-memory store.
    pub fn st_shared_u32(&mut self, src: impl Into<Src>, base: Val, offset: i64) {
        self.push(Stmt::St { space: MemSpace::Shared, src: src.into(), base, offset });
    }

    // ----- structured control flow ---------------------------------------

    fn nested(&mut self, f: impl FnOnce(&mut Self)) -> Vec<Stmt> {
        self.frames.push(Vec::new());
        f(self);
        self.frames.pop().expect("pushed frame")
    }

    /// Records `body` under guard `pred == expect` (lane predication, no
    /// SIMT-stack traffic). Guards cannot nest.
    ///
    /// # Panics
    ///
    /// Panics if guards are nested.
    pub fn with_guard(&mut self, pred: PredVal, expect: bool, body: impl FnOnce(&mut Self)) {
        assert!(!self.in_guard, "nested guards are not supported");
        self.in_guard = true;
        let body = self.nested(body);
        self.in_guard = false;
        self.push(Stmt::Guard { pred, expect, body });
    }

    /// `if pred { body }` with correct reconvergence.
    pub fn if_then(&mut self, pred: PredVal, body: impl FnOnce(&mut Self)) {
        let body = self.nested(body);
        self.push(Stmt::IfThen { pred, body });
    }

    /// `if pred { then_body } else { else_body }`.
    pub fn if_then_else(
        &mut self,
        pred: PredVal,
        then_body: impl FnOnce(&mut Self),
        else_body: impl FnOnce(&mut Self),
    ) {
        let then_body = self.nested(then_body);
        let else_body = self.nested(else_body);
        self.push(Stmt::IfThenElse { pred, then_body, else_body });
    }

    /// A counted loop `for i in (start..end).step_by(step)` with unsigned
    /// comparison; `body` receives the induction value. Returns the
    /// induction value (holds `end`-or-beyond after the loop). Costs one
    /// register and one internal continue-predicate.
    pub fn for_range(
        &mut self,
        start: impl Into<Src>,
        end: impl Into<Src>,
        step: impl Into<Src>,
        body: impl FnOnce(&mut Self, Val),
    ) -> Val {
        let i = Val(self.next_val);
        self.next_val += 1;
        self.regs_planned += 1;
        self.preds_planned += 1; // the loop's internal continue-predicate
        let body = self.nested(|k| body(k, i));
        self.push(Stmt::ForRange {
            induction: i,
            start: start.into(),
            end: end.into(),
            step: step.into(),
            body,
        });
        i
    }

    // ----- validation ------------------------------------------------------

    /// Checks the statement tree without compiling: use-before-def on
    /// values and predicates, barrier placement, and register/predicate
    /// budgets.
    ///
    /// A barrier is accepted only in CTA-uniform control flow: at top
    /// level, or inside counted loops whose bounds are CTA-uniform and that
    /// are themselves in uniform flow. A value is CTA-uniform when it is an
    /// immediate, a parameter, a CTA-level special register (`NTid*`,
    /// `CtaId*`, `NCtaId*`, `CtaLinear`), or a `Mov`/ALU result of uniform
    /// values — and every write to it happened in uniform flow.
    ///
    /// # Errors
    ///
    /// Returns the first [`DslError`] found.
    pub fn validate(&self) -> Result<(), DslError> {
        if self.regs_planned > MAX_REGS {
            return Err(DslError::TooManyRegs { needed: self.regs_planned });
        }
        if self.preds_planned > MAX_PREDS {
            return Err(DslError::TooManyPreds { needed: self.preds_planned });
        }
        let mut c = Checker {
            vals: vec![false; self.next_val as usize],
            preds: vec![false; self.next_pred as usize],
            varying: vec![false; self.next_val as usize],
        };
        c.block(&self.frames[0], true)
    }

    // ----- compilation ----------------------------------------------------

    /// Compiles the statement tree, in recording order, to a validated
    /// [`Program`].
    ///
    /// # Errors
    ///
    /// Returns a [`DslError`] if validation or program validation fails.
    pub fn compile(&self) -> Result<Program, DslError> {
        self.validate()?;
        let mut k = KernelBuilder::new(self.name.clone());
        let mut ctx = CompileCtx {
            regs: vec![None; self.next_val as usize],
            preds: vec![None; self.next_pred as usize],
        };
        emit_block(&self.frames[0], &mut k, &mut ctx);
        k.build().map_err(DslError::Program)
    }

    // ----- mirror execution -----------------------------------------------

    /// Executes the kernel on the CPU over a whole grid, statement-lockstep
    /// within each CTA with SIMT active masks, writing global effects into
    /// `gmem`. Arithmetic goes through [`sem`](crate::sem), addresses use
    /// the same wrapping arithmetic as the simulator, and 4-byte accesses
    /// zero-extend on load / truncate on store — so for race-free kernels
    /// the resulting memory image equals the device's bit-for-bit.
    ///
    /// Shared memory is per-CTA and zero-initialized; barriers are no-ops
    /// (lockstep execution is a refinement of barrier synchronization under
    /// the uniform-placement rule `validate` enforces).
    ///
    /// # Errors
    ///
    /// Returns a [`DslError`] if validation fails.
    pub fn mirror(&self, grid: Dim2, params: &[u64], gmem: &mut MirrorMem) -> Result<(), DslError> {
        self.validate()?;
        let tpc = self.block.count() as usize;
        for cta in 0..grid.count() {
            let mut env = MirrorEnv {
                vals: vec![vec![0u64; tpc]; self.next_val as usize],
                preds: vec![vec![false; tpc]; self.next_pred as usize],
                specials: (0..tpc)
                    .map(|t| SpecialSet::new(cta, grid, self.block, t as u64))
                    .collect(),
                params,
                gmem,
                smem: MirrorMem::new(),
            };
            let mask = vec![true; tpc];
            exec_block(&self.frames[0], &mut env, &mask);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// Walks the tree in recording order. `vals`/`preds` track
/// defined-somewhere-earlier (the same linear notion the compiled program
/// obeys, since emission order equals recording order). `varying` marks
/// values that may differ across the lanes of a CTA; a mark is never
/// cleared, so the analysis stays conservative across loop back edges.
struct Checker {
    vals: Vec<bool>,
    preds: Vec<bool>,
    varying: Vec<bool>,
}

impl Checker {
    fn check_src(&self, s: &Src) -> Result<(), DslError> {
        if let Src::Val(v) = s {
            if !self.vals[v.0 as usize] {
                return Err(DslError::UseBeforeDef { what: format!("value v{}", v.0) });
            }
        }
        Ok(())
    }

    fn check_pred(&self, p: &PredVal) -> Result<(), DslError> {
        if !self.preds[p.0 as usize] {
            return Err(DslError::UseBeforeDef { what: format!("predicate p{}", p.0) });
        }
        Ok(())
    }

    fn is_uniform(&self, s: &Src) -> bool {
        match s {
            Src::Imm(_) => true,
            Src::Val(v) => !self.varying[v.0 as usize],
        }
    }

    /// Records a write of `dst`; `uniform` says whether every lane of the
    /// CTA writes the same value.
    fn define(&mut self, dst: Val, uniform: bool) {
        self.vals[dst.0 as usize] = true;
        if !uniform {
            self.varying[dst.0 as usize] = true;
        }
    }

    /// `flow` is true when every lane of the CTA is guaranteed active.
    fn block(&mut self, body: &[Stmt], flow: bool) -> Result<(), DslError> {
        for s in body {
            match s {
                Stmt::Declare { .. } | Stmt::DeclarePred { .. } => {}
                Stmt::Param { dst, .. } => self.define(*dst, flow),
                Stmt::Special { dst, sreg } => {
                    let cta_level = !matches!(
                        sreg,
                        SpecialReg::TidX | SpecialReg::TidY | SpecialReg::LaneId
                    );
                    self.define(*dst, flow && cta_level);
                }
                Stmt::GlobalTidX { dst } | Stmt::GlobalTidLinear { dst } => {
                    self.define(*dst, false)
                }
                Stmt::Mov { dst, src } => {
                    self.check_src(src)?;
                    self.define(*dst, flow && self.is_uniform(src));
                }
                Stmt::Alu { op, dst, a, b, c } => {
                    self.check_src(a)?;
                    self.check_src(b)?;
                    let mut uniform = flow && self.is_uniform(a) && self.is_uniform(b);
                    if op.is_ternary() {
                        self.check_src(c)?;
                        uniform &= self.is_uniform(c);
                    }
                    self.define(*dst, uniform);
                }
                Stmt::SetP { dst, a, b, .. } => {
                    self.check_src(a)?;
                    self.check_src(b)?;
                    self.preds[dst.0 as usize] = true;
                }
                Stmt::PBool { dst, a, b, .. } => {
                    self.check_pred(a)?;
                    self.check_pred(b)?;
                    self.preds[dst.0 as usize] = true;
                }
                Stmt::Sel { dst, pred, a, b } => {
                    self.check_pred(pred)?;
                    self.check_src(a)?;
                    self.check_src(b)?;
                    self.define(*dst, false);
                }
                Stmt::Ld { dst, base, .. } => {
                    self.check_src(&Src::Val(*base))?;
                    self.define(*dst, false);
                }
                Stmt::St { src, base, .. } => {
                    self.check_src(src)?;
                    self.check_src(&Src::Val(*base))?;
                }
                Stmt::Bar => {
                    if !flow {
                        return Err(DslError::BarrierInDivergentFlow);
                    }
                }
                Stmt::Guard { pred, body, .. } | Stmt::IfThen { pred, body } => {
                    self.check_pred(pred)?;
                    self.block(body, false)?;
                }
                Stmt::IfThenElse { pred, then_body, else_body } => {
                    self.check_pred(pred)?;
                    self.block(then_body, false)?;
                    self.block(else_body, false)?;
                }
                Stmt::ForRange { induction, start, end, step, body } => {
                    self.check_src(start)?;
                    self.check_src(end)?;
                    self.check_src(step)?;
                    // Every lane runs the same trip count only when the
                    // bounds are uniform; otherwise a barrier inside would
                    // deadlock. The body may make a bound (or a value it
                    // reads) varying for later iterations, so re-walk it
                    // until the varying set stops growing.
                    loop {
                        let before = self.varying.iter().filter(|&&v| v).count();
                        let uniform = flow
                            && self.is_uniform(start)
                            && self.is_uniform(end)
                            && self.is_uniform(step);
                        self.define(*induction, uniform);
                        self.block(body, uniform)?;
                        if self.varying.iter().filter(|&&v| v).count() == before {
                            break;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

struct CompileCtx {
    regs: Vec<Option<Reg>>,
    preds: Vec<Option<Pred>>,
}

impl CompileCtx {
    fn operand(&self, s: &Src) -> Operand {
        match s {
            Src::Imm(v) => Operand::Imm(*v),
            Src::Val(v) => Operand::Reg(self.reg_of(*v)),
        }
    }

    fn reg_of(&self, v: Val) -> Reg {
        self.regs[v.0 as usize].expect("validated: value defined before use")
    }

    fn pred_of(&self, p: PredVal) -> Pred {
        self.preds[p.0 as usize].expect("validated: predicate defined before use")
    }

    /// The register for a destination value, allocated fresh on first
    /// write (the fresh forms `alu`, `movi`, `ld_*`).
    fn dst_reg(&mut self, k: &mut KernelBuilder, v: Val) -> Reg {
        match self.regs[v.0 as usize] {
            Some(r) => r,
            None => {
                let r = k.reg();
                self.regs[v.0 as usize] = Some(r);
                r
            }
        }
    }

    fn dst_pred(&mut self, k: &mut KernelBuilder, p: PredVal) -> Pred {
        match self.preds[p.0 as usize] {
            Some(r) => r,
            None => {
                let r = k.pred();
                self.preds[p.0 as usize] = Some(r);
                r
            }
        }
    }
}

/// Reads special register `sreg` into a fresh register.
fn emit_special(k: &mut KernelBuilder, sreg: SpecialReg) -> Reg {
    let dst = k.reg();
    k.emit(Instr::Special { dst, sreg });
    dst
}

/// `op(a, b, c)` into a fresh register.
fn emit_alu(k: &mut KernelBuilder, op: AluOp, a: Reg, b: Reg, c: Operand) -> Reg {
    let dst = k.reg();
    k.emit(Instr::Alu { op, dst, a: Operand::Reg(a), b: Operand::Reg(b), c });
    dst
}

fn emit_block(body: &[Stmt], k: &mut KernelBuilder, ctx: &mut CompileCtx) {
    for s in body {
        match s {
            Stmt::Declare { dst } => {
                let r = k.reg();
                ctx.regs[dst.0 as usize] = Some(r);
            }
            Stmt::DeclarePred { dst } => {
                let r = k.pred();
                ctx.preds[dst.0 as usize] = Some(r);
            }
            Stmt::Param { dst, index } => {
                let r = k.reg();
                k.emit(Instr::Param { dst: r, index: *index });
                ctx.regs[dst.0 as usize] = Some(r);
            }
            Stmt::Special { dst, sreg } => {
                ctx.regs[dst.0 as usize] = Some(emit_special(k, *sreg));
            }
            Stmt::GlobalTidX { dst } => {
                // ctaid.x * ntid.x + tid.x
                let ctaid = emit_special(k, SpecialReg::CtaIdX);
                let ntid = emit_special(k, SpecialReg::NTidX);
                let tid = emit_special(k, SpecialReg::TidX);
                let r = emit_alu(k, AluOp::IMad, ctaid, ntid, Operand::Reg(tid));
                ctx.regs[dst.0 as usize] = Some(r);
            }
            Stmt::GlobalTidLinear { dst } => {
                // cta_linear * (ntid.x * ntid.y) + tid.y * ntid.x + tid.x
                let cta = emit_special(k, SpecialReg::CtaLinear);
                let ntx = emit_special(k, SpecialReg::NTidX);
                let nty = emit_special(k, SpecialReg::NTidY);
                let per_cta = emit_alu(k, AluOp::IMul, ntx, nty, Operand::Imm(0));
                let ty = emit_special(k, SpecialReg::TidY);
                let tx = emit_special(k, SpecialReg::TidX);
                let local = emit_alu(k, AluOp::IMad, ty, ntx, Operand::Reg(tx));
                let r = emit_alu(k, AluOp::IMad, cta, per_cta, Operand::Reg(local));
                ctx.regs[dst.0 as usize] = Some(r);
            }
            Stmt::Mov { dst, src } => {
                let src = ctx.operand(src);
                let r = ctx.dst_reg(k, *dst);
                k.emit(Instr::Mov { dst: r, src });
            }
            Stmt::Alu { op, dst, a, b, c } => {
                let (a, b, c) = (ctx.operand(a), ctx.operand(b), ctx.operand(c));
                let r = ctx.dst_reg(k, *dst);
                k.emit(Instr::Alu { op: *op, dst: r, a, b, c });
            }
            Stmt::SetP { dst, cmp, ty, a, b } => {
                let (a, b) = (ctx.operand(a), ctx.operand(b));
                let p = ctx.dst_pred(k, *dst);
                k.emit(Instr::SetP { dst: p, cmp: *cmp, ty: *ty, a, b });
            }
            Stmt::PBool { dst, op, a, b } => {
                let (a, b) = (ctx.pred_of(*a), ctx.pred_of(*b));
                let p = ctx.dst_pred(k, *dst);
                k.emit(Instr::PBool { dst: p, op: *op, a, b });
            }
            Stmt::Sel { dst, pred, a, b } => {
                let p = ctx.pred_of(*pred);
                let (a, b) = (ctx.operand(a), ctx.operand(b));
                let r = k.reg();
                k.emit(Instr::Sel { dst: r, pred: p, a, b });
                ctx.regs[dst.0 as usize] = Some(r);
            }
            Stmt::Ld { space, dst, base, offset } => {
                let addr = AddrExpr::new(ctx.reg_of(*base), *offset);
                let r = ctx.dst_reg(k, *dst);
                k.emit(Instr::Ld { space: *space, dst: r, addr, width: AccessWidth::W4 });
            }
            Stmt::St { space, src, base, offset } => {
                let src = ctx.operand(src);
                let addr = AddrExpr::new(ctx.reg_of(*base), *offset);
                k.emit(Instr::St { space: *space, src, addr, width: AccessWidth::W4 });
            }
            Stmt::Bar => {
                k.emit(Instr::Bar);
            }
            Stmt::Guard { pred, expect, body } => {
                let p = ctx.pred_of(*pred);
                k.with_guard(p, *expect, |k| emit_block(body, k, ctx));
            }
            Stmt::IfThen { pred, body } => {
                let p = ctx.pred_of(*pred);
                k.if_then(p, |k| emit_block(body, k, ctx));
            }
            Stmt::IfThenElse { pred, then_body, else_body } => {
                let p = ctx.pred_of(*pred);
                // The builder runs the two closures sequentially, but the
                // borrow checker can't see that; a RefCell carries the
                // context across them.
                let cell = std::cell::RefCell::new(&mut *ctx);
                k.if_then_else(
                    p,
                    |k| emit_block(then_body, k, &mut cell.borrow_mut()),
                    |k| emit_block(else_body, k, &mut cell.borrow_mut()),
                );
            }
            Stmt::ForRange { induction, start, end, step, body } => {
                let (start, end, step) = (ctx.operand(start), ctx.operand(end), ctx.operand(step));
                let ind = *induction;
                k.for_range(start, end, step, |k, i| {
                    ctx.regs[ind.0 as usize] = Some(i);
                    emit_block(body, k, ctx);
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Program-level lint
// ---------------------------------------------------------------------------

/// Checks that every register and predicate a [`Program`] reads was written
/// by an earlier instruction in emission order (`Param`/`Special` count as
/// writes). For structured programs emission order subsumes execution
/// order, so this is the liveness invariant the DSL property tests pin.
///
/// # Errors
///
/// Returns a description of the first violating read.
pub fn check_program_liveness(p: &Program) -> Result<(), String> {
    let mut regs = 0u64;
    let mut preds = 0u8;
    for (pc, ins) in p.instructions().iter().enumerate() {
        if let Some(g) = &ins.guard {
            if preds & (1 << g.pred.0) == 0 {
                return Err(format!("pc {pc}: guard reads unwritten {}", g.pred));
            }
        }
        for r in ins.src_regs() {
            if regs & (1 << r.0) == 0 {
                return Err(format!("pc {pc}: reads unwritten {r}"));
            }
        }
        match &ins.op {
            Instr::BraCond { pred, .. } | Instr::Sel { pred, .. } => {
                if preds & (1 << pred.0) == 0 {
                    return Err(format!("pc {pc}: reads unwritten {pred}"));
                }
            }
            Instr::PBool { a, b, .. } => {
                for q in [a, b] {
                    if preds & (1 << q.0) == 0 {
                        return Err(format!("pc {pc}: reads unwritten {q}"));
                    }
                }
            }
            _ => {}
        }
        if let Some(d) = ins.dst_reg() {
            regs |= 1 << d.0;
        }
        match &ins.op {
            Instr::SetP { dst, .. } | Instr::PBool { dst, .. } => preds |= 1 << dst.0,
            _ => {}
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Mirror memory + interpreter
// ---------------------------------------------------------------------------

/// A sparse, word-granular CPU-side memory image used by the mirror.
///
/// Addresses are byte addresses and must be 4-byte aligned (the DSL only
/// emits 4-byte accesses). Unwritten words read as zero, matching the
/// simulator's zero-initialized backing store.
#[derive(Debug, Clone, Default)]
pub struct MirrorMem {
    words: HashMap<u64, u32>,
}

impl MirrorMem {
    /// An empty (all-zero) image.
    pub fn new() -> Self {
        MirrorMem::default()
    }

    /// Reads the 4-byte word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn read_u32(&self, addr: u64) -> u32 {
        assert_eq!(addr % 4, 0, "mirror access must be 4-byte aligned");
        self.words.get(&addr).copied().unwrap_or(0)
    }

    /// Writes the 4-byte word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        assert_eq!(addr % 4, 0, "mirror access must be 4-byte aligned");
        self.words.insert(addr, v);
    }

    /// Writes consecutive words starting at `base`.
    pub fn write_u32_slice(&mut self, base: u64, vals: &[u32]) {
        for (i, v) in vals.iter().enumerate() {
            self.write_u32(base + 4 * i as u64, *v);
        }
    }

    /// Reads `n` consecutive words starting at `base`.
    pub fn read_u32_vec(&self, base: u64, n: usize) -> Vec<u32> {
        (0..n).map(|i| self.read_u32(base + 4 * i as u64)).collect()
    }
}

/// Per-thread special-register values, precomputed per CTA.
struct SpecialSet {
    tid_x: u64,
    tid_y: u64,
    ntid_x: u64,
    ntid_y: u64,
    ctaid_x: u64,
    ctaid_y: u64,
    nctaid_x: u64,
    nctaid_y: u64,
    lane: u64,
    cta_linear: u64,
}

impl SpecialSet {
    /// Mirrors the simulator's `special_value`: thread `t` is the dense
    /// in-CTA linear index (`warp_in_cta * 32 + lane`), decomposed with x
    /// fastest; CTA coordinates are row-major with x fastest.
    fn new(cta: u64, grid: Dim2, block: Dim2, t: u64) -> Self {
        SpecialSet {
            tid_x: t % u64::from(block.x),
            tid_y: t / u64::from(block.x),
            ntid_x: u64::from(block.x),
            ntid_y: u64::from(block.y),
            ctaid_x: cta % u64::from(grid.x),
            ctaid_y: cta / u64::from(grid.x),
            nctaid_x: u64::from(grid.x),
            nctaid_y: u64::from(grid.y),
            lane: t % crate::types::WARP_SIZE as u64,
            cta_linear: cta,
        }
    }

    fn get(&self, sreg: SpecialReg) -> u64 {
        match sreg {
            SpecialReg::TidX => self.tid_x,
            SpecialReg::TidY => self.tid_y,
            SpecialReg::NTidX => self.ntid_x,
            SpecialReg::NTidY => self.ntid_y,
            SpecialReg::CtaIdX => self.ctaid_x,
            SpecialReg::CtaIdY => self.ctaid_y,
            SpecialReg::NCtaIdX => self.nctaid_x,
            SpecialReg::NCtaIdY => self.nctaid_y,
            SpecialReg::LaneId => self.lane,
            SpecialReg::CtaLinear => self.cta_linear,
        }
    }
}

struct MirrorEnv<'a> {
    /// `vals[id][thread]`.
    vals: Vec<Vec<u64>>,
    /// `preds[id][thread]`.
    preds: Vec<Vec<bool>>,
    specials: Vec<SpecialSet>,
    params: &'a [u64],
    gmem: &'a mut MirrorMem,
    smem: MirrorMem,
}

impl MirrorEnv<'_> {
    fn src(&self, s: &Src, t: usize) -> u64 {
        match s {
            Src::Imm(v) => *v,
            Src::Val(v) => self.vals[v.0 as usize][t],
        }
    }
}

fn exec_block(body: &[Stmt], env: &mut MirrorEnv<'_>, mask: &[bool]) {
    let tpc = mask.len();
    let active = |mask: &[bool]| (0..tpc).filter(|t| mask[*t]).collect::<Vec<_>>();
    for s in body {
        match s {
            Stmt::Declare { .. } | Stmt::DeclarePred { .. } => {}
            Stmt::Param { dst, index } => {
                let v = env.params.get(*index as usize).copied().unwrap_or(0);
                for t in active(mask) {
                    env.vals[dst.0 as usize][t] = v;
                }
            }
            Stmt::Special { dst, sreg } => {
                for t in active(mask) {
                    env.vals[dst.0 as usize][t] = env.specials[t].get(*sreg);
                }
            }
            Stmt::GlobalTidX { dst } => {
                for t in active(mask) {
                    let s = &env.specials[t];
                    env.vals[dst.0 as usize][t] =
                        sem::eval_alu(AluOp::IMad, s.ctaid_x, s.ntid_x, s.tid_x);
                }
            }
            Stmt::GlobalTidLinear { dst } => {
                for t in active(mask) {
                    let s = &env.specials[t];
                    let per_cta = sem::eval_alu(AluOp::IMul, s.ntid_x, s.ntid_y, 0);
                    let local = sem::eval_alu(AluOp::IMad, s.tid_y, s.ntid_x, s.tid_x);
                    env.vals[dst.0 as usize][t] =
                        sem::eval_alu(AluOp::IMad, s.cta_linear, per_cta, local);
                }
            }
            Stmt::Mov { dst, src } => {
                for t in active(mask) {
                    env.vals[dst.0 as usize][t] = env.src(src, t);
                }
            }
            Stmt::Alu { op, dst, a, b, c } => {
                for t in active(mask) {
                    let (a, b, c) = (env.src(a, t), env.src(b, t), env.src(c, t));
                    env.vals[dst.0 as usize][t] = sem::eval_alu(*op, a, b, c);
                }
            }
            Stmt::SetP { dst, cmp, ty, a, b } => {
                for t in active(mask) {
                    let (a, b) = (env.src(a, t), env.src(b, t));
                    env.preds[dst.0 as usize][t] = sem::eval_cmp(*cmp, *ty, a, b);
                }
            }
            Stmt::PBool { dst, op, a, b } => {
                for t in active(mask) {
                    let (a, b) = (env.preds[a.0 as usize][t], env.preds[b.0 as usize][t]);
                    env.preds[dst.0 as usize][t] = sem::eval_pbool(*op, a, b);
                }
            }
            Stmt::Sel { dst, pred, a, b } => {
                for t in active(mask) {
                    let v = if env.preds[pred.0 as usize][t] {
                        env.src(a, t)
                    } else {
                        env.src(b, t)
                    };
                    env.vals[dst.0 as usize][t] = v;
                }
            }
            Stmt::Ld { space, dst, base, offset } => {
                for t in active(mask) {
                    let addr =
                        env.vals[base.0 as usize][t].wrapping_add(*offset as u64);
                    let word = match space {
                        MemSpace::Global => env.gmem.read_u32(addr),
                        MemSpace::Shared => env.smem.read_u32(addr),
                    };
                    env.vals[dst.0 as usize][t] = u64::from(word);
                }
            }
            Stmt::St { space, src, base, offset } => {
                for t in active(mask) {
                    let addr =
                        env.vals[base.0 as usize][t].wrapping_add(*offset as u64);
                    let word = env.src(src, t) as u32;
                    match space {
                        MemSpace::Global => env.gmem.write_u32(addr, word),
                        MemSpace::Shared => env.smem.write_u32(addr, word),
                    }
                }
            }
            // Lockstep statement execution is a refinement of barrier
            // synchronization (validate() guarantees uniform placement).
            Stmt::Bar => {}
            Stmt::Guard { pred, expect, body } => {
                let sub: Vec<bool> = (0..tpc)
                    .map(|t| mask[t] && env.preds[pred.0 as usize][t] == *expect)
                    .collect();
                exec_block(body, env, &sub);
            }
            Stmt::IfThen { pred, body } => {
                let sub: Vec<bool> = (0..tpc)
                    .map(|t| mask[t] && env.preds[pred.0 as usize][t])
                    .collect();
                exec_block(body, env, &sub);
            }
            Stmt::IfThenElse { pred, then_body, else_body } => {
                let taken: Vec<bool> = (0..tpc)
                    .map(|t| mask[t] && env.preds[pred.0 as usize][t])
                    .collect();
                let not_taken: Vec<bool> =
                    (0..tpc).map(|t| mask[t] && !taken[t]).collect();
                exec_block(then_body, env, &taken);
                exec_block(else_body, env, &not_taken);
            }
            Stmt::ForRange { induction, start, end, step, body } => {
                for t in active(mask) {
                    env.vals[induction.0 as usize][t] = env.src(start, t);
                }
                loop {
                    let cont: Vec<bool> = (0..tpc)
                        .map(|t| {
                            mask[t]
                                && sem::eval_cmp(
                                    CmpOp::Lt,
                                    CmpTy::U64,
                                    env.vals[induction.0 as usize][t],
                                    env.src(end, t),
                                )
                        })
                        .collect();
                    if !cont.iter().any(|&c| c) {
                        break;
                    }
                    exec_block(body, env, &cont);
                    for t in 0..tpc {
                        if cont[t] {
                            env.vals[induction.0 as usize][t] = sem::eval_alu(
                                AluOp::IAdd,
                                env.vals[induction.0 as usize][t],
                                env.src(step, t),
                                0,
                            );
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded kernel generator
// ---------------------------------------------------------------------------

/// Knobs for [`gen_kernel`].
#[derive(Debug, Clone)]
pub struct GenCfg {
    /// CTA shape: any shape of 1 to 1024 threads.
    pub block: Dim2,
    /// Number of body segments to draw (each is a few statements).
    pub segments: usize,
    /// Allow shared-memory exchange phases (adds barriers).
    pub smem: bool,
    /// Allow divergent `if`/`else`/guard segments.
    pub divergence: bool,
    /// Allow counted loops.
    pub loops: bool,
}

impl Default for GenCfg {
    fn default() -> Self {
        GenCfg {
            block: Dim2::x(64),
            segments: 6,
            smem: true,
            divergence: true,
            loops: true,
        }
    }
}

/// A generated kernel plus the launch-side facts a harness needs.
#[derive(Debug, Clone)]
pub struct GenKernel {
    /// The kernel; params are `[input_base, output_base]`, with one input
    /// word and one output word per global thread, indexed by the linear
    /// global thread id.
    pub kernel: DslKernel,
    /// Shared-memory bytes per CTA the kernel requires.
    pub smem_bytes: u64,
}

/// Binary/unary op pool for accumulator segments (all safe at any operand
/// value: shifts mask, division-by-zero yields zero, floats are bitwise
/// deterministic through `sem`).
const GEN_OPS: &[AluOp] = &[
    AluOp::IAdd,
    AluOp::ISub,
    AluOp::IMul,
    AluOp::Xor,
    AluOp::And,
    AluOp::Or,
    AluOp::IMin,
    AluOp::IMax,
    AluOp::Shl,
    AluOp::ShrL,
    AluOp::URem,
    AluOp::FAdd,
    AluOp::FMul,
];

/// Generates a random, race-free kernel from a seeded stream: every thread
/// loads its own input word, mutates an accumulator through a random mix of
/// straight-line ops, divergent regions, counted loops, and (optionally)
/// barrier-separated shared-memory exchanges, then stores to its own output
/// slot. The same seed always yields the same kernel, and
/// [`DslKernel::mirror`] is its functional oracle.
///
/// Any CTA shape works: 2-D blocks exchange through the linear in-CTA id,
/// and the exchange adapts to sub-warp and partial-last-warp thread
/// counts. For a 1-D block of whole warps every adaptation is a no-op;
/// the `gen:rand` listings in `ci/golden/kernels.txt` pin those draws.
///
/// # Panics
///
/// Panics if `cfg.block` has no threads or more than
/// [`MAX_THREADS_PER_CTA`](crate::MAX_THREADS_PER_CTA).
pub fn gen_kernel(g: &mut Gen, cfg: &GenCfg) -> GenKernel {
    let threads = cfg.block.count();
    assert!(
        (1..=u64::from(crate::MAX_THREADS_PER_CTA)).contains(&threads),
        "generator requires 1..={} threads per CTA, got {threads}",
        crate::MAX_THREADS_PER_CTA
    );
    // A segment costs at most 5 registers and 1 predicate; a 2-D block's
    // exchange spends 3 more on the linear in-CTA id.
    let seg_regs = if cfg.block.y == 1 { 6 } else { 9 };
    let mut d = DslKernel::new("dsl-gen", cfg.block);
    let inb = d.param(0);
    let outb = d.param(1);
    let tid = d.global_tid_linear();
    let off = d.shl(tid, 2u64);
    let ein = d.iadd(inb, off);
    let v = d.ld_global_u32(ein, 0);
    let acc = d.movi(g.next_u32());
    d.alu_to(AluOp::IAdd, acc, acc, v);
    let mut smem_bytes = 0u64;

    for _ in 0..cfg.segments {
        // Keep comfortably inside the architectural budgets.
        if d.regs_planned() + seg_regs > MAX_REGS || d.preds_planned() + 2 > MAX_PREDS {
            break;
        }
        match g.range(0, 10) {
            // Straight-line accumulator ops (no register growth).
            0..=3 => {
                for _ in 0..g.range(1, 4) {
                    let op = *g.choose(GEN_OPS);
                    let operand: Src = match g.range(0, 3) {
                        0 => Src::Val(v),
                        1 => Src::Val(tid),
                        _ => Src::Imm(u64::from(g.next_u32())),
                    };
                    d.alu_to(op, acc, acc, operand);
                }
            }
            // Divergent if / if-else keyed off low tid bits.
            4 | 5 if cfg.divergence => {
                let modmask = (1u64 << g.range(1, 5)) - 1;
                let low = d.and(tid, modmask);
                let p = d.setp(CmpOp::Eq, CmpTy::U64, low, g.range(0, modmask + 1));
                let op_a = *g.choose(GEN_OPS);
                let op_b = *g.choose(GEN_OPS);
                let imm = u64::from(g.next_u32());
                if g.chance(1, 2) {
                    d.if_then(p, |d| d.alu_to(op_a, acc, acc, imm));
                } else {
                    d.if_then_else(
                        p,
                        |d| d.alu_to(op_a, acc, acc, imm),
                        |d| d.alu_to(op_b, acc, acc, Src::Val(v)),
                    );
                }
            }
            // Guarded (predicated) accumulator update.
            6 if cfg.divergence => {
                let low = d.and(tid, 1u64);
                let p = d.setp(CmpOp::Eq, CmpTy::U64, low, 0u64);
                let op = *g.choose(GEN_OPS);
                let imm = u64::from(g.next_u32());
                d.with_guard(p, g.chance(1, 2), |d| d.alu_to(op, acc, acc, imm));
            }
            // Counted loop folding the induction value into the accumulator.
            7 | 8 if cfg.loops => {
                let trips = g.range(1, 9);
                let op = *g.choose(GEN_OPS);
                d.for_range(0u64, trips, 1u64, |d, i| {
                    d.alu_to(AluOp::IAdd, acc, acc, i);
                    d.alu_to(op, acc, acc, Src::Val(v));
                });
            }
            // Shared-memory xor-partner exchange across barriers. Every
            // thread needs a partner, so an odd thread count skips it.
            _ if cfg.smem && threads % 2 == 0 => {
                let lid = if cfg.block.y == 1 {
                    d.special(SpecialReg::TidX)
                } else {
                    let ntx = d.special(SpecialReg::NTidX);
                    let ty = d.special(SpecialReg::TidY);
                    let tx = d.special(SpecialReg::TidX);
                    d.imad(ty, ntx, tx)
                };
                let saddr = d.shl(lid, 2u64);
                d.st_shared_u32(acc, saddr, 0);
                d.bar();
                // The partner stays inside the CTA when the thread count
                // is a multiple of twice the mask.
                let mut partner_mask = 1u64 << g.range(0, 5);
                while threads % (2 * partner_mask) != 0 {
                    partner_mask /= 2;
                }
                let partner = d.xor(lid, partner_mask);
                let pa = d.shl(partner, 2u64);
                let pv = d.ld_shared_u32(pa, 0);
                d.bar();
                d.alu_to(AluOp::Xor, acc, acc, pv);
                smem_bytes = smem_bytes.max(threads * 4);
            }
            // Knob disabled this draw: fall back to one plain op so the
            // segment still consumes comparable stream state.
            _ => {
                let op = *g.choose(GEN_OPS);
                d.alu_to(op, acc, acc, u64::from(g.next_u32()));
            }
        }
    }

    let eout = d.iadd(outb, off);
    d.st_global_u32(acc, eout, 0);
    GenKernel { kernel: d, smem_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compiler's output is pinned instruction by instruction: fresh
    /// registers in recording order, the guard idiom expanded in place, and
    /// structured control flow with the reconvergence PC at the join.
    #[test]
    fn vecadd_compiles_to_pinned_listing() {
        let mut d = DslKernel::new("vecadd", Dim2::x(256));
        let a = d.param(0);
        let b = d.param(1);
        let c = d.param(2);
        let n = d.param(3);
        let gid = d.global_tid_x();
        let in_range = d.setp(CmpOp::Lt, CmpTy::U64, gid, n);
        d.if_then(in_range, |d| {
            let off = d.shl(gid, 2u64);
            let pa = d.iadd(a, off);
            let pb = d.iadd(b, off);
            let pc = d.iadd(c, off);
            let va = d.ld_global_u32(pa, 0);
            let vb = d.ld_global_u32(pb, 0);
            let vc = d.iadd(va, vb);
            d.st_global_u32(vc, pc, 0);
        });
        let expect = "   0: LDP r0, param[0]
   1: LDP r1, param[1]
   2: LDP r2, param[2]
   3: LDP r3, param[3]
   4: S2R r4, CtaIdX
   5: S2R r5, NTidX
   6: S2R r6, TidX
   7: IMad r7, r4, r5, r6
   8: SETP.Lt.U64 p0, r7, r3
   9: BRA.!p0 18 (reconv 18)
  10: Shl r8, r7, #2
  11: IAdd r9, r0, r8
  12: IAdd r10, r1, r8
  13: IAdd r11, r2, r8
  14: LD.Global.4 r12, [r9 +0]
  15: LD.Global.4 r13, [r10 +0]
  16: IAdd r14, r12, r13
  17: ST.Global.4 [r11 +0], r14
  18: EXIT
";
        assert_eq!(d.compile().unwrap().disassemble(), expect);
    }

    /// The thread-index idioms expand to their documented instruction
    /// sequences and register counts.
    #[test]
    fn thread_index_idioms_expand_in_place() {
        let mut d = DslKernel::new("t", Dim2::new(8, 4));
        let g = d.global_tid_linear();
        let x = d.global_tid_x();
        d.iadd(g, x);
        let p = d.compile().unwrap();
        let listing = p.disassemble();
        let expect = "   0: S2R r0, CtaLinear
   1: S2R r1, NTidX
   2: S2R r2, NTidY
   3: IMul r3, r1, r2
   4: S2R r4, TidY
   5: S2R r5, TidX
   6: IMad r6, r4, r1, r5
   7: IMad r7, r0, r3, r6
   8: S2R r8, CtaIdX
   9: S2R r9, NTidX
  10: S2R r10, TidX
  11: IMad r11, r8, r9, r10
";
        assert!(listing.starts_with(expect), "{listing}");
        assert_eq!(u16::from(p.reg_count()), d.regs_planned());
    }

    #[test]
    fn ffma_chain_emits_n() {
        let mut d = DslKernel::new("t", Dim2::x(32));
        let acc = d.movi(1.0f32);
        d.ffma_chain(acc, 1.0001f32, 5);
        let p = d.compile().unwrap();
        let n_ffma = p
            .instructions()
            .iter()
            .filter(|i| matches!(i.op, Instr::Alu { op: AluOp::FFma, .. }))
            .count();
        assert_eq!(n_ffma, 5);
    }

    /// Mirror result for vecadd equals element-wise wrapping addition.
    #[test]
    fn mirror_vecadd_matches_reference() {
        let n = 300u64; // not a multiple of the block: exercises the guard
        let mut d = DslKernel::new("vecadd", Dim2::x(256));
        let a = d.param(0);
        let b = d.param(1);
        let c = d.param(2);
        let pn = d.param(3);
        let gid = d.global_tid_x();
        let in_range = d.setp(CmpOp::Lt, CmpTy::U64, gid, pn);
        d.if_then(in_range, |d| {
            let off = d.shl(gid, 2u64);
            let pa = d.iadd(a, off);
            let pb = d.iadd(b, off);
            let pc = d.iadd(c, off);
            let va = d.ld_global_u32(pa, 0);
            let vb = d.ld_global_u32(pb, 0);
            let vc = d.iadd(va, vb);
            d.st_global_u32(vc, pc, 0);
        });

        let (ba, bb, bc) = (0u64, 4096, 8192);
        let mut mem = MirrorMem::new();
        let av: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(3)).collect();
        let bv: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(7).wrapping_add(11)).collect();
        mem.write_u32_slice(ba, &av);
        mem.write_u32_slice(bb, &bv);
        let grid = Dim2::x((n as u32).div_ceil(256));
        d.mirror(grid, &[ba, bb, bc, n], &mut mem).unwrap();
        for i in 0..n as usize {
            assert_eq!(
                mem.read_u32(bc + 4 * i as u64),
                av[i].wrapping_add(bv[i]),
                "element {i}"
            );
        }
        // Out-of-range threads must not have stored anything.
        assert_eq!(mem.read_u32(bc + 4 * n), 0);
    }

    #[test]
    fn mirror_loop_and_divergence() {
        // acc = tid; 4 iterations of acc += i; even tids then acc *= 3.
        let mut d = DslKernel::new("t", Dim2::x(32));
        let outb = d.param(0);
        let tid = d.global_tid_x();
        let acc = d.movi(0u64);
        d.alu_to(AluOp::IAdd, acc, acc, tid);
        d.for_range(0u64, 4u64, 1u64, |d, i| {
            d.alu_to(AluOp::IAdd, acc, acc, i);
        });
        let low = d.and(tid, 1u64);
        let p = d.setp(CmpOp::Eq, CmpTy::U64, low, 0u64);
        d.if_then(p, |d| d.alu_to(AluOp::IMul, acc, acc, 3u64));
        let off = d.shl(tid, 2u64);
        let eo = d.iadd(outb, off);
        d.st_global_u32(acc, eo, 0);

        let mut mem = MirrorMem::new();
        d.mirror(Dim2::x(1), &[0], &mut mem).unwrap();
        for t in 0u64..32 {
            let mut expect = t + 6; // 0+1+2+3
            if t % 2 == 0 {
                expect *= 3;
            }
            assert_eq!(mem.read_u32(4 * t), expect as u32, "thread {t}");
        }
    }

    #[test]
    fn mirror_smem_exchange() {
        // Each thread stores tid to smem, reads partner tid^1 after bar.
        let mut d = DslKernel::new("t", Dim2::x(64));
        let outb = d.param(0);
        let tid = d.global_tid_x();
        let lid = d.special(SpecialReg::TidX);
        let saddr = d.shl(lid, 2u64);
        d.st_shared_u32(tid, saddr, 0);
        d.bar();
        let partner = d.xor(lid, 1u64);
        let pa = d.shl(partner, 2u64);
        let pv = d.ld_shared_u32(pa, 0);
        d.bar();
        let off = d.shl(tid, 2u64);
        let eo = d.iadd(outb, off);
        d.st_global_u32(pv, eo, 0);

        let mut mem = MirrorMem::new();
        d.mirror(Dim2::x(2), &[0], &mut mem).unwrap();
        for t in 0u64..128 {
            let lid = t % 64;
            let expect = (t - lid) + (lid ^ 1);
            assert_eq!(u64::from(mem.read_u32(4 * t)), expect, "thread {t}");
        }
    }

    #[test]
    fn use_before_def_rejected() {
        let mut d = DslKernel::new("t", Dim2::x(32));
        let v = d.declare();
        let w = d.iadd(v, 1u64); // reads declared-but-unwritten v
        d.st_global_u32(w, w, 0);
        assert!(matches!(d.validate(), Err(DslError::UseBeforeDef { .. })));
    }

    #[test]
    fn divergent_barrier_rejected() {
        let mut d = DslKernel::new("t", Dim2::x(32));
        let tid = d.global_tid_x();
        let low = d.and(tid, 1u64);
        let p = d.setp(CmpOp::Eq, CmpTy::U64, low, 0u64);
        d.if_then(p, |d| d.bar());
        assert_eq!(d.validate(), Err(DslError::BarrierInDivergentFlow));

        // A barrier inside an immediate-bounded loop at top level is fine.
        let mut d = DslKernel::new("t", Dim2::x(32));
        d.for_range(0u64, 2u64, 1u64, |d, _| d.bar());
        assert_eq!(d.validate(), Ok(()));

        // ... but not inside a value-bounded loop.
        let mut d = DslKernel::new("t", Dim2::x(32));
        let n = d.global_tid_x();
        d.for_range(0u64, n, 1u64, |d, _| d.bar());
        assert_eq!(d.validate(), Err(DslError::BarrierInDivergentFlow));
    }

    /// A barrier inside a loop whose bounds are CTA-uniform values (not
    /// just immediates) is accepted: params, CTA-level specials, and ALU
    /// results of those, defined in uniform flow.
    #[test]
    fn uniform_bounded_loop_may_hold_a_barrier() {
        let uniform_bounds: [fn(&mut DslKernel) -> Val; 5] = [
            |d| d.param(0),
            |d| {
                let pn = d.param(0);
                d.shr(pn, 4u64) // matmul-tiled's tile count
            },
            |d| d.special(SpecialReg::NTidX),
            |d| {
                let cta = d.special(SpecialReg::CtaLinear);
                let ny = d.special(SpecialReg::NCtaIdY);
                d.imad(cta, ny, 1u64)
            },
            |d| {
                let n = d.declare();
                let p = d.param(1);
                d.mov_to(n, p);
                n
            },
        ];
        for (i, bound) in uniform_bounds.iter().enumerate() {
            let mut d = DslKernel::new("t", Dim2::x(32));
            let n = bound(&mut d);
            d.for_range(0u64, n, 1u64, |d, _| d.bar());
            assert_eq!(d.validate(), Ok(()), "case {i}");
        }

        // Nested uniform loops, the inner one bounded by the outer
        // induction value.
        let mut d = DslKernel::new("t", Dim2::x(32));
        let n = d.param(0);
        d.for_range(0u64, n, 1u64, |d, i| {
            d.for_range(0u64, i, 1u64, |d, _| d.bar());
        });
        assert_eq!(d.validate(), Ok(()));
    }

    /// Values that may differ across the lanes of a CTA never make a loop
    /// barrier-safe, however they are reached.
    #[test]
    fn varying_bounded_loop_barrier_rejected() {
        let varying_bounds: [fn(&mut DslKernel) -> Val; 7] = [
            |d| d.special(SpecialReg::TidX),
            |d| d.special(SpecialReg::LaneId),
            |d| {
                let ty = d.special(SpecialReg::TidY);
                let pn = d.param(0);
                d.iadd(pn, ty)
            },
            |d| {
                let pa = d.param(0);
                d.ld_global_u32(pa, 0)
            },
            // A param read under divergence leaves inactive lanes stale.
            |d| {
                let n = d.declare();
                let tid = d.special(SpecialReg::TidX);
                let p = d.setp(CmpOp::Lt, CmpTy::U64, tid, 4u64);
                d.if_then(p, |d| {
                    let pn = d.param(0);
                    d.mov_to(n, pn);
                });
                n
            },
            // Uniform at first, then overwritten under a guard.
            |d| {
                let n = d.param(0);
                let tid = d.special(SpecialReg::TidX);
                let p = d.setp(CmpOp::Lt, CmpTy::U64, tid, 4u64);
                d.with_guard(p, true, |d| d.mov_to(n, 1u64));
                n
            },
            // Uniform at first, then overwritten with a lane-varying value
            // inside a uniform loop.
            |d| {
                let n = d.param(0);
                d.for_range(0u64, 2u64, 1u64, |d, _| {
                    let tid = d.special(SpecialReg::TidX);
                    d.alu_to(AluOp::IAdd, n, n, tid);
                });
                n
            },
        ];
        for (i, bound) in varying_bounds.iter().enumerate() {
            let mut d = DslKernel::new("t", Dim2::x(32));
            let n = bound(&mut d);
            d.for_range(0u64, n, 1u64, |d, _| d.bar());
            assert_eq!(
                d.validate(),
                Err(DslError::BarrierInDivergentFlow),
                "case {i}"
            );
        }

        // The loop's own body makes its bound varying for the second trip.
        let mut d = DslKernel::new("t", Dim2::x(32));
        let n = d.param(0);
        d.for_range(0u64, n, 1u64, |d, _| {
            d.bar();
            let tid = d.special(SpecialReg::TidX);
            d.alu_to(AluOp::IAdd, n, n, tid);
        });
        assert_eq!(d.validate(), Err(DslError::BarrierInDivergentFlow));

        // A uniform-bounded loop nested in a varying-bounded one.
        let mut d = DslKernel::new("t", Dim2::x(32));
        let tid = d.special(SpecialReg::TidX);
        let n = d.param(0);
        d.for_range(0u64, tid, 1u64, |d, _| {
            d.for_range(0u64, n, 1u64, |d, _| d.bar());
        });
        assert_eq!(d.validate(), Err(DslError::BarrierInDivergentFlow));
    }

    #[test]
    fn register_budget_enforced() {
        let mut d = DslKernel::new("t", Dim2::x(32));
        for _ in 0..70 {
            let _ = d.movi(1u64);
        }
        assert!(matches!(d.validate(), Err(DslError::TooManyRegs { .. })));
        assert!(matches!(d.compile(), Err(DslError::TooManyRegs { .. })));
    }

    #[test]
    fn planned_counts_match_compiled_program() {
        let mut d = DslKernel::new("t", Dim2::x(64));
        let outb = d.param(0);
        let tid = d.global_tid_linear();
        let acc = d.movi(5u64);
        d.for_range(0u64, 3u64, 1u64, |d, i| d.alu_to(AluOp::IAdd, acc, acc, i));
        let off = d.shl(tid, 2u64);
        let eo = d.iadd(outb, off);
        d.st_global_u32(acc, eo, 0);
        let p = d.compile().unwrap();
        assert_eq!(u16::from(p.reg_count()), d.regs_planned());
        assert_eq!(u16::from(p.pred_count()), d.preds_planned());
    }

    #[test]
    fn generator_is_deterministic_and_mirrorable() {
        let cfg = GenCfg::default();
        let a = gen_kernel(&mut Gen::new(42), &cfg);
        let b = gen_kernel(&mut Gen::new(42), &cfg);
        let pa = a.kernel.compile().unwrap();
        let pb = b.kernel.compile().unwrap();
        assert_eq!(pa, pb, "same seed must generate the same program");

        // Different seeds should (overwhelmingly) differ.
        let c = gen_kernel(&mut Gen::new(43), &cfg);
        assert_ne!(pa, c.kernel.compile().unwrap());

        // And the mirror must run cleanly over a small grid.
        let grid = Dim2::x(4);
        let threads = grid.count() * cfg.block.count();
        let in_base = 0u64;
        let out_base = threads * 4;
        let mut mem = MirrorMem::new();
        for t in 0..threads {
            mem.write_u32(in_base + 4 * t, (t as u32).wrapping_mul(2654435761));
        }
        a.kernel.mirror(grid, &[in_base, out_base], &mut mem).unwrap();
    }

    /// The shared-memory exchange adapts to the CTA shape: a 2-D block
    /// exchanges through the linear in-CTA id, an odd thread count draws
    /// no exchange, and the buffer covers every thread.
    #[test]
    fn generator_exchange_adapts_to_the_block_shape() {
        let cfg = |block| GenCfg {
            block,
            segments: 40,
            smem: true,
            divergence: false,
            loops: false,
        };
        for (block, exchanges) in [
            (Dim2::new(10, 3), true),
            (Dim2::x(6), true),
            (Dim2::x(7), false),
            (Dim2::new(5, 3), false),
        ] {
            let gk = gen_kernel(&mut Gen::new(3), &cfg(block));
            let p = gk.kernel.compile().unwrap();
            let has = |f: fn(&Instr) -> bool| p.instructions().iter().any(|i| f(&i.op));
            assert_eq!(has(|i| matches!(i, Instr::Bar)), exchanges, "{block:?}");
            let want = if exchanges { block.count() * 4 } else { 0 };
            assert_eq!(gk.smem_bytes, want, "{block:?}");
            // The global thread id reads TidY once; each 2-D exchange
            // reads it again.
            let tid_y_reads = p
                .instructions()
                .iter()
                .filter(|i| matches!(i.op, Instr::Special { sreg: SpecialReg::TidY, .. }))
                .count();
            assert_eq!(tid_y_reads > 1, exchanges && block.y > 1, "{block:?}");
        }
    }

    #[test]
    fn sel_and_pbool_compile_and_mirror() {
        let mut d = DslKernel::new("t", Dim2::x(32));
        let outb = d.param(0);
        let tid = d.global_tid_x();
        let p1 = d.setp(CmpOp::Lt, CmpTy::U64, tid, 16u64);
        let p2 = d.setp(CmpOp::Ge, CmpTy::U64, tid, 8u64);
        let both = d.pbool(PBoolOp::And, p1, p2);
        let v = d.sel(both, 100u64, 200u64);
        let off = d.shl(tid, 2u64);
        let eo = d.iadd(outb, off);
        d.st_global_u32(v, eo, 0);
        assert!(check_program_liveness(&d.compile().unwrap()).is_ok());

        let mut mem = MirrorMem::new();
        d.mirror(Dim2::x(1), &[0], &mut mem).unwrap();
        for t in 0u64..32 {
            let expect = if (8..16).contains(&t) { 100 } else { 200 };
            assert_eq!(mem.read_u32(4 * t), expect, "thread {t}");
        }
    }

    #[test]
    fn liveness_lint_catches_unwritten_read() {
        use crate::instr::{Instr, Instruction};
        use crate::types::Operand;
        let p = Program::from_instructions(
            "bad",
            vec![
                Instruction::new(Instr::Alu {
                    op: AluOp::IAdd,
                    dst: Reg(0),
                    a: Operand::Reg(Reg(5)),
                    b: Operand::Imm(1),
                    c: Operand::Imm(0),
                }),
                Instruction::new(Instr::Exit),
            ],
        )
        .unwrap();
        assert!(check_program_liveness(&p).is_err());
    }
}
