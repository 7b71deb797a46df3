//! The issue stage's decoded program: one [`IssueRow`] per pc, built once
//! per kernel launch.
//!
//! Everything the issue stage needs to know about an instruction that does
//! not depend on the warp executing it is computed here, so the
//! per-cycle readiness check is two mask tests and execution reads its
//! writeback latency off the row. The table lives on the simulator side,
//! not in [`Program`](gpgpu_isa::Program): latencies come from the
//! [`GpuConfig`], and the program's `Debug` form is pinned by the kernel
//! golden listing.

use crate::config::GpuConfig;
use gpgpu_isa::{ExecClass, Instr, Instruction, KernelDescriptor, Pc};
use std::sync::Arc;

/// Warp-local readiness verdict for one warp slot. Structural resources
/// (LSQ space, shared pipe) are shared state and are not part of it: the
/// issue stage checks them fresh against the `ReadyMem*` classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadyState {
    /// Ready, with no structural dependence.
    Ready,
    /// Scoreboard passed; issues iff the LSQ has space.
    ReadyMemGlobal,
    /// Scoreboard passed; issues iff the shared-memory pipe is free.
    ReadyMemShared,
    /// Scoreboard dependency with global-memory loads outstanding.
    BlockedMem,
    /// Scoreboard dependency on an in-flight ALU/SFU/shared writeback.
    BlockedScoreboard,
    /// Waiting at a CTA barrier.
    BlockedBarrier,
}

/// One instruction, decoded for the issue stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueRow {
    /// The instruction.
    pub ins: Instruction,
    /// Scoreboard bits (`1 << reg`) of every register the instruction
    /// reads or writes: its sources and its destination.
    pub regs: u64,
    /// Scoreboard bits (`1 << pred`) of every predicate it reads or
    /// writes: the guard, a `SetP`/`PBool` destination, the `PBool`
    /// inputs, and the `Sel`/`BraCond` selector.
    pub preds: u8,
    /// The instruction waits for the warp to drain: no register,
    /// predicate or load may be pending (`Exit`).
    pub drain: bool,
    /// The verdict once the scoreboard passes: [`ReadyState::Ready`],
    /// [`ReadyState::ReadyMemGlobal`] or [`ReadyState::ReadyMemShared`].
    pub ready: ReadyState,
    /// Cycles from issue to the destination's writeback: the ALU class
    /// latency, the base shared-memory latency for a shared access
    /// (bank-conflict passes add to it), and the integer latency
    /// otherwise (including a fully guarded-off global load).
    pub latency: u32,
}

impl IssueRow {
    /// Decodes `ins` under the latencies of `cfg`.
    pub fn new(ins: Instruction, cfg: &GpuConfig) -> Self {
        let reg_bit = |r: gpgpu_isa::Reg| 1u64 << r.0;
        let pred_bit = |p: gpgpu_isa::Pred| 1u8 << p.0;
        let mut regs = ins.src_regs().iter().fold(0, |m, &r| m | reg_bit(r));
        if let Some(d) = ins.dst_reg() {
            regs |= reg_bit(d);
        }
        let mut preds = ins.guard.map_or(0, |g| pred_bit(g.pred));
        match ins.op {
            Instr::SetP { dst, .. } => preds |= pred_bit(dst),
            Instr::PBool { dst, a, b, .. } => preds |= pred_bit(dst) | pred_bit(a) | pred_bit(b),
            Instr::Sel { pred, .. } | Instr::BraCond { pred, .. } => preds |= pred_bit(pred),
            _ => {}
        }
        let (ready, latency) = match ins.exec_class() {
            ExecClass::MemGlobal => (ReadyState::ReadyMemGlobal, cfg.int_latency),
            ExecClass::MemShared => (ReadyState::ReadyMemShared, cfg.shared_latency),
            ExecClass::Sfu => (ReadyState::Ready, cfg.sfu_latency),
            ExecClass::FpAlu => (ReadyState::Ready, cfg.fp_latency),
            _ => (ReadyState::Ready, cfg.int_latency),
        };
        IssueRow {
            ins,
            regs,
            preds,
            drain: matches!(ins.op, Instr::Exit),
            ready,
            latency,
        }
    }
}

/// A launched kernel: its descriptor and its program decoded into one
/// [`IssueRow`] per pc. Built once per launch and shared by every warp of
/// the kernel.
#[derive(Debug)]
pub struct DecodedKernel {
    desc: Arc<KernelDescriptor>,
    rows: Box<[IssueRow]>,
}

impl DecodedKernel {
    /// Decodes `desc`'s program under the latencies of `cfg`.
    pub fn new(desc: Arc<KernelDescriptor>, cfg: &GpuConfig) -> Self {
        let rows = desc
            .program()
            .instructions()
            .iter()
            .map(|&ins| IssueRow::new(ins, cfg))
            .collect();
        DecodedKernel { desc, rows }
    }

    /// The kernel's descriptor.
    pub fn desc(&self) -> &Arc<KernelDescriptor> {
        &self.desc
    }

    /// The row of `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is past the end of the program.
    pub fn row(&self, pc: Pc) -> &IssueRow {
        &self.rows[pc as usize]
    }

    /// Every row, in pc order.
    pub fn rows(&self) -> &[IssueRow] {
        &self.rows
    }
}
