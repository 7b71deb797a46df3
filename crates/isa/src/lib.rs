//! A small SASS-like SIMT instruction set, kernel DSL, and functional
//! semantics for the HPCA'14 thread-block-scheduling reproduction.
//!
//! The paper's mechanisms (LCS, BCS, mixed concurrent kernel execution) are
//! scheduling policies evaluated on a cycle-level GPU simulator. That
//! simulator needs programs to run; this crate defines them:
//!
//! * [`Instruction`] / [`Instr`] — a register-based, per-lane SIMT ISA with
//!   integer/float ALU ops, SFU ops, predicates, divergent branches carrying
//!   explicit reconvergence PCs, barriers, and global/shared memory accesses.
//! * [`dsl`] — the one way to write a kernel: a [`DslKernel`](dsl::DslKernel)
//!   records a statement tree with structured control flow (`if_then`,
//!   `if_then_else`, `for_range`, guards) that guarantees well-formed
//!   reconvergence, validates it (use-before-def, barrier placement,
//!   register budgets), compiles it to a [`Program`], executes it on the
//!   CPU as a functional oracle, and generates random race-free kernels
//!   from a seed. Its assembler is internal to this crate.
//! * [`Program`] — a validated instruction sequence.
//! * [`KernelDescriptor`] — a program plus launch geometry and per-CTA
//!   resource demands (registers, shared memory), the unit the thread-block
//!   scheduler dispatches.
//! * [`sem`] — pure functional semantics (`eval_alu`, `eval_cmp`), used by
//!   the simulator to execute programs *functionally correctly* while timing
//!   is modeled separately.
//!
//! # Example
//!
//! Write a `vecadd`-style kernel: `c[i] = a[i] + b[i]` for `i < n`.
//!
//! ```
//! use gpgpu_isa::dsl::DslKernel;
//! use gpgpu_isa::{CmpOp, CmpTy, Dim2};
//!
//! let mut k = DslKernel::new("vecadd", Dim2::x(256));
//! let a = k.param(0);
//! let b = k.param(1);
//! let c = k.param(2);
//! let n = k.param(3);
//! let gid = k.global_tid_x();
//! let in_range = k.setp(CmpOp::Lt, CmpTy::U64, gid, n);
//! k.if_then(in_range, |k| {
//!     let off = k.shl(gid, 2u64); // 4-byte elements
//!     let pa = k.iadd(a, off);
//!     let pb = k.iadd(b, off);
//!     let pc = k.iadd(c, off);
//!     let va = k.ld_global_u32(pa, 0);
//!     let vb = k.ld_global_u32(pb, 0);
//!     let vc = k.iadd(va, vb);
//!     k.st_global_u32(vc, pc, 0);
//! });
//! let program = k.compile().expect("valid program");
//! assert!(program.len() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod dsl;
mod instr;
mod kernel;
mod program;
pub mod sem;
mod types;

pub use instr::{AddrExpr, Guard, Instr, Instruction, SrcRegs};
pub use kernel::{KernelDescriptor, KernelDescriptorBuilder, KernelError};
pub use kernel::MAX_THREADS_PER_CTA;
pub use program::{exit_only, Program, ProgramError, ProgramStats};
pub use types::{
    AccessWidth, AluOp, CmpOp, CmpTy, Dim2, ExecClass, MemSpace, Operand, PBoolOp, Pc, Pred, Reg,
    SpecialReg, WARP_SIZE,
};
