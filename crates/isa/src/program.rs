//! Validated instruction sequences.

use crate::instr::{Instr, Instruction};
use crate::types::{ExecClass, Pc, Pred, Reg};
use std::error::Error;
use std::fmt;

/// A validated, immutable SIMT program.
///
/// Programs are normally produced by
/// [`DslKernel::compile`](crate::dsl::DslKernel::compile), which guarantees
/// structured control flow; [`Program::from_instructions`]
/// performs the checks that can be verified without control-flow analysis
/// (branch targets in range, register indices within bounds, a terminating
/// `Exit` reachable by fallthrough).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    instrs: Vec<Instruction>,
    reg_count: u8,
    pred_count: u8,
    param_count: u8,
}

/// Why a program failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The instruction list was empty.
    Empty,
    /// A branch target or reconvergence PC was out of range.
    BadTarget {
        /// Instruction index of the offending branch.
        pc: Pc,
        /// The invalid target.
        target: Pc,
    },
    /// The last instruction can fall through past the end of the program.
    NoTerminator,
    /// More registers were used than the register file allows (64).
    TooManyRegs {
        /// Number of registers required.
        needed: u16,
    },
    /// More predicates were used than allowed (8).
    TooManyPreds {
        /// Number of predicates required.
        needed: u16,
    },
    /// More parameters were referenced than allowed (32).
    TooManyParams {
        /// Number of parameter slots required.
        needed: u16,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Empty => write!(f, "program has no instructions"),
            ProgramError::BadTarget { pc, target } => {
                write!(f, "branch at pc {pc} targets out-of-range pc {target}")
            }
            ProgramError::NoTerminator => {
                write!(f, "last instruction may fall through past the end")
            }
            ProgramError::TooManyRegs { needed } => {
                write!(f, "program needs {needed} registers, limit is 64")
            }
            ProgramError::TooManyPreds { needed } => {
                write!(f, "program needs {needed} predicates, limit is 8")
            }
            ProgramError::TooManyParams { needed } => {
                write!(f, "program references {needed} parameter slots, limit is 32")
            }
        }
    }
}

impl Error for ProgramError {}

/// Maximum architectural registers per thread.
pub(crate) const MAX_REGS: u16 = 64;
/// Maximum predicate registers per thread.
pub(crate) const MAX_PREDS: u16 = 8;
/// Maximum kernel parameter slots.
pub(crate) const MAX_PARAMS: u16 = 32;

impl Program {
    /// Validates and wraps an instruction sequence.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if the sequence is empty, a branch target
    /// is out of range, register/predicate/parameter indices exceed the
    /// architectural limits, or the final instruction can fall through.
    pub fn from_instructions(
        name: impl Into<String>,
        instrs: Vec<Instruction>,
    ) -> Result<Self, ProgramError> {
        if instrs.is_empty() {
            return Err(ProgramError::Empty);
        }
        let len = instrs.len() as Pc;
        let mut max_reg: u16 = 0;
        let mut max_pred: u16 = 0;
        let mut max_param: u16 = 0;
        let mut track_reg = |r: Reg| {
            max_reg = max_reg.max(u16::from(r.0) + 1);
        };
        for (pc, ins) in instrs.iter().enumerate() {
            let pc = pc as Pc;
            if let Some(g) = &ins.guard {
                max_pred = max_pred.max(u16::from(g.pred.0) + 1);
            }
            if let Some(d) = ins.dst_reg() {
                track_reg(d);
            }
            for s in ins.src_regs() {
                track_reg(s);
            }
            let mut track_pred = |p: Pred| {
                max_pred = max_pred.max(u16::from(p.0) + 1);
            };
            match &ins.op {
                Instr::Bra { target } => {
                    if *target >= len {
                        return Err(ProgramError::BadTarget {
                            pc,
                            target: *target,
                        });
                    }
                }
                Instr::BraCond {
                    pred,
                    target,
                    reconv,
                    ..
                } => {
                    track_pred(*pred);
                    if *target >= len {
                        return Err(ProgramError::BadTarget {
                            pc,
                            target: *target,
                        });
                    }
                    if *reconv >= len {
                        return Err(ProgramError::BadTarget {
                            pc,
                            target: *reconv,
                        });
                    }
                }
                Instr::SetP { dst, .. } => track_pred(*dst),
                Instr::PBool { dst, a, b, .. } => {
                    track_pred(*dst);
                    track_pred(*a);
                    track_pred(*b);
                }
                Instr::Sel { pred, .. } => track_pred(*pred),
                Instr::Param { index, .. } => {
                    max_param = max_param.max(u16::from(*index) + 1);
                }
                _ => {}
            }
        }
        // The last instruction must not fall through: it must be an Exit or
        // an unconditional branch. (A guarded Exit could fall through.)
        let last = instrs.last().expect("nonempty");
        let terminates = match &last.op {
            Instr::Exit => last.guard.is_none(),
            Instr::Bra { .. } => true,
            _ => false,
        };
        if !terminates {
            return Err(ProgramError::NoTerminator);
        }
        if max_reg > MAX_REGS {
            return Err(ProgramError::TooManyRegs { needed: max_reg });
        }
        if max_pred > MAX_PREDS {
            return Err(ProgramError::TooManyPreds { needed: max_pred });
        }
        if max_param > MAX_PARAMS {
            return Err(ProgramError::TooManyParams { needed: max_param });
        }
        Ok(Program {
            name: name.into(),
            instrs,
            reg_count: max_reg as u8,
            pred_count: max_pred as u8,
            param_count: max_param as u8,
        })
    }

    /// The program's name (for reports and debugging).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty (never true for a validated program).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn fetch(&self, pc: Pc) -> &Instruction {
        &self.instrs[pc as usize]
    }

    /// All instructions in order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instrs
    }

    /// Number of architectural registers this program uses per thread.
    pub fn reg_count(&self) -> u8 {
        self.reg_count
    }

    /// Number of predicate registers this program uses per thread.
    pub fn pred_count(&self) -> u8 {
        self.pred_count
    }

    /// Number of parameter slots the program reads.
    pub fn param_count(&self) -> u8 {
        self.param_count
    }

    /// Static instruction-mix statistics.
    pub fn stats(&self) -> ProgramStats {
        let mut s = ProgramStats::default();
        for ins in &self.instrs {
            s.total += 1;
            match ins.exec_class() {
                ExecClass::IntAlu => s.int_alu += 1,
                ExecClass::FpAlu => s.fp_alu += 1,
                ExecClass::Sfu => s.sfu += 1,
                ExecClass::MemGlobal => {
                    if matches!(ins.op, Instr::Ld { .. }) {
                        s.global_loads += 1;
                    } else {
                        s.global_stores += 1;
                    }
                }
                ExecClass::MemShared => s.shared_mem += 1,
                ExecClass::Ctrl => s.control += 1,
                ExecClass::Barrier => s.barriers += 1,
                ExecClass::Exit => s.exits += 1,
            }
        }
        s
    }

    /// A multi-line disassembly listing.
    pub fn disassemble(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (pc, ins) in self.instrs.iter().enumerate() {
            let _ = writeln!(out, "{pc:4}: {ins}");
        }
        out
    }

    /// Whether any instruction reads operands through immediates only —
    /// helper for tests: returns true if a register `r` is read anywhere.
    pub fn reads_reg(&self, r: Reg) -> bool {
        self.instrs.iter().any(|i| i.src_regs().contains(&r))
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} instrs)", self.name, self.instrs.len())
    }
}

/// Static instruction-mix counts for a [`Program`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Total static instructions.
    pub total: usize,
    /// Integer-ALU-class instructions.
    pub int_alu: usize,
    /// Floating-point-ALU instructions.
    pub fp_alu: usize,
    /// SFU instructions.
    pub sfu: usize,
    /// Global loads.
    pub global_loads: usize,
    /// Global stores.
    pub global_stores: usize,
    /// Shared-memory accesses.
    pub shared_mem: usize,
    /// Control-flow instructions.
    pub control: usize,
    /// Barriers.
    pub barriers: usize,
    /// Exit instructions.
    pub exits: usize,
}

/// A convenience free function used across tests: a trivially valid program
/// consisting of a single `Exit`.
pub fn exit_only(name: &str) -> Program {
    Program::from_instructions(name, vec![Instruction::new(Instr::Exit)])
        .expect("exit-only program is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AluOp, Operand};

    fn exit() -> Instruction {
        Instruction::new(Instr::Exit)
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            Program::from_instructions("e", vec![]).unwrap_err(),
            ProgramError::Empty
        );
    }

    #[test]
    fn exit_only_valid() {
        let p = exit_only("t");
        assert_eq!(p.len(), 1);
        assert_eq!(p.reg_count(), 0);
        assert!(!p.is_empty());
    }

    #[test]
    fn bad_branch_target_rejected() {
        let p = Program::from_instructions(
            "t",
            vec![
                Instruction::new(Instr::Bra { target: 9 }),
                exit(),
            ],
        );
        assert!(matches!(p, Err(ProgramError::BadTarget { pc: 0, target: 9 })));
    }

    #[test]
    fn bad_reconv_rejected() {
        let p = Program::from_instructions(
            "t",
            vec![
                Instruction::new(Instr::BraCond {
                    pred: Pred(0),
                    neg: false,
                    target: 1,
                    reconv: 7,
                }),
                exit(),
            ],
        );
        assert!(matches!(p, Err(ProgramError::BadTarget { .. })));
    }

    #[test]
    fn fallthrough_end_rejected() {
        let p = Program::from_instructions(
            "t",
            vec![Instruction::new(Instr::Mov {
                dst: Reg(0),
                src: Operand::Imm(1),
            })],
        );
        assert_eq!(p.unwrap_err(), ProgramError::NoTerminator);
        // A guarded Exit can fall through too.
        let p = Program::from_instructions(
            "t",
            vec![Instruction::guarded(Instr::Exit, Pred(0), true)],
        );
        assert_eq!(p.unwrap_err(), ProgramError::NoTerminator);
    }

    #[test]
    fn resource_counts() {
        let p = Program::from_instructions(
            "t",
            vec![
                Instruction::new(Instr::Alu {
                    op: AluOp::IAdd,
                    dst: Reg(5),
                    a: Operand::Reg(Reg(2)),
                    b: Operand::Imm(1),
                    c: Operand::Imm(0),
                }),
                Instruction::new(Instr::SetP {
                    dst: Pred(3),
                    cmp: crate::CmpOp::Lt,
                    ty: crate::CmpTy::U64,
                    a: Operand::Reg(Reg(5)),
                    b: Operand::Imm(10),
                }),
                Instruction::new(Instr::Param {
                    dst: Reg(0),
                    index: 4,
                }),
                exit(),
            ],
        )
        .unwrap();
        assert_eq!(p.reg_count(), 6);
        assert_eq!(p.pred_count(), 4);
        assert_eq!(p.param_count(), 5);
        assert!(p.reads_reg(Reg(2)));
        assert!(!p.reads_reg(Reg(9)));
    }

    #[test]
    fn stats_counts_classes() {
        let p = Program::from_instructions(
            "t",
            vec![
                Instruction::new(Instr::Alu {
                    op: AluOp::FAdd,
                    dst: Reg(0),
                    a: Operand::Imm(0),
                    b: Operand::Imm(0),
                    c: Operand::Imm(0),
                }),
                Instruction::new(Instr::Bar),
                exit(),
            ],
        )
        .unwrap();
        let s = p.stats();
        assert_eq!(s.total, 3);
        assert_eq!(s.fp_alu, 1);
        assert_eq!(s.barriers, 1);
        assert_eq!(s.exits, 1);
    }

    #[test]
    fn disassembly_lines() {
        let p = exit_only("t");
        assert!(p.disassemble().contains("EXIT"));
        assert_eq!(p.to_string(), "t (1 instrs)");
    }
}
