//! Instruction definitions.

use crate::types::{
    AccessWidth, AluOp, CmpOp, CmpTy, ExecClass, MemSpace, Operand, PBoolOp, Pc, Pred, Reg,
    SpecialReg,
};
use std::fmt;

/// A per-lane effective address: `regs[base] + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrExpr {
    /// Register holding the per-lane base address (bytes).
    pub base: Reg,
    /// Constant byte offset added to the base.
    pub offset: i64,
}

impl AddrExpr {
    /// A new address expression.
    pub fn new(base: Reg, offset: i64) -> Self {
        AddrExpr { base, offset }
    }
}

/// A predicate guard: the instruction only takes effect in lanes where
/// `pred == expect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guard {
    /// The guarding predicate register.
    pub pred: Pred,
    /// The value the predicate must have for the lane to execute.
    pub expect: bool,
}

/// Instruction operations. See [`Instruction`] for the guard wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Binary/ternary ALU operation: `dst = op(a, b[, c])`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First operand.
        a: Operand,
        /// Second operand.
        b: Operand,
        /// Third operand for `IMad`/`FFma`; ignored otherwise.
        c: Operand,
    },
    /// Register/immediate move: `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// Read a special register: `dst = sreg`.
    Special {
        /// Destination register.
        dst: Reg,
        /// Which special register to read.
        sreg: SpecialReg,
    },
    /// Load a kernel parameter: `dst = params[index]`.
    Param {
        /// Destination register.
        dst: Reg,
        /// Parameter slot.
        index: u8,
    },
    /// Set a predicate from a comparison: `dst = cmp(a, b)`.
    SetP {
        /// Destination predicate.
        dst: Pred,
        /// Comparison operator.
        cmp: CmpOp,
        /// Operand interpretation.
        ty: CmpTy,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Combine predicates: `dst = op(a, b)`.
    PBool {
        /// Destination predicate.
        dst: Pred,
        /// Combinator.
        op: PBoolOp,
        /// Left predicate.
        a: Pred,
        /// Right predicate.
        b: Pred,
    },
    /// Select: `dst = if pred { a } else { b }`.
    Sel {
        /// Destination register.
        dst: Reg,
        /// Selector predicate.
        pred: Pred,
        /// Value if true.
        a: Operand,
        /// Value if false.
        b: Operand,
    },
    /// Unconditional (warp-uniform) branch.
    Bra {
        /// Branch target.
        target: Pc,
    },
    /// Potentially-divergent conditional branch.
    ///
    /// A lane takes the branch when `pred != neg` (i.e. `neg = false` means
    /// "taken when true"). `reconv` is the immediate reconvergence point; the
    /// DSL's structured control flow guarantees both paths reach it.
    BraCond {
        /// Condition predicate.
        pred: Pred,
        /// Negate the condition.
        neg: bool,
        /// Target when taken.
        target: Pc,
        /// Reconvergence PC for the SIMT stack.
        reconv: Pc,
    },
    /// CTA-wide barrier: the warp blocks until every live warp of its CTA
    /// has arrived.
    Bar,
    /// Memory load: `dst = mem[space][addr]` (per lane).
    Ld {
        /// Address space.
        space: MemSpace,
        /// Destination register.
        dst: Reg,
        /// Per-lane effective address.
        addr: AddrExpr,
        /// Per-lane width.
        width: AccessWidth,
    },
    /// Memory store: `mem[space][addr] = src` (per lane).
    St {
        /// Address space.
        space: MemSpace,
        /// Value to store.
        src: Operand,
        /// Per-lane effective address.
        addr: AddrExpr,
        /// Per-lane width.
        width: AccessWidth,
    },
    /// Lane exit. Exited lanes are removed from all SIMT-stack masks; the
    /// warp completes when all lanes have exited.
    Exit,
}

/// A full instruction: an operation plus an optional predicate guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// Optional per-lane guard.
    pub guard: Option<Guard>,
    /// The operation.
    pub op: Instr,
}

impl Instruction {
    /// An unguarded instruction.
    pub fn new(op: Instr) -> Self {
        Instruction { guard: None, op }
    }

    /// A guarded instruction, executing only in lanes where
    /// `pred == expect`.
    pub fn guarded(op: Instr, pred: Pred, expect: bool) -> Self {
        Instruction {
            guard: Some(Guard { pred, expect }),
            op,
        }
    }

    /// The execution-resource class of this instruction.
    pub fn exec_class(&self) -> ExecClass {
        match &self.op {
            Instr::Alu { op, .. } => {
                if op.is_sfu() {
                    ExecClass::Sfu
                } else if op.is_float() {
                    ExecClass::FpAlu
                } else {
                    ExecClass::IntAlu
                }
            }
            Instr::Mov { .. }
            | Instr::Special { .. }
            | Instr::Param { .. }
            | Instr::SetP { .. }
            | Instr::PBool { .. }
            | Instr::Sel { .. } => ExecClass::IntAlu,
            Instr::Bra { .. } | Instr::BraCond { .. } => ExecClass::Ctrl,
            Instr::Bar => ExecClass::Barrier,
            Instr::Ld { space, .. } | Instr::St { space, .. } => match space {
                MemSpace::Global => ExecClass::MemGlobal,
                MemSpace::Shared => ExecClass::MemShared,
            },
            Instr::Exit => ExecClass::Exit,
        }
    }

    /// The destination register written by this instruction, if any.
    pub fn dst_reg(&self) -> Option<Reg> {
        match &self.op {
            Instr::Alu { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::Special { dst, .. }
            | Instr::Param { dst, .. }
            | Instr::Sel { dst, .. }
            | Instr::Ld { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// All source registers read by this instruction (excluding the guard
    /// predicate), deduplicated, in operand order. Stored inline, so
    /// decoding a program for the issue-stage scoreboard does not
    /// heap-allocate per instruction.
    pub fn src_regs(&self) -> SrcRegs {
        let mut out = SrcRegs::new();
        let mut push = |o: &Operand| {
            if let Operand::Reg(r) = o {
                out.push(*r);
            }
        };
        match &self.op {
            Instr::Alu { op, a, b, c, .. } => {
                push(a);
                push(b);
                if op.is_ternary() {
                    push(c);
                }
            }
            Instr::Mov { src, .. } => push(src),
            Instr::SetP { a, b, .. } => {
                push(a);
                push(b);
            }
            Instr::Sel { a, b, .. } => {
                push(a);
                push(b);
            }
            Instr::Ld { addr, .. } => out.push(addr.base),
            Instr::St { src, addr, .. } => {
                push(src);
                out.push(addr.base);
            }
            Instr::Special { .. }
            | Instr::Param { .. }
            | Instr::PBool { .. }
            | Instr::Bra { .. }
            | Instr::BraCond { .. }
            | Instr::Bar
            | Instr::Exit => {}
        }
        out
    }

    /// Whether this instruction is a memory access (any space).
    pub fn is_mem(&self) -> bool {
        matches!(self.op, Instr::Ld { .. } | Instr::St { .. })
    }
}

/// The source registers of one instruction, stored inline (no instruction
/// reads more than three). Dereferences to a slice, so call sites use the
/// usual `iter()`/`contains()` vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcRegs {
    regs: [Reg; 3],
    len: u8,
}

impl SrcRegs {
    fn new() -> Self {
        SrcRegs {
            regs: [Reg(0); 3],
            len: 0,
        }
    }

    /// Appends `r` unless already present (operand-order dedup).
    fn push(&mut self, r: Reg) {
        if !self.as_slice().contains(&r) {
            self.regs[self.len as usize] = r;
            self.len += 1;
        }
    }

    /// The registers as a slice.
    pub fn as_slice(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }
}

impl std::ops::Deref for SrcRegs {
    type Target = [Reg];
    fn deref(&self) -> &[Reg] {
        self.as_slice()
    }
}

impl IntoIterator for SrcRegs {
    type Item = Reg;
    type IntoIter = std::iter::Take<std::array::IntoIter<Reg, 3>>;
    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().take(self.len as usize)
    }
}

impl<'a> IntoIterator for &'a SrcRegs {
    type Item = &'a Reg;
    type IntoIter = std::slice::Iter<'a, Reg>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(g) = &self.guard {
            write!(f, "@{}{} ", if g.expect { "" } else { "!" }, g.pred)?;
        }
        match &self.op {
            Instr::Alu { op, dst, a, b, c } => {
                if op.is_ternary() {
                    write!(f, "{op:?} {dst}, {a}, {b}, {c}")
                } else {
                    write!(f, "{op:?} {dst}, {a}, {b}")
                }
            }
            Instr::Mov { dst, src } => write!(f, "MOV {dst}, {src}"),
            Instr::Special { dst, sreg } => write!(f, "S2R {dst}, {sreg:?}"),
            Instr::Param { dst, index } => write!(f, "LDP {dst}, param[{index}]"),
            Instr::SetP { dst, cmp, ty, a, b } => {
                write!(f, "SETP.{cmp:?}.{ty:?} {dst}, {a}, {b}")
            }
            Instr::PBool { dst, op, a, b } => write!(f, "PBOOL.{op:?} {dst}, {a}, {b}"),
            Instr::Sel { dst, pred, a, b } => write!(f, "SEL {dst}, {pred}, {a}, {b}"),
            Instr::Bra { target } => write!(f, "BRA {target}"),
            Instr::BraCond {
                pred,
                neg,
                target,
                reconv,
            } => write!(
                f,
                "BRA.{}{} {target} (reconv {reconv})",
                if *neg { "!" } else { "" },
                pred
            ),
            Instr::Bar => write!(f, "BAR.SYNC"),
            Instr::Ld { space, dst, addr, width } => write!(
                f,
                "LD.{space:?}.{} {dst}, [{} {:+}]",
                width.bytes(),
                addr.base,
                addr.offset
            ),
            Instr::St { space, src, addr, width } => write!(
                f,
                "ST.{space:?}.{} [{} {:+}], {src}",
                width.bytes(),
                addr.base,
                addr.offset
            ),
            Instr::Exit => write!(f, "EXIT"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(dst: u8, a: u8, b: u8) -> Instruction {
        Instruction::new(Instr::Alu {
            op: AluOp::IAdd,
            dst: Reg(dst),
            a: Operand::Reg(Reg(a)),
            b: Operand::Reg(Reg(b)),
            c: Operand::Imm(0),
        })
    }

    #[test]
    fn exec_classes() {
        assert_eq!(add(0, 1, 2).exec_class(), ExecClass::IntAlu);
        let ld = Instruction::new(Instr::Ld {
            space: MemSpace::Global,
            dst: Reg(0),
            addr: AddrExpr::new(Reg(1), 0),
            width: AccessWidth::W4,
        });
        assert_eq!(ld.exec_class(), ExecClass::MemGlobal);
        let lds = Instruction::new(Instr::Ld {
            space: MemSpace::Shared,
            dst: Reg(0),
            addr: AddrExpr::new(Reg(1), 0),
            width: AccessWidth::W4,
        });
        assert_eq!(lds.exec_class(), ExecClass::MemShared);
        assert_eq!(Instruction::new(Instr::Bar).exec_class(), ExecClass::Barrier);
        assert_eq!(Instruction::new(Instr::Exit).exec_class(), ExecClass::Exit);
        let sfu = Instruction::new(Instr::Alu {
            op: AluOp::FRcp,
            dst: Reg(0),
            a: Operand::Reg(Reg(1)),
            b: Operand::Imm(0),
            c: Operand::Imm(0),
        });
        assert_eq!(sfu.exec_class(), ExecClass::Sfu);
    }

    #[test]
    fn dst_and_src_regs() {
        let i = add(0, 1, 2);
        assert_eq!(i.dst_reg(), Some(Reg(0)));
        assert_eq!(i.src_regs().as_slice(), [Reg(1), Reg(2)]);

        // Duplicate sources are deduplicated.
        let i = add(0, 1, 1);
        assert_eq!(i.src_regs().as_slice(), [Reg(1)]);

        let st = Instruction::new(Instr::St {
            space: MemSpace::Global,
            src: Operand::Reg(Reg(3)),
            addr: AddrExpr::new(Reg(4), 8),
            width: AccessWidth::W4,
        });
        assert_eq!(st.dst_reg(), None);
        assert_eq!(st.src_regs().as_slice(), [Reg(3), Reg(4)]);
        assert!(st.is_mem());
    }

    #[test]
    fn ternary_reads_c_only_when_ternary() {
        let fma = Instruction::new(Instr::Alu {
            op: AluOp::FFma,
            dst: Reg(0),
            a: Operand::Reg(Reg(1)),
            b: Operand::Reg(Reg(2)),
            c: Operand::Reg(Reg(3)),
        });
        assert_eq!(fma.src_regs().as_slice(), [Reg(1), Reg(2), Reg(3)]);
        let addc = Instruction::new(Instr::Alu {
            op: AluOp::IAdd,
            dst: Reg(0),
            a: Operand::Reg(Reg(1)),
            b: Operand::Reg(Reg(2)),
            c: Operand::Reg(Reg(3)),
        });
        assert_eq!(addc.src_regs().as_slice(), [Reg(1), Reg(2)]);
    }

    #[test]
    fn display_smoke() {
        let i = Instruction::guarded(
            Instr::Mov {
                dst: Reg(1),
                src: Operand::Imm(5),
            },
            Pred(0),
            false,
        );
        assert_eq!(i.to_string(), "@!p0 MOV r1, #5");
    }
}
