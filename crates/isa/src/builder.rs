//! The kernel DSL's assembler: instruction emission with fresh-register
//! allocation, and structured control-flow layout.

use crate::instr::{Guard, Instr, Instruction};
use crate::program::{Program, ProgramError, MAX_PREDS, MAX_REGS};
use crate::types::{AluOp, CmpOp, CmpTy, Operand, Pc, Pred, Reg};

/// A forward-referencable position in the program being built.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Label(usize);

/// Builds a [`Program`] instruction by instruction. The structured helpers
/// ([`if_then`](Self::if_then), [`if_then_else`](Self::if_then_else),
/// [`for_range`](Self::for_range)) emit correct reconvergence PCs: both
/// sides of every divergent branch reach the branch's reconvergence point,
/// which the simulator's SIMT stack relies on.
///
/// [`DslKernel::compile`](crate::dsl::DslKernel::compile) is the only
/// client; kernels are written in the DSL.
#[derive(Debug)]
pub(crate) struct KernelBuilder {
    name: String,
    instrs: Vec<Instruction>,
    labels: Vec<Option<Pc>>,
    /// (instruction index, label, which field) patches to apply at build.
    patches: Vec<(usize, Label, PatchField)>,
    next_reg: u16,
    next_pred: u16,
    guard: Option<Guard>,
}

#[derive(Debug, Clone, Copy)]
enum PatchField {
    Target,
    Reconv,
}

impl KernelBuilder {
    /// Starts building a kernel named `name`.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            instrs: Vec::new(),
            labels: Vec::new(),
            patches: Vec::new(),
            next_reg: 0,
            next_pred: 0,
            guard: None,
        }
    }

    /// Allocates a fresh general-purpose register.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 registers are allocated.
    pub(crate) fn reg(&mut self) -> Reg {
        assert!(self.next_reg < MAX_REGS, "out of registers (limit 64)");
        let r = Reg(self.next_reg as u8);
        self.next_reg += 1;
        r
    }

    /// Allocates a fresh predicate register.
    ///
    /// # Panics
    ///
    /// Panics if more than 8 predicates are allocated.
    pub(crate) fn pred(&mut self) -> Pred {
        assert!(self.next_pred < MAX_PREDS, "out of predicates (limit 8)");
        let p = Pred(self.next_pred as u8);
        self.next_pred += 1;
        p
    }

    /// Appends `op` under the current guard; returns its index.
    pub(crate) fn emit(&mut self, op: Instr) -> usize {
        let idx = self.instrs.len();
        self.instrs.push(Instruction {
            guard: self.guard,
            op,
        });
        idx
    }

    // ----- labels -------------------------------------------------------

    fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.instrs.len() as Pc);
    }

    fn bra(&mut self, label: Label) {
        let idx = self.emit(Instr::Bra { target: 0 });
        self.patches.push((idx, label, PatchField::Target));
    }

    /// A conditional branch to `target`, taken in lanes where
    /// `pred != neg`, reconverging at `reconv`.
    fn bra_cond(&mut self, pred: Pred, neg: bool, target: Label, reconv: Label) {
        let idx = self.emit(Instr::BraCond {
            pred,
            neg,
            target: 0,
            reconv: 0,
        });
        self.patches.push((idx, target, PatchField::Target));
        self.patches.push((idx, reconv, PatchField::Reconv));
    }

    // ----- structured control flow ----------------------------------------

    /// Emits the instructions produced by `body` under guard
    /// `pred == expect`: guarded lanes skip execution (no register write, no
    /// memory access) but the warp still spends the issue slot.
    ///
    /// # Panics
    ///
    /// Panics if guards are nested.
    pub(crate) fn with_guard(&mut self, pred: Pred, expect: bool, body: impl FnOnce(&mut Self)) {
        assert!(self.guard.is_none(), "nested guards are not supported");
        self.guard = Some(Guard { pred, expect });
        body(self);
        self.guard = None;
    }

    /// `if pred { body }` with correct reconvergence.
    pub(crate) fn if_then(&mut self, pred: Pred, body: impl FnOnce(&mut Self)) {
        let end = self.label();
        // Lanes where !pred jump straight to the reconvergence point.
        self.bra_cond(pred, true, end, end);
        body(self);
        self.bind(end);
    }

    /// `if pred { then_body } else { else_body }` with correct
    /// reconvergence.
    pub(crate) fn if_then_else(
        &mut self,
        pred: Pred,
        then_body: impl FnOnce(&mut Self),
        else_body: impl FnOnce(&mut Self),
    ) {
        let l_else = self.label();
        let l_end = self.label();
        self.bra_cond(pred, true, l_else, l_end);
        then_body(self);
        self.bra(l_end);
        self.bind(l_else);
        else_body(self);
        self.bind(l_end);
    }

    /// A counted loop: `for i in (start..end).step_by(step) { body(i) }`
    /// with unsigned comparison, costing one register (the induction
    /// variable, which holds `end`-or-beyond after the loop) and one
    /// predicate (the continue condition, evaluated at the loop head each
    /// iteration). Lanes whose condition is false leave the loop and wait
    /// at the exit until all lanes reconverge.
    pub(crate) fn for_range(
        &mut self,
        start: Operand,
        end: Operand,
        step: Operand,
        body: impl FnOnce(&mut Self, Reg),
    ) {
        let i = self.reg();
        self.emit(Instr::Mov { dst: i, src: start });
        let head = self.label();
        let exit = self.label();
        self.bind(head);
        let p = self.pred();
        self.emit(Instr::SetP {
            dst: p,
            cmp: CmpOp::Lt,
            ty: CmpTy::U64,
            a: Operand::Reg(i),
            b: end,
        });
        // Lanes where !p exit the loop; exit is also the reconvergence point.
        self.bra_cond(p, true, exit, exit);
        body(self, i);
        self.emit(Instr::Alu {
            op: AluOp::IAdd,
            dst: i,
            a: Operand::Reg(i),
            b: step,
            c: Operand::Imm(0),
        });
        self.bra(head);
        self.bind(exit);
    }

    // ----- finalization ----------------------------------------------------

    /// Finalizes the program: appends the trailing `Exit`, resolves labels,
    /// and validates.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if validation fails.
    ///
    /// # Panics
    ///
    /// Panics if any label referenced by a branch was never bound.
    pub(crate) fn build(mut self) -> Result<Program, ProgramError> {
        self.guard = None;
        self.emit(Instr::Exit);
        for (idx, label, field) in &self.patches {
            let pc = self.labels[label.0].expect("branch references an unbound label");
            match (&mut self.instrs[*idx].op, field) {
                (Instr::Bra { target }, PatchField::Target) => *target = pc,
                (Instr::BraCond { target, .. }, PatchField::Target) => *target = pc,
                (Instr::BraCond { reconv, .. }, PatchField::Reconv) => *reconv = pc,
                _ => unreachable!("patch recorded for non-branch instruction"),
            }
        }
        Program::from_instructions(self.name, self.instrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mov(k: &mut KernelBuilder, dst: Reg, v: u64) {
        k.emit(Instr::Mov {
            dst,
            src: Operand::Imm(v),
        });
    }

    #[test]
    fn trailing_exit_appended() {
        let mut k = KernelBuilder::new("t");
        let r = k.reg();
        mov(&mut k, r, 1);
        let p = k.build().unwrap();
        assert_eq!(p.len(), 2);
        assert!(matches!(p.fetch(1).op, Instr::Exit));
    }

    #[test]
    fn if_then_layout() {
        let mut k = KernelBuilder::new("t");
        let p0 = k.pred();
        let r = k.reg();
        k.if_then(p0, |k| mov(k, r, 1));
        let prog = k.build().unwrap();
        // 0: BraCond(!p0 -> 2, reconv 2); 1: MOV; 2: EXIT
        match prog.fetch(0).op {
            Instr::BraCond {
                neg,
                target,
                reconv,
                ..
            } => {
                assert!(neg);
                assert_eq!(target, 2);
                assert_eq!(reconv, 2);
            }
            ref other => panic!("expected BraCond, got {other:?}"),
        }
    }

    #[test]
    fn if_then_else_layout() {
        let mut k = KernelBuilder::new("t");
        let p0 = k.pred();
        let a = k.reg();
        k.if_then_else(p0, |k| mov(k, a, 1), |k| mov(k, a, 2));
        let prog = k.build().unwrap();
        // 0: BraCond(!p0 -> else@3, reconv 4); 1: MOV a,1; 2: BRA 4; 3: MOV a,2; 4: EXIT
        match prog.fetch(0).op {
            Instr::BraCond { target, reconv, .. } => {
                assert_eq!(target, 3);
                assert_eq!(reconv, 4);
            }
            ref other => panic!("expected BraCond, got {other:?}"),
        }
        match prog.fetch(2).op {
            Instr::Bra { target } => assert_eq!(target, 4),
            ref other => panic!("expected Bra, got {other:?}"),
        }
    }

    #[test]
    fn loop_layout() {
        let mut k = KernelBuilder::new("t");
        let r = k.reg();
        k.for_range(Operand::Imm(0), Operand::Imm(4), Operand::Imm(1), |k, _| {
            mov(k, r, 1)
        });
        let prog = k.build().unwrap();
        // 0: MOV i,0; 1: SETP p0, i<4; 2: BraCond(!p0 -> 6, reconv 6);
        // 3: MOV; 4: IADD i,i,1; 5: BRA 1; 6: EXIT
        assert_eq!(prog.len(), 7);
        match prog.fetch(2).op {
            Instr::BraCond { target, reconv, .. } => {
                assert_eq!(target, 6);
                assert_eq!(reconv, 6);
            }
            ref other => panic!("expected BraCond, got {other:?}"),
        }
        match prog.fetch(5).op {
            Instr::Bra { target } => assert_eq!(target, 1),
            ref other => panic!("expected backward Bra, got {other:?}"),
        }
    }

    #[test]
    fn guard_applies_only_inside() {
        let mut k = KernelBuilder::new("t");
        let p0 = k.pred();
        let r = k.reg();
        k.with_guard(p0, true, |k| mov(k, r, 1));
        mov(&mut k, r, 2);
        let prog = k.build().unwrap();
        assert!(prog.fetch(0).guard.is_some());
        assert!(prog.fetch(1).guard.is_none());
        assert!(
            prog.fetch(2).guard.is_none(),
            "the trailing exit is unguarded"
        );
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut k = KernelBuilder::new("t");
        let l = k.label();
        k.bra(l);
        let _ = k.build();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut k = KernelBuilder::new("t");
        let l = k.label();
        k.bind(l);
        k.bind(l);
    }

    #[test]
    fn fresh_registers_monotonic() {
        let mut k = KernelBuilder::new("t");
        let a = k.reg();
        let b = k.reg();
        assert_eq!(b.0, a.0 + 1);
        let p = k.pred();
        let q = k.pred();
        assert_eq!(q.0, p.0 + 1);
    }
}
