//! The issue stage's decoded rows against a spelled-out reference.
//!
//! `DecodedKernel` turns each instruction into one row: a register hazard
//! mask, a predicate hazard mask, an `Exit` drain flag, the class the warp
//! becomes ready in, and the writeback latency. Readiness and execution
//! read nothing else, so a row that drops an operand lets a warp issue
//! past a pending write. This test rebuilds every row field by field from
//! the instruction (`src_regs`, `dst_reg`, the guard and each op's
//! predicate fields) for every suite kernel at Tiny and Small scale and
//! for 200 `gen:rand` draws.

use gpgpu_repro::isa::{ExecClass, Instr, Instruction, KernelDescriptor, MemSpace};
use gpgpu_repro::sim::decode::{DecodedKernel, IssueRow, ReadyState};
use gpgpu_repro::sim::{GlobalMem, GpuConfig};
use gpgpu_repro::workloads::{by_name, suite, Scale};
use std::sync::Arc;

/// The row `ins` must decode to under `cfg`.
fn reference(ins: Instruction, cfg: &GpuConfig) -> IssueRow {
    let mut regs = 0u64;
    for r in ins.src_regs() {
        regs |= 1 << r.0;
    }
    if let Some(d) = ins.dst_reg() {
        regs |= 1 << d.0;
    }
    let mut preds = 0u8;
    if let Some(g) = ins.guard {
        preds |= 1 << g.pred.0;
    }
    match ins.op {
        Instr::SetP { dst, .. } => preds |= 1 << dst.0,
        Instr::PBool { dst, a, b, .. } => {
            preds |= 1 << dst.0;
            preds |= 1 << a.0;
            preds |= 1 << b.0;
        }
        Instr::Sel { pred, .. } => preds |= 1 << pred.0,
        Instr::BraCond { pred, .. } => preds |= 1 << pred.0,
        _ => {}
    }
    let (ready, latency) = match ins.op {
        Instr::Ld { space, .. } | Instr::St { space, .. } => match space {
            MemSpace::Global => (ReadyState::ReadyMemGlobal, cfg.int_latency),
            MemSpace::Shared => (ReadyState::ReadyMemShared, cfg.shared_latency),
        },
        Instr::Alu { op, .. } if op.is_sfu() => (ReadyState::Ready, cfg.sfu_latency),
        Instr::Alu { op, .. } if op.is_float() => (ReadyState::Ready, cfg.fp_latency),
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

/// Fermi with every latency distinct, so a row that takes the wrong one
/// shows.
fn distinct_latencies() -> GpuConfig {
    let mut cfg = GpuConfig::fermi();
    cfg.int_latency = 3;
    cfg.fp_latency = 5;
    cfg.sfu_latency = 17;
    cfg.shared_latency = 29;
    cfg.validate();
    cfg
}

/// Checks every row of `desc` under both configurations; returns the
/// number of rows checked.
fn check(label: &str, desc: KernelDescriptor) -> usize {
    let desc = Arc::new(desc);
    for cfg in [GpuConfig::fermi(), distinct_latencies()] {
        let code = DecodedKernel::new(Arc::clone(&desc), &cfg);
        let instrs = desc.program().instructions();
        assert_eq!(code.rows().len(), instrs.len(), "{label}: one row per pc");
        for (pc, (&ins, row)) in instrs.iter().zip(code.rows()).enumerate() {
            assert_eq!(*row, reference(ins, &cfg), "{label} pc {pc}: {ins}");
            assert_eq!(code.row(pc as u32), row, "{label} pc {pc}");
        }
    }
    desc.program().len()
}

#[test]
fn decoded_rows_match_reference_on_suite_kernels() {
    let mut rows = 0;
    for scale in [Scale::Tiny, Scale::Small] {
        for mut w in suite(scale) {
            let label = format!("{scale:?} {}", w.name());
            rows += check(&label, w.prepare(&mut GlobalMem::new()));
        }
    }
    assert!(rows > 200, "only {rows} rows checked");
}

#[test]
fn decoded_rows_match_reference_on_random_kernels() {
    let mut seen = [false; 4];
    for seed in 0..200 {
        let name = format!("gen:rand/seed={seed}");
        let mut w = by_name(&name, Scale::Tiny).expect("valid gen:rand name");
        let desc = w.prepare(&mut GlobalMem::new());
        for ins in desc.program().instructions() {
            let class = ins.exec_class();
            seen[0] |= ins.guard.is_some();
            seen[1] |= matches!(
                ins.op,
                Instr::SetP { .. } | Instr::PBool { .. } | Instr::Sel { .. }
            );
            seen[2] |= class == ExecClass::MemShared;
            seen[3] |= matches!(class, ExecClass::Sfu | ExecClass::FpAlu);
        }
        check(&name, desc);
    }
    // The draws reach every kind of row the reference distinguishes.
    assert_eq!(
        seen, [true; 4],
        "guard, predicate ops, shared memory, fp/sfu"
    );
}
