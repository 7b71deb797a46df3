//! Property tests for the kernel DSL: every generated kernel must compile
//! to a structurally sound [`Program`] (register liveness, barrier
//! placement, label resolution), deterministically, with the planned
//! resource counts — and the CPU mirror must run it cleanly.
//!
//! On failure the harness shrinks the generator configuration (fewer
//! segments, knobs off) and panics with a one-line reproducer.

use gpgpu_isa::dsl::{check_program_liveness, gen_kernel, GenCfg, MirrorMem};
use gpgpu_isa::{Dim2, Instr, Program};
use gpgpu_testkit::Gen;

/// Draws a generator configuration from the seed stream, covering the
/// knob space (block shapes, segment counts, features on/off). Blocks are
/// whole warps, 2-D, sub-warp, or 1-D with a partial last warp.
fn draw_cfg(g: &mut Gen) -> GenCfg {
    let block = match g.range(0, 4) {
        0 => Dim2::x(32 * g.range(1, 9) as u32),
        1 => Dim2::new(g.range(1, 65) as u32, g.range(2, 5) as u32),
        2 => Dim2::x(g.range(1, 32) as u32),
        _ => Dim2::x(32 * g.range(1, 8) as u32 + g.range(1, 32) as u32),
    };
    GenCfg {
        block,
        segments: g.range(0, 13) as usize,
        smem: g.chance(3, 4),
        divergence: g.chance(3, 4),
        loops: g.chance(3, 4),
    }
}

/// Checks one (seed, cfg) pair against every DSL invariant. Returns a
/// description of the first violated property.
fn check_seed(seed: u64, cfg: &GenCfg) -> Result<(), String> {
    let gk = gen_kernel(&mut Gen::new(seed), cfg);

    // The statement tree itself must validate.
    gk.kernel.validate().map_err(|e| format!("validate: {e}"))?;

    // Compilation must succeed...
    let p = gk.kernel.compile().map_err(|e| format!("compile: {e}"))?;

    // ...deterministically.
    let p2 = gen_kernel(&mut Gen::new(seed), cfg)
        .kernel
        .compile()
        .map_err(|e| format!("recompile: {e}"))?;
    if p != p2 {
        return Err("non-deterministic compilation".into());
    }

    // Planned resource counts are exact, not estimates.
    if u16::from(p.reg_count()) != gk.kernel.regs_planned() {
        return Err(format!(
            "reg plan {} != compiled {}",
            gk.kernel.regs_planned(),
            p.reg_count()
        ));
    }
    if u16::from(p.pred_count()) != gk.kernel.preds_planned() {
        return Err(format!(
            "pred plan {} != compiled {}",
            gk.kernel.preds_planned(),
            p.pred_count()
        ));
    }

    check_structure(&p)?;

    // The CPU mirror must execute over a small grid without tripping any
    // alignment assertion, and every thread must write its output slot.
    let grid = Dim2::x(3);
    let threads = grid.count() * cfg.block.count();
    let in_base = 0u64;
    let out_base = threads * 4;
    let mut mem = MirrorMem::new();
    let sentinel = 0xDEAD_BEEFu32;
    for t in 0..threads {
        mem.write_u32(in_base + 4 * t, (t as u32).wrapping_mul(0x9E37_79B9));
        mem.write_u32(out_base + 4 * t, sentinel);
    }
    gk.kernel
        .mirror(grid, &[in_base, out_base], &mut mem)
        .map_err(|e| format!("mirror: {e}"))?;
    // A thread's accumulator could collide with the sentinel only by a
    // 1-in-2^32 accident per seed; the fixed seed set below is known clean.
    for t in 0..threads {
        if mem.read_u32(out_base + 4 * t) == sentinel {
            return Err(format!("thread {t} never stored its output slot"));
        }
    }
    Ok(())
}

/// Program-level structural invariants: liveness, barrier placement, and
/// label (branch-target) resolution.
fn check_structure(p: &Program) -> Result<(), String> {
    check_program_liveness(p).map_err(|e| format!("liveness: {e}"))?;

    let len = p.len() as u32;
    for (pc, ins) in p.instructions().iter().enumerate() {
        let pc = pc as u32;
        match &ins.op {
            // Barriers must be unguarded: a guarded barrier would let
            // lanes skip it and deadlock the CTA.
            Instr::Bar => {
                if ins.guard.is_some() {
                    return Err(format!("pc {pc}: guarded barrier"));
                }
            }
            // Structured control flow yields forward conditional branches
            // whose reconvergence point is at or past the taken target.
            Instr::BraCond { target, reconv, .. } => {
                if *target <= pc || *target > len || *reconv > len || *reconv < *target {
                    return Err(format!(
                        "pc {pc}: malformed BraCond target={target} reconv={reconv}"
                    ));
                }
            }
            // Unconditional branches resolve in range (loop back-edges may
            // point backward).
            Instr::Bra { target } => {
                if *target >= len {
                    return Err(format!("pc {pc}: Bra target {target} out of range"));
                }
            }
            _ => {}
        }
    }
    match p.instructions().last().map(|i| &i.op) {
        Some(Instr::Exit) => Ok(()),
        other => Err(format!("program does not end in Exit: {other:?}")),
    }
}

/// Shrinks a failing seed: turn knobs off and reduce segments while the
/// failure persists, then report the minimal configuration.
fn shrink(seed: u64, cfg: &GenCfg, err: &str) -> String {
    let mut best = cfg.clone();
    loop {
        let mut candidates = Vec::new();
        if best.segments > 0 {
            let mut c = best.clone();
            c.segments -= 1;
            candidates.push(c);
        }
        for f in [
            |c: &mut GenCfg| c.smem = false,
            |c: &mut GenCfg| c.divergence = false,
            |c: &mut GenCfg| c.loops = false,
        ] {
            let mut c = best.clone();
            f(&mut c);
            if c.smem != best.smem || c.divergence != best.divergence || c.loops != best.loops {
                candidates.push(c);
            }
        }
        if best.block.y > 1 {
            let mut c = best.clone();
            c.block = Dim2::x(best.block.x);
            candidates.push(c);
        }
        if best.block.x > 1 {
            let mut c = best.clone();
            c.block = Dim2::new(best.block.x / 2, best.block.y);
            candidates.push(c);
        }
        let Some(next) = candidates.into_iter().find(|c| check_seed(seed, c).is_err()) else {
            break;
        };
        best = next;
    }
    let final_err = check_seed(seed, &best).err().unwrap_or_else(|| err.to_string());
    format!(
        "dsl property failure: {final_err}\n  reproduce: seed={seed} block={}x{} segments={} \
         smem={} divergence={} loops={}",
        best.block.x, best.block.y, best.segments, best.smem, best.divergence, best.loops
    )
}

#[test]
fn generated_kernels_uphold_program_invariants() {
    for seed in 0..300u64 {
        let cfg = draw_cfg(&mut Gen::new(seed ^ 0xD51C_0000_0000_0001));
        if let Err(e) = check_seed(seed, &cfg) {
            panic!("{}", shrink(seed, &cfg, &e));
        }
    }
}

#[test]
fn knob_extremes_uphold_invariants() {
    // Deliberately stress each knob corner rather than sampling.
    let corners = [
        GenCfg { block: Dim2::x(32), segments: 0, smem: false, divergence: false, loops: false },
        GenCfg { block: Dim2::x(32), segments: 12, smem: true, divergence: false, loops: false },
        GenCfg { block: Dim2::x(256), segments: 12, smem: false, divergence: true, loops: false },
        GenCfg { block: Dim2::x(128), segments: 12, smem: false, divergence: false, loops: true },
        GenCfg { block: Dim2::x(1024), segments: 12, smem: true, divergence: true, loops: true },
        GenCfg { block: Dim2::new(16, 64), segments: 12, smem: true, divergence: true, loops: true },
        GenCfg { block: Dim2::new(10, 3), segments: 12, smem: true, divergence: true, loops: true },
        GenCfg { block: Dim2::x(1), segments: 12, smem: true, divergence: true, loops: true },
    ];
    for (i, cfg) in corners.iter().enumerate() {
        for seed in 0..40u64 {
            let seed = seed + 1000 * i as u64;
            if let Err(e) = check_seed(seed, cfg) {
                panic!("{}", shrink(seed, cfg, &e));
            }
        }
    }
}

#[test]
fn mirror_is_deterministic_across_runs() {
    let cfg = GenCfg::default();
    for seed in [7u64, 99, 12345] {
        let gk = gen_kernel(&mut Gen::new(seed), &cfg);
        let grid = Dim2::x(2);
        let threads = grid.count() * cfg.block.count();
        let run = |kernel: &gpgpu_isa::dsl::DslKernel| {
            let mut mem = MirrorMem::new();
            for t in 0..threads {
                mem.write_u32(4 * t, (t as u32).wrapping_mul(17));
            }
            kernel.mirror(grid, &[0, threads * 4], &mut mem).unwrap();
            mem.read_u32_vec(threads * 4, threads as usize)
        };
        assert_eq!(run(&gk.kernel), run(&gk.kernel), "seed {seed}");
    }
}
