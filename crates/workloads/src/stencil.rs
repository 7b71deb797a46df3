//! Stencil workloads: a 5-point Jacobi step (`stencil2d`) and a
//! hotspot-style thermal update (`hotspot`).
//!
//! Both use one CTA per 4 KiB row (256 threads × 4 columns), so
//! *consecutive* CTAs work on *adjacent* rows and share their halo lines —
//! the inter-CTA locality BCS + BAWS is designed to exploit (the baseline
//! scatters adjacent rows across cores, pushing that reuse out to the L2).

use crate::common::{first_mismatch_f32, VerifyError, Workload, WorkloadClass};
use gpgpu_isa::dsl::{DslKernel, PredVal, Val};
use gpgpu_isa::{AluOp, CmpOp, CmpTy, Dim2, KernelDescriptor, PBoolOp, SpecialReg};
use gpgpu_sim::GlobalMem;
use std::sync::Arc;

/// Row width in elements — one CTA covers one row.
pub const STENCIL_WIDTH: u32 = 1024;
/// Threads per stencil CTA (each handles `STENCIL_WIDTH / STENCIL_BLOCK`
/// columns).
const STENCIL_BLOCK: u32 = 256;
const COLS_PER_THREAD: u32 = STENCIL_WIDTH / STENCIL_BLOCK;

fn grid_data(w: u32, h: u32) -> Vec<f32> {
    (0..w * h)
        .map(|i| ((i % 37) as f32 - 18.0) * 0.25)
        .collect()
}

/// Registers/predicates shared by the unrolled per-column bodies.
struct StencilRegs {
    y_in: PredVal,
    interior: PredVal,
    scratch_p: [PredVal; 2],
    off: Val,
    ec: Val,
    c: Val,
    v: [Val; 4],
    result: Val,
}

/// Emits the common stencil prologue: `y` bounds check and shared scratch
/// registers. `x = tid + j*BLOCK` per unrolled step.
fn stencil_prologue(k: &mut DslKernel, ph: Val) -> (Val, Val, StencilRegs) {
    let tid = k.special(SpecialReg::TidX);
    let y = k.special(SpecialReg::CtaLinear); // one CTA per row
    let y_lo = k.setp(CmpOp::Gt, CmpTy::U64, y, 0u64);
    let h_m1 = k.isub(ph, 1u64);
    let y_hi = k.setp(CmpOp::Lt, CmpTy::U64, y, h_m1);
    let y_in = k.pbool(PBoolOp::And, y_lo, y_hi);
    let regs = StencilRegs {
        y_in,
        interior: k.declare_pred(),
        scratch_p: [k.declare_pred(), k.declare_pred()],
        off: k.declare(),
        ec: k.declare(),
        c: k.declare(),
        v: [k.declare(), k.declare(), k.declare(), k.declare()],
        result: k.declare(),
    };
    (tid, y, regs)
}

/// Computes, for unrolled column step `j`, the per-lane element offset
/// (`off = (y*W + tid + j*BLOCK) * 4`) and the `interior` predicate.
fn stencil_column(k: &mut DslKernel, tid: Val, y: Val, j: u32, r: &StencilRegs) {
    let x_const = u64::from(j * STENCIL_BLOCK);
    // off = (y*W + tid + j*BLOCK) * 4
    let idx = k.imad(y, u64::from(STENCIL_WIDTH), tid);
    k.alu_to(AluOp::IAdd, r.off, idx, x_const);
    // interior_x: x > 0 and x < W-1 (x = tid + j*BLOCK).
    let x = k.iadd(tid, x_const);
    k.setp_to(r.scratch_p[0], CmpOp::Gt, CmpTy::U64, x, 0u64);
    k.setp_to(
        r.scratch_p[1],
        CmpOp::Lt,
        CmpTy::U64,
        x,
        u64::from(STENCIL_WIDTH - 1),
    );
    k.pbool_to(r.interior, PBoolOp::And, r.scratch_p[0], r.scratch_p[1]);
    k.pbool_to(r.interior, PBoolOp::And, r.interior, r.y_in);
    k.alu_to(AluOp::Shl, r.off, r.off, 2u64);
}

/// One Jacobi step: `out[y][x] = 0.2 * (c + n + s + w + e)` in the
/// interior; boundary cells copy through.
#[derive(Debug)]
pub struct Stencil2d {
    h: u32,
    bufs: Option<(u64, u64)>,
}

impl Stencil2d {
    /// A stencil over a `STENCIL_WIDTH`×`h` grid.
    ///
    /// # Panics
    ///
    /// Panics if `h < 3`.
    pub fn new(h: u32) -> Self {
        assert!(h >= 3, "need at least 3 rows");
        Stencil2d { h, bufs: None }
    }
}

impl Workload for Stencil2d {
    fn name(&self) -> &str {
        "stencil2d"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::Cache
    }

    fn prepare(&mut self, gmem: &mut GlobalMem) -> KernelDescriptor {
        let (w, h) = (STENCIL_WIDTH, self.h);
        let bytes = u64::from(w) * u64::from(h) * 4;
        let src = gmem.alloc(bytes);
        let dst = gmem.alloc(bytes);
        gmem.write_f32_slice(src, &grid_data(w, h));
        self.bufs = Some((src, dst));

        let row_bytes = i64::from(w) * 4;
        let mut k = DslKernel::new("stencil2d", Dim2::x(STENCIL_BLOCK));
        let psrc = k.param(0);
        let pdst = k.param(1);
        let ph = k.param(2);
        let (tid, y, r) = stencil_prologue(&mut k, ph);
        for j in 0..COLS_PER_THREAD {
            stencil_column(&mut k, tid, y, j, &r);
            k.alu_to(AluOp::IAdd, r.ec, psrc, r.off);
            k.ld_global_u32_to(r.c, r.ec, 0);
            k.mov_to(r.result, r.c); // boundary default: copy through
            k.with_guard(r.interior, true, |k| {
                k.ld_global_u32_to(r.v[0], r.ec, -row_bytes); // north
                k.ld_global_u32_to(r.v[1], r.ec, row_bytes); // south
                k.ld_global_u32_to(r.v[2], r.ec, -4); // west
                k.ld_global_u32_to(r.v[3], r.ec, 4); // east
                k.alu_to(AluOp::FAdd, r.result, r.c, r.v[0]);
                k.alu_to(AluOp::FAdd, r.result, r.result, r.v[1]);
                k.alu_to(AluOp::FAdd, r.result, r.result, r.v[2]);
                k.alu_to(AluOp::FAdd, r.result, r.result, r.v[3]);
                k.alu_to(AluOp::FMul, r.result, r.result, 0.2f32);
            });
            k.alu_to(AluOp::IAdd, r.ec, pdst, r.off);
            k.st_global_u32(r.result, r.ec, 0);
        }
        let prog = Arc::new(k.compile().expect("stencil2d is well-formed"));
        KernelDescriptor::builder(prog, Dim2::new(1, h), Dim2::x(STENCIL_BLOCK))
            .params([src, dst, u64::from(h)])
            .build()
            .expect("valid launch")
    }

    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError> {
        let (src, dst) = self.bufs.expect("prepare() ran");
        let (w, h) = (STENCIL_WIDTH as usize, self.h as usize);
        let sv = gmem.read_f32_vec(src, w * h);
        let dv = gmem.read_f32_vec(dst, w * h);
        let mut expect = sv.clone();
        for y in 1..h - 1 {
            for x in 1..w - 1 {
                let sum = sv[y * w + x]
                    + sv[(y - 1) * w + x]
                    + sv[(y + 1) * w + x]
                    + sv[y * w + x - 1]
                    + sv[y * w + x + 1];
                expect[y * w + x] = sum * 0.2;
            }
        }
        match first_mismatch_f32(&expect, &dv) {
            None => Ok(()),
            Some((i, e, g)) => Err(VerifyError {
                workload: self.name().into(),
                detail: format!("out[{i}] = {g}, expected {e}"),
            }),
        }
    }
}

/// A hotspot-style thermal step: the 5-point neighbourhood plus a power
/// term and several extra FLOPs per point. Same inter-CTA row locality as
/// [`Stencil2d`], with a higher compute-to-memory ratio.
#[derive(Debug)]
pub struct Hotspot {
    h: u32,
    bufs: Option<(u64, u64, u64)>,
}

impl Hotspot {
    /// A hotspot step over a `STENCIL_WIDTH`×`h` grid.
    ///
    /// # Panics
    ///
    /// Panics if `h < 3`.
    pub fn new(h: u32) -> Self {
        assert!(h >= 3, "need at least 3 rows");
        Hotspot { h, bufs: None }
    }
}

const HS_CAP: f32 = 0.5;
const HS_RX: f32 = 0.125;
const HS_RY: f32 = 0.0625;

impl Workload for Hotspot {
    fn name(&self) -> &str {
        "hotspot"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::Cache
    }

    fn prepare(&mut self, gmem: &mut GlobalMem) -> KernelDescriptor {
        let (w, h) = (STENCIL_WIDTH, self.h);
        let bytes = u64::from(w) * u64::from(h) * 4;
        let temp = gmem.alloc(bytes);
        let power = gmem.alloc(bytes);
        let out = gmem.alloc(bytes);
        gmem.write_f32_slice(temp, &grid_data(w, h));
        gmem.write_f32_slice(
            power,
            &(0..w * h).map(|i| (i % 17) as f32 * 0.01).collect::<Vec<_>>(),
        );
        self.bufs = Some((temp, power, out));

        let row_bytes = i64::from(w) * 4;
        let mut k = DslKernel::new("hotspot", Dim2::x(STENCIL_BLOCK));
        let ptemp = k.param(0);
        let ppower = k.param(1);
        let pout = k.param(2);
        let ph = k.param(3);
        let (tid, y, r) = stencil_prologue(&mut k, ph);
        let scratch = k.declare();
        for j in 0..COLS_PER_THREAD {
            stencil_column(&mut k, tid, y, j, &r);
            k.alu_to(AluOp::IAdd, r.ec, ptemp, r.off);
            k.ld_global_u32_to(r.c, r.ec, 0);
            k.mov_to(r.result, r.c);
            k.with_guard(r.interior, true, |k| {
                k.ld_global_u32_to(r.v[0], r.ec, -row_bytes); // north
                k.ld_global_u32_to(r.v[1], r.ec, row_bytes); // south
                k.ld_global_u32_to(r.v[2], r.ec, -4); // west
                k.ld_global_u32_to(r.v[3], r.ec, 4); // east
                // scratch = 2c; ns_d in v0; ew_d in v2.
                k.alu_to(AluOp::FMul, scratch, r.c, 2.0f32);
                k.alu_to(AluOp::FAdd, r.v[0], r.v[0], r.v[1]);
                k.alu_to(AluOp::FSub, r.v[0], r.v[0], scratch);
                k.alu_to(AluOp::FAdd, r.v[2], r.v[2], r.v[3]);
                k.alu_to(AluOp::FSub, r.v[2], r.v[2], scratch);
                // p into v1.
                k.alu_to(AluOp::IAdd, r.ec, ppower, r.off);
                k.ld_global_u32_to(r.v[1], r.ec, 0);
                // acc = ns_d*ry + p; acc = ew_d*rx + acc; result = acc*cap + c
                k.alu3_to(AluOp::FFma, r.v[0], r.v[0], HS_RY, r.v[1]);
                k.alu3_to(AluOp::FFma, r.v[0], r.v[2], HS_RX, r.v[0]);
                k.alu3_to(AluOp::FFma, r.result, r.v[0], HS_CAP, r.c);
            });
            k.alu_to(AluOp::IAdd, r.ec, pout, r.off);
            k.st_global_u32(r.result, r.ec, 0);
        }
        let prog = Arc::new(k.compile().expect("hotspot is well-formed"));
        KernelDescriptor::builder(prog, Dim2::new(1, h), Dim2::x(STENCIL_BLOCK))
            .params([temp, power, out, u64::from(h)])
            .build()
            .expect("valid launch")
    }

    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError> {
        let (temp, power, out) = self.bufs.expect("prepare() ran");
        let (w, h) = (STENCIL_WIDTH as usize, self.h as usize);
        let tv = gmem.read_f32_vec(temp, w * h);
        let pv = gmem.read_f32_vec(power, w * h);
        let ov = gmem.read_f32_vec(out, w * h);
        let mut expect = tv.clone();
        for y in 1..h - 1 {
            for x in 1..w - 1 {
                let c = tv[y * w + x];
                let ns_d = tv[(y - 1) * w + x] + tv[(y + 1) * w + x] - 2.0 * c;
                let ew_d = tv[y * w + x - 1] + tv[y * w + x + 1] - 2.0 * c;
                let acc = ns_d.mul_add(HS_RY, pv[y * w + x]);
                let acc2 = ew_d.mul_add(HS_RX, acc);
                expect[y * w + x] = acc2.mul_add(HS_CAP, c);
            }
        }
        match first_mismatch_f32(&expect, &ov) {
            None => Ok(()),
            Some((i, e, g)) => Err(VerifyError {
                workload: self.name().into(),
                detail: format!("out[{i}] = {g}, expected {e}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Stencil2d::new(8).class(), WorkloadClass::Cache);
        assert_eq!(Hotspot::new(8).class(), WorkloadClass::Cache);
    }

    #[test]
    fn one_cta_per_row() {
        let mut g = GlobalMem::new();
        let mut w = Stencil2d::new(16);
        let d = w.prepare(&mut g);
        assert_eq!(d.cta_count(), 16);
        assert_eq!(d.threads_per_cta(), STENCIL_BLOCK);
    }

    #[test]
    #[should_panic(expected = "3 rows")]
    fn too_small_rejected() {
        let _ = Stencil2d::new(2);
    }
}
