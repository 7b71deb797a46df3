//! Compute-intensive workloads: `fmaheavy` (a Mandelbrot-style FMA
//! iteration) and `kmeansdist` (per-point distance evaluation against
//! shared-memory centroids). These keep every CTA slot productive — the
//! class where LCS must learn *not* to throttle.

use crate::common::{first_mismatch_f32, VerifyError, Workload, WorkloadClass};
use gpgpu_isa::dsl::DslKernel;
use gpgpu_isa::{CmpOp, CmpTy, Dim2, KernelDescriptor, SpecialReg};
use gpgpu_sim::GlobalMem;
use std::sync::Arc;

const BLOCK: u32 = 256;

/// `out[i] = iterate(x[i])` where `iterate` applies `iters` dependent
/// fused multiply-adds (`v = v * 1.000001 + 0.5`). One load and one store
/// per thread amortized over a long ALU chain: firmly compute-bound.
#[derive(Debug)]
pub struct FmaHeavy {
    n: u32,
    iters: u32,
    bufs: Option<(u64, u64)>,
}

impl FmaHeavy {
    /// An FMA-iteration kernel over `n` elements, `iters` FMAs each.
    pub fn new(n: u32, iters: u32) -> Self {
        FmaHeavy {
            n,
            iters,
            bufs: None,
        }
    }
}

const FMA_MUL: f32 = 1.000001;
const FMA_ADD: f32 = 0.5;

impl Workload for FmaHeavy {
    fn name(&self) -> &str {
        "fmaheavy"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::Compute
    }

    fn prepare(&mut self, gmem: &mut GlobalMem) -> KernelDescriptor {
        let bytes = u64::from(self.n) * 4;
        let input = gmem.alloc(bytes);
        let output = gmem.alloc(bytes);
        let xv: Vec<f32> = (0..self.n).map(|i| (i % 31) as f32 * 0.125).collect();
        gmem.write_f32_slice(input, &xv);
        self.bufs = Some((input, output));

        let mut k = DslKernel::new("fmaheavy", Dim2::x(BLOCK));
        let pin = k.param(0);
        let pout = k.param(1);
        let pn = k.param(2);
        let piters = k.param(3);
        let gid = k.global_tid_x();
        let in_range = k.setp(CmpOp::Lt, CmpTy::U64, gid, pn);
        k.if_then(in_range, |k| {
            let off = k.shl(gid, 2u64);
            let ein = k.iadd(pin, off);
            let v = k.ld_global_u32(ein, 0);
            // Dependent FMA loop; the trip count is a parameter so one
            // program serves every intensity.
            k.for_range(0u64, piters, 1u64, |k, _i| {
                k.ffma_to(v, v, FMA_MUL, FMA_ADD);
            });
            let eout = k.iadd(pout, off);
            k.st_global_u32(v, eout, 0);
        });
        let prog = Arc::new(k.compile().expect("fmaheavy is well-formed"));
        KernelDescriptor::builder(prog, Dim2::x(self.n.div_ceil(BLOCK)), Dim2::x(BLOCK))
            .regs_per_thread(20)
            .params([input, output, u64::from(self.n), u64::from(self.iters)])
            .build()
            .expect("valid launch")
    }

    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError> {
        let (input, output) = self.bufs.expect("prepare() ran");
        let xv = gmem.read_f32_vec(input, self.n as usize);
        let got = gmem.read_f32_vec(output, self.n as usize);
        let expect: Vec<f32> = xv
            .iter()
            .map(|&x| {
                let mut v = x;
                for _ in 0..self.iters {
                    v = v.mul_add(FMA_MUL, FMA_ADD);
                }
                v
            })
            .collect();
        match first_mismatch_f32(&expect, &got) {
            None => Ok(()),
            Some((i, e, g)) => Err(VerifyError {
                workload: self.name().into(),
                detail: format!("out[{i}] = {g}, expected {e}"),
            }),
        }
    }
}

/// For each of `n` points (1-D), compute the squared distance to each of
/// `k` centroids (staged in shared memory by the first warp, then
/// broadcast) and write the index of the nearest centroid. A k-means
/// assignment step: compute-heavy with a small shared working set.
#[derive(Debug)]
pub struct KMeansDist {
    n: u32,
    k: u32,
    bufs: Option<(u64, u64, u64)>,
}

impl KMeansDist {
    /// An assignment step over `n` points and `k` centroids.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds 64.
    pub fn new(n: u32, k: u32) -> Self {
        assert!(k >= 1 && k <= 64, "centroid count must be in 1..=64");
        KMeansDist { n, k, bufs: None }
    }
}

impl Workload for KMeansDist {
    fn name(&self) -> &str {
        "kmeansdist"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::Compute
    }

    fn prepare(&mut self, gmem: &mut GlobalMem) -> KernelDescriptor {
        let pts = gmem.alloc(u64::from(self.n) * 4);
        let cents = gmem.alloc(u64::from(self.k) * 4);
        let out = gmem.alloc(u64::from(self.n) * 4);
        let pv: Vec<f32> = (0..self.n).map(|i| (i % 211) as f32 * 0.5).collect();
        let cv: Vec<f32> = (0..self.k).map(|i| i as f32 * 100.0 / self.k as f32).collect();
        gmem.write_f32_slice(pts, &pv);
        gmem.write_f32_slice(cents, &cv);
        self.bufs = Some((pts, cents, out));

        let mut k = DslKernel::new("kmeansdist", Dim2::x(BLOCK));
        let ppts = k.param(0);
        let pcents = k.param(1);
        let pout = k.param(2);
        let pn = k.param(3);
        let pk = k.param(4);
        let tid = k.special(SpecialReg::TidX);
        // Stage centroids in shared memory (threads 0..k cooperate).
        let stage = k.setp(CmpOp::Lt, CmpTy::U64, tid, pk);
        k.with_guard(stage, true, |k| {
            let coff = k.shl(tid, 2u64);
            let ec = k.iadd(pcents, coff);
            let c = k.ld_global_u32(ec, 0);
            k.st_shared_u32(c, coff, 0);
        });
        k.bar();
        let gid = k.global_tid_x();
        let in_range = k.setp(CmpOp::Lt, CmpTy::U64, gid, pn);
        k.if_then(in_range, |k| {
            let poff = k.shl(gid, 2u64);
            let ep = k.iadd(ppts, poff);
            let p = k.ld_global_u32(ep, 0);
            let best_d = k.movi(f32::MAX);
            let best_i = k.movi(0u64);
            k.for_range(0u64, pk, 1u64, |k, ci| {
                let coff = k.shl(ci, 2u64);
                let c = k.ld_shared_u32(coff, 0);
                let diff = k.alu(gpgpu_isa::AluOp::FSub, p, c);
                let d2 = k.fmul(diff, diff);
                let closer = k.setp(CmpOp::Lt, CmpTy::F32, d2, best_d);
                k.with_guard(closer, true, |k| {
                    k.mov_to(best_d, d2);
                    k.mov_to(best_i, ci);
                });
            });
            let eo = k.iadd(pout, poff);
            k.st_global_u32(best_i, eo, 0);
        });
        let prog = Arc::new(k.compile().expect("kmeansdist is well-formed"));
        KernelDescriptor::builder(prog, Dim2::x(self.n.div_ceil(BLOCK)), Dim2::x(BLOCK))
            .regs_per_thread(24)
            .smem_per_cta(self.k * 4)
            .params([pts, cents, out, u64::from(self.n), u64::from(self.k)])
            .build()
            .expect("valid launch")
    }

    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError> {
        let (pts, cents, out) = self.bufs.expect("prepare() ran");
        let pv = gmem.read_f32_vec(pts, self.n as usize);
        let cv = gmem.read_f32_vec(cents, self.k as usize);
        let got = gmem.read_u32_vec(out, self.n as usize);
        for (i, p) in pv.iter().enumerate() {
            let mut best = (f32::MAX, 0u32);
            for (ci, c) in cv.iter().enumerate() {
                let d2 = (p - c) * (p - c);
                if d2 < best.0 {
                    best = (d2, ci as u32);
                }
            }
            if got[i] != best.1 {
                return Err(VerifyError {
                    workload: self.name().into(),
                    detail: format!("assignment[{i}] = {}, expected {}", got[i], best.1),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(FmaHeavy::new(1024, 64).class(), WorkloadClass::Compute);
        assert_eq!(KMeansDist::new(1024, 16).class(), WorkloadClass::Compute);
    }

    #[test]
    #[should_panic(expected = "centroid")]
    fn kmeans_k_bounds() {
        let _ = KMeansDist::new(10, 0);
    }
}
