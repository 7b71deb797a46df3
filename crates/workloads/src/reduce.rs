//! Reduction workloads: a shared-memory tree sum (`reduction`) and a
//! dot product (`dot`). Barrier-heavy with a streaming front end — the
//! pattern where warp-level progress imbalance inside a CTA matters.

use crate::common::{first_mismatch_u32, f32_close, VerifyError, Workload, WorkloadClass};
use gpgpu_isa::dsl::{DslKernel, Val};
use gpgpu_isa::{AluOp, CmpOp, CmpTy, Dim2, KernelDescriptor, SpecialReg};
use gpgpu_sim::GlobalMem;
use std::sync::Arc;

const BLOCK: u32 = 256;

/// Emits the shared-memory tree reduction over `BLOCK` staged values, of
/// which thread 0 ends holding the total at shared address 0. `saddr` must
/// hold `tid * 4`. `op` combines values (IAdd for exact sums, FAdd for
/// dot products).
fn emit_tree_reduce(k: &mut DslKernel, tid: Val, saddr: Val, op: AluOp) {
    let v1 = k.declare();
    let v2 = k.declare();
    let acc = k.declare();
    let active = k.declare_pred();
    let mut s = BLOCK / 2;
    while s >= 1 {
        k.bar();
        k.setp_to(active, CmpOp::Lt, CmpTy::U64, tid, u64::from(s));
        k.with_guard(active, true, |k| {
            k.ld_shared_u32_to(v1, saddr, 0);
            k.ld_shared_u32_to(v2, saddr, i64::from(s) * 4);
            k.alu_to(op, acc, v1, v2);
            k.st_shared_u32(acc, saddr, 0);
        });
        s /= 2;
    }
    k.bar();
}

/// Per-CTA exact `u32` sum: each thread loads two elements, stages their
/// sum in shared memory, and a barrier-synchronized tree produces
/// `out[cta]`.
#[derive(Debug)]
pub struct Reduction {
    n: u32,
    bufs: Option<(u64, u64)>,
}

impl Reduction {
    /// A reduction over `n` elements (rounded to CTA coverage of
    /// `2 * BLOCK` elements each).
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of 512.
    pub fn new(n: u32) -> Self {
        assert!(n >= 512 && n % 512 == 0, "n must be a multiple of 512");
        Reduction { n, bufs: None }
    }

    fn ctas(&self) -> u32 {
        self.n / (2 * BLOCK)
    }
}

impl Workload for Reduction {
    fn name(&self) -> &str {
        "reduction"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::Memory
    }

    fn prepare(&mut self, gmem: &mut GlobalMem) -> KernelDescriptor {
        let n = self.n;
        let input = gmem.alloc(u64::from(n) * 4);
        let out = gmem.alloc(u64::from(self.ctas()) * 4);
        let iv: Vec<u32> = (0..n).map(|i| i % 1000).collect();
        gmem.write_u32_slice(input, &iv);
        self.bufs = Some((input, out));

        let mut k = DslKernel::new("reduction", Dim2::x(BLOCK));
        let pin = k.param(0);
        let pout = k.param(1);
        let tid = k.special(SpecialReg::TidX);
        let cta = k.special(SpecialReg::CtaLinear);
        // Each CTA covers 512 elements: load in[base + tid] and
        // in[base + tid + 256].
        let base = k.imul(cta, u64::from(2 * BLOCK));
        let i0 = k.iadd(base, tid);
        let off0 = k.shl(i0, 2u64);
        let e0 = k.iadd(pin, off0);
        let a = k.ld_global_u32(e0, 0);
        let b = k.ld_global_u32(e0, i64::from(BLOCK) * 4);
        let sum = k.iadd(a, b);
        let saddr = k.shl(tid, 2u64);
        k.st_shared_u32(sum, saddr, 0);
        emit_tree_reduce(&mut k, tid, saddr, AluOp::IAdd);
        // Thread 0 writes the CTA partial.
        let is0 = k.setp(CmpOp::Eq, CmpTy::U64, tid, 0u64);
        k.with_guard(is0, true, |k| {
            let total = k.ld_shared_u32(saddr, 0);
            let coff = k.shl(cta, 2u64);
            let eo = k.iadd(pout, coff);
            k.st_global_u32(total, eo, 0);
        });
        let prog = Arc::new(k.compile().expect("reduction is well-formed"));
        KernelDescriptor::builder(prog, Dim2::x(self.ctas()), Dim2::x(BLOCK))
            .smem_per_cta(BLOCK * 4)
            .params([input, out])
            .build()
            .expect("valid launch")
    }

    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError> {
        let (input, out) = self.bufs.expect("prepare() ran");
        let iv = gmem.read_u32_vec(input, self.n as usize);
        let ov = gmem.read_u32_vec(out, self.ctas() as usize);
        let expect: Vec<u32> = iv
            .chunks(512)
            .map(|c| c.iter().fold(0u32, |a, &x| a.wrapping_add(x)))
            .collect();
        match first_mismatch_u32(&expect, &ov) {
            None => Ok(()),
            Some((i, e, g)) => Err(VerifyError {
                workload: self.name().into(),
                detail: format!("partial[{i}] = {g}, expected {e}"),
            }),
        }
    }
}

/// Per-CTA `f32` dot-product partials: `out[cta] = sum a[i] * b[i]` over
/// the CTA's 256-element slice, tree-reduced in shared memory.
#[derive(Debug)]
pub struct DotProduct {
    n: u32,
    bufs: Option<(u64, u64, u64)>,
}

impl DotProduct {
    /// A dot product over `n` elements.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of 256.
    pub fn new(n: u32) -> Self {
        assert!(n >= 256 && n % 256 == 0, "n must be a multiple of 256");
        DotProduct { n, bufs: None }
    }

    fn ctas(&self) -> u32 {
        self.n / BLOCK
    }

    /// Host-side replica of the device tree (f32 order matters).
    fn tree_expect(products: &[f32]) -> f32 {
        let mut v = products.to_vec();
        let mut s = v.len() / 2;
        while s >= 1 {
            for i in 0..s {
                v[i] += v[i + s];
            }
            s /= 2;
        }
        v[0]
    }
}

impl Workload for DotProduct {
    fn name(&self) -> &str {
        "dot"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::Memory
    }

    fn prepare(&mut self, gmem: &mut GlobalMem) -> KernelDescriptor {
        let n = self.n;
        let a = gmem.alloc(u64::from(n) * 4);
        let b = gmem.alloc(u64::from(n) * 4);
        let out = gmem.alloc(u64::from(self.ctas()) * 4);
        let av: Vec<f32> = (0..n).map(|i| ((i % 29) as f32) * 0.125).collect();
        let bv: Vec<f32> = (0..n).map(|i| ((i % 31) as f32) * 0.0625).collect();
        gmem.write_f32_slice(a, &av);
        gmem.write_f32_slice(b, &bv);
        self.bufs = Some((a, b, out));

        let mut k = DslKernel::new("dot", Dim2::x(BLOCK));
        let pa = k.param(0);
        let pb = k.param(1);
        let pout = k.param(2);
        let tid = k.special(SpecialReg::TidX);
        let cta = k.special(SpecialReg::CtaLinear);
        let gid = k.imad(cta, u64::from(BLOCK), tid);
        let goff = k.shl(gid, 2u64);
        let ea = k.iadd(pa, goff);
        let eb = k.iadd(pb, goff);
        let va = k.ld_global_u32(ea, 0);
        let vb = k.ld_global_u32(eb, 0);
        let prod = k.fmul(va, vb);
        let saddr = k.shl(tid, 2u64);
        k.st_shared_u32(prod, saddr, 0);
        emit_tree_reduce(&mut k, tid, saddr, AluOp::FAdd);
        let is0 = k.setp(CmpOp::Eq, CmpTy::U64, tid, 0u64);
        k.with_guard(is0, true, |k| {
            let total = k.ld_shared_u32(saddr, 0);
            let coff = k.shl(cta, 2u64);
            let eo = k.iadd(pout, coff);
            k.st_global_u32(total, eo, 0);
        });
        let prog = Arc::new(k.compile().expect("dot is well-formed"));
        KernelDescriptor::builder(prog, Dim2::x(self.ctas()), Dim2::x(BLOCK))
            .smem_per_cta(BLOCK * 4)
            .params([a, b, out])
            .build()
            .expect("valid launch")
    }

    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError> {
        let (a, b, out) = self.bufs.expect("prepare() ran");
        let av = gmem.read_f32_vec(a, self.n as usize);
        let bv = gmem.read_f32_vec(b, self.n as usize);
        let ov = gmem.read_f32_vec(out, self.ctas() as usize);
        for (c, got) in ov.iter().enumerate() {
            let base = c * BLOCK as usize;
            let products: Vec<f32> = (0..BLOCK as usize)
                .map(|t| av[base + t] * bv[base + t])
                .collect();
            let expect = Self::tree_expect(&products);
            if !f32_close(expect, *got) {
                return Err(VerifyError {
                    workload: self.name().into(),
                    detail: format!("partial[{c}] = {got}, expected {expect}"),
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
        assert_eq!(Reduction::new(512).class(), WorkloadClass::Memory);
        assert_eq!(DotProduct::new(256).class(), WorkloadClass::Memory);
        assert_eq!(Reduction::new(1024).ctas(), 2);
        assert_eq!(DotProduct::new(1024).ctas(), 4);
    }

    #[test]
    #[should_panic(expected = "512")]
    fn reduction_size_checked() {
        let _ = Reduction::new(100);
    }

    #[test]
    fn tree_expect_matches_sequential_for_exact_values() {
        // Powers of two are exact in f32: tree == sequential.
        let v: Vec<f32> = (0..256).map(|i| (i % 8) as f32).collect();
        let tree = DotProduct::tree_expect(&v);
        let seq: f32 = v.iter().sum();
        assert_eq!(tree, seq);
    }
}
