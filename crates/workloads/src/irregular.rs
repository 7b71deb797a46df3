//! Irregular-access workloads: ELLPACK sparse matrix-vector multiply
//! (`spmv-ell`) and a BFS-style random gather (`gather`). Divergent,
//! poorly-coalesced loads that thrash L1 MSHRs — the paper's prime
//! memory-/cache-bound throttling candidates.

use crate::common::{
    first_mismatch_f32, first_mismatch_u32, SplitMix64, VerifyError, Workload, WorkloadClass,
};
use gpgpu_isa::dsl::DslKernel;
use gpgpu_isa::{AluOp, CmpOp, CmpTy, Dim2, KernelDescriptor};
use gpgpu_sim::GlobalMem;
use std::sync::Arc;

const BLOCK: u32 = 256;

/// `y = A*x` for a *banded* ELLPACK matrix with `rows` rows and `k`
/// nonzeros per row: column indices are drawn randomly within `band`
/// columns of the row's diagonal (seeded). Values/indices are laid out
/// column-major (`idx = slot * rows + row`) so the structure loads
/// coalesce; the `x[col]` gathers do not.
///
/// The band makes each CTA's `x` working set a few KiB that is reused
/// across all `k` slots — so the combined working set of the *resident
/// CTAs* decides whether the L1 holds it. This is the canonical
/// cache-sensitive case: a handful of CTAs fit, the hardware maximum
/// thrashes.
#[derive(Debug)]
pub struct SpmvEll {
    rows: u32,
    k: u32,
    band: u32,
    bufs: Option<(u64, u64, u64, u64)>,
}

impl SpmvEll {
    /// A banded SpMV with `rows` rows, `k` nonzeros each, and the default
    /// band of 3072 columns (a ~13 KiB per-CTA working set: one resident
    /// CTA fits the L1; a full complement of resident CTAs overflows both
    /// the L1 and its share of the L2).
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `k` is zero.
    pub fn new(rows: u32, k: u32) -> Self {
        Self::with_band(rows, k, 3072)
    }

    /// A banded SpMV with an explicit band width (in columns).
    ///
    /// # Panics
    ///
    /// Panics if `rows`, `k`, or `band` is zero.
    pub fn with_band(rows: u32, k: u32, band: u32) -> Self {
        assert!(rows >= 1 && k >= 1 && band >= 1);
        SpmvEll {
            rows,
            k,
            band,
            bufs: None,
        }
    }
}

impl Workload for SpmvEll {
    fn name(&self) -> &str {
        "spmv-ell"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::Cache
    }

    fn prepare(&mut self, gmem: &mut GlobalMem) -> KernelDescriptor {
        let (rows, kk) = (self.rows, self.k);
        let nnz = u64::from(rows) * u64::from(kk);
        let vals = gmem.alloc(nnz * 4);
        let cols = gmem.alloc(nnz * 4);
        let x = gmem.alloc(u64::from(rows) * 4);
        let y = gmem.alloc(u64::from(rows) * 4);
        let mut rng = SplitMix64::new(0x5e11);
        let vv: Vec<f32> = (0..nnz).map(|i| ((i % 19) as f32 + 1.0) * 0.125).collect();
        let band = u64::from(self.band);
        // Column-major: element i belongs to row (i % rows).
        let cv: Vec<u32> = (0..nnz)
            .map(|i| {
                let row = i % u64::from(rows);
                let lo = row.saturating_sub(band / 2);
                let hi = (lo + band).min(u64::from(rows));
                rng.range_u64(lo, hi) as u32
            })
            .collect();
        let xv: Vec<f32> = (0..rows).map(|i| ((i % 23) as f32) * 0.25).collect();
        gmem.write_f32_slice(vals, &vv);
        gmem.write_u32_slice(cols, &cv);
        gmem.write_f32_slice(x, &xv);
        self.bufs = Some((vals, cols, x, y));

        let mut k = DslKernel::new("spmv-ell", Dim2::x(BLOCK));
        let pvals = k.param(0);
        let pcols = k.param(1);
        let px = k.param(2);
        let py = k.param(3);
        let prows = k.param(4);
        let pk = k.param(5);
        let row = k.global_tid_x();
        let in_range = k.setp(CmpOp::Lt, CmpTy::U64, row, prows);
        k.if_then(in_range, |k| {
            let acc = k.movi(0.0f32);
            let v = k.declare();
            let c = k.declare();
            let xv = k.declare();
            // Column-major ELL: element (slot, row) at slot*rows + row.
            let e = k.declare(); // byte offset of (slot, row)
            let row4 = k.shl(row, 2u64);
            k.mov_to(e, row4);
            let stride = k.shl(prows, 2u64);
            k.for_range(0u64, pk, 1u64, |k, _slot| {
                let ev = k.iadd(pvals, e);
                k.ld_global_u32_to(v, ev, 0);
                let ec = k.iadd(pcols, e);
                k.ld_global_u32_to(c, ec, 0);
                let coff = k.shl(c, 2u64);
                let ex = k.iadd(px, coff);
                k.ld_global_u32_to(xv, ex, 0);
                k.alu3_to(AluOp::FFma, acc, v, xv, acc);
                k.alu_to(AluOp::IAdd, e, e, stride);
            });
            let ey = k.iadd(py, row4);
            k.st_global_u32(acc, ey, 0);
        });
        let prog = Arc::new(k.compile().expect("spmv-ell is well-formed"));
        KernelDescriptor::builder(prog, Dim2::x(rows.div_ceil(BLOCK)), Dim2::x(BLOCK))
            .params([vals, cols, x, y, u64::from(rows), u64::from(kk)])
            .build()
            .expect("valid launch")
    }

    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError> {
        let (vals, cols, x, y) = self.bufs.expect("prepare() ran");
        let (rows, kk) = (self.rows as usize, self.k as usize);
        let vv = gmem.read_f32_vec(vals, rows * kk);
        let cv = gmem.read_u32_vec(cols, rows * kk);
        let xv = gmem.read_f32_vec(x, rows);
        let yv = gmem.read_f32_vec(y, rows);
        let expect: Vec<f32> = (0..rows)
            .map(|r| {
                let mut acc = 0.0f32;
                for s in 0..kk {
                    let i = s * rows + r;
                    acc = vv[i].mul_add(xv[cv[i] as usize], acc);
                }
                acc
            })
            .collect();
        match first_mismatch_f32(&expect, &yv) {
            None => Ok(()),
            Some((i, e, g)) => Err(VerifyError {
                workload: self.name().into(),
                detail: format!("y[{i}] = {g}, expected {e}"),
            }),
        }
    }
}

/// `out[i] = sum_{j<d} data[idx[i*d + j]]` with random indices — a
/// BFS-frontier-style neighbour gather: every lane chases a different
/// pointer, so each warp load shatters into many line transactions.
#[derive(Debug)]
pub struct RandomGather {
    n: u32,
    d: u32,
    bufs: Option<(u64, u64, u64)>,
}

impl RandomGather {
    /// A gather over `n` outputs, `d` random reads each.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `d` is zero.
    pub fn new(n: u32, d: u32) -> Self {
        assert!(n >= 1 && d >= 1);
        RandomGather { n, d, bufs: None }
    }
}

impl Workload for RandomGather {
    fn name(&self) -> &str {
        "gather"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::Memory
    }

    fn prepare(&mut self, gmem: &mut GlobalMem) -> KernelDescriptor {
        let (n, d) = (self.n, self.d);
        let data = gmem.alloc(u64::from(n) * 4);
        let idx = gmem.alloc(u64::from(n) * u64::from(d) * 4);
        let out = gmem.alloc(u64::from(n) * 4);
        let mut rng = SplitMix64::new(0x6a74_4e52);
        let dv: Vec<u32> = (0..n).map(|i| i.wrapping_mul(2654435761)).collect();
        let iv: Vec<u32> = (0..n * d)
            .map(|_| rng.range_u64(0, u64::from(n)) as u32)
            .collect();
        gmem.write_u32_slice(data, &dv);
        gmem.write_u32_slice(idx, &iv);
        self.bufs = Some((data, idx, out));

        let mut k = DslKernel::new("gather", Dim2::x(BLOCK));
        let pdata = k.param(0);
        let pidx = k.param(1);
        let pout = k.param(2);
        let pn = k.param(3);
        let pd = k.param(4);
        let gid = k.global_tid_x();
        let in_range = k.setp(CmpOp::Lt, CmpTy::U64, gid, pn);
        k.if_then(in_range, |k| {
            let acc = k.movi(0u64);
            let base = k.imul(gid, pd);
            let e = k.declare();
            let b4 = k.shl(base, 2u64);
            k.mov_to(e, b4);
            let j = k.declare();
            let val = k.declare();
            k.for_range(0u64, pd, 1u64, |k, _jj| {
                let ei = k.iadd(pidx, e);
                k.ld_global_u32_to(j, ei, 0);
                let joff = k.shl(j, 2u64);
                let ed = k.iadd(pdata, joff);
                k.ld_global_u32_to(val, ed, 0);
                k.alu_to(AluOp::IAdd, acc, acc, val);
                k.alu_to(AluOp::IAdd, e, e, 4u64);
            });
            let goff = k.shl(gid, 2u64);
            let eo = k.iadd(pout, goff);
            k.st_global_u32(acc, eo, 0);
        });
        let prog = Arc::new(k.compile().expect("gather is well-formed"));
        KernelDescriptor::builder(prog, Dim2::x(n.div_ceil(BLOCK)), Dim2::x(BLOCK))
            .params([data, idx, out, u64::from(n), u64::from(d)])
            .build()
            .expect("valid launch")
    }

    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError> {
        let (data, idx, out) = self.bufs.expect("prepare() ran");
        let (n, d) = (self.n as usize, self.d as usize);
        let dv = gmem.read_u32_vec(data, n);
        let iv = gmem.read_u32_vec(idx, n * d);
        let ov = gmem.read_u32_vec(out, n);
        let expect: Vec<u32> = (0..n)
            .map(|i| {
                (0..d).fold(0u32, |acc, j| {
                    acc.wrapping_add(dv[iv[i * d + j] as usize])
                })
            })
            .collect();
        match first_mismatch_u32(&expect, &ov) {
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
        assert_eq!(SpmvEll::new(1024, 8).class(), WorkloadClass::Cache);
        assert_eq!(RandomGather::new(1024, 4).class(), WorkloadClass::Memory);
    }

    #[test]
    fn seeded_inputs_are_reproducible() {
        let mut g1 = GlobalMem::new();
        let mut g2 = GlobalMem::new();
        let d1 = SpmvEll::new(512, 4).prepare(&mut g1);
        let d2 = SpmvEll::new(512, 4).prepare(&mut g2);
        assert_eq!(d1.params()[4], d2.params()[4]);
        // Same seed => same column indices.
        let c1 = g1.read_u32_vec(d1.params()[1], 16);
        let c2 = g2.read_u32_vec(d2.params()[1], 16);
        assert_eq!(c1, c2);
    }
}
