//! Dense-matrix workloads: shared-memory-tiled matrix multiply
//! (`matmul-tiled`), the cache-sensitive untiled variant
//! (`matmul-naive`), and a naive matrix transpose (`transpose`).
//!
//! `matmul-naive` is a canonical LCS winner: each resident CTA streams
//! matrix rows through the L1, so beyond a few CTAs the working sets evict
//! each other and adding occupancy *hurts*.

use crate::common::{first_mismatch_f32, VerifyError, Workload, WorkloadClass};
use gpgpu_isa::dsl::DslKernel;
use gpgpu_isa::{AluOp, Dim2, KernelDescriptor, SpecialReg};
use gpgpu_sim::GlobalMem;
use std::sync::Arc;

/// Tile edge for the tiled multiply (16×16 threads = 256 per CTA).
const TILE: u32 = 16;

fn matrix(n: u32, f: impl Fn(u32, u32) -> f32) -> Vec<f32> {
    (0..n * n).map(|i| f(i / n, i % n)).collect()
}

/// C = A×B with `TILE`×`TILE` shared-memory tiles, barriers between tile
/// phases, and an unrolled inner product. The classic GPGPU kernel:
/// compute-heavy with high shared-memory traffic.
#[derive(Debug)]
pub struct MatMulTiled {
    n: u32,
    bufs: Option<(u64, u64, u64)>,
}

impl MatMulTiled {
    /// A tiled multiply of `n`×`n` matrices.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of 16.
    pub fn new(n: u32) -> Self {
        assert!(n >= TILE && n % TILE == 0, "n must be a multiple of 16");
        MatMulTiled { n, bufs: None }
    }
}

impl Workload for MatMulTiled {
    fn name(&self) -> &str {
        "matmul-tiled"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::Compute
    }

    fn prepare(&mut self, gmem: &mut GlobalMem) -> KernelDescriptor {
        let n = self.n;
        let bytes = u64::from(n) * u64::from(n) * 4;
        let a = gmem.alloc(bytes);
        let b = gmem.alloc(bytes);
        let c = gmem.alloc(bytes);
        gmem.write_f32_slice(a, &matrix(n, |r, cc| ((r + cc) % 13) as f32 * 0.25));
        gmem.write_f32_slice(b, &matrix(n, |r, cc| ((r * 3 + cc) % 11) as f32 * 0.5));
        self.bufs = Some((a, b, c));

        let mut k = DslKernel::new("matmul-tiled", Dim2::new(TILE, TILE));
        let pa = k.param(0);
        let pb = k.param(1);
        let pc = k.param(2);
        let pn = k.param(3);
        let tx = k.special(SpecialReg::TidX);
        let ty = k.special(SpecialReg::TidY);
        let bx = k.special(SpecialReg::CtaIdX);
        let by = k.special(SpecialReg::CtaIdY);
        let row = k.imad(by, u64::from(TILE), ty);
        let col = k.imad(bx, u64::from(TILE), tx);
        let acc = k.movi(0.0f32);
        // Shared layout: sA at 0, sB at TILE*TILE*4.
        let s_b_base_off = u64::from(TILE * TILE * 4);
        // Per-thread shared addresses (constant across tiles).
        let ty_t = k.imul(ty, u64::from(TILE));
        let lin = k.iadd(ty_t, tx);
        let s_store = k.shl(lin, 2u64); // (ty*T + tx) * 4
        // sA row base for the inner product: (ty*T)*4, read with offset kk*4.
        let sa_row = k.shl(ty_t, 2u64);
        // sB column base: tx*4 + s_b_base, read with offset kk*T*4.
        let tx4 = k.shl(tx, 2u64);
        let sb_col = k.iadd(tx4, s_b_base_off);
        // Global strides.
        let row_n = k.imul(row, pn); // row * n
        let n_tiles = k.shr(pn, 4u64);
        let va = k.declare();
        let vb = k.declare();
        k.for_range(0u64, n_tiles, 1u64, |k, t| {
            let t_t = k.imul(t, u64::from(TILE));
            // A[row][t*T + tx]
            let a_col = k.iadd(t_t, tx);
            let a_idx = k.iadd(row_n, a_col);
            let a_off = k.shl(a_idx, 2u64);
            let ea = k.iadd(pa, a_off);
            k.ld_global_u32_to(va, ea, 0);
            k.st_shared_u32(va, s_store, 0);
            // B[t*T + ty][col]
            let b_row = k.iadd(t_t, ty);
            let b_rn = k.imul(b_row, pn);
            let b_idx = k.iadd(b_rn, col);
            let b_off = k.shl(b_idx, 2u64);
            let eb = k.iadd(pb, b_off);
            k.ld_global_u32_to(vb, eb, 0);
            let sb_store = k.iadd(s_store, s_b_base_off);
            k.st_shared_u32(vb, sb_store, 0);
            k.bar();
            // Unrolled inner product over the tile.
            for kk in 0..TILE {
                k.ld_shared_u32_to(va, sa_row, i64::from(kk * 4));
                k.ld_shared_u32_to(vb, sb_col, i64::from(kk * TILE * 4));
                k.alu3_to(AluOp::FFma, acc, va, vb, acc);
            }
            k.bar();
        });
        let c_idx = k.iadd(row_n, col);
        let c_off = k.shl(c_idx, 2u64);
        let ec = k.iadd(pc, c_off);
        k.st_global_u32(acc, ec, 0);
        let prog = Arc::new(k.compile().expect("matmul-tiled is well-formed"));
        KernelDescriptor::builder(
            prog,
            Dim2::new(n / TILE, n / TILE),
            Dim2::new(TILE, TILE),
        )
        .smem_per_cta(2 * TILE * TILE * 4)
        .params([a, b, c, u64::from(n)])
        .build()
        .expect("valid launch")
    }

    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError> {
        let (a, b, c) = self.bufs.expect("prepare() ran");
        let n = self.n as usize;
        let av = gmem.read_f32_vec(a, n * n);
        let bv = gmem.read_f32_vec(b, n * n);
        let got = gmem.read_f32_vec(c, n * n);
        let mut expect = vec![0.0f32; n * n];
        for r in 0..n {
            for cc in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..n {
                    acc = av[r * n + kk].mul_add(bv[kk * n + cc], acc);
                }
                expect[r * n + cc] = acc;
            }
        }
        match first_mismatch_f32(&expect, &got) {
            None => Ok(()),
            Some((i, e, g)) => Err(VerifyError {
                workload: self.name().into(),
                detail: format!("C[{i}] = {g}, expected {e}"),
            }),
        }
    }
}

/// C = A×B straight from global memory (no tiling): every thread streams a
/// row of A and a column of B through the L1. Compute/stream-bound at
/// scale; consecutive CTAs along a grid row share their A rows, which BCS
/// pairing exploits.
#[derive(Debug)]
pub struct MatMulNaive {
    n: u32,
    bufs: Option<(u64, u64, u64)>,
}

impl MatMulNaive {
    /// An untiled multiply of `n`×`n` matrices.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of 32.
    pub fn new(n: u32) -> Self {
        assert!(n >= 32 && n % 32 == 0, "n must be a multiple of 32");
        MatMulNaive { n, bufs: None }
    }
}

impl Workload for MatMulNaive {
    fn name(&self) -> &str {
        "matmul-naive"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::Compute
    }

    fn prepare(&mut self, gmem: &mut GlobalMem) -> KernelDescriptor {
        let n = self.n;
        let bytes = u64::from(n) * u64::from(n) * 4;
        let a = gmem.alloc(bytes);
        let b = gmem.alloc(bytes);
        let c = gmem.alloc(bytes);
        gmem.write_f32_slice(a, &matrix(n, |r, cc| ((r + 2 * cc) % 7) as f32 * 0.5));
        gmem.write_f32_slice(b, &matrix(n, |r, cc| ((2 * r + cc) % 9) as f32 * 0.25));
        self.bufs = Some((a, b, c));

        // Block (32, 4): warps span a row fragment (coalesced B columns).
        let mut k = DslKernel::new("matmul-naive", Dim2::new(32, 4));
        let pa = k.param(0);
        let pb = k.param(1);
        let pc = k.param(2);
        let pn = k.param(3);
        let tx = k.special(SpecialReg::TidX);
        let ty = k.special(SpecialReg::TidY);
        let bx = k.special(SpecialReg::CtaIdX);
        let by = k.special(SpecialReg::CtaIdY);
        let col = k.imad(bx, 32u64, tx);
        let row = k.imad(by, 4u64, ty);
        let row_n = k.imul(row, pn);
        let acc = k.movi(0.0f32);
        let va = k.declare();
        let vb = k.declare();
        let ea = k.declare();
        let eb = k.declare();
        // ea = pa + row*n*4 (advance by 4 per k); eb = pb + col*4 (advance
        // by n*4 per k).
        let row_n4 = k.shl(row_n, 2u64);
        k.alu_to(AluOp::IAdd, ea, pa, row_n4);
        let col4 = k.shl(col, 2u64);
        k.alu_to(AluOp::IAdd, eb, pb, col4);
        let n4 = k.shl(pn, 2u64);
        k.for_range(0u64, pn, 1u64, |k, _kk| {
            k.ld_global_u32_to(va, ea, 0);
            k.ld_global_u32_to(vb, eb, 0);
            k.alu3_to(AluOp::FFma, acc, va, vb, acc);
            k.alu_to(AluOp::IAdd, ea, ea, 4u64);
            k.alu_to(AluOp::IAdd, eb, eb, n4);
        });
        let c_idx = k.iadd(row_n, col);
        let c_off = k.shl(c_idx, 2u64);
        let ec = k.iadd(pc, c_off);
        k.st_global_u32(acc, ec, 0);
        let prog = Arc::new(k.compile().expect("matmul-naive is well-formed"));
        KernelDescriptor::builder(prog, Dim2::new(n / 32, n / 4), Dim2::new(32, 4))
            .params([a, b, c, u64::from(n)])
            .build()
            .expect("valid launch")
    }

    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError> {
        let (a, b, c) = self.bufs.expect("prepare() ran");
        let n = self.n as usize;
        let av = gmem.read_f32_vec(a, n * n);
        let bv = gmem.read_f32_vec(b, n * n);
        let got = gmem.read_f32_vec(c, n * n);
        for r in 0..n {
            for cc in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..n {
                    acc = av[r * n + kk].mul_add(bv[kk * n + cc], acc);
                }
                if !crate::common::f32_close(acc, got[r * n + cc]) {
                    return Err(VerifyError {
                        workload: self.name().into(),
                        detail: format!(
                            "C[{r}][{cc}] = {}, expected {acc}",
                            got[r * n + cc]
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// `out[x][y] = in[y][x]` — naive transpose: coalesced reads, 32-way
/// strided writes. Bandwidth-bound with poor store locality.
#[derive(Debug)]
pub struct Transpose {
    n: u32,
    bufs: Option<(u64, u64)>,
}

impl Transpose {
    /// A transpose of an `n`×`n` `u32` matrix.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of 32.
    pub fn new(n: u32) -> Self {
        assert!(n >= 32 && n % 32 == 0, "n must be a multiple of 32");
        Transpose { n, bufs: None }
    }
}

impl Workload for Transpose {
    fn name(&self) -> &str {
        "transpose"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::Memory
    }

    fn prepare(&mut self, gmem: &mut GlobalMem) -> KernelDescriptor {
        let n = self.n;
        let bytes = u64::from(n) * u64::from(n) * 4;
        let src = gmem.alloc(bytes);
        let dst = gmem.alloc(bytes);
        let sv: Vec<u32> = (0..n * n).collect();
        gmem.write_u32_slice(src, &sv);
        self.bufs = Some((src, dst));

        let mut k = DslKernel::new("transpose", Dim2::new(32, 8));
        let psrc = k.param(0);
        let pdst = k.param(1);
        let pn = k.param(2);
        let tx = k.special(SpecialReg::TidX);
        let ty = k.special(SpecialReg::TidY);
        let bx = k.special(SpecialReg::CtaIdX);
        let by = k.special(SpecialReg::CtaIdY);
        let x = k.imad(bx, 32u64, tx);
        let y = k.imad(by, 8u64, ty);
        // v = in[y][x] (coalesced)
        let in_idx = k.imad(y, pn, x);
        let in_off = k.shl(in_idx, 2u64);
        let esrc = k.iadd(psrc, in_off);
        let v = k.ld_global_u32(esrc, 0);
        // out[x][y] = v (strided)
        let out_idx = k.imad(x, pn, y);
        let out_off = k.shl(out_idx, 2u64);
        let edst = k.iadd(pdst, out_off);
        k.st_global_u32(v, edst, 0);
        let prog = Arc::new(k.compile().expect("transpose is well-formed"));
        KernelDescriptor::builder(prog, Dim2::new(n / 32, n / 8), Dim2::new(32, 8))
            .regs_per_thread(16)
            .params([src, dst, u64::from(n)])
            .build()
            .expect("valid launch")
    }

    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError> {
        let (src, dst) = self.bufs.expect("prepare() ran");
        let n = self.n as usize;
        let sv = gmem.read_u32_vec(src, n * n);
        let dv = gmem.read_u32_vec(dst, n * n);
        for y in 0..n {
            for x in 0..n {
                if dv[x * n + y] != sv[y * n + x] {
                    return Err(VerifyError {
                        workload: self.name().into(),
                        detail: format!(
                            "out[{x}][{y}] = {}, expected {}",
                            dv[x * n + y],
                            sv[y * n + x]
                        ),
                    });
                }
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
        assert_eq!(MatMulTiled::new(64).class(), WorkloadClass::Compute);
        assert_eq!(MatMulNaive::new(64).class(), WorkloadClass::Compute);
        assert_eq!(Transpose::new(64).class(), WorkloadClass::Memory);
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn tiled_requires_multiple_of_tile() {
        let _ = MatMulTiled::new(40);
    }

    #[test]
    fn tiled_descriptor_geometry() {
        let mut g = GlobalMem::new();
        let mut w = MatMulTiled::new(64);
        let d = w.prepare(&mut g);
        assert_eq!(d.grid(), Dim2::new(4, 4));
        assert_eq!(d.threads_per_cta(), 256);
        assert_eq!(d.smem_per_cta(), 2048);
    }
}
