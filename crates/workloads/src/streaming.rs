//! Streaming (bandwidth-bound) workloads: `vecadd`, `saxpy`,
//! `stridedcopy`. Stand-ins for the streaming kernels of Rodinia/
//! Parboil-style suites — fully coalesced (or deliberately strided)
//! element-wise passes with almost no reuse, which saturate DRAM with very
//! few resident CTAs (the LCS sweet spot is small).

use crate::common::{first_mismatch_f32, first_mismatch_u32, VerifyError, Workload, WorkloadClass};
use gpgpu_isa::dsl::DslKernel;
use gpgpu_isa::{CmpOp, CmpTy, Dim2, KernelDescriptor};
use gpgpu_sim::GlobalMem;
use std::sync::Arc;

const BLOCK: u32 = 256;

/// `c[i] = a[i] + b[i]` over `n` `u32` elements.
#[derive(Debug)]
pub struct VecAdd {
    n: u32,
    bufs: Option<(u64, u64, u64)>,
}

impl VecAdd {
    /// A vecadd over `n` elements.
    pub fn new(n: u32) -> Self {
        VecAdd { n, bufs: None }
    }
}

impl Workload for VecAdd {
    fn name(&self) -> &str {
        "vecadd"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::Memory
    }

    fn prepare(&mut self, gmem: &mut GlobalMem) -> KernelDescriptor {
        let bytes = u64::from(self.n) * 4;
        let a = gmem.alloc(bytes);
        let b = gmem.alloc(bytes);
        let c = gmem.alloc(bytes);
        let av: Vec<u32> = (0..self.n).map(|i| i.wrapping_mul(3)).collect();
        let bv: Vec<u32> = (0..self.n).map(|i| i.wrapping_mul(7).wrapping_add(11)).collect();
        gmem.write_u32_slice(a, &av);
        gmem.write_u32_slice(b, &bv);
        self.bufs = Some((a, b, c));

        let mut k = DslKernel::new("vecadd", Dim2::x(BLOCK));
        let pa = k.param(0);
        let pb = k.param(1);
        let pc = k.param(2);
        let pn = k.param(3);
        let gid = k.global_tid_x();
        let in_range = k.setp(CmpOp::Lt, CmpTy::U64, gid, pn);
        k.if_then(in_range, |k| {
            let off = k.shl(gid, 2u64);
            let ea = k.iadd(pa, off);
            let eb = k.iadd(pb, off);
            let ec = k.iadd(pc, off);
            let va = k.ld_global_u32(ea, 0);
            let vb = k.ld_global_u32(eb, 0);
            let vc = k.iadd(va, vb);
            k.st_global_u32(vc, ec, 0);
        });
        let prog = Arc::new(k.compile().expect("vecadd is well-formed"));
        KernelDescriptor::builder(prog, Dim2::x(self.n.div_ceil(BLOCK)), Dim2::x(BLOCK))
            .regs_per_thread(16)
            .params([a, b, c, u64::from(self.n)])
            .build()
            .expect("valid launch")
    }

    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError> {
        let (a, b, c) = self.bufs.expect("prepare() ran");
        let av = gmem.read_u32_vec(a, self.n as usize);
        let bv = gmem.read_u32_vec(b, self.n as usize);
        let cv = gmem.read_u32_vec(c, self.n as usize);
        let expect: Vec<u32> = av
            .iter()
            .zip(&bv)
            .map(|(x, y)| x.wrapping_add(*y))
            .collect();
        match first_mismatch_u32(&expect, &cv) {
            None => Ok(()),
            Some((i, e, g)) => Err(VerifyError {
                workload: self.name().into(),
                detail: format!("c[{i}] = {g}, expected {e}"),
            }),
        }
    }
}

/// `y[i] = alpha * x[i] + y[i]` over `n` `f32` elements.
#[derive(Debug)]
pub struct Saxpy {
    n: u32,
    alpha: f32,
    bufs: Option<(u64, u64)>,
    y0: Vec<f32>,
}

impl Saxpy {
    /// A saxpy over `n` elements with `alpha = 2.5`.
    pub fn new(n: u32) -> Self {
        Saxpy {
            n,
            alpha: 2.5,
            bufs: None,
            y0: Vec::new(),
        }
    }
}

impl Workload for Saxpy {
    fn name(&self) -> &str {
        "saxpy"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::Memory
    }

    fn prepare(&mut self, gmem: &mut GlobalMem) -> KernelDescriptor {
        let bytes = u64::from(self.n) * 4;
        let x = gmem.alloc(bytes);
        let y = gmem.alloc(bytes);
        let xv: Vec<f32> = (0..self.n).map(|i| (i % 97) as f32 * 0.25).collect();
        self.y0 = (0..self.n).map(|i| (i % 53) as f32 * 0.5).collect();
        gmem.write_f32_slice(x, &xv);
        gmem.write_f32_slice(y, &self.y0);
        self.bufs = Some((x, y));

        let mut k = DslKernel::new("saxpy", Dim2::x(BLOCK));
        let px = k.param(0);
        let py = k.param(1);
        let pn = k.param(2);
        let gid = k.global_tid_x();
        let in_range = k.setp(CmpOp::Lt, CmpTy::U64, gid, pn);
        k.if_then(in_range, |k| {
            let off = k.shl(gid, 2u64);
            let ex = k.iadd(px, off);
            let ey = k.iadd(py, off);
            let vx = k.ld_global_u32(ex, 0);
            let vy = k.ld_global_u32(ey, 0);
            let r = k.ffma(vx, self.alpha, vy);
            k.st_global_u32(r, ey, 0);
        });
        let prog = Arc::new(k.compile().expect("saxpy is well-formed"));
        KernelDescriptor::builder(prog, Dim2::x(self.n.div_ceil(BLOCK)), Dim2::x(BLOCK))
            .regs_per_thread(16)
            .params([x, y, u64::from(self.n)])
            .build()
            .expect("valid launch")
    }

    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError> {
        let (x, y) = self.bufs.expect("prepare() ran");
        let xv = gmem.read_f32_vec(x, self.n as usize);
        let yv = gmem.read_f32_vec(y, self.n as usize);
        let expect: Vec<f32> = xv
            .iter()
            .zip(&self.y0)
            .map(|(x, y0)| x.mul_add(self.alpha, *y0))
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

/// `out[i] = in[(i * stride) % n]` — a copy whose *input* accesses stride
/// through memory, shredding coalescing and DRAM row locality. With
/// `stride = 1` it degenerates to a perfectly coalesced copy.
#[derive(Debug)]
pub struct StridedCopy {
    n: u32,
    stride: u32,
    bufs: Option<(u64, u64)>,
}

impl StridedCopy {
    /// A strided copy over `n` elements with the given element stride.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0.
    pub fn new(n: u32, stride: u32) -> Self {
        assert!(stride >= 1);
        StridedCopy {
            n,
            stride,
            bufs: None,
        }
    }
}

impl Workload for StridedCopy {
    fn name(&self) -> &str {
        "stridedcopy"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::Memory
    }

    fn prepare(&mut self, gmem: &mut GlobalMem) -> KernelDescriptor {
        let bytes = u64::from(self.n) * 4;
        let src = gmem.alloc(bytes);
        let dst = gmem.alloc(bytes);
        let sv: Vec<u32> = (0..self.n).map(|i| i ^ 0xA5A5).collect();
        gmem.write_u32_slice(src, &sv);
        self.bufs = Some((src, dst));

        let mut k = DslKernel::new("stridedcopy", Dim2::x(BLOCK));
        let psrc = k.param(0);
        let pdst = k.param(1);
        let pn = k.param(2);
        let pstride = k.param(3);
        let gid = k.global_tid_x();
        let in_range = k.setp(CmpOp::Lt, CmpTy::U64, gid, pn);
        k.if_then(in_range, |k| {
            let scaled = k.imul(gid, pstride);
            let idx = k.urem(scaled, pn);
            let soff = k.shl(idx, 2u64);
            let esrc = k.iadd(psrc, soff);
            let v = k.ld_global_u32(esrc, 0);
            let doff = k.shl(gid, 2u64);
            let edst = k.iadd(pdst, doff);
            k.st_global_u32(v, edst, 0);
        });
        let prog = Arc::new(k.compile().expect("stridedcopy is well-formed"));
        KernelDescriptor::builder(prog, Dim2::x(self.n.div_ceil(BLOCK)), Dim2::x(BLOCK))
            .regs_per_thread(16)
            .params([src, dst, u64::from(self.n), u64::from(self.stride)])
            .build()
            .expect("valid launch")
    }

    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError> {
        let (src, dst) = self.bufs.expect("prepare() ran");
        let sv = gmem.read_u32_vec(src, self.n as usize);
        let dv = gmem.read_u32_vec(dst, self.n as usize);
        let expect: Vec<u32> = (0..self.n as u64)
            .map(|i| sv[((i * u64::from(self.stride)) % u64::from(self.n)) as usize])
            .collect();
        match first_mismatch_u32(&expect, &dv) {
            None => Ok(()),
            Some((i, e, g)) => Err(VerifyError {
                workload: self.name().into(),
                detail: format!("out[{i}] = {g}, expected {e} (stride {})", self.stride),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(VecAdd::new(1024).name(), "vecadd");
        assert_eq!(VecAdd::new(1024).class(), WorkloadClass::Memory);
        assert_eq!(Saxpy::new(64).name(), "saxpy");
        assert_eq!(StridedCopy::new(64, 8).name(), "stridedcopy");
    }

    #[test]
    #[should_panic]
    fn zero_stride_rejected() {
        let _ = StridedCopy::new(64, 0);
    }

    #[test]
    fn prepare_produces_valid_descriptor() {
        let mut g = GlobalMem::new();
        let mut w = VecAdd::new(1000);
        let d = w.prepare(&mut g);
        assert_eq!(d.cta_count(), 4); // ceil(1000/256)
        assert_eq!(d.threads_per_cta(), 256);
        assert!(d.params().len() >= 4);
    }
}
