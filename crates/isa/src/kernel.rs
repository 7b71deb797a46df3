//! Kernel descriptors: a program plus launch geometry and resource demands.

use crate::program::Program;
use crate::types::{Dim2, WARP_SIZE};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Maximum threads per CTA (Fermi-class).
pub const MAX_THREADS_PER_CTA: u32 = 1024;

/// Everything the device needs to launch a kernel: the program, the grid
/// and CTA shapes, per-thread/per-CTA resource demands (which determine
/// occupancy), and parameter values.
///
/// Construct with [`KernelDescriptor::builder`]. The resource demands
/// default to the program's actual usage but can be inflated to model
/// register/shared-memory pressure of the original CUDA kernels.
#[derive(Debug, Clone)]
pub struct KernelDescriptor {
    name: Arc<str>,
    program: Arc<Program>,
    grid: Dim2,
    block: Dim2,
    regs_per_thread: u32,
    smem_per_cta: u32,
    params: Vec<u64>,
}

/// Why a [`KernelDescriptor`] failed to build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// CTA shape has zero extent or exceeds the 1024-thread limit.
    BadBlockDim {
        /// The offending shape.
        block: Dim2,
    },
    /// Grid shape has zero extent.
    BadGridDim {
        /// The offending shape.
        grid: Dim2,
    },
    /// Fewer parameters supplied than the program reads.
    MissingParams {
        /// Parameter slots the program reads.
        needed: u8,
        /// Parameters supplied.
        got: usize,
    },
    /// Declared register budget is below what the program actually uses.
    RegsTooSmall {
        /// Declared budget.
        declared: u32,
        /// Program's actual usage.
        used: u32,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::BadBlockDim { block } => {
                write!(f, "invalid CTA shape {block} (limit 1024 threads, nonzero)")
            }
            KernelError::BadGridDim { grid } => write!(f, "invalid grid shape {grid}"),
            KernelError::MissingParams { needed, got } => {
                write!(f, "program reads {needed} parameter slots but {got} supplied")
            }
            KernelError::RegsTooSmall { declared, used } => {
                write!(
                    f,
                    "declared {declared} registers/thread but program uses {used}"
                )
            }
        }
    }
}

impl Error for KernelError {}

impl KernelDescriptor {
    /// Starts building a descriptor for `program` over `grid` CTAs.
    pub fn builder(program: Arc<Program>, grid: Dim2, block: Dim2) -> KernelDescriptorBuilder {
        KernelDescriptorBuilder {
            name: None,
            program,
            grid,
            block,
            regs_per_thread: None,
            smem_per_cta: 0,
            params: Vec::new(),
        }
    }

    /// The kernel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kernel's name as a shared, refcounted string. Consumers that
    /// retain the name long-term (telemetry events, per-kernel stats)
    /// clone the `Arc` instead of allocating a fresh `String` each time.
    pub fn name_shared(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }

    /// The program executed by every thread.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Grid shape in CTAs.
    pub fn grid(&self) -> Dim2 {
        self.grid
    }

    /// CTA shape in threads.
    pub fn block(&self) -> Dim2 {
        self.block
    }

    /// Total number of CTAs in the grid.
    pub fn cta_count(&self) -> u64 {
        self.grid.count()
    }

    /// Threads per CTA.
    pub fn threads_per_cta(&self) -> u32 {
        self.block.x * self.block.y
    }

    /// Warps per CTA (threads rounded up to warp granularity).
    pub fn warps_per_cta(&self) -> u32 {
        self.threads_per_cta().div_ceil(WARP_SIZE as u32)
    }

    /// Architectural registers demanded per thread (for occupancy).
    pub fn regs_per_thread(&self) -> u32 {
        self.regs_per_thread
    }

    /// Shared-memory bytes demanded per CTA (for occupancy).
    pub fn smem_per_cta(&self) -> u32 {
        self.smem_per_cta
    }

    /// Kernel parameter values.
    pub fn params(&self) -> &[u64] {
        &self.params
    }

    /// The (x, y) coordinates of the CTA with linear id `linear`
    /// (row-major: x fastest).
    pub fn cta_coords(&self, linear: u64) -> (u32, u32) {
        let x = (linear % u64::from(self.grid.x)) as u32;
        let y = (linear / u64::from(self.grid.x)) as u32;
        (x, y)
    }
}

impl fmt::Display for KernelDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} <<<{}, {}>>> regs={} smem={}",
            self.name, self.grid, self.block, self.regs_per_thread, self.smem_per_cta
        )
    }
}

/// Builder for [`KernelDescriptor`]. See [`KernelDescriptor::builder`].
#[derive(Debug)]
pub struct KernelDescriptorBuilder {
    name: Option<String>,
    program: Arc<Program>,
    grid: Dim2,
    block: Dim2,
    regs_per_thread: Option<u32>,
    smem_per_cta: u32,
    params: Vec<u64>,
}

impl KernelDescriptorBuilder {
    /// Overrides the kernel name (defaults to the program name).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Declares the per-thread register demand (defaults to the program's
    /// actual usage). Used for occupancy, may exceed actual usage.
    pub fn regs_per_thread(mut self, regs: u32) -> Self {
        self.regs_per_thread = Some(regs);
        self
    }

    /// Declares the per-CTA shared-memory demand in bytes.
    pub fn smem_per_cta(mut self, bytes: u32) -> Self {
        self.smem_per_cta = bytes;
        self
    }

    /// Sets the kernel parameter values.
    pub fn params(mut self, params: impl IntoIterator<Item = u64>) -> Self {
        self.params = params.into_iter().collect();
        self
    }

    /// Finalizes the descriptor.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] for invalid launch geometry, missing
    /// parameters, or an under-declared register budget.
    pub fn build(self) -> Result<KernelDescriptor, KernelError> {
        let threads = self.block.x.checked_mul(self.block.y).unwrap_or(u32::MAX);
        if self.block.x == 0 || self.block.y == 0 || threads > MAX_THREADS_PER_CTA {
            return Err(KernelError::BadBlockDim { block: self.block });
        }
        if self.grid.x == 0 || self.grid.y == 0 {
            return Err(KernelError::BadGridDim { grid: self.grid });
        }
        if self.params.len() < usize::from(self.program.param_count()) {
            return Err(KernelError::MissingParams {
                needed: self.program.param_count(),
                got: self.params.len(),
            });
        }
        let used = u32::from(self.program.reg_count());
        let regs = self.regs_per_thread.unwrap_or(used.max(1));
        if regs < used {
            return Err(KernelError::RegsTooSmall {
                declared: regs,
                used,
            });
        }
        Ok(KernelDescriptor {
            name: match self.name {
                Some(name) => Arc::from(name),
                None => Arc::from(self.program.name()),
            },
            program: self.program,
            grid: self.grid,
            block: self.block,
            regs_per_thread: regs,
            smem_per_cta: self.smem_per_cta,
            params: self.params,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::DslKernel;
    use crate::program::exit_only;

    fn prog() -> Arc<Program> {
        Arc::new(exit_only("k"))
    }

    #[test]
    fn builder_defaults() {
        let d = KernelDescriptor::builder(prog(), Dim2::x(10), Dim2::x(128))
            .build()
            .unwrap();
        assert_eq!(d.name(), "k");
        assert_eq!(d.cta_count(), 10);
        assert_eq!(d.threads_per_cta(), 128);
        assert_eq!(d.warps_per_cta(), 4);
        assert_eq!(d.regs_per_thread(), 1); // max(program usage, 1)
        assert_eq!(d.smem_per_cta(), 0);
    }

    #[test]
    fn warps_round_up() {
        let d = KernelDescriptor::builder(prog(), Dim2::x(1), Dim2::x(33))
            .build()
            .unwrap();
        assert_eq!(d.warps_per_cta(), 2);
    }

    #[test]
    fn bad_block_rejected() {
        let e = KernelDescriptor::builder(prog(), Dim2::x(1), Dim2::new(64, 32))
            .build()
            .unwrap_err();
        assert!(matches!(e, KernelError::BadBlockDim { .. }));
        let e = KernelDescriptor::builder(prog(), Dim2::x(1), Dim2::new(0, 1))
            .build()
            .unwrap_err();
        assert!(matches!(e, KernelError::BadBlockDim { .. }));
    }

    #[test]
    fn bad_grid_rejected() {
        let e = KernelDescriptor::builder(prog(), Dim2::new(0, 5), Dim2::x(32))
            .build()
            .unwrap_err();
        assert!(matches!(e, KernelError::BadGridDim { .. }));
    }

    #[test]
    fn missing_params_rejected() {
        let mut k = DslKernel::new("p", Dim2::x(32));
        k.param(2); // reads slots 0..=2
        let p = Arc::new(k.compile().unwrap());
        let e = KernelDescriptor::builder(p, Dim2::x(1), Dim2::x(32))
            .params([1, 2])
            .build()
            .unwrap_err();
        assert_eq!(e, KernelError::MissingParams { needed: 3, got: 2 });
    }

    #[test]
    fn cta_coords_row_major() {
        let d = KernelDescriptor::builder(prog(), Dim2::new(4, 3), Dim2::x(32))
            .build()
            .unwrap();
        assert_eq!(d.cta_coords(0), (0, 0));
        assert_eq!(d.cta_coords(3), (3, 0));
        assert_eq!(d.cta_coords(4), (0, 1));
        assert_eq!(d.cta_coords(11), (3, 2));
    }

    #[test]
    fn regs_override_validated() {
        let mut k = DslKernel::new("p", Dim2::x(32));
        let a = k.movi(0u64);
        let b = k.movi(1u64);
        k.iadd(a, b); // uses 3 registers
        let p = Arc::new(k.compile().unwrap());
        let e = KernelDescriptor::builder(Arc::clone(&p), Dim2::x(1), Dim2::x(32))
            .regs_per_thread(2)
            .build()
            .unwrap_err();
        assert!(matches!(e, KernelError::RegsTooSmall { .. }));
        let d = KernelDescriptor::builder(p, Dim2::x(1), Dim2::x(32))
            .regs_per_thread(20)
            .build()
            .unwrap();
        assert_eq!(d.regs_per_thread(), 20);
    }

    #[test]
    fn display_smoke() {
        let d = KernelDescriptor::builder(prog(), Dim2::x(2), Dim2::x(64))
            .name("vecadd")
            .build()
            .unwrap();
        let s = d.to_string();
        assert!(s.contains("vecadd"));
        assert!(s.contains("2x1"));
    }
}
