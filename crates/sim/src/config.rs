//! Whole-GPU configuration.

use gpgpu_mem::{CacheConfig, FabricConfig};

/// Most warp slots a core may have: one bit each in a `u64`, so the issue
/// stage keeps every per-slot mask in one machine word. A Fermi core has
/// 48 and no NVIDIA part has more than 64.
pub const MAX_WARP_SLOTS: u32 = 64;

/// Configuration of the simulated GPU (a Fermi GTX480-class part by
/// default, matching the paper's GPGPU-Sim setup).
///
/// Construct with [`GpuConfig::fermi`] and adjust fields as needed; the
/// experiment harness sweeps several of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuConfig {
    /// Number of SM cores.
    pub num_cores: usize,
    /// Hardware maximum resident threads per core.
    pub max_threads_per_core: u32,
    /// Hardware maximum resident CTAs per core (the limit LCS lowers).
    pub max_ctas_per_core: u32,
    /// Hardware maximum resident warps per core.
    pub max_warps_per_core: u32,
    /// Register-file capacity per core, in 32-bit registers.
    pub regfile_per_core: u32,
    /// Shared-memory capacity per core, in bytes.
    pub smem_per_core: u32,
    /// Warp schedulers (issue slots) per core.
    pub num_sched_per_core: u32,
    /// Integer ALU latency, cycles.
    pub int_latency: u32,
    /// FP32 ALU latency, cycles.
    pub fp_latency: u32,
    /// SFU latency, cycles.
    pub sfu_latency: u32,
    /// Shared-memory access latency (conflict-free), cycles.
    pub shared_latency: u32,
    /// L1 hit latency, cycles.
    pub l1_latency: u32,
    /// Per-core L1 data-cache configuration.
    pub l1: CacheConfig,
    /// Per-core load/store-unit queue capacity, in line transactions.
    pub ldst_queue_len: usize,
    /// Off-core memory system configuration.
    pub fabric: FabricConfig,
    /// Invalidate L1s when a kernel launches with no other kernel running
    /// (cold-cache kernel boundaries, as in GPGPU-Sim).
    pub flush_l1_on_kernel_launch: bool,
    /// Abort if no forward progress is made for this many cycles.
    pub deadlock_cycles: u64,
}

impl GpuConfig {
    /// The default Fermi GTX480-class configuration used throughout the
    /// reproduction: 15 SMs, 1536 threads / 48 warps / 8 CTAs per SM,
    /// 32768 registers, 48 KiB shared memory, 2 schedulers per SM, 16 KiB
    /// L1, 6 memory partitions.
    pub fn fermi() -> Self {
        let num_cores = 15;
        GpuConfig {
            num_cores,
            max_threads_per_core: 1536,
            max_ctas_per_core: 8,
            max_warps_per_core: 48,
            regfile_per_core: 32768,
            smem_per_core: 48 * 1024,
            num_sched_per_core: 2,
            int_latency: 4,
            fp_latency: 4,
            sfu_latency: 16,
            shared_latency: 24,
            l1_latency: 20,
            l1: CacheConfig::l1_data_default(),
            ldst_queue_len: 64,
            fabric: FabricConfig::fermi_like(num_cores),
            flush_l1_on_kernel_launch: true,
            deadlock_cycles: 500_000,
        }
    }

    /// A small configuration for fast unit tests: 2 SMs, 2 partitions,
    /// otherwise Fermi-like per-SM limits.
    pub fn test_small() -> Self {
        let mut c = Self::fermi();
        c.num_cores = 2;
        c.fabric = FabricConfig::fermi_like(2);
        c.fabric.partitions = 2;
        c.deadlock_cycles = 200_000;
        c
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (zero cores/limits, L1
    /// line size differing from the fabric's, scheduler count of zero,
    /// more than [`MAX_WARP_SLOTS`] warp slots).
    pub fn validate(&self) {
        assert!(self.num_cores >= 1, "need at least one core");
        assert_eq!(
            self.fabric.cores, self.num_cores,
            "fabric core-port count must match num_cores"
        );
        assert_eq!(
            self.l1.line_bytes, self.fabric.line_bytes,
            "L1 and fabric line sizes must match"
        );
        assert!(self.max_ctas_per_core >= 1);
        assert!(
            (1..=MAX_WARP_SLOTS).contains(&self.max_warps_per_core),
            "max_warps_per_core must be 1..={MAX_WARP_SLOTS}"
        );
        assert!(self.num_sched_per_core >= 1);
        assert!(self.ldst_queue_len >= 1);
        assert!(self.max_threads_per_core >= 32);
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::fermi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fermi_is_valid() {
        GpuConfig::fermi().validate();
        GpuConfig::test_small().validate();
        assert_eq!(GpuConfig::default(), GpuConfig::fermi());
    }

    #[test]
    #[should_panic(expected = "fabric core-port count")]
    fn mismatched_fabric_ports_rejected() {
        let mut c = GpuConfig::fermi();
        c.num_cores = 4; // fabric still has 15 ports
        c.validate();
    }

    #[test]
    fn sixty_four_warp_slots_are_accepted() {
        let mut c = GpuConfig::fermi();
        c.max_warps_per_core = MAX_WARP_SLOTS;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "max_warps_per_core must be 1..=64")]
    fn sixty_five_warp_slots_are_rejected() {
        let mut c = GpuConfig::fermi();
        c.max_warps_per_core = MAX_WARP_SLOTS + 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "line sizes")]
    fn mismatched_line_size_rejected() {
        let mut c = GpuConfig::fermi();
        c.l1.line_bytes = 64;
        c.l1.size_bytes = 16 * 1024;
        c.validate();
    }
}
