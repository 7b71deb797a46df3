//! Whole-GPU configuration.

use gpgpu_mem::{config::rule, CacheConfig, FabricConfig};

/// Most warp slots a core may have: one bit each in a `u64`, so the issue
/// stage keeps every per-slot mask in one machine word. A Fermi core has
/// 48 and no NVIDIA part has more than 64.
pub const MAX_WARP_SLOTS: u32 = 64;

gpgpu_mem::config! {
    /// Configuration of the simulated GPU (a Fermi GTX480-class part by
    /// default, matching the paper's GPGPU-Sim setup).
    ///
    /// Construct with [`GpuConfig::fermi`] and adjust fields as needed; the
    /// experiment harness sweeps several of them.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct GpuConfig in GPU_KNOBS, rules gpu_rules {
        /// Number of SM cores.
        num_cores: usize in 1..=128; // each allocates warp slots, an L1 and a crossbar port
        /// Hardware maximum resident threads per core.
        max_threads_per_core: u32 in 32..=MAX_WARP_SLOTS * 32; // one to 64 full warps
        /// Hardware maximum resident CTAs per core (the limit LCS lowers).
        max_ctas_per_core: u32 in 1..=MAX_WARP_SLOTS; // a slot each; a CTA holds a warp
        /// Hardware maximum resident warps per core.
        max_warps_per_core: u32 in 1..=MAX_WARP_SLOTS; // a bit each of the issue words
        /// Register-file capacity per core, in 32-bit registers.
        regfile_per_core: u32 in 0..=1 << 20; // counted, not allocated; 16 times Hopper's
        /// Shared-memory capacity per core, in bytes.
        smem_per_core: u32 in 0..=1 << 20; // counted, not allocated; 4 times Hopper's
        /// Warp schedulers (issue slots) per core.
        num_sched_per_core: u32 in 1..=16; // a scheduler instance each
        /// Integer ALU latency, cycles.
        int_latency: u32 in 1..=1024; // the writeback wheel spans the longest latency
        /// FP32 ALU latency, cycles.
        fp_latency: u32 in 1..=1024; // as int_latency
        /// SFU latency, cycles.
        sfu_latency: u32 in 1..=1024; // as int_latency
        /// Shared-memory access latency (conflict-free), cycles.
        shared_latency: u32 in 1..=1024; // as int_latency
        /// L1 hit latency, cycles.
        l1_latency: u32 in 1..=1024; // as int_latency
        /// Per-core L1 data-cache configuration.
        l1: CacheConfig;
        /// Per-core load/store-unit queue capacity, in line transactions.
        ldst_queue_len: usize in 1..=1024; // the queue grows to its capacity
        /// Off-core memory system configuration.
        fabric: FabricConfig;
        /// Invalidate L1s at a kernel launch with no other kernel running.
        /// Cold-cache kernel boundaries, as in GPGPU-Sim.
        flush_l1_on_kernel_launch: bool in false..=true;
        /// Abort if no forward progress is made for this many cycles.
        deadlock_cycles: u64 in 1..=1 << 48; // so adding it to a cycle cannot overflow
    }
}

fn gpu_rules(g: &GpuConfig) -> Result<(), String> {
    let ports = g.fabric.cores == g.num_cores;
    rule(ports, "fabric core-port count must match num_cores")?;
    let lines = g.l1.line_bytes == g.fabric.line_bytes;
    rule(lines, "L1 and fabric line sizes must match")
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
