//! E2 — workload characterization (the paper's benchmark table):
//! class, launch geometry, occupancy limit, dynamic instructions, IPC at
//! the hardware-maximum CTA count, and memory-system behaviour.

use super::{baseline, r3, Runs};
use crate::{Harness, RunSpec, Table};
use gpgpu_sim::core_model::Core;
use gpgpu_sim::GlobalMem;

/// One GTO + baseline run per suite member (each row's one run is its
/// [`baseline`]).
pub(crate) fn plan(h: &Harness) -> Vec<RunSpec> {
    gpgpu_workloads::suite(h.scale)
        .iter()
        .map(|w| baseline(h, w.name()))
        .collect()
}

/// Tabulates every suite member under GTO + baseline.
pub(crate) fn tabulate(h: &Harness, runs: &Runs) -> Vec<Table> {
    let mut t = Table::new(
        "E2: workload characterization (GTO, baseline CTA scheduler, max CTAs)",
        &[
            "workload", "class", "ctas", "threads/cta", "hw-max-ctas/sm", "instructions",
            "cycles", "ipc", "l1-miss", "l2-miss", "dram-row-hit",
        ],
    );
    for mut w in gpgpu_workloads::suite(h.scale) {
        // Geometry from a dry prepare (on scratch memory).
        let mut scratch = GlobalMem::new();
        let desc = w.prepare(&mut scratch);
        let hw_max = Core::hw_max_ctas(&h.gpu, &desc);
        let out = runs.get(&baseline(h, w.name())).outcome();
        let ks = out.stats.kernel(out.kernel).expect("kernel ran");
        t.push_row(vec![
            w.name().to_string(),
            w.class().to_string(),
            desc.cta_count().to_string(),
            desc.threads_per_cta().to_string(),
            hw_max.to_string(),
            ks.instructions.to_string(),
            ks.cycles().to_string(),
            r3(ks.ipc()),
            r3(out.stats.l1.miss_rate()),
            r3(out.stats.fabric.l2.miss_rate()),
            r3(out.stats.fabric.dram.row_hit_rate()),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::super::tests::tables;

    #[test]
    fn characterization_covers_suite() {
        let tables = tables("e2");
        assert_eq!(tables[0].len(), 14);
        // Compute workloads must show higher IPC than memory workloads.
        let classes: Vec<String> = (0..14).map(|i| tables[0].cell(i, 1).to_string()).collect();
        let ipcs = tables[0].column_f64("ipc");
        let avg = |c: &str| {
            let v: Vec<f64> = classes
                .iter()
                .zip(&ipcs)
                .filter(|(cl, _)| cl.as_str() == c)
                .map(|(_, i)| *i)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(
            avg("C") > avg("M"),
            "compute IPC ({}) must exceed memory IPC ({})",
            avg("C"),
            avg("M")
        );
    }
}
