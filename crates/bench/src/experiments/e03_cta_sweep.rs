//! E3 — the paper's motivation figure: performance versus a *static*
//! per-core CTA limit. The hardware maximum is not optimal for
//! memory-intensive and cache-sensitive kernels (the curve is an inverted
//! U), while compute-intensive kernels want the maximum.

use super::{limit_sweep, r3, Runs, LIMIT_SWEEP};
use crate::{Harness, RunSpec, Table};

/// Representative workloads spanning the three classes (also E6's
/// accuracy suite).
pub const SWEEP_SUITE: [&str; 6] = [
    "vecadd",
    "stridedcopy",
    "spmv-ell",
    "gather",
    "fmaheavy",
    "matmul-tiled",
];

/// Each row is one workload's [`limit_sweep`].
pub(crate) fn plan(h: &Harness) -> Vec<RunSpec> {
    SWEEP_SUITE.iter().flat_map(|name| limit_sweep(h, name)).collect()
}

/// IPC at each static CTA limit, normalized to the unlimited
/// (hardware-maximum) baseline, and the best limit.
pub(crate) fn tabulate(h: &Harness, runs: &Runs) -> Vec<Table> {
    let mut cols: Vec<String> = vec!["workload".into(), "class".into()];
    cols.extend(LIMIT_SWEEP.iter().flatten().map(|l| format!("limit-{l}")));
    cols.push("best-limit".into());
    cols.push("best-vs-max".into());
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "E3: normalized IPC vs static per-core CTA limit (GTO)",
        &col_refs,
    );

    for name in SWEEP_SUITE {
        let [base, limited @ ..] = limit_sweep(h, name).map(|s| runs.get(&s).cycles() as f64);
        let class = gpgpu_workloads::by_name(name, h.scale)
            .expect("suite member")
            .class();
        let mut row = vec![name.to_string(), class.to_string()];
        let mut best = (0u32, 0.0f64);
        for (&limit, cycles) in LIMIT_SWEEP.iter().flatten().zip(limited) {
            let speedup = base / cycles;
            if speedup > best.1 {
                best = (limit, speedup);
            }
            row.push(r3(speedup));
        }
        row.push(best.0.to_string());
        row.push(r3(best.1));
        t.push_row(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::super::tests::tables;
    use super::*;

    #[test]
    fn sweep_reports_all_workloads() {
        let tables = tables("e3");
        assert_eq!(tables[0].len(), SWEEP_SUITE.len());
        // Every speedup entry parses and is positive.
        for l in LIMIT_SWEEP.iter().flatten() {
            for v in tables[0].column_f64(&format!("limit-{l}")) {
                assert!(v > 0.0);
            }
        }
    }
}
