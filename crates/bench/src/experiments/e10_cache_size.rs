//! E10 — L1-capacity sensitivity: LCS's benefit should shrink as the L1
//! grows (more resident CTAs fit without thrashing).

use super::{r3, Runs};
use crate::{Harness, RunSpec, Table};
use tbs_core::{CtaPolicy, WarpPolicy};

/// L1 capacities swept, in KiB.
pub const L1_SIZES_KIB: [u32; 3] = [16, 32, 48];

const SUITE: [&str; 3] = ["spmv-ell", "vecadd", "matmul-naive"];

/// The runs behind one (workload, L1 size) pair of cells: the baseline
/// and LCS with the L1 resized to `size_kib`.
fn row(h: &Harness, name: &str, size_kib: u32) -> [RunSpec; 2] {
    let mut gpu = h.gpu.clone();
    gpu.l1.size_bytes = size_kib * 1024;
    [CtaPolicy::Baseline(None), CtaPolicy::Lcs(0.7)]
        .map(|cta| RunSpec::single_cfg(h, gpu.clone(), name, WarpPolicy::Gto, cta))
}

/// Every workload at every L1 size.
pub(crate) fn plan(h: &Harness) -> Vec<RunSpec> {
    SUITE
        .iter()
        .flat_map(|name| L1_SIZES_KIB.iter().flat_map(move |&size| row(h, name, size)))
        .collect()
}

/// Baseline IPC and LCS speedup at each L1 size.
pub(crate) fn tabulate(h: &Harness, runs: &Runs) -> Vec<Table> {
    let mut cols: Vec<String> = vec!["workload".into()];
    for s in L1_SIZES_KIB {
        cols.push(format!("base-ipc-{s}k"));
        cols.push(format!("lcs-speedup-{s}k"));
    }
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut t = Table::new("E10: L1 capacity sensitivity", &col_refs);
    for name in SUITE {
        let mut cells = vec![name.to_string()];
        for size in L1_SIZES_KIB {
            let [base, lcs] = row(h, name, size).map(|s| runs.get(&s));
            cells.push(r3(base.ipc()));
            cells.push(r3(base.cycles() as f64 / lcs.cycles() as f64));
        }
        t.push_row(cells);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::super::tests::tables;
    use super::*;

    #[test]
    fn cache_sweep_builds() {
        assert_eq!(tables("e10")[0].len(), SUITE.len());
    }
}
