//! E7 — BCS + BAWS on the locality suite: speedup over the baseline and
//! the L1-miss/DRAM-row-hit movement that explains it, including the
//! BCS-without-BAWS ablation.

use super::{baseline, r3, Runs};
use crate::{Harness, RunSpec, Table};
use tbs_core::{CtaPolicy, WarpPolicy};

/// The locality suite: kernels whose consecutive CTAs touch neighbouring
/// data (shared cache lines or DRAM rows).
const LOCALITY_SUITE: [&str; 6] = [
    "stencil2d",
    "hotspot",
    "vecadd",
    "saxpy",
    "transpose",
    "matmul-naive",
];

/// One table row: `name` under the baseline, BCS+GTO, and BCS+BAWS.
fn row(h: &Harness, name: &str) -> [RunSpec; 3] {
    [
        baseline(h, name),
        RunSpec::single(h, name, WarpPolicy::Gto, CtaPolicy::Bcs(2)),
        RunSpec::single(h, name, WarpPolicy::Baws(2), CtaPolicy::Bcs(2)),
    ]
}

/// Every locality workload's row.
pub(crate) fn plan(h: &Harness) -> Vec<RunSpec> {
    LOCALITY_SUITE.iter().flat_map(|name| row(h, name)).collect()
}

/// Speedups and memory-behaviour movement per locality workload.
pub(crate) fn tabulate(h: &Harness, runs: &Runs) -> Vec<Table> {
    let mut t = Table::new(
        "E7: BCS(2) and BAWS vs baseline (GTO + round-robin)",
        &[
            "workload", "base-cycles", "bcs-gto", "bcs-baws", "l1-miss-base",
            "l1-miss-bcs-baws", "rowhit-base", "rowhit-bcs-baws",
        ],
    );
    let mut geo = 1.0f64;
    for name in LOCALITY_SUITE {
        let [base, bcs, baws] = row(h, name).map(|s| runs.get(&s));
        let s_bcs = base.cycles() as f64 / bcs.cycles() as f64;
        let s_baws = base.cycles() as f64 / baws.cycles() as f64;
        geo *= s_baws;
        t.push_row(vec![
            name.to_string(),
            base.cycles().to_string(),
            r3(s_bcs),
            r3(s_baws),
            r3(base.stats.l1.miss_rate()),
            r3(baws.stats.l1.miss_rate()),
            r3(base.stats.fabric.dram.row_hit_rate()),
            r3(baws.stats.fabric.dram.row_hit_rate()),
        ]);
    }
    let mut s = Table::new("E7 summary", &["metric", "value"]);
    s.push_row(vec![
        "bcs-baws-geomean".into(),
        r3(geo.powf(1.0 / LOCALITY_SUITE.len() as f64)),
    ]);
    vec![t, s]
}

#[cfg(test)]
mod tests {
    use super::super::tests::tables;
    use super::*;

    #[test]
    fn bcs_table_builds() {
        let tables = tables("e7");
        assert_eq!(tables[0].len(), LOCALITY_SUITE.len());
        for v in tables[0].column_f64("bcs-baws") {
            assert!(v > 0.4, "BCS must not catastrophically regress");
        }
    }
}
