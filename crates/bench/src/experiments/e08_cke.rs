//! E8 — concurrent kernel execution: memory-intensive × compute-intensive
//! kernel pairs under serial execution, leftover (core-exclusive) CKE, and
//! the paper's mixed CKE. Mixed CKE co-locates both kernels on every core,
//! using LCS to size the memory kernel's share.

use super::{r3, Runs};
use crate::{Harness, RunSpec, Table};
use tbs_core::{CtaPolicy, WarpPolicy};

/// The kernel pairs (memory-side, compute-side).
pub const PAIRS: [(&str, &str); 4] = [
    ("vecadd", "fmaheavy"),
    ("spmv-ell", "fmaheavy"),
    ("gather", "kmeansdist"),
    ("saxpy", "matmul-naive"),
];

/// One table row: the pair `a`+`b` run serially, under leftover CKE, and
/// under mixed CKE.
pub(crate) fn row(h: &Harness, a: &str, b: &str) -> [RunSpec; 3] {
    [
        (CtaPolicy::Baseline(None), true),
        (CtaPolicy::LeftoverCke, false),
        (CtaPolicy::MixedCke(0.7), false),
    ]
    .map(|(cta, serial)| RunSpec::pair(h, a, b, WarpPolicy::Gto, cta, serial))
}

/// Every pair's row.
pub(crate) fn plan(h: &Harness) -> Vec<RunSpec> {
    PAIRS.iter().flat_map(|(a, b)| row(h, a, b)).collect()
}

/// Total time to finish both kernels in each regime, normalized to
/// serial.
pub(crate) fn tabulate(h: &Harness, runs: &Runs) -> Vec<Table> {
    let mut t = Table::new(
        "E8: concurrent kernel execution (total cycles for both kernels)",
        &[
            "pair", "serial-cycles", "leftover-speedup", "mixed-speedup", "mixed-vs-leftover",
        ],
    );
    let mut geo = 1.0f64;
    for (a, b) in PAIRS {
        let [serial, leftover, mixed] = row(h, a, b).map(|s| runs.get(&s).total_cycles());
        let s_leftover = serial as f64 / leftover as f64;
        let s_mixed = serial as f64 / mixed as f64;
        geo *= s_mixed;
        t.push_row(vec![
            format!("{a}+{b}"),
            serial.to_string(),
            r3(s_leftover),
            r3(s_mixed),
            r3(leftover as f64 / mixed as f64),
        ]);
    }
    let mut s = Table::new("E8 summary", &["metric", "value"]);
    s.push_row(vec![
        "mixed-vs-serial-geomean".into(),
        r3(geo.powf(1.0 / PAIRS.len() as f64)),
    ]);
    vec![t, s]
}

#[cfg(test)]
mod tests {
    use super::super::tests::tables;
    use super::*;

    #[test]
    fn cke_table_builds() {
        let tables = tables("e8");
        assert_eq!(tables[0].len(), PAIRS.len());
        for v in tables[0].column_f64("mixed-speedup") {
            assert!(v > 0.5, "mixed CKE must not catastrophically regress");
        }
    }
}
