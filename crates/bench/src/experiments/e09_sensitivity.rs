//! E9 — sensitivity of the two mechanisms to their single knob each:
//! LCS's issue-count threshold `gamma` and BCS's block size.

use super::{baseline, r3, Runs};
use crate::{Harness, RunSpec, Table};
use tbs_core::{CtaPolicy, WarpPolicy};

/// `gamma` values swept.
pub const GAMMAS: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];
/// Block sizes swept.
pub const BLOCKS: [u32; 3] = [1, 2, 4];

const LCS_SUITE: [&str; 4] = ["vecadd", "spmv-ell", "gather", "fmaheavy"];
const BCS_SUITE: [&str; 3] = ["stencil2d", "hotspot", "vecadd"];

/// One row of the `gamma` table: the baseline, then LCS at each `gamma`.
fn gamma_row(h: &Harness, name: &str) -> Vec<RunSpec> {
    let lcs = GAMMAS.map(|g| RunSpec::single(h, name, WarpPolicy::Gto, CtaPolicy::Lcs(g)));
    [baseline(h, name)].into_iter().chain(lcs).collect()
}

/// One row of the block-size table: the baseline, then BCS+BAWS at each
/// block size.
fn block_row(h: &Harness, name: &str) -> Vec<RunSpec> {
    let bcs = BLOCKS.map(|b| RunSpec::single(h, name, WarpPolicy::Baws(b), CtaPolicy::Bcs(b)));
    [baseline(h, name)].into_iter().chain(bcs).collect()
}

/// Every row of both tables.
pub(crate) fn plan(h: &Harness) -> Vec<RunSpec> {
    let gamma = LCS_SUITE.iter().flat_map(|name| gamma_row(h, name));
    gamma.chain(BCS_SUITE.iter().flat_map(|name| block_row(h, name))).collect()
}

/// Speedups over the GTO baseline across each knob's sweep.
pub(crate) fn tabulate(h: &Harness, runs: &Runs) -> Vec<Table> {
    let gammas = GAMMAS.map(|g| format!("gamma-{g}"));
    let blocks = BLOCKS.map(|b| format!("block-{b}"));
    vec![
        sweep_table("E9a: LCS speedup vs gamma", &gammas, &LCS_SUITE, runs, |name| {
            gamma_row(h, name)
        }),
        sweep_table("E9b: BCS+BAWS speedup vs block size", &blocks, &BCS_SUITE, runs, |name| {
            block_row(h, name)
        }),
    ]
}

/// One row per workload of `suite`: every run of its `row` after the
/// first, the baseline, as a speedup over that baseline.
fn sweep_table(
    title: &str,
    swept: &[String],
    suite: &[&str],
    runs: &Runs,
    row: impl Fn(&str) -> Vec<RunSpec>,
) -> Table {
    let mut cols = vec!["workload"];
    cols.extend(swept.iter().map(String::as_str));
    let mut t = Table::new(title, &cols);
    for name in suite {
        let cycles: Vec<f64> = row(name).iter().map(|s| runs.get(s).cycles() as f64).collect();
        let mut cells = vec![name.to_string()];
        cells.extend(cycles[1..].iter().map(|c| r3(cycles[0] / c)));
        t.push_row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::super::tests::tables;
    use super::*;

    #[test]
    fn sensitivity_tables_build() {
        let tables = tables("e9");
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), LCS_SUITE.len());
        assert_eq!(tables[1].len(), BCS_SUITE.len());
    }
}
