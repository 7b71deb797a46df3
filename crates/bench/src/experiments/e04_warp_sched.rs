//! E4 — warp-scheduler comparison (motivation): LRR vs GTO vs two-level
//! under the baseline CTA scheduler, normalized to LRR. GTO is the
//! reference point the paper's LCS builds on.

use super::{all_names, r3, Runs};
use crate::{Harness, RunSpec, Table};
use tbs_core::{CtaPolicy, WarpPolicy};

/// One table row: `name` under LRR, GTO and two-level warp scheduling.
fn row(h: &Harness, name: &str) -> [RunSpec; 3] {
    [WarpPolicy::Lrr, WarpPolicy::Gto, WarpPolicy::TwoLevel(8)]
        .map(|warp| RunSpec::single(h, name, warp, CtaPolicy::Baseline(None)))
}

/// Every suite member's row.
pub(crate) fn plan(h: &Harness) -> Vec<RunSpec> {
    all_names(h).iter().flat_map(|name| row(h, name)).collect()
}

/// Tabulates the suite under each warp scheduler.
pub(crate) fn tabulate(h: &Harness, runs: &Runs) -> Vec<Table> {
    let mut t = Table::new(
        "E4: warp schedulers, IPC normalized to LRR (baseline CTA scheduler)",
        &["workload", "class", "lrr-ipc", "gto", "two-level", "gto-wins"],
    );
    let mut gto_geomean = 1.0f64;
    let mut n = 0u32;
    for name in all_names(h) {
        let class = gpgpu_workloads::by_name(&name, h.scale)
            .expect("suite member")
            .class();
        let [lrr, gto, two] = row(h, &name).map(|s| runs.get(&s));
        let gto_rel = lrr.cycles() as f64 / gto.cycles() as f64;
        let two_rel = lrr.cycles() as f64 / two.cycles() as f64;
        gto_geomean *= gto_rel;
        n += 1;
        t.push_row(vec![
            name.clone(),
            class.to_string(),
            r3(lrr.ipc()),
            r3(gto_rel),
            r3(two_rel),
            (gto_rel >= 1.0 && gto_rel >= two_rel).to_string(),
        ]);
    }
    let mut summary = Table::new("E4 summary", &["metric", "value"]);
    summary.push_row(vec![
        "gto-vs-lrr-geomean".into(),
        r3(gto_geomean.powf(1.0 / f64::from(n))),
    ]);
    vec![t, summary]
}

#[cfg(test)]
mod tests {
    use super::super::tests::tables;

    #[test]
    fn comparison_covers_suite() {
        let tables = tables("e4");
        assert_eq!(tables[0].len(), 14);
        assert_eq!(tables[1].len(), 1);
    }
}
