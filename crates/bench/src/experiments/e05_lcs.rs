//! E5 — the LCS headline result: speedup of LCS over the baseline
//! (hardware-maximum CTAs, GTO), compared with the static-*oracle* limit
//! (best value from an offline sweep), plus the `lcs-lrr` ablation showing
//! the estimate needs its greedy sensor scheduler.

use super::{all_names, baseline, limit_sweep, oracle, r3, Runs};
use crate::{Harness, RunSpec, Table};
use tbs_core::{CtaPolicy, WarpPolicy};

/// The runs one table row needs beyond `name`'s [`limit_sweep`]: LCS,
/// the LRR baseline and LCS fed by LRR issue counts (the sensor
/// ablation), and the DYNCTA-style adaptive comparator.
pub(crate) fn row(h: &Harness, name: &str) -> [RunSpec; 4] {
    [
        RunSpec::single(h, name, WarpPolicy::Gto, CtaPolicy::Lcs(0.7)),
        RunSpec::single(h, name, WarpPolicy::Lrr, CtaPolicy::Baseline(None)),
        RunSpec::single(h, name, WarpPolicy::Lrr, CtaPolicy::Lcs(0.7)),
        RunSpec::single(h, name, WarpPolicy::Gto, CtaPolicy::Dyncta),
    ]
}

/// Every suite member's limit sweep and row.
pub(crate) fn plan(h: &Harness) -> Vec<RunSpec> {
    all_names(h)
        .iter()
        .flat_map(|name| limit_sweep(h, name).into_iter().chain(row(h, name)))
        .collect()
}

/// LCS, oracle, ablation and DYNCTA speedups per suite member, and their
/// geomeans.
pub(crate) fn tabulate(h: &Harness, runs: &Runs) -> Vec<Table> {
    let mut t = Table::new(
        "E5: LCS speedup over baseline (GTO, max CTAs); oracle = best static limit",
        &["workload", "class", "base-cycles", "lcs", "oracle", "oracle-limit", "lcs-lrr", "dyncta"],
    );
    let names = all_names(h);
    let (mut g_lcs, mut g_oracle) = (1.0f64, 1.0f64);
    for name in &names {
        let class = gpgpu_workloads::by_name(name, h.scale)
            .expect("suite member")
            .class();
        let base = runs.get(&baseline(h, name)).cycles();
        let [lcs, lrr_base, lcs_lrr, dyncta] = row(h, name).map(|s| runs.get(&s).cycles() as f64);
        let (oracle_limit, oracle_cycles) = oracle(h, runs, name);
        let speedup = |cycles: f64| base as f64 / cycles;
        g_lcs *= speedup(lcs);
        g_oracle *= speedup(oracle_cycles as f64);
        t.push_row(vec![
            name.clone(),
            class.to_string(),
            base.to_string(),
            r3(speedup(lcs)),
            r3(speedup(oracle_cycles as f64)),
            oracle_limit.map_or("max".to_string(), |l| l.to_string()),
            r3(lrr_base / lcs_lrr),
            r3(speedup(dyncta)),
        ]);
    }
    let n = names.len() as f64;
    let mut s = Table::new("E5 summary (geomean speedups)", &["metric", "value"]);
    s.push_row(vec!["lcs-geomean".into(), r3(g_lcs.powf(1.0 / n))]);
    s.push_row(vec!["oracle-geomean".into(), r3(g_oracle.powf(1.0 / n))]);
    vec![t, s]
}

#[cfg(test)]
mod tests {
    use super::super::tests::tables;

    #[test]
    fn lcs_experiment_shapes() {
        let tables = tables("e5");
        let t = &tables[0];
        assert_eq!(t.len(), 14);
        let (lcs, oracle) = (t.column_f64("lcs"), t.column_f64("oracle"));
        for i in 0..t.len() {
            let name = t.cell(i, 0);
            assert!(lcs[i] > 0.5, "{name}: LCS must not halve performance");
            assert!(oracle[i] >= 0.999, "{name}: oracle can never lose to base");
        }
    }
}
