//! E6 — how close LCS's online estimate gets to the oracle limit: the
//! per-core limits LCS decided during the run versus the best static limit
//! from an offline sweep.

use super::e03_cta_sweep::SWEEP_SUITE;
use super::{baseline, limit_sweep, oracle, r3, Runs};
use crate::{Harness, RunSpec, Table};
use gpgpu_workloads::by_name;
use tbs_core::{CtaPolicy, WarpPolicy};

/// The run one table row needs beyond `name`'s [`limit_sweep`]: LCS,
/// whose result carries the limits it decided.
fn lcs(h: &Harness, name: &str) -> RunSpec {
    RunSpec::single(h, name, WarpPolicy::Gto, CtaPolicy::Lcs(0.7))
}

/// E3's workloads: each one's LCS run and limit sweep.
pub(crate) fn plan(h: &Harness) -> Vec<RunSpec> {
    SWEEP_SUITE
        .iter()
        .flat_map(|name| std::iter::once(lcs(h, name)).chain(limit_sweep(h, name)))
        .collect()
}

/// The per-core limits LCS decided next to the oracle's (the engine
/// captures them on every LCS run, so no device access is needed here).
pub(crate) fn tabulate(h: &Harness, runs: &Runs) -> Vec<Table> {
    let mut t = Table::new(
        "E6: LCS-decided per-core CTA limit vs the static oracle",
        &[
            "workload", "hw-max", "lcs-min", "lcs-median", "lcs-max", "oracle-limit",
            "oracle-speedup",
        ],
    );
    for name in SWEEP_SUITE {
        let lcs = runs.get(&lcs(h, name));
        // Occupancy limit for context.
        let mut scratch = gpgpu_sim::GlobalMem::new();
        let desc = by_name(name, h.scale).expect("member").prepare(&mut scratch);
        let hw_max = gpgpu_sim::core_model::Core::hw_max_ctas(&h.gpu, &desc);

        // The utilization guard reports u32::MAX ("keep the hardware
        // maximum"); clamp for display.
        let mut limits: Vec<u32> = lcs
            .lcs_limits
            .as_ref()
            .expect("LCS run carries decided limits")
            .iter()
            .map(|&l| l.min(hw_max))
            .collect();
        limits.sort_unstable();
        let (lo, med, hi) = if limits.is_empty() {
            (0, 0, 0)
        } else {
            (
                limits[0],
                limits[limits.len() / 2],
                *limits.last().expect("nonempty"),
            )
        };

        let base = runs.get(&baseline(h, name)).cycles();
        let (oracle_limit, oracle_cycles) = oracle(h, runs, name);
        t.push_row(vec![
            name.to_string(),
            hw_max.to_string(),
            lo.to_string(),
            med.to_string(),
            hi.to_string(),
            oracle_limit.map_or(format!("max({hw_max})"), |l| l.to_string()),
            r3(base as f64 / oracle_cycles as f64),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::super::tests::tables;
    use super::*;

    #[test]
    fn accuracy_table_builds() {
        assert_eq!(tables("e6")[0].len(), SWEEP_SUITE.len());
    }
}
