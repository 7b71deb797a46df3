//! E11 — generated-family sweep: the DSL workload families
//! (`gpgpu_workloads::families`) under the paper's schedulers.
//!
//! The suite fixes 14 points in workload space; the
//! families span it parametrically. This experiment sweeps one
//! representative member per axis — coalesced and strided streams, a
//! cache-resident tile kernel with and without shared-memory occupancy
//! pressure, a divergent compute kernel, and a fully random DSL kernel —
//! under the baseline, LCS, and BCS, checking that the class-dependent
//! policy behavior the paper reports on real kernels carries over to
//! generated ones. Every run verifies against the DSL's CPU mirror, so
//! the table only ever shows functionally-correct simulations.

use super::{r3, Runs};
use crate::{Harness, RunSpec, Table};
use tbs_core::{CtaPolicy, WarpPolicy};

/// The swept family members, one `gen:` name per row of the table.
/// Names are content keys: editing a knob here changes the run identity
/// (and rightly invalidates stored results for that row).
pub const FAMILY_SWEEP: [&str; 6] = [
    "gen:stream/stride=1,ffma=8",
    "gen:stream/stride=33",
    "gen:tile/reuse=32",
    "gen:tile/reuse=32,pad=16",
    "gen:diverge/frac=4,work=64",
    "gen:rand/seed=7,segs=8",
];

/// One table row: family member `name` under the baseline, LCS, and BCS.
fn row(h: &Harness, name: &str) -> [RunSpec; 3] {
    [CtaPolicy::Baseline(None), CtaPolicy::Lcs(0.7), CtaPolicy::Bcs(4)]
        .map(|cta| RunSpec::single(h, name, WarpPolicy::Gto, cta))
}

/// Every family member's row.
pub(crate) fn plan(h: &Harness) -> Vec<RunSpec> {
    FAMILY_SWEEP.iter().flat_map(|name| row(h, name)).collect()
}

/// Baseline IPC per family, plus each alternative policy's speedup over
/// the baseline.
pub(crate) fn tabulate(h: &Harness, runs: &Runs) -> Vec<Table> {
    let mut t = Table::new(
        "E11: generated-family sweep (DSL workloads)",
        &["family", "class", "base-ipc", "lcs-speedup", "bcs-speedup"],
    );
    for name in FAMILY_SWEEP {
        let class = gpgpu_workloads::by_name(name, h.scale)
            .expect("swept family parses")
            .class()
            .to_string();
        let [base, lcs, bcs] = row(h, name).map(|s| runs.get(&s));
        t.push_row(vec![
            name.to_string(),
            class,
            r3(base.ipc()),
            r3(base.cycles() as f64 / lcs.cycles() as f64),
            r3(base.cycles() as f64 / bcs.cycles() as f64),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::super::tests::tables;
    use super::*;

    #[test]
    fn swept_families_all_parse() {
        for name in FAMILY_SWEEP {
            assert!(
                gpgpu_workloads::by_name(name, gpgpu_workloads::Scale::Tiny).is_some(),
                "{name} must resolve"
            );
        }
    }

    #[test]
    fn family_sweep_builds() {
        let tables = tables("e11");
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), FAMILY_SWEEP.len());
    }
}
