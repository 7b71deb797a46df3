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

use super::r3;
use crate::{Harness, RunEngine, RunSpec, Table};
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

/// The CTA policies each family runs under (label, policy).
fn policies() -> Vec<(&'static str, CtaPolicy)> {
    vec![
        ("baseline", CtaPolicy::Baseline(None)),
        ("lcs", CtaPolicy::Lcs(0.7)),
        ("bcs", CtaPolicy::Bcs(4)),
    ]
}

/// Every family under every policy.
pub(crate) fn plan(h: &Harness) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for name in FAMILY_SWEEP {
        for (_, cta) in policies() {
            specs.push(RunSpec::single(h, name, WarpPolicy::Gto, cta));
        }
    }
    specs
}

/// Runs the generated-family sweep on a fresh engine.
pub fn run(h: &Harness) -> Vec<Table> {
    let engine = h.engine();
    engine.execute_batch(&plan(h));
    collect(h, &engine)
}

/// Tabulates from memoized results: baseline IPC per family, plus each
/// alternative policy's speedup over the baseline.
pub(crate) fn collect(h: &Harness, engine: &RunEngine) -> Vec<Table> {
    let mut t = Table::new(
        "E11: generated-family sweep (DSL workloads)",
        &["family", "class", "base-ipc", "lcs-speedup", "bcs-speedup"],
    );
    for name in FAMILY_SWEEP {
        let class = gpgpu_workloads::by_name(name, h.scale)
            .expect("swept family parses")
            .class()
            .to_string();
        let base = engine.get(&RunSpec::single(
            h,
            name,
            WarpPolicy::Gto,
            CtaPolicy::Baseline(None),
        ));
        let lcs = engine.get(&RunSpec::single(h, name, WarpPolicy::Gto, CtaPolicy::Lcs(0.7)));
        let bcs = engine.get(&RunSpec::single(h, name, WarpPolicy::Gto, CtaPolicy::Bcs(4)));
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
        let tables = run(&Harness::quick());
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), FAMILY_SWEEP.len());
    }
}
