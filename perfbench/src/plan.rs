//! The three workloads: which kernels run under which policies.
//!
//! Every workload is a fixed list of suite kernels (these alone feed the
//! speedup metrics, so the speedups are identical for every seed) plus
//! seed-derived generated kernels (`gen:` names), which add host-time
//! load and output checks that a later claim can be re-run against on a
//! seed not used while writing it.

use gpgpu_bench::{Harness, RunSpec};
use gpgpu_workloads::SplitMix64;
use std::fmt;
use std::str::FromStr;
use tbs_core::{CtaPolicy, WarpPolicy};

/// A warp policy paired with a CTA policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    /// Warp scheduler.
    pub warp: WarpPolicy,
    /// CTA scheduler.
    pub cta: CtaPolicy,
}

const fn policy(warp: WarpPolicy, cta: CtaPolicy) -> Policy {
    Policy { warp, cta }
}

/// The reference point: GTO warp scheduling, round-robin CTA dispatch.
pub const BASELINE: Policy = policy(WarpPolicy::Gto, CtaPolicy::Baseline(None));
/// Lazy CTA scheduling at the paper's threshold.
pub const LCS: Policy = policy(WarpPolicy::Gto, CtaPolicy::Lcs(0.7));
/// Block CTA scheduling with the block-aware warp scheduler.
pub const BCS: Policy = policy(WarpPolicy::Baws(2), CtaPolicy::Bcs(2));
/// Mixed concurrent kernel execution.
pub const MIXED_CKE: Policy = policy(WarpPolicy::Gto, CtaPolicy::MixedCke(0.7));

/// What one simulation launches.
#[derive(Debug, Clone, PartialEq)]
pub enum Launch {
    /// One kernel alone.
    Single(String),
    /// Two kernels on one device: `b` after `a` when `serial`, else both
    /// at cycle 0.
    Pair {
        /// First kernel.
        a: String,
        /// Second kernel.
        b: String,
        /// Launch `b` only after `a` completes.
        serial: bool,
    },
}

impl Launch {
    /// The workload names, in launch order.
    pub fn names(&self) -> Vec<&str> {
        match self {
            Launch::Single(n) => vec![n],
            Launch::Pair { a, b, .. } => vec![a, b],
        }
    }
}

/// One simulation of a workload's run set.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// What it launches.
    pub launch: Launch,
    /// Under which policies.
    pub policy: Policy,
    /// Whether the kernels come from the seed (excluded from speedups).
    pub seeded: bool,
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.launch {
            Launch::Single(n) => write!(f, "{n}")?,
            Launch::Pair { a, b, serial } => {
                write!(f, "{a}+{b}{}", if *serial { " (serial)" } else { "" })?
            }
        }
        write!(f, " under {}/{}", self.policy.warp, self.policy.cta)
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Memory- and cache-bound kernels under baseline, LCS and BCS+BAWS,
    /// plus a CKE pair.
    MemPolicies,
    /// Compute-bound kernels under baseline, LCS and BCS+BAWS, plus a CKE
    /// pair.
    ComputePolicies,
    /// A CTA-limit sweep through the run engine with replay and a result
    /// store: a cold pass, then a warm pass that replays every run.
    ReplayStore,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::MemPolicies,
        Workload::ComputePolicies,
        Workload::ReplayStore,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MemPolicies => "mem-policies",
            Workload::ComputePolicies => "compute-policies",
            Workload::ReplayStore => "replay-store",
        }
    }

    /// The run set for `seed`.
    pub fn units(self, seed: u64) -> Vec<Unit> {
        let mut rng = SplitMix64::new(seed ^ 0x5EED_BE4C_4A11_0000);
        let mut draw = |lo: u64, hi: u64| lo + rng.next_u64() % (hi - lo + 1);
        let mut units = Vec::new();
        // Each run set takes 20-40 s of host time at Small scale, so one
        // pass fits a benchmark run; spmv-ell, the paper's LCS and BCS
        // showcase, takes over half of mem-policies.
        //
        // The seed draws only knobs that leave the work unchanged, so host
        // times compare across seeds: a stream stride of at least 32 words
        // puts every lane on its own line, and one coprime to the 3 * 2^16
        // elements of a Small stream reads each element once; a tile
        // stride moves which shared words a warp reads, never how many or
        // with how many bank conflicts.
        let policies = [BASELINE, LCS, BCS];
        match self {
            Workload::MemPolicies => {
                let stream = format!("gen:stream/stride={},ffma=4", 6 * draw(6, 15) + 1);
                singles(&mut units, &["spmv-ell", "stencil2d"], &policies, false);
                pair(&mut units, "gather", "kmeansdist");
                singles(&mut units, &[&stream], &policies, true);
            }
            Workload::ComputePolicies => {
                let tile = format!("gen:tile/reuse=8,stride={},pad=2", draw(1, 16));
                let kernels = ["fmaheavy", "kmeansdist", "matmul-naive", "matmul-tiled"];
                singles(&mut units, &kernels, &policies, false);
                pair(&mut units, "kmeansdist", "fmaheavy");
                singles(&mut units, &[&tile], &policies, true);
            }
            Workload::ReplayStore => {
                // Every replay group (same kernels and warp policy) holds
                // at least two specs, so the cold pass captures each group
                // once and the warm pass can replay every run.
                let limit = |n| policy(WarpPolicy::Gto, CtaPolicy::Baseline(Some(n)));
                let baws_base = policy(WarpPolicy::Baws(2), CtaPolicy::Baseline(None));
                let sweep = [limit(1), limit(2), BASELINE, LCS, baws_base, BCS];
                singles(&mut units, &["stencil2d"], &sweep, false);
                let (a, b) = ("stencil2d", "kmeansdist");
                pair(&mut units, a, b);
                for (serial, p) in [
                    (true, LCS),
                    (false, policy(WarpPolicy::Gto, CtaPolicy::LeftoverCke)),
                ] {
                    let launch = Launch::Pair {
                        a: a.into(),
                        b: b.into(),
                        serial,
                    };
                    units.push(Unit {
                        launch,
                        policy: p,
                        seeded: false,
                    });
                }
                // The one kernel whose work the seed changes, so it runs
                // only twice: a capture and a replay per pass.
                let rand = format!("gen:rand/seed={seed}");
                singles(&mut units, &[&rand], &[BASELINE, LCS], true);
            }
        }
        units
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {s:?} (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

fn singles(units: &mut Vec<Unit>, kernels: &[&str], policies: &[Policy], seeded: bool) {
    for k in kernels {
        for &p in policies {
            units.push(Unit {
                launch: Launch::Single(k.to_string()),
                policy: p,
                seeded,
            });
        }
    }
}

/// The CKE comparison: the pair run back to back under the baseline, and
/// concurrently under mixed CKE.
fn pair(units: &mut Vec<Unit>, a: &str, b: &str) {
    for (serial, p) in [(true, BASELINE), (false, MIXED_CKE)] {
        let launch = Launch::Pair {
            a: a.into(),
            b: b.into(),
            serial,
        };
        units.push(Unit {
            launch,
            policy: p,
            seeded: false,
        });
    }
}

/// The engine spec of `unit` under `harness`.
pub fn spec(harness: &Harness, unit: &Unit) -> RunSpec {
    let Policy { warp, cta } = unit.policy;
    match &unit.launch {
        Launch::Single(name) => RunSpec::single(harness, name, warp, cta),
        Launch::Pair { a, b, serial } => RunSpec::pair(harness, a, b, warp, cta, *serial),
    }
}

/// Geometric mean, over the fixed units run under `other` (pairs when
/// `pairs`, else single kernels), of baseline device cycles divided by
/// the unit's cycles. A pair's baseline is the same pair run serially.
pub fn speedup(units: &[Unit], cycles: &[u64], other: Policy, pairs: bool) -> Option<f64> {
    let logs: Vec<f64> = units
        .iter()
        .zip(cycles)
        .filter(|(u, _)| {
            !u.seeded && u.policy == other && matches!(u.launch, Launch::Pair { .. }) == pairs
        })
        .filter_map(|(u, &c)| {
            let base_launch = match &u.launch {
                Launch::Pair { a, b, .. } => Launch::Pair {
                    a: a.clone(),
                    b: b.clone(),
                    serial: true,
                },
                single => single.clone(),
            };
            let j = units
                .iter()
                .position(|b| !b.seeded && b.policy == BASELINE && b.launch == base_launch)?;
            Some((cycles[j] as f64 / c as f64).ln())
        })
        .collect();
    (!logs.is_empty()).then(|| (logs.iter().sum::<f64>() / logs.len() as f64).exp())
}
