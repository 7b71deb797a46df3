//! Determinism and observation-only checks of the benchmark itself, at
//! Tiny scale: untraced twice and traced once per workload, the exact
//! simulated counters must agree, and the traced layer shares must be
//! possible ones.

use gpgpu_bench::json::Json;
use gpgpu_workloads::{by_name, Scale};
use perfbench::plan::{Launch, Workload};
use perfbench::{run, Options, Report};
use std::path::PathBuf;

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(workload.name()),
    }
}

fn run_ok(workload: Workload, trace: bool) -> Report {
    let opts = options(workload, trace);
    std::fs::create_dir_all(&opts.scratch).expect("scratch directory");
    let r = run(&opts).expect("benchmark runs");
    assert!(
        r.correct(),
        "{} (trace {trace}) failed: {:?}",
        workload.name(),
        r.errors
    );
    assert!(r.attempted > 0);
    r
}

/// The metric names `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list")
    };
    items
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_reports(r: &Report, section: &str) {
    let printed: Vec<(String, String)> = r
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(
        printed,
        declared(section),
        "printed metrics must match BENCHMARK.json {section}"
    );
}

fn check(workload: Workload) {
    let a = run_ok(workload, false);
    let b = run_ok(workload, false);
    let t = run_ok(workload, true);
    assert_eq!(
        a.simulated, b.simulated,
        "simulated counters repeat exactly"
    );
    assert_eq!(
        a.simulated, t.simulated,
        "tracing changes no simulated counter"
    );
    for name in ["lcs_speedup", "bcs_speedup", "cke_speedup"] {
        assert!(a.simulated.contains_key(name), "{name} computed");
        assert_eq!(a.metric(name), a.simulated.get(name).copied());
    }
    assert_reports(&a, "end_to_end");
    assert_reports(&t, "per_layer");

    let m = |name| t.metric(name).unwrap_or_else(|| panic!("{name} reported"));
    assert!(m("sim.device.self_s") >= 0.0);
    let run_s = m("sim.device.run_s");
    for share in [
        m("sim.functional_share"),
        m("mem.est_share"),
        m("core.cta_sched.busy_s") / run_s,
        m("core.warp_sched.busy_s") / run_s,
        m("core.cta_sched.dispatch_frac"),
        m("core.warp_sched.issue_frac"),
    ] {
        assert!(share <= 1.0, "a layer's share cannot exceed 1: {share}");
    }
    let store_used = m("bench.engine.replayed") > 0.0;
    assert_eq!(store_used, workload == Workload::ReplayStore);
}

#[test]
fn mem_policies_is_deterministic_and_observation_only() {
    check(Workload::MemPolicies);
}

#[test]
fn compute_policies_is_deterministic_and_observation_only() {
    check(Workload::ComputePolicies);
}

#[test]
fn replay_store_is_deterministic_and_observation_only() {
    check(Workload::ReplayStore);
}

#[test]
fn seeds_change_only_generated_kernels() {
    for w in Workload::ALL {
        let (a, b) = (w.units(1), w.units(2));
        assert_eq!(a, w.units(1), "same seed, same run set");
        assert_eq!(a.len(), b.len());
        let mut differs = false;
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seeded, y.seeded);
            assert_eq!(x.policy, y.policy);
            if x.seeded {
                differs |= x.launch != y.launch;
            } else {
                assert_eq!(
                    x.launch, y.launch,
                    "suite kernels do not depend on the seed"
                );
            }
            for name in x.launch.names() {
                assert!(by_name(name, Scale::Small).is_some(), "{name} resolves");
                assert_eq!(name.starts_with("gen:"), x.seeded);
            }
        }
        assert!(
            differs,
            "{}: the seed reaches the generated kernels",
            w.name()
        );
        assert!(a.iter().any(|u| matches!(u.launch, Launch::Pair { .. })));
    }
}
