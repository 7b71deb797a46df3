//! Hostile configuration input on the wire: an NDJSON `submit` whose GPU
//! config is out of range or inconsistent must fail to decode, before
//! anything sizes an allocation from it. These tests stop at decoding and
//! never build a device.

use gpgpu_bench::json::Json;
use gpgpu_bench::service::{request_from_json, request_to_json, Request};
use gpgpu_bench::{Harness, RunSpec};
use gpgpu_mem::config::leaves;
use gpgpu_mem::{Config, Value};
use gpgpu_sim::GpuConfig;
use gpgpu_testkit::Gen;
use tbs_core::{CtaPolicy, WarpPolicy};

fn submit(gpu: GpuConfig) -> Json {
    let mut spec = RunSpec::single(
        &Harness::quick(),
        "vecadd",
        WarpPolicy::Gto,
        CtaPolicy::Baseline(None),
    );
    spec.gpu = gpu;
    request_to_json(&Request::Submit(vec![spec]))
}

/// `doc` with the knob at dotted `path` of its one spec's `gpu` set to `v`.
fn with_knob(mut doc: Json, path: &str, v: u64) -> Json {
    let mut at = &mut doc;
    for key in ["specs", "0", "gpu"].into_iter().chain(path.split('.')) {
        at = match at {
            Json::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
            Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).expect(key).1,
            other => panic!("no {key} in {other:?}"),
        };
    }
    *at = Json::UInt(v);
    // Round-trip through text, as a line off the wire would arrive.
    Json::parse(&doc.render()).unwrap()
}

fn decode(doc: &Json) -> Result<Vec<RunSpec>, String> {
    match request_from_json(doc) {
        Ok(Request::Submit(specs)) => Ok(specs),
        Ok(other) => panic!("decoded as {other:?}"),
        Err(e) => Err(e.0),
    }
}

#[test]
fn out_of_range_and_inconsistent_knobs_are_rejected() {
    let base = submit(GpuConfig::fermi());
    assert!(decode(&base).is_ok());
    let cases = [
        (
            "fabric.dram.banks",
            4_000_000_000,
            "fabric.dram.banks must be 1..=64",
        ),
        ("num_cores", 0, "num_cores must be 1..=128"),
        (
            "fabric.xbar_flit_bytes",
            0,
            "fabric.xbar_flit_bytes must be 1..=1024",
        ),
        (
            "fabric.cores",
            14,
            "fabric core-port count must match num_cores",
        ),
        (
            "l1.size_bytes",
            16_000,
            "l1.size_bytes: capacity must be a whole number of sets",
        ),
        (
            "fabric.l2.line_bytes",
            64,
            "fabric.l2.line_bytes: L2 line size mismatch",
        ),
        (
            "fabric.dram.row_bytes",
            2000,
            "fabric.dram.row_bytes: must be a multiple",
        ),
        ("fabric.dram.t_cas", 1 << 32, "\"t_cas\" exceeds its type"),
    ];
    for (path, v, want) in cases {
        let e = decode(&with_knob(base.clone(), path, v)).expect_err(path);
        assert!(e.contains(want), "{path} = {v}: {e}");
    }
}

#[test]
fn every_knob_is_rejected_past_its_documented_bounds() {
    let base = submit(GpuConfig::fermi());
    let mut tried = 0;
    for (path, knob, value) in leaves(&GpuConfig::fermi()) {
        let range = knob.range.clone().expect("leaves have ranges");
        if matches!(value, Value::Bool(_)) {
            continue;
        }
        let mut outside = vec![range.end() + 1];
        outside.extend(range.start().checked_sub(1));
        for v in outside {
            let e = decode(&with_knob(base.clone(), &path, v)).expect_err(&path);
            assert!(
                e.contains(&format!("{path} must be {range:?}")),
                "{path} = {v}: {e}"
            );
            tried += 1;
        }
    }
    assert!(tried > 47, "{tried} bounds tried");
}

/// Every configuration the repository runs decodes: the presets, E10's L1
/// sizes, the engine test's doubled L1, the golden-identity tweaks and
/// the other tests' variants.
#[test]
fn configs_the_repository_runs_decode() {
    let mut variants: Vec<GpuConfig> = vec![GpuConfig::fermi(), GpuConfig::test_small()];
    let mut tweak = |f: &dyn Fn(&mut GpuConfig)| {
        let mut g = GpuConfig::fermi();
        f(&mut g);
        variants.push(g);
    };
    for kib in [4, 16, 32, 48] {
        tweak(&|g| g.l1.size_bytes = kib * 1024);
    }
    tweak(&|g| g.l1.mshr_entries = 2);
    tweak(&|g| g.fabric.l2.mshr_entries = 2);
    tweak(&|g| {
        g.l1.write_back = true;
        g.l1.write_allocate = true;
        g.l1.miss_queue_len = 1;
        g.flush_l1_on_kernel_launch = false;
    });
    tweak(&|g| {
        g.max_warps_per_core = 64;
        g.max_threads_per_core = 2048;
        g.max_ctas_per_core = 32;
        g.regfile_per_core *= 2;
        g.deadlock_cycles = 1_000;
    });
    for g in variants {
        let specs = decode(&submit(g.clone())).unwrap_or_else(|e| panic!("{e}: {g:?}"));
        assert_eq!(specs[0].gpu, g);
    }
}

/// A seeded byte-mutation loop over a real `submit` line: decoding never
/// panics, and every spec it accepts carries a config that passes
/// `check`.
#[test]
fn mutated_submit_lines_are_rejected_or_valid() {
    let text = submit(GpuConfig::fermi()).render();
    let alphabet = b"0123456789{}[]:,\"-.etrufals ";
    let mut g = Gen::new(0xC0F1_6B17);
    let (mut accepted, mut rejected_config) = (0, 0);
    for _ in 0..2_000 {
        let mut bytes = text.clone().into_bytes();
        for _ in 0..g.range(1, 4) {
            let i = g.index(bytes.len());
            match g.range(0, 3) {
                0 => bytes[i] = g.next_u32() as u8,
                1 => {
                    bytes.remove(i);
                }
                _ => bytes.insert(i, *g.choose(alphabet)),
            }
        }
        let Ok(doc) = Json::parse(&String::from_utf8_lossy(&bytes)) else {
            continue;
        };
        match request_from_json(&doc) {
            Ok(Request::Submit(specs)) => {
                for s in specs {
                    assert_eq!(s.gpu.check(), Ok(()), "{}", String::from_utf8_lossy(&bytes));
                }
                accepted += 1;
            }
            Ok(_) => accepted += 1,
            Err(e) => rejected_config += usize::from(e.0.contains("invalid gpu config")),
        }
    }
    // The loop must exercise both outcomes, and reach `check`, to mean
    // anything.
    assert!(
        (1..2_000).contains(&accepted),
        "{accepted} mutants accepted"
    );
    assert!(rejected_config > 0, "no mutant failed the config check");
}
