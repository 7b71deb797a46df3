//! Golden listing of every suite kernel and of the seeded random kernels.
//!
//! For each workload of the suite at Tiny and at Small scale, and for a
//! fixed set of `gen:rand` members (the generator the fuzzer, E11 and the
//! benchmark draw from), the golden file `ci/golden/kernels.txt` records
//! the launch descriptor, the full
//! disassembly, and an FNV-1a hash of the program's `Debug` form (so no
//! instruction field can change without the listing noticing). Kernel
//! rewrites — a new front end, a refactored helper — must leave this file
//! byte-identical.
//!
//! On a mismatch the test writes the listing it produced next to the test
//! binary's scratch directory and names that file in the failure message;
//! after an intended change, copy it over `ci/golden/kernels.txt`.

use gpgpu_repro::sim::GlobalMem;
use gpgpu_repro::workloads::{by_name, suite, Scale, Workload};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("../ci/golden/kernels.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `gen:rand` seeds 0..8 at the default and at the largest segment count,
/// plus the member E11 sweeps.
fn rand_members(scale: Scale) -> Vec<Box<dyn Workload>> {
    let names = (0..8)
        .map(|s| format!("gen:rand/seed={s}"))
        .chain((0..8).map(|s| format!("gen:rand/seed={s},segs=16")))
        .chain(["gen:rand/seed=7,segs=8".to_string()]);
    names
        .map(|n| by_name(&n, scale).expect("valid gen:rand name"))
        .collect()
}

fn listing() -> String {
    let mut out = String::new();
    for (label, scale) in [("tiny", Scale::Tiny), ("small", Scale::Small)] {
        for mut w in suite(scale).into_iter().chain(rand_members(scale)) {
            let desc = w.prepare(&mut GlobalMem::new());
            let prog = desc.program();
            let hash = fnv1a(format!("{prog:?}").as_bytes());
            let _ = writeln!(out, "== {label} {} :: {desc}", w.name());
            let _ = writeln!(out, "fnv1a(debug) = {hash:016x}");
            out.push_str(&prog.disassemble());
        }
    }
    out
}

#[test]
fn suite_kernels_match_golden_listing() {
    let got = listing();
    if got != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("kernels.txt");
        std::fs::write(&path, &got).expect("write actual listing");
        let first = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(g, e)| g != e)
            .unwrap_or_else(|| got.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "kernel listing differs from ci/golden/kernels.txt at line {}; actual written to {}",
            first + 1,
            path.display()
        );
    }
}
