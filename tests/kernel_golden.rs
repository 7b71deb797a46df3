//! Golden listing of every suite kernel.
//!
//! For each workload of the suite at Tiny and at Small scale, the golden
//! file `ci/golden/kernels.txt` records the launch descriptor, the full
//! disassembly, and an FNV-1a hash of the program's `Debug` form (so no
//! instruction field can change without the listing noticing). Kernel
//! rewrites — a new front end, a refactored helper — must leave this file
//! byte-identical.
//!
//! On a mismatch the test writes the listing it produced next to the test
//! binary's scratch directory and names that file in the failure message;
//! after an intended change, copy it over `ci/golden/kernels.txt`.

use gpgpu_repro::sim::GlobalMem;
use gpgpu_repro::workloads::{suite, Scale};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("../ci/golden/kernels.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn listing() -> String {
    let mut out = String::new();
    for (label, scale) in [("tiny", Scale::Tiny), ("small", Scale::Small)] {
        for mut w in suite(scale) {
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
