//! Tier-1 runs the simulation fuzzer over a fixed seed window, as
//! `exp fuzz --seeds 0..280` does: each seed is a DSL-generated kernel in
//! a random CTA shape, held to the simcheck oracles (fast path vs
//! reference loop, repeat-run identity, CPU-mirrored memory under every
//! CTA policy, conservation). The window is deterministic, so a failing
//! seed fails the same way on any machine. The failure message prints
//! each seed's shrunk reproducer; save it to a file and replay it with
//! `exp fuzz --repro FILE`.

use gpgpu_bench::cli::FuzzArgs;
use gpgpu_bench::simcheck::fuzz_seeds;
use gpgpu_bench::Harness;

#[test]
fn seeds_0_to_280_pass_every_oracle() {
    let budget = FuzzArgs::default().budget_cycles;
    let report = fuzz_seeds(0, 280, budget, Harness::default().jobs);
    let failures: Vec<String> = report
        .failures
        .iter()
        .map(|f| {
            let shrunk: Vec<String> = f.shrunk_failures.iter().map(|x| format!("  {x}")).collect();
            format!(
                "seed {} failed {} oracle check(s); shrunk reproducer:\n{}\nwhich fails:\n{}",
                f.seed,
                f.failures.len(),
                f.shrunk.to_repro(),
                shrunk.join("\n")
            )
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
