//! simcheck acceptance tests: a clean seed window under the real
//! schedulers, and the fault-injection demo — an injected CTA-scheduler
//! bug must be caught by an oracle, shrunk, and serialized to a
//! reproducer under 20 lines.

use gpgpu_bench::simcheck::{
    check_case, check_case_with, fuzz_seeds, run_case, shrink, FuzzCase, StarvingCta,
};
use tbs_core::CtaPolicy;

/// A hand-rolled tiny case so debug-profile runs stay fast: three
/// two-thread CTAs of a one-segment generated kernel, no shared memory or
/// divergence, and a small budget so a wedged device deadlocks quickly.
fn tiny_case() -> FuzzCase {
    let mut c = FuzzCase::generate(0, 4_000);
    c.warp = "lrr".to_string();
    c.k1.grid = (3, 1);
    c.k1.block = (2, 1);
    c.k2 = None;
    c.segs = 1;
    c.smem = false;
    c.divergent = false;
    c.max_ctas = 4;
    c.validate().expect("tiny case is well-formed");
    c
}

#[test]
fn clean_seeds_pass_every_oracle() {
    let case = FuzzCase::generate(0, 1_000_000);
    let failures = check_case(&case);
    assert!(failures.is_empty(), "seed 0 must be clean: {failures:?}");
}

#[test]
fn fuzz_results_do_not_depend_on_job_count() {
    let serial = fuzz_seeds(1, 3, 1_000_000, 1);
    let parallel = fuzz_seeds(1, 3, 1_000_000, 4);
    assert!(serial.oracle_runs > 0);
    assert_eq!(serial.oracle_runs, parallel.oracle_runs);
    assert_eq!(serial.failures.len(), parallel.failures.len());
    for (a, b) in serial.failures.iter().zip(&parallel.failures) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.shrunk, b.shrunk);
    }
}

/// The issue's acceptance demo: wrap every policy the oracle stack builds
/// in [`StarvingCta`] (withholds each kernel's final CTA — a plausible
/// off-by-one in a real policy), watch an oracle catch it, then shrink the
/// case against the cheap single-run predicate and check the reproducer.
#[test]
fn injected_scheduler_bug_is_caught_and_shrinks_to_a_short_reproducer() {
    let case = tiny_case();
    assert!(
        check_case(&case).is_empty(),
        "the case is clean under stock schedulers"
    );

    let failures =
        check_case_with(&case, &|p| Box::new(StarvingCta::new(p.scheduler())));
    assert!(!failures.is_empty(), "the starvation bug must be caught");
    assert!(
        failures.iter().all(|f| f.oracle == "run"),
        "withholding the last CTA wedges every run: {failures:?}"
    );

    // Shrink against the buggy scheduler: one baseline run per candidate
    // is enough to reproduce the wedge and keeps the test quick.
    let mut still_fails = |c: &FuzzCase| {
        run_case(
            c,
            Box::new(StarvingCta::new(CtaPolicy::Baseline(None).scheduler())),
            true,
            false,
        )
        .is_err()
    };
    assert!(still_fails(&case), "predicate holds before shrinking");
    let shrunk = shrink(&case, &mut still_fails);
    assert!(still_fails(&shrunk), "shrinking preserves the failure");
    assert!(shrunk.k1.threads() <= case.k1.threads());

    let repro = shrunk.to_repro();
    assert!(
        repro.lines().count() < 20,
        "reproducer must stay under 20 lines:\n{repro}"
    );
    let back = FuzzCase::from_repro(&repro).expect("reproducer parses");
    assert_eq!(back, shrunk, "reproducer round-trips exactly");
}

/// The reproducer format documented in EXPERIMENTS.md must be the format
/// `from_repro` actually parses: every fenced example beginning with the
/// `# simcheck reproducer v2` header is extracted from the doc, parsed,
/// and round-tripped through `to_repro` byte-for-byte. If `to_repro`
/// gains, loses, or reorders a key, this fails until the doc is updated
/// (and vice versa) — the help/docs drift this repo shipped once cannot
/// recur silently.
#[test]
fn documented_reproducer_examples_parse() {
    let doc = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md"),
    )
    .expect("EXPERIMENTS.md is readable from the workspace");
    let mut examples = Vec::new();
    let mut block: Option<String> = None;
    for line in doc.lines() {
        match (&mut block, line.trim().starts_with("```")) {
            (Some(b), true) => {
                if b.starts_with("# simcheck reproducer v2") {
                    examples.push(std::mem::take(b));
                }
                block = None;
            }
            (Some(b), false) => {
                b.push_str(line);
                b.push('\n');
            }
            (None, true) => block = Some(String::new()),
            (None, false) => {}
        }
    }
    assert!(
        examples.len() >= 2,
        "EXPERIMENTS.md must keep a two-kernel and a shrunk reproducer example"
    );
    assert!(
        examples.iter().any(|e| e.contains("kernel2=")),
        "one documented example must cover the second-kernel keys"
    );
    for text in &examples {
        let case = FuzzCase::from_repro(text)
            .unwrap_or_else(|e| panic!("documented example must parse: {e}\n{text}"));
        assert_eq!(
            &case.to_repro(),
            text,
            "documented example must be exactly what to_repro emits"
        );
    }
}
