//! Reusable conservation invariants over [`SimStats`].
//!
//! These are counters that must balance at quiesce no matter which
//! scheduling policies ran; a violation means the simulator lost or
//! double-counted work — exactly the kind of bug that silently skews every
//! experiment downstream. Promoted out of `tests/conservation.rs` so the
//! `simcheck` fuzzer (and any future harness) can apply the same checks to
//! generated scenarios instead of re-stating them inline.

use crate::stats::SimStats;

/// Every conservation violation in `stats`, as human-readable findings.
///
/// Empty means the run balances. The checks assume the device has
/// quiesced (i.e. `run` returned `Ok`); a mid-run snapshot legitimately
/// has loads in flight and unfinished kernels, and is only held to the
/// subset of checks that are monotone (attribution sums, bounds).
pub fn conservation_violations(stats: &SimStats) -> Vec<String> {
    let all_done = stats.kernels.iter().all(|k| k.done);
    let mut v = Vec::new();

    // Memory-request conservation: every load that entered the fabric came
    // back out; the memory system holds no requests at quiesce.
    if all_done && stats.fabric.loads_in != stats.fabric.loads_out {
        v.push(format!(
            "loads in flight at quiesce: {} entered the fabric, {} returned",
            stats.fabric.loads_in, stats.fabric.loads_out
        ));
    }

    // Instruction attribution covers every issued instruction exactly once,
    // from both directions: per-kernel and per-core sums must each equal
    // the device total.
    let per_kernel: u64 = stats.kernels.iter().map(|k| k.instructions).sum();
    if per_kernel != stats.instructions {
        v.push(format!(
            "per-kernel instructions sum to {per_kernel}, device total is {}",
            stats.instructions
        ));
    }
    let per_core: u64 = stats.cores.iter().map(|c| c.issued).sum();
    if per_core != stats.instructions {
        v.push(format!(
            "per-core issued sums to {per_core}, device total is {}",
            stats.instructions
        ));
    }

    // Issue-slot accounting: each slot that issued executed exactly one
    // instruction, so the two counters must agree core by core.
    for (i, c) in stats.cores.iter().enumerate() {
        if c.issued != c.issued_slots {
            v.push(format!(
                "core {i}: issued {} instructions over {} issued slots",
                c.issued, c.issued_slots
            ));
        }
    }

    // Stall-attribution conservation: the taxonomy classifies every
    // non-issuing scheduler slot exactly once, so per core its six
    // counters must sum to the legacy idle + stalled total (fast-forwarded
    // spans included — they are booked as FastForwardedIdle on one side
    // and idle/stalled on the other).
    for (i, c) in stats.cores.iter().enumerate() {
        let attributed = c.stall_total();
        let lost = c.idle_slots + c.stalled_slots;
        if attributed != lost {
            v.push(format!(
                "core {i}: stall taxonomy attributes {attributed} slots, \
                 idle+stalled book {lost}"
            ));
        }
    }

    // Every core is stepped (or fast-forward-accounted) every device
    // cycle, so the observed cycle counts must agree across cores.
    for pair in stats.cores.windows(2) {
        if pair[0].core_cycles != pair[1].core_cycles {
            v.push(format!(
                "cores disagree on elapsed cycles: {} vs {}",
                pair[0].core_cycles, pair[1].core_cycles
            ));
            break;
        }
    }

    // CTA conservation: every CTA of every kernel retires on exactly one
    // core — equality at quiesce, never an excess mid-run.
    let cores_completed: u64 = stats.cores.iter().map(|c| c.ctas_completed).sum();
    let grid_ctas: u64 = stats.kernels.iter().map(|k| k.ctas).sum();
    if all_done {
        if cores_completed != grid_ctas {
            v.push(format!(
                "cores retired {cores_completed} CTAs, grids hold {grid_ctas}"
            ));
        }
    } else if cores_completed > grid_ctas {
        v.push(format!(
            "cores retired {cores_completed} CTAs, more than the {grid_ctas} ever launched"
        ));
    }

    // Per-kernel timeline sanity.
    for k in &stats.kernels {
        if k.done && !k.started {
            v.push(format!("kernel {} ({}) done but never started", k.id.0, k.name));
        }
        if k.done && k.end_cycle < k.start_cycle {
            v.push(format!(
                "kernel {} ({}) ends at cycle {} before starting at {}",
                k.id.0, k.name, k.end_cycle, k.start_cycle
            ));
        }
        if k.end_cycle > stats.cycles {
            v.push(format!(
                "kernel {} ({}) ends at cycle {}, past the device clock {}",
                k.id.0, k.name, k.end_cycle, stats.cycles
            ));
        }
    }

    // The device discards malformed CTA-scheduler decisions rather than
    // crashing; a well-behaved policy never produces one.
    if stats.malformed_dispatches != 0 {
        v.push(format!(
            "{} malformed CTA dispatches discarded",
            stats.malformed_dispatches
        ));
    }

    v
}

/// Panics with every violation if `stats` fails any conservation check.
///
/// # Panics
///
/// Panics when [`conservation_violations`] is non-empty; the message lists
/// each finding on its own line.
pub fn assert_conservation(stats: &SimStats) {
    let v = conservation_violations(stats);
    assert!(
        v.is_empty(),
        "conservation violations:\n  {}",
        v.join("\n  ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CoreStats;
    use crate::sched_api::KernelId;
    use crate::stats::KernelStats;

    fn balanced() -> SimStats {
        SimStats {
            cycles: 1000,
            instructions: 40,
            kernels: vec![KernelStats {
                id: KernelId(0),
                name: "k".into(),
                start_cycle: 10,
                end_cycle: 900,
                instructions: 40,
                ctas: 2,
                started: true,
                done: true,
            }],
            l1: Default::default(),
            fabric: Default::default(),
            cores: vec![
                CoreStats {
                    issued: 30,
                    issued_slots: 30,
                    ctas_completed: 1,
                    ..Default::default()
                },
                CoreStats {
                    issued: 10,
                    issued_slots: 10,
                    ctas_completed: 1,
                    ..Default::default()
                },
            ],
            malformed_dispatches: 0,
        }
    }

    #[test]
    fn balanced_stats_pass() {
        assert_conservation(&balanced());
    }

    #[test]
    fn each_imbalance_is_reported() {
        let mut s = balanced();
        s.fabric.loads_in = 5; // loads_out stays 0
        s.kernels[0].instructions = 39;
        s.cores[0].issued_slots = 29;
        s.cores[1].ctas_completed = 9;
        s.malformed_dispatches = 2;
        let v = conservation_violations(&s);
        assert!(v.iter().any(|m| m.contains("loads in flight")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("per-kernel")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("issued slots")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("retired")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("malformed")), "{v:?}");
    }

    #[test]
    fn in_flight_runs_skip_quiesce_only_checks() {
        let mut s = balanced();
        s.kernels[0].done = false;
        s.kernels[0].end_cycle = 0;
        s.fabric.loads_in = 5; // legitimately in flight
        s.cores[1].ctas_completed = 0; // CTA still running
        assert!(conservation_violations(&s).is_empty());
    }

    #[test]
    fn timeline_violations_detected() {
        let mut s = balanced();
        s.kernels[0].end_cycle = 5; // before start_cycle 10
        let v = conservation_violations(&s);
        assert!(v.iter().any(|m| m.contains("before starting")), "{v:?}");
    }

    #[test]
    fn stall_taxonomy_must_balance_slot_counters() {
        let mut s = balanced();
        // Attribute the lost slots fully: 6 stalled + 4 idle across the
        // taxonomy balances; then break it by one slot.
        s.cores[0].stalled_slots = 6;
        s.cores[0].idle_slots = 4;
        s.cores[0].stall_scoreboard = 3;
        s.cores[0].stall_mem_pending = 2;
        s.cores[0].stall_barrier = 1;
        s.cores[0].stall_no_resident = 1;
        s.cores[0].stall_ff_idle = 3;
        assert_conservation(&s);
        s.cores[0].stall_ff_idle = 2;
        let v = conservation_violations(&s);
        assert!(v.iter().any(|m| m.contains("stall taxonomy")), "{v:?}");
    }

    #[test]
    fn cores_must_agree_on_elapsed_cycles() {
        let mut s = balanced();
        s.cores[0].core_cycles = 1000;
        s.cores[1].core_cycles = 999;
        let v = conservation_violations(&s);
        assert!(
            v.iter().any(|m| m.contains("disagree on elapsed cycles")),
            "{v:?}"
        );
    }
}
