//! E1 — the simulated-machine configuration table (the paper's
//! "simulation configuration" table), one row per knob of
//! [`gpgpu_sim::GPU_KNOBS`] and its nested tables.

use super::Runs;
use crate::{Harness, RunSpec, Table};

/// E1 simulates nothing — the table is read straight off the config.
pub(crate) fn plan(_h: &Harness) -> Vec<RunSpec> {
    Vec::new()
}

/// Emits the configuration table.
pub(crate) fn tabulate(h: &Harness, _runs: &Runs) -> Vec<Table> {
    let mut t = Table::new(
        "E1: simulated GPU configuration",
        &["parameter", "value", "description"],
    );
    for (path, knob, value) in gpgpu_mem::config::leaves(&h.gpu) {
        let value = match value {
            gpgpu_mem::Value::Int(n) => n.to_string(),
            gpgpu_mem::Value::Bool(b) => b.to_string(),
        };
        t.push_row(vec![path, value, knob.doc.trim().to_string()]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::super::tests::tables;

    #[test]
    fn config_table_renders() {
        let tables = tables("e1");
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.len(), 47, "one row per leaf knob");
        let row = |p: &str| (0..t.len()).find(|&r| t.cell(r, 0) == p).expect(p);
        assert_eq!(t.cell(row("num_cores"), 1), "15");
        assert_eq!(t.cell(row("num_cores"), 2), "Number of SM cores.");
        assert_eq!(t.cell(row("fabric.dram.max_bypass"), 1), "16");
        assert_eq!(t.cell(row("fabric.l2.mshr_entries"), 1), "64");
        assert_eq!(t.cell(row("l1.write_back"), 1), "false");
        assert!(t.to_string().contains("FR-FCFS starvation cap"));
    }
}
