//! Cycle-accounting reports: the `exp report` backend.
//!
//! Builds per-run stall/occupancy breakdowns and cross-policy
//! comparisons from either source the harness persists:
//!
//! - a **result store** (`--store DIR`): every entry's decoded
//!   [`SimStats`] supplies the per-core stall
//!   taxonomy and occupancy integrals;
//! - a **trace directory** (`--trace-dir DIR`): each
//!   `<label>.intervals.csv` is re-aggregated column-by-name, so reports
//!   work on trace output alone, without the store.
//!
//! Every row re-checks the conservation identity
//! `Σ stall_* == idle_slots + stalled_slots` (skipped for pre-1.1 store
//! entries, which carry no taxonomy and are flagged instead), so a
//! report is also an end-to-end audit of the accounting itself.

use crate::codec::{check_schema_version, result_from_json, scale_to_str, spec_from_json};
use crate::engine::{RunKind, RunSpec};
use crate::json::Json;
use gpgpu_sim::counters::ratio;
use gpgpu_sim::{CoreStats, SimStats, COUNTERS, STALL_CATEGORIES, STALL_LABELS};
use std::fmt::Write as _;
use std::path::Path;

/// Short text-table headers of the taxonomy categories, in
/// [`STALL_LABELS`] order.
const TEXT_HEADERS: [&str; STALL_CATEGORIES] =
    ["nores%", "score%", "mem%", "exec%", "barr%", "ffidle%"];

/// One run's cycle accounting, normalized across both sources.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRow {
    /// Full run label (store: human-readable spec prefix; traces: the
    /// CSV file stem).
    pub label: String,
    /// Comparison group — everything about the run *except* the CTA
    /// policy, so rows differing only in policy line up.
    pub group: String,
    /// CTA-policy name within the group.
    pub policy: String,
    /// Device cycles the run took.
    pub cycles: u64,
    /// Scheduler slots that issued (equals instructions issued, by the
    /// issue-slot conservation check).
    pub issued_slots: u64,
    /// The taxonomy counters, in [`STALL_LABELS`] order.
    pub stalls: [u64; STALL_CATEGORIES],
    /// Legacy idle+stalled slot total, for the conservation cross-check.
    pub lost_slots: u64,
    /// Average resident CTAs per core over the run.
    pub avg_ctas: f64,
    /// Average resident warps per core over the run.
    pub avg_warps: f64,
    /// Whether the row carries a live taxonomy (false for entries
    /// written before schema 1.1, whose counters decode as 0).
    pub has_taxonomy: bool,
}

impl ReportRow {
    /// Every scheduler slot accounted for.
    pub fn total_slots(&self) -> u64 {
        self.issued_slots + self.stalls.iter().sum::<u64>()
    }

    /// `count` as a fraction of all slots (0 on an empty row).
    pub fn fraction(&self, count: u64) -> f64 {
        ratio(count, self.total_slots())
    }

    /// Instructions per device cycle.
    pub fn ipc(&self) -> f64 {
        ratio(self.issued_slots, self.cycles)
    }

    /// Whether the taxonomy balances the legacy slot counters. Rows
    /// without a taxonomy are vacuously ok (they are flagged via
    /// [`has_taxonomy`](Self::has_taxonomy) instead).
    pub fn identity_ok(&self) -> bool {
        !self.has_taxonomy || self.stalls.iter().sum::<u64>() == self.lost_slots
    }
}

/// One policy-vs-baseline comparison within a group.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The comparison group both rows belong to.
    pub group: String,
    /// Baseline policy name.
    pub baseline: String,
    /// Compared policy name.
    pub policy: String,
    /// Relative cycle change, percent (negative = faster).
    pub cycles_delta_pct: f64,
    /// Per-category `(name, baseline_count, policy_count)`.
    pub categories: [(&'static str, u64, u64); STALL_CATEGORIES],
    /// Average resident warps per core, baseline then policy.
    pub avg_warps: (f64, f64),
}

impl Comparison {
    /// Relative change of category `i`'s stall count, percent.
    /// `None` when the baseline count is 0 (no meaningful ratio).
    pub fn category_delta_pct(&self, i: usize) -> Option<f64> {
        let (_, base, other) = self.categories[i];
        if base == 0 {
            None
        } else {
            Some((other as f64 - base as f64) / base as f64 * 100.0)
        }
    }

    /// One-line human rendering, biggest category movers first.
    pub fn summary(&self) -> String {
        let mut movers: Vec<(usize, f64)> = (0..STALL_CATEGORIES)
            .filter_map(|i| self.category_delta_pct(i).map(|d| (i, d)))
            .filter(|(_, d)| d.abs() >= 0.05)
            .collect();
        movers.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).expect("finite"));
        let mut s = format!(
            "{} vs {} on {}: cycles {:+.1}%",
            self.policy, self.baseline, self.group, self.cycles_delta_pct
        );
        for (i, d) in movers.iter().take(3) {
            let _ = write!(s, ", {} {:+.1}%", self.categories[*i].0, d);
        }
        let _ = write!(
            s,
            ", avg warps/core {:.1} -> {:.1}",
            self.avg_warps.0, self.avg_warps.1
        );
        s
    }
}

/// A full report: rows plus the comparisons derivable from them.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-run rows, sorted by label.
    pub rows: Vec<ReportRow>,
    /// Cross-policy comparisons (groups with a baseline and at least
    /// one other policy).
    pub comparisons: Vec<Comparison>,
}

impl Report {
    /// Builds comparisons from `rows` and sorts everything.
    pub fn from_rows(mut rows: Vec<ReportRow>) -> Report {
        rows.sort_by(|a, b| a.label.cmp(&b.label));
        let mut comparisons = Vec::new();
        let mut groups: Vec<&str> = rows.iter().map(|r| r.group.as_str()).collect();
        groups.sort_unstable();
        groups.dedup();
        for group in groups {
            let members: Vec<&ReportRow> =
                rows.iter().filter(|r| r.group == group).collect();
            // Prefer the paper's baseline policy as the reference; fall
            // back to the first policy in sorted order.
            let base = members
                .iter()
                .find(|r| r.policy == "baseline")
                .or_else(|| members.first())
                .copied();
            let Some(base) = base else { continue };
            for other in members.iter().filter(|r| r.policy != base.policy) {
                let categories = std::array::from_fn(|i| {
                    (STALL_LABELS[i], base.stalls[i], other.stalls[i])
                });
                let cycles_delta_pct = if base.cycles == 0 {
                    0.0
                } else {
                    (other.cycles as f64 - base.cycles as f64) / base.cycles as f64 * 100.0
                };
                comparisons.push(Comparison {
                    group: group.to_string(),
                    baseline: base.policy.clone(),
                    policy: other.policy.clone(),
                    cycles_delta_pct,
                    categories,
                    avg_warps: (base.avg_warps, other.avg_warps),
                });
            }
        }
        Report { rows, comparisons }
    }

    /// Whether every row's taxonomy balances its legacy slot counters.
    pub fn identity_ok(&self) -> bool {
        self.rows.iter().all(ReportRow::identity_ok)
    }

    /// Renders the whole report as human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{:<44} {:>12} {:>6}", "run", "cycles", "ipc");
        for h in TEXT_HEADERS {
            let _ = write!(out, " {h:>7}");
        }
        let _ = writeln!(out, " {:>7} {:>8}", "avgcta", "avgwarp");
        for r in &self.rows {
            let _ = write!(out, "{:<44} {:>12} {:>6.3}", r.label, r.cycles, r.ipc());
            for &n in &r.stalls {
                let _ = write!(out, " {:>7.2}", r.fraction(n) * 100.0);
            }
            let _ = writeln!(
                out,
                " {:>7.2} {:>8.2}{}",
                r.avg_ctas,
                r.avg_warps,
                if !r.identity_ok() {
                    "  [IDENTITY VIOLATION]"
                } else if !r.has_taxonomy {
                    "  [pre-1.1: no taxonomy]"
                } else {
                    ""
                },
            );
        }
        if !self.comparisons.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "policy comparisons (vs baseline per group):");
            for c in &self.comparisons {
                let _ = writeln!(out, "  {}", c.summary());
            }
        }
        let _ = writeln!(
            out,
            "\nconservation identity (sum of stall taxonomy == idle+stalled slots): {}",
            if self.identity_ok() { "ok" } else { "VIOLATED" }
        );
        out
    }

    /// Renders the whole report as one JSON document.
    pub fn render_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let stalls = STALL_LABELS
                    .iter()
                    .zip(r.stalls)
                    .fold(Json::obj(), |o, (name, n)| o.with(name, Json::UInt(n)));
                Json::obj()
                    .with("label", Json::Str(r.label.clone()))
                    .with("group", Json::Str(r.group.clone()))
                    .with("policy", Json::Str(r.policy.clone()))
                    .with("cycles", Json::UInt(r.cycles))
                    .with("issued_slots", Json::UInt(r.issued_slots))
                    .with("ipc", Json::Float(r.ipc()))
                    .with("stalls", stalls)
                    .with("avg_resident_ctas", Json::Float(r.avg_ctas))
                    .with("avg_resident_warps", Json::Float(r.avg_warps))
                    .with("has_taxonomy", Json::Bool(r.has_taxonomy))
                    .with("identity_ok", Json::Bool(r.identity_ok()))
            })
            .collect();
        let comparisons = self
            .comparisons
            .iter()
            .map(|c| {
                let categories = (0..STALL_CATEGORIES)
                    .map(|i| {
                        let (name, base, other) = c.categories[i];
                        let mut o = Json::obj()
                            .with("name", Json::Str(name.to_string()))
                            .with("baseline", Json::UInt(base))
                            .with("policy", Json::UInt(other));
                        if let Some(d) = c.category_delta_pct(i) {
                            o = o.with("delta_pct", Json::Float(d));
                        }
                        o
                    })
                    .collect();
                Json::obj()
                    .with("group", Json::Str(c.group.clone()))
                    .with("baseline", Json::Str(c.baseline.clone()))
                    .with("policy", Json::Str(c.policy.clone()))
                    .with("cycles_delta_pct", Json::Float(c.cycles_delta_pct))
                    .with("categories", Json::Arr(categories))
                    .with(
                        "avg_resident_warps",
                        Json::obj()
                            .with("baseline", Json::Float(c.avg_warps.0))
                            .with("policy", Json::Float(c.avg_warps.1)),
                    )
                    .with("summary", Json::Str(c.summary()))
            })
            .collect();
        Json::obj()
            .with("report", Json::Str("cycle_accounting".into()))
            .with("identity_ok", Json::Bool(self.identity_ok()))
            .with("rows", Json::Arr(rows))
            .with("comparisons", Json::Arr(comparisons))
    }
}

/// The `stall_breakdown` object of `BENCH_sim.json`: cycle accounting
/// summed over `runs` (each run counted once), keyed by the scale tier
/// that was benchmarked.
pub fn bench_stall_breakdown<'a>(
    scale: gpgpu_workloads::Scale,
    runs: impl IntoIterator<Item = &'a SimStats>,
) -> String {
    let mut total = CoreStats::default();
    for c in runs.into_iter().flat_map(|s| &s.cores) {
        total.merge(c);
    }
    let bd = total.breakdown();
    let mut out = format!(
        "{{\"scale\":\"{}\",\"core_cycles\":{},\"issued_slots\":{}",
        scale_to_str(scale),
        bd.core_cycles,
        bd.issued_slots
    );
    for (name, count) in bd.categories() {
        let _ = write!(out, ",\"{name}\":{count}");
    }
    let _ = write!(
        out,
        ",\"avg_resident_ctas\":{:.4},\"avg_resident_warps\":{:.4}}}",
        bd.avg_resident_ctas(),
        bd.avg_resident_warps()
    );
    out
}

/// The label parts shared by store rows: `(label, group, policy)`.
fn spec_labels(spec: &RunSpec) -> (String, String, String) {
    let kind = match &spec.kind {
        RunKind::Single { workload } => workload.clone(),
        RunKind::Pair { a, b, serial } => {
            format!("{a}+{b}{}", if *serial { ":serial" } else { "" })
        }
    };
    let policy = spec.cta.to_string();
    let group = format!("{kind}|{}|{}", scale_to_str(spec.scale), spec.warp);
    (format!("{group}|{policy}"), group, policy)
}

/// Builds rows from every readable entry of a result store.
///
/// Corrupt or incompatible entries are skipped with a note pushed to
/// `skipped`; an unreadable root is an error.
///
/// # Errors
///
/// Fails when `root` cannot be enumerated at all.
pub fn rows_from_store(
    root: &Path,
    skipped: &mut Vec<String>,
) -> Result<Vec<ReportRow>, String> {
    let mut rows = Vec::new();
    let shards =
        std::fs::read_dir(root).map_err(|e| format!("cannot read store {root:?}: {e}"))?;
    let mut entry_files: Vec<std::path::PathBuf> = Vec::new();
    for shard in shards.flatten() {
        if !shard.path().is_dir() {
            continue;
        }
        let Ok(entries) = std::fs::read_dir(shard.path()) else {
            continue;
        };
        for f in entries.flatten() {
            let p = f.path();
            if p.extension().is_some_and(|e| e == "json") {
                entry_files.push(p);
            }
        }
    }
    entry_files.sort();
    for path in entry_files {
        match store_entry_row(&path) {
            Ok(row) => rows.push(row),
            Err(e) => skipped.push(format!("{}: {e}", path.display())),
        }
    }
    Ok(rows)
}

fn store_entry_row(path: &Path) -> Result<ReportRow, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    check_schema_version(&doc).map_err(|e| e.0)?;
    let spec = spec_from_json(
        doc.get("spec").ok_or_else(|| "entry has no spec".to_string())?,
    )
    .map_err(|e| e.0)?;
    let result = result_from_json(
        doc.get("result")
            .ok_or_else(|| "entry has no result".to_string())?,
    )
    .map_err(|e| e.0)?;
    let total = result
        .stats
        .cores
        .iter()
        .try_fold(CoreStats::default(), |acc, c| acc.checked_add(c))
        .ok_or(OVERFLOW)?;
    let bd = total.breakdown();
    let avg = (bd.avg_resident_ctas(), bd.avg_resident_warps());
    checked_row(spec_labels(&spec), result.stats.cycles, &total, avg)
}

const OVERFLOW: &str = "counter sum overflows u64";

/// A row from a run's counters summed over cores. The counters are
/// outside input, so every sum the row's methods take is checked here:
/// an overflowing run is an error instead of a panic or a wrapped count.
fn checked_row(
    (label, group, policy): (String, String, String),
    cycles: u64,
    total: &CoreStats,
    (avg_ctas, avg_warps): (f64, f64),
) -> Result<ReportRow, String> {
    let bd = total.breakdown();
    let stalls = bd.categories().map(|(_, n)| n);
    // `total_slots` and `identity_ok` take these sums, so they must fit.
    stalls.iter().try_fold(bd.issued_slots, |acc, &n| acc.checked_add(n)).ok_or(OVERFLOW)?;
    Ok(ReportRow {
        label,
        group,
        policy,
        cycles,
        issued_slots: bd.issued_slots,
        stalls,
        lost_slots: bd.idle_slots.checked_add(bd.stalled_slots).ok_or(OVERFLOW)?,
        avg_ctas,
        avg_warps,
        has_taxonomy: stalls.iter().any(|&n| n > 0),
    })
}

/// Builds rows from every `*.intervals.csv` in a trace directory,
/// re-aggregating the interval samples column-by-name. Trace labels
/// follow the experiment convention `<exp>-<workload>-...-<policy>`, so
/// grouping falls back to "strip the last `-` component" when a label
/// does not parse as a spec.
///
/// # Errors
///
/// Fails when `dir` cannot be enumerated, or when a CSV is present but
/// lacks the stall columns (pre-upgrade traces cannot be reported on).
pub fn rows_from_traces(dir: &Path) -> Result<Vec<ReportRow>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read trace dir {dir:?}: {e}"))?;
    let mut files: Vec<std::path::PathBuf> = entries
        .flatten()
        .map(|f| f.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".intervals.csv"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no *.intervals.csv files under {dir:?}"));
    }
    let mut rows = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("filtered on utf-8 name");
        let label = name.trim_end_matches(".intervals.csv").to_string();
        rows.push(trace_csv_row(&label, &text).map_err(|e| format!("{name}: {e}"))?);
    }
    Ok(rows)
}

/// Aggregates one intervals CSV into a row. Columns are resolved by
/// header name, so column order (and future appended columns) never
/// matters.
fn trace_csv_row(label: &str, csv: &str) -> Result<ReportRow, String> {
    let mut lines = csv.lines();
    let header = lines.next().ok_or("empty CSV")?;
    let cols: Vec<&str> = header.split(',').collect();
    let col = |name: &str| {
        cols.iter()
            .position(|c| *c == name)
            .ok_or_else(|| format!("missing column {name:?} (trace predates the stall columns?)"))
    };
    let c_start = col("cycle_start")?;
    let c_end = col("cycle_end")?;
    // The slot and taxonomy counters, under their registry names.
    let slots = ["issued_slots", "stalled_slots", "idle_slots"];
    let c_counters = COUNTERS
        .iter()
        .filter(|c| c.stall.is_some() || slots.contains(&c.name))
        .map(|c| Ok((c.get_mut, col(c.name)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let c_avg_ctas = col("avg_resident_ctas")?;
    let c_avg_warps = col("avg_resident_warps")?;
    let mut total = CoreStats::default();
    let mut cycles = 0;
    let mut weighted_ctas = 0.0;
    let mut weighted_warps = 0.0;
    for line in lines.filter(|l| !l.trim().is_empty()) {
        let fields: Vec<&str> = line.split(',').collect();
        let get_u64 = |i: usize| {
            fields
                .get(i)
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| format!("bad integer in column {i}"))
        };
        let get_f64 = |i: usize| {
            fields
                .get(i)
                .and_then(|s| s.parse::<f64>().ok())
                .ok_or_else(|| format!("bad float in column {i}"))
        };
        let span = get_u64(c_end)?.saturating_sub(get_u64(c_start)?);
        add_to(&mut cycles, span)?;
        for &(field, i) in &c_counters {
            add_to(field(&mut total), get_u64(i)?)?;
        }
        weighted_ctas += get_f64(c_avg_ctas)? * span as f64;
        weighted_warps += get_f64(c_avg_warps)? * span as f64;
    }
    let mean = |weighted: f64| if cycles > 0 { weighted / cycles as f64 } else { 0.0 };
    let names = (
        label.to_string(),
        label.rsplit_once('-').map_or(label, |(g, _)| g).to_string(),
        label.rsplit_once('-').map_or("", |(_, p)| p).to_string(),
    );
    checked_row(names, cycles, &total, (mean(weighted_ctas), mean(weighted_warps)))
}

/// `*acc += n`, failing instead of overflowing (the CSV is outside input).
fn add_to(acc: &mut u64, n: u64) -> Result<(), String> {
    *acc = acc.checked_add(n).ok_or(OVERFLOW)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(group: &str, policy: &str, cycles: u64, scoreboard: u64, warps: f64) -> ReportRow {
        ReportRow {
            label: format!("{group}|{policy}"),
            group: group.to_string(),
            policy: policy.to_string(),
            cycles,
            issued_slots: 1000,
            stalls: [10, scoreboard, 300, 5, 0, 200],
            lost_slots: 10 + scoreboard + 300 + 5 + 200,
            avg_ctas: 4.0,
            avg_warps: warps,
            has_taxonomy: true,
        }
    }

    #[test]
    fn comparisons_pick_the_baseline_policy() {
        let rows = vec![
            row("vecadd|small|gto", "lcs:0.7", 900, 120, 20.0),
            row("vecadd|small|gto", "baseline", 1000, 200, 16.0),
            row("gather|small|gto", "baseline", 5000, 50, 30.0),
        ];
        let report = Report::from_rows(rows);
        assert!(report.identity_ok());
        assert!(report.render_text().contains("conservation identity"), "stated in text");
        assert_eq!(report.comparisons.len(), 1, "single-policy groups skip");
        let c = &report.comparisons[0];
        assert_eq!(c.baseline, "baseline");
        assert_eq!(c.policy, "lcs:0.7");
        assert!((c.cycles_delta_pct - -10.0).abs() < 1e-9);
        let sb = c.category_delta_pct(1).expect("baseline nonzero");
        assert!((sb - -40.0).abs() < 1e-9, "200 -> 120 is -40%");
        let s = c.summary();
        assert!(s.contains("ScoreboardDep -40.0%"), "{s}");
        assert!(s.contains("cycles -10.0%"), "{s}");
    }

    #[test]
    fn identity_violations_are_flagged() {
        let mut r = row("g", "baseline", 100, 50, 1.0);
        assert!(r.identity_ok());
        r.lost_slots += 1;
        assert!(!r.identity_ok());
        let report = Report::from_rows(vec![r]);
        assert!(!report.identity_ok());
        assert!(report.render_text().contains("IDENTITY VIOLATION"));
        let json = report.render_json().render();
        assert!(json.contains("\"identity_ok\":false"), "{json}");
    }

    #[test]
    fn rows_without_taxonomy_are_vacuously_ok() {
        let mut r = row("g", "baseline", 100, 0, 1.0);
        r.stalls = [0; 6];
        r.lost_slots = 500; // a 1.0-era entry: legacy counters only
        r.has_taxonomy = false;
        assert!(r.identity_ok(), "no taxonomy means nothing to balance");
        let report = Report::from_rows(vec![r]);
        assert!(report.render_text().contains("pre-1.1"), "flagged in text");
    }

    #[test]
    fn trace_csv_aggregates_by_column_name() {
        let csv = "\
cycle_start,cycle_end,issued_slots,stalled_slots,idle_slots,extra,\
stall_no_resident,stall_scoreboard,stall_mem_pending,stall_exec_busy,\
stall_barrier,stall_ff_idle,avg_resident_ctas,avg_resident_warps\n\
0,500,100,40,60,9,10,20,30,0,0,40,2.0,8.0\n\
500,1000,300,10,90,9,30,20,10,0,0,40,4.0,16.0\n";
        let r = trace_csv_row("e5-vecadd-lcs:0.7", csv).expect("parses");
        assert_eq!(r.cycles, 1000);
        assert_eq!(r.issued_slots, 400);
        assert_eq!(r.stalls, [40, 40, 40, 0, 0, 80]);
        assert_eq!(r.lost_slots, 200);
        assert!(r.identity_ok());
        assert!((r.avg_ctas - 3.0).abs() < 1e-9, "cycle-weighted mean");
        assert!((r.avg_warps - 12.0).abs() < 1e-9);
        assert_eq!(r.group, "e5-vecadd");
        assert_eq!(r.policy, "lcs:0.7");
        assert!((r.ipc() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn trace_csv_without_stall_columns_is_an_error() {
        // A pre-upgrade CSV: legacy slot columns present, taxonomy absent.
        let csv = "cycle_start,cycle_end,issued_slots,stalled_slots,idle_slots\n0,500,1,2,3\n";
        let err = trace_csv_row("x", csv).unwrap_err();
        assert!(err.contains("stall_no_resident"), "{err}");
    }
}
