//! Versioned JSON encoding of the run API's data types.
//!
//! One canonical encoding backs every machine-readable surface that
//! leaves the process: the on-disk [result store](crate::store), the
//! `exp serve` wire protocol, and the spec half of the content key. All
//! of them carry [`SCHEMA_VERSION`], and all readers call
//! [`check_schema_version`] first so an incompatible document is
//! *rejected*, never misparsed (the compatibility contract: same major
//! version ⇒ readable, new minor fields are ignorable additions).
//!
//! The codec is deliberately explicit — every field of every struct is
//! named by hand. That makes adding a simulation-affecting field a
//! *visible* decision here (and in [`content_key`], which would otherwise
//! silently change meaning), instead of an accident of a `Debug` derive.
//! The one exception is the counters, which are observations, not
//! identity: the per-core and memory-side counter structs are encoded by
//! walking their registry tables ([`gpgpu_sim::COUNTERS`],
//! [`CACHE_COUNTERS`], [`DRAM_COUNTERS`], [`XBAR_COUNTERS`]).

use crate::engine::{RunKind, RunResult, RunSpec};
use crate::json::Json;
use gpgpu_mem::{
    CacheConfig, Counter, DramConfig, FabricConfig, FabricStats, CACHE_COUNTERS, DRAM_COUNTERS,
    XBAR_COUNTERS,
};
use gpgpu_sim::{GpuConfig, KernelStats, SimStats, COUNTERS};
use gpgpu_workloads::Scale;
use std::fmt;
use tbs_core::{CtaPolicy, WarpPolicy};

/// Version of every serialized surface this crate emits: store entries,
/// serve/submit wire messages, and `EngineSummary`/perf JSON.
///
/// `MAJOR.MINOR`: readers accept any document whose major version equals
/// theirs (minor bumps only ever *add* fields) and refuse the rest. Bump
/// the major when a field changes meaning or disappears; bump the minor
/// when adding fields old readers can ignore.
///
/// History: 1.1 added the per-core stall taxonomy and occupancy-integral
/// counters (decoded as 0 when absent, so 1.0 store entries stay
/// readable). 1.2 added execution-record sibling files in the store
/// (`<addr>.record.bin`, keyed by [`content_key_prefix`]) — a pure
/// addition: entries without a record sibling stay readable, and old
/// readers never look for one.
pub const SCHEMA_VERSION: &str = "1.2";

/// The major component of [`SCHEMA_VERSION`] (what compatibility is
/// judged on).
pub const SCHEMA_MAJOR: u64 = 1;

/// A decode failure (malformed document, wrong types, missing fields, or
/// an incompatible schema version).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err(what: impl Into<String>) -> CodecError {
    CodecError(what.into())
}

/// Checks a document's `schema_version` against [`SCHEMA_MAJOR`].
///
/// # Errors
///
/// Fails if the field is missing, not `MAJOR.MINOR`-shaped, or has a
/// different major version — readers must treat all three as "do not
/// parse further".
pub fn check_schema_version(doc: &Json) -> Result<(), CodecError> {
    let v = doc
        .get("schema_version")
        .and_then(Json::as_str)
        .ok_or_else(|| err("missing schema_version"))?;
    let major =
        schema_major_of(doc).ok_or_else(|| err(format!("malformed schema_version {v:?}")))?;
    if major != SCHEMA_MAJOR {
        return Err(err(format!(
            "incompatible schema_version {v:?} (this build reads major {SCHEMA_MAJOR})"
        )));
    }
    Ok(())
}

/// The document's schema major version, if the `schema_version` field is
/// present and `MAJOR.MINOR`-shaped. Lets callers distinguish "written by
/// a different major" (leave it alone) from "malformed" (corrupt).
pub fn schema_major_of(doc: &Json) -> Option<u64> {
    doc.get("schema_version")
        .and_then(Json::as_str)?
        .split('.')
        .next()?
        .parse::<u64>()
        .ok()
}

// ---------------------------------------------------------------------------
// Content key

/// Derives the stable content key of a [`RunSpec`] — THE single place key
/// derivation lives.
///
/// The key is the canonical identity of a simulation: the in-memory memo
/// table, the cross-process [result store](crate::store), and the serve
/// protocol's coalescing all equate runs by it. Its format is
/// `<kind>|scale=..|warp=..|cta=..|max_cycles=..|gpu=<canonical JSON>`,
/// built from every *simulation-affecting* field through the same
/// explicit per-field encoding as the wire format ([`gpu_to_json`]), so:
///
/// * adding a simulation-affecting field to [`GpuConfig`] forces a visible
///   edit here (and rightly invalidates old keys);
/// * the `telemetry` request is excluded — it observes a run without
///   changing it;
/// * accidental drift (reordering fields, renaming, a `Debug` format
///   change) is pinned down by the golden test
///   `golden_content_key_is_stable`, because silent drift would quietly
///   invalidate every stored result.
pub fn content_key(spec: &RunSpec) -> String {
    let kind = match &spec.kind {
        RunKind::Single { workload } => format!("single:{workload}"),
        RunKind::Pair { a, b, serial } => format!("pair:{a}+{b}:serial={serial}"),
    };
    format!(
        "{kind}|scale={}|warp={}|cta={}|max_cycles={}|gpu={}",
        scale_to_str(spec.scale),
        spec.warp,
        spec.cta,
        spec.max_cycles,
        gpu_to_json(&spec.gpu).render()
    )
}

/// The CTA-policy-independent prefix of [`content_key`]: the same key
/// with the `cta=..` segment removed and nothing else changed.
///
/// This is the identity of an *execution record* (see
/// `gpgpu_sim::record`): per-warp control flow, generated addresses, and
/// final memory contents depend on the workload, scale, warp policy,
/// cycle budget, and GPU config — but not on which CTA scheduler placed
/// the blocks. All specs that share a prefix can therefore replay one
/// capture. Derived from [`content_key`]'s output (not rebuilt from the
/// spec) so the two can never drift apart, and pinned by
/// `golden_content_key_prefix_is_stable`.
pub fn content_key_prefix(spec: &RunSpec) -> String {
    let key = content_key(spec);
    let start = key.find("|cta=").expect("content_key always has a cta segment");
    let end = key[start + 1..]
        .find('|')
        .map(|i| start + 1 + i)
        .expect("cta is never the last segment");
    format!("{}{}", &key[..start], &key[end..])
}

// ---------------------------------------------------------------------------
// Scale

/// Stable lowercase name of a [`Scale`] (the CLI `--scale` vocabulary).
pub fn scale_to_str(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Large => "large",
        Scale::Full => "full",
    }
}

/// Parses the [`scale_to_str`] vocabulary.
///
/// # Errors
///
/// Fails on anything but `tiny`/`small`/`large`/`full`.
pub fn scale_from_str(s: &str) -> Result<Scale, CodecError> {
    match s {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "large" => Ok(Scale::Large),
        "full" => Ok(Scale::Full),
        other => Err(err(format!(
            "unknown scale {other:?} (expected tiny|small|large|full)"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Field helpers

fn get_u64(obj: &Json, key: &str) -> Result<u64, CodecError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| err(format!("missing or non-integer field {key:?}")))
}

fn get_u32(obj: &Json, key: &str) -> Result<u32, CodecError> {
    u32::try_from(get_u64(obj, key)?).map_err(|_| err(format!("field {key:?} exceeds u32")))
}

fn get_usize(obj: &Json, key: &str) -> Result<usize, CodecError> {
    usize::try_from(get_u64(obj, key)?).map_err(|_| err(format!("field {key:?} exceeds usize")))
}

fn get_bool(obj: &Json, key: &str) -> Result<bool, CodecError> {
    obj.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| err(format!("missing or non-bool field {key:?}")))
}

fn get_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, CodecError> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| err(format!("missing or non-string field {key:?}")))
}

fn get_obj<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, CodecError> {
    match obj.get(key) {
        Some(v @ Json::Obj(_)) => Ok(v),
        _ => Err(err(format!("missing or non-object field {key:?}"))),
    }
}

fn get_arr<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], CodecError> {
    obj.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| err(format!("missing or non-array field {key:?}")))
}

// ---------------------------------------------------------------------------
// GpuConfig (and its nested configs)

fn cache_cfg_to_json(c: &CacheConfig) -> Json {
    Json::obj()
        .with("size_bytes", Json::UInt(c.size_bytes.into()))
        .with("line_bytes", Json::UInt(c.line_bytes.into()))
        .with("assoc", Json::UInt(c.assoc.into()))
        .with("mshr_entries", Json::UInt(c.mshr_entries.into()))
        .with("mshr_max_merge", Json::UInt(c.mshr_max_merge.into()))
        .with("miss_queue_len", Json::UInt(c.miss_queue_len.into()))
        .with("write_back", Json::Bool(c.write_back))
        .with("write_allocate", Json::Bool(c.write_allocate))
}

fn cache_cfg_from_json(v: &Json) -> Result<CacheConfig, CodecError> {
    Ok(CacheConfig {
        size_bytes: get_u32(v, "size_bytes")?,
        line_bytes: get_u32(v, "line_bytes")?,
        assoc: get_u32(v, "assoc")?,
        mshr_entries: get_u32(v, "mshr_entries")?,
        mshr_max_merge: get_u32(v, "mshr_max_merge")?,
        miss_queue_len: get_u32(v, "miss_queue_len")?,
        write_back: get_bool(v, "write_back")?,
        write_allocate: get_bool(v, "write_allocate")?,
    })
}

fn dram_cfg_to_json(d: &DramConfig) -> Json {
    Json::obj()
        .with("banks", Json::UInt(d.banks.into()))
        .with("row_bytes", Json::UInt(d.row_bytes.into()))
        .with("line_bytes", Json::UInt(d.line_bytes.into()))
        .with("t_rcd", Json::UInt(d.t_rcd.into()))
        .with("t_rp", Json::UInt(d.t_rp.into()))
        .with("t_cas", Json::UInt(d.t_cas.into()))
        .with("t_burst", Json::UInt(d.t_burst.into()))
        .with("queue_len", Json::UInt(d.queue_len.into()))
        .with("max_bypass", Json::UInt(d.max_bypass.into()))
}

fn dram_cfg_from_json(v: &Json) -> Result<DramConfig, CodecError> {
    Ok(DramConfig {
        banks: get_u32(v, "banks")?,
        row_bytes: get_u32(v, "row_bytes")?,
        line_bytes: get_u32(v, "line_bytes")?,
        t_rcd: get_u32(v, "t_rcd")?,
        t_rp: get_u32(v, "t_rp")?,
        t_cas: get_u32(v, "t_cas")?,
        t_burst: get_u32(v, "t_burst")?,
        queue_len: get_u32(v, "queue_len")?,
        max_bypass: get_u32(v, "max_bypass")?,
    })
}

fn fabric_cfg_to_json(f: &FabricConfig) -> Json {
    Json::obj()
        .with("cores", Json::UInt(f.cores as u64))
        .with("partitions", Json::UInt(f.partitions as u64))
        .with("line_bytes", Json::UInt(f.line_bytes.into()))
        .with("l2", cache_cfg_to_json(&f.l2))
        .with("l2_latency", Json::UInt(f.l2_latency.into()))
        .with("dram", dram_cfg_to_json(&f.dram))
        .with("xbar_latency", Json::UInt(f.xbar_latency.into()))
        .with("xbar_flit_bytes", Json::UInt(f.xbar_flit_bytes.into()))
        .with("xbar_queue_len", Json::UInt(f.xbar_queue_len as u64))
}

fn fabric_cfg_from_json(v: &Json) -> Result<FabricConfig, CodecError> {
    Ok(FabricConfig {
        cores: get_usize(v, "cores")?,
        partitions: get_usize(v, "partitions")?,
        line_bytes: get_u32(v, "line_bytes")?,
        l2: cache_cfg_from_json(get_obj(v, "l2")?)?,
        l2_latency: get_u32(v, "l2_latency")?,
        dram: dram_cfg_from_json(get_obj(v, "dram")?)?,
        xbar_latency: get_u32(v, "xbar_latency")?,
        xbar_flit_bytes: get_u32(v, "xbar_flit_bytes")?,
        xbar_queue_len: get_usize(v, "xbar_queue_len")?,
    })
}

/// Encodes a [`GpuConfig`] field by field (the canonical form the content
/// key embeds).
pub fn gpu_to_json(g: &GpuConfig) -> Json {
    Json::obj()
        .with("num_cores", Json::UInt(g.num_cores as u64))
        .with("max_threads_per_core", Json::UInt(g.max_threads_per_core.into()))
        .with("max_ctas_per_core", Json::UInt(g.max_ctas_per_core.into()))
        .with("max_warps_per_core", Json::UInt(g.max_warps_per_core.into()))
        .with("regfile_per_core", Json::UInt(g.regfile_per_core.into()))
        .with("smem_per_core", Json::UInt(g.smem_per_core.into()))
        .with("num_sched_per_core", Json::UInt(g.num_sched_per_core.into()))
        .with("int_latency", Json::UInt(g.int_latency.into()))
        .with("fp_latency", Json::UInt(g.fp_latency.into()))
        .with("sfu_latency", Json::UInt(g.sfu_latency.into()))
        .with("shared_latency", Json::UInt(g.shared_latency.into()))
        .with("l1_latency", Json::UInt(g.l1_latency.into()))
        .with("l1", cache_cfg_to_json(&g.l1))
        .with("ldst_queue_len", Json::UInt(g.ldst_queue_len as u64))
        .with("fabric", fabric_cfg_to_json(&g.fabric))
        .with("flush_l1_on_kernel_launch", Json::Bool(g.flush_l1_on_kernel_launch))
        .with("deadlock_cycles", Json::UInt(g.deadlock_cycles))
}

/// Decodes [`gpu_to_json`]'s encoding.
///
/// # Errors
///
/// Fails on missing/mistyped fields.
pub fn gpu_from_json(v: &Json) -> Result<GpuConfig, CodecError> {
    Ok(GpuConfig {
        num_cores: get_usize(v, "num_cores")?,
        max_threads_per_core: get_u32(v, "max_threads_per_core")?,
        max_ctas_per_core: get_u32(v, "max_ctas_per_core")?,
        max_warps_per_core: get_u32(v, "max_warps_per_core")?,
        regfile_per_core: get_u32(v, "regfile_per_core")?,
        smem_per_core: get_u32(v, "smem_per_core")?,
        num_sched_per_core: get_u32(v, "num_sched_per_core")?,
        int_latency: get_u32(v, "int_latency")?,
        fp_latency: get_u32(v, "fp_latency")?,
        sfu_latency: get_u32(v, "sfu_latency")?,
        shared_latency: get_u32(v, "shared_latency")?,
        l1_latency: get_u32(v, "l1_latency")?,
        l1: cache_cfg_from_json(get_obj(v, "l1")?)?,
        ldst_queue_len: get_usize(v, "ldst_queue_len")?,
        fabric: fabric_cfg_from_json(get_obj(v, "fabric")?)?,
        flush_l1_on_kernel_launch: get_bool(v, "flush_l1_on_kernel_launch")?,
        deadlock_cycles: get_u64(v, "deadlock_cycles")?,
    })
}

// ---------------------------------------------------------------------------
// RunSpec

/// Encodes a [`RunSpec`] for the wire and the store (telemetry requests
/// are *not* part of the encoding — they are per-process observation
/// preferences, not run identity).
pub fn spec_to_json(spec: &RunSpec) -> Json {
    let kind = match &spec.kind {
        RunKind::Single { workload } => Json::obj()
            .with("type", Json::Str("single".into()))
            .with("workload", Json::Str(workload.clone())),
        RunKind::Pair { a, b, serial } => Json::obj()
            .with("type", Json::Str("pair".into()))
            .with("a", Json::Str(a.clone()))
            .with("b", Json::Str(b.clone()))
            .with("serial", Json::Bool(*serial)),
    };
    Json::obj()
        .with("kind", kind)
        .with("scale", Json::Str(scale_to_str(spec.scale).into()))
        .with("warp", Json::Str(spec.warp.to_string()))
        .with("cta", Json::Str(spec.cta.to_string()))
        .with("max_cycles", Json::UInt(spec.max_cycles))
        .with("gpu", gpu_to_json(&spec.gpu))
}

/// Decodes [`spec_to_json`]'s encoding (the decoded spec carries no
/// telemetry request).
///
/// # Errors
///
/// Fails on missing/mistyped fields or unknown policy/scale names.
pub fn spec_from_json(v: &Json) -> Result<RunSpec, CodecError> {
    let kind_obj = get_obj(v, "kind")?;
    let kind = match get_str(kind_obj, "type")? {
        "single" => RunKind::Single {
            workload: get_str(kind_obj, "workload")?.to_string(),
        },
        "pair" => RunKind::Pair {
            a: get_str(kind_obj, "a")?.to_string(),
            b: get_str(kind_obj, "b")?.to_string(),
            serial: get_bool(kind_obj, "serial")?,
        },
        other => return Err(err(format!("unknown run kind {other:?}"))),
    };
    let warp: WarpPolicy = get_str(v, "warp")?
        .parse()
        .map_err(|e| err(format!("bad warp policy: {e}")))?;
    let cta: CtaPolicy = get_str(v, "cta")?
        .parse()
        .map_err(|e| err(format!("bad cta policy: {e}")))?;
    Ok(RunSpec {
        kind,
        scale: scale_from_str(get_str(v, "scale")?)?,
        gpu: gpu_from_json(get_obj(v, "gpu")?)?,
        warp,
        cta,
        max_cycles: get_u64(v, "max_cycles")?,
        telemetry: None,
    })
}

// ---------------------------------------------------------------------------
// SimStats (and its nested stats)

/// Encodes a counter struct as one object, a key per table row in table
/// order.
fn table_to_json<S>(table: &[Counter<S>], s: &S) -> Json {
    table
        .iter()
        .fold(Json::obj(), |o, k| o.with(k.name, Json::UInt((k.get)(s))))
}

/// Decodes [`table_to_json`]'s encoding. Rows added after schema 1.0
/// decode as 0 when absent, so older same-major entries stay readable; a
/// missing 1.0 row or a mistyped row is an error naming the field.
fn table_from_json<S: Default>(table: &[Counter<S>], v: &Json) -> Result<S, CodecError> {
    let mut s = S::default();
    for k in table {
        *(k.get_mut)(&mut s) = match v.get(k.name) {
            None if k.since != "1.0" => 0,
            _ => get_u64(v, k.name)?,
        };
    }
    Ok(s)
}

/// Decodes the counter object under `key`.
fn get_table<S: Default>(v: &Json, key: &str, table: &[Counter<S>]) -> Result<S, CodecError> {
    table_from_json(table, get_obj(v, key)?).map_err(|e| err(format!("{key}: {}", e.0)))
}

fn fabric_stats_to_json(f: &FabricStats) -> Json {
    Json::obj()
        .with("l2", table_to_json(CACHE_COUNTERS, &f.l2))
        .with("dram", table_to_json(DRAM_COUNTERS, &f.dram))
        .with("req_xbar", table_to_json(XBAR_COUNTERS, &f.req_xbar))
        .with("resp_xbar", table_to_json(XBAR_COUNTERS, &f.resp_xbar))
        .with("loads_in", Json::UInt(f.loads_in))
        .with("loads_out", Json::UInt(f.loads_out))
        .with("stores_in", Json::UInt(f.stores_in))
}

fn fabric_stats_from_json(v: &Json) -> Result<FabricStats, CodecError> {
    Ok(FabricStats {
        l2: get_table(v, "l2", CACHE_COUNTERS)?,
        dram: get_table(v, "dram", DRAM_COUNTERS)?,
        req_xbar: get_table(v, "req_xbar", XBAR_COUNTERS)?,
        resp_xbar: get_table(v, "resp_xbar", XBAR_COUNTERS)?,
        loads_in: get_u64(v, "loads_in")?,
        loads_out: get_u64(v, "loads_out")?,
        stores_in: get_u64(v, "stores_in")?,
    })
}

fn kernel_stats_to_json(k: &KernelStats) -> Json {
    Json::obj()
        .with("id", Json::UInt(k.id.0 as u64))
        .with("name", Json::Str(k.name.to_string()))
        .with("start_cycle", Json::UInt(k.start_cycle))
        .with("end_cycle", Json::UInt(k.end_cycle))
        .with("instructions", Json::UInt(k.instructions))
        .with("ctas", Json::UInt(k.ctas))
        .with("started", Json::Bool(k.started))
        .with("done", Json::Bool(k.done))
}

fn kernel_stats_from_json(v: &Json) -> Result<KernelStats, CodecError> {
    Ok(KernelStats {
        id: gpgpu_sim::KernelId(get_usize(v, "id")?),
        name: get_str(v, "name")?.into(),
        start_cycle: get_u64(v, "start_cycle")?,
        end_cycle: get_u64(v, "end_cycle")?,
        instructions: get_u64(v, "instructions")?,
        ctas: get_u64(v, "ctas")?,
        started: get_bool(v, "started")?,
        done: get_bool(v, "done")?,
    })
}

/// Encodes full [`SimStats`] (every counter, so a decoded result is
/// `==` to the simulated one).
pub fn stats_to_json(s: &SimStats) -> Json {
    Json::obj()
        .with("cycles", Json::UInt(s.cycles))
        .with("instructions", Json::UInt(s.instructions))
        .with(
            "kernels",
            Json::Arr(s.kernels.iter().map(kernel_stats_to_json).collect()),
        )
        .with("l1", table_to_json(CACHE_COUNTERS, &s.l1))
        .with("fabric", fabric_stats_to_json(&s.fabric))
        .with(
            "cores",
            Json::Arr(s.cores.iter().map(|c| table_to_json(COUNTERS, c)).collect()),
        )
        .with("malformed_dispatches", Json::UInt(s.malformed_dispatches))
}

/// Decodes [`stats_to_json`]'s encoding.
///
/// # Errors
///
/// Fails on missing/mistyped fields.
pub fn stats_from_json(v: &Json) -> Result<SimStats, CodecError> {
    Ok(SimStats {
        cycles: get_u64(v, "cycles")?,
        instructions: get_u64(v, "instructions")?,
        kernels: get_arr(v, "kernels")?
            .iter()
            .map(kernel_stats_from_json)
            .collect::<Result<_, _>>()?,
        l1: get_table(v, "l1", CACHE_COUNTERS)?,
        fabric: fabric_stats_from_json(get_obj(v, "fabric")?)?,
        cores: get_arr(v, "cores")?
            .iter()
            .map(|c| table_from_json(COUNTERS, c))
            .collect::<Result<_, _>>()?,
        malformed_dispatches: get_u64(v, "malformed_dispatches")?,
    })
}

// ---------------------------------------------------------------------------
// RunResult

/// Encodes a [`RunResult`]'s persistent parts: stats, kernel ids, and LCS
/// limits. In-memory telemetry is *not* embedded (the store records
/// pointer files instead; the wire omits it).
pub fn result_to_json(r: &RunResult) -> Json {
    Json::obj()
        .with("stats", stats_to_json(&r.stats))
        .with(
            "kernels",
            Json::Arr(r.kernels.iter().map(|k| Json::UInt(k.0 as u64)).collect()),
        )
        .with(
            "lcs_limits",
            match &r.lcs_limits {
                None => Json::Null,
                Some(v) => Json::Arr(v.iter().map(|&l| Json::UInt(l.into())).collect()),
            },
        )
}

/// Decodes [`result_to_json`]'s encoding. The rebuilt result carries no
/// telemetry.
///
/// # Errors
///
/// Fails on missing/mistyped fields.
pub fn result_from_json(v: &Json) -> Result<RunResult, CodecError> {
    let kernels = get_arr(v, "kernels")?
        .iter()
        .map(|k| {
            k.as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .map(gpgpu_sim::KernelId)
                .ok_or_else(|| err("bad kernel id"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if kernels.is_empty() {
        return Err(err("result has no kernels"));
    }
    let lcs_limits = match v.get("lcs_limits") {
        None | Some(Json::Null) => None,
        Some(Json::Arr(items)) => Some(
            items
                .iter()
                .map(|l| {
                    l.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| err("bad lcs limit"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        ),
        Some(_) => return Err(err("lcs_limits must be null or an array")),
    };
    Ok(RunResult {
        stats: stats_from_json(get_obj(v, "stats")?)?,
        kernels,
        lcs_limits,
        telemetry: None,
        // Provenance is process-local, never serialized: a decoded result
        // was produced by *some* simulation, not by this process's replay.
        via_replay: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Harness;

    fn sample_spec() -> RunSpec {
        let h = Harness::quick();
        RunSpec::single(&h, "vecadd", WarpPolicy::Gto, CtaPolicy::Baseline(None))
    }

    #[test]
    fn spec_round_trips() {
        let h = Harness::quick();
        let specs = [
            sample_spec(),
            RunSpec::single(&h, "spmv", WarpPolicy::TwoLevel(8), CtaPolicy::Lcs(0.7)),
            RunSpec::pair(&h, "vecadd", "fmaheavy", WarpPolicy::Gto, CtaPolicy::MixedCke(0.7), true),
        ];
        for spec in specs {
            let back = spec_from_json(&Json::parse(&spec_to_json(&spec).render()).unwrap())
                .unwrap_or_else(|e| panic!("{e} for {spec:?}"));
            assert_eq!(back, spec);
            assert_eq!(back.key(), spec.key());
        }
    }

    #[test]
    fn gpu_config_round_trips_a_sweep_variant() {
        let mut gpu = GpuConfig::fermi();
        gpu.l1.size_bytes *= 4;
        gpu.max_ctas_per_core = 4;
        gpu.fabric.dram.t_cas = 55;
        let back = gpu_from_json(&Json::parse(&gpu_to_json(&gpu).render()).unwrap()).unwrap();
        assert_eq!(back, gpu);
    }

    #[test]
    fn pre_1_1_core_stats_decode_with_zeroed_taxonomy() {
        // A core-stats object written by a 1.0 writer has only the seven
        // original counters; the stall taxonomy and occupancy integrals
        // must decode as 0 rather than refusing the document.
        let old = Json::parse(
            r#"{"issued":42,"idle_slots":7,"stalled_slots":3,"issued_slots":42,
                "gmem_transactions":5,"shared_replays":1,"ctas_completed":2}"#,
        )
        .unwrap();
        let c = table_from_json(COUNTERS, &old).expect("1.0 document stays readable");
        assert_eq!(c.issued, 42);
        assert_eq!(c.core_cycles, 0);
        assert_eq!(c.stall_scoreboard, 0);
        assert_eq!(c.warp_resident_cycles, 0);
        // A present-but-mistyped new field is still an error.
        let bad = Json::parse(
            r#"{"issued":1,"idle_slots":0,"stalled_slots":0,"issued_slots":1,
                "gmem_transactions":0,"shared_replays":0,"ctas_completed":0,
                "core_cycles":"ten"}"#,
        )
        .unwrap();
        assert!(table_from_json(COUNTERS, &bad).is_err());
        // And the full set round-trips exactly.
        let mut full = gpgpu_sim::CoreStats::default();
        full.issued = 9;
        full.issued_slots = 9;
        full.core_cycles = 1000;
        full.stall_mem_pending = 400;
        full.stall_ff_idle = 591;
        full.cta_resident_cycles = 3000;
        full.warp_resident_cycles = 12_000;
        let text = table_to_json(COUNTERS, &full).render();
        let back = table_from_json(COUNTERS, &Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, full);
    }

    #[test]
    fn schema_versions_gate_on_major() {
        let ok = Json::obj().with("schema_version", Json::Str(SCHEMA_VERSION.into()));
        check_schema_version(&ok).expect("own version accepted");
        // Minor bumps stay readable; major bumps and garbage are refused.
        let minor = Json::obj().with("schema_version", Json::Str("1.9".into()));
        check_schema_version(&minor).expect("newer minor accepted");
        for bad in ["2.0", "0.9", "two", ""] {
            let doc = Json::obj().with("schema_version", Json::Str(bad.into()));
            assert!(check_schema_version(&doc).is_err(), "{bad:?} must be refused");
        }
        assert!(check_schema_version(&Json::obj()).is_err(), "missing field refused");
    }

    /// Pins the exact content key of a known spec. If this test fails you
    /// have changed key derivation: every previously stored result is
    /// invalidated, which must be a deliberate decision (typically with a
    /// schema major bump), never an accident of refactoring.
    #[test]
    fn golden_content_key_is_stable() {
        let spec = sample_spec();
        let expected = "single:vecadd|scale=tiny|warp=gto|cta=baseline|max_cycles=400000000|\
            gpu={\"num_cores\":15,\"max_threads_per_core\":1536,\"max_ctas_per_core\":8,\
            \"max_warps_per_core\":48,\"regfile_per_core\":32768,\"smem_per_core\":49152,\
            \"num_sched_per_core\":2,\"int_latency\":4,\"fp_latency\":4,\"sfu_latency\":16,\
            \"shared_latency\":24,\"l1_latency\":20,\"l1\":{\"size_bytes\":16384,\
            \"line_bytes\":128,\"assoc\":4,\"mshr_entries\":32,\"mshr_max_merge\":8,\
            \"miss_queue_len\":8,\"write_back\":false,\"write_allocate\":false},\
            \"ldst_queue_len\":64,\"fabric\":{\"cores\":15,\"partitions\":6,\
            \"line_bytes\":128,\"l2\":{\"size_bytes\":131072,\"line_bytes\":128,\"assoc\":8,\
            \"mshr_entries\":64,\"mshr_max_merge\":16,\"miss_queue_len\":16,\"write_back\":true,\
            \"write_allocate\":true},\"l2_latency\":40,\"dram\":{\"banks\":16,\
            \"row_bytes\":2048,\"line_bytes\":128,\"t_rcd\":40,\"t_rp\":40,\"t_cas\":40,\
            \"t_burst\":4,\"queue_len\":32,\"max_bypass\":16},\"xbar_latency\":8,\
            \"xbar_flit_bytes\":32,\"xbar_queue_len\":8},\"flush_l1_on_kernel_launch\":true,\
            \"deadlock_cycles\":500000}";
        assert_eq!(content_key(&spec), expected);
        assert_eq!(spec.key().as_str(), expected, "RunSpec::key delegates here");
    }

    /// Pins the replay-group key: the prefix is the content key minus
    /// exactly the `cta=` segment. Same invalidation warning as
    /// `golden_content_key_is_stable` — stored records are keyed by this.
    #[test]
    fn golden_content_key_prefix_is_stable() {
        let spec = sample_spec();
        let key = content_key(&spec);
        let prefix = content_key_prefix(&spec);
        assert!(prefix.starts_with("single:vecadd|scale=tiny|warp=gto|max_cycles=400000000|gpu="));
        assert_eq!(prefix, key.replace("|cta=baseline", ""));
    }

    #[test]
    fn content_key_prefix_is_cta_policy_independent() {
        let h = Harness::quick();
        let policies = CtaPolicy::sweep_named();
        assert_eq!(policies.len(), 13, "sweep changed: revisit the prefix contract");
        let keys: Vec<String> = policies
            .iter()
            .map(|(_, cta)| {
                content_key_prefix(&RunSpec::single(&h, "vecadd", WarpPolicy::Gto, cta.clone()))
            })
            .collect();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(k, &keys[0], "policy {} must share the group prefix", policies[i].0);
        }
        // Full keys must still be distinct — replay re-times, it does not
        // deduplicate.
        let mut full: Vec<String> = policies
            .iter()
            .map(|(_, cta)| {
                content_key(&RunSpec::single(&h, "vecadd", WarpPolicy::Gto, cta.clone()))
            })
            .collect();
        full.sort_unstable();
        full.dedup();
        assert_eq!(full.len(), policies.len());
    }

    /// Generated-family names (`gen:<family>/<knobs>`) are first-class
    /// workload identities: the name embeds verbatim in the content key,
    /// every knob change changes the key (so the store cannot conflate
    /// two family members), and the on-disk address stays path-safe
    /// despite the `/`, `=`, and `,` in the name.
    #[test]
    fn generated_family_names_are_first_class_content_keys() {
        let h = Harness::quick();
        let key = |name: &str| {
            content_key(&RunSpec::single(&h, name, WarpPolicy::Gto, CtaPolicy::Baseline(None)))
        };
        let a = key("gen:tile/reuse=16,stride=3,pad=2");
        assert!(a.starts_with("single:gen:tile/reuse=16,stride=3,pad=2|scale=tiny|"));
        assert_ne!(a, key("gen:tile/reuse=16,stride=3,pad=4"), "knobs must be identity");
        assert_ne!(a, key("gen:tile/reuse=16,stride=3"), "defaulted != explicit name");
        let addr = crate::store::content_address(&a);
        assert_eq!(addr.len(), 32);
        assert!(addr.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn content_key_prefix_distinguishes_everything_else() {
        let h = Harness::quick();
        let base = RunSpec::single(&h, "vecadd", WarpPolicy::Gto, CtaPolicy::Baseline(None));
        let mut other_scale = base.clone();
        other_scale.scale = Scale::Small;
        let mut other_cycles = base.clone();
        other_cycles.max_cycles += 1;
        let mut other_gpu = base.clone();
        other_gpu.gpu.num_cores += 1;
        let variants = [
            RunSpec::single(&h, "saxpy", WarpPolicy::Gto, CtaPolicy::Baseline(None)),
            RunSpec::single(&h, "vecadd", WarpPolicy::TwoLevel(8), CtaPolicy::Baseline(None)),
            RunSpec::pair(&h, "vecadd", "saxpy", WarpPolicy::Gto, CtaPolicy::Baseline(None), false),
            other_scale,
            other_cycles,
            other_gpu,
        ];
        for v in &variants {
            assert_ne!(
                content_key_prefix(&base),
                content_key_prefix(v),
                "prefix must separate {v:?}"
            );
        }
    }

    #[test]
    fn scale_names_round_trip() {
        for s in [Scale::Tiny, Scale::Small, Scale::Large, Scale::Full] {
            assert_eq!(scale_from_str(scale_to_str(s)).unwrap(), s);
        }
        assert!(scale_from_str("huge").is_err());
    }
}
