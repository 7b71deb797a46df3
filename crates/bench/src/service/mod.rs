//! The `exp serve` job service: a std-only TCP server that executes
//! [`RunSpec`] batches on a shared [`RunEngine`](crate::RunEngine) +
//! [`ResultStore`](crate::ResultStore), and the matching clients.
//!
//! # Wire protocol
//!
//! Newline-delimited JSON (NDJSON) over a plain TCP stream; every line is
//! one JSON object carrying `"schema_version"` (see
//! [`codec::SCHEMA_VERSION`](crate::codec::SCHEMA_VERSION) — unknown
//! majors are rejected, not misparsed). The client writes [`Request`]
//! lines; the server answers each with a stream of [`Event`] lines.
//!
//! Requests:
//!
//! ```text
//! {"schema_version":"1.1","type":"submit","specs":[<spec>, ...]}
//! {"schema_version":"1.1","type":"ping"}
//! {"schema_version":"1.1","type":"stats"}
//! {"schema_version":"1.1","type":"shutdown"}
//! ```
//!
//! Events answering a `submit`, in order: one `accepted`, then interleaved
//! `run_started`/`run_progress` lines as workers pick specs up, then one
//! `run_done` per submitted spec **in submission order** (each carrying
//! the full result and its provenance), then one `batch_done`:
//!
//! ```text
//! {"schema_version":"1.1","type":"accepted","runs":N,"unique":M}
//! {"schema_version":"1.1","type":"run_started","key":K}
//! {"schema_version":"1.1","type":"run_progress","key":K,"cycle":C,"instructions":I}
//! {"schema_version":"1.1","type":"run_done","index":i,"key":K,"source":S,"wall_nanos":W,"result":{...}}
//! {"schema_version":"1.1","type":"batch_done","runs":N}
//! ```
//!
//! `ping` answers `pong`; `stats` answers one `stats` event — a
//! [`ServerStats`] snapshot of queue depth, in-flight jobs, busy
//! workers, completion counters, and job wall-time percentiles;
//! `shutdown` answers `shutdown_ack` and stops the server once queued
//! work drains. A malformed or incompatible request line answers `error`
//! and closes the connection.
//!
//! # Execution semantics
//!
//! Specs are deduplicated by content key at every level: within a batch,
//! against the server engine's memo table, against the persistent store,
//! and — via the in-flight job table — against runs other connections are
//! already executing (*coalescing*: the second submitter waits for the
//! first execution instead of queueing a duplicate). The work queue is
//! bounded; submitters block while it is full, which backpressures
//! clients instead of growing memory. A client disconnect never cancels
//! in-flight work: results still land in the memo and store, so the next
//! submission of the same spec is a hit.

pub mod client;
pub mod server;

pub use client::{BatchItem, Client, LocalClient, RemoteClient};
pub use server::{ServeConfig, Server};

use crate::codec::{
    check_schema_version, result_from_json, result_to_json, spec_from_json, spec_to_json,
    CodecError, SCHEMA_VERSION,
};
use crate::engine::{RunResult, RunSpec};
use crate::json::Json;
use std::fmt;

/// How a `run_done` result was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Simulated for this request.
    Simulated,
    /// Served from the engine memo or the persistent store.
    Cached,
    /// Coalesced onto an execution another request already started.
    Coalesced,
    /// Re-timed from a captured execution record (`--replay`): a real
    /// simulation of this request, driven by a record instead of
    /// functional execution.
    Replayed,
}

impl Source {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Simulated => "simulated",
            Source::Cached => "cached",
            Source::Coalesced => "coalesced",
            Source::Replayed => "replayed",
        }
    }

    /// Parses the wire name.
    pub fn from_str(s: &str) -> Result<Self, CodecError> {
        match s {
            "simulated" => Ok(Source::Simulated),
            "cached" => Ok(Source::Cached),
            "coalesced" => Ok(Source::Coalesced),
            "replayed" => Ok(Source::Replayed),
            other => Err(CodecError(format!("unknown source {other:?}"))),
        }
    }
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A point-in-time server metrics snapshot (answer to
/// [`Request::Stats`], and the payload of the server's periodic
/// structured log line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Specs queued but not yet picked up by a worker.
    pub queue_depth: u64,
    /// Jobs a worker is executing right now.
    pub in_flight: u64,
    /// Workers currently executing a job.
    pub workers_busy: u64,
    /// Total worker threads.
    pub workers: u64,
    /// Jobs workers have finished (success or failure) since startup.
    pub jobs_done: u64,
    /// Specs the engine actually simulated.
    pub runs_executed: u64,
    /// Requests answered from the engine memo table.
    pub runs_deduped: u64,
    /// Requests answered from the persistent store.
    pub store_hits: u64,
    /// Specs the engine re-timed from a captured execution record.
    pub runs_replayed: u64,
    /// Median simulated-job wall time in nanoseconds (0 until a job ran).
    pub p50_wall_nanos: u64,
    /// 99th-percentile simulated-job wall time in nanoseconds.
    pub p99_wall_nanos: u64,
}

impl ServerStats {
    /// Fraction of answered requests that never hit the simulator
    /// (memo + store hits over all requests answered so far). Replayed
    /// runs count as *non*-hits: replay drives a real simulation, it
    /// just skips the functional half.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.runs_deduped + self.store_hits;
        gpgpu_sim::ratio(hits, hits + self.runs_executed + self.runs_replayed)
    }

    /// The periodic log-line rendering (also what `exp serve` prints).
    /// Deliberately shaped unlike the batch summary lines so log greps
    /// for either never collide.
    pub fn log_line(&self) -> String {
        format!(
            "[serve: stats queue_depth={} in_flight={} workers_busy={}/{} jobs_done={} \
             executed={} deduped={} store_hits={} replayed={} hit_rate={:.2} p50_ms={:.2} p99_ms={:.2}]",
            self.queue_depth,
            self.in_flight,
            self.workers_busy,
            self.workers,
            self.jobs_done,
            self.runs_executed,
            self.runs_deduped,
            self.store_hits,
            self.runs_replayed,
            self.hit_rate(),
            self.p50_wall_nanos as f64 / 1e6,
            self.p99_wall_nanos as f64 / 1e6,
        )
    }
}

/// A client → server request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Execute a batch of specs and stream the results back.
    Submit(Vec<RunSpec>),
    /// Liveness check.
    Ping,
    /// Ask for a [`ServerStats`] snapshot.
    Stats,
    /// Drain queued work, then stop the server.
    Shutdown,
}

/// Encodes a request as one wire line (no trailing newline).
pub fn request_to_json(r: &Request) -> Json {
    let base = Json::obj().with("schema_version", Json::Str(SCHEMA_VERSION.into()));
    match r {
        Request::Submit(specs) => base
            .with("type", Json::Str("submit".into()))
            .with("specs", Json::Arr(specs.iter().map(spec_to_json).collect())),
        Request::Ping => base.with("type", Json::Str("ping".into())),
        Request::Stats => base.with("type", Json::Str("stats".into())),
        Request::Shutdown => base.with("type", Json::Str("shutdown".into())),
    }
}

/// Decodes a request line (gating on schema major).
pub fn request_from_json(v: &Json) -> Result<Request, CodecError> {
    check_schema_version(v)?;
    let ty = v
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| CodecError("request missing \"type\"".into()))?;
    match ty {
        "submit" => {
            let specs = v
                .get("specs")
                .and_then(Json::as_arr)
                .ok_or_else(|| CodecError("submit missing \"specs\" array".into()))?;
            specs
                .iter()
                .map(spec_from_json)
                .collect::<Result<Vec<_>, _>>()
                .map(Request::Submit)
        }
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(CodecError(format!("unknown request type {other:?}"))),
    }
}

/// A server → client event line.
#[derive(Debug, Clone)]
pub enum Event {
    /// The submit batch was parsed and queued.
    Accepted {
        /// Specs in the batch.
        runs: usize,
        /// Unique content keys among them.
        unique: usize,
    },
    /// A worker started simulating the keyed run.
    RunStarted {
        /// The run's content key.
        key: String,
    },
    /// Periodic progress of an in-flight simulation.
    RunProgress {
        /// The run's content key.
        key: String,
        /// Current device cycle.
        cycle: u64,
        /// Warp-instructions issued so far.
        instructions: u64,
    },
    /// One submitted spec completed (events arrive in submission order).
    RunDone {
        /// Position of the spec in the submitted batch.
        index: usize,
        /// The run's content key.
        key: String,
        /// Where the result came from.
        source: Source,
        /// Wall-clock nanoseconds the simulation took (0 when cached).
        wall_nanos: u64,
        /// The full result.
        result: RunResult,
    },
    /// Every spec of the batch has been answered.
    BatchDone {
        /// Specs in the batch.
        runs: usize,
    },
    /// The request failed; the server closes the connection after this.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Stats`]: a metrics snapshot.
    Stats(ServerStats),
    /// Answer to [`Request::Shutdown`].
    ShutdownAck,
}

/// Encodes an event as one wire line (no trailing newline).
pub fn event_to_json(e: &Event) -> Json {
    let base = Json::obj().with("schema_version", Json::Str(SCHEMA_VERSION.into()));
    match e {
        Event::Accepted { runs, unique } => base
            .with("type", Json::Str("accepted".into()))
            .with("runs", Json::UInt(*runs as u64))
            .with("unique", Json::UInt(*unique as u64)),
        Event::RunStarted { key } => base
            .with("type", Json::Str("run_started".into()))
            .with("key", Json::Str(key.clone())),
        Event::RunProgress {
            key,
            cycle,
            instructions,
        } => base
            .with("type", Json::Str("run_progress".into()))
            .with("key", Json::Str(key.clone()))
            .with("cycle", Json::UInt(*cycle))
            .with("instructions", Json::UInt(*instructions)),
        Event::RunDone {
            index,
            key,
            source,
            wall_nanos,
            result,
        } => base
            .with("type", Json::Str("run_done".into()))
            .with("index", Json::UInt(*index as u64))
            .with("key", Json::Str(key.clone()))
            .with("source", Json::Str(source.as_str().into()))
            .with("wall_nanos", Json::UInt(*wall_nanos))
            .with("result", result_to_json(result)),
        Event::BatchDone { runs } => base
            .with("type", Json::Str("batch_done".into()))
            .with("runs", Json::UInt(*runs as u64)),
        Event::Error { message } => base
            .with("type", Json::Str("error".into()))
            .with("message", Json::Str(message.clone())),
        Event::Pong => base.with("type", Json::Str("pong".into())),
        Event::Stats(s) => base
            .with("type", Json::Str("stats".into()))
            .with("queue_depth", Json::UInt(s.queue_depth))
            .with("in_flight", Json::UInt(s.in_flight))
            .with("workers_busy", Json::UInt(s.workers_busy))
            .with("workers", Json::UInt(s.workers))
            .with("jobs_done", Json::UInt(s.jobs_done))
            .with("runs_executed", Json::UInt(s.runs_executed))
            .with("runs_deduped", Json::UInt(s.runs_deduped))
            .with("store_hits", Json::UInt(s.store_hits))
            .with("runs_replayed", Json::UInt(s.runs_replayed))
            .with("p50_wall_nanos", Json::UInt(s.p50_wall_nanos))
            .with("p99_wall_nanos", Json::UInt(s.p99_wall_nanos)),
        Event::ShutdownAck => base.with("type", Json::Str("shutdown_ack".into())),
    }
}

/// Decodes an event line (gating on schema major).
pub fn event_from_json(v: &Json) -> Result<Event, CodecError> {
    check_schema_version(v)?;
    let ty = v
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| CodecError("event missing \"type\"".into()))?;
    let need_u64 = |field: &str| {
        v.get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| CodecError(format!("{ty} event missing \"{field}\"")))
    };
    let need_str = |field: &str| {
        v.get(field)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| CodecError(format!("{ty} event missing \"{field}\"")))
    };
    match ty {
        "accepted" => Ok(Event::Accepted {
            runs: need_u64("runs")? as usize,
            unique: need_u64("unique")? as usize,
        }),
        "run_started" => Ok(Event::RunStarted {
            key: need_str("key")?,
        }),
        "run_progress" => Ok(Event::RunProgress {
            key: need_str("key")?,
            cycle: need_u64("cycle")?,
            instructions: need_u64("instructions")?,
        }),
        "run_done" => Ok(Event::RunDone {
            index: need_u64("index")? as usize,
            key: need_str("key")?,
            source: Source::from_str(&need_str("source")?)?,
            wall_nanos: need_u64("wall_nanos")?,
            result: result_from_json(
                v.get("result")
                    .ok_or_else(|| CodecError("run_done event missing \"result\"".into()))?,
            )?,
        }),
        "batch_done" => Ok(Event::BatchDone {
            runs: need_u64("runs")? as usize,
        }),
        "error" => Ok(Event::Error {
            message: need_str("message")?,
        }),
        "pong" => Ok(Event::Pong),
        "stats" => Ok(Event::Stats(ServerStats {
            queue_depth: need_u64("queue_depth")?,
            in_flight: need_u64("in_flight")?,
            workers_busy: need_u64("workers_busy")?,
            workers: need_u64("workers")?,
            jobs_done: need_u64("jobs_done")?,
            runs_executed: need_u64("runs_executed")?,
            runs_deduped: need_u64("runs_deduped")?,
            store_hits: need_u64("store_hits")?,
            // Added in schema 1.2: absent from a same-major 1.1 writer
            // means "no replays", not "unreadable".
            runs_replayed: v.get("runs_replayed").and_then(Json::as_u64).unwrap_or(0),
            p50_wall_nanos: need_u64("p50_wall_nanos")?,
            p99_wall_nanos: need_u64("p99_wall_nanos")?,
        })),
        "shutdown_ack" => Ok(Event::ShutdownAck),
        other => Err(CodecError(format!("unknown event type {other:?}"))),
    }
}

/// Why a service call failed.
#[derive(Debug)]
pub enum ServiceError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer spoke an incompatible or malformed dialect.
    Protocol(String),
    /// The server reported a failure executing the batch.
    Remote(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "i/o error: {e}"),
            ServiceError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServiceError::Remote(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<CodecError> for ServiceError {
    fn from(e: CodecError) -> Self {
        ServiceError::Protocol(e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Harness;
    use tbs_core::{CtaPolicy, WarpPolicy};

    fn spec() -> RunSpec {
        RunSpec::single(
            &Harness::quick(),
            "vecadd",
            WarpPolicy::Gto,
            CtaPolicy::Baseline(None),
        )
    }

    #[test]
    fn requests_round_trip() {
        for r in [
            Request::Submit(vec![spec(), spec()]),
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
        ] {
            let line = request_to_json(&r).render();
            let back = request_from_json(&Json::parse(&line).unwrap()).unwrap();
            match (&r, &back) {
                (Request::Submit(a), Request::Submit(b)) => assert_eq!(a, b),
                (Request::Ping, Request::Ping)
                | (Request::Stats, Request::Stats)
                | (Request::Shutdown, Request::Shutdown) => {}
                other => panic!("round trip changed variant: {other:?}"),
            }
        }
    }

    #[test]
    fn stats_event_round_trips() {
        let s = ServerStats {
            queue_depth: 3,
            in_flight: 2,
            workers_busy: 2,
            workers: 4,
            jobs_done: 17,
            runs_executed: 10,
            runs_deduped: 25,
            store_hits: 5,
            runs_replayed: 10,
            p50_wall_nanos: 41_000_000,
            p99_wall_nanos: 900_000_000,
        };
        let line = event_to_json(&Event::Stats(s)).render();
        match event_from_json(&Json::parse(&line).unwrap()).unwrap() {
            Event::Stats(back) => assert_eq!(back, s),
            other => panic!("wrong variant: {other:?}"),
        }
        // Replayed runs hit the simulator, so they dilute the hit rate.
        assert!((s.hit_rate() - 0.6).abs() < 1e-12, "30 hits over 50 answers");
        let log = s.log_line();
        assert!(log.contains("queue_depth=3"), "{log}");
        assert!(log.contains("workers_busy=2/4"), "{log}");
        assert!(log.contains("replayed=10"), "{log}");
        assert!(log.contains("p50_ms=41.00"), "{log}");
        // Must never collide with the batch-summary greps in CI
        // (' 0 cached,' / '(0 simulated,').
        assert!(!log.contains(" cached,"), "{log}");
        assert!(!log.contains(" simulated,"), "{log}");
    }

    #[test]
    fn stats_without_replayed_field_decode_as_zero() {
        // A 1.1-era writer never emits runs_replayed; same-major readers
        // must treat that as zero rather than reject the event.
        let s = ServerStats {
            queue_depth: 0,
            in_flight: 0,
            workers_busy: 0,
            workers: 1,
            jobs_done: 2,
            runs_executed: 2,
            runs_deduped: 0,
            store_hits: 0,
            runs_replayed: 7,
            p50_wall_nanos: 0,
            p99_wall_nanos: 0,
        };
        let line = event_to_json(&Event::Stats(s)).render();
        let stripped = line.replace(",\"runs_replayed\":7", "");
        assert_ne!(stripped, line, "field must have been present to strip");
        match event_from_json(&Json::parse(&stripped).unwrap()).unwrap() {
            Event::Stats(back) => assert_eq!(back.runs_replayed, 0),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn replayed_source_round_trips() {
        assert_eq!(Source::Replayed.as_str(), "replayed");
        assert_eq!(Source::from_str("replayed").unwrap(), Source::Replayed);
        for s in [
            Source::Simulated,
            Source::Cached,
            Source::Coalesced,
            Source::Replayed,
        ] {
            assert_eq!(Source::from_str(s.as_str()).unwrap(), s);
        }
    }

    #[test]
    fn events_round_trip() {
        let e = Event::RunProgress {
            key: spec().key().as_str().to_string(),
            cycle: 123,
            instructions: 456,
        };
        let line = event_to_json(&e).render();
        match event_from_json(&Json::parse(&line).unwrap()).unwrap() {
            Event::RunProgress {
                cycle,
                instructions,
                ..
            } => {
                assert_eq!(cycle, 123);
                assert_eq!(instructions, 456);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn incompatible_versions_are_rejected() {
        let line = r#"{"schema_version":"9.0","type":"ping"}"#;
        let err = request_from_json(&Json::parse(line).unwrap()).unwrap_err();
        assert!(err.0.contains("incompatible"), "got: {}", err.0);
    }
}
