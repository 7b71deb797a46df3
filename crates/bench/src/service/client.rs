//! Clients for the `exp serve` protocol: one trait, two transports.
//!
//! [`Client`] is the seam experiments run against: [`LocalClient`] wraps
//! an in-process [`RunEngine`], [`RemoteClient`] speaks the NDJSON wire
//! protocol to an `exp serve` server. Either way a batch of specs comes
//! back as results in submission order, so callers (e.g. `exp submit`)
//! can seed a local engine and collect tables identically to a local run.

use super::{event_from_json, request_to_json, Event, Request, ServerStats, ServiceError, Source};
use crate::engine::{RunEngine, RunResult, RunSpec};
use crate::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// One completed run of a submitted batch.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The run's content key.
    pub key: String,
    /// Where the result came from.
    pub source: Source,
    /// Wall-clock nanoseconds the simulation took (0 when cached).
    pub wall_nanos: u64,
    /// The result itself.
    pub result: Arc<RunResult>,
}

/// Executes batches of [`RunSpec`]s — locally or against a server —
/// returning results in submission order.
pub trait Client {
    /// Executes `specs`, invoking `on_event` with every service event as
    /// it arrives (progress streaming; best-effort — the local transport
    /// only emits `run_done`-adjacent events).
    fn run_batch_observed(
        &mut self,
        specs: &[RunSpec],
        on_event: &mut dyn FnMut(&Event),
    ) -> Result<Vec<BatchItem>, ServiceError>;

    /// As [`run_batch_observed`](Self::run_batch_observed) without an
    /// observer.
    fn run_batch(&mut self, specs: &[RunSpec]) -> Result<Vec<BatchItem>, ServiceError> {
        self.run_batch_observed(specs, &mut |_| {})
    }
}

/// In-process transport: batches go straight to a [`RunEngine`].
pub struct LocalClient {
    /// The engine batches execute on (public so callers can collect
    /// tables from it afterwards).
    pub engine: RunEngine,
}

impl LocalClient {
    /// A client over a fresh engine with `jobs` workers.
    pub fn new(jobs: usize) -> Self {
        LocalClient {
            engine: RunEngine::new(jobs),
        }
    }
}

impl Client for LocalClient {
    fn run_batch_observed(
        &mut self,
        specs: &[RunSpec],
        on_event: &mut dyn FnMut(&Event),
    ) -> Result<Vec<BatchItem>, ServiceError> {
        // Classify before executing so hits are reported as such.
        let sources: Vec<Source> = specs
            .iter()
            .map(|s| {
                if self.engine.lookup(s).is_some() {
                    Source::Cached
                } else {
                    Source::Simulated
                }
            })
            .collect();
        self.engine.execute_batch(specs);
        let items = specs
            .iter()
            .zip(sources)
            .enumerate()
            .map(|(index, (spec, source))| {
                let key = spec.key().as_str().to_string();
                let result = self.engine.get(spec);
                let item = BatchItem {
                    key: key.clone(),
                    source,
                    wall_nanos: 0,
                    result,
                };
                on_event(&Event::RunDone {
                    index,
                    key,
                    source,
                    wall_nanos: 0,
                    result: (*item.result).clone(),
                });
                item
            })
            .collect();
        on_event(&Event::BatchDone { runs: specs.len() });
        Ok(items)
    }
}

/// Wire transport: one TCP connection per call to an `exp serve` server.
pub struct RemoteClient {
    addr: String,
}

impl RemoteClient {
    /// A client for the server at `addr` (`host:port`). No connection is
    /// made until a call; use [`ping`](Self::ping) to probe liveness.
    pub fn new(addr: impl Into<String>) -> Self {
        RemoteClient { addr: addr.into() }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn call(&self, request: &Request) -> Result<Connection, ServiceError> {
        let stream = TcpStream::connect(&self.addr)?;
        let mut write_half = stream.try_clone()?;
        let line = request_to_json(request).render();
        write_half.write_all(line.as_bytes())?;
        write_half.write_all(b"\n")?;
        write_half.flush()?;
        Ok(Connection {
            reader: BufReader::new(stream),
        })
    }

    /// Round-trips a `ping`.
    pub fn ping(&self) -> Result<(), ServiceError> {
        let mut conn = self.call(&Request::Ping)?;
        match conn.next_event()? {
            Event::Pong => Ok(()),
            other => Err(ServiceError::Protocol(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Fetches a [`ServerStats`] metrics snapshot.
    pub fn stats(&self) -> Result<ServerStats, ServiceError> {
        let mut conn = self.call(&Request::Stats)?;
        match conn.next_event()? {
            Event::Stats(s) => Ok(s),
            other => Err(ServiceError::Protocol(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }

    /// Asks the server to drain its queue and stop.
    pub fn shutdown(&self) -> Result<(), ServiceError> {
        let mut conn = self.call(&Request::Shutdown)?;
        match conn.next_event()? {
            Event::ShutdownAck => Ok(()),
            other => Err(ServiceError::Protocol(format!(
                "expected shutdown_ack, got {other:?}"
            ))),
        }
    }
}

/// An open event stream for one request.
struct Connection {
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn next_event(&mut self) -> Result<Event, ServiceError> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(ServiceError::Protocol(
                    "server closed the connection mid-stream".into(),
                ));
            }
            if line.trim().is_empty() {
                continue;
            }
            let v = Json::parse(line.trim_end())
                .map_err(|e| ServiceError::Protocol(e.to_string()))?;
            return Ok(event_from_json(&v)?);
        }
    }
}

impl Client for RemoteClient {
    fn run_batch_observed(
        &mut self,
        specs: &[RunSpec],
        on_event: &mut dyn FnMut(&Event),
    ) -> Result<Vec<BatchItem>, ServiceError> {
        let mut conn = self.call(&Request::Submit(specs.to_vec()))?;
        let mut items: Vec<Option<BatchItem>> = (0..specs.len()).map(|_| None).collect();
        loop {
            let event = conn.next_event()?;
            on_event(&event);
            match event {
                Event::RunDone {
                    index,
                    key,
                    source,
                    wall_nanos,
                    result,
                } => {
                    if index >= items.len() {
                        return Err(ServiceError::Protocol(format!(
                            "run_done index {index} out of range"
                        )));
                    }
                    items[index] = Some(BatchItem {
                        key,
                        source,
                        wall_nanos,
                        result: Arc::new(result),
                    });
                }
                Event::BatchDone { .. } => break,
                Event::Error { message } => return Err(ServiceError::Remote(message)),
                // accepted / run_started / run_progress are informational.
                _ => {}
            }
        }
        items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                item.ok_or_else(|| {
                    ServiceError::Protocol(format!("batch_done before run_done for index {i}"))
                })
            })
            .collect()
    }
}
