//! The client of the `exp serve` protocol.
//!
//! [`RemoteClient`] speaks the NDJSON wire protocol to an `exp serve`
//! server. A batch of specs comes back as results in submission order, so
//! `exp submit` can seed a local engine and collect tables identically to
//! a local run.

use super::{
    event_from_json, read_line, request_to_json, Event, Request, ServerStats, ServiceError, Source,
};
use crate::engine::{RunResult, RunSpec};
use crate::json::Json;
use std::io::{BufReader, Write};
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

/// A client of an `exp serve` server: one TCP connection per call.
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

    /// As [`run_batch_observed`](Self::run_batch_observed) without an
    /// observer.
    pub fn run_batch(&self, specs: &[RunSpec]) -> Result<Vec<BatchItem>, ServiceError> {
        self.run_batch_observed(specs, &mut |_| {})
    }

    /// Executes `specs` on the server, invoking `on_event` with every
    /// service event as it arrives, and returns the results in submission
    /// order.
    pub fn run_batch_observed(
        &self,
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

/// An open event stream for one request.
struct Connection {
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn next_event(&mut self) -> Result<Event, ServiceError> {
        loop {
            let Some(line) = read_line(&mut self.reader)? else {
                return Err(ServiceError::Protocol(
                    "server closed the connection mid-stream".into(),
                ));
            };
            if line.trim().is_empty() {
                continue;
            }
            let v = Json::parse(line.trim_end())
                .map_err(|e| ServiceError::Protocol(e.to_string()))?;
            return Ok(event_from_json(&v)?);
        }
    }
}
