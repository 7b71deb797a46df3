//! The `exp serve` server: hands each submitted batch to one shared
//! [`RunEngine`], one batch at a time, and streams NDJSON events back.

use super::{event_to_json, read_line, request_from_json, Event, Request, ServerStats, ServiceError};
use crate::engine::{ProgressHook, ReplayMode, RunEngine, RunSpec};
use crate::json::Json;
use crate::store::ResultStore;
use std::collections::HashSet;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (e.g. `127.0.0.1:7878`; port 0 picks a free port).
    pub addr: String,
    /// Engine worker threads executing a batch's simulations.
    pub jobs: usize,
    /// Device-cycle interval between `run_progress` events (0 disables).
    pub progress_every: u64,
    /// Persistent store to attach, if any.
    pub store: Option<Arc<ResultStore>>,
    /// Seconds between periodic `[serve: stats ...]` log lines
    /// (0 disables; tests default to quiet).
    pub stats_log_every: u64,
    /// Record/replay mode for the shared engine (see
    /// [`RunEngine::set_replay_mode`]). Replayed runs report
    /// [`Source::Replayed`](super::Source::Replayed) to clients.
    pub replay: ReplayMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            jobs: crate::default_jobs(),
            progress_every: 1_000_000,
            store: None,
            stats_log_every: 0,
            replay: ReplayMode::Off,
        }
    }
}

/// Where the engine's run events go: the connection whose batch is
/// executing, if any.
#[derive(Default)]
struct Sink {
    tx: Mutex<Option<mpsc::Sender<String>>>,
    /// Runs the engine has started since startup.
    started: AtomicU64,
}

struct Inner {
    engine: RunEngine,
    /// Held while a batch executes: the engine runs one batch at a time.
    executor: Mutex<()>,
    sink: Arc<Sink>,
    /// Specs of batches waiting for the executor.
    waiting: AtomicU64,
    /// Specs of the batch the executor holds.
    running: AtomicU64,
    shutdown: AtomicBool,
}

impl Inner {
    /// A point-in-time [`ServerStats`] snapshot. Counters are read
    /// without a global lock, so a snapshot racing live work is
    /// approximate but each counter is individually consistent.
    fn stats_snapshot(&self) -> ServerStats {
        let e = &self.engine;
        let (executed, replayed) = (e.runs_executed() as u64, e.runs_replayed() as u64);
        let jobs_done = executed + replayed + e.runs_failed() as u64;
        let started = self.sink.started.load(Ordering::SeqCst);
        let mut walls: Vec<u64> = e.profiles().iter().map(|p| p.wall_nanos).collect();
        walls.sort_unstable();
        ServerStats {
            queue_depth: self.waiting.load(Ordering::SeqCst),
            in_flight: self.running.load(Ordering::SeqCst),
            workers_busy: started.saturating_sub(jobs_done),
            workers: e.jobs() as u64,
            jobs_done,
            runs_executed: executed,
            runs_deduped: e.runs_deduped() as u64,
            store_hits: e.runs_from_store() as u64,
            runs_replayed: replayed,
            p50_wall_nanos: percentile(&walls, 50),
            p99_wall_nanos: percentile(&walls, 99),
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (0 when empty).
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * p).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The `exp serve` server: owns one [`RunEngine`] (optionally backed by a
/// [`ResultStore`]) and executes submitted batches on it.
pub struct Server {
    inner: Arc<Inner>,
    listener: TcpListener,
    addr: SocketAddr,
    stats_log_every: u64,
}

impl Server {
    /// Binds the listening socket and builds the shared engine. The
    /// server does not accept connections until [`run`](Self::run).
    pub fn bind(cfg: ServeConfig) -> Result<Server, ServiceError> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let sink = Arc::new(Sink::default());
        let mut engine = RunEngine::new(cfg.jobs);
        if let Some(store) = cfg.store {
            engine.attach_store(store);
        }
        engine.set_replay_mode(cfg.replay);
        let events = Arc::clone(&sink);
        engine.set_progress(ProgressHook {
            every_cycles: cfg.progress_every,
            callback: Arc::new(move |key, progress| {
                let key = key.as_str().to_string();
                let event = match progress {
                    None => {
                        events.started.fetch_add(1, Ordering::SeqCst);
                        Event::RunStarted { key }
                    }
                    Some((cycle, instructions)) => Event::RunProgress {
                        key,
                        cycle,
                        instructions,
                    },
                };
                if let Some(tx) = &*events.tx.lock().expect("not poisoned") {
                    let _ = tx.send(event_to_json(&event).render());
                }
            }),
        });
        Ok(Server {
            inner: Arc::new(Inner {
                engine,
                executor: Mutex::new(()),
                sink,
                waiting: AtomicU64::new(0),
                running: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
            }),
            listener,
            addr,
            stats_log_every: cfg.stats_log_every,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accepts connections until a client sends `shutdown`. Every
    /// connection thread is joined, so accepted batches finish before this
    /// returns.
    pub fn run(self) -> Result<(), ServiceError> {
        // Periodic observability heartbeat: one structured stats line per
        // interval, polling the shutdown flag often enough to exit fast.
        let monitor = (self.stats_log_every > 0).then(|| {
            let inner = Arc::clone(&self.inner);
            let every = Duration::from_secs(self.stats_log_every);
            std::thread::spawn(move || {
                let mut last = Instant::now();
                while !inner.shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(100));
                    if last.elapsed() >= every {
                        println!("{}", inner.stats_snapshot().log_line());
                        last = Instant::now();
                    }
                }
            })
        });
        let mut conns = Vec::new();
        loop {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let (stream, _) = match self.listener.accept() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("warning: accept failed: {e}");
                    continue;
                }
            };
            if self.inner.shutdown.load(Ordering::SeqCst) {
                break; // the wake-up connection itself
            }
            let inner = Arc::clone(&self.inner);
            let addr = self.addr;
            conns.push(std::thread::spawn(move || {
                if let Err(e) = handle_connection(&inner, stream, addr) {
                    eprintln!("warning: connection failed: {e}");
                }
            }));
        }
        if let Some(m) = monitor {
            let _ = m.join();
        }
        for c in conns {
            let _ = c.join();
        }
        Ok(())
    }
}

/// One connection: read request lines, answer each with an event stream.
fn handle_connection(
    inner: &Arc<Inner>,
    stream: TcpStream,
    addr: SocketAddr,
) -> Result<(), ServiceError> {
    let mut reader = BufReader::new(stream.try_clone()?);
    // Event lines funnel through one channel so the writer thread is the
    // only place that touches the socket's write half: progress callbacks
    // (engine worker threads) and the coordinator below never block on a
    // slow or dead client, they just enqueue.
    let (tx, rx) = mpsc::channel::<String>();
    let mut write_half = stream;
    let writer = std::thread::spawn(move || {
        for line in rx {
            if write_half
                .write_all(line.as_bytes())
                .and_then(|()| write_half.write_all(b"\n"))
                .is_err()
            {
                break; // client went away; the channel drains on drop
            }
        }
    });
    let send = |e: &Event| {
        let _ = tx.send(event_to_json(e).render());
    };
    loop {
        let line = match read_line(&mut reader) {
            Ok(Some(l)) => l,
            Ok(None) | Err(ServiceError::Io(_)) => break, // client went away
            Err(e) => {
                send(&Event::Error {
                    message: e.to_string(),
                });
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = Json::parse(&line)
            .map_err(|e| e.to_string())
            .and_then(|v| request_from_json(&v).map_err(|e| e.0));
        match request {
            Err(message) => {
                send(&Event::Error { message });
                break;
            }
            Ok(Request::Ping) => send(&Event::Pong),
            Ok(Request::Stats) => send(&Event::Stats(inner.stats_snapshot())),
            Ok(Request::Shutdown) => {
                send(&Event::ShutdownAck);
                inner.shutdown.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it can observe the flag.
                let _ = TcpStream::connect(addr);
                break;
            }
            Ok(Request::Submit(specs)) => handle_submit(inner, &specs, &send, &tx),
        }
    }
    drop(tx);
    let _ = writer.join();
    Ok(())
}

/// Executes one submitted batch on the engine, once the executor is
/// free, streaming its run events through `tx` and then answering each
/// spec in submission order through `send`.
fn handle_submit(
    inner: &Inner,
    specs: &[RunSpec],
    send: &dyn Fn(&Event),
    tx: &mpsc::Sender<String>,
) {
    let keys: Vec<String> = specs.iter().map(|s| s.key().as_str().to_string()).collect();
    let unique = keys.iter().collect::<HashSet<_>>().len();
    send(&Event::Accepted {
        runs: specs.len(),
        unique,
    });
    let n = specs.len() as u64;
    inner.waiting.fetch_add(n, Ordering::SeqCst);
    let executor = inner.executor.lock().expect("not poisoned");
    inner.waiting.fetch_sub(n, Ordering::SeqCst);
    inner.running.store(n, Ordering::SeqCst);
    *inner.sink.tx.lock().expect("not poisoned") = Some(tx.clone());
    let answers = inner.engine.run_batch(specs);
    *inner.sink.tx.lock().expect("not poisoned") = None;
    inner.running.store(0, Ordering::SeqCst);
    drop(executor);
    for (index, (key, answer)) in keys.into_iter().zip(answers).enumerate() {
        send(&match answer {
            Ok(a) => Event::RunDone {
                index,
                key,
                source: a.source,
                wall_nanos: a.wall_nanos,
                result: (*a.result).clone(),
            },
            Err(cause) => {
                eprintln!("error: [serve: run failed key={key} {cause}]");
                Event::Error {
                    message: format!("run {key} failed: {cause}"),
                }
            }
        });
    }
    send(&Event::BatchDone { runs: specs.len() });
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[7], 99), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[10, 20, 30, 40], 50), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 99), 40);
    }
}
