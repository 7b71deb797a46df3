//! The `exp serve` server: bounded work queue over a shared
//! [`RunEngine`], in-flight coalescing, NDJSON event streaming.

use super::{
    event_to_json, read_line, request_from_json, Event, Request, ServerStats, ServiceError, Source,
};
use crate::engine::{ProgressHook, ReplayMode, RunEngine, RunSpec};
use crate::json::Json;
use crate::store::ResultStore;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (e.g. `127.0.0.1:7878`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads executing simulations.
    pub jobs: usize,
    /// Bound on the work queue; submitters block while it is full.
    pub queue_cap: usize,
    /// Device-cycle interval between `run_progress` events (0 disables).
    pub progress_every: u64,
    /// Persistent store to attach, if any.
    pub store: Option<Arc<ResultStore>>,
    /// Seconds between periodic `[serve: stats ...]` log lines
    /// (0 disables; tests default to quiet).
    pub stats_log_every: u64,
    /// Record/replay mode for the shared engine (see
    /// [`RunEngine::set_replay_mode`]). Replayed runs report
    /// [`Source::Replayed`] to clients.
    pub replay: ReplayMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            jobs: crate::default_jobs(),
            queue_cap: 1024,
            progress_every: 1_000_000,
            store: None,
            stats_log_every: 0,
            replay: ReplayMode::Off,
        }
    }
}

/// In-flight state of a unique content key. Completed keys are *removed*
/// from the table — their results live in the engine memo — so the table
/// stays proportional to in-flight work, not history.
enum JobState {
    /// Waiting for, or on, a worker.
    Running,
    /// Execution panicked (e.g. the simulation deadlocked); kept in the
    /// table so every waiter — present and future — sees the failure
    /// instead of hanging or re-queueing a deterministic failure.
    Failed(String),
}

/// Per-key subscriber registry for `run_started`/`run_progress` lines,
/// each sender tagged with a connection-unique id so unsubscription
/// removes exactly the right entry. Senders whose connection died are
/// pruned on the next send attempt.
type Subscribers = Arc<Mutex<HashMap<String, Vec<(u64, mpsc::Sender<String>)>>>>;

struct Inner {
    engine: RunEngine,
    jobs_table: Mutex<HashMap<String, JobState>>,
    job_done: Condvar,
    queue: Mutex<VecDeque<(String, RunSpec)>>,
    queue_cv: Condvar,
    queue_cap: usize,
    shutdown: AtomicBool,
    subs: Subscribers,
    next_sub_id: AtomicU64,
    /// Total worker threads (for the `stats` snapshot).
    workers: usize,
    /// Workers currently inside `engine.get`.
    workers_busy: AtomicUsize,
    /// Jobs finished by workers (success or failure) since startup.
    jobs_done: AtomicU64,
    /// Submissions answered from the engine memo without queueing. The
    /// engine's own dedup counter only ticks on `execute_batch`, which
    /// the serve path never uses, so the server counts its memo hits.
    memo_hits: AtomicU64,
}

impl Inner {
    /// Sends an already-rendered event line to every subscriber of `key`,
    /// pruning subscribers whose connection has gone away.
    fn notify(subs: &Subscribers, key: &str, line: &str) {
        let mut subs = subs.lock().expect("not poisoned");
        if let Some(list) = subs.get_mut(key) {
            list.retain(|(_, tx)| tx.send(line.to_string()).is_ok());
        }
    }

    /// Blocks until `key` leaves the in-flight table (or fails).
    fn wait_done(&self, key: &str) -> Result<(), String> {
        let mut table = self.jobs_table.lock().expect("not poisoned");
        loop {
            match table.get(key) {
                None => return Ok(()),
                Some(JobState::Failed(m)) => return Err(m.clone()),
                Some(JobState::Running) => {
                    table = self.job_done.wait(table).expect("not poisoned");
                }
            }
        }
    }

    /// Worker loop: drain the queue (even after shutdown is requested —
    /// accepted work always completes), then exit.
    fn worker(&self) {
        loop {
            let item = {
                let mut q = self.queue.lock().expect("not poisoned");
                loop {
                    if let Some(item) = q.pop_front() {
                        // A submitter may be blocked on a full queue.
                        self.queue_cv.notify_all();
                        break Some(item);
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        break None;
                    }
                    q = self.queue_cv.wait(q).expect("not poisoned");
                }
            };
            let Some((key, spec)) = item else { return };
            Inner::notify(
                &self.subs,
                &key,
                &event_to_json(&Event::RunStarted { key: key.clone() }).render(),
            );
            let started = Instant::now();
            self.workers_busy.fetch_add(1, Ordering::SeqCst);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.engine.get(&spec)
            }));
            self.workers_busy.fetch_sub(1, Ordering::SeqCst);
            self.jobs_done.fetch_add(1, Ordering::SeqCst);
            let mut table = self.jobs_table.lock().expect("not poisoned");
            match outcome {
                Ok(_) => {
                    table.remove(&key);
                }
                Err(panic) => {
                    let payload = panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "simulation panicked".into());
                    // The content key names exactly which spec died and the
                    // elapsed time separates an instant config failure from
                    // a deadlock detector tripping an hour in; both go to
                    // the waiter's error event and the server log.
                    let msg = format!(
                        "panicked after {:.2}s: {payload}",
                        started.elapsed().as_secs_f64()
                    );
                    eprintln!("error: [serve: job failed key={key} {msg}]");
                    table.insert(key, JobState::Failed(msg));
                }
            }
            drop(table);
            self.job_done.notify_all();
        }
    }

    /// A point-in-time [`ServerStats`] snapshot. Counters are read
    /// without a global lock, so a snapshot racing live work is
    /// approximate but each counter is individually consistent.
    fn stats_snapshot(&self) -> ServerStats {
        let queue_depth = self.queue.lock().expect("not poisoned").len() as u64;
        let in_flight = {
            let table = self.jobs_table.lock().expect("not poisoned");
            table
                .values()
                .filter(|s| matches!(s, JobState::Running))
                .count() as u64
        };
        let mut walls: Vec<u64> = self.engine.profiles().iter().map(|p| p.wall_nanos).collect();
        walls.sort_unstable();
        ServerStats {
            queue_depth,
            in_flight,
            workers_busy: self.workers_busy.load(Ordering::SeqCst) as u64,
            workers: self.workers as u64,
            jobs_done: self.jobs_done.load(Ordering::SeqCst),
            runs_executed: self.engine.runs_executed() as u64,
            runs_deduped: self.engine.runs_deduped() as u64
                + self.memo_hits.load(Ordering::Relaxed),
            store_hits: self.engine.runs_from_store() as u64,
            runs_replayed: self.engine.runs_replayed() as u64,
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
/// [`ResultStore`]) and executes submitted batches on a worker pool.
pub struct Server {
    inner: Arc<Inner>,
    listener: TcpListener,
    addr: SocketAddr,
    jobs: usize,
    stats_log_every: u64,
}

impl Server {
    /// Binds the listening socket and builds the shared engine. The
    /// server does not accept connections until [`run`](Self::run).
    pub fn bind(cfg: ServeConfig) -> Result<Server, ServiceError> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let subs: Subscribers = Arc::new(Mutex::new(HashMap::new()));
        // Each worker thread runs one `get()` at a time, so batch-level
        // parallelism comes from the pool, not from inside the engine.
        let mut engine = RunEngine::new(1);
        if let Some(store) = cfg.store {
            engine.attach_store(store);
        }
        engine.set_replay_mode(cfg.replay);
        if cfg.progress_every > 0 {
            let subs = Arc::clone(&subs);
            engine.set_progress(ProgressHook {
                every_cycles: cfg.progress_every,
                callback: Arc::new(move |key, cycle, instructions| {
                    Inner::notify(
                        &subs,
                        key.as_str(),
                        &event_to_json(&Event::RunProgress {
                            key: key.as_str().to_string(),
                            cycle,
                            instructions,
                        })
                        .render(),
                    );
                }),
            });
        }
        let jobs = cfg.jobs.max(1);
        Ok(Server {
            inner: Arc::new(Inner {
                engine,
                jobs_table: Mutex::new(HashMap::new()),
                job_done: Condvar::new(),
                queue: Mutex::new(VecDeque::new()),
                queue_cv: Condvar::new(),
                queue_cap: cfg.queue_cap.max(1),
                shutdown: AtomicBool::new(false),
                subs,
                next_sub_id: AtomicU64::new(0),
                workers: jobs,
                workers_busy: AtomicUsize::new(0),
                jobs_done: AtomicU64::new(0),
                memo_hits: AtomicU64::new(0),
            }),
            listener,
            addr,
            jobs,
            stats_log_every: cfg.stats_log_every,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accepts connections until a client sends `shutdown`. Queued work
    /// drains before this returns; every worker and connection thread is
    /// joined.
    pub fn run(self) -> Result<(), ServiceError> {
        let workers: Vec<_> = (0..self.jobs)
            .map(|_| {
                let inner = Arc::clone(&self.inner);
                std::thread::spawn(move || inner.worker())
            })
            .collect();
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
        // Shutdown: wake idle workers so they observe the flag (they
        // drain any queued work first).
        self.inner.queue_cv.notify_all();
        for w in workers {
            let _ = w.join();
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
    // (worker threads) and the coordinator below never block on a slow or
    // dead client, they just enqueue.
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
                inner.queue_cv.notify_all();
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

/// Executes one submitted batch, streaming events through `send` (and
/// subscribing `tx` to worker-side progress lines for the duration).
fn handle_submit(
    inner: &Arc<Inner>,
    specs: &[RunSpec],
    send: &dyn Fn(&Event),
    tx: &mpsc::Sender<String>,
) {
    let keys: Vec<String> = specs.iter().map(|s| s.key().as_str().to_string()).collect();
    let unique: HashSet<&str> = keys.iter().map(String::as_str).collect();
    send(&Event::Accepted {
        runs: specs.len(),
        unique: unique.len(),
    });
    // Subscribe to progress for every unique key before any worker can
    // pick one up, so run_started is never missed.
    let sub_id = inner.next_sub_id.fetch_add(1, Ordering::Relaxed);
    {
        let mut subs = inner.subs.lock().expect("not poisoned");
        for key in &unique {
            subs.entry((*key).to_string())
                .or_default()
                .push((sub_id, tx.clone()));
        }
    }
    // Classify each spec and queue whatever actually needs executing.
    let mut sources: Vec<Source> = Vec::with_capacity(specs.len());
    let mut handled: HashSet<&str> = HashSet::new();
    for (spec, key) in specs.iter().zip(&keys) {
        if handled.contains(key.as_str()) {
            sources.push(Source::Coalesced); // duplicate within this batch
            continue;
        }
        handled.insert(key);
        let store_hits_before = inner.engine.runs_from_store();
        if inner.engine.lookup(spec).is_some() {
            // A hit that did not bump the store counter came from the
            // memo (approximate under concurrent submitters; stats
            // snapshots are documented as best-effort).
            if inner.engine.runs_from_store() == store_hits_before {
                inner.memo_hits.fetch_add(1, Ordering::Relaxed);
            }
            sources.push(Source::Cached);
            continue;
        }
        let already_in_flight = {
            let mut table = inner.jobs_table.lock().expect("not poisoned");
            if table.contains_key(key.as_str()) {
                true
            } else {
                table.insert(key.clone(), JobState::Running);
                false
            }
        };
        if already_in_flight {
            sources.push(Source::Coalesced);
            continue;
        }
        // Bounded queue: block (backpressuring this client) while full.
        {
            let mut q = inner.queue.lock().expect("not poisoned");
            while q.len() >= inner.queue_cap && !inner.shutdown.load(Ordering::SeqCst) {
                q = inner.queue_cv.wait(q).expect("not poisoned");
            }
            q.push_back((key.clone(), spec.clone()));
        }
        inner.queue_cv.notify_all();
        sources.push(Source::Simulated);
    }
    // Answer in submission order; later indexes may already be done.
    for (index, (spec, key)) in specs.iter().zip(&keys).enumerate() {
        match inner.wait_done(key) {
            Err(message) => send(&Event::Error {
                message: format!("run {key} failed: {message}"),
            }),
            Ok(()) => match inner.engine.lookup(spec) {
                None => send(&Event::Error {
                    message: format!("run {key} completed but has no result"),
                }),
                Some(result) => {
                    let wall_nanos = match sources[index] {
                        Source::Cached => 0,
                        _ => inner
                            .engine
                            .profiles()
                            .iter()
                            .rev()
                            .find(|p| p.key.as_str() == key)
                            .map(|p| p.wall_nanos)
                            .unwrap_or(0),
                    };
                    // Whether a queued run was replayed from a record is
                    // only known once the engine has resolved it.
                    let source = match sources[index] {
                        Source::Simulated if result.via_replay => Source::Replayed,
                        s => s,
                    };
                    send(&Event::RunDone {
                        index,
                        key: key.clone(),
                        source,
                        wall_nanos,
                        result: (*result).clone(),
                    });
                }
            },
        }
    }
    // Unsubscribe exactly this batch's senders.
    {
        let mut subs = inner.subs.lock().expect("not poisoned");
        for key in &unique {
            if let Some(list) = subs.get_mut(*key) {
                list.retain(|(id, _)| *id != sub_id);
                if list.is_empty() {
                    subs.remove(*key);
                }
            }
        }
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
