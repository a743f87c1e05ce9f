//! The daemon: acceptor thread → per-connection reader/writer threads →
//! bounded admission queue → fixed worker pool over one shared store.
//!
//! ## Lifecycle of a run request
//!
//! 1. The connection **reader** parses the line, counts
//!    `serve.request.admitted`, and `try_send`s a job into the bounded
//!    queue. A full queue (or a draining daemon) answers with the typed
//!    `rejected` line *immediately* — backpressure never stalls the
//!    socket.
//! 2. A **worker** dequeues the job, takes a RAII [`Permit`] from the
//!    concurrency limiter, opens a `serve.request` span, and runs the
//!    session against the shared store — identical racing requests
//!    dedupe on the store's per-key single-flight. Progress events
//!    stream through the connection's writer channel as they happen.
//! 3. The final `result` line is delivered synchronously (the writer
//!    acks the flush): delivered to a live client counts
//!    `serve.request.completed`, a gone client counts
//!    `serve.request.aborted` — either way the permit returns to the
//!    limiter on drop, panics included, so a dead client can neither
//!    poison the store nor leak the worker slot.
//!
//! ## Shutdown
//!
//! A `shutdown` request (the SIGTERM-equivalent in this offline,
//! signal-less workspace) flips the drain flag, pokes the acceptor
//! awake, sends one poison pill per worker (*behind* everything already
//! queued, so the queue drains first), joins the pool, rejects any
//! straggler jobs, flushes the store, and reports the final counters —
//! `admitted = completed + aborted + rejected` must hold by then.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lpa_experiments::{ExperimentPlan, ProgressEvent, ProgressObserver};
use lpa_store::Store;

use crate::config::ServeConfig;
use crate::limiter::ConcurrencyLimiter;
use crate::metrics::ServeMetrics;
use crate::protocol::{self, Request, RunRequest};

/// Poll interval of blocked connection readers — bounds how long a
/// drained shutdown waits for them.
const READ_POLL: Duration = Duration::from_millis(50);

/// Final counters of a daemon run, returned by [`Daemon::run`].
#[derive(Debug)]
pub struct ServeSummary {
    pub admitted: u64,
    pub completed: u64,
    pub aborted: u64,
    pub rejected: u64,
    pub malformed: u64,
    /// `admitted == completed + aborted + rejected` at drain time.
    pub invariant_ok: bool,
    /// The shutdown log line (`ServeMetrics::summary_line`).
    pub summary_line: String,
}

/// What flows to a connection's writer thread.
enum WriterMsg {
    /// Fire-and-forget line (acks, progress, errors).
    Line(String),
    /// The final line of a request; the writer replies whether the
    /// client actually received it (write + flush succeeded and the
    /// reader has not seen EOF).
    Final(String, SyncSender<bool>),
}

/// One admitted run, parked in the queue until a worker takes it.
struct RunJob {
    id: String,
    request: RunRequest,
    writer: Sender<WriterMsg>,
    conn_alive: Arc<AtomicBool>,
    /// This connection's admitted-but-unfinished requests (keeps the
    /// reader alive through a shutdown until its results went out).
    outstanding: Arc<AtomicUsize>,
    enqueued: Instant,
    /// Signalled by the reader once it has queued this job's `accepted`
    /// line, so no `progress` line can overtake it.
    admitted: Receiver<()>,
}

enum Job {
    Run(Box<RunJob>),
    /// Shutdown pill: the receiving worker exits.
    Pill,
}

/// Everything the acceptor, connections and workers share.
struct Shared {
    metrics: ServeMetrics,
    limiter: ConcurrencyLimiter,
    store: Option<Arc<Store>>,
    queue: SyncSender<Job>,
    /// Source of truth for the queue-depth gauge (`fetch_add` beats the
    /// gauge's racy read-modify-write).
    depth: AtomicUsize,
    shutting_down: AtomicBool,
    addr: SocketAddr,
    /// Daemon-assigned fallback request ids (`run-N`).
    next_id: AtomicU64,
}

impl Shared {
    fn draining(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    fn depth_inc(&self) {
        let now = self.depth.fetch_add(1, Ordering::SeqCst) + 1;
        self.metrics.queue_depth.set(now as u64);
    }

    fn depth_dec(&self) {
        let before = self.depth.fetch_sub(1, Ordering::SeqCst);
        self.metrics.queue_depth.set(before.saturating_sub(1) as u64);
    }

    /// Flip the drain flag (idempotent) and poke the acceptor awake.
    fn begin_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// Control handle onto a running daemon — what in-process callers (tests,
/// embedding harnesses) use to trigger shutdown and read live counters.
#[derive(Clone)]
pub struct DaemonHandle {
    shared: Arc<Shared>,
}

impl DaemonHandle {
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }
}

/// A bound, not-yet-running daemon.
pub struct Daemon {
    listener: TcpListener,
    shared: Arc<Shared>,
    receiver: Arc<Mutex<Receiver<Job>>>,
    workers: usize,
}

impl Daemon {
    /// Bind the listen socket and materialize the executor state. The
    /// store handle is shared by every worker — that sharing is what
    /// makes cross-request deduplication work.
    pub fn bind(config: &ServeConfig, store: Option<Arc<Store>>) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics = ServeMetrics::new();
        let limiter = ConcurrencyLimiter::new(config.max_inflight, metrics.inflight.clone());
        let (queue, receiver) = mpsc::sync_channel(config.queue);
        let shared = Arc::new(Shared {
            metrics,
            limiter,
            store,
            queue,
            depth: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            addr,
            next_id: AtomicU64::new(0),
        });
        Ok(Daemon {
            listener,
            shared,
            receiver: Arc::new(Mutex::new(receiver)),
            workers: config.max_inflight,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle { shared: self.shared.clone() }
    }

    /// Serve until shutdown, then drain and report. Blocks the calling
    /// thread for the daemon's whole life.
    pub fn run(self) -> ServeSummary {
        let Daemon { listener, shared, receiver, workers } = self;

        let worker_threads: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                let receiver = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("lpa-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &receiver))
                    .expect("spawn worker")
            })
            .collect();

        let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
            if shared.draining() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let shared = shared.clone();
            conn_threads.push(
                std::thread::Builder::new()
                    .name("lpa-serve-conn".into())
                    .spawn(move || handle_connection(stream, &shared))
                    .expect("spawn connection"),
            );
        }

        // Drain: pills queue *behind* already-admitted work, so workers
        // finish the backlog before they exit. `send` blocks politely
        // while the queue is full of real jobs.
        for _ in 0..workers {
            let _ = shared.queue.send(Job::Pill);
        }
        for t in worker_threads {
            let _ = t.join();
        }
        // Readers notice the drain flag within one poll tick once their
        // outstanding requests are answered; writers exit when the last
        // sender drops. Keep rejecting straggler jobs while waiting — a
        // reader that read the flag as false just before the flip can
        // still admit one behind the pills, and with the pool gone only
        // this loop can answer its client (keeping the lifecycle
        // identity balanced).
        let mut conn_threads = conn_threads;
        loop {
            drain_stragglers(&shared, &receiver);
            conn_threads.retain(|t| !t.is_finished());
            if conn_threads.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Some(store) = shared.store.as_ref() {
            if let Err(e) = store.flush() {
                eprintln!("lpa-serve: store flush failed: {e}");
            }
        }
        let m = &shared.metrics;
        ServeSummary {
            admitted: m.admitted.get(),
            completed: m.completed.get(),
            aborted: m.aborted.get(),
            rejected: m.rejected.get(),
            malformed: m.malformed.get(),
            invariant_ok: m.invariant_ok(),
            summary_line: m.summary_line(),
        }
    }
}

// ---------------------------------------------------------------------
// Connection side.

/// Reader half: parse request lines, answer `stats`/`shutdown` inline,
/// admit runs. Owns the connection's writer thread via the last sender.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    // Polling read: a blocked reader must notice the drain flag.
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let conn_alive = Arc::new(AtomicBool::new(true));
    let outstanding = Arc::new(AtomicUsize::new(0));
    let (writer_tx, writer_rx) = mpsc::channel::<WriterMsg>();
    let writer_thread = {
        let stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let conn_alive = conn_alive.clone();
        std::thread::Builder::new()
            .name("lpa-serve-writer".into())
            .spawn(move || writer_loop(stream, writer_rx, &conn_alive))
            .expect("spawn writer")
    };

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => {
                // EOF: the client hung up. In-flight work for this
                // connection now terminates as `aborted`.
                conn_alive.store(false, Ordering::SeqCst);
                break;
            }
            Ok(_) => {
                let request = line.trim();
                if !request.is_empty() {
                    handle_line(request, shared, &writer_tx, &conn_alive, &outstanding);
                }
                line.clear();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle tick. Leave once the daemon drains and nothing of
                // ours is still in flight (a partially read line stays
                // in `line` across ticks).
                if shared.draining() && outstanding.load(Ordering::SeqCst) == 0 {
                    break;
                }
            }
            Err(_) => {
                conn_alive.store(false, Ordering::SeqCst);
                break;
            }
        }
    }
    drop(writer_tx);
    let _ = writer_thread.join();
}

fn handle_line(
    request: &str,
    shared: &Arc<Shared>,
    writer: &Sender<WriterMsg>,
    conn_alive: &Arc<AtomicBool>,
    outstanding: &Arc<AtomicUsize>,
) {
    match protocol::parse_request(request) {
        Err(message) => {
            shared.metrics.malformed.incr();
            let _ = writer.send(WriterMsg::Line(protocol::error_line(None, &message)));
        }
        Ok(Request::Stats { id }) => {
            shared.metrics.stats_served.incr();
            let id = id.unwrap_or_else(|| "stats".into());
            let serve = shared.metrics.registry().to_value();
            let store = shared.store.as_ref().map(|s| s.stats().registry().to_value());
            let _ = writer.send(WriterMsg::Line(protocol::stats_line(&id, serve, store)));
        }
        Ok(Request::Shutdown { id }) => {
            let id = id.unwrap_or_else(|| "shutdown".into());
            let _ = writer.send(WriterMsg::Line(protocol::shutting_down_line(&id)));
            shared.begin_shutdown();
        }
        Ok(Request::Run(run)) => {
            let id = run.id.clone().unwrap_or_else(|| {
                format!("run-{}", shared.next_id.fetch_add(1, Ordering::Relaxed))
            });
            shared.metrics.admitted.incr();
            if shared.draining() {
                shared.metrics.rejected.incr();
                let _ = writer.send(WriterMsg::Line(protocol::rejected_line(
                    &id,
                    protocol::REASON_SHUTTING_DOWN,
                )));
                return;
            }
            outstanding.fetch_add(1, Ordering::SeqCst);
            let (admit_tx, admitted) = mpsc::channel();
            let job = Job::Run(Box::new(RunJob {
                id: id.clone(),
                request: run,
                writer: writer.clone(),
                conn_alive: conn_alive.clone(),
                outstanding: outstanding.clone(),
                enqueued: Instant::now(),
                admitted,
            }));
            // Count the slot *before* the send: a worker can dequeue the
            // job (and `depth_dec`) the instant it lands, so counting
            // after would race the decrement into underflow.
            shared.depth_inc();
            match shared.queue.try_send(job) {
                Ok(()) => {
                    let _ = writer.send(WriterMsg::Line(protocol::accepted_line(&id)));
                    // A worker may already hold the job; release it only
                    // now, so `accepted` is its connection's first line.
                    let _ = admit_tx.send(());
                }
                Err(TrySendError::Full(_)) => {
                    shared.depth_dec();
                    outstanding.fetch_sub(1, Ordering::SeqCst);
                    shared.metrics.rejected.incr();
                    let _ = writer.send(WriterMsg::Line(protocol::rejected_line(
                        &id,
                        protocol::REASON_OVERLOADED,
                    )));
                }
                Err(TrySendError::Disconnected(_)) => {
                    shared.depth_dec();
                    outstanding.fetch_sub(1, Ordering::SeqCst);
                    shared.metrics.rejected.incr();
                    let _ = writer.send(WriterMsg::Line(protocol::rejected_line(
                        &id,
                        protocol::REASON_SHUTTING_DOWN,
                    )));
                }
            }
        }
    }
}

/// Writer half: owns the socket's write side. After the first failed
/// write the connection is marked dead and every further line is
/// discarded — but `Final` acks keep flowing so workers never block on a
/// gone client.
fn writer_loop(mut stream: TcpStream, rx: Receiver<WriterMsg>, conn_alive: &AtomicBool) {
    let write_line = |stream: &mut TcpStream, text: &str| -> bool {
        if !conn_alive.load(Ordering::SeqCst) {
            return false;
        }
        let ok = stream
            .write_all(text.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .and_then(|()| stream.flush())
            .is_ok();
        if !ok {
            conn_alive.store(false, Ordering::SeqCst);
        }
        ok
    };
    while let Ok(msg) = rx.recv() {
        match msg {
            WriterMsg::Line(text) => {
                let _ = write_line(&mut stream, &text);
            }
            WriterMsg::Final(text, ack) => {
                let delivered = write_line(&mut stream, &text);
                let _ = ack.send(delivered);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Worker side.

fn worker_loop(shared: &Arc<Shared>, receiver: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = {
            let rx = receiver.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        match job {
            Err(_) | Ok(Job::Pill) => break,
            Ok(Job::Run(job)) => {
                shared.depth_dec();
                // Wait for the reader to queue `accepted` (an error only
                // means the reader is gone, and then order is moot).
                let _ = job.admitted.recv();
                let permit = shared.limiter.acquire();
                run_one(shared, &job);
                // Explicit, though unwind-safe either way: the permit
                // returns to the limiter even if `run_one` panicked.
                drop(permit);
                job.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Streams progress lines to the connection while the session runs.
/// Sends are fire-and-forget: a dead connection just drops them.
struct ServeObserver<'a> {
    id: &'a str,
    writer: &'a Sender<WriterMsg>,
    conn_alive: &'a AtomicBool,
}

impl ProgressObserver for ServeObserver<'_> {
    fn on_event(&self, event: &ProgressEvent) {
        if self.conn_alive.load(Ordering::Relaxed) {
            let _ = self.writer.send(WriterMsg::Line(protocol::progress_line(self.id, event)));
        }
    }
}

fn run_one(shared: &Arc<Shared>, job: &RunJob) {
    let _span = lpa_obs::span(lpa_obs::SERVE_REQUEST);
    // The whole request is unwind-isolated, the PR-6 pattern: an armed
    // `serve.worker.panic` fault (or any bug) costs one error response,
    // never the daemon.
    let final_text = catch_unwind(AssertUnwindSafe(|| compute_final_line(shared, job)))
        .unwrap_or_else(|panic| {
            let reason = panic_message(panic.as_ref());
            protocol::error_line(Some(&job.id), &format!("request crashed: {reason}"))
        });

    let (ack_tx, ack_rx) = mpsc::sync_channel::<bool>(1);
    let delivered = match job.writer.send(WriterMsg::Final(final_text, ack_tx)) {
        Ok(()) => ack_rx.recv().unwrap_or(false),
        Err(_) => false,
    };
    // `delivered` alone decides: the writer only reports true when the
    // write+flush succeeded on a then-live connection. Re-checking
    // `conn_alive` here would race a client that reads its result and
    // disconnects immediately — a completed request, not an abort.
    if delivered {
        shared.metrics.completed.incr();
    } else {
        shared.metrics.aborted.incr();
    }
    shared.metrics.latency.record(job.enqueued.elapsed().as_nanos() as u64);
}

/// Run the session and render its final line (a `result`, or an `error`
/// for requests that die before reaching the session).
fn compute_final_line(shared: &Arc<Shared>, job: &RunJob) -> String {
    lpa_faults::inject_panic(lpa_faults::SERVE_WORKER_PANIC);
    let corpus = job.request.corpus.materialize();
    if corpus.is_empty() {
        return protocol::error_line(Some(&job.id), "corpus resolved to zero matrices");
    }
    let observer = ServeObserver {
        id: &job.id,
        writer: &job.writer,
        conn_alive: &job.conn_alive,
    };
    let mut plan = ExperimentPlan::over(&corpus)
        .formats(&job.request.formats)
        .config(job.request.config.clone())
        .maybe_store(shared.store.as_deref());
    if job.request.threads > 0 {
        plan = plan.threads(job.request.threads);
    }
    if job.request.progress {
        plan = plan.observer(&observer);
    }
    let results = plan.run();
    protocol::result_line(&job.id, &results)
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Answer any job admitted after the worker pool drained.
fn drain_stragglers(shared: &Arc<Shared>, receiver: &Arc<Mutex<Receiver<Job>>>) {
    while let Ok(job) = receiver.lock().unwrap_or_else(|e| e.into_inner()).try_recv() {
        if let Job::Run(job) = job {
            shared.depth_dec();
            shared.metrics.rejected.incr();
            let _ = job.writer.send(WriterMsg::Line(protocol::rejected_line(
                &job.id,
                protocol::REASON_SHUTTING_DOWN,
            )));
            job.outstanding.fetch_sub(1, Ordering::SeqCst);
        }
    }
}
