//! The `mi serve` daemon: a bounded worker pool executing typed jobs from
//! Unix-domain-socket connections against one shared [`ArtifactStore`].
//!
//! Architecture (all `std`, no dependencies):
//!
//! * one **listener** thread accepts connections (non-blocking accept with
//!   a stop-flag poll);
//! * one **reader** thread per connection decodes request lines; control
//!   ops (`ping`, `cancel`, `metrics`, `shutdown`) are answered inline,
//!   `job` and `fuzz` ops are enqueued;
//! * `workers` **worker** threads pull jobs off one FIFO queue and run
//!   [`bench::job::execute`] against the shared store, replying on the
//!   submitting connection (a per-connection write mutex serializes lines).
//!
//! Deadlines are measured from *arrival*, so they cover queue wait;
//! expiry and cancellation inside a running cell are enforced by the VM's
//! cost-clocked budget polls (see `memvm`), keeping the hot path at one
//! integer compare. Shutdown drains: new jobs are rejected, queued and
//! running ones finish, then the daemon replies and stops.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bench::job::{self, JobCtl, JobError, JobSpec};
use bench::store::ArtifactStore;
use memvm::VmConfig;
use telemetry::json::{self, arr, obj, Json};
use telemetry::Registry;

use crate::protocol::{reject_line, Op, Request, Response, ResponseBody};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Socket path to bind (removed on shutdown; binding fails if the path
    /// exists).
    pub socket: PathBuf,
    /// Worker threads; 0 = the machine's available parallelism.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs; submissions beyond it are
    /// rejected with a `queue full` error.
    pub queue_cap: usize,
    /// Default per-job deadline for requests that do not set one.
    pub default_deadline: Option<Duration>,
    /// VM configuration jobs execute under.
    pub vm: VmConfig,
    /// Artifact-store capacity per level.
    pub store_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            socket: PathBuf::from("mi-serve.sock"),
            workers: 0,
            queue_cap: 256,
            default_deadline: Some(Duration::from_secs(30)),
            vm: VmConfig::default(),
            store_capacity: bench::store::DEFAULT_CAPACITY,
        }
    }
}

/// One client connection's shared half: the write side plus the table of
/// this connection's live (queued or running) jobs, keyed by request id —
/// the namespace `cancel` targets.
struct Conn {
    writer: Mutex<UnixStream>,
    live: Mutex<HashMap<u64, Arc<AtomicBool>>>,
}

impl Conn {
    /// Writes one response line; errors (client gone) are ignored — the
    /// reader thread notices the disconnect and cleans up. One write
    /// syscall per line (the newline is appended before writing).
    fn send_line(&self, line: &str) {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        let mut w = self.writer.lock().unwrap();
        let _ = w.write_all(buf.as_bytes());
        let _ = w.flush();
    }

    fn send(&self, resp: &Response) {
        self.send_line(&resp.encode());
    }
}

/// What a queued entry executes: one benchmark cell or a bounded fuzz
/// case range. Both flow through the same queue, deadline, and cancel
/// machinery.
enum Work {
    Job(JobSpec),
    Fuzz { seed: u64, start: u64, cases: u64 },
}

struct QueuedJob {
    conn: Arc<Conn>,
    id: u64,
    work: Work,
    deadline: Option<Instant>,
    cancel: Arc<AtomicBool>,
}

struct State {
    queue: Mutex<VecDeque<QueuedJob>>,
    /// Wakes one worker per enqueued job (all on stop) — `notify_one`
    /// here, so an enqueue does not stampede the whole idle pool.
    work: Condvar,
    /// Wakes drainers when a job completes.
    done: Condvar,
    store: ArtifactStore,
    metrics: Mutex<Registry>,
    vm: VmConfig,
    queue_cap: usize,
    default_deadline: Option<Duration>,
    /// Set while draining: new jobs are rejected, existing ones finish.
    draining: AtomicBool,
    /// Set once drained: workers and the listener exit.
    stop: AtomicBool,
    inflight: AtomicUsize,
}

impl State {
    fn count(&self, name: &'static str, labels: &[(&str, &str)]) {
        self.metrics.lock().unwrap().counter_add(name, labels, 1);
    }

    /// The merged `mi-metrics/1` registry: job/request tallies, the
    /// artifact store's lookup counters, and live gauges.
    fn merged_metrics(&self) -> Registry {
        let mut r = self.metrics.lock().unwrap().clone();
        r.merge(&self.store.metrics());
        r.gauge_set("serve_queue_depth", &[], self.queue.lock().unwrap().len() as u64);
        r.gauge_set("serve_inflight", &[], self.inflight.load(Ordering::Relaxed) as u64);
        r.gauge_set("store_entries_total", &[], self.store.entries() as u64);
        r
    }

    /// Enqueues a job or explains why not (draining / full queue).
    fn enqueue(&self, job: QueuedJob) -> Result<(), String> {
        if self.draining.load(Ordering::Acquire) {
            return Err("server is shutting down".to_string());
        }
        let mut q = self.queue.lock().unwrap();
        if q.len() >= self.queue_cap {
            return Err(format!("queue full (cap {})", self.queue_cap));
        }
        q.push_back(job);
        drop(q);
        self.work.notify_one();
        Ok(())
    }

    /// Blocks until every queued and running job has completed.
    fn await_drained(&self) {
        let mut q = self.queue.lock().unwrap();
        loop {
            if q.is_empty() && self.inflight.load(Ordering::Acquire) == 0 {
                return;
            }
            let (guard, _) = self.done.wait_timeout(q, Duration::from_millis(50)).unwrap();
            q = guard;
        }
    }

    fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.work.notify_all();
    }
}

fn worker_loop(state: &State) {
    loop {
        let job = {
            let mut q = state.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    // Claimed while still holding the queue lock, so a
                    // drainer never observes "queue empty, nothing in
                    // flight" with a job in hand.
                    state.inflight.fetch_add(1, Ordering::AcqRel);
                    break job;
                }
                if state.stop.load(Ordering::Acquire) {
                    return;
                }
                let (guard, _) = state.work.wait_timeout(q, Duration::from_millis(50)).unwrap();
                q = guard;
            }
        };

        let result = run_one(state, &job);
        let body = match result {
            Ok(result) => {
                state.count("serve_jobs", &[("outcome", "ok")]);
                ResponseBody::Ok { result }
            }
            Err(e) => {
                let outcome = match &e {
                    JobError::Timeout => "timeout",
                    JobError::Cancelled => "cancelled",
                    JobError::Rejected { .. } => "rejected",
                    JobError::Trap { .. } => "trap",
                };
                state.count("serve_jobs", &[("outcome", outcome)]);
                ResponseBody::Err(e)
            }
        };
        job.conn.send(&Response { id: job.id, body });
        job.conn.live.lock().unwrap().remove(&job.id);
        state.inflight.fetch_sub(1, Ordering::AcqRel);
        state.done.notify_all();
    }
}

/// Runs one claimed job, classifying pre-execution expiry and panics.
fn run_one(state: &State, job: &QueuedJob) -> Result<String, JobError> {
    if job.cancel.load(Ordering::Acquire) {
        return Err(JobError::Cancelled);
    }
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(JobError::Timeout);
    }
    match &job.work {
        Work::Job(spec) => {
            let ctl = JobCtl { deadline: job.deadline, interrupt: Some(Arc::clone(&job.cancel)) };
            // A panic (an internal invariant failure) must not take the
            // worker down with it; the client gets a rejection naming the
            // job.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                job::execute(spec, &state.store, state.vm, &ctl)
            })) {
                Ok(r) => r.map(|outcome| outcome.result_json()),
                Err(_) => {
                    Err(JobError::Rejected { reason: "internal error executing job".to_string() })
                }
            }
        }
        Work::Fuzz { seed, start, cases } => run_fuzz(state, job, *seed, *start, *cases),
    }
}

/// Runs a fuzz case range, polling cancel/deadline between cases (a case
/// is the preemption granularity; each one sweeps the full oracle matrix
/// through the shared VM configuration). The result JSON is
/// deterministic for a given range: field order is frozen and no timings
/// appear.
fn run_fuzz(
    state: &State,
    job: &QueuedJob,
    seed: u64,
    start: u64,
    cases: u64,
) -> Result<String, JobError> {
    let mut failures = Vec::new();
    for index in start..start + cases {
        if job.cancel.load(Ordering::Acquire) {
            return Err(JobError::Cancelled);
        }
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(JobError::Timeout);
        }
        let errors = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fuzz::run_case_with(seed, index, state.vm)
        })) {
            Ok(errors) => errors,
            Err(_) => {
                return Err(JobError::Rejected {
                    reason: format!("internal error fuzzing case {index}"),
                })
            }
        };
        if !errors.is_empty() {
            failures.push(obj([("index", index.into()), ("errors", arr(errors))]));
        }
    }
    Ok(obj([
        ("seed", seed.into()),
        ("start", start.into()),
        ("cases", cases.into()),
        ("ok", failures.is_empty().into()),
        ("failures", Json::Arr(failures)),
    ])
    .render(json::MI_SERVE))
}

/// Registers a request in the connection's live table and enqueues it,
/// replying with a rejection (and unregistering) if the queue refuses.
fn submit(state: &State, conn: &Arc<Conn>, id: u64, work: Work, deadline_ms: Option<u64>) {
    let deadline = deadline_ms
        .map(Duration::from_millis)
        .or(state.default_deadline)
        .map(|d| Instant::now() + d);
    let cancel = Arc::new(AtomicBool::new(false));
    conn.live.lock().unwrap().insert(id, Arc::clone(&cancel));
    let queued = QueuedJob { conn: Arc::clone(conn), id, work, deadline, cancel };
    if let Err(reason) = state.enqueue(queued) {
        conn.live.lock().unwrap().remove(&id);
        state.count("serve_jobs", &[("outcome", "rejected")]);
        conn.send_line(&reject_line(id, &reason));
    }
}

/// The longest request line the daemon reads, in bytes (newline excluded).
/// The rest of a longer line is discarded and the line gets a `rejected`
/// response, so one endless line cannot grow the daemon's memory.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

fn reader_loop(state: &Arc<State>, stream: UnixStream) {
    let conn = Arc::new(Conn {
        writer: Mutex::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        }),
        live: Mutex::new(HashMap::new()),
    });
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match reader.by_ref().take(MAX_REQUEST_LINE as u64 + 1).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.len() > MAX_REQUEST_LINE && buf.last() != Some(&b'\n') {
            if reader.skip_until(b'\n').is_err() {
                break;
            }
            let reason = format!("bad request: request line longer than {MAX_REQUEST_LINE} bytes");
            conn.send_line(&reject_line(0, &reason));
            continue;
        }
        let Ok(line) = std::str::from_utf8(&buf) else { break };
        if line.trim().is_empty() {
            continue;
        }
        let req = match Request::decode(line) {
            Ok(r) => r,
            Err(e) => {
                // Best-effort id recovery so the client can correlate.
                let id = Json::parse(line.trim())
                    .ok()
                    .and_then(|v| v.get("id").and_then(Json::as_u64))
                    .unwrap_or(0);
                conn.send_line(&reject_line(id, &format!("bad request: {e}")));
                continue;
            }
        };
        state.count("serve_requests", &[("op", req.op.name())]);
        let result = match req.op {
            Op::Job { spec, deadline_ms } => {
                submit(state, &conn, req.id, Work::Job(spec), deadline_ms);
                continue;
            }
            Op::Fuzz { seed, start, cases } => {
                // Deadline-less fuzz ranges fall back to the same default
                // as jobs; the per-case poll in `run_fuzz` enforces it.
                submit(state, &conn, req.id, Work::Fuzz { seed, start, cases }, None);
                continue;
            }
            Op::Cancel { target } => {
                let found = match conn.live.lock().unwrap().get(&target) {
                    Some(flag) => {
                        flag.store(true, Ordering::Release);
                        true
                    }
                    None => false,
                };
                obj([("target", target.into()), ("found", found.into())]).render(json::MI_SERVE)
            }
            Op::Metrics => state.merged_metrics().to_json_line(),
            Op::Ping => obj([("pong", true.into())]).render(json::MI_SERVE),
            Op::Shutdown => {
                state.draining.store(true, Ordering::Release);
                state.await_drained();
                let result = obj([("drained", true.into())]).render(json::MI_SERVE);
                conn.send(&Response { id: req.id, body: ResponseBody::Ok { result } });
                state.request_stop();
                return;
            }
        };
        conn.send(&Response { id: req.id, body: ResponseBody::Ok { result } });
    }
    // Client hung up: cancel anything it still has queued or running.
    for flag in conn.live.lock().unwrap().values() {
        flag.store(true, Ordering::Release);
    }
}

/// A running daemon. Dropping without [`Server::shutdown`] leaks the
/// threads (they exit with the process); tests and `mi bench-serve` always
/// drain explicitly.
pub struct Server {
    state: Arc<State>,
    socket: PathBuf,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// A snapshot of the daemon's merged metrics registry.
    pub fn metrics(&self) -> Registry {
        self.state.merged_metrics()
    }

    /// Blocks until the daemon stops — i.e. until some client sends a
    /// `shutdown` op — then removes the socket file. This is what the
    /// foreground `mi serve` command sits in.
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }

    /// Drains (queued and running jobs finish; new ones are rejected),
    /// stops all threads, joins them, and removes the socket file.
    pub fn shutdown(mut self) {
        self.state.draining.store(true, Ordering::Release);
        self.state.await_drained();
        self.state.request_stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Starts the daemon: binds the socket, spawns the listener and the worker
/// pool, and returns immediately.
///
/// # Errors
///
/// Propagates socket binding failures (the path already exists, permission
/// denied, ...).
pub fn start(cfg: ServerConfig) -> io::Result<Server> {
    let listener = UnixListener::bind(&cfg.socket)?;
    listener.set_nonblocking(true)?;
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        cfg.workers
    };
    let state = Arc::new(State {
        queue: Mutex::new(VecDeque::new()),
        work: Condvar::new(),
        done: Condvar::new(),
        store: ArtifactStore::with_capacity(cfg.store_capacity),
        metrics: Mutex::new(Registry::new()),
        vm: cfg.vm,
        queue_cap: cfg.queue_cap.max(1),
        default_deadline: cfg.default_deadline,
        draining: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        inflight: AtomicUsize::new(0),
    });

    let mut threads = Vec::with_capacity(workers + 1);
    for i in 0..workers {
        let state = Arc::clone(&state);
        // The interpreter recurses on deeply recursive guest programs;
        // match the driver's generous worker stacks.
        threads.push(
            std::thread::Builder::new()
                .name(format!("mi-serve-worker-{i}"))
                .stack_size(32 * 1024 * 1024)
                .spawn(move || worker_loop(&state))?,
        );
    }
    {
        let state = Arc::clone(&state);
        threads.push(std::thread::Builder::new().name("mi-serve-listener".to_string()).spawn(
            move || {
                loop {
                    if state.stop.load(Ordering::Acquire) {
                        return;
                    }
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nonblocking(false);
                            let state = Arc::clone(&state);
                            // Readers exit on client disconnect or server
                            // stop; they hold only Arcs, so detaching is
                            // safe.
                            let _ = std::thread::Builder::new()
                                .name("mi-serve-reader".to_string())
                                .spawn(move || reader_loop(&state, stream));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            },
        )?);
    }
    Ok(Server { state, socket: cfg.socket, threads })
}
