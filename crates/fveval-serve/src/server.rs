//! The evaluation server: a non-blocking readiness-driven event loop
//! (epoll via [`crate::poll`]) in front of N engine shards.
//!
//! Connection model: one single-threaded event loop owns every socket.
//! Requests are parsed incrementally as bytes arrive and responses are
//! written as the socket accepts them, so a stalled or slow client
//! occupies nothing but its own buffer — it can never block another
//! connection. Long-poll job watches (`GET /v1/jobs/<id>?wait_ms=`)
//! park their connection inside the loop and are answered the moment
//! the job's observable state changes (a case group completes, the job
//! finishes) or the wait deadline passes: every job change writes to a
//! [`Waker`] registered with the loop's poller, so the loop wakes at
//! once instead of on its next tick.
//!
//! Evaluation model: [`ServerConfig::shards`] engine shards, each a
//! [`Shard`] owning a private [`fveval_core::EvalEngine`] drained by
//! one worker thread. Jobs route by the request's task-content digest
//! ([`TaskSetRef::route_digest`] mod shard count), so a repeated task
//! set always lands on the same shard: its worker builds the set once
//! and reuses it from its `TaskMemo` on every later job, and that
//! shard engine's verdict and compiled-design caches answer the
//! repeat. (A `ProofSession` lives inside one case group's scoring and
//! is dropped with it, so no session outlives a job.) Every shard
//! queue is bounded ([`ServerConfig::queue_depth`]); a submit that
//! finds its shard full is answered `429 Too Many Requests` with a
//! `Retry-After` header and a `retry_after_ms` body hint. A
//! maintenance thread compacts a fragmented [`VerdictStore`] in the
//! background whenever every shard is idle, instead of only at
//! shutdown.
//!
//! Determinism is unchanged from the single-engine server: shards
//! partition *jobs*, not cases, and every engine computes the same
//! verdicts — so a served table is byte-identical across `--shards 1`
//! and `--shards 4`, and a restarted server re-serves warm work from
//! the store with zero prover calls. After every finished job the
//! shard's newly computed verdicts are flushed to the store *before*
//! the job is reported done.

use crate::http;
use crate::json::{parse, Json};
use crate::poll::{Interest, Poller, Waker};
use crate::protocol::{EvalRequest, EvalResult, JobState, JobView, TaskSetRef};
use crate::shard::{shard_of, Shard, TaskMemo, MEMO_TASKS};
use crate::store::VerdictStore;
use fv_core::{CounterGroup, ProverStats};
use fveval_core::{
    generated_task_specs, human_task_specs, machine_task_specs, CacheStats, EvalEngine,
};
use fveval_data::{
    generate_machine_cases, human_cases, machine_signal_table, signal_table_for, testbenches,
    MachineGenConfig, SuiteConfig,
};
use fveval_llm::{profiles, Backend, SimulatedModel, TaskSpec};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8642` (`:0` picks a free port).
    pub addr: String,
    /// Engine shards. Each owns a private engine and one worker
    /// thread; jobs route by task-content digest. Clamped to ≥ 1.
    pub shards: usize,
    /// Per-shard bound on `queued + in-flight` jobs; submissions
    /// beyond it are answered `429` with a retry hint. Clamped to ≥ 1.
    pub queue_depth: usize,
    /// Worker threads *inside* each engine (`--jobs`; 0 = all CPUs).
    pub engine_jobs: usize,
    /// Verdict-store directory; `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// How many finished jobs (with their full result payloads) stay
    /// addressable; older ones answer `404`. Must be at least 1 —
    /// [`Server::bind`] rejects `0`, which would evict every result
    /// before its poller could read it.
    pub retain_finished: usize,
    /// Design2SVA proving configuration for every shard engine (the
    /// CLI's `--engine` flag); the default is
    /// the plain bounded schedule.
    pub prove_cfg: fv_core::ProveConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:8642".to_string(),
            shards: 2,
            queue_depth: 32,
            engine_jobs: 0,
            cache_dir: None,
            retain_finished: DEFAULT_RETAINED_FINISHED,
            prove_cfg: fv_core::ProveConfig::default(),
        }
    }
}

/// Default for [`ServerConfig::retain_finished`] (the `--retain` flag).
pub const DEFAULT_RETAINED_FINISHED: usize = 64;

/// Grace period between "drained" (shutdown requested, every shard
/// idle) and the event loop exiting, so clients polling a
/// just-finished job still collect its result.
const DRAIN_GRACE: Duration = Duration::from_millis(300);

/// Idle connections (no complete request, no pending response) are
/// dropped after this long.
const CONN_TIMEOUT: Duration = Duration::from_secs(10);

/// Event-loop tick: the longest the loop sleeps with nothing ready, and
/// so the upper bound on how late a wait deadline or an idle timeout
/// fires. Job progress does not wait for it: the worker's wake ends the
/// sleep, so parked long-polls answer as soon as their job moves.
const TICK_MS: i32 = 25;

/// Longest honored `?wait_ms=` long-poll window.
const MAX_WAIT_MS: u64 = 30_000;

#[derive(Debug)]
struct Job {
    request: EvalRequest,
    state: JobState,
    shard: usize,
    cases_done: u64,
    cases_total: u64,
    /// Bumped on every observable change; parked long-polls answer
    /// when it moves past the version they last saw.
    version: u64,
    result: Option<EvalResult>,
    error: Option<String>,
}

#[derive(Debug, Default)]
struct State {
    jobs: HashMap<u64, Job>,
    /// Finished (done/failed) job ids in completion order; bounded by
    /// [`ServerConfig::retain_finished`] so a long-lived server cannot
    /// grow without limit — the oldest results are evicted first.
    finished: std::collections::VecDeque<u64>,
    next_id: u64,
}

#[derive(Debug)]
struct Shared {
    shards: Vec<Shard>,
    /// Wakes the event loop whenever a job changes (see
    /// [`Shared::bump`]).
    waker: Waker,
    store: Mutex<Option<VerdictStore>>,
    state: Mutex<State>,
    shutdown: AtomicBool,
    started: Instant,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    compactions: AtomicU64,
    preloaded: usize,
    retain_finished: usize,
}

impl Shared {
    /// Shutdown requested and every shard is idle.
    fn drained(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) && self.shards.iter().all(Shard::idle)
    }

    /// Records an observable change to `job` and wakes the event loop,
    /// whose tick pass then answers the job's parked long-polls.
    fn bump(&self, job: &mut Job) {
        job.version += 1;
        self.waker.wake();
    }

    fn view_of(&self, id: u64, job: &Job) -> JobView {
        JobView {
            id,
            state: job.state,
            position: match job.state {
                JobState::Queued => self.shards[job.shard].position_of(id),
                _ => None,
            },
            cases_done: job.cases_done,
            cases_total: job.cases_total,
            shard: Some(job.shard as u64),
            result: job.result.clone(),
            error: job.error.clone(),
        }
    }
}

/// What a routed request does to its connection.
enum Action {
    /// Write these bytes, then close.
    Respond(Vec<u8>),
    /// Hold the connection until the job changes or the deadline hits.
    Park {
        job: u64,
        deadline: Instant,
        version: u64,
    },
}

fn respond(status: u16, reason: &'static str, body: String) -> Action {
    Action::Respond(http::response_bytes(status, reason, &body, &[]))
}

/// One live connection in the event loop.
#[derive(Debug)]
enum ConnState {
    /// Accumulating request bytes.
    Reading(Vec<u8>),
    /// Draining a response.
    Writing { buf: Vec<u8>, pos: usize },
    /// A long-poll watcher waiting for job movement.
    Parked {
        job: u64,
        deadline: Instant,
        version: u64,
    },
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    state: ConnState,
    since: Instant,
}

/// The bound, not-yet-running server. Call [`Server::run`] to serve.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    maintenance: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, opens the verdict store, preloads every
    /// shard engine with the stored verdicts, and starts one worker
    /// thread per shard plus the store-maintenance thread.
    ///
    /// # Errors
    ///
    /// Returns a message if the address cannot be bound, the store
    /// cannot be opened, or `retain_finished` is `0`.
    pub fn bind(config: ServerConfig) -> Result<Server, String> {
        if config.retain_finished == 0 {
            return Err(
                "retain_finished must be at least 1 (a server that retains no finished \
                 jobs could never deliver a result)"
                    .to_string(),
            );
        }
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        // The service always records span-duration histograms so
        // `/metrics` has latency data from the first request. Timing
        // is a side channel: results and counters are unaffected.
        fv_trace::set_timing_enabled(true);
        let mut preloaded = 0usize;
        let (store, records) = match &config.cache_dir {
            Some(dir) => {
                let store = VerdictStore::open(dir)
                    .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
                let records = store.records();
                preloaded = records.len();
                (Some(store), records)
            }
            None => (None, Vec::new()),
        };
        let shards: Vec<Shard> = (0..config.shards.max(1))
            .map(|index| {
                let engine =
                    EvalEngine::with_jobs(config.engine_jobs).with_prove_config(config.prove_cfg);
                // Every shard preloads the full store: routing decides
                // who serves a design, but warm restarts must answer
                // from disk no matter how the shard count changed.
                engine.load_verdicts(records.iter().cloned());
                Shard::new(index, engine, config.queue_depth)
            })
            .collect();
        let waker = Waker::new().map_err(|e| format!("cannot create waker: {e}"))?;
        let shared = Arc::new(Shared {
            shards,
            waker,
            store: Mutex::new(store),
            state: Mutex::new(State {
                next_id: 1,
                ..State::default()
            }),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            jobs_done: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            preloaded,
            retain_finished: config.retain_finished,
        });
        let workers = (0..shared.shards.len())
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, index))
            })
            .collect();
        let maintenance = {
            let shared = Arc::clone(&shared);
            Some(std::thread::spawn(move || maintenance_loop(&shared)))
        };
        Ok(Server {
            listener,
            shared,
            workers,
            maintenance,
        })
    }

    /// The bound address (useful after binding port `0`).
    ///
    /// # Panics
    ///
    /// Panics if the OS cannot report the local address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener.local_addr().expect("listener has an address")
    }

    /// Number of verdicts preloaded into each shard from the
    /// persistent store.
    pub fn preloaded(&self) -> usize {
        self.shared.preloaded
    }

    /// Runs the event loop until a `POST /v1/shutdown` arrives and the
    /// shards drain (polls keep being answered through the drain so
    /// in-flight results stay reachable), then joins the workers and
    /// compacts a fragmented store.
    ///
    /// # Errors
    ///
    /// Returns a message on an unrecoverable listener or poller error.
    /// Broken individual connections are dropped and survived.
    pub fn run(self) -> Result<(), String> {
        let result = self.event_loop();
        // Wind down: wake every shard worker so it observes shutdown.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shared.shards {
            shard.wake();
        }
        for worker in self.workers {
            let _ = worker.join();
        }
        if let Some(maintenance) = self.maintenance {
            let _ = maintenance.join();
        }
        let mut store = self.shared.store.lock().expect("store poisoned");
        if let Some(store) = store.as_mut() {
            // Bound fragmentation across restarts: many short runs each
            // append one segment; fold them once at shutdown.
            store
                .compact_if_fragmented()
                .map_err(|e| format!("compaction failed: {e}"))?;
        }
        result
    }

    fn event_loop(&self) -> Result<(), String> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot unblock listener: {e}"))?;
        let poller = Poller::new().map_err(|e| format!("cannot create poller: {e}"))?;
        // Connection tokens count up from 1, so neither reserved token
        // is ever handed to a connection.
        const LISTENER: u64 = 0;
        const WAKE: u64 = u64::MAX;
        poller
            .register(self.listener.as_raw_fd(), LISTENER, Interest::Read)
            .map_err(|e| format!("cannot register listener: {e}"))?;
        poller
            .register(self.shared.waker.as_raw_fd(), WAKE, Interest::Read)
            .map_err(|e| format!("cannot register waker: {e}"))?;
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_token: u64 = 1;
        let mut events = Vec::new();
        let mut drained_at: Option<Instant> = None;
        loop {
            poller
                .wait(&mut events, TICK_MS)
                .map_err(|e| format!("poll failed: {e}"))?;
            for event in events.clone() {
                if event.token == LISTENER {
                    self.accept_ready(&poller, &mut conns, &mut next_token);
                    continue;
                }
                if event.token == WAKE {
                    // A job moved: the tick pass below answers its
                    // parked long-polls.
                    self.shared.waker.drain();
                    continue;
                }
                let Some(conn) = conns.get_mut(&event.token) else {
                    continue;
                };
                let keep = if event.closed {
                    false
                } else {
                    step_conn(&self.shared, &poller, event.token, conn, event.writable)
                };
                if !keep {
                    drop_conn(&poller, &mut conns, event.token);
                }
            }
            self.tick(&poller, &mut conns);
            // Drain: once shutdown is requested and every shard is
            // idle, give pollers a grace window to collect results,
            // then exit (flushing any response still in the pipe).
            if self.shared.drained() {
                let since = *drained_at.get_or_insert_with(Instant::now);
                let writing = conns
                    .values()
                    .any(|c| matches!(c.state, ConnState::Writing { .. }));
                if since.elapsed() >= DRAIN_GRACE && !writing {
                    return Ok(());
                }
            } else {
                drained_at = None;
            }
        }
    }

    fn accept_ready(&self, poller: &Poller, conns: &mut HashMap<u64, Conn>, next_token: &mut u64) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = *next_token;
                    *next_token += 1;
                    if poller
                        .register(stream.as_raw_fd(), token, Interest::Read)
                        .is_err()
                    {
                        continue;
                    }
                    conns.insert(
                        token,
                        Conn {
                            stream,
                            state: ConnState::Reading(Vec::new()),
                            since: Instant::now(),
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("[serve] accept failed: {e}");
                    return;
                }
            }
        }
    }

    /// Timer pass: answer parked long-polls whose job moved or whose
    /// deadline passed, and drop idle connections.
    fn tick(&self, poller: &Poller, conns: &mut HashMap<u64, Conn>) {
        let now = Instant::now();
        let mut dead = Vec::new();
        for (&token, conn) in conns.iter_mut() {
            match &conn.state {
                ConnState::Parked {
                    job,
                    deadline,
                    version,
                } => {
                    let (job, deadline, version) = (*job, *deadline, *version);
                    let answer = {
                        let state = self.shared.state.lock().expect("state poisoned");
                        match state.jobs.get(&job) {
                            None => Some(Action::Respond(http::response_bytes(
                                404,
                                "Not Found",
                                &error_body(&format!("no job {job}")),
                                &[],
                            ))),
                            Some(entry) => {
                                let finished =
                                    matches!(entry.state, JobState::Done | JobState::Failed);
                                if finished || entry.version != version || now >= deadline {
                                    Some(respond(
                                        200,
                                        "OK",
                                        self.shared.view_of(job, entry).encode().encode(),
                                    ))
                                } else {
                                    None
                                }
                            }
                        }
                    };
                    if let Some(Action::Respond(bytes)) = answer {
                        if !start_writing(&self.shared, poller, token, conn, bytes) {
                            dead.push(token);
                        }
                    }
                }
                ConnState::Reading(_) | ConnState::Writing { .. } => {
                    if now.duration_since(conn.since) > CONN_TIMEOUT {
                        dead.push(token);
                    }
                }
            }
        }
        for token in dead {
            drop_conn(poller, conns, token);
        }
    }
}

fn drop_conn(poller: &Poller, conns: &mut HashMap<u64, Conn>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        poller.deregister(conn.stream.as_raw_fd());
    }
}

/// Advances one connection on readiness. Returns `false` when the
/// connection should be dropped.
fn step_conn(
    shared: &Arc<Shared>,
    poller: &Poller,
    token: u64,
    conn: &mut Conn,
    writable: bool,
) -> bool {
    match &mut conn.state {
        ConnState::Reading(buf) => {
            let mut chunk = [0u8; 4096];
            let mut saw_eof = false;
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        saw_eof = true;
                        break;
                    }
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
            match http::try_parse_request(buf) {
                Ok(Some((request, _consumed))) => {
                    let action = route(shared, &request);
                    apply_action(shared, poller, token, conn, action)
                }
                Ok(None) => {
                    // Liveness probes connect and close without a
                    // request; a mid-request close is unanswerable.
                    !saw_eof
                }
                Err(e) => {
                    let bytes = http::response_bytes(
                        400,
                        "Bad Request",
                        &error_body(&format!("bad request: {e}")),
                        &[],
                    );
                    start_writing(shared, poller, token, conn, bytes)
                }
            }
        }
        ConnState::Writing { buf, pos } => {
            if !writable {
                return true;
            }
            loop {
                match conn.stream.write(&buf[*pos..]) {
                    Ok(0) => return false,
                    Ok(n) => {
                        *pos += n;
                        if *pos >= buf.len() {
                            // Connection: close — response delivered.
                            let _ = conn.stream.flush();
                            return false;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
        }
        ConnState::Parked { .. } => {
            // The only read event a parked watcher produces is its
            // peer hanging up; probe and drop if so. (Answers come
            // from the tick pass, not from this socket's readiness.)
            let mut probe = [0u8; 64];
            match conn.stream.read(&mut probe) {
                Ok(0) => false,
                Ok(_) => true,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => true,
                Err(_) => false,
            }
        }
    }
}

fn apply_action(
    shared: &Arc<Shared>,
    poller: &Poller,
    token: u64,
    conn: &mut Conn,
    action: Action,
) -> bool {
    match action {
        Action::Respond(bytes) => start_writing(shared, poller, token, conn, bytes),
        Action::Park {
            job,
            deadline,
            version,
        } => {
            conn.state = ConnState::Parked {
                job,
                deadline,
                version,
            };
            true
        }
    }
}

/// Switches a connection to response-writing mode, attempting the
/// first write eagerly (most responses fit the socket buffer whole).
fn start_writing(
    shared: &Arc<Shared>,
    poller: &Poller,
    token: u64,
    conn: &mut Conn,
    bytes: Vec<u8>,
) -> bool {
    conn.state = ConnState::Writing { buf: bytes, pos: 0 };
    conn.since = Instant::now();
    if poller
        .rearm(conn.stream.as_raw_fd(), token, Interest::Write)
        .is_err()
    {
        return false;
    }
    // Eager first write: if it completes, the connection is done.
    step_conn(shared, poller, token, conn, true)
}

fn error_body(message: &str) -> String {
    Json::obj([("error", message.into())]).encode()
}

fn route(shared: &Arc<Shared>, request: &http::Request) -> Action {
    let _span = fv_trace::span!("serve.request", path = request.path.as_str());
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/eval") => submit(shared, &request.body),
        ("GET", "/v1/stats") => respond(200, "OK", stats_json(shared).encode()),
        ("GET", "/metrics") => Action::Respond(http::response_bytes_typed(
            200,
            "OK",
            fv_trace::prometheus::CONTENT_TYPE,
            &metrics_text(shared),
            &[],
        )),
        ("POST", "/v1/shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            for shard in &shared.shards {
                shard.wake();
            }
            respond(200, "OK", Json::obj([("ok", true.into())]).encode())
        }
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            match path["/v1/jobs/".len()..].parse::<u64>() {
                Ok(id) => job_status(shared, id, request.query_param("wait_ms")),
                Err(_) => respond(400, "Bad Request", error_body("job ids are integers")),
            }
        }
        _ => respond(
            404,
            "Not Found",
            error_body(&format!("no route for {} {}", request.method, request.path)),
        ),
    }
}

fn submit(shared: &Arc<Shared>, body: &[u8]) -> Action {
    if shared.shutdown.load(Ordering::SeqCst) {
        return respond(
            503,
            "Service Unavailable",
            error_body("server is draining; submissions are closed"),
        );
    }
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return respond(400, "Bad Request", error_body("body is not UTF-8")),
    };
    let request = match parse(text).and_then(|v| EvalRequest::decode(&v)) {
        Ok(r) => r,
        Err(e) => return respond(400, "Bad Request", error_body(&e)),
    };
    // Reject what a worker could never evaluate while the client is
    // still connected, instead of parking a doomed job in the queue.
    if let Err(e) = resolve_backends(&request.models) {
        return respond(400, "Bad Request", error_body(&e));
    }
    if let TaskSetRef::Suite { families, .. } = &request.tasks {
        for family in families {
            if fveval_gen::generator(family).is_none() {
                return respond(
                    400,
                    "Bad Request",
                    error_body(&format!("unknown family '{family}'")),
                );
            }
        }
    }
    let shard_idx = shard_of(request.tasks.route_digest(), shared.shards.len());
    let shard = &shared.shards[shard_idx];
    let mut state = shared.state.lock().expect("state poisoned");
    let id = state.next_id;
    if !shard.try_enqueue(id) {
        drop(state);
        let hint = shard.retry_after_ms();
        let body = Json::obj([
            ("error", "shard queue is full; retry later".into()),
            ("shard", shard_idx.into()),
            ("retry_after_ms", hint.into()),
        ])
        .encode();
        return Action::Respond(http::response_bytes(
            429,
            "Too Many Requests",
            &body,
            &[("Retry-After", hint.div_ceil(1000).max(1).to_string())],
        ));
    }
    state.next_id += 1;
    state.jobs.insert(
        id,
        Job {
            request,
            state: JobState::Queued,
            shard: shard_idx,
            cases_done: 0,
            cases_total: 0,
            version: 0,
            result: None,
            error: None,
        },
    );
    drop(state);
    respond(
        200,
        "OK",
        Json::obj([("job", id.into()), ("shard", shard_idx.into())]).encode(),
    )
}

fn job_status(shared: &Arc<Shared>, id: u64, wait_ms: Option<&str>) -> Action {
    let state = shared.state.lock().expect("state poisoned");
    let Some(job) = state.jobs.get(&id) else {
        return respond(404, "Not Found", error_body(&format!("no job {id}")));
    };
    let wait_ms = wait_ms.and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    let finished = matches!(job.state, JobState::Done | JobState::Failed);
    if wait_ms == 0 || finished {
        return respond(200, "OK", shared.view_of(id, job).encode().encode());
    }
    Action::Park {
        job: id,
        deadline: Instant::now() + Duration::from_millis(wait_ms.min(MAX_WAIT_MS)),
        version: job.version,
    }
}

/// Reads every shard engine's cache and prover counters once and
/// merges them: `(cache total, prover total, per-shard rows)`. Both
/// stats surfaces render the totals and the rows from one such read,
/// so a total always equals the sum of its rows, even while jobs run.
fn engine_snapshot(shared: &Shared) -> (CacheStats, ProverStats, Vec<(CacheStats, ProverStats)>) {
    let rows: Vec<_> = shared
        .shards
        .iter()
        .map(|shard| (shard.engine.cache_stats(), shard.engine.prover_stats()))
        .collect();
    let (mut cache, mut prover) = (CacheStats::default(), ProverStats::default());
    for (shard_cache, shard_prover) in &rows {
        cache.merge(shard_cache);
        prover.merge(shard_prover);
    }
    (cache, prover, rows)
}

/// A `/v1/stats` block: `head`, then every counter of `group` under
/// its field name.
fn counter_block(
    head: impl IntoIterator<Item = (&'static str, Json)>,
    prover: &ProverStats,
    group: CounterGroup,
) -> Json {
    let counters = prover
        .counters()
        .filter(|(counter, _)| counter.group == group)
        .map(|(counter, value)| (counter.key, value.into()));
    Json::obj(head.into_iter().chain(counters))
}

fn stats_json(shared: &Arc<Shared>) -> Json {
    // Aggregate across shards: the cache/prover blocks keep their
    // pre-shard key paths, computed as the merge of every shard.
    let (cache, prover, shard_counters) = engine_snapshot(shared);
    let (queued, running): (usize, usize) = shared
        .shards
        .iter()
        .fold((0, 0), |(q, r), s| (q + s.depth(), r + s.in_flight()));
    let submitted: u64 = shared.shards.iter().map(Shard::accepted).sum();
    let rejected: u64 = shared.shards.iter().map(Shard::rejected).sum();
    let store = shared.store.lock().expect("store poisoned");
    let store_json = match store.as_ref() {
        Some(store) => Json::obj([
            ("entries", store.len().into()),
            ("segments", store.segment_count().into()),
            ("torn_lines", store.torn_lines().into()),
            ("preloaded", shared.preloaded.into()),
            (
                "compactions",
                shared.compactions.load(Ordering::Relaxed).into(),
            ),
        ]),
        None => Json::Null,
    };
    drop(store);
    let shard_rows: Vec<(String, Json)> = shared
        .shards
        .iter()
        .zip(&shard_counters)
        .map(|(shard, (shard_cache, shard_prover))| {
            (
                shard.index.to_string(),
                Json::obj([
                    ("depth", shard.depth().into()),
                    ("in_flight", shard.in_flight().into()),
                    ("accepted", shard.accepted().into()),
                    ("served", shard.served().into()),
                    ("failed", shard.failed().into()),
                    ("rejected", shard.rejected().into()),
                    ("retry_after_ms", shard.retry_after_ms().into()),
                    (
                        "cache",
                        counter_block(
                            [
                                ("hits", shard_cache.hits.into()),
                                ("persisted_hits", shard_cache.persisted_hits.into()),
                                ("misses", shard_cache.misses.into()),
                                ("entries", shard_cache.entries.into()),
                            ],
                            shard_prover,
                            CounterGroup::Cache,
                        ),
                    ),
                    ("prover_queries", shard_prover.queries().into()),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("uptime_secs", shared.started.elapsed().as_secs_f64().into()),
        (
            "serve",
            Json::obj([
                ("shards", shared.shards.len().into()),
                ("queue_depth", shared.shards[0].queue_depth().into()),
                ("retain_finished", shared.retain_finished.into()),
            ]),
        ),
        (
            "jobs",
            Json::obj([
                ("submitted", submitted.into()),
                ("queued", queued.into()),
                ("running", running.into()),
                ("done", shared.jobs_done.load(Ordering::Relaxed).into()),
                ("failed", shared.jobs_failed.load(Ordering::Relaxed).into()),
                ("rejected", rejected.into()),
            ]),
        ),
        (
            "cache",
            counter_block(
                [
                    ("hits", cache.hits.into()),
                    ("persisted_hits", cache.persisted_hits.into()),
                    ("misses", cache.misses.into()),
                    ("entries", cache.entries.into()),
                    ("persisted_hit_rate", cache.persisted_hit_rate().into()),
                ],
                &prover,
                CounterGroup::Cache,
            ),
        ),
        (
            "prover",
            counter_block(
                [("queries", prover.queries().into())],
                &prover,
                CounterGroup::Prover,
            ),
        ),
        ("store", store_json),
        ("shards", Json::Obj(shard_rows)),
        ("hist", hist_json()),
    ])
}

/// The fv-trace registry's histograms as JSON for `/v1/stats`:
/// `name → {count, sum, buckets: [[le, n], …]}` with only nonzero
/// buckets listed, ordered by ascending `le`. Names come from a
/// `BTreeMap`, so the block is always sorted.
fn hist_json() -> Json {
    let snap = fv_trace::metrics::snapshot();
    let rows: Vec<(String, Json)> = snap
        .histograms
        .iter()
        .map(|(name, hist)| {
            let buckets: Vec<Json> = hist
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n != 0)
                .map(|(i, &n)| Json::Arr(vec![fv_trace::metrics::bucket_le(i).into(), n.into()]))
                .collect();
            (
                name.clone(),
                Json::obj([
                    ("count", hist.count.into()),
                    ("sum", hist.sum.into()),
                    ("buckets", Json::Arr(buckets)),
                ]),
            )
        })
        .collect();
    Json::Obj(rows)
}

/// Renders the Prometheus `/metrics` exposition. Prover and cache
/// totals come from the same [`engine_snapshot`] as [`stats_json`], so
/// `/metrics`, `/v1/stats`, and a direct run's `prover_stats.csv` for
/// the same work reconcile exactly. Per-shard series carry a `shard`
/// label; the trailing registry snapshot adds the span-duration
/// histograms.
fn metrics_text(shared: &Arc<Shared>) -> String {
    let (cache, prover, shard_counters) = engine_snapshot(shared);
    let mut prom = fv_trace::prometheus::PromText::new();
    prom.counter("prover.queries", &[], prover.queries());
    for (counter, value) in prover.counters() {
        let dotted = format!("{}.{}", counter.group.key(), counter.key);
        prom.counter(&dotted, &[], value);
    }
    prom.counter("cache.hits", &[], cache.hits);
    prom.counter("cache.persisted_hits", &[], cache.persisted_hits);
    prom.counter("cache.misses", &[], cache.misses);
    prom.gauge("cache.entries", &[], cache.entries as i64);
    let (queued, running): (usize, usize) = shared
        .shards
        .iter()
        .fold((0, 0), |(q, r), s| (q + s.depth(), r + s.in_flight()));
    prom.counter(
        "jobs.submitted",
        &[],
        shared.shards.iter().map(Shard::accepted).sum::<u64>(),
    );
    prom.counter("jobs.done", &[], shared.jobs_done.load(Ordering::Relaxed));
    prom.counter(
        "jobs.failed",
        &[],
        shared.jobs_failed.load(Ordering::Relaxed),
    );
    prom.counter(
        "jobs.rejected",
        &[],
        shared.shards.iter().map(Shard::rejected).sum::<u64>(),
    );
    prom.gauge("jobs.queued", &[], queued as i64);
    prom.gauge("jobs.running", &[], running as i64);
    prom.gauge(
        "uptime.seconds",
        &[],
        shared.started.elapsed().as_secs() as i64,
    );
    if let Some(store) = shared.store.lock().expect("store poisoned").as_ref() {
        prom.gauge("store.entries", &[], store.len() as i64);
        prom.gauge("store.segments", &[], store.segment_count() as i64);
        prom.counter(
            "store.compactions",
            &[],
            shared.compactions.load(Ordering::Relaxed),
        );
    }
    for (shard, (shard_cache, shard_prover)) in shared.shards.iter().zip(&shard_counters) {
        let label = shard.index.to_string();
        let labels: [(&str, &str); 1] = [("shard", label.as_str())];
        prom.counter("shard.accepted", &labels, shard.accepted());
        prom.counter("shard.served", &labels, shard.served());
        prom.counter("shard.failed", &labels, shard.failed());
        prom.counter("shard.rejected", &labels, shard.rejected());
        prom.gauge("shard.depth", &labels, shard.depth() as i64);
        prom.gauge("shard.in_flight", &labels, shard.in_flight() as i64);
        prom.counter("shard.prover_queries", &labels, shard_prover.queries());
        prom.counter("shard.prover_sat_calls", &labels, shard_prover.sat_calls);
        prom.counter(
            "shard.cache_hits",
            &labels,
            shard_cache.hits + shard_cache.persisted_hits,
        );
        prom.counter("shard.cache_misses", &labels, shard_cache.misses);
    }
    // Everything the fv-trace registry collected: span-duration
    // histograms (serve.job, store.flush, prove.check, sat.solve, …).
    prom.snapshot(&fv_trace::metrics::snapshot());
    prom.finish()
}

/// One shard's worker: pops queued job ids, evaluates them on the
/// shard-private engine with per-case progress reporting, and flushes
/// freshly computed verdicts to the store *before* marking the job
/// done — so a client that sees `done` can rely on the verdicts
/// surviving a `kill -9` right after.
fn worker_loop(shared: &Arc<Shared>, index: usize) {
    let shard = &shared.shards[index];
    // Routing sends each task set to exactly one shard, so this
    // worker-owned memo needs no lock and never duplicates a set.
    let mut memo = TaskMemo::new(MEMO_TASKS);
    loop {
        let Some(id) = shard.pop(&shared.shutdown) else {
            return;
        };
        let started = Instant::now();
        let request = {
            let mut state = shared.state.lock().expect("state poisoned");
            state.jobs.get_mut(&id).map(|job| {
                job.state = JobState::Running;
                shared.bump(job);
                job.request.clone()
            })
        };
        let outcome = {
            let _span = fv_trace::span!("serve.job", shard = index, job = id);
            match request {
                Some(request) => run_job(shared, shard, &mut memo, id, &request),
                // Evicted before it ran (tiny retain bound): nothing to do.
                None => Err("job evicted before it ran".to_string()),
            }
        };
        let fresh = shard.engine.take_unpersisted();
        if let Some(store) = shared.store.lock().expect("store poisoned").as_mut() {
            let _span = fv_trace::span!("store.flush", shard = index, records = fresh.len());
            if let Err(e) = store.append(&fresh) {
                eprintln!("[serve] store flush failed: {e}");
            }
        }
        let ok = outcome.is_ok();
        let mut state = shared.state.lock().expect("state poisoned");
        if let Some(job) = state.jobs.get_mut(&id) {
            match outcome {
                Ok(result) => {
                    job.state = JobState::Done;
                    job.cases_done = job.cases_total;
                    job.result = Some(result);
                    shared.jobs_done.fetch_add(1, Ordering::Relaxed);
                }
                Err(error) => {
                    job.state = JobState::Failed;
                    job.error = Some(error);
                    shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
                }
            }
            shared.bump(job);
        }
        // Bound memory: retain only the most recent finished results.
        state.finished.push_back(id);
        while state.finished.len() > shared.retain_finished {
            if let Some(evicted) = state.finished.pop_front() {
                state.jobs.remove(&evicted);
            }
        }
        drop(state);
        shard.note_finished(ok, started.elapsed());
    }
}

fn run_job(
    shared: &Arc<Shared>,
    shard: &Shard,
    memo: &mut TaskMemo,
    id: u64,
    request: &EvalRequest,
) -> Result<EvalResult, String> {
    let tasks = {
        let _span = fv_trace::span!("serve.build", shard = shard.index, job = id);
        memo.get_or_build(&request.tasks, build_tasks)?
    };
    let models = resolve_backends(&request.models)?;
    {
        let mut state = shared.state.lock().expect("state poisoned");
        if let Some(job) = state.jobs.get_mut(&id) {
            job.cases_total = tasks.len() as u64;
            shared.bump(job);
        }
    }
    let backends: Vec<&dyn Backend> = models.iter().map(|m| m as &dyn Backend).collect();
    let progress = |done: usize, _total: usize| {
        let mut state = shared.state.lock().expect("state poisoned");
        if let Some(job) = state.jobs.get_mut(&id) {
            // Progress may race across engine workers; cases_done only
            // moves forward.
            if done as u64 > job.cases_done {
                job.cases_done = done as u64;
                shared.bump(job);
            }
        }
    };
    let rows = shard.engine.run_matrix_with_progress(
        &backends,
        &tasks,
        &request.cfg,
        request.samples.max(1),
        &progress,
    );
    Ok(EvalResult {
        models: models
            .iter()
            .map(|m| m.name().to_string())
            .zip(rows)
            .collect(),
    })
}

/// The background store maintainer: whenever the store has fragmented
/// (see [`VerdictStore::compact_if_fragmented`]) and every shard is
/// idle, fold it into one segment — while the server keeps serving.
/// Compaction refreshes from disk first (see
/// [`VerdictStore::compact`]), so a flush racing the fold can never be
/// shadowed.
fn maintenance_loop(shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
        if !shared.shards.iter().all(Shard::idle) {
            continue;
        }
        let mut store = shared.store.lock().expect("store poisoned");
        if let Some(store) = store.as_mut() {
            match store.compact_if_fragmented() {
                Ok(true) => {
                    shared.compactions.fetch_add(1, Ordering::Relaxed);
                }
                Ok(false) => {}
                Err(e) => eprintln!("[serve] background compaction failed: {e}"),
            }
        }
    }
}

/// Materializes a task-set reference into an engine work-list. Public
/// so the direct-path CLI and the integration tests evaluate *the
/// same* task list a server would, making byte-identical comparisons
/// meaningful. The server itself calls it through each shard worker's
/// memo, once per distinct task set.
///
/// # Errors
///
/// Returns a message when generated collateral fails to bind (a
/// generator bug) or a family name is unknown.
pub fn build_tasks(tasks: &TaskSetRef) -> Result<Vec<Arc<TaskSpec>>, String> {
    match tasks {
        TaskSetRef::Human => {
            let tables: HashMap<&str, _> = testbenches()
                .into_iter()
                .map(|tb| {
                    let table = signal_table_for(&tb)?;
                    Ok((tb.name, table))
                })
                .collect::<Result<_, String>>()?;
            Ok(human_task_specs(&human_cases(), &tables))
        }
        TaskSetRef::Machine { count, seed } => {
            let cases = generate_machine_cases(MachineGenConfig {
                count: *count,
                seed: *seed,
                ..Default::default()
            });
            Ok(machine_task_specs(&cases, &machine_signal_table()))
        }
        TaskSetRef::Suite {
            families,
            per_family,
            seed,
            depth,
            width,
            mutations,
        } => {
            for family in families {
                if fveval_gen::generator(family).is_none() {
                    return Err(format!("unknown family '{family}'"));
                }
            }
            let set = fveval_data::generated_task_set(&SuiteConfig {
                families: families.clone(),
                per_family: *per_family,
                seed: *seed,
                depth: *depth,
                width: *width,
                mutations: *mutations,
            })?;
            Ok(generated_task_specs(&set))
        }
    }
}

/// Resolves a model roster by name (empty = the full profile roster).
///
/// # Errors
///
/// Returns a message naming the first unknown model.
pub fn resolve_backends(names: &[String]) -> Result<Vec<SimulatedModel>, String> {
    let roster = profiles();
    if names.is_empty() {
        return Ok(roster);
    }
    names
        .iter()
        .map(|name| {
            roster
                .iter()
                .find(|m| m.name() == name)
                .cloned()
                .ok_or_else(|| {
                    format!(
                        "unknown model '{name}' (known: {})",
                        roster
                            .iter()
                            .map(|m| m.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })
        })
        .collect()
}
