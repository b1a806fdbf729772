//! `serve-mixed`: the shipped `fveval serve` at its defaults (2 shards,
//! queue depth 32, persistence on) under a closed loop of two clients,
//! each submitting a job and long-polling it to completion before the
//! next — the `fveval submit --wait` pattern, with no think time.
//!
//! The traffic draws from a seeded pool of request templates: inline
//! generated suites, machine-set slices and the human set, with 1–3
//! models and 1–3 samples. An untimed preparation step evaluates every
//! template directly through `EvalEngine` (the reference each served
//! result is compared with) and writes the verdicts of the prefilled
//! templates into the store the server then starts onto. So part of
//! the traffic is answered from the store, part repeats work done
//! earlier in the run, and part is fresh.
//!
//! Templates never share task content, and each is evaluated with one
//! fixed roster, so the cache counters of a fixed job list do not
//! depend on how the two clients interleave.

use crate::layers::Layers;
use crate::{measure, records, Report, TraceOutcome};
use fveval_core::EvalEngine;
use fveval_llm::{profiles, Backend, InferenceConfig};
use fveval_serve::json::Json;
use fveval_serve::{
    build_tasks, resolve_backends, Client, EvalRequest, EvalResult, JobState, SubmitOutcome,
    TaskSetRef, VerdictStore,
};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Closed-loop clients, one per CPU of a 2-CPU machine; the main
/// thread is one of them.
const CLIENTS: usize = 2;
/// The untraced load runs in this many equal segments; the set-up
/// probes run before the first and between the others.
const SEGMENTS: usize = 8;
/// Set-up probes before the load and between two of its segments;
/// `setup_s` is the median of these and the serving server's start.
const PROBES_BEFORE: usize = 8;
const PROBES_BETWEEN: usize = 4;
/// Jobs per client in the traced run (a fixed list, so its counters
/// repeat exactly).
const TRACED_JOBS: usize = 600;
/// A client reads `/v1/stats` after every this many jobs.
const STATS_EVERY: usize = 4;
/// A job not done by then counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
const LONG_POLL_MS: u64 = 2_000;

/// The template pool: `(kind, prefilled)` per slot. The shape is fixed
/// and the pool picks the content (see [`requests`]), so the two pools
/// differ in inputs, not in how much work the mix holds.
const SHAPES: [(Kind, bool); 15] = [
    (Kind::Human, true),
    (Kind::Suite, true),
    (Kind::Suite, true),
    (Kind::Machine, true),
    (Kind::Machine, true),
    (Kind::Suite, false),
    (Kind::Suite, false),
    (Kind::Suite, false),
    (Kind::Suite, false),
    (Kind::Suite, false),
    (Kind::Suite, false),
    (Kind::Machine, false),
    (Kind::Machine, false),
    (Kind::Machine, false),
    (Kind::Machine, false),
];

#[derive(Clone, Copy)]
enum Kind {
    Human,
    Suite,
    Machine,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: u64) -> u64 {
    splitmix(state) % n
}

/// One request template of the pool.
struct Template {
    request: EvalRequest,
    prefilled: bool,
    /// Digest of the result `EvalEngine` computes for the request.
    expected: String,
}

/// The template pool. Its content is fixed, so job durations do not
/// vary between runs, and `--seed` drives the clients' request
/// sequences. The held-out pool draws its content from content seeds
/// and a family/model stream no other pool uses.
fn requests(held_out: bool) -> Vec<(EvalRequest, bool)> {
    let (mut rng, first_seed) = if held_out {
        (0x4e1d_0ff5_eed5_u64, SHAPES.len() as u64 + 1)
    } else {
        (0x5e7e_d5e7_e0ed_u64, 1)
    };
    let names: Vec<String> = profiles().iter().map(|m| m.name().to_string()).collect();
    let families: Vec<&str> = fveval_gen::generators()
        .iter()
        .filter(|g| g.in_default_suite())
        .map(|g| g.family())
        .collect();
    SHAPES
        .iter()
        .enumerate()
        .map(|(slot, &(kind, prefilled))| {
            // Distinct content seeds: no two templates share a case.
            let content_seed = first_seed + slot as u64;
            let tasks = match kind {
                Kind::Human => TaskSetRef::Human,
                Kind::Machine => TaskSetRef::Machine {
                    count: 24,
                    seed: content_seed,
                },
                Kind::Suite => {
                    let first = below(&mut rng, families.len() as u64) as usize;
                    let mut picked = vec![families[first].to_string()];
                    if slot % 2 == 1 {
                        let second =
                            (first + 1 + below(&mut rng, families.len() as u64 - 1) as usize)
                                % families.len();
                        picked.push(families[second].to_string());
                    }
                    TaskSetRef::Suite {
                        families: picked,
                        per_family: 1 + slot % 2,
                        seed: content_seed,
                        depth: None,
                        width: None,
                        mutations: slot % 3,
                    }
                }
            };
            let n_models = 1 + slot % 3;
            let samples = 1 + (slot / 3 % 3) as u32;
            let mut models = Vec::new();
            while models.len() < n_models {
                let name = &names[below(&mut rng, names.len() as u64) as usize];
                if !models.contains(name) {
                    models.push(name.clone());
                }
            }
            let cfg = if samples > 1 {
                InferenceConfig::sampling()
            } else {
                InferenceConfig::greedy()
            };
            (
                EvalRequest {
                    tasks,
                    models,
                    cfg,
                    samples,
                },
                prefilled,
            )
        })
        .collect()
}

fn digest(result: &EvalResult) -> String {
    measure::hex(measure::fnv1a(result.encode().encode().as_bytes()))
}

/// Evaluates a request directly through `EvalEngine`.
fn evaluate(engine: &EvalEngine, request: &EvalRequest) -> Result<EvalResult, String> {
    let tasks = build_tasks(&request.tasks)?;
    let models = resolve_backends(&request.models)?;
    let backends: Vec<&dyn Backend> = models.iter().map(|m| m as &dyn Backend).collect();
    let rows = engine.run_matrix(&backends, &tasks, &request.cfg, request.samples.max(1));
    Ok(EvalResult {
        models: models
            .iter()
            .map(|m| m.name().to_string())
            .zip(rows)
            .collect(),
    })
}

/// The untimed preparation: reference results for every template, and
/// a store holding the verdicts of the prefilled ones.
fn prepare(store_dir: &Path, held_out: bool) -> Result<Vec<Template>, String> {
    let _ = std::fs::remove_dir_all(store_dir);
    let mut store = VerdictStore::open(store_dir).map_err(|e| format!("cannot open store: {e}"))?;
    let engine = EvalEngine::with_jobs(CLIENTS);
    let mut pool = requests(held_out);
    // Prefilled templates first, so one drain holds exactly their
    // verdicts.
    pool.sort_by_key(|(_, prefilled)| !prefilled);
    let mut templates = Vec::new();
    let mut flushed = false;
    for (request, prefilled) in pool {
        if !prefilled && !flushed {
            store
                .append(&engine.take_unpersisted())
                .map_err(|e| format!("cannot fill store: {e}"))?;
            flushed = true;
        }
        let expected = digest(&evaluate(&engine, &request)?);
        templates.push(Template {
            request,
            prefilled,
            expected,
        });
    }
    Ok(templates)
}

/// A running `fveval serve` child process.
struct Server {
    child: Child,
    stderr: BufReader<ChildStderr>,
    addr: String,
}

impl Server {
    /// Spawns the server onto `store_dir` and waits for its first
    /// `/v1/stats` answer; returns it with the time that took.
    fn start(fveval: &Path, store_dir: &Path) -> Result<(Server, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(fveval)
            .args(["serve", "--addr", "127.0.0.1:0", "--cache-dir"])
            .arg(store_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", fveval.display()))?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        // From here on, dropping `server` kills and reaps the child.
        let mut server = Server {
            child,
            stderr,
            addr: String::new(),
        };
        let mut line = String::new();
        server.addr = loop {
            line.clear();
            if server
                .stderr
                .read_line(&mut line)
                .map_err(|e| e.to_string())?
                == 0
            {
                return Err("server exited before listening".into());
            }
            if let Some(rest) = line.strip_prefix("[serve] listening on ") {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        };
        let client = Client::new(server.addr.clone());
        while client.stats().is_err() {
            if started.elapsed() > Duration::from_secs(30) {
                return Err("server never answered /v1/stats".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    /// Asks the server to drain, waits for it to exit, and returns
    /// what it printed.
    fn stop(mut self) -> Result<String, String> {
        let asked = Client::new(self.addr.clone()).shutdown();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return Err("server did not stop; killed".into()),
            }
        }
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stderr, &mut rest);
        asked.map(|()| rest)
    }
}

impl Drop for Server {
    /// A server still running when its handle goes away (an error cut
    /// the run short) is killed and reaped, never left behind.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one client observed.
#[derive(Default)]
struct ClientLog {
    latency_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    stats_ms: Vec<f64>,
    refused: u64,
    failed: u64,
    problems: Vec<String>,
    /// Template index of every completed job.
    served: Vec<usize>,
}

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        self.latency_ms.extend(other.latency_ms);
        self.submit_ms.extend(other.submit_ms);
        self.queue_ms.extend(other.queue_ms);
        self.stats_ms.extend(other.stats_ms);
        self.refused += other.refused;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.served.extend(other.served);
    }
}

/// Runs one job to completion; returns its latency.
fn one_job(client: &Client, t: &Template, log: &mut ClientLog) -> Result<f64, String> {
    let started = Instant::now();
    let id = loop {
        let asked = Instant::now();
        let outcome = client.try_submit(&t.request)?;
        log.submit_ms.push(asked.elapsed().as_secs_f64() * 1e3);
        match outcome {
            SubmitOutcome::Accepted { job, .. } => break job,
            SubmitOutcome::Busy { retry_after_ms } => {
                log.refused += 1;
                if started.elapsed() > JOB_TIMEOUT {
                    return Err("refused until the job timeout".into());
                }
                std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 1000)));
            }
        }
    };
    let accepted = Instant::now();
    let mut queued_until = None;
    loop {
        let view = client.job_wait(id, LONG_POLL_MS)?;
        if queued_until.is_none() && view.state != JobState::Queued {
            queued_until = Some(accepted.elapsed());
        }
        match view.state {
            JobState::Done => {
                let latency = started.elapsed().as_secs_f64() * 1e3;
                log.queue_ms
                    .push(queued_until.unwrap_or_default().as_secs_f64() * 1e3);
                let result = view.result.ok_or("done without a result")?;
                let got = digest(&result);
                if got != t.expected {
                    return Err(format!(
                        "result digest {got}, direct EvalEngine {}",
                        t.expected
                    ));
                }
                return Ok(latency);
            }
            JobState::Failed => {
                return Err(format!(
                    "job failed: {}",
                    view.error.as_deref().unwrap_or("(no detail)")
                ))
            }
            JobState::Queued | JobState::Running if started.elapsed() > JOB_TIMEOUT => {
                return Err("job timed out".into())
            }
            JobState::Queued | JobState::Running => {}
        }
    }
}

/// One closed-loop client: `jobs` jobs, or jobs until `deadline`,
/// drawing templates from the request stream `stream`.
fn client_loop(
    addr: &str,
    templates: &[Template],
    stream: u64,
    jobs: Option<usize>,
    deadline: Instant,
) -> ClientLog {
    let client = Client::new(addr.to_string());
    let mut rng = stream;
    let mut log = ClientLog::default();
    let mut done = 0usize;
    while jobs.map_or(Instant::now() < deadline, |n| done < n) {
        let pick = below(&mut rng, templates.len() as u64) as usize;
        match one_job(&client, &templates[pick], &mut log) {
            Ok(latency) => {
                log.latency_ms.push(latency);
                log.served.push(pick);
            }
            Err(e) => {
                log.failed += 1;
                log.problems.push(format!("template {pick}: {e}"));
            }
        }
        done += 1;
        if done.is_multiple_of(STATS_EVERY) {
            let asked = Instant::now();
            if client.stats().is_ok() {
                log.stats_ms.push(asked.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    log
}

/// Runs the closed loop from this thread plus `CLIENTS - 1` others:
/// `jobs` jobs per client, or jobs until `seconds` have passed. Segment
/// `round` of a run continues each client's request stream rather than
/// repeating it.
fn load(
    addr: &str,
    templates: &[Template],
    seed: u64,
    round: u64,
    jobs: Option<usize>,
    seconds: f64,
) -> (ClientLog, f64) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let stream = |i: usize| seed ^ (0xc11e_0000 + i as u64) ^ (round << 32);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..CLIENTS)
            .map(|i| scope.spawn(move || client_loop(addr, templates, stream(i), jobs, deadline)))
            .collect();
        let mut logs = vec![client_loop(addr, templates, stream(0), jobs, deadline)];
        logs.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("client thread panicked")),
        );
        logs
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut all = ClientLog::default();
    for log in logs {
        all.absorb(log);
    }
    (all, elapsed)
}

fn num(v: &Json, path: &[&str]) -> f64 {
    let mut cur = Some(v);
    for key in path {
        cur = cur.and_then(|c| c.get(key));
    }
    cur.and_then(Json::as_f64).unwrap_or(0.0)
}

/// `/v1/stats` counters and span histograms over one measured window.
struct Window {
    before: Json,
    after: Json,
}

impl Window {
    fn delta(&self, path: &[&str]) -> f64 {
        num(&self.after, path) - num(&self.before, path)
    }

    /// Sum of a span histogram over the window, in seconds.
    fn span_s(&self, span: &str) -> f64 {
        self.delta(&["hist", &format!("span.{span}.us"), "sum"]) / 1e6
    }

    fn span_n(&self, span: &str) -> f64 {
        self.delta(&["hist", &format!("span.{span}.us"), "count"])
    }

    /// Log2 buckets of the named spans over the window, `(le, n)`.
    fn buckets(&self, spans: &[&str]) -> Vec<(f64, f64)> {
        let read = |v: &Json, out: &mut Vec<(f64, f64)>, sign: f64| {
            for span in spans {
                let key = format!("span.{span}.us");
                let rows = v
                    .get("hist")
                    .and_then(|h| h.get(&key))
                    .and_then(|h| h.get("buckets"))
                    .and_then(Json::as_arr)
                    .unwrap_or(&[]);
                for row in rows {
                    let pair = row.as_arr().unwrap_or(&[]);
                    if let [le, n] = pair {
                        let (le, n) = (le.as_f64().unwrap_or(0.0), n.as_f64().unwrap_or(0.0));
                        match out.iter_mut().find(|(l, _)| *l == le) {
                            Some(slot) => slot.1 += sign * n,
                            None => out.push((le, sign * n)),
                        }
                    }
                }
            }
        };
        let mut out = Vec::new();
        read(&self.after, &mut out, 1.0);
        read(&self.before, &mut out, -1.0);
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }
}

/// Nearest-rank percentile over log2 buckets: the upper bound of the
/// bucket holding that rank.
fn bucket_percentile(buckets: &[(f64, f64)], p: f64) -> f64 {
    let total: f64 = buckets.iter().map(|b| b.1).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let rank = (p / 100.0 * total).ceil().max(1.0);
    let mut seen = 0.0;
    for &(le, n) in buckets {
        seen += n;
        if seen >= rank {
            return le;
        }
    }
    buckets.last().map_or(0.0, |b| b.0)
}

/// A prepared store with the server running on it.
struct Session {
    templates: Vec<Template>,
    server: Server,
    /// How long the server took to start.
    setup_s: f64,
    dir: PathBuf,
    /// An untouched copy of the prefilled store, for set-up probes.
    probe_store: PathBuf,
}

/// Copies the files of a flat directory (a store's segments).
fn copy_flat(from: &Path, to: &Path) -> Result<(), String> {
    let failed = |e: std::io::Error| format!("cannot copy {}: {e}", from.display());
    std::fs::create_dir_all(to).map_err(failed)?;
    for entry in std::fs::read_dir(from).map_err(failed)? {
        let entry = entry.map_err(failed)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(failed)?;
    }
    Ok(())
}

/// Prepares the store of `seed`'s template pool and starts the server
/// on it. On failure nothing is left running or on disk.
fn open(fveval: &Path, work: &Path, seed: u64) -> Result<Session, String> {
    let dir = work.join(format!("serve-mixed-{}", std::process::id()));
    let store_dir = dir.join("store");
    let probe_store = dir.join("probe-store");
    let held_out = records::held_out("serve-mixed", seed);
    let started = prepare(&store_dir, held_out).and_then(|templates| {
        copy_flat(&store_dir, &probe_store)?;
        let (server, setup_s) = Server::start(fveval, &store_dir)?;
        Ok((templates, server, setup_s))
    });
    match started {
        Ok((templates, server, setup_s)) => Ok(Session {
            templates,
            server,
            setup_s,
            dir,
            probe_store,
        }),
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            Err(e)
        }
    }
}

/// Times `n` more set-ups: a server started onto the untouched copy of
/// the prefilled store, then stopped again, while the serving server
/// idles.
fn probe_setups(
    fveval: &Path,
    session: &Session,
    n: usize,
    times: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..n {
        let (probe, took) = Server::start(fveval, &session.probe_store)?;
        probe.stop()?;
        times.push(took);
    }
    Ok(())
}

/// Stops the server and removes the run's files; returns the server's
/// peak memory.
fn finish(session: Session, report: &mut Report) -> Option<f64> {
    let rss = measure::peak_rss_mib(&session.server.child.id().to_string());
    match session.server.stop() {
        Ok(stderr) => {
            for line in stderr.lines().filter(|l| !l.contains("[serve] stopped")) {
                report.note(format!("server: {line}"));
            }
        }
        Err(e) => {
            report.note(format!("FAILED to stop the server: {e}"));
            report.failed += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&session.dir);
    rss
}

/// Checks every template's direct result against the digest
/// `records.json` holds for it, and every served result against the
/// direct one (already compared per job).
fn check(seed: u64, templates: &[Template], log: &ClientLog, report: &mut Report) {
    report.attempted = log.latency_ms.len() as u64 + log.failed;
    report.failed = log.failed;
    for (i, t) in templates.iter().enumerate() {
        let recorded = records::serve_digest(seed, i);
        if recorded.as_deref() != Some(t.expected.as_str()) {
            report.failed += 1;
            report.note(format!(
                "MISMATCH template {i}: EvalEngine result digest {}, recorded {recorded:?}",
                t.expected
            ));
        }
    }
    for p in &log.problems {
        report.note(format!("MISMATCH {p}"));
    }
}

fn shares(w: &Window) -> (f64, f64, f64) {
    let persisted = w.delta(&["cache", "persisted_hits"]);
    let hits = w.delta(&["cache", "hits"]);
    let misses = w.delta(&["cache", "misses"]);
    let units = (persisted + hits + misses).max(1.0);
    (persisted / units, hits / units, misses / units)
}

/// What the untraced run measured.
struct Measured {
    log: ClientLog,
    elapsed: f64,
    window: Window,
    setups: Vec<f64>,
}

/// The untraced measurement: the load in [`SEGMENTS`] equal segments,
/// with set-up probes before the first and between the others, so the
/// set-up samples spread over the whole run.
fn measure_load(
    session: &Session,
    fveval: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Measured, String> {
    let mut setups = vec![session.setup_s];
    probe_setups(fveval, session, PROBES_BEFORE, &mut setups)?;
    let client = Client::new(session.server.addr.clone());
    let before = client.stats()?;
    let (mut log, mut elapsed) = (ClientLog::default(), 0.0);
    for round in 0..SEGMENTS {
        if round > 0 {
            probe_setups(fveval, session, PROBES_BETWEEN, &mut setups)?;
        }
        let (segment, took) = load(
            &session.server.addr,
            &session.templates,
            seed,
            round as u64,
            None,
            seconds / SEGMENTS as f64,
        );
        log.absorb(segment);
        elapsed += took;
    }
    let after = client.stats()?;
    Ok(Measured {
        log,
        elapsed,
        window: Window { before, after },
        setups,
    })
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64, fveval: &Path, work: &Path) -> Result<Report, String> {
    let session = open(fveval, work, seed)?;
    let measured = measure_load(&session, fveval, seed, seconds);
    let mut report = Report::new();
    if let Ok(m) = &measured {
        check(seed, &session.templates, &m.log, &mut report);
    }
    let prefilled: Vec<bool> = session.templates.iter().map(|t| t.prefilled).collect();
    let rss = finish(session, &mut report);
    let Measured {
        log,
        elapsed,
        window: w,
        setups,
    } = measured?;
    let throughput = log.latency_ms.len() as f64 / elapsed;
    let (p, tail_ms) = measure::tail(&log.latency_ms);
    let (persisted, memory, fresh) = shares(&w);
    let prefilled_jobs = log.served.iter().filter(|&&i| prefilled[i]).count();
    report.note(format!(
        "{} jobs in {elapsed:.3} s by {CLIENTS} closed-loop clients, tail = p{p}; \
         units: {persisted:.4} persisted, {memory:.4} in-memory, {fresh:.4} fresh; \
         {prefilled_jobs} jobs on prefilled templates; {} refused; {} set-ups",
        log.latency_ms.len(),
        log.refused,
        setups.len()
    ));
    report.e2e(measure::median(&setups), throughput);
    report.alias("jobs_per_s", throughput, "1/s");
    report.alias("job_p50_ms", measure::median(&log.latency_ms), "ms");
    report.alias("job_tail_ms", tail_ms, "ms");
    report.rss = rss;
    Ok(report)
}

/// What building one template's tasks costs, as the server pays it on
/// every job of that template.
#[derive(Default)]
struct BuildCost {
    /// `build_tasks` wall time, solver included.
    build_s: f64,
    /// `generate_suite` self time (suite templates only).
    generate_s: f64,
    candidates: u64,
    mutants: u64,
    requested_mutants: u64,
}

/// Runs `f` `REPS` times: its last result, and the median self and wall
/// seconds of the runs (self time leaves out the solver time inside).
fn timed<T>(f: impl Fn() -> T) -> (T, f64, f64) {
    const REPS: usize = 3;
    let mut runs: Vec<(f64, f64)> = Vec::new();
    let mut out = None;
    for _ in 0..REPS {
        let mut l = Layers::default();
        let (value, wall) = l.time_solving("self", &f);
        runs.push((l.secs("self"), wall));
        out = Some(value);
    }
    let own: Vec<f64> = runs.iter().map(|r| r.0).collect();
    let wall: Vec<f64> = runs.iter().map(|r| r.1).collect();
    (
        out.expect("at least one run"),
        measure::median(&own),
        measure::median(&wall),
    )
}

/// The server calls `build_tasks` on every job before any cache lookup;
/// for a suite template that regenerates the suite, prove-gated
/// mutants included. Neither has a span inside the server, so each
/// template's cost is measured here, in this process.
fn build_cost(t: &Template) -> Result<BuildCost, String> {
    let (built, _, build_s) = timed(|| build_tasks(&t.request.tasks));
    built?;
    let mut cost = BuildCost {
        build_s,
        ..BuildCost::default()
    };
    if let TaskSetRef::Suite {
        families,
        per_family,
        seed,
        depth,
        width,
        mutations,
    } = &t.request.tasks
    {
        let cfg = fveval_gen::SuiteConfig {
            families: families.clone(),
            per_family: *per_family,
            seed: *seed,
            depth: *depth,
            width: *width,
            mutations: *mutations,
        };
        let (suite, generate_s, _) = timed(|| fveval_gen::generate_suite(&cfg));
        cost.generate_s = generate_s;
        cost.candidates = suite.candidate_count() as u64;
        cost.mutants = suite
            .scenarios
            .iter()
            .flat_map(|s| &s.candidates)
            .filter(|c| c.mutation.is_some())
            .count() as u64;
        cost.requested_mutants = (suite.scenarios.len() * mutations) as u64;
    }
    Ok(cost)
}

/// Books the task building of every served job: each template's cost
/// times the jobs served on it. Returns the total build seconds.
fn charge_builds(templates: &[Template], served: &[usize], l: &mut Layers) -> Result<f64, String> {
    // Timing on, so the solver time of mutant gating is split out.
    fv_trace::set_timing_enabled(true);
    let costs: Result<Vec<BuildCost>, String> = templates.iter().map(build_cost).collect();
    fv_trace::set_timing_enabled(false);
    let mut build_s = 0.0;
    for (i, cost) in costs?.iter().enumerate() {
        let jobs = served.iter().filter(|&&s| s == i).count() as u64;
        build_s += cost.build_s * jobs as f64;
        *l.seconds.entry("fveval-gen.generate_s").or_default() += cost.generate_s * jobs as f64;
        l.count("fveval-gen.candidates", cost.candidates * jobs);
        l.count("fveval-gen.mutants", cost.mutants * jobs);
        l.count(
            "fveval-gen.requested_mutants",
            cost.requested_mutants * jobs,
        );
    }
    Ok(build_s)
}

/// The traced run: a fixed job list, per-layer figures from the
/// clients' timings and the server's `/v1/stats`, plus the task
/// building the server does per job, costed in this process.
pub fn run_traced(seed: u64, fveval: &Path, work: &Path) -> Result<TraceOutcome, String> {
    let session = open(fveval, work, seed)?;
    let client = Client::new(session.server.addr.clone());
    let measured = client.stats().and_then(|before| {
        let (log, wall) = load(
            &session.server.addr,
            &session.templates,
            seed,
            0,
            Some(TRACED_JOBS),
            0.0,
        );
        let after = client.stats()?;
        Ok((log, wall, Window { before, after }))
    });
    let mut report = Report::new();
    if let Ok((log, _, _)) = &measured {
        check(seed, &session.templates, log, &mut report);
    }
    let mut l = Layers::default();
    let build_s = match &measured {
        Ok((log, _, _)) => charge_builds(&session.templates, &log.served, &mut l),
        Err(e) => Err(e.clone()),
    };
    finish(session, &mut report);
    let (log, wall, w) = measured?;
    let build_s = build_s?;
    let count = |l: &mut Layers, name: &'static str, v: f64| l.count(name, v as u64);
    let sat_s = w.span_s("sat.solve");
    // Every solver call in the server, task building's included; the
    // engine's ProverStats count only its own checks.
    l.seconds.insert("fv-sat.solve_s", sat_s);
    count(&mut l, "fv-sat.calls", w.span_n("sat.solve"));
    count(&mut l, "fv-core.queries", w.delta(&["prover", "queries"]));
    count(
        &mut l,
        "fv-core.kills",
        w.delta(&["prover", "sim_kills"]) + w.delta(&["prover", "ternary_kills"]),
    );
    count(
        &mut l,
        "fv-core.sessions",
        w.delta(&["prover", "sessions_opened"]),
    );
    count(
        &mut l,
        "fv-core.checks",
        w.delta(&["prover", "session_checks"]),
    );
    count(
        &mut l,
        "fv-core.unroll_reuse_hits",
        w.delta(&["prover", "unroll_reuse_hits"]),
    );
    count(&mut l, "fv-core.replays", w.span_n("cex.replay"));
    count(&mut l, "sv-synth.elaborations", w.span_n("elaborate"));
    count(&mut l, "sv-synth.bind_extras", w.span_n("bind_extras"));
    count(
        &mut l,
        "fveval-core.verdict_hits",
        w.delta(&["cache", "hits"]),
    );
    count(
        &mut l,
        "fveval-core.verdict_misses",
        w.delta(&["cache", "misses"]),
    );
    count(
        &mut l,
        "fveval-core.persisted_hits",
        w.delta(&["cache", "persisted_hits"]),
    );
    count(
        &mut l,
        "fveval-core.digest_reuse",
        w.delta(&["cache", "digest_reuse"]),
    );
    let checks_s = w.span_s("prove.check") + w.span_s("equiv.check");
    l.seconds
        .insert("fv-core.check_s", (checks_s - sat_s).max(0.0));
    l.seconds.insert(
        "fv-core.open_s",
        w.span_s("session.open") + w.span_s("equiv.open"),
    );
    l.seconds.insert("fv-core.replay_s", w.span_s("cex.replay"));
    l.seconds
        .insert("sv-synth.elaborate_s", w.span_s("elaborate"));
    l.seconds
        .insert("sv-synth.bind_extras_s", w.span_s("bind_extras"));
    let check_buckets = w.buckets(&["prove.check", "equiv.check"]);
    let n_checks: f64 = check_buckets.iter().map(|b| b.1).sum();
    let tail_p = measure::tail_percentile(n_checks as usize).unwrap_or(100.0);

    let jobs = log.latency_ms.len() as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let job_s = w.span_s("serve.job");
    let job_ms = job_s * 1e3 / w.span_n("serve.job").max(1.0);
    let build_share = if job_s > 0.0 { build_s / job_s } else { 0.0 };
    // Reuse is counted by the engine only, so its ratio takes the
    // engine's solver calls as base, not the server-wide span count.
    let warm_ratio =
        w.delta(&["prover", "solver_reuse_hits"]) / w.delta(&["prover", "sat_calls"]).max(1.0);
    let serve = [
        ("fv-sat.warm_ratio", warm_ratio),
        (
            "fveval-serve.preloaded",
            num(&w.after, &["store", "preloaded"]),
        ),
        ("fveval-serve.submit_ms", measure::median(&log.submit_ms)),
        ("fveval-serve.stats_ms", measure::median(&log.stats_ms)),
        ("fveval-serve.queue_wait_ms", measure::median(&log.queue_ms)),
        ("fveval-serve.job_ms", job_ms),
        ("fveval-serve.build_s", build_s),
        ("fveval-serve.build_share", build_share),
        (
            "fveval-serve.notify_ms",
            mean(&log.latency_ms) - mean(&log.queue_ms) - job_ms,
        ),
        ("fveval-serve.refused", log.refused as f64),
        ("fveval-serve.flush_s", w.span_s("store.flush")),
        (
            "fveval-serve.compactions",
            w.delta(&["store", "compactions"]),
        ),
        (
            "fv-core.check_p50_us",
            bucket_percentile(&check_buckets, 50.0),
        ),
        (
            "fv-core.check_tail_us",
            bucket_percentile(&check_buckets, tail_p),
        ),
    ];
    let (persisted, memory, fresh) = shares(&w);
    report.note(format!(
        "{jobs} jobs in {wall:.3} s; units: {persisted:.4} persisted, {memory:.4} in-memory, \
         {fresh:.4} fresh; server job time {job_s:.3} s, of it task building {build_s:.3} s; \
         server solver {sat_s:.3} s over {} calls; check percentiles from log2 buckets \
         (tail = p{tail_p})",
        w.span_n("sat.solve")
    ));
    Ok(TraceOutcome {
        report,
        layers: l,
        wall,
        // The server records its span histograms in production anyway
        // and the clients time every call in both runs, so the traced
        // run adds no instrumentation to the serving path.
        overhead: 1.0,
        extra: serve.to_vec(),
    })
}
