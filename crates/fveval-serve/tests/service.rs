//! End-to-end service tests: concurrent clients against a live sharded
//! server are answered byte-identically to a direct `EvalEngine` run
//! (and identically across shard counts), a killed + restarted server
//! re-serves warm work entirely from the persistent verdict store with
//! zero prover calls, task sets routed to different shards share one
//! engine's verdicts, full shard queues push back with `429` +
//! `Retry-After`, long-polls stream per-case progress and answer as
//! soon as their job moves, oversized requests are refused without
//! harm to the server, and the per-shard traffic rows sum to the job
//! totals.

use fveval_core::{CaseEvals, EvalEngine};
use fveval_llm::{Backend, InferenceConfig};
use fveval_serve::json::Json;
use fveval_serve::testutil::{run_load, LoadConfig, TempDir};
use fveval_serve::{
    build_tasks, resolve_backends, Client, EvalRequest, Server, ServerConfig, SubmitOutcome,
    TaskSetRef,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(120);

fn start(cache_dir: Option<PathBuf>) -> (Client, std::thread::JoinHandle<Result<(), String>>) {
    start_sharded(2, 16, cache_dir)
}

fn start_sharded(
    shards: usize,
    queue_depth: usize,
    cache_dir: Option<PathBuf>,
) -> (Client, std::thread::JoinHandle<Result<(), String>>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards,
        queue_depth,
        engine_jobs: 2,
        cache_dir,
        ..ServerConfig::default()
    })
    .expect("server binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (Client::new(addr), handle)
}

fn suite_request() -> EvalRequest {
    EvalRequest {
        tasks: TaskSetRef::Suite {
            families: vec!["fifo".to_string(), "gray".to_string()],
            per_family: 1,
            seed: 11,
            depth: None,
            width: None,
            mutations: 1,
        },
        models: vec!["gpt-4o".to_string(), "llama-3.1-70b".to_string()],
        cfg: InferenceConfig::greedy(),
        samples: 2,
    }
}

/// What a direct (no server) engine run produces for a request.
fn direct_rows(request: &EvalRequest) -> Vec<(String, Vec<CaseEvals>)> {
    let tasks = build_tasks(&request.tasks).expect("tasks build");
    let models = resolve_backends(&request.models).expect("models resolve");
    let backends: Vec<&dyn Backend> = models.iter().map(|m| m as &dyn Backend).collect();
    let rows =
        EvalEngine::with_jobs(2).run_matrix(&backends, &tasks, &request.cfg, request.samples);
    models
        .iter()
        .map(|m| m.name().to_string())
        .zip(rows)
        .collect()
}

#[test]
fn concurrent_clients_get_direct_engine_results() {
    let (client, server) = start(None);
    let suite = suite_request();
    let machine = EvalRequest {
        tasks: TaskSetRef::Machine { count: 8, seed: 5 },
        models: vec!["gpt-4o".to_string()],
        cfg: InferenceConfig::sampling().with_shots(3),
        samples: 3,
    };
    // Three clients race: two submit the same suite eval, one submits
    // a different machine eval, all poll concurrently.
    let requests = [suite.clone(), suite.clone(), machine.clone()];
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|request| {
                let client = client.clone();
                scope.spawn(move || {
                    let id = client.submit(&request.clone())?;
                    let view = client.wait(id, WAIT)?;
                    view.result.ok_or_else(|| "done without result".to_string())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    client.shutdown().expect("shutdown accepted");
    server.join().unwrap().expect("clean server exit");

    let suite_expected = direct_rows(&suite);
    let machine_expected = direct_rows(&machine);
    for (i, result) in results.iter().enumerate() {
        let result = result.as_ref().expect("job succeeded");
        let expected = if i < 2 {
            &suite_expected
        } else {
            &machine_expected
        };
        assert_eq!(&result.models, expected, "client {i} matches a direct run");
    }
}

#[test]
fn restart_serves_warm_work_from_store_with_zero_prover_calls() {
    let tmp = TempDir::new("restart");
    let request = suite_request();

    // Cold server: compute, persist, stop. The worker flushes the
    // store once per finished job, inside a `store.flush` span, before
    // it marks the job done; this is the one test in the binary with a
    // store, so the process-wide span histogram counts exactly its
    // flushes.
    let (client, server) = start(Some(tmp.path().to_path_buf()));
    let flushes_before = store_flushes(&client);
    let id = client.submit(&request).expect("submit");
    let cold = client.wait(id, WAIT).expect("cold job").result.unwrap();
    assert_eq!(
        store_flushes(&client),
        flushes_before + 1,
        "one flush per job"
    );
    let stats = client.stats().expect("stats");
    let prover_queries = stats
        .get("prover")
        .and_then(|p| p.get("queries"))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(prover_queries > 0, "cold run reaches the prover");
    assert_eq!(
        stats
            .get("cache")
            .and_then(|c| c.get("persisted_hits"))
            .and_then(|v| v.as_u64()),
        Some(0),
        "nothing was persisted before the cold run"
    );
    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("clean exit");

    // Warm server on the same store: identical verdicts, all lookups
    // answered from persisted entries, zero prover calls.
    let (client, server) = start(Some(tmp.path().to_path_buf()));
    let id = client.submit(&request).expect("warm submit");
    let warm = client.wait(id, WAIT).expect("warm job").result.unwrap();
    assert_eq!(warm, cold, "restart changes nothing");
    assert_eq!(
        store_flushes(&client),
        flushes_before + 2,
        "one flush per job"
    );
    let stats = client.stats().expect("warm stats");
    let cache = stats.get("cache").unwrap();
    let rate = cache
        .get("persisted_hit_rate")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(rate >= 0.9, "warm run is served from the store ({rate})");
    assert_eq!(
        cache.get("misses").and_then(|v| v.as_u64()),
        Some(0),
        "nothing is recomputed"
    );
    assert_eq!(
        stats
            .get("prover")
            .and_then(|p| p.get("queries"))
            .and_then(|v| v.as_u64()),
        Some(0),
        "zero SAT/sim/ternary work on the warm path"
    );
    // The store is preloaded once, into the one engine: the engine
    // holds each stored verdict once, whatever the shard count.
    let store = stats.get("store").unwrap();
    let preloaded = store.get("preloaded").and_then(|v| v.as_u64()).unwrap();
    assert!(preloaded > 0);
    assert_eq!(
        cache.get("entries").and_then(|v| v.as_u64()),
        Some(preloaded)
    );
    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("clean exit");
}

#[test]
fn overlapping_task_sets_on_different_shards_share_verdicts() {
    let (client, server) = start(None);
    let machine = |count| EvalRequest {
        tasks: TaskSetRef::Machine { count, seed: 0 },
        models: vec!["gpt-4o".to_string()],
        cfg: InferenceConfig::greedy(),
        samples: 1,
    };
    // The 3-case set extends the 2-case one: its first two cases are
    // the same tasks, so their verdicts are already in the engine.
    let (small, large) = (machine(2), machine(3));
    let mut shards = Vec::new();
    let mut results = Vec::new();
    for request in [&small, &large] {
        let SubmitOutcome::Accepted { job, shard } = client.try_submit(request).expect("submit")
        else {
            panic!("an idle server accepts the job");
        };
        shards.push(shard);
        results.push(
            client
                .wait(job, WAIT)
                .expect("job finishes")
                .result
                .unwrap(),
        );
    }
    assert_ne!(
        shards[0], shards[1],
        "the two sets route to different shards"
    );
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").unwrap();
    let count = |key: &str| cache.get(key).and_then(Json::as_u64);
    assert_eq!(count("misses"), Some(3), "each case is scored once");
    assert_eq!(count("hits"), Some(2), "the shared cases hit across shards");
    assert_eq!(results[0].models, direct_rows(&small));
    assert_eq!(results[1].models, direct_rows(&large));
    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("clean exit");
}

#[test]
fn shutdown_drains_in_flight_jobs_and_their_results_stay_reachable() {
    let (client, server) = start(None);
    let id = client.submit(&suite_request()).expect("submit");
    // Stop while the job is still in flight.
    client.shutdown().expect("shutdown accepted");
    // New submissions are rejected during the drain…
    let err = client.submit(&suite_request()).unwrap_err();
    assert!(
        err.contains("503") || err.contains("draining"),
        "drain rejects new work: {err}"
    );
    // …but polls keep being served until the queue empties, so the
    // in-flight job's result is still collectable.
    let view = client.wait(id, WAIT).expect("drained job completes");
    assert!(view.result.is_some());
    server.join().unwrap().expect("clean exit");
}

#[test]
fn bad_requests_are_rejected_and_jobs_are_addressable() {
    let (client, server) = start(None);
    // Unknown model and unknown family are rejected at submit time.
    let mut bad_model = suite_request();
    bad_model.models = vec!["gpt-17".to_string()];
    let err = client.submit(&bad_model).unwrap_err();
    assert!(err.contains("unknown model"), "{err}");
    let bad_family = EvalRequest {
        tasks: TaskSetRef::Suite {
            families: vec!["nonexistent".to_string()],
            per_family: 1,
            seed: 1,
            depth: None,
            width: None,
            mutations: 0,
        },
        ..suite_request()
    };
    let err = client.submit(&bad_family).unwrap_err();
    assert!(err.contains("unknown family"), "{err}");
    // Unknown job ids are a 404, not a hang.
    let err = client.job(123456).unwrap_err();
    assert!(err.contains("404"), "{err}");
    // A tiny real job still runs to completion on the same server.
    let small = EvalRequest {
        tasks: TaskSetRef::Machine { count: 2, seed: 1 },
        models: vec!["gpt-4o".to_string()],
        cfg: InferenceConfig::greedy(),
        samples: 1,
    };
    let id = client.submit(&small).expect("submit");
    let view = client.wait(id, WAIT).expect("completes");
    assert_eq!(view.result.unwrap().models[0].1.len(), 2);
    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("clean exit");
}

#[test]
fn retention_bound_is_configurable_and_rejects_zero() {
    // `retain_finished: 0` is a configuration error, not a silent
    // result-eating server.
    let err = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        retain_finished: 0,
        ..ServerConfig::default()
    })
    .unwrap_err();
    assert!(err.contains("retain"), "{err}");

    // With `retain_finished: 1`, finishing a second job evicts the
    // first result (404) while the newest stays addressable.
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 1,
        queue_depth: 16,
        engine_jobs: 1,
        cache_dir: None,
        retain_finished: 1,
        prove_cfg: fv_core::ProveConfig::default(),
    })
    .expect("server binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let client = Client::new(addr);
    let small = |seed| EvalRequest {
        tasks: TaskSetRef::Machine { count: 2, seed },
        models: vec!["gpt-4o".to_string()],
        cfg: InferenceConfig::greedy(),
        samples: 1,
    };
    let first = client.submit(&small(1)).expect("submit");
    client.wait(first, WAIT).expect("first completes");
    let second = client.submit(&small(2)).expect("submit");
    client.wait(second, WAIT).expect("second completes");
    let err = client.job(first).unwrap_err();
    assert!(err.contains("404"), "evicted result answers 404: {err}");
    assert!(client.job(second).expect("retained").result.is_some());
    client.shutdown().expect("shutdown");
    handle.join().unwrap().expect("clean exit");
}

#[test]
fn full_shard_queue_answers_429_and_recovers_after_drain() {
    // One shard, bound 1: the first job occupies the only slot, so the
    // second submit must bounce with a retry hint — deterministically.
    let (client, server) = start_sharded(1, 1, None);
    let first = match client.try_submit(&suite_request()).expect("first submit") {
        SubmitOutcome::Accepted { job, shard } => {
            assert_eq!(shard, Some(0), "one shard routes everything to 0");
            job
        }
        SubmitOutcome::Busy { .. } => panic!("an empty shard accepted nothing"),
    };
    let small = EvalRequest {
        tasks: TaskSetRef::Machine { count: 2, seed: 3 },
        models: vec!["gpt-4o".to_string()],
        cfg: InferenceConfig::greedy(),
        samples: 1,
    };
    match client.try_submit(&small).expect("second submit") {
        SubmitOutcome::Busy { retry_after_ms } => {
            assert!(
                retry_after_ms >= 50,
                "hint honors its floor: {retry_after_ms}"
            )
        }
        SubmitOutcome::Accepted { .. } => panic!("a full shard queue accepted a job"),
    }
    // A plain submit surfaces the same rejection as an HTTP 429 error.
    let err = client.submit(&small).unwrap_err();
    assert!(err.contains("429"), "{err}");
    // Once the occupying job drains, the retried submit is accepted.
    client.wait(first, WAIT).expect("first job completes");
    let id = client
        .submit_retrying(&small, WAIT)
        .expect("accepted after drain");
    client.wait(id, WAIT).expect("second job completes");
    let stats = client.stats().expect("stats");
    let rejected = stats
        .get("jobs")
        .and_then(|j| j.get("rejected"))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(rejected >= 2, "both bounces are counted: {rejected}");
    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("clean exit");
}

#[test]
fn long_polls_stream_progress_and_finish_with_full_counts() {
    let (client, server) = start(None);
    let request = suite_request();
    let id = client.submit(&request).expect("submit");
    // Long-poll to completion, recording every progress frame. Each
    // frame must be monotone in cases_done and bounded by cases_total.
    let mut frames: Vec<(u64, u64)> = Vec::new();
    let view = loop {
        let view = client.job_wait(id, 2_000).expect("long-poll");
        frames.push((view.cases_done, view.cases_total));
        match view.state {
            fveval_serve::JobState::Done => break view,
            fveval_serve::JobState::Failed => panic!("job failed: {:?}", view.error),
            _ => assert!(frames.len() < 10_000, "long-poll never settles"),
        }
    };
    for pair in frames.windows(2) {
        assert!(pair[0].0 <= pair[1].0, "progress is monotone: {frames:?}");
    }
    for &(done, total) in &frames {
        assert!(total == 0 || done <= total, "done within total: {frames:?}");
    }
    let total = view.cases_total;
    assert!(total > 0, "a finished job knows its case count");
    assert_eq!(view.cases_done, total, "finished jobs report full progress");
    assert!(view.shard.is_some(), "finished frames name their shard");
    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("clean exit");
}

#[test]
fn long_polls_answer_when_the_job_moves_not_on_the_event_loop_tick() {
    // The event loop's idle tick (`TICK_MS` in the server).
    const TICK: Duration = Duration::from_millis(25);
    // One shard with one engine worker: the job's cases settle one at
    // a time, and each settled case moves the job.
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 1,
        engine_jobs: 1,
        ..ServerConfig::default()
    })
    .expect("server binds");
    let client = Client::new(server.local_addr().to_string());
    let server = std::thread::spawn(move || server.run());
    // A cold job that runs for many ticks, so the loop below parks a
    // long-poll on a running job many times over.
    let request = EvalRequest {
        tasks: TaskSetRef::Machine {
            count: 2_000,
            seed: 1,
        },
        models: vec!["gpt-4o".to_string()],
        cfg: InferenceConfig::greedy(),
        samples: 1,
    };
    let id = client.submit(&request).expect("submit");
    let mut polls = Vec::new();
    loop {
        let started = Instant::now();
        let view = client.job_wait(id, 10_000).expect("long-poll");
        polls.push(started.elapsed());
        match view.state {
            fveval_serve::JobState::Done => break,
            fveval_serve::JobState::Failed => panic!("job failed: {:?}", view.error),
            _ => {}
        }
    }
    polls.sort();
    let median = polls[polls.len() / 2];
    assert!(
        median < TICK,
        "median long-poll of {} took {median:?}, not below the {TICK:?} tick",
        polls.len()
    );
    // Task building is timed under its own span.
    let stats = client.stats().expect("stats");
    let build = stats
        .get("hist")
        .and_then(|hist| hist.get("span.serve.build.us"))
        .expect("serve.build histogram");
    assert!(build.get("count").and_then(Json::as_u64).unwrap() >= 1);
    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("clean exit");
}

#[test]
fn oversized_requests_get_400_and_the_server_keeps_serving() {
    let (client, server) = start_sharded(1, 16, None);
    // A 2^40-case machine set. Were it accepted, the shard worker's
    // allocation for it would abort the whole process.
    let huge = EvalRequest {
        tasks: TaskSetRef::Machine {
            count: 1 << 40,
            seed: 1,
        },
        models: vec!["gpt-4o".to_string()],
        cfg: InferenceConfig::greedy(),
        samples: 1,
    };
    let err = client.submit(&huge).unwrap_err();
    assert!(err.contains("HTTP 400"), "{err}");
    assert!(err.contains("'count'") && err.contains("10000"), "{err}");
    let small = EvalRequest {
        tasks: TaskSetRef::Machine { count: 2, seed: 1 },
        ..huge
    };
    let id = client.submit(&small).expect("submit");
    let view = client.wait(id, WAIT).expect("completes");
    assert_eq!(view.result.unwrap().models[0].1.len(), 2);
    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("clean exit");
}

#[test]
fn shard_counts_do_not_change_served_bytes() {
    // The same request set against 1-shard and 4-shard servers must
    // produce byte-identical result tables (routing is an affinity
    // optimization, never a semantic one).
    let templates = vec![
        suite_request(),
        EvalRequest {
            tasks: TaskSetRef::Machine { count: 4, seed: 9 },
            models: vec!["gpt-4o".to_string(), "gemini-1.5-flash".to_string()],
            cfg: InferenceConfig::greedy(),
            samples: 1,
        },
    ];
    let mut digests = Vec::new();
    for shards in [1usize, 4] {
        let (client, server) = start_sharded(shards, 16, None);
        let cfg = LoadConfig::saturating(42, 3, 2, templates.clone());
        let report = run_load(client.addr(), &cfg).expect("load run");
        assert_eq!(report.completed, 6, "every submitted job completed");
        assert!(
            report.results.iter().all(Option::is_some),
            "the seeded schedule drew every template"
        );
        digests.push(report.results_digest());
        client.shutdown().expect("shutdown");
        server.join().unwrap().expect("clean exit");
    }
    assert_eq!(
        digests[0], digests[1],
        "shards 1 vs 4 serve identical bytes"
    );
}

#[test]
fn per_shard_stats_sum_to_the_aggregate_totals() {
    let (client, server) = start_sharded(4, 16, None);
    let templates = vec![
        EvalRequest {
            tasks: TaskSetRef::Machine { count: 2, seed: 1 },
            models: vec!["gpt-4o".to_string()],
            cfg: InferenceConfig::greedy(),
            samples: 1,
        },
        EvalRequest {
            tasks: TaskSetRef::Machine { count: 2, seed: 2 },
            models: vec!["gpt-4o".to_string()],
            cfg: InferenceConfig::greedy(),
            samples: 1,
        },
        EvalRequest {
            tasks: TaskSetRef::Machine { count: 3, seed: 3 },
            models: vec!["gemini-1.5-flash".to_string()],
            cfg: InferenceConfig::greedy(),
            samples: 1,
        },
    ];
    let cfg = LoadConfig::saturating(7, 2, 3, templates);
    run_load(client.addr(), &cfg).expect("load run");
    let stats = client.stats().expect("stats");
    let shards = match stats.get("shards").unwrap() {
        Json::Obj(members) => members,
        other => panic!("per-shard stats must be an object, got {}", other.encode()),
    };
    assert_eq!(shards.len(), 4, "one row per shard");
    let sum = |field: &str| -> u64 {
        shards
            .iter()
            .map(|(_, row)| row.get(field).and_then(|v| v.as_u64()).unwrap())
            .sum()
    };
    let jobs = stats.get("jobs").unwrap();
    let aggregate = |field: &str| jobs.get(field).and_then(|v| v.as_u64()).unwrap();
    assert_eq!(sum("accepted"), aggregate("submitted"));
    assert_eq!(sum("served"), aggregate("done"));
    assert_eq!(sum("failed"), aggregate("failed"));
    assert_eq!(sum("rejected"), aggregate("rejected"));
    assert_eq!(sum("depth"), aggregate("queued"));
    assert_eq!(sum("in_flight"), aggregate("running"));
    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("clean exit");
}

/// The value of an unlabeled series in a Prometheus text exposition,
/// if the series is there.
fn prom_sample(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .filter_map(|line| {
            let (series, value) = line.split_once(' ')?;
            (series == name).then(|| value.trim().parse::<u64>().expect("integer sample"))
        })
        .next()
}

/// The value of an unlabeled series in a Prometheus text exposition.
fn prom_value(text: &str, name: &str) -> u64 {
    prom_sample(text, name).unwrap_or_else(|| panic!("metric {name} missing from exposition"))
}

/// Store flushes so far in this process: the `/metrics` count of
/// `store.flush` spans (absent before the first one).
fn store_flushes(client: &Client) -> u64 {
    let text = client.metrics().expect("metrics exposition");
    prom_sample(&text, "fveval_span_store_flush_us_count").unwrap_or(0)
}

#[test]
fn metrics_exposition_reconciles_with_stats_json() {
    let (client, server) = start_sharded(2, 16, None);
    let id = client.submit(&suite_request()).expect("submit");
    client.wait(id, WAIT).expect("job finishes");
    let stats = client.stats().expect("stats");
    let text = client.metrics().expect("metrics exposition");

    // The declared wire names are pinned: renaming a `ProverStats`
    // field must not silently rename a /v1/stats key or a /metrics
    // series.
    let declared: Vec<(&str, &str)> = fv_core::ProverStats::default()
        .counters()
        .map(|(counter, _)| (counter.group.key(), counter.key))
        .collect();
    assert_eq!(
        declared,
        [
            ("prover", "sat_calls"),
            ("prover", "solver_reuse_hits"),
            ("prover", "sim_kills"),
            ("prover", "step_sim_kills"),
            ("prover", "ternary_kills"),
            ("prover", "sessions_opened"),
            ("prover", "session_checks"),
            ("prover", "check_repeats"),
            ("prover", "unroll_reuse_hits"),
            ("cache", "digest_reuse"),
            ("prover", "pdr_frames"),
            ("prover", "pdr_clauses_learned"),
            ("prover", "pdr_wins"),
        ]
    );
    // Every declared counter (plus the derived query total) appears
    // under its group in /v1/stats and as fveval_<group>_<key>_total in
    // /metrics, with equal values: both are rendered from the same
    // engine counters, so this must be exact, not approximate.
    for (group, key) in std::iter::once(("prover", "queries")).chain(declared) {
        let expected = stats
            .get(group)
            .and_then(|block| block.get(key))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("stats.{group}.{key} missing"));
        let series = format!("fveval_{group}_{key}_total");
        assert_eq!(
            prom_value(&text, &series),
            expected,
            "{series} reconciles with stats.{group}.{key}"
        );
    }
    assert!(
        prom_value(&text, "fveval_prover_sat_calls_total") > 0,
        "the suite run performed SAT work"
    );

    let done = stats
        .get("jobs")
        .and_then(|j| j.get("done"))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert_eq!(prom_value(&text, "fveval_jobs_done_total"), done);

    // Exposition hygiene: one TYPE line per family, and the serve
    // worker's span histogram shows up once timing is enabled at bind.
    assert_eq!(
        text.matches("# TYPE fveval_prover_sat_calls_total counter")
            .count(),
        1
    );
    assert!(
        text.contains("# TYPE fveval_span_serve_job_us histogram"),
        "serve.job span durations are exported as a histogram"
    );
    assert!(
        prom_value(&text, "fveval_span_serve_job_us_count") >= 1,
        "at least one serve.job observation"
    );

    // The same registry surfaces through /v1/stats as a sorted block.
    let hist = stats.get("hist").expect("hist block");
    let job_hist = hist.get("span.serve.job.us").expect("serve.job histogram");
    assert!(job_hist.get("count").and_then(|v| v.as_u64()).unwrap() >= 1);

    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("clean exit");
}
