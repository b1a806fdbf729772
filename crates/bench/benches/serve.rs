//! The serving layer under the microscope: cold versus warm-store
//! evaluation at Table-4 scale, persistent-store load time at 10k
//! entries, request round-trip latency against a live server, and the
//! saturation behaviour of the sharded event loop under the seeded
//! load generator (`--shards 1` versus `--shards 4`).

use criterion::{criterion_group, criterion_main, Criterion};
use fveval_core::{machine_task_specs, EvalEngine, SampleEval, VerdictRecord};
use fveval_data::{generate_machine_cases, machine_signal_table, MachineGenConfig};
use fveval_llm::{profiles, Backend, InferenceConfig};
use fveval_serve::testutil::{run_load, LoadConfig, TempDir};
use fveval_serve::{Client, EvalRequest, Server, ServerConfig, TaskSetRef, VerdictStore};
use std::hint::black_box;
use std::time::Duration;

/// Cold vs warm-store Table-4-scale eval: 3 models x 60 machine cases
/// x 5 samples. The cold arm computes everything; the warm arm is
/// preloaded from a store built by an identical prior run, so every
/// lookup is a persisted hit and no inference or prover work happens.
fn bench_cold_vs_warm(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");
    g.sample_size(10).measurement_time(Duration::from_secs(20));

    let cases = generate_machine_cases(MachineGenConfig {
        count: 60,
        seed: 0xBE7C,
        ..Default::default()
    });
    let tasks = machine_task_specs(&cases, &machine_signal_table());
    let models = profiles();
    let backends: Vec<&dyn Backend> = models[..3].iter().map(|m| m as &dyn Backend).collect();
    let cfg = InferenceConfig::sampling().with_shots(3);

    // One prior run fills the store the warm arm loads from.
    let tmp = TempDir::new("bench-warm");
    let seeder = EvalEngine::with_jobs(1);
    seeder.run_matrix(&backends, &tasks, &cfg, 5);
    let mut store = VerdictStore::open(tmp.path()).expect("store opens");
    store
        .append(&seeder.take_unpersisted())
        .expect("store writes");
    let records = store.load().expect("store reads");
    assert_eq!(records.len(), 3 * 60 * 5);

    g.bench_function("table4_scale_cold", |b| {
        b.iter(|| {
            let engine = EvalEngine::with_jobs(1);
            black_box(engine.run_matrix(&backends, &tasks, &cfg, 5))
        })
    });
    g.bench_function("table4_scale_warm_store", |b| {
        b.iter(|| {
            let engine = EvalEngine::with_jobs(1);
            engine.load_verdicts(records.iter().cloned());
            let out = engine.run_matrix(&backends, &tasks, &cfg, 5);
            assert_eq!(engine.cache_stats().misses, 0, "fully served from store");
            black_box(out)
        })
    });
    g.finish();
}

/// Store load time at 10k entries: open + load of one compacted
/// 10k-record segment, parsed and sorted (the server's startup read).
fn bench_store_load(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");
    g.sample_size(10).measurement_time(Duration::from_secs(10));

    let tmp = TempDir::new("bench-load");
    let records: Vec<VerdictRecord> = (0..10_000)
        .map(|i: u64| VerdictRecord {
            model: format!("model-{}", i % 8),
            task_id: format!("nl2sva_machine_{:04}", i % 300),
            digest: 0x9E3779B97F4A7C15u64.wrapping_mul(i + 1),
            cfg: format!("t3fe999999999999a_n{}_s0", i % 4),
            sample: (i / 2400) as u32,
            eval: SampleEval {
                syntax: true,
                func: i.is_multiple_of(3),
                partial: i.is_multiple_of(2),
                bleu: (i % 1000) as f64 / 1000.0,
            },
        })
        .collect();
    let mut store = VerdictStore::open(tmp.path()).expect("store opens");
    store.append(&records).expect("store writes");
    g.bench_function("store_load_10k_entries", |b| {
        b.iter(|| {
            let mut store = VerdictStore::open(tmp.path()).expect("store opens");
            let records = store.load().expect("store reads");
            assert_eq!(records.len(), 10_000);
            black_box(records)
        })
    });
    g.finish();
}

/// Request round-trip latency against a live server on the loopback:
/// the pure protocol cost (`/v1/stats`) and a full submit → poll →
/// result cycle for a warm-cached single-scenario job.
fn bench_round_trip(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");
    g.sample_size(10).measurement_time(Duration::from_secs(10));

    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 1,
        queue_depth: 16,
        engine_jobs: 1,
        cache_dir: None,
        ..ServerConfig::default()
    })
    .expect("server binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let client = Client::new(addr);

    g.bench_function("stats_round_trip", |b| {
        b.iter(|| black_box(client.stats().expect("stats answered")))
    });

    // Warm the engine once so the measured cycle is queue + wire + cache
    // lookups, not first-time formal work.
    let request = EvalRequest {
        tasks: TaskSetRef::Suite {
            families: vec!["gray".to_string()],
            per_family: 1,
            seed: 3,
            depth: None,
            width: None,
            mutations: 0,
        },
        models: vec!["gpt-4o".to_string()],
        cfg: InferenceConfig::greedy(),
        samples: 1,
    };
    let id = client.submit(&request).expect("submit");
    client
        .wait(id, Duration::from_secs(120))
        .expect("warmup completes");
    g.bench_function("submit_poll_result_warm", |b| {
        b.iter(|| {
            let id = client.submit(&request).expect("submit");
            let view = client
                .wait(id, Duration::from_secs(120))
                .expect("job completes");
            black_box(view)
        })
    });
    g.finish();

    client.shutdown().expect("shutdown");
    handle.join().unwrap().expect("clean exit");
}

/// Saturation throughput of the sharded event loop: the seeded load
/// generator fans 4 concurrent clients of mixed submit/long-poll/stats
/// traffic (no think time) at a 1-shard and a 4-shard server and
/// measures completed jobs per second. On a multicore host throughput
/// scales with the shard count for prover-bound traffic; on a single
/// hardware thread the arms collapse to the same number — the
/// byte-identity of the served tables is asserted either way, and the
/// per-arm p50/p99 latencies are printed for the CI log.
fn bench_saturation_shards(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");
    g.sample_size(10).measurement_time(Duration::from_secs(20));

    let templates = vec![
        EvalRequest {
            tasks: TaskSetRef::Machine { count: 4, seed: 21 },
            models: vec!["gpt-4o".to_string()],
            cfg: InferenceConfig::greedy(),
            samples: 1,
        },
        EvalRequest {
            tasks: TaskSetRef::Machine { count: 4, seed: 22 },
            models: vec!["gemini-1.5-flash".to_string()],
            cfg: InferenceConfig::greedy(),
            samples: 1,
        },
        EvalRequest {
            tasks: TaskSetRef::Machine { count: 4, seed: 23 },
            models: vec!["llama-3.1-70b".to_string()],
            cfg: InferenceConfig::greedy(),
            samples: 1,
        },
        EvalRequest {
            tasks: TaskSetRef::Machine { count: 4, seed: 24 },
            models: vec!["gpt-4o".to_string(), "gemini-1.5-flash".to_string()],
            cfg: InferenceConfig::greedy(),
            samples: 1,
        },
    ];

    let mut digests: Vec<(usize, String)> = Vec::new();
    for shards in [1usize, 4] {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards,
            queue_depth: 16,
            engine_jobs: 1,
            cache_dir: None,
            ..ServerConfig::default()
        })
        .expect("server binds");
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        // One un-timed pass reports the latency profile and collects
        // the served bytes for the cross-shard identity check.
        let probe = run_load(
            &addr,
            &LoadConfig::saturating(0x10AD, 4, 2, templates.clone()),
        )
        .expect("probe load run");
        eprintln!(
            "[serve bench] shards={shards}: {:.2} jobs/s, p50={} ms, p99={} ms, \
             backpressure={}, progress_frames={}",
            probe.throughput_jobs_per_sec,
            probe.p50_latency_ms,
            probe.p99_latency_ms,
            probe.backpressure_hits,
            probe.progress_frames,
        );
        digests.push((shards, probe.results_digest()));
        g.bench_function(format!("saturation_shards_{shards}"), |b| {
            b.iter(|| {
                let cfg = LoadConfig::saturating(7, 4, 2, templates.clone());
                let report = run_load(&addr, &cfg).expect("load run");
                assert_eq!(report.completed, 8, "every job completed");
                black_box(report)
            })
        });
        Client::new(addr).shutdown().expect("shutdown");
        handle.join().unwrap().expect("clean exit");
    }
    let (_, ref one) = digests[0];
    let (_, ref four) = digests[1];
    assert_eq!(one, four, "shards 1 vs 4 serve byte-identical tables");
    g.finish();
}

criterion_group!(
    benches,
    bench_cold_vs_warm,
    bench_store_load,
    bench_round_trip,
    bench_saturation_shards
);
criterion_main!(benches);
