//! The `design_session` group: compile-once / score-many Design2SVA at
//! Table-5 scale.
//!
//! The paper evaluates up to 10 samples × 8 models against each design,
//! so the same testbench is scored dozens of times. These benches pit
//! the pre-session architecture (re-elaborate the world and open a
//! fresh prover per response) against the `CompiledDesign` +
//! `ProofSession` spine (one elaboration, one shared unrolled formula
//! and solver per design) on identical response streams:
//!
//! - `fresh_per_sample_table5_scale` — the old per-response cost: a
//!   whole-file compile (`compile_design`) and a fresh prover for
//!   every sample.
//! - `session_per_design_table5_scale` — `compile_design` once per
//!   design, every sample streamed through one `Scorer::design`
//!   scorer.
//! - `engine_multi_sample_table5_scale` — the full `EvalEngine` path
//!   (inference + sessions + caches) over the same work-list.

use criterion::{criterion_group, criterion_main, Criterion};
use fv_core::ProveConfig;
use fveval_core::{compile_design, design_task_specs, EvalEngine, Scorer};
use fveval_data::{fsm_sweep, pipeline_sweep, DesignCase};
use fveval_llm::{profiles, Backend, InferenceConfig, Request, TaskSpec};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Samples per (model, design) — quick-mode Table 5.
const SAMPLES: u32 = 6;

/// Table-5-scale cases: both design categories.
fn cases() -> Vec<DesignCase> {
    let mut cases = pipeline_sweep(4, 0x5E55);
    cases.extend(fsm_sweep(4, 0x5E56));
    cases
}

/// Materializes every model response for one design, in the exact
/// stream order the engine scores them (models in roster order, sample
/// indices ascending).
fn responses_for(case: &DesignCase) -> Vec<String> {
    let task = Arc::new(TaskSpec::Design2sva { case: case.clone() });
    let cfg = InferenceConfig::sampling();
    let models = profiles();
    let mut responses = Vec::new();
    for model in models.iter().filter(|m| m.profile().supports_design2sva) {
        for sample_idx in 0..SAMPLES {
            responses.push(model.generate(&Request {
                task: Arc::clone(&task),
                cfg,
                sample_idx,
            }));
        }
    }
    responses
}

fn bench_design_session(c: &mut Criterion) {
    let mut g = c.benchmark_group("design_session");
    g.sample_size(10).measurement_time(Duration::from_secs(20));

    let cases = cases();
    let streams: Vec<Vec<String>> = cases.iter().map(responses_for).collect();
    let cfg = ProveConfig::default();

    // Sanity: both architectures agree on every verdict (also keeps
    // the compiler from eliding the work).
    for (case, stream) in cases.iter().zip(&streams) {
        let compiled = compile_design(case).unwrap();
        let mut scorer = Scorer::design(&compiled, cfg);
        for response in stream {
            assert_eq!(
                scorer.score(response).0,
                Scorer::design(&compiled, cfg).score(response).0,
                "session and one-shot verdicts must agree"
            );
        }
    }

    // Pre-session architecture: every sample re-elaborates and opens a
    // fresh prover (a scorer compiles nothing, so the per-response
    // `compile_design` reproduces the old elaborate-per-response cost
    // exactly).
    g.bench_function("fresh_per_sample_table5_scale", |b| {
        b.iter(|| {
            let mut proven = 0usize;
            for (case, stream) in cases.iter().zip(&streams) {
                for response in stream {
                    let compiled = compile_design(case).unwrap();
                    if Scorer::design(&compiled, cfg).score(response).0.func {
                        proven += 1;
                    }
                }
            }
            black_box(proven)
        })
    });

    // Compiled-design sessions: one elaboration + one proof context per
    // design, shared by the whole response stream.
    g.bench_function("session_per_design_table5_scale", |b| {
        b.iter(|| {
            let mut proven = 0usize;
            for (case, stream) in cases.iter().zip(&streams) {
                let compiled = compile_design(case).unwrap();
                let mut scorer = Scorer::design(&compiled, cfg);
                for response in stream {
                    if scorer.score(response).0.func {
                        proven += 1;
                    }
                }
            }
            black_box(proven)
        })
    });

    // The full engine path over the same work-list (inference included;
    // a fresh engine per iteration so the verdict cache cannot hide the
    // scoring cost).
    let tasks = design_task_specs(&cases);
    let models = profiles();
    let backends: Vec<&dyn Backend> = models
        .iter()
        .filter(|m| m.profile().supports_design2sva)
        .map(|m| m as &dyn Backend)
        .collect();
    let cfg = InferenceConfig::sampling();
    g.bench_function("engine_multi_sample_table5_scale", |b| {
        b.iter(|| {
            let engine = EvalEngine::with_jobs(1);
            black_box(engine.run_matrix(&backends, &tasks, &cfg, SAMPLES))
        })
    });

    g.finish();
}

criterion_group!(benches, bench_design_session);
criterion_main!(benches);
