//! Portfolio determinism at the reporting surface: every table and
//! note the harness emits must be byte-identical whether candidates
//! are scored by the bounded BMC + k-induction schedule alone or by
//! the portfolio (bounded, then PDR on what bounded leaves
//! `Undetermined`), and invariant under the worker count. The
//! portfolio runs on one thread per check in a fixed order, so its
//! `prover_stats` counters are jobs-invariant too.

use fv_core::ProverStats;
use fveval_core::EvalEngine;
use fveval_gen::SuiteConfig;
use fveval_harness::gen_report;

fn engine_with(prove_engine: fv_core::ProveEngine, jobs: usize) -> EvalEngine {
    let cfg = fv_core::ProveConfig {
        engine: prove_engine,
    };
    EvalEngine::with_jobs(jobs).with_prove_config(cfg)
}

/// One full generated-workload report (validation table + notes, which
/// embed the greedy eval summary) rendered to its final text, with the
/// engine's prover counters for the run.
fn report(prove_engine: fv_core::ProveEngine, jobs: usize) -> (String, ProverStats) {
    let cfg = SuiteConfig {
        per_family: 1,
        seed: 0x5EED,
        ..SuiteConfig::default()
    };
    let engine = engine_with(prove_engine, jobs);
    let (table, notes, _suite, errors) = gen_report(&engine, &cfg, true).expect("suite binds");
    assert_eq!(errors, 0, "golden verdicts must confirm:\n{notes}");
    (
        format!("{}\n{notes}", table.to_markdown()),
        engine.prover_stats(),
    )
}

#[test]
fn reported_tables_are_engine_and_jobs_invariant() {
    use fv_core::ProveEngine::{Bounded, Portfolio};
    let (baseline, _) = report(Bounded, 1);
    let (serial, serial_stats) = report(Portfolio, 1);
    let (parallel, parallel_stats) = report(Portfolio, 4);
    assert_eq!(baseline, serial, "the portfolio changed a reported table");
    assert_eq!(
        baseline, parallel,
        "worker count changed a reported table under the portfolio"
    );
    assert_eq!(
        serial_stats, parallel_stats,
        "worker count changed the portfolio's prover counters"
    );
}
