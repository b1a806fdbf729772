//! Portfolio determinism at the reporting surface: every table and
//! note the harness emits must be byte-identical whether candidates
//! are scored by the bounded BMC + k-induction schedule alone or by
//! the racing portfolio, and invariant under the worker count. Racing
//! detail (which engine won, cancellations) is allowed to differ only
//! in `prover_stats`, which is attribution — not results.

use fveval_core::EvalEngine;
use fveval_gen::SuiteConfig;
use fveval_harness::gen_report;

fn engine_with(prove_engine: fv_core::ProveEngine, jobs: usize) -> EvalEngine {
    let cfg = fv_core::ProveConfig {
        engine: prove_engine,
        ..fv_core::ProveConfig::default()
    };
    EvalEngine::with_jobs(jobs).with_prove_config(cfg)
}

/// One full generated-workload report (validation table + notes, which
/// embed the greedy eval summary) rendered to its final text.
fn report_text(prove_engine: fv_core::ProveEngine, jobs: usize) -> String {
    let cfg = SuiteConfig {
        per_family: 1,
        seed: 0x5EED,
        ..SuiteConfig::default()
    };
    let (table, notes, _suite, errors) =
        gen_report(&engine_with(prove_engine, jobs), &cfg, true).expect("suite binds");
    assert_eq!(errors, 0, "golden verdicts must confirm:\n{notes}");
    format!("{}\n{notes}", table.to_markdown())
}

#[test]
fn reported_tables_are_engine_and_jobs_invariant() {
    use fv_core::ProveEngine::{Bounded, Portfolio};
    let baseline = report_text(Bounded, 1);
    assert_eq!(
        baseline,
        report_text(Portfolio, 1),
        "portfolio racing changed a reported table"
    );
    assert_eq!(
        baseline,
        report_text(Portfolio, 4),
        "worker count changed a reported table under the portfolio"
    );
}
