//! The `engine.case` span carries what `slow_checks.md` prints about a
//! scored check: its case id, task kind and mutation tag. Only case
//! groups the verdict cache does not answer in full open one.
//!
//! Span collection is process-global, so this test has its own binary.

use fv_trace::SpanRecord;
use fveval_core::{generated_task_specs, EvalEngine};
use fveval_data::{generated_task_set, SuiteConfig};
use fveval_llm::{profiles, Backend, InferenceConfig, TaskSpec};
use std::collections::HashMap;

#[test]
fn every_scored_check_runs_under_a_case_span_naming_its_task() {
    let set = generated_task_set(&SuiteConfig {
        families: vec!["handshake".into()],
        per_family: 2,
        seed: 7,
        mutations: 2,
        ..Default::default()
    })
    .unwrap();
    let tasks = generated_task_specs(&set);
    let expected: HashMap<&str, (&str, Option<&str>)> = tasks
        .iter()
        .map(|task| {
            let (kind, mutation) = match task.as_ref() {
                TaskSpec::Nl2svaHuman { case, .. } => ("nl2sva-human", case.mutation.as_deref()),
                TaskSpec::Nl2svaMachine { case, .. } => {
                    ("nl2sva-machine", case.mutation.as_deref())
                }
                TaskSpec::Design2sva { .. } => ("design2sva", None),
            };
            (task.id(), (kind, mutation))
        })
        .collect();
    assert!(
        expected.values().any(|(_, mutation)| mutation.is_some()),
        "the suite has mutants"
    );

    let models = profiles();
    let backends: Vec<&dyn Backend> = models.iter().take(2).map(|m| m as &dyn Backend).collect();
    let engine = EvalEngine::with_jobs(2);
    fv_trace::set_spans_enabled(true);
    engine.run_matrix(&backends, &tasks, &InferenceConfig::greedy(), 2);
    let spans = fv_trace::take_spans();
    // A warm run is answered by the cache pass: no case group runs.
    engine.run_matrix(&backends, &tasks, &InferenceConfig::greedy(), 2);
    fv_trace::set_spans_enabled(false);
    let warm = fv_trace::take_spans();
    assert!(
        warm.iter().all(|span| span.name != "engine.case"),
        "a warm run opens no engine.case span"
    );

    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|span| (span.id, span)).collect();
    let scores: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "engine.score").collect();
    assert!(!scores.is_empty(), "the run scored checks");
    let mut mutants_scored = 0;
    for score in scores {
        let case = score
            .parent
            .and_then(|parent| by_id.get(&parent))
            .expect("engine.score has a parent");
        assert_eq!(case.name, "engine.case");
        let task = case.str_attr("task").expect("engine.case names its task");
        let kind = case.str_attr("kind").expect("engine.case names its kind");
        let mutation = case.str_attr("mutation");
        assert_eq!(Some(&(kind, mutation)), expected.get(task), "{task}");
        mutants_scored += usize::from(mutation.is_some());
    }
    assert!(mutants_scored > 0, "a mutant's check carries its tag");
}
