//! Cross-crate integration tests: the full FVEval pipeline from dataset
//! to scored metrics.

use fveval_repro::prelude::*;
use std::collections::HashMap;

fn human_tables() -> HashMap<&'static str, SignalTable> {
    testbenches()
        .into_iter()
        .map(|t| (t.name, signal_table_for(&t).expect("testbenches elaborate")))
        .collect()
}

#[test]
fn reference_solutions_score_perfect() {
    // Feeding the expert reference back as the "response" must score a
    // full pass on every one of the 79 human cases — the end-to-end
    // sanity bar for the whole evaluation stack.
    let tables = human_tables();
    for case in human_cases() {
        let table = &tables[case.testbench.as_str()];
        let (eval, _) = Scorer::nl(&case.reference, table).score(&case.reference);
        assert!(
            eval.syntax && eval.func && eval.partial,
            "{} reference must self-score",
            case.id
        );
        assert!((eval.bleu - 1.0).abs() < 1e-9, "{}", case.id);
    }
}

#[test]
fn machine_references_score_perfect() {
    let cases = generate_machine_cases(MachineGenConfig {
        count: 50,
        ..Default::default()
    });
    let table = machine_signal_table();
    for case in cases {
        let (eval, _) = Scorer::nl(&case.reference_text, &table).score(&case.reference_text);
        assert!(eval.func, "{} reference must self-score", case.id);
    }
}

#[test]
fn evaluation_is_deterministic_per_seed() {
    let cases = generate_machine_cases(MachineGenConfig {
        count: 20,
        ..Default::default()
    });
    let tasks = machine_task_specs(&cases, &machine_signal_table());
    let models = profiles();
    let model = &models[0];
    let cfg = InferenceConfig::sampling();
    let run = || EvalEngine::with_jobs(1).run(model, &tasks, &cfg, 3);
    let a = run();
    let b = run();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.samples.len(), y.samples.len());
        for (sx, sy) in x.samples.iter().zip(&y.samples) {
            assert_eq!(sx.syntax, sy.syntax);
            assert_eq!(sx.func, sy.func);
        }
    }
}

#[test]
fn model_ordering_shape_holds_on_machine_set() {
    // The paper's headline: stronger general models do better. Check
    // the two extremes over a moderate slice.
    let cases = generate_machine_cases(MachineGenConfig {
        count: 100,
        ..Default::default()
    });
    let tasks = machine_task_specs(&cases, &machine_signal_table());
    let models = profiles();
    let score = |name: &str| {
        let m = models.iter().find(|m| m.name() == name).unwrap();
        let evals = EvalEngine::with_jobs(1).run(m, &tasks, &InferenceConfig::greedy(), 1);
        MetricSummary::from_first_samples(&evals)
    };
    let top = score("gpt-4o");
    let bottom = score("llama-3-8b");
    assert!(top.func > bottom.func, "{top:?} vs {bottom:?}");
    assert!(top.syntax > bottom.syntax);
    // Partial-vs-full gap exists for every model (paper Section 4.2).
    for m in &models {
        let evals = EvalEngine::with_jobs(1).run(m, &tasks, &InferenceConfig::greedy(), 1);
        let s = MetricSummary::from_first_samples(&evals);
        assert!(s.partial >= s.func, "{}: {s:?}", m.name());
        assert!(s.syntax >= s.partial, "{}: {s:?}", m.name());
    }
}

#[test]
fn three_shot_helps_weak_zero_shot_models() {
    // Table 3's gemini-1.5-pro story: a large ICL gain.
    let cases = generate_machine_cases(MachineGenConfig {
        count: 100,
        ..Default::default()
    });
    let tasks = machine_task_specs(&cases, &machine_signal_table());
    let models = profiles();
    let m = models
        .iter()
        .find(|m| m.name() == "gemini-1.5-pro")
        .unwrap();
    let s0 = MetricSummary::from_first_samples(&EvalEngine::with_jobs(1).run(
        m,
        &tasks,
        &InferenceConfig::greedy(),
        1,
    ));
    let s3 = MetricSummary::from_first_samples(&EvalEngine::with_jobs(1).run(
        m,
        &tasks,
        &InferenceConfig::greedy().with_shots(3),
        1,
    ));
    assert!(
        s3.func > s0.func + 0.15,
        "ICL gain expected: {s0:?} -> {s3:?}"
    );
    assert!(s3.syntax > s0.syntax + 0.2);
}

#[test]
fn pass_at_k_improves_with_sampling() {
    let cases = generate_machine_cases(MachineGenConfig {
        count: 60,
        ..Default::default()
    });
    let tasks = machine_task_specs(&cases, &machine_signal_table());
    let models = profiles();
    let m = models.iter().find(|m| m.name() == "llama-3.1-70b").unwrap();
    let evals =
        EvalEngine::with_jobs(1).run(m, &tasks, &InferenceConfig::sampling().with_shots(3), 6);
    let p1 = MetricSummary::mean_pass_at_k(&evals, 1, |s| s.func);
    let p5 = MetricSummary::mean_pass_at_k(&evals, 5, |s| s.func);
    assert!(p5 >= p1, "pass@5 {p5} >= pass@1 {p1}");
    assert!(p5 > p1 + 0.02, "sampling should lift func: {p1} -> {p5}");
    let syn5 = MetricSummary::mean_pass_at_k(&evals, 5, |s| s.syntax);
    assert!(syn5 > 0.9, "syntax@5 near-perfect: {syn5}");
}
