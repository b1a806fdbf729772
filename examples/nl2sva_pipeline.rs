//! The NL2SVA-Machine pipeline end to end: generate synthetic
//! (NL, SVA) pairs with the critic loop, run a model in 0-shot and
//! 3-shot, and print the per-metric gains — the Table 3 story for one
//! model on a small slice.
//!
//! ```text
//! cargo run --example nl2sva_pipeline
//! ```

use fveval_repro::prelude::*;

fn main() {
    let cases = generate_machine_cases(MachineGenConfig {
        count: 40,
        seed: 7,
        corruption_rate: 0.25,
    });
    let retried = cases.iter().filter(|c| c.retries > 0).count();
    println!(
        "generated {} cases; critic rejected and regenerated {} drafts",
        cases.len(),
        retried
    );
    println!(
        "\nsample case:\n  Q: {}\n  A: {}\n",
        cases[0].question, cases[0].reference_text
    );

    let tasks = machine_task_specs(&cases, &machine_signal_table());
    let engine = EvalEngine::with_jobs(1);
    let models = profiles();
    let model = models
        .iter()
        .find(|m| m.name() == "llama-3.1-70b")
        .expect("profile exists");

    for shots in [0u32, 3] {
        let cfg = InferenceConfig::greedy().with_shots(shots);
        let evals = engine.run(model, &tasks, &cfg, 1);
        let s = MetricSummary::from_first_samples(&evals);
        println!(
            "{} {shots}-shot: syntax={:.3} func={:.3} partial={:.3} bleu={:.3}",
            model.name(),
            s.syntax,
            s.func,
            s.partial,
            s.bleu
        );
    }

    // Show one scored response in detail.
    let case = &cases[1];
    let task = &tasks[1];
    let response = model.generate(&Request {
        task: std::sync::Arc::clone(task),
        cfg: InferenceConfig::greedy(),
        sample_idx: 0,
    });
    let eval = engine.score(task, &response);
    println!("\nworked example:\n  Q: {}", case.question);
    println!("  reference: {}", case.reference_text);
    println!("  response : {response}");
    println!(
        "  verdict  : syntax={} func={} partial={} bleu={:.3}",
        eval.syntax, eval.func, eval.partial, eval.bleu
    );
}
