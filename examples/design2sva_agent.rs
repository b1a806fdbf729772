//! Design2SVA end to end: generate a synthetic FSM, let simulated
//! models draft assertions from the RTL alone, and score them with the
//! model checker — the paper's most agentic scenario (Figure 9).
//!
//! ```text
//! cargo run --example design2sva_agent
//! ```

use fveval_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Generate one FSM design instance (a point from the Table 5 sweep).
    let case = generate_fsm(&FsmParams {
        n_states: 4,
        n_edges: 5,
        width: 16,
        guard_depth: 2,
        seed: 2025,
    });
    println!("=== design RTL ({}) ===\n{}", case.id, case.design_source);
    println!("=== testbench header ===\n{}", case.tb_source);

    let bound = compile_design(&case).map_err(std::io::Error::other)?;
    // One scorer for the design: every model's attempts share its
    // proof session (one unrolled formula, one solver).
    let mut scorer = Scorer::design(&bound, ProveConfig::default());
    let cfg = InferenceConfig::sampling();
    let task = std::sync::Arc::new(TaskSpec::Design2sva { case: case.clone() });

    for model in profiles() {
        if !model.profile().supports_design2sva {
            continue;
        }
        println!("--- {} ---", model.name());
        let mut successes = 0u32;
        let n = 5;
        for attempt in 0..n {
            let response = model.generate(&Request {
                task: std::sync::Arc::clone(&task),
                cfg,
                sample_idx: attempt,
            });
            let (eval, _) = scorer.score(&response);
            if attempt == 0 {
                println!("first attempt:\n{response}");
            }
            println!(
                "attempt {}: syntax={} proven={}",
                attempt + 1,
                eval.syntax,
                eval.func
            );
            successes += u32::from(eval.func);
        }
        println!(
            "pass@1 = {:.3}   pass@5 = {:.3}\n",
            pass_at_k(n, successes, 1),
            pass_at_k(n, successes, 5.min(n))
        );
    }
    Ok(())
}
