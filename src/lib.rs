//! # FVEval-rs
//!
//! A from-scratch Rust reproduction of *"FVEval: Understanding Language
//! Model Capabilities in Formal Verification of Digital Hardware"*
//! (DATE 2025). This facade crate re-exports the whole stack; see the
//! individual crates for details:
//!
//! - [`fv_sat`] — CDCL SAT solver.
//! - [`fv_aig`] — and-inverter graphs + bit-vector layer + CNF.
//! - [`sv_ast`] / [`sv_parser`] — SystemVerilog + SVA front-end.
//! - [`sv_synth`] — elaboration, bit-blasting, simulation.
//! - [`fv_core`] — assertion equivalence, BMC, k-induction.
//! - [`fveval_gen`] — the scenario generator subsystem (open-ended
//!   benchmark families with golden verdicts).
//! - [`fveval_data`] — the three benchmark datasets + generated task
//!   sets.
//! - [`fveval_llm`] — calibrated simulated models.
//! - [`fveval_core`] — the evaluation framework (metrics, the
//!   `Scorer` and the `EvalEngine`).
//!
//! # Quickstart
//!
//! ```
//! use fveval_repro::prelude::*;
//!
//! let reference = parse_assertion_str(
//!     "assert property (@(posedge clk) a |-> strong(##[0:$] b));",
//! )?;
//! let candidate = parse_assertion_str(
//!     "assert property (@(posedge clk) a |-> ##[1:$] b);",
//! )?;
//! let table: SignalTable = [("a", 1u32), ("b", 1)].into_iter().collect();
//! let out = check_equivalence(&reference, &candidate, &table, EquivConfig::default())?;
//! assert_eq!(out.verdict, Equivalence::RefImpliesCand); // partial credit
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use fv_aig;
pub use fv_core;
pub use fv_sat;
pub use fveval_core;
pub use fveval_data;
pub use fveval_gen;
pub use fveval_llm;
pub use sv_ast;
pub use sv_parser;
pub use sv_synth;

/// The most common imports in one place.
pub mod prelude {
    pub use fv_core::{
        check_equivalence, prove, prove_with_stats, replay_design_cex, EquivConfig, EquivSession,
        Equivalence, ProofSession, ProveConfig, ProveResult, ProverStats, SignalTable,
    };
    pub use fveval_core::{
        bleu, compile_design, design_task_specs, generated_task_specs, human_task_specs,
        machine_task_specs, pass_at_k, CacheStats, CompiledDesign, EvalEngine, MetricSummary,
        SampleEval, Scorer,
    };
    pub use fveval_data::{
        fsm_sweep, generate_fsm, generate_machine_cases, generate_pipeline, generated_task_set,
        human_cases, machine_signal_table, pipeline_sweep, signal_table_for, testbenches,
        FsmParams, MachineGenConfig, PipelineParams, SuiteConfig,
    };
    pub use fveval_gen::{
        derive_mutants, derive_mutants_with_ops, generate_suite, generators, mutate_scenario,
        validate_scenario, validate_suite, GenParams, MutationOp, Scenario, Suite,
    };
    pub use fveval_llm::{profiles, Backend, InferenceConfig, Request, TaskSpec};
    pub use sv_parser::{parse_assertion_str, parse_snippet, parse_source};
    pub use sv_synth::{elaborate, elaborate_design, Simulator};
}
