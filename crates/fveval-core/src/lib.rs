//! The FVEval evaluation framework — the paper's primary contribution.
//!
//! Given a [`fveval_llm::Backend`] and a dataset, the [`EvalEngine`]
//! reproduces the paper's end-to-end flow:
//!
//! 1. assemble the prompt and collect the model's response(s),
//! 2. score **syntax** with the real parser (tool syntax check),
//! 3. score **functional** / **partial** correctness with the formal
//!    assertion-equivalence prover (NL2SVA) or the model checker
//!    (Design2SVA),
//! 4. score **BLEU** against the reference, and
//! 5. aggregate per-model means and unbiased **pass@k**.
//!
//! Steps 2–4 are one [`Scorer`] per case, the only scoring routine.
//! Every table and figure of the paper maps onto this flow; see
//! `ARCHITECTURE.md` for the evaluation spine and the `fveval` CLI for
//! the regeneration entry points.

#![deny(missing_docs)]

mod bleu;
mod design2sva;
mod engine;
mod metrics;
mod nl2sva;
mod passk;
mod report;
mod score;
mod stats;
mod tokenize;

pub use bleu::bleu;
pub use design2sva::compile_design;
pub use engine::{
    design_task_specs, generated_task_specs, human_task_specs, machine_task_specs, CacheStats,
    EvalEngine, VerdictKey, VerdictRecord,
};
pub use fv_core::{CompiledDesign, ProverStats};
pub use metrics::{CaseEvals, MetricSummary, SampleEval};
pub use passk::pass_at_k;
pub use report::{Table, TableCell};
pub use score::Scorer;
pub use stats::{histogram, pearson, Histogram};
pub use tokenize::{code_tokens, token_count};
