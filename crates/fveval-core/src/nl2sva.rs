//! Runner for the NL2SVA-Human and NL2SVA-Machine sub-benchmarks.
//!
//! Like the Design2SVA side, scoring is compile-once / score-many:
//! [`Nl2svaRunner::open_session`] parses and compiles the reference
//! assertion once per case into an [`fv_core::EquivSession`], and every
//! candidate sample (across all models) is checked against it on the
//! shared trace and solver.

use crate::bleu::bleu;
use crate::engine::{human_task_specs, machine_task_specs, EvalEngine};
use crate::metrics::{CaseEvals, SampleEval};
use fv_core::{EquivConfig, EquivSession, ProverStats, SignalTable};
use fveval_data::{HumanCase, MachineCase};
use fveval_llm::{Backend, InferenceConfig};
use sv_parser::parse_assertion_str;

/// Prompt statistics for the length-distribution figures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromptInfo {
    /// Case id.
    pub id: String,
    /// The NL specification text.
    pub question: String,
    /// The reference solution text.
    pub reference: String,
}

/// Evaluates models on NL-to-assertion tasks with the full pipeline:
/// syntax via the parser, functional/partial via the formal
/// equivalence prover, and BLEU against the reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct Nl2svaRunner;

/// A per-case scoring session: the reference assertion compiled once
/// into a shared [`EquivSession`], reused by every candidate sample.
/// Obtain via [`Nl2svaRunner::open_session`], feed it through
/// [`Nl2svaRunner::evaluate_in_session`].
pub struct NlSession<'t> {
    state: NlSessionState<'t>,
}

enum NlSessionState<'t> {
    /// The reference text failed to parse: every sample is a tool
    /// failure (as in the one-shot path).
    BadReference,
    /// Boxed: the session (graph + solver + simulators) dwarfs the
    /// empty variant, and one box per case is noise.
    Open(Box<EquivSession<'t>>),
}

impl NlSession<'_> {
    /// Cumulative prover counters for the shared session.
    pub fn stats(&self) -> ProverStats {
        match &self.state {
            NlSessionState::BadReference => ProverStats::default(),
            NlSessionState::Open(equiv) => equiv.stats(),
        }
    }
}

impl Nl2svaRunner {
    /// Runner scoring equivalence under the default horizon
    /// ([`EquivConfig::default`]), the same for every case.
    pub fn new() -> Nl2svaRunner {
        Nl2svaRunner
    }

    /// Opens a scoring session for one case: the reference assertion is
    /// parsed (and later compiled) once, and every candidate checked
    /// through the session shares its trace, strashed graph, and
    /// solver. An unparseable reference yields a session that scores
    /// every sample as a tool failure, matching the one-shot path.
    pub fn open_session<'t>(&self, reference_text: &str, table: &'t SignalTable) -> NlSession<'t> {
        NlSession {
            state: match parse_assertion_str(reference_text) {
                Ok(reference) => NlSessionState::Open(Box::new(EquivSession::open(
                    reference,
                    table,
                    EquivConfig::default(),
                ))),
                Err(_) => NlSessionState::BadReference,
            },
        }
    }

    /// Scores one response against a reference in a signal scope.
    ///
    /// A parse failure, an unknown signal, or an engine limit all score
    /// `syntax = false` — the tool-failure verdict in the paper.
    pub fn evaluate_response(
        &self,
        reference_text: &str,
        response: &str,
        table: &SignalTable,
    ) -> SampleEval {
        self.evaluate_response_stats(reference_text, response, table)
            .0
    }

    /// [`Nl2svaRunner::evaluate_response`], additionally reporting how
    /// the equivalence prover discharged its queries (zero counters
    /// when scoring never reached the prover). One-shot: opens a
    /// throwaway session per call; batch scoring should hold a
    /// [`Nl2svaRunner::open_session`] session instead.
    pub fn evaluate_response_stats(
        &self,
        reference_text: &str,
        response: &str,
        table: &SignalTable,
    ) -> (SampleEval, ProverStats) {
        let mut session = self.open_session(reference_text, table);
        self.evaluate_in_session(&mut session, reference_text, response)
    }

    /// Scores one response through a shared per-case session. The
    /// verdict is identical to [`Nl2svaRunner::evaluate_response`] —
    /// sessions only change *how much work* the equivalence check
    /// costs, never its outcome. `reference_text` must be the text the
    /// session was opened with (used for BLEU).
    pub fn evaluate_in_session(
        &self,
        session: &mut NlSession<'_>,
        reference_text: &str,
        response: &str,
    ) -> (SampleEval, ProverStats) {
        let equiv = match &mut session.state {
            NlSessionState::BadReference => return (SampleEval::failed(), ProverStats::default()),
            NlSessionState::Open(equiv) => equiv,
        };
        let candidate = match parse_assertion_str(response) {
            Ok(a) => a,
            Err(_) => {
                return (
                    SampleEval {
                        bleu: bleu(reference_text, response),
                        ..SampleEval::failed()
                    },
                    ProverStats::default(),
                )
            }
        };
        let b = bleu(reference_text, response);
        let before = equiv.stats();
        match equiv.check(&candidate) {
            Err(_) => (
                SampleEval {
                    // Elaboration failure (unknown signal etc.).
                    syntax: false,
                    func: false,
                    partial: false,
                    bleu: b,
                },
                // The session still opened and counted the check before
                // erroring; report that delta so aggregated counters
                // stay exact.
                equiv.stats().delta_since(&before),
            ),
            Ok(out) => (
                SampleEval {
                    syntax: true,
                    func: out.verdict.is_equivalent(),
                    partial: out.verdict.is_partial(),
                    bleu: b,
                },
                out.stats,
            ),
        }
    }

    /// Runs a model over the human dataset (sequential convenience
    /// wrapper over [`EvalEngine`]; build an engine directly for
    /// parallelism and cross-run caching).
    ///
    /// `tables` maps testbench names to their signal scopes.
    pub fn run_human(
        &self,
        model: &dyn Backend,
        cases: &[HumanCase],
        tables: &std::collections::HashMap<&str, SignalTable>,
        cfg: &InferenceConfig,
        n_samples: u32,
    ) -> Vec<CaseEvals> {
        EvalEngine::with_jobs(1).run(model, &human_task_specs(cases, tables), cfg, n_samples)
    }

    /// Runs a model over the machine dataset (sequential convenience
    /// wrapper over [`EvalEngine`]).
    pub fn run_machine(
        &self,
        model: &dyn Backend,
        cases: &[MachineCase],
        table: &SignalTable,
        cfg: &InferenceConfig,
        n_samples: u32,
    ) -> Vec<CaseEvals> {
        EvalEngine::with_jobs(1).run(model, &machine_task_specs(cases, table), cfg, n_samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fveval_data::{generate_machine_cases, machine_signal_table, MachineGenConfig};
    use fveval_llm::profiles;

    fn table() -> SignalTable {
        [("a", 1u32), ("b", 1), ("tb_reset", 1)]
            .into_iter()
            .collect()
    }

    #[test]
    fn exact_response_scores_full() {
        let r = Nl2svaRunner::new();
        let reference = "assert property (@(posedge clk) a |-> ##1 b);";
        let e = r.evaluate_response(reference, reference, &table());
        assert!(e.syntax && e.func && e.partial);
        assert!((e.bleu - 1.0).abs() < 1e-9);
    }

    #[test]
    fn equivalent_rewrite_scores_func_with_lower_bleu() {
        let r = Nl2svaRunner::new();
        let e = r.evaluate_response(
            "assert property (@(posedge clk) a |-> ##1 b);",
            "assert property (@(posedge clk) a |=> b);",
            &table(),
        );
        assert!(e.syntax && e.func && e.partial);
        assert!(e.bleu < 1.0);
    }

    #[test]
    fn weaker_response_scores_partial_only() {
        let r = Nl2svaRunner::new();
        let e = r.evaluate_response(
            "assert property (@(posedge clk) a |-> strong(##[0:$] b));",
            "assert property (@(posedge clk) a |-> ##[1:$] b);",
            &table(),
        );
        assert!(e.syntax && !e.func && e.partial);
    }

    #[test]
    fn hallucination_scores_syntax_fail() {
        let r = Nl2svaRunner::new();
        let e = r.evaluate_response(
            "assert property (@(posedge clk) a |-> s_eventually (b));",
            "assert property (@(posedge clk) a |-> eventually(b));",
            &table(),
        );
        assert!(!e.syntax && !e.func && !e.partial);
    }

    #[test]
    fn unknown_signal_scores_syntax_fail() {
        let r = Nl2svaRunner::new();
        let e = r.evaluate_response(
            "assert property (@(posedge clk) a |-> b);",
            "assert property (@(posedge clk) a |-> ghost);",
            &table(),
        );
        assert!(!e.syntax);
    }

    #[test]
    fn session_scoring_matches_one_shot() {
        let r = Nl2svaRunner::new();
        let t = table();
        let reference = "assert property (@(posedge clk) a |-> ##1 b);";
        let responses = [
            reference,
            "assert property (@(posedge clk) a |=> b);",
            "assert property (@(posedge clk) a |-> ghost);",
            "assert property (@(posedge clk) (a",
            "assert property (@(posedge clk) b);",
            "assert property (@(posedge clk) a |-> (b && tb_reset));",
        ];
        let mut session = r.open_session(reference, &t);
        for resp in responses {
            assert_eq!(
                r.evaluate_in_session(&mut session, reference, resp).0,
                r.evaluate_response(reference, resp, &t),
                "{resp}"
            );
        }
        let stats = session.stats();
        assert_eq!(stats.sessions_opened, 1, "{stats:?}");
        assert!(
            stats.unroll_reuse_hits > 0,
            "reference compiled once, served from cache after: {stats:?}"
        );
    }

    #[test]
    fn bad_reference_session_fails_every_sample() {
        let r = Nl2svaRunner::new();
        let t = table();
        let reference = "assert property (@(posedge clk) (a";
        let mut session = r.open_session(reference, &t);
        let e = r.evaluate_in_session(
            &mut session,
            reference,
            "assert property (@(posedge clk) a);",
        );
        assert_eq!(
            e.0,
            r.evaluate_response(reference, "assert property (@(posedge clk) a);", &t)
        );
        assert!(!e.0.syntax);
    }

    #[test]
    fn run_machine_end_to_end_smoke() {
        let cases = generate_machine_cases(MachineGenConfig {
            count: 12,
            ..Default::default()
        });
        let table = machine_signal_table();
        let models = profiles();
        let model = models.iter().find(|m| m.name() == "gpt-4o").unwrap();
        let runner = Nl2svaRunner::new();
        let evals = runner.run_machine(model, &cases, &table, &InferenceConfig::greedy(), 1);
        assert_eq!(evals.len(), 12);
        // The top model should score reasonably on a small sample.
        let summary = crate::MetricSummary::from_first_samples(&evals);
        assert!(summary.syntax > 0.5, "syntax {summary:?}");
        assert!(summary.partial >= summary.func);
        assert!(summary.syntax >= summary.partial);
    }
}
