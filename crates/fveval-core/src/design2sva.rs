//! Runner for the Design2SVA sub-benchmark: responses are grafted onto
//! the testbench, elaborated with the design bound in, and checked with
//! the model-checking engine (BMC + k-induction).
//!
//! The flow is compile-once / score-many: [`compile_design`] performs
//! the whole-file elaboration (design + testbench + DUT instantiation)
//! exactly once per case, and [`Design2svaRunner::open_session`] wraps
//! a [`fv_core::ProofSession`] over the compiled base netlist so that
//! every helper-free candidate assertion shares one unrolled formula
//! and one solver. Responses that bring their own helper items change
//! the netlist, so they pay a (cheap, split-elaboration) bind plus a
//! one-shot proof of their own.

use crate::engine::{design_task_specs, EvalEngine};
use crate::metrics::{CaseEvals, SampleEval};
use fv_core::{CompiledDesign, ProofSession, ProveConfig, ProveResult, ProverStats};
use fveval_data::DesignCase;
use fveval_llm::{Backend, InferenceConfig};
use sv_ast::ModuleItem;
use sv_parser::parse_snippet;

/// Compiles a Design2SVA case — the formal tool's compile step, paid
/// once per design (see [`CompiledDesign::new`]).
///
/// # Errors
///
/// Returns a message if the (generated) collateral itself fails to
/// parse or elaborate — covered by dataset tests, so unexpected here.
pub fn compile_design(case: &DesignCase) -> Result<CompiledDesign, String> {
    CompiledDesign::new(
        &case.design_source,
        &case.tb_source,
        &case.top,
        &case.tb_top,
    )
}

/// A per-design scoring session: one [`ProofSession`] over the compiled
/// base netlist, opened lazily on the first helper-free candidate and
/// shared by every later one. Obtain via
/// [`Design2svaRunner::open_session`], feed it through
/// [`Design2svaRunner::evaluate_in_session`].
pub struct DesignSession<'c> {
    compiled: &'c CompiledDesign,
    cfg: ProveConfig,
    /// Boxed: the proof context (graph + solver + simulators) is large
    /// and the session struct travels by value inside group scorers.
    session: Option<Box<ProofSession<'c>>>,
}

impl DesignSession<'_> {
    /// Cumulative prover counters for the shared session (zero until a
    /// helper-free candidate opened it; one-shot helper proofs are
    /// reported per sample, not here).
    pub fn stats(&self) -> ProverStats {
        self.session
            .as_ref()
            .map_or_else(ProverStats::default, |s| s.stats())
    }
}

/// The Design2SVA evaluation loop.
#[derive(Debug, Clone)]
pub struct Design2svaRunner {
    prove_cfg: ProveConfig,
}

impl Default for Design2svaRunner {
    fn default() -> Design2svaRunner {
        Design2svaRunner::new()
    }
}

impl Design2svaRunner {
    /// Runner with default prover bounds.
    pub fn new() -> Design2svaRunner {
        Design2svaRunner {
            prove_cfg: ProveConfig::default(),
        }
    }

    /// Overrides the prover bounds.
    pub fn with_prove_config(mut self, cfg: ProveConfig) -> Design2svaRunner {
        self.prove_cfg = cfg;
        self
    }

    /// Opens a scoring session for a compiled design: all helper-free
    /// responses evaluated through it share one proof context (one
    /// unrolled formula, one solver) across every sample and model.
    pub fn open_session<'c>(&self, compiled: &'c CompiledDesign) -> DesignSession<'c> {
        DesignSession {
            compiled,
            cfg: self.prove_cfg,
            session: None,
        }
    }

    /// Scores one response snippet against a compiled design.
    ///
    /// - parse failure, elaboration failure, missing assertion, or a
    ///   reference to an out-of-scope signal → `syntax = false`;
    /// - otherwise `syntax = true` and `func` = "the assertion was
    ///   proven" (the paper's Design2SVA functionality metric).
    pub fn evaluate_response(&self, bound: &CompiledDesign, response: &str) -> SampleEval {
        self.evaluate_response_stats(bound, response).0
    }

    /// [`Design2svaRunner::evaluate_response`], additionally reporting
    /// how the model checker discharged its queries (zero counters when
    /// scoring never reached the prover). One-shot: opens a throwaway
    /// session per call; batch scoring should hold a
    /// [`Design2svaRunner::open_session`] session instead.
    pub fn evaluate_response_stats(
        &self,
        bound: &CompiledDesign,
        response: &str,
    ) -> (SampleEval, ProverStats) {
        let mut session = self.open_session(bound);
        self.evaluate_in_session(&mut session, response)
    }

    /// Scores one response through a shared per-design session. The
    /// verdict is identical to [`Design2svaRunner::evaluate_response`]
    /// — sessions only change *how much work* the proof costs, never
    /// its outcome. Responses carrying helper items get their own
    /// netlist (the helpers change the design), bound via the cheap
    /// split-elaboration path and proven one-shot.
    pub fn evaluate_in_session(
        &self,
        session: &mut DesignSession<'_>,
        response: &str,
    ) -> (SampleEval, ProverStats) {
        let failed = (SampleEval::failed(), ProverStats::default());
        let items = match parse_snippet(response) {
            Ok(items) => items,
            Err(_) => return failed,
        };
        let mut helpers = Vec::new();
        let mut assertion = None;
        for item in items {
            match item {
                ModuleItem::Assertion(a) => {
                    if assertion.is_none() {
                        assertion = Some(a);
                    }
                }
                other => helpers.push(other),
            }
        }
        let Some(assertion) = assertion else {
            return failed;
        };
        let sample = |result: &ProveResult| {
            let proven = matches!(result, ProveResult::Proven { .. });
            SampleEval {
                syntax: true,
                func: proven,
                partial: proven,
                bleu: 0.0,
            }
        };
        // An Err from a check — an unknown signal in the assertion
        // (design-internal reference) — is an elaboration failure; the
        // work the session did before erroring (its open, the check
        // count) still happened, so the counter delta is reported.
        if helpers.is_empty() {
            // The shared base netlist: stream through the session.
            if session.session.is_none() {
                let compiled = session.compiled;
                match ProofSession::open(compiled.netlist(), compiled.consts(), session.cfg) {
                    Ok(open) => session.session = Some(Box::new(open)),
                    // Unreachable for elaborated netlists (cycles are
                    // rejected at elaboration); fail the sample rather
                    // than poison the run.
                    Err(_) => return failed,
                }
            }
            let proof = session.session.as_mut().expect("session opened above");
            let before = proof.stats();
            match proof.check(&assertion) {
                Err(_) => (SampleEval::failed(), proof.stats().delta_since(&before)),
                Ok((result, stats)) => (sample(&result), stats),
            }
        } else {
            // Helper items change the design: a private netlist via the
            // cheap split-elaboration bind, proven one-shot.
            let netlist = match session.compiled.bind_extras(&helpers) {
                Ok(nl) => nl,
                Err(_) => return failed,
            };
            let mut one_shot =
                match ProofSession::open(&netlist, session.compiled.consts(), session.cfg) {
                    Ok(open) => open,
                    Err(_) => return failed,
                };
            match one_shot.check(&assertion) {
                Err(_) => (SampleEval::failed(), one_shot.stats()),
                Ok((result, _)) => (sample(&result), one_shot.stats()),
            }
        }
    }

    /// Runs a model over a set of design cases with `n_samples` each
    /// (sequential convenience wrapper over [`EvalEngine`]; build an
    /// engine directly for parallelism and cross-run caching).
    pub fn run(
        &self,
        model: &dyn Backend,
        cases: &[DesignCase],
        cfg: &InferenceConfig,
        n_samples: u32,
    ) -> Vec<CaseEvals> {
        EvalEngine::with_jobs(1).with_d2s_runner(self.clone()).run(
            model,
            &design_task_specs(cases),
            cfg,
            n_samples,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fveval_data::{generate_fsm, generate_pipeline, FsmParams, PipelineParams};

    fn fsm_case() -> DesignCase {
        generate_fsm(&FsmParams {
            n_states: 4,
            n_edges: 3,
            width: 8,
            guard_depth: 1,
            seed: 21,
        })
    }

    #[test]
    fn golden_assertions_score_func() {
        let case = fsm_case();
        let bound = compile_design(&case).unwrap();
        let runner = Design2svaRunner::new();
        for g in &case.golden {
            let e = runner.evaluate_response(&bound, g);
            assert!(e.syntax && e.func, "golden should prove: {g}");
        }
    }

    #[test]
    fn pipeline_golden_scores_func() {
        let case = generate_pipeline(&PipelineParams {
            n_units: 1,
            unit_depths: vec![2],
            width: 8,
            expr_ops: 2,
            seed: 3,
        });
        let bound = compile_design(&case).unwrap();
        let runner = Design2svaRunner::new();
        let e = runner.evaluate_response(&bound, &case.golden[0]);
        assert!(e.syntax && e.func);
    }

    #[test]
    fn malformed_scores_syntax_fail() {
        let case = fsm_case();
        let bound = compile_design(&case).unwrap();
        let runner = Design2svaRunner::new();
        let e = runner.evaluate_response(&bound, "assert property (@(posedge clk) (fsm_out");
        assert!(!e.syntax);
    }

    #[test]
    fn internal_signal_scores_syntax_fail() {
        let case = fsm_case();
        let bound = compile_design(&case).unwrap();
        let runner = Design2svaRunner::new();
        let e = runner.evaluate_response(
            &bound,
            "assert property (@(posedge clk) disable iff (tb_reset) (state == S0) |-> 1'b1);",
        );
        assert!(!e.syntax, "design-internal `state` must not resolve");
    }

    #[test]
    fn wrong_transition_scores_syntax_but_not_func() {
        let case = fsm_case();
        let bound = compile_design(&case).unwrap();
        // Claim S0 -> S0 which the ring backbone makes false unless the
        // graph happens to contain the self-loop; pick a definitely-wrong
        // one by asserting a transition to a state outside the real set.
        let (n, succs) = match &case.kind {
            fveval_data::DesignKind::Fsm {
                n_states,
                transitions,
                ..
            } => (*n_states, transitions[0].clone()),
            _ => unreachable!(),
        };
        let wrong = (0..n)
            .find(|t| !succs.contains(t))
            .expect("wrong successor");
        let runner = Design2svaRunner::new();
        let resp = format!(
            "assert property (@(posedge clk) disable iff (tb_reset) \
             (fsm_out == S0) |-> ##1 (fsm_out == S{wrong}));"
        );
        let e = runner.evaluate_response(&bound, &resp);
        assert!(e.syntax && !e.func, "{resp}");
    }

    #[test]
    fn session_scoring_matches_one_shot() {
        // A stream of mixed-quality responses through one shared
        // session must score identically to per-response one-shot
        // evaluation — including the helper-carrying response that
        // takes the private-netlist path.
        let case = fsm_case();
        let bound = compile_design(&case).unwrap();
        let runner = Design2svaRunner::new();
        let succs = match &case.kind {
            fveval_data::DesignKind::Fsm { transitions, .. } => transitions[1].clone(),
            _ => unreachable!(),
        };
        let disj = succs
            .iter()
            .map(|t| format!("(mirror == S{t})"))
            .collect::<Vec<_>>()
            .join(" || ");
        let helper_resp = format!(
            "logic [FSM_WIDTH-1:0] mirror;\nassign mirror = fsm_out;\n\
             assert property (@(posedge clk) disable iff (tb_reset) \
             (mirror == S1) |-> ##1 ({disj}));"
        );
        let mut responses: Vec<String> = case.golden.clone();
        responses.push("assert property (@(posedge clk) (fsm_out".into());
        responses.push("assert property (@(posedge clk) state == S0);".into());
        responses.push(helper_resp);
        responses.push(case.golden[0].clone()); // repeat: strash reuse
        let mut session = runner.open_session(&bound);
        for resp in &responses {
            let via_session = runner.evaluate_in_session(&mut session, resp).0;
            let one_shot = runner.evaluate_response(&bound, resp);
            assert_eq!(via_session, one_shot, "{resp}");
        }
        let stats = session.stats();
        assert_eq!(stats.sessions_opened, 1, "{stats:?}");
        assert!(
            stats.session_checks > case.golden.len() as u64,
            "helper-free responses stream through the shared session: {stats:?}"
        );
        assert!(stats.unroll_reuse_hits > 0, "{stats:?}");
    }

    #[test]
    fn helper_code_elaborates_into_scope() {
        let case = fsm_case();
        let bound = compile_design(&case).unwrap();
        let succs = match &case.kind {
            fveval_data::DesignKind::Fsm { transitions, .. } => transitions[1].clone(),
            _ => unreachable!(),
        };
        let disj = succs
            .iter()
            .map(|t| format!("(mirror == S{t})"))
            .collect::<Vec<_>>()
            .join(" || ");
        let resp = format!(
            "logic [FSM_WIDTH-1:0] mirror;\nassign mirror = fsm_out;\n\
             assert property (@(posedge clk) disable iff (tb_reset) \
             (mirror == S1) |-> ##1 ({disj}));"
        );
        let runner = Design2svaRunner::new();
        let e = runner.evaluate_response(&bound, &resp);
        assert!(e.syntax && e.func, "{resp}");
    }
}
