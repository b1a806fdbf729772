//! The Design2SVA half of [`crate::Scorer`]: a response is grafted
//! onto the testbench and checked with the model-checking engine
//! (BMC + k-induction).
//!
//! [`compile_design`] elaborates design + testbench + DUT instantiation
//! once per case. Helper-free responses stream through one
//! [`ProofSession`] over the compiled base netlist, sharing one
//! unrolled formula and one solver. Responses that bring their own
//! helper items change the netlist, so they pay a (cheap,
//! split-elaboration) bind plus a one-shot proof of their own.

use crate::metrics::SampleEval;
use fv_core::{CompiledDesign, ProofSession, ProveConfig, ProveResult, ProverStats};
use fveval_data::DesignCase;
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

/// Scores one response against `compiled`. `session` is the shared
/// proof session over the base netlist, opened here on the first
/// helper-free response. The flag is `true` when the response carried
/// helper items, so that its score came from a one-shot session of its
/// own.
pub(crate) fn score<'c>(
    compiled: &'c CompiledDesign,
    cfg: ProveConfig,
    session: &mut Option<Box<ProofSession<'c>>>,
    response: &str,
) -> (SampleEval, ProverStats, bool) {
    let failed = (SampleEval::failed(), ProverStats::default(), false);
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
    // (design-internal reference) — is an elaboration failure; the work
    // the session did before erroring (its open, the check count) still
    // happened, so the counter delta is reported.
    if helpers.is_empty() {
        // The shared base netlist: stream through the session.
        if session.is_none() {
            match ProofSession::open(compiled.netlist(), compiled.consts(), cfg) {
                Ok(open) => *session = Some(Box::new(open)),
                // Unreachable for elaborated netlists (cycles are
                // rejected at elaboration); fail the sample rather than
                // poison the run.
                Err(_) => return failed,
            }
        }
        let proof = session.as_mut().expect("session opened above");
        let before = proof.stats();
        match proof.check(&assertion) {
            Err(_) => (
                SampleEval::failed(),
                proof.stats().delta_since(&before),
                false,
            ),
            Ok((result, stats)) => (sample(&result), stats, false),
        }
    } else {
        // Helper items change the design: a private netlist via the
        // cheap split-elaboration bind, proven one-shot.
        let failed = (SampleEval::failed(), ProverStats::default(), true);
        let netlist = match compiled.bind_extras(&helpers) {
            Ok(nl) => nl,
            Err(_) => return failed,
        };
        let mut one_shot = match ProofSession::open(&netlist, compiled.consts(), cfg) {
            Ok(open) => open,
            Err(_) => return failed,
        };
        let eval = match one_shot.check(&assertion) {
            Err(_) => SampleEval::failed(),
            Ok((result, _)) => sample(&result),
        };
        (eval, one_shot.stats(), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scorer;
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

    /// One-shot: a scorer used once.
    fn one_shot(bound: &CompiledDesign, response: &str) -> SampleEval {
        Scorer::design(bound, ProveConfig::default())
            .score(response)
            .0
    }

    #[test]
    fn golden_assertions_score_func() {
        let case = fsm_case();
        let bound = compile_design(&case).unwrap();
        for g in &case.golden {
            let e = one_shot(&bound, g);
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
        let e = one_shot(&bound, &case.golden[0]);
        assert!(e.syntax && e.func);
    }

    #[test]
    fn malformed_scores_syntax_fail() {
        let case = fsm_case();
        let bound = compile_design(&case).unwrap();
        let e = one_shot(&bound, "assert property (@(posedge clk) (fsm_out");
        assert!(!e.syntax);
    }

    #[test]
    fn internal_signal_scores_syntax_fail() {
        let case = fsm_case();
        let bound = compile_design(&case).unwrap();
        let e = one_shot(
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
        let resp = format!(
            "assert property (@(posedge clk) disable iff (tb_reset) \
             (fsm_out == S0) |-> ##1 (fsm_out == S{wrong}));"
        );
        let e = one_shot(&bound, &resp);
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
        let mut scorer = Scorer::design(&bound, ProveConfig::default());
        let mut stats = ProverStats::default();
        for resp in &responses {
            let (eval, delta) = scorer.score(resp);
            assert_eq!(eval, one_shot(&bound, resp), "{resp}");
            stats.merge(&delta);
        }
        // The shared session opened once; the helper response opened a
        // one-shot session of its own.
        assert_eq!(stats.sessions_opened, 2, "{stats:?}");
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
        let e = one_shot(&bound, &resp);
        assert!(e.syntax && e.func, "{resp}");
    }
}
