//! The NL2SVA half of [`crate::Scorer`], for the NL2SVA-Human and
//! NL2SVA-Machine sub-benchmarks: a response is parsed, checked for
//! formal equivalence against the reference (compiled once per case
//! into an [`EquivSession`]) and BLEU-scored against the reference
//! text.

use crate::bleu::BleuReference;
use crate::metrics::SampleEval;
use fv_core::{EquivSession, ProverStats};
use sv_parser::parse_assertion_str;

/// Scores one response through the case's equivalence session;
/// `reference` is the BLEU side of the text the session was opened
/// with.
pub(crate) fn score(
    equiv: &mut EquivSession<'_>,
    reference: &BleuReference<'_>,
    response: &str,
) -> (SampleEval, ProverStats) {
    let candidate = match parse_assertion_str(response) {
        Ok(a) => a,
        Err(_) => {
            return (
                SampleEval {
                    bleu: reference.score(response),
                    ..SampleEval::failed()
                },
                ProverStats::default(),
            )
        }
    };
    let b = reference.score(response);
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
            // erroring; report that delta so aggregated counters stay
            // exact.
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

#[cfg(test)]
mod tests {
    use crate::{machine_task_specs, EvalEngine, Scorer};
    use fv_core::{ProverStats, SignalTable};
    use fveval_data::{generate_machine_cases, machine_signal_table, MachineGenConfig};
    use fveval_llm::{profiles, Backend, InferenceConfig};

    fn table() -> SignalTable {
        [("a", 1u32), ("b", 1), ("tb_reset", 1)]
            .into_iter()
            .collect()
    }

    /// One-shot: a scorer used once.
    fn score(reference: &str, response: &str, table: &SignalTable) -> crate::SampleEval {
        Scorer::nl(reference, table).score(response).0
    }

    #[test]
    fn exact_response_scores_full() {
        let reference = "assert property (@(posedge clk) a |-> ##1 b);";
        let e = score(reference, reference, &table());
        assert!(e.syntax && e.func && e.partial);
        assert!((e.bleu - 1.0).abs() < 1e-9);
    }

    #[test]
    fn equivalent_rewrite_scores_func_with_lower_bleu() {
        let e = score(
            "assert property (@(posedge clk) a |-> ##1 b);",
            "assert property (@(posedge clk) a |=> b);",
            &table(),
        );
        assert!(e.syntax && e.func && e.partial);
        assert!(e.bleu < 1.0);
    }

    #[test]
    fn weaker_response_scores_partial_only() {
        let e = score(
            "assert property (@(posedge clk) a |-> strong(##[0:$] b));",
            "assert property (@(posedge clk) a |-> ##[1:$] b);",
            &table(),
        );
        assert!(e.syntax && !e.func && e.partial);
    }

    #[test]
    fn hallucination_scores_syntax_fail() {
        let e = score(
            "assert property (@(posedge clk) a |-> s_eventually (b));",
            "assert property (@(posedge clk) a |-> eventually(b));",
            &table(),
        );
        assert!(!e.syntax && !e.func && !e.partial);
    }

    #[test]
    fn unknown_signal_scores_syntax_fail() {
        let e = score(
            "assert property (@(posedge clk) a |-> b);",
            "assert property (@(posedge clk) a |-> ghost);",
            &table(),
        );
        assert!(!e.syntax);
    }

    #[test]
    fn session_scoring_matches_one_shot() {
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
        let mut scorer = Scorer::nl(reference, &t);
        let mut stats = ProverStats::default();
        for resp in responses {
            let (eval, delta) = scorer.score(resp);
            assert_eq!(eval, score(reference, resp, &t), "{resp}");
            stats.merge(&delta);
        }
        assert_eq!(stats.sessions_opened, 1, "{stats:?}");
        assert!(
            stats.unroll_reuse_hits > 0,
            "reference compiled once, served from cache after: {stats:?}"
        );
    }

    #[test]
    fn bad_reference_session_fails_every_sample() {
        let t = table();
        let mut scorer = Scorer::nl("assert property (@(posedge clk) (a", &t);
        for resp in [
            "assert property (@(posedge clk) a);",
            "assert property (@(posedge clk) (a",
        ] {
            assert_eq!(
                scorer.score(resp),
                (crate::SampleEval::failed(), ProverStats::default()),
                "{resp}"
            );
        }
    }

    #[test]
    fn run_machine_end_to_end_smoke() {
        let cases = generate_machine_cases(MachineGenConfig {
            count: 12,
            ..Default::default()
        });
        let tasks = machine_task_specs(&cases, &machine_signal_table());
        let models = profiles();
        let model = models.iter().find(|m| m.name() == "gpt-4o").unwrap();
        let evals = EvalEngine::with_jobs(1).run(model, &tasks, &InferenceConfig::greedy(), 1);
        assert_eq!(evals.len(), 12);
        // The top model should score reasonably on a small sample.
        let summary = crate::MetricSummary::from_first_samples(&evals);
        assert!(summary.syntax > 0.5, "syntax {summary:?}");
        assert!(summary.partial >= summary.func);
        assert!(summary.syntax >= summary.partial);
    }
}
