//! [`Scorer`]: the one scoring routine behind every FVEval verdict.

use crate::bleu::BleuReference;
use crate::metrics::SampleEval;
use crate::{design2sva, nl2sva};
use fv_core::{
    CompiledDesign, EquivConfig, EquivSession, ProofSession, ProveConfig, ProverStats, SignalTable,
};
use std::collections::HashMap;
use sv_parser::parse_assertion_str;

/// One case's scoring state.
///
/// Each sub-task scores a response with one tool check: the parser
/// decides syntax, formal equivalence against the reference (NL2SVA)
/// or model checking against the compiled design (Design2SVA) decides
/// functionality, and BLEU is taken against the reference text.
///
/// Scoring is compile-once / score-many: a scorer holds one case's
/// session, and every response scored through it — across samples and
/// models — shares the compiled reference or the unrolled design and
/// one solver. A one-shot score is a scorer used once; the session
/// changes how much work a check costs, never its verdict.
///
/// A response text the scorer has already scored gets its first
/// verdict back without being parsed, BLEU-scored or checked again. Its
/// counter delta is what the session's own check memo reports for a
/// repeat: one [`ProverStats::check_repeats`] if the first scoring
/// reached a session check, nothing otherwise. Design2SVA responses
/// that carry helper items are the exception: each one binds its
/// helpers and opens a one-shot session of its own, every time.
///
/// # Examples
///
/// ```
/// use fveval_core::Scorer;
/// use fv_core::SignalTable;
///
/// let table: SignalTable = [("a", 1u32), ("b", 1)].into_iter().collect();
/// let mut scorer = Scorer::nl("assert property (@(posedge clk) a |-> ##1 b);", &table);
/// let (eval, stats) = scorer.score("assert property (@(posedge clk) a |=> b);");
/// assert!(eval.syntax && eval.func && eval.bleu < 1.0);
/// assert_eq!(stats.sessions_opened, 1);
/// ```
pub struct Scorer<'a> {
    state: State<'a>,
    /// Per response text scored so far: its verdict, and whether its
    /// first scoring reached a session check.
    scored: HashMap<String, (SampleEval, bool)>,
}

enum State<'a> {
    /// Every response is a tool failure: the reference does not parse
    /// or the design does not compile.
    Failed,
    /// NL2SVA: the reference's BLEU side (tokens and n-grams) and the
    /// reference compiled into an equivalence session. Boxed: the
    /// session (graph + solver + simulators) dwarfs the other variants.
    Nl {
        bleu: BleuReference<'a>,
        equiv: Box<EquivSession<'a>>,
    },
    /// Design2SVA: the proof session over the compiled base netlist,
    /// opened on the first helper-free response.
    Design {
        compiled: &'a CompiledDesign,
        cfg: ProveConfig,
        session: Option<Box<ProofSession<'a>>>,
    },
}

impl<'a> Scorer<'a> {
    /// Scores NL2SVA responses against `reference` in the signal scope
    /// `table`, under the default horizon ([`EquivConfig::default`]).
    /// The reference is parsed and tokenized for BLEU here, once; an
    /// unparseable reference scores every response as a tool failure.
    pub fn nl(reference: &'a str, table: &'a SignalTable) -> Scorer<'a> {
        let state = match parse_assertion_str(reference) {
            Ok(parsed) => State::Nl {
                bleu: BleuReference::new(reference),
                equiv: Box::new(EquivSession::open(parsed, table, EquivConfig::default())),
            },
            Err(_) => State::Failed,
        };
        Scorer::with_state(state)
    }

    /// Scores Design2SVA responses against `compiled` with the proving
    /// engine `cfg` selects.
    pub fn design(compiled: &'a CompiledDesign, cfg: ProveConfig) -> Scorer<'a> {
        Scorer::with_state(State::Design {
            compiled,
            cfg,
            session: None,
        })
    }

    /// A scorer that fails every response, for a design whose
    /// collateral does not compile.
    pub(crate) fn failed() -> Scorer<'a> {
        Scorer::with_state(State::Failed)
    }

    fn with_state(state: State<'a>) -> Scorer<'a> {
        Scorer {
            state,
            scored: HashMap::new(),
        }
    }

    /// Scores one response, returning the verdict and the prover
    /// counters this response added (zero when scoring never reached
    /// the prover).
    ///
    /// A response that does not parse or reads a signal outside the
    /// scope scores `syntax = false`, the paper's tool-failure verdict;
    /// so does a Design2SVA response without an assertion or whose
    /// helper code does not elaborate. Otherwise NL2SVA `func` and
    /// `partial` are full and one-way equivalence with the reference,
    /// and Design2SVA `func` = `partial` = "the assertion was proven".
    /// BLEU is taken against the NL2SVA reference (Design2SVA has none
    /// and scores 0).
    pub fn score(&mut self, response: &str) -> (SampleEval, ProverStats) {
        if let Some(&(eval, checked)) = self.scored.get(response) {
            let stats = if checked {
                ProverStats::repeat()
            } else {
                ProverStats::default()
            };
            return (eval, stats);
        }
        let (eval, stats, helpers) = match &mut self.state {
            State::Failed => (SampleEval::failed(), ProverStats::default(), false),
            State::Nl { bleu, equiv } => {
                let (eval, stats) = nl2sva::score(equiv, bleu, response);
                (eval, stats, false)
            }
            State::Design {
                compiled,
                cfg,
                session,
            } => design2sva::score(compiled, *cfg, session, response),
        };
        if !helpers {
            let checked = stats.session_checks + stats.check_repeats > 0;
            self.scored.insert(response.to_owned(), (eval, checked));
        }
        (eval, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design2sva::compile_design;
    use fveval_data::{generate_fsm, FsmParams};
    use sv_parser::MAX_NESTING;

    fn table() -> SignalTable {
        [("a", 1u32), ("b", 1), ("tb_reset", 1)]
            .into_iter()
            .collect()
    }

    /// Scores each response twice in a row and checks that the second
    /// score repeats the first with no prover work.
    fn assert_repeats_are_free(scorer: &mut Scorer<'_>, responses: &[&str]) -> ProverStats {
        let mut total = ProverStats::default();
        for &resp in responses {
            let (first, first_stats) = scorer.score(resp);
            let (again, again_stats) = scorer.score(resp);
            assert_eq!(again, first, "{resp}");
            assert_eq!(
                (
                    again_stats.sat_calls,
                    again_stats.queries(),
                    again_stats.session_checks
                ),
                (0, 0, 0),
                "{resp}: {again_stats:?}"
            );
            total.merge(&first_stats);
            total.merge(&again_stats);
        }
        total
    }

    #[test]
    fn a_repeated_nl2sva_response_scores_the_same_with_no_prover_work() {
        let t = table();
        let reference = "assert property (@(posedge clk) a |-> ##1 b);";
        let mut scorer = Scorer::nl(reference, &t);
        let stats = assert_repeats_are_free(
            &mut scorer,
            &[
                reference,
                "assert property (@(posedge clk) a |=> b);",
                "assert property (@(posedge clk) a |-> ghost);",
                "assert property (@(posedge clk) (a",
                "assert property (@(posedge clk) b);",
                "assert property (@(posedge clk) a |-> (b && tb_reset));",
            ],
        );
        // Five responses parse; each is checked once and repeated once.
        assert_eq!((stats.session_checks, stats.check_repeats), (5, 5));
    }

    #[test]
    fn a_repeated_design2sva_response_scores_the_same_with_no_prover_work() {
        let case = generate_fsm(&FsmParams {
            n_states: 4,
            n_edges: 3,
            width: 8,
            guard_depth: 1,
            seed: 21,
        });
        let compiled = compile_design(&case).unwrap();
        let mut responses: Vec<&str> = case.golden.iter().map(String::as_str).collect();
        responses.extend([
            "assert property (@(posedge clk) (fsm_out",
            "assert property (@(posedge clk) state == S0);",
            "assert property (@(posedge clk) disable iff (tb_reset) fsm_out == S1);",
        ]);
        let mut scorer = Scorer::design(&compiled, ProveConfig::default());
        let stats = assert_repeats_are_free(&mut scorer, &responses);
        let checked = responses.len() as u64 - 1;
        assert_eq!(
            (stats.session_checks, stats.check_repeats),
            (checked, checked)
        );
    }

    /// Scores `response` twice and checks that the repeat returns the
    /// first verdict with `repeat_stats` as its counter delta.
    fn assert_repeat(scorer: &mut Scorer<'_>, response: &str, repeat_stats: ProverStats) {
        let (first, _) = scorer.score(response);
        let (again, again_stats) = scorer.score(response);
        assert_eq!(again, first, "{response}");
        assert_eq!(again_stats, repeat_stats, "{response}");
    }

    #[test]
    fn a_repeated_text_reports_what_the_session_memo_reports() {
        // NL2SVA: a parse failure never reaches the session; every
        // response that parses is checked once, even when the check
        // errors or the clocks differ, and a repeat counts one
        // `check_repeats`.
        let t = table();
        let mut nl = Scorer::nl("assert property (@(posedge clk) a |-> ##1 b);", &t);
        for (response, repeat_stats) in [
            ("assert property (@(posedge clk) (a", ProverStats::default()),
            (
                "assert property (@(posedge clk) a |-> ghost);",
                ProverStats::repeat(),
            ),
            (
                "assert property (@(negedge clk) a |-> ##1 b);",
                ProverStats::repeat(),
            ),
            ("assert property (@(posedge clk) b);", ProverStats::repeat()),
            (
                "assert property (@(posedge clk) a |=> b);",
                ProverStats::repeat(),
            ),
        ] {
            assert_repeat(&mut nl, response, repeat_stats);
        }
        // Respacing a text makes a new text but the same candidate: the
        // session's own memo answers it, with the same delta.
        let respaced = "assert property (@(posedge clk)  a |=> b);";
        assert_eq!(nl.score(respaced).1, ProverStats::repeat());
        assert_repeat(&mut nl, respaced, ProverStats::repeat());

        // Design2SVA, the same; and a helper-carrying response binds
        // and proves in a one-shot session of its own every time.
        let case = generate_fsm(&FsmParams {
            n_states: 4,
            n_edges: 3,
            width: 8,
            guard_depth: 1,
            seed: 21,
        });
        let compiled = compile_design(&case).unwrap();
        let mut design = Scorer::design(&compiled, ProveConfig::default());
        for (response, repeat_stats) in [
            (
                "assert property (@(posedge clk) (fsm_out",
                ProverStats::default(),
            ),
            ("logic x;", ProverStats::default()),
            (
                "assert property (@(posedge clk) state == S0);",
                ProverStats::repeat(),
            ),
            (
                "assert property (@(posedge clk) disable iff (tb_reset) fsm_out == S1);",
                ProverStats::repeat(),
            ),
            (case.golden[0].as_str(), ProverStats::repeat()),
        ] {
            assert_repeat(&mut design, response, repeat_stats);
        }
        let helper = "logic [FSM_WIDTH-1:0] mirror;\nassign mirror = fsm_out;\n\
                      assert property (@(posedge clk) mirror == fsm_out);";
        let (first, first_stats) = design.score(helper);
        assert!(first.syntax && first.func, "{first:?}");
        assert_eq!(
            (first_stats.sessions_opened, first_stats.session_checks),
            (1, 1)
        );
        assert_repeat(&mut design, helper, first_stats);
    }

    #[test]
    fn assertions_just_under_the_nesting_limit_score_on_a_default_stack() {
        // The engine's scoped workers run on the default 2 MiB stack.
        // The property and its expression take two nesting levels.
        let n = MAX_NESTING - 2;
        let scored = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let t = table();
                let wrap = |body: String| format!("assert property (@(posedge clk) {body});");
                let chain = |link: &str| wrap(format!("a{}", link.repeat(n)));
                let texts = [
                    wrap(format!("{}a{}", "(".repeat(n), ")".repeat(n))),
                    wrap(format!("{}a", "!".repeat(n))),
                    wrap(format!("{}a", "not ".repeat(n))),
                    // Parentheses around a property go through the
                    // property grammar, the deepest stack per level.
                    wrap(format!("{}a |-> b{}", "(".repeat(n - 1), ")".repeat(n - 1))),
                    // Chains the parser builds in loops nest the AST one
                    // level per link, and the encoders recurse on it.
                    chain(" + a"),
                    chain(" && a"),
                    chain(" | a"),
                    chain(" or a"),
                    chain(" and a"),
                    chain(" ##0 a"),
                    chain("[0]"),
                ];
                let mut scorer = Scorer::nl("assert property (@(posedge clk) a);", &t);
                texts
                    .iter()
                    .map(|text| scorer.score(text).0.syntax)
                    .collect::<Vec<_>>()
            })
            .unwrap()
            .join()
            .expect("scoring stays within the default stack");
        assert_eq!(scored, [true; 11]);
    }
}
