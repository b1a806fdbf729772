//! [`Scorer`]: the one scoring routine behind every FVEval verdict.

use crate::metrics::SampleEval;
use crate::{design2sva, nl2sva};
use fv_core::{
    CompiledDesign, EquivConfig, EquivSession, ProofSession, ProveConfig, ProverStats, SignalTable,
};
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
}

enum State<'a> {
    /// Every response is a tool failure: the reference does not parse
    /// or the design does not compile.
    Failed,
    /// NL2SVA: the reference text (for BLEU) and the reference compiled
    /// into an equivalence session. Boxed: the session (graph + solver
    /// + simulators) dwarfs the other variants.
    Nl {
        reference: &'a str,
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
    /// The reference is parsed here, once; an unparseable reference
    /// scores every response as a tool failure.
    pub fn nl(reference: &'a str, table: &'a SignalTable) -> Scorer<'a> {
        let state = match parse_assertion_str(reference) {
            Ok(parsed) => State::Nl {
                reference,
                equiv: Box::new(EquivSession::open(parsed, table, EquivConfig::default())),
            },
            Err(_) => State::Failed,
        };
        Scorer { state }
    }

    /// Scores Design2SVA responses against `compiled` under the prover
    /// bounds `cfg`.
    pub fn design(compiled: &'a CompiledDesign, cfg: ProveConfig) -> Scorer<'a> {
        Scorer {
            state: State::Design {
                compiled,
                cfg,
                session: None,
            },
        }
    }

    /// A scorer that fails every response, for a design whose
    /// collateral does not compile.
    pub(crate) fn failed() -> Scorer<'a> {
        Scorer {
            state: State::Failed,
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
        match &mut self.state {
            State::Failed => (SampleEval::failed(), ProverStats::default()),
            State::Nl { reference, equiv } => nl2sva::score(equiv, reference, response),
            State::Design {
                compiled,
                cfg,
                session,
            } => design2sva::score(compiled, *cfg, session, response),
        }
    }
}
