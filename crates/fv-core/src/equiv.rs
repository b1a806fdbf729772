//! Assertion-to-assertion formal equivalence — the reproduction of the
//! paper's custom Jasper equivalence-checking function.
//!
//! The check is layered for speed. Both assertions are compiled over
//! one shared symbolic trace into one structurally-hashed AIG, so the
//! two implication directions (`ref ∧ ¬cand`, `cand ∧ ¬ref`) share
//! every common subterm — syntactically equal assertions collapse to
//! the *same* AIG literal and both directions fold to constant false
//! before any solver exists. Directions that survive folding are
//! attacked with 64-way random simulation (a witness pattern decides a
//! direction SAT without a SAT call); only the remainder goes to the
//! CDCL solver, and both directions reuse a single [`Solver`] via
//! [`Solver::solve_with`] assumptions. [`ProverStats`] reports which
//! layer decided what.

use crate::cex::CexValue;
use crate::env::FreeTraceEnv;
use crate::error::EncodeError;
use crate::monitor::{encode_assertion, horizon_for};
use crate::rng::splitmix64;
use crate::stats::ProverStats;
use crate::table::SignalTable;
use fv_aig::{Aig, AigLit, BitSim, CnfEmitter};
use fv_sat::Solver;
use std::collections::HashMap;
use sv_ast::Assertion;

/// Random-simulation effort: rounds of 64 patterns each before falling
/// back to SAT.
const SIM_ROUNDS: usize = 4;

/// Hard cap on the trace horizon: a pair needing more cycles is an
/// [`EncodeError::HorizonExceeded`].
const MAX_HORIZON: u32 = 64;

/// Configuration for the bounded equivalence check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquivConfig {
    /// Extra cycles granted beyond the assertions' bounded depth when
    /// unbounded operators are present.
    pub slack: u32,
}

impl Default for EquivConfig {
    fn default() -> EquivConfig {
        EquivConfig { slack: 4 }
    }
}

/// The four-way verdict of the equivalence prover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Equivalence {
    /// Logically equivalent on all traces (full functional match).
    Equivalent,
    /// The reference implies the candidate (candidate is weaker).
    RefImpliesCand,
    /// The candidate implies the reference (candidate is stronger).
    CandImpliesRef,
    /// Neither direction holds.
    Inequivalent,
}

impl Equivalence {
    /// The paper's strict *functional* metric.
    pub fn is_equivalent(self) -> bool {
        self == Equivalence::Equivalent
    }

    /// The paper's relaxed *partial functional* metric: full equivalence
    /// or a one-way implication.
    pub fn is_partial(self) -> bool {
        !matches!(self, Equivalence::Inequivalent)
    }
}

/// A distinguishing trace: per-cycle signal valuations where the two
/// assertions disagree.
///
/// # Trace format
///
/// One [`CexValue`] per `(signal, cycle)` observation, sorted by cycle
/// then signal name; negative cycles are the sampled pre-history used
/// by `$past`/`$rose`. `Display` renders one line per observation with
/// values as SystemVerilog sized literals at each signal's declared
/// width:
///
/// ```text
///   cycle  -1: rd_pop = 1'b0
///   cycle   0: wr_push = 1'b1
///   cycle   1: fifo_cnt = 8'h03
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCex {
    /// The observations, sorted by `(cycle, signal)`.
    pub values: Vec<CexValue>,
}

impl std::fmt::Display for TraceCex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        crate::cex::fmt_trace(&self.values, f)
    }
}

/// Outcome of [`check_equivalence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivOutcome {
    /// The verdict.
    pub verdict: Equivalence,
    /// Horizon (trace length in cycles) used for the check.
    pub horizon: u32,
    /// A distinguishing trace when the verdict is not `Equivalent`
    /// (a trace where exactly one assertion holds).
    pub cex: Option<TraceCex>,
    /// How the two implication queries were discharged.
    pub stats: ProverStats,
}

/// How one implication direction was decided.
enum DirVerdict {
    /// The difference is satisfiable: the implication does NOT hold.
    Sat(TraceCex),
    /// The difference is unsatisfiable: the implication holds.
    Unsat,
}

/// Proves bounded-trace equivalence between a `reference` and a
/// `candidate` assertion over free signals declared in `table`.
///
/// Mirrors the paper's evaluation exactly: the queries `ref ∧ ¬cand`
/// and `cand ∧ ¬ref` are decided (by folding, simulation, or SAT —
/// see the module docs); both UNSAT means [`Equivalence::Equivalent`],
/// one UNSAT means one-way implication (the *partial* metric), both SAT
/// means [`Equivalence::Inequivalent`].
///
/// # Errors
///
/// [`EncodeError`] when either assertion references unknown signals or
/// unsupported constructs — the harness scores these as tool/elaboration
/// failures, like Jasper would.
///
/// # Examples
///
/// ```
/// use fv_core::{check_equivalence, EquivConfig, Equivalence, SignalTable};
/// use sv_parser::parse_assertion_str;
///
/// let table: SignalTable = [("a", 1u32), ("b", 1)].into_iter().collect();
/// let r = parse_assertion_str("assert property (@(posedge clk) a |-> ##1 b);").unwrap();
/// let c = parse_assertion_str("assert property (@(posedge clk) a |=> b);").unwrap();
/// let out = check_equivalence(&r, &c, &table, EquivConfig::default()).unwrap();
/// assert_eq!(out.verdict, Equivalence::Equivalent);
/// ```
pub fn check_equivalence(
    reference: &Assertion,
    candidate: &Assertion,
    table: &SignalTable,
    cfg: EquivConfig,
) -> Result<EquivOutcome, EncodeError> {
    EquivSession::open(reference.clone(), table, cfg).check(candidate)
}

/// A long-lived equivalence context for one reference assertion: the
/// reference is compiled *once* onto a shared symbolic trace, and a
/// stream of candidate assertions is checked against it on the same
/// structurally-hashed graph, simulators, and SAT solver.
///
/// This is the NL2SVA counterpart of [`crate::ProofSession`]: when many
/// samples and models answer the same case, the reference encoding,
/// the trace slots it allocated, and the solver's learned clauses all
/// amortize across every candidate. A candidate equal to the reference
/// strashes to the reference's literal, so both difference cones fold
/// to constant false with zero solver work.
///
/// Because the monitor horizon depends on the candidate, reference
/// encodings are cached *per horizon*; serving a cached one counts as a
/// [`ProverStats::unroll_reuse_hits`]. Verdicts are path-independent:
/// a session returns the same [`Equivalence`] for a candidate as a
/// fresh [`check_equivalence`] call.
///
/// That makes a session's outcome a pure function of the candidate, so
/// the session memoizes it: a candidate it has already checked (the
/// same parsed assertion, so whitespace and redundant parentheses do
/// not matter) gets the first check's outcome back, counterexample and
/// error included, with no encoding, simulation or solver work. The
/// repeat's counter delta is one [`ProverStats::check_repeats`] and
/// nothing else.
///
/// # Examples
///
/// ```
/// use fv_core::{EquivConfig, EquivSession, Equivalence, SignalTable};
/// use sv_parser::parse_assertion_str;
///
/// let table: SignalTable = [("a", 1u32), ("b", 1)].into_iter().collect();
/// let r = parse_assertion_str("assert property (@(posedge clk) a |-> ##1 b);").unwrap();
/// let mut session = EquivSession::open(r, &table, EquivConfig::default());
/// let c = parse_assertion_str("assert property (@(posedge clk) a |=> b);").unwrap();
/// assert_eq!(
///     session.check(&c).unwrap().verdict,
///     Equivalence::Equivalent
/// );
/// let repeat = session.check(&c).unwrap();
/// assert_eq!(repeat.verdict, Equivalence::Equivalent);
/// let stats = session.stats();
/// assert_eq!(
///     (stats.sessions_opened, stats.session_checks, stats.check_repeats),
///     (1, 1, 1)
/// );
/// ```
pub struct EquivSession<'a> {
    reference: Assertion,
    cfg: EquivConfig,
    g: Aig,
    env: FreeTraceEnv<'a>,
    /// Reference encodings by horizon (candidates set the horizon),
    /// each with the trace slots the encoding read — restored as
    /// "touched" on a cache hit so counterexamples still carry the
    /// reference's signals.
    ref_holds: HashMap<u32, (AigLit, Vec<usize>)>,
    solver: Solver,
    em: CnfEmitter,
    solver_used: bool,
    /// `SIM_ROUNDS` persistent 64-way simulators, each with its own
    /// stream state; they extend lazily over nodes new since their
    /// last use.
    sims: Vec<(BitSim, u64)>,
    /// The outcome of every candidate checked so far, keyed by the
    /// parsed candidate; repeats are answered from here.
    memo: HashMap<Assertion, Result<EquivOutcome, EncodeError>>,
    /// Cumulative counters (seeded with `sessions_opened = 1`).
    stats: ProverStats,
}

impl<'a> EquivSession<'a> {
    /// Opens an equivalence context for `reference` over the signal
    /// scope `table`. The reference is *not* validated here — its first
    /// encoding happens on the first [`EquivSession::check`], so an
    /// unknown signal in the reference surfaces there, exactly as in
    /// [`check_equivalence`].
    pub fn open(
        reference: Assertion,
        table: &'a SignalTable,
        cfg: EquivConfig,
    ) -> EquivSession<'a> {
        let _span = fv_trace::span!("equiv.open");
        let mut seed = 0x5EED_0F0E_D1FF_u64;
        let sims = (0..SIM_ROUNDS)
            .map(|_| (BitSim::new(), splitmix64(&mut seed)))
            .collect();
        EquivSession {
            reference,
            cfg,
            g: Aig::new(),
            env: FreeTraceEnv::new(table),
            ref_holds: HashMap::new(),
            solver: Solver::new(),
            em: CnfEmitter::new(),
            solver_used: false,
            sims,
            memo: HashMap::new(),
            // `sessions_opened` is charged to the first check.
            stats: ProverStats::default(),
        }
    }

    /// The reference assertion this session checks candidates against.
    pub fn reference(&self) -> &Assertion {
        &self.reference
    }

    /// Cumulative counters over the session's lifetime. A session that
    /// checked at least one candidate reports `sessions_opened = 1`
    /// (the open is charged to the first check, so aggregating
    /// per-check deltas yields the same totals).
    pub fn stats(&self) -> ProverStats {
        self.stats
    }

    /// Checks one candidate against the reference on the shared trace.
    /// The outcome's [`EquivOutcome::stats`] holds the counter *delta*
    /// this check added (the first check's delta carries the session's
    /// `sessions_opened`). A candidate the session has checked before
    /// gets its first outcome back, and its delta is one
    /// [`ProverStats::check_repeats`].
    ///
    /// # Errors
    ///
    /// [`EncodeError`] as for [`check_equivalence`]; the session stays
    /// usable for further candidates.
    pub fn check(&mut self, candidate: &Assertion) -> Result<EquivOutcome, EncodeError> {
        if let Some(first) = self.memo.get(candidate) {
            self.stats.check_repeats += 1;
            return first.clone().map(|out| EquivOutcome {
                stats: ProverStats::repeat(),
                ..out
            });
        }
        let outcome = self.check_fresh(candidate);
        self.memo.insert(candidate.clone(), outcome.clone());
        outcome
    }

    /// [`EquivSession::check`] for a candidate the session has not
    /// checked yet.
    fn check_fresh(&mut self, candidate: &Assertion) -> Result<EquivOutcome, EncodeError> {
        let _span = fv_trace::span!("equiv.check");
        let before = self.stats;
        // The open is charged to the first check so that summing
        // per-check deltas reproduces the cumulative counters.
        self.stats.sessions_opened = 1;
        self.stats.session_checks += 1;
        // Different clocking events cannot be reconciled by the bounded
        // single-clock encoding; treat as inequivalent outright.
        if self.reference.clock != candidate.clock {
            return Ok(EquivOutcome {
                verdict: Equivalence::Inequivalent,
                horizon: 0,
                cex: None,
                stats: self.stats.delta_since(&before),
            });
        }
        let horizon = horizon_for(&self.reference, Some(candidate), self.cfg.slack);
        if horizon > MAX_HORIZON {
            return Err(EncodeError::HorizonExceeded {
                needed: horizon,
                max: MAX_HORIZON,
            });
        }
        self.env.reset_touched();
        let ref_holds = match self.ref_holds.get(&horizon) {
            Some((h, slots)) => {
                // The reference monitor at this horizon is already on
                // the graph: compile-once pays off. Its trace slots
                // still belong to this check's counterexamples.
                self.stats.unroll_reuse_hits += 1;
                self.env.mark_touched(slots);
                *h
            }
            None => {
                let h = encode_assertion(&mut self.g, &self.reference, horizon, &mut self.env)?;
                self.ref_holds
                    .insert(horizon, (h, self.env.touched_indices()));
                h
            }
        };
        let cand_holds = encode_assertion(&mut self.g, candidate, horizon, &mut self.env)?;

        // The two difference cones, built on the shared strashed graph.
        let d_rc = self.g.and(ref_holds, !cand_holds); // SAT ⇒ ref does NOT imply cand
        let d_cr = self.g.and(cand_holds, !ref_holds); // SAT ⇒ cand does NOT imply ref

        let mut rc: Option<DirVerdict> = None;
        let mut cr: Option<DirVerdict> = None;

        // Layer 1: structural hashing + constant folding. Equal
        // encodings collapse to the same literal and both differences
        // fold to FALSE.
        if d_rc == AigLit::FALSE {
            self.stats.ternary_kills += 1;
            rc = Some(DirVerdict::Unsat);
        }
        if d_cr == AigLit::FALSE {
            self.stats.ternary_kills += 1;
            cr = Some(DirVerdict::Unsat);
        }

        // Layer 2: random simulation. A non-zero word is a concrete
        // distinguishing trace — the direction is SAT with no solver.
        for (sim, rng) in &mut self.sims {
            if rc.is_some() && cr.is_some() {
                break;
            }
            sim.extend(&self.g, &mut |_| splitmix64(rng));
            if rc.is_none() {
                let w = sim.lit(d_rc);
                if w != 0 {
                    self.stats.sim_kills += 1;
                    rc = Some(DirVerdict::Sat(sim_cex(&self.env, sim, w.trailing_zeros())));
                }
            }
            if cr.is_none() {
                let w = sim.lit(d_cr);
                if w != 0 {
                    self.stats.sim_kills += 1;
                    cr = Some(DirVerdict::Sat(sim_cex(&self.env, sim, w.trailing_zeros())));
                }
            }
        }

        // Layer 3: SAT, one shared solver for whatever remains across
        // the whole session. Later candidates reuse everything earlier
        // queries taught the solver.
        if rc.is_none() || cr.is_none() {
            let lr = self.em.emit(&self.g, ref_holds, &mut self.solver);
            let lc = self.em.emit(&self.g, cand_holds, &mut self.solver);
            for (slot, assumptions, diff) in
                [(&mut rc, [lr, !lc], d_rc), (&mut cr, [lc, !lr], d_cr)]
            {
                if slot.is_some() {
                    continue;
                }
                self.stats.sat_calls += 1;
                if self.solver_used {
                    self.stats.solver_reuse_hits += 1;
                }
                self.solver_used = true;
                *slot = Some(if self.solver.solve_with(&assumptions).is_sat() {
                    let cex = sat_cex(&self.env, &self.em, &self.solver);
                    debug_assert!(
                        replay_trace_cex(&self.g, &self.env, &cex, diff),
                        "SAT model must replay to a real distinguishing trace"
                    );
                    DirVerdict::Sat(cex)
                } else {
                    DirVerdict::Unsat
                });
            }
        }

        let (rc, cr) = (
            rc.expect("direction decided"),
            cr.expect("direction decided"),
        );
        let verdict = match (&rc, &cr) {
            (DirVerdict::Unsat, DirVerdict::Unsat) => Equivalence::Equivalent,
            // UNSAT(ref ∧ ¬cand) proves ref ⇒ cand.
            (DirVerdict::Unsat, DirVerdict::Sat(_)) => Equivalence::RefImpliesCand,
            (DirVerdict::Sat(_), DirVerdict::Unsat) => Equivalence::CandImpliesRef,
            (DirVerdict::Sat(_), DirVerdict::Sat(_)) => Equivalence::Inequivalent,
        };
        let cex = match (rc, cr) {
            (DirVerdict::Sat(c), _) | (DirVerdict::Unsat, DirVerdict::Sat(c)) => Some(c),
            _ => None,
        };
        Ok(EquivOutcome {
            verdict,
            horizon,
            cex,
            stats: self.stats.delta_since(&before),
        })
    }
}

/// Trace slots of the *current* check — on a shared session this trims
/// a counterexample to the signals the reference + candidate pair
/// actually reads (a fresh single-check environment has no others).
fn log_entries<'e>(
    env: &'e FreeTraceEnv<'_>,
) -> impl Iterator<Item = (&'e str, i32, &'e fv_aig::BitVec)> + 'e {
    env.touched_log().map(|(n, c, bv)| (n.as_str(), *c, bv))
}

/// Decodes one simulation pattern (bit position `pattern`) into a trace.
fn sim_cex(env: &FreeTraceEnv, sim: &BitSim, pattern: u32) -> TraceCex {
    TraceCex {
        values: crate::cex::decode_trace(log_entries(env), |bit| sim.lit_bit(bit, pattern)),
    }
}

/// Decodes the solver model into a trace.
fn sat_cex(env: &FreeTraceEnv, em: &CnfEmitter, solver: &Solver) -> TraceCex {
    TraceCex {
        values: crate::cex::decode_trace(
            log_entries(env),
            crate::cex::solver_bit_reader(em, solver),
        ),
    }
}

/// Replays an extracted trace through the concrete AIG evaluator and
/// confirms it really sets `diff` — the soundness check guarding the
/// SAT-model decoding.
fn replay_trace_cex(g: &Aig, env: &FreeTraceEnv, cex: &TraceCex, diff: AigLit) -> bool {
    let mut inputs = vec![false; g.num_inputs()];
    for (name, cycle, bv) in env.touched_log() {
        let Some(v) = cex
            .values
            .iter()
            .find(|c| c.signal == *name && c.cycle == *cycle)
            .map(|c| c.value)
        else {
            return false;
        };
        for (i, &bit) in bv.bits().iter().enumerate() {
            if let Some(idx) = g.input_index(bit.node()) {
                inputs[idx as usize] = ((v >> i) & 1 == 1) ^ bit.is_inverted();
            }
        }
    }
    let ev = fv_aig::AigEvaluator::combinational(g, &inputs);
    ev.lit(diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_parser::parse_assertion_str;

    fn table() -> SignalTable {
        let mut t: SignalTable = [
            ("a", 1u32),
            ("b", 1),
            ("c", 1),
            ("tb_reset", 1),
            ("wr_push", 1),
            ("rd_pop", 1),
            ("busy", 1),
            ("hold", 1),
            ("cont_gnt", 1),
            ("sig_D", 1),
            ("sig_F", 1),
            ("sig_G", 1),
            ("sig_H", 4),
            ("sig_J", 1),
        ]
        .into_iter()
        .collect();
        t.insert_const("S0", 2, 0);
        t
    }

    fn check(reference: &str, candidate: &str) -> Equivalence {
        let r = parse_assertion_str(reference).unwrap();
        let c = parse_assertion_str(candidate).unwrap();
        check_equivalence(&r, &c, &table(), EquivConfig::default())
            .unwrap()
            .verdict
    }

    #[test]
    fn identical_assertions_are_equivalent() {
        let src = "assert property (@(posedge clk) disable iff (tb_reset) \
                   wr_push |-> strong(##[0:$] rd_pop));";
        assert_eq!(check(src, src), Equivalence::Equivalent);
    }

    #[test]
    fn identical_assertions_fold_without_sat() {
        // Structural hashing maps both encodings to the same literal;
        // no SAT call and no simulation round is needed.
        let src = "assert property (@(posedge clk) a |-> ##2 b);";
        let a = parse_assertion_str(src).unwrap();
        let out = check_equivalence(&a, &a, &table(), EquivConfig::default()).unwrap();
        assert_eq!(out.verdict, Equivalence::Equivalent);
        assert_eq!(out.stats.sat_calls, 0, "{:?}", out.stats);
        assert_eq!(out.stats.ternary_kills, 2);
    }

    #[test]
    fn inequivalent_pair_is_usually_sim_killed() {
        // A plainly violable difference is found by random patterns
        // without the solver.
        let r = parse_assertion_str("assert property (@(posedge clk) a);").unwrap();
        let c = parse_assertion_str("assert property (@(posedge clk) b);").unwrap();
        let out = check_equivalence(&r, &c, &table(), EquivConfig::default()).unwrap();
        assert_eq!(out.verdict, Equivalence::Inequivalent);
        assert_eq!(out.stats.sim_kills, 2, "{:?}", out.stats);
        assert_eq!(out.stats.sat_calls, 0);
    }

    #[test]
    fn one_way_implication_reuses_one_solver() {
        // The UNSAT direction must go to SAT; the SAT direction is
        // sim-killed first, so exactly one solver call happens.
        let out = {
            let r = parse_assertion_str("assert property (@(posedge clk) a |-> b);").unwrap();
            let c =
                parse_assertion_str("assert property (@(posedge clk) a |-> (b && c));").unwrap();
            check_equivalence(&r, &c, &table(), EquivConfig::default()).unwrap()
        };
        assert_eq!(out.verdict, Equivalence::CandImpliesRef);
        assert!(out.stats.sat_calls >= 1);
        assert!(out.stats.sim_kills >= 1, "{:?}", out.stats);
    }

    #[test]
    fn semantically_equal_spellings_are_equivalent() {
        assert_eq!(
            check(
                "assert property (@(posedge clk) (a && b) !== 1'b1);",
                "assert property (@(posedge clk) !(a && b));"
            ),
            Equivalence::Equivalent
        );
        assert_eq!(
            check(
                "assert property (@(posedge clk) a |=> b);",
                "assert property (@(posedge clk) a |-> ##1 b);"
            ),
            Equivalence::Equivalent
        );
    }

    #[test]
    fn paper_fifo_partial_example() {
        // Figure 7: reference strong(##[0:$]) vs candidate weak ##[1:$]:
        // the reference implies the (weak, hence unfalsifiable) candidate.
        let verdict = check(
            "asrt: assert property (@(posedge clk) disable iff (tb_reset) \
             wr_push |-> strong(##[0:$] rd_pop));",
            "asrt: assert property (@(posedge clk) disable iff (tb_reset) \
             wr_push |-> ##[1:$] rd_pop);",
        );
        assert_eq!(verdict, Equivalence::RefImpliesCand);
        assert!(verdict.is_partial());
        assert!(!verdict.is_equivalent());
    }

    #[test]
    fn paper_arbiter_partial_example() {
        // Figure 7: $onehot0 reference vs "not all three" candidate.
        let verdict = check(
            "asrt: assert property (@(posedge clk) disable iff (tb_reset) \
             !$onehot0({hold,busy,cont_gnt}) !== 1'b1);",
            "asrt: assert property (@(posedge clk) disable iff (tb_reset) \
             !(busy && hold && cont_gnt));",
        );
        assert_eq!(verdict, Equivalence::RefImpliesCand);
    }

    #[test]
    fn paper_machine_countones_example() {
        // Figure 8: reference conjunction vs candidate implication form.
        let verdict = check(
            "assert property(@(posedge clk) ((sig_D || ^sig_H) && sig_F));",
            "assert property (@(posedge clk) \
             (sig_D || ($countones(sig_H) % 2 == 1)) |-> sig_F);",
        );
        assert_eq!(verdict, Equivalence::RefImpliesCand);
        // And the exact rewrite is fully equivalent.
        assert_eq!(
            check(
                "assert property(@(posedge clk) ((sig_D || ^sig_H) && sig_F));",
                "assert property(@(posedge clk) \
                 ((sig_D || ($countones(sig_H) % 2 == 1)) && sig_F));"
            ),
            Equivalence::Equivalent
        );
    }

    #[test]
    fn inequivalent_pair_with_cex() {
        let r = parse_assertion_str("assert property (@(posedge clk) a |-> ##2 b);").unwrap();
        let c = parse_assertion_str("assert property (@(posedge clk) a |-> ##1 b);").unwrap();
        let out = check_equivalence(&r, &c, &table(), EquivConfig::default()).unwrap();
        assert_eq!(out.verdict, Equivalence::Inequivalent);
        let cex = out.cex.expect("distinguishing trace expected");
        // Width-aware rendering: every 1-bit signal prints as 1'b0/1'b1.
        let rendered = cex.to_string();
        assert!(
            rendered.contains("1'b"),
            "sized-literal rendering: {rendered}"
        );
    }

    #[test]
    fn stronger_candidate_detected() {
        // Candidate `a |-> b && c` is stronger than `a |-> b`.
        assert_eq!(
            check(
                "assert property (@(posedge clk) a |-> b);",
                "assert property (@(posedge clk) a |-> (b && c));"
            ),
            Equivalence::CandImpliesRef
        );
    }

    #[test]
    fn dropping_disable_iff_is_detected() {
        // With free tb_reset, dropping the disable changes semantics:
        // the undisabled assertion is stronger.
        let verdict = check(
            "assert property (@(posedge clk) disable iff (tb_reset) a |-> ##1 b);",
            "assert property (@(posedge clk) a |-> ##1 b);",
        );
        assert_eq!(verdict, Equivalence::CandImpliesRef);
    }

    #[test]
    fn unknown_signal_is_encode_error() {
        let r = parse_assertion_str("assert property (@(posedge clk) a);").unwrap();
        let c = parse_assertion_str("assert property (@(posedge clk) ghost);").unwrap();
        let err = check_equivalence(&r, &c, &table(), EquivConfig::default()).unwrap_err();
        assert_eq!(err, EncodeError::UnknownSignal("ghost".into()));
    }

    #[test]
    fn horizon_past_the_cap_is_an_error_and_the_session_keeps_answering() {
        // `##70` needs a 72-cycle trace, past the 64-cycle cap: the
        // check is an error, not a verdict, and the session still
        // answers the next candidate.
        let t = table();
        let r = parse_assertion_str("assert property (@(posedge clk) a |-> ##1 b);").unwrap();
        let mut session = EquivSession::open(r, &t, EquivConfig::default());
        let deep = parse_assertion_str("assert property (@(posedge clk) a |-> ##70 b);").unwrap();
        assert_eq!(
            session.check(&deep),
            Err(EncodeError::HorizonExceeded {
                needed: 72,
                max: 64
            })
        );
        let c = parse_assertion_str("assert property (@(posedge clk) a |=> b);").unwrap();
        assert_eq!(session.check(&c).unwrap().verdict, Equivalence::Equivalent);
    }

    #[test]
    fn different_clocks_are_inequivalent() {
        let verdict = check(
            "assert property (@(posedge clk) a);",
            "assert property (@(negedge clk) a);",
        );
        assert_eq!(verdict, Equivalence::Inequivalent);
    }

    #[test]
    fn symmetry_of_verdicts() {
        // Swapping arguments mirrors the implication direction.
        let r = "assert property (@(posedge clk) a |-> b);";
        let c = "assert property (@(posedge clk) a |-> (b && c));";
        assert_eq!(check(r, c), Equivalence::CandImpliesRef);
        assert_eq!(check(c, r), Equivalence::RefImpliesCand);
    }

    #[test]
    fn session_stream_matches_fresh_checks() {
        // One reference, many candidates: the session must return the
        // same verdict as a fresh check_equivalence per candidate.
        let reference =
            parse_assertion_str("assert property (@(posedge clk) a |-> ##1 b);").unwrap();
        let candidates = [
            "assert property (@(posedge clk) a |=> b);",
            "assert property (@(posedge clk) a |-> ##2 b);",
            "assert property (@(posedge clk) a |-> (b && c));",
            "assert property (@(posedge clk) c);",
            "assert property (@(posedge clk) a |-> ##1 b);",
        ];
        let t = table();
        let mut session = EquivSession::open(reference.clone(), &t, EquivConfig::default());
        for src in candidates {
            let c = parse_assertion_str(src).unwrap();
            let fresh = check_equivalence(&reference, &c, &t, EquivConfig::default()).unwrap();
            let via = session.check(&c).unwrap();
            assert_eq!(fresh.verdict, via.verdict, "{src}");
            assert_eq!(fresh.horizon, via.horizon, "{src}");
        }
        let stats = session.stats();
        assert_eq!(stats.sessions_opened, 1);
        assert_eq!(stats.session_checks, candidates.len() as u64);
    }

    #[test]
    fn session_reuses_reference_encoding_per_horizon() {
        let reference =
            parse_assertion_str("assert property (@(posedge clk) a |-> ##1 b);").unwrap();
        let t = table();
        let mut session = EquivSession::open(reference, &t, EquivConfig::default());
        // Three same-depth candidates share one horizon: the reference
        // compiles once and is served from cache twice.
        for src in [
            "assert property (@(posedge clk) a |=> b);",
            "assert property (@(posedge clk) a |-> ##1 c);",
            "assert property (@(posedge clk) b |-> ##1 a);",
        ] {
            let c = parse_assertion_str(src).unwrap();
            session.check(&c).unwrap();
        }
        let stats = session.stats();
        assert_eq!(
            stats.unroll_reuse_hits, 2,
            "reference encoding served from cache: {stats:?}"
        );
    }

    #[test]
    fn session_survives_encode_error_and_clock_mismatch() {
        let reference = parse_assertion_str("assert property (@(posedge clk) a);").unwrap();
        let t = table();
        let mut session = EquivSession::open(reference, &t, EquivConfig::default());
        let ghost = parse_assertion_str("assert property (@(posedge clk) ghost);").unwrap();
        assert_eq!(
            session.check(&ghost).unwrap_err(),
            EncodeError::UnknownSignal("ghost".into())
        );
        let negedge = parse_assertion_str("assert property (@(negedge clk) a);").unwrap();
        assert_eq!(
            session.check(&negedge).unwrap().verdict,
            Equivalence::Inequivalent
        );
        let same = parse_assertion_str("assert property (@(posedge clk) a);").unwrap();
        assert_eq!(
            session.check(&same).unwrap().verdict,
            Equivalence::Equivalent
        );
        assert_eq!(session.stats().session_checks, 3);
    }

    #[test]
    fn repeated_candidate_is_answered_from_the_memo() {
        // A repeat returns the first outcome, counterexample included,
        // and its delta is one check repeat and nothing else. The same
        // holds for a whitespace re-spelling (it parses to the same
        // assertion), a clock mismatch and a candidate whose check
        // failed.
        let reference =
            parse_assertion_str("assert property (@(posedge clk) a |-> ##1 b);").unwrap();
        let t = table();
        let mut session = EquivSession::open(reference, &t, EquivConfig::default());
        let candidates = [
            (
                "assert property (@(posedge clk) a |=> b);",
                "assert property(@(posedge clk)a|=>b);",
            ),
            (
                "assert property (@(posedge clk) a |-> ##2 b);",
                "assert property (@(posedge clk)\n    a |-> ##2 b) ;",
            ),
            (
                "assert property (@(negedge clk) a);",
                "assert property (@(negedge clk)  a);",
            ),
            (
                "assert property (@(posedge clk) ghost);",
                "assert property (@(posedge clk)\tghost);",
            ),
        ];
        for (text, respelled) in candidates {
            let c = parse_assertion_str(text).unwrap();
            let first = session.check(&c);
            for again in [text, respelled] {
                let before = session.stats();
                let repeat = session.check(&parse_assertion_str(again).unwrap());
                let delta = session.stats().delta_since(&before);
                assert_eq!(delta, ProverStats::repeat(), "{again}");
                match (&first, repeat) {
                    (Ok(first), Ok(repeat)) => {
                        assert_eq!(repeat.stats, ProverStats::repeat(), "{again}");
                        assert_eq!(
                            EquivOutcome {
                                stats: first.stats,
                                ..repeat
                            },
                            *first,
                            "{again}"
                        );
                    }
                    (Err(first), Err(repeat)) => assert_eq!(repeat, *first, "{again}"),
                    (first, repeat) => panic!("{again}: {first:?} then {repeat:?}"),
                }
            }
        }
        let stats = session.stats();
        assert_eq!((stats.session_checks, stats.check_repeats), (4, 8));
    }

    #[test]
    fn wide_signal_cex_renders_at_declared_width() {
        // A 4-bit signal in the trace must render as `4'b....`.
        let r = parse_assertion_str("assert property (@(posedge clk) sig_H == 4'd3);").unwrap();
        let c = parse_assertion_str("assert property (@(posedge clk) sig_H == 4'd5);").unwrap();
        let out = check_equivalence(&r, &c, &table(), EquivConfig::default()).unwrap();
        assert_eq!(out.verdict, Equivalence::Inequivalent);
        let cex = out.cex.unwrap();
        let h = cex
            .values
            .iter()
            .find(|v| v.signal == "sig_H")
            .expect("sig_H observed");
        assert_eq!(h.width, 4);
        assert!(h.render_value().starts_with("4'b"), "{}", h.render_value());
    }
}
