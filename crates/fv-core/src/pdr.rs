//! IC3/PDR: property-directed reachability over the incremental SAT
//! solver.
//!
//! Where the bounded schedule ([`crate::ProofSession`]) unrolls time
//! frames, PDR reasons over a *single* copy of the transition relation
//! and a chain of over-approximations `R_0 ⊆ R_1 ⊆ …` of the states
//! reachable in at most `i` steps. Each `R_i` is a set of learned
//! clauses; a property is proven the moment two adjacent frames carry
//! the same clause set (a fixpoint: `R_i` is an inductive invariant
//! stronger than the property), so inductive depth never bounds the
//! engine the way the bounded schedule's k ≤ 6 bounds k-induction.
//!
//! # Frames are clause groups
//!
//! The whole chain lives in **one** long-lived [`Solver`], using the
//! same selector machinery BMC uses for reset pinning:
//!
//! - `act[0]` guards the initial-state unit clauses (reset values);
//! - `act[i]` (`i ≥ 1`) guards the clauses learned *at level `i`*.
//!
//! A clause learned at level `i` holds in every `R_j` with `j ≤ i`, so
//! a query against `R_j` simply assumes `act[j..]` — frame membership
//! is an assumption set, never a re-encoding, and learned-lemma reuse
//! across frames comes for free.
//!
//! # Temporal properties
//!
//! The paper's assertions are temporal (bounded SVA), not plain state
//! invariants, so the "bad state" test is a *cone*: the existing
//! monitor encoder ([`crate::encode_assertion`] machinery) unrolls the
//! attempt anchored at the symbolic state over its horizon, and PDR
//! asks whether any `R_N` state anchors a violated attempt. Obligation
//! cubes are full assignments to the anchor-state registers;
//! consecution queries use only the single-step transition `T` between
//! the first two frames of that unrolling. Monitors that read
//! *negative* (pre-anchor) cycles are refused
//! ([`ProveResult::Undetermined`]): the shared encoder clamps those
//! reads to the anchor frame, which is only sound when the anchor is
//! the initial state.
//!
//! # Determinism
//!
//! Proof-obligation ordering is fully deterministic: cubes are decoded
//! in register-bit order, generalization drops literals in ascending
//! bit order, and propagation visits levels and cubes in insertion
//! order. No clock is read: the work budget counts SAT queries
//! ([`QUERY_BUDGET`] per check, [`QUERY_CONFLICT_BUDGET`] conflicts
//! per query), so an exhausted budget aborts to `Undetermined` at the
//! same query on every host, and never to a different verdict.

use crate::cex::CexValue;
use crate::env::DesignTraceEnv;
use crate::error::EncodeError;
use crate::monitor::{design_horizon, encode_assertion_at};
use crate::prove::{replay_design_cex, DesignCex, ProveResult};
use crate::stats::ProverStats;
use fv_aig::{Aig, CnfEmitter};
use fv_sat::{Lit, SolveResult, Solver};
use sv_ast::Assertion;
use sv_synth::{FrameExpander, Netlist};

/// Per-query conflict budget: bounds the work of any single SAT call.
const QUERY_CONFLICT_BUDGET: u64 = 200_000;

/// Per-check query budget: the SAT calls one PDR run may make before
/// it aborts to `Undetermined`. No concluding check of `run-all --full`
/// or of the 10k-case `gen` suite makes more than 94,413; a run that
/// exhausts the budget takes seconds, not minutes.
const QUERY_BUDGET: u64 = 1 << 17;

/// Frame-count backstop far above any suite design's convergence depth.
const MAX_FRAMES: usize = 256;

/// A conjunction of state literals: `(register bit index, polarity)`,
/// sorted by bit index. Obligation cubes are full states (one literal
/// per register bit); generalized cubes are sub-conjunctions.
type Cube = Vec<(usize, bool)>;

/// Engine entry point of a session's PDR checks
/// ([`crate::ProveEngine::Pdr`] and [`crate::ProveEngine::Portfolio`]),
/// reached after [`crate::ProofSession::check`] has answered unbounded
/// operators. A run cut short by the query or conflict budget comes
/// back `Undetermined`.
pub(crate) fn run_pdr(
    netlist: &Netlist,
    assertion: &Assertion,
    consts: &[(String, u32, u128)],
    stats: &mut ProverStats,
) -> Result<ProveResult, EncodeError> {
    let mut engine = Pdr::build(netlist, assertion, consts)?;
    let mut span = fv_trace::span!("pdr.run");
    let result = engine.run();
    if span.is_active() {
        span.attr("frames", engine.act.len().saturating_sub(1));
        span.attr("clauses", engine.clauses_learned);
        span.attr("queries", engine.sat_calls);
        span.attr("interrupted", engine.interrupted);
    }
    drop(span);
    stats.sat_calls += engine.sat_calls;
    stats.solver_reuse_hits += engine.sat_calls.saturating_sub(1);
    stats.pdr_frames += engine.act.len().saturating_sub(1) as u64;
    stats.pdr_clauses_learned += engine.clauses_learned;
    result
}

/// How a PDR SAT query came back.
enum Query {
    Sat,
    Unsat,
    /// Query budget or conflict budget ran out.
    Abort,
}

/// How a consecution query came back. The predecessor state and its
/// step inputs are decoded *inside* the query (the model is only valid
/// until the next solver mutation — retiring the temporary cube
/// selector already invalidates it).
enum RelQuery {
    Sat { pred: Cube, step: Vec<CexValue> },
    Unsat,
    Abort,
}

/// Result of recursively blocking an obligation cube.
enum Block {
    Blocked,
    /// Reached the initial state: per-step input assignments from the
    /// initial state to the obligation's anchor state, in trace order.
    Cex(Vec<Vec<CexValue>>),
    Abort,
}

struct Pdr<'n> {
    netlist: &'n Netlist,
    assertion: &'n Assertion,
    consts: &'n [(String, u32, u128)],
    env: DesignTraceEnv<'n>,
    solver: Solver,
    em: CnfEmitter,
    /// Violation target of the attempt anchored at the symbolic state.
    bad: Lit,
    /// Anchor-state register bits (solver literals) and their next-state
    /// images one transition later, index-aligned.
    v0: Vec<Lit>,
    v1: Vec<Lit>,
    /// Reset value of each register bit.
    init: Vec<bool>,
    /// `act[0]` guards the initial-state units, `act[i]` the level-`i`
    /// clause group.
    act: Vec<Lit>,
    /// Cubes blocked at exactly level `i` (insertion order);
    /// `frames[0]` is unused.
    frames: Vec<Vec<Cube>>,
    /// Queries allowed before the run aborts ([`QUERY_BUDGET`]).
    query_budget: u64,
    sat_calls: u64,
    clauses_learned: u64,
    interrupted: bool,
}

impl<'n> Pdr<'n> {
    fn build(
        netlist: &'n Netlist,
        assertion: &'n Assertion,
        consts: &'n [(String, u32, u128)],
    ) -> Result<Pdr<'n>, EncodeError> {
        let expander = FrameExpander::new(netlist)
            .map_err(|n| EncodeError::Unsupported(format!("combinational cycle through '{n}'")))?;
        let mut env = DesignTraceEnv::new(expander);
        for (n, w, v) in consts {
            env.bind_const(n.clone(), *w, *v);
        }
        let mut g = Aig::new();
        // Frame 0 whole before the monitor: its state and next-state
        // bits pair up in netlist register order, and the graph's
        // first nodes are the single step's.
        env.ensure_frames(&mut g, 0);
        let horizon = design_horizon(assertion);
        let holds = encode_assertion_at(&mut g, assertion, 0, horizon, &mut env)?;
        let mut solver = Solver::new();
        solver.set_conflict_budget(Some(QUERY_CONFLICT_BUDGET));
        let mut em = CnfEmitter::new();
        let bad = em.emit(&g, !holds, &mut solver);
        // Emitting every state bit and its next-state image keeps the
        // full transition cone in the solver even where the monitor
        // cone does not reach it, and makes the bits model-readable.
        let (v0, init): (Vec<Lit>, Vec<bool>) = env
            .initial_state_bits()
            .iter()
            .map(|&(bit, iv)| (em.emit(&g, bit, &mut solver), iv))
            .unzip();
        let v1: Vec<Lit> = env
            .reg_next_bits(0)
            .iter()
            .map(|&bit| em.emit(&g, bit, &mut solver))
            .collect();
        let init_act = solver.new_selector();
        for (&l, &iv) in v0.iter().zip(&init) {
            solver.add_clause_selected(init_act, [if iv { l } else { !l }]);
        }
        Ok(Pdr {
            netlist,
            assertion,
            consts,
            env,
            solver,
            em,
            bad,
            v0,
            v1,
            init,
            act: vec![init_act],
            frames: vec![Vec::new()],
            query_budget: QUERY_BUDGET,
            sat_calls: 0,
            clauses_learned: 0,
            interrupted: false,
        })
    }

    fn solve(&mut self, assumptions: &[Lit]) -> Query {
        if self.sat_calls >= self.query_budget {
            self.interrupted = true;
            return Query::Abort;
        }
        self.sat_calls += 1;
        match self.solver.solve_with(assumptions) {
            SolveResult::Sat => Query::Sat,
            SolveResult::Unsat => Query::Unsat,
            SolveResult::Interrupted => {
                self.interrupted = true;
                Query::Abort
            }
        }
    }

    /// Selector assumptions activating frame `i`: every level group
    /// from `i` up (a level-`j` clause holds in all `R_{≤j}`), plus the
    /// initial-state group exactly when `i == 0`.
    fn frame_assumptions(&self, i: usize) -> Vec<Lit> {
        self.act[i..].to_vec()
    }

    /// Does any `R_n` state anchor a violated attempt?
    fn bad_query(&mut self, n: usize) -> Query {
        let mut assumptions = self.frame_assumptions(n);
        assumptions.push(self.bad);
        self.solve(&assumptions)
    }

    /// Consecution: is `R_i ∧ ¬c ∧ T ∧ c'` satisfiable — can a state of
    /// `R_i` outside `c` step into `c`? The cube's negation is a
    /// one-query clause retired immediately after the call; on SAT the
    /// predecessor model is decoded before the retirement clause
    /// invalidates it.
    fn relative_query(&mut self, c: &Cube, i: usize) -> RelQuery {
        let tc = self.solver.new_selector();
        let not_c: Vec<Lit> = c
            .iter()
            .map(|&(j, b)| if b { !self.v0[j] } else { self.v0[j] })
            .collect();
        self.solver.add_clause_selected(tc, not_c);
        let mut assumptions = self.frame_assumptions(i);
        assumptions.push(tc);
        for &(j, b) in c {
            assumptions.push(if b { self.v1[j] } else { !self.v1[j] });
        }
        let res = match self.solve(&assumptions) {
            Query::Sat => RelQuery::Sat {
                pred: self.model_state(),
                step: self.model_step_inputs(0),
            },
            Query::Unsat => RelQuery::Unsat,
            Query::Abort => RelQuery::Abort,
        };
        // Retire the temporary selector so the clause can never
        // activate again (and the solver may garbage-collect it).
        self.solver.add_clause([!tc]);
        res
    }

    /// Decodes the model's anchor state into a full cube.
    fn model_state(&self) -> Cube {
        self.v0
            .iter()
            .enumerate()
            .map(|(j, &l)| (j, self.solver.lit_value_model(l).unwrap_or(false)))
            .collect()
    }

    fn is_init(&self, c: &Cube) -> bool {
        c.len() == self.init.len() && c.iter().all(|&(j, b)| b == self.init[j])
    }

    /// Decodes the model's frame-0 primary-input assignment (the
    /// stimuli of one transition) at trace cycle `cycle`.
    fn model_step_inputs(&self, cycle: i32) -> Vec<CexValue> {
        crate::cex::decode_trace(
            self.env
                .input_log()
                .iter()
                .filter(|(_, f, _)| *f == 0)
                .map(|(n, _, bv)| (*n, cycle, bv)),
            crate::cex::solver_bit_reader(&self.em, &self.solver),
        )
    }

    /// Decodes the model's inputs over the whole monitor cone, shifted
    /// so the attempt's anchor lands at trace cycle `anchor`.
    fn model_cone_inputs(&self, anchor: i32) -> Vec<CexValue> {
        crate::cex::decode_trace(
            self.env
                .input_log()
                .iter()
                .map(|(n, f, bv)| (*n, anchor + *f as i32, bv)),
            crate::cex::solver_bit_reader(&self.em, &self.solver),
        )
    }

    /// Blocks obligation cube `s` at level `j`, recursively blocking
    /// predecessors at `j - 1`. Obligations are handled depth-first in
    /// the deterministic order the solver models produce them.
    fn block(&mut self, s: &Cube, j: usize) -> Block {
        if self.is_init(s) {
            return Block::Cex(Vec::new());
        }
        debug_assert!(j >= 1, "non-initial obligations never reach level 0");
        loop {
            match self.relative_query(s, j - 1) {
                RelQuery::Unsat => {
                    let c = match self.generalize(s, j - 1) {
                        Some(c) => c,
                        None => return Block::Abort,
                    };
                    self.add_blocked(c, j);
                    return Block::Blocked;
                }
                RelQuery::Sat { pred, mut step } => match self.block(&pred, j - 1) {
                    Block::Cex(mut steps) => {
                        let cycle = steps.len() as i32;
                        for v in &mut step {
                            v.cycle = cycle;
                        }
                        steps.push(step);
                        return Block::Cex(steps);
                    }
                    Block::Blocked => continue,
                    Block::Abort => return Block::Abort,
                },
                RelQuery::Abort => return Block::Abort,
            }
        }
    }

    /// Relative-induction generalization: starting from a cube already
    /// inductive relative to `R_i`, drop literals in ascending bit
    /// order while the remainder stays inductive and still excludes the
    /// initial state. Returns `None` only on abort.
    fn generalize(&mut self, s: &Cube, i: usize) -> Option<Cube> {
        let mut cur = s.clone();
        for &(bit, _) in s {
            if cur.len() == 1 {
                break;
            }
            let cand: Cube = cur.iter().copied().filter(|&(j, _)| j != bit).collect();
            if cand.len() == cur.len() {
                continue; // already dropped by an earlier candidate
            }
            // The candidate must keep at least one literal refuting the
            // initial state (R_0 is the single reset state, so the
            // syntactic check is exact).
            if !cand.iter().any(|&(j, b)| b != self.init[j]) {
                continue;
            }
            match self.relative_query(&cand, i) {
                RelQuery::Unsat => cur = cand,
                RelQuery::Sat { .. } => {}
                RelQuery::Abort => return None,
            }
        }
        Some(cur)
    }

    /// Records cube `c` as blocked at `level`: one clause `¬c` guarded
    /// by `act[level]`, active in every frame query at or below that
    /// level.
    fn add_blocked(&mut self, c: Cube, level: usize) {
        let not_c: Vec<Lit> = c
            .iter()
            .map(|&(j, b)| if b { !self.v0[j] } else { self.v0[j] })
            .collect();
        self.solver.add_clause_selected(self.act[level], not_c);
        self.frames[level].push(c);
        self.clauses_learned += 1;
    }

    /// Opens the next frame level: a fresh selector and an empty cube
    /// list.
    fn open_level(&mut self) {
        let _span = fv_trace::span!("pdr.frame_push", level = self.act.len());
        let sel = self.solver.new_selector();
        self.act.push(sel);
        self.frames.push(Vec::new());
    }

    /// Pushes level-`i` cubes still inductive relative to `R_i` up to
    /// level `i + 1`. Returns `None` on abort, otherwise whether the
    /// level ended empty (fixpoint).
    fn propagate_level(&mut self, i: usize) -> Option<bool> {
        let cubes = std::mem::take(&mut self.frames[i]);
        let mut kept = Vec::new();
        let mut abort = false;
        for c in cubes {
            if abort {
                kept.push(c);
                continue;
            }
            match self.relative_query(&c, i) {
                RelQuery::Unsat => self.add_blocked(c, i + 1),
                RelQuery::Sat { .. } => kept.push(c),
                RelQuery::Abort => {
                    kept.push(c);
                    abort = true;
                }
            }
        }
        let empty = kept.is_empty();
        self.frames[i] = kept;
        if abort {
            None
        } else {
            Some(empty)
        }
    }

    fn undetermined(&self) -> Result<ProveResult, EncodeError> {
        Ok(ProveResult::Undetermined)
    }

    fn run(&mut self) -> Result<ProveResult, EncodeError> {
        // The shared monitor encoder clamps pre-anchor reads to the
        // anchor frame; that is only sound when the anchor is the
        // initial state, so PDR refuses such monitors.
        if self.env.saw_negative_read() {
            return self.undetermined();
        }
        // Base: an attempt anchored at the initial state itself.
        match self.bad_query(0) {
            Query::Sat => {
                let inputs = self.model_cone_inputs(0);
                return self.falsified(DesignCex { anchor: 0, inputs });
            }
            Query::Unsat => {}
            Query::Abort => return self.undetermined(),
        }
        self.open_level();
        loop {
            let n = self.act.len() - 1;
            match self.bad_query(n) {
                Query::Sat => {
                    let s = self.model_state();
                    let suffix = self.model_cone_inputs(0); // shifted below
                    match self.block(&s, n) {
                        Block::Blocked => continue,
                        Block::Cex(steps) => {
                            let anchor = steps.len() as u32;
                            let mut inputs: Vec<CexValue> = steps.into_iter().flatten().collect();
                            inputs.extend(suffix.into_iter().map(|mut v| {
                                v.cycle += anchor as i32;
                                v
                            }));
                            return self.falsified(DesignCex { anchor, inputs });
                        }
                        Block::Abort => return self.undetermined(),
                    }
                }
                Query::Unsat => {
                    if self.act.len() > MAX_FRAMES {
                        return self.undetermined();
                    }
                    self.open_level();
                    for i in 1..=n {
                        match self.propagate_level(i) {
                            Some(true) => return Ok(ProveResult::Proven { k: i as u32 }),
                            Some(false) => {}
                            None => return self.undetermined(),
                        }
                    }
                }
                Query::Abort => return self.undetermined(),
            }
        }
    }

    /// Gates every counterexample through the canonical replay check
    /// before reporting it; a trace that does not replay (which would
    /// indicate an engine bug) degrades to `Undetermined` instead of
    /// reporting an unsound falsification.
    fn falsified(&self, cex: DesignCex) -> Result<ProveResult, EncodeError> {
        let ok = replay_design_cex(self.netlist, self.assertion, self.consts, &cex)?;
        debug_assert!(ok, "PDR counterexample must replay in sv-synth::sim");
        if ok {
            Ok(ProveResult::Falsified { cex })
        } else {
            Ok(ProveResult::Undetermined)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prove::{prove, prove_with_stats, ProveConfig, ProveEngine};
    use sv_parser::{parse_assertion_str, parse_source};
    use sv_synth::elaborate;

    fn wrapping_counter() -> Netlist {
        let src = "module m (clk, reset_, en, q);\n\
            input clk; input reset_; input en;\n\
            output [2:0] q;\n\
            reg [2:0] cnt;\n\
            always @(posedge clk) begin\n\
            if (!reset_) cnt <= 3'd0;\n\
            else if (en) cnt <= (cnt == 3'd5) ? 3'd0 : cnt + 3'd1;\nend\n\
            assign q = cnt;\nendmodule\n";
        let f = parse_source(src).unwrap();
        elaborate(&f, "m").unwrap()
    }

    fn pdr() -> ProveConfig {
        ProveConfig {
            engine: ProveEngine::Pdr,
        }
    }

    fn pdr_str(nl: &Netlist, a: &str) -> ProveResult {
        let a = parse_assertion_str(a).unwrap();
        prove_with_stats(nl, &a, &[], pdr()).unwrap().0
    }

    #[test]
    fn transition_relation_is_connected() {
        // The emitted v1 bits must be the successor functions of the
        // v0 state bits: from reset (cnt = 0), cnt' = 4 is impossible.
        let nl = wrapping_counter();
        let a = parse_assertion_str("assert property (@(posedge clk) q != 3'd4);").unwrap();
        let mut e = Pdr::build(&nl, &a, &[]).unwrap();
        let assm = vec![e.act[0], !e.v1[0], !e.v1[1], e.v1[2]];
        let r = e.solver.solve_with(&assm);
        assert!(r.is_unsat(), "transition should forbid init->4, got {r:?}");
    }

    #[test]
    fn proves_deep_invariant_bounded_cannot() {
        // `q != 7` is true (7 unreachable) but never k-inductive.
        let nl = wrapping_counter();
        let a = parse_assertion_str("assert property (@(posedge clk) q != 3'd7);").unwrap();
        assert_eq!(
            prove(&nl, &a, &[], ProveConfig::default()).unwrap(),
            ProveResult::Undetermined,
            "bounded engine gives up"
        );
        let (r, stats) = prove_with_stats(&nl, &a, &[], pdr()).unwrap();
        assert!(r.is_proven(), "got {r:?}");
        assert!(stats.pdr_frames >= 1, "{stats:?}");
        assert!(stats.pdr_clauses_learned >= 1, "{stats:?}");
        assert_eq!(stats.pdr_wins, 1, "{stats:?}");
        assert_eq!((stats.sessions_opened, stats.session_checks), (1, 1));
    }

    #[test]
    fn agrees_on_proven_falsified_undetermined() {
        let nl = wrapping_counter();
        for (src, expect_pdr_proven) in [
            ("assert property (@(posedge clk) en || !en);", true),
            ("assert property (@(posedge clk) q != 3'd5);", false),
            (
                "assert property (@(posedge clk) (en && q == 3'd1) |-> ##1 q == 3'd2);",
                true,
            ),
        ] {
            let a = parse_assertion_str(src).unwrap();
            let bounded = prove(&nl, &a, &[], ProveConfig::default()).unwrap();
            let via_pdr = pdr_str(&nl, src);
            match (&bounded, &via_pdr) {
                (ProveResult::Proven { .. }, ProveResult::Proven { .. }) => {
                    assert!(expect_pdr_proven, "{src}");
                }
                (ProveResult::Falsified { .. }, ProveResult::Falsified { .. }) => {
                    assert!(!expect_pdr_proven, "{src}");
                }
                (b, p) => panic!("{src}: bounded {b:?} vs pdr {p:?}"),
            }
        }
    }

    #[test]
    fn cex_replays_and_prints_canonically() {
        let nl = wrapping_counter();
        let a = parse_assertion_str("assert property (@(posedge clk) q != 3'd4);").unwrap();
        let (r, _) = prove_with_stats(&nl, &a, &[], pdr()).unwrap();
        match r {
            ProveResult::Falsified { cex } => {
                assert!(cex.anchor >= 4, "needs four increments: {cex:?}");
                assert_eq!(replay_design_cex(&nl, &a, &[], &cex), Ok(true));
                let shown = cex.to_string();
                assert!(shown.starts_with("violation of attempt anchored at cycle"));
            }
            other => panic!("expected falsified, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_and_past_monitors_are_undetermined() {
        let nl = wrapping_counter();
        let unb = pdr_str(
            &nl,
            "assert property (@(posedge clk) en |-> strong(##[0:$] q == 3'd5));",
        );
        assert_eq!(unb, ProveResult::Undetermined);
        // `$past` at the anchor reads a pre-anchor cycle: the clamp is
        // only sound for init-anchored engines, so PDR refuses.
        let past = pdr_str(
            &nl,
            "assert property (@(posedge clk) $past(q) == $past(q));",
        );
        assert_eq!(past, ProveResult::Undetermined);
    }

    #[test]
    fn query_budget_aborts_deterministically() {
        // A budget below what the proof needs aborts to Undetermined,
        // never to a verdict, and at the same query on every run.
        let nl = wrapping_counter();
        let a = parse_assertion_str("assert property (@(posedge clk) q != 3'd7);").unwrap();
        let mut full = Pdr::build(&nl, &a, &[]).unwrap();
        assert!(full.run().unwrap().is_proven());
        let budget = full.sat_calls / 2;
        let runs: Vec<(u64, u64)> = (0..2)
            .map(|_| {
                let mut e = Pdr::build(&nl, &a, &[]).unwrap();
                e.query_budget = budget;
                assert_eq!(e.run(), Ok(ProveResult::Undetermined));
                assert!(e.interrupted);
                (e.sat_calls, e.clauses_learned)
            })
            .collect();
        assert_eq!(runs[0].0, budget);
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn session_engine_pdr_matches_direct_entry() {
        let nl = wrapping_counter();
        let a = parse_assertion_str("assert property (@(posedge clk) q != 3'd7);").unwrap();
        let (r, stats) = prove_with_stats(&nl, &a, &[], pdr()).unwrap();
        assert!(r.is_proven(), "got {r:?}");
        assert_eq!(stats.pdr_wins, 1, "{stats:?}");
        assert!(stats.pdr_clauses_learned >= 1, "{stats:?}");
        let mut direct = ProverStats::default();
        assert_eq!(run_pdr(&nl, &a, &[], &mut direct).unwrap(), r);
        assert_eq!(direct.pdr_clauses_learned, stats.pdr_clauses_learned);
    }
}
