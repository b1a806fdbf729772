//! Model checking: is an assertion *proven* on a design?
//!
//! This is the Design2SVA functional metric. The engine runs bounded
//! model checking (counterexample search) over unrolled time frames,
//! then k-induction for a proof. Properties with unbounded temporal
//! operators are reported [`ProveResult::Undetermined`] (the bounded
//! engine cannot conclude liveness), matching how a tool timeout is
//! scored.
//!
//! # Incremental architecture
//!
//! One invocation builds **one** shared unrolled formula and drives
//! every query through **one** reused [`Solver`]:
//!
//! - Time frames start from a *free* (symbolic) initial state; the
//!   reset values are asserted as a selector-guarded clause group
//!   ([`Solver::add_clause_selected`]). BMC queries assume the
//!   selector; k-induction step queries simply omit it — no second
//!   solver, no re-encoding.
//! - Frames and per-anchor monitors are encoded lazily into one
//!   structurally-hashed [`Aig`]; anchor `t`'s monitor is shared
//!   verbatim between its BMC query and every induction query that
//!   assumes or targets it.
//! - Before any SAT call, each BMC anchor is attacked by ternary
//!   simulation (reset state pinned, inputs `X` — a constant-false
//!   violation target needs no solver) and by 64-way random simulation
//!   (a witness pattern *is* a counterexample). Each k-induction step
//!   query is attacked by a second 64-way simulation whose start state
//!   is random too: a pattern holding `k` attempts and violating the
//!   next one is a model of the step query, so the step fails. Only
//!   survivors reach the CDCL solver.
//! - Every counterexample is replay-validated: in debug builds the
//!   trace is re-run through the cycle-accurate [`sv_synth::Simulator`]
//!   and the assertion is re-evaluated concretely
//!   ([`replay_design_cex`] exposes the same check to tests). Step-case
//!   witnesses are likewise re-evaluated through [`AigEvaluator`].

use crate::cex::CexValue;
use crate::env::{DesignTraceEnv, TraceEnv};
use crate::error::EncodeError;
use crate::monitor::{design_horizon, encode_assertion_at};
use crate::rng::splitmix64;
use crate::stats::ProverStats;
use fv_aig::{Aig, AigEvaluator, AigLit, BitSim, BitVec, CnfEmitter, Ternary, TernarySim};
use fv_sat::{Lit, Solver};
use std::collections::HashMap;
use sv_ast::Assertion;
use sv_synth::{AtomId, FrameExpander, Netlist, Simulator};

/// BMC anchors the bounded schedule checks: attempts anchored at
/// cycles `0..MAX_BMC`.
const MAX_BMC: u32 = 12;

/// Deepest k the bounded schedule tries for k-induction. The first k
/// BMC anchors make its base case, so it may not exceed [`MAX_BMC`].
const MAX_INDUCTION: u32 = 6;
const _: () = assert!(MAX_INDUCTION <= MAX_BMC);

/// Which proof engine(s) answer a check (see [`ProveConfig::engine`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ProveEngine {
    /// The interleaved BMC + k-induction schedule (the default). Fully
    /// deterministic, but bounded: it checks the first 12 anchors and
    /// tries k up to 6, so properties whose inductive depth exceeds 6
    /// come back [`ProveResult::Undetermined`].
    #[default]
    Bounded,
    /// The IC3/PDR engine alone. Unbounded in depth, budgeted in SAT
    /// queries per check, so every verdict is a function of design,
    /// candidate and config. `Proven` means the engine found an
    /// inductive invariant (the `k` reported is the frame level where
    /// the chain closed), `Falsified` counterexamples are
    /// replay-validated through [`replay_design_cex`] before being
    /// returned, and `Undetermined` covers unbounded operators, monitors
    /// with pre-anchor reads, and exhausted budgets. Verdicts agree with `Bounded` whenever both
    /// conclude.
    ///
    /// A wrapping counter whose unreachable band makes `q != 7` true
    /// but never k-inductive — the bounded schedule gives up, PDR
    /// strengthens the invariant and proves it:
    ///
    /// ```
    /// use fv_core::{prove, prove_with_stats, ProveConfig, ProveEngine, ProveResult};
    /// use sv_parser::{parse_assertion_str, parse_source};
    /// use sv_synth::elaborate;
    ///
    /// let f = parse_source(
    ///     "module m (clk, reset_, en, q);\n\
    ///      input clk; input reset_; input en;\noutput [2:0] q;\n\
    ///      reg [2:0] cnt;\n\
    ///      always @(posedge clk) begin\n\
    ///      if (!reset_) cnt <= 3'd0;\n\
    ///      else if (en) cnt <= (cnt == 3'd5) ? 3'd0 : cnt + 3'd1;\nend\n\
    ///      assign q = cnt;\nendmodule\n",
    /// )
    /// .unwrap();
    /// let nl = elaborate(&f, "m").unwrap();
    /// let a = parse_assertion_str("assert property (@(posedge clk) q != 3'd7);").unwrap();
    /// let cfg = ProveConfig::default();
    /// assert_eq!(prove(&nl, &a, &[], cfg).unwrap(), ProveResult::Undetermined);
    /// let pdr = ProveConfig {
    ///     engine: ProveEngine::Pdr,
    /// };
    /// let (r, stats) = prove_with_stats(&nl, &a, &[], pdr).unwrap();
    /// assert!(r.is_proven());
    /// assert!(stats.pdr_clauses_learned > 0);
    /// ```
    Pdr,
    /// The bounded schedule first, then PDR on the same thread only
    /// when the bounded schedule comes back `Undetermined`. The result
    /// is the bounded schedule's verdict (and canonical trace) whenever
    /// it concludes, and PDR's verdict otherwise, so checks the bounded
    /// schedule decides cost and count exactly what they do under
    /// `Bounded`, while deep proofs and deep counterexamples beyond its
    /// bounds are closed by PDR.
    Portfolio,
}

impl ProveEngine {
    /// The engine's CLI name: `bounded`, `pdr` or `portfolio`.
    pub fn name(self) -> &'static str {
        match self {
            ProveEngine::Bounded => "bounded",
            ProveEngine::Pdr => "pdr",
            ProveEngine::Portfolio => "portfolio",
        }
    }
}

/// Configuration for the prover: which engine answers each check. The
/// bounded schedule's bounds are fixed (12 BMC anchors, k up to 6), as
/// is PDR's query budget, so a verdict is a function of design,
/// candidate and engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProveConfig {
    /// Which engine(s) answer each check.
    pub engine: ProveEngine,
}

/// A concrete counterexample trace from BMC.
///
/// # Trace format
///
/// `inputs` holds one [`CexValue`] per `(primary input, frame)` pair,
/// sorted by frame then input name; the trace starts at the reset state
/// (frame 0) and `anchor` names the evaluation attempt that is
/// violated. `Display` renders values as SystemVerilog sized literals
/// at each input's declared width:
///
/// ```text
/// violation of attempt anchored at cycle 2:
///   cycle   0: in_vld = 1'b1
///   cycle   1: in_data = 8'h1f
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DesignCex {
    /// Anchor cycle of the violated evaluation attempt.
    pub anchor: u32,
    /// The stimuli, sorted by `(frame, input)`.
    pub inputs: Vec<CexValue>,
}

impl std::fmt::Display for DesignCex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "violation of attempt anchored at cycle {}:", self.anchor)?;
        crate::cex::fmt_trace(&self.inputs, f)
    }
}

/// Outcome of [`prove`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProveResult {
    /// Proven by k-induction at the given k (with BMC base).
    Proven {
        /// Induction depth that closed the proof.
        k: u32,
    },
    /// Falsified: a reachable violation exists.
    Falsified {
        /// The counterexample.
        cex: DesignCex,
    },
    /// Bounds exhausted without a verdict (scored as not-proven).
    Undetermined,
}

impl ProveResult {
    /// The Design2SVA functional metric: the assertion was proven.
    pub fn is_proven(&self) -> bool {
        matches!(self, ProveResult::Proven { .. })
    }
}

/// Checks `assertion` against the elaborated design `netlist`.
///
/// The design starts from its reset state with the reset input held
/// deasserted. `consts` provides testbench parameter bindings (state
/// encodings such as `S0`) visible to the assertion.
///
/// # Errors
///
/// [`EncodeError`] when the assertion references signals absent from
/// the testbench scope (including design-internal signals the prompt
/// forbids) — scored as an elaboration failure.
///
/// # Examples
///
/// ```
/// use fv_core::{prove, ProveConfig};
/// use sv_parser::{parse_assertion_str, parse_source};
/// use sv_synth::elaborate;
///
/// let f = parse_source(
///     "module m (clk, en, q);\ninput clk; input en; output q;\n\
///      reg r;\nalways @(posedge clk) begin r <= en; end\n\
///      assign q = r;\nendmodule\n",
/// )
/// .unwrap();
/// let nl = elaborate(&f, "m").unwrap();
/// let a = parse_assertion_str("assert property (@(posedge clk) en |-> ##1 q);").unwrap();
/// assert!(prove(&nl, &a, &[], ProveConfig::default()).unwrap().is_proven());
/// ```
pub fn prove(
    netlist: &Netlist,
    assertion: &Assertion,
    consts: &[(String, u32, u128)],
    cfg: ProveConfig,
) -> Result<ProveResult, EncodeError> {
    prove_with_stats(netlist, assertion, consts, cfg).map(|(r, _)| r)
}

/// [`prove`], additionally reporting how the queries were discharged.
///
/// One-shot convenience over [`ProofSession`]: opens a session, checks
/// the single assertion, and returns the session's counters (so
/// `sessions_opened == session_checks == 1`). Scoring many candidate
/// assertions against the same design should open one session instead.
pub fn prove_with_stats(
    netlist: &Netlist,
    assertion: &Assertion,
    consts: &[(String, u32, u128)],
    cfg: ProveConfig,
) -> Result<(ProveResult, ProverStats), EncodeError> {
    let mut session = ProofSession::open(netlist, consts, cfg)?;
    let (result, _) = session.check(assertion)?;
    Ok((result, session.stats()))
}

/// A long-lived proof context for one design: one shared unrolled
/// formula, one reused solver, one set of simulators — checking a
/// *stream* of candidate assertions against the same elaborated
/// netlist.
///
/// This is the score-many half of the compile-once / score-many
/// Design2SVA flow. Everything a fresh [`prove`] call would rebuild per
/// candidate amortizes across the whole stream:
///
/// - **Time frames**: the free-initial-state unrolling lives in the
///   session's [`DesignTraceEnv`], built by cone: a candidate's reads
///   copy only the template logic they depend on, and reuse every node
///   an earlier candidate already built ([`ProverStats::unroll_reuse_hits`]
///   counts the frames a candidate revisited that were already
///   allocated).
/// - **Monitors**: candidate monitors are appended to the shared
///   structurally-hashed [`Aig`], so subterms that candidates share
///   (two spellings of one property, say) fold to the same literals
///   and their CNF is emitted once.
/// - **Solver state**: one [`Solver`] answers every query. Reset
///   pinning is a selector-guarded clause group installed once; each
///   query activates exactly the monitor cone and reset group it needs
///   through `solve_with` assumption literals, so learned clauses and
///   variable activities carry across candidates
///   ([`ProverStats::solver_reuse_hits`]).
///
/// Verdicts are *path-independent*: a session returns the same
/// [`ProveResult`] kind for a candidate as a fresh [`prove`] call
/// (counterexample traces may differ in their concrete stimuli, but
/// every trace replays on the reference simulator — debug builds assert
/// it).
///
/// A session's result is therefore a pure function of the candidate,
/// and the session memoizes it. A candidate it has already checked (the
/// same parsed assertion, so whitespace and redundant parentheses do
/// not matter) gets the first check's result back, counterexample and
/// error included, with no encoding, simulation or solver work. The
/// repeat's counter delta is one [`ProverStats::check_repeats`] and
/// nothing else.
///
/// # Examples
///
/// ```
/// use fv_core::{ProofSession, ProveConfig};
/// use sv_parser::{parse_assertion_str, parse_source};
/// use sv_synth::elaborate;
///
/// let f = parse_source(
///     "module m (clk, en, q);\ninput clk; input en; output q;\n\
///      reg r;\nalways @(posedge clk) begin r <= en; end\n\
///      assign q = r;\nendmodule\n",
/// )
/// .unwrap();
/// let nl = elaborate(&f, "m").unwrap();
/// let mut session = ProofSession::open(&nl, &[], ProveConfig::default()).unwrap();
/// for text in [
///     "assert property (@(posedge clk) en |-> ##1 q);",
///     "assert property (@(posedge clk) en |-> ##1 !q);",
/// ] {
///     let a = parse_assertion_str(text).unwrap();
///     let (_result, _check_stats) = session.check(&a).unwrap();
/// }
/// // A repeated candidate is answered from the session's memo.
/// let a = parse_assertion_str("assert property (@(posedge clk) en |-> ##1 q);").unwrap();
/// let (result, delta) = session.check(&a).unwrap();
/// assert!(result.is_proven());
/// assert_eq!((delta.check_repeats, delta.queries()), (1, 0));
/// let stats = session.stats();
/// assert_eq!(stats.sessions_opened, 1);
/// assert_eq!((stats.session_checks, stats.check_repeats), (2, 1));
/// ```
pub struct ProofSession<'n> {
    netlist: &'n Netlist,
    consts: Vec<(String, u32, u128)>,
    engine: ProveEngine,
    g: Aig,
    env: DesignTraceEnv<'n>,
    solver: Solver,
    em: CnfEmitter,
    /// Selector assumed by BMC queries to pin frame 0 to reset.
    init_sel: Lit,
    /// Initial-state bits already pinned into the selector group.
    init_pinned: usize,
    solver_used: bool,
    sim: BitSim,
    tern: TernarySim,
    rng: u64,
    /// Free-state patterns for the step case: every input random,
    /// frame-0 registers included, from a stream of its own so the BMC
    /// patterns above do not depend on which step queries ran.
    step_sim: BitSim,
    step_rng: u64,
    /// Simulation-forced input words (frame-0 registers at reset).
    forced: HashMap<u32, bool>,
    forced_known: usize,
    /// The result of every candidate checked so far, keyed by the
    /// parsed candidate; repeats are answered from here.
    memo: HashMap<Assertion, Result<ProveResult, EncodeError>>,
    /// Cumulative counters; `sessions_opened` is charged to the first
    /// check (see [`ProofSession::stats`]).
    stats: ProverStats,
}

impl<'n> ProofSession<'n> {
    /// Opens a proof context over an elaborated design. `consts`
    /// provides testbench parameter bindings (state encodings such as
    /// `S0`) visible to every candidate assertion.
    ///
    /// # Errors
    ///
    /// [`EncodeError::Unsupported`] if the netlist has a combinational
    /// cycle (already rejected by elaboration, so unexpected for
    /// netlists produced by `sv_synth::elaborate`).
    pub fn open(
        netlist: &'n Netlist,
        consts: &[(String, u32, u128)],
        cfg: ProveConfig,
    ) -> Result<ProofSession<'n>, EncodeError> {
        let _span = fv_trace::span!("session.open", atoms = netlist.atoms.len());
        let expander = FrameExpander::new(netlist)
            .map_err(|n| EncodeError::Unsupported(format!("combinational cycle through '{n}'")))?;
        let mut env = DesignTraceEnv::new(expander);
        for (n, w, v) in consts {
            env.bind_const(n.clone(), *w, *v);
        }
        let mut solver = Solver::new();
        let init_sel = solver.new_selector();
        Ok(ProofSession {
            netlist,
            consts: consts.to_vec(),
            engine: cfg.engine,
            g: Aig::new(),
            env,
            solver,
            em: CnfEmitter::new(),
            init_sel,
            init_pinned: 0,
            solver_used: false,
            sim: BitSim::new(),
            tern: TernarySim::new(),
            rng: 0x0BAD_5EED_F00D,
            step_sim: BitSim::new(),
            step_rng: 0x57E9_5EED_F00D,
            forced: HashMap::new(),
            forced_known: 0,
            memo: HashMap::new(),
            stats: ProverStats::default(),
        })
    }

    /// Cumulative counters over the session's lifetime. A session that
    /// checked at least one candidate reports `sessions_opened = 1`
    /// (the open is charged to the first check, so aggregating
    /// per-check deltas yields the same totals).
    pub fn stats(&self) -> ProverStats {
        self.stats
    }

    /// Checks one candidate assertion against the shared proof context
    /// with the session's [`ProveEngine`]: the interleaved BMC +
    /// k-induction schedule on the shared unrolling, PDR, or the
    /// schedule followed by PDR. Returns the verdict plus the counter
    /// *delta* this check added (the first check's delta carries the
    /// session's `sessions_opened`). A candidate the session has
    /// checked before gets its first result back, and its delta is one
    /// [`ProverStats::check_repeats`].
    ///
    /// # Errors
    ///
    /// [`EncodeError`] when the assertion references signals absent
    /// from the design scope — scored as an elaboration failure, like
    /// [`prove`]. The session stays usable for further candidates.
    pub fn check(
        &mut self,
        assertion: &Assertion,
    ) -> Result<(ProveResult, ProverStats), EncodeError> {
        if let Some(first) = self.memo.get(assertion) {
            self.stats.check_repeats += 1;
            return first.clone().map(|result| (result, ProverStats::repeat()));
        }
        let before = self.stats;
        let result = self.check_fresh(assertion);
        self.memo.insert(assertion.clone(), result.clone());
        result.map(|result| (result, self.stats.delta_since(&before)))
    }

    /// [`ProofSession::check`] for a candidate the session has not
    /// checked yet.
    fn check_fresh(&mut self, assertion: &Assertion) -> Result<ProveResult, EncodeError> {
        let mut span = fv_trace::span!("prove.check");
        if span.is_active() {
            span.attr("engine", self.engine.name());
        }
        let sat_before = self.stats.sat_calls;
        // The open is charged to the first check so that summing
        // per-check deltas reproduces the cumulative counters.
        self.stats.sessions_opened = 1;
        self.stats.session_checks += 1;
        if assertion.body.has_unbounded() {
            span.attr("result", "undetermined");
            return Ok(ProveResult::Undetermined);
        }
        let horizon = design_horizon(assertion);
        let outcome = match self.engine {
            ProveEngine::Bounded => self.check_bounded(assertion, horizon)?,
            ProveEngine::Pdr => self.check_pdr(assertion)?,
            ProveEngine::Portfolio => match self.check_bounded(assertion, horizon)? {
                ProveResult::Undetermined => self.check_pdr(assertion)?,
                decided => decided,
            },
        };
        if span.is_active() {
            span.attr(
                "result",
                match &outcome {
                    ProveResult::Proven { .. } => "proven",
                    ProveResult::Falsified { .. } => "falsified",
                    ProveResult::Undetermined => "undetermined",
                },
            );
            span.attr("sat_calls", self.stats.sat_calls - sat_before);
        }
        Ok(outcome)
    }

    /// The bounded BMC + k-induction check on the shared unrolling,
    /// with the session's frame-reuse accounting.
    fn check_bounded(
        &mut self,
        assertion: &Assertion,
        horizon: u32,
    ) -> Result<ProveResult, EncodeError> {
        let frames_before = self.env.num_frames() as u64;
        self.env.reset_touched_frames();
        let outcome = self.run_schedule(assertion, horizon);
        // Frames this check actually revisited that were already
        // unrolled by earlier candidates — counted even when the check
        // errors mid-encode, since the work served was real.
        let frames_used = u64::from(self.env.touched_frames());
        self.stats.unroll_reuse_hits += frames_before.min(frames_used);
        outcome
    }

    /// Discharges one check through the PDR engine alone. PDR builds
    /// its own single-step encoding (its frames are clause groups, not
    /// unrolled time frames) from a copy of the session's expander, so
    /// the session's shared unrolling is untouched.
    fn check_pdr(&mut self, assertion: &Assertion) -> Result<ProveResult, EncodeError> {
        let expander = self.env.expander().clone();
        let result = crate::pdr::run_pdr(expander, assertion, &self.consts, &mut self.stats)?;
        if !matches!(result, ProveResult::Undetermined) {
            self.stats.pdr_wins += 1;
        }
        Ok(result)
    }

    /// The interleaved BMC + k-induction schedule over the one shared
    /// formula: after BMC has cleared anchors `0..k` (the base case),
    /// try the consecution query at `k`. A property inductive at small
    /// k is proven after O(k) queries instead of a full BMC sweep; a
    /// falsifiable one still meets its earliest violating anchor first,
    /// because anchors are cleared in ascending order.
    fn run_schedule(
        &mut self,
        assertion: &Assertion,
        horizon: u32,
    ) -> Result<ProveResult, EncodeError> {
        let mut holds: Vec<AigLit> = Vec::new();
        let mut bmc_done = 0u32;
        for k in 1..=MAX_INDUCTION {
            while bmc_done < k {
                if let Some(cex) = self.bmc_check(assertion, horizon, &mut holds, bmc_done)? {
                    self.debug_replay(assertion, &cex);
                    return Ok(ProveResult::Falsified { cex });
                }
                bmc_done += 1;
            }
            if self.induction_check(assertion, horizon, &mut holds, k)? {
                return Ok(ProveResult::Proven { k });
            }
        }
        // ---- Induction exhausted: finish the BMC sweep. ----
        for t in bmc_done..MAX_BMC {
            if let Some(cex) = self.bmc_check(assertion, horizon, &mut holds, t)? {
                self.debug_replay(assertion, &cex);
                return Ok(ProveResult::Falsified { cex });
            }
        }
        Ok(ProveResult::Undetermined)
    }

    fn debug_replay(&self, assertion: &Assertion, cex: &DesignCex) {
        debug_assert_eq!(
            replay_design_cex(self.netlist, assertion, &self.consts, cex),
            Ok(true),
            "counterexample must replay in sv-synth::sim"
        );
    }

    /// Ensures monitors for anchors `0..=t` of this candidate exist on
    /// the shared graph, registering newly created frame-0 register
    /// inputs as simulation-forced.
    fn ensure_anchor(
        &mut self,
        assertion: &Assertion,
        horizon: u32,
        holds: &mut Vec<AigLit>,
        t: u32,
    ) -> Result<AigLit, EncodeError> {
        while holds.len() <= t as usize {
            let anchor = holds.len() as u32;
            let h = encode_assertion_at(
                &mut self.g,
                assertion,
                anchor,
                anchor + horizon,
                &mut self.env,
            )?;
            let bits = self.env.initial_state_bits();
            for &(bit, init) in &bits[self.forced_known..] {
                let idx = self
                    .g
                    .input_index(bit.node())
                    .expect("free initial state bits are primary inputs");
                self.forced.insert(idx, init ^ bit.is_inverted());
            }
            self.forced_known = self.env.initial_state_bits().len();
            holds.push(h);
        }
        Ok(holds[t as usize])
    }

    fn count_sat_call(&mut self) {
        self.stats.sat_calls += 1;
        if self.solver_used {
            self.stats.solver_reuse_hits += 1;
        }
        self.solver_used = true;
    }

    /// BMC base-case check for anchor `t`: ternary simulation, then
    /// random simulation, then SAT under the reset-state selector.
    /// Returns a counterexample if the attempt at `t` can be violated.
    fn bmc_check(
        &mut self,
        assertion: &Assertion,
        horizon: u32,
        holds: &mut Vec<AigLit>,
        t: u32,
    ) -> Result<Option<DesignCex>, EncodeError> {
        let h = self.ensure_anchor(assertion, horizon, holds, t)?;

        // Layer 1: ternary simulation — reset state pinned, inputs X.
        // A constant-false violation target needs no search at all.
        let forced = &self.forced;
        self.tern.extend(&self.g, &mut |k| {
            forced
                .get(&k)
                .map_or(Ternary::Unknown, |&b| Ternary::known(b))
        });
        if self.tern.lit(!h) == Ternary::False {
            self.stats.ternary_kills += 1;
            return Ok(None);
        }

        // Layer 2: random simulation — any pattern violating the
        // attempt is already a full counterexample.
        let rng = &mut self.rng;
        self.sim.extend(&self.g, &mut |k| match forced.get(&k) {
            Some(true) => u64::MAX,
            Some(false) => 0,
            None => splitmix64(rng),
        });
        let w = self.sim.lit(!h);
        if w != 0 {
            self.stats.sim_kills += 1;
            return Ok(Some(sim_cex(&self.env, &self.sim, w.trailing_zeros(), t)));
        }

        // Layer 3: SAT under the reset-state selector group. New
        // initial-state bits only appear when frame 0 is first built,
        // so across a whole session this pins each bit exactly once.
        let bits = self.env.initial_state_bits();
        for &(bit, init) in &bits[self.init_pinned..] {
            let l = self.em.emit(&self.g, bit, &mut self.solver);
            self.solver
                .add_clause_selected(self.init_sel, [if init { l } else { !l }]);
        }
        self.init_pinned = self.env.initial_state_bits().len();
        let l = self.em.emit(&self.g, h, &mut self.solver);
        self.count_sat_call();
        if self.solver.solve_with(&[self.init_sel, !l]).is_sat() {
            return Ok(Some(sat_cex(&self.env, &self.em, &self.solver, t)));
        }
        Ok(None)
    }

    /// k-induction consecution at `k`: arbitrary start state (selector
    /// group off), `k` good attempts imply the next one — same formula,
    /// same solver, one extra anchor beyond BMC. Returns `true` if the
    /// step case is unsatisfiable (property proven, given the BMC base
    /// case for anchors `0..k`).
    fn induction_check(
        &mut self,
        assertion: &Assertion,
        horizon: u32,
        holds: &mut Vec<AigLit>,
        k: u32,
    ) -> Result<bool, EncodeError> {
        self.ensure_anchor(assertion, horizon, holds, k)?;
        let (before, target) = (&holds[..k as usize], holds[k as usize]);

        // Layer 2: free-state random simulation. With the reset
        // selector off, the step query constrains nothing beyond the
        // graph itself, so any pattern with `k` good attempts and a bad
        // next one is a model of it: the step fails without the solver.
        let rng = &mut self.step_rng;
        self.step_sim.extend(&self.g, &mut |_| splitmix64(rng));
        let sim = &self.step_sim;
        let w = before.iter().fold(sim.lit(!target), |w, &h| w & sim.lit(h));
        if w != 0 {
            self.stats.step_sim_kills += 1;
            self.debug_step_witness(before, target, w.trailing_zeros());
            return Ok(false);
        }

        // Layer 3: SAT with the reset selector off.
        let mut lits: Vec<Lit> = Vec::with_capacity(k as usize + 1);
        for &hold in before {
            lits.push(self.em.emit(&self.g, hold, &mut self.solver));
        }
        lits.push(!self.em.emit(&self.g, target, &mut self.solver));
        self.count_sat_call();
        Ok(self.solver.solve_with(&lits).is_unsat())
    }

    /// Re-evaluates a step-case simulation witness through the scalar
    /// [`AigEvaluator`], as BMC replays its counterexamples: pattern
    /// `pattern` must hold every attempt in `before` and violate
    /// `target`.
    fn debug_step_witness(&self, before: &[AigLit], target: AigLit, pattern: u32) {
        if cfg!(debug_assertions) {
            let ev = AigEvaluator::combinational(
                &self.g,
                &self.step_sim.input_pattern(&self.g, pattern),
            );
            assert!(
                before.iter().all(|&h| ev.lit(h)) && !ev.lit(target),
                "step-case simulation witness must falsify the step query"
            );
        }
    }
}

/// Input-log entries for the frames the *current* check has read —
/// on a shared session this trims a counterexample to the frames its
/// candidate uses (a fresh single-check environment has no others).
fn input_log_entries<'e>(
    env: &'e DesignTraceEnv<'_>,
) -> impl Iterator<Item = (&'e str, i32, &'e BitVec)> + 'e {
    let frames = env.touched_frames();
    env.input_log()
        .iter()
        .filter(move |(_, f, _)| *f < frames)
        .map(|(n, f, bv)| (*n, *f as i32, bv))
}

/// Decodes one simulation pattern into a counterexample trace.
fn sim_cex(env: &DesignTraceEnv, sim: &BitSim, pattern: u32, anchor: u32) -> DesignCex {
    DesignCex {
        anchor,
        inputs: crate::cex::decode_trace(input_log_entries(env), |bit| sim.lit_bit(bit, pattern)),
    }
}

/// Decodes the solver model into a counterexample trace.
fn sat_cex(env: &DesignTraceEnv, em: &CnfEmitter, solver: &Solver, anchor: u32) -> DesignCex {
    DesignCex {
        anchor,
        inputs: crate::cex::decode_trace(
            input_log_entries(env),
            crate::cex::solver_bit_reader(em, solver),
        ),
    }
}

/// Trace environment over a recorded concrete simulation run: every
/// read resolves to a constant, so monitors fold to a definite verdict.
struct ReplayEnv<'a> {
    netlist: &'a Netlist,
    /// Per-frame values of every atom, as produced by [`Simulator`].
    frames: Vec<Vec<u128>>,
    consts: HashMap<String, (u32, u128)>,
}

impl TraceEnv for ReplayEnv<'_> {
    fn read(&mut self, _g: &mut Aig, name: &str, cycle: i32) -> Result<BitVec, EncodeError> {
        if let Some(&(w, v)) = self.consts.get(name) {
            return Ok(BitVec::constant(w as usize, v));
        }
        // Pre-history clamps to the reset state, mirroring
        // `DesignTraceEnv`.
        let cycle = (cycle.max(0) as usize).min(self.frames.len() - 1);
        let binding = self
            .netlist
            .net(name)
            .ok_or_else(|| EncodeError::UnknownSignal(name.to_string()))?;
        Ok(BitVec::constant(
            binding.width as usize,
            binding.value(&self.frames[cycle]),
        ))
    }

    fn constant(&self, name: &str) -> Option<(u32, u128)> {
        self.consts.get(name).copied()
    }
}

/// Replays a BMC counterexample through the cycle-accurate
/// [`sv_synth::Simulator`] and re-evaluates the assertion on the
/// concrete trace.
///
/// Returns `Ok(true)` iff the trace genuinely violates the evaluation
/// attempt anchored at `cex.anchor` — the end-to-end soundness check
/// for the bit-blaster, the CNF encoding, and the solver: a
/// counterexample that does not replay would mean one of them is
/// wrong. [`prove`] asserts this in debug builds for every
/// counterexample it returns; the property-test suite replays them
/// through this public entry point.
///
/// # Errors
///
/// [`EncodeError`] as for [`prove`] (plus `Unsupported` if the netlist
/// cannot be simulated).
pub fn replay_design_cex(
    netlist: &Netlist,
    assertion: &Assertion,
    consts: &[(String, u32, u128)],
    cex: &DesignCex,
) -> Result<bool, EncodeError> {
    let _span = fv_trace::span!("cex.replay", anchor = cex.anchor);
    let horizon = design_horizon(assertion);
    let total = cex.anchor + horizon;
    let mut sim = Simulator::new(netlist).map_err(|e| EncodeError::Unsupported(e.to_string()))?;
    let stimuli: HashMap<(&str, u32), u128> = cex
        .inputs
        .iter()
        .map(|v| ((v.signal.as_str(), v.cycle as u32), v.value))
        .collect();
    let reset = netlist.reset_name.clone();
    let mut frames: Vec<Vec<u128>> = Vec::with_capacity(total as usize);
    for f in 0..total {
        sim.step(&|name: &str, _w| {
            if reset.as_deref() == Some(name) {
                return u128::MAX; // deasserted, as in the formal setup
            }
            stimuli.get(&(name, f)).copied().unwrap_or(0)
        });
        frames.push(
            (0..netlist.atoms.len())
                .map(|i| sim.atom_value(AtomId(i as u32)))
                .collect(),
        );
    }
    let mut env = ReplayEnv {
        netlist,
        frames,
        consts: consts
            .iter()
            .map(|(n, w, v)| (n.clone(), (*w, *v)))
            .collect(),
    };
    let mut g = Aig::new();
    let holds = encode_assertion_at(&mut g, assertion, cex.anchor, total, &mut env)?;
    // Every read was a constant, so the monitor folds; evaluate the
    // residue (if any) with no free inputs.
    let ev = AigEvaluator::combinational(&g, &vec![false; g.num_inputs()]);
    Ok(!ev.lit(holds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_parser::{parse_assertion_str, parse_source};
    use sv_synth::elaborate;

    fn counter() -> Netlist {
        let src = "module m (clk, reset_, en, q, wrapped);\n\
            input clk; input reset_; input en;\n\
            output [1:0] q; output wrapped;\n\
            reg [1:0] cnt;\n\
            always @(posedge clk) begin\n\
            if (!reset_) cnt <= 2'd0;\n\
            else if (en) cnt <= cnt + 2'd1;\nend\n\
            assign q = cnt;\n\
            assign wrapped = (cnt == 2'd3);\nendmodule\n";
        let f = parse_source(src).unwrap();
        elaborate(&f, "m").unwrap()
    }

    fn prove_str(nl: &Netlist, a: &str) -> ProveResult {
        let a = parse_assertion_str(a).unwrap();
        prove(nl, &a, &[], ProveConfig::default()).unwrap()
    }

    #[test]
    fn tautology_is_proven() {
        let nl = counter();
        let r = prove_str(&nl, "assert property (@(posedge clk) en || !en);");
        assert!(r.is_proven());
    }

    #[test]
    fn tautology_needs_one_sat_call() {
        // The violation target folds to constant false at the base-case
        // anchor; the interleaved schedule then closes the proof with a
        // single k=1 consecution query.
        let nl = counter();
        let a = parse_assertion_str("assert property (@(posedge clk) en || !en);").unwrap();
        let (r, stats) = prove_with_stats(&nl, &a, &[], ProveConfig::default()).unwrap();
        assert!(r.is_proven());
        assert_eq!(stats.ternary_kills, 1, "{stats:?}");
        assert_eq!(stats.sat_calls, 1, "only the k=1 induction query");
        assert_eq!(stats.step_sim_kills, 0, "a proven step has no witness");
    }

    #[test]
    fn true_invariant_is_proven() {
        // Counter increments by exactly one when enabled.
        let nl = counter();
        let r = prove_str(
            &nl,
            "assert property (@(posedge clk) (en && q == 2'd1) |-> ##1 q == 2'd2);",
        );
        assert!(r.is_proven(), "got {r:?}");
    }

    #[test]
    fn proven_property_stops_after_small_k() {
        // 1-inductive invariant: the interleaved schedule proves it in
        // O(1) queries instead of a full 12-anchor BMC sweep.
        let nl = counter();
        let a = parse_assertion_str(
            "assert property (@(posedge clk) (en && q == 2'd1) |-> ##1 q == 2'd2);",
        )
        .unwrap();
        let (r, stats) = prove_with_stats(&nl, &a, &[], ProveConfig::default()).unwrap();
        assert_eq!(r, ProveResult::Proven { k: 1 });
        assert!(stats.queries() <= 3, "{stats:?}");
    }

    fn wrapping_counter() -> Netlist {
        // Counts 0..5 then wraps, so 6 and 7 are unreachable — but not
        // k-inductively so (6 can self-loop and step to 7).
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

    #[test]
    fn undetermined_path_reuses_one_solver() {
        // `q != 7` is true (unreachable) but never inductive, so both
        // bounds are exhausted: every SAT call after the first must run
        // on the same warmed solver.
        let nl = wrapping_counter();
        let a = parse_assertion_str("assert property (@(posedge clk) q != 3'd7);").unwrap();
        let (r, stats) = prove_with_stats(&nl, &a, &[], ProveConfig::default()).unwrap();
        assert_eq!(r, ProveResult::Undetermined);
        assert_eq!(stats.queries(), 18, "12 BMC anchors + 6 steps: {stats:?}");
        assert!(stats.sat_calls >= 2, "{stats:?}");
        assert_eq!(
            stats.solver_reuse_hits,
            stats.sat_calls - 1,
            "every SAT call after the first reuses the solver: {stats:?}"
        );
        assert!(stats.ternary_kills >= 1, "early anchors fold: {stats:?}");
        assert!(
            stats.step_sim_kills >= 1,
            "a random start state in the unreachable band fails a step: {stats:?}"
        );
    }

    #[test]
    fn hold_behaviour_is_proven() {
        let nl = counter();
        let r = prove_str(
            &nl,
            "assert property (@(posedge clk) (!en && q == 2'd2) |-> ##1 q == 2'd2);",
        );
        assert!(r.is_proven(), "got {r:?}");
    }

    #[test]
    fn false_property_is_falsified_with_cex() {
        let nl = counter();
        let r = prove_str(&nl, "assert property (@(posedge clk) q != 2'd3);");
        match r {
            ProveResult::Falsified { cex } => {
                assert!(!cex.inputs.is_empty());
            }
            other => panic!("expected falsified, got {other:?}"),
        }
    }

    #[test]
    fn falsification_is_usually_sim_killed() {
        // `q != 3` is violated by any run with enough enables — random
        // stimuli find it without a SAT call.
        let nl = counter();
        let a = parse_assertion_str("assert property (@(posedge clk) q != 2'd3);").unwrap();
        let (r, stats) = prove_with_stats(&nl, &a, &[], ProveConfig::default()).unwrap();
        assert!(matches!(r, ProveResult::Falsified { .. }));
        assert_eq!(stats.sim_kills, 1, "{stats:?}");
        // Anchors the counter provably cannot violate yet are killed by
        // ternary propagation; only the ambiguous middle anchors and the
        // interleaved consecution attempts pay SAT calls.
        assert!(stats.ternary_kills >= 1, "{stats:?}");
        assert!(stats.sat_calls <= 4, "{stats:?}");
    }

    #[test]
    fn cex_replays_in_simulator() {
        let nl = counter();
        let a = parse_assertion_str(
            "assert property (@(posedge clk) (en && q == 2'd1) |-> ##1 q == 2'd3);",
        )
        .unwrap();
        match prove(&nl, &a, &[], ProveConfig::default()).unwrap() {
            ProveResult::Falsified { cex } => {
                assert_eq!(
                    replay_design_cex(&nl, &a, &[], &cex),
                    Ok(true),
                    "returned counterexample must be a real violation"
                );
                // A doctored trace (all stimuli zeroed) must not replay.
                let mut bogus = cex.clone();
                for v in &mut bogus.inputs {
                    v.value = 0;
                }
                assert_eq!(replay_design_cex(&nl, &a, &[], &bogus), Ok(false));
            }
            other => panic!("expected falsified, got {other:?}"),
        }
    }

    #[test]
    fn wrong_transition_is_falsified() {
        let nl = counter();
        let r = prove_str(
            &nl,
            "assert property (@(posedge clk) (en && q == 2'd1) |-> ##1 q == 2'd3);",
        );
        assert!(matches!(r, ProveResult::Falsified { .. }), "got {r:?}");
    }

    #[test]
    fn unknown_signal_is_error() {
        let nl = counter();
        let a = parse_assertion_str("assert property (@(posedge clk) hidden == 1'b0);").unwrap();
        assert!(matches!(
            prove(&nl, &a, &[], ProveConfig::default()),
            Err(EncodeError::UnknownSignal(_))
        ));
    }

    #[test]
    fn unbounded_property_is_undetermined() {
        let nl = counter();
        let src = "assert property (@(posedge clk) en |-> strong(##[0:$] wrapped));";
        assert_eq!(prove_str(&nl, src), ProveResult::Undetermined);
        // The one-shot entry point still opens a session and checks the
        // assertion through it, so its counters say so.
        let a = parse_assertion_str(src).unwrap();
        for engine in [
            ProveEngine::Bounded,
            ProveEngine::Pdr,
            ProveEngine::Portfolio,
        ] {
            let cfg = ProveConfig { engine };
            let (r, stats) = prove_with_stats(&nl, &a, &[], cfg).unwrap();
            assert_eq!(r, ProveResult::Undetermined, "{engine:?}");
            assert_eq!(
                (stats.sessions_opened, stats.session_checks),
                (1, 1),
                "{engine:?}: {stats:?}"
            );
            assert_eq!(stats.queries(), 0, "{engine:?}: {stats:?}");
        }
    }

    #[test]
    fn consts_bind_state_names() {
        let nl = counter();
        let a = parse_assertion_str(
            "assert property (@(posedge clk) (en && q == SONE) |-> ##1 q == STWO);",
        )
        .unwrap();
        let consts = vec![("SONE".to_string(), 2, 1u128), ("STWO".to_string(), 2, 2)];
        let r = prove(&nl, &a, &consts, ProveConfig::default()).unwrap();
        assert!(r.is_proven(), "got {r:?}");
    }

    #[test]
    fn vacuous_implication_is_proven() {
        let nl = counter();
        // Antecedent `q == 1 && q == 2` can never fire.
        let vac = parse_assertion_str(
            "assert property (@(posedge clk) (q == 2'd1 && q == 2'd2) |-> ##1 en);",
        )
        .unwrap();
        let r = prove(&nl, &vac, &[], ProveConfig::default()).unwrap();
        assert!(r.is_proven(), "vacuous truths are proven: {r:?}");
    }

    #[test]
    fn session_stream_matches_fresh_prove() {
        // One long-lived session must return the same verdict (and the
        // same proof depth / earliest violating anchor — both are
        // semantic) as a fresh per-candidate prove call, for a stream
        // mixing proven, falsified, and undetermined candidates.
        let nl = wrapping_counter();
        let candidates = [
            "assert property (@(posedge clk) en || !en);",
            "assert property (@(posedge clk) q != 3'd7);",
            "assert property (@(posedge clk) q != 3'd2);",
            "assert property (@(posedge clk) (en && q == 3'd1) |-> ##1 q == 3'd2);",
            "assert property (@(posedge clk) (en && q == 3'd1) |-> ##1 q == 3'd4);",
            "assert property (@(posedge clk) en |-> strong(##[0:$] q == 3'd5));",
            "assert property (@(posedge clk) q != 3'd6);",
        ];
        let mut session = ProofSession::open(&nl, &[], ProveConfig::default()).unwrap();
        for src in candidates {
            let a = parse_assertion_str(src).unwrap();
            let fresh = prove(&nl, &a, &[], ProveConfig::default()).unwrap();
            let (via_session, _) = session.check(&a).unwrap();
            match (&fresh, &via_session) {
                (ProveResult::Proven { k: k1 }, ProveResult::Proven { k: k2 }) => {
                    assert_eq!(k1, k2, "{src}");
                }
                (ProveResult::Falsified { cex: c1 }, ProveResult::Falsified { cex: c2 }) => {
                    assert_eq!(c1.anchor, c2.anchor, "{src}");
                }
                (ProveResult::Undetermined, ProveResult::Undetermined) => {}
                (fresh, via) => panic!("{src}: fresh {fresh:?} != session {via:?}"),
            }
        }
        let stats = session.stats();
        assert_eq!(stats.sessions_opened, 1);
        assert_eq!(stats.session_checks, candidates.len() as u64);
        assert!(
            stats.unroll_reuse_hits > 0,
            "later candidates reuse the shared unrolling: {stats:?}"
        );
    }

    #[test]
    fn session_unknown_signal_leaves_session_usable() {
        let nl = counter();
        let mut session = ProofSession::open(&nl, &[], ProveConfig::default()).unwrap();
        let bad = parse_assertion_str("assert property (@(posedge clk) hidden == 1'b0);").unwrap();
        assert!(matches!(
            session.check(&bad),
            Err(EncodeError::UnknownSignal(_))
        ));
        let good = parse_assertion_str("assert property (@(posedge clk) en || !en);").unwrap();
        let (r, _) = session.check(&good).unwrap();
        assert!(r.is_proven());
        assert_eq!(session.stats().session_checks, 2);
    }

    #[test]
    fn repeated_candidate_strashes_to_warm_queries() {
        // The same property spelled two ways (two different parsed
        // assertions, so the memo does not answer the second): the
        // second check's monitors fold onto the existing nodes, so
        // every SAT call it makes runs on the already-warmed solver and
        // no new frames are unrolled.
        let nl = wrapping_counter();
        let a = parse_assertion_str("assert property (@(posedge clk) q != 3'd7);").unwrap();
        let b = parse_assertion_str("assert property (@(posedge clk) !(q == 3'd7));").unwrap();
        assert_ne!(a, b);
        let mut session = ProofSession::open(&nl, &[], ProveConfig::default()).unwrap();
        let (r1, first) = session.check(&a).unwrap();
        let frames_after_first = session.env.num_frames();
        let (r2, second) = session.check(&b).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(second.session_checks, 1, "not a memo repeat: {second:?}");
        assert_eq!(
            session.env.num_frames(),
            frames_after_first,
            "no new frames for a repeated candidate"
        );
        assert_eq!(
            second.solver_reuse_hits, second.sat_calls,
            "every repeat SAT call reuses the warmed solver: {second:?}"
        );
        assert_eq!(first.sessions_opened, 1, "first delta carries the open");
        assert_eq!(second.sessions_opened, 0);
    }

    #[test]
    fn repeated_candidate_is_answered_from_the_memo() {
        // A repeat returns the first result, counterexample included,
        // and its delta is one check repeat: no frames, no queries. The
        // same holds for a whitespace re-spelling (it parses to the same
        // assertion) and for a candidate whose check failed.
        let nl = wrapping_counter();
        for engine in [
            ProveEngine::Bounded,
            ProveEngine::Pdr,
            ProveEngine::Portfolio,
        ] {
            let mut session = ProofSession::open(&nl, &[], ProveConfig { engine }).unwrap();
            for (text, respelled) in [
                (
                    "assert property (@(posedge clk) q != 3'd2);",
                    "assert  property(@(posedge clk)\n    q!=3'd2 ) ;",
                ),
                (
                    "assert property (@(posedge clk) (en && q == 3'd1) |-> ##1 q == 3'd2);",
                    "assert property (@(posedge clk) (en&&q==3'd1)|->##1 q==3'd2);",
                ),
                (
                    "assert property (@(posedge clk) ghost == 1'b0);",
                    "assert property (@(posedge clk)\tghost == 1'b0);",
                ),
            ] {
                let a = parse_assertion_str(text).unwrap();
                let first = session.check(&a);
                let frames = session.env.num_frames();
                for again in [text, respelled] {
                    let b = parse_assertion_str(again).unwrap();
                    let before = session.stats();
                    let repeat = session.check(&b);
                    assert_eq!(
                        repeat.as_ref().map(|(r, _)| r),
                        first.as_ref().map(|(r, _)| r),
                        "{engine:?}: {again}"
                    );
                    let delta = session.stats().delta_since(&before);
                    assert_eq!(delta, ProverStats::repeat(), "{engine:?}: {again}");
                    if let Ok((_, stats)) = repeat {
                        assert_eq!(stats, ProverStats::repeat(), "{engine:?}: {again}");
                    }
                    assert_eq!(session.env.num_frames(), frames, "{engine:?}: {again}");
                }
            }
            let stats = session.stats();
            assert_eq!(
                (stats.session_checks, stats.check_repeats),
                (3, 6),
                "{engine:?}: {stats:?}"
            );
        }
    }

    fn portfolio_cfg() -> ProveConfig {
        ProveConfig {
            engine: ProveEngine::Portfolio,
        }
    }

    #[test]
    fn portfolio_rescues_deep_proof() {
        // Bounded alone gives up on `q != 7`; the portfolio proves it
        // via PDR and attributes the win.
        let nl = wrapping_counter();
        let a = parse_assertion_str("assert property (@(posedge clk) q != 3'd7);").unwrap();
        assert_eq!(
            prove(&nl, &a, &[], ProveConfig::default()).unwrap(),
            ProveResult::Undetermined
        );
        let (r, stats) = prove_with_stats(&nl, &a, &[], portfolio_cfg()).unwrap();
        assert!(r.is_proven(), "got {r:?}");
        assert_eq!(stats.pdr_wins, 1, "{stats:?}");
        assert!(stats.pdr_clauses_learned >= 1, "{stats:?}");
    }

    #[test]
    fn portfolio_verdicts_and_traces_match_bounded() {
        // For every candidate the bounded engine can decide, the
        // portfolio must report the same verdict kind — for falsified
        // candidates the *identical* trace, rendered byte-for-byte the
        // same — and do exactly the bounded engine's work: PDR never
        // runs, so the check's counter delta is the bounded one.
        let nl = wrapping_counter();
        let candidates = [
            "assert property (@(posedge clk) en || !en);",
            "assert property (@(posedge clk) q != 3'd2);",
            "assert property (@(posedge clk) (en && q == 3'd1) |-> ##1 q == 3'd2);",
            "assert property (@(posedge clk) (en && q == 3'd1) |-> ##1 q == 3'd4);",
            "assert property (@(posedge clk) en |-> strong(##[0:$] q == 3'd5));",
        ];
        let mut bounded = ProofSession::open(&nl, &[], ProveConfig::default()).unwrap();
        let mut portfolio = ProofSession::open(&nl, &[], portfolio_cfg()).unwrap();
        for src in candidates {
            let a = parse_assertion_str(src).unwrap();
            let (b, b_stats) = bounded.check(&a).unwrap();
            let (p, p_stats) = portfolio.check(&a).unwrap();
            match (&b, &p) {
                (ProveResult::Falsified { cex: c1 }, ProveResult::Falsified { cex: c2 }) => {
                    assert_eq!(c1.to_string(), c2.to_string(), "{src}");
                }
                (ProveResult::Proven { .. }, ProveResult::Proven { .. }) => {}
                (ProveResult::Undetermined, ProveResult::Undetermined) => {}
                (b, p) => panic!("{src}: bounded {b:?} vs portfolio {p:?}"),
            }
            if b != ProveResult::Undetermined {
                assert_eq!(p_stats, b_stats, "{src}");
            }
        }
    }

    #[test]
    fn portfolio_deep_falsification_replays() {
        // A 4-bit counter first reaches 13 at anchor 13, past the
        // bounded schedule's last anchor, and every step query fails
        // (a free state can count up into 13): bounded is undetermined,
        // PDR finds the deep counterexample and it replays.
        let f = parse_source(
            "module m (clk, reset_, en, q);\n\
             input clk; input reset_; input en; output [3:0] q;\n\
             reg [3:0] cnt;\n\
             always @(posedge clk) begin\n\
             if (!reset_) cnt <= 4'd0;\n\
             else if (en) cnt <= cnt + 4'd1;\nend\n\
             assign q = cnt;\nendmodule\n",
        )
        .unwrap();
        let nl = elaborate(&f, "m").unwrap();
        let a = parse_assertion_str("assert property (@(posedge clk) q != 4'd13);").unwrap();
        assert_eq!(
            prove(&nl, &a, &[], ProveConfig::default()).unwrap(),
            ProveResult::Undetermined
        );
        let (r, stats) = prove_with_stats(&nl, &a, &[], portfolio_cfg()).unwrap();
        match r {
            ProveResult::Falsified { cex } => {
                assert!(cex.anchor > MAX_BMC, "{cex}");
                assert_eq!(replay_design_cex(&nl, &a, &[], &cex), Ok(true));
            }
            other => panic!("expected falsified, got {other:?}"),
        }
        assert_eq!(stats.pdr_wins, 1, "{stats:?}");
    }

    #[test]
    fn portfolio_session_stays_usable_after_errors() {
        let nl = wrapping_counter();
        let mut session = ProofSession::open(&nl, &[], portfolio_cfg()).unwrap();
        let bad = parse_assertion_str("assert property (@(posedge clk) ghost == 1'b0);").unwrap();
        assert!(session.check(&bad).is_err());
        let good = parse_assertion_str("assert property (@(posedge clk) q != 3'd7);").unwrap();
        let (r, _) = session.check(&good).unwrap();
        assert!(r.is_proven(), "got {r:?}");
    }

    #[test]
    fn reset_state_respected_by_bmc() {
        // At cycle 0 the counter is 0: q == 0 initially can only be
        // violated after stepping, so `q == 0 at anchor 0` means BMC
        // must find the violation at a later anchor.
        let nl = counter();
        let r = prove_str(&nl, "assert property (@(posedge clk) q == 2'd0);");
        match r {
            ProveResult::Falsified { cex } => assert!(cex.anchor >= 1),
            other => panic!("expected falsified, got {other:?}"),
        }
    }
}
