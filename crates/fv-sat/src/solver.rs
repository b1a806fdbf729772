//! The CDCL search loop.

use crate::clause::{ClauseDb, ClauseRef};
use crate::heap::VarHeap;
use crate::luby::luby;
use crate::watch::{WatchArena, Watcher};
use crate::{LBool, Lit, Var};

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; query it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The solve was abandoned before reaching an answer because the
    /// per-call conflict budget ([`Solver::set_conflict_budget`]) ran
    /// out. The solver backtracks to the root level and stays fully
    /// usable — clause database and trail are intact, and the next
    /// query behaves as if this one had never been issued.
    Interrupted,
}

impl SolveResult {
    /// `true` for [`SolveResult::Sat`].
    #[inline]
    pub fn is_sat(self) -> bool {
        self == SolveResult::Sat
    }

    /// `true` for [`SolveResult::Unsat`].
    #[inline]
    pub fn is_unsat(self) -> bool {
        self == SolveResult::Unsat
    }

    /// `true` for [`SolveResult::Interrupted`].
    #[inline]
    pub fn is_interrupted(self) -> bool {
        self == SolveResult::Interrupted
    }
}

/// Counters describing the work a solve performed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned clauses currently in the database.
    pub learnt: u64,
}

#[derive(Debug, Clone, Copy)]
struct VarData {
    reason: ClauseRef,
    level: u32,
}

/// A CDCL SAT solver over clauses added incrementally.
///
/// Variables are created with [`Solver::new_var`]; clauses with
/// [`Solver::add_clause`]. [`Solver::solve_with`] supports assumption
/// literals, which the BMC engine uses for incremental queries.
///
/// # Examples
///
/// ```
/// use fv_sat::{Solver, Lit};
/// let mut s = Solver::new();
/// let (a, b) = (s.new_var(), s.new_var());
/// s.add_clause([Lit::pos(a), Lit::pos(b)]);
/// s.add_clause([Lit::neg(a), Lit::pos(b)]);
/// assert!(s.solve().is_sat());
/// assert_eq!(s.value(b), Some(true));
/// ```
#[derive(Debug)]
pub struct Solver {
    db: ClauseDb,
    /// Current assignment per variable.
    assigns: Vec<LBool>,
    /// Saved phase per variable.
    phase: Vec<bool>,
    var_data: Vec<VarData>,
    /// Watch lists indexed by literal index, all in one arena.
    watches: WatchArena,
    /// Assignment trail.
    trail: Vec<Lit>,
    /// Indices into `trail` where each decision level starts.
    trail_lim: Vec<usize>,
    /// Head of the propagation queue (index into trail).
    qhead: usize,
    /// VSIDS activities.
    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    cla_inc: f64,
    /// Scratch: seen markers for conflict analysis.
    seen: Vec<bool>,
    /// Scratch: the clause [`Solver::add_clause`] sorts and simplifies
    /// before copying it into the arena.
    add_buf: Vec<Lit>,
    /// `true` once an empty clause was added at level 0.
    unsat_at_root: bool,
    stats: SolverStats,
    max_learnt: f64,
    /// Per-call conflict budget (conflicts allowed within one solve).
    conflict_budget: Option<u64>,
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            db: ClauseDb::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            var_data: Vec::new(),
            watches: WatchArena::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarHeap::new(),
            cla_inc: 1.0,
            seen: Vec::new(),
            add_buf: Vec::new(),
            unsat_at_root: false,
            stats: SolverStats::default(),
            max_learnt: 1000.0,
            conflict_budget: None,
        }
    }

    /// Installs (or clears) a per-call conflict budget.
    ///
    /// Each [`Solver::solve_with`] call that analyzes more than `budget`
    /// conflicts abandons the query and returns
    /// [`SolveResult::Interrupted`]. The budget applies per call, not
    /// cumulatively, and stays installed for later calls.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.phase.push(false);
        self.var_data.push(VarData {
            reason: ClauseRef::UNDEF,
            level: 0,
        });
        self.watches.add_var();
        self.activity.push(0.0);
        self.seen.push(false);
        self.order.grow_to(self.assigns.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live clauses (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.db.live_count()
    }

    /// Work counters for the most recent solving activity.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Adds a clause. Returns `false` if the solver became trivially
    /// unsatisfiable (empty clause, or conflicting units at level 0).
    ///
    /// Duplicated literals are removed; tautological clauses (containing
    /// both `l` and `!l`) are silently dropped.
    ///
    /// Clauses attach at the root level: if a previous
    /// [`Solver::solve_with`] answered SAT, its model trail is undone
    /// first (so interleave queries and clause additions freely, but
    /// read [`Solver::value`] before growing the formula).
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        self.cancel_until(0);
        if self.unsat_at_root {
            return false;
        }
        let mut buf = std::mem::take(&mut self.add_buf);
        buf.clear();
        buf.extend(lits);
        let added = self.add_buffered(&mut buf);
        self.add_buf = buf;
        added
    }

    /// [`Solver::add_clause`] of the clause in the scratch buffer, at
    /// the root level: sorts and dedups `lits`, drops literals false at
    /// level 0, then copies the rest into the arena and attaches them.
    fn add_buffered(&mut self, lits: &mut Vec<Lit>) -> bool {
        lits.sort_unstable();
        lits.dedup();
        // Tautology / falsified-literal simplification at level 0, in
        // place: literals left of `kept` are the clause so far.
        let mut kept = 0;
        for i in 0..lits.len() {
            let l = lits[i];
            if i + 1 < lits.len() && lits[i + 1] == !l {
                return true; // tautology
            }
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => {
                    lits[kept] = l;
                    kept += 1;
                }
            }
        }
        match kept {
            0 => {
                self.unsat_at_root = true;
                false
            }
            1 => {
                self.enqueue(lits[0], ClauseRef::UNDEF);
                if self.propagate().is_defined() {
                    self.unsat_at_root = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                // A safe point to re-pack: no watch span is held here.
                self.watches.collect_garbage();
                let cref = self.db.alloc(&lits[..kept], false);
                self.attach(cref);
                true
            }
        }
    }

    /// Creates a fresh *selector* (activation) literal for a clause
    /// group.
    ///
    /// Clauses added through [`Solver::add_clause_selected`] with this
    /// literal are enforced only while the selector is passed to
    /// [`Solver::solve_with`] as an assumption; queries that omit it see
    /// the group as absent. This is how the BMC engine keeps one solver
    /// across query families that differ in a constraint block (e.g.
    /// reset-state pinning on for bounded model checking, off for the
    /// k-induction step case) without ever rebuilding the clause
    /// database.
    ///
    /// # Examples
    ///
    /// ```
    /// use fv_sat::{Lit, Solver};
    ///
    /// let mut s = Solver::new();
    /// let x = s.new_var();
    /// let pin = s.new_selector();
    /// s.add_clause_selected(pin, [Lit::neg(x)]); // x = 0, but only when pinned
    /// // With the group enabled, x is forced low...
    /// assert!(s.solve_with(&[pin, Lit::pos(x)]).is_unsat());
    /// // ...without it, x is free again.
    /// assert!(s.solve_with(&[Lit::pos(x)]).is_sat());
    /// ```
    pub fn new_selector(&mut self) -> Lit {
        Lit::pos(self.new_var())
    }

    /// Adds a clause to the group guarded by `selector` (see
    /// [`Solver::new_selector`]): the clause is active exactly in the
    /// [`Solver::solve_with`] calls that assume the selector.
    ///
    /// Returns `false` if the solver became trivially unsatisfiable
    /// (which a guarded clause alone can never cause).
    pub fn add_clause_selected<I: IntoIterator<Item = Lit>>(
        &mut self,
        selector: Lit,
        lits: I,
    ) -> bool {
        self.add_clause(lits.into_iter().chain([!selector]))
    }

    /// Solves the current formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// Assumptions are treated as temporary unit decisions: the result is
    /// relative to them and they are undone afterwards, so the solver can
    /// be reused incrementally.
    ///
    /// Returns [`SolveResult::Interrupted`] (leaving the solver fully
    /// reusable) when the per-call conflict budget runs out; see
    /// [`Solver::set_conflict_budget`].
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        let mut span = fv_trace::span!("sat.solve");
        if span.is_active() {
            span.attr("vars", self.num_vars());
            span.attr("assumptions", assumptions.len());
        }
        let result = self.solve_with_inner(assumptions);
        span.attr(
            "result",
            match result {
                SolveResult::Sat => "sat",
                SolveResult::Unsat => "unsat",
                SolveResult::Interrupted => "interrupted",
            },
        );
        result
    }

    fn solve_with_inner(&mut self, assumptions: &[Lit]) -> SolveResult {
        if self.unsat_at_root {
            return SolveResult::Unsat;
        }
        self.cancel_until(0);
        let conflict_limit = self
            .conflict_budget
            .map(|b| self.stats.conflicts.saturating_add(b));
        let mut restarts: u64 = 0;
        loop {
            let budget = 100 * luby(restarts);
            match self.search(budget, assumptions, conflict_limit) {
                Some(res) => {
                    if res != SolveResult::Sat {
                        self.cancel_until(0);
                    }
                    return res;
                }
                None => {
                    restarts += 1;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
            }
        }
    }

    /// The model value of `v` after a [`SolveResult::Sat`] answer.
    ///
    /// Returns `None` for variables the search left unconstrained (any
    /// value satisfies the formula).
    pub fn value(&self, v: Var) -> Option<bool> {
        self.assigns[v.index()].to_bool()
    }

    /// The model value of a literal after a SAT answer.
    pub fn lit_value_model(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b ^ l.is_neg())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        self.assigns[l.var().index()].xor(l.is_neg())
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn attach(&mut self, cref: ClauseRef) {
        let c = self.db.lits(cref);
        debug_assert!(c.len() >= 2);
        let (l0, l1) = (c[0], c[1]);
        self.watches
            .push((!l0).index(), Watcher { cref, blocker: l1 });
        self.watches
            .push((!l1).index(), Watcher { cref, blocker: l0 });
    }

    fn detach(&mut self, cref: ClauseRef) {
        let c = self.db.lits(cref);
        let (l0, l1) = (c[0], c[1]);
        self.watches.retain((!l0).index(), |w| w.cref != cref);
        self.watches.retain((!l1).index(), |w| w.cref != cref);
    }

    fn enqueue(&mut self, l: Lit, reason: ClauseRef) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var();
        self.assigns[v.index()] = LBool::from(!l.is_neg());
        self.var_data[v.index()] = VarData {
            reason,
            level: self.decision_level(),
        };
        self.trail.push(l);
    }

    /// Unit propagation. Returns the conflicting clause, or UNDEF.
    ///
    /// Walks each propagated literal's watch list in place in the
    /// arena. Pushes go to other literals' lists only (a clause never
    /// holds both `p` and `!p`), so the list's span stays put while
    /// swap-removes shorten it.
    fn propagate(&mut self) -> ClauseRef {
        let mut conflict = ClauseRef::UNDEF;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            let (start, mut watching) = self.watches.span(p.index());
            let mut i = 0;
            'watches: while i < watching {
                let w = self.watches.at(start + i);
                // Blocking-literal fast path.
                if self.lit_value(w.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let cref = w.cref;
                let c = self.db.lits_mut(cref);
                // Normalize: the falsified watch is lits[1].
                let false_lit = !p;
                if c[0] == false_lit {
                    c.swap(0, 1);
                }
                debug_assert_eq!(c[1], false_lit);
                let first = c[0];
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    self.watches.set_at(
                        start + i,
                        Watcher {
                            cref,
                            blocker: first,
                        },
                    );
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.db.len(cref);
                for k in 2..len {
                    let lk = self.db.lits(cref)[k];
                    if self.lit_value(lk) != LBool::False {
                        self.db.lits_mut(cref).swap(1, k);
                        debug_assert_ne!(!lk, p, "a clause never holds both p and !p");
                        self.watches.push(
                            (!lk).index(),
                            Watcher {
                                cref,
                                blocker: first,
                            },
                        );
                        self.watches.swap_remove(p.index(), i);
                        watching -= 1;
                        continue 'watches;
                    }
                }
                // No new watch: clause is unit or conflicting.
                self.watches.set_at(
                    start + i,
                    Watcher {
                        cref,
                        blocker: first,
                    },
                );
                i += 1;
                if self.lit_value(first) == LBool::False {
                    conflict = cref;
                    self.qhead = self.trail.len();
                    break;
                } else {
                    self.enqueue(first, cref);
                }
            }
            if conflict.is_defined() {
                break;
            }
        }
        conflict
    }

    /// First-UIP conflict analysis. Returns (learned clause, backtrack level).
    fn analyze(&mut self, mut conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(Var(0))]; // placeholder for asserting lit
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            debug_assert!(conflict.is_defined());
            self.bump_clause(conflict);
            // Read the clause in place: nothing below touches the arena.
            for k in usize::from(p.is_some())..self.db.len(conflict) {
                let q = self.db.lits(conflict)[k];
                let v = q.var();
                if !self.seen[v.index()] && self.var_data[v.index()].level > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.var_data[v.index()].level >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            p = Some(pl);
            conflict = self.var_data[pl.var().index()].reason;
        }

        // Clause minimization: drop literals implied by the rest.
        let keep: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| !self.redundant(l))
            .collect();

        // Clear seen markers. The trail walk cleared the current level's;
        // the rest mark exactly the lower-level literals collected above,
        // kept or dropped (redundant() only reads them).
        for l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }
        debug_assert!(
            self.seen.iter().all(|&s| !s),
            "conflict analysis leaves no seen marker behind"
        );
        learnt.truncate(1);
        learnt.extend(keep);

        // Backtrack level = second-highest level in the clause.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level_of(learnt[i]) > self.level_of(learnt[max_i]) {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level_of(learnt[1])
        };
        (learnt, bt)
    }

    /// Local (non-recursive, depth-1) redundancy check: a literal is
    /// redundant if its reason clause is entirely made of seen literals
    /// or root-level assignments.
    fn redundant(&self, l: Lit) -> bool {
        let vd = self.var_data[l.var().index()];
        if !vd.reason.is_defined() {
            return false;
        }
        self.db.lits(vd.reason).iter().skip(1).all(|&q| {
            let qd = self.var_data[q.var().index()];
            self.seen[q.var().index()] || qd.level == 0
        })
    }

    #[inline]
    fn level_of(&self, l: Lit) -> u32 {
        self.var_data[l.var().index()].level
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.phase[v.index()] = !l.is_neg();
            self.assigns[v.index()] = LBool::Undef;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1.0 / RESCALE_LIMIT;
            }
            self.var_inc *= 1.0 / RESCALE_LIMIT;
        }
        self.order.update(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.db.is_learnt(cref) {
            return;
        }
        if self.db.bump_activity(cref, self.cla_inc) > RESCALE_LIMIT {
            self.db.scale_activities(1.0 / RESCALE_LIMIT);
            self.cla_inc *= 1.0 / RESCALE_LIMIT;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= CLA_DECAY;
    }

    fn pick_branch(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    fn reduce_db(&mut self) {
        let mut learnts: Vec<(f64, ClauseRef)> = self
            .db
            .learnt_refs()
            .map(|r| (self.db.activity(r), r))
            .collect();
        learnts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let target = learnts.len() / 2;
        let mut removed = 0;
        for &(_, cref) in learnts.iter() {
            if removed >= target {
                break;
            }
            if self.is_reason(cref) || self.db.len(cref) <= 2 {
                continue;
            }
            self.detach(cref);
            self.db.free(cref);
            removed += 1;
        }
        self.db.collect_garbage();
        self.watches.collect_garbage();
        self.stats.learnt = self.db.learnt_count() as u64;
    }

    fn is_reason(&self, cref: ClauseRef) -> bool {
        let Some(&l0) = self.db.lits(cref).first() else {
            return false;
        };
        self.lit_value(l0) == LBool::True && self.var_data[l0.var().index()].reason == cref
    }

    /// Runs CDCL until SAT, UNSAT, the conflict limit, or `budget`
    /// conflicts (restart signal: `None`).
    fn search(
        &mut self,
        budget: u64,
        assumptions: &[Lit],
        conflict_limit: Option<u64>,
    ) -> Option<SolveResult> {
        let mut conflicts_here: u64 = 0;
        loop {
            let conflict = self.propagate();
            if conflict.is_defined() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if conflict_limit.is_some_and(|l| self.stats.conflicts > l) {
                    return Some(SolveResult::Interrupted);
                }
                if self.decision_level() == 0 {
                    self.unsat_at_root = true;
                    return Some(SolveResult::Unsat);
                }
                // Conflict below the assumption levels means the
                // assumptions themselves are inconsistent.
                let (learnt, bt) = self.analyze(conflict);
                let assumption_level = self.trail_lim.len().min(assumptions.len());
                if (bt as usize) < assumption_level
                    && self.decision_level() as usize <= assumptions.len()
                {
                    return Some(SolveResult::Unsat);
                }
                self.cancel_until(bt);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    if self.lit_value(asserting) == LBool::False {
                        return Some(SolveResult::Unsat);
                    }
                    if self.lit_value(asserting) == LBool::Undef {
                        self.enqueue(asserting, ClauseRef::UNDEF);
                    }
                } else {
                    let cref = self.db.alloc(&learnt, true);
                    self.attach(cref);
                    self.bump_clause(cref);
                    self.enqueue(asserting, cref);
                }
                self.decay_activities();
                if self.db.learnt_count() as f64 > self.max_learnt {
                    self.reduce_db();
                    self.max_learnt *= 1.1;
                }
            } else {
                if conflicts_here >= budget {
                    return None; // restart
                }
                // Place assumptions as pseudo-decisions first.
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already satisfied: open an empty level so the
                            // next assumption is considered.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => return Some(SolveResult::Unsat),
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, ClauseRef::UNDEF);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => return Some(SolveResult::Sat),
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let l = Lit::new(v, !self.phase[v.index()]);
                        self.enqueue(l, ClauseRef::UNDEF);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(s.new_var())).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([Lit::pos(v)]);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(v), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause([Lit::pos(v)]));
        assert!(!s.add_clause([Lit::neg(v)]));
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn unit_chain_propagates() {
        // (a) (!a | b) (!b | c) => all true
        let mut s = Solver::new();
        let l = lits(&mut s, 3);
        s.add_clause([l[0]]);
        s.add_clause([!l[0], l[1]]);
        s.add_clause([!l[1], l[2]]);
        assert!(s.solve().is_sat());
        for &x in &l {
            assert_eq!(s.lit_value_model(x), Some(true));
        }
    }

    #[test]
    fn xor_three_vars() {
        // a xor b xor c = 1 as CNF, plus a=1, b=1 => c=1.
        let mut s = Solver::new();
        let l = lits(&mut s, 3);
        let (a, b, c) = (l[0], l[1], l[2]);
        s.add_clause([a, b, c]);
        s.add_clause([a, !b, !c]);
        s.add_clause([!a, b, !c]);
        s.add_clause([!a, !b, c]);
        s.add_clause([a]);
        s.add_clause([b]);
        assert!(s.solve().is_sat());
        assert_eq!(s.lit_value_model(c), Some(true));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_3_into_2_unsat() {
        // p_{i,j}: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let mut p = [[Lit::pos(Var(0)); 2]; 3];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = Lit::pos(s.new_var());
            }
        }
        for row in &p {
            s.add_clause([row[0], row[1]]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn assumptions_are_transient() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([Lit::neg(a), Lit::pos(b)]);
        assert!(s.solve_with(&[Lit::pos(a)]).is_sat());
        assert_eq!(s.value(b), Some(true));
        // Contradictory assumptions: UNSAT, but the base stays SAT.
        assert!(s.solve_with(&[Lit::pos(a), Lit::neg(b)]).is_unsat());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn selector_groups_toggle_per_query() {
        // Two incompatible clause groups over shared variables: each is
        // consistent alone, both together are not, and the solver is
        // reused across all four queries.
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause([Lit::pos(x), Lit::pos(y)]); // always on
        let g_low = s.new_selector();
        s.add_clause_selected(g_low, [Lit::neg(x)]);
        s.add_clause_selected(g_low, [Lit::neg(y)]);
        let g_high = s.new_selector();
        s.add_clause_selected(g_high, [Lit::pos(x)]);

        assert!(s.solve().is_sat(), "no groups: base formula only");
        assert!(s.solve_with(&[g_high]).is_sat());
        assert!(s.solve_with(&[g_low]).is_unsat(), "x=y=0 contradicts x|y");
        assert!(s.solve_with(&[g_high]).is_sat(), "disabled again");
    }

    #[test]
    fn selected_multiliteral_clause_behaves() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let sel = s.new_selector();
        s.add_clause_selected(sel, [Lit::pos(a), Lit::pos(b)]);
        // Enabled: at least one of a, b.
        assert!(s.solve_with(&[sel, Lit::neg(a), Lit::neg(b)]).is_unsat());
        // Disabled: both may be low.
        assert!(s.solve_with(&[Lit::neg(a), Lit::neg(b)]).is_sat());
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause([Lit::pos(a), Lit::neg(a)]));
        assert!(s.solve().is_sat());
    }

    #[test]
    fn duplicate_literals_deduplicated() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause([Lit::pos(a), Lit::pos(a)]));
        assert!(s.solve().is_sat());
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn php_4_into_3_unsat_exercises_learning() {
        let n = 4;
        let m = 3;
        let mut s = Solver::new();
        let mut p = vec![vec![Lit::pos(Var(0)); m]; n];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = Lit::pos(s.new_var());
            }
        }
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert!(s.solve().is_unsat());
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn model_satisfies_all_clauses_random() {
        // Deterministic pseudo-random 3-SAT near the easy region.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..20 {
            let n = 20 + (round % 5);
            let m = 2 * n;
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            let mut clauses = Vec::new();
            for _ in 0..m {
                let c: Vec<Lit> = (0..3)
                    .map(|_| {
                        let v = vars[(next() % n as u64) as usize];
                        Lit::new(v, next() % 2 == 0)
                    })
                    .collect();
                clauses.push(c.clone());
                s.add_clause(c);
            }
            if s.solve().is_sat() {
                for c in &clauses {
                    assert!(
                        c.iter().any(|&l| s.lit_value_model(l).unwrap_or(true)),
                        "model must satisfy every clause"
                    );
                }
            }
        }
    }

    /// Pigeonhole formula (`n` pigeons, `m` holes) guarded by a fresh
    /// selector, so the hard UNSAT core is active only under assumption.
    /// UNSAT when `n > m`, and resolution-hard enough to need many
    /// conflicts.
    fn pigeonhole_selected(s: &mut Solver, n: usize, m: usize) -> Lit {
        let sel = s.new_selector();
        let mut p = vec![vec![Lit::pos(Var(0)); m]; n];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = Lit::pos(s.new_var());
            }
        }
        for row in &p {
            s.add_clause_selected(sel, row.iter().copied());
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in p.iter().skip(i1 + 1) {
                for (a, b) in row1.iter().zip(row2) {
                    s.add_clause_selected(sel, [!*a, !*b]);
                }
            }
        }
        sel
    }

    #[test]
    fn conflict_budget_interrupts_hard_query() {
        let mut s = Solver::new();
        let sel = pigeonhole_selected(&mut s, 7, 6);
        s.set_conflict_budget(Some(20));
        assert!(
            s.solve_with(&[sel]).is_interrupted(),
            "budget must cut the search"
        );
        // The same solver, budget lifted, still reaches the real answer:
        // clause database and trail survived the interruption.
        s.set_conflict_budget(None);
        assert!(s.solve_with(&[sel]).is_unsat());
    }

    /// Checks the references a compaction must preserve: every watcher
    /// points at a live clause watching its literal, and every implied
    /// literal on the trail heads its reason clause.
    fn assert_refs_intact(s: &Solver) {
        for (idx, ws) in s.watches.lists().enumerate() {
            let watched = !Lit::from_index(idx);
            for w in ws {
                let c = s.db.lits(w.cref);
                assert!(c.len() >= 2, "watcher of {watched} on a deleted clause");
                assert!(c[..2].contains(&watched), "{watched} not watched in {c:?}");
            }
        }
        for &l in &s.trail {
            let reason = s.var_data[l.var().index()].reason;
            if reason.is_defined() {
                assert_eq!(s.db.lits(reason).first(), Some(&l), "reason of {l}");
            }
        }
    }

    /// Whether some assignment of `n` variables satisfies every clause
    /// and every assumption.
    fn brute_force_sat(n: u32, clauses: &[Vec<Lit>], assumptions: &[Lit]) -> bool {
        (0..1u32 << n).any(|bits| {
            let holds = |l: &Lit| (bits >> l.var().0 & 1 == 1) != l.is_neg();
            assumptions.iter().all(holds) && clauses.iter().all(|c| c.iter().any(holds))
        })
    }

    /// `(decisions, propagations, conflicts)` summed over the rounds
    /// of the test below, as the solver made them with one `Vec` per
    /// watch list.
    const PINNED_SEARCH: (u64, u64, u64) = (21_511, 45_016, 247);

    #[test]
    fn incremental_queries_agree_with_brute_force_through_compactions() {
        let mut seed = 0x2545F4914F6CDD1Du64;
        let next = |seed: &mut u64, m: u64| {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            *seed % m
        };
        let (mut reductions, mut compactions) = (0, 0);
        let mut searched = (0, 0, 0);
        for round in 0..12 {
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..8).map(|_| s.new_var()).collect();
            let selectors = [s.new_selector(), s.new_selector()];
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            let mut consistent = true;
            for step in 0..400 {
                let random_lit =
                    |seed: &mut u64| Lit::new(vars[next(seed, 8) as usize], next(seed, 2) == 1);
                // Clauses arrive fast at first, then rarely, so later
                // queries mostly re-search a fixed formula.
                if step < 10 || step % 30 == 0 {
                    let clause: Vec<Lit> = (0..3).map(|_| random_lit(&mut seed)).collect();
                    if step % 3 == 0 {
                        let sel = selectors[step % 2];
                        s.add_clause_selected(sel, clause.iter().copied());
                        clauses.push(clause.into_iter().chain([!sel]).collect());
                    } else {
                        consistent &= s.add_clause(clause.iter().copied());
                        clauses.push(clause);
                    }
                    // `false` means the formula is unsatisfiable at the
                    // root; `true` promises nothing.
                    assert!(consistent || !brute_force_sat(10, &clauses, &[]));
                }
                let mut assumptions: Vec<Lit> = (0..next(&mut seed, 4))
                    .map(|_| random_lit(&mut seed))
                    .collect();
                assumptions.extend(selectors.iter().filter(|_| next(&mut seed, 2) == 1));
                // A tiny learned-clause limit reduces the database after
                // almost every conflict, so garbage piles up and the
                // arena is compacted mid-search.
                s.max_learnt = 1.0;
                let garbage = s.db.garbage();
                let result = s.solve_with(&assumptions);
                reductions += usize::from(s.max_learnt > 1.0);
                compactions += usize::from(s.db.garbage() < garbage);
                let expected = brute_force_sat(10, &clauses, &assumptions);
                assert_eq!(result.is_sat(), expected, "round {round} step {step}");
                if result.is_sat() {
                    assert!(assumptions
                        .iter()
                        .all(|&l| s.lit_value_model(l) == Some(true)));
                    for c in &clauses {
                        assert!(c.iter().any(|&l| s.lit_value_model(l) == Some(true)));
                    }
                }
                assert_refs_intact(&s);
            }
            let st = s.stats();
            searched.0 += st.decisions;
            searched.1 += st.propagations;
            searched.2 += st.conflicts;
        }
        assert!(
            reductions > 0 && compactions > 0,
            "{reductions} {compactions}"
        );
        // The search itself is pinned: watch-list storage must not move
        // a single decision, propagation or conflict.
        assert_eq!(
            searched, PINNED_SEARCH,
            "(decisions, propagations, conflicts)"
        );
    }

    #[test]
    fn interrupted_solver_answers_next_query() {
        let mut s = Solver::new();
        let sel = pigeonhole_selected(&mut s, 7, 6);
        s.set_conflict_budget(Some(10));
        assert!(s.solve_with(&[sel]).is_interrupted());
        // A fresh easy query over new variables must come back correct.
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([Lit::pos(a), Lit::pos(b)]);
        s.set_conflict_budget(None);
        assert!(s.solve_with(&[Lit::neg(a)]).is_sat());
        assert_eq!(s.value(b), Some(true));
    }
}
