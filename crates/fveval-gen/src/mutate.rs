//! OP-Tree mutation layer: near-miss *falsifiable* candidates derived
//! from provable ones.
//!
//! The FVRuleLearner line of work views an SVA assertion as an
//! operator tree (OP-Tree) and observes that the wrong assertions
//! language models produce are usually small perturbations of a correct
//! one: a flipped comparison, a delay window off by one cycle, an
//! inverted guard, a missing antecedent. This module manufactures
//! exactly those hard negatives, at any volume, with *golden* verdicts:
//! every mutant is re-proven to `Falsified` (and its counterexample
//! replayed) by [`crate::validate_scenario`] before a suite ships, and
//! a mutant that accidentally stays provable is a hard error naming the
//! operator and seed — never a silent skip.
//!
//! Falsifiability is **guaranteed, not hoped for**: after the
//! syntactic pre-filter below picks a site, the tentative mutant is
//! proven against the elaborated design under the default bounds and
//! only accepted once the prover returns `Falsified` *and* the
//! counterexample replays — rejected sites are retried
//! deterministically. A family whose every mutation site stays
//! provable simply yields fewer mutants.
//!
//! # Eligibility rules
//!
//! Mutation sites are pre-filtered so that, for the assertion shapes
//! the built-in families emit, most derived mutants have a
//! counterexample reachable within the default bounded horizon:
//!
//! - **Comparison flips** (`==`/`!=`, `===`/`!==`, `<`/`>=`, `<=`/`>`)
//!   are allowed in antecedents and in invariant bodies; in a
//!   consequent only when the antecedent is *fast* (see below).
//! - **Connective swaps** (`&&`/`||`) are allowed in antecedent
//!   position only: widening or narrowing when the property fires is
//!   falsifying there, while a consequent-side swap can accidentally
//!   weaken the property into a tautology.
//! - **Consequent sites** require a fast antecedent — one whose
//!   literals are all tiny (value <= 2) — so the mutated consequent is
//!   exercised within the bounded horizon. A guard like
//!   `count == MAX` can take `2^w` cycles to fire; mutating its
//!   consequent would yield an `Undetermined`, not a `Falsified`.
//! - **Dropped antecedents** must not leave a body that samples
//!   history (`$past`, `$stable`, ...) at the anchor cycle, where
//!   bounded pre-history and replay clamping could disagree.
//!
//! # Determinism
//!
//! `derive_mutants` draws from `StdRng` seeded with
//! `seed ^ MUTATE_TAG ^ family_tag(family)` and prints mutants through
//! the canonical [`sv_ast::print_assertion`] printer, so the same
//! (seed, family, operator) always yields byte-identical assertion
//! text — across runs, `--jobs` values, and engines.

use crate::suite::family_tag;
use crate::{Candidate, GoldenVerdict, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sv_ast::{
    print_assertion, Assertion, BinaryOp, DelayBound, Expr, Literal, PropExpr, SeqExpr, SysFunc,
    UnaryOp,
};
use sv_parser::parse_assertion_str;

/// Seed-stream tag of the mutation layer, xor-mixed with the scenario
/// seed and family tag so mutant selection never aliases the structural
/// randomness of any family.
const MUTATE_TAG: u64 = 0x4d75_7461; // "Muta"

/// One OP-Tree mutation operator.
///
/// Each operator turns a provable assertion into a near-miss
/// *falsifiable* one; the difficulty report stratifies scores by this
/// tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MutationOp {
    /// Swap one comparison (or, in antecedent position, one `&&`/`||`
    /// connective) for its opposite.
    OperatorSwap,
    /// Shift one finite `##N` / `##[lo:hi]` delay window one cycle
    /// later.
    OffByOneBound,
    /// Invert the polarity of a plain boolean implication guard.
    GuardPolarity,
    /// Drop the antecedent of an implication, asserting the consequent
    /// unconditionally.
    DropAntecedent,
}

impl MutationOp {
    /// All operators, in round-robin application order.
    pub const ALL: [MutationOp; 4] = [
        MutationOp::OperatorSwap,
        MutationOp::OffByOneBound,
        MutationOp::GuardPolarity,
        MutationOp::DropAntecedent,
    ];

    /// Short stable tag used in mutant names, manifests, and the
    /// difficulty table.
    pub fn tag(self) -> &'static str {
        match self {
            MutationOp::OperatorSwap => "opswap",
            MutationOp::OffByOneBound => "offbyone",
            MutationOp::GuardPolarity => "polarity",
            MutationOp::DropAntecedent => "dropante",
        }
    }

    /// One-line human description for reports.
    pub fn describe(self) -> &'static str {
        match self {
            MutationOp::OperatorSwap => "an operator is swapped for its opposite",
            MutationOp::OffByOneBound => "a delay bound is off by one cycle",
            MutationOp::GuardPolarity => "the guard polarity is inverted",
            MutationOp::DropAntecedent => "the triggering antecedent is dropped",
        }
    }

    /// Parses a tag back into an operator (manifest round-trips).
    pub fn from_tag(tag: &str) -> Option<MutationOp> {
        MutationOp::ALL.iter().copied().find(|op| op.tag() == tag)
    }

    fn index(self) -> usize {
        MutationOp::ALL.iter().position(|&op| op == self).unwrap()
    }
}

/// Where in the property a rewriter currently is, deciding which sites
/// are near-miss-safe (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// Implication antecedent: comparisons and `&&`/`||` connectives.
    Ante,
    /// Invariant body or a consequent under a fast antecedent:
    /// comparisons only.
    Body,
    /// No sites: consequent under a slow antecedent, or under a
    /// polarity-inverting property operator.
    Blocked,
}

/// Pre-order site cursor shared by the counting and rewriting passes:
/// a pass with `target == usize::MAX` only counts.
struct Walk {
    target: usize,
    seen: usize,
}

impl Walk {
    fn take(&mut self) -> bool {
        let here = self.seen == self.target;
        self.seen += 1;
        here
    }
}

fn flip_cmp(op: BinaryOp) -> Option<BinaryOp> {
    Some(match op {
        BinaryOp::Eq => BinaryOp::Neq,
        BinaryOp::Neq => BinaryOp::Eq,
        BinaryOp::CaseEq => BinaryOp::CaseNeq,
        BinaryOp::CaseNeq => BinaryOp::CaseEq,
        BinaryOp::Lt => BinaryOp::Ge,
        BinaryOp::Ge => BinaryOp::Lt,
        BinaryOp::Le => BinaryOp::Gt,
        BinaryOp::Gt => BinaryOp::Le,
        _ => return None,
    })
}

fn flip_gate(op: BinaryOp) -> Option<BinaryOp> {
    match op {
        BinaryOp::LogAnd => Some(BinaryOp::LogOr),
        BinaryOp::LogOr => Some(BinaryOp::LogAnd),
        _ => None,
    }
}

/// A *fast* antecedent fires within a couple of cycles of reset for
/// the shapes the families emit: every literal it compares against is
/// tiny and nothing hides a large constant behind a fill, replication,
/// or bitwise complement.
fn ante_fast(s: &SeqExpr) -> bool {
    fn expr_fast(e: &Expr) -> bool {
        match e {
            Expr::Ident(_) => true,
            Expr::Literal(Literal::Int { value, .. }) => *value <= 2,
            Expr::Literal(Literal::Fill(ones)) => !*ones,
            Expr::Unary(UnaryOp::BitNot, _) => false,
            Expr::Unary(_, a) => expr_fast(a),
            Expr::Binary(_, a, b) => expr_fast(a) && expr_fast(b),
            Expr::Ternary(c, t, e) => expr_fast(c) && expr_fast(t) && expr_fast(e),
            Expr::Concat(items) => items.iter().all(expr_fast),
            Expr::Replicate(..) => false,
            // Select indices are structural, not compared values.
            Expr::Index(a, _) | Expr::Slice(a, _, _) => expr_fast(a),
            Expr::SysCall(_, args) => args.iter().all(expr_fast),
        }
    }
    match s {
        SeqExpr::Expr(e) => expr_fast(e),
        SeqExpr::Delay { lhs, rhs, .. } => lhs.as_deref().is_none_or(ante_fast) && ante_fast(rhs),
        SeqExpr::Repeat { seq, .. } => ante_fast(seq),
        SeqExpr::And(a, b) | SeqExpr::Or(a, b) => ante_fast(a) && ante_fast(b),
        SeqExpr::Throughout(e, s) => expr_fast(e) && ante_fast(s),
    }
}

fn cons_scope(ante: &SeqExpr, outer: Scope) -> Scope {
    if outer == Scope::Blocked || !ante_fast(ante) {
        Scope::Blocked
    } else {
        Scope::Body
    }
}

/// Whether `e` samples pre-current-cycle history.
fn samples_history(e: &Expr) -> bool {
    let is_hist = |f: &SysFunc| {
        matches!(
            f,
            SysFunc::Past | SysFunc::Stable | SysFunc::Rose | SysFunc::Fell | SysFunc::Changed
        )
    };
    match e {
        Expr::Ident(_) | Expr::Literal(_) => false,
        Expr::Unary(_, a) => samples_history(a),
        Expr::Binary(_, a, b) | Expr::Replicate(a, b) | Expr::Index(a, b) => {
            samples_history(a) || samples_history(b)
        }
        Expr::Ternary(a, b, c) | Expr::Slice(a, b, c) => {
            samples_history(a) || samples_history(b) || samples_history(c)
        }
        Expr::Concat(items) => items.iter().any(samples_history),
        Expr::SysCall(f, args) => is_hist(f) || args.iter().any(samples_history),
    }
}

/// Whether a property, anchored at cycle 0, could sample history before
/// the trace starts (conservative: `true` when unsure).
fn samples_history_at_anchor(p: &PropExpr) -> bool {
    fn seq_at_anchor(s: &SeqExpr) -> bool {
        match s {
            SeqExpr::Expr(e) => samples_history(e),
            SeqExpr::Delay {
                lhs: None, lo, rhs, ..
            } => *lo == 0 && seq_at_anchor(rhs),
            SeqExpr::Delay { lhs: Some(l), .. } => seq_at_anchor(l),
            SeqExpr::Repeat { seq, .. } => seq_at_anchor(seq),
            SeqExpr::And(a, b) | SeqExpr::Or(a, b) => seq_at_anchor(a) || seq_at_anchor(b),
            SeqExpr::Throughout(e, s) => samples_history(e) || seq_at_anchor(s),
        }
    }
    match p {
        PropExpr::Seq(s) | PropExpr::Strong(s) | PropExpr::Weak(s) => seq_at_anchor(s),
        PropExpr::Implication { ante, .. } => seq_at_anchor(ante),
        _ => true,
    }
}

// ---------------------------------------------------------------------
// OperatorSwap
// ---------------------------------------------------------------------

fn swap_expr(w: &mut Walk, e: &Expr, scope: Scope) -> Expr {
    match e {
        Expr::Binary(op, a, b) => {
            let flipped = match scope {
                Scope::Blocked => None,
                Scope::Ante => flip_cmp(*op).or_else(|| flip_gate(*op)),
                Scope::Body => flip_cmp(*op),
            };
            let op2 = match flipped {
                Some(f) if w.take() => f,
                _ => *op,
            };
            Expr::Binary(
                op2,
                Box::new(swap_expr(w, a, scope)),
                Box::new(swap_expr(w, b, scope)),
            )
        }
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(swap_expr(w, a, scope))),
        Expr::Ternary(c, t, e2) => Expr::Ternary(
            Box::new(swap_expr(w, c, scope)),
            Box::new(swap_expr(w, t, scope)),
            Box::new(swap_expr(w, e2, scope)),
        ),
        Expr::Concat(items) => Expr::Concat(items.iter().map(|x| swap_expr(w, x, scope)).collect()),
        Expr::Replicate(n, x) => Expr::Replicate(n.clone(), Box::new(swap_expr(w, x, scope))),
        // Select indices are structural: not mutation sites.
        Expr::Index(a, i) => Expr::Index(Box::new(swap_expr(w, a, scope)), i.clone()),
        Expr::Slice(a, h, l) => Expr::Slice(Box::new(swap_expr(w, a, scope)), h.clone(), l.clone()),
        Expr::SysCall(f, args) => {
            Expr::SysCall(*f, args.iter().map(|x| swap_expr(w, x, scope)).collect())
        }
        Expr::Ident(_) | Expr::Literal(_) => e.clone(),
    }
}

fn swap_seq(w: &mut Walk, s: &SeqExpr, scope: Scope) -> SeqExpr {
    match s {
        SeqExpr::Expr(e) => SeqExpr::Expr(swap_expr(w, e, scope)),
        SeqExpr::Delay { lhs, lo, hi, rhs } => SeqExpr::Delay {
            lhs: lhs.as_ref().map(|l| Box::new(swap_seq(w, l, scope))),
            lo: *lo,
            hi: *hi,
            rhs: Box::new(swap_seq(w, rhs, scope)),
        },
        SeqExpr::Repeat { seq, lo, hi } => SeqExpr::Repeat {
            seq: Box::new(swap_seq(w, seq, scope)),
            lo: *lo,
            hi: *hi,
        },
        SeqExpr::And(a, b) => SeqExpr::And(
            Box::new(swap_seq(w, a, scope)),
            Box::new(swap_seq(w, b, scope)),
        ),
        SeqExpr::Or(a, b) => SeqExpr::Or(
            Box::new(swap_seq(w, a, scope)),
            Box::new(swap_seq(w, b, scope)),
        ),
        SeqExpr::Throughout(e, s2) => {
            SeqExpr::Throughout(swap_expr(w, e, scope), Box::new(swap_seq(w, s2, scope)))
        }
    }
}

fn swap_prop(w: &mut Walk, p: &PropExpr, scope: Scope) -> PropExpr {
    match p {
        PropExpr::Seq(s) => PropExpr::Seq(swap_seq(w, s, scope)),
        PropExpr::Strong(s) => PropExpr::Strong(swap_seq(w, s, scope)),
        PropExpr::Weak(s) => PropExpr::Weak(swap_seq(w, s, scope)),
        // Under negation or disjunction a local flip is not guaranteed
        // falsifying; block sites there.
        PropExpr::Not(x) => PropExpr::Not(Box::new(swap_prop(w, x, Scope::Blocked))),
        PropExpr::Or(a, b) => PropExpr::Or(
            Box::new(swap_prop(w, a, Scope::Blocked)),
            Box::new(swap_prop(w, b, Scope::Blocked)),
        ),
        PropExpr::And(a, b) => PropExpr::And(
            Box::new(swap_prop(w, a, scope)),
            Box::new(swap_prop(w, b, scope)),
        ),
        PropExpr::Implication {
            ante,
            non_overlap,
            cons,
        } => {
            let ante_scope = if scope == Scope::Blocked {
                Scope::Blocked
            } else {
                Scope::Ante
            };
            let inner = cons_scope(ante, scope);
            PropExpr::Implication {
                ante: swap_seq(w, ante, ante_scope),
                non_overlap: *non_overlap,
                cons: Box::new(swap_prop(w, cons, inner)),
            }
        }
        PropExpr::SEventually(x) => {
            PropExpr::SEventually(Box::new(swap_prop(w, x, Scope::Blocked)))
        }
        PropExpr::Always(x) => PropExpr::Always(Box::new(swap_prop(w, x, scope))),
        PropExpr::Nexttime(x) => PropExpr::Nexttime(Box::new(swap_prop(w, x, scope))),
        PropExpr::Until { strong, lhs, rhs } => PropExpr::Until {
            strong: *strong,
            lhs: Box::new(swap_prop(w, lhs, Scope::Blocked)),
            rhs: Box::new(swap_prop(w, rhs, Scope::Blocked)),
        },
        PropExpr::IfElse { cond, then, alt } => PropExpr::IfElse {
            cond: cond.clone(),
            then: Box::new(swap_prop(w, then, Scope::Blocked)),
            alt: alt
                .as_ref()
                .map(|x| Box::new(swap_prop(w, x, Scope::Blocked))),
        },
    }
}

// ---------------------------------------------------------------------
// OffByOneBound
// ---------------------------------------------------------------------

fn delay_seq(w: &mut Walk, s: &SeqExpr, scope: Scope) -> SeqExpr {
    match s {
        SeqExpr::Expr(_) => s.clone(),
        SeqExpr::Delay { lhs, lo, hi, rhs } => {
            let (lo2, hi2) = match hi {
                DelayBound::Finite(h) if scope != Scope::Blocked && w.take() => {
                    (*lo + 1, DelayBound::Finite(*h + 1))
                }
                _ => (*lo, *hi),
            };
            SeqExpr::Delay {
                lhs: lhs.as_ref().map(|l| Box::new(delay_seq(w, l, scope))),
                lo: lo2,
                hi: hi2,
                rhs: Box::new(delay_seq(w, rhs, scope)),
            }
        }
        SeqExpr::Repeat { seq, lo, hi } => SeqExpr::Repeat {
            seq: Box::new(delay_seq(w, seq, scope)),
            lo: *lo,
            hi: *hi,
        },
        SeqExpr::And(a, b) => SeqExpr::And(
            Box::new(delay_seq(w, a, scope)),
            Box::new(delay_seq(w, b, scope)),
        ),
        SeqExpr::Or(a, b) => SeqExpr::Or(
            Box::new(delay_seq(w, a, scope)),
            Box::new(delay_seq(w, b, scope)),
        ),
        SeqExpr::Throughout(e, s2) => {
            SeqExpr::Throughout(e.clone(), Box::new(delay_seq(w, s2, scope)))
        }
    }
}

fn delay_prop(w: &mut Walk, p: &PropExpr, scope: Scope) -> PropExpr {
    match p {
        PropExpr::Seq(s) => PropExpr::Seq(delay_seq(w, s, scope)),
        PropExpr::Strong(s) => PropExpr::Strong(delay_seq(w, s, scope)),
        PropExpr::Weak(s) => PropExpr::Weak(delay_seq(w, s, scope)),
        PropExpr::Not(x) => PropExpr::Not(Box::new(delay_prop(w, x, Scope::Blocked))),
        PropExpr::Or(a, b) => PropExpr::Or(
            Box::new(delay_prop(w, a, Scope::Blocked)),
            Box::new(delay_prop(w, b, Scope::Blocked)),
        ),
        PropExpr::And(a, b) => PropExpr::And(
            Box::new(delay_prop(w, a, scope)),
            Box::new(delay_prop(w, b, scope)),
        ),
        PropExpr::Implication {
            ante,
            non_overlap,
            cons,
        } => {
            let ante_scope = if scope == Scope::Blocked {
                Scope::Blocked
            } else {
                Scope::Ante
            };
            let inner = cons_scope(ante, scope);
            PropExpr::Implication {
                ante: delay_seq(w, ante, ante_scope),
                non_overlap: *non_overlap,
                cons: Box::new(delay_prop(w, cons, inner)),
            }
        }
        PropExpr::SEventually(x) => {
            PropExpr::SEventually(Box::new(delay_prop(w, x, Scope::Blocked)))
        }
        PropExpr::Always(x) => PropExpr::Always(Box::new(delay_prop(w, x, scope))),
        PropExpr::Nexttime(x) => PropExpr::Nexttime(Box::new(delay_prop(w, x, scope))),
        PropExpr::Until { strong, lhs, rhs } => PropExpr::Until {
            strong: *strong,
            lhs: Box::new(delay_prop(w, lhs, Scope::Blocked)),
            rhs: Box::new(delay_prop(w, rhs, Scope::Blocked)),
        },
        PropExpr::IfElse { cond, then, alt } => PropExpr::IfElse {
            cond: cond.clone(),
            then: Box::new(delay_prop(w, then, Scope::Blocked)),
            alt: alt
                .as_ref()
                .map(|x| Box::new(delay_prop(w, x, Scope::Blocked))),
        },
    }
}

// ---------------------------------------------------------------------
// Rewriting entry point
// ---------------------------------------------------------------------

/// Rewrites assertion `a` by applying `op` at pre-order site `target`;
/// returns the (possibly unchanged) assertion and the number of
/// eligible sites seen. Counting passes use `target == usize::MAX`.
fn rewrite(a: &Assertion, op: MutationOp, target: usize) -> (Assertion, usize) {
    let mut w = Walk { target, seen: 0 };
    let body = match op {
        MutationOp::OperatorSwap => swap_prop(&mut w, &a.body, Scope::Body),
        MutationOp::OffByOneBound => delay_prop(&mut w, &a.body, Scope::Body),
        MutationOp::GuardPolarity => match &a.body {
            PropExpr::Implication {
                ante: SeqExpr::Expr(guard),
                non_overlap,
                cons,
            } => {
                let flipped = if w.take() {
                    match guard {
                        Expr::Unary(UnaryOp::LogNot, inner) => (**inner).clone(),
                        other => Expr::Unary(UnaryOp::LogNot, Box::new(other.clone())),
                    }
                } else {
                    guard.clone()
                };
                PropExpr::Implication {
                    ante: SeqExpr::Expr(flipped),
                    non_overlap: *non_overlap,
                    cons: cons.clone(),
                }
            }
            other => other.clone(),
        },
        MutationOp::DropAntecedent => match &a.body {
            PropExpr::Implication {
                ante: _,
                non_overlap: false,
                cons,
            } if !samples_history_at_anchor(cons) => {
                if w.take() {
                    (**cons).clone()
                } else {
                    a.body.clone()
                }
            }
            other => other.clone(),
        },
    };
    let mutated = Assertion {
        label: a.label.clone(),
        clock: a.clock.clone(),
        disable: a.disable.clone(),
        body,
    };
    (mutated, w.seen)
}

fn site_count(a: &Assertion, op: MutationOp) -> usize {
    rewrite(a, op, usize::MAX).1
}

/// Derives up to `count` mutated candidates from the scenario's
/// family-authored provable candidates, round-robining over
/// [`MutationOp::ALL`]. See [`derive_mutants_with_ops`].
pub fn derive_mutants(scenario: &Scenario, count: usize) -> Vec<Candidate> {
    derive_mutants_with_ops(scenario, count, &MutationOp::ALL)
}

/// Proves a tentative mutant under the *default* engine (never the
/// caller's engine choice, so suites stay byte-identical across
/// engines) and accepts it only on `Falsified` with a replaying
/// counterexample.
fn confirmed_falsifiable(compiled: &fv_core::CompiledDesign, a: &Assertion) -> bool {
    let cfg = fv_core::ProveConfig::default();
    let (netlist, consts) = (compiled.netlist(), compiled.consts());
    match fv_core::prove_with_stats(netlist, a, consts, cfg) {
        Ok((fv_core::ProveResult::Falsified { cex }, _)) => {
            fv_core::replay_design_cex(netlist, a, consts, &cex).unwrap_or(false)
        }
        _ => false,
    }
}

/// Derives up to `count` mutated candidates restricted to `ops`.
///
/// The eligibility rules (module docs) are a syntactic pre-filter;
/// every tentative mutant is then **re-proven before it enters the
/// pool**: only mutants the default-bounds prover falsifies — with a
/// counterexample that replays on the reference simulator — are
/// emitted. A mutation site that accidentally yields a provable (or
/// undecided) assertion is rejected and another site or candidate is
/// tried, deterministically.
///
/// Deterministic in (scenario seed, family, `ops`): re-running — under
/// any `--jobs` value or engine selection — yields byte-identical
/// mutant names, assertion text, and order. At most one mutant is
/// derived per (candidate, operator) pair, so the yield is capped by
/// the option space; fewer than `count` mutants are returned when it
/// is exhausted.
pub fn derive_mutants_with_ops(
    scenario: &Scenario,
    count: usize,
    ops: &[MutationOp],
) -> Vec<Candidate> {
    if count == 0 || ops.is_empty() {
        return Vec::new();
    }
    let Ok(compiled) = scenario.compile() else {
        // Unelaborable collateral is a generator bug surfaced by
        // `validate_scenario`; there is nothing sound to mutate.
        return Vec::new();
    };
    // Family-authored provable candidates are the mutation substrate;
    // mutants are never re-mutated.
    let parsed: Vec<Option<Assertion>> = scenario
        .candidates
        .iter()
        .map(|c| {
            if c.verdict.is_provable() && c.mutation.is_none() {
                parse_assertion_str(&c.sva).ok()
            } else {
                None
            }
        })
        .collect();
    let mut used = vec![[false; MutationOp::ALL.len()]; parsed.len()];
    let mut rng =
        StdRng::seed_from_u64(scenario.params.seed ^ MUTATE_TAG ^ family_tag(scenario.family));
    let mut out = Vec::new();
    'rounds: for k in 0..count {
        for j in 0..ops.len() {
            let op = ops[(k + j) % ops.len()];
            loop {
                let avail: Vec<usize> = parsed
                    .iter()
                    .enumerate()
                    .filter(|(i, p)| {
                        !used[*i][op.index()] && p.as_ref().is_some_and(|a| site_count(a, op) > 0)
                    })
                    .map(|(i, _)| i)
                    .collect();
                if avail.is_empty() {
                    break; // this operator is exhausted; try the next
                }
                let i = avail[rng.gen_range(0..avail.len())];
                // One attempt per (candidate, operator) pair, successful or not.
                used[i][op.index()] = true;
                let tree = parsed[i].as_ref().unwrap();
                let n = site_count(tree, op);
                let start = rng.gen_range(0..n);
                let accepted = (0..n).find_map(|s| {
                    let (mutated, _) = rewrite(tree, op, (start + s) % n);
                    confirmed_falsifiable(&compiled, &mutated).then_some(mutated)
                });
                let Some(mutated) = accepted else {
                    continue; // no falsifying site here; another candidate
                };
                let orig = &scenario.candidates[i];
                out.push(Candidate {
                    name: format!("{}_mut_{}", orig.name, op.tag()),
                    sva: print_assertion(&mutated),
                    nl: format!(
                        "that a near-miss variant of the following reference property holds \
                         ({}): {}",
                        op.describe(),
                        orig.nl
                    ),
                    verdict: GoldenVerdict::Falsifiable,
                    mutation: Some(op),
                });
                continue 'rounds;
            }
        }
        break; // every operator exhausted its option space
    }
    out
}

/// Appends up to `count` derived mutants to the scenario's candidate
/// pool (the `SuiteConfig::mutations` knob).
pub fn mutate_scenario(scenario: &mut Scenario, count: usize) {
    let mutants = derive_mutants(scenario, count);
    scenario.candidates.extend(mutants);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generator, GenParams};

    fn fifo_scenario(seed: u64) -> Scenario {
        generator("fifo").unwrap().generate(&GenParams {
            depth: 4,
            width: 8,
            seed,
        })
    }

    #[test]
    fn all_four_operators_fire_on_the_fifo_family() {
        let s = fifo_scenario(7);
        for op in MutationOp::ALL {
            let mutants = derive_mutants_with_ops(&s, 4, &[op]);
            assert!(!mutants.is_empty(), "{}: no mutants", op.tag());
            for m in &mutants {
                assert_eq!(m.mutation, Some(op));
                assert_eq!(m.verdict, GoldenVerdict::Falsifiable);
                assert!(m.name.ends_with(op.tag()), "{}", m.name);
            }
        }
    }

    #[test]
    fn mutants_differ_from_their_originals_and_round_trip() {
        let s = fifo_scenario(11);
        for m in derive_mutants(&s, 8) {
            assert!(
                s.candidates.iter().all(|c| c.sva != m.sva),
                "mutant must differ: {}",
                m.sva
            );
            let tree = parse_assertion_str(&m.sva).expect("mutant parses");
            assert_eq!(print_assertion(&tree), m.sva, "canonical print");
        }
    }

    #[test]
    fn derivation_is_deterministic_and_unique_per_operator_pair() {
        let s = fifo_scenario(3);
        let a = derive_mutants(&s, 16);
        let b = derive_mutants(&s, 16);
        assert_eq!(a, b, "byte-identical across runs");
        let mut names: Vec<&str> = a.iter().map(|m| m.name.as_str()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "unique mutant names");
    }

    #[test]
    fn exhausted_option_space_caps_the_yield() {
        let s = fifo_scenario(5);
        let all = derive_mutants(&s, 1000);
        let provables = s
            .candidates
            .iter()
            .filter(|c| c.verdict.is_provable())
            .count();
        assert!(all.len() <= provables * MutationOp::ALL.len());
        assert!(!all.is_empty());
    }

    #[test]
    fn from_tag_round_trips() {
        for op in MutationOp::ALL {
            assert_eq!(MutationOp::from_tag(op.tag()), Some(op));
        }
        assert_eq!(MutationOp::from_tag("bogus"), None);
    }
}
