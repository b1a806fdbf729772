//! Bounded monitor encoding for SVA sequences and properties.
//!
//! Sequences are encoded as *match sets*: the set of `(end_cycle,
//! condition)` pairs at which a match starting at `t` can complete
//! within the horizon, plus a `beyond` condition under which a match
//! could still complete past the horizon. Weak operators treat `beyond`
//! as success, strong operators as failure — the LTLf neutral/strong
//! distinction that produces the paper's partial-equivalence examples
//! (e.g. `|-> ##[1:$] e` vs `|-> strong(##[0:$] e)`).

use crate::env::TraceEnv;
use crate::error::EncodeError;
use crate::expr::compile_bool;
use fv_aig::{Aig, AigLit};
use sv_ast::{Assertion, DelayBound, PropExpr, SeqExpr};

type Result<T> = std::result::Result<T, EncodeError>;

/// The bounded match set of a sequence, anchored at some start cycle.
#[derive(Debug, Clone)]
pub(crate) struct SeqEnc {
    /// `(end_cycle, condition)` pairs for matches completing in-horizon.
    pub ends: Vec<(u32, AigLit)>,
    /// Condition under which a match could complete beyond the horizon.
    pub beyond: AigLit,
}

impl SeqEnc {
    /// Disjunction of all in-horizon match conditions.
    pub fn any_match(&self, g: &mut Aig) -> AigLit {
        g.or_all(self.ends.iter().map(|&(_, c)| c))
    }
}

/// Encodes sequence `seq` anchored at cycle `t` over a trace of
/// `horizon` cycles (cycles `0..horizon`).
///
/// # Errors
///
/// Propagates [`EncodeError`] from the boolean layer; zero-repetition
/// and other unsupported corners are reported as `Unsupported`.
pub(crate) fn encode_seq(
    g: &mut Aig,
    seq: &SeqExpr,
    t: u32,
    horizon: u32,
    env: &mut dyn TraceEnv,
) -> Result<SeqEnc> {
    if t >= horizon {
        return Ok(SeqEnc {
            ends: Vec::new(),
            beyond: AigLit::TRUE,
        });
    }
    match seq {
        SeqExpr::Expr(e) => {
            let c = compile_bool(g, e, t as i32, env)?;
            Ok(SeqEnc {
                ends: vec![(t, c)],
                beyond: AigLit::FALSE,
            })
        }
        SeqExpr::Delay { lhs, lo, hi, rhs } => {
            let lhs_enc = match lhs {
                Some(l) => encode_seq(g, l, t, horizon, env)?,
                None => SeqEnc {
                    // A leading delay anchors the right operand at t + d.
                    ends: vec![(t, AigLit::TRUE)],
                    beyond: AigLit::FALSE,
                },
            };
            let mut ends = Vec::new();
            let mut beyond = lhs_enc.beyond;
            for &(e, c) in &lhs_enc.ends {
                let max_d = match hi {
                    DelayBound::Finite(h) => *h,
                    DelayBound::Unbounded => horizon.saturating_sub(e),
                };
                for d in *lo..=max_d {
                    let s = e + d;
                    if s >= horizon {
                        beyond = g.or(beyond, c);
                        break;
                    }
                    let rhs_enc = encode_seq(g, rhs, s, horizon, env)?;
                    for &(e2, c2) in &rhs_enc.ends {
                        let both = g.and(c, c2);
                        ends.push((e2, both));
                    }
                    let rb = g.and(c, rhs_enc.beyond);
                    beyond = g.or(beyond, rb);
                }
                // An unbounded delay can always defer past the horizon.
                if hi.finite().is_none() {
                    beyond = g.or(beyond, c);
                }
                // A bounded window reaching past the horizon defers too.
                if let DelayBound::Finite(h) = hi {
                    if e + h >= horizon {
                        beyond = g.or(beyond, c);
                    }
                }
            }
            Ok(SeqEnc {
                ends: merge_ends(g, ends),
                beyond,
            })
        }
        SeqExpr::Repeat { seq, lo, hi } => {
            // `[*0...]` approximated as `[*1...]` (documented; the corpora
            // never use zero repetition).
            let lo = (*lo).max(1);
            let max_n = match hi {
                DelayBound::Finite(h) => (*h).max(lo),
                DelayBound::Unbounded => horizon + 1,
            };
            let mut ends = Vec::new();
            let mut beyond = AigLit::FALSE;
            // level = match set after k+1 consecutive matches.
            let mut level = encode_seq(g, seq, t, horizon, env)?;
            let mut count = 1;
            loop {
                if count >= lo {
                    ends.extend(level.ends.iter().copied());
                    if hi.finite().is_none() || count == max_n {
                        beyond = g.or(beyond, level.beyond);
                    }
                }
                beyond = g.or(beyond, level.beyond);
                if count == max_n || level.ends.is_empty() {
                    break;
                }
                // Chain one more match: starts one past each end.
                let mut next_ends = Vec::new();
                for &(e, c) in &level.ends {
                    let s = e + 1;
                    if s >= horizon {
                        beyond = g.or(beyond, c);
                        continue;
                    }
                    let sub = encode_seq(g, seq, s, horizon, env)?;
                    for &(e2, c2) in &sub.ends {
                        let both = g.and(c, c2);
                        next_ends.push((e2, both));
                    }
                    let sb = g.and(c, sub.beyond);
                    beyond = g.or(beyond, sb);
                }
                level = SeqEnc {
                    ends: merge_ends(g, next_ends),
                    beyond: AigLit::FALSE,
                };
                count += 1;
            }
            Ok(SeqEnc {
                ends: merge_ends(g, ends),
                beyond,
            })
        }
        SeqExpr::And(a, b) => {
            let ea = encode_seq(g, a, t, horizon, env)?;
            let eb = encode_seq(g, b, t, horizon, env)?;
            let mut ends = Vec::new();
            for &(e1, c1) in &ea.ends {
                for &(e2, c2) in &eb.ends {
                    let both = g.and(c1, c2);
                    ends.push((e1.max(e2), both));
                }
            }
            let ma = ea.any_match(g);
            let mb = eb.any_match(g);
            let mb_or_beyond = g.or(mb, eb.beyond);
            let t1 = g.and(ea.beyond, mb_or_beyond);
            let t2 = g.and(eb.beyond, ma);
            let beyond = g.or(t1, t2);
            Ok(SeqEnc {
                ends: merge_ends(g, ends),
                beyond,
            })
        }
        SeqExpr::Or(a, b) => {
            let ea = encode_seq(g, a, t, horizon, env)?;
            let eb = encode_seq(g, b, t, horizon, env)?;
            let mut ends = ea.ends;
            ends.extend(eb.ends);
            let beyond = g.or(ea.beyond, eb.beyond);
            Ok(SeqEnc {
                ends: merge_ends(g, ends),
                beyond,
            })
        }
        SeqExpr::Throughout(guard, body) => {
            let eb = encode_seq(g, body, t, horizon, env)?;
            let mut ends = Vec::new();
            for &(e, c) in &eb.ends {
                let mut cond = c;
                for u in t..=e {
                    let gv = compile_bool(g, guard, u as i32, env)?;
                    cond = g.and(cond, gv);
                }
                ends.push((e, cond));
            }
            let mut beyond = eb.beyond;
            for u in t..horizon {
                let gv = compile_bool(g, guard, u as i32, env)?;
                beyond = g.and(beyond, gv);
            }
            Ok(SeqEnc { ends, beyond })
        }
    }
}

/// Combines duplicate end cycles with OR, keeping the set small.
fn merge_ends(g: &mut Aig, mut ends: Vec<(u32, AigLit)>) -> Vec<(u32, AigLit)> {
    ends.sort_by_key(|&(e, _)| e);
    let mut out: Vec<(u32, AigLit)> = Vec::with_capacity(ends.len());
    for (e, c) in ends {
        match out.last_mut() {
            Some((pe, pc)) if *pe == e => {
                *pc = g.or(*pc, c);
            }
            _ => out.push((e, c)),
        }
    }
    out
}

/// Encodes "property `p` holds, anchored at cycle `t`" over a trace of
/// `horizon` cycles.
///
/// # Errors
///
/// Propagates [`EncodeError`] from the sequence and boolean layers.
pub(crate) fn encode_prop(
    g: &mut Aig,
    p: &PropExpr,
    t: u32,
    horizon: u32,
    env: &mut dyn TraceEnv,
) -> Result<AigLit> {
    if t >= horizon {
        // Obligations anchored past the horizon are undetermined;
        // the neutral (weak) reading treats them as satisfied.
        return Ok(AigLit::TRUE);
    }
    Ok(match p {
        PropExpr::Seq(s) | PropExpr::Weak(s) => {
            // Sequences used as properties default to weak in assert.
            let enc = encode_seq(g, s, t, horizon, env)?;
            let m = enc.any_match(g);
            g.or(m, enc.beyond)
        }
        PropExpr::Strong(s) => {
            let enc = encode_seq(g, s, t, horizon, env)?;
            enc.any_match(g)
        }
        PropExpr::Not(inner) => {
            let v = encode_prop(g, inner, t, horizon, env)?;
            !v
        }
        PropExpr::And(a, b) => {
            let x = encode_prop(g, a, t, horizon, env)?;
            let y = encode_prop(g, b, t, horizon, env)?;
            g.and(x, y)
        }
        PropExpr::Or(a, b) => {
            let x = encode_prop(g, a, t, horizon, env)?;
            let y = encode_prop(g, b, t, horizon, env)?;
            g.or(x, y)
        }
        PropExpr::Implication {
            ante,
            non_overlap,
            cons,
        } => {
            let enc = encode_seq(g, ante, t, horizon, env)?;
            let mut holds = AigLit::TRUE;
            for &(e, c) in &enc.ends {
                let start = e + u32::from(*non_overlap);
                let ok = encode_prop(g, cons, start, horizon, env)?;
                let ob = g.implies(c, ok);
                holds = g.and(holds, ob);
            }
            // Antecedent matches beyond the horizon impose no in-window
            // obligation (neutral reading).
            holds
        }
        PropExpr::SEventually(inner) => {
            let mut any = AigLit::FALSE;
            for u in t..horizon {
                let v = encode_prop(g, inner, u, horizon, env)?;
                any = g.or(any, v);
            }
            any
        }
        PropExpr::Always(inner) => {
            let mut all = AigLit::TRUE;
            for u in t..horizon {
                let v = encode_prop(g, inner, u, horizon, env)?;
                all = g.and(all, v);
            }
            all
        }
        PropExpr::Nexttime(inner) => encode_prop(g, inner, t + 1, horizon, env)?,
        PropExpr::Until { strong, lhs, rhs } => {
            // holds iff rhs holds at some u with lhs holding on [t, u),
            // or (weak) lhs holds through the whole window.
            let mut result = AigLit::FALSE;
            let mut lhs_prefix = AigLit::TRUE;
            for u in t..horizon {
                let r = encode_prop(g, rhs, u, horizon, env)?;
                let here = g.and(lhs_prefix, r);
                result = g.or(result, here);
                let l = encode_prop(g, lhs, u, horizon, env)?;
                lhs_prefix = g.and(lhs_prefix, l);
            }
            if !*strong {
                result = g.or(result, lhs_prefix);
            }
            result
        }
        PropExpr::IfElse { cond, then, alt } => {
            let c = compile_bool(g, cond, t as i32, env)?;
            let tv = encode_prop(g, then, t, horizon, env)?;
            let ev = match alt {
                Some(a) => encode_prop(g, a, t, horizon, env)?,
                None => AigLit::TRUE,
            };
            g.mux(c, tv, ev)
        }
    })
}

/// Encodes a full assertion's verdict at anchor cycle 0:
/// the body holds, or `disable iff` fired anywhere in the window.
///
/// # Errors
///
/// Propagates [`EncodeError`].
pub fn encode_assertion(
    g: &mut Aig,
    a: &Assertion,
    horizon: u32,
    env: &mut dyn TraceEnv,
) -> Result<AigLit> {
    encode_assertion_at(g, a, 0, horizon, env)
}

/// Encodes a full assertion's verdict anchored at cycle `t`.
///
/// # Errors
///
/// Propagates [`EncodeError`].
pub fn encode_assertion_at(
    g: &mut Aig,
    a: &Assertion,
    t: u32,
    horizon: u32,
    env: &mut dyn TraceEnv,
) -> Result<AigLit> {
    let holds = encode_prop(g, &a.body, t, horizon, env)?;
    match &a.disable {
        None => Ok(holds),
        Some(d) => {
            // Approximation (documented): a disable anywhere in the
            // evaluation window discharges the attempt.
            let mut fired = AigLit::FALSE;
            for u in t..horizon {
                let dv = compile_bool(g, d, u as i32, env)?;
                fired = g.or(fired, dv);
            }
            Ok(g.or(holds, fired))
        }
    }
}

/// Bounded temporal depth plus sampled-value look-back.
fn depth(a: &Assertion) -> u32 {
    a.body.temporal_depth() + a.body.sampled_depth()
}

/// A reasonable evaluation horizon for a pair of assertions: bounded
/// temporal depth plus sampled-value look-back plus slack for the
/// unbounded tail.
pub(crate) fn horizon_for(a: &Assertion, b: Option<&Assertion>, slack: u32) -> u32 {
    let unbounded = a.body.has_unbounded() || b.is_some_and(|b| b.body.has_unbounded());
    depth(a).max(b.map_or(0, depth)) + if unbounded { slack.max(1) } else { 1 } + 1
}

/// The evaluation horizon of a design check: [`horizon_for`] of a lone
/// bounded assertion. The provers answer an unbounded body
/// `Undetermined` before they encode it, so no slack applies.
pub(crate) fn design_horizon(a: &Assertion) -> u32 {
    depth(a) + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::FreeTraceEnv;
    use crate::table::SignalTable;
    use fv_aig::CnfEmitter;
    use fv_sat::Solver;
    use sv_parser::parse_assertion_str;

    fn table() -> SignalTable {
        [("a", 1u32), ("b", 1), ("c", 1), ("tb_reset", 1)]
            .into_iter()
            .collect()
    }

    /// SAT-checks whether the assertion can be violated within `horizon`.
    fn violable(src: &str, horizon: u32) -> bool {
        let a = parse_assertion_str(src).unwrap();
        let t = table();
        let mut g = Aig::new();
        let mut env = FreeTraceEnv::new(&t);
        let holds = encode_assertion(&mut g, &a, horizon, &mut env).unwrap();
        let mut s = Solver::new();
        let mut em = CnfEmitter::new();
        let l = em.emit(&g, !holds, &mut s);
        s.solve_with(&[l]).is_sat()
    }

    #[test]
    fn tautological_property_never_violated() {
        assert!(!violable("assert property (@(posedge clk) a || !a);", 4));
    }

    #[test]
    fn plain_boolean_is_violable() {
        assert!(violable("assert property (@(posedge clk) a);", 4));
    }

    #[test]
    fn implication_with_exact_delay() {
        // a |-> ##1 a is violable; a |-> ##0 a is not.
        assert!(violable("assert property (@(posedge clk) a |-> ##1 a);", 4));
        assert!(!violable(
            "assert property (@(posedge clk) a |-> ##[0:0] a);",
            4
        ));
    }

    #[test]
    fn weak_unbounded_delay_never_fails() {
        // Weak eventuality can always be deferred past the horizon.
        assert!(!violable(
            "assert property (@(posedge clk) a |-> ##[1:$] b);",
            5
        ));
    }

    #[test]
    fn strong_unbounded_delay_fails_if_unmet() {
        assert!(violable(
            "assert property (@(posedge clk) a |-> strong(##[1:$] b));",
            5
        ));
    }

    #[test]
    fn s_eventually_is_strong() {
        assert!(violable(
            "assert property (@(posedge clk) s_eventually (b));",
            4
        ));
        // But `b or !b` eventually holds trivially.
        assert!(!violable(
            "assert property (@(posedge clk) s_eventually (b || !b));",
            4
        ));
    }

    #[test]
    fn disable_iff_discharges() {
        // Body is plainly violable, but `disable iff (1)`... we model a
        // free `tb_reset`; violation requires tb_reset low throughout.
        assert!(violable(
            "assert property (@(posedge clk) disable iff (tb_reset) a);",
            3
        ));
        // With the disable expression constant-true it can never fail.
        let t: SignalTable = [("a", 1u32)].into_iter().collect();
        let a =
            parse_assertion_str("assert property (@(posedge clk) disable iff (1'b1) a);").unwrap();
        let mut g = Aig::new();
        let mut env = FreeTraceEnv::new(&t);
        let holds = encode_assertion(&mut g, &a, 3, &mut env).unwrap();
        assert_eq!(holds, AigLit::TRUE);
    }

    #[test]
    fn nonoverlap_equals_overlap_shifted() {
        // a |=> b vs a |-> ##1 b must be equi-violable per trace.
        let t = table();
        let a1 = parse_assertion_str("assert property (@(posedge clk) a |=> b);").unwrap();
        let a2 = parse_assertion_str("assert property (@(posedge clk) a |-> ##1 b);").unwrap();
        let mut g = Aig::new();
        let mut env = FreeTraceEnv::new(&t);
        let h1 = encode_assertion(&mut g, &a1, 4, &mut env).unwrap();
        let h2 = encode_assertion(&mut g, &a2, 4, &mut env).unwrap();
        let diff = g.xor(h1, h2);
        let mut s = Solver::new();
        let mut em = CnfEmitter::new();
        let l = em.emit(&g, diff, &mut s);
        assert!(s.solve_with(&[l]).is_unsat());
    }

    #[test]
    fn repeat_three_means_three_cycles() {
        // a[*3] |-> b : violable; needs a,a,a then !b.
        assert!(violable("assert property (@(posedge clk) a[*3] |-> b);", 6));
        // a[*3] |-> a : not violable (last repetition overlaps b's cycle).
        assert!(!violable(
            "assert property (@(posedge clk) a[*3] |-> a);",
            6
        ));
    }

    #[test]
    fn until_weak_vs_strong() {
        // Weak until with lhs tautology never fails.
        assert!(!violable(
            "assert property (@(posedge clk) (a || !a) until b);",
            4
        ));
        // Strong until demands rhs within the window.
        assert!(violable(
            "assert property (@(posedge clk) (a || !a) s_until b);",
            4
        ));
    }

    #[test]
    fn horizon_for_depths() {
        let a = parse_assertion_str("assert property (@(posedge clk) a |-> ##3 b);").unwrap();
        let h = horizon_for(&a, None, 4);
        assert!(h >= 5, "needs at least antecedent + 3 + check, got {h}");
        let unb = parse_assertion_str("assert property (@(posedge clk) a |-> strong(##[0:$] b));")
            .unwrap();
        assert!(horizon_for(&unb, None, 4) >= 5);
    }

    #[test]
    fn throughout_guard_must_hold() {
        // (b throughout (a ##2 a)) |-> c : requires b on all 3 cycles.
        assert!(violable(
            "assert property (@(posedge clk) (b throughout (a ##2 a)) |-> c);",
            6
        ));
        // Guard failure vacuously satisfies the implication.
        assert!(!violable(
            "assert property (@(posedge clk) ((!b && b) throughout (a ##2 a)) |-> c);",
            6
        ));
    }
}
