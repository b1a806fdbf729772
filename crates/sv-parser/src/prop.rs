//! Parser for SVA properties, sequences, and assertion statements.
//!
//! SVA's grammar overloads parentheses between boolean expressions,
//! sequences, and properties. The parser resolves this with bounded
//! backtracking: a parenthesized form is first attempted as a plain
//! expression; on failure it is re-parsed as a property.

use crate::lexer::{Kw, Punct, Tok};
use crate::parser::{parse_expr, Cursor};
use crate::ParseError;
use sv_ast::{Assertion, ClockSpec, DelayBound, PropExpr, SeqExpr};

/// Intermediate result: a construct not yet committed to the sequence or
/// property level.
#[derive(Debug, Clone)]
enum Ps {
    Seq(SeqExpr),
    Prop(PropExpr),
}

impl Ps {
    fn into_prop(self) -> PropExpr {
        match self {
            Ps::Seq(s) => PropExpr::Seq(s),
            Ps::Prop(p) => p,
        }
    }

    fn into_seq(self, cur: &Cursor) -> Result<SeqExpr, ParseError> {
        match self {
            Ps::Seq(s) => Ok(s),
            Ps::Prop(_) => Err(cur.err("sequence expression required, found property operator")),
        }
    }
}

/// Parses a property expression (used inside `assert property (...)`).
pub fn parse_property(cur: &mut Cursor) -> Result<PropExpr, ParseError> {
    Ok(parse_ps_top(cur)?.into_prop())
}

/// Parses a property or sequence one grammar level deeper.
fn parse_ps_top(cur: &mut Cursor) -> Result<Ps, ParseError> {
    cur.nested(|cur| {
        let lhs = parse_ps_until(cur)?;
        let non_overlap = if cur.at_punct(Punct::OverlapImpl) {
            false
        } else if cur.at_punct(Punct::NonOverlapImpl) {
            true
        } else {
            return Ok(lhs);
        };
        cur.bump();
        let ante = lhs.into_seq(cur)?;
        let cons = parse_ps_top(cur)?.into_prop();
        Ok(Ps::Prop(PropExpr::Implication {
            ante,
            non_overlap,
            cons: Box::new(cons),
        }))
    })
}

fn parse_ps_until(cur: &mut Cursor) -> Result<Ps, ParseError> {
    let lhs = parse_ps_or(cur)?;
    let strong = if cur.at_kw(Kw::Until) {
        false
    } else if cur.at_kw(Kw::SUntil) {
        true
    } else {
        return Ok(lhs);
    };
    cur.bump();
    let rhs = cur.nested(parse_ps_until)?;
    Ok(Ps::Prop(PropExpr::Until {
        strong,
        lhs: Box::new(lhs.into_prop()),
        rhs: Box::new(rhs.into_prop()),
    }))
}

fn parse_ps_or(cur: &mut Cursor) -> Result<Ps, ParseError> {
    cur.chain(|cur| {
        let mut lhs = parse_ps_and(cur)?;
        while cur.eat_kw(Kw::Or) {
            cur.link()?;
            let rhs = parse_ps_and(cur)?;
            lhs = combine(lhs, rhs, true);
        }
        Ok(lhs)
    })
}

fn parse_ps_and(cur: &mut Cursor) -> Result<Ps, ParseError> {
    cur.chain(|cur| {
        let mut lhs = parse_ps_seq(cur)?;
        while cur.eat_kw(Kw::And) {
            cur.link()?;
            let rhs = parse_ps_seq(cur)?;
            lhs = combine(lhs, rhs, false);
        }
        Ok(lhs)
    })
}

fn combine(a: Ps, b: Ps, is_or: bool) -> Ps {
    match (a, b) {
        (Ps::Seq(x), Ps::Seq(y)) => Ps::Seq(if is_or {
            SeqExpr::Or(Box::new(x), Box::new(y))
        } else {
            SeqExpr::And(Box::new(x), Box::new(y))
        }),
        (a, b) => {
            let (x, y) = (a.into_prop(), b.into_prop());
            Ps::Prop(if is_or {
                PropExpr::Or(Box::new(x), Box::new(y))
            } else {
                PropExpr::And(Box::new(x), Box::new(y))
            })
        }
    }
}

/// Parses `##` delay bounds after the `##` token has been consumed.
fn parse_delay_bounds(cur: &mut Cursor) -> Result<(u32, DelayBound), ParseError> {
    if cur.eat_punct(Punct::LBracket) {
        let lo = expect_small_number(cur, "delay lower bound")?;
        cur.expect_punct(Punct::Colon, "':' in delay range")?;
        let hi = if cur.eat_punct(Punct::Dollar) {
            DelayBound::Unbounded
        } else {
            DelayBound::Finite(expect_small_number(cur, "delay upper bound")?)
        };
        cur.expect_punct(Punct::RBracket, "']' of delay range")?;
        if let DelayBound::Finite(h) = hi {
            if h < lo {
                return Err(cur.err("delay range upper bound below lower bound"));
            }
        }
        Ok((lo, hi))
    } else {
        let n = expect_small_number(cur, "delay value")?;
        Ok((n, DelayBound::Finite(n)))
    }
}

fn expect_small_number(cur: &mut Cursor, what: &str) -> Result<u32, ParseError> {
    match cur.peek().clone() {
        Tok::Number { value, .. } => {
            cur.bump();
            u32::try_from(value).map_err(|_| cur.err(format!("{what} too large")))
        }
        other => Err(cur.err(format!("expected {what}, found {other:?}"))),
    }
}

fn parse_ps_seq(cur: &mut Cursor) -> Result<Ps, ParseError> {
    cur.chain(parse_ps_delays)
}

fn parse_ps_delays(cur: &mut Cursor) -> Result<Ps, ParseError> {
    // Leading delay: `##N seq`.
    let mut seq: SeqExpr;
    if cur.eat_punct(Punct::DoubleHash) {
        let (lo, hi) = parse_delay_bounds(cur)?;
        let rhs = parse_ps_unary(cur)?.into_seq(cur)?;
        seq = SeqExpr::Delay {
            lhs: None,
            lo,
            hi,
            rhs: Box::new(rhs),
        };
    } else {
        let first = parse_ps_unary(cur)?;
        // `expr throughout seq`
        if cur.at_kw(Kw::Throughout) {
            cur.bump();
            let guard = match first.into_seq(cur)? {
                SeqExpr::Expr(e) => e,
                _ => return Err(cur.err("left of 'throughout' must be a boolean expression")),
            };
            let body = cur.nested(parse_ps_seq)?.into_seq(cur)?;
            return Ok(Ps::Seq(SeqExpr::Throughout(guard, Box::new(body))));
        }
        if !cur.at_punct(Punct::DoubleHash) {
            return Ok(first);
        }
        seq = first.into_seq(cur)?;
    }
    while cur.eat_punct(Punct::DoubleHash) {
        cur.link()?;
        let (lo, hi) = parse_delay_bounds(cur)?;
        let rhs = parse_ps_unary(cur)?.into_seq(cur)?;
        seq = SeqExpr::Delay {
            lhs: Some(Box::new(seq)),
            lo,
            hi,
            rhs: Box::new(rhs),
        };
    }
    Ok(Ps::Seq(seq))
}

fn parse_ps_unary(cur: &mut Cursor) -> Result<Ps, ParseError> {
    if cur.eat_kw(Kw::Not) {
        let inner = cur.nested(parse_ps_unary)?.into_prop();
        return Ok(Ps::Prop(PropExpr::Not(Box::new(inner))));
    }
    if cur.eat_kw(Kw::SEventually) {
        let inner = cur.nested(parse_ps_unary)?.into_prop();
        return Ok(Ps::Prop(PropExpr::SEventually(Box::new(inner))));
    }
    if cur.eat_kw(Kw::Nexttime) {
        let inner = cur.nested(parse_ps_unary)?.into_prop();
        return Ok(Ps::Prop(PropExpr::Nexttime(Box::new(inner))));
    }
    if cur.at_kw(Kw::Always) {
        cur.bump();
        let inner = cur.nested(parse_ps_unary)?.into_prop();
        return Ok(Ps::Prop(PropExpr::Always(Box::new(inner))));
    }
    if cur.at_kw(Kw::Strong) || cur.at_kw(Kw::Weak) {
        let strong = cur.at_kw(Kw::Strong);
        cur.bump();
        cur.expect_punct(Punct::LParen, "'(' after strong/weak")?;
        let seq = parse_ps_top(cur)?.into_seq(cur)?;
        cur.expect_punct(Punct::RParen, "')' of strong/weak")?;
        return Ok(Ps::Prop(if strong {
            PropExpr::Strong(seq)
        } else {
            PropExpr::Weak(seq)
        }));
    }
    if cur.at_kw(Kw::If) {
        cur.bump();
        cur.expect_punct(Punct::LParen, "'(' after property if")?;
        let cond = parse_expr(cur)?;
        cur.expect_punct(Punct::RParen, "')' of property if")?;
        let then = cur.nested(parse_ps_unary)?.into_prop();
        let alt = if cur.eat_kw(Kw::Else) {
            Some(Box::new(cur.nested(parse_ps_unary)?.into_prop()))
        } else {
            None
        };
        return Ok(Ps::Prop(PropExpr::IfElse {
            cond,
            then: Box::new(then),
            alt,
        }));
    }
    parse_ps_primary(cur)
}

fn parse_ps_primary(cur: &mut Cursor) -> Result<Ps, ParseError> {
    // First try a plain boolean expression (handles its own parens and
    // stops at sequence/property operators).
    let save = cur.save();
    match parse_expr(cur) {
        Ok(e) => {
            let seq = parse_repeat_suffix(cur, SeqExpr::Expr(e))?;
            Ok(Ps::Seq(seq))
        }
        Err(expr_err) => {
            cur.restore(save);
            if cur.eat_punct(Punct::LParen) {
                let inner = parse_ps_top(cur)?;
                cur.expect_punct(Punct::RParen, "')'")?;
                match inner {
                    Ps::Seq(s) => {
                        let s = parse_repeat_suffix(cur, s)?;
                        Ok(Ps::Seq(s))
                    }
                    p @ Ps::Prop(_) => Ok(p),
                }
            } else {
                Err(expr_err)
            }
        }
    }
}

fn parse_repeat_suffix(cur: &mut Cursor, seq: SeqExpr) -> Result<SeqExpr, ParseError> {
    // `[* lo ]` / `[* lo : hi ]` / `[*]`
    if cur.at_punct(Punct::LBracket) && cur.peek_n(1) == &Tok::Punct(Punct::Star) {
        cur.bump();
        cur.bump();
        if cur.eat_punct(Punct::RBracket) {
            return Ok(SeqExpr::Repeat {
                seq: Box::new(seq),
                lo: 0,
                hi: DelayBound::Unbounded,
            });
        }
        let lo = expect_small_number(cur, "repetition count")?;
        let hi = if cur.eat_punct(Punct::Colon) {
            if cur.eat_punct(Punct::Dollar) {
                DelayBound::Unbounded
            } else {
                DelayBound::Finite(expect_small_number(cur, "repetition upper bound")?)
            }
        } else {
            DelayBound::Finite(lo)
        };
        cur.expect_punct(Punct::RBracket, "']' of repetition")?;
        return Ok(SeqExpr::Repeat {
            seq: Box::new(seq),
            lo,
            hi,
        });
    }
    Ok(seq)
}

/// Parses a full assertion statement:
/// `[label :] assert property ( [@(edge clk)] [disable iff (e)] prop ) ;`
pub fn parse_assertion(cur: &mut Cursor) -> Result<Assertion, ParseError> {
    let label = match (cur.peek().clone(), cur.peek_n(1).clone()) {
        (Tok::Ident(name), Tok::Punct(Punct::Colon)) => {
            cur.bump();
            cur.bump();
            Some(name)
        }
        _ => None,
    };
    if !(cur.eat_kw(Kw::Assert) || cur.eat_kw(Kw::Assume) || cur.eat_kw(Kw::Cover)) {
        return Err(cur.err("expected 'assert'"));
    }
    cur.expect_kw(Kw::Property, "'property'")?;
    cur.expect_punct(Punct::LParen, "'(' of assert property")?;
    let clock = if cur.eat_punct(Punct::At) {
        cur.expect_punct(Punct::LParen, "'(' of clocking event")?;
        let posedge = if cur.eat_kw(Kw::Posedge) {
            true
        } else if cur.eat_kw(Kw::Negedge) {
            false
        } else {
            return Err(cur.err("expected posedge/negedge"));
        };
        let signal = cur.expect_ident("clock signal")?;
        cur.expect_punct(Punct::RParen, "')' of clocking event")?;
        ClockSpec { signal, posedge }
    } else {
        // Unclocked assertions default to `posedge clk` — the testbench
        // convention across all FVEval collateral.
        ClockSpec::posedge("clk")
    };
    let disable = if cur.at_kw(Kw::Disable) {
        cur.bump();
        cur.expect_kw(Kw::Iff, "'iff' after disable")?;
        cur.expect_punct(Punct::LParen, "'(' of disable iff")?;
        let e = parse_expr(cur)?;
        cur.expect_punct(Punct::RParen, "')' of disable iff")?;
        Some(e)
    } else {
        None
    };
    let body = parse_property(cur)?;
    cur.expect_punct(Punct::RParen, "')' closing assert property")?;
    // The trailing semicolon is conventionally present; tolerate absence.
    cur.eat_punct(Punct::Semi);
    let mut a = Assertion::new(clock, body);
    a.label = label;
    a.disable = disable;
    Ok(a)
}

#[cfg(test)]
mod tests {
    use crate::parse_assertion_str;
    use sv_ast::{print_assertion, print_property, DelayBound, PropExpr, SeqExpr};

    fn body(src: &str) -> PropExpr {
        parse_assertion_str(src).unwrap().body
    }

    #[test]
    fn paper_reference_assertions_parse() {
        // Drawn verbatim from the paper's appendix.
        let cases = [
            "asrt: assert property (@(posedge clk) disable iff (tb_reset) (fifo_empty && rd_pop) !== 1'b1);",
            "asrt: assert property (@(posedge clk) disable iff (tb_reset) (rd_pop && (fifo_out_data != rd_data)) !== 1'b1);",
            "asrt: assert property (@(posedge clk) disable iff (tb_reset) !fifo_empty |-> strong(##[0:$] rd_pop));",
            "asrt: assert property (@(posedge clk) disable iff (tb_reset) wr_push |-> strong(##[0:$] rd_pop));",
            "assert property(@(posedge clk) (sig_G && sig_J) |-> ##2 ((^sig_G === 1'b1) && &sig_B));",
            "assert property(@(posedge clk) (sig_G !== 1'b1) |-> ##4 sig_J);",
            "assert property(@(posedge clk) ((sig_D || ^sig_H) && sig_F));",
            "asrt: assert property (@(posedge clk) disable iff (tb_reset) !$onehot0({hold,busy,cont_gnt}) !== 1'b1);",
            "assert property (@(posedge clk) disable iff (tb_reset) (!busy && |tb_req && (tb_gnt == 'd0)) !== 1'b1);",
            "assert property (@(posedge clk) disable iff (!reset_) (fsm_state == 2'b00) |-> ##1 fsm_state == 2'b10);",
            "assert property(@(posedge clk) (|sig_C || (sig_D !== sig_A )) |=> s_eventually(sig_F));",
            "assert property(@(posedge clk) ((sig_J < (sig_B == (sig_C ^ ~|sig_H))) == ((|sig_A === !sig_J) || sig_B)));",
            "assert property (@(posedge clk) (sig_D || ($countones(sig_H) % 2 == 1)) |-> sig_F);",
            "assert property (@(posedge clk) disable iff (tb_reset) wr_push |-> ##[1:$] rd_pop);",
            "asrt_wr: assert property (@(posedge clk) disable iff (tb_reset) $rose(fsm_out == S0) |-> ##1 (in_A_reg != in_B_reg));",
            "assert property (@(posedge clk) disable iff (tb_reset) $rose(state == S2) |-> (a == b) until (state == S0));",
            "assert property (@(posedge clk) disable iff (tb_reset) prev_data_valid && out_vld |-> ##[1:6] (out_data !== 'd0));",
        ];
        for c in cases {
            let a = parse_assertion_str(c).unwrap_or_else(|e| panic!("{c}: {e}"));
            // Round-trip: the printed form re-parses to the same tree.
            let printed = print_assertion(&a);
            let again = parse_assertion_str(&printed)
                .unwrap_or_else(|e| panic!("reprint of {c}: {e}\n{printed}"));
            assert_eq!(a, again, "round trip of {c}");
        }
    }

    #[test]
    fn implication_shapes() {
        let b = body("assert property (@(posedge clk) a |-> ##2 b);");
        match b {
            PropExpr::Implication {
                non_overlap: false,
                cons,
                ..
            } => match *cons {
                PropExpr::Seq(SeqExpr::Delay {
                    lhs: None,
                    lo: 2,
                    hi,
                    ..
                }) => {
                    assert_eq!(hi, DelayBound::Finite(2));
                }
                other => panic!("bad consequent {other:?}"),
            },
            other => panic!("bad shape {other:?}"),
        }
    }

    #[test]
    fn nonoverlap_implication() {
        let b = body("assert property (@(posedge clk) a |=> b);");
        assert!(matches!(
            b,
            PropExpr::Implication {
                non_overlap: true,
                ..
            }
        ));
    }

    #[test]
    fn strong_weak_markers() {
        assert!(matches!(
            body("assert property (@(posedge clk) strong(##[1:$] a));"),
            PropExpr::Strong(_)
        ));
        assert!(matches!(
            body("assert property (@(posedge clk) weak(a ##1 b));"),
            PropExpr::Weak(_)
        ));
    }

    #[test]
    fn sequence_vs_property_parens() {
        // (a |-> b) and (c |-> d) : property conjunction.
        let b = body("assert property (@(posedge clk) (a |-> b) and (c |-> d));");
        assert!(matches!(b, PropExpr::And(..)));
        // (a && b) ##1 c : paren expr inside a sequence.
        let b = body("assert property (@(posedge clk) (a && b) ##1 c);");
        assert!(matches!(b, PropExpr::Seq(SeqExpr::Delay { .. })));
    }

    #[test]
    fn repetition_suffix() {
        let b = body("assert property (@(posedge clk) a[*3] |-> b);");
        match b {
            PropExpr::Implication { ante, .. } => {
                assert!(matches!(ante, SeqExpr::Repeat { lo: 3, .. }));
            }
            other => panic!("bad shape {other:?}"),
        }
        let b = body("assert property (@(posedge clk) a[*1:$] |-> b);");
        match b {
            PropExpr::Implication { ante, .. } => match ante {
                SeqExpr::Repeat { hi, .. } => assert_eq!(hi, DelayBound::Unbounded),
                other => panic!("bad ante {other:?}"),
            },
            other => panic!("bad shape {other:?}"),
        }
    }

    #[test]
    fn throughout_parses() {
        let b = body("assert property (@(posedge clk) busy throughout (a ##2 b));");
        assert!(matches!(b, PropExpr::Seq(SeqExpr::Throughout(..))));
    }

    #[test]
    fn delay_range_validation() {
        assert!(parse_assertion_str("assert property (@(posedge clk) a ##[3:1] b);").is_err());
    }

    #[test]
    fn bad_syntax_examples_fail() {
        // From the paper: invalid operator, double parens, stray tokens.
        for bad in [
            "assert property (@(posedge clk) a |-> eventually(b));",
            "assert property (@(posedge clk) a |-> ##[1:) b);",
            "assert property (@(posedge clk) a |- > b);",
            "assert property (@(posedge clk) (a && ) b);",
            "assert property @(posedge clk) a;",
        ] {
            assert!(parse_assertion_str(bad).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn print_parse_fixpoint_for_props() {
        let srcs = [
            "assert property (@(posedge clk) a ##1 b ##[2:4] c |-> d);",
            "assert property (@(posedge clk) not ((a) and (b ##1 c)));",
            "assert property (@(posedge clk) a |-> b until c);",
        ];
        for s in srcs {
            let p1 = parse_assertion_str(s).unwrap();
            let printed = print_property(&p1.body);
            let wrapped = format!("assert property (@(posedge clk) {printed});");
            let p2 = parse_assertion_str(&wrapped).unwrap();
            assert_eq!(p1.body, p2.body, "fixpoint for {s}");
        }
    }
}
