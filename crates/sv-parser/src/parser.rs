//! Token cursor and the Pratt expression parser.

use crate::lexer::{Kw, Punct, Spanned, Tok};
use crate::ParseError;
use sv_ast::{BinaryOp, Expr, Literal, SysFunc, UnaryOp};

/// How deeply the grammar may recurse before parsing fails with a
/// [`ParseError`] instead of overflowing the stack. Every parenthesis,
/// brace, bracket, prefix operator (`!`, `~`, `not`, `s_eventually`, …),
/// `?:` arm, implication, `until`, `throughout`, nested statement and
/// generate region opens one level. So does every link of a chain the
/// parser builds in a loop (`a + b + c`, `x[0][1]`, `p or q`, `p and q`,
/// `a ##1 b ##1 c`), until the chain ends: each link nests the AST one
/// level deeper, and the encoders recurse on the AST. Hand-written SVA
/// nests a few levels deep. In an unoptimized build one parenthesized
/// property level takes about 20 KiB of stack, so an assertion just
/// under this limit still parses, encodes and scores on a thread with
/// the default 2 MiB stack.
pub const MAX_NESTING: usize = 64;

/// A cursor over the token stream with single-token lookahead and
/// position save/restore (used by the property parser for the
/// sequence-vs-property parenthesis ambiguity).
#[derive(Debug)]
pub struct Cursor {
    toks: Vec<Spanned>,
    pos: usize,
    /// Grammar levels currently open (see [`MAX_NESTING`]).
    depth: usize,
}

impl Cursor {
    /// Wraps a token stream (must end with `Tok::Eof`).
    pub fn new(toks: Vec<Spanned>) -> Cursor {
        Cursor {
            toks,
            pos: 0,
            depth: 0,
        }
    }

    /// Runs `parse` one grammar level deeper, failing instead once
    /// [`MAX_NESTING`] levels are open.
    pub fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Cursor) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.chain(|cur| {
            cur.link()?;
            parse(cur)
        })
    }

    /// Runs `parse`, a loop that builds a left-deep chain, and closes
    /// every level its links opened (see [`Cursor::link`]) when it
    /// returns, on success or error.
    pub fn chain<T>(
        &mut self,
        parse: impl FnOnce(&mut Cursor) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let depth = self.depth;
        let out = parse(self);
        self.depth = depth;
        out
    }

    /// Opens one grammar level for a link of a [`Cursor::chain`],
    /// failing once [`MAX_NESTING`] levels are open.
    pub fn link(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Current token.
    pub fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)].tok
    }

    /// Token `n` ahead of the current one.
    pub fn peek_n(&self, n: usize) -> &Tok {
        &self.toks[(self.pos + n).min(self.toks.len() - 1)].tok
    }

    /// Consumes and returns the current token.
    pub fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].tok.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// Current position, for backtracking.
    pub fn save(&self) -> usize {
        self.pos
    }

    /// Restores a saved position.
    pub fn restore(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// `true` at end of input.
    pub fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    /// Builds an error at the current token.
    pub fn err(&self, msg: impl Into<String>) -> ParseError {
        let s = &self.toks[self.pos.min(self.toks.len() - 1)];
        ParseError::new(s.line, s.col, msg)
    }

    /// `true` and consumes if the current token is `p`.
    pub fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == &Tok::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// `true` and consumes if the current token is keyword `k`.
    pub fn eat_kw(&mut self, k: Kw) -> bool {
        if self.peek() == &Tok::Keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// `true` if the current token is punct `p` (no consume).
    pub fn at_punct(&self, p: Punct) -> bool {
        self.peek() == &Tok::Punct(p)
    }

    /// `true` if the current token is keyword `k` (no consume).
    pub fn at_kw(&self, k: Kw) -> bool {
        self.peek() == &Tok::Keyword(k)
    }

    /// Consumes `p` or errors.
    pub fn expect_punct(&mut self, p: Punct, what: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    /// Consumes keyword `k` or errors.
    pub fn expect_kw(&mut self, k: Kw, what: &str) -> Result<(), ParseError> {
        if self.eat_kw(k) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    /// Consumes an identifier or errors.
    pub fn expect_ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    /// Errors unless all input was consumed.
    pub fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input: {:?}", self.peek())))
        }
    }
}

fn binop_of(p: Punct) -> Option<BinaryOp> {
    Some(match p {
        Punct::AmpAmp => BinaryOp::LogAnd,
        Punct::PipePipe => BinaryOp::LogOr,
        Punct::Amp => BinaryOp::BitAnd,
        Punct::Pipe => BinaryOp::BitOr,
        Punct::Caret => BinaryOp::BitXor,
        Punct::TildeCaret => BinaryOp::BitXnor,
        Punct::EqEq => BinaryOp::Eq,
        Punct::NotEq => BinaryOp::Neq,
        Punct::CaseEq => BinaryOp::CaseEq,
        Punct::CaseNeq => BinaryOp::CaseNeq,
        Punct::Lt => BinaryOp::Lt,
        Punct::Le => BinaryOp::Le,
        Punct::Gt => BinaryOp::Gt,
        Punct::Ge => BinaryOp::Ge,
        Punct::Plus => BinaryOp::Add,
        Punct::Minus => BinaryOp::Sub,
        Punct::Star => BinaryOp::Mul,
        Punct::Slash => BinaryOp::Div,
        Punct::Percent => BinaryOp::Mod,
        Punct::Shl => BinaryOp::Shl,
        Punct::Shr => BinaryOp::Shr,
        Punct::AShl => BinaryOp::AShl,
        Punct::AShr => BinaryOp::AShr,
        _ => return None,
    })
}

/// Binding strength table; must mirror `sv_ast::printer::precedence`.
fn precedence(op: BinaryOp) -> u8 {
    match op {
        BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 11,
        BinaryOp::Add | BinaryOp::Sub => 10,
        BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShl | BinaryOp::AShr => 9,
        BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => 8,
        BinaryOp::Eq | BinaryOp::Neq | BinaryOp::CaseEq | BinaryOp::CaseNeq => 7,
        BinaryOp::BitAnd => 6,
        BinaryOp::BitXor | BinaryOp::BitXnor => 5,
        BinaryOp::BitOr => 4,
        BinaryOp::LogAnd => 3,
        BinaryOp::LogOr => 2,
    }
}

fn unary_of(t: &Tok) -> Option<UnaryOp> {
    match t {
        Tok::Punct(Punct::Bang) => Some(UnaryOp::LogNot),
        Tok::Punct(Punct::Tilde) => Some(UnaryOp::BitNot),
        Tok::Punct(Punct::Minus) => Some(UnaryOp::Neg),
        Tok::Punct(Punct::Plus) => Some(UnaryOp::Pos),
        Tok::Punct(Punct::Amp) => Some(UnaryOp::RedAnd),
        Tok::Punct(Punct::Pipe) => Some(UnaryOp::RedOr),
        Tok::Punct(Punct::Caret) => Some(UnaryOp::RedXor),
        Tok::Punct(Punct::TildeAmp) => Some(UnaryOp::RedNand),
        Tok::Punct(Punct::TildePipe) => Some(UnaryOp::RedNor),
        Tok::Punct(Punct::TildeCaret) => Some(UnaryOp::RedXnor),
        _ => None,
    }
}

/// Parses an expression at the lowest precedence (including `?:`),
/// one grammar level deeper.
pub fn parse_expr(cur: &mut Cursor) -> Result<Expr, ParseError> {
    cur.nested(|cur| {
        let cond = parse_bin_expr(cur, 2)?;
        if cur.eat_punct(Punct::Question) {
            let t = parse_expr(cur)?;
            cur.expect_punct(Punct::Colon, "':' of conditional")?;
            let e = parse_expr(cur)?;
            return Ok(Expr::Ternary(Box::new(cond), Box::new(t), Box::new(e)));
        }
        Ok(cond)
    })
}

#[allow(clippy::while_let_loop)] // the loop head mixes peek and guard logic
fn parse_bin_expr(cur: &mut Cursor, min_prec: u8) -> Result<Expr, ParseError> {
    cur.chain(|cur| {
        let mut lhs = parse_unary(cur)?;
        loop {
            let op = match cur.peek() {
                Tok::Punct(p) => match binop_of(*p) {
                    Some(op) if precedence(op) >= min_prec => op,
                    _ => break,
                },
                _ => break,
            };
            cur.link()?;
            cur.bump();
            let rhs = parse_bin_expr(cur, precedence(op) + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    })
}

fn parse_unary(cur: &mut Cursor) -> Result<Expr, ParseError> {
    if let Some(op) = unary_of(cur.peek()) {
        cur.bump();
        let inner = cur.nested(parse_unary)?;
        return Ok(Expr::Unary(op, Box::new(inner)));
    }
    parse_postfix(cur)
}

fn parse_postfix(cur: &mut Cursor) -> Result<Expr, ParseError> {
    cur.chain(|cur| {
        let mut e = parse_primary(cur)?;
        // `[` starts an index/slice unless it is a repetition `[*`.
        while cur.at_punct(Punct::LBracket) && cur.peek_n(1) != &Tok::Punct(Punct::Star) {
            cur.bump();
            let first = parse_expr(cur)?;
            if cur.eat_punct(Punct::Colon) {
                let lo = parse_expr(cur)?;
                cur.expect_punct(Punct::RBracket, "']' of part-select")?;
                e = Expr::Slice(Box::new(e), Box::new(first), Box::new(lo));
            } else {
                cur.expect_punct(Punct::RBracket, "']' of bit-select")?;
                e = Expr::Index(Box::new(e), Box::new(first));
            }
            // The link opens after its index: the index expressions of
            // a chain nest no deeper than the chain itself.
            cur.link()?;
        }
        Ok(e)
    })
}

fn parse_primary(cur: &mut Cursor) -> Result<Expr, ParseError> {
    match cur.peek().clone() {
        Tok::Ident(s) => {
            cur.bump();
            Ok(Expr::Ident(s))
        }
        Tok::Number { width, base, value } => {
            cur.bump();
            Ok(Expr::Literal(Literal::Int { width, value, base }))
        }
        Tok::Fill(b) => {
            cur.bump();
            Ok(Expr::Literal(Literal::Fill(b)))
        }
        Tok::SysIdent(name) => {
            cur.bump();
            let f = SysFunc::from_name(&name)
                .ok_or_else(|| cur.err(format!("unknown system function '${name}'")))?;
            cur.expect_punct(Punct::LParen, "'(' after system function")?;
            let mut args = Vec::new();
            if !cur.at_punct(Punct::RParen) {
                loop {
                    args.push(parse_expr(cur)?);
                    if !cur.eat_punct(Punct::Comma) {
                        break;
                    }
                }
            }
            cur.expect_punct(Punct::RParen, "')' of system function call")?;
            Ok(Expr::SysCall(f, args))
        }
        Tok::Punct(Punct::LParen) => {
            cur.bump();
            let e = parse_expr(cur)?;
            cur.expect_punct(Punct::RParen, "')'")?;
            Ok(e)
        }
        Tok::Punct(Punct::LBrace) => {
            cur.bump();
            let first = parse_expr(cur)?;
            // Replication `{n{expr}}`.
            if cur.at_punct(Punct::LBrace) {
                cur.bump();
                let inner = parse_expr(cur)?;
                cur.expect_punct(Punct::RBrace, "'}' of replication body")?;
                cur.expect_punct(Punct::RBrace, "'}' of replication")?;
                return Ok(Expr::Replicate(Box::new(first), Box::new(inner)));
            }
            let mut items = vec![first];
            while cur.eat_punct(Punct::Comma) {
                items.push(parse_expr(cur)?);
            }
            cur.expect_punct(Punct::RBrace, "'}' of concatenation")?;
            Ok(Expr::Concat(items))
        }
        other => Err(cur.err(format!("expected expression, found {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use crate::parse_expr_str;
    use sv_ast::{print_expr, BinaryOp, Expr, SysFunc, UnaryOp};

    fn rt(src: &str) -> String {
        print_expr(&parse_expr_str(src).unwrap())
    }

    #[test]
    fn precedence_shapes() {
        // a | b & c parses as a | (b & c)
        let e = parse_expr_str("a | b & c").unwrap();
        match e {
            Expr::Binary(BinaryOp::BitOr, _, rhs) => {
                assert!(matches!(*rhs, Expr::Binary(BinaryOp::BitAnd, ..)));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn round_trip_is_fixpoint() {
        for src in [
            "a && !b",
            "(a | b) & c",
            "a == 2'b10",
            "sig_G !== 1'b1",
            "$countones(sig_H) % 2 == 1",
            "!$onehot0({hold, busy, cont_gnt}) !== 1'b1",
            "fifo_array[fifo_rd_ptr]",
            "data[i] <<< 7",
            "x[3:0]",
            "sel ? a + 1 : b - 1",
            "{2{a}}",
            "^sig_G === 1'b1 && &sig_B",
            "|tb_req && !busy",
            "(in_C <= 'd1) != in_A",
        ] {
            let once = rt(src);
            assert_eq!(rt(&once), once, "fixpoint for {src}");
        }
    }

    #[test]
    fn reduction_vs_binary_ambiguity() {
        // `a & &b` : binary-and of a with reduction-and of b.
        let e = parse_expr_str("a & &b").unwrap();
        match e {
            Expr::Binary(BinaryOp::BitAnd, _, rhs) => {
                assert!(matches!(*rhs, Expr::Unary(UnaryOp::RedAnd, _)));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn sysfunc_args() {
        let e = parse_expr_str("$countones(a ^ b)").unwrap();
        assert!(matches!(e, Expr::SysCall(SysFunc::Countones, _)));
        assert!(parse_expr_str("$nonexistent(a)").is_err());
    }

    #[test]
    fn ternary_nests_right() {
        let e = parse_expr_str("a ? b : c ? d : e").unwrap();
        match e {
            Expr::Ternary(_, _, els) => assert!(matches!(*els, Expr::Ternary(..))),
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn index_chain() {
        assert_eq!(rt("mem[i][j]"), "mem[i][j]");
        assert_eq!(rt("data[DEPTH:0]"), "data[DEPTH:0]");
    }

    #[test]
    fn trailing_input_rejected() {
        assert!(parse_expr_str("a b").is_err());
        assert!(parse_expr_str("a +").is_err());
        assert!(parse_expr_str("(a").is_err());
    }
}
