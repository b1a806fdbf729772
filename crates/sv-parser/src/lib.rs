//! Parser for the SystemVerilog subset + SVA property layer of FVEval.
//!
//! This crate plays the role of the commercial tool's *syntax check* in
//! the paper's evaluation flow: a model response that fails to parse here
//! (hallucinated operators such as `eventually`, malformed delay ranges,
//! unbalanced parentheses) scores `syntax = fail`, exactly mirroring the
//! Jasper-based metric.
//!
//! Entry points:
//! - [`parse_source`] — full source files (testbenches, designs),
//! - [`parse_assertion_str`] — a single `assert property (...)`,
//! - [`parse_snippet`] — module items without a `module` wrapper
//!   (the Design2SVA response format: extra wires/assigns + assertion),
//! - [`parse_expr_str`] — a bare expression.
//!
//! Nesting is bounded: input nested deeper than [`MAX_NESTING`] grammar
//! levels is a [`ParseError`], so no response text can overflow the
//! stack of the thread that scores it.
//!
//! # Examples
//!
//! ```
//! let a = sv_parser::parse_assertion_str(
//!     "asrt: assert property (@(posedge clk) disable iff (tb_reset) \
//!      wr_push |-> strong(##[0:$] rd_pop));",
//! ).unwrap();
//! assert_eq!(a.label.as_deref(), Some("asrt"));
//! ```

mod lexer;
mod module_parser;
mod parser;
mod preprocess;
mod prop;

use std::error::Error;
use std::fmt;
use sv_ast::{Assertion, Expr, ModuleItem, SourceFile};

pub use parser::MAX_NESTING;
pub use preprocess::preprocess;

/// A syntax or early-semantic error with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    pub(crate) fn new(line: usize, col: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl Error for ParseError {}

/// Parses a complete source file (after preprocessing `` `define ``s).
///
/// # Errors
///
/// Returns [`ParseError`] on any lexical or syntactic violation.
pub fn parse_source(text: &str) -> Result<SourceFile, ParseError> {
    let pp = preprocess(text)?;
    let toks = lexer::lex(&pp)?;
    let mut cur = parser::Cursor::new(toks);
    module_parser::parse_source_file(&mut cur)
}

/// Parses a single concurrent assertion statement, with or without label.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed assertions — including SVA
/// operator hallucinations (`eventually(...)`) which fail as unknown
/// identifiers applied as operators.
pub fn parse_assertion_str(text: &str) -> Result<Assertion, ParseError> {
    let pp = preprocess(text)?;
    let toks = lexer::lex(&pp)?;
    let mut cur = parser::Cursor::new(toks);
    let a = prop::parse_assertion(&mut cur)?;
    cur.expect_eof()?;
    Ok(a)
}

/// Parses a sequence of module items without the `module` wrapper —
/// the shape of Design2SVA model responses (declarations, assigns,
/// always blocks, and assertions).
///
/// # Errors
///
/// Returns [`ParseError`] on the first malformed item.
pub fn parse_snippet(text: &str) -> Result<Vec<ModuleItem>, ParseError> {
    let pp = preprocess(text)?;
    let toks = lexer::lex(&pp)?;
    let mut cur = parser::Cursor::new(toks);
    let mut items = Vec::new();
    while !cur.at_eof() {
        items.extend(module_parser::parse_module_item_multi(&mut cur)?);
    }
    Ok(items)
}

/// Parses a bare expression.
///
/// # Errors
///
/// Returns [`ParseError`] if the text is not exactly one expression.
pub fn parse_expr_str(text: &str) -> Result<Expr, ParseError> {
    let pp = preprocess(text)?;
    let toks = lexer::lex(&pp)?;
    let mut cur = parser::Cursor::new(toks);
    let e = parser::parse_expr(&mut cur)?;
    cur.expect_eof()?;
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hallucinated_operator_fails_syntax() {
        // The paper's Figure 7 failure mode: `eventually` is not SVA.
        let r = parse_assertion_str(
            "asrt: assert property (@(posedge clk) disable iff (tb_reset) \
             wr_push |-> eventually(rd_pop));",
        );
        assert!(r.is_err());
    }

    #[test]
    fn s_eventually_is_accepted() {
        let r = parse_assertion_str("assert property (@(posedge clk) a |-> s_eventually (b));");
        assert!(r.is_ok());
    }

    #[test]
    fn unbalanced_parens_fail() {
        assert!(parse_assertion_str("assert property (@(posedge clk) (a && b);").is_err());
    }

    /// `n` nested parentheses, `!`s and `not`s around one signal, and
    /// chains of `n` links that the parser builds in loops.
    fn nested(n: usize) -> Vec<String> {
        let wrap = |body: String| format!("assert property (@(posedge clk) {body});");
        let chain = |link: &str| wrap(format!("a{}", link.repeat(n)));
        vec![
            wrap(format!("{}a{}", "(".repeat(n), ")".repeat(n))),
            wrap(format!("{}a", "!".repeat(n))),
            wrap(format!("{}a", "not ".repeat(n))),
            chain(" + a"),
            chain(" && a"),
            chain(" | a"),
            chain(" or a"),
            chain(" and a"),
            chain(" ##0 a"),
            chain("[0]"),
        ]
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        for text in nested(10_000) {
            let err = parse_assertion_str(&text).unwrap_err();
            assert!(
                err.message.contains("nesting deeper than"),
                "{}: {err}",
                &text[..48]
            );
        }
    }

    #[test]
    fn nesting_limit_counts_one_level_per_construct() {
        // The assertion's property and its expression open two levels,
        // so `MAX_NESTING - 2` nested constructs (or chain links) are the
        // deepest that parse.
        for text in nested(MAX_NESTING - 2) {
            assert!(parse_assertion_str(&text).is_ok(), "{text}");
        }
        for text in nested(MAX_NESTING - 1) {
            assert!(parse_assertion_str(&text).is_err(), "{text}");
        }
    }

    #[test]
    fn deep_statements_and_generate_regions_are_parse_errors() {
        let n = 10_000;
        let blocks = format!(
            "always @(posedge clk) {}x <= 1'b0;{}",
            "begin ".repeat(n),
            " end".repeat(n)
        );
        let regions = format!("{}{}", "generate ".repeat(n), " endgenerate".repeat(n));
        for text in [blocks, regions] {
            let err = parse_snippet(&text).unwrap_err();
            assert!(err.message.contains("nesting deeper than"), "{err}");
        }
    }
}
