//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! This crate is the decision-procedure substrate of the FVEval
//! reproduction: the assertion-equivalence checker and the BMC /
//! k-induction engines in `fv-core` reduce their queries to CNF and
//! discharge them here.
//!
//! The solver implements the standard modern architecture:
//! two-watched-literal propagation, first-UIP conflict analysis with
//! clause minimization, VSIDS-style activity decision heuristics with
//! phase saving, Luby restarts, and learned-clause database reduction.
//!
//! # Examples
//!
//! ```
//! use fv_sat::{Solver, Lit};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause([Lit::pos(a), Lit::pos(b)]);
//! s.add_clause([Lit::neg(a)]);
//! assert!(s.solve().is_sat());
//! assert_eq!(s.value(b), Some(true));
//! ```

#![deny(missing_docs)]

mod clause;
mod heap;
mod luby;
mod solver;
mod watch;

pub use clause::ClauseRef;
pub use solver::{SolveResult, Solver, SolverStats};

/// A boolean variable, identified by a dense non-negative index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// Returns the dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable together with a polarity.
///
/// Encoded as `2 * var + sign` so that literals can index dense arrays
/// (the watch lists) directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `v`.
    #[inline]
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    #[inline]
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Builds a literal from a variable and a sign (`true` = negated).
    #[inline]
    pub fn new(v: Var, negated: bool) -> Lit {
        Lit((v.0 << 1) | negated as u32)
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` if this literal is negated.
    #[inline]
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Dense index usable for watch lists (`2 * var + sign`).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from [`Lit::index`].
    #[inline]
    pub fn from_index(i: usize) -> Lit {
        Lit(i as u32)
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl std::fmt::Display for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_neg() {
            write!(f, "!{}", self.var())
        } else {
            write!(f, "{}", self.var())
        }
    }
}

/// Ternary assignment value used internally and in models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Unassigned.
    Undef,
}

impl LBool {
    /// Converts to `Option<bool>` (`Undef` becomes `None`).
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// XORs the value with a sign; `Undef` is preserved.
    #[inline]
    pub fn xor(self, sign: bool) -> LBool {
        match (self, sign) {
            (LBool::Undef, _) => LBool::Undef,
            (v, false) => v,
            (LBool::True, true) => LBool::False,
            (LBool::False, true) => LBool::True,
        }
    }
}

impl From<bool> for LBool {
    fn from(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_encoding_round_trips() {
        let v = Var(17);
        assert_eq!(Lit::pos(v).var(), v);
        assert_eq!(Lit::neg(v).var(), v);
        assert!(!Lit::pos(v).is_neg());
        assert!(Lit::neg(v).is_neg());
        assert_eq!(!Lit::pos(v), Lit::neg(v));
        assert_eq!(!!Lit::pos(v), Lit::pos(v));
        assert_eq!(Lit::from_index(Lit::neg(v).index()), Lit::neg(v));
    }

    #[test]
    fn lbool_xor() {
        assert_eq!(LBool::True.xor(true), LBool::False);
        assert_eq!(LBool::False.xor(true), LBool::True);
        assert_eq!(LBool::Undef.xor(true), LBool::Undef);
        assert_eq!(LBool::True.xor(false), LBool::True);
    }

    #[test]
    fn display_forms() {
        let v = Var(3);
        assert_eq!(Lit::pos(v).to_string(), "x3");
        assert_eq!(Lit::neg(v).to_string(), "!x3");
    }
}
