//! The word-level netlist expression IR.
//!
//! Expressions are width-annotated and already desugared from the
//! source AST: logical operators are boolean reductions, comparisons are
//! explicit, and every identifier has been resolved to an atom slice.

use crate::netlist::AtomId;

/// Binary operators at the netlist level. All are unsigned;
/// results wrap at the node width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NxBin {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (x/0 = all ones).
    Div,
    /// Unsigned remainder (x%0 = x).
    Mod,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (variable amount).
    Shl,
    /// Logical right shift. Every net is unsigned, so `>>>` elaborates
    /// to this too.
    LShr,
    /// Equality; 1-bit result.
    Eq,
    /// Unsigned less-than; 1-bit result.
    Ult,
    /// Unsigned less-or-equal; 1-bit result.
    Ule,
}

impl NxBin {
    /// `true` if the result is a single bit regardless of operand width.
    pub fn is_predicate(self) -> bool {
        matches!(self, NxBin::Eq | NxBin::Ult | NxBin::Ule)
    }
}

/// Reduction operators (N bits to 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NxRed {
    /// All bits set.
    And,
    /// Any bit set.
    Or,
    /// Parity.
    Xor,
}

/// A width-annotated netlist expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Nx {
    /// Constant of the given width.
    Const {
        /// Width in bits (1..=128).
        width: u32,
        /// Value, already masked to `width`.
        value: u128,
    },
    /// Full read of an atom.
    Atom(AtomId),
    /// Static bit range `[lo, lo+width)` of the inner expression.
    Slice {
        /// Source expression.
        inner: Box<Nx>,
        /// LSB offset.
        lo: u32,
        /// Result width.
        width: u32,
    },
    /// Dynamic element select: `inner[(index * elem_width) +: elem_width]`.
    DynSlice {
        /// Source expression.
        inner: Box<Nx>,
        /// Element index (unsigned).
        index: Box<Nx>,
        /// Element width.
        elem_width: u32,
    },
    /// Concatenation, LSB-first parts.
    Concat(Vec<Nx>),
    /// Bitwise complement.
    Not(Box<Nx>),
    /// Two's-complement negation.
    Neg(Box<Nx>),
    /// Binary operation on width-matched operands.
    Bin {
        /// Operator.
        op: NxBin,
        /// Left operand.
        a: Box<Nx>,
        /// Right operand (for shifts: self-determined width).
        b: Box<Nx>,
    },
    /// Reduction to one bit.
    Reduce {
        /// Reduction kind.
        op: NxRed,
        /// Operand.
        inner: Box<Nx>,
    },
    /// 2:1 word multiplexer; `sel` is 1 bit wide.
    Mux {
        /// Select.
        sel: Box<Nx>,
        /// Value when `sel` is 1.
        t: Box<Nx>,
        /// Value when `sel` is 0.
        e: Box<Nx>,
    },
    /// Population count, result width fixed by the node.
    Countones {
        /// Operand.
        inner: Box<Nx>,
        /// Result width.
        width: u32,
    },
    /// `$onehot` (1-bit result).
    Onehot(Box<Nx>),
    /// `$onehot0` (1-bit result).
    Onehot0(Box<Nx>),
    /// Zero-extension or truncation to an explicit width.
    Resize {
        /// Operand.
        inner: Box<Nx>,
        /// New width.
        width: u32,
    },
}

impl Nx {
    /// Constant node, masking the value to `width`.
    pub fn constant(width: u32, value: u128) -> Nx {
        Nx::Const {
            width,
            value: mask(value, width),
        }
    }

    /// One-bit boolean constant.
    pub fn bit(b: bool) -> Nx {
        Nx::constant(1, u128::from(b))
    }

    /// The width of this expression, given atom widths.
    pub fn width(&self, atom_width: &impl Fn(AtomId) -> u32) -> u32 {
        match self {
            Nx::Const { width, .. } => *width,
            Nx::Atom(a) => atom_width(*a),
            Nx::Slice { width, .. } => *width,
            Nx::DynSlice { elem_width, .. } => *elem_width,
            Nx::Concat(parts) => parts.iter().map(|p| p.width(atom_width)).sum(),
            Nx::Not(i) | Nx::Neg(i) => i.width(atom_width),
            Nx::Bin { op, a, .. } => {
                if op.is_predicate() {
                    1
                } else {
                    a.width(atom_width)
                }
            }
            Nx::Reduce { .. } | Nx::Onehot(_) | Nx::Onehot0(_) => 1,
            Nx::Mux { t, .. } => t.width(atom_width),
            Nx::Countones { width, .. } => *width,
            Nx::Resize { width, .. } => *width,
        }
    }

    /// Visits all atoms read by this expression.
    pub fn visit_atoms(&self, f: &mut impl FnMut(AtomId)) {
        match self {
            Nx::Const { .. } => {}
            Nx::Atom(a) => f(*a),
            Nx::Slice { inner, .. }
            | Nx::Not(inner)
            | Nx::Neg(inner)
            | Nx::Reduce { inner, .. }
            | Nx::Countones { inner, .. }
            | Nx::Onehot(inner)
            | Nx::Onehot0(inner)
            | Nx::Resize { inner, .. } => inner.visit_atoms(f),
            Nx::DynSlice { inner, index, .. } => {
                inner.visit_atoms(f);
                index.visit_atoms(f);
            }
            Nx::Concat(parts) => {
                for p in parts {
                    p.visit_atoms(f);
                }
            }
            Nx::Bin { a, b, .. } => {
                a.visit_atoms(f);
                b.visit_atoms(f);
            }
            Nx::Mux { sel, t, e } => {
                sel.visit_atoms(f);
                t.visit_atoms(f);
                e.visit_atoms(f);
            }
        }
    }
}

/// Masks a value to `width` bits.
pub(crate) fn mask(value: u128, width: u32) -> u128 {
    if width >= 128 {
        value
    } else {
        value & ((1u128 << width) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_masks() {
        assert_eq!(
            Nx::constant(4, 0xFF),
            Nx::Const {
                width: 4,
                value: 0xF
            }
        );
    }

    #[test]
    fn widths() {
        let w = |_: AtomId| 8u32;
        let c = Nx::constant(8, 1);
        assert_eq!(c.width(&w), 8);
        let cmp = Nx::Bin {
            op: NxBin::Eq,
            a: Box::new(c.clone()),
            b: Box::new(Nx::constant(8, 2)),
        };
        assert_eq!(cmp.width(&w), 1);
        let cat = Nx::Concat(vec![c.clone(), c]);
        assert_eq!(cat.width(&w), 16);
    }

    #[test]
    fn atom_visitor() {
        let e = Nx::Bin {
            op: NxBin::Add,
            a: Box::new(Nx::Atom(AtomId(0))),
            b: Box::new(Nx::Mux {
                sel: Box::new(Nx::Atom(AtomId(1))),
                t: Box::new(Nx::Atom(AtomId(2))),
                e: Box::new(Nx::constant(8, 0)),
            }),
        };
        let mut seen = Vec::new();
        e.visit_atoms(&mut |a| seen.push(a.0));
        assert_eq!(seen, vec![0, 1, 2]);
    }
}
