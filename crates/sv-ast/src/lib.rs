//! Abstract syntax trees for the SystemVerilog subset and the
//! SystemVerilog Assertion (SVA) property layer used across FVEval.
//!
//! The tree is shared by the parser (`sv-parser`), the elaborator
//! (`sv-synth`), the property compiler (`fv-core`), the dataset
//! generators (`fveval-data`), and the simulated-model transforms
//! (`fveval-llm`). A pretty-printer renders trees back to concrete
//! syntax; `print → parse → print` is a fixpoint (tested by property
//! tests in `sv-parser`).

mod expr;
mod intern;
mod module;
mod printer;
mod property;

pub use expr::{BinaryOp, Expr, Literal, SysFunc, UnaryOp};
pub use intern::{Interner, Symbol, SymbolHasher, SymbolMap};
pub use module::{
    Assign, EdgeKind, EventExpr, Instance, LValue, Module, ModuleItem, NetDecl, NetKind, ParamDecl,
    PortDecl, PortDir, Range, SourceFile, Stmt,
};
pub use printer::{print_assertion, print_expr, print_module, print_property, print_seq};
pub use property::{Assertion, ClockSpec, DelayBound, PropExpr, SeqExpr};
