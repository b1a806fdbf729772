//! Elaboration: AST modules to a flat word-level [`Netlist`].
//!
//! The pipeline is:
//!
//! 1. **Flatten** — resolve parameters and genvars to constants, unroll
//!    generate loops, inline module instances with hierarchical names,
//!    desugar `case` into `if` chains, and resolve every assignment
//!    target to a `(net, bit-range)` pair. Every name the walk touches
//!    is interned into a per-design [`Interner`] arena: scopes, targets,
//!    and flattened expressions ([`Fx`]) carry `Copy` [`Symbol`]s
//!    instead of cloned `String`s, so scope lookups and net-map probes
//!    are integer compares.
//! 2. **Pass A** — discover every driven range of every net and create
//!    one *atom* per driver (input / combinational / register).
//!    Undriven ranges become free inputs (cut points).
//! 3. **Pass B** — elaborate expressions to [`Nx`] and symbolically
//!    execute processes (if/else merging via muxes) to produce each
//!    atom's definition; extract register reset values by partial
//!    evaluation under the asserted reset.

use crate::netexpr::{mask, Nx, NxBin, NxRed};
use crate::netlist::{AtomDef, AtomId, AtomKind, NetBinding, Netlist, Seg};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use sv_ast::{
    BinaryOp, EdgeKind, Expr, Interner, LValue, Literal, Module, ModuleItem, PortDir, SourceFile,
    Stmt, Symbol, SymbolMap, SysFunc, UnaryOp,
};

/// Elaboration failure (semantic error after a successful parse).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElabError {
    /// Human-readable description.
    pub message: String,
}

impl ElabError {
    fn new(message: impl Into<String>) -> ElabError {
        ElabError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "elaboration error: {}", self.message)
    }
}

impl Error for ElabError {}

type Result<T> = std::result::Result<T, ElabError>;

const MAX_WIDTH: u32 = 128;
const MAX_GENERATE_ITERS: u32 = 10_000;

// ---------------------------------------------------------------------
// Flattening
// ---------------------------------------------------------------------

/// A name scope: interned source name to its resolved meaning.
type Scope = SymbolMap<Symbol, ScopeEntry>;

/// An unpacked array's shape: element count plus the symbol of element
/// zero. Elements are interned consecutively at declaration, so element
/// `i` is `elem0.offset(i)` — array selects never re-hash a name.
#[derive(Debug, Clone, Copy)]
struct ArrayInfo {
    count: u32,
    elem0: Symbol,
}

#[derive(Debug, Clone, Copy)]
struct DeclInfo {
    /// Interned flat hierarchical name.
    flat: Symbol,
    width: u32,
    elem_width: u32,
    lsb: u32,
    /// Unpacked array shape, if any.
    elems: Option<ArrayInfo>,
    is_top_input: bool,
}

#[derive(Debug, Clone, Copy)]
enum ScopeEntry {
    Const(u128),
    Net(DeclInfo),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FlatTarget {
    net: Symbol,
    lo: u32,
    width: u32,
}

/// A flattened expression: the source [`Expr`] with parameters and
/// genvars folded to literals and every identifier resolved to an
/// interned symbol (the flat net name, or the unresolved source name —
/// both are probed against the net map in pass B, so unknown names
/// fail there with the text they were written with).
///
/// Replacing the post-substitution `Expr` tree (which deep-cloned a
/// `String` per identifier) with this `Symbol`-carrying form is the
/// single biggest win of the interned elaboration path.
#[derive(Debug, Clone)]
enum Fx {
    Net(Symbol),
    Lit { width: Option<u32>, value: u128 },
    Fill(bool),
    Unary(UnaryOp, Box<Fx>),
    Binary(BinaryOp, Box<Fx>, Box<Fx>),
    Ternary(Box<Fx>, Box<Fx>, Box<Fx>),
    Concat(Vec<Fx>),
    Replicate(Box<Fx>, Box<Fx>),
    Index(Box<Fx>, Box<Fx>),
    Slice(Box<Fx>, Box<Fx>, Box<Fx>),
    SysCall(SysFunc, Vec<Fx>),
}

#[derive(Debug, Clone)]
enum FlatStmt {
    Block(Vec<FlatStmt>),
    If {
        cond: Fx,
        then: Box<FlatStmt>,
        alt: Option<Box<FlatStmt>>,
    },
    Assign {
        target: FlatTarget,
        rhs: Fx,
    },
    Empty,
}

#[derive(Debug, Clone)]
enum FlatItem {
    Decl(DeclInfo),
    Assign { target: FlatTarget, rhs: Fx },
    Proc { clocked: bool, body: FlatStmt },
}

#[derive(Debug, Default)]
struct Flattener {
    /// The design's string arena; moved into the built netlist.
    itn: Interner,
    items: Vec<FlatItem>,
    clock_name: Option<String>,
    reset_name: Option<String>,
    warnings: Vec<String>,
    /// Parameter values of the top module (prefix empty), in order.
    top_params: Vec<(String, u128)>,
}

impl Flattener {
    fn scope_get<'s>(&self, scope: &'s Scope, name: &str) -> Option<&'s ScopeEntry> {
        scope.get(&self.itn.lookup(name)?)
    }

    fn flatten_module(
        &mut self,
        file: &SourceFile,
        module: &Module,
        prefix: &str,
        param_overrides: &HashMap<String, u128>,
        extra_items: &[ModuleItem],
    ) -> Result<Scope> {
        let mut scope: Scope = Scope::default();
        // Parameters (defaults overridden by instance bindings).
        for p in &module.params {
            let v = match param_overrides.get(&p.name) {
                Some(&v) if !p.local => v,
                _ => const_eval_scoped(&p.value, &scope, &self.itn)?,
            };
            if prefix.is_empty() {
                self.top_params.push((p.name.clone(), v));
            }
            let key = self.itn.intern(&p.name);
            scope.insert(key, ScopeEntry::Const(v));
        }
        // Port declarations.
        for port in &module.ports {
            let (width, lsb) = match &port.range {
                Some(r) => range_width(r, &scope, &self.itn)?,
                None => (1, 0),
            };
            let info = DeclInfo {
                flat: self.itn.intern_parts(&[prefix, &port.name]),
                width,
                elem_width: 1,
                lsb,
                elems: None,
                is_top_input: prefix.is_empty() && port.dir == PortDir::Input,
            };
            let key = self.itn.intern(&port.name);
            scope.insert(key, ScopeEntry::Net(info));
            self.items.push(FlatItem::Decl(info));
        }
        let items: Vec<&ModuleItem> = module.items.iter().chain(extra_items.iter()).collect();
        self.flatten_items(file, &items, prefix, &mut scope)?;
        Ok(scope)
    }

    fn flatten_items(
        &mut self,
        file: &SourceFile,
        items: &[&ModuleItem],
        prefix: &str,
        scope: &mut Scope,
    ) -> Result<()> {
        for item in items {
            self.flatten_item(file, item, prefix, scope)?;
        }
        Ok(())
    }

    fn flatten_item(
        &mut self,
        file: &SourceFile,
        item: &ModuleItem,
        prefix: &str,
        scope: &mut Scope,
    ) -> Result<()> {
        match item {
            ModuleItem::Param(p) => {
                let v = const_eval_scoped(&p.value, scope, &self.itn)?;
                if prefix.is_empty() {
                    self.top_params.push((p.name.clone(), v));
                }
                let key = self.itn.intern(&p.name);
                scope.insert(key, ScopeEntry::Const(v));
            }
            ModuleItem::Port(p) => {
                // In-body port decl inside an instantiated module.
                let (width, lsb) = match &p.range {
                    Some(r) => range_width(r, scope, &self.itn)?,
                    None => (1, 0),
                };
                let info = DeclInfo {
                    flat: self.itn.intern_parts(&[prefix, &p.name]),
                    width,
                    elem_width: 1,
                    lsb,
                    elems: None,
                    is_top_input: prefix.is_empty() && p.dir == PortDir::Input,
                };
                let key = self.itn.intern(&p.name);
                scope.insert(key, ScopeEntry::Net(info));
                self.items.push(FlatItem::Decl(info));
            }
            ModuleItem::Net(n) => {
                if n.kind == sv_ast::NetKind::Genvar {
                    // Bare genvar declaration; value assigned by loops.
                    return Ok(());
                }
                let mut width = 1u32;
                let mut elem_width = 1u32;
                let mut lsb = 0u32;
                if !n.packed.is_empty() {
                    let (w0, l0) = range_width(&n.packed[0], scope, &self.itn)?;
                    lsb = l0;
                    let mut inner = 1u32;
                    for r in &n.packed[1..] {
                        let (w, _) = range_width(r, scope, &self.itn)?;
                        inner = inner
                            .checked_mul(w)
                            .ok_or_else(|| ElabError::new("packed dimensions overflow"))?;
                    }
                    elem_width = inner;
                    width = w0
                        .checked_mul(inner)
                        .ok_or_else(|| ElabError::new("packed dimensions overflow"))?;
                }
                if width > MAX_WIDTH && n.packed.len() == 1 {
                    return Err(ElabError::new(format!(
                        "net '{}' wider than {MAX_WIDTH} bits",
                        n.name
                    )));
                }
                let flat = self.itn.intern_parts(&[prefix, &n.name]);
                let elems = if n.unpacked.is_empty() {
                    None
                } else {
                    let mut count = 1u32;
                    for r in &n.unpacked {
                        let (w, _) = range_width(r, scope, &self.itn)?;
                        count = count
                            .checked_mul(w)
                            .ok_or_else(|| ElabError::new("unpacked dimensions overflow"))?;
                    }
                    // Intern every element name back-to-back so selects
                    // can address element `i` as `elem0.offset(i)`
                    // without re-hashing. Element names are produced
                    // only here, so the run is truly consecutive.
                    let base = self.itn.resolve(flat).to_string();
                    let mut name = String::with_capacity(base.len() + 8);
                    let mut elem0 = None;
                    for i in 0..count {
                        name.clear();
                        use std::fmt::Write as _;
                        let _ = write!(name, "{base}[{i}]");
                        let s = self.itn.intern(&name);
                        let e0 = *elem0.get_or_insert(s);
                        debug_assert_eq!(s, e0.offset(i), "array elements interned consecutively");
                    }
                    Some(ArrayInfo {
                        count,
                        // A zero-element array has no element symbols;
                        // bounds checks keep `elem0` unused then.
                        elem0: elem0.unwrap_or(flat),
                    })
                };
                let info = DeclInfo {
                    flat,
                    width,
                    elem_width,
                    lsb,
                    elems,
                    is_top_input: false,
                };
                let key = self.itn.intern(&n.name);
                scope.insert(key, ScopeEntry::Net(info));
                self.items.push(FlatItem::Decl(info));
                if let Some(init) = &n.init {
                    let rhs = self.flatten_expr(init, scope);
                    self.items.push(FlatItem::Assign {
                        target: FlatTarget {
                            net: info.flat,
                            lo: 0,
                            width: info.width,
                        },
                        rhs,
                    });
                }
            }
            ModuleItem::ContAssign(a) => {
                let target = self.resolve_lvalue(&a.lhs, scope)?;
                let rhs = self.flatten_expr(&a.rhs, scope);
                self.items.push(FlatItem::Assign { target, rhs });
            }
            ModuleItem::AlwaysComb(body) => {
                let fb = self.flatten_stmt(body, scope)?;
                self.items.push(FlatItem::Proc {
                    clocked: false,
                    body: fb,
                });
            }
            ModuleItem::AlwaysFf { events, body } | ModuleItem::AlwaysAt { events, body } => {
                let mut clocked = false;
                for ev in events {
                    match ev.edge {
                        EdgeKind::Pos => {
                            clocked = true;
                            if self.clock_name.is_none() {
                                self.clock_name = Some(ev.signal.clone());
                            }
                        }
                        EdgeKind::Neg => {
                            // Async active-low reset by convention.
                            if self.reset_name.is_none() {
                                self.reset_name = Some(ev.signal.clone());
                            }
                        }
                    }
                }
                if !clocked {
                    return Err(ElabError::new(
                        "always block without a posedge clock is not supported",
                    ));
                }
                let fb = self.flatten_stmt(body, scope)?;
                self.items.push(FlatItem::Proc {
                    clocked: true,
                    body: fb,
                });
            }
            ModuleItem::GenerateFor {
                var,
                init,
                cond,
                step,
                body,
                ..
            } => {
                let mut value = const_eval_scoped(init, scope, &self.itn)?;
                let var_key = self.itn.intern(var);
                let body_refs: Vec<&ModuleItem> = body.iter().collect();
                // Only top-level declarations in the body can touch the
                // iteration scope (instances and nested generates work
                // on their own clones), so a declaration-free body —
                // the common shape — reuses one scope across
                // iterations instead of cloning per iteration.
                let body_declares = body.iter().any(|it| {
                    matches!(
                        it,
                        ModuleItem::Param(_) | ModuleItem::Port(_) | ModuleItem::Net(_)
                    )
                });
                let mut shared = (!body_declares).then(|| scope.clone());
                let mut iters = 0u32;
                loop {
                    let mut per_iter;
                    let inner = match &mut shared {
                        Some(s) => s,
                        None => {
                            per_iter = scope.clone();
                            &mut per_iter
                        }
                    };
                    inner.insert(var_key, ScopeEntry::Const(value));
                    if const_eval_scoped(cond, inner, &self.itn)? == 0 {
                        break;
                    }
                    self.flatten_items(file, &body_refs, prefix, inner)?;
                    // Per-iteration declarations stay local to their
                    // clone; drivers of outer nets were already
                    // recorded.
                    value = const_eval_scoped(step, inner, &self.itn)?;
                    iters += 1;
                    if iters > MAX_GENERATE_ITERS {
                        return Err(ElabError::new("generate loop exceeds iteration limit"));
                    }
                }
            }
            ModuleItem::Instance(inst) => {
                let mut overrides = HashMap::new();
                for (name, e) in &inst.params {
                    let fx = self.flatten_expr(e, scope);
                    overrides.insert(name.clone(), fx_const_eval(&fx, &self.itn)?);
                }
                let child = file
                    .module(&inst.module)
                    .ok_or_else(|| ElabError::new(format!("unknown module '{}'", inst.module)))?;
                let child_prefix = format!("{prefix}{}.", inst.name);
                let child_scope =
                    self.flatten_module(file, child, &child_prefix, &overrides, &[])?;
                // Port connections become assigns in the right direction.
                for (pname, conn) in &inst.conns {
                    let dir = child.port(pname).map(|p| p.dir).ok_or_else(|| {
                        ElabError::new(format!("module '{}' has no port '{pname}'", inst.module))
                    })?;
                    let child_info = match self.scope_get(&child_scope, pname) {
                        Some(ScopeEntry::Net(i)) => *i,
                        _ => {
                            return Err(ElabError::new(format!(
                                "port '{pname}' did not elaborate to a net"
                            )))
                        }
                    };
                    match dir {
                        PortDir::Input => {
                            let rhs = self.flatten_expr(conn, scope);
                            self.items.push(FlatItem::Assign {
                                target: FlatTarget {
                                    net: child_info.flat,
                                    lo: 0,
                                    width: child_info.width,
                                },
                                rhs,
                            });
                        }
                        PortDir::Output => {
                            let lv = expr_as_lvalue(conn).ok_or_else(|| {
                                ElabError::new(format!(
                                    "output port '{pname}' must connect to an assignable \
                                     expression"
                                ))
                            })?;
                            let target = self.resolve_lvalue(&lv, scope)?;
                            self.items.push(FlatItem::Assign {
                                target,
                                rhs: Fx::Net(child_info.flat),
                            });
                        }
                        PortDir::Inout => {
                            return Err(ElabError::new("inout ports are not supported"))
                        }
                    }
                }
            }
            ModuleItem::Assertion(_) => {
                // Assertions are collected by the caller (fv-core); they do
                // not contribute netlist logic.
            }
        }
        Ok(())
    }

    fn flatten_stmt(&mut self, stmt: &Stmt, scope: &Scope) -> Result<FlatStmt> {
        Ok(match stmt {
            Stmt::Block(stmts) => FlatStmt::Block(
                stmts
                    .iter()
                    .map(|s| self.flatten_stmt(s, scope))
                    .collect::<Result<_>>()?,
            ),
            Stmt::If { cond, then, alt } => FlatStmt::If {
                cond: self.flatten_expr(cond, scope),
                then: Box::new(self.flatten_stmt(then, scope)?),
                alt: match alt {
                    Some(a) => Some(Box::new(self.flatten_stmt(a, scope)?)),
                    None => None,
                },
            },
            Stmt::Case {
                subject,
                arms,
                default,
            } => {
                // Desugar to an if/else chain. The subject flattens once
                // and is shared (cloned) per label — substitution
                // distributes over the comparison, so this matches
                // flattening each `subject == label` separately.
                let subj = self.flatten_expr(subject, scope);
                let mut acc = match default {
                    Some(d) => self.flatten_stmt(d, scope)?,
                    None => FlatStmt::Empty,
                };
                for (labels, body) in arms.iter().rev() {
                    let mut cond: Option<Fx> = None;
                    for l in labels {
                        let lf = self.flatten_expr(l, scope);
                        let eq = Fx::Binary(BinaryOp::Eq, Box::new(subj.clone()), Box::new(lf));
                        cond = Some(match cond {
                            None => eq,
                            Some(c) => Fx::Binary(BinaryOp::LogOr, Box::new(c), Box::new(eq)),
                        });
                    }
                    let cond = cond.ok_or_else(|| ElabError::new("case arm without labels"))?;
                    acc = FlatStmt::If {
                        cond,
                        then: Box::new(self.flatten_stmt(body, scope)?),
                        alt: Some(Box::new(acc)),
                    };
                }
                acc
            }
            Stmt::NonBlocking(lv, rhs) | Stmt::Blocking(lv, rhs) => FlatStmt::Assign {
                target: self.resolve_lvalue(lv, scope)?,
                rhs: self.flatten_expr(rhs, scope),
            },
            Stmt::Empty => FlatStmt::Empty,
        })
    }

    fn resolve_lvalue(&mut self, lv: &LValue, scope: &Scope) -> Result<FlatTarget> {
        match lv {
            LValue::Ident(name) => {
                let info = self.lookup_net(scope, name)?;
                Ok(FlatTarget {
                    net: info.flat,
                    lo: 0,
                    width: info.width,
                })
            }
            LValue::Index(name, idx) => {
                let info = self.lookup_net(scope, name)?;
                let i = const_eval_scoped(idx, scope, &self.itn).map_err(|_| {
                    ElabError::new(format!(
                        "assignment index into '{name}' must be an elaboration-time constant"
                    ))
                })?;
                if let Some(arr) = info.elems {
                    // Array element: its own net. In-range indices hit
                    // the consecutive element symbols; out-of-range
                    // ones intern the written name so the later
                    // "undeclared driver" diagnostics keep their text.
                    let net = if i < u128::from(arr.count) {
                        arr.elem0.offset(i as u32)
                    } else {
                        let elem = format!("{}[{i}]", self.itn.resolve(info.flat));
                        self.itn.intern(&elem)
                    };
                    Ok(FlatTarget {
                        net,
                        lo: 0,
                        width: info.width,
                    })
                } else {
                    let i = u32::try_from(i)
                        .map_err(|_| ElabError::new("index too large"))?
                        .checked_sub(info.lsb)
                        .ok_or_else(|| ElabError::new(format!("index below lsb of '{name}'")))?;
                    let lo = i * info.elem_width;
                    if lo + info.elem_width > info.width {
                        return Err(ElabError::new(format!("index out of range for '{name}'")));
                    }
                    Ok(FlatTarget {
                        net: info.flat,
                        lo,
                        width: info.elem_width,
                    })
                }
            }
            LValue::Slice(name, hi, lo) => {
                let info = self.lookup_net(scope, name)?;
                let hi_fx = self.flatten_expr(hi, scope);
                let lo_fx = self.flatten_expr(lo, scope);
                let hi = fx_const_eval(&hi_fx, &self.itn)?;
                let lo = fx_const_eval(&lo_fx, &self.itn)?;
                let (hi, lo) = (
                    u32::try_from(hi).map_err(|_| ElabError::new("slice bound too large"))?,
                    u32::try_from(lo).map_err(|_| ElabError::new("slice bound too large"))?,
                );
                if lo > hi || hi - info.lsb >= info.width {
                    return Err(ElabError::new(format!("slice out of range for '{name}'")));
                }
                Ok(FlatTarget {
                    net: info.flat,
                    lo: lo - info.lsb,
                    width: hi - lo + 1,
                })
            }
            LValue::Concat(_) => Err(ElabError::new(
                "concatenation assignment targets are not supported",
            )),
        }
    }

    fn lookup_net(&self, scope: &Scope, name: &str) -> Result<DeclInfo> {
        match self.scope_get(scope, name) {
            Some(ScopeEntry::Net(info)) => Ok(*info),
            Some(ScopeEntry::Const(_)) => Err(ElabError::new(format!(
                "'{name}' is a parameter, not an assignable net"
            ))),
            None => Err(ElabError::new(format!(
                "assignment to undeclared net '{name}'"
            ))),
        }
    }

    /// Flattens an expression: parameters/genvars fold to literals, nets
    /// resolve to their interned flat names. Unknown identifiers are
    /// interned as written (reported later).
    fn flatten_expr(&mut self, e: &Expr, scope: &Scope) -> Fx {
        match e {
            Expr::Ident(name) => match self.scope_get(scope, name) {
                Some(ScopeEntry::Const(v)) => Fx::Lit {
                    width: None,
                    value: *v,
                },
                Some(ScopeEntry::Net(info)) => Fx::Net(info.flat),
                None => Fx::Net(self.itn.intern(name)),
            },
            Expr::Literal(Literal::Int { width, value, .. }) => Fx::Lit {
                width: *width,
                value: *value,
            },
            Expr::Literal(Literal::Fill(b)) => Fx::Fill(*b),
            Expr::Unary(op, i) => Fx::Unary(*op, Box::new(self.flatten_expr(i, scope))),
            Expr::Binary(op, a, b) => Fx::Binary(
                *op,
                Box::new(self.flatten_expr(a, scope)),
                Box::new(self.flatten_expr(b, scope)),
            ),
            Expr::Ternary(c, t, f) => Fx::Ternary(
                Box::new(self.flatten_expr(c, scope)),
                Box::new(self.flatten_expr(t, scope)),
                Box::new(self.flatten_expr(f, scope)),
            ),
            Expr::Concat(es) => {
                Fx::Concat(es.iter().map(|x| self.flatten_expr(x, scope)).collect())
            }
            Expr::Replicate(n, x) => Fx::Replicate(
                Box::new(self.flatten_expr(n, scope)),
                Box::new(self.flatten_expr(x, scope)),
            ),
            Expr::Index(b, i) => Fx::Index(
                Box::new(self.flatten_expr(b, scope)),
                Box::new(self.flatten_expr(i, scope)),
            ),
            Expr::Slice(b, h, l) => Fx::Slice(
                Box::new(self.flatten_expr(b, scope)),
                Box::new(self.flatten_expr(h, scope)),
                Box::new(self.flatten_expr(l, scope)),
            ),
            Expr::SysCall(f, args) => Fx::SysCall(
                *f,
                args.iter().map(|x| self.flatten_expr(x, scope)).collect(),
            ),
        }
    }
}

fn expr_as_lvalue(e: &Expr) -> Option<LValue> {
    match e {
        Expr::Ident(n) => Some(LValue::Ident(n.clone())),
        Expr::Index(b, i) => match b.as_ref() {
            Expr::Ident(n) => Some(LValue::Index(n.clone(), (**i).clone())),
            _ => None,
        },
        Expr::Slice(b, h, l) => match b.as_ref() {
            Expr::Ident(n) => Some(LValue::Slice(n.clone(), (**h).clone(), (**l).clone())),
            _ => None,
        },
        _ => None,
    }
}

fn range_width(r: &sv_ast::Range, scope: &Scope, itn: &Interner) -> Result<(u32, u32)> {
    let msb = const_eval_scoped(&r.msb, scope, itn)?;
    let lsb = const_eval_scoped(&r.lsb, scope, itn)?;
    if lsb > msb {
        return Err(ElabError::new("descending ranges must have msb >= lsb"));
    }
    let w = u32::try_from(msb - lsb + 1).map_err(|_| ElabError::new("range too wide"))?;
    if w > MAX_WIDTH {
        return Err(ElabError::new(format!("range wider than {MAX_WIDTH} bits")));
    }
    Ok((
        w,
        u32::try_from(lsb).map_err(|_| ElabError::new("lsb too large"))?,
    ))
}

fn const_unary(op: UnaryOp, v: u128) -> Result<u128> {
    Ok(match op {
        UnaryOp::LogNot => u128::from(v == 0),
        UnaryOp::BitNot => !v,
        UnaryOp::Neg => v.wrapping_neg(),
        UnaryOp::Pos => v,
        UnaryOp::RedOr => u128::from(v != 0),
        UnaryOp::RedAnd => {
            return Err(ElabError::new(
                "reduction-and needs a width; not allowed in constants",
            ))
        }
        UnaryOp::RedXor => u128::from(v.count_ones() % 2 == 1),
        _ => return Err(ElabError::new("unsupported unary op in constant")),
    })
}

fn const_binary(op: BinaryOp, x: u128, y: u128) -> Result<u128> {
    Ok(match op {
        BinaryOp::Add => x.wrapping_add(y),
        BinaryOp::Sub => x.wrapping_sub(y),
        BinaryOp::Mul => x.wrapping_mul(y),
        BinaryOp::Div => {
            if y == 0 {
                return Err(ElabError::new("division by zero in constant"));
            }
            x / y
        }
        BinaryOp::Mod => {
            if y == 0 {
                return Err(ElabError::new("modulo by zero in constant"));
            }
            x % y
        }
        BinaryOp::Shl | BinaryOp::AShl => x.checked_shl(y as u32).unwrap_or(0),
        BinaryOp::Shr | BinaryOp::AShr => x.checked_shr(y as u32).unwrap_or(0),
        BinaryOp::BitAnd => x & y,
        BinaryOp::BitOr => x | y,
        BinaryOp::BitXor => x ^ y,
        BinaryOp::BitXnor => !(x ^ y),
        BinaryOp::Eq | BinaryOp::CaseEq => u128::from(x == y),
        BinaryOp::Neq | BinaryOp::CaseNeq => u128::from(x != y),
        BinaryOp::Lt => u128::from(x < y),
        BinaryOp::Le => u128::from(x <= y),
        BinaryOp::Gt => u128::from(x > y),
        BinaryOp::Ge => u128::from(x >= y),
        BinaryOp::LogAnd => u128::from(x != 0 && y != 0),
        BinaryOp::LogOr => u128::from(x != 0 || y != 0),
    })
}

/// Elaboration-time constant evaluation over source expressions
/// (parameters, genvar bounds, range bounds). Identifiers must resolve
/// to constants in `scope`.
fn const_eval_scoped(e: &Expr, scope: &Scope, itn: &Interner) -> Result<u128> {
    Ok(match e {
        Expr::Ident(name) => match itn.lookup(name).and_then(|s| scope.get(&s)) {
            Some(ScopeEntry::Const(v)) => *v,
            _ => {
                return Err(ElabError::new(format!(
                    "'{name}' is not an elaboration-time constant"
                )))
            }
        },
        Expr::Literal(Literal::Int { value, .. }) => *value,
        Expr::Literal(Literal::Fill(_)) => {
            return Err(ElabError::new("fill literal in constant context"))
        }
        Expr::Unary(op, i) => const_unary(*op, const_eval_scoped(i, scope, itn)?)?,
        Expr::Binary(op, a, b) => const_binary(
            *op,
            const_eval_scoped(a, scope, itn)?,
            const_eval_scoped(b, scope, itn)?,
        )?,
        Expr::Ternary(c, t, f) => {
            if const_eval_scoped(c, scope, itn)? != 0 {
                const_eval_scoped(t, scope, itn)?
            } else {
                const_eval_scoped(f, scope, itn)?
            }
        }
        Expr::SysCall(SysFunc::Clog2, args) if args.len() == 1 => {
            let v = const_eval_scoped(&args[0], scope, itn)?;
            u128::from(clog2(v))
        }
        _ => {
            return Err(ElabError::new(
                "expression is not an elaboration-time constant",
            ))
        }
    })
}

/// Constant evaluation over flattened expressions (indices, slice and
/// replication bounds — everything that was scope-resolved already).
/// Net references are non-constant; the error carries the name they
/// resolved to, matching what substitution used to report.
fn fx_const_eval(e: &Fx, itn: &Interner) -> Result<u128> {
    Ok(match e {
        Fx::Net(sym) => {
            return Err(ElabError::new(format!(
                "'{}' is not an elaboration-time constant",
                itn.resolve(*sym)
            )))
        }
        Fx::Lit { value, .. } => *value,
        Fx::Fill(_) => return Err(ElabError::new("fill literal in constant context")),
        Fx::Unary(op, i) => const_unary(*op, fx_const_eval(i, itn)?)?,
        Fx::Binary(op, a, b) => const_binary(*op, fx_const_eval(a, itn)?, fx_const_eval(b, itn)?)?,
        Fx::Ternary(c, t, f) => {
            if fx_const_eval(c, itn)? != 0 {
                fx_const_eval(t, itn)?
            } else {
                fx_const_eval(f, itn)?
            }
        }
        Fx::SysCall(SysFunc::Clog2, args) if args.len() == 1 => {
            u128::from(clog2(fx_const_eval(&args[0], itn)?))
        }
        _ => {
            return Err(ElabError::new(
                "expression is not an elaboration-time constant",
            ))
        }
    })
}

fn clog2(v: u128) -> u32 {
    if v <= 1 {
        0
    } else {
        128 - (v - 1).leading_zeros()
    }
}

// ---------------------------------------------------------------------
// Netlist construction (passes A and B)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DriverKind {
    Comb,
    Reg,
}

#[derive(Debug)]
struct Builder {
    /// Arena continued from the flattener; frozen into the netlist.
    itn: Interner,
    netlist: Netlist,
    /// (net, lo, width) -> atom
    atom_of_range: SymbolMap<(Symbol, u32, u32), AtomId>,
    /// Declared nets pending binding construction.
    decls: SymbolMap<Symbol, DeclInfo>,
    decl_order: Vec<Symbol>,
    drivers: SymbolMap<Symbol, Vec<(u32, u32, DriverKind, usize)>>,
    /// Per array, the symbol of element 0 (elements are interned
    /// consecutively, so element `i` is `elem0.offset(i)`).
    array_elem0: SymbolMap<Symbol, Symbol>,
}

/// Elaborates `top` from `file` into a flat netlist.
///
/// # Errors
///
/// Returns [`ElabError`] on semantic violations: unknown modules or
/// signals, non-constant indices, multiple drivers, width overflows,
/// combinational cycles, and unsupported constructs.
pub fn elaborate(file: &SourceFile, top: &str) -> Result<Netlist> {
    walk(file, top, &[]).map(|(_, _, netlist)| netlist)
}

/// The whole-file walk behind [`elaborate`] and [`elaborate_design`]:
/// flattens `top` with `extras` appended to its body (instance
/// inlining, generate unrolling, parameter resolution) and builds the
/// base netlist. Returns the flattener, whose arena is now frozen into
/// the netlist, and the top-module scope, for [`elaborate_design`] to
/// keep.
fn walk(
    file: &SourceFile,
    top: &str,
    extras: &[ModuleItem],
) -> Result<(Flattener, Scope, Netlist)> {
    let module = file
        .module(top)
        .ok_or_else(|| ElabError::new(format!("unknown top module '{top}'")))?;
    let mut fl = Flattener::default();
    let scope = fl.flatten_module(file, module, "", &HashMap::new(), extras)?;
    let base = build_netlist(
        &fl.items,
        &[],
        std::mem::take(&mut fl.itn),
        &fl.clock_name,
        &fl.reset_name,
        &fl.warnings,
        &fl.top_params,
    )?;
    Ok((fl, scope, base))
}

/// A design elaborated once into reusable flattened form: the result of
/// the expensive whole-file walk (module inlining, generate unrolling,
/// parameter and genvar resolution) plus the top module's name scope,
/// ready to have per-response extra items spliced in cheaply.
///
/// This is the compile-once half of the compile-once / score-many
/// Design2SVA flow: [`elaborate_design`] pays the full elaboration once
/// per design, and every candidate response only pays
/// [`ElaboratedDesign::bind_extras`] for its own handful of helper
/// items.
///
/// # Examples
///
/// ```
/// use sv_parser::parse_source;
/// use sv_synth::elaborate_design;
///
/// let f = parse_source(
///     "module tb (clk, a, q);\ninput clk; input a; output q;\n\
///      assign q = a;\nendmodule\n",
/// )
/// .unwrap();
/// let design = elaborate_design(&f, "tb", &[]).unwrap();
/// // The helper-free binding is the cached base netlist.
/// assert!(design.netlist().net("q").is_some());
/// // A response's helper items splice in without re-walking the file.
/// let extras = sv_parser::parse_snippet("logic mirror;\nassign mirror = a;").unwrap();
/// let bound = design.bind_extras(&extras).unwrap();
/// assert!(bound.net("mirror").is_some());
/// ```
#[derive(Debug, Clone)]
pub struct ElaboratedDesign {
    file: SourceFile,
    items: Vec<FlatItem>,
    scope: Scope,
    clock_name: Option<String>,
    reset_name: Option<String>,
    warnings: Vec<String>,
    top_params: Vec<(String, u128)>,
    base: Netlist,
}

/// Elaborates `top` (with `extras` appended to its body, e.g. the DUT
/// instantiation of a Design2SVA testbench) into a reusable
/// [`ElaboratedDesign`]. The base netlist is built and validated
/// eagerly, so a successful return means the helper-free binding is
/// known-good.
///
/// # Errors
///
/// See [`elaborate`]; additionally errors if `extras` reference
/// signals that are neither ports of `top` nor their own declarations
/// (the benchmark's "do not use design-internal signals" rule).
pub fn elaborate_design(
    file: &SourceFile,
    top: &str,
    extras: &[ModuleItem],
) -> Result<ElaboratedDesign> {
    let _span = fv_trace::span!("elaborate", top = top, extras = extras.len());
    let (fl, scope, base) = walk(file, top, extras)?;
    let Flattener {
        items,
        clock_name,
        reset_name,
        warnings,
        top_params,
        ..
    } = fl;
    Ok(ElaboratedDesign {
        file: file.clone(),
        items,
        scope,
        clock_name,
        reset_name,
        warnings,
        top_params,
        base,
    })
}

impl ElaboratedDesign {
    /// The cached base netlist (no extra items beyond those the design
    /// was elaborated with). Identical to what
    /// [`ElaboratedDesign::bind_extras`] returns for an empty slice,
    /// without the clone.
    pub fn netlist(&self) -> &Netlist {
        &self.base
    }

    /// Top-module parameter values, in declaration order (the
    /// testbench constants visible to assertions).
    pub fn params(&self) -> &[(String, u128)] {
        &self.top_params
    }

    /// Splices `extras` into the already-flattened design and builds
    /// the bound netlist. Only the extra items are flattened — they are
    /// resolved in the saved top-module scope exactly as if they had
    /// been appended to the module body, so the result is identical to
    /// [`elaborate_design`] with the concatenated extras, at a fraction
    /// of the cost.
    ///
    /// # Errors
    ///
    /// See [`elaborate_design`].
    pub fn bind_extras(&self, extras: &[ModuleItem]) -> Result<Netlist> {
        if extras.is_empty() {
            return Ok(self.base.clone());
        }
        let _span = fv_trace::span!("bind_extras", extras = extras.len());
        // Resume flattening where the base elaboration stopped: same
        // scope, same clock/reset detection state, fresh item list. The
        // arena resumes from the frozen base interner (append-only, so
        // every saved symbol stays valid).
        let mut fl = Flattener {
            itn: (*self.base.syms).clone(),
            items: Vec::new(),
            clock_name: self.clock_name.clone(),
            reset_name: self.reset_name.clone(),
            warnings: Vec::new(),
            top_params: Vec::new(),
        };
        let mut scope = self.scope.clone();
        let refs: Vec<&ModuleItem> = extras.iter().collect();
        fl.flatten_items(&self.file, &refs, "", &mut scope)?;
        let mut warnings = self.warnings.clone();
        warnings.extend(fl.warnings);
        let mut top_params = self.top_params.clone();
        top_params.extend(fl.top_params);
        build_netlist(
            &self.items,
            &fl.items,
            fl.itn,
            &fl.clock_name,
            &fl.reset_name,
            &warnings,
            &top_params,
        )
    }
}

/// Passes A and B over the flattened items (base followed by
/// per-binding extras), producing the final netlist. Takes the
/// flattener's arena by value; it is frozen into the returned netlist.
fn build_netlist(
    base: &[FlatItem],
    extra: &[FlatItem],
    itn: Interner,
    clock_name: &Option<String>,
    reset_name: &Option<String>,
    warnings: &[String],
    top_params: &[(String, u128)],
) -> Result<Netlist> {
    let items = || base.iter().chain(extra.iter());
    let mut b = Builder {
        itn,
        netlist: Netlist::default(),
        atom_of_range: SymbolMap::default(),
        decls: SymbolMap::default(),
        decl_order: Vec::new(),
        drivers: SymbolMap::default(),
        array_elem0: SymbolMap::default(),
    };
    b.netlist.clock_name = clock_name.clone();
    b.netlist.reset_name = reset_name.clone();
    b.netlist.warnings = warnings.to_vec();
    b.netlist.params = top_params.to_vec();

    // Reserve the maps up front: one entry per declaration (arrays
    // expand to their elements), so the hot inserts never rehash.
    let decl_estimate: usize = items()
        .map(|it| match it {
            FlatItem::Decl(info) => match info.elems {
                Some(arr) => arr.count as usize,
                None => 1,
            },
            _ => 0,
        })
        .sum();
    b.decls.reserve(decl_estimate);
    b.decl_order.reserve(decl_estimate);
    b.drivers.reserve(decl_estimate);
    // Pass A: declarations.
    for item in items() {
        if let FlatItem::Decl(info) = item {
            match info.elems {
                None => b.declare(info.flat, *info),
                Some(arr) => {
                    b.netlist.arrays.insert(info.flat, arr.count);
                    b.array_elem0.insert(info.flat, arr.elem0);
                    for i in 0..arr.count {
                        let mut e = *info;
                        e.flat = arr.elem0.offset(i);
                        e.elems = None;
                        b.declare(e.flat, e);
                    }
                }
            }
        }
    }
    // Pass A: drivers.
    for (tag, item) in items().enumerate() {
        match item {
            FlatItem::Decl(_) => {}
            FlatItem::Assign { target, .. } => {
                b.add_driver(target, DriverKind::Comb, tag)?;
            }
            FlatItem::Proc { clocked, body } => {
                let kind = if *clocked {
                    DriverKind::Reg
                } else {
                    DriverKind::Comb
                };
                let mut targets = Vec::new();
                collect_targets(body, &mut targets);
                // Sort by resolved name (not symbol index) so driver
                // registration order — and therefore which conflict is
                // reported first — matches the string-keyed behaviour.
                targets.sort_by(|x, y| {
                    b.itn
                        .resolve(x.net)
                        .cmp(b.itn.resolve(y.net))
                        .then(x.lo.cmp(&y.lo))
                });
                targets.dedup_by(|x, y| x.net == y.net && x.lo == y.lo && x.width == y.width);
                for t in &targets {
                    b.add_driver(t, kind, tag)?;
                }
            }
        }
    }
    b.finalize_bindings()?;

    // Detect the reset atom (by sensitivity-list convention or name).
    let reset_name = b.netlist.reset_name.clone().or_else(|| {
        ["reset_", "rst_n", "resetn", "reset_n"]
            .iter()
            .find(|n| {
                b.itn
                    .lookup(n)
                    .is_some_and(|s| b.netlist.nets.contains_key(&s))
            })
            .map(|n| n.to_string())
    });
    b.netlist.reset_name = reset_name.clone();
    let reset_atom: Option<AtomId> = reset_name.as_deref().and_then(|n| {
        let s = b.itn.lookup(n)?;
        b.netlist.nets.get(&s).and_then(|bind| {
            if bind.segs.len() == 1 && bind.segs[0].lo == 0 {
                Some(bind.segs[0].atom)
            } else {
                None
            }
        })
    });

    // Pass B: expressions.
    for item in items() {
        match item {
            FlatItem::Decl(_) => {}
            FlatItem::Assign { target, rhs } => {
                let atom = b.atom_of(target)?;
                let width = b.netlist.atom_width(atom);
                let nx = b.elab_expr(rhs, Some(width))?;
                let nx = resize(nx, width, &b.netlist);
                match &mut b.netlist.atoms[atom.index()].kind {
                    k @ AtomKind::Comb(_) => *k = AtomKind::Comb(nx),
                    _ => unreachable!("assign drives a comb atom"),
                }
            }
            FlatItem::Proc { clocked, body } => {
                let mut env: SymbolMap<AtomId, Nx> = SymbolMap::default();
                b.exec(body, &mut env)?;
                for (atom, nx) in env {
                    let width = b.netlist.atom_width(atom);
                    let nx = resize(nx, width, &b.netlist);
                    if *clocked {
                        let init = init_eval(&nx, reset_atom, &b.netlist).unwrap_or(0);
                        b.netlist.atoms[atom.index()].kind = AtomKind::Reg {
                            next: nx,
                            init: mask(init, width),
                        };
                    } else {
                        b.netlist.atoms[atom.index()].kind = AtomKind::Comb(nx);
                    }
                }
            }
        }
    }

    // Validate: no combinational cycles.
    b.netlist
        .comb_topo_order()
        .map_err(|n| ElabError::new(format!("combinational cycle through '{n}'")))?;
    // Freeze the arena into the netlist: every symbol in the net and
    // array maps resolves against it from here on.
    b.netlist.syms = Arc::new(b.itn);
    Ok(b.netlist)
}

fn collect_targets(s: &FlatStmt, out: &mut Vec<FlatTarget>) {
    match s {
        FlatStmt::Block(ss) => {
            for x in ss {
                collect_targets(x, out);
            }
        }
        FlatStmt::If { then, alt, .. } => {
            collect_targets(then, out);
            if let Some(a) = alt {
                collect_targets(a, out);
            }
        }
        FlatStmt::Assign { target, .. } => out.push(*target),
        FlatStmt::Empty => {}
    }
}

impl Builder {
    fn declare(&mut self, name: Symbol, info: DeclInfo) {
        if self.decls.contains_key(&name) {
            // Re-declaration: keep the first (ports declared in both the
            // header and body).
            return;
        }
        self.decl_order.push(name);
        self.decls.insert(name, info);
    }

    fn add_driver(&mut self, t: &FlatTarget, kind: DriverKind, tag: usize) -> Result<()> {
        if !self.decls.contains_key(&t.net) {
            return Err(ElabError::new(format!(
                "assignment to undeclared net '{}'",
                self.itn.resolve(t.net)
            )));
        }
        let entry = self.drivers.entry(t.net).or_default();
        for &(lo, w, k, existing_tag) in entry.iter() {
            let overlap = t.lo < lo + w && lo < t.lo + t.width;
            if overlap {
                // The same range driven again from the same item (one
                // process assigning on several paths) shares one atom;
                // anything else is a multiple-driver conflict.
                if lo == t.lo && w == t.width && k == kind && existing_tag == tag {
                    return Ok(());
                }
                return Err(ElabError::new(format!(
                    "conflicting drivers for '{}' bits [{}, {})",
                    self.itn.resolve(t.net),
                    t.lo,
                    t.lo + t.width
                )));
            }
        }
        entry.push((t.lo, t.width, kind, tag));
        Ok(())
    }

    fn finalize_bindings(&mut self) -> Result<()> {
        // Split borrows: atom names resolve straight out of the arena
        // (no per-net String) while the netlist and range map mutate.
        let decl_order = std::mem::take(&mut self.decl_order);
        let Builder {
            itn,
            netlist,
            atom_of_range,
            decls,
            drivers,
            ..
        } = self;
        #[allow(clippy::too_many_arguments)]
        fn add_atom(
            netlist: &mut Netlist,
            atom_of_range: &mut SymbolMap<(Symbol, u32, u32), AtomId>,
            name: Symbol,
            name_s: &str,
            full_width: u32,
            lo: u32,
            w: u32,
            kind: AtomKind,
        ) -> AtomId {
            let id = AtomId(netlist.atoms.len() as u32);
            let atom_name = if lo == 0 && w == full_width {
                name_s.to_string()
            } else {
                format!("{name_s}[{}:{}]", lo + w - 1, lo)
            };
            netlist.atoms.push(AtomDef {
                name: atom_name,
                width: w,
                kind,
            });
            atom_of_range.insert((name, lo, w), id);
            id
        }
        netlist.nets.reserve(decl_order.len());
        atom_of_range.reserve(decl_order.len());
        for name in decl_order {
            let info = decls[&name];
            let name_s = itn.resolve(name);
            let mut ranges = drivers.remove(&name).unwrap_or_default();
            ranges.sort_by_key(|d| d.0);
            let mut segs = Vec::new();
            let mut cursor = 0u32;
            for (lo, w, kind, _) in ranges {
                if lo > cursor {
                    // Undriven gap -> free input.
                    let gap_atom = add_atom(
                        netlist,
                        atom_of_range,
                        name,
                        name_s,
                        info.width,
                        cursor,
                        lo - cursor,
                        AtomKind::Input,
                    );
                    if !info.is_top_input {
                        netlist
                            .warnings
                            .push(format!("undriven bits of '{name_s}' become free inputs"));
                    }
                    segs.push(Seg {
                        atom: gap_atom,
                        lo: 0,
                        width: lo - cursor,
                    });
                }
                let placeholder = match kind {
                    DriverKind::Comb => AtomKind::Comb(Nx::constant(w, 0)),
                    DriverKind::Reg => AtomKind::Reg {
                        next: Nx::constant(w, 0),
                        init: 0,
                    },
                };
                let id = add_atom(
                    netlist,
                    atom_of_range,
                    name,
                    name_s,
                    info.width,
                    lo,
                    w,
                    placeholder,
                );
                segs.push(Seg {
                    atom: id,
                    lo: 0,
                    width: w,
                });
                cursor = lo + w;
            }
            if cursor < info.width {
                let gap_atom = add_atom(
                    netlist,
                    atom_of_range,
                    name,
                    name_s,
                    info.width,
                    cursor,
                    info.width - cursor,
                    AtomKind::Input,
                );
                if !info.is_top_input && cursor != 0 {
                    netlist
                        .warnings
                        .push(format!("undriven bits of '{name_s}' become free inputs"));
                }
                segs.push(Seg {
                    atom: gap_atom,
                    lo: 0,
                    width: info.width - cursor,
                });
            }
            netlist.nets.insert(
                name,
                NetBinding {
                    width: info.width,
                    elem_width: info.elem_width,
                    segs,
                },
            );
        }
        Ok(())
    }

    fn atom_of(&self, t: &FlatTarget) -> Result<AtomId> {
        self.atom_of_range
            .get(&(t.net, t.lo, t.width))
            .copied()
            .ok_or_else(|| {
                ElabError::new(format!(
                    "internal: no atom for '{}' [{}, {})",
                    self.itn.resolve(t.net),
                    t.lo,
                    t.lo + t.width
                ))
            })
    }

    fn exec(&mut self, s: &FlatStmt, env: &mut SymbolMap<AtomId, Nx>) -> Result<()> {
        match s {
            FlatStmt::Block(ss) => {
                for x in ss {
                    self.exec(x, env)?;
                }
            }
            FlatStmt::If { cond, then, alt } => {
                let sel = self.elab_bool(cond)?;
                let mut env_t = env.clone();
                self.exec(then, &mut env_t)?;
                // Without an else branch the fall-through environment is
                // `env` itself; no clone needed.
                let env_e: Option<SymbolMap<AtomId, Nx>> = match alt {
                    Some(a) => {
                        let mut e = env.clone();
                        self.exec(a, &mut e)?;
                        Some(e)
                    }
                    None => None,
                };
                let else_keys = env_e.as_ref().unwrap_or(env).keys();
                let mut keys: Vec<AtomId> = env_t.keys().chain(else_keys).copied().collect();
                keys.sort();
                keys.dedup();
                for k in keys {
                    let orig = || self.orig_value(k);
                    let vt = env_t.get(&k).cloned().unwrap_or_else(orig);
                    let ve = env_e
                        .as_ref()
                        .unwrap_or(env)
                        .get(&k)
                        .cloned()
                        .unwrap_or_else(orig);
                    if vt == ve {
                        env.insert(k, vt);
                    } else {
                        let w = self.netlist.atom_width(k);
                        env.insert(
                            k,
                            Nx::Mux {
                                sel: Box::new(sel.clone()),
                                t: Box::new(resize(vt, w, &self.netlist)),
                                e: Box::new(resize(ve, w, &self.netlist)),
                            },
                        );
                    }
                }
            }
            FlatStmt::Assign { target, rhs } => {
                let atom = self.atom_of(target)?;
                let w = self.netlist.atom_width(atom);
                let nx = self.elab_expr(rhs, Some(w))?;
                env.insert(atom, resize(nx, w, &self.netlist));
            }
            FlatStmt::Empty => {}
        }
        Ok(())
    }

    /// The value an atom holds if a process path does not assign it:
    /// registers keep their state; combinational defaults to zero
    /// (documented deviation for incomplete combinational assignment).
    fn orig_value(&self, a: AtomId) -> Nx {
        match self.netlist.atoms[a.index()].kind {
            AtomKind::Reg { .. } => Nx::Atom(a),
            _ => Nx::constant(self.netlist.atom_width(a), 0),
        }
    }

    fn elab_bool(&mut self, e: &Fx) -> Result<Nx> {
        let nx = self.elab_expr(e, None)?;
        Ok(to_bool(nx, &self.netlist))
    }

    fn width_of(&self, nx: &Nx) -> u32 {
        let nl = &self.netlist;
        nx.width(&|a| nl.atom_width(a))
    }

    fn elab_expr(&mut self, e: &Fx, ctx: Option<u32>) -> Result<Nx> {
        Ok(match e {
            Fx::Net(sym) => match self.netlist.nets.get(sym) {
                Some(binding) => binding.read(),
                None => {
                    return Err(ElabError::new(format!(
                        "unknown signal '{}'",
                        self.itn.resolve(*sym)
                    )))
                }
            },
            Fx::Lit { width, value } => {
                let w = width.unwrap_or_else(|| {
                    let needed = 128 - value.leading_zeros();
                    32u32.max(needed).min(MAX_WIDTH)
                });
                Nx::constant(w, *value)
            }
            Fx::Fill(b) => {
                let w = ctx.ok_or_else(|| {
                    ElabError::new("cannot determine width of '0/'1 fill literal here")
                })?;
                Nx::constant(w, if *b { u128::MAX } else { 0 })
            }
            Fx::Unary(op, inner) => {
                let i = self.elab_expr(inner, None)?;
                match op {
                    UnaryOp::LogNot => Nx::Not(Box::new(to_bool(i, &self.netlist))),
                    UnaryOp::BitNot => Nx::Not(Box::new(i)),
                    UnaryOp::Neg => Nx::Neg(Box::new(i)),
                    UnaryOp::Pos => i,
                    UnaryOp::RedAnd => Nx::Reduce {
                        op: NxRed::And,
                        inner: Box::new(i),
                    },
                    UnaryOp::RedOr => Nx::Reduce {
                        op: NxRed::Or,
                        inner: Box::new(i),
                    },
                    UnaryOp::RedXor => Nx::Reduce {
                        op: NxRed::Xor,
                        inner: Box::new(i),
                    },
                    UnaryOp::RedNand => Nx::Not(Box::new(Nx::Reduce {
                        op: NxRed::And,
                        inner: Box::new(i),
                    })),
                    UnaryOp::RedNor => Nx::Not(Box::new(Nx::Reduce {
                        op: NxRed::Or,
                        inner: Box::new(i),
                    })),
                    UnaryOp::RedXnor => Nx::Not(Box::new(Nx::Reduce {
                        op: NxRed::Xor,
                        inner: Box::new(i),
                    })),
                }
            }
            Fx::Binary(op, a, b) => self.elab_binary(*op, a, b, ctx)?,
            Fx::Ternary(c, t, f) => {
                let sel = self.elab_bool(c)?;
                let tv = self.elab_expr(t, ctx)?;
                let ev = self.elab_expr(f, ctx)?;
                let w = self
                    .width_of(&tv)
                    .max(self.width_of(&ev))
                    .max(ctx.unwrap_or(0));
                Nx::Mux {
                    sel: Box::new(sel),
                    t: Box::new(resize(tv, w, &self.netlist)),
                    e: Box::new(resize(ev, w, &self.netlist)),
                }
            }
            Fx::Concat(parts) => {
                // Source order is MSB-first; Nx concat is LSB-first.
                let mut vec = Vec::with_capacity(parts.len());
                for p in parts.iter().rev() {
                    vec.push(self.elab_expr(p, None)?);
                }
                Nx::Concat(vec)
            }
            Fx::Replicate(n, inner) => {
                let count = fx_const_eval(n, &self.itn)?;
                let count = u32::try_from(count)
                    .map_err(|_| ElabError::new("replication count too large"))?;
                if count == 0 {
                    return Err(ElabError::new("zero replication"));
                }
                let v = self.elab_expr(inner, None)?;
                if self.width_of(&v) * count > MAX_WIDTH {
                    return Err(ElabError::new("replication exceeds width limit"));
                }
                Nx::Concat(vec![v; count as usize])
            }
            Fx::Index(base, idx) => self.elab_index(base, idx)?,
            Fx::Slice(base, hi, lo) => {
                let sym = match base.as_ref() {
                    Fx::Net(n) => *n,
                    _ => return Err(ElabError::new("part-select base must be a signal")),
                };
                let binding = self
                    .netlist
                    .nets
                    .get(&sym)
                    .ok_or_else(|| {
                        ElabError::new(format!("unknown signal '{}'", self.itn.resolve(sym)))
                    })?
                    .clone();
                let hi = fx_const_eval(hi, &self.itn)?;
                let lo = fx_const_eval(lo, &self.itn)?;
                let (hi, lo) = (
                    u32::try_from(hi).map_err(|_| ElabError::new("slice bound too large"))?,
                    u32::try_from(lo).map_err(|_| ElabError::new("slice bound too large"))?,
                );
                if lo > hi || hi >= binding.width {
                    return Err(ElabError::new(format!(
                        "slice out of range on '{}'",
                        self.itn.resolve(sym)
                    )));
                }
                binding.read_range(lo, hi - lo + 1)
            }
            Fx::SysCall(f, args) => self.elab_syscall(*f, args)?,
        })
    }

    fn elab_binary(&mut self, op: BinaryOp, a: &Fx, b: &Fx, ctx: Option<u32>) -> Result<Nx> {
        use BinaryOp as B;
        // Logical connectives work on booleans.
        if matches!(op, B::LogAnd | B::LogOr) {
            let x = self.elab_bool(a)?;
            let y = self.elab_bool(b)?;
            return Ok(Nx::Bin {
                op: if op == B::LogAnd {
                    NxBin::And
                } else {
                    NxBin::Or
                },
                a: Box::new(x),
                b: Box::new(y),
            });
        }
        // Shifts: rhs is self-determined.
        if matches!(op, B::Shl | B::Shr | B::AShl | B::AShr) {
            let x = self.elab_expr(a, ctx)?;
            let y = self.elab_expr(b, None)?;
            let w = self.width_of(&x).max(ctx.unwrap_or(0));
            let x = resize(x, w, &self.netlist);
            // `>>>`/`<<<` on unsigned operands behave as logical shifts
            // (all nets are unsigned in this subset).
            let nxop = match op {
                B::Shl | B::AShl => NxBin::Shl,
                _ => NxBin::LShr,
            };
            return Ok(Nx::Bin {
                op: nxop,
                a: Box::new(x),
                b: Box::new(y),
            });
        }
        // Fill literals take the width of the opposite operand.
        let (x, y) = if matches!(a, Fx::Fill(_)) {
            let y = self.elab_expr(b, None)?;
            let w = self.width_of(&y);
            (self.elab_expr(a, Some(w))?, y)
        } else if matches!(b, Fx::Fill(_)) {
            let x = self.elab_expr(a, None)?;
            let w = self.width_of(&x);
            let y = self.elab_expr(b, Some(w))?;
            (x, y)
        } else {
            (self.elab_expr(a, None)?, self.elab_expr(b, None)?)
        };
        let mut w = self.width_of(&x).max(self.width_of(&y));
        let is_pred = matches!(
            op,
            B::Eq | B::Neq | B::CaseEq | B::CaseNeq | B::Lt | B::Le | B::Gt | B::Ge
        );
        if !is_pred {
            w = w.max(ctx.unwrap_or(0));
        }
        let x = resize(x, w, &self.netlist);
        let y = resize(y, w, &self.netlist);
        let bin = |op, a: Nx, b: Nx| Nx::Bin {
            op,
            a: Box::new(a),
            b: Box::new(b),
        };
        Ok(match op {
            B::Add => bin(NxBin::Add, x, y),
            B::Sub => bin(NxBin::Sub, x, y),
            B::Mul => bin(NxBin::Mul, x, y),
            B::Div => bin(NxBin::Div, x, y),
            B::Mod => bin(NxBin::Mod, x, y),
            B::BitAnd => bin(NxBin::And, x, y),
            B::BitOr => bin(NxBin::Or, x, y),
            B::BitXor => bin(NxBin::Xor, x, y),
            B::BitXnor => Nx::Not(Box::new(bin(NxBin::Xor, x, y))),
            B::Eq | B::CaseEq => bin(NxBin::Eq, x, y),
            B::Neq | B::CaseNeq => Nx::Not(Box::new(bin(NxBin::Eq, x, y))),
            B::Lt => bin(NxBin::Ult, x, y),
            B::Le => bin(NxBin::Ule, x, y),
            B::Gt => bin(NxBin::Ult, y, x),
            B::Ge => bin(NxBin::Ule, y, x),
            B::LogAnd | B::LogOr | B::Shl | B::Shr | B::AShl | B::AShr => unreachable!(),
        })
    }

    fn elab_index(&mut self, base: &Fx, idx: &Fx) -> Result<Nx> {
        let sym = match base {
            Fx::Net(n) => *n,
            _ => return Err(ElabError::new("bit-select base must be a signal")),
        };
        // Unpacked array element?
        if let Some(&count) = self.netlist.arrays.get(&sym) {
            let elem0 = self.array_elem0.get(&sym).copied();
            let elem_binding = |b: &Builder, i: u32| {
                elem0
                    .and_then(|e0| b.netlist.nets.get(&e0.offset(i)))
                    .ok_or_else(|| {
                        ElabError::new(format!(
                            "unknown array element '{}[{i}]'",
                            b.itn.resolve(sym)
                        ))
                    })
                    .map(|binding| binding.read())
            };
            if let Ok(i) = fx_const_eval(idx, &self.itn) {
                if i >= u128::from(count) {
                    return Err(ElabError::new(format!(
                        "array index out of range on '{}'",
                        self.itn.resolve(sym)
                    )));
                }
                return elem_binding(self, i as u32);
            }
            // Dynamic array read: mux chain over elements.
            let sel = self.elab_expr(idx, None)?;
            let mut acc: Option<Nx> = None;
            for i in 0..count {
                let elem = elem_binding(self, i)?;
                acc = Some(match acc {
                    None => elem,
                    Some(prev) => {
                        let sw = self.width_of(&sel);
                        Nx::Mux {
                            sel: Box::new(Nx::Bin {
                                op: NxBin::Eq,
                                a: Box::new(sel.clone()),
                                b: Box::new(Nx::constant(sw, u128::from(i))),
                            }),
                            t: Box::new(elem),
                            e: Box::new(prev),
                        }
                    }
                });
            }
            return acc
                .ok_or_else(|| ElabError::new(format!("empty array '{}'", self.itn.resolve(sym))));
        }
        let binding = self
            .netlist
            .nets
            .get(&sym)
            .ok_or_else(|| ElabError::new(format!("unknown signal '{}'", self.itn.resolve(sym))))?
            .clone();
        let ew = binding.elem_width;
        match fx_const_eval(idx, &self.itn) {
            Ok(i) => {
                let i = u32::try_from(i).map_err(|_| ElabError::new("index too large"))?;
                let lo = i * ew;
                if lo + ew > binding.width {
                    return Err(ElabError::new(format!(
                        "index out of range on '{}'",
                        self.itn.resolve(sym)
                    )));
                }
                Ok(binding.read_range(lo, ew))
            }
            Err(_) => {
                let index = self.elab_expr(idx, None)?;
                Ok(Nx::DynSlice {
                    inner: Box::new(binding.read()),
                    index: Box::new(index),
                    elem_width: ew,
                })
            }
        }
    }

    fn elab_syscall(&mut self, f: SysFunc, args: &[Fx]) -> Result<Nx> {
        let one_arg = || -> Result<&Fx> {
            if args.len() == 1 {
                Ok(&args[0])
            } else {
                Err(ElabError::new(format!(
                    "${} takes exactly one argument",
                    f.name()
                )))
            }
        };
        Ok(match f {
            SysFunc::Countones => {
                let v = self.elab_expr(one_arg()?, None)?;
                Nx::Countones {
                    inner: Box::new(v),
                    width: 8,
                }
            }
            SysFunc::Onehot => Nx::Onehot(Box::new(self.elab_expr(one_arg()?, None)?)),
            SysFunc::Onehot0 => Nx::Onehot0(Box::new(self.elab_expr(one_arg()?, None)?)),
            SysFunc::Bits => {
                let v = self.elab_expr(one_arg()?, None)?;
                Nx::constant(32, u128::from(self.width_of(&v)))
            }
            SysFunc::Clog2 => {
                let v = fx_const_eval(one_arg()?, &self.itn)?;
                Nx::constant(32, u128::from(clog2(v)))
            }
            SysFunc::Past | SysFunc::Rose | SysFunc::Fell | SysFunc::Stable | SysFunc::Changed => {
                return Err(ElabError::new(format!(
                    "${} is only valid inside assertions, not RTL",
                    f.name()
                )))
            }
        })
    }
}
/// Zero-extends or truncates to `width`.
pub(crate) fn resize(nx: Nx, width: u32, nl: &Netlist) -> Nx {
    if nx.width(&|a| nl.atom_width(a)) == width {
        nx
    } else {
        Nx::Resize {
            inner: Box::new(nx),
            width,
        }
    }
}

/// Verilog truthiness: any bit set.
pub(crate) fn to_bool(nx: Nx, nl: &Netlist) -> Nx {
    if nx.width(&|a| nl.atom_width(a)) == 1 {
        nx
    } else {
        Nx::Reduce {
            op: NxRed::Or,
            inner: Box::new(nx),
        }
    }
}

/// Partial constant evaluation of a next-state expression with the reset
/// atom pinned to 0 (asserted active-low reset). Returns the register's
/// reset value when it is a constant.
///
/// Atom references are chased through combinational aliases so a reset
/// expression that reaches the reset input via an inlined instance port
/// (`dut.reset_` bound to the top-level `reset_`) still pins correctly;
/// without this, registers of instantiated modules silently lose
/// nonzero reset values. Recursion is depth-bounded because this runs
/// before the combinational-cycle check.
fn init_eval(nx: &Nx, reset: Option<AtomId>, nl: &Netlist) -> Option<u128> {
    const MAX_DEPTH: u32 = 256;
    fn eval(nx: &Nx, reset: Option<AtomId>, nl: &Netlist, depth: u32) -> Option<u128> {
        if depth >= MAX_DEPTH {
            return None;
        }
        let eval = |nx: &Nx| eval(nx, reset, nl, depth + 1);
        match nx {
            Nx::Const { value, .. } => Some(*value),
            Nx::Atom(a) => {
                if Some(*a) == reset {
                    Some(0)
                } else if let AtomKind::Comb(inner) = &nl.atom(*a).kind {
                    eval(inner)
                } else {
                    None
                }
            }
            Nx::Slice { inner, lo, width } => {
                let v = eval(inner)?;
                Some(mask(v >> lo, *width))
            }
            Nx::Not(i) => {
                let w = i.width(&|a| nl.atom_width(a));
                Some(mask(!eval(i)?, w))
            }
            Nx::Neg(i) => {
                let w = i.width(&|a| nl.atom_width(a));
                Some(mask(eval(i)?.wrapping_neg(), w))
            }
            Nx::Reduce { op, inner } => {
                let v = eval(inner)?;
                let w = inner.width(&|a| nl.atom_width(a));
                Some(match op {
                    NxRed::Or => u128::from(v != 0),
                    NxRed::And => u128::from(v == mask(u128::MAX, w)),
                    NxRed::Xor => u128::from(v.count_ones() % 2 == 1),
                })
            }
            Nx::Mux { sel, t, e } => match eval(sel) {
                Some(s) => {
                    if s != 0 {
                        eval(t)
                    } else {
                        eval(e)
                    }
                }
                None => {
                    // Both branches agreeing is still constant.
                    let vt = eval(t)?;
                    let ve = eval(e)?;
                    if vt == ve {
                        Some(vt)
                    } else {
                        None
                    }
                }
            },
            Nx::Resize { inner, width } => Some(mask(eval(inner)?, *width)),
            Nx::Concat(parts) => {
                let mut acc: u128 = 0;
                let mut off = 0u32;
                for p in parts {
                    let v = eval(p)?;
                    acc |= v << off;
                    off += p.width(&|a| nl.atom_width(a));
                }
                Some(acc)
            }
            Nx::Bin { op, a, b } => {
                let w = a.width(&|x| nl.atom_width(x));
                let x = eval(a)?;
                let y = eval(b)?;
                Some(match op {
                    NxBin::Add => mask(x.wrapping_add(y), w),
                    NxBin::Sub => mask(x.wrapping_sub(y), w),
                    NxBin::And => x & y,
                    NxBin::Or => x | y,
                    NxBin::Xor => x ^ y,
                    NxBin::Eq => u128::from(x == y),
                    NxBin::Ult => u128::from(x < y),
                    NxBin::Ule => u128::from(x <= y),
                    _ => return None,
                })
            }
            _ => None,
        }
    }
    eval(nx, reset, nl, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_parser::parse_source;

    fn elab(src: &str, top: &str) -> Netlist {
        let f = parse_source(src).unwrap();
        elaborate(&f, top).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn simple_comb_module() {
        let nl = elab(
            "module m (a, b, y);\ninput a; input b; output y;\nassign y = a & b;\nendmodule\n",
            "m",
        );
        assert_eq!(nl.inputs().count(), 2);
        let y = nl.net("y").unwrap();
        assert_eq!(y.width, 1);
        match &nl.atom(y.segs[0].atom).kind {
            AtomKind::Comb(_) => {}
            other => panic!("expected comb, got {other:?}"),
        }
    }

    #[test]
    fn register_with_async_reset_extracts_init() {
        let nl = elab(
            "module m (clk, reset_, q);\ninput clk; input reset_; output reg [3:0] q;\n\
             always_ff @(posedge clk or negedge reset_) begin\n\
             if (!reset_) q <= 4'd5; else q <= q + 4'd1;\nend\nendmodule\n",
            "m",
        );
        let q = nl.net("q").unwrap();
        match &nl.atom(q.segs[0].atom).kind {
            AtomKind::Reg { init, .. } => assert_eq!(*init, 5),
            other => panic!("expected reg, got {other:?}"),
        }
        assert_eq!(nl.reset_name.as_deref(), Some("reset_"));
        assert_eq!(nl.clock_name.as_deref(), Some("clk"));
    }

    #[test]
    fn sync_reset_by_name_convention() {
        let nl = elab(
            "module m (clk, reset_, q);\ninput clk; input reset_; output reg q;\n\
             always @(posedge clk) begin\nif (!reset_) q <= 1'b1; else q <= !q;\nend\nendmodule\n",
            "m",
        );
        let q = nl.net("q").unwrap();
        match &nl.atom(q.segs[0].atom).kind {
            AtomKind::Reg { init, .. } => assert_eq!(*init, 1),
            other => panic!("expected reg, got {other:?}"),
        }
    }

    #[test]
    fn case_desugars_and_merges() {
        let nl = elab(
            "module m (clk, s, n);\ninput clk; input [1:0] s; output [1:0] n;\n\
             reg [1:0] nr;\nassign n = nr;\n\
             always_comb begin\ncase (s)\n2'b00: nr = 2'b10;\n2'b01: nr = 2'b11;\n\
             default: nr = 2'b00;\nendcase\nend\nendmodule\n",
            "m",
        );
        let nr = nl.net("nr").unwrap();
        assert!(matches!(nl.atom(nr.segs[0].atom).kind, AtomKind::Comb(_)));
    }

    #[test]
    fn generate_for_unrolls() {
        let nl = elab(
            "module m (clk, d, q);\ninput clk; input d; output q;\n\
             parameter DEPTH = 3;\nreg [DEPTH:0] pipe;\n\
             always @(posedge clk) pipe[0] <= d;\n\
             for (genvar i = 1; i <= DEPTH; i++) begin : g\n\
             always @(posedge clk) pipe[i] <= pipe[i-1];\nend\n\
             assign q = pipe[DEPTH];\nendmodule\n",
            "m",
        );
        // pipe has 4 register atoms (one per bit range).
        let pipe = nl.net("pipe").unwrap();
        assert_eq!(pipe.segs.len(), 4);
        assert_eq!(nl.regs().count(), 4);
    }

    #[test]
    fn hierarchy_flattens_with_prefixes() {
        // Two instances of a child holding an unpacked array: each keeps
        // its own prefixed elements.
        let src = "module child (i, o);\ninput [3:0] i; output [3:0] o;\n\
                   logic [3:0] mem [1:0];\n\
                   assign mem[0] = i;\nassign mem[1] = mem[0] + 4'd1;\n\
                   assign o = mem[1];\nendmodule\n\
                   module top (a, b, y, z);\ninput [3:0] a; input [3:0] b;\n\
                   output [3:0] y; output [3:0] z;\n\
                   child u0 (.i(a), .o(y));\nchild u1 (.i(b), .o(z));\nendmodule\n";
        let nl = elab(src, "top");
        assert!(nl.net("u0.i").is_some());
        assert!(nl.net("u0.o").is_some());
        assert!(nl.net("y").is_some());
        assert!(nl.net("u0.mem[1]").is_some());
        assert!(nl.net("u1.mem[1]").is_some());
        assert_eq!(nl.array("u0.mem"), Some(2));
    }

    #[test]
    fn parameter_overrides_apply() {
        let src = "module child (o);\nparameter W = 2;\noutput [W-1:0] o;\n\
                   assign o = 'd0;\nendmodule\n\
                   module top (y);\noutput [7:0] y;\nchild #(.W(8)) u0 (.o(y));\nendmodule\n";
        let nl = elab(src, "top");
        assert_eq!(nl.net("u0.o").unwrap().width, 8);
    }

    #[test]
    fn unpacked_array_elements() {
        let nl = elab(
            "module m (clk, we, d, q);\ninput clk; input we; input [7:0] d; output [7:0] q;\n\
             reg [7:0] mem [3:0];\n\
             always @(posedge clk) begin\nif (we) mem[0] <= d;\nmem[1] <= mem[0];\nend\n\
             assign q = mem[1];\nendmodule\n",
            "m",
        );
        assert!(nl.net("mem[0]").is_some());
        assert!(nl.net("mem[3]").is_some());
        assert_eq!(nl.array("mem"), Some(4));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let f = parse_source(
            "module m (a, y);\ninput a; output y;\nassign y = a;\nassign y = !a;\nendmodule\n",
        )
        .unwrap();
        let err = elaborate(&f, "m").unwrap_err();
        assert!(err.message.contains("conflicting drivers"), "{err}");
    }

    #[test]
    fn unknown_signal_rejected() {
        let f = parse_source("module m (y);\noutput y;\nassign y = ghost;\nendmodule\n").unwrap();
        assert!(elaborate(&f, "m").is_err());
        // An instance of a module the file does not declare.
        let f = parse_source("module m (y);\noutput y;\nnope u0 (.p(y));\nendmodule\n").unwrap();
        let err = elaborate_design(&f, "m", &[]).unwrap_err();
        assert!(err.message.contains("unknown module 'nope'"), "{err}");
    }

    #[test]
    fn comb_cycle_rejected() {
        let f = parse_source(
            "module m (y);\noutput y;\nwire a; wire b;\nassign a = b;\nassign b = a;\n\
             assign y = a;\nendmodule\n",
        )
        .unwrap();
        let err = elaborate(&f, "m").unwrap_err();
        assert!(err.message.contains("cycle"), "{err}");
    }

    #[test]
    fn mixed_comb_and_reg_bits_in_one_vector() {
        // The pipeline pattern: ready[0] is combinational, the rest are regs.
        let nl = elab(
            "module m (clk, reset_, in_vld, out_vld);\n\
             input clk; input reset_; input in_vld; output out_vld;\n\
             parameter DEPTH = 2;\nlogic [DEPTH:0] ready;\n\
             assign ready[0] = in_vld;\n\
             for (genvar i = 0; i < DEPTH; i = i + 1) begin : gen\n\
             always @(posedge clk) begin\n\
             if (!reset_) ready[i+1] <= 'd0; else ready[i+1] <= ready[i];\nend\nend\n\
             assign out_vld = ready[DEPTH];\nendmodule\n",
            "m",
        );
        let ready = nl.net("ready").unwrap();
        assert_eq!(ready.segs.len(), 3);
        assert!(matches!(
            nl.atom(ready.segs[0].atom).kind,
            AtomKind::Comb(_)
        ));
        assert!(matches!(
            nl.atom(ready.segs[1].atom).kind,
            AtomKind::Reg { .. }
        ));
    }

    #[test]
    fn extras_reject_design_internal_signals() {
        let src = "module tb (clk, out);\ninput clk; input out;\nendmodule\n";
        let f = parse_source(src).unwrap();
        let extras = sv_parser::parse_snippet("assign foo = hidden_state;\n").unwrap();
        // `foo` undeclared -> error either way.
        assert!(elaborate_design(&f, "tb", &extras).is_err());
    }

    /// Canonical rendering of a netlist for equality checks (the
    /// `nets`/`arrays` maps have no stable iteration order).
    fn fingerprint(nl: &Netlist) -> String {
        let mut nets: Vec<String> = nl.net_names().map(|(n, b)| format!("{n}:{b:?}")).collect();
        nets.sort();
        let mut arrays: Vec<String> = nl.array_names().map(|(n, c)| format!("{n}:{c}")).collect();
        arrays.sort();
        format!(
            "{:?}|{nets:?}|{arrays:?}|{:?}|{:?}|{:?}|{:?}",
            nl.atoms, nl.reset_name, nl.clock_name, nl.warnings, nl.params
        )
    }

    #[test]
    fn split_elaboration_matches_combined() {
        // A testbench instantiating a sequential DUT, with response
        // helper items spliced in: the split path (elaborate the design
        // once, bind the helpers later) must produce the exact netlist
        // the one-pass path builds.
        let src = "module inner (clk, reset_, a, y);\n\
                   input clk; input reset_; input a; output y;\n\
                   reg r;\n\
                   always @(posedge clk) begin\n\
                   if (!reset_) r <= 1'b0; else r <= a;\nend\n\
                   assign y = r;\nendmodule\n\
                   module tb (clk, reset_, a, q);\n\
                   parameter GOLD = 3;\n\
                   input clk; input reset_; input a; input q;\nendmodule\n";
        let f = parse_source(src).unwrap();
        let dut = sv_ast::ModuleItem::Instance(sv_ast::Instance {
            module: "inner".into(),
            name: "dut".into(),
            params: vec![],
            conns: [("clk", "clk"), ("reset_", "reset_"), ("a", "a"), ("y", "q")]
                .into_iter()
                .map(|(p, n)| (p.to_string(), sv_ast::Expr::ident(n)))
                .collect(),
        });
        let helpers = sv_parser::parse_snippet(
            "logic mirror;\nassign mirror = q;\n\
             logic seen;\nalways @(posedge clk) begin seen <= mirror; end\n",
        )
        .unwrap();
        let mut combined = vec![dut.clone()];
        combined.extend(helpers.iter().cloned());
        let one_pass = elaborate_design(&f, "tb", &combined).unwrap();
        let design = elaborate_design(&f, "tb", std::slice::from_ref(&dut)).unwrap();
        let split = design.bind_extras(&helpers).unwrap();
        assert_eq!(fingerprint(one_pass.netlist()), fingerprint(&split));
        // The helper-free binding equals the eager base netlist.
        assert_eq!(
            fingerprint(&design.bind_extras(&[]).unwrap()),
            fingerprint(design.netlist())
        );
        // Parameters harvested once at design elaboration.
        assert_eq!(design.params(), &[("GOLD".to_string(), 3u128)]);
        // Bad helpers fail the binding without poisoning the design.
        let bad = sv_parser::parse_snippet("assign ghost_target = 1'b1;").unwrap();
        assert!(design.bind_extras(&bad).is_err());
        assert!(design.bind_extras(&helpers).is_ok());
    }

    #[test]
    fn clog2_in_localparam() {
        let nl = elab(
            "module m (q);\nparameter FIFO_DEPTH = 4;\n\
             localparam L = $clog2(FIFO_DEPTH);\noutput [L-1:0] q;\n\
             assign q = 'd0;\nendmodule\n",
            "m",
        );
        assert_eq!(nl.net("q").unwrap().width, 2);
    }
}
