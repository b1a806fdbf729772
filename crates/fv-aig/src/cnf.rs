//! Tseitin encoding of AIG cones into a [`fv_sat::Solver`].

use crate::aig::{Aig, AigLit, Node, NodeId};
use fv_sat::{Lit, Solver, Var};

/// Emits AIG cones into CNF with memoization.
///
/// Each emitter owns one node-to-variable map, so every node is encoded
/// once: the cones of many queries against one growing graph share
/// their clauses in the solver. The map is a dense vector indexed by
/// node, grown with the graph.
///
/// # Examples
///
/// ```
/// use fv_aig::{Aig, CnfEmitter};
/// use fv_sat::Solver;
///
/// let mut g = Aig::new();
/// let a = g.input();
/// let b = g.input();
/// let y = g.and(a, b);
/// let mut solver = Solver::new();
/// let mut em = CnfEmitter::new();
/// let ylit = em.emit(&g, y, &mut solver);
/// solver.add_clause([ylit]);
/// assert!(solver.solve().is_sat());
/// ```
#[derive(Debug, Default)]
pub struct CnfEmitter {
    /// Per node index: its solver variable's index + 1, or 0 while the
    /// node is not emitted.
    vars: Vec<u32>,
    /// The DFS stack of [`CnfEmitter::emit`], kept to reuse its
    /// allocation.
    stack: Vec<(NodeId, bool)>,
}

impl CnfEmitter {
    /// Creates an emitter with an empty node map.
    pub fn new() -> CnfEmitter {
        CnfEmitter::default()
    }

    /// Returns the solver literal for an AIG literal, emitting the cone of
    /// logic beneath it (once per emitter).
    pub fn emit(&mut self, g: &Aig, lit: AigLit, solver: &mut Solver) -> Lit {
        if lit == AigLit::FALSE || lit == AigLit::TRUE {
            // Materialize a constant variable pinned by a unit clause.
            let v = solver.new_var();
            solver.add_clause([Lit::pos(v)]);
            return if lit == AigLit::TRUE {
                Lit::pos(v)
            } else {
                Lit::neg(v)
            };
        }
        let var = self.emit_node(g, lit.node(), solver);
        Lit::new(var, lit.is_inverted())
    }

    /// Returns the solver variable already assigned to a node, if any.
    pub fn lookup(&self, id: NodeId) -> Option<Var> {
        match self.vars.get(id.index()) {
            Some(&v) if v > 0 => Some(Var(v - 1)),
            _ => None,
        }
    }

    /// The variable of a node emitted earlier.
    fn var(&self, id: NodeId) -> Var {
        self.lookup(id).expect("node emitted before its users")
    }

    fn emit_node(&mut self, g: &Aig, id: NodeId, solver: &mut Solver) -> Var {
        if let Some(v) = self.lookup(id) {
            return v;
        }
        if self.vars.len() < g.num_nodes() {
            self.vars.resize(g.num_nodes(), 0);
        }
        // Iterative DFS to avoid recursion depth limits on deep cones.
        let mut stack = std::mem::take(&mut self.stack);
        stack.push((id, false));
        while let Some((n, expanded)) = stack.pop() {
            if self.vars[n.index()] > 0 {
                continue;
            }
            let v = match g.node(n) {
                Node::False => {
                    let v = solver.new_var();
                    solver.add_clause([Lit::neg(v)]);
                    v
                }
                Node::Input(_) => solver.new_var(),
                Node::And(a, b) => {
                    if !expanded {
                        stack.push((n, true));
                        stack.push((a.node(), false));
                        stack.push((b.node(), false));
                        continue;
                    }
                    let la = Lit::new(self.var(a.node()), a.is_inverted());
                    let lb = Lit::new(self.var(b.node()), b.is_inverted());
                    let v = solver.new_var();
                    let lv = Lit::pos(v);
                    // v <-> la & lb
                    solver.add_clause([!lv, la]);
                    solver.add_clause([!lv, lb]);
                    solver.add_clause([lv, !la, !lb]);
                    v
                }
            };
            self.vars[n.index()] = v.0 + 1;
        }
        self.stack = stack;
        self.var(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitted_and_behaves() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let y = g.and(a, b);

        let mut s = Solver::new();
        let mut em = CnfEmitter::new();
        let ly = em.emit(&g, y, &mut s);
        let la = em.emit(&g, a, &mut s);
        let lb = em.emit(&g, b, &mut s);

        // y & !a is UNSAT.
        assert!(s.solve_with(&[ly, !la]).is_unsat());
        // y & a & b is SAT.
        assert!(s.solve_with(&[ly, la, lb]).is_sat());
        // !y with a=b=1 is UNSAT.
        assert!(s.solve_with(&[!ly, la, lb]).is_unsat());
    }

    #[test]
    fn xor_equivalence_via_sat() {
        // Prove (a^b)^b == a by UNSAT of difference.
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let t = g.xor(a, b);
        let back = g.xor(t, b);
        let diff = g.xor(back, a);

        let mut s = Solver::new();
        let mut em = CnfEmitter::new();
        let ld = em.emit(&g, diff, &mut s);
        assert!(s.solve_with(&[ld]).is_unsat());
    }

    #[test]
    fn constants_emit_as_pinned_vars() {
        let g = Aig::new();
        let mut s = Solver::new();
        let mut em = CnfEmitter::new();
        let lt = em.emit(&g, AigLit::TRUE, &mut s);
        let lf = em.emit(&g, AigLit::FALSE, &mut s);
        assert!(s.solve_with(&[lt]).is_sat());
        assert!(s.solve_with(&[lf]).is_unsat());
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut g = Aig::new();
        let mut cur = g.input();
        for _ in 0..50_000 {
            let i = g.input();
            cur = g.and(cur, i);
        }
        let mut s = Solver::new();
        let mut em = CnfEmitter::new();
        let l = em.emit(&g, cur, &mut s);
        assert!(s.solve_with(&[l]).is_sat());
    }
}
