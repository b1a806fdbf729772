//! The and-inverter graph core.

use sv_ast::SymbolMap;

/// Index of a node in an [`Aig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Dense index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A (possibly inverted) reference to an AIG node.
///
/// Encoded as `node << 1 | inverted`, following the AIGER convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AigLit(u32);

impl AigLit {
    /// Constant false.
    pub const FALSE: AigLit = AigLit(0);
    /// Constant true.
    pub const TRUE: AigLit = AigLit(1);

    #[inline]
    pub(crate) fn new(node: NodeId, inverted: bool) -> AigLit {
        AigLit((node.0 << 1) | inverted as u32)
    }

    /// The node this literal points at.
    #[inline]
    pub fn node(self) -> NodeId {
        NodeId(self.0 >> 1)
    }

    /// `true` if the edge is inverted.
    #[inline]
    pub fn is_inverted(self) -> bool {
        self.0 & 1 == 1
    }

    /// This literal carried through `image`, the per-node result of
    /// [`Aig::instantiate`].
    #[inline]
    pub fn image(self, image: &[AigLit]) -> AigLit {
        let lit = image[self.node().index()];
        if self.is_inverted() {
            !lit
        } else {
            lit
        }
    }

    /// The AIGER encoding of this literal, `node << 1 | inverted`: a
    /// 4-byte key for tables indexed by literal.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The literal whose [`AigLit::raw`] encoding is `raw`. It names a
    /// node only if the graph it is used with has one at
    /// `raw >> 1`.
    #[inline]
    pub fn from_raw(raw: u32) -> AigLit {
        AigLit(raw)
    }

    /// Builds a constant literal from a boolean.
    #[inline]
    pub fn constant(b: bool) -> AigLit {
        if b {
            AigLit::TRUE
        } else {
            AigLit::FALSE
        }
    }
}

impl std::ops::Not for AigLit {
    type Output = AigLit;
    #[inline]
    fn not(self) -> AigLit {
        AigLit(self.0 ^ 1)
    }
}

/// What a node of an [`Aig`] is ([`Aig::nodes`]). Both operands of an
/// and gate point at nodes with smaller ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// Constant false (node 0 only).
    False,
    /// Primary input, by dense input index.
    Input(u32),
    /// And gate over two literals.
    And(AigLit, AigLit),
}

/// A combinational and-inverter graph with structural hashing.
///
/// Node 0 is the constant-false node. Logic is built with [`Aig::and`]
/// and friends (two-level constant folding plus structural hashing keep
/// the graph reduced). There is no state: a sequential design is
/// unrolled into one graph, one copy of its transition function per
/// time frame ([`Aig::instantiate`]).
#[derive(Debug, Clone)]
pub struct Aig {
    pub(crate) nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    strash: SymbolMap<(AigLit, AigLit), NodeId>,
}

impl Default for Aig {
    /// [`Aig::new`]: a graph that starts with the constant-false node.
    fn default() -> Aig {
        Aig::new()
    }
}

impl Aig {
    /// Creates an AIG containing only the constant node.
    pub fn new() -> Aig {
        Aig {
            nodes: vec![Node::False],
            inputs: Vec::new(),
            strash: SymbolMap::default(),
        }
    }

    /// Number of nodes, including the constant.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of and gates.
    pub fn num_ands(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::And(..)))
            .count()
    }

    /// Every node, indexed by node id: node 0 is [`Node::False`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The primary-input nodes, in creation order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Dense input index of a node, if it is a primary input.
    pub fn input_index(&self, id: NodeId) -> Option<u32> {
        match self.node(id) {
            Node::Input(k) => Some(k),
            _ => None,
        }
    }

    /// Creates a fresh primary input and returns its literal.
    pub fn input(&mut self) -> AigLit {
        let idx = self.inputs.len() as u32;
        let id = self.push(Node::Input(idx));
        self.inputs.push(id);
        AigLit::new(id, false)
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// And of two literals, with constant folding and structural hashing.
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // Constant folding and trivial cases.
        if a == AigLit::FALSE || b == AigLit::FALSE || a == !b {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE {
            return b;
        }
        if b == AigLit::TRUE || a == b {
            return a;
        }
        // Canonical operand order for hashing.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&id) = self.strash.get(&(a, b)) {
            return AigLit::new(id, false);
        }
        let id = self.push(Node::And(a, b));
        self.strash.insert((a, b), id);
        AigLit::new(id, false)
    }

    /// Or of two literals.
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        !self.and(!a, !b)
    }

    /// Exclusive or of two literals.
    pub fn xor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        let n1 = self.and(a, !b);
        let n2 = self.and(!a, b);
        self.or(n1, n2)
    }

    /// Logical equivalence (XNOR).
    pub fn xnor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        !self.xor(a, b)
    }

    /// Implication `a -> b`.
    pub fn implies(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.or(!a, b)
    }

    /// Multiplexer: `if sel { t } else { e }`.
    pub fn mux(&mut self, sel: AigLit, t: AigLit, e: AigLit) -> AigLit {
        let on_t = self.and(sel, t);
        let on_e = self.and(!sel, e);
        self.or(on_t, on_e)
    }

    /// Conjunction over an iterator of literals.
    pub fn and_all<I: IntoIterator<Item = AigLit>>(&mut self, lits: I) -> AigLit {
        lits.into_iter()
            .fold(AigLit::TRUE, |acc, l| self.and(acc, l))
    }

    /// Disjunction over an iterator of literals.
    pub fn or_all<I: IntoIterator<Item = AigLit>>(&mut self, lits: I) -> AigLit {
        lits.into_iter()
            .fold(AigLit::FALSE, |acc, l| self.or(acc, l))
    }

    /// Copies this graph into `dst` with `inputs[k]` in place of primary
    /// input `k`, and returns the image of every node in `dst`, indexed
    /// by node id (node 0 maps to [`AigLit::FALSE`]).
    ///
    /// The and gates are copied in creation order through [`Aig::and`].
    /// So `dst` folds constants and shares structure as if the code that
    /// built this graph had run on `dst` directly over `inputs`: a
    /// graph built by a fixed sequence of [`Aig::and`] calls (as every
    /// [`crate::BitVec`] operation is) instantiates to the very nodes,
    /// in the very order, that the direct build would create. This is
    /// how `sv-synth` unrolls time frames from one compiled template.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not hold exactly one literal per primary
    /// input.
    pub fn instantiate(&self, dst: &mut Aig, inputs: &[AigLit]) -> Vec<AigLit> {
        assert_eq!(inputs.len(), self.inputs.len(), "one literal per input");
        let mut image: Vec<AigLit> = Vec::with_capacity(self.nodes.len());
        for &node in &self.nodes {
            let lit = match node {
                Node::False => AigLit::FALSE,
                Node::Input(k) => inputs[k as usize],
                Node::And(a, b) => {
                    let (a, b) = (a.image(&image), b.image(&image));
                    dst.and(a, b)
                }
            };
            image.push(lit);
        }
        image
    }

    pub(crate) fn node(&self, id: NodeId) -> Node {
        self.nodes[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        let mut g = Aig::new();
        let a = g.input();
        assert_eq!(g.and(a, AigLit::FALSE), AigLit::FALSE);
        assert_eq!(g.and(AigLit::TRUE, a), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), AigLit::FALSE);
        assert_eq!(g.or(a, !a), AigLit::TRUE);
    }

    #[test]
    fn default_graph_starts_with_the_constant() {
        let mut g = Aig::default();
        let (a, b) = (g.input(), g.input());
        assert_ne!(a, AigLit::FALSE);
        assert_ne!(g.and(a, b), AigLit::FALSE);
    }

    #[test]
    fn structural_hashing_dedups() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let n1 = g.and(a, b);
        let n2 = g.and(b, a);
        assert_eq!(n1, n2, "commuted operands share a node");
        assert_eq!(g.num_ands(), 1);
    }

    #[test]
    fn xor_of_self_is_false() {
        let mut g = Aig::new();
        let a = g.input();
        assert_eq!(g.xor(a, a), AigLit::FALSE);
        assert_eq!(g.xnor(a, a), AigLit::TRUE);
    }

    #[test]
    fn and_all_or_all() {
        let mut g = Aig::new();
        let xs: Vec<AigLit> = (0..4).map(|_| g.input()).collect();
        let all = g.and_all(xs.iter().copied());
        let any = g.or_all(xs.iter().copied());
        assert_ne!(all, AigLit::FALSE);
        assert_ne!(any, AigLit::TRUE);
        assert_eq!(g.and_all(std::iter::empty()), AigLit::TRUE);
        assert_eq!(g.or_all(std::iter::empty()), AigLit::FALSE);
    }

    /// A small graph over three inputs and the literals it built.
    fn sample_graph() -> (Aig, Vec<AigLit>) {
        let mut g = Aig::new();
        let (a, b, c) = (g.input(), g.input(), g.input());
        let x = g.xor(a, b);
        let m = g.mux(c, x, !a);
        let y = g.and(m, b);
        (g, vec![a, b, c, x, m, y])
    }

    #[test]
    fn identity_instantiation_reproduces_the_graph() {
        let (g, lits) = sample_graph();
        let mut dst = Aig::new();
        let inputs: Vec<AigLit> = (0..g.num_inputs()).map(|_| dst.input()).collect();
        let image = g.instantiate(&mut dst, &inputs);
        assert_eq!(image.len(), g.num_nodes());
        assert_eq!(dst.num_nodes(), g.num_nodes());
        for lit in lits {
            assert_eq!(lit.image(&image), lit);
            assert_eq!((!lit).image(&image), !lit);
        }
    }

    #[test]
    fn instantiating_twice_shares_every_gate() {
        let (g, lits) = sample_graph();
        let mut dst = Aig::new();
        let inputs: Vec<AigLit> = (0..g.num_inputs()).map(|_| dst.input()).collect();
        let first = g.instantiate(&mut dst, &inputs);
        let nodes = dst.num_nodes();
        let second = g.instantiate(&mut dst, &inputs);
        assert_eq!(dst.num_nodes(), nodes, "strash hits only");
        for lit in lits {
            assert_eq!(lit.image(&first), lit.image(&second));
        }
    }

    #[test]
    fn a_false_input_folds_its_gates() {
        let mut g = Aig::new();
        let (a, b) = (g.input(), g.input());
        let both = g.and(a, b);
        let either = g.or(a, b);
        let mut dst = Aig::new();
        let b2 = dst.input();
        let image = g.instantiate(&mut dst, &[AigLit::FALSE, b2]);
        assert_eq!(both.image(&image), AigLit::FALSE);
        assert_eq!(either.image(&image), b2);
        assert_eq!(dst.num_ands(), 0);
    }

    #[test]
    fn mux_folds_on_constant_select() {
        let mut g = Aig::new();
        let t = g.input();
        let e = g.input();
        assert_eq!(g.mux(AigLit::TRUE, t, e), t);
        assert_eq!(g.mux(AigLit::FALSE, t, e), e);
    }
}
