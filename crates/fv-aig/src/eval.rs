//! Direct AIG evaluation, used as the testing oracle for the bit-vector
//! layer and for replaying counterexample traces.

use crate::aig::{Aig, AigLit, Node, NodeId};

/// Evaluates an AIG under a concrete input assignment.
///
/// # Examples
///
/// ```
/// use fv_aig::{Aig, AigEvaluator};
/// let mut g = Aig::new();
/// let a = g.input();
/// let b = g.input();
/// let y = g.and(a, b);
/// let ev = AigEvaluator::combinational(&g, &[true, false]);
/// assert!(!ev.lit(y));
/// ```
#[derive(Debug)]
pub struct AigEvaluator {
    values: Vec<bool>,
}

impl AigEvaluator {
    /// Evaluates with the given input values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than the AIG requires.
    pub fn combinational(g: &Aig, inputs: &[bool]) -> AigEvaluator {
        let mut values = vec![false; g.num_nodes()];
        for (i, node) in g.nodes.iter().enumerate() {
            values[i] = match *node {
                Node::False => false,
                Node::Input(k) => inputs[k as usize],
                Node::And(a, b) => {
                    let va = values[a.node().0 as usize] ^ a.is_inverted();
                    let vb = values[b.node().0 as usize] ^ b.is_inverted();
                    va && vb
                }
            };
        }
        AigEvaluator { values }
    }

    /// Value of a node.
    pub fn node(&self, id: NodeId) -> bool {
        self.values[id.0 as usize]
    }

    /// Value of a literal.
    pub fn lit(&self, l: AigLit) -> bool {
        self.values[l.node().0 as usize] ^ l.is_inverted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::BitVec;

    #[test]
    fn constants_evaluate() {
        let g = Aig::new();
        let ev = AigEvaluator::combinational(&g, &[]);
        assert!(!ev.lit(AigLit::FALSE));
        assert!(ev.lit(AigLit::TRUE));
    }

    #[test]
    fn bitvec_constant_reads_back() {
        let mut g = Aig::new();
        let c = BitVec::constant(8, 0xA5);
        let _ = g.input();
        let ev = AigEvaluator::combinational(&g, &[false]);
        let got: u32 = c
            .bits()
            .iter()
            .enumerate()
            .map(|(i, &b)| (ev.lit(b) as u32) << i)
            .sum();
        assert_eq!(got, 0xA5);
    }
}
