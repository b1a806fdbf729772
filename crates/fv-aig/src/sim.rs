//! Cheap pre-SAT simulation over AIGs: a 64-way bit-parallel random
//! simulator and a three-valued (0/1/X) constant propagator.
//!
//! Primary inputs are the free slots whose values the caller supplies,
//! by dense input index. The graph is combinational: time frames are
//! unrolled by `sv-synth::FrameExpander`, so the monitors the provers in
//! `fv-core` check are pure combinational cones over per-frame inputs.
//!
//! The simulators are *incremental*: AIG nodes are append-only, so
//! [`BitSim::extend`] / [`TernarySim::extend`] evaluate only the nodes
//! added since the previous call. A bounded-model-checking loop that
//! grows one shared graph pays `O(total nodes)` simulation cost over the
//! whole run, not per anchor.

use crate::aig::{Aig, AigLit, Node};

/// 64-way bit-parallel evaluator: every node holds a `u64` word, one
/// simulation pattern per bit.
///
/// A non-zero word on a target literal is a *witness*: some pattern
/// satisfies it, so the corresponding SAT query is satisfiable without
/// ever calling the solver. The provers use this to kill falsification
/// queries cheaply ("sim-kills") and read the witness assignment back
/// with [`BitSim::lit_bit`].
///
/// # Examples
///
/// ```
/// use fv_aig::{Aig, BitSim};
///
/// let mut g = Aig::new();
/// let a = g.input();
/// let b = g.input();
/// let y = g.and(a, !b);
/// let mut sim = BitSim::new();
/// // Pattern bits: a = 0b01, b = 0b11 (two patterns in the low bits).
/// sim.extend(&g, &mut |input| [0b01, 0b11][input as usize]);
/// assert_eq!(sim.lit(y) & 0b11, 0b00, "a & !b is false in both");
/// assert!(sim.lit_bit(a, 0) && !sim.lit_bit(a, 1));
/// ```
#[derive(Debug, Default)]
pub struct BitSim {
    words: Vec<u64>,
}

impl BitSim {
    /// Creates an empty simulator.
    pub fn new() -> BitSim {
        BitSim::default()
    }

    /// Number of nodes evaluated so far.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` before the first [`BitSim::extend`] call.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Forgets all evaluated nodes (e.g. to re-run with new patterns).
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Evaluates every node added to `g` since the previous call.
    /// `fill` supplies the 64-pattern word for each newly encountered
    /// primary input, by input index; already-evaluated nodes keep
    /// their words, so patterns must stay fixed across extends of one
    /// run (use [`BitSim::clear`] to start over).
    pub fn extend(&mut self, g: &Aig, fill: &mut dyn FnMut(u32) -> u64) {
        self.words.reserve(g.nodes.len() - self.words.len());
        for node in &g.nodes[self.words.len()..] {
            let w = match *node {
                Node::False => 0,
                Node::Input(k) => fill(k),
                Node::And(a, b) => self.lit(a) & self.lit(b),
            };
            self.words.push(w);
        }
    }

    /// The 64-pattern word of a literal.
    ///
    /// # Panics
    ///
    /// Panics if the literal's node has not been evaluated yet.
    #[inline]
    pub fn lit(&self, l: AigLit) -> u64 {
        let w = self.words[l.node().index()];
        if l.is_inverted() {
            !w
        } else {
            w
        }
    }

    /// The value of a literal in one pattern (bit position `0..64`).
    #[inline]
    pub fn lit_bit(&self, l: AigLit, pattern: u32) -> bool {
        (self.lit(l) >> pattern) & 1 == 1
    }

    /// One pattern's primary-input assignment, indexed by input number —
    /// the vector [`crate::AigEvaluator::combinational`] takes, so a
    /// witness can be re-evaluated independently.
    ///
    /// # Panics
    ///
    /// Panics if some input of `g` has not been evaluated yet.
    pub fn input_pattern(&self, g: &Aig, pattern: u32) -> Vec<bool> {
        g.inputs()
            .iter()
            .map(|id| (self.words[id.index()] >> pattern) & 1 == 1)
            .collect()
    }
}

/// A three-valued logic value: definitely false, definitely true, or
/// unknown (`X`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ternary {
    /// Constant 0 under every assignment of the unknown slots.
    False,
    /// Constant 1 under every assignment of the unknown slots.
    True,
    /// Value depends on at least one unknown slot.
    Unknown,
}

impl Ternary {
    /// Lifts a concrete boolean.
    pub fn known(b: bool) -> Ternary {
        if b {
            Ternary::True
        } else {
            Ternary::False
        }
    }

    fn not(self) -> Ternary {
        match self {
            Ternary::False => Ternary::True,
            Ternary::True => Ternary::False,
            Ternary::Unknown => Ternary::Unknown,
        }
    }

    fn and(self, other: Ternary) -> Ternary {
        match (self, other) {
            (Ternary::False, _) | (_, Ternary::False) => Ternary::False,
            (Ternary::True, Ternary::True) => Ternary::True,
            _ => Ternary::Unknown,
        }
    }
}

/// Three-valued constant propagation: inputs the caller pins are
/// known, everything else is `X`, and any node that still evaluates to
/// a constant is that constant under *every* assignment of the free
/// inputs.
///
/// The BMC engine uses this to discharge unsatisfiable falsification
/// queries without a SAT call ("ternary-kills"): if `¬holds` propagates
/// to [`Ternary::False`] with only the reset state pinned, no input
/// sequence can violate the property at that anchor.
///
/// # Examples
///
/// ```
/// use fv_aig::{Aig, Ternary, TernarySim};
///
/// let mut g = Aig::new();
/// let a = g.input();
/// let b = g.input();
/// let y = g.and(a, b);
/// let mut sim = TernarySim::new();
/// // Pin a = 0, leave b unknown: a & b is still definitely false.
/// sim.extend(&g, &mut |input| match input {
///     0 => Ternary::False,
///     _ => Ternary::Unknown,
/// });
/// assert_eq!(sim.lit(y), Ternary::False);
/// assert_eq!(sim.lit(b), Ternary::Unknown);
/// ```
#[derive(Debug, Default)]
pub struct TernarySim {
    vals: Vec<Ternary>,
}

impl TernarySim {
    /// Creates an empty simulator.
    pub fn new() -> TernarySim {
        TernarySim::default()
    }

    /// Number of nodes evaluated so far.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// `true` before the first [`TernarySim::extend`] call.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Forgets all evaluated nodes.
    pub fn clear(&mut self) {
        self.vals.clear();
    }

    /// Evaluates every node added to `g` since the previous call, with
    /// `fill` pinning (or leaving unknown) each newly encountered
    /// primary input, by input index.
    pub fn extend(&mut self, g: &Aig, fill: &mut dyn FnMut(u32) -> Ternary) {
        self.vals.reserve(g.nodes.len() - self.vals.len());
        for node in &g.nodes[self.vals.len()..] {
            let v = match *node {
                Node::False => Ternary::False,
                Node::Input(k) => fill(k),
                Node::And(a, b) => self.lit(a).and(self.lit(b)),
            };
            self.vals.push(v);
        }
    }

    /// The three-valued result of a literal.
    ///
    /// # Panics
    ///
    /// Panics if the literal's node has not been evaluated yet.
    #[inline]
    pub fn lit(&self, l: AigLit) -> Ternary {
        let v = self.vals[l.node().index()];
        if l.is_inverted() {
            v.not()
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::AigEvaluator;

    fn xor_graph() -> (Aig, AigLit, AigLit, AigLit) {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let y = g.xor(a, b);
        (g, a, b, y)
    }

    #[test]
    fn bitsim_matches_scalar_evaluator() {
        let (g, a, b, y) = xor_graph();
        let wa = 0b0011u64;
        let wb = 0b0101u64;
        let mut sim = BitSim::new();
        sim.extend(&g, &mut |input| [wa, wb][input as usize]);
        for p in 0..4u32 {
            let ia = (wa >> p) & 1 == 1;
            let ib = (wb >> p) & 1 == 1;
            assert_eq!(sim.input_pattern(&g, p), [ia, ib], "pattern {p}");
            let ev = AigEvaluator::combinational(&g, &[ia, ib]);
            assert_eq!(sim.lit_bit(y, p), ev.lit(y), "pattern {p}");
            assert_eq!(sim.lit_bit(a, p), ia);
            assert_eq!(sim.lit_bit(b, p), ib);
        }
    }

    #[test]
    fn bitsim_is_incremental() {
        let mut g = Aig::new();
        let a = g.input();
        let mut sim = BitSim::new();
        sim.extend(&g, &mut |_| 0b10);
        assert_eq!(sim.len(), g.num_nodes());
        // New logic over the same input: only the new nodes are filled.
        let b = g.input();
        let y = g.and(a, b);
        let mut calls = 0;
        sim.extend(&g, &mut |input| {
            calls += 1;
            assert_eq!(input, 1, "only the new input is free");
            0b11
        });
        assert_eq!(calls, 1);
        assert_eq!(sim.lit(y) & 0b11, 0b10);
    }

    #[test]
    fn bitsim_constants() {
        let g = Aig::new();
        let mut sim = BitSim::new();
        sim.extend(&g, &mut |_| 0);
        assert_eq!(sim.lit(AigLit::FALSE), 0);
        assert_eq!(sim.lit(AigLit::TRUE), u64::MAX);
    }

    #[test]
    fn ternary_propagates_unknowns_conservatively() {
        let (g, a, b, y) = xor_graph();
        let mut sim = TernarySim::new();
        sim.extend(&g, &mut |_| Ternary::Unknown);
        assert_eq!(sim.lit(y), Ternary::Unknown);
        assert_eq!(sim.lit(a), Ternary::Unknown);
        assert_eq!(sim.lit(!b), Ternary::Unknown);

        // Pinning both inputs makes the xor definite.
        let mut sim = TernarySim::new();
        sim.extend(&g, &mut |input| match input {
            0 => Ternary::True,
            _ => Ternary::False,
        });
        assert_eq!(sim.lit(y), Ternary::True);
    }

    #[test]
    fn ternary_never_contradicts_concrete_eval() {
        // A slightly deeper graph with one pinned and one free input.
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let t1 = g.mux(a, b, c);
        let t2 = g.xnor(t1, b);
        let mut sim = TernarySim::new();
        sim.extend(&g, &mut |input| match input {
            0 => Ternary::True,
            _ => Ternary::Unknown,
        });
        for bits in 0..4u32 {
            let ib = bits & 1 == 1;
            let ic = bits & 2 == 2;
            let ev = AigEvaluator::combinational(&g, &[true, ib, ic]);
            for lit in [t1, t2, a, b, c] {
                match sim.lit(lit) {
                    Ternary::Unknown => {}
                    known => assert_eq!(known, Ternary::known(ev.lit(lit))),
                }
            }
        }
    }
}
