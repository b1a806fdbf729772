//! Bit-blasting netlist time frames into an [`Aig`].
//!
//! Rather than building a sequential AIG with latches, the expander
//! instantiates the combinational cone once per clock cycle and lets the
//! caller stitch register values between frames. This is exactly the
//! shape BMC, k-induction, and the bounded equivalence prover need.

use crate::netexpr::{Nx, NxBin, NxRed};
use crate::netlist::{AtomId, AtomKind, NetBinding, Netlist};
use fv_aig::{Aig, BitVec};
use std::collections::HashMap;

/// Values of every atom (and register next-state) for one clock cycle.
#[derive(Debug, Clone)]
pub struct FrameValues {
    /// Per-atom value, indexed by atom id.
    pub atoms: Vec<BitVec>,
    /// Next-state value per register atom.
    pub reg_next: HashMap<AtomId, BitVec>,
}

impl FrameValues {
    /// Reads a full net in this frame.
    ///
    /// # Panics
    ///
    /// Panics if the binding references atoms outside this frame.
    pub fn read_net(&self, binding: &NetBinding) -> BitVec {
        let mut bits = Vec::with_capacity(binding.width as usize);
        for seg in &binding.segs {
            let av = &self.atoms[seg.atom.index()];
            for i in 0..seg.width {
                bits.push(av.bit((seg.lo + i) as usize));
            }
        }
        BitVec::from_bits(bits)
    }
}

/// Expands netlist clock cycles into an AIG.
#[derive(Debug)]
pub struct FrameExpander<'a> {
    netlist: &'a Netlist,
    topo: Vec<AtomId>,
}

impl<'a> FrameExpander<'a> {
    /// Prepares an expander (topologically sorts combinational atoms).
    ///
    /// # Errors
    ///
    /// Returns the offending atom name if the netlist has a
    /// combinational cycle.
    pub fn new(netlist: &'a Netlist) -> Result<FrameExpander<'a>, String> {
        let topo = netlist.comb_topo_order()?;
        Ok(FrameExpander { netlist, topo })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Expands one cycle. `reg_values` supplies each register's current
    /// value (constants for the initial BMC frame, fresh inputs for
    /// induction, previous `reg_next` otherwise); `input_fn` supplies
    /// primary-input values (usually fresh AIG inputs).
    pub fn expand(
        &self,
        g: &mut Aig,
        reg_values: &HashMap<AtomId, BitVec>,
        input_fn: &mut dyn FnMut(&mut Aig, AtomId, u32) -> BitVec,
    ) -> FrameValues {
        let n = self.netlist.atoms.len();
        let mut atoms: Vec<Option<BitVec>> = vec![None; n];
        for (i, def) in self.netlist.atoms.iter().enumerate() {
            match def.kind {
                AtomKind::Input => {
                    atoms[i] = Some(input_fn(g, AtomId(i as u32), def.width));
                }
                AtomKind::Reg { .. } => {
                    let v = reg_values
                        .get(&AtomId(i as u32))
                        .cloned()
                        .unwrap_or_else(|| BitVec::constant(def.width as usize, 0));
                    atoms[i] = Some(v);
                }
                AtomKind::Comb(_) => {}
            }
        }
        for &id in &self.topo {
            if let AtomKind::Comb(e) = &self.netlist.atoms[id.index()].kind {
                let v = self.blast(g, e, &atoms);
                atoms[id.index()] = Some(v);
            }
        }
        let mut reg_next = HashMap::new();
        for (id, def) in self.netlist.regs() {
            if let AtomKind::Reg { next, .. } = &def.kind {
                reg_next.insert(id, self.blast(g, next, &atoms));
            }
        }
        let atoms = atoms
            .into_iter()
            .map(|v| v.expect("all atoms computed"))
            .collect();
        FrameValues { atoms, reg_next }
    }

    /// Initial register values (reset state) as constants.
    pub fn initial_state(&self) -> HashMap<AtomId, BitVec> {
        let mut m = HashMap::new();
        for (id, def) in self.netlist.regs() {
            if let AtomKind::Reg { init, .. } = def.kind {
                m.insert(id, BitVec::constant(def.width as usize, init));
            }
        }
        m
    }

    fn blast(&self, g: &mut Aig, nx: &Nx, atoms: &[Option<BitVec>]) -> BitVec {
        match nx {
            Nx::Const { width, value } => BitVec::constant(*width as usize, *value),
            Nx::Atom(a) => atoms[a.index()]
                .clone()
                .expect("atom evaluated before use (topological order)"),
            Nx::Slice { inner, lo, width } => {
                let v = self.blast(g, inner, atoms);
                v.slice((*lo + *width - 1) as usize, *lo as usize)
            }
            Nx::DynSlice {
                inner,
                index,
                elem_width,
            } => {
                let v = self.blast(g, inner, atoms);
                let idx = self.blast(g, index, atoms);
                let ew = *elem_width as usize;
                let count = v.width() / ew;
                let mut acc = BitVec::constant(ew, 0);
                for i in 0..count {
                    let elem = v.slice(i * ew + ew - 1, i * ew);
                    let iw = idx.width();
                    let sel = idx.eq(g, &BitVec::constant(iw, i as u128));
                    acc = BitVec::mux(g, sel, &elem, &acc);
                }
                acc
            }
            Nx::Concat(parts) => {
                let mut bits = Vec::new();
                for p in parts {
                    bits.extend_from_slice(self.blast(g, p, atoms).bits());
                }
                BitVec::from_bits(bits)
            }
            Nx::Not(i) => self.blast(g, i, atoms).not(),
            Nx::Neg(i) => {
                let v = self.blast(g, i, atoms);
                v.neg(g)
            }
            Nx::Bin { op, a, b } => {
                let x = self.blast(g, a, atoms);
                let y = self.blast(g, b, atoms);
                match op {
                    NxBin::Add => x.add(g, &y),
                    NxBin::Sub => x.sub(g, &y),
                    NxBin::Mul => x.mul(g, &y),
                    NxBin::Div => x.udivrem(g, &y).0,
                    NxBin::Mod => x.udivrem(g, &y).1,
                    NxBin::And => x.and(g, &y),
                    NxBin::Or => x.or(g, &y),
                    NxBin::Xor => x.xor(g, &y),
                    NxBin::Shl => x.shl(g, &y),
                    NxBin::LShr => x.lshr(g, &y),
                    NxBin::AShr => x.ashr(g, &y),
                    NxBin::Eq => BitVec::from_lit(x.eq(g, &y)),
                    NxBin::Ult => BitVec::from_lit(x.ult(g, &y)),
                    NxBin::Ule => BitVec::from_lit(x.ule(g, &y)),
                }
            }
            Nx::Reduce { op, inner } => {
                let v = self.blast(g, inner, atoms);
                BitVec::from_lit(match op {
                    NxRed::And => v.reduce_and(g),
                    NxRed::Or => v.reduce_or(g),
                    NxRed::Xor => v.reduce_xor(g),
                })
            }
            Nx::Mux { sel, t, e } => {
                let s = self.blast(g, sel, atoms);
                let tv = self.blast(g, t, atoms);
                let ev = self.blast(g, e, atoms);
                BitVec::mux(g, s.bit(0), &tv, &ev)
            }
            Nx::Countones { inner, width } => {
                let v = self.blast(g, inner, atoms);
                v.countones(g).resize(*width as usize)
            }
            Nx::Onehot(i) => {
                let v = self.blast(g, i, atoms);
                BitVec::from_lit(v.onehot(g))
            }
            Nx::Onehot0(i) => {
                let v = self.blast(g, i, atoms);
                BitVec::from_lit(v.onehot0(g))
            }
            Nx::Resize { inner, width } => self.blast(g, inner, atoms).resize(*width as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_aig::AigEvaluator;
    use sv_parser::parse_source;

    fn counter_netlist() -> Netlist {
        let src = "module m (clk, reset_, q);\ninput clk; input reset_; output [2:0] q;\n\
                   reg [2:0] cnt;\n\
                   always @(posedge clk) begin\n\
                   if (!reset_) cnt <= 3'd0; else cnt <= cnt + 3'd1;\nend\n\
                   assign q = cnt;\nendmodule\n";
        let f = parse_source(src).unwrap();
        crate::elaborate(&f, "m").unwrap()
    }

    #[test]
    fn unrolled_counter_counts() {
        let nl = counter_netlist();
        let exp = FrameExpander::new(&nl).unwrap();
        let mut g = Aig::new();
        let reset_atom = nl
            .inputs()
            .find(|(_, d)| d.name == "reset_")
            .map(|(id, _)| id)
            .unwrap();
        let mut state = exp.initial_state();
        let mut q_values = Vec::new();
        let q_binding = nl.net("q").unwrap().clone();
        for _ in 0..4 {
            let frame = exp.expand(&mut g, &state, &mut |_g, id, w| {
                if id == reset_atom {
                    BitVec::constant(w as usize, 1) // reset deasserted
                } else {
                    BitVec::constant(w as usize, 0)
                }
            });
            q_values.push(frame.read_net(&q_binding));
            state = frame.reg_next.clone();
        }
        // Everything is constant, so evaluation needs no inputs.
        let ev = AigEvaluator::combinational(&g, &[]);
        let vals: Vec<u32> = q_values
            .iter()
            .map(|v| {
                v.bits()
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| (ev.lit(b) as u32) << i)
                    .sum()
            })
            .collect();
        assert_eq!(vals, vec![0, 1, 2, 3]);
    }

    #[test]
    fn initial_state_uses_reset_values() {
        let nl = counter_netlist();
        let exp = FrameExpander::new(&nl).unwrap();
        let init = exp.initial_state();
        assert_eq!(init.len(), 1);
        let (_, bv) = init.iter().next().unwrap();
        assert_eq!(bv.width(), 3);
    }
}
