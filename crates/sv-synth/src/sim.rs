//! Cycle-accurate 2-state interpreter for elaborated netlists.
//!
//! The simulator is the differential-testing oracle for the bit-blaster
//! (property tests drive both with the same stimuli and compare every
//! net) and powers the simulation-based-verification ablation bench.

use crate::netexpr::{mask, Nx, NxBin, NxRed};
use crate::netlist::{AtomId, AtomKind, Netlist};
use std::error::Error;
use std::fmt;

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    /// Description.
    pub message: String,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation error: {}", self.message)
    }
}

impl Error for SimError {}

/// A cycle-accurate interpreter over a [`Netlist`].
///
/// # Examples
///
/// ```
/// use sv_parser::parse_source;
/// use sv_synth::{elaborate, Simulator};
///
/// let f = parse_source(
///     "module m (clk, reset_, q);\ninput clk; input reset_; output [3:0] q;\n\
///      reg [3:0] c;\nalways @(posedge clk) begin\n\
///      if (!reset_) c <= 4'd0; else c <= c + 4'd1;\nend\n\
///      assign q = c;\nendmodule\n",
/// ).unwrap();
/// let nl = elaborate(&f, "m").unwrap();
/// let mut sim = Simulator::new(&nl).unwrap();
/// sim.step(&|_, _| 1); // all inputs high (incl. deasserted reset_)
/// sim.step(&|_, _| 1);
/// assert_eq!(sim.read_net("q"), Some(1));
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    topo: Vec<AtomId>,
    /// Current register state (by atom index; non-reg atoms unused).
    state: Vec<u128>,
    /// Values of all atoms from the most recent step.
    values: Vec<u128>,
    stepped: bool,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator, resetting all registers to their init values.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the netlist has a combinational cycle.
    pub fn new(netlist: &'a Netlist) -> Result<Simulator<'a>, SimError> {
        let topo = netlist.comb_topo_order().map_err(|n| SimError {
            message: format!("combinational cycle through '{n}'"),
        })?;
        let mut state = vec![0u128; netlist.atoms.len()];
        for (id, def) in netlist.regs() {
            if let AtomKind::Reg { init, .. } = def.kind {
                state[id.index()] = init;
            }
        }
        Ok(Simulator {
            netlist,
            topo,
            state,
            values: vec![0; netlist.atoms.len()],
            stepped: false,
        })
    }

    /// Resets all registers to their init values.
    pub fn reset(&mut self) {
        for (id, def) in self.netlist.regs() {
            if let AtomKind::Reg { init, .. } = def.kind {
                self.state[id.index()] = init;
            }
        }
        self.stepped = false;
    }

    /// Evaluates one clock cycle: combinational settle with the given
    /// inputs, then register update. `input_fn(name, width)` provides
    /// each primary input's value (masked to width automatically).
    pub fn step(&mut self, input_fn: &dyn Fn(&str, u32) -> u128) {
        // Load inputs and register state.
        for (i, def) in self.netlist.atoms.iter().enumerate() {
            match def.kind {
                AtomKind::Input => {
                    self.values[i] = mask(input_fn(&def.name, def.width), def.width);
                }
                AtomKind::Reg { .. } => {
                    self.values[i] = self.state[i];
                }
                AtomKind::Comb(_) => {}
            }
        }
        // Combinational settle.
        for &id in &self.topo {
            if let AtomKind::Comb(e) = &self.netlist.atoms[id.index()].kind {
                self.values[id.index()] = self.eval(e);
            }
        }
        // Register update.
        let mut next = Vec::new();
        for (id, def) in self.netlist.regs() {
            if let AtomKind::Reg { next: nx, .. } = &def.kind {
                next.push((id, mask(self.eval(nx), def.width)));
            }
        }
        for (id, v) in next {
            self.state[id.index()] = v;
        }
        self.stepped = true;
    }

    /// Value of an atom after the latest [`Simulator::step`].
    pub fn atom_value(&self, id: AtomId) -> u128 {
        self.values[id.index()]
    }

    /// Reads a net by name (post-step combinational view).
    /// Returns `None` for unknown nets or before the first step.
    pub fn read_net(&self, name: &str) -> Option<u128> {
        if !self.stepped {
            return None;
        }
        Some(self.netlist.net(name)?.value(&self.values))
    }

    fn eval(&self, nx: &Nx) -> u128 {
        let aw = |a: AtomId| self.netlist.atom_width(a);
        match nx {
            Nx::Const { value, .. } => *value,
            Nx::Atom(a) => self.values[a.index()],
            Nx::Slice { inner, lo, width } => mask(self.eval(inner) >> lo, *width),
            Nx::DynSlice {
                inner,
                index,
                elem_width,
            } => {
                let v = self.eval(inner);
                let i = self.eval(index);
                let total = inner.width(&aw);
                let count = u128::from(total / elem_width);
                if i >= count {
                    0
                } else {
                    mask(v >> (i as u32 * *elem_width), *elem_width)
                }
            }
            Nx::Concat(parts) => {
                let mut acc = 0u128;
                let mut off = 0u32;
                for p in parts {
                    acc |= self.eval(p) << off;
                    off += p.width(&aw);
                }
                acc
            }
            Nx::Not(i) => mask(!self.eval(i), i.width(&aw)),
            Nx::Neg(i) => mask(self.eval(i).wrapping_neg(), i.width(&aw)),
            Nx::Bin { op, a, b } => {
                let w = a.width(&aw);
                let x = self.eval(a);
                let y = self.eval(b);
                match op {
                    NxBin::Add => mask(x.wrapping_add(y), w),
                    NxBin::Sub => mask(x.wrapping_sub(y), w),
                    NxBin::Mul => mask(x.wrapping_mul(y), w),
                    NxBin::Div => x.checked_div(y).unwrap_or(mask(u128::MAX, w)),
                    NxBin::Mod => {
                        if y == 0 {
                            x
                        } else {
                            x % y
                        }
                    }
                    NxBin::And => x & y,
                    NxBin::Or => x | y,
                    NxBin::Xor => x ^ y,
                    NxBin::Shl => {
                        if y >= 128 {
                            0
                        } else {
                            mask(x << y, w)
                        }
                    }
                    NxBin::LShr => {
                        if y >= 128 {
                            0
                        } else {
                            x >> y
                        }
                    }
                    NxBin::Eq => u128::from(x == y),
                    NxBin::Ult => u128::from(x < y),
                    NxBin::Ule => u128::from(x <= y),
                }
            }
            Nx::Reduce { op, inner } => {
                let w = inner.width(&aw);
                let v = self.eval(inner);
                match op {
                    NxRed::Or => u128::from(v != 0),
                    NxRed::And => u128::from(v == mask(u128::MAX, w)),
                    NxRed::Xor => u128::from(v.count_ones() % 2 == 1),
                }
            }
            Nx::Mux { sel, t, e } => {
                if self.eval(sel) & 1 == 1 {
                    self.eval(t)
                } else {
                    self.eval(e)
                }
            }
            Nx::Countones { inner, width } => {
                mask(u128::from(self.eval(inner).count_ones()), *width)
            }
            Nx::Onehot(i) => u128::from(self.eval(i).count_ones() == 1),
            Nx::Onehot0(i) => u128::from(self.eval(i).count_ones() <= 1),
            Nx::Resize { inner, width } => mask(self.eval(inner), *width),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate;
    use crate::frame::FrameExpander;
    use fv_aig::{Aig, AigEvaluator, BitVec};
    use std::collections::HashMap;
    use sv_parser::parse_source;

    fn fifo_like() -> Netlist {
        let src = "module m (clk, reset_, push, pop, cnt_out, full, empty);\n\
            input clk; input reset_; input push; input pop;\n\
            output [2:0] cnt_out; output full; output empty;\n\
            reg [2:0] cnt;\n\
            always @(posedge clk) begin\n\
            if (!reset_) cnt <= 3'd0;\n\
            else cnt <= cnt + push - pop;\nend\n\
            assign cnt_out = cnt;\n\
            assign full = (cnt == 3'd4);\n\
            assign empty = (cnt == 3'd0);\nendmodule\n";
        let f = parse_source(src).unwrap();
        elaborate(&f, "m").unwrap()
    }

    #[test]
    fn push_pop_counter_behaviour() {
        let nl = fifo_like();
        let mut sim = Simulator::new(&nl).unwrap();
        let step = |sim: &mut Simulator, push: u128, pop: u128| {
            sim.step(&move |name, _| match name {
                "reset_" => 1,
                "push" => push,
                "pop" => pop,
                _ => 0,
            });
        };
        step(&mut sim, 1, 0);
        assert_eq!(sim.read_net("empty"), Some(1), "empty before clock edge");
        step(&mut sim, 1, 0);
        step(&mut sim, 1, 0);
        step(&mut sim, 0, 1);
        assert_eq!(sim.read_net("cnt_out"), Some(3));
        step(&mut sim, 0, 1);
        assert_eq!(sim.read_net("cnt_out"), Some(2));
    }

    #[test]
    fn simulator_matches_bitblast_on_random_stimuli() {
        // Differential test: drive both backends with identical inputs.
        let nl = fifo_like();
        let mut sim = Simulator::new(&nl).unwrap();
        let exp = FrameExpander::new(&nl).unwrap();
        let mut g = Aig::new();
        let mut state = exp.initial_state();

        // Deterministic pseudo-random stimuli.
        let mut seed = 0xDEADBEEFu64;
        let mut next_bit = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed & 1
        };
        for _ in 0..32 {
            let push = next_bit();
            let pop = next_bit();
            let frame = exp.expand(&mut g, &state, &mut |_g, id, w| {
                let name = nl.atom(id).name.clone();
                let v = match name.as_str() {
                    "reset_" => 1,
                    "push" => u128::from(push),
                    "pop" => u128::from(pop),
                    _ => 0,
                };
                BitVec::constant(w as usize, v)
            });
            sim.step(&move |name, _| match name {
                "reset_" => 1,
                "push" => u128::from(push),
                "pop" => u128::from(pop),
                _ => 0,
            });
            let ev = AigEvaluator::combinational(&g, &[]);
            for name in ["cnt_out", "full", "empty"] {
                let bv = frame.read_net(nl.net(name).unwrap());
                let aig_val: u128 = bv
                    .bits()
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| (ev.lit(b) as u128) << i)
                    .sum();
                assert_eq!(Some(aig_val), sim.read_net(name), "mismatch on {name}");
            }
            // Advance AIG state with evaluated next values (constants).
            let mut new_state = HashMap::new();
            for (id, bv) in &frame.reg_next {
                let v: u128 = bv
                    .bits()
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| (ev.lit(b) as u128) << i)
                    .sum();
                new_state.insert(*id, BitVec::constant(bv.width(), v));
            }
            state = new_state;
        }
    }

    #[test]
    fn read_net_before_step_is_none() {
        let nl = fifo_like();
        let sim = Simulator::new(&nl).unwrap();
        assert_eq!(sim.read_net("cnt_out"), None);
        assert_eq!(sim.read_net("missing"), None);
    }
}
