//! Bit-blasting netlist time frames into an [`Aig`].
//!
//! An [`Aig`] has no state elements. The expander bit-blasts the
//! netlist's transition function once, into a private combinational
//! template whose inputs are the primary-input and register bits. Each
//! clock cycle is then a copy of that template into the caller's graph,
//! the way AIGER-style model checkers unroll, and the caller stitches
//! register values between frames. This is exactly the shape BMC,
//! k-induction, and the bounded equivalence prover need.
//!
//! [`FrameExpander::expand`] copies a whole frame. A caller that needs
//! only some nets can walk the template itself instead
//! ([`FrameExpander::template`], [`FrameExpander::template_input`]) and
//! copy just the nodes those nets read, as `fv-core`'s design trace
//! environment does.

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
#[derive(Debug, Clone)]
pub struct FrameExpander<'a> {
    netlist: &'a Netlist,
    /// The transition function, bit-blasted once. Its inputs are the
    /// bits of every input atom and every register, in atom order.
    template: Aig,
    /// Every atom's value in the template, indexed by atom id.
    atoms: Vec<BitVec>,
    /// Every register's next state in the template, indexed by atom id
    /// (`None` for the other atoms).
    next: Vec<Option<BitVec>>,
    /// Template input `k` stands for bit `input_bits[k].1` of atom
    /// `input_bits[k].0`: the one statement of that numbering.
    input_bits: Vec<(AtomId, u32)>,
}

impl<'a> FrameExpander<'a> {
    /// Prepares an expander: sorts the combinational atoms
    /// topologically and bit-blasts the whole netlist once into the
    /// template that [`FrameExpander::expand`] copies per frame.
    ///
    /// # Errors
    ///
    /// Returns the offending atom name if the netlist has a
    /// combinational cycle.
    pub fn new(netlist: &'a Netlist) -> Result<FrameExpander<'a>, String> {
        let topo = netlist.comb_topo_order()?;
        let mut template = Aig::new();
        let mut input_bits = Vec::new();
        let atoms = netlist
            .atoms
            .iter()
            .enumerate()
            .map(|(i, def)| match def.kind {
                AtomKind::Input | AtomKind::Reg { .. } => {
                    input_bits.extend((0..def.width).map(|bit| (AtomId(i as u32), bit)));
                    Some(BitVec::input(&mut template, def.width as usize))
                }
                AtomKind::Comb(_) => None,
            })
            .collect();
        let (atoms, reg_next) = Self::blast_frame(&mut template, netlist, &topo, atoms);
        let mut next = vec![None; netlist.atoms.len()];
        for (id, v) in reg_next {
            next[id.index()] = Some(v);
        }
        Ok(FrameExpander {
            netlist,
            template,
            atoms,
            next,
            input_bits,
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The transition function, bit-blasted once: one primary input per
    /// bit of every input and register atom ([`FrameExpander::template_input`]).
    pub fn template(&self) -> &Aig {
        &self.template
    }

    /// The atom bit that template input `k` stands for: `(atom, bit)`.
    /// Inputs run over the input and register atoms in atom order, LSB
    /// first, and each is a plain (uninverted) input literal of
    /// [`FrameExpander::atom_template`].
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a template input.
    pub fn template_input(&self, k: u32) -> (AtomId, u32) {
        self.input_bits[k as usize]
    }

    /// An atom's value in the template, LSB first.
    pub fn atom_template(&self, id: AtomId) -> &BitVec {
        &self.atoms[id.index()]
    }

    /// A register's next state in the template, LSB first; `None` for
    /// atoms that are not registers.
    pub fn next_state_template(&self, id: AtomId) -> Option<&BitVec> {
        self.next[id.index()].as_ref()
    }

    /// Expands one cycle by copying the template into `g`.
    /// `reg_values` supplies each register's current value (constants
    /// for the initial BMC frame, fresh inputs for induction, previous
    /// `reg_next` otherwise; a missing register reads 0); `input_fn`
    /// supplies primary-input values (usually fresh AIG inputs), called
    /// once per input atom in atom order before any gate is copied.
    ///
    /// `g` receives exactly the nodes, in the same order, that
    /// bit-blasting the netlist directly over these values would add
    /// (see [`Aig::instantiate`]).
    ///
    /// # Panics
    ///
    /// Panics if a supplied value's width differs from its atom's.
    pub fn expand(
        &self,
        g: &mut Aig,
        reg_values: &HashMap<AtomId, BitVec>,
        input_fn: &mut dyn FnMut(&mut Aig, AtomId, u32) -> BitVec,
    ) -> FrameValues {
        let mut inputs = Vec::with_capacity(self.input_bits.len());
        for bits in self.input_bits.chunk_by(|a, b| a.0 == b.0) {
            let id = bits[0].0;
            let def = self.netlist.atom(id);
            let value = match def.kind {
                AtomKind::Input => input_fn(g, id, def.width),
                _ => reg_values
                    .get(&id)
                    .cloned()
                    .unwrap_or_else(|| BitVec::constant(def.width as usize, 0)),
            };
            assert_eq!(value.width(), bits.len(), "width of atom '{}'", def.name);
            inputs.extend(bits.iter().map(|&(_, bit)| value.bit(bit as usize)));
        }
        let image = self.template.instantiate(g, &inputs);
        let copy =
            |v: &BitVec| BitVec::from_bits(v.bits().iter().map(|l| l.image(&image)).collect());
        FrameValues {
            atoms: self.atoms.iter().map(copy).collect(),
            reg_next: self
                .next
                .iter()
                .enumerate()
                .filter_map(|(i, v)| Some((AtomId(i as u32), copy(v.as_ref()?))))
                .collect(),
        }
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

    /// Bit-blasts one frame into `g` over `atoms`, whose input and register
    /// entries are set: the combinational atoms in topological order, then
    /// every register's next state. Returns every atom's value and the
    /// next states in [`Netlist::regs`] order.
    fn blast_frame(
        g: &mut Aig,
        netlist: &Netlist,
        topo: &[AtomId],
        mut atoms: Vec<Option<BitVec>>,
    ) -> (Vec<BitVec>, Vec<(AtomId, BitVec)>) {
        for &id in topo {
            if let AtomKind::Comb(e) = &netlist.atoms[id.index()].kind {
                let v = Self::blast(g, e, &atoms);
                atoms[id.index()] = Some(v);
            }
        }
        let mut reg_next = Vec::new();
        for (id, def) in netlist.regs() {
            if let AtomKind::Reg { next, .. } = &def.kind {
                reg_next.push((id, Self::blast(g, next, &atoms)));
            }
        }
        let atoms = atoms
            .into_iter()
            .map(|v| v.expect("all atoms computed"))
            .collect();
        (atoms, reg_next)
    }

    fn blast(g: &mut Aig, nx: &Nx, atoms: &[Option<BitVec>]) -> BitVec {
        match nx {
            Nx::Const { width, value } => BitVec::constant(*width as usize, *value),
            Nx::Atom(a) => atoms[a.index()]
                .clone()
                .expect("atom evaluated before use (topological order)"),
            Nx::Slice { inner, lo, width } => {
                let v = Self::blast(g, inner, atoms);
                v.slice((*lo + *width - 1) as usize, *lo as usize)
            }
            Nx::DynSlice {
                inner,
                index,
                elem_width,
            } => {
                let v = Self::blast(g, inner, atoms);
                let idx = Self::blast(g, index, atoms);
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
                    bits.extend_from_slice(Self::blast(g, p, atoms).bits());
                }
                BitVec::from_bits(bits)
            }
            Nx::Not(i) => Self::blast(g, i, atoms).not(),
            Nx::Neg(i) => {
                let v = Self::blast(g, i, atoms);
                v.neg(g)
            }
            Nx::Bin { op, a, b } => {
                let x = Self::blast(g, a, atoms);
                let y = Self::blast(g, b, atoms);
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
                    NxBin::Eq => BitVec::from_lit(x.eq(g, &y)),
                    NxBin::Ult => BitVec::from_lit(x.ult(g, &y)),
                    NxBin::Ule => BitVec::from_lit(x.ule(g, &y)),
                }
            }
            Nx::Reduce { op, inner } => {
                let v = Self::blast(g, inner, atoms);
                BitVec::from_lit(match op {
                    NxRed::And => v.reduce_and(g),
                    NxRed::Or => v.reduce_or(g),
                    NxRed::Xor => v.reduce_xor(g),
                })
            }
            Nx::Mux { sel, t, e } => {
                let s = Self::blast(g, sel, atoms);
                let tv = Self::blast(g, t, atoms);
                let ev = Self::blast(g, e, atoms);
                BitVec::mux(g, s.bit(0), &tv, &ev)
            }
            Nx::Countones { inner, width } => {
                let v = Self::blast(g, inner, atoms);
                v.countones(g).resize(*width as usize)
            }
            Nx::Onehot(i) => {
                let v = Self::blast(g, i, atoms);
                BitVec::from_lit(v.onehot(g))
            }
            Nx::Onehot0(i) => {
                let v = Self::blast(g, i, atoms);
                BitVec::from_lit(v.onehot0(g))
            }
            Nx::Resize { inner, width } => Self::blast(g, inner, atoms).resize(*width as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_aig::AigEvaluator;
    use sv_parser::parse_source;

    const COUNTER: &str = "module m (clk, reset_, q);\ninput clk; input reset_; output [2:0] q;\n\
                           reg [2:0] cnt;\n\
                           always @(posedge clk) begin\n\
                           if (!reset_) cnt <= 3'd0; else cnt <= cnt + 3'd1;\nend\n\
                           assign q = cnt;\nendmodule\n";

    /// Reaches every `Nx` variant the elaborator emits: reset muxes, a
    /// dynamic bit-select and array read, slices and concatenation,
    /// constant and variable shifts, every arithmetic and comparison
    /// operator, reductions, `$countones`, `$onehot` and `$onehot0`,
    /// and width resizes.
    const EVERY_NX: &str = "module m (clk, reset_, a, b, sel, idx, q, r, p, w);\n\
        input clk; input reset_; input [7:0] a; input [7:0] b; input sel; input [1:0] idx;\n\
        output [7:0] q; output [7:0] r; output p; output [15:0] w;\n\
        reg [7:0] acc; reg [2:0] ptr; reg [3:0] hist; logic [3:0] mem [3:0];\n\
        wire [7:0] arith; wire [7:0] shifts; wire [3:0] flags;\n\
        assign mem[0] = a[3:0]; assign mem[1] = b[7:4]; assign mem[2] = hist; assign mem[3] = ~hist;\n\
        assign arith = (a * b) + (a / b) - (a % b) + (-acc);\n\
        assign shifts = (a << idx) ^ (b >> ptr) ^ (acc >>> idx) ^ (acc << 2);\n\
        assign flags = {&a, |b, ^acc, $onehot(hist)};\n\
        assign q = sel ? {mem[idx], hist} : arith & shifts;\n\
        assign r = $countones(acc) | {a[3:0], b[7:4]};\n\
        assign w = hist + a;\n\
        assign p = $onehot0(flags) || a[idx] || (a < b) || (b <= acc) || (a == acc) || (a != b);\n\
        always @(posedge clk) begin\n\
        if (!reset_) begin acc <= 8'd1; ptr <= 3'd0; hist <= 4'd0; end\n\
        else begin acc <= acc + q - r; ptr <= ptr + 3'd1; hist <= {hist[2:0], p}; end\n\
        end\nendmodule\n";

    fn netlist(src: &str) -> Netlist {
        let f = parse_source(src).unwrap();
        crate::elaborate(&f, "m").unwrap()
    }

    /// The per-frame bit-blaster the template replaced: the whole
    /// netlist blasted into `g` over this frame's values. The
    /// reference that template copies must match node for node.
    fn expand_direct(
        netlist: &Netlist,
        g: &mut Aig,
        reg_values: &HashMap<AtomId, BitVec>,
        input_fn: &mut dyn FnMut(&mut Aig, AtomId, u32) -> BitVec,
    ) -> FrameValues {
        let mut atoms: Vec<Option<BitVec>> = vec![None; netlist.atoms.len()];
        for (i, def) in netlist.atoms.iter().enumerate() {
            let id = AtomId(i as u32);
            match def.kind {
                AtomKind::Input => atoms[i] = Some(input_fn(g, id, def.width)),
                AtomKind::Reg { .. } => {
                    let v = reg_values
                        .get(&id)
                        .cloned()
                        .unwrap_or_else(|| BitVec::constant(def.width as usize, 0));
                    atoms[i] = Some(v);
                }
                AtomKind::Comb(_) => {}
            }
        }
        let topo = netlist.comb_topo_order().unwrap();
        let (atoms, reg_next) = FrameExpander::blast_frame(g, netlist, &topo, atoms);
        FrameValues {
            atoms,
            reg_next: reg_next.into_iter().collect(),
        }
    }

    /// Unrolls `frames` cycles both ways, with the reset input forced
    /// to 1 and every other input free, from `start` (which builds the
    /// frame-0 state in a graph), and requires identical graphs and
    /// literals frame by frame.
    fn assert_template_matches_direct(
        nl: &Netlist,
        frames: usize,
        start: impl Fn(&mut Aig) -> HashMap<AtomId, BitVec>,
    ) {
        let exp = FrameExpander::new(nl).unwrap();
        let reset = nl.reset_name.clone().expect("the design has a reset");
        let mut inputs = |g: &mut Aig, id: AtomId, w: u32| {
            if nl.atom(id).name == reset {
                BitVec::constant(w as usize, 1)
            } else {
                BitVec::input(g, w as usize)
            }
        };
        let (mut g_copy, mut g_direct) = (Aig::new(), Aig::new());
        let (mut s_copy, mut s_direct) = (start(&mut g_copy), start(&mut g_direct));
        for frame in 0..frames {
            let copied = exp.expand(&mut g_copy, &s_copy, &mut inputs);
            let direct = expand_direct(nl, &mut g_direct, &s_direct, &mut inputs);
            assert_eq!(copied.atoms, direct.atoms, "atoms of frame {frame}");
            assert_eq!(
                copied.reg_next, direct.reg_next,
                "next state of frame {frame}"
            );
            assert_eq!(
                (g_copy.num_nodes(), g_copy.num_inputs()),
                (g_direct.num_nodes(), g_direct.num_inputs()),
                "graph after frame {frame}"
            );
            (s_copy, s_direct) = (copied.reg_next, direct.reg_next);
        }
    }

    /// A free frame-0 state, as the provers' shared unrolling uses.
    fn free_state(nl: &Netlist) -> impl Fn(&mut Aig) -> HashMap<AtomId, BitVec> + '_ {
        |g| {
            nl.regs()
                .map(|(id, def)| (id, BitVec::input(g, def.width as usize)))
                .collect()
        }
    }

    #[test]
    fn template_frames_match_direct_blasting() {
        for src in [COUNTER, EVERY_NX] {
            let nl = netlist(src);
            let exp = FrameExpander::new(&nl).unwrap();
            assert_template_matches_direct(&nl, 6, free_state(&nl));
            assert_template_matches_direct(&nl, 6, |_| exp.initial_state());
            // A register missing from the state reads 0.
            assert_template_matches_direct(&nl, 3, |_| HashMap::new());
        }
    }

    #[test]
    fn every_nx_variant_is_reached() {
        fn visit(nx: &Nx, seen: &mut Vec<&'static str>) {
            let (name, children): (&'static str, Vec<&Nx>) = match nx {
                Nx::Const { .. } => ("const", vec![]),
                Nx::Atom(_) => ("atom", vec![]),
                Nx::Slice { inner, .. } => ("slice", vec![inner]),
                Nx::DynSlice { inner, index, .. } => ("dynslice", vec![inner, index]),
                Nx::Concat(parts) => ("concat", parts.iter().collect()),
                Nx::Not(i) => ("not", vec![i]),
                Nx::Neg(i) => ("neg", vec![i]),
                Nx::Bin { op, a, b } => {
                    seen.push(match op {
                        NxBin::Add => "add",
                        NxBin::Sub => "sub",
                        NxBin::Mul => "mul",
                        NxBin::Div => "div",
                        NxBin::Mod => "mod",
                        NxBin::And => "and",
                        NxBin::Or => "or",
                        NxBin::Xor => "xor",
                        NxBin::Shl => "shl",
                        NxBin::LShr => "lshr",
                        NxBin::Eq => "eq",
                        NxBin::Ult => "ult",
                        NxBin::Ule => "ule",
                    });
                    ("bin", vec![a, b])
                }
                Nx::Reduce { op, inner } => {
                    seen.push(match op {
                        NxRed::And => "redand",
                        NxRed::Or => "redor",
                        NxRed::Xor => "redxor",
                    });
                    ("reduce", vec![inner])
                }
                Nx::Mux { sel, t, e } => ("mux", vec![sel, t, e]),
                Nx::Countones { inner, .. } => ("countones", vec![inner]),
                Nx::Onehot(i) => ("onehot", vec![i]),
                Nx::Onehot0(i) => ("onehot0", vec![i]),
                Nx::Resize { inner, .. } => ("resize", vec![inner]),
            };
            seen.push(name);
            for c in children {
                visit(c, seen);
            }
        }
        let nl = netlist(EVERY_NX);
        let mut seen = Vec::new();
        for def in &nl.atoms {
            match &def.kind {
                AtomKind::Comb(e) | AtomKind::Reg { next: e, .. } => visit(e, &mut seen),
                AtomKind::Input => {}
            }
        }
        for want in [
            "const",
            "atom",
            "slice",
            "dynslice",
            "concat",
            "not",
            "neg",
            "add",
            "sub",
            "mul",
            "div",
            "mod",
            "and",
            "or",
            "xor",
            "shl",
            "lshr",
            "eq",
            "ult",
            "ule",
            "redand",
            "redor",
            "redxor",
            "mux",
            "countones",
            "onehot",
            "onehot0",
            "resize",
        ] {
            assert!(seen.contains(&want), "EVERY_NX never reaches {want}");
        }
    }

    #[test]
    fn unrolled_counter_counts() {
        let nl = netlist(COUNTER);
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
        let nl = netlist(COUNTER);
        let exp = FrameExpander::new(&nl).unwrap();
        let init = exp.initial_state();
        assert_eq!(init.len(), 1);
        let (_, bv) = init.iter().next().unwrap();
        assert_eq!(bv.width(), 3);
    }
}
