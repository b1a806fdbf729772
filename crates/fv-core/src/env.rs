//! Trace environments: where assertion signals get their per-cycle
//! values from.

use crate::error::EncodeError;
use crate::table::SignalTable;
use fv_aig::{Aig, AigLit, BitVec, Node};
use std::collections::HashMap;
use sv_ast::SymbolMap;
use sv_synth::{AtomId, AtomKind, FrameExpander};

/// Supplies per-cycle signal values to the monitor encoder.
pub trait TraceEnv {
    /// Reads signal `name` at `cycle` (negative cycles are the sampled
    /// pre-history used by `$past`/`$rose`).
    ///
    /// # Errors
    ///
    /// [`EncodeError::UnknownSignal`] when the name is not in scope.
    fn read(&mut self, g: &mut Aig, name: &str, cycle: i32) -> Result<BitVec, EncodeError>;

    /// Constant binding (testbench parameters), if `name` is one.
    fn constant(&self, name: &str) -> Option<(u32, u128)> {
        let _ = name;
        None
    }
}

/// Free-trace environment: every `(signal, cycle)` pair is a fresh
/// vector of AIG inputs. This is the assertion-equivalence setting —
/// testbench signals are unconstrained.
///
/// When shared across an [`crate::EquivSession`]'s candidates, the
/// environment additionally tracks which slots the *current* check
/// read ([`FreeTraceEnv::reset_touched`]), so counterexample traces
/// report only the signals that check depends on — matching what a
/// fresh single-check environment would contain.
#[derive(Debug)]
pub struct FreeTraceEnv<'a> {
    table: &'a SignalTable,
    /// Signal name, then cycle, to the slot's index in the log. Probed
    /// by the borrowed name, so a read allocates only for a new slot.
    slots: HashMap<String, SymbolMap<i32, usize>>,
    /// Allocation log for counterexample decoding.
    log: Vec<(String, i32, BitVec)>,
    /// Per-log-entry flag: read since the last
    /// [`FreeTraceEnv::reset_touched`].
    touched: Vec<bool>,
}

impl<'a> FreeTraceEnv<'a> {
    /// Creates an environment over the given signal table.
    pub fn new(table: &'a SignalTable) -> FreeTraceEnv<'a> {
        FreeTraceEnv {
            table,
            slots: HashMap::new(),
            log: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// The allocation log: `(signal, cycle, bits)` in creation order.
    pub fn log(&self) -> &[(String, i32, BitVec)] {
        &self.log
    }

    /// Clears the per-check touched marks; subsequent reads mark their
    /// slots again. A session calls this before each candidate.
    pub fn reset_touched(&mut self) {
        self.touched.iter_mut().for_each(|t| *t = false);
    }

    /// The log entries read since the last
    /// [`FreeTraceEnv::reset_touched`] — the slots the current check's
    /// monitors actually depend on.
    pub fn touched_log(&self) -> impl Iterator<Item = &(String, i32, BitVec)> {
        self.log
            .iter()
            .zip(&self.touched)
            .filter_map(|(entry, &touched)| touched.then_some(entry))
    }

    /// Log indices currently marked touched. A session snapshots these
    /// after compiling a reference so a later cache hit can restore
    /// them via [`FreeTraceEnv::mark_touched`].
    pub fn touched_indices(&self) -> Vec<usize> {
        self.touched
            .iter()
            .enumerate()
            .filter_map(|(i, &t)| t.then_some(i))
            .collect()
    }

    /// Re-marks previously snapshotted slots as touched (a cached
    /// encoding performs no reads, but its trace slots are still part
    /// of any counterexample built on it).
    pub fn mark_touched(&mut self, indices: &[usize]) {
        for &i in indices {
            self.touched[i] = true;
        }
    }
}

impl TraceEnv for FreeTraceEnv<'_> {
    fn read(&mut self, g: &mut Aig, name: &str, cycle: i32) -> Result<BitVec, EncodeError> {
        if let Some(&idx) = self.slots.get(name).and_then(|cycles| cycles.get(&cycle)) {
            self.touched[idx] = true;
            return Ok(self.log[idx].2.clone());
        }
        let width = self
            .table
            .width(name)
            .ok_or_else(|| EncodeError::UnknownSignal(name.to_string()))?;
        let bv = BitVec::input(g, width as usize);
        self.slots
            .entry(name.to_string())
            .or_default()
            .insert(cycle, self.log.len());
        self.log.push((name.to_string(), cycle, bv.clone()));
        self.touched.push(true);
        Ok(bv)
    }

    fn constant(&self, name: &str) -> Option<(u32, u128)> {
        self.table.constant(name)
    }
}

/// Marks a template node not yet built in a frame.
const UNBUILT: u32 = u32::MAX;

/// Design-trace environment: signals resolve against unrolled time
/// frames of an elaborated netlist. Used by the Design2SVA prover; a
/// [`crate::ProofSession`] keeps one alive per design so the frames
/// amortize across every candidate assertion.
///
/// Frames are built by cone. A read of net `n` at frame `t` copies only
/// the template nodes in `n`'s fan-in at `t` into the caller's graph,
/// reaching through registers into earlier frames, and each (template
/// node, frame) pair is copied at most once. An input atom is created
/// whole the first time any of its bits is reached in a frame.
/// [`DesignTraceEnv::ensure_frames`] fills whole frames instead, node
/// for node as [`FrameExpander::expand`] would.
///
/// Frame 0 starts from a free (symbolic) state: every register bit is
/// a fresh primary input, recorded with its reset value in
/// [`DesignTraceEnv::initial_state_bits`]. Provers pin those bits to
/// reset under a solver selector (BMC, PDR's initial frame) or leave
/// them free (the k-induction step).
pub struct DesignTraceEnv<'a> {
    expander: FrameExpander<'a>,
    /// Per frame, the image of every template node in the caller's
    /// graph as an [`AigLit::raw`] literal, or [`UNBUILT`]: frame `t`
    /// holds entries `t * stride .. (t + 1) * stride`.
    images: Vec<u32>,
    /// The template's node count.
    stride: usize,
    /// Frames allocated so far (highest frame index read + 1).
    frames: usize,
    /// Leading frames filled whole by [`DesignTraceEnv::ensure_frames`].
    full: usize,
    /// Extra constant bindings (testbench parameters such as `S0`).
    consts: HashMap<String, (u32, u128)>,
    /// The reset input, held deasserted (all ones) in every frame;
    /// resolved from the netlist's reset name once.
    reset: Option<AtomId>,
    /// Input allocation log per frame, for counterexample decoding.
    input_log: Vec<(&'a str, u32, BitVec)>,
    /// Frames read since the last
    /// [`DesignTraceEnv::reset_touched_frames`] (count, i.e. highest
    /// frame index read + 1). Lets a session report how much of the
    /// shared unrolling each candidate actually revisited, and trim its
    /// counterexamples to the frames that candidate uses.
    touched_frames: u32,
    /// Frame-0 register bits, paired with the reset value each bit
    /// would have: `(bit, init)`. BMC on the shared free-state
    /// unrolling pins these through a solver selector group instead of
    /// baking constants into the AIG.
    initial_bits: Vec<(AigLit, bool)>,
    /// Whether any read referenced a negative (pre-anchor) cycle.
    negative_read: bool,
    /// The explicit DFS stack of a cone read: `(frame, template
    /// node)`. Kept to reuse its allocation.
    stack: Vec<(u32, u32)>,
}

impl<'a> DesignTraceEnv<'a> {
    /// Creates an environment over `expander`'s netlist, taking
    /// ownership of the expander (its template is compiled once per
    /// design and copied from for every frame).
    pub fn new(expander: FrameExpander<'a>) -> DesignTraceEnv<'a> {
        // Standard formal setup: reset deasserted throughout.
        let netlist = expander.netlist();
        let reset = netlist
            .inputs()
            .find(|(_, def)| netlist.reset_name.as_ref() == Some(&def.name))
            .map(|(id, _)| id);
        DesignTraceEnv {
            stride: expander.template().num_nodes(),
            expander,
            images: Vec::new(),
            frames: 0,
            full: 0,
            consts: HashMap::new(),
            reset,
            input_log: Vec::new(),
            touched_frames: 0,
            initial_bits: Vec::new(),
            negative_read: false,
            stack: Vec::new(),
        }
    }

    /// The expander this environment copies frames from.
    pub(crate) fn expander(&self) -> &FrameExpander<'a> {
        &self.expander
    }

    /// Adds a constant binding visible to assertions.
    pub fn bind_const(&mut self, name: impl Into<String>, width: u32, value: u128) {
        self.consts.insert(name.into(), (width, value));
    }

    /// Ensures frames `0..=cycle` exist and are built whole: frame 0's
    /// registers in netlist order, then each frame's input atoms in
    /// atom order, then its template nodes in ascending id. On a fresh
    /// environment this adds to `g` exactly the nodes, in the same
    /// order, that [`FrameExpander::expand`] would.
    pub fn ensure_frames(&mut self, g: &mut Aig, cycle: u32) {
        self.allocate(cycle);
        let netlist = self.expander.netlist();
        while self.full <= cycle as usize {
            let t = self.full;
            if t == 0 {
                for (id, _) in netlist.regs() {
                    if !self.atom_built(0, id) {
                        self.build_free_register(g, id);
                    }
                }
            }
            for (id, _) in netlist.inputs() {
                if !self.atom_built(t, id) {
                    self.build_input(g, t, id);
                }
            }
            for n in 0..self.stride {
                if !self.built(t, n) {
                    self.build(g, t, n);
                }
            }
            self.full += 1;
        }
    }

    /// Number of frames allocated so far: the highest frame read or
    /// ensured, plus one.
    pub fn num_frames(&self) -> usize {
        self.frames
    }

    /// The input allocation log: `(signal, frame, bits)`.
    pub fn input_log(&self) -> &[(&'a str, u32, BitVec)] {
        &self.input_log
    }

    /// Clears the per-check frame high-water mark; subsequent reads
    /// raise it again. A session calls this before each candidate.
    pub fn reset_touched_frames(&mut self) {
        self.touched_frames = 0;
    }

    /// Frames read since the last
    /// [`DesignTraceEnv::reset_touched_frames`] (highest frame index
    /// read + 1; `0` if none).
    pub fn touched_frames(&self) -> u32 {
        self.touched_frames
    }

    /// Frame-0 register bits, paired with each bit's reset value, LSB
    /// first per register. A register enters the first time a read
    /// reaches it at frame 0, whole; after
    /// [`DesignTraceEnv::ensure_frames`] on a fresh environment the
    /// order is netlist register order.
    pub fn initial_state_bits(&self) -> &[(AigLit, bool)] {
        &self.initial_bits
    }

    /// Whether any read so far referenced a negative (pre-anchor)
    /// cycle. Such reads clamp to frame 0, which is only sound for
    /// monitors anchored at the initial state — engines that anchor a
    /// check at arbitrary reachable states (PDR) must refuse designs
    /// where this fired.
    pub fn saw_negative_read(&self) -> bool {
        self.negative_read
    }

    /// The next-state bits computed by frame `frame`, in netlist
    /// register order, LSB first: the order of
    /// [`DesignTraceEnv::initial_state_bits`] after
    /// [`DesignTraceEnv::ensure_frames`].
    ///
    /// # Panics
    ///
    /// Panics unless [`DesignTraceEnv::ensure_frames`] has built the
    /// frame.
    pub fn reg_next_bits(&self, frame: usize) -> Vec<AigLit> {
        assert!(frame < self.full, "frame {frame} is not built whole");
        let mut out = Vec::new();
        for (id, _) in self.expander.netlist().regs() {
            let next = self.expander.next_state_template(id).expect("a register");
            out.extend(next.bits().iter().map(|&l| self.image(frame, l)));
        }
        out
    }

    /// Allocates frames `0..=cycle`, every node unbuilt but the
    /// constant.
    fn allocate(&mut self, cycle: u32) {
        while self.frames <= cycle as usize {
            let base = self.images.len();
            self.images.resize(base + self.stride, UNBUILT);
            self.images[base] = AigLit::FALSE.raw();
            self.frames += 1;
        }
    }

    /// Whether template node `n` is built in frame `t`.
    #[inline]
    fn built(&self, t: usize, n: usize) -> bool {
        self.images[t * self.stride + n] != UNBUILT
    }

    /// Whether atom `id` (an input or register) is built in frame `t`:
    /// such atoms are built whole, so their first bit tells.
    fn atom_built(&self, t: usize, id: AtomId) -> bool {
        let first = self.expander.atom_template(id).bit(0);
        self.built(t, first.node().index())
    }

    /// The image in frame `t` of template literal `l`, whose node is
    /// built.
    #[inline]
    fn image(&self, t: usize, l: AigLit) -> AigLit {
        let raw = self.images[t * self.stride + l.node().index()];
        debug_assert_ne!(raw, UNBUILT, "template node read before it is built");
        AigLit::from_raw(raw ^ u32::from(l.is_inverted()))
    }

    /// Records `value` as the image in frame `t` of every bit of atom
    /// `id`, whose template bits are plain input literals.
    fn set_atom(&mut self, t: usize, id: AtomId, value: &BitVec) {
        let frame = &mut self.images[t * self.stride..(t + 1) * self.stride];
        let template = self.expander.atom_template(id);
        for (tb, &vb) in template.bits().iter().zip(value.bits()) {
            debug_assert!(!tb.is_inverted());
            frame[tb.node().index()] = vb.raw();
        }
    }

    /// Builds input atom `id` whole in frame `t`: fresh inputs, logged
    /// for counterexample decoding, or constant ones for the reset.
    fn build_input(&mut self, g: &mut Aig, t: usize, id: AtomId) {
        let def = self.expander.netlist().atom(id);
        let value = if self.reset == Some(id) {
            BitVec::constant(def.width as usize, u128::MAX)
        } else {
            let bv = BitVec::input(g, def.width as usize);
            self.input_log
                .push((def.name.as_str(), t as u32, bv.clone()));
            bv
        };
        self.set_atom(t, id, &value);
    }

    /// Builds register `id` whole in frame 0 as fresh inputs, recording
    /// each bit's reset value.
    fn build_free_register(&mut self, g: &mut Aig, id: AtomId) {
        let def = self.expander.netlist().atom(id);
        let bv = BitVec::input(g, def.width as usize);
        if let AtomKind::Reg { init, .. } = def.kind {
            for (i, &bit) in bv.bits().iter().enumerate() {
                self.initial_bits.push((bit, (init >> i) & 1 == 1));
            }
        }
        self.set_atom(0, id, &bv);
    }

    /// Builds template node `n` in frame `t`, whose fan-in is built:
    /// the one per-node step behind both cone reads and whole frames.
    fn build(&mut self, g: &mut Aig, t: usize, n: usize) {
        let lit = match self.expander.template().nodes()[n] {
            Node::False => AigLit::FALSE,
            Node::And(a, b) => {
                let (a, b) = (self.image(t, a), self.image(t, b));
                g.and(a, b)
            }
            Node::Input(k) => {
                let (id, bit) = self.expander.template_input(k);
                match self.expander.next_state_template(id) {
                    None => return self.build_input(g, t, id),
                    Some(_) if t == 0 => return self.build_free_register(g, id),
                    Some(next) => self.image(t - 1, next.bit(bit as usize)),
                }
            }
        };
        self.images[t * self.stride + n] = lit.raw();
    }

    /// Builds the cone of template literal `l` in frame `t` and returns
    /// its image. An explicit-stack DFS, since cones through deep
    /// logic and many frames outgrow the call stack: the node on top is
    /// built once its fan-in (lower operand first) is.
    fn resolve(&mut self, g: &mut Aig, t: usize, l: AigLit) -> AigLit {
        let root = l.node().index();
        if !self.built(t, root) {
            let mut stack = std::mem::take(&mut self.stack);
            stack.push((t as u32, root as u32));
            while let Some(&(t, n)) = stack.last() {
                let (t, n) = (t as usize, n as usize);
                if self.built(t, n) {
                    stack.pop();
                    continue;
                }
                let waiting = stack.len();
                match self.expander.template().nodes()[n] {
                    Node::And(a, b) => {
                        for x in [b, a] {
                            if !self.built(t, x.node().index()) {
                                stack.push((t as u32, x.node().index() as u32));
                            }
                        }
                    }
                    Node::Input(k) if t > 0 => {
                        let (id, bit) = self.expander.template_input(k);
                        if let Some(next) = self.expander.next_state_template(id) {
                            let x = next.bit(bit as usize).node().index();
                            if !self.built(t - 1, x) {
                                stack.push((t as u32 - 1, x as u32));
                            }
                        }
                    }
                    Node::False | Node::Input(_) => {}
                }
                if stack.len() == waiting {
                    self.build(g, t, n);
                    stack.pop();
                }
            }
            self.stack = stack;
        }
        self.image(t, l)
    }
}

impl TraceEnv for DesignTraceEnv<'_> {
    fn read(&mut self, g: &mut Aig, name: &str, cycle: i32) -> Result<BitVec, EncodeError> {
        if let Some(&(w, v)) = self.consts.get(name) {
            return Ok(BitVec::constant(w as usize, v));
        }
        // Pre-history clamps to the reset state (documented).
        if cycle < 0 {
            self.negative_read = true;
        }
        let cycle = cycle.max(0) as u32;
        self.touched_frames = self.touched_frames.max(cycle + 1);
        let binding = self
            .expander
            .netlist()
            .net(name)
            .ok_or_else(|| EncodeError::UnknownSignal(name.to_string()))?;
        self.allocate(cycle);
        let mut bits = Vec::with_capacity(binding.width as usize);
        for seg in &binding.segs {
            for i in seg.lo..seg.lo + seg.width {
                let l = self.expander.atom_template(seg.atom).bit(i as usize);
                bits.push(self.resolve(g, cycle as usize, l));
            }
        }
        Ok(BitVec::from_bits(bits))
    }

    fn constant(&self, name: &str) -> Option<(u32, u128)> {
        self.consts.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_synth::Netlist;

    /// Two registers (one fed by the other), an input, and a reset.
    fn design() -> Netlist {
        let src = "module m (clk, reset_, en, d, q, hit);\n\
            input clk; input reset_; input en; input [3:0] d;\n\
            output [3:0] q; output hit;\n\
            reg [3:0] cnt; reg [3:0] last;\n\
            always @(posedge clk) begin\n\
            if (!reset_) begin cnt <= 4'd5; last <= 4'd0; end\n\
            else begin if (en) cnt <= cnt + d; last <= cnt; end\nend\n\
            assign q = last;\nassign hit = (cnt == d);\nendmodule\n";
        let f = sv_parser::parse_source(src).unwrap();
        sv_synth::elaborate(&f, "m").unwrap()
    }

    #[test]
    fn whole_frames_match_expand_node_for_node() {
        let nl = design();
        let exp = FrameExpander::new(&nl).unwrap();
        let mut want = Aig::new();
        let mut state: HashMap<AtomId, BitVec> = nl
            .regs()
            .map(|(id, def)| (id, BitVec::input(&mut want, def.width as usize)))
            .collect();
        let free: Vec<AigLit> = nl
            .regs()
            .flat_map(|(id, _)| state[&id].bits().to_vec())
            .collect();
        let mut next = Vec::new();
        for _ in 0..4 {
            let frame = exp.expand(&mut want, &state, &mut |g, id, w| {
                if nl.atom(id).name == "reset_" {
                    BitVec::constant(w as usize, u128::MAX)
                } else {
                    BitVec::input(g, w as usize)
                }
            });
            let bits: Vec<AigLit> = nl
                .regs()
                .flat_map(|(id, _)| frame.reg_next[&id].bits().to_vec())
                .collect();
            next.push(bits);
            state = frame.reg_next;
        }

        let mut env = DesignTraceEnv::new(FrameExpander::new(&nl).unwrap());
        let mut g = Aig::new();
        env.ensure_frames(&mut g, 0);
        assert_eq!(g.nodes(), &want.nodes()[..g.num_nodes()], "frame 0");
        env.ensure_frames(&mut g, 3);
        assert_eq!(g.nodes(), want.nodes(), "frames 0-3");
        assert_eq!(env.num_frames(), 4);
        let init: Vec<AigLit> = env.initial_state_bits().iter().map(|b| b.0).collect();
        assert_eq!(init, free);
        for (t, bits) in next.iter().enumerate() {
            assert_eq!(&env.reg_next_bits(t), bits, "next state of frame {t}");
        }
        // Whole frames answer every read without a new node.
        let q = env.read(&mut g, "q", 3).unwrap();
        assert_eq!(g.num_nodes(), want.num_nodes());
        assert_eq!(q.width(), 4);
    }

    #[test]
    fn a_read_builds_only_its_cone_and_each_node_once() {
        let nl = design();
        let mut env = DesignTraceEnv::new(FrameExpander::new(&nl).unwrap());
        let mut g = Aig::new();
        // `q` at frame 2 is `cnt` at frame 1: frame 0's `cnt`, `en`
        // and `d`, never `last` at frame 0 or anything of frame 2.
        let q = env.read(&mut g, "q", 2).unwrap();
        assert_eq!(env.num_frames(), 3);
        assert_eq!(env.touched_frames(), 3);
        let logged: Vec<(&str, u32)> = env.input_log().iter().map(|e| (e.0, e.1)).collect();
        assert_eq!(logged, [("en", 0), ("d", 0)]);
        assert_eq!(env.initial_state_bits().len(), 4, "cnt only");
        let inits: Vec<bool> = env.initial_state_bits().iter().map(|b| b.1).collect();
        assert_eq!(inits, [true, false, true, false], "cnt resets to 5");
        let nodes = g.num_nodes();
        assert_eq!(env.read(&mut g, "q", 2).unwrap(), q);
        assert_eq!(g.num_nodes(), nodes, "a repeated read builds nothing");
        // Filling the frames whole adds the rest, then reads are free.
        env.ensure_frames(&mut g, 2);
        assert_eq!(env.initial_state_bits().len(), 8);
        assert_eq!(env.read(&mut g, "q", 2).unwrap(), q);
        let nodes = g.num_nodes();
        env.read(&mut g, "hit", 1).unwrap();
        assert_eq!(g.num_nodes(), nodes);
    }

    #[test]
    fn the_reset_reads_deasserted_and_logs_nothing() {
        let nl = design();
        let mut env = DesignTraceEnv::new(FrameExpander::new(&nl).unwrap());
        let mut g = Aig::new();
        let reset = env.read(&mut g, "reset_", 4).unwrap();
        assert_eq!(reset.bits(), [AigLit::TRUE]);
        assert!(env.input_log().is_empty());
        assert_eq!(g.num_nodes(), 1);
    }

    #[test]
    fn free_env_is_stable_per_slot() {
        let table: SignalTable = [("a", 4u32)].into_iter().collect();
        let mut env = FreeTraceEnv::new(&table);
        let mut g = Aig::new();
        let x1 = env.read(&mut g, "a", 0).unwrap();
        let x2 = env.read(&mut g, "a", 0).unwrap();
        assert_eq!(x1, x2, "same slot reuses inputs");
        let y = env.read(&mut g, "a", 1).unwrap();
        assert_ne!(x1, y, "different cycles get fresh inputs");
        assert_eq!(env.log().len(), 2);
    }

    #[test]
    fn free_env_rejects_unknown() {
        let table = SignalTable::new();
        let mut env = FreeTraceEnv::new(&table);
        let mut g = Aig::new();
        assert_eq!(
            env.read(&mut g, "ghost", 0),
            Err(EncodeError::UnknownSignal("ghost".into()))
        );
    }

    #[test]
    fn negative_cycles_allocate_prehistory() {
        let table: SignalTable = [("a", 1u32)].into_iter().collect();
        let mut env = FreeTraceEnv::new(&table);
        let mut g = Aig::new();
        let pre = env.read(&mut g, "a", -1).unwrap();
        let now = env.read(&mut g, "a", 0).unwrap();
        assert_ne!(pre, now);
    }
}
