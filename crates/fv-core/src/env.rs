//! Trace environments: where assertion signals get their per-cycle
//! values from.

use crate::error::EncodeError;
use crate::table::SignalTable;
use fv_aig::{Aig, BitVec};
use std::collections::HashMap;
use sv_ast::SymbolMap;
use sv_synth::{AtomId, AtomKind, FrameExpander, FrameValues};

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

/// Design-trace environment: signals resolve against unrolled time
/// frames of an elaborated netlist. Used by the Design2SVA prover; a
/// [`crate::ProofSession`] keeps one alive per design so the frames
/// amortize across every candidate assertion.
///
/// Frame 0 starts from a free (symbolic) state: every register bit is
/// a fresh primary input, recorded with its reset value in
/// [`DesignTraceEnv::initial_state_bits`]. Provers pin those bits to
/// reset under a solver selector (BMC, PDR's initial frame) or leave
/// them free (the k-induction step).
pub struct DesignTraceEnv<'a> {
    expander: FrameExpander<'a>,
    frames: Vec<FrameValues>,
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
    initial_bits: Vec<(fv_aig::AigLit, bool)>,
    /// Whether any read referenced a negative (pre-anchor) cycle.
    negative_read: bool,
}

impl<'a> DesignTraceEnv<'a> {
    /// Creates an environment over `expander`'s netlist, taking
    /// ownership of the expander (its topological order is computed
    /// once per design and reused for every frame).
    pub fn new(expander: FrameExpander<'a>) -> DesignTraceEnv<'a> {
        // Standard formal setup: reset deasserted throughout.
        let netlist = expander.netlist();
        let reset = netlist
            .inputs()
            .find(|(_, def)| netlist.reset_name.as_ref() == Some(&def.name))
            .map(|(id, _)| id);
        DesignTraceEnv {
            expander,
            frames: Vec::new(),
            consts: HashMap::new(),
            reset,
            input_log: Vec::new(),
            touched_frames: 0,
            initial_bits: Vec::new(),
            negative_read: false,
        }
    }

    /// Adds a constant binding visible to assertions.
    pub fn bind_const(&mut self, name: impl Into<String>, width: u32, value: u128) {
        self.consts.insert(name.into(), (width, value));
    }

    /// Ensures frames `0..=cycle` exist.
    pub fn ensure_frames(&mut self, g: &mut Aig, cycle: u32) {
        let netlist = self.expander.netlist();
        while self.frames.len() <= cycle as usize {
            let frame_idx = self.frames.len() as u32;
            let (reset, log) = (self.reset, &mut self.input_log);
            let mut input_fn = |g: &mut Aig, id: AtomId, w: u32| {
                if reset == Some(id) {
                    BitVec::constant(w as usize, u128::MAX)
                } else {
                    let bv = BitVec::input(g, w as usize);
                    log.push((netlist.atom(id).name.as_str(), frame_idx, bv.clone()));
                    bv
                }
            };
            let frame = match self.frames.last() {
                Some(prev) => self.expander.expand(g, &prev.reg_next, &mut input_fn),
                None => {
                    let state = netlist
                        .regs()
                        .map(|(id, def)| {
                            let bv = BitVec::input(g, def.width as usize);
                            if let AtomKind::Reg { init, .. } = def.kind {
                                for (i, &bit) in bv.bits().iter().enumerate() {
                                    self.initial_bits.push((bit, (init >> i) & 1 == 1));
                                }
                            }
                            (id, bv)
                        })
                        .collect();
                    self.expander.expand(g, &state, &mut input_fn)
                }
            };
            self.frames.push(frame);
        }
    }

    /// Number of frames expanded so far.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
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

    /// Frame-0 register bits, paired with each bit's reset value, in
    /// netlist register order (LSB first). Empty until frame 0 exists.
    pub fn initial_state_bits(&self) -> &[(fv_aig::AigLit, bool)] {
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

    /// The next-state bits computed by frame `frame`, flattened in the
    /// same deterministic order as [`DesignTraceEnv::initial_state_bits`]
    /// (netlist register order, LSB first). Panics if the frame does
    /// not exist yet.
    pub fn reg_next_bits(&self, frame: usize) -> Vec<fv_aig::AigLit> {
        let fv = &self.frames[frame];
        let mut out = Vec::new();
        for (id, _) in self.expander.netlist().regs() {
            out.extend(fv.reg_next[&id].bits().iter().copied());
        }
        out
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
        self.ensure_frames(g, cycle);
        Ok(self.frames[cycle as usize].read_net(binding))
    }

    fn constant(&self, name: &str) -> Option<(u32, u128)> {
        self.consts.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
