//! Template-instantiated time frames against the reference simulator:
//! for every generator family, frames unrolled by copying the
//! `FrameExpander`'s compiled template must agree with
//! `sv_synth::Simulator` on every atom, cycle by cycle, under random
//! stimuli from the reset state.

use fveval_repro::fv_aig::{Aig, AigEvaluator, BitVec};
use fveval_repro::prelude::*;
use fveval_repro::sv_synth::{AtomId, FrameExpander, Netlist};
use std::cell::RefCell;
use std::collections::HashMap;

/// Cycles simulated per design.
const CYCLES: usize = 12;

/// Deterministic xorshift stimuli.
struct Stimuli(u64);

impl Stimuli {
    fn next(&mut self, width: u32) -> u128 {
        let mut word = || {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            u128::from(self.0)
        };
        let v = word() | (word() << 64);
        v & mask(width)
    }
}

fn mask(width: u32) -> u128 {
    if width >= 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

/// Unrolls `CYCLES` frames from the reset state with every input a free
/// AIG input, draws each input's value at random, evaluates the graph
/// once, and compares every atom of every frame with the simulator.
fn assert_frames_match_simulator(netlist: &Netlist, seed: u64, what: &str) {
    let exp = FrameExpander::new(netlist).unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut g = Aig::new();
    let mut stimuli = Stimuli(seed | 1);
    // Input values in AIG input order, and per cycle by atom name.
    let mut input_bits: Vec<bool> = Vec::new();
    let mut by_cycle: Vec<HashMap<String, u128>> = Vec::new();
    let mut state = exp.initial_state();
    let mut frames = Vec::new();
    for _ in 0..CYCLES {
        let drawn = RefCell::new(HashMap::new());
        let frame = exp.expand(&mut g, &state, &mut |g, id: AtomId, w| {
            let value = stimuli.next(w);
            input_bits.extend((0..w).map(|i| (value >> i) & 1 == 1));
            drawn
                .borrow_mut()
                .insert(netlist.atom(id).name.clone(), value);
            BitVec::input(g, w as usize)
        });
        state = frame.reg_next.clone();
        frames.push(frame);
        by_cycle.push(drawn.into_inner());
    }
    assert_eq!(input_bits.len(), g.num_inputs(), "{what}");
    let ev = AigEvaluator::combinational(&g, &input_bits);

    let mut sim = Simulator::new(netlist).unwrap();
    for (cycle, (frame, drawn)) in frames.iter().zip(&by_cycle).enumerate() {
        sim.step(&|name, _| drawn[name]);
        for (i, def) in netlist.atoms.iter().enumerate() {
            let bits = &frame.atoms[i];
            let aig: u128 = bits
                .bits()
                .iter()
                .enumerate()
                .map(|(b, &l)| u128::from(ev.lit(l)) << b)
                .sum();
            let simulated = sim.atom_value(AtomId(i as u32)) & mask(def.width);
            assert_eq!(
                aig, simulated,
                "{what}: atom '{}' at cycle {cycle}",
                def.name
            );
        }
    }
}

#[test]
fn template_frames_match_the_simulator_on_every_family() {
    let families = generators();
    assert_eq!(families.len(), 12);
    for gen in &families {
        for seed in 0..2u64 {
            let scenario = gen.generate(&GenParams {
                seed,
                ..GenParams::default()
            });
            let compiled = scenario
                .compile()
                .unwrap_or_else(|e| panic!("{}: {e}", scenario.id));
            assert_frames_match_simulator(
                compiled.netlist(),
                0x5EED ^ seed.wrapping_mul(0x9E37_79B9),
                &scenario.id,
            );
        }
    }
}

#[test]
fn template_frames_match_the_simulator_on_the_design_sweeps() {
    for case in pipeline_sweep(4, 31).into_iter().chain(fsm_sweep(4, 32)) {
        let compiled = compile_design(&case).unwrap_or_else(|e| panic!("{}: {e}", case.id));
        assert_frames_match_simulator(compiled.netlist(), 0xF4A3, &case.id);
    }
}
