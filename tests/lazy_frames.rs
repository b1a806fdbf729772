//! Time frames built by cone against whole ones: every net that
//! `DesignTraceEnv` reads at frames 0–7 must evaluate equal to the same
//! net of `FrameExpander::expand`'s eager frames, under one random
//! assignment keyed by (atom, frame, bit) that both graphs share; a
//! narrow read builds a small part of the unrolling; and
//! counterexamples from sessions built by cone replay on the reference
//! simulator.

use fveval_repro::fv_aig::{Aig, AigEvaluator, BitVec, NodeId};
use fveval_repro::fv_core::{DesignCex, DesignTraceEnv, TraceEnv};
use fveval_repro::prelude::*;
use fveval_repro::sv_ast::ModuleItem;
use fveval_repro::sv_synth::{AtomId, AtomKind, FrameExpander, Netlist};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Frames read per design.
const FRAMES: u32 = 8;

/// The shared random value of one primary-input bit.
fn keyed(seed: u64, (atom, frame, bit): (AtomId, u32, u32)) -> bool {
    let mut z = seed
        ^ u64::from(atom.0).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(frame).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ u64::from(bit).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 1 == 1
}

fn is_reset(netlist: &Netlist, id: AtomId) -> bool {
    netlist.reset_name.as_deref() == Some(netlist.atom(id).name.as_str())
}

/// Reads every net at frames 0–7 through a fresh `DesignTraceEnv`,
/// latest frame first (so reads reach back through registers into
/// frames nothing has built yet), and compares each bit with the
/// eager unrolling's.
fn assert_cone_reads_match_expand(netlist: &Netlist, consts: &[(String, u32, u128)], what: &str) {
    let seed = 0x1A2B_3C4D ^ netlist.atoms.len() as u64;
    let atom_of: HashMap<&str, AtomId> = netlist
        .atoms
        .iter()
        .enumerate()
        .map(|(i, def)| (def.name.as_str(), AtomId(i as u32)))
        .collect();
    let mut names: Vec<&str> = netlist.net_names().map(|(n, _)| n).collect();
    names.sort_unstable();

    // Eager: a free frame-0 state, the reset held deasserted.
    let exp = FrameExpander::new(netlist).unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut g = Aig::new();
    let mut keys = Vec::new();
    let mut state: HashMap<AtomId, BitVec> = netlist
        .regs()
        .map(|(id, def)| {
            keys.extend((0..def.width).map(|bit| (id, 0, bit)));
            (id, BitVec::input(&mut g, def.width as usize))
        })
        .collect();
    let mut frames = Vec::new();
    for t in 0..FRAMES {
        let frame = exp.expand(&mut g, &state, &mut |g, id, w| {
            if is_reset(netlist, id) {
                BitVec::constant(w as usize, u128::MAX)
            } else {
                keys.extend((0..w).map(|bit| (id, t, bit)));
                BitVec::input(g, w as usize)
            }
        });
        state = frame.reg_next.clone();
        frames.push(frame);
    }
    let values: Vec<bool> = keys.iter().map(|&k| keyed(seed, k)).collect();
    let eager = AigEvaluator::combinational(&g, &values);

    // By cone.
    let mut env = DesignTraceEnv::new(FrameExpander::new(netlist).unwrap());
    for (n, w, v) in consts {
        env.bind_const(n.clone(), *w, *v);
    }
    let mut lg = Aig::new();
    let mut reads = Vec::new();
    for t in (0..FRAMES).rev() {
        for &name in &names {
            reads.push((name, t, env.read(&mut lg, name, t as i32).unwrap()));
        }
    }
    let lazy_nodes = lg.num_nodes();
    // Key the graph's inputs: the logged input atoms, then the frame-0
    // registers, read through their nets (reading builds nothing new:
    // every net was read at frame 0 above).
    let mut lazy_keys: HashMap<NodeId, (AtomId, u32, u32)> = HashMap::new();
    for (name, t, bv) in env.input_log() {
        for (bit, l) in bv.bits().iter().enumerate() {
            lazy_keys.insert(l.node(), (atom_of[name], *t, bit as u32));
        }
    }
    for &name in &names {
        let bv = env.read(&mut lg, name, 0).unwrap();
        let mut off = 0;
        for seg in &netlist.net(name).unwrap().segs {
            if matches!(netlist.atom(seg.atom).kind, AtomKind::Reg { .. }) {
                for i in 0..seg.width {
                    let node = bv.bit((off + i) as usize).node();
                    lazy_keys.insert(node, (seg.atom, 0, seg.lo + i));
                }
            }
            off += seg.width;
        }
    }
    assert_eq!(lg.num_nodes(), lazy_nodes, "{what}: frame 0 was read whole");
    let lazy_values: Vec<bool> = lg
        .inputs()
        .iter()
        .map(|n| keyed(seed, lazy_keys[n]))
        .collect();
    let lazy = AigEvaluator::combinational(&lg, &lazy_values);

    for (name, t, bv) in reads {
        let want = frames[t as usize].read_net(netlist.net(name).unwrap());
        for (i, (&got, &want)) in bv.bits().iter().zip(want.bits()).enumerate() {
            assert_eq!(
                lazy.lit(got),
                eager.lit(want),
                "{what}: net '{name}' bit {i} at frame {t}"
            );
        }
    }
}

#[test]
fn cone_reads_match_whole_frames_on_every_family() {
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
            assert_cone_reads_match_expand(compiled.netlist(), compiled.consts(), &scenario.id);
        }
    }
}

#[test]
fn cone_reads_match_whole_frames_on_table5_designs() {
    let pipelines = pipeline_sweep(96, 0xFEED);
    let fsms = fsm_sweep(96, 0xFEED + 1);
    for case in pipelines.iter().step_by(12).chain(fsms.iter().step_by(12)) {
        let compiled = compile_design(case).unwrap_or_else(|e| panic!("{}: {e}", case.id));
        assert_cone_reads_match_expand(compiled.netlist(), compiled.consts(), &case.id);
    }
}

#[test]
fn a_control_bit_read_builds_a_small_part_of_the_unrolling() {
    let case = generate_pipeline(&PipelineParams {
        n_units: 3,
        unit_depths: vec![2, 3, 2],
        width: 64,
        expr_ops: 3,
        seed: 7,
    });
    let compiled = compile_design(&case).unwrap();
    let mut eager = Aig::new();
    let mut env = DesignTraceEnv::new(FrameExpander::new(compiled.netlist()).unwrap());
    env.ensure_frames(&mut eager, 7);
    let mut lazy = Aig::new();
    let mut env = DesignTraceEnv::new(FrameExpander::new(compiled.netlist()).unwrap());
    let vld = env.read(&mut lazy, "out_vld", 7).unwrap();
    assert_eq!(vld.width(), 1);
    assert_eq!(env.num_frames(), 8, "a read allocates every frame up to it");
    assert!(
        lazy.num_nodes() * 50 < eager.num_nodes(),
        "the valid bit's cone: {} of {} nodes",
        lazy.num_nodes(),
        eager.num_nodes()
    );
}

/// The lone assertion of a helper-free response, if it has one.
fn lone_assertion(response: &str) -> Option<fveval_repro::sv_ast::Assertion> {
    let items = parse_snippet(response).ok()?;
    match items.as_slice() {
        [ModuleItem::Assertion(a)] => Some(a.clone()),
        _ => None,
    }
}

/// Falsified Table 5 candidates, checked through one session per
/// design as the scorer does, replay on the reference simulator; with
/// the inputs no read reached set to ones as well as to the replay's
/// default of 0, since they lie outside every cone.
#[test]
fn falsified_table5_candidates_replay_from_sessions_built_by_cone() {
    let models = profiles();
    let cfg = InferenceConfig::sampling();
    let (mut falsified, mut with_absent) = (0, 0);
    let pipelines = pipeline_sweep(96, 0xFEED);
    let fsms = fsm_sweep(96, 0xFEED + 1);
    for case in pipelines.iter().step_by(8).chain(fsms.iter().step_by(8)) {
        let compiled = compile_design(case).unwrap();
        let netlist = compiled.netlist();
        let task = Arc::new(TaskSpec::Design2sva { case: case.clone() });
        let mut session = ProofSession::open(netlist, compiled.consts(), ProveConfig::default())
            .expect("elaborated designs open");
        for model in models.iter().filter(|m| m.profile().supports_design2sva) {
            for sample_idx in 0..10 {
                let response = model.generate(&Request {
                    task: Arc::clone(&task),
                    cfg,
                    sample_idx,
                });
                let Some(assertion) = lone_assertion(&response) else {
                    continue;
                };
                let Ok((ProveResult::Falsified { cex }, _)) = session.check(&assertion) else {
                    continue;
                };
                let replays = |cex: &DesignCex| {
                    replay_design_cex(netlist, &assertion, compiled.consts(), cex)
                };
                assert_eq!(replays(&cex), Ok(true), "{}: {assertion:?}", case.id);
                falsified += 1;
                let present: HashSet<(&str, i32)> = cex
                    .inputs
                    .iter()
                    .map(|v| (v.signal.as_str(), v.cycle))
                    .collect();
                let mut filled = cex.clone();
                for (id, def) in netlist.inputs() {
                    for cycle in 0..cex.anchor as i32 + 8 {
                        if !is_reset(netlist, id) && !present.contains(&(def.name.as_str(), cycle))
                        {
                            filled.inputs.push(fveval_repro::fv_core::CexValue {
                                signal: def.name.clone(),
                                cycle,
                                width: def.width,
                                value: u128::MAX >> (128 - def.width),
                            });
                        }
                    }
                }
                if filled.inputs.len() > cex.inputs.len() {
                    with_absent += 1;
                    assert_eq!(replays(&filled), Ok(true), "{}: {assertion:?}", case.id);
                }
            }
        }
    }
    assert!(falsified >= 10, "only {falsified} falsified candidates");
    assert!(with_absent > 0, "no counterexample left an input out");
}
