//! Integration tests for the Design2SVA flow: generated RTL elaborates,
//! simulates, and its golden assertions are proven; mis-read assertions
//! are falsified with concrete counterexamples.

use fveval_repro::prelude::*;

#[test]
fn sweep_golden_assertions_prove() {
    // A slice of both sweeps, full pipeline: bind design, prove golden.
    for case in pipeline_sweep(4, 11).into_iter().chain(fsm_sweep(4, 12)) {
        let bound = compile_design(&case).unwrap_or_else(|e| panic!("{}: {e}", case.id));
        let mut scorer = Scorer::design(&bound, ProveConfig::default());
        for golden in &case.golden {
            let (eval, _) = scorer.score(golden);
            assert!(
                eval.syntax && eval.func,
                "{}: golden must prove: {golden}",
                case.id
            );
        }
    }
}

#[test]
fn generated_designs_simulate() {
    for case in pipeline_sweep(3, 21).into_iter().chain(fsm_sweep(3, 22)) {
        let file = parse_source(&case.design_source).expect("generated RTL parses");
        let netlist = elaborate(&file, &case.top).expect("generated RTL elaborates");
        let mut sim = Simulator::new(&netlist).expect("no combinational cycles");
        for cycle in 0..16u32 {
            sim.step(&move |name, _| match name {
                "reset_" => 1,
                _ => u128::from(cycle).wrapping_mul(0x9E37) & 0xFFFF,
            });
        }
        // FSM output must stay within the encoded state range.
        if let fveval_data::DesignKind::Fsm { n_states, .. } = &case.kind {
            let out = sim.read_net("fsm_out").expect("fsm_out readable");
            assert!(
                out < u128::from(*n_states),
                "{}: fsm_out={out} out of range",
                case.id
            );
        }
    }
}

#[test]
fn wrong_depth_pipeline_claim_is_falsified() {
    let case = generate_pipeline(&PipelineParams {
        n_units: 2,
        unit_depths: vec![2, 2],
        width: 8,
        expr_ops: 2,
        seed: 5,
    });
    let compiled = compile_design(&case).unwrap();
    let netlist = compiled.netlist();
    // Correct depth proves; off-by-one is falsified with a trace.
    let good = parse_assertion_str(
        "assert property (@(posedge clk) disable iff (tb_reset) in_vld |-> ##4 out_vld);",
    )
    .unwrap();
    let bad = parse_assertion_str(
        "assert property (@(posedge clk) disable iff (tb_reset) in_vld |-> ##3 out_vld);",
    )
    .unwrap();
    assert!(prove(netlist, &good, &[], ProveConfig::default())
        .unwrap()
        .is_proven());
    match prove(netlist, &bad, &[], ProveConfig::default()).unwrap() {
        ProveResult::Falsified { cex } => {
            assert!(!cex.inputs.is_empty(), "counterexample has stimuli");
        }
        other => panic!("expected falsification, got {other:?}"),
    }
}

#[test]
fn fsm_transition_structure_matches_model_checker() {
    // For every state of a generated FSM: the golden successor-set
    // assertion proves, and any strict subset is falsified (the edges
    // are all reachable and takable).
    let case = generate_fsm(&FsmParams {
        n_states: 4,
        n_edges: 6,
        width: 8,
        guard_depth: 1,
        seed: 33,
    });
    let bound = compile_design(&case).unwrap();
    let mut scorer = Scorer::design(&bound, ProveConfig::default());
    let transitions = match &case.kind {
        fveval_data::DesignKind::Fsm { transitions, .. } => transitions.clone(),
        _ => unreachable!(),
    };
    for (s, succs) in transitions.iter().enumerate() {
        let disj = |list: &[u32]| {
            list.iter()
                .map(|t| format!("(fsm_out == S{t})"))
                .collect::<Vec<_>>()
                .join(" || ")
        };
        let full = format!(
            "assert property (@(posedge clk) disable iff (tb_reset) \
             (fsm_out == S{s}) |-> ##1 ({}));",
            disj(succs)
        );
        let (eval, _) = scorer.score(&full);
        assert!(eval.func, "state {s}: full successor set proves");
        if succs.len() >= 2 {
            let partial = format!(
                "assert property (@(posedge clk) disable iff (tb_reset) \
                 (fsm_out == S{s}) |-> ##1 ({}));",
                disj(&succs[..succs.len() - 1])
            );
            let (eval, _) = scorer.score(&partial);
            assert!(
                eval.syntax && !eval.func,
                "state {s}: dropping the else-successor must be falsified"
            );
        }
    }
}
