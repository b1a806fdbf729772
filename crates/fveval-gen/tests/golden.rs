//! Golden-verdict soundness for every registered family: the prover
//! must agree with every candidate's construction-time verdict, and
//! every counterexample must replay on the reference simulator.

use fv_core::SignalTable;
use fveval_gen::{
    generate_suite, generator, generators, validate_scenario, GenParams, ProveConfig, SuiteConfig,
};

#[test]
fn every_family_registers_and_reports() {
    let gens = generators();
    assert!(gens.len() >= 12, "at least twelve scenario families");
    let mut names: Vec<&str> = gens.iter().map(|g| g.family()).collect();
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n, "family names are unique");
    for g in &gens {
        assert!(!g.summary().is_empty());
    }
}

#[test]
fn default_params_scenarios_are_fully_confirmed() {
    for gen in generators() {
        let scenario = gen.generate(&GenParams::default());
        assert!(
            scenario.provable().count() >= 2,
            "{}: at least two provable candidates",
            scenario.id
        );
        assert!(
            scenario.falsifiable().count() >= 1,
            "{}: at least one falsifiable candidate",
            scenario.id
        );
        let report =
            validate_scenario(&scenario, ProveConfig::default()).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.is_clean(), "{}: {:?}", scenario.id, report.problems);
        assert_eq!(report.confirmed as usize, scenario.candidates.len());
    }
}

#[test]
fn parameter_extremes_stay_sound() {
    for gen in generators() {
        for (depth, width) in [(1u32, 2u32), (12, 32), (3, 16)] {
            let scenario = gen.generate(&GenParams {
                depth,
                width,
                seed: 0xD00D,
            });
            let report = validate_scenario(&scenario, ProveConfig::default())
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(
                report.is_clean(),
                "{} (depth {depth}, width {width}): {:?}",
                scenario.id,
                report.problems
            );
        }
    }
}

#[test]
fn generation_is_deterministic_and_ids_unique() {
    let cfg = SuiteConfig {
        per_family: 3,
        seed: 41,
        ..Default::default()
    };
    let a = generate_suite(&cfg);
    let b = generate_suite(&cfg);
    assert_eq!(a, b, "byte-identical under a fixed seed");
    let mut ids: Vec<&str> = a.scenarios.iter().map(|s| s.id.as_str()).collect();
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "unique scenario ids");
    let default_families = generators().iter().filter(|g| g.in_default_suite()).count();
    assert_eq!(n, 3 * default_families);
}

#[test]
fn opt_in_families_stay_out_of_default_suites_but_generate_when_named() {
    let default_suite = generate_suite(&SuiteConfig::default());
    assert!(
        !default_suite
            .scenarios
            .iter()
            .any(|s| s.family == "deepcnt"),
        "deepcnt is opt-in: its headline verdict needs the PDR engine"
    );
    let named = generate_suite(&SuiteConfig {
        families: vec!["deepcnt".into()],
        per_family: 2,
        seed: 11,
        ..Default::default()
    });
    assert_eq!(named.scenarios.len(), 2);
    assert!(named.scenarios.iter().all(|s| s.family == "deepcnt"));
}

#[test]
fn internal_signals_are_out_of_scope() {
    for gen in generators() {
        let scenario = gen.generate(&GenParams::default());
        let table = SignalTable::from_netlist(scenario.compile().unwrap().netlist());
        assert!(
            table.width(&scenario.internal_signal).is_none(),
            "{}: '{}' must not be testbench-visible",
            scenario.id,
            scenario.internal_signal
        );
        // And every candidate's signals *are* in scope (they proved or
        // falsified above; here we just sanity-check the scope table
        // carries the interface nets).
        assert!(table.width("tb_reset").is_some());
    }
}

#[test]
fn empty_candidate_pools_are_reported() {
    // A family that emits only one kind of verdict violates the
    // authoring contract even if every present verdict confirms:
    // downstream response pools index both kinds unconditionally.
    let gens = generators();
    let mut scenario = gens[0].generate(&GenParams::default());
    scenario.candidates.retain(|c| c.verdict.is_provable());
    let report = validate_scenario(&scenario, ProveConfig::default()).unwrap();
    assert!(!report.is_clean());
    assert!(
        report
            .problems
            .iter()
            .any(|p| p.contains("no falsifiable candidate")),
        "{:?}",
        report.problems
    );
}

#[test]
fn suite_writes_to_disk() {
    let dir = std::env::temp_dir().join(format!("fveval_gen_test_{}", std::process::id()));
    let suite = generate_suite(&SuiteConfig {
        families: vec!["fifo".into()],
        per_family: 2,
        seed: 9,
        ..Default::default()
    });
    let files = fveval_gen::write_suite(&dir, &suite).unwrap();
    assert_eq!(files, 2 * 2 + 2, "two files per scenario plus manifests");
    let manifest = std::fs::read_to_string(dir.join("manifest.csv")).unwrap();
    assert_eq!(manifest.lines().count(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn new_family_scenarios_carry_their_signature_properties() {
    // The five scenario families added with the mutation layer, each
    // with a qualitatively different proof structure. Beyond the
    // generic loops above, pin each family's signature candidate and
    // structural trait so a refactor cannot quietly hollow one out.
    let cases = [
        (
            "regfile",
            "forward_wins",
            "assign rd_data = fwd ? wr_data : raw;",
        ),
        ("pipeline", "stall_freezes", "if (!stall) begin"),
        ("axi", "resp_held_until_taken", "assign req_rdy = !busy;"),
        ("hier", "lockstep", "gen_hier_cell cell1"),
        ("ring", "one_hot_token", "assign pos = tok;"),
    ];
    for (family, signature, structural) in cases {
        let gen = generator(family).unwrap_or_else(|| panic!("{family} registered"));
        assert!(gen.in_default_suite(), "{family} belongs to default suites");
        let scenario = gen.generate(&GenParams::default());
        assert!(
            scenario.candidates.iter().any(|c| c.name == signature),
            "{family} carries its signature candidate {signature}"
        );
        assert!(
            scenario.design_source.contains(structural),
            "{family} design keeps its structural trait: {structural}"
        );
        let report =
            validate_scenario(&scenario, ProveConfig::default()).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.is_clean(), "{family}: {:?}", report.problems);
    }
}

#[test]
fn hierarchy_scenarios_inline_their_instances() {
    // The hier family is the only one whose design source holds two
    // modules; elaboration must inline both counter cells, exposing
    // their registers under hierarchical names while the cross-module
    // outputs stay flat.
    let scenario = generator("hier").unwrap().generate(&GenParams::default());
    let compiled = scenario.compile().unwrap();
    for cell in ["cell0", "cell1"] {
        assert!(
            compiled
                .netlist()
                .net_names()
                .any(|(n, _)| n.contains(&format!("{cell}.cnt"))),
            "{cell}'s counter register is inlined into the flat netlist"
        );
    }
    let table = SignalTable::from_netlist(compiled.netlist());
    assert!(table.width("total").is_some(), "cross-module sum in scope");
    assert!(
        table.width("agree").is_some(),
        "cross-module compare in scope"
    );
}

#[test]
fn nonzero_reset_values_survive_instantiation() {
    // Regression for the elaborator init-extraction fix: the ring's
    // token register resets to one-hot slot 0, and that value must
    // survive the DUT-inside-testbench instantiation (the reset
    // expression reaches the top-level reset through an instance-port
    // alias). Before the fix this init silently collapsed to zero and
    // the one-hot invariant was falsified at cycle 0.
    let scenario = generator("ring").unwrap().generate(&GenParams::default());
    let compiled = scenario.compile().unwrap();
    let tok = compiled
        .netlist()
        .atoms
        .iter()
        .find(|a| a.name.ends_with(".tok"))
        .expect("inlined token register");
    match &tok.kind {
        sv_synth::AtomKind::Reg { init, .. } => {
            assert_eq!(*init, 1, "reset value extracted through the instance alias")
        }
        other => panic!("tok must elaborate to a register, got {other:?}"),
    }
}
