//! End-to-end coverage of the scenario generator subsystem: generated
//! suites run through `EvalEngine` and the incremental prover with all
//! golden verdicts confirmed, and every (design, assertion, verdict)
//! triple is self-consistent across random seeds (proptest).

use fveval_repro::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// A backend that answers every task with its hidden golden solution:
/// Design2SVA tasks get a provable golden, NL tasks the reference
/// itself. Every verdict the engine produces for it must be a pass.
struct Oracle;

impl Backend for Oracle {
    fn name(&self) -> &str {
        "oracle"
    }

    fn generate(&self, req: &Request) -> String {
        match req.task.as_ref() {
            TaskSpec::Design2sva { case } => {
                case.golden[req.sample_idx as usize % case.golden.len()].clone()
            }
            task => task
                .reference_text()
                .expect("NL tasks carry a reference")
                .to_string(),
        }
    }
}

#[test]
fn generated_suite_runs_through_engine_with_goldens_confirmed() {
    let set = generated_task_set(&SuiteConfig {
        per_family: 1,
        seed: 0xE2E,
        ..Default::default()
    })
    .unwrap();
    assert_eq!(
        set.suite.scenarios.len(),
        generators().iter().filter(|g| g.in_default_suite()).count(),
        "one scenario per default-suite family"
    );
    let tasks = generated_task_specs(&set);
    let engine = EvalEngine::with_jobs(2);
    let evals = engine.run(&Oracle, &tasks, &InferenceConfig::greedy(), 2);
    assert_eq!(evals.len(), tasks.len());
    for (task, eval) in tasks.iter().zip(&evals) {
        for sample in &eval.samples {
            assert!(
                sample.syntax && sample.func,
                "{}: golden response must pass, got {sample:?}",
                task.id()
            );
        }
    }
    // Scoring the design tasks drives the incremental prover; the NL
    // tasks drive the equivalence engine. Both must have done real work.
    let prover = engine.prover_stats();
    assert!(prover.queries() > 0, "prover reached: {prover:?}");
}

#[test]
fn generated_tasks_are_jobs_invariant() {
    let set = generated_task_set(&SuiteConfig {
        families: vec!["arbiter".into(), "crc".into()],
        per_family: 2,
        seed: 77,
        ..Default::default()
    })
    .unwrap();
    let tasks = generated_task_specs(&set);
    let models = profiles();
    let backends: Vec<&dyn Backend> = models[..2].iter().map(|m| m as &dyn Backend).collect();
    let cfg = InferenceConfig::sampling();
    let seq = EvalEngine::with_jobs(1).run_matrix(&backends, &tasks, &cfg, 3);
    let par = EvalEngine::with_jobs(4).run_matrix(&backends, &tasks, &cfg, 3);
    assert_eq!(seq, par, "byte-identical for any --jobs");
}

#[test]
fn simulated_models_score_sanely_on_generated_designs() {
    // The calibrated models must neither ace nor zero a generated
    // Design2SVA sweep: provable picks pass, plausible-wrong picks
    // fail functionally, malformed picks fail syntax.
    let set = generated_task_set(&SuiteConfig {
        per_family: 1,
        seed: 5,
        ..Default::default()
    })
    .unwrap();
    let tasks: Vec<Arc<TaskSpec>> = design_task_specs(&set.designs);
    let engine = EvalEngine::with_jobs(2);
    let models = profiles();
    let best = &models[0];
    let evals = engine.run(best, &tasks, &InferenceConfig::sampling(), 8);
    let samples: Vec<_> = evals.iter().flat_map(|c| c.samples.iter()).collect();
    let syntax = samples.iter().filter(|s| s.syntax).count();
    let func = samples.iter().filter(|s| s.func).count();
    assert!(syntax > 0, "some responses are well-formed");
    assert!(func > 0, "golden picks prove");
    assert!(func < samples.len(), "not every sample proves");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Triple self-consistency across seeds: for every family and a
    /// random (depth, width, seed), the prover's verdict matches each
    /// candidate's golden verdict and counterexample traces replay on
    /// the `sv_synth` simulator (both checked by `validate_scenario`).
    #[test]
    fn generated_triples_are_self_consistent(
        seed in 0u64..2000,
        depth in 1u32..10,
        width in 2u32..20,
    ) {
        for gen in generators() {
            let scenario = gen.generate(&GenParams { depth, width, seed });
            let report = validate_scenario(&scenario, ProveConfig::default())
                .unwrap_or_else(|e| panic!("{e}"));
            prop_assert!(
                report.is_clean(),
                "{}: {:?}",
                scenario.id,
                report.problems
            );
            prop_assert_eq!(
                report.confirmed as usize,
                scenario.candidates.len(),
                "every candidate confirmed"
            );
        }
    }

    /// Suite generation is deterministic and unique-id'd for any seed.
    #[test]
    fn suite_generation_deterministic(seed in 0u64..500) {
        let cfg = SuiteConfig { per_family: 2, seed, ..Default::default() };
        let a = generate_suite(&cfg);
        let b = generate_suite(&cfg);
        prop_assert_eq!(&a, &b);
        let mut ids: Vec<&str> = a.scenarios.iter().map(|s| s.id.as_str()).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), n, "unique ids");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Session determinism on the structurally new families: a
    /// hierarchy scenario (instance inlining) and a protocol scenario
    /// (request/response handshake) evaluated through one long-lived
    /// `ProofSession` must produce verdicts identical to fresh
    /// one-shot `prove_with_stats` calls — proof depth and earliest
    /// violating anchor included.
    #[test]
    fn proof_sessions_match_one_shot_on_hierarchy_and_protocol(
        family_idx in 0usize..2,
        seed in 0u64..64,
    ) {
        let family = ["hier", "axi"][family_idx];
        let suite = generate_suite(&SuiteConfig {
            families: vec![family.to_string()],
            per_family: 1,
            seed,
            ..Default::default()
        });
        for scenario in &suite.scenarios {
            let compiled = scenario.compile().unwrap();
            let mut session =
                ProofSession::open(compiled.netlist(), compiled.consts(), ProveConfig::default())
                    .unwrap();
            for candidate in &scenario.candidates {
                let assertion = parse_assertion_str(&candidate.sva).unwrap();
                let (fresh, _) = prove_with_stats(
                    compiled.netlist(),
                    &assertion,
                    compiled.consts(),
                    ProveConfig::default(),
                )
                .unwrap();
                let (via_session, _) = session.check(&assertion).unwrap();
                match (&fresh, &via_session) {
                    (ProveResult::Proven { k: k1 }, ProveResult::Proven { k: k2 }) => {
                        prop_assert_eq!(k1, k2, "{}", &candidate.sva);
                    }
                    (ProveResult::Falsified { cex: c1 }, ProveResult::Falsified { cex: c2 }) => {
                        prop_assert_eq!(c1.anchor, c2.anchor, "{}", &candidate.sva);
                    }
                    (ProveResult::Undetermined, ProveResult::Undetermined) => {}
                    (fresh, via) => prop_assert!(
                        false,
                        "{} ({} seed {}): fresh {:?} != session {:?}",
                        &candidate.sva, family, seed, fresh, via
                    ),
                }
            }
        }
    }
}

#[test]
fn mutated_suites_flow_through_the_engine_and_oracle_passes() {
    // Mutants ride the same three task-set views as family-authored
    // candidates; an oracle answering every NL task with its reference
    // must pass on mutant-derived cases too (the reference *is* the
    // mutant), and the mutation tag must survive into the case.
    let set = generated_task_set(&SuiteConfig {
        families: vec!["fifo".into(), "regfile".into()],
        per_family: 1,
        seed: 0x5EED,
        mutations: 2,
        ..Default::default()
    })
    .unwrap();
    let tagged = set.human.iter().filter(|c| c.mutation.is_some()).count();
    assert!(tagged > 0, "mutants reach the human-style view");
    assert_eq!(
        set.machine
            .iter()
            .filter(|(_, c)| c.mutation.is_some())
            .count(),
        tagged,
        "machine-style view carries the same mutation tags"
    );
    let tasks = generated_task_specs(&set);
    let engine = EvalEngine::with_jobs(2);
    let evals = engine.run(&Oracle, &tasks, &InferenceConfig::greedy(), 1);
    for (task, eval) in tasks.iter().zip(&evals) {
        for sample in &eval.samples {
            assert!(
                sample.syntax && sample.func,
                "{}: oracle must pass, got {sample:?}",
                task.id()
            );
        }
    }
}
