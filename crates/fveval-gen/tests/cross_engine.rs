//! Cross-engine agreement: over a seeded sweep of every family, the
//! IC3/PDR engine must never *contradict* the bounded BMC + k-induction
//! schedule — on any candidate where both engines conclude, the verdict
//! kind is the same, and every PDR counterexample replays on the
//! reference simulator. PDR is allowed to conclude where the bounded
//! schedule is `Undetermined` (that is its purpose) and to return
//! `Undetermined` where the monitor shape is outside its fragment
//! (unbounded operators, pre-anchor `$past` reads).

use fv_core::{prove_with_stats, replay_design_cex, ProveConfig, ProveEngine, ProveResult};
use fveval_gen::{generators, validate_scenario, GenParams, GoldenVerdict};
use proptest::prelude::*;

fn engine_cfg(engine: ProveEngine) -> ProveConfig {
    ProveConfig { engine }
}

/// Proves one candidate under both engines and checks the agreement
/// contract; returns `true` when PDR reached a definite verdict.
fn check_candidate(
    scenario_id: &str,
    compiled: &fv_core::CompiledDesign,
    cand: &fveval_gen::Candidate,
) -> Result<bool, TestCaseError> {
    let assertion = sv_parser::parse_assertion_str(&cand.sva)
        .map_err(|e| TestCaseError::fail(format!("{scenario_id}/{}: {e}", cand.name)))?;
    let fail = |m: String| TestCaseError::fail(format!("{scenario_id}/{}: {m}", cand.name));
    let (bounded, _) = prove_with_stats(
        compiled.netlist(),
        &assertion,
        compiled.consts(),
        engine_cfg(ProveEngine::Bounded),
    )
    .map_err(|e| fail(format!("bounded: {e}")))?;
    let pdr_cfg = engine_cfg(ProveEngine::Pdr);
    let (pdr, _) = prove_with_stats(compiled.netlist(), &assertion, compiled.consts(), pdr_cfg)
        .map_err(|e| fail(format!("pdr: {e}")))?;
    match (&bounded, &pdr) {
        // Both concluded: the verdict kind must agree.
        (ProveResult::Proven { .. }, ProveResult::Proven { .. }) => {}
        (ProveResult::Falsified { .. }, ProveResult::Falsified { .. }) => {}
        // One-sided conclusions are fine in either direction (PDR
        // closes deep proofs; the bounded schedule handles monitor
        // shapes PDR refuses).
        (_, ProveResult::Undetermined) | (ProveResult::Undetermined, _) => {}
        (b, p) => {
            return Err(fail(format!(
                "engines disagree: bounded {b:?} vs pdr {p:?}"
            )));
        }
    }
    // A PDR conclusion must also match the golden verdict, and its
    // counterexamples must replay like any other engine's.
    match &pdr {
        ProveResult::Proven { .. } => {
            prop_assert_eq!(
                cand.verdict,
                GoldenVerdict::Provable,
                "{}/{}: PDR proved a falsifiable candidate",
                scenario_id,
                cand.name
            );
        }
        ProveResult::Falsified { cex } => {
            prop_assert_eq!(
                cand.verdict,
                GoldenVerdict::Falsifiable,
                "{}/{}: PDR falsified a provable candidate",
                scenario_id,
                cand.name
            );
            let ok = replay_design_cex(compiled.netlist(), &assertion, compiled.consts(), cex)
                .map_err(|e| fail(format!("replay: {e:?}")))?;
            prop_assert!(ok, "{}/{}: PDR cex does not replay", scenario_id, cand.name);
        }
        ProveResult::Undetermined => {}
    }
    Ok(!matches!(pdr, ProveResult::Undetermined))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sweeps `(family, seed, depth, width)` and runs every candidate
    /// through both engines.
    #[test]
    fn engines_agree_across_families(
        family_pick in 0usize..usize::MAX,
        seed in 0u64..u64::MAX,
        depth in 1u32..=8,
        width in 2u32..=16,
    ) {
        let gens = generators();
        let scenario = gens[family_pick % gens.len()].generate(&GenParams { depth, width, seed });
        let compiled = scenario.compile().map_err(TestCaseError::fail)?;
        let mut pdr_concluded = 0usize;
        for cand in &scenario.candidates {
            if check_candidate(&scenario.id, &compiled, cand)? {
                pdr_concluded += 1;
            }
        }
        // Every family carries at least one candidate in PDR's
        // fragment (a plain safety invariant), so a sweep case where
        // PDR concluded nothing would mean the engine is broken.
        prop_assert!(
            pdr_concluded >= 1,
            "{}: PDR concluded none of {} candidates",
            scenario.id,
            scenario.candidates.len()
        );
    }
}

#[test]
fn deepcnt_needs_pdr_and_portfolio_confirms_goldens() {
    // The deep family's headline invariant: bounded gives up, PDR
    // proves — through the public one-candidate path...
    let scenario = fveval_gen::generator("deepcnt")
        .expect("registered")
        .generate(&GenParams::default());
    let compiled = scenario.compile().unwrap();
    let headline = scenario
        .candidates
        .iter()
        .find(|c| c.name == "top_band_unreachable")
        .expect("headline candidate");
    let assertion = sv_parser::parse_assertion_str(&headline.sva).unwrap();
    let (bounded, _) = prove_with_stats(
        compiled.netlist(),
        &assertion,
        compiled.consts(),
        engine_cfg(ProveEngine::Bounded),
    )
    .unwrap();
    assert_eq!(
        bounded,
        ProveResult::Undetermined,
        "the headline invariant must be out of the bounded schedule's reach"
    );
    let (pdr, stats) = prove_with_stats(
        compiled.netlist(),
        &assertion,
        compiled.consts(),
        engine_cfg(ProveEngine::Pdr),
    )
    .unwrap();
    assert!(pdr.is_proven(), "got {pdr:?}");
    assert!(stats.pdr_clauses_learned >= 1, "{stats:?}");

    // ...and through the whole-scenario portfolio gate: every golden
    // verdict confirms, with the deep proof attributed to PDR.
    let report = validate_scenario(&scenario, engine_cfg(ProveEngine::Portfolio)).unwrap();
    assert!(report.is_clean(), "{:?}", report.problems);
    assert_eq!(report.confirmed as usize, scenario.candidates.len());
    assert!(report.stats.pdr_wins >= 1, "{:?}", report.stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Mutated goldens keep the cross-engine contract: every OP-Tree
    /// mutant derived from a family's provable candidates must be
    /// falsifiable under *both* engines' rules — the bounded schedule
    /// confirmed it at derivation time, and PDR, where it concludes,
    /// must also falsify it with a replaying counterexample, never
    /// prove it.
    #[test]
    fn engines_agree_on_mutated_goldens(
        family_pick in 0usize..usize::MAX,
        seed in 0u64..2000,
        op_idx in 0usize..fveval_gen::MutationOp::ALL.len(),
    ) {
        let op = fveval_gen::MutationOp::ALL[op_idx];
        let gens = generators();
        let scenario = gens[family_pick % gens.len()].generate(&GenParams {
            depth: 4,
            width: 8,
            seed,
        });
        let mutants = fveval_gen::derive_mutants_with_ops(&scenario, 4, &[op]);
        if mutants.is_empty() {
            // Not every (family, op) pair has an eligible site; the
            // round-robin sweep in `mutation.rs` covers yield.
            return Ok(());
        }
        let compiled = scenario.compile().map_err(TestCaseError::fail)?;
        for mutant in &mutants {
            prop_assert_eq!(mutant.verdict, GoldenVerdict::Falsifiable);
            check_candidate(&scenario.id, &compiled, mutant)?;
        }
    }
}
