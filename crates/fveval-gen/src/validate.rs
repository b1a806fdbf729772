//! Golden-verdict validation: every candidate assertion is re-checked
//! against the repository's own formal core.
//!
//! [`validate_scenario`] is the executable form of the golden-verdict
//! contract in `docs/TASK_AUTHORING.md`: provable candidates must come
//! back `Proven`, falsifiable ones `Falsified`, and every
//! counterexample trace must replay to a concrete violation on the
//! cycle-accurate `sv_synth::Simulator`.
//!
//! A caller asking for the bounded engine is served by the portfolio,
//! which runs the IC3/PDR engine after any bounded check that comes
//! back `Undetermined` — this is what lets the deep-inductive
//! `deepcnt` family carry golden verdicts the BMC + k-induction
//! schedule cannot close at its default depth.

use crate::{GoldenVerdict, Scenario, Suite};
use fv_core::{
    prove_with_stats, replay_design_cex, ProveConfig, ProveEngine, ProveResult, ProverStats,
};

/// Validation outcome of one scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScenarioReport {
    /// Scenario id.
    pub id: String,
    /// Candidates whose golden verdict the prover confirmed.
    pub confirmed: u32,
    /// Candidates whose prover verdict *disagreed* with the golden one
    /// (must be zero for a sound generator).
    pub mismatches: u32,
    /// Counterexamples that failed to replay on the simulator (must be
    /// zero).
    pub replay_failures: u32,
    /// How the formal core discharged the queries.
    pub stats: ProverStats,
    /// One line per problem, empty when fully confirmed.
    pub problems: Vec<String>,
}

impl ScenarioReport {
    /// `true` when every candidate verdict was confirmed and every
    /// counterexample replayed.
    pub fn is_clean(&self) -> bool {
        self.mismatches == 0 && self.replay_failures == 0
    }
}

/// Proves every candidate of a scenario and checks the result against
/// its golden verdict; falsified candidates additionally replay their
/// counterexample trace through the reference simulator.
///
/// # Errors
///
/// Returns a message if the collateral fails to compile or a
/// candidate fails to parse — generator bugs, distinct from verdict
/// mismatches (which are *reported*, not errors).
pub fn validate_scenario(scenario: &Scenario, cfg: ProveConfig) -> Result<ScenarioReport, String> {
    // Deep-inductive families (e.g. `deepcnt`) carry golden verdicts
    // the bounded schedule cannot decide within its depth, so a bounded
    // request proves through the portfolio: the bounded verdict
    // whenever it concludes, PDR's otherwise. PDR verdicts are
    // replay-gated like any other, so a wrong golden is still caught.
    let cfg = match cfg.engine {
        ProveEngine::Bounded => ProveConfig {
            engine: ProveEngine::Portfolio,
        },
        _ => cfg,
    };
    let compiled = scenario.compile()?;
    let mut report = ScenarioReport {
        id: scenario.id.clone(),
        ..ScenarioReport::default()
    };
    // Downstream consumers (simulated-model response pools, Design2SVA
    // goldens) index both pools unconditionally, so an empty pool is a
    // contract violation even when every present verdict confirms.
    if scenario.provable().next().is_none() {
        report.mismatches += 1;
        report
            .problems
            .push("scenario has no provable candidate".into());
    }
    if scenario.falsifiable().next().is_none() {
        report.mismatches += 1;
        report
            .problems
            .push("scenario has no falsifiable candidate".into());
    }
    for cand in &scenario.candidates {
        let assertion = sv_parser::parse_assertion_str(&cand.sva)
            .map_err(|e| format!("{}/{}: parse: {e}", scenario.id, cand.name))?;
        let (result, stats) =
            prove_with_stats(compiled.netlist(), &assertion, compiled.consts(), cfg)
                .map_err(|e| format!("{}/{}: prove: {e}", scenario.id, cand.name))?;
        report.stats.merge(&stats);
        match (cand.verdict, &result) {
            (GoldenVerdict::Provable, ProveResult::Proven { .. }) => report.confirmed += 1,
            (GoldenVerdict::Falsifiable, ProveResult::Falsified { cex }) => {
                match replay_design_cex(compiled.netlist(), &assertion, compiled.consts(), cex) {
                    Ok(true) => report.confirmed += 1,
                    other if cand.mutation.is_some() => {
                        // A mutant whose counterexample does not replay
                        // is as much a mutation-layer bug as one that
                        // stays provable: fail hard, never skip.
                        return Err(format!(
                            "{}/{}: mutation '{}' (seed {:#x}) produced a counterexample \
                             that does not replay ({other:?})",
                            scenario.id,
                            cand.name,
                            cand.mutation.unwrap().tag(),
                            scenario.params.seed
                        ));
                    }
                    other => {
                        report.replay_failures += 1;
                        report.problems.push(format!(
                            "{}: counterexample does not replay ({other:?})",
                            cand.name
                        ));
                    }
                }
            }
            (want, got) => {
                // A derived mutant carries `Falsifiable` by
                // construction; any other prover outcome means the
                // mutation operator broke its near-miss contract. That
                // is a generator bug, not a benchmark finding — make it
                // a hard error naming the operator and seed so the
                // offending derivation is reproducible, instead of a
                // silently counted mismatch.
                if let Some(op) = cand.mutation {
                    return Err(format!(
                        "{}/{}: mutation '{}' (seed {:#x}) failed to stay falsifiable: \
                         golden {want:?}, prover {got:?}",
                        scenario.id,
                        cand.name,
                        op.tag(),
                        scenario.params.seed
                    ));
                }
                report.mismatches += 1;
                report
                    .problems
                    .push(format!("{}: golden {want:?}, prover {got:?}", cand.name));
            }
        }
    }
    Ok(report)
}

/// [`validate_scenario`] over a whole suite, in suite order.
///
/// # Errors
///
/// Propagates the first compile/parse error (see [`validate_scenario`]).
pub fn validate_suite(suite: &Suite, cfg: ProveConfig) -> Result<Vec<ScenarioReport>, String> {
    suite
        .scenarios
        .iter()
        .map(|s| validate_scenario(s, cfg))
        .collect()
}
