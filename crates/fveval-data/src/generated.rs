//! Loadable task sets from the `fveval-gen` scenario generator.
//!
//! One generated [`Suite`] feeds all three FVEval task types:
//!
//! - **NL2SVA-Human-style** cases: each candidate's NL description
//!   becomes the specification, its SVA the reference, scored by
//!   formal equivalence in the scenario's testbench scope;
//! - **NL2SVA-Machine-style** cases: the same pairs in the machine
//!   set's shape (parsed reference AST + canonical text);
//! - **Design2SVA** cases: the scenario's design + testbench with the
//!   provable candidates as goldens and the falsifiable ones carried
//!   for the simulated models' plausible-but-wrong failure mode.
//!
//! Everything stays deterministic under the suite seed, and ids are
//! prefixed with the scenario id so generated sets never collide with
//! the shipped corpora.

use crate::design::{DesignCase, DesignKind};
use crate::human::HumanCase;
use crate::machine::MachineCase;
use fv_core::SignalTable;
use fveval_gen::{generate_suite, Scenario, Suite, SuiteConfig};
use std::collections::HashMap;

/// One generated suite converted into engine-ready task sets.
#[derive(Debug, Clone)]
pub struct GeneratedTaskSet {
    /// The underlying suite (scenario sources, candidates, verdicts).
    pub suite: Suite,
    /// NL2SVA-Human-style cases; `testbench` is the owning scenario id.
    pub human: Vec<HumanCase>,
    /// Per-scenario signal scopes, keyed by scenario id.
    pub tables: HashMap<String, SignalTable>,
    /// NL2SVA-Machine-style cases, each paired with its owning
    /// scenario id (the key into [`GeneratedTaskSet::tables`]).
    pub machine: Vec<(String, MachineCase)>,
    /// Design2SVA cases ([`DesignKind::Scenario`]).
    pub designs: Vec<DesignCase>,
}

/// Generates a suite and converts it (see [`task_set_from_suite`]).
///
/// # Errors
///
/// Propagates collateral compile failures — generator bugs,
/// covered by `fveval-gen`'s own tests.
pub fn generated_task_set(config: &SuiteConfig) -> Result<GeneratedTaskSet, String> {
    task_set_from_suite(generate_suite(config))
}

/// Converts an existing suite into the three task-set shapes.
///
/// # Errors
///
/// Propagates collateral compile failures.
pub fn task_set_from_suite(suite: Suite) -> Result<GeneratedTaskSet, String> {
    let mut human = Vec::new();
    let mut tables = HashMap::new();
    let mut machine = Vec::new();
    let mut designs = Vec::new();
    for scenario in &suite.scenarios {
        let compiled = scenario.compile()?;
        tables.insert(
            scenario.id.clone(),
            SignalTable::from_netlist(compiled.netlist()),
        );
        for cand in &scenario.candidates {
            let id = format!("{}_{}", scenario.id, cand.name);
            let mutation = cand.mutation.map(|op| op.tag().to_string());
            human.push(HumanCase {
                id: id.clone(),
                testbench: scenario.id.clone(),
                question: format!("Create a SVA assertion that checks: {}", cand.nl),
                reference: cand.sva.clone(),
                mutation: mutation.clone(),
            });
            let reference =
                sv_parser::parse_assertion_str(&cand.sva).map_err(|e| format!("{id}: {e}"))?;
            let reference_text = sv_ast::print_assertion(&reference);
            // The `_m` suffix keeps ids unique across the human-style
            // and machine-style views of the same candidate.
            machine.push((
                scenario.id.clone(),
                MachineCase {
                    id: format!("{id}_m"),
                    question: cand.nl.clone(),
                    reference,
                    reference_text,
                    retries: 0,
                    mutation,
                },
            ));
        }
        designs.push(design_case(scenario));
    }
    Ok(GeneratedTaskSet {
        suite,
        human,
        tables,
        machine,
        designs,
    })
}

/// The Design2SVA view of one scenario.
fn design_case(scenario: &Scenario) -> DesignCase {
    DesignCase {
        id: scenario.id.clone(),
        design_source: scenario.design_source.clone(),
        tb_source: scenario.tb_source.clone(),
        top: scenario.top.clone(),
        tb_top: scenario.tb_top.clone(),
        golden: scenario.provable().map(|c| c.sva.clone()).collect(),
        logic_excerpt: scenario.logic_excerpt.clone(),
        kind: DesignKind::Scenario {
            family: scenario.family.to_string(),
            falsifiable: scenario.falsifiable().map(|c| c.sva.clone()).collect(),
            internal_signal: scenario.internal_signal.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_set() -> GeneratedTaskSet {
        generated_task_set(&SuiteConfig {
            families: vec!["fifo".into(), "handshake".into()],
            per_family: 2,
            seed: 11,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn conversion_covers_all_three_task_types() {
        let set = small_set();
        assert_eq!(set.suite.scenarios.len(), 4);
        assert_eq!(set.designs.len(), 4);
        assert_eq!(set.human.len(), set.suite.candidate_count());
        assert_eq!(set.machine.len(), set.suite.candidate_count());
        for s in &set.suite.scenarios {
            assert!(set.tables.contains_key(&s.id), "{} table", s.id);
        }
        for d in &set.designs {
            assert!(!d.golden.is_empty(), "{} goldens", d.id);
            match &d.kind {
                DesignKind::Scenario { falsifiable, .. } => {
                    assert!(!falsifiable.is_empty(), "{} falsifiable", d.id)
                }
                other => panic!("wrong kind {other:?}"),
            }
        }
    }

    #[test]
    fn human_references_are_self_equivalent_in_scope() {
        use fv_core::{check_equivalence, EquivConfig, Equivalence};
        let set = small_set();
        for case in &set.human {
            let a = sv_parser::parse_assertion_str(&case.reference)
                .unwrap_or_else(|e| panic!("{}: {e}", case.id));
            let table = &set.tables[&case.testbench];
            let out = check_equivalence(&a, &a, table, EquivConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", case.id));
            assert_eq!(out.verdict, Equivalence::Equivalent, "{}", case.id);
        }
    }

    #[test]
    fn machine_cases_round_trip_in_their_scope() {
        let set = small_set();
        for (scenario_id, case) in &set.machine {
            assert!(set.tables.contains_key(scenario_id), "{}", case.id);
            let parsed = sv_parser::parse_assertion_str(&case.reference_text)
                .unwrap_or_else(|e| panic!("{}: {e}", case.id));
            assert_eq!(sv_ast::print_assertion(&parsed), case.reference_text);
        }
    }

    #[test]
    fn conversion_is_deterministic() {
        let a = small_set();
        let b = small_set();
        assert_eq!(a.human, b.human);
        assert_eq!(a.machine, b.machine);
        assert_eq!(a.designs, b.designs);
    }
}
