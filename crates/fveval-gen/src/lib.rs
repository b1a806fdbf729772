//! `fveval-gen` — the scenario generator subsystem.
//!
//! The shipped FVEval corpora cover a handful of hand-curated design
//! families. This crate turns the benchmark into an *open-ended*
//! workload source: a deterministic, seedable generator of synthetic
//! scenario families — parameterized FIFOs, round-robin arbiters,
//! valid/ready handshakes, gray-code counters, shift registers,
//! parity/CRC pipelines, and (opt-in) deep-inductive wrap counters
//! whose headline invariant only the PDR engine closes — each emitting
//!
//! - a SystemVerilog **design** plus a formal **testbench** following
//!   the Design2SVA collateral contract (all design ports re-exposed as
//!   free testbench inputs, `tb_reset` derived from the active-low
//!   `reset_`),
//! - a family of candidate **SVA assertions with golden verdicts**
//!   (provable or falsifiable *by construction*, re-checked against the
//!   repository's own prover — see [`validate_scenario`]), and
//! - **NL descriptions** for every candidate, so one scenario feeds all
//!   three FVEval task types (NL2SVA-Human, NL2SVA-Machine,
//!   Design2SVA).
//!
//! On top of the family-authored candidates, the mutation layer (see
//! [`MutationOp`]) derives *near-miss falsifiable* assertions from the
//! provable ones by perturbing the parsed OP-Tree — operator swap,
//! off-by-one bound, wrong guard polarity, dropped antecedent — giving
//! golden-verdict hard negatives at any volume
//! (`SuiteConfig::mutations`).
//!
//! Everything is byte-identical under a fixed seed: generators never
//! consult ambient randomness, only the [`GenParams`] they are handed.
//!
//! The authoring guide for new families lives in
//! `docs/TASK_AUTHORING.md` at the repository root.
//!
//! # Examples
//!
//! Generate one FIFO scenario and confirm its golden verdicts against
//! the prover:
//!
//! ```
//! use fveval_gen::{generator, validate_scenario, GenParams, ProveConfig};
//!
//! let fifo = generator("fifo").expect("registered family");
//! let scenario = fifo.generate(&GenParams { depth: 4, width: 8, seed: 42 });
//! assert!(scenario.candidates.iter().any(|c| c.verdict.is_provable()));
//! let report = validate_scenario(&scenario, ProveConfig::default()).unwrap();
//! assert_eq!(report.mismatches, 0, "golden verdicts confirmed");
//! ```

#![deny(missing_docs)]

mod families;
mod mutate;
mod suite;
mod validate;

pub use families::{generator, generators};
pub use mutate::{derive_mutants, derive_mutants_with_ops, mutate_scenario, MutationOp};
pub use suite::{generate_suite, write_atomic, write_suite, Suite, SuiteConfig};
pub use validate::{validate_scenario, validate_suite, ScenarioReport};

// Re-exported so downstream callers (CLI, benches) can choose the
// proving engine without depending on `fv-core` directly.
pub use fv_core::{ProveConfig, ProverStats};

/// Size and seed knobs handed to every [`ScenarioGenerator`].
///
/// Each family interprets `depth` as its natural size parameter (FIFO
/// capacity, shift taps, pipeline stages, arbiter requesters, counter
/// bits) and clamps it to the range its golden verdicts are guaranteed
/// in — see each generator's `summary`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenParams {
    /// Family-interpreted size knob.
    pub depth: u32,
    /// Data width in bits (clamped per family).
    pub width: u32,
    /// Seed for all structural and phrasing randomness.
    pub seed: u64,
}

impl Default for GenParams {
    fn default() -> GenParams {
        GenParams {
            depth: 4,
            width: 8,
            seed: 0,
        }
    }
}

/// The golden verdict a candidate assertion carries by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenVerdict {
    /// The assertion holds on the design and the prover must return
    /// `Proven` (BMC base + k-induction).
    Provable,
    /// A reachable violation exists and the prover must return
    /// `Falsified` with a replayable counterexample trace.
    Falsifiable,
}

impl GoldenVerdict {
    /// `true` for [`GoldenVerdict::Provable`].
    pub fn is_provable(self) -> bool {
        matches!(self, GoldenVerdict::Provable)
    }
}

/// One candidate assertion of a scenario: concrete SVA, its NL
/// description, and the verdict the design guarantees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Short stable name, unique within the scenario (e.g.
    /// `no_overflow`); `<scenario id>_<name>` is globally unique.
    pub name: String,
    /// The full labeled assertion text (`asrt: assert property (...)`).
    pub sva: String,
    /// Natural-language description of the property, phrased like the
    /// human set's specifications (without the task-prompt prefix).
    pub nl: String,
    /// The verdict the design guarantees for this assertion.
    pub verdict: GoldenVerdict,
    /// The OP-Tree mutation operator this candidate was derived by,
    /// `None` for family-authored candidates. Mutants always carry
    /// [`GoldenVerdict::Falsifiable`], and [`validate_scenario`] turns
    /// any other prover outcome on them into a *hard error* (naming
    /// the operator and seed) instead of a counted mismatch.
    pub mutation: Option<MutationOp>,
}

/// One generated benchmark scenario: a design, its formal testbench,
/// and the candidate assertions with golden verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Unique id, e.g. `gen_fifo_d4_w8_2a`.
    pub id: String,
    /// Family name (registry key).
    pub family: &'static str,
    /// The parameters the scenario was generated from (post-clamping).
    pub params: GenParams,
    /// The design RTL (all modules).
    pub design_source: String,
    /// The testbench shown to models (design ports as free inputs,
    /// `tb_reset` derived).
    pub tb_source: String,
    /// Design top module name.
    pub top: String,
    /// Testbench module name.
    pub tb_top: String,
    /// A design-internal net name that is *not* visible in the
    /// testbench scope (used by simulated models to reproduce the
    /// paper's internal-signal failure mode).
    pub internal_signal: String,
    /// Candidate assertions with golden verdicts and NL descriptions.
    pub candidates: Vec<Candidate>,
    /// Generated-logic excerpt for token statistics.
    pub logic_excerpt: String,
}

impl Scenario {
    /// The provable candidates (golden references for Design2SVA).
    pub fn provable(&self) -> impl Iterator<Item = &Candidate> {
        self.candidates
            .iter()
            .filter(|c| c.verdict == GoldenVerdict::Provable)
    }

    /// The falsifiable candidates (plausible-but-wrong assertions).
    pub fn falsifiable(&self) -> impl Iterator<Item = &Candidate> {
        self.candidates
            .iter()
            .filter(|c| c.verdict == GoldenVerdict::Falsifiable)
    }

    /// Compiles the collateral with the design bound into the
    /// testbench, exactly as the evaluation engine compiles a
    /// Design2SVA case (see [`fv_core::CompiledDesign::new`]).
    ///
    /// # Errors
    ///
    /// Returns the parse/elaboration message if the generated
    /// collateral is invalid — a generator bug, covered by tests.
    pub fn compile(&self) -> Result<fv_core::CompiledDesign, String> {
        fv_core::CompiledDesign::new(
            &self.design_source,
            &self.tb_source,
            &self.top,
            &self.tb_top,
        )
    }
}

/// A scenario family: anything that can turn [`GenParams`] into a
/// self-consistent [`Scenario`].
///
/// The contract every implementation must keep (checked by
/// [`validate_scenario`] and the repository's property tests):
///
/// 1. **Determinism** — equal `GenParams` produce byte-identical
///    scenarios.
/// 2. **Collateral validity** — design and testbench parse and
///    elaborate through `sv-parser` / `sv-synth`.
/// 3. **Golden-verdict soundness** — every candidate's verdict agrees
///    with `fv_core::prove` under default bounds, and every
///    counterexample replays on `sv_synth::Simulator`.
/// 4. **Scope discipline** — candidate assertions reference only
///    testbench-visible names; `internal_signal` names a net that is
///    *not* in scope.
pub trait ScenarioGenerator: Sync + Send {
    /// Registry key (`fifo`, `arbiter`, ...).
    fn family(&self) -> &'static str;

    /// One-line description, including how `depth`/`width` are
    /// interpreted and clamped.
    fn summary(&self) -> &'static str;

    /// Whether the family belongs in suites that did not name their
    /// families explicitly (`true` for all but special-purpose
    /// families). The `deepcnt` family returns `false`: its headline
    /// candidate is only decidable by the PDR engine, so including it
    /// by default would make bounded-engine suite results depend on
    /// the engine selection.
    fn in_default_suite(&self) -> bool {
        true
    }

    /// Generates one scenario. Must be deterministic in `params`.
    fn generate(&self, params: &GenParams) -> Scenario;
}
