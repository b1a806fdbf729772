//! The formal-verification engine of the FVEval reproduction.
//!
//! This crate stands in for the commercial tool backend (Cadence Jasper
//! in the paper) in both roles the benchmark uses it for:
//!
//! - **Assertion-to-assertion equivalence** ([`check_equivalence`]):
//!   the paper's custom Jasper function that proves whether a
//!   model-generated SVA assertion is logically equivalent to the
//!   reference, or one-way implied (the *partial equivalence* metric).
//!   Implemented as H-bounded trace equivalence: both properties are
//!   compiled over a shared symbolic trace of free signals and two SAT
//!   queries decide `A∧¬B` / `B∧¬A`.
//! - **Model checking** ([`prove`]): whether an assertion is *proven*
//!   on a design (the Design2SVA functional metric), via BMC for
//!   counterexamples and k-induction for proofs over the bit-blasted
//!   netlist.
//!
//! Weak/strong finite-trace semantics follow LTLf conventions: weak
//! operators treat obligations pending at the horizon as satisfied,
//! strong ones as violated. For the bounded-delay properties that
//! dominate the benchmark this coincides with exact SVA semantics.
//!
//! # Incremental solving
//!
//! Both provers are layered so the SAT solver is the last resort, not
//! the first: shared structurally-hashed AIGs collapse equal subterms
//! (often deciding a query during construction), ternary and 64-way
//! random simulation kill constant and easily-falsified queries and
//! easily-failed k-induction steps, and whatever remains runs on a
//! single reused [`fv_sat::Solver`] driven by `solve_with` assumptions
//! and selector-guarded clause groups.
//! [`ProverStats`] reports which layer decided each query; the
//! [`EquivOutcome::stats`] field and [`prove_with_stats`] surface it.
//!
//! # Proof sessions
//!
//! Benchmarks score *many* candidate assertions against *one* design
//! or reference (up to 10 samples × 8 models per case). The session
//! APIs keep the shared half of that work alive across the stream:
//! [`ProofSession`] owns one unrolled design formula + solver and
//! checks candidate assertions against it; [`EquivSession`] encodes
//! the reference assertion once and checks candidates against it on a
//! shared trace and solver. The one-shot entry points ([`prove`],
//! [`check_equivalence`]) are thin wrappers that open a session per
//! call, so there is exactly one proving code path.
//!
//! Design sessions start from a [`CompiledDesign`], the one Design2SVA
//! compile (design bound into its testbench as `dut`), shared by the
//! evaluation engine and the scenario generator's golden validation
//! and mutant gating. [`SignalTable::from_netlist`] is the one rule
//! for which nets an assertion may name.

#![deny(missing_docs)]

mod cex;
mod compiled;
mod env;
mod equiv;
mod error;
mod expr;
mod monitor;
mod pdr;
mod prove;
mod rng;
mod stats;
mod table;

pub use cex::CexValue;
pub use compiled::CompiledDesign;
pub use env::{DesignTraceEnv, FreeTraceEnv, TraceEnv};
pub use equiv::{
    check_equivalence, EquivConfig, EquivOutcome, EquivSession, Equivalence, TraceCex,
};
pub use error::EncodeError;
pub use expr::compile_expr;
pub use monitor::encode_assertion;
pub use prove::{
    prove, prove_with_stats, replay_design_cex, DesignCex, ProofSession, ProveConfig, ProveEngine,
    ProveResult,
};
pub use stats::{Counter, CounterGroup, ProverStats};
pub use table::SignalTable;
