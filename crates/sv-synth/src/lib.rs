//! Elaboration of the SystemVerilog subset into a flat word-level
//! netlist, plus bit-blasting into AIG time frames and a cycle-accurate
//! reference simulator.
//!
//! This crate is the "synthesis front-end" substitute for the commercial
//! formal tool's elaboration step:
//!
//! 1. [`elaborate`] flattens a parsed design (parameters, generate
//!    loops, hierarchy) into a [`Netlist`] of *atoms* — inputs,
//!    registers, and combinational definitions at word level.
//! 2. [`FrameExpander`] bit-blasts the netlist's transition function
//!    once into a template [`fv_aig::Aig`], which is copied into the
//!    caller's graph per clock cycle: whole, or by cone through the
//!    exposed template, as `fv-core`'s provers copy it to build BMC,
//!    k-induction and PDR queries.
//! 3. [`Simulator`] interprets the same netlist directly; property tests
//!    check it against the bit-blasted form bit-for-bit.
//!
//! # 2-state semantics
//!
//! Everything is 0/1 (no X/Z): `===` behaves as `==`, undriven bits
//! become free inputs (cut points), and registers start from their reset
//! values with the reset input held deasserted (the standard formal
//! setup after a reset sequence). See the repository's `ARCHITECTURE.md`
//! for where this crate sits in the evaluation spine.

mod elaborate;
mod frame;
mod netexpr;
mod netlist;
mod sim;

pub use elaborate::{elaborate, elaborate_design, ElabError, ElaboratedDesign};
pub use frame::{FrameExpander, FrameValues};
pub use netexpr::{Nx, NxBin, NxRed};
pub use netlist::{AtomDef, AtomId, AtomKind, NetBinding, Netlist, Seg};
pub use sim::{SimError, Simulator};
