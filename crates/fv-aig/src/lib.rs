//! And-inverter graphs (AIGs) with structural hashing, a word-level
//! bit-vector construction layer, and Tseitin CNF emission.
//!
//! This crate is the circuit representation shared by the bit-blaster in
//! `sv-synth` and the bounded model checker / equivalence prover in
//! `fv-core`. Designs and property monitors are built as AIGs; SAT
//! queries are emitted through [`CnfEmitter`].
//!
//! # Examples
//!
//! ```
//! use fv_aig::{Aig, BitVec};
//!
//! let mut g = Aig::new();
//! let a = BitVec::input(&mut g, 4);
//! let b = BitVec::input(&mut g, 4);
//! let sum = a.add(&mut g, &b);
//! assert_eq!(sum.width(), 4);
//! ```

#![deny(missing_docs)]

mod aig;
mod bitvec;
mod cnf;
mod eval;
mod sim;

pub use aig::{Aig, AigLit, Node, NodeId};
pub use bitvec::BitVec;
pub use cnf::CnfEmitter;
pub use eval::AigEvaluator;
pub use sim::{BitSim, Ternary, TernarySim};
