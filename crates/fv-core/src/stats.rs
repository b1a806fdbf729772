//! Work counters describing how a formal query was discharged.

/// Declares [`ProverStats`] from one table. Each entry is a counter's
/// doc, field name, `prover_stats.{md,csv}` column header and wire
/// group, in column order. The struct, `merge`, `delta_since` and the
/// [`ProverStats::counters`] view are generated from it, so adding a
/// counter is adding one entry.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct ProverStats {
            $( $(#[doc = $doc:literal])* $field:ident: $header:literal, $group:ident; )*
        }
    ) => {
        $(#[$meta])*
        pub struct ProverStats {
            $( $(#[doc = $doc])* pub $field: u64, )*
        }

        impl ProverStats {
            /// Accumulates another counter set into this one.
            pub fn merge(&mut self, other: &ProverStats) {
                $( self.$field += other.$field; )*
            }

            /// The counter delta `self - earlier`, where `earlier` is a
            /// prior snapshot of the same monotonically growing counter
            /// set. Sessions use this to report per-check work on top of
            /// cumulative totals.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if any counter of `earlier` exceeds
            /// the corresponding counter of `self` (not a prior snapshot).
            pub fn delta_since(&self, earlier: &ProverStats) -> ProverStats {
                let sub = |a: u64, b: u64| {
                    debug_assert!(a >= b, "delta_since needs a prior snapshot");
                    a - b
                };
                ProverStats {
                    $( $field: sub(self.$field, earlier.$field), )*
                }
            }

            /// Every counter with its value, in declaration order. The
            /// stats surfaces render from this view instead of naming
            /// fields: `prover_stats.{md,csv}` takes [`Counter::header`]
            /// as its column, `GET /v1/stats` puts [`Counter::key`] in
            /// the [`Counter::group`] block, and `/metrics` exposes
            /// `fveval_<group>_<key>_total`.
            pub fn counters(&self) -> impl Iterator<Item = (&'static Counter, u64)> {
                const COUNTERS: &[Counter] = &[
                    $( Counter {
                        key: stringify!($field),
                        header: $header,
                        group: CounterGroup::$group,
                    }, )*
                ];
                COUNTERS.iter().zip([$( self.$field ),*])
            }
        }
    };
}

counters! {
    /// Counters for one prover invocation (or an aggregate over many).
    ///
    /// The incremental core answers each query by the cheapest applicable
    /// layer, in order:
    ///
    /// 1. **constant folding / structural hashing** while the monitor is
    ///    built (free — a query whose target folds to a constant is counted
    ///    under `ternary_kills`, since three-valued propagation subsumes
    ///    it),
    /// 2. **ternary simulation** (`ternary_kills`): the target is constant
    ///    under every input assignment, so the SAT query is decided without
    ///    the solver,
    /// 3. **random simulation**: 64-way bit-parallel patterns found a
    ///    concrete witness, so the query is SAT without the solver — a
    ///    falsification query (`sim_kills`), or a k-induction step query
    ///    whose patterns also draw the start state at random
    ///    (`step_sim_kills`: the step fails),
    /// 4. **SAT** (`sat_calls`): everything else goes to the CDCL solver;
    ///    `solver_reuse_hits` counts the calls that were answered by a
    ///    solver already warmed by a previous query of the same
    ///    equivalence check / proof (learned clauses and variable
    ///    activities carry over instead of being rebuilt).
    ///
    /// The session counters describe *proof-context reuse* across
    /// candidate assertions (see [`crate::ProofSession`] and
    /// [`crate::EquivSession`]): `sessions_opened` counts how many shared
    /// contexts (unrolled AIG + solver, or reference encoding + solver)
    /// were built, `session_checks` how many distinct candidate assertions
    /// streamed through them, `check_repeats` how many candidates had
    /// already been checked in their case and were answered from a memo
    /// (the session's, or `fveval_core::Scorer`'s response-text memo in
    /// front of it), and `unroll_reuse_hits` how much already-built
    /// encoding state (unrolled time frames, cached reference monitors)
    /// was served to a check instead of being rebuilt. A compile-once /
    /// score-many workload shows `sessions_opened` far below
    /// `session_checks + check_repeats`; the legacy one-shot entry points
    /// open one session per check, so there `sessions_opened` equals
    /// `session_checks`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ProverStats {
        /// Queries discharged by the CDCL SAT solver.
        sat_calls: "SAT calls", Prover;
        /// SAT calls served by a reused (already-warmed) solver instead of
        /// a freshly built one.
        solver_reuse_hits: "Solver reuse hits", Prover;
        /// Falsification queries killed by random simulation (a witness
        /// pattern was found before any SAT call).
        sim_kills: "Sim kills", Prover;
        /// k-induction step queries killed by free-state random simulation
        /// (a pattern holding `k` attempts and violating the next one was
        /// found before any SAT call).
        step_sim_kills: "Step sim kills", Prover;
        /// Queries killed by ternary simulation / constant folding (the
        /// target was provably constant without search).
        ternary_kills: "Ternary kills", Prover;
        /// Proof contexts (shared unrolling/solver sessions) built.
        sessions_opened: "Sessions opened", Prover;
        /// Candidate assertions checked through a session.
        session_checks: "Assertions checked", Prover;
        /// Candidates already checked in their case, answered from a
        /// memo of earlier results with no encoding, simulation or
        /// solver work (and not counted under `session_checks`): the
        /// session's memo, keyed by the parsed candidate, or the
        /// scorer's response-text memo in front of it, which reports
        /// the same delta without parsing the text again.
        check_repeats: "Check repeats", Prover;
        /// Already-built session state (unrolled time frames, cached
        /// reference-assertion encodings) served to a check instead of
        /// being re-encoded from scratch.
        unroll_reuse_hits: "Unroll reuse hits", Prover;
        /// Compiled designs served from a content-digest cache instead of
        /// being re-elaborated (the compile-once half of compile-once /
        /// score-many observed across identical design sources).
        digest_reuse: "Digest reuse", Cache;
        /// Frames opened by the IC3/PDR engine (summed across checks).
        pdr_frames: "PDR frames", Prover;
        /// Blocked-cube clauses the PDR engine learned after
        /// relative-induction generalization.
        pdr_clauses_learned: "PDR clauses", Prover;
        /// Checks whose reported verdict came from the PDR engine (PDR ran
        /// alone, or closed a portfolio check the bounded schedule left
        /// undetermined).
        pdr_wins: "PDR wins", Prover;
    }
}

/// The wire block a [`ProverStats`] counter reports under: its object
/// in `GET /v1/stats` and its `fveval_<group>_…` family in `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterGroup {
    /// `prover`: how the formal core decided its queries.
    Prover,
    /// `cache`: reuse reported next to the verdict-cache counters.
    Cache,
}

impl CounterGroup {
    /// The block's key: `prover` or `cache`.
    pub fn key(self) -> &'static str {
        match self {
            CounterGroup::Prover => "prover",
            CounterGroup::Cache => "cache",
        }
    }
}

/// One [`ProverStats`] counter as the stats surfaces name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// The field name, which is also the counter's JSON key.
    pub key: &'static str,
    /// The `prover_stats.{md,csv}` column header.
    pub header: &'static str,
    /// The wire block the counter reports under.
    pub group: CounterGroup,
}

impl ProverStats {
    /// Total queries decided across all layers.
    pub fn queries(&self) -> u64 {
        self.sat_calls + self.sim_kills + self.step_sim_kills + self.ternary_kills
    }

    /// The counter delta of a check a session answered from its memo of
    /// earlier results: one `check_repeats`, no other work.
    pub fn repeat() -> ProverStats {
        ProverStats {
            check_repeats: 1,
            ..ProverStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = ProverStats {
            sat_calls: 1,
            sim_kills: 2,
            ternary_kills: 3,
            solver_reuse_hits: 0,
            sessions_opened: 1,
            session_checks: 2,
            unroll_reuse_hits: 3,
            ..ProverStats::default()
        };
        a.merge(&ProverStats {
            sat_calls: 10,
            sim_kills: 20,
            step_sim_kills: 40,
            ternary_kills: 30,
            solver_reuse_hits: 5,
            sessions_opened: 1,
            session_checks: 4,
            check_repeats: 6,
            unroll_reuse_hits: 7,
            pdr_frames: 2,
            pdr_clauses_learned: 9,
            pdr_wins: 1,
            digest_reuse: 2,
        });
        assert_eq!(a.sat_calls, 11);
        assert_eq!(a.sim_kills, 22);
        assert_eq!(a.step_sim_kills, 40);
        assert_eq!(a.ternary_kills, 33);
        assert_eq!(a.solver_reuse_hits, 5);
        assert_eq!(a.sessions_opened, 2);
        assert_eq!(a.session_checks, 6);
        assert_eq!(a.check_repeats, 6);
        assert_eq!(a.unroll_reuse_hits, 10);
        assert_eq!(a.pdr_frames, 2);
        assert_eq!(a.pdr_clauses_learned, 9);
        assert_eq!(a.pdr_wins, 1);
        assert_eq!(a.digest_reuse, 2);
        assert_eq!(a.queries(), 106, "session counters are not queries");
    }

    #[test]
    fn delta_since_subtracts_per_counter() {
        let earlier = ProverStats {
            sat_calls: 1,
            sim_kills: 2,
            ternary_kills: 3,
            solver_reuse_hits: 0,
            sessions_opened: 1,
            session_checks: 1,
            unroll_reuse_hits: 0,
            ..ProverStats::default()
        };
        let mut later = earlier;
        later.merge(&ProverStats {
            sat_calls: 4,
            session_checks: 1,
            unroll_reuse_hits: 6,
            pdr_frames: 3,
            pdr_wins: 1,
            digest_reuse: 4,
            ..ProverStats::default()
        });
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.sat_calls, 4);
        assert_eq!(delta.sessions_opened, 0);
        assert_eq!(delta.session_checks, 1);
        assert_eq!(delta.unroll_reuse_hits, 6);
        assert_eq!(delta.pdr_frames, 3);
        assert_eq!(delta.pdr_wins, 1);
        assert_eq!(delta.digest_reuse, 4);
    }
}
