//! The traced run's clock: times calls into each crate's public entry
//! points from outside and books them to named layers.
//!
//! `fv-sat` cannot be called from outside `fv-core`, so its busy time
//! is read from the `span.sat.solve.us` histogram `fv-trace` records
//! once timing is on. A call that can reach the solver is charged its
//! wall time minus the solver time that elapsed inside it, so the
//! layer figures are self times and add up to the traced wall time.

use std::collections::BTreeMap;
use std::time::Instant;

const SAT_HIST: &str = "span.sat.solve.us";

/// Cumulative solver busy time recorded so far, in seconds.
pub fn sat_seconds() -> f64 {
    sat_histogram().0
}

/// Cumulative solver busy time (seconds) and solver calls recorded so
/// far.
pub fn sat_histogram() -> (f64, u64) {
    fv_trace::metrics::snapshot()
        .histograms
        .get(SAT_HIST)
        .map_or((0.0, 0), |h| (h.sum as f64 / 1e6, h.count))
}

/// Per-layer self times and counts of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Self seconds by metric name (e.g. `sv-parser.parse_s`).
    pub seconds: BTreeMap<&'static str, f64>,
    /// Exact counts by metric name (e.g. `sv-parser.parses`).
    pub counts: BTreeMap<&'static str, u64>,
    /// Wall time of every `fv-core` check, in microseconds.
    pub check_us: Vec<f64>,
}

impl Layers {
    /// Runs `f`, charging its wall time to `layer`. Use for calls that
    /// cannot reach the SAT solver.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        *self.seconds.entry(layer).or_default() += started.elapsed().as_secs_f64();
        out
    }

    /// Runs `f`, charging its wall time minus the solver time inside
    /// it to `layer` and that solver time to `fv-sat.solve_s`. Returns
    /// the result and the call's full wall time in seconds.
    pub fn time_solving<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let sat_before = sat_seconds();
        let started = Instant::now();
        let out = f();
        let wall = started.elapsed().as_secs_f64();
        let sat = (sat_seconds() - sat_before).max(0.0);
        *self.seconds.entry(layer).or_default() += wall - sat;
        *self.seconds.entry("fv-sat.solve_s").or_default() += sat;
        (out, wall)
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Books the prover counters of a batch of checks.
    pub fn prover(&mut self, stats: &fv_core::ProverStats) {
        self.count("fv-sat.calls", stats.sat_calls);
        self.count("fv-core.queries", stats.queries());
        self.count("fv-core.kills", stats.sim_kills + stats.ternary_kills);
        self.count("fv-core.warm_calls", stats.solver_reuse_hits);
        self.count("fv-core.sessions", stats.sessions_opened);
        self.count("fv-core.checks", stats.session_checks);
        self.count("fv-core.unroll_reuse_hits", stats.unroll_reuse_hits);
        self.count("fveval-core.digest_reuse", stats.digest_reuse);
    }

    /// Seconds booked to `name` (0 when none).
    pub fn secs(&self, name: &str) -> f64 {
        self.seconds.get(name).copied().unwrap_or(0.0)
    }

    /// Count booked to `name` (0 when none).
    pub fn n(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}
