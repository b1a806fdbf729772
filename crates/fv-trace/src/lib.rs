//! Hierarchical span tracing and a process-wide metrics registry.
//!
//! This crate is the observability layer for the whole evaluation
//! spine. Like everything else in the workspace it is std-only: no
//! external dependencies, no global runtime, no background threads.
//! It has three parts:
//!
//! - **Spans** ([`span!`], [`SpanGuard`]) — an RAII guard that records
//!   a named region of work with monotonic start/end times, a parent
//!   link to the enclosing span on the same thread, and typed
//!   key/value attributes. When tracing is disabled (the default) a
//!   span site costs one relaxed atomic load — no clock read, no
//!   allocation.
//! - **Metrics** ([`metrics`]) — log2-bucket latency histograms of
//!   span durations behind stable dotted names (`span.sat.solve.us`,
//!   `span.store.flush.us`). Recording is lock-free on the hot path:
//!   each thread owns a private shard of atomic buckets, and shards
//!   are merged when a [`metrics::Snapshot`] is taken.
//! - **Exporters** ([`chrome`], [`prometheus`]) — render collected
//!   spans as a Chrome-trace (`about://tracing`) JSON document, and
//!   render metrics in Prometheus text exposition format.
//!
//! Everything here is a *side channel*: spans and metrics observe the
//! result path but never feed back into it, so every byte-compared
//! results table stays identical with tracing on or off.
//!
//! ```
//! fv_trace::set_spans_enabled(true);
//! {
//!     let _outer = fv_trace::span!("elaborate", top = "fsm");
//!     let _inner = fv_trace::span!("sat.solve", vars = 42u64);
//! }
//! let spans = fv_trace::take_spans();
//! assert_eq!(spans.len(), 2);
//! fv_trace::set_spans_enabled(false);
//! ```

#![deny(missing_docs)]

pub mod chrome;
pub mod metrics;
pub mod prometheus;
mod span;

pub use span::{
    set_spans_enabled, set_timing_enabled, spans_enabled, take_spans, timing_enabled, AttrValue,
    SpanGuard, SpanRecord,
};

/// Opens a span over the enclosing scope and returns its RAII guard.
///
/// The first argument is the span name (a `&'static str`); the
/// remaining `key = value` pairs become typed attributes. Bind the
/// guard to a named variable (`let _span = span!(..)`) — binding to
/// `_` drops it immediately and records an empty span.
///
/// When neither span collection nor timing is enabled the expansion
/// performs a single relaxed atomic load and nothing else.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut __fv_trace_guard = $crate::SpanGuard::enter($name);
        $(__fv_trace_guard.attr(stringify!($key), $val);)*
        __fv_trace_guard
    }};
}
