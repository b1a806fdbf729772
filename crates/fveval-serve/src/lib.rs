//! `fveval-serve` — the persistent evaluation service.
//!
//! FVEval's cost model is dominated by re-running the same formal
//! queries: every table and figure re-proves verdicts an earlier run
//! already settled, and the in-process verdict cache dies with the
//! process. This crate adds the serving layer that amortizes that work
//! *across* processes, in three layers:
//!
//! 1. [`VerdictStore`] — a persistent, content-addressed verdict store:
//!    append-only JSON-lines segments keyed by the engine's `(model,
//!    task-id, content-digest, cfg, sample)` cache key, each written
//!    to a tmp file and published by a no-clobber hard link, with
//!    crash-safe torn-tail recovery and deterministic compaction. It
//!    keeps no verdicts in memory; [`VerdictStore::load`] reads them
//!    back. The `fveval` CLI flushes through it too, so every run —
//!    not just the server — survives restarts.
//! 2. [`Server`] — a non-blocking readiness-driven event loop ([`poll`]
//!    wraps `epoll` with no new dependencies) in front of N shards,
//!    each a bounded queue and one worker thread, all evaluating on
//!    one shared [`fveval_core::EvalEngine`] preloaded once from the
//!    store. Jobs route by task-content digest ([`shard_of`]), so a
//!    repeated task set is built once by one worker; full queues
//!    answer `429` with a `Retry-After` hint, long-poll
//!    `GET /v1/jobs/<id>?wait_ms=` streams per-case progress, and a
//!    maintenance thread compacts the store while serving.
//! 3. The protocol + [`Client`] — minimal HTTP/1.1 over
//!    `std::net::TcpListener` and a hand-rolled [`json`] module (the
//!    same offline-shim philosophy as `crates/shims/`): `POST
//!    /v1/eval`, `GET /v1/jobs/<id>`, `GET /v1/stats`, `POST
//!    /v1/shutdown`, surfaced as the `fveval serve` / `submit` /
//!    `poll` / `stats` / `stop` subcommands.
//!
//! Determinism is the design invariant: a server-mediated evaluation is
//! byte-identical to a direct [`fveval_core::EvalEngine`] run — for any
//! shard count — and a warm restart re-serves it from the store with
//! zero prover calls. See `docs/SERVICE.md` for the wire protocol,
//! sharding/backpressure semantics, and store format.

#![deny(missing_docs)]

mod client;
pub mod http;
pub mod json;
pub mod poll;
mod protocol;
mod server;
mod shard;
mod store;
pub mod testutil;

pub use client::{Client, SubmitOutcome};
pub use protocol::{EvalRequest, EvalResult, JobState, JobView, TaskSetRef};
pub use server::{build_tasks, resolve_backends, Server, ServerConfig, DEFAULT_RETAINED_FINISHED};
pub use shard::shard_of;
pub use store::VerdictStore;
