//! `sk-serve`: a multi-tenant simulation job server with a memo of
//! served results.
//!
//! A long-running process accepts simulation requests — kernel, target
//! config, scheme grid — over a minimal hand-rolled HTTP/1.1 API
//! ([`http`]), queues them with per-tenant quotas and priority ordering
//! ([`queue`]), and runs them on a bounded worker pool ([`worker`]),
//! one job per worker thread on the deterministic scheduler
//! (`DetEngine`, on one fixed seed), so a job's results are a function
//! of its spec. Overload sheds `429` + `Retry-After` instead of
//! queueing without bound; `DELETE` cancels cooperatively through
//! `Engine::cancel_token`; `GET /jobs/<id>?wait_ms=` long-polls for the
//! terminal status.
//!
//! Because a run is a function of its spec, the server memoizes it
//! ([`cache`]): an LRU map from (program image and config digest
//! [`cache::MemoKey`], scheme) to the finished result. A repeat scheme is
//! a lookup; a scheme that misses runs from the start, exactly as
//! `slacksim run --det-seed 0` runs the same spec.
//!
//! Everything is std-only on `std::net`, in keeping with the
//! workspace's vendored-shim dependency policy.

pub mod cache;
pub mod client;
pub mod http;
pub mod job;
pub mod loadgen;
pub mod queue;
pub mod server;
pub mod worker;

/// The job API's JSON is the workspace's one JSON module, re-exported so
/// `sk_serve::json` paths (the `skbench` ledger uses them) keep working.
pub use sk_obs::json;

pub use client::{Client, Response};
pub use job::{Job, JobSpec, JobState, SchemeResult, SpecError};
pub use loadgen::{LoadgenConfig, LoadgenStats};
pub use queue::{Admission, JobQueue};
pub use server::{Server, ServerConfig};
