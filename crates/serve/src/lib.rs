//! `sk-serve`: a multi-tenant simulation job server with a
//! content-addressed snapshot warm-start cache.
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
//! The headline is the warm-start cache ([`cache`]): ROI snapshots
//! content-addressed by FNV digests of (program image, target config)
//! via [`sk_snap::SnapshotKey`]. The first job for a key simulates the
//! warmup once under CC and snapshots the first safe-point inside ROI;
//! every later job — *and the cold job itself* — forks that snapshot
//! onto its schemes with `Engine::resume`, so repeat traffic skips
//! warmup entirely and warm results are bit-identical to cold ones by
//! construction, under every scheme.
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

pub use cache::SnapCache;
pub use client::{Client, Response};
pub use job::{Job, JobSpec, JobState, SchemeResult, SpecError};
pub use loadgen::{LoadgenConfig, LoadgenStats};
pub use queue::{Admission, JobQueue};
pub use server::{Server, ServerConfig};
