//! Telemetry for the simulation job server (`sk-serve`).
//!
//! One [`ServeObs`] hub per server process, shared across connection
//! handlers and workers. Same cost model as [`crate::Metrics`]: all
//! mutation is relaxed atomics ([`crate::Counter`]) or the lock-free
//! [`crate::Histogram`], so request paths never contend on telemetry.
//!
//! The dump ([`ServeObs::to_json`], schema `sk-serve-metrics` version 1)
//! is separate from the per-job `sk-obs-metrics` dump: server counters
//! describe the fleet (queueing, shedding, result-memo economics), per-job
//! hubs describe one simulation. Both are additive schemas — readers
//! must ignore unknown fields.

use crate::json::Json;
use crate::{Counter, Histogram};

/// Current server-metrics schema version.
pub const SERVE_SCHEMA_VERSION: u32 = 1;

/// Lock-free server-wide telemetry hub.
#[derive(Debug, Default)]
pub struct ServeObs {
    /// Jobs accepted into the queue (202 responses).
    pub jobs_submitted: Counter,
    /// Jobs that ran to completion with a report.
    pub jobs_completed: Counter,
    /// Jobs that failed (workload panic, internal error).
    pub jobs_failed: Counter,
    /// Jobs cancelled by the client or a quota kill.
    pub jobs_cancelled: Counter,
    /// Jobs shed with 429 because the queue was full.
    pub jobs_shed: Counter,
    /// Jobs shed with 429 because the tenant hit its in-flight quota.
    pub quota_rejections: Counter,
    /// Malformed requests rejected with 400.
    pub bad_requests: Counter,
    /// Jobs whose every scheme was served from the result memo.
    pub cache_hits: Counter,
    /// Jobs that ran at least one scheme (a memo miss, or `"metrics"`).
    pub cache_misses: Counter,
    /// Memo entries evicted by its LRU bound: the memo's own count,
    /// mirrored here.
    pub cache_evictions: Counter,
    /// Queue depth sampled at every enqueue.
    pub queue_depth: Histogram,
    /// Wall time of jobs booked in `cache_misses`, milliseconds.
    pub cold_wall_ms: Histogram,
    /// Wall time of jobs booked in `cache_hits`, milliseconds.
    pub warm_wall_ms: Histogram,
}

impl ServeObs {
    /// A zeroed hub.
    pub fn new() -> Self {
        ServeObs::default()
    }

    /// The versioned `sk-serve-metrics` JSON dump.
    pub fn to_json(&self) -> String {
        let counters = Json::obj([
            ("jobs_submitted", &self.jobs_submitted),
            ("jobs_completed", &self.jobs_completed),
            ("jobs_failed", &self.jobs_failed),
            ("jobs_cancelled", &self.jobs_cancelled),
            ("jobs_shed", &self.jobs_shed),
            ("quota_rejections", &self.quota_rejections),
            ("bad_requests", &self.bad_requests),
            ("cache_hits", &self.cache_hits),
            ("cache_misses", &self.cache_misses),
            ("cache_evictions", &self.cache_evictions),
        ]);
        let hist = Json::obj([
            ("queue_depth", &self.queue_depth),
            ("cold_wall_ms", &self.cold_wall_ms),
            ("warm_wall_ms", &self.warm_wall_ms),
        ]);
        Json::obj([
            ("schema", Json::from("sk-serve-metrics")),
            ("version", Json::Int(SERVE_SCHEMA_VERSION.into())),
            ("counters", counters),
            ("hist", hist),
        ])
        .to_string()
    }
}
