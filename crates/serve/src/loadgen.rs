//! Multi-tenant load generator for the job server.
//!
//! Drives a spec pool of (benchmark, cores, scheme-grid) combinations at
//! the server from several client threads, submit-then-wait per thread,
//! plus an optional fire-and-forget burst to provoke overload shedding.
//! Because the pool is much smaller than the job count, most traffic
//! repeats a spec the server has already seen, which the result memo
//! serves without running. The per-(spec, scheme) fingerprint cross-check
//! still compares recomputations: the pool holds a `"metrics": true` twin
//! of one spec, and such jobs always run, so every one is a fresh det run
//! held to the first observation of its (spec, scheme).
//!
//! Deterministic: spec and tenant choice come from a seeded LCG, so two
//! runs of the same config issue the same request stream (completion
//! order still races, which is the point of a load test).

use crate::client::Client;
use sk_obs::json::Json;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What to throw at the server.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Total submit-then-wait jobs across all threads.
    pub jobs: u64,
    /// Client threads (each holds one keep-alive connection).
    pub threads: usize,
    /// Tenant names to spread traffic over.
    pub tenants: Vec<String>,
    /// Fire-and-forget submissions issued first to provoke 429 shedding
    /// (accepted ones are awaited before the main phase).
    pub burst: u64,
    /// LCG seed for the request stream.
    pub seed: u64,
    /// Per-job completion deadline.
    pub deadline: Duration,
    /// A `.skn` scenario file's text. When set, the scenario replaces the
    /// spec pool entirely: every job posts `{"scenario": ...}`, so repeat
    /// traffic hammers one memo key and the fingerprint cross-check holds
    /// every served result of the scenario to the first.
    pub scenario: Option<String>,
}

impl LoadgenConfig {
    /// CI-sized smoke run: a handful of jobs, still mixed-tenant.
    pub fn smoke() -> Self {
        LoadgenConfig { jobs: 12, threads: 2, burst: 0, ..Self::default() }
    }
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            jobs: 1000,
            threads: 4,
            tenants: vec!["alice".into(), "bob".into(), "carol".into(), "dave".into()],
            burst: 64,
            seed: 0x5eed,
            deadline: Duration::from_secs(120),
            scenario: None,
        }
    }
}

/// The request pool. Small by design: `jobs >> pool size` is what makes
/// repeat traffic (and therefore memo hits) dominate.
pub fn spec_pool() -> Vec<&'static str> {
    vec![
        r#"{"bench":"pingpong","cores":2,"schemes":["CC"]}"#,
        r#"{"bench":"pingpong","cores":2,"schemes":["Q100"]}"#,
        r#"{"bench":"lock_sweep","cores":2,"schemes":["CC","Q100"]}"#,
        r#"{"bench":"private_compute","cores":2,"schemes":["CC","S9*"]}"#,
        r#"{"bench":"racy_increment","cores":2,"schemes":["Q50"]}"#,
        r#"{"bench":"false_sharing","cores":2,"schemes":["CC"]}"#,
        r#"{"bench":"lock_sweep","cores":4,"schemes":["CC"]}"#,
        r#"{"bench":"private_compute","cores":4,"schemes":["SU"]}"#,
    ]
}

/// A `"metrics": true` twin of `spec_pool()[TWIN_OF]`, checked against
/// that entry's reference slot: metrics jobs always run, so each one is a
/// recomputation, not a memo hit.
const METRICS_TWIN: &str =
    r#"{"bench":"lock_sweep","cores":2,"schemes":["CC","Q100"],"metrics":true}"#;
const TWIN_OF: usize = 2;

/// Everything the run observed.
#[derive(Debug, Default)]
pub struct LoadgenStats {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    /// 429 with "queue full".
    pub queue_shed: u64,
    /// 429 with "tenant quota exceeded".
    pub quota_shed: u64,
    pub bad_requests: u64,
    /// Jobs whose every scheme was served from the result memo.
    pub warm_jobs: u64,
    pub cold_jobs: u64,
    /// Client-observed wall (submit → terminal), summed per class.
    pub warm_wall_ms: u64,
    pub cold_wall_ms: u64,
    /// Scheme results whose fingerprint diverged from the first
    /// observation of the same (spec, scheme). Every scheme is checked: a
    /// job is a det run of its spec. MUST be zero: a recomputation and a
    /// memo hit both equal the first run.
    pub fingerprint_mismatches: u64,
    /// Scheme runs whose printed output missed the workload's expected
    /// values. MUST be zero.
    pub output_mismatches: u64,
    pub wall: Duration,
}

impl LoadgenStats {
    pub fn mean_cold_ms(&self) -> f64 {
        if self.cold_jobs == 0 {
            0.0
        } else {
            self.cold_wall_ms as f64 / self.cold_jobs as f64
        }
    }

    pub fn mean_warm_ms(&self) -> f64 {
        if self.warm_jobs == 0 {
            0.0
        } else {
            self.warm_wall_ms as f64 / self.warm_jobs as f64
        }
    }

    pub fn to_json(&self) -> String {
        Json::obj([
            ("submitted", Json::from(self.submitted)),
            ("completed", self.completed.into()),
            ("failed", self.failed.into()),
            ("cancelled", self.cancelled.into()),
            ("queue_shed", self.queue_shed.into()),
            ("quota_shed", self.quota_shed.into()),
            ("bad_requests", self.bad_requests.into()),
            ("warm_jobs", self.warm_jobs.into()),
            ("cold_jobs", self.cold_jobs.into()),
            ("mean_warm_ms", self.mean_warm_ms().into()),
            ("mean_cold_ms", self.mean_cold_ms().into()),
            ("fingerprint_mismatches", self.fingerprint_mismatches.into()),
            ("output_mismatches", self.output_mismatches.into()),
            ("wall_ms", (self.wall.as_millis() as u64).into()),
        ])
        .to_string()
    }
}

/// Shared mutable tallies while threads run.
#[derive(Default)]
struct Tallies {
    stats: Mutex<LoadgenStats>,
    /// First fingerprint seen per (reference slot, scheme) — the
    /// reference every later result, hit or recomputed, must reproduce.
    reference: Mutex<HashMap<(usize, String), String>>,
    issued: AtomicU64,
}

/// The effective request pool as (body, reference slot): the static spec
/// pool and its metrics twin, or — when a scenario file is loaded — a
/// single spec posting that scenario.
fn effective_pool(cfg: &LoadgenConfig) -> Vec<(String, usize)> {
    match &cfg.scenario {
        Some(text) => vec![(Json::obj([("scenario", text.as_str())]).to_string(), 0)],
        None => {
            let mut pool: Vec<_> =
                spec_pool().into_iter().enumerate().map(|(i, b)| (b.to_string(), i)).collect();
            pool.push((METRICS_TWIN.to_string(), TWIN_OF));
            pool
        }
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 16
}

/// Run the generator against a live server. Blocks until done.
pub fn run(addr: SocketAddr, cfg: &LoadgenConfig) -> LoadgenStats {
    let start = Instant::now();
    let pool = effective_pool(cfg);
    let tallies = Arc::new(Tallies::default());

    if cfg.burst > 0 {
        burst_phase(addr, cfg, &tallies);
    }

    let threads: Vec<_> = (0..cfg.threads.max(1))
        .map(|t| {
            let pool = pool.clone();
            let cfg = cfg.clone();
            let tallies = tallies.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                let mut rng = cfg.seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(t as u64 + 1));
                loop {
                    if tallies.issued.fetch_add(1, Ordering::Relaxed) >= cfg.jobs {
                        return;
                    }
                    let (body, slot) = &pool[(lcg(&mut rng) % pool.len() as u64) as usize];
                    let tenant = &cfg.tenants[(lcg(&mut rng) % cfg.tenants.len() as u64) as usize];
                    run_one(&mut client, body, *slot, tenant, &cfg, &tallies);
                }
            })
        })
        .collect();
    for t in threads {
        let _ = t.join();
    }

    let mut stats = std::mem::take(&mut *tallies.stats.lock().unwrap());
    stats.wall = start.elapsed();
    stats
}

/// Fire-and-forget submissions to overfill the queue, then await the
/// accepted ones so the main phase starts from an idle server.
fn burst_phase(addr: SocketAddr, cfg: &LoadgenConfig, tallies: &Tallies) {
    let mut client = Client::new(addr);
    let pool = effective_pool(cfg);
    let mut rng = cfg.seed ^ 0xb02a;
    let mut accepted = Vec::new();
    for _ in 0..cfg.burst {
        let (body, slot) = &pool[(lcg(&mut rng) % pool.len() as u64) as usize];
        let tenant_idx = (lcg(&mut rng) % cfg.tenants.len() as u64) as usize;
        if let Ok(resp) = client.post_job(body, &cfg.tenants[tenant_idx]) {
            tally_submit(resp.status, &resp.body, tallies, |id| accepted.push((id, *slot)));
        }
    }
    for (id, slot) in accepted {
        if let Ok(doc) = client.wait_job(id, cfg.deadline) {
            // Burst jobs were awaited long after submission, so their
            // client wall is meaningless — verify, don't time.
            tally_terminal(&doc, slot, None, tallies);
        }
    }
}

/// Submit one job, ride out 429 backpressure, await the result.
fn run_one(
    client: &mut Client,
    spec: &str,
    slot: usize,
    tenant: &str,
    cfg: &LoadgenConfig,
    tallies: &Tallies,
) {
    for _attempt in 0..1000 {
        let resp = match client.post_job(spec, tenant) {
            Ok(r) => r,
            Err(_) => return,
        };
        match resp.status {
            202 => {
                let mut id = None;
                tally_submit(resp.status, &resp.body, tallies, |j| id = Some(j));
                if let Some(id) = id {
                    let submit = Instant::now();
                    if let Ok(doc) = client.wait_job(id, cfg.deadline) {
                        let wall = submit.elapsed().as_millis() as u64;
                        tally_terminal(&doc, slot, Some(wall), tallies);
                    }
                }
                return;
            }
            429 => {
                tally_submit(resp.status, &resp.body, tallies, |_| {});
                // Honour Retry-After, capped so a load test stays a load
                // test rather than a sleep test.
                let secs =
                    resp.header("retry-after").and_then(|v| v.parse::<u64>().ok()).unwrap_or(1);
                std::thread::sleep(Duration::from_millis((secs * 1000).min(25)));
            }
            _ => {
                tally_submit(resp.status, &resp.body, tallies, |_| {});
                return;
            }
        }
    }
}

fn tally_submit(status: u16, body: &str, tallies: &Tallies, mut on_accept: impl FnMut(u64)) {
    let mut s = tallies.stats.lock().unwrap();
    match status {
        202 => {
            s.submitted += 1;
            drop(s);
            if let Ok(doc) = sk_obs::json::parse(body) {
                if let Some(id) = doc.get("job").and_then(Json::as_i64) {
                    on_accept(id as u64);
                }
            }
        }
        429 if body.contains("quota") => s.quota_shed += 1,
        429 => s.queue_shed += 1,
        _ => s.bad_requests += 1,
    }
}

/// Digest a terminal status document into the tallies. `wall_ms` is the
/// client-observed submit→terminal latency; `None` skips warm/cold
/// timing (burst jobs) but still verifies fingerprints.
fn tally_terminal(doc: &Json, slot: usize, wall_ms: Option<u64>, tallies: &Tallies) {
    let state = doc.get("state").and_then(Json::as_str).unwrap_or("");
    let mut s = tallies.stats.lock().unwrap();
    match state {
        "done" => s.completed += 1,
        "cancelled" => {
            s.cancelled += 1;
            return;
        }
        _ => {
            s.failed += 1;
            return;
        }
    }
    let results = doc.get("results").and_then(Json::as_arr).unwrap_or(&[]);
    if let Some(wall_ms) = wall_ms {
        let warm = !results.is_empty()
            && results.iter().all(|r| r.get("cache_hit").and_then(Json::as_bool) == Some(true));
        if warm {
            s.warm_jobs += 1;
            s.warm_wall_ms += wall_ms;
        } else {
            s.cold_jobs += 1;
            s.cold_wall_ms += wall_ms;
        }
    }
    for r in results {
        if r.get("output_ok").and_then(Json::as_bool) != Some(true) {
            s.output_mismatches += 1;
        }
        let (Some(scheme), Some(fp)) =
            (r.get("scheme").and_then(Json::as_str), r.get("fingerprint").and_then(Json::as_str))
        else {
            continue;
        };
        let mut refmap = tallies.reference.lock().unwrap();
        match refmap.get(&(slot, scheme.to_string())) {
            None => {
                refmap.insert((slot, scheme.to_string()), fp.to_string());
            }
            Some(reference) if reference != fp => s.fingerprint_mismatches += 1,
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_metrics_twin_differs_from_its_slot_only_in_metrics() {
        assert_eq!(METRICS_TWIN.replace(r#","metrics":true"#, ""), spec_pool()[TWIN_OF]);
        let pool = effective_pool(&LoadgenConfig::default());
        assert_eq!(pool.last(), Some(&(METRICS_TWIN.to_string(), TWIN_OF)));
    }
}
