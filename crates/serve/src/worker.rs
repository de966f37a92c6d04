//! Job execution: the warm-start cache protocol and the per-scheme run
//! loop, every run on the deterministic scheduler.
//!
//! The cache protocol is the heart of the server. On a cold key, a CC
//! probe engine runs the warmup on [`DetEngine`] with the fixed
//! [`DET_SEED`] and snapshots the first probed safe-point after ROI
//! entry; the snapshot goes into the cache and — crucially — the cold
//! job *itself* then forks every scheme from that snapshot instead of
//! continuing the probe engine. Warm jobs fork from the cached bytes
//! directly. Cold and warm runs therefore execute the exact same code
//! path (`Engine::resume` from identical bytes, run by a `DetEngine` on
//! the same seed), so warm results equal cold results bit for bit under
//! every scheme, slack schemes included: the det scheduler makes a run a
//! function of (snapshot, scheme).
//!
//! A job runs on the thread that took it from the queue: the server gets
//! its parallelism across jobs (`ServerConfig::workers`), not inside one
//! small job, where a second pool worker costs more than it brings.
//!
//! Cancellation: the job's sticky flag is checked between schemes, and
//! while an engine is in flight its cancel token is armed on the job so
//! `DELETE /jobs/<id>` lands mid-simulation at the scheduler's next
//! manager pick.
//!
//! [`run_job`] computes a job's terminal state; `finish` books it in
//! the server counters and only then publishes it, waking any client
//! blocked on `GET /jobs/<id>?wait_ms=`.

use crate::cache::SnapCache;
use crate::job::{Job, JobState, SchemeResult};
use sk_core::engine::{Engine, RunOutcome};
use sk_core::{DetEngine, Scheme};
use sk_obs::json::Json;
use sk_obs::{ObsConfig, ServeObs};
use sk_snap::fnv1a64;
use std::sync::Arc;
use std::time::Instant;

/// First CC-probe checkpoint target, cycles.
const WARMUP_PROBE_START: u64 = 1 << 10;
/// Probe ceiling: past this the job runs uncached (ROI never began).
const WARMUP_PROBE_CAP: u64 = 1 << 24;
/// Det-scheduler seed of every served run, warmup probe and scheme forks
/// alike. One fixed seed makes a job's results a function of its spec.
pub const DET_SEED: u64 = 0;

/// How the job obtained (or failed to obtain) its warm-start snapshot.
enum WarmStart {
    /// Fork every scheme from these snapshot bytes.
    Fork { bytes: Arc<Vec<u8>>, cache_hit: bool },
    /// No usable safe-point — run every scheme from scratch.
    Scratch,
    /// Cancelled during the warmup probe.
    Cancelled,
}

/// Run one admitted job to its terminal state and return it, unpublished:
/// the caller hands it to `finish`. Faults are folded into
/// `JobState::Failed` (panics are the worker loop's `catch_unwind`).
pub fn run_job(job: &Job, cache: &SnapCache, obs: &ServeObs) -> JobState {
    if job.cancel_requested() {
        return JobState::Cancelled;
    }
    let state = job.set_state(JobState::Running);
    if state != JobState::Running {
        return state;
    }

    let Some(workload) = job.spec.workload() else {
        // Unreachable for admitted jobs (validated at POST), kept typed.
        return JobState::Failed("benchmark vanished".into());
    };
    let cfg = job.spec.config();
    let key = job.spec.snapshot_key(&workload.program, &cfg);

    let start = Instant::now();
    let warm = match cache.get(&key) {
        Some(bytes) => {
            obs.cache_hits.inc();
            WarmStart::Fork { bytes, cache_hit: true }
        }
        None => {
            obs.cache_misses.inc();
            match probe_warmup(job, &workload.program, &cfg) {
                Some(snapshot) => {
                    let before = cache.evictions();
                    let bytes = cache.insert(key, snapshot);
                    obs.cache_evictions.add(cache.evictions() - before);
                    WarmStart::Fork { bytes, cache_hit: false }
                }
                None if job.cancel_requested() => WarmStart::Cancelled,
                None => WarmStart::Scratch,
            }
        }
    };

    let (bytes, cache_hit) = match warm {
        WarmStart::Fork { bytes, cache_hit } => (Some(bytes), cache_hit),
        WarmStart::Scratch => (None, false),
        WarmStart::Cancelled => return JobState::Cancelled,
    };

    for scheme in &job.spec.schemes {
        if job.cancel_requested() {
            return JobState::Cancelled;
        }
        let mut engine = match &bytes {
            Some(b) => match Engine::resume(b, Some(*scheme)) {
                Ok(e) => e,
                Err(e) => return JobState::Failed(format!("resume failed: {e}")),
            },
            None => Engine::new(&workload.program, *scheme, &cfg),
        };
        let hub = job.spec.metrics.then(|| engine.attach_new_metrics(ObsConfig::default()));
        let token = engine.cancel_token();
        let mut det = DetEngine::from_engine(engine, DET_SEED);

        let scheme_start = Instant::now();
        job.arm_engine_token(token);
        let outcome = det.run_until(None);
        job.disarm_engine_token();
        let wall_ms = scheme_start.elapsed().as_millis() as u64;
        match outcome {
            RunOutcome::Finished => {}
            RunOutcome::Cancelled => return JobState::Cancelled,
            RunOutcome::CheckpointReady => return JobState::Failed("unexpected checkpoint".into()),
        }

        let report = det.into_report();
        let printed: Vec<i64> = report.printed().into_iter().map(|(_, v)| v).collect();
        job.push_result(SchemeResult {
            scheme: report.scheme.clone(),
            exec_cycles: report.exec_cycles,
            fingerprint: format!("{:016x}", fnv1a64(report.fingerprint().as_bytes())),
            output_ok: printed == workload.expected,
            cache_hit,
            deterministic: scheme.slack_bound() == Some(0),
            wall_ms,
            kips: report.kips(),
        });
        if let Some(hub) = hub {
            job.push_metrics_dump(&report.scheme, Json::from(&*hub));
        }
    }

    let wall_ms = start.elapsed().as_millis() as u64;
    if cache_hit {
        obs.warm_wall_ms.record(wall_ms);
    } else {
        obs.cold_wall_ms.record(wall_ms);
    }
    JobState::Done
}

/// CC warmup probe on the det scheduler: run to doubling safe-point
/// targets until ROI has begun, then snapshot. `None` on cancellation, on
/// a workload that finishes before (or never reaches) ROI, or if the
/// safe-point refuses to snapshot — all of which mean "run uncached".
fn probe_warmup(
    job: &Job,
    program: &sk_isa::Program,
    cfg: &sk_core::TargetConfig,
) -> Option<Vec<u8>> {
    let mut det = DetEngine::new(program, Scheme::CycleByCycle, cfg, DET_SEED);
    job.arm_engine_token(det.engine_mut().cancel_token());
    let mut target = WARMUP_PROBE_START;
    let snapshot = loop {
        match det.run_until(Some(target)) {
            RunOutcome::CheckpointReady => {
                if det.engine_mut().roi_started() {
                    break det.engine_mut().snapshot().ok();
                }
                if target >= WARMUP_PROBE_CAP {
                    break None;
                }
                target *= 2;
            }
            // Ran to completion before ROI warmup could be captured.
            RunOutcome::Finished => break None,
            RunOutcome::Cancelled => break None,
        }
    };
    job.disarm_engine_token();
    snapshot
}

/// Book a terminal state in the server counters, then publish it on the
/// job (which wakes its waiting clients), in that order: a client woken
/// by the state change reads counters that already include its job.
/// Returns the state in effect. Releases nothing — the worker loop owns
/// the queue release, which it does before this.
pub(crate) fn finish(job: &Job, obs: &ServeObs, state: JobState) -> JobState {
    match &state {
        JobState::Done => obs.jobs_completed.inc(),
        JobState::Failed(_) => obs.jobs_failed.inc(),
        JobState::Cancelled => obs.jobs_cancelled.inc(),
        _ => {}
    }
    job.set_state(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use sk_obs::json::parse;

    fn job(body: &str) -> Job {
        Job::new(1, JobSpec::from_json(&parse(body).unwrap(), "t").unwrap())
    }

    /// What the server's worker loop does with a job (minus the queue).
    fn serve(job: &Job, cache: &SnapCache, obs: &ServeObs) -> JobState {
        finish(job, obs, run_job(job, cache, obs))
    }

    /// Cold on an empty cache, then warm from the snapshot it left.
    fn cold_then_warm(body: &str) -> (Vec<SchemeResult>, Vec<SchemeResult>, ServeObs) {
        let cache = SnapCache::new(4);
        let obs = ServeObs::new();
        let cold = job(body);
        assert_eq!(serve(&cold, &cache, &obs), JobState::Done);
        assert_eq!(cache.len(), 1, "cold run populated the cache");
        let warm = job(body);
        assert_eq!(serve(&warm, &cache, &obs), JobState::Done);
        (cold.results(), warm.results(), obs)
    }

    #[test]
    fn cold_then_warm_same_fingerprint() {
        let (cold_r, warm_r, obs) =
            cold_then_warm(r#"{"bench":"lock_sweep","cores":2,"schemes":["CC"]}"#);
        assert_eq!(cold_r.len(), 1);
        assert!(!cold_r[0].cache_hit);
        assert!(cold_r[0].output_ok, "cold run output");
        assert!(warm_r[0].cache_hit);
        assert!(warm_r[0].output_ok, "warm run output");
        assert_eq!(warm_r[0].fingerprint, cold_r[0].fingerprint, "warm == cold, bit-exact");
        assert_eq!(obs.cache_hits.get(), 1);
        assert_eq!(obs.cache_misses.get(), 1);
        assert_eq!(obs.jobs_completed.get(), 2);
    }

    #[test]
    fn slack_scheme_warm_is_bit_identical_to_cold() {
        let (cold_r, warm_r, _) = cold_then_warm(r#"{"bench":"FFT","cores":4,"schemes":["S10"]}"#);
        assert!(!cold_r[0].cache_hit && warm_r[0].cache_hit);
        assert!(cold_r[0].output_ok && warm_r[0].output_ok);
        assert!(!cold_r[0].deterministic, "S10 is not zero-slack");
        assert_eq!(warm_r[0].fingerprint, cold_r[0].fingerprint, "warm S10 == cold S10");
        assert_eq!(warm_r[0].exec_cycles, cold_r[0].exec_cycles);
    }

    #[test]
    fn slack_schemes_repeat_on_a_fresh_cache() {
        let body = r#"{"bench":"racy_increment","cores":4,"schemes":["S10","SU"]}"#;
        let run = || {
            let j = job(body);
            assert_eq!(serve(&j, &SnapCache::new(4), &ServeObs::new()), JobState::Done);
            j.results().into_iter().map(|r| (r.scheme, r.fingerprint)).collect::<Vec<_>>()
        };
        let first = run();
        assert_eq!(first.len(), 2);
        assert_eq!(run(), first, "one spec, one result");
    }

    #[test]
    fn scheme_grid_forks_one_snapshot() {
        let cache = SnapCache::new(4);
        let obs = ServeObs::new();
        let j =
            job(r#"{"bench":"pingpong","cores":2,"schemes":["CC","Q100","S9*"],"metrics":true}"#);
        assert_eq!(serve(&j, &cache, &obs), JobState::Done);
        let rs = j.results();
        assert_eq!(rs.len(), 3);
        assert!(rs.iter().all(|r| r.output_ok), "{rs:?}");
        assert_eq!(j.metrics_dumps().len(), 3, "one sk-obs dump per scheme");
        assert_eq!(
            j.metrics_dumps()[0].1.get("schema").and_then(Json::as_str),
            Some("sk-obs-metrics")
        );
    }

    #[test]
    fn pre_cancelled_job_never_runs() {
        let cache = SnapCache::new(4);
        let obs = ServeObs::new();
        let j = job(r#"{"bench":"pingpong","cores":2}"#);
        j.request_cancel();
        assert_eq!(serve(&j, &cache, &obs), JobState::Cancelled);
        assert!(j.results().is_empty());
        assert_eq!(obs.jobs_cancelled.get(), 1);
        assert!(cache.is_empty());
    }
}
