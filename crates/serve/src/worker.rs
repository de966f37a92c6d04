//! Job execution: the result memo and the per-scheme run loop, every
//! run on the deterministic scheduler.
//!
//! A served run is a function of (program image, config, scenario,
//! scheme): each scheme runs from the start on [`DetEngine`] with the
//! fixed [`DET_SEED`], the run `slacksim run --det-seed 0` makes of the
//! same spec. So a job first looks each scheme up in the
//! [`ResultCache`], and only the schemes that miss run; each finished
//! result goes into the memo. A job with `"metrics": true` runs every
//! scheme, since telemetry belongs to a run, and still refreshes the memo.
//!
//! A job runs on the thread that took it from the queue: the server gets
//! its parallelism across jobs (`ServerConfig::workers`), not inside one
//! small job, where a second pool worker costs more than it brings.
//!
//! Cancellation: the job's sticky flag is checked between schemes, and
//! while an engine is in flight its cancel token is armed on the job so
//! `DELETE /jobs/<id>` lands mid-simulation at the scheduler's next
//! manager pick. A cancelled, failed or panicked scheme memoizes nothing.
//!
//! [`run_job`] computes a job's terminal state; `finish` books it in
//! the server counters and only then publishes it, waking any client
//! blocked on `GET /jobs/<id>?wait_ms=`.

use crate::cache::ResultCache;
use crate::job::{Job, JobState, SchemeResult};
use sk_core::engine::RunOutcome;
use sk_core::DetEngine;
use sk_obs::json::Json;
use sk_obs::{ObsConfig, ServeObs};
use sk_snap::fnv1a64;
use std::time::Instant;

/// Det-scheduler seed of every served run. One fixed seed makes a job's
/// results a function of its spec.
pub const DET_SEED: u64 = 0;

/// Run one admitted job to its terminal state and return it, unpublished:
/// the caller hands it to `finish`. Faults are folded into
/// `JobState::Failed` (panics are the worker loop's `catch_unwind`).
pub fn run_job(job: &Job, cache: &ResultCache, obs: &ServeObs) -> JobState {
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
    let key = job.spec.memo_key(&workload.program, &cfg);

    let start = Instant::now();
    let memo: Vec<Option<SchemeResult>> = job
        .spec
        .schemes
        .iter()
        .map(|&scheme| if job.spec.metrics { None } else { cache.get(&(key, scheme)) })
        .collect();
    let cache_hit = memo.iter().all(Option::is_some);
    if cache_hit {
        obs.cache_hits.inc();
    } else {
        obs.cache_misses.inc();
    }

    for (scheme, hit) in job.spec.schemes.iter().zip(memo) {
        if let Some(result) = hit {
            job.push_result(result);
            continue;
        }
        if job.cancel_requested() {
            return JobState::Cancelled;
        }
        let mut det = DetEngine::new(&workload.program, *scheme, &cfg, DET_SEED);
        let engine = det.engine_mut();
        let hub = job.spec.metrics.then(|| engine.attach_new_metrics(ObsConfig::default()));
        let token = engine.cancel_token();

        let scheme_start = Instant::now();
        job.arm_engine_token(token);
        let outcome = det.run();
        job.disarm_engine_token();
        let wall_ms = scheme_start.elapsed().as_millis() as u64;
        match outcome {
            RunOutcome::Finished => {}
            RunOutcome::Cancelled => return JobState::Cancelled,
            RunOutcome::CheckpointReady => return JobState::Failed("unexpected checkpoint".into()),
        }

        let report = det.into_report();
        let printed: Vec<i64> = report.printed().into_iter().map(|(_, v)| v).collect();
        let result = SchemeResult {
            scheme: report.scheme.clone(),
            exec_cycles: report.exec_cycles,
            fingerprint: format!("{:016x}", fnv1a64(report.fingerprint().as_bytes())),
            output_ok: printed == workload.expected,
            cache_hit: false,
            deterministic: scheme.slack_bound() == Some(0),
            wall_ms,
            kips: report.kips(),
        };
        cache.insert((key, *scheme), &result);
        job.push_result(result);
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
    fn serve(job: &Job, cache: &ResultCache, obs: &ServeObs) -> JobState {
        finish(job, obs, run_job(job, cache, obs))
    }

    /// Computed on an empty memo, then served from the entries it left.
    fn computed_then_hit(body: &str) -> (Vec<SchemeResult>, Vec<SchemeResult>, ServeObs) {
        let cache = ResultCache::new(4);
        let obs = ServeObs::new();
        let cold = job(body);
        assert_eq!(serve(&cold, &cache, &obs), JobState::Done);
        assert_eq!(cache.len(), cold.spec.schemes.len(), "one memo entry per scheme");
        let warm = job(body);
        assert_eq!(serve(&warm, &cache, &obs), JobState::Done);
        (cold.results(), warm.results(), obs)
    }

    /// A hit is the computed result, with nothing run.
    fn assert_hit_of(hit: &SchemeResult, computed: &SchemeResult) {
        assert!(hit.cache_hit && !computed.cache_hit);
        assert_eq!(hit.wall_ms, 0, "nothing ran for a hit");
        assert_eq!(
            &SchemeResult { cache_hit: false, wall_ms: computed.wall_ms, ..hit.clone() },
            computed
        );
    }

    #[test]
    fn a_repeat_job_is_served_from_the_memo() {
        let (cold_r, warm_r, obs) =
            computed_then_hit(r#"{"bench":"lock_sweep","cores":2,"schemes":["CC"]}"#);
        assert_eq!(cold_r.len(), 1);
        assert!(cold_r[0].output_ok, "computed run output");
        assert_hit_of(&warm_r[0], &cold_r[0]);
        assert_eq!(obs.cache_hits.get(), 1);
        assert_eq!(obs.cache_misses.get(), 1);
        assert_eq!(obs.jobs_completed.get(), 2);
    }

    #[test]
    fn a_slack_scheme_hit_equals_its_computed_run() {
        let (cold_r, warm_r, _) =
            computed_then_hit(r#"{"bench":"FFT","cores":4,"schemes":["S10"]}"#);
        assert!(cold_r[0].output_ok);
        assert!(!cold_r[0].deterministic, "S10 is not zero-slack");
        assert_hit_of(&warm_r[0], &cold_r[0]);
    }

    #[test]
    fn slack_schemes_repeat_on_a_fresh_memo() {
        let body = r#"{"bench":"racy_increment","cores":4,"schemes":["S10","SU"]}"#;
        let run = || {
            let j = job(body);
            assert_eq!(serve(&j, &ResultCache::new(4), &ServeObs::new()), JobState::Done);
            j.results().into_iter().map(|r| (r.scheme, r.fingerprint)).collect::<Vec<_>>()
        };
        let first = run();
        assert_eq!(first.len(), 2);
        assert_eq!(run(), first, "one spec, one result");
    }

    #[test]
    fn only_the_missed_schemes_run() {
        let cache = ResultCache::new(8);
        let obs = ServeObs::new();
        let one = job(r#"{"bench":"pingpong","cores":2,"schemes":["Q100"]}"#);
        assert_eq!(serve(&one, &cache, &obs), JobState::Done);
        let grid = job(r#"{"bench":"pingpong","cores":2,"schemes":["CC","Q100"]}"#);
        assert_eq!(serve(&grid, &cache, &obs), JobState::Done);
        let rs = grid.results();
        assert_eq!(rs.iter().map(|r| r.cache_hit).collect::<Vec<_>>(), [false, true]);
        assert_hit_of(&rs[1], &one.results()[0]);
        assert_eq!(cache.len(), 2);
        assert_eq!((obs.cache_hits.get(), obs.cache_misses.get()), (0, 2), "a partial hit misses");
    }

    #[test]
    fn a_metrics_job_runs_every_scheme_and_refreshes_the_memo() {
        let cache = ResultCache::new(4);
        let obs = ServeObs::new();
        let plain = job(r#"{"bench":"pingpong","cores":2,"schemes":["CC","Q100","S9*"]}"#);
        assert_eq!(serve(&plain, &cache, &obs), JobState::Done);
        let j =
            job(r#"{"bench":"pingpong","cores":2,"schemes":["CC","Q100","S9*"],"metrics":true}"#);
        assert_eq!(serve(&j, &cache, &obs), JobState::Done);
        let rs = j.results();
        assert_eq!(rs.len(), 3);
        assert!(rs.iter().all(|r| r.output_ok && !r.cache_hit), "{rs:?}");
        let runs = |rs: Vec<SchemeResult>| -> Vec<_> {
            rs.into_iter().map(|r| (r.scheme, r.exec_cycles, r.fingerprint)).collect()
        };
        assert_eq!(runs(rs), runs(plain.results()), "a recomputation equals the first run");
        assert_eq!(j.metrics_dumps().len(), 3, "one sk-obs dump per scheme");
        assert_eq!(
            j.metrics_dumps()[0].1.get("schema").and_then(Json::as_str),
            Some("sk-obs-metrics")
        );
        assert_eq!((obs.cache_hits.get(), obs.cache_misses.get()), (0, 2));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn pre_cancelled_job_never_runs_and_memoizes_nothing() {
        let cache = ResultCache::new(4);
        let obs = ServeObs::new();
        let body = r#"{"bench":"pingpong","cores":2}"#;
        let j = job(body);
        j.request_cancel();
        assert_eq!(serve(&j, &cache, &obs), JobState::Cancelled);
        assert!(j.results().is_empty());
        assert_eq!(obs.jobs_cancelled.get(), 1);
        assert!(cache.is_empty());
        assert_eq!(obs.cache_misses.get() + obs.cache_hits.get(), 0, "returned before any lookup");

        let next = job(body);
        assert_eq!(serve(&next, &cache, &obs), JobState::Done);
        assert!(!next.results()[0].cache_hit, "the next post is computed");
    }
}
