//! Pins the bytes of the documents the job API writes for a job: one
//! scheme's result, the `GET /jobs/<id>` status document and the loadgen
//! stats line.

use sk_obs::json::{parse, Json};
use sk_serve::job::{Job, JobSpec, JobState, SchemeResult};
use sk_serve::LoadgenStats;
use std::time::Duration;

fn result(scheme: &str, cache_hit: bool) -> SchemeResult {
    SchemeResult {
        scheme: scheme.into(),
        exec_cycles: 48_123,
        fingerprint: "00ff00ff00ff00ff".into(),
        output_ok: true,
        cache_hit,
        deterministic: scheme == "CC",
        wall_ms: 7,
        kips: 1234.5,
    }
}

#[test]
fn scheme_result_bytes_are_pinned() {
    assert_eq!(
        Json::from(&result("S9*", true)).to_string(),
        "{\"scheme\":\"S9*\",\"exec_cycles\":48123,\"fingerprint\":\"00ff00ff00ff00ff\",\
         \"output_ok\":true,\"cache_hit\":true,\"deterministic\":false,\"wall_ms\":7,\
         \"kips\":1234.5}"
    );
}

#[test]
fn job_status_bytes_are_pinned() {
    let spec = JobSpec::from_json(&parse(r#"{"bench":"FFT","priority":-2}"#).unwrap(), "t\"1")
        .expect("a valid spec");
    let job = Job::new(42, spec);
    job.push_result(result("CC", false));
    job.push_result(result("S10", true));
    job.set_state(JobState::Failed("panic at \"core 3\"".into()));
    assert_eq!(
        job.to_json(),
        "{\"job\":42,\"state\":\"failed\",\"tenant\":\"t\\\"1\",\"bench\":\"FFT\",\"cores\":4,\
         \"priority\":-2,\"error\":\"panic at \\\"core 3\\\"\",\"results\":[\
         {\"scheme\":\"CC\",\"exec_cycles\":48123,\"fingerprint\":\"00ff00ff00ff00ff\",\
         \"output_ok\":true,\"cache_hit\":false,\"deterministic\":true,\"wall_ms\":7,\
         \"kips\":1234.5},\
         {\"scheme\":\"S10\",\"exec_cycles\":48123,\"fingerprint\":\"00ff00ff00ff00ff\",\
         \"output_ok\":true,\"cache_hit\":true,\"deterministic\":false,\"wall_ms\":7,\
         \"kips\":1234.5}]}"
    );
}

#[test]
fn loadgen_stats_bytes_are_pinned() {
    let stats = LoadgenStats {
        submitted: 12,
        completed: 11,
        failed: 1,
        queue_shed: 2,
        warm_jobs: 8,
        cold_jobs: 3,
        warm_wall_ms: 20,
        cold_wall_ms: 75,
        wall: Duration::from_millis(1500),
        ..LoadgenStats::default()
    };
    assert_eq!(
        stats.to_json(),
        "{\"submitted\":12,\"completed\":11,\"failed\":1,\"cancelled\":0,\"queue_shed\":2,\
         \"quota_shed\":0,\"bad_requests\":0,\"warm_jobs\":8,\"cold_jobs\":3,\
         \"mean_warm_ms\":2.5,\"mean_cold_ms\":25.0,\"fingerprint_mismatches\":0,\
         \"output_mismatches\":0,\"wall_ms\":1500}"
    );
}
