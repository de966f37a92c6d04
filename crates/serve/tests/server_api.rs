//! End-to-end API tests against a live in-process server: real sockets,
//! real workers, real simulations (tiny 2-core micro-kernels).

use sk_obs::json::Json;
use sk_serve::client::Client;
use sk_serve::server::{Server, ServerConfig};
use std::time::Duration;

fn small_server(workers: usize, queue: usize, quota: usize) -> Server {
    Server::start(ServerConfig {
        workers,
        queue_capacity: queue,
        tenant_quota: quota,
        ..ServerConfig::default()
    })
    .expect("bind server")
}

const DEADLINE: Duration = Duration::from_secs(60);

fn submit(c: &mut Client, body: &str, tenant: &str) -> u64 {
    let resp = c.post_job(body, tenant).expect("post");
    assert_eq!(resp.status, 202, "unexpected response: {}", resp.body);
    resp.json().unwrap().get("job").unwrap().as_i64().unwrap() as u64
}

/// Run to completion, return (state doc, per-scheme (scheme, fingerprint,
/// cache_hit, output_ok)).
fn finish(c: &mut Client, id: u64) -> (Json, Vec<(String, String, bool, bool)>) {
    let doc = c.wait_job(id, DEADLINE).expect("job finished");
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|r| {
            (
                r.get("scheme").unwrap().as_str().unwrap().to_string(),
                r.get("fingerprint").unwrap().as_str().unwrap().to_string(),
                r.get("cache_hit").unwrap().as_bool().unwrap(),
                r.get("output_ok").unwrap().as_bool().unwrap(),
            )
        })
        .collect();
    (doc, results)
}

/// The server's hit/miss ledger from `GET /metrics`: (hits, misses).
fn hits_misses(c: &mut Client) -> (i64, i64) {
    let doc = c.get("/metrics").unwrap().json().unwrap();
    let counters = doc.get("counters").unwrap();
    let n = |k: &str| counters.get(k).unwrap().as_i64().unwrap();
    (n("cache_hits"), n("cache_misses"))
}

#[test]
fn a_metrics_job_recomputes_and_a_plain_repeat_hits_the_memo() {
    let server = small_server(2, 16, 8);
    let mut c = Client::new(server.addr());
    let plain = r#"{"bench":"lock_sweep","cores":2,"schemes":["CC","Q100"]}"#;
    let metrics = r#"{"bench":"lock_sweep","cores":2,"schemes":["CC","Q100"],"metrics":true}"#;

    let cold_id = submit(&mut c, metrics, "alice");
    let (cold_doc, cold) = finish(&mut c, cold_id);
    assert_eq!(cold_doc.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(cold.len(), 2);
    assert!(cold.iter().all(|(_, _, hit, ok)| !hit && *ok), "{cold:?}");

    // Telemetry belongs to a run: a second metrics job runs again.
    let again_id = submit(&mut c, metrics, "alice");
    let (_, again) = finish(&mut c, again_id);
    assert!(again.iter().all(|(_, _, hit, ok)| !hit && *ok), "{again:?}");

    // Different tenant, plain spec: the memo is content-addressed, not
    // tenant-scoped, and the metrics runs filled it.
    let warm_id = submit(&mut c, plain, "bob");
    let (_, warm) = finish(&mut c, warm_id);
    assert!(warm.iter().all(|(_, _, hit, ok)| *hit && *ok), "{warm:?}");
    // Jobs run on the det scheduler, so every scheme's recomputation and
    // memo hit equal the first run, the slack scheme (Q100) as much as CC.
    for run in [&again, &warm] {
        assert_eq!(run.len(), cold.len());
        for ((cs, cf, _, _), (s, f, _, _)) in cold.iter().zip(run) {
            assert_eq!(cs, s);
            assert_eq!(cf, f, "{cs} diverged from the first run");
        }
    }

    // Per-job sk-obs dumps stream through the API.
    let m = c.get(&format!("/jobs/{cold_id}/metrics")).unwrap();
    assert_eq!(m.status, 200);
    assert!(m.body.contains("\"schema\":\"sk-obs-metrics\""), "{}", m.body);

    // Server telemetry shows the hit/miss ledger.
    assert_eq!(hits_misses(&mut c), (1, 2));
    let doc = c.get("/metrics").unwrap().json().unwrap();
    assert_eq!(doc.get("counters").unwrap().get("jobs_completed").unwrap().as_i64(), Some(3));

    server.shutdown();
}

#[test]
fn the_dump_mirrors_the_memos_evictions() {
    let server = Server::start(ServerConfig { workers: 1, cache_entries: 1, ..Default::default() })
        .expect("bind server");
    let mut c = Client::new(server.addr());
    // A one-entry memo: each computed result evicts the one before.
    for scheme in ["CC", "Q100", "CC"] {
        let body = format!(r#"{{"bench":"pingpong","cores":2,"schemes":["{scheme}"]}}"#);
        let id = submit(&mut c, &body, "alice");
        let (_, results) = finish(&mut c, id);
        assert!(!results[0].2, "{scheme} was evicted before it was asked for again");
    }
    let doc = c.get("/metrics").unwrap().json().unwrap();
    assert_eq!(doc.get("counters").unwrap().get("cache_evictions").unwrap().as_i64(), Some(2));
    assert_eq!(hits_misses(&mut c), (0, 3));
    server.shutdown();
}

#[test]
fn malformed_requests_get_400_and_are_counted() {
    let server = small_server(1, 4, 4);
    let mut c = Client::new(server.addr());

    for (body, why) in [
        ("{not json", "syntax"),
        ("[1,2,3]", "not an object"),
        (r#"{"bench":"no-such-kernel"}"#, "unknown bench"),
        (r#"{"bench":"FFT","schemes":["WAT"]}"#, "bad scheme"),
        (r#"{"bench":"FFT","cores":999}"#, "cores cap"),
    ] {
        let resp = c.post_job(body, "alice").unwrap();
        assert_eq!(resp.status, 400, "{why}: {}", resp.body);
        assert!(resp.json().unwrap().get("error").is_some(), "{why}");
    }
    // Unknown endpoints 404; health stays green throughout.
    assert_eq!(c.get("/nope").unwrap().status, 404);
    assert_eq!(c.get("/healthz").unwrap().status, 200);

    let doc = c.get("/metrics").unwrap().json().unwrap();
    assert_eq!(doc.get("counters").unwrap().get("bad_requests").unwrap().as_i64(), Some(5));
    server.shutdown();
}

#[test]
fn overload_sheds_429_with_retry_after_and_stays_live() {
    // One worker, two queue slots: a burst must shed.
    let server = small_server(1, 2, 64);
    let mut c = Client::new(server.addr());
    let body = r#"{"bench":"private_compute","cores":2,"schemes":["CC"]}"#;

    let mut accepted = Vec::new();
    let mut shed = 0u64;
    for _ in 0..12 {
        let resp = c.post_job(body, "alice").unwrap();
        match resp.status {
            202 => accepted.push(resp.json().unwrap().get("job").unwrap().as_i64().unwrap() as u64),
            429 => {
                assert_eq!(resp.header("retry-after"), Some("1"), "429 carries Retry-After");
                assert!(resp.body.contains("queue full"), "{}", resp.body);
                shed += 1;
            }
            other => panic!("unexpected status {other}: {}", resp.body),
        }
    }
    assert!(shed > 0, "burst of 12 into a 2-slot queue must shed");
    assert!(!accepted.is_empty(), "some jobs must be admitted");

    // The server survives the burst: everything admitted completes, and
    // the shed count is in the dump.
    for id in &accepted {
        let (doc, _) = finish(&mut c, *id);
        assert_eq!(doc.get("state").unwrap().as_str(), Some("done"));
    }
    assert_eq!(c.get("/healthz").unwrap().status, 200);
    let doc = c.get("/metrics").unwrap().json().unwrap();
    assert_eq!(doc.get("counters").unwrap().get("jobs_shed").unwrap().as_i64(), Some(shed as i64));
    server.shutdown();
}

#[test]
fn tenant_quota_shedding_is_per_tenant() {
    // Huge queue, quota of 1 in-flight job per tenant.
    let server = small_server(1, 64, 1);
    let mut c = Client::new(server.addr());
    let body = r#"{"bench":"pingpong","cores":2,"schemes":["CC"]}"#;

    // Alice's first job runs long enough to be in flight at her second
    // request (a tiny one can finish before the request lands).
    let first =
        submit(&mut c, r#"{"bench":"FFT","cores":16,"scale":"bench","schemes":["CC"]}"#, "alice");
    let second = c.post_job(body, "alice").unwrap();
    assert_eq!(second.status, 429, "alice is at quota");
    assert!(second.body.contains("quota"), "{}", second.body);
    // Bob is unaffected by alice's quota.
    let bob = submit(&mut c, body, "bob");

    // Free the only worker for bob's job; a cancelled job is terminal.
    assert_eq!(c.cancel_job(first).unwrap().status, 202);
    let (doc, _) = finish(&mut c, first);
    assert_eq!(doc.get("state").unwrap().as_str(), Some("cancelled"));
    let (doc, _) = finish(&mut c, bob);
    assert_eq!(doc.get("state").unwrap().as_str(), Some("done"));
    // Terminal jobs release the quota slot.
    let again = c.post_job(body, "alice").unwrap();
    assert_eq!(again.status, 202, "{}", again.body);
    server.shutdown();
}

#[test]
fn delete_cancels_a_queued_job() {
    // One worker pinned on a long-ish job; the queued one gets cancelled.
    let server = small_server(1, 8, 8);
    let mut c = Client::new(server.addr());

    let busy = submit(
        &mut c,
        r#"{"bench":"lock_sweep","cores":2,"schemes":["CC","Q100","S9*"]}"#,
        "alice",
    );
    let victim = submit(&mut c, r#"{"bench":"FFT","cores":2,"schemes":["CC"]}"#, "bob");
    let resp = c.cancel_job(victim).unwrap();
    assert_eq!(resp.status, 202);

    let (doc, results) = finish(&mut c, victim);
    // The cancel races the worker: either it never ran, or it ran to
    // completion first. Both are legal; "failed" is not.
    let state = doc.get("state").unwrap().as_str().unwrap();
    assert!(state == "cancelled" || state == "done", "state={state}");
    if state == "cancelled" {
        assert!(results.is_empty(), "a cancelled-before-run job has no results");
    }
    let (busy_doc, _) = finish(&mut c, busy);
    assert_eq!(busy_doc.get("state").unwrap().as_str(), Some("done"));
    server.shutdown();
}

#[test]
fn wait_ms_returns_the_terminal_document_without_client_polling() {
    let server = small_server(1, 4, 4);
    let mut c = Client::new(server.addr());
    let id = submit(&mut c, r#"{"bench":"lock_sweep","cores":2,"schemes":["S10"]}"#, "alice");

    // One request, no client-side sleep: the server holds it until the
    // job is terminal.
    let resp = c.get(&format!("/jobs/{id}?wait_ms=60000")).unwrap();
    assert_eq!(resp.status, 200);
    let doc = resp.json().unwrap();
    assert_eq!(doc.get("state").and_then(Json::as_str), Some("done"), "{}", resp.body);
    assert_eq!(doc.get("results").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
    // The counters moved before the wake-up.
    let metrics = c.get("/metrics").unwrap().json().unwrap();
    assert_eq!(metrics.get("counters").unwrap().get("jobs_completed").unwrap().as_i64(), Some(1));

    // A terminal job answers at once; a bad wait is a typed 400.
    assert_eq!(c.get(&format!("/jobs/{id}?wait_ms=60000")).unwrap().status, 200);
    assert_eq!(c.get(&format!("/jobs/{id}?wait_ms=soon")).unwrap().status, 400);
    assert_eq!(c.get("/jobs/9999?wait_ms=10").unwrap().status, 404);
    server.shutdown();
}

/// Call `probe` every millisecond until `done` holds of its value, and
/// return that value.
fn poll<T>(mut probe: impl FnMut() -> T, done: impl Fn(&T) -> bool) -> T {
    let start = std::time::Instant::now();
    loop {
        let value = probe();
        if done(&value) {
            return value;
        }
        assert!(start.elapsed() < DEADLINE, "the condition never held");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn delete_lands_mid_run_and_memoizes_nothing() {
    let server = small_server(1, 4, 4);
    let mut c = Client::new(server.addr());
    // SU finishes first; CC in lockstep on 16 cores then runs long
    // enough that the DELETE below always finds it simulating.
    let body = r#"{"bench":"FFT","cores":16,"scale":"bench","schemes":["SU","CC"]}"#;
    let id = submit(&mut c, body, "alice");
    let status = |c: &mut Client| c.get(&format!("/jobs/{id}")).unwrap().json().unwrap();
    poll(|| status(&mut c), |doc| doc.get("results").and_then(Json::as_arr).unwrap().len() == 1);
    assert_eq!(c.cancel_job(id).unwrap().status, 202);
    let (doc, results) = finish(&mut c, id);
    assert_eq!(doc.get("state").unwrap().as_str(), Some("cancelled"));
    assert_eq!(results.len(), 1, "CC was stopped mid-run: {results:?}");
    assert!(results[0].3, "SU ran to the end");

    // SU's finished run is memoized and CC's cancelled one is not, so
    // the same spec again is a miss: a job is a hit only when every
    // scheme comes from the memo. The lookup is booked before anything
    // simulates.
    let again = submit(&mut c, body, "alice");
    let booked = poll(|| hits_misses(&mut c), |(hits, misses)| hits + misses == 2);
    assert_eq!(booked, (0, 2), "the cancelled CC run left a memo entry");
    assert_eq!(c.cancel_job(again).unwrap().status, 202);
    let (doc, results) = finish(&mut c, again);
    assert_eq!(doc.get("state").unwrap().as_str(), Some("cancelled"));
    assert!(results.iter().all(|(s, _, hit, _)| s == "SU" && *hit), "{results:?}");

    let metrics = c.get("/metrics").unwrap().json().unwrap();
    assert_eq!(metrics.get("counters").unwrap().get("jobs_cancelled").unwrap().as_i64(), Some(2));
    server.shutdown();
}

#[test]
fn benches_endpoint_lists_the_catalogue() {
    let server = small_server(1, 4, 4);
    let mut c = Client::new(server.addr());
    let doc = c.get("/benches").unwrap().json().unwrap();
    let names: Vec<&str> =
        doc.get("benches").unwrap().as_arr().unwrap().iter().filter_map(Json::as_str).collect();
    for expect in ["FFT", "LU", "pingpong", "lock_sweep"] {
        assert!(names.iter().any(|n| n.eq_ignore_ascii_case(expect)), "missing {expect}");
    }
    server.shutdown();
}

/// The acceptance loop for the declarative frontend: the *committed*
/// scenario file drives a server job whose result is bit-identical to
/// running the same artifact in-process — the same property the CLI and
/// det-fuzzer legs pin, so one `.skn` means one simulation everywhere.
#[test]
fn committed_scenario_file_drives_a_bit_identical_job() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/pipeline_cc.skn");
    let text = std::fs::read_to_string(&path).expect("committed scenario file");

    // In-process reference: same spec admission path as the server.
    let body = format!("{{\"scenario\":\"{}\"}}", sk_obs::json::escape(&text));
    let spec = sk_serve::job::JobSpec::from_json(&sk_obs::json::parse(&body).unwrap(), "alice")
        .expect("committed scenario admits");
    let w = spec.workload().expect("scenario workload");
    let reference = sk_core::run_parallel(&w.program, spec.schemes[0], &spec.config());
    let reference_fp = format!("{:016x}", sk_snap::fnv1a64(reference.fingerprint().as_bytes()));

    let server = small_server(2, 16, 8);
    let mut c = Client::new(server.addr());
    let cold_id = submit(&mut c, &body, "alice");
    let (doc, cold) = finish(&mut c, cold_id);
    assert_eq!(doc.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(doc.get("bench").unwrap().as_str(), Some("pipeline"));
    assert_eq!(cold.len(), 1);
    let (scheme, fp, hit, ok) = &cold[0];
    assert_eq!(scheme, "CC");
    assert!(*ok && !*hit, "{cold:?}");
    assert_eq!(fp, &reference_fp, "server scenario run diverged from the in-process run");

    // Repeat posting of the same file is served from the memo, and the
    // memo holds exactly the in-process result.
    let warm_id = submit(&mut c, &body, "bob");
    let (_, warm) = finish(&mut c, warm_id);
    assert!(warm[0].2, "repeat scenario job missed the result memo");
    assert_eq!(warm[0].1, reference_fp, "memoized scenario result diverged");

    server.shutdown();
}
