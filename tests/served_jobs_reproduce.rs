//! A served job reproduces: the job server's result memo in tier-1. A
//! served run is a function of its spec (det scheduler, one fixed seed),
//! so a memo hit must equal a recomputation. On one server, FFT on four
//! cores under S10 is computed, then served from the memo; a two-scheme
//! grid hits S10 and computes S100; a `"metrics": true` job recomputes
//! both. A fresh server computes the grid in the other order. Every
//! scheme's fingerprint and simulated cycles agree across all of them.
//!
//! And a served scheme is the CLI's det simulation: its fingerprint and
//! cycles are those of `run_det` on the spec's program and config with
//! the server's seed, the run `slacksim run --det-seed 0` makes.

// This binary uses only the shared digest, not the golden-file helpers.
#[allow(dead_code)]
mod common;

use common::fnv1a64;
use sk_serve::json::{self, Json};
use sk_serve::worker::DET_SEED;
use sk_serve::{Client, JobSpec, Server, ServerConfig};
use std::collections::HashMap;
use std::time::Duration;

/// One scheme's entry in a status document.
#[derive(Debug)]
struct Served {
    scheme: String,
    cache_hit: bool,
    wall_ms: i64,
    output_ok: bool,
    fingerprint: String,
    exec_cycles: i64,
}

fn run(client: &mut Client, body: &str) -> Vec<Served> {
    let posted = client.post_job(body, "tier1").expect("post");
    assert_eq!(posted.status, 202, "{}", posted.body);
    let id = posted.json().unwrap().get("job").and_then(Json::as_i64).unwrap() as u64;
    let doc = client.wait_job(id, Duration::from_secs(60)).expect("job ends");
    assert_eq!(doc.get("state").and_then(Json::as_str), Some("done"), "{doc}");
    let results = doc.get("results").and_then(Json::as_arr).expect("results");
    results
        .iter()
        .map(|r| Served {
            scheme: r.get("scheme").and_then(Json::as_str).unwrap().to_string(),
            cache_hit: r.get("cache_hit").and_then(Json::as_bool).unwrap(),
            wall_ms: r.get("wall_ms").and_then(Json::as_i64).unwrap(),
            output_ok: r.get("output_ok").and_then(Json::as_bool).unwrap(),
            fingerprint: r.get("fingerprint").and_then(Json::as_str).unwrap().to_string(),
            exec_cycles: r.get("exec_cycles").and_then(Json::as_i64).unwrap(),
        })
        .collect()
}

/// Which entries of `job` were memo hits, in scheme order.
fn hits(job: &[Served]) -> Vec<(&str, bool)> {
    job.iter().map(|r| (r.scheme.as_str(), r.cache_hit)).collect()
}

fn server() -> Server {
    Server::start(ServerConfig { workers: 1, ..ServerConfig::default() })
        .expect("bind a loopback port")
}

#[test]
fn a_served_s10_job_is_bit_identical_cold_and_warm() {
    let one = r#"{"bench":"FFT","cores":4,"schemes":["S10"]}"#;
    let grid = r#"{"bench":"FFT","cores":4,"schemes":["S10","S100"]}"#;
    let metrics = r#"{"bench":"FFT","cores":4,"schemes":["S10","S100"],"metrics":true}"#;

    let a = server();
    let mut client = Client::new(a.addr());
    let computed = run(&mut client, one);
    let hit = run(&mut client, one);
    let mixed = run(&mut client, grid);
    let recomputed = run(&mut client, metrics);
    a.shutdown();

    let b = server();
    let fresh =
        run(&mut Client::new(b.addr()), r#"{"bench":"FFT","cores":4,"schemes":["S100","S10"]}"#);
    b.shutdown();

    assert_eq!(hits(&computed), [("S10", false)]);
    assert_eq!(hits(&hit), [("S10", true)]);
    assert_eq!(hit[0].wall_ms, 0, "nothing ran for a memo hit");
    assert_eq!(hits(&mixed), [("S10", true), ("S100", false)]);
    assert_eq!(hits(&recomputed), [("S10", false), ("S100", false)], "metrics jobs always run");
    assert_eq!(hits(&fresh), [("S100", false), ("S10", false)]);

    let mut first: HashMap<&str, &Served> = HashMap::new();
    for r in [&computed, &hit, &mixed, &recomputed, &fresh].into_iter().flatten() {
        assert!(r.output_ok, "{r:?} printed the wrong output");
        let f = first.entry(&r.scheme).or_insert(r);
        assert_eq!(
            (&r.fingerprint, r.exec_cycles),
            (&f.fingerprint, f.exec_cycles),
            "{} served {r:?} after {f:?}",
            r.scheme
        );
    }
    assert_eq!(first.len(), 2);
}

#[test]
fn every_served_scheme_is_the_det_run_of_its_spec() {
    let body = r#"{"bench":"FFT","cores":4,"schemes":["S10","S100","SU"]}"#;
    let a = server();
    let served = run(&mut Client::new(a.addr()), body);
    a.shutdown();

    let spec = JobSpec::from_json(&json::parse(body).unwrap(), "tier1").unwrap();
    let w = spec.workload().expect("FFT is served");
    assert_eq!(served.len(), spec.schemes.len());
    for (r, &scheme) in served.iter().zip(&spec.schemes) {
        let det = sk_core::run_det(&w.program, scheme, &spec.config(), DET_SEED);
        assert_eq!(r.scheme, det.scheme);
        assert_eq!(
            (r.fingerprint.as_str(), r.exec_cycles as u64),
            (format!("{:016x}", fnv1a64(det.fingerprint())).as_str(), det.exec_cycles),
            "{} served a run other than the det run of its spec",
            r.scheme
        );
    }
}
