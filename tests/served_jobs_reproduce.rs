//! A served job reproduces: the job server's warm-start contract in
//! tier-1. One in-process server runs one S10 job twice, cold (CC probe,
//! snapshot, fork) and warm (fork from the cached snapshot). Jobs run on
//! the det scheduler on one fixed seed, so the slack scheme's
//! fingerprint is bit-identical across the two, not only its output.

use sk_serve::json::Json;
use sk_serve::{Client, Server, ServerConfig};
use std::time::Duration;

/// `(cache_hit, output_ok, fingerprint)` of the job's only scheme.
fn run(client: &mut Client, body: &str) -> (bool, bool, String) {
    let posted = client.post_job(body, "tier1").expect("post");
    assert_eq!(posted.status, 202, "{}", posted.body);
    let id = posted.json().unwrap().get("job").and_then(Json::as_i64).unwrap() as u64;
    let doc = client.wait_job(id, Duration::from_secs(60)).expect("job ends");
    assert_eq!(doc.get("state").and_then(Json::as_str), Some("done"), "{doc}");
    let results = doc.get("results").and_then(Json::as_arr).expect("results");
    assert_eq!(results.len(), 1);
    let r = &results[0];
    (
        r.get("cache_hit").and_then(Json::as_bool).unwrap(),
        r.get("output_ok").and_then(Json::as_bool).unwrap(),
        r.get("fingerprint").and_then(Json::as_str).unwrap().to_string(),
    )
}

#[test]
fn a_served_s10_job_is_bit_identical_cold_and_warm() {
    let server = Server::start(ServerConfig { workers: 1, ..ServerConfig::default() })
        .expect("bind a loopback port");
    let mut client = Client::new(server.addr());
    let body = r#"{"bench":"FFT","cores":4,"schemes":["S10"]}"#;

    let (cold_hit, cold_ok, cold_fp) = run(&mut client, body);
    let (warm_hit, warm_ok, warm_fp) = run(&mut client, body);
    server.shutdown();

    assert!(!cold_hit && warm_hit, "cold probes, warm forks the cached snapshot");
    assert!(cold_ok && warm_ok, "both runs print the kernel's expected output");
    assert_eq!(warm_fp, cold_fp, "warm S10 fork diverged from the cold run");
}
