//! Pins the bytes of the three documents sk-obs writes: the
//! `sk-obs-metrics` dump, the chrome trace and the `sk-serve-metrics`
//! dump, plus the hub's snapshot encoding. A change to how JSON or a
//! snapshot is written must leave every byte alone, or regenerate
//! deliberately with `SK_REGEN_GOLDEN=1 cargo test -p sk-obs --test
//! golden_dumps` and say so.

use sk_obs::{Counter, Histogram, Metrics, ObsConfig, Sample, ServeObs};
use sk_snap::{fnv1a64, Persist, Writer};

/// A two-core, one-shard hub with something in every section.
fn golden_hub() -> Metrics {
    let m = Metrics::new_sharded(2, 1, ObsConfig { sample_interval: 10, trace_capacity: 8 });
    for v in [0, 1, 3, 9, 10] {
        m.cores[0].slack.record(v);
    }
    m.cores[0].cycles.add(1234);
    m.cores[0].outq_high_water.raise_to(17);
    m.cores[0].utlb_hits.add(999);
    m.cores[0].utlb_misses.add(3);
    m.cores[0].run_batch.record_n(10, 4);
    m.cores[0].sb_blocks_formed.add(12);
    m.cores[0].sb_exit_branch.add(40);
    m.cores[0].sb_block_len.record(7);
    m.cores[1].park_ns.record(250_000);
    m.cores[1].cycles.add(1200);
    m.manager.iterations.add(9);
    m.manager.picks_elided.add(4);
    m.manager.events_ingested.add(456);
    m.manager.busy_ns.add(77_000);
    m.manager.inq_high_water[1].raise_to(3);
    m.manager.drain_batch.record_n(2, 5);
    m.shards[0].events.add(7);
    m.shards[0].iterations.add(2);
    m.shards[0].frontier_lag.record(12);
    m.record_sample(Sample { cycle: 100, violations: 1, slack: 9 });
    m.record_sample(Sample { cycle: 200, violations: 3, slack: 10 });
    m.trace.span_at(0, "run", 0, 10);
    m.trace.span_at(1, "park", 3, 2);
    m.trace.span_at(m.trace.manager_lane(), "drain", 5, 1);
    m
}

/// A two-core, one-shard hub in which every field the snapshot carries
/// holds its own non-zero value (each histogram a distinct count, sum,
/// min and max), so two swapped fields change the bytes. An engine
/// snapshot cannot pin these: with a hub attached it carries wall time.
fn snapshot_hub() -> Metrics {
    let m = Metrics::new_sharded(2, 1, ObsConfig { sample_interval: 7, trace_capacity: 9 });
    let mut k = 0;
    let mut next = || {
        k += 1;
        k
    };
    let mut hist = |h: &Histogram| {
        let v = 10 + next();
        h.record_n(v, 2);
        h.record(1000 * v);
    };
    for c in &m.cores {
        for h in [
            &c.slack,
            &c.park_ns,
            &c.sync_park_ns,
            &c.mem_park_ns,
            &c.out_batch,
            &c.run_batch,
            &c.sb_block_len,
        ] {
            hist(h);
        }
    }
    let g = &m.manager;
    for h in
        [&g.drain_batch, &g.backoff_us, &g.slack, &g.barrier_wait, &g.lock_wait, &g.shard_batch]
    {
        hist(h);
    }
    for s in &m.shards {
        for h in [&s.drain_batch, &s.heap_occupancy, &s.frontier_lag] {
            hist(h);
        }
    }
    let mut k = 100;
    let mut count = |c: &Counter| {
        k += 1;
        c.add(k);
    };
    for c in &m.cores {
        for n in [
            &c.cycles,
            &c.outq_high_water,
            &c.utlb_hits,
            &c.utlb_misses,
            &c.sb_blocks_formed,
            &c.sb_exit_branch,
            &c.sb_exit_miss,
            &c.sb_exit_sync,
            &c.sb_exit_syscall,
            &c.sb_exit_window,
            &c.sb_exit_fallback,
        ] {
            count(n);
        }
    }
    for n in [&g.iterations, &g.events_ingested, &g.busy_ns, &g.frontier_wait_ns] {
        count(n);
    }
    g.inq_high_water.iter().for_each(&mut count);
    for s in &m.shards {
        for n in [&s.iterations, &s.events, &s.busy_ns] {
            count(n);
        }
    }
    m.record_sample(Sample { cycle: 300, violations: 11, slack: 13 });
    m.record_sample(Sample { cycle: 400, violations: 12, slack: 14 });
    m
}

fn golden_serve() -> ServeObs {
    let s = ServeObs::new();
    s.jobs_submitted.add(3);
    s.jobs_completed.add(2);
    s.jobs_shed.inc();
    s.cache_hits.add(2);
    s.cache_misses.inc();
    s.queue_depth.record(4);
    s.warm_wall_ms.record(12);
    s.cold_wall_ms.record(40);
    s
}

fn check(name: &str, actual: &str, expected: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("SK_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, format!("{actual}\n")).expect("write the golden file");
        return;
    }
    assert_eq!(actual, expected.trim_end(), "{path} drifted; regenerate only on purpose");
}

#[test]
fn metrics_dump_matches_the_golden_bytes() {
    check("metrics.json", &golden_hub().to_json(), include_str!("golden/metrics.json"));
}

#[test]
fn chrome_trace_matches_the_golden_bytes() {
    check("trace.json", &golden_hub().trace_json(), include_str!("golden/trace.json"));
}

#[test]
fn hub_snapshot_matches_the_golden_bytes() {
    let mut w = Writer::new();
    snapshot_hub().save(&mut w);
    let bytes = w.into_bytes();
    let actual = format!("len={} fnv={:016x}", bytes.len(), fnv1a64(&bytes));
    check("metrics_snap.txt", &actual, include_str!("golden/metrics_snap.txt"));
}

#[test]
fn serve_dump_matches_the_golden_bytes() {
    check(
        "serve_metrics.json",
        &golden_serve().to_json(),
        include_str!("golden/serve_metrics.json"),
    );
}
