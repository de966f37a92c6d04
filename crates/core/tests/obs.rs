//! Telemetry-layer integration tests: cycle-neutrality of the hub,
//! non-empty histograms under a slack scheme, and counter persistence
//! through snapshot/restore.

use sk_core::engine::{Engine, RunOutcome};
use sk_core::{CoreModel, Scheme, TargetConfig};
use sk_isa::{Program, ProgramBuilder, Reg, Syscall};
use sk_obs::json::{parse, Json};
use sk_obs::{Metrics, ObsConfig};
use std::sync::Arc;

/// Lock-serialized shared counter (the canonical deterministic workload:
/// same shape as the snapshot tests').
fn counter_workload(n: usize, iters: i64) -> Program {
    let a0 = Reg::arg(0);
    let a1 = Reg::arg(1);
    let mut b = ProgramBuilder::new();
    let counter = b.zeros("counter", 1);

    let worker = b.new_label("worker");
    let main = b.here("main");
    b.li(a0, 0);
    b.sys(Syscall::InitLock);
    b.li(a0, 1);
    b.li(a1, n as i64);
    b.sys(Syscall::InitBarrier);
    for _ in 1..n {
        b.la_text(a0, worker);
        b.li(a1, 0);
        b.sys(Syscall::Spawn);
    }
    b.sys(Syscall::RoiBegin);
    b.j(worker);

    b.bind(worker);
    let t_iter = Reg::saved(0);
    let t_addr = Reg::saved(1);
    let t_val = Reg::tmp(1);
    let t_inc = Reg::saved(2);
    b.li(t_iter, iters);
    b.li(t_addr, counter as i64);
    b.sys(Syscall::GetTid);
    b.addi(t_inc, a0, 1);
    let loop_top = b.here("loop");
    b.li(a0, 0);
    b.sys(Syscall::Lock);
    b.ld(t_val, t_addr, 0);
    b.add(t_val, t_val, t_inc);
    b.st(t_val, t_addr, 0);
    b.li(a0, 0);
    b.sys(Syscall::Unlock);
    b.addi(t_iter, t_iter, -1);
    b.bne(t_iter, Reg::ZERO, loop_top);
    b.li(a0, 1);
    b.sys(Syscall::Barrier);
    let done = b.new_label("done");
    b.sys(Syscall::GetTid);
    b.bne(a0, Reg::ZERO, done);
    b.ld(a0, t_addr, 0);
    b.sys(Syscall::PrintInt);
    b.bind(done);
    b.sys(Syscall::Exit);

    b.entry(main);
    b.build().unwrap()
}

fn cfg(n: usize) -> TargetConfig {
    let mut cfg = TargetConfig::paper_8core();
    cfg.n_cores = n;
    cfg.core.model = CoreModel::InOrder;
    cfg
}

fn run_with_obs(
    program: &Program,
    scheme: Scheme,
    cfg: &TargetConfig,
) -> (sk_core::SimReport, Arc<Metrics>) {
    let mut e = Engine::new(program, scheme, cfg);
    let obs = e.attach_new_metrics(ObsConfig::default());
    e.run_until(None);
    (e.into_report(), obs)
}

/// Attaching a hub must not change a single simulated cycle: telemetry
/// reads host clocks, never target state. CC is bit-deterministic, so any
/// divergence is an instrumentation bug.
#[test]
fn metrics_hub_is_cycle_neutral() {
    let program = counter_workload(4, 30);
    let c = cfg(4);
    let mut plain = Engine::new(&program, Scheme::CycleByCycle, &c);
    plain.run_until(None);
    let a = plain.into_report();
    let (b, _) = run_with_obs(&program, Scheme::CycleByCycle, &c);
    assert_eq!(a.exec_cycles, b.exec_cycles, "telemetry changed simulated time");
    assert_eq!(a.printed(), b.printed());
    assert_eq!(
        a.cores.iter().map(|s| s.cycles).collect::<Vec<_>>(),
        b.cores.iter().map(|s| s.cycles).collect::<Vec<_>>()
    );
}

/// On the deterministic backend `manager.iterations` counts the bodies
/// that ran — picked or forced — and nothing else: it equals the engine's
/// own body count, and together with the elided manager picks it stays
/// below the pick count. A barrier kernel under a long quantum reaches the
/// forced-manager round, which used to add busy time without counting
/// the iteration.
#[test]
fn det_manager_iterations_count_bodies_that_ran() {
    let program = counter_workload(4, 12);
    let mut det = sk_core::DetEngine::new(&program, Scheme::Quantum(5000), &cfg(4), 3);
    let obs = det.engine_mut().attach_new_metrics(ObsConfig::default());
    det.run();
    let (picks, futile) = (det.picks(), det.futile_picks());
    let r = det.into_report();
    assert_eq!(r.printed().len(), 1);
    let bodies = obs.manager.iterations.get();
    let elided = obs.manager.picks_elided.get();
    assert_eq!(bodies, r.engine.global_updates, "an iteration is a body that ran");
    assert!(elided > 0, "no manager pick was elided");
    assert!(elided <= futile && futile < picks);
}

/// Under a bounded-slack scheme the interesting histograms fill up: slack
/// observed at event-process time, manager drains, and window blocks.
/// Park time is booked only when a worker sleeps, which a lightly loaded
/// host may never need, so the window side is asserted through the
/// engine's counters: every block is counted whether or not its worker
/// slept, and a raise that ends one counts a wake-up (the sleeping
/// worker's booking is `clock::tests::a_raise_wakes_the_sleeping_owner_of_a_blocked_core`).
#[test]
fn histograms_fill_under_bounded_slack() {
    let (r, obs) = run_with_obs(&counter_workload(4, 40), Scheme::BoundedSlack(10), &cfg(4));
    assert_eq!(r.printed().len(), 1);
    let slack_samples: u64 = obs.cores.iter().map(|c| c.slack.count()).sum();
    assert!(slack_samples > 0, "no slack samples recorded");
    let max_slack = obs.cores.iter().filter_map(|c| c.slack.max()).max().unwrap();
    assert!(max_slack <= 10, "slack {max_slack} exceeds the S10 bound");
    assert!(r.engine.blocks > 0, "no core blocked at its S10 window");
    assert!(r.engine.wakeups > 0, "no raise ended a block");
    assert!(r.engine.wakeups <= r.engine.blocks, "a block ended twice");
    assert!(obs.manager.iterations.get() > 0);
    assert!(obs.manager.events_ingested.get() > 0);
    assert!(obs.manager.drain_batch.count() > 0);
    assert!(!obs.trace.is_empty(), "no trace spans recorded");
    // PR-4 hot-path telemetry: the µTLB sees every functional access
    // (the workload touches memory, so hits+misses must be nonzero) and
    // every core records at least one run-ahead batch; S10 batches are
    // capped by the slack bound.
    let utlb: u64 = obs.cores.iter().map(|c| c.utlb_hits.get() + c.utlb_misses.get()).sum();
    assert!(utlb > 0, "no µTLB accesses recorded");
    let batches: u64 = obs.cores.iter().map(|c| c.run_batch.count()).sum();
    assert!(batches > 0, "no run-ahead batches recorded");
    let max_batch = obs.cores.iter().filter_map(|c| c.run_batch.max()).max().unwrap();
    assert!(max_batch <= 10, "batch {max_batch} exceeds the S10 cap");
    let dump = parse(&obs.to_json()).expect("the metrics dump parses");
    assert_eq!(dump.get("schema").and_then(Json::as_str), Some("sk-obs-metrics"));
    let cores = dump.get("cores").and_then(Json::as_arr).expect("a cores array");
    let total = |read: fn(&Json) -> Option<i64>| cores.iter().filter_map(read).sum::<i64>();
    let hits: u64 = obs.cores.iter().map(|c| c.utlb_hits.get()).sum();
    assert_eq!(total(|c| c.get("counters")?.get("utlb_hits")?.as_i64()), hits as i64);
    assert_eq!(total(|c| c.get("hist")?.get("run_batch")?.get("count")?.as_i64()), batches as i64);
}

/// The hub's interval samples carry the manager's observed slack: at most
/// one sample per `sample_interval` global cycles, none above the run's
/// largest observed slack, and each inside the scheme's window plus the
/// critical latency (the bounds `engine.rs` holds `max_observed_slack`
/// to: S9 ≤ 9 + crit, CC ≤ 1 + crit).
#[test]
fn samples_carry_the_observed_slack() {
    let program = counter_workload(4, 20);
    let c = cfg(4);
    let crit = c.critical_latency();
    let interval = 50;
    for (scheme, bound) in [(Scheme::BoundedSlack(9), 9 + crit), (Scheme::CycleByCycle, 1 + crit)] {
        let mut det = sk_core::DetEngine::new(&program, scheme, &c, 1);
        let obs = det
            .engine_mut()
            .attach_new_metrics(ObsConfig { sample_interval: interval, ..ObsConfig::default() });
        det.run();
        let r = det.into_report();
        let samples = obs.samples();
        assert!(samples.len() > 2, "{scheme}: {} samples", samples.len());
        for w in samples.windows(2) {
            assert!(w[1].cycle >= w[0].cycle + interval, "{scheme}: samples {w:?} too close");
        }
        for s in &samples {
            assert!(s.slack <= r.engine.max_observed_slack, "{scheme}: {s:?} past the max");
            assert!(s.slack <= bound, "{scheme}: {s:?} past {bound}");
        }
        let dump = parse(&obs.to_json()).expect("the metrics dump parses");
        assert_eq!(dump.get("version").and_then(Json::as_i64), Some(3));
        let series = dump.get("samples").and_then(Json::as_arr).expect("a samples array");
        let slacks: Vec<i64> = series.iter().filter_map(|s| s.get("slack")?.as_i64()).collect();
        assert_eq!(slacks, samples.iter().map(|s| s.slack as i64).collect::<Vec<_>>());
    }
}

/// Counters survive the snapshot → resume path: the restored engine
/// carries the hub, its pre-snapshot counts, and keeps recording.
#[test]
fn snapshot_carries_counters_through_restore() {
    let program = counter_workload(2, 40);
    let c = cfg(2);
    let mut e = Engine::new(&program, Scheme::CycleByCycle, &c);
    e.attach_new_metrics(ObsConfig::default());
    assert_eq!(e.run_until(Some(400)), RunOutcome::CheckpointReady);
    let pre_cycles: u64 = e.metrics().unwrap().cores.iter().map(|co| co.cycles.get()).sum();
    let pre_ingested = e.metrics().unwrap().manager.events_ingested.get();
    assert!(pre_cycles > 0, "no core iterations before the checkpoint");
    let bytes = e.snapshot().unwrap();

    let mut restored = Engine::resume(&bytes, None).unwrap();
    let hub = restored.metrics().expect("snapshot carried no metrics hub").clone();
    assert_eq!(hub.n_cores(), 2);
    assert_eq!(
        hub.cores.iter().map(|co| co.cycles.get()).sum::<u64>(),
        pre_cycles,
        "restored hub lost core-cycle counters"
    );
    assert_eq!(hub.manager.events_ingested.get(), pre_ingested);
    // The restored trace sink starts empty (host timelines don't splice).
    assert!(hub.trace.is_empty());

    restored.run_until(None);
    let r = restored.into_report();
    assert_eq!(r.printed().len(), 1);
    assert!(
        hub.cores.iter().map(|co| co.cycles.get()).sum::<u64>() > pre_cycles,
        "restored hub stopped recording"
    );
    assert!(!hub.trace.is_empty(), "restored engine recorded no trace spans");
    // The sample series goes on at its interval across the restore.
    let samples = hub.samples();
    assert!(samples.iter().any(|s| s.cycle > 400), "no sample after the restore");
    for w in samples.windows(2) {
        assert!(w[1].cycle >= w[0].cycle + hub.cfg.sample_interval, "samples {w:?} too close");
    }
}

/// Without a hub the snapshot encodes exactly one extra `false` byte and
/// resumes hub-less.
#[test]
fn snapshot_without_hub_restores_hubless() {
    let program = counter_workload(2, 40);
    let c = cfg(2);
    let mut e = Engine::new(&program, Scheme::CycleByCycle, &c);
    assert_eq!(e.run_until(Some(400)), RunOutcome::CheckpointReady);
    let bytes = e.snapshot().unwrap();
    let restored = Engine::resume(&bytes, None).unwrap();
    assert!(restored.metrics().is_none());
}
