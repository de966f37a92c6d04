//! The sequential reference engine.
//!
//! All target cores are simulated round-robin, one cycle at a time, in a
//! single host thread, with events processed cycle-by-cycle in
//! (timestamp, core, sequence) order. This is:
//!
//! * the paper's **baseline**: "the instruction throughput of the
//!   cycle-by-cycle simulations ... when all threads are executed by one
//!   single host core" (Table 2's KIPS column, and the denominator of
//!   every speedup in Figure 8);
//! * the **accuracy gold standard**: it is bit-deterministic, the det
//!   scheduler's CC run equals it on the whole fingerprint
//!   (`tests/ooo_equivalence.rs::suite_fingerprints_match_the_pinned_model`),
//!   and the worker pool's CC run on its cycle count
//!   (`tests/suite_integration.rs::parallel_cc_is_cycle_exact_on_every_kernel`).

use crate::config::{StopCondition, TargetConfig};
use crate::engine::{assemble_report, violation_report, wire, Shared, Wiring};
use crate::msg::OutEvent;
use crate::scheme::Scheme;
use crate::spsc::Consumer;
use crate::stats::{CoreStats, EngineStats, SimReport};
use crate::uncore::Uncore;
use sk_isa::Program;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Run `program` to completion on the sequential cycle-by-cycle engine.
pub fn run_sequential(program: &Program, cfg: &TargetConfig) -> SimReport {
    let shared = Shared::from_program(program, cfg);
    let Wiring { mut cores, mut out_consumers, mut uncore, .. } =
        wire(cfg, Scheme::CycleByCycle, &shared, || None);
    cores[0].start_main(program.entry);
    let Shared { tracker, roi, .. } = shared;

    let t0 = Instant::now();
    let mut scratch = Vec::new();
    let mut cycle: u64 = 0;
    loop {
        cycle += 1;
        let mut stepped = 0usize;
        for core in cores.iter_mut() {
            if core.finished() || core.stopped() {
                continue;
            }
            // Idle-skip a core with no workload thread until its first
            // message is due, as the schedulers jump a parked core's clock
            // (no idle cycles are booked before the spawn lands).
            if !core.running() && core.next_msg_ts().is_none_or(|t| t > cycle) {
                continue;
            }
            // A sync waiter's clock is suspended until its reply timestamp
            // (mirrors sync-parking in the parallel engine).
            if core.sync_waiting() {
                match core.earliest_sync_reply_ts() {
                    Some(r) if cycle >= r => {}
                    _ => continue,
                }
            }
            core.step_cycle(cycle);
            core.flush_roi();
            stepped += 1;
        }
        drain_all(&mut out_consumers, &mut uncore, &mut scratch);
        if stepped == 0 {
            // All clocks suspended: jump virtual time to the next event.
            if let Some(t) = uncore.min_pending_ts() {
                cycle = cycle.max(t);
            }
        }
        uncore.process_ready(cycle);

        if uncore.all_workloads_done() && cores.iter().all(|c| c.finished() || !c.running()) {
            break;
        }
        // Workload deadlock, the engines' rule (`Engine::forced_round`):
        // no core stepped, the manager holds nothing, and no core has a
        // message coming, so no later cycle can differ from this one.
        if stepped == 0
            && uncore.min_pending_ts().is_none()
            && cores.iter_mut().all(|c| c.finished() || c.stopped() || c.next_msg_ts().is_none())
        {
            break;
        }
        if let StopCondition::RoiInstructions(limit) = cfg.stop {
            if roi.committed.load(Ordering::Relaxed) >= limit {
                break;
            }
        }
        if cycle >= cfg.max_cycles {
            break;
        }
    }

    // Drain any trailing events (exit notices).
    drain_all(&mut out_consumers, &mut uncore, &mut scratch);
    uncore.process_ready(u64::MAX);

    let engine = EngineStats {
        events_processed: uncore.events_processed,
        global_updates: cycle,
        ..Default::default()
    };
    let cores: Vec<CoreStats> = cores.into_iter().map(|c| c.into_stats()).collect();
    let violations = violation_report(&tracker);
    assemble_report(Scheme::CycleByCycle, cfg, cores, &uncore, engine, violations, t0.elapsed())
}

/// Hand every core's queued OutQ events to the manager, one batch per
/// core in core order, as the parallel engine's drain does.
fn drain_all(queues: &mut [Consumer<OutEvent>], uncore: &mut Uncore, scratch: &mut Vec<OutEvent>) {
    for (c, q) in queues.iter_mut().enumerate() {
        scratch.clear();
        if q.drain_into(scratch) > 0 {
            uncore.ingest_batch(c, scratch);
        }
    }
}
