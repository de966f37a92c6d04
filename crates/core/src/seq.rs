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
//! * the **accuracy gold standard**: it is bit-deterministic, and the
//!   parallel engine under the cycle-by-cycle scheme must match its cycle
//!   counts exactly on data-race-free workloads (asserted by integration
//!   tests).

use crate::config::{StopCondition, TargetConfig};
use crate::core_thread::CoreOutput;
use crate::engine::{assemble_report, violation_report, wire, Shared, Wiring};
use crate::scheme::Scheme;
use crate::stats::{EngineStats, SimReport};
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
    let mut cycle: u64 = 0;
    loop {
        cycle += 1;
        let mut stepped = 0usize;
        for core in cores.iter_mut() {
            if core.finished() || core.stopped() {
                continue;
            }
            // Idle-skip cores with no workload thread and no pending
            // messages (mirrors parking in the parallel engine).
            if !core.running() && core.next_msg_ts().is_none() {
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
        for (c, q) in out_consumers.iter_mut().enumerate() {
            while let Some(ev) = q.pop() {
                uncore.ingest(c, ev);
            }
        }
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
    for (c, q) in out_consumers.iter_mut().enumerate() {
        while let Some(ev) = q.pop() {
            uncore.ingest(c, ev);
        }
    }
    uncore.process_ready(u64::MAX);

    let engine = EngineStats {
        events_processed: uncore.events_processed,
        global_updates: cycle,
        ..Default::default()
    };
    let outputs: Vec<CoreOutput> = cores.into_iter().map(|c| c.into_output()).collect();
    let violations = violation_report(&tracker);
    assemble_report(Scheme::CycleByCycle, cfg, outputs, &uncore, engine, violations, t0.elapsed())
}
