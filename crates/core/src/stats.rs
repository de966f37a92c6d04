//! Statistics collected per core, per run, and for the whole simulation.

use sk_mem::bus::BusStats;
use sk_mem::cache::CacheStats;
use sk_mem::directory::DirStats;
use std::time::Duration;

/// Counters for one simulated core.
#[derive(Clone, Debug, Default)]
pub struct CoreStats {
    /// Simulated cycles this core advanced.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Instructions committed inside the region of interest.
    pub roi_committed: u64,
    /// Instructions fetched (includes squashed work).
    pub fetched: u64,
    /// Instructions issued to functional units.
    pub issued: u64,
    /// Conditional branches committed.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Cycles with no commit while the thread was live.
    pub stall_cycles: u64,
    /// Cycles before the thread started or after it exited.
    pub idle_cycles: u64,
    /// Cycles a sync syscall at the head of the ROB polled pending
    /// (awaiting the manager's reply). Counted by the out-of-order core;
    /// the in-order core reports 0.
    pub sys_retries: u64,
    /// Extra idle cycles injected by fast-forward compensation.
    pub ff_stall_cycles: u64,
    /// L1 data-cache hit/miss counters.
    pub l1d: CacheStats,
    /// L1 instruction-cache hit/miss counters.
    pub l1i: CacheStats,
    /// Values printed by the workload (for functional checks in tests).
    pub printed: Vec<i64>,
}

impl CoreStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate in \[0,1\].
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

sk_snap::persist_record!(CoreStats {
    cycles,
    committed,
    roi_committed,
    fetched,
    issued,
    branches,
    mispredicts,
    loads,
    stores,
    stall_cycles,
    idle_cycles,
    sys_retries,
    ff_stall_cycles,
    l1d,
    l1i,
    printed,
});

/// Engine-level (host) counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Times any core thread blocked at its window.
    pub blocks: u64,
    /// Times the manager woke a blocked core.
    pub wakeups: u64,
    /// Manager iteration bodies that ran (each recomputes global time).
    /// A deterministic-scheduler pick whose body was elided because
    /// nothing had moved ([`DetEngine::futile_picks`]) is not an
    /// iteration and is not counted here.
    ///
    /// [`DetEngine::futile_picks`]: crate::DetEngine::futile_picks
    pub global_updates: u64,
    /// OutQ events consumed by the manager.
    pub events_processed: u64,
    /// Largest observed `local - global` over the run.
    pub max_observed_slack: u64,
    /// Slack-profile samples dropped after the recording cap filled
    /// (`record_trace` runs only; 0 means the profile is complete).
    pub slack_profile_truncated: u64,
}

sk_snap::persist_record!(EngineStats {
    blocks,
    wakeups,
    global_updates,
    events_processed,
    max_observed_slack,
    slack_profile_truncated,
});

/// Workload-violation counters (plain copies of the tracker's atomics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViolationReport {
    /// Stores that executed after a logically later load (Fig. 7).
    pub store_past_load: u64,
    /// Loads that executed after a logically later store.
    pub load_past_store: u64,
    /// Fast-forward compensations applied.
    pub compensations: u64,
    /// Idle cycles injected by compensation.
    pub compensation_cycles: u64,
    /// Largest single timestamp inversion, in cycles (0 when none). A
    /// bounded-slack scheme with window `s` can never produce an inversion
    /// larger than `s`: both accesses of a conflicting pair execute inside
    /// a window of width `s` around global time.
    pub max_inversion_cycles: u64,
}

impl ViolationReport {
    /// Total conflicting-pair inversions.
    pub fn total(&self) -> u64 {
        self.store_past_load + self.load_past_store
    }
}

/// Everything a simulation run produces.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Scheme short name (e.g. "S9*").
    pub scheme: String,
    /// Number of target cores.
    pub n_cores: usize,
    /// The workload's execution time in simulated cycles (max local time
    /// reached by any core) — the metric whose relative error Table 3
    /// reports.
    pub exec_cycles: u64,
    /// Host wall-clock time of the run.
    pub wall: Duration,
    /// Per-core counters.
    pub cores: Vec<CoreStats>,
    /// Directory / L2 counters.
    pub dir: DirStats,
    /// Interconnect counters.
    pub bus: BusStats,
    /// Synchronization counters.
    pub sync: crate::sync::SyncStats,
    /// Engine counters.
    pub engine: EngineStats,
    /// Workload-violation counters.
    pub violations: ViolationReport,
    /// Whether superblock dispatch was enabled for the run (a host-speed
    /// knob; excluded from [`SimReport::fingerprint`] because the
    /// simulated timing is bit-identical either way).
    pub superblocks: bool,
    /// Sampled (global time, observed slack) pairs from the manager
    /// (parallel engine with `record_trace`; one sample per manager
    /// iteration, deduplicated by global time).
    pub slack_profile: Option<Vec<(u64, u64)>>,
}

impl SimReport {
    /// Total committed instructions across cores.
    pub fn total_committed(&self) -> u64 {
        self.cores.iter().map(|c| c.committed).sum()
    }

    /// Committed instructions inside the region of interest.
    pub fn total_roi_committed(&self) -> u64 {
        self.cores.iter().map(|c| c.roi_committed).sum()
    }

    /// Simulation throughput in thousands of committed target instructions
    /// per host second (the paper's Table 2 metric).
    pub fn kips(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.total_committed() as f64 / 1000.0 / secs
    }

    /// Relative error of this run's execution time against a baseline
    /// (Table 3 metric): `|this - base| / base`.
    pub fn exec_time_error(&self, baseline: &SimReport) -> f64 {
        let b = baseline.exec_cycles as f64;
        if b == 0.0 {
            return 0.0;
        }
        (self.exec_cycles as f64 - b).abs() / b
    }

    /// All values printed by the workload, in (core, value) pairs ordered
    /// by core.
    pub fn printed(&self) -> Vec<(usize, i64)> {
        let mut out = vec![];
        for (i, c) in self.cores.iter().enumerate() {
            for &v in &c.printed {
                out.push((i, v));
            }
        }
        out
    }

    /// A deterministic digest of everything *simulated* in this report:
    /// scheme, core count, execution time, per-core counters, memory-system
    /// counters, sync counters and violation counters. Host-dependent
    /// fields — wall time, [`EngineStats`] (block/wakeup counts depend on
    /// host scheduling) and the slack profile — are excluded, so
    /// two runs that simulated the same thing byte-for-byte produce equal
    /// fingerprints even across backends.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "scheme={} n_cores={} exec_cycles={}",
            self.scheme, self.n_cores, self.exec_cycles
        );
        for (i, c) in self.cores.iter().enumerate() {
            let _ = writeln!(s, "core{i}={c:?}");
        }
        let _ = writeln!(s, "dir={:?}", self.dir);
        let _ = writeln!(s, "bus={:?}", self.bus);
        let _ = writeln!(s, "sync={:?}", self.sync);
        let _ = writeln!(s, "violations={:?}", self.violations);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_rates() {
        let mut c = CoreStats::default();
        assert_eq!(c.ipc(), 0.0);
        c.cycles = 100;
        c.committed = 250;
        c.branches = 10;
        c.mispredicts = 1;
        assert_eq!(c.ipc(), 2.5);
        assert_eq!(c.mispredict_rate(), 0.1);
    }

    #[test]
    fn report_aggregations() {
        let r = SimReport {
            cores: vec![
                CoreStats {
                    committed: 100,
                    roi_committed: 60,
                    printed: vec![7],
                    ..Default::default()
                },
                CoreStats { committed: 50, roi_committed: 30, ..Default::default() },
            ],
            wall: Duration::from_secs(1),
            ..Default::default()
        };
        assert_eq!(r.total_committed(), 150);
        assert_eq!(r.total_roi_committed(), 90);
        assert!((r.kips() - 0.15).abs() < 1e-12);
        assert_eq!(r.printed(), vec![(0, 7)]);
    }

    #[test]
    fn exec_time_error_is_relative() {
        let base = SimReport { exec_cycles: 1000, ..Default::default() };
        let fast = SimReport { exec_cycles: 990, ..Default::default() };
        let slow = SimReport { exec_cycles: 1020, ..Default::default() };
        assert!((fast.exec_time_error(&base) - 0.01).abs() < 1e-12);
        assert!((slow.exec_time_error(&base) - 0.02).abs() < 1e-12);
    }
}
