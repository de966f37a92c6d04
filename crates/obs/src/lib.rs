//! # sk-obs — lock-free runtime telemetry for the slack simulator
//!
//! A metrics hub ([`Metrics`]) holding power-of-two-bucketed histograms
//! ([`hist::Histogram`]) and monotonic counters ([`Counter`]) per core
//! thread and for the manager, plus a Chrome-trace span recorder
//! ([`trace::TraceSink`]), a versioned JSON dump ([`Metrics::to_json`])
//! and the workspace's one JSON module ([`json`]: value, writer, parser).
//!
//! ## Cost model
//!
//! The engine holds an `Option<Arc<Metrics>>`; every hot-path
//! instrumentation point is guarded by that single `Option` branch, so a
//! run without metrics attached pays one well-predicted null check per
//! site and nothing else. When attached, all mutation is `Relaxed`
//! atomics on cache lines owned by the recording thread — no locks, no
//! contention (the trace sink's per-lane mutex is only ever taken by its
//! owning thread during a run).
//!
//! ## Persistence
//!
//! Histograms, counters, and violation samples round-trip through
//! `sk-snap`'s [`Persist`], so a mid-run engine snapshot carries its
//! telemetry into the resumed run. Wall-clock state (the trace sink and
//! its epoch) deliberately does not persist — spans are per-process.

pub mod hist;
pub mod json;
pub mod serve;
pub mod trace;

pub use hist::Histogram;
pub use serve::{ServeObs, SERVE_SCHEMA_VERSION};
pub use trace::TraceSink;

use json::Json;
use parking_lot::Mutex;
use sk_snap::{Persist, Reader, SnapError, Writer};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A lock-free monotonic counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Raise to `v` if `v` is larger (for high-water marks).
    #[inline]
    pub fn raise_to(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrite the value (restore path only).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

impl From<&Counter> for Json {
    fn from(c: &Counter) -> Json {
        c.get().into()
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

impl Persist for Counter {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.get());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let c = Counter::new();
        c.set(r.get_u64()?);
        Ok(c)
    }
}

/// Hub configuration. All fields have usable defaults.
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Sample the cumulative violation count every this many global
    /// cycles (0 disables sampling).
    pub violation_sample_interval: u64,
    /// Per-lane trace span cap; excess spans are dropped and counted.
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { violation_sample_interval: 1_000, trace_capacity: 1 << 20 }
    }
}

/// Telemetry owned by one core thread.
#[derive(Debug, Default)]
pub struct CoreObs {
    /// Slack at event-process time: `max_local − local`, in cycles.
    pub slack: Histogram,
    /// Window-wait park durations (ns): time the core's worker slept while
    /// the core was blocked at its window.
    pub park_ns: Histogram,
    /// Sync-wait park durations (ns): barrier/lock/semaphore stalls.
    pub sync_park_ns: Histogram,
    /// Memory-reply park durations (ns).
    pub mem_park_ns: Histogram,
    /// Outgoing event batch sizes per flush.
    pub out_batch: Histogram,
    /// Simulated cycles advanced by this core, stepped or skipped as quiet.
    pub cycles: Counter,
    /// High-water occupancy of this core's outbound SPSC ring.
    pub outq_high_water: Counter,
    /// µTLB hits: memory accesses served by the per-core cached page.
    pub utlb_hits: Counter,
    /// µTLB misses: memory accesses that walked the radix page table.
    pub utlb_misses: Counter,
    /// Cycles advanced per run-ahead batch before publishing the clock.
    pub run_batch: Histogram,
    /// Static superblocks the fuser formed over the text (same value on
    /// every core: the table is shared).
    pub sb_blocks_formed: Counter,
    /// Fused runs ending on their anchoring control transfer.
    pub sb_exit_branch: Counter,
    /// Fused runs cancelled by a cache miss (L1D or I-fetch).
    pub sb_exit_miss: Counter,
    /// Fused runs ending at a syscall that went pending (sync wait).
    pub sb_exit_sync: Counter,
    /// Fused runs ending at a syscall that completed immediately.
    pub sb_exit_syscall: Counter,
    /// Fused runs split at the slack-window edge (resumed next batch).
    pub sb_exit_window: Counter,
    /// Fused runs ending in the live-decode fallback (refused
    /// instruction or off-table pc).
    pub sb_exit_fallback: Counter,
    /// Dynamic uops retired per fused run chain.
    pub sb_block_len: Histogram,
}

impl Persist for CoreObs {
    fn save(&self, w: &mut Writer) {
        self.slack.save(w);
        self.park_ns.save(w);
        self.sync_park_ns.save(w);
        self.mem_park_ns.save(w);
        self.out_batch.save(w);
        self.cycles.save(w);
        self.outq_high_water.save(w);
        self.utlb_hits.save(w);
        self.utlb_misses.save(w);
        self.run_batch.save(w);
        self.sb_blocks_formed.save(w);
        self.sb_exit_branch.save(w);
        self.sb_exit_miss.save(w);
        self.sb_exit_sync.save(w);
        self.sb_exit_syscall.save(w);
        self.sb_exit_window.save(w);
        self.sb_exit_fallback.save(w);
        self.sb_block_len.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(CoreObs {
            slack: Histogram::load(r)?,
            park_ns: Histogram::load(r)?,
            sync_park_ns: Histogram::load(r)?,
            mem_park_ns: Histogram::load(r)?,
            out_batch: Histogram::load(r)?,
            cycles: Counter::load(r)?,
            outq_high_water: Counter::load(r)?,
            utlb_hits: Counter::load(r)?,
            utlb_misses: Counter::load(r)?,
            run_batch: Histogram::load(r)?,
            sb_blocks_formed: Counter::load(r)?,
            sb_exit_branch: Counter::load(r)?,
            sb_exit_miss: Counter::load(r)?,
            sb_exit_sync: Counter::load(r)?,
            sb_exit_syscall: Counter::load(r)?,
            sb_exit_window: Counter::load(r)?,
            sb_exit_fallback: Counter::load(r)?,
            sb_block_len: Histogram::load(r)?,
        })
    }
}

/// Telemetry owned by the manager thread.
#[derive(Debug, Default)]
pub struct ManagerObs {
    /// Events ingested per drained inbound ring, per manager iteration.
    pub drain_batch: Histogram,
    /// Idle-backoff sleep lengths (µs) the manager actually slept.
    pub backoff_us: Histogram,
    /// Global slack `max_local − global` observed at global-clock
    /// updates, in cycles.
    pub slack: Histogram,
    /// Barrier wait times (cycles between a core's arrival and release).
    pub barrier_wait: Histogram,
    /// Lock/semaphore wait times (cycles between request and grant).
    pub lock_wait: Histogram,
    /// Memory-shard drain batch sizes.
    pub shard_batch: Histogram,
    /// Manager iteration bodies that ran. A deterministic-scheduler pick
    /// whose body was elided is not an iteration (see `picks_elided`).
    pub iterations: Counter,
    /// Deterministic backend: manager picks booked without running the
    /// body, because the last body had settled and nothing had moved
    /// since. Scheduler bookkeeping rather than simulation state, so —
    /// like trace spans — it is not carried through a snapshot.
    pub picks_elided: Counter,
    /// Total events ingested from core rings.
    pub events_ingested: Counter,
    /// High-water occupancy per inbound (uncore -> core) ring.
    pub inq_high_water: Vec<Counter>,
    /// Wall-clock nanoseconds the coordinator spent inside manager
    /// iterations (drains, window computation, sync resolution). Divided
    /// by run wall time this is the **manager occupancy** — the scaleout
    /// bench's serialization signal.
    pub busy_ns: Counter,
    /// Always 0: the threaded coordinator's yield-spin on a lagging shard
    /// frontier, which this counted, went with the worker pool. Kept so
    /// the dump format and its readers keep the field.
    pub frontier_wait_ns: Counter,
}

impl ManagerObs {
    fn new(n_cores: usize) -> Self {
        ManagerObs {
            inq_high_water: (0..n_cores).map(|_| Counter::new()).collect(),
            ..ManagerObs::default()
        }
    }
}

impl Persist for ManagerObs {
    fn save(&self, w: &mut Writer) {
        self.drain_batch.save(w);
        self.backoff_us.save(w);
        self.slack.save(w);
        self.barrier_wait.save(w);
        self.lock_wait.save(w);
        self.shard_batch.save(w);
        self.iterations.save(w);
        self.events_ingested.save(w);
        self.inq_high_water.save(w);
        self.busy_ns.save(w);
        self.frontier_wait_ns.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(ManagerObs {
            drain_batch: Histogram::load(r)?,
            backoff_us: Histogram::load(r)?,
            slack: Histogram::load(r)?,
            barrier_wait: Histogram::load(r)?,
            lock_wait: Histogram::load(r)?,
            shard_batch: Histogram::load(r)?,
            iterations: Counter::load(r)?,
            picks_elided: Counter::new(),
            events_ingested: Counter::load(r)?,
            inq_high_water: Vec::<Counter>::load(r)?,
            busy_ns: Counter::load(r)?,
            frontier_wait_ns: Counter::load(r)?,
        })
    }
}

/// Telemetry owned by one memory-shard manager (sharded mode): the
/// measurement behind the scaleout claim that manager work parallelizes —
/// drain batches, ordered-heap occupancy and frontier lag per shard, plus
/// the shard's own wall-clock busy time.
#[derive(Debug, Default)]
pub struct ShardObs {
    /// Events ingested per drained core ring, per shard iteration.
    pub drain_batch: Histogram,
    /// Ordered-heap occupancy sampled at the end of each iteration.
    pub heap_occupancy: Histogram,
    /// `global − frontier` sampled at the end of each iteration: how far
    /// this shard's delivered horizon trails global time, in cycles.
    pub frontier_lag: Histogram,
    /// Shard loop iterations.
    pub iterations: Counter,
    /// Events processed by this shard.
    pub events: Counter,
    /// Window grants fanned out to this shard's clock domain.
    pub window_raises: Counter,
    /// Wall-clock nanoseconds spent inside shard iterations.
    pub busy_ns: Counter,
}

impl Persist for ShardObs {
    fn save(&self, w: &mut Writer) {
        self.drain_batch.save(w);
        self.heap_occupancy.save(w);
        self.frontier_lag.save(w);
        self.iterations.save(w);
        self.events.save(w);
        self.window_raises.save(w);
        self.busy_ns.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(ShardObs {
            drain_batch: Histogram::load(r)?,
            heap_occupancy: Histogram::load(r)?,
            frontier_lag: Histogram::load(r)?,
            iterations: Counter::load(r)?,
            events: Counter::load(r)?,
            window_raises: Counter::load(r)?,
            busy_ns: Counter::load(r)?,
        })
    }
}

/// Cap on retained violation samples (FIFO head is kept; later samples
/// are dropped once full — a bounded run at the default interval never
/// gets near this).
const VIOLATION_SAMPLE_CAP: usize = 1 << 20;

/// The telemetry hub: one per engine, shared `Arc`-style across the
/// core threads, manager, and whoever dumps it at the end.
pub struct Metrics {
    /// Hub configuration (sampling interval, trace capacity).
    pub cfg: ObsConfig,
    /// Per-core telemetry, indexed by core id.
    pub cores: Vec<CoreObs>,
    /// Manager-thread telemetry.
    pub manager: ManagerObs,
    /// Per-memory-shard telemetry, indexed by shard id (empty when the
    /// engine runs the classic single manager).
    pub shards: Vec<ShardObs>,
    /// Wall-clock span recorder (cores + manager lanes).
    pub trace: TraceSink,
    violation_samples: Mutex<Vec<(u64, u64)>>,
}

impl Metrics {
    /// A hub for `n_cores` simulated cores and a single manager.
    pub fn new(n_cores: usize, cfg: ObsConfig) -> Self {
        Self::new_sharded(n_cores, 0, cfg)
    }

    /// A hub for `n_cores` simulated cores and `n_shards` memory-shard
    /// managers.
    pub fn new_sharded(n_cores: usize, n_shards: usize, cfg: ObsConfig) -> Self {
        Metrics {
            cfg,
            cores: (0..n_cores).map(|_| CoreObs::default()).collect(),
            manager: ManagerObs::new(n_cores),
            shards: (0..n_shards).map(|_| ShardObs::default()).collect(),
            trace: TraceSink::new(n_cores, cfg.trace_capacity),
            violation_samples: Mutex::new(Vec::new()),
        }
    }

    /// Number of simulated cores this hub instruments.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Append one `(global_cycle, cumulative_violations)` sample.
    pub fn record_violation_sample(&self, cycle: u64, violations: u64) {
        let mut v = self.violation_samples.lock();
        if v.len() < VIOLATION_SAMPLE_CAP {
            v.push((cycle, violations));
        }
    }

    /// Snapshot of the violation-sample series.
    pub fn violation_samples(&self) -> Vec<(u64, u64)> {
        self.violation_samples.lock().clone()
    }

    /// The versioned JSON metrics dump (schema on `impl From<&Metrics>
    /// for Json`).
    pub fn to_json(&self) -> String {
        Json::from(self).to_string()
    }

    /// The Chrome-trace JSON for `ui.perfetto.dev`.
    pub fn trace_json(&self) -> String {
        self.trace.to_chrome_json()
    }
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Metrics")
            .field("n_cores", &self.n_cores())
            .field("manager_iterations", &self.manager.iterations.get())
            .field("trace", &self.trace)
            .finish()
    }
}

impl Persist for Metrics {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.cfg.violation_sample_interval);
        w.put_usize(self.cfg.trace_capacity);
        w.put_usize(self.cores.len());
        for c in &self.cores {
            c.save(w);
        }
        self.manager.save(w);
        let samples = self.violation_samples.lock();
        w.put_usize(samples.len());
        for &(cycle, violations) in samples.iter() {
            w.put_u64(cycle);
            w.put_u64(violations);
        }
        drop(samples);
        w.put_usize(self.shards.len());
        for s in &self.shards {
            s.save(w);
        }
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let cfg =
            ObsConfig { violation_sample_interval: r.get_u64()?, trace_capacity: r.get_usize()? };
        let n_cores = r.get_count(8)?;
        let mut cores = Vec::with_capacity(n_cores);
        for _ in 0..n_cores {
            cores.push(CoreObs::load(r)?);
        }
        let manager = ManagerObs::load(r)?;
        let n_samples = r.get_count(16)?;
        let mut samples = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            let cycle = r.get_u64()?;
            let violations = r.get_u64()?;
            samples.push((cycle, violations));
        }
        let n_shards = r.get_count(8)?;
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            shards.push(ShardObs::load(r)?);
        }
        Ok(Metrics {
            cfg,
            cores,
            manager,
            shards,
            trace: TraceSink::new(n_cores, cfg.trace_capacity),
            violation_samples: Mutex::new(samples),
        })
    }
}

/// Current metrics-dump schema version.
pub const METRICS_SCHEMA_VERSION: u32 = 2;

/// The metrics dump, schema `sk-obs-metrics` version 2 (version 1 also
/// carried the manager's `adapt_*` controller counters and histogram):
///
/// ```json
/// {
///   "schema": "sk-obs-metrics",
///   "version": 2,
///   "n_cores": 4,
///   "cores": [
///     {
///       "id": 0,
///       "counters": { "cycles": 123, "outq_high_water": 17,
///                     "utlb_hits": 999, "utlb_misses": 3,
///                     "sb_blocks_formed": 12, "sb_exit_branch": 40,
///                     "sb_exit_miss": 2, "sb_exit_sync": 1,
///                     "sb_exit_syscall": 3, "sb_exit_window": 0,
///                     "sb_exit_fallback": 0 },
///       "hist": { "slack": H, "park_ns": H, "sync_park_ns": H,
///                 "mem_park_ns": H, "out_batch": H, "run_batch": H,
///                 "sb_block_len": H }
///     }
///   ],
///   "manager": {
///     "counters": { "iterations": 9, "picks_elided": 4, "events_ingested": 456,
///                   "busy_ns": 77000, "frontier_wait_ns": 0 },
///     "inq_high_water": [3, 1, 0, 2],
///     "hist": { "drain_batch": H, "backoff_us": H, "slack": H,
///               "barrier_wait": H, "lock_wait": H, "shard_batch": H }
///   },
///   "shards": [
///     { "id": 0,
///       "counters": { "iterations": 2, "events": 7, "window_raises": 0, "busy_ns": 0 },
///       "hist": { "drain_batch": H, "heap_occupancy": H, "frontier_lag": H } }
///   ],
///   "violation_samples": [ { "cycle": 1000, "violations": 2 } ],
///   "trace": { "events": 10, "dropped": 0 }
/// }
/// ```
///
/// where every histogram `H` is as `impl From<&Histogram> for Json`
/// writes it. Cycle-valued histograms (`slack`, `barrier_wait`,
/// `lock_wait`, `frontier_lag`) are in simulated cycles; `*_ns` / `*_us`
/// are wall-clock; batch histograms count events. `shards` is empty in
/// single-manager runs. The schema is additive: readers must ignore
/// unknown fields, and any field removal or meaning change bumps
/// `version`.
impl From<&Metrics> for Json {
    fn from(m: &Metrics) -> Json {
        let cores = m.cores.iter().enumerate().map(|(i, c)| {
            Json::obj([
                ("id", Json::from(i)),
                (
                    "counters",
                    Json::obj([
                        ("cycles", &c.cycles),
                        ("outq_high_water", &c.outq_high_water),
                        ("utlb_hits", &c.utlb_hits),
                        ("utlb_misses", &c.utlb_misses),
                        ("sb_blocks_formed", &c.sb_blocks_formed),
                        ("sb_exit_branch", &c.sb_exit_branch),
                        ("sb_exit_miss", &c.sb_exit_miss),
                        ("sb_exit_sync", &c.sb_exit_sync),
                        ("sb_exit_syscall", &c.sb_exit_syscall),
                        ("sb_exit_window", &c.sb_exit_window),
                        ("sb_exit_fallback", &c.sb_exit_fallback),
                    ]),
                ),
                (
                    "hist",
                    Json::obj([
                        ("slack", &c.slack),
                        ("park_ns", &c.park_ns),
                        ("sync_park_ns", &c.sync_park_ns),
                        ("mem_park_ns", &c.mem_park_ns),
                        ("out_batch", &c.out_batch),
                        ("run_batch", &c.run_batch),
                        ("sb_block_len", &c.sb_block_len),
                    ]),
                ),
            ])
        });
        let mg = &m.manager;
        let manager = Json::obj([
            (
                "counters",
                Json::obj([
                    ("iterations", &mg.iterations),
                    ("picks_elided", &mg.picks_elided),
                    ("events_ingested", &mg.events_ingested),
                    ("busy_ns", &mg.busy_ns),
                    ("frontier_wait_ns", &mg.frontier_wait_ns),
                ]),
            ),
            ("inq_high_water", mg.inq_high_water.iter().collect()),
            (
                "hist",
                Json::obj([
                    ("drain_batch", &mg.drain_batch),
                    ("backoff_us", &mg.backoff_us),
                    ("slack", &mg.slack),
                    ("barrier_wait", &mg.barrier_wait),
                    ("lock_wait", &mg.lock_wait),
                    ("shard_batch", &mg.shard_batch),
                ]),
            ),
        ]);
        let shards = m.shards.iter().enumerate().map(|(i, s)| {
            Json::obj([
                ("id", Json::from(i)),
                (
                    "counters",
                    Json::obj([
                        ("iterations", &s.iterations),
                        ("events", &s.events),
                        ("window_raises", &s.window_raises),
                        ("busy_ns", &s.busy_ns),
                    ]),
                ),
                (
                    "hist",
                    Json::obj([
                        ("drain_batch", &s.drain_batch),
                        ("heap_occupancy", &s.heap_occupancy),
                        ("frontier_lag", &s.frontier_lag),
                    ]),
                ),
            ])
        });
        let samples = m
            .violation_samples()
            .into_iter()
            .map(|(cycle, violations)| Json::obj([("cycle", cycle), ("violations", violations)]));
        Json::obj([
            ("schema", Json::from("sk-obs-metrics")),
            ("version", Json::Int(METRICS_SCHEMA_VERSION.into())),
            ("n_cores", m.cores.len().into()),
            ("cores", cores.collect()),
            ("manager", manager),
            ("shards", shards.collect()),
            ("violation_samples", samples.collect()),
            (
                "trace",
                Json::obj([("events", m.trace.len() as u64), ("dropped", m.trace.dropped())]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_semantics() {
        let c = Counter::new();
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 6);
        c.raise_to(3);
        assert_eq!(c.get(), 6, "raise_to never lowers");
        c.raise_to(10);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn hub_persist_round_trip() {
        let m = Metrics::new(3, ObsConfig { violation_sample_interval: 7, trace_capacity: 64 });
        m.cores[1].slack.record(42);
        m.cores[1].cycles.add(99);
        m.cores[2].outq_high_water.raise_to(12);
        m.manager.drain_batch.record_n(4, 3);
        m.manager.inq_high_water[0].raise_to(5);
        m.record_violation_sample(1000, 2);
        m.record_violation_sample(2000, 3);
        // Trace spans must NOT persist.
        m.trace.span_at(0, "run", 0, 5);

        let mut w = Writer::new();
        m.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = Metrics::load(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(back.n_cores(), 3);
        assert_eq!(back.cfg.violation_sample_interval, 7);
        assert!(back.cores[1].slack.same_as(&m.cores[1].slack));
        assert_eq!(back.cores[1].cycles.get(), 99);
        assert_eq!(back.cores[2].outq_high_water.get(), 12);
        assert!(back.manager.drain_batch.same_as(&m.manager.drain_batch));
        assert_eq!(back.manager.inq_high_water[0].get(), 5);
        assert_eq!(back.violation_samples(), vec![(1000, 2), (2000, 3)]);
        assert!(back.trace.is_empty());
    }

    #[test]
    fn violation_sample_cap_holds() {
        let m = Metrics::new(1, ObsConfig::default());
        m.record_violation_sample(1, 1);
        assert_eq!(m.violation_samples().len(), 1);
    }
}
