//! Chrome-trace / Perfetto span recorder.
//!
//! Each simulated thread (N cores plus the manager) owns a lane — a
//! `Mutex<Vec<TraceEvent>>` that only that thread pushes to, so the lock
//! is never contended in steady state and recording stays cheap. The
//! collected spans serialise to the Chrome trace event format
//! (`{"traceEvents": [...]}`) that `ui.perfetto.dev` and
//! `chrome://tracing` both accept: `"ph": "X"` complete events with
//! microsecond `ts`/`dur`, plus `"ph": "M"` metadata naming each lane.

use crate::json::Json;
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One completed span on a lane.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Static label, e.g. `"run"`, `"park"`, `"drain"`.
    pub name: &'static str,
    /// Start, microseconds since the sink's epoch.
    pub ts_us: u64,
    /// Duration in microseconds (0 is allowed; Perfetto renders it as an
    /// instant-width slice).
    pub dur_us: u64,
}

struct Lane {
    events: Mutex<Vec<TraceEvent>>,
}

/// Span recorder with one lane per simulated thread.
///
/// Lane `0..n_cores` belong to the core threads; lane `n_cores` is the
/// manager. Each lane is bounded by `capacity` events — past that the
/// span is dropped and counted in `dropped()` instead of growing without
/// bound on long runs.
pub struct TraceSink {
    epoch: Instant,
    lanes: Vec<Lane>,
    capacity: usize,
    dropped: AtomicU64,
}

impl TraceSink {
    /// A sink with `n_cores + 1` lanes (the extra one is the manager's).
    pub fn new(n_cores: usize, capacity: usize) -> Self {
        TraceSink {
            epoch: Instant::now(),
            lanes: (0..=n_cores).map(|_| Lane { events: Mutex::new(Vec::new()) }).collect(),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of lanes (cores + manager).
    pub fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The manager's lane index.
    pub fn manager_lane(&self) -> usize {
        self.lanes.len() - 1
    }

    /// Microseconds since the sink was created. Use as the `t0` for a
    /// later [`TraceSink::span`] call.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Record a completed span on `lane` that started at `t0_us`
    /// (a prior [`TraceSink::now_us`] reading) and ends now.
    pub fn span(&self, lane: usize, name: &'static str, t0_us: u64) {
        let end = self.now_us();
        self.span_at(lane, name, t0_us, end.saturating_sub(t0_us));
    }

    /// Record a completed span with an explicit start and duration.
    pub fn span_at(&self, lane: usize, name: &'static str, ts_us: u64, dur_us: u64) {
        let Some(l) = self.lanes.get(lane) else { return };
        let mut ev = l.events.lock();
        if ev.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        ev.push(TraceEvent { name, ts_us, dur_us });
    }

    /// Spans dropped because a lane hit its capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total recorded spans across all lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.events.lock().len()).sum()
    }

    /// No spans recorded yet?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialise to Chrome trace event format JSON. All lanes share
    /// `pid` 1; each lane gets its own `tid` plus a `thread_name`
    /// metadata record (`core 0`, ..., `manager`). A lane holds up to
    /// `capacity` spans, so the event array is written one record at a
    /// time rather than built as one value.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 * 1024);
        out.push_str("{\"traceEvents\":[");
        for (tid, lane) in self.lanes.iter().enumerate() {
            let name = if tid == self.manager_lane() {
                "manager".to_string()
            } else {
                format!("core {tid}")
            };
            let meta = Json::obj([
                ("ph", Json::from("M")),
                ("pid", Json::Int(1)),
                ("tid", tid.into()),
                ("name", "thread_name".into()),
                ("args", Json::obj([("name", name)])),
            ]);
            if tid > 0 {
                out.push(',');
            }
            push(&mut out, &meta);
            for ev in lane.events.lock().iter() {
                let span = Json::obj([
                    ("ph", Json::from("X")),
                    ("pid", Json::Int(1)),
                    ("tid", tid.into()),
                    ("name", ev.name.into()),
                    ("ts", ev.ts_us.into()),
                    ("dur", ev.dur_us.into()),
                ]);
                out.push(',');
                push(&mut out, &span);
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

fn push(out: &mut String, v: &Json) {
    write!(out, "{v}").expect("writing to a String cannot fail");
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("lanes", &self.n_lanes())
            .field("events", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_land_on_their_lane() {
        let t = TraceSink::new(2, 16);
        assert_eq!(t.n_lanes(), 3);
        assert_eq!(t.manager_lane(), 2);
        t.span_at(0, "run", 0, 10);
        t.span_at(2, "drain", 5, 1);
        assert_eq!(t.len(), 2);
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"run\""));
        assert!(json.contains("\"name\":\"manager\""));
        assert!(json.contains("\"name\":\"core 0\""));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn capacity_drops_are_counted() {
        let t = TraceSink::new(0, 2);
        for _ in 0..5 {
            t.span_at(0, "x", 0, 1);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn out_of_range_lane_is_ignored() {
        let t = TraceSink::new(1, 8);
        t.span_at(99, "x", 0, 1);
        assert!(t.is_empty());
    }
}
