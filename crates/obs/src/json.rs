//! Versioned JSON metrics dump (hand-rolled, no serde).
//!
//! Schema `sk-obs-metrics` version 1:
//!
//! ```json
//! {
//!   "schema": "sk-obs-metrics",
//!   "version": 1,
//!   "n_cores": 4,
//!   "cores": [
//!     {
//!       "id": 0,
//!       "counters": { "cycles": 123, "outq_high_water": 17,
//!                     "utlb_hits": 999, "utlb_misses": 3,
//!                     "sb_blocks_formed": 12, "sb_exit_branch": 40,
//!                     "sb_exit_miss": 2, "sb_exit_sync": 1,
//!                     "sb_exit_syscall": 3, "sb_exit_window": 0,
//!                     "sb_exit_fallback": 0 },
//!       "hist": { "slack": H, "park_ns": H, "sync_park_ns": H,
//!                 "mem_park_ns": H, "out_batch": H, "run_batch": H,
//!                 "sb_block_len": H }
//!     }
//!   ],
//!   "manager": {
//!     "counters": { "iterations": 9, "picks_elided": 4, "events_ingested": 456,
//!                   "adapt_raise": 4, "adapt_lower": 1, "adapt_hold": 2 },
//!     "inq_high_water": [3, 1, 0, 2],
//!     "hist": { "drain_batch": H, "backoff_us": H, "slack": H,
//!               "barrier_wait": H, "lock_wait": H, "shard_batch": H,
//!               "adapt_window": H }
//!   },
//!   "violation_samples": [ { "cycle": 1000, "violations": 2 } ],
//!   "trace": { "events": 10, "dropped": 0 }
//! }
//! ```
//!
//! where every histogram `H` is
//! `{"count","sum","min","max","p50","p90","p99","buckets":[[floor,n],…]}`
//! (`min`/`max` are `null` while empty; `buckets` lists only non-empty
//! power-of-two buckets by their smallest member). Cycle-valued
//! histograms (`slack`, `barrier_wait`, `lock_wait`) are in simulated
//! cycles; `*_ns`/`*_us` are wall-clock; batch histograms count events.
//! The schema is additive: readers must ignore unknown fields, and any
//! field removal or meaning change bumps `version`.

use crate::hist::Histogram;
use crate::Metrics;

/// Current metrics-dump schema version.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

pub(crate) fn push_hist(out: &mut String, name: &str, h: &Histogram) {
    out.push_str(&format!("\"{name}\":{{\"count\":{},\"sum\":{}", h.count(), h.sum()));
    match h.min() {
        Some(v) => out.push_str(&format!(",\"min\":{v}")),
        None => out.push_str(",\"min\":null"),
    }
    match h.max() {
        Some(v) => out.push_str(&format!(",\"max\":{v}")),
        None => out.push_str(",\"max\":null"),
    }
    for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        out.push_str(&format!(",\"{label}\":{}", h.quantile(q)));
    }
    out.push_str(",\"buckets\":[");
    for (i, (floor, n)) in h.nonzero_buckets().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{floor},{n}]"));
    }
    out.push_str("]}");
}

fn push_hist_group(out: &mut String, hists: &[(&str, &Histogram)]) {
    out.push_str("\"hist\":{");
    for (i, (name, h)) in hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_hist(out, name, h);
    }
    out.push('}');
}

/// Serialise the whole hub to the versioned JSON document above.
pub fn metrics_json(m: &Metrics) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str(&format!(
        "{{\"schema\":\"sk-obs-metrics\",\"version\":{METRICS_SCHEMA_VERSION},\
         \"n_cores\":{},",
        m.cores.len()
    ));

    out.push_str("\"cores\":[");
    for (i, c) in m.cores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{i},\"counters\":{{\"cycles\":{},\"outq_high_water\":{},\
             \"utlb_hits\":{},\"utlb_misses\":{},\"sb_blocks_formed\":{},\
             \"sb_exit_branch\":{},\"sb_exit_miss\":{},\"sb_exit_sync\":{},\
             \"sb_exit_syscall\":{},\"sb_exit_window\":{},\"sb_exit_fallback\":{}}},",
            c.cycles.get(),
            c.outq_high_water.get(),
            c.utlb_hits.get(),
            c.utlb_misses.get(),
            c.sb_blocks_formed.get(),
            c.sb_exit_branch.get(),
            c.sb_exit_miss.get(),
            c.sb_exit_sync.get(),
            c.sb_exit_syscall.get(),
            c.sb_exit_window.get(),
            c.sb_exit_fallback.get()
        ));
        push_hist_group(
            &mut out,
            &[
                ("slack", &c.slack),
                ("park_ns", &c.park_ns),
                ("sync_park_ns", &c.sync_park_ns),
                ("mem_park_ns", &c.mem_park_ns),
                ("out_batch", &c.out_batch),
                ("run_batch", &c.run_batch),
                ("sb_block_len", &c.sb_block_len),
            ],
        );
        out.push('}');
    }
    out.push_str("],");

    let mg = &m.manager;
    out.push_str(&format!(
        "\"manager\":{{\"counters\":{{\"iterations\":{},\"picks_elided\":{},\
         \"events_ingested\":{},\
         \"adapt_raise\":{},\"adapt_lower\":{},\"adapt_hold\":{},\"busy_ns\":{},\
         \"frontier_wait_ns\":{}}},",
        mg.iterations.get(),
        mg.picks_elided.get(),
        mg.events_ingested.get(),
        mg.adapt_raise.get(),
        mg.adapt_lower.get(),
        mg.adapt_hold.get(),
        mg.busy_ns.get(),
        mg.frontier_wait_ns.get()
    ));
    out.push_str("\"inq_high_water\":[");
    for (i, hw) in mg.inq_high_water.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&hw.get().to_string());
    }
    out.push_str("],");
    push_hist_group(
        &mut out,
        &[
            ("drain_batch", &mg.drain_batch),
            ("backoff_us", &mg.backoff_us),
            ("slack", &mg.slack),
            ("barrier_wait", &mg.barrier_wait),
            ("lock_wait", &mg.lock_wait),
            ("shard_batch", &mg.shard_batch),
            ("adapt_window", &mg.adapt_window),
        ],
    );
    out.push_str("},");

    // Additive since version 1: per-memory-shard telemetry (empty array in
    // single-manager runs). Readers ignore unknown fields per the schema
    // contract, so no version bump.
    out.push_str("\"shards\":[");
    for (i, s) in m.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{i},\"counters\":{{\"iterations\":{},\"events\":{},\
             \"window_raises\":{},\"busy_ns\":{}}},",
            s.iterations.get(),
            s.events.get(),
            s.window_raises.get(),
            s.busy_ns.get()
        ));
        push_hist_group(
            &mut out,
            &[
                ("drain_batch", &s.drain_batch),
                ("heap_occupancy", &s.heap_occupancy),
                ("frontier_lag", &s.frontier_lag),
            ],
        );
        out.push('}');
    }
    out.push_str("],");

    out.push_str("\"violation_samples\":[");
    for (i, (cycle, violations)) in m.violation_samples().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"cycle\":{cycle},\"violations\":{violations}}}"));
    }
    out.push_str("],");

    out.push_str(&format!(
        "\"trace\":{{\"events\":{},\"dropped\":{}}}}}",
        m.trace.len(),
        m.trace.dropped()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Metrics, ObsConfig};

    #[test]
    fn dump_is_versioned_and_balanced() {
        let m = Metrics::new(2, ObsConfig::default());
        m.cores[0].slack.record(5);
        m.cores[0].cycles.add(10);
        m.manager.drain_batch.record(3);
        m.record_violation_sample(100, 1);
        let j = metrics_json(&m);
        assert!(j.starts_with("{\"schema\":\"sk-obs-metrics\",\"version\":1,"));
        assert!(j.contains("\"n_cores\":2"));
        assert!(j.contains("\"cycles\":10"));
        assert!(j.contains("\"violation_samples\":[{\"cycle\":100,\"violations\":1}]"));
        let opens = j.matches(['{', '[']).count();
        let closes = j.matches(['}', ']']).count();
        assert_eq!(opens, closes, "unbalanced JSON: {j}");
    }

    #[test]
    fn sharded_hub_dumps_shard_section() {
        let m = Metrics::new_sharded(2, 3, ObsConfig::default());
        m.shards[1].events.add(7);
        m.shards[1].frontier_lag.record(12);
        let j = metrics_json(&m);
        assert!(j.contains("\"shards\":[{\"id\":0,"));
        assert!(j.contains("\"events\":7"));
        assert!(j.contains("\"frontier_lag\""));
        let opens = j.matches(['{', '[']).count();
        let closes = j.matches(['}', ']']).count();
        assert_eq!(opens, closes, "unbalanced JSON: {j}");
    }

    #[test]
    fn empty_histogram_serialises_nulls() {
        let m = Metrics::new(1, ObsConfig::default());
        let j = metrics_json(&m);
        assert!(j.contains("\"slack\":{\"count\":0,\"sum\":0,\"min\":null,\"max\":null"));
    }
}
