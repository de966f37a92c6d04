//! The metric registry: every name the benchmark may print, with its unit
//! and direction. `BENCHMARK.json` lists exactly these (a test pins the
//! two together); a workload reports every end-to-end metric untraced and
//! every per-layer metric traced, reading 0 where it does not exercise
//! the layer.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

/// What a user of the simulator sees. All host time, hub detached.
pub const END_TO_END: &[MetricDef] = &[
    hi("kips", "kinstr/s"),
    lo("host_ns_per_cycle", "ns/cycle"),
    lo("job_p50_ms", "ms"),
    lo("job_p90_ms", "ms"),
    hi("jobs_per_s", "1/s"),
    lo("peak_rss_mb", "MB"),
    lo("setup_s", "s"),
];

/// Single layers, from the traced pass. Directions say which way a
/// cheaper layer moves the number; simulated statistics (`core.*`,
/// `l1*`, `sim.*`) must not move at all under a speed-only change.
pub const PER_LAYER: &[MetricDef] = &[
    // sk-isa + exec: functional execution and superblocks
    lo("interp.ns_per_instr", "ns/instr"),
    hi("sb.block_len_mean", "uops"),
    lo("sb.exit_window_frac", "frac"),
    lo("sb.exit_fallback_frac", "frac"),
    // sk-core cpu + sk-mem: the timing model
    lo("seq.ns_per_cycle", "ns/cycle"),
    hi("core.ipc", "instr/cycle"),
    lo("core.mispredict_rate", "frac"),
    lo("l1d.miss_rate", "frac"),
    lo("l1i.miss_rate", "frac"),
    hi("utlb.hit_rate", "frac"),
    lo("dir.requests_per_kcycle", "1/kcycle"),
    // spsc + clock + uncore under the interleaver
    lo("det.ns_per_cycle", "ns/cycle"),
    lo("parallel_overhead.ns_per_cycle", "ns/cycle"),
    lo("manager.global_updates_per_cycle", "1/cycle"),
    hi("manager.events_per_iteration", "events"),
    lo("manager.busy_ns_per_cycle", "ns/cycle"),
    hi("spsc.out_batch_mean", "events"),
    lo("spsc.outq_high_water", "entries"),
    lo("spsc.inq_high_water", "entries"),
    lo("clock.window_blocks_per_kcycle", "1/kcycle"),
    hi("clock.observed_slack_mean", "cycles"),
    lo("det.picks_per_cycle", "1/cycle"),
    // shards
    lo("shard.busy_ns_per_cycle", "ns/cycle"),
    hi("shard.events_per_iteration", "events"),
    lo("shard.frontier_lag_mean", "cycles"),
    lo("manager.frontier_wait_ns_per_cycle", "ns/cycle"),
    // OS threads, parking, wake
    lo("threads.ns_per_cycle", "ns/cycle"),
    lo("threading_overhead.ns_per_cycle", "ns/cycle"),
    lo("clock.park_ns_per_cycle", "ns/cycle"),
    lo("clock.wakeups_per_kcycle", "1/kcycle"),
    lo("manager.occupancy", "frac"),
    lo("manager.backoff_us_mean", "us"),
    hi("scheme.slack_speedup_s10_vs_cc", "x"),
    // engine life-cycle
    lo("engine.build_ms", "ms"),
    lo("engine.report_ms", "ms"),
    lo("snap.snapshot_ms", "ms"),
    lo("snap.resume_ms", "ms"),
    lo("snap.bytes", "bytes"),
    // sk-serve
    lo("serve.submit_ms", "ms"),
    lo("serve.spec_parse_us", "us"),
    lo("serve.probe_ms", "ms"),
    lo("serve.fork_ms", "ms"),
    lo("serve.run_ms", "ms"),
    lo("serve.non_run_ms", "ms"),
    hi("serve.cache_hit_rate", "frac"),
    hi("serve.warm_speedup", "x"),
    lo("serve.shed_429", "count"),
    lo("serve.retried", "count"),
    hi("serve.p50_cache_hit", "frac"),
    lo("serve.p90_cache_hit", "frac"),
    // tracing itself, and the host
    lo("trace.overhead_pct", "%"),
    hi("host.speed_factor", "x"),
    // simulated statistics: exact for a given seed on the det workloads
    lo("sim.exec_err_pct", "%"),
    lo("sim.exec_cycles", "cycles"),
    hi("sim.committed", "instr"),
    hi("sim.fingerprint_digest", "hash48"),
];

/// One workload's measured values, keyed by registry name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "{name} is not a registered metric"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, 0 when this workload does not exercise it.
    pub fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations: simulation runs, gate comparisons, served jobs.
    pub attempted: u64,
    /// Those that missed: wrong output, broken contract, refused job.
    pub failed: u64,
    /// Threaded operations that missed once and were run again.
    pub retried: u64,
    pub values: Values,
    /// Human-readable notes printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one checked operation; a miss is logged and counted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.log(format!("FAILED: {}", what()));
        }
    }

    /// Count a threaded operation that missed its check and is being run
    /// once more. Threaded runs share the host with whatever else it is
    /// doing; a defect in the simulator repeats, a host hiccup does not.
    /// The miss is an attempted operation and is logged, and only a second
    /// miss (checked by the caller) is a failed one.
    pub fn retry(&mut self, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.retried += 1;
        self.log(format!("RETRIED: {}", what()));
    }

    /// A note that is also on standard error, where a caller that keeps
    /// only the tail of a failed run's output still finds the reason.
    fn log(&mut self, note: String) {
        eprintln!("skbench: {note}");
        self.notes.push(note);
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`, listing all of `defs`.
    pub fn result_json(&self, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = self.values.get(d.name);
            let v = if v.is_finite() { v } else { 0.0 };
            let _ = write!(out, "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sk_serve::json::{self, Json};

    #[test]
    fn result_line_lists_every_metric_with_all_digits() {
        let mut o = Outcome::default();
        o.values.set("kips", 1234.567891234);
        o.check(true, String::new);
        let doc = json::parse(&o.result_json(END_TO_END)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted"), Some(&Json::Int(1)));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("metrics object") };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            doc.get("metrics").and_then(|m| m.get("kips")).and_then(|k| k.get("value")),
            Some(&Json::Float(1234.567891234))
        );
    }

    #[test]
    fn a_miss_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.check(false, || "Barnes printed the wrong checksum".into());
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert!(o.result_json(END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_retry_is_attempted_but_only_a_second_miss_fails() {
        let mut o = Outcome::default();
        o.retry(|| "job failed: connection reset".into());
        o.check(true, String::new);
        assert_eq!((o.attempted, o.retried, o.failed), (2, 1, 0));
        o.retry(|| "job failed: connection reset".into());
        o.check(false, || "job failed: connection reset".into());
        assert_eq!((o.attempted, o.retried, o.failed), (4, 2, 1));
    }

    /// `BENCHMARK.json` at the repo root must list exactly the registry.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key} count");
            for (entry, def) in listed.iter().zip(defs) {
                let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap().to_string();
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                assert_eq!(field("better"), def.better.name(), "{}", def.name);
            }
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
