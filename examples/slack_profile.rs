//! Watch the slack itself: sampled `local − global` spread over the run,
//! per scheme — the sliding window of Figure 2(c) made visible on a real
//! workload. The samples are the telemetry hub's interval series (one
//! every 1 000 global cycles by default).
//!
//! ```text
//! cargo run --release --example slack_profile
//! ```

use slacksim_suite::core::Engine;
use slacksim_suite::prelude::*;

/// One glyph per time bucket: the largest sampled slack in the bucket,
/// scaled to `cap` (which draws the darkest glyph).
fn sparkline(profile: &[(u64, u64)], buckets: usize, cap: u64) -> String {
    if profile.is_empty() {
        return String::new();
    }
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#', '@'];
    let end = profile.last().unwrap().0.max(1);
    let mut maxes = vec![0u64; buckets];
    for &(g, s) in profile {
        let b = ((g as u128 * buckets as u128) / (end as u128 + 1)) as usize;
        maxes[b] = maxes[b].max(s);
    }
    maxes
        .iter()
        .map(|&m| {
            // Log scale: one step per doubling, so S9 shows beside S100.
            let bits = |v: u64| (u64::BITS - v.leading_zeros()) as usize;
            glyphs[bits(m.min(cap)) * (glyphs.len() - 1) / bits(cap)]
        })
        .collect()
}

/// Slack that draws the darkest glyph: the widest bounded window below.
const CAP: u64 = 100;

fn main() {
    let w = kernels::lu::lu(8, 64);
    let cfg = TargetConfig::paper_8core();

    println!("LU ({}), sampled slack over global time (log scale, '@' = {CAP}+):", w.input);
    println!("{:<6} {:>9} {:>8} {:>8}  profile (time -->)", "scheme", "cycles", "samples", "mean");
    for scheme in [
        Scheme::CycleByCycle,
        Scheme::Quantum(10),
        Scheme::BoundedSlack(9),
        Scheme::BoundedSlack(100),
        Scheme::Unbounded,
    ] {
        let mut e = Engine::new(&w.program, scheme, &cfg);
        let hub = e.attach_new_metrics(Default::default());
        e.run_until(None);
        let r = e.into_report();
        let profile: Vec<(u64, u64)> = hub.samples().iter().map(|s| (s.cycle, s.slack)).collect();
        let mean = profile.iter().map(|&(_, s)| s).sum::<u64>() as f64 / profile.len() as f64;
        println!(
            "{:<6} {:>9} {:>8} {:>8.1}  |{}|",
            scheme.short_name(),
            r.exec_cycles,
            profile.len(),
            mean,
            sparkline(&profile, 64, CAP),
        );
    }
    println!("\nCC hugs zero; S9 stays inside its window; SU wanders as far as");
    println!("host scheduling lets it — the paper's slack definition, live.");
}
