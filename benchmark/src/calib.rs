//! Host-speed calibration for the single-threaded workloads.
//!
//! The two vCPUs of the development host are siblings: whenever the other
//! one is busy (with anything: another process, the hypervisor), a busy
//! thread runs 27 % slower. A fixed integer loop takes 74 ms or 94 ms,
//! the state holds for seconds to tens of seconds, whole 10 s runs land
//! in one state or the other, and no repetition inside a run averages
//! that away (NOISE.md has the measurements). Core-bound simulator code
//! slows by the same factor as the loop, so on the det backend every
//! timed interval is bracketed by two samples of a fixed calibration loop
//! and reported in *calibrated seconds*: host seconds scaled so that the
//! loop takes `NOMINAL_S`. On a steady host this is a constant factor; on
//! this one it cuts run-to-run spread from 10–15 % to 1–2 %.
//!
//! The threaded backend keeps both vCPUs busy itself and its noise is
//! scheduling luck, which the loop does not see: measured on identical
//! runs, calibrated and raw spreads were the same, so threaded intervals
//! stay in host seconds.

use crate::cells::Backend;
use std::time::Instant;

/// Dependent multiply-xorshift steps per sample: ~8 ms, long enough that
/// timer and scheduler granularity stay under a percent, short next to
/// the cells it brackets.
const ROUNDS: u64 = 4_000_000;

/// What one sample takes, by definition, in calibrated seconds.
pub const NOMINAL_S: f64 = 0.008;

/// Time the calibration loop once, in host seconds.
fn sample() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..ROUNDS {
        x = (x ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(i);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64()
}

/// Converts host seconds to calibrated seconds, sampling the loop after
/// every interval; each sample closes one interval and opens the next.
pub struct Clock {
    /// The previous sample; `None` on the threaded backend, whose
    /// intervals pass through unchanged.
    last: Option<f64>,
    /// Every factor applied, for the `host.speed_factor` report.
    factors: Vec<f64>,
}

impl Clock {
    pub fn start(backend: Backend) -> Clock {
        Clock { last: (backend == Backend::Det).then(sample), factors: Vec::new() }
    }

    /// Calibrated length of an interval of `host_s` seconds that began
    /// right after the previous sample and ended just now.
    pub fn calibrated(&mut self, host_s: f64) -> f64 {
        let Some(last) = self.last else { return host_s };
        let now = sample();
        let factor = NOMINAL_S / ((last + now) / 2.0);
        self.last = Some(now);
        self.factors.push(factor);
        host_s * factor
    }

    /// Median calibrated seconds per host second so far (above 1: the
    /// host ran faster than nominal); 1 on the threaded backend.
    pub fn median_factor(&self) -> f64 {
        if self.factors.is_empty() {
            1.0
        } else {
            crate::stats::median(&self.factors)
        }
    }
}
