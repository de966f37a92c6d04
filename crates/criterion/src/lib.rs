//! Offline stand-in for the slice of `criterion` this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors minimal, API-compatible implementations of its external
//! dependencies. This harness measures each benchmark with a short warmup
//! followed by `sample_size` timed samples, and reports the median, min
//! and max wall-clock time per iteration (plus throughput when set) on
//! stdout. No statistical analysis, plots, or baselines.
//!
//! As with criterion, a run without `--bench` (which only `cargo bench`
//! passes), or with `--test`, runs each benchmark body exactly once as a
//! smoke test: `cargo test --benches` exercises every benchmark quickly.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Throughput annotation for rate reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration (reported as Kelem/s).
    Elements(u64),
    /// Bytes processed per iteration (reported as MiB/s).
    Bytes(u64),
}

/// Passed to benchmark closures; `iter` runs and times the payload.
pub struct Bencher<'a> {
    samples: &'a mut Vec<Duration>,
    sample_size: usize,
    smoke_test: bool,
}

impl Bencher<'_> {
    /// Run `f` repeatedly: warmup, then `sample_size` timed samples.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        if self.smoke_test {
            black_box(f());
            return;
        }
        // Warmup: stabilize caches/branch predictors and page in code.
        for _ in 0..2 {
            black_box(f());
        }
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(f());
            self.samples.push(t0.elapsed());
        }
    }
}

fn human_time(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn report(name: &str, samples: &mut [Duration], throughput: Option<Throughput>) {
    if samples.is_empty() {
        println!("{name:<40} (no samples)");
        return;
    }
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    let lo = samples[0];
    let hi = samples[samples.len() - 1];
    let rate = throughput.map(|t| {
        let secs = median.as_secs_f64().max(1e-12);
        match t {
            Throughput::Elements(n) => format!("  {:>10.1} Kelem/s", n as f64 / 1e3 / secs),
            Throughput::Bytes(n) => {
                format!("  {:>10.2} MiB/s", n as f64 / (1024.0 * 1024.0) / secs)
            }
        }
    });
    println!(
        "{name:<40} median {:>12}  [{} .. {}]{}",
        human_time(median),
        human_time(lo),
        human_time(hi),
        rate.unwrap_or_default()
    );
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n.max(1);
        self
    }

    /// Set a target measurement time. Accepted for API compatibility; the
    /// sample count alone bounds this harness's runtime.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Annotate subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Measure one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, id.into());
        self.criterion.run_one(&id, self.throughput, &mut f);
        self
    }

    /// End the group (reports are printed as benchmarks run).
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
pub struct Criterion {
    sample_size: usize,
    smoke_test: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let smoke_test = smoke_mode(std::env::args());
        Criterion { sample_size: 20, smoke_test }
    }
}

/// Smoke mode unless `cargo bench` asked for measurements (`--bench`),
/// or whenever `--test` is given.
fn smoke_mode(args: impl Iterator<Item = String>) -> bool {
    let (mut bench, mut test) = (false, false);
    for a in args {
        bench |= a == "--bench";
        test |= a == "--test";
    }
    test || !bench
}

impl Criterion {
    /// Accepted for API compatibility; configuration comes from defaults
    /// and per-group `sample_size` calls.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Start a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), throughput: None }
    }

    /// Measure one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run_one(&id, None, &mut f);
        self
    }

    fn run_one(
        &mut self,
        id: &str,
        throughput: Option<Throughput>,
        f: &mut dyn FnMut(&mut Bencher),
    ) {
        let mut samples = Vec::with_capacity(self.sample_size);
        let mut b = Bencher {
            samples: &mut samples,
            sample_size: self.sample_size,
            smoke_test: self.smoke_test,
        };
        f(&mut b);
        if !self.smoke_test {
            report(id, &mut samples, throughput);
        }
    }
}

/// Bundle benchmark functions into a runner, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Entry point running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_counts_samples() {
        let mut c = Criterion { sample_size: 5, smoke_test: false };
        let mut runs = 0u32;
        c.bench_function("unit/count", |b| {
            b.iter(|| {
                runs += 1;
                runs
            })
        });
        // 2 warmup + 5 samples.
        assert_eq!(runs, 7);
    }

    #[test]
    fn group_configures_sample_size() {
        let mut c = Criterion { sample_size: 20, smoke_test: false };
        let mut g = c.benchmark_group("g");
        g.sample_size(3).throughput(Throughput::Elements(100));
        let mut runs = 0u32;
        g.bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
            })
        });
        g.finish();
        assert_eq!(runs, 5);
    }

    #[test]
    fn smoke_mode_unless_asked_to_bench() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>().into_iter();
        assert!(smoke_mode(args(&["hot_paths"])), "cargo test --benches");
        assert!(!smoke_mode(args(&["hot_paths", "--bench"])), "cargo bench");
        assert!(smoke_mode(args(&["hot_paths", "--bench", "--test"])));
    }

    #[test]
    fn human_time_units() {
        assert_eq!(human_time(Duration::from_nanos(5)), "5 ns");
        assert!(human_time(Duration::from_micros(5)).ends_with("µs"));
        assert!(human_time(Duration::from_millis(5)).ends_with("ms"));
        assert!(human_time(Duration::from_secs(5)).ends_with(" s"));
    }
}
