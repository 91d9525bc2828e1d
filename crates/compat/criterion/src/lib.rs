//! Offline stand-in for the `criterion` benchmark harness.
//!
//! Implements the subset of the criterion API Rocket's benches use —
//! benchmark groups, `Bencher::iter`, throughput annotation, and the
//! `criterion_group!`/`criterion_main!` macros — with a simple but honest
//! measurement loop: warm-up, then timed batches until a target measurement
//! window is filled, reporting the median batch time per iteration.
//!
//! Command-line compatibility: `--test` (and `cargo bench -- --test`) runs
//! every benchmark body exactly once for a fast compile-and-smoke check;
//! any bare argument is a substring filter on `group/name` ids; all other
//! criterion flags are accepted and ignored.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Throughput annotation: converts per-iteration time into a rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Throughput {
    /// Iterations process this many logical elements.
    Elements(u64),
    /// Iterations process this many bytes.
    Bytes(u64),
}

/// Top-level harness state shared by every group in a bench binary.
#[derive(Debug, Clone)]
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            test_mode: false,
            filter: None,
            default_sample_size: 20,
        }
    }
}

impl Criterion {
    /// Builds harness configuration from `std::env::args`.
    pub fn configure_from_args() -> Self {
        let mut c = Self::default();
        let mut args = std::env::args().skip(1).peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--test" => c.test_mode = true,
                // Flags (criterion-compatible) that take a value: skip it.
                "--sample-size"
                | "--measurement-time"
                | "--warm-up-time"
                | "--save-baseline"
                | "--baseline"
                | "--load-baseline"
                | "--significance-level"
                | "--noise-threshold"
                | "--color"
                | "--output-format"
                | "--plotting-backend" => {
                    args.next();
                }
                // Boolean flags: accepted and ignored.
                s if s.starts_with("--") => {}
                // Bare argument: benchmark id filter.
                other => c.filter = Some(other.to_string()),
            }
        }
        // Make filtering visible: a value swallowed by an unrecognized flag
        // would otherwise silently skip every benchmark.
        if let Some(filter) = &c.filter {
            println!("benchmark filter: {filter:?} (ids not containing it are skipped)");
        }
        c
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            harness: self,
            name: name.into(),
            throughput: None,
            sample_size: None,
        }
    }
}

/// A group of related benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    harness: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput annotation for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Overrides the number of measurement samples.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }

    /// Accepted for compatibility; the shim sizes its own windows.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs one benchmark.
    pub fn bench_function(
        &mut self,
        name: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, name.into());
        if let Some(filter) = &self.harness.filter {
            if !id.contains(filter.as_str()) {
                return self;
            }
        }
        let mut b = Bencher {
            test_mode: self.harness.test_mode,
            samples: self.sample_size.unwrap_or(self.harness.default_sample_size),
            ns_per_iter: None,
        };
        f(&mut b);
        match b.ns_per_iter {
            None => println!("{id}: test mode, ran once, ok"),
            Some(ns) => {
                let rate = self.throughput.map(|t| match t {
                    Throughput::Elements(n) => {
                        format!(" ({:.3} Melem/s)", n as f64 / ns * 1e3)
                    }
                    Throughput::Bytes(n) => {
                        format!(" ({:.3} MiB/s)", n as f64 / ns * 1e9 / (1 << 20) as f64)
                    }
                });
                println!("{id}: {}{}", fmt_time(ns), rate.unwrap_or_default());
            }
        }
        self
    }

    /// Ends the group (prints nothing extra; exists for API compatibility).
    pub fn finish(self) {}
}

fn fmt_time(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns/iter")
    } else if ns < 1e6 {
        format!("{:.2} µs/iter", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.3} ms/iter", ns / 1e6)
    } else {
        format!("{:.3} s/iter", ns / 1e9)
    }
}

/// Per-benchmark measurement driver passed to the closure.
pub struct Bencher {
    test_mode: bool,
    samples: usize,
    ns_per_iter: Option<f64>,
}

impl Bencher {
    /// Measures `f`, storing the median time per iteration.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        if self.test_mode {
            black_box(f());
            return;
        }
        // Warm-up: run for ~50 ms to fault caches in and size batches so a
        // single timed batch costs ≳ 1 µs (amortizing Instant overhead).
        let warmup = Duration::from_millis(50);
        let start = Instant::now();
        let mut warm_iters: u64 = 0;
        while start.elapsed() < warmup {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = warmup.as_nanos() as f64 / warm_iters.max(1) as f64;
        let batch = ((1_000.0 / per_iter).ceil() as u64).max(1);
        // Measurement: `samples` batches, median of per-iteration times.
        let mut times: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            times.push(t0.elapsed().as_nanos() as f64 / batch as f64);
        }
        times.sort_by(|a, b| a.total_cmp(b));
        self.ns_per_iter = Some(times[times.len() / 2]);
    }
}

/// Declares a benchmark group runner function, criterion style.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_in_test_and_timed_modes() {
        let mut b = Bencher {
            test_mode: true,
            samples: 3,
            ns_per_iter: None,
        };
        let mut runs = 0;
        b.iter(|| runs += 1);
        assert_eq!(runs, 1);
        assert!(b.ns_per_iter.is_none());

        let mut b = Bencher {
            test_mode: false,
            samples: 3,
            ns_per_iter: None,
        };
        b.iter(|| black_box(1 + 1));
        assert!(b.ns_per_iter.unwrap() > 0.0);
    }

    #[test]
    fn groups_filter_and_run() {
        let mut c = Criterion {
            test_mode: true,
            filter: Some("keep".into()),
            ..Default::default()
        };
        let mut ran = Vec::new();
        {
            let mut g = c.benchmark_group("g");
            g.throughput(Throughput::Elements(1));
            g.bench_function("keep_me", |b| b.iter(|| ran.push("keep")));
            g.bench_function("skip_me", |b| b.iter(|| ran.push("skip")));
            g.finish();
        }
        assert_eq!(ran, vec!["keep"]);
    }
}
