//! Offline, dependency-free subset of the `criterion` benchmark API.
//!
//! The build environment has no registry access, so this workspace
//! ships a minimal harness with the same surface the benches use:
//! benchmark groups, `sample_size`/`measurement_time`, `bench_function`
//! / `bench_with_input`, `iter` / `iter_batched`, [`BenchmarkId`], and
//! the `criterion_group!` / `criterion_main!` macros. Each benchmark is run `sample_size` times
//! (bounded by the group's measurement-time budget) and the mean,
//! minimum, and maximum wall-clock per iteration are printed in a
//! stable one-line format.

use std::fmt;
use std::time::{Duration, Instant};

/// A parameterized benchmark identifier (`group/function/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a displayable parameter.
    pub fn new(function: impl Into<String>, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            name: format!("{}/{}", function.into(), parameter),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Names acceptable to `bench_function` (a `&str` or a [`BenchmarkId`]).
pub trait IntoBenchmarkName {
    /// Rendered name.
    fn into_name(self) -> String;
}

impl IntoBenchmarkName for &str {
    fn into_name(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkName for String {
    fn into_name(self) -> String {
        self
    }
}

impl IntoBenchmarkName for BenchmarkId {
    fn into_name(self) -> String {
        self.name
    }
}

/// Timing callback handle passed to benchmark closures.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
    budget: Duration,
    test_mode: bool,
}

impl Bencher {
    /// Times `routine`, once per sample, until the sample count or the
    /// group's measurement-time budget is reached (always at least one
    /// sample). In `--test` mode (mirroring criterion), the routine
    /// runs exactly once with no warm-up: a compile-and-run smoke, not
    /// a measurement.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.test_mode {
            let t0 = Instant::now();
            std::hint::black_box(routine());
            self.samples.push(t0.elapsed());
            return;
        }
        // One untimed warm-up to populate caches and lazy statics.
        std::hint::black_box(routine());
        let started = Instant::now();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            std::hint::black_box(routine());
            self.samples.push(t0.elapsed());
            if started.elapsed() > self.budget {
                break;
            }
        }
    }
}

/// How many inputs [`Bencher::iter_batched`] builds per batch. The
/// shim builds one per sample whatever the size; the variants exist for
/// source compatibility with criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Inputs that are cheap to hold many of.
    SmallInput,
    /// Inputs too large to hold many of.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

impl Bencher {
    /// Like [`Bencher::iter`], but each sample first builds a fresh
    /// input with `setup`, untimed, and times only `routine` over it.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let _ = size;
        let runs = if self.test_mode { 1 } else { self.sample_size };
        if !self.test_mode {
            std::hint::black_box(routine(setup()));
        }
        let started = Instant::now();
        for _ in 0..runs {
            let input = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(input));
            self.samples.push(t0.elapsed());
            if started.elapsed() > self.budget {
                break;
            }
        }
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Sets the target number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the per-benchmark wall-clock budget.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<N: IntoBenchmarkName, F: FnMut(&mut Bencher)>(
        &mut self,
        name: N,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, name.into_name());
        if !self.criterion.matches(&full) {
            return self;
        }
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
            budget: self.measurement_time,
            test_mode: self.criterion.test_mode,
        };
        f(&mut b);
        report(&full, &b.samples);
        self
    }

    /// Runs one benchmark with an input value.
    pub fn bench_with_input<N, I, F>(&mut self, name: N, input: &I, mut f: F) -> &mut Self
    where
        N: IntoBenchmarkName,
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(name, |b| f(b, input))
    }

    /// Ends the group (separator line, mirrors criterion's API).
    pub fn finish(&mut self) {
        println!();
    }
}

fn report(name: &str, samples: &[Duration]) {
    if samples.is_empty() {
        println!("{name:<52} <no samples>");
        return;
    }
    let total: Duration = samples.iter().sum();
    let mean = total / samples.len() as u32;
    let min = samples.iter().min().copied().unwrap_or_default();
    let max = samples.iter().max().copied().unwrap_or_default();
    println!(
        "{name:<52} time: [{} {} {}]  ({} samples)",
        fmt_dur(min),
        fmt_dur(mean),
        fmt_dur(max),
        samples.len()
    );
}

fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// The benchmark manager: holds the optional name filter and the
/// `--test` smoke-mode flag taken from the command line
/// (`cargo bench -- <filter> [--test]`).
pub struct Criterion {
    filter: Option<String>,
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Criterion {
        // cargo passes `--bench`; anything that is not a flag or a
        // flag value is treated as a substring filter.
        let mut filter = None;
        let mut test_mode = false;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--test" => test_mode = true,
                "--bench" | "--exact" | "--nocapture" | "-q" | "--quiet" => {}
                "--save-baseline" | "--baseline" | "--measurement-time" | "--sample-size" => {
                    let _ = args.next();
                }
                other if !other.starts_with('-') => filter = Some(other.to_string()),
                _ => {}
            }
        }
        Criterion { filter, test_mode }
    }
}

impl Criterion {
    fn matches(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 100,
            measurement_time: Duration::from_secs(5),
        }
    }

    /// Runs one ungrouped benchmark with default settings.
    pub fn bench_function<N: IntoBenchmarkName, F: FnMut(&mut Bencher)>(
        &mut self,
        name: N,
        f: F,
    ) -> &mut Self {
        let mut g = BenchmarkGroup {
            criterion: self,
            name: "bench".into(),
            sample_size: 100,
            measurement_time: Duration::from_secs(5),
        };
        g.bench_function(name, f);
        self
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` from one or more group-runner functions.
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
    fn group_runs_and_reports() {
        let mut c = Criterion {
            filter: None,
            test_mode: false,
        };
        let mut g = c.benchmark_group("shim");
        let mut runs = 0u32;
        g.sample_size(3)
            .measurement_time(Duration::from_millis(200))
            .bench_function("counting", |b| b.iter(|| runs += 1));
        g.finish();
        // warm-up + up to 3 samples
        assert!((2..=4).contains(&runs), "{runs}");
    }

    #[test]
    fn test_mode_runs_exactly_once() {
        let mut c = Criterion {
            filter: None,
            test_mode: true,
        };
        let mut g = c.benchmark_group("shim");
        let mut runs = 0u32;
        g.sample_size(50)
            .bench_function("once", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 1, "--test smoke mode skips warm-up and sampling");
    }

    #[test]
    fn filter_skips_mismatches() {
        let mut c = Criterion {
            filter: Some("only_this".into()),
            test_mode: false,
        };
        let mut g = c.benchmark_group("shim");
        let mut runs = 0u32;
        g.bench_function("skipped", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 0);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
    }
}
