//! Offline stand-in for the parts of [`criterion`] that this workspace
//! uses.
//!
//! The build container has no access to crates.io, so this shim implements
//! the subset of the criterion API exercised by the benches in
//! `crates/bench/benches`: [`criterion_group!`] / [`criterion_main!`],
//! [`Criterion::benchmark_group`], `bench_function` / `bench_with_input` /
//! `sample_size` / `finish`, [`Bencher::iter`], [`BenchmarkId`] and
//! [`black_box`].
//!
//! Timing is deliberately simple — calibrate the per-iteration cost once,
//! then time a batch sized to roughly `sample_size × 10 ms` of wall clock
//! and report mean time per iteration. There are no statistics or plots,
//! but each measurement **is** persisted in the real crate's on-disk
//! layout — `target/criterion/<id>/new/estimates.json` with a
//! `mean.point_estimate` in nanoseconds — so estimate extractors work
//! unchanged against shim and real criterion alike. Criterion's `--test`
//! CLI mode (run every benchmark body exactly once, measure nothing) is
//! supported because CI uses it as a bench-rot smoke check; `--bench`,
//! `--quiet`, `--verbose` and filter arguments are accepted and ignored.
//! When the real crate becomes available, point
//! `[workspace.dependencies] criterion` back at crates.io and delete this
//! shim; no call sites need to change.
//!
//! [`criterion`]: https://crates.io/crates/criterion

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter, rendered
    /// `name/parameter` as the real crate does.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            id: format!("{}/{parameter}", function_name.into()),
        }
    }

    /// An id carrying only a parameter value.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        Self { id }
    }
}

/// Times one benchmark body.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `routine` for the number of iterations the harness chose and
    /// records the total wall-clock time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// The benchmark harness handle passed to every benchmark function.
#[derive(Debug, Default)]
pub struct Criterion {
    test_mode: bool,
}

impl Criterion {
    /// Applies CLI arguments; only `--test` changes behaviour.
    #[must_use]
    pub fn configure_from_args(mut self) -> Self {
        self.test_mode = std::env::args().any(|a| a == "--test");
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, group_name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: group_name.into(),
            sample_size: 10,
        }
    }

    /// Benchmarks `routine` outside any group.
    pub fn bench_function<R: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        routine: R,
    ) -> &mut Self {
        let id = id.into();
        run_one(self.test_mode, &id.id, 10, routine);
        self
    }
}

/// A named set of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the sample count, which scales this shim's measurement budget.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Benchmarks `routine` under `self.name/id`.
    pub fn bench_function<R: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        routine: R,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().id);
        run_one(self.criterion.test_mode, &full, self.sample_size, routine);
        self
    }

    /// Benchmarks `routine` with a borrowed input value.
    pub fn bench_with_input<I: ?Sized, R: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: R,
    ) -> &mut Self {
        self.bench_function(id, |b| routine(b, input))
    }

    /// Ends the group (a no-op in the shim, kept for API compatibility).
    pub fn finish(self) {}
}

fn run_one<R: FnMut(&mut Bencher)>(test_mode: bool, id: &str, sample_size: usize, mut routine: R) {
    let mut bencher = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    routine(&mut bencher);
    if test_mode {
        println!("test {id} ... ok");
        return;
    }
    // Size the measured batch to ~10 ms per sample of calibrated cost,
    // capped so pathologically slow bodies still finish promptly.
    let calibration = bencher.elapsed.max(Duration::from_nanos(1));
    let budget = Duration::from_millis(10) * sample_size as u32;
    let iters = (budget.as_nanos() / calibration.as_nanos()).clamp(1, 100_000) as u64;
    bencher.iters = iters;
    routine(&mut bencher);
    let per_iter = bencher.elapsed / iters as u32;
    println!("{id:<60} time: [{per_iter:?} per iter, {iters} iters]");
    save_estimate(id, bencher.elapsed.as_nanos() as f64 / iters as f64);
}

/// Where measurements are persisted: `$CRITERION_HOME`, else
/// `$CARGO_TARGET_DIR/criterion`, else `target/criterion` under the
/// nearest ancestor directory holding a `Cargo.lock` (cargo runs bench
/// binaries from the package root, which for workspace members is not
/// the directory `target/` lives in).
fn criterion_dir() -> Option<PathBuf> {
    if let Ok(dir) = std::env::var("CRITERION_HOME") {
        return Some(PathBuf::from(dir));
    }
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return Some(PathBuf::from(dir).join("criterion"));
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.lock").is_file() {
            return Some(dir.join("target").join("criterion"));
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Writes `<criterion dir>/<id>/new/estimates.json` in the subset of the
/// real crate's schema that downstream extractors read. Persistence is
/// best-effort: an unwritable disk must never fail a benchmark run.
fn save_estimate(id: &str, mean_ns: f64) {
    let Some(root) = criterion_dir() else { return };
    let dir = id
        .split('/')
        .fold(root, |dir, part| dir.join(part))
        .join("new");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let json = format!(
        "{{\"mean\":{{\"confidence_interval\":{{\"confidence_level\":0.95,\
         \"lower_bound\":{mean_ns},\"upper_bound\":{mean_ns}}},\
         \"point_estimate\":{mean_ns},\"standard_error\":0.0}}}}"
    );
    let _ = std::fs::write(dir.join("estimates.json"), json);
}

/// Declares a function running a list of benchmark functions in order.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` for a benchmark binary (`harness = false`).
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

    fn sample_bench(c: &mut Criterion) {
        c.bench_function("free_fn", |b| b.iter(|| black_box(2 + 2)));
        let mut group = c.benchmark_group("group");
        group.sample_size(2);
        group.bench_function(BenchmarkId::new("sum", 8), |b| {
            b.iter(|| (0..8u64).sum::<u64>())
        });
        group.bench_with_input(BenchmarkId::from_parameter(3), &3u64, |b, &n| {
            b.iter(|| n * n)
        });
        group.finish();
    }

    #[test]
    fn harness_runs_benchmarks() {
        let mut criterion = Criterion { test_mode: true };
        sample_bench(&mut criterion);
    }

    #[test]
    fn measurement_mode_completes_quickly() {
        let mut criterion = Criterion { test_mode: false };
        let start = Instant::now();
        criterion.bench_function("tiny", |b| b.iter(|| black_box(1u64.wrapping_add(2))));
        assert!(start.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn estimates_persist_in_the_real_criterion_layout() {
        let home = std::env::temp_dir().join("criterion-shim-test");
        std::fs::remove_dir_all(&home).ok();
        std::env::set_var("CRITERION_HOME", &home);
        save_estimate("group/fn/4", 1234.5);
        std::env::remove_var("CRITERION_HOME");
        let path = home.join("group/fn/4/new/estimates.json");
        let json = std::fs::read_to_string(&path).expect("estimate written");
        assert!(json.contains("\"mean\""));
        assert!(json.contains("\"point_estimate\":1234.5"));
        std::fs::remove_dir_all(&home).ok();
    }

    #[test]
    fn criterion_dir_resolves_somewhere() {
        // Under cargo the walk-up always finds the workspace Cargo.lock.
        assert!(criterion_dir().is_some());
    }
}
