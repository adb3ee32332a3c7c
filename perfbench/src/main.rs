//! perfbench — the benchmark of tamopt.
//!
//! ```text
//! perfbench --workload npaw|paw|serve --seed N --seconds S --trace 0|1 \
//!           --tamopt <tamopt binary> --work <scratch dir> --expected <expected.txt>
//! perfbench expected [scratch dir]      # prints a fresh expected.txt
//! ```
//!
//! Human-readable lines first; the last line of stdout is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics untraced, the per-layer metrics with `--trace 1`.
//! `perfbench/run.py` builds this binary and the daemon and calls it.
//! See `perfbench/README.md` for what each metric and workload means.

mod daemon;
mod inputs;
mod oracle;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Everything a run needs from its command line.
pub struct Context {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub tamopt: PathBuf,
    pub work: PathBuf,
}

/// Failed operations of a run; the first few are printed.
#[derive(Default)]
pub struct Failures {
    pub count: u64,
    pub attempted: u64,
    shown: Vec<String>,
}

impl Failures {
    pub fn check(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = verdict {
            self.count += 1;
            if self.shown.len() < 5 {
                self.shown.push(message);
            }
        }
    }

    pub fn fail(&mut self, message: String) {
        self.check(Err(message));
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub failures: Failures,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn new(failures: Failures) -> Self {
        Report {
            failures,
            metrics: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// The end-to-end metrics from the set-up time (s), the median and
    /// tail latency (ms) and the throughput.
    pub fn end_to_end(
        setup_s: f64,
        p50_ms: f64,
        tail: stats::Tail,
        queries_per_s: f64,
        peak_rss_mb: f64,
        failures: Failures,
    ) -> Self {
        println!(
            "query_tail_ms is p{} of {} samples, {} beyond it",
            tail.percentile, tail.samples, tail.beyond
        );
        let mut report = Report::new(failures);
        report.push("setup_s", setup_s, "s");
        report.push("queries_per_s", queries_per_s, "1/s");
        report.push("query_p50_ms", p50_ms, "ms");
        report.push("query_tail_ms", tail.value, "ms");
        report.push("peak_rss_mb", peak_rss_mb, "MB");
        report
    }

    fn print(&self) {
        let f = &self.failures;
        for message in &f.shown {
            println!("FAILED: {message}");
        }
        let failed_frac = if f.attempted == 0 {
            0.0
        } else {
            f.count as f64 / f.attempted as f64
        };
        for m in &self.metrics {
            println!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "{:<28} {:>14.6} ratio ({} of {} failed)",
            "failed_frac", failed_frac, f.count, f.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            // Names and units are plain ASCII: nothing to escape.
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            f.count == 0 && f.attempted > 0,
            f.attempted.max(1),
            f.count,
            metrics.join(", ")
        );
    }
}

struct Args {
    context: Context,
    trace: bool,
    expected: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tamopt, mut work, mut expected) = (None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "invalid --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "invalid --seconds")?;
                seconds = Some(Duration::try_from_secs_f64(s).map_err(|_| "invalid --seconds")?);
            }
            "--trace" => trace = Some(value == "1"),
            "--tamopt" => tamopt = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            "--expected" => expected = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    let workload: String = workload.ok_or_else(|| missing("--workload"))?;
    if !["npaw", "paw", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        context: Context {
            workload,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            tamopt: tamopt.ok_or_else(|| missing("--tamopt"))?,
            work: work.ok_or_else(|| missing("--work"))?,
        },
        trace: trace.ok_or_else(|| missing("--trace"))?,
        expected: expected.ok_or_else(|| missing("--expected"))?,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let ctx = &args.context;
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("cannot create {:?}: {e}", ctx.work))?;
    let expected = oracle::Expected::load(&args.expected)?;
    if args.trace {
        return trace::run(ctx, &expected);
    }
    match ctx.workload.as_str() {
        "npaw" => workloads::run_grid(
            ctx,
            inputs::npaw_pool(),
            workloads::NPAW_PASSES_PER_SECOND,
            &expected,
        ),
        "paw" => workloads::run_grid(
            ctx,
            inputs::paw_pool(),
            workloads::PAW_PASSES_PER_SECOND,
            &expected,
        ),
        _ => workloads::run_serve(ctx, &expected),
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("expected") {
        argv.next();
        let dir = PathBuf::from(
            argv.next()
                .unwrap_or_else(|| ".bench_work/expected".to_owned()),
        );
        let generated = oracle::generate(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        return match generated {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
