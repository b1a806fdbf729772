//! The repository benchmark: two seeded workloads against the release
//! build, end-to-end metrics from an untraced run, per-layer metrics
//! from a separate traced run, and a check of every output.
//!
//! ```text
//! fvbench --workload paper-tables|serve-mixed --seed N
//!         --seconds S --trace 0|1 --fveval PATH --work-dir DIR
//! ```
//!
//! `python3 fvbench/run.py` builds this binary and `fveval`, then runs
//! it with the right paths. The last line of standard output is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`); the exit
//! code is non-zero when any output check failed. Workload choices,
//! seeds, reference digests and what each metric should move are in
//! `records.json`.

mod layers;
mod measure;
mod paper;
mod records;
mod serve;

use layers::Layers;
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["paper-tables", "serve-mixed"];

/// End-to-end metrics: every untraced run reports each of them in its
/// JSON result. What the throughput counts depends on the workload (see
/// `records.json`). The job latencies of serve-mixed (`job_p50_ms`,
/// `job_tail_ms`) are printed by name but not gated: the server answers
/// long-polls on a 25 ms event-loop tick, so the job latency
/// distribution is bimodal and its median jumps between modes from run
/// to run.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: every traced run reports each of them, `0` for a
/// layer the workload does not reach or cannot observe.
const PER_LAYER: [(&str, &str); 50] = [
    ("fv-sat.solve_s", "s"),
    ("fv-sat.calls", "count"),
    ("fv-sat.warm_ratio", "ratio"),
    ("fv-sat.share", "ratio"),
    ("fv-core.check_s", "s"),
    ("fv-core.checks", "count"),
    ("fv-core.check_p50_us", "us"),
    ("fv-core.check_tail_us", "us"),
    ("fv-core.queries", "count"),
    ("fv-core.kill_ratio", "ratio"),
    ("fv-core.undetermined", "count"),
    ("fv-core.open_s", "s"),
    ("fv-core.sessions", "count"),
    ("fv-core.reuse_ratio", "ratio"),
    ("fv-core.unroll_reuse_hits", "count"),
    ("fv-core.replay_s", "s"),
    ("fv-core.replays", "count"),
    ("sv-parser.parse_s", "s"),
    ("sv-parser.parses", "count"),
    ("sv-parser.errors", "count"),
    ("sv-synth.elaborate_s", "s"),
    ("sv-synth.elaborations", "count"),
    ("sv-synth.bind_extras_s", "s"),
    ("sv-synth.bind_extras", "count"),
    ("fveval-llm.generate_s", "s"),
    ("fveval-llm.requests", "count"),
    ("fveval-gen.generate_s", "s"),
    ("fveval-gen.candidates", "count"),
    ("fveval-gen.mutants", "count"),
    ("fveval-gen.mutant_yield", "ratio"),
    ("fveval-data.build_s", "s"),
    ("fveval-data.cases", "count"),
    ("fveval-core.bleu_s", "s"),
    ("fveval-core.unattributed_s", "s"),
    ("fveval-core.verdict_hits", "count"),
    ("fveval-core.verdict_misses", "count"),
    ("fveval-core.persisted_hits", "count"),
    ("fveval-core.digest_reuse", "count"),
    ("fveval-serve.preloaded", "count"),
    ("fveval-serve.submit_ms", "ms"),
    ("fveval-serve.stats_ms", "ms"),
    ("fveval-serve.queue_wait_ms", "ms"),
    ("fveval-serve.job_ms", "ms"),
    ("fveval-serve.build_s", "s"),
    ("fveval-serve.build_share", "ratio"),
    ("fveval-serve.notify_ms", "ms"),
    ("fveval-serve.refused", "count"),
    ("fveval-serve.flush_s", "s"),
    ("fveval-serve.compactions", "count"),
    ("traced.overhead_ratio", "ratio"),
];

/// The outcome of one run: output checks plus the measured figures.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
    /// `(setup_s, throughput_per_s)`.
    e2e: Option<[f64; 2]>,
    /// The workload's own names for its figures, printed for people.
    aliases: Vec<(&'static str, f64, &'static str)>,
    /// Peak resident memory of the process doing the work.
    pub rss: Option<f64>,
}

impl Report {
    pub fn new() -> Report {
        Report::default()
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn e2e(&mut self, setup_s: f64, throughput: f64) {
        self.e2e = Some([setup_s, throughput]);
    }

    pub fn alias(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.aliases.push((name, value, unit));
    }
}

/// A traced run: its checks, per-layer times and counts, its wall time
/// and its wall time over an untraced run of the same work.
pub struct TraceOutcome {
    pub report: Report,
    pub layers: Layers,
    pub wall: f64,
    pub overhead: f64,
    /// Figures measured outside the layer clock (serve-mixed).
    pub extra: Vec<(&'static str, f64)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fveval: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut fveval, mut work_dir) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                })
            }
            "--fveval" => fveval = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        fveval: fveval.ok_or("--fveval is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of a traced run, in [`PER_LAYER`] order.
fn per_layer(t: &TraceOutcome) -> Vec<f64> {
    let l = &t.layers;
    let n = |name| l.n(name) as f64;
    let s = |name| l.secs(name);
    // Layer self times and the solver time sum to the traced wall time
    // of a sequential run; serve-mixed times are server-side sums over
    // concurrent shards and are not split against the client's wall.
    let unattributed = if t.extra.is_empty() {
        t.wall - l.seconds.values().sum::<f64>()
    } else {
        0.0
    };
    let (_, check_tail) = measure::tail(&l.check_us);
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            if let Some(&(_, v)) = t.extra.iter().find(|(n, _)| *n == name) {
                return v;
            }
            match name {
                "fv-sat.warm_ratio" => ratio(n("fv-core.warm_calls"), n("fv-sat.calls")),
                "fv-sat.share" => ratio(s("fv-sat.solve_s"), t.wall),
                "fv-core.check_p50_us" => measure::median(&l.check_us),
                "fv-core.check_tail_us" => check_tail,
                "fv-core.kill_ratio" => ratio(n("fv-core.kills"), n("fv-core.queries")),
                "fv-core.reuse_ratio" => ratio(n("fv-core.checks"), n("fv-core.sessions")),
                "fveval-gen.mutant_yield" => {
                    ratio(n("fveval-gen.mutants"), n("fveval-gen.requested_mutants"))
                }
                "fveval-core.unattributed_s" => unattributed,
                "traced.overhead_ratio" => t.overhead,
                _ if name.ends_with("_s") => s(name),
                _ => n(name),
            }
        })
        .collect()
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> Result<String, String> {
    if let Some((name, _, _)) = metrics.iter().find(|m| !measure::valid_name(m.0)) {
        return Err(format!("invalid metric name {name}"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!("{{{}}}", body.join(", ")))
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn run(args: &Args) -> Result<(Report, Vec<Metric>), String> {
    let seed = args.seed;
    if args.trace {
        let t = match args.workload.as_str() {
            "paper-tables" => paper::run_traced(seed),
            _ => serve::run_traced(seed, &args.fveval, &args.work_dir)?,
        };
        let values = per_layer(&t);
        let metrics: Vec<_> = PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
        let mut report = t.report;
        if t.extra.is_empty() {
            let unattributed = metrics
                .iter()
                .find(|m| m.0 == "fveval-core.unattributed_s")
                .map_or(0.0, |m| m.1);
            let attributed = 1.0 - ratio(unattributed, t.wall);
            report.note(format!(
                "traced wall {:.3} s, {:.1}% attributed to named layers",
                t.wall,
                attributed * 100.0
            ));
        }
        return Ok((report, metrics));
    }
    let mut report = match args.workload.as_str() {
        "paper-tables" => paper::run(seed, args.seconds)?,
        _ => serve::run(seed, args.seconds, &args.fveval, &args.work_dir)?,
    };
    let rss = report.rss.ok_or("cannot read peak memory")?;
    let [setup, throughput] = report.e2e.ok_or("workload reported no figures")?;
    report.alias("setup_s", setup, "s");
    report.alias("peak_rss_mb", rss, "MiB");
    let values = [setup, throughput, rss];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    Ok((report, metrics))
}

fn main() -> ExitCode {
    // A paper-tables pass in a process of its own (see `paper::run`).
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, seed, index] = argv.as_slice() {
        if flag == "--paper-pass" {
            let outcome = match (seed.parse(), index.parse()) {
                (Ok(seed), Ok(index)) => paper::pass_process(seed, index),
                _ => Err("bad --paper-pass arguments".into()),
            };
            return match outcome {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("fvbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fvbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (report, metrics) = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("fvbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = match json_metrics(&metrics) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("fvbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for line in &report.notes {
        println!("  {line}");
    }
    let error_ratio = ratio(report.failed as f64, report.attempted as f64);
    for (name, value, unit) in
        report
            .aliases
            .iter()
            .copied()
            .chain([("error_ratio", error_ratio, "1")])
    {
        println!("  {name:<16} {value:>14.4} {unit}");
    }
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        metrics
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fveval_serve::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let doc = benchmark_json();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
        let listed: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            })
            .collect();
        assert_eq!(listed, WORKLOADS);
        let records = parse(include_str!("../records.json")).expect("records parse");
        for name in WORKLOADS {
            assert!(
                records.get("workloads").and_then(|w| w.get(name)).is_some(),
                "records.json describes {name}"
            );
        }
    }

    #[test]
    fn every_name_passes_the_name_check() {
        let mut seen = std::collections::HashSet::new();
        for name in WORKLOADS
            .iter()
            .chain(END_TO_END.iter().map(|(n, _)| n))
            .chain(PER_LAYER.iter().map(|(n, _)| n))
        {
            assert!(measure::valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} is used twice");
        }
    }

    #[test]
    fn records_describe_every_per_layer_metric() {
        let records = parse(include_str!("../records.json")).expect("records parse");
        let described = records.get("per_layer").expect("per_layer block");
        for (name, _) in PER_LAYER {
            let entry = described
                .get(name)
                .unwrap_or_else(|| panic!("records.json does not describe {name}"));
            let kind = entry.get("kind").and_then(Json::as_str);
            assert!(
                matches!(kind, Some("count" | "timing" | "ratio")),
                "{name}: kind {kind:?}"
            );
        }
    }
}
