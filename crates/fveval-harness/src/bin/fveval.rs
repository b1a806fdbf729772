//! The `fveval` command-line interface.
//!
//! ```text
//! fveval <command> [--full] [--seed N] [--jobs N] [--out DIR]
//!                  [--cache-dir DIR] [--no-persist] [--trace-out FILE]
//!                  [--engine bounded|pdr|portfolio]
//! fveval gen [--family NAME]... [--count N] [--depth N] [--width N]
//!            [--seed N] [--mutations N] [--eval] [--out DIR]
//! fveval serve [--addr HOST:PORT] [--jobs N] [--shards N]
//!              [--queue-depth N] [--retain N] [--cache-dir DIR]
//!              [--no-persist]
//! fveval submit [--addr HOST:PORT] [--set suite|human|machine]
//!               [--family NAME]... [--count N] [--depth N] [--width N]
//!               [--seed N] [--samples N] [--model NAME]... [--wait]
//!               [--out DIR]
//! fveval poll --job ID [--addr HOST:PORT] [--wait] [--out DIR]
//! fveval stats [--addr HOST:PORT]
//! fveval stop  [--addr HOST:PORT]
//!
//! Commands:
//!   table1 table2 table3 table4 table5 table6
//!   figure2 figure3 figure4 figure6
//!   gen             generate scenario suites (fveval-gen) with golden
//!                   verdicts re-proven by the formal core
//!   serve           run the persistent evaluation service (fveval-serve)
//!   submit          submit an evaluation job to a running server
//!   poll            check (or wait for) a submitted job
//!   stats           print a running server's /v1/stats as key=value
//!   stop            ask a running server to drain and stop
//!   showcase        qualitative failure-mode examples (Figs. 7-9)
//!   validate        end-to-end dataset self-check
//!   list            available tables/figures with descriptions
//!   run-all         every table and figure above
//!
//! Flags:
//!   --full          paper-scale datasets (quick mode is the default)
//!   --seed N        dataset-generation seed (machine set, design
//!                   sweeps, and `gen`/`submit` suites; the fixed human
//!                   set and the models' deterministic draws are
//!                   unaffected)
//!   --jobs N        evaluation worker threads (default: all CPUs;
//!                   results are byte-identical for any value)
//!   --out DIR       output directory (default: results/)
//!   --cache-dir DIR persistent verdict-store directory (default:
//!                   `<out>/cache`, i.e. results/cache/). Every run
//!                   preloads it and flushes newly computed verdicts
//!                   back, so repeated runs skip settled formal
//!                   queries across processes.
//!   --no-persist    disable the persistent verdict store for this run
//!   --trace-out FILE
//!                   record hierarchical spans for the whole run and
//!                   write them as a Chrome-trace JSON file (open in
//!                   chrome://tracing or Perfetto). Tracing is a side
//!                   channel: every results/ table stays byte-identical
//!                   with or without it. Also writes the run's slowest
//!                   prover checks to `--out/slow_checks.md`, ranked
//!                   from the same spans (`engine.score` under
//!                   `engine.case`).
//!   --engine E      Design2SVA proving engine: bounded (BMC +
//!                   k-induction, the default), pdr (IC3/PDR), or
//!                   portfolio (bounded, then PDR on checks bounded
//!                   leaves Undetermined; bounded's verdict and trace
//!                   whenever bounded concludes). Also accepted by
//!                   `serve` for its shared engine.
//!
//! `gen`/`submit`-only flags:
//!   --family NAME   restrict to one family (repeatable; default:
//!                   every family except deepcnt, which needs PDR)
//!   --count N       scenarios per family (default: 4, or 16 with
//!                   --full); for `submit --set machine`, the case count
//!   --depth N       pin the family-size knob instead of sweeping it
//!   --width N       pin the data width instead of sweeping it
//!   --mutations N   derive up to N prove-gated OP-Tree mutants per
//!                   scenario (default 0); `gen` then also writes the
//!                   per-family, per-operator `gen_difficulty.{md,csv}`
//!   --eval          (`gen` only) also run all simulated models over
//!                   the generated task set through the shared engine
//!
//! Service flags:
//!   --addr A        server address (default 127.0.0.1:8642)
//!   --shards N      (`serve`) engine shards, one worker thread each;
//!                   jobs route by task-content digest (default 2)
//!   --queue-depth N (`serve`) per-shard bound on queued + in-flight
//!                   jobs; beyond it submits answer 429 with a
//!                   Retry-After hint (default 32)
//!   --retain N      (`serve`) finished-job results kept addressable
//!                   (default 64; older results answer 404; 0 rejected)
//!   --set NAME      (`submit`) task set: suite (default, built from
//!                   the gen flags), human, or machine
//!   --samples N     (`submit`) samples per (model, case) (default 1)
//!   --model NAME    (`submit`) roster entry (repeatable; default all)
//!   --wait          (`submit`/`poll`) poll until done and render the
//!                   evaluation summary table
//!   --job ID        (`poll`) the job to poll
//! ```
//!
//! Results are printed to stdout and written under `--out` as markdown
//! and CSV; every file is written to a `*.tmp` sibling and atomically
//! renamed, so concurrent runs (or a killed process) never leave torn
//! tables. All commands of one invocation share a single `EvalEngine`,
//! so `run-all` scores the overlap between experiments (e.g. the human
//! set in Tables 1/2 and Figure 6) only once — and with the persistent
//! verdict store (see `docs/SERVICE.md`), across invocations too.
//!
//! After the tables, the run's formal-core work summary is written to
//! `--out/prover_stats.{md,csv}` (and echoed to stderr): how many
//! prover queries went to SAT versus being killed by random or ternary
//! simulation, how often SAT calls reused an already-warmed solver,
//! how many proof sessions were opened versus candidate assertions
//! streamed through them (compile-once / score-many reuse), and how
//! many verdicts came from the in-memory cache versus the persistent
//! store. The README's *Prover statistics* table says what each column
//! means.

use fv_trace::SpanRecord;
use fveval_core::EvalEngine;
use fveval_harness::HarnessOptions;
use fveval_serve::{Client, EvalRequest, Server, ServerConfig, TaskSetRef, VerdictStore};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const DEFAULT_ADDR: &str = "127.0.0.1:8642";
const WAIT_TIMEOUT: Duration = Duration::from_secs(3600);
/// How many checks `slow_checks.md` lists.
const SLOW_CHECKS_CAP: usize = 32;

struct Args {
    command: String,
    opts: HarnessOptions,
    jobs: usize,
    out_dir: PathBuf,
    cache_dir: PathBuf,
    no_persist: bool,
    engine: Option<fv_core::ProveEngine>,
    trace_out: Option<PathBuf>,
    gen: GenArgs,
    serve: ServeArgs,
}

impl Args {
    /// The Design2SVA proving configuration the `--engine` flag
    /// selects (defaults when absent).
    fn prove_config(&self) -> fv_core::ProveConfig {
        fv_core::ProveConfig {
            engine: self.engine.unwrap_or_default(),
        }
    }
}

/// Flags only the `gen` and `submit` subcommands read.
#[derive(Default)]
struct GenArgs {
    families: Vec<String>,
    count: Option<usize>,
    depth: Option<u32>,
    width: Option<u32>,
    mutations: Option<usize>,
    eval: bool,
}

/// Flags only the service subcommands read.
#[derive(Default)]
struct ServeArgs {
    addr: Option<String>,
    shards: Option<usize>,
    queue_depth: Option<usize>,
    retain: Option<usize>,
    set: Option<String>,
    samples: Option<u32>,
    models: Vec<String>,
    wait: bool,
    job: Option<u64>,
}

const COMMANDS: &[(&str, &str)] = &[
    ("table1", "NL2SVA-Human, zero-shot greedy, all 8 models"),
    ("table2", "NL2SVA-Human pass@k under sampling (top models)"),
    (
        "table3",
        "NL2SVA-Machine, zero-shot and 3-shot, all 8 models",
    ),
    ("table4", "NL2SVA-Machine pass@k under sampling, 3-shot"),
    ("table5", "Design2SVA pass@1/pass@5 per design category"),
    ("table6", "NL2SVA-Human dataset composition"),
    ("figure2", "human-set NL/SVA token-length distributions"),
    ("figure3", "machine-set NL/SVA token-length distributions"),
    ("figure4", "design-sweep generated-logic token lengths"),
    ("figure6", "BLEU vs functional-equivalence correlation"),
    (
        "gen",
        "generate scenario suites with prover-confirmed golden verdicts",
    ),
    ("serve", "run the persistent evaluation service"),
    ("submit", "submit an evaluation job to a running server"),
    ("poll", "check (or wait for) a submitted job"),
    ("stats", "print a running server's /v1/stats as key=value"),
    ("stop", "ask a running server to drain and stop"),
    ("showcase", "qualitative failure-mode examples (Figs. 7-9)"),
    ("validate", "end-to-end dataset self-check"),
    ("list", "this command list"),
    ("run-all", "every table and figure above"),
];

const SERVICE_COMMANDS: &[&str] = &["serve", "submit", "poll", "stats", "stop"];

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut opts = HarnessOptions::default();
    let mut jobs = 0usize;
    let mut out_dir = PathBuf::from("results");
    let mut cache_dir: Option<PathBuf> = None;
    let mut no_persist = false;
    let mut engine: Option<fv_core::ProveEngine> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut gen = GenArgs::default();
    let mut serve = ServeArgs::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => opts.full = true,
            "--engine" => {
                let v = args.next().ok_or("--engine needs a value")?;
                engine = Some(match v.as_str() {
                    "bounded" => fv_core::ProveEngine::Bounded,
                    "pdr" => fv_core::ProveEngine::Pdr,
                    "portfolio" => fv_core::ProveEngine::Portfolio,
                    other => {
                        return Err(format!(
                            "unknown engine '{other}' (known: bounded, pdr, portfolio)"
                        ))
                    }
                });
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| "bad seed".to_string())?;
            }
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a value")?;
                jobs = v.parse().map_err(|_| "bad job count".to_string())?;
            }
            "--out" => {
                out_dir = PathBuf::from(args.next().ok_or("--out needs a value")?);
            }
            "--cache-dir" => {
                cache_dir = Some(PathBuf::from(
                    args.next().ok_or("--cache-dir needs a value")?,
                ));
            }
            "--no-persist" => no_persist = true,
            "--trace-out" => {
                trace_out = Some(PathBuf::from(
                    args.next().ok_or("--trace-out needs a value")?,
                ));
            }
            "--family" => {
                let v = args.next().ok_or("--family needs a value")?;
                if fveval_gen::generator(&v).is_none() {
                    let known: Vec<&str> = fveval_gen::generators()
                        .iter()
                        .map(|g| g.family())
                        .collect();
                    return Err(format!(
                        "unknown family '{v}' (known: {})",
                        known.join(", ")
                    ));
                }
                gen.families.push(v);
            }
            "--count" => {
                let v = args.next().ok_or("--count needs a value")?;
                gen.count = Some(v.parse().map_err(|_| "bad count".to_string())?);
            }
            "--depth" => {
                let v = args.next().ok_or("--depth needs a value")?;
                gen.depth = Some(v.parse().map_err(|_| "bad depth".to_string())?);
            }
            "--width" => {
                let v = args.next().ok_or("--width needs a value")?;
                gen.width = Some(v.parse().map_err(|_| "bad width".to_string())?);
            }
            "--mutations" => {
                let v = args.next().ok_or("--mutations needs a value")?;
                gen.mutations = Some(v.parse().map_err(|_| "bad mutation count".to_string())?);
            }
            "--eval" => gen.eval = true,
            "--addr" => serve.addr = Some(args.next().ok_or("--addr needs a value")?),
            "--shards" => {
                let v = args.next().ok_or("--shards needs a value")?;
                let n: usize = v.parse().map_err(|_| "bad shard count".to_string())?;
                if n == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
                serve.shards = Some(n);
            }
            "--queue-depth" => {
                let v = args.next().ok_or("--queue-depth needs a value")?;
                let n: usize = v.parse().map_err(|_| "bad queue depth".to_string())?;
                if n == 0 {
                    return Err("--queue-depth must be at least 1 (a server that can \
                                accept no jobs serves nothing)"
                        .to_string());
                }
                serve.queue_depth = Some(n);
            }
            "--retain" => {
                let v = args.next().ok_or("--retain needs a value")?;
                let n: usize = v.parse().map_err(|_| "bad retention bound".to_string())?;
                if n == 0 {
                    return Err("--retain must be at least 1 (a server retaining no \
                                finished jobs could never deliver a result)"
                        .to_string());
                }
                serve.retain = Some(n);
            }
            "--set" => {
                let v = args.next().ok_or("--set needs a value")?;
                if !["suite", "human", "machine"].contains(&v.as_str()) {
                    return Err(format!(
                        "unknown task set '{v}' (known: suite, human, machine)"
                    ));
                }
                serve.set = Some(v);
            }
            "--samples" => {
                let v = args.next().ok_or("--samples needs a value")?;
                serve.samples = Some(v.parse().map_err(|_| "bad sample count".to_string())?);
            }
            "--model" => serve
                .models
                .push(args.next().ok_or("--model needs a value")?),
            "--wait" => serve.wait = true,
            "--job" => {
                let v = args.next().ok_or("--job needs a value")?;
                serve.job = Some(v.parse().map_err(|_| "bad job id".to_string())?);
            }
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    // Subcommand-specific flags must not be silently dropped elsewhere.
    let cmd = command.as_str();
    let stray = [
        (
            !gen.families.is_empty() && !["gen", "submit"].contains(&cmd),
            "--family",
        ),
        (
            gen.count.is_some() && !["gen", "submit"].contains(&cmd),
            "--count",
        ),
        (
            gen.depth.is_some() && !["gen", "submit"].contains(&cmd),
            "--depth",
        ),
        (
            gen.width.is_some() && !["gen", "submit"].contains(&cmd),
            "--width",
        ),
        (
            gen.mutations.is_some() && !["gen", "submit"].contains(&cmd),
            "--mutations",
        ),
        (gen.eval && cmd != "gen", "--eval"),
        (
            serve.addr.is_some() && !SERVICE_COMMANDS.contains(&cmd),
            "--addr",
        ),
        (serve.shards.is_some() && cmd != "serve", "--shards"),
        (
            serve.queue_depth.is_some() && cmd != "serve",
            "--queue-depth",
        ),
        (serve.retain.is_some() && cmd != "serve", "--retain"),
        (serve.set.is_some() && cmd != "submit", "--set"),
        (serve.samples.is_some() && cmd != "submit", "--samples"),
        (!serve.models.is_empty() && cmd != "submit", "--model"),
        (serve.wait && !["submit", "poll"].contains(&cmd), "--wait"),
        (serve.job.is_some() && cmd != "poll", "--job"),
        // Engine selection configures a *local* engine: every
        // evaluation command plus `serve`; the thin service clients
        // never prove anything themselves.
        (
            engine.is_some() && SERVICE_COMMANDS.contains(&cmd) && cmd != "serve",
            "--engine",
        ),
        // Tracing instruments the *local* process: every evaluation
        // command, but not the thin service clients (the server has
        // its own `/metrics` surface).
        (
            trace_out.is_some() && SERVICE_COMMANDS.contains(&cmd),
            "--trace-out",
        ),
    ]
    .into_iter()
    .filter_map(|(is_stray, name)| is_stray.then_some(name))
    .collect::<Vec<_>>();
    if !stray.is_empty() {
        return Err(format!(
            "{} does not apply to the '{cmd}' command\n{}",
            stray.join(", "),
            usage()
        ));
    }
    Ok(Args {
        command,
        opts,
        jobs,
        out_dir: out_dir.clone(),
        cache_dir: cache_dir.unwrap_or_else(|| out_dir.join("cache")),
        no_persist,
        engine,
        trace_out,
        gen,
        serve,
    })
}

/// Runs the `gen` subcommand: generate, validate through the prover,
/// export, optionally evaluate.
fn run_gen(args: &Args, engine: &EvalEngine) -> Result<(), String> {
    let started = std::time::Instant::now();
    let cfg = fveval_data::SuiteConfig {
        families: args.gen.families.clone(),
        // --full scales the suite like it scales every other command.
        per_family: args
            .gen
            .count
            .unwrap_or(if args.opts.full { 16 } else { 4 }),
        seed: args.opts.seed,
        depth: args.gen.depth,
        width: args.gen.width,
        mutations: args.gen.mutations.unwrap_or(0),
    };
    let (table, notes, suite, errors) = fveval_harness::gen_report(engine, &cfg, args.gen.eval)?;
    println!("{}", table.to_markdown());
    println!("{notes}");
    let md = format!("{}\n{notes}", table.to_markdown());
    write_out(&args.out_dir, "gen", &md, Some(&table.to_csv()));
    if cfg.mutations > 0 {
        let strata = fveval_harness::difficulty_table(&suite);
        println!("{}", strata.to_markdown());
        write_out(
            &args.out_dir,
            "gen_difficulty",
            &strata.to_markdown(),
            Some(&strata.to_csv()),
        );
    }
    let suite_dir = args.out_dir.join("generated");
    let files = fveval_gen::write_suite(&suite_dir, &suite)
        .map_err(|e| format!("cannot write suite under {}: {e}", suite_dir.display()))?;
    eprintln!(
        "[gen: {} scenarios, {} files under {} in {:.1?}]",
        suite.scenarios.len(),
        files,
        suite_dir.display(),
        started.elapsed()
    );
    if errors > 0 {
        return Err(format!("{errors} golden-verdict mismatch(es)"));
    }
    Ok(())
}

fn addr(args: &Args) -> String {
    args.serve
        .addr
        .clone()
        .unwrap_or_else(|| DEFAULT_ADDR.to_string())
}

/// Runs the persistent evaluation service (blocks until `fveval stop`
/// or `POST /v1/shutdown`).
fn run_serve(args: &Args) -> Result<(), String> {
    let config = ServerConfig {
        addr: addr(args),
        shards: args.serve.shards.unwrap_or(2),
        queue_depth: args.serve.queue_depth.unwrap_or(32),
        engine_jobs: args.jobs,
        cache_dir: (!args.no_persist).then(|| args.cache_dir.clone()),
        retain_finished: args
            .serve
            .retain
            .unwrap_or(fveval_serve::DEFAULT_RETAINED_FINISHED),
        prove_cfg: args.prove_config(),
    };
    let shards = config.shards;
    let server = Server::bind(config)?;
    eprintln!(
        "[serve] listening on {} ({shards} shard(s), {} verdicts preloaded from {})",
        server.local_addr(),
        server.preloaded(),
        if args.no_persist {
            "nowhere; persistence disabled".to_string()
        } else {
            args.cache_dir.display().to_string()
        }
    );
    server.run()?;
    eprintln!("[serve] stopped");
    Ok(())
}

/// Builds the `submit` request from the CLI flags.
fn submit_request(args: &Args) -> EvalRequest {
    let tasks = match args.serve.set.as_deref() {
        Some("human") => TaskSetRef::Human,
        Some("machine") => TaskSetRef::Machine {
            count: args.gen.count.unwrap_or(120),
            seed: args.opts.seed,
        },
        _ => TaskSetRef::Suite {
            families: args.gen.families.clone(),
            per_family: args
                .gen
                .count
                .unwrap_or(if args.opts.full { 16 } else { 4 }),
            seed: args.opts.seed,
            depth: args.gen.depth,
            width: args.gen.width,
            mutations: args.gen.mutations.unwrap_or(0),
        },
    };
    EvalRequest {
        tasks,
        models: args.serve.models.clone(),
        cfg: fveval_llm::InferenceConfig::greedy(),
        samples: args.serve.samples.unwrap_or(1),
    }
}

/// Renders and writes a finished job's evaluation summary.
fn report_result(args: &Args, result: &fveval_serve::EvalResult) {
    let n_tasks = result.models.first().map_or(0, |(_, cases)| cases.len());
    let table = fveval_harness::eval_summary_table(&result.models, n_tasks);
    println!("{}", table.to_markdown());
    write_out(
        &args.out_dir,
        "serve_eval",
        &table.to_markdown(),
        Some(&table.to_csv()),
    );
}

fn run_submit(args: &Args) -> Result<(), String> {
    let client = Client::new(addr(args));
    let request = submit_request(args);
    let id = client.submit(&request)?;
    println!("job {id}");
    if args.serve.wait {
        let view = client.wait(id, WAIT_TIMEOUT)?;
        let result = view
            .result
            .ok_or_else(|| format!("job {id} is done but has no result"))?;
        report_result(args, &result);
    } else {
        eprintln!(
            "[submit] poll with: fveval poll --job {id} --addr {}",
            addr(args)
        );
    }
    Ok(())
}

fn run_poll(args: &Args) -> Result<(), String> {
    let id = args.serve.job.ok_or("poll needs --job ID")?;
    let client = Client::new(addr(args));
    let view = if args.serve.wait {
        client.wait(id, WAIT_TIMEOUT)?
    } else {
        client.job(id)?
    };
    match view.position {
        Some(position) => println!("job {id}: {} (position {position})", view.state.as_str()),
        None => println!("job {id}: {}", view.state.as_str()),
    }
    if let Some(error) = &view.error {
        return Err(format!("job {id} failed: {error}"));
    }
    if let Some(result) = &view.result {
        report_result(args, result);
    }
    Ok(())
}

/// Prints `/v1/stats` as flat `key=value` lines, sorted by key — the
/// output is greppable *and* diffable from CI regardless of how the
/// server happens to order its JSON members.
fn run_stats(args: &Args) -> Result<(), String> {
    let stats = Client::new(addr(args)).stats()?;
    for line in stats.flatten_sorted() {
        println!("{line}");
    }
    Ok(())
}

fn run_stop(args: &Args) -> Result<(), String> {
    Client::new(addr(args)).shutdown()?;
    eprintln!("[stop] server at {} is draining", addr(args));
    Ok(())
}

fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: fveval <{}> [--full] [--seed N] [--jobs N] [--out DIR] \
         [--cache-dir DIR] [--no-persist] [--trace-out FILE] \
         [--engine bounded|pdr|portfolio]\n\
         \x20      fveval gen [--family NAME]... [--count N] [--depth N] \
         [--width N] [--seed N] [--mutations N] [--eval] \
         [--out DIR]\n\
         \x20      fveval serve [--addr A] [--shards N] [--queue-depth N] \
         [--retain N]\n\
         \x20      fveval submit [--addr A] [--set suite|human|machine] \
         [--model NAME]... [--samples N] [--wait]\n\
         \x20      fveval poll --job ID [--addr A] [--wait]\n\
         \x20      fveval stats|stop [--addr A]",
        names.join("|")
    )
}

fn list_commands() -> String {
    let mut out = String::from("Available commands:\n");
    for (name, description) in COMMANDS {
        out.push_str(&format!("  {name:<10} {description}\n"));
    }
    out
}

fn write_out(dir: &Path, name: &str, markdown: &str, csv: Option<&str>) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let md_path = dir.join(format!("{name}.md"));
    if let Err(e) = fveval_gen::write_atomic(&md_path, markdown) {
        eprintln!("warning: cannot write {}: {e}", md_path.display());
    }
    if let Some(csv) = csv {
        let csv_path = dir.join(format!("{name}.csv"));
        if let Err(e) = fveval_gen::write_atomic(&csv_path, csv) {
            eprintln!("warning: cannot write {}: {e}", csv_path.display());
        }
    }
}

fn run_one(
    cmd: &str,
    engine: &EvalEngine,
    opts: &HarnessOptions,
    out_dir: &Path,
) -> Result<(), String> {
    let started = std::time::Instant::now();
    match cmd {
        "table1" => {
            let t = fveval_harness::table1(engine, opts);
            println!("{}", t.to_markdown());
            write_out(out_dir, "table1", &t.to_markdown(), Some(&t.to_csv()));
        }
        "table2" => {
            let t = fveval_harness::table2(engine, opts);
            println!("{}", t.to_markdown());
            write_out(out_dir, "table2", &t.to_markdown(), Some(&t.to_csv()));
        }
        "table3" => {
            let t = fveval_harness::table3(engine, opts);
            println!("{}", t.to_markdown());
            write_out(out_dir, "table3", &t.to_markdown(), Some(&t.to_csv()));
        }
        "table4" => {
            let t = fveval_harness::table4(engine, opts);
            println!("{}", t.to_markdown());
            write_out(out_dir, "table4", &t.to_markdown(), Some(&t.to_csv()));
        }
        "table5" => {
            let t = fveval_harness::table5(engine, opts);
            println!("{}", t.to_markdown());
            write_out(out_dir, "table5", &t.to_markdown(), Some(&t.to_csv()));
        }
        "table6" => {
            let t = fveval_harness::table6();
            println!("{}", t.to_markdown());
            write_out(out_dir, "table6", &t.to_markdown(), Some(&t.to_csv()));
        }
        "figure2" => {
            let s = fveval_harness::figure2();
            println!("{s}");
            write_out(out_dir, "figure2", &s, None);
        }
        "figure3" => {
            let s = fveval_harness::figure3(opts);
            println!("{s}");
            write_out(out_dir, "figure3", &s, None);
        }
        "figure4" => {
            let s = fveval_harness::figure4(opts);
            println!("{s}");
            write_out(out_dir, "figure4", &s, None);
        }
        "figure6" => {
            let (t, notes) = fveval_harness::figure6(engine, opts);
            println!("{}", t.to_markdown());
            println!("{notes}");
            let md = format!("{}\n{notes}", t.to_markdown());
            write_out(out_dir, "figure6", &md, Some(&t.to_csv()));
        }
        "showcase" => {
            let s = fveval_harness::showcase(engine, opts);
            println!("{s}");
            write_out(out_dir, "showcase", &s, None);
        }
        "validate" => {
            let (report, errors) = fveval_harness::validate(opts);
            println!("{report}");
            write_out(out_dir, "validate", &report, None);
            if errors > 0 {
                return Err(format!("{errors} validation error(s)"));
            }
        }
        "list" => {
            println!("{}", list_commands());
            return Ok(());
        }
        other => return Err(format!("unknown command '{other}'\n{}", usage())),
    }
    eprintln!("[{cmd} finished in {:.1?}]", started.elapsed());
    Ok(())
}

/// Opens the persistent verdict store and preloads the engine from it;
/// `None` when persistence is disabled or the store is unreadable
/// (warn, don't fail — a broken cache must never break a run).
fn open_store(args: &Args, engine: &EvalEngine) -> Option<VerdictStore> {
    if args.no_persist {
        return None;
    }
    match VerdictStore::open(&args.cache_dir) {
        Ok(store) => {
            let loaded = engine.load_verdicts(store.records());
            if loaded > 0 {
                eprintln!(
                    "[cache: {} verdicts preloaded from {}]",
                    loaded,
                    args.cache_dir.display()
                );
            }
            Some(store)
        }
        Err(e) => {
            eprintln!(
                "warning: persistent cache disabled ({}: {e})",
                args.cache_dir.display()
            );
            None
        }
    }
}

/// Flushes newly computed verdicts to the store and bounds its
/// fragmentation.
fn flush_store(store: &mut VerdictStore, engine: &EvalEngine) {
    let fresh = engine.take_unpersisted();
    let _span = fv_trace::span!("store.flush", records = fresh.len());
    if let Err(e) = store.append(&fresh) {
        eprintln!("warning: cannot flush verdict store: {e}");
        return;
    }
    if let Err(e) = store.compact_if_fragmented() {
        eprintln!("warning: cannot compact verdict store: {e}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace_out.is_some() {
        // Spans are a pure side channel: enabling them must never
        // change a byte of any results/ table — only add the trace
        // artifact and slow_checks.md. No CLI command reads the span
        // histograms, so timing stays off.
        fv_trace::set_spans_enabled(true);
    }
    if SERVICE_COMMANDS.contains(&args.command.as_str()) {
        let outcome = match args.command.as_str() {
            "serve" => run_serve(&args),
            "submit" => run_submit(&args),
            "poll" => run_poll(&args),
            "stats" => run_stats(&args),
            _ => run_stop(&args),
        };
        return match outcome {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let engine = EvalEngine::with_jobs(args.jobs).with_prove_config(args.prove_config());
    let mut store = if args.command == "list" {
        None
    } else {
        open_store(&args, &engine)
    };
    let commands: Vec<&str> = if args.command == "run-all" {
        vec![
            "table1", "table2", "table3", "table4", "table5", "table6", "figure2", "figure3",
            "figure4", "figure6", "showcase",
        ]
    } else {
        vec![args.command.as_str()]
    };
    let mut failed = false;
    for cmd in commands {
        let outcome = if cmd == "gen" {
            run_gen(&args, &engine)
        } else {
            run_one(cmd, &engine, &args.opts, &args.out_dir)
        };
        if let Err(e) = outcome {
            eprintln!("{e}");
            failed = true;
            break;
        }
    }
    // Settled verdicts are persisted even when a later command failed:
    // they are valid, and the next run should not redo the work.
    if let Some(store) = store.as_mut() {
        flush_store(store, &engine);
    }
    // The trace is written even for failed runs — that is when the
    // span tree is most useful.
    let spans = args.trace_out.as_ref().map(|path| {
        let spans = fv_trace::take_spans();
        write_trace(path, &spans);
        spans
    });
    if failed {
        return ExitCode::FAILURE;
    }
    if let Some(spans) = &spans {
        write_slow_checks(&args.out_dir, spans);
    }
    let stats = engine.cache_stats();
    if stats.hits + stats.persisted_hits + stats.misses > 0 {
        eprintln!(
            "[engine: {} jobs | verdict cache: {} hits, {} persisted hits, \
             {} misses, {} entries]",
            engine.jobs(),
            stats.hits,
            stats.persisted_hits,
            stats.misses,
            stats.entries
        );
    }
    let prover = engine.prover_stats();
    if prover.queries() > 0 {
        let counts: Vec<String> = prover
            .counters()
            .map(|(counter, value)| format!("{}={value}", counter.key))
            .collect();
        eprintln!(
            "[prover: queries={} {}]",
            prover.queries(),
            counts.join(" ")
        );
    }
    if prover.queries() > 0 || stats.hits + stats.persisted_hits + stats.misses > 0 {
        let t = prover_stats_table(&prover, &stats);
        write_out(
            &args.out_dir,
            "prover_stats",
            &t.to_markdown(),
            Some(&t.to_csv()),
        );
    }
    ExitCode::SUCCESS
}

/// Writes the collected span tree as a Chrome-trace JSON file (loads
/// in `chrome://tracing` and Perfetto) — the `--trace-out` artifact.
fn write_trace(path: &Path, spans: &[SpanRecord]) {
    let json = fv_trace::chrome::render(spans);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match fveval_gen::write_atomic(path, &json) {
        Ok(()) => eprintln!(
            "[trace: {} spans written to {}]",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("warning: cannot write trace {}: {e}", path.display()),
    }
}

/// The run's slowest scored checks: every `engine.score` span whose
/// parent is an `engine.case` span (the engine's scored cache misses),
/// as its duration and that case span. Slowest first with ties by case
/// id, at most [`SLOW_CHECKS_CAP`].
fn slowest_checks(spans: &[SpanRecord]) -> Vec<(u64, &SpanRecord)> {
    let cases: HashMap<u64, &SpanRecord> = spans
        .iter()
        .filter(|span| span.name == "engine.case")
        .map(|span| (span.id, span))
        .collect();
    let mut checks: Vec<(u64, &SpanRecord)> = spans
        .iter()
        .filter(|span| span.name == "engine.score")
        .filter_map(|span| Some((span.dur_us, *cases.get(&span.parent?)?)))
        .collect();
    checks.sort_by_key(|&(dur_us, case)| (Reverse(dur_us), case.str_attr("task")));
    checks.truncate(SLOW_CHECKS_CAP);
    checks
}

/// Writes `slow_checks.md` (under `--trace-out`): the run's slowest
/// prover-backed checks with task-kind and mutation-tag attribution,
/// read off the trace's spans. This is a timing side channel — ranks
/// and milliseconds vary run to run, so the file is never part of the
/// byte-compared result tables.
fn write_slow_checks(dir: &Path, spans: &[SpanRecord]) {
    let slow = slowest_checks(spans);
    if slow.is_empty() {
        return;
    }
    let mut md = String::from(
        "# Slowest prover checks (this run)\n\n\
         Timing attribution for the scored cache-miss checks; see the\n\
         Observability section of ARCHITECTURE.md. Not byte-stable.\n\n\
         | Rank | Case | Task | Mutation | ms |\n\
         |---:|---|---|---|---:|\n",
    );
    for (rank, (dur_us, case)) in slow.iter().enumerate() {
        let attr = |key| case.str_attr(key).unwrap_or("—");
        md.push_str(&format!(
            "| {} | {} | {} | {} | {:.1} |\n",
            rank + 1,
            attr("task"),
            attr("kind"),
            attr("mutation"),
            *dur_us as f64 / 1000.0
        ));
    }
    write_out(dir, "slow_checks", &md, None);
}

/// Renders the run's formal-core work summary: one row of counters
/// describing how verdicts were produced (see the README's *Prover
/// statistics* table). The columns are `Queries`, then every
/// `ProverStats` counter in declaration order, with the three
/// verdict-cache columns once, right after the last cache-group
/// counter.
fn prover_stats_table(
    prover: &fveval_core::ProverStats,
    cache: &fveval_core::CacheStats,
) -> fveval_core::Table {
    let mut columns = vec![("Queries", prover.queries())];
    let mut cache_at = None;
    for (counter, value) in prover.counters() {
        columns.push((counter.header, value));
        if counter.group == fv_core::CounterGroup::Cache {
            cache_at = Some(columns.len());
        }
    }
    let at = cache_at.unwrap_or(columns.len());
    columns.splice(
        at..at,
        [
            ("Verdict-cache hits", cache.hits),
            ("Persisted hits", cache.persisted_hits),
            ("Cache misses", cache.misses),
        ],
    );
    let headers: Vec<&str> = columns.iter().map(|&(header, _)| header).collect();
    let mut t = fveval_core::Table::new("Prover statistics (this run)", &headers);
    t.push_row(columns.iter().map(|(_, value)| value.to_string().into()));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            tid: 1,
            start_us: 0,
            dur_us,
            attrs: Vec::new(),
        }
    }

    /// The case span `i`'s kind and mutation tag.
    fn case_attrs(i: u64) -> (&'static str, Option<&'static str>) {
        let kind = ["nl2sva-human", "nl2sva-machine", "design2sva"][i as usize % 3];
        let mutation = (kind != "design2sva" && i.is_multiple_of(4)).then_some("opswap");
        (kind, mutation)
    }

    #[test]
    fn slowest_checks_rank_scored_spans_under_their_cases() {
        let mut spans = Vec::new();
        for i in 1..=40u64 {
            spans.push(span(100 + i, Some(i), "engine.score", (i % 10) * 1000));
            let (kind, mutation) = case_attrs(i);
            let mut case = span(i, None, "engine.case", 50_000);
            case.attrs = vec![
                ("task", format!("case_{i:02}").into()),
                ("kind", kind.into()),
            ];
            case.attrs
                .extend(mutation.map(|tag| ("mutation", tag.into())));
            spans.push(case);
        }
        // Neither a one-shot score outside any case nor another span
        // under a case is a row, however slow.
        spans.push(span(500, None, "engine.score", 9_000_000));
        spans.push(span(501, Some(1), "sat.solve", 8_000_000));

        let rows = slowest_checks(&spans);
        assert_eq!(rows.len(), SLOW_CHECKS_CAP);
        let ranked: Vec<(u64, &str)> = rows
            .iter()
            .map(|&(dur_us, case)| (dur_us, case.str_attr("task").unwrap()))
            .collect();
        assert_eq!(ranked[0], (9000, "case_09"));
        for pair in ranked.windows(2) {
            assert!(pair[0].0 > pair[1].0 || (pair[0].0 == pair[1].0 && pair[0].1 < pair[1].1));
        }
        assert!(rows
            .iter()
            .any(|(_, case)| case.str_attr("mutation").is_some()));
        for (dur_us, case) in rows {
            assert!(dur_us < 10_000, "only engine.score under a case");
            let (kind, mutation) = case_attrs(case.id);
            assert_eq!(case.str_attr("kind"), Some(kind));
            assert_eq!(case.str_attr("mutation"), mutation);
        }
    }

    #[test]
    fn prover_stats_columns_keep_their_order() {
        let cache = fveval_core::CacheStats {
            hits: 1,
            persisted_hits: 2,
            misses: 3,
            entries: 4,
        };
        let t = prover_stats_table(&Default::default(), &cache);
        assert_eq!(
            t.headers,
            [
                "Queries",
                "SAT calls",
                "Solver reuse hits",
                "Sim kills",
                "Step sim kills",
                "Ternary kills",
                "Sessions opened",
                "Assertions checked",
                "Check repeats",
                "Unroll reuse hits",
                "Digest reuse",
                "Verdict-cache hits",
                "Persisted hits",
                "Cache misses",
                "PDR frames",
                "PDR clauses",
                "PDR wins",
            ]
        );
        let row = &t.rows[0];
        assert_eq!(row.len(), 17);
        let cache_cells: [fveval_core::TableCell; 3] = ["1".into(), "2".into(), "3".into()];
        assert_eq!(
            row[11..14],
            cache_cells,
            "cache columns follow Digest reuse"
        );
    }
}
