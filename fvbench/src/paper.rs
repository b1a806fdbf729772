//! `paper-tables`: Tables 1–5, Figure 6 and the showcase at paper
//! scale, as `fveval run-all --full --no-persist --jobs 2` computes
//! them, on one cold two-worker `EvalEngine` per pass.
//!
//! A pass calls the harness functions the CLI runs
//! (`fveval_harness::{table1..table5, figure6, showcase}`), each of
//! which rebuilds its own inputs, so a change anywhere under them shows
//! here. Every pass's artifacts are compared with the reference digests
//! `records.json` holds for its dataset seed: those of the files the
//! CLI writes for that seed.
//!
//! The traced run replays the same work sequentially, in engine order,
//! through the public entry points of each layer and times every call
//! (see [`Traced`]); its artifacts must equal those of a harness pass
//! of the same seed, byte for byte.

use crate::layers::Layers;
use crate::measure;
use crate::{records, Report};
use fv_core::{EquivConfig, EquivSession, ProofSession, ProveConfig, ProveResult, SignalTable};
use fveval_core::{
    design_task_specs, human_task_specs, machine_task_specs, CaseEvals, EvalEngine, MetricSummary,
    SampleEval, Table, TableCell,
};
use fveval_data::DesignCase;
use fveval_harness::{model_by_name, HarnessOptions};
use fveval_llm::{profiles, Backend, InferenceConfig, Request, SimulatedModel, TaskSpec};
use std::collections::HashMap;
use std::process::{Command, Stdio};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Engine workers, as `--jobs 2`: one per CPU of a 2-CPU machine.
const WORKERS: usize = 2;
/// Paper scale, as `HarnessOptions { full: true }` sets it.
const MACHINE_CASES: usize = 300;
const DESIGNS: usize = 96;
const SAMPLES: u32 = 10;

fn options(data_seed: u64) -> HarnessOptions {
    HarnessOptions {
        full: true,
        seed: data_seed,
    }
}

/// One pass through the harness: every artifact as `(file, bytes)`,
/// as `fveval run-all` writes them under `results/`.
fn harness_pass(engine: &EvalEngine, opts: &HarnessOptions) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    for (md, csv, t) in [
        (
            "table1.md",
            "table1.csv",
            fveval_harness::table1(engine, opts),
        ),
        (
            "table2.md",
            "table2.csv",
            fveval_harness::table2(engine, opts),
        ),
        (
            "table3.md",
            "table3.csv",
            fveval_harness::table3(engine, opts),
        ),
        (
            "table4.md",
            "table4.csv",
            fveval_harness::table4(engine, opts),
        ),
        (
            "table5.md",
            "table5.csv",
            fveval_harness::table5(engine, opts),
        ),
    ] {
        out.push((md, t.to_markdown()));
        out.push((csv, t.to_csv()));
    }
    let (t, notes) = fveval_harness::figure6(engine, opts);
    out.push(("figure6.md", format!("{}\n{notes}", t.to_markdown())));
    out.push(("figure6.csv", t.to_csv()));
    out.push(("showcase.md", fveval_harness::showcase(engine, opts)));
    out
}

/// Signal tables of the shipped testbenches, each constructor timed.
fn human_tables(l: &mut Layers) -> HashMap<&'static str, SignalTable> {
    let tbs = l.time("fveval-data.build_s", fveval_data::testbenches);
    tbs.iter()
        .map(|tb| {
            let table = l
                .time("fveval-data.build_s", || fveval_data::signal_table_for(tb))
                .expect("shipped testbenches elaborate");
            (tb.name, table)
        })
        .collect()
}

/// The human set as an engine work-list, as the harness builds it.
fn human_tasks(l: &mut Layers) -> Vec<Arc<TaskSpec>> {
    let cases = l.time("fveval-data.build_s", fveval_data::human_cases);
    l.count("fveval-data.cases", cases.len() as u64);
    human_task_specs(&cases, &human_tables(l))
}

fn machine_tasks(seed: u64, l: &mut Layers) -> Vec<Arc<TaskSpec>> {
    let cases = l.time("fveval-data.build_s", || {
        fveval_data::generate_machine_cases(fveval_data::MachineGenConfig {
            count: MACHINE_CASES,
            seed,
            ..Default::default()
        })
    });
    l.count("fveval-data.cases", cases.len() as u64);
    let table = l.time("fveval-data.build_s", fveval_data::machine_signal_table);
    machine_task_specs(&cases, &table)
}

fn fsm_sweep(count: usize, seed: u64, l: &mut Layers) -> Vec<DesignCase> {
    let cases = l.time("fveval-data.build_s", || {
        fveval_data::fsm_sweep(count, seed)
    });
    l.count("fveval-data.cases", cases.len() as u64);
    cases
}

/// The two Design2SVA sweeps: `(pipelines, fsms)`.
fn design_tasks(seed: u64, l: &mut Layers) -> (Vec<Arc<TaskSpec>>, Vec<Arc<TaskSpec>>) {
    let pipes = l.time("fveval-data.build_s", || {
        fveval_data::pipeline_sweep(DESIGNS, seed)
    });
    l.count("fveval-data.cases", pipes.len() as u64);
    let fsms = fsm_sweep(DESIGNS, seed.wrapping_add(1), l);
    (design_task_specs(&pipes), design_task_specs(&fsms))
}

/// One set-up: every input the passes of the run read, for each
/// dataset of its pool, built through the `fveval-data` constructors
/// the harness calls on as many threads as the engine has workers, and
/// the cold engine of the next pass. Returns the engine and the time it
/// all took.
fn setup(pool: &[u64]) -> (EvalEngine, f64) {
    let build = |datasets: &[u64]| {
        let mut l = Layers::default();
        let inputs: Vec<_> = datasets
            .iter()
            .map(|&ds| {
                (
                    human_tasks(&mut l),
                    machine_tasks(ds, &mut l),
                    design_tasks(ds, &mut l),
                    fsm_sweep(1, ds, &mut l),
                )
            })
            .collect();
        std::hint::black_box(inputs);
    };
    let started = Instant::now();
    std::thread::scope(|scope| {
        let share = pool.len().div_ceil(WORKERS);
        for part in pool.chunks(share) {
            scope.spawn(move || build(part));
        }
    });
    let engine = EvalEngine::with_jobs(WORKERS);
    (engine, started.elapsed().as_secs_f64())
}

fn as_backends(models: &[SimulatedModel]) -> Vec<&dyn Backend> {
    models.iter().map(|m| m as &dyn Backend).collect()
}

fn models_by_name(names: &[&str]) -> Vec<SimulatedModel> {
    names.iter().map(|n| model_by_name(n)).collect()
}

/// Which sample outcome a pass@k column counts.
type Outcome = fn(&SampleEval) -> bool;

const PK_HEADERS: [&str; 6] = [
    "Model",
    "Syntax@5",
    "Func.@3",
    "Func.@5",
    "Partial.@3",
    "Partial.@5",
];

const PK: [(u32, Outcome); 5] = [
    (5, |s| s.syntax),
    (3, |s| s.func),
    (5, |s| s.func),
    (3, |s| s.partial),
    (5, |s| s.partial),
];

fn pass_at_k_table(title: String, models: &[SimulatedModel], rows: &[Vec<CaseEvals>]) -> Table {
    let mut t = Table::new(title, &PK_HEADERS);
    for (model, evals) in models.iter().zip(rows) {
        let mut row: Vec<TableCell> = vec![model.name().into()];
        row.extend(
            PK.iter()
                .map(|&(k, f)| MetricSummary::mean_pass_at_k(evals, k, f).into()),
        );
        t.push_row(row);
    }
    t
}

type VerdictKey = (String, String, u64, String, u32);

/// One backend's samples of a case group: cached or scored verdicts,
/// and the `(sample, response)` pairs still to score.
type Prepared = (Vec<Option<SampleEval>>, Vec<(u32, String)>);

/// A design compiled the way `fveval_core::compile_design` does it.
struct Compiled {
    design: sv_synth::ElaboratedDesign,
    consts: Vec<(String, u32, u128)>,
}

/// The harness pass replayed sequentially through each layer's public
/// entry points: the per-table input builds, and the engine's
/// work-list in engine order with its verdict and compiled-design
/// caches reproduced, so the same work is done in the same order.
pub struct Traced {
    pub layers: Layers,
    verdicts: HashMap<VerdictKey, SampleEval>,
    compiled: HashMap<(String, u64), Rc<Result<Compiled, String>>>,
    prove_cfg: ProveConfig,
}

enum NlScorer<'t> {
    BadReference,
    Open(Box<EquivSession<'t>>),
}

struct DesignScorer<'c> {
    compiled: &'c Compiled,
    session: Option<Box<ProofSession<'c>>>,
}

enum Scorer<'s> {
    Nl(NlScorer<'s>, &'s str),
    Design(DesignScorer<'s>),
}

impl Traced {
    fn new() -> Traced {
        Traced {
            layers: Layers::default(),
            verdicts: HashMap::new(),
            compiled: HashMap::new(),
            prove_cfg: ProveConfig::default(),
        }
    }

    /// The harness pass of `seed`, table by table.
    fn pass(&mut self, seed: u64) -> Vec<(&'static str, String)> {
        let mut out = Vec::new();
        let mut emit = |md: &'static str, csv: &'static str, t: &Table| {
            out.push((md, t.to_markdown()));
            out.push((csv, t.to_csv()));
        };
        let n = SAMPLES.max(5);
        let top = ["gpt-4o", "gemini-1.5-flash", "llama-3.1-70b"];

        // Table 1.
        let tasks = human_tasks(&mut self.layers);
        let models = profiles();
        let mut t = Table::new(
            "Table 1: NL2SVA-Human (zero-shot, greedy)",
            &["Model", "Syntax", "Func.", "Partial Func.", "BLEU"],
        );
        let rows = self.run_matrix(&as_backends(&models), &tasks, &InferenceConfig::greedy(), 1);
        for (model, evals) in models.iter().zip(&rows) {
            let s = MetricSummary::from_first_samples(evals);
            t.push_row([
                model.name().into(),
                s.syntax.into(),
                s.func.into(),
                s.partial.into(),
                s.bleu.into(),
            ]);
        }
        emit("table1.md", "table1.csv", &t);

        // Table 2.
        let tasks = human_tasks(&mut self.layers);
        let models = models_by_name(&top);
        let rows = self.run_matrix(
            &as_backends(&models),
            &tasks,
            &InferenceConfig::sampling(),
            n,
        );
        let t = pass_at_k_table(
            format!("Table 2: NL2SVA-Human pass@k (n={n}, T=0.8)"),
            &models,
            &rows,
        );
        emit("table2.md", "table2.csv", &t);

        // Table 3.
        let tasks = machine_tasks(seed, &mut self.layers);
        let models = profiles();
        let backends = as_backends(&models);
        let mut t = Table::new(
            format!("Table 3: NL2SVA-Machine ({} cases)", tasks.len()),
            &[
                "Model",
                "0-shot Syntax",
                "0-shot Func.",
                "0-shot Partial",
                "0-shot BLEU",
                "3-shot Syntax",
                "3-shot Func.",
                "3-shot Partial",
                "3-shot BLEU",
            ],
        );
        let r0 = self.run_matrix(&backends, &tasks, &InferenceConfig::greedy(), 1);
        let r3 = self.run_matrix(
            &backends,
            &tasks,
            &InferenceConfig::greedy().with_shots(3),
            1,
        );
        for ((model, e0), e3) in models.iter().zip(&r0).zip(&r3) {
            let s0 = MetricSummary::from_first_samples(e0);
            let s3 = MetricSummary::from_first_samples(e3);
            t.push_row([
                model.name().into(),
                s0.syntax.into(),
                s0.func.into(),
                s0.partial.into(),
                s0.bleu.into(),
                s3.syntax.into(),
                s3.func.into(),
                s3.partial.into(),
                s3.bleu.into(),
            ]);
        }
        emit("table3.md", "table3.csv", &t);

        // Table 4.
        let tasks = machine_tasks(seed, &mut self.layers);
        let models = models_by_name(&top);
        let cfg = InferenceConfig::sampling().with_shots(3);
        let rows = self.run_matrix(&as_backends(&models), &tasks, &cfg, n);
        let t = pass_at_k_table(
            format!("Table 4: NL2SVA-Machine pass@k (n={n}, 3-shot, top-p 0.95, T=0.8)"),
            &models,
            &rows,
        );
        emit("table4.md", "table4.csv", &t);

        // Table 5.
        let (pipelines, fsms) = design_tasks(seed, &mut self.layers);
        let models: Vec<SimulatedModel> = profiles()
            .into_iter()
            .filter(|m| m.profile().supports_design2sva)
            .collect();
        let backends = as_backends(&models);
        let mut t = Table::new(
            format!("Table 5: Design2SVA ({DESIGNS} designs per category, n={n})"),
            &[
                "Model",
                "Pipe Syntax@1",
                "Pipe Syntax@5",
                "Pipe Func.@1",
                "Pipe Func.@5",
                "FSM Syntax@1",
                "FSM Syntax@5",
                "FSM Func.@1",
                "FSM Func.@5",
            ],
        );
        let cfg = InferenceConfig::sampling();
        let rp = self.run_matrix(&backends, &pipelines, &cfg, n);
        let rf = self.run_matrix(&backends, &fsms, &cfg, n);
        for ((model, ep), ef) in models.iter().zip(&rp).zip(&rf) {
            t.push_row([
                model.name().into(),
                MetricSummary::mean_pass_at_k(ep, 1, |s| s.syntax).into(),
                MetricSummary::mean_pass_at_k(ep, 5, |s| s.syntax).into(),
                MetricSummary::mean_pass_at_k(ep, 1, |s| s.func).into(),
                MetricSummary::mean_pass_at_k(ep, 5, |s| s.func).into(),
                MetricSummary::mean_pass_at_k(ef, 1, |s| s.syntax).into(),
                MetricSummary::mean_pass_at_k(ef, 5, |s| s.syntax).into(),
                MetricSummary::mean_pass_at_k(ef, 1, |s| s.func).into(),
                MetricSummary::mean_pass_at_k(ef, 5, |s| s.func).into(),
            ]);
        }
        emit("table5.md", "table5.csv", &t);

        // Figure 6.
        let tasks = human_tasks(&mut self.layers);
        let models = models_by_name(&["gpt-4o", "llama-3.1-70b"]);
        let mut t = Table::new(
            "Figure 6: correlation between Func. and BLEU (NL2SVA-Human)",
            &[
                "Model",
                "Pearson r",
                "Mean BLEU | func",
                "Mean BLEU | !func",
            ],
        );
        let mut notes = String::new();
        let rows = self.run_matrix(&as_backends(&models), &tasks, &InferenceConfig::greedy(), 1);
        for (model, evals) in models.iter().zip(&rows) {
            let name = model.name();
            let bleus: Vec<f64> = evals.iter().map(|c| c.samples[0].bleu).collect();
            let funcs: Vec<f64> = evals
                .iter()
                .map(|c| f64::from(u8::from(c.samples[0].func)))
                .collect();
            let r = fveval_core::pearson(&bleus, &funcs);
            let mean = |pred: bool| {
                let xs: Vec<f64> = evals
                    .iter()
                    .filter(|c| c.samples[0].func == pred)
                    .map(|c| c.samples[0].bleu)
                    .collect();
                if xs.is_empty() {
                    0.0
                } else {
                    xs.iter().sum::<f64>() / xs.len() as f64
                }
            };
            t.push_row([name.into(), r.into(), mean(true).into(), mean(false).into()]);
            notes.push_str(&format!(
                "{name}: corr(BLEU, Func) = {r:.4} over {} cases\n",
                evals.len()
            ));
        }
        out.push(("figure6.md", format!("{}\n{notes}", t.to_markdown())));
        out.push(("figure6.csv", t.to_csv()));

        let showcase = self.showcase(seed);
        out.push(("showcase.md", showcase));
        out
    }

    /// Figures 7–9, as `fveval_harness::showcase` renders them.
    fn showcase(&mut self, seed: u64) -> String {
        let pass_str = |b: bool| if b { "pass" } else { "fail" };
        let tables = human_tables(&mut self.layers);
        let cases = self
            .layers
            .time("fveval-data.build_s", fveval_data::human_cases);
        self.layers.count("fveval-data.cases", cases.len() as u64);
        let case = cases
            .iter()
            .find(|c| c.id == "fifo_1r1w_bypass_4")
            .expect("showcase case exists");
        let mut out = format!(
            "== NL2SVA-Human showcase: {} ==\nQuestion: {}\nReference: {}\n\n",
            case.id, case.question, case.reference
        );
        let task = Arc::new(TaskSpec::Nl2svaHuman {
            case: case.clone(),
            table: Arc::new(tables[case.testbench.as_str()].clone()),
        });
        for name in ["gpt-4o", "llama-3.1-70b", "llama-3-8b"] {
            let resp = self.generate(
                &model_by_name(name),
                &Request {
                    task: Arc::clone(&task),
                    cfg: InferenceConfig::greedy(),
                    sample_idx: 0,
                },
            );
            let eval = self.score(&task, &resp);
            out.push_str(&format!(
                "{name}:\n{resp}\nSyntax: {} | Functionality: {}\n\n",
                pass_str(eval.syntax),
                if eval.func {
                    "pass"
                } else if eval.partial {
                    "partial pass"
                } else {
                    "fail"
                }
            ));
        }
        let fsm = fsm_sweep(1, seed, &mut self.layers).swap_remove(0);
        out.push_str(&format!(
            "== Design2SVA showcase: {} ==\n(design RTL omitted; {} states)\n\n",
            fsm.id,
            match &fsm.kind {
                fveval_data::DesignKind::Fsm { n_states, .. } => *n_states,
                _ => 0,
            }
        ));
        let task = Arc::new(TaskSpec::Design2sva { case: fsm });
        let model = model_by_name("gpt-4o");
        for attempt in 0..2 {
            let resp = self.generate(
                &model,
                &Request {
                    task: Arc::clone(&task),
                    cfg: InferenceConfig::sampling(),
                    sample_idx: attempt,
                },
            );
            let eval = self.score(&task, &resp);
            out.push_str(&format!(
                "gpt-4o | Attempt {}:\n{resp}\nSyntax: {} | Functionality (is proven): {}\n\n",
                attempt + 1,
                pass_str(eval.syntax),
                pass_str(eval.func)
            ));
        }
        out
    }

    fn lookup(&mut self, key: &VerdictKey) -> Option<SampleEval> {
        let found = self.verdicts.get(key).copied();
        let name = if found.is_some() {
            "fveval-core.verdict_hits"
        } else {
            "fveval-core.verdict_misses"
        };
        self.layers.count(name, 1);
        found
    }

    fn parse<T, E>(&mut self, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let out = self.layers.time("sv-parser.parse_s", f);
        self.layers.count("sv-parser.parses", 1);
        if out.is_err() {
            self.layers.count("sv-parser.errors", 1);
        }
        out
    }

    fn compile(&mut self, case: &DesignCase) -> Result<Compiled, String> {
        let mut src = String::with_capacity(case.design_source.len() + case.tb_source.len() + 1);
        src.push_str(&case.design_source);
        src.push('\n');
        src.push_str(&case.tb_source);
        let file = self
            .parse(|| sv_parser::parse_source(&src))
            .map_err(|e| e.to_string())?;
        let design = file
            .module(&case.top)
            .ok_or_else(|| format!("missing design module {}", case.top))?;
        let conns: Vec<(String, sv_ast::Expr)> = design
            .port_order
            .iter()
            .map(|p| (p.clone(), sv_ast::Expr::ident(p.clone())))
            .collect();
        let dut = sv_ast::ModuleItem::Instance(sv_ast::Instance {
            module: case.top.clone(),
            name: "dut".into(),
            params: vec![],
            conns,
        });
        let design = self.layers.time("sv-synth.elaborate_s", || {
            sv_synth::elaborate_design(&file, &case.tb_top, std::slice::from_ref(&dut))
        });
        self.layers.count("sv-synth.elaborations", 1);
        let design = design.map_err(|e| e.to_string())?;
        let consts = design
            .params()
            .iter()
            .map(|(n, v)| (n.clone(), 32u32, *v))
            .collect();
        Ok(Compiled { design, consts })
    }

    fn compiled_design(&mut self, case: &DesignCase, digest: u64) -> Rc<Result<Compiled, String>> {
        let key = (case.id.clone(), digest);
        if let Some(hit) = self.compiled.get(&key) {
            let hit = Rc::clone(hit);
            self.layers.count("fveval-core.digest_reuse", 1);
            return hit;
        }
        let built = Rc::new(self.compile(case));
        self.compiled.insert(key, Rc::clone(&built));
        built
    }

    fn open_nl<'t>(&mut self, reference: &str, table: &'t SignalTable) -> NlScorer<'t> {
        match self.parse(|| sv_parser::parse_assertion_str(reference)) {
            Ok(reference) => {
                let (session, _) = self.layers.time_solving("fv-core.open_s", || {
                    EquivSession::open(reference, table, EquivConfig::default())
                });
                NlScorer::Open(Box::new(session))
            }
            Err(_) => NlScorer::BadReference,
        }
    }

    fn check_done(&mut self, stats: &fv_core::ProverStats, wall: f64) {
        self.layers.prover(stats);
        self.layers.check_us.push(wall * 1e6);
    }

    fn score_nl(
        &mut self,
        scorer: &mut NlScorer<'_>,
        reference: &str,
        response: &str,
    ) -> SampleEval {
        let NlScorer::Open(equiv) = scorer else {
            return SampleEval::failed();
        };
        let bleu = |l: &mut Layers| {
            l.time("fveval-core.bleu_s", || {
                fveval_core::bleu(reference, response)
            })
        };
        let candidate = match self.parse(|| sv_parser::parse_assertion_str(response)) {
            Ok(a) => a,
            Err(_) => {
                return SampleEval {
                    bleu: bleu(&mut self.layers),
                    ..SampleEval::failed()
                }
            }
        };
        let b = bleu(&mut self.layers);
        let before = equiv.stats();
        let (out, wall) = self
            .layers
            .time_solving("fv-core.check_s", || equiv.check(&candidate));
        match out {
            Err(_) => {
                self.check_done(&equiv.stats().delta_since(&before), wall);
                SampleEval {
                    syntax: false,
                    func: false,
                    partial: false,
                    bleu: b,
                }
            }
            Ok(out) => {
                self.check_done(&out.stats, wall);
                SampleEval {
                    syntax: true,
                    func: out.verdict.is_equivalent(),
                    partial: out.verdict.is_partial(),
                    bleu: b,
                }
            }
        }
    }

    fn score_design(&mut self, scorer: &mut DesignScorer<'_>, response: &str) -> SampleEval {
        let items = match self.parse(|| sv_parser::parse_snippet(response)) {
            Ok(items) => items,
            Err(_) => return SampleEval::failed(),
        };
        let mut helpers = Vec::new();
        let mut assertion = None;
        for item in items {
            match item {
                sv_ast::ModuleItem::Assertion(a) => {
                    if assertion.is_none() {
                        assertion = Some(a);
                    }
                }
                other => helpers.push(other),
            }
        }
        let Some(assertion) = assertion else {
            return SampleEval::failed();
        };
        let verdict = |result: &ProveResult, l: &mut Layers| {
            if matches!(result, ProveResult::Undetermined) {
                l.count("fv-core.undetermined", 1);
            }
            let proven = result.is_proven();
            SampleEval {
                syntax: true,
                func: proven,
                partial: proven,
                bleu: 0.0,
            }
        };
        let cfg = self.prove_cfg;
        let compiled = scorer.compiled;
        if helpers.is_empty() {
            if scorer.session.is_none() {
                let (open, _) = self.layers.time_solving("fv-core.open_s", || {
                    ProofSession::open(compiled.design.netlist(), &compiled.consts, cfg)
                });
                match open {
                    Ok(open) => scorer.session = Some(Box::new(open)),
                    Err(_) => return SampleEval::failed(),
                }
            }
            let proof = scorer.session.as_mut().expect("session opened above");
            let before = proof.stats();
            let (out, wall) = self
                .layers
                .time_solving("fv-core.check_s", || proof.check(&assertion));
            match out {
                Err(_) => {
                    self.check_done(&proof.stats().delta_since(&before), wall);
                    SampleEval::failed()
                }
                Ok((result, stats)) => {
                    self.check_done(&stats, wall);
                    verdict(&result, &mut self.layers)
                }
            }
        } else {
            let netlist = self.layers.time("sv-synth.bind_extras_s", || {
                compiled.design.bind_extras(&helpers)
            });
            self.layers.count("sv-synth.bind_extras", 1);
            let Ok(netlist) = netlist else {
                return SampleEval::failed();
            };
            let (open, _) = self.layers.time_solving("fv-core.open_s", || {
                ProofSession::open(&netlist, &compiled.consts, cfg)
            });
            let Ok(mut one_shot) = open else {
                return SampleEval::failed();
            };
            let (out, wall) = self
                .layers
                .time_solving("fv-core.check_s", || one_shot.check(&assertion));
            self.check_done(&one_shot.stats(), wall);
            match out {
                Err(_) => SampleEval::failed(),
                Ok((result, _)) => verdict(&result, &mut self.layers),
            }
        }
    }

    fn score_in(&mut self, scorer: &mut Scorer<'_>, response: &str) -> SampleEval {
        match scorer {
            Scorer::Nl(nl, reference) => self.score_nl(nl, reference, response),
            Scorer::Design(d) => self.score_design(d, response),
        }
    }

    /// `EvalEngine::eval_group`, one case across every backend and
    /// sample: cache lookups and batched inference, then scoring of
    /// the misses through one shared session.
    fn eval_group(
        &mut self,
        backends: &[&dyn Backend],
        task: &Arc<TaskSpec>,
        cfg: &InferenceConfig,
        n_samples: u32,
    ) -> Vec<CaseEvals> {
        let fingerprint = cfg.fingerprint();
        let digest = task.content_digest();
        let key = |backend: &dyn Backend, i: u32| -> VerdictKey {
            (
                backend.name().to_string(),
                task.id().to_string(),
                digest,
                fingerprint.clone(),
                i,
            )
        };
        let mut prepared: Vec<Prepared> = Vec::new();
        for backend in backends {
            let mut samples: Vec<Option<SampleEval>> = (0..n_samples)
                .map(|i| self.lookup(&key(*backend, i)))
                .collect();
            let missing_idx: Vec<u32> = (0..n_samples)
                .filter(|&i| samples[i as usize].is_none())
                .collect();
            let mut missing = Vec::new();
            if !missing_idx.is_empty() {
                let broken = match task.as_ref() {
                    TaskSpec::Design2sva { case } => self.compiled_design(case, digest).is_err(),
                    _ => false,
                };
                if broken {
                    for &i in &missing_idx {
                        self.verdicts.insert(key(*backend, i), SampleEval::failed());
                        samples[i as usize] = Some(SampleEval::failed());
                    }
                } else {
                    let reqs: Vec<Request> = missing_idx
                        .iter()
                        .map(|&sample_idx| Request {
                            task: Arc::clone(task),
                            cfg: *cfg,
                            sample_idx,
                        })
                        .collect();
                    let responses = self
                        .layers
                        .time("fveval-llm.generate_s", || backend.generate_batch(&reqs));
                    self.layers.count("fveval-llm.requests", reqs.len() as u64);
                    missing = missing_idx.into_iter().zip(responses).collect();
                }
            }
            prepared.push((samples, missing));
        }
        if prepared.iter().any(|(_, m)| !m.is_empty()) {
            let compiled = match task.as_ref() {
                TaskSpec::Design2sva { case } => Some(self.compiled_design(case, digest)),
                _ => None,
            };
            let mut scorer = match task.as_ref() {
                TaskSpec::Design2sva { .. } => {
                    let c = compiled.as_deref().expect("resolved for design tasks");
                    Scorer::Design(DesignScorer {
                        compiled: c.as_ref().expect("broken designs skip scoring"),
                        session: None,
                    })
                }
                TaskSpec::Nl2svaHuman { case, table } => {
                    Scorer::Nl(self.open_nl(&case.reference, table), &case.reference)
                }
                TaskSpec::Nl2svaMachine { case, table } => Scorer::Nl(
                    self.open_nl(&case.reference_text, table),
                    &case.reference_text,
                ),
            };
            for (backend, (samples, missing)) in backends.iter().zip(&mut prepared) {
                for (i, response) in missing.iter() {
                    let eval = self.score_in(&mut scorer, response);
                    self.verdicts.insert(key(*backend, *i), eval);
                    samples[*i as usize] = Some(eval);
                }
            }
        }
        prepared
            .into_iter()
            .map(|(samples, _)| CaseEvals {
                id: task.id().to_string(),
                samples: samples
                    .into_iter()
                    .map(|s| s.expect("every sample resolved"))
                    .collect(),
            })
            .collect()
    }

    /// `EvalEngine::run_matrix`: case groups in task order.
    fn run_matrix(
        &mut self,
        backends: &[&dyn Backend],
        tasks: &[Arc<TaskSpec>],
        cfg: &InferenceConfig,
        n_samples: u32,
    ) -> Vec<Vec<CaseEvals>> {
        let mut rows: Vec<Vec<CaseEvals>> = backends.iter().map(|_| Vec::new()).collect();
        for task in tasks {
            let group = self.eval_group(backends, task, cfg, n_samples.max(1));
            for (row, evals) in rows.iter_mut().zip(group) {
                row.push(evals);
            }
        }
        rows
    }

    /// `EvalEngine::score`: a one-shot session per call.
    fn score(&mut self, task: &TaskSpec, response: &str) -> SampleEval {
        match task {
            TaskSpec::Nl2svaHuman { case, table } => {
                let mut nl = self.open_nl(&case.reference, table);
                self.score_nl(&mut nl, &case.reference, response)
            }
            TaskSpec::Nl2svaMachine { case, table } => {
                let mut nl = self.open_nl(&case.reference_text, table);
                self.score_nl(&mut nl, &case.reference_text, response)
            }
            TaskSpec::Design2sva { case } => {
                let compiled = self.compiled_design(case, task.content_digest());
                match compiled.as_ref() {
                    Ok(c) => {
                        let mut d = DesignScorer {
                            compiled: c,
                            session: None,
                        };
                        self.score_design(&mut d, response)
                    }
                    Err(_) => SampleEval::failed(),
                }
            }
        }
    }

    fn generate(&mut self, model: &SimulatedModel, req: &Request) -> String {
        self.layers.count("fveval-llm.requests", 1);
        self.layers
            .time("fveval-llm.generate_s", || model.generate(req))
    }
}

/// Compares a pass's artifacts with the reference digests; returns the
/// names of the artifacts that differ.
fn mismatches(artifacts: &[(&'static str, String)], reference: &[(String, String)]) -> Vec<String> {
    let mut bad = Vec::new();
    for (name, bytes) in artifacts {
        let got = measure::hex(measure::fnv1a(bytes.as_bytes()));
        match reference.iter().find(|(n, _)| n == name) {
            Some((_, want)) if *want == got => {}
            Some((_, want)) => bad.push(format!("{name}: digest {got}, reference {want}")),
            None => bad.push(format!("{name}: digest {got}, no reference")),
        }
    }
    if artifacts.len() != reference.len() {
        bad.push(format!(
            "{} artifacts, {} reference digests",
            artifacts.len(),
            reference.len()
        ));
    }
    bad
}

/// One pass in a process of its own, as `fveval run-all` runs: a timed
/// set-up, then the harness pass on dataset `index mod 8` of the
/// seed's pool, then the digest check. Prints a `MISMATCH` line per
/// artifact that differs, then
/// `pass <setup_s> <pass_s> <verdicts> <peak_rss_mib>`.
pub fn pass_process(seed: u64, index: usize) -> Result<(), String> {
    let pool = records::dataset_pool("paper-tables", seed);
    let ds = pool[index % pool.len()];
    let (engine, setup_s) = setup(&pool);
    let started = Instant::now();
    let artifacts = harness_pass(&engine, &options(ds));
    let pass_s = started.elapsed().as_secs_f64();
    let stats = engine.cache_stats();
    for b in mismatches(&artifacts, &records::paper_digests(ds)) {
        println!("MISMATCH dataset {ds}: {b}");
    }
    let rss = measure::peak_rss_mib("self").ok_or("cannot read peak memory")?;
    println!(
        "pass {setup_s} {pass_s} {} {rss}",
        stats.hits + stats.persisted_hits + stats.misses
    );
    Ok(())
}

/// What one pass process reported: `(setup_s, pass_s, verdicts,
/// peak_rss_mib)` and its mismatch lines.
type PassOutcome = ([f64; 4], Vec<String>);

fn run_pass(pass: &mut Command) -> Result<PassOutcome, String> {
    let out = pass
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let figures: Vec<f64> = match last.strip_prefix("pass ") {
        Some(rest) if out.status.success() => rest
            .split_whitespace()
            .map(|v| v.parse().map_err(|_| format!("bad pass line {last:?}")))
            .collect::<Result<_, _>>()?,
        _ => return Err(format!("pass failed ({}): {last}", out.status)),
    };
    let figures: [f64; 4] = figures
        .try_into()
        .map_err(|_| format!("bad pass line {last:?}"))?;
    let bad = stdout
        .lines()
        .filter(|l| l.starts_with("MISMATCH"))
        .map(str::to_string)
        .collect();
    Ok((figures, bad))
}

/// The untraced run: cold passes, each in a fresh process
/// ([`pass_process`]), until `seconds` of passes have been measured.
/// Pass `i` reads dataset `i mod 8` of the seed's pool, so every run
/// measures nearly the same mix of datasets. `setup_s` and
/// `peak_rss_mb` are medians over the passes.
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let this = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut report = Report::new();
    let (mut setups, mut passes, mut rss, mut wall) = (Vec::new(), Vec::new(), Vec::new(), 0.0);
    while wall < seconds {
        let mut pass = Command::new(&this);
        pass.args(["--paper-pass", &seed.to_string(), &passes.len().to_string()]);
        report.attempted += 1;
        match run_pass(&mut pass) {
            Ok(([setup_s, pass_s, verdicts, peak], bad)) => {
                wall += pass_s;
                setups.push(setup_s);
                passes.push((verdicts, pass_s));
                rss.push(peak);
                if !bad.is_empty() {
                    report.failed += 1;
                    for b in bad {
                        report.note(format!("{b} (pass {})", report.attempted));
                    }
                }
            }
            Err(e) => {
                report.failed += 1;
                report.note(format!("MISMATCH pass {}: {e}", report.attempted));
                break;
            }
        }
    }
    let throughput = measure::rate(&passes);
    report.note(format!(
        "dataset pool {:?}; {} passes in {wall:.3} s",
        records::dataset_pool("paper-tables", seed),
        passes.len()
    ));
    report.e2e(measure::median(&setups), throughput);
    report.rss = Some(measure::median(&rss));
    report.alias("verdicts_per_s", throughput, "1/s");
    Ok(report)
}

/// The traced run: one harness pass at the traced thread count (one
/// worker) as the overhead reference, then the traced replay of the
/// same pass, whose artifacts must equal the harness pass's.
pub fn run_traced(seed: u64) -> crate::TraceOutcome {
    let data_seed = records::dataset_pool("paper-tables", seed)[0];
    let reference = records::paper_digests(data_seed);
    let mut report = Report::new();

    let started = Instant::now();
    let plain = EvalEngine::with_jobs(1);
    let plain_artifacts = harness_pass(&plain, &options(data_seed));
    let plain_wall = started.elapsed().as_secs_f64();

    fv_trace::set_timing_enabled(true);
    let (sat_before, calls_before) = crate::layers::sat_histogram();
    let started = Instant::now();
    let mut traced = Traced::new();
    let artifacts = traced.pass(data_seed);
    let wall = started.elapsed().as_secs_f64();
    fv_trace::set_timing_enabled(false);
    let (sat_after, calls_after) = crate::layers::sat_histogram();
    let (sat_total, sat_calls) = (sat_after - sat_before, calls_after - calls_before);

    report.attempted = 2;
    for (label, got) in [("harness", &plain_artifacts), ("traced", &artifacts)] {
        let bad = mismatches(got, &reference);
        if !bad.is_empty() {
            report.failed += 1;
            for b in bad {
                report.note(format!("MISMATCH {label} pass: {b}"));
            }
        }
    }
    if plain_artifacts != artifacts {
        report.note("MISMATCH traced and harness passes differ".into());
        report.failed = report.failed.max(1);
    }
    // The replay must do exactly the engine's work.
    let (prover, cache) = (plain.prover_stats(), plain.cache_stats());
    let l = &traced.layers;
    let pairs = [
        ("fv-sat.calls", prover.sat_calls, l.n("fv-sat.calls")),
        ("fv-core.queries", prover.queries(), l.n("fv-core.queries")),
        (
            "fv-core.checks",
            prover.session_checks,
            l.n("fv-core.checks"),
        ),
        (
            "fv-core.sessions",
            prover.sessions_opened,
            l.n("fv-core.sessions"),
        ),
        (
            "fveval-core.digest_reuse",
            prover.digest_reuse,
            l.n("fveval-core.digest_reuse"),
        ),
        (
            "fveval-core.verdict_hits",
            cache.hits,
            l.n("fveval-core.verdict_hits"),
        ),
        (
            "fveval-core.verdict_misses",
            cache.misses,
            l.n("fveval-core.verdict_misses"),
        ),
    ];
    for (name, engine_n, replay_n) in pairs {
        if engine_n != replay_n {
            report.note(format!(
                "MISMATCH {name}: engine {engine_n}, traced replay {replay_n}"
            ));
            report.failed = report.failed.max(1);
        }
    }
    report.note(format!(
        "dataset seed {data_seed}; traced wall {wall:.3} s, harness (1 worker) {plain_wall:.3} s, \
         solver {sat_total:.3} s over {sat_calls} calls"
    ));
    let layers = traced.layers;
    // Solver time the histogram saw outside any timed call would be
    // double counted by the self-time split; it must be zero.
    let booked = layers.secs("fv-sat.solve_s");
    if (sat_total - booked).abs() > 1e-3 {
        report.note(format!(
            "solver time outside timed calls: {:.6} s",
            sat_total - booked
        ));
    }
    crate::TraceOutcome {
        report,
        layers,
        wall,
        overhead: wall / plain_wall,
        extra: Vec::new(),
    }
}
