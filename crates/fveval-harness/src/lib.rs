//! Experiment harness: one function per paper table/figure.
//!
//! Each function runs the corresponding evaluation end to end — dataset
//! assembly, simulated-model inference, and the real scoring pipeline —
//! and renders a [`Table`] or a text figure. The `fveval` binary wraps
//! these behind subcommands and writes `results/*.md` / `results/*.csv`.
//!
//! All inference-bearing experiments execute on a shared
//! [`EvalEngine`]: its worker pool (`--jobs N`) parallelizes the
//! `model × case × sample` work-list, and its verdict cache scores
//! repeated `(model, case, cfg, sample)` units only once — Tables 1/2
//! and Figure 6 all reuse the human set, so a `run-all` pass gets the
//! repeats for free. Results are byte-identical for every `jobs`
//! setting.
//!
//! Scale: `HarnessOptions::full` reproduces the paper's set sizes
//! (79 human / 300 machine / 96+96 designs); the default quick mode
//! shrinks the expensive Design2SVA sweeps so the whole suite runs in
//! seconds-to-minutes on a laptop. The *shape* of every table is
//! preserved at either scale.

use fv_core::SignalTable;
use fveval_core::{
    compile_design, design_task_specs, histogram, human_task_specs, machine_task_specs, pearson,
    token_count, EvalEngine, MetricSummary, Scorer, Table, TableCell,
};
use fveval_data::{
    fsm_sweep, human_cases, machine_signal_table, pipeline_sweep, signal_table_for, testbenches,
    MachineGenConfig,
};
use fveval_llm::{profiles, Backend, InferenceConfig, Request, SimulatedModel, TaskSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// Knobs shared by all experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessOptions {
    /// Paper-scale runs (96+96 designs, 10 samples) instead of quick.
    pub full: bool,
    /// Global seed.
    pub seed: u64,
}

impl Default for HarnessOptions {
    fn default() -> HarnessOptions {
        HarnessOptions {
            full: false,
            seed: 0xFEED,
        }
    }
}

impl HarnessOptions {
    fn machine_count(&self) -> usize {
        if self.full {
            300
        } else {
            120
        }
    }

    fn design_count(&self) -> usize {
        if self.full {
            96
        } else {
            12
        }
    }

    fn samples(&self) -> u32 {
        if self.full {
            10
        } else {
            6
        }
    }
}

fn human_tables() -> HashMap<&'static str, SignalTable> {
    testbenches()
        .into_iter()
        .map(|tb| {
            let table = signal_table_for(&tb).expect("shipped testbenches elaborate");
            (tb.name, table)
        })
        .collect()
}

/// The human set as an engine work-list (cases + elaborated scopes).
fn human_tasks() -> Vec<Arc<TaskSpec>> {
    human_task_specs(&human_cases(), &human_tables())
}

fn machine_cases(opts: &HarnessOptions) -> Vec<fveval_data::MachineCase> {
    fveval_data::generate_machine_cases(MachineGenConfig {
        count: opts.machine_count(),
        seed: opts.seed,
        ..Default::default()
    })
}

/// The machine set as an engine work-list.
fn machine_tasks(opts: &HarnessOptions) -> Vec<Arc<TaskSpec>> {
    machine_task_specs(&machine_cases(opts), &machine_signal_table())
}

fn as_backends(models: &[SimulatedModel]) -> Vec<&dyn Backend> {
    models.iter().map(|m| m as &dyn Backend).collect()
}

fn models_by_name(names: &[&str]) -> Vec<SimulatedModel> {
    names.iter().map(|n| model_by_name(n)).collect()
}

/// Table 1 — NL2SVA-Human, zero-shot greedy decoding, all 8 models.
pub fn table1(engine: &EvalEngine, opts: &HarnessOptions) -> Table {
    let _ = opts; // the human set is always full-size (79 cases)
    let tasks = human_tasks();
    let models = profiles();
    let mut t = Table::new(
        "Table 1: NL2SVA-Human (zero-shot, greedy)",
        &["Model", "Syntax", "Func.", "Partial Func.", "BLEU"],
    );
    let rows = engine.run_matrix(&as_backends(&models), &tasks, &InferenceConfig::greedy(), 1);
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
    t
}

/// Table 2 — NL2SVA-Human pass@k under sampling (top models).
pub fn table2(engine: &EvalEngine, opts: &HarnessOptions) -> Table {
    let tasks = human_tasks();
    let n = opts.samples().max(5);
    let models = models_by_name(&["gpt-4o", "gemini-1.5-flash", "llama-3.1-70b"]);
    let mut t = Table::new(
        format!("Table 2: NL2SVA-Human pass@k (n={n}, T=0.8)"),
        &[
            "Model",
            "Syntax@5",
            "Func.@3",
            "Func.@5",
            "Partial.@3",
            "Partial.@5",
        ],
    );
    let rows = engine.run_matrix(
        &as_backends(&models),
        &tasks,
        &InferenceConfig::sampling(),
        n,
    );
    for (model, evals) in models.iter().zip(&rows) {
        t.push_row([
            model.name().into(),
            MetricSummary::mean_pass_at_k(evals, 5, |s| s.syntax).into(),
            MetricSummary::mean_pass_at_k(evals, 3, |s| s.func).into(),
            MetricSummary::mean_pass_at_k(evals, 5, |s| s.func).into(),
            MetricSummary::mean_pass_at_k(evals, 3, |s| s.partial).into(),
            MetricSummary::mean_pass_at_k(evals, 5, |s| s.partial).into(),
        ]);
    }
    t
}

/// Table 3 — NL2SVA-Machine, zero-shot and 3-shot, all 8 models.
pub fn table3(engine: &EvalEngine, opts: &HarnessOptions) -> Table {
    let tasks = machine_tasks(opts);
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
    let r0 = engine.run_matrix(&backends, &tasks, &InferenceConfig::greedy(), 1);
    let r3 = engine.run_matrix(
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
    t
}

/// Table 4 — NL2SVA-Machine pass@k under sampling, 3-shot.
pub fn table4(engine: &EvalEngine, opts: &HarnessOptions) -> Table {
    let tasks = machine_tasks(opts);
    let n = opts.samples().max(5);
    let cfg = InferenceConfig::sampling().with_shots(3);
    let models = models_by_name(&["gpt-4o", "gemini-1.5-flash", "llama-3.1-70b"]);
    let mut t = Table::new(
        format!("Table 4: NL2SVA-Machine pass@k (n={n}, 3-shot, top-p 0.95, T=0.8)"),
        &[
            "Model",
            "Syntax@5",
            "Func.@3",
            "Func.@5",
            "Partial.@3",
            "Partial.@5",
        ],
    );
    let rows = engine.run_matrix(&as_backends(&models), &tasks, &cfg, n);
    for (model, evals) in models.iter().zip(&rows) {
        t.push_row([
            model.name().into(),
            MetricSummary::mean_pass_at_k(evals, 5, |s| s.syntax).into(),
            MetricSummary::mean_pass_at_k(evals, 3, |s| s.func).into(),
            MetricSummary::mean_pass_at_k(evals, 5, |s| s.func).into(),
            MetricSummary::mean_pass_at_k(evals, 3, |s| s.partial).into(),
            MetricSummary::mean_pass_at_k(evals, 5, |s| s.partial).into(),
        ]);
    }
    t
}

/// Table 5 — Design2SVA pass@1 / pass@5 per design category.
pub fn table5(engine: &EvalEngine, opts: &HarnessOptions) -> Table {
    let count = opts.design_count();
    let pipeline_tasks = design_task_specs(&pipeline_sweep(count, opts.seed));
    let fsm_tasks = design_task_specs(&fsm_sweep(count, opts.seed.wrapping_add(1)));
    let n = opts.samples().max(5);
    let cfg = InferenceConfig::sampling();
    let models: Vec<SimulatedModel> = profiles()
        .into_iter()
        .filter(|m| m.profile().supports_design2sva)
        .collect();
    let backends = as_backends(&models);
    let mut t = Table::new(
        format!("Table 5: Design2SVA ({count} designs per category, n={n})"),
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
    let rp = engine.run_matrix(&backends, &pipeline_tasks, &cfg, n);
    let rf = engine.run_matrix(&backends, &fsm_tasks, &cfg, n);
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
    t
}

/// Table 6 — NL2SVA-Human dataset composition.
pub fn table6() -> Table {
    let cases = human_cases();
    let tbs = testbenches();
    let mut t = Table::new(
        "Table 6: NL2SVA-Human composition",
        &["Name", "# Variations", "# Assertions"],
    );
    let mut classes: Vec<&str> = Vec::new();
    for tb in &tbs {
        if !classes.contains(&tb.class) {
            classes.push(tb.class);
        }
    }
    let mut total_vars = 0usize;
    let mut total_asserts = 0usize;
    for class in classes {
        let names: Vec<&str> = tbs
            .iter()
            .filter(|t| t.class == class)
            .map(|t| t.name)
            .collect();
        let n_assert = cases
            .iter()
            .filter(|c| names.contains(&c.testbench.as_str()))
            .count();
        total_vars += names.len();
        total_asserts += n_assert;
        t.push_row([
            class.into(),
            (names.len() as f64).into(),
            (n_assert as f64).into(),
        ]);
    }
    t.push_row([
        "Total".into(),
        (total_vars as f64).into(),
        (total_asserts as f64).into(),
    ]);
    t
}

/// Figure 2 (right) — NL/SVA token-length distributions, human set.
pub fn figure2() -> String {
    let cases = human_cases();
    let nl: Vec<f64> = cases
        .iter()
        .map(|c| token_count(&c.question) as f64)
        .collect();
    let sva: Vec<f64> = cases
        .iter()
        .map(|c| token_count(&c.reference) as f64)
        .collect();
    format!(
        "Figure 2 (right): NL2SVA-Human token-length distributions\n\n\
         NL specifications ({} cases):\n{}\n\
         Reference SVA solutions:\n{}",
        cases.len(),
        histogram(&nl, 8).render(),
        histogram(&sva, 8).render()
    )
}

/// Figure 3 (right) — NL/SVA token-length distributions, machine set.
pub fn figure3(opts: &HarnessOptions) -> String {
    let cases = machine_cases(opts);
    let nl: Vec<f64> = cases
        .iter()
        .map(|c| token_count(&c.question) as f64)
        .collect();
    let sva: Vec<f64> = cases
        .iter()
        .map(|c| token_count(&c.reference_text) as f64)
        .collect();
    format!(
        "Figure 3 (right): NL2SVA-Machine token-length distributions\n\n\
         NL descriptions ({} cases):\n{}\n\
         Reference SVA assertions:\n{}",
        cases.len(),
        histogram(&nl, 8).render(),
        histogram(&sva, 8).render()
    )
}

/// Figure 4 — generated-logic token lengths across the design sweeps.
pub fn figure4(opts: &HarnessOptions) -> String {
    let count = opts.design_count();
    let pipelines = pipeline_sweep(count, opts.seed);
    let fsms = fsm_sweep(count, opts.seed.wrapping_add(1));
    let p: Vec<f64> = pipelines
        .iter()
        .map(|c| token_count(&c.logic_excerpt) as f64)
        .collect();
    let f: Vec<f64> = fsms
        .iter()
        .map(|c| token_count(&c.logic_excerpt) as f64)
        .collect();
    format!(
        "Figure 4: Design2SVA generated-logic token-length distributions\n\n\
         Arithmetic logic (pipelines, {count} designs):\n{}\n\
         FSM transition logic ({count} designs):\n{}",
        histogram(&p, 8).render(),
        histogram(&f, 8).render()
    )
}

/// Figure 6 — BLEU-vs-functional-equivalence correlation.
pub fn figure6(engine: &EvalEngine, opts: &HarnessOptions) -> (Table, String) {
    let _ = opts;
    let tasks = human_tasks();
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
    let rows = engine.run_matrix(&as_backends(&models), &tasks, &InferenceConfig::greedy(), 1);
    for (model, evals) in models.iter().zip(&rows) {
        let name = model.name();
        let bleus: Vec<f64> = evals.iter().map(|c| c.samples[0].bleu).collect();
        let funcs: Vec<f64> = evals
            .iter()
            .map(|c| f64::from(u8::from(c.samples[0].func)))
            .collect();
        let r = pearson(&bleus, &funcs);
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
    (t, notes)
}

/// Figures 7/8/9 — qualitative failure-mode showcase.
pub fn showcase(engine: &EvalEngine, opts: &HarnessOptions) -> String {
    let mut out = String::new();
    let tables = human_tables();
    // Figure 7 flavour: the FIFO eventuality case across models.
    let cases = human_cases();
    let case = cases
        .iter()
        .find(|c| c.id == "fifo_1r1w_bypass_4")
        .expect("case exists");
    out.push_str(&format!(
        "== NL2SVA-Human showcase: {} ==\nQuestion: {}\nReference: {}\n\n",
        case.id, case.question, case.reference
    ));
    let task = Arc::new(TaskSpec::Nl2svaHuman {
        case: case.clone(),
        table: Arc::new(tables[case.testbench.as_str()].clone()),
    });
    for name in ["gpt-4o", "llama-3.1-70b", "llama-3-8b"] {
        let model = model_by_name(name);
        let resp = model.generate(&Request {
            task: Arc::clone(&task),
            cfg: InferenceConfig::greedy(),
            sample_idx: 0,
        });
        let eval = engine.score(&task, &resp);
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
    // Figure 9 flavour: a Design2SVA FSM case with multiple attempts.
    let fsm = fsm_sweep(1, opts.seed)[0].clone();
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
        let resp = model.generate(&Request {
            task: Arc::clone(&task),
            cfg: InferenceConfig::sampling(),
            sample_idx: attempt,
        });
        let eval = engine.score(&task, &resp);
        out.push_str(&format!(
            "gpt-4o | Attempt {}:\n{resp}\nSyntax: {} | Functionality (is proven): {}\n\n",
            attempt + 1,
            pass_str(eval.syntax),
            pass_str(eval.func)
        ));
    }
    out
}

fn pass_str(b: bool) -> &'static str {
    if b {
        "pass"
    } else {
        "fail"
    }
}

/// Validates all shipped and generated collateral end to end: every
/// testbench elaborates, every reference assertion parses and is
/// self-equivalent in its scope, every generated design's golden
/// assertions are proven, and the machine generator round-trips.
/// Returns a human-readable report; errors are collected, not fatal.
pub fn validate(opts: &HarnessOptions) -> (String, usize) {
    use fv_core::{check_equivalence, EquivConfig, Equivalence};
    use sv_parser::parse_assertion_str;

    let mut out = String::new();
    let mut errors = 0usize;
    let check = |out: &mut String, errors: &mut usize, label: &str, ok: bool, detail: &str| {
        if ok {
            out.push_str(&format!("  ok    {label}\n"));
        } else {
            *errors += 1;
            out.push_str(&format!("  FAIL  {label}: {detail}\n"));
        }
    };

    out.push_str("== testbenches ==\n");
    let mut tables = HashMap::new();
    for tb in testbenches() {
        match signal_table_for(&tb) {
            Ok(t) => {
                check(&mut out, &mut errors, tb.name, true, "");
                tables.insert(tb.name, t);
            }
            Err(e) => check(&mut out, &mut errors, tb.name, false, &e),
        }
    }

    out.push_str("== human references (79) ==\n");
    let mut ok_refs = 0;
    for case in human_cases() {
        let verdict = parse_assertion_str(&case.reference)
            .map_err(|e| e.to_string())
            .and_then(|a| {
                tables
                    .get(case.testbench.as_str())
                    .ok_or_else(|| "missing table".to_string())
                    .and_then(|t| {
                        check_equivalence(&a, &a, t, EquivConfig::default())
                            .map_err(|e| e.to_string())
                    })
            });
        match verdict {
            Ok(o) if o.verdict == Equivalence::Equivalent => ok_refs += 1,
            Ok(o) => check(
                &mut out,
                &mut errors,
                &case.id,
                false,
                &format!("{:?}", o.verdict),
            ),
            Err(e) => check(&mut out, &mut errors, &case.id, false, &e),
        }
    }
    out.push_str(&format!("  ok    {ok_refs} references self-equivalent\n"));

    out.push_str("== machine generator ==\n");
    let cases = machine_cases(opts);
    let mut ok_machine = 0;
    for case in &cases {
        if parse_assertion_str(&case.reference_text).is_ok() {
            ok_machine += 1;
        } else {
            check(
                &mut out,
                &mut errors,
                &case.id,
                false,
                "reference unparseable",
            );
        }
    }
    out.push_str(&format!(
        "  ok    {ok_machine}/{} machine references parse\n",
        cases.len()
    ));

    out.push_str("== design sweeps (goldens prove) ==\n");
    let n = if opts.full { 16 } else { 4 };
    for case in pipeline_sweep(n, opts.seed)
        .into_iter()
        .chain(fsm_sweep(n, opts.seed + 1))
    {
        match compile_design(&case) {
            Err(e) => check(&mut out, &mut errors, &case.id, false, &e),
            Ok(bound) => {
                let mut scorer = Scorer::design(&bound, fv_core::ProveConfig::default());
                let all_proven = case.golden.iter().all(|g| scorer.score(g).0.func);
                check(
                    &mut out,
                    &mut errors,
                    &case.id,
                    all_proven,
                    "golden not proven",
                );
            }
        }
    }

    out.push_str("== generated scenarios (golden verdicts confirmed) ==\n");
    let suite = fveval_gen::generate_suite(&fveval_data::SuiteConfig {
        per_family: 1,
        seed: opts.seed,
        ..Default::default()
    });
    match fveval_gen::validate_suite(&suite, fv_core::ProveConfig::default()) {
        Err(e) => check(&mut out, &mut errors, "generated suite", false, &e),
        Ok(reports) => {
            for (scenario, report) in suite.scenarios.iter().zip(&reports) {
                check(
                    &mut out,
                    &mut errors,
                    &scenario.id,
                    report.is_clean(),
                    &report.problems.join("; "),
                );
            }
        }
    }

    out.push_str(&format!(
        "\nvalidation {} with {errors} error(s)\n",
        if errors == 0 { "PASSED" } else { "FAILED" }
    ));
    (out, errors)
}

/// The `fveval gen` report: generates a scenario suite, re-proves every
/// candidate's golden verdict through the incremental formal core, and
/// (optionally) runs the full simulated-model roster over the generated
/// task set on the shared engine.
///
/// Returns the per-scenario validation table, free-form notes (golden
/// confirmation summary, any problems, and the optional evaluation
/// table), the generated suite (for [`fveval_gen::write_suite`]), and
/// the number of validation errors.
///
/// # Errors
///
/// Returns a message if generated collateral fails to bind or parse —
/// generator bugs, as opposed to verdict mismatches, which are counted
/// and reported in the table.
pub fn gen_report(
    engine: &EvalEngine,
    cfg: &fveval_data::SuiteConfig,
    run_eval: bool,
) -> Result<(Table, String, fveval_data::Suite, usize), String> {
    use fveval_core::generated_task_specs;
    use fveval_data::task_set_from_suite;

    let suite = fveval_gen::generate_suite(cfg);
    let reports = fveval_gen::validate_suite(&suite, fv_core::ProveConfig::default())?;
    let mut t = Table::new(
        format!(
            "Generated scenarios ({} families, seed {:#x})",
            suite
                .scenarios
                .iter()
                .map(|s| s.family)
                .collect::<std::collections::HashSet<_>>()
                .len(),
            cfg.seed
        ),
        &[
            "Scenario",
            "Family",
            "Depth",
            "Width",
            "Provable",
            "Falsifiable",
            "Confirmed",
            "Problems",
        ],
    );
    let mut errors = 0usize;
    let mut stats = fv_core::ProverStats::default();
    let mut notes = String::new();
    for (scenario, report) in suite.scenarios.iter().zip(&reports) {
        stats.merge(&report.stats);
        errors += (report.mismatches + report.replay_failures) as usize;
        // Parameters and counts are labels, not metrics: text cells
        // keep the renderer from float-formatting and best-bolding them.
        t.push_row([
            scenario.id.clone().into(),
            scenario.family.into(),
            scenario.params.depth.to_string().into(),
            scenario.params.width.to_string().into(),
            scenario.provable().count().to_string().into(),
            scenario.falsifiable().count().to_string().into(),
            report.confirmed.to_string().into(),
            (report.mismatches + report.replay_failures)
                .to_string()
                .into(),
        ]);
        for p in &report.problems {
            notes.push_str(&format!("PROBLEM {}: {p}\n", scenario.id));
        }
    }
    // Validation is prover work this command performed: fold it into
    // the engine's counters so `prover_stats.{md,csv}` and the stderr
    // summary account for it (deep-inductive families surface here as
    // `pdr_wins` even when no scored response needs PDR).
    engine.record_prover_work(&stats);
    notes.push_str(&format!(
        "golden verdicts: {} candidates across {} scenarios confirmed by the prover \
         ({} SAT calls, {} sim kills, {} step sim kills, {} ternary kills){}\n",
        suite.candidate_count(),
        suite.scenarios.len(),
        stats.sat_calls,
        stats.sim_kills,
        stats.step_sim_kills,
        stats.ternary_kills,
        if errors == 0 {
            ""
        } else {
            " — WITH MISMATCHES"
        },
    ));

    if run_eval && errors > 0 {
        notes.push_str(
            "skipping --eval: the suite's golden verdicts did not all confirm, \
             so model metrics against it would be meaningless\n",
        );
    }
    let suite = if run_eval && errors == 0 {
        // The conversion consumes the suite (no clone of the generated
        // sources) and hands it back unchanged.
        let set = task_set_from_suite(suite)?;
        let tasks = generated_task_specs(&set);
        let models = profiles();
        let backends = as_backends(&models);
        let results = engine.run_matrix(&backends, &tasks, &InferenceConfig::greedy(), 1);
        let rows: Vec<(String, Vec<fveval_core::CaseEvals>)> = models
            .iter()
            .map(|m| m.name().to_string())
            .zip(results)
            .collect();
        let et = eval_summary_table(&rows, tasks.len());
        notes.push('\n');
        notes.push_str(&et.to_markdown());
        set.suite
    } else {
        suite
    };

    Ok((t, notes, suite, errors))
}

/// The difficulty-stratified generation table: per-family counts of
/// family-authored candidates and of derived mutants split by mutation
/// operator. Operator columns order follows
/// [`fveval_gen::MutationOp::ALL`]; a trailing `total` row sums every
/// column. Written as `results/gen_difficulty.md` by `fveval gen`
/// whenever `--mutations` is nonzero.
pub fn difficulty_table(suite: &fveval_data::Suite) -> Table {
    use fveval_gen::MutationOp;

    let mut columns: Vec<&str> = vec!["Family", "Scenarios", "Provable", "Falsifiable"];
    let op_names: Vec<String> = MutationOp::ALL
        .iter()
        .map(|op| op.tag().to_string())
        .collect();
    columns.extend(op_names.iter().map(String::as_str));
    columns.push("Mutants");
    let mut t = Table::new(
        format!(
            "Generated-suite difficulty strata (seed {:#x}, {} mutants/scenario requested)",
            suite.config.seed, suite.config.mutations
        ),
        &columns,
    );

    // (scenarios, provable, falsifiable, per-op counts, mutant total)
    type Row = (usize, usize, usize, Vec<usize>, usize);
    let mut families: Vec<&str> = Vec::new();
    let mut rows: std::collections::HashMap<&str, Row> = std::collections::HashMap::new();
    for scenario in &suite.scenarios {
        if !rows.contains_key(scenario.family) {
            families.push(scenario.family);
            rows.insert(
                scenario.family,
                (0, 0, 0, vec![0; MutationOp::ALL.len()], 0),
            );
        }
        let row = rows.get_mut(scenario.family).expect("inserted above");
        row.0 += 1;
        for c in &scenario.candidates {
            match c.mutation {
                Some(op) => {
                    let idx = MutationOp::ALL
                        .iter()
                        .position(|o| *o == op)
                        .expect("ALL is exhaustive");
                    row.3[idx] += 1;
                    row.4 += 1;
                }
                None if c.verdict.is_provable() => row.1 += 1,
                None => row.2 += 1,
            }
        }
    }
    let mut total: Row = (0, 0, 0, vec![0; MutationOp::ALL.len()], 0);
    for family in &families {
        let row = &rows[family];
        total.0 += row.0;
        total.1 += row.1;
        total.2 += row.2;
        for (acc, n) in total.3.iter_mut().zip(&row.3) {
            *acc += n;
        }
        total.4 += row.4;
    }
    for family in families.iter().map(|f| *f as &str).chain(["total"]) {
        let row = if family == "total" {
            &total
        } else {
            &rows[family]
        };
        let mut cells: Vec<TableCell> = vec![
            family.into(),
            row.0.to_string().into(),
            row.1.to_string().into(),
            row.2.to_string().into(),
        ];
        cells.extend(row.3.iter().map(|n| TableCell::from(n.to_string())));
        cells.push(row.4.to_string().into());
        t.push_row(cells);
    }
    t
}

/// Renders the greedy evaluation summary over per-model case evals.
///
/// Shared between the direct path (`fveval gen --eval`) and the
/// server-mediated path (`fveval submit --wait`), so a served
/// evaluation's table is byte-identical to the local one by
/// construction.
pub fn eval_summary_table(rows: &[(String, Vec<fveval_core::CaseEvals>)], n_tasks: usize) -> Table {
    let mut t = Table::new(
        format!("Generated workload, zero-shot greedy ({n_tasks} tasks)"),
        &["Model", "Syntax", "Functionality", "Partial"],
    );
    for (name, evals) in rows {
        let s = MetricSummary::from_first_samples(evals);
        t.push_row([
            name.as_str().into(),
            s.syntax.into(),
            s.func.into(),
            s.partial.into(),
        ]);
    }
    t
}

/// Finds a profile by display name.
///
/// # Panics
///
/// Panics if the name is unknown.
pub fn model_by_name(name: &str) -> SimulatedModel {
    profiles()
        .into_iter()
        .find(|m| m.name() == name)
        .unwrap_or_else(|| panic!("unknown model '{name}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> HarnessOptions {
        HarnessOptions {
            full: false,
            seed: 7,
        }
    }

    #[test]
    fn table6_matches_paper_counts() {
        let t = table6();
        let md = t.to_markdown();
        assert!(md.contains("| Total | **13.000** | **79.000** |"), "{md}");
    }

    #[test]
    fn table1_has_eight_rows_and_ordering_shape() {
        let t = table1(&EvalEngine::new(), &quick());
        assert_eq!(t.rows.len(), 8);
        let md = t.to_markdown();
        assert!(md.contains("gpt-4o"));
        assert!(md.contains("llama-3-8b"));
    }

    #[test]
    fn table1_is_jobs_invariant_and_cache_hits_on_rerun() {
        let sequential = EvalEngine::with_jobs(1);
        let parallel = EvalEngine::with_jobs(4);
        let a = table1(&sequential, &quick()).to_markdown();
        let b = table1(&parallel, &quick()).to_markdown();
        assert_eq!(a, b, "parallel table1 must be byte-identical");
        let before = parallel.cache_stats();
        let c = table1(&parallel, &quick()).to_markdown();
        let after = parallel.cache_stats();
        assert_eq!(b, c);
        assert_eq!(
            after.hits - before.hits,
            8 * 79,
            "second run is answered entirely from the verdict cache"
        );
    }

    #[test]
    fn figure2_renders_histograms() {
        let s = figure2();
        assert!(s.contains("NL specifications (79 cases)"));
        assert!(s.contains('#'));
    }

    #[test]
    fn showcase_contains_verdicts() {
        let s = showcase(&EvalEngine::new(), &quick());
        assert!(s.contains("Syntax:"));
        assert!(s.contains("Functionality"));
    }
}
