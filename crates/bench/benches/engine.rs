//! Substrate micro-benchmarks: SAT solving, parsing, assertion
//! equivalence, BMC/k-induction scaling, and the evaluation engine's
//! parallel speed-up and verdict-cache behaviour.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use fv_aig::{Aig, BitVec, CnfEmitter};
use fv_core::{
    check_equivalence, prove, DesignTraceEnv, EquivConfig, ProveConfig, SignalTable, TraceEnv,
};
use fv_sat::Solver;
use fveval_bench::pigeonhole;
use fveval_core::{compile_design, design_task_specs, machine_task_specs, EvalEngine};
use fveval_data::{
    fsm_sweep, generate_machine_cases, generate_pipeline, human_cases, machine_signal_table,
    pipeline_sweep, signal_table_for, testbenches, MachineGenConfig, PipelineParams,
};
use fveval_llm::{profiles, Backend, InferenceConfig};
use std::hint::black_box;
use std::time::Duration;
use sv_parser::{parse_assertion_str, parse_source};
use sv_synth::{elaborate, FrameExpander};

fn bench_sat(c: &mut Criterion) {
    let mut g = c.benchmark_group("sat");
    g.sample_size(10).measurement_time(Duration::from_secs(6));
    for n in [5usize, 6, 7] {
        g.bench_with_input(BenchmarkId::new("pigeonhole_unsat", n), &n, |b, &n| {
            b.iter(|| {
                let mut s = pigeonhole(n);
                black_box(s.solve())
            })
        });
    }
    g.finish();
}

fn bench_parser(c: &mut Criterion) {
    let mut g = c.benchmark_group("parser");
    g.sample_size(30);
    let fifo = testbenches()
        .into_iter()
        .find(|t| t.name == "fifo_1r1w")
        .unwrap();
    g.bench_function("parse_fifo_testbench", |b| {
        b.iter(|| black_box(parse_source(fifo.source).unwrap()))
    });
    let assertion = "asrt: assert property (@(posedge clk) disable iff (tb_reset) \
                     (a && b) |-> strong(##[0:$] (c || $onehot0({a, b, c}))));";
    // Pre-extend the scope so parsing is the only cost measured.
    g.bench_function("parse_assertion", |b| {
        b.iter(|| black_box(parse_assertion_str(assertion).unwrap()))
    });
    g.bench_function("elaborate_fifo_testbench", |b| {
        let file = parse_source(fifo.source).unwrap();
        b.iter(|| black_box(elaborate(&file, fifo.top).unwrap()))
    });
    g.finish();
}

fn bench_equivalence(c: &mut Criterion) {
    let mut g = c.benchmark_group("equivalence");
    g.sample_size(20);
    let table: SignalTable = [
        ("wr_push", 1u32),
        ("rd_pop", 1),
        ("tb_reset", 1),
        ("sig_H", 4),
        ("sig_F", 1),
    ]
    .into_iter()
    .collect();
    let cases = [
        (
            "bounded_pair",
            "assert property (@(posedge clk) wr_push |-> ##2 rd_pop);",
            "assert property (@(posedge clk) wr_push |=> ##1 rd_pop);",
        ),
        (
            "unbounded_pair",
            "assert property (@(posedge clk) disable iff (tb_reset) \
             wr_push |-> strong(##[0:$] rd_pop));",
            "assert property (@(posedge clk) disable iff (tb_reset) \
             wr_push |-> ##[1:$] rd_pop);",
        ),
        (
            "countones_pair",
            "assert property (@(posedge clk) (^sig_H) && sig_F);",
            "assert property (@(posedge clk) ($countones(sig_H) % 2 == 1) && sig_F);",
        ),
    ];
    for (name, r, cand) in cases {
        let reference = parse_assertion_str(r).unwrap();
        let candidate = parse_assertion_str(cand).unwrap();
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    check_equivalence(&reference, &candidate, &table, EquivConfig::default())
                        .unwrap(),
                )
            })
        });
    }
    g.finish();
}

fn bench_model_checking(c: &mut Criterion) {
    let mut g = c.benchmark_group("model_checking");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    for depth in [2u32, 4, 6] {
        let case = generate_pipeline(&PipelineParams {
            n_units: 2,
            unit_depths: vec![depth / 2, depth - depth / 2],
            width: 16,
            expr_ops: 3,
            seed: 77,
        });
        let compiled = compile_design(&case).unwrap();
        let assertion = parse_assertion_str(&case.golden[0]).unwrap();
        g.bench_with_input(
            BenchmarkId::new("prove_pipeline_depth", depth),
            &depth,
            |b, _| {
                b.iter(|| {
                    black_box(
                        prove(compiled.netlist(), &assertion, &[], ProveConfig::default()).unwrap(),
                    )
                })
            },
        );
    }
    // Frame expansion as a proof session unrolls: a free frame-0 state,
    // the reset input held deasserted, 8 frames of each of Table 5's 96
    // pipelines (or FSMs) at the default seed. The expander is built
    // inside the timing, since building it compiles the frame template.
    for (family, cases) in [
        ("pipelines", pipeline_sweep(96, 0xFEED)),
        ("fsms", fsm_sweep(96, 0xFEED + 1)),
    ] {
        let designs: Vec<_> = cases.iter().map(|c| compile_design(c).unwrap()).collect();
        g.bench_function(format!("frame_expansion/{family}"), |b| {
            b.iter(|| {
                for design in &designs {
                    let mut aig = Aig::new();
                    let mut env =
                        DesignTraceEnv::new(FrameExpander::new(design.netlist()).unwrap());
                    env.ensure_frames(&mut aig, 7);
                    black_box(aig.num_nodes());
                }
            })
        });
    }
    // A narrow read by cone: one net at frame 7 through a fresh
    // `DesignTraceEnv`, for each of the same 96 designs — a pipeline's
    // 1-bit `out_vld`, and an FSM's `fsm_out` (its narrowest net that
    // is not a clock or reset). The expanders, and so the templates,
    // are built outside the timing.
    for (family, cases, net) in [
        ("pipelines", pipeline_sweep(96, 0xFEED), "out_vld"),
        ("fsms", fsm_sweep(96, 0xFEED + 1), "fsm_out"),
    ] {
        let designs: Vec<_> = cases.iter().map(|c| compile_design(c).unwrap()).collect();
        let expanders: Vec<_> = designs
            .iter()
            .map(|d| FrameExpander::new(d.netlist()).unwrap())
            .collect();
        g.bench_function(format!("cone_read/{family}"), |b| {
            b.iter_batched(
                || expanders.clone(),
                |expanders| {
                    for expander in expanders {
                        let mut aig = Aig::new();
                        let mut env = DesignTraceEnv::new(expander);
                        black_box(env.read(&mut aig, net, 7).unwrap());
                        black_box(aig.num_nodes());
                    }
                },
                BatchSize::LargeInput,
            )
        });
    }
    // Tseitin clause intake: every atom bit of the same 8-frame
    // unrollings, emitted into a fresh solver through one emitter per
    // design. The unrollings are built outside the timing.
    for (family, cases) in [
        ("pipelines", pipeline_sweep(96, 0xFEED)),
        ("fsms", fsm_sweep(96, 0xFEED + 1)),
    ] {
        let unrollings: Vec<_> = cases
            .iter()
            .map(|case| {
                let design = compile_design(case).unwrap();
                let netlist = design.netlist();
                let expander = FrameExpander::new(netlist).unwrap();
                let mut aig = Aig::new();
                let mut state = netlist
                    .regs()
                    .map(|(id, def)| (id, BitVec::input(&mut aig, def.width as usize)))
                    .collect();
                let mut bits = Vec::new();
                for _ in 0..8 {
                    let frame = expander.expand(&mut aig, &state, &mut |g, _, w| {
                        BitVec::input(g, w as usize)
                    });
                    bits.extend(frame.atoms.iter().flat_map(|v| v.bits().iter().copied()));
                    state = frame.reg_next;
                }
                (aig, bits)
            })
            .collect();
        g.bench_function(format!("cnf_intake/{family}"), |b| {
            b.iter(|| {
                for (aig, bits) in &unrollings {
                    let mut solver = Solver::new();
                    let mut em = CnfEmitter::new();
                    for &bit in bits {
                        em.emit(aig, bit, &mut solver);
                    }
                    black_box(solver.num_clauses());
                }
            })
        });
    }
    g.finish();
}

/// The formal core at benchmark scale, isolated from inference: the
/// equivalence prover over Table-2-scale assertion suites (every query
/// an LLM answer would trigger, minus the LLM) and the BMC/k-induction
/// prover over a Design2SVA FSM golden suite. These are the groups the
/// incremental-core work is measured against.
fn bench_formal_core(c: &mut Criterion) {
    let mut g = c.benchmark_group("formal_core");
    g.sample_size(10).measurement_time(Duration::from_secs(20));

    // Table-2 scale: the 79 human references, each checked against
    // itself (the UNSAT-proof path) and against a neighbour from the
    // same testbench scope (the falsification path) — the same query
    // mix a pass@k sampling run produces.
    let tables: std::collections::HashMap<&str, SignalTable> = testbenches()
        .into_iter()
        .map(|tb| {
            let t = signal_table_for(&tb).expect("testbench elaborates");
            (tb.name, t)
        })
        .collect();
    let human = human_cases();
    let parsed: Vec<(sv_ast::Assertion, &str)> = human
        .iter()
        .map(|c| {
            (
                parse_assertion_str(&c.reference).unwrap(),
                c.testbench.as_str(),
            )
        })
        .collect();
    let mut pairs: Vec<(usize, usize)> = (0..parsed.len()).map(|i| (i, i)).collect();
    for i in 0..parsed.len() {
        let j = (i + 1) % parsed.len();
        if parsed[i].1 == parsed[j].1 {
            pairs.push((i, j));
        }
    }
    g.bench_function("equiv_human_table2_scale", |b| {
        b.iter(|| {
            for &(i, j) in &pairs {
                let table = &tables[parsed[i].1];
                let _ = black_box(check_equivalence(
                    &parsed[i].0,
                    &parsed[j].0,
                    table,
                    EquivConfig::default(),
                ));
            }
        })
    });

    // The machine set at quick-mode scale (120 cases): identity plus
    // cross pairs in the shared symbolic scope.
    let machine = generate_machine_cases(MachineGenConfig {
        count: 120,
        seed: 0xF0CA,
        ..Default::default()
    });
    let machine_table = machine_signal_table();
    g.bench_function("equiv_machine_pairs", |b| {
        b.iter(|| {
            for (i, case) in machine.iter().enumerate() {
                let other = &machine[(i + 1) % machine.len()];
                let _ = black_box(check_equivalence(
                    &case.reference,
                    &case.reference,
                    &machine_table,
                    EquivConfig::default(),
                ));
                let _ = black_box(check_equivalence(
                    &case.reference,
                    &other.reference,
                    &machine_table,
                    EquivConfig::default(),
                ));
            }
        })
    });

    // Design2SVA FSM goldens through the model checker: each golden is
    // proven (BMC sweep + k-induction), the dominant cost of Table 5.
    let mut proven_suite = Vec::new();
    for case in fsm_sweep(6, 0xF0CB) {
        let compiled = compile_design(&case).unwrap();
        let assertions: Vec<sv_ast::Assertion> = case
            .golden
            .iter()
            .filter_map(|snippet| {
                sv_parser::parse_snippet(snippet)
                    .ok()?
                    .into_iter()
                    .find_map(|item| match item {
                        sv_ast::ModuleItem::Assertion(a) => Some(a),
                        _ => None,
                    })
            })
            .collect();
        proven_suite.push((compiled, assertions));
    }
    let one_pass = || {
        for (compiled, assertions) in &proven_suite {
            for a in assertions {
                let _ = black_box(prove(
                    compiled.netlist(),
                    a,
                    compiled.consts(),
                    ProveConfig::default(),
                ));
            }
        }
    };
    g.bench_function("prove_fsm_goldens", |b| b.iter(one_pass));

    // Observability overhead (fv-trace). The span sites are always
    // compiled in (the workspace carries no feature flags), so the
    // compile-time-off and runtime-off cost are the same quantity: the
    // price of crossing a `span!` site whose enable flags are false —
    // one relaxed atomic load. Three arms bound it:
    //   trace_overhead/span_site_disabled  1000 disabled sites/iter
    //   trace_overhead/span_site_baseline  the same loop, no site
    //   trace_overhead/prove_fsm_goldens_timing_on
    //       the suite above with timing histograms recording
    // and the derivation below multiplies the measured per-site cost
    // by the sites a real prove pass crosses, asserting the disabled
    // overhead stays under 1% of the pass.
    g.bench_function("trace_overhead/span_site_disabled", |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                let _g = fv_trace::span!("bench.site");
                black_box(i);
            }
        })
    });
    g.bench_function("trace_overhead/span_site_baseline", |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                black_box(i);
            }
        })
    });
    g.bench_function("trace_overhead/prove_fsm_goldens_timing_on", |b| {
        fv_trace::set_timing_enabled(true);
        b.iter(one_pass);
        fv_trace::set_timing_enabled(false);
    });

    // Derived bound: disabled per-site nanoseconds × sites per pass,
    // as a fraction of the pass itself.
    const SITES: u64 = 2_000_000;
    let t0 = std::time::Instant::now();
    for i in 0..SITES {
        let _g = fv_trace::span!("bench.site");
        black_box(i);
    }
    let with_site = t0.elapsed();
    let t0 = std::time::Instant::now();
    for i in 0..SITES {
        black_box(i);
    }
    let per_site_ns = with_site.saturating_sub(t0.elapsed()).as_nanos() as f64 / SITES as f64;
    fv_trace::set_spans_enabled(true);
    let _ = fv_trace::take_spans();
    one_pass();
    let sites_per_pass = fv_trace::take_spans().len();
    fv_trace::set_spans_enabled(false);
    let t0 = std::time::Instant::now();
    one_pass();
    let pass_ns = t0.elapsed().as_nanos() as f64;
    let overhead_pct = 100.0 * per_site_ns * sites_per_pass as f64 / pass_ns;
    println!(
        "formal_core/trace_overhead: {per_site_ns:.2} ns/site disabled × \
         {sites_per_pass} sites = {overhead_pct:.4}% of a prove_fsm_goldens pass"
    );
    assert!(
        overhead_pct <= 1.0,
        "disabled tracing must cost <=1% of prove_fsm_goldens, got {overhead_pct:.4}%"
    );
    g.finish();
}

/// The `EvalEngine` worker pool at Table 4/5-scale workloads: on
/// multi-core hosts the parallel engine beats the sequential baseline
/// (work units are embarrassingly parallel); on any host a cached
/// re-run beats both by orders of magnitude. The parallel arm always
/// uses at least 4 workers so single-core CI still exercises the pool
/// (and shows its overhead is negligible).
fn bench_eval_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("eval_engine");
    g.sample_size(10).measurement_time(Duration::from_secs(20));
    let cpus = std::thread::available_parallelism().map_or(4, |n| n.get().max(4));

    // Table 4 scale (quick mode): 3 models x 60 machine cases x 5
    // samples through inference + parse + formal equivalence + BLEU.
    let cases = generate_machine_cases(MachineGenConfig {
        count: 60,
        seed: 0xBE7C,
        ..Default::default()
    });
    let tasks = machine_task_specs(&cases, &machine_signal_table());
    let models = profiles();
    let backends: Vec<&dyn Backend> = models[..3].iter().map(|m| m as &dyn Backend).collect();
    let cfg = InferenceConfig::sampling().with_shots(3);
    for jobs in [1usize, cpus] {
        g.bench_with_input(
            BenchmarkId::new("table4_scale_jobs", jobs),
            &jobs,
            |b, &jobs| {
                b.iter(|| {
                    let engine = EvalEngine::with_jobs(jobs);
                    black_box(engine.run_matrix(&backends, &tasks, &cfg, 5))
                })
            },
        );
    }

    // Table 5 scale (quick mode): 6 models x 8 FSM designs x 5 samples
    // through the model checker.
    let designs = fsm_sweep(8, 0xBE7D);
    let design_tasks = design_task_specs(&designs);
    let d2s_backends: Vec<&dyn Backend> = models
        .iter()
        .filter(|m| m.profile().supports_design2sva)
        .map(|m| m as &dyn Backend)
        .collect();
    let d2s_cfg = InferenceConfig::sampling();
    for jobs in [1usize, cpus] {
        g.bench_with_input(
            BenchmarkId::new("table5_scale_jobs", jobs),
            &jobs,
            |b, &jobs| {
                b.iter(|| {
                    let engine = EvalEngine::with_jobs(jobs);
                    black_box(engine.run_matrix(&d2s_backends, &design_tasks, &d2s_cfg, 5))
                })
            },
        );
    }

    // Verdict-cache hit path: the engine is warmed once, every
    // iteration replays the whole Table 4-scale work-list from cache.
    let warmed = EvalEngine::with_jobs(cpus);
    warmed.run_matrix(&backends, &tasks, &cfg, 5);
    g.bench_function("table4_scale_cached_rerun", |b| {
        b.iter(|| black_box(warmed.run_matrix(&backends, &tasks, &cfg, 5)))
    });
    g.finish();
}

/// The scenario generator subsystem at Table-2 scale: pure suite
/// generation (no proving), the golden-verdict validation pass that
/// pushes every generated candidate through the incremental prover
/// (~120 properties, the same order as Table 2's 79-reference query
/// mix), and a full `EvalEngine` pass over a generated Design2SVA
/// work-list.
fn bench_scenario_gen(c: &mut Criterion) {
    let mut g = c.benchmark_group("scenario_gen");
    g.sample_size(10).measurement_time(Duration::from_secs(20));

    let cfg = fveval_data::SuiteConfig {
        per_family: 4,
        seed: 0x5CE7,
        ..Default::default()
    };
    g.bench_function("generate_suite_24", |b| {
        b.iter(|| black_box(fveval_gen::generate_suite(&cfg)))
    });

    let suite = fveval_gen::generate_suite(&cfg);
    assert!(
        suite.candidate_count() >= 100,
        "Table-2-order query count ({})",
        suite.candidate_count()
    );
    g.bench_function("validate_goldens_table2_scale", |b| {
        b.iter(|| {
            let reports =
                fveval_gen::validate_suite(&suite, ProveConfig::default()).expect("binds");
            for r in &reports {
                assert!(r.is_clean(), "{}: {:?}", r.id, r.problems);
            }
            black_box(reports)
        })
    });

    // The mutation path: OP-Tree derivation is prove-gated (every
    // tentative mutant is proven falsifiable and its counterexample
    // replayed before acceptance), so this measures derivation-time
    // prover throughput on a mutation-rich family.
    let fifo = fveval_gen::generator("fifo").expect("registered");
    let scenario = fifo.generate(&fveval_gen::GenParams {
        depth: 4,
        width: 8,
        seed: 0x5CE7,
    });
    g.bench_function("derive_mutants_fifo_8", |b| {
        b.iter(|| {
            let mutants = fveval_gen::derive_mutants(&scenario, 8);
            assert!(!mutants.is_empty(), "fifo yields mutants");
            black_box(mutants)
        })
    });

    // One strong model over the generated Design2SVA set through the
    // engine (bind cache + model checker; fresh engine per iteration).
    let set = fveval_data::task_set_from_suite(suite).expect("converts");
    let design_tasks = design_task_specs(&set.designs);
    let models = profiles();
    let backend = &models[0];
    let d2s_cfg = InferenceConfig::sampling();
    g.bench_function("engine_generated_design2sva", |b| {
        b.iter(|| {
            let engine = EvalEngine::with_jobs(1);
            black_box(engine.run(backend, &design_tasks, &d2s_cfg, 3))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sat,
    bench_parser,
    bench_equivalence,
    bench_model_checking,
    bench_formal_core,
    bench_eval_engine,
    bench_scenario_gen
);
criterion_main!(benches);
