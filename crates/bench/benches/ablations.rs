//! Ablation benches for the formal core's main design choices:
//!
//! - **Horizon sensitivity** — how the equivalence-check cost grows
//!   with the bounded-trace horizon slack.
//! - **Formal vs. simulation** — the cost (and soundness gap) of
//!   replacing the formal equivalence verdict by random-simulation
//!   differential testing: simulation misses the weak/strong partial
//!   cases that the paper's metric depends on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fv_core::{check_equivalence, compile_expr, EquivConfig, FreeTraceEnv, SignalTable};
use std::hint::black_box;
use sv_parser::parse_assertion_str;

fn table() -> SignalTable {
    [("wr_push", 1u32), ("rd_pop", 1), ("tb_reset", 1)]
        .into_iter()
        .collect()
}

fn bench_horizon_sensitivity(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_horizon");
    g.sample_size(20);
    let reference = parse_assertion_str(
        "assert property (@(posedge clk) disable iff (tb_reset) \
         wr_push |-> strong(##[0:$] rd_pop));",
    )
    .unwrap();
    let candidate = parse_assertion_str(
        "assert property (@(posedge clk) disable iff (tb_reset) \
         wr_push |-> ##[1:$] rd_pop);",
    )
    .unwrap();
    let t = table();
    for slack in [2u32, 4, 8, 16] {
        g.bench_with_input(BenchmarkId::new("slack", slack), &slack, |b, &slack| {
            let cfg = EquivConfig { slack };
            b.iter(|| black_box(check_equivalence(&reference, &candidate, &t, cfg).unwrap()))
        });
    }
    g.finish();
}

/// Simulation-based "equivalence": evaluate both assertions on N random
/// traces and compare verdicts — the approach the paper rejects in
/// favour of formal equivalence. Always reports "equivalent" for the
/// weak/strong pair because no finite random trace distinguishes a weak
/// obligation from a strong one within the window.
fn simulation_equivalent(reference: &str, candidate: &str, traces: usize) -> bool {
    use fv_aig::{Aig, AigEvaluator};
    use fv_core::encode_assertion;

    let r = parse_assertion_str(reference).unwrap();
    let c = parse_assertion_str(candidate).unwrap();
    let t = table();
    let mut g = Aig::new();
    let mut env = FreeTraceEnv::new(&t);
    let lr = encode_assertion(&mut g, &r, 6, &mut env).unwrap();
    let lc = encode_assertion(&mut g, &c, 6, &mut env).unwrap();
    // Deterministic pseudo-random stimulus over the allocated inputs.
    let mut seed = 0xACE1u64;
    let mut agree = true;
    for _ in 0..traces {
        let n_inputs = g.num_inputs();
        let mut values = Vec::with_capacity(n_inputs);
        for _ in 0..n_inputs {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            values.push(seed & 1 == 1);
        }
        let ev = AigEvaluator::combinational(&g, &values);
        if ev.lit(lr) != ev.lit(lc) {
            agree = false;
            break;
        }
    }
    agree
}

fn bench_formal_vs_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_formal_vs_sim");
    g.sample_size(20);
    let reference = "assert property (@(posedge clk) disable iff (tb_reset) \
                     wr_push |-> strong(##[0:$] rd_pop));";
    let candidate = "assert property (@(posedge clk) disable iff (tb_reset) \
                     wr_push |-> ##[1:$] rd_pop);";
    // Correctness context: simulation cannot distinguish the pair that
    // formal analysis proves one-way implied (the partial metric).
    assert!(
        simulation_equivalent(reference, candidate, 256),
        "random simulation wrongly reports equivalence (motivates the formal metric)"
    );
    let r = parse_assertion_str(reference).unwrap();
    let cd = parse_assertion_str(candidate).unwrap();
    let t = table();
    assert!(
        !check_equivalence(&r, &cd, &t, EquivConfig::default())
            .unwrap()
            .verdict
            .is_equivalent(),
        "formal analysis distinguishes the pair"
    );
    g.bench_function("formal_equivalence", |b| {
        b.iter(|| black_box(check_equivalence(&r, &cd, &t, EquivConfig::default()).unwrap()))
    });
    for traces in [64usize, 256] {
        g.bench_with_input(
            BenchmarkId::new("simulation_traces", traces),
            &traces,
            |b, &n| b.iter(|| black_box(simulation_equivalent(reference, candidate, n))),
        );
    }
    g.finish();
}

fn bench_strash_effect(c: &mut Criterion) {
    // Structural hashing keeps repeated monitor encodings shared; this
    // bench quantifies the encoding cost of a wide expression with and
    // without sharing opportunities.
    let mut g = c.benchmark_group("ablation_strash");
    g.sample_size(30);
    let t: SignalTable = [("x", 64u32)].into_iter().collect();
    let shared = sv_parser::parse_expr_str("(x + x) ^ (x + x) ^ (x + x)").unwrap();
    let chain = sv_parser::parse_expr_str("((x + 1) ^ (x + 2)) + ((x + 3) ^ (x + 4))").unwrap();
    g.bench_function("shared_subterms", |b| {
        b.iter(|| {
            let mut aig = fv_aig::Aig::new();
            let mut env = FreeTraceEnv::new(&t);
            black_box(compile_expr(&mut aig, &shared, 0, &mut env).unwrap());
            black_box(aig.num_ands())
        })
    });
    g.bench_function("distinct_subterms", |b| {
        b.iter(|| {
            let mut aig = fv_aig::Aig::new();
            let mut env = FreeTraceEnv::new(&t);
            black_box(compile_expr(&mut aig, &chain, 0, &mut env).unwrap());
            black_box(aig.num_ands())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_horizon_sensitivity,
    bench_formal_vs_simulation,
    bench_strash_effect
);
criterion_main!(benches);
