//! The `portfolio` group: engine strategies on a deep-inductive
//! invariant.
//!
//! The workload is the `deepcnt` generator's headline candidate — a
//! wrap-at-limit counter whose unreachable top band sits deeper than
//! any k the BMC + k-induction schedule tries, so the bounded engine
//! burns its full depth budget and still answers `Undetermined` while
//! IC3/PDR closes the proof from a handful of learned clauses:
//!
//! - `bounded_exhausts_deepcnt` — the bounded schedule's full
//!   walk to `Undetermined` (what the portfolio pays before PDR).
//! - `pdr_proves_deepcnt` — the PDR engine alone.
//! - `portfolio_proves_deepcnt` — the bounded walk, then PDR on the
//!   same thread: the configuration `--engine portfolio` ships, so
//!   about the sum of the two above.

use criterion::{criterion_group, criterion_main, Criterion};
use fv_core::{prove_with_stats, ProveConfig, ProveEngine, ProveResult};
use fveval_gen::GenParams;
use std::hint::black_box;
use std::time::Duration;

fn engine_cfg(engine: ProveEngine) -> ProveConfig {
    ProveConfig { engine }
}

fn bench_portfolio(c: &mut Criterion) {
    let mut g = c.benchmark_group("portfolio");
    g.sample_size(10).measurement_time(Duration::from_secs(10));

    let scenario = fveval_gen::generator("deepcnt")
        .expect("deepcnt registered")
        .generate(&GenParams::default());
    let compiled = scenario.compile().expect("deepcnt compiles");
    let headline = scenario
        .candidates
        .iter()
        .find(|cand| cand.name == "top_band_unreachable")
        .expect("headline candidate");
    let assertion = sv_parser::parse_assertion_str(&headline.sva).expect("headline parses");

    // Sanity: this is genuinely the bounded engine's blind spot, and
    // both reachability-aware configurations close it.
    let run = |engine| {
        prove_with_stats(
            compiled.netlist(),
            &assertion,
            compiled.consts(),
            engine_cfg(engine),
        )
        .unwrap()
        .0
    };
    assert_eq!(run(ProveEngine::Bounded), ProveResult::Undetermined);
    assert!(run(ProveEngine::Pdr).is_proven());
    assert!(run(ProveEngine::Portfolio).is_proven());

    for (name, engine) in [
        ("bounded_exhausts_deepcnt", ProveEngine::Bounded),
        ("pdr_proves_deepcnt", ProveEngine::Pdr),
        ("portfolio_proves_deepcnt", ProveEngine::Portfolio),
    ] {
        g.bench_function(name, |b| b.iter(|| black_box(run(engine))));
    }

    g.finish();
}

criterion_group!(benches, bench_portfolio);
criterion_main!(benches);
