//! Reads `records.json`: seeds, dataset pools and reference digests.

use fveval_serve::json::{parse, Json};
use std::sync::OnceLock;

fn records() -> &'static Json {
    static RECORDS: OnceLock<Json> = OnceLock::new();
    RECORDS
        .get_or_init(|| parse(include_str!("../records.json")).expect("records.json is valid JSON"))
}

fn workload(name: &str) -> &'static Json {
    records()
        .get("workloads")
        .and_then(|w| w.get(name))
        .unwrap_or_else(|| panic!("records.json has no workload {name}"))
}

/// Whether `seed` is the workload's recorded held-out seed, which runs
/// inputs disjoint from those of every other seed.
pub fn held_out(name: &str, seed: u64) -> bool {
    workload(name)
        .get("seeds")
        .and_then(|s| s.get("held_out"))
        .and_then(Json::as_u64)
        == Some(seed)
}

fn pool_key(name: &str, seed: u64) -> &'static str {
    if held_out(name, seed) {
        "held_out"
    } else {
        "development"
    }
}

/// The dataset seeds a `--seed` selects, in the order a run uses them:
/// the held-out pool for the held-out seed and the development pool for
/// every other, rotated to start at entry `seed mod len`, so every run
/// has reference digests and covers the same mix.
pub fn dataset_pool(name: &str, seed: u64) -> Vec<u64> {
    let pool: Vec<u64> = workload(name)
        .get("seeds")
        .and_then(|s| s.get("dataset_pools"))
        .and_then(|p| p.get(pool_key(name, seed)))
        .and_then(Json::as_arr)
        .expect("the workload records its dataset pools")
        .iter()
        .map(|s| s.as_u64().expect("dataset seeds are integers"))
        .collect();
    let start = (seed % pool.len() as u64) as usize;
    pool[start..]
        .iter()
        .chain(&pool[..start])
        .copied()
        .collect()
}

/// Reference `(artifact, digest)` pairs of one paper-tables dataset.
pub fn paper_digests(data_seed: u64) -> Vec<(String, String)> {
    match workload("paper-tables")
        .get("reference")
        .and_then(|r| r.get(&data_seed.to_string()))
    {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
            .collect(),
        _ => Vec::new(),
    }
}

/// Recorded digest of the `EvalEngine` result of serve-mixed template
/// `index` (prefilled templates first) in the pool `seed` selects.
pub fn serve_digest(seed: u64, index: usize) -> Option<String> {
    workload("serve-mixed")
        .get("reference")
        .and_then(|r| r.get(pool_key("serve-mixed", seed)))
        .and_then(Json::as_arr)
        .and_then(|r| r.get(index))
        .and_then(Json::as_str)
        .map(str::to_string)
}
