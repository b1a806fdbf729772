//! The unified evaluation engine: batched inference, a scoped-thread
//! worker pool, and verdict caching over one enumerable work-list.
//!
//! [`EvalEngine`] executes the `model × case × sample` product behind a
//! single API. Work is partitioned **case-major**: one group = one
//! case across every backend and sample. The calling thread first
//! settles every group the verdict cache answers in full; each other
//! group is executed end to end by a single worker thread. Within a
//! group, all candidates stream through one shared *proof session* (a
//! [`fv_core::ProofSession`] over the compiled design for Design2SVA,
//! an [`fv_core::EquivSession`] over the compiled reference for
//! NL2SVA), so unrollings, monitor encodings, and solver state
//! amortize across samples *and* models — and because a session never
//! migrates across threads and candidate order within a group is
//! fixed, a parallel run produces byte-identical results (and
//! jobs-invariant prover counters) to a sequential one.
//!
//! Two caches amortize repeated work across tables:
//!
//! - the **verdict cache**, keyed by `(model, task-id, content digest,
//!   cfg, sample)`, skips inference *and* formal scoring for cases
//!   shared between experiments (Tables 1/2 and Figure 6 all reuse
//!   the human set). Behind its one lock, an interner holds each
//!   model name, task id and cfg key once, and the map and the store
//!   flush queue hold a 24-byte `Copy` key of their symbols, the
//!   digest and the sample; the cache pass takes that lock once per
//!   case group;
//! - the **compiled-design cache**, content-addressed by `(id, source
//!   digest)`, reuses each Design2SVA case's [`CompiledDesign`]
//!   (whole-file elaboration + DUT binding) across all backends,
//!   samples, and — when one engine serves many jobs — runs.

use crate::design2sva::compile_design;
use crate::metrics::{CaseEvals, SampleEval};
use crate::score::Scorer;
use fv_core::{CompiledDesign, ProveConfig, ProverStats, SignalTable};
use fveval_data::{DesignCase, HumanCase, MachineCase};
use fveval_llm::{Backend, InferenceConfig, Request, TaskSpec};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use sv_ast::{Interner, Symbol, SymbolMap};

/// Verdict-cache counters (monotonic over the engine's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Samples answered from verdicts computed by *this* engine.
    pub hits: u64,
    /// Samples answered from verdicts preloaded via
    /// [`EvalEngine::load_verdicts`] (a persistent store). Disjoint
    /// from `hits`; total cache hits are `hits + persisted_hits`.
    pub persisted_hits: u64,
    /// Samples that required inference + scoring.
    pub misses: u64,
    /// Verdicts currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from preloaded (persisted) verdicts,
    /// in `[0, 1]`; `0` when no lookups happened.
    pub fn persisted_hit_rate(&self) -> f64 {
        let total = self.hits + self.persisted_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.persisted_hits as f64 / total as f64
        }
    }
}

/// One verdict in portable form: the full cache key plus the scored
/// sample. This is the unit a persistent verdict store (see the
/// `fveval-serve` crate) loads into an engine at startup and drains
/// back out after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictRecord {
    /// Backend name (first key component).
    pub model: String,
    /// Task id.
    pub task_id: String,
    /// [`fveval_llm::TaskSpec::content_digest`] of the task.
    pub digest: u64,
    /// [`InferenceConfig::fingerprint`] of the inference config, plus
    /// the engine name when a Design2SVA task was scored under a
    /// non-default [`ProveConfig`].
    pub cfg: String,
    /// Sample index within the task.
    pub sample: u32,
    /// The scored sample.
    pub eval: SampleEval,
}

impl VerdictRecord {
    /// The record's cache key.
    pub fn key(&self) -> VerdictKey {
        (
            self.model.clone(),
            self.task_id.clone(),
            self.digest,
            self.cfg.clone(),
            self.sample,
        )
    }

    /// The record of `eval` under `key`.
    pub fn from_parts(key: &VerdictKey, eval: SampleEval) -> VerdictRecord {
        VerdictRecord {
            model: key.0.clone(),
            task_id: key.1.clone(),
            digest: key.2,
            cfg: key.3.clone(),
            sample: key.4,
            eval,
        }
    }
}

/// Cache key: `(model, task-id, content digest, cfg, sample)`, with
/// `cfg` as in [`VerdictRecord::cfg`]. The digest guards against id
/// collisions between differently-seeded dataset generations (machine
/// case ids are always `nl2sva_machine_0000..` regardless of the
/// generator seed).
pub type VerdictKey = (String, String, u64, String, u32);

/// Compiled-design cache key and value: `(design id, source digest)`
/// to the shared compile outcome. Content-addressing by digest keeps
/// same-id cases from differently-seeded generations apart.
type CompiledKey = (String, u64);
type SharedCompiled = Arc<Result<CompiledDesign, String>>;

/// The cache's form of a [`VerdictKey`]: its strings as symbols of the
/// cache's interner, which lives behind the same lock as every map and
/// queue that holds a `Key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    model: Symbol,
    task: Symbol,
    cfg: Symbol,
    sample: u32,
    digest: u64,
}

// The map and the flush queue each hold one `Key` per verdict.
const _: () = assert!(std::mem::size_of::<Key>() <= 24);

/// The order [`EvalEngine::take_unpersisted`] drains in: [`VerdictKey`]'s.
fn record_order(record: &VerdictRecord) -> (&str, &str, u64, &str, u32) {
    (
        &record.model,
        &record.task_id,
        record.digest,
        &record.cfg,
        record.sample,
    )
}

/// One backend's settled samples for `task`.
fn case_evals(task: &TaskSpec, samples: Vec<Option<SampleEval>>) -> CaseEvals {
    CaseEvals {
        id: task.id().to_string(),
        samples: samples
            .into_iter()
            .map(|s| s.expect("every sample resolved"))
            .collect(),
    }
}

/// A case group the cache pass could not answer in full: the key
/// parts it looked its verdicts up by, and what it found.
struct ColdGroup {
    /// The task's position in the work-list.
    index: usize,
    digest: u64,
    task: Symbol,
    cfg: Symbol,
    /// Per backend, per sample: the cached verdict, or `None`.
    cached: Vec<Vec<Option<SampleEval>>>,
}

/// One cached verdict plus where it came from: verdicts preloaded from
/// a persistent store count as `persisted_hits` and are never drained
/// back out by [`EvalEngine::take_unpersisted`].
#[derive(Debug, Clone, Copy)]
struct CachedVerdict {
    eval: SampleEval,
    persisted: bool,
}

/// The verdict cache. The engine keeps it behind one `Mutex`, which
/// therefore guards the interner together with every [`Key`] minted
/// from it.
#[derive(Debug, Default)]
struct VerdictCache {
    /// Backend names, task ids and cfg keys.
    names: Interner,
    map: SymbolMap<Key, CachedVerdict>,
    /// Verdicts computed since the last [`VerdictCache::take_pending`],
    /// in insertion order — the flush queue for a persistent store.
    pending: Vec<(Key, SampleEval)>,
    /// Lookup counters; `entries` is read off the map.
    counts: CacheStats,
}

impl VerdictCache {
    /// The key of a verdict, interning its strings.
    fn key(&mut self, model: &str, task_id: &str, digest: u64, cfg: &str, sample: u32) -> Key {
        Key {
            model: self.names.intern(model),
            task: self.names.intern(task_id),
            cfg: self.names.intern(cfg),
            sample,
            digest,
        }
    }

    fn get(&mut self, key: Key) -> Option<SampleEval> {
        let found = self.map.get(&key).copied();
        match found {
            Some(c) if c.persisted => self.counts.persisted_hits += 1,
            Some(_) => self.counts.hits += 1,
            None => self.counts.misses += 1,
        }
        found.map(|c| c.eval)
    }

    /// Caches a computed verdict and queues it for the store, unless
    /// the key is already cached: two jobs that overlap in time can
    /// both miss a key and both score it, and only the first to insert
    /// queues it. Decided under the cache lock, so a key is queued at
    /// most once.
    fn insert(&mut self, key: Key, eval: SampleEval) {
        if let Entry::Vacant(slot) = self.map.entry(key) {
            slot.insert(CachedVerdict {
                eval,
                persisted: false,
            });
            self.pending.push((key, eval));
        }
    }

    fn preload(&mut self, records: impl IntoIterator<Item = VerdictRecord>) -> usize {
        let mut loaded = 0usize;
        for record in records {
            let key = self.key(
                &record.model,
                &record.task_id,
                record.digest,
                &record.cfg,
                record.sample,
            );
            self.map.insert(
                key,
                CachedVerdict {
                    eval: record.eval,
                    persisted: true,
                },
            );
            loaded += 1;
        }
        loaded
    }

    /// Drains the flush queue into records, in queue order.
    fn take_pending(&mut self) -> Vec<VerdictRecord> {
        let names = &self.names;
        std::mem::take(&mut self.pending)
            .into_iter()
            .map(|(key, eval)| VerdictRecord {
                model: names.resolve(key.model).to_string(),
                task_id: names.resolve(key.task).to_string(),
                digest: key.digest,
                cfg: names.resolve(key.cfg).to_string(),
                sample: key.sample,
                eval,
            })
            .collect()
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.len(),
            ..self.counts
        }
    }
}

/// The unified evaluation engine.
///
/// Construct one per experiment run (or share one across experiments to
/// pool the caches), hand it any [`Backend`] plus a task list built
/// with [`human_task_specs`] / [`machine_task_specs`] /
/// [`design_task_specs`], and collect per-case metrics.
///
/// # Examples
///
/// ```
/// use fveval_core::{machine_task_specs, EvalEngine, MetricSummary};
/// use fveval_data::{generate_machine_cases, machine_signal_table, MachineGenConfig};
/// use fveval_llm::{profiles, InferenceConfig};
///
/// let cases = generate_machine_cases(MachineGenConfig {
///     count: 10,
///     ..Default::default()
/// });
/// let tasks = machine_task_specs(&cases, &machine_signal_table());
/// let engine = EvalEngine::with_jobs(2);
/// let models = profiles();
/// let evals = engine.run(&models[0], &tasks, &InferenceConfig::greedy(), 1);
/// assert_eq!(evals.len(), 10);
/// let summary = MetricSummary::from_first_samples(&evals);
/// assert!(summary.syntax > 0.0);
/// ```
#[derive(Debug)]
pub struct EvalEngine {
    jobs: usize,
    prove_cfg: ProveConfig,
    verdicts: Mutex<VerdictCache>,
    compiled: Mutex<HashMap<CompiledKey, SharedCompiled>>,
    /// Aggregate formal-core work counters, merged under one lock per
    /// scored sample (each of which just did parse + formal work, so
    /// this is nowhere near the hot path). Cache hits skip scoring, so
    /// only formal work actually performed is counted.
    prover: Mutex<ProverStats>,
}

impl Default for EvalEngine {
    fn default() -> EvalEngine {
        EvalEngine::new()
    }
}

impl EvalEngine {
    /// Engine with one worker per available CPU.
    pub fn new() -> EvalEngine {
        EvalEngine::with_jobs(0)
    }

    /// Engine with a fixed worker count; `0` means "available
    /// parallelism" and `1` runs fully sequentially (no threads).
    pub fn with_jobs(jobs: usize) -> EvalEngine {
        EvalEngine {
            jobs: if jobs == 0 {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            } else {
                jobs
            },
            prove_cfg: ProveConfig::default(),
            verdicts: Mutex::default(),
            compiled: Mutex::new(HashMap::new()),
            prover: Mutex::new(ProverStats::default()),
        }
    }

    /// Overrides the prover config (the engine) Design2SVA responses
    /// are scored under (default [`ProveConfig::default`]).
    pub fn with_prove_config(mut self, cfg: ProveConfig) -> EvalEngine {
        self.prove_cfg = cfg;
        self
    }

    /// The effective worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Verdict-cache counters so callers can report hit rates.
    pub fn cache_stats(&self) -> CacheStats {
        self.verdicts().stats()
    }

    fn verdicts(&self) -> MutexGuard<'_, VerdictCache> {
        self.verdicts.lock().expect("verdict cache poisoned")
    }

    /// Preloads verdicts from a persistent store into the cache.
    /// Lookups they answer count as [`CacheStats::persisted_hits`],
    /// and they are never handed back by
    /// [`EvalEngine::take_unpersisted`]. Returns the number of records
    /// loaded. A record whose key is already cached is overwritten
    /// (last load wins), so load before running.
    pub fn load_verdicts(&self, records: impl IntoIterator<Item = VerdictRecord>) -> usize {
        self.verdicts().preload(records)
    }

    /// Drains every verdict computed (not preloaded) since the engine
    /// was built or this method last ran, one record per cache key,
    /// sorted by [`VerdictKey`] so the result is deterministic for any
    /// `jobs` setting. The cache queues compact keys; a drained
    /// verdict's strings are copied into its record only here. The
    /// caller — typically the `fveval-serve` crate's `VerdictStore`,
    /// via the server or the `fveval` CLI — appends these to disk so
    /// the next process starts warm.
    pub fn take_unpersisted(&self) -> Vec<VerdictRecord> {
        let mut records = self.verdicts().take_pending();
        // Parallel workers race on queue order; sort, outside the
        // lock, so the drain (and so a store segment) is deterministic.
        // Keys are distinct, so the unstable sort is total.
        records.sort_unstable_by(|a, b| record_order(a).cmp(&record_order(b)));
        records
    }

    /// Aggregate formal-core work counters over the engine's lifetime:
    /// how many prover queries were discharged by SAT, killed by random
    /// simulation, killed by ternary propagation, and how often a SAT
    /// call ran on a reused (already-warmed) solver. Verdict-cache hits
    /// skip scoring, so cached repeats add nothing here.
    pub fn prover_stats(&self) -> ProverStats {
        *self.prover.lock().expect("prover counters poisoned")
    }

    /// Folds formal-core work done *outside* the engine's own scoring
    /// into [`EvalEngine::prover_stats`] — e.g. a golden-verdict
    /// validation pass run next to an evaluation — so a command's
    /// stats surface accounts for every prover query the process
    /// actually discharged.
    pub fn record_prover_work(&self, stats: &ProverStats) {
        self.prover
            .lock()
            .expect("prover counters poisoned")
            .merge(stats);
    }

    /// Runs one backend over a task list with `n_samples` responses per
    /// case. Results are in task order, one [`CaseEvals`] per task, and
    /// are identical for any `jobs` setting.
    ///
    /// # Examples
    ///
    /// ```
    /// use fveval_core::{human_task_specs, EvalEngine};
    /// use fveval_data::{human_cases, signal_table_for, testbenches};
    /// use fveval_llm::{profiles, InferenceConfig};
    /// use std::collections::HashMap;
    ///
    /// let cases: Vec<_> = human_cases().into_iter().take(5).collect();
    /// let tables: HashMap<&str, _> = testbenches()
    ///     .iter()
    ///     .map(|tb| (tb.name, signal_table_for(tb).unwrap()))
    ///     .collect();
    /// let engine = EvalEngine::with_jobs(1);
    /// let models = profiles();
    /// let evals = engine.run(
    ///     &models[0],
    ///     &human_task_specs(&cases, &tables),
    ///     &InferenceConfig::greedy(),
    ///     2,
    /// );
    /// assert_eq!(evals.len(), 5);
    /// assert!(evals.iter().all(|c| c.samples.len() == 2));
    /// ```
    pub fn run(
        &self,
        backend: &dyn Backend,
        tasks: &[Arc<TaskSpec>],
        cfg: &InferenceConfig,
        n_samples: u32,
    ) -> Vec<CaseEvals> {
        self.run_matrix(&[backend], tasks, cfg, n_samples)
            .pop()
            .unwrap_or_default()
    }

    /// Runs the full `backends × tasks × samples` work-list. Returns
    /// one `Vec<CaseEvals>` per backend, in input order; `result[b][t]`
    /// holds backend `b`'s samples for task `t`.
    ///
    /// Work is partitioned case-major: one group per task, covering
    /// every backend and sample. A cache pass on the calling thread
    /// looks every verdict up once and settles each group the cache
    /// answers in full; a work pass then hands each remaining group to
    /// a single worker of the pool — so the per-case proof session
    /// never migrates across threads and the candidate stream order
    /// (backends in input order, samples ascending) is fixed for any
    /// `jobs` setting. Results *and* prover counters are therefore
    /// jobs-invariant. The tradeoff: effective parallelism is
    /// `min(jobs, groups to score)`, so a work-list with fewer such
    /// cases than workers leaves some idle — benchmark tables have
    /// dozens-to-hundreds of cases, where this never binds.
    ///
    /// Every lookup happens before any verdict is computed, so a
    /// work-list that repeats a `(task id, content digest)` pair scores
    /// both copies; the cache keeps the first verdict per key, and
    /// [`EvalEngine::take_unpersisted`] hands back one record per key.
    /// No list built by this crate, the `fveval` CLI or the server
    /// repeats one.
    pub fn run_matrix(
        &self,
        backends: &[&dyn Backend],
        tasks: &[Arc<TaskSpec>],
        cfg: &InferenceConfig,
        n_samples: u32,
    ) -> Vec<Vec<CaseEvals>> {
        self.run_matrix_with_progress(backends, tasks, cfg, n_samples, &|_, _| {})
    }

    /// [`EvalEngine::run_matrix`] with a completion callback
    /// `progress(done, total)`, where `total` is the number of case
    /// groups (one task across every backend and sample) and `done`
    /// the number settled so far.
    ///
    /// If the cache answers any group in full, the calling thread
    /// reports those groups in one call, before any other. Each other
    /// group reports once when it finishes, from the thread that ran
    /// it. The `done` values are distinct and the largest is `total`,
    /// but calls from different workers may arrive out of order: a
    /// caller that wants a monotone view keeps the largest `done` it
    /// has seen. The callback must be cheap and `Sync`. Results are
    /// identical to `run_matrix` for any callback.
    pub fn run_matrix_with_progress(
        &self,
        backends: &[&dyn Backend],
        tasks: &[Arc<TaskSpec>],
        cfg: &InferenceConfig,
        n_samples: u32,
        progress: &(dyn Fn(usize, usize) + Sync),
    ) -> Vec<Vec<CaseEvals>> {
        let n_samples = n_samples.max(1);
        if backends.is_empty() || tasks.is_empty() {
            return backends.iter().map(|_| Vec::new()).collect();
        }
        // ---- Cache pass: settle every group the cache answers. ----
        let models: Vec<Symbol> = {
            let mut cache = self.verdicts();
            backends
                .iter()
                .map(|b| cache.names.intern(b.name()))
                .collect()
        };
        let mut groups: Vec<Option<Vec<CaseEvals>>> = Vec::with_capacity(tasks.len());
        let mut cold: Vec<ColdGroup> = Vec::new();
        for (index, task) in tasks.iter().enumerate() {
            let digest = task.content_digest();
            let cfg_key = self.verdict_cfg(task, cfg);
            // One lock per group: intern its names, then look up every
            // (backend, sample) verdict.
            let mut cache = self.verdicts();
            let task_sym = cache.names.intern(task.id());
            let cfg_sym = cache.names.intern(&cfg_key);
            let cached: Vec<Vec<Option<SampleEval>>> = models
                .iter()
                .map(|&model| {
                    (0..n_samples)
                        .map(|sample| {
                            cache.get(Key {
                                model,
                                task: task_sym,
                                cfg: cfg_sym,
                                sample,
                                digest,
                            })
                        })
                        .collect()
                })
                .collect();
            drop(cache);
            if cached.iter().flatten().all(Option::is_some) {
                groups.push(Some(
                    cached
                        .into_iter()
                        .map(|samples| case_evals(task, samples))
                        .collect(),
                ));
            } else {
                groups.push(None);
                cold.push(ColdGroup {
                    index,
                    digest,
                    task: task_sym,
                    cfg: cfg_sym,
                    cached,
                });
            }
        }
        let warm = tasks.len() - cold.len();
        if warm > 0 {
            progress(warm, tasks.len());
        }

        // ---- Work pass: infer and score the rest. ----
        let done = AtomicUsize::new(warm);
        let run_group = |group: &ColdGroup| {
            let evals = self.eval_group(
                backends,
                &models,
                &tasks[group.index],
                group,
                cfg,
                n_samples,
            );
            progress(done.fetch_add(1, Ordering::AcqRel) + 1, tasks.len());
            evals
        };
        let workers = self.jobs.min(cold.len());
        if workers <= 1 {
            for group in &cold {
                groups[group.index] = Some(run_group(group));
            }
        } else {
            let next = AtomicUsize::new(0);
            let settled: Vec<Vec<(usize, Vec<CaseEvals>)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut settled = Vec::new();
                            while let Some(group) = cold.get(next.fetch_add(1, Ordering::Relaxed)) {
                                settled.push((group.index, run_group(group)));
                            }
                            settled
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| {
                        handle
                            .join()
                            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                    })
                    .collect()
            });
            for (index, evals) in settled.into_iter().flatten() {
                groups[index] = Some(evals);
            }
        }

        let mut rows: Vec<Vec<CaseEvals>> = backends
            .iter()
            .map(|_| Vec::with_capacity(tasks.len()))
            .collect();
        for group in groups {
            let group = group.expect("every group settled");
            for (row, evals) in rows.iter_mut().zip(group) {
                row.push(evals);
            }
        }
        rows
    }

    /// Evaluates one case group the cache pass could not answer in
    /// full, in two phases: (1) per backend, batch the misses through
    /// [`Backend::generate_batch`]; (2) score every miss, in backend
    /// order then sample order, through the case's one [`Scorer`].
    fn eval_group(
        &self,
        backends: &[&dyn Backend],
        models: &[Symbol],
        task: &Arc<TaskSpec>,
        group: &ColdGroup,
        cfg: &InferenceConfig,
        n_samples: u32,
    ) -> Vec<CaseEvals> {
        let (kind, mutation) = match task.as_ref() {
            TaskSpec::Nl2svaHuman { case, .. } => ("nl2sva-human", case.mutation.as_deref()),
            TaskSpec::Nl2svaMachine { case, .. } => ("nl2sva-machine", case.mutation.as_deref()),
            TaskSpec::Design2sva { .. } => ("design2sva", None),
        };
        let mut span = fv_trace::span!(
            "engine.case",
            task = task.id(),
            kind = kind,
            backends = backends.len(),
            samples = n_samples
        );
        if let Some(tag) = mutation {
            span.attr("mutation", tag);
        }
        let digest = group.digest;
        let key = |model: Symbol, sample: u32| Key {
            model,
            task: group.task,
            cfg: group.cfg,
            sample,
            digest,
        };
        // ---- Phase 1: inference for the misses. ----
        struct PreparedUnit {
            samples: Vec<Option<SampleEval>>,
            /// `(sample index, response)` pairs awaiting scoring.
            missing: Vec<(u32, String)>,
        }
        let mut prepared: Vec<PreparedUnit> = Vec::with_capacity(backends.len());
        for ((backend, &model), cached) in backends.iter().zip(models).zip(&group.cached) {
            let mut samples = cached.clone();
            let missing_idx: Vec<u32> = (0..n_samples)
                .filter(|&i| samples[i as usize].is_none())
                .collect();
            let mut missing = Vec::new();
            if !missing_idx.is_empty() {
                // A design that fails to parse/elaborate scores every
                // sample as failed — resolve that before inference so
                // no (potentially paid, rate-limited) backend calls
                // are spent on responses that cannot be evaluated.
                let broken_design = match task.as_ref() {
                    TaskSpec::Design2sva { case } => self.compiled_design(case, digest).is_err(),
                    _ => false,
                };
                if broken_design {
                    let eval = SampleEval::failed();
                    let mut cache = self.verdicts();
                    for &sample_idx in &missing_idx {
                        cache.insert(key(model, sample_idx), eval);
                        samples[sample_idx as usize] = Some(eval);
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
                    let responses = backend.generate_batch(&reqs);
                    assert_eq!(
                        responses.len(),
                        reqs.len(),
                        "backend '{}' returned {} responses for {} requests",
                        backend.name(),
                        responses.len(),
                        reqs.len()
                    );
                    missing = missing_idx.into_iter().zip(responses).collect();
                }
            }
            prepared.push(PreparedUnit { samples, missing });
        }

        // ---- Phase 2: score the misses through one shared scorer. ---
        if prepared.iter().any(|p| !p.missing.is_empty()) {
            let mut compiled = None;
            let mut scorer = self.open_scorer(task, digest, &mut compiled);
            for (&model, unit) in models.iter().zip(&mut prepared) {
                for (sample_idx, response) in &unit.missing {
                    let eval = self.score_with(&mut scorer, response);
                    self.verdicts().insert(key(model, *sample_idx), eval);
                    unit.samples[*sample_idx as usize] = Some(eval);
                }
            }
        }
        prepared
            .into_iter()
            .map(|unit| case_evals(task, unit.samples))
            .collect()
    }

    /// The cfg part of a verdict key: the inference fingerprint, plus
    /// the engine name for a Design2SVA task scored under a
    /// non-default [`ProveConfig`]. Default-config keys stay as they
    /// were, so stores written under the default keep answering.
    fn verdict_cfg(&self, task: &TaskSpec, cfg: &InferenceConfig) -> String {
        let fingerprint = cfg.fingerprint();
        let ProveConfig { engine } = self.prove_cfg;
        match task {
            TaskSpec::Design2sva { .. } if self.prove_cfg != ProveConfig::default() => {
                format!("{fingerprint}_{}", engine.name())
            }
            _ => fingerprint,
        }
    }

    /// Opens the scorer for one case. A Design2SVA scorer borrows the
    /// case's compiled design, which is resolved from the
    /// content-addressed cache into `compiled` so it outlives the
    /// scorer; a design that fails to compile fails every response.
    fn open_scorer<'a>(
        &self,
        task: &'a TaskSpec,
        digest: u64,
        compiled: &'a mut Option<SharedCompiled>,
    ) -> Scorer<'a> {
        match task {
            TaskSpec::Nl2svaHuman { case, table } => Scorer::nl(&case.reference, table),
            TaskSpec::Nl2svaMachine { case, table } => Scorer::nl(&case.reference_text, table),
            TaskSpec::Design2sva { case } => {
                let shared: &'a SharedCompiled =
                    compiled.insert(self.compiled_design(case, digest));
                match shared.as_ref() {
                    Ok(design) => Scorer::design(design, self.prove_cfg),
                    Err(_) => Scorer::failed(),
                }
            }
        }
    }

    /// Scores one response and merges its formal-work delta into the
    /// engine counters. The `engine.score` span is the check's only
    /// timer: the `fveval` CLI ranks these spans, under their
    /// `engine.case` parents, into `slow_checks.md`.
    fn score_with(&self, scorer: &mut Scorer<'_>, response: &str) -> SampleEval {
        let _span = fv_trace::span!("engine.score");
        let (eval, stats) = scorer.score(response);
        self.prover
            .lock()
            .expect("prover counters poisoned")
            .merge(&stats);
        eval
    }

    /// Scores one response with the real evaluation pipeline: a scorer
    /// opened for this one response, with the verdict the engine's runs
    /// give it.
    pub fn score(&self, task: &TaskSpec, response: &str) -> SampleEval {
        let mut compiled = None;
        let mut scorer = self.open_scorer(task, task.content_digest(), &mut compiled);
        self.score_with(&mut scorer, response)
    }

    /// Compiles a design once (whole-file elaboration + DUT binding)
    /// and shares it across every backend, sample, and job that scores
    /// against it. Content-addressed by `(id, source digest)` so
    /// same-id cases with different RTL never share a compile.
    fn compiled_design(&self, case: &DesignCase, digest: u64) -> SharedCompiled {
        let key = (case.id.clone(), digest);
        let cached = self
            .compiled
            .lock()
            .expect("compiled-design cache poisoned")
            .get(&key)
            .map(Arc::clone);
        if let Some(bound) = cached {
            // Compile-once observed: the digest-keyed cache served this
            // design without re-elaborating.
            self.prover
                .lock()
                .expect("prover counters poisoned")
                .digest_reuse += 1;
            return bound;
        }
        // Compile outside the lock: elaboration is the expensive part.
        // A racing worker may duplicate the work, but both produce the
        // same value and the first insert wins.
        let span = fv_trace::span!("engine.compile", design = case.id.as_str());
        let bound = Arc::new(compile_design(case));
        drop(span);
        Arc::clone(
            self.compiled
                .lock()
                .expect("compiled-design cache poisoned")
                .entry(key)
                .or_insert(bound),
        )
    }
}

/// Builds the owned task list for the human set. `tables` maps
/// testbench names to signal scopes; each scope is `Arc`ed once and
/// shared by all of its cases.
pub fn human_task_specs(
    cases: &[HumanCase],
    tables: &HashMap<&str, SignalTable>,
) -> Vec<Arc<TaskSpec>> {
    let shared: HashMap<&str, Arc<SignalTable>> = tables
        .iter()
        .map(|(&name, table)| (name, Arc::new(table.clone())))
        .collect();
    cases
        .iter()
        .map(|case| {
            Arc::new(TaskSpec::Nl2svaHuman {
                case: case.clone(),
                table: Arc::clone(&shared[case.testbench.as_str()]),
            })
        })
        .collect()
}

/// Builds the combined task list for a generated scenario suite: every
/// candidate as an NL2SVA-Human-style and an NL2SVA-Machine-style task
/// (scored by equivalence in the scenario's own scope) plus one
/// Design2SVA task per scenario. Scenario ids prefix every case id, so
/// a generated work-list can share an engine with the shipped corpora
/// without cache collisions.
///
/// # Examples
///
/// ```
/// use fveval_core::{generated_task_specs, EvalEngine};
/// use fveval_data::{generated_task_set, SuiteConfig};
/// use fveval_llm::{profiles, InferenceConfig};
///
/// let set = generated_task_set(&SuiteConfig {
///     families: vec!["handshake".into()],
///     per_family: 1,
///     seed: 3,
///     ..Default::default()
/// })
/// .unwrap();
/// let tasks = generated_task_specs(&set);
/// // 5 candidates twice (human- and machine-style) + 1 design task.
/// assert_eq!(tasks.len(), 11);
/// let engine = EvalEngine::with_jobs(1);
/// let models = profiles();
/// let evals = engine.run(&models[0], &tasks, &InferenceConfig::greedy(), 1);
/// assert_eq!(evals.len(), tasks.len());
/// ```
pub fn generated_task_specs(set: &fveval_data::GeneratedTaskSet) -> Vec<Arc<TaskSpec>> {
    let shared: HashMap<&str, Arc<SignalTable>> = set
        .tables
        .iter()
        .map(|(name, table)| (name.as_str(), Arc::new(table.clone())))
        .collect();
    let mut tasks: Vec<Arc<TaskSpec>> =
        Vec::with_capacity(set.human.len() + set.machine.len() + set.designs.len());
    for case in &set.human {
        tasks.push(Arc::new(TaskSpec::Nl2svaHuman {
            case: case.clone(),
            table: Arc::clone(&shared[case.testbench.as_str()]),
        }));
    }
    for (scenario_id, case) in &set.machine {
        tasks.push(Arc::new(TaskSpec::Nl2svaMachine {
            case: case.clone(),
            table: Arc::clone(&shared[scenario_id.as_str()]),
        }));
    }
    tasks.extend(design_task_specs(&set.designs));
    tasks
}

/// Builds the owned task list for the machine set (one shared scope).
pub fn machine_task_specs(cases: &[MachineCase], table: &SignalTable) -> Vec<Arc<TaskSpec>> {
    let table = Arc::new(table.clone());
    cases
        .iter()
        .map(|case| {
            Arc::new(TaskSpec::Nl2svaMachine {
                case: case.clone(),
                table: Arc::clone(&table),
            })
        })
        .collect()
}

/// Builds the owned task list for a Design2SVA sweep.
pub fn design_task_specs(cases: &[DesignCase]) -> Vec<Arc<TaskSpec>> {
    cases
        .iter()
        .map(|case| Arc::new(TaskSpec::Design2sva { case: case.clone() }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fveval_data::{
        fsm_sweep, generate_machine_cases, human_cases, machine_signal_table, signal_table_for,
        testbenches, MachineGenConfig,
    };
    use fveval_llm::profiles;

    fn machine_tasks(count: usize) -> Vec<Arc<TaskSpec>> {
        let cases = generate_machine_cases(MachineGenConfig {
            count,
            ..Default::default()
        });
        machine_task_specs(&cases, &machine_signal_table())
    }

    #[test]
    fn parallel_matches_sequential() {
        let tasks = machine_tasks(24);
        let models = profiles();
        let backends: Vec<&dyn Backend> = models[..3].iter().map(|m| m as &dyn Backend).collect();
        let cfg = InferenceConfig::sampling();
        let seq = EvalEngine::with_jobs(1).run_matrix(&backends, &tasks, &cfg, 3);
        let par = EvalEngine::with_jobs(4).run_matrix(&backends, &tasks, &cfg, 3);
        assert_eq!(seq, par);
    }

    #[test]
    fn verdict_cache_hits_on_repeat() {
        let tasks = machine_tasks(10);
        let models = profiles();
        let engine = EvalEngine::with_jobs(2);
        let cfg = InferenceConfig::greedy();
        let first = engine.run(&models[0], &tasks, &cfg, 1);
        let after_first = engine.cache_stats();
        assert_eq!(after_first.hits, 0);
        assert_eq!(after_first.misses, 10);
        assert_eq!(after_first.entries, 10);
        let second = engine.run(&models[0], &tasks, &cfg, 1);
        let after_second = engine.cache_stats();
        assert_eq!(after_second.hits, 10, "repeat run is fully cached");
        assert_eq!(after_second.misses, 10);
        assert_eq!(first, second);
    }

    #[test]
    fn a_warm_run_settles_on_the_calling_thread_with_one_report() {
        let tasks = machine_tasks(12);
        let models = profiles();
        let backends: Vec<&dyn Backend> = models[..3].iter().map(|m| m as &dyn Backend).collect();
        let cfg = InferenceConfig::sampling();
        let engine = EvalEngine::with_jobs(4);
        let cold = engine.run_matrix(&backends, &tasks, &cfg, 2);
        let before = engine.cache_stats();
        let caller = std::thread::current().id();
        let reports = Mutex::new(Vec::new());
        let warm = engine.run_matrix_with_progress(&backends, &tasks, &cfg, 2, &|done, total| {
            let on_caller = std::thread::current().id() == caller;
            reports.lock().unwrap().push((done, total, on_caller));
        });
        assert_eq!(warm, cold);
        assert_eq!(
            reports.into_inner().unwrap(),
            [(tasks.len(), tasks.len(), true)],
            "one report, for every group, from the calling thread"
        );
        let after = engine.cache_stats();
        assert_eq!(
            after.hits - before.hits,
            (tasks.len() * backends.len() * 2) as u64
        );
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn a_half_warm_run_scores_only_the_cold_half() {
        let tables: HashMap<&str, SignalTable> = testbenches()
            .iter()
            .map(|tb| (tb.name, signal_table_for(tb).unwrap()))
            .collect();
        let human: Vec<HumanCase> = human_cases().into_iter().take(4).collect();
        let mut broken = fsm_sweep(1, 9)[0].clone();
        broken.design_source = "module garbage (syntax error".into();
        let mut tasks = human_task_specs(&human, &tables);
        tasks.extend(machine_tasks(6));
        tasks.extend(design_task_specs(&fsm_sweep(3, 5)));
        // Index 13, so the broken design falls in the cold half.
        tasks.extend(design_task_specs(&[broken]));
        let (warm_half, cold_half): (Vec<_>, Vec<_>) = tasks
            .iter()
            .cloned()
            .enumerate()
            .partition(|(t, _)| t % 2 == 0);
        let warm_half: Vec<Arc<TaskSpec>> = warm_half.into_iter().map(|(_, task)| task).collect();
        let cold_half: Vec<Arc<TaskSpec>> = cold_half.into_iter().map(|(_, task)| task).collect();
        let models = profiles();
        let backends: Vec<&dyn Backend> = models
            .iter()
            .filter(|m| m.profile().supports_design2sva)
            .take(2)
            .map(|m| m as &dyn Backend)
            .collect();
        let cfg = InferenceConfig::sampling();
        let full = EvalEngine::with_jobs(1).run_matrix(&backends, &tasks, &cfg, 2);
        let fresh = EvalEngine::with_jobs(1);
        fresh.run_matrix(&backends, &cold_half, &cfg, 2);
        for jobs in [1, 4] {
            let engine = EvalEngine::with_jobs(jobs);
            engine.run_matrix(&backends, &warm_half, &cfg, 2);
            let (stats, prover) = (engine.cache_stats(), engine.prover_stats());
            assert_eq!(
                engine.run_matrix(&backends, &tasks, &cfg, 2),
                full,
                "jobs={jobs}"
            );
            let after = engine.cache_stats();
            let delta = CacheStats {
                hits: after.hits - stats.hits,
                persisted_hits: after.persisted_hits - stats.persisted_hits,
                misses: after.misses - stats.misses,
                entries: after.entries - stats.entries,
            };
            let warm_lookups = (warm_half.len() * backends.len() * 2) as u64;
            assert_eq!(
                delta,
                CacheStats {
                    hits: warm_lookups,
                    ..fresh.cache_stats()
                },
                "jobs={jobs}"
            );
            assert_eq!(
                engine.prover_stats().delta_since(&prover),
                fresh.prover_stats(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn cache_distinguishes_same_id_cases_from_different_generations() {
        // Machine case ids are nl2sva_machine_0000.. for *every*
        // generator seed; the content digest must keep their verdicts
        // apart when one engine is shared across datasets.
        let gen = |seed| {
            generate_machine_cases(MachineGenConfig {
                count: 8,
                seed,
                ..Default::default()
            })
        };
        let (a, b) = (gen(1), gen(2));
        assert_eq!(a[0].id, b[0].id, "ids collide by construction");
        assert_ne!(a[0].reference_text, b[0].reference_text);
        let table = machine_signal_table();
        let engine = EvalEngine::with_jobs(1);
        let models = profiles();
        let cfg = InferenceConfig::greedy();
        let ea = engine.run(&models[0], &machine_task_specs(&a, &table), &cfg, 1);
        let eb = engine.run(&models[0], &machine_task_specs(&b, &table), &cfg, 1);
        assert_eq!(engine.cache_stats().hits, 0, "no cross-dataset hits");
        // And each run matches a fresh, uncontaminated engine.
        let fresh =
            EvalEngine::with_jobs(1).run(&models[0], &machine_task_specs(&b, &table), &cfg, 1);
        assert_eq!(eb, fresh);
        assert_eq!(ea.len(), 8);
    }

    #[test]
    fn cache_distinguishes_configs_and_models() {
        let tasks = machine_tasks(5);
        let models = profiles();
        let engine = EvalEngine::with_jobs(1);
        engine.run(&models[0], &tasks, &InferenceConfig::greedy(), 1);
        engine.run(
            &models[0],
            &tasks,
            &InferenceConfig::greedy().with_shots(3),
            1,
        );
        engine.run(&models[1], &tasks, &InferenceConfig::greedy(), 1);
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 0, "different (model, cfg) keys never collide");
        assert_eq!(stats.entries, 15);
    }

    #[test]
    fn cache_distinguishes_same_cases_under_different_tables() {
        // The scope affects generation and scoring; a widened table
        // must not be served verdicts computed under the old one.
        let cases = generate_machine_cases(MachineGenConfig {
            count: 4,
            ..Default::default()
        });
        let table_a = machine_signal_table();
        let mut table_b = machine_signal_table();
        table_b.insert("extra_probe", 1);
        let engine = EvalEngine::with_jobs(1);
        let models = profiles();
        let cfg = InferenceConfig::greedy();
        engine.run(&models[0], &machine_task_specs(&cases, &table_a), &cfg, 1);
        engine.run(&models[0], &machine_task_specs(&cases, &table_b), &cfg, 1);
        assert_eq!(
            engine.cache_stats().hits,
            0,
            "table change misses the cache"
        );
        assert_eq!(engine.cache_stats().entries, 8);
    }

    #[test]
    fn verdict_keys_carry_a_non_default_prove_config() {
        // Design2SVA verdicts depend on the prover config, NL2SVA ones
        // do not: verdicts computed under the default config must miss
        // for Design2SVA tasks under the portfolio and still answer
        // NL2SVA tasks.
        let mut tasks = machine_tasks(3);
        tasks.extend(design_task_specs(&fsm_sweep(2, 5)));
        let models = profiles();
        let model = models
            .iter()
            .find(|m| m.profile().supports_design2sva)
            .unwrap();
        let cfg = InferenceConfig::greedy();
        let bounded = EvalEngine::with_jobs(1);
        bounded.run(model, &tasks, &cfg, 1);
        let records = bounded.take_unpersisted();
        assert!(
            records.iter().all(|r| r.cfg == cfg.fingerprint()),
            "default-config keys are the inference fingerprint alone"
        );
        let portfolio = EvalEngine::with_jobs(1).with_prove_config(ProveConfig {
            engine: fv_core::ProveEngine::Portfolio,
        });
        assert_eq!(portfolio.load_verdicts(records), 5);
        portfolio.run(model, &tasks, &cfg, 1);
        let stats = portfolio.cache_stats();
        assert_eq!((stats.persisted_hits, stats.misses), (3, 2));
        let portfolio_key = format!("{}_portfolio", cfg.fingerprint());
        let fresh = portfolio.take_unpersisted();
        assert_eq!(fresh.len(), 2);
        assert!(
            fresh.iter().all(|r| r.cfg == portfolio_key),
            "a non-default key is the fingerprint and the engine name"
        );
    }

    #[test]
    fn unbindable_design_skips_inference() {
        use std::sync::atomic::{AtomicU32, Ordering};
        struct Counting(AtomicU32);
        impl Backend for Counting {
            fn name(&self) -> &str {
                "counting"
            }
            fn generate(&self, _req: &Request) -> String {
                self.0.fetch_add(1, Ordering::Relaxed);
                "assert property (@(posedge clk) 1'b1);".into()
            }
        }
        let mut broken = fsm_sweep(1, 9)[0].clone();
        broken.design_source = "module garbage (syntax error".into();
        let tasks = design_task_specs(&[broken]);
        let backend = Counting(AtomicU32::new(0));
        let engine = EvalEngine::with_jobs(1);
        let evals = engine.run(&backend, &tasks, &InferenceConfig::sampling(), 4);
        assert_eq!(
            backend.0.load(Ordering::Relaxed),
            0,
            "no wasted model calls"
        );
        assert!(evals[0].samples.iter().all(|s| !s.syntax));
        // The failure verdicts are cached like any other.
        engine.run(&backend, &tasks, &InferenceConfig::sampling(), 4);
        assert_eq!(engine.cache_stats().hits, 4);
    }

    #[test]
    fn design_bind_cache_is_shared_across_backends() {
        let cases = fsm_sweep(2, 5);
        let tasks = design_task_specs(&cases);
        let models = profiles();
        let backends: Vec<&dyn Backend> = models
            .iter()
            .filter(|m| m.profile().supports_design2sva)
            .take(2)
            .map(|m| m as &dyn Backend)
            .collect();
        let engine = EvalEngine::with_jobs(3);
        let out = engine.run_matrix(&backends, &tasks, &InferenceConfig::sampling(), 2);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].len(), 2);
        // One bind per case, reused by both backends.
        assert_eq!(engine.compiled.lock().unwrap().len(), 2);
    }

    #[test]
    fn one_shot_score_matches_run_samples() {
        let tables: HashMap<&str, SignalTable> = testbenches()
            .iter()
            .map(|tb| (tb.name, signal_table_for(tb).unwrap()))
            .collect();
        let human: Vec<HumanCase> = human_cases().into_iter().take(4).collect();
        let mut broken = fsm_sweep(1, 9)[0].clone();
        broken.design_source = "module garbage (syntax error".into();
        let mut tasks = human_task_specs(&human, &tables);
        tasks.extend(machine_tasks(4));
        tasks.extend(design_task_specs(&fsm_sweep(2, 5)));
        tasks.extend(design_task_specs(&[broken]));
        let models = profiles();
        let backends: Vec<&dyn Backend> = models
            .iter()
            .filter(|m| m.profile().supports_design2sva)
            .take(2)
            .map(|m| m as &dyn Backend)
            .collect();
        let cfg = InferenceConfig::sampling();
        let rows = EvalEngine::with_jobs(1).run_matrix(&backends, &tasks, &cfg, 2);
        for (backend, row) in backends.iter().zip(&rows) {
            for (task, evals) in tasks.iter().zip(row) {
                for (sample_idx, eval) in (0..).zip(&evals.samples) {
                    let response = backend.generate(&Request {
                        task: Arc::clone(task),
                        cfg,
                        sample_idx,
                    });
                    assert_eq!(
                        EvalEngine::with_jobs(1).score(task, &response),
                        *eval,
                        "{} on {} sample {sample_idx}",
                        backend.name(),
                        task.id()
                    );
                }
            }
        }
    }

    #[test]
    fn prover_stats_accumulate_and_cached_repeats_add_nothing() {
        let tasks = machine_tasks(8);
        let models = profiles();
        let engine = EvalEngine::with_jobs(2);
        let cfg = InferenceConfig::greedy();
        engine.run(&models[0], &tasks, &cfg, 1);
        let first = engine.prover_stats();
        assert!(
            first.queries() > 0,
            "scoring 8 cases must reach the prover: {first:?}"
        );
        engine.run(&models[0], &tasks, &cfg, 1); // answered from cache
        assert_eq!(
            engine.prover_stats(),
            first,
            "verdict-cache hits skip formal work"
        );
    }

    #[test]
    fn matrix_rows_match_single_runs() {
        let tasks = machine_tasks(12);
        let models = profiles();
        let backends: Vec<&dyn Backend> = models[..2].iter().map(|m| m as &dyn Backend).collect();
        let cfg = InferenceConfig::greedy();
        let matrix = EvalEngine::with_jobs(4).run_matrix(&backends, &tasks, &cfg, 1);
        for (backend, row) in backends.iter().zip(&matrix) {
            let single = EvalEngine::with_jobs(1).run(*backend, &tasks, &cfg, 1);
            assert_eq!(row, &single);
        }
    }

    #[test]
    fn preloaded_verdicts_serve_as_persisted_hits() {
        let tasks = machine_tasks(10);
        let models = profiles();
        let cfg = InferenceConfig::greedy();
        // A cold engine computes every verdict and hands them all back.
        let cold = EvalEngine::with_jobs(2);
        let cold_out = cold.run(&models[0], &tasks, &cfg, 1);
        let records = cold.take_unpersisted();
        assert_eq!(records.len(), 10);
        assert!(
            cold.take_unpersisted().is_empty(),
            "drain is destructive; nothing new was computed since"
        );
        // A warm engine preloaded with those records answers the same
        // run entirely from persisted verdicts: no inference, no
        // prover work, byte-identical output.
        let warm = EvalEngine::with_jobs(2);
        assert_eq!(warm.load_verdicts(records), 10);
        let warm_out = warm.run(&models[0], &tasks, &cfg, 1);
        assert_eq!(warm_out, cold_out);
        let stats = warm.cache_stats();
        assert_eq!(stats.persisted_hits, 10);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 0);
        assert!((stats.persisted_hit_rate() - 1.0).abs() < 1e-12);
        assert_eq!(warm.prover_stats().queries(), 0, "no formal work");
        assert!(
            warm.take_unpersisted().is_empty(),
            "preloaded verdicts are never drained back out"
        );
    }

    #[test]
    fn take_unpersisted_is_sorted_and_jobs_invariant() {
        let tasks = machine_tasks(16);
        let models = profiles();
        let cfg = InferenceConfig::sampling();
        let drain = |jobs| {
            let engine = EvalEngine::with_jobs(jobs);
            engine.run(&models[1], &tasks, &cfg, 2);
            engine.take_unpersisted()
        };
        let seq = drain(1);
        let par = drain(4);
        assert_eq!(seq.len(), 32);
        assert_eq!(seq, par, "drain order is deterministic");
        let mut sorted = seq.clone();
        sorted.sort_by_key(|record| record.key());
        assert_eq!(seq, sorted);
    }

    #[test]
    fn a_key_inserted_twice_queues_one_record() {
        let mut cache = VerdictCache::default();
        let key = cache.key("m", "t", 7, "cfg", 0);
        let eval = SampleEval::failed();
        cache.insert(key, eval);
        cache.insert(key, eval);
        let strings: VerdictKey = ("m".into(), "t".into(), 7, "cfg".into(), 0);
        assert_eq!(
            cache.take_pending(),
            [VerdictRecord::from_parts(&strings, eval)]
        );
        assert_eq!(cache.stats().entries, 1);
        // A key computed again after the drain is still cached: it is
        // not queued a second time.
        cache.insert(key, eval);
        assert!(cache.take_pending().is_empty());
    }

    #[test]
    fn key_strings_that_recur_across_fields_stay_apart() {
        // One interner holds every field's strings: "x" names a model
        // and a task, "y" too, and one task id equals the cfg key.
        struct Named(&'static str);
        impl Backend for Named {
            fn name(&self) -> &str {
                self.0
            }
            fn generate(&self, _req: &Request) -> String {
                "assert property (@(posedge clk) 1'b1);".into()
            }
        }
        let cfg = InferenceConfig::greedy();
        let fingerprint = cfg.fingerprint();
        let base = &generate_machine_cases(MachineGenConfig {
            count: 1,
            ..Default::default()
        })[0];
        let cases: Vec<MachineCase> = ["x", "y", fingerprint.as_str()]
            .into_iter()
            .map(|id| MachineCase {
                id: id.to_string(),
                ..base.clone()
            })
            .collect();
        let tasks = machine_task_specs(&cases, &machine_signal_table());
        let (x, y) = (Named("x"), Named("y"));
        let backends: Vec<&dyn Backend> = vec![&x, &y];
        let fresh = EvalEngine::with_jobs(1).run_matrix(&backends, &tasks, &cfg, 1);
        // Three stored verdicts, each with a BLEU no scorer gives, so
        // an answer shows which key it came from.
        let stored = [("x", 1, 10.0), ("y", 0, 20.0), ("x", 2, 30.0)];
        let record = |model: &str, task: usize, eval: SampleEval| VerdictRecord {
            model: model.to_string(),
            task_id: tasks[task].id().to_string(),
            digest: tasks[task].content_digest(),
            cfg: fingerprint.clone(),
            sample: 0,
            eval,
        };
        let engine = EvalEngine::with_jobs(1);
        let loaded = engine.load_verdicts(stored.iter().map(|&(model, task, bleu)| {
            record(
                model,
                task,
                SampleEval {
                    bleu,
                    ..SampleEval::failed()
                },
            )
        }));
        assert_eq!(loaded, 3);
        let mut expected = fresh.clone();
        for &(model, task, bleu) in &stored {
            let row = if model == "x" { 0 } else { 1 };
            expected[row][task].samples[0] = SampleEval {
                bleu,
                ..SampleEval::failed()
            };
        }
        assert_eq!(
            engine.run_matrix(&backends, &tasks, &cfg, 1),
            expected,
            "each stored verdict answers only its own key"
        );
        assert_eq!(
            engine.cache_stats(),
            CacheStats {
                hits: 0,
                persisted_hits: 3,
                misses: 3,
                entries: 6,
            }
        );
        // The three computed verdicts drain with their own strings, in
        // `VerdictKey` order.
        assert_eq!(
            engine.take_unpersisted(),
            [
                record("x", 0, fresh[0][0].samples[0]),
                record("y", 2, fresh[1][2].samples[0]),
                record("y", 1, fresh[1][1].samples[0]),
            ]
        );
    }

    #[test]
    fn a_work_list_that_repeats_a_task_drains_one_record_per_key() {
        let tasks = machine_tasks(4);
        let repeated: Vec<Arc<TaskSpec>> = tasks.iter().chain(&tasks).cloned().collect();
        let models = profiles();
        let cfg = InferenceConfig::sampling();
        for jobs in [1, 4] {
            let engine = EvalEngine::with_jobs(jobs);
            let evals = engine.run(&models[0], &repeated, &cfg, 2);
            assert_eq!(evals[..4], evals[4..], "jobs={jobs}");
            // Both copies were looked up before either was scored.
            let stats = engine.cache_stats();
            assert_eq!((stats.misses, stats.entries), (16, 8), "jobs={jobs}");
            let records = engine.take_unpersisted();
            let mut keys: Vec<VerdictKey> = records.iter().map(VerdictRecord::key).collect();
            keys.dedup();
            assert_eq!((records.len(), keys.len()), (8, 8), "jobs={jobs}");
        }
    }

    #[test]
    fn prover_stats_over_repeated_responses_are_jobs_invariant() {
        // Table 4's shape: NL2SVA-Machine cases, three models, 3-shot
        // sampling, five samples each; simulated models repeat many
        // responses within a case.
        let tasks = machine_tasks(24);
        let models: Vec<_> = profiles()
            .into_iter()
            .filter(|m| ["gpt-4o", "gemini-1.5-flash", "llama-3.1-70b"].contains(&m.name()))
            .collect();
        let backends: Vec<&dyn Backend> = models.iter().map(|m| m as &dyn Backend).collect();
        assert_eq!(backends.len(), 3);
        let cfg = InferenceConfig::sampling().with_shots(3);
        let run = |jobs| {
            let engine = EvalEngine::with_jobs(jobs);
            let evals = engine.run_matrix(&backends, &tasks, &cfg, 5);
            (evals, engine.prover_stats())
        };
        let (seq, seq_stats) = run(1);
        let (par, par_stats) = run(4);
        assert_eq!(seq, par);
        assert_eq!(seq_stats, par_stats);
        let scored = seq_stats.session_checks + seq_stats.check_repeats;
        assert!(
            3 * seq_stats.check_repeats > scored,
            "over a third of the parsed responses repeat: {seq_stats:?}"
        );
    }

    #[test]
    fn empty_inputs_are_fine() {
        let engine = EvalEngine::new();
        let models = profiles();
        let out = engine.run(&models[0], &[], &InferenceConfig::greedy(), 1);
        assert!(out.is_empty());
        let none: Vec<Vec<CaseEvals>> =
            engine.run_matrix(&[], &machine_tasks(2), &InferenceConfig::greedy(), 1);
        assert!(none.is_empty());
    }
}
