//! The wire protocol: request/response payloads and their JSON forms.
//!
//! Endpoints (see `docs/SERVICE.md` for the full schemas):
//!
//! - `POST /v1/eval` — submit an [`EvalRequest`]; answers `{"job": N}`
//!   or `429` when the in-flight bound is reached;
//! - `GET /v1/jobs/<id>` — a [`JobView`] (status, queue position, and
//!   the [`EvalResult`] once done);
//! - `GET /v1/stats` — cache hit/miss/persisted-hit counters,
//!   `ProverStats` rollups, job counts, store state, uptime;
//! - `POST /v1/shutdown` — drain and stop the server.
//!
//! Every payload round-trips through [`crate::json`] exactly, so a
//! verdict computed on the server reconstructs bit-identically on the
//! client.

use crate::json::Json;
use fveval_core::{CaseEvals, SampleEval};
use fveval_llm::InferenceConfig;

// Size limits on a decoded request. Each admits every size the shipped
// CLI, tests and harness send (machine count 120, per_family 16,
// mutations 2, samples 10, 2 models) with room to spare, and keeps one
// request from asking a shard for more than it can build. Depth and
// width need none here: each family clamps them; `families` and
// `models` are bounded by the generator and backend rosters, and
// `models` may name a backend only once.

/// Most cases a `machine` task set may ask for.
const MAX_MACHINE_COUNT: u64 = 10_000;
/// Most scenarios per family a `suite` may ask for.
const MAX_PER_FAMILY: u64 = 256;
/// Most OP-Tree mutants per scenario a `suite` may ask for.
const MAX_MUTATIONS: u64 = 16;
/// Most samples per `(model, case)` a request may ask for.
const MAX_SAMPLES: u64 = 100;

/// Passes `n`, the value of field `key`, if it is within `limit`;
/// otherwise a message naming the field and its limit.
fn bounded(key: &str, n: u64, limit: u64) -> Result<u64, String> {
    if n > limit {
        return Err(format!("'{key}' is {n}; the limit is {limit}"));
    }
    Ok(n)
}

/// What to evaluate: a named shipped task set, or an inline generated
/// suite (the `fveval-gen` families).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TaskSetRef {
    /// The shipped NL2SVA-Human set (79 cases, fixed).
    Human,
    /// The seeded NL2SVA-Machine set.
    Machine {
        /// Number of generated cases.
        count: usize,
        /// Generator seed.
        seed: u64,
    },
    /// An inline `fveval-gen` suite; mirrors
    /// [`fveval_data::SuiteConfig`].
    Suite {
        /// Families to generate (empty means all).
        families: Vec<String>,
        /// Scenarios per family.
        per_family: usize,
        /// Suite seed.
        seed: u64,
        /// Pins the family-size knob instead of sweeping it.
        depth: Option<u32>,
        /// Pins the data width instead of sweeping it.
        width: Option<u32>,
        /// OP-Tree mutants derived per scenario (0 = none, the
        /// historical wire default).
        mutations: usize,
    },
}

impl TaskSetRef {
    /// The shard-routing digest: FNV-1a over the canonical JSON
    /// encoding of the task set (tasks only — models, inference
    /// config, and sample count do not participate). Two requests for
    /// the same task content therefore always carry the same digest,
    /// so a sharded server lands them on the same shard, whose task
    /// memo and engine caches answer the repeat. Pure function of
    /// `self`: stable across processes, restarts, and shard counts.
    pub fn route_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        for byte in self.encode().encode().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
        hash
    }

    fn encode(&self) -> Json {
        match self {
            TaskSetRef::Human => Json::obj([("kind", "human".into())]),
            TaskSetRef::Machine { count, seed } => Json::obj([
                ("kind", "machine".into()),
                ("count", (*count).into()),
                ("seed", encode_u64(*seed)),
            ]),
            TaskSetRef::Suite {
                families,
                per_family,
                seed,
                depth,
                width,
                mutations,
            } => Json::obj([
                ("kind", "suite".into()),
                (
                    "families",
                    Json::Arr(families.iter().map(|f| f.as_str().into()).collect()),
                ),
                ("per_family", (*per_family).into()),
                ("seed", encode_u64(*seed)),
                ("depth", opt_num(*depth)),
                ("width", opt_num(*width)),
                ("mutations", (*mutations).into()),
            ]),
        }
    }

    fn decode(value: &Json) -> Result<TaskSetRef, String> {
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("task set needs a 'kind'")?;
        match kind {
            "human" => Ok(TaskSetRef::Human),
            "machine" => Ok(TaskSetRef::Machine {
                count: bounded(
                    "count",
                    value
                        .get("count")
                        .and_then(Json::as_u64)
                        .ok_or("machine set needs 'count'")?,
                    MAX_MACHINE_COUNT,
                )? as usize,
                seed: decode_u64(value.get("seed")).ok_or("machine set needs 'seed'")?,
            }),
            "suite" => {
                let families = value.get("families").and_then(Json::as_arr).unwrap_or(&[]);
                // No more entries than there are generator families.
                bounded(
                    "families",
                    families.len() as u64,
                    fveval_gen::generators().len() as u64,
                )?;
                Ok(TaskSetRef::Suite {
                    families: families
                        .iter()
                        .map(|f| {
                            f.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| "family names must be strings".to_string())
                        })
                        .collect::<Result<_, _>>()?,
                    per_family: bounded(
                        "per_family",
                        value
                            .get("per_family")
                            .and_then(Json::as_u64)
                            .ok_or("suite needs 'per_family'")?,
                        MAX_PER_FAMILY,
                    )? as usize,
                    seed: decode_u64(value.get("seed")).ok_or("suite needs 'seed'")?,
                    depth: decode_opt_u32(value.get("depth"))?,
                    width: decode_opt_u32(value.get("width"))?,
                    // Absent on pre-mutation clients: default to none.
                    mutations: bounded(
                        "mutations",
                        value.get("mutations").and_then(Json::as_u64).unwrap_or(0),
                        MAX_MUTATIONS,
                    )? as usize,
                })
            }
            other => Err(format!("unknown task-set kind '{other}'")),
        }
    }
}

fn opt_num(v: Option<u32>) -> Json {
    v.map_or(Json::Null, Json::from)
}

/// Encodes a `u64` losslessly: plain number when it fits in the f64
/// integer range, decimal string beyond (JSON numbers are doubles, so
/// seeds above 2^53 would otherwise be silently rounded).
fn encode_u64(n: u64) -> Json {
    if n <= (1u64 << 53) {
        Json::from(n)
    } else {
        Json::Str(n.to_string())
    }
}

/// Decodes either form produced by [`encode_u64`].
fn decode_u64(v: Option<&Json>) -> Option<u64> {
    let v = v?;
    v.as_u64()
        .or_else(|| v.as_str().and_then(|s| s.parse().ok()))
}

fn decode_opt_u32(v: Option<&Json>) -> Result<Option<u32>, String> {
    match v {
        None | Some(Json::Null) => Ok(None),
        Some(n) => n
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .map(Some)
            .ok_or_else(|| "expected a small non-negative number".to_string()),
    }
}

/// One evaluation job: a task set, a model roster, an inference
/// config, and a sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// The tasks to evaluate.
    pub tasks: TaskSetRef,
    /// Backend names from [`fveval_llm::profiles`]; empty means the
    /// full roster.
    pub models: Vec<String>,
    /// Inference configuration.
    pub cfg: InferenceConfig,
    /// Samples per `(model, case)`; clamped to at least 1.
    pub samples: u32,
}

impl EvalRequest {
    /// Encodes the request body for `POST /v1/eval`.
    pub fn encode(&self) -> Json {
        Json::obj([
            ("tasks", self.tasks.encode()),
            (
                "models",
                Json::Arr(self.models.iter().map(|m| m.as_str().into()).collect()),
            ),
            (
                "cfg",
                Json::obj([
                    ("temperature", self.cfg.temperature.into()),
                    ("shots", self.cfg.shots.into()),
                    ("seed", encode_u64(self.cfg.seed)),
                ]),
            ),
            ("samples", self.samples.into()),
        ])
    }

    /// Decodes a `POST /v1/eval` body.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed field.
    pub fn decode(value: &Json) -> Result<EvalRequest, String> {
        let cfg = value.get("cfg").ok_or("request needs 'cfg'")?;
        let mut inference = InferenceConfig::greedy();
        inference.temperature = cfg
            .get("temperature")
            .and_then(Json::as_f64)
            .ok_or("cfg needs 'temperature'")?;
        inference.shots = cfg
            .get("shots")
            .and_then(Json::as_u64)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or("cfg needs 'shots'")?;
        inference.seed = decode_u64(cfg.get("seed")).ok_or("cfg needs 'seed'")?;
        let models = value.get("models").and_then(Json::as_arr).unwrap_or(&[]);
        // No more entries than there are backends to name.
        bounded(
            "models",
            models.len() as u64,
            fveval_llm::profiles().len() as u64,
        )?;
        let models: Vec<String> = models
            .iter()
            .map(|m| {
                m.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "model names must be strings".to_string())
            })
            .collect::<Result<_, _>>()?;
        // A repeated name would evaluate that backend twice.
        if let Some(name) = models
            .iter()
            .enumerate()
            .find_map(|(i, name)| models[..i].contains(name).then_some(name))
        {
            return Err(format!("'models' names '{name}' twice"));
        }
        Ok(EvalRequest {
            tasks: TaskSetRef::decode(value.get("tasks").ok_or("request needs 'tasks'")?)?,
            models,
            cfg: inference,
            samples: bounded(
                "samples",
                value
                    .get("samples")
                    .and_then(Json::as_u64)
                    .ok_or("request needs 'samples'")?,
                MAX_SAMPLES,
            )? as u32,
        })
    }
}

/// A finished job's payload: per-model, per-case, per-sample verdicts
/// in task order — exactly what [`fveval_core::EvalEngine::run_matrix`]
/// returns, in portable form.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// `(model name, its per-case evals)` in roster order.
    pub models: Vec<(String, Vec<CaseEvals>)>,
}

impl EvalResult {
    /// Encodes the result for a `done` [`JobView`].
    pub fn encode(&self) -> Json {
        Json::obj([(
            "models",
            Json::Arr(
                self.models
                    .iter()
                    .map(|(name, cases)| {
                        Json::obj([
                            ("model", name.as_str().into()),
                            ("cases", Json::Arr(cases.iter().map(encode_case).collect())),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    /// Decodes a `done` job's result payload.
    ///
    /// # Errors
    ///
    /// Returns a message on any missing or mistyped field.
    pub fn decode(value: &Json) -> Result<EvalResult, String> {
        let models = value
            .get("models")
            .and_then(Json::as_arr)
            .ok_or("result needs 'models'")?;
        Ok(EvalResult {
            models: models
                .iter()
                .map(|row| {
                    let name = row
                        .get("model")
                        .and_then(Json::as_str)
                        .ok_or("row needs 'model'")?
                        .to_string();
                    let cases = row
                        .get("cases")
                        .and_then(Json::as_arr)
                        .ok_or("row needs 'cases'")?
                        .iter()
                        .map(decode_case)
                        .collect::<Result<_, _>>()?;
                    Ok::<_, String>((name, cases))
                })
                .collect::<Result<_, _>>()?,
        })
    }
}

fn encode_case(case: &CaseEvals) -> Json {
    Json::obj([
        ("id", case.id.as_str().into()),
        (
            "samples",
            Json::Arr(
                case.samples
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("syntax", s.syntax.into()),
                            ("func", s.func.into()),
                            ("partial", s.partial.into()),
                            ("bleu", s.bleu.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn decode_case(value: &Json) -> Result<CaseEvals, String> {
    Ok(CaseEvals {
        id: value
            .get("id")
            .and_then(Json::as_str)
            .ok_or("case needs 'id'")?
            .to_string(),
        samples: value
            .get("samples")
            .and_then(Json::as_arr)
            .ok_or("case needs 'samples'")?
            .iter()
            .map(|s| {
                Ok::<_, String>(SampleEval {
                    syntax: s
                        .get("syntax")
                        .and_then(Json::as_bool)
                        .ok_or("sample needs 'syntax'")?,
                    func: s
                        .get("func")
                        .and_then(Json::as_bool)
                        .ok_or("sample needs 'func'")?,
                    partial: s
                        .get("partial")
                        .and_then(Json::as_bool)
                        .ok_or("sample needs 'partial'")?,
                    bleu: s
                        .get("bleu")
                        .and_then(Json::as_f64)
                        .ok_or("sample needs 'bleu'")?,
                })
            })
            .collect::<Result<_, _>>()?,
    })
}

/// A job's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is evaluating it.
    Running,
    /// Finished; the result payload is available.
    Done,
    /// Rejected or crashed; the error message is available.
    Failed,
}

impl JobState {
    /// The wire name (`queued` / `running` / `done` / `failed`).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Returns the unknown name.
    pub fn from_wire(s: &str) -> Result<JobState, String> {
        match s {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            "failed" => Ok(JobState::Failed),
            other => Err(format!("unknown job state '{other}'")),
        }
    }
}

/// One `GET /v1/jobs/<id>` answer (a *progress frame* when the job is
/// still in flight: `cases_done` advances as case groups settle, and a
/// long-poll `?wait_ms=` request parks until it does).
#[derive(Debug, Clone, PartialEq)]
pub struct JobView {
    /// Job id.
    pub id: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Queue position (0 = next), only while queued.
    pub position: Option<u64>,
    /// Case groups settled so far (monotonic; `cases_total` once
    /// done). `0` while queued.
    pub cases_done: u64,
    /// Case groups this job evaluates; `0` until the shard has
    /// materialized the task list.
    pub cases_total: u64,
    /// The shard evaluating this job (routing is a pure function of
    /// the request's task digest). Absent on pre-shard servers.
    pub shard: Option<u64>,
    /// The result, once done.
    pub result: Option<EvalResult>,
    /// The failure message, if failed.
    pub error: Option<String>,
}

impl JobView {
    /// Encodes the job answer.
    pub fn encode(&self) -> Json {
        let mut members = vec![
            ("id".to_string(), encode_u64(self.id)),
            ("status".to_string(), self.state.as_str().into()),
            ("cases_done".to_string(), self.cases_done.into()),
            ("cases_total".to_string(), self.cases_total.into()),
        ];
        if let Some(position) = self.position {
            members.push(("position".to_string(), position.into()));
        }
        if let Some(shard) = self.shard {
            members.push(("shard".to_string(), shard.into()));
        }
        if let Some(result) = &self.result {
            members.push(("result".to_string(), result.encode()));
        }
        if let Some(error) = &self.error {
            members.push(("error".to_string(), error.as_str().into()));
        }
        Json::Obj(members)
    }

    /// Decodes a job answer. The progress fields default to zero/absent
    /// when missing, so pre-shard server answers still decode.
    ///
    /// # Errors
    ///
    /// Returns a message on any missing or mistyped field.
    pub fn decode(value: &Json) -> Result<JobView, String> {
        let state = JobState::from_wire(
            value
                .get("status")
                .and_then(Json::as_str)
                .ok_or("job needs 'status'")?,
        )?;
        Ok(JobView {
            id: decode_u64(value.get("id")).ok_or("job needs 'id'")?,
            state,
            position: value.get("position").and_then(Json::as_u64),
            cases_done: value.get("cases_done").and_then(Json::as_u64).unwrap_or(0),
            cases_total: value.get("cases_total").and_then(Json::as_u64).unwrap_or(0),
            shard: value.get("shard").and_then(Json::as_u64),
            result: value.get("result").map(EvalResult::decode).transpose()?,
            error: value
                .get("error")
                .and_then(Json::as_str)
                .map(str::to_string),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn eval_request_round_trips() {
        let req = EvalRequest {
            tasks: TaskSetRef::Suite {
                families: vec!["fifo".into(), "gray".into()],
                per_family: 2,
                seed: 42,
                depth: Some(3),
                width: None,
                mutations: 2,
            },
            models: vec!["gpt-4o".into()],
            cfg: InferenceConfig::sampling().with_shots(3),
            samples: 5,
        };
        let wire = req.encode().encode();
        let back = EvalRequest::decode(&parse(&wire).unwrap()).unwrap();
        assert_eq!(back, req);
        for tasks in [
            TaskSetRef::Human,
            TaskSetRef::Machine { count: 12, seed: 7 },
        ] {
            let req = EvalRequest {
                tasks,
                ..req.clone()
            };
            let wire = req.encode().encode();
            assert_eq!(EvalRequest::decode(&parse(&wire).unwrap()).unwrap(), req);
        }
    }

    #[test]
    fn huge_seeds_survive_the_wire_exactly() {
        // JSON numbers are doubles; seeds beyond 2^53 must not round.
        for seed in [u64::MAX, (1 << 53) + 1, 0x9E3779B97F4A7C15] {
            let mut cfg = InferenceConfig::greedy();
            cfg.seed = seed;
            let req = EvalRequest {
                tasks: TaskSetRef::Machine { count: 3, seed },
                models: vec![],
                cfg,
                samples: 1,
            };
            let back = EvalRequest::decode(&parse(&req.encode().encode()).unwrap()).unwrap();
            assert_eq!(back, req, "seed {seed:#x}");
        }
    }

    #[test]
    fn job_view_round_trips_with_result() {
        let view = JobView {
            id: 3,
            state: JobState::Done,
            position: None,
            cases_done: 1,
            cases_total: 1,
            shard: Some(2),
            result: Some(EvalResult {
                models: vec![(
                    "gpt-4o".into(),
                    vec![CaseEvals {
                        id: "case_0".into(),
                        samples: vec![SampleEval {
                            syntax: true,
                            func: false,
                            partial: true,
                            bleu: 1.0 / 3.0,
                        }],
                    }],
                )],
            }),
            error: None,
        };
        let wire = view.encode().encode();
        let back = JobView::decode(&parse(&wire).unwrap()).unwrap();
        assert_eq!(back, view);
        let bleu = back.result.unwrap().models[0].1[0].samples[0].bleu;
        assert_eq!(bleu.to_bits(), (1.0f64 / 3.0).to_bits());
    }

    #[test]
    fn job_view_without_progress_fields_still_decodes() {
        // A pre-shard server omits the progress fields entirely; the
        // decoder must default them, not reject the frame.
        let old_wire = "{\"id\":7,\"status\":\"running\",\"position\":2}";
        let view = JobView::decode(&parse(old_wire).unwrap()).unwrap();
        assert_eq!(view.id, 7);
        assert_eq!(view.state, JobState::Running);
        assert_eq!(view.position, Some(2));
        assert_eq!((view.cases_done, view.cases_total), (0, 0));
        assert_eq!(view.shard, None);
    }

    #[test]
    fn route_digest_depends_on_tasks_only_and_is_stable() {
        let suite = TaskSetRef::Suite {
            families: vec!["fifo".into()],
            per_family: 2,
            seed: 42,
            depth: None,
            width: None,
            mutations: 1,
        };
        // Stable across calls and across equal values.
        assert_eq!(suite.route_digest(), suite.route_digest());
        assert_eq!(suite.route_digest(), suite.clone().route_digest());
        // Different task content gets (overwhelmingly) different
        // digests.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64 {
            seen.insert(TaskSetRef::Machine { count: 8, seed }.route_digest());
        }
        assert_eq!(seen.len(), 64, "64 distinct seeds, 64 distinct digests");
        assert_ne!(
            TaskSetRef::Human.route_digest(),
            TaskSetRef::Machine { count: 8, seed: 0 }.route_digest()
        );
    }

    /// Asserts that `make(limit)` decodes unchanged and `make(limit +
    /// 1)` is rejected with a message naming `field` and the limit.
    fn assert_limit(field: &str, limit: u64, make: impl Fn(u64) -> EvalRequest) {
        let at = make(limit);
        let back = EvalRequest::decode(&parse(&at.encode().encode()).unwrap());
        assert_eq!(back, Ok(at), "{field} at its limit is accepted");
        let beyond = make(limit + 1).encode().encode();
        let err = EvalRequest::decode(&parse(&beyond).unwrap()).unwrap_err();
        assert_eq!(
            err,
            format!("'{field}' is {}; the limit is {limit}", limit + 1)
        );
    }

    fn with_tasks(tasks: TaskSetRef) -> EvalRequest {
        EvalRequest {
            tasks,
            models: vec![],
            cfg: InferenceConfig::greedy(),
            samples: 1,
        }
    }

    fn suite(families: u64, per_family: u64, mutations: u64) -> TaskSetRef {
        TaskSetRef::Suite {
            families: vec!["fifo".to_string(); families as usize],
            per_family: per_family as usize,
            seed: 1,
            depth: None,
            width: None,
            mutations: mutations as usize,
        }
    }

    #[test]
    fn machine_count_is_bounded() {
        assert_limit("count", MAX_MACHINE_COUNT, |n| {
            with_tasks(TaskSetRef::Machine {
                count: n as usize,
                seed: 1,
            })
        });
    }

    #[test]
    fn suite_family_list_is_bounded_by_the_generators() {
        let generators = fveval_gen::generators().len() as u64;
        assert_limit("families", generators, |n| with_tasks(suite(n, 1, 0)));
    }

    #[test]
    fn suite_per_family_is_bounded() {
        assert_limit("per_family", MAX_PER_FAMILY, |n| with_tasks(suite(1, n, 0)));
    }

    #[test]
    fn suite_mutations_are_bounded() {
        assert_limit("mutations", MAX_MUTATIONS, |n| with_tasks(suite(1, 1, n)));
    }

    #[test]
    fn samples_are_bounded() {
        assert_limit("samples", MAX_SAMPLES, |n| EvalRequest {
            samples: n as u32,
            ..with_tasks(TaskSetRef::Human)
        });
    }

    #[test]
    fn models_are_bounded_by_the_roster() {
        let roster: Vec<String> = fveval_llm::profiles()
            .iter()
            .map(|m| m.profile().name.to_string())
            .collect();
        assert_eq!(roster.len(), 8);
        // The first n roster names; a ninth entry repeats the first.
        assert_limit("models", roster.len() as u64, |n| EvalRequest {
            models: roster.iter().cycle().take(n as usize).cloned().collect(),
            ..with_tasks(TaskSetRef::Human)
        });
    }

    #[test]
    fn repeated_models_are_rejected() {
        let request = EvalRequest {
            models: vec!["gpt-4o".into(), "llama-3.1-70b".into(), "gpt-4o".into()],
            ..with_tasks(TaskSetRef::Human)
        };
        let err = EvalRequest::decode(&parse(&request.encode().encode()).unwrap()).unwrap_err();
        assert_eq!(err, "'models' names 'gpt-4o' twice");
    }

    #[test]
    fn malformed_requests_are_rejected_with_context() {
        let missing = parse("{\"models\":[],\"samples\":1}").unwrap();
        assert!(EvalRequest::decode(&missing).unwrap_err().contains("cfg"));
        let bad_kind =
            parse("{\"tasks\":{\"kind\":\"nope\"},\"cfg\":{\"temperature\":0,\"shots\":0,\"seed\":0},\"samples\":1}")
                .unwrap();
        assert!(EvalRequest::decode(&bad_kind).unwrap_err().contains("nope"));
    }
}
