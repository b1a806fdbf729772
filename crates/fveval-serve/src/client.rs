//! The blocking client for the evaluation service.
//!
//! One [`Client`] per server address; every call opens a fresh
//! connection (the protocol is `Connection: close`), so a client is
//! freely shareable across threads by cloning.

use crate::http;
use crate::json::{parse, Json};
use crate::protocol::{EvalRequest, JobState, JobView};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// What a submit attempt came back with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The job was queued.
    Accepted {
        /// The job id to poll.
        job: u64,
        /// The shard it routed to (absent on pre-shard servers).
        shard: Option<u64>,
    },
    /// The shard queue was full (`429`); retry after the hint.
    Busy {
        /// The server's suggested backoff, in milliseconds.
        retry_after_ms: u64,
    },
}

/// Read and write timeout of every request.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// A client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
}

impl Client {
    /// Client for `addr` (e.g. `127.0.0.1:8642`) with a 30 s
    /// per-request timeout.
    pub fn new(addr: impl Into<String>) -> Client {
        Client { addr: addr.into() }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn call(&self, method: &str, path: &str, body: &str) -> Result<(u16, Json), String> {
        let mut stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))?;
        stream
            .set_read_timeout(Some(REQUEST_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(REQUEST_TIMEOUT)))
            .map_err(|e| format!("cannot set timeouts: {e}"))?;
        http::write_request(&mut stream, method, path, body)
            .map_err(|e| format!("request failed: {e}"))?;
        let (status, text) =
            http::read_response(&mut stream).map_err(|e| format!("response failed: {e}"))?;
        let value = if text.is_empty() {
            Json::Null
        } else {
            parse(&text).map_err(|e| format!("malformed response body: {e}"))?
        };
        Ok((status, value))
    }

    fn expect_ok(&self, method: &str, path: &str, body: &str) -> Result<Json, String> {
        let (status, value) = self.call(method, path, body)?;
        if status == 200 {
            Ok(value)
        } else {
            let detail = value
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("(no detail)");
            Err(format!("{method} {path}: HTTP {status}: {detail}"))
        }
    }

    /// Submits an evaluation job; returns its id.
    ///
    /// # Errors
    ///
    /// Returns a message on transport failure, a full queue (`429`),
    /// or a rejected request.
    pub fn submit(&self, request: &EvalRequest) -> Result<u64, String> {
        match self.try_submit(request)? {
            SubmitOutcome::Accepted { job, .. } => Ok(job),
            SubmitOutcome::Busy { retry_after_ms } => Err(format!(
                "POST /v1/eval: HTTP 429: shard queue is full (retry in {retry_after_ms} ms)"
            )),
        }
    }

    /// Submits an evaluation job, surfacing backpressure as a value
    /// instead of an error: a `429` answer becomes
    /// [`SubmitOutcome::Busy`] carrying the server's `retry_after_ms`
    /// hint.
    ///
    /// # Errors
    ///
    /// Returns a message on transport failure or a rejected (non-429)
    /// request.
    pub fn try_submit(&self, request: &EvalRequest) -> Result<SubmitOutcome, String> {
        let body = request.encode().encode();
        let (status, value) = self.call("POST", "/v1/eval", &body)?;
        match status {
            200 => Ok(SubmitOutcome::Accepted {
                job: value
                    .get("job")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| "submit answer missing 'job'".to_string())?,
                shard: value.get("shard").and_then(Json::as_u64),
            }),
            429 => Ok(SubmitOutcome::Busy {
                retry_after_ms: value
                    .get("retry_after_ms")
                    .and_then(Json::as_u64)
                    .unwrap_or(100),
            }),
            _ => {
                let detail = value
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("(no detail)");
                Err(format!("POST /v1/eval: HTTP {status}: {detail}"))
            }
        }
    }

    /// Submits with automatic backpressure retries: a `429` sleeps for
    /// the server's `retry_after_ms` hint (capped at 1 s per round)
    /// and tries again until `timeout` elapses.
    ///
    /// # Errors
    ///
    /// Returns a message on transport failure, a rejected request, or
    /// a queue that never drained within `timeout`.
    pub fn submit_retrying(&self, request: &EvalRequest, timeout: Duration) -> Result<u64, String> {
        let started = Instant::now();
        loop {
            match self.try_submit(request)? {
                SubmitOutcome::Accepted { job, .. } => return Ok(job),
                SubmitOutcome::Busy { retry_after_ms } => {
                    if started.elapsed() > timeout {
                        return Err(format!("queue still full after {timeout:?}"));
                    }
                    std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(10, 1000)));
                }
            }
        }
    }

    /// Fetches one job's current status.
    ///
    /// # Errors
    ///
    /// Returns a message on transport failure or an unknown id.
    pub fn job(&self, id: u64) -> Result<JobView, String> {
        let value = self.expect_ok("GET", &format!("/v1/jobs/{id}"), "")?;
        JobView::decode(&value)
    }

    /// Long-polls one job: the server parks the request until the
    /// job's observable state changes (a case group completes, the job
    /// finishes) or `wait_ms` elapses, then answers with the current
    /// progress frame. `wait_ms = 0` degenerates to [`Client::job`].
    ///
    /// # Errors
    ///
    /// Returns a message on transport failure or an unknown id.
    pub fn job_wait(&self, id: u64, wait_ms: u64) -> Result<JobView, String> {
        let value = self.expect_ok("GET", &format!("/v1/jobs/{id}?wait_ms={wait_ms}"), "")?;
        JobView::decode(&value)
    }

    /// Waits for a job to finish via long-polling (each round parks on
    /// the server for up to 2 s instead of busy-polling), until
    /// `timeout` elapses.
    ///
    /// # Errors
    ///
    /// Returns a message on transport failure, job failure, or
    /// timeout.
    pub fn wait(&self, id: u64, timeout: Duration) -> Result<JobView, String> {
        let started = Instant::now();
        loop {
            let view = self.job_wait(id, 2_000)?;
            match view.state {
                JobState::Done => return Ok(view),
                JobState::Failed => {
                    return Err(format!(
                        "job {id} failed: {}",
                        view.error.as_deref().unwrap_or("(no detail)")
                    ))
                }
                JobState::Queued | JobState::Running => {
                    if started.elapsed() > timeout {
                        return Err(format!(
                            "job {id} still {} after {timeout:?}",
                            view.state.as_str()
                        ));
                    }
                }
            }
        }
    }

    /// Fetches the server's `/v1/stats` document.
    ///
    /// # Errors
    ///
    /// Returns a message on transport failure.
    pub fn stats(&self) -> Result<Json, String> {
        self.expect_ok("GET", "/v1/stats", "")
    }

    /// Fetches the Prometheus text exposition from `GET /metrics`
    /// verbatim (it is not JSON, unlike every other endpoint).
    ///
    /// # Errors
    ///
    /// Returns a message on transport failure or a non-200 answer.
    pub fn metrics(&self) -> Result<String, String> {
        let mut stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))?;
        stream
            .set_read_timeout(Some(REQUEST_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(REQUEST_TIMEOUT)))
            .map_err(|e| format!("cannot set timeouts: {e}"))?;
        http::write_request(&mut stream, "GET", "/metrics", "")
            .map_err(|e| format!("request failed: {e}"))?;
        let (status, text) =
            http::read_response(&mut stream).map_err(|e| format!("response failed: {e}"))?;
        if status == 200 {
            Ok(text)
        } else {
            Err(format!("GET /metrics: HTTP {status}"))
        }
    }

    /// Asks the server to drain and stop.
    ///
    /// # Errors
    ///
    /// Returns a message on transport failure.
    pub fn shutdown(&self) -> Result<(), String> {
        self.expect_ok("POST", "/v1/shutdown", "").map(|_| ())
    }

    /// Whether the server currently answers `/v1/stats`.
    pub fn is_up(&self) -> bool {
        self.stats().is_ok()
    }
}
