//! Shards: the unit of queueing and task-set affinity in the server.
//!
//! Each [`Shard`] is one bounded job queue, its traffic counters and
//! the one worker thread that drains it. Every worker evaluates on the
//! server's one shared [`fveval_core::EvalEngine`]. Jobs route to
//! shards by [`shard_of`] over the request's task-content digest
//! ([`crate::TaskSetRef::route_digest`]), so repeated evaluations of
//! the same task set always land on the same shard. The queue bound is
//! the backpressure surface: a submit that finds `queued + in-flight`
//! at the bound is rejected (`429`) with a [`Shard::retry_after_ms`]
//! hint derived from an EWMA of recent job durations on that shard.
//!
//! Routing also means each task set is built on one shard only: a
//! shard worker keeps the sets it built in a `TaskMemo`, so a task
//! set that is submitted again is not regenerated (nor its mutants
//! re-proved) on every job.

use crate::protocol::TaskSetRef;
use fveval_llm::TaskSpec;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Routes a task-content digest to a shard: `digest mod shards`.
/// A pure function — the same digest maps to the same shard for any
/// fixed shard count, across processes and restarts. `shards` is
/// clamped to at least 1.
pub fn shard_of(digest: u64, shards: usize) -> usize {
    (digest % shards.max(1) as u64) as usize
}

/// One shard: a bounded job-id queue, its worker's wake signal, and
/// the shard-local traffic counters that `GET /v1/stats` reports per
/// shard.
#[derive(Debug)]
pub(crate) struct Shard {
    /// This shard's index (the value [`shard_of`] routes to).
    pub(crate) index: usize,
    /// Queued job ids awaiting this shard's worker.
    queue: Mutex<VecDeque<u64>>,
    /// Wakes the worker when work arrives or shutdown begins.
    cv: Condvar,
    /// Bound on `queued + in-flight`; submissions beyond it get `429`.
    queue_depth: usize,
    in_flight: AtomicUsize,
    accepted: AtomicU64,
    served: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    /// EWMA of job wall-clock durations, in milliseconds.
    ewma_job_ms: AtomicU64,
}

impl Shard {
    /// An empty shard bounded at `queue_depth` (clamped to ≥ 1).
    pub(crate) fn new(index: usize, queue_depth: usize) -> Shard {
        Shard {
            index,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            queue_depth: queue_depth.max(1),
            in_flight: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            ewma_job_ms: AtomicU64::new(0),
        }
    }

    /// Enqueues a job id unless the shard is at its bound. Returns
    /// `false` (counting the rejection) when `queued + in-flight` is
    /// at the bound — the caller answers `429`.
    pub(crate) fn try_enqueue(&self, id: u64) -> bool {
        let mut queue = self.queue.lock().expect("shard queue poisoned");
        if queue.len() + self.in_flight.load(Ordering::Acquire) >= self.queue_depth {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        queue.push_back(id);
        self.accepted.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        self.cv.notify_one();
        true
    }

    /// Blocks the shard worker until a job id is available (marking it
    /// in-flight) or `shutdown` is set with an empty queue (`None`:
    /// the worker exits).
    pub(crate) fn pop(&self, shutdown: &AtomicBool) -> Option<u64> {
        let mut queue = self.queue.lock().expect("shard queue poisoned");
        loop {
            if let Some(id) = queue.pop_front() {
                self.in_flight.fetch_add(1, Ordering::AcqRel);
                return Some(id);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            queue = self
                .cv
                .wait_timeout(queue, Duration::from_millis(200))
                .expect("shard queue poisoned")
                .0;
        }
    }

    /// Wakes the worker so it can observe a shutdown request.
    pub(crate) fn wake(&self) {
        self.cv.notify_all();
    }

    /// Records a finished job: outcome counter, in-flight release, and
    /// the duration EWMA behind [`Shard::retry_after_ms`].
    pub(crate) fn note_finished(&self, ok: bool, elapsed: Duration) {
        let ms = elapsed.as_millis().min(u128::from(u64::MAX)) as u64;
        let old = self.ewma_job_ms.load(Ordering::Relaxed);
        let next = if old == 0 { ms } else { (3 * old + ms) / 4 };
        self.ewma_job_ms.store(next.max(1), Ordering::Relaxed);
        if ok {
            self.served.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    /// How long a rejected client should wait before retrying, in
    /// milliseconds: one EWMA job duration per occupied slot, floored
    /// at 50 ms (a fresh shard has no history yet).
    pub(crate) fn retry_after_ms(&self) -> u64 {
        let ewma = self.ewma_job_ms.load(Ordering::Relaxed).max(50);
        let occupied = self.depth() + self.in_flight();
        ewma.saturating_mul(occupied.max(1) as u64).min(60_000)
    }

    /// Queue position of `id` (0 = next), if it is still queued.
    pub(crate) fn position_of(&self, id: u64) -> Option<u64> {
        self.queue
            .lock()
            .expect("shard queue poisoned")
            .iter()
            .position(|&queued| queued == id)
            .map(|p| p as u64)
    }

    /// Currently queued job count.
    pub(crate) fn depth(&self) -> usize {
        self.queue.lock().expect("shard queue poisoned").len()
    }

    /// Jobs currently being evaluated (0 or 1: one worker per shard).
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Nothing queued and nothing in flight.
    pub(crate) fn idle(&self) -> bool {
        self.in_flight() == 0 && self.depth() == 0
    }

    /// Jobs this shard accepted (queued successfully).
    pub(crate) fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Jobs this shard finished successfully.
    pub(crate) fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Jobs this shard finished with an error.
    pub(crate) fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Submissions bounced off the full queue.
    pub(crate) fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// The configured `queued + in-flight` bound.
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue_depth
    }
}

/// How many tasks one shard worker's `TaskMemo` holds at most.
pub(crate) const MEMO_TASKS: usize = 4096;

/// A built task list, shared between the memo and the jobs using it.
type BuiltTasks = Arc<[Arc<TaskSpec>]>;

/// One shard worker's built task sets, keyed by their reference. The
/// worker owns it, so it needs no lock. It holds at most `bound` tasks
/// (an empty set counts as one): a set that would push it past the
/// bound clears it first, and a set larger than the bound is built on
/// every use and never stored. Build errors are never stored.
///
/// Reusing a built set changes no verdict: the engine's caches key on
/// each task's id and content digest, not on the `Arc` that holds it.
#[derive(Debug)]
pub(crate) struct TaskMemo {
    sets: HashMap<TaskSetRef, BuiltTasks>,
    tasks: usize,
    bound: usize,
}

impl TaskMemo {
    /// An empty memo holding at most `bound` tasks.
    pub(crate) fn new(bound: usize) -> TaskMemo {
        TaskMemo {
            sets: HashMap::new(),
            tasks: 0,
            bound,
        }
    }

    /// The stored tasks of `key`, or `build(key)`'s, stored if they fit.
    pub(crate) fn get_or_build(
        &mut self,
        key: &TaskSetRef,
        build: impl FnOnce(&TaskSetRef) -> Result<Vec<Arc<TaskSpec>>, String>,
    ) -> Result<BuiltTasks, String> {
        if let Some(tasks) = self.sets.get(key) {
            return Ok(Arc::clone(tasks));
        }
        let tasks: BuiltTasks = build(key)?.into();
        let weight = tasks.len().max(1);
        if weight <= self.bound {
            if self.tasks + weight > self.bound {
                self.sets.clear();
                self.tasks = 0;
            }
            self.tasks += weight;
            self.sets.insert(key.clone(), Arc::clone(&tasks));
        }
        Ok(tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_digest_mod_shards_and_total() {
        for digest in [0u64, 1, 7, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            for shards in 1..=8 {
                let shard = shard_of(digest, shards);
                assert!(shard < shards);
                assert_eq!(shard, (digest % shards as u64) as usize);
                // Pure: recomputing never moves the job.
                assert_eq!(shard, shard_of(digest, shards));
            }
            // Degenerate configs still route somewhere valid.
            assert_eq!(shard_of(digest, 0), 0);
            assert_eq!(shard_of(digest, 1), 0);
        }
    }

    #[test]
    fn queue_bound_rejects_and_recovers() {
        let shard = Shard::new(0, 2);
        assert!(shard.try_enqueue(1));
        assert!(shard.try_enqueue(2));
        assert!(!shard.try_enqueue(3), "bound of 2 rejects the 3rd");
        assert_eq!(shard.rejected(), 1);
        assert_eq!(shard.accepted(), 2);
        // Draining one makes room — but an in-flight job still counts
        // against the bound until it finishes.
        let shutdown = AtomicBool::new(false);
        assert_eq!(shard.pop(&shutdown), Some(1));
        assert_eq!(shard.in_flight(), 1);
        assert!(!shard.try_enqueue(3), "in-flight occupies a slot");
        shard.note_finished(true, Duration::from_millis(8));
        assert!(shard.try_enqueue(3));
        assert_eq!(shard.served(), 1);
        assert_eq!(shard.position_of(2), Some(0));
        assert_eq!(shard.position_of(3), Some(1));
        assert_eq!(shard.position_of(99), None);
        // Shutdown with a drained queue exits the pop loop.
        shutdown.store(true, Ordering::SeqCst);
        assert_eq!(shard.pop(&shutdown), Some(2));
        shard.note_finished(true, Duration::from_millis(8));
        assert_eq!(shard.pop(&shutdown), Some(3));
        shard.note_finished(false, Duration::from_millis(8));
        assert_eq!(shard.pop(&shutdown), None);
        assert!(shard.idle());
        assert_eq!(shard.failed(), 1);
    }

    #[test]
    fn retry_hint_tracks_job_durations() {
        let shard = Shard::new(0, 4);
        // No history: the floor applies.
        assert_eq!(shard.retry_after_ms(), 50);
        let shutdown = AtomicBool::new(false);
        assert!(shard.try_enqueue(1));
        shard.pop(&shutdown);
        shard.note_finished(true, Duration::from_millis(400));
        // One recorded duration, empty shard: hint is one EWMA step.
        assert_eq!(shard.retry_after_ms(), 400);
        // A backlog multiplies the hint by occupied slots.
        assert!(shard.try_enqueue(2));
        assert!(shard.try_enqueue(3));
        assert_eq!(shard.retry_after_ms(), 800);
    }

    /// A `build` for [`TaskMemo::get_or_build`] that counts its calls:
    /// it builds machine sets and fails on every other kind.
    fn counting_build(
        calls: &AtomicUsize,
    ) -> impl FnOnce(&TaskSetRef) -> Result<Vec<Arc<TaskSpec>>, String> + '_ {
        move |key| {
            calls.fetch_add(1, Ordering::Relaxed);
            match key {
                TaskSetRef::Machine { .. } => crate::build_tasks(key),
                _ => Err("only machine sets build here".to_string()),
            }
        }
    }

    #[test]
    fn task_memo_builds_each_set_once_within_its_bound() {
        let calls = AtomicUsize::new(0);
        let machine = |count, seed| TaskSetRef::Machine { count, seed };
        let mut memo = TaskMemo::new(5);
        let first = memo
            .get_or_build(&machine(2, 1), counting_build(&calls))
            .unwrap();
        let again = memo
            .get_or_build(&machine(2, 1), counting_build(&calls))
            .unwrap();
        assert!(
            Arc::ptr_eq(&first, &again),
            "a repeated set is the stored Arc"
        );
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        let other = memo
            .get_or_build(&machine(2, 2), counting_build(&calls))
            .unwrap();
        assert!(
            !Arc::ptr_eq(&first, &other),
            "a different set is built anew"
        );
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!((memo.sets.len(), memo.tasks), (2, 4));

        // 4 + 2 > 5: the memo clears before storing the new set.
        let third = memo
            .get_or_build(&machine(2, 3), counting_build(&calls))
            .unwrap();
        assert_eq!((memo.sets.len(), memo.tasks), (1, 2));
        let rebuilt = memo
            .get_or_build(&machine(2, 1), counting_build(&calls))
            .unwrap();
        assert!(!Arc::ptr_eq(&first, &rebuilt), "a cleared set is rebuilt");
        assert_eq!(first.len(), rebuilt.len());
        assert!(Arc::ptr_eq(
            &third,
            &memo
                .get_or_build(&machine(2, 3), counting_build(&calls))
                .unwrap()
        ));
        assert_eq!(calls.load(Ordering::Relaxed), 4);

        // A set larger than the bound is built on every use, and the
        // stored sets stay.
        for _ in 0..2 {
            assert_eq!(
                memo.get_or_build(&machine(6, 4), counting_build(&calls))
                    .unwrap()
                    .len(),
                6
            );
        }
        assert_eq!(calls.load(Ordering::Relaxed), 6);
        assert_eq!((memo.sets.len(), memo.tasks), (2, 4));
    }

    #[test]
    fn task_memo_never_stores_an_error() {
        let calls = AtomicUsize::new(0);
        let mut memo = TaskMemo::new(MEMO_TASKS);
        for _ in 0..2 {
            let err = memo
                .get_or_build(&TaskSetRef::Human, counting_build(&calls))
                .unwrap_err();
            assert!(err.contains("only machine sets"), "{err}");
        }
        assert_eq!(calls.load(Ordering::Relaxed), 2, "each failure is retried");
        assert!(memo.sets.is_empty());
        assert_eq!(memo.tasks, 0);
    }
}
