//! Counters, gauges, and log2-bucket latency histograms behind
//! stable dotted names.
//!
//! Counters and gauges live in small global maps guarded by a mutex —
//! they are recorded at coarse choke points (per check, per flush),
//! never per clause. Histograms are hotter (one observation per span)
//! so they use per-thread shards: each thread owns a private
//! [`AtomicHistogram`] per metric name, found through a thread-local
//! cache (no lock, no contention) and bumped with relaxed atomic
//! adds. [`snapshot`] merges every live thread's shards, plus the
//! retired totals, into plain [`Histogram`] values without pausing
//! writers.
//!
//! A shard lives only as long as its thread. When a thread exits, its
//! shards are folded into a per-name retired [`Histogram`] and leave
//! the live list, so a process that spawns short-lived recording
//! threads (an engine's scoped workers, once per served job) keeps
//! one retired histogram per name instead of one shard per thread,
//! while totals stay cumulative.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of log2 buckets. Bucket `i` (for `i >= 1`) holds values `v`
/// with `bit_len(v) == i`, i.e. `2^(i-1) <= v < 2^i`; bucket 0 holds
/// exactly zero. 64 buckets cover the full `u64` range.
pub const BUCKETS: usize = 65;

/// Bucket index for one observation: `0` for zero, else the value's
/// bit length (so the bucket's inclusive upper bound is `2^i - 1`).
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`0`, `1`, `3`, `7`, …);
/// `u64::MAX` for the last bucket.
pub fn bucket_le(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A plain-value log2 histogram: per-bucket counts plus the total
/// observation count and sum. This is the merge/value type — the
/// lock-free recording side is [`AtomicHistogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Per-bucket observation counts, indexed by [`bucket_of`].
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Folds another histogram (e.g. one thread's shard) into this
    /// one. Merging is associative and commutative: any grouping of
    /// shards produces the same totals.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// The lock-free recording side of a histogram: one per (thread,
/// metric name), bumped with relaxed atomic adds.
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation (relaxed atomics; no locks).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Loads the current contents as a plain [`Histogram`].
    pub fn load(&self) -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Global registry state: counters, gauges, the histogram shards of
/// every live thread, and the folded totals of exited threads' shards.
/// Lock order: `shards` before `retired`.
struct Registry {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, i64>>,
    shards: Mutex<Vec<(&'static str, Arc<AtomicHistogram>)>>,
    retired: Mutex<BTreeMap<&'static str, Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        shards: Mutex::new(Vec::new()),
        retired: Mutex::new(BTreeMap::new()),
    })
}

/// One thread's histogram shards, keyed by metric name. Dropped when
/// the thread exits, which retires every shard it registered.
#[derive(Default)]
struct LocalHists(HashMap<&'static str, Arc<AtomicHistogram>>);

impl Drop for LocalHists {
    fn drop(&mut self) {
        if self.0.is_empty() {
            return;
        }
        let registry = registry();
        // Both locks, in snapshot order, so a snapshot sees each shard
        // either live or retired, never both and never neither. A
        // poisoned registry keeps the shards live rather than panic in
        // a destructor.
        let Ok(mut live) = registry.shards.lock() else {
            return;
        };
        let Ok(mut retired) = registry.retired.lock() else {
            return;
        };
        for (name, shard) in self.0.drain() {
            retired.entry(name).or_default().merge(&shard.load());
            if let Some(at) = live.iter().position(|(_, s)| Arc::ptr_eq(s, &shard)) {
                live.swap_remove(at);
            }
        }
    }
}

thread_local! {
    /// This thread's histogram shards.
    static LOCAL_HISTS: RefCell<LocalHists> = RefCell::new(LocalHists::default());
}

/// Adds `delta` to the counter `name` (dotted, e.g. `serve.flushes`).
pub fn counter_add(name: &'static str, delta: u64) {
    let mut counters = registry().counters.lock().unwrap();
    *counters.entry(name).or_insert(0) += delta;
}

/// Sets the gauge `name` to `value`.
pub fn gauge_set(name: &'static str, value: i64) {
    registry().gauges.lock().unwrap().insert(name, value);
}

/// Records one observation into the histogram `name`. The fast path
/// (shard already exists on this thread) is a thread-local hash
/// lookup plus three relaxed atomic adds.
pub fn observe(name: &'static str, value: u64) {
    LOCAL_HISTS.with(|local| {
        let mut local = local.borrow_mut();
        let shard = local.0.entry(name).or_insert_with(|| {
            let shard = Arc::new(AtomicHistogram::new());
            registry()
                .shards
                .lock()
                .unwrap()
                .push((name, Arc::clone(&shard)));
            shard
        });
        shard.record(value);
    });
}

/// Records a span duration into the `span.<name>.us` histogram.
/// Span names are interned so the combined name is `&'static str`
/// (allocated once per distinct span name for the process lifetime).
pub(crate) fn observe_span_us(span_name: &'static str, dur_us: u64) {
    static INTERNED: OnceLock<Mutex<HashMap<&'static str, &'static str>>> = OnceLock::new();
    thread_local! {
        static CACHE: RefCell<HashMap<&'static str, &'static str>> = RefCell::new(HashMap::new());
    }
    let metric = CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        *cache.entry(span_name).or_insert_with(|| {
            let mut interned = INTERNED
                .get_or_init(|| Mutex::new(HashMap::new()))
                .lock()
                .unwrap();
            interned
                .entry(span_name)
                .or_insert_with(|| Box::leak(format!("span.{span_name}.us").into_boxed_str()))
        })
    });
    observe(metric, dur_us);
}

/// A point-in-time copy of every metric, with histogram shards merged
/// per name. Maps are `BTreeMap`s so iteration (and therefore every
/// rendering) is deterministically sorted.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotonic counters by dotted name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by dotted name.
    pub gauges: BTreeMap<String, i64>,
    /// Merged histograms by dotted name.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Takes a cumulative snapshot of the registry: the retired totals
/// plus every live shard. Writers are not paused; each shard is read
/// atomically bucket-by-bucket, which can lag `count` by in-flight
/// observations but never invents data.
pub fn snapshot() -> Snapshot {
    let registry = registry();
    let counters = registry
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|(&k, &v)| (k.to_string(), v))
        .collect();
    let gauges = registry
        .gauges
        .lock()
        .unwrap()
        .iter()
        .map(|(&k, &v)| (k.to_string(), v))
        .collect();
    let live = registry.shards.lock().unwrap();
    let mut histograms: BTreeMap<String, Histogram> = registry
        .retired
        .lock()
        .unwrap()
        .iter()
        .map(|(&name, hist)| (name.to_string(), hist.clone()))
        .collect();
    for (name, shard) in live.iter() {
        histograms
            .entry(name.to_string())
            .or_default()
            .merge(&shard.load());
    }
    Snapshot {
        counters,
        gauges,
        histograms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..BUCKETS {
            let le = bucket_le(i);
            assert_eq!(bucket_of(le), i, "upper bound lands in its bucket");
            if le < u64::MAX {
                assert_eq!(bucket_of(le + 1), i + 1, "successor spills over");
            }
        }
    }

    #[test]
    fn record_and_merge_agree_with_direct_counts() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [0u64, 1, 1, 7, 8, 1000, u64::MAX] {
            a.record(v);
        }
        for v in [3u64, 4, 5] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count, 10);
        assert_eq!(merged.buckets.iter().sum::<u64>(), merged.count);
        let mut swapped = b.clone();
        swapped.merge(&a);
        assert_eq!(merged, swapped, "merge commutes");
    }

    #[test]
    fn registry_counters_gauges_and_shards_round_trip() {
        counter_add("test.metrics.counter", 2);
        counter_add("test.metrics.counter", 3);
        gauge_set("test.metrics.gauge", -7);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for v in 0..100u64 {
                        observe("test.metrics.hist", v);
                    }
                });
            }
        });
        let snap = snapshot();
        assert!(snap.counters["test.metrics.counter"] >= 5);
        assert_eq!(snap.gauges["test.metrics.gauge"], -7);
        let hist = &snap.histograms["test.metrics.hist"];
        assert!(
            hist.count >= 300,
            "all three threads merged: {}",
            hist.count
        );
        assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count);
    }

    #[test]
    fn exited_threads_retire_their_shards_into_cumulative_totals() {
        const THREADS: u64 = 64;
        const NAME: &str = "test.metrics.retired";
        let live = || registry().shards.lock().unwrap().len();
        let before = live();
        for v in 0..THREADS {
            std::thread::spawn(move || observe(NAME, v)).join().unwrap();
        }
        let hist = &snapshot().histograms[NAME];
        assert_eq!(hist.count, THREADS, "every exited thread still counts");
        assert_eq!(hist.sum, (0..THREADS).sum::<u64>());
        assert_eq!(hist.buckets.iter().sum::<u64>(), THREADS);
        let named = registry()
            .shards
            .lock()
            .unwrap()
            .iter()
            .filter(|(name, _)| *name == NAME)
            .count();
        assert_eq!(named, 0, "no shard outlives its thread");
        assert!(
            live() < before + THREADS as usize,
            "the live list did not grow by one shard per exited thread"
        );
    }
}
