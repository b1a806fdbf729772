//! Log2-bucket latency histograms behind stable dotted names
//! (`span.<name>.us`, one per span name, fed by span durations).
//!
//! Every duration goes into one process-wide map from span name to
//! [`Histogram`], under one mutex. The traffic is small: `fveval
//! serve` records about 40 durations per job, some 40,000 a second at
//! a thousand jobs a second, and the span collector already takes one
//! global lock for every span it keeps. Threads therefore keep no
//! state of their own, and an exited thread's observations are simply
//! part of the map.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

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

/// A log2 histogram: per-bucket counts plus the total observation
/// count and sum.
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
}

/// Span-duration histograms, keyed by span name. A poisoned lock is
/// recovered, not propagated: no update can stop halfway through a
/// histogram, and recording runs inside `SpanGuard::drop`, which must
/// not panic.
static SPAN_HISTOGRAMS: Mutex<BTreeMap<&'static str, Histogram>> = Mutex::new(BTreeMap::new());

/// Records a span duration into the `span.<name>.us` histogram.
pub(crate) fn observe_span_us(span_name: &'static str, dur_us: u64) {
    SPAN_HISTOGRAMS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(span_name)
        .or_default()
        .record(dur_us);
}

/// A point-in-time copy of every histogram. The map is a `BTreeMap`
/// so iteration (and therefore every rendering) is deterministically
/// sorted.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Histograms by dotted name.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Copies every span-duration histogram, named `span.<name>.us`. The
/// totals are cumulative over the process lifetime.
pub fn snapshot() -> Snapshot {
    let histograms = SPAN_HISTOGRAMS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(name, hist)| (format!("span.{name}.us"), hist.clone()))
        .collect();
    Snapshot { histograms }
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
        let mut hist = Histogram::default();
        for v in [0u64, 1, 1, 7, 8, 1000, u64::MAX] {
            hist.record(v);
        }
        assert_eq!(hist.count, 7);
        assert_eq!(hist.sum, u64::MAX, "the sum saturates");
        assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count);
        assert_eq!(hist.buckets[bucket_of(1)], 2);
    }

    #[test]
    fn registry_histogram_shards_round_trip() {
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for v in 0..100u64 {
                        observe_span_us("test.metrics.hist", v);
                    }
                });
            }
        });
        let hist = &snapshot().histograms["span.test.metrics.hist.us"];
        assert_eq!(hist.count, 300, "all three threads recorded");
        assert_eq!(hist.sum, 3 * (0..100u64).sum::<u64>());
        assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count);
    }

    #[test]
    fn exited_threads_retire_their_shards_into_cumulative_totals() {
        const THREADS: u64 = 64;
        for v in 0..THREADS {
            std::thread::spawn(move || observe_span_us("test.metrics.exited", v))
                .join()
                .unwrap();
        }
        let hist = &snapshot().histograms["span.test.metrics.exited.us"];
        assert_eq!(hist.count, THREADS, "every exited thread still counts");
        assert_eq!(hist.sum, (0..THREADS).sum::<u64>());
        assert_eq!(hist.buckets.iter().sum::<u64>(), THREADS);
    }
}
