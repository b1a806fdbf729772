//! Property tests for histogram bucketing.
//!
//! Every exported latency total (`/v1/stats`, `/metrics`, fvbench's
//! solver time) is read off a [`Histogram`], so its bucket counts must
//! conserve the observation count and put each observation in the
//! bucket whose bounds contain it, for any mix of values.

use fv_trace::metrics::{bucket_of, Histogram, BUCKETS};
use proptest::prelude::*;

/// Builds one histogram from a slice of observations.
fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    for &v in values {
        h.record(v);
    }
    h
}

/// Observation values spanning every interesting bucket: zero, small,
/// bucket-boundary, and huge.
fn obs() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..16,
        (0u32..64).prop_map(|b| 1u64 << b),
        (0u32..63).prop_map(|b| (1u64 << b) + 1),
        0u64..=u64::MAX,
    ]
}

fn obs_vec() -> impl Strategy<Value = Vec<u64>> {
    (0usize..200, obs(), obs(), obs()).prop_map(|(n, a, b, c)| {
        // Cycle three independently-drawn values to length n: cheap
        // variable-length vectors without a dedicated vec strategy.
        [a, b, c].iter().copied().cycle().take(n).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bucket counts always sum to the observation count, and every
    /// observation lands in the bucket whose bounds contain it.
    #[test]
    fn bucket_counts_conserve_observations(values in obs_vec()) {
        let hist = hist_of(&values);
        prop_assert_eq!(hist.count, values.len() as u64);
        prop_assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count);
        let mut expected = [0u64; BUCKETS];
        for &v in &values {
            expected[bucket_of(v)] += 1;
        }
        prop_assert_eq!(hist.buckets, expected);
    }
}
