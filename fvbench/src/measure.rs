//! Measurement helpers shared by every workload: order statistics, the
//! tail-percentile rule, metric-name validation, output digests, and
//! peak resident memory.

/// Percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of sorted samples (`p` in `0..=100`).
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of the samples (nearest rank), `0` when there are none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    nearest_rank(&sorted(samples), 50.0)
}

/// The highest percentile of the ladder that leaves at least
/// [`TAIL_BEYOND`] samples strictly beyond its nearest rank, for `n`
/// samples. `None` when even the median leaves fewer than that.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        rank >= 1 && n - rank.min(n) >= TAIL_BEYOND
    })
}

/// The tail latency under [`tail_percentile`]: `(percentile, value)`.
/// With too few samples for any ladder percentile, the maximum is
/// reported as percentile 100.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (100.0, 0.0);
    }
    let s = sorted(samples);
    match tail_percentile(s.len()) {
        Some(p) => (p, nearest_rank(&s, p)),
        None => (100.0, s[s.len() - 1]),
    }
}

/// Work per second over passes given as `(work, seconds)`: all the
/// work over all the time.
pub fn rate(passes: &[(f64, f64)]) -> f64 {
    let (work, secs) = passes
        .iter()
        .fold((0.0, 0.0), |(w, s), p| (w + p.0, s + p.1));
    if secs > 0.0 {
        work / secs
    } else {
        0.0
    }
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters of letters, digits, `_`, `.`
/// and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// FNV-1a over bytes: the digest the reference records use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A digest as the records spell it: 16 lowercase hex digits.
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, read from
/// `/proc`; `None` when the process is gone or the field is missing.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond, p99.5 only 5.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 20..5000 {
            let p = tail_percentile(n).expect("20+ samples support the median");
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            assert!(n - rank >= TAIL_BEYOND, "n={n} p={p}");
            // No higher ladder entry also qualifies.
            for higher in TAIL_LADDER.iter().filter(|&&q| q > p) {
                let r = ((higher / 100.0) * n as f64).ceil() as usize;
                assert!(n - r < TAIL_BEYOND, "n={n}: p{higher} also qualifies");
            }
        }
    }

    #[test]
    fn tail_value_is_the_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples), (90.0, 90.0));
        assert_eq!(median(&samples), 50.0);
        let few = [3.0, 1.0, 2.0];
        assert_eq!(tail(&few), (100.0, 3.0));
        assert_eq!(median(&few), 2.0);
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "setup_s",
            "fv-sat.solve_s",
            "fveval-serve.queue_wait_ms",
            "9lives",
            &"a".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/name",
            "ünïcode",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hex(0xab), "00000000000000ab");
    }
}
