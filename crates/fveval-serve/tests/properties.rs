//! Property tests for the serving substrate: the JSON encoder/decoder
//! round-trips arbitrary values, the verdict store round-trips
//! arbitrary record batches — including recovery from a truncated
//! (torn) segment tail — long-poll progress frames survive the wire
//! codec, and shard routing is a pure total function of the task
//! digest.

use fveval_core::{SampleEval, VerdictRecord};
use fveval_serve::json::{parse, Json};
use fveval_serve::testutil::TempDir;
use fveval_serve::{shard_of, JobState, JobView, VerdictStore};
use proptest::prelude::*;

/// Small deterministic generator so structured values (strings,
/// vectors, floats) can be derived from plain integer strategies,
/// which is all the offline proptest shim provides.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn string(&mut self) -> String {
        let alphabet = [
            "a", "Z", "0", "_", " ", "\"", "\\", "\n", "\t", "é", "→", "🙂", "\u{1}",
        ];
        let len = self.below(8) as usize;
        (0..len)
            .map(|_| alphabet[self.below(alphabet.len() as u64) as usize])
            .collect()
    }
}

fn arbitrary_json(mix: &mut Mix, depth: u32) -> Json {
    let pick = if depth == 0 {
        mix.below(5)
    } else {
        mix.below(7)
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(mix.below(2) == 0),
        2 => {
            // Mix of integers, fractions, negatives, and extremes.
            let base = match mix.below(4) {
                0 => mix.below(1 << 30) as f64,
                1 => mix.unit(),
                2 => -(mix.unit() * 1e17),
                _ => mix.unit() * 1e-300,
            };
            Json::Num(base)
        }
        3 | 4 => Json::Str(mix.string()),
        5 => Json::Arr(
            (0..mix.below(4))
                .map(|_| arbitrary_json(mix, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..mix.below(4))
                .map(|i| {
                    (
                        format!("k{i}_{}", mix.string()),
                        arbitrary_json(mix, depth - 1),
                    )
                })
                .collect(),
        ),
    }
}

fn arbitrary_records(mix: &mut Mix, count: usize) -> Vec<VerdictRecord> {
    (0..count)
        .map(|i| VerdictRecord {
            model: format!("model-{}", mix.below(4)),
            // Unique per record so batches never collide on key.
            task_id: format!("task_{i}_{}", mix.string().replace(['\n', '"'], "x")),
            digest: mix.next(),
            cfg: format!("t{:016x}_n{}_s{}", mix.next(), mix.below(4), mix.below(9)),
            sample: mix.below(6) as u32,
            eval: SampleEval {
                syntax: mix.below(2) == 0,
                func: mix.below(2) == 0,
                partial: mix.below(2) == 0,
                bleu: mix.unit(),
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn json_encode_decode_round_trips(seed in 0u64..u64::MAX) {
        let mut mix = Mix(seed);
        let value = arbitrary_json(&mut mix, 3);
        let text = value.encode();
        let back = parse(&text).map_err(TestCaseError::fail)?;
        prop_assert_eq!(&back, &value, "decode(encode(v)) == v for {}", text);
        // Encoding is a fixpoint: encode(decode(encode(v))) == encode(v).
        prop_assert_eq!(back.encode(), text);
    }

    #[test]
    fn store_round_trips_arbitrary_batches(seed in 0u64..u64::MAX, n in 1usize..40) {
        let mut mix = Mix(seed);
        let records = arbitrary_records(&mut mix, n);
        let tmp = TempDir::new("prop-roundtrip");
        let mut store = VerdictStore::open(tmp.path()).map_err(|e| TestCaseError::fail(e.to_string()))?;
        // Split into up to three batches (segments).
        let cut_a = (mix.below(n as u64 + 1)) as usize;
        let cut_b = cut_a + (mix.below((n - cut_a) as u64 + 1)) as usize;
        for batch in [&records[..cut_a], &records[cut_a..cut_b], &records[cut_b..]] {
            store.append(batch).map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        // Every record comes back, in `sort_key` order.
        let mut expected = records.clone();
        expected.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        let mut reopened = VerdictStore::open(tmp.path()).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let loaded = reopened.load().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(reopened.torn_lines(), 0);
        prop_assert_eq!(&loaded, &expected);
        // BLEU survives bit-exactly through text and back.
        let bleu_bits = |rs: &[VerdictRecord]| -> Vec<u64> { rs.iter().map(|r| r.eval.bleu.to_bits()).collect() };
        prop_assert_eq!(bleu_bits(&loaded), bleu_bits(&expected));
        // Compaction preserves exactly the live set.
        reopened.compact().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(reopened.segment_count(), 1);
        prop_assert_eq!(reopened.load().map_err(|e| TestCaseError::fail(e.to_string()))?, expected);
    }

    #[test]
    fn store_recovers_from_truncated_tail(seed in 0u64..u64::MAX, n in 2usize..20) {
        let mut mix = Mix(seed);
        let records = arbitrary_records(&mut mix, n);
        let tmp = TempDir::new("prop-torn");
        let mut store = VerdictStore::open(tmp.path()).map_err(|e| TestCaseError::fail(e.to_string()))?;
        store.append(&records).map_err(|e| TestCaseError::fail(e.to_string()))?;
        // Tear the single segment somewhere inside its final line.
        let segment = std::fs::read_dir(tmp.path())
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .expect("one segment exists");
        let text = std::fs::read_to_string(&segment).unwrap();
        let without_nl = &text[..text.len() - 1];
        let last_line_start = without_nl.rfind('\n').map_or(0, |p| p + 1);
        // Cut strictly inside the final line's JSON object (before its
        // closing brace) so that line cannot decode — even when the cut
        // lands mid-UTF-8-sequence.
        let content_len = (text.len() - 1 - last_line_start) as u64;
        let cut = last_line_start + 1 + mix.below(content_len - 1) as usize;
        std::fs::write(&segment, &text.as_bytes()[..cut]).unwrap();
        let mut recovered = VerdictStore::open(tmp.path()).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let loaded = recovered.load().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(recovered.torn_lines(), 1, "exactly the torn tail is skipped");
        prop_assert_eq!(loaded.len(), n - 1, "every intact line survives");
        // The surviving records are a prefix of the original batch.
        let mut expected = records[..n - 1].to_vec();
        expected.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        prop_assert_eq!(loaded, expected);
    }

    #[test]
    fn progress_frames_round_trip_the_wire_codec(seed in 0u64..u64::MAX) {
        let mut mix = Mix(seed);
        // Arbitrary long-poll progress frames: any state short of done,
        // any (done, total) pair, shard/position/error present or not.
        let state = match mix.below(3) {
            0 => JobState::Queued,
            1 => JobState::Running,
            _ => JobState::Failed,
        };
        let cases_total = mix.below(1 << 20);
        let frame = JobView {
            id: mix.next(),
            state,
            position: (mix.below(2) == 0).then(|| mix.below(64)),
            cases_done: if cases_total == 0 { 0 } else { mix.below(cases_total + 1) },
            cases_total,
            shard: (mix.below(2) == 0).then(|| mix.below(16)),
            result: None,
            error: (state == JobState::Failed).then(|| mix.string()),
        };
        let wire = frame.encode().encode();
        let parsed = parse(&wire).map_err(TestCaseError::fail)?;
        let back = JobView::decode(&parsed).map_err(TestCaseError::fail)?;
        prop_assert_eq!(back, frame, "decode(encode(frame)) == frame for {}", wire);
    }

    #[test]
    fn shard_routing_is_a_pure_total_function_of_the_digest(
        digest in 0u64..u64::MAX,
        shards in 0usize..64,
    ) {
        let shard = shard_of(digest, shards);
        // Total: every digest lands on a valid shard even for the
        // degenerate zero-shard config (clamped to one shard).
        prop_assert!(shard < shards.max(1));
        prop_assert_eq!(shard, (digest % shards.max(1) as u64) as usize);
        // Pure: recomputation never migrates a design's state.
        prop_assert_eq!(shard, shard_of(digest, shards));
        // One shard degenerates to the unsharded server.
        prop_assert_eq!(shard_of(digest, 1), 0);
    }
}
