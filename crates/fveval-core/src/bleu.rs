//! BLEU score over code tokens (the paper's lexical-similarity metric).

use crate::tokenize::code_tokens;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Computes smoothed BLEU-4 between a candidate and a single reference.
///
/// Uses +1 smoothing on n-gram precisions (Lin & Och) and the standard
/// brevity penalty, over the lexical code tokens of both strings.
///
/// # Examples
///
/// ```
/// use fveval_core::bleu;
/// let reference = "assert property (@(posedge clk) a |-> b);";
/// assert!((bleu(reference, reference) - 1.0).abs() < 1e-9);
/// assert!(bleu(reference, "assert property (@(posedge clk) !a);") < 0.8);
/// ```
pub fn bleu(reference: &str, candidate: &str) -> f64 {
    BleuReference::new(reference).score(candidate)
}

/// The reference side of [`bleu`], computed once: the reference's
/// vocabulary, its length in tokens and its sorted n-gram keys. An
/// NL2SVA [`crate::Scorer`] holds one per case, since every response
/// of the case is scored against the same reference.
pub(crate) struct BleuReference<'a> {
    /// Token text to id, over the reference's tokens only.
    vocab: HashMap<&'a str, u32>,
    /// Reference length in tokens.
    len: usize,
    /// Sorted n-gram keys for n = 1..=4.
    ngrams: [Vec<u128>; 4],
}

impl<'a> BleuReference<'a> {
    pub(crate) fn new(reference: &'a str) -> BleuReference<'a> {
        let mut vocab: HashMap<&str, u32> = HashMap::new();
        let ids: Vec<u32> = code_tokens(reference)
            .into_iter()
            .map(|t| {
                let next = vocab.len() as u32;
                *vocab.entry(t).or_insert(next)
            })
            .collect();
        BleuReference {
            len: ids.len(),
            ngrams: [1, 2, 3, 4].map(|n| sorted_ngrams(&ids, n)),
            vocab,
        }
    }

    /// [`bleu`] of `candidate` against this reference.
    pub(crate) fn score(&self, candidate: &str) -> f64 {
        // Equal tokens get equal ids, so an n-gram compares as one
        // integer key. Every token the reference lacks gets the one id
        // outside its vocabulary: an n-gram holding it can never match,
        // so clipped counts and lengths are unchanged.
        let unknown = self.vocab.len() as u32;
        let c: Vec<u32> = code_tokens(candidate)
            .into_iter()
            .map(|t| self.vocab.get(t).copied().unwrap_or(unknown))
            .collect();
        if c.is_empty() || self.len == 0 {
            return 0.0;
        }
        let mut log_sum = 0.0;
        for (n, reference) in (1..=4).zip(&self.ngrams) {
            let p = modified_precision(reference, &sorted_ngrams(&c, n));
            log_sum += p.ln() * 0.25;
        }
        let bp = if c.len() >= self.len {
            1.0
        } else {
            (1.0 - self.len as f64 / c.len() as f64).exp()
        };
        bp * log_sum.exp()
    }
}

/// Every `n`-gram of `tokens` (`n <= 4`) packed into one key, sorted.
fn sorted_ngrams(tokens: &[u32], n: usize) -> Vec<u128> {
    let mut keys: Vec<u128> = tokens
        .windows(n)
        .map(|w| w.iter().fold(0, |key, &id| (key << 32) | u128::from(id)))
        .collect();
    keys.sort_unstable();
    keys
}

/// Smoothed precision of the candidate's sorted n-gram keys `c`
/// against the reference's `r`.
fn modified_precision(r: &[u128], c: &[u128]) -> f64 {
    // Each candidate n-gram counts at most as often as the reference
    // has it: the clipped count is the size of the multiset
    // intersection, one merge over the two sorted lists.
    let (mut i, mut j, mut clipped) = (0, 0, 0usize);
    while i < c.len() && j < r.len() {
        match c[i].cmp(&r[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                clipped += 1;
                i += 1;
                j += 1;
            }
        }
    }
    // +1 smoothing keeps zero-overlap candidates comparable.
    (clipped as f64 + 1.0) / (c.len() as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_is_one() {
        let s = "asrt: assert property (@(posedge clk) a |-> ##2 b);";
        assert!((bleu(s, s) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_candidate_is_zero() {
        assert_eq!(bleu("a b c", ""), 0.0);
        assert_eq!(bleu("", "a"), 0.0);
    }

    #[test]
    fn partial_overlap_is_between() {
        let r = "assert property (@(posedge clk) (a && b) |-> c);";
        let c = "assert property (@(posedge clk) (a || b) |-> c);";
        let s = bleu(r, c);
        assert!(s > 0.5 && s < 1.0, "got {s}");
    }

    #[test]
    fn order_matters() {
        let r = "a b c d e f g h";
        let shuffled = "h g f e d c b a";
        assert!(bleu(r, shuffled) < bleu(r, "a b c d e f g x"));
    }

    #[test]
    fn brevity_penalty_applies() {
        let r = "a b c d e f g h i j";
        let short = "a b c";
        let long = "a b c d e f g h i j";
        assert!(bleu(r, short) < bleu(r, long));
    }

    #[test]
    fn symmetric_in_range() {
        let r = "assert property (x |-> y);";
        let c = "property assert (y |-> x);";
        let s = bleu(r, c);
        assert!((0.0..=1.0).contains(&s));
    }

    /// String-keyed BLEU — owned `String` tokens and one `HashMap` of
    /// n-gram slices per order — as the oracle the id-based [`bleu`]
    /// and [`BleuReference`] must match bit for bit.
    mod oracle {
        use std::collections::HashMap;

        fn code_tokens(text: &str) -> Vec<String> {
            let mut out = Vec::new();
            let mut cur = String::new();
            for ch in text.chars() {
                if ch.is_ascii_alphanumeric() || ch == '_' || ch == '$' {
                    cur.push(ch);
                } else {
                    if !cur.is_empty() {
                        out.push(std::mem::take(&mut cur));
                    }
                    if !ch.is_whitespace() {
                        out.push(ch.to_string());
                    }
                }
            }
            if !cur.is_empty() {
                out.push(cur);
            }
            out
        }

        pub fn bleu(reference: &str, candidate: &str) -> f64 {
            let r = code_tokens(reference);
            let c = code_tokens(candidate);
            if c.is_empty() || r.is_empty() {
                return 0.0;
            }
            let mut log_sum = 0.0;
            for n in 1..=4usize {
                let p = modified_precision(&r, &c, n);
                log_sum += p.ln() * 0.25;
            }
            let bp = if c.len() >= r.len() {
                1.0
            } else {
                (1.0 - r.len() as f64 / c.len() as f64).exp()
            };
            bp * log_sum.exp()
        }

        fn ngram_counts(tokens: &[String], n: usize) -> HashMap<&[String], usize> {
            let mut m: HashMap<&[String], usize> = HashMap::new();
            if tokens.len() >= n {
                for w in tokens.windows(n) {
                    *m.entry(w).or_insert(0) += 1;
                }
            }
            m
        }

        fn modified_precision(reference: &[String], candidate: &[String], n: usize) -> f64 {
            let ref_counts = ngram_counts(reference, n);
            let cand_counts = ngram_counts(candidate, n);
            let total: usize = cand_counts.values().sum();
            let clipped: usize = cand_counts
                .iter()
                .map(|(g, &c)| c.min(ref_counts.get(g).copied().unwrap_or(0)))
                .sum();
            (clipped as f64 + 1.0) / (total as f64 + 1.0)
        }
    }

    fn assert_matches_oracle(reference: &str, candidate: &str) {
        assert_eq!(
            bleu(reference, candidate).to_bits(),
            oracle::bleu(reference, candidate).to_bits(),
            "reference {reference:?}, candidate {candidate:?}"
        );
    }

    #[test]
    fn matches_oracle_on_edge_cases() {
        for (r, c) in [
            ("", ""),
            ("a", ""),
            ("a", "a"),
            ("a b", "a"),
            ("a a a a a", "a a"),
            ("a b a b a b", "b a b a"),
            ("x |-> ##1 y;", "x\u{2264}y \u{2264}"),
        ] {
            assert_matches_oracle(r, c);
            assert_matches_oracle(c, r);
        }
    }

    #[test]
    fn matches_oracle_on_every_shipped_reference() {
        use fveval_data::{
            generate_machine_cases, human_cases, machine_signal_table, signal_table_for,
            testbenches, MachineGenConfig,
        };
        use fveval_llm::{profiles, Backend, InferenceConfig, Request};

        let tables: HashMap<&str, fv_core::SignalTable> = testbenches()
            .iter()
            .map(|tb| (tb.name, signal_table_for(tb).unwrap()))
            .collect();
        let mut tasks = crate::human_task_specs(&human_cases(), &tables);
        tasks.extend(crate::machine_task_specs(
            &generate_machine_cases(MachineGenConfig::default()),
            &machine_signal_table(),
        ));
        let models = profiles();
        assert_eq!(models.len(), 8);
        let mut scored = 0;
        for task in &tasks {
            let reference = task
                .reference_text()
                .expect("NL2SVA tasks have a reference");
            assert_matches_oracle(reference, reference);
            // One precomputed reference side serves every response, as
            // in a scorer.
            let precomputed = BleuReference::new(reference);
            for cfg in [
                InferenceConfig::greedy(),
                InferenceConfig::greedy().with_shots(3),
            ] {
                let req = Request {
                    task: std::sync::Arc::clone(task),
                    cfg,
                    sample_idx: 0,
                };
                for model in &models {
                    let response = model.generate(&req);
                    assert_matches_oracle(reference, &response);
                    assert_eq!(
                        precomputed.score(&response).to_bits(),
                        oracle::bleu(reference, &response).to_bits(),
                        "reference {reference:?}, response {response:?}"
                    );
                    scored += 1;
                }
            }
        }
        assert_eq!(
            scored,
            (79 + 300) * 2 * 8,
            "every human and machine reference"
        );
    }
}
