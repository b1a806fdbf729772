//! Approximate tokenization.
//!
//! The paper measures prompt/solution lengths with the Llama-3
//! tokenizer; this reproduction substitutes a byte-pair-style
//! approximation (alphanumeric runs count one token per ~4 characters,
//! punctuation one each), which preserves the *shape* of the length
//! distributions in Figures 2–4.

/// Splits text into lexical code tokens (identifiers, numbers, one
/// token per operator/punctuation char), borrowed from `text`. Used by
/// BLEU.
pub fn code_tokens(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    // Byte offset where the current identifier/number run started.
    let mut run: Option<usize> = None;
    for (i, ch) in text.char_indices() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == '$' {
            run.get_or_insert(i);
        } else {
            if let Some(start) = run.take() {
                out.push(&text[start..i]);
            }
            if !ch.is_whitespace() {
                out.push(&text[i..i + ch.len_utf8()]);
            }
        }
    }
    if let Some(start) = run {
        out.push(&text[start..]);
    }
    out
}

/// Approximate subword token count (Llama-3 tokenizer substitute).
///
/// # Examples
///
/// ```
/// use fveval_core::token_count;
/// assert!(token_count("assert property (a && b);") >= 8);
/// assert_eq!(token_count(""), 0);
/// ```
pub fn token_count(text: &str) -> usize {
    let mut count = 0usize;
    let mut run = 0usize;
    for ch in text.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            run += 1;
        } else {
            count += run.div_ceil(4);
            run = 0;
            if !ch.is_whitespace() {
                count += 1;
            }
        }
    }
    count + run.div_ceil(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_tokens_split_operators() {
        assert_eq!(
            code_tokens("a |-> ##2 b;"),
            vec!["a", "|", "-", ">", "#", "#", "2", "b", ";"]
        );
        assert_eq!(code_tokens("$onehot0(x)"), vec!["$onehot0", "(", "x", ")"]);
        assert_eq!(code_tokens("a\u{2264}b "), vec!["a", "\u{2264}", "b"]);
    }

    #[test]
    fn token_count_scales_with_length() {
        let short = token_count("wr_push |-> rd_pop");
        let long =
            token_count("wr_push |-> strong(##[0:$] rd_pop) && another_long_signal_name == 4'hF");
        assert!(long > short);
        assert!(short > 3);
    }

    #[test]
    fn token_count_handles_identifier_runs() {
        // 8-char identifier ~ 2 subword tokens.
        assert_eq!(token_count("abcdefgh"), 2);
        assert_eq!(token_count("ab"), 1);
        assert_eq!(token_count("a b"), 2);
    }
}
