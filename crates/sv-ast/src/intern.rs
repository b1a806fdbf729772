//! Arena-backed string interning for elaboration.
//!
//! Every identifier an elaboration touches — scope keys, flattened
//! hierarchical names, net-map keys — is interned once into a single
//! append-only character arena and referred to by a [`Symbol`] (a
//! `u32`). Scope lookups and net-map probes become integer compares,
//! and per-name cloning disappears (a `Symbol` is `Copy`).
//!
//! The interner is *per design*: an [`Interner`] is created at the
//! start of an elaboration, grows while flattening, and is frozen
//! (shared behind an `Arc`) inside the produced netlist. Resuming an
//! elaboration (the `bind_extras` flow) clones the interner and keeps
//! appending; symbols from the base design remain valid because the
//! arena is append-only.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A fast non-cryptographic hasher for interner-derived keys
/// ([`Symbol`]s, small integer tuples, precomputed digests). SipHash's
/// DoS resistance buys nothing for dense indices we mint ourselves,
/// and elaboration probes these maps on every scope lookup.
#[derive(Default)]
pub struct SymbolHasher(u64);

/// Odd multiplier from Fibonacci hashing (2^64 / φ).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for SymbolHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(MIX);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(32) ^ u64::from(n)).wrapping_mul(MIX);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(32) ^ n).wrapping_mul(MIX);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` keyed by symbols (or other self-minted small keys),
/// using [`SymbolHasher`].
pub type SymbolMap<K, V> = HashMap<K, V, BuildHasherDefault<SymbolHasher>>;

/// An interned string: a dense index into an [`Interner`]'s arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// Dense index (symbols are handed out consecutively from 0).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The symbol `n` places after this one in interning order.
    ///
    /// Only meaningful when the caller knows the arena laid those
    /// symbols out back-to-back (the elaborator interns every element
    /// of an unpacked array consecutively, so element `i` is
    /// `elem0.offset(i)` without re-hashing the name).
    pub fn offset(self, n: u32) -> Symbol {
        Symbol(self.0 + n)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// An append-only string arena with hashed deduplication.
///
/// All interned text lives in one `String` buffer; each [`Symbol`]
/// maps to a `(start, end)` span. Deduplication goes through FNV
/// hash buckets with a full-text compare on collision, so two interns
/// of equal text always return the same symbol.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    buf: String,
    spans: Vec<(u32, u32)>,
    buckets: SymbolMap<u64, Vec<Symbol>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Number of distinct symbols.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when no string has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The text of a symbol.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this interner (or a clone
    /// sharing its prefix).
    pub fn resolve(&self, sym: Symbol) -> &str {
        let (lo, hi) = self.spans[sym.index()];
        &self.buf[lo as usize..hi as usize]
    }

    /// Interns `s`, returning the existing symbol when already present.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.intern_parts(&[s])
    }

    /// Interns the concatenation of `parts` without allocating the
    /// concatenated string first (the flattener's
    /// `prefix + name` hot path).
    pub fn intern_parts(&mut self, parts: &[&str]) -> Symbol {
        let mut h = FNV_OFFSET;
        for p in parts {
            h = fnv_bytes(h, p.as_bytes());
        }
        if let Some(cands) = self.buckets.get(&h) {
            'cand: for &sym in cands {
                let (lo, hi) = self.spans[sym.index()];
                let mut text = &self.buf[lo as usize..hi as usize];
                for p in parts {
                    match text.strip_prefix(p) {
                        Some(rest) => text = rest,
                        None => continue 'cand,
                    }
                }
                if text.is_empty() {
                    return sym;
                }
            }
        }
        let lo = self.buf.len() as u32;
        for p in parts {
            self.buf.push_str(p);
        }
        let hi = self.buf.len() as u32;
        let sym = Symbol(self.spans.len() as u32);
        self.spans.push((lo, hi));
        self.buckets.entry(h).or_default().push(sym);
        sym
    }

    /// The symbol of `s` if it was interned, without inserting.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        let h = fnv_bytes(FNV_OFFSET, s.as_bytes());
        self.buckets.get(&h)?.iter().copied().find(|&sym| {
            let (lo, hi) = self.spans[sym.index()];
            &self.buf[lo as usize..hi as usize] == s
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedupes_and_resolves() {
        let mut i = Interner::new();
        let a = i.intern("clk");
        let b = i.intern("reset_");
        let a2 = i.intern("clk");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "clk");
        assert_eq!(i.resolve(b), "reset_");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn intern_parts_matches_concatenation() {
        let mut i = Interner::new();
        let whole = i.intern("dut.q");
        let parts = i.intern_parts(&["dut.", "q"]);
        assert_eq!(whole, parts);
        // Same characters, different split points: still one symbol.
        assert_eq!(i.intern_parts(&["dut", ".q"]), whole);
        assert_eq!(i.len(), 1);
        // A prefix-sharing but different string is distinct.
        let other = i.intern_parts(&["dut.", "qq"]);
        assert_ne!(other, whole);
        assert_eq!(i.resolve(other), "dut.qq");
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut i = Interner::new();
        assert_eq!(i.lookup("x"), None);
        let s = i.intern("x");
        assert_eq!(i.lookup("x"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn clone_keeps_symbols_valid_while_appending() {
        let mut base = Interner::new();
        let a = base.intern("a");
        let mut cont = base.clone();
        let b = cont.intern("b");
        assert_eq!(cont.resolve(a), "a");
        assert_eq!(cont.resolve(b), "b");
        // The original is untouched.
        assert_eq!(base.len(), 1);
    }
}
