//! Word-level bit-vector construction over an [`Aig`].
//!
//! Bits are stored LSB-first. All arithmetic follows Verilog 2-state
//! unsigned semantics at the expression width (wrap-around on overflow);
//! callers perform width extension explicitly, mirroring the elaborated
//! widths computed by `sv-synth`.

use crate::aig::{Aig, AigLit};

/// A fixed-width vector of AIG literals (LSB first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    bits: Vec<AigLit>,
}

impl BitVec {
    /// Builds a vector from LSB-first bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty; zero-width vectors are not representable.
    pub fn from_bits(bits: Vec<AigLit>) -> BitVec {
        assert!(!bits.is_empty(), "zero-width bit-vector");
        BitVec { bits }
    }

    /// A vector of fresh primary inputs.
    pub fn input(g: &mut Aig, width: usize) -> BitVec {
        BitVec::from_bits((0..width).map(|_| g.input()).collect())
    }

    /// A constant vector holding `value` truncated to `width` bits.
    pub fn constant(width: usize, value: u128) -> BitVec {
        BitVec::from_bits(
            (0..width)
                .map(|i| AigLit::constant(i < 128 && (value >> i) & 1 == 1))
                .collect(),
        )
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// The LSB-first bits.
    pub fn bits(&self) -> &[AigLit] {
        &self.bits
    }

    /// Bit at position `i` (LSB = 0).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn bit(&self, i: usize) -> AigLit {
        self.bits[i]
    }

    /// Single-bit vector from a literal.
    pub fn from_lit(l: AigLit) -> BitVec {
        BitVec { bits: vec![l] }
    }

    /// Zero-extends (or truncates) to `width`.
    pub fn resize(&self, width: usize) -> BitVec {
        let mut bits = self.bits.clone();
        bits.resize(width, AigLit::FALSE);
        bits.truncate(width);
        BitVec::from_bits(bits)
    }

    /// Slice `[lo..=hi]` (Verilog `x[hi:lo]`).
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi >= width`.
    pub fn slice(&self, hi: usize, lo: usize) -> BitVec {
        assert!(lo <= hi && hi < self.width(), "slice out of range");
        BitVec::from_bits(self.bits[lo..=hi].to_vec())
    }

    /// Reduction to a boolean: true iff any bit is set.
    pub fn reduce_or(&self, g: &mut Aig) -> AigLit {
        g.or_all(self.bits.iter().copied())
    }

    /// Reduction and: true iff all bits are set.
    pub fn reduce_and(&self, g: &mut Aig) -> AigLit {
        g.and_all(self.bits.iter().copied())
    }

    /// Reduction xor: parity of the bits.
    pub fn reduce_xor(&self, g: &mut Aig) -> AigLit {
        self.bits
            .iter()
            .fold(AigLit::FALSE, |acc, &b| g.xor(acc, b))
    }

    /// Boolean interpretation (Verilog truthiness): any bit set.
    pub fn to_bool(&self, g: &mut Aig) -> AigLit {
        self.reduce_or(g)
    }

    /// Bitwise not.
    pub fn not(&self) -> BitVec {
        BitVec::from_bits(self.bits.iter().map(|&b| !b).collect())
    }

    fn zip_with(
        &self,
        g: &mut Aig,
        rhs: &BitVec,
        f: impl Fn(&mut Aig, AigLit, AigLit) -> AigLit,
    ) -> BitVec {
        assert_eq!(self.width(), rhs.width(), "width mismatch");
        BitVec::from_bits(
            self.bits
                .iter()
                .zip(&rhs.bits)
                .map(|(&a, &b)| f(g, a, b))
                .collect(),
        )
    }

    /// Bitwise and.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch (as do all binary vector ops).
    pub fn and(&self, g: &mut Aig, rhs: &BitVec) -> BitVec {
        self.zip_with(g, rhs, Aig::and)
    }

    /// Bitwise or.
    pub fn or(&self, g: &mut Aig, rhs: &BitVec) -> BitVec {
        self.zip_with(g, rhs, Aig::or)
    }

    /// Bitwise xor.
    pub fn xor(&self, g: &mut Aig, rhs: &BitVec) -> BitVec {
        self.zip_with(g, rhs, Aig::xor)
    }

    /// Ripple-carry addition (wraps at width).
    pub fn add(&self, g: &mut Aig, rhs: &BitVec) -> BitVec {
        assert_eq!(self.width(), rhs.width(), "width mismatch");
        let mut carry = AigLit::FALSE;
        let mut out = Vec::with_capacity(self.width());
        for (&a, &b) in self.bits.iter().zip(&rhs.bits) {
            let axb = g.xor(a, b);
            out.push(g.xor(axb, carry));
            let ab = g.and(a, b);
            let ac = g.and(axb, carry);
            carry = g.or(ab, ac);
        }
        BitVec::from_bits(out)
    }

    /// Two's-complement negation.
    pub fn neg(&self, g: &mut Aig) -> BitVec {
        let one = BitVec::constant(self.width(), 1);
        self.not().add(g, &one)
    }

    /// Subtraction (wraps at width).
    pub fn sub(&self, g: &mut Aig, rhs: &BitVec) -> BitVec {
        let nr = rhs.neg(g);
        self.add(g, &nr)
    }

    /// Shift-and-add multiplication (truncated to width).
    pub fn mul(&self, g: &mut Aig, rhs: &BitVec) -> BitVec {
        assert_eq!(self.width(), rhs.width(), "width mismatch");
        let w = self.width();
        let mut acc = BitVec::constant(w, 0);
        for i in 0..w {
            let shifted = self.shl_const(i);
            let gated = BitVec::from_bits(
                shifted
                    .bits
                    .iter()
                    .map(|&b| g.and(b, rhs.bits[i]))
                    .collect(),
            );
            acc = acc.add(g, &gated);
        }
        acc
    }

    /// Left shift by a constant amount (zero fill).
    pub fn shl_const(&self, n: usize) -> BitVec {
        let w = self.width();
        let mut bits = vec![AigLit::FALSE; w];
        if n < w {
            bits[n..].copy_from_slice(&self.bits[..w - n]);
        }
        BitVec::from_bits(bits)
    }

    /// Logical right shift by a constant amount (zero fill).
    pub fn lshr_const(&self, n: usize) -> BitVec {
        let w = self.width();
        let mut bits = vec![AigLit::FALSE; w];
        // Shifts of >= w bits clear the vector entirely; `n..n + keep`
        // would be out of bounds for them.
        let keep = w.saturating_sub(n);
        if keep > 0 {
            bits[..keep].copy_from_slice(&self.bits[n..n + keep]);
        }
        BitVec::from_bits(bits)
    }

    /// Barrel left shift by a variable amount.
    pub fn shl(&self, g: &mut Aig, amount: &BitVec) -> BitVec {
        self.barrel(g, amount, |v, k| v.shl_const(k))
    }

    /// Barrel logical right shift by a variable amount.
    pub fn lshr(&self, g: &mut Aig, amount: &BitVec) -> BitVec {
        self.barrel(g, amount, |v, k| v.lshr_const(k))
    }

    fn barrel(
        &self,
        g: &mut Aig,
        amount: &BitVec,
        step: impl Fn(&BitVec, usize) -> BitVec,
    ) -> BitVec {
        // Shifts >= width produce the saturated fill; stages beyond
        // log2(width) collapse every bit.
        let w = self.width();
        let mut cur = self.clone();
        for (i, &sel) in amount.bits.iter().enumerate() {
            let shifted = if (1usize << i.min(31)) >= 2 * w {
                step(&cur, w) // fully shifted out
            } else {
                step(&cur, 1 << i.min(31))
            };
            cur = BitVec::from_bits(
                cur.bits
                    .iter()
                    .zip(&shifted.bits)
                    .map(|(&keep, &sh)| g.mux(sel, sh, keep))
                    .collect(),
            );
        }
        cur
    }

    /// Equality comparison.
    pub fn eq(&self, g: &mut Aig, rhs: &BitVec) -> AigLit {
        assert_eq!(self.width(), rhs.width(), "width mismatch");
        let pairs: Vec<AigLit> = self
            .bits
            .iter()
            .zip(&rhs.bits)
            .map(|(&a, &b)| g.xnor(a, b))
            .collect();
        g.and_all(pairs)
    }

    /// Inequality comparison.
    pub fn ne(&self, g: &mut Aig, rhs: &BitVec) -> AigLit {
        let e = self.eq(g, rhs);
        !e
    }

    /// Unsigned less-than.
    pub fn ult(&self, g: &mut Aig, rhs: &BitVec) -> AigLit {
        assert_eq!(self.width(), rhs.width(), "width mismatch");
        // MSB-down comparison chain.
        let mut lt = AigLit::FALSE;
        let mut eq_so_far = AigLit::TRUE;
        for i in (0..self.width()).rev() {
            let a = self.bits[i];
            let b = rhs.bits[i];
            let a_lt_b = g.and(!a, b);
            let here = g.and(eq_so_far, a_lt_b);
            lt = g.or(lt, here);
            let e = g.xnor(a, b);
            eq_so_far = g.and(eq_so_far, e);
        }
        lt
    }

    /// Unsigned less-or-equal.
    pub fn ule(&self, g: &mut Aig, rhs: &BitVec) -> AigLit {
        let gt = rhs.ult(g, self);
        !gt
    }

    /// Population count, returned as a vector wide enough to hold it.
    pub fn countones(&self, g: &mut Aig) -> BitVec {
        let out_w = usize::BITS as usize - self.width().leading_zeros() as usize;
        let out_w = out_w.max(1) + 1;
        let mut acc = BitVec::constant(out_w, 0);
        for &b in &self.bits {
            let ext = BitVec::from_lit(b).resize(out_w);
            acc = acc.add(g, &ext);
        }
        acc
    }

    /// `$onehot`: exactly one bit set.
    pub fn onehot(&self, g: &mut Aig) -> AigLit {
        let (none, two_plus) = self.zero_and_multi(g);
        let some = !none;
        g.and(some, !two_plus)
    }

    /// `$onehot0`: at most one bit set.
    pub fn onehot0(&self, g: &mut Aig) -> AigLit {
        let (_, two_plus) = self.zero_and_multi(g);
        !two_plus
    }

    /// Returns (no bit set, at least two bits set).
    fn zero_and_multi(&self, g: &mut Aig) -> (AigLit, AigLit) {
        let mut any = AigLit::FALSE;
        let mut multi = AigLit::FALSE;
        for &b in &self.bits {
            let both = g.and(any, b);
            multi = g.or(multi, both);
            any = g.or(any, b);
        }
        (!any, multi)
    }

    /// Unsigned division and remainder by restoring long division.
    ///
    /// Division by zero yields all-ones quotient and `self` as remainder
    /// (matching common hardware divider conventions; the benchmarks never
    /// divide by a possibly-zero value).
    pub fn udivrem(&self, g: &mut Aig, rhs: &BitVec) -> (BitVec, BitVec) {
        assert_eq!(self.width(), rhs.width(), "width mismatch");
        let w = self.width();
        let mut rem = BitVec::constant(w, 0);
        let mut quo = vec![AigLit::FALSE; w];
        for i in (0..w).rev() {
            // rem = (rem << 1) | bit(i)
            let mut shifted = rem.shl_const(1);
            let mut bits = shifted.bits().to_vec();
            bits[0] = self.bits[i];
            shifted = BitVec::from_bits(bits);
            let ge = rhs.ule(g, &shifted);
            let diff = shifted.sub(g, rhs);
            rem = BitVec::from_bits(
                shifted
                    .bits()
                    .iter()
                    .zip(diff.bits())
                    .map(|(&keep, &sub)| g.mux(ge, sub, keep))
                    .collect(),
            );
            quo[i] = ge;
        }
        let div_zero = rhs.eq(g, &BitVec::constant(w, 0));
        let quo = BitVec::from_bits(quo.iter().map(|&q| g.or(q, div_zero)).collect());
        let rem = BitVec::from_bits(
            rem.bits()
                .iter()
                .zip(self.bits())
                .map(|(&r, &a)| g.mux(div_zero, a, r))
                .collect(),
        );
        (quo, rem)
    }

    /// Word-level multiplexer.
    pub fn mux(g: &mut Aig, sel: AigLit, t: &BitVec, e: &BitVec) -> BitVec {
        assert_eq!(t.width(), e.width(), "width mismatch");
        BitVec::from_bits(
            t.bits
                .iter()
                .zip(&e.bits)
                .map(|(&a, &b)| g.mux(sel, a, b))
                .collect(),
        )
    }

    /// Replicates the vector `n` times (Verilog `{n{x}}`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn replicate(&self, n: usize) -> BitVec {
        assert!(n > 0, "zero replication");
        let mut bits = Vec::with_capacity(self.width() * n);
        for _ in 0..n {
            bits.extend_from_slice(&self.bits);
        }
        BitVec::from_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::AigEvaluator;

    /// Evaluates a combinational BitVec function against a u128 oracle.
    fn check2(
        w: usize,
        f: impl Fn(&mut Aig, &BitVec, &BitVec) -> BitVec,
        oracle: impl Fn(u128, u128) -> u128,
    ) {
        let mut g = Aig::new();
        let a = BitVec::input(&mut g, w);
        let b = BitVec::input(&mut g, w);
        let out = f(&mut g, &a, &b);
        let mask = if w == 128 {
            u128::MAX
        } else {
            (1u128 << w) - 1
        };
        let samples: &[(u128, u128)] = &[
            (0, 0),
            (1, 1),
            (3, 5),
            (mask, 1),
            (mask, mask),
            (0xAB, 0x13),
            (7, 9),
        ];
        for &(x, y) in samples {
            let (x, y) = (x & mask, y & mask);
            let mut inputs = Vec::new();
            for i in 0..w {
                inputs.push((x >> i) & 1 == 1);
            }
            for i in 0..w {
                inputs.push((y >> i) & 1 == 1);
            }
            let ev = AigEvaluator::combinational(&g, &inputs);
            let mut got: u128 = 0;
            for (i, &bit) in out.bits().iter().enumerate() {
                if ev.lit(bit) && i < 128 {
                    got |= 1 << i;
                }
            }
            let want = oracle(x, y) & mask;
            assert_eq!(got & mask, want, "w={w} x={x:#x} y={y:#x}");
        }
    }

    #[test]
    fn add_matches_wrapping_add() {
        check2(8, |g, a, b| a.add(g, b), |x, y| x.wrapping_add(y));
    }

    #[test]
    fn sub_matches_wrapping_sub() {
        check2(8, |g, a, b| a.sub(g, b), |x, y| x.wrapping_sub(y));
    }

    #[test]
    fn mul_matches_wrapping_mul() {
        check2(6, |g, a, b| a.mul(g, b), |x, y| x.wrapping_mul(y));
    }

    #[test]
    fn bitwise_ops_match() {
        check2(8, |g, a, b| a.and(g, b), |x, y| x & y);
        check2(8, |g, a, b| a.or(g, b), |x, y| x | y);
        check2(8, |g, a, b| a.xor(g, b), |x, y| x ^ y);
    }

    #[test]
    fn comparisons_match() {
        check2(
            5,
            |g, a, b| BitVec::from_lit(a.ult(g, b)).resize(5),
            |x, y| u128::from(x < y),
        );
        check2(
            5,
            |g, a, b| BitVec::from_lit(a.eq(g, b)).resize(5),
            |x, y| u128::from(x == y),
        );
        check2(
            5,
            |g, a, b| BitVec::from_lit(a.ule(g, b)).resize(5),
            |x, y| u128::from(x <= y),
        );
    }

    #[test]
    fn shifts_match() {
        check2(8, |_g, a, _b| a.shl_const(3), |x, _| x << 3);
        check2(8, |_g, a, _b| a.lshr_const(3), |x, _| (x & 0xff) >> 3);
        // Overshifts (amount > width) must saturate, not panic — the
        // barrel shifter reaches them for non-power-of-two widths.
        check2(8, |_g, a, _b| a.shl_const(11), |_, _| 0);
        check2(8, |_g, a, _b| a.lshr_const(11), |_, _| 0);
        check2(
            8,
            |g, a, b| a.shl(g, &b.resize(4)),
            |x, y| {
                let sh = y & 0xf;
                if sh >= 8 {
                    0
                } else {
                    x << sh
                }
            },
        );
        // Variable shift over a non-power-of-two width drives the
        // barrel stage whose constant step exceeds the width.
        check2(
            12,
            |g, a, b| a.lshr(g, &b.resize(5)),
            |x, y| {
                let sh = y & 0x1f;
                if sh >= 12 {
                    0
                } else {
                    (x & 0xfff) >> sh
                }
            },
        );
    }

    #[test]
    fn countones_and_onehot() {
        let mut g = Aig::new();
        let a = BitVec::input(&mut g, 6);
        let cnt = a.countones(&mut g);
        let oh = a.onehot(&mut g);
        let oh0 = a.onehot0(&mut g);
        for x in 0..64u32 {
            let inputs: Vec<bool> = (0..6).map(|i| (x >> i) & 1 == 1).collect();
            let ev = AigEvaluator::combinational(&g, &inputs);
            let mut got = 0u32;
            for (i, &b) in cnt.bits().iter().enumerate() {
                if ev.lit(b) {
                    got |= 1 << i;
                }
            }
            assert_eq!(got, x.count_ones(), "countones({x:#b})");
            assert_eq!(ev.lit(oh), x.count_ones() == 1, "onehot({x:#b})");
            assert_eq!(ev.lit(oh0), x.count_ones() <= 1, "onehot0({x:#b})");
        }
    }

    #[test]
    fn divrem_matches() {
        let mut g = Aig::new();
        let a = BitVec::input(&mut g, 5);
        let b = BitVec::input(&mut g, 5);
        let (q, r) = a.udivrem(&mut g, &b);
        for x in 0..32u32 {
            for y in 1..32u32 {
                let mut inputs = Vec::new();
                for i in 0..5 {
                    inputs.push((x >> i) & 1 == 1);
                }
                for i in 0..5 {
                    inputs.push((y >> i) & 1 == 1);
                }
                let ev = AigEvaluator::combinational(&g, &inputs);
                let read = |v: &BitVec| -> u32 {
                    v.bits()
                        .iter()
                        .enumerate()
                        .map(|(i, &b)| (ev.lit(b) as u32) << i)
                        .sum()
                };
                assert_eq!(read(&q), x / y, "{x}/{y}");
                assert_eq!(read(&r), x % y, "{x}%{y}");
            }
        }
    }

    #[test]
    fn slice_concat_replicate() {
        let mut g = Aig::new();
        let a = BitVec::input(&mut g, 8);
        let hi = a.slice(7, 4);
        let lo = a.slice(3, 0);
        let back = BitVec::from_bits([lo.bits(), hi.bits()].concat());
        assert_eq!(back, a);
        let rep = lo.replicate(2);
        assert_eq!(rep.width(), 8);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut g = Aig::new();
        let a = BitVec::input(&mut g, 4);
        let b = BitVec::input(&mut g, 5);
        let _ = a.add(&mut g, &b);
    }
}
