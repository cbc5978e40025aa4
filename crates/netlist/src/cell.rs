//! Cell kinds and their combinational semantics.

use std::fmt;

/// Truth table of a k-input LUT, k ≤ 6, stored as a 64-bit mask.
///
/// Bit `i` of the mask is the LUT output when the inputs, read as a binary
/// number with input 0 as the least-significant bit, equal `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LutMask {
    mask: u64,
    k: u8,
}

impl LutMask {
    /// Maximum supported LUT arity.
    pub const MAX_K: usize = 6;

    /// Creates a LUT mask for a `k`-input LUT.
    ///
    /// Bits of `mask` above `2^k` are ignored (cleared).
    ///
    /// # Panics
    ///
    /// Panics if `k > 6`.
    pub fn new(mask: u64, k: usize) -> Self {
        assert!(k <= Self::MAX_K, "LUT arity {k} exceeds {}", Self::MAX_K);
        let keep = if k == 6 {
            u64::MAX
        } else {
            (1u64 << (1 << k)) - 1
        };
        Self {
            mask: mask & keep,
            k: k as u8,
        }
    }

    /// Number of LUT inputs.
    pub fn arity(self) -> usize {
        self.k as usize
    }

    /// The raw truth-table mask.
    pub fn mask(self) -> u64 {
        self.mask
    }

    /// Evaluates the LUT on the given input bits.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()`.
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.k as usize, "LUT input arity mismatch");
        let mut idx = 0usize;
        for (i, &b) in inputs.iter().enumerate() {
            if b {
                idx |= 1 << i;
            }
        }
        (self.mask >> idx) & 1 == 1
    }

    /// Returns `true` when the LUT output never depends on input `i`
    /// (a *don't-care* input, removable by the shrinking step).
    pub fn ignores_input(self, i: usize) -> bool {
        assert!(i < self.k as usize);
        let n = 1usize << self.k;
        for idx in 0..n {
            if idx & (1 << i) == 0 {
                let hi = idx | (1 << i);
                if (self.mask >> idx) & 1 != (self.mask >> hi) & 1 {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Display for LutMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LUT{}:{:#x}", self.k, self.mask)
    }
}

/// The kind of a netlist cell.
///
/// Every kind has exactly one output. Input ordering conventions:
///
/// * [`CellKind::Mux2`]: `inputs = [sel, a, b]`, output = `sel ? b : a`.
/// * [`CellKind::Mux4`]: `inputs = [s1, s0, a, b, c, d]`, output selects
///   `a/b/c/d` for `s1s0 = 00/01/10/11`.
/// * [`CellKind::Dff`]: `inputs = [d]`; the output is the registered value
///   (one global clock).
/// * [`CellKind::Latch`]: `inputs = [en, d]`; level-sensitive, used by the
///   FABulous-style configuration storage.
/// * [`CellKind::Lut`]: arbitrary k ≤ 6 truth table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Logical AND of all inputs (≥ 1 input).
    And,
    /// Logical OR of all inputs (≥ 1 input).
    Or,
    /// NOT-AND of all inputs.
    Nand,
    /// NOT-OR of all inputs.
    Nor,
    /// XOR (parity) of all inputs.
    Xor,
    /// XNOR (inverted parity) of all inputs.
    Xnor,
    /// Inverter (exactly 1 input).
    Not,
    /// Buffer (exactly 1 input).
    Buf,
    /// 2:1 multiplexer, `[sel, a, b]`.
    Mux2,
    /// 4:1 multiplexer, `[s1, s0, a, b, c, d]`.
    Mux4,
    /// k-input lookup table.
    Lut(LutMask),
    /// D flip-flop, `[d]` (single implicit clock, resets to 0).
    Dff,
    /// Transparent latch, `[en, d]` (resets to 0).
    Latch,
    /// Constant driver.
    Const(bool),
}

impl CellKind {
    /// Number of inputs this kind requires, or `None` for variadic gates
    /// (And/Or/Nand/Nor/Xor/Xnor accept ≥ 1 input).
    pub fn fixed_arity(self) -> Option<usize> {
        match self {
            CellKind::Not | CellKind::Buf | CellKind::Dff => Some(1),
            CellKind::Latch => Some(2),
            CellKind::Mux2 => Some(3),
            CellKind::Mux4 => Some(6),
            CellKind::Lut(m) => Some(m.arity()),
            CellKind::Const(_) => Some(0),
            CellKind::And
            | CellKind::Or
            | CellKind::Nand
            | CellKind::Nor
            | CellKind::Xor
            | CellKind::Xnor => None,
        }
    }

    /// `true` for stateful kinds (DFF, latch).
    pub fn is_sequential(self) -> bool {
        matches!(self, CellKind::Dff | CellKind::Latch)
    }

    /// `true` for multiplexer kinds (the ROUTE resources of the paper).
    pub fn is_mux(self) -> bool {
        matches!(self, CellKind::Mux2 | CellKind::Mux4)
    }

    /// Checks that `n_inputs` is legal for this kind.
    pub fn arity_ok(self, n_inputs: usize) -> bool {
        match self.fixed_arity() {
            Some(k) => n_inputs == k,
            None => n_inputs >= 1,
        }
    }

    /// Combinational evaluation of a purely combinational kind. Sequential
    /// kinds ([`CellKind::Dff`], [`CellKind::Latch`]) have no combinational
    /// function: the simulator owns their semantics.
    ///
    /// # Panics
    ///
    /// Panics on sequential kinds or arity mismatch.
    pub fn eval_comb(self, inputs: &[bool]) -> bool {
        debug_assert!(self.arity_ok(inputs.len()), "{self:?} arity mismatch");
        match self {
            CellKind::And => inputs.iter().all(|&b| b),
            CellKind::Or => inputs.iter().any(|&b| b),
            CellKind::Nand => !inputs.iter().all(|&b| b),
            CellKind::Nor => !inputs.iter().any(|&b| b),
            CellKind::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            CellKind::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
            CellKind::Not => !inputs[0],
            CellKind::Buf => inputs[0],
            CellKind::Mux2 => {
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
            CellKind::Mux4 => {
                let idx = ((inputs[0] as usize) << 1) | inputs[1] as usize;
                inputs[2 + idx]
            }
            CellKind::Lut(m) => m.eval(inputs),
            CellKind::Const(v) => v,
            CellKind::Dff | CellKind::Latch => {
                panic!("sequential cell evaluated combinationally")
            }
        }
    }

    /// Short mnemonic used by the Verilog writer and reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CellKind::And => "and",
            CellKind::Or => "or",
            CellKind::Nand => "nand",
            CellKind::Nor => "nor",
            CellKind::Xor => "xor",
            CellKind::Xnor => "xnor",
            CellKind::Not => "not",
            CellKind::Buf => "buf",
            CellKind::Mux2 => "mux2",
            CellKind::Mux4 => "mux4",
            CellKind::Lut(_) => "lut",
            CellKind::Dff => "dff",
            CellKind::Latch => "latch",
            CellKind::Const(false) => "const0",
            CellKind::Const(true) => "const1",
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellKind::Lut(m) => write!(f, "{m}"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lut_mask_truncates() {
        let l = LutMask::new(u64::MAX, 2);
        assert_eq!(l.mask(), 0b1111);
        assert_eq!(l.arity(), 2);
    }

    #[test]
    fn lut_eval_matches_mask_bits() {
        // XOR2: mask 0b0110.
        let l = LutMask::new(0b0110, 2);
        assert!(!l.eval(&[false, false]));
        assert!(l.eval(&[true, false]));
        assert!(l.eval(&[false, true]));
        assert!(!l.eval(&[true, true]));
    }

    #[test]
    fn lut_ignores_input_detection() {
        // f = in0 (ignores in1): mask for (i1,i0): 00->0 01->1 10->0 11->1 = 0b1010.
        let l = LutMask::new(0b1010, 2);
        assert!(!l.ignores_input(0));
        assert!(l.ignores_input(1));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn lut_arity_limit() {
        let _ = LutMask::new(0, 7);
    }

    #[test]
    fn gate_semantics() {
        use CellKind::*;
        assert!(And.eval_comb(&[true, true, true]));
        assert!(!And.eval_comb(&[true, false]));
        assert!(Or.eval_comb(&[false, true]));
        assert!(Nand.eval_comb(&[true, false]));
        assert!(!Nand.eval_comb(&[true, true]));
        assert!(Nor.eval_comb(&[false, false]));
        assert!(Xor.eval_comb(&[true, true, true]));
        assert!(!Xor.eval_comb(&[true, true]));
        assert!(Xnor.eval_comb(&[true, true]));
        assert!(Not.eval_comb(&[false]));
        assert!(Buf.eval_comb(&[true]));
        assert!(Const(true).eval_comb(&[]));
        assert!(!Const(false).eval_comb(&[]));
    }

    #[test]
    fn mux2_selects() {
        // [sel, a, b]
        assert!(!CellKind::Mux2.eval_comb(&[false, false, true]));
        assert!(CellKind::Mux2.eval_comb(&[true, false, true]));
    }

    #[test]
    fn mux4_selects() {
        // [s1, s0, a, b, c, d]
        let data = [true, false, true, false]; // a,b,c,d
        for s in 0..4usize {
            let s1 = s & 2 != 0;
            let s0 = s & 1 != 0;
            let got = CellKind::Mux4.eval_comb(&[s1, s0, data[0], data[1], data[2], data[3]]);
            assert_eq!(got, data[s], "sel={s}");
        }
    }

    #[test]
    fn arity_checks() {
        assert!(CellKind::And.arity_ok(5));
        assert!(!CellKind::Not.arity_ok(2));
        assert!(CellKind::Mux4.arity_ok(6));
        assert!(CellKind::Const(false).arity_ok(0));
        assert!(CellKind::Lut(LutMask::new(0b10, 1)).arity_ok(1));
    }

    #[test]
    fn sequential_flags() {
        assert!(CellKind::Dff.is_sequential());
        assert!(CellKind::Latch.is_sequential());
        assert!(!CellKind::And.is_sequential());
        assert!(CellKind::Mux2.is_mux());
        assert!(!CellKind::Lut(LutMask::new(0, 1)).is_mux());
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn dff_comb_eval_panics() {
        CellKind::Dff.eval_comb(&[true]);
    }
}
