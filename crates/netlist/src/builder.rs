//! Word-level construction helpers on top of the bit-level [`Netlist`].
//!
//! The standard word operators over multi-bit buses (bitwise logic, ripple
//! adders, comparators, mux trees, registers, decoders), so a test can build
//! a small datapath that reads like RTL. The benchmark generators in
//! `shell-circuits` use their own helpers (`shell_circuits::common`).

use crate::cell::CellKind;
use crate::netlist::{NetId, Netlist};

/// Builder wrapping a [`Netlist`] with bus-oriented helpers.
///
/// # Example
///
/// ```
/// use shell_netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new("adder");
/// let x = b.input_bus("x", 4);
/// let y = b.input_bus("y", 4);
/// let (sum, carry) = b.adder(&x, &y);
/// b.output_bus("sum", &sum);
/// b.output("cout", carry);
/// let netlist = b.finish();
/// // 3 + 5 = 8
/// let mut inputs = vec![true, true, false, false]; // x = 3 (LSB first)
/// inputs.extend([true, false, true, false]);        // y = 5
/// let out = netlist.eval_comb(&inputs);
/// assert_eq!(out, vec![false, false, false, true, false]); // 8, no carry
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    netlist: Netlist,
    fresh: u64,
}

impl NetlistBuilder {
    /// Starts building a netlist called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            netlist: Netlist::new(name),
            fresh: 0,
        }
    }

    /// Consumes the builder and returns the finished netlist.
    pub fn finish(self) -> Netlist {
        self.netlist
    }

    /// Read-only access to the netlist under construction.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}_{}", self.fresh)
    }

    // ------------------------------------------------------------------
    // Ports
    // ------------------------------------------------------------------

    /// Declares a 1-bit primary input.
    pub fn input(&mut self, name: &str) -> NetId {
        self.netlist.add_input(name)
    }

    /// Declares a `width`-bit input bus `name\[0\] .. name[width-1]`
    /// (LSB first).
    pub fn input_bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        (0..width)
            .map(|i| self.netlist.add_input(format!("{name}[{i}]")))
            .collect()
    }

    /// Declares a `width`-bit key input bus.
    pub fn key_bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        (0..width)
            .map(|i| self.netlist.add_key_input(format!("{name}[{i}]")))
            .collect()
    }

    /// Exports a single net as primary output `name`.
    pub fn output(&mut self, name: &str, net: NetId) {
        self.netlist.add_output(name, net);
    }

    /// Exports a bus as primary outputs `name\[0\] .. name[n-1]`.
    pub fn output_bus(&mut self, name: &str, bus: &[NetId]) {
        for (i, &n) in bus.iter().enumerate() {
            self.netlist.add_output(format!("{name}[{i}]"), n);
        }
    }

    // ------------------------------------------------------------------
    // Bit-level gates
    // ------------------------------------------------------------------

    /// Adds a gate with a fresh name.
    pub fn gate(&mut self, kind: CellKind, inputs: Vec<NetId>) -> NetId {
        let name = self.fresh_name(kind.mnemonic());
        self.netlist.add_cell(name, kind, inputs)
    }

    /// 2-input AND.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::And, vec![a, b])
    }

    /// 2-input OR.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Or, vec![a, b])
    }

    /// 2-input XOR.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Xor, vec![a, b])
    }

    /// Inverter.
    pub fn not1(&mut self, a: NetId) -> NetId {
        self.gate(CellKind::Not, vec![a])
    }

    /// 2:1 mux: `sel ? b : a`.
    pub fn mux2(&mut self, sel: NetId, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Mux2, vec![sel, a, b])
    }

    /// Constant bit.
    pub fn constant(&mut self, value: bool) -> NetId {
        self.gate(CellKind::Const(value), vec![])
    }

    /// D flip-flop.
    pub fn dff(&mut self, d: NetId) -> NetId {
        self.gate(CellKind::Dff, vec![d])
    }

    // ------------------------------------------------------------------
    // Word-level operators (all buses LSB-first)
    // ------------------------------------------------------------------

    /// Bitwise binary operator over two equal-width buses.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn bitwise(&mut self, kind: CellKind, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        assert_eq!(a.len(), b.len(), "bus width mismatch");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.gate(kind, vec![x, y]))
            .collect()
    }

    /// Bitwise AND of two buses.
    pub fn and_word(&mut self, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        self.bitwise(CellKind::And, a, b)
    }

    /// Bitwise XOR of two buses.
    pub fn xor_word(&mut self, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        self.bitwise(CellKind::Xor, a, b)
    }

    /// Word-wide 2:1 mux: `sel ? b : a` per bit.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn mux_word(&mut self, sel: NetId, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        assert_eq!(a.len(), b.len(), "bus width mismatch");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.mux2(sel, x, y))
            .collect()
    }

    /// Ripple-carry adder. Returns `(sum, carry_out)`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn adder(&mut self, a: &[NetId], b: &[NetId]) -> (Vec<NetId>, NetId) {
        assert_eq!(a.len(), b.len(), "bus width mismatch");
        let mut carry = self.constant(false);
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let p = self.xor2(x, y);
            let s = self.xor2(p, carry);
            let g = self.and2(x, y);
            let pc = self.and2(p, carry);
            carry = self.or2(g, pc);
            sum.push(s);
        }
        (sum, carry)
    }

    /// Increment-by-one. Returns `(sum, carry_out)`.
    pub fn increment(&mut self, a: &[NetId]) -> (Vec<NetId>, NetId) {
        let mut carry = self.constant(true);
        let mut sum = Vec::with_capacity(a.len());
        for &x in a {
            let s = self.xor2(x, carry);
            carry = self.and2(x, carry);
            sum.push(s);
        }
        (sum, carry)
    }

    /// Equality comparator against a constant: `bus == value`.
    pub fn eq_const(&mut self, bus: &[NetId], value: u64) -> NetId {
        let bits: Vec<NetId> = bus
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                if (value >> i) & 1 == 1 {
                    b
                } else {
                    self.not1(b)
                }
            })
            .collect();
        self.reduce(CellKind::And, &bits)
    }

    /// Equality comparator between two buses.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn eq_word(&mut self, a: &[NetId], b: &[NetId]) -> NetId {
        let xn = self.bitwise(CellKind::Xnor, a, b);
        self.reduce(CellKind::And, &xn)
    }

    /// Balanced reduction tree of a variadic gate kind over `bits`.
    ///
    /// # Panics
    ///
    /// Panics when `bits` is empty.
    pub fn reduce(&mut self, kind: CellKind, bits: &[NetId]) -> NetId {
        assert!(!bits.is_empty(), "cannot reduce an empty bus");
        let mut layer: Vec<NetId> = bits.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(self.gate(kind, vec![pair[0], pair[1]]));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        layer[0]
    }

    /// N-way one-hot mux tree built from 2:1 muxes: `inputs[sel]` per bit.
    ///
    /// `sel` is an LSB-first select bus of width `ceil(log2(inputs.len()))`;
    /// `inputs` are equal-width words. Out-of-range selects wrap to the last
    /// input.
    ///
    /// # Panics
    ///
    /// Panics when `inputs` is empty, words have unequal width, or the select
    /// bus is too narrow.
    pub fn mux_tree(&mut self, sel: &[NetId], inputs: &[Vec<NetId>]) -> Vec<NetId> {
        assert!(!inputs.is_empty(), "mux tree needs at least one input");
        let width = inputs[0].len();
        assert!(
            inputs.iter().all(|w| w.len() == width),
            "mux tree word width mismatch"
        );
        let need = usize::BITS as usize - (inputs.len() - 1).leading_zeros() as usize;
        let need = if inputs.len() == 1 { 0 } else { need };
        assert!(sel.len() >= need, "select bus too narrow");
        let mut layer: Vec<Vec<NetId>> = inputs.to_vec();
        for &s in sel.iter().take(need) {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(self.mux_word(s, &pair[0], &pair[1]));
                } else {
                    next.push(pair[0].clone());
                }
            }
            layer = next;
        }
        layer.remove(0)
    }

    /// Binary decoder: output `i` is high iff `sel == i`.
    pub fn decoder(&mut self, sel: &[NetId]) -> Vec<NetId> {
        let n = 1usize << sel.len();
        (0..n).map(|i| self.eq_const(sel, i as u64)).collect()
    }

    /// Registers a whole word (one DFF per bit).
    pub fn reg_word(&mut self, d: &[NetId]) -> Vec<NetId> {
        d.iter().map(|&b| self.dff(b)).collect()
    }

    /// A register word with enable: `q' = en ? d : q`.
    pub fn reg_word_en(&mut self, en: NetId, d: &[NetId]) -> Vec<NetId> {
        // Build feedback: create the DFF first via placeholder nets.
        let mut qs = Vec::with_capacity(d.len());
        for &bit in d {
            let qname = self.fresh_name("q");
            let q = self.netlist.add_net(qname);
            let next = self.gate(CellKind::Mux2, vec![en, q, bit]);
            let name = self.fresh_name("dff");
            self.netlist
                .add_cell_driving(name, CellKind::Dff, vec![next], q)
                .expect("fresh net cannot be driven");
            qs.push(q);
        }
        qs
    }

    /// Constant word (LSB first).
    pub fn const_word(&mut self, value: u64, width: usize) -> Vec<NetId> {
        (0..width)
            .map(|i| self.constant((value >> i) & 1 == 1))
            .collect()
    }
}

/// Packs a u64 into an LSB-first bool vector of the given width.
pub fn to_bits(value: u64, width: usize) -> Vec<bool> {
    (0..width).map(|i| (value >> i) & 1 == 1).collect()
}

/// Unpacks an LSB-first bool slice into a u64.
///
/// # Panics
///
/// Panics when `bits.len() > 64`.
pub fn from_bits(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64);
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_adds() {
        let mut b = NetlistBuilder::new("add");
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (s, c) = b.adder(&x, &y);
        b.output_bus("s", &s);
        b.output("c", c);
        let n = b.finish();
        for (xa, ya) in [(0u64, 0u64), (1, 1), (100, 55), (200, 100), (255, 255)] {
            let mut inp = to_bits(xa, 8);
            inp.extend(to_bits(ya, 8));
            let out = n.eval_comb(&inp);
            let sum = from_bits(&out[..8]);
            let carry = out[8] as u64;
            assert_eq!(sum + (carry << 8), xa + ya, "{xa}+{ya}");
        }
    }

    #[test]
    fn increment_wraps() {
        let mut b = NetlistBuilder::new("inc");
        let x = b.input_bus("x", 4);
        let (s, c) = b.increment(&x);
        b.output_bus("s", &s);
        b.output("c", c);
        let n = b.finish();
        let out = n.eval_comb(&to_bits(15, 4));
        assert_eq!(from_bits(&out[..4]), 0);
        assert!(out[4]);
        let out = n.eval_comb(&to_bits(6, 4));
        assert_eq!(from_bits(&out[..4]), 7);
        assert!(!out[4]);
    }

    #[test]
    fn eq_const_matches() {
        let mut b = NetlistBuilder::new("eq");
        let x = b.input_bus("x", 4);
        let hit = b.eq_const(&x, 10);
        b.output("hit", hit);
        let n = b.finish();
        for v in 0..16u64 {
            assert_eq!(n.eval_comb(&to_bits(v, 4)), vec![v == 10]);
        }
    }

    #[test]
    fn eq_word_matches() {
        let mut b = NetlistBuilder::new("eqw");
        let x = b.input_bus("x", 3);
        let y = b.input_bus("y", 3);
        let e = b.eq_word(&x, &y);
        b.output("e", e);
        let n = b.finish();
        for xv in 0..8u64 {
            for yv in 0..8u64 {
                let mut inp = to_bits(xv, 3);
                inp.extend(to_bits(yv, 3));
                assert_eq!(n.eval_comb(&inp), vec![xv == yv]);
            }
        }
    }

    #[test]
    fn mux_tree_selects() {
        let mut b = NetlistBuilder::new("mt");
        let sel = b.input_bus("sel", 2);
        let words: Vec<Vec<NetId>> = (0..4).map(|i| b.input_bus(&format!("w{i}"), 2)).collect();
        let out = b.mux_tree(&sel, &words);
        b.output_bus("o", &out);
        let n = b.finish();
        // Put distinct values 0..4 on the four words, sweep sel.
        for s in 0..4u64 {
            let mut inp = to_bits(s, 2);
            for w in 0..4u64 {
                inp.extend(to_bits(w, 2));
            }
            let out = n.eval_comb(&inp);
            assert_eq!(from_bits(&out), s, "sel={s}");
        }
    }

    #[test]
    fn mux_tree_three_inputs() {
        let mut b = NetlistBuilder::new("mt3");
        let sel = b.input_bus("sel", 2);
        let words: Vec<Vec<NetId>> = (0..3).map(|i| b.input_bus(&format!("w{i}"), 4)).collect();
        let out = b.mux_tree(&sel, &words);
        b.output_bus("o", &out);
        let n = b.finish();
        for s in 0..3u64 {
            let mut inp = to_bits(s, 2);
            for w in 0..3u64 {
                inp.extend(to_bits(w + 5, 4));
            }
            let out = n.eval_comb(&inp);
            assert_eq!(from_bits(&out), s + 5, "sel={s}");
        }
    }

    #[test]
    fn decoder_one_hot() {
        let mut b = NetlistBuilder::new("dec");
        let sel = b.input_bus("sel", 3);
        let outs = b.decoder(&sel);
        b.output_bus("o", &outs);
        let n = b.finish();
        for v in 0..8u64 {
            let out = n.eval_comb(&to_bits(v, 3));
            assert_eq!(from_bits(&out), 1 << v);
        }
    }

    #[test]
    fn reg_word_en_holds() {
        let mut b = NetlistBuilder::new("ren");
        let en = b.input("en");
        let d = b.input_bus("d", 4);
        let q = b.reg_word_en(en, &d);
        b.output_bus("q", &q);
        let n = b.finish();
        let mut sim = crate::sim::Simulator::new(&n);
        // Load 9 with enable.
        let mut inp = vec![true];
        inp.extend(to_bits(9, 4));
        sim.step(&inp, &[]);
        // Hold with enable low and different data.
        let mut inp = vec![false];
        inp.extend(to_bits(3, 4));
        let out = sim.step(&inp, &[]);
        assert_eq!(from_bits(&out), 9);
        let out = sim.step(&inp, &[]);
        assert_eq!(from_bits(&out), 9);
        // Update.
        let mut inp = vec![true];
        inp.extend(to_bits(3, 4));
        sim.step(&inp, &[]);
        let out = sim.settle(&[false, false, false, false, false], &[]);
        assert_eq!(from_bits(&out), 3);
    }

    #[test]
    fn const_word_value() {
        let mut b = NetlistBuilder::new("cw");
        let w = b.const_word(0b1011, 4);
        b.output_bus("o", &w);
        let n = b.finish();
        assert_eq!(from_bits(&n.eval_comb(&[])), 0b1011);
    }

    #[test]
    fn bit_helpers_roundtrip() {
        for v in [0u64, 1, 7, 200, u64::from(u32::MAX)] {
            assert_eq!(from_bits(&to_bits(v, 40)), v);
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn bitwise_width_mismatch_panics() {
        let mut b = NetlistBuilder::new("bad");
        let x = b.input_bus("x", 2);
        let y = b.input_bus("y", 3);
        b.and_word(&x, &y);
    }
}
