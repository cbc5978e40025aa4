//! Shared construction blocks for the benchmark generators.
//!
//! Every helper takes a *block name* and prefixes all generated cell names
//! with it (`<block>.<cell>`), so the SheLL selection pipeline can identify
//! sub-circuits by name exactly like the paper's TfR column does.

use shell_netlist::{CellKind, NetId, Netlist};
use shell_util::Rng;

/// Bit width helper: number of select bits for `n` choices.
pub fn select_bits(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Adds a named gate under a block prefix.
pub fn gate(n: &mut Netlist, block: &str, name: &str, kind: CellKind, inputs: Vec<NetId>) -> NetId {
    n.add_cell(format!("{block}.{name}"), kind, inputs)
}

/// Bitwise XOR of two equal-width buses (the AES add-round-key flavor).
pub fn xor_bank(n: &mut Netlist, block: &str, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .enumerate()
        .map(|(i, (&x, &y))| gate(n, block, &format!("x{i}"), CellKind::Xor, vec![x, y]))
        .collect()
}

/// A fixed 4-bit substitution layer: each output nibble is a nonlinear mix
/// of its input nibble (XOR/AND/OR network seeded deterministically) —
/// the S-box stand-in.
pub fn sbox_layer(n: &mut Netlist, block: &str, data: &[NetId], seed: u64) -> Vec<NetId> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(data.len());
    for (ni, nib) in data.chunks(4).enumerate() {
        // Build 4 mixed outputs per nibble (or fewer for a tail chunk).
        for bit in 0..nib.len() {
            let a = nib[rng.gen_range(0..nib.len())];
            let b = nib[rng.gen_range(0..nib.len())];
            let c = nib[bit];
            let t = gate(
                n,
                block,
                &format!("s{ni}_{bit}_and"),
                CellKind::And,
                vec![a, b],
            );
            let u = gate(
                n,
                block,
                &format!("s{ni}_{bit}_xor"),
                CellKind::Xor,
                vec![t, c],
            );
            out.push(u);
        }
    }
    out
}

/// Ripple adder under a block prefix. Returns `(sum, carry)`.
pub fn adder(n: &mut Netlist, block: &str, a: &[NetId], b: &[NetId]) -> (Vec<NetId>, NetId) {
    assert_eq!(a.len(), b.len());
    let mut carry = gate(n, block, "c0", CellKind::Const(false), vec![]);
    let mut sum = Vec::with_capacity(a.len());
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        let p = gate(n, block, &format!("p{i}"), CellKind::Xor, vec![x, y]);
        let s = gate(n, block, &format!("s{i}"), CellKind::Xor, vec![p, carry]);
        let g = gate(n, block, &format!("g{i}"), CellKind::And, vec![x, y]);
        let pc = gate(n, block, &format!("pc{i}"), CellKind::And, vec![p, carry]);
        carry = gate(n, block, &format!("c{}", i + 1), CellKind::Or, vec![g, pc]);
        sum.push(s);
    }
    (sum, carry)
}

/// Ternary adder (three operands) — the FIR `ternary_add` flavor.
pub fn ternary_add(
    n: &mut Netlist,
    block: &str,
    a: &[NetId],
    b: &[NetId],
    c: &[NetId],
) -> Vec<NetId> {
    let (ab, _) = adder(n, &format!("{block}.ab"), a, b);
    let (abc, _) = adder(n, &format!("{block}.abc"), &ab, c);
    abc
}

/// Equality-to-constant comparator (`len_check` / `active_check` flavor).
pub fn eq_const(n: &mut Netlist, block: &str, bus: &[NetId], value: u64) -> NetId {
    let bits: Vec<NetId> = bus
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            if (value >> i) & 1 == 1 {
                b
            } else {
                gate(n, block, &format!("inv{i}"), CellKind::Not, vec![b])
            }
        })
        .collect();
    reduce(n, block, "hit", CellKind::And, &bits)
}

/// Balanced reduction tree.
pub fn reduce(n: &mut Netlist, block: &str, tag: &str, kind: CellKind, bits: &[NetId]) -> NetId {
    assert!(!bits.is_empty());
    let mut layer = bits.to_vec();
    let mut level = 0;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for (i, pair) in layer.chunks(2).enumerate() {
            if pair.len() == 2 {
                next.push(gate(
                    n,
                    block,
                    &format!("{tag}_{level}_{i}"),
                    kind,
                    vec![pair[0], pair[1]],
                ));
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
        level += 1;
    }
    layer[0]
}

/// One-hot decoder from a binary select bus (`addr == i` per output).
pub fn one_hot_decode(n: &mut Netlist, block: &str, sel: &[NetId], ways: usize) -> Vec<NetId> {
    (0..ways)
        .map(|i| eq_const(n, &format!("{block}.dec{i}"), sel, i as u64))
        .collect()
}

/// **The ROUTE primitive**: a one-hot chained word selector,
/// `out = gN ? dN : (... (g1 ? d1 : d0))`, built from `Mux2` cells whose
/// *a*-input (pin 1) carries the chain — the exact linear shape the fabric's
/// MUX-chain blocks absorb. `grants` has one signal per word beyond the
/// first.
pub fn one_hot_route(
    n: &mut Netlist,
    block: &str,
    grants: &[NetId],
    words: &[Vec<NetId>],
) -> Vec<NetId> {
    assert!(!words.is_empty());
    assert_eq!(grants.len() + 1, words.len(), "one grant per extra word");
    let width = words[0].len();
    let mut out = Vec::with_capacity(width);
    for (bit, &first) in words[0].iter().enumerate() {
        let mut acc = first;
        for (w, &g) in grants.iter().enumerate() {
            acc = gate(
                n,
                block,
                &format!("m{}_{bit}", w + 1),
                CellKind::Mux2,
                vec![g, acc, words[w + 1][bit]],
            );
        }
        out.push(acc);
    }
    out
}

/// Registers a word under a block prefix.
pub fn reg_word(n: &mut Netlist, block: &str, d: &[NetId]) -> Vec<NetId> {
    d.iter()
        .enumerate()
        .map(|(i, &b)| gate(n, block, &format!("ff{i}"), CellKind::Dff, vec![b]))
        .collect()
}

/// All cells whose name starts with `prefix.` (or equals `prefix`).
pub fn cells_of_block(netlist: &Netlist, prefix: &str) -> Vec<shell_netlist::CellId> {
    let dotted = format!("{prefix}.");
    netlist
        .cells()
        .filter(|(_, c)| c.name.starts_with(&dotted) || c.name == prefix)
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_netlist::builder::{from_bits, to_bits};

    #[test]
    fn xor_bank_works() {
        let mut n = Netlist::new("t");
        let a: Vec<NetId> = (0..4).map(|i| n.add_input(format!("a{i}"))).collect();
        let b: Vec<NetId> = (0..4).map(|i| n.add_input(format!("b{i}"))).collect();
        let o = xor_bank(&mut n, "xb", &a, &b);
        for (i, &net) in o.iter().enumerate() {
            n.add_output(format!("o{i}"), net);
        }
        let mut inp = to_bits(0b1100, 4);
        inp.extend(to_bits(0b1010, 4));
        assert_eq!(from_bits(&n.eval_comb(&inp)), 0b0110);
        assert!(n.find_cell("xb.x0").is_some());
    }

    #[test]
    fn adder_adds() {
        let mut n = Netlist::new("t");
        let a: Vec<NetId> = (0..5).map(|i| n.add_input(format!("a{i}"))).collect();
        let b: Vec<NetId> = (0..5).map(|i| n.add_input(format!("b{i}"))).collect();
        let (s, c) = adder(&mut n, "add", &a, &b);
        for (i, &net) in s.iter().enumerate() {
            n.add_output(format!("s{i}"), net);
        }
        n.add_output("c", c);
        for (x, y) in [(3u64, 7u64), (31, 1), (15, 15)] {
            let mut inp = to_bits(x, 5);
            inp.extend(to_bits(y, 5));
            let out = n.eval_comb(&inp);
            let sum = from_bits(&out[..5]) + ((out[5] as u64) << 5);
            assert_eq!(sum, x + y);
        }
    }

    #[test]
    fn ternary_add_three_operands() {
        let mut n = Netlist::new("t");
        let mk = |n: &mut Netlist, p: &str| -> Vec<NetId> {
            (0..4).map(|i| n.add_input(format!("{p}{i}"))).collect()
        };
        let a = mk(&mut n, "a");
        let b = mk(&mut n, "b");
        let c = mk(&mut n, "c");
        let s = ternary_add(&mut n, "tern", &a, &b, &c);
        for (i, &net) in s.iter().enumerate() {
            n.add_output(format!("s{i}"), net);
        }
        let mut inp = to_bits(3, 4);
        inp.extend(to_bits(5, 4));
        inp.extend(to_bits(6, 4));
        // 3+5+6 = 14 mod 16.
        assert_eq!(from_bits(&n.eval_comb(&inp)), 14);
    }

    #[test]
    fn one_hot_decode_and_route() {
        let mut n = Netlist::new("t");
        let sel: Vec<NetId> = (0..2).map(|i| n.add_input(format!("s{i}"))).collect();
        let words: Vec<Vec<NetId>> = (0..4)
            .map(|w| (0..3).map(|i| n.add_input(format!("d{w}_{i}"))).collect())
            .collect();
        let hot = one_hot_decode(&mut n, "dec", &sel, 4);
        // grants = hot[1..] (hot[0] selects the default word).
        let out = one_hot_route(&mut n, "route", &hot[1..], &words);
        for (i, &net) in out.iter().enumerate() {
            n.add_output(format!("o{i}"), net);
        }
        for s in 0..4u64 {
            let mut inp = to_bits(s, 2);
            for w in 0..4u64 {
                inp.extend(to_bits(w + 1, 3));
            }
            assert_eq!(from_bits(&n.eval_comb(&inp)), s + 1, "sel {s}");
        }
    }

    #[test]
    fn eq_const_checks() {
        let mut n = Netlist::new("t");
        let bus: Vec<NetId> = (0..4).map(|i| n.add_input(format!("b{i}"))).collect();
        let hit = eq_const(&mut n, "chk", &bus, 9);
        n.add_output("hit", hit);
        for v in 0..16u64 {
            assert_eq!(n.eval_comb(&to_bits(v, 4)), vec![v == 9]);
        }
    }

    #[test]
    fn sbox_layer_is_deterministic_and_nonconstant() {
        let mut n1 = Netlist::new("t1");
        let ins1: Vec<NetId> = (0..8).map(|i| n1.add_input(format!("i{i}"))).collect();
        let o1 = sbox_layer(&mut n1, "sb", &ins1, 42);
        for (i, &net) in o1.iter().enumerate() {
            n1.add_output(format!("o{i}"), net);
        }
        let mut n2 = Netlist::new("t2");
        let ins2: Vec<NetId> = (0..8).map(|i| n2.add_input(format!("i{i}"))).collect();
        let o2 = sbox_layer(&mut n2, "sb", &ins2, 42);
        for (i, &net) in o2.iter().enumerate() {
            n2.add_output(format!("o{i}"), net);
        }
        // Deterministic: same seed, same function.
        use shell_netlist::equiv::equiv_random;
        assert!(equiv_random(&n1, &n2, &[], &[], 100, 1).is_equivalent());
        // Non-constant: some pair of patterns must differ (uniform inputs
        // can cancel through the XOR mix, so sweep a few).
        let mut seen = std::collections::HashSet::new();
        for v in 0..16u64 {
            let pattern: Vec<bool> = (0..8).map(|i| ((v * 37) >> i) & 1 == 1).collect();
            seen.insert(n1.eval_comb(&pattern));
        }
        assert!(seen.len() > 1, "sbox output constant");
    }

    #[test]
    fn cells_of_block_prefix_match() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        gate(&mut n, "alpha", "g1", CellKind::Not, vec![a]);
        gate(&mut n, "alpha.sub", "g2", CellKind::Not, vec![a]);
        gate(&mut n, "beta", "g1", CellKind::Not, vec![a]);
        assert_eq!(cells_of_block(&n, "alpha").len(), 2);
        assert_eq!(cells_of_block(&n, "beta").len(), 1);
        assert_eq!(cells_of_block(&n, "gamma").len(), 0);
    }

    #[test]
    fn select_bits_math() {
        assert_eq!(select_bits(1), 0);
        assert_eq!(select_bits(2), 1);
        assert_eq!(select_bits(8), 3);
        assert_eq!(select_bits(9), 4);
    }
}
