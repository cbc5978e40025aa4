//! Tseitin encoding of a netlist into CNF.
//!
//! The oracle-guided SAT attack builds a *miter* of two copies of the locked
//! circuit sharing primary-input variables but carrying independent key
//! variables. To support that, [`encode_netlist`] encodes a fresh copy of a
//! netlist directly into a [`Solver`], optionally **reusing** caller-supplied
//! variables for the primary inputs and/or key inputs.
//!
//! Sequential designs are encoded in the full-scan model of the paper's
//! threat model: every DFF output becomes a free *state* variable
//! (scan-loadable) and every DFF input is exposed as a *next-state* variable,
//! so one encoded copy represents one clock cycle of the scanned chip.

use crate::cnf::{Lit, Var};
use crate::solver::Solver;
use shell_netlist::{CellKind, Netlist};

/// Variable map of one encoded circuit copy.
#[derive(Debug, Clone)]
pub struct CircuitCnf {
    /// One variable per primary input, in declaration order.
    pub inputs: Vec<Var>,
    /// One variable per key input, in declaration order.
    pub keys: Vec<Var>,
    /// One variable per primary output, in declaration order.
    pub outputs: Vec<Var>,
    /// Current-state variables (one per DFF, ordered by
    /// [`Netlist::sequential_cells`]).
    pub state: Vec<Var>,
    /// Next-state variables (the DFF data inputs), same order as `state`.
    pub next_state: Vec<Var>,
}

/// Encodes one copy of `netlist` into `solver`.
///
/// When `share_inputs` / `share_keys` are provided, those variables are used
/// for the primary/key inputs instead of fresh ones — this is how the SAT
/// attack shares inputs between its two key-differentiated copies.
///
/// # Panics
///
/// Panics when a shared variable slice has the wrong length, when the
/// netlist contains a transparent latch (latches only appear inside fabric
/// models, which are emulated rather than attacked directly), or when the
/// netlist has a combinational cycle.
pub fn encode_netlist(
    solver: &mut Solver,
    netlist: &Netlist,
    share_inputs: Option<&[Var]>,
    share_keys: Option<&[Var]>,
) -> CircuitCnf {
    let inputs: Vec<Var> = match share_inputs {
        Some(vars) => {
            assert_eq!(vars.len(), netlist.inputs().len(), "shared input width");
            vars.to_vec()
        }
        None => netlist.inputs().iter().map(|_| solver.new_var()).collect(),
    };
    let keys: Vec<Var> = match share_keys {
        Some(vars) => {
            assert_eq!(vars.len(), netlist.key_inputs().len(), "shared key width");
            vars.to_vec()
        }
        None => netlist
            .key_inputs()
            .iter()
            .map(|_| solver.new_var())
            .collect(),
    };

    // Net-to-variable map, created lazily.
    let mut net_var: Vec<Option<Var>> = vec![None; netlist.net_count()];
    for (i, &n) in netlist.inputs().iter().enumerate() {
        net_var[n.index()] = Some(inputs[i]);
    }
    for (i, &n) in netlist.key_inputs().iter().enumerate() {
        net_var[n.index()] = Some(keys[i]);
    }

    let seq = netlist.sequential_cells();
    let mut state = Vec::with_capacity(seq.len());
    for &cid in &seq {
        let c = netlist.cell(cid);
        assert!(
            c.kind == CellKind::Dff,
            "latch `{}` cannot be SAT-encoded; emulate the fabric instead",
            c.name
        );
        let v = solver.new_var();
        net_var[c.output.index()] = Some(v);
        state.push(v);
    }

    let order = netlist.topo_order().expect("combinational cycle");
    let var_of = |solver: &mut Solver, net_var: &mut Vec<Option<Var>>, n: usize| -> Var {
        if let Some(v) = net_var[n] {
            v
        } else {
            let v = solver.new_var();
            net_var[n] = Some(v);
            v
        }
    };

    for cid in order {
        let c = netlist.cell(cid);
        if c.kind.is_sequential() {
            continue;
        }
        let ins: Vec<Var> = c
            .inputs
            .iter()
            .map(|n| var_of(solver, &mut net_var, n.index()))
            .collect();
        let out = var_of(solver, &mut net_var, c.output.index());
        encode_cell(solver, c.kind, &ins, out);
    }

    let outputs: Vec<Var> = netlist
        .outputs()
        .iter()
        .map(|(_, n)| var_of(solver, &mut net_var, n.index()))
        .collect();
    let next_state: Vec<Var> = seq
        .iter()
        .map(|&cid| {
            let d = netlist.cell(cid).inputs[0];
            var_of(solver, &mut net_var, d.index())
        })
        .collect();

    CircuitCnf {
        inputs,
        keys,
        outputs,
        state,
        next_state,
    }
}

/// Emits the CNF constraint `out = kind(ins)` into `solver`: the per-cell
/// rule of [`encode_netlist`], public for encoders that choose their own
/// cells and variables (the SAT attack's DIP-pinned copies).
///
/// # Panics
///
/// Panics on sequential kinds.
pub fn encode_cell(solver: &mut Solver, kind: CellKind, ins: &[Var], out: Var) {
    let o = Lit::pos(out);
    match kind {
        CellKind::And | CellKind::Nand => {
            let o = if kind == CellKind::Nand { !o } else { o };
            // o → in_i, and (∧ in) → o.
            let mut long: Vec<Lit> = ins.iter().map(|&v| Lit::neg(v)).collect();
            long.push(o);
            solver.add_clause(&long);
            for &v in ins {
                solver.add_clause(&[!o, Lit::pos(v)]);
            }
        }
        CellKind::Or | CellKind::Nor => {
            let o = if kind == CellKind::Nor { !o } else { o };
            let mut long: Vec<Lit> = ins.iter().map(|&v| Lit::pos(v)).collect();
            long.push(!o);
            solver.add_clause(&long);
            for &v in ins {
                solver.add_clause(&[o, Lit::neg(v)]);
            }
        }
        CellKind::Xor | CellKind::Xnor => {
            // Fold pairwise with auxiliaries.
            let mut acc = ins[0];
            for &v in &ins[1..] {
                let t = solver.new_var();
                encode_xor2(solver, acc, v, t);
                acc = t;
            }
            // out = acc (or its negation for XNOR).
            let same = kind == CellKind::Xor;
            solver.add_clause(&[Lit::new(out, true), Lit::new(acc, !same)]);
            solver.add_clause(&[Lit::new(out, false), Lit::new(acc, same)]);
        }
        CellKind::Not => {
            solver.add_clause(&[o, Lit::pos(ins[0])]);
            solver.add_clause(&[!o, Lit::neg(ins[0])]);
        }
        CellKind::Buf => {
            solver.add_clause(&[o, Lit::neg(ins[0])]);
            solver.add_clause(&[!o, Lit::pos(ins[0])]);
        }
        CellKind::Mux2 => {
            encode_mux2(solver, ins[0], ins[1], ins[2], out);
        }
        CellKind::Mux4 => {
            // out = mux2(s1, mux2(s0,a,b), mux2(s0,c,d))
            let lo = solver.new_var();
            let hi = solver.new_var();
            encode_mux2(solver, ins[1], ins[2], ins[3], lo);
            encode_mux2(solver, ins[1], ins[4], ins[5], hi);
            encode_mux2(solver, ins[0], lo, hi, out);
        }
        CellKind::Lut(mask) => {
            let k = mask.arity();
            for row in 0..(1usize << k) {
                let val = (mask.mask() >> row) & 1 == 1;
                let mut clause: Vec<Lit> = (0..k)
                    .map(|j| Lit::new(ins[j], (row >> j) & 1 == 0))
                    .collect();
                clause.push(Lit::new(out, val));
                solver.add_clause(&clause);
            }
        }
        CellKind::Const(v) => {
            solver.add_clause(&[Lit::new(out, v)]);
        }
        CellKind::Dff | CellKind::Latch => unreachable!("sequential cells not encoded"),
    }
}

/// `t = a ⊕ b` in four clauses (shared with the miter construction).
pub(crate) fn encode_xor2(solver: &mut Solver, a: Var, b: Var, t: Var) {
    solver.add_clause(&[Lit::neg(a), Lit::neg(b), Lit::neg(t)]);
    solver.add_clause(&[Lit::pos(a), Lit::pos(b), Lit::neg(t)]);
    solver.add_clause(&[Lit::pos(a), Lit::neg(b), Lit::pos(t)]);
    solver.add_clause(&[Lit::neg(a), Lit::pos(b), Lit::pos(t)]);
}

/// `out = s ? b : a`.
fn encode_mux2(solver: &mut Solver, s: Var, a: Var, b: Var, out: Var) {
    let (s, a, b, o) = (Lit::pos(s), Lit::pos(a), Lit::pos(b), Lit::pos(out));
    solver.add_clause(&[s, !a, o]);
    solver.add_clause(&[s, a, !o]);
    solver.add_clause(&[!s, !b, o]);
    solver.add_clause(&[!s, b, !o]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SatResult;
    use shell_netlist::{LutMask, Netlist};

    /// Checks that the CNF encoding of `netlist` agrees with functional
    /// simulation on every input pattern.
    fn assert_encoding_matches(netlist: &Netlist) {
        let n = netlist.inputs().len();
        assert!(n <= 10, "test helper limited to 10 inputs");
        for bits in 0..(1u64 << n) {
            let pattern: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            let expected = netlist.eval_comb(&pattern);
            let mut solver = Solver::new();
            let c = encode_netlist(&mut solver, netlist, None, None);
            let assumptions: Vec<Lit> = c
                .inputs
                .iter()
                .zip(&pattern)
                .map(|(&v, &b)| Lit::new(v, b))
                .collect();
            assert_eq!(solver.solve_with_assumptions(&assumptions), SatResult::Sat);
            let got: Vec<bool> = c
                .outputs
                .iter()
                .map(|&v| solver.value(v).expect("assigned"))
                .collect();
            assert_eq!(got, expected, "pattern {bits:b}");
        }
    }

    #[test]
    fn encode_basic_gates() {
        let mut n = Netlist::new("g");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let t0 = n.add_cell("t0", CellKind::And, vec![a, b, c]);
        let t1 = n.add_cell("t1", CellKind::Or, vec![a, t0]);
        let t2 = n.add_cell("t2", CellKind::Nand, vec![t1, c]);
        let t3 = n.add_cell("t3", CellKind::Nor, vec![t2, a]);
        let t4 = n.add_cell("t4", CellKind::Xor, vec![t3, b, c]);
        let t5 = n.add_cell("t5", CellKind::Xnor, vec![t4, a]);
        let t6 = n.add_cell("t6", CellKind::Not, vec![t5]);
        let t7 = n.add_cell("t7", CellKind::Buf, vec![t6]);
        n.add_output("f", t7);
        assert_encoding_matches(&n);
    }

    #[test]
    fn encode_muxes() {
        let mut n = Netlist::new("m");
        let s1 = n.add_input("s1");
        let s0 = n.add_input("s0");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let m2 = n.add_cell("m2", CellKind::Mux2, vec![s0, a, b]);
        let m4 = n.add_cell("m4", CellKind::Mux4, vec![s1, s0, a, b, m2, s1]);
        n.add_output("f", m4);
        assert_encoding_matches(&n);
    }

    #[test]
    fn encode_luts() {
        let mut n = Netlist::new("l");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        // Majority LUT: out when ≥2 inputs set. Rows (c,b,a): 011,101,110,111.
        let maj = LutMask::new(0b1110_1000, 3);
        let f = n.add_cell("maj", CellKind::Lut(maj), vec![a, b, c]);
        n.add_output("f", f);
        assert_encoding_matches(&n);
    }

    #[test]
    fn encode_consts() {
        let mut n = Netlist::new("c");
        let a = n.add_input("a");
        let one = n.add_cell("one", CellKind::Const(true), vec![]);
        let f = n.add_cell("f", CellKind::And, vec![a, one]);
        n.add_output("f", f);
        assert_encoding_matches(&n);
    }

    #[test]
    fn shared_keys_couple_copies() {
        // locked: f = a XOR k. Two copies sharing k must agree on f for the
        // same input.
        let mut n = Netlist::new("lk");
        let a = n.add_input("a");
        let k = n.add_key_input("k");
        let f = n.add_cell("f", CellKind::Xor, vec![a, k]);
        n.add_output("f", f);

        let mut solver = Solver::new();
        let c1 = encode_netlist(&mut solver, &n, None, None);
        let c2 = encode_netlist(&mut solver, &n, Some(&c1.inputs), Some(&c1.keys));
        // Force outputs to differ: must be UNSAT.
        solver.add_clause(&[
            Lit::pos(c1.outputs[0]),
            Lit::pos(c2.outputs[0]),
        ]);
        solver.add_clause(&[
            Lit::neg(c1.outputs[0]),
            Lit::neg(c2.outputs[0]),
        ]);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn independent_keys_can_differ() {
        let mut n = Netlist::new("lk");
        let a = n.add_input("a");
        let k = n.add_key_input("k");
        let f = n.add_cell("f", CellKind::Xor, vec![a, k]);
        n.add_output("f", f);

        let mut solver = Solver::new();
        let c1 = encode_netlist(&mut solver, &n, None, None);
        let c2 = encode_netlist(&mut solver, &n, Some(&c1.inputs), None);
        solver.add_clause(&[Lit::pos(c1.outputs[0]), Lit::pos(c2.outputs[0])]);
        solver.add_clause(&[Lit::neg(c1.outputs[0]), Lit::neg(c2.outputs[0])]);
        assert_eq!(solver.solve(), SatResult::Sat);
        assert_ne!(solver.value(c1.keys[0]), solver.value(c2.keys[0]));
    }

    #[test]
    fn sequential_scan_model() {
        // q' = d; out = q. One encoded copy exposes state/next_state.
        let mut n = Netlist::new("ff");
        let d = n.add_input("d");
        let q = n.add_cell("ff", CellKind::Dff, vec![d]);
        n.add_output("q", q);
        let mut solver = Solver::new();
        let c = encode_netlist(&mut solver, &n, None, None);
        assert_eq!(c.state.len(), 1);
        assert_eq!(c.next_state.len(), 1);
        // With state forced to 1, output must read 1 regardless of d.
        let r = solver.solve_with_assumptions(&[
            Lit::pos(c.state[0]),
            Lit::neg(c.outputs[0]),
        ]);
        assert_eq!(r, SatResult::Unsat);
        // next_state follows d.
        let r = solver.solve_with_assumptions(&[
            Lit::pos(c.inputs[0]),
            Lit::neg(c.next_state[0]),
        ]);
        assert_eq!(r, SatResult::Unsat);
    }

    #[test]
    #[should_panic(expected = "latch")]
    fn latch_rejected() {
        let mut n = Netlist::new("lat");
        let en = n.add_input("en");
        let d = n.add_input("d");
        let q = n.add_cell("l", CellKind::Latch, vec![en, d]);
        n.add_output("q", q);
        let mut solver = Solver::new();
        encode_netlist(&mut solver, &n, None, None);
    }
}
