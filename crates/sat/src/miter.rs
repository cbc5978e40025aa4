//! Miter construction over two encoded circuit copies.
//!
//! A *miter* joins two circuits on shared primary inputs and asserts that at
//! least one output pair differs; the resulting formula is satisfiable
//! exactly when the circuits are distinguishable. Two consumers share this
//! one construction:
//!
//! * the **oracle-guided SAT attack** (`shell-attacks`) miters two copies of
//!   the *same* locked circuit with independent key variables to mine
//!   distinguishing input patterns, and
//! * the **equivalence checker** (`shell-verify`) miters two *different*
//!   circuits and binds both key vectors via assumptions: UNSAT is a proof
//!   of combinational equivalence.
//!
//! Keeping the construction here — next to the Tseitin encoder — means both
//! crates agree byte-for-byte on the CNF shape, so a bug in the encoding
//! cannot make the attacker and the verifier disagree silently.

use crate::cnf::{Lit, Var};
use crate::solver::Solver;
use crate::tseitin::{encode_netlist, encode_xor2, CircuitCnf};
use shell_netlist::Netlist;

/// Variable maps of a miter: two circuit copies on shared inputs plus one
/// difference variable per output pair.
#[derive(Debug, Clone)]
pub struct Miter {
    /// Encoding of the first circuit (fresh input and key variables).
    pub lhs: CircuitCnf,
    /// Encoding of the second circuit (inputs shared with `lhs`, keys
    /// independent).
    pub rhs: CircuitCnf,
    /// `diffs[o] = lhs.outputs[o] XOR rhs.outputs[o]`.
    pub diffs: Vec<Var>,
    /// Activation variable of a *gated* miter ([`encode_miter_gated`]): the
    /// "some output differs" clause is `¬activation ∨ d₀ ∨ d₁ ∨ …`, so the
    /// difference constraint only binds while `activation` is assumed true.
    /// Assuming it false turns the same formula into a plain consistency
    /// check — the incremental SAT attack extracts its key that way without
    /// building a second solver. `None` for the hard [`encode_miter`] form.
    pub activation: Option<Var>,
}

/// Encodes `lhs` and `rhs` into `solver` on shared primary-input variables
/// with independent key variables, and constrains **at least one** output
/// pair to differ.
///
/// A model therefore assigns the shared inputs a distinguishing pattern; an
/// UNSAT result proves the circuits agree on every input for every key
/// assignment the caller has pinned (via assumptions or unit clauses).
///
/// Passing the same netlist for both sides yields the SAT-attack miter: one
/// circuit, two key candidates.
///
/// # Panics
///
/// Panics when the input or output counts differ, when either netlist is
/// sequential (scan-frame or unroll first), or on the conditions of
/// [`encode_netlist`] (latches, combinational cycles).
pub fn encode_miter(solver: &mut Solver, lhs: &Netlist, rhs: &Netlist) -> Miter {
    encode_miter_impl(solver, lhs, rhs, false)
}

/// [`encode_miter`] with the difference clause *gated* behind a fresh
/// activation variable (see [`Miter::activation`]).
///
/// Solving under the assumption `+activation` behaves exactly like the hard
/// miter; under `¬activation` the difference constraint is disabled and the
/// formula merely asserts both copies compute their circuits — satisfiable
/// by construction (modulo other constraints the caller pinned), which is
/// what makes one persistent solver serve both DIP mining and key
/// extraction. With zero output pairs the gated clause degenerates to the
/// unit `¬activation`: UNSAT under `+activation`, still usable otherwise —
/// the gated analogue of [`encode_miter`]'s empty clause.
pub fn encode_miter_gated(solver: &mut Solver, lhs: &Netlist, rhs: &Netlist) -> Miter {
    encode_miter_impl(solver, lhs, rhs, true)
}

fn encode_miter_impl(solver: &mut Solver, lhs: &Netlist, rhs: &Netlist, gated: bool) -> Miter {
    assert!(lhs.is_combinational(), "miter lhs must be combinational");
    assert!(rhs.is_combinational(), "miter rhs must be combinational");
    assert_eq!(
        lhs.inputs().len(),
        rhs.inputs().len(),
        "miter input shape mismatch"
    );
    assert_eq!(
        lhs.outputs().len(),
        rhs.outputs().len(),
        "miter output shape mismatch"
    );
    let a = encode_netlist(solver, lhs, None, None);
    let b = encode_netlist(solver, rhs, Some(&a.inputs), None);
    let activation = gated.then(|| solver.new_var());
    let diffs = constrain_differs(solver, &a.outputs, &b.outputs, activation);
    Miter {
        lhs: a,
        rhs: b,
        diffs,
        activation,
    }
}

/// Adds `d[o] = a[o] XOR b[o]` difference variables plus the clause
/// `d[0] ∨ d[1] ∨ …` forcing some pair to differ. Zero output pairs yield
/// the empty clause — immediately UNSAT, the correct reading of "two
/// outputless circuits cannot be distinguished".
pub fn constrain_some_output_differs(
    solver: &mut Solver,
    lhs_outputs: &[Var],
    rhs_outputs: &[Var],
) -> Vec<Var> {
    constrain_differs(solver, lhs_outputs, rhs_outputs, None)
}

fn constrain_differs(
    solver: &mut Solver,
    lhs_outputs: &[Var],
    rhs_outputs: &[Var],
    gate: Option<Var>,
) -> Vec<Var> {
    assert_eq!(
        lhs_outputs.len(),
        rhs_outputs.len(),
        "output width mismatch"
    );
    let mut diffs = Vec::with_capacity(lhs_outputs.len());
    let mut any: Vec<Lit> = Vec::with_capacity(lhs_outputs.len() + 1);
    if let Some(g) = gate {
        any.push(Lit::neg(g));
    }
    for (&a, &b) in lhs_outputs.iter().zip(rhs_outputs) {
        let d = solver.new_var();
        encode_xor2(solver, a, b, d);
        any.push(Lit::pos(d));
        diffs.push(d);
    }
    solver.add_clause(&any);
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SatResult;
    use shell_netlist::CellKind;

    fn and2() -> Netlist {
        let mut n = Netlist::new("and2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let f = n.add_cell("f", CellKind::And, vec![a, b]);
        n.add_output("f", f);
        n
    }

    fn and2_demorgan() -> Netlist {
        let mut n = Netlist::new("and2d");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let na = n.add_cell("na", CellKind::Not, vec![a]);
        let nb = n.add_cell("nb", CellKind::Not, vec![b]);
        let o = n.add_cell("o", CellKind::Nor, vec![na, nb]);
        n.add_output("f", o);
        n
    }

    fn or2() -> Netlist {
        let mut n = Netlist::new("or2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let f = n.add_cell("f", CellKind::Or, vec![a, b]);
        n.add_output("f", f);
        n
    }

    #[test]
    fn equivalent_circuits_unsat() {
        let mut s = Solver::new();
        encode_miter(&mut s, &and2(), &and2_demorgan());
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn distinguishable_circuits_sat_with_witness() {
        let mut s = Solver::new();
        let m = encode_miter(&mut s, &and2(), &or2());
        assert_eq!(s.solve(), SatResult::Sat);
        let pattern: Vec<bool> = m
            .lhs
            .inputs
            .iter()
            .map(|&v| s.value(v).unwrap_or(false))
            .collect();
        // AND and OR differ exactly when inputs differ from each other.
        assert_ne!(
            and2().eval_comb(&pattern),
            or2().eval_comb(&pattern),
            "model must be a distinguishing pattern"
        );
    }

    #[test]
    fn same_netlist_keys_independent() {
        // f = a XOR k: two copies with independent keys are distinguishable
        // (k=0 vs k=1), but pinning both keys equal makes the miter UNSAT.
        let mut n = Netlist::new("lk");
        let a = n.add_input("a");
        let k = n.add_key_input("k");
        let f = n.add_cell("f", CellKind::Xor, vec![a, k]);
        n.add_output("f", f);

        let mut s = Solver::new();
        let m = encode_miter(&mut s, &n, &n);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_ne!(s.value(m.lhs.keys[0]), s.value(m.rhs.keys[0]));
        let same_keys = [Lit::neg(m.lhs.keys[0]), Lit::neg(m.rhs.keys[0])];
        assert_eq!(s.solve_with_assumptions(&same_keys), SatResult::Unsat);
    }

    #[test]
    fn gated_miter_switches_between_dip_and_extraction_mode() {
        // f = a XOR k. Under +act the gated miter behaves like the hard
        // miter (SAT: the two key copies can disagree); pinning an IO pair
        // and flipping to ¬act turns the same solver into key extraction.
        let mut n = Netlist::new("lk");
        let a = n.add_input("a");
        let k = n.add_key_input("k");
        let f = n.add_cell("f", CellKind::Xor, vec![a, k]);
        n.add_output("f", f);

        let mut s = Solver::new();
        let m = encode_miter_gated(&mut s, &n, &n);
        let act = m.activation.expect("gated");
        assert_eq!(s.solve_with_assumptions(&[Lit::pos(act)]), SatResult::Sat);
        assert_ne!(s.value(m.lhs.keys[0]), s.value(m.rhs.keys[0]));

        // Oracle says f(a=0) = 0 (true key k=0): pin that IO pattern on
        // both copies, after which no distinguishing pattern remains...
        s.add_clause(&[Lit::neg(m.lhs.inputs[0])]);
        s.add_clause(&[Lit::neg(m.lhs.outputs[0])]);
        s.add_clause(&[Lit::neg(m.rhs.outputs[0])]);
        assert_eq!(s.solve_with_assumptions(&[Lit::pos(act)]), SatResult::Unsat);
        // ...and the SAME solver, gate off, yields the consistent key.
        assert_eq!(s.solve_with_assumptions(&[Lit::neg(act)]), SatResult::Sat);
        assert_eq!(s.value(m.lhs.keys[0]), Some(false));
    }

    #[test]
    fn outputless_gated_miter_stays_usable() {
        let mut a = Netlist::new("empty_a");
        a.add_input("x");
        let mut s = Solver::new();
        let m = encode_miter_gated(&mut s, &a, &a);
        let act = m.activation.expect("gated");
        assert_eq!(s.solve_with_assumptions(&[Lit::pos(act)]), SatResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&[Lit::neg(act)]), SatResult::Sat);
    }

    #[test]
    fn outputless_miter_is_unsat() {
        let mut a = Netlist::new("empty_a");
        a.add_input("x");
        let mut b = Netlist::new("empty_b");
        b.add_input("x");
        let mut s = Solver::new();
        encode_miter(&mut s, &a, &b);
        assert_eq!(s.solve(), SatResult::Unsat);
    }
}
