//! SAT miter equivalence checking: the exact side of the verification
//! stack, next to the [`encode_miter`] it builds on.
//!
//! [`equiv_sat`] proves or refutes combinational equivalence of two designs
//! under pinned key vectors: it builds one [`encode_miter`] (the same CNF
//! the oracle-guided SAT attack uses), binds both key vectors via
//! assumptions, and reads UNSAT as a proof. A model is replayed through
//! `eval_comb_with_key` on both sides before it is reported, so a
//! counterexample from this module is always concrete and self-checking.
//! The PnR flow's post-route check calls it for wide combinational designs.
//!
//! [`equiv_sat_bounded`] extends the proof to sequential designs by
//! time-frame expansion: `depth` copies of each circuit are chained through
//! their DFF state (frame 0 pinned to the all-zero reset state, matching
//! [`Simulator::reset`]), sharing per-frame primary inputs between the two
//! sides and per-side keys across frames. UNSAT means no input sequence of
//! up to `depth` cycles from reset distinguishes the designs.

use crate::cnf::{Lit, Var};
use crate::miter::{constrain_some_output_differs, encode_miter};
use crate::solver::{SatResult, Solver};
use crate::tseitin::encode_netlist;
use shell_netlist::{shape_check, CellKind, EquivResult, Netlist, Simulator};

/// Conflict budget per solver call. Fabric-mapped fuzz samples and the
/// ≤16-input acceptance benchmarks decide within a few hundred conflicts;
/// the budget only exists so a pathological instance degrades to
/// [`EquivResult::Incomparable`] instead of hanging a test run.
const CONFLICT_BUDGET: u64 = 2_000_000;

/// `Some(reason)` when `n` cannot be Tseitin-encoded (the encoder panics on
/// these, so they must be screened out first).
fn encode_obstacle(n: &Netlist) -> Option<String> {
    if n.cells().any(|(_, c)| c.kind == CellKind::Latch) {
        return Some("contains transparent latches (emulate the fabric instead)".into());
    }
    if n.topo_order().is_err() {
        return Some("contains a combinational cycle".into());
    }
    None
}

/// Key-pinning assumptions: one literal per key variable per side.
fn key_assumptions(
    lhs_keys: &[Var],
    lhs_key: &[bool],
    rhs_keys: &[Var],
    rhs_key: &[bool],
) -> Vec<Lit> {
    lhs_keys
        .iter()
        .zip(lhs_key)
        .chain(rhs_keys.iter().zip(rhs_key))
        .map(|(&v, &b)| Lit::new(v, b))
        .collect()
}

/// Exact combinational equivalence of `a` under `lhs_key` vs `b` under
/// `rhs_key`, by SAT miter.
///
/// Returns [`EquivResult::Incomparable`] (never panics) for shape
/// mismatches, sequential designs (use [`equiv_sat_bounded`]),
/// combinational cycles, latches, or an exhausted conflict budget.
pub fn equiv_sat(a: &Netlist, b: &Netlist, lhs_key: &[bool], rhs_key: &[bool]) -> EquivResult {
    let _span = shell_trace::span!("verify.equiv_sat");
    if let Some(bad) = shape_check(a, b, lhs_key, rhs_key) {
        return bad;
    }
    if !a.is_combinational() || !b.is_combinational() {
        return EquivResult::Incomparable(
            "sequential design: use equiv_sat_bounded for a bounded proof".into(),
        );
    }
    for (side, n) in [("lhs", a), ("rhs", b)] {
        if let Some(reason) = encode_obstacle(n) {
            return EquivResult::Incomparable(format!("{side} {reason}"));
        }
    }
    let mut solver = Solver::new();
    let miter = encode_miter(&mut solver, a, b);
    solver.set_conflict_budget(Some(CONFLICT_BUDGET));
    let assumptions = key_assumptions(&miter.lhs.keys, lhs_key, &miter.rhs.keys, rhs_key);
    match solver.solve_with_assumptions(&assumptions) {
        SatResult::Unsat => EquivResult::Equivalent,
        SatResult::Unknown => {
            EquivResult::Incomparable(format!("SAT conflict budget ({CONFLICT_BUDGET}) exhausted"))
        }
        SatResult::Sat => {
            let inputs: Vec<bool> = miter
                .lhs
                .inputs
                .iter()
                .map(|&v| solver.value(v).unwrap_or(false))
                .collect();
            let lhs = a.eval_comb_with_key(&inputs, lhs_key);
            let rhs = b.eval_comb_with_key(&inputs, rhs_key);
            if lhs == rhs {
                // Should be impossible: the model satisfies the diff clause.
                EquivResult::Incomparable(
                    "SAT model failed to replay through simulation (encoder bug)".into(),
                )
            } else {
                EquivResult::Counterexample { inputs, lhs, rhs }
            }
        }
    }
}

/// Bounded sequential equivalence: unrolls both designs `depth` time frames
/// from the all-zero reset state and miters every frame's outputs.
///
/// Per-frame primary inputs are fresh variables shared between the two
/// sides; each side's key variables are created at frame 0 and shared
/// across its frames (keys are configuration, not stimulus); frame `f`'s
/// state variables are constrained equal to frame `f-1`'s next-state
/// variables. One global "some output of some frame differs" clause closes
/// the miter.
///
/// UNSAT proves no distinguishing input sequence of ≤ `depth` cycles exists
/// from reset — reported as [`EquivResult::Equivalent`] (a *bounded*
/// statement, like any BMC result). A model is replayed cycle-by-cycle
/// through [`Simulator`] and reported as a [`EquivResult::Counterexample`]
/// whose `inputs` are the cycle-major concatenation of the per-cycle input
/// vectors up to and including the first diverging cycle, matching the
/// shape `Method::SequentialRandom` produces.
pub fn equiv_sat_bounded(
    a: &Netlist,
    b: &Netlist,
    lhs_key: &[bool],
    rhs_key: &[bool],
    depth: usize,
) -> EquivResult {
    if let Some(bad) = shape_check(a, b, lhs_key, rhs_key) {
        return bad;
    }
    if depth == 0 {
        return EquivResult::Incomparable("bounded check needs depth >= 1".into());
    }
    for (side, n) in [("lhs", a), ("rhs", b)] {
        if let Some(reason) = encode_obstacle(n) {
            return EquivResult::Incomparable(format!("{side} {reason}"));
        }
    }

    let mut solver = Solver::new();
    let mut frame_inputs: Vec<Vec<Var>> = Vec::with_capacity(depth);
    let mut keys_a: Option<Vec<Var>> = None;
    let mut keys_b: Option<Vec<Var>> = None;
    let mut prev_next_a: Option<Vec<Var>> = None;
    let mut prev_next_b: Option<Vec<Var>> = None;
    let mut outs_a: Vec<Var> = Vec::new();
    let mut outs_b: Vec<Var> = Vec::new();
    for _frame in 0..depth {
        let pins: Vec<Var> = (0..a.inputs().len()).map(|_| solver.new_var()).collect();
        let ca = encode_netlist(&mut solver, a, Some(&pins), keys_a.as_deref());
        let cb = encode_netlist(&mut solver, b, Some(&pins), keys_b.as_deref());
        match (&prev_next_a, &prev_next_b) {
            (None, None) => {
                // Frame 0: both sides start in the all-zero reset state,
                // exactly like `Simulator::reset`.
                for &s in ca.state.iter().chain(cb.state.iter()) {
                    solver.add_clause(&[Lit::neg(s)]);
                }
            }
            (Some(na), Some(nb)) => {
                for (&s, &ns) in ca.state.iter().zip(na).chain(cb.state.iter().zip(nb)) {
                    solver.add_clause(&[Lit::neg(s), Lit::pos(ns)]);
                    solver.add_clause(&[Lit::pos(s), Lit::neg(ns)]);
                }
            }
            _ => unreachable!("frames advance in lockstep"),
        }
        keys_a.get_or_insert(ca.keys.clone());
        keys_b.get_or_insert(cb.keys.clone());
        prev_next_a = Some(ca.next_state.clone());
        prev_next_b = Some(cb.next_state.clone());
        outs_a.extend_from_slice(&ca.outputs);
        outs_b.extend_from_slice(&cb.outputs);
        frame_inputs.push(pins);
    }
    // One global diff clause over every frame's output pairs.
    constrain_some_output_differs(&mut solver, &outs_a, &outs_b);

    solver.set_conflict_budget(Some(CONFLICT_BUDGET));
    let assumptions = key_assumptions(
        keys_a.as_deref().unwrap_or(&[]),
        lhs_key,
        keys_b.as_deref().unwrap_or(&[]),
        rhs_key,
    );
    match solver.solve_with_assumptions(&assumptions) {
        SatResult::Unsat => EquivResult::Equivalent,
        SatResult::Unknown => EquivResult::Incomparable(format!(
            "SAT conflict budget ({CONFLICT_BUDGET}) exhausted at depth {depth}"
        )),
        SatResult::Sat => {
            let stimulus: Vec<Vec<bool>> = frame_inputs
                .iter()
                .map(|frame| {
                    frame
                        .iter()
                        .map(|&v| solver.value(v).unwrap_or(false))
                        .collect()
                })
                .collect();
            replay_sequential(a, b, lhs_key, rhs_key, &stimulus)
        }
    }
}

/// Replays `stimulus` through both designs from reset and reports the first
/// diverging cycle the way `Method::SequentialRandom` does.
fn replay_sequential(
    a: &Netlist,
    b: &Netlist,
    lhs_key: &[bool],
    rhs_key: &[bool],
    stimulus: &[Vec<bool>],
) -> EquivResult {
    let mut sim_a = Simulator::new(a);
    let mut sim_b = Simulator::new(b);
    sim_a.reset();
    sim_b.reset();
    let mut flat: Vec<bool> = Vec::new();
    for cycle in stimulus {
        flat.extend_from_slice(cycle);
        let lhs = sim_a.step(cycle, lhs_key);
        let rhs = sim_b.step(cycle, rhs_key);
        if lhs != rhs {
            return EquivResult::Counterexample {
                inputs: flat,
                lhs,
                rhs,
            };
        }
    }
    EquivResult::Incomparable(
        "unrolled SAT model failed to replay through simulation (encoder bug)".into(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_netlist::{CellKind, Netlist};

    fn xor_pair() -> (Netlist, Netlist) {
        // XOR two ways: a native gate vs (a|b) & ~(a&b).
        let mut x = Netlist::new("native");
        let a = x.add_input("a");
        let b = x.add_input("b");
        let o = x.add_cell("x", CellKind::Xor, vec![a, b]);
        x.add_output("o", o);

        let mut y = Netlist::new("derived");
        let a = y.add_input("a");
        let b = y.add_input("b");
        let or = y.add_cell("or", CellKind::Or, vec![a, b]);
        let nand = y.add_cell("nand", CellKind::Nand, vec![a, b]);
        let o = y.add_cell("and", CellKind::And, vec![or, nand]);
        y.add_output("o", o);
        (x, y)
    }

    #[test]
    fn structurally_different_equivalent_circuits() {
        let (x, y) = xor_pair();
        assert!(equiv_sat(&x, &y, &[], &[]).is_equivalent());
    }

    #[test]
    fn distinguishable_circuits_yield_replayed_counterexample() {
        let (x, _) = xor_pair();
        // Corrupt one gate: OR -> NOR flips the function on 3 of 4 patterns.
        let mut y = Netlist::new("bad");
        let a = y.add_input("a");
        let b = y.add_input("b");
        let or = y.add_cell("or", CellKind::Nor, vec![a, b]);
        let nand = y.add_cell("nand", CellKind::Nand, vec![a, b]);
        let o = y.add_cell("and", CellKind::And, vec![or, nand]);
        y.add_output("o", o);
        match equiv_sat(&x, &y, &[], &[]) {
            EquivResult::Counterexample { inputs, lhs, rhs } => {
                assert_eq!(x.eval_comb(&inputs), lhs);
                assert_eq!(y.eval_comb(&inputs), rhs);
                assert_ne!(lhs, rhs);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn key_binding_decides_equivalence() {
        // Keyed circuit: o = a XOR k. Equivalent to BUF(a) iff k = 0, to
        // NOT(a) iff k = 1.
        let mut locked = Netlist::new("locked");
        let a = locked.add_input("a");
        let k = locked.add_key_input("k");
        let o = locked.add_cell("x", CellKind::Xor, vec![a, k]);
        locked.add_output("o", o);

        let mut buf = Netlist::new("buf");
        let a = buf.add_input("a");
        let o = buf.add_cell("b", CellKind::Buf, vec![a]);
        buf.add_output("o", o);

        assert!(equiv_sat(&locked, &buf, &[false], &[]).is_equivalent());
        assert!(equiv_sat(&locked, &buf, &[true], &[]).is_counterexample());
    }

    #[test]
    fn shape_mismatch_is_incomparable() {
        let (x, _) = xor_pair();
        let mut w = Netlist::new("one_input");
        let a = w.add_input("a");
        let o = w.add_cell("n", CellKind::Not, vec![a]);
        w.add_output("o", o);
        assert!(matches!(
            equiv_sat(&x, &w, &[], &[]),
            EquivResult::Incomparable(_)
        ));
        // Key width mismatch is caught by the shared shape check, not a panic.
        assert!(matches!(
            equiv_sat(&x, &x, &[true], &[]),
            EquivResult::Incomparable(_)
        ));
    }

    #[test]
    fn outputless_circuits_are_equivalent() {
        let mut a = Netlist::new("a");
        a.add_input("i");
        let mut b = Netlist::new("b");
        b.add_input("i");
        assert!(equiv_sat(&a, &b, &[], &[]).is_equivalent());
    }

    fn toggler(invert: bool) -> Netlist {
        // One-bit counter: q' = NOT q, output o = q (or NOT q when `invert`,
        // which shifts the phase and differs from reset at cycle 0).
        let mut n = Netlist::new("tog");
        n.add_input("i"); // unused input so shapes match wider designs
        let q = n.add_net("q");
        let nq = n.add_cell("inv", CellKind::Not, vec![q]);
        n.add_cell_driving("ff", CellKind::Dff, vec![nq], q)
            .expect("dff drives fresh net");
        let o = if invert { nq } else { q };
        n.add_output("o", o);
        n
    }

    #[test]
    fn bounded_check_proves_sequential_equivalence() {
        let a = toggler(false);
        let b = toggler(false);
        assert!(equiv_sat_bounded(&a, &b, &[], &[], 6).is_equivalent());
    }

    #[test]
    fn bounded_check_finds_phase_difference() {
        let a = toggler(false);
        let b = toggler(true);
        match equiv_sat_bounded(&a, &b, &[], &[], 4) {
            EquivResult::Counterexample { inputs, lhs, rhs } => {
                // Diverges at cycle 0 already: one input vector of width 1.
                assert_eq!(inputs.len(), 1);
                assert_ne!(lhs, rhs);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn bounded_check_agrees_with_combinational_miter() {
        let (x, y) = xor_pair();
        assert!(equiv_sat_bounded(&x, &y, &[], &[], 3).is_equivalent());
    }

    #[test]
    fn sequential_design_refused_by_combinational_entry() {
        let a = toggler(false);
        assert!(matches!(
            equiv_sat(&a, &a, &[], &[]),
            EquivResult::Incomparable(_)
        ));
    }
}
