//! The removal attack: replace the whole redacted fabric with a guess.
//!
//! §IV motivates twisting minimal LGC into the redacted ROUTE precisely to
//! defeat this adversary: if the eFPGA only hides a standard AXI crossbar,
//! "the adversary can replace the whole eFPGA with an AXI-based simple
//! Xbar". This module implements that adversary: given the oracle and a
//! candidate reconstruction (locked region replaced by the guess), it
//! checks functional equivalence and reports whether the removal attack
//! succeeds.

use shell_netlist::equiv::{equiv_exhaustive, equiv_random, equiv_sequential_random, EquivResult};
use shell_netlist::Netlist;

/// Result of a removal attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemovalOutcome {
    /// The guessed replacement reproduces the oracle — redaction defeated.
    Succeeded,
    /// The guess diverges from the oracle on a concrete input.
    Failed {
        /// A distinguishing primary-input assignment.
        counterexample: Vec<bool>,
    },
    /// The candidate is not even shape-compatible with the oracle.
    Incompatible(String),
}

impl RemovalOutcome {
    /// `true` when the attack worked.
    pub fn succeeded(&self) -> bool {
        matches!(self, RemovalOutcome::Succeeded)
    }
}

/// Tests whether `candidate` (the design with the redacted region replaced
/// by the attacker's guess, no key inputs) matches `oracle`.
///
/// Uses exhaustive comparison up to 12 inputs, Monte-Carlo (`vectors`
/// patterns) beyond; sequential designs are compared by lockstep random
/// simulation from reset.
///
/// # Panics
///
/// Panics if `candidate` still has key inputs (a removal attack by
/// definition produces an unkeyed netlist).
pub fn removal_attack(oracle: &Netlist, candidate: &Netlist, vectors: usize) -> RemovalOutcome {
    assert!(
        candidate.key_inputs().is_empty(),
        "removal attack yields an unkeyed candidate"
    );
    let outcome = if !oracle.is_combinational() || !candidate.is_combinational() {
        equiv_sequential_random(oracle, candidate, &[], &[], vectors.max(16), 0xBEEF)
    } else if oracle.inputs().len() <= 12 {
        equiv_exhaustive(oracle, candidate, &[], &[])
    } else {
        equiv_random(oracle, candidate, &[], &[], vectors, 0xBEEF)
    };
    match outcome {
        EquivResult::Equivalent => RemovalOutcome::Succeeded,
        EquivResult::Counterexample { inputs, .. } => RemovalOutcome::Failed {
            counterexample: inputs,
        },
        EquivResult::Incomparable(why) => RemovalOutcome::Incompatible(why),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_netlist::{CellKind, NetId, Netlist};

    fn xbar_like(extra_logic: bool) -> Netlist {
        // out = sel ? b : a, optionally with a "twisted" LGC term.
        let mut n = Netlist::new(if extra_logic { "twisted" } else { "plain" });
        let sel = n.add_input("sel");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let m = n.add_cell("m", CellKind::Mux2, vec![sel, a, b]);
        let out = if extra_logic {
            // SheLL-style: neighbor LGC folded into the redacted region.
            n.add_cell("t", CellKind::Xor, vec![m, sel])
        } else {
            m
        };
        n.add_output("o", out);
        n
    }

    #[test]
    fn plain_xbar_guess_succeeds_against_route_only_redaction() {
        // Oracle is a plain mux; attacker guesses a plain mux: success.
        let oracle = xbar_like(false);
        let guess = xbar_like(false);
        assert!(removal_attack(&oracle, &guess, 64).succeeded());
    }

    #[test]
    fn twisted_lgc_defeats_plain_guess() {
        // Oracle has the neighbor LGC twisted in; the plain-Xbar guess now
        // fails with a counterexample — the SheLL defense in action.
        let oracle = xbar_like(true);
        let guess = xbar_like(false);
        match removal_attack(&oracle, &guess, 64) {
            RemovalOutcome::Failed { counterexample } => {
                let o = oracle.eval_comb(&counterexample);
                let g = guess.eval_comb(&counterexample);
                assert_ne!(o, g, "counterexample must distinguish");
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_reported() {
        let oracle = xbar_like(false);
        let mut tiny = Netlist::new("tiny");
        let a = tiny.add_input("a");
        let f = tiny.add_cell("f", CellKind::Buf, vec![a]);
        tiny.add_output("f", f);
        assert!(matches!(
            removal_attack(&oracle, &tiny, 16),
            RemovalOutcome::Incompatible(_)
        ));
    }

    #[test]
    fn sequential_candidates_compared_by_simulation() {
        let mk = |name: &str, invert: bool| -> Netlist {
            let mut n = Netlist::new(name);
            let d = n.add_input("d");
            let src: NetId = if invert {
                n.add_cell("inv", CellKind::Not, vec![d])
            } else {
                d
            };
            let q = n.add_cell("ff", CellKind::Dff, vec![src]);
            n.add_output("q", q);
            n
        };
        assert!(removal_attack(&mk("a", false), &mk("b", false), 32).succeeded());
        assert!(!removal_attack(&mk("a", false), &mk("b", true), 32).succeeded());
    }

    #[test]
    #[should_panic(expected = "unkeyed")]
    fn keyed_candidate_rejected() {
        let oracle = xbar_like(false);
        let mut keyed = xbar_like(false);
        keyed.add_key_input("k");
        removal_attack(&oracle, &keyed, 8);
    }
}
