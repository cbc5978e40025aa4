//! Property test for solver incrementality: a persistent solver fed an
//! interleaved script of `add_clause` / `solve_with_assumptions` operations
//! must agree with a fresh-solver oracle that re-reads the whole clause set
//! at every solve — on the SAT/UNSAT answer, and with a model that actually
//! satisfies every clause and assumption. This is the contract the
//! incremental SAT attack leans on: carried learned clauses and heuristic
//! state may change the *search path*, never the *answer*.
//!
//! Scripts are decoded from a flat token vector so the harness's vector
//! shrinker minimizes failing scripts without a bespoke `Shrink` impl.

use shell_sat::{Lit, SatResult, Solver, Var};
use shell_util::forall;

/// One decoded operation.
enum Op {
    Clause(Vec<Lit>),
    Solve(Vec<Lit>),
}

/// Decodes a token stream into a script over `nvars` variables. Chunked
/// greedily; a truncated trailing chunk is dropped, so any shrunk prefix of
/// a token vector is still a valid script.
fn decode(tokens: &[u64]) -> (usize, Vec<Op>) {
    let nvars = 3 + (tokens.first().copied().unwrap_or(0) % 8) as usize;
    let lit = |t: u64| {
        let v = Var((t % nvars as u64) as u32);
        Lit::new(v, (t >> 8) & 1 == 1)
    };
    let mut ops = Vec::new();
    let mut i = 1;
    while i < tokens.len() {
        let t = tokens[i];
        i += 1;
        if t % 4 < 3 {
            // Clause of 1..=3 literals (duplicates and tautologies allowed —
            // the normalizer must cope).
            let width = 1 + ((t / 4) % 3) as usize;
            if i + width > tokens.len() {
                break;
            }
            ops.push(Op::Clause(
                tokens[i..i + width].iter().map(|&t| lit(t)).collect(),
            ));
            i += width;
        } else {
            // Solve under 0..=2 assumptions; tag bit 5 makes the second
            // assumption the negation of the first, forcing the
            // assumption-conflict path.
            let n = ((t / 4) % 3) as usize;
            if i + n > tokens.len() {
                break;
            }
            let mut assumptions: Vec<Lit> = tokens[i..i + n].iter().map(|&t| lit(t)).collect();
            if n == 2 && (t >> 5) & 1 == 1 {
                assumptions[1] = !assumptions[0];
            }
            i += n;
            ops.push(Op::Solve(assumptions));
        }
    }
    // Every script ends in a solve so pure-clause scripts are still checked.
    ops.push(Op::Solve(Vec::new()));
    (nvars, ops)
}

fn model_satisfies(s: &Solver, clause: &[Lit]) -> bool {
    clause
        .iter()
        .any(|l| s.value(l.var()).unwrap_or(false) == l.is_positive())
}

#[test]
fn interleaved_solves_agree_with_fresh_oracle() {
    forall(
        "incremental solver agrees with fresh-solver oracle",
        0x1C5EED_u64,
        48,
        |rng| {
            let len = rng.gen_range(2..40);
            (0..len).map(|_| rng.next_u64()).collect::<Vec<u64>>()
        },
        |tokens| {
            let (nvars, ops) = decode(tokens);
            let mut persistent = Solver::new();
            for _ in 0..nvars {
                persistent.new_var();
            }
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            for (step, op) in ops.iter().enumerate() {
                match op {
                    Op::Clause(c) => {
                        persistent.add_clause(c);
                        clauses.push(c.clone());
                    }
                    Op::Solve(assumptions) => {
                        let got = persistent.solve_with_assumptions(assumptions);
                        let mut fresh = Solver::new();
                        for _ in 0..nvars {
                            fresh.new_var();
                        }
                        for c in &clauses {
                            fresh.add_clause(c);
                        }
                        let want = fresh.solve_with_assumptions(assumptions);
                        if got != want {
                            return Err(format!(
                                "step {step}: persistent answered {got:?}, fresh oracle {want:?}"
                            ));
                        }
                        if got == SatResult::Sat {
                            for (ci, c) in clauses.iter().enumerate() {
                                if !model_satisfies(&persistent, c) {
                                    return Err(format!("step {step}: model violates clause {ci}"));
                                }
                            }
                            for (ai, &a) in assumptions.iter().enumerate() {
                                if !model_satisfies(&persistent, &[a]) {
                                    return Err(format!(
                                        "step {step}: model violates assumption {ai}"
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
}
