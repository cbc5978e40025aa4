//! Property-based tests over the foundational data structures and passes,
//! on the in-tree `shell_util::forall` harness: every case replays from the
//! root seed printed on failure, and counterexamples shrink by halving.

use shell_netlist::builder::{from_bits, to_bits};
use shell_netlist::{CellKind, NetId, Netlist};
use shell_sat::{Cnf, Lit, SatResult, Solver, Var};
use shell_synth::{clean_netlist, decompose_to_two_input, lut_map};
use shell_util::{forall, Rng};

/// Raw description of a random combinational netlist: a gate list
/// `(kind index, input a, input b)` where inputs reference earlier signals.
/// Kept as plain data so the harness can shrink it (drop gates, zero
/// indices) — the netlist itself is rebuilt inside the property.
type GateList = Vec<(u8, u16, u16)>;

fn gen_gates(rng: &mut Rng, max_gates: usize) -> GateList {
    let count = rng.gen_range(1..max_gates + 1);
    (0..count)
        .map(|_| {
            (
                rng.gen_range(0..6) as u8,
                rng.next_u64() as u16,
                rng.next_u64() as u16,
            )
        })
        .collect()
}

/// Builds the netlist a gate list describes. Total function of its inputs
/// (indices wrap), so every shrunk candidate is still a valid netlist.
fn build_netlist(n_in: usize, gates: &[(u8, u16, u16)]) -> Netlist {
    let mut n = Netlist::new("prop");
    let mut signals: Vec<NetId> = (0..n_in).map(|i| n.add_input(format!("i{i}"))).collect();
    for (gi, &(kind, a, b)) in gates.iter().enumerate() {
        let kind = match kind % 6 {
            0 => CellKind::And,
            1 => CellKind::Or,
            2 => CellKind::Xor,
            3 => CellKind::Nand,
            4 => CellKind::Nor,
            _ => CellKind::Xnor,
        };
        let x = signals[a as usize % signals.len()];
        let y = signals[b as usize % signals.len()];
        let out = n.add_cell(format!("g{gi}"), kind, vec![x, y]);
        signals.push(out);
    }
    // Export the last few signals.
    let outs: Vec<NetId> = signals.iter().rev().take(3).copied().collect();
    for (i, o) in outs.into_iter().enumerate() {
        n.add_output(format!("o{i}"), o);
    }
    n
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(a: T, b: T, what: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: {a:?} != {b:?}"))
    }
}

/// clean_netlist preserves functionality on arbitrary gate networks.
#[test]
fn clean_preserves_function() {
    forall(
        "clean preserves function",
        0x5EED_0001,
        48,
        |rng| (gen_gates(rng, 24), rng.bounded(32)),
        |(gates, bits)| {
            let n = build_netlist(5, gates);
            let cleaned = clean_netlist(&n);
            let pattern = to_bits(*bits, 5);
            expect_eq(n.eval_comb(&pattern), cleaned.eval_comb(&pattern), "clean")
        },
    );
}

/// Decomposition to two-input gates preserves functionality.
#[test]
fn decompose_preserves_function() {
    forall(
        "decompose preserves function",
        0x5EED_0002,
        48,
        |rng| (gen_gates(rng, 16), rng.bounded(32)),
        |(gates, bits)| {
            let n = build_netlist(5, gates);
            let d = decompose_to_two_input(&n).expect("acyclic");
            let pattern = to_bits(*bits, 5);
            expect_eq(n.eval_comb(&pattern), d.eval_comb(&pattern), "decompose")
        },
    );
}

/// LUT mapping preserves functionality for every k in 2..=6.
#[test]
fn lut_map_preserves_function() {
    forall(
        "lut_map preserves function",
        0x5EED_0003,
        48,
        |rng| (gen_gates(rng, 12), rng.bounded(5), rng.bounded(16)),
        |(gates, k_raw, bits)| {
            let k = 2 + (*k_raw as usize); // 2..=6, stays valid under shrink
            let n = build_netlist(4, gates);
            let m = lut_map(&n, k).expect("acyclic");
            let pattern = to_bits(*bits, 4);
            expect_eq(
                n.eval_comb(&pattern),
                m.netlist.eval_comb(&pattern),
                "lut_map",
            )
        },
    );
}

/// LUT masks: evaluation agrees with the mask bit addressed by the input
/// pattern.
#[test]
fn lut_mask_semantics() {
    use shell_netlist::LutMask;
    forall(
        "lut mask semantics",
        0x5EED_0004,
        64,
        |rng| (rng.next_u64(), rng.bounded(6), rng.next_u64() as u8),
        |&(mask, k_raw, idx)| {
            let k = 1 + (k_raw as usize); // 1..=6
            let lut = LutMask::new(mask, k);
            let idx = (idx as usize) % (1 << k);
            let inputs: Vec<bool> = (0..k).map(|i| (idx >> i) & 1 == 1).collect();
            expect_eq(lut.eval(&inputs), (lut.mask() >> idx) & 1 == 1, "lut eval")
        },
    );
}

/// Bit-vector helpers roundtrip.
#[test]
fn bits_roundtrip() {
    forall(
        "bits roundtrip",
        0x5EED_0005,
        128,
        |rng| rng.next_u64() as u32,
        |&v| expect_eq(from_bits(&to_bits(v as u64, 32)), v as u64, "roundtrip"),
    );
}

/// Raw clause soup: `(variable, sign)` literals over `vars` variables.
/// Indices wrap in the property, so shrinking stays in-domain.
type ClauseList = Vec<Vec<(u32, bool)>>;

fn gen_clauses(rng: &mut Rng, vars: u32, max_clauses: usize, max_lits: usize) -> ClauseList {
    let count = rng.gen_range(1..max_clauses + 1);
    (0..count)
        .map(|_| {
            let lits = rng.gen_range(1..max_lits + 1);
            (0..lits)
                .map(|_| (rng.bounded(vars as u64) as u32, rng.gen_bool(0.5)))
                .collect()
        })
        .collect()
}

fn build_cnf(vars: u32, clauses: &ClauseList) -> Cnf {
    let mut cnf = Cnf::new();
    for _ in 0..vars {
        cnf.new_var();
    }
    for clause in clauses {
        if clause.is_empty() {
            continue; // shrinking may empty a clause; an empty clause is just UNSAT noise
        }
        let lits: Vec<Lit> = clause
            .iter()
            .map(|&(v, s)| Lit::new(Var(v % vars), s))
            .collect();
        cnf.add_clause(lits);
    }
    cnf
}

/// The CDCL solver's SAT answers carry verifiable models.
#[test]
fn solver_models_verify() {
    forall(
        "solver models verify",
        0x5EED_0007,
        48,
        |rng| gen_clauses(rng, 10, 29, 3),
        |clauses| {
            let cnf = build_cnf(10, clauses);
            let mut solver = Solver::new();
            solver.add_cnf(&cnf);
            if solver.solve() == SatResult::Sat {
                let model: Vec<bool> = (0..10)
                    .map(|v| solver.value(Var(v)).unwrap_or(false))
                    .collect();
                if !cnf.eval(&model) {
                    return Err("model does not satisfy the formula".into());
                }
            }
            Ok(())
        },
    );
}

/// Verilog write/parse roundtrips preserve evaluation.
#[test]
fn verilog_roundtrip() {
    forall(
        "verilog roundtrip",
        0x5EED_0008,
        48,
        |rng| (gen_gates(rng, 10), rng.bounded(16)),
        |(gates, bits)| {
            let n = build_netlist(4, gates);
            let text = shell_netlist::verilog::write_verilog(&n);
            let parsed =
                shell_netlist::verilog::parse_verilog(&text).map_err(|e| format!("parse: {e}"))?;
            let pattern = to_bits(*bits, 4);
            expect_eq(n.eval_comb(&pattern), parsed.eval_comb(&pattern), "verilog")
        },
    );
}

/// Builder-level word operators behave like u64 arithmetic (deterministic
/// sweep rather than random cases: the space is small).
#[test]
fn adder_matches_u64() {
    use shell_netlist::NetlistBuilder;
    let mut b = NetlistBuilder::new("a");
    let x = b.input_bus("x", 6);
    let y = b.input_bus("y", 6);
    let (s, c) = b.adder(&x, &y);
    b.output_bus("s", &s);
    b.output("c", c);
    let n = b.finish();
    for xv in (0..64).step_by(7) {
        for yv in (0..64).step_by(9) {
            let mut inp = to_bits(xv, 6);
            inp.extend(to_bits(yv, 6));
            let out = n.eval_comb(&inp);
            let got = from_bits(&out[..6]) + ((out[6] as u64) << 6);
            assert_eq!(got, xv + yv);
        }
    }
}

/// The Tseitin encoding is faithful to simulation: for a random gate
/// network, solving the CNF under assumptions pinning **every** input
/// pattern must be SAT with the output variables reproducing `eval_comb`.
/// This is the foundation the miter equivalence checker and the SAT attack
/// both stand on — if it drifts from the simulator, every proof is noise.
#[test]
fn tseitin_cnf_matches_eval_comb_on_every_pattern() {
    const N_IN: usize = 4;
    forall(
        "tseitin matches eval_comb",
        0x5EED_0009,
        32,
        |rng| gen_gates(rng, 16),
        |gates| {
            let n = build_netlist(N_IN, gates);
            let mut solver = Solver::new();
            let cnf = shell_sat::encode_netlist(&mut solver, &n, None, None);
            for bits in 0..(1u64 << N_IN) {
                let pattern = to_bits(bits, N_IN);
                let assumptions: Vec<Lit> = cnf
                    .inputs
                    .iter()
                    .zip(&pattern)
                    .map(|(&v, &b)| Lit::new(v, b))
                    .collect();
                if solver.solve_with_assumptions(&assumptions) != SatResult::Sat {
                    return Err(format!("UNSAT under input pattern {bits:#x}"));
                }
                let got: Vec<bool> = cnf
                    .outputs
                    .iter()
                    .map(|&v| solver.value(v).unwrap_or(false))
                    .collect();
                expect_eq(n.eval_comb(&pattern), got, "outputs")?;
            }
            Ok(())
        },
    );
}
