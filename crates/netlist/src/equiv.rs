//! Functional equivalence checking by simulation (the JasperGold stand-in).
//!
//! Three strategies behind one entry point ([`equiv`] with a [`Method`]):
//!
//! * [`Method::Exhaustive`] — walks every input pattern; exact, for small
//!   combinational cones (≤ 22 inputs).
//! * [`Method::Random`] — Monte-Carlo vectors for wide combinational
//!   designs; can only *find* counterexamples, never prove equivalence.
//! * [`Method::SequentialRandom`] — lockstep random simulation from reset
//!   for sequential designs.
//!
//! Every strategy evaluates through [`Simulator`]. The exact check for wide
//! combinational designs is a SAT miter, `shell_sat::equiv_sat`, in the
//! crate that holds the CNF encoding (this crate sits below it).
//!
//! All strategies share one shape-check ([`shape_check`]) and one
//! counterexample report path, so a port-count or key-width mismatch is
//! always an `Incomparable` (never a panic deep inside a simulator) and a
//! mismatch is always reported with the full input assignment plus both
//! output vectors.
//!
//! The historical free functions ([`equiv_exhaustive`], [`equiv_random`],
//! [`equiv_sequential_random`]) remain as thin wrappers.

use crate::netlist::Netlist;
use crate::sim::Simulator;

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// No distinguishing pattern found (exact for exhaustive/SAT checks).
    Equivalent,
    /// A concrete input assignment on which the two designs differ. For
    /// sequential checks `inputs` is the whole stimulus (cycle-major
    /// concatenation of per-cycle input vectors) and `lhs`/`rhs` are the
    /// outputs at the first diverging cycle.
    Counterexample {
        /// Primary-input assignment.
        inputs: Vec<bool>,
        /// Outputs of the first design.
        lhs: Vec<bool>,
        /// Outputs of the second design.
        rhs: Vec<bool>,
    },
    /// The designs are structurally incomparable (port count or key width
    /// mismatch), or the requested check cannot run (a combinational
    /// cycle, a latch the SAT encoder refuses, a solver budget exhausted).
    Incomparable(String),
}

impl EquivResult {
    /// `true` when the check concluded equivalence.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivResult::Equivalent)
    }

    /// `true` when the check produced a concrete distinguishing pattern.
    pub fn is_counterexample(&self) -> bool {
        matches!(self, EquivResult::Counterexample { .. })
    }
}

/// Equivalence-checking strategy selector for [`equiv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Every input pattern of a combinational pair (≤ 22 inputs).
    Exhaustive,
    /// Monte-Carlo vectors on a combinational pair.
    Random {
        /// Number of random vectors.
        vectors: usize,
        /// PRNG seed.
        seed: u64,
    },
    /// Lockstep random simulation of a sequential pair from reset.
    SequentialRandom {
        /// Number of clock cycles.
        cycles: usize,
        /// PRNG seed.
        seed: u64,
    },
}

/// Checks that `a` and `b` are comparable: equal primary-input and output
/// counts, and key vectors matching each design's key-input count. Returns
/// the [`EquivResult::Incomparable`] to report, or `None` when the shapes
/// line up. Every equivalence strategy — including the SAT miter in
/// `shell-sat` — runs this exact check first.
pub fn shape_check(
    a: &Netlist,
    b: &Netlist,
    lhs_key: &[bool],
    rhs_key: &[bool],
) -> Option<EquivResult> {
    if a.inputs().len() != b.inputs().len() {
        return Some(EquivResult::Incomparable(format!(
            "input count {} vs {}",
            a.inputs().len(),
            b.inputs().len()
        )));
    }
    if a.outputs().len() != b.outputs().len() {
        return Some(EquivResult::Incomparable(format!(
            "output count {} vs {}",
            a.outputs().len(),
            b.outputs().len()
        )));
    }
    if lhs_key.len() != a.key_inputs().len() {
        return Some(EquivResult::Incomparable(format!(
            "lhs key width {} vs {} key inputs",
            lhs_key.len(),
            a.key_inputs().len()
        )));
    }
    if rhs_key.len() != b.key_inputs().len() {
        return Some(EquivResult::Incomparable(format!(
            "rhs key width {} vs {} key inputs",
            rhs_key.len(),
            b.key_inputs().len()
        )));
    }
    None
}

/// The one counterexample report path: every strategy funnels a mismatch
/// through here so the result always carries the distinguishing inputs and
/// both output vectors.
fn report(inputs: Vec<bool>, lhs: Vec<bool>, rhs: Vec<bool>) -> EquivResult {
    debug_assert_ne!(lhs, rhs, "report called without a mismatch");
    EquivResult::Counterexample { inputs, lhs, rhs }
}

/// Compares the designs on each combinational pattern in turn, reporting
/// the first mismatch through the shared path. One [`Simulator`] per side
/// is built before the first pattern and kept for the rest; with no
/// patterns nothing is built. Returns the outcome and the patterns
/// compared.
///
/// # Panics
///
/// Panics on a combinational cycle.
fn compare_patterns(
    a: &Netlist,
    b: &Netlist,
    lhs_key: &[bool],
    rhs_key: &[bool],
    patterns: impl Iterator<Item = Vec<bool>>,
) -> (EquivResult, usize) {
    let mut sims = None;
    let mut compared = 0;
    for pattern in patterns {
        let (sim_a, sim_b) = sims.get_or_insert_with(|| (Simulator::new(a), Simulator::new(b)));
        compared += 1;
        let lhs = sim_a.settle(&pattern, lhs_key);
        let rhs = sim_b.settle(&pattern, rhs_key);
        if lhs != rhs {
            return (report(pattern, lhs, rhs), compared);
        }
    }
    (EquivResult::Equivalent, compared)
}

/// Runs the selected equivalence [`Method`] on a pair of designs.
///
/// Key inputs of each design must be bound by the caller via
/// `lhs_key` / `rhs_key` (pass `&[]` for unkeyed designs); a wrong key
/// width is an [`EquivResult::Incomparable`], not a panic.
///
/// # Panics
///
/// Propagates the per-method limits: [`Method::Exhaustive`] panics on more
/// than 22 inputs, and the combinational methods panic on sequential
/// designs (use [`Method::SequentialRandom`] or the bounded unroller
/// `shell_sat::equiv_sat_bounded`).
pub fn equiv(
    a: &Netlist,
    b: &Netlist,
    lhs_key: &[bool],
    rhs_key: &[bool],
    method: Method,
) -> EquivResult {
    equiv_counted(a, b, lhs_key, rhs_key, method).0
}

/// [`equiv`], also returning how much it compared: input patterns for the
/// combinational methods, clock cycles for [`Method::SequentialRandom`],
/// and 0 for an incomparable pair. A mismatch ends the check, so a
/// counterexample counts up to the pattern or cycle that produced it.
///
/// # Panics
///
/// As [`equiv`].
pub fn equiv_counted(
    a: &Netlist,
    b: &Netlist,
    lhs_key: &[bool],
    rhs_key: &[bool],
    method: Method,
) -> (EquivResult, usize) {
    if let Some(bad) = shape_check(a, b, lhs_key, rhs_key) {
        return (bad, 0);
    }
    let n = a.inputs().len();
    match method {
        Method::Exhaustive => {
            assert!(n <= 22, "exhaustive equivalence limited to 22 inputs");
            assert!(a.is_combinational() && b.is_combinational());
            // n == 0 still walks the single empty pattern: two constant
            // circuits are compared on their (only) evaluation.
            let patterns =
                (0..(1u64 << n)).map(|bits| (0..n).map(|i| (bits >> i) & 1 == 1).collect());
            compare_patterns(a, b, lhs_key, rhs_key, patterns)
        }
        Method::Random { vectors, seed } => {
            assert!(a.is_combinational() && b.is_combinational());
            let mut rng = XorShift::new(seed);
            let patterns = (0..vectors).map(|_| (0..n).map(|_| rng.next_bool()).collect());
            compare_patterns(a, b, lhs_key, rhs_key, patterns)
        }
        Method::SequentialRandom { cycles, seed } => {
            let mut rng = XorShift::new(seed);
            let mut sim_a = Simulator::new(a);
            let mut sim_b = Simulator::new(b);
            let mut stimulus: Vec<bool> = Vec::new();
            for cycle in 0..cycles {
                let pattern: Vec<bool> = (0..n).map(|_| rng.next_bool()).collect();
                stimulus.extend_from_slice(&pattern);
                let lhs = sim_a.step(&pattern, lhs_key);
                let rhs = sim_b.step(&pattern, rhs_key);
                if lhs != rhs {
                    return (report(stimulus, lhs, rhs), cycle + 1);
                }
            }
            (EquivResult::Equivalent, cycles)
        }
    }
}

/// Exhaustively compares two combinational netlists over all `2^n` input
/// patterns (wrapper over [`equiv`] with [`Method::Exhaustive`]).
///
/// # Panics
///
/// Panics if either design is sequential or has more than 22 primary inputs
/// (use [`equiv_random`] or the SAT miter `shell_sat::equiv_sat` instead).
pub fn equiv_exhaustive(
    a: &Netlist,
    b: &Netlist,
    lhs_key: &[bool],
    rhs_key: &[bool],
) -> EquivResult {
    equiv(a, b, lhs_key, rhs_key, Method::Exhaustive)
}

/// Compares two combinational netlists on `vectors` uniformly random input
/// patterns drawn from a deterministic xorshift stream seeded with `seed`
/// (wrapper over [`equiv`] with [`Method::Random`]).
pub fn equiv_random(
    a: &Netlist,
    b: &Netlist,
    lhs_key: &[bool],
    rhs_key: &[bool],
    vectors: usize,
    seed: u64,
) -> EquivResult {
    equiv(a, b, lhs_key, rhs_key, Method::Random { vectors, seed })
}

/// Lockstep random simulation of two sequential designs from reset
/// (wrapper over [`equiv`] with [`Method::SequentialRandom`]).
///
/// Both designs start with all-zero state; `cycles` random input vectors are
/// applied to both and every cycle's outputs are compared. On mismatch the
/// counterexample's `inputs` carries the whole stimulus up to and including
/// the diverging cycle.
pub fn equiv_sequential_random(
    a: &Netlist,
    b: &Netlist,
    lhs_key: &[bool],
    rhs_key: &[bool],
    cycles: usize,
    seed: u64,
) -> EquivResult {
    equiv(
        a,
        b,
        lhs_key,
        rhs_key,
        Method::SequentialRandom { cycles, seed },
    )
}

/// Minimal deterministic PRNG so this crate stays dependency-free.
#[derive(Debug, Clone)]
pub(crate) struct XorShift(u64);

impl XorShift {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed.max(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    pub(crate) fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use shell_util::{forall, Rng};

    fn and2() -> Netlist {
        let mut n = Netlist::new("and2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let f = n.add_cell("f", CellKind::And, vec![a, b]);
        n.add_output("f", f);
        n
    }

    fn and2_via_nand() -> Netlist {
        let mut n = Netlist::new("and2n");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let t = n.add_cell("t", CellKind::Nand, vec![a, b]);
        let f = n.add_cell("f", CellKind::Not, vec![t]);
        n.add_output("f", f);
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
    fn exhaustive_equivalent() {
        assert!(equiv_exhaustive(&and2(), &and2_via_nand(), &[], &[]).is_equivalent());
    }

    #[test]
    fn exhaustive_counterexample() {
        match equiv_exhaustive(&and2(), &or2(), &[], &[]) {
            EquivResult::Counterexample { inputs, lhs, rhs } => {
                let a = and2().eval_comb(&inputs);
                let o = or2().eval_comb(&inputs);
                assert_eq!(a, lhs);
                assert_eq!(o, rhs);
                assert_ne!(lhs, rhs);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_incomparable() {
        let mut single = Netlist::new("one");
        let a = single.add_input("a");
        let f = single.add_cell("f", CellKind::Buf, vec![a]);
        single.add_output("f", f);
        assert!(matches!(
            equiv_exhaustive(&and2(), &single, &[], &[]),
            EquivResult::Incomparable(_)
        ));
    }

    #[test]
    fn key_width_mismatch_incomparable_not_panic() {
        // and2 has no key inputs: a non-empty key vector is a shape error
        // surfaced as Incomparable through the shared shape check.
        match equiv_exhaustive(&and2(), &or2(), &[true], &[]) {
            EquivResult::Incomparable(msg) => assert!(msg.contains("key width"), "{msg}"),
            other => panic!("expected Incomparable, got {other:?}"),
        }
        match equiv_random(&and2(), &or2(), &[], &[true, false], 16, 1) {
            EquivResult::Incomparable(msg) => assert!(msg.contains("key width"), "{msg}"),
            other => panic!("expected Incomparable, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_zero_input_circuits() {
        // Constant circuits have n = 0: the single empty pattern still
        // distinguishes them, and the counterexample reports empty inputs
        // with the differing output vectors.
        let konst = |v: bool, name: &str| {
            let mut n = Netlist::new(name);
            let c = n.add_cell("c", CellKind::Const(v), vec![]);
            n.add_output("f", c);
            n
        };
        assert!(equiv_exhaustive(&konst(true, "t"), &konst(true, "t2"), &[], &[]).is_equivalent());
        match equiv_exhaustive(&konst(true, "t"), &konst(false, "f"), &[], &[]) {
            EquivResult::Counterexample { inputs, lhs, rhs } => {
                assert!(inputs.is_empty());
                assert_eq!(lhs, vec![true]);
                assert_eq!(rhs, vec![false]);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_zero_output_circuits_equivalent() {
        // No outputs ⇒ nothing observable ⇒ equivalent.
        let mut a = Netlist::new("a");
        a.add_input("x");
        let mut b = Netlist::new("b");
        let xb = b.add_input("x");
        b.add_cell("inv", CellKind::Not, vec![xb]);
        assert!(equiv_exhaustive(&a, &b, &[], &[]).is_equivalent());
    }

    #[test]
    fn keyed_equivalence_depends_on_key() {
        // locked: f = (a AND b) XOR k
        let mut locked = Netlist::new("locked");
        let a = locked.add_input("a");
        let b = locked.add_input("b");
        let k = locked.add_key_input("k");
        let t = locked.add_cell("t", CellKind::And, vec![a, b]);
        let f = locked.add_cell("f", CellKind::Xor, vec![t, k]);
        locked.add_output("f", f);
        assert!(equiv_exhaustive(&and2(), &locked, &[], &[false]).is_equivalent());
        assert!(!equiv_exhaustive(&and2(), &locked, &[], &[true]).is_equivalent());
    }

    #[test]
    fn random_agrees_with_exhaustive() {
        assert!(equiv_random(&and2(), &and2_via_nand(), &[], &[], 200, 42).is_equivalent());
        assert!(!equiv_random(&and2(), &or2(), &[], &[], 200, 42).is_equivalent());
    }

    #[test]
    fn sequential_equiv_detects_difference() {
        // Two counters: q' = q ^ 1 vs q' = q (constant).
        let mut t1 = Netlist::new("t1");
        {
            let q = t1.add_net("q");
            let one = t1.add_cell("one", CellKind::Const(true), vec![]);
            let nx = t1.add_cell("nx", CellKind::Xor, vec![q, one]);
            t1.add_cell_driving("ff", CellKind::Dff, vec![nx], q)
                .unwrap();
            t1.add_output("q", q);
        }
        let mut t2 = Netlist::new("t2");
        {
            let q = t2.add_net("q");
            let buf = t2.add_cell("b", CellKind::Buf, vec![q]);
            t2.add_cell_driving("ff", CellKind::Dff, vec![buf], q)
                .unwrap();
            t2.add_output("q", q);
        }
        assert!(!equiv_sequential_random(&t1, &t2, &[], &[], 8, 7).is_equivalent());
        assert!(equiv_sequential_random(&t1, &t1.clone(), &[], &[], 8, 7).is_equivalent());
    }

    #[test]
    fn sequential_counterexample_carries_full_stimulus() {
        // q' = d (one-cycle delay) vs combinational passthrough wrapped in
        // a DFF-equal design: diverges at cycle 0 for d=1... build two
        // delays of different depth instead: q' = d vs q'' = q' (2-cycle).
        let delay1 = {
            let mut n = Netlist::new("d1");
            let d = n.add_input("d");
            let q = n.add_cell("ff", CellKind::Dff, vec![d]);
            n.add_output("q", q);
            n
        };
        let delay2 = {
            let mut n = Netlist::new("d2");
            let d = n.add_input("d");
            let q1 = n.add_cell("ff1", CellKind::Dff, vec![d]);
            let q2 = n.add_cell("ff2", CellKind::Dff, vec![q1]);
            n.add_output("q", q2);
            n
        };
        match equiv_sequential_random(&delay1, &delay2, &[], &[], 16, 3) {
            EquivResult::Counterexample { inputs, lhs, rhs } => {
                // One input bit per cycle: stimulus length = diverging cycle
                // index + 1, and the final cycle's outputs differ.
                assert!(!inputs.is_empty());
                assert_ne!(lhs, rhs);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    /// The per-pattern loop, kept as the oracle of [`compare_patterns`]:
    /// every pattern evaluates both sides with
    /// [`Netlist::eval_comb_with_key`], which builds a fresh simulator.
    fn oracle(
        a: &Netlist,
        b: &Netlist,
        lhs_key: &[bool],
        rhs_key: &[bool],
        method: Method,
    ) -> (EquivResult, usize) {
        let n = a.inputs().len();
        let patterns: Vec<Vec<bool>> = match method {
            Method::Exhaustive => (0..(1u64 << n))
                .map(|bits| (0..n).map(|i| (bits >> i) & 1 == 1).collect())
                .collect(),
            Method::Random { vectors, seed } => {
                let mut rng = XorShift::new(seed);
                (0..vectors)
                    .map(|_| (0..n).map(|_| rng.next_bool()).collect())
                    .collect()
            }
            _ => unreachable!("combinational methods only"),
        };
        for (i, pattern) in patterns.into_iter().enumerate() {
            let lhs = a.eval_comb_with_key(&pattern, lhs_key);
            let rhs = b.eval_comb_with_key(&pattern, rhs_key);
            if lhs != rhs {
                return (report(pattern, lhs, rhs), i + 1);
            }
        }
        let all = match method {
            Method::Random { vectors, .. } => vectors,
            _ => 1 << n,
        };
        (EquivResult::Equivalent, all)
    }

    /// A random combinational netlist: `inputs` primary and `keys` key
    /// inputs, 1–9 gates over earlier nets, `outputs` outputs on any net.
    fn random_comb(rng: &mut Rng, inputs: usize, keys: usize, outputs: usize) -> Netlist {
        let mut n = Netlist::new("random_comb");
        let mut nets: Vec<_> = (0..inputs).map(|i| n.add_input(format!("i{i}"))).collect();
        nets.extend((0..keys).map(|i| n.add_key_input(format!("k{i}"))));
        if nets.is_empty() {
            nets.push(n.add_cell("c", CellKind::Const(rng.gen_bool(0.5)), vec![]));
        }
        for c in 0..rng.gen_range(1..10) {
            let (kind, arity) = match rng.gen_range(0..5) {
                0 => (CellKind::And, 2),
                1 => (CellKind::Xor, 2),
                2 => (CellKind::Or, 3),
                3 => (CellKind::Mux2, 3),
                _ => (CellKind::Not, 1),
            };
            let ins = (0..arity)
                .map(|_| nets[rng.gen_range(0..nets.len())])
                .collect();
            nets.push(n.add_cell(format!("g{c}"), kind, ins));
        }
        for o in 0..outputs {
            n.add_output(format!("o{o}"), nets[rng.gen_range(0..nets.len())]);
        }
        n
    }

    #[test]
    fn ordered_once_matches_per_pattern_oracle() {
        forall(
            "equiv == per-pattern oracle",
            0x0E0_1CE5,
            200,
            |rng| (rng.gen_range(0..6), rng.next_u64()),
            |&(inputs, seed)| {
                let mut rng = Rng::seed_from_u64(seed);
                let outputs = rng.gen_range(1..4);
                let lhs_keys = rng.gen_range(0..3);
                let lhs = random_comb(&mut rng, inputs, lhs_keys, outputs);
                let lhs_key: Vec<bool> = (0..lhs_keys).map(|_| rng.gen_bool(0.5)).collect();
                // The same netlist under the same key, the same netlist
                // under another key, or an unrelated netlist of that shape.
                let (rhs, rhs_key) = match rng.gen_range(0..3) {
                    0 => (lhs.clone(), lhs_key.clone()),
                    1 => (
                        lhs.clone(),
                        (0..lhs_keys).map(|_| rng.gen_bool(0.5)).collect(),
                    ),
                    _ => {
                        let keys = rng.gen_range(0..3);
                        let rhs = random_comb(&mut rng, inputs, keys, outputs);
                        (rhs, (0..keys).map(|_| rng.gen_bool(0.5)).collect())
                    }
                };
                let methods = [
                    Method::Exhaustive,
                    Method::Random {
                        vectors: rng.gen_range(0..40),
                        seed: rng.next_u64(),
                    },
                ];
                for method in methods {
                    let got = equiv_counted(&lhs, &rhs, &lhs_key, &rhs_key, method);
                    let want = oracle(&lhs, &rhs, &lhs_key, &rhs_key, method);
                    if got != want {
                        return Err(format!("{method:?}: got {got:?}, oracle {want:?}"));
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn zero_vectors_evaluate_nothing() {
        // Simulating a cyclic netlist panics, so a check that builds its
        // simulator without a pattern to compare would fail here.
        let mut cyclic = Netlist::new("cyclic");
        let x = cyclic.add_input("x");
        let loop_net = cyclic.add_net("loop");
        let g = cyclic.add_cell("g", CellKind::And, vec![x, loop_net]);
        cyclic
            .add_cell_driving("h", CellKind::Buf, vec![g], loop_net)
            .unwrap();
        cyclic.add_output("f", g);
        let mut buf = Netlist::new("buf");
        let xb = buf.add_input("x");
        let f = buf.add_cell("f", CellKind::Buf, vec![xb]);
        buf.add_output("f", f);
        let random = Method::Random {
            vectors: 0,
            seed: 1,
        };
        assert_eq!(
            equiv_counted(&cyclic, &buf, &[], &[], random),
            (EquivResult::Equivalent, 0)
        );
    }

    #[test]
    fn xorshift_deterministic() {
        let mut a = XorShift::new(9);
        let mut b = XorShift::new(9);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
