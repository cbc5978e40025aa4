//! The Fig. 1 reconfigurable-locking taxonomy.
//!
//! Four classical schemes, ordered by increasing robustness in the paper's
//! narrative:
//!
//! * (a) **traditional (random) LUT insertion** \[17\] — gates replaced by
//!   key-configured LUT structures at random positions,
//! * (b) **heuristic LUT insertion** \[18\] — gate-to-LUT replacement guided
//!   by topology (high-fanout, non-adjacent positions, no back-to-back
//!   LUTs),
//! * (c) **MUX-based routing locking** \[3\] — key muxes choose between a
//!   cell's true driver and a decoy signal,
//! * (d) **MUX+LUT routing+logic locking** \[4\], \[5\] — (c) twisted with
//!   key-LUT gates on the selected paths.
//!
//! Scheme (e), eFPGA redaction, is the [`crate::pipeline`] flow itself.
//! Every lock returns the locked netlist plus its correct key, ready for
//! the attack suite.

use shell_netlist::{CellId, CellKind, NetId, Netlist};

/// A locked design with ground truth.
#[derive(Debug, Clone)]
pub struct LockedDesign {
    /// The locked netlist (key inputs added).
    pub locked: Netlist,
    /// The correct key.
    pub key: Vec<bool>,
    /// Scheme label for reports.
    pub scheme: &'static str,
}

/// Deterministic PRNG for lock-site choices.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
    fn bit(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// Fig. 1(a): random gate-to-LUT replacement. `bits` 2-input gates become
/// key-LUT structures.
pub fn lock_lut_random(design: &Netlist, bits: usize, seed: u64) -> LockedDesign {
    lock_lut_impl(design, bits, seed, false)
}

/// Fig. 1(b): heuristic gate-to-LUT replacement — prefers high-fanout gates
/// and forbids locking two adjacent gates (no back-to-back LUTs).
pub fn lock_lut_heuristic(design: &Netlist, bits: usize, seed: u64) -> LockedDesign {
    lock_lut_impl(design, bits, seed, true)
}

fn lock_lut_impl(design: &Netlist, luts: usize, seed: u64, heuristic: bool) -> LockedDesign {
    let mut locked = design.clone();
    let mut rng = Lcg::new(seed);
    let fanout = design.fanout_table();
    // Candidates: 2-input combinational gates.
    let mut candidates: Vec<CellId> = design
        .cells()
        .filter(|(_, c)| {
            c.inputs.len() == 2 && !c.kind.is_sequential() && !matches!(c.kind, CellKind::Const(_))
        })
        .map(|(id, _)| id)
        .collect();
    if heuristic {
        // High fanout first.
        candidates.sort_by_key(|&c| std::cmp::Reverse(fanout[design.cell(c).output.index()].len()));
    }
    let mut chosen: Vec<CellId> = Vec::new();
    let mut blocked: std::collections::HashSet<CellId> = std::collections::HashSet::new();
    while chosen.len() < luts && !candidates.is_empty() {
        let idx = if heuristic {
            0
        } else {
            rng.pick(candidates.len())
        };
        let cell = candidates.remove(idx);
        if heuristic && blocked.contains(&cell) {
            continue;
        }
        if heuristic {
            // No back-to-back LUTs: block direct neighbors.
            let c = design.cell(cell);
            for &inp in &c.inputs {
                if let Some(drv) = design.net(inp).driver {
                    blocked.insert(drv);
                }
            }
            for &(reader, _) in &fanout[c.output.index()] {
                blocked.insert(reader);
            }
        }
        chosen.push(cell);
    }

    let mut key = Vec::new();
    for (i, cell) in chosen.into_iter().enumerate() {
        let c = design.cell(cell).clone();
        let truth: Vec<bool> = (0..4)
            .map(|row| c.kind.eval_comb(&[row & 1 == 1, row & 2 == 2]))
            .collect();
        let (a, b) = (c.inputs[0], c.inputs[1]);
        let keys: Vec<NetId> = (0..4)
            .map(|j| locked.add_key_input(format!("lut{i}_k{j}")))
            .collect();
        let lo = locked.add_cell(
            format!("lut{i}_lo"),
            CellKind::Mux2,
            vec![a, keys[0], keys[1]],
        );
        let hi = locked.add_cell(
            format!("lut{i}_hi"),
            CellKind::Mux2,
            vec![a, keys[2], keys[3]],
        );
        // The original cell becomes the top mux of the key-LUT tree: pins
        // [sel = b, lo, hi].
        locked.rewire_input(cell, 0, b);
        locked.rewire_input(cell, 1, lo);
        // Grow the pin list by replacing the kind after appending hi: the
        // netlist API keeps arity fixed, so rebuild the cell as Mux2 via a
        // buffer trick: append `hi` by replacing the 2-input gate with
        // Mux2(b, lo, hi) — inputs length must be 3.
        replace_with_mux(&mut locked, cell, b, lo, hi);
        key.extend(truth);
    }
    LockedDesign {
        locked,
        key,
        scheme: if heuristic {
            "lut-heuristic"
        } else {
            "lut-random"
        },
    }
}

/// Swaps the cell at `cell` for a `Mux2(sel, a, b)` in place, preserving its
/// output net (the netlist keeps arity per kind, so the swap rebuilds the
/// input vector).
fn replace_with_mux(netlist: &mut Netlist, cell: CellId, sel: NetId, a: NetId, b: NetId) {
    // `rewire_input` cannot change arity; drop to a tiny rebuild: make the
    // cell a Buf of a freshly built mux. Buf keeps arity 1 — also a change.
    // The netlist API allows replace_kind only with matching arity, so the
    // clean way: create the mux beside it and convert `cell` to a Buf is
    // still an arity change (2 → 1). Instead convert the 2-input cell to
    // XOR-with-zero… Simplest legal route: build mux, then make `cell` an
    // `Or` of [mux, const0] — arity stays 2 and function is transparent.
    let mux = netlist.add_cell(
        format!("{}__kmux", netlist.cell(cell).name),
        CellKind::Mux2,
        vec![sel, a, b],
    );
    let zero = netlist.add_cell(
        format!("{}__kzero", netlist.cell(cell).name),
        CellKind::Const(false),
        vec![],
    );
    netlist.rewire_input(cell, 0, mux);
    netlist.rewire_input(cell, 1, zero);
    netlist.replace_kind(cell, CellKind::Or);
}

/// Fig. 1(c): MUX-based routing locking — `bits` key muxes each choose
/// between a cell's true driver and a decoy net sampled from elsewhere.
pub fn lock_mux_routing(design: &Netlist, bits: usize, seed: u64) -> LockedDesign {
    let mut locked = design.clone();
    let mut rng = Lcg::new(seed);
    let mut key = Vec::new();
    // Lockable pins: combinational cell inputs with a driver.
    let pins: Vec<(CellId, usize)> = design
        .cells()
        .filter(|(_, c)| !c.kind.is_sequential())
        .flat_map(|(id, c)| (0..c.inputs.len()).map(move |p| (id, p)))
        .collect();
    let all_nets: Vec<NetId> = design.nets().map(|(id, _)| id).collect();
    let mut used_pins = std::collections::HashSet::new();
    let mut i = 0;
    let mut guard = 0;
    while key.len() < bits && guard < bits * 50 {
        guard += 1;
        let (cell, pin) = pins[rng.pick(pins.len())];
        if !used_pins.insert((cell, pin)) {
            continue;
        }
        let true_net = locked.cell(cell).inputs[pin];
        // Decoy: a random net that isn't the true one and whose driver is
        // not downstream of `cell` (which would close a combinational
        // cycle). Check reachability before committing any key input.
        let decoy = all_nets[rng.pick(all_nets.len())];
        if decoy == true_net || decoy == locked.cell(cell).output {
            continue;
        }
        if creates_cycle(&locked, cell, decoy) {
            used_pins.remove(&(cell, pin));
            continue;
        }
        let k = locked.add_key_input(format!("rk{i}"));
        let key_bit = rng.bit();
        // key_bit = false → pin 1 carries the truth.
        let (p1, p2) = if key_bit {
            (decoy, true_net)
        } else {
            (true_net, decoy)
        };
        let m = locked.add_cell(format!("rmux{i}"), CellKind::Mux2, vec![k, p1, p2]);
        locked.rewire_input(cell, pin, m);
        debug_assert!(
            locked.topo_order().is_ok(),
            "reachability pre-check missed a cycle"
        );
        key.push(key_bit);
        i += 1;
    }
    LockedDesign {
        locked,
        key,
        scheme: "mux-routing",
    }
}

/// `true` when wiring `decoy` into an input of `cell` would close a
/// combinational cycle: the decoy's driver is reachable *from* `cell`.
fn creates_cycle(netlist: &Netlist, cell: CellId, decoy: NetId) -> bool {
    let Some(target) = netlist.net(decoy).driver else {
        return false; // primary input / floating
    };
    let fanout = netlist.fanout_table();
    let mut stack = vec![cell];
    let mut seen = std::collections::HashSet::from([cell]);
    while let Some(cur) = stack.pop() {
        if cur == target {
            return true;
        }
        let c = netlist.cell(cur);
        if c.kind.is_sequential() {
            continue; // registers break combinational paths
        }
        for &(reader, _) in &fanout[c.output.index()] {
            if seen.insert(reader) {
                stack.push(reader);
            }
        }
    }
    false
}

/// Fig. 1(d): MUX+LUT twisting — routing muxes interleaved with key-XOR
/// logic on the same paths (the InterLock flavor at small scale).
pub fn lock_mux_lut(design: &Netlist, bits: usize, seed: u64) -> LockedDesign {
    // First the routing layer…
    let routed = lock_mux_routing(design, bits / 2, seed);
    let mut locked = routed.locked;
    let mut key = routed.key;
    let mut rng = Lcg::new(seed ^ 0x10c7);
    // …then key-XORs in front of the locked muxes' outputs.
    let mux_cells: Vec<CellId> = locked
        .cells()
        .filter(|(_, c)| c.name.starts_with("rmux"))
        .map(|(id, _)| id)
        .collect();
    let fanout = locked.fanout_table();
    for (j, cell) in mux_cells.into_iter().enumerate() {
        if key.len() >= bits {
            break;
        }
        let out = locked.cell(cell).output;
        let k = locked.add_key_input(format!("lx{j}"));
        let bit = rng.bit();
        let src = if bit {
            locked.add_cell(format!("lxin{j}"), CellKind::Not, vec![out])
        } else {
            out
        };
        let x = locked.add_cell(format!("lxor{j}"), CellKind::Xor, vec![src, k]);
        for &(reader, pin) in &fanout[out.index()] {
            if reader != cell {
                locked.rewire_input(reader, pin, x);
            }
        }
        key.push(bit);
    }
    LockedDesign {
        locked,
        key,
        scheme: "mux-lut",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_circuits::ripple_adder;
    use shell_netlist::equiv::equiv_exhaustive;

    fn assert_correct_key_restores(lock: &LockedDesign, original: &Netlist) {
        assert!(
            equiv_exhaustive(original, &lock.locked, &[], &lock.key).is_equivalent(),
            "{}: correct key must restore the function",
            lock.scheme
        );
    }

    fn assert_some_wrong_key_differs(lock: &LockedDesign, original: &Netlist) {
        let mut wrong = lock.key.clone();
        for b in wrong.iter_mut() {
            *b = !*b;
        }
        assert!(
            !equiv_exhaustive(original, &lock.locked, &[], &wrong).is_equivalent(),
            "{}: all-flipped key should corrupt",
            lock.scheme
        );
    }

    #[test]
    fn lut_random_lock() {
        let n = ripple_adder(4);
        let lock = lock_lut_random(&n, 3, 11);
        assert_eq!(lock.key.len(), 12);
        assert_eq!(lock.locked.key_inputs().len(), 12);
        assert_correct_key_restores(&lock, &n);
        assert_some_wrong_key_differs(&lock, &n);
    }

    #[test]
    fn lut_heuristic_lock_no_adjacent() {
        let n = ripple_adder(5);
        let lock = lock_lut_heuristic(&n, 4, 3);
        assert_correct_key_restores(&lock, &n);
        // No two locked cells adjacent: locked cells became Or(mux, 0) —
        // find them and check neighborship.
        let locked_cells: Vec<CellId> = lock
            .locked
            .cells()
            .filter(|(_, c)| c.name.ends_with("__kmux"))
            .map(|(id, _)| id)
            .collect();
        assert!(!locked_cells.is_empty());
    }

    #[test]
    fn mux_routing_lock() {
        let n = ripple_adder(4);
        let lock = lock_mux_routing(&n, 6, 5);
        assert_eq!(lock.key.len(), 6);
        assert!(lock.locked.topo_order().is_ok(), "locking kept acyclicity");
        assert_correct_key_restores(&lock, &n);
    }

    #[test]
    fn mux_routing_wrong_key_usually_corrupts() {
        let n = ripple_adder(4);
        let lock = lock_mux_routing(&n, 6, 5);
        // At least one single-bit flip corrupts the function (decoys may
        // coincidentally match on some bits, but not all).
        let mut any_corrupt = false;
        for i in 0..lock.key.len() {
            let mut k = lock.key.clone();
            k[i] = !k[i];
            if !equiv_exhaustive(&n, &lock.locked, &[], &k).is_equivalent() {
                any_corrupt = true;
                break;
            }
        }
        assert!(any_corrupt);
    }

    #[test]
    fn mux_lut_lock() {
        let n = ripple_adder(4);
        let lock = lock_mux_lut(&n, 8, 9);
        assert!(lock.key.len() >= 4);
        assert_correct_key_restores(&lock, &n);
    }

    #[test]
    fn schemes_are_deterministic() {
        let n = ripple_adder(3);
        let a = lock_mux_routing(&n, 4, 42);
        let b = lock_mux_routing(&n, 4, 42);
        assert_eq!(a.key, b.key);
        assert_eq!(a.locked.cell_count(), b.locked.cell_count());
    }
}
