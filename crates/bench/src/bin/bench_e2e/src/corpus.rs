//! The benchmark's inputs. Every constant that shapes a workload lives in
//! this package, so a change to a table harness elsewhere cannot silently
//! change what this benchmark measures.

use shell_attacks::xor_lock_outputs;
use shell_circuits::{axi_xbar, generate, Benchmark, Scale};
use shell_netlist::{CellKind, NetId, Netlist};
use shell_util::{split_mix64, Rng};

/// The corpus: the five paper circuits at the small scale plus the AXI
/// crossbar the routing-locking figures use.
pub fn corpus() -> Vec<Netlist> {
    let mut designs: Vec<Netlist> = Benchmark::all()
        .into_iter()
        .map(|b| generate(b, Scale::small()))
        .collect();
    designs.push(axi_xbar(4, 1));
    designs
}

/// The seed of measured pass `pass`. Every attack pass draws its own
/// inputs, so a run takes the median over many instances instead of timing
/// one, and two runs with different workload seeds measure comparable work.
/// Seeds keep to 53 bits: the run record stores them as JSON numbers, which
/// are doubles.
pub fn pass_seed(seed: u64, pass: usize) -> u64 {
    let mut state = seed ^ (pass as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    split_mix64(&mut state) >> 11
}

/// Input-prefix width of the point lock: `2^7 - 1 = 127` key bits, each
/// observable only on inputs whose prefix spells its index, so the attack
/// needs about one cheap DIP per key bit.
const POINT_PREFIX_BITS: usize = 7;

/// Output-XOR key bits stacked on the point lock.
const POINT_XOR_BITS: usize = 4;

/// The DIP-bound attack instance: a point lock on seed-chosen prefix inputs
/// with a seed-chosen planted key, then [`xor_lock_outputs`]. Returns the
/// locked frame and its unique correct key.
pub fn dip_instance(frame: &Netlist, seed: u64) -> (Netlist, Vec<bool>) {
    let (point_locked, point_key) = point_lock(frame, POINT_PREFIX_BITS, seed);
    let (locked, xor_key) = xor_lock_outputs(&point_locked, POINT_XOR_BITS);
    (locked, point_key.into_iter().chain(xor_key).collect())
}

/// A SARLock-style point lock with a **unique** correct key: output 0 is
/// XORed with `OR_i (prefix == i AND k_i != planted_i)` over
/// `2^prefix_bits - 1` key bits. Key bit `i` only matters on inputs whose
/// prefix equals `i`, so every bit is pinned by its own DIP. The last prefix
/// value carries no key bit: there the lock is transparent, so no key can
/// flip output 0 everywhere and cancel an output-XOR key bit stacked on top,
/// which keeps the combined key unique too.
///
/// # Panics
///
/// Panics when `oracle` has fewer than `prefix_bits` inputs or no outputs.
fn point_lock(oracle: &Netlist, prefix_bits: usize, seed: u64) -> (Netlist, Vec<bool>) {
    assert!(oracle.inputs().len() >= prefix_bits && !oracle.outputs().is_empty());
    let mut rng = Rng::seed_from_u64(seed);
    let mut locked = oracle.clone();
    locked.set_name(format!("{}_pl", oracle.name()));
    let mut pool: Vec<NetId> = locked.inputs().to_vec();
    rng.shuffle(&mut pool);
    let prefix = &pool[..prefix_bits];
    let nots: Vec<NetId> = prefix
        .iter()
        .enumerate()
        .map(|(b, &n)| locked.add_cell(format!("pl_not{b}"), CellKind::Not, vec![n]))
        .collect();
    let mut key = Vec::new();
    let mut terms = Vec::new();
    for i in 0..(1usize << prefix_bits) - 1 {
        let mut guard: Vec<NetId> = (0..prefix_bits)
            .map(|b| {
                if (i >> b) & 1 == 1 {
                    prefix[b]
                } else {
                    nots[b]
                }
            })
            .collect();
        let k = locked.add_key_input(format!("pk{i}"));
        let planted = rng.gen_bool(0.5);
        key.push(planted);
        // The term fires when k differs from the planted bit.
        guard.push(if planted {
            locked.add_cell(format!("pk_inv{i}"), CellKind::Not, vec![k])
        } else {
            k
        });
        terms.push(locked.add_cell(format!("pl_term{i}"), CellKind::And, guard));
    }
    let any = locked.add_cell("pl_any", CellKind::Or, terms);
    let out0 = locked.outputs()[0].1;
    let flipped = locked.add_cell("pl_x", CellKind::Xor, vec![out0, any]);
    locked.set_output_net(0, flipped);
    (locked, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_attacks::scan_frame;
    use shell_netlist::equiv_exhaustive;

    #[test]
    fn point_lock_key_is_unique_on_a_small_frame() {
        let oracle = scan_frame(&shell_circuits::c17());
        for seed in [1, 2, 3] {
            let (point, point_key) = point_lock(&oracle, 3, seed);
            let (locked, xor_key) = xor_lock_outputs(&point, POINT_XOR_BITS);
            let planted: Vec<bool> = point_key.into_iter().chain(xor_key).collect();
            let width = locked.key_inputs().len();
            assert_eq!(width, planted.len());
            let correct: Vec<Vec<bool>> = (0..1u32 << width)
                .map(|bits| {
                    (0..width)
                        .map(|b| (bits >> b) & 1 == 1)
                        .collect::<Vec<bool>>()
                })
                .filter(|key| equiv_exhaustive(&oracle, &locked, &[], key).is_equivalent())
                .collect();
            assert_eq!(correct, vec![planted], "seed {seed}");
        }
    }

    #[test]
    fn pass_seeds_are_distinct_and_reproducible() {
        let seeds: Vec<u64> = (0..64).map(|p| pass_seed(12648430, p)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert!(seeds
            .iter()
            .all(|&s| s as f64 as u64 == s && s + 1 < 1 << 53));
        assert_eq!(pass_seed(12648430, 5), seeds[5]);
        assert_ne!(pass_seed(1, 0), pass_seed(2, 0));
    }
}
