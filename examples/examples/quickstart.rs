//! Quickstart — lock a small crossbar with SheLL, verify the key, and look
//! at what an attacker sees (Fig. 4 end-to-end).
//!
//! ```text
//! cargo run -p shell-examples --example quickstart
//! ```

use shell_circuits::axi_xbar;
use shell_lock::{activate, shell_lock, ShellOptions};
use shell_netlist::equiv::equiv_random;
use shell_netlist::NetlistStats;
use shell_synth::propagate_constants_cyclic;

fn main() {
    // 1. A design worth protecting: a 4-channel, 2-bit AXI-style crossbar.
    let design = axi_xbar(4, 2);
    println!("original design:\n{}", NetlistStats::of(&design));

    // 2. Run the whole SheLL pipeline: scoring, ROUTE-first selection,
    //    decoupling, MUX-chain mapping, fit loop, shrinking.
    let outcome = shell_lock(&design, &ShellOptions::default()).expect("SheLL flow");
    println!(
        "locked: {} cells, {} key bits (fabric had {} config bits before shrinking)",
        outcome.locked.cell_count(),
        outcome.key_bits(),
        outcome.key_bits_before_shrink
    );
    println!(
        "fabric: {}x{} tiles, {} redacted cells ({} ROUTE muxes), utilization {:.0}%",
        outcome.fabric.width(),
        outcome.fabric.height(),
        outcome.partition_cells,
        outcome.route_cells,
        100.0 * outcome.utilization
    );

    // 3. The correct key restores the design exactly.
    let activated = propagate_constants_cyclic(&activate(&outcome));
    let equivalent = equiv_random(&design, &activated, &[], &[], 512, 1).is_equivalent();
    println!("correct key restores the function: {equivalent}");
    assert!(equivalent);

    // 4. A wrong key does not.
    let mut wrong = outcome.key.clone();
    for bit in wrong.iter_mut().take(8) {
        *bit = !*bit;
    }
    let corrupted =
        propagate_constants_cyclic(&shell_fabric::shrink::bind_keys(&outcome.locked, &wrong));
    let still_equal = corrupted.topo_order().is_ok()
        && equiv_random(&design, &corrupted, &[], &[], 512, 2).is_equivalent();
    println!("a wrong key still works: {still_equal}");
    assert!(!still_equal);

    println!(
        "\nThe secret of the design is now the {}-bit bitstream.",
        outcome.key_bits()
    );
}
