//! SoC-level redaction (Fig. 3a/3c) — hide the inter-IP crossbar plus
//! neighboring core logic behind the eFPGA fabric, then show that a
//! removal attack (replacing the fabric with a plain crossbar guess) fails
//! because of the twisted LGC.
//!
//! ```text
//! cargo run -p shell-examples --example soc_redaction
//! ```

use shell_attacks::{removal_attack, RemovalOutcome};
use shell_circuits::common::cells_of_block;
use shell_circuits::{generate, Benchmark, Scale};
use shell_lock::{activate, shell_lock_cells, ShellOptions};
use shell_netlist::equiv::equiv_sequential_random;
use shell_synth::propagate_constants_cyclic;

fn main() {
    // The SoC platform: the PicoSoC-like benchmark, whose `mem_wr_route`
    // block is the memory-addressed arbitration between the CPU and its
    // memory port — the Fig. 3 crossbar.
    let soc = generate(Benchmark::PicoSoc, Scale::small());
    let targets = Benchmark::PicoSoc.redaction_targets();
    println!(
        "SoC platform: {} cells; redacting ROUTE `{}` twisted with LGC `{}`",
        soc.cell_count(),
        targets.shell_route,
        targets.shell_lgc
    );

    let mut cells = cells_of_block(&soc, targets.shell_route);
    cells.extend(cells_of_block(&soc, targets.shell_lgc));
    cells.sort_unstable();
    cells.dedup();
    let outcome = shell_lock_cells(&soc, &cells, &ShellOptions::default()).expect("SheLL flow");
    println!(
        "redacted {} cells ({} ROUTE) onto a {}x{} fabric; secret = {} bits",
        outcome.partition_cells,
        outcome.route_cells,
        outcome.fabric.width(),
        outcome.fabric.height(),
        outcome.key_bits()
    );

    // Sanity: the activated SoC behaves like the original.
    let activated = propagate_constants_cyclic(&activate(&outcome));
    assert!(
        equiv_sequential_random(&soc, &activated, &[], &[], 64, 3).is_equivalent(),
        "activation must restore the SoC"
    );
    println!("activated SoC verified against the original.");

    // Removal attack: the adversary replaces the whole redacted region with
    // a plain route-only guess — i.e. the original design *minus* the
    // twisted LGC (they guess the crossbar but cannot know the folded-in
    // core logic). Model: original with the LGC block's output forced low.
    let mut guess = soc.clone();
    for cid in cells_of_block(&soc, targets.shell_lgc) {
        // Neutralize the guessed-away LGC: rewire every reader of this
        // cell's output to a constant-0 driver.
        let zero = guess.add_cell(
            format!("removal_tie_{}", cid.index()),
            shell_netlist::CellKind::Const(false),
            vec![],
        );
        let fanout = guess.fanout_table();
        for &(reader, pin) in &fanout[guess.cell(cid).output.index()] {
            guess.rewire_input(reader, pin, zero);
        }
    }
    match removal_attack(&soc, &guess, 128) {
        RemovalOutcome::Failed { counterexample } => {
            println!(
                "removal attack FAILED (as designed): counterexample over {} inputs found",
                counterexample.len()
            );
        }
        RemovalOutcome::Succeeded => {
            println!("removal attack succeeded — the LGC twist was not load-bearing here");
        }
        RemovalOutcome::Incompatible(w) => println!("removal attack incomparable: {w}"),
    }
}
