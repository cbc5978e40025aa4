//! Integration coverage for the extension features (coefficient tuning,
//! corruptibility, removal-attack defense).

use shell_attacks::{removal_attack, RemovalOutcome};
use shell_circuits::common::cells_of_block;
use shell_circuits::{axi_xbar, generate, Benchmark, Scale};
use shell_lock::{
    corruption_rate, optimize_coefficients, shell_lock, SelectionOptions, ShellOptions,
};

/// Tuned coefficients drive the full flow successfully.
#[test]
fn tuned_coefficients_flow_end_to_end() {
    let design = axi_xbar(4, 2);
    let (tuned, _) = optimize_coefficients(&design, 4);
    let opts = ShellOptions {
        selection: SelectionOptions {
            coefficients: tuned,
            ..Default::default()
        },
        ..Default::default()
    };
    let outcome = shell_lock(&design, &opts).expect("tuned flow maps");
    assert!(outcome.key_bits() > 0);
    let rate = corruption_rate(&design, &outcome, 4, 16);
    assert!(
        rate > 0.0,
        "tuned selection still corrupts under wrong keys"
    );
}

/// The LGC-twisting defense: stripping the folded-in logic from a guess of
/// the redacted region produces a detectable functional difference on every
/// benchmark — the removal attack fails.
#[test]
fn lgc_twist_defeats_removal_on_all_benchmarks() {
    for bench in Benchmark::all() {
        let design = generate(bench, Scale::small());
        let t = bench.redaction_targets();
        let mut guess = design.clone();
        let lgc_cells = cells_of_block(&design, t.shell_lgc);
        assert!(!lgc_cells.is_empty(), "{}", bench.name());
        for cid in lgc_cells {
            let zero = guess.add_cell(
                format!("rm_tie_{}", cid.index()),
                shell_netlist::CellKind::Const(false),
                vec![],
            );
            let fanout = guess.fanout_table();
            let out = guess.cell(cid).output;
            for &(reader, pin) in &fanout[out.index()] {
                guess.rewire_input(reader, pin, zero);
            }
            // The guessed-away block may feed primary outputs directly.
            let rebinds: Vec<usize> = guess
                .outputs()
                .iter()
                .enumerate()
                .filter(|(_, (_, n))| *n == out)
                .map(|(i, _)| i)
                .collect();
            for i in rebinds {
                guess.set_output_net(i, zero);
            }
        }
        match removal_attack(&design, &guess, 96) {
            RemovalOutcome::Failed { .. } => {}
            RemovalOutcome::Succeeded => {
                panic!("{}: the twisted LGC must be load-bearing", bench.name())
            }
            RemovalOutcome::Incompatible(w) => {
                panic!("{}: unexpected incomparability: {w}", bench.name())
            }
        }
    }
}
