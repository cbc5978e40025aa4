//! End-to-end integration tests spanning all workspace crates.

use shell_circuits::common::cells_of_block;
use shell_circuits::{axi_xbar, generate, Benchmark, Scale};
use shell_fabric::{to_configured_netlist, FabricConfig};
use shell_lock::{
    activate, evaluate_overhead, redact_baseline, shell_lock, BaselineCase, ShellOptions,
};
use shell_netlist::equiv::{equiv_exhaustive, equiv_random, equiv_sequential_random};
use shell_pnr::{place_and_route, place_and_route_with_chains, PnrOptions};
use shell_synth::{lut_map, propagate_constants_cyclic};

/// Generator → LUT synthesis → PnR → fabric emulation: the configured
/// fabric must implement the source circuit exactly.
#[test]
fn synth_pnr_emulation_roundtrip() {
    let design = shell_circuits::ripple_adder(4);
    let mapped = lut_map(&design, 4).expect("acyclic").netlist;
    let result = place_and_route(
        &mapped,
        FabricConfig::fabulous_style(false),
        &PnrOptions::default(),
    )
    .expect("fits");
    let configured = to_configured_netlist(&result.fabric, &result.bitstream, &result.io_map)
        .expect("configures");
    assert!(equiv_exhaustive(&design, &configured, &[], &[]).is_equivalent());
}

/// The chain flow implements a dynamic crossbar through the fabric's chain
/// blocks and still matches the oracle bit-for-bit.
#[test]
fn chain_flow_roundtrip() {
    let design = axi_xbar(4, 3);
    let result = place_and_route_with_chains(
        &design,
        FabricConfig::fabulous_style(true),
        &PnrOptions::default(),
    )
    .expect("fits");
    assert!(result.usage.chain_elements > 0);
    let configured = to_configured_netlist(&result.fabric, &result.bitstream, &result.io_map)
        .expect("configures");
    assert!(equiv_random(&design, &configured, &[], &[], 512, 77).is_equivalent());
}

/// The complete SheLL pipeline on every benchmark: lock, activate with the
/// correct key, compare against the original.
#[test]
fn shell_lock_every_benchmark() {
    for bench in Benchmark::all() {
        let design = generate(bench, Scale::small());
        let outcome = shell_lock(&design, &ShellOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
        assert!(outcome.shrunk, "{}", bench.name());
        assert!(outcome.key_bits() > 0, "{}", bench.name());
        let activated = propagate_constants_cyclic(&activate(&outcome));
        assert!(
            equiv_sequential_random(&design, &activated, &[], &[], 48, 0xE2E).is_equivalent(),
            "{}: activation diverged",
            bench.name()
        );
    }
}

/// Same-target comparison invariant behind Tables IV/V: on the SheLL
/// targets, Case 4 is cheaper than Case 1 in area and power.
#[test]
fn shell_cheaper_than_openfpga_baseline() {
    let bench = Benchmark::Spmv;
    let design = generate(bench, Scale::small());
    let cells = BaselineCase::Shell.target_cells(bench, &design);
    let opts = ShellOptions::default();
    let shell = redact_baseline(&design, &cells, BaselineCase::Shell, &opts).expect("shell");
    let open =
        redact_baseline(&design, &cells, BaselineCase::NoStrategyOpenFpga, &opts).expect("open");
    let oh_shell = evaluate_overhead(&design, &shell);
    let oh_open = evaluate_overhead(&design, &open);
    assert!(
        oh_shell.area < oh_open.area && oh_shell.power < oh_open.power,
        "SheLL {oh_shell} vs OpenFPGA {oh_open}"
    );
}

/// Shrinking collapses the key to load-bearing bits and removes the routing
/// mesh cycles (the step-8 security argument).
#[test]
fn shrink_reduces_key_and_cycles() {
    let design = axi_xbar(4, 2);
    let shrunk = shell_lock(&design, &ShellOptions::default()).expect("flow");
    let unshrunk = shell_lock(
        &design,
        &ShellOptions {
            skip_shrink: true,
            ..Default::default()
        },
    )
    .expect("flow");
    assert!(shrunk.key_bits() * 2 < unshrunk.key_bits());
    use shell_fabric::shrink::combinational_cycle_count;
    assert_eq!(combinational_cycle_count(&shrunk.locked), 0);
    assert!(combinational_cycle_count(&unshrunk.locked) > 0);
}

/// Redaction targets exist and partition cleanly on every benchmark/case.
#[test]
fn all_case_targets_partition() {
    for bench in Benchmark::all() {
        let design = generate(bench, Scale::small());
        for case in BaselineCase::all() {
            let cells = case.target_cells(bench, &design);
            assert!(!cells.is_empty(), "{} {:?}", bench.name(), case);
            let partition = shell_lock::partition_by_cells(&design, &cells);
            assert!(
                shell_lock::decouple::partition_is_sound(&design, &partition),
                "{} {:?}: partition broke the design",
                bench.name(),
                case
            );
        }
    }
}

/// The `mem_wr` named block of the PicoSoC generator really carries the
/// write-port function: forcing it changes outputs.
#[test]
fn named_blocks_are_load_bearing() {
    let design = generate(Benchmark::PicoSoc, Scale::small());
    let cells = cells_of_block(&design, "mem_wr_route");
    assert!(!cells.is_empty());
    // Removing the block from the design (tying its boundary outputs low)
    // must change behavior — i.e. the redaction hides something real.
    let partition = shell_lock::partition_by_cells(&design, &cells);
    let mut stub = shell_netlist::Netlist::new("stub");
    for i in 0..partition.boundary_inputs {
        stub.add_input(format!("hin{i}"));
    }
    let zero = stub.add_cell("z", shell_netlist::CellKind::Const(false), vec![]);
    for i in 0..partition.boundary_outputs {
        stub.add_output(format!("hout{i}"), zero);
    }
    let stubbed = partition.reassemble(stub).expect("stub fits the hole");
    assert!(
        !equiv_sequential_random(&design, &stubbed, &[], &[], 64, 5).is_equivalent(),
        "mem_wr_route must affect the SoC's behavior"
    );
}
