//! Interchange-format integration tests: the structural-Verilog subset
//! carries real workloads across tool boundaries losslessly.

use shell_circuits::{axi_xbar, generate, Benchmark, Scale};
use shell_netlist::equiv::{equiv_random, equiv_sequential_random};
use shell_netlist::verilog::{parse_verilog, write_verilog};

/// Every benchmark survives a Verilog write/parse roundtrip functionally
/// (names are sanitized; function must be exact).
#[test]
fn benchmarks_roundtrip_through_verilog() {
    for bench in Benchmark::all() {
        let design = generate(bench, Scale::small());
        let text = write_verilog(&design);
        let parsed =
            parse_verilog(&text).unwrap_or_else(|e| panic!("{}: parse failed: {e}", bench.name()));
        assert!(
            equiv_sequential_random(&design, &parsed, &[], &[], 32, 0x1C).is_equivalent(),
            "{}: verilog roundtrip diverged",
            bench.name()
        );
        // The emitted text is parseable Verilog-looking structure.
        assert!(text.starts_with("// generated"));
        assert!(text.contains("endmodule"));
    }
}

/// A locked (keyed) design roundtrips too, preserving the key port set.
#[test]
fn locked_design_roundtrips_through_verilog() {
    use shell_lock::{shell_lock, ShellOptions};
    let design = axi_xbar(4, 1);
    let outcome = shell_lock(&design, &ShellOptions::default()).expect("flow");
    let text = write_verilog(&outcome.locked);
    let parsed = parse_verilog(&text).expect("parse locked design");
    assert_eq!(
        parsed.key_inputs().len(),
        outcome.locked.key_inputs().len(),
        "key ports preserved"
    );
    // Same function under the correct key.
    assert!(
        equiv_random(
            &design_ref(&outcome),
            &bound(&parsed, &outcome.key),
            &[],
            &[],
            256,
            9
        )
        .is_equivalent(),
        "parsed locked design must activate identically"
    );
}

fn design_ref(outcome: &shell_lock::RedactionOutcome) -> shell_netlist::Netlist {
    use shell_synth::propagate_constants_cyclic;
    propagate_constants_cyclic(&shell_fabric::shrink::bind_keys(
        &outcome.locked,
        &outcome.key,
    ))
}

fn bound(parsed: &shell_netlist::Netlist, key: &[bool]) -> shell_netlist::Netlist {
    use shell_synth::propagate_constants_cyclic;
    propagate_constants_cyclic(&shell_fabric::shrink::bind_keys(parsed, key))
}
