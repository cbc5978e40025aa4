//! Integration tests of the fabric stack: locked/configured consistency,
//! shrinking semantics, and attack behavior on fabric-locked designs.

use shell_attacks::{cyclic_reduction, sat_attack, SatAttackOptions, SatAttackOutcome};
use shell_circuits::{mux_tree_circuit, ripple_adder};
use shell_fabric::shrink::{bind_keys, combinational_cycle_count};
use shell_fabric::{shrink_locked_netlist, to_configured_netlist, to_locked_netlist, FabricConfig};
use shell_netlist::equiv::{equiv_exhaustive, equiv_random};
use shell_pnr::{place_and_route, place_and_route_with_chains, PnrOptions};
use shell_synth::{lut_map, propagate_constants_cyclic};

/// The locked fabric with the correct key equals the configured fabric.
#[test]
fn locked_with_correct_key_equals_configured() {
    let design = ripple_adder(3);
    let mapped = lut_map(&design, 4).expect("acyclic").netlist;
    let result = place_and_route(
        &mapped,
        FabricConfig::fabulous_style(false),
        &PnrOptions::default(),
    )
    .expect("fits");
    let configured =
        to_configured_netlist(&result.fabric, &result.bitstream, &result.io_map).expect("ok");
    let locked = to_locked_netlist(&result.fabric, &result.io_map);
    let bound = propagate_constants_cyclic(&bind_keys(&locked, result.bitstream.as_bools()));
    assert!(equiv_exhaustive(&configured, &bound, &[], &[]).is_equivalent());
    assert!(equiv_exhaustive(&design, &bound, &[], &[]).is_equivalent());
}

/// Shrinking preserves the keyed function on the used bits.
#[test]
fn shrink_preserves_keyed_function() {
    let design = mux_tree_circuit(4, 2);
    let result = place_and_route_with_chains(
        &design,
        FabricConfig::fabulous_style(true),
        &PnrOptions::default(),
    )
    .expect("fits");
    let locked = to_locked_netlist(&result.fabric, &result.io_map);
    let shrunk = shrink_locked_netlist(&locked, &result.bitstream);
    let key: Vec<bool> = (0..result.bitstream.len())
        .filter(|&i| result.bitstream.is_used(i))
        .map(|i| result.bitstream.bit(i))
        .collect();
    assert_eq!(key.len(), shrunk.key_inputs().len());
    let activated = propagate_constants_cyclic(&bind_keys(&shrunk, &key));
    assert!(equiv_random(&design, &activated, &[], &[], 512, 3).is_equivalent());
}

/// The un-shrunk fabric mesh is cyclic; shrinking removes every cycle —
/// the step-8 security property.
#[test]
fn mesh_cycles_removed_by_shrink() {
    let design = mux_tree_circuit(4, 1);
    let result = place_and_route_with_chains(
        &design,
        FabricConfig::fabulous_style(true),
        &PnrOptions::default(),
    )
    .expect("fits");
    let locked = to_locked_netlist(&result.fabric, &result.io_map);
    assert!(
        combinational_cycle_count(&locked) > 0,
        "raw mesh must contain cycles (the §III observation)"
    );
    let shrunk = shrink_locked_netlist(&locked, &result.bitstream);
    assert_eq!(combinational_cycle_count(&shrunk), 0);
}

/// The SAT attack runs against a genuinely fabric-locked combinational
/// design end-to-end (after cyclic reduction), and either stays within
/// budget (resilient) or recovers a verified key.
#[test]
fn sat_attack_on_fabric_locked_design() {
    let design = mux_tree_circuit(2, 2); // tiny: give the attack a chance
    let result = place_and_route_with_chains(
        &design,
        FabricConfig::fabulous_style(true),
        &PnrOptions::default(),
    )
    .expect("fits");
    let locked = to_locked_netlist(&result.fabric, &result.io_map);
    let shrunk = shrink_locked_netlist(&locked, &result.bitstream);
    let attackable = if shrunk.topo_order().is_ok() {
        shrunk
    } else {
        cyclic_reduction(&shrunk).netlist
    };
    let opts = SatAttackOptions {
        max_iterations: 64,
        budget: shell_guard::Budget::unlimited().with_quota(400_000),
        ..Default::default()
    };
    match sat_attack(&attackable, &design, &opts) {
        SatAttackOutcome::Broken { key, .. } => {
            // Legitimate on this tiny instance — but the key must verify.
            assert!(
                equiv_exhaustive(&design, &attackable, &[], &key).is_equivalent(),
                "broken verdicts must carry working keys"
            );
        }
        SatAttackOutcome::Resilient { conflicts, .. } => {
            assert!(conflicts > 0, "budget must actually be consumed");
        }
        SatAttackOutcome::WrongKey { .. } => {
            // Cyclic reduction cut a live path: also a survival.
        }
    }
}

/// Baseline (unshrunk) redaction exposes the full config as key and keeps
/// the fabric's structural cycles — the attacker needs cyclic reduction.
#[test]
fn baseline_lock_is_cyclic_until_reduced() {
    let design = ripple_adder(2);
    let mapped = lut_map(&design, 4).expect("acyclic").netlist;
    let result = place_and_route(
        &mapped,
        FabricConfig::openfpga_style(),
        &PnrOptions::default(),
    )
    .expect("fits");
    let locked = to_locked_netlist(&result.fabric, &result.io_map);
    assert!(locked.topo_order().is_err(), "mesh should be cyclic");
    let reduced = cyclic_reduction(&locked);
    assert!(reduced.netlist.topo_order().is_ok());
    assert!(reduced.edges_cut > 0);
}

/// Bitstream utilization matches the paper's framing: only a fraction of
/// the configuration is load-bearing.
#[test]
fn bitstream_utilization_fractional() {
    let design = ripple_adder(3);
    let mapped = lut_map(&design, 4).expect("acyclic").netlist;
    let result = place_and_route(
        &mapped,
        FabricConfig::fabulous_style(false),
        &PnrOptions::default(),
    )
    .expect("fits");
    let u = result.bitstream.utilization();
    assert!(u > 0.0 && u < 1.0, "utilization {u}");
    assert_eq!(
        result.bitstream.used_count(),
        result.usage.config_bits,
        "usage accounting consistent"
    );
}
