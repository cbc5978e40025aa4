//! Determinism coverage: the hermetic-build contract is that every result
//! in this workspace is a pure function of its seed. These tests pin the
//! three artifacts the paper's evaluation hinges on — placements, synthetic
//! benchmark netlists, and programming bitstreams — as identical across
//! repeat runs with the same seed, and different under a different seed
//! where the artifact is seed-sensitive at all.

use shell_attacks::structural_mux_attack;
use shell_circuits::{axi_xbar, generate, Benchmark, Scale};
use shell_fabric::{Fabric, FabricConfig};
use shell_guard::Budget;
use shell_lock::{shell_lock, ShellOptions};
use shell_netlist::verilog::write_verilog;
use shell_netlist::{CellKind, Netlist};
use shell_pnr::place::{pack, place, PlaceRequest};
use shell_pnr::{place_and_route_with_chains, PnrOptions};
use shell_synth::lut_map;
use std::collections::{HashMap, HashSet};

/// Same seed ⇒ identical placement (sites, pads and cost) from
/// `shell_pnr::place`; different seed ⇒ a different annealing trajectory.
#[test]
fn placement_identical_for_same_seed() {
    let mapped = lut_map(&generate(Benchmark::Fir, Scale::small()), 4)
        .expect("acyclic")
        .netlist;
    let slots = pack(&mapped, 4).expect("packs");
    let tiles = slots.len().div_ceil(4).max(2);
    let side = (tiles as f64).sqrt().ceil() as usize + 1;
    let fabric = Fabric::generate(FabricConfig::fabulous_style(false), side, side);

    let (hints, chain_tiles, budget) = (HashMap::new(), HashSet::new(), Budget::unlimited());
    let place_seeded = |seed| {
        place(&PlaceRequest {
            netlist: &mapped,
            slots: &slots,
            fabric: &fabric,
            seed,
            starts: 1,
            pin_hints: &hints,
            chain_tiles: &chain_tiles,
            budget: &budget,
        })
        .expect("places")
    };
    let a = place_seeded(0xA11CE);
    let b = place_seeded(0xA11CE);
    assert_eq!(a.sites, b.sites);
    assert_eq!(a.input_pads, b.input_pads);
    assert_eq!(a.output_pads, b.output_pads);
    assert_eq!(
        a.hpwl.to_bits(),
        b.hpwl.to_bits(),
        "cost must match bitwise"
    );

    let c = place_seeded(0xB0B);
    assert_ne!(
        (a.sites, a.input_pads),
        (c.sites, c.input_pads),
        "different seeds should explore different placements"
    );
}

/// Same scale ⇒ byte-identical synthetic benchmark netlists from
/// `shell_circuits` (checked through the Verilog writer, which serializes
/// every cell, net and name).
#[test]
fn benchmark_netlists_identical_across_runs() {
    for bench in [
        Benchmark::PicoSoc,
        Benchmark::Aes,
        Benchmark::Fir,
        Benchmark::Spmv,
        Benchmark::Dla,
    ] {
        let a = write_verilog(&generate(bench, Scale::small()));
        let b = write_verilog(&generate(bench, Scale::small()));
        assert_eq!(a, b, "{bench:?} generation must be deterministic");
    }
    let a = write_verilog(&axi_xbar(4, 2));
    let b = write_verilog(&axi_xbar(4, 2));
    assert_eq!(a, b);
}

/// Same seed ⇒ identical bitstream bytes (values *and* used mask) from the
/// full pack/place/route flow of `shell_fabric`/`shell_pnr`.
#[test]
fn bitstream_bytes_identical_for_same_seed() {
    let design = axi_xbar(4, 2);
    let opts = PnrOptions::default();
    let a = place_and_route_with_chains(&design, FabricConfig::fabulous_style(true), &opts)
        .expect("maps");
    let b = place_and_route_with_chains(&design, FabricConfig::fabulous_style(true), &opts)
        .expect("maps");
    assert_eq!(a.bitstream, b.bitstream, "bitstream must be bit-identical");
    assert_eq!(a.bitstream.to_hex(), b.bitstream.to_hex());
    assert_eq!(a.bitstream.used_mask(), b.bitstream.used_mask());
    // The JSON export inherits the byte-reproducibility.
    assert_eq!(
        a.bitstream.to_json().to_string_pretty(),
        b.bitstream.to_json().to_string_pretty()
    );
    assert_eq!(
        a.fabric.to_arch_json().to_string_pretty(),
        b.fabric.to_arch_json().to_string_pretty()
    );
}

/// The parallel runtime must not leak scheduling into results: the full
/// chain flow produces byte-identical bitstreams at `jobs = 1` (pure
/// sequential fallback, no threads), `jobs = 2` and `jobs = 8`
/// (oversubscribed work-stealing) — shell-exec's index-ordered merge and
/// the router's frozen-snapshot/ordered-commit pass are what this pins.
#[test]
fn bitstream_identical_across_jobs_settings() {
    let design = axi_xbar(4, 2);
    let opts = PnrOptions::default();
    let run = || {
        place_and_route_with_chains(&design, FabricConfig::fabulous_style(true), &opts)
            .expect("maps")
    };
    let baseline = shell_exec::with_jobs(1, run);
    for jobs in [2usize, 8] {
        let parallel = shell_exec::with_jobs(jobs, run);
        assert_eq!(
            baseline.bitstream.to_hex(),
            parallel.bitstream.to_hex(),
            "bitstream bytes must not depend on jobs={jobs}"
        );
        assert_eq!(
            baseline.bitstream.used_mask(),
            parallel.bitstream.used_mask(),
            "used mask must not depend on jobs={jobs}"
        );
        assert_eq!(baseline.usage, parallel.usage);
        assert_eq!(baseline.route_iterations, parallel.route_iterations);
    }
}

/// A different PnR seed produces a different (but still valid) bitstream —
/// the knob the paper's per-seed resilience sweeps rely on.
#[test]
fn bitstream_differs_across_seeds() {
    let design = axi_xbar(4, 2);
    let mut opts = PnrOptions::default();
    let a = place_and_route_with_chains(&design, FabricConfig::fabulous_style(true), &opts)
        .expect("maps");
    opts.seed ^= 0x5EED;
    let b = place_and_route_with_chains(&design, FabricConfig::fabulous_style(true), &opts)
        .expect("maps");
    assert_ne!(
        a.bitstream.to_hex(),
        b.bitstream.to_hex(),
        "seed must steer the flow"
    );
}

/// Runs `f` at `jobs` = 1, 2 and 8 and asserts the three results agree.
fn assert_jobs_invariant<T: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> T) {
    let baseline = shell_exec::with_jobs(1, &f);
    for jobs in [2usize, 8] {
        assert_eq!(
            baseline,
            shell_exec::with_jobs(jobs, &f),
            "{what} must not depend on jobs={jobs}"
        );
    }
}

/// LUT mapping enumerates cuts level-parallel and derives cone truth
/// tables in parallel; the mapped netlist must not depend on the worker
/// count.
#[test]
fn lut_mapping_identical_across_jobs_settings() {
    let design = axi_xbar(8, 4);
    assert_jobs_invariant("lut_map", || {
        let mapped = lut_map(&design, 4).expect("acyclic");
        (
            write_verilog(&mapped.netlist),
            mapped.lut_count,
            mapped.depth,
        )
    });
}

/// The structural attack scores key muxes in parallel; its guesses must
/// not depend on the worker count.
#[test]
fn structural_attack_identical_across_jobs_settings() {
    let (locked, key) = locked_mux_design(24);
    assert_jobs_invariant("structural_mux_attack", || {
        structural_mux_attack(&locked, &key)
    });
}

/// A Fig. 1(c)-style localized mux-locked netlist: each key mux picks
/// between a real AND term and a shared decoy.
fn locked_mux_design(bits: usize) -> (Netlist, Vec<bool>) {
    let mut n = Netlist::new("mux_lock");
    let da = n.add_input("da");
    let db = n.add_input("db");
    let decoy = n.add_cell("decoy", CellKind::Xor, vec![da, db]);
    n.add_output("decoy_o", decoy);
    let mut key = Vec::new();
    for i in 0..bits {
        let a = n.add_input(format!("a{i}"));
        let b = n.add_input(format!("b{i}"));
        let t = n.add_cell(format!("t{i}"), CellKind::And, vec![a, b]);
        let k = n.add_key_input(format!("k{i}"));
        let key_bit = i % 2 == 1;
        let (p1, p2) = if key_bit { (decoy, t) } else { (t, decoy) };
        let m = n.add_cell(format!("km{i}"), CellKind::Mux2, vec![k, p1, p2]);
        let f = n.add_cell(format!("f{i}"), CellKind::Or, vec![m, a]);
        n.add_output(format!("o{i}"), f);
        key.push(key_bit);
    }
    (n, key)
}

/// Locking the same design twice in one process gives the same artifact.
/// PicoSoC's routes hold several tracks of one net at some tiles; which
/// one a pin reads must not depend on hash-map iteration order.
#[test]
fn lock_artifact_identical_within_a_process() {
    let design = generate(Benchmark::PicoSoc, Scale::small());
    let lock = || shell_lock(&design, &ShellOptions::default()).expect("locks");
    let (a, b) = (lock(), lock());
    assert_eq!(
        a.framed.to_json().to_string_pretty(),
        b.framed.to_json().to_string_pretty(),
        "framed bitstream"
    );
    assert_eq!(
        write_verilog(&a.locked),
        write_verilog(&b.locked),
        "locked netlist"
    );
}
