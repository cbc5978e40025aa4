//! Property-based tests over the fabric model, on the in-tree
//! `shell_util::forall` harness: bit-layout consistency for arbitrary
//! architectures, bitstream field roundtrips, and IO attachment uniqueness.
//!
//! Raw draws are kept in small unsigned ranges and mapped into the valid
//! parameter domain inside each property, so shrinking (which only lowers
//! values) can never leave the domain.

use shell_fabric::{Bitstream, Fabric, FabricConfig};
use shell_util::forall;

/// Maps five raw draws onto an arbitrary valid architecture.
fn config_from(k_raw: u64, luts_raw: u64, width_raw: u64, chains: bool) -> FabricConfig {
    let mut c = FabricConfig::fabulous_style(chains);
    c.lut_k = 2 + (k_raw as usize % 4); // 2..=5
    c.luts_per_clb = 1 + (luts_raw as usize % 4); // 1..=4
    c.channel_width = 4 + (width_raw as usize % 9); // 4..=12
    if chains {
        c.chain_len = 3;
    }
    c
}

/// The arithmetic offset accessors agree with the generated bit layout for
/// arbitrary architecture parameters.
#[test]
fn bit_offsets_match_layout() {
    forall(
        "bit offsets match layout",
        0xFAB_0001,
        32,
        |rng| {
            (
                (
                    rng.bounded(4),
                    rng.bounded(4),
                    rng.bounded(9),
                    rng.gen_bool(0.5),
                ),
                (rng.bounded(3), rng.bounded(3)),
            )
        },
        |&((k_raw, luts_raw, width_raw, chains), (w_raw, h_raw))| {
            let config = config_from(k_raw, luts_raw, width_raw, chains);
            let (w, h) = (1 + w_raw as usize % 3, 1 + h_raw as usize % 3);
            let fabric = Fabric::generate(config.clone(), w, h);
            if fabric.bits_per_tile() * fabric.tile_count() != fabric.config_bit_count() {
                return Err(format!(
                    "{} bits/tile x {} tiles != {} total",
                    fabric.bits_per_tile(),
                    fabric.tile_count(),
                    fabric.config_bit_count()
                ));
            }
            // Sample a few offset accessors and check the descriptor kind.
            let (base, width) = fabric.track_select_field(w - 1, h - 1, 0);
            for b in 0..width {
                match fabric.describe_bit(base + b) {
                    shell_fabric::BitInfo::TrackMuxSelect { .. } => {}
                    other => return Err(format!("wrong descriptor {other:?}")),
                }
            }
            let mask_base = fabric.lut_mask_base(0, 0, config.luts_per_clb - 1);
            match fabric.describe_bit(mask_base) {
                shell_fabric::BitInfo::LutMask { row: 0, .. } => {}
                other => return Err(format!("wrong mask descriptor {other:?}")),
            }
            if config.mux_chains {
                let (val, mode) = fabric.chain_select_bits(0, 0, config.chain_len - 1, 1);
                if mode != val + 1 {
                    return Err(format!("chain select bits: mode {mode} != val {val} + 1"));
                }
            }
            Ok(())
        },
    );
}

/// Bitstream fields roundtrip at arbitrary offsets.
#[test]
fn bitstream_fields_roundtrip() {
    forall(
        "bitstream fields roundtrip",
        0xFAB_0002,
        64,
        |rng| {
            (
                rng.bounded(504),
                rng.bounded(480),
                rng.bounded(7),
                rng.next_u64(),
            )
        },
        |&(len_raw, base_raw, width_raw, value)| {
            let len = 8 + len_raw as usize; // 8..512
            let width = 1 + width_raw as usize; // 1..8
            let base = base_raw as usize % (len - width + 1); // base + width <= len
            let mut bs = Bitstream::zeros(len);
            let masked = value & ((1u64 << width) - 1);
            bs.set_field(base, width, masked);
            if bs.field(base, width) != masked {
                return Err(format!(
                    "field({base},{width}) = {} != {masked}",
                    bs.field(base, width)
                ));
            }
            if bs.used_count() != width {
                return Err(format!("{} used bits, expected {width}", bs.used_count()));
            }
            Ok(())
        },
    );
}

/// IO attachment indices are dense, in-range and unique per (node, side).
#[test]
fn io_attachments_unique() {
    forall(
        "io attachments unique",
        0xFAB_0003,
        32,
        |rng| (rng.bounded(4), rng.bounded(4)),
        |&(w_raw, h_raw)| {
            let (w, h) = (1 + w_raw as usize, 1 + h_raw as usize); // 1..5 each
            let fabric = Fabric::generate(FabricConfig::fabulous_style(false), w, h);
            let mut seen = std::collections::HashSet::new();
            for pad in 0..fabric.io_input_count() {
                let (sig, pos) = fabric.io_input_attachment(pad);
                if pos >= 4 {
                    return Err(format!("pad {pad}: side position {pos} out of range"));
                }
                if !seen.insert((format!("{sig}"), pos)) {
                    return Err(format!("pad {pad}: duplicate attachment ({sig}, {pos})"));
                }
            }
            Ok(())
        },
    );
}

/// Exported bitstream/arch JSON roundtrips through the full PnR flow output
/// (the serde replacement is lossless on real artifacts, not just units).
#[test]
fn pnr_bitstream_json_roundtrip() {
    use shell_circuits::mux_tree_circuit;
    use shell_pnr::{place_and_route_with_chains, PnrOptions};
    use shell_util::Json;

    let design = mux_tree_circuit(4, 1);
    let result = place_and_route_with_chains(
        &design,
        FabricConfig::fabulous_style(true),
        &PnrOptions::default(),
    )
    .expect("fits");
    let text = result.bitstream.to_json().to_string_pretty();
    let back = Bitstream::from_json(&Json::parse(&text).expect("parses")).expect("imports");
    assert_eq!(back, result.bitstream);
    let arch_text = result.fabric.to_arch_json().to_string_pretty();
    let fabric_back =
        Fabric::from_arch_json(&Json::parse(&arch_text).expect("parses")).expect("imports");
    assert_eq!(fabric_back, result.fabric);
}

/// Tampering with any *used* bit of a programmed crossbar either changes
/// the function or makes the configuration unusable — no used bit is dead.
#[test]
fn used_bits_are_load_bearing_mostly() {
    use shell_circuits::mux_tree_circuit;
    use shell_fabric::to_configured_netlist;
    use shell_netlist::equiv::equiv_exhaustive;
    use shell_pnr::{place_and_route_with_chains, PnrOptions};

    let design = mux_tree_circuit(4, 1);
    let result = place_and_route_with_chains(
        &design,
        FabricConfig::fabulous_style(true),
        &PnrOptions::default(),
    )
    .expect("fits");
    let used: Vec<usize> = (0..result.bitstream.len())
        .filter(|&i| result.bitstream.is_used(i))
        .collect();
    let mut dead = 0usize;
    let sample: Vec<usize> = used.iter().step_by(7).copied().collect();
    for &bit in &sample {
        let mut tampered = result.bitstream.clone();
        tampered.set(bit, !tampered.bit(bit));
        match to_configured_netlist(&result.fabric, &tampered, &result.io_map) {
            Err(_) => {} // configured loop or similar: visibly broken
            Ok(netlist) => {
                if equiv_exhaustive(&design, &netlist, &[], &[]).is_equivalent() {
                    dead += 1;
                }
            }
        }
    }
    // Some don't-care positions exist (e.g. mask rows of unreachable input
    // combinations), but the majority of used bits must matter.
    assert!(
        dead * 2 < sample.len().max(1),
        "{dead}/{} sampled used bits were dead",
        sample.len()
    );
}
