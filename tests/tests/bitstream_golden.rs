//! Golden-file compatibility suite for the frame-addressed bitstream.
//!
//! The `shell-frames` document is the canonical configuration artifact
//! (shell-serve caches it, the CLI exports it), so its exact bytes are a
//! contract with everything outside this workspace. Each test renders a
//! deterministic artifact for a small fabric and compares it byte-for-byte
//! against a fixture under `tests/golden/bitstream/`, then proves the
//! round trip is lossless and the SECDED protection behaves on the *frozen*
//! bytes — not just on freshly generated ones.
//!
//! `flat_v1.json` is the frozen v1 flat-format golden: it pins the
//! `from_flat`/`to_flat` migration bridge so pre-frame consumers keep
//! working.
//!
//! Regenerate after an intentional format change with
//! `UPDATE_GOLDEN=1 cargo test -p xtests --test bitstream_golden`.

use shell_fabric::{Bitstream, Fabric, FabricConfig, FrameGeometry, FramedBitstream};
use shell_util::{Json, Rng};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read fixture {}: {e}\n(regenerate with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "`{name}` drifted from its fixture — if the format change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

/// The three fabrics the suite freezes: both FABulous presets and the
/// OpenFPGA-style one, at distinct dimensions so the address packing sees
/// different region/row field widths.
fn fixture_fabrics() -> Vec<(&'static str, Fabric)> {
    vec![
        (
            "fabulous_2x2",
            Fabric::generate(FabricConfig::fabulous_style(true), 2, 2),
        ),
        (
            "fabulous_nochain_3x2",
            Fabric::generate(FabricConfig::fabulous_style(false), 3, 2),
        ),
        (
            "openfpga_2x3",
            Fabric::generate(FabricConfig::openfpga_style(), 2, 3),
        ),
    ]
}

/// A deterministic configuration pattern for `fabric`: seeded bit values
/// with a seeded subset marked load-bearing, so the goldens exercise both
/// the payload and the used mask.
fn demo_flat(fabric: &Fabric, seed: u64) -> Bitstream {
    let geometry = FrameGeometry::of(fabric);
    let mut rng = Rng::seed_from_u64(seed);
    let mut flat = Bitstream::zeros(geometry.flat_bits());
    for i in 0..flat.len() {
        let v = rng.bounded(4);
        flat.set_unused(i, v & 1 == 1);
        if v & 2 == 2 {
            flat.mark_used(i);
        }
    }
    flat
}

#[test]
fn framed_json_matches_golden_and_round_trips() {
    for (name, fabric) in fixture_fabrics() {
        let framed = FramedBitstream::from_flat(&fabric, &demo_flat(&fabric, 0xBEEF))
            .expect("demo pattern packs");
        let text = framed.to_json().to_string_pretty();
        check_golden(&format!("bitstream/{name}.frames.json"), &text);
        let parsed = Json::parse(&text).expect("fixture is valid JSON");
        let rebuilt = FramedBitstream::from_json(&parsed).expect("frames JSON loads");
        assert_eq!(
            rebuilt.to_json().to_string_pretty(),
            text,
            "{name}: frames JSON round trip must be byte-identical"
        );
        let flat = rebuilt.to_flat().expect("golden frames decode");
        assert_eq!(
            FramedBitstream::from_flat(&fabric, &flat)
                .unwrap()
                .to_json()
                .to_string_pretty(),
            text,
            "{name}: framed → flat → framed must be byte-identical"
        );
    }
}

#[test]
fn frames_text_matches_golden() {
    let fabric = Fabric::generate(FabricConfig::fabulous_style(true), 2, 2);
    let framed = FramedBitstream::from_flat(&fabric, &demo_flat(&fabric, 0xBEEF)).unwrap();
    check_golden(
        "bitstream/fabulous_2x2.frames.txt",
        &framed.to_frames_text(),
    );
}

#[test]
fn frozen_flat_v1_bridge_round_trips() {
    let fabric = Fabric::generate(FabricConfig::fabulous_style(true), 2, 2);
    let flat = demo_flat(&fabric, 0xBEEF);
    let text = flat.to_json().to_string_pretty();
    check_golden("bitstream/flat_v1.json", &text);
    // The migration bridge: v1 flat bytes → frames → v1 flat bytes, with
    // nothing lost — pre-frame consumers read exactly what they always did.
    let parsed = Json::parse(&text).expect("fixture is valid JSON");
    let v1 = Bitstream::from_json(&parsed).expect("v1 flat JSON loads");
    let framed = FramedBitstream::from_flat(&fabric, &v1).expect("v1 bitstream packs");
    let back = framed.to_flat().expect("frames decode");
    assert_eq!(
        back.to_json().to_string_pretty(),
        text,
        "flat → framed → flat must reproduce the frozen v1 bytes"
    );
}

#[test]
fn golden_artifact_corrects_single_bit_upsets() {
    for (name, fabric) in fixture_fabrics() {
        let text = std::fs::read_to_string(golden_path(&format!("bitstream/{name}.frames.json")))
            .expect("fixture exists (regenerate with UPDATE_GOLDEN=1)");
        let mut framed = FramedBitstream::from_json(&Json::parse(&text).unwrap()).unwrap();
        let addr = framed.geometry().address_at(framed.frame_count() / 2);
        let pristine = framed.readback(addr).expect("golden frame reads clean");
        assert_eq!(pristine.corrected, None);
        for bit in [0u32, 1, 17, 46] {
            framed.flip_code_bit(addr, bit).unwrap();
            let rb = fabric
                .readback_frame(&framed, addr)
                .expect("single upset must be corrected");
            assert_eq!(rb.data, pristine.data, "{name}: bit {bit} corrupted data");
            assert_eq!(rb.corrected, Some(bit), "{name}: bit {bit} not flagged");
            framed.flip_code_bit(addr, bit).unwrap(); // restore
        }
    }
}

#[test]
fn golden_artifact_detects_double_bit_upsets() {
    for (name, fabric) in fixture_fabrics() {
        let text = std::fs::read_to_string(golden_path(&format!("bitstream/{name}.frames.json")))
            .expect("fixture exists (regenerate with UPDATE_GOLDEN=1)");
        let mut framed = FramedBitstream::from_json(&Json::parse(&text).unwrap()).unwrap();
        let addr = framed.geometry().address_at(0);
        for (a, b) in [(0u32, 46u32), (3, 4), (11, 29)] {
            framed.flip_code_bit(addr, a).unwrap();
            framed.flip_code_bit(addr, b).unwrap();
            assert!(
                fabric.readback_frame(&framed, addr).is_err(),
                "{name}: double upset {a},{b} must be detected, never silently read"
            );
            framed.flip_code_bit(addr, a).unwrap();
            framed.flip_code_bit(addr, b).unwrap();
        }
    }
}
