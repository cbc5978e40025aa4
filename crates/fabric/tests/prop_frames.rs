//! Property tests of the frame-addressed bitstream
//! (`shell_util::forall` with shrinking).
//!
//! The contracts under test:
//!
//! 1. packing a flat bitstream into frames and decoding back is lossless
//!    for *arbitrary* geometries and bit patterns;
//! 2. SECDED corrects **every** single-bit codeword upset and flags
//!    **every** double-bit upset;
//! 3. a partial-reconfig diff applied to its base always reproduces the
//!    target configuration.

use shell_fabric::frame::{decode_frame, encode_frame, FRAME_TOTAL_BITS};
use shell_fabric::{Bitstream, FrameGeometry, FramedBitstream, PartialReconfig};
use shell_util::{forall, Rng};

const CASES: usize = 96;

/// An arbitrary geometry, kept small enough that a case stays cheap while
/// still crossing the interesting thresholds (bits_per_tile below /
/// exactly at / above one frame, and frames_per_tile crossing the ÷5
/// packing split).
fn geometry_of(w: u64, h: u64, bpt: u64) -> FrameGeometry {
    FrameGeometry::new(
        1 + (w % 5) as usize,
        1 + (h % 5) as usize,
        1 + (bpt % 400) as usize,
    )
}

fn random_flat(geometry: FrameGeometry, seed: u64) -> Bitstream {
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
fn prop_pack_unpack_roundtrips_any_fabric() {
    forall(
        "frames: flat → framed → flat is lossless",
        0xF3A3_0001,
        CASES,
        |rng| {
            (
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
            )
        },
        |&(w, h, bpt, seed)| {
            let geometry = geometry_of(w, h, bpt);
            let flat = random_flat(geometry, seed);
            let framed =
                FramedBitstream::pack(geometry, &flat).map_err(|e| format!("pack failed: {e}"))?;
            // Every address round-trips through its packed device code.
            for addr in geometry.addresses() {
                let code = geometry.pack(addr).map_err(|e| e.to_string())?;
                let back = geometry.unpack(code).map_err(|e| e.to_string())?;
                if back != addr {
                    return Err(format!("address {addr} repacked as {back}"));
                }
            }
            let round = framed
                .to_flat()
                .map_err(|e| format!("to_flat failed: {e}"))?;
            if round != flat {
                return Err("decoded flat bitstream differs from the original".into());
            }
            Ok(())
        },
    );
}

#[test]
fn prop_ecc_corrects_every_single_flip() {
    forall(
        "frames: SECDED corrects all 47 single-bit upsets",
        0xF3A3_0002,
        CASES,
        |rng| rng.next_u64() as u32,
        |&data| {
            let code = encode_frame(data);
            for bit in 0..FRAME_TOTAL_BITS as u32 {
                let rb = decode_frame(code ^ (1u64 << bit), 0)
                    .map_err(|e| format!("bit {bit}: decode refused a single upset: {e}"))?;
                if rb.data != data {
                    return Err(format!(
                        "bit {bit}: decoded {:#x}, expected {data:#x}",
                        rb.data
                    ));
                }
                if rb.corrected != Some(bit) {
                    return Err(format!(
                        "bit {bit}: correction witness was {:?}",
                        rb.corrected
                    ));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn prop_ecc_flags_every_double_flip() {
    forall(
        "frames: SECDED detects random double-bit upsets",
        0xF3A3_0003,
        CASES,
        |rng| {
            let a = rng.bounded(FRAME_TOTAL_BITS as u64) as u32;
            // Distinct second position, uniform over the remaining 46.
            let b =
                (a + 1 + rng.bounded(FRAME_TOTAL_BITS as u64 - 1) as u32) % FRAME_TOTAL_BITS as u32;
            (rng.next_u64() as u32, a, b)
        },
        |&(data, a, b)| {
            if a == b {
                return Err("generator produced equal positions".into());
            }
            let tampered = encode_frame(data) ^ (1u64 << a) ^ (1u64 << b);
            match decode_frame(tampered, 0) {
                Err(_) => Ok(()),
                Ok(rb) => Err(format!(
                    "double upset at {a},{b} decoded silently to {:#x} (corrected {:?})",
                    rb.data, rb.corrected
                )),
            }
        },
    );
}

#[test]
fn prop_partial_reconfig_reaches_the_target() {
    forall(
        "frames: diff(base, target) applied to base equals target",
        0xF3A3_0004,
        CASES,
        |rng| {
            (
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
            )
        },
        |&(w, h, seed_base, seed_target)| {
            let geometry = geometry_of(w, h, seed_base ^ seed_target);
            let base_flat = random_flat(geometry, seed_base);
            let target_flat = random_flat(geometry, seed_target);
            let base = FramedBitstream::pack(geometry, &base_flat).map_err(|e| e.to_string())?;
            let target =
                FramedBitstream::pack(geometry, &target_flat).map_err(|e| e.to_string())?;
            let delta = PartialReconfig::diff(&base, &target).map_err(|e| e.to_string())?;
            if delta.frames_written() > geometry.frame_count() {
                return Err("delta writes more frames than exist".into());
            }
            let mut patched = base.clone();
            delta.apply(&mut patched).map_err(|e| e.to_string())?;
            let got = patched.to_flat().map_err(|e| e.to_string())?;
            if got.as_bools() != target_flat.as_bools() {
                return Err("patched configuration differs from the target".into());
            }
            Ok(())
        },
    );
}
