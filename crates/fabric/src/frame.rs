//! Frame-addressed configuration format: the realistic counterpart of the
//! flat [`Bitstream`].
//!
//! Real eFPGA configuration is not one long shift register. Devices expose a
//! *frame* address space — on Xilinx XC9500 parts, for example, the address
//! packs function-block row/column fields where the column is split into a
//! ÷5 and a mod-5 part, so most bit patterns are simply not valid addresses.
//! This module reproduces that shape on top of the existing dense bit
//! layout:
//!
//! * a [`FrameAddress`] is `{region, row, col}` — region = tile row (y),
//!   row = tile column (x), col = 32-bit chunk index inside the tile. The
//!   packed 32-bit form splits `col` into `col / 5` and `col % 5` fields
//!   (XC9500 style), so packed codes with a mod-5 field of 5–7 are
//!   *invalid*, and valid addresses are non-contiguous integers;
//! * each frame carries 32 payload bits, an 8-bit CRC (poly 0x07) and a
//!   7-bit SECDED extended-Hamming code — 47 bits on the wire. Any
//!   single-bit upset anywhere in the codeword is **corrected**, any
//!   double-bit upset is **detected**, and residual corruption that slips
//!   past the Hamming layer still has to forge the CRC;
//! * [`FramedBitstream`] is the addressed artifact, bridged losslessly to
//!   the flat format via [`FramedBitstream::from_flat`] /
//!   [`FramedBitstream::to_flat`] (the v1 migration path);
//! * [`PartialReconfig`] is a frame-level diff: applying it rewrites only
//!   dirty frames and skips the rest, observable through the
//!   `bitstream.frames_written` / `bitstream.frames_skipped` counters.
//!
//! The codeword layer on its own — a single-bit upset anywhere in the
//! 47-bit frame is repaired on readback:
//!
//! ```
//! use shell_fabric::frame::{decode_frame, encode_frame};
//!
//! let code = encode_frame(0xDEAD_BEEF);
//! let upset = code ^ (1 << 7); // flip one wire bit
//! let back = decode_frame(upset, 0)?;
//! assert_eq!(back.data, 0xDEAD_BEEF);
//! assert_eq!(back.corrected, Some(7));
//! # Ok::<(), shell_fabric::frame::FrameError>(())
//! ```

use crate::bitstream::Bitstream;
use crate::export::{bools_to_hex, hex_to_bools};
use crate::fabric::Fabric;
use shell_util::Json;
use std::fmt;

/// Payload bits per frame.
pub const FRAME_DATA_BITS: usize = 32;
/// CRC bits per frame (CRC-8, polynomial 0x07, init 0).
pub const FRAME_CRC_BITS: usize = 8;
/// Protected payload: data + CRC.
pub const FRAME_PAYLOAD_BITS: usize = FRAME_DATA_BITS + FRAME_CRC_BITS;
/// SECDED bits: 6 Hamming parity bits + 1 overall parity bit.
pub const FRAME_ECC_BITS: usize = 7;
/// Total codeword width on the wire.
pub const FRAME_TOTAL_BITS: usize = FRAME_PAYLOAD_BITS + FRAME_ECC_BITS;

/// Schema version of the addressed JSON artifact (the flat
/// [`Bitstream::to_json`] schema is v1).
pub const FRAME_FORMAT_VERSION: u64 = 2;

/// Errors of the frame layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A packed address code that does not decode to any frame (gap in the
    /// non-contiguous address space, or stray high bits).
    InvalidAddress {
        /// The offending packed code.
        code: u32,
    },
    /// A structurally valid address outside this fabric's geometry.
    AddressOutOfRange {
        /// The offending address.
        addr: FrameAddress,
    },
    /// Two artifacts from different fabric geometries.
    GeometryMismatch {
        /// Geometry of the left-hand artifact.
        expected: FrameGeometry,
        /// Geometry of the right-hand artifact.
        got: FrameGeometry,
    },
    /// A flat bitstream whose length disagrees with the geometry.
    LengthMismatch {
        /// Bits demanded by the geometry.
        expected: usize,
        /// Bits in the flat bitstream.
        got: usize,
    },
    /// A codeword-bit index ≥ [`FRAME_TOTAL_BITS`].
    CodeBitOutOfRange {
        /// The offending bit index.
        bit: u32,
    },
    /// SECDED detected a double-bit upset (uncorrectable).
    DoubleBitUpset {
        /// Linear index of the failing frame.
        frame: usize,
    },
    /// The Hamming layer passed but the CRC disagrees — residual
    /// corruption beyond SECDED's guarantee.
    CrcMismatch {
        /// Linear index of the failing frame.
        frame: usize,
    },
    /// A malformed serialized artifact.
    Format(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::InvalidAddress { code } => {
                write!(
                    f,
                    "packed frame address {code:#010x} is not a valid address"
                )
            }
            FrameError::AddressOutOfRange { addr } => {
                write!(f, "frame address {addr} is outside the fabric geometry")
            }
            FrameError::GeometryMismatch { expected, got } => {
                write!(f, "frame geometry mismatch: expected {expected}, got {got}")
            }
            FrameError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "flat bitstream has {got} bits, geometry demands {expected}"
                )
            }
            FrameError::CodeBitOutOfRange { bit } => {
                write!(
                    f,
                    "codeword bit {bit} out of range (frames are {FRAME_TOTAL_BITS} bits)"
                )
            }
            FrameError::DoubleBitUpset { frame } => {
                write!(
                    f,
                    "double-bit upset detected in frame {frame} (uncorrectable)"
                )
            }
            FrameError::CrcMismatch { frame } => {
                write!(f, "CRC mismatch in frame {frame} after ECC decode")
            }
            FrameError::Format(msg) => write!(f, "malformed frame artifact: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One frame address: `{region, row, col}`.
///
/// `region` is the tile row (y), `row` the tile column (x) and `col` the
/// frame index inside the tile — deliberately mirroring device-style
/// addressing rather than the software (x, y) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameAddress {
    /// Tile row (y coordinate).
    pub region: usize,
    /// Tile column (x coordinate).
    pub row: usize,
    /// Frame index within the tile.
    pub col: usize,
}

impl fmt::Display for FrameAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}.{}.c{}", self.region, self.row, self.col)
    }
}

/// Smallest bit width that can hold every value in `0..=max`.
fn width_for(max: usize) -> u32 {
    (usize::BITS - max.leading_zeros()).max(1)
}

/// The frame address space of one fabric: grid dimensions plus bits per
/// tile, from which frame count and packed-address field widths derive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameGeometry {
    width: usize,
    height: usize,
    bits_per_tile: usize,
}

impl fmt::Display for FrameGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}b", self.width, self.height, self.bits_per_tile)
    }
}

impl FrameGeometry {
    /// Geometry from explicit dimensions.
    ///
    /// # Panics
    ///
    /// Panics on a zero dimension or zero bits per tile.
    pub fn new(width: usize, height: usize, bits_per_tile: usize) -> Self {
        assert!(
            width > 0 && height > 0 && bits_per_tile > 0,
            "frame geometry dimensions must be positive"
        );
        Self {
            width,
            height,
            bits_per_tile,
        }
    }

    /// The geometry of a generated fabric.
    pub fn of(fabric: &Fabric) -> Self {
        Self::new(fabric.width(), fabric.height(), fabric.bits_per_tile())
    }

    /// Grid width in tiles.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in tiles.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Configuration bits per tile.
    pub fn bits_per_tile(&self) -> usize {
        self.bits_per_tile
    }

    /// Frames per tile: the last frame of a tile is zero-padded when
    /// `bits_per_tile` is not a multiple of [`FRAME_DATA_BITS`].
    pub fn frames_per_tile(&self) -> usize {
        self.bits_per_tile.div_ceil(FRAME_DATA_BITS)
    }

    /// Total frames of the fabric.
    pub fn frame_count(&self) -> usize {
        self.width * self.height * self.frames_per_tile()
    }

    /// Total flat configuration bits.
    pub fn flat_bits(&self) -> usize {
        self.width * self.height * self.bits_per_tile
    }

    /// Width of the packed `col / 5` field.
    fn col_hi_bits(&self) -> u32 {
        width_for((self.frames_per_tile() - 1) / 5)
    }

    /// Width of the packed `row` field.
    fn row_bits(&self) -> u32 {
        width_for(self.width - 1)
    }

    /// Bits of a packed address (for documentation/debugging).
    pub fn packed_bits(&self) -> u32 {
        3 + self.col_hi_bits() + self.row_bits() + width_for(self.height - 1)
    }

    /// Linear frame index of `addr` in canonical `(region, row, col)`
    /// order — identical to ascending packed-code order.
    ///
    /// # Errors
    ///
    /// [`FrameError::AddressOutOfRange`] when `addr` is outside the grid.
    pub fn frame_index(&self, addr: FrameAddress) -> Result<usize, FrameError> {
        self.check(addr)?;
        Ok((addr.region * self.width + addr.row) * self.frames_per_tile() + addr.col)
    }

    /// Inverse of [`frame_index`](Self::frame_index).
    ///
    /// # Panics
    ///
    /// Panics when `index` ≥ [`frame_count`](Self::frame_count).
    pub fn address_at(&self, index: usize) -> FrameAddress {
        assert!(index < self.frame_count(), "frame index out of range");
        let fpt = self.frames_per_tile();
        let tile = index / fpt;
        FrameAddress {
            region: tile / self.width,
            row: tile % self.width,
            col: index % fpt,
        }
    }

    /// All valid addresses in canonical order.
    pub fn addresses(&self) -> impl Iterator<Item = FrameAddress> + '_ {
        (0..self.frame_count()).map(|i| self.address_at(i))
    }

    fn check(&self, addr: FrameAddress) -> Result<(), FrameError> {
        if addr.region >= self.height
            || addr.row >= self.width
            || addr.col >= self.frames_per_tile()
        {
            return Err(FrameError::AddressOutOfRange { addr });
        }
        Ok(())
    }

    /// Packs `addr` into its 32-bit device code. The `col` coordinate is
    /// split XC9500-style into a mod-5 field (3 bits, values 5–7 invalid)
    /// and a ÷5 field, so the valid codes are non-contiguous.
    ///
    /// # Errors
    ///
    /// [`FrameError::AddressOutOfRange`] when `addr` is outside the grid.
    pub fn pack(&self, addr: FrameAddress) -> Result<u32, FrameError> {
        self.check(addr)?;
        let col_shift = 3 + self.col_hi_bits();
        let region_shift = col_shift + self.row_bits();
        Ok((addr.col % 5) as u32
            | (((addr.col / 5) as u32) << 3)
            | ((addr.row as u32) << col_shift)
            | ((addr.region as u32) << region_shift))
    }

    /// Unpacks a device code, rejecting the gaps of the address space.
    ///
    /// # Errors
    ///
    /// [`FrameError::InvalidAddress`] when the mod-5 field is 5–7, a field
    /// exceeds its coordinate range, or high bits are set beyond the
    /// region field.
    pub fn unpack(&self, code: u32) -> Result<FrameAddress, FrameError> {
        let invalid = FrameError::InvalidAddress { code };
        let col_lo = (code & 0x7) as usize;
        if col_lo >= 5 {
            return Err(invalid);
        }
        let col_hi_bits = self.col_hi_bits();
        let col_hi = ((code >> 3) & ((1 << col_hi_bits) - 1)) as usize;
        let col = col_hi * 5 + col_lo;
        let row_shift = 3 + col_hi_bits;
        let row = ((code >> row_shift) & ((1 << self.row_bits()) - 1)) as usize;
        // Everything above the row field is the region; stray high bits
        // make the region check fail.
        let region = (code >> (row_shift + self.row_bits())) as usize;
        let addr = FrameAddress { region, row, col };
        self.check(addr).map_err(|_| invalid.clone())?;
        Ok(addr)
    }

    /// The flat-bitstream range `[start, end)` holding `addr`'s payload.
    /// `end - start < 32` on a tile's zero-padded final frame.
    ///
    /// # Errors
    ///
    /// [`FrameError::AddressOutOfRange`] when `addr` is outside the grid.
    pub fn bit_range(&self, addr: FrameAddress) -> Result<(usize, usize), FrameError> {
        self.check(addr)?;
        let tile_base = (addr.region * self.width + addr.row) * self.bits_per_tile;
        let start = tile_base + addr.col * FRAME_DATA_BITS;
        let end = (start + FRAME_DATA_BITS).min(tile_base + self.bits_per_tile);
        Ok((start, end))
    }
}

// ---------------------------------------------------------------------------
// Frame codec: CRC-8 + SECDED extended Hamming over 47-bit codewords
// ---------------------------------------------------------------------------

/// CRC-8 (polynomial 0x07, init 0) over the 32 data bits, fed as four
/// LSB-first bytes.
pub fn frame_crc(data: u32) -> u8 {
    let mut crc = 0u8;
    for byte in 0..4 {
        crc ^= (data >> (8 * byte)) as u8;
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// The 40 codeword positions carrying payload: 1..=46 minus the powers of
/// two (which hold Hamming parity). Position 0 holds the overall parity.
fn payload_positions() -> impl Iterator<Item = u32> {
    (1..=46u32).filter(|p| !p.is_power_of_two())
}

/// Encodes 32 data bits into a 47-bit SECDED codeword (bits 0..47 of the
/// returned word): data + CRC spread over the non-power-of-two positions,
/// Hamming parity at positions 1, 2, 4, 8, 16, 32, overall parity at
/// position 0.
pub fn encode_frame(data: u32) -> u64 {
    let payload = data as u64 | ((frame_crc(data) as u64) << FRAME_DATA_BITS);
    let mut code = 0u64;
    for (k, p) in payload_positions().enumerate() {
        if (payload >> k) & 1 == 1 {
            code |= 1u64 << p;
        }
    }
    // Hamming parity: bit 2^i covers every position with bit i set, so
    // after setting it the covered XOR (the syndrome contribution) is zero.
    for i in 0..6u32 {
        let mask = 1u32 << i;
        let mut parity = 0u64;
        for p in 1..=46u32 {
            if p & mask != 0 {
                parity ^= (code >> p) & 1;
            }
        }
        code |= parity << mask;
    }
    // Overall parity (position 0): make the 47-bit codeword even-weight,
    // which is what lets the decoder tell single upsets (odd) from
    // doubles (even).
    code | (code.count_ones() as u64 & 1)
}

/// Result of decoding one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameReadback {
    /// The 32 decoded data bits.
    pub data: u32,
    /// Codeword position corrected by SECDED, when a single-bit upset was
    /// repaired (position 0 = the overall parity bit itself).
    pub corrected: Option<u32>,
}

/// Decodes a 47-bit codeword: corrects any single-bit upset, reports
/// double-bit upsets, and cross-checks the CRC.
///
/// `frame` is only used to label errors.
///
/// # Errors
///
/// [`FrameError::DoubleBitUpset`] on an even-weight non-zero syndrome,
/// [`FrameError::CrcMismatch`] when the Hamming layer passes but the CRC
/// disagrees.
pub fn decode_frame(code: u64, frame: usize) -> Result<FrameReadback, FrameError> {
    let code = code & ((1u64 << FRAME_TOTAL_BITS) - 1);
    let mut syndrome = 0u32;
    for p in 1..=46u32 {
        if (code >> p) & 1 == 1 {
            syndrome ^= p;
        }
    }
    let parity_even = code.count_ones().is_multiple_of(2);
    let mut fixed = code;
    let corrected = match (syndrome, parity_even) {
        (0, true) => None,
        // Odd overall parity: exactly one bit flipped, at position
        // `syndrome` (0 means the overall parity bit itself).
        (pos, false) => {
            fixed ^= 1u64 << pos;
            Some(pos)
        }
        // Non-zero syndrome with intact overall parity: an even number of
        // flips — report the SECDED-guaranteed case.
        (_, true) => return Err(FrameError::DoubleBitUpset { frame }),
    };
    let mut payload = 0u64;
    for (k, p) in payload_positions().enumerate() {
        payload |= ((fixed >> p) & 1) << k;
    }
    let data = payload as u32;
    let crc = (payload >> FRAME_DATA_BITS) as u8;
    if frame_crc(data) != crc {
        return Err(FrameError::CrcMismatch { frame });
    }
    Ok(FrameReadback { data, corrected })
}

// ---------------------------------------------------------------------------
// The addressed artifact
// ---------------------------------------------------------------------------

/// Codeword hex: 12 LSB-first nibbles (the repo-wide hex convention).
fn code_to_hex(code: u64) -> String {
    (0..FRAME_TOTAL_BITS.div_ceil(4))
        .map(|n| char::from_digit(((code >> (4 * n)) & 0xF) as u32, 16).expect("nibble"))
        .collect()
}

fn hex_to_code(hex: &str) -> Result<u64, FrameError> {
    let nibbles = FRAME_TOTAL_BITS.div_ceil(4);
    if hex.len() != nibbles {
        return Err(FrameError::Format(format!(
            "frame code has {} nibbles, expected {nibbles}",
            hex.len()
        )));
    }
    let mut code = 0u64;
    for (n, c) in hex.chars().enumerate() {
        let v = c
            .to_digit(16)
            .ok_or_else(|| FrameError::Format(format!("non-hex character `{c}` in frame code")))?;
        code |= (v as u64) << (4 * n);
    }
    if code >> FRAME_TOTAL_BITS != 0 {
        return Err(FrameError::Format("frame code has bits beyond 47".into()));
    }
    Ok(code)
}

/// A frame-addressed configuration artifact: one encoded codeword per
/// valid address, plus the flat used mask (carried for the v1 bridge and
/// utilization reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramedBitstream {
    geometry: FrameGeometry,
    /// One codeword per frame, canonical address order.
    frames: Vec<u64>,
    /// Flat used mask, `geometry.flat_bits()` long.
    used: Vec<bool>,
}

impl FramedBitstream {
    /// Packs a flat bitstream into frames under an explicit geometry.
    ///
    /// # Errors
    ///
    /// [`FrameError::LengthMismatch`] when `flat` and the geometry
    /// disagree.
    pub fn pack(geometry: FrameGeometry, flat: &Bitstream) -> Result<Self, FrameError> {
        if flat.len() != geometry.flat_bits() {
            return Err(FrameError::LengthMismatch {
                expected: geometry.flat_bits(),
                got: flat.len(),
            });
        }
        let bits = flat.as_bools();
        let mut frames = Vec::with_capacity(geometry.frame_count());
        for addr in geometry.addresses() {
            let (start, end) = geometry.bit_range(addr)?;
            let mut data = 0u32;
            for (k, &b) in bits[start..end].iter().enumerate() {
                data |= (b as u32) << k;
            }
            frames.push(encode_frame(data));
        }
        Ok(Self {
            geometry,
            frames,
            used: flat.used_mask().to_vec(),
        })
    }

    /// Packs the flat bitstream of `fabric` — the canonical migration
    /// entry point (`v1 flat → v2 addressed`).
    ///
    /// # Errors
    ///
    /// [`FrameError::LengthMismatch`] when `flat` does not belong to
    /// `fabric`.
    pub fn from_flat(fabric: &Fabric, flat: &Bitstream) -> Result<Self, FrameError> {
        Self::pack(FrameGeometry::of(fabric), flat)
    }

    /// Decodes every frame back into the flat v1 format, applying ECC
    /// correction along the way.
    ///
    /// # Errors
    ///
    /// Propagates the first [`FrameError::DoubleBitUpset`] /
    /// [`FrameError::CrcMismatch`].
    pub fn to_flat(&self) -> Result<Bitstream, FrameError> {
        let mut flat = Bitstream::zeros(self.geometry.flat_bits());
        for (i, addr) in self.geometry.addresses().enumerate() {
            let rb = decode_frame(self.frames[i], i)?;
            let (start, end) = self.geometry.bit_range(addr)?;
            for k in 0..end - start {
                flat.set_unused(start + k, (rb.data >> k) & 1 == 1);
            }
        }
        for (i, &u) in self.used.iter().enumerate() {
            if u {
                flat.mark_used(i);
            }
        }
        Ok(flat)
    }

    /// The address space of this artifact.
    pub fn geometry(&self) -> &FrameGeometry {
        &self.geometry
    }

    /// Number of frames.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// The flat used mask.
    pub fn used_mask(&self) -> &[bool] {
        &self.used
    }

    /// Raw codeword of one frame (no decoding).
    ///
    /// # Errors
    ///
    /// [`FrameError::AddressOutOfRange`].
    pub fn frame_code(&self, addr: FrameAddress) -> Result<u64, FrameError> {
        Ok(self.frames[self.geometry.frame_index(addr)?])
    }

    /// One raw codeword bit — what a stuck-at fault sees.
    ///
    /// # Errors
    ///
    /// [`FrameError::AddressOutOfRange`] / [`FrameError::CodeBitOutOfRange`].
    pub fn code_bit(&self, addr: FrameAddress, bit: u32) -> Result<bool, FrameError> {
        if bit as usize >= FRAME_TOTAL_BITS {
            return Err(FrameError::CodeBitOutOfRange { bit });
        }
        Ok((self.frame_code(addr)? >> bit) & 1 == 1)
    }

    /// Flips one raw codeword bit — the tamper/upset primitive. The
    /// artifact stores the flipped codeword verbatim; the fault only
    /// surfaces at [`readback`](Self::readback) / [`to_flat`](Self::to_flat).
    ///
    /// # Errors
    ///
    /// [`FrameError::AddressOutOfRange`] / [`FrameError::CodeBitOutOfRange`].
    pub fn flip_code_bit(&mut self, addr: FrameAddress, bit: u32) -> Result<(), FrameError> {
        if bit as usize >= FRAME_TOTAL_BITS {
            return Err(FrameError::CodeBitOutOfRange { bit });
        }
        let i = self.geometry.frame_index(addr)?;
        self.frames[i] ^= 1u64 << bit;
        Ok(())
    }

    /// Reads one frame back through the ECC/CRC decoder. Bumps the
    /// `bitstream.frames_corrected` counter when SECDED repaired an upset.
    ///
    /// # Errors
    ///
    /// [`FrameError::DoubleBitUpset`] / [`FrameError::CrcMismatch`] /
    /// [`FrameError::AddressOutOfRange`].
    pub fn readback(&self, addr: FrameAddress) -> Result<FrameReadback, FrameError> {
        let i = self.geometry.frame_index(addr)?;
        let rb = decode_frame(self.frames[i], i)?;
        if rb.corrected.is_some() {
            shell_trace::counter_add("bitstream.frames_corrected", 1);
        }
        Ok(rb)
    }

    /// Re-encodes one frame with new payload data. Returns whether the
    /// codeword changed; bumps `bitstream.frames_written` when it did.
    ///
    /// # Errors
    ///
    /// [`FrameError::AddressOutOfRange`].
    pub fn write_frame(&mut self, addr: FrameAddress, data: u32) -> Result<bool, FrameError> {
        let i = self.geometry.frame_index(addr)?;
        let code = encode_frame(data);
        let changed = self.frames[i] != code;
        self.frames[i] = code;
        if changed {
            shell_trace::counter_add("bitstream.frames_written", 1);
        }
        Ok(changed)
    }

    /// Exports the addressed artifact. Frames carry their packed device
    /// address and the raw codeword, so tampered frames serialize
    /// verbatim (corruption survives a cache round trip and is caught at
    /// readback, not silently healed by re-encoding).
    pub fn to_json(&self) -> Json {
        let frames = self
            .geometry
            .addresses()
            .enumerate()
            .map(|(i, addr)| {
                Json::obj([
                    (
                        "addr",
                        Json::from(self.geometry.pack(addr).expect("valid address") as u64),
                    ),
                    ("code", Json::from(code_to_hex(self.frames[i]))),
                ])
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("format", Json::from("shell-frames")),
            ("version", Json::from(FRAME_FORMAT_VERSION)),
            ("width", Json::from(self.geometry.width)),
            ("height", Json::from(self.geometry.height)),
            ("bits_per_tile", Json::from(self.geometry.bits_per_tile)),
            ("data_bits", Json::from(FRAME_DATA_BITS)),
            ("crc_bits", Json::from(FRAME_CRC_BITS)),
            ("ecc_bits", Json::from(FRAME_ECC_BITS)),
            ("frames", Json::arr(frames)),
            ("used", Json::from(bools_to_hex(&self.used))),
        ])
    }

    /// Imports [`to_json`](Self::to_json) output. Codewords are *not*
    /// decoded here — a corrupted artifact parses fine and fails at
    /// readback, which is what the cache-eviction path relies on.
    ///
    /// # Errors
    ///
    /// [`FrameError::Format`] on schema violations, including frames out
    /// of canonical address order.
    pub fn from_json(json: &Json) -> Result<Self, FrameError> {
        let err = |msg: String| FrameError::Format(msg);
        let field = |k: &str| {
            json.get(k)
                .ok_or_else(|| err(format!("missing field `{k}`")))
        };
        let usize_field = |k: &str| {
            field(k)?
                .as_usize()
                .ok_or_else(|| err(format!("field `{k}` is not a non-negative integer")))
        };
        match field("format")?.as_str() {
            Some("shell-frames") => {}
            other => return Err(err(format!("format tag {other:?} is not `shell-frames`"))),
        }
        match field("version")?.as_u64() {
            Some(FRAME_FORMAT_VERSION) => {}
            other => {
                return Err(err(format!(
                    "unsupported frame format version {other:?} (expected {FRAME_FORMAT_VERSION})"
                )))
            }
        }
        for (k, expected) in [
            ("data_bits", FRAME_DATA_BITS),
            ("crc_bits", FRAME_CRC_BITS),
            ("ecc_bits", FRAME_ECC_BITS),
        ] {
            if usize_field(k)? != expected {
                return Err(err(format!(
                    "field `{k}` disagrees with this codec ({expected})"
                )));
            }
        }
        let (w, h, bpt) = (
            usize_field("width")?,
            usize_field("height")?,
            usize_field("bits_per_tile")?,
        );
        if w == 0 || h == 0 || bpt == 0 {
            return Err(err("zero geometry dimension".into()));
        }
        let geometry = FrameGeometry::new(w, h, bpt);
        let frames_json = match field("frames")? {
            Json::Arr(items) => items,
            _ => return Err(err("field `frames` is not an array".into())),
        };
        if frames_json.len() != geometry.frame_count() {
            return Err(err(format!(
                "{} frames, geometry demands {}",
                frames_json.len(),
                geometry.frame_count()
            )));
        }
        let mut frames = Vec::with_capacity(frames_json.len());
        for (i, item) in frames_json.iter().enumerate() {
            let code = item
                .get("addr")
                .and_then(Json::as_u64)
                .ok_or_else(|| err(format!("frame {i}: missing/ill-typed `addr`")))?;
            let code = u32::try_from(code)
                .map_err(|_| err(format!("frame {i}: address does not fit in 32 bits")))?;
            let addr = geometry
                .unpack(code)
                .map_err(|e| err(format!("frame {i}: {e}")))?;
            let expected = geometry.address_at(i);
            if addr != expected {
                return Err(err(format!(
                    "frame {i}: address {addr} out of canonical order (expected {expected})"
                )));
            }
            let hex = item
                .get("code")
                .and_then(Json::as_str)
                .ok_or_else(|| err(format!("frame {i}: missing/ill-typed `code`")))?;
            frames.push(hex_to_code(hex)?);
        }
        let used_hex = field("used")?
            .as_str()
            .ok_or_else(|| err("field `used` is not a string".into()))?;
        let used = hex_to_bools(used_hex, geometry.flat_bits()).map_err(FrameError::Format)?;
        Ok(Self {
            geometry,
            frames,
            used,
        })
    }

    /// Packed-frames text dump: a header line plus one
    /// `<packed-addr-hex> <codeword-hex>` line per frame. This is the
    /// golden-file format pinning the device address packing itself.
    pub fn to_frames_text(&self) -> String {
        let mut out = format!(
            "# shell-frames v{FRAME_FORMAT_VERSION} {} frames_per_tile={} packed_bits={}\n",
            self.geometry,
            self.geometry.frames_per_tile(),
            self.geometry.packed_bits(),
        );
        for (i, addr) in self.geometry.addresses().enumerate() {
            let code = self.geometry.pack(addr).expect("valid address");
            out.push_str(&format!("{code:08x} {}\n", code_to_hex(self.frames[i])));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Partial reconfiguration
// ---------------------------------------------------------------------------

/// A frame-level delta: the dirty frames (packed address + new codeword)
/// needed to turn one artifact into another of the same geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialReconfig {
    geometry: FrameGeometry,
    /// `(packed address, codeword)`, ascending address order.
    writes: Vec<(u32, u64)>,
}

impl PartialReconfig {
    /// Diffs two artifacts of the same geometry.
    ///
    /// # Errors
    ///
    /// [`FrameError::GeometryMismatch`].
    pub fn diff(base: &FramedBitstream, target: &FramedBitstream) -> Result<Self, FrameError> {
        if base.geometry != target.geometry {
            return Err(FrameError::GeometryMismatch {
                expected: base.geometry,
                got: target.geometry,
            });
        }
        let mut writes = Vec::new();
        for (i, addr) in base.geometry.addresses().enumerate() {
            if base.frames[i] != target.frames[i] {
                writes.push((base.geometry.pack(addr)?, target.frames[i]));
            }
        }
        Ok(Self {
            geometry: base.geometry,
            writes,
        })
    }

    /// The delta's address space.
    pub fn geometry(&self) -> &FrameGeometry {
        &self.geometry
    }

    /// Number of dirty frames this delta writes.
    pub fn frames_written(&self) -> usize {
        self.writes.len()
    }

    /// `true` when base and target were identical.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Applies the delta: rewrites exactly the dirty frames, skipping the
    /// rest. Bumps `bitstream.frames_written` by the dirty count and
    /// `bitstream.frames_skipped` by the rest — the observable partial
    /// reconfig win. Returns the frames written.
    ///
    /// Note the used mask is *not* part of the frame address space — a
    /// delta transfers configuration, not provenance — so callers tracking
    /// used-bit provenance across a reconfig must transfer it separately.
    ///
    /// # Errors
    ///
    /// [`FrameError::GeometryMismatch`] / [`FrameError::InvalidAddress`].
    pub fn apply(&self, base: &mut FramedBitstream) -> Result<usize, FrameError> {
        if self.geometry != base.geometry {
            return Err(FrameError::GeometryMismatch {
                expected: self.geometry,
                got: base.geometry,
            });
        }
        for &(code, frame) in &self.writes {
            let addr = self.geometry.unpack(code)?;
            let i = self.geometry.frame_index(addr)?;
            base.frames[i] = frame;
        }
        let written = self.writes.len() as u64;
        shell_trace::counter_add("bitstream.frames_written", written);
        shell_trace::counter_add(
            "bitstream.frames_skipped",
            self.geometry.frame_count() as u64 - written,
        );
        Ok(self.writes.len())
    }

    /// Exports the delta (same conventions as
    /// [`FramedBitstream::to_json`]).
    pub fn to_json(&self) -> Json {
        let writes = self
            .writes
            .iter()
            .map(|&(addr, code)| {
                Json::obj([
                    ("addr", Json::from(addr as u64)),
                    ("code", Json::from(code_to_hex(code))),
                ])
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("format", Json::from("shell-reconfig")),
            ("version", Json::from(FRAME_FORMAT_VERSION)),
            ("width", Json::from(self.geometry.width)),
            ("height", Json::from(self.geometry.height)),
            ("bits_per_tile", Json::from(self.geometry.bits_per_tile)),
            ("writes", Json::arr(writes)),
        ])
    }

    /// Imports [`to_json`](Self::to_json) output.
    ///
    /// # Errors
    ///
    /// [`FrameError::Format`] on schema violations; every address must be
    /// valid and strictly ascending.
    pub fn from_json(json: &Json) -> Result<Self, FrameError> {
        let err = |msg: String| FrameError::Format(msg);
        let field = |k: &str| {
            json.get(k)
                .ok_or_else(|| err(format!("missing field `{k}`")))
        };
        let usize_field = |k: &str| {
            field(k)?
                .as_usize()
                .ok_or_else(|| err(format!("field `{k}` is not a non-negative integer")))
        };
        match field("format")?.as_str() {
            Some("shell-reconfig") => {}
            other => return Err(err(format!("format tag {other:?} is not `shell-reconfig`"))),
        }
        match field("version")?.as_u64() {
            Some(FRAME_FORMAT_VERSION) => {}
            other => {
                return Err(err(format!(
                    "unsupported reconfig version {other:?} (expected {FRAME_FORMAT_VERSION})"
                )))
            }
        }
        let (w, h, bpt) = (
            usize_field("width")?,
            usize_field("height")?,
            usize_field("bits_per_tile")?,
        );
        if w == 0 || h == 0 || bpt == 0 {
            return Err(err("zero geometry dimension".into()));
        }
        let geometry = FrameGeometry::new(w, h, bpt);
        let writes_json = match field("writes")? {
            Json::Arr(items) => items,
            _ => return Err(err("field `writes` is not an array".into())),
        };
        let mut writes = Vec::with_capacity(writes_json.len());
        let mut last: Option<u32> = None;
        for (i, item) in writes_json.iter().enumerate() {
            let addr = item
                .get("addr")
                .and_then(Json::as_u64)
                .ok_or_else(|| err(format!("write {i}: missing/ill-typed `addr`")))?;
            let addr = u32::try_from(addr)
                .map_err(|_| err(format!("write {i}: address does not fit in 32 bits")))?;
            geometry
                .unpack(addr)
                .map_err(|e| err(format!("write {i}: {e}")))?;
            if last.is_some_and(|prev| prev >= addr) {
                return Err(err(format!(
                    "write {i}: addresses must be strictly ascending"
                )));
            }
            last = Some(addr);
            let hex = item
                .get("code")
                .and_then(Json::as_str)
                .ok_or_else(|| err(format!("write {i}: missing/ill-typed `code`")))?;
            writes.push((addr, hex_to_code(hex)?));
        }
        Ok(Self { geometry, writes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::FabricConfig;

    fn demo_flat(geometry: FrameGeometry, seed: u64) -> Bitstream {
        let mut rng = shell_util::Rng::seed_from_u64(seed);
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
    fn codec_constants_are_consistent() {
        // 40 payload positions must exist between the parity positions.
        assert_eq!(payload_positions().count(), FRAME_PAYLOAD_BITS);
        assert_eq!(FRAME_TOTAL_BITS, 47);
    }

    #[test]
    fn encode_decode_roundtrip() {
        for data in [0u32, 1, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x8000_0001] {
            let code = encode_frame(data);
            assert_eq!(code >> FRAME_TOTAL_BITS, 0, "codeword fits 47 bits");
            assert_eq!(code.count_ones() % 2, 0, "even overall parity");
            let rb = decode_frame(code, 0).unwrap();
            assert_eq!(rb.data, data);
            assert_eq!(rb.corrected, None);
        }
    }

    #[test]
    fn every_single_bit_upset_is_corrected() {
        let data = 0xC0FF_EE42u32;
        let code = encode_frame(data);
        for bit in 0..FRAME_TOTAL_BITS as u32 {
            let rb = decode_frame(code ^ (1u64 << bit), 7).unwrap();
            assert_eq!(rb.data, data, "bit {bit}");
            assert_eq!(rb.corrected, Some(bit), "bit {bit}");
        }
    }

    #[test]
    fn every_double_bit_upset_is_detected() {
        let code = encode_frame(0x1234_5678);
        for a in 0..FRAME_TOTAL_BITS as u32 {
            for b in (a + 1)..FRAME_TOTAL_BITS as u32 {
                let tampered = code ^ (1u64 << a) ^ (1u64 << b);
                assert_eq!(
                    decode_frame(tampered, 3),
                    Err(FrameError::DoubleBitUpset { frame: 3 }),
                    "bits {a},{b}"
                );
            }
        }
    }

    #[test]
    fn address_space_is_non_contiguous() {
        let fabric = Fabric::generate(FabricConfig::fabulous_style(true), 2, 2);
        let geometry = FrameGeometry::of(&fabric);
        assert!(
            geometry.frames_per_tile() > 5,
            "need a ÷5 split to see gaps"
        );
        // col 4 → col_lo 4; col 5 → col_lo 0, col_hi 1: the packed codes
        // jump over the invalid col_lo values 5–7.
        let a4 = geometry
            .pack(FrameAddress {
                region: 0,
                row: 0,
                col: 4,
            })
            .unwrap();
        let a5 = geometry
            .pack(FrameAddress {
                region: 0,
                row: 0,
                col: 5,
            })
            .unwrap();
        assert!(
            a5 > a4 + 1,
            "gap between col 4 ({a4:#x}) and col 5 ({a5:#x})"
        );
        for gap in a4 + 1..a5 {
            assert_eq!(
                geometry.unpack(gap),
                Err(FrameError::InvalidAddress { code: gap }),
                "code {gap:#x} sits in an address gap"
            );
        }
    }

    #[test]
    fn pack_unpack_roundtrip_and_order() {
        let geometry = FrameGeometry::new(3, 2, 296);
        let mut prev = None;
        for (i, addr) in geometry.addresses().enumerate() {
            let code = geometry.pack(addr).unwrap();
            assert_eq!(geometry.unpack(code).unwrap(), addr);
            assert_eq!(geometry.frame_index(addr).unwrap(), i);
            assert_eq!(geometry.address_at(i), addr);
            if let Some(p) = prev {
                assert!(code > p, "packed codes ascend with canonical order");
            }
            prev = Some(code);
        }
        // Stray high bits are invalid, not silently masked.
        let top = geometry
            .pack(geometry.address_at(geometry.frame_count() - 1))
            .unwrap();
        assert!(geometry.unpack(top | 1 << 31).is_err());
    }

    #[test]
    fn flat_roundtrip_preserves_bits_and_used_mask() {
        for (config, w, h) in [
            (FabricConfig::fabulous_style(true), 2, 2),
            (FabricConfig::fabulous_style(false), 3, 2),
            (FabricConfig::openfpga_style(), 2, 2),
        ] {
            let fabric = Fabric::generate(config, w, h);
            let geometry = FrameGeometry::of(&fabric);
            let flat = demo_flat(geometry, 0xF00D + w as u64);
            let framed = FramedBitstream::from_flat(&fabric, &flat).unwrap();
            assert_eq!(framed.frame_count(), geometry.frame_count());
            assert_eq!(framed.to_flat().unwrap(), flat);
        }
    }

    #[test]
    fn wrong_length_flat_is_rejected() {
        let fabric = Fabric::generate(FabricConfig::fabulous_style(false), 2, 2);
        let flat = Bitstream::zeros(fabric.config_bit_count() + 1);
        assert!(matches!(
            FramedBitstream::from_flat(&fabric, &flat),
            Err(FrameError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn readback_corrects_tamper_and_detects_doubles() {
        let fabric = Fabric::generate(FabricConfig::fabulous_style(true), 2, 2);
        let flat = demo_flat(FrameGeometry::of(&fabric), 0xBEEF);
        let pristine = FramedBitstream::from_flat(&fabric, &flat).unwrap();
        let addr = FrameAddress {
            region: 1,
            row: 0,
            col: 3,
        };
        let clean = pristine.readback(addr).unwrap();

        let mut upset = pristine.clone();
        upset.flip_code_bit(addr, 11).unwrap();
        let rb = upset.readback(addr).unwrap();
        assert_eq!(rb.data, clean.data);
        assert_eq!(rb.corrected, Some(11));
        // The artifact keeps the raw upset; to_flat still heals it.
        assert_eq!(upset.to_flat().unwrap(), flat);

        upset.flip_code_bit(addr, 30).unwrap();
        assert!(matches!(
            upset.readback(addr),
            Err(FrameError::DoubleBitUpset { .. })
        ));
        assert!(upset.to_flat().is_err());
    }

    #[test]
    fn json_roundtrip_preserves_tamper() {
        let fabric = Fabric::generate(FabricConfig::fabulous_style(false), 2, 3);
        let flat = demo_flat(FrameGeometry::of(&fabric), 0xA11CE);
        let mut framed = FramedBitstream::from_flat(&fabric, &flat).unwrap();
        framed
            .flip_code_bit(
                FrameAddress {
                    region: 2,
                    row: 1,
                    col: 0,
                },
                5,
            )
            .unwrap();
        let json = framed.to_json();
        let back =
            FramedBitstream::from_json(&Json::parse(&json.to_string_pretty()).unwrap()).unwrap();
        assert_eq!(
            back, framed,
            "tampered codewords must survive serialization"
        );
    }

    #[test]
    fn json_import_rejects_schema_violations() {
        let fabric = Fabric::generate(FabricConfig::fabulous_style(false), 2, 2);
        let flat = demo_flat(FrameGeometry::of(&fabric), 1);
        let framed = FramedBitstream::from_flat(&fabric, &flat).unwrap();
        let good = framed.to_json();

        let mutate = |key: &str, value: Json| {
            let mut json = good.clone();
            if let Json::Obj(pairs) = &mut json {
                for (k, v) in pairs.iter_mut() {
                    if k == key {
                        *v = value.clone();
                    }
                }
            }
            FramedBitstream::from_json(&json)
        };
        assert!(mutate("format", Json::from("other")).is_err());
        assert!(mutate("version", Json::from(99u64)).is_err());
        assert!(mutate("data_bits", Json::from(16usize)).is_err());
        assert!(mutate("frames", Json::arr(vec![])).is_err());
        assert!(mutate("used", Json::from("0")).is_err());
    }

    #[test]
    fn partial_reconfig_writes_only_dirty_frames() {
        let fabric = Fabric::generate(FabricConfig::fabulous_style(true), 2, 2);
        let geometry = FrameGeometry::of(&fabric);
        let base_flat = demo_flat(geometry, 10);
        let mut target_flat = base_flat.clone();
        // Dirty exactly one frame: flip a bit in tile (0,0), chunk 2.
        let (start, _) = geometry
            .bit_range(FrameAddress {
                region: 0,
                row: 0,
                col: 2,
            })
            .unwrap();
        target_flat.set_unused(start, !target_flat.bit(start));

        let base = FramedBitstream::from_flat(&fabric, &base_flat).unwrap();
        let target = FramedBitstream::from_flat(&fabric, &target_flat).unwrap();
        let delta = PartialReconfig::diff(&base, &target).unwrap();
        assert_eq!(delta.frames_written(), 1);
        assert!(delta.frames_written() < geometry.frame_count());

        let mut patched = base.clone();
        assert_eq!(delta.apply(&mut patched).unwrap(), 1);
        assert_eq!(
            patched.to_flat().unwrap().as_bools(),
            target_flat.as_bools()
        );

        // Empty delta.
        let none = PartialReconfig::diff(&base, &base).unwrap();
        assert!(none.is_empty());

        // JSON round trip.
        let back =
            PartialReconfig::from_json(&Json::parse(&delta.to_json().to_string_pretty()).unwrap())
                .unwrap();
        assert_eq!(back, delta);
    }

    #[test]
    fn geometry_mismatch_is_typed() {
        let a = Fabric::generate(FabricConfig::fabulous_style(false), 2, 2);
        let b = Fabric::generate(FabricConfig::fabulous_style(false), 3, 2);
        let fa = FramedBitstream::from_flat(&a, &demo_flat(FrameGeometry::of(&a), 1)).unwrap();
        let fb = FramedBitstream::from_flat(&b, &demo_flat(FrameGeometry::of(&b), 2)).unwrap();
        assert!(matches!(
            PartialReconfig::diff(&fa, &fb),
            Err(FrameError::GeometryMismatch { .. })
        ));
        let delta = PartialReconfig::diff(&fb, &fb).unwrap();
        let mut fa3 = fa;
        assert!(matches!(
            delta.apply(&mut fa3),
            Err(FrameError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn write_full_vs_partial_frame_counts() {
        // Two unrelated bitstreams: the delta rewrites exactly the frames
        // whose codewords differ, never more than a full write's
        // `frame_count`, and leaves the device holding the target.
        let fabric = Fabric::generate(FabricConfig::fabulous_style(false), 2, 2);
        let geometry = FrameGeometry::of(&fabric);
        let base = FramedBitstream::from_flat(&fabric, &demo_flat(geometry, 3)).unwrap();
        let target = FramedBitstream::from_flat(&fabric, &demo_flat(geometry, 4)).unwrap();
        let differing = geometry
            .addresses()
            .filter(|&a| base.frame_code(a).unwrap() != target.frame_code(a).unwrap())
            .count();
        assert!(differing > 1 && differing <= geometry.frame_count());
        let mut device = base.clone();
        let delta = PartialReconfig::diff(&device, &target).unwrap();
        assert_eq!(delta.apply(&mut device).unwrap(), differing);
        assert_eq!(
            device.to_flat().unwrap().as_bools(),
            target.to_flat().unwrap().as_bools()
        );
    }

    #[test]
    fn frames_text_is_stable_shaped() {
        let fabric = Fabric::generate(FabricConfig::fabulous_style(false), 2, 2);
        let framed =
            FramedBitstream::from_flat(&fabric, &demo_flat(FrameGeometry::of(&fabric), 9)).unwrap();
        let text = framed.to_frames_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("# shell-frames v2 "));
        assert_eq!(lines.len(), 1 + framed.frame_count());
        for line in &lines[1..] {
            let (addr, code) = line.split_once(' ').expect("two columns");
            assert_eq!(addr.len(), 8);
            assert_eq!(code.len(), 12);
        }
    }
}
