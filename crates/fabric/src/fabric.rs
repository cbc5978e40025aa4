//! The concrete island-style fabric: tiles, tracks, CLBs, chains, IO and the
//! configuration-bit layout.
//!
//! Topology (per tile `(x, y)`, `0 ≤ x < width`, `0 ≤ y < height`):
//!
//! * `channel_width` **local tracks**. Track `t` is driven by a programmable
//!   switch mux whose inputs are, in order: the same-index track of the
//!   west/east/south/north neighbor (or the corresponding boundary IO input
//!   pin when the neighbor does not exist), every CLB output of this tile,
//!   and — when chains are enabled — the chain block output.
//! * one **CLB** with `luts_per_clb` k-LUTs. Each LUT input pin has a
//!   connection mux over the tile's local tracks; each LUT has `2^k`
//!   configuration bits, a companion DFF and a bypass mux (config bit
//!   selects combinational or registered output).
//! * optionally one **chain block** of `chain_len` MUX4 elements. Element
//!   `j` takes the previous element's output (element 0 takes track 0) plus
//!   three tile tracks as data inputs; each of its two select pins is
//!   either a configuration bit or a dynamic track signal, chosen by a
//!   per-pin mode bit — this is what lets SheLL map *dynamic* crossbar
//!   muxes (AXI address selects) onto fabric chains.
//! * **IO**: at each boundary crossing a track would exit the grid, the
//!   fabric exposes an input pin (feeding the would-be neighbor input of
//!   the boundary track mux) and an output pin (reading the boundary
//!   track).
//!
//! Combinational cycles are possible through track muxes by construction —
//! deliberately so: §III points out that raw eFPGA wiring adds cyclical
//! blocks, which SheLL's shrinking step later removes.

use crate::arch::FabricConfig;
use std::fmt;

/// A signal source inside the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalRef {
    /// Local track `t` of tile `(x, y)`.
    Track {
        /// Tile x.
        x: usize,
        /// Tile y.
        y: usize,
        /// Track index.
        t: usize,
    },
    /// Output of LUT/FF slot `i` in the CLB of tile `(x, y)`.
    ClbOut {
        /// Tile x.
        x: usize,
        /// Tile y.
        y: usize,
        /// LUT slot.
        i: usize,
    },
    /// Output of chain element `j` in tile `(x, y)`.
    ChainOut {
        /// Tile x.
        x: usize,
        /// Tile y.
        y: usize,
        /// Chain element.
        j: usize,
    },
    /// Fabric input pad `idx` (see [`Fabric::io_input_count`]).
    IoIn(usize),
}

impl fmt::Display for SignalRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignalRef::Track { x, y, t } => write!(f, "track[{x},{y},{t}]"),
            SignalRef::ClbOut { x, y, i } => write!(f, "clb[{x},{y}].out{i}"),
            SignalRef::ChainOut { x, y, j } => write!(f, "chain[{x},{y}].el{j}"),
            SignalRef::IoIn(i) => write!(f, "io_in[{i}]"),
        }
    }
}

/// What a configuration bit controls (for reports and debugging).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitInfo {
    /// Select bit `bit` of the switch mux driving a track.
    TrackMuxSelect {
        /// Tile x.
        x: usize,
        /// Tile y.
        y: usize,
        /// Track index.
        t: usize,
        /// Which select bit of the encoded mux.
        bit: usize,
    },
    /// Select bit of the connection mux feeding LUT `lut` input pin `pin`.
    ClbInputSelect {
        /// Tile x.
        x: usize,
        /// Tile y.
        y: usize,
        /// LUT slot.
        lut: usize,
        /// LUT input pin.
        pin: usize,
        /// Select bit index.
        bit: usize,
    },
    /// Truth-table bit `row` of LUT `lut`.
    LutMask {
        /// Tile x.
        x: usize,
        /// Tile y.
        y: usize,
        /// LUT slot.
        lut: usize,
        /// Truth table row.
        row: usize,
    },
    /// FF-bypass select of LUT slot `lut` (0 = combinational, 1 = registered).
    FfBypass {
        /// Tile x.
        x: usize,
        /// Tile y.
        y: usize,
        /// LUT slot.
        lut: usize,
    },
    /// Connection-mux select bit of chain element `j`'s data pin `pin`
    /// (pin 0 exists only for element 0; later elements hard-wire pin 0 to
    /// the previous element).
    ChainDataSelect {
        /// Tile x.
        x: usize,
        /// Tile y.
        y: usize,
        /// Chain element.
        j: usize,
        /// Data pin (0..4).
        pin: usize,
        /// Select bit index.
        bit: usize,
    },
    /// Connection-mux select bit of chain element `j`'s select pin `pin`
    /// (source of the *dynamic* select signal).
    ChainSelConn {
        /// Tile x.
        x: usize,
        /// Tile y.
        y: usize,
        /// Chain element.
        j: usize,
        /// Select pin (0 or 1).
        pin: usize,
        /// Select bit index.
        bit: usize,
    },
    /// Chain element select: `value` bits and `dynamic` mode flags.
    ChainSelect {
        /// Tile x.
        x: usize,
        /// Tile y.
        y: usize,
        /// Chain element.
        j: usize,
        /// Select pin (0 or 1).
        pin: usize,
        /// `true` for the mode flag (config-vs-dynamic), `false` for the
        /// config value bit.
        mode_flag: bool,
    },
}

/// A generated fabric instance: an architecture plus concrete dimensions and
/// a fixed configuration-bit layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Fabric {
    config: FabricConfig,
    width: usize,
    height: usize,
    /// Flat descriptions of every configuration bit, index = bit position.
    bit_layout: Vec<BitInfo>,
}

impl Fabric {
    /// Generates a fabric of `width` × `height` tiles.
    ///
    /// When the architecture demands a square fabric (OpenFPGA style), both
    /// dimensions are rounded up to `max(width, height)` — reproducing the
    /// utilization loss of Fig. 2.
    ///
    /// ```
    /// use shell_fabric::{Fabric, FabricConfig};
    ///
    /// let demand_shaped = Fabric::generate(FabricConfig::fabulous_style(false), 2, 5);
    /// assert_eq!((demand_shaped.width(), demand_shaped.height()), (2, 5));
    /// let square = Fabric::generate(FabricConfig::openfpga_style(), 2, 5);
    /// assert_eq!((square.width(), square.height()), (5, 5));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on a zero dimension or an invalid [`FabricConfig`].
    pub fn generate(config: FabricConfig, width: usize, height: usize) -> Self {
        assert!(
            width > 0 && height > 0,
            "fabric dimensions must be positive"
        );
        config.validate().expect("invalid fabric config");
        let (width, height) = if config.square_fabric {
            let side = width.max(height);
            (side, side)
        } else {
            (width, height)
        };
        let mut bit_layout = Vec::new();
        for y in 0..height {
            for x in 0..width {
                // Track switch muxes.
                let n_inputs = Self::track_mux_input_count(&config);
                let sel_bits = FabricConfig::mux_select_bits(n_inputs);
                for t in 0..config.channel_width {
                    for bit in 0..sel_bits {
                        bit_layout.push(BitInfo::TrackMuxSelect { x, y, t, bit });
                    }
                }
                // CLB input connection muxes.
                let in_sel = FabricConfig::mux_select_bits(config.channel_width);
                for lut in 0..config.luts_per_clb {
                    for pin in 0..config.lut_k {
                        for bit in 0..in_sel {
                            bit_layout.push(BitInfo::ClbInputSelect {
                                x,
                                y,
                                lut,
                                pin,
                                bit,
                            });
                        }
                    }
                    for row in 0..config.bits_per_lut() {
                        bit_layout.push(BitInfo::LutMask { x, y, lut, row });
                    }
                    bit_layout.push(BitInfo::FfBypass { x, y, lut });
                }
                // Chain block. Per element: connection muxes for the data
                // pins (pin 0 only on element 0 — later elements hard-wire
                // pin 0 to the previous element), then per select pin a
                // connection mux plus a value bit and a mode bit.
                if config.mux_chains {
                    for j in 0..config.chain_len {
                        let first_pin = if j == 0 { 0 } else { 1 };
                        for pin in first_pin..4 {
                            for bit in 0..in_sel {
                                bit_layout.push(BitInfo::ChainDataSelect { x, y, j, pin, bit });
                            }
                        }
                        for pin in 0..2 {
                            for bit in 0..in_sel {
                                bit_layout.push(BitInfo::ChainSelConn { x, y, j, pin, bit });
                            }
                            bit_layout.push(BitInfo::ChainSelect {
                                x,
                                y,
                                j,
                                pin,
                                mode_flag: false,
                            });
                            bit_layout.push(BitInfo::ChainSelect {
                                x,
                                y,
                                j,
                                pin,
                                mode_flag: true,
                            });
                        }
                    }
                }
            }
        }
        Self {
            config,
            width,
            height,
            bit_layout,
        }
    }

    /// The architecture of this fabric.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Grid width in tiles.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in tiles.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total tiles.
    pub fn tile_count(&self) -> usize {
        self.width * self.height
    }

    /// Total LUT sites.
    pub fn lut_sites(&self) -> usize {
        self.tile_count() * self.config.luts_per_clb
    }

    /// Total chain elements.
    pub fn chain_elements(&self) -> usize {
        if self.config.mux_chains {
            self.tile_count() * self.config.chain_len
        } else {
            0
        }
    }

    /// Number of configuration bits.
    pub fn config_bit_count(&self) -> usize {
        self.bit_layout.len()
    }

    /// Description of configuration bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn describe_bit(&self, i: usize) -> &BitInfo {
        &self.bit_layout[i]
    }

    /// Full bit layout (index = configuration bit position).
    pub fn bit_layout(&self) -> &[BitInfo] {
        &self.bit_layout
    }

    /// Position of the first bit matching `info`, used by tests and the
    /// bitstream encoder.
    pub fn find_bit(&self, info: &BitInfo) -> Option<usize> {
        self.bit_layout.iter().position(|b| b == info)
    }

    // ------------------------------------------------------------------
    // Configuration-bit offsets (mirror the layout built in `generate`)
    // ------------------------------------------------------------------

    /// Select width of a track switch mux.
    pub fn track_select_width(&self) -> usize {
        FabricConfig::mux_select_bits(Self::track_mux_input_count(&self.config))
    }

    /// Select width of a CLB input connection mux.
    pub fn clb_input_select_width(&self) -> usize {
        FabricConfig::mux_select_bits(self.config.channel_width)
    }

    /// Configuration bits of chain element `j` (data connection muxes, two
    /// select-pin connection muxes, value and mode bits).
    pub fn chain_bits_per_element(&self, j: usize) -> usize {
        let conn = self.clb_input_select_width();
        let data_pins = if j == 0 { 4 } else { 3 };
        data_pins * conn + 2 * (conn + 2)
    }

    /// Configuration bits of one whole chain block.
    pub fn chain_bits_per_block(&self) -> usize {
        if !self.config.mux_chains {
            return 0;
        }
        (0..self.config.chain_len)
            .map(|j| self.chain_bits_per_element(j))
            .sum()
    }

    /// Configuration bits per tile.
    pub fn bits_per_tile(&self) -> usize {
        let c = &self.config;
        c.channel_width * self.track_select_width()
            + c.luts_per_clb * (c.lut_k * self.clb_input_select_width() + c.bits_per_lut() + 1)
            + self.chain_bits_per_block()
    }

    fn tile_base(&self, x: usize, y: usize) -> usize {
        (y * self.width + x) * self.bits_per_tile()
    }

    /// `(base, width)` of the select field of track `t`'s switch mux.
    pub fn track_select_field(&self, x: usize, y: usize, t: usize) -> (usize, usize) {
        let w = self.track_select_width();
        (self.tile_base(x, y) + t * w, w)
    }

    fn lut_block_base(&self, x: usize, y: usize, lut: usize) -> usize {
        let c = &self.config;
        self.tile_base(x, y)
            + c.channel_width * self.track_select_width()
            + lut * (c.lut_k * self.clb_input_select_width() + c.bits_per_lut() + 1)
    }

    /// `(base, width)` of the connection-mux select of LUT `lut` pin `pin`.
    pub fn clb_input_field(&self, x: usize, y: usize, lut: usize, pin: usize) -> (usize, usize) {
        let w = self.clb_input_select_width();
        (self.lut_block_base(x, y, lut) + pin * w, w)
    }

    /// First truth-table bit of LUT `lut` (rows follow consecutively).
    pub fn lut_mask_base(&self, x: usize, y: usize, lut: usize) -> usize {
        self.lut_block_base(x, y, lut) + self.config.lut_k * self.clb_input_select_width()
    }

    /// Position of the FF-bypass bit of LUT slot `lut`.
    pub fn ff_bypass_bit(&self, x: usize, y: usize, lut: usize) -> usize {
        self.lut_mask_base(x, y, lut) + self.config.bits_per_lut()
    }

    fn chain_element_base(&self, x: usize, y: usize, j: usize) -> usize {
        assert!(self.config.mux_chains, "fabric has no chain blocks");
        let c = &self.config;
        let chains_base = self.tile_base(x, y)
            + c.channel_width * self.track_select_width()
            + c.luts_per_clb * (c.lut_k * self.clb_input_select_width() + c.bits_per_lut() + 1);
        chains_base
            + (0..j)
                .map(|e| self.chain_bits_per_element(e))
                .sum::<usize>()
    }

    /// `(base, width)` of the connection-mux select for chain element `j`'s
    /// data pin `pin`.
    ///
    /// # Panics
    ///
    /// Panics when the fabric has no chains, or when `pin == 0` on an
    /// element other than 0 (those pins are hard-wired to the previous
    /// element).
    pub fn chain_data_field(&self, x: usize, y: usize, j: usize, pin: usize) -> (usize, usize) {
        assert!(pin < 4, "chain elements have 4 data pins");
        assert!(
            pin > 0 || j == 0,
            "data pin 0 is hard-wired on elements after the first"
        );
        let conn = self.clb_input_select_width();
        let base = self.chain_element_base(x, y, j);
        let pin_slot = if j == 0 { pin } else { pin - 1 };
        (base + pin_slot * conn, conn)
    }

    /// `(base, width)` of the connection mux sourcing the *dynamic* select
    /// of chain element `j`'s select pin `pin`.
    pub fn chain_sel_conn_field(&self, x: usize, y: usize, j: usize, pin: usize) -> (usize, usize) {
        assert!(pin < 2, "chain elements have 2 select pins");
        let conn = self.clb_input_select_width();
        let data_pins = if j == 0 { 4 } else { 3 };
        let base = self.chain_element_base(x, y, j) + data_pins * conn + pin * (conn + 2);
        (base, conn)
    }

    /// `(value_bit, mode_bit)` of chain element `j`'s select pin `pin`.
    ///
    /// # Panics
    ///
    /// Panics when the fabric has no chains.
    pub fn chain_select_bits(&self, x: usize, y: usize, j: usize, pin: usize) -> (usize, usize) {
        let (conn_base, conn) = self.chain_sel_conn_field(x, y, j, pin);
        (conn_base + conn, conn_base + conn + 1)
    }

    // ------------------------------------------------------------------
    // Frame addressing
    // ------------------------------------------------------------------

    /// The frame address space of this fabric (see [`crate::frame`]).
    pub fn frame_geometry(&self) -> crate::frame::FrameGeometry {
        crate::frame::FrameGeometry::of(self)
    }

    /// Reads one configuration frame back through the ECC/CRC decoder —
    /// the device-style readback path.
    ///
    /// # Errors
    ///
    /// [`crate::frame::FrameError::GeometryMismatch`] when `framed` was
    /// packed for a different fabric, otherwise whatever
    /// [`crate::frame::FramedBitstream::readback`] reports.
    pub fn readback_frame(
        &self,
        framed: &crate::frame::FramedBitstream,
        addr: crate::frame::FrameAddress,
    ) -> Result<crate::frame::FrameReadback, crate::frame::FrameError> {
        let expected = self.frame_geometry();
        if *framed.geometry() != expected {
            return Err(crate::frame::FrameError::GeometryMismatch {
                expected,
                got: *framed.geometry(),
            });
        }
        framed.readback(addr)
    }

    // ------------------------------------------------------------------
    // Topology
    // ------------------------------------------------------------------

    /// Number of inputs of every track switch mux.
    pub fn track_mux_input_count(config: &FabricConfig) -> usize {
        4 + config.luts_per_clb + usize::from(config.mux_chains)
    }

    /// Ordered input list of the switch mux driving `track[t]` of tile
    /// `(x, y)`: `[west, east, south, north, clb_out*, chain_out?]`.
    ///
    /// Horizontal connections keep the track index; vertical connections
    /// *rotate* it: track `t` reads track `t - 1` (mod channel width) of
    /// both the south and the north neighbor, so **every vertical hop
    /// increments the track index**. A north-south wiggle therefore shifts
    /// a signal by two tracks — unlike a uniform shear (where `t - y` would
    /// be path-invariant), this permutation lets a signal reach any track
    /// index with a short detour, which keeps the fabric routable with
    /// same-index horizontal wiring.
    ///
    /// Boundary directions resolve to [`SignalRef::IoIn`] pads.
    ///
    /// # Panics
    ///
    /// Panics when the coordinates are out of range.
    pub fn track_mux_inputs(&self, x: usize, y: usize, t: usize) -> Vec<SignalRef> {
        assert!(x < self.width && y < self.height && t < self.config.channel_width);
        let w = self.config.channel_width;
        let mut ins = Vec::with_capacity(Self::track_mux_input_count(&self.config));
        // West neighbor's track (or west-edge IO pad).
        ins.push(if x > 0 {
            SignalRef::Track { x: x - 1, y, t }
        } else {
            SignalRef::IoIn(self.io_in_index(Side::West, y, t))
        });
        ins.push(if x + 1 < self.width {
            SignalRef::Track { x: x + 1, y, t }
        } else {
            SignalRef::IoIn(self.io_in_index(Side::East, y, t))
        });
        ins.push(if y > 0 {
            SignalRef::Track {
                x,
                y: y - 1,
                t: (t + w - 1) % w,
            }
        } else {
            SignalRef::IoIn(self.io_in_index(Side::South, x, t))
        });
        ins.push(if y + 1 < self.height {
            SignalRef::Track {
                x,
                y: y + 1,
                t: (t + w - 1) % w,
            }
        } else {
            SignalRef::IoIn(self.io_in_index(Side::North, x, t))
        });
        for i in 0..self.config.luts_per_clb {
            ins.push(SignalRef::ClbOut { x, y, i });
        }
        if self.config.mux_chains {
            ins.push(SignalRef::ChainOut {
                x,
                y,
                j: self.config.chain_len - 1,
            });
        }
        ins
    }

    /// Whether data pin `pin` of chain element `j` has a connection mux
    /// (`true`) or is hard-wired to the previous element (`false`).
    pub fn chain_pin_is_muxed(&self, j: usize, pin: usize) -> bool {
        assert!(pin < 4);
        pin > 0 || j == 0
    }

    // ------------------------------------------------------------------
    // IO
    // ------------------------------------------------------------------

    /// Number of fabric input pads: one per boundary track crossing.
    pub fn io_input_count(&self) -> usize {
        2 * self.config.channel_width * (self.width + self.height)
    }

    /// Number of fabric output pads (same positions, reading boundary
    /// tracks).
    pub fn io_output_count(&self) -> usize {
        self.io_input_count()
    }

    fn io_in_index(&self, side: Side, pos: usize, t: usize) -> usize {
        let w = self.config.channel_width;
        match side {
            Side::West => pos * w + t,
            Side::East => self.height * w + pos * w + t,
            Side::South => 2 * self.height * w + pos * w + t,
            Side::North => 2 * self.height * w + self.width * w + pos * w + t,
        }
    }

    /// The boundary tile and track whose switch mux consumes input pad
    /// `idx`, plus the mux input position (0 = west, 1 = east, 2 = south,
    /// 3 = north) the pad appears at.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn io_input_attachment(&self, idx: usize) -> (SignalRef, usize) {
        let w = self.config.channel_width;
        let hw = self.height * w;
        let ww = self.width * w;
        assert!(idx < self.io_input_count(), "io pad out of range");
        if idx < hw {
            // West edge of column 0.
            (
                SignalRef::Track {
                    x: 0,
                    y: idx / w,
                    t: idx % w,
                },
                0,
            )
        } else if idx < 2 * hw {
            let r = idx - hw;
            (
                SignalRef::Track {
                    x: self.width - 1,
                    y: r / w,
                    t: r % w,
                },
                1,
            )
        } else if idx < 2 * hw + ww {
            let r = idx - 2 * hw;
            (
                SignalRef::Track {
                    x: r / w,
                    y: 0,
                    t: r % w,
                },
                2,
            )
        } else {
            let r = idx - 2 * hw - ww;
            (
                SignalRef::Track {
                    x: r / w,
                    y: self.height - 1,
                    t: r % w,
                },
                3,
            )
        }
    }

    /// The boundary track read by output pad `idx`.
    ///
    /// Output pads mirror input pads: pad `idx` reads the boundary track
    /// whose switch mux would consume input pad `idx`.
    pub fn io_output_source(&self, idx: usize) -> SignalRef {
        self.io_input_attachment(idx).0
    }
}

#[derive(Debug, Clone, Copy)]
enum Side {
    West,
    East,
    South,
    North,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Fabric {
        Fabric::generate(FabricConfig::fabulous_style(true), 2, 2)
    }

    #[test]
    fn dimensions_and_sites() {
        let f = small();
        assert_eq!(f.tile_count(), 4);
        assert_eq!(f.lut_sites(), 16);
        assert_eq!(f.chain_elements(), 16);
        assert_eq!(f.width(), 2);
        assert_eq!(f.height(), 2);
    }

    #[test]
    fn openfpga_forces_square() {
        let f = Fabric::generate(FabricConfig::openfpga_style(), 2, 5);
        assert_eq!(f.width(), 5);
        assert_eq!(f.height(), 5);
        let g = Fabric::generate(FabricConfig::fabulous_style(false), 2, 5);
        assert_eq!(g.width(), 2);
        assert_eq!(g.height(), 5);
    }

    #[test]
    fn bit_layout_is_dense_and_described() {
        let f = small();
        let n = f.config_bit_count();
        assert!(n > 0);
        for i in 0..n {
            let _ = f.describe_bit(i); // must not panic
        }
        assert_eq!(f.bit_layout().len(), n);
    }

    #[test]
    fn bit_count_formula() {
        let cfg = FabricConfig::fabulous_style(true);
        let f = Fabric::generate(cfg.clone(), 2, 2);
        let track_sel = FabricConfig::mux_select_bits(Fabric::track_mux_input_count(&cfg));
        let conn = FabricConfig::mux_select_bits(cfg.channel_width);
        // Chain block: element 0 has 4 muxed data pins, the rest 3; every
        // element has two select pins (conn mux + value + mode bits).
        let chain_bits: usize = (0..cfg.chain_len)
            .map(|j| (if j == 0 { 4 } else { 3 }) * conn + 2 * (conn + 2))
            .sum();
        let per_tile = cfg.channel_width * track_sel
            + cfg.luts_per_clb * (cfg.lut_k * conn + cfg.bits_per_lut() + 1)
            + chain_bits;
        assert_eq!(f.config_bit_count(), 4 * per_tile);
        assert_eq!(f.bits_per_tile(), per_tile);
    }

    #[test]
    fn track_mux_inputs_order_and_boundaries() {
        let f = small();
        let ins = f.track_mux_inputs(0, 0, 3);
        assert_eq!(ins.len(), Fabric::track_mux_input_count(f.config()));
        // West & south of tile (0,0) are IO pads.
        assert!(matches!(ins[0], SignalRef::IoIn(_)));
        assert!(matches!(ins[1], SignalRef::Track { x: 1, y: 0, t: 3 }));
        assert!(matches!(ins[2], SignalRef::IoIn(_)));
        // The north input reads the neighbor's track t-1 (every vertical
        // hop increments the index).
        assert!(matches!(ins[3], SignalRef::Track { x: 0, y: 1, t: 2 }));
        assert!(matches!(ins[4], SignalRef::ClbOut { i: 0, .. }));
        assert!(matches!(ins.last(), Some(SignalRef::ChainOut { .. })));
    }

    #[test]
    fn interior_tile_has_no_io_inputs() {
        let f = Fabric::generate(FabricConfig::fabulous_style(false), 3, 3);
        let ins = f.track_mux_inputs(1, 1, 0);
        assert!(ins.iter().all(|s| !matches!(s, SignalRef::IoIn(_))));
    }

    #[test]
    fn chain_pin_muxing_rules() {
        let f = small();
        assert!(f.chain_pin_is_muxed(0, 0), "element 0 muxes all pins");
        assert!(
            !f.chain_pin_is_muxed(1, 0),
            "later elements hard-wire pin 0"
        );
        assert!(f.chain_pin_is_muxed(1, 1));
        assert!(f.chain_pin_is_muxed(3, 3));
    }

    #[test]
    fn io_pads_counted() {
        let f = small();
        let w = f.config().channel_width;
        assert_eq!(f.io_input_count(), 2 * w * 4);
        assert_eq!(f.io_output_count(), f.io_input_count());
        for idx in 0..f.io_output_count() {
            let src = f.io_output_source(idx);
            assert!(matches!(src, SignalRef::Track { .. }));
        }
    }

    #[test]
    fn distinct_io_indices_for_boundary_muxes() {
        let f = small();
        let mut seen = std::collections::HashSet::new();
        let w = f.config().channel_width;
        for y in 0..2 {
            for t in 0..w {
                for ins in [f.track_mux_inputs(0, y, t), f.track_mux_inputs(1, y, t)] {
                    for s in ins {
                        if let SignalRef::IoIn(i) = s {
                            assert!(i < f.io_input_count());
                            seen.insert(i);
                        }
                    }
                }
            }
        }
        assert!(seen.len() > 8, "boundary pads should be plentiful");
    }

    #[test]
    fn find_bit_roundtrip() {
        let f = small();
        let info = BitInfo::LutMask {
            x: 1,
            y: 1,
            lut: 2,
            row: 5,
        };
        let pos = f.find_bit(&info).expect("bit exists");
        assert_eq!(f.describe_bit(pos), &info);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        Fabric::generate(FabricConfig::default(), 0, 3);
    }

    #[test]
    fn offset_accessors_agree_with_layout() {
        let f = small();
        // Track selects.
        let (base, width) = f.track_select_field(1, 0, 2);
        for b in 0..width {
            assert_eq!(
                f.describe_bit(base + b),
                &BitInfo::TrackMuxSelect {
                    x: 1,
                    y: 0,
                    t: 2,
                    bit: b
                }
            );
        }
        // CLB input selects.
        let (base, width) = f.clb_input_field(0, 1, 2, 1);
        for b in 0..width {
            assert_eq!(
                f.describe_bit(base + b),
                &BitInfo::ClbInputSelect {
                    x: 0,
                    y: 1,
                    lut: 2,
                    pin: 1,
                    bit: b
                }
            );
        }
        // LUT mask rows.
        let mask_base = f.lut_mask_base(1, 1, 3);
        assert_eq!(
            f.describe_bit(mask_base),
            &BitInfo::LutMask {
                x: 1,
                y: 1,
                lut: 3,
                row: 0
            }
        );
        assert_eq!(
            f.describe_bit(mask_base + 7),
            &BitInfo::LutMask {
                x: 1,
                y: 1,
                lut: 3,
                row: 7
            }
        );
        // FF bypass.
        assert_eq!(
            f.describe_bit(f.ff_bypass_bit(0, 0, 0)),
            &BitInfo::FfBypass { x: 0, y: 0, lut: 0 }
        );
        // Chain data connection selects.
        let (base, width) = f.chain_data_field(1, 0, 0, 0);
        for b in 0..width {
            assert_eq!(
                f.describe_bit(base + b),
                &BitInfo::ChainDataSelect {
                    x: 1,
                    y: 0,
                    j: 0,
                    pin: 0,
                    bit: b
                }
            );
        }
        let (base, width) = f.chain_data_field(1, 0, 2, 3);
        for b in 0..width {
            assert_eq!(
                f.describe_bit(base + b),
                &BitInfo::ChainDataSelect {
                    x: 1,
                    y: 0,
                    j: 2,
                    pin: 3,
                    bit: b
                }
            );
        }
        // Chain select connection + value/mode.
        let (base, width) = f.chain_sel_conn_field(1, 0, 2, 1);
        for b in 0..width {
            assert_eq!(
                f.describe_bit(base + b),
                &BitInfo::ChainSelConn {
                    x: 1,
                    y: 0,
                    j: 2,
                    pin: 1,
                    bit: b
                }
            );
        }
        let (val, mode) = f.chain_select_bits(1, 0, 2, 1);
        assert_eq!(
            f.describe_bit(val),
            &BitInfo::ChainSelect {
                x: 1,
                y: 0,
                j: 2,
                pin: 1,
                mode_flag: false
            }
        );
        assert_eq!(
            f.describe_bit(mode),
            &BitInfo::ChainSelect {
                x: 1,
                y: 0,
                j: 2,
                pin: 1,
                mode_flag: true
            }
        );
        // Per-tile arithmetic matches the generated layout size.
        assert_eq!(f.bits_per_tile() * f.tile_count(), f.config_bit_count());
    }
}
