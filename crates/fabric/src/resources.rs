//! Fabric resource accounting in the units of Table I.
//!
//! Table I compares the hardware a ROUTE circuit costs on three flows:
//!
//! | flow | multiplexers | storage |
//! |---|---|---|
//! | OpenFPGA | MUX2 trees | config DFFs |
//! | FABulous (std cell) | MUX4+MUX2 trees | few CFFs + latches |
//! | FABulous (+ MUX chain) | fewer M4/M2 | fewer CFFs + latches |
//!
//! [`ResourceReport`] derives those counts from a fabric (optionally
//! restricted to the tiles a mapping actually uses).

use crate::arch::{ConfigStorage, FabricStyle};
use crate::fabric::Fabric;

/// Usage counters of a mapped design (filled by the PnR flow).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricUsage {
    /// Routed track nodes (each exercises one switch mux).
    pub track_switches: usize,
    /// CLB input pins carrying mapped signals.
    pub clb_pins: usize,
    /// LUT slots programmed.
    pub lut_slots: usize,
    /// Slots with the register path enabled.
    pub registered_slots: usize,
    /// Chain elements carrying mapped muxes.
    pub chain_elements: usize,
    /// Chain data/select pins routed from tracks.
    pub chain_pins: usize,
    /// Load-bearing configuration bits.
    pub config_bits: usize,
    /// Tiles touched.
    pub tiles_used: usize,
}
use std::fmt;

/// Hardware resource totals for a fabric (or fabric region).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceReport {
    /// 4:1 mux cells.
    pub mux4: usize,
    /// 2:1 mux cells.
    pub mux2: usize,
    /// Configuration D flip-flops (OpenFPGA-style storage).
    pub config_dffs: usize,
    /// Configuration latches (FABulous-style storage).
    pub config_latches: usize,
    /// Control flip-flops of the latch-based configuration chain.
    pub control_ffs: usize,
    /// User flip-flops (CLB registers).
    pub user_ffs: usize,
    /// LUT sites.
    pub luts: usize,
    /// Tiles counted.
    pub tiles: usize,
}

impl ResourceReport {
    /// Resources of the whole fabric.
    pub fn for_fabric(fabric: &Fabric) -> Self {
        Self::for_region(fabric, fabric.tile_count())
    }

    /// Resources of a region of `tiles` tiles (≤ the fabric's tile count) —
    /// used when a mapping occupies only part of the grid.
    ///
    /// # Panics
    ///
    /// Panics when `tiles` exceeds the fabric size.
    pub fn for_region(fabric: &Fabric, tiles: usize) -> Self {
        assert!(tiles <= fabric.tile_count(), "region larger than fabric");
        let cfg = fabric.config();
        let style = cfg.style;
        let mut r = ResourceReport {
            tiles,
            ..Default::default()
        };
        // Per-tile muxes.
        let track_mux_inputs = Fabric::track_mux_input_count(cfg);
        let (m4_t, m2_t) = mux_decomposition(style, track_mux_inputs);
        r.mux4 += tiles * cfg.channel_width * m4_t;
        r.mux2 += tiles * cfg.channel_width * m2_t;
        // CLB input connection muxes.
        let (m4_c, m2_c) = mux_decomposition(style, cfg.channel_width);
        r.mux4 += tiles * cfg.luts_per_clb * cfg.lut_k * m4_c;
        r.mux2 += tiles * cfg.luts_per_clb * cfg.lut_k * m2_c;
        // LUT read muxes.
        let (m4_l, m2_l) = mux_decomposition(style, cfg.bits_per_lut());
        r.mux4 += tiles * cfg.luts_per_clb * m4_l;
        r.mux2 += tiles * cfg.luts_per_clb * m2_l;
        // FF bypass muxes.
        r.mux2 += tiles * cfg.luts_per_clb;
        // Chain elements: one native MUX4 per element plus connection muxes
        // on the muxed data pins and the two dynamic-select sources, and a
        // mode MUX2 per select pin.
        if cfg.mux_chains {
            r.mux4 += tiles * cfg.chain_len;
            let (m4_conn, m2_conn) = mux_decomposition(style, cfg.channel_width);
            let muxed_data_pins: usize =
                (0..cfg.chain_len).map(|j| if j == 0 { 4 } else { 3 }).sum();
            let conn_muxes = muxed_data_pins + 2 * cfg.chain_len;
            r.mux4 += tiles * conn_muxes * m4_conn;
            r.mux2 += tiles * conn_muxes * m2_conn;
            r.mux2 += tiles * cfg.chain_len * 2;
        }
        // User registers.
        r.user_ffs = tiles * cfg.luts_per_clb;
        r.luts = tiles * cfg.luts_per_clb;
        // Configuration storage.
        let bits = tiles * fabric.bits_per_tile();
        match cfg.config_storage {
            ConfigStorage::Dff => r.config_dffs = bits,
            ConfigStorage::Latch => {
                r.config_latches = bits;
                // One control FF per tile plus a small global controller.
                r.control_ffs = tiles + 8;
            }
        }
        r
    }

    /// Usage-based accounting (the Table I convention): only the resources
    /// the mapped design actually exercises — routed switch muxes, used
    /// connection muxes, used LUT read structures, used chain elements and
    /// the load-bearing configuration bits.
    pub fn for_usage(fabric: &Fabric, usage: &FabricUsage) -> Self {
        let cfg = fabric.config();
        let style = cfg.style;
        let mut r = ResourceReport {
            tiles: usage.tiles_used,
            ..Default::default()
        };
        let (m4_t, m2_t) = mux_decomposition(style, Fabric::track_mux_input_count(cfg));
        r.mux4 += usage.track_switches * m4_t;
        r.mux2 += usage.track_switches * m2_t;
        let (m4_c, m2_c) = mux_decomposition(style, cfg.channel_width);
        r.mux4 += usage.clb_pins * m4_c;
        r.mux2 += usage.clb_pins * m2_c;
        let (m4_l, m2_l) = mux_decomposition(style, cfg.bits_per_lut());
        r.mux4 += usage.lut_slots * m4_l;
        r.mux2 += usage.lut_slots * m2_l;
        r.mux2 += usage.lut_slots; // FF bypass
        r.luts = usage.lut_slots;
        r.user_ffs = usage.registered_slots;
        // Chain elements: the native MUX4 plus their used connection muxes.
        r.mux4 += usage.chain_elements;
        r.mux4 += usage.chain_pins * m4_c;
        r.mux2 += usage.chain_pins * m2_c;
        r.mux2 += usage.chain_elements * 2; // select mode muxes
        match cfg.config_storage {
            ConfigStorage::Dff => r.config_dffs = usage.config_bits,
            ConfigStorage::Latch => {
                r.config_latches = usage.config_bits;
                r.control_ffs = usage.tiles_used + 8;
            }
        }
        r
    }

    /// Total mux cells (M4 + M2).
    pub fn total_muxes(&self) -> usize {
        self.mux4 + self.mux2
    }

    /// Total configuration storage elements.
    pub fn total_config_storage(&self) -> usize {
        self.config_dffs + self.config_latches + self.control_ffs
    }
}

impl fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} M4s + {} M2s, {} DFFs, {} CFFs, {} latches ({} tiles, {} LUTs)",
            self.mux4,
            self.mux2,
            self.config_dffs,
            self.control_ffs,
            self.config_latches,
            self.tiles,
            self.luts
        )
    }
}

/// Decomposes an n-input mux into (mux4, mux2) cells per the style's cell
/// library: OpenFPGA builds MUX2 trees; FABulous prefers MUX4 cells and
/// falls back to MUX2 for 2-wide remainders.
pub fn mux_decomposition(style: FabricStyle, inputs: usize) -> (usize, usize) {
    if inputs <= 1 {
        return (0, 0);
    }
    match style {
        FabricStyle::OpenFpga => (0, inputs - 1),
        FabricStyle::Fabulous => {
            let mut m4 = 0;
            let mut m2 = 0;
            let mut level = inputs;
            while level > 1 {
                let quads = level / 4;
                let rem = level % 4;
                m4 += quads;
                let mut next = quads;
                match rem {
                    0 => {}
                    1 => next += 1, // passthrough
                    2 => {
                        m2 += 1;
                        next += 1;
                    }
                    3 => {
                        // one m2 + passthrough, or promote to m4; use m4.
                        m4 += 1;
                        next += 1;
                    }
                    _ => unreachable!(),
                }
                level = next;
            }
            (m4, m2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::FabricConfig;

    #[test]
    fn mux2_tree_decomposition() {
        assert_eq!(mux_decomposition(FabricStyle::OpenFpga, 8), (0, 7));
        assert_eq!(mux_decomposition(FabricStyle::OpenFpga, 2), (0, 1));
        assert_eq!(mux_decomposition(FabricStyle::OpenFpga, 1), (0, 0));
    }

    #[test]
    fn mux4_tree_decomposition() {
        // 16 inputs: 4 m4 + 1 m4 = 5 m4.
        assert_eq!(mux_decomposition(FabricStyle::Fabulous, 16), (5, 0));
        // 8 inputs: 2 m4 + 1 m2.
        assert_eq!(mux_decomposition(FabricStyle::Fabulous, 8), (2, 1));
        // 2 inputs: single m2.
        assert_eq!(mux_decomposition(FabricStyle::Fabulous, 2), (0, 1));
        // 3 inputs: one m4 (promoted).
        assert_eq!(mux_decomposition(FabricStyle::Fabulous, 3), (1, 0));
    }

    #[test]
    fn fabulous_uses_fewer_elements() {
        for n in [4usize, 8, 9, 16, 33] {
            let (m4, m2) = mux_decomposition(FabricStyle::Fabulous, n);
            let (_, open_m2) = mux_decomposition(FabricStyle::OpenFpga, n);
            assert!(
                m4 + m2 < open_m2,
                "n={n}: fabulous {m4}+{m2} vs openfpga {open_m2}"
            );
        }
    }

    #[test]
    fn openfpga_storage_is_dffs() {
        let f = Fabric::generate(FabricConfig::openfpga_style(), 2, 2);
        let r = ResourceReport::for_fabric(&f);
        assert_eq!(r.config_dffs, f.config_bit_count());
        assert_eq!(r.config_latches, 0);
        assert_eq!(r.control_ffs, 0);
        assert_eq!(r.mux4, 0, "OpenFPGA style uses pure MUX2 trees");
        assert!(r.mux2 > 0);
    }

    #[test]
    fn fabulous_storage_is_latches() {
        let f = Fabric::generate(FabricConfig::fabulous_style(true), 2, 2);
        let r = ResourceReport::for_fabric(&f);
        assert_eq!(r.config_latches, f.config_bit_count());
        assert_eq!(r.config_dffs, 0);
        assert!(r.control_ffs > 0 && r.control_ffs < r.config_latches);
        assert!(r.mux4 > 0);
    }

    #[test]
    fn region_scales_linearly() {
        let f = Fabric::generate(FabricConfig::fabulous_style(false), 3, 3);
        let all = ResourceReport::for_fabric(&f);
        let third = ResourceReport::for_region(&f, 3);
        assert_eq!(third.mux4 * 3, all.mux4);
        assert_eq!(third.config_latches * 3, all.config_latches);
        assert_eq!(third.tiles, 3);
    }

    #[test]
    fn chains_add_m4s() {
        let with = Fabric::generate(FabricConfig::fabulous_style(true), 2, 2);
        let without = Fabric::generate(FabricConfig::fabulous_style(false), 2, 2);
        let rw = ResourceReport::for_fabric(&with);
        let ro = ResourceReport::for_fabric(&without);
        assert!(rw.mux4 > ro.mux4);
    }

    #[test]
    fn totals_and_display() {
        let f = Fabric::generate(FabricConfig::fabulous_style(true), 1, 1);
        let r = ResourceReport::for_fabric(&f);
        assert_eq!(r.total_muxes(), r.mux4 + r.mux2);
        assert_eq!(r.total_config_storage(), r.config_latches + r.control_ffs);
        let text = r.to_string();
        assert!(text.contains("M4s"));
        assert!(text.contains("latches"));
    }

    #[test]
    #[should_panic(expected = "region larger")]
    fn oversized_region_panics() {
        let f = Fabric::generate(FabricConfig::fabulous_style(true), 1, 1);
        ResourceReport::for_region(&f, 2);
    }
}
