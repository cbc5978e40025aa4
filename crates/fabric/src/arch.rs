//! Architecture description of the modeled eFPGA fabrics.

/// Which storage element holds configuration bits.
///
/// OpenFPGA-style fabrics scan configuration through D flip-flops; the
/// FABulous custom-cell flow of \[21\] replaces most of them with latches
/// (smaller, no clock tree load) keeping only a few control flip-flops
/// ("CFFs" in Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigStorage {
    /// One configuration D flip-flop per bit (OpenFPGA default).
    Dff,
    /// Latch per bit plus a small number of control FFs (FABulous std-cell).
    Latch,
}

/// Overall fabric style, selecting switch-mux decomposition and sizing
/// conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricStyle {
    /// Square, homogeneous grid; switch muxes built from MUX2 trees;
    /// no dedicated chain resources; fabric dimensions rounded up to a
    /// square (the §III inefficiency shown in Fig. 2).
    OpenFpga,
    /// Demand-shaped grid; switch muxes built from MUX4 trees with the
    /// custom-cell optimization (≈30 % smaller chain/switch cells);
    /// optionally exposes dedicated MUX-chain blocks.
    Fabulous,
}

/// Parameters of a fabric architecture.
///
/// # Example
///
/// ```
/// use shell_fabric::FabricConfig;
///
/// let open = FabricConfig::openfpga_style();
/// let fab = FabricConfig::fabulous_style(true);
/// assert!(open.square_fabric);
/// assert!(!fab.square_fabric);
/// assert!(fab.mux_chains);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// LUT arity (k). 4 for both presets, like the papers' fabrics.
    pub lut_k: usize,
    /// LUTs (and FFs) per CLB tile.
    pub luts_per_clb: usize,
    /// Routing tracks per tile.
    pub channel_width: usize,
    /// Configuration storage style.
    pub config_storage: ConfigStorage,
    /// Whether dedicated MUX-chain blocks exist in each tile.
    pub mux_chains: bool,
    /// MUX4 chain elements per chain block.
    pub chain_len: usize,
    /// Fabric style (switch decomposition, sizing conventions).
    pub style: FabricStyle,
    /// Area factor applied to switch/chain mux cells (the custom-cell
    /// optimization of \[21\]: ≈0.7 for FABulous, 1.0 for OpenFPGA).
    pub custom_cell_factor: f64,
    /// Force W == H and round dimensions up to the next square.
    pub square_fabric: bool,
}

impl FabricConfig {
    /// The OpenFPGA-style preset used as Case 1/2 baseline.
    pub fn openfpga_style() -> Self {
        Self {
            lut_k: 4,
            luts_per_clb: 4,
            channel_width: 12,
            config_storage: ConfigStorage::Dff,
            mux_chains: false,
            chain_len: 0,
            style: FabricStyle::OpenFpga,
            custom_cell_factor: 1.0,
            square_fabric: true,
        }
    }

    /// The FABulous-style preset (Case 3 without chains, SheLL with chains).
    /// Chain-enabled fabrics get a wider channel: every chain-block pin
    /// arrives over the tile's tracks, so chain tiles are port-hungry.
    pub fn fabulous_style(mux_chains: bool) -> Self {
        Self {
            lut_k: 4,
            luts_per_clb: 4,
            channel_width: if mux_chains { 16 } else { 12 },
            config_storage: ConfigStorage::Latch,
            mux_chains,
            chain_len: if mux_chains { 4 } else { 0 },
            style: FabricStyle::Fabulous,
            custom_cell_factor: 0.7,
            square_fabric: false,
        }
    }

    /// Configuration bits needed by one LUT (its truth table).
    pub fn bits_per_lut(&self) -> usize {
        1 << self.lut_k
    }

    /// Select bits for an encoded mux over `n` inputs.
    pub fn mux_select_bits(n: usize) -> usize {
        if n <= 1 {
            0
        } else {
            (usize::BITS - (n - 1).leading_zeros()) as usize
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        if !(2..=6).contains(&self.lut_k) {
            return Err(format!("lut_k {} outside 2..=6", self.lut_k));
        }
        if self.luts_per_clb == 0 {
            return Err("luts_per_clb must be positive".into());
        }
        if self.channel_width < 2 {
            return Err("channel_width must be at least 2".into());
        }
        if self.mux_chains && self.chain_len == 0 {
            return Err("mux_chains enabled but chain_len is 0".into());
        }
        if self.custom_cell_factor <= 0.0 || self.custom_cell_factor > 1.0 {
            return Err("custom_cell_factor must be in (0, 1]".into());
        }
        Ok(())
    }
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self::fabulous_style(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_valid() {
        FabricConfig::openfpga_style().validate().unwrap();
        FabricConfig::fabulous_style(false).validate().unwrap();
        FabricConfig::fabulous_style(true).validate().unwrap();
        FabricConfig::default().validate().unwrap();
    }

    #[test]
    fn preset_distinctions() {
        let o = FabricConfig::openfpga_style();
        let f = FabricConfig::fabulous_style(true);
        assert_eq!(o.config_storage, ConfigStorage::Dff);
        assert_eq!(f.config_storage, ConfigStorage::Latch);
        assert!(o.square_fabric && !f.square_fabric);
        assert!(f.custom_cell_factor < o.custom_cell_factor);
    }

    #[test]
    fn mux_select_bits_math() {
        assert_eq!(FabricConfig::mux_select_bits(1), 0);
        assert_eq!(FabricConfig::mux_select_bits(2), 1);
        assert_eq!(FabricConfig::mux_select_bits(3), 2);
        assert_eq!(FabricConfig::mux_select_bits(4), 2);
        assert_eq!(FabricConfig::mux_select_bits(9), 4);
    }

    #[test]
    fn validation_catches_bad_params() {
        let bad = [
            FabricConfig {
                lut_k: 9,
                ..FabricConfig::default()
            },
            FabricConfig {
                channel_width: 1,
                ..FabricConfig::default()
            },
            FabricConfig {
                chain_len: 0,
                ..FabricConfig::fabulous_style(true)
            },
            FabricConfig {
                custom_cell_factor: 0.0,
                ..FabricConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?}");
        }
    }

    #[test]
    fn bits_per_lut_power_of_two() {
        let c = FabricConfig::openfpga_style();
        assert_eq!(c.bits_per_lut(), 16);
    }
}
