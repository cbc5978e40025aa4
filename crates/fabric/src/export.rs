//! JSON export/import of architectures and bitstreams.
//!
//! The serde derives that used to decorate these types never had a
//! serializer behind them; this module is the real thing, built on
//! [`shell_util::Json`]. The schema is deliberately small and stable:
//! an architecture is its parameter set (the bit layout regenerates from
//! it), and a bitstream is two hex strings (values + used mask) plus its
//! length — byte-reproducible for a given seed, so `results/*.json`
//! artifacts diff cleanly across runs.

use crate::arch::{ConfigStorage, FabricConfig, FabricStyle};
use crate::bitstream::Bitstream;
use crate::fabric::Fabric;
use crate::resources::ResourceReport;
use shell_util::Json;

impl ConfigStorage {
    /// Stable JSON tag.
    pub fn tag(&self) -> &'static str {
        match self {
            ConfigStorage::Dff => "dff",
            ConfigStorage::Latch => "latch",
        }
    }

    /// Parses a [`tag`](Self::tag) back.
    ///
    /// # Errors
    ///
    /// Returns the offending tag.
    pub fn from_tag(tag: &str) -> Result<Self, String> {
        match tag {
            "dff" => Ok(ConfigStorage::Dff),
            "latch" => Ok(ConfigStorage::Latch),
            other => Err(format!("unknown config storage `{other}`")),
        }
    }
}

impl FabricStyle {
    /// Stable JSON tag.
    pub fn tag(&self) -> &'static str {
        match self {
            FabricStyle::OpenFpga => "openfpga",
            FabricStyle::Fabulous => "fabulous",
        }
    }

    /// Parses a [`tag`](Self::tag) back.
    ///
    /// # Errors
    ///
    /// Returns the offending tag.
    pub fn from_tag(tag: &str) -> Result<Self, String> {
        match tag {
            "openfpga" => Ok(FabricStyle::OpenFpga),
            "fabulous" => Ok(FabricStyle::Fabulous),
            other => Err(format!("unknown fabric style `{other}`")),
        }
    }
}

impl FabricConfig {
    /// Exports the architecture parameters.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("lut_k", Json::from(self.lut_k)),
            ("luts_per_clb", Json::from(self.luts_per_clb)),
            ("channel_width", Json::from(self.channel_width)),
            ("config_storage", Json::from(self.config_storage.tag())),
            ("mux_chains", Json::from(self.mux_chains)),
            ("chain_len", Json::from(self.chain_len)),
            ("style", Json::from(self.style.tag())),
            ("custom_cell_factor", Json::Num(self.custom_cell_factor)),
            ("square_fabric", Json::from(self.square_fabric)),
        ])
    }

    /// Imports architecture parameters written by [`to_json`](Self::to_json)
    /// and validates them.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing/ill-typed field or the failed
    /// validation rule.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let field = |k: &str| json.get(k).ok_or_else(|| format!("missing field `{k}`"));
        let usize_field = |k: &str| {
            field(k)?
                .as_usize()
                .ok_or_else(|| format!("field `{k}` is not a non-negative integer"))
        };
        let bool_field = |k: &str| {
            field(k)?
                .as_bool()
                .ok_or_else(|| format!("field `{k}` is not a boolean"))
        };
        let config = Self {
            lut_k: usize_field("lut_k")?,
            luts_per_clb: usize_field("luts_per_clb")?,
            channel_width: usize_field("channel_width")?,
            config_storage: ConfigStorage::from_tag(
                field("config_storage")?
                    .as_str()
                    .ok_or("field `config_storage` is not a string")?,
            )?,
            mux_chains: bool_field("mux_chains")?,
            chain_len: usize_field("chain_len")?,
            style: FabricStyle::from_tag(
                field("style")?
                    .as_str()
                    .ok_or("field `style` is not a string")?,
            )?,
            custom_cell_factor: field("custom_cell_factor")?
                .as_f64()
                .ok_or("field `custom_cell_factor` is not a number")?,
            square_fabric: bool_field("square_fabric")?,
        };
        config.validate()?;
        Ok(config)
    }
}

impl Fabric {
    /// Exports the architecture plus concrete dimensions — enough to
    /// regenerate this exact fabric (the bit layout is a pure function of
    /// both).
    pub fn to_arch_json(&self) -> Json {
        Json::obj([
            ("config", self.config().to_json()),
            ("width", Json::from(self.width())),
            ("height", Json::from(self.height())),
            ("config_bits", Json::from(self.config_bit_count())),
        ])
    }

    /// Regenerates a fabric from [`to_arch_json`](Self::to_arch_json)
    /// output, checking the bit-count invariant.
    ///
    /// # Errors
    ///
    /// Returns a message when fields are missing or the regenerated layout
    /// disagrees with the recorded `config_bits`.
    pub fn from_arch_json(json: &Json) -> Result<Self, String> {
        let config = FabricConfig::from_json(json.get("config").ok_or("missing field `config`")?)?;
        let width = json
            .get("width")
            .and_then(Json::as_usize)
            .ok_or("missing/ill-typed field `width`")?;
        let height = json
            .get("height")
            .and_then(Json::as_usize)
            .ok_or("missing/ill-typed field `height`")?;
        let fabric = Fabric::generate(config, width, height);
        if let Some(expected) = json.get("config_bits").and_then(Json::as_usize) {
            if expected != fabric.config_bit_count() {
                return Err(format!(
                    "regenerated layout has {} config bits, file says {expected}",
                    fabric.config_bit_count()
                ));
            }
        }
        Ok(fabric)
    }
}

/// Hex encoding (LSB-first nibbles, same convention as
/// [`Bitstream::to_hex`]) of an arbitrary bool slice.
pub(crate) fn bools_to_hex(bits: &[bool]) -> String {
    let mut s = String::with_capacity(bits.len().div_ceil(4));
    for chunk in bits.chunks(4) {
        let mut v = 0u8;
        for (i, &b) in chunk.iter().enumerate() {
            if b {
                v |= 1 << i;
            }
        }
        s.push(char::from_digit(v as u32, 16).expect("nibble"));
    }
    s
}

pub(crate) fn hex_to_bools(hex: &str, len: usize) -> Result<Vec<bool>, String> {
    if hex.len() != len.div_ceil(4) {
        return Err(format!(
            "hex string has {} nibbles, expected {} for {len} bits",
            hex.len(),
            len.div_ceil(4)
        ));
    }
    let mut out = Vec::with_capacity(len);
    for (ni, c) in hex.chars().enumerate() {
        let v = c
            .to_digit(16)
            .ok_or_else(|| format!("non-hex character `{c}`"))? as u8;
        for bit in 0..4 {
            let idx = ni * 4 + bit;
            if idx < len {
                out.push((v >> bit) & 1 == 1);
            } else if (v >> bit) & 1 == 1 {
                return Err("set bit beyond declared length".into());
            }
        }
    }
    Ok(out)
}

impl Bitstream {
    /// Exports the bitstream: length plus hex-encoded values and used mask.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("len", Json::from(self.len())),
            ("bits", Json::from(bools_to_hex(self.as_bools()))),
            ("used", Json::from(bools_to_hex(self.used_mask()))),
        ])
    }

    /// Imports a bitstream written by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a message on missing fields, non-hex payloads or length
    /// mismatches.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let len = json
            .get("len")
            .and_then(Json::as_usize)
            .ok_or("missing/ill-typed field `len`")?;
        let bits = hex_to_bools(
            json.get("bits")
                .and_then(Json::as_str)
                .ok_or("missing field `bits`")?,
            len,
        )?;
        let used = hex_to_bools(
            json.get("used")
                .and_then(Json::as_str)
                .ok_or("missing field `used`")?,
            len,
        )?;
        let mut bs = Bitstream::zeros(len);
        for i in 0..len {
            bs.set_unused(i, bits[i]);
            if used[i] {
                bs.mark_used(i);
            }
        }
        Ok(bs)
    }
}

impl ResourceReport {
    /// Exports the element counts (Table I columns).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("mux4", Json::from(self.mux4)),
            ("mux2", Json::from(self.mux2)),
            ("config_dffs", Json::from(self.config_dffs)),
            ("config_latches", Json::from(self.config_latches)),
            ("control_ffs", Json::from(self.control_ffs)),
            ("user_ffs", Json::from(self.user_ffs)),
            ("luts", Json::from(self.luts)),
            ("tiles", Json::from(self.tiles)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_roundtrips_all_presets() {
        for config in [
            FabricConfig::openfpga_style(),
            FabricConfig::fabulous_style(false),
            FabricConfig::fabulous_style(true),
        ] {
            let json = config.to_json();
            let text = json.to_string_pretty();
            let back = FabricConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, config);
        }
    }

    #[test]
    fn config_import_validates() {
        let mut json = FabricConfig::openfpga_style().to_json();
        if let Json::Obj(pairs) = &mut json {
            for (k, v) in pairs.iter_mut() {
                if k == "lut_k" {
                    *v = Json::from(9usize);
                }
            }
        }
        assert!(FabricConfig::from_json(&json)
            .unwrap_err()
            .contains("lut_k"));
        assert!(FabricConfig::from_json(&Json::obj::<&str>([]))
            .unwrap_err()
            .contains("missing field"));
    }

    #[test]
    fn fabric_arch_roundtrips() {
        let fabric = Fabric::generate(FabricConfig::fabulous_style(true), 3, 2);
        let json = fabric.to_arch_json();
        let back =
            Fabric::from_arch_json(&Json::parse(&json.to_string_compact()).unwrap()).unwrap();
        assert_eq!(back, fabric);
    }

    #[test]
    fn bitstream_roundtrips_values_and_used_mask() {
        let mut bs = Bitstream::zeros(37);
        bs.set_field(3, 5, 0b10110);
        bs.set(36, true);
        bs.set_unused(20, true); // value without used mark must survive too
        let json = bs.to_json();
        let back = Bitstream::from_json(&Json::parse(&json.to_string_pretty()).unwrap()).unwrap();
        assert_eq!(back, bs);
        assert_eq!(back.used_count(), bs.used_count());
        assert!(back.bit(20) && !back.is_used(20));
    }

    #[test]
    fn bitstream_import_rejects_corrupt_payloads() {
        let bs = Bitstream::zeros(8);
        let mut json = bs.to_json();
        if let Json::Obj(pairs) = &mut json {
            for (k, v) in pairs.iter_mut() {
                if k == "bits" {
                    *v = Json::from("zz");
                }
            }
        }
        assert!(Bitstream::from_json(&json).is_err());
        // Wrong length.
        let short = Json::obj([
            ("len", Json::from(16usize)),
            ("bits", Json::from("0")),
            ("used", Json::from("0")),
        ]);
        assert!(Bitstream::from_json(&short).is_err());
    }

    #[test]
    fn hex_matches_display_convention() {
        let mut bs = Bitstream::zeros(8);
        bs.set(0, true);
        bs.set(7, true);
        let json = bs.to_json();
        assert_eq!(json.get("bits").and_then(Json::as_str), Some("18"));
        assert_eq!(bs.to_hex(), "18");
    }

    #[test]
    fn resource_report_json_shape() {
        let report = ResourceReport {
            mux4: 1,
            mux2: 2,
            config_dffs: 3,
            config_latches: 4,
            control_ffs: 5,
            user_ffs: 6,
            luts: 7,
            tiles: 8,
        };
        let json = report.to_json();
        assert_eq!(json.get("mux2").and_then(Json::as_usize), Some(2));
        assert_eq!(json.get("tiles").and_then(Json::as_usize), Some(8));
    }
}
