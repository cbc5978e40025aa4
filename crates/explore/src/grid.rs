//! The sweep grid: which fabric parameters to explore and how a grid
//! point becomes a [`FabricConfig`].

use shell_fabric::{ConfigStorage, FabricConfig, FabricStyle};
use shell_util::Json;

/// Hard cap on the number of points a grid may expand to — a sweep runs a
/// full lock→attack flow per point, so an unbounded grid is a footgun.
pub const MAX_POINTS: usize = 256;

/// Switch-box topology axis: how routing muxes are decomposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Switchbox {
    /// MUX2 trees, DFF configuration, square fabric — the OpenFPGA-style
    /// conventions.
    Mux2Tree,
    /// MUX4 trees with the custom-cell optimization, latch configuration,
    /// demand-shaped fabric — the FABulous-style conventions.
    Mux4Tree,
}

impl Switchbox {
    /// Wire-format label.
    pub fn label(self) -> &'static str {
        match self {
            Switchbox::Mux2Tree => "mux2tree",
            Switchbox::Mux4Tree => "mux4tree",
        }
    }

    /// Parses a wire-format label.
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "mux2tree" => Some(Switchbox::Mux2Tree),
            "mux4tree" => Some(Switchbox::Mux4Tree),
            _ => None,
        }
    }
}

/// One point of the design space: the fabric knobs the sweep varies.
///
/// The remaining [`FabricConfig`] fields (storage style, custom-cell
/// factor, square rounding) follow from the switch-box topology, mirroring
/// the two preset families.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricPoint {
    /// LUT arity (2..=6).
    pub lut_k: usize,
    /// Routing tracks per tile (≥ 2).
    pub channel_width: usize,
    /// Switch-box topology (selects the preset family).
    pub switchbox: Switchbox,
    /// MUX4 chain elements per chain block; `0` disables chains and the
    /// whole sub-circuit is LUT-mapped. Relative to the fixed 4 LUTs/CLB
    /// this is the MUX-chain ratio axis.
    pub chain_len: usize,
    /// Floor on the fabric dimensions — the array-dims axis. The fit loop
    /// still grows the fabric on demand; the floor only forces *larger*
    /// arrays (more unused bits → a larger post-shrink key).
    pub min_dims: (usize, usize),
}

impl FabricPoint {
    /// Expands the point into a full [`FabricConfig`].
    pub fn to_config(&self) -> FabricConfig {
        let (storage, style, factor, square) = match self.switchbox {
            Switchbox::Mux2Tree => (ConfigStorage::Dff, FabricStyle::OpenFpga, 1.0, true),
            Switchbox::Mux4Tree => (ConfigStorage::Latch, FabricStyle::Fabulous, 0.7, false),
        };
        FabricConfig {
            lut_k: self.lut_k,
            luts_per_clb: 4,
            channel_width: self.channel_width,
            config_storage: storage,
            mux_chains: self.chain_len > 0,
            chain_len: self.chain_len,
            style,
            custom_cell_factor: factor,
            square_fabric: square,
        }
    }

    /// Validates the point (fabric-config rules plus sane dimension floor).
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        self.to_config().validate()?;
        let (w, h) = self.min_dims;
        if !(1..=32).contains(&w) || !(1..=32).contains(&h) {
            return Err(format!("min_dims {w}x{h} outside 1..=32"));
        }
        Ok(())
    }

    /// Compact human label, e.g. `k4 w16 mux4tree c4 d3x3`.
    pub fn label(&self) -> String {
        format!(
            "k{} w{} {} c{} d{}x{}",
            self.lut_k,
            self.channel_width,
            self.switchbox.label(),
            self.chain_len,
            self.min_dims.0,
            self.min_dims.1
        )
    }

    /// JSON form (stable key order — journal and artifact schema).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("lut_k", Json::from(self.lut_k)),
            ("channel_width", Json::from(self.channel_width)),
            ("switchbox", Json::from(self.switchbox.label())),
            ("chain_len", Json::from(self.chain_len)),
            (
                "min_dims",
                Json::arr([Json::from(self.min_dims.0), Json::from(self.min_dims.1)]),
            ),
        ])
    }

    /// Parses the [`Self::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let usize_field = |key: &str| -> Result<usize, String> {
            doc.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("point: missing or non-integer '{key}'"))
        };
        let switchbox = doc
            .get("switchbox")
            .and_then(Json::as_str)
            .and_then(Switchbox::from_label)
            .ok_or("point: missing or unknown 'switchbox'")?;
        let dims = doc
            .get("min_dims")
            .and_then(Json::as_arr)
            .filter(|a| a.len() == 2)
            .ok_or("point: 'min_dims' must be a [w, h] pair")?;
        let dim = |i: usize| {
            dims[i]
                .as_usize()
                .ok_or_else(|| format!("point: min_dims[{i}] must be an integer"))
        };
        Ok(Self {
            lut_k: usize_field("lut_k")?,
            channel_width: usize_field("channel_width")?,
            switchbox,
            chain_len: usize_field("chain_len")?,
            min_dims: (dim(0)?, dim(1)?),
        })
    }
}

/// The sweep grid: one value list per axis; the point set is the cartesian
/// product, enumerated with `lut_k` outermost and `min_dims` innermost
/// (point index order is part of the journal contract).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// LUT arity axis.
    pub lut_k: Vec<usize>,
    /// Channel-width axis.
    pub channel_width: Vec<usize>,
    /// Switch-box topology axis.
    pub switchbox: Vec<Switchbox>,
    /// Chain-length axis (`0` = no chains).
    pub chain_len: Vec<usize>,
    /// Array-dimension floor axis.
    pub min_dims: Vec<(usize, usize)>,
}

impl Default for SweepGrid {
    /// The benchmark grid: 2 channel widths × chains on/off × 2 dimension
    /// floors on the FABulous-style topology — 8 points.
    fn default() -> Self {
        Self {
            lut_k: vec![4],
            channel_width: vec![12, 16],
            switchbox: vec![Switchbox::Mux4Tree],
            chain_len: vec![0, 4],
            min_dims: vec![(2, 2), (4, 4)],
        }
    }
}

impl SweepGrid {
    /// The 2×2-point smoke grid used by CI: chains on/off × two dimension
    /// floors.
    pub fn tiny() -> Self {
        Self {
            lut_k: vec![4],
            channel_width: vec![16],
            switchbox: vec![Switchbox::Mux4Tree],
            chain_len: vec![0, 4],
            min_dims: vec![(2, 2), (3, 3)],
        }
    }

    /// Number of points the grid expands to.
    pub fn len(&self) -> usize {
        self.lut_k.len()
            * self.channel_width.len()
            * self.switchbox.len()
            * self.chain_len.len()
            * self.min_dims.len()
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cartesian product in the documented axis order.
    pub fn points(&self) -> Vec<FabricPoint> {
        let mut out = Vec::with_capacity(self.len());
        for &lut_k in &self.lut_k {
            for &channel_width in &self.channel_width {
                for &switchbox in &self.switchbox {
                    for &chain_len in &self.chain_len {
                        for &min_dims in &self.min_dims {
                            out.push(FabricPoint {
                                lut_k,
                                channel_width,
                                switchbox,
                                chain_len,
                                min_dims,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Validates every axis and every expanded point.
    ///
    /// # Errors
    ///
    /// Empty axes, more than [`MAX_POINTS`] points, or any invalid point.
    pub fn validate(&self) -> Result<(), String> {
        if self.is_empty() {
            return Err("grid has an empty axis".into());
        }
        if self.len() > MAX_POINTS {
            return Err(format!(
                "grid expands to {} points (max {MAX_POINTS})",
                self.len()
            ));
        }
        for p in self.points() {
            p.validate().map_err(|e| format!("{}: {e}", p.label()))?;
        }
        Ok(())
    }

    /// JSON form (axis lists keyed by name).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "lut_k",
                Json::arr(self.lut_k.iter().map(|&v| Json::from(v))),
            ),
            (
                "channel_width",
                Json::arr(self.channel_width.iter().map(|&v| Json::from(v))),
            ),
            (
                "switchbox",
                Json::arr(self.switchbox.iter().map(|s| Json::from(s.label()))),
            ),
            (
                "chain_len",
                Json::arr(self.chain_len.iter().map(|&v| Json::from(v))),
            ),
            (
                "min_dims",
                Json::arr(
                    self.min_dims
                        .iter()
                        .map(|&(w, h)| Json::arr([Json::from(w), Json::from(h)])),
                ),
            ),
        ])
    }

    /// Parses the [`Self::to_json`] form. Missing axes fall back to the
    /// default grid's value for that axis, so a request may pin only the
    /// axes it cares about.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed axis; the parsed grid
    /// is also validated.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let defaults = SweepGrid::default();
        let usize_axis = |key: &str, fallback: Vec<usize>| -> Result<Vec<usize>, String> {
            match doc.get(key) {
                None => Ok(fallback),
                Some(v) => v
                    .as_arr()
                    .ok_or_else(|| format!("grid: '{key}' must be an array"))?
                    .iter()
                    .map(|j| {
                        j.as_usize()
                            .ok_or_else(|| format!("grid: '{key}' entries must be integers"))
                    })
                    .collect(),
            }
        };
        let switchbox = match doc.get("switchbox") {
            None => defaults.switchbox.clone(),
            Some(v) => v
                .as_arr()
                .ok_or("grid: 'switchbox' must be an array")?
                .iter()
                .map(|j| {
                    j.as_str()
                        .and_then(Switchbox::from_label)
                        .ok_or_else(|| "grid: unknown switchbox label".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let min_dims = match doc.get("min_dims") {
            None => defaults.min_dims.clone(),
            Some(v) => v
                .as_arr()
                .ok_or("grid: 'min_dims' must be an array")?
                .iter()
                .map(|j| {
                    let pair = j.as_arr().filter(|a| a.len() == 2);
                    match pair {
                        Some(a) => match (a[0].as_usize(), a[1].as_usize()) {
                            (Some(w), Some(h)) => Ok((w, h)),
                            _ => Err("grid: min_dims entries must be integer pairs".to_string()),
                        },
                        None => Err("grid: min_dims entries must be [w, h] pairs".to_string()),
                    }
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let grid = Self {
            lut_k: usize_axis("lut_k", defaults.lut_k.clone())?,
            channel_width: usize_axis("channel_width", defaults.channel_width.clone())?,
            switchbox,
            chain_len: usize_axis("chain_len", defaults.chain_len.clone())?,
            min_dims,
        };
        grid.validate()?;
        Ok(grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_tiny_grids_validate() {
        SweepGrid::default().validate().unwrap();
        SweepGrid::tiny().validate().unwrap();
        assert_eq!(SweepGrid::default().len(), 8);
        assert_eq!(SweepGrid::tiny().len(), 4);
    }

    #[test]
    fn point_order_is_documented_nesting() {
        let grid = SweepGrid {
            lut_k: vec![3, 4],
            channel_width: vec![12],
            switchbox: vec![Switchbox::Mux4Tree],
            chain_len: vec![0],
            min_dims: vec![(2, 2), (3, 3)],
        };
        let pts = grid.points();
        assert_eq!(pts.len(), 4);
        assert_eq!((pts[0].lut_k, pts[0].min_dims), (3, (2, 2)));
        assert_eq!((pts[1].lut_k, pts[1].min_dims), (3, (3, 3)));
        assert_eq!((pts[2].lut_k, pts[2].min_dims), (4, (2, 2)));
    }

    #[test]
    fn point_json_round_trips() {
        for p in SweepGrid::default().points() {
            let back = FabricPoint::from_json(&p.to_json()).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn grid_json_round_trips() {
        let grid = SweepGrid::tiny();
        let back = SweepGrid::from_json(&grid.to_json()).unwrap();
        assert_eq!(back, grid);
    }

    #[test]
    fn grid_json_defaults_missing_axes() {
        let doc = Json::parse(r#"{"chain_len": [4]}"#).unwrap();
        let grid = SweepGrid::from_json(&doc).unwrap();
        assert_eq!(grid.chain_len, vec![4]);
        assert_eq!(grid.lut_k, SweepGrid::default().lut_k);
    }

    #[test]
    fn config_expansion_matches_presets() {
        let p = FabricPoint {
            lut_k: 4,
            channel_width: 16,
            switchbox: Switchbox::Mux4Tree,
            chain_len: 4,
            min_dims: (2, 2),
        };
        assert_eq!(
            p.to_config(),
            shell_fabric::FabricConfig::fabulous_style(true)
        );
        let p2 = FabricPoint {
            lut_k: 4,
            channel_width: 12,
            switchbox: Switchbox::Mux2Tree,
            chain_len: 0,
            min_dims: (2, 2),
        };
        assert_eq!(p2.to_config(), shell_fabric::FabricConfig::openfpga_style());
    }

    #[test]
    fn validation_rejects_bad_grids() {
        let mut g = SweepGrid::tiny();
        g.lut_k.clear();
        assert!(g.validate().is_err());
        let mut g = SweepGrid::tiny();
        g.lut_k = vec![9];
        assert!(g.validate().is_err());
        let mut g = SweepGrid::tiny();
        g.min_dims = vec![(0, 2)];
        assert!(g.validate().is_err());
        let mut g = SweepGrid::tiny();
        g.chain_len = (0..70).collect();
        g.min_dims = vec![(2, 2); 4];
        assert!(g.validate().is_err(), "point-count cap");
    }
}
