//! A Skywater-130nm-flavoured standard-cell library and the area/power/delay
//! model behind Tables IV–VII.
//!
//! The paper's numbers come from Cadence Genus/Innovus on the open SkyWater
//! 130 nm PDK; here a cell-level cost model calibrated to public sky130
//! typicals plays that role. Because every experiment reports overheads as
//! *ratios* (locked / original), a consistent relative model reproduces the
//! trends without the proprietary flow.
//!
//! Units: area in µm², delay in ns per cell stage, leakage in nW, dynamic
//! energy in fJ per toggle (converted to µW at the default activity and
//! clock).

use shell_netlist::{CellKind, Netlist};

/// Per-kind cost entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellCost {
    /// Area in µm².
    pub area: f64,
    /// Propagation delay in ns.
    pub delay: f64,
    /// Leakage power in nW.
    pub leakage: f64,
    /// Dynamic energy per output toggle in fJ.
    pub dynamic: f64,
}

/// Area/power/delay evaluation of a netlist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApdReport {
    /// Total cell area, µm².
    pub area: f64,
    /// Total power (leakage + dynamic at the default activity), µW.
    pub power: f64,
    /// Critical-path delay, ns.
    pub delay: f64,
}

impl ApdReport {
    /// Component-wise ratio `self / baseline` — the normalized overhead
    /// format of Tables IV–VII.
    pub fn normalized_to(&self, baseline: &ApdReport) -> ApdReport {
        ApdReport {
            area: self.area / baseline.area.max(f64::MIN_POSITIVE),
            power: self.power / baseline.power.max(f64::MIN_POSITIVE),
            delay: self.delay / baseline.delay.max(f64::MIN_POSITIVE),
        }
    }
}

/// The technology library: per-kind costs plus global assumptions.
#[derive(Debug, Clone, PartialEq)]
pub struct TechLibrary {
    /// Switching activity factor used for dynamic power (fraction of cells
    /// toggling per cycle).
    pub activity: f64,
    /// Clock frequency in MHz for dynamic power conversion.
    pub clock_mhz: f64,
    /// Area multiplier for MUX cells, modeling the FABulous custom-cell
    /// optimization \[21\] (1.0 = plain std cells).
    pub mux_cell_factor: f64,
}

impl TechLibrary {
    /// sky130-flavoured default library (plain standard cells).
    pub fn sky130() -> Self {
        Self {
            activity: 0.1,
            clock_mhz: 100.0,
            mux_cell_factor: 1.0,
        }
    }

    /// sky130 with the FABulous custom mux/chain cells (≈30 % smaller and
    /// slightly faster switch muxes).
    pub fn sky130_custom_cells() -> Self {
        Self {
            mux_cell_factor: 0.7,
            ..Self::sky130()
        }
    }

    /// Cost entry for one cell kind with `fanin` inputs.
    ///
    /// Base figures follow sky130_fd_sc_hd typicals: a NAND2 is ≈1.25 µm²
    /// GE with ~0.06 ns stage delay; larger gates, muxes and storage scale
    /// accordingly.
    pub fn cost(&self, kind: CellKind, fanin: usize) -> CellCost {
        let ge = 1.25; // gate-equivalent area, µm²

        match kind {
            CellKind::Not => CellCost {
                area: 0.75 * ge,
                delay: 0.03,
                leakage: 1.0,
                dynamic: 1.0,
            },
            CellKind::Buf => CellCost {
                area: 0.9 * ge,
                delay: 0.04,
                leakage: 1.1,
                dynamic: 1.1,
            },
            CellKind::And | CellKind::Nand | CellKind::Or | CellKind::Nor => {
                let n = fanin.max(2) as f64;
                CellCost {
                    area: (0.8 + 0.45 * n) * ge,
                    delay: 0.05 + 0.012 * n,
                    leakage: 1.2 + 0.4 * n,
                    dynamic: 1.3 + 0.5 * n,
                }
            }
            CellKind::Xor | CellKind::Xnor => {
                let n = fanin.max(2) as f64;
                CellCost {
                    area: (1.2 + 1.1 * (n - 1.0)) * ge,
                    delay: 0.08 + 0.03 * (n - 1.0),
                    leakage: 2.0 + 0.9 * n,
                    dynamic: 2.4 + 1.1 * n,
                }
            }
            CellKind::Mux2 => CellCost {
                area: 2.2 * ge * self.mux_cell_factor,
                delay: 0.07 * (0.5 + 0.5 * self.mux_cell_factor),
                leakage: 2.2,
                dynamic: 2.0,
            },
            CellKind::Mux4 => CellCost {
                area: 4.6 * ge * self.mux_cell_factor,
                delay: 0.11 * (0.5 + 0.5 * self.mux_cell_factor),
                leakage: 4.0,
                dynamic: 3.6,
            },
            CellKind::Lut(mask) => {
                // A k-LUT is a 2^k-bit storage plus read mux tree.
                let rows = (1usize << mask.arity()) as f64;
                CellCost {
                    area: (rows * 1.6 + mask.arity() as f64 * 1.2) * ge,
                    delay: 0.09 + 0.02 * mask.arity() as f64,
                    leakage: rows * 1.4,
                    dynamic: rows * 0.5,
                }
            }
            CellKind::Dff => CellCost {
                area: 4.5 * ge,
                delay: 0.12,
                leakage: 5.0,
                dynamic: 4.2,
            },
            CellKind::Latch => CellCost {
                area: 2.6 * ge,
                delay: 0.08,
                leakage: 2.8,
                dynamic: 2.4,
            },
            CellKind::Const(_) => CellCost {
                area: 0.0,
                delay: 0.0,
                leakage: 0.0,
                dynamic: 0.0,
            },
        }
    }

    /// Evaluates a netlist: total area, power at the library's default
    /// activity/clock, and critical-path delay (longest register-to-register
    /// or port-to-port combinational path by per-cell delays).
    ///
    /// # Panics
    ///
    /// Panics on combinationally cyclic netlists.
    pub fn evaluate(&self, netlist: &Netlist) -> ApdReport {
        let mut area = 0.0;
        let mut leakage = 0.0;
        let mut dynamic_fj = 0.0;
        for (_, c) in netlist.cells() {
            let cost = self.cost(c.kind, c.inputs.len());
            area += cost.area;
            leakage += cost.leakage;
            dynamic_fj += cost.dynamic;
        }
        // Dynamic power: energy/toggle × activity × f. fJ × MHz = nW.
        let dynamic_nw = dynamic_fj * self.activity * self.clock_mhz;
        let power = (leakage + dynamic_nw) / 1000.0; // µW

        // Critical path via per-cell delays.
        let order = netlist.topo_order().expect("cyclic netlist");
        let mut arrival = vec![0.0f64; netlist.net_count()];
        let mut worst: f64 = 0.0;
        for id in order {
            let c = netlist.cell(id);
            if c.kind.is_sequential() {
                continue;
            }
            let input_arrival = c
                .inputs
                .iter()
                .map(|n| arrival[n.index()])
                .fold(0.0f64, f64::max);
            let t = input_arrival + self.cost(c.kind, c.inputs.len()).delay;
            arrival[c.output.index()] = t;
            worst = worst.max(t);
        }
        // Register setup paths.
        for cid in netlist.sequential_cells() {
            let c = netlist.cell(cid);
            for &inp in &c.inputs {
                worst = worst.max(arrival[inp.index()]);
            }
        }
        ApdReport {
            area,
            power,
            delay: worst,
        }
    }
}

impl Default for TechLibrary {
    fn default() -> Self {
        Self::sky130()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_netlist::{LutMask, Netlist, NetlistBuilder};

    fn and_chain(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let c = b.input("c");
        let mut cur = a;
        for _ in 0..n {
            cur = b.and2(cur, c);
        }
        b.output("f", cur);
        b.finish()
    }

    #[test]
    fn larger_circuits_cost_more() {
        let lib = TechLibrary::sky130();
        let small = lib.evaluate(&and_chain(4));
        let large = lib.evaluate(&and_chain(16));
        assert!(large.area > small.area);
        assert!(large.power > small.power);
        assert!(large.delay > small.delay);
    }

    #[test]
    fn delay_tracks_depth_not_just_count() {
        let lib = TechLibrary::sky130();
        // Wide but shallow vs narrow but deep, same cell count.
        let mut wide = NetlistBuilder::new("wide");
        let ins: Vec<_> = (0..16).map(|i| wide.input(&format!("i{i}"))).collect();
        let mut outs = Vec::new();
        for pair in ins.chunks(2) {
            outs.push(wide.and2(pair[0], pair[1]));
        }
        for (i, o) in outs.iter().enumerate() {
            wide.output(&format!("o{i}"), *o);
        }
        let wide = wide.finish();
        let deep = and_chain(8);
        let rw = lib.evaluate(&wide);
        let rd = lib.evaluate(&deep);
        assert!((rw.area - rd.area).abs() / rd.area < 0.01, "equal-ish area");
        assert!(rd.delay > 2.0 * rw.delay, "depth dominates delay");
    }

    #[test]
    fn custom_cells_shrink_muxes_only() {
        let std = TechLibrary::sky130();
        let custom = TechLibrary::sky130_custom_cells();
        let m_std = std.cost(CellKind::Mux4, 6);
        let m_c = custom.cost(CellKind::Mux4, 6);
        assert!(m_c.area < m_std.area);
        assert!(m_c.delay < m_std.delay);
        let a_std = std.cost(CellKind::And, 2);
        let a_c = custom.cost(CellKind::And, 2);
        assert_eq!(a_std.area, a_c.area);
    }

    #[test]
    fn lut_cost_grows_with_arity() {
        let lib = TechLibrary::sky130();
        let l2 = lib.cost(CellKind::Lut(LutMask::new(0, 2)), 2);
        let l6 = lib.cost(CellKind::Lut(LutMask::new(0, 6)), 6);
        assert!(l6.area > 4.0 * l2.area, "LUT area is storage-dominated");
    }

    #[test]
    fn const_cells_free() {
        let lib = TechLibrary::sky130();
        let c = lib.cost(CellKind::Const(true), 0);
        assert_eq!(c.area, 0.0);
        assert_eq!(c.delay, 0.0);
    }

    #[test]
    fn normalized_overhead_ratios() {
        let lib = TechLibrary::sky130();
        let base = lib.evaluate(&and_chain(4));
        let locked = lib.evaluate(&and_chain(8));
        let norm = locked.normalized_to(&base);
        assert!(norm.area > 1.0);
        assert!(norm.delay > 1.0);
        let unity = base.normalized_to(&base);
        assert!((unity.area - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_paths_counted() {
        let lib = TechLibrary::sky130();
        // comb cone into a DFF: delay must include the cone.
        let mut b = NetlistBuilder::new("seq");
        let a = b.input("a");
        let c = b.input("c");
        let mut cur = a;
        for _ in 0..6 {
            cur = b.xor2(cur, c);
        }
        let q = b.dff(cur);
        b.output("q", q);
        let n = b.finish();
        let r = lib.evaluate(&n);
        assert!(r.delay > 0.4, "6 XOR stages ≈ ≥0.48 ns, got {}", r.delay);
    }
}
