//! Netlist statistics used by reports and by fabric sizing heuristics.

use crate::netlist::Netlist;
use std::collections::BTreeMap;
use std::fmt;

/// Aggregate statistics of a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetlistStats {
    /// Primary input count.
    pub inputs: usize,
    /// Key input count.
    pub key_inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// Total cells.
    pub cells: usize,
    /// Total nets.
    pub nets: usize,
    /// Cells per mnemonic (`and`, `mux2`, `dff`, ...).
    pub by_kind: BTreeMap<&'static str, usize>,
    /// Sequential cell count (DFF + latch).
    pub sequential: usize,
    /// Multiplexer cell count (the ROUTE resources).
    pub muxes: usize,
    /// Longest combinational path in cell levels (logic depth).
    pub depth: usize,
}

impl NetlistStats {
    /// Computes statistics for `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if the combinational logic is cyclic.
    pub fn of(netlist: &Netlist) -> Self {
        let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut sequential = 0;
        let mut muxes = 0;
        for (_, c) in netlist.cells() {
            *by_kind.entry(c.kind.mnemonic()).or_insert(0) += 1;
            if c.kind.is_sequential() {
                sequential += 1;
            }
            if c.kind.is_mux() {
                muxes += 1;
            }
        }
        Self {
            inputs: netlist.inputs().len(),
            key_inputs: netlist.key_inputs().len(),
            outputs: netlist.outputs().len(),
            cells: netlist.cell_count(),
            nets: netlist.net_count(),
            by_kind,
            sequential,
            muxes,
            depth: logic_depth(netlist),
        }
    }

    /// Number of cells of a specific kind mnemonic.
    pub fn count(&self, mnemonic: &str) -> usize {
        self.by_kind.get(mnemonic).copied().unwrap_or(0)
    }

    /// Combinational cell count.
    pub fn combinational(&self) -> usize {
        self.cells - self.sequential
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pins: {} in / {} key / {} out; cells: {} ({} seq, depth {})",
            self.inputs, self.key_inputs, self.outputs, self.cells, self.sequential, self.depth
        )?;
        for (kind, count) in &self.by_kind {
            writeln!(f, "  {kind:8} {count}")?;
        }
        Ok(())
    }
}

/// Longest combinational path measured in cell levels. DFF/latch outputs and
/// primary/key inputs are level 0.
///
/// # Panics
///
/// Panics on combinational cycles.
pub fn logic_depth(netlist: &Netlist) -> usize {
    let order = netlist.topo_order().expect("cyclic netlist");
    let mut level = vec![0usize; netlist.net_count()];
    let mut max = 0;
    for id in order {
        let c = netlist.cell(id);
        if c.kind.is_sequential() {
            continue;
        }
        let lv = 1 + c.inputs.iter().map(|n| level[n.index()]).max().unwrap_or(0);
        level[c.output.index()] = lv;
        max = max.max(lv);
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    fn sample() -> Netlist {
        let mut n = Netlist::new("s");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let k = n.add_key_input("k");
        let x = n.add_cell("x", CellKind::Xor, vec![a, k]);
        let y = n.add_cell("y", CellKind::And, vec![x, b]);
        let m = n.add_cell("m", CellKind::Mux2, vec![k, x, y]);
        let q = n.add_cell("q", CellKind::Dff, vec![m]);
        n.add_output("q", q);
        n
    }

    #[test]
    fn stats_counts() {
        let s = NetlistStats::of(&sample());
        assert_eq!(s.inputs, 2);
        assert_eq!(s.key_inputs, 1);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.cells, 4);
        assert_eq!(s.sequential, 1);
        assert_eq!(s.muxes, 1);
        assert_eq!(s.count("xor"), 1);
        assert_eq!(s.count("zzz"), 0);
        assert_eq!(s.combinational(), 3);
    }

    #[test]
    fn depth_counts_levels() {
        // a->x (1), x&b->y (2), mux (3)
        let s = NetlistStats::of(&sample());
        assert_eq!(s.depth, 3);
    }

    #[test]
    fn depth_zero_for_wires_only() {
        let mut n = Netlist::new("w");
        let a = n.add_input("a");
        n.add_output("f", a);
        assert_eq!(logic_depth(&n), 0);
    }

    #[test]
    fn display_contains_counts() {
        let s = NetlistStats::of(&sample());
        let text = s.to_string();
        assert!(text.contains("cells: 4"));
        assert!(text.contains("mux2"));
    }
}
