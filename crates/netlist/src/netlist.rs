//! The flat gate-level netlist container.

use crate::cell::CellKind;
use crate::sim::Simulator;
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a net (a single-bit wire) inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

impl NetId {
    /// Dense index of this net.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Identifier of a cell inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl CellId {
    /// Dense index of this cell.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A single-bit wire. A net is driven either by a primary/key input or by
/// exactly one cell output.
#[derive(Debug, Clone)]
pub struct Net {
    /// Debug/Verilog name.
    pub name: String,
    /// The cell whose output drives this net, if any.
    pub driver: Option<CellId>,
}

/// A gate instance: a [`CellKind`] with ordered input nets and one output net.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Instance name.
    pub name: String,
    /// Cell function.
    pub kind: CellKind,
    /// Ordered input nets (see [`CellKind`] for per-kind conventions).
    pub inputs: Vec<NetId>,
    /// The net driven by this cell.
    pub output: NetId,
}

/// Errors produced by netlist construction and analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A cell was given the wrong number of inputs for its kind.
    ArityMismatch {
        /// Offending cell name.
        cell: String,
        /// The kind in question.
        kind: String,
        /// Number of inputs supplied.
        got: usize,
    },
    /// A net that already has a driver was driven again.
    MultipleDrivers {
        /// The doubly-driven net's name.
        net: String,
    },
    /// The combinational logic contains a cycle not broken by a DFF/latch.
    CombinationalCycle {
        /// Name of one cell on the cycle.
        witness: String,
    },
    /// A net has no driver and is not a primary or key input.
    UndrivenNet {
        /// The floating net's name.
        net: String,
    },
    /// A referenced id was out of range.
    InvalidId(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::ArityMismatch { cell, kind, got } => {
                write!(f, "cell `{cell}` of kind {kind} given {got} inputs")
            }
            NetlistError::MultipleDrivers { net } => {
                write!(f, "net `{net}` has multiple drivers")
            }
            NetlistError::CombinationalCycle { witness } => {
                write!(f, "combinational cycle through cell `{witness}`")
            }
            NetlistError::UndrivenNet { net } => write!(f, "net `{net}` has no driver"),
            NetlistError::InvalidId(what) => write!(f, "invalid identifier: {what}"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// A flat, single-clock gate-level netlist.
///
/// Ports are single bits; multi-bit buses are modeled as families of nets
/// named `bus[i]` (the [`crate::builder::NetlistBuilder`] manages this).
/// Key inputs are kept separate from primary inputs because every locking
/// flow and attack needs to distinguish them.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    cells: Vec<Cell>,
    inputs: Vec<NetId>,
    key_inputs: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
}

impl Netlist {
    /// Creates an empty netlist called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// The netlist's (module) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the netlist.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a fresh undriven net named `name`.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            name: name.into(),
            driver: None,
        });
        id
    }

    /// Declares a primary input and returns its net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.inputs.push(id);
        id
    }

    /// Declares a *key* input (the secret of a locked design) and returns
    /// its net.
    pub fn add_key_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.key_inputs.push(id);
        id
    }

    /// Declares `net` as a primary output named `name`.
    pub fn add_output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// Rebinds primary output `index` to `net` (keeps its name) — netlist
    /// surgery used by locking transformations and attack models that
    /// substitute an output cone.
    ///
    /// # Panics
    ///
    /// Panics when `index` or `net` is out of range.
    pub fn set_output_net(&mut self, index: usize, net: NetId) {
        assert!(net.index() < self.nets.len(), "invalid net");
        self.outputs[index].1 = net;
    }

    /// Adds a cell, creating a fresh output net named after the cell.
    ///
    /// Returns the output net.
    ///
    /// # Panics
    ///
    /// Panics if the input count is illegal for `kind` (use
    /// [`Netlist::try_add_cell`] for a fallible version).
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        kind: CellKind,
        inputs: Vec<NetId>,
    ) -> NetId {
        self.try_add_cell(name, kind, inputs)
            .expect("illegal cell construction")
    }

    /// Fallible variant of [`Netlist::add_cell`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] when the input count is
    /// illegal for `kind`, or [`NetlistError::InvalidId`] when an input net
    /// does not exist.
    pub fn try_add_cell(
        &mut self,
        name: impl Into<String>,
        kind: CellKind,
        inputs: Vec<NetId>,
    ) -> Result<NetId, NetlistError> {
        let name = name.into();
        if !kind.arity_ok(inputs.len()) {
            return Err(NetlistError::ArityMismatch {
                cell: name,
                kind: kind.to_string(),
                got: inputs.len(),
            });
        }
        for &i in &inputs {
            if i.index() >= self.nets.len() {
                return Err(NetlistError::InvalidId(format!("net {i}")));
            }
        }
        let out = self.add_net(name.clone());
        let cell_id = CellId(self.cells.len() as u32);
        self.nets[out.index()].driver = Some(cell_id);
        self.cells.push(Cell {
            name,
            kind,
            inputs,
            output: out,
        });
        Ok(out)
    }

    /// Adds a cell that drives an *existing* net `out` (used by the Verilog
    /// parser where wires are declared before the gates that drive them).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MultipleDrivers`] if `out` is already driven,
    /// plus the same errors as [`Netlist::try_add_cell`].
    pub fn add_cell_driving(
        &mut self,
        name: impl Into<String>,
        kind: CellKind,
        inputs: Vec<NetId>,
        out: NetId,
    ) -> Result<CellId, NetlistError> {
        let name = name.into();
        if !kind.arity_ok(inputs.len()) {
            return Err(NetlistError::ArityMismatch {
                cell: name,
                kind: kind.to_string(),
                got: inputs.len(),
            });
        }
        if out.index() >= self.nets.len() {
            return Err(NetlistError::InvalidId(format!("net {out}")));
        }
        if self.nets[out.index()].driver.is_some() || self.inputs.contains(&out) {
            return Err(NetlistError::MultipleDrivers {
                net: self.nets[out.index()].name.clone(),
            });
        }
        let cell_id = CellId(self.cells.len() as u32);
        self.nets[out.index()].driver = Some(cell_id);
        self.cells.push(Cell {
            name,
            kind,
            inputs,
            output: out,
        });
        Ok(cell_id)
    }

    /// Redirects input pin `pin` of `cell` to `new_net`.
    ///
    /// This is the primitive every locking transformation is built on
    /// (e.g. inserting a key-controlled MUX in front of a gate input).
    ///
    /// # Panics
    ///
    /// Panics when `cell`, `pin`, or `new_net` is out of range.
    pub fn rewire_input(&mut self, cell: CellId, pin: usize, new_net: NetId) {
        assert!(new_net.index() < self.nets.len(), "invalid net");
        let c = &mut self.cells[cell.index()];
        assert!(pin < c.inputs.len(), "invalid pin index");
        c.inputs[pin] = new_net;
    }

    /// Replaces the function of `cell` (keeping its connectivity) — used by
    /// the gate-to-LUT locking transformations of Fig. 1(a)/(b).
    ///
    /// # Panics
    ///
    /// Panics when the new kind's arity does not match the existing inputs.
    pub fn replace_kind(&mut self, cell: CellId, kind: CellKind) {
        let c = &mut self.cells[cell.index()];
        assert!(
            kind.arity_ok(c.inputs.len()),
            "replacement kind arity mismatch"
        );
        c.kind = kind;
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// All primary input nets in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// All key input nets in declaration order.
    pub fn key_inputs(&self) -> &[NetId] {
        &self.key_inputs
    }

    /// All primary outputs as `(name, net)` pairs.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// The cell with the given id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// The net with the given id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Iterator over `(CellId, &Cell)`.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// Iterator over `(NetId, &Net)`.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// `true` if `net` is a key input.
    pub fn is_key_input(&self, net: NetId) -> bool {
        self.key_inputs.contains(&net)
    }

    /// `true` if `net` appears among the primary outputs.
    pub fn is_primary_output(&self, net: NetId) -> bool {
        self.outputs.iter().any(|(_, n)| *n == net)
    }

    /// Finds a net by name (linear scan; intended for tests and parsing).
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n.name == name)
            .map(|i| NetId(i as u32))
    }

    /// Finds a cell by name (linear scan).
    pub fn find_cell(&self, name: &str) -> Option<CellId> {
        self.cells
            .iter()
            .position(|c| c.name == name)
            .map(|i| CellId(i as u32))
    }

    /// Fanout table: for every net, the list of `(cell, pin)` pairs that read
    /// it. Output index `net.index()`.
    pub fn fanout_table(&self) -> Vec<Vec<(CellId, usize)>> {
        let mut table = vec![Vec::new(); self.nets.len()];
        for (id, c) in self.cells() {
            for (pin, &n) in c.inputs.iter().enumerate() {
                table[n.index()].push((id, pin));
            }
        }
        table
    }

    /// All sequential cells (DFFs and latches).
    pub fn sequential_cells(&self) -> Vec<CellId> {
        self.cells()
            .filter(|(_, c)| c.kind.is_sequential())
            .map(|(id, _)| id)
            .collect()
    }

    /// `true` when the netlist contains no sequential cells.
    pub fn is_combinational(&self) -> bool {
        self.cells.iter().all(|c| !c.kind.is_sequential())
    }

    // ------------------------------------------------------------------
    // Ordering & validation
    // ------------------------------------------------------------------

    /// Topological order of the *combinational* cells: every combinational
    /// cell appears after the drivers of all its inputs. Sequential cell
    /// outputs and primary/key inputs count as sources; sequential cells are
    /// appended at the end (their inputs are sampled after combinational
    /// settling).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] when the combinational
    /// logic is cyclic.
    pub fn topo_order(&self) -> Result<Vec<CellId>, NetlistError> {
        let n = self.cells.len();
        let mut indeg = vec![0usize; n];
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (id, c) in self.cells() {
            if c.kind.is_sequential() {
                continue;
            }
            for &inp in &c.inputs {
                if let Some(drv) = self.nets[inp.index()].driver {
                    if !self.cells[drv.index()].kind.is_sequential() {
                        indeg[id.index()] += 1;
                        dependents[drv.index()].push(id.0);
                    }
                }
            }
        }
        let mut queue: VecDeque<u32> = (0..n as u32)
            .filter(|&i| !self.cells[i as usize].kind.is_sequential() && indeg[i as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(CellId(u));
            for &v in &dependents[u as usize] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push_back(v);
                }
            }
        }
        let comb_count = self
            .cells
            .iter()
            .filter(|c| !c.kind.is_sequential())
            .count();
        if order.len() != comb_count {
            let witness = self
                .cells()
                .find(|(id, c)| !c.kind.is_sequential() && indeg[id.index()] > 0)
                .map(|(_, c)| c.name.clone())
                .unwrap_or_default();
            return Err(NetlistError::CombinationalCycle { witness });
        }
        for (id, c) in self.cells() {
            if c.kind.is_sequential() {
                order.push(id);
            }
        }
        Ok(order)
    }

    /// Validates structural sanity: every net is driven by a cell or is an
    /// input, every output net exists, and the combinational logic is
    /// acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (id, net) in self.nets() {
            let is_port = self.inputs.contains(&id) || self.key_inputs.contains(&id);
            let read =
                self.cells.iter().any(|c| c.inputs.contains(&id)) || self.is_primary_output(id);
            if net.driver.is_none() && !is_port && read {
                return Err(NetlistError::UndrivenNet {
                    net: net.name.clone(),
                });
            }
        }
        for (_, net) in self.outputs.iter() {
            if net.index() >= self.nets.len() {
                return Err(NetlistError::InvalidId(format!("output net {net}")));
            }
        }
        self.topo_order().map(|_| ())
    }

    // ------------------------------------------------------------------
    // Convenience evaluation
    // ------------------------------------------------------------------

    /// Evaluates a purely combinational netlist on `pi` (primary inputs in
    /// declaration order), returning the outputs in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has key inputs (use
    /// [`Netlist::eval_comb_with_key`]), sequential cells, a combinational
    /// cycle, or if `pi.len()` mismatches the input count.
    pub fn eval_comb(&self, pi: &[bool]) -> Vec<bool> {
        assert!(
            self.key_inputs.is_empty(),
            "netlist has key inputs; use eval_comb_with_key"
        );
        self.eval_comb_with_key(pi, &[])
    }

    /// Evaluates a combinational netlist with explicit key bits, through a
    /// fresh [`Simulator`]. A caller that evaluates one netlist many times
    /// keeps a simulator instead.
    ///
    /// # Panics
    ///
    /// Panics on sequential cells, cycles, or arity mismatches.
    pub fn eval_comb_with_key(&self, pi: &[bool], key: &[bool]) -> Vec<bool> {
        assert!(self.is_combinational(), "netlist has sequential cells");
        Simulator::new(self).settle(pi, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_via_gates() -> Netlist {
        // f = (a & !b) | (!a & b)
        let mut n = Netlist::new("xor");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let na = n.add_cell("na", CellKind::Not, vec![a]);
        let nb = n.add_cell("nb", CellKind::Not, vec![b]);
        let t1 = n.add_cell("t1", CellKind::And, vec![a, nb]);
        let t2 = n.add_cell("t2", CellKind::And, vec![na, b]);
        let f = n.add_cell("f", CellKind::Or, vec![t1, t2]);
        n.add_output("f", f);
        n
    }

    #[test]
    fn build_and_eval_xor() {
        let n = xor_via_gates();
        assert_eq!(n.eval_comb(&[false, false]), vec![false]);
        assert_eq!(n.eval_comb(&[true, false]), vec![true]);
        assert_eq!(n.eval_comb(&[false, true]), vec![true]);
        assert_eq!(n.eval_comb(&[true, true]), vec![false]);
    }

    #[test]
    fn validate_ok() {
        assert!(xor_via_gates().validate().is_ok());
    }

    #[test]
    fn counts() {
        let n = xor_via_gates();
        assert_eq!(n.cell_count(), 5);
        assert_eq!(n.net_count(), 7);
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
        assert!(n.is_combinational());
    }

    #[test]
    fn key_inputs_tracked_separately() {
        let mut n = Netlist::new("k");
        let a = n.add_input("a");
        let k = n.add_key_input("k0");
        let f = n.add_cell("f", CellKind::Xor, vec![a, k]);
        n.add_output("f", f);
        assert_eq!(n.inputs().len(), 1);
        assert_eq!(n.key_inputs().len(), 1);
        assert!(n.is_key_input(k));
        assert!(!n.is_key_input(a));
        assert_eq!(n.eval_comb_with_key(&[true], &[true]), vec![false]);
        assert_eq!(n.eval_comb_with_key(&[true], &[false]), vec![true]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        let err = n.try_add_cell("x", CellKind::Not, vec![a, a]).unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { got: 2, .. }));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        let w = n.add_net("w");
        n.add_cell_driving("g1", CellKind::Buf, vec![a], w).unwrap();
        let err = n
            .add_cell_driving("g2", CellKind::Not, vec![a], w)
            .unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn driving_an_input_rejected() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        let err = n
            .add_cell_driving("g", CellKind::Const(true), vec![], a)
            .unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut n = Netlist::new("cyc");
        let a = n.add_input("a");
        let w = n.add_net("w");
        let g = n.add_cell("g", CellKind::And, vec![a, w]);
        // close the loop: w is driven by a NOT of g
        n.add_cell_driving("inv", CellKind::Not, vec![g], w)
            .unwrap();
        n.add_output("f", g);
        assert!(matches!(
            n.topo_order(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
        assert!(n.validate().is_err());
    }

    #[test]
    fn dff_breaks_cycles() {
        // A DFF in a feedback loop is fine: q = dff(not q).
        let mut n = Netlist::new("toggle");
        let q = n.add_net("q");
        let nq = n.add_cell("nq", CellKind::Not, vec![q]);
        n.add_cell_driving("ff", CellKind::Dff, vec![nq], q)
            .unwrap();
        n.add_output("q", q);
        assert!(n.topo_order().is_ok());
        assert!(!n.is_combinational());
        assert_eq!(n.sequential_cells().len(), 1);
    }

    #[test]
    fn undriven_read_net_invalid() {
        let mut n = Netlist::new("float");
        let w = n.add_net("floating");
        let f = n.add_cell("g", CellKind::Buf, vec![w]);
        n.add_output("f", f);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::UndrivenNet { .. })
        ));
    }

    #[test]
    fn unread_undriven_net_is_tolerated() {
        let mut n = Netlist::new("spare");
        n.add_net("spare");
        let a = n.add_input("a");
        let f = n.add_cell("f", CellKind::Buf, vec![a]);
        n.add_output("f", f);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn rewire_input_changes_function() {
        let mut n = Netlist::new("rw");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let f = n.add_cell("f", CellKind::Buf, vec![a]);
        n.add_output("f", f);
        let cell = n.find_cell("f").unwrap();
        assert_eq!(n.eval_comb(&[true, false]), vec![true]);
        n.rewire_input(cell, 0, b);
        assert_eq!(n.eval_comb(&[true, false]), vec![false]);
    }

    #[test]
    fn replace_kind_changes_function() {
        let mut n = Netlist::new("rk");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let f = n.add_cell("f", CellKind::And, vec![a, b]);
        n.add_output("f", f);
        let cell = n.find_cell("f").unwrap();
        n.replace_kind(cell, CellKind::Or);
        assert_eq!(n.eval_comb(&[true, false]), vec![true]);
    }

    #[test]
    fn fanout_table_correct() {
        let n = xor_via_gates();
        let a = n.find_net("a").unwrap();
        let table = n.fanout_table();
        // `a` feeds the NOT na and the AND t1.
        assert_eq!(table[a.index()].len(), 2);
    }

    #[test]
    fn find_by_name() {
        let n = xor_via_gates();
        assert!(n.find_net("a").is_some());
        assert!(n.find_net("zz").is_none());
        assert!(n.find_cell("t1").is_some());
        assert!(n.find_cell("zz").is_none());
    }

    #[test]
    fn set_output_net_rebinds() {
        let mut n = Netlist::new("o");
        let a = n.add_input("a");
        let b = n.add_input("b");
        n.add_output("f", a);
        assert_eq!(n.eval_comb(&[true, false]), vec![true]);
        n.set_output_net(0, b);
        assert_eq!(n.eval_comb(&[true, false]), vec![false]);
        assert_eq!(n.outputs()[0].0, "f", "name preserved");
    }

    #[test]
    fn display_ids() {
        assert_eq!(NetId(3).to_string(), "w3");
        assert_eq!(CellId(4).to_string(), "c4");
    }
}
