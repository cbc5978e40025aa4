//! Step 8 of the SheLL flow: shrinking reconfigurability and size.
//!
//! Once FABulous has mapped the ROUTE and LGC sub-circuits and a bitstream
//! exists, SheLL *physically removes* the resources the bitstream does not
//! use — unused MUX-chain elements, LUTs and configuration storage — so
//! that an attacker cannot pre-process the design by, e.g., ruling out
//! combinational stateful cycles \[11\]. In netlist terms: configuration bits
//! outside the *used* mask are bound to their constant default values, the
//! logic they controlled constant-propagates away, and only the load-bearing
//! key bits remain.

use crate::bitstream::Bitstream;
use shell_graph::{for_each_scc, mark_dead_end, NodeId, SccBuffers};
use shell_netlist::{CellId, CellKind, NetId, Netlist};
use shell_synth::{
    clean_netlist, propagate_constants_cyclic, rebuild_resolved, resolve, resolve_cell, Resolution,
    CYCLIC_PROPAGATION_ROUNDS,
};
use std::collections::BTreeSet;

/// Binds **all** key inputs of `locked` to constant values, producing an
/// unkeyed netlist (used to activate a locked design for comparison).
///
/// # Panics
///
/// Panics when `values.len()` differs from the key count.
pub fn bind_keys(locked: &Netlist, values: &[bool]) -> Netlist {
    assert_eq!(
        values.len(),
        locked.key_inputs().len(),
        "key width mismatch"
    );
    rebind(locked, |i| Some(values[i]))
}

/// Shrinks a locked fabric netlist: key bits whose position is *not* marked
/// used in `bitstream` are fixed to their bitstream values (the defaults the
/// hardware would be tied to), while used bits stay secret key inputs. The
/// result is cleaned, removing the dead reconfigurability — including any
/// combinational routing cycles through unused switches.
///
/// Returns the shrunk netlist; its key inputs are exactly the used bits, in
/// ascending bit order.
///
/// # Panics
///
/// Panics when the bitstream length differs from the key count.
pub fn shrink_locked_netlist(locked: &Netlist, bitstream: &Bitstream) -> Netlist {
    let shrunk = tie_off_unused(locked, bitstream);
    // Residual structural cycles may survive through *used* key muxes (their
    // alternatives stay in hardware for secrecy). The defender knows the
    // true key, so any cycle-forming alternative that the correct
    // configuration does not select can be physically removed without
    // weakening the secret — the paper's "removal of combinational stateful
    // cycles" motivation for step 8.
    let true_key: Vec<bool> = (0..bitstream.len())
        .filter(|&i| bitstream.is_used(i))
        .map(|i| bitstream.bit(i))
        .collect();
    defender_cycle_cut(shrunk, &true_key).netlist
}

/// The first half of [`shrink_locked_netlist`]: key bits not marked used in
/// `bitstream` are bound to their bitstream values and the result is
/// propagated, leaving the used bits as key inputs.
///
/// # Panics
///
/// Panics when the bitstream length differs from the key count.
pub fn tie_off_unused(locked: &Netlist, bitstream: &Bitstream) -> Netlist {
    assert_eq!(
        bitstream.len(),
        locked.key_inputs().len(),
        "bitstream/key width mismatch"
    );
    rebind(locked, |i| {
        if bitstream.is_used(i) {
            None // stays a key input
        } else {
            Some(bitstream.bit(i))
        }
    })
}

/// What [`defender_cycle_cut`] returns.
#[derive(Debug, Clone)]
pub struct CycleCut {
    /// The netlist after the cuts.
    pub netlist: Netlist,
    /// Every cut in the order it was made: the name of the cut mux and the
    /// data pin tied to constant 0.
    pub cuts: Vec<(String, usize)>,
}

/// Cuts cycle-forming mux alternatives that the true key never selects.
///
/// While the netlist has combinational cycles, each step cuts, in every
/// cyclic strongly connected component, the first key-selected `Mux2` or
/// `Mux4` data pin that the true key leaves unselected and whose driver lies
/// in the component: the pin is tied to a new constant-0 cell appended to
/// the netlist, and [`propagate_constants_cyclic`] runs. It stops when the
/// netlist is acyclic, when no component offers such a pin, or after one
/// step per cell; an acyclic result is cleaned.
///
/// That loop would rebuild the whole netlist after every step. This
/// function replays it exactly and builds a netlist once, at the end: the
/// input netlist stays fixed except for the appended constant cells, net
/// resolutions accumulate across steps, each propagation re-evaluates only
/// the cells a cut can change, and the cell graph Tarjan runs on is kept
/// across steps, moving each cut pin's edge unless the propagation resolved
/// more than the cut constants (see DESIGN.md, "Shrinking"). The rebuilding
/// loop itself is kept in the test crate as the oracle.
pub fn defender_cycle_cut(netlist: Netlist, true_key: &[bool]) -> CycleCut {
    debug_assert_eq!(true_key.len(), netlist.key_inputs().len());
    let max_steps = netlist.cell_count().max(1);
    let mut replay = Replay::new(netlist, true_key);
    let mut passes = Passes::default();
    let mut cuts = Vec::new();
    let mut steps = 0u64;
    for _ in 0..max_steps {
        steps += 1;
        let Some(picked) = replay.pick_cuts(&mut passes) else {
            break; // acyclic
        };
        if picked.is_empty() {
            break; // nothing safely cuttable; report cycles as-is
        }
        for cut in &picked {
            cuts.push((replay.netlist.cell(cut.cell).name.clone(), cut.pin));
            replay.cut(cut.cell, cut.pin);
        }
        let resolved = replay.propagate();
        replay.update_graph(&picked, resolved);
    }
    shell_trace::counter_add("shrink.steps", steps);
    shell_trace::counter_add("shrink.cycle_cuts", cuts.len() as u64);
    shell_trace::counter_add("shrink.scc_nodes", passes.visited);
    let netlist = if cuts.is_empty() {
        replay.netlist
    } else {
        rebuild_resolved(&replay.netlist, &replay.res)
    };
    let netlist = if netlist.topo_order().is_ok() {
        clean_netlist(&netlist)
    } else {
        netlist
    };
    CycleCut { netlist, cuts }
}

/// What the Tarjan passes of one [`defender_cycle_cut`] keep across steps.
#[derive(Default)]
struct Passes {
    buffers: SccBuffers,
    /// Per cell-graph node: it reaches no cyclic component, and no later
    /// step's graph changes that, so the passes skip it. Only the ties gain
    /// edges, so they are never marked (see DESIGN.md, "Shrinking").
    dead: Vec<bool>,
    /// Per node: a member of the component being searched for a cut.
    member: Vec<bool>,
    /// Nodes the passes visited.
    visited: u64,
}

/// One cut a step picks: `pin` of `cell`, read from cell-graph node `driver`.
struct Cut {
    cell: CellId,
    pin: usize,
    driver: NodeId,
}

/// The cell-graph nodes of the `tie0` and `tie1` cells; cell `i` is node
/// `i + 2`.
const TIES: [NodeId; 2] = [NodeId(0), NodeId(1)];

fn node(cell: CellId) -> NodeId {
    NodeId(cell.0 + 2)
}

fn cell_of(node: NodeId) -> Option<CellId> {
    node.0.checked_sub(2).map(CellId)
}

/// The cell-graph node driving a pin whose net resolves to `r`: a tie for a
/// constant, else the net's driver unless that is sequential.
fn driver(netlist: &Netlist, r: Resolution) -> Option<NodeId> {
    match r {
        Resolution::Const(v) => Some(TIES[v as usize]),
        Resolution::Alias(root) => netlist
            .net(root)
            .driver
            .filter(|&d| !netlist.cell(d).kind.is_sequential())
            .map(node),
        Resolution::Unknown => unreachable!("resolve never returns Unknown"),
    }
}

/// The state [`defender_cycle_cut`] carries instead of a rebuilt netlist.
///
/// The netlist the rebuilding loop holds after any number of steps is
/// `rebuild_resolved(&netlist, &res)`: its cells are the cells here whose
/// output is still `Unknown` (and the sequential ones), in the same order
/// and with the same names, plus one `tie0`/`tie1` cell right before the
/// first of them that reads that constant.
struct Replay {
    /// The input netlist plus one appended constant-0 cell per cut.
    netlist: Netlist,
    /// Resolution of every net, accumulated over all propagations.
    res: Vec<Resolution>,
    /// Per net: the cells reading it. A cut pin stays listed under the net
    /// it read before; evaluating a cell needlessly changes nothing.
    readers: Vec<Vec<CellId>>,
    /// Per net: the nets resolved as an alias of it.
    aliased_by: Vec<Vec<NetId>>,
    /// Cells the next propagation evaluates in its first round.
    dirty: BTreeSet<CellId>,
    /// Per net: the true-key value of a key input.
    key_value: Vec<Option<bool>>,
    /// The rebuilt netlist's combinational cell graph, the one the
    /// rebuilding loop runs Tarjan on: per node, one entry per input pin of
    /// a combinational kept cell that the node drives, sorted by reader. So
    /// each list is in reader order, then pin order, and the entries of one
    /// reader are equal and adjacent.
    succ: Vec<Vec<NodeId>>,
    /// The rebuilt netlist's cells, in order, without the ties.
    kept: Vec<CellId>,
    /// Per constant: the first (cell, pin) of `kept` reading it, before
    /// which the rebuilt netlist has its tie cell.
    tie_reader: [Option<(CellId, usize)>; 2],
}

impl Replay {
    fn new(netlist: Netlist, true_key: &[bool]) -> Replay {
        let mut readers = vec![Vec::new(); netlist.net_count()];
        for (id, c) in netlist.cells() {
            for &n in &c.inputs {
                readers[n.index()].push(id);
            }
        }
        let mut key_value = vec![None; netlist.net_count()];
        for (&k, &v) in netlist.key_inputs().iter().zip(true_key) {
            key_value[k.index()] = Some(v);
        }
        let mut replay = Replay {
            res: vec![Resolution::Unknown; netlist.net_count()],
            aliased_by: vec![Vec::new(); netlist.net_count()],
            // A fresh propagation evaluates every cell in its first round.
            dirty: netlist.cells().map(|(id, _)| id).collect(),
            readers,
            key_value,
            netlist,
            succ: Vec::new(),
            kept: Vec::new(),
            tie_reader: [None, None],
        };
        replay.build_graph();
        replay
    }

    /// Builds the cell graph from the netlist and the resolutions.
    fn build_graph(&mut self) {
        let Replay {
            netlist,
            res,
            succ,
            kept,
            tie_reader,
            ..
        } = self;
        succ.resize_with(netlist.cell_count() + TIES.len(), Vec::new);
        succ.iter_mut().for_each(Vec::clear);
        kept.clear();
        *tie_reader = [None, None];
        for (id, c) in netlist.cells() {
            let sequential = c.kind.is_sequential();
            if !sequential && res[c.output.index()] != Resolution::Unknown {
                continue;
            }
            kept.push(id);
            for (pin, &n) in c.inputs.iter().enumerate() {
                let r = resolve(res, n);
                if let Resolution::Const(v) = r {
                    tie_reader[v as usize].get_or_insert((id, pin));
                }
                if let Some(d) = driver(netlist, r).filter(|_| !sequential) {
                    succ[d.index()].push(node(id));
                }
            }
        }
    }

    /// Brings the cell graph up to date after a step's `cuts` and a
    /// propagation that resolved `resolved` cells. The cut constants always
    /// resolve; when nothing else did, each cut pin reads constant 0 now and
    /// its entry moves from its old driver's list to `tie0`'s. Any other
    /// resolution drops a node and redirects its readers, so the graph is
    /// built again.
    fn update_graph(&mut self, cuts: &[Cut], resolved: usize) {
        if resolved > cuts.len() {
            self.build_graph();
            return;
        }
        for cut in cuts {
            let reader = node(cut.cell);
            let from = &mut self.succ[cut.driver.index()];
            let at = from.partition_point(|&r| r < reader);
            debug_assert_eq!(from.get(at), Some(&reader));
            from.remove(at);
            let to = &mut self.succ[TIES[0].index()];
            to.insert(to.partition_point(|&r| r < reader), reader);
            let first = &mut self.tie_reader[0];
            if first.is_none_or(|f| (cut.cell, cut.pin) < f) {
                *first = Some((cut.cell, cut.pin));
            }
        }
    }

    /// The rebuilt netlist's cells as DFS roots, in its cell order: the kept
    /// cells, each tie right before its first reader, and two ties before
    /// one cell in that cell's pin order.
    fn roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut ties = [0, 1].map(|v| (self.tie_reader[v], TIES[v]));
        ties.sort_unstable();
        self.kept.iter().flat_map(move |&cell| {
            ties.into_iter()
                .filter(move |(r, _)| r.is_some_and(|(c, _)| c == cell))
                .map(|(_, tie)| tie)
                .chain(std::iter::once(node(cell)))
        })
    }

    /// The step's cuts: `None` when the rebuilt netlist is acyclic, else
    /// the first cuttable pin of each cyclic component, in component order.
    /// The pass skips the nodes `passes` has marked dead and marks those it
    /// finds.
    fn pick_cuts(&self, passes: &mut Passes) -> Option<Vec<Cut>> {
        let mut cyclic = false;
        let mut picked = Vec::new();
        let Passes {
            buffers,
            dead,
            member,
            visited,
        } = passes;
        dead.resize(self.succ.len(), false);
        member.resize(self.succ.len(), false);
        *visited += for_each_scc(
            buffers,
            dead,
            self.roots(),
            |u| self.succ[u.index()].as_slice(),
            |comp, dead| {
                if let [u] = *comp {
                    let succs = self.succ[u.index()].as_slice();
                    if !succs.contains(&u) {
                        // A cut gives `tie0` a new edge, which can lead
                        // into a cycle.
                        if !TIES.contains(&u) {
                            mark_dead_end(dead, u, succs);
                        }
                        return;
                    }
                }
                cyclic = true;
                comp.iter().for_each(|n| member[n.index()] = true);
                let cut = comp.iter().find_map(|&node| {
                    let cell = cell_of(node)?;
                    let inputs = &self.netlist.cell(cell).inputs;
                    self.dead_pins(cell).find_map(|pin| {
                        let driver = driver(&self.netlist, resolve(&self.res, inputs[pin]))?;
                        member[driver.index()].then_some(Cut { cell, pin, driver })
                    })
                });
                picked.extend(cut);
                comp.iter().for_each(|n| member[n.index()] = false);
            },
        ) as u64;
        cyclic.then_some(picked)
    }

    /// Data pins of a key-selected mux that the true key never selects, in
    /// pin order: one of a `Mux2`; two of a `Mux4` with one keyed select,
    /// three with two. None for any other cell.
    fn dead_pins(&self, cell: CellId) -> impl Iterator<Item = usize> {
        let c = self.netlist.cell(cell);
        let key = |pin: usize| match resolve(&self.res, c.inputs[pin]) {
            Resolution::Alias(n) => self.key_value.get(n.index()).copied().flatten(),
            _ => None,
        };
        // Bit `p` set: pin `p` is dead.
        let dead: u8 = match c.kind {
            CellKind::Mux2 => match key(0) {
                Some(kv) => 1 << if kv { 1 } else { 2 },
                None => 0,
            },
            CellKind::Mux4 => match (key(0), key(1)) {
                (Some(h), Some(l)) => 0b11_1100 & !(1 << (2 + ((h as u8) << 1) + l as u8)),
                (Some(h), None) => {
                    if h {
                        0b00_1100
                    } else {
                        0b11_0000
                    }
                }
                (None, Some(l)) => {
                    if l {
                        0b01_0100
                    } else {
                        0b10_1000
                    }
                }
                (None, None) => 0,
            },
            _ => 0,
        };
        (1..6).filter(move |&pin| dead >> pin & 1 == 1)
    }

    /// Ties `pin` of `cell` to a new constant-0 cell appended at the end,
    /// as the rebuilding loop does: the pin reads an undecided net in the
    /// next propagation's first round and 0 from its second. The constant
    /// cell's first-round evaluation schedules the mux for the second; in
    /// the first, a keyed mux with an undecided data pin cannot resolve.
    fn cut(&mut self, cell: CellId, pin: usize) {
        let zero = self.netlist.add_cell(
            format!("shrink_cut_{}", cell.index()),
            CellKind::Const(false),
            vec![],
        );
        self.netlist.rewire_input(cell, pin, zero);
        self.res.push(Resolution::Unknown);
        self.readers.push(vec![cell]);
        self.aliased_by.push(Vec::new());
        let zero_cell = self
            .netlist
            .net(zero)
            .driver
            .expect("cut cell drives its net");
        self.dirty.insert(zero_cell);
    }

    /// Propagates the way a fresh [`propagate_constants_cyclic`] call on the
    /// rebuilt netlist would: rounds over the cells in order, each cell
    /// seeing the resolutions made before it in its round, until a round
    /// changes nothing or [`CYCLIC_PROPAGATION_ROUNDS`] rounds have run. A
    /// cell none of whose inputs changed since its last evaluation would
    /// evaluate the same, so only the others are evaluated: later in the
    /// same round when they come after the change, in the next otherwise.
    /// What the round cap leaves pending opens the next propagation.
    /// Returns how many cells it resolved.
    fn propagate(&mut self) -> usize {
        let mut this_round = std::mem::take(&mut self.dirty);
        let mut next_round = BTreeSet::new();
        let mut resolved = 0;
        for _ in 0..CYCLIC_PROPAGATION_ROUNDS {
            let resolved_before = resolved;
            while let Some(cell) = this_round.pop_first() {
                let Some(out) = self.evaluate(cell) else {
                    continue;
                };
                resolved += 1;
                // Readers of `out` and of every net aliased to it see a
                // new value.
                let mut nets = vec![out];
                while let Some(net) = nets.pop() {
                    for &reader in &self.readers[net.index()] {
                        if reader > cell {
                            this_round.insert(reader);
                        } else {
                            next_round.insert(reader);
                        }
                    }
                    nets.extend_from_slice(&self.aliased_by[net.index()]);
                }
            }
            if resolved == resolved_before {
                break;
            }
            std::mem::swap(&mut this_round, &mut next_round);
        }
        self.dirty = this_round;
        resolved
    }

    /// Applies the per-cell rule to `cell`; returns its output net when
    /// that net got resolved.
    fn evaluate(&mut self, cell: CellId) -> Option<NetId> {
        let c = self.netlist.cell(cell);
        if !c.kind.is_sequential() && self.res[c.output.index()] == Resolution::Unknown {
            let vals: Vec<Resolution> = c.inputs.iter().map(|&n| resolve(&self.res, n)).collect();
            let new = resolve_cell(c.kind, c.output, &vals);
            if new != Resolution::Unknown {
                let out = c.output;
                self.res[out.index()] = new;
                if let Resolution::Alias(root) = new {
                    self.aliased_by[root.index()].push(out);
                }
                return Some(out);
            }
        }
        None
    }
}

/// Rebuilds `locked` with each key input either kept (`None`) or bound to a
/// constant (`Some(v)`), then cleans the result.
fn rebind(locked: &Netlist, mut binding: impl FnMut(usize) -> Option<bool>) -> Netlist {
    let mut out = Netlist::new(format!("{}_shrunk", locked.name()));
    let mut map: Vec<Option<NetId>> = vec![None; locked.net_count()];
    for &n in locked.inputs() {
        map[n.index()] = Some(out.add_input(locked.net(n).name.clone()));
    }
    let mut const_nets: [Option<NetId>; 2] = [None, None];
    for (i, &k) in locked.key_inputs().iter().enumerate() {
        match binding(i) {
            None => {
                map[k.index()] = Some(out.add_key_input(locked.net(k).name.clone()));
            }
            Some(v) => {
                let net = if let Some(n) = const_nets[v as usize] {
                    n
                } else {
                    let n = out.add_cell(
                        format!("tie{}", v as u8),
                        CellKind::Const(v),
                        vec![],
                    );
                    const_nets[v as usize] = Some(n);
                    n
                };
                map[k.index()] = Some(net);
            }
        }
    }
    // Copy every cell verbatim; the netlist may be cyclic, so pre-create all
    // cell output nets before wiring inputs.
    for (_, c) in locked.cells() {
        if map[c.output.index()].is_none() {
            map[c.output.index()] = Some(out.add_net(locked.net(c.output).name.clone()));
        }
    }
    for (_, c) in locked.cells() {
        let ins: Vec<NetId> = c
            .inputs
            .iter()
            .map(|n| {
                if let Some(m) = map[n.index()] {
                    m
                } else {
                    // Floating net read by a cell.
                    let m = out.add_net(locked.net(*n).name.clone());
                    map[n.index()] = Some(m);
                    m
                }
            })
            .collect();
        let target = map[c.output.index()].expect("pre-created");
        out.add_cell_driving(c.name.clone(), c.kind, ins, target)
            .expect("rebind copy");
    }
    for (name, n) in locked.outputs() {
        let m = map[n.index()].expect("output mapped");
        out.add_output(name.clone(), m);
    }
    // The bound netlist is generally still *structurally* cyclic (the mux
    // mesh references itself); the cycle-tolerant constant propagation
    // collapses configured paths to wires, after which ordinary cleaning
    // applies. If genuinely keyed loops survive, the partially-simplified
    // netlist is returned and callers treat cycle count as a metric.
    let propagated = propagate_constants_cyclic(&out);
    if propagated.topo_order().is_ok() {
        clean_netlist(&propagated)
    } else {
        propagated
    }
}

/// Counts combinational cycles (cyclic SCC components) in a netlist's cell
/// graph — the pre-processing signal an attacker uses and the quantity the
/// shrink ablation reports.
pub fn combinational_cycle_count(netlist: &Netlist) -> usize {
    use shell_graph::DiGraph;
    let mut g: DiGraph<()> = DiGraph::with_capacity(netlist.cell_count());
    let nodes: Vec<_> = netlist.cells().map(|_| g.add_node(())).collect();
    for (id, c) in netlist.cells() {
        if c.kind.is_sequential() {
            continue;
        }
        for &inp in &c.inputs {
            if let Some(drv) = netlist.net(inp).driver {
                if !netlist.cell(drv).kind.is_sequential() {
                    g.add_edge(nodes[drv.index()], nodes[id.index()]);
                }
            }
        }
    }
    shell_graph::condensation(&g).cyclic_components.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_netlist::{CellKind, Netlist};

    fn keyed_xor() -> Netlist {
        let mut n = Netlist::new("kx");
        let a = n.add_input("a");
        let k0 = n.add_key_input("k0");
        let k1 = n.add_key_input("k1");
        let t = n.add_cell("t", CellKind::Xor, vec![a, k0]);
        let f = n.add_cell("f", CellKind::Xor, vec![t, k1]);
        n.add_output("f", f);
        n
    }

    #[test]
    fn bind_keys_removes_all_keys() {
        let n = keyed_xor();
        let bound = bind_keys(&n, &[true, false]);
        assert!(bound.key_inputs().is_empty());
        // f = a ^ 1 ^ 0 = !a — but bind_keys does not clean; evaluate.
        assert_eq!(bound.eval_comb(&[true]), vec![false]);
        assert_eq!(bound.eval_comb(&[false]), vec![true]);
    }

    #[test]
    fn shrink_keeps_used_bits_only() {
        let n = keyed_xor();
        let mut bs = Bitstream::zeros(2);
        bs.set(0, true); // k0 used, value irrelevant for kept bits
        bs.set_unused(1, false); // k1 unused, tied to 0
        let shrunk = shrink_locked_netlist(&n, &bs);
        assert_eq!(shrunk.key_inputs().len(), 1);
        // With k0 = 1: f = !a.
        assert_eq!(shrunk.eval_comb_with_key(&[true], &[true]), vec![false]);
        // With k0 = 0: f = a.
        assert_eq!(shrunk.eval_comb_with_key(&[true], &[false]), vec![true]);
    }

    #[test]
    fn shrink_removes_dead_logic() {
        // A keyed mux whose unused arm carries a big cone: binding the
        // select to 0 must sweep the cone away.
        let mut n = Netlist::new("m");
        let a = n.add_input("a");
        let ksel = n.add_key_input("ksel");
        let mut chain = a;
        for i in 0..10 {
            chain = n.add_cell(format!("inv{i}"), CellKind::Not, vec![chain]);
        }
        let f = n.add_cell("f", CellKind::Mux2, vec![ksel, a, chain]);
        n.add_output("f", f);
        let mut bs = Bitstream::zeros(1);
        bs.set_unused(0, false); // select tied to 0 → arm `a`
        let shrunk = shrink_locked_netlist(&n, &bs);
        assert_eq!(shrunk.key_inputs().len(), 0);
        assert_eq!(shrunk.cell_count(), 0, "whole inverter chain swept");
        assert_eq!(shrunk.eval_comb(&[true]), vec![true]);
    }

    #[test]
    fn shrink_breaks_routing_cycles() {
        // Two muxes in a ring; a key bit selects whether the ring closes.
        // Binding the bits to the acyclic configuration must produce an
        // acyclic netlist.
        let mut n = Netlist::new("ring");
        let a = n.add_input("a");
        let k0 = n.add_key_input("k0");
        let k1 = n.add_key_input("k1");
        let t0 = n.add_net("t0");
        let t1 = n.add_net("t1");
        n.add_cell_driving("m0", CellKind::Mux2, vec![k0, a, t1], t0)
            .unwrap();
        n.add_cell_driving("m1", CellKind::Mux2, vec![k1, a, t0], t1)
            .unwrap();
        n.add_output("f", t1);
        assert_eq!(combinational_cycle_count(&n), 1);
        let mut bs = Bitstream::zeros(2);
        bs.set_unused(0, false); // m0 ← a
        bs.set_unused(1, false); // m1 ← a
        let shrunk = shrink_locked_netlist(&n, &bs);
        assert_eq!(combinational_cycle_count(&shrunk), 0);
        assert!(shrunk.validate().is_ok());
        assert_eq!(shrunk.eval_comb(&[true]), vec![true]);
    }

    #[test]
    fn cycle_count_zero_for_dag() {
        let n = keyed_xor();
        assert_eq!(combinational_cycle_count(&n), 0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn bind_wrong_width_panics() {
        bind_keys(&keyed_xor(), &[true]);
    }
}
