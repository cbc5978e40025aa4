//! Technology-independent netlist optimization.
//!
//! Three cooperating rewrites share one rebuild engine:
//!
//! * **constant propagation** — gates with constant inputs fold partially or
//!   completely (the SheLL shrinking step relies on this to collapse fabric
//!   logic once a bitstream pins the configuration),
//! * **buffer sweeping** — `buf` cells become aliases,
//! * **structural hashing** — syntactically identical cells merge.
//!
//! [`dead_code_elimination`] then removes logic outside any output cone, and
//! [`clean_netlist`] iterates the pipeline to a fixpoint.

use shell_netlist::{CellId, CellKind, LutMask, NetId, Netlist};
use std::collections::HashMap;

/// Resolved value of an (old) net during rebuilding: either a constant known
/// at compile time or a concrete net of the new netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Sig {
    Const(bool),
    Net(NetId),
}

/// Flags selecting which rewrites the shared engine applies.
#[derive(Debug, Clone, Copy)]
struct Rewrites {
    constants: bool,
    buffers: bool,
    hashing: bool,
}

/// Applies constant propagation only.
pub fn constant_propagation(netlist: &Netlist) -> Netlist {
    rebuild(
        netlist,
        Rewrites {
            constants: true,
            buffers: false,
            hashing: false,
        },
    )
}

/// Replaces every `buf` cell with a direct connection.
pub fn sweep_buffers(netlist: &Netlist) -> Netlist {
    rebuild(
        netlist,
        Rewrites {
            constants: false,
            buffers: true,
            hashing: false,
        },
    )
}

/// Merges structurally identical cells (same kind, same input nets; inputs
/// sorted first for commutative kinds).
pub fn structural_hash(netlist: &Netlist) -> Netlist {
    rebuild(
        netlist,
        Rewrites {
            constants: false,
            buffers: false,
            hashing: true,
        },
    )
}

/// Removes every cell outside the transitive fanin of the primary outputs.
pub fn dead_code_elimination(netlist: &Netlist) -> Netlist {
    let fanout = netlist.fanout_table();
    let _ = fanout; // fanout not needed; marking goes backward via drivers
    let mut live = vec![false; netlist.cell_count()];
    let mut stack: Vec<CellId> = Vec::new();
    for (_, out_net) in netlist.outputs() {
        if let Some(drv) = netlist.net(*out_net).driver {
            if !live[drv.index()] {
                live[drv.index()] = true;
                stack.push(drv);
            }
        }
    }
    while let Some(cid) = stack.pop() {
        for &inp in &netlist.cell(cid).inputs {
            if let Some(drv) = netlist.net(inp).driver {
                if !live[drv.index()] {
                    live[drv.index()] = true;
                    stack.push(drv);
                }
            }
        }
    }
    // Rebuild keeping only live cells.
    let mut out = Netlist::new(netlist.name());
    let mut map: Vec<Option<NetId>> = vec![None; netlist.net_count()];
    for &n in netlist.inputs() {
        map[n.index()] = Some(out.add_input(netlist.net(n).name.clone()));
    }
    for &n in netlist.key_inputs() {
        map[n.index()] = Some(out.add_key_input(netlist.net(n).name.clone()));
    }
    // Pre-create output nets of live sequential cells (feedback sources).
    for (cid, c) in netlist.cells() {
        if live[cid.index()] && c.kind.is_sequential() {
            map[c.output.index()] = Some(out.add_net(netlist.net(c.output).name.clone()));
        }
    }
    let order = netlist.topo_order().expect("cyclic netlist");
    let resolve = |out: &mut Netlist, map: &mut Vec<Option<NetId>>, n: NetId| -> NetId {
        if let Some(m) = map[n.index()] {
            m
        } else {
            // Undriven (floating) net read by a live cell: recreate as-is.
            let m = out.add_net(netlist.net(n).name.clone());
            map[n.index()] = Some(m);
            m
        }
    };
    for cid in order {
        if !live[cid.index()] {
            continue;
        }
        let c = netlist.cell(cid);
        let ins: Vec<NetId> = c
            .inputs
            .iter()
            .map(|&n| resolve(&mut out, &mut map, n))
            .collect();
        if c.kind.is_sequential() {
            let pre = map[c.output.index()].expect("pre-created");
            out.add_cell_driving(c.name.clone(), c.kind, ins, pre)
                .expect("dce rebuild");
        } else {
            let new_out = out.add_cell(c.name.clone(), c.kind, ins);
            map[c.output.index()] = Some(new_out);
        }
    }
    for (name, n) in netlist.outputs() {
        let m = resolve(&mut out, &mut map, *n);
        out.add_output(name.clone(), m);
    }
    out
}

/// Runs constant propagation + buffer sweeping + structural hashing + DCE to
/// a fixpoint (bounded at 8 rounds).
pub fn clean_netlist(netlist: &Netlist) -> Netlist {
    let mut current = netlist.clone();
    for _ in 0..8 {
        let before = current.cell_count();
        current = rebuild(
            &current,
            Rewrites {
                constants: true,
                buffers: true,
                hashing: true,
            },
        );
        current = dead_code_elimination(&current);
        if current.cell_count() == before {
            break;
        }
    }
    current
}

// ----------------------------------------------------------------------
// The shared rebuild engine
// ----------------------------------------------------------------------

struct Builder<'a> {
    src: &'a Netlist,
    out: Netlist,
    /// Resolution of each old net.
    map: Vec<Option<Sig>>,
    /// Cached constant-driver nets of the new netlist.
    const_nets: [Option<NetId>; 2],
    /// Structural-hash table: (kind, inputs) → existing output net.
    hash: HashMap<(CellKind, Vec<NetId>), NetId>,
    rules: Rewrites,
}

impl<'a> Builder<'a> {
    fn materialize(&mut self, sig: Sig) -> NetId {
        match sig {
            Sig::Net(n) => n,
            Sig::Const(v) => {
                if let Some(n) = self.const_nets[v as usize] {
                    n
                } else {
                    let n = self
                        .out
                        .add_cell(format!("const{}", v as u8), CellKind::Const(v), vec![]);
                    self.const_nets[v as usize] = Some(n);
                    n
                }
            }
        }
    }

    fn resolve(&mut self, old: NetId) -> Sig {
        if let Some(sig) = self.map[old.index()] {
            sig
        } else {
            // Floating net: recreate.
            let n = self.out.add_net(self.src.net(old).name.clone());
            let sig = Sig::Net(n);
            self.map[old.index()] = Some(sig);
            sig
        }
    }

    /// Emits a cell (or reuses a hash-equal one) and returns the output sig.
    fn emit(&mut self, name: &str, kind: CellKind, ins: Vec<Sig>) -> Sig {
        let nets: Vec<NetId> = ins.into_iter().map(|s| self.materialize(s)).collect();
        if self.rules.hashing {
            let mut key_inputs = nets.clone();
            if commutative(kind) {
                key_inputs.sort_unstable();
            }
            let key = (kind, key_inputs);
            if let Some(&existing) = self.hash.get(&key) {
                return Sig::Net(existing);
            }
            let out = self.out.add_cell(name, kind, nets);
            self.hash.insert(key, out);
            Sig::Net(out)
        } else {
            Sig::Net(self.out.add_cell(name, kind, nets))
        }
    }
}

fn commutative(kind: CellKind) -> bool {
    matches!(
        kind,
        CellKind::And
            | CellKind::Or
            | CellKind::Nand
            | CellKind::Nor
            | CellKind::Xor
            | CellKind::Xnor
    )
}

fn rebuild(netlist: &Netlist, rules: Rewrites) -> Netlist {
    let mut b = Builder {
        src: netlist,
        out: Netlist::new(netlist.name()),
        map: vec![None; netlist.net_count()],
        const_nets: [None, None],
        hash: HashMap::new(),
        rules,
    };
    for &n in netlist.inputs() {
        let new = b.out.add_input(netlist.net(n).name.clone());
        b.map[n.index()] = Some(Sig::Net(new));
    }
    for &n in netlist.key_inputs() {
        let new = b.out.add_key_input(netlist.net(n).name.clone());
        b.map[n.index()] = Some(Sig::Net(new));
    }
    // Sequential outputs are rebuild sources.
    for (_, c) in netlist.cells() {
        if c.kind.is_sequential() {
            let new = b.out.add_net(netlist.net(c.output).name.clone());
            b.map[c.output.index()] = Some(Sig::Net(new));
        }
    }
    let order = netlist.topo_order().expect("cyclic netlist");
    for cid in order {
        let c = netlist.cell(cid);
        if c.kind.is_sequential() {
            continue;
        }
        let ins: Vec<Sig> = c.inputs.iter().map(|&n| b.resolve(n)).collect();
        let result = simplify_cell(&mut b, &c.name, c.kind, ins);
        b.map[c.output.index()] = Some(result);
    }
    // Sequential cells last, driving their pre-created nets.
    for (_, c) in netlist.cells() {
        if !c.kind.is_sequential() {
            continue;
        }
        let ins: Vec<NetId> = c
            .inputs
            .iter()
            .map(|&n| {
                let s = b.resolve(n);
                b.materialize(s)
            })
            .collect();
        let pre = match b.map[c.output.index()] {
            Some(Sig::Net(n)) => n,
            _ => unreachable!("sequential output pre-created"),
        };
        b.out
            .add_cell_driving(c.name.clone(), c.kind, ins, pre)
            .expect("rebuild sequential");
    }
    for (name, n) in netlist.outputs() {
        let sig = b.resolve(*n);
        let net = b.materialize(sig);
        b.out.add_output(name.clone(), net);
    }
    b.out
}

/// Core per-cell rewriting. Returns the signal of the cell's output.
fn simplify_cell(b: &mut Builder<'_>, name: &str, kind: CellKind, ins: Vec<Sig>) -> Sig {
    if !b.rules.constants && !b.rules.buffers {
        return b.emit(name, kind, ins);
    }
    if b.rules.buffers && kind == CellKind::Buf {
        return ins[0];
    }
    if !b.rules.constants {
        return b.emit(name, kind, ins);
    }
    match kind {
        CellKind::And | CellKind::Nand | CellKind::Or | CellKind::Nor => {
            let invert_out = matches!(kind, CellKind::Nand | CellKind::Nor);
            // Treat Or as And over negated domain via De Morgan bookkeeping:
            // absorbing element for And is 0, for Or is 1.
            let is_and = matches!(kind, CellKind::And | CellKind::Nand);
            let absorbing = !is_and;
            let identity = is_and;
            let mut kept: Vec<Sig> = Vec::with_capacity(ins.len());
            for s in ins {
                match s {
                    Sig::Const(v) if v == absorbing => {
                        return Sig::Const(absorbing ^ invert_out);
                    }
                    Sig::Const(v) if v == identity => continue,
                    other => {
                        if !kept.contains(&other) {
                            kept.push(other);
                        }
                    }
                }
                // (unreachable arm silencer)
            }
            match kept.len() {
                0 => Sig::Const(identity ^ invert_out),
                1 => {
                    if invert_out {
                        b.emit(name, CellKind::Not, kept)
                    } else {
                        kept[0]
                    }
                }
                _ => {
                    let base = if is_and {
                        if invert_out {
                            CellKind::Nand
                        } else {
                            CellKind::And
                        }
                    } else if invert_out {
                        CellKind::Nor
                    } else {
                        CellKind::Or
                    };
                    b.emit(name, base, kept)
                }
            }
        }
        CellKind::Xor | CellKind::Xnor => {
            let mut parity = kind == CellKind::Xnor;
            let mut counts: Vec<(Sig, usize)> = Vec::new();
            for s in ins {
                match s {
                    Sig::Const(v) => parity ^= v,
                    other => {
                        if let Some(e) = counts.iter_mut().find(|(x, _)| *x == other) {
                            e.1 += 1;
                        } else {
                            counts.push((other, 1));
                        }
                    }
                }
            }
            let kept: Vec<Sig> = counts
                .into_iter()
                .filter(|(_, c)| c % 2 == 1)
                .map(|(s, _)| s)
                .collect();
            match kept.len() {
                0 => Sig::Const(parity),
                1 => {
                    if parity {
                        b.emit(name, CellKind::Not, kept)
                    } else {
                        kept[0]
                    }
                }
                _ => {
                    let k = if parity { CellKind::Xnor } else { CellKind::Xor };
                    b.emit(name, k, kept)
                }
            }
        }
        CellKind::Not => match ins[0] {
            Sig::Const(v) => Sig::Const(!v),
            _ => b.emit(name, CellKind::Not, ins),
        },
        CellKind::Buf => match ins[0] {
            Sig::Const(v) => Sig::Const(v),
            other => {
                if b.rules.buffers {
                    other
                } else {
                    b.emit(name, CellKind::Buf, ins)
                }
            }
        },
        CellKind::Mux2 => {
            let (s, a, bb) = (ins[0], ins[1], ins[2]);
            match s {
                Sig::Const(false) => a,
                Sig::Const(true) => bb,
                _ => {
                    if a == bb {
                        return a;
                    }
                    match (a, bb) {
                        (Sig::Const(false), Sig::Const(true)) => s,
                        (Sig::Const(true), Sig::Const(false)) => {
                            b.emit(name, CellKind::Not, vec![s])
                        }
                        (Sig::Const(false), data) => b.emit(name, CellKind::And, vec![s, data]),
                        (data, Sig::Const(true)) => b.emit(name, CellKind::Or, vec![s, data]),
                        _ => b.emit(name, CellKind::Mux2, vec![s, a, bb]),
                    }
                }
            }
        }
        CellKind::Mux4 => {
            let (s1, s0) = (ins[0], ins[1]);
            let data = [ins[2], ins[3], ins[4], ins[5]];
            match (s1, s0) {
                (Sig::Const(h), Sig::Const(l)) => data[((h as usize) << 1) | l as usize],
                (Sig::Const(h), _) => {
                    let (x, y) = if h { (data[2], data[3]) } else { (data[0], data[1]) };
                    simplify_cell(b, name, CellKind::Mux2, vec![s0, x, y])
                }
                (_, Sig::Const(l)) => {
                    let (x, y) = if l { (data[1], data[3]) } else { (data[0], data[2]) };
                    simplify_cell(b, name, CellKind::Mux2, vec![s1, x, y])
                }
                _ => {
                    if data.iter().all(|&d| d == data[0]) {
                        data[0]
                    } else {
                        b.emit(name, CellKind::Mux4, ins)
                    }
                }
            }
        }
        CellKind::Lut(mask) => {
            // Cofactor constant inputs away.
            let mut mask = mask;
            let mut live: Vec<Sig> = Vec::new();
            let mut i = 0usize;
            let mut ins = ins;
            while i < ins.len() {
                match ins[i] {
                    Sig::Const(v) => {
                        mask = cofactor(mask, i, v);
                        ins.remove(i);
                    }
                    other => {
                        live.push(other);
                        i += 1;
                    }
                }
            }
            // Remove don't-care inputs.
            let mut j = 0usize;
            while j < live.len() {
                if mask.ignores_input(j) {
                    mask = cofactor(mask, j, false);
                    live.remove(j);
                } else {
                    j += 1;
                }
            }
            if live.is_empty() {
                return Sig::Const(mask.mask() & 1 == 1);
            }
            if live.len() == 1 {
                // Identity or inverter.
                return match mask.mask() & 0b11 {
                    0b10 => live[0],
                    0b01 => b.emit(name, CellKind::Not, live),
                    _ => unreachable!("constant 1-LUT survived don't-care pruning"),
                };
            }
            b.emit(name, CellKind::Lut(mask), live)
        }
        CellKind::Const(v) => Sig::Const(v),
        CellKind::Dff | CellKind::Latch => unreachable!("handled by caller"),
    }
}

/// Restriction of a LUT mask to `input = value`, removing that input.
fn cofactor(mask: LutMask, input: usize, value: bool) -> LutMask {
    let k = mask.arity();
    debug_assert!(input < k);
    let mut out = 0u64;
    let mut out_bit = 0usize;
    for row in 0..(1usize << k) {
        if (row >> input) & 1 == (value as usize) {
            if (mask.mask() >> row) & 1 == 1 {
                out |= 1 << out_bit;
            }
            out_bit += 1;
        }
    }
    LutMask::new(out, k - 1)
}

// ----------------------------------------------------------------------
// Cycle-tolerant constant propagation
// ----------------------------------------------------------------------

/// What cycle-tolerant constant propagation knows about a net: nothing yet,
/// a constant, or that it carries the same signal as another net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Not (yet) decided.
    Unknown,
    /// Always carries this value.
    Const(bool),
    /// Carries the same signal as this net.
    Alias(NetId),
}

/// Round cap of [`propagate_constants_cyclic`]'s fixpoint: a propagation
/// that is still changing after this many rounds stops there.
pub const CYCLIC_PROPAGATION_ROUNDS: usize = 64;

/// Follows `net`'s alias chain in `res`: the constant it carries, or
/// `Alias(root)` for the undecided net the chain ends at. Alias chains are
/// acyclic, because [`resolve_cell`] never aliases a net to itself.
pub fn resolve(res: &[Resolution], mut net: NetId) -> Resolution {
    loop {
        match res[net.index()] {
            Resolution::Alias(m) => net = m,
            Resolution::Const(v) => return Resolution::Const(v),
            Resolution::Unknown => return Resolution::Alias(net),
        }
    }
}

/// The per-cell rule of [`propagate_constants_cyclic`]: what the output net
/// `output` of a combinational cell of `kind` resolves to, given what its
/// inputs resolve to (each as returned by [`resolve`]). `Unknown` when the
/// inputs do not decide it.
pub fn resolve_cell(kind: CellKind, output: NetId, vals: &[Resolution]) -> Resolution {
    use Resolution::{Alias, Const, Unknown};
    let get_const = |r: &Resolution| match r {
        Const(v) => Some(*v),
        _ => None,
    };
    // The one input that is not constant, if exactly one is.
    let lone_signal = || {
        let mut signals = vals.iter().filter(|v| get_const(v).is_none());
        match (signals.next(), signals.next()) {
            (Some(&v), None) => v,
            _ => Unknown,
        }
    };
    let new = match kind {
        CellKind::Const(v) => Const(v),
        CellKind::Buf => vals[0],
        CellKind::Not => get_const(&vals[0]).map_or(Unknown, |v| Const(!v)),
        CellKind::And | CellKind::Nand | CellKind::Or | CellKind::Nor => {
            let is_and = matches!(kind, CellKind::And | CellKind::Nand);
            let inv = matches!(kind, CellKind::Nand | CellKind::Nor);
            let absorbing = !is_and;
            if vals.iter().filter_map(get_const).any(|v| v == absorbing) {
                Const(absorbing ^ inv)
            } else if vals.iter().all(|v| get_const(v).is_some()) {
                let identity = is_and;
                Const(identity ^ inv)
            } else if !inv {
                // All but one input at identity → alias survivor.
                lone_signal()
            } else {
                Unknown
            }
        }
        CellKind::Xor | CellKind::Xnor => {
            if vals.iter().all(|v| get_const(v).is_some()) {
                let parity = vals
                    .iter()
                    .filter_map(get_const)
                    .fold(kind == CellKind::Xnor, |a, b| a ^ b);
                Const(parity)
            } else {
                let consts_zero = vals.iter().filter_map(get_const).fold(false, |a, b| a ^ b);
                if !consts_zero && kind == CellKind::Xor {
                    lone_signal()
                } else {
                    Unknown
                }
            }
        }
        CellKind::Mux2 => match get_const(&vals[0]) {
            Some(false) => vals[1],
            Some(true) => vals[2],
            None => {
                if vals[1] == vals[2] && vals[1] != Unknown {
                    vals[1]
                } else {
                    Unknown
                }
            }
        },
        CellKind::Mux4 => match (get_const(&vals[0]), get_const(&vals[1])) {
            (Some(s1), Some(s0)) => vals[2 + ((s1 as usize) << 1) + s0 as usize],
            _ => Unknown,
        },
        CellKind::Lut(mask) => {
            if vals.iter().all(|v| get_const(v).is_some()) {
                let idx = vals
                    .iter()
                    .filter_map(get_const)
                    .enumerate()
                    .fold(0usize, |acc, (i, b)| acc | ((b as usize) << i));
                Const((mask.mask() >> idx) & 1 == 1)
            } else {
                Unknown
            }
        }
        CellKind::Dff | CellKind::Latch => Unknown,
    };
    // Never alias a net to itself (true loop).
    if new == Alias(output) {
        Unknown
    } else {
        new
    }
}

/// Constant propagation and alias collapsing that tolerates structural
/// combinational cycles.
///
/// Fabric netlists contain cyclic routing meshes; once their configuration
/// (key) bits are bound to constants, every mux on a configured path has a
/// constant select and the cycles dissolve. The ordinary `rebuild` engine
/// cannot run on cyclic input (it needs a topological order), so this pass
/// iterates instead: round after round, every combinational cell whose
/// output is still undecided is re-evaluated with [`resolve_cell`] in cell
/// order, until a round changes nothing or [`CYCLIC_PROPAGATION_ROUNDS`]
/// rounds have run. [`rebuild_resolved`] then applies the substitutions.
/// Cells inside genuinely sensitized loops remain untouched.
///
/// The result is additionally [`clean_netlist`]-ed when it came out acyclic.
pub fn propagate_constants_cyclic(netlist: &Netlist) -> Netlist {
    let mut res = vec![Resolution::Unknown; netlist.net_count()];
    let mut vals = Vec::new();
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < CYCLIC_PROPAGATION_ROUNDS {
        changed = false;
        rounds += 1;
        for (_, c) in netlist.cells() {
            if c.kind.is_sequential() || res[c.output.index()] != Resolution::Unknown {
                continue;
            }
            vals.clear();
            vals.extend(c.inputs.iter().map(|&i| resolve(&res, i)));
            let new = resolve_cell(c.kind, c.output, &vals);
            if new != Resolution::Unknown {
                res[c.output.index()] = new;
                changed = true;
            }
        }
    }
    rebuild_resolved(netlist, &res)
}

/// Rebuilds `netlist` with the resolutions `res` (one per net) applied:
/// sequential cells and the combinational cells whose output stayed
/// `Unknown` survive, in their original order and with their names; every
/// other net is replaced by what it resolves to. A constant is driven by one
/// `tie0`/`tie1` cell, created right before the first surviving cell that
/// reads it.
///
/// The result is additionally [`clean_netlist`]-ed when it came out acyclic.
pub fn rebuild_resolved(netlist: &Netlist, res: &[Resolution]) -> Netlist {
    let n_nets = netlist.net_count();
    let mut out = Netlist::new(netlist.name());
    let mut map: Vec<Option<NetId>> = vec![None; n_nets];
    for &n in netlist.inputs() {
        map[n.index()] = Some(out.add_input(netlist.net(n).name.clone()));
    }
    for &n in netlist.key_inputs() {
        map[n.index()] = Some(out.add_key_input(netlist.net(n).name.clone()));
    }
    let mut const_nets: [Option<NetId>; 2] = [None, None];
    // Pre-create output nets of surviving cells (may be cyclic).
    for (_, c) in netlist.cells() {
        let keep = c.kind.is_sequential() || matches!(res[c.output.index()], Resolution::Unknown);
        if keep && map[c.output.index()].is_none() {
            map[c.output.index()] = Some(out.add_net(netlist.net(c.output).name.clone()));
        }
    }
    // Resolve any net to a new-netlist net.
    fn materialize(
        netlist: &Netlist,
        res: &[Resolution],
        map: &mut [Option<NetId>],
        const_nets: &mut [Option<NetId>; 2],
        out: &mut Netlist,
        n: NetId,
    ) -> NetId {
        // Follow the resolution first.
        let mut target = n;
        let final_res = loop {
            match res[target.index()] {
                Resolution::Alias(m) if m != target => target = m,
                other => break other,
            }
        };
        match final_res {
            Resolution::Const(v) => {
                if let Some(c) = const_nets[v as usize] {
                    c
                } else {
                    let c = out.add_cell(format!("tie{}", v as u8), CellKind::Const(v), vec![]);
                    const_nets[v as usize] = Some(c);
                    c
                }
            }
            _ => {
                if let Some(m) = map[target.index()] {
                    m
                } else {
                    let m = out.add_net(netlist.net(target).name.clone());
                    map[target.index()] = Some(m);
                    m
                }
            }
        }
    }
    for (_, c) in netlist.cells() {
        let keep = c.kind.is_sequential() || matches!(res[c.output.index()], Resolution::Unknown);
        if !keep {
            continue;
        }
        let ins: Vec<NetId> = c
            .inputs
            .iter()
            .map(|&i| materialize(netlist, res, &mut map, &mut const_nets, &mut out, i))
            .collect();
        let target = map[c.output.index()].expect("pre-created");
        out.add_cell_driving(c.name.clone(), c.kind, ins, target)
            .expect("cyclic-constprop rebuild");
    }
    for (name, n) in netlist.outputs() {
        let m = materialize(netlist, res, &mut map, &mut const_nets, &mut out, *n);
        out.add_output(name.clone(), m);
    }
    if out.topo_order().is_ok() {
        clean_netlist(&out)
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_netlist::equiv::{equiv_exhaustive, EquivResult};

    fn assert_equiv(a: &Netlist, b: &Netlist) {
        match equiv_exhaustive(a, b, &[], &[]) {
            EquivResult::Equivalent => {}
            other => panic!("not equivalent: {other:?}"),
        }
    }

    #[test]
    fn const_prop_collapses_constants() {
        let mut n = Netlist::new("c");
        let a = n.add_input("a");
        let one = n.add_cell("one", CellKind::Const(true), vec![]);
        let zero = n.add_cell("zero", CellKind::Const(false), vec![]);
        let t0 = n.add_cell("t0", CellKind::And, vec![a, one]); // = a
        let t1 = n.add_cell("t1", CellKind::Or, vec![t0, zero]); // = a
        let t2 = n.add_cell("t2", CellKind::Xor, vec![t1, one]); // = !a
        n.add_output("f", t2);
        let opt = clean_netlist(&n);
        assert_equiv(&n, &opt);
        // Only a single inverter should remain.
        assert_eq!(opt.cell_count(), 1);
    }

    #[test]
    fn const_prop_absorbing_elements() {
        let mut n = Netlist::new("c");
        let a = n.add_input("a");
        let zero = n.add_cell("z", CellKind::Const(false), vec![]);
        let t = n.add_cell("t", CellKind::And, vec![a, zero]);
        let f = n.add_cell("f", CellKind::Or, vec![t, a]);
        n.add_output("f", f);
        let opt = clean_netlist(&n);
        assert_equiv(&n, &opt);
        assert_eq!(opt.cell_count(), 0, "f aliases input a");
    }

    #[test]
    fn buffer_sweep() {
        let mut n = Netlist::new("b");
        let a = n.add_input("a");
        let b1 = n.add_cell("b1", CellKind::Buf, vec![a]);
        let b2 = n.add_cell("b2", CellKind::Buf, vec![b1]);
        let f = n.add_cell("f", CellKind::Not, vec![b2]);
        n.add_output("f", f);
        let opt = sweep_buffers(&n);
        assert_equiv(&n, &opt);
        assert_eq!(opt.cell_count(), 1);
    }

    #[test]
    fn structural_hash_merges_duplicates() {
        let mut n = Netlist::new("h");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_cell("x", CellKind::And, vec![a, b]);
        let y = n.add_cell("y", CellKind::And, vec![b, a]); // commutative dup
        let f = n.add_cell("f", CellKind::Xor, vec![x, y]);
        n.add_output("f", f);
        let opt = clean_netlist(&n);
        assert_equiv(&n, &opt);
        // x and y merge; XOR of identical signals is const 0 — only the
        // constant driver of the output remains.
        assert!(opt.cell_count() <= 1, "got {}", opt.cell_count());
        assert_eq!(opt.eval_comb(&[true, true]), vec![false]);
    }

    #[test]
    fn dce_removes_dangling_logic() {
        let mut n = Netlist::new("d");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let f = n.add_cell("f", CellKind::And, vec![a, b]);
        let _dead = n.add_cell("dead", CellKind::Or, vec![a, b]);
        n.add_output("f", f);
        let opt = dead_code_elimination(&n);
        assert_equiv(&n, &opt);
        assert_eq!(opt.cell_count(), 1);
    }

    #[test]
    fn dce_keeps_dff_feedback() {
        let mut n = Netlist::new("ff");
        let q = n.add_net("q");
        let nq = n.add_cell("nq", CellKind::Not, vec![q]);
        n.add_cell_driving("ff", CellKind::Dff, vec![nq], q).unwrap();
        n.add_output("q", q);
        let opt = dead_code_elimination(&n);
        assert_eq!(opt.cell_count(), 2);
        opt.validate().unwrap();
    }

    #[test]
    fn mux_simplifications() {
        let mut n = Netlist::new("m");
        let s = n.add_input("s");
        let a = n.add_input("a");
        let one = n.add_cell("one", CellKind::Const(true), vec![]);
        let zero = n.add_cell("zero", CellKind::Const(false), vec![]);
        // s ? 1 : 0  = s
        let m1 = n.add_cell("m1", CellKind::Mux2, vec![s, zero, one]);
        // s ? 0 : 1  = !s
        let m2 = n.add_cell("m2", CellKind::Mux2, vec![s, one, zero]);
        // s ? a : a  = a
        let m3 = n.add_cell("m3", CellKind::Mux2, vec![s, a, a]);
        let f = n.add_cell("f", CellKind::Xor, vec![m1, m2, m3]);
        n.add_output("f", f);
        let opt = clean_netlist(&n);
        assert_equiv(&n, &opt);
        // m1 = s, m2 = !s, m3 = a → f = s ^ !s ^ a = !a → 1 NOT cell.
        assert!(opt.cell_count() <= 2, "got {}", opt.cell_count());
    }

    #[test]
    fn mux4_constant_selects() {
        let mut n = Netlist::new("m4");
        let s0 = n.add_input("s0");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let d = n.add_input("d");
        let one = n.add_cell("one", CellKind::Const(true), vec![]);
        // s1 = 1 constant → reduces to mux2(s0, c, d)
        let m = n.add_cell("m", CellKind::Mux4, vec![one, s0, a, b, c, d]);
        n.add_output("f", m);
        let opt = clean_netlist(&n);
        assert_equiv(&n, &opt);
        assert_eq!(opt.cell_count(), 1);
    }

    #[test]
    fn lut_cofactoring() {
        let mut n = Netlist::new("l");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let one = n.add_cell("one", CellKind::Const(true), vec![]);
        // 3-LUT = majority(a, b, 1) = a OR b.
        let maj = LutMask::new(0b1110_1000, 3);
        let f = n.add_cell("f", CellKind::Lut(maj), vec![a, b, one]);
        n.add_output("f", f);
        let opt = clean_netlist(&n);
        assert_equiv(&n, &opt);
        assert_eq!(opt.cell_count(), 1);
        let (_, c) = opt.cells().next().unwrap();
        assert!(matches!(c.kind, CellKind::Lut(m) if m.arity() == 2));
    }

    #[test]
    fn lut_dont_care_input_dropped() {
        let mut n = Netlist::new("l");
        let a = n.add_input("a");
        let b = n.add_input("b");
        // LUT2 that only depends on input 0: f = a.
        let only_a = LutMask::new(0b1010, 2);
        let f = n.add_cell("f", CellKind::Lut(only_a), vec![a, b]);
        n.add_output("f", f);
        let opt = clean_netlist(&n);
        assert_equiv(&n, &opt);
        assert_eq!(opt.cell_count(), 0, "f aliases a");
    }

    #[test]
    fn xor_duplicate_cancellation() {
        let mut n = Netlist::new("x");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let f = n.add_cell("f", CellKind::Xor, vec![a, b, a]); // = b
        n.add_output("f", f);
        let opt = clean_netlist(&n);
        assert_equiv(&n, &opt);
        assert_eq!(opt.cell_count(), 0);
    }

    #[test]
    fn nand_nor_folding() {
        let mut n = Netlist::new("nn");
        let a = n.add_input("a");
        let one = n.add_cell("one", CellKind::Const(true), vec![]);
        let zero = n.add_cell("zero", CellKind::Const(false), vec![]);
        let t0 = n.add_cell("t0", CellKind::Nand, vec![a, zero]); // = 1
        let t1 = n.add_cell("t1", CellKind::Nor, vec![a, one]); // = 0
        let f = n.add_cell("f", CellKind::Or, vec![t0, t1]); // = 1
        n.add_output("f", f);
        let opt = clean_netlist(&n);
        assert_equiv(&n, &opt);
        assert_eq!(opt.cell_count(), 1, "only a const driver remains");
    }

    #[test]
    fn clean_preserves_keyed_function() {
        let mut n = Netlist::new("k");
        let a = n.add_input("a");
        let k = n.add_key_input("k");
        let b1 = n.add_cell("b1", CellKind::Buf, vec![k]);
        let f = n.add_cell("f", CellKind::Xor, vec![a, b1]);
        n.add_output("f", f);
        let opt = clean_netlist(&n);
        assert_eq!(opt.key_inputs().len(), 1);
        for kb in [false, true] {
            match equiv_exhaustive(&n, &opt, &[kb], &[kb]) {
                EquivResult::Equivalent => {}
                other => panic!("k={kb}: {other:?}"),
            }
        }
    }

    #[test]
    fn sequential_design_preserved() {
        let mut n = Netlist::new("s");
        let en = n.add_input("en");
        let q = n.add_net("q");
        let buf = n.add_cell("buf", CellKind::Buf, vec![q]); // sweepable
        let nx = n.add_cell("nx", CellKind::Xor, vec![buf, en]);
        n.add_cell_driving("ff", CellKind::Dff, vec![nx], q).unwrap();
        n.add_output("q", q);
        let opt = clean_netlist(&n);
        opt.validate().unwrap();
        use shell_netlist::equiv::equiv_sequential_random;
        assert!(
            equiv_sequential_random(&n, &opt, &[], &[], 32, 5).is_equivalent()
        );
        assert!(opt.cell_count() < n.cell_count());
    }
}
