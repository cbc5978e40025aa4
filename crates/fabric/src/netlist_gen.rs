//! Emission of a fabric as a flat netlist.
//!
//! Two views of the same hardware:
//!
//! * [`to_locked_netlist`] — the fabric with every configuration bit exposed
//!   as a **key input**. This is what the paper's attacker reverse-engineers
//!   from the layout: all switch muxes, LUT read muxes and chain elements are
//!   present, and the routing mesh can form combinational cycles (the §III
//!   observation that raw eFPGA wiring contains cyclical blocks). Structural
//!   cycles are legal in the netlist container; the attack side applies
//!   cyclic reduction before SAT encoding.
//! * [`to_configured_netlist`] — the fabric *activated* by a bitstream. All
//!   selects are resolved at build time, so configured routing collapses to
//!   plain wires: the result contains only the programmed LUTs, registers
//!   and dynamically-selected chain muxes. This is the oracle of the threat
//!   model.

use crate::bitstream::Bitstream;
use crate::fabric::{Fabric, SignalRef};
use shell_netlist::{CellKind, LutMask, NetId, Netlist};
use std::collections::HashMap;
use std::fmt;

/// Binding of fabric IO pads to design ports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoMap {
    /// `(port name, input pad index)` — becomes a primary input.
    pub inputs: Vec<(String, usize)>,
    /// `(port name, output pad index)` — becomes a primary output.
    pub outputs: Vec<(String, usize)>,
}

/// Errors produced while materializing a configured fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricNetlistError {
    /// The bitstream length does not match the fabric.
    BitstreamLength {
        /// Expected bit count.
        expected: usize,
        /// Provided bit count.
        got: usize,
    },
    /// The configuration routes a signal in a combinational loop.
    ConfiguredLoop(String),
    /// An [`IoMap`] pad index is out of range.
    BadIoIndex(usize),
}

impl fmt::Display for FabricNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricNetlistError::BitstreamLength { expected, got } => {
                write!(f, "bitstream has {got} bits, fabric needs {expected}")
            }
            FabricNetlistError::ConfiguredLoop(at) => {
                write!(f, "configured routing loops through {at}")
            }
            FabricNetlistError::BadIoIndex(i) => write!(f, "io pad index {i} out of range"),
        }
    }
}

impl std::error::Error for FabricNetlistError {}

/// Builds a mux tree over `data` nets with the given encoded `selects`
/// (LSB-first), padding by repeating the last input.
fn mux_tree(netlist: &mut Netlist, prefix: &str, selects: &[NetId], data: &[NetId]) -> NetId {
    debug_assert!(!data.is_empty());
    let mut layer: Vec<NetId> = data.to_vec();
    for (level, &s) in selects.iter().enumerate() {
        if layer.len() == 1 {
            break;
        }
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for (i, pair) in layer.chunks(2).enumerate() {
            if pair.len() == 2 {
                next.push(netlist.add_cell(
                    format!("{prefix}_m{level}_{i}"),
                    CellKind::Mux2,
                    vec![s, pair[0], pair[1]],
                ));
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
    }
    layer[0]
}

/// Emits the fabric with configuration as key inputs (the locked netlist).
///
/// IO pads not named in `io_map` are tied to constant 0 (inputs) or left
/// unread (outputs). The returned netlist's key inputs are ordered by
/// configuration bit position: key bit `i` is fabric config bit `i`.
///
/// The result may contain **combinational cycles** through the routing mesh;
/// run the attack crate's cyclic reduction before simulation or SAT
/// encoding.
///
/// # Panics
///
/// Panics when an `io_map` pad index is out of range.
pub fn to_locked_netlist(fabric: &Fabric, io_map: &IoMap) -> Netlist {
    let cfg = fabric.config().clone();
    let mut n = Netlist::new(format!(
        "{}x{}_fabric_locked",
        fabric.width(),
        fabric.height()
    ));

    // Primary inputs for mapped pads; constants elsewhere.
    let mut pad_nets: HashMap<usize, NetId> = HashMap::new();
    for (name, pad) in &io_map.inputs {
        assert!(
            *pad < fabric.io_input_count(),
            "input pad {pad} out of range"
        );
        pad_nets.insert(*pad, n.add_input(name.clone()));
    }
    // Key inputs, one per config bit.
    let keys: Vec<NetId> = (0..fabric.config_bit_count())
        .map(|i| n.add_key_input(format!("cfg[{i}]")))
        .collect();
    let zero = n.add_cell("tie0", CellKind::Const(false), vec![]);

    // Pre-create nets for every signal that can be referenced cyclically.
    let mut track_nets: HashMap<(usize, usize, usize), NetId> = HashMap::new();
    let mut clb_nets: HashMap<(usize, usize, usize), NetId> = HashMap::new();
    let mut chain_nets: HashMap<(usize, usize, usize), NetId> = HashMap::new();
    for y in 0..fabric.height() {
        for x in 0..fabric.width() {
            for t in 0..cfg.channel_width {
                track_nets.insert((x, y, t), n.add_net(format!("trk_{x}_{y}_{t}")));
            }
            for i in 0..cfg.luts_per_clb {
                clb_nets.insert((x, y, i), n.add_net(format!("clb_{x}_{y}_{i}")));
            }
            if cfg.mux_chains {
                for j in 0..cfg.chain_len {
                    chain_nets.insert((x, y, j), n.add_net(format!("chn_{x}_{y}_{j}")));
                }
            }
        }
    }
    let sig_net = |n: &HashMap<(usize, usize, usize), NetId>,
                   c: &HashMap<(usize, usize, usize), NetId>,
                   ch: &HashMap<(usize, usize, usize), NetId>,
                   pads: &HashMap<usize, NetId>,
                   zero: NetId,
                   s: SignalRef|
     -> NetId {
        match s {
            SignalRef::Track { x, y, t } => n[&(x, y, t)],
            SignalRef::ClbOut { x, y, i } => c[&(x, y, i)],
            SignalRef::ChainOut { x, y, j } => ch[&(x, y, j)],
            SignalRef::IoIn(idx) => pads.get(&idx).copied().unwrap_or(zero),
        }
    };

    for y in 0..fabric.height() {
        for x in 0..fabric.width() {
            // Track switch muxes.
            for t in 0..cfg.channel_width {
                let ins: Vec<NetId> = fabric
                    .track_mux_inputs(x, y, t)
                    .into_iter()
                    .map(|s| sig_net(&track_nets, &clb_nets, &chain_nets, &pad_nets, zero, s))
                    .collect();
                let (base, width) = fabric.track_select_field(x, y, t);
                let sels: Vec<NetId> = (0..width).map(|b| keys[base + b]).collect();
                let out = mux_tree(&mut n, &format!("sw_{x}_{y}_{t}"), &sels, &ins);
                let target = track_nets[&(x, y, t)];
                n.add_cell_driving(format!("swb_{x}_{y}_{t}"), CellKind::Buf, vec![out], target)
                    .expect("track net driven once");
            }
            // CLB.
            for lut in 0..cfg.luts_per_clb {
                let mut pins = Vec::with_capacity(cfg.lut_k);
                for pin in 0..cfg.lut_k {
                    let tracks: Vec<NetId> = (0..cfg.channel_width)
                        .map(|t| track_nets[&(x, y, t)])
                        .collect();
                    let (base, width) = fabric.clb_input_field(x, y, lut, pin);
                    let sels: Vec<NetId> = (0..width).map(|b| keys[base + b]).collect();
                    pins.push(mux_tree(
                        &mut n,
                        &format!("cin_{x}_{y}_{lut}_{pin}"),
                        &sels,
                        &tracks,
                    ));
                }
                // LUT as a config-bit read mux: selects are the pins.
                let mask_base = fabric.lut_mask_base(x, y, lut);
                let rows: Vec<NetId> = (0..cfg.bits_per_lut())
                    .map(|r| keys[mask_base + r])
                    .collect();
                let lut_out = mux_tree(&mut n, &format!("lut_{x}_{y}_{lut}"), &pins, &rows);
                let ff = n.add_cell(format!("ff_{x}_{y}_{lut}"), CellKind::Dff, vec![lut_out]);
                let bypass = keys[fabric.ff_bypass_bit(x, y, lut)];
                let slot_out = n.add_cell(
                    format!("byp_{x}_{y}_{lut}"),
                    CellKind::Mux2,
                    vec![bypass, lut_out, ff],
                );
                let target = clb_nets[&(x, y, lut)];
                n.add_cell_driving(
                    format!("clbo_{x}_{y}_{lut}"),
                    CellKind::Buf,
                    vec![slot_out],
                    target,
                )
                .expect("clb net driven once");
            }
            // Chain block.
            if cfg.mux_chains {
                for j in 0..cfg.chain_len {
                    let tile_tracks: Vec<NetId> = (0..cfg.channel_width)
                        .map(|t| track_nets[&(x, y, t)])
                        .collect();
                    let mut data = Vec::with_capacity(4);
                    for pin in 0..4 {
                        if fabric.chain_pin_is_muxed(j, pin) {
                            let (base, width) = fabric.chain_data_field(x, y, j, pin);
                            let sels: Vec<NetId> = (0..width).map(|b| keys[base + b]).collect();
                            data.push(mux_tree(
                                &mut n,
                                &format!("chd_{x}_{y}_{j}_{pin}"),
                                &sels,
                                &tile_tracks,
                            ));
                        } else {
                            data.push(chain_nets[&(x, y, j - 1)]);
                        }
                    }
                    let mut sels = Vec::with_capacity(2);
                    for pin in 0..2 {
                        let (base, width) = fabric.chain_sel_conn_field(x, y, j, pin);
                        let conn_sels: Vec<NetId> = (0..width).map(|b| keys[base + b]).collect();
                        let dynamic = mux_tree(
                            &mut n,
                            &format!("chc_{x}_{y}_{j}_{pin}"),
                            &conn_sels,
                            &tile_tracks,
                        );
                        let (val_bit, mode_bit) = fabric.chain_select_bits(x, y, j, pin);
                        // mode ? dynamic : config value
                        sels.push(n.add_cell(
                            format!("chs_{x}_{y}_{j}_{pin}"),
                            CellKind::Mux2,
                            vec![keys[mode_bit], keys[val_bit], dynamic],
                        ));
                    }
                    // Mux4 select order: [s1, s0, d0..d3].
                    let el = n.add_cell(
                        format!("che_{x}_{y}_{j}"),
                        CellKind::Mux4,
                        vec![sels[1], sels[0], data[0], data[1], data[2], data[3]],
                    );
                    let target = chain_nets[&(x, y, j)];
                    n.add_cell_driving(
                        format!("cheb_{x}_{y}_{j}"),
                        CellKind::Buf,
                        vec![el],
                        target,
                    )
                    .expect("chain net driven once");
                }
            }
        }
    }

    // Outputs.
    for (name, pad) in &io_map.outputs {
        assert!(
            *pad < fabric.io_output_count(),
            "output pad {pad} out of range"
        );
        let src = fabric.io_output_source(*pad);
        let net = sig_net(&track_nets, &clb_nets, &chain_nets, &pad_nets, zero, src);
        n.add_output(name.clone(), net);
    }
    n
}

/// Resolved source of a configured signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Resolved {
    Pad(usize),
    Lut { x: usize, y: usize, i: usize },
    Chain { x: usize, y: usize, j: usize },
}

/// Emits the activated design: the fabric with `bitstream` applied.
///
/// Configured routing is resolved to wires at build time, so the result is a
/// compact netlist of programmed LUTs, registers and dynamically-selected
/// chain elements — acyclic whenever the configuration is sane.
///
/// # Errors
///
/// Returns [`FabricNetlistError::BitstreamLength`] on size mismatch,
/// [`FabricNetlistError::ConfiguredLoop`] when the bitstream routes a
/// combinational loop, and [`FabricNetlistError::BadIoIndex`] for bad pads.
pub fn to_configured_netlist(
    fabric: &Fabric,
    bitstream: &Bitstream,
    io_map: &IoMap,
) -> Result<Netlist, FabricNetlistError> {
    if bitstream.len() != fabric.config_bit_count() {
        return Err(FabricNetlistError::BitstreamLength {
            expected: fabric.config_bit_count(),
            got: bitstream.len(),
        });
    }
    for (_, pad) in &io_map.inputs {
        if *pad >= fabric.io_input_count() {
            return Err(FabricNetlistError::BadIoIndex(*pad));
        }
    }
    for (_, pad) in &io_map.outputs {
        if *pad >= fabric.io_output_count() {
            return Err(FabricNetlistError::BadIoIndex(*pad));
        }
    }
    let cfg = fabric.config().clone();

    // Resolve every track to its terminal source by walking the
    // configuration. 0 = unvisited, 1 = in progress, 2 = done.
    let mut memo: HashMap<(usize, usize, usize), Resolved> = HashMap::new();
    let mut state: HashMap<(usize, usize, usize), u8> = HashMap::new();

    fn resolve_track(
        fabric: &Fabric,
        bitstream: &Bitstream,
        memo: &mut HashMap<(usize, usize, usize), Resolved>,
        state: &mut HashMap<(usize, usize, usize), u8>,
        key: (usize, usize, usize),
    ) -> Result<Resolved, FabricNetlistError> {
        if let Some(&r) = memo.get(&key) {
            return Ok(r);
        }
        if state.get(&key) == Some(&1) {
            return Err(FabricNetlistError::ConfiguredLoop(format!(
                "track[{},{},{}]",
                key.0, key.1, key.2
            )));
        }
        state.insert(key, 1);
        let (x, y, t) = key;
        let ins = fabric.track_mux_inputs(x, y, t);
        let (base, width) = fabric.track_select_field(x, y, t);
        let sel = (bitstream.field(base, width) as usize).min(ins.len() - 1);
        let r = match ins[sel] {
            SignalRef::Track { x, y, t } => {
                resolve_track(fabric, bitstream, memo, state, (x, y, t))?
            }
            SignalRef::ClbOut { x, y, i } => Resolved::Lut { x, y, i },
            SignalRef::ChainOut { x, y, j } => Resolved::Chain { x, y, j },
            SignalRef::IoIn(idx) => Resolved::Pad(idx),
        };
        state.insert(key, 2);
        memo.insert(key, r);
        Ok(r)
    }

    let mut n = Netlist::new(format!(
        "{}x{}_fabric_configured",
        fabric.width(),
        fabric.height()
    ));
    let mut pad_nets: HashMap<usize, NetId> = HashMap::new();
    for (name, pad) in &io_map.inputs {
        pad_nets.insert(*pad, n.add_input(name.clone()));
    }
    let zero = n.add_cell("tie0", CellKind::Const(false), vec![]);
    // Pre-create LUT-slot and chain outputs.
    let mut slot_nets: HashMap<(usize, usize, usize), NetId> = HashMap::new();
    let mut chain_out_nets: HashMap<(usize, usize, usize), NetId> = HashMap::new();
    for y in 0..fabric.height() {
        for x in 0..fabric.width() {
            for i in 0..cfg.luts_per_clb {
                slot_nets.insert((x, y, i), n.add_net(format!("slot_{x}_{y}_{i}")));
            }
            if cfg.mux_chains {
                for j in 0..cfg.chain_len {
                    chain_out_nets.insert((x, y, j), n.add_net(format!("chain_{x}_{y}_{j}")));
                }
            }
        }
    }
    let resolved_net = |n: &HashMap<(usize, usize, usize), NetId>,
                        ch: &HashMap<(usize, usize, usize), NetId>,
                        pads: &HashMap<usize, NetId>,
                        zero: NetId,
                        r: Resolved|
     -> NetId {
        match r {
            Resolved::Pad(p) => pads.get(&p).copied().unwrap_or(zero),
            Resolved::Lut { x, y, i } => n[&(x, y, i)],
            Resolved::Chain { x, y, j } => ch[&(x, y, j)],
        }
    };

    // Materialize LUT slots.
    for y in 0..fabric.height() {
        for x in 0..fabric.width() {
            for lut in 0..cfg.luts_per_clb {
                let mut pins = Vec::with_capacity(cfg.lut_k);
                for pin in 0..cfg.lut_k {
                    let (base, width) = fabric.clb_input_field(x, y, lut, pin);
                    let t = (bitstream.field(base, width) as usize).min(cfg.channel_width - 1);
                    let r = resolve_track(fabric, bitstream, &mut memo, &mut state, (x, y, t))?;
                    pins.push(resolved_net(
                        &slot_nets,
                        &chain_out_nets,
                        &pad_nets,
                        zero,
                        r,
                    ));
                }
                let mask_base = fabric.lut_mask_base(x, y, lut);
                let mut mask = 0u64;
                for row in 0..cfg.bits_per_lut() {
                    if bitstream.bit(mask_base + row) {
                        mask |= 1 << row;
                    }
                }
                // Drop don't-care pins: unused inputs default to track 0,
                // which may structurally (but never functionally) loop back
                // through this slot's own output.
                let mut lut_mask = LutMask::new(mask, cfg.lut_k);
                let mut live_pins = pins;
                let mut pin_idx = 0;
                while pin_idx < live_pins.len() {
                    if lut_mask.ignores_input(pin_idx) {
                        lut_mask = cofactor_false(lut_mask, pin_idx);
                        live_pins.remove(pin_idx);
                    } else {
                        pin_idx += 1;
                    }
                }
                let lut_out = if live_pins.is_empty() {
                    n.add_cell(
                        format!("lut_{x}_{y}_{lut}"),
                        CellKind::Const(lut_mask.mask() & 1 == 1),
                        vec![],
                    )
                } else {
                    n.add_cell(
                        format!("lut_{x}_{y}_{lut}"),
                        CellKind::Lut(lut_mask),
                        live_pins,
                    )
                };
                let registered = bitstream.bit(fabric.ff_bypass_bit(x, y, lut));
                let slot_src = if registered {
                    n.add_cell(format!("ff_{x}_{y}_{lut}"), CellKind::Dff, vec![lut_out])
                } else {
                    lut_out
                };
                let target = slot_nets[&(x, y, lut)];
                n.add_cell_driving(
                    format!("slotb_{x}_{y}_{lut}"),
                    CellKind::Buf,
                    vec![slot_src],
                    target,
                )
                .expect("slot net driven once");
            }
            if cfg.mux_chains {
                for j in 0..cfg.chain_len {
                    let mut data = Vec::with_capacity(4);
                    for pin in 0..4 {
                        if fabric.chain_pin_is_muxed(j, pin) {
                            let (base, width) = fabric.chain_data_field(x, y, j, pin);
                            let t =
                                (bitstream.field(base, width) as usize).min(cfg.channel_width - 1);
                            let r =
                                resolve_track(fabric, bitstream, &mut memo, &mut state, (x, y, t))?;
                            data.push(resolved_net(
                                &slot_nets,
                                &chain_out_nets,
                                &pad_nets,
                                zero,
                                r,
                            ));
                        } else {
                            data.push(chain_out_nets[&(x, y, j - 1)]);
                        }
                    }
                    // Selects: constant or dynamic per mode bit.
                    let mut sel_consts = [None::<bool>; 2];
                    let mut sel_nets = [zero; 2];
                    for pin in 0..2 {
                        let (val_bit, mode_bit) = fabric.chain_select_bits(x, y, j, pin);
                        if bitstream.bit(mode_bit) {
                            let (base, width) = fabric.chain_sel_conn_field(x, y, j, pin);
                            let t =
                                (bitstream.field(base, width) as usize).min(cfg.channel_width - 1);
                            let r =
                                resolve_track(fabric, bitstream, &mut memo, &mut state, (x, y, t))?;
                            sel_nets[pin] =
                                resolved_net(&slot_nets, &chain_out_nets, &pad_nets, zero, r);
                        } else {
                            sel_consts[pin] = Some(bitstream.bit(val_bit));
                        }
                    }
                    let out_src = match (sel_consts[0], sel_consts[1]) {
                        (Some(s0), Some(s1)) => {
                            // Fully static: plain wire to the chosen input.
                            data[((s1 as usize) << 1) | s0 as usize]
                        }
                        (None, Some(s1)) => {
                            let (a, b) = if s1 {
                                (data[2], data[3])
                            } else {
                                (data[0], data[1])
                            };
                            n.add_cell(
                                format!("chel_{x}_{y}_{j}"),
                                CellKind::Mux2,
                                vec![sel_nets[0], a, b],
                            )
                        }
                        (Some(s0), None) => {
                            let (a, b) = if s0 {
                                (data[1], data[3])
                            } else {
                                (data[0], data[2])
                            };
                            n.add_cell(
                                format!("chel_{x}_{y}_{j}"),
                                CellKind::Mux2,
                                vec![sel_nets[1], a, b],
                            )
                        }
                        (None, None) => n.add_cell(
                            format!("chel_{x}_{y}_{j}"),
                            CellKind::Mux4,
                            vec![sel_nets[1], sel_nets[0], data[0], data[1], data[2], data[3]],
                        ),
                    };
                    let target = chain_out_nets[&(x, y, j)];
                    n.add_cell_driving(
                        format!("chelb_{x}_{y}_{j}"),
                        CellKind::Buf,
                        vec![out_src],
                        target,
                    )
                    .expect("chain net driven once");
                }
            }
        }
    }

    for (name, pad) in &io_map.outputs {
        let src = fabric.io_output_source(*pad);
        let r = match src {
            SignalRef::Track { x, y, t } => {
                resolve_track(fabric, bitstream, &mut memo, &mut state, (x, y, t))?
            }
            _ => unreachable!("output pads read tracks"),
        };
        let net = resolved_net(&slot_nets, &chain_out_nets, &pad_nets, zero, r);
        n.add_output(name.clone(), net);
    }

    // The configured netlist must be acyclic; surface a loop as an error.
    if n.topo_order().is_err() {
        return Err(FabricNetlistError::ConfiguredLoop(
            "clb/chain feedback".into(),
        ));
    }
    Ok(n)
}

/// Restriction of a LUT mask to `input = 0`, removing that input.
fn cofactor_false(mask: LutMask, input: usize) -> LutMask {
    let k = mask.arity();
    let mut out = 0u64;
    let mut out_bit = 0usize;
    for row in 0..(1usize << k) {
        if (row >> input) & 1 == 0 {
            if (mask.mask() >> row) & 1 == 1 {
                out |= 1 << out_bit;
            }
            out_bit += 1;
        }
    }
    LutMask::new(out, k - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::FabricConfig;
    use shell_netlist::Simulator;
    use shell_synth::clean_netlist;

    fn fabric() -> Fabric {
        Fabric::generate(FabricConfig::fabulous_style(true), 2, 2)
    }

    /// Finds an input pad index feeding track (0, y, t) from the west.
    fn west_pad(f: &Fabric, y: usize, t: usize) -> usize {
        match f.track_mux_inputs(0, y, t)[0] {
            SignalRef::IoIn(i) => i,
            other => panic!("expected west IO pad, got {other}"),
        }
    }

    /// Finds the output pad reading track (0, y, t) on the west edge.
    fn west_out_pad(f: &Fabric, y: usize, t: usize) -> usize {
        (0..f.io_output_count())
            .find(|&i| {
                matches!(f.io_output_source(i),
                    SignalRef::Track { x, y: yy, t: tt } if x == 0 && yy == y && tt == t)
            })
            .expect("west output pad exists")
    }

    /// Configures a single LUT as a 2-input function fed by two west pads,
    /// result observable on a west output pad. Returns (bitstream, io_map).
    fn program_lut2(f: &Fabric, mask: u64) -> (Bitstream, IoMap) {
        let mut bs = Bitstream::zeros(f.config_bit_count());
        // Route: pads drive tracks 0 and 1 of tile (0,0) (select=0 → west).
        // Track selects default to 0 = west input, so boundary tracks already
        // carry the pads. Mark them used.
        for t in [0usize, 1] {
            let (base, width) = f.track_select_field(0, 0, t);
            bs.set_field(base, width, 0);
        }
        // LUT 0 of tile (0,0): pin0 ← track0, pin1 ← track1, pins 2,3 ← track0.
        for (pin, t) in [(0usize, 0u64), (1, 1), (2, 0), (3, 0)] {
            let (base, width) = f.clb_input_field(0, 0, 0, pin);
            bs.set_field(base, width, t);
        }
        // Truth table: caller's 2-input mask extended over 4 pins. Pins 2,3
        // mirror pin0's track, so rows must replicate accordingly: row index
        // bits (p3 p2 p1 p0) with p2 = p3 = p0. Fill all rows consistently:
        let mask_base = f.lut_mask_base(0, 0, 0);
        for row in 0..16u64 {
            let p0 = row & 1;
            let p1 = (row >> 1) & 1;
            let v = (mask >> ((p1 << 1) | p0)) & 1 == 1;
            bs.set(mask_base + row as usize, v);
        }
        // Combinational bypass (0 = comb) — mark used.
        bs.set(f.ff_bypass_bit(0, 0, 0), false);
        // Route the LUT output to track 2 of tile (0,0):
        // track mux input order: [W, E, S, N, clb0..clb3, chain] → clb0 = 4.
        let (base, width) = f.track_select_field(0, 0, 2);
        bs.set_field(base, width, 4);
        let io = IoMap {
            inputs: vec![
                ("a".into(), west_pad(f, 0, 0)),
                ("b".into(), west_pad(f, 0, 1)),
            ],
            outputs: vec![("f".into(), west_out_pad(f, 0, 2))],
        };
        (bs, io)
    }

    #[test]
    fn configured_lut_implements_and() {
        let f = fabric();
        let (bs, io) = program_lut2(&f, 0b1000); // AND
        let n = to_configured_netlist(&f, &bs, &io).expect("configure");
        let n = clean_netlist(&n);
        assert_eq!(n.eval_comb(&[true, true]), vec![true]);
        assert_eq!(n.eval_comb(&[true, false]), vec![false]);
        assert_eq!(n.eval_comb(&[false, true]), vec![false]);
        assert_eq!(n.eval_comb(&[false, false]), vec![false]);
    }

    #[test]
    fn configured_lut_implements_xor() {
        let f = fabric();
        let (bs, io) = program_lut2(&f, 0b0110);
        let n = to_configured_netlist(&f, &bs, &io).expect("configure");
        let n = clean_netlist(&n);
        assert_eq!(n.eval_comb(&[true, false]), vec![true]);
        assert_eq!(n.eval_comb(&[true, true]), vec![false]);
    }

    #[test]
    fn locked_netlist_matches_configured_under_correct_key() {
        let f = fabric();
        let (bs, io) = program_lut2(&f, 0b0110);
        let configured = to_configured_netlist(&f, &bs, &io).expect("configure");
        let locked = to_locked_netlist(&f, &io);
        assert_eq!(locked.key_inputs().len(), f.config_bit_count());
        // The locked netlist contains the full mesh: simulate with the
        // correct key. It may be structurally cyclic for other keys, but the
        // all-defaults-plus-program key resolves acyclically — verify via
        // constant propagation with the key bound.
        let key: Vec<bool> = bs.as_bools().to_vec();
        // Bind keys as constants by building a wrapper: reuse shrink-style
        // binding through eval: compare on all 4 input patterns using the
        // *configured* netlist as reference.
        let locked_bound = crate::shrink::bind_keys(&locked, &key);
        let locked_clean = clean_netlist(&locked_bound);
        for pattern in 0..4u32 {
            let pi = vec![pattern & 1 == 1, pattern & 2 == 2];
            assert_eq!(
                locked_clean.eval_comb(&pi),
                configured.eval_comb(&pi),
                "pattern {pattern}"
            );
        }
    }

    #[test]
    fn registered_slot_creates_dff() {
        let f = fabric();
        let (mut bs, io) = program_lut2(&f, 0b1000);
        bs.set(f.ff_bypass_bit(0, 0, 0), true);
        let n = to_configured_netlist(&f, &bs, &io).expect("configure");
        assert_eq!(n.sequential_cells().len(), 1);
        let mut sim = Simulator::new(&n);
        // AND registered: output lags one cycle.
        assert_eq!(sim.step(&[true, true], &[]), vec![false]);
        assert_eq!(sim.step(&[false, false], &[]), vec![true]);
        assert_eq!(sim.step(&[false, false], &[]), vec![false]);
    }

    #[test]
    fn configured_loop_detected() {
        let f = fabric();
        let mut bs = Bitstream::zeros(f.config_bit_count());
        // Route track 3 of (0,0) ← east neighbor (1,0); and track 3 of (1,0)
        // ← west neighbor (0,0): a 2-track loop.
        let (b0, w0) = f.track_select_field(0, 0, 3);
        bs.set_field(b0, w0, 1); // east
        let (b1, w1) = f.track_select_field(1, 0, 3);
        bs.set_field(b1, w1, 0); // west
                                 // Observe the looped track so resolution must walk it: wire LUT pin.
        let (pb, pw) = f.clb_input_field(0, 0, 0, 0);
        bs.set_field(pb, pw, 3);
        let io = IoMap {
            inputs: vec![],
            outputs: vec![("f".into(), west_out_pad(&f, 0, 3))],
        };
        match to_configured_netlist(&f, &bs, &io) {
            Err(FabricNetlistError::ConfiguredLoop(_)) => {}
            other => panic!("expected loop error, got {other:?}"),
        }
    }

    #[test]
    fn bitstream_length_checked() {
        let f = fabric();
        let bs = Bitstream::zeros(3);
        let io = IoMap::default();
        assert!(matches!(
            to_configured_netlist(&f, &bs, &io),
            Err(FabricNetlistError::BitstreamLength { .. })
        ));
    }

    #[test]
    fn bad_io_index_rejected() {
        let f = fabric();
        let bs = Bitstream::zeros(f.config_bit_count());
        let io = IoMap {
            inputs: vec![("a".into(), usize::MAX)],
            outputs: vec![],
        };
        assert!(matches!(
            to_configured_netlist(&f, &bs, &io),
            Err(FabricNetlistError::BadIoIndex(_))
        ));
    }

    #[test]
    fn locked_netlist_key_ordering() {
        let f = fabric();
        let locked = to_locked_netlist(&f, &IoMap::default());
        let keys = locked.key_inputs();
        assert_eq!(keys.len(), f.config_bit_count());
        assert_eq!(locked.net(keys[0]).name, "cfg[0]");
        assert_eq!(
            locked.net(keys[keys.len() - 1]).name,
            format!("cfg[{}]", keys.len() - 1)
        );
    }

    #[test]
    fn chain_element_dynamic_select() {
        // Program chain element 0 of tile (0,0) as a dynamic 2:1 mux:
        // data pin 0 ← track 0 (pad d0), data pin 1 ← track 1 (pad d1),
        // select pin 0 dynamic from track 2 (pad sel), select pin 1 const 0.
        let f = fabric();
        let mut bs = Bitstream::zeros(f.config_bit_count());
        for (pin, t) in [(0usize, 0u64), (1, 1), (2, 0), (3, 0)] {
            let (base, width) = f.chain_data_field(0, 0, 0, pin);
            bs.set_field(base, width, t);
        }
        let (conn0, cw0) = f.chain_sel_conn_field(0, 0, 0, 0);
        bs.set_field(conn0, cw0, 2); // dynamic select from track 2
        let (val0, mode0) = f.chain_select_bits(0, 0, 0, 0);
        bs.set(mode0, true);
        bs.set(val0, false);
        let (val1, mode1) = f.chain_select_bits(0, 0, 0, 1);
        bs.set(mode1, false);
        bs.set(val1, false);
        // Make elements 1.. transparent: const selects choosing d0 = prev.
        for j in 1..f.config().chain_len {
            for pin in 0..2 {
                let (v, m) = f.chain_select_bits(0, 0, j, pin);
                bs.set(m, false);
                bs.set(v, false);
            }
        }
        // Route the chain output onto track 5 (last track-mux input).
        let ins = f.track_mux_inputs(0, 0, 5);
        let chain_idx = ins
            .iter()
            .position(|s| matches!(s, SignalRef::ChainOut { .. }))
            .expect("chain feeds switch");
        let (base, width) = f.track_select_field(0, 0, 5);
        bs.set_field(base, width, chain_idx as u64);
        let io = IoMap {
            inputs: vec![
                ("d0".into(), west_pad(&f, 0, 0)),
                ("d1".into(), west_pad(&f, 0, 1)),
                ("sel".into(), west_pad(&f, 0, 2)),
            ],
            outputs: vec![("f".into(), west_out_pad(&f, 0, 5))],
        };
        let n = to_configured_netlist(&f, &bs, &io).expect("configure");
        let n = clean_netlist(&n);
        // f = sel ? d1 : d0.
        assert_eq!(n.eval_comb(&[true, false, false]), vec![true]);
        assert_eq!(n.eval_comb(&[true, false, true]), vec![false]);
        assert_eq!(n.eval_comb(&[false, true, true]), vec![true]);
    }
}
