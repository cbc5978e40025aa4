//! The complete place-and-route flows with the fit-check/expand loop
//! (steps 6–7 of the SheLL pipeline), bitstream emission and functional
//! verification.

use crate::place::{self, PlaceRequest, Placement, Shortage, Slot};
use crate::route::{RouteError, RouteRequest, Router, RoutingResult, SinkKind, SourceKind};
use shell_fabric::{Bitstream, Fabric, FabricConfig, FabricUsage, IoMap};
use shell_guard::Budget;
use shell_netlist::equiv::{equiv_counted, EquivResult, Method};
use shell_netlist::{CellId, CellKind, NetId, Netlist};
use shell_synth::lut_map_hybrid;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Options of the PnR flows.
#[derive(Debug, Clone)]
pub struct PnrOptions {
    /// Seed for the annealer.
    pub seed: u64,
    /// Negotiated-congestion iterations per routing attempt.
    pub max_route_iterations: usize,
    /// Fabric expansion attempts (step 7 retries).
    pub max_fit_attempts: usize,
    /// Independent annealing starts per placement; the lowest-cost start
    /// wins ([`place::place`]). Starts run in parallel when workers are
    /// available, so extra starts are close to free on multi-core machines;
    /// `1` reproduces the single-start flow.
    pub place_starts: usize,
    /// Lower bound `(w, h)` on the fabric dimensions. The fit loop derives
    /// its starting size from demand and clamps it to this floor, so a
    /// sweep can ask for deliberately oversized arrays (more unused tiles →
    /// more configuration bits → a bigger post-shrink key). The structural
    /// minimum of 2×2 always applies.
    pub min_dims: (usize, usize),
    /// Shared resource budget. Placement polls it and degrades to its
    /// best-so-far configuration; routing and the fit loop abort with
    /// [`PnrError::Exhausted`]. Defaults to [`Budget::from_env`], so
    /// `SHELL_DEADLINE_MS` bounds a whole flow end to end.
    pub budget: Budget,
}

impl Default for PnrOptions {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            max_route_iterations: 96,
            max_fit_attempts: 18,
            place_starts: 2,
            min_dims: (2, 2),
            budget: Budget::from_env(),
        }
    }
}

/// Errors of the PnR flows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PnrError {
    /// The netlist contains cells the target flow cannot map.
    Unsupported(String),
    /// Packing failed.
    Pack(String),
    /// No fabric size within the attempt budget could fit the design.
    DoesNotFit(String),
    /// A net could not be routed legally within the iteration limit; the
    /// fit loop treats this as congestion and expands the fabric, so it
    /// only escapes when every size within the attempt budget failed.
    Unroutable(String),
    /// The shared [`Budget`] ran out (deadline, quota or cancellation)
    /// before the flow could finish; retrying without more budget is
    /// pointless, so the fit loop aborts immediately.
    Exhausted(String),
    /// The configured fabric does not match the input netlist.
    VerificationFailed(String),
}

impl fmt::Display for PnrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PnrError::Unsupported(m) => write!(f, "unsupported input: {m}"),
            PnrError::Pack(m) => write!(f, "packing failed: {m}"),
            PnrError::DoesNotFit(m) => write!(f, "design does not fit: {m}"),
            PnrError::Unroutable(m) => write!(f, "unroutable: {m}"),
            PnrError::Exhausted(m) => write!(f, "budget exhausted: {m}"),
            PnrError::VerificationFailed(m) => write!(f, "verification failed: {m}"),
        }
    }
}

impl std::error::Error for PnrError {}

/// Result of a successful PnR run.
#[derive(Debug, Clone)]
pub struct PnrResult {
    /// The (possibly expanded) fabric the design fits in.
    pub fabric: Fabric,
    /// The programming bitstream (used bits marked).
    pub bitstream: Bitstream,
    /// Port-to-pad binding.
    pub io_map: IoMap,
    /// `usage.tiles_used / fabric.tile_count()` — the Fig. 2 utilization
    /// metric.
    pub utilization: f64,
    /// Router iterations of the final attempt.
    pub route_iterations: usize,
    /// Fit attempts consumed (1 = first size fit).
    pub fit_attempts: usize,
    /// Usage counters for Table I-style resource accounting.
    pub usage: FabricUsage,
    /// Stages that ran out of budget but produced a usable (if lower
    /// quality) result anyway, e.g. `"place: deadline"`. Empty for a
    /// full-quality run.
    pub degraded: Vec<String>,
}

/// Maps a LUT-mapped (LGC) netlist onto a fabric: pack → place → route →
/// bitstream, growing the fabric until everything fits.
///
/// # Errors
///
/// See [`PnrError`]. Key-locked netlists are rejected (the key of an
/// eFPGA-redacted design *is* the bitstream).
pub fn place_and_route(
    netlist: &Netlist,
    config: FabricConfig,
    options: &PnrOptions,
) -> Result<PnrResult, PnrError> {
    if !netlist.key_inputs().is_empty() {
        return Err(PnrError::Unsupported(
            "netlist has key inputs; map the unlocked design".into(),
        ));
    }
    let slots = place::pack(netlist, config.lut_k).map_err(PnrError::Pack)?;
    run_fit_loop(netlist, netlist, &slots, &[], config, options)
}

/// Maps a mixed ROUTE+LGC netlist: mux cascades go to the fabric's chain
/// blocks, the remaining logic is LUT-mapped into CLBs (SheLL's dual
/// synthesis, steps 5–6).
///
/// The input is any combinational/sequential netlist; it is hybrid-mapped
/// first ([`shell_synth::lut_map_hybrid`]).
///
/// # Errors
///
/// See [`PnrError`]. Requires a chain-enabled fabric config.
pub fn place_and_route_with_chains(
    netlist: &Netlist,
    config: FabricConfig,
    options: &PnrOptions,
) -> Result<PnrResult, PnrError> {
    if !netlist.key_inputs().is_empty() {
        return Err(PnrError::Unsupported(
            "netlist has key inputs; map the unlocked design".into(),
        ));
    }
    if !config.mux_chains {
        return Err(PnrError::Unsupported(
            "chain mapping needs a chain-enabled fabric".into(),
        ));
    }
    let hybrid = lut_map_hybrid(netlist, config.lut_k)
        .map_err(|e| PnrError::Unsupported(e.to_string()))?
        .netlist;
    // Partition: mux cells → chains; everything else → slots.
    let mux_cells: Vec<CellId> = hybrid
        .cells()
        .filter(|(_, c)| c.kind.is_mux())
        .map(|(id, _)| id)
        .collect();
    let chains = link_chains(&hybrid, &mux_cells);
    let slots = place::pack_filtered(&hybrid, config.lut_k, |kind| !kind.is_mux())
        .map_err(PnrError::Pack)?;
    run_fit_loop(&hybrid, netlist, &slots, &chains, config, options)
}

/// Groups mux cells into linear chains: a cell's `d0`-side input that is a
/// single-fanout mux becomes its predecessor. Chains are returned head
/// (deepest element) first.
fn link_chains(netlist: &Netlist, mux_cells: &[CellId]) -> Vec<Vec<CellId>> {
    let fanout = netlist.fanout_table();
    let is_mux_cell: HashSet<CellId> = mux_cells.iter().copied().collect();
    // predecessor via the d0-position input: Mux4 pin 2, Mux2 pin 1.
    let link_pin = |kind: CellKind| match kind {
        CellKind::Mux4 => 2usize,
        CellKind::Mux2 => 1usize,
        _ => unreachable!(),
    };
    let mut pred: HashMap<CellId, CellId> = HashMap::new();
    let mut has_succ: HashSet<CellId> = HashSet::new();
    for &cid in mux_cells {
        let c = netlist.cell(cid);
        let d0 = c.inputs[link_pin(c.kind)];
        if netlist.is_primary_output(d0) {
            continue;
        }
        let Some(drv) = netlist.net(d0).driver else {
            continue;
        };
        if !is_mux_cell.contains(&drv) || has_succ.contains(&drv) {
            continue;
        }
        if fanout[d0.index()].len() != 1 {
            continue;
        }
        pred.insert(cid, drv);
        has_succ.insert(drv);
    }
    // Tails: cells that are nobody's predecessor target... walk from cells
    // with no successor backwards.
    let mut chains = Vec::new();
    for &cid in mux_cells {
        if has_succ.contains(&cid) {
            continue; // interior or head of someone's chain
        }
        // cid is a tail; walk predecessors to the head.
        let mut chain = vec![cid];
        let mut cur = cid;
        while let Some(&p) = pred.get(&cur) {
            chain.push(p);
            cur = p;
        }
        chain.reverse(); // head (deepest) first
        chains.push(chain);
    }
    chains
}

// ----------------------------------------------------------------------
// Shared fit loop
// ----------------------------------------------------------------------

fn initial_dims(
    config: &FabricConfig,
    slots: usize,
    chain_blocks: usize,
    ports: usize,
    min_dims: (usize, usize),
) -> (usize, usize) {
    let tiles_for_slots = slots.div_ceil(config.luts_per_clb.max(1));
    let tiles = tiles_for_slots.max(chain_blocks).max(1);
    let mut w = (tiles as f64).sqrt().ceil() as usize;
    let mut h = tiles.div_ceil(w);
    // A single row/column fabric cannot change track indices (the rotation
    // needs vertical hops) — start at 2x2 minimum, and make sure the
    // perimeter offers pad headroom (2 boundary nodes per port). The
    // caller-provided floor stacks on top of the structural minimum.
    w = w.max(2).max(min_dims.0);
    h = h.max(2).max(min_dims.1);
    while config.channel_width * 2 * (w + h) < 3 * ports {
        if w <= h {
            w += 1;
        } else {
            h += 1;
        }
    }
    (w, h)
}

/// The shared engine: `mapped` is the netlist whose cells are being placed
/// (`slots`, and `chains` of mux cells, each head first and on one or more
/// whole chain blocks); `reference` is the netlist to verify against (the
/// original design in the chain flow, `mapped` itself otherwise).
fn run_fit_loop(
    mapped: &Netlist,
    reference: &Netlist,
    slots: &[Slot],
    chains: &[Vec<CellId>],
    config: FabricConfig,
    options: &PnrOptions,
) -> Result<PnrResult, PnrError> {
    let _span = shell_trace::span!("pnr.fit");
    let chain_blocks: usize = chains
        .iter()
        .map(|c| c.len().div_ceil(config.chain_len.max(1)))
        .sum();
    let ports = mapped.inputs().len() + mapped.outputs().len();
    let (mut w, mut h) = initial_dims(&config, slots.len(), chain_blocks, ports, options.min_dims);
    let mut last_err = String::new();
    let mut last_unroutable = false;
    for attempt in 1..=options.max_fit_attempts {
        options
            .budget
            .checkpoint()
            .map_err(|why| PnrError::Exhausted(format!("fit loop: {why}")))?;
        let _attempt_span = shell_trace::span!("pnr.fit_attempt", attempt = attempt);
        shell_trace::counter_add("pnr.fit_attempts", 1);
        let fabric = Fabric::generate(config.clone(), w, h);
        let step = 1 + attempt / 6;
        match try_once(mapped, slots, chains, &fabric, options, attempt) {
            Ok(mut result) => {
                verify(reference, &result)?;
                result.fit_attempts = attempt;
                return Ok(result);
            }
            // The paper's footnote 5: the *type* of shortage reported by the
            // mapping tool drives how the fabric is expanded. Capacity
            // shortages (chain blocks, LUT sites, pads) need area — grow
            // both dimensions.
            Err(Misfit::Short(short)) => {
                last_unroutable = false;
                last_err = short.to_string();
                w += step;
                h += step;
            }
            // Routing congestion (a net that did not route, or a pin whose
            // net never reached its tile) needs perimeter/relief — grow the
            // smaller dimension, with acceleration for port-heavy designs.
            Err(Misfit::Failed(err @ (PnrError::DoesNotFit(_) | PnrError::Unroutable(_)))) => {
                last_unroutable = matches!(err, PnrError::Unroutable(_));
                let (PnrError::DoesNotFit(m) | PnrError::Unroutable(m)) = err else {
                    unreachable!()
                };
                last_err = m;
                if w <= h {
                    w += step;
                } else {
                    h += step;
                }
            }
            Err(Misfit::Failed(other)) => return Err(other),
        }
    }
    let msg = format!(
        "gave up after {} attempts: {last_err}",
        options.max_fit_attempts
    );
    Err(if last_unroutable {
        PnrError::Unroutable(msg)
    } else {
        PnrError::DoesNotFit(msg)
    })
}

/// Why one fit attempt failed.
#[derive(Debug)]
enum Misfit {
    /// The fabric lacks area.
    Short(Shortage),
    /// Anything else.
    Failed(PnrError),
}

impl From<Shortage> for Misfit {
    fn from(short: Shortage) -> Self {
        Misfit::Short(short)
    }
}

impl From<PnrError> for Misfit {
    fn from(err: PnrError) -> Self {
        Misfit::Failed(err)
    }
}

/// One fit attempt on `fabric`, in three stages: the chains go on chain
/// blocks ([`place_chains`]); the slots are placed around them and every
/// net gets a route request ([`Layout::route_requests`]); the routed design
/// becomes a bitstream ([`Layout::bitstream`]).
fn try_once(
    mapped: &Netlist,
    slots: &[Slot],
    chains: &[Vec<CellId>],
    fabric: &Fabric,
    options: &PnrOptions,
    attempt: usize,
) -> Result<PnrResult, Misfit> {
    let elements = place_chains(mapped, chains, fabric)?;
    // Pin hints: every net a chain element reads or drives is anchored at
    // its tile, steering the pad assignment toward the chain blocks.
    let mut pin_hints: HashMap<NetId, Vec<(usize, usize)>> = HashMap::new();
    for e in &elements {
        let c = mapped.cell(e.cell);
        for &net in c.inputs.iter().chain([&c.output]) {
            pin_hints.entry(net).or_default().push((e.x, e.y));
        }
    }
    // Chain tiles are pad-averse: a foreign pad on a chain tile burns a
    // track the block's pins need.
    let chain_tiles: HashSet<(usize, usize)> = elements.iter().map(|e| (e.x, e.y)).collect();
    let placement = place::place(&PlaceRequest {
        netlist: mapped,
        slots,
        fabric,
        seed: options.seed + attempt as u64,
        starts: options.place_starts,
        pin_hints: &pin_hints,
        chain_tiles: &chain_tiles,
        budget: &options.budget,
    })?;
    let layout = Layout {
        mapped,
        fabric,
        slots,
        elements: &elements,
        placement: &placement,
    };
    let (nets, requests) = layout.route_requests()?;
    let routing = Router::new(fabric)
        .route_all_budgeted(&requests, options.max_route_iterations, &options.budget)
        .map_err(|e| match e {
            RouteError::Unroutable { request } => {
                PnrError::Unroutable(format!("net `{}`", mapped.net(nets[request]).name))
            }
            RouteError::Exhausted(why) => PnrError::Exhausted(format!("route: {why}")),
        })?;
    let bitstream = layout.bitstream(&nets, &routing)?;
    let usage = layout.usage(&routing, bitstream.used_count());
    let io_map = IoMap {
        inputs: mapped
            .inputs()
            .iter()
            .zip(&placement.input_pads)
            .map(|(&net, &pad)| (mapped.net(net).name.clone(), pad))
            .collect(),
        outputs: mapped
            .outputs()
            .iter()
            .zip(&placement.output_pads)
            .map(|((name, _), &pad)| (name.clone(), pad))
            .collect(),
    };
    Ok(PnrResult {
        fabric: fabric.clone(),
        bitstream,
        io_map,
        utilization: usage.tiles_used as f64 / fabric.tile_count() as f64,
        route_iterations: routing.iterations,
        fit_attempts: 1,
        usage,
        degraded: placement
            .degraded
            .iter()
            .map(|why| format!("place: {why}"))
            .collect(),
    })
}

/// A chain element's select pin.
#[derive(Debug, Clone, Copy)]
enum Select {
    /// Held at a constant; a Mux2's unused `s1` holds 0.
    Const(bool),
    /// Read from a track.
    Net(NetId),
}

/// The element pins of one chain cell.
#[derive(Debug, Clone)]
struct ElementPins {
    /// Data pins `d0..d3`; a Mux2 leaves `d2` and `d3` unused.
    data: [Option<NetId>; 4],
    /// Selects `s0` and `s1`.
    selects: [Select; 2],
}

impl ElementPins {
    /// The pins of mux cell `cell`, from its netlist order: Mux4
    /// `[s1, s0, d0..d3]`, Mux2 `[s, d0, d1]`.
    fn of(netlist: &Netlist, cell: CellId) -> Self {
        let c = netlist.cell(cell);
        let select = |net| match net_constant(netlist, net) {
            Some(v) => Select::Const(v),
            None => Select::Net(net),
        };
        match c.kind {
            CellKind::Mux4 => Self {
                data: [2, 3, 4, 5].map(|pin| Some(c.inputs[pin])),
                selects: [select(c.inputs[1]), select(c.inputs[0])],
            },
            CellKind::Mux2 => Self {
                data: [Some(c.inputs[1]), Some(c.inputs[2]), None, None],
                selects: [select(c.inputs[0]), Select::Const(false)],
            },
            _ => unreachable!("only mux cells go on chain elements"),
        }
    }

    /// The nets element `j` of a block reads over its tile's tracks, pin by
    /// pin: the data pins with a connection mux, then the selects that read
    /// a signal.
    fn track_nets<'a>(&'a self, fabric: &'a Fabric, j: usize) -> impl Iterator<Item = NetId> + 'a {
        let data = self
            .data
            .iter()
            .enumerate()
            .filter(move |&(pin, _)| fabric.chain_pin_is_muxed(j, pin))
            .filter_map(|(_, &net)| net);
        let selects = self.selects.iter().filter_map(|select| match *select {
            Select::Net(net) => Some(net),
            Select::Const(_) => None,
        });
        data.chain(selects)
    }
}

/// A chain cell on its element.
#[derive(Debug, Clone)]
struct Element {
    cell: CellId,
    /// Tile of the element's chain block.
    x: usize,
    y: usize,
    /// Position in the block.
    j: usize,
    /// Whether this is the segment's last element: its output is the block
    /// output, and the block's later elements are transparent fill.
    last: bool,
    pins: ElementPins,
}

/// Stage 1: puts each chain on whole chain blocks, in chain order, on tiles
/// in row-major order (placement-independent, so pad assignment can aim at
/// the chain pins). Returns the elements in cell order.
///
/// A block's pins (data and dynamic selects) all arrive over its tile's
/// tracks, so the distinct nets one segment pulls in must leave track
/// headroom: a chain is split greedily where the next cell would exceed
/// that budget or the block length.
fn place_chains(
    mapped: &Netlist,
    chains: &[Vec<CellId>],
    fabric: &Fabric,
) -> Result<Vec<Element>, Shortage> {
    let config = fabric.config();
    let chain_len = config.chain_len.max(1);
    let blocks_needed: usize = chains.iter().map(|c| c.len().div_ceil(chain_len)).sum();
    if blocks_needed > fabric.tile_count() && config.mux_chains {
        return Err(Shortage::ChainBlocks(format!(
            "{blocks_needed} chain blocks > {} tiles",
            fabric.tile_count()
        )));
    }
    let track_budget = config.channel_width.saturating_sub(4).max(2);
    let mut elements: Vec<Element> = Vec::new();
    let mut blocks = 0usize;
    for chain in chains {
        let mut demand: HashSet<NetId> = HashSet::new();
        let mut j = 0;
        for &cell in chain {
            let pins = ElementPins::of(mapped, cell);
            demand.extend(pins.track_nets(fabric, j));
            if j > 0 && (demand.len() > track_budget || j >= chain_len) {
                // This cell heads the next block, where its d0 arrives over
                // a track.
                j = 0;
                demand.clear();
                demand.extend(pins.track_nets(fabric, 0));
            }
            if j == 0 {
                // A new block: the element before it ends its segment.
                if let Some(prev) = elements.last_mut() {
                    prev.last = true;
                }
                if blocks == fabric.tile_count() {
                    return Err(Shortage::ChainBlocks("out of chain blocks".into()));
                }
                blocks += 1;
            }
            let tile = blocks - 1;
            elements.push(Element {
                cell,
                x: tile % fabric.width(),
                y: tile / fabric.width(),
                j,
                last: false,
                pins,
            });
            j += 1;
        }
    }
    if let Some(e) = elements.last_mut() {
        e.last = true;
    }
    elements.sort_unstable_by_key(|e| e.cell);
    Ok(elements)
}

/// One fit attempt's design on its fabric: the slots where placement put
/// them and the chain cells on their elements.
struct Layout<'a> {
    mapped: &'a Netlist,
    fabric: &'a Fabric,
    slots: &'a [Slot],
    /// In cell order.
    elements: &'a [Element],
    placement: &'a Placement,
}

impl Layout<'_> {
    /// Stage 2: one route request per net that has sinks and a source, in
    /// net order, with the net of each. The router's initial pass routes
    /// against growing occupancy and every sink search starts from the
    /// tree so far, so both orders steer the routing: a net's sinks are
    /// its slot pins in slot order, then its element pins in cell order
    /// (one sink per tile), then its output pads.
    fn route_requests(&self) -> Result<(Vec<NetId>, Vec<RouteRequest>), PnrError> {
        let Self {
            mapped,
            fabric,
            slots,
            elements,
            placement,
        } = *self;
        let mut source_of: HashMap<NetId, SourceKind> = HashMap::new();
        for (&net, &pad) in mapped.inputs().iter().zip(&placement.input_pads) {
            source_of.insert(net, SourceKind::Pad(pad));
        }
        for (slot, &(x, y, s)) in slots.iter().zip(&placement.sites) {
            source_of.insert(slot.output_net, SourceKind::Slot { x, y, slot: s });
        }
        // Only a segment's last element drives its block output; the others
        // feed the next element's hard-wired d0, which no pin reads from a
        // track (their nets have fanout one, see `link_chains`).
        for e in elements.iter().filter(|e| e.last) {
            let source = SourceKind::ChainBlock { x: e.x, y: e.y };
            source_of.insert(mapped.cell(e.cell).output, source);
        }
        let mut sinks_of: BTreeMap<NetId, Vec<SinkKind>> = BTreeMap::new();
        let mut pin_tiles: HashSet<(NetId, usize, usize)> = HashSet::new();
        let mut pin_sink = |net: NetId, x: usize, y: usize| {
            if pin_tiles.insert((net, x, y)) {
                sinks_of
                    .entry(net)
                    .or_default()
                    .push(SinkKind::AnyTrackAt { x, y });
            }
        };
        for (slot, &(x, y, _)) in slots.iter().zip(&placement.sites) {
            for &net in &slot.input_nets {
                pin_sink(net, x, y);
            }
        }
        for e in elements {
            for net in e.pins.track_nets(fabric, e.j) {
                pin_sink(net, e.x, e.y);
            }
        }
        for ((_, net), &pad) in mapped.outputs().iter().zip(&placement.output_pads) {
            sinks_of
                .entry(*net)
                .or_default()
                .push(SinkKind::OutputPad { pad });
        }
        let mut nets = Vec::new();
        let mut requests = Vec::new();
        for (net, sinks) in sinks_of {
            let Some(&source) = source_of.get(&net) else {
                // Constant-driven nets are skipped; any other net without a
                // source is floating.
                if net_constant(mapped, net).is_some() {
                    continue;
                }
                return Err(PnrError::Unsupported(format!(
                    "net `{}` has no mappable source",
                    mapped.net(net).name
                )));
            };
            nets.push(net);
            requests.push(RouteRequest { source, sinks });
        }
        Ok((nets, requests))
    }

    /// Stage 3: the configuration bits of the routed switches, the slots
    /// and the chain elements. `nets[i]`, in net order, is the net
    /// `routing.nets[i]` carries.
    fn bitstream(&self, nets: &[NetId], routing: &RoutingResult) -> Result<Bitstream, PnrError> {
        let fabric = self.fabric;
        let config = fabric.config();
        let mut bs = Bitstream::zeros(fabric.config_bit_count());
        // A net can hold several tracks at one tile; its pins there read
        // the lowest.
        let mut track_at: HashMap<(NetId, usize, usize), usize> = HashMap::new();
        for (&net, routed) in nets.iter().zip(&routing.nets) {
            for &((x, y, t), sel) in &routed.nodes {
                let (base, width) = fabric.track_select_field(x, y, t);
                bs.set_field(base, width, sel as u64);
                track_at
                    .entry((net, x, y))
                    .and_modify(|lowest| *lowest = (*lowest).min(t))
                    .or_insert(t);
            }
        }
        let track = |what: &str, net: NetId, x: usize, y: usize| {
            track_at.get(&(net, x, y)).copied().ok_or_else(|| {
                PnrError::DoesNotFit(format!(
                    "{what} net `{}` missing at ({x},{y})",
                    self.mapped.net(net).name
                ))
            })
        };
        for (slot, &(x, y, s)) in self.slots.iter().zip(&self.placement.sites) {
            for (pin, &net) in slot.input_nets.iter().enumerate() {
                let (base, width) = fabric.clb_input_field(x, y, s, pin);
                bs.set_field(base, width, track("pin", net, x, y)? as u64);
            }
            // Unused pins must not point at a track carrying this slot's own
            // output (the mask ignores them functionally, but the LUT read
            // tree would close a structural loop). A track already feeding a
            // used pin is provably upstream; otherwise pick the first track
            // not carrying the slot's output.
            let safe_track = match slot.input_nets.first() {
                Some(&net) => track("pin", net, x, y)?,
                None => {
                    let own = nets
                        .binary_search(&slot.output_net)
                        .ok()
                        .map(|r| &routing.nets[r].nodes);
                    let carries_own =
                        |t| own.is_some_and(|nodes| nodes.iter().any(|&(n, _)| n == (x, y, t)));
                    (0..config.channel_width)
                        .find(|&t| !carries_own(t))
                        .unwrap_or(0)
                }
            };
            for pin in slot.input_nets.len()..config.lut_k {
                let (base, width) = fabric.clb_input_field(x, y, s, pin);
                set_unused_field(&mut bs, base, width, safe_track);
            }
            let mask_base = fabric.lut_mask_base(x, y, s);
            for row in 0..config.bits_per_lut() {
                bs.set(mask_base + row, (slot.mask >> row) & 1 == 1);
            }
            // The FF-bypass bit is secret only when the register path is
            // live; step 8 physically removes unused FFs, so unregistered
            // slots tie the bypass to the combinational path.
            if slot.registered {
                bs.set(fabric.ff_bypass_bit(x, y, s), true);
            } else {
                bs.set_unused(fabric.ff_bypass_bit(x, y, s), false);
            }
        }
        for e in self.elements {
            let (x, y, j) = (e.x, e.y, e.j);
            let mut first_data_track = None;
            for (pin, &net) in e.pins.data.iter().enumerate() {
                if !fabric.chain_pin_is_muxed(j, pin) {
                    continue; // hard-wired to the previous element
                }
                let (base, width) = fabric.chain_data_field(x, y, j, pin);
                match net {
                    Some(net) => {
                        let t = track("chain data", net, x, y)?;
                        first_data_track.get_or_insert(t);
                        bs.set_field(base, width, t as u64);
                    }
                    // An unused data pin points at a track already feeding
                    // a real pin (provably upstream — never a structural
                    // loop through the element's own block output).
                    None => set_unused_field(&mut bs, base, width, first_data_track.unwrap_or(0)),
                }
            }
            for (pin, &select) in e.pins.selects.iter().enumerate() {
                let (val_bit, mode_bit) = fabric.chain_select_bits(x, y, j, pin);
                let (mode, value) = match select {
                    Select::Const(v) => (false, v),
                    Select::Net(net) => {
                        let (base, width) = fabric.chain_sel_conn_field(x, y, j, pin);
                        bs.set_field(base, width, track("chain select", net, x, y)? as u64);
                        (true, false)
                    }
                };
                bs.set(mode_bit, mode);
                bs.set(val_bit, value);
            }
            if e.last {
                for fill in j + 1..config.chain_len {
                    for pin in 0..2 {
                        let (val_bit, mode_bit) = fabric.chain_select_bits(x, y, fill, pin);
                        bs.set_unused(mode_bit, false);
                        bs.set_unused(val_bit, false);
                    }
                }
            }
        }
        Ok(bs)
    }

    /// The Table I usage counters; `config_bits` is the bitstream's used
    /// bit count.
    fn usage(&self, routing: &RoutingResult, config_bits: usize) -> FabricUsage {
        let Self {
            fabric,
            slots,
            elements,
            placement,
            ..
        } = *self;
        // Tiles hosting slots, chain blocks or routed tracks.
        let mut tile_used = vec![false; fabric.tile_count()];
        let slot_tiles = placement.sites.iter().map(|&(x, y, _)| (x, y));
        let chain_tiles = elements.iter().map(|e| (e.x, e.y));
        let track_tiles = routing
            .nets
            .iter()
            .flat_map(|routed| routed.nodes.iter().map(|&((x, y, _), _)| (x, y)));
        for (x, y) in slot_tiles.chain(chain_tiles).chain(track_tiles) {
            tile_used[y * fabric.width() + x] = true;
        }
        FabricUsage {
            track_switches: routing.wirelength(),
            clb_pins: slots.iter().map(|s| s.input_nets.len()).sum(),
            lut_slots: slots.len(),
            registered_slots: slots.iter().filter(|s| s.registered).count(),
            chain_elements: elements.len(),
            chain_pins: elements
                .iter()
                .map(|e| e.pins.track_nets(fabric, e.j).count())
                .sum(),
            config_bits,
            tiles_used: tile_used.iter().filter(|&&used| used).count(),
        }
    }
}

/// Writes `value` into the `width`-bit field at `base` as unused bits.
fn set_unused_field(bs: &mut Bitstream, base: usize, width: usize, value: usize) {
    for b in 0..width {
        bs.set_unused(base + b, (value >> b) & 1 == 1);
    }
}

/// Value of a net when it is driven by a constant cell.
fn net_constant(netlist: &Netlist, net: NetId) -> Option<bool> {
    let drv = netlist.net(net).driver?;
    match netlist.cell(drv).kind {
        CellKind::Const(v) => Some(v),
        _ => None,
    }
}

/// The post-route check: the configured fabric against `reference`. A
/// sequential design runs 64 random cycles from reset; a combinational one
/// is checked exhaustively up to 12 inputs and proved by a SAT miter above
/// that, falling back to 512 random patterns when the miter cannot decide
/// (a structure it cannot encode, or its conflict budget spent).
fn verify(reference: &Netlist, result: &PnrResult) -> Result<(), PnrError> {
    let _span = shell_trace::span!("pnr.verify");
    let configured =
        shell_fabric::to_configured_netlist(&result.fabric, &result.bitstream, &result.io_map)
            .map_err(|e| PnrError::VerificationFailed(e.to_string()))?;
    let check = |method| equiv_counted(reference, &configured, &[], &[], method);
    let (outcome, patterns) = if !reference.is_combinational() {
        check(Method::SequentialRandom {
            cycles: 64,
            seed: 0xE0,
        })
    } else if reference.inputs().len() <= 12 {
        check(Method::Exhaustive)
    } else {
        match shell_sat::equiv_sat(reference, &configured, &[], &[]) {
            EquivResult::Incomparable(_) => check(Method::Random {
                vectors: 512,
                seed: 0xE0,
            }),
            decided => {
                shell_trace::counter_add("pnr.verify_proofs", 1);
                (decided, 0)
            }
        }
    };
    shell_trace::counter_add("pnr.verify_patterns", patterns as u64);
    match outcome {
        EquivResult::Equivalent => Ok(()),
        other => Err(PnrError::VerificationFailed(format!("{other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_netlist::equiv::{equiv_exhaustive, equiv_random, equiv_sequential_random};
    use shell_netlist::NetlistBuilder;
    use shell_synth::lut_map;

    fn adder(width: usize) -> Netlist {
        let mut b = NetlistBuilder::new("adder");
        let x = b.input_bus("x", width);
        let y = b.input_bus("y", width);
        let (s, c) = b.adder(&x, &y);
        b.output_bus("s", &s);
        b.output("c", c);
        b.finish()
    }

    fn xbar(words: usize, width: usize) -> Netlist {
        // One-hot chained crossbar column: out = g_{n-1} ? d_{n-1} : (... d0)
        let mut b = NetlistBuilder::new("xbar");
        let grants: Vec<NetId> = (0..words - 1).map(|i| b.input(&format!("g{i}"))).collect();
        let data: Vec<Vec<NetId>> = (0..words)
            .map(|i| b.input_bus(&format!("d{i}"), width))
            .collect();
        for (bit, &first) in data[0].iter().enumerate() {
            let mut acc = first;
            for (g, word) in grants.iter().zip(&data[1..]) {
                acc = b.mux2(*g, acc, word[bit]);
            }
            b.output(&format!("o[{bit}]"), acc);
        }
        b.finish()
    }

    #[test]
    fn lut_flow_small_adder() {
        let n = adder(3);
        let mapped = lut_map(&n, 4).expect("acyclic").netlist;
        let cfg = FabricConfig::fabulous_style(false);
        let res = place_and_route(&mapped, cfg, &PnrOptions::default()).expect("fits");
        assert!(res.usage.lut_slots > 0);
        assert!(res.utilization > 0.0 && res.utilization <= 1.0);
        assert!(res.bitstream.used_count() > 0);
        // The post-route check already compared the fabric with `mapped`;
        // double-check against the original RTL netlist too.
        let configured =
            shell_fabric::to_configured_netlist(&res.fabric, &res.bitstream, &res.io_map).unwrap();
        assert!(equiv_exhaustive(&n, &configured, &[], &[]).is_equivalent());
    }

    #[test]
    fn lut_flow_openfpga_squares() {
        let n = adder(2);
        let mapped = lut_map(&n, 4).expect("acyclic").netlist;
        let cfg = FabricConfig::openfpga_style();
        let res = place_and_route(&mapped, cfg, &PnrOptions::default()).expect("fits");
        assert_eq!(res.fabric.width(), res.fabric.height());
    }

    #[test]
    fn lut_flow_sequential() {
        let mut b = NetlistBuilder::new("seqd");
        let en = b.input("en");
        let d = b.input("d");
        let g = b.and2(en, d);
        let q = b.dff(g);
        let o = b.xor2(q, en);
        b.output("o", o);
        let n = b.finish();
        let mapped = lut_map(&n, 4).expect("acyclic").netlist;
        let res = place_and_route(
            &mapped,
            FabricConfig::fabulous_style(false),
            &PnrOptions::default(),
        )
        .expect("fits");
        let configured =
            shell_fabric::to_configured_netlist(&res.fabric, &res.bitstream, &res.io_map).unwrap();
        assert!(equiv_sequential_random(&n, &configured, &[], &[], 48, 3).is_equivalent());
    }

    #[test]
    fn lut_flow_rejects_keyed_netlist() {
        let mut n = Netlist::new("k");
        let a = n.add_input("a");
        let k = n.add_key_input("k");
        let f = n.add_cell("f", CellKind::Xor, vec![a, k]);
        n.add_output("f", f);
        assert!(matches!(
            place_and_route(
                &n,
                FabricConfig::fabulous_style(false),
                &PnrOptions::default()
            ),
            Err(PnrError::Unsupported(_))
        ));
    }

    #[test]
    fn lut_flow_rejects_raw_gates() {
        let mut n = Netlist::new("g");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let f = n.add_cell("f", CellKind::And, vec![a, b]);
        n.add_output("f", f);
        assert!(matches!(
            place_and_route(
                &n,
                FabricConfig::fabulous_style(false),
                &PnrOptions::default()
            ),
            Err(PnrError::Pack(_))
        ));
    }

    #[test]
    fn chain_flow_one_hot_xbar() {
        let n = xbar(4, 2);
        let cfg = FabricConfig::fabulous_style(true);
        let res = place_and_route_with_chains(&n, cfg, &PnrOptions::default()).expect("fits");
        assert!(res.usage.chain_elements > 0, "muxes mapped to chains");
        let configured =
            shell_fabric::to_configured_netlist(&res.fabric, &res.bitstream, &res.io_map).unwrap();
        assert!(equiv_exhaustive(&n, &configured, &[], &[]).is_equivalent());
    }

    #[test]
    fn chain_flow_uses_fewer_luts_than_lut_flow() {
        let n = xbar(8, 1);
        let cfg = FabricConfig::fabulous_style(true);
        let chain_res =
            place_and_route_with_chains(&n, cfg.clone(), &PnrOptions::default()).expect("fits");
        let lut_res = place_and_route(
            &lut_map(&n, 4).expect("acyclic").netlist,
            cfg,
            &PnrOptions::default(),
        )
        .expect("fits");
        assert!(
            chain_res.usage.lut_slots < lut_res.usage.lut_slots,
            "chains {} vs luts {}",
            chain_res.usage.lut_slots,
            lut_res.usage.lut_slots
        );
    }

    #[test]
    fn chain_flow_requires_chain_fabric() {
        let n = xbar(4, 1);
        assert!(matches!(
            place_and_route_with_chains(
                &n,
                FabricConfig::fabulous_style(false),
                &PnrOptions::default()
            ),
            Err(PnrError::Unsupported(_))
        ));
    }

    #[test]
    fn fit_loop_expands() {
        // A design too large for the initial estimate must still fit after
        // expansion (tight routing forces retries).
        let n = adder(5);
        let mapped = lut_map(&n, 4).expect("acyclic").netlist;
        let res = place_and_route(
            &mapped,
            FabricConfig::fabulous_style(false),
            &PnrOptions::default(),
        )
        .expect("fits eventually");
        assert!(res.fit_attempts >= 1);
        let configured =
            shell_fabric::to_configured_netlist(&res.fabric, &res.bitstream, &res.io_map).unwrap();
        assert!(equiv_random(&n, &configured, &[], &[], 400, 9).is_equivalent());
    }

    #[test]
    fn long_chain_splits_across_blocks() {
        // A 16:1 one-hot chain (15 mux2) cannot fit one chain block; it
        // must split into segments linked through tracks and still verify.
        let n = xbar(16, 1);
        let cfg = FabricConfig::fabulous_style(true);
        let res =
            place_and_route_with_chains(&n, cfg, &PnrOptions::default()).expect("long chain maps");
        assert!(
            res.usage.chain_elements >= 8,
            "chain elements {}",
            res.usage.chain_elements
        );
        let configured =
            shell_fabric::to_configured_netlist(&res.fabric, &res.bitstream, &res.io_map).unwrap();
        assert!(equiv_random(&n, &configured, &[], &[], 600, 3).is_equivalent());
    }

    #[test]
    fn chain_flow_handles_mixed_logic() {
        // One-hot route + adder residue: chains AND CLBs used together.
        let mut b = NetlistBuilder::new("mixed");
        let g: Vec<shell_netlist::NetId> = (0..3).map(|i| b.input(&format!("g{i}"))).collect();
        let d: Vec<Vec<shell_netlist::NetId>> =
            (0..4).map(|i| b.input_bus(&format!("d{i}"), 3)).collect();
        let mut sel = d[0].clone();
        for w in 1..4 {
            sel = sel
                .iter()
                .zip(&d[w])
                .map(|(&a, &x)| b.mux2(g[w - 1], a, x))
                .collect();
        }
        let extra = b.input_bus("e", 3);
        let (sum, c) = b.adder(&sel, &extra);
        b.output_bus("s", &sum);
        b.output("c", c);
        let n = b.finish();
        let res = place_and_route_with_chains(
            &n,
            FabricConfig::fabulous_style(true),
            &PnrOptions::default(),
        )
        .expect("mixed maps");
        assert!(res.usage.chain_elements > 0, "chains used");
        assert!(res.usage.lut_slots > 0, "CLBs used for the adder residue");
        let configured =
            shell_fabric::to_configured_netlist(&res.fabric, &res.bitstream, &res.io_map).unwrap();
        assert!(equiv_random(&n, &configured, &[], &[], 600, 4).is_equivalent());
    }

    #[test]
    fn utilization_reported() {
        let n = adder(2);
        let mapped = lut_map(&n, 4).expect("acyclic").netlist;
        let res = place_and_route(
            &mapped,
            FabricConfig::fabulous_style(false),
            &PnrOptions::default(),
        )
        .expect("fits");
        assert!(res.usage.tiles_used >= 1);
        assert!(res.usage.track_switches > 0);
    }

    /// `n` with every port, cell and net name prefixed by `prefix`.
    fn prefixed(n: &Netlist, prefix: &str) -> Netlist {
        let mut out = Netlist::new(n.name());
        let mut map: HashMap<NetId, NetId> = HashMap::new();
        for &i in n.inputs() {
            map.insert(i, out.add_input(format!("{prefix}{}", n.net(i).name)));
        }
        for id in n.topo_order().expect("acyclic") {
            let c = n.cell(id);
            let ins = c.inputs.iter().map(|i| map[i]).collect();
            map.insert(
                c.output,
                out.add_cell(format!("{prefix}{}", c.name), c.kind, ins),
            );
        }
        for (name, net) in n.outputs() {
            out.add_output(format!("{prefix}{name}"), map[net]);
        }
        out
    }

    #[test]
    fn routing_failure_on_a_pads_net_grows_one_dimension() {
        // Every net of this adder is named `pads_…`, and its first fabric
        // is congested: the attempt fails on a net whose name reads like a
        // pad shortage, yet it is congestion, so only the smaller dimension
        // grows.
        let mapped = prefixed(&lut_map(&adder(3), 4).expect("acyclic").netlist, "pads_");
        let mut config = FabricConfig::fabulous_style(false);
        config.channel_width = 8;
        let once = PnrOptions {
            max_fit_attempts: 1,
            ..PnrOptions::default()
        };
        match place_and_route(&mapped, config.clone(), &once) {
            Err(PnrError::Unroutable(m)) => assert!(m.contains("net `pads_"), "{m}"),
            other => panic!("expected a routing failure, got {other:?}"),
        }
        let slots = place::pack(&mapped, config.lut_k).expect("packs");
        let ports = mapped.inputs().len() + mapped.outputs().len();
        let (w, h) = initial_dims(&config, slots.len(), 0, ports, (2, 2));
        let res = place_and_route(&mapped, config, &PnrOptions::default()).expect("fits");
        assert_eq!(res.fit_attempts, 2);
        let grown = if w <= h { (w + 1, h) } else { (w, h + 1) };
        assert_eq!((res.fabric.width(), res.fabric.height()), grown);
    }
}
