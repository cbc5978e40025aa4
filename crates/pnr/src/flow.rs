//! The complete place-and-route flows with the fit-check/expand loop
//! (steps 6–7 of the SheLL pipeline), bitstream emission and functional
//! verification.

use crate::place::{self, PlaceRequest, Slot};
use crate::route::{RouteError, RouteRequest, Router, SinkKind, SourceKind};
use shell_fabric::{Bitstream, Fabric, FabricConfig, FabricUsage, IoMap};
use shell_guard::Budget;
use shell_netlist::equiv::{
    equiv, equiv_exhaustive, equiv_random, equiv_sequential_random, sat_backend_installed,
    EquivResult, Method,
};
use shell_netlist::{CellId, CellKind, NetId, Netlist};
use shell_synth::lut_map_hybrid;
use std::collections::HashMap;
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
    /// Verify the configured fabric against the input netlist.
    pub verify: bool,
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
            verify: true,
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
    /// CLB slots used.
    pub slots_used: usize,
    /// Chain elements carrying mapped muxes.
    pub chain_elements_used: usize,
    /// Tiles with at least one used slot, chain element or routed track.
    pub tiles_used: usize,
    /// `tiles_used / fabric.tile_count()` — the Fig. 2 utilization metric.
    pub utilization: f64,
    /// Router iterations of the final attempt.
    pub route_iterations: usize,
    /// Track nodes occupied.
    pub wirelength: usize,
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
    run_fit_loop(netlist, &slots, config, options)
}

/// A mux cell assigned to a chain element.
#[derive(Debug, Clone)]
struct ChainAssignment {
    /// Chains: each a list of mux cells, head (deepest) first. Every chain
    /// occupies one or more whole chain blocks.
    chains: Vec<Vec<CellId>>,
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
    let slots = pack_non_mux(&hybrid, config.lut_k).map_err(PnrError::Pack)?;
    let assignment = ChainAssignment { chains };
    let result = run_fit_loop_hybrid(&hybrid, netlist, &slots, &assignment, config, options)?;
    Ok(result)
}

/// Groups mux cells into linear chains: a cell's `d0`-side input that is a
/// single-fanout mux becomes its predecessor. Chains are returned head
/// (deepest element) first.
fn link_chains(netlist: &Netlist, mux_cells: &[CellId]) -> Vec<Vec<CellId>> {
    let fanout = netlist.fanout_table();
    let is_mux_cell: std::collections::HashSet<CellId> = mux_cells.iter().copied().collect();
    // predecessor via the d0-position input: Mux4 pin 2, Mux2 pin 1.
    let link_pin = |kind: CellKind| match kind {
        CellKind::Mux4 => 2usize,
        CellKind::Mux2 => 1usize,
        _ => unreachable!(),
    };
    let mut pred: HashMap<CellId, CellId> = HashMap::new();
    let mut has_succ: std::collections::HashSet<CellId> = std::collections::HashSet::new();
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

/// Packs every non-mux cell (LUT/DFF/Const) of a hybrid netlist.
fn pack_non_mux(netlist: &Netlist, k: usize) -> Result<Vec<Slot>, String> {
    // Reuse place::pack on a filtered view: pack() walks cells directly, so
    // emulate by checking kinds here and calling the slot constructor logic
    // through a temporary netlist is overkill — instead, duplicate the loop
    // via place::pack on the full netlist minus muxes. Easiest correct
    // route: error from pack() on mux cells is avoided by a pre-filter.
    place::pack_filtered(netlist, k, |kind| !kind.is_mux())
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

fn run_fit_loop(
    netlist: &Netlist,
    slots: &[Slot],
    config: FabricConfig,
    options: &PnrOptions,
) -> Result<PnrResult, PnrError> {
    let empty = ChainAssignment { chains: Vec::new() };
    run_fit_loop_hybrid(netlist, netlist, slots, &empty, config, options)
}

/// The shared engine: `mapped` is the netlist whose cells are being placed
/// (slots + chains); `reference` is the netlist to verify against (the
/// original design in the chain flow, `mapped` itself otherwise).
fn run_fit_loop_hybrid(
    mapped: &Netlist,
    reference: &Netlist,
    slots: &[Slot],
    assignment: &ChainAssignment,
    config: FabricConfig,
    options: &PnrOptions,
) -> Result<PnrResult, PnrError> {
    let _span = shell_trace::span!("pnr.fit");
    let chain_blocks: usize = assignment
        .chains
        .iter()
        .map(|c| c.len().div_ceil(config.chain_len.max(1)))
        .sum();
    let ports = mapped.inputs().len() + mapped.outputs().len();
    let (mut w, mut h) =
        initial_dims(&config, slots.len(), chain_blocks, ports, options.min_dims);
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
        match try_once(mapped, slots, assignment, &fabric, options, attempt) {
            Ok(mut result) => {
                if options.verify {
                    verify(reference, &result)?;
                }
                result.fit_attempts = attempt;
                return Ok(result);
            }
            Err(err @ (PnrError::DoesNotFit(_) | PnrError::Unroutable(_))) => {
                last_unroutable = matches!(err, PnrError::Unroutable(_));
                let (PnrError::DoesNotFit(m) | PnrError::Unroutable(m)) = err else {
                    unreachable!()
                };
                // The paper's footnote 5: the *type* of shortage reported by
                // the mapping tool drives how the fabric is expanded.
                // Capacity shortages (chain blocks, LUT sites, pads) need
                // area — grow both dimensions; routing congestion
                // (including a flat-out unroutable net) needs
                // perimeter/relief — grow the smaller dimension, with
                // acceleration for port-heavy designs.
                let capacity_shortage = m.contains("chain blocks")
                    || m.contains("LUT sites")
                    || m.contains("pads");
                last_err = m;
                let step = 1 + attempt / 6;
                if capacity_shortage {
                    w += step;
                    h += step;
                } else if w <= h {
                    w += step;
                } else {
                    h += step;
                }
            }
            Err(other) => return Err(other),
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

fn try_once(
    mapped: &Netlist,
    slots: &[Slot],
    assignment: &ChainAssignment,
    fabric: &Fabric,
    options: &PnrOptions,
    attempt: usize,
) -> Result<PnrResult, PnrError> {
    let config = fabric.config().clone();
    // Chain block capacity check.
    let blocks_needed: usize = assignment
        .chains
        .iter()
        .map(|c| c.len().div_ceil(config.chain_len.max(1)))
        .sum();
    if blocks_needed > fabric.tile_count() && config.mux_chains {
        return Err(PnrError::DoesNotFit(format!(
            "{blocks_needed} chain blocks > {} tiles",
            fabric.tile_count()
        )));
    }
    // Chain segment assignment first (placement-independent): fill tiles
    // row-major so pad assignment can aim at the chain pins.
    #[derive(Debug, Clone)]
    struct ElementSite {
        x: usize,
        y: usize,
        j: usize,
        /// Index of the segment-final element in this tile's block
        /// (elements after it are transparent fill).
        last_j: usize,
    }
    let mut element_sites: HashMap<CellId, ElementSite> = HashMap::new();
    let mut used_blocks: Vec<(usize, usize)> = Vec::new(); // tiles hosting segments
    {
        // Demand-aware segmentation: a block's pins (data + dynamic selects)
        // all arrive over the tile's tracks, so the distinct nets a segment
        // pulls in must leave track headroom. Split segments greedily.
        let track_budget = config.channel_width.saturating_sub(4).max(2);
        let mut next_tile = 0usize;
        for chain in &assignment.chains {
            let mut segments: Vec<Vec<CellId>> = Vec::new();
            let mut current: Vec<CellId> = Vec::new();
            let mut demand: std::collections::HashSet<NetId> = std::collections::HashSet::new();
            for &cell in chain {
                let c = mapped.cell(cell);
                let mut cell_nets: Vec<NetId> = Vec::new();
                match c.kind {
                    CellKind::Mux4 => {
                        // d0 is hard-wired except at a segment start.
                        if current.is_empty() {
                            cell_nets.push(c.inputs[2]);
                        }
                        cell_nets.extend([c.inputs[3], c.inputs[4], c.inputs[5]]);
                        for s in [c.inputs[0], c.inputs[1]] {
                            if net_constant(mapped, s).is_none() {
                                cell_nets.push(s);
                            }
                        }
                    }
                    CellKind::Mux2 => {
                        if current.is_empty() {
                            cell_nets.push(c.inputs[1]);
                        }
                        cell_nets.push(c.inputs[2]);
                        if net_constant(mapped, c.inputs[0]).is_none() {
                            cell_nets.push(c.inputs[0]);
                        }
                    }
                    _ => unreachable!(),
                }
                let mut trial = demand.clone();
                trial.extend(cell_nets.iter().copied());
                let over_budget = trial.len() > track_budget;
                let over_length = current.len() >= config.chain_len.max(1);
                if (over_budget || over_length) && !current.is_empty() {
                    segments.push(std::mem::take(&mut current));
                    demand.clear();
                    // Re-account for this cell as a segment head (d0 now
                    // arrives over a track).
                    let c = mapped.cell(cell);
                    match c.kind {
                        CellKind::Mux4 => {
                            demand.insert(c.inputs[2]);
                            demand.extend([c.inputs[3], c.inputs[4], c.inputs[5]]);
                            for s in [c.inputs[0], c.inputs[1]] {
                                if net_constant(mapped, s).is_none() {
                                    demand.insert(s);
                                }
                            }
                        }
                        CellKind::Mux2 => {
                            demand.insert(c.inputs[1]);
                            demand.insert(c.inputs[2]);
                            if net_constant(mapped, c.inputs[0]).is_none() {
                                demand.insert(c.inputs[0]);
                            }
                        }
                        _ => unreachable!(),
                    }
                } else {
                    demand = trial;
                }
                current.push(cell);
            }
            if !current.is_empty() {
                segments.push(current);
            }
            for seg in segments {
                if next_tile >= fabric.tile_count() {
                    return Err(PnrError::DoesNotFit("out of chain blocks".into()));
                }
                let (x, y) = (next_tile % fabric.width(), next_tile / fabric.width());
                used_blocks.push((x, y));
                let last_j = seg.len() - 1;
                for (j, &cell) in seg.iter().enumerate() {
                    element_sites.insert(cell, ElementSite { x, y, j, last_j });
                }
                next_tile += 1;
            }
        }
    }
    // Pin hints: every net a chain element reads or drives is anchored at
    // its tile, steering the pad assignment toward the chain blocks.
    let mut pin_hints: HashMap<NetId, Vec<(usize, usize)>> = HashMap::new();
    for (&cell, site) in &element_sites {
        let c = mapped.cell(cell);
        for &n in &c.inputs {
            pin_hints.entry(n).or_default().push((site.x, site.y));
        }
        pin_hints
            .entry(c.output)
            .or_default()
            .push((site.x, site.y));
    }

    // Placement. Chain tiles are pad-averse: a foreign pad on a chain tile
    // burns a track the block's pins need.
    let chain_tiles: std::collections::HashSet<(usize, usize)> =
        used_blocks.iter().copied().collect();
    let placement = place::place(&PlaceRequest {
        netlist: mapped,
        slots,
        fabric,
        seed: options.seed + attempt as u64,
        starts: options.place_starts,
        pin_hints: &pin_hints,
        chain_tiles: &chain_tiles,
        budget: &options.budget,
    })
    .map_err(PnrError::DoesNotFit)?;
    let mut degraded = Vec::new();
    if let Some(why) = placement.degraded {
        degraded.push(format!("place: {why}"));
    }

    // ------------------------------------------------------------------
    // Build route requests.
    // ------------------------------------------------------------------
    // Net sources.
    let mut source_of: HashMap<NetId, SourceKind> = HashMap::new();
    for (i, &pi) in mapped.inputs().iter().enumerate() {
        source_of.insert(pi, SourceKind::Pad(placement.input_pads[i]));
    }
    for (si, slot) in slots.iter().enumerate() {
        let (x, y, s) = placement.sites[si];
        source_of.insert(slot.output_net, SourceKind::Slot { x, y, slot: s });
    }
    // Chain outputs: only segment-final elements are visible, as the block
    // output (after transparent fill elements).
    let mut internal_chain_nets: std::collections::HashSet<NetId> =
        std::collections::HashSet::new();
    for (&cell, site) in &element_sites {
        let c = mapped.cell(cell);
        if site.j == site.last_j {
            source_of.insert(c.output, SourceKind::ChainBlock { x: site.x, y: site.y });
        } else {
            internal_chain_nets.insert(c.output);
        }
    }

    // Net sinks, dedup per (net, tile) for pin sinks.
    let mut sinks_of: HashMap<NetId, Vec<SinkKind>> = HashMap::new();
    let mut pin_tiles: HashMap<NetId, std::collections::HashSet<(usize, usize)>> =
        HashMap::new();
    let mut add_pin_sink = |net: NetId, x: usize, y: usize| {
        if internal_chain_nets.contains(&net) {
            return; // hard-wired inside a block
        }
        if pin_tiles.entry(net).or_default().insert((x, y)) {
            sinks_of
                .entry(net)
                .or_default()
                .push(SinkKind::AnyTrackAt { x, y });
        }
    };
    for (si, slot) in slots.iter().enumerate() {
        let (x, y, _) = placement.sites[si];
        for &net in &slot.input_nets {
            add_pin_sink(net, x, y);
        }
    }
    // Chain element pins: data pins (except hard-wired) and dynamic selects.
    // Iterate in cell order: the per-net sink lists feed the router, whose
    // results depend on sink order — hash order here would make bitstreams
    // nondeterministic for a fixed seed.
    let mut ordered_elements: Vec<(CellId, &ElementSite)> =
        element_sites.iter().map(|(&c, s)| (c, s)).collect();
    ordered_elements.sort_unstable_by_key(|&(c, _)| c);
    for &(cell, site) in &ordered_elements {
        let c = mapped.cell(cell);
        let data_nets: Vec<Option<NetId>> = match c.kind {
            // Mux4 netlist order [s1, s0, d0..d3] → element data pins 0..3.
            CellKind::Mux4 => vec![
                Some(c.inputs[2]),
                Some(c.inputs[3]),
                Some(c.inputs[4]),
                Some(c.inputs[5]),
            ],
            // Mux2 [s, a, b] → d0 = a, d1 = b.
            CellKind::Mux2 => vec![Some(c.inputs[1]), Some(c.inputs[2]), None, None],
            _ => unreachable!(),
        };
        for (pin, net) in data_nets.iter().enumerate() {
            let Some(net) = net else { continue };
            if site.j > 0 && pin == 0 {
                continue; // hard-wired to the previous element
            }
            add_pin_sink(*net, site.x, site.y);
        }
        let select_nets: Vec<Option<NetId>> = match c.kind {
            CellKind::Mux4 => vec![Some(c.inputs[1]), Some(c.inputs[0])], // [s0, s1]
            CellKind::Mux2 => vec![Some(c.inputs[0]), None],
            _ => unreachable!(),
        };
        for net in select_nets.into_iter().flatten() {
            if net_constant(mapped, net).is_none() {
                add_pin_sink(net, site.x, site.y);
            }
        }
    }
    // Primary outputs.
    for (oi, (_, net)) in mapped.outputs().iter().enumerate() {
        sinks_of.entry(*net).or_default().push(SinkKind::OutputPad {
            pad: placement.output_pads[oi],
        });
    }

    // Assemble requests (nets with sinks and a source), in net order: the
    // router's initial pass routes against growing occupancy, so request
    // order steers every downstream decision and must not be hash order.
    let mut requests = Vec::new();
    let mut net_ids: Vec<NetId> = Vec::new();
    let mut ordered_nets: Vec<(&NetId, &Vec<SinkKind>)> = sinks_of.iter().collect();
    ordered_nets.sort_unstable_by_key(|&(net, _)| *net);
    for (net, sinks) in ordered_nets {
        if sinks.is_empty() {
            continue;
        }
        let Some(&source) = source_of.get(net) else {
            // Constants are generated by slots already; a sink on a net
            // without source means the net is a constant-driver net handled
            // by its const slot, or floating — reject.
            if net_constant(mapped, *net).is_some() {
                continue; // consts handled at the consuming pin
            }
            return Err(PnrError::Unsupported(format!(
                "net `{}` has no mappable source",
                mapped.net(*net).name
            )));
        };
        let id = requests.len();
        net_ids.push(*net);
        requests.push(RouteRequest {
            net: id,
            source,
            sinks: sinks.clone(),
        });
    }

    // Route.
    let mut router = Router::new(fabric);
    let routing = router
        .route_all_budgeted(&requests, options.max_route_iterations, &options.budget)
        .map_err(|e| match e {
            RouteError::Unroutable { net } => PnrError::Unroutable(format!(
                "net `{}`",
                mapped.net(net_ids[net]).name
            )),
            RouteError::Exhausted(why) => PnrError::Exhausted(format!("route: {why}")),
        })?;

    // Track lookup: (net, tile) → track index carrying it. A net can hold
    // several tracks at one tile; the lowest index is chosen, so the choice
    // does not depend on hash-map iteration order.
    let mut track_at: HashMap<(NetId, (usize, usize)), usize> = HashMap::new();
    for (rid, routed) in &routing.nets {
        let net = net_ids[*rid];
        for &(x, y, t) in routed.nodes.keys() {
            track_at
                .entry((net, (x, y)))
                .and_modify(|lowest| *lowest = (*lowest).min(t))
                .or_insert(t);
        }
    }

    // ------------------------------------------------------------------
    // Emit the bitstream.
    // ------------------------------------------------------------------
    let mut bs = Bitstream::zeros(fabric.config_bit_count());
    // Routed switches.
    for routed in routing.nets.values() {
        for (&(x, y, t), &sel) in &routed.nodes {
            let (base, width) = fabric.track_select_field(x, y, t);
            bs.set_field(base, width, sel as u64);
        }
    }
    // Slots.
    for (si, slot) in slots.iter().enumerate() {
        let (x, y, s) = placement.sites[si];
        let mut first_used_track = None;
        for (pin, &net) in slot.input_nets.iter().enumerate() {
            let t = resolve_pin_track(mapped, &track_at, net, (x, y)).ok_or_else(|| {
                PnrError::DoesNotFit(format!(
                    "pin net `{}` missing at tile ({x},{y})",
                    mapped.net(net).name
                ))
            })?;
            first_used_track.get_or_insert(t);
            let (base, width) = fabric.clb_input_field(x, y, s, pin);
            bs.set_field(base, width, t as u64);
        }
        // Unused pins must not point at a track carrying this slot's own
        // output (the mask ignores them functionally, but the LUT read tree
        // would close a structural loop). A track already feeding a used
        // pin is provably upstream; otherwise pick any track not carrying
        // the slot's output.
        let own_tracks: std::collections::HashSet<usize> = routing
            .nets
            .iter()
            .filter(|(rid, _)| net_ids[**rid] == slot.output_net)
            .flat_map(|(_, routed)| {
                routed
                    .nodes
                    .keys()
                    .filter(|&&(nx, ny, _)| nx == x && ny == y)
                    .map(|&(_, _, t)| t)
            })
            .collect();
        let safe_track = first_used_track.unwrap_or_else(|| {
            (0..config.channel_width)
                .find(|t| !own_tracks.contains(t))
                .unwrap_or(0)
        });
        for pin in slot.input_nets.len()..config.lut_k {
            let (base, width) = fabric.clb_input_field(x, y, s, pin);
            for b in 0..width {
                bs.set_unused(base + b, (safe_track >> b) & 1 == 1);
            }
        }
        let mask_base = fabric.lut_mask_base(x, y, s);
        for row in 0..config.bits_per_lut() {
            bs.set(mask_base + row, (slot.mask >> row) & 1 == 1);
        }
        // The FF-bypass bit is secret only when the register path is live;
        // step 8 physically removes unused FFs, so unregistered slots tie
        // the bypass to the combinational path.
        if slot.registered {
            bs.set(fabric.ff_bypass_bit(x, y, s), true);
        } else {
            bs.set_unused(fabric.ff_bypass_bit(x, y, s), false);
        }
    }
    // Chain elements.
    let mut chain_elements_used = 0usize;
    for (&cell, site) in &element_sites {
        chain_elements_used += 1;
        let c = mapped.cell(cell);
        let (x, y, j) = (site.x, site.y, site.j);
        let data_nets: Vec<Option<NetId>> = match c.kind {
            CellKind::Mux4 => vec![
                Some(c.inputs[2]),
                Some(c.inputs[3]),
                Some(c.inputs[4]),
                Some(c.inputs[5]),
            ],
            CellKind::Mux2 => vec![Some(c.inputs[1]), Some(c.inputs[2]), None, None],
            _ => unreachable!(),
        };
        let mut first_data_track: Option<usize> = None;
        for (pin, net) in data_nets.iter().enumerate() {
            if j > 0 && pin == 0 {
                continue; // hard-wired
            }
            let (base, width) = fabric.chain_data_field(x, y, j, pin);
            match net {
                Some(net) if !internal_chain_nets.contains(net) => {
                    let t = resolve_pin_track(mapped, &track_at, *net, (x, y))
                        .ok_or_else(|| {
                            PnrError::DoesNotFit(format!(
                                "chain data net `{}` missing at ({x},{y})",
                                mapped.net(*net).name
                            ))
                        })?;
                    first_data_track.get_or_insert(t);
                    bs.set_field(base, width, t as u64);
                }
                _ => {
                    // Unused data pin: point it at a track already feeding a
                    // real pin (provably upstream — never a structural
                    // loop through the element's own block output).
                    let safe = first_data_track.unwrap_or(0);
                    for b in 0..width {
                        bs.set_unused(base + b, (safe >> b) & 1 == 1);
                    }
                }
            }
        }
        // Selects: netlist [s1, s0] → element select pins [0] = s0, [1] = s1.
        let sel_nets: [Option<NetId>; 2] = match c.kind {
            CellKind::Mux4 => [Some(c.inputs[1]), Some(c.inputs[0])],
            CellKind::Mux2 => [Some(c.inputs[0]), None],
            _ => unreachable!(),
        };
        for (pin, sel) in sel_nets.iter().enumerate() {
            let (val_bit, mode_bit) = fabric.chain_select_bits(x, y, j, pin);
            match sel {
                None => {
                    // Unused high select: constant 0.
                    bs.set(mode_bit, false);
                    bs.set(val_bit, false);
                }
                Some(net) => match net_constant(mapped, *net) {
                    Some(v) => {
                        bs.set(mode_bit, false);
                        bs.set(val_bit, v);
                    }
                    None => {
                        let t = resolve_pin_track(mapped, &track_at, *net, (x, y))
                            .ok_or_else(|| {
                                PnrError::DoesNotFit(format!(
                                    "chain select net `{}` missing at ({x},{y})",
                                    mapped.net(*net).name
                                ))
                            })?;
                        let (cbase, cwidth) = fabric.chain_sel_conn_field(x, y, j, pin);
                        bs.set_field(cbase, cwidth, t as u64);
                        bs.set(mode_bit, true);
                        bs.set(val_bit, false);
                    }
                },
            }
        }
        // Transparent fill after the segment's last element.
        if j == site.last_j {
            for fill in (site.last_j + 1)..config.chain_len {
                for pin in 0..2 {
                    let (val_bit, mode_bit) = fabric.chain_select_bits(x, y, fill, pin);
                    bs.set_unused(mode_bit, false);
                    bs.set_unused(val_bit, false);
                }
            }
        }
    }

    // IO map.
    let io_map = IoMap {
        inputs: mapped
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, &n)| (mapped.net(n).name.clone(), placement.input_pads[i]))
            .collect(),
        outputs: mapped
            .outputs()
            .iter()
            .enumerate()
            .map(|(i, (name, _))| (name.clone(), placement.output_pads[i]))
            .collect(),
    };

    // Utilization: tiles hosting slots, chain blocks or routed tracks.
    let mut tile_used = vec![false; fabric.tile_count()];
    for &(x, y, _) in &placement.sites {
        tile_used[y * fabric.width() + x] = true;
    }
    for &(x, y) in &used_blocks {
        tile_used[y * fabric.width() + x] = true;
    }
    for routed in routing.nets.values() {
        for &(x, y, _) in routed.nodes.keys() {
            tile_used[y * fabric.width() + x] = true;
        }
    }
    let tiles_used = tile_used.iter().filter(|&&u| u).count();

    // Usage counters (Table I accounting).
    let clb_pins: usize = slots.iter().map(|s| s.input_nets.len()).sum();
    let registered_slots = slots.iter().filter(|s| s.registered).count();
    let mut chain_pins = 0usize;
    for (&cell, site) in &element_sites {
        let c = mapped.cell(cell);
        match c.kind {
            CellKind::Mux4 => {
                chain_pins += if site.j == 0 { 4 } else { 3 };
                for s in [c.inputs[0], c.inputs[1]] {
                    if net_constant(mapped, s).is_none() {
                        chain_pins += 1;
                    }
                }
            }
            CellKind::Mux2 => {
                chain_pins += if site.j == 0 { 2 } else { 1 };
                if net_constant(mapped, c.inputs[0]).is_none() {
                    chain_pins += 1;
                }
            }
            _ => unreachable!(),
        }
    }
    let usage = FabricUsage {
        track_switches: routing.wirelength,
        clb_pins,
        lut_slots: slots.len(),
        registered_slots,
        chain_elements: chain_elements_used,
        chain_pins,
        config_bits: bs.used_count(),
        tiles_used,
    };
    Ok(PnrResult {
        fabric: fabric.clone(),
        bitstream: bs,
        io_map,
        slots_used: slots.len(),
        chain_elements_used,
        tiles_used,
        utilization: tiles_used as f64 / fabric.tile_count() as f64,
        route_iterations: routing.iterations,
        wirelength: routing.wirelength,
        fit_attempts: 1,
        usage,
        degraded,
    })
}

/// Value of a net when it is driven by a constant cell.
fn net_constant(netlist: &Netlist, net: NetId) -> Option<bool> {
    let drv = netlist.net(net).driver?;
    match netlist.cell(drv).kind {
        CellKind::Const(v) => Some(v),
        _ => None,
    }
}

/// Track carrying `net` at `tile`; constant nets fall back to their
/// generating slot's route.
fn resolve_pin_track(
    _netlist: &Netlist,
    track_at: &HashMap<(NetId, (usize, usize)), usize>,
    net: NetId,
    tile: (usize, usize),
) -> Option<usize> {
    track_at.get(&(net, tile)).copied()
}

fn verify(reference: &Netlist, result: &PnrResult) -> Result<(), PnrError> {
    let configured =
        shell_fabric::to_configured_netlist(&result.fabric, &result.bitstream, &result.io_map)
            .map_err(|e| PnrError::VerificationFailed(e.to_string()))?;
    let outcome = if !reference.is_combinational() {
        equiv_sequential_random(reference, &configured, &[], &[], 64, 0xE0)
    } else if reference.inputs().len() <= 12 {
        equiv_exhaustive(reference, &configured, &[], &[])
    } else if sat_backend_installed() {
        // Wide combinational cone and a SAT backend is registered (see
        // `shell_verify::install`): a miter proof replaces sampling.
        match equiv(reference, &configured, &[], &[], Method::Sat) {
            // Budget exhaustion or unsupported structure: fall back to
            // Monte Carlo rather than failing the flow.
            EquivResult::Incomparable(_) => {
                equiv_random(reference, &configured, &[], &[], 512, 0xE0)
            }
            decided => decided,
        }
    } else {
        equiv_random(reference, &configured, &[], &[], 512, 0xE0)
    };
    match outcome {
        EquivResult::Equivalent => Ok(()),
        other => Err(PnrError::VerificationFailed(format!("{other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let grants: Vec<NetId> = (0..words - 1)
            .map(|i| b.input(&format!("g{i}")))
            .collect();
        let data: Vec<Vec<NetId>> = (0..words)
            .map(|i| b.input_bus(&format!("d{i}"), width))
            .collect();
        for bit in 0..width {
            let mut acc = data[0][bit];
            for w in 1..words {
                acc = b.mux2(grants[w - 1], acc, data[w][bit]);
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
        assert!(res.slots_used > 0);
        assert!(res.utilization > 0.0 && res.utilization <= 1.0);
        assert!(res.bitstream.used_count() > 0);
        // `verify: true` already proved equivalence against `mapped`;
        // double-check against the original RTL netlist too.
        let configured =
            shell_fabric::to_configured_netlist(&res.fabric, &res.bitstream, &res.io_map)
                .unwrap();
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
        let res = place_and_route(&mapped, FabricConfig::fabulous_style(false), &PnrOptions::default())
            .expect("fits");
        let configured =
            shell_fabric::to_configured_netlist(&res.fabric, &res.bitstream, &res.io_map)
                .unwrap();
        assert!(
            equiv_sequential_random(&n, &configured, &[], &[], 48, 3).is_equivalent()
        );
    }

    #[test]
    fn lut_flow_rejects_keyed_netlist() {
        let mut n = Netlist::new("k");
        let a = n.add_input("a");
        let k = n.add_key_input("k");
        let f = n.add_cell("f", CellKind::Xor, vec![a, k]);
        n.add_output("f", f);
        assert!(matches!(
            place_and_route(&n, FabricConfig::fabulous_style(false), &PnrOptions::default()),
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
            place_and_route(&n, FabricConfig::fabulous_style(false), &PnrOptions::default()),
            Err(PnrError::Pack(_))
        ));
    }

    #[test]
    fn chain_flow_one_hot_xbar() {
        let n = xbar(4, 2);
        let cfg = FabricConfig::fabulous_style(true);
        let res = place_and_route_with_chains(&n, cfg, &PnrOptions::default()).expect("fits");
        assert!(res.chain_elements_used > 0, "muxes mapped to chains");
        let configured =
            shell_fabric::to_configured_netlist(&res.fabric, &res.bitstream, &res.io_map)
                .unwrap();
        assert!(equiv_exhaustive(&n, &configured, &[], &[]).is_equivalent());
    }

    #[test]
    fn chain_flow_uses_fewer_luts_than_lut_flow() {
        let n = xbar(8, 1);
        let cfg = FabricConfig::fabulous_style(true);
        let chain_res =
            place_and_route_with_chains(&n, cfg.clone(), &PnrOptions::default()).expect("fits");
        let lut_res = place_and_route(&lut_map(&n, 4).expect("acyclic").netlist, cfg, &PnrOptions::default())
            .expect("fits");
        assert!(
            chain_res.slots_used < lut_res.slots_used,
            "chains {} vs luts {}",
            chain_res.slots_used,
            lut_res.slots_used
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
        let res = place_and_route(&mapped, FabricConfig::fabulous_style(false), &PnrOptions::default())
            .expect("fits eventually");
        assert!(res.fit_attempts >= 1);
        let configured =
            shell_fabric::to_configured_netlist(&res.fabric, &res.bitstream, &res.io_map)
                .unwrap();
        assert!(equiv_random(&n, &configured, &[], &[], 400, 9).is_equivalent());
    }

    #[test]
    fn long_chain_splits_across_blocks() {
        // A 16:1 one-hot chain (15 mux2) cannot fit one chain block; it
        // must split into segments linked through tracks and still verify.
        let n = xbar(16, 1);
        let cfg = FabricConfig::fabulous_style(true);
        let res = place_and_route_with_chains(&n, cfg, &PnrOptions::default())
            .expect("long chain maps");
        assert!(
            res.chain_elements_used >= 8,
            "chain elements {}",
            res.chain_elements_used
        );
        let configured =
            shell_fabric::to_configured_netlist(&res.fabric, &res.bitstream, &res.io_map)
                .unwrap();
        assert!(equiv_random(&n, &configured, &[], &[], 600, 3).is_equivalent());
    }

    #[test]
    fn chain_flow_handles_mixed_logic() {
        // One-hot route + adder residue: chains AND CLBs used together.
        let mut b = NetlistBuilder::new("mixed");
        let g: Vec<shell_netlist::NetId> =
            (0..3).map(|i| b.input(&format!("g{i}"))).collect();
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
        assert!(res.chain_elements_used > 0, "chains used");
        assert!(res.slots_used > 0, "CLBs used for the adder residue");
        let configured =
            shell_fabric::to_configured_netlist(&res.fabric, &res.bitstream, &res.io_map)
                .unwrap();
        assert!(equiv_random(&n, &configured, &[], &[], 600, 4).is_equivalent());
    }

    #[test]
    fn utilization_reported() {
        let n = adder(2);
        let mapped = lut_map(&n, 4).expect("acyclic").netlist;
        let res = place_and_route(&mapped, FabricConfig::fabulous_style(false), &PnrOptions::default())
            .expect("fits");
        assert!(res.tiles_used >= 1);
        assert!(res.wirelength > 0);
    }
}
