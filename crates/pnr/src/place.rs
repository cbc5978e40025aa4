//! Packing and placement.
//!
//! Packing turns a LUT-mapped netlist into **slots** (LUT + optional fused
//! register, or a constant generator); placement assigns slots to CLB sites
//! with simulated annealing on an integer cost (half-perimeter wirelength
//! plus congestion and chain-tile penalties, priced incrementally per
//! swap); IO assignment binds primary inputs/outputs to boundary pads near
//! their logic.

use shell_fabric::Fabric;
use shell_guard::{Budget, Exhausted};
use shell_netlist::{CellId, CellKind, LutMask, NetId, Netlist};
use shell_util::Rng;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A fabric too small for a design: the resource it lacks, with a message
/// saying by how much. The checks that find a shortage name the resource,
/// so the fit loop can grow the fabric by it rather than by the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shortage {
    /// Fewer chain blocks than the mux chains need.
    ChainBlocks(String),
    /// Fewer LUT sites than packed slots.
    LutSites(String),
    /// Fewer input or output pads than ports.
    Pads(String),
}

impl fmt::Display for Shortage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (Shortage::ChainBlocks(m) | Shortage::LutSites(m) | Shortage::Pads(m)) = self;
        f.write_str(m)
    }
}

impl std::error::Error for Shortage {}

/// A packed slot: a LUT (with its fused register, if any), a standalone
/// register or a constant generator, and the nets on its pins.
#[derive(Debug, Clone)]
pub struct Slot {
    /// Input nets, in LUT-pin order (empty for constants).
    pub input_nets: Vec<NetId>,
    /// LUT truth table (already padded to the fabric's k).
    pub mask: u64,
    /// Whether the FF output is selected.
    pub registered: bool,
    /// The net this slot drives.
    pub output_net: NetId,
}

/// Packs a LUT-mapped netlist into slots.
///
/// Accepted cells: `Lut` (arity ≤ k), `Dff`, `Const`. A DFF whose data input
/// is a single-fanout LUT fuses into that LUT's slot; other DFFs get a
/// passthrough-LUT slot.
///
/// # Errors
///
/// Returns a message naming the first unmappable cell (wrong kind or LUT
/// arity above the fabric's k).
pub fn pack(netlist: &Netlist, k: usize) -> Result<Vec<Slot>, String> {
    pack_filtered(netlist, k, |_| true)
}

/// Like [`pack`], but cells whose kind fails `include` are skipped instead
/// of rejected — used by the hybrid chain flow, where mux cells map to
/// chain blocks rather than CLB slots.
///
/// # Errors
///
/// Same conditions as [`pack`] for the included cells.
pub fn pack_filtered(
    netlist: &Netlist,
    k: usize,
    include: impl Fn(CellKind) -> bool,
) -> Result<Vec<Slot>, String> {
    let fanout = netlist.fanout_table();
    let mut fused_dff: HashMap<CellId, CellId> = HashMap::new(); // lut -> dff
    let mut fused_luts: HashMap<CellId, CellId> = HashMap::new(); // dff -> lut
    for (cid, c) in netlist.cells() {
        if c.kind != CellKind::Dff {
            continue;
        }
        let d = c.inputs[0];
        if let Some(drv) = netlist.net(d).driver {
            let dc = netlist.cell(drv);
            let single_fanout = fanout[d.index()].len() == 1 && !netlist.is_primary_output(d);
            if matches!(dc.kind, CellKind::Lut(_)) && single_fanout {
                fused_dff.insert(drv, cid);
                fused_luts.insert(cid, drv);
            }
        }
    }
    let mut slots = Vec::new();
    for (cid, c) in netlist.cells() {
        if !include(c.kind) {
            continue;
        }
        match c.kind {
            CellKind::Lut(mask) => {
                if mask.arity() > k {
                    return Err(format!(
                        "LUT `{}` has arity {} > fabric k {}",
                        c.name,
                        mask.arity(),
                        k
                    ));
                }
                let (output_net, registered) = match fused_dff.get(&cid) {
                    Some(&d) => (netlist.cell(d).output, true),
                    None => (c.output, false),
                };
                slots.push(Slot {
                    input_nets: c.inputs.clone(),
                    mask: pad_mask(mask, k),
                    registered,
                    output_net,
                });
            }
            CellKind::Dff => {
                if fused_luts.contains_key(&cid) {
                    continue; // carried by its LUT's slot
                }
                // Identity LUT on pin 0: mask = pin0 pattern padded to k.
                let identity = pad_mask(LutMask::new(0b10, 1), k);
                slots.push(Slot {
                    input_nets: vec![c.inputs[0]],
                    mask: identity,
                    registered: true,
                    output_net: c.output,
                });
            }
            CellKind::Const(v) => {
                slots.push(Slot {
                    input_nets: Vec::new(),
                    mask: if v { u64::MAX } else { 0 },
                    registered: false,
                    output_net: c.output,
                });
            }
            other => {
                return Err(format!(
                    "cell `{}` of kind {} is not LUT-mapped",
                    c.name, other
                ))
            }
        }
    }
    Ok(slots)
}

/// Extends a LUT mask of arity `a` to arity `k` by ignoring the extra pins.
fn pad_mask(mask: LutMask, k: usize) -> u64 {
    let a = mask.arity();
    debug_assert!(a <= k);
    let mut out = 0u64;
    for row in 0..(1usize << k) {
        let low = row & ((1 << a) - 1);
        if (mask.mask() >> low) & 1 == 1 {
            out |= 1 << row;
        }
    }
    out
}

/// A placement: slot index → CLB site, plus IO pad bindings.
#[derive(Debug, Clone, Default)]
pub struct Placement {
    /// `slot index → (x, y, clb slot)`.
    pub sites: Vec<(usize, usize, usize)>,
    /// `primary input index → input pad`.
    pub input_pads: Vec<usize>,
    /// `primary output index → output pad`.
    pub output_pads: Vec<usize>,
    /// The annealing cost of `sites`: half-perimeter wirelength, plus 40
    /// per net a tile's slots claim beyond its track budget, plus 25 per
    /// slot on a chain tile. An integer, kept as `f64` for its readers.
    pub hpwl: f64,
    /// Why annealing stopped early, when it did. The placement is still
    /// legal (the best configuration seen so far), just lower quality than
    /// a full anneal would produce.
    pub degraded: Option<Exhausted>,
}

/// Everything [`place`] needs: what to place, where, from which seeds, and
/// under which budget.
pub struct PlaceRequest<'a> {
    /// The netlist the slots were packed from; its ports get the IO pads.
    pub netlist: &'a Netlist,
    /// The slots to place.
    pub slots: &'a [Slot],
    /// The fabric to place them on.
    pub fabric: &'a Fabric,
    /// Seed of start 0; start `i` anneals with `seed + i·φ64`.
    pub seed: u64,
    /// Independent annealing starts (at least one runs).
    pub starts: usize,
    /// Extra tile locations reading or driving a net (e.g. chain-block
    /// pins, which are placed before the CLB pass): fixed terminals of the
    /// net's bounding box, and pulls on its IO pad, so pads land near *all*
    /// consumers of a port, not only slots.
    pub pin_hints: &'a HashMap<NetId, Vec<(usize, usize)>>,
    /// Chain tiles. A slot there competes with the chain's own pin tracks
    /// and pays for it in the cost; a pad there is strongly discouraged for
    /// nets that do not sink there.
    pub chain_tiles: &'a HashSet<(usize, usize)>,
    /// Polled while annealing.
    pub budget: &'a Budget,
}

/// Places the request's slots onto its fabric with simulated annealing,
/// then assigns IO pads greedily near the placed logic.
///
/// Runs `starts` independent anneals (in parallel when workers are
/// available) and keeps the cheapest. Start `i` anneals with seed `seed +
/// i·φ64`, so start 0 alone is the single-start placement. The winner is
/// chosen by `(cost, start index)`: comparing in start order with a strict
/// `<` makes the earliest start win ties, so the choice does not depend on
/// how the parallel map was scheduled.
///
/// Every start polls `budget`. When it runs out mid-anneal the start keeps
/// the best configuration it has seen, IO assignment proceeds normally, and
/// the placement carries a [`Placement::degraded`] marker instead of an
/// error — a worse placement beats no placement.
///
/// Deterministic for a given request.
///
/// # Errors
///
/// Returns the [`Shortage`] when the fabric lacks LUT sites or IO pads
/// (running out of budget is not an error); when every start fails, the
/// first start's.
pub fn place(request: &PlaceRequest) -> Result<Placement, Shortage> {
    let PlaceRequest {
        netlist,
        slots,
        fabric,
        ..
    } = *request;
    let capacity = fabric.lut_sites();
    if slots.len() > capacity {
        return Err(Shortage::LutSites(format!(
            "{} slots exceed {} LUT sites",
            slots.len(),
            capacity
        )));
    }
    if netlist.inputs().len() + netlist.key_inputs().len() > fabric.io_input_count() {
        return Err(Shortage::Pads("not enough input pads".into()));
    }
    if netlist.outputs().len() > fabric.io_output_count() {
        return Err(Shortage::Pads("not enough output pads".into()));
    }
    let connectivity = Connectivity::new(slots, request.pin_hints);
    let seeds: Vec<u64> = (0..request.starts.max(1) as u64)
        .map(|i| {
            request
                .seed
                .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        })
        .collect();
    let results = shell_exec::parallel_map(&seeds, |&seed| {
        let _span = shell_trace::span!("place.anneal");
        let mut rng = Rng::seed_from_u64(seed);
        let annealed = anneal(request, &connectivity, &mut rng);
        shell_trace::counter_add("place.moves", annealed.moves);
        shell_trace::counter_add("place.swaps", annealed.swaps);
        shell_trace::gauge("place.hpwl", annealed.cost as f64);
        let sites = sites_of(&annealed.slot_at, slots.len(), fabric);
        let (input_pads, output_pads) = assign_io(request, &connectivity, &sites, &mut rng)?;
        Ok(Placement {
            sites,
            input_pads,
            output_pads,
            hpwl: annealed.cost as f64,
            degraded: annealed.degraded,
        })
    });
    let mut best: Option<Placement> = None;
    let mut first_err: Option<Shortage> = None;
    for result in results {
        match result {
            Ok(p) => {
                if best.as_ref().map(|b| p.hpwl < b.hpwl).unwrap_or(true) {
                    best = Some(p);
                }
            }
            Err(e) => {
                first_err.get_or_insert(e);
            }
        };
    }
    // There is always at least one start, so no placement means an error.
    best.ok_or_else(|| first_err.expect("a failed start"))
}

/// Which slots and fixed tiles each net touches; built once per request.
struct Connectivity {
    /// Every net on a slot pin or output → the slots touching it, in slot
    /// order, once per pin.
    net_slots: HashMap<NetId, Vec<usize>>,
    /// The nets the wirelength term prices, in `NetId` order: those with at
    /// least two terminals, counting every pin and pin hint.
    nets: Vec<PricedNet>,
    /// Slot → indices into `nets` of the priced nets it touches, each once.
    slot_nets: Vec<Vec<usize>>,
    /// Slot → the dense index of the net on each of its pins, then of its
    /// output: the claims it makes at its tile.
    slot_claims: Vec<Vec<u32>>,
    /// How many distinct nets the slots' pins and outputs carry; the dense
    /// indices run below it.
    claimable: usize,
}

/// A net's terminals, as the wirelength term sees them.
struct PricedNet {
    /// The distinct slots on the net.
    slots: Vec<usize>,
    /// Bounding box `(x0, x1, y0, y1)` of its pin-hint tiles, which never
    /// move; `(MAX, 0, MAX, 0)` when it has none.
    fixed: (usize, usize, usize, usize),
}

impl Connectivity {
    fn new(slots: &[Slot], pin_hints: &HashMap<NetId, Vec<(usize, usize)>>) -> Self {
        let mut net_slots: HashMap<NetId, Vec<usize>> = HashMap::new();
        for (si, slot) in slots.iter().enumerate() {
            for &n in &slot.input_nets {
                net_slots.entry(n).or_default().push(si);
            }
            net_slots.entry(slot.output_net).or_default().push(si);
        }
        let mut ids: Vec<NetId> = net_slots.keys().copied().collect();
        ids.sort_unstable();
        let mut nets = Vec::new();
        let mut slot_nets = vec![Vec::new(); slots.len()];
        for &id in &ids {
            let members = &net_slots[&id];
            let fixed = pin_hints.get(&id).map(Vec::as_slice).unwrap_or_default();
            if members.len() + fixed.len() < 2 {
                continue;
            }
            let mut distinct = members.clone();
            distinct.dedup(); // members are in slot order
            for &s in &distinct {
                slot_nets[s].push(nets.len());
            }
            let fixed = fixed.iter().fold(
                (usize::MAX, 0, usize::MAX, 0),
                |(x0, x1, y0, y1), &(x, y)| (x0.min(x), x1.max(x), y0.min(y), y1.max(y)),
            );
            nets.push(PricedNet {
                slots: distinct,
                fixed,
            });
        }
        let slot_claims = slots
            .iter()
            .map(|slot| {
                (slot.input_nets.iter().chain([&slot.output_net]))
                    .map(|n| ids.binary_search(n).expect("every slot net is listed") as u32)
                    .collect()
            })
            .collect();
        Connectivity {
            net_slots,
            nets,
            slot_nets,
            slot_claims,
            claimable: ids.len(),
        }
    }
}

/// The annealing cost of a configuration, kept exact move by move.
///
/// The cost is an integer: the sum of the priced nets' half-perimeters,
/// plus 40 × Σ max(0, distinct nets claimed at a tile − track budget), plus
/// 25 per slot on a chain tile. A swap moves at most two slots between two
/// tiles, so [`CostState::swap`] updates those tiles' claim counts and
/// re-prices only the nets the two slots touch.
struct CostState<'a> {
    connectivity: &'a Connectivity,
    width: usize,
    per_clb: usize,
    /// Distinct nets a tile's routing channel carries without penalty.
    track_budget: usize,
    /// Site → slot placed there.
    slot_at: Vec<Option<usize>>,
    /// Slot → its tile's `(x, y)`.
    xy: Vec<(usize, usize)>,
    /// Priced net → its current half-perimeter.
    net_len: Vec<usize>,
    /// Tile × claimable net → how many pins and outputs of the tile's slots
    /// carry the net, single-terminal nets included: `claimable` counters
    /// per tile.
    claims: Vec<u32>,
    /// Tile → how many of its counters are nonzero.
    distinct: Vec<usize>,
    /// Tile → whether it is a chain tile.
    chain: Vec<bool>,
    /// The current cost.
    cost: i64,
    /// The last swap's cost delta and the nets it re-priced, with their
    /// previous half-perimeters, for [`CostState::undo`].
    last_delta: i64,
    repriced: Vec<(usize, usize)>,
}

impl<'a> CostState<'a> {
    fn new(
        request: &PlaceRequest<'a>,
        connectivity: &'a Connectivity,
        slot_at: Vec<Option<usize>>,
    ) -> Self {
        let PlaceRequest { slots, fabric, .. } = *request;
        let per_clb = fabric.config().luts_per_clb;
        let chain = (0..fabric.tile_count())
            .map(|t| {
                let xy = (t % fabric.width(), t / fabric.width());
                request.chain_tiles.contains(&xy)
            })
            .collect();
        let mut state = CostState {
            connectivity,
            width: fabric.width(),
            per_clb,
            track_budget: fabric.config().channel_width.saturating_sub(2).max(1),
            slot_at,
            xy: vec![(0, 0); slots.len()],
            net_len: vec![0; connectivity.nets.len()],
            claims: vec![0; fabric.tile_count() * connectivity.claimable],
            distinct: vec![0; fabric.tile_count()],
            chain,
            cost: 0,
            last_delta: 0,
            repriced: Vec::new(),
        };
        for site in 0..state.slot_at.len() {
            if let Some(s) = state.slot_at[site] {
                let tile = site / state.per_clb;
                state.xy[s] = state.tile_xy(tile);
                state.claim(s, tile);
                state.cost += 25 * i64::from(state.chain[tile]);
            }
        }
        for tile in 0..state.distinct.len() {
            state.cost += state.overflow_cost(tile);
        }
        for n in 0..state.net_len.len() {
            state.net_len[n] = state.half_perimeter(n);
            state.cost += state.net_len[n] as i64;
        }
        state
    }

    fn tile_xy(&self, tile: usize) -> (usize, usize) {
        (tile % self.width, tile / self.width)
    }

    /// 40 per distinct net claimed at `tile` beyond the track budget.
    fn overflow_cost(&self, tile: usize) -> i64 {
        40 * self.distinct[tile].saturating_sub(self.track_budget) as i64
    }

    fn half_perimeter(&self, net: usize) -> usize {
        let net = &self.connectivity.nets[net];
        let (mut x0, mut x1, mut y0, mut y1) = net.fixed;
        for &s in &net.slots {
            let (x, y) = self.xy[s];
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        x1 - x0 + y1 - y0
    }

    /// Adds slot `s`'s pin and output claims to `tile`.
    fn claim(&mut self, s: usize, tile: usize) {
        let base = tile * self.connectivity.claimable;
        for &net in &self.connectivity.slot_claims[s] {
            let count = &mut self.claims[base + net as usize];
            self.distinct[tile] += usize::from(*count == 0);
            *count += 1;
        }
    }

    /// Removes slot `s`'s pin and output claims from `tile`.
    fn release(&mut self, s: usize, tile: usize) {
        let base = tile * self.connectivity.claimable;
        for &net in &self.connectivity.slot_claims[s] {
            let count = &mut self.claims[base + net as usize];
            *count -= 1;
            self.distinct[tile] -= usize::from(*count == 0);
        }
    }

    /// Moves slot `s` from tile `from` to tile `to`; returns the change of
    /// its claim and chain-tile terms.
    fn relocate(&mut self, s: usize, from: usize, to: usize) -> i64 {
        self.release(s, from);
        self.claim(s, to);
        self.xy[s] = self.tile_xy(to);
        25 * (i64::from(self.chain[to]) - i64::from(self.chain[from]))
    }

    /// Swaps the contents of sites `a` and `b` (either may be empty) and
    /// returns the cost delta.
    fn swap(&mut self, a: usize, b: usize) -> i64 {
        self.slot_at.swap(a, b);
        self.repriced.clear();
        let (ta, tb) = (a / self.per_clb, b / self.per_clb);
        // The cost depends only on tiles, so a swap within one is free.
        let delta = if ta == tb {
            0
        } else {
            let overflow_before = self.overflow_cost(ta) + self.overflow_cost(tb);
            let mut delta = -overflow_before;
            if let Some(s) = self.slot_at[a] {
                delta += self.relocate(s, tb, ta);
            }
            if let Some(s) = self.slot_at[b] {
                delta += self.relocate(s, ta, tb);
            }
            delta += self.overflow_cost(ta) + self.overflow_cost(tb);
            let connectivity = self.connectivity;
            let nets_of = |site: usize| {
                self.slot_at[site].map_or(&[][..], |s| connectivity.slot_nets[s].as_slice())
            };
            let (nets_a, nets_b) = (nets_of(a), nets_of(b));
            // A net on both moved slots keeps its terminal tiles: the two
            // slots only trade places.
            let moved_nets = (nets_a.iter().filter(|n| !nets_b.contains(n)))
                .chain(nets_b.iter().filter(|n| !nets_a.contains(n)));
            for &n in moved_nets {
                let len = self.half_perimeter(n);
                delta += len as i64 - self.net_len[n] as i64;
                self.repriced.push((n, self.net_len[n]));
                self.net_len[n] = len;
            }
            delta
        };
        self.cost += delta;
        self.last_delta = delta;
        delta
    }

    /// Reverts the last [`CostState::swap`], of sites `a` and `b`.
    fn undo(&mut self, a: usize, b: usize) {
        let (ta, tb) = (a / self.per_clb, b / self.per_clb);
        if ta != tb {
            if let Some(s) = self.slot_at[a] {
                self.relocate(s, ta, tb);
            }
            if let Some(s) = self.slot_at[b] {
                self.relocate(s, tb, ta);
            }
            for &(n, len) in &self.repriced {
                self.net_len[n] = len;
            }
        }
        self.slot_at.swap(a, b);
        self.cost -= self.last_delta;
    }
}

/// What one anneal produced.
struct Annealed {
    /// Site → slot placed there.
    slot_at: Vec<Option<usize>>,
    /// The cost of `slot_at`.
    cost: i64,
    /// Why the anneal stopped early, when it did.
    degraded: Option<Exhausted>,
    /// Moves attempted.
    moves: u64,
    /// Moves priced by [`CostState::swap`]: those that move a slot.
    swaps: u64,
}

/// Simulated annealing over site swaps, from a round-robin spread of the
/// slots. A swap is priced incrementally ([`CostState`]); a rejected one is
/// undone in place. When `budget` runs out the cheapest configuration seen
/// is returned, marked degraded.
fn anneal(request: &PlaceRequest, connectivity: &Connectivity, rng: &mut Rng) -> Annealed {
    let PlaceRequest {
        slots,
        fabric,
        chain_tiles,
        budget,
        ..
    } = *request;
    let per_clb = fabric.config().luts_per_clb;
    let capacity = fabric.lut_sites();
    // slot_at[site] = Some(slot index). Initial placement spreads slots
    // round-robin over tiles: clustering them into the first tiles would
    // swamp those tiles' routing channels before annealing even starts.
    // Chain tiles are skipped first (their tracks belong to the chain pins)
    // and only used when the rest of the grid is full.
    let tiles = fabric.tile_count();
    let mut tile_order: Vec<usize> = (0..tiles).collect();
    tile_order.sort_by_key(|&t| {
        let xy = (t % fabric.width(), t / fabric.width());
        chain_tiles.contains(&xy)
    });
    let mut slot_at: Vec<Option<usize>> = vec![None; capacity];
    for s in 0..slots.len() {
        let tile = tile_order[s % tiles];
        let site = tile * per_clb + (s / tiles);
        slot_at[site] = Some(s);
    }
    let mut state = CostState::new(request, connectivity, slot_at);

    let moves = 200 * capacity.max(slots.len()).max(8);
    let mut temperature = (state.cost as f64 / connectivity.nets.len().max(1) as f64).max(1.0);
    // Best-so-far snapshot: the walk may sit on an uphill excursion when
    // the budget runs out, so an early exit restores the cheapest
    // configuration seen rather than wherever the anneal happened to be.
    let mut best_slot_at = state.slot_at.clone();
    let mut best_cost = state.cost;
    let mut degraded = None;
    let mut moves_done = 0u64;
    let mut swaps = 0u64;
    for m in 0..moves {
        moves_done += 1;
        if m % 256 == 0 {
            if let Err(why) = budget.checkpoint() {
                degraded = Some(why);
                break;
            }
        }
        let a = rng.gen_range(0..capacity);
        let b = rng.gen_range(0..capacity);
        if a == b || (state.slot_at[a].is_none() && state.slot_at[b].is_none()) {
            continue;
        }
        swaps += 1;
        let delta = state.swap(a, b);
        let accept = delta <= 0 || rng.gen_f64() < (-(delta as f64) / temperature).exp();
        if accept {
            if state.cost < best_cost {
                best_cost = state.cost;
                best_slot_at.clone_from(&state.slot_at);
            }
        } else {
            state.undo(a, b);
        }
        if m % 64 == 63 {
            temperature *= 0.9;
        }
    }
    let (slot_at, cost) = if degraded.is_some() {
        (best_slot_at, best_cost)
    } else {
        (state.slot_at, state.cost)
    };
    Annealed {
        slot_at,
        cost,
        degraded,
        moves: moves_done,
        swaps,
    }
}

/// Slot → `(x, y, clb slot)` of a site assignment.
fn sites_of(
    slot_at: &[Option<usize>],
    slot_count: usize,
    fabric: &Fabric,
) -> Vec<(usize, usize, usize)> {
    let per_clb = fabric.config().luts_per_clb;
    let mut sites = vec![(0, 0, 0); slot_count];
    for (site, s) in slot_at.iter().enumerate() {
        if let Some(s) = s {
            let tile = site / per_clb;
            sites[*s] = (tile % fabric.width(), tile / fabric.width(), site % per_clb);
        }
    }
    sites
}

/// IO assignment: each PI pad near the centroid of its reading slots; each
/// PO pad near its driving slot. Greedy with uniqueness. Input and output
/// pads share one `used` set: pad `i`'s input attaches at the very boundary
/// track node pad `i`'s output reads, so a PI and a PO on the same index
/// would contend for that node forever.
/// Corner tiles expose the same track node through pads of two sides, so
/// uniqueness is tracked per *attachment node*, not per pad index.
fn assign_io(
    request: &PlaceRequest,
    connectivity: &Connectivity,
    sites: &[(usize, usize, usize)],
    rng: &mut Rng,
) -> Result<(Vec<usize>, Vec<usize>), Shortage> {
    let PlaceRequest {
        netlist,
        slots,
        fabric,
        pin_hints,
        chain_tiles,
        ..
    } = *request;
    let mut used_nodes: HashSet<(usize, usize, usize)> = HashSet::new();
    let tiles_of = |members: &[usize], net: NetId| -> Vec<(usize, usize)> {
        let mut tiles: Vec<(usize, usize)> =
            members.iter().map(|&m| (sites[m].0, sites[m].1)).collect();
        if let Some(hints) = pin_hints.get(&net) {
            tiles.extend(hints.iter().copied());
        }
        tiles
    };
    let mut input_pads = Vec::with_capacity(netlist.inputs().len());
    for &pi in netlist.inputs() {
        let readers: &[usize] = connectivity
            .net_slots
            .get(&pi)
            .map(Vec::as_slice)
            .unwrap_or_default();
        let tiles = tiles_of(readers, pi);
        let (cx, cy) = tile_centroid(&tiles, fabric);
        let pad = best_pad(fabric, cx, cy, &used_nodes, chain_tiles, &tiles, rng)
            .ok_or_else(|| Shortage::Pads("ran out of input pads".into()))?;
        used_nodes.insert(pad_node(fabric, pad));
        input_pads.push(pad);
    }
    let mut output_pads = Vec::with_capacity(netlist.outputs().len());
    for (_, net) in netlist.outputs() {
        let drivers: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.output_net == *net)
            .map(|(i, _)| i)
            .collect();
        let tiles = tiles_of(&drivers, *net);
        let (cx, cy) = tile_centroid(&tiles, fabric);
        let pad = best_pad(fabric, cx, cy, &used_nodes, chain_tiles, &tiles, rng)
            .ok_or_else(|| Shortage::Pads("ran out of output pads".into()))?;
        used_nodes.insert(pad_node(fabric, pad));
        output_pads.push(pad);
    }
    Ok((input_pads, output_pads))
}

fn tile_centroid(tiles: &[(usize, usize)], fabric: &Fabric) -> (f64, f64) {
    if tiles.is_empty() {
        return (fabric.width() as f64 / 2.0, fabric.height() as f64 / 2.0);
    }
    let (mut sx, mut sy) = (0.0, 0.0);
    for &(x, y) in tiles {
        sx += x as f64;
        sy += y as f64;
    }
    (sx / tiles.len() as f64, sy / tiles.len() as f64)
}

fn pad_node(fabric: &Fabric, pad: usize) -> (usize, usize, usize) {
    match fabric.io_input_attachment(pad).0 {
        shell_fabric::SignalRef::Track { x, y, t } => (x, y, t),
        _ => unreachable!("pads attach to tracks"),
    }
}

fn best_pad(
    fabric: &Fabric,
    cx: f64,
    cy: f64,
    used_nodes: &HashSet<(usize, usize, usize)>,
    pad_averse_tiles: &HashSet<(usize, usize)>,
    own_tiles: &[(usize, usize)],
    rng: &mut Rng,
) -> Option<usize> {
    // Cap pads per boundary tile at half the channel width so pass-through
    // routing always finds free tracks next to the pads.
    let cap = (fabric.config().channel_width / 2).max(1);
    let mut tile_load: HashMap<(usize, usize), usize> = HashMap::new();
    for &(x, y, _) in used_nodes {
        *tile_load.entry((x, y)).or_insert(0) += 1;
    }
    let mut best: Option<(usize, f64)> = None;
    let mut fallback: Option<(usize, f64)> = None;
    for pad in 0..fabric.io_input_count() {
        let (x, y, t) = pad_node(fabric, pad);
        if used_nodes.contains(&(x, y, t)) {
            continue;
        }
        let mut d = (x as f64 - cx).abs() + (y as f64 - cy).abs();
        // Seed-dependent jitter so retry attempts explore different pad
        // assignments (a deterministic greedy can wall a pad in between two
        // pinned neighbors forever).
        d += rng.gen_f64() * 0.9;
        // A pad on a chain tile burns one of that block's scarce tracks:
        // strongly discourage it for nets that do not sink there.
        if pad_averse_tiles.contains(&(x, y)) && !own_tiles.contains(&(x, y)) {
            d += 1000.0;
        }
        if tile_load.get(&(x, y)).copied().unwrap_or(0) < cap {
            if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                best = Some((pad, d));
            }
        } else if fallback.map(|(_, bd)| d < bd).unwrap_or(true) {
            fallback = Some((pad, d));
        }
    }
    best.or(fallback).map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_fabric::FabricConfig;
    use shell_synth::lut_map;
    use shell_util::forall;

    fn adder_mapped() -> Netlist {
        use shell_netlist::NetlistBuilder;
        let mut b = NetlistBuilder::new("adder");
        let x = b.input_bus("x", 3);
        let y = b.input_bus("y", 3);
        let (s, c) = b.adder(&x, &y);
        b.output_bus("s", &s);
        b.output("c", c);
        lut_map(&b.finish(), 4).expect("acyclic").netlist
    }

    #[test]
    fn pack_adder() {
        let n = adder_mapped();
        let slots = pack(&n, 4).expect("packable");
        assert!(!slots.is_empty());
        for s in &slots {
            assert!(s.input_nets.len() <= 4);
        }
    }

    #[test]
    fn pack_fuses_single_fanout_dff() {
        let mut n = Netlist::new("r");
        let a = n.add_input("a");
        let l = n.add_cell("l", CellKind::Lut(LutMask::new(0b01, 1)), vec![a]);
        let q = n.add_cell("q", CellKind::Dff, vec![l]);
        n.add_output("q", q);
        let slots = pack(&n, 4).expect("packable");
        assert_eq!(slots.len(), 1);
        // One slot: the LUT's pin, registered onto the DFF's output.
        assert!(slots[0].registered);
        assert_eq!(slots[0].input_nets, vec![a]);
        assert_eq!(slots[0].output_net, q);
    }

    #[test]
    fn pack_standalone_dff_gets_identity_slot() {
        let mut n = Netlist::new("r2");
        let a = n.add_input("a");
        // DFF fed directly by a PI.
        let q = n.add_cell("q", CellKind::Dff, vec![a]);
        n.add_output("q", q);
        let slots = pack(&n, 4).expect("packable");
        assert_eq!(slots.len(), 1);
        assert!(slots[0].registered);
        assert_eq!(slots[0].input_nets, vec![a]);
        assert_eq!(slots[0].output_net, q);
        // Identity mask: rows with bit0 set are 1.
        for row in 0..16u64 {
            let expect = row & 1 == 1;
            assert_eq!((slots[0].mask >> row) & 1 == 1, expect);
        }
    }

    #[test]
    fn pack_dff_not_fused_when_lut_has_other_readers() {
        let mut n = Netlist::new("r3");
        let a = n.add_input("a");
        let l = n.add_cell("l", CellKind::Lut(LutMask::new(0b01, 1)), vec![a]);
        let q = n.add_cell("q", CellKind::Dff, vec![l]);
        n.add_output("q", q);
        n.add_output("comb", l); // second reader
        let slots = pack(&n, 4).expect("packable");
        assert_eq!(slots.len(), 2);
    }

    #[test]
    fn pack_rejects_random_logic() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let f = n.add_cell("f", CellKind::And, vec![a, b]);
        n.add_output("f", f);
        assert!(pack(&n, 4).is_err());
    }

    #[test]
    fn pack_rejects_oversized_lut() {
        let mut n = Netlist::new("big");
        let ins: Vec<NetId> = (0..6).map(|i| n.add_input(format!("i{i}"))).collect();
        let f = n.add_cell("f", CellKind::Lut(LutMask::new(0, 6)), ins);
        n.add_output("f", f);
        assert!(pack(&n, 4).is_err());
    }

    /// Places with one start, no pin hints and no chain tiles.
    fn place_plain(
        netlist: &Netlist,
        slots: &[Slot],
        fabric: &Fabric,
        seed: u64,
        budget: &Budget,
    ) -> Result<Placement, Shortage> {
        place(&PlaceRequest {
            netlist,
            slots,
            fabric,
            seed,
            starts: 1,
            pin_hints: &HashMap::new(),
            chain_tiles: &HashSet::new(),
            budget,
        })
    }

    #[test]
    fn place_assigns_unique_sites_and_pads() {
        let n = adder_mapped();
        let slots = pack(&n, 4).unwrap();
        let tiles = slots.len().div_ceil(4).max(2);
        let side = (tiles as f64).sqrt().ceil() as usize;
        let f = Fabric::generate(FabricConfig::fabulous_style(false), side + 1, side + 1);
        let p = place_plain(&n, &slots, &f, 42, &Budget::unlimited()).expect("placeable");
        // Unique sites.
        let mut seen = HashSet::new();
        for &s in &p.sites {
            assert!(seen.insert(s), "duplicate site {s:?}");
        }
        // Unique pads.
        let mut ip = HashSet::new();
        for &pad in &p.input_pads {
            assert!(ip.insert(pad));
        }
        let mut op = HashSet::new();
        for &pad in &p.output_pads {
            assert!(op.insert(pad));
        }
        assert_eq!(p.input_pads.len(), n.inputs().len());
        assert_eq!(p.output_pads.len(), n.outputs().len());
    }

    #[test]
    fn place_deterministic_per_seed() {
        let n = adder_mapped();
        let slots = pack(&n, 4).unwrap();
        let f = Fabric::generate(FabricConfig::fabulous_style(false), 4, 4);
        let p1 = place_plain(&n, &slots, &f, 7, &Budget::unlimited()).unwrap();
        let p2 = place_plain(&n, &slots, &f, 7, &Budget::unlimited()).unwrap();
        assert_eq!(p1.sites, p2.sites);
        assert_eq!(p1.input_pads, p2.input_pads);
    }

    #[test]
    fn multi_start_keeps_the_cheapest_earliest_start() {
        let n = adder_mapped();
        let slots = pack(&n, 4).unwrap();
        let f = Fabric::generate(FabricConfig::fabulous_style(false), 3, 3);
        let budget = Budget::unlimited();
        let singles: Vec<Placement> = (0..4u64)
            .map(|i| {
                let seed = 7u64.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                place_plain(&n, &slots, &f, seed, &budget).unwrap()
            })
            .collect();
        let cheapest = singles.iter().map(|p| p.hpwl).fold(f64::INFINITY, f64::min);
        let winner = singles.iter().find(|p| p.hpwl == cheapest).unwrap();
        let multi = place(&PlaceRequest {
            netlist: &n,
            slots: &slots,
            fabric: &f,
            seed: 7,
            starts: 4,
            pin_hints: &HashMap::new(),
            chain_tiles: &HashSet::new(),
            budget: &budget,
        })
        .unwrap();
        assert_eq!(multi.sites, winner.sites);
        assert_eq!(multi.input_pads, winner.input_pads);
        assert_eq!(multi.output_pads, winner.output_pads);
        assert_eq!(multi.hpwl.to_bits(), winner.hpwl.to_bits());
    }

    #[test]
    fn cancelled_budget_degrades_but_still_places() {
        let n = adder_mapped();
        let slots = pack(&n, 4).unwrap();
        let f = Fabric::generate(FabricConfig::fabulous_style(false), 4, 4);
        let budget = Budget::unlimited();
        budget.cancel();
        let p = place_plain(&n, &slots, &f, 7, &budget)
            .expect("a degraded placement is still a placement");
        assert_eq!(p.degraded, Some(Exhausted::Cancelled));
        assert_eq!(p.sites.len(), slots.len());
        let mut seen = HashSet::new();
        for &s in &p.sites {
            assert!(seen.insert(s), "duplicate site {s:?}");
        }
    }

    #[test]
    fn place_fails_on_tiny_fabric() {
        let n = adder_mapped();
        let slots = pack(&n, 4).unwrap();
        let f = Fabric::generate(FabricConfig::fabulous_style(false), 1, 1);
        if slots.len() > 4 {
            let placed = place_plain(&n, &slots, &f, 0, &Budget::unlimited());
            assert!(matches!(placed, Err(Shortage::LutSites(_))), "{placed:?}");
        }
    }

    /// `slot → (x, y, clb slot)`, as [`Placement::sites`].
    type Sites = [(usize, usize, usize)];

    /// The full recompute that the incremental cost replaced, verbatim:
    /// the number of priced nets and the cost of a `slot → site` vector.
    /// Nets with fewer than two terminals (pins and pin hints, with
    /// multiplicity) are left out of the wirelength.
    fn oracle_cost<'a>(
        slots: &'a [Slot],
        fabric: &Fabric,
        pin_hints: &HashMap<NetId, Vec<(usize, usize)>>,
        pad_averse_tiles: &'a HashSet<(usize, usize)>,
    ) -> (usize, impl Fn(&Sites) -> f64 + 'a) {
        // Connectivity: for HPWL we need, per net, the slots touching it.
        // Build net → participating slot indices (+ IO flags handled as fixed
        // boundary pull towards edges, approximated by ignoring them here).
        let mut net_slots: HashMap<NetId, Vec<usize>> = HashMap::new();
        for (si, slot) in slots.iter().enumerate() {
            for &n in &slot.input_nets {
                net_slots.entry(n).or_default().push(si);
            }
            net_slots.entry(slot.output_net).or_default().push(si);
        }
        // Net terminals: movable slot members plus fixed tiles (chain-block
        // pins placed before the CLB pass, passed in as hints).
        let nets: Vec<_> = net_slots
            .iter()
            .map(|(net, members)| {
                let fixed = pin_hints.get(net).cloned().unwrap_or_default();
                (members.clone(), fixed)
            })
            .filter(|(m, f)| m.len() + f.len() > 1)
            .collect();
        let net_count = nets.len();

        // Per-tile distinct input nets of each slot (for the congestion term).
        let channel = fabric.config().channel_width;
        let track_budget = channel.saturating_sub(2).max(1) as f64;
        let hpwl = move |positions: &[(usize, usize, usize)]| -> f64 {
            let mut total = 0.0;
            for (members, fixed) in &nets {
                let (mut x0, mut x1, mut y0, mut y1) = (usize::MAX, 0, usize::MAX, 0);
                for &s in members {
                    let (x, y, _) = positions[s];
                    x0 = x0.min(x);
                    x1 = x1.max(x);
                    y0 = y0.min(y);
                    y1 = y1.max(y);
                }
                for &(x, y) in fixed {
                    x0 = x0.min(x);
                    x1 = x1.max(x);
                    y0 = y0.min(y);
                    y1 = y1.max(y);
                }
                total += (x1 - x0 + y1 - y0) as f64;
            }
            // Congestion term: every slot pin needs a track at its tile; tiles
            // whose distinct-net demand exceeds the channel budget are strongly
            // penalized — wirelength alone rewards exactly the clustering that
            // makes tiles unroutable.
            let mut tile_nets: HashMap<(usize, usize), HashSet<NetId>> = HashMap::new();
            for (si, slot) in slots.iter().enumerate() {
                let (x, y, _) = positions[si];
                let entry = tile_nets.entry((x, y)).or_default();
                for &n in &slot.input_nets {
                    entry.insert(n);
                }
                // The slot output also claims a track at this tile (its source
                // attachment) whenever anything reads it.
                entry.insert(slot.output_net);
            }
            for demand in tile_nets.values() {
                let overflow = demand.len() as f64 - track_budget;
                if overflow > 0.0 {
                    total += overflow * 40.0;
                }
            }
            // Slots on chain tiles compete with the chain's own pin tracks.
            for (si, _) in slots.iter().enumerate() {
                let (x, y, _) = positions[si];
                if pad_averse_tiles.contains(&(x, y)) {
                    total += 25.0;
                }
            }
            total
        };
        (net_count, hpwl)
    }

    /// The annealing loop that the incremental cost replaced, verbatim:
    /// every move rebuilds all positions and re-prices everything. Returns
    /// the final `site → slot` vector, its cost, why the anneal stopped
    /// early and the moves attempted.
    fn oracle_anneal(
        slots: &[Slot],
        fabric: &Fabric,
        pin_hints: &HashMap<NetId, Vec<(usize, usize)>>,
        pad_averse_tiles: &HashSet<(usize, usize)>,
        budget: &Budget,
        rng: &mut Rng,
    ) -> (Vec<Option<usize>>, f64, Option<Exhausted>, u64) {
        let per_clb = fabric.config().luts_per_clb;
        let capacity = fabric.lut_sites();
        // Site list: (x, y, s).
        let site_of = |i: usize| -> (usize, usize, usize) {
            let tile = i / per_clb;
            (tile % fabric.width(), tile / fabric.width(), i % per_clb)
        };
        let tiles = fabric.tile_count();
        let mut tile_order: Vec<usize> = (0..tiles).collect();
        tile_order.sort_by_key(|&t| {
            let xy = (t % fabric.width(), t / fabric.width());
            pad_averse_tiles.contains(&xy)
        });
        let mut slot_at: Vec<Option<usize>> = vec![None; capacity];
        for s in 0..slots.len() {
            let tile = tile_order[s % tiles];
            let site = tile * per_clb + (s / tiles);
            slot_at[site] = Some(s);
        }
        let (net_count, hpwl) = oracle_cost(slots, fabric, pin_hints, pad_averse_tiles);

        let mut positions: Vec<(usize, usize, usize)> = vec![(0, 0, 0); slots.len()];
        let rebuild_positions =
            |slot_at: &[Option<usize>], positions: &mut Vec<(usize, usize, usize)>| {
                for (site, s) in slot_at.iter().enumerate() {
                    if let Some(s) = s {
                        positions[*s] = site_of(site);
                    }
                }
            };
        rebuild_positions(&slot_at, &mut positions);
        let mut cost = hpwl(&positions);

        // Simulated annealing over site swaps.
        let moves = 200 * capacity.max(slots.len()).max(8);
        let mut temperature = (cost / net_count.max(1) as f64).max(1.0);
        let mut best_slot_at = slot_at.clone();
        let mut best_cost = cost;
        let mut degraded = None;
        let mut moves_done = 0u64;
        for m in 0..moves {
            moves_done += 1;
            if m % 256 == 0 {
                if let Err(why) = budget.checkpoint() {
                    degraded = Some(why);
                    break;
                }
            }
            let a = rng.gen_range(0..capacity);
            let b = rng.gen_range(0..capacity);
            if a == b || (slot_at[a].is_none() && slot_at[b].is_none()) {
                continue;
            }
            slot_at.swap(a, b);
            rebuild_positions(&slot_at, &mut positions);
            let new_cost = hpwl(&positions);
            let delta = new_cost - cost;
            let accept = delta <= 0.0 || rng.gen_f64() < (-delta / temperature).exp();
            if accept {
                cost = new_cost;
                if cost < best_cost {
                    best_cost = cost;
                    best_slot_at.clone_from(&slot_at);
                }
            } else {
                slot_at.swap(a, b);
                rebuild_positions(&slot_at, &mut positions);
            }
            if m % 64 == 63 {
                temperature *= 0.9;
            }
        }
        if degraded.is_some() {
            slot_at = best_slot_at;
        }
        rebuild_positions(&slot_at, &mut positions);
        cost = hpwl(&positions);
        (slot_at, cost, degraded, moves_done)
    }

    /// A random placement input: slots over a small net pool (so pins
    /// repeat and slots read their own outputs), pin hints with repeated
    /// tiles, chain tiles, and a `w × h` fabric with a random CLB size and
    /// channel width.
    struct Instance {
        slots: Vec<Slot>,
        fabric: Fabric,
        pin_hints: HashMap<NetId, Vec<(usize, usize)>>,
        chain_tiles: HashSet<(usize, usize)>,
    }

    impl Instance {
        fn random(w: usize, h: usize, seed: u64) -> Instance {
            let (w, h) = (w.max(1), h.max(1));
            let mut rng = Rng::seed_from_u64(seed);
            let mut config = FabricConfig::fabulous_style(false);
            config.luts_per_clb = [1, 2, 4][rng.gen_range(0..3)];
            config.channel_width = [2, 3, 4, 6, 12][rng.gen_range(0..5)];
            let fabric = Fabric::generate(config, w, h);
            let count = rng.gen_range(0..fabric.lut_sites() + 1);
            let pool = rng.gen_range(1..2 * count + 4) as u32;
            let mut slots = Vec::with_capacity(count);
            for _ in 0..count {
                let mut input_nets = Vec::new();
                for _ in 0..rng.gen_range(0..5) {
                    input_nets.push(NetId(rng.gen_range(0..pool as usize) as u32));
                }
                let output_net = match input_nets.first() {
                    Some(&own) if rng.gen_bool(0.2) => own,
                    _ => NetId(rng.gen_range(0..pool as usize) as u32),
                };
                slots.push(Slot {
                    input_nets,
                    mask: 0,
                    registered: false,
                    output_net,
                });
            }
            let mut pin_hints: HashMap<NetId, Vec<(usize, usize)>> = HashMap::new();
            for net in 0..pool {
                if rng.gen_bool(0.3) {
                    for _ in 0..rng.gen_range(1..4) {
                        let tile = (rng.gen_range(0..w), rng.gen_range(0..h));
                        pin_hints.entry(NetId(net)).or_default().push(tile);
                    }
                }
            }
            let mut chain_tiles = HashSet::new();
            for y in 0..h {
                for x in 0..w {
                    if rng.gen_bool(0.25) {
                        chain_tiles.insert((x, y));
                    }
                }
            }
            Instance {
                slots,
                fabric,
                pin_hints,
                chain_tiles,
            }
        }

        fn request<'a>(
            &'a self,
            netlist: &'a Netlist,
            seed: u64,
            budget: &'a Budget,
        ) -> PlaceRequest<'a> {
            PlaceRequest {
                netlist,
                slots: &self.slots,
                fabric: &self.fabric,
                seed,
                starts: 1,
                pin_hints: &self.pin_hints,
                chain_tiles: &self.chain_tiles,
                budget,
            }
        }
    }

    #[test]
    fn incremental_cost_matches_full_recompute_after_every_step() {
        forall(
            "incremental cost == full recompute",
            0x001A_C057,
            48,
            |rng| (rng.gen_range(1..6), rng.gen_range(1..6), rng.next_u64()),
            |&(w, h, seed)| {
                let instance = Instance::random(w, h, seed);
                let (slots, fabric) = (&instance.slots, &instance.fabric);
                let netlist = Netlist::new("ports_free");
                let budget = Budget::unlimited();
                let request = instance.request(&netlist, seed, &budget);
                let connectivity = Connectivity::new(slots, &instance.pin_hints);
                let (_, full) =
                    oracle_cost(slots, fabric, &instance.pin_hints, &instance.chain_tiles);
                let full_cost =
                    |slot_at: &[Option<usize>]| full(&sites_of(slot_at, slots.len(), fabric));
                let per_clb = fabric.config().luts_per_clb;
                let capacity = fabric.lut_sites();
                let mut rng = Rng::seed_from_u64(seed);
                let mut slot_at: Vec<Option<usize>> = (0..capacity)
                    .map(|i| (i < slots.len()).then_some(i))
                    .collect();
                rng.shuffle(&mut slot_at);
                let mut state = CostState::new(&request, &connectivity, slot_at);
                if state.cost as f64 != full_cost(&state.slot_at) {
                    return Err(format!(
                        "initial cost {} != {}",
                        state.cost,
                        full_cost(&state.slot_at)
                    ));
                }
                for step in 0..200 {
                    let a = rng.gen_range(0..capacity);
                    let empty: Vec<usize> = (0..capacity)
                        .filter(|&i| state.slot_at[i].is_none())
                        .collect();
                    let (a, b) = match rng.gen_range(0..4) {
                        0 => (a, a),
                        1 => (a, a / per_clb * per_clb + rng.gen_range(0..per_clb)),
                        2 if !empty.is_empty() => (
                            empty[rng.gen_range(0..empty.len())],
                            empty[rng.gen_range(0..empty.len())],
                        ),
                        _ => (a, rng.gen_range(0..capacity)),
                    };
                    let (before, slot_at_before) = (state.cost, state.slot_at.clone());
                    let delta = state.swap(a, b);
                    let expect = full_cost(&state.slot_at);
                    if state.cost != before + delta || state.cost as f64 != expect {
                        return Err(format!(
                            "step {step}: swap({a}, {b}) priced {} (delta {delta}), full recompute {expect}",
                            state.cost
                        ));
                    }
                    if rng.gen_bool(0.5) {
                        state.undo(a, b);
                        if state.slot_at != slot_at_before
                            || state.cost != before
                            || state.cost as f64 != full_cost(&state.slot_at)
                        {
                            return Err(format!(
                                "step {step}: undo of swap({a}, {b}) left cost {}, was {before}",
                                state.cost
                            ));
                        }
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn anneal_matches_full_recompute_loop() {
        forall(
            "anneal == full-recompute loop",
            0x00A7_7EA1,
            24,
            |rng| (rng.gen_range(1..4), rng.gen_range(1..4), rng.next_u64()),
            |&(w, h, seed)| {
                let instance = Instance::random(w, h, seed);
                let (slots, fabric) = (&instance.slots, &instance.fabric);
                let netlist = Netlist::new("ports_free");
                let connectivity = Connectivity::new(slots, &instance.pin_hints);
                let (_, full) =
                    oracle_cost(slots, fabric, &instance.pin_hints, &instance.chain_tiles);
                for cancelled in [false, true] {
                    let budget = Budget::unlimited();
                    if cancelled {
                        budget.cancel();
                    }
                    let request = instance.request(&netlist, seed, &budget);
                    let mut rng = Rng::seed_from_u64(seed);
                    let annealed = anneal(&request, &connectivity, &mut rng);
                    let mut oracle_rng = Rng::seed_from_u64(seed);
                    let (slot_at, cost, degraded, moves) = oracle_anneal(
                        slots,
                        fabric,
                        &instance.pin_hints,
                        &instance.chain_tiles,
                        &budget,
                        &mut oracle_rng,
                    );
                    let context = format!("cancelled={cancelled}");
                    if annealed.slot_at != slot_at {
                        return Err(format!("{context}: placements differ"));
                    }
                    if (annealed.cost as f64).to_bits() != cost.to_bits() {
                        return Err(format!("{context}: cost {} != {cost}", annealed.cost));
                    }
                    if (annealed.moves, &annealed.degraded) != (moves, &degraded) {
                        return Err(format!(
                            "{context}: {} moves ({:?}) != {moves} ({degraded:?})",
                            annealed.moves, annealed.degraded
                        ));
                    }
                    if rng.next_u64() != oracle_rng.next_u64() {
                        return Err(format!("{context}: the RNG streams diverged"));
                    }
                    let placed = place(&request).map_err(|e| e.to_string())?;
                    if placed.hpwl.to_bits() != full(&placed.sites).to_bits()
                        || placed.hpwl.to_bits() != cost.to_bits()
                    {
                        return Err(format!(
                            "{context}: Placement::hpwl {} is not the cost {} of its sites",
                            placed.hpwl,
                            full(&placed.sites)
                        ));
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn pad_mask_extension() {
        // XOR2 padded to 4 pins ignores pins 2,3.
        let m = pad_mask(LutMask::new(0b0110, 2), 4);
        for row in 0..16u64 {
            let expect = ((row & 1) ^ ((row >> 1) & 1)) == 1;
            assert_eq!((m >> row) & 1 == 1, expect, "row {row}");
        }
    }
}
