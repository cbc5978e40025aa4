//! Negotiated-congestion routing over the fabric track graph.
//!
//! The routing resource is the **track node** `(x, y, t)`: each carries one
//! signal, chosen by its switch mux. A signal enters the graph at its source
//! attachment (a CLB slot output, chain block output, or boundary input pad)
//! and propagates tile to tile along the same track index. Sinks are either
//! *any* track of a tile (CLB/chain pins pick their track with a connection
//! mux) or a *specific* boundary track (output pads are hard-wired).
//!
//! The algorithm is PathFinder-lite: route every net by BFS with node costs
//! `1 + present_congestion + history`; when nodes end up shared, rip up and
//! re-route with increased penalties until the routing is legal or the
//! iteration budget runs out.

use shell_fabric::{Fabric, SignalRef};
use shell_guard::{Budget, Exhausted};
use std::fmt;

/// Why routing stopped without a legal solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// Request `request` (its index) could not be routed legally within
    /// the iteration limit — congestion, or an unreachable sink.
    Unroutable {
        /// Index of the offending request.
        request: usize,
    },
    /// The shared budget ran out mid-negotiation. Unlike placement, a
    /// half-negotiated routing is illegal (nets still share track nodes),
    /// so there is no best-so-far to degrade to.
    Exhausted(Exhausted),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Unroutable { request } => write!(f, "request {request} is unroutable"),
            RouteError::Exhausted(why) => write!(f, "routing budget exhausted ({why})"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Where a routed signal originates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// Output of CLB slot `slot` of tile `(x, y)`.
    Slot {
        /// Tile x.
        x: usize,
        /// Tile y.
        y: usize,
        /// Slot index.
        slot: usize,
    },
    /// Output of the chain block of tile `(x, y)` (its last element).
    ChainBlock {
        /// Tile x.
        x: usize,
        /// Tile y.
        y: usize,
    },
    /// Fabric input pad.
    Pad(usize),
}

/// Where a routed signal must arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SinkKind {
    /// Any track of tile `(x, y)` (CLB pins / chain pins connect through a
    /// connection mux). The router reports which track it used.
    AnyTrackAt {
        /// Tile x.
        x: usize,
        /// Tile y.
        y: usize,
    },
    /// The specific boundary track read by output pad `pad`.
    OutputPad {
        /// Output pad index.
        pad: usize,
    },
}

/// One net to route: a source and its sinks. The router names a request
/// by its index in the batch.
#[derive(Debug, Clone)]
pub struct RouteRequest {
    /// Signal origin.
    pub source: SourceKind,
    /// All destinations.
    pub sinks: Vec<SinkKind>,
}

/// A routed net: the track nodes it occupies with the mux selection of
/// each.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutedNet {
    /// `((x, y, t), chosen switch-mux input index)`, one entry per node.
    pub nodes: Vec<((usize, usize, usize), usize)>,
}

/// Routing outcome for a batch of nets.
#[derive(Debug, Clone, Default)]
pub struct RoutingResult {
    /// Per-net routes, in request order.
    pub nets: Vec<RoutedNet>,
    /// Negotiation iterations used.
    pub iterations: usize,
}

impl RoutingResult {
    /// Total track nodes occupied.
    pub fn wirelength(&self) -> usize {
        self.nets.iter().map(|r| r.nodes.len()).sum()
    }
}

/// The router. Holds the fabric topology and congestion state.
#[derive(Debug)]
pub struct Router<'f> {
    fabric: &'f Fabric,
    width: usize,
    tracks: usize,
    /// Who reads each node, flattened: node `i`'s readers are
    /// `readers[reader_start[i]..reader_start[i + 1]]`, in the order the
    /// search relaxes them (east, west, north, south).
    readers: Vec<Reader>,
    reader_start: Vec<u32>,
    /// Accumulated history cost per node.
    history: Vec<f64>,
}

/// A node that can select another through its switch mux.
#[derive(Debug, Clone, Copy)]
struct Reader {
    /// The reading node.
    node: u32,
    /// The mux input it selects to read.
    pos: u32,
}

/// `from` of a search root: a tree node or a source attachment.
const ROOT: usize = usize::MAX;

/// The buffers of [`Router::search`], kept across the calls of a routing
/// run so that a call allocates little more than its result. Every call
/// overwrites what it reads: `cost` and `roots` per call, `dist` per sink,
/// and `from` wherever it sets `dist`; it clears the previous call's tree
/// and its marks first.
struct Scratch {
    /// Cost of entering each node.
    cost: Vec<f64>,
    /// Least cost found to each node.
    dist: Vec<f64>,
    /// The node each node was reached from, or [`ROOT`].
    from: Vec<usize>,
    /// The source attachments as `(node, selection)`.
    roots: Vec<(usize, usize)>,
    /// The FIFO queue: a search pushes at the back and pops at a head index.
    queue: Vec<u32>,
    /// The net's tree as `(node, selection)`.
    tree: Vec<(usize, usize)>,
    /// Membership in `tree`.
    in_tree: Vec<bool>,
}

impl Scratch {
    fn new(n_nodes: usize) -> Self {
        Self {
            cost: Vec::with_capacity(n_nodes),
            dist: vec![f64::INFINITY; n_nodes],
            from: vec![ROOT; n_nodes],
            roots: Vec::new(),
            queue: Vec::with_capacity(n_nodes),
            tree: Vec::new(),
            in_tree: vec![false; n_nodes],
        }
    }
}

impl<'f> Router<'f> {
    /// Creates a router for `fabric`.
    pub fn new(fabric: &'f Fabric) -> Self {
        let width = fabric.width();
        let height = fabric.height();
        let tracks = fabric.config().channel_width;
        let n_nodes = width * height * tracks;
        let index = |x: usize, y: usize, t: usize| ((y * width + x) * tracks + t) as u32;
        let mut readers = Vec::with_capacity(4 * n_nodes);
        let mut reader_start = Vec::with_capacity(n_nodes + 1);
        for y in 0..height {
            for x in 0..width {
                for t in 0..tracks {
                    reader_start.push(readers.len() as u32);
                    // The east neighbour reads us through its west input
                    // (0), the west neighbour through its east input (1).
                    // Every vertical hop *increments* the track index (see
                    // `Fabric::track_mux_inputs`): the north neighbour reads
                    // us through its south input (2) and the south
                    // neighbour through its north input (3), both on track
                    // `t + 1`.
                    let up = (t + 1) % tracks;
                    let mut read = |node, pos| readers.push(Reader { node, pos });
                    if x + 1 < width {
                        read(index(x + 1, y, t), 0);
                    }
                    if x > 0 {
                        read(index(x - 1, y, t), 1);
                    }
                    if y + 1 < height {
                        read(index(x, y + 1, up), 2);
                    }
                    if y > 0 {
                        read(index(x, y - 1, up), 3);
                    }
                }
            }
        }
        reader_start.push(readers.len() as u32);
        Self {
            fabric,
            width,
            tracks,
            readers,
            reader_start,
            history: vec![0.0; n_nodes],
        }
    }

    #[inline]
    fn node_index(&self, x: usize, y: usize, t: usize) -> usize {
        (y * self.width + x) * self.tracks + t
    }

    /// `(x, y, t)` of node `i`.
    #[inline]
    fn coords(&self, i: usize) -> (usize, usize, usize) {
        let tile = i / self.tracks;
        (tile % self.width, tile / self.width, i % self.tracks)
    }

    /// Track nodes a source can drive directly, with the mux input index the
    /// node must select.
    fn source_attachments(&self, src: SourceKind) -> Vec<((usize, usize, usize), usize)> {
        match src {
            SourceKind::Slot { x, y, slot } => {
                // Every track of the tile can select clb output `slot` at
                // mux input position 4 + slot.
                (0..self.tracks).map(|t| ((x, y, t), 4 + slot)).collect()
            }
            SourceKind::ChainBlock { x, y } => {
                let pos = 4 + self.fabric.config().luts_per_clb;
                (0..self.tracks).map(|t| ((x, y, t), pos)).collect()
            }
            SourceKind::Pad(idx) => {
                let (sig, pos) = self.fabric.io_input_attachment(idx);
                match sig {
                    SignalRef::Track { x, y, t } => vec![((x, y, t), pos)],
                    _ => unreachable!("pads attach to tracks"),
                }
            }
        }
    }

    /// Routes all requests. Sinks of the same net may share track nodes; no
    /// two different nets may.
    ///
    /// # Errors
    ///
    /// Returns the index of a request that could not be routed legally
    /// within `max_iterations` (see [`Router::route_all_budgeted`]).
    pub fn route_all(
        &mut self,
        requests: &[RouteRequest],
        max_iterations: usize,
    ) -> Result<RoutingResult, usize> {
        self.route_all_budgeted(requests, max_iterations, &Budget::unlimited())
            .map_err(|e| match e {
                RouteError::Unroutable { request } => request,
                // An unlimited, unshared budget cannot exhaust.
                RouteError::Exhausted(_) => unreachable!("unlimited budget exhausted"),
            })
    }

    /// Like [`Router::route_all`], but polls `budget` once per negotiation
    /// iteration and per offender re-route, returning
    /// [`RouteError::Exhausted`] when it runs out. With an unlimited budget
    /// this is byte-identical to [`Router::route_all`].
    ///
    /// # Errors
    ///
    /// [`RouteError`] — an unroutable net or an exhausted budget. A net with
    /// an unreachable sink is reported as soon as it is met; when
    /// negotiation ends with nodes still shared, the lowest request index on
    /// an over-used node is reported.
    pub fn route_all_budgeted(
        &mut self,
        requests: &[RouteRequest],
        max_iterations: usize,
        budget: &Budget,
    ) -> Result<RoutingResult, RouteError> {
        let _span = shell_trace::span!("route.negotiate");
        let unroutable = |request: usize| RouteError::Unroutable { request };
        let n_nodes = self.history.len();
        let mut routes: Vec<RoutedNet> = Vec::with_capacity(requests.len());
        let mut occupancy: Vec<u32> = vec![0; n_nodes];

        // Initial pass, in two deterministic stages. Stage 1 computes a
        // candidate route per net in parallel against a *frozen* snapshot
        // (empty occupancy — a pure function of fabric and history, so the
        // candidates are identical at any worker count). Stage 2 commits
        // sequentially in request order: a candidate whose nodes are still
        // free is taken as-is; one that collides with already-committed
        // nodes is re-routed on the spot against the live occupancy, which
        // is exactly what a fully sequential pass would have done for it.
        // Both stages depend only on request order, never on thread
        // scheduling, so the routing (and the bitstream downstream) is
        // byte-identical at every `SHELL_JOBS` setting.
        let candidates: Vec<Option<RoutedNet>> = {
            let this: &Router<'f> = self;
            let empty = vec![0u32; n_nodes];
            shell_exec::parallel_map(requests, |req| {
                this.route_one(req, &empty, 0, &mut Scratch::new(n_nodes))
            })
        };
        let mut scratch = Scratch::new(n_nodes);
        for (id, (req, candidate)) in requests.iter().zip(candidates).enumerate() {
            let candidate = candidate.ok_or(unroutable(id))?;
            let collides = self.node_indices(&candidate).any(|i| occupancy[i] > 0);
            let routed = if collides {
                self.route_one(req, &occupancy, 0, &mut scratch)
                    .ok_or(unroutable(id))?
            } else {
                candidate
            };
            for i in self.node_indices(&routed) {
                occupancy[i] += 1;
            }
            routes.push(routed);
        }

        // Negotiation: rip up and re-route only the nets sitting on
        // overused nodes; everyone else keeps their (visible) routing.
        let mut iterations = 1;
        for iter in 1..max_iterations {
            budget.checkpoint().map_err(RouteError::Exhausted)?;
            let _pass = shell_trace::span!("route.pass", iteration = iter);
            iterations = iter + 1;
            // Rebuild occupancy from the authoritative route set: the
            // incremental bookkeeping must never drift, and a stale phantom
            // count would look like permanent congestion.
            occupancy.iter_mut().for_each(|o| *o = 0);
            for i in routes.iter().flat_map(|routed| self.node_indices(routed)) {
                occupancy[i] += 1;
            }
            let offenders = self.offenders(&routes, &occupancy);
            if offenders.is_empty() {
                return Ok(RoutingResult {
                    nets: routes,
                    iterations,
                });
            }
            // Accumulate history on every overused node.
            let mut over = 0usize;
            for o in occupancy.iter() {
                if *o > 1 {
                    over += 1;
                }
            }
            shell_trace::gauge("route.overuse", over as f64);
            for (i, o) in occupancy.iter().enumerate() {
                if *o > 1 {
                    self.history[i] += (*o - 1) as f64;
                }
            }
            for id in offenders {
                budget.checkpoint().map_err(RouteError::Exhausted)?;
                for i in self.node_indices(&routes[id]) {
                    occupancy[i] -= 1;
                }
                let routed = self
                    .route_one(&requests[id], &occupancy, iter, &mut scratch)
                    .ok_or(unroutable(id))?;
                for i in self.node_indices(&routed) {
                    occupancy[i] += 1;
                }
                routes[id] = routed;
            }
        }
        // Final legality check after the last iteration's re-routes.
        match self.offenders(&routes, &occupancy).first() {
            None => Ok(RoutingResult {
                nets: routes,
                iterations,
            }),
            Some(&culprit) => Err(unroutable(culprit)),
        }
    }

    /// The node indices `routed` occupies.
    fn node_indices<'a>(&'a self, routed: &'a RoutedNet) -> impl Iterator<Item = usize> + 'a {
        routed
            .nodes
            .iter()
            .map(|&((x, y, t), _)| self.node_index(x, y, t))
    }

    /// Indices of the requests occupying an over-used node, ascending.
    fn offenders(&self, routes: &[RoutedNet], occupancy: &[u32]) -> Vec<usize> {
        (0..routes.len())
            .filter(|&id| self.node_indices(&routes[id]).any(|i| occupancy[i] > 1))
            .collect()
    }

    /// Routes one net against current occupancy. Returns `None` when some
    /// sink is unreachable even ignoring congestion.
    fn route_one(
        &self,
        req: &RouteRequest,
        occupancy: &[u32],
        iteration: usize,
        scratch: &mut Scratch,
    ) -> Option<RoutedNet> {
        let (routed, relaxations) = self.search(req, occupancy, iteration, scratch);
        // Relaxations are counted locally and flushed once per call: the
        // total is a pure function of the request stream, so the counter is
        // identical at any `SHELL_JOBS` even though calls run on workers.
        shell_trace::counter_add("route.spfa_relaxations", relaxations);
        routed
    }

    /// [`Router::route_one`] without the counter: the routed net, and the
    /// number of queue pops its searches made.
    ///
    /// Each sink is one SPFA search from the tree routed so far. The order
    /// of relaxations breaks cost ties, so it is fixed: tree seeds in
    /// `(x, y, t)` order, then the source attachments; a FIFO queue; the
    /// readers in table order; a strictly lower cost to relax; the first
    /// track of least cost at the sink.
    fn search(
        &self,
        req: &RouteRequest,
        occupancy: &[u32],
        iteration: usize,
        scratch: &mut Scratch,
    ) -> (Option<RoutedNet>, u64) {
        let Scratch {
            cost,
            dist,
            from,
            roots,
            queue,
            tree,
            in_tree,
        } = scratch;
        let present_penalty = 1.0 + iteration as f64 * 2.0;
        // Occupancy and history stay fixed during the call.
        cost.clear();
        cost.extend(
            occupancy
                .iter()
                .zip(&self.history)
                .map(|(&o, &h)| node_cost(o, h, present_penalty)),
        );
        roots.clear();
        roots.extend(
            self.source_attachments(req.source)
                .into_iter()
                .map(|((x, y, t), s)| (self.node_index(x, y, t), s)),
        );
        for &(i, _) in tree.iter() {
            in_tree[i] = false;
        }
        tree.clear();
        let mut relaxations = 0u64;
        for sink in &req.sinks {
            dist.fill(f64::INFINITY);
            // Seed: existing tree nodes (free) + source attachments. Seed in
            // (x, y, t) order: relaxation order breaks cost ties, and
            // insertion-order seeding would make the routing tree differ.
            tree.sort_unstable_by_key(|&(i, _)| self.coords(i));
            queue.clear();
            for &(i, _) in tree.iter() {
                dist[i] = 0.0;
                from[i] = ROOT;
                queue.push(i as u32);
            }
            for &(i, _) in roots.iter() {
                if cost[i] < dist[i] {
                    dist[i] = cost[i];
                    from[i] = ROOT;
                    queue.push(i as u32);
                }
            }
            // SPFA-style relaxation (costs are small positive; fine here).
            // A root keeps `dist` at 0 or at its own cost, which no path
            // can undercut, so it is never relaxed.
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                let u = u as usize;
                let du = dist[u];
                for &Reader { node, .. } in self.readers_of(u) {
                    let v = node as usize;
                    let alt = du + cost[v];
                    if alt < dist[v] {
                        dist[v] = alt;
                        from[v] = u;
                        queue.push(node);
                    }
                }
            }
            relaxations += head as u64;
            // Pick the best node satisfying the sink.
            let target = match *sink {
                SinkKind::AnyTrackAt { x, y } => (0..self.tracks)
                    .map(|t| self.node_index(x, y, t))
                    .filter(|&i| dist[i].is_finite())
                    .min_by(|&a, &b| dist[a].partial_cmp(&dist[b]).expect("finite")),
                SinkKind::OutputPad { pad } => match self.fabric.io_output_source(pad) {
                    SignalRef::Track { x, y, t } => {
                        let i = self.node_index(x, y, t);
                        dist[i].is_finite().then_some(i)
                    }
                    _ => None,
                },
            };
            let Some(target) = target else {
                return (None, relaxations);
            };
            // Walk back, adding nodes to the tree until it merges. A node
            // reached from `u` selects the mux input `u`'s reader entry for
            // it names; a root that is not in the tree is an attachment.
            let mut cur = target;
            while !in_tree[cur] {
                in_tree[cur] = true;
                let u = from[cur];
                let sel = if u == ROOT {
                    roots.iter().find(|&&(i, _)| i == cur).map(|&(_, s)| s)
                } else {
                    let reader = self.readers_of(u).iter().find(|r| r.node as usize == cur);
                    reader.map(|r| r.pos as usize)
                };
                tree.push((cur, sel.expect("a reached node has a way in")));
                if u == ROOT {
                    break;
                }
                cur = u;
            }
        }
        let nodes = tree.iter().map(|&(i, s)| (self.coords(i), s)).collect();
        (Some(RoutedNet { nodes }), relaxations)
    }

    /// The readers of node `u`, in relaxation order.
    #[inline]
    fn readers_of(&self, u: usize) -> &[Reader] {
        &self.readers[self.reader_start[u] as usize..self.reader_start[u + 1] as usize]
    }
}

/// Cost of entering a node that `occupancy` nets use and that has
/// accumulated `history`.
#[inline]
fn node_cost(occupancy: u32, history: f64, present_penalty: f64) -> f64 {
    1.0 + occupancy as f64 * present_penalty + history
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_fabric::FabricConfig;
    use shell_util::{forall, Rng};
    use std::collections::{HashMap, VecDeque};

    fn fabric(w: usize, h: usize) -> Fabric {
        Fabric::generate(FabricConfig::fabulous_style(true), w, h)
    }

    /// West input pad feeding track (0, y, t).
    fn west_pad(f: &Fabric, y: usize, t: usize) -> usize {
        (0..f.io_input_count())
            .find(|&i| {
                let (sig, pos) = f.io_input_attachment(i);
                pos == 0
                    && matches!(sig, SignalRef::Track { x, y: yy, t: tt } if x == 0 && yy == y && tt == t)
            })
            .expect("west pad")
    }

    /// The selection of node `at` in `net`, if `net` occupies it.
    fn selection(net: &RoutedNet, at: (usize, usize, usize)) -> Option<usize> {
        net.nodes.iter().find(|&&(n, _)| n == at).map(|&(_, s)| s)
    }

    /// Output pad reading track (x, y, t) on the east edge.
    fn east_out_pad(f: &Fabric, y: usize, t: usize) -> usize {
        (0..f.io_output_count())
            .find(|&i| {
                matches!(f.io_output_source(i),
                    SignalRef::Track { x, y: yy, t: tt } if x == f.width() - 1 && yy == y && tt == t)
            })
            .expect("east out pad")
    }

    #[test]
    fn route_pad_across_fabric() {
        let f = fabric(3, 1);
        let mut r = Router::new(&f);
        let req = RouteRequest {
            source: SourceKind::Pad(west_pad(&f, 0, 2)),
            sinks: vec![SinkKind::OutputPad {
                pad: east_out_pad(&f, 0, 2),
            }],
        };
        let res = r.route_all(&[req], 8).expect("routable");
        let net = &res.nets[0];
        // Path spans all three tiles on track 2.
        assert_eq!(net.nodes.len(), 3);
        for x in 0..3 {
            assert!(selection(net, (x, 0, 2)).is_some(), "tile {x}");
        }
        // Boundary node selects west (0); interior nodes select west (0).
        assert_eq!(selection(net, (0, 0, 2)), Some(0));
    }

    #[test]
    fn route_slot_to_clb_pin() {
        let f = fabric(2, 2);
        let mut r = Router::new(&f);
        let req = RouteRequest {
            source: SourceKind::Slot {
                x: 0,
                y: 0,
                slot: 2,
            },
            sinks: vec![SinkKind::AnyTrackAt { x: 1, y: 1 }],
        };
        let res = r.route_all(&[req], 8).expect("routable");
        let net = &res.nets[0];
        // Source tile node selects clb input 4 + 2 = 6.
        let src_node = net
            .nodes
            .iter()
            .find(|((x, y, _), _)| *x == 0 && *y == 0)
            .expect("source tile used");
        assert_eq!(src_node.1, 6);
        // Two hops (manhattan) + source node.
        assert_eq!(net.nodes.len(), 3);
    }

    #[test]
    fn multi_sink_reuses_tree() {
        let f = fabric(3, 1);
        let mut r = Router::new(&f);
        let req = RouteRequest {
            source: SourceKind::Slot {
                x: 0,
                y: 0,
                slot: 0,
            },
            sinks: vec![
                SinkKind::AnyTrackAt { x: 2, y: 0 },
                SinkKind::AnyTrackAt { x: 1, y: 0 },
            ],
        };
        let res = r.route_all(&[req], 8).expect("routable");
        // The second sink lies on the path of the first: 3 nodes total.
        assert_eq!(res.nets[0].nodes.len(), 3);
    }

    #[test]
    fn congestion_negotiation_separates_nets() {
        // Two nets crossing the same column must end on different tracks.
        let f = fabric(3, 1);
        let mut r = Router::new(&f);
        let reqs = vec![
            RouteRequest {
                source: SourceKind::Pad(west_pad(&f, 0, 0)),
                sinks: vec![SinkKind::OutputPad {
                    pad: east_out_pad(&f, 0, 0),
                }],
            },
            RouteRequest {
                source: SourceKind::Slot {
                    x: 0,
                    y: 0,
                    slot: 1,
                },
                sinks: vec![SinkKind::AnyTrackAt { x: 2, y: 0 }],
            },
        ];
        let res = r.route_all(&reqs, 16).expect("routable");
        // No shared nodes.
        for &(node, _) in &res.nets[1].nodes {
            assert_eq!(selection(&res.nets[0], node), None, "node {node:?} shared");
        }
    }

    #[test]
    fn cancelled_budget_stops_negotiation_with_typed_error() {
        // Same congested setup as above: the initial pass overlaps the two
        // nets, so negotiation must run — and the cancelled budget stops it
        // at the first iteration boundary.
        let f = fabric(3, 1);
        let mut r = Router::new(&f);
        let reqs = vec![
            RouteRequest {
                source: SourceKind::Pad(west_pad(&f, 0, 0)),
                sinks: vec![SinkKind::OutputPad {
                    pad: east_out_pad(&f, 0, 0),
                }],
            },
            RouteRequest {
                source: SourceKind::Slot {
                    x: 0,
                    y: 0,
                    slot: 1,
                },
                sinks: vec![SinkKind::AnyTrackAt { x: 2, y: 0 }],
            },
        ];
        let budget = Budget::unlimited();
        budget.cancel();
        match r.route_all_budgeted(&reqs, 16, &budget) {
            Err(RouteError::Exhausted(Exhausted::Cancelled)) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn saturation_fails_gracefully() {
        // 1x1 fabric has 8 tracks; 9 slot nets each needing a track at the
        // same tile cannot all fit... but slots only number 4; use pads:
        // route more nets than tracks through the single tile.
        let f = fabric(1, 1);
        let mut r = Router::new(&f);
        let reqs: Vec<RouteRequest> = (0..9)
            .map(|i| RouteRequest {
                source: SourceKind::Pad(west_pad(&f, 0, i % 8)),
                sinks: vec![SinkKind::AnyTrackAt { x: 0, y: 0 }],
            })
            .collect();
        assert!(r.route_all(&reqs, 6).is_err());
    }

    #[test]
    fn unroutable_culprit_is_the_lowest_id_on_every_run() {
        // The saturated tile above: nets 0 and 8 enter through the same pad
        // and so share its track on every iteration. Both are culprits, and
        // the error names the lower one.
        let f = fabric(1, 1);
        let reqs: Vec<RouteRequest> = (0..9)
            .map(|i| RouteRequest {
                source: SourceKind::Pad(west_pad(&f, 0, i % 8)),
                sinks: vec![SinkKind::AnyTrackAt { x: 0, y: 0 }],
            })
            .collect();
        for run in 0..16 {
            let outcome = Router::new(&f).route_all(&reqs, 6);
            assert_eq!(outcome.err(), Some(0), "run {run}");
        }
    }

    #[test]
    fn wirelength_reported() {
        let f = fabric(4, 1);
        let mut r = Router::new(&f);
        let req = RouteRequest {
            source: SourceKind::Pad(west_pad(&f, 0, 1)),
            sinks: vec![SinkKind::OutputPad {
                pad: east_out_pad(&f, 0, 1),
            }],
        };
        let res = r.route_all(&[req], 4).expect("routable");
        assert_eq!(res.wirelength(), 4);
        assert!(res.iterations >= 1);
    }

    #[test]
    fn chain_block_source_position() {
        let f = fabric(2, 1);
        let mut r = Router::new(&f);
        let req = RouteRequest {
            source: SourceKind::ChainBlock { x: 1, y: 0 },
            sinks: vec![SinkKind::AnyTrackAt { x: 0, y: 0 }],
        };
        let res = r.route_all(&[req], 8).expect("routable");
        let src_node = res.nets[0]
            .nodes
            .iter()
            .find(|((x, _, _), _)| *x == 1)
            .expect("chain tile used");
        // Chain input position = 4 + luts_per_clb = 8.
        assert_eq!(src_node.1, 8);
    }

    /// The search before the reader table, kept as the oracle of
    /// [`Router::search`]: every relaxation works out its tile and track
    /// and bounds-checks four neighbours, every sink allocates its own
    /// buffers, and the tree is a map. Returns the routed nodes sorted.
    fn oracle_search(
        r: &Router,
        req: &RouteRequest,
        occupancy: &[u32],
        iteration: usize,
    ) -> (Option<RoutedNet>, u64) {
        let present_penalty = 1.0 + iteration as f64 * 2.0;
        let mut relaxations = 0u64;
        let mut tree: HashMap<(usize, usize, usize), usize> = HashMap::new();
        let attachments = r.source_attachments(req.source);
        for sink in &req.sinks {
            let mut dist: Vec<f64> = vec![f64::INFINITY; r.history.len()];
            let mut from: Vec<i64> = vec![-2; dist.len()]; // -2 unset, -1 source
            let mut sel: Vec<usize> = vec![usize::MAX; dist.len()];
            let mut queue: VecDeque<usize> = VecDeque::new();
            let mut tree_seeds: Vec<((usize, usize, usize), usize)> =
                tree.iter().map(|(&n, &s)| (n, s)).collect();
            tree_seeds.sort_unstable();
            for ((x, y, t), s) in tree_seeds {
                let i = r.node_index(x, y, t);
                dist[i] = 0.0;
                from[i] = -1;
                sel[i] = s;
                queue.push_back(i);
            }
            for &((x, y, t), s) in &attachments {
                let i = r.node_index(x, y, t);
                let cost = node_cost(occupancy[i], r.history[i], present_penalty);
                if cost < dist[i] {
                    dist[i] = cost;
                    from[i] = -1;
                    sel[i] = s;
                    queue.push_back(i);
                }
            }
            while let Some(u) = queue.pop_front() {
                relaxations += 1;
                let du = dist[u];
                let t = u % r.tracks;
                let tile = u / r.tracks;
                let (x, y) = (tile % r.width, tile / r.width);
                let w = r.tracks;
                let neigh: [(i64, i64, usize, usize); 4] = [
                    (x as i64 + 1, y as i64, 0, t),
                    (x as i64 - 1, y as i64, 1, t),
                    (x as i64, y as i64 + 1, 2, (t + 1) % w),
                    (x as i64, y as i64 - 1, 3, (t + 1) % w),
                ];
                for (nx, ny, pos, nt) in neigh {
                    if nx < 0
                        || ny < 0
                        || nx as usize >= r.width
                        || ny as usize >= r.fabric.height()
                    {
                        continue;
                    }
                    let v = r.node_index(nx as usize, ny as usize, nt);
                    let step = node_cost(occupancy[v], r.history[v], present_penalty);
                    if du + step < dist[v] {
                        dist[v] = du + step;
                        from[v] = u as i64;
                        sel[v] = pos;
                        queue.push_back(v);
                    }
                }
            }
            let target = match *sink {
                SinkKind::AnyTrackAt { x, y } => (0..r.tracks)
                    .map(|t| r.node_index(x, y, t))
                    .filter(|&i| dist[i].is_finite())
                    .min_by(|&a, &b| dist[a].partial_cmp(&dist[b]).expect("finite")),
                SinkKind::OutputPad { pad } => match r.fabric.io_output_source(pad) {
                    SignalRef::Track { x, y, t } => {
                        let i = r.node_index(x, y, t);
                        dist[i].is_finite().then_some(i)
                    }
                    _ => None,
                },
            };
            let Some(target) = target else {
                return (None, relaxations);
            };
            let mut cur = target as i64;
            while cur >= 0 {
                let i = cur as usize;
                let t = i % r.tracks;
                let tile = i / r.tracks;
                let (x, y) = (tile % r.width, tile / r.width);
                if tree.contains_key(&(x, y, t)) {
                    break;
                }
                tree.insert((x, y, t), sel[i]);
                cur = from[i];
            }
        }
        let mut nodes: Vec<_> = tree.into_iter().collect();
        nodes.sort_unstable();
        (Some(RoutedNet { nodes }), relaxations)
    }

    /// A random request on `f`: a slot, chain-block or pad source, and one
    /// to four any-track or output-pad sinks.
    fn random_request(f: &Fabric, rng: &mut Rng) -> RouteRequest {
        let (w, h) = (f.width(), f.height());
        let (x, y) = (rng.gen_range(0..w), rng.gen_range(0..h));
        let source = match rng.gen_range(0..3) {
            0 => SourceKind::Slot {
                x,
                y,
                slot: rng.gen_range(0..f.config().luts_per_clb),
            },
            1 if f.config().mux_chains => SourceKind::ChainBlock { x, y },
            _ => SourceKind::Pad(rng.gen_range(0..f.io_input_count())),
        };
        let sinks = (0..rng.gen_range(1..5))
            .map(|_| {
                if rng.gen_bool(0.7) {
                    SinkKind::AnyTrackAt {
                        x: rng.gen_range(0..w),
                        y: rng.gen_range(0..h),
                    }
                } else {
                    SinkKind::OutputPad {
                        pad: rng.gen_range(0..f.io_output_count()),
                    }
                }
            })
            .collect();
        RouteRequest { source, sinks }
    }

    #[test]
    fn search_matches_oracle() {
        forall(
            "search == oracle",
            0x5EA2_C401,
            160,
            |rng| (rng.gen_range(1..7), rng.gen_range(1..7), rng.next_u64()),
            |&(w, h, seed)| {
                let (w, h) = (w.max(1), h.max(1));
                let mut rng = Rng::seed_from_u64(seed);
                let mut config = match rng.gen_range(0..3) {
                    0 => FabricConfig::openfpga_style(),
                    1 => FabricConfig::fabulous_style(false),
                    _ => FabricConfig::fabulous_style(true),
                };
                if rng.gen_bool(0.5) {
                    config.channel_width = [2, 3, 4, 5, 8][rng.gen_range(0..5)];
                }
                let f = Fabric::generate(config, w, h);
                let mut router = Router::new(&f);
                // Integer-valued costs tie often, so the tie-breaking order
                // of the search is what decides most routes here.
                let busy = rng.gen_bool(0.7);
                for hist in &mut router.history {
                    *hist = if busy {
                        rng.gen_range(0..4) as f64
                    } else {
                        0.0
                    };
                }
                let occupancy: Vec<u32> = (0..router.history.len())
                    .map(|_| if busy { rng.gen_range(0..3) as u32 } else { 0 })
                    .collect();
                // One scratch for all requests, as in a routing run.
                let mut scratch = Scratch::new(router.history.len());
                for _ in 0..rng.gen_range(1..6) {
                    let req = random_request(&f, &mut rng);
                    let iteration = rng.gen_range(0..12);
                    let (routed, relaxations) =
                        router.search(&req, &occupancy, iteration, &mut scratch);
                    let got = (
                        routed.map(|mut routed| {
                            routed.nodes.sort_unstable();
                            routed
                        }),
                        relaxations,
                    );
                    let want = oracle_search(&router, &req, &occupancy, iteration);
                    if got != want {
                        return Err(format!(
                            "{req:?} at iteration {iteration}: search {got:?}, oracle {want:?}"
                        ));
                    }
                }
                Ok(())
            },
        );
    }
}
