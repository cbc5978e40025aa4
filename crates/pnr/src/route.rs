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
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Why routing stopped without a legal solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// `net` (the request's id) could not be routed legally within the
    /// iteration limit — congestion, or an unreachable sink.
    Unroutable {
        /// Id of the offending request.
        net: usize,
    },
    /// The shared budget ran out mid-negotiation. Unlike placement, a
    /// half-negotiated routing is illegal (nets still share track nodes),
    /// so there is no best-so-far to degrade to.
    Exhausted(Exhausted),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Unroutable { net } => write!(f, "net {net} is unroutable"),
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

/// One net to route: a source and its sinks.
#[derive(Debug, Clone)]
pub struct RouteRequest {
    /// Net identifier (caller-defined, reported back in results).
    pub net: usize,
    /// Signal origin.
    pub source: SourceKind,
    /// All destinations.
    pub sinks: Vec<SinkKind>,
}

/// A routed net: the track nodes it occupies, the mux selection per node,
/// and the track index satisfying each sink.
#[derive(Debug, Clone, Default)]
pub struct RoutedNet {
    /// `(x, y, t) → chosen switch-mux input index`.
    pub nodes: HashMap<(usize, usize, usize), usize>,
    /// For each sink (same order as the request), the track index `t` at the
    /// sink tile that carries the signal.
    pub sink_tracks: Vec<usize>,
}

/// Routing outcome for a batch of nets.
#[derive(Debug, Clone, Default)]
pub struct RoutingResult {
    /// Per-net routes, keyed by the request's `net` id.
    pub nets: HashMap<usize, RoutedNet>,
    /// Negotiation iterations used.
    pub iterations: usize,
    /// Total track nodes occupied.
    pub wirelength: usize,
}

/// The router. Holds the fabric topology and congestion state.
#[derive(Debug)]
pub struct Router<'f> {
    fabric: &'f Fabric,
    width: usize,
    height: usize,
    tracks: usize,
    /// Accumulated history cost per node.
    history: Vec<f64>,
}

impl<'f> Router<'f> {
    /// Creates a router for `fabric`.
    pub fn new(fabric: &'f Fabric) -> Self {
        let width = fabric.width();
        let height = fabric.height();
        let tracks = fabric.config().channel_width;
        Self {
            fabric,
            width,
            height,
            tracks,
            history: vec![0.0; width * height * tracks],
        }
    }

    #[inline]
    fn node_index(&self, x: usize, y: usize, t: usize) -> usize {
        (y * self.width + x) * self.tracks + t
    }

    /// Track nodes a source can drive directly, with the mux input index the
    /// node must select.
    fn source_attachments(&self, src: SourceKind) -> Vec<((usize, usize, usize), usize)> {
        match src {
            SourceKind::Slot { x, y, slot } => {
                // Every track of the tile can select clb output `slot` at
                // mux input position 4 + slot.
                (0..self.tracks)
                    .map(|t| ((x, y, t), 4 + slot))
                    .collect()
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
    /// Returns the id of the first net that could not be routed legally
    /// within `max_iterations`.
    pub fn route_all(
        &mut self,
        requests: &[RouteRequest],
        max_iterations: usize,
    ) -> Result<RoutingResult, usize> {
        self.route_all_budgeted(requests, max_iterations, &Budget::unlimited())
            .map_err(|e| match e {
                RouteError::Unroutable { net } => net,
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
    /// [`RouteError`] — an unroutable net or an exhausted budget.
    pub fn route_all_budgeted(
        &mut self,
        requests: &[RouteRequest],
        max_iterations: usize,
        budget: &Budget,
    ) -> Result<RoutingResult, RouteError> {
        let _span = shell_trace::span!("route.negotiate");
        let unroutable = |net: usize| RouteError::Unroutable { net };
        let n_nodes = self.width * self.height * self.tracks;
        let mut routes: HashMap<usize, RoutedNet> = HashMap::new();
        let mut occupancy: Vec<u32> = vec![0; n_nodes];
        let by_id: HashMap<usize, &RouteRequest> =
            requests.iter().map(|r| (r.net, r)).collect();

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
            shell_exec::parallel_map(requests, |req| this.route_one(req, &empty, 0))
        };
        for (req, candidate) in requests.iter().zip(candidates) {
            let candidate = candidate.ok_or(unroutable(req.net))?;
            let collides = candidate
                .nodes
                .keys()
                .any(|&(x, y, t)| occupancy[self.node_index(x, y, t)] > 0);
            let routed = if collides {
                self.route_one(req, &occupancy, 0).ok_or(unroutable(req.net))?
            } else {
                candidate
            };
            for &(x, y, t) in routed.nodes.keys() {
                occupancy[self.node_index(x, y, t)] += 1;
            }
            routes.insert(req.net, routed);
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
            for routed in routes.values() {
                for &(x, y, t) in routed.nodes.keys() {
                    occupancy[self.node_index(x, y, t)] += 1;
                }
            }
            // Offenders, in deterministic order.
            let mut offenders: Vec<usize> = routes
                .iter()
                .filter(|(_, routed)| {
                    routed
                        .nodes
                        .keys()
                        .any(|&(x, y, t)| occupancy[self.node_index(x, y, t)] > 1)
                })
                .map(|(&id, _)| id)
                .collect();
            offenders.sort_unstable();
            if offenders.is_empty() {
                let wirelength = routes.values().map(|r| r.nodes.len()).sum();
                return Ok(RoutingResult {
                    nets: routes,
                    iterations,
                    wirelength,
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
                let old = routes.remove(&id).expect("offender routed");
                for &(x, y, t) in old.nodes.keys() {
                    occupancy[self.node_index(x, y, t)] -= 1;
                }
                let req = by_id[&id];
                let routed = self.route_one(req, &occupancy, iter).ok_or(unroutable(id))?;
                for &(x, y, t) in routed.nodes.keys() {
                    occupancy[self.node_index(x, y, t)] += 1;
                }
                routes.insert(id, routed);
            }
        }
        // Final legality check after the last iteration's re-routes.
        if occupancy.iter().all(|&o| o <= 1) {
            let wirelength = routes.values().map(|r| r.nodes.len()).sum();
            return Ok(RoutingResult {
                nets: routes,
                iterations,
                wirelength,
            });
        }
        // Identify a culprit: a net occupying an over-used node.
        for (id, routed) in &routes {
            for &(x, y, t) in routed.nodes.keys() {
                if occupancy[self.node_index(x, y, t)] > 1 {
                    return Err(unroutable(*id));
                }
            }
        }
        Err(unroutable(requests.first().map(|r| r.net).unwrap_or(0)))
    }

    /// Routes one net against current occupancy. Returns `None` when some
    /// sink is unreachable even ignoring congestion.
    fn route_one(
        &self,
        req: &RouteRequest,
        occupancy: &[u32],
        iteration: usize,
    ) -> Option<RoutedNet> {
        let present_penalty = 1.0 + iteration as f64 * 2.0;
        // Relaxations are counted locally and flushed once per call: the
        // total is a pure function of the request stream, so the counter is
        // identical at any `SHELL_JOBS` even though calls run on workers.
        let mut relaxations = 0u64;
        let mut tree = RoutedNet {
            nodes: HashMap::new(),
            sink_tracks: Vec::with_capacity(req.sinks.len()),
        };
        let attachments = self.source_attachments(req.source);
        for sink in &req.sinks {
            // BFS (uniform-ish cost: use Dijkstra-lite with BinaryHeap on
            // f64-scaled integer costs).
            let mut dist: Vec<f64> = vec![f64::INFINITY; self.width * self.height * self.tracks];
            let mut from: Vec<i64> = vec![-2; dist.len()]; // -2 unset, -1 source, else predecessor node
            let mut sel: Vec<usize> = vec![usize::MAX; dist.len()];
            let mut queue: VecDeque<usize> = VecDeque::new();
            // Seed: existing tree nodes (free) + source attachments.
            // Seed in sorted node order: relaxation order breaks cost ties,
            // and hash-order seeding would make the routing tree (and thus
            // the bitstream) differ run-to-run for the same seed.
            let mut tree_seeds: Vec<((usize, usize, usize), usize)> =
                tree.nodes.iter().map(|(&n, &s)| (n, s)).collect();
            tree_seeds.sort_unstable();
            for ((x, y, t), s) in tree_seeds {
                let i = self.node_index(x, y, t);
                dist[i] = 0.0;
                from[i] = -1;
                sel[i] = s;
                queue.push_back(i);
            }
            for &((x, y, t), s) in &attachments {
                let i = self.node_index(x, y, t);
                let cost = self.node_cost(i, occupancy, present_penalty);
                if cost < dist[i] {
                    dist[i] = cost;
                    from[i] = -1;
                    sel[i] = s;
                    queue.push_back(i);
                }
            }
            // SPFA-style relaxation (costs are small positive; fine here).
            while let Some(u) = queue.pop_front() {
                relaxations += 1;
                let du = dist[u];
                let t = u % self.tracks;
                let tile = u / self.tracks;
                let (x, y) = (tile % self.width, tile / self.width);
                // Neighbors that can select this node: direction index is
                // the *neighbor's* view: neighbor east of us selects its
                // west input (0) to read us, etc. Every vertical hop
                // *increments* the track index (see
                // `Fabric::track_mux_inputs`): both the north and the south
                // neighbor read us through their track `t + 1`.
                let w = self.tracks;
                let neigh: [(i64, i64, usize, usize); 4] = [
                    (x as i64 + 1, y as i64, 0, t), // east neighbor reads west
                    (x as i64 - 1, y as i64, 1, t), // west neighbor reads east
                    (x as i64, y as i64 + 1, 2, (t + 1) % w), // north reads south
                    (x as i64, y as i64 - 1, 3, (t + 1) % w), // south reads north
                ];
                for (nx, ny, pos, nt) in neigh {
                    if nx < 0 || ny < 0 || nx as usize >= self.width || ny as usize >= self.height
                    {
                        continue;
                    }
                    let v = self.node_index(nx as usize, ny as usize, nt);
                    let step = self.node_cost(v, occupancy, present_penalty);
                    if du + step < dist[v] {
                        dist[v] = du + step;
                        from[v] = u as i64;
                        sel[v] = pos;
                        queue.push_back(v);
                    }
                }
            }
            // Pick the best node satisfying the sink.
            let target = match *sink {
                SinkKind::AnyTrackAt { x, y } => (0..self.tracks)
                    .map(|t| self.node_index(x, y, t))
                    .filter(|&i| dist[i].is_finite())
                    .min_by(|&a, &b| dist[a].partial_cmp(&dist[b]).expect("finite")),
                SinkKind::OutputPad { pad } => {
                    let sig = self.fabric.io_output_source(pad);
                    match sig {
                        SignalRef::Track { x, y, t } => {
                            let i = self.node_index(x, y, t);
                            dist[i].is_finite().then_some(i)
                        }
                        _ => None,
                    }
                }
            };
            let Some(target) = target else {
                shell_trace::counter_add("route.spfa_relaxations", relaxations);
                return None;
            };
            // Walk back, adding nodes to the tree.
            tree.sink_tracks.push(target % self.tracks);
            let mut cur = target as i64;
            while cur >= 0 {
                let i = cur as usize;
                let t = i % self.tracks;
                let tile = i / self.tracks;
                let (x, y) = (tile % self.width, tile / self.width);
                if tree.nodes.contains_key(&(x, y, t)) {
                    break; // merged into existing tree
                }
                tree.nodes.insert((x, y, t), sel[i]);
                cur = from[i];
            }
        }
        shell_trace::counter_add("route.spfa_relaxations", relaxations);
        Some(tree)
    }

    fn node_cost(&self, i: usize, occupancy: &[u32], present_penalty: f64) -> f64 {
        1.0 + occupancy[i] as f64 * present_penalty + self.history[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_fabric::FabricConfig;

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
            net: 7,
            source: SourceKind::Pad(west_pad(&f, 0, 2)),
            sinks: vec![SinkKind::OutputPad {
                pad: east_out_pad(&f, 0, 2),
            }],
        };
        let res = r.route_all(&[req], 8).expect("routable");
        let net = &res.nets[&7];
        // Path spans all three tiles on track 2.
        assert_eq!(net.nodes.len(), 3);
        for x in 0..3 {
            assert!(net.nodes.contains_key(&(x, 0, 2)), "tile {x}");
        }
        // Boundary node selects west (0); interior nodes select west (0).
        assert_eq!(net.nodes[&(0, 0, 2)], 0);
        assert_eq!(net.sink_tracks, vec![2]);
    }

    #[test]
    fn route_slot_to_clb_pin() {
        let f = fabric(2, 2);
        let mut r = Router::new(&f);
        let req = RouteRequest {
            net: 1,
            source: SourceKind::Slot { x: 0, y: 0, slot: 2 },
            sinks: vec![SinkKind::AnyTrackAt { x: 1, y: 1 }],
        };
        let res = r.route_all(&[req], 8).expect("routable");
        let net = &res.nets[&1];
        // Source tile node selects clb input 4 + 2 = 6.
        let src_node = net
            .nodes
            .iter()
            .find(|((x, y, _), _)| *x == 0 && *y == 0)
            .expect("source tile used");
        assert_eq!(*src_node.1, 6);
        // Two hops (manhattan) + source node.
        assert_eq!(net.nodes.len(), 3);
    }

    #[test]
    fn multi_sink_reuses_tree() {
        let f = fabric(3, 1);
        let mut r = Router::new(&f);
        let req = RouteRequest {
            net: 5,
            source: SourceKind::Slot { x: 0, y: 0, slot: 0 },
            sinks: vec![
                SinkKind::AnyTrackAt { x: 2, y: 0 },
                SinkKind::AnyTrackAt { x: 1, y: 0 },
            ],
        };
        let res = r.route_all(&[req], 8).expect("routable");
        let net = &res.nets[&5];
        // The second sink lies on the path of the first: 3 nodes total.
        assert_eq!(net.nodes.len(), 3);
        assert_eq!(net.sink_tracks.len(), 2);
    }

    #[test]
    fn congestion_negotiation_separates_nets() {
        // Two nets crossing the same column must end on different tracks.
        let f = fabric(3, 1);
        let mut r = Router::new(&f);
        let reqs = vec![
            RouteRequest {
                net: 0,
                source: SourceKind::Pad(west_pad(&f, 0, 0)),
                sinks: vec![SinkKind::OutputPad {
                    pad: east_out_pad(&f, 0, 0),
                }],
            },
            RouteRequest {
                net: 1,
                source: SourceKind::Slot { x: 0, y: 0, slot: 1 },
                sinks: vec![SinkKind::AnyTrackAt { x: 2, y: 0 }],
            },
        ];
        let res = r.route_all(&reqs, 16).expect("routable");
        // No shared nodes.
        let a: Vec<_> = res.nets[&0].nodes.keys().collect();
        for k in res.nets[&1].nodes.keys() {
            assert!(!a.contains(&k), "node {k:?} shared");
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
                net: 0,
                source: SourceKind::Pad(west_pad(&f, 0, 0)),
                sinks: vec![SinkKind::OutputPad {
                    pad: east_out_pad(&f, 0, 0),
                }],
            },
            RouteRequest {
                net: 1,
                source: SourceKind::Slot { x: 0, y: 0, slot: 1 },
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
                net: i,
                source: SourceKind::Pad(west_pad(&f, 0, i % 8)),
                sinks: vec![SinkKind::AnyTrackAt { x: 0, y: 0 }],
            })
            .collect();
        assert!(r.route_all(&reqs, 6).is_err());
    }

    #[test]
    fn wirelength_reported() {
        let f = fabric(4, 1);
        let mut r = Router::new(&f);
        let req = RouteRequest {
            net: 0,
            source: SourceKind::Pad(west_pad(&f, 0, 1)),
            sinks: vec![SinkKind::OutputPad {
                pad: east_out_pad(&f, 0, 1),
            }],
        };
        let res = r.route_all(&[req], 4).expect("routable");
        assert_eq!(res.wirelength, 4);
        assert!(res.iterations >= 1);
    }

    #[test]
    fn chain_block_source_position() {
        let f = fabric(2, 1);
        let mut r = Router::new(&f);
        let req = RouteRequest {
            net: 3,
            source: SourceKind::ChainBlock { x: 1, y: 0 },
            sinks: vec![SinkKind::AnyTrackAt { x: 0, y: 0 }],
        };
        let res = r.route_all(&[req], 8).expect("routable");
        let net = &res.nets[&3];
        let src_node = net
            .nodes
            .iter()
            .find(|((x, _, _), _)| *x == 1)
            .expect("chain tile used");
        // Chain input position = 4 + luts_per_clb = 8.
        assert_eq!(*src_node.1, 8);
    }
}
