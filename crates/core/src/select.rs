//! Step 3 — sub-circuit selection under the Table II objectives.
//!
//! Selection rules (§IV):
//! (i) prefer high-in/out-degree nodes for routing-based locking,
//! (ii) the selection must cover ≥ 50 % of design nodes through indirect
//!      connection,
//! (iii) the estimated LUT demand must fit the fabric budget,
//! (iv) a small generic LGC neighborhood accompanies every routing seed —
//!      at a configurable node distance (Table VII's depth: SheLL insists
//!      on depth 0, i.e. directly connected LGC).

use crate::decouple::expand_selection;
use crate::score::{score_cells, CellScore, Coefficients, LUTR_K};
use shell_graph::coverage_fraction;
use shell_netlist::graph::to_graph;
use shell_netlist::{CellId, Netlist};
use shell_synth::estimate_luts_for_kind;

/// Node-coverage fraction at which ROUTE seeding stops (rule ii).
const MIN_COVERAGE: f64 = 0.5;

/// Selection knobs.
#[derive(Debug, Clone)]
pub struct SelectionOptions {
    /// Eq. 1 coefficients.
    pub coefficients: Coefficients,
    /// LUT budget for the LGC share (rule iii).
    pub max_lgc_luts: f64,
    /// Node distance between ROUTE and the accompanying LGC (Table VII's
    /// depth; SheLL = 0).
    pub lgc_depth: usize,
    /// Upper bound on selected cells (fabric sanity).
    pub max_cells: usize,
}

impl Default for SelectionOptions {
    fn default() -> Self {
        Self {
            coefficients: Coefficients::c5_shell(),
            max_lgc_luts: 16.0,
            lgc_depth: 0,
            max_cells: 96,
        }
    }
}

/// Outcome of selection.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// The selected cells (ROUTE ∪ LGC), sorted.
    pub cells: Vec<CellId>,
    /// The mux cells picked as ROUTE.
    pub route_cells: Vec<CellId>,
    /// The accompanying LGC cells.
    pub lgc_cells: Vec<CellId>,
    /// Achieved coverage fraction (rule ii).
    pub coverage: f64,
    /// Estimated LUTs of the LGC share (rule iii).
    pub lgc_luts: f64,
}

/// Selects the redaction sub-circuit of `netlist` per the SheLL rules.
///
/// ROUTE seeds are mux cells ranked by the Eq. 1 score; connected mux
/// neighbors join greedily (chains must move together). LGC then grows from
/// the routing at `lgc_depth` (0 = directly wired cells), ranked by score,
/// until the LUT budget or the cell cap is hit; coverage is accumulated
/// until it reaches 50 % (rule ii) or the candidates run out.
///
/// # Panics
///
/// Panics when the netlist has no mux cells at all (nothing to route-lock —
/// use the LUT-insertion taxonomy locks for such designs).
pub fn select_subcircuit(netlist: &Netlist, options: &SelectionOptions) -> SelectionResult {
    let scores = score_cells(netlist, &options.coefficients);
    let score_of = |cid: CellId| -> f64 { scores[cid.index()].score };
    debug_assert!(scores.iter().enumerate().all(|(i, s)| s.cell.index() == i));

    // --- ROUTE seeds: mux cells by descending score -------------------
    let mut mux_cells: Vec<&CellScore> = scores
        .iter()
        .filter(|s| netlist.cell(s.cell).kind.is_mux())
        .collect();
    assert!(
        !mux_cells.is_empty(),
        "design has no mux cells; ROUTE-oriented selection does not apply"
    );
    mux_cells.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite"));

    let cg = to_graph(netlist);
    let mut route: Vec<CellId> = Vec::new();
    let mut selected = std::collections::HashSet::new();
    for seed in &mux_cells {
        if route.len() >= options.max_cells / 2 {
            break;
        }
        // Pull in the seed's whole connected mux cluster (chains must move
        // together or the fabric mapping would split a cascade).
        let cluster = mux_cluster(netlist, seed.cell);
        let mut added = false;
        for c in cluster {
            if route.len() < options.max_cells / 2 && selected.insert(c) {
                route.push(c);
                added = true;
            }
        }
        if added {
            let nodes: Vec<_> = route.iter().map(|c| cg.cell_nodes[c.index()]).collect();
            if coverage_fraction(&cg.graph, &nodes) >= MIN_COVERAGE {
                break;
            }
        }
    }

    // --- LGC neighborhood at the configured depth ----------------------
    let neighborhood = expand_selection(netlist, &route, options.lgc_depth + 1);
    let mut lgc_candidates: Vec<CellId> = neighborhood
        .into_iter()
        .filter(|c| !selected.contains(c) && !netlist.cell(*c).kind.is_mux())
        .collect();
    lgc_candidates.sort_by(|a, b| score_of(*b).partial_cmp(&score_of(*a)).expect("finite"));
    let mut lgc: Vec<CellId> = Vec::new();
    let mut lgc_luts = 0.0;
    for cand in lgc_candidates {
        if selected.len() >= options.max_cells {
            break;
        }
        let c = netlist.cell(cand);
        let cost = estimate_luts_for_kind(c.kind, c.inputs.len(), LUTR_K);
        if lgc_luts + cost > options.max_lgc_luts {
            continue;
        }
        lgc_luts += cost;
        selected.insert(cand);
        lgc.push(cand);
    }

    let mut cells: Vec<CellId> = selected.into_iter().collect();
    cells.sort_unstable();
    // Final coverage including LGC.
    let nodes: Vec<_> = cells.iter().map(|c| cg.cell_nodes[c.index()]).collect();
    let coverage = coverage_fraction(&cg.graph, &nodes);

    SelectionResult {
        cells,
        route_cells: route,
        lgc_cells: lgc,
        coverage,
        lgc_luts,
    }
}

/// The connected cluster of mux cells containing `seed` (edges: mux feeding
/// mux directly).
fn mux_cluster(netlist: &Netlist, seed: CellId) -> Vec<CellId> {
    let fanout = netlist.fanout_table();
    let mut cluster = vec![seed];
    let mut visited = std::collections::HashSet::from([seed]);
    let mut stack = vec![seed];
    while let Some(cid) = stack.pop() {
        let c = netlist.cell(cid);
        // Upstream muxes.
        for &inp in &c.inputs {
            if let Some(drv) = netlist.net(inp).driver {
                if netlist.cell(drv).kind.is_mux() && visited.insert(drv) {
                    cluster.push(drv);
                    stack.push(drv);
                }
            }
        }
        // Downstream muxes.
        for &(reader, _) in &fanout[c.output.index()] {
            if netlist.cell(reader).kind.is_mux() && visited.insert(reader) {
                cluster.push(reader);
                stack.push(reader);
            }
        }
    }
    cluster.sort_unstable();
    cluster
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_circuits::{axi_xbar, generate, Benchmark, Scale};

    #[test]
    fn selects_route_first_on_xbar() {
        let n = axi_xbar(4, 4);
        let r = select_subcircuit(&n, &SelectionOptions::default());
        assert!(!r.route_cells.is_empty());
        assert!(r.route_cells.len() >= r.lgc_cells.len());
        for &c in &r.route_cells {
            assert!(n.cell(c).kind.is_mux());
        }
        for &c in &r.lgc_cells {
            assert!(!n.cell(c).kind.is_mux());
        }
    }

    #[test]
    fn cluster_selection_keeps_chains_whole() {
        let n = axi_xbar(4, 2);
        let r = select_subcircuit(&n, &SelectionOptions::default());
        // Every mux of a selected chain column must be in: the xbar has
        // 3 muxes per bit; if any bit-column mux is selected, all three are.
        let sel: std::collections::HashSet<_> = r.route_cells.iter().copied().collect();
        for (cid, c) in n.cells() {
            if !c.kind.is_mux() || !sel.contains(&cid) {
                continue;
            }
            for &inp in &c.inputs {
                if let Some(drv) = n.net(inp).driver {
                    if n.cell(drv).kind.is_mux() {
                        assert!(sel.contains(&drv), "chain split at {}", c.name);
                    }
                }
            }
        }
    }

    #[test]
    fn coverage_reported_and_meaningful() {
        let n = axi_xbar(8, 4);
        let r = select_subcircuit(&n, &SelectionOptions::default());
        assert!(r.coverage > 0.3, "coverage {}", r.coverage);
        assert!(r.coverage <= 1.0);
    }

    #[test]
    fn lut_budget_respected() {
        let n = generate(Benchmark::Fir, Scale::small());
        let opts = SelectionOptions {
            max_lgc_luts: 2.0,
            ..Default::default()
        };
        let r = select_subcircuit(&n, &opts);
        assert!(r.lgc_luts <= 2.0 + 1e-9, "budget exceeded: {}", r.lgc_luts);
    }

    #[test]
    fn depth_increases_lgc_pool() {
        let n = generate(Benchmark::Dla, Scale::small());
        let d0 = select_subcircuit(
            &n,
            &SelectionOptions {
                lgc_depth: 0,
                max_lgc_luts: 1e9,
                max_cells: usize::MAX / 2,
                ..Default::default()
            },
        );
        let d2 = select_subcircuit(
            &n,
            &SelectionOptions {
                lgc_depth: 2,
                max_lgc_luts: 1e9,
                max_cells: usize::MAX / 2,
                ..Default::default()
            },
        );
        assert!(d2.lgc_cells.len() >= d0.lgc_cells.len());
    }

    #[test]
    fn works_on_all_benchmarks() {
        for bench in Benchmark::all() {
            let n = generate(bench, Scale::small());
            let r = select_subcircuit(&n, &SelectionOptions::default());
            assert!(!r.cells.is_empty(), "{}: nothing selected", bench.name());
            assert!(!r.route_cells.is_empty(), "{}: no ROUTE", bench.name());
        }
    }

    #[test]
    #[should_panic(expected = "no mux cells")]
    fn pure_logic_design_panics() {
        let mut n = shell_netlist::Netlist::new("pure");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let f = n.add_cell("f", shell_netlist::CellKind::And, vec![a, b]);
        n.add_output("f", f);
        select_subcircuit(&n, &SelectionOptions::default());
    }
}
