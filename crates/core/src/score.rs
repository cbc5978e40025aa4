//! The connectivity score function — Eq. 1 over the Table II attributes.
//!
//! `score = α·iDgC + β·oDgC + γ·ClsC + λ·BtwC + ξ·EigC + σ·LuTR`
//!
//! The SheLL objectives (Table II) want high in/out degree (routing-rich
//! nodes), *low* closeness/betweenness to observable/controllable points
//! (hard to probe), high eigenvector centrality (generic, well-connected
//! neighborhoods) and low estimated LUT cost (fits the fabric). "Low"
//! objectives enter with negative coefficients.

use shell_graph::{
    betweenness_centrality_between, closeness_to_targets, degree_centrality, eigenvector_centrality,
};
use shell_netlist::graph::to_graph;
use shell_netlist::{CellId, Netlist};
use shell_synth::estimate_luts_for_kind;

/// LUT arity of the LuTR estimate: cells are priced in 4-LUTs.
pub(crate) const LUTR_K: usize = 4;

/// Coefficient vector of Eq. 1.
///
/// The Table VI sweep uses qualitative high/low settings; [`Coefficients`]
/// carries the concrete weights, with presets `c1`–`c5` matching the
/// table's columns ([`Coefficients::c5_shell`] is the SheLL choice:
/// `{h, h, l, l, h, l}`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coefficients {
    /// α — inlet degree weight (`iDgC`).
    pub alpha: f64,
    /// β — outlet degree weight (`oDgC`).
    pub beta: f64,
    /// γ — closeness weight (`ClsC`).
    pub gamma: f64,
    /// λ — betweenness weight (`BtwC`).
    pub lambda: f64,
    /// ξ — eigenvector weight (`EigC`).
    pub xi: f64,
    /// σ — LUT-resource weight (`LuTR`).
    pub sigma: f64,
}

const HI: f64 = 1.0;
const LO: f64 = -1.0;

impl Coefficients {
    /// Builds a coefficient set from qualitative high/low flags in the
    /// Table VI order `{α, β, γ, λ, ξ, σ}` (`true` = high).
    pub fn from_flags(flags: [bool; 6]) -> Self {
        let w = |f: bool| if f { HI } else { LO };
        Self {
            alpha: w(flags[0]),
            beta: w(flags[1]),
            gamma: w(flags[2]),
            lambda: w(flags[3]),
            xi: w(flags[4]),
            sigma: w(flags[5]),
        }
    }

    /// Table VI column c1: `{l, l, l, l, h, l}` — low degree.
    pub fn c1_low_degree() -> Self {
        Self::from_flags([false, false, false, false, true, false])
    }

    /// Table VI column c2: `{h, h, h, h, h, l}` — high closeness/betweenness.
    pub fn c2_high_closeness() -> Self {
        Self::from_flags([true, true, true, true, true, false])
    }

    /// Table VI column c3: `{h, h, l, l, l, l}` — low eigen.
    pub fn c3_low_eigen() -> Self {
        Self::from_flags([true, true, false, false, false, false])
    }

    /// Table VI column c4: `{h, h, l, l, h, h}` — high LUT.
    pub fn c4_high_lut() -> Self {
        Self::from_flags([true, true, false, false, true, true])
    }

    /// Table VI column c5: `{h, h, l, l, h, l}` — the SheLL objectives of
    /// Table II.
    pub fn c5_shell() -> Self {
        Self::from_flags([true, true, false, false, true, false])
    }

    /// All Table VI presets in column order, with labels.
    pub fn table_vi_presets() -> [(&'static str, Self); 5] {
        [
            ("c1", Self::c1_low_degree()),
            ("c2", Self::c2_high_closeness()),
            ("c3", Self::c3_low_eigen()),
            ("c4", Self::c4_high_lut()),
            ("c5", Self::c5_shell()),
        ]
    }
}

impl Default for Coefficients {
    fn default() -> Self {
        Self::c5_shell()
    }
}

/// Score of one cell with its attribute breakdown (Table II columns).
#[derive(Debug, Clone, PartialEq)]
pub struct CellScore {
    /// The scored cell.
    pub cell: CellId,
    /// Normalized inlet degree.
    pub in_degree: f64,
    /// Normalized outlet degree.
    pub out_degree: f64,
    /// Closeness to observable/controllable nodes.
    pub closeness: f64,
    /// Betweenness restricted to PI→PO shortest paths.
    pub betweenness: f64,
    /// Eigenvector centrality.
    pub eigenvector: f64,
    /// Estimated LUT cost.
    pub lut_cost: f64,
    /// The Eq. 1 total under the supplied coefficients.
    pub score: f64,
}

/// Computes Eq. 1 for every cell of `netlist` under `coefficients`.
///
/// Attribute sources:
/// * degrees / eigenvector — the connectivity graph,
/// * closeness — multi-source distance to the PI/PO node set,
/// * betweenness — Brandes restricted to PI→PO pairs,
/// * LuTR — the offline estimate database of
///   [`shell_synth::estimate_luts_for_kind`], in 4-LUTs.
///
/// Attributes are min-max normalized over the netlist before weighting, so
/// coefficients compare like-with-like.
pub fn score_cells(netlist: &Netlist, coefficients: &Coefficients) -> Vec<CellScore> {
    let cg = to_graph(netlist);
    let g = &cg.graph;
    let dc = degree_centrality(g);
    let cls = closeness_to_targets(g, &cg.io_nodes());
    let btw = betweenness_centrality_between(g, &cg.input_nodes, &cg.output_nodes);
    let eig = eigenvector_centrality(g, 100, 1e-9);

    let mut raw: Vec<CellScore> = netlist
        .cells()
        .map(|(cid, c)| {
            let node = cg.cell_nodes[cid.index()];
            CellScore {
                cell: cid,
                in_degree: dc.in_degree[node.index()],
                out_degree: dc.out_degree[node.index()],
                closeness: cls[node.index()],
                betweenness: btw[node.index()],
                eigenvector: eig[node.index()],
                lut_cost: estimate_luts_for_kind(c.kind, c.inputs.len(), LUTR_K),
                score: 0.0,
            }
        })
        .collect();

    // Min-max normalize each attribute column.
    let columns: [fn(&CellScore) -> f64; 6] = [
        |s| s.in_degree,
        |s| s.out_degree,
        |s| s.closeness,
        |s| s.betweenness,
        |s| s.eigenvector,
        |s| s.lut_cost,
    ];
    let mut normed = vec![[0.0f64; 6]; raw.len()];
    for (col, getter) in columns.iter().enumerate() {
        let lo = raw.iter().map(getter).fold(f64::INFINITY, f64::min);
        let hi = raw.iter().map(getter).fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).max(1e-12);
        for (i, s) in raw.iter().enumerate() {
            normed[i][col] = (getter(s) - lo) / span;
        }
    }
    let c = coefficients;
    let weights = [c.alpha, c.beta, c.gamma, c.lambda, c.xi, c.sigma];
    for (i, s) in raw.iter_mut().enumerate() {
        s.score = weights.iter().zip(&normed[i]).map(|(w, v)| w * v).sum();
    }
    raw
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_circuits::axi_xbar;
    use shell_netlist::{CellKind, Netlist};

    #[test]
    fn presets_match_table_vi_flags() {
        let c5 = Coefficients::c5_shell();
        assert!(c5.alpha > 0.0 && c5.beta > 0.0 && c5.xi > 0.0);
        assert!(c5.gamma < 0.0 && c5.lambda < 0.0 && c5.sigma < 0.0);
        let c2 = Coefficients::c2_high_closeness();
        assert!(c2.gamma > 0.0 && c2.lambda > 0.0);
        assert_eq!(Coefficients::table_vi_presets().len(), 5);
        assert_eq!(Coefficients::default(), Coefficients::c5_shell());
    }

    #[test]
    fn scores_cover_all_cells() {
        let n = axi_xbar(4, 2);
        let scores = score_cells(&n, &Coefficients::c5_shell());
        assert_eq!(scores.len(), n.cell_count());
        for s in &scores {
            assert!(s.score.is_finite());
            assert!(s.in_degree >= 0.0 && s.in_degree <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn hub_scores_high_under_shell_coefficients() {
        // A star: one AND reading many inputs and feeding many NOTs should
        // out-score leaf inverters under c5 (degree-positive).
        let mut n = Netlist::new("star");
        let ins: Vec<_> = (0..6).map(|i| n.add_input(format!("i{i}"))).collect();
        let hub = n.add_cell("hub", CellKind::And, ins);
        for i in 0..6 {
            let o = n.add_cell(format!("leaf{i}"), CellKind::Not, vec![hub]);
            n.add_output(format!("o{i}"), o);
        }
        let scores = score_cells(&n, &Coefficients::c5_shell());
        let hub_cell = n.find_cell("hub").unwrap();
        let hub_score = scores.iter().find(|s| s.cell == hub_cell).unwrap().score;
        let max_leaf = scores
            .iter()
            .filter(|s| s.cell != hub_cell)
            .map(|s| s.score)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            hub_score > max_leaf,
            "hub {hub_score} vs best leaf {max_leaf}"
        );
    }

    #[test]
    fn coefficient_sign_flips_ranking() {
        let n = axi_xbar(4, 2);
        let hi = score_cells(&n, &Coefficients::from_flags([true; 6]));
        let lo = score_cells(&n, &Coefficients::from_flags([false; 6]));
        // Total score flips sign with all coefficients flipped.
        let sum_hi: f64 = hi.iter().map(|s| s.score).sum();
        let sum_lo: f64 = lo.iter().map(|s| s.score).sum();
        assert!((sum_hi + sum_lo).abs() < 1e-6, "{sum_hi} vs {sum_lo}");
    }

    #[test]
    fn closeness_penalty_prefers_interior_cells() {
        // Two structurally similar muxes: one buried mid-chain, one right at
        // a primary output. Under c5 (γ, λ negative) the interior mux must
        // score at least as well — SheLL prefers less observable nodes.
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let s = n.add_input("s");
        // Buried select/data: the interior mux touches no port directly.
        let mut sd = s;
        for i in 0..3 {
            sd = n.add_cell(format!("sd{i}"), CellKind::Not, vec![sd]);
        }
        let mut cur = a;
        for i in 0..4 {
            cur = n.add_cell(format!("pre{i}"), CellKind::Not, vec![cur]);
        }
        let alt = n.add_cell("alt", CellKind::Not, vec![cur]);
        let mid = n.add_cell("mid_mux", CellKind::Mux2, vec![sd, cur, alt]);
        let mut cur = mid;
        for i in 0..4 {
            cur = n.add_cell(format!("post{i}"), CellKind::Not, vec![cur]);
        }
        let out_mux = n.add_cell("out_mux", CellKind::Mux2, vec![s, cur, a]);
        n.add_output("f", out_mux);
        let scores = score_cells(&n, &Coefficients::c5_shell());
        let mid_cell = n.find_cell("mid_mux").unwrap();
        let out_cell = n.find_cell("out_mux").unwrap();
        let mid_s = scores.iter().find(|x| x.cell == mid_cell).unwrap();
        let out_s = scores.iter().find(|x| x.cell == out_cell).unwrap();
        assert!(
            mid_s.closeness < out_s.closeness,
            "interior mux must be farther from IO"
        );
        assert!(
            mid_s.score >= out_s.score,
            "interior mux should not score worse: {} vs {}",
            mid_s.score,
            out_s.score
        );
    }
}
