//! LUT-resource estimation — the `LuTR` attribute of Table II.
//!
//! The paper footnotes that, instead of invoking a full LUT synthesis per
//! candidate node, SheLL consults an *offline estimated database* of the
//! LUT resources each gate/module type needs. This module is that database:
//! a per-[`CellKind`] fractional LUT cost. Costs are in units of k-LUTs and
//! deliberately fractional — several small gates pack into one LUT, so
//! charging a whole LUT per gate would bias selection away from logic-dense
//! regions.

use shell_netlist::CellKind;

/// Fractional LUT cost of a single cell kind, assuming k-input LUTs.
///
/// The numbers model how much of one k-LUT's capacity the gate consumes
/// after packing: a 2-input gate is roughly `1/(k-1)` of a LUT (a k-LUT
/// absorbs a chain of `k-1` two-input gates), a MUX2 slightly more because
/// of its select input, and sequential cells cost no LUT at all (they map to
/// the CLB's FF).
pub fn estimate_luts_for_kind(kind: CellKind, fanin: usize, k: usize) -> f64 {
    debug_assert!(k >= 2);
    let per_two_input = 1.0 / (k as f64 - 1.0);
    match kind {
        CellKind::And | CellKind::Or | CellKind::Nand | CellKind::Nor => {
            // A fanin-n gate decomposes to n-1 two-input gates.
            (fanin.saturating_sub(1)).max(1) as f64 * per_two_input
        }
        CellKind::Xor | CellKind::Xnor => {
            // XORs pack worse: each 2-input XOR effectively fills half the
            // packing chain.
            (fanin.saturating_sub(1)).max(1) as f64 * per_two_input * 1.5
        }
        CellKind::Not | CellKind::Buf => per_two_input * 0.5,
        CellKind::Mux2 => per_two_input * 1.5, // 3 live inputs
        CellKind::Mux4 => per_two_input * 3.0,
        CellKind::Lut(mask) => {
            // An existing LUT of arity a consumes a/k of a k-LUT, min 1 when
            // a == k.
            (mask.arity() as f64 / k as f64).max(per_two_input)
        }
        CellKind::Dff | CellKind::Latch | CellKind::Const(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_netlist::LutMask;

    #[test]
    fn sequential_and_const_free() {
        assert_eq!(estimate_luts_for_kind(CellKind::Dff, 1, 4), 0.0);
        assert_eq!(estimate_luts_for_kind(CellKind::Latch, 2, 4), 0.0);
        assert_eq!(estimate_luts_for_kind(CellKind::Const(true), 0, 4), 0.0);
    }

    #[test]
    fn wider_gates_cost_more() {
        let c2 = estimate_luts_for_kind(CellKind::And, 2, 4);
        let c6 = estimate_luts_for_kind(CellKind::And, 6, 4);
        assert!(c6 > c2);
        // 6-input AND = 5 two-input gates = 5/3 LUT4.
        assert!((c6 - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn xor_costs_more_than_and() {
        assert!(
            estimate_luts_for_kind(CellKind::Xor, 2, 4)
                > estimate_luts_for_kind(CellKind::And, 2, 4)
        );
    }

    #[test]
    fn wider_luts_reduce_cost() {
        let k4 = estimate_luts_for_kind(CellKind::And, 2, 4);
        let k6 = estimate_luts_for_kind(CellKind::And, 2, 6);
        assert!(k6 < k4);
    }

    #[test]
    fn existing_lut_cost() {
        let l4 = CellKind::Lut(LutMask::new(0xffff, 4));
        assert!((estimate_luts_for_kind(l4, 4, 4) - 1.0).abs() < 1e-12);
        let l2 = CellKind::Lut(LutMask::new(0b0110, 2));
        assert!(estimate_luts_for_kind(l2, 2, 4) < 1.0);
    }
}
