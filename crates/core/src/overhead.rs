//! Normalized area/power/delay overhead evaluation — the metric of
//! Tables IV–VII.
//!
//! The implementation cost of a redacted design is the host logic plus the
//! **whole fabric hardware** (every switch mux, connection mux, LUT read
//! structure and its configuration storage ships in silicon, used or not).
//! The locked netlist emitted by [`shell_fabric::to_locked_netlist`] — or
//! its shrunk version — already contains all fabric cells except the
//! configuration storage, which is priced from the key-bit count and the
//! architecture's storage style.
//!
//! Delay is measured on the same implementation netlist after cyclic
//! reduction (the raw mesh can be structurally cyclic): a topological
//! worst path through real mux trees, the honest eFPGA delay model.

use crate::pipeline::RedactionOutcome;
use shell_attacks::cyclic_reduction;
use shell_fabric::{ConfigStorage, FabricStyle, TechLibrary};
use shell_netlist::{CellKind, Netlist};

/// Normalized overhead triple (locked / original).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overhead {
    /// Area ratio.
    pub area: f64,
    /// Power ratio.
    pub power: f64,
    /// Delay ratio.
    pub delay: f64,
}

impl std::fmt::Display for Overhead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "A {:.2} / P {:.2} / D {:.2}",
            self.area, self.power, self.delay
        )
    }
}

/// Prices `outcome` against `original` with the style-appropriate library
/// (custom mux cells for FABulous fabrics).
pub fn evaluate_overhead(original: &Netlist, outcome: &RedactionOutcome) -> Overhead {
    let lib = match outcome.fabric.config().style {
        FabricStyle::OpenFpga => TechLibrary::sky130(),
        FabricStyle::Fabulous => TechLibrary::sky130_custom_cells(),
    };
    let base_lib = TechLibrary::sky130();
    let base = base_lib.evaluate(original);

    // The locked netlist may be cyclic (un-shrunk baselines): reduce first.
    let impl_netlist = if outcome.locked.topo_order().is_ok() {
        outcome.locked.clone()
    } else {
        cyclic_reduction(&outcome.locked).netlist
    };
    let mut locked_eval = lib.evaluate(&impl_netlist);

    // Configuration storage: one element per surviving key bit.
    let storage_cost = match outcome.fabric.config().config_storage {
        ConfigStorage::Dff => lib.cost(CellKind::Dff, 1),
        ConfigStorage::Latch => lib.cost(CellKind::Latch, 2),
    };
    let bits = outcome.key.len() as f64;
    locked_eval.area += bits * storage_cost.area;
    locked_eval.power += bits * storage_cost.leakage / 1000.0;

    let norm = locked_eval.normalized_to(&base);
    Overhead {
        area: norm.area,
        power: norm.power,
        delay: norm.delay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{redact_baseline, BaselineCase};
    use crate::pipeline::ShellOptions;
    use shell_circuits::{generate, Benchmark, Scale};

    #[test]
    fn overheads_exceed_unity() {
        let n = generate(Benchmark::Dla, Scale::small());
        let cells = BaselineCase::Shell.target_cells(Benchmark::Dla, &n);
        let outcome = redact_baseline(&n, &cells, BaselineCase::Shell, &ShellOptions::default())
            .expect("maps");
        let oh = evaluate_overhead(&n, &outcome);
        assert!(oh.area > 1.0, "area {}", oh.area);
        assert!(oh.power > 1.0, "power {}", oh.power);
        assert!(oh.delay >= 1.0, "delay {}", oh.delay);
        assert!(oh.area < 100.0, "sanity upper bound: {}", oh.area);
    }

    #[test]
    fn shell_beats_openfpga_baseline_on_same_target() {
        // Same redaction target, Case 1 vs Case 4: SheLL's chains + shrink
        // must cost less — the core Table V claim.
        let n = generate(Benchmark::Dla, Scale::small());
        let cells = BaselineCase::Shell.target_cells(Benchmark::Dla, &n);
        let opts = ShellOptions::default();
        let shell = redact_baseline(&n, &cells, BaselineCase::Shell, &opts).expect("shell maps");
        let open = redact_baseline(&n, &cells, BaselineCase::NoStrategyOpenFpga, &opts)
            .expect("case1 maps");
        let oh_shell = evaluate_overhead(&n, &shell);
        let oh_open = evaluate_overhead(&n, &open);
        assert!(
            oh_shell.area < oh_open.area,
            "SheLL area {} !< OpenFPGA area {}",
            oh_shell.area,
            oh_open.area
        );
    }

    #[test]
    fn display_formats() {
        let oh = Overhead {
            area: 1.39,
            power: 1.45,
            delay: 1.47,
        };
        assert_eq!(oh.to_string(), "A 1.39 / P 1.45 / D 1.47");
    }
}
