//! The comparison cases of Tables IV/V.
//!
//! * **Case 1** — no-strategy redaction via OpenFPGA \[10\], \[11\]: a named
//!   LGC block is LUT-mapped onto a square OpenFPGA-style fabric; no
//!   chains, no shrinking (DFF configuration storage, cyclical routing left
//!   in place).
//! * **Case 2** — module/cluster filtering via OpenFPGA \[12\] (ALICE-like):
//!   like Case 1 but with an additional filtered block, growing the
//!   redacted region.
//! * **Case 3** — no-strategy via FABulous: Case 2's target on the
//!   FABulous-style fabric (latch configuration, MUX4 switches, custom
//!   cells) but without MUX chains or shrinking.
//! * **Case 4** — SheLL itself ([`crate::pipeline::shell_lock_cells`]).

use crate::decouple::partition_by_cells;
use crate::pipeline::{finish, map_once, RedactionOutcome, ShellOptions};
use shell_circuits::common::cells_of_block;
use shell_circuits::Benchmark;
use shell_fabric::FabricConfig;
use shell_netlist::{CellId, Netlist};
use shell_pnr::PnrError;

/// The four evaluation cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineCase {
    /// No-strategy redaction via OpenFPGA (\[10\], \[11\]).
    NoStrategyOpenFpga,
    /// Filtering-based redaction via OpenFPGA (\[12\]).
    FilteringOpenFpga,
    /// No-strategy redaction via FABulous (no chains, no shrink).
    NoStrategyFabulous,
    /// The proposed SheLL flow (ROUTE then LGC, chains, shrink).
    Shell,
}

impl BaselineCase {
    /// All four cases in Table IV column order.
    pub fn all() -> [BaselineCase; 4] {
        [
            BaselineCase::NoStrategyOpenFpga,
            BaselineCase::FilteringOpenFpga,
            BaselineCase::NoStrategyFabulous,
            BaselineCase::Shell,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            BaselineCase::NoStrategyOpenFpga => "Case 1: No-Strategy via OpenFPGA",
            BaselineCase::FilteringOpenFpga => "Case 2: Filtering via OpenFPGA",
            BaselineCase::NoStrategyFabulous => "Case 3: No-Strategy via FABulous",
            BaselineCase::Shell => "Case 4: SheLL (ROUTE then LGC) via FABulous",
        }
    }

    /// The cells this case redacts for `bench` (the TfR column).
    pub fn target_cells(self, bench: Benchmark, design: &Netlist) -> Vec<CellId> {
        let t = bench.redaction_targets();
        let mut cells = match self {
            BaselineCase::NoStrategyOpenFpga => cells_of_block(design, t.no_strategy),
            BaselineCase::FilteringOpenFpga | BaselineCase::NoStrategyFabulous => {
                let mut c = cells_of_block(design, t.no_strategy);
                c.extend(cells_of_block(design, t.filtering_extra));
                c
            }
            BaselineCase::Shell => {
                let mut c = cells_of_block(design, t.shell_route);
                c.extend(cells_of_block(design, t.shell_lgc));
                c
            }
        };
        cells.sort_unstable();
        cells.dedup();
        cells
    }
}

/// Runs one evaluation case on `design` redacting `cells`.
///
/// # Errors
///
/// Propagates [`PnrError`] from the mapping flow.
pub fn redact_baseline(
    design: &Netlist,
    cells: &[CellId],
    case: BaselineCase,
    options: &ShellOptions,
) -> Result<RedactionOutcome, PnrError> {
    // The chainless cases LUT-map everything, ROUTE included, and never
    // shrink.
    let (config, skip_shrink) = match case {
        BaselineCase::NoStrategyOpenFpga | BaselineCase::FilteringOpenFpga => {
            (FabricConfig::openfpga_style(), true)
        }
        BaselineCase::NoStrategyFabulous => (FabricConfig::fabulous_style(false), true),
        BaselineCase::Shell => (FabricConfig::fabulous_style(true), options.skip_shrink),
    };
    let partition = partition_by_cells(design, cells);
    let pnr = map_once(&partition.sub, config, &options.pnr)?;
    finish(partition, pnr, skip_shrink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{activate, shell_lock_cells};
    use shell_circuits::{generate, Scale};
    use shell_netlist::equiv::equiv_sequential_random;
    use shell_netlist::verilog::write_verilog;
    use shell_synth::propagate_constants_cyclic;

    #[test]
    fn case_targets_grow_with_filtering() {
        let n = generate(Benchmark::Aes, Scale::small());
        let c1 = BaselineCase::NoStrategyOpenFpga.target_cells(Benchmark::Aes, &n);
        let c2 = BaselineCase::FilteringOpenFpga.target_cells(Benchmark::Aes, &n);
        assert!(!c1.is_empty());
        assert!(c2.len() > c1.len());
    }

    #[test]
    fn shell_case_targets_are_route_heavy() {
        let n = generate(Benchmark::Dla, Scale::small());
        let cells = BaselineCase::Shell.target_cells(Benchmark::Dla, &n);
        let muxes = cells.iter().filter(|&&c| n.cell(c).kind.is_mux()).count();
        assert!(muxes * 2 >= cells.len(), "{muxes}/{}", cells.len());
    }

    #[test]
    fn case1_redaction_roundtrip() {
        let n = generate(Benchmark::Spmv, Scale::small());
        let cells = BaselineCase::NoStrategyOpenFpga.target_cells(Benchmark::Spmv, &n);
        let outcome = redact_baseline(
            &n,
            &cells,
            BaselineCase::NoStrategyOpenFpga,
            &ShellOptions::default(),
        )
        .expect("case 1 maps");
        // Baselines do not shrink: full fabric key.
        assert!(!outcome.shrunk);
        assert_eq!(outcome.key_bits(), outcome.key_bits_before_shrink);
        // OpenFPGA fabric is square.
        assert_eq!(outcome.fabric.width(), outcome.fabric.height());
        let activated = propagate_constants_cyclic(&activate(&outcome));
        assert!(
            equiv_sequential_random(&n, &activated, &[], &[], 32, 3).is_equivalent(),
            "correct key restores function"
        );
    }

    #[test]
    fn case3_uses_fabulous_without_chains() {
        let n = generate(Benchmark::Fir, Scale::small());
        let cells = BaselineCase::NoStrategyFabulous.target_cells(Benchmark::Fir, &n);
        let outcome = redact_baseline(
            &n,
            &cells,
            BaselineCase::NoStrategyFabulous,
            &ShellOptions::default(),
        )
        .expect("case 3 maps");
        assert!(!outcome.fabric.config().mux_chains);
        assert!(!outcome.fabric.config().square_fabric);
    }

    #[test]
    fn all_cases_run_on_one_benchmark() {
        let n = generate(Benchmark::Dla, Scale::small());
        for case in BaselineCase::all() {
            let cells = case.target_cells(Benchmark::Dla, &n);
            let outcome = redact_baseline(&n, &cells, case, &ShellOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", case.label()));
            let activated = propagate_constants_cyclic(&activate(&outcome));
            assert!(
                equiv_sequential_random(&n, &activated, &[], &[], 24, 11).is_equivalent(),
                "{} broke the function",
                case.label()
            );
        }
    }

    #[test]
    fn shell_case_is_the_shell_flow() {
        // The SheLL column of Tables IV/V comes from `redact_baseline`; it
        // must lock exactly as the SheLL flow does on the same cells.
        let n = generate(Benchmark::Dla, Scale::small());
        let cells = BaselineCase::Shell.target_cells(Benchmark::Dla, &n);
        let options = ShellOptions::default();
        let case4 =
            redact_baseline(&n, &cells, BaselineCase::Shell, &options).expect("case 4 maps");
        let flow = shell_lock_cells(&n, &cells, &options).expect("SheLL maps");
        assert_eq!(case4.key, flow.key);
        assert_eq!(
            case4.framed.to_json().to_string_pretty(),
            flow.framed.to_json().to_string_pretty()
        );
        assert_eq!(write_verilog(&case4.locked), write_verilog(&flow.locked));
    }
}
