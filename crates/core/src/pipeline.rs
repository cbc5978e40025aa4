//! The end-to-end SheLL flow (Fig. 4) and its outcome type.
//!
//! `shell_lock` runs steps 1–8: connectivity analysis and scoring, selection,
//! decoupling, dual synthesis + fabric mapping with the fit loop (via
//! [`shell_pnr::place_and_route_with_chains`]), and shrinking. The result
//! carries everything the evaluation needs: the locked flat netlist (host +
//! fabric, key inputs = surviving configuration bits), the correct key, the
//! fabric and bitstream, and bookkeeping statistics.

use crate::decouple::{partition_by_cells, RedactionPartition};
use crate::select::{select_subcircuit, SelectionOptions};
use shell_fabric::{
    shrink_locked_netlist, to_locked_netlist, Bitstream, Fabric, FabricConfig, FramedBitstream,
};
use shell_netlist::{CellId, Netlist};
use shell_pnr::{place_and_route, place_and_route_with_chains, PnrError, PnrOptions, PnrResult};
use shell_synth::lut_map;

/// Options of the SheLL flow.
#[derive(Debug, Clone, Default)]
pub struct ShellOptions {
    /// Selection knobs (coefficients, budgets, LGC depth).
    pub selection: SelectionOptions,
    /// PnR knobs.
    pub pnr: PnrOptions,
    /// Skip step 8 (for the shrink ablation).
    pub skip_shrink: bool,
}

/// Rungs of the retry ladder wrapped around the mapping flow: when PnR
/// reports `DoesNotFit`/`Unroutable`, the flow retries with relaxed knobs
/// (wider channels → more fabric-expansion headroom → more placement
/// starts) instead of giving up.
const LADDER_RUNGS: usize = 4;

/// A finished redaction: any of the four cases produces this.
#[derive(Debug, Clone)]
pub struct RedactionOutcome {
    /// The locked flat design: host + fabric, key inputs = config bits
    /// (only the *used* bits after shrinking).
    pub locked: Netlist,
    /// The correct key (values of the locked netlist's key inputs).
    pub key: Vec<bool>,
    /// The fabric the sub-circuit was mapped to.
    pub fabric: Fabric,
    /// The full fabric bitstream (pre-shrink view), flat v1 form.
    pub bitstream: Bitstream,
    /// The same configuration in the canonical frame-addressed form:
    /// per-frame CRC + SECDED ECC, device-style addresses, ready for
    /// readback and partial reconfiguration (see [`shell_fabric::frame`]).
    pub framed: FramedBitstream,
    /// The partition that was redacted.
    pub partition_cells: usize,
    /// Mux share of the redacted cells.
    pub route_cells: usize,
    /// Fabric tiles used / total (Fig. 2's utilization).
    pub utilization: f64,
    /// Whether the shrink step ran.
    pub shrunk: bool,
    /// Key length before shrinking (all config bits).
    pub key_bits_before_shrink: usize,
    /// Budget-degraded stages, propagated from [`shell_pnr::PnrResult`].
    pub degraded: Vec<String>,
}

impl RedactionOutcome {
    /// Key length of the locked design.
    pub fn key_bits(&self) -> usize {
        self.key.len()
    }
}

/// Runs the complete SheLL flow on `design` with a FABulous chain fabric.
///
/// # Errors
///
/// Propagates [`PnrError`] when the sub-circuit cannot be mapped, and
/// reports assembly failures as [`PnrError::VerificationFailed`].
pub fn shell_lock(design: &Netlist, options: &ShellOptions) -> Result<RedactionOutcome, PnrError> {
    let selection = select_subcircuit(design, &options.selection);
    shell_lock_cells(design, &selection.cells, options)
}

/// SheLL flow on a *hierarchical* design (the paper's SoC-level entry,
/// Fig. 3a/3c): step 1's flatten/uniquify runs first, then the flat flow.
///
/// # Errors
///
/// Reports flattening problems as [`PnrError::Unsupported`]; otherwise the
/// same conditions as [`shell_lock`].
pub fn shell_lock_design(
    design: &shell_netlist::Design,
    options: &ShellOptions,
) -> Result<RedactionOutcome, PnrError> {
    let flat = design
        .flatten()
        .map_err(|e| PnrError::Unsupported(format!("flatten failed: {e}")))?;
    shell_lock(&flat, options)
}

/// SheLL flow with an explicit cell selection (used when reproducing the
/// paper's named TfR targets instead of score-driven selection).
///
/// # Errors
///
/// Same as [`shell_lock`].
pub fn shell_lock_cells(
    design: &Netlist,
    cells: &[CellId],
    options: &ShellOptions,
) -> Result<RedactionOutcome, PnrError> {
    shell_lock_cells_with_fabric(design, cells, FabricConfig::fabulous_style(true), options)
}

/// SheLL flow with score-driven selection on an explicit fabric
/// architecture — the design-space explorer's entry point
/// (`shell-explore` sweeps [`FabricConfig`] knobs through here).
///
/// Chain-enabled configs run the dual-synthesis chain flow; chainless
/// configs LUT-map the whole sub-circuit at the config's `lut_k` (the
/// baseline-style mapping). Both paths get the fit retry ladder.
///
/// # Errors
///
/// [`PnrError::Unsupported`] for an invalid `config`; otherwise the same
/// conditions as [`shell_lock`].
pub fn shell_lock_with_fabric(
    design: &Netlist,
    config: FabricConfig,
    options: &ShellOptions,
) -> Result<RedactionOutcome, PnrError> {
    let selection = select_subcircuit(design, &options.selection);
    shell_lock_cells_with_fabric(design, &selection.cells, config, options)
}

/// [`shell_lock_with_fabric`] with an explicit cell selection.
///
/// # Errors
///
/// Same as [`shell_lock_with_fabric`].
pub fn shell_lock_cells_with_fabric(
    design: &Netlist,
    cells: &[CellId],
    config: FabricConfig,
    options: &ShellOptions,
) -> Result<RedactionOutcome, PnrError> {
    let _span = shell_trace::span!("lock.flow");
    config
        .validate()
        .map_err(|e| PnrError::Unsupported(format!("invalid fabric config: {e}")))?;
    let partition = partition_by_cells(design, cells);
    let pnr = map_with_ladder(&partition.sub, config, options)?;
    finish(partition, pnr, options.skip_shrink)
}

/// One mapping attempt (a rung of the fit ladder, or a whole Table IV/V
/// case): the chain flow for chain-enabled fabrics, LUT-map-everything +
/// plain PnR otherwise.
pub(crate) fn map_once(
    sub: &Netlist,
    config: FabricConfig,
    pnr_options: &PnrOptions,
) -> Result<PnrResult, PnrError> {
    if config.mux_chains {
        place_and_route_with_chains(sub, config, pnr_options)
    } else {
        let mapped = lut_map(sub, config.lut_k)
            .map_err(|e| PnrError::Unsupported(e.to_string()))?
            .netlist;
        place_and_route(&mapped, config, pnr_options)
    }
}

/// The retry ladder around the mapping flow. Fit failures escalate one knob
/// per rung — wider routing channels, then more fabric-expansion headroom,
/// then more placement starts. Budget exhaustion and structural errors
/// abort immediately: no knob fixes a spent deadline or an unsupported
/// netlist.
fn map_with_ladder(
    sub: &Netlist,
    mut config: FabricConfig,
    options: &ShellOptions,
) -> Result<PnrResult, PnrError> {
    let mut pnr_options = options.pnr.clone();
    for attempt in 1..=LADDER_RUNGS {
        let _rung_span = shell_trace::span!("lock.ladder_rung", attempt = attempt);
        shell_trace::counter_add("lock.ladder_attempts", 1);
        match map_once(sub, config.clone(), &pnr_options) {
            Err(PnrError::DoesNotFit(_) | PnrError::Unroutable(_)) if attempt < LADDER_RUNGS => {
                match attempt {
                    1 => config.channel_width += 4,
                    2 => pnr_options.max_fit_attempts += 8,
                    _ => pnr_options.place_starts += 2,
                }
            }
            outcome => return outcome,
        }
    }
    unreachable!("the last rung returns")
}

/// Shared tail of every redaction flow: emit the locked fabric netlist,
/// optionally shrink, reassemble with the host, and extract the key.
pub(crate) fn finish(
    partition: RedactionPartition,
    pnr: PnrResult,
    skip_shrink: bool,
) -> Result<RedactionOutcome, PnrError> {
    let locked_fabric = to_locked_netlist(&pnr.fabric, &pnr.io_map);
    let key_bits_before_shrink = locked_fabric.key_inputs().len();
    let (fabric_netlist, key, shrunk) = if skip_shrink {
        let key: Vec<bool> = pnr.bitstream.as_bools().to_vec();
        (locked_fabric, key, false)
    } else {
        let shrunken = shrink_locked_netlist(&locked_fabric, &pnr.bitstream);
        let key: Vec<bool> = (0..pnr.bitstream.len())
            .filter(|&i| pnr.bitstream.is_used(i))
            .map(|i| pnr.bitstream.bit(i))
            .collect();
        debug_assert_eq!(key.len(), shrunken.key_inputs().len());
        (shrunken, key, true)
    };
    let locked = partition
        .reassemble(fabric_netlist)
        .map_err(|e| PnrError::VerificationFailed(format!("reassembly failed: {e}")))?;
    let framed = FramedBitstream::from_flat(&pnr.fabric, &pnr.bitstream)
        .map_err(|e| PnrError::VerificationFailed(format!("frame packing failed: {e}")))?;
    Ok(RedactionOutcome {
        locked,
        key,
        fabric: pnr.fabric,
        bitstream: pnr.bitstream,
        framed,
        partition_cells: partition.cells_moved,
        route_cells: partition.route_cells,
        utilization: pnr.utilization,
        shrunk,
        key_bits_before_shrink,
        degraded: pnr.degraded,
    })
}

/// Activates a redaction outcome: binds the correct key, producing the
/// unkeyed design an authorized fab would ship. The result may be large
/// (un-shrunk baseline fabrics bring their whole mux mesh); run
/// [`shell_synth::propagate_constants_cyclic`] on it for a compact view.
pub fn activate(outcome: &RedactionOutcome) -> Netlist {
    shell_fabric::shrink::bind_keys(&outcome.locked, &outcome.key)
}

/// Binds an arbitrary `key` into the locked netlist — the piracy scenario:
/// a fab without the bitstream guessing configuration bits. Wrong keys
/// generally corrupt the function (see the wrong-key tests and the
/// `shell-verify` negative suite); `key` must have one bit per key input.
///
/// # Panics
///
/// Panics if `key.len()` differs from the locked netlist's key-input count.
pub fn activate_with_key(outcome: &RedactionOutcome, key: &[bool]) -> Netlist {
    assert_eq!(
        key.len(),
        outcome.locked.key_inputs().len(),
        "activate_with_key: key width mismatch"
    );
    shell_fabric::shrink::bind_keys(&outcome.locked, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_circuits::common::cells_of_block;
    use shell_circuits::{axi_xbar, generate, Benchmark, Scale};
    use shell_netlist::equiv::{equiv_random, equiv_sequential_random};
    use shell_synth::propagate_constants_cyclic;

    fn assert_activates_correctly(original: &Netlist, outcome: &RedactionOutcome) {
        let activated = activate(outcome);
        let activated = propagate_constants_cyclic(&activated);
        let ok = if original.is_combinational() && activated.is_combinational() {
            equiv_random(original, &activated, &[], &[], 256, 0xACE).is_equivalent()
        } else {
            equiv_sequential_random(original, &activated, &[], &[], 48, 0xACE).is_equivalent()
        };
        assert!(ok, "correct key must restore the original function");
    }

    #[test]
    fn shell_lock_xbar_end_to_end() {
        let n = axi_xbar(4, 2);
        let outcome = shell_lock(&n, &ShellOptions::default()).expect("flow succeeds");
        assert!(outcome.shrunk);
        assert!(outcome.key_bits() > 0);
        assert!(
            outcome.key_bits() < outcome.key_bits_before_shrink,
            "shrinking must reduce the exposed key"
        );
        assert!(outcome.route_cells > 0);
        assert_activates_correctly(&n, &outcome);
    }

    #[test]
    fn shell_lock_named_targets_picosoc() {
        let n = generate(Benchmark::PicoSoc, Scale::small());
        let t = Benchmark::PicoSoc.redaction_targets();
        let mut cells = cells_of_block(&n, t.shell_route);
        cells.extend(cells_of_block(&n, t.shell_lgc));
        cells.sort_unstable();
        cells.dedup();
        let outcome =
            shell_lock_cells(&n, &cells, &ShellOptions::default()).expect("flow succeeds");
        assert!(outcome.partition_cells == cells.len());
        assert_activates_correctly(&n, &outcome);
    }

    #[test]
    fn skip_shrink_keeps_all_bits() {
        let n = axi_xbar(4, 1);
        let opts = ShellOptions {
            skip_shrink: true,
            ..Default::default()
        };
        let outcome = shell_lock(&n, &opts).expect("flow succeeds");
        assert!(!outcome.shrunk);
        assert_eq!(outcome.key_bits(), outcome.key_bits_before_shrink);
        assert_activates_correctly(&n, &outcome);
    }

    #[test]
    fn soc_level_flow_on_hierarchical_design() {
        // Fig. 3a/3c: the hierarchical SoC platform goes through flatten +
        // lock; the Xbar muxes land on fabric chains.
        let design = shell_circuits::soc_platform(3, 2);
        let flat = design.flatten().unwrap();
        let outcome = shell_lock_design(&design, &ShellOptions::default()).expect("SoC-level flow");
        assert!(outcome.route_cells > 0);
        let activated = propagate_constants_cyclic(&activate(&outcome));
        assert!(
            equiv_sequential_random(&flat, &activated, &[], &[], 32, 0x50C).is_equivalent(),
            "activated SoC equals the flattened original"
        );
    }

    #[test]
    fn wrong_key_breaks_function() {
        let n = axi_xbar(4, 2);
        let outcome = shell_lock(&n, &ShellOptions::default()).expect("flow succeeds");
        // Flip a used key bit: the activated design must now diverge.
        let mut bad_key = outcome.key.clone();
        assert!(!bad_key.is_empty());
        // Flip several bits to dodge don't-care survivors.
        for i in 0..bad_key.len().min(8) {
            bad_key[i] = !bad_key[i];
        }
        let broken = shell_fabric::shrink::bind_keys(&outcome.locked, &bad_key);
        let broken = propagate_constants_cyclic(&broken);
        // A wrong key may even configure a combinational loop — that counts
        // as (very) corrupted.
        if broken.topo_order().is_err() {
            return;
        }
        let same = if broken.is_combinational() {
            equiv_random(&n, &broken, &[], &[], 256, 7).is_equivalent()
        } else {
            equiv_sequential_random(&n, &broken, &[], &[], 48, 7).is_equivalent()
        };
        assert!(!same, "flipping key bits must corrupt the function");
    }
}
