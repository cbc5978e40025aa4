//! The layer probe of a traced `lock` run. `lock.flow` has no spans of its
//! own for selection, decoupling, fabric-netlist generation, shrinking,
//! reassembly or frame packing, so the probe makes those calls one by one,
//! each in a bench-side span, for every corpus design, and checks that it
//! produced the key widths `shell_lock` did.
//!
//! The probe is a second copy of the first rung of `shell_lock`'s pipeline,
//! so its times follow that copy, not the flow: it goes away once the flow
//! has spans of its own for these steps.

use crate::lock::{activates_correctly, digest, LockFacts};
use crate::tally::Tally;
use shell_fabric::{shrink_locked_netlist, to_locked_netlist, FabricConfig, FramedBitstream};
use shell_lock::{partition_by_cells, select_subcircuit, ShellOptions};
use shell_netlist::Netlist;
use shell_pnr::place_and_route_with_chains;

/// What the probe measured besides spans.
#[derive(Debug, Default)]
pub struct ProbeFacts {
    /// Cells of the locked fabric netlists fed to the shrink step.
    pub shrink_cells_in: u64,
    /// Frames of the packed bitstreams.
    pub frames: u64,
    /// Post-shrink key bits, summed over the corpus.
    pub key_bits: u64,
    /// What each design's lock produced (`None` where a layer failed).
    pub designs: Vec<Option<LockFacts>>,
}

/// Runs the probe with the flow's default options. `reference` holds the
/// facts of `shell_lock` on the same designs with the same options: the
/// probe's key widths must match them.
pub fn run(corpus: &[Netlist], reference: &[Option<LockFacts>], tally: &mut Tally) -> ProbeFacts {
    let mut facts = ProbeFacts::default();
    for (design, expected) in corpus.iter().zip(reference) {
        let got = layers(design, &mut facts);
        let problem = match (&got, expected) {
            (Err(e), _) => Some(e.clone()),
            (Ok(got), Some(want))
                if (want.key_bits, want.key_bits_before_shrink)
                    != (got.key_bits, got.key_bits_before_shrink) =>
            {
                Some(format!(
                    "probe key widths {}/{} differ from shell_lock's {}/{}",
                    got.key_bits,
                    got.key_bits_before_shrink,
                    want.key_bits,
                    want.key_bits_before_shrink
                ))
            }
            _ => None,
        };
        tally.check(problem.map(|p| format!("probe {}: {p}", design.name())));
        if let Ok(got) = &got {
            facts.key_bits += got.key_bits as u64;
        }
        facts.designs.push(got.ok());
    }
    facts
}

/// The SheLL flow's first ladder rung, one layer call at a time.
fn layers(design: &Netlist, facts: &mut ProbeFacts) -> Result<LockFacts, String> {
    let options = ShellOptions::default();
    let selection = {
        let _span = shell_trace::span!("bench.probe.select");
        select_subcircuit(design, &options.selection)
    };
    let partition = {
        let _span = shell_trace::span!("bench.probe.decouple");
        partition_by_cells(design, &selection.cells)
    };
    let pnr = {
        let _span = shell_trace::span!("bench.probe.pnr");
        place_and_route_with_chains(
            &partition.sub,
            FabricConfig::fabulous_style(true),
            &options.pnr,
        )
    }
    .map_err(|e| format!("place and route failed: {e}"))?;
    let locked_fabric = {
        let _span = shell_trace::span!("bench.probe.netlist_gen");
        to_locked_netlist(&pnr.fabric, &pnr.io_map)
    };
    facts.shrink_cells_in += locked_fabric.cell_count() as u64;
    let shrunk = {
        let _span = shell_trace::span!("bench.probe.shrink");
        shrink_locked_netlist(&locked_fabric, &pnr.bitstream)
    };
    let key_bits = shrunk.key_inputs().len();
    let locked = {
        let _span = shell_trace::span!("bench.probe.reassemble");
        partition.reassemble(shrunk)
    }
    .map_err(|e| format!("reassembly failed: {e}"))?;
    let framed = {
        let _span = shell_trace::span!("bench.probe.frame_pack");
        FramedBitstream::from_flat(&pnr.fabric, &pnr.bitstream)
    }
    .map_err(|e| format!("frame packing failed: {e}"))?;
    facts.frames += framed.frame_count() as u64;
    let readback = {
        let _span = shell_trace::span!("bench.readback");
        framed.to_flat()
    };
    if readback.as_ref().ok() != Some(&pnr.bitstream) {
        return Err("framed readback differs from the flat bitstream".into());
    }
    let key: Vec<bool> = (0..pnr.bitstream.len())
        .filter(|&i| pnr.bitstream.is_used(i))
        .map(|i| pnr.bitstream.bit(i))
        .collect();
    let equivalent = {
        let _span = shell_trace::span!("bench.verify");
        activates_correctly(design, &locked, &key)
    };
    if !equivalent {
        return Err("activated design is not equivalent to the original".into());
    }
    Ok(LockFacts {
        key_bits,
        key_bits_before_shrink: locked_fabric.key_inputs().len(),
        digest: digest(&framed),
    })
}
