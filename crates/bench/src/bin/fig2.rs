//! Fig. 2 — the OpenFPGA square-fabric utilization inefficiency.
//!
//! The paper shows an arbitrary design ("desX") mapped on a 7×7 OpenFPGA
//! fabric with 11 of 49 tiles unused (<77 % utilization). This harness maps
//! the same workload through both generators and reports tile utilization
//! and configuration-bit utilization: the square OpenFPGA grid strands
//! tiles, the demand-shaped FABulous grid does not.

use shell_bench::{f2, Table};
use shell_circuits::axi_xbar;
use shell_fabric::FabricConfig;
use shell_pnr::{place_and_route, PnrOptions};
use shell_synth::lut_map;

fn main() {
    shell_bench::trace_init();
    // desX stand-in: a wide crossbar whose LUT mapping needs a mid-size
    // grid (the paper's desX is likewise an arbitrary mid-size design).
    let desx = axi_xbar(8, 6);
    let mapped = lut_map(&desx, 4).expect("acyclic").netlist;
    println!(
        "desX stand-in: 8x6 crossbar, {} cells -> {} LUT-mapped cells",
        desx.cell_count(),
        mapped.cell_count()
    );
    let opts = PnrOptions {
        max_fit_attempts: 24,
        max_route_iterations: 128,
        ..Default::default()
    };
    let mut t = Table::new(&[
        "Generator",
        "grid",
        "tiles",
        "tiles used",
        "tile utilization",
        "config bits",
        "bits used",
        "bit utilization",
    ]);
    for (label, cfg) in [
        ("OpenFPGA (square)", FabricConfig::openfpga_style()),
        (
            "FABulous (demand-shaped)",
            FabricConfig::fabulous_style(false),
        ),
    ] {
        match place_and_route(&mapped, cfg, &opts) {
            Ok(r) => {
                t.row(vec![
                    label.into(),
                    format!("{}x{}", r.fabric.width(), r.fabric.height()),
                    r.fabric.tile_count().to_string(),
                    r.usage.tiles_used.to_string(),
                    f2(r.utilization),
                    r.bitstream.len().to_string(),
                    r.bitstream.used_count().to_string(),
                    f2(r.bitstream.utilization()),
                ]);
            }
            Err(e) => t.row(vec![
                label.into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("error: {e}"),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    t.print("Fig. 2 — Fabric Utilization: Square OpenFPGA vs Demand-Shaped FABulous");
    match shell_bench::write_results_json("fig2", &t.to_json()) {
        Ok(path) => eprintln!("json: {path}"),
        Err(e) => eprintln!("could not write results json: {e}"),
    }
    println!("paper reference: desX on a 7x7 OpenFPGA grid left 11/49 tiles unused (<77%).");
    shell_bench::trace_finish("fig2");
}
