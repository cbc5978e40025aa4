//! Table I — resource utilization of an 8-channel AXI Xbar ROUTE circuit
//! under the three fabric flows (OpenFPGA, FABulous std cell, FABulous with
//! MUX chains).
//!
//! The paper reports raw element counts (M2/M4, config FFs/latches) per
//! flow; the reproduction reports the same from the minimal fabric region
//! each flow occupies. The expected *shape*: OpenFPGA uses pure MUX2 trees
//! with DFF storage and the most elements; FABulous std cell shifts to MUX4
//! trees with latch storage; the MUX-chain flow shrinks the used region
//! again (the ≥50 % improvement of \[21\]).

use shell_bench::{f2, Table};
use shell_circuits::axi_xbar;
use shell_fabric::{FabricConfig, ResourceReport};
use shell_pnr::{place_and_route, place_and_route_with_chains, PnrOptions, PnrResult};
use shell_synth::lut_map;

fn used_resources(result: &PnrResult) -> ResourceReport {
    ResourceReport::for_usage(&result.fabric, &result.usage)
}

fn main() {
    shell_bench::trace_init();
    let xbar = axi_xbar(8, 4);
    println!(
        "ROUTE workload: 8-channel AXI crossbar, {} cells, {} muxes",
        xbar.cell_count(),
        shell_netlist::NetlistStats::of(&xbar).muxes
    );
    let opts = PnrOptions::default();

    let open = place_and_route(
        &lut_map(&xbar, 4).expect("acyclic").netlist,
        FabricConfig::openfpga_style(),
        &opts,
    )
    .expect("OpenFPGA flow maps");
    let fab_std = place_and_route(
        &lut_map(&xbar, 4).expect("acyclic").netlist,
        FabricConfig::fabulous_style(false),
        &opts,
    )
    .expect("FABulous std flow maps");
    let fab_chain = place_and_route_with_chains(&xbar, FabricConfig::fabulous_style(true), &opts)
        .expect("FABulous chain flow maps");

    let mut t = Table::new(&[
        "Tool",
        "MUX4",
        "MUX2",
        "config DFFs",
        "CFFs",
        "latches",
        "tiles used",
        "utilization",
    ]);
    for (label, result) in [
        ("OpenFPGA", &open),
        ("FABulous (std cell)", &fab_std),
        ("FABulous (std cell w/ mux chain)", &fab_chain),
    ] {
        let r = used_resources(result);
        t.row(vec![
            label.into(),
            r.mux4.to_string(),
            r.mux2.to_string(),
            r.config_dffs.to_string(),
            r.control_ffs.to_string(),
            r.config_latches.to_string(),
            result.usage.tiles_used.to_string(),
            f2(result.utilization),
        ]);
    }
    t.print("Table I — Resource Utilization for a ROUTE circuit (8-channel AXI Xbar)");
    match shell_bench::write_results_json("table1", &t.to_json()) {
        Ok(path) => eprintln!("json: {path}"),
        Err(e) => eprintln!("could not write results json: {e}"),
    }

    let open_r = used_resources(&open);
    let std_r = used_resources(&fab_std);
    let chain_r = used_resources(&fab_chain);
    println!(
        "total mux elements: OpenFPGA {}, FABulous {}, FABulous+chain {}",
        open_r.total_muxes(),
        std_r.total_muxes(),
        chain_r.total_muxes()
    );
    println!(
        "chain-vs-std element saving: {:.0}%  (paper: >= 50% with custom MUX chains [21])",
        100.0 * (1.0 - chain_r.total_muxes() as f64 / std_r.total_muxes() as f64)
    );
    shell_bench::trace_finish("table1");
}
