//! Seeded fault-injection campaign over a configured fabric (the
//! robustness smoke: every fault detected, corrected or masked-with-proof,
//! zero panics).
//!
//! Usage: `fault_campaign [--faults N] [--seed S] [--out results/NAME.json]`
//!
//! The report is byte-identical at every `SHELL_JOBS` setting — the CI
//! smoke runs it at 1 and 4 workers and compares the files.

use shell_fabric::FabricConfig;
use shell_pnr::{place_and_route, PnrOptions};
use shell_synth::lut_map;
use shell_verify::fault_campaign;

fn main() {
    shell_bench::trace_init();
    let mut faults = 240usize;
    let mut seed = 0xFA017u64;
    let mut out = String::from("FAULT_campaign");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--faults" => {
                i += 1;
                faults = args[i].parse().expect("--faults takes a number");
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed takes a number");
            }
            "--out" => {
                i += 1;
                out = args[i].clone();
            }
            other => panic!("unknown argument `{other}`"),
        }
        i += 1;
    }

    let design = shell_circuits::ripple_adder(2);
    let mapped = lut_map(&design, 4).expect("acyclic").netlist;
    let pnr = place_and_route(
        &mapped,
        FabricConfig::fabulous_style(false),
        &PnrOptions::default(),
    )
    .expect("reference design fits");

    let report = fault_campaign(&mapped, &pnr.fabric, &pnr.bitstream, &pnr.io_map, faults, seed);
    let json = report.to_json();
    println!(
        "fault_campaign: {} faults, detected={} corrected={} masked={} undetected={} panics={}",
        report.records.len(),
        report.count(shell_verify::FaultOutcome::Detected),
        report.count(shell_verify::FaultOutcome::Corrected),
        report.count(shell_verify::FaultOutcome::Masked),
        report.count(shell_verify::FaultOutcome::Undetected),
        report.count(shell_verify::FaultOutcome::Panicked),
    );
    // Written without the usual `jobs` wrapper: the CI smoke diffs the
    // SHELL_JOBS=1 and SHELL_JOBS=4 outputs byte for byte, and the worker
    // count must not appear in the payload.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&root).expect("results dir");
    let path = root.join(format!("{out}.json"));
    std::fs::write(&path, json.to_string_pretty()).expect("write results");
    println!("wrote {}", path.display());
    shell_bench::trace_finish("fault_campaign");
    if !report.all_accounted_for() {
        eprintln!("FAIL: unaccounted faults (undetected or panicked)");
        std::process::exit(1);
    }
}
