//! Ablation — step 8 (shrinking reconfigurability) on vs off.
//!
//! The shrink step hardens unused configuration to constants, which
//! (1) collapses the exposed key to the load-bearing bits, (2) removes the
//! combinational routing cycles an attacker would otherwise strip with the
//! cyclic-reduction preprocessing, and (3) cuts the implementation cost.
//! This harness quantifies all three on the SheLL flow.

use shell_bench::{eval_scale, f2, Table};
use shell_circuits::{generate, Benchmark};
use shell_fabric::shrink::combinational_cycle_count;
use shell_lock::{evaluate_overhead, shell_lock, ShellOptions};

fn main() {
    shell_bench::trace_init();
    let mut t = Table::new(&[
        "Benchmark",
        "variant",
        "key bits",
        "locked cells",
        "comb. cycles",
        "A",
        "P",
        "D",
    ]);
    for bench in Benchmark::all() {
        let design = generate(bench, eval_scale());
        for (variant, skip) in [("no shrink", true), ("shrink (step 8)", false)] {
            let opts = ShellOptions {
                skip_shrink: skip,
                ..Default::default()
            };
            match shell_lock(&design, &opts) {
                Ok(outcome) => {
                    let oh = evaluate_overhead(&design, &outcome);
                    t.row(vec![
                        bench.name().into(),
                        variant.into(),
                        outcome.key_bits().to_string(),
                        outcome.locked.cell_count().to_string(),
                        combinational_cycle_count(&outcome.locked).to_string(),
                        f2(oh.area),
                        f2(oh.power),
                        f2(oh.delay),
                    ]);
                }
                Err(e) => t.row(vec![
                    bench.name().into(),
                    variant.into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("error: {e}"),
                    "-".into(),
                    "-".into(),
                ]),
            }
        }
    }
    t.print("Ablation — Shrinking Reconfigurability (Fig. 4 step 8) on/off");
    match shell_bench::write_results_json("ablation_shrink", &t.to_json()) {
        Ok(path) => eprintln!("json: {path}"),
        Err(e) => eprintln!("could not write results json: {e}"),
    }
    println!("expected: shrinking removes the routing-mesh cycles entirely and cuts");
    println!("both the key length and the implementation cost by a large factor.");
    shell_bench::trace_finish("ablation_shrink");
}
