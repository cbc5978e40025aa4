//! Table V — comparative normalized overhead with the **same target**
//! (ROUTE-based) for redaction across all four cases, on PicoSoC, AES, FIR.
//!
//! Unlike Table IV (where each case picks its own target), all cases here
//! redact SheLL's ROUTE+LGC selection; the differences are purely the flow
//! (LUT-everything OpenFPGA vs LUT FABulous vs chains+shrink). Expected
//! shape: Cases 1 ≈ 2 (same tool, same target), Case 3 somewhat cheaper
//! (MUX4 switches + latches + custom cells), Case 4 clearly cheapest.

use shell_bench::{eval_scale, f3, Table};
use shell_circuits::{generate, Benchmark};
use shell_lock::{evaluate_overhead, redact_baseline, BaselineCase, ShellOptions};

fn main() {
    shell_bench::trace_init();
    let benches = [Benchmark::PicoSoc, Benchmark::Aes, Benchmark::Fir];
    let mut t = Table::new(&[
        "Benchmark",
        "C1 A",
        "C1 P",
        "C1 D",
        "C2 A",
        "C2 P",
        "C2 D",
        "C3 A",
        "C3 P",
        "C3 D",
        "C4 A",
        "C4 P",
        "C4 D",
    ]);
    // Each (benchmark, case) redaction is independent: fan the whole grid
    // out over workers and assemble the rows in order afterwards.
    let mut combos = Vec::new();
    for bench in benches {
        for case in BaselineCase::all() {
            combos.push((bench, case));
        }
    }
    let cells_per_combo = shell_exec::parallel_map(&combos, |&(bench, case)| {
        let design = generate(bench, eval_scale());
        // Same target everywhere: SheLL's ROUTE+LGC cells.
        let cells = BaselineCase::Shell.target_cells(bench, &design);
        match redact_baseline(&design, &cells, case, &ShellOptions::default()) {
            Ok(outcome) => {
                let oh = evaluate_overhead(&design, &outcome);
                vec![f3(oh.area), f3(oh.power), f3(oh.delay)]
            }
            Err(_) => vec!["-".into(), "-".into(), "-".into()],
        }
    });
    let cases_per_bench = BaselineCase::all().len();
    for (bi, bench) in benches.iter().enumerate() {
        let mut row = vec![bench.name().to_string()];
        for chunk in cells_per_combo
            .iter()
            .skip(bi * cases_per_bench)
            .take(cases_per_bench)
        {
            row.extend(chunk.iter().cloned());
        }
        t.row(row);
    }
    t.print("Table V — Same-Target (ROUTE-based) Overhead, Cases 1-4");
    match shell_bench::write_results_json("table5", &t.to_json()) {
        Ok(path) => eprintln!("json: {path}"),
        Err(e) => eprintln!("could not write results json: {e}"),
    }
    println!("note: Cases 1 and 2 coincide by construction (same tool, same target),");
    println!("matching the paper's footnote that they are equal under an identical TfR.");
    shell_bench::trace_finish("table5");
}
