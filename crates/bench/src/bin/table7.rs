//! Table VII — LGC/ROUTE correlation depth vs overhead.
//!
//! The SheLL constraint is that the accompanying LGC must be *directly*
//! connected to the redacted ROUTE (depth 0). This harness sweeps the
//! node-distance between LGC and ROUTE (0, 1, 2) on PicoSoC, AES, FIR.
//! Expected shape: indirect LGC (depth 1–2) pays a large extra toll — the
//! fabric needs back-and-forth routing and extra boundary pins — while
//! depth 0 stays near the Table IV Case-4 numbers (the paper reports a
//! ~2–3× gap between depth-2 and depth-0 columns).

use shell_bench::{eval_scale, f3, Table};
use shell_circuits::{generate, Benchmark};
use shell_lock::{evaluate_overhead, shell_lock, SelectionOptions, ShellOptions};

fn main() {
    shell_bench::trace_init();
    let benches = [Benchmark::PicoSoc, Benchmark::Aes, Benchmark::Fir];
    let mut t = Table::new(&[
        "Benchmark",
        "d2 A",
        "d2 P",
        "d2 D",
        "d1 A",
        "d1 P",
        "d1 D",
        "d0 A",
        "d0 P",
        "d0 D",
        "d2/d0 area",
    ]);
    // Paper order: depth 2, depth 1, then SheLL's direct depth 0. The nine
    // (benchmark, depth) locks are independent — run them across workers
    // and assemble rows in sweep order.
    let depths = [2usize, 1, 0];
    let mut combos = Vec::new();
    for bench in benches {
        for depth in depths {
            combos.push((bench, depth));
        }
    }
    let outcomes = shell_exec::parallel_map(&combos, |&(bench, depth)| {
        let design = generate(bench, eval_scale());
        let opts = ShellOptions {
            selection: SelectionOptions {
                lgc_depth: depth,
                ..Default::default()
            },
            ..Default::default()
        };
        match shell_lock(&design, &opts) {
            Ok(outcome) => {
                let oh = evaluate_overhead(&design, &outcome);
                (vec![f3(oh.area), f3(oh.power), f3(oh.delay)], oh.area)
            }
            Err(_) => (vec!["-".into(), "-".into(), "-".into()], f64::NAN),
        }
    });
    for (bi, bench) in benches.iter().enumerate() {
        let mut row = vec![bench.name().to_string()];
        let mut area_by_depth = Vec::new();
        for (cells, area) in outcomes.iter().skip(bi * depths.len()).take(depths.len()) {
            row.extend(cells.iter().cloned());
            area_by_depth.push(*area);
        }
        let ratio = if area_by_depth.len() == 3 && area_by_depth[2].is_finite() {
            format!("{:.2}x", area_by_depth[0] / area_by_depth[2])
        } else {
            "-".into()
        };
        row.push(ratio);
        t.row(row);
    }
    t.print("Table VII — LGC/ROUTE Correlation Depth vs Overhead (SheLL = depth 0)");
    match shell_bench::write_results_json("table7", &t.to_json()) {
        Ok(path) => eprintln!("json: {path}"),
        Err(e) => eprintln!("could not write results json: {e}"),
    }
    shell_bench::trace_finish("table7");
}
