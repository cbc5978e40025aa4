//! Design-space exploration — sweep the Eq. 1 coefficient presets and the
//! LGC depth on one benchmark, printing overhead and key size per point
//! (a miniature of Tables VI and VII for interactive use).
//!
//! ```text
//! cargo run -p shell-examples --example design_space
//! ```

use shell_circuits::{generate, Benchmark, Scale};
use shell_lock::{evaluate_overhead, shell_lock, Coefficients, SelectionOptions, ShellOptions};

fn main() {
    let design = generate(Benchmark::Spmv, Scale::small());
    println!(
        "exploring SPMV ({} cells): Eq. 1 presets x LGC depth\n",
        design.cell_count()
    );
    println!(
        "{:<8} {:>6} {:>8} {:>8} {:>8} {:>9}",
        "preset", "depth", "area", "power", "delay", "key bits"
    );
    for (label, coeffs) in Coefficients::table_vi_presets() {
        for depth in [0usize, 1] {
            let opts = ShellOptions {
                selection: SelectionOptions {
                    coefficients: coeffs,
                    lgc_depth: depth,
                    ..Default::default()
                },
                ..Default::default()
            };
            match shell_lock(&design, &opts) {
                Ok(outcome) => {
                    let oh = evaluate_overhead(&design, &outcome);
                    println!(
                        "{label:<8} {depth:>6} {:>8.2} {:>8.2} {:>8.2} {:>9}",
                        oh.area,
                        oh.power,
                        oh.delay,
                        outcome.key_bits()
                    );
                }
                Err(e) => println!("{label:<8} {depth:>6} failed: {e}"),
            }
        }
    }
    println!("\nexpected: c5/depth-0 (the SheLL operating point) is on the Pareto front.");
}
