//! Extension ablation — wrong-key corruptibility and SAT-instance hardness.
//!
//! Two quantities the paper discusses qualitatively:
//!
//! * **corruptibility** (§IV, selection rule iv): how visibly wrong keys
//!   corrupt the outputs. Measured as the mean output-bit flip rate under
//!   random wrong keys.
//! * **clause-to-variable ratio** (§II, the Full-Lock argument \[3\]): the
//!   c2v ratio of the attack miter CNF, a classic SAT-hardness indicator.
//!
//! Reported for the SheLL flow across the benchmarks.

use shell_bench::{eval_scale, f2, Table};
use shell_circuits::{generate, Benchmark};
use shell_lock::{corruption_rate, shell_lock, ShellOptions};
use shell_sat::{encode_netlist, Solver};

fn miter_c2v(locked: &shell_netlist::Netlist) -> Option<f64> {
    if locked.topo_order().is_err() {
        return None;
    }
    let frame = shell_attacks::scan_frame(locked);
    let mut solver = Solver::new();
    let a = encode_netlist(&mut solver, &frame, None, None);
    let _b = encode_netlist(&mut solver, &frame, Some(&a.inputs), None);
    Some(solver.num_clauses() as f64 / solver.num_vars().max(1) as f64)
}

fn main() {
    shell_bench::trace_init();
    let mut t = Table::new(&["Benchmark", "key bits", "corruption rate", "miter c2v"]);
    for bench in Benchmark::all() {
        let design = generate(bench, eval_scale());
        match shell_lock(&design, &ShellOptions::default()) {
            Ok(outcome) => {
                let corruption = corruption_rate(&design, &outcome, 8, 32);
                let c2v = miter_c2v(&outcome.locked)
                    .map(f2)
                    .unwrap_or_else(|| "cyclic".into());
                t.row(vec![
                    bench.name().into(),
                    outcome.key_bits().to_string(),
                    f2(corruption),
                    c2v,
                ]);
            }
            Err(e) => t.row(vec![
                bench.name().into(),
                "-".into(),
                format!("error: {e}"),
                "-".into(),
            ]),
        }
    }
    t.print("Extension — Wrong-Key Corruptibility and Miter Hardness (SheLL flow)");
    match shell_bench::write_results_json("ablation_corruption", &t.to_json()) {
        Ok(path) => eprintln!("json: {path}"),
        Err(e) => eprintln!("could not write results json: {e}"),
    }
    println!("corruption ~0.5 is ideal; c2v near the 3-5 band is the classic hard zone");
    println!("the paper's §II argues reconfigurable locking lands in via its CNF shape.");
    shell_bench::trace_finish("ablation_corruption");
}
