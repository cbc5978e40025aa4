//! Table IV — comparative normalized overhead (A/P/D) of eFPGA-based IP
//! redaction across the five benchmarks and the four evaluation cases, with
//! a SAT resilience check per cell.
//!
//! Expected shape (paper values for reference): every case costs > 1× in
//! all three metrics; Cases 1–3 land around 1.4–3.2×; SheLL (Case 4) is the
//! cheapest column by a wide margin (the paper reports 53–67 % overhead
//! reduction) while staying SAT-resilient within budget.

use shell_bench::{check_resilience, eval_scale, f2, Table};
use shell_circuits::{generate, Benchmark};
use shell_lock::{evaluate_overhead, redact_baseline, BaselineCase, ShellOptions};

fn main() {
    shell_bench::trace_init();
    let mut t = Table::new(&[
        "Benchmark", "Case", "TfR", "A", "P", "D", "SAT", "key bits",
    ]);
    let mut shell_sum = [0.0f64; 3];
    let mut base_sum = [0.0f64; 3];
    let mut base_n = 0usize;
    let mut shell_n = 0usize;
    // One full redaction + resilience check per (benchmark, case) combo;
    // the combos are independent, so the sweep fans out over workers
    // (SHELL_JOBS) and rows come back in combo order regardless of
    // scheduling.
    let mut combos = Vec::new();
    for bench in Benchmark::all() {
        for case in BaselineCase::all() {
            combos.push((bench, case));
        }
    }
    let outcomes = shell_exec::parallel_map(&combos, |&(bench, case)| {
        let design = generate(bench, eval_scale());
        let cells = case.target_cells(bench, &design);
        let tfr = tfr_label(bench, case);
        match redact_baseline(&design, &cells, case, &ShellOptions::default()) {
            Ok(outcome) => {
                let oh = evaluate_overhead(&design, &outcome);
                let res = check_resilience(&design, &outcome);
                let row = vec![
                    bench.name().into(),
                    short(case),
                    tfr,
                    f2(oh.area),
                    f2(oh.power),
                    f2(oh.delay),
                    res.cell(),
                    outcome.key_bits().to_string(),
                ];
                (row, Some([oh.area, oh.power, oh.delay]))
            }
            Err(e) => {
                let row = vec![
                    bench.name().into(),
                    short(case),
                    tfr,
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("error: {e}"),
                    "-".into(),
                ];
                (row, None)
            }
        }
    });
    for (&(_, case), (row, overhead)) in combos.iter().zip(outcomes) {
        t.row(row);
        let Some(oh) = overhead else { continue };
        if case == BaselineCase::Shell {
            shell_sum[0] += oh[0];
            shell_sum[1] += oh[1];
            shell_sum[2] += oh[2];
            shell_n += 1;
        } else {
            base_sum[0] += oh[0];
            base_sum[1] += oh[1];
            base_sum[2] += oh[2];
            base_n += 1;
        }
    }
    t.print("Table IV — Comparative (Normalized) Overhead in eFPGA-based IP Redaction");
    match shell_bench::write_results_json("table4", &t.to_json()) {
        Ok(path) => eprintln!("json: {path}"),
        Err(e) => eprintln!("could not write results json: {e}"),
    }
    if shell_n > 0 && base_n > 0 {
        let avg = |s: [f64; 3], n: usize| [s[0] / n as f64, s[1] / n as f64, s[2] / n as f64];
        let b = avg(base_sum, base_n);
        let s = avg(shell_sum, shell_n);
        println!(
            "mean baseline overhead A/P/D: {:.2}/{:.2}/{:.2}; mean SheLL: {:.2}/{:.2}/{:.2}",
            b[0], b[1], b[2], s[0], s[1], s[2]
        );
        println!(
            "SheLL overhead-above-1 reduction vs baselines: A {:.0}% / P {:.0}% / D {:.0}%  (paper: 53-67%)",
            100.0 * (1.0 - (s[0] - 1.0) / (b[0] - 1.0).max(1e-9)),
            100.0 * (1.0 - (s[1] - 1.0) / (b[1] - 1.0).max(1e-9)),
            100.0 * (1.0 - (s[2] - 1.0) / (b[2] - 1.0).max(1e-9)),
        );
    }
    shell_bench::trace_finish("table4");
}

fn short(case: BaselineCase) -> String {
    match case {
        BaselineCase::NoStrategyOpenFpga => "1 no-strategy/OpenFPGA".into(),
        BaselineCase::FilteringOpenFpga => "2 filtering/OpenFPGA".into(),
        BaselineCase::NoStrategyFabulous => "3 no-strategy/FABulous".into(),
        BaselineCase::Shell => "4 SheLL".into(),
    }
}

fn tfr_label(bench: Benchmark, case: BaselineCase) -> String {
    let t = bench.redaction_targets();
    match case {
        BaselineCase::NoStrategyOpenFpga => format!("/{}", t.no_strategy),
        BaselineCase::FilteringOpenFpga | BaselineCase::NoStrategyFabulous => {
            format!("/{} + /{}", t.no_strategy, t.filtering_extra)
        }
        BaselineCase::Shell => format!("/{} -> /{}", t.shell_route, t.shell_lgc),
    }
}
