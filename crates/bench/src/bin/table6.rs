//! Table VI — the coefficient sweep of Eq. 1: presets c1–c5 drive the
//! score-based sub-circuit selection, and each selection is priced (A/P/D)
//! and attacked.
//!
//! Expected shape: c5 (the SheLL choice, `{h,h,l,l,h,l}`) gives the lowest
//! overhead column; c4 (high LUT demand) the highest; some c2/c3 selections
//! may fall to the SAT attack (the paper's strikethrough cells).

use shell_bench::{check_resilience, eval_scale, f2, Table};
use shell_circuits::{generate, Benchmark};
use shell_lock::{evaluate_overhead, shell_lock, Coefficients, SelectionOptions, ShellOptions};

fn main() {
    shell_bench::trace_init();
    let presets = Coefficients::table_vi_presets();
    let mut header: Vec<String> = vec!["Benchmark".into()];
    for (label, _) in &presets {
        header.push(format!("{label} A"));
        header.push(format!("{label} P"));
        header.push(format!("{label} D"));
        header.push(format!("{label} SAT"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);
    let mut c5_wins = 0usize;
    let mut rows = 0usize;
    // Every (benchmark, preset) runs a full lock + attack pipeline —
    // independent work, fanned out over workers; results return in combo
    // order for the deterministic row assembly below.
    let mut combos = Vec::new();
    for bench in Benchmark::all() {
        for (_, coeffs) in &presets {
            combos.push((bench, *coeffs));
        }
    }
    let outcomes = shell_exec::parallel_map(&combos, |&(bench, coeffs)| {
        let design = generate(bench, eval_scale());
        let opts = ShellOptions {
            selection: SelectionOptions {
                coefficients: coeffs,
                ..Default::default()
            },
            ..Default::default()
        };
        match shell_lock(&design, &opts) {
            Ok(outcome) => {
                let oh = evaluate_overhead(&design, &outcome);
                let res = check_resilience(&design, &outcome);
                (
                    vec![f2(oh.area), f2(oh.power), f2(oh.delay), res.cell()],
                    oh.area,
                )
            }
            Err(_) => (
                vec!["-".into(), "-".into(), "-".into(), "n/a".into()],
                f64::INFINITY,
            ),
        }
    });
    for (bi, bench) in Benchmark::all().into_iter().enumerate() {
        let mut row = vec![bench.name().to_string()];
        let mut areas: Vec<f64> = Vec::new();
        for (cells, area) in outcomes.iter().skip(bi * presets.len()).take(presets.len()) {
            row.extend(cells.iter().cloned());
            areas.push(*area);
        }
        if areas.len() == 5 {
            rows += 1;
            let min = areas.iter().cloned().fold(f64::INFINITY, f64::min);
            if (areas[4] - min).abs() < 0.05 {
                c5_wins += 1;
            }
        }
        t.row(row);
    }
    t.print("Table VI — Eq. 1 Coefficient Sweep {α,β,γ,λ,ξ,σ} (c5 = SheLL objectives)");
    match shell_bench::write_results_json("table6", &t.to_json()) {
        Ok(path) => eprintln!("json: {path}"),
        Err(e) => eprintln!("could not write results json: {e}"),
    }
    println!(
        "c5 within 0.05 of the best area column on {c5_wins}/{rows} benchmarks \
         (paper: c5 is the chosen operating point)"
    );
    shell_bench::trace_finish("table6");
}
