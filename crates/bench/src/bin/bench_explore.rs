//! `BENCH_explore`: the design-space sweep, Pareto front and
//! auto-customizer pick over the benchmark grid.
//!
//! Runs `shell-explore` on `axi_xbar(4, 1)`: every grid point through the
//! full lock → price → attack flow at budget *B* (the default sweep
//! conflict quota), then extracts the resilience-vs-overhead Pareto front
//! and the ARIANNA-style `pick_fabric` choice (cheapest surviving point).
//!
//! Writes `results/BENCH_explore.json` (jobs-invariant: **byte-identical**
//! at any `SHELL_JOBS` — `scripts/verify.sh` diffs runs at 1 and 4 workers)
//! and `results/explore/pareto.json` (plot-ready front data).
//!
//! Flags (for the CI smoke; defaults regenerate the committed artifacts):
//!
//! ```text
//! bench_explore [--grid tiny|default] [--out PATH] [--pareto-out PATH]
//! ```

use shell_bench::{
    f2, results_path, trace_finish, trace_init, write_invariant_results_json, write_json, Table,
};
use shell_circuits::axi_xbar;
use shell_explore::{pareto_json, pick_from_report, run_sweep, SweepGrid, SweepOptions};
use shell_util::Json;
use std::path::PathBuf;

fn flag(argv: &[String], name: &str) -> Option<String> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .cloned()
}

fn main() {
    trace_init();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let grid = match flag(&argv, "--grid").as_deref() {
        None | Some("default") => SweepGrid::default(),
        Some("tiny") => SweepGrid::tiny(),
        Some(other) => {
            eprintln!("bench_explore: unknown --grid `{other}` (tiny|default)");
            std::process::exit(2);
        }
    };
    let opts = SweepOptions::default();
    let design = axi_xbar(4, 1);

    let report = match run_sweep(&design, &grid, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("bench_explore: sweep failed: {e}");
            std::process::exit(1);
        }
    };
    let front = report.front();
    let pick = pick_from_report(&report);

    let mut table = Table::new(&["point", "verdict", "key bits", "area", "delay", "front"]);
    for p in &report.points {
        table.row(vec![
            p.point.label(),
            p.verdict.label().into(),
            p.key_bits.to_string(),
            f2(p.area),
            f2(p.delay),
            if front.contains(&p.index) {
                "*".into()
            } else {
                String::new()
            },
        ]);
    }
    table.print(&format!(
        "BENCH_explore: {} points on axi_xbar(4,1), budget B = {} conflicts",
        report.points.len(),
        opts.attack_quota
    ));
    match &pick {
        Some(p) => println!(
            "pick_fabric: {} (area ×{:.2}, {} key bits)",
            p.point.label(),
            p.area,
            p.key_bits
        ),
        None => println!("pick_fabric: no surviving point on this grid"),
    }

    let resolved = report.points.iter().all(|p| p.verdict.label() != "failed");
    let survivors = report
        .points
        .iter()
        .filter(|p| p.verdict.survived())
        .count();
    assert!(!front.is_empty(), "Pareto front must be non-empty");

    let doc = Json::obj([
        ("design", Json::from("axi_xbar(4,1)")),
        ("seed", Json::from(opts.seed)),
        ("attack_quota", Json::from(opts.attack_quota)),
        (
            "max_attack_iterations",
            Json::from(opts.max_attack_iterations),
        ),
        ("grid", grid.to_json()),
        ("report", report.to_json()),
        ("pick", pick.map(|p| p.to_json()).unwrap_or(Json::Null)),
        (
            "verdicts",
            Json::obj([
                ("pareto_nonempty", Json::Bool(!front.is_empty())),
                ("all_points_resolved", Json::Bool(resolved)),
                ("any_survivor", Json::Bool(survivors > 0)),
                ("pick_survives", Json::Bool(pick.is_some())),
            ]),
        ),
    ]);

    // The smoke run (`--out`, `--pareto-out`) writes to scratch paths so it
    // never clobbers the committed artifacts.
    let report_path =
        flag(&argv, "--out").map_or_else(|| results_path("BENCH_explore"), PathBuf::from);
    let pareto_path =
        flag(&argv, "--pareto-out").map_or_else(|| results_path("explore/pareto"), PathBuf::from);
    let written = write_invariant_results_json(&report_path, &doc)
        .and_then(|_| write_json(&pareto_path, &pareto_json(&report)));
    if let Err(e) = written {
        eprintln!("bench_explore: cannot write results: {e}");
        std::process::exit(1);
    }
    println!("wrote {}", report_path.display());
    println!("wrote {}", pareto_path.display());
    trace_finish("bench_explore");
}
