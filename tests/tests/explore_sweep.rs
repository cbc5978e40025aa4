//! Cross-crate contracts of the design-space explorer:
//!
//! * the sweep report and Pareto plot data are **byte-identical** across
//!   worker counts;
//! * a sweep killed mid-run and resumed from its journal produces the same
//!   bytes as an uninterrupted one;
//! * `pick_fabric` returns the provably-smallest surviving fabric.

use shell_circuits::mux_tree_circuit;
use shell_exec::with_jobs;
use shell_explore::{
    pareto_json, pick_fabric, run_sweep, SweepError, SweepGrid, SweepOptions, SweepReport,
};
use std::path::PathBuf;

/// Fast sweep options: a conflict quota small enough for CI but large
/// enough that some points survive and some break.
fn fast_opts() -> SweepOptions {
    SweepOptions {
        attack_quota: 2_000,
        max_attack_iterations: 8,
        ..SweepOptions::default()
    }
}

fn grid() -> SweepGrid {
    SweepGrid::tiny()
}

fn report_bytes(report: &SweepReport) -> (String, String) {
    (
        report.to_json().to_string_pretty(),
        pareto_json(report).to_string_pretty(),
    )
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("shell_xtest_explore_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sweep_is_byte_identical_across_worker_counts() {
    let design = mux_tree_circuit(4, 2);
    let opts = fast_opts();
    let seq = with_jobs(1, || run_sweep(&design, &grid(), &opts)).expect("sequential sweep");
    let par = with_jobs(4, || run_sweep(&design, &grid(), &opts)).expect("parallel sweep");
    assert_eq!(report_bytes(&seq), report_bytes(&par));
    assert_eq!(seq.points.len(), grid().len());
    // The report must carry a verdict per point and a non-empty front.
    assert!(seq.points.iter().all(|p| !p.verdict.label().is_empty()));
    assert!(!seq.front().is_empty());
}

#[test]
fn killed_sweep_resumes_to_identical_bytes() {
    let design = mux_tree_circuit(4, 2);
    let dir = scratch_dir("resume");

    // Uninterrupted reference run (no journal).
    let reference = run_sweep(&design, &grid(), &fast_opts()).expect("reference sweep");

    // "Kill" after 2 of 4 points: point_limit makes the interruption
    // deterministic — the journal now holds a strict subset of the grid.
    let interrupted = run_sweep(
        &design,
        &grid(),
        &SweepOptions {
            journal_dir: Some(dir.clone()),
            point_limit: Some(2),
            ..fast_opts()
        },
    );
    match interrupted {
        Err(SweepError::Interrupted {
            evaluated,
            remaining,
        }) => {
            assert_eq!(evaluated, 2);
            assert_eq!(remaining, 2);
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }

    // Resume: the journaled points restore, only the rest re-evaluate, and
    // the merged report is byte-identical to the uninterrupted run.
    let resumed = run_sweep(
        &design,
        &grid(),
        &SweepOptions {
            journal_dir: Some(dir.clone()),
            ..fast_opts()
        },
    )
    .expect("resumed sweep");
    assert_eq!(
        resumed.resumed, 2,
        "two points must restore from the journal"
    );
    assert_eq!(report_bytes(&resumed), report_bytes(&reference));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_survives_worker_count_changes() {
    // Journal written at 4 workers, resumed at 1 — still byte-identical.
    let design = mux_tree_circuit(4, 2);
    let dir = scratch_dir("jobs");
    let reference = run_sweep(&design, &grid(), &fast_opts()).expect("reference sweep");
    let journal_opts = SweepOptions {
        journal_dir: Some(dir.clone()),
        ..fast_opts()
    };
    with_jobs(4, || run_sweep(&design, &grid(), &journal_opts)).expect("cold sweep");
    let warm = with_jobs(1, || run_sweep(&design, &grid(), &journal_opts)).expect("warm sweep");
    assert_eq!(warm.resumed, grid().len(), "every point must restore");
    assert_eq!(report_bytes(&warm), report_bytes(&reference));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pick_fabric_returns_smallest_surviving_point() {
    let design = mux_tree_circuit(4, 2);
    let opts = fast_opts();
    let report = run_sweep(&design, &grid(), &opts).expect("sweep");
    let pick = pick_fabric(&design, &grid(), &opts)
        .expect("pick sweep")
        .expect("a surviving point on the seeded fixture");
    assert!(pick.verdict.survived());
    // Independent brute force over the same report: no surviving point may
    // be strictly smaller than the pick (area, ties by tiles then index).
    let best = report
        .points
        .iter()
        .filter(|p| p.verdict.survived())
        .min_by(|a, b| {
            a.area
                .total_cmp(&b.area)
                .then(a.tiles.cmp(&b.tiles))
                .then(a.index.cmp(&b.index))
        })
        .expect("fixture must have a survivor");
    assert_eq!(pick.index, best.index);
    assert_eq!(
        pick.to_json().to_string_compact(),
        best.to_json().to_string_compact()
    );
    for p in report.points.iter().filter(|p| p.verdict.survived()) {
        assert!(
            p.area >= pick.area,
            "point {} (area {}) undercuts the pick (area {})",
            p.index,
            p.area,
            pick.area
        );
    }
}
