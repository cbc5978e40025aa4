//! Differential flow fuzzer driver (`cargo run --release --bin fuzz`).
//!
//! Pushes seeded random netlists through the full SheLL pipeline with
//! every stage boundary miter-checked (see `shell_verify::fuzz`), shrinks
//! any mismatch to a minimal replayable spec, and writes mismatch
//! artifacts under `results/fuzz/`.
//!
//! The report printed to stdout is **byte-identical for a given
//! `--samples`/`--seed` at any `SHELL_JOBS` setting** — `scripts/verify.sh`
//! relies on this to assert the parallel runtime cannot change results.
//! Progress/summary lines go to stderr. Exits nonzero when any sample
//! mismatches.
//!
//! Usage: `fuzz [--samples N] [--seed S] [--out FILE] [--artifacts DIR]`

use shell_verify::fuzz::{run, FuzzConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<(FuzzConfig, Option<PathBuf>), String> {
    let mut config = FuzzConfig::new(32, 7);
    config.artifact_dir = Some(PathBuf::from("results/fuzz"));
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--samples" => {
                config.samples = value("--samples")?
                    .parse()
                    .map_err(|e| format!("--samples: {e}"))?;
            }
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--artifacts" => config.artifact_dir = Some(PathBuf::from(value("--artifacts")?)),
            "--no-artifacts" => config.artifact_dir = None,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((config, out))
}

fn main() -> ExitCode {
    shell_bench::trace_init();
    let (config, out) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = run(&config);
    let rendered = report.to_json().to_string_pretty();
    match &out {
        Some(path) => std::fs::write(path, &rendered).expect("write report"),
        None => print!("{rendered}"),
    }
    eprintln!(
        "fuzz: {} samples (seed {}): {} ok, {} skipped, {} mismatches, {} artifacts",
        report.samples,
        report.seed,
        report.ok,
        report.skipped,
        report.mismatches,
        report.artifacts.len()
    );
    for path in &report.artifacts {
        eprintln!("fuzz:   artifact {}", path.display());
    }
    shell_bench::trace_finish("fuzz");
    if report.mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
