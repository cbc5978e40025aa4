//! Shared infrastructure for the table/figure harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the index). This library provides the markdown
//! report printer, the standard resilience check (scan-frame →
//! cyclic-reduction → budgeted SAT attack) and the evaluation-scale
//! constants so every harness measures the same way.

use shell_attacks::{attack_scan_frames, SatAttackOptions, SatAttackOutcome};
use shell_circuits::Scale;
use shell_guard::Budget;
use shell_lock::RedactionOutcome;
use shell_netlist::Netlist;
use shell_util::Json;
use std::path::{Path, PathBuf};

/// Scale used by every table harness (keep modest: each table runs many
/// full PnR flows and SAT attacks).
pub fn eval_scale() -> Scale {
    Scale::small()
}

/// The budget stand-in for the paper's 48-hour SAT timeout, scaled to the
/// miniature benchmarks: iteration- and conflict-capped.
pub fn attack_budget() -> SatAttackOptions {
    SatAttackOptions {
        max_iterations: 24,
        budget: Budget::unlimited().with_quota(150_000),
        verify_key: true,
        verify_vectors: 128,
        ..SatAttackOptions::default()
    }
}

/// Outcome summary of the standard resilience check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resilience {
    /// The SAT attack recovered a working key.
    Broken {
        /// DIP iterations used.
        iterations: usize,
    },
    /// Budget exhausted (the paper's "timeout" row state).
    Resilient {
        /// DIP iterations completed before the budget ran out.
        iterations: usize,
    },
    /// The attack terminated with a non-functional key (cyclic reduction
    /// severed a needed path) — the design survives.
    WrongKey,
}

impl Resilience {
    /// Table cell text.
    pub fn cell(&self) -> String {
        match self {
            Resilience::Broken { iterations } => format!("BROKEN({iterations})"),
            Resilience::Resilient { .. } => "resilient".into(),
            Resilience::WrongKey => "resilient*".into(),
        }
    }
}

/// Runs the standard oracle-guided attack pipeline
/// ([`attack_scan_frames`]) against a redaction outcome under
/// [`attack_budget`]. A locked design without a frame comparable to the
/// oracle's is a conservative "resilient": the attack has no move to make.
pub fn check_resilience(original: &Netlist, outcome: &RedactionOutcome) -> Resilience {
    match attack_scan_frames(original, &outcome.locked, &attack_budget()) {
        None => Resilience::Resilient { iterations: 0 },
        Some(SatAttackOutcome::Broken { iterations, .. }) => Resilience::Broken { iterations },
        Some(SatAttackOutcome::Resilient { iterations, .. }) => {
            Resilience::Resilient { iterations }
        }
        Some(SatAttackOutcome::WrongKey { .. }) => Resilience::WrongKey,
    }
}

/// Markdown-ish table printer used by every harness.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!(" {:<w$} |", c, w = widths[i]));
            }
            line
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{:-<w$}|", "", w = w + 2));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout with a title.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==\n");
        println!("{}", self.render());
    }

    /// The table as JSON: one object per row, keyed by header.
    pub fn to_json(&self) -> Json {
        Json::arr(self.rows.iter().map(|row| {
            Json::obj(
                self.header
                    .iter()
                    .zip(row)
                    .map(|(k, v)| (k.as_str(), Json::from(v.as_str()))),
            )
        }))
    }
}

/// Writes a JSON artifact to [`results_path`]`(name)`.
///
/// The payload is wrapped as `{"jobs": N, "data": <json>}` so every results
/// artifact records the worker count (`SHELL_JOBS` / available parallelism)
/// it was produced with — numbers measured at different thread counts must
/// not be diffed silently.
///
/// Returns the path written.
///
/// # Errors
///
/// Returns the IO error text on failure.
pub fn write_results_json(name: &str, json: &Json) -> Result<String, String> {
    let payload = Json::obj([
        ("jobs", Json::from(shell_exec::current_jobs())),
        ("data", json.clone()),
    ]);
    write_json(&results_path(name), &payload)
}

/// Like [`write_results_json`] but to any `path`, and **without** the
/// `{"jobs": N, …}` wrapper, marked `"jobs_invariant": true` instead.
/// Reserved for artifacts whose contract is byte-identity across
/// `SHELL_JOBS` settings (the explore sweep): recording the worker count
/// would defeat the invariance check `scripts/verify.sh` performs by
/// diffing runs at different job counts.
///
/// # Errors
///
/// Returns the IO error text on failure.
pub fn write_invariant_results_json(path: &Path, json: &Json) -> Result<String, String> {
    let payload = Json::obj([("jobs_invariant", Json::Bool(true)), ("data", json.clone())]);
    write_json(path, &payload)
}

/// `results/<name>.json` at the workspace root, resolved relative to this
/// crate so it works from any CWD (cargo runs benches and binaries with
/// different working directories).
pub fn results_path(name: &str) -> PathBuf {
    results_root().join(format!("{name}.json"))
}

fn results_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Writes `payload` pretty-printed to `path`, creating its directory first.
/// Returns the path written.
///
/// # Errors
///
/// Returns the IO error text on failure.
pub fn write_json(path: &Path, payload: &Json) -> Result<String, String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, payload.to_string_pretty()).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}

/// Enables tracing when `SHELL_TRACE` is set (see `OBSERVABILITY.md`).
/// Call first thing in a bin's `main`; pair with [`trace_finish`].
pub fn trace_init() -> bool {
    shell_trace::init_from_env()
}

/// Exports the installed tracer (if any) to `results/trace/{name}.json`
/// (Chrome trace format, loadable in Perfetto) and
/// `results/trace/{name}.summary.txt` (timed span summary), printing both
/// paths on stderr. A no-op when tracing is disabled, so every bin can call
/// it unconditionally at exit.
pub fn trace_finish(name: &str) {
    let Some(tracer) = shell_trace::uninstall() else {
        return;
    };
    let dir = results_root().join("trace");
    match shell_trace::write_artifacts(&dir, name, &tracer.snapshot()) {
        Ok((json, summary)) => {
            eprintln!("trace: {}", json.display());
            eprintln!("trace summary: {}", summary.display());
        }
        Err(e) => eprintln!("could not write trace artifacts: {e}"),
    }
}

/// Formats an f64 to two decimals (the paper's table precision).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats an f64 to three decimals (Tables V/VII precision).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1.00".into()]);
        t.row(vec!["longer".into(), "2".into()]);
        let text = t.render();
        assert!(text.contains("| name   | value |"));
        assert!(text.contains("| longer | 2     |"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.239), "1.24");
        assert_eq!(f3(1.2394), "1.239");
    }

    #[test]
    fn resilience_cells() {
        assert_eq!(Resilience::Broken { iterations: 3 }.cell(), "BROKEN(3)");
        assert_eq!(Resilience::Resilient { iterations: 9 }.cell(), "resilient");
        assert_eq!(Resilience::WrongKey.cell(), "resilient*");
    }

    #[test]
    fn check_resilience_runs_end_to_end() {
        use shell_circuits::axi_xbar;
        use shell_lock::{shell_lock, ShellOptions};
        let design = axi_xbar(4, 1);
        let outcome = shell_lock(&design, &ShellOptions::default()).expect("flow");
        // Any verdict is acceptable at this scale; the pipeline must simply
        // run the cyclic-reduction + scan-frame + attack stack without
        // panicking and produce a printable cell.
        let verdict = check_resilience(&design, &outcome);
        assert!(!verdict.cell().is_empty());
    }

    #[test]
    fn attack_budget_is_bounded() {
        let b = attack_budget();
        assert!(b.max_iterations <= 64);
        assert!(b.budget.remaining_quota().unwrap_or(0) > 0);
        assert!(b.verify_key);
    }
}
