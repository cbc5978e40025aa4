//! The oracle-guided SAT attack \[6\].
//!
//! Loop: (1) solve a miter of two locked copies with shared primary inputs
//! and independent keys, forcing some output to differ — a model is a
//! *distinguishing input pattern* (DIP); (2) query the oracle (the activated
//! chip) on the DIP; (3) constrain both key candidates to reproduce the
//! oracle's answer on that DIP; (4) repeat. When the miter is UNSAT, every
//! remaining key candidate is functionally correct; one is extracted and
//! verified.
//!
//! The DIP loop keeps **one persistent solver** for the whole attack: the
//! miter is encoded once with its difference clause gated behind an
//! activation literal, each DIP appends two pinned circuit copies to the
//! same solver (only the key-dependent cone left after folding the DIP's
//! constants), and learned clauses plus VSIDS/phase state carry across
//! iterations. Key extraction flips the activation literal on that same
//! solver instead of building another one.
//!
//! Each iteration is a pure function of the DIP prefix, which is the
//! property the checkpoint format depends on: a resumed run *replays* the
//! prefix solves deterministically from iteration 0 (using the recorded
//! oracle responses, so the oracle is not re-queried), arriving at the exact
//! solver state the interrupted run had — and therefore at the same key,
//! conflict totals, and byte-identical report JSON.
//!
//! Sequential designs enter through [`scan_frame`], matching the paper's
//! full-scan threat model: flip-flop outputs become scannable pseudo-inputs
//! and data pins pseudo-outputs, so a single combinational frame carries the
//! whole secret.

use shell_guard::{Budget, Exhausted};
use shell_netlist::equiv::{equiv_exhaustive, equiv_random, EquivResult};
use shell_netlist::{CellId, CellKind, NetId, Netlist};
use shell_sat::{encode_cell, encode_miter_gated, Lit, SatResult, Solver, Var};
use shell_synth::{resolve, resolve_cell, Resolution};
use shell_chaos::Io;
use shell_util::Json;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default conflict quota — the 48-hour stand-in at laptop scale.
pub const DEFAULT_CONFLICT_QUOTA: u64 = 2_000_000;

/// The checkpoint JSON's `mode` field: a constant format tag. Checkpoints
/// with another value (the retired rebuild-per-iteration loop's
/// `"scratch"`) are refused, and so are checkpoints without it, which that
/// loop wrote before the field existed.
const CHECKPOINT_MODE: &str = "incremental";

/// What a checkpoint without a `mode` field reads as.
const LEGACY_CHECKPOINT_MODE: &str = "scratch";

/// Attack configuration.
#[derive(Debug, Clone)]
pub struct SatAttackOptions {
    /// DIP-loop iteration cap (a structural timeout).
    pub max_iterations: usize,
    /// Shared governance token: one quota step is a solver conflict, spent
    /// by the DIP solves and the key extraction alike. Defaults to
    /// [`DEFAULT_CONFLICT_QUOTA`] conflicts plus whatever deadline
    /// `SHELL_DEADLINE_MS` specifies (see [`Budget::from_env`]).
    pub budget: Budget,
    /// Verify the extracted key against the oracle before claiming success.
    pub verify_key: bool,
    /// Vectors for the Monte-Carlo verification of wide designs.
    pub verify_vectors: usize,
    /// When set, a resumable [`AttackCheckpoint`] is written here after
    /// every completed DIP iteration (best-effort: I/O errors are ignored
    /// so a full disk cannot kill the attack).
    pub checkpoint_path: Option<PathBuf>,
    /// Resume state from an earlier exhausted run: the attack replays the
    /// prefix solves first to reconstruct the persistent solver, then
    /// continues.
    pub resume_from: Option<AttackCheckpoint>,
    /// Filesystem seam for checkpoint writes. Production keeps the default
    /// ([`shell_chaos::real`]); the crash-point matrix swaps in a
    /// `ChaosIo` so checkpoint commits are enumerable crash steps too.
    pub checkpoint_io: Arc<dyn Io>,
}

impl Default for SatAttackOptions {
    fn default() -> Self {
        Self {
            max_iterations: 512,
            budget: Budget::from_env().with_quota(DEFAULT_CONFLICT_QUOTA),
            verify_key: true,
            verify_vectors: 512,
            checkpoint_path: None,
            resume_from: None,
            checkpoint_io: shell_chaos::real(),
        }
    }
}

/// Resumable state of an interrupted SAT attack: the DIP/response prefix
/// plus spend bookkeeping. The DIP prefix determines the rest of the attack
/// exactly, so a resumed run produces the same key, iteration count, and
/// conflict total as an uninterrupted one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackCheckpoint {
    /// Name of the locked design the checkpoint belongs to (sanity-checked
    /// on resume).
    pub design: String,
    /// Completed DIP iterations.
    pub iterations: usize,
    /// Solver conflicts spent by the completed iterations. Partial work of
    /// an interrupted iteration is *not* recorded — and is excluded from
    /// the interrupted run's report too, so report and checkpoint always
    /// agree; the iteration re-runs in full on resume.
    pub conflicts_spent: u64,
    /// The `(dip, oracle response)` pairs recorded so far.
    pub dips: Vec<(Vec<bool>, Vec<bool>)>,
}

impl AttackCheckpoint {
    /// Serializes to the `results/checkpoints/*.json` schema.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("design", Json::Str(self.design.clone())),
            ("mode", Json::Str(CHECKPOINT_MODE.to_string())),
            ("iterations", Json::Num(self.iterations as f64)),
            ("conflicts_spent", Json::Num(self.conflicts_spent as f64)),
            (
                "dips",
                Json::arr(self.dips.iter().map(|(dip, response)| {
                    Json::obj([
                        ("input", Json::arr(dip.iter().map(|&b| Json::Bool(b)))),
                        (
                            "response",
                            Json::arr(response.iter().map(|&b| Json::Bool(b))),
                        ),
                    ])
                })),
            ),
        ])
    }

    /// Parses the [`AttackCheckpoint::to_json`] schema. A missing `mode`
    /// reads as `"scratch"`; any `mode` other than `"incremental"` is an
    /// error: such checkpoints were recorded by a DIP loop whose spend
    /// trajectory the persistent solver does not replay.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let design = json
            .get("design")
            .and_then(Json::as_str)
            .ok_or("checkpoint: missing `design`")?
            .to_string();
        let mode = json
            .get("mode")
            .and_then(Json::as_str)
            .unwrap_or(LEGACY_CHECKPOINT_MODE);
        if mode != CHECKPOINT_MODE {
            return Err(format!("checkpoint: unsupported mode `{mode}`"));
        }
        let iterations = json
            .get("iterations")
            .and_then(Json::as_usize)
            .ok_or("checkpoint: missing `iterations`")?;
        let conflicts_spent = json
            .get("conflicts_spent")
            .and_then(Json::as_u64)
            .ok_or("checkpoint: missing `conflicts_spent`")?;
        let dip_items = json
            .get("dips")
            .and_then(Json::as_arr)
            .ok_or("checkpoint: missing `dips`")?;
        let mut dips = Vec::with_capacity(dip_items.len());
        for item in dip_items {
            let bools = |key: &str| -> Result<Vec<bool>, String> {
                item.get(key)
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("checkpoint: dip missing `{key}`"))?
                    .iter()
                    .map(|b| b.as_bool().ok_or_else(|| format!("checkpoint: non-bool in `{key}`")))
                    .collect()
            };
            dips.push((bools("input")?, bools("response")?));
        }
        if dips.len() != iterations {
            return Err(format!(
                "checkpoint: {} dips but {} iterations",
                dips.len(),
                iterations
            ));
        }
        Ok(Self {
            design,
            iterations,
            conflicts_spent,
            dips,
        })
    }

    /// Writes the checkpoint (pretty JSON), creating parent directories.
    /// Atomic (temp file + fsync + rename): a crash mid-save leaves the
    /// previous checkpoint intact, never a torn one.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        self.save_with(&shell_chaos::RealIo, path)
    }

    /// [`AttackCheckpoint::save`] through an explicit [`Io`] seam, so fault
    /// injection can enumerate the checkpoint commit's crash points.
    pub fn save_with(&self, io: &dyn Io, path: &Path) -> std::io::Result<()> {
        shell_chaos::atomic_write(io, path, self.to_json().to_string_pretty().as_bytes())
    }

    /// Loads a checkpoint written by [`AttackCheckpoint::save`].
    pub fn load(path: &Path) -> Result<Self, String> {
        Self::load_with(&shell_chaos::RealIo, path)
    }

    /// [`AttackCheckpoint::load`] through an explicit [`Io`] seam.
    pub fn load_with(io: &dyn Io, path: &Path) -> Result<Self, String> {
        let text = shell_chaos::read_string(io, path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&Json::parse(&text)?)
    }
}

/// Attack outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatAttackOutcome {
    /// A functionally correct key was recovered: the design is **broken**.
    Broken {
        /// The recovered key.
        key: Vec<bool>,
        /// DIP iterations used.
        iterations: usize,
        /// Total solver conflicts.
        conflicts: u64,
    },
    /// The budget ran out first: **resilient** within this budget.
    Resilient {
        /// DIP iterations completed.
        iterations: usize,
        /// Total solver conflicts.
        conflicts: u64,
    },
    /// The attack terminated with a key that fails verification (e.g. a
    /// cyclic-reduction cut severed the functional path) or with an
    /// inconsistent constraint set. The design survives, but for structural
    /// reasons rather than budget exhaustion.
    WrongKey {
        /// The non-functional candidate key.
        key: Vec<bool>,
        /// DIP iterations used.
        iterations: usize,
    },
}

impl SatAttackOutcome {
    /// `true` when a correct key was extracted.
    pub fn is_broken(&self) -> bool {
        matches!(self, SatAttackOutcome::Broken { .. })
    }
}

/// Full attack report: the outcome plus partial-progress accounting, so an
/// exhausted attack says *how far* it got instead of silently stopping.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// The attack outcome.
    pub outcome: SatAttackOutcome,
    /// DIPs recorded (including any restored from a resume checkpoint).
    pub dips_found: usize,
    /// Solver conflicts spent by *completed* work: every finished DIP
    /// iteration plus the key-extraction solve. Partial work of an
    /// interrupted iteration is excluded — the checkpoint excludes it too,
    /// so an interrupted report and its checkpoint always agree, and a
    /// resumed run reproduces the uninterrupted total exactly.
    pub conflicts_spent: u64,
    /// Why the attack stopped early, when it did.
    pub stop: Option<Exhausted>,
    /// Iterations restored from [`SatAttackOptions::resume_from`]
    /// (0 for a fresh run). Provenance only — deliberately absent from
    /// [`AttackReport::to_json`] so resumed and uninterrupted runs emit
    /// byte-identical reports.
    pub resumed_from: usize,
    /// Where the last checkpoint was written, if checkpointing was on.
    pub checkpoint_written: Option<PathBuf>,
}

impl AttackReport {
    /// Deterministic report JSON. Contains only run-invariant fields: a run
    /// resumed from a checkpoint serializes byte-identically to the same
    /// attack run uninterrupted.
    pub fn to_json(&self) -> Json {
        let (status, key, iterations, conflicts) = match &self.outcome {
            SatAttackOutcome::Broken {
                key,
                iterations,
                conflicts,
            } => ("broken", Some(key.clone()), *iterations, *conflicts),
            SatAttackOutcome::Resilient {
                iterations,
                conflicts,
            } => ("resilient", None, *iterations, *conflicts),
            SatAttackOutcome::WrongKey { key, iterations } => {
                ("wrong_key", Some(key.clone()), *iterations, self.conflicts_spent)
            }
        };
        Json::obj([
            ("status", Json::Str(status.to_string())),
            (
                "key",
                match key {
                    Some(k) => Json::arr(k.iter().map(|&b| Json::Bool(b))),
                    None => Json::Null,
                },
            ),
            ("iterations", Json::Num(iterations as f64)),
            ("conflicts", Json::Num(conflicts as f64)),
            ("dips_found", Json::Num(self.dips_found as f64)),
            ("conflicts_spent", Json::Num(self.conflicts_spent as f64)),
            (
                "stop",
                match self.stop {
                    Some(e) => Json::Str(e.label().to_string()),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Typed failure of [`try_scan_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanError {
    /// The design contains a transparent latch; scan frames model
    /// edge-triggered DFFs only.
    Latch {
        /// Name of the offending cell.
        cell: String,
    },
    /// A DFF data pin is fed by a net that no cell drives and no port
    /// realizes, so the scan output would be undefined.
    UnrealizedDataPin {
        /// Name of the DFF whose data pin is unrealized.
        cell: String,
    },
    /// The combinational core of the design is cyclic.
    Cyclic,
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Latch { cell } => {
                write!(f, "latch `{cell}` not supported in scan frames")
            }
            ScanError::UnrealizedDataPin { cell } => write!(
                f,
                "data pin of DFF `{cell}` is fed by an unrealized net"
            ),
            ScanError::Cyclic => write!(f, "cyclic netlist"),
        }
    }
}

impl std::error::Error for ScanError {}

/// Converts a sequential netlist into its full-scan combinational frame:
/// every DFF output becomes a primary input `scan_q<i>` and every DFF data
/// pin a primary output `scan_d<i>`. Combinational designs pass through
/// unchanged (cloned).
///
/// ```
/// use shell_netlist::{Netlist, CellKind};
/// use shell_attacks::try_scan_frame;
///
/// let mut n = Netlist::new("ff");
/// let d = n.add_input("d");
/// let q = n.add_cell("ff", CellKind::Dff, vec![d]);
/// n.add_output("q", q);
/// let frame = try_scan_frame(&n).unwrap();
/// assert!(frame.is_combinational());
/// assert_eq!(frame.inputs().len(), 2);   // d + scan_q0
/// assert_eq!(frame.outputs().len(), 2);  // q + scan_d0
/// ```
pub fn try_scan_frame(netlist: &Netlist) -> Result<Netlist, ScanError> {
    if netlist.is_combinational() {
        return Ok(netlist.clone());
    }
    let mut out = Netlist::new(format!("{}_frame", netlist.name()));
    let mut map: Vec<Option<NetId>> = vec![None; netlist.net_count()];
    for &n in netlist.inputs() {
        map[n.index()] = Some(out.add_input(netlist.net(n).name.clone()));
    }
    for &n in netlist.key_inputs() {
        map[n.index()] = Some(out.add_key_input(netlist.net(n).name.clone()));
    }
    // DFF outputs become scan inputs. Order the chain by cell *name* so two
    // functionally-equal designs with different construction orders (e.g.
    // an original and its redacted-and-reassembled twin) expose identical
    // scan frames.
    let mut seq = netlist.sequential_cells();
    seq.sort_by(|&a, &b| netlist.cell(a).name.cmp(&netlist.cell(b).name));
    for (i, &cid) in seq.iter().enumerate() {
        let c = netlist.cell(cid);
        if c.kind != CellKind::Dff {
            return Err(ScanError::Latch {
                cell: c.name.clone(),
            });
        }
        map[c.output.index()] = Some(out.add_input(format!("scan_q{i}")));
    }
    let order = netlist.topo_order().map_err(|_| ScanError::Cyclic)?;
    let resolve = |out: &mut Netlist, map: &mut Vec<Option<NetId>>, n: NetId| -> NetId {
        if let Some(m) = map[n.index()] {
            m
        } else {
            let m = out.add_net("floating");
            map[n.index()] = Some(m);
            m
        }
    };
    for cid in order {
        let c = netlist.cell(cid);
        if c.kind.is_sequential() {
            continue;
        }
        let ins: Vec<NetId> = c
            .inputs
            .iter()
            .map(|&n| resolve(&mut out, &mut map, n))
            .collect();
        let new = out.add_cell(c.name.clone(), c.kind, ins);
        map[c.output.index()] = Some(new);
    }
    for (name, n) in netlist.outputs() {
        let m = resolve(&mut out, &mut map, *n);
        out.add_output(name.clone(), m);
    }
    // DFF data pins become scan outputs. Unlike primary outputs (which may
    // legitimately read a floating net the design never drove), a dangling
    // data pin means the frame would invent state — a typed error, not a
    // silently-wrong frame.
    for (i, &cid) in seq.iter().enumerate() {
        let c = netlist.cell(cid);
        let d = c.inputs[0];
        let m = map[d.index()].ok_or_else(|| ScanError::UnrealizedDataPin {
            cell: c.name.clone(),
        })?;
        out.add_output(format!("scan_d{i}"), m);
    }
    Ok(out)
}

/// Panicking wrapper over [`try_scan_frame`], for callers that treat a
/// malformed design as a programming error.
///
/// # Panics
///
/// Panics with the [`ScanError`] message on latches, cyclic cores, or
/// unrealized DFF data pins.
pub fn scan_frame(netlist: &Netlist) -> Netlist {
    try_scan_frame(netlist).unwrap_or_else(|e| panic!("scan_frame: {e}"))
}

/// XOR-locks `oracle` by inserting one key XOR per primary output, on the
/// first `min(bits, outputs)` outputs (odd key bits are planted inverted so
/// the correct key is not all-zeros).
///
/// Because every key bit is independently observable at its own output,
/// **exactly one** key is functionally correct. That makes this lock a
/// determinism yardstick for the attack: any sound attack must recover this
/// exact key, so tests can compare recovered keys bit-for-bit. (Contrast
/// with internal-node XOR locks, where chained inversions can cancel and
/// many keys are correct.)
///
/// Returns the locked netlist and the unique correct key.
pub fn xor_lock_outputs(oracle: &Netlist, bits: usize) -> (Netlist, Vec<bool>) {
    let mut locked = oracle.clone();
    locked.set_name(format!("{}_xl", oracle.name()));
    let n = bits.min(locked.outputs().len());
    let mut key = Vec::with_capacity(n);
    for i in 0..n {
        let net = locked.outputs()[i].1;
        let k = locked.add_key_input(format!("xk{i}"));
        let invert = i % 2 == 1;
        let src = if invert {
            key.push(true);
            locked.add_cell(format!("xl_inv{i}"), CellKind::Not, vec![net])
        } else {
            key.push(false);
            net
        };
        let gate = locked.add_cell(format!("xl{i}"), CellKind::Xor, vec![src, k]);
        locked.set_output_net(i, gate);
    }
    (locked, key)
}

/// XOR-locks `oracle` by inserting one key XOR on the output of each of the
/// first `min(bits, cells)` internal cells (odd key bits planted inverted).
/// Unlike [`xor_lock_outputs`], the keyed nodes sit *inside* the cone, so
/// the SAT attack needs a genuine multi-DIP search to break the lock — this
/// is the standard "long-running attack" workload for benches, the service
/// resume tests, and anything else that must interrupt an attack
/// mid-flight. Chained inversions can cancel, so more than one key may be
/// functionally correct; compare recovered keys by function, not by bits.
///
/// Returns the locked netlist and the planted (correct) key.
pub fn xor_lock_cells(oracle: &Netlist, bits: usize) -> (Netlist, Vec<bool>) {
    let mut locked = oracle.clone();
    locked.set_name(format!("{}_xc", oracle.name()));
    let fanout = locked.fanout_table();
    let mut key = Vec::new();
    let targets: Vec<_> = locked.cells().map(|(id, _)| id).take(bits).collect();
    for (i, cid) in targets.into_iter().enumerate() {
        let out_net = locked.cell(cid).output;
        let k = locked.add_key_input(format!("k{i}"));
        // Correct key bit: 0 (XOR transparent) or 1 with an extra NOT.
        let invert = i % 2 == 1;
        let gate_in = if invert {
            let inv = locked.add_cell(format!("pre_inv{i}"), CellKind::Not, vec![out_net]);
            key.push(true);
            inv
        } else {
            key.push(false);
            out_net
        };
        let xored = locked.add_cell(format!("kx{i}"), CellKind::Xor, vec![gate_in, k]);
        for &(reader, pin) in &fanout[out_net.index()] {
            locked.rewire_input(reader, pin, xored);
        }
    }
    (locked, key)
}

/// Runs the oracle-guided SAT attack on `locked` against `oracle`.
///
/// Both netlists must be combinational (run [`scan_frame`] first) with the
/// same primary input/output counts; `oracle` must have no key inputs.
/// Thin wrapper over [`sat_attack_report`] for callers that only want the
/// outcome.
///
/// # Panics
///
/// Panics on shape mismatches or non-combinational inputs.
pub fn sat_attack(
    locked: &Netlist,
    oracle: &Netlist,
    options: &SatAttackOptions,
) -> SatAttackOutcome {
    sat_attack_report(locked, oracle, options).outcome
}

/// The full attack driver: [`sat_attack`] plus progress accounting,
/// per-iteration checkpointing, and resume.
///
/// One gated miter is encoded once; every iteration solves under the
/// `+activation` assumption, appends the found DIP's two pinned copies,
/// and keeps all learned clauses. On resume the loop starts from iteration
/// 0 and *replays* the checkpoint prefix: the solves re-run (deterministic,
/// so they re-find the recorded DIPs — asserted), the recorded oracle
/// responses are reused, and checkpoint writes are suppressed until the
/// replay passes the prefix, protecting the on-disk checkpoint from a
/// mid-replay crash.
///
/// # Panics
///
/// Panics on shape mismatches, non-combinational inputs, or a resume
/// checkpoint recorded for a different design.
pub fn sat_attack_report(
    locked: &Netlist,
    oracle: &Netlist,
    options: &SatAttackOptions,
) -> AttackReport {
    let _span = shell_trace::span!("attack.sat");
    assert!(locked.is_combinational(), "scan_frame the locked design first");
    assert!(oracle.is_combinational(), "scan_frame the oracle first");
    assert!(oracle.key_inputs().is_empty(), "oracle must be activated");
    assert_eq!(
        locked.inputs().len(),
        oracle.inputs().len(),
        "input shape mismatch"
    );
    assert_eq!(
        locked.outputs().len(),
        oracle.outputs().len(),
        "output shape mismatch"
    );
    if let Some(cp) = &options.resume_from {
        assert_eq!(
            cp.design,
            locked.name(),
            "resume checkpoint was recorded for a different design"
        );
    }
    let replay: &[(Vec<bool>, Vec<bool>)] = options
        .resume_from
        .as_ref()
        .map_or(&[], |cp| cp.dips.as_slice());
    let resumed_from = replay.len();

    let n_inputs = locked.inputs().len();
    let mut solver = Solver::new();
    solver.set_budget(Some(options.budget.clone()));
    let miter = encode_miter_gated(&mut solver, locked, locked);
    let act = miter.activation.expect("gated miter has an activation var");
    let mut pinner = DipPinner::new(&mut solver, locked);
    let oracle_order = oracle.topo_order().expect("combinational cycle");
    solver.take_delta(); // encoding cost is not a DIP-solve cost

    let mut iterations = 0usize;
    let mut conflicts = 0u64;
    let mut dips: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
    let mut checkpoint_written = None;

    let (outcome, stop) = loop {
        if iterations >= options.max_iterations {
            // Structural timeout, not a budget event.
            break (
                SatAttackOutcome::Resilient {
                    iterations,
                    conflicts,
                },
                None,
            );
        }
        // One span per DIP iteration; the iteration index lines up with the
        // `iterations` field of the checkpoint JSON, so a trace can be
        // joined against a resumed run's checkpoint.
        let _iter_span = shell_trace::span!("attack.sat.dip", iteration = iterations);
        let result = solver.solve_with_assumptions(&[Lit::pos(act)]);
        let delta = solver.take_delta();
        match result {
            SatResult::Unknown => {
                // Budget exhausted mid-iteration: the partial conflicts are
                // excluded from the report, matching the checkpoint (the
                // iteration re-runs in full on resume).
                let stop = solver.stop_reason().unwrap_or(Exhausted::Quota);
                break (
                    SatAttackOutcome::Resilient {
                        iterations,
                        conflicts,
                    },
                    Some(stop),
                );
            }
            SatResult::Unsat => {
                conflicts += delta.conflicts;
                // Miter UNSAT: every key consistent with all recorded DIP
                // constraints is functionally correct [6]. Extraction
                // reuses this solver with the difference clause gated OFF,
                // under a re-armed budget copy so it behaves identically
                // however the loop got here.
                solver.set_budget(Some(options.budget.fresh()));
                let extracted = solver.solve_with_assumptions(&[Lit::neg(act)]);
                conflicts += solver.take_delta().conflicts;
                let key: Option<Vec<bool>> = match extracted {
                    SatResult::Sat => Some(
                        miter
                            .lhs
                            .keys
                            .iter()
                            .map(|&k| solver.value(k).unwrap_or(false))
                            .collect(),
                    ),
                    _ => None,
                };
                let outcome = match key {
                    Some(key)
                        if !options.verify_key
                            || verify_key(locked, oracle, &key, options.verify_vectors) =>
                    {
                        SatAttackOutcome::Broken {
                            key,
                            iterations,
                            conflicts,
                        }
                    }
                    key => SatAttackOutcome::WrongKey {
                        key: key.unwrap_or_default(),
                        iterations,
                    },
                };
                break (outcome, None);
            }
            SatResult::Sat => {
                conflicts += delta.conflicts;
                // Read the model *before* appending constraints: adding a
                // clause backtracks to level 0 and discards it.
                let dip: Vec<bool> = miter
                    .lhs
                    .inputs
                    .iter()
                    .map(|&v| solver.value(v).unwrap_or(false))
                    .collect();
                debug_assert_eq!(dip.len(), n_inputs);
                iterations += 1;
                shell_trace::counter_add("attack.dips", 1);
                let replaying = iterations <= resumed_from;
                let response = if replaying {
                    let (recorded_dip, recorded_response) = &replay[iterations - 1];
                    assert_eq!(
                        &dip,
                        recorded_dip,
                        "resume replay diverged from the checkpoint at iteration {}: \
                         the checkpoint does not match this design",
                        iterations - 1
                    );
                    recorded_response.clone()
                } else {
                    oracle.eval_comb_in_order(&oracle_order, &dip, &[])
                };
                let stored = solver.num_clauses();
                pinner.fold(&dip);
                for keys in [&miter.lhs.keys, &miter.rhs.keys] {
                    pinner.pin(&mut solver, keys, &response);
                }
                shell_trace::counter_add(
                    "attack.pin_clauses",
                    (solver.num_clauses() - stored) as u64,
                );
                solver.take_delta(); // pinning propagations are not solve cost
                dips.push((dip, response));
                if replaying {
                    if iterations == resumed_from {
                        // Replay complete: the reconstructed trajectory must
                        // account for exactly the checkpointed spend.
                        let recorded = options
                            .resume_from
                            .as_ref()
                            .map(|cp| cp.conflicts_spent)
                            .unwrap_or(0);
                        assert_eq!(
                            conflicts, recorded,
                            "replayed conflict total disagrees with the checkpoint"
                        );
                    }
                } else if let Some(p) =
                    write_checkpoint(locked, options, iterations, conflicts, &dips)
                {
                    checkpoint_written = Some(p);
                }
            }
        }
    };

    AttackReport {
        outcome,
        dips_found: dips.len(),
        conflicts_spent: conflicts,
        stop,
        resumed_from,
        checkpoint_written,
    }
}

/// Writes a best-effort checkpoint; `None` when checkpointing is off or the
/// write failed (checkpointing must never kill the attack).
fn write_checkpoint(
    locked: &Netlist,
    options: &SatAttackOptions,
    iterations: usize,
    conflicts: u64,
    dips: &[(Vec<bool>, Vec<bool>)],
) -> Option<PathBuf> {
    let path = options.checkpoint_path.as_ref()?;
    let cp = AttackCheckpoint {
        design: locked.name().to_string(),
        iterations,
        conflicts_spent: conflicts,
        dips: dips.to_vec(),
    };
    cp.save_with(&*options.checkpoint_io, path)
        .ok()
        .map(|()| path.clone())
}

/// The DIP-pinned circuit copies of one attack. A copy fixes every primary
/// input to the DIP, so most of the locked netlist evaluates to constants:
/// [`DipPinner::fold`] propagates the DIP through the netlist with the
/// shrink step's per-cell rule ([`resolve_cell`]), in a topological order
/// computed once per attack, and keeps the undecided cells an output depends
/// on: the key-dependent cone. [`DipPinner::pin`] Tseitin-encodes only that
/// cone, on one copy's key variables, and pins the outputs to the oracle's
/// response.
///
/// For every key, a pinned copy is satisfiable exactly when the full copy
/// (`encode_netlist` with every input and output pinned by a unit clause)
/// is: a folded net carries its constant or aliased signal under every key,
/// and an undecided cell that no output depends on only defines a fresh
/// variable, which any assignment of its inputs can satisfy.
struct DipPinner<'a> {
    locked: &'a Netlist,
    /// `locked`'s topological order.
    order: Vec<CellId>,
    /// Per net: what the current DIP folds it to.
    res: Vec<Resolution>,
    /// Per net: whether an output of the current DIP depends on it.
    live: Vec<bool>,
    /// The current DIP's key-dependent cone, in topological order.
    cone: Vec<CellId>,
    /// Per net: its variable in the copy being encoded, once it has one.
    net_var: Vec<Option<Var>>,
    /// Variables fixed to `false` and `true`, read by cone cells whose
    /// inputs folded to constants.
    consts: [Var; 2],
    vals: Vec<Resolution>,
    ins: Vec<Var>,
}

impl<'a> DipPinner<'a> {
    fn new(solver: &mut Solver, locked: &'a Netlist) -> Self {
        let consts = [false, true].map(|b| {
            let v = solver.new_var();
            solver.add_clause(&[Lit::new(v, b)]);
            v
        });
        let nets = locked.net_count();
        Self {
            locked,
            order: locked.topo_order().expect("combinational cycle"),
            res: vec![Resolution::Unknown; nets],
            live: vec![false; nets],
            cone: Vec::new(),
            net_var: vec![None; nets],
            consts,
            vals: Vec::new(),
            ins: Vec::new(),
        }
    }

    /// Folds `dip` through the locked netlist and collects its cone.
    fn fold(&mut self, dip: &[bool]) {
        let Self {
            locked,
            order,
            res,
            live,
            cone,
            vals,
            ..
        } = self;
        res.fill(Resolution::Unknown);
        for (&n, &b) in locked.inputs().iter().zip(dip) {
            res[n.index()] = Resolution::Const(b);
        }
        cone.clear();
        for &cid in order.iter() {
            let c = locked.cell(cid);
            vals.clear();
            vals.extend(c.inputs.iter().map(|&n| resolve(res, n)));
            match resolve_cell(c.kind, c.output, vals) {
                Resolution::Unknown => cone.push(cid),
                r => res[c.output.index()] = r,
            }
        }
        live.fill(false);
        let mark = |live: &mut [bool], net: NetId| {
            if let Resolution::Alias(root) = resolve(res, net) {
                live[root.index()] = true;
            }
        };
        for (_, n) in locked.outputs() {
            mark(live, *n);
        }
        for &cid in cone.iter().rev() {
            let c = locked.cell(cid);
            if live[c.output.index()] {
                c.inputs.iter().for_each(|&n| mark(live, n));
            }
        }
        cone.retain(|&cid| live[locked.cell(cid).output.index()]);
    }

    /// Appends one copy of the folded cone on the key variables `keys` and
    /// pins its outputs to `response`. An output the DIP decided reads a
    /// constant variable, so its unit clause is either already satisfied or
    /// the empty clause: no key reproduces the oracle's answer.
    fn pin(&mut self, solver: &mut Solver, keys: &[Var], response: &[bool]) {
        let Self {
            locked,
            res,
            cone,
            net_var,
            consts,
            ins,
            ..
        } = self;
        net_var.fill(None);
        for (&n, &v) in locked.key_inputs().iter().zip(keys) {
            net_var[n.index()] = Some(v);
        }
        let mut var_of = |solver: &mut Solver, net: NetId| match resolve(res, net) {
            Resolution::Const(b) => consts[usize::from(b)],
            Resolution::Alias(root) => {
                *net_var[root.index()].get_or_insert_with(|| solver.new_var())
            }
            Resolution::Unknown => unreachable!("resolve ends at a constant or a root"),
        };
        for &cid in cone.iter() {
            let c = locked.cell(cid);
            ins.clear();
            ins.extend(c.inputs.iter().map(|&n| var_of(solver, n)));
            // An undecided output is its own root: this allocates its variable.
            let out = var_of(solver, c.output);
            encode_cell(solver, c.kind, ins, out);
        }
        for ((_, n), &want) in locked.outputs().iter().zip(response) {
            let v = var_of(solver, *n);
            solver.add_clause(&[Lit::new(v, want)]);
        }
    }
}

/// Checks the candidate key against the oracle (exhaustive up to 12 inputs,
/// Monte-Carlo beyond).
fn verify_key(locked: &Netlist, oracle: &Netlist, key: &[bool], vectors: usize) -> bool {
    let outcome = if locked.inputs().len() <= 12 {
        equiv_exhaustive(oracle, locked, &[], key)
    } else {
        equiv_random(oracle, locked, &[], key, vectors, 0xFACE)
    };
    matches!(outcome, EquivResult::Equivalent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_netlist::LutMask;
    use shell_util::{forall, Rng};

    /// The multi-DIP internal-node XOR lock, now public as
    /// [`xor_lock_cells`]; the tests keep their historical name.
    fn xor_lock(oracle: &Netlist, bits: usize) -> (Netlist, Vec<bool>) {
        xor_lock_cells(oracle, bits)
    }

    fn small_oracle() -> Netlist {
        shell_circuits_free_adder()
    }

    /// A 4-bit adder built inline (no dependency on shell-circuits to keep
    /// the crate graph lean).
    fn shell_circuits_free_adder() -> Netlist {
        let mut n = Netlist::new("oracle");
        let a: Vec<NetId> = (0..4).map(|i| n.add_input(format!("a{i}"))).collect();
        let b: Vec<NetId> = (0..4).map(|i| n.add_input(format!("b{i}"))).collect();
        let mut carry = n.add_cell("c0", CellKind::Const(false), vec![]);
        for i in 0..4 {
            let p = n.add_cell(format!("p{i}"), CellKind::Xor, vec![a[i], b[i]]);
            let s = n.add_cell(format!("s{i}"), CellKind::Xor, vec![p, carry]);
            let g = n.add_cell(format!("g{i}"), CellKind::And, vec![a[i], b[i]]);
            let pc = n.add_cell(format!("pc{i}"), CellKind::And, vec![p, carry]);
            carry = n.add_cell(format!("c{}", i + 1), CellKind::Or, vec![g, pc]);
            n.add_output(format!("s{i}"), s);
        }
        n.add_output("cout", carry);
        n
    }

    #[test]
    fn breaks_xor_locking() {
        let oracle = small_oracle();
        let (locked, true_key) = xor_lock(&oracle, 6);
        let outcome = sat_attack(&locked, &oracle, &SatAttackOptions::default());
        match outcome {
            SatAttackOutcome::Broken { key, iterations, .. } => {
                // The recovered key must be *functionally* correct; chained
                // inverted bits can cancel, so bit equality with true_key is
                // not required. The attack verified already; double-check.
                use shell_netlist::equiv::equiv_exhaustive;
                assert!(equiv_exhaustive(&oracle, &locked, &[], &key).is_equivalent());
                assert!(
                    equiv_exhaustive(&oracle, &locked, &[], &true_key).is_equivalent(),
                    "sanity: the planted key is correct too"
                );
                assert!(iterations <= 64);
            }
            other => panic!("expected break, got {other:?}"),
        }
    }

    #[test]
    fn breaks_output_xor_locking_with_the_planted_key() {
        // Output-XOR locking has a unique correct key, so any sound attack
        // must recover exactly it — the strongest check available without
        // pinning search internals.
        let oracle = small_oracle();
        let (locked, true_key) = xor_lock_outputs(&oracle, 5);
        match sat_attack(&locked, &oracle, &SatAttackOptions::default()) {
            SatAttackOutcome::Broken { key, .. } => assert_eq!(key, true_key),
            other => panic!("expected break, got {other:?}"),
        }
    }

    #[test]
    fn key_verification_detects_wrong_function() {
        // A "locked" design that is NOT the oracle under any key: the
        // attack must not claim Broken.
        let oracle = small_oracle();
        let mut locked = oracle.clone();
        let k = locked.add_key_input("k");
        // Corrupt one output irrecoverably: new_out0 = old_out0 XOR (a0 AND !k ... )
        let a0 = locked.inputs()[0];
        let nk = locked.add_cell("nk", CellKind::Not, vec![k]);
        let taint = locked.add_cell("taint", CellKind::And, vec![a0, nk]);
        let old = locked.outputs()[0].1;
        let bad = locked.add_cell("bad", CellKind::Xor, vec![old, taint, k]);
        // Replace output 0.
        let mut outs: Vec<(String, NetId)> = locked.outputs().to_vec();
        outs[0].1 = bad;
        let rebuilt = Netlist::new("locked_bad");
        // Rebuild quickly via clone trick: easier—construct fresh netlist by
        // copying locked and re-adding outputs is involved; instead assert on
        // the simpler property: attack on (locked-with-extra-output).
        let _ = outs;
        let _ = rebuilt;
        // Simpler scenario: oracle = AND, locked = OR with key XOR on output
        // (no key makes OR equal AND on all inputs).
        let mut oracle2 = Netlist::new("and");
        let x = oracle2.add_input("x");
        let y = oracle2.add_input("y");
        let f = oracle2.add_cell("f", CellKind::And, vec![x, y]);
        oracle2.add_output("f", f);
        let mut locked2 = Netlist::new("or_locked");
        let x2 = locked2.add_input("x");
        let y2 = locked2.add_input("y");
        let k2 = locked2.add_key_input("k");
        let g = locked2.add_cell("g", CellKind::Or, vec![x2, y2]);
        let f2 = locked2.add_cell("f", CellKind::Xor, vec![g, k2]);
        locked2.add_output("f", f2);
        let outcome = sat_attack(&locked2, &oracle2, &SatAttackOptions::default());
        assert!(
            !outcome.is_broken(),
            "no key makes OR⊕k equal AND: {outcome:?}"
        );
    }

    #[test]
    fn budget_exhaustion_reports_resilient() {
        let oracle = small_oracle();
        let (locked, _) = xor_lock(&oracle, 8);
        let opts = SatAttackOptions {
            max_iterations: 1,
            budget: Budget::unlimited().with_quota(1),
            ..Default::default()
        };
        let report = sat_attack_report(&locked, &oracle, &opts);
        assert!(matches!(report.outcome, SatAttackOutcome::Resilient { .. }));
        // Partial progress is reported, not silently dropped.
        assert!(report.stop.is_some() || report.dips_found >= 1);
    }

    #[test]
    fn cancellation_reports_resilient_with_reason() {
        let oracle = small_oracle();
        let (locked, _) = xor_lock(&oracle, 8);
        let budget = Budget::unlimited();
        budget.cancel();
        let opts = SatAttackOptions {
            budget,
            ..Default::default()
        };
        let report = sat_attack_report(&locked, &oracle, &opts);
        assert!(matches!(report.outcome, SatAttackOutcome::Resilient { .. }));
        assert_eq!(report.stop, Some(Exhausted::Cancelled));
    }

    #[test]
    fn checkpoint_json_round_trips() {
        let cp = AttackCheckpoint {
            design: "adder".to_string(),
            iterations: 2,
            conflicts_spent: 17,
            dips: vec![
                (vec![true, false], vec![false]),
                (vec![false, false], vec![true]),
            ],
        };
        let json = cp.to_json();
        // `mode` is a constant format tag.
        assert_eq!(json.get("mode").and_then(Json::as_str), Some("incremental"));
        let parsed = AttackCheckpoint::from_json(&json).unwrap();
        assert_eq!(parsed, cp);
        // Corrupt JSON is a typed error, not a panic.
        assert!(AttackCheckpoint::from_json(&Json::obj([("design", Json::Null)])).is_err());
    }

    /// A checkpoint's JSON with its `mode` field replaced (`None` drops it).
    fn checkpoint_json_with_mode(design: &str, mode: Option<&str>) -> Json {
        let mut json = AttackCheckpoint {
            design: design.to_string(),
            iterations: 0,
            conflicts_spent: 0,
            dips: Vec::new(),
        }
        .to_json();
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| k != "mode");
            if let Some(mode) = mode {
                fields.push(("mode".to_string(), Json::Str(mode.to_string())));
            }
        }
        json
    }

    #[test]
    fn checkpoint_without_mode_reads_as_scratch() {
        // Checkpoints from before the persistent solver carry no `mode`;
        // they were recorded by the retired scratch loop, read as such, and
        // are refused with the same error as an explicit `"scratch"`.
        let missing = AttackCheckpoint::from_json(&checkpoint_json_with_mode("adder", None));
        let scratch =
            AttackCheckpoint::from_json(&checkpoint_json_with_mode("adder", Some("scratch")));
        assert_eq!(missing, scratch);
        assert_eq!(
            missing,
            Err("checkpoint: unsupported mode `scratch`".to_string())
        );
    }

    #[test]
    #[should_panic(expected = "unsupported mode `scratch`")]
    fn resume_refuses_mode_mismatch() {
        // A checkpoint recorded by the scratch loop never reaches the
        // persistent solver: the resume path fails at parse time.
        let oracle = small_oracle();
        let (locked, _) = xor_lock(&oracle, 2);
        let json = checkpoint_json_with_mode(locked.name(), Some("scratch"));
        let cp = AttackCheckpoint::from_json(&json)
            .unwrap_or_else(|e| panic!("resume checkpoint refused: {e}"));
        let opts = SatAttackOptions {
            resume_from: Some(cp),
            ..Default::default()
        };
        sat_attack_report(&locked, &oracle, &opts);
    }

    #[test]
    fn resumed_attack_recovers_identical_key_and_report() {
        let oracle = small_oracle();
        let (locked, _) = xor_lock(&oracle, 6);

        // Reference: one uninterrupted run.
        let full = sat_attack_report(&locked, &oracle, &SatAttackOptions::default());
        let full_iters = match &full.outcome {
            SatAttackOutcome::Broken { iterations, .. } => *iterations,
            other => panic!("expected break, got {other:?}"),
        };
        assert!(full_iters >= 2, "need a multi-iteration attack to interrupt");

        // Interrupted run: kill it partway via a conflict quota, with
        // checkpointing on.
        let dir = std::env::temp_dir().join(format!(
            "shell_attack_cp_{}_{}",
            std::process::id(),
            full.conflicts_spent
        ));
        let cp_path = dir.join("sat_attack.json");
        let mut quota = 1;
        let checkpoint = loop {
            let opts = SatAttackOptions {
                budget: Budget::unlimited().with_quota(quota),
                checkpoint_path: Some(cp_path.clone()),
                ..Default::default()
            };
            let partial = sat_attack_report(&locked, &oracle, &opts);
            if matches!(partial.outcome, SatAttackOutcome::Resilient { .. })
                && partial.dips_found >= 1
            {
                assert_eq!(partial.stop, Some(Exhausted::Quota));
                let cp = AttackCheckpoint::load(&cp_path).expect("checkpoint readable");
                // The interrupted report and its checkpoint agree on spend:
                // partial work of the broken-off iteration is in neither.
                assert_eq!(partial.conflicts_spent, cp.conflicts_spent);
                assert_eq!(partial.dips_found, cp.iterations);
                break cp;
            }
            if partial.outcome.is_broken() {
                // Quota grew past the whole attack before yielding a
                // mid-attack interrupt with at least one DIP; rare, but
                // then there is nothing to resume — re-derive with a
                // smaller design instead of looping forever.
                panic!("could not interrupt the attack mid-flight");
            }
            quota += 1;
        };
        assert!(checkpoint.iterations >= 1);
        assert!(checkpoint.iterations < full_iters);

        // Resume and compare: same key, same totals, byte-identical JSON.
        let resumed = sat_attack_report(
            &locked,
            &oracle,
            &SatAttackOptions {
                resume_from: Some(checkpoint.clone()),
                ..Default::default()
            },
        );
        assert_eq!(resumed.resumed_from, checkpoint.iterations);
        assert_eq!(
            resumed.to_json().to_string_pretty(),
            full.to_json().to_string_pretty(),
            "resumed report must be byte-identical to the uninterrupted one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lut_locked_design_broken() {
        // Replace a gate with a keyed LUT (traditional LUT insertion,
        // Fig. 1a): SAT attack recovers the truth table.
        let mut oracle = Netlist::new("o");
        let a = oracle.add_input("a");
        let b = oracle.add_input("b");
        let c = oracle.add_input("c");
        let t = oracle.add_cell("t", CellKind::And, vec![a, b]);
        let f = oracle.add_cell("f", CellKind::Xor, vec![t, c]);
        oracle.add_output("f", f);

        // Locked: t is a 2-input "LUT" built from key bits via mux tree —
        // modeled directly as 4 key bits read by a LUT-of-keys structure.
        let mut locked = Netlist::new("l");
        let la = locked.add_input("a");
        let lb = locked.add_input("b");
        let lc = locked.add_input("c");
        let keys: Vec<NetId> = (0..4)
            .map(|i| locked.add_key_input(format!("k{i}")))
            .collect();
        // mux tree: sel (a,b) over keys.
        let m0 = locked.add_cell("m0", CellKind::Mux2, vec![la, keys[0], keys[1]]);
        let m1 = locked.add_cell("m1", CellKind::Mux2, vec![la, keys[2], keys[3]]);
        let t = locked.add_cell("t", CellKind::Mux2, vec![lb, m0, m1]);
        let f = locked.add_cell("f", CellKind::Xor, vec![t, lc]);
        locked.add_output("f", f);

        let outcome = sat_attack(&locked, &oracle, &SatAttackOptions::default());
        match outcome {
            SatAttackOutcome::Broken { key, .. } => {
                // AND truth table in (a,b) order: k[a + 2b]; only (1,1) → 1.
                // m0 = a?k1:k0 at b=0; correct key: k0=0,k1=0,k2=0,k3=1.
                assert_eq!(key, vec![false, false, false, true]);
            }
            other => panic!("expected break, got {other:?}"),
        }
    }

    #[test]
    fn scan_frame_exposes_state() {
        let mut n = Netlist::new("seq");
        let d = n.add_input("d");
        let q = n.add_cell("ff", CellKind::Dff, vec![d]);
        let f = n.add_cell("f", CellKind::Xor, vec![q, d]);
        n.add_output("f", f);
        let frame = scan_frame(&n);
        assert!(frame.is_combinational());
        assert_eq!(frame.inputs().len(), 2); // d + scan_q0
        assert_eq!(frame.outputs().len(), 2); // f + scan_d0
        // frame: f = scan_q0 ^ d, scan_d0 = d.
        assert_eq!(frame.eval_comb(&[true, false]), vec![true, true]);
        assert_eq!(frame.eval_comb(&[true, true]), vec![false, true]);
    }

    #[test]
    fn scan_frame_combinational_passthrough() {
        let oracle = small_oracle();
        let frame = scan_frame(&oracle);
        assert_eq!(frame.inputs().len(), oracle.inputs().len());
        assert_eq!(frame.outputs().len(), oracle.outputs().len());
    }

    #[test]
    fn unrealized_data_pin_is_a_typed_error() {
        // A DFF whose data pin reads a net that nothing drives: the frame
        // cannot realize the scan output. This used to panic with
        // `expect("data pin realized")`.
        let mut n = Netlist::new("dangling");
        let d = n.add_input("d");
        let floating = n.add_net("floating");
        let q = n.add_cell("ff_bad", CellKind::Dff, vec![floating]);
        let q2 = n.add_cell("ff_ok", CellKind::Dff, vec![d]);
        let f = n.add_cell("f", CellKind::Xor, vec![q, q2]);
        n.add_output("f", f);
        match try_scan_frame(&n) {
            Err(ScanError::UnrealizedDataPin { cell }) => assert_eq!(cell, "ff_bad"),
            other => panic!("expected UnrealizedDataPin, got {other:?}"),
        }
    }

    #[test]
    fn scan_frame_panics_with_scan_error_message() {
        let mut n = Netlist::new("dangling");
        let floating = n.add_net("floating");
        let q = n.add_cell("ff_bad", CellKind::Dff, vec![floating]);
        n.add_output("q", q);
        let err = std::panic::catch_unwind(|| scan_frame(&n)).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("ff_bad"), "panic names the cell: {msg}");
    }

    #[test]
    fn xor_lock_outputs_plants_a_unique_key() {
        let oracle = small_oracle();
        let (locked, key) = xor_lock_outputs(&oracle, 3);
        assert_eq!(key, vec![false, true, false]);
        use shell_netlist::equiv::equiv_exhaustive;
        assert!(equiv_exhaustive(&oracle, &locked, &[], &key).is_equivalent());
        // Any single-bit flip breaks it — that is what "unique" means here.
        for i in 0..key.len() {
            let mut wrong = key.clone();
            wrong[i] = !wrong[i];
            assert!(
                !equiv_exhaustive(&oracle, &locked, &[], &wrong).is_equivalent(),
                "flipping key bit {i} must break equivalence"
            );
        }
    }

    #[test]
    fn sequential_lock_attacked_via_frames() {
        // Sequential locked circuit: q' = d ^ k; out = q. Scan frames make
        // the key observable in one frame.
        let mut oracle = Netlist::new("so");
        let d = oracle.add_input("d");
        let q = oracle.add_cell("ff", CellKind::Dff, vec![d]);
        oracle.add_output("q", q);
        let mut locked = Netlist::new("sl");
        let ld = locked.add_input("d");
        let k = locked.add_key_input("k");
        let dx = locked.add_cell("dx", CellKind::Xor, vec![ld, k]);
        let dx2 = locked.add_cell("dx2", CellKind::Xor, vec![dx, k]);
        let lq = locked.add_cell("ff", CellKind::Dff, vec![dx2]);
        locked.add_output("q", lq);
        // dx2 = d ^ k ^ k = d: every key works; attack must find *a* key.
        let of = scan_frame(&oracle);
        let lf = scan_frame(&locked);
        let outcome = sat_attack(&lf, &of, &SatAttackOptions::default());
        assert!(outcome.is_broken(), "{outcome:?}");
    }

    /// The oracle of the pinned copy: the pinning the DIP loop did before
    /// [`DipPinner`], the whole locked netlist encoded on `keys` with every
    /// input and output pinned by a unit clause.
    fn pin_full_copy(
        solver: &mut Solver,
        locked: &Netlist,
        keys: &[Var],
        dip: &[bool],
        response: &[bool],
    ) {
        let fresh = shell_sat::encode_netlist(solver, locked, None, Some(keys));
        for (&v, &b) in fresh
            .inputs
            .iter()
            .zip(dip)
            .chain(fresh.outputs.iter().zip(response))
        {
            solver.add_clause(&[Lit::new(v, b)]);
        }
    }

    fn random_bits(rng: &mut Rng, n: usize) -> Vec<bool> {
        (0..n).map(|_| rng.gen_bool(0.5)).collect()
    }

    /// A random small locked netlist: 1–4 primary inputs, 1–6 key inputs
    /// and 1–12 cells (keyed XOR, MUX, AND, LUT, NOT, OR) over earlier nets.
    /// Its 1–3 outputs read cell outputs, except that with probability 1/2
    /// the last one reads a cell over primary inputs only, which no key
    /// affects.
    fn random_locked(rng: &mut Rng) -> Netlist {
        let mut n = Netlist::new("random_locked");
        let inputs: Vec<NetId> = (0..rng.gen_range(1..5))
            .map(|i| n.add_input(format!("i{i}")))
            .collect();
        let keys: Vec<NetId> = (0..rng.gen_range(1..7))
            .map(|i| n.add_key_input(format!("k{i}")))
            .collect();
        let mut nets: Vec<NetId> = inputs.iter().chain(&keys).copied().collect();
        let mut cells = Vec::new();
        for c in 0..rng.gen_range(1..13) {
            let pick = |rng: &mut Rng, n: usize| -> Vec<NetId> {
                (0..n).map(|_| nets[rng.gen_range(0..nets.len())]).collect()
            };
            let (kind, ins) = match rng.gen_range(0..6) {
                0 => {
                    let mut ins = pick(rng, 1);
                    ins.push(keys[rng.gen_range(0..keys.len())]);
                    (CellKind::Xor, ins)
                }
                1 => (CellKind::Mux2, pick(rng, 3)),
                2 => (CellKind::And, pick(rng, 2)),
                3 => {
                    let k = rng.gen_range(1..4);
                    let mask = rng.next_u64() & ((1u64 << (1 << k)) - 1);
                    (CellKind::Lut(LutMask::new(mask, k)), pick(rng, k))
                }
                4 => (CellKind::Not, pick(rng, 1)),
                _ => (CellKind::Or, pick(rng, 2)),
            };
            let out = n.add_cell(format!("c{c}"), kind, ins);
            nets.push(out);
            cells.push(out);
        }
        for o in 0..rng.gen_range(1..4) {
            n.add_output(format!("o{o}"), cells[rng.gen_range(0..cells.len())]);
        }
        if rng.gen_bool(0.5) {
            let a = inputs[rng.gen_range(0..inputs.len())];
            let b = inputs[rng.gen_range(0..inputs.len())];
            let free = n.add_cell("free", CellKind::Xor, vec![a, b]);
            n.add_output("free", free);
        }
        n
    }

    /// For every key: the pinned copies are satisfiable under it, the full
    /// copies are, and the netlist reproduces every response under it —
    /// all three or none.
    fn pinned_agrees_with_full_copy(
        locked: &Netlist,
        pairs: &[(Vec<bool>, Vec<bool>)],
    ) -> Result<(), String> {
        let n_keys = locked.key_inputs().len();
        let mut pinned = Solver::new();
        let pinned_keys: Vec<Var> = (0..n_keys).map(|_| pinned.new_var()).collect();
        let mut pinner = DipPinner::new(&mut pinned, locked);
        let mut full = Solver::new();
        let full_keys: Vec<Var> = (0..n_keys).map(|_| full.new_var()).collect();
        for (dip, response) in pairs {
            pinner.fold(dip);
            pinner.pin(&mut pinned, &pinned_keys, response);
            pin_full_copy(&mut full, locked, &full_keys, dip, response);
        }
        for code in 0..1u32 << n_keys {
            let key: Vec<bool> = (0..n_keys).map(|i| (code >> i) & 1 == 1).collect();
            let under = |vars: &[Var]| -> Vec<Lit> {
                vars.iter()
                    .zip(&key)
                    .map(|(&v, &b)| Lit::new(v, b))
                    .collect()
            };
            let p = pinned.solve_with_assumptions(&under(&pinned_keys)) == SatResult::Sat;
            let f = full.solve_with_assumptions(&under(&full_keys)) == SatResult::Sat;
            let e = pairs
                .iter()
                .all(|(dip, response)| locked.eval_comb_with_key(dip, &key) == *response);
            if p != f || f != e {
                return Err(format!(
                    "key {key:?}: pinned {p}, full {f}, evaluation {e} on {pairs:?}"
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn pinned_copy_is_equisatisfiable_with_the_full_copy_per_key() {
        forall(
            "pinned copy == full copy == evaluation, per key",
            0xD1_9C0E_u64,
            256,
            |rng| rng.next_u64(),
            |&seed| {
                let mut rng = Rng::seed_from_u64(seed);
                let locked = random_locked(&mut rng);
                let (n_in, n_out) = (locked.inputs().len(), locked.outputs().len());
                let pairs: Vec<(Vec<bool>, Vec<bool>)> = (0..rng.gen_range(1..4))
                    .map(|_| {
                        let dip = random_bits(&mut rng, n_in);
                        // Half the responses come from some key, so that some
                        // keys stay consistent; the rest are arbitrary.
                        let response = if rng.gen_bool(0.5) {
                            let key = random_bits(&mut rng, locked.key_inputs().len());
                            locked.eval_comb_with_key(&dip, &key)
                        } else {
                            random_bits(&mut rng, n_out)
                        };
                        (dip, response)
                    })
                    .collect();
                pinned_agrees_with_full_copy(&locked, &pairs)
            },
        );
    }

    #[test]
    fn key_independent_output_that_disagrees_rules_out_every_key() {
        // o0 = i0 ^ k0 is key-dependent; o1 = i0 & i1 is decided by the DIP
        // alone. A response that disagrees on o1 leaves no consistent key.
        let mut locked = Netlist::new("decided");
        let i0 = locked.add_input("i0");
        let i1 = locked.add_input("i1");
        let k0 = locked.add_key_input("k0");
        let o0 = locked.add_cell("o0", CellKind::Xor, vec![i0, k0]);
        let o1 = locked.add_cell("o1", CellKind::And, vec![i0, i1]);
        locked.add_output("o0", o0);
        locked.add_output("o1", o1);
        let dip = vec![true, true];
        pinned_agrees_with_full_copy(&locked, &[(dip.clone(), vec![false, true])]).unwrap();
        pinned_agrees_with_full_copy(&locked, &[(dip, vec![false, false])]).unwrap();
    }

    #[test]
    fn keyed_lut_mask_recovered() {
        // LUT cell whose mask is correct only for one key assignment via
        // LutMask-encoded locked structure exercise.
        let mut oracle = Netlist::new("o");
        let a = oracle.add_input("a");
        let b = oracle.add_input("b");
        let f = oracle.add_cell("f", CellKind::Lut(LutMask::new(0b0110, 2)), vec![a, b]);
        oracle.add_output("f", f);
        let (locked, true_key) = xor_lock(&oracle, 1);
        let outcome = sat_attack(&locked, &oracle, &SatAttackOptions::default());
        match outcome {
            SatAttackOutcome::Broken { key, .. } => assert_eq!(key, true_key),
            other => panic!("{other:?}"),
        }
    }
}
