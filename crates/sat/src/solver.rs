//! An incremental CDCL (conflict-driven clause learning) SAT solver.
//!
//! Architecture follows the MiniSat lineage: two-watched-literal unit
//! propagation, first-UIP conflict analysis with non-chronological
//! backjumping, VSIDS variable activity with an indexed max-heap, phase
//! saving, and geometric restarts. The solver is *incremental*: clauses may
//! be added between [`Solver::solve`] calls and solving under
//! [`Solver::solve_with_assumptions`] is supported — both are required by the
//! oracle-guided SAT attack, which grows the formula by two circuit copies
//! per distinguishing input pattern. Learned clauses, VSIDS activity and
//! saved phases all survive across solve calls, so a long-lived solver keeps
//! getting cheaper as the formula grows.
//!
//! Clause storage is a **flat literal arena**: all clauses live contiguously
//! in one `Vec<Lit>` with small `{start, len}` headers, so unit propagation
//! walks cache-linear memory and conflict analysis reads clauses in place
//! without per-conflict allocation. [`Solver::reduce_learnts`] compacts the
//! learnt portion of the database between solves.
//!
//! Long-lived solvers report per-solve costs through the delta API
//! ([`Solver::take_delta`] / [`SolverStats::since`]); summing raw
//! [`Solver::stats`] snapshots across calls double-counts.
//!
//! A **conflict budget** ([`Solver::set_conflict_budget`]) reproduces the
//! paper's 48-hour attack timeout at laptop scale: when the budget is
//! exhausted the solver returns [`SatResult::Unknown`]. A shared
//! [`shell_guard::Budget`] can be attached with [`Solver::set_budget`]: the
//! solver then spends one quota step per conflict and polls the budget's
//! deadline/cancellation flag at every decision, so a single token governs
//! a whole attack across many solver instances. [`Solver::stop_reason`]
//! tells the two kinds of [`SatResult::Unknown`] apart.

use crate::cnf::{Cnf, Lit, Var};
use shell_guard::{Budget, Exhausted};

/// Result of a solve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A model was found; read it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget ran out before an answer was reached.
    Unknown,
}

/// Counters exposed for attack reporting and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total conflicts across all solve calls.
    pub conflicts: u64,
    /// Total decisions.
    pub decisions: u64,
    /// Total literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently in the database. Unlike the other fields
    /// this is a *level*, not a counter: [`SolverStats::since`] carries the
    /// current value through instead of subtracting.
    pub learnt_clauses: usize,
}

impl SolverStats {
    /// Counter deltas accumulated since the `earlier` snapshot (saturating,
    /// so a snapshot from a different solver degrades to zeros rather than
    /// wrapping). `learnt_clauses` is a level and is carried through as-is.
    pub fn since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            learnt_clauses: self.learnt_clauses,
        }
    }
}

const UNDEF_CLAUSE: u32 = u32::MAX;

/// The learnt database is reduced when it exceeds this many clauses plus
/// half the input-clause count (checked at each solve-call entry, so a
/// reduction never lands mid-search).
const REDUCE_LEARNTS_BASE: usize = 2000;

/// Header of one clause in the literal arena. Positions `start` and
/// `start + 1` are always the two watched literals — [`Solver::propagate`]
/// maintains that invariant by swapping literals in place.
#[derive(Debug, Clone, Copy)]
struct ClauseHeader {
    start: u32,
    len: u32,
    learnt: bool,
}

/// Indexed max-heap over variable activities (the VSIDS order).
#[derive(Debug, Clone, Default)]
struct VarHeap {
    heap: Vec<Var>,
    /// `positions[v] == usize::MAX` when `v` is not in the heap.
    positions: Vec<usize>,
}

impl VarHeap {
    fn ensure(&mut self, n: usize) {
        while self.positions.len() < n {
            self.positions.push(usize::MAX);
        }
    }

    fn contains(&self, v: Var) -> bool {
        self.positions
            .get(v.index())
            .is_some_and(|&p| p != usize::MAX)
    }

    fn push(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.ensure(v.index() + 1);
        self.positions[v.index()] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("nonempty");
        self.positions[top.index()] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.positions[last.index()] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn bump(&mut self, v: Var, activity: &[f64]) {
        if let Some(&p) = self.positions.get(v.index()) {
            if p != usize::MAX {
                self.sift_up(p, activity);
            }
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i].index()] > activity[self.heap[parent].index()] {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len()
                && activity[self.heap[l].index()] > activity[self.heap[best].index()]
            {
                best = l;
            }
            if r < self.heap.len()
                && activity[self.heap[r].index()] > activity[self.heap[best].index()]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.positions[self.heap[a].index()] = a;
        self.positions[self.heap[b].index()] = b;
    }
}

/// The CDCL solver. See the [module docs](self) for the feature set.
#[derive(Debug, Clone)]
pub struct Solver {
    /// Flat literal storage; clause `i` occupies
    /// `arena[clauses[i].start .. clauses[i].start + clauses[i].len]`.
    arena: Vec<Lit>,
    clauses: Vec<ClauseHeader>,
    /// Learnt clauses currently in the database.
    num_learnt: usize,
    /// `watches[lit.code()]`: clauses in which `lit` is one of the two
    /// watched literals.
    watches: Vec<Vec<u32>>,
    assigns: Vec<Option<bool>>,
    /// Decision level of each assigned variable.
    level: Vec<u32>,
    /// Antecedent clause of each implied variable.
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    polarity: Vec<bool>,
    /// `false` once a top-level conflict proves global UNSAT.
    ok: bool,
    stats: SolverStats,
    budget: Option<u64>,
    /// Shared governance token; one quota step is spent per conflict.
    guard: Option<Budget>,
    /// Why the last solve returned [`SatResult::Unknown`], if it did.
    stop_reason: Option<Exhausted>,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// Stats snapshot at the last [`Solver::take_delta`] call.
    taken: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Self {
            arena: Vec::new(),
            clauses: Vec::new(),
            num_learnt: 0,
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: VarHeap::default(),
            polarity: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            budget: None,
            guard: None,
            stop_reason: None,
            seen: Vec::new(),
            taken: SolverStats::default(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(None);
        self.level.push(0);
        self.reason.push(UNDEF_CLAUSE);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.push(v, &self.activity);
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of stored problem clauses: the input clauses kept after
    /// normalization (units, tautologies and clauses satisfied at level 0
    /// are not stored). Learnt clauses are not counted.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len() - self.num_learnt
    }

    /// Limits the total number of conflicts future solve calls may spend
    /// (cumulative, compared against [`SolverStats::conflicts`]); `None`
    /// removes the limit.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    /// Attaches a shared [`Budget`]: the solver spends one quota step per
    /// conflict and polls the deadline/cancellation flag at every decision.
    /// Exhaustion makes solve calls return [`SatResult::Unknown`] (see
    /// [`Solver::stop_reason`]). `None` detaches.
    pub fn set_budget(&mut self, guard: Option<Budget>) {
        self.guard = guard;
    }

    /// Why the most recent solve call returned [`SatResult::Unknown`]:
    /// `Some(..)` for an exhausted [`Budget`], `None` for the plain
    /// cumulative conflict cap (or when the call answered Sat/Unsat).
    pub fn stop_reason(&self) -> Option<Exhausted> {
        self.stop_reason
    }

    /// Cumulative solver statistics since construction. For a long-lived
    /// solver, per-solve costs come from [`Solver::take_delta`] — summing
    /// these snapshots across calls double-counts.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.learnt_clauses = self.num_learnt;
        s
    }

    /// Statistics accumulated since the previous `take_delta` call (or since
    /// construction), and resets the baseline. This is the API attack
    /// drivers use: `conflicts += solver.take_delta().conflicts` stays
    /// correct whether the solver is fresh per call or persists across many.
    pub fn take_delta(&mut self) -> SolverStats {
        let now = self.stats();
        let delta = now.since(&self.taken);
        self.taken = now;
        delta
    }

    /// Adds a clause. Returns `false` when the clause makes the formula
    /// trivially unsatisfiable at the top level (empty clause or conflicting
    /// unit); the solver then answers [`SatResult::Unsat`] forever.
    ///
    /// Adding a clause after a [`SatResult::Sat`] answer discards the model
    /// (the solver backtracks to level 0 first).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        // Normalize: sort, dedupe, drop tautologies and false literals.
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        let mut filtered = Vec::with_capacity(c.len());
        for (i, &l) in c.iter().enumerate() {
            if i + 1 < c.len() && c[i + 1] == !l {
                return true; // tautology: x ∨ ¬x (sorted adjacency)
            }
            if i > 0 && c[i - 1] == !l {
                return true;
            }
            match self.lit_value(l) {
                Some(true) => return true, // already satisfied at level 0
                Some(false) => continue,   // falsified at level 0: drop
                None => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(filtered[0], UNDEF_CLAUSE);
                if self.propagate().is_some() {
                    self.ok = false;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_clause(&filtered, false);
                true
            }
        }
    }

    /// Loads all clauses of a [`Cnf`], allocating variables as needed.
    /// Returns `false` when the formula is trivially unsatisfiable.
    pub fn add_cnf(&mut self, cnf: &Cnf) -> bool {
        while self.num_vars() < cnf.num_vars as usize {
            self.new_var();
        }
        for c in &cnf.clauses {
            if !self.add_clause(c) {
                return false;
            }
        }
        true
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let idx = self.clauses.len() as u32;
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(lits);
        self.watches[lits[0].code()].push(idx);
        self.watches[lits[1].code()].push(idx);
        self.clauses.push(ClauseHeader {
            start,
            len: lits.len() as u32,
            learnt,
        });
        if learnt {
            self.num_learnt += 1;
        }
        idx
    }

    /// Value of a variable in the current (partial) assignment — after a
    /// [`SatResult::Sat`] answer this reads the model.
    pub fn value(&self, v: Var) -> Option<bool> {
        self.assigns[v.index()]
    }

    fn lit_value(&self, l: Lit) -> Option<bool> {
        self.assigns[l.var().index()].map(|b| b == l.is_positive())
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals. The assumptions behave as
    /// forced first decisions; [`SatResult::Unsat`] then means "unsat under
    /// these assumptions" and the solver remains usable.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        if !shell_trace::enabled() {
            return self.solve_inner(assumptions);
        }
        // One span per solve; counters carry the stat deltas so the CDCL
        // inner loop itself stays untouched.
        let _span = shell_trace::span!("sat.solve");
        let before = self.stats;
        let carried = self.num_learnt as u64;
        let result = self.solve_inner(assumptions);
        shell_trace::counter_add("sat.conflicts", self.stats.conflicts - before.conflicts);
        shell_trace::counter_add("sat.decisions", self.stats.decisions - before.decisions);
        shell_trace::counter_add(
            "sat.propagations",
            self.stats.propagations - before.propagations,
        );
        shell_trace::counter_add("sat.learned_kept", carried);
        shell_trace::gauge("sat.clauses_db", self.clauses.len() as f64);
        result
    }

    fn solve_inner(&mut self, assumptions: &[Lit]) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        self.cancel_until(0);
        self.stop_reason = None;
        if self.num_learnt > REDUCE_LEARNTS_BASE + (self.clauses.len() - self.num_learnt) / 2 {
            self.reduce_learnts();
        }
        let mut conflicts_until_restart = 100u64;
        let mut conflicts_this_epoch = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                // Conflict.
                self.stats.conflicts += 1;
                conflicts_this_epoch += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                if self.decision_level() <= assumptions.len() as u32 {
                    // The conflict depends only on assumptions.
                    self.cancel_until(0);
                    return SatResult::Unsat;
                }
                let (learnt, backtrack) = self.analyze(confl, assumptions.len() as u32);
                self.cancel_until(backtrack);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], UNDEF_CLAUSE);
                } else {
                    let asserting = learnt[0];
                    let idx = self.attach_clause(&learnt, true);
                    self.unchecked_enqueue(asserting, idx);
                }
                self.decay_activity();
                if let Some(b) = self.budget {
                    if self.stats.conflicts >= b {
                        self.cancel_until(0);
                        return SatResult::Unknown;
                    }
                }
                if let Some(guard) = &self.guard {
                    if let Err(why) = guard.spend(1) {
                        self.stop_reason = Some(why);
                        self.cancel_until(0);
                        return SatResult::Unknown;
                    }
                }
                if conflicts_this_epoch >= conflicts_until_restart {
                    conflicts_this_epoch = 0;
                    conflicts_until_restart = (conflicts_until_restart * 3) / 2;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
            } else {
                // No conflict: poll the guard (deadline/cancellation can
                // trip without a single conflict), then pick the next
                // assumption or decide.
                if let Some(guard) = &self.guard {
                    if let Err(why) = guard.checkpoint() {
                        self.stop_reason = Some(why);
                        self.cancel_until(0);
                        return SatResult::Unknown;
                    }
                }
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        Some(true) => {
                            // Already satisfied: open an (empty) level so the
                            // assumption indexing stays aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => {
                            self.cancel_until(0);
                            return SatResult::Unsat;
                        }
                        None => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, UNDEF_CLAUSE);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        // Full assignment: model found. Leave the trail in
                        // place so `value` reads the model, but remember we
                        // must cancel on the next call (done at entry).
                        return SatResult::Sat;
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = Lit::new(v, self.polarity[v.index()]);
                        self.unchecked_enqueue(lit, UNDEF_CLAUSE);
                    }
                }
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: u32) {
        let v = l.var();
        debug_assert!(self.assigns[v.index()].is_none());
        self.assigns[v.index()] = Some(l.is_positive());
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        self.trail.push(l);
    }

    /// Two-watched-literal unit propagation. Returns the conflicting clause
    /// index, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p; // literals watching ¬p must be checked
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < watch_list.len() {
                let cref = watch_list[i];
                let h = self.clauses[cref as usize];
                let s = h.start as usize;
                let e = s + h.len as usize;
                // Ensure the false literal is at position 1.
                if self.arena[s] == false_lit {
                    self.arena.swap(s, s + 1);
                }
                debug_assert_eq!(self.arena[s + 1], false_lit);
                let first = self.arena[s];
                // If the other watch is true, clause is satisfied.
                if self.assigns[first.var().index()].map(|b| b == first.is_positive()) == Some(true)
                {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut found = false;
                for k in (s + 2)..e {
                    let l = self.arena[k];
                    let val = self.assigns[l.var().index()].map(|b| b == l.is_positive());
                    if val != Some(false) {
                        self.arena.swap(s + 1, k);
                        self.watches[l.code()].push(cref);
                        watch_list.swap_remove(i);
                        found = true;
                        break;
                    }
                }
                if found {
                    continue;
                }
                // Clause is unit or conflicting.
                if self.assigns[first.var().index()].is_none() {
                    self.unchecked_enqueue(first, cref);
                    i += 1;
                } else {
                    // Conflict: restore the watch list and bail.
                    self.watches[false_lit.code()] = watch_list;
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
            }
            self.watches[false_lit.code()] = watch_list;
        }
        None
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level (never below the assumption
    /// levels, `assumption_levels`).
    fn analyze(&mut self, confl: u32, assumption_levels: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = confl;
        let current_level = self.decision_level();
        loop {
            let h = self.clauses[confl as usize];
            let s = h.start as usize;
            let skip = if p.is_some() { 1 } else { 0 };
            // Read the clause in place from the arena — no allocation on
            // this per-conflict path.
            for j in (s + skip)..(s + h.len as usize) {
                let q = self.arena[j];
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to expand from the trail.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found").var();
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = self.reason[pv.index()];
            debug_assert_ne!(confl, UNDEF_CLAUSE, "UIP literal must have a reason");
        }
        let uip = !p.expect("uip literal");
        // Clear `seen` for the learnt literals.
        for l in &learnt {
            self.seen[l.var().index()] = false;
        }
        // Backjump level: highest level among the non-UIP literals. A unit
        // learnt clause (UIP only) is implied by the formula alone, so it is
        // asserted at level 0; the search loop re-places assumptions after.
        let mut backtrack = 0;
        if !learnt.is_empty() {
            backtrack = assumption_levels.min(current_level.saturating_sub(1));
            // Move the max-level literal to position 1 for watching.
            let mut max_i = 0;
            for (i, l) in learnt.iter().enumerate() {
                if self.level[l.var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            backtrack = backtrack.max(self.level[learnt[max_i].var().index()]);
            learnt.swap(0, max_i);
        }
        let mut result = Vec::with_capacity(learnt.len() + 1);
        result.push(uip);
        result.extend(learnt);
        (result, backtrack)
    }

    fn cancel_until(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        let boundary = self.trail_lim[target_level as usize];
        for i in (boundary..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.polarity[v.index()] = l.is_positive(); // phase saving
            self.assigns[v.index()] = None;
            self.reason[v.index()] = UNDEF_CLAUSE;
            self.heap.push(v, &self.activity);
        }
        self.trail.truncate(boundary);
        self.trail_lim.truncate(target_level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.assigns[v.index()].is_none() {
                return Some(v);
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.bump(v, &self.activity);
    }

    fn decay_activity(&mut self) {
        self.var_inc /= 0.95;
    }

    /// Shrinks the learnt-clause database: binary learnt clauses are always
    /// kept, and of the longer ones the oldest half is dropped. The solver
    /// backtracks to level 0 first, so this is safe between solves (learnt
    /// clauses are implied by the input formula — deleting them can never
    /// change an answer, only the search path). Called automatically when
    /// the learnt database outgrows the input formula; public so callers
    /// with their own memory pressure signal can compact eagerly.
    pub fn reduce_learnts(&mut self) {
        self.cancel_until(0);
        let long: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&i| {
                let h = self.clauses[i as usize];
                h.learnt && h.len > 2
            })
            .collect();
        let drop_n = long.len() / 2;
        if drop_n == 0 {
            return;
        }
        let mut drop = vec![false; self.clauses.len()];
        // Clause indices grow over time, so the front of `long` is oldest.
        for &c in &long[..drop_n] {
            drop[c as usize] = true;
        }
        let mut arena = Vec::with_capacity(self.arena.len());
        let mut clauses = Vec::with_capacity(self.clauses.len() - drop_n);
        for (&h, dropped) in self.clauses.iter().zip(drop) {
            if dropped {
                continue;
            }
            let s = h.start as usize;
            let start = arena.len() as u32;
            arena.extend_from_slice(&self.arena[s..s + h.len as usize]);
            clauses.push(ClauseHeader {
                start,
                len: h.len,
                learnt: h.learnt,
            });
        }
        self.arena = arena;
        self.clauses = clauses;
        self.num_learnt -= drop_n;
        // Rebuild the watch lists. Positions 0 and 1 are the watched
        // literals by invariant, and level-0 propagation already ran to
        // fixpoint, so re-watching the same positions reproduces a valid
        // watch state.
        for w in &mut self.watches {
            w.clear();
        }
        for i in 0..self.clauses.len() {
            let s = self.clauses[i].start as usize;
            let (w0, w1) = (self.arena[s].code(), self.arena[s + 1].code());
            self.watches[w0].push(i as u32);
            self.watches[w1].push(i as u32);
        }
        // Compaction renumbers clauses; stale antecedent indices must not
        // survive. Only level-0 assignments remain and conflict analysis
        // never expands those, so clearing every reason is sound.
        for r in &mut self.reason {
            *r = UNDEF_CLAUSE;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        assert!(!s.add_clause(&[Lit::neg(v[0])]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn tautology_ignored() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[Lit::pos(v[0]), Lit::neg(v[0])]));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn xor_chain_sat() {
        // x0 ⊕ x1 = 1, x1 ⊕ x2 = 1, ... pairwise constraints; satisfiable.
        let mut s = Solver::new();
        let v = lits(&mut s, 10);
        for w in v.windows(2) {
            let (a, b) = (w[0], w[1]);
            // a ⊕ b: (a ∨ b) ∧ (¬a ∨ ¬b)
            s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
            s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        for w in v.windows(2) {
            assert_ne!(s.value(w[0]), s.value(w[1]));
        }
    }

    #[test]
    fn pigeonhole_3_in_2_unsat() {
        // 3 pigeons, 2 holes: var p_{i,h} = pigeon i in hole h.
        let mut s = Solver::new();
        let v = lits(&mut s, 6);
        let p = |i: usize, h: usize| v[i * 2 + h];
        for i in 0..3 {
            s.add_clause(&[Lit::pos(p(i, 0)), Lit::pos(p(i, 1))]);
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause(&[Lit::neg(p(i, h)), Lit::neg(p(j, h))]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_larger_unsat() {
        // 6 pigeons, 5 holes — forces real conflict analysis and restarts.
        let n = 6;
        let h = 5;
        let mut s = Solver::new();
        let v = lits(&mut s, n * h);
        let p = |i: usize, k: usize| v[i * h + k];
        for i in 0..n {
            let clause: Vec<Lit> = (0..h).map(|k| Lit::pos(p(i, k))).collect();
            s.add_clause(&clause);
        }
        for k in 0..h {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause(&[Lit::neg(p(i, k)), Lit::neg(p(j, k))]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        // a → b
        s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1])]);
        assert_eq!(
            s.solve_with_assumptions(&[Lit::pos(v[0]), Lit::neg(v[1])]),
            SatResult::Unsat
        );
        // Solver remains usable.
        assert_eq!(
            s.solve_with_assumptions(&[Lit::pos(v[0]), Lit::pos(v[1])]),
            SatResult::Sat
        );
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.add_clause(&[Lit::neg(v[0])]);
        s.add_clause(&[Lit::neg(v[1])]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn budget_returns_unknown() {
        // A hard pigeonhole with a tiny budget must return Unknown.
        let n = 8;
        let h = 7;
        let mut s = Solver::new();
        let v = lits(&mut s, n * h);
        let p = |i: usize, k: usize| v[i * h + k];
        for i in 0..n {
            let clause: Vec<Lit> = (0..h).map(|k| Lit::pos(p(i, k))).collect();
            s.add_clause(&clause);
        }
        for k in 0..h {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause(&[Lit::neg(p(i, k)), Lit::neg(p(j, k))]);
                }
            }
        }
        s.set_conflict_budget(Some(5));
        assert_eq!(s.solve(), SatResult::Unknown);
        // Raising the budget lets it finish.
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn model_satisfies_formula_randomized() {
        // Random 3-SAT at low clause density (very likely SAT); verify the
        // model against the original formula.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..10 {
            let mut s = Solver::new();
            let n = 30;
            let v = lits(&mut s, n);
            let mut formula: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..60 {
                let mut clause = Vec::new();
                for _ in 0..3 {
                    let var = v[(next() % n as u64) as usize];
                    clause.push(Lit::new(var, next() & 1 == 1));
                }
                formula.push(clause.clone());
                s.add_clause(&clause);
            }
            if s.solve() == SatResult::Sat {
                let model: Vec<bool> = v.iter().map(|&x| s.value(x).unwrap_or(false)).collect();
                for clause in &formula {
                    assert!(
                        clause
                            .iter()
                            .any(|l| model[l.var().index()] == l.is_positive()),
                        "round {round}: model violates clause"
                    );
                }
            }
        }
    }

    #[test]
    fn add_cnf_bulk() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause(vec![Lit::pos(a)]);
        cnf.add_clause(vec![Lit::neg(a), Lit::pos(b)]);
        let mut s = Solver::new();
        assert!(s.add_cnf(&cnf));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn stats_collected() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::pos(v[2]), Lit::pos(v[3])]);
        s.solve();
        let st = s.stats();
        assert!(st.decisions > 0 || st.propagations > 0);
    }

    fn pigeonhole(s: &mut Solver, n: usize, h: usize) {
        let v = lits(s, n * h);
        let p = |i: usize, k: usize| v[i * h + k];
        for i in 0..n {
            let clause: Vec<Lit> = (0..h).map(|k| Lit::pos(p(i, k))).collect();
            s.add_clause(&clause);
        }
        for k in 0..h {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause(&[Lit::neg(p(i, k)), Lit::neg(p(j, k))]);
                }
            }
        }
    }

    #[test]
    fn guard_quota_returns_unknown_with_reason() {
        use shell_guard::{Budget, Exhausted};
        let mut s = Solver::new();
        pigeonhole(&mut s, 8, 7);
        let b = Budget::unlimited().with_quota(5);
        s.set_budget(Some(b.clone()));
        assert_eq!(s.solve(), SatResult::Unknown);
        assert_eq!(s.stop_reason(), Some(Exhausted::Quota));
        assert_eq!(b.remaining_quota(), Some(0));
        // Detaching the guard lets it finish, and the reason clears.
        s.set_budget(None);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert_eq!(s.stop_reason(), None);
    }

    #[test]
    fn guard_cancellation_stops_solver() {
        use shell_guard::{Budget, Exhausted};
        let mut s = Solver::new();
        pigeonhole(&mut s, 8, 7);
        let b = Budget::unlimited();
        b.cancel();
        s.set_budget(Some(b));
        assert_eq!(s.solve(), SatResult::Unknown);
        assert_eq!(s.stop_reason(), Some(Exhausted::Cancelled));
    }

    #[test]
    fn guard_quota_exhaustion_is_deterministic() {
        use shell_guard::Budget;
        let run = |quota: u64| {
            let mut s = Solver::new();
            pigeonhole(&mut s, 8, 7);
            s.set_budget(Some(Budget::unlimited().with_quota(quota)));
            let r = s.solve();
            (r, s.stats().conflicts)
        };
        assert_eq!(run(17), run(17));
    }

    #[test]
    fn take_delta_partitions_cumulative_stats() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 6, 5);
        s.solve();
        let first = s.take_delta();
        assert!(first.conflicts > 0, "hard instance must conflict");
        // An immediately repeated take is empty.
        assert_eq!(s.take_delta().conflicts, 0);
        s.solve();
        let second = s.take_delta();
        // Deltas partition the cumulative totals exactly.
        assert_eq!(first.conflicts + second.conflicts, s.stats().conflicts);
        assert_eq!(first.decisions + second.decisions, s.stats().decisions);
        assert_eq!(
            first.propagations + second.propagations,
            s.stats().propagations
        );
    }

    #[test]
    fn since_is_saturating_and_carries_learnt_level() {
        let a = SolverStats {
            conflicts: 3,
            decisions: 10,
            propagations: 100,
            restarts: 1,
            learnt_clauses: 7,
        };
        let b = SolverStats {
            conflicts: 5,
            decisions: 4, // "earlier" ahead: foreign snapshot degrades to 0
            propagations: 150,
            restarts: 1,
            learnt_clauses: 2,
        };
        let d = b.since(&a);
        assert_eq!(d.conflicts, 2);
        assert_eq!(d.decisions, 0);
        assert_eq!(d.propagations, 50);
        assert_eq!(d.restarts, 0);
        assert_eq!(d.learnt_clauses, 2);
    }

    #[test]
    fn learnt_clauses_counts_only_learnt() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 6, 5);
        assert_eq!(s.stats().learnt_clauses, 0, "input clauses are not learnt");
        s.solve();
        assert!(s.stats().learnt_clauses > 0);
    }

    #[test]
    fn num_clauses_counts_stored_problem_clauses() {
        let mut s = Solver::new();
        assert_eq!(s.num_clauses(), 0);
        pigeonhole(&mut s, 6, 5);
        // 6 at-least-one clauses plus 5 holes x C(6, 2) at-most-one pairs.
        assert_eq!(s.num_clauses(), 6 + 5 * 15);
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0])]); // unit: enqueued, not stored
        s.add_clause(&[Lit::pos(v[1]), Lit::neg(v[1])]); // tautology
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]); // satisfied at level 0
        assert_eq!(s.num_clauses(), 81);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().learnt_clauses > 0);
        assert_eq!(s.num_clauses(), 81, "learnt clauses are not counted");
    }

    #[test]
    fn reduce_learnts_preserves_answers() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 6, 5);
        assert_eq!(s.solve(), SatResult::Unsat);

        let mut sat = Solver::new();
        pigeonhole(&mut sat, 6, 6); // 6 holes: satisfiable but conflict-heavy
        assert_eq!(sat.solve(), SatResult::Sat);
        let before = sat.stats().learnt_clauses;
        sat.reduce_learnts();
        assert!(sat.stats().learnt_clauses <= before);
        assert_eq!(
            sat.solve(),
            SatResult::Sat,
            "reduction keeps satisfiability"
        );
    }

    #[test]
    fn duplicate_literals_collapsed() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[0])]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
    }
}
