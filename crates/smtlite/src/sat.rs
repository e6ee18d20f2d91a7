//! A CDCL(T) SAT core sized for the SHATTER attack windows:
//! two-watched-literal propagation, first-UIP conflict learning,
//! decisions in variable-index order with phase saving, and a theory
//! hook for DPLL(T) integration.
//!
//! A window is small: 10 slots × 5 zones at ARAS, with fewer than one
//! decision per window on average. The core therefore carries none of
//! the machinery MiniSat (Eén and Sörensson, SAT 2003) tunes for large
//! industrial instances: no activity heuristic, no restarts, no
//! learnt-clause garbage collection, no clause minimization and no
//! separate binary-clause layer. Taking them out left every pinned
//! schedule as it was and made the formal scheduler faster.
//!
//! The solver is *incremental* along three axes the DPLL(T)/OMT drivers
//! exploit:
//!
//! - clauses may be added between [`SatSolver::solve`] calls, and learned
//!   clauses are retained across calls (the OMT probes of one window
//!   share what earlier probes learned);
//! - [`SatSolver::solve`] decides the clause set under a list of
//!   *assumption* literals without asserting them;
//! - the same call optionally consults a [`Theory`] during the search:
//!   theory conflicts are analyzed *in place* like Boolean conflicts (no
//!   solve-from-scratch per blocking clause), and theory-implied literals
//!   enter the trail through attached lemma clauses.
//!
//! No clause is ever removed, asserted or learned alike: a caller that
//! needs a solver's state again copies it first. `clone_from` copies every field
//! into the destination's existing allocations, so the copy replays
//! exactly like its source. The scheduler solves each window on such a
//! copy of its span template, so a window's learnt clauses live exactly
//! as long as the window. It learns one clause per conflict and one
//! lemma per theory-implied literal, and the trail only grows between
//! conflicts, so a conflict budget bounds how many it can hold.

/// A literal: variable index with a sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of a variable.
    pub fn pos(var: usize) -> Lit {
        Lit((var as u32) << 1)
    }

    /// Negative literal of a variable.
    pub fn neg(var: usize) -> Lit {
        Lit(((var as u32) << 1) | 1)
    }

    /// The underlying variable index.
    pub fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether this is the negated polarity.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite literal.
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Verdict of a SAT call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatVerdict {
    /// Satisfiable, with a full assignment per variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// Undecided: the deterministic conflict budget ran out. The solver
    /// backtracked to level 0 and remains usable — everything learned so
    /// far persists, so a re-solve with a larger budget resumes the
    /// search.
    Unknown,
}

/// View of the current (partial) assignment handed to a [`Theory`]
/// consultation.
pub struct TheoryView<'a> {
    assign: &'a [i8],
}

impl TheoryView<'_> {
    /// Value of a variable: `None` while unassigned.
    pub fn value(&self, var: usize) -> Option<bool> {
        match self.assign.get(var) {
            Some(&UNASSIGNED) | None => None,
            Some(&v) => Some(v == 1),
        }
    }

    /// The literal of `var` that is currently true, if assigned.
    pub fn asserted_lit(&self, var: usize) -> Option<Lit> {
        self.value(var)
            .map(|v| if v { Lit::pos(var) } else { Lit::neg(var) })
    }
}

/// Outcome of a [`Theory`] consultation.
#[derive(Debug, Clone)]
pub enum TheoryResult {
    /// The asserted literal set is theory-consistent and nothing new is
    /// implied.
    Ok,
    /// Theory-implied literals: each entry is `(implied, premises)` where
    /// every premise is currently true, `implied` is unassigned, and the
    /// lemma `¬p₁ ∨ … ∨ ¬pₖ ∨ implied` is theory-valid. The solver
    /// attaches each lemma as a learnt clause and enqueues the implied
    /// literal with it as reason. `premises` must be non-empty (a clause
    /// cannot watch a single literal); a premise-free theory fact should
    /// be reported as a `Conflict` of the fact's negation once that
    /// literal is actually asserted, or simply left to the
    /// complete-assignment check. Empty-premise entries are skipped.
    Implied(Vec<(Lit, Vec<Lit>)>),
    /// The asserted literals named here (all currently true) are jointly
    /// theory-infeasible; the solver learns their negation as a blocking
    /// lemma and resolves the conflict in place.
    Conflict(Vec<Lit>),
}

/// A theory solver consulted during CDCL search (DPLL(T)).
///
/// `consult` is called at decision checkpoints with the partial
/// assignment (`complete == false`) and, mandatorily, whenever the
/// Boolean assignment is total (`complete == true`) before `Sat` is
/// returned. A complete consultation must not return
/// [`TheoryResult::Implied`] (there is nothing left to imply).
pub trait Theory {
    /// Consults the theory against the current assignment.
    fn consult(&mut self, view: TheoryView<'_>, complete: bool) -> TheoryResult;
}

/// Cumulative search-effort counters. A copy starts from its source's
/// counters, so the effort spent on a copy is its counters
/// [`SatStats::since`] the source's. Surfaced through
/// `SmtStats`/`WindowMemo` into the scalability exhibits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Branching decisions taken (assumption enqueues excluded).
    pub decisions: u64,
    /// Literals dequeued by unit propagation.
    pub propagations: u64,
    /// Conflicts handled (Boolean and theory alike).
    pub conflicts: u64,
    /// Clauses learned: CDCL learnts and theory lemmas. Unit learnts
    /// assert directly and are not counted. No learnt clause is ever
    /// removed, so this also counts the learnt clauses a solver holds
    /// beyond its source's.
    pub learned: u64,
}

impl SatStats {
    /// Component-wise difference against an earlier snapshot.
    #[must_use]
    pub fn since(self, earlier: SatStats) -> SatStats {
        SatStats {
            decisions: self.decisions - earlier.decisions,
            propagations: self.propagations - earlier.propagations,
            conflicts: self.conflicts - earlier.conflicts,
            learned: self.learned - earlier.learned,
        }
    }
}

const UNASSIGNED: i8 = -1;

/// Saved phase of a freshly allocated variable.
const DEFAULT_PHASE: bool = false;

/// Partial-assignment theory consultations run before a decision once
/// this many decisions accumulated since the last consult. They save
/// search: without them, fig11's horizon-26 House-A row at `--span 600`
/// took 399 decisions instead of 287. Their throughput effect is small:
/// perfbench smt_day at seed 0 read 270.4 ops/s with them and 268.2
/// without (medians of 8 alternating 5-s pairs, 5 won).
const THEORY_CONSULT_INTERVAL: u64 = 4;

/// Where one clause's literals live in the flat [`ClauseDb`] arena:
/// `data[start..start + len]` of the owning database.
#[derive(Debug, Clone, Copy)]
struct ClauseHdr {
    /// Offset of the first literal in the shared literal arena.
    start: u32,
    /// Number of literals.
    len: u32,
}

/// Arena-backed clause database: all literals live contiguously in one
/// shared `Vec<Lit>` with per-clause [`ClauseHdr`] offsets, instead of
/// one heap `Vec` per clause. Storing a clause extends the arena;
/// copying the whole database (each window's copy of its template) is
/// two flat memcpys that never walk clauses.
#[derive(Debug, Default)]
struct ClauseDb {
    data: Vec<Lit>,
    heads: Vec<ClauseHdr>,
}

impl ClauseDb {
    fn len(&self) -> usize {
        self.heads.len()
    }

    /// Appends a clause; its index is `len() - 1`.
    fn push(&mut self, lits: &[Lit]) {
        self.heads.push(ClauseHdr {
            start: self.data.len() as u32,
            len: lits.len() as u32,
        });
        self.data.extend_from_slice(lits);
    }

    fn lits(&self, ci: usize) -> &[Lit] {
        let h = self.heads[ci];
        &self.data[h.start as usize..(h.start + h.len) as usize]
    }

    fn lits_mut(&mut self, ci: usize) -> &mut [Lit] {
        let h = self.heads[ci];
        &mut self.data[h.start as usize..(h.start + h.len) as usize]
    }
}

/// The CDCL solver. Clauses may be added between [`SatSolver::solve`]
/// calls (incremental use by the DPLL(T) loop). A clone is the whole
/// state, and `clone_from` reuses the destination's allocations.
#[derive(Debug, Default)]
pub struct SatSolver {
    n_vars: usize,
    clauses: ClauseDb,
    /// watches[lit] = indices of the clauses watching `lit`: every clause
    /// watches the literals at its positions 0 and 1.
    watches: Vec<Vec<usize>>,
    /// Per-variable value: 0 false, 1 true, -1 unassigned.
    assign: Vec<i8>,
    /// Phase saving: each variable's last assigned value, which its next
    /// decision takes. It pays for itself: without it, fig11's horizon-26
    /// House-A row at `--span 600` took 460 decisions instead of 287.
    phase: Vec<bool>,
    /// Assignment trail (in order).
    trail: Vec<Lit>,
    /// Trail indices at each decision level.
    trail_lim: Vec<usize>,
    /// Propagation queue head.
    qhead: usize,
    /// Reason clause per variable (implied assignments).
    reason: Vec<Option<usize>>,
    /// Decision level per variable.
    level: Vec<u32>,
    /// Top-level (level-0) conflict detected while adding clauses.
    unsat: bool,
    /// Stamped "seen" buffer reused by conflict analysis (no per-conflict
    /// allocation on the OMT hot path).
    seen: Vec<u32>,
    seen_stamp: u32,
    /// Absolute cap on `stats.conflicts` (`None` = unlimited): the
    /// search returns [`SatVerdict::Unknown`] once cumulative conflicts
    /// reach it. Deterministic — conflicts, never wall time.
    conflict_limit: Option<u64>,
    /// Cumulative effort counters.
    pub stats: SatStats,
}

impl Clone for SatSolver {
    fn clone(&self) -> SatSolver {
        let mut copy = SatSolver::default();
        copy.clone_from(self);
        copy
    }

    /// Copies every field of `source` into this solver's allocations:
    /// `Vec::clone_from` reuses the destination's buffers, the inner
    /// vectors of `watches` included, so copying a window template into
    /// a kept solver allocates next to nothing. The source is
    /// destructured without `..`, so a field added later does not compile
    /// until it is copied here.
    fn clone_from(&mut self, source: &SatSolver) {
        let SatSolver {
            n_vars,
            clauses: ClauseDb { data, heads },
            watches,
            assign,
            phase,
            trail,
            trail_lim,
            qhead,
            reason,
            level,
            unsat,
            seen,
            seen_stamp,
            conflict_limit,
            stats,
        } = source;
        self.n_vars = *n_vars;
        self.clauses.data.clone_from(data);
        self.clauses.heads.clone_from(heads);
        self.watches.clone_from(watches);
        self.assign.clone_from(assign);
        self.phase.clone_from(phase);
        self.trail.clone_from(trail);
        self.trail_lim.clone_from(trail_lim);
        self.qhead = *qhead;
        self.reason.clone_from(reason);
        self.level.clone_from(level);
        self.unsat = *unsat;
        self.seen.clone_from(seen);
        self.seen_stamp = *seen_stamp;
        self.conflict_limit = *conflict_limit;
        self.stats = *stats;
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> SatSolver {
        SatSolver::default()
    }

    /// Number of variables allocated.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Caps cumulative conflicts at `limit` (absolute, against
    /// [`SatSolver::stats`]; `None` lifts the cap). When the cap is hit
    /// mid-search the solver backtracks to level 0 and returns
    /// [`SatVerdict::Unknown`]; learned clauses persist, so re-solving
    /// with a larger cap resumes rather than restarts.
    pub fn set_conflict_limit(&mut self, limit: Option<u64>) {
        self.conflict_limit = limit;
    }

    /// Allocates a fresh variable and returns its index.
    pub fn new_var(&mut self) -> usize {
        let v = self.n_vars;
        self.n_vars += 1;
        self.assign.push(UNASSIGNED);
        self.phase.push(DEFAULT_PHASE);
        self.reason.push(None);
        self.level.push(0);
        self.seen.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    fn value(&self, l: Lit) -> i8 {
        lit_value(&self.assign, l)
    }

    /// Adds a clause. Returns `false` when the solver becomes trivially
    /// unsatisfiable at the top level.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if self.unsat {
            return false;
        }
        // Backtrack to level 0 so incremental additions are sound.
        self.backtrack_to(0);
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort();
        c.dedup();
        // Tautology?
        if c.windows(2).any(|w| w[0].var() == w[1].var()) {
            return true;
        }
        // Remove literals already false at level 0; satisfied clause is a no-op.
        c.retain(|&l| self.value(l) != 0);
        if c.iter().any(|&l| self.value(l) == 1) {
            return true;
        }
        match c.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                if !self.enqueue(c[0], None) {
                    self.unsat = true;
                    return false;
                }
                if self.propagate().is_some() {
                    self.unsat = true;
                    return false;
                }
                true
            }
            _ => {
                self.attach_clause(&c, false);
                true
            }
        }
    }

    /// Stores a clause watching its positions 0 and 1 and returns its
    /// index; a `learnt` one counts in [`SatStats::learned`].
    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> usize {
        debug_assert!(lits.len() >= 2);
        let idx = self.clauses.len();
        self.watches[lits[0].index()].push(idx);
        self.watches[lits[1].index()].push(idx);
        self.stats.learned += u64::from(learnt);
        self.clauses.push(lits);
        idx
    }

    fn enqueue(&mut self, l: Lit, reason: Option<usize>) -> bool {
        match self.value(l) {
            0 => false,
            1 => true,
            _ => {
                let v = l.var();
                self.assign[v] = i8::from(!l.is_neg());
                self.phase[v] = !l.is_neg();
                self.reason[v] = reason;
                self.level[v] = self.trail_lim.len() as u32;
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation; returns a conflicting clause index on conflict.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.negated();
            let mut i = 0;
            // Take the watch list to sidestep aliasing; rebuild as we go.
            let mut watch = std::mem::take(&mut self.watches[false_lit.index()]);
            while i < watch.len() {
                let ci = watch[i];
                let lits = self.clauses.lits_mut(ci);
                // Ensure false_lit is at position 1.
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                let first = lits[0];
                debug_assert_eq!(self.clauses.lits(ci)[1], false_lit);
                if self.value(first) == 1 {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                let lits = self.clauses.lits_mut(ci);
                for k in 2..lits.len() {
                    let cand = lits[k];
                    if lit_value(&self.assign, cand) != 0 {
                        lits.swap(1, k);
                        let new_watch = lits[1];
                        self.watches[new_watch.index()].push(ci);
                        watch.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if !self.enqueue(first, Some(ci)) {
                    // Conflict: restore remaining watches.
                    self.watches[false_lit.index()].extend_from_slice(&watch);
                    return Some(ci);
                }
                i += 1;
            }
            self.watches[false_lit.index()] = watch;
        }
        None
    }

    fn next_stamp(&mut self) -> u32 {
        self.seen_stamp = self.seen_stamp.wrapping_add(1);
        if self.seen_stamp == 0 {
            // Wrapped: invalidate all stale stamps once.
            self.seen.fill(0);
            self.seen_stamp = 1;
        }
        self.seen_stamp
    }

    /// First-UIP conflict analysis. Returns (learnt clause, backjump
    /// level).
    fn analyze(&mut self, mut conflict: usize) -> (Vec<Lit>, u32) {
        let cur_level = self.trail_lim.len() as u32;
        let mut learnt: Vec<Lit> = Vec::new();
        let stamp = self.next_stamp();
        let mut counter = 0usize;
        let mut trail_idx = self.trail.len();
        let mut asserting: Option<Lit> = None;

        loop {
            for idx in 0..self.clauses.heads[conflict].len as usize {
                let q = self.clauses.lits(conflict)[idx];
                // Skip the literal we just resolved on (it is asserted by
                // this reason clause).
                if asserting == Some(q) {
                    continue;
                }
                let v = q.var();
                if self.seen[v] != stamp && self.level[v] > 0 {
                    self.seen[v] = stamp;
                    if self.level[v] >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next seen literal on the trail.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var()] == stamp {
                    break;
                }
            }
            let p = self.trail[trail_idx];
            self.seen[p.var()] = 0;
            counter -= 1;
            if counter == 0 {
                asserting = Some(p);
                break;
            }
            conflict = self.reason[p.var()].expect("non-decision has a reason");
            asserting = Some(p);
        }
        let uip = asserting.expect("loop sets asserting").negated();
        learnt.insert(0, uip);

        let back_level = learnt[1..]
            .iter()
            .map(|l| self.level[l.var()])
            .max()
            .unwrap_or(0);
        // Put a max-level literal at position 1 for watching.
        if learnt.len() > 1 {
            let mi = 1 + learnt[1..]
                .iter()
                .position(|l| self.level[l.var()] == back_level)
                .expect("max exists");
            learnt.swap(1, mi);
        }
        (learnt, back_level)
    }

    fn backtrack_to(&mut self, level: usize) {
        while self.trail_lim.len() > level {
            let lim = self.trail_lim.pop().expect("non-empty");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("non-empty");
                self.assign[l.var()] = UNASSIGNED;
                self.reason[l.var()] = None;
            }
        }
        // Trail below `level` is untouched and fully propagated.
        self.qhead = self.trail.len();
    }

    /// Next decision literal: the lowest-index unassigned variable, in its
    /// saved phase. The scheduler allocates a window's Booleans slot by
    /// slot, so the search fixes slots in time order. This static order
    /// replaced a VSIDS activity heap and kept every pinned schedule;
    /// with the restarts, GC, minimization and binary layer gone too,
    /// perfbench smt_day ran 230.8 → 273.9 ops/s at seed 0 and 219.9 →
    /// 259.4 at seed 9001 (medians of 10 alternating 30-s pairs, all 10
    /// won at each seed).
    fn decide(&self) -> Option<Lit> {
        let v = self.assign.iter().position(|&a| a == UNASSIGNED)?;
        Some(if self.phase[v] {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        })
    }

    /// Handles a conflicting clause: analyzes, backjumps and asserts the
    /// learnt clause. Returns `false` when the conflict proves top-level
    /// unsatisfiability.
    fn resolve_conflict(&mut self, conflict: usize) -> bool {
        self.stats.conflicts += 1;
        if self.trail_lim.is_empty() {
            self.unsat = true;
            return false;
        }
        let (learnt, back) = self.analyze(conflict);
        self.backtrack_to(back as usize);
        if learnt.len() == 1 {
            if !self.enqueue(learnt[0], None) {
                self.unsat = true;
                return false;
            }
        } else {
            // `learnt[0]` is the asserting literal, `learnt[1]` a
            // max-level one.
            let ci = self.attach_clause(&learnt, true);
            let ok = self.enqueue(learnt[0], Some(ci));
            debug_assert!(ok, "asserting literal must be enqueueable");
        }
        true
    }

    /// Turns a theory conflict (the given literals are all true and
    /// jointly infeasible) into an in-place Boolean conflict: learns the
    /// blocking lemma, backtracks to its highest decision level, and
    /// resolves it like any other conflict. Returns `false` on top-level
    /// unsatisfiability.
    fn resolve_theory_conflict(&mut self, asserted: &[Lit]) -> bool {
        let mut clause: Vec<Lit> = asserted.iter().map(|l| l.negated()).collect();
        debug_assert!(clause.iter().all(|&l| self.value(l) == 0));
        if clause.is_empty() {
            self.unsat = true;
            return false;
        }
        let max_level = clause
            .iter()
            .map(|l| self.level[l.var()])
            .max()
            .expect("non-empty");
        if max_level == 0 {
            // Infeasible combination of level-0 facts: truly unsat.
            self.stats.conflicts += 1;
            self.unsat = true;
            return false;
        }
        self.backtrack_to(max_level as usize);
        if clause.len() == 1 {
            // A unit theory lemma is a premise-free fact: assert it at
            // level 0 (clauses cannot watch a single literal).
            self.stats.conflicts += 1;
            self.backtrack_to(0);
            if !self.enqueue(clause[0], None) || self.propagate().is_some() {
                self.unsat = true;
                return false;
            }
            return true;
        }
        // Watch two highest-level literals (positions 0/1) so the lemma
        // behaves under future backtracking.
        let mut order: Vec<usize> = (0..clause.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.level[clause[i].var()]));
        let (i0, i1) = (order[0], order[1]);
        clause.swap(0, i0);
        clause.swap(1, if i1 == 0 { i0 } else { i1 });
        let ci = self.attach_clause(&clause, true);
        self.resolve_conflict(ci)
    }

    /// Attaches theory-implied literals: for each `(lit, premises)` adds
    /// the lemma `¬p₁ ∨ … ∨ ¬pₖ ∨ lit` and enqueues `lit` with it as
    /// reason. If an implication arrives already falsified (the theory
    /// implied both polarities — only possible for an inconsistent
    /// premise set), the infeasible asserted set is returned for
    /// [`SatSolver::resolve_theory_conflict`].
    fn assert_implied(&mut self, implied: Vec<(Lit, Vec<Lit>)>) -> Option<Vec<Lit>> {
        for (lit, premises) in implied {
            if premises.is_empty() {
                // Contract violation (see `TheoryResult::Implied`): a
                // premise-free lemma cannot be watched; drop it — losing
                // a propagation is sound.
                debug_assert!(false, "theory implication without premises");
                continue;
            }
            match self.value(lit) {
                1 => continue, // an earlier implication already set it
                0 => {
                    // Premises are true yet `lit` is false: the asserted
                    // set {premises..., ¬lit} is theory-infeasible.
                    let mut asserted = premises;
                    asserted.push(lit.negated());
                    return Some(asserted);
                }
                _ => {}
            }
            let mut clause: Vec<Lit> = Vec::with_capacity(premises.len() + 1);
            clause.push(lit);
            clause.extend(premises.iter().map(|p| p.negated()));
            debug_assert!(clause[1..].iter().all(|&l| self.value(l) == 0));
            // Position 1 must hold a highest-level false literal so the
            // watch pair stays sound under backtracking.
            let mi = 1 + clause[1..]
                .iter()
                .enumerate()
                .max_by_key(|(i, l)| (self.level[l.var()], std::cmp::Reverse(*i)))
                .expect("premises non-empty")
                .0;
            clause.swap(1, mi);
            let ci = self.attach_clause(&clause, true);
            let ok = self.enqueue(lit, Some(ci));
            debug_assert!(ok, "implied literal was unassigned");
        }
        None
    }

    /// Solves the current clause set under `assumptions`, without
    /// asserting them: the solver branches on each assumption first (in
    /// order) and reports `Unsat` as soon as one is falsified. Learned
    /// clauses never resolve on an assumption as a premise-free fact
    /// (assumptions enter as decisions), so everything learned under one
    /// assumption set remains valid for the next — the mechanism the OMT
    /// binary search uses to share work across probes.
    ///
    /// With a `theory` (DPLL(T)), the theory sees the partial assignment
    /// at decision checkpoints and may report an infeasible subset
    /// (resolved in place as a conflict, without restarting the search)
    /// or imply literals (asserted into the trail through attached lemma
    /// clauses); every complete Boolean assignment is theory-checked
    /// before `Sat` is returned.
    pub fn solve(
        &mut self,
        assumptions: &[Lit],
        mut theory: Option<&mut dyn Theory>,
    ) -> SatVerdict {
        if self.unsat {
            return SatVerdict::Unsat;
        }
        self.backtrack_to(0);
        self.qhead = 0;
        if self.propagate().is_some() {
            self.unsat = true;
            return SatVerdict::Unsat;
        }

        let mut decisions_since_consult = 0u64;
        loop {
            // Deterministic budget gate: checked once per loop turn, so
            // the cut lands at the same conflict on every machine.
            if let Some(limit) = self.conflict_limit {
                if self.stats.conflicts >= limit {
                    self.backtrack_to(0);
                    return SatVerdict::Unknown;
                }
            }
            if let Some(conflict) = self.propagate() {
                if !self.resolve_conflict(conflict) {
                    return SatVerdict::Unsat;
                }
            } else if self.trail_lim.len() < assumptions.len() {
                // Take the next assumption as a pseudo-decision.
                let a = assumptions[self.trail_lim.len()];
                match self.value(a) {
                    1 => {
                        // Already implied: open an empty level so the
                        // level index keeps matching the assumption index.
                        self.trail_lim.push(self.trail.len());
                    }
                    0 => {
                        self.backtrack_to(0);
                        return SatVerdict::Unsat;
                    }
                    _ => {
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(a, None);
                        debug_assert!(ok, "assumption was unassigned");
                    }
                }
            } else {
                // Periodic theory checkpoint on the partial assignment.
                if decisions_since_consult >= THEORY_CONSULT_INTERVAL {
                    if let Some(t) = theory.as_deref_mut() {
                        decisions_since_consult = 0;
                        let view = TheoryView {
                            assign: &self.assign,
                        };
                        match t.consult(view, false) {
                            TheoryResult::Ok => {}
                            TheoryResult::Conflict(asserted) => {
                                if !self.resolve_theory_conflict(&asserted) {
                                    return SatVerdict::Unsat;
                                }
                                continue;
                            }
                            TheoryResult::Implied(implied) => {
                                if let Some(asserted) = self.assert_implied(implied) {
                                    if !self.resolve_theory_conflict(&asserted) {
                                        return SatVerdict::Unsat;
                                    }
                                }
                                continue;
                            }
                        }
                    }
                }
                match self.decide() {
                    None => {
                        // Complete assignment: mandatory theory check.
                        if let Some(t) = theory.as_deref_mut() {
                            decisions_since_consult = 0;
                            let view = TheoryView {
                                assign: &self.assign,
                            };
                            match t.consult(view, true) {
                                TheoryResult::Ok => {}
                                TheoryResult::Conflict(asserted) => {
                                    if !self.resolve_theory_conflict(&asserted) {
                                        return SatVerdict::Unsat;
                                    }
                                    continue;
                                }
                                TheoryResult::Implied(_) => {
                                    unreachable!("complete assignment implies nothing")
                                }
                            }
                        }
                        let model = self.assign.iter().map(|&v| v == 1).collect();
                        return SatVerdict::Sat(model);
                    }
                    Some(l) => {
                        self.stats.decisions += 1;
                        decisions_since_consult += 1;
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(l, None);
                        debug_assert!(ok, "decision variable was unassigned");
                    }
                }
            }
        }
    }
}

/// Value of literal `l` against an assignment slice: 0 false, 1 true,
/// -1 unassigned. A free function so the propagation inner loop can
/// evaluate candidates while a clause's literal vector is mutably
/// borrowed (the `value` method delegates here).
#[inline]
fn lit_value(assign: &[i8], l: Lit) -> i8 {
    match assign[l.var()] {
        UNASSIGNED => UNASSIGNED,
        v if l.is_neg() => 1 - v,
        v => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(spec: &[i32]) -> Vec<Lit> {
        spec.iter()
            .map(|&s| {
                let v = (s.unsigned_abs() - 1) as usize;
                if s > 0 {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                }
            })
            .collect()
    }

    fn solver_with(n: usize, clauses: &[&[i32]]) -> SatSolver {
        let mut s = SatSolver::new();
        for _ in 0..n {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(&lits(c));
        }
        s
    }

    fn pigeonhole_clauses(pigeons: usize) -> (usize, Vec<Vec<i32>>) {
        let holes = pigeons - 1;
        let var = |i: usize, j: usize| (i * holes + j + 1) as i32;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..pigeons {
            clauses.push((0..holes).map(|j| var(i, j)).collect());
        }
        for j in 0..holes {
            for a in 0..pigeons {
                for b in (a + 1)..pigeons {
                    clauses.push(vec![-var(a, j), -var(b, j)]);
                }
            }
        }
        (pigeons * holes, clauses)
    }

    #[test]
    fn trivial_sat() {
        let mut s = solver_with(2, &[&[1, 2]]);
        let SatVerdict::Sat(m) = s.solve(&[], None) else {
            panic!("expected sat")
        };
        assert!(m[0] || m[1]);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = solver_with(1, &[&[1], &[-1]]);
        assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = SatSolver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
    }

    #[test]
    fn chain_of_implications() {
        // x1 & (x1->x2) & ... & (x9->x10) & -x10 is unsat.
        let mut cl: Vec<Vec<i32>> = vec![vec![1]];
        for i in 1..10 {
            cl.push(vec![-i, i + 1]);
        }
        cl.push(vec![-10]);
        let refs: Vec<&[i32]> = cl.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(10, &refs);
        assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        let (n, clauses) = pigeonhole_clauses(3);
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(n, &refs);
        assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let clauses: Vec<Vec<i32>> = vec![
            vec![1, 2, -3],
            vec![-1, 3],
            vec![2, 3],
            vec![-2, -3, 4],
            vec![-4, 1],
        ];
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(4, &refs);
        let SatVerdict::Sat(m) = s.solve(&[], None) else {
            panic!("expected sat")
        };
        for c in &clauses {
            assert!(
                c.iter().any(|&l| {
                    let v = (l.unsigned_abs() - 1) as usize;
                    (l > 0) == m[v]
                }),
                "clause {c:?} falsified"
            );
        }
    }

    #[test]
    fn incremental_blocking_clauses_enumerate_models() {
        // 3 free variables -> 8 models; block each as found.
        let mut s = solver_with(3, &[&[1, 2, 3, -1]]); // tautology, no constraint
        let mut count = 0;
        while let SatVerdict::Sat(m) = s.solve(&[], None) {
            count += 1;
            assert!(count <= 8, "more models than possible");
            let block: Vec<Lit> = (0..3)
                .map(|v| if m[v] { Lit::neg(v) } else { Lit::pos(v) })
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn exhaustive_cross_check_small_random() {
        // Brute-force comparison on random 3-SAT instances with 8 vars.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let n = 8usize;
            let m = rng.random_range(10..40);
            let clauses: Vec<Vec<i32>> = (0..m)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = rng.random_range(1..=n as i32);
                            if rng.random::<bool>() {
                                v
                            } else {
                                -v
                            }
                        })
                        .collect()
                })
                .collect();
            // Brute force.
            let brute_sat = (0..(1u32 << n)).any(|mask| {
                clauses.iter().all(|c| {
                    c.iter().any(|&l| {
                        let v = l.unsigned_abs() - 1;
                        ((mask >> v) & 1 == 1) == (l > 0)
                    })
                })
            });
            let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
            let mut s = solver_with(n, &refs);
            let verdict = s.solve(&[], None);
            match (brute_sat, verdict) {
                (true, SatVerdict::Sat(_)) | (false, SatVerdict::Unsat) => {}
                (b, v) => panic!("disagreement: brute {b}, solver {v:?}\n{clauses:?}"),
            }
        }
    }

    // ----- conflict budget -----------------------------------------------

    #[test]
    fn conflict_budget_returns_unknown_and_lifting_it_resumes() {
        // Pigeonhole 3→2: unsat, and the proof needs conflicts.
        let clauses: Vec<&[i32]> = vec![
            &[1, 2],
            &[3, 4],
            &[5, 6],
            &[-1, -3],
            &[-1, -5],
            &[-3, -5],
            &[-2, -4],
            &[-2, -6],
            &[-4, -6],
        ];
        let mut s = solver_with(6, &clauses);
        s.set_conflict_limit(Some(0));
        assert_eq!(s.solve(&[], None), SatVerdict::Unknown);
        // The solver stays usable: the cap is absolute against
        // cumulative stats, and lifting it finishes the proof.
        s.set_conflict_limit(None);
        assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
        assert!(s.stats.conflicts > 0);
    }

    // ----- theory hook ---------------------------------------------------

    /// Toy theory: variable 0 and variable 1 may never both be true.
    struct AtMostOne;

    impl Theory for AtMostOne {
        fn consult(&mut self, view: TheoryView<'_>, _complete: bool) -> TheoryResult {
            if view.value(0) == Some(true) && view.value(1) == Some(true) {
                TheoryResult::Conflict(vec![Lit::pos(0), Lit::pos(1)])
            } else {
                TheoryResult::Ok
            }
        }
    }

    #[test]
    fn theory_conflict_blocks_model() {
        let mut s = solver_with(2, &[&[1], &[2, 1]]);
        // Boolean part prefers both true; theory forbids it.
        let SatVerdict::Sat(m) = s.solve(&[], Some(&mut AtMostOne)) else {
            panic!("expected sat")
        };
        assert!(!(m[0] && m[1]));
        assert!(m[0]);
    }

    #[test]
    fn theory_conflict_on_forced_pair_is_unsat() {
        let mut s = solver_with(2, &[&[1], &[2]]);
        assert_eq!(s.solve(&[], Some(&mut AtMostOne)), SatVerdict::Unsat);
    }

    /// Toy propagating theory: asserting variable 0 implies variable 1.
    struct ZeroImpliesOne;

    impl Theory for ZeroImpliesOne {
        fn consult(&mut self, view: TheoryView<'_>, complete: bool) -> TheoryResult {
            if view.value(0) == Some(true) && view.value(1).is_none() {
                assert!(!complete, "complete assignment leaves nothing unassigned");
                return TheoryResult::Implied(vec![(Lit::pos(1), vec![Lit::pos(0)])]);
            }
            if view.value(0) == Some(true) && view.value(1) == Some(false) {
                return TheoryResult::Conflict(vec![Lit::pos(0), Lit::neg(1)]);
            }
            TheoryResult::Ok
        }
    }

    #[test]
    fn theory_propagation_asserts_implied_literal() {
        // 20 padding vars force a consult checkpoint between decisions.
        let mut s = solver_with(22, &[&[1]]);
        for v in 2..22 {
            s.add_clause(&lits(&[v, -v])); // no-op tautologies, vars free
        }
        let SatVerdict::Sat(m) = s.solve(&[], Some(&mut ZeroImpliesOne)) else {
            panic!("expected sat")
        };
        assert!(m[0]);
        assert!(m[1], "theory implication must hold in the model");
    }

    // ----- assumptions ---------------------------------------------------

    #[test]
    fn assumptions_do_not_assert() {
        // (a -> b), assume ¬b: a must be false; afterwards the solver is
        // still free to pick b.
        let mut s = solver_with(2, &[&[-1, 2]]);
        let SatVerdict::Sat(m) = s.solve(&lits(&[-2]), None) else {
            panic!("sat under ¬b")
        };
        assert!(!m[0] && !m[1]);
        let SatVerdict::Sat(m) = s.solve(&lits(&[1]), None) else {
            panic!("sat under a")
        };
        assert!(m[0] && m[1]);
    }

    #[test]
    fn learned_clauses_survive_between_assumption_calls() {
        // Pigeonhole body + selector s (var 7) guarding nothing: repeated
        // unsat probes under the same assumptions must not grow learning
        // without bound, and verdicts stay stable.
        let var = |i: usize, j: usize| (i * 2 + j + 1) as i32;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..3 {
            clauses.push(vec![var(i, 0), var(i, 1), 7]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    clauses.push(vec![-var(a, j), -var(b, j)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(7, &refs);
        assert_eq!(s.solve(&lits(&[-7]), None), SatVerdict::Unsat);
        let learned_once = s.stats.learned;
        assert_eq!(s.solve(&lits(&[-7]), None), SatVerdict::Unsat);
        // Second identical probe reuses the first probe's learning.
        assert!(s.stats.learned <= learned_once * 2);
        assert!(matches!(s.solve(&lits(&[7]), None), SatVerdict::Sat(_)));
    }

    // ----- copies --------------------------------------------------------

    #[test]
    fn clone_from_overwrites_a_dirty_solver_field_for_field() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // The source, like a window template: clauses, never solved.
        let base: &[&[i32]] = &[&[1, 2, -3], &[-1, 3], &[2, 3], &[-2, -3, 4]];
        let source = solver_with(4, base);
        let mut dirty: Vec<SatSolver> = Vec::new();
        // A detour: the source's clauses plus two more, solved.
        let mut detour = solver_with(4, base);
        detour.add_clause(&lits(&[-4]));
        detour.add_clause(&lits(&[3, 4]));
        let _ = detour.solve(&[], None);
        dirty.push(detour);
        // More variables, and learnt clauses: planted 3-SAT (every clause
        // has a positive literal, so all-true is a model) conflicts under
        // the all-false default phases.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 25usize;
        let mut planted = solver_with(n, &[]);
        for _ in 0..150 {
            let mut c: Vec<i32> = (0..3)
                .map(|_| {
                    let v = rng.random_range(1..=n as i32);
                    if rng.random::<bool>() {
                        v
                    } else {
                        -v
                    }
                })
                .collect();
            let k: usize = rng.random_range(0..3);
            c[k] = c[k].abs();
            planted.add_clause(&lits(&c));
        }
        assert!(matches!(planted.solve(&[], None), SatVerdict::Sat(_)));
        assert!(planted.stats.learned > 0, "no learnt clauses");
        dirty.push(planted);
        // A level-0 unit (which implies a second fact), and the unsat flag.
        dirty.push(solver_with(4, &[&[1, 2], &[-1]]));
        let unsat = solver_with(1, &[&[1], &[-1]]);
        assert!(unsat.unsat);
        dirty.push(unsat);
        // Fewer variables than the source.
        dirty.push(SatSolver::new());

        let instance: &[&[i32]] = &[&[1, -2], &[2, 3, 4], &[-3, -4]];
        let replay = |s: &mut SatSolver| {
            for c in instance {
                s.add_clause(&lits(c));
            }
            let verdicts = [
                s.solve(&[], None),
                s.solve(&lits(&[-1]), None),
                s.solve(&lits(&[-2, 4]), None),
            ];
            (verdicts, s.stats)
        };
        let fresh = replay(&mut solver_with(4, base));
        for (i, mut copy) in dirty.into_iter().enumerate() {
            copy.clone_from(&source);
            assert_eq!(
                format!("{copy:?}"),
                format!("{source:?}"),
                "destination {i}"
            );
            assert_eq!(replay(&mut copy), fresh, "destination {i}");
        }
    }

    #[test]
    fn stats_count_effort() {
        let mut s = solver_with(6, &[]);
        let var = |i: usize, j: usize| i * 2 + j;
        for i in 0..3 {
            s.add_clause(&[Lit::pos(var(i, 0)), Lit::pos(var(i, 1))]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    s.add_clause(&[Lit::neg(var(a, j)), Lit::neg(var(b, j))]);
                }
            }
        }
        assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
        assert!(s.stats.propagations > 0);
        assert!(s.stats.conflicts > 0);
        assert!(s.stats.decisions > 0 || s.stats.learned > 0);
    }

    // ----- binary clauses ------------------------------------------------

    #[test]
    fn binary_chain_propagates_without_decisions() {
        // A pure implication chain 1 -> 2 -> ... -> 6 rooted in a unit
        // fact: two-literal clauses watch both their literals, so the
        // root implies the whole chain. The unit goes in last —
        // `add_clause` propagates facts eagerly and would otherwise
        // shorten each binary to a unit before attachment.
        let mut s = solver_with(6, &[&[-1, 2], &[-2, 3], &[-3, 4], &[-4, 5], &[-5, 6], &[1]]);
        match s.solve(&[], None) {
            SatVerdict::Sat(model) => assert!(model.iter().all(|&b| b)),
            v => panic!("expected Sat, got {v:?}"),
        }
        assert_eq!(s.stats.decisions, 0, "chain needs no decisions");
    }

    #[test]
    fn binary_conflict_detected_and_analyzed() {
        // With all-false default phases the first decision is ¬1, which
        // the binary chain ¬1 -> 3 -> 4 -> 1 refutes; first-UIP analysis
        // over purely binary reasons must learn the flip and land on the
        // model with 1 true.
        let mut s = solver_with(4, &[&[1, 3], &[-3, 4], &[-4, 1], &[-1, 2]]);
        match s.solve(&[], None) {
            SatVerdict::Sat(model) => assert!(model[0] && model[1]),
            v => panic!("expected Sat, got {v:?}"),
        }
        assert!(s.stats.conflicts > 0, "decision must be refuted");
    }
}
