//! A CDCL(T) SAT core: two-watched-literal propagation, first-UIP
//! conflict learning, a VSIDS order heap, phase saving, Luby restarts,
//! a reducible learnt-clause database with activity/LBD garbage
//! collection, and a theory hook for DPLL(T) integration. MiniSat-shaped,
//! sized for the few-thousand-variable encodings the SHATTER attack
//! windows produce.
//!
//! The solver is *incremental* along four axes the DPLL(T)/OMT drivers
//! exploit:
//!
//! - clauses may be added between [`SatSolver::solve`] calls, and learned
//!   clauses are retained across calls (the OMT binary search re-solves
//!   the same skeleton ~20 times per window);
//! - [`SatSolver::solve`] decides the clause set under a list of
//!   *assumption* literals without asserting them;
//! - the same call optionally consults a [`Theory`] during the search:
//!   theory conflicts are analyzed *in place* like Boolean conflicts (no
//!   solve-from-scratch per blocking clause), and theory-implied literals
//!   enter the trail through attached lemma clauses;
//! - [`SatSolver::push`]/[`SatSolver::pop`] checkpoint the assertion
//!   trail: `pop` removes every clause and variable added since the
//!   matching `push` and restores the heuristic state (activity, phase,
//!   bump increments, clause activities, GC budget) byte-for-byte, so a
//!   popped solver replays exactly like a fresh one — the property the
//!   scheduler's window memoization and the incremental-vs-fresh
//!   equivalence tests rely on.

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
    /// attaches each lemma as a (reducible) clause and enqueues the
    /// implied literal with it as reason. `premises` must be non-empty
    /// (a clause cannot watch a single literal); a premise-free theory
    /// fact should be reported as a `Conflict` of the fact's negation
    /// once that literal is actually asserted, or simply left to the
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

/// Cumulative search-effort counters, never reset by [`SatSolver::pop`]
/// (they measure work done, not state held). Surfaced through
/// `SmtStats`/`WindowMemo` into the scalability exhibits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Branching decisions taken (assumption enqueues excluded).
    pub decisions: u64,
    /// Literals dequeued by unit propagation.
    pub propagations: u64,
    /// Conflicts handled (Boolean and theory alike).
    pub conflicts: u64,
    /// Learned clauses stored (unit learnts assert directly and are not
    /// counted; stored learnts stay until GC'd or popped).
    pub learned: u64,
    /// Luby restarts performed.
    pub restarts: u64,
    /// Learnt clauses removed by clause-database reduction.
    pub gc_clauses: u64,
    /// Literals removed from first-UIP clauses by recursive
    /// self-subsumption before install (learnt-clause minimization).
    pub minimized: u64,
    /// Literals implied through the binary implication layer (adjacency
    /// lists over two-literal clauses, propagated before long clauses).
    pub bin_props: u64,
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
            restarts: self.restarts - earlier.restarts,
            gc_clauses: self.gc_clauses - earlier.gc_clauses,
            minimized: self.minimized - earlier.minimized,
            bin_props: self.bin_props - earlier.bin_props,
        }
    }
}

const UNASSIGNED: i8 = -1;

/// Saved phase of a freshly allocated variable.
const DEFAULT_PHASE: bool = false;

/// Conflicts per Luby unit: the r-th restart fires after
/// `luby(r) * RESTART_SCALE` conflicts.
const RESTART_SCALE: u64 = 100;

/// VSIDS bump growth divisor (`var_inc /= VAR_DECAY` per conflict).
const VAR_DECAY: f64 = 0.95;

/// Partial-assignment theory consultations run before a decision once
/// this many decisions accumulated since the last consult.
const THEORY_CONSULT_INTERVAL: u64 = 4;

/// Initial learnt-clause budget before the first database reduction.
const GC_INITIAL_BUDGET: usize = 250;

/// Geometric growth of the learnt budget after each reduction (per mille).
const GC_BUDGET_GROWTH_PERMILLE: usize = 1100;

/// Header of one clause stored in the flat [`ClauseDb`] arena: everything
/// about the clause except its literals, which live at
/// `data[start..start + len]` of the owning database.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ClauseHdr {
    /// Offset of the first literal in the shared literal arena.
    start: u32,
    /// Number of literals.
    len: u32,
    /// Reducible lemma (CDCL learnt or theory blocking/implication
    /// clause) vs permanent problem clause.
    learnt: bool,
    /// Bump-on-use activity driving reduction order.
    activity: f64,
    /// Literal-block distance (distinct decision levels) at learn time.
    lbd: u32,
}

/// Arena-backed clause database: all literals live contiguously in one
/// shared `Vec<Lit>` with per-clause [`ClauseHdr`] offsets, instead of
/// one heap `Vec` per clause. Storing a clause extends the arena;
/// snapshotting the whole database (every [`SatSolver::push`]) is two
/// flat memcpys; dropping or restoring it never walks clauses. The
/// garbage collector rebuilds both vectors compactly, so dead literals
/// do not accumulate.
#[derive(Debug, Clone, Default, PartialEq)]
struct ClauseDb {
    data: Vec<Lit>,
    heads: Vec<ClauseHdr>,
}

impl ClauseDb {
    fn len(&self) -> usize {
        self.heads.len()
    }

    /// Appends a fresh clause, returning nothing — the caller already
    /// knows its index is `len() - 1`.
    fn push(&mut self, lits: &[Lit], learnt: bool, lbd: u32) {
        let start = self.data.len() as u32;
        self.data.extend_from_slice(lits);
        self.heads.push(ClauseHdr {
            start,
            len: lits.len() as u32,
            learnt,
            activity: 0.0,
            lbd,
        });
    }

    fn hdr(&self, ci: usize) -> &ClauseHdr {
        &self.heads[ci]
    }

    fn hdr_mut(&mut self, ci: usize) -> &mut ClauseHdr {
        &mut self.heads[ci]
    }

    fn lits(&self, ci: usize) -> &[Lit] {
        let h = &self.heads[ci];
        &self.data[h.start as usize..(h.start + h.len) as usize]
    }

    fn lits_mut(&mut self, ci: usize) -> &mut [Lit] {
        let h = self.heads[ci];
        &mut self.data[h.start as usize..(h.start + h.len) as usize]
    }
}

/// Indexed binary max-heap over variables, ordered by VSIDS activity with
/// deterministic variable-index tie-breaking (lower index wins ties —
/// the same total order the previous O(n) argmax scan implied). The heap
/// may lag the assignment: assigned variables are skipped lazily by
/// [`SatSolver::decide`] and re-inserted when the trail unwinds.
#[derive(Debug, Clone, Default)]
struct OrderHeap {
    heap: Vec<u32>,
    /// Variable -> heap position (`u32::MAX` = absent).
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl OrderHeap {
    /// `a` orders strictly before `b` (higher activity, then lower index).
    #[inline]
    fn better(act: &[f64], a: u32, b: u32) -> bool {
        let (aa, ab) = (act[a as usize], act[b as usize]);
        aa > ab || (aa == ab && a < b)
    }

    fn contains(&self, v: usize) -> bool {
        self.pos.get(v).is_some_and(|&p| p != ABSENT)
    }

    fn grow_to(&mut self, n_vars: usize) {
        if self.pos.len() < n_vars {
            self.pos.resize(n_vars, ABSENT);
        }
    }

    fn sift_up(&mut self, act: &[f64], mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::better(act, v, self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i] as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, act: &[f64], mut i: usize) {
        let v = self.heap[i];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let c = if r < n && Self::better(act, self.heap[r], self.heap[l]) {
                r
            } else {
                l
            };
            if !Self::better(act, self.heap[c], v) {
                break;
            }
            self.heap[i] = self.heap[c];
            self.pos[self.heap[i] as usize] = i as u32;
            i = c;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    /// Inserts `v` unless already present.
    fn insert(&mut self, act: &[f64], v: usize) {
        self.grow_to(v + 1);
        if self.pos[v] != ABSENT {
            return;
        }
        self.pos[v] = self.heap.len() as u32;
        self.heap.push(v as u32);
        self.sift_up(act, self.pos[v] as usize);
    }

    /// Removes and returns the best variable, or `None` when empty.
    fn pop_max(&mut self, act: &[f64]) -> Option<usize> {
        let best = *self.heap.first()?;
        self.pos[best as usize] = ABSENT;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(act, 0);
        }
        Some(best as usize)
    }

    /// Restores order after `v`'s activity increased.
    fn bumped(&mut self, act: &[f64], v: usize) {
        if self.contains(v) {
            let p = self.pos[v] as usize;
            self.sift_up(act, p);
        }
    }

    /// Rebuilds the heap to contain exactly the variables `0..n_vars`.
    /// Any valid heap layout yields the same `pop_max` sequence because
    /// the comparison is a total order, so this is replay-safe. Kept as
    /// the reference implementation the incremental [`OrderHeap::restore`]
    /// is checked against (`order_heap_restore_matches_rebuild`); `pop`
    /// itself now restores incrementally.
    #[cfg(test)]
    fn rebuild(&mut self, act: &[f64], n_vars: usize) {
        self.heap.clear();
        self.pos.clear();
        self.pos.resize(n_vars, ABSENT);
        for v in 0..n_vars {
            self.pos[v] = v as u32;
            self.heap.push(v as u32);
        }
        for i in (0..n_vars / 2).rev() {
            self.sift_down(act, i);
        }
    }

    /// Incrementally restores the heap to cover exactly `0..n_vars` after
    /// a frame pop: drops entries for popped variables, re-admits
    /// variables that were absent (assigned inside the frame), and
    /// repairs the order with one Floyd heapify pass. A full pass over
    /// the *entries* is unavoidable — the pop restores the whole activity
    /// array, re-keying every element at once — but unlike
    /// [`OrderHeap::rebuild`] this reuses the surviving layout instead of
    /// resetting to the identity permutation, so the heapify starts
    /// mostly ordered and the position table is never reallocated.
    /// Replay-safe for the same reason rebuild is: (activity, index) is a
    /// total order, so every valid heap layout yields the same `pop_max`
    /// sequence.
    fn restore(&mut self, act: &[f64], n_vars: usize) {
        self.pos.truncate(n_vars);
        let mut k = 0usize;
        for i in 0..self.heap.len() {
            let v = self.heap[i];
            if (v as usize) < n_vars {
                self.heap[k] = v;
                self.pos[v as usize] = k as u32;
                k += 1;
            }
        }
        self.heap.truncate(k);
        for v in 0..n_vars {
            if self.pos[v] == ABSENT {
                self.pos[v] = self.heap.len() as u32;
                self.heap.push(v as u32);
            }
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(act, i);
        }
    }
}

/// Checkpoint recorded by [`SatSolver::push`]; `pop` restores it exactly.
#[derive(Debug, Clone)]
struct SatFrame {
    n_vars: usize,
    /// Full snapshot of the clause database, not just its length:
    /// propagation permutes literal order *inside* surviving clauses
    /// (watch maintenance swaps positions 0/1/k), the garbage collector
    /// compacts the arena, and clause activities/LBDs evolve; the
    /// replay contract needs all of it restored. Thanks to the flat
    /// [`ClauseDb`] layout this snapshot is two memcpys, not a
    /// clause-by-clause deep clone.
    clauses: ClauseDb,
    trail_len: usize,
    /// Reason indices of the push-time (level-0) trail: a `reduce_db`
    /// inside the frame compacts clause indices, so the reasons of
    /// pre-push facts must be restored alongside the clause vector or
    /// they dangle into the wrong clauses after the pop (the GC's
    /// locked-clause set would then protect the wrong entries).
    reason: Vec<Option<usize>>,
    activity: Vec<f64>,
    phase: Vec<bool>,
    var_inc: f64,
    cla_inc: f64,
    gc_budget: usize,
    unsat: bool,
}

/// The CDCL solver. Clauses may be added between [`SatSolver::solve`]
/// calls (incremental use by the DPLL(T) loop).
#[derive(Debug, Clone)]
pub struct SatSolver {
    n_vars: usize,
    clauses: ClauseDb,
    /// watches[lit] = clause indices watching `lit` (clauses of length
    /// ≥ 3 only; binary clauses live in `bin_watches`).
    watches: Vec<Vec<usize>>,
    /// Binary implication layer: `bin_watches[lit]` holds `(other, ci)`
    /// for every two-literal clause `{lit, other}` (index `ci` in the
    /// clause database). When `lit` becomes false, `other` is implied
    /// with `ci` as its reason — a direct adjacency lookup with no watch
    /// hunt and no literal swapping. The pairwise exactly-one rows of
    /// the scheduler's encoding are binary, which is why they get a
    /// dedicated graph; it is propagated exhaustively before the long
    /// clauses of the same trail literal. Derived state: rebuilt (never
    /// snapshotted) on `pop` and GC, exactly like `watches`.
    bin_watches: Vec<Vec<(Lit, usize)>>,
    /// Per-variable value: 0 false, 1 true, -1 unassigned.
    assign: Vec<i8>,
    /// Saved phase for decision polarity.
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
    /// VSIDS activity.
    activity: Vec<f64>,
    var_inc: f64,
    /// Decision order: activity-keyed max-heap over variables.
    order: OrderHeap,
    /// Clause-activity bump increment (learnt DB reduction order).
    cla_inc: f64,
    /// Live learnt clauses allowed before the next database reduction.
    gc_budget: usize,
    /// Live learnt-clause count (gauge).
    n_learnts: usize,
    /// Top-level (level-0) conflict detected while adding clauses.
    unsat: bool,
    /// Stamped "seen" buffer reused by conflict analysis (no per-conflict
    /// allocation on the OMT hot path).
    seen: Vec<u32>,
    seen_stamp: u32,
    /// Stamped per-conflict memo for learnt-clause minimization:
    /// variables proven redundant under the current analysis stamp.
    min_removable: Vec<u32>,
    /// Variables proven non-redundant under the current stamp.
    min_poison: Vec<u32>,
    /// Reusable DFS stack for `lit_redundant` (cleared per call, so
    /// conflict analysis stays allocation-free after warm-up).
    min_stack: Vec<(Lit, usize, usize)>,
    /// Assertion-trail checkpoints.
    frames: Vec<SatFrame>,
    /// Absolute cap on `stats.conflicts` (`None` = unlimited): the
    /// search returns [`SatVerdict::Unknown`] once cumulative conflicts
    /// reach it. Deterministic — conflicts, never wall time.
    conflict_limit: Option<u64>,
    /// Cumulative effort counters.
    pub stats: SatStats,
}

impl Default for SatSolver {
    /// Same as [`SatSolver::new`]: an empty solver with live heuristic
    /// increments. (A derived `Default` would zero `var_inc`/`cla_inc`
    /// and the GC budget, silently disabling VSIDS and making the
    /// reducer fire on every conflict — the exact misconfiguration the
    /// embedding `Encoder::default()` used to hit.)
    fn default() -> SatSolver {
        SatSolver {
            n_vars: 0,
            clauses: ClauseDb::default(),
            watches: Vec::new(),
            bin_watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            reason: Vec::new(),
            level: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            order: OrderHeap::default(),
            cla_inc: 1.0,
            gc_budget: GC_INITIAL_BUDGET,
            n_learnts: 0,
            unsat: false,
            seen: Vec::new(),
            seen_stamp: 0,
            min_removable: Vec::new(),
            min_poison: Vec::new(),
            min_stack: Vec::new(),
            frames: Vec::new(),
            conflict_limit: None,
            stats: SatStats::default(),
        }
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

    /// Live learnt clauses currently stored (gauge; drops on GC and pop).
    pub fn live_learnts(&self) -> usize {
        self.n_learnts
    }

    /// Lowers the learnt-clause budget that triggers database reduction
    /// (mainly for tests and microbenches that want to exercise GC on
    /// small instances). The budget still grows geometrically after each
    /// reduction.
    pub fn set_gc_budget(&mut self, budget: usize) {
        self.gc_budget = budget.max(1);
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
        self.activity.push(0.0);
        self.seen.push(0);
        self.min_removable.push(0);
        self.min_poison.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.order.insert(&self.activity, v);
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
                self.attach_clause(&c, false, 0);
                true
            }
        }
    }

    /// Stores a clause and returns its index. Length-2 clauses enter the
    /// binary implication graph; longer ones watch positions 0 and 1.
    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> usize {
        debug_assert!(lits.len() >= 2);
        let idx = self.clauses.len();
        if lits.len() == 2 {
            self.bin_watches[lits[0].index()].push((lits[1], idx));
            self.bin_watches[lits[1].index()].push((lits[0], idx));
        } else {
            self.watches[lits[0].index()].push(idx);
            self.watches[lits[1].index()].push(idx);
        }
        if learnt {
            self.n_learnts += 1;
            self.stats.learned += 1;
        }
        self.clauses.push(lits, learnt, lbd);
        idx
    }

    /// Checkpoints the clause set, variable count, level-0 trail and the
    /// heuristic state. The matching [`SatSolver::pop`] restores all of
    /// it exactly — including VSIDS activity, saved phases, clause
    /// activities and the GC budget — so search behaviour after a pop is
    /// indistinguishable from a solver that never saw the popped clauses.
    pub fn push(&mut self) {
        self.backtrack_to(0);
        self.frames.push(SatFrame {
            n_vars: self.n_vars,
            clauses: self.clauses.clone(),
            trail_len: self.trail.len(),
            reason: self.reason.clone(),
            activity: self.activity.clone(),
            phase: self.phase.clone(),
            var_inc: self.var_inc,
            cla_inc: self.cla_inc,
            gc_budget: self.gc_budget,
            unsat: self.unsat,
        });
    }

    /// Undoes everything since the matching [`SatSolver::push`]: clauses,
    /// variables, level-0 facts, and the heuristic state. Effort counters
    /// in [`SatSolver::stats`] are deliberately kept.
    ///
    /// Every clause added since the push — original *and* learned — is
    /// dropped: learnts may resolve on popped clauses, so keeping an
    /// arbitrary one would be unsound, and dropping all of them makes the
    /// pop replay-exact.
    ///
    /// # Panics
    ///
    /// Panics when no matching `push` exists.
    pub fn pop(&mut self) {
        let f = self.frames.pop().expect("pop without matching push");
        self.backtrack_to(0);
        while self.trail.len() > f.trail_len {
            let l = self.trail.pop().expect("non-empty");
            self.assign[l.var()] = UNASSIGNED;
            self.reason[l.var()] = None;
        }
        self.qhead = self.trail.len();
        self.clauses = f.clauses;
        self.n_learnts = self.clauses.heads.iter().filter(|h| h.learnt).count();
        self.n_vars = f.n_vars;
        self.assign.truncate(f.n_vars);
        // Restore (not merely truncate) the reasons of the surviving
        // level-0 facts: an in-frame `reduce_db` remapped them to the
        // compacted clause indices, which the restored clause vector
        // just invalidated.
        self.reason = f.reason;
        self.level.truncate(f.n_vars);
        self.seen.truncate(f.n_vars);
        self.min_removable.truncate(f.n_vars);
        self.min_poison.truncate(f.n_vars);
        self.activity = f.activity;
        self.phase = f.phase;
        self.var_inc = f.var_inc;
        self.cla_inc = f.cla_inc;
        self.gc_budget = f.gc_budget;
        self.unsat = f.unsat;
        // Rebuild the watch lists over the surviving clauses: binary
        // clauses re-enter the implication graph, longer ones watch
        // positions 0 and 1.
        self.watches.truncate(2 * f.n_vars);
        self.bin_watches.truncate(2 * f.n_vars);
        for w in &mut self.watches {
            w.clear();
        }
        for w in &mut self.bin_watches {
            w.clear();
        }
        for i in 0..self.clauses.len() {
            let l = self.clauses.lits(i);
            if l.len() == 2 {
                self.bin_watches[l[0].index()].push((l[1], i));
                self.bin_watches[l[1].index()].push((l[0], i));
            } else {
                self.watches[l[0].index()].push(i);
                self.watches[l[1].index()].push(i);
            }
        }
        // The order heap follows the restored variable set; the restored
        // activity array re-keys it wholesale, so the incremental restore
        // heapifies in place rather than rebuilding from the identity
        // layout (the total order (activity, index) makes either
        // replay-safe — pinned by `order_heap_restore_matches_rebuild`).
        self.order.restore(&self.activity, f.n_vars);
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
            // Binary pass first: every two-literal clause with a literal
            // just falsified resolves by adjacency lookup — no watch
            // hunt, no literal swap, no list surgery (the graph is
            // static during propagation, so a conflict needs no restore).
            let mut k = 0;
            while k < self.bin_watches[false_lit.index()].len() {
                let (other, ci) = self.bin_watches[false_lit.index()][k];
                k += 1;
                match lit_value(&self.assign, other) {
                    1 => {}
                    0 => return Some(ci),
                    _ => {
                        self.stats.bin_props += 1;
                        let ok = self.enqueue(other, Some(ci));
                        debug_assert!(ok, "unassigned literal must enqueue");
                    }
                }
            }
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

    fn bump(&mut self, var: usize) {
        self.activity[var] += self.var_inc;
        if self.activity[var] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Uniform rescale preserves the heap order.
        }
        self.order.bumped(&self.activity, var);
    }

    fn bump_clause(&mut self, ci: usize) {
        if !self.clauses.hdr(ci).learnt {
            return;
        }
        self.clauses.hdr_mut(ci).activity += self.cla_inc;
        if self.clauses.hdr(ci).activity > 1e20 {
            for h in &mut self.clauses.heads {
                h.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= 0.999;
    }

    fn next_stamp(&mut self) -> u32 {
        self.seen_stamp = self.seen_stamp.wrapping_add(1);
        if self.seen_stamp == 0 {
            // Wrapped: invalidate all stale stamps once — including the
            // ccmin memo buffers, or an eons-old removable/poison entry
            // would match the reused stamp and fake a redundancy proof.
            for s in self
                .seen
                .iter_mut()
                .chain(&mut self.min_removable)
                .chain(&mut self.min_poison)
            {
                *s = 0;
            }
            self.seen_stamp = 1;
        }
        self.seen_stamp
    }

    /// Number of distinct decision levels among `lits` (the LBD quality
    /// measure driving reduction order; lower is better).
    fn lbd(&mut self, lits: &[Lit]) -> u32 {
        let stamp = self.next_stamp();
        let mut n = 0u32;
        for l in lits {
            let lv = self.level[l.var()] as usize;
            // Reuse the seen buffer indexed by level (levels < n_vars).
            if lv < self.seen.len() && self.seen[lv] != stamp {
                self.seen[lv] = stamp;
                n += 1;
            }
        }
        n
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
            self.bump_clause(conflict);
            for idx in 0..self.clauses.hdr(conflict).len as usize {
                let q = self.clauses.lits(conflict)[idx];
                // Skip the literal we just resolved on (it is asserted by
                // this reason clause).
                if asserting == Some(q) {
                    continue;
                }
                let v = q.var();
                if self.seen[v] != stamp && self.level[v] > 0 {
                    self.seen[v] = stamp;
                    self.bump(v);
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

        // Learnt-clause minimization: recursive self-subsumption drops
        // tail literals whose reason antecedents are all already in the
        // clause (`seen`-stamped), level-0 facts, or themselves
        // redundant — MiniSat's ccmin.
        let mut kept = 1usize;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.reason[l.var()].is_none() || !self.lit_redundant(l, stamp) {
                learnt[kept] = l;
                kept += 1;
            }
        }
        self.stats.minimized += (learnt.len() - kept) as u64;
        learnt.truncate(kept);

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

    /// Whether learnt-clause literal `p` is redundant: every antecedent
    /// of its reason clause is already in the learnt clause (stamped in
    /// `seen`), a level-0 fact, or recursively redundant. Iterative DFS
    /// over the reason graph with per-conflict memoization (`stamp`ed
    /// removable/poison buffers).
    fn lit_redundant(&mut self, p: Lit, stamp: u32) -> bool {
        if self.min_removable[p.var()] == stamp {
            return true;
        }
        if self.min_poison[p.var()] == stamp {
            return false;
        }
        let Some(cr) = self.reason[p.var()] else {
            return false;
        };
        // DFS frames: (literal being proven redundant, its reason
        // clause, next antecedent position to examine). The stack is
        // solver-owned scratch so minimization allocates nothing after
        // warm-up.
        self.min_stack.clear();
        self.min_stack.push((p, cr, 0));
        loop {
            let Some(&mut (lit, cr, ref mut next)) = self.min_stack.last_mut() else {
                return true;
            };
            if *next >= self.clauses.hdr(cr).len as usize {
                // Every antecedent accounted for: `lit` is redundant.
                self.min_removable[lit.var()] = stamp;
                self.min_stack.pop();
                continue;
            }
            let q = self.clauses.lits(cr)[*next];
            *next += 1;
            let v = q.var();
            if v == lit.var() {
                // The literal this reason clause asserts.
                continue;
            }
            if self.level[v] == 0 || self.seen[v] == stamp || self.min_removable[v] == stamp {
                continue;
            }
            if self.min_poison[v] == stamp || self.reason[v].is_none() {
                // Reached a decision (or a known dead end): the whole
                // proof path under construction is non-redundant.
                for &(l, _, _) in &self.min_stack {
                    self.min_poison[l.var()] = stamp;
                }
                return false;
            }
            let rcr = self.reason[v].expect("checked above");
            self.min_stack.push((q, rcr, 0));
        }
    }

    fn backtrack_to(&mut self, level: usize) {
        while self.trail_lim.len() > level {
            let lim = self.trail_lim.pop().expect("non-empty");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("non-empty");
                self.assign[l.var()] = UNASSIGNED;
                self.reason[l.var()] = None;
                self.order.insert(&self.activity, l.var());
            }
        }
        // Trail below `level` is untouched and fully propagated.
        self.qhead = self.trail.len();
    }

    /// Next decision literal: best unassigned variable off the order
    /// heap (activity descending, index ascending), in its saved phase.
    fn decide(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assign[v] == UNASSIGNED {
                return Some(if self.phase[v] {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                });
            }
        }
        None
    }

    /// Reduces the learnt-clause database: removes the cold half of the
    /// removable learnts (worst LBD first, then lowest activity), keeping
    /// binary clauses and clauses locked as reasons of current
    /// assignments. Rebuilds the watch lists and remaps reason indices
    /// over the compacted database. Fully deterministic: the removal
    /// order is a total order (lbd, activity, index).
    fn reduce_db(&mut self) {
        // Candidates: removable learnts, by index.
        let mut cands: Vec<usize> = Vec::new();
        let locked: Vec<bool> = {
            let mut locked = vec![false; self.clauses.len()];
            for v in 0..self.n_vars {
                if self.assign[v] != UNASSIGNED {
                    if let Some(ci) = self.reason[v] {
                        locked[ci] = true;
                    }
                }
            }
            locked
        };
        for (i, h) in self.clauses.heads.iter().enumerate() {
            if h.learnt && !locked[i] && h.len > 2 {
                cands.push(i);
            }
        }
        // Cold-first: high LBD, then low activity, then high index
        // (younger clauses of equal merit go first — they have had the
        // least time to prove themselves and keeping elders is cheaper
        // for the remap).
        cands.sort_by(|&a, &b| {
            let (ca, cb) = (self.clauses.hdr(a), self.clauses.hdr(b));
            cb.lbd
                .cmp(&ca.lbd)
                .then(
                    ca.activity
                        .partial_cmp(&cb.activity)
                        .expect("activities are finite"),
                )
                .then(b.cmp(&a))
        });
        let n_remove = cands.len() / 2;
        if n_remove == 0 {
            return;
        }
        let mut remove = vec![false; self.clauses.len()];
        for &i in &cands[..n_remove] {
            remove[i] = true;
        }
        // Compact, building the old->new index map. Rebuilding into a
        // fresh arena drops the dead literal runs too — GC is the one
        // place the flat buffer is ever re-packed.
        let old = std::mem::take(&mut self.clauses);
        let mut map: Vec<usize> = vec![usize::MAX; old.len()];
        let mut kept = ClauseDb {
            data: Vec::with_capacity(old.data.len()),
            heads: Vec::with_capacity(old.len() - n_remove),
        };
        for i in 0..old.len() {
            if !remove[i] {
                map[i] = kept.len();
                let start = kept.data.len() as u32;
                kept.data.extend_from_slice(old.lits(i));
                kept.heads.push(ClauseHdr {
                    start,
                    ..*old.hdr(i)
                });
            }
        }
        self.clauses = kept;
        self.n_learnts -= n_remove;
        self.stats.gc_clauses += n_remove as u64;
        // Remap reasons (locked clauses were never removed).
        for ci in self.reason.iter_mut().flatten() {
            debug_assert_ne!(map[*ci], usize::MAX, "locked clause GC'd");
            *ci = map[*ci];
        }
        // Rebuild watches over the compacted indices: binary clauses
        // (never GC candidates, but their indices shifted) re-enter the
        // implication graph, longer clauses watch positions 0 and 1.
        for w in &mut self.watches {
            w.clear();
        }
        for w in &mut self.bin_watches {
            w.clear();
        }
        for i in 0..self.clauses.len() {
            let l = self.clauses.lits(i);
            if l.len() == 2 {
                self.bin_watches[l[0].index()].push((l[1], i));
                self.bin_watches[l[1].index()].push((l[0], i));
            } else {
                self.watches[l[0].index()].push(i);
                self.watches[l[1].index()].push(i);
            }
        }
    }

    /// Stores a learnt clause, watches it, enqueues the asserting literal
    /// and pays the learnt-DB accounting. `lits[0]` must be the asserting
    /// literal and `lits[1]` a max-level literal.
    fn learn_and_assert(&mut self, lits: &[Lit]) {
        debug_assert!(lits.len() >= 2);
        let lbd = self.lbd(lits);
        let asserting = lits[0];
        let ci = self.attach_clause(lits, true, lbd);
        self.bump_clause(ci);
        let ok = self.enqueue(asserting, Some(ci));
        debug_assert!(ok, "asserting literal must be enqueueable");
    }

    /// Handles a conflicting clause: analyzes, backjumps, asserts the
    /// learnt, and runs the learnt-DB reduction when over budget.
    /// Returns `false` when the conflict proves top-level unsatisfiability.
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
            self.learn_and_assert(&learnt);
        }
        self.decay();
        if self.n_learnts >= self.gc_budget {
            self.reduce_db();
            // The +1 floors the integer growth for tiny (test-knob)
            // budgets, keeping the documented geometric back-off.
            self.gc_budget =
                (self.gc_budget + 1).max(self.gc_budget * GC_BUDGET_GROWTH_PERMILLE / 1000);
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
        let lbd = self.lbd(&clause);
        let ci = self.attach_clause(&clause, true, lbd);
        self.bump_clause(ci);
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
            let lbd = self.lbd(&clause);
            let ci = self.attach_clause(&clause, true, lbd);
            let ok = self.enqueue(lit, Some(ci));
            debug_assert!(ok, "implied literal was unassigned");
        }
        None
    }

    /// Pays one conflict toward the Luby restart cadence: the r-th
    /// restart fires after `luby(r) * RESTART_SCALE` conflicts of run r
    /// — Boolean and theory conflicts alike, so `stats.restarts` stays
    /// consistent with `stats.conflicts` under DPLL(T) (pinned by the
    /// `restart_cadence_follows_luby` test).
    fn tick_restart(&mut self, rs: &mut RestartSchedule) {
        rs.countdown -= 1;
        if rs.countdown == 0 {
            rs.run += 1;
            self.stats.restarts += 1;
            rs.countdown = luby(rs.run) * RESTART_SCALE;
            self.backtrack_to(0);
        }
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

        let mut restart = RestartSchedule::new();
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
                self.tick_restart(&mut restart);
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
                                self.tick_restart(&mut restart);
                                continue;
                            }
                            TheoryResult::Implied(implied) => {
                                if let Some(asserted) = self.assert_implied(implied) {
                                    if !self.resolve_theory_conflict(&asserted) {
                                        return SatVerdict::Unsat;
                                    }
                                    self.tick_restart(&mut restart);
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
                                    self.tick_restart(&mut restart);
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

/// Per-solve restart bookkeeping: the current Luby run index and the
/// conflicts left before it ends.
struct RestartSchedule {
    run: u32,
    countdown: u64,
}

impl RestartSchedule {
    fn new() -> RestartSchedule {
        RestartSchedule {
            run: 1,
            countdown: luby(1) * RESTART_SCALE,
        }
    }
}

/// Luby restart sequence (1,1,2,1,1,2,4,...), 1-indexed.
fn luby(i: u32) -> u64 {
    let mut i = i as u64;
    loop {
        if (i + 1).is_power_of_two() {
            return i.div_ceil(2);
        }
        let k = 63 - (i + 1).leading_zeros() as u64; // floor(log2(i+1))
        i -= (1u64 << k) - 1;
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
    fn minimization_fires_on_pigeonhole_and_preserves_verdicts() {
        // Pigeonhole conflicts produce first-UIP clauses with redundant
        // chain literals; the recursive minimizer must remove some and
        // the verdict must stay Unsat.
        let (n, clauses) = pigeonhole_clauses(7);
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(n, &refs);
        assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
        assert!(
            s.stats.minimized > 0,
            "no literals minimized across {} conflicts",
            s.stats.conflicts
        );
        // Satisfiable side: a chain instance where every learnt clause
        // shrinks to its essence still yields a model.
        let mut c = solver_with(
            6,
            &[
                &[1, 2],
                &[-1, 3],
                &[-2, 3],
                &[-3, 4],
                &[-4, 5],
                &[-5, 6],
                &[-3, -6, 5],
            ],
        );
        let SatVerdict::Sat(m) = c.solve(&[], None) else {
            panic!("expected sat")
        };
        assert!(m[0] || m[1]);
    }

    #[test]
    fn minimized_counter_survives_since_snapshots() {
        let (n, clauses) = pigeonhole_clauses(6);
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(n, &refs);
        let before = s.stats;
        assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
        let delta = s.stats.since(before);
        assert_eq!(delta.minimized, s.stats.minimized);
        assert!(delta.learned > 0);
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
    fn luby_sequence_prefix() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u32 + 1), e, "luby({})", i + 1);
        }
    }

    #[test]
    fn restart_cadence_follows_luby() {
        // The r-th restart fires after RESTART_SCALE*luby(r) conflicts of
        // run r, so with C total conflicts the restart count is the
        // largest R with sum_{i=1..R} RESTART_SCALE*luby(i) <= C.
        // Pigeonhole 7->6 produces enough conflicts to cross several Luby
        // runs deterministically.
        let (n, clauses) = pigeonhole_clauses(7);
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(n, &refs);
        assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
        let conflicts = s.stats.conflicts;
        let mut expect = 0u64;
        let mut budget = 0u64;
        loop {
            budget += luby(expect as u32 + 1) * RESTART_SCALE;
            if budget > conflicts {
                break;
            }
            expect += 1;
        }
        assert!(
            conflicts > RESTART_SCALE,
            "instance too easy to pin the cadence"
        );
        assert_eq!(s.stats.restarts, expect, "conflicts={conflicts}");
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

    // ----- order heap ----------------------------------------------------

    #[test]
    fn order_heap_pops_by_activity_then_index() {
        let act = [1.0f64, 3.0, 3.0, 0.5, 2.0];
        let mut h = OrderHeap::default();
        for v in 0..act.len() {
            h.insert(&act, v);
        }
        let mut got = Vec::new();
        while let Some(v) = h.pop_max(&act) {
            got.push(v);
        }
        // Activity descending; ties broken toward the smaller index.
        assert_eq!(got, vec![1, 2, 4, 0, 3]);
    }

    #[test]
    fn order_heap_rebuild_matches_incremental_inserts() {
        let act = [0.25f64, 4.0, 1.0, 1.0, 0.0, 7.5];
        let mut a = OrderHeap::default();
        for v in [5, 2, 0, 3, 1, 4] {
            a.insert(&act, v);
        }
        let mut b = OrderHeap::default();
        b.rebuild(&act, act.len());
        let drain = |mut h: OrderHeap| {
            let mut out = Vec::new();
            while let Some(v) = h.pop_max(&act) {
                out.push(v);
            }
            out
        };
        assert_eq!(drain(a), drain(b));
    }

    // ----- clause-DB reduction -------------------------------------------

    #[test]
    fn gc_triggers_and_preserves_verdict() {
        let (n, clauses) = pigeonhole_clauses(7);
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut tight = solver_with(n, &refs);
        tight.set_gc_budget(10);
        assert_eq!(tight.solve(&[], None), SatVerdict::Unsat);
        assert!(tight.stats.gc_clauses > 0, "GC never ran");
        assert!(tight.live_learnts() <= tight.stats.learned as usize);
    }

    #[test]
    fn gc_keeps_locked_reasons_valid() {
        // A satisfiable instance large enough to learn under a tight
        // budget: GC between conflicts must never invalidate reasons.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let n = 30usize;
        let clauses: Vec<Vec<i32>> = (0..120)
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
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut a = solver_with(n, &refs);
        a.set_gc_budget(4);
        let mut b = solver_with(n, &refs);
        // Verdicts agree with and without aggressive GC.
        assert_eq!(
            matches!(a.solve(&[], None), SatVerdict::Sat(_)),
            matches!(b.solve(&[], None), SatVerdict::Sat(_))
        );
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

    // ----- push / pop ----------------------------------------------------

    #[test]
    fn push_pop_restores_satisfiability() {
        let mut s = solver_with(2, &[&[1, 2]]);
        s.push();
        s.add_clause(&lits(&[-1]));
        s.add_clause(&lits(&[-2]));
        assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
        s.pop();
        assert!(matches!(s.solve(&[], None), SatVerdict::Sat(_)));
    }

    #[test]
    fn pop_removes_variables_and_level0_facts() {
        let mut s = solver_with(1, &[]);
        s.push();
        let v = s.new_var();
        s.add_clause(&[Lit::pos(v)]);
        s.add_clause(&[Lit::neg(v), Lit::pos(0)]);
        let SatVerdict::Sat(m) = s.solve(&[], None) else {
            panic!()
        };
        assert!(m[0] && m[v]);
        s.pop();
        assert_eq!(s.n_vars(), 1);
        // Var 0 is free again: both polarities satisfiable.
        assert!(matches!(s.solve(&[Lit::neg(0)], None), SatVerdict::Sat(_)));
        assert!(matches!(s.solve(&[Lit::pos(0)], None), SatVerdict::Sat(_)));
    }

    #[test]
    fn pop_replays_identically_to_fresh_solver() {
        // Solve the same instance (a) on a fresh solver, (b) after a
        // push/solve/pop detour: models must match bit for bit.
        let base: &[&[i32]] = &[&[1, 2, -3], &[-1, 3], &[2, 3], &[-2, -3, 4]];
        let extra: &[&[i32]] = &[&[-4], &[3, 4]];
        let instance: &[&[i32]] = &[&[1, -2], &[2, 3, 4], &[-3, -4]];

        let mut fresh = solver_with(4, base);
        let mut detoured = solver_with(4, base);
        detoured.push();
        for c in extra {
            detoured.add_clause(&lits(c));
        }
        let _ = detoured.solve(&[], None);
        detoured.pop();

        fresh.push();
        detoured.push();
        for c in instance {
            fresh.add_clause(&lits(c));
            detoured.add_clause(&lits(c));
        }
        assert_eq!(fresh.solve(&[], None), detoured.solve(&[], None));
    }

    #[test]
    fn pop_restores_clause_internal_literal_order() {
        // Propagation permutes literal order inside surviving clauses
        // while hunting for new watches; pop must undo that too, or the
        // post-pop watch traversal diverges from a fresh solver's.
        let mut s = solver_with(4, &[&[1, 2, 3], &[1, 4], &[2, -3, 4]]);
        let before = s.clauses.clone();
        s.push();
        s.add_clause(&lits(&[-1]));
        s.add_clause(&lits(&[-2]));
        let _ = s.solve(&[], None);
        // Precondition: the detour really permuted a pre-push clause
        // (otherwise this test is vacuous).
        let permuted = (0..before.len()).any(|i| s.clauses.lits(i) != before.lits(i));
        assert!(permuted, "detour was a no-op");
        s.pop();
        assert_eq!(s.clauses, before);
    }

    #[test]
    fn pop_restores_unsat_flag() {
        let mut s = solver_with(1, &[]);
        s.push();
        s.add_clause(&lits(&[1]));
        s.add_clause(&lits(&[-1]));
        assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
        s.pop();
        assert!(matches!(s.solve(&[], None), SatVerdict::Sat(_)));
    }

    #[test]
    fn pop_restores_level0_reason_indices_after_inframe_gc() {
        // Depth-0 state: pigeonhole learnts first (low clause indices),
        // then a propagated level-0 fact whose reason index sits above
        // them. A reduce_db inside the frame removes depth-0 learnts and
        // remaps the fact's reason; pop must restore the push-time
        // reason array alongside the clause vector, or the fact's reason
        // dangles into the wrong clause.
        // Depth-0 learnts on a solver that stays satisfiable: planted
        // 3-SAT (every clause has a positive literal; all-true is a
        // model) with default all-false phases forces early conflicts.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let n = 25usize;
        let mut s = solver_with(n, &[]);
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
            let planted: usize = rng.random_range(0..3);
            c[planted] = c[planted].abs();
            s.add_clause(&lits(&c));
        }
        assert!(matches!(s.solve(&[], None), SatVerdict::Sat(_)));
        assert!(s.live_learnts() > 0, "depth-0 learnts required");
        let u = s.new_var();
        let w = s.new_var();
        s.add_clause(&[Lit::neg(u), Lit::pos(w)]); // stored first...
        s.add_clause(&[Lit::pos(u)]); // ...then u propagates w through it
        assert!(s.reason[w].is_some(), "fact w must carry a reason");
        s.push();
        s.set_gc_budget(1); // reduce_db on every conflict inside the frame
        let (m, clauses) = pigeonhole_clauses(6);
        let base = s.n_vars();
        for _ in 0..m {
            s.new_var();
        }
        for c in &clauses {
            let shifted: Vec<Lit> = c
                .iter()
                .map(|&l| {
                    let v = base + (l.unsigned_abs() - 1) as usize;
                    if l > 0 {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    }
                })
                .collect();
            s.add_clause(&shifted);
        }
        let gc_before = s.stats.gc_clauses;
        assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
        assert!(s.stats.gc_clauses > gc_before, "in-frame GC never ran");
        s.pop();
        for v in 0..s.n_vars {
            if s.assign[v] != UNASSIGNED {
                if let Some(ci) = s.reason[v] {
                    assert!(
                        s.clauses.lits(ci).iter().any(|l| l.var() == v),
                        "reason of var {v} points at a clause not containing it"
                    );
                }
            }
        }
    }

    #[test]
    fn pop_drops_all_learnts() {
        let (n, clauses) = pigeonhole_clauses(5);
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(n, &refs);
        s.push();
        assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
        assert!(s.live_learnts() > 0);
        s.pop();
        assert_eq!(s.live_learnts(), 0);
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

    // ----- binary implication layer --------------------------------------

    #[test]
    fn binary_chain_propagates_through_bin_layer() {
        // A pure implication chain 1 -> 2 -> ... -> 6 rooted in a unit
        // fact: every enqueue past the root flows through the binary
        // adjacency lists, not the two-watched scheme. The unit goes in
        // last — `add_clause` propagates facts eagerly and would
        // otherwise shorten each binary to a unit before attachment.
        let mut s = solver_with(6, &[&[-1, 2], &[-2, 3], &[-3, 4], &[-4, 5], &[-5, 6], &[1]]);
        match s.solve(&[], None) {
            SatVerdict::Sat(model) => assert!(model.iter().all(|&b| b)),
            v => panic!("expected Sat, got {v:?}"),
        }
        assert_eq!(s.stats.bin_props, 5, "five binary-implied enqueues");
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
        assert!(s.stats.bin_props > 0);
    }

    #[test]
    fn binary_layer_survives_push_pop() {
        // Binary clauses added inside a frame must vanish on pop, and
        // pre-push binaries must keep propagating afterwards.
        let mut s = solver_with(3, &[&[-1, 2], &[-2, 3]]);
        s.push();
        s.add_clause(&lits(&[1]));
        s.add_clause(&lits(&[-3]));
        assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
        s.pop();
        s.push();
        let before = s.stats.bin_props;
        s.add_clause(&lits(&[1]));
        match s.solve(&[], None) {
            SatVerdict::Sat(model) => assert!(model.iter().all(|&b| b)),
            v => panic!("expected Sat, got {v:?}"),
        }
        assert!(s.stats.bin_props >= before + 2, "pre-push chain must fire");
        s.pop();
    }

    #[test]
    fn binary_layer_survives_gc_compaction() {
        // reduce_db rebuilds both watch schemes over compacted clause
        // indices; a GC-heavy Unsat run followed by continued use would
        // crash or mispropagate if binary entries dangled.
        let (n, clauses) = pigeonhole_clauses(7);
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(n, &refs);
        s.set_gc_budget(10);
        assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
        assert!(s.stats.gc_clauses > 0, "GC never ran");
        assert!(s.stats.bin_props > 0, "hole-exclusion binaries must fire");
    }

    // ----- order-heap restore ---------------------------------------------

    #[test]
    fn order_heap_restore_matches_rebuild() {
        // `restore` must land on the same pop_max drain as the reference
        // full rebuild from any surviving layout: arbitrary insert
        // orders, popped subsets, duplicate activities (tie-breaking),
        // and shrunken variable ranges.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for round in 0..200 {
            let total = rng.random_range(1..30usize);
            let act: Vec<f64> = (0..total)
                .map(|_| f64::from(rng.random_range(0..6u32)))
                .collect();
            let mut h = OrderHeap::default();
            let mut order: Vec<usize> = (0..total).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
            for &v in &order {
                h.insert(&act, v);
            }
            for _ in 0..rng.random_range(0..=total) {
                h.pop_max(&act);
            }
            let n_vars = rng.random_range(1..=total);
            let mut restored = h.clone();
            restored.restore(&act, n_vars);
            let mut rebuilt = h;
            rebuilt.rebuild(&act, n_vars);
            let drain = |mut h: OrderHeap| {
                let mut out = Vec::new();
                while let Some(v) = h.pop_max(&act) {
                    out.push(v);
                }
                out
            };
            assert_eq!(drain(restored), drain(rebuilt), "round {round}");
        }
    }
}
