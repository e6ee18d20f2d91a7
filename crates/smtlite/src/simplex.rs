//! A general simplex decision procedure for conjunctions of linear-real
//! bounds, after Dutertre & de Moura, *A Fast Linear-Arithmetic Solver for
//! DPLL(T)* (CAV 2006).
//!
//! Strict inequalities are handled with *delta-rationals* `r + d·ε`
//! (symbolic infinitesimal ε); Bland's rule guarantees termination; an
//! infeasibility is explained by the set of asserted bound ids in the
//! violated row, which the DPLL(T) driver turns into a blocking clause.
//!
//! The procedure is packaged two ways: the stateless [`check`] (decide
//! one conjunction from scratch) and the *persistent* [`Simplex`], which
//! the DPLL(T) driver owns across calls. [`Simplex::check_assignment`]
//! re-asserts the bound set of each candidate Boolean assignment but
//! keeps the tableau — columns, slack definitions and, crucially, the
//! pivoted basis — from the previous call, so consecutive checks inside
//! one OMT search warm-start from the last feasible basis instead of
//! re-pivoting from the origin.
//!
//! Every entry point runs one solve loop over bounds that name their
//! linear form by index; a column resolver maps the index to a column
//! when the bound is asserted. The public wrappers resolve each
//! [`BoundConstraint`]'s form through the slack registry; the DPLL(T)
//! solver resolves its compiled atoms through a per-atom column cache,
//! so a theory check asserts bounds without rebuilding, sorting or
//! hashing any linear form. Either way a column is allocated at the
//! moment its first bound is asserted, so column numbering, and with it
//! Bland order, does not depend on the cache.
//!
//! Before the Bland loop, nonbasic values outside their new bounds are
//! clamped onto them, and only the basic rows over a clamped column are
//! recomputed. That is exact because every basic value equals its row's
//! value at each solve's entry: pivots update the basics they touch,
//! new slacks are evaluated at creation, and `Solver::pop` only ever
//! swaps in a consistent clone.
//!
//! # Two-phase numerics
//!
//! All tableau state lives in exact `i128` rationals — the ground truth
//! that certifies every verdict and extracted model. On top of them the
//! solver maintains `f64` *mirrors* of each column value and asserted
//! bound (standard parts only), refreshed from the exact values whenever
//! those change. Mirrors are never produced by chained float arithmetic,
//! so each carries a relative error below `2⁻⁵¹`. Every hot comparison
//! (bound-conflict detection, nonbasic clamping, violation scan, pivot
//! eligibility) first compares the mirrors with the magnitude-scaled
//! margin `(|a| + |b| + 1)·10⁻¹²`: outside the margin the float sign
//! provably equals the exact sign (the margin dwarfs the combined mirror
//! error), so the decision is certified without touching the rationals;
//! inside the margin — including every exact tie, where the ε parts
//! decide — the comparison falls back to the exact path and is counted
//! in [`SimplexStats::exact_fallbacks`]. Verdicts, conflict
//! explanations, pivot sequences and models are therefore bit-for-bit
//! identical to [`NumericMode::ExactOnly`], which skips the float layer
//! entirely.
//!
//! Tableau rows are sorted sparse vectors recycled through an internal
//! arena: pivoting merges rows into buffers drawn from a free list
//! instead of allocating, so warm-started windows stop hitting the
//! allocator. Row arithmetic goes through the checked `Rat` ops; an
//! `i128` overflow surfaces as [`SimplexHalt::Overflow`] from the
//! `try_*` entry points (the tableau is then poisoned until the owner
//! restores a consistent clone or starts fresh) instead of panicking
//! mid-scenario, and a deterministic pivot budget
//! ([`Simplex::set_pivot_limit`]) surfaces as [`SimplexHalt::Budget`]
//! between pivots, leaving the tableau valid.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::{Add, Mul, Neg, Sub};

use crate::hash::WordMap;
use crate::rational::RatOverflow;
use crate::Rat;

/// Why a `try_*` simplex call stopped without a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimplexHalt {
    /// `i128` rational arithmetic overflowed mid-pivot; the tableau is
    /// poisoned until the owner restores a consistent clone.
    Overflow,
    /// The deterministic pivot budget ran out *between* pivots. The
    /// tableau stays consistent (not poisoned): re-solving after raising
    /// or clearing the limit continues from the current basis.
    Budget,
}

impl From<RatOverflow> for SimplexHalt {
    fn from(_: RatOverflow) -> SimplexHalt {
        SimplexHalt::Overflow
    }
}

/// The panic the legacy (non-`try_`) entry points raise on a halt; the
/// overflow message is a long-standing contract other layers match on.
fn halt_panic(halt: SimplexHalt) -> ! {
    match halt {
        SimplexHalt::Overflow => panic!("rational arithmetic overflow"),
        SimplexHalt::Budget => panic!("simplex pivot budget exhausted"),
    }
}

/// A rational extended with a symbolic infinitesimal: `r + d·ε`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaRat {
    /// Standard part.
    pub r: Rat,
    /// Coefficient of ε.
    pub d: Rat,
}

impl DeltaRat {
    /// Zero.
    pub const ZERO: DeltaRat = DeltaRat {
        r: Rat::ZERO,
        d: Rat::ZERO,
    };

    /// A standard rational (no infinitesimal part).
    pub fn standard(r: Rat) -> DeltaRat {
        DeltaRat { r, d: Rat::ZERO }
    }

    /// `r + ε` (used for strict lower bounds).
    pub fn plus_eps(r: Rat) -> DeltaRat {
        DeltaRat { r, d: Rat::ONE }
    }

    /// `r - ε` (used for strict upper bounds).
    pub fn minus_eps(r: Rat) -> DeltaRat {
        DeltaRat { r, d: -Rat::ONE }
    }

    /// Concretizes with a specific ε value.
    fn try_concretize(self, eps: Rat) -> Result<Rat, RatOverflow> {
        self.r.try_add(self.d.try_mul(eps)?)
    }

    fn try_add_dr(self, o: DeltaRat) -> Result<DeltaRat, RatOverflow> {
        Ok(DeltaRat {
            r: self.r.try_add(o.r)?,
            d: self.d.try_add(o.d)?,
        })
    }

    fn try_sub_dr(self, o: DeltaRat) -> Result<DeltaRat, RatOverflow> {
        Ok(DeltaRat {
            r: self.r.try_sub(o.r)?,
            d: self.d.try_sub(o.d)?,
        })
    }

    fn try_mul_rat(self, c: Rat) -> Result<DeltaRat, RatOverflow> {
        Ok(DeltaRat {
            r: self.r.try_mul(c)?,
            d: self.d.try_mul(c)?,
        })
    }
}

impl PartialOrd for DeltaRat {
    fn partial_cmp(&self, other: &DeltaRat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DeltaRat {
    fn cmp(&self, other: &DeltaRat) -> Ordering {
        self.r.cmp(&other.r).then(self.d.cmp(&other.d))
    }
}

impl Add for DeltaRat {
    type Output = DeltaRat;
    fn add(self, o: DeltaRat) -> DeltaRat {
        DeltaRat {
            r: self.r + o.r,
            d: self.d + o.d,
        }
    }
}

impl Sub for DeltaRat {
    type Output = DeltaRat;
    fn sub(self, o: DeltaRat) -> DeltaRat {
        DeltaRat {
            r: self.r - o.r,
            d: self.d - o.d,
        }
    }
}

impl Mul<Rat> for DeltaRat {
    type Output = DeltaRat;
    fn mul(self, c: Rat) -> DeltaRat {
        DeltaRat {
            r: self.r * c,
            d: self.d * c,
        }
    }
}

impl Neg for DeltaRat {
    type Output = DeltaRat;
    fn neg(self) -> DeltaRat {
        DeltaRat {
            r: -self.r,
            d: -self.d,
        }
    }
}

/// Which side a bound constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// `expr ≥ bound`.
    Lower,
    /// `expr ≤ bound`.
    Upper,
}

/// One asserted bound on a linear form, tagged with the asserting atom's id
/// (the SAT variable of the theory literal) for conflict explanations.
#[derive(Debug, Clone)]
pub struct BoundConstraint {
    /// The linear form `Σ cᵢ·xᵢ` (no constant; folded into the bound).
    pub expr: Vec<(Rat, usize)>,
    /// The bound value (possibly with an ε part for strict bounds).
    pub bound: DeltaRat,
    /// Which side is constrained.
    pub kind: BoundKind,
    /// Identifier echoed back in conflict explanations.
    pub id: usize,
}

/// A bound as the one solve loop consumes it: the linear form it
/// constrains is named by an index the caller's column resolver maps to
/// a column when the bound is asserted, so columns are allocated in
/// assertion order (and with them Bland order) whether or not the
/// caller has the column cached.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FormBound {
    /// Index handed to the column resolver.
    pub(crate) form: usize,
    /// The bound value (possibly with an ε part for strict bounds).
    pub(crate) bound: DeltaRat,
    /// Which side is constrained.
    pub(crate) kind: BoundKind,
    /// Identifier echoed back in conflict explanations.
    pub(crate) id: usize,
}

/// A bound with the id of the atom that asserted it, as stored per
/// column (`None` = unconstrained on that side).
pub type AssertedBound = Option<(DeltaRat, usize)>;

/// Result of a feasibility check.
#[derive(Debug, Clone)]
pub enum SimplexResult {
    /// Feasible, with a concrete rational assignment per variable index.
    Feasible(HashMap<usize, Rat>),
    /// Infeasible; the ids of a conflicting subset of bounds.
    Infeasible(Vec<usize>),
}

/// Numeric strategy for the simplex comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NumericMode {
    /// Compare `f64` mirrors first; fall back to exact rationals whenever
    /// a comparison lands inside the certified error margin. The default.
    #[default]
    FloatFirst,
    /// Skip the float layer: every comparison runs on exact rationals.
    /// The reference path; verdicts are identical by construction.
    ExactOnly,
}

/// Counters describing how the two-phase numeric pipeline behaved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplexStats {
    /// Total pivots performed (identical across numeric modes).
    pub pivots: u64,
    /// Pivots performed while the float fast path was active.
    pub float_pivots: u64,
    /// Comparisons that landed inside the float error margin and were
    /// re-certified on exact rationals.
    pub exact_fallbacks: u64,
}

impl SimplexStats {
    /// Counter deltas since an earlier snapshot.
    pub fn since(self, before: SimplexStats) -> SimplexStats {
        SimplexStats {
            pivots: self.pivots.saturating_sub(before.pivots),
            float_pivots: self.float_pivots.saturating_sub(before.float_pivots),
            exact_fallbacks: self.exact_fallbacks.saturating_sub(before.exact_fallbacks),
        }
    }
}

/// A tableau row: nonzero coefficients over nonbasic columns, sorted by
/// column index.
type SparseRow = Vec<(usize, Rat)>;

/// Free-list arena recycling row buffers across pivots: a pivot releases
/// the rows it rewrites and draws replacements from here, so steady-state
/// pivoting performs no heap allocation.
#[derive(Debug, Default)]
struct RowArena {
    free: Vec<SparseRow>,
}

impl RowArena {
    fn alloc(&mut self) -> SparseRow {
        self.free.pop().unwrap_or_default()
    }

    fn release(&mut self, mut row: SparseRow) {
        row.clear();
        self.free.push(row);
    }
}

// Cloning a tableau (DPLL(T) push frames) does not drag spare buffers
// along: the clone starts with an empty free list.
impl Clone for RowArena {
    fn clone(&self) -> RowArena {
        RowArena::default()
    }
}

/// Float-first comparison of two exact values through their mirrors.
/// `Some(ordering)` is returned only when the mirrors are separated by
/// more than the worst-case combined mirror error (each mirror is one
/// `i128 → f64` conversion pair plus one division, relative error below
/// `2⁻⁵¹` ≈ `4.4·10⁻¹⁶`, which the `10⁻¹²` margin dwarfs), so the float
/// ordering provably equals the exact one; `None` means "too close —
/// certify exactly".
fn float_cmp(fa: f64, fb: f64) -> Option<Ordering> {
    let margin = (fa.abs() + fb.abs() + 1.0) * 1e-12;
    let d = fa - fb;
    if d > margin {
        Some(Ordering::Greater)
    } else if d < -margin {
        Some(Ordering::Less)
    } else {
        None
    }
}

/// `dst = a + scale·b`, where `a` skips its entry at column `skip`
/// (`usize::MAX` to keep all). Both inputs are sorted sparse rows; the
/// output is sorted and zero-free. Linear-time merge, no allocation
/// beyond `dst`'s (recycled) capacity.
fn merge_axpy(
    dst: &mut SparseRow,
    a: &[(usize, Rat)],
    skip: usize,
    scale: Rat,
    b: &[(usize, Rat)],
) -> Result<(), RatOverflow> {
    dst.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        if i < a.len() && a[i].0 == skip {
            i += 1;
            continue;
        }
        let ka = a.get(i).map_or(usize::MAX, |&(k, _)| k);
        let kb = b.get(j).map_or(usize::MAX, |&(k, _)| k);
        match ka.cmp(&kb) {
            Ordering::Less => {
                dst.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                let c = scale.try_mul(b[j].1)?;
                if !c.is_zero() {
                    dst.push((kb, c));
                }
                j += 1;
            }
            Ordering::Equal => {
                let c = a[i].1.try_add(scale.try_mul(b[j].1)?)?;
                if !c.is_zero() {
                    dst.push((ka, c));
                }
                i += 1;
                j += 1;
            }
        }
    }
    Ok(())
}

/// Persistent simplex state: columns for every real variable and slack
/// (one per distinct multi-term linear form) seen so far, the current
/// basis (`rows`), values, and the bounds asserted by the most recent
/// [`Simplex::check_assignment`] call.
///
/// Column indices are allocated on first sight, interleaving variables
/// and slacks; `var_col`/`col_var` keep the two spaces mapped. The basis
/// survives between calls — that persistence *is* the warm start.
#[derive(Debug, Clone, Default)]
pub struct Simplex {
    /// Total columns allocated.
    n_cols: usize,
    /// Real-variable index -> column (`usize::MAX` = not yet allocated).
    var_col: Vec<usize>,
    /// Column -> real-variable index (`None` for slack columns).
    col_var: Vec<Option<usize>>,
    /// Distinct multi-term linear form (sorted by var) -> slack column.
    form_slack: WordMap<Vec<(Rat, usize)>, usize>,
    /// Basic columns' defining rows over nonbasic columns (`None` =
    /// nonbasic), indexed by column — index order *is* Bland order.
    rows: Vec<Option<SparseRow>>,
    value: Vec<DeltaRat>,
    lower: Vec<AssertedBound>,
    upper: Vec<AssertedBound>,
    /// `f64` mirrors of `value[·].r`, refreshed on every exact write.
    fvalue: Vec<f64>,
    /// Mirrors of the asserted bound standard parts; meaningful only
    /// while the matching `lower`/`upper` entry is `Some`.
    flower: Vec<f64>,
    fupper: Vec<f64>,
    arena: RowArena,
    /// Per column: moved by the current solve's clamp pass (all `false`
    /// between solves).
    moved: Vec<bool>,
    mode: NumericMode,
    stats: SimplexStats,
    /// Set when an overflow aborted mid-pivot: the tableau invariants no
    /// longer hold, so every `try_*` call refuses until the owner
    /// restores a consistent clone or starts fresh.
    poisoned: bool,
    /// Absolute cap on `stats.pivots` (`None` = unlimited): the Bland
    /// loop halts with [`SimplexHalt::Budget`] before the pivot that
    /// would exceed it. Deterministic — pivots, never wall time.
    pivot_limit: Option<u64>,
}

impl Simplex {
    /// Creates an empty tableau.
    pub fn new() -> Simplex {
        Simplex::default()
    }

    /// Selects the numeric strategy for subsequent calls. Verdicts,
    /// models and pivot sequences do not depend on the mode; only the
    /// counters and the wall clock do. Safe to flip between calls on a
    /// live tableau.
    pub fn set_numeric_mode(&mut self, mode: NumericMode) {
        self.mode = mode;
    }

    /// The active numeric strategy.
    pub fn numeric_mode(&self) -> NumericMode {
        self.mode
    }

    /// Cumulative two-phase pipeline counters.
    pub fn stats(&self) -> SimplexStats {
        self.stats
    }

    /// Overwrites the counters — the DPLL(T) driver uses this to carry
    /// them across push/pop frame restores.
    pub(crate) fn set_stats(&mut self, stats: SimplexStats) {
        self.stats = stats;
    }

    /// Caps cumulative pivots at `limit` (absolute, against
    /// [`Simplex::stats`]; `None` lifts the cap). Exhaustion halts the
    /// solve with [`SimplexHalt::Budget`] between pivots — the tableau
    /// stays valid. Like the numeric mode, the cap is a knob, not state:
    /// the DPLL(T) driver carries it across push/pop restores.
    pub fn set_pivot_limit(&mut self, limit: Option<u64>) {
        self.pivot_limit = limit;
    }

    /// The active absolute pivot cap.
    pub fn pivot_limit(&self) -> Option<u64> {
        self.pivot_limit
    }

    fn is_basic(&self, v: usize) -> bool {
        self.rows[v].is_some()
    }

    /// Columns allocated so far; column indices below it stay valid for
    /// the life of this tableau and of its clones.
    pub(crate) fn n_cols(&self) -> usize {
        self.n_cols
    }

    fn set_value(&mut self, c: usize, v: DeltaRat) {
        self.value[c] = v;
        self.fvalue[c] = v.r.to_f64();
    }

    /// The certified comparison: float mirrors first (in
    /// [`NumericMode::FloatFirst`]), exact rationals inside the margin.
    fn cmp_dr(&mut self, a: DeltaRat, fa: f64, b: DeltaRat, fb: f64) -> Ordering {
        if self.mode == NumericMode::FloatFirst {
            if let Some(o) = float_cmp(fa, fb) {
                return o;
            }
            self.stats.exact_fallbacks += 1;
        }
        a.cmp(&b)
    }

    /// Whether nonbasic `j` can still move up (strictly below its upper
    /// bound, or unbounded above).
    fn below_upper(&mut self, j: usize) -> bool {
        match self.upper[j] {
            None => true,
            Some((u, _)) => {
                self.cmp_dr(self.value[j], self.fvalue[j], u, self.fupper[j]) == Ordering::Less
            }
        }
    }

    /// Whether nonbasic `j` can still move down (strictly above its
    /// lower bound, or unbounded below).
    fn above_lower(&mut self, j: usize) -> bool {
        match self.lower[j] {
            None => true,
            Some((l, _)) => {
                self.cmp_dr(self.value[j], self.fvalue[j], l, self.flower[j]) == Ordering::Greater
            }
        }
    }

    fn new_col(&mut self, var: Option<usize>) -> usize {
        let c = self.n_cols;
        self.n_cols += 1;
        self.col_var.push(var);
        self.rows.push(None);
        self.value.push(DeltaRat::ZERO);
        self.fvalue.push(0.0);
        self.lower.push(None);
        self.upper.push(None);
        self.flower.push(0.0);
        self.fupper.push(0.0);
        self.moved.push(false);
        c
    }

    fn var_column(&mut self, v: usize) -> usize {
        if v >= self.var_col.len() {
            self.var_col.resize(v + 1, usize::MAX);
        }
        if self.var_col[v] == usize::MAX {
            self.var_col[v] = self.new_col(Some(v));
        }
        self.var_col[v]
    }

    /// Column deciding a bound on `expr`: a single positive-unit term
    /// binds the variable's own column; any other form gets (or reuses)
    /// a slack column whose defining row is expressed over the *current*
    /// nonbasic columns (substituting rows of already-basic variables,
    /// so the new definition composes with prior pivots). A form
    /// already sorted by variable, as compiled atoms are, is looked up
    /// without a copy.
    pub(crate) fn try_column_for(&mut self, expr: &[(Rat, usize)]) -> Result<usize, RatOverflow> {
        if expr.len() == 1 && expr[0].0 == Rat::ONE {
            return Ok(self.var_column(expr[0].1));
        }
        let key: Cow<'_, [(Rat, usize)]> = if expr.is_sorted_by_key(|&(_, v)| v) {
            Cow::Borrowed(expr)
        } else {
            let mut key = expr.to_vec();
            key.sort_by_key(|&(_, v)| v);
            Cow::Owned(key)
        };
        if let Some(&c) = self.form_slack.get(&*key) {
            return Ok(c);
        }
        // Resolve (allocating) every variable column up front, then
        // accumulate Σ c·(column or its defining row) by sorted merges,
        // ping-ponging between two recycled buffers.
        let mut terms: Vec<(Rat, usize)> = Vec::with_capacity(key.len());
        for &(c, v) in key.iter() {
            let col = self.var_column(v);
            terms.push((c, col));
        }
        let mut acc = self.arena.alloc();
        let mut next = self.arena.alloc();
        for (c, col) in terms {
            let unit = [(col, Rat::ONE)];
            let term: &[(usize, Rat)] = match self.rows[col].as_deref() {
                Some(r) => r,
                None => &unit,
            };
            merge_axpy(&mut next, &acc, usize::MAX, c, term)?;
            std::mem::swap(&mut acc, &mut next);
        }
        self.arena.release(next);
        let v = self.try_row_value(&acc)?;
        let s = self.new_col(None);
        self.form_slack.insert(key.into_owned(), s);
        self.set_value(s, v);
        self.rows[s] = Some(acc);
        Ok(s)
    }

    /// Recomputes a basic variable's value from its row.
    fn try_row_value(&self, row: &[(usize, Rat)]) -> Result<DeltaRat, RatOverflow> {
        let mut v = DeltaRat::ZERO;
        for &(c, a) in row {
            v = v.try_add_dr(self.value[c].try_mul_rat(a)?)?;
        }
        Ok(v)
    }

    /// Pivot basic `bi` (whose row the caller already detached) with
    /// nonbasic `nj`, then set `bi`'s value to `target` by adjusting
    /// `nj`. Affected basic values move incrementally (`Δx_b = a_bj·θ`)
    /// instead of being recomputed from scratch.
    fn try_pivot_with_row(
        &mut self,
        bi: usize,
        nj: usize,
        row: SparseRow,
        target: DeltaRat,
    ) -> Result<(), RatOverflow> {
        let idx = row
            .binary_search_by_key(&nj, |&(k, _)| k)
            .expect("nj in row");
        let a_ij = row[idx].1;
        let inv = a_ij.recip();
        let theta = target.try_sub_dr(self.value[bi])?.try_mul_rat(inv)?;
        let vnj = self.value[nj].try_add_dr(theta)?;
        self.set_value(nj, vnj);
        self.set_value(bi, target);

        // nj = bi/a_ij − Σ_{k≠j} (a_k/a_ij)·x_k, as a sorted row.
        let neg_inv = -inv;
        let mut new_row = self.arena.alloc();
        for &(k, a) in &row {
            if k != nj {
                new_row.push((k, a.try_mul(neg_inv)?));
            }
        }
        let pos = new_row
            .binary_search_by_key(&bi, |&(k, _)| k)
            .expect_err("bi was basic, absent from its own row");
        new_row.insert(pos, (bi, inv));
        self.arena.release(row);

        // Substitute into every other row containing nj; each affected
        // basic moves by a_bj·θ.
        for b in 0..self.n_cols {
            let Some(r) = self.rows[b].as_deref() else {
                continue;
            };
            let Ok(ri) = r.binary_search_by_key(&nj, |&(k, _)| k) else {
                continue;
            };
            let a_bj = r[ri].1;
            let mut dst = self.arena.alloc();
            merge_axpy(&mut dst, r, nj, a_bj, &new_row)?;
            let old = self.rows[b].replace(dst).expect("basic");
            self.arena.release(old);
            let vb = self.value[b].try_add_dr(theta.try_mul_rat(a_bj)?)?;
            self.set_value(b, vb);
        }
        self.rows[nj] = Some(new_row);
        self.stats.pivots += 1;
        if self.mode == NumericMode::FloatFirst {
            self.stats.float_pivots += 1;
        }
        Ok(())
    }
}

/// Decides the conjunction of the given bounds.
///
/// Bounds over the *same* linear form share a slack variable; directly
/// conflicting bounds (`lower > upper`) are reported without pivoting.
///
/// ```
/// use shatter_smt::simplex::{check, BoundConstraint, BoundKind, DeltaRat};
/// use shatter_smt::Rat;
///
/// // x >= 3  and  x <= 2  is infeasible.
/// let bounds = vec![
///     BoundConstraint {
///         expr: vec![(Rat::ONE, 0)],
///         bound: DeltaRat::standard(Rat::int(3)),
///         kind: BoundKind::Lower,
///         id: 0,
///     },
///     BoundConstraint {
///         expr: vec![(Rat::ONE, 0)],
///         bound: DeltaRat::standard(Rat::int(2)),
///         kind: BoundKind::Upper,
///         id: 1,
///     },
/// ];
/// match check(&bounds) {
///     shatter_smt::simplex::SimplexResult::Infeasible(ids) => {
///         assert_eq!(ids, vec![0, 1]);
///     }
///     _ => panic!("expected infeasible"),
/// }
/// ```
pub fn check(bounds: &[BoundConstraint]) -> SimplexResult {
    Simplex::new().check_assignment(bounds)
}

impl Simplex {
    /// Decides the conjunction of `bounds`, warm-starting from whatever
    /// basis previous calls left behind. Bounds are re-asserted from
    /// scratch each call (they follow the Boolean assignment under
    /// test); columns, slack definitions and pivots persist.
    ///
    /// Nonbasic values already inside their new bounds keep their
    /// position; out-of-range ones are clamped to the violated side.
    /// With an unchanged or mildly-shifted bound set — consecutive
    /// probes of one OMT binary search — the subsequent Bland loop then
    /// starts at (or next to) the previous feasible point.
    ///
    /// # Panics
    ///
    /// Panics on `i128` overflow or pivot-budget exhaustion; use
    /// [`Simplex::try_check_assignment`] to degrade gracefully instead.
    pub fn check_assignment(&mut self, bounds: &[BoundConstraint]) -> SimplexResult {
        self.try_check_assignment(bounds)
            .unwrap_or_else(|halt| halt_panic(halt))
    }

    /// [`Simplex::check_assignment`] that reports `i128` overflow (or an
    /// exhausted pivot budget) as [`SimplexHalt`] instead of panicking.
    /// After an overflow *while solving* the tableau is poisoned: every
    /// further `try_*` call returns `Err` until the owner replaces it
    /// (e.g. restoring a pre-error clone). A *budget* halt does not
    /// poison, nor does an overflow while extracting the model, which
    /// leaves the feasible tableau untouched.
    pub fn try_check_assignment(
        &mut self,
        bounds: &[BoundConstraint],
    ) -> Result<SimplexResult, SimplexHalt> {
        Ok(match self.try_assert_and_solve(bounds)? {
            Some(ids) => SimplexResult::Infeasible(ids),
            None => SimplexResult::Feasible(self.try_model()?),
        })
    }

    /// The tightest lower/upper bounds (with the asserting ids) currently
    /// asserted on a column. Valid after a solve; the DPLL(T) solver
    /// reads these to propagate theory-implied bound literals — any
    /// feasible point keeps the column's form within the returned
    /// interval.
    pub(crate) fn asserted_bounds_at(&self, col: usize) -> (AssertedBound, AssertedBound) {
        (self.lower[col], self.upper[col])
    }

    /// [`Simplex::check_assignment`] without the model extraction: the
    /// feasibility verdict alone (`None` = feasible), which is all the
    /// partial-assignment theory checkpoints need. The feasible basis is
    /// left in place for a later extraction or warm restart.
    ///
    /// # Panics
    ///
    /// Panics on `i128` overflow or pivot-budget exhaustion; use
    /// [`Simplex::try_assert_and_solve`] to degrade gracefully instead.
    pub fn assert_and_solve(&mut self, bounds: &[BoundConstraint]) -> Option<Vec<usize>> {
        self.try_assert_and_solve(bounds)
            .unwrap_or_else(|halt| halt_panic(halt))
    }

    /// [`Simplex::assert_and_solve`] that reports `i128` overflow (or an
    /// exhausted pivot budget) as [`SimplexHalt`] instead of panicking;
    /// see [`Simplex::try_check_assignment`] for the poisoning contract.
    pub fn try_assert_and_solve(
        &mut self,
        bounds: &[BoundConstraint],
    ) -> Result<Option<Vec<usize>>, SimplexHalt> {
        let asserted: Vec<FormBound> = bounds
            .iter()
            .enumerate()
            .map(|(form, b)| FormBound {
                form,
                bound: b.bound,
                kind: b.kind,
                id: b.id,
            })
            .collect();
        self.try_solve(&asserted, |spx, i| spx.try_column_for(&bounds[i].expr))
    }

    /// Decides `bounds`, resolving each bound's column through `column`
    /// when the bound is asserted; the one solve every entry point runs.
    /// Halts as [`Simplex::try_assert_and_solve`] does, poisoning the
    /// tableau on overflow.
    pub(crate) fn try_solve(
        &mut self,
        bounds: &[FormBound],
        column: impl FnMut(&mut Simplex, usize) -> Result<usize, RatOverflow>,
    ) -> Result<Option<Vec<usize>>, SimplexHalt> {
        if self.poisoned {
            return Err(SimplexHalt::Overflow);
        }
        match self.solve_core(bounds, column) {
            Ok(r) => Ok(r),
            Err(halt) => {
                if halt == SimplexHalt::Overflow {
                    // A pivot aborted halfway: the tableau invariants no
                    // longer hold, so refuse all further use. (A budget
                    // halt stops *between* pivots — the tableau is fine.)
                    self.poisoned = true;
                }
                Err(halt)
            }
        }
    }

    fn solve_core(
        &mut self,
        bounds: &[FormBound],
        mut column: impl FnMut(&mut Simplex, usize) -> Result<usize, RatOverflow>,
    ) -> Result<Option<Vec<usize>>, SimplexHalt> {
        // Retract every bound from the previous call.
        for b in &mut self.lower {
            *b = None;
        }
        for b in &mut self.upper {
            *b = None;
        }

        // Assert bounds, detecting immediate lower>upper conflicts.
        for b in bounds {
            let col = column(self, b.form)?;
            let fb = b.bound.r.to_f64();
            match b.kind {
                BoundKind::Lower => {
                    if let Some((u, uid)) = self.upper[col] {
                        if self.cmp_dr(b.bound, fb, u, self.fupper[col]) == Ordering::Greater {
                            return Ok(Some(vec![b.id, uid]));
                        }
                    }
                    let tighter = match self.lower[col] {
                        None => true,
                        Some((l, _)) => {
                            self.cmp_dr(b.bound, fb, l, self.flower[col]) == Ordering::Greater
                        }
                    };
                    if tighter {
                        self.lower[col] = Some((b.bound, b.id));
                        self.flower[col] = fb;
                    }
                }
                BoundKind::Upper => {
                    if let Some((l, lid)) = self.lower[col] {
                        if self.cmp_dr(b.bound, fb, l, self.flower[col]) == Ordering::Less {
                            return Ok(Some(vec![lid, b.id]));
                        }
                    }
                    let tighter = match self.upper[col] {
                        None => true,
                        Some((u, _)) => {
                            self.cmp_dr(b.bound, fb, u, self.fupper[col]) == Ordering::Less
                        }
                    };
                    if tighter {
                        self.upper[col] = Some((b.bound, b.id));
                        self.fupper[col] = fb;
                    }
                }
            }
        }

        // Move nonbasic values inside their bounds, keeping in-range
        // values where they are (the warm start).
        let mut any_moved = false;
        for v in 0..self.n_cols {
            if self.is_basic(v) {
                continue;
            }
            if let Some((l, _)) = self.lower[v] {
                if self.cmp_dr(self.value[v], self.fvalue[v], l, self.flower[v]) == Ordering::Less {
                    self.set_value(v, l);
                    self.moved[v] = true;
                    any_moved = true;
                    continue;
                }
            }
            if let Some((u, _)) = self.upper[v] {
                if self.cmp_dr(self.value[v], self.fvalue[v], u, self.fupper[v])
                    == Ordering::Greater
                {
                    self.set_value(v, u);
                    self.moved[v] = true;
                    any_moved = true;
                }
            }
        }
        // Every basic value equals its row's value on entry — pivots
        // update the basics they touch, new slacks are evaluated at
        // creation and `Solver::pop` restores a consistent clone — so
        // only rows over a nonbasic the clamp moved need recomputing.
        if any_moved {
            let refreshed = self.refresh_moved_rows();
            self.moved.fill(false);
            refreshed?;
        }

        // Main Bland-rule loop: smallest-index violated basic, then
        // smallest-index eligible nonbasic in its (sorted) row.
        loop {
            let mut violated: Option<(usize, bool)> = None; // (col, too_low)
            for b in 0..self.n_cols {
                if !self.is_basic(b) {
                    continue;
                }
                if let Some((l, _)) = self.lower[b] {
                    if self.cmp_dr(self.value[b], self.fvalue[b], l, self.flower[b])
                        == Ordering::Less
                    {
                        violated = Some((b, true));
                        break;
                    }
                }
                if let Some((u, _)) = self.upper[b] {
                    if self.cmp_dr(self.value[b], self.fvalue[b], u, self.fupper[b])
                        == Ordering::Greater
                    {
                        violated = Some((b, false));
                        break;
                    }
                }
            }
            let Some((bi, too_low)) = violated else {
                // Feasible; the basis stays for extraction or warm restart.
                return Ok(None);
            };

            let row = self.rows[bi].take().expect("bi is basic");
            let mut pivot_col: Option<usize> = None;
            for &(j, a) in &row {
                let can = if too_low {
                    // Need to increase bi.
                    (a.is_positive() && self.below_upper(j))
                        || (a.is_negative() && self.above_lower(j))
                } else {
                    // Need to decrease bi.
                    (a.is_positive() && self.above_lower(j))
                        || (a.is_negative() && self.below_upper(j))
                };
                if can {
                    pivot_col = Some(j);
                    break;
                }
            }

            match pivot_col {
                Some(nj) => {
                    // Budget gate and fault-injection site, both landing
                    // *between* pivots so a halt leaves a valid tableau
                    // (except an injected overflow, which poisons like a
                    // real one). Injection counts in pivot attempts — a
                    // deterministic unit — so a rule fires at the same
                    // pivot in every serial run and in both numeric modes.
                    if let Some(limit) = self.pivot_limit {
                        if self.stats.pivots >= limit {
                            self.rows[bi] = Some(row);
                            return Err(SimplexHalt::Budget);
                        }
                    }
                    if let Some(kind) = shatter_faults::hit("simplex.pivot") {
                        match kind {
                            shatter_faults::FaultKind::Panic => {
                                shatter_faults::panic_now("simplex.pivot")
                            }
                            shatter_faults::FaultKind::Overflow => {
                                return Err(SimplexHalt::Overflow)
                            }
                            // No real I/O at a pivot; `io` halts like
                            // budget exhaustion.
                            shatter_faults::FaultKind::Budget | shatter_faults::FaultKind::Io => {
                                self.rows[bi] = Some(row);
                                return Err(SimplexHalt::Budget);
                            }
                        }
                    }
                    let target = if too_low {
                        self.lower[bi].expect("violated lower").0
                    } else {
                        self.upper[bi].expect("violated upper").0
                    };
                    self.try_pivot_with_row(bi, nj, row, target)?;
                }
                None => {
                    // Conflict: violated bound of bi plus the limiting
                    // bounds of every nonbasic in the row.
                    let mut ids = Vec::new();
                    if too_low {
                        ids.push(self.lower[bi].expect("violated lower").1);
                        for &(j, a) in &row {
                            if a.is_positive() {
                                ids.push(self.upper[j].expect("limited above").1);
                            } else {
                                ids.push(self.lower[j].expect("limited below").1);
                            }
                        }
                    } else {
                        ids.push(self.upper[bi].expect("violated upper").1);
                        for &(j, a) in &row {
                            if a.is_positive() {
                                ids.push(self.lower[j].expect("limited below").1);
                            } else {
                                ids.push(self.upper[j].expect("limited above").1);
                            }
                        }
                    }
                    self.rows[bi] = Some(row);
                    ids.sort_unstable();
                    ids.dedup();
                    return Ok(Some(ids));
                }
            }
        }
    }

    /// Recomputes the value of every basic row containing a column the
    /// clamp pass marked as moved.
    fn refresh_moved_rows(&mut self) -> Result<(), RatOverflow> {
        for b in 0..self.n_cols {
            let Some(row) = self.rows[b].as_deref() else {
                continue;
            };
            if !row.iter().any(|&(c, _)| self.moved[c]) {
                continue;
            }
            let v = self.try_row_value(row)?;
            self.set_value(b, v);
        }
        Ok(())
    }

    /// The model of a feasible solve: chooses a concrete ε small enough
    /// that all strict bounds stay strict, then maps the delta-valued
    /// assignment of the *variable* columns (slacks skipped) to plain
    /// rationals. Reads the tableau only, so an overflow here leaves it
    /// consistent.
    pub(crate) fn try_model(&self) -> Result<HashMap<usize, Rat>, RatOverflow> {
        let mut eps = Rat::ONE;
        for v in 0..self.n_cols {
            let val = self.value[v];
            if let Some((l, _)) = self.lower[v] {
                // need val.r + val.d e >= l.r + l.d e
                //   =>  (val.d - l.d) e >= l.r - val.r
                let dd = val.d.try_sub(l.d)?;
                let rr = val.r.try_sub(l.r)?;
                if dd.is_negative() && rr.is_positive() {
                    eps = eps.min(rr.try_div(-dd)?);
                }
            }
            if let Some((u, _)) = self.upper[v] {
                let dd = u.d.try_sub(val.d)?;
                let rr = u.r.try_sub(val.r)?;
                if dd.is_negative() && rr.is_positive() {
                    eps = eps.min(rr.try_div(-dd)?);
                }
            }
        }
        let eps = eps.try_mul(Rat::new(1, 2))?;
        (0..self.n_cols)
            .filter_map(|c| self.col_var[c].map(|v| Ok((v, self.value[c].try_concretize(eps)?))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(expr: Vec<(i128, usize)>, b: i128, id: usize) -> BoundConstraint {
        BoundConstraint {
            expr: expr.into_iter().map(|(c, v)| (Rat::int(c), v)).collect(),
            bound: DeltaRat::standard(Rat::int(b)),
            kind: BoundKind::Lower,
            id,
        }
    }

    fn upper(expr: Vec<(i128, usize)>, b: i128, id: usize) -> BoundConstraint {
        BoundConstraint {
            expr: expr.into_iter().map(|(c, v)| (Rat::int(c), v)).collect(),
            bound: DeltaRat::standard(Rat::int(b)),
            kind: BoundKind::Upper,
            id,
        }
    }

    fn assert_feasible(bounds: &[BoundConstraint]) -> HashMap<usize, Rat> {
        match check(bounds) {
            SimplexResult::Feasible(m) => {
                // Verify every bound holds on the concrete assignment.
                for b in bounds {
                    let val: Rat = b
                        .expr
                        .iter()
                        .map(|&(c, v)| c * m.get(&v).copied().unwrap_or(Rat::ZERO))
                        .fold(Rat::ZERO, |a, x| a + x);
                    match b.kind {
                        BoundKind::Lower => {
                            if b.bound.d.is_zero() {
                                assert!(val >= b.bound.r, "bound {} violated", b.id);
                            } else {
                                assert!(val > b.bound.r, "strict bound {} violated", b.id);
                            }
                        }
                        BoundKind::Upper => {
                            if b.bound.d.is_zero() {
                                assert!(val <= b.bound.r, "bound {} violated", b.id);
                            } else {
                                assert!(val < b.bound.r, "strict bound {} violated", b.id);
                            }
                        }
                    }
                }
                m
            }
            SimplexResult::Infeasible(ids) => panic!("unexpected infeasible: {ids:?}"),
        }
    }

    #[test]
    fn simple_feasible_box() {
        assert_feasible(&[
            lower(vec![(1, 0)], 1, 0),
            upper(vec![(1, 0)], 5, 1),
            lower(vec![(1, 1)], 2, 2),
            upper(vec![(1, 1)], 3, 3),
        ]);
    }

    #[test]
    fn direct_bound_conflict() {
        let r = check(&[lower(vec![(1, 0)], 3, 7), upper(vec![(1, 0)], 2, 9)]);
        let SimplexResult::Infeasible(ids) = r else {
            panic!()
        };
        assert_eq!(ids, vec![7, 9]);
    }

    #[test]
    fn sum_constraint_feasible() {
        // x + y <= 4, x >= 1, y >= 2.
        let m = assert_feasible(&[
            upper(vec![(1, 0), (1, 1)], 4, 0),
            lower(vec![(1, 0)], 1, 1),
            lower(vec![(1, 1)], 2, 2),
        ]);
        assert!(m[&0] + m[&1] <= Rat::int(4));
    }

    #[test]
    fn sum_constraint_infeasible_with_explanation() {
        // x + y <= 3, x >= 2, y >= 2.
        let r = check(&[
            upper(vec![(1, 0), (1, 1)], 3, 0),
            lower(vec![(1, 0)], 2, 1),
            lower(vec![(1, 1)], 2, 2),
        ]);
        let SimplexResult::Infeasible(ids) = r else {
            panic!()
        };
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn strict_bounds_respected() {
        // x > 0, x < 1 is feasible with a concrete witness strictly inside.
        let m = assert_feasible(&[
            BoundConstraint {
                expr: vec![(Rat::ONE, 0)],
                bound: DeltaRat::plus_eps(Rat::ZERO),
                kind: BoundKind::Lower,
                id: 0,
            },
            BoundConstraint {
                expr: vec![(Rat::ONE, 0)],
                bound: DeltaRat::minus_eps(Rat::ONE),
                kind: BoundKind::Upper,
                id: 1,
            },
        ]);
        assert!(m[&0] > Rat::ZERO && m[&0] < Rat::ONE);
    }

    #[test]
    fn strict_vs_nonstrict_conflict() {
        // x <= 2 and x > 2.
        let r = check(&[
            upper(vec![(1, 0)], 2, 0),
            BoundConstraint {
                expr: vec![(Rat::ONE, 0)],
                bound: DeltaRat::plus_eps(Rat::int(2)),
                kind: BoundKind::Lower,
                id: 1,
            },
        ]);
        assert!(matches!(r, SimplexResult::Infeasible(_)));
    }

    #[test]
    fn chained_equalities() {
        // x = y, y = z, z >= 5, x <= 5  => all equal 5.
        let m = assert_feasible(&[
            upper(vec![(1, 0), (-1, 1)], 0, 0),
            lower(vec![(1, 0), (-1, 1)], 0, 1),
            upper(vec![(1, 1), (-1, 2)], 0, 2),
            lower(vec![(1, 1), (-1, 2)], 0, 3),
            lower(vec![(1, 2)], 5, 4),
            upper(vec![(1, 0)], 5, 5),
        ]);
        assert_eq!(m[&0], Rat::int(5));
        assert_eq!(m[&1], Rat::int(5));
        assert_eq!(m[&2], Rat::int(5));
    }

    #[test]
    fn triangle_infeasibility() {
        // x - y <= -1, y - z <= -1, z - x <= -1 sums to 0 <= -3.
        let r = check(&[
            upper(vec![(1, 0), (-1, 1)], -1, 0),
            upper(vec![(1, 1), (-1, 2)], -1, 1),
            upper(vec![(1, 2), (-1, 0)], -1, 2),
        ]);
        let SimplexResult::Infeasible(ids) = r else {
            panic!()
        };
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn redundant_bounds_keep_tightest() {
        let m = assert_feasible(&[
            lower(vec![(1, 0)], 1, 0),
            lower(vec![(1, 0)], 3, 1),
            upper(vec![(1, 0)], 10, 2),
            upper(vec![(1, 0)], 7, 3),
        ]);
        assert!(m[&0] >= Rat::int(3) && m[&0] <= Rat::int(7));
    }

    #[test]
    fn fractional_coefficients() {
        // 0.5x + 0.25y >= 10, x <= 4  =>  y >= 32.
        let m = assert_feasible(&[
            BoundConstraint {
                expr: vec![(Rat::new(1, 2), 0), (Rat::new(1, 4), 1)],
                bound: DeltaRat::standard(Rat::int(10)),
                kind: BoundKind::Lower,
                id: 0,
            },
            upper(vec![(1, 0)], 4, 1),
        ]);
        assert!(m[&0] * Rat::new(1, 2) + m[&1] * Rat::new(1, 4) >= Rat::int(10));
    }

    // ---- two-phase numeric pipeline ------------------------------------

    /// Instances that actually pivot, reused by the mode-equivalence
    /// checks.
    fn pivoting_instances() -> Vec<Vec<BoundConstraint>> {
        vec![
            vec![
                upper(vec![(1, 0), (1, 1)], 4, 0),
                lower(vec![(1, 0)], 1, 1),
                lower(vec![(1, 1)], 2, 2),
            ],
            vec![
                upper(vec![(1, 0), (-1, 1)], 0, 0),
                lower(vec![(1, 0), (-1, 1)], 0, 1),
                upper(vec![(1, 1), (-1, 2)], 0, 2),
                lower(vec![(1, 1), (-1, 2)], 0, 3),
                lower(vec![(1, 2)], 5, 4),
                upper(vec![(1, 0)], 5, 5),
            ],
            vec![
                upper(vec![(1, 0), (1, 1)], 3, 0),
                lower(vec![(1, 0)], 2, 1),
                lower(vec![(1, 1)], 2, 2),
            ],
            vec![
                upper(vec![(1, 0), (-1, 1)], -1, 0),
                upper(vec![(1, 1), (-1, 2)], -1, 1),
                upper(vec![(1, 2), (-1, 0)], -1, 2),
            ],
        ]
    }

    #[test]
    fn modes_agree_bit_for_bit_and_pivot_identically() {
        for bounds in pivoting_instances() {
            let mut fast = Simplex::new();
            let mut exact = Simplex::new();
            exact.set_numeric_mode(NumericMode::ExactOnly);
            let rf = fast.check_assignment(&bounds);
            let re = exact.check_assignment(&bounds);
            match (rf, re) {
                (SimplexResult::Feasible(a), SimplexResult::Feasible(b)) => assert_eq!(a, b),
                (SimplexResult::Infeasible(a), SimplexResult::Infeasible(b)) => assert_eq!(a, b),
                (a, b) => panic!("verdicts diverged: {a:?} vs {b:?}"),
            }
            // The float layer changes no decision: identical pivot
            // sequences, hence identical counts.
            assert_eq!(fast.stats().pivots, exact.stats().pivots);
            assert_eq!(fast.stats().float_pivots, fast.stats().pivots);
            assert_eq!(exact.stats().float_pivots, 0);
        }
    }

    #[test]
    fn near_tie_falls_back_to_exact_and_stays_correct() {
        // 10⁻¹⁵ vs 0 sits inside the float margin (~10⁻¹²): the float
        // layer must refuse to decide and the exact layer must still
        // separate them.
        let tiny = Rat::new(1, 1_000_000_000_000_000);
        let bounds = vec![
            BoundConstraint {
                expr: vec![(Rat::ONE, 0)],
                bound: DeltaRat::standard(tiny),
                kind: BoundKind::Lower,
                id: 0,
            },
            BoundConstraint {
                expr: vec![(Rat::ONE, 0)],
                bound: DeltaRat::standard(Rat::ZERO),
                kind: BoundKind::Upper,
                id: 1,
            },
        ];
        let mut s = Simplex::new();
        let r = s.check_assignment(&bounds);
        let SimplexResult::Infeasible(ids) = r else {
            panic!("x >= 1e-15 and x <= 0 must be infeasible");
        };
        assert_eq!(ids, vec![0, 1]);
        assert!(
            s.stats().exact_fallbacks > 0,
            "margin must force a fallback"
        );
    }

    #[test]
    fn exact_ties_on_eps_parts_fall_back() {
        // Strict vs non-strict at the same standard value: floats see a
        // tie, the ε parts decide. The fallback keeps it correct.
        let mut s = Simplex::new();
        let r = s.check_assignment(&[
            upper(vec![(1, 0)], 2, 0),
            BoundConstraint {
                expr: vec![(Rat::ONE, 0)],
                bound: DeltaRat::plus_eps(Rat::int(2)),
                kind: BoundKind::Lower,
                id: 1,
            },
        ]);
        assert!(matches!(r, SimplexResult::Infeasible(_)));
        assert!(s.stats().exact_fallbacks > 0);
    }

    #[test]
    fn overflow_degrades_to_error_and_poisons() {
        // Clamping both variables to near-i128::MAX makes the slack
        // recomputation overflow. The checked path reports it; the
        // tableau then refuses further work instead of computing on a
        // half-updated basis.
        let huge = i128::MAX - 1;
        let bounds = vec![
            upper(vec![(1, 0), (1, 1)], 0, 0),
            lower(vec![(1, 0)], huge, 1),
            lower(vec![(1, 1)], huge, 2),
        ];
        let mut s = Simplex::new();
        assert_eq!(s.try_assert_and_solve(&bounds), Err(SimplexHalt::Overflow));
        assert_eq!(s.try_assert_and_solve(&[]), Err(SimplexHalt::Overflow));
        // A pre-error clone is unaffected.
        let mut fresh = Simplex::new();
        assert!(fresh
            .try_assert_and_solve(&[lower(vec![(1, 0)], 1, 0)])
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "rational arithmetic overflow")]
    fn overflow_panics_via_legacy_entry_point() {
        let huge = i128::MAX - 1;
        let mut s = Simplex::new();
        s.assert_and_solve(&[
            upper(vec![(1, 0), (1, 1)], 0, 0),
            lower(vec![(1, 0)], huge, 1),
            lower(vec![(1, 1)], huge, 2),
        ]);
    }

    #[test]
    fn model_overflow_is_reported_without_poisoning() {
        // x >= 1/q1, x < 10^6/q2 is feasible, but choosing ε subtracts
        // the two bounds, whose common denominator q1·q2 ≈ 10^40 leaves
        // i128 (q1, q2 coprime).
        let (q1, q2) = (100_000_000_000_000_000_039, 100_000_000_000_000_000_129);
        let bounds = vec![
            BoundConstraint {
                expr: vec![(Rat::ONE, 0)],
                bound: DeltaRat::standard(Rat::new(1, q1)),
                kind: BoundKind::Lower,
                id: 0,
            },
            BoundConstraint {
                expr: vec![(Rat::ONE, 0)],
                bound: DeltaRat::minus_eps(Rat::new(1_000_000, q2)),
                kind: BoundKind::Upper,
                id: 1,
            },
        ];
        let mut s = Simplex::new();
        assert!(matches!(
            s.try_check_assignment(&bounds),
            Err(SimplexHalt::Overflow)
        ));
        // The solve itself finished, so the tableau stays usable.
        assert_eq!(s.try_assert_and_solve(&bounds), Ok(None));
    }

    #[test]
    fn pivot_budget_halts_between_pivots_without_poisoning() {
        // x + y >= 5, x <= 3, y <= 3 needs at least one pivot. A zero
        // budget halts before the first pivot; the tableau stays valid,
        // so lifting the cap finishes the same solve from where it
        // stopped.
        let bounds = vec![
            lower(vec![(1, 0), (1, 1)], 5, 0),
            upper(vec![(1, 0)], 3, 1),
            upper(vec![(1, 1)], 3, 2),
        ];
        let mut s = Simplex::new();
        s.set_pivot_limit(Some(0));
        assert_eq!(s.try_assert_and_solve(&bounds), Err(SimplexHalt::Budget));
        s.set_pivot_limit(None);
        assert_eq!(
            s.try_assert_and_solve(&bounds),
            Ok(None),
            "budget halt must not poison the tableau"
        );
        assert!(s.stats().pivots > 0);
    }

    #[test]
    #[should_panic(expected = "simplex pivot budget exhausted")]
    fn budget_panics_via_legacy_entry_point() {
        let mut s = Simplex::new();
        s.set_pivot_limit(Some(0));
        s.assert_and_solve(&[
            lower(vec![(1, 0), (1, 1)], 5, 0),
            upper(vec![(1, 0)], 3, 1),
            upper(vec![(1, 1)], 3, 2),
        ]);
    }

    #[test]
    fn injected_overflow_poisons_like_a_real_one() {
        shatter_faults::install(vec![shatter_faults::FaultSpec {
            scenario: "simplex-inject-test".into(),
            site: "simplex.pivot".into(),
            kind: shatter_faults::FaultKind::Overflow,
            hit: 0,
        }]);
        let bounds = vec![
            lower(vec![(1, 0), (1, 1)], 5, 0),
            upper(vec![(1, 0)], 3, 1),
            upper(vec![(1, 1)], 3, 2),
        ];
        shatter_faults::with_scenario("simplex-inject-test", || {
            let mut s = Simplex::new();
            assert_eq!(s.try_assert_and_solve(&bounds), Err(SimplexHalt::Overflow));
            assert_eq!(
                s.try_assert_and_solve(&[]),
                Err(SimplexHalt::Overflow),
                "injected overflow must poison"
            );
            // The rule fired once; a fresh tableau in the same scope
            // completes untouched (the ExactOnly-retry contract).
            let mut retry = Simplex::new();
            retry.set_numeric_mode(NumericMode::ExactOnly);
            assert_eq!(retry.try_assert_and_solve(&bounds), Ok(None));
        });
    }

    #[test]
    fn warm_restart_reuses_arena_rows() {
        // Re-solving shifted bound sets on one tableau must keep
        // verdicts correct while pivots recycle row buffers (smoke: the
        // second call is where releases from the first get reused).
        let mut s = Simplex::new();
        for shift in 0..6i128 {
            // The slack starts below its lower bound, so every call
            // pivots it against a variable column.
            let r = s.check_assignment(&[
                lower(vec![(1, 0), (1, 1)], 5 + shift, 0),
                upper(vec![(1, 0)], 3 + shift, 1),
                upper(vec![(1, 1)], 3, 2),
            ]);
            assert!(matches!(r, SimplexResult::Feasible(_)), "shift {shift}");
        }
        assert!(s.stats().pivots > 0);
    }
}
