//! Criterion microbench of the simplex pivot loop itself — the inner
//! kernel the two-phase numeric pipeline targets.
//!
//! `pivot_loop/{float_first,exact_only}/N` solves the same pivot-heavy
//! chain instance under each [`NumericMode`]; the pivot sequences are
//! identical by construction, so the spread is purely the cost of exact
//! rational comparisons versus certified `f64` ones.
//!
//! `row_alloc` isolates the tableau row arena: `arena_warm_restart`
//! re-solves shifted bound sets on one carried tableau (pivots recycle
//! released row buffers from the free list), while `fresh_tableau`
//! rebuilds the solver every call so each pivot row is a cold `Vec`
//! allocation — the shape the arena replaced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use shatter_smt::simplex::{BoundConstraint, BoundKind, DeltaRat, Simplex, SimplexResult};
use shatter_smt::{NumericMode, Rat};

fn lower(expr: Vec<(i128, usize)>, bound: i128, id: usize) -> BoundConstraint {
    BoundConstraint {
        expr: expr.into_iter().map(|(c, v)| (Rat::new(c, 1), v)).collect(),
        bound: DeltaRat::standard(Rat::new(bound, 1)),
        kind: BoundKind::Lower,
        id,
    }
}

fn upper(expr: Vec<(i128, usize)>, bound: i128, id: usize) -> BoundConstraint {
    BoundConstraint {
        expr: expr.into_iter().map(|(c, v)| (Rat::new(c, 1), v)).collect(),
        bound: DeltaRat::standard(Rat::new(bound, 1)),
        kind: BoundKind::Upper,
        id,
    }
}

/// A feasible chain instance whose pair-sum slacks all start below their
/// lower bounds, so the Bland loop pivots each of the `n` slack columns
/// against a variable column before reaching feasibility.
fn chain_bounds(n: usize, shift: i128) -> Vec<BoundConstraint> {
    let mut bounds = Vec::with_capacity(2 * n + 1);
    for i in 0..n {
        let want = 5 + shift + (i as i128 % 3);
        bounds.push(lower(vec![(1, i), (1, i + 1)], want, i));
    }
    for i in 0..=n {
        bounds.push(upper(vec![(1, i)], 6, n + i));
    }
    bounds
}

fn solve(s: &mut Simplex, bounds: &[BoundConstraint]) {
    match s.check(bounds) {
        Ok(SimplexResult::Feasible(m)) => {
            black_box(m);
        }
        other => unreachable!("chain instance is feasible and small: {other:?}"),
    }
}

fn bench_pivot_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("pivot_loop");
    for n in [16usize, 64] {
        let bounds = chain_bounds(n, 0);
        for (name, mode) in [
            ("float_first", NumericMode::FloatFirst),
            ("exact_only", NumericMode::ExactOnly),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &bounds, |b, bounds| {
                b.iter(|| {
                    let mut s = Simplex::new();
                    s.set_numeric_mode(mode);
                    solve(&mut s, bounds);
                    black_box(s.stats())
                })
            });
        }
    }
    group.finish();
}

fn bench_row_alloc(c: &mut Criterion) {
    let mut group = c.benchmark_group("row_alloc");
    let n = 32usize;
    group.bench_function("arena_warm_restart", |b| {
        let mut s = Simplex::new();
        let mut shift = 0i128;
        b.iter(|| {
            // Shifting the bounds forces fresh pivots every call; the
            // rows they rewrite come back out of the arena free list.
            shift = (shift + 1) % 4;
            solve(&mut s, &chain_bounds(n, shift));
        })
    });
    group.bench_function("fresh_tableau", |b| {
        let mut shift = 0i128;
        b.iter(|| {
            shift = (shift + 1) % 4;
            let mut s = Simplex::new();
            solve(&mut s, &chain_bounds(n, shift));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pivot_loop, bench_row_alloc);
criterion_main!(benches);
