//! Criterion bench for the `smtlite` substrate itself: CDCL SAT on a
//! pigeonhole family, re-probes of one solver under alternating
//! assumptions, and OMT maximization of a pseudo-Boolean chain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use shatter_smt::sat::{Lit, SatSolver, SatVerdict};
use shatter_smt::{BoolVar, Objective, Solver};

fn pigeonhole(pigeons: usize) -> SatSolver {
    let holes = pigeons - 1;
    let mut s = SatSolver::new();
    let var = |i: usize, j: usize| i * holes + j;
    for _ in 0..pigeons * holes {
        s.new_var();
    }
    for i in 0..pigeons {
        let clause: Vec<Lit> = (0..holes).map(|j| Lit::pos(var(i, j))).collect();
        s.add_clause(&clause);
    }
    for j in 0..holes {
        for a in 0..pigeons {
            for b in (a + 1)..pigeons {
                s.add_clause(&[Lit::neg(var(a, j)), Lit::neg(var(b, j))]);
            }
        }
    }
    s
}

fn bench_sat(c: &mut Criterion) {
    let mut group = c.benchmark_group("cdcl_pigeonhole");
    group.sample_size(10);
    for n in [5usize, 6, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut s = pigeonhole(n);
                black_box(s.solve(&[], None))
            })
        });
    }
    group.finish();
}

/// A satisfiable padded instance with a guard selector: probing it under
/// alternating guard assumptions mimics the OMT loop's probe chain.
fn guarded_chain(n_chains: usize) -> (SatSolver, Lit) {
    let mut s = SatSolver::new();
    let guard = Lit::pos(s.new_var());
    for _ in 0..n_chains {
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        // guard -> (a -> b -> c), plus a free disjunction.
        s.add_clause(&[guard.negated(), Lit::neg(a), Lit::pos(b)]);
        s.add_clause(&[guard.negated(), Lit::neg(b), Lit::pos(c)]);
        s.add_clause(&[Lit::pos(a), Lit::pos(b), Lit::pos(c)]);
    }
    (s, guard)
}

/// One solver re-probed under alternating assumptions, the shape the OMT
/// binary search pays per window.
fn bench_assumption_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("assumption_chain");
    group.sample_size(10);
    group.bench_function("guarded_probes_x20", |b| {
        let (mut s, guard) = guarded_chain(200);
        b.iter(|| {
            for i in 0..20 {
                let a = if i % 2 == 0 { guard } else { guard.negated() };
                let v = s.solve(&[a], None);
                assert!(matches!(v, SatVerdict::Sat(_)));
            }
            black_box(s.stats)
        })
    });
    group.finish();
}

/// `n` slots choosing one of four zones each, scored by a rotating
/// weight pattern, where two neighbouring slots may not both pick their
/// heaviest zone: the base model is rarely optimal, so the search probes.
fn bench_omt(c: &mut Criterion) {
    let mut group = c.benchmark_group("omt_pb_chain");
    group.sample_size(10);
    for n in [5usize, 10, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut s = Solver::new();
                let slots: Vec<Vec<BoolVar>> = (0..n)
                    .map(|_| (0..4).map(|_| s.new_bool()).collect())
                    .collect();
                let mut objective = Objective::new();
                for (t, row) in slots.iter().enumerate() {
                    let weights = (0..4).map(|z| ((t + z) % 4) as i64 * 10 + z as i64);
                    objective.add_group(row.iter().copied().zip(weights));
                }
                for t in 1..n {
                    let heavy = |u: usize| (4 - u % 4) % 4;
                    s.add_clause(&[
                        slots[t - 1][heavy(t - 1)].lit().negated(),
                        slots[t][heavy(t)].lit().negated(),
                    ]);
                }
                black_box(s.maximize(&objective))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sat, bench_assumption_chain, bench_omt);
criterion_main!(benches);
