//! Criterion microbench of the CDCL search kernels the PR 4 rewrite
//! targets: the decide+propagate inner loop (order-heap decisions over a
//! propagation-heavy instance) and a full clause-database GC cycle under
//! a tight learnt budget.
//!
//! `decide_propagate/N` solves an N-pigeon pigeonhole instance — almost
//! all of its work is the decide/propagate/analyze loop, so the wall
//! tracks the order heap and the two-watched-literal kernel.
//! `gc_cycle` solves the same instance with the reduction budget pinned
//! low enough that the reducer runs many times per solve, timing the
//! compaction + watch-rebuild + reason-remap path.
//! `assumption_chain` re-probes one instance under alternating
//! assumptions, the shape the OMT binary search pays per window.
//! `minimize` times the analyze+ccmin loop on the conflict-dense
//! pigeonhole shape and reports the minimized-literal count (the
//! recursive self-subsumption pass must actually shrink clauses, not
//! just burn cycles).
//! `binary_propagation` probes a pure implication-cascade instance, so
//! the wall tracks the binary adjacency layer (len-2 clauses propagate
//! from compact `(other, clause)` lists before any long-watch work).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use shatter_smt::sat::{Lit, SatSolver, SatVerdict};

/// An N-pigeon pigeonhole instance.
fn pigeonhole(pigeons: usize) -> SatSolver {
    let mut s = SatSolver::new();
    let holes = pigeons - 1;
    let base: Vec<usize> = (0..pigeons * holes).map(|_| s.new_var()).collect();
    let var = |i: usize, j: usize| base[i * holes + j];
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

fn bench_decide_propagate(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_core/decide_propagate");
    group.sample_size(10);
    for n in [6usize, 7, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut s = pigeonhole(n);
                assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
                black_box(s.stats)
            })
        });
    }
    group.finish();
}

fn bench_gc_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_core/gc_cycle");
    group.sample_size(10);
    group.bench_function("pigeonhole_7_budget_8", |b| {
        b.iter(|| {
            let mut s = pigeonhole(7);
            s.set_gc_budget(8);
            assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
            assert!(s.stats.gc_clauses > 0, "GC must actually run");
            black_box(s.stats)
        })
    });
    group.finish();
}

fn bench_assumption_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_core/assumption_chain");
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

fn bench_minimization(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_core/minimize");
    group.sample_size(10);
    for n in [6usize, 7] {
        // Surface the clause-shrink ratio once per size so the bench
        // log shows what the ccmin pass buys, not just its cost.
        let mut probe = pigeonhole(n);
        assert_eq!(probe.solve(&[], None), SatVerdict::Unsat);
        eprintln!(
            "sat_core/minimize: pigeonhole {n}: {} literals minimized over {} learnts",
            probe.stats.minimized, probe.stats.learned
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut s = pigeonhole(n);
                assert_eq!(s.solve(&[], None), SatVerdict::Unsat);
                assert!(s.stats.minimized > 0, "ccmin removed nothing");
                black_box(s.stats.minimized)
            })
        });
    }
    group.finish();
}

/// K disjoint binary implication chains hanging off one root literal:
/// assuming the root enqueues K·L implied literals purely through the
/// binary adjacency layer.
fn binary_cascade(chains: usize, len: usize) -> (SatSolver, Lit) {
    let mut s = SatSolver::new();
    let root = Lit::pos(s.new_var());
    for _ in 0..chains {
        let mut prev = root;
        for _ in 0..len {
            let next = Lit::pos(s.new_var());
            s.add_clause(&[prev.negated(), next]);
            prev = next;
        }
    }
    (s, root)
}

fn bench_binary_propagation(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_core/binary_propagation");
    group.sample_size(10);
    group.bench_function("cascade_64x256_probes_x20", |b| {
        let (mut s, root) = binary_cascade(64, 256);
        b.iter(|| {
            for i in 0..20 {
                let a = if i % 2 == 0 { root } else { root.negated() };
                assert!(matches!(s.solve(&[a], None), SatVerdict::Sat(_)));
            }
            assert!(s.stats.bin_props > 0, "binary layer never propagated");
            black_box(s.stats.bin_props)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_decide_propagate,
    bench_gc_cycle,
    bench_assumption_chain,
    bench_minimization,
    bench_binary_propagation
);
criterion_main!(benches);
