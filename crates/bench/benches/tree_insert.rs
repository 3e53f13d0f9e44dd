//! CF-tree insertion throughput — the §6.1 complexity claim: per-point
//! cost grows with the tree depth O(log_B(M/P)) and the per-node scan
//! O(B), but *not* with N once the tree reaches its memory-bounded size.
//!
//! The `descent_scan` group compares the batched closest-child kernel
//! (one [`CfBlock`] sweep) against a scalar baseline that walks a
//! `Vec<Cf>` calling [`DistanceMetric::distance`] per entry — the
//! seed-era inner loop.
//! The `prune` group measures whole-tree insertion with the optional D0
//! triangle-inequality descent prune off vs on.

use birch_core::distance::{closest_among, CfBlock};
use birch_core::{Cf, CfTree, DistanceMetric, Point, ThresholdKind, TreeParams};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn points(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let i = i as f64;
            Point::xy((i * 0.618).rem_euclid(100.0), (i * 0.414).rem_euclid(100.0))
        })
        .collect()
}

fn params(threshold: f64) -> TreeParams {
    TreeParams {
        dim: 2,
        branching: 25,
        leaf_capacity: 31,
        threshold,
        threshold_kind: ThresholdKind::Diameter,
        metric: DistanceMetric::D2,
        merge_refinement: true,
        descend_prune: false,
    }
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_insert");
    let pts = points(10_000);
    for threshold in [0.5f64, 2.0] {
        group.throughput(Throughput::Elements(pts.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("threshold", threshold),
            &threshold,
            |b, &t| {
                b.iter(|| {
                    let mut tree = CfTree::new(params(t));
                    for p in &pts {
                        tree.insert_point(black_box(p));
                    }
                    black_box(tree.leaf_entry_count())
                });
            },
        );
    }
    group.finish();
}

fn bench_branching(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_insert_branching");
    let pts = points(5_000);
    for b_factor in [4usize, 25, 64] {
        group.throughput(Throughput::Elements(pts.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(b_factor),
            &b_factor,
            |bench, &bf| {
                bench.iter(|| {
                    let mut tree = CfTree::new(TreeParams {
                        branching: bf,
                        leaf_capacity: bf,
                        ..params(1.0)
                    });
                    for p in &pts {
                        tree.insert_point(black_box(p));
                    }
                    black_box(tree.node_count())
                });
            },
        );
    }
    group.finish();
}

/// `dim`-dimensional multi-point CFs with deterministic scatter.
fn make_cfs(dim: usize, count: usize, seed: u64) -> Vec<Cf> {
    let mut s = seed;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..count)
        .map(|_| {
            let mut cf = Cf::empty(dim);
            for _ in 0..3 {
                cf.add_point(&Point::new((0..dim).map(|_| next() * 50.0).collect()));
            }
            cf
        })
        .collect()
}

/// The §4.3 closest-child scan at B = 25, kernel vs scalar, across the
/// dimension sweep — the single hottest loop of Phase 1.
fn bench_descent_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("descent_scan");
    for dim in [2usize, 8, 32, 128] {
        let cands = make_cfs(dim, 25, 0xDE5CE17 ^ dim as u64);
        let probe = make_cfs(dim, 1, 0x9208E ^ dim as u64).pop().unwrap();
        let block = CfBlock::from_cfs(&cands);
        let metric = DistanceMetric::D2;
        group.bench_with_input(BenchmarkId::new("scalar", dim), &dim, |b, _| {
            b.iter(|| {
                let mut best: Option<(usize, f64)> = None;
                for (i, cand) in cands.iter().enumerate() {
                    let d = metric.distance(black_box(&probe), cand);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((i, d));
                    }
                }
                black_box(best)
            });
        });
        group.bench_with_input(BenchmarkId::new("kernel", dim), &dim, |b, _| {
            b.iter(|| black_box(closest_among(metric, black_box(&probe), &block)));
        });
    }
    group.finish();
}

/// Whole-tree insertion under D0 with the triangle-inequality descent
/// prune off vs on (output-identical; only the scan cost differs).
fn bench_prune(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_insert_d0_prune");
    let pts = points(10_000);
    for (label, prune) in [("off", false), ("on", true)] {
        group.throughput(Throughput::Elements(pts.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(label), &prune, |b, &pr| {
            b.iter(|| {
                let mut tree = CfTree::new(TreeParams {
                    metric: DistanceMetric::D0,
                    descend_prune: pr,
                    ..params(0.5)
                });
                for p in &pts {
                    tree.insert_point(black_box(p));
                }
                black_box(tree.stats().distance_calls)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_insert,
    bench_branching,
    bench_descent_scan,
    bench_prune
);
criterion_main!(benches);
