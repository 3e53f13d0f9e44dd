//! Microbenchmarks of the CF algebra — the inner loop of Phase 1 (§6.1's
//! CPU cost analysis: inserting a point costs O(d·B·(1+log_B(M/P))) CF
//! distance evaluations plus one CF update).

use birch_core::distance::{farthest_pair, CfBlock};
use birch_core::{Cf, DistanceMetric, Point};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn make_cf(dim: usize, n: usize, offset: f64) -> Cf {
    let mut cf = Cf::empty(dim);
    for i in 0..n {
        let coords: Vec<f64> = (0..dim)
            .map(|j| offset + ((i * 7 + j * 3) % 13) as f64 * 0.1)
            .collect();
        cf.add_point(&Point::new(coords));
    }
    cf
}

fn bench_add_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("cf_add_point");
    for dim in [2usize, 16, 64] {
        let p = Point::new((0..dim).map(|i| i as f64).collect());
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, &dim| {
            let mut cf = Cf::empty(dim);
            b.iter(|| cf.add_point(black_box(&p)));
        });
    }
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("cf_merge");
    for dim in [2usize, 16, 64] {
        let a = make_cf(dim, 100, 0.0);
        let b_cf = make_cf(dim, 100, 5.0);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, _| {
            let mut acc = a.clone();
            b.iter(|| acc.merge(black_box(&b_cf)));
        });
    }
    group.finish();
}

fn bench_distances(c: &mut Criterion) {
    let mut group = c.benchmark_group("cf_distance_d2");
    let a = make_cf(2, 100, 0.0);
    let b_cf = make_cf(2, 100, 10.0);
    for metric in DistanceMetric::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(metric),
            &metric,
            |bencher, &m| {
                bencher.iter(|| m.distance(black_box(&a), black_box(&b_cf)));
            },
        );
    }
    group.finish();
}

/// The split seeding scan (§4.3: farthest pair among L+1 entries) as a
/// pairwise matrix, kernel vs scalar, per metric at dim 16.
fn bench_split_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("cf_split_matrix");
    let dim = 16;
    let entries: Vec<Cf> = (0..32).map(|i| make_cf(dim, 4, f64::from(i))).collect();
    let block = CfBlock::from_cfs(&entries);
    for metric in [DistanceMetric::D2, DistanceMetric::D4] {
        group.bench_with_input(
            BenchmarkId::new("scalar", metric),
            &metric,
            |bencher, &m| {
                bencher.iter(|| {
                    let mut far: Option<(usize, usize, f64)> = None;
                    for i in 0..entries.len() {
                        for j in (i + 1)..entries.len() {
                            let d = m.distance(&entries[i], &entries[j]);
                            if far.is_none_or(|(_, _, fd)| d > fd) {
                                far = Some((i, j, d));
                            }
                        }
                    }
                    black_box(far)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("kernel", metric),
            &metric,
            |bencher, &m| {
                bencher.iter(|| black_box(farthest_pair(m, black_box(&block))));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_add_point,
    bench_merge,
    bench_distances,
    bench_split_matrix
);
criterion_main!(benches);
