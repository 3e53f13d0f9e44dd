//! Differential suite: the NN-chain agglomerator against the all-pairs
//! heap oracle.
//!
//! For reducible metrics (D2, D4 — see `DistanceMetric::is_reducible`)
//! the NN-chain merge set equals the greedy closest-pair order's, and
//! both paths evaluate every distance through the same block kernel with
//! the same canonical merge orientation — so on tie-free workloads the
//! dendrograms, labels, cluster CFs, and merge distances must agree *bit
//! for bit*, under both stop rules, with the candidate prune on or off.
//! Non-reducible metrics (D0, D1, D3) admit inversions; the dispatcher
//! must route them to the heap, and this file also pins the concrete D3
//! inversion that makes the fallback necessary.

use birch_core::cf::Cf;
use birch_core::distance::{row_centroid_norm, CfBlock, DistanceMetric};
use birch_core::hierarchical::{agglomerate, agglomerate_with, HacAlgorithm, StopRule};
use birch_core::point::Point;

/// Deterministic tie-free workload: `m` CF entries (mix of singletons
/// and small weighted subclusters) scattered over `blobs` groups, with
/// per-index irrational jitter so no two pair distances coincide.
fn workload(seed: u64, m: usize, blobs: usize) -> Vec<Cf> {
    let mut s = seed.max(1);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..m)
        .map(|i| {
            let c = (i % blobs) as f64 * 250.0;
            let j = i as f64;
            let x = c + next() * 10.0 + (j * 0.618_033_988_749).sin() * 0.01;
            let y = c + next() * 10.0 + (j * 2.414_213_562_373).cos() * 0.01;
            if i % 3 == 0 {
                // A small subcluster: Phase 3 sees weighted CFs, not points.
                let pts: Vec<Point> = (0..3)
                    .map(|k| {
                        let k = f64::from(k);
                        Point::xy(x + k * 0.11, y - k * 0.07)
                    })
                    .collect();
                Cf::from_points(&pts)
            } else {
                Cf::from_point(&Point::xy(x, y))
            }
        })
        .collect()
}

/// A CF centred exactly on `c`: the symmetric pair `c ± (δ, 0)`, both
/// points at weight `w`, with a dyadic `δ ∈ [0.5, 1.5)` drawn from `next`.
/// The centroid is exact on either CF backend (and so is its norm, when `w`
/// is a power of two), while a distinct SSE (D2) and N (D4) per entry break
/// the exact distance ties that lattice symmetry would put between entries.
fn pair_at(c: (f64, f64), w: f64, next: &mut impl FnMut() -> u64) -> Cf {
    let delta = next() as f64 / f64::from(1u32 << 20) + 0.5;
    let mut cf = Cf::empty(2);
    cf.add_weighted_point(&Point::xy(c.0 + delta, c.1), w);
    cf.add_weighted_point(&Point::xy(c.0 - delta, c.1), w);
    cf
}

/// 20-bit draws from a xorshift stream.
fn bits20(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s >> 44
    }
}

/// Equal-norm workload: [`pair_at`] entries on integer points of one
/// circle `x² + y² = R²` (first-octant lattice points and their
/// quarter-turn images), so every centroid norm is the same float and the
/// norm-ordered neighbour search has no annulus to cut — it visits every
/// row, ordered by index.
fn ring(seed: u64, per_quadrant: usize) -> Vec<Cf> {
    // 5·13·17·29·37·41·53: a product of primes ≡ 1 (mod 4), so the circle
    // carries 512 lattice points.
    const R2: u64 = 2_576_450_045;
    let mut next = bits20(seed);
    (1..R2.isqrt())
        .filter_map(|x| {
            let y = (R2 - x * x).isqrt();
            (y * y + x * x == R2 && y < x).then_some((x as f64, y as f64))
        })
        .take(per_quadrant)
        .flat_map(|(x, y)| [(x, y), (-y, x), (-x, -y), (y, -x)])
        .map(|c| {
            let w = f64::from(1u32 << (next() % 4));
            pair_at(c, w, &mut next)
        })
        .collect()
}

/// Tie-heavy workload on the `side × side` integer grid centred on the
/// origin, where the lattice's symmetry makes up to eight points share each
/// norm. With `seed`, each point carries one [`pair_at`] entry: norm ties
/// everywhere, distance ties nowhere, so the chain must still match the
/// heap. Without, each point is a singleton and every other row is doubled:
/// nearest-neighbour distances tie by the dozen (0 and 1 everywhere), the
/// greedy dendrogram is no longer unique — chain and heap may each pick a
/// different one — and only the chain's tie rules decide, so that form is
/// compared chain against chain.
fn integer_grid(side: usize, seed: Option<u64>) -> Vec<Cf> {
    let half = (side / 2) as f64;
    let mut next = bits20(seed.unwrap_or(1));
    let mut out = Vec::new();
    for i in 0..side {
        for j in 0..side {
            let c = (i as f64 - half, j as f64 - half);
            if seed.is_some() {
                let w = 1.0 + next() as f64 / f64::from(1u32 << 20);
                out.push(pair_at(c, w, &mut next));
                continue;
            }
            let p = Point::xy(c.0, c.1);
            out.push(Cf::from_point(&p));
            if i % 2 == 0 {
                out.push(Cf::from_point(&p));
            }
        }
    }
    out
}

const REDUCIBLE: [DistanceMetric; 2] = [DistanceMetric::D2, DistanceMetric::D4];

/// The scattered workloads of each seed plus the equal-norm ring and the
/// norm-tied grid, each with a name for assertion messages. All tie-free
/// in distance, so chain and heap must agree on each.
fn cases(seeds: &[u64], m: usize, blobs: usize) -> Vec<(String, Vec<Cf>)> {
    let mut out: Vec<(String, Vec<Cf>)> = seeds
        .iter()
        .map(|&seed| (format!("seed={seed}"), workload(seed, m, blobs)))
        .collect();
    out.push(("ring".to_string(), ring(seeds[0], 16)));
    out.push(("grid".to_string(), integer_grid(7, Some(seeds[0]))));
    out
}

#[test]
fn ring_entries_share_one_norm() {
    // The premise of the ring workload: one centroid norm (hence one sort
    // key) on every entry, under either CF backend.
    let entries = ring(3, 16);
    assert_eq!(entries.len(), 64);
    let block = CfBlock::from_cfs(&entries);
    let norm = row_centroid_norm(&block, 0);
    for i in 0..entries.len() {
        assert_eq!(
            row_centroid_norm(&block, i).to_bits(),
            norm.to_bits(),
            "entry {i}"
        );
    }
}

#[test]
fn nn_chain_matches_heap_for_every_cluster_count() {
    for (name, entries) in cases(&[3, 41, 1997], 60, 4) {
        let m = entries.len();
        for metric in REDUCIBLE {
            for k in [1, 2, 3, 4, 7, 15, 30, m - 1, m] {
                let chain = agglomerate_with(
                    &entries,
                    metric,
                    StopRule::ClusterCount(k),
                    HacAlgorithm::NnChain,
                    true,
                );
                let heap = agglomerate_with(
                    &entries,
                    metric,
                    StopRule::ClusterCount(k),
                    HacAlgorithm::Heap,
                    true,
                );
                let tag = format!("{name} {metric} k={k}");
                assert_eq!(chain.labels, heap.labels, "{tag}");
                assert_eq!(chain.clusters, heap.clusters, "{tag}");
                assert_eq!(
                    chain.merge_distances.len(),
                    heap.merge_distances.len(),
                    "{tag}"
                );
                for (a, b) in chain.merge_distances.iter().zip(&heap.merge_distances) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{tag}");
                }
            }
        }
    }
}

#[test]
fn nn_chain_matches_heap_across_distance_threshold_sweep() {
    // The satellite regression: the chain discovers merges out of global
    // distance order, so its threshold cut must be taken on the sorted
    // (monotone) merge sequence — sweep thresholds across the entire
    // dendrogram range, including *exact* merge distances (the ≤ edge)
    // and midpoints between consecutive ones.
    for seed in [7, 113] {
        let entries = workload(seed, 50, 3);
        for metric in REDUCIBLE {
            let full = agglomerate_with(
                &entries,
                metric,
                StopRule::ClusterCount(1),
                HacAlgorithm::Heap,
                true,
            );
            let mut heights = full.merge_distances.clone();
            heights.sort_by(f64::total_cmp);
            let mut thresholds = vec![0.0, heights[0] / 2.0, heights.last().unwrap() * 2.0];
            for w in heights.windows(2) {
                thresholds.push(w[0]); // exactly on a merge: must be applied
                thresholds.push(f64::midpoint(w[0], w[1]));
            }
            for t in thresholds {
                let chain = agglomerate_with(
                    &entries,
                    metric,
                    StopRule::DistanceThreshold(t),
                    HacAlgorithm::NnChain,
                    true,
                );
                let heap = agglomerate_with(
                    &entries,
                    metric,
                    StopRule::DistanceThreshold(t),
                    HacAlgorithm::Heap,
                    true,
                );
                let tag = format!("seed={seed} {metric} t={t}");
                assert_eq!(chain.labels, heap.labels, "{tag}");
                assert_eq!(chain.clusters, heap.clusters, "{tag}");
                for (a, b) in chain.merge_distances.iter().zip(&heap.merge_distances) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{tag}");
                }
                // Every applied merge sits at or below the threshold —
                // the monotone-cut property the fix guarantees.
                assert!(chain.merge_distances.iter().all(|&d| d <= t), "{tag}");
            }
        }
    }
}

#[test]
fn prune_on_and_off_are_byte_identical() {
    // Mirroring the PR 4 descend-prune pins: the lower bound may only
    // skip pairs that provably lose, so switching it off must change the
    // work counters and nothing else.
    let mut all = cases(&[11, 503], 70, 5);
    all.push(("tied grid".to_string(), integer_grid(6, None)));
    for (name, entries) in all {
        for metric in REDUCIBLE {
            for stop in [
                StopRule::ClusterCount(5),
                StopRule::ClusterCount(1),
                StopRule::DistanceThreshold(40.0),
            ] {
                let on = agglomerate_with(&entries, metric, stop, HacAlgorithm::NnChain, true);
                let off = agglomerate_with(&entries, metric, stop, HacAlgorithm::NnChain, false);
                let tag = format!("{name} {metric} {stop:?}");
                assert_eq!(on.labels, off.labels, "{tag}");
                assert_eq!(on.clusters, off.clusters, "{tag}");
                for (a, b) in on.merge_distances.iter().zip(&off.merge_distances) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{tag}");
                }
                assert_eq!(off.stats.pairs_pruned, 0, "{tag}");
                assert_eq!(
                    off.stats.pairs_evaluated,
                    on.stats.pairs_evaluated + on.stats.pairs_pruned,
                    "{tag}: pruned pairs must be exactly the skipped evaluations"
                );
            }
        }
    }
}

#[test]
fn well_separated_blobs_prune_most_pairs() {
    // The point of the bound: across widely separated blobs the chain
    // should skip far more pairs than it evaluates against a tight best.
    let entries = workload(29, 120, 6);
    let r = agglomerate(&entries, DistanceMetric::D2, StopRule::ClusterCount(6));
    assert_eq!(r.stats.algorithm, HacAlgorithm::NnChain);
    assert!(
        r.stats.pairs_pruned > 0,
        "separated blobs pruned nothing ({} evaluated)",
        r.stats.pairs_evaluated
    );
}

#[test]
fn non_reducible_metrics_dispatch_to_heap() {
    // The documented fallback: D0/D1/D3 admit inversions, so the default
    // dispatcher must hand them to the exact greedy executor.
    let entries = workload(17, 30, 3);
    for metric in [DistanceMetric::D0, DistanceMetric::D1, DistanceMetric::D3] {
        assert!(!metric.is_reducible(), "{metric}");
        let r = agglomerate(&entries, metric, StopRule::ClusterCount(3));
        assert_eq!(r.stats.algorithm, HacAlgorithm::Heap, "{metric}");
        assert_eq!(r.clusters.len(), 3, "{metric}");
    }
    for metric in REDUCIBLE {
        assert!(metric.is_reducible(), "{metric}");
    }
}

#[test]
fn d3_inversion_counterexample_justifies_fallback() {
    // Two coincident singletons a, b at the origin and a probe k at
    // distance 1: D3(a,k) = D3(b,k) = 1, but the merged pair's average
    // intra-cluster distance to k is √(2/3) < 1 — the merge moved a
    // cluster *closer*, violating reducibility. This is exactly why the
    // NN-chain (whose correctness needs d(a∪b,·) ≥ min(d(a,·), d(b,·)))
    // cannot run D3.
    let a = Cf::from_point(&Point::xy(0.0, 0.0));
    let b = Cf::from_point(&Point::xy(0.0, 0.0));
    let k = Cf::from_point(&Point::xy(1.0, 0.0));
    let m = DistanceMetric::D3;
    let d_ak = m.distance(&a, &k);
    let d_bk = m.distance(&b, &k);
    let mut merged = a.clone();
    merged.merge(&b);
    let d_mk = m.distance(&merged, &k);
    assert!(
        d_mk < d_ak.min(d_bk) - 1e-9,
        "expected inversion: d(a∪b,k)={d_mk} vs min={}",
        d_ak.min(d_bk)
    );
}

#[test]
fn chain_memory_stays_linear_while_heap_grows_quadratic() {
    // The tentpole's headline: candidate state O(m) for the chain vs
    // O(m²) for the heap, measured by the agglomerators themselves.
    let small = workload(5, 50, 4);
    let large = workload(5, 400, 4);
    let chain_small = agglomerate_with(
        &small,
        DistanceMetric::D2,
        StopRule::ClusterCount(4),
        HacAlgorithm::NnChain,
        true,
    );
    let chain_large = agglomerate_with(
        &large,
        DistanceMetric::D2,
        StopRule::ClusterCount(4),
        HacAlgorithm::NnChain,
        true,
    );
    let heap_small = agglomerate_with(
        &small,
        DistanceMetric::D2,
        StopRule::ClusterCount(4),
        HacAlgorithm::Heap,
        true,
    );
    let heap_large = agglomerate_with(
        &large,
        DistanceMetric::D2,
        StopRule::ClusterCount(4),
        HacAlgorithm::Heap,
        true,
    );
    // 8× the entries: chain state grows ~linearly (allow 16× for
    // capacity rounding), the heap's candidate state ~64×.
    let chain_growth = chain_large.stats.peak_candidate_bytes as f64
        / chain_small.stats.peak_candidate_bytes as f64;
    let heap_growth =
        heap_large.stats.peak_candidate_bytes as f64 / heap_small.stats.peak_candidate_bytes as f64;
    assert!(chain_growth < 16.0, "chain candidate growth {chain_growth}");
    assert!(heap_growth > 30.0, "heap candidate growth {heap_growth}");
    assert!(
        chain_large.stats.peak_candidate_bytes < heap_large.stats.peak_candidate_bytes / 4,
        "chain {} vs heap {}",
        chain_large.stats.peak_candidate_bytes,
        heap_large.stats.peak_candidate_bytes
    );
}
