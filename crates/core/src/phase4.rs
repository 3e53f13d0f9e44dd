//! Phase 4 (optional): refinement and labeling.
//!
//! Paper §5: Phase 3's clusters are built from summaries, so individual
//! points can sit in the "wrong" cluster (copies of a point split across
//! entries, misplacements from skewed input). Phase 4 fixes this with
//! "additional passes over the data": using the Phase-3 centroids as
//! seeds, each original data point is re-assigned to its closest seed —
//! one pass of the classic centroid-refinement (k-means/Lloyd) step, which
//! the paper notes "can be proved to converge to a minimum". It also
//! labels every point with its cluster and can discard as outliers points
//! too far from every seed.

use crate::annulus::{gap_bound, NormOrder};
use crate::cf::Cf;
use crate::point::{sq_dist, Point};

/// Configuration for the refinement pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase4Config {
    /// Number of reassignment passes (≥ 1 when Phase 4 runs at all).
    pub passes: usize,
    /// Discard a point whose distance to its closest seed exceeds
    /// `factor ×` that seed cluster's radius (`None` keeps all points).
    /// Seeds with zero radius fall back to the mean non-zero seed radius.
    pub outlier_factor: Option<f64>,
}

impl Default for Phase4Config {
    fn default() -> Self {
        Self {
            passes: 1,
            outlier_factor: None,
        }
    }
}

/// Result of refinement.
#[derive(Debug, Clone)]
pub struct Phase4Result {
    /// Per-point label: the cluster index, or `None` for discarded
    /// outliers.
    pub labels: Vec<Option<usize>>,
    /// Refined cluster CFs (empty clusters retain their seed CF so indices
    /// stay stable across passes).
    pub clusters: Vec<Cf>,
    /// Points discarded as outliers over the final pass.
    pub discarded: u64,
    /// Point-to-seed distances computed over all passes. A brute scan
    /// computes `points × seeds` per pass; the norm-ordered seed search
    /// skips the seeds its bound rules out.
    pub seed_distance_calls: u64,
}

/// Runs `config.passes` refinement passes of `points` (optionally
/// weighted) against the `seeds` produced by Phase 3, on the calling
/// thread: [`refine_parallel`] with one thread.
///
/// # Panics
///
/// Panics if `seeds` is empty, `config.passes == 0`, or (when provided)
/// `weights.len() != points.len()`.
#[must_use]
pub fn refine(
    points: &[Point],
    weights: Option<&[f64]>,
    seeds: &[Cf],
    config: Phase4Config,
) -> Phase4Result {
    refine_parallel(points, weights, seeds, config, 1)
}

/// [`refine`] with each pass's nearest-seed search split across
/// `threads` scoped workers, the paper's §7 "opportunities for
/// parallelism".
///
/// A pass walks the points in blocks of a few thousand points per worker,
/// each in two steps. In the *search*, each worker takes a
/// contiguous chunk of the block and writes each point's label (its
/// nearest seed, or `None` when the outlier rule discards it) into its
/// own chunk of the label vector; the seeds and the pass's radii are
/// read-only. In the *commit*, one loop adds the block's kept points to
/// their clusters in point order. Labels, cluster CFs, `discarded` and
/// `seed_distance_calls` are therefore the same bits at any thread
/// count.
///
/// # Panics
///
/// Same as [`refine`], and if `threads == 0`.
#[must_use]
pub fn refine_parallel(
    points: &[Point],
    weights: Option<&[f64]>,
    seeds: &[Cf],
    config: Phase4Config,
    threads: usize,
) -> Phase4Result {
    assert!(!seeds.is_empty(), "phase 4 requires at least one seed");
    assert!(config.passes >= 1, "phase 4 requires at least one pass");
    assert!(threads >= 1, "need at least one thread");
    if let Some(w) = weights {
        assert_eq!(w.len(), points.len(), "weights/points length mismatch");
    }

    let mut clusters: Vec<Cf> = seeds.to_vec();
    let mut labels = vec![None; points.len()];
    let mut discarded = 0u64;
    let mut seed_distance_calls = 0u64;

    for _ in 0..config.passes {
        let _sp = crate::obs::span::enter("refine_pass");
        let seeds = SeedSlab::new(&clusters);
        let radii: Vec<f64> = clusters.iter().map(Cf::radius).collect();
        let mean_radius = {
            let nz: Vec<f64> = radii.iter().copied().filter(|&r| r > 0.0).collect();
            if nz.is_empty() {
                0.0
            } else {
                nz.iter().sum::<f64>() / nz.len() as f64
            }
        };
        let keep = |best: usize, best_d: f64| match config.outlier_factor {
            None => true,
            Some(f) => {
                let scale = if radii[best] > 0.0 {
                    radii[best]
                } else {
                    mean_radius
                };
                scale == 0.0 || best_d <= f * scale
            }
        };

        let mut next: Vec<Cf> = (0..clusters.len()).map(|_| Cf::empty(seeds.dim)).collect();
        discarded = 0;
        let block = BLOCK_PER_WORKER * threads;
        for (b, (points, labels)) in points
            .chunks(block)
            .zip(labels.chunks_mut(block))
            .enumerate()
        {
            let (calls, dropped) = label_points(points, &seeds, &keep, labels, threads);
            seed_distance_calls += calls;
            discarded += dropped;
            let start = b * block;
            for (i, (p, label)) in points.iter().zip(&*labels).enumerate() {
                if let Some(best) = *label {
                    next[best].add_weighted_point(p, weights.map_or(1.0, |w| w[start + i]));
                }
            }
        }

        // Keep empty clusters' previous CFs so seed indices stay stable.
        for (c, n) in clusters.iter_mut().zip(next) {
            if !n.is_empty() {
                *c = n;
            }
        }
    }

    Phase4Result {
        labels,
        clusters,
        discarded,
        seed_distance_calls,
    }
}

/// Points per worker in one block of a Phase-4 pass. The commit adds a
/// block's points while they are still in cache; committing once per pass
/// instead read every point from memory a second time, which made a
/// one-thread pass over 200k shuffled 16-d points 35% slower.
const BLOCK_PER_WORKER: usize = 4096;

/// One block's search: sets each label to the point's nearest seed, or to
/// `None` when `keep` rejects that seed and distance. The points split
/// into `threads` contiguous chunks; the calling thread labels the first
/// and scoped workers the rest, each writing only its own chunk of
/// `labels`. Returns the seed distances computed and the points rejected.
fn label_points(
    points: &[Point],
    seeds: &SeedSlab,
    keep: &(impl Fn(usize, f64) -> bool + Sync),
    labels: &mut [Option<usize>],
    threads: usize,
) -> (u64, u64) {
    let label_chunk = |points: &[Point], labels: &mut [Option<usize>]| {
        let (mut calls, mut dropped) = (0u64, 0u64);
        for (p, label) in points.iter().zip(labels) {
            let (best, best_d) = seeds.nearest(p, &mut calls);
            let kept = keep(best, best_d);
            dropped += u64::from(!kept);
            *label = kept.then_some(best);
        }
        (calls, dropped)
    };
    let chunk = points.len().div_ceil(threads).max(1);
    let mut chunks = points.chunks(chunk).zip(labels.chunks_mut(chunk));
    let Some((first_points, first_labels)) = chunks.next() else {
        return (0, 0);
    };
    let label_chunk = &label_chunk;
    std::thread::scope(|s| {
        let workers: Vec<_> = chunks
            .map(|(points, labels)| s.spawn(move || label_chunk(points, labels)))
            .collect();
        let own = label_chunk(first_points, first_labels);
        workers
            .into_iter()
            .map(|w| w.join().expect("phase-4 worker panicked"))
            .fold(own, |(c, d), (wc, wd)| (c + wc, d + wd))
    })
}

fn norm(p: &Point) -> f64 {
    p.coords().iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// One pass's seed centroids as a single flat slab, rows in `(‖c‖, seed
/// index)` order, so the seed search walks outward in norm from each
/// point (see [`crate::annulus`]) and reads the rows it visits from one
/// contiguous allocation. It replaces a `Vec<Point>` of centroids and a
/// vector of their norms, and holds less heap than the two did.
struct SeedSlab {
    order: NormOrder,
    /// Row `pos` (sorted position) occupies `coords[pos*dim .. (pos+1)*dim]`.
    coords: Vec<f64>,
    dim: usize,
}

impl SeedSlab {
    fn new(clusters: &[Cf]) -> Self {
        let order = NormOrder::new(
            &clusters
                .iter()
                .map(|c| norm(&c.centroid()))
                .collect::<Vec<f64>>(),
        );
        let dim = clusters[0].dim();
        let mut coords = Vec::with_capacity(order.len() * dim);
        for pos in 0..order.len() {
            coords.extend_from_slice(clusters[order.id(pos)].centroid().coords());
        }
        Self { order, coords, dim }
    }

    /// Index and distance of the seed centroid nearest to `p` (Euclidean,
    /// per the paper: "the Euclidian distance to the closest seed"),
    /// adding the number of seed distances computed to `calls`.
    ///
    /// Exactly the brute scan's answer: the walk closes a side only once
    /// every seed left on it is provably farther than the best found, and
    /// among equal minima the lowest seed index wins, as in an index-order
    /// scan that takes over on a strict win — the property tests pin the
    /// index and the distance's bits.
    fn nearest(&self, p: &Point, calls: &mut u64) -> (usize, f64) {
        let pn = norm(p);
        let (mut best, mut best_sq) = (usize::MAX, f64::INFINITY);
        self.order.walk(
            pn,
            f64::INFINITY,
            |c| {
                let b = gap_bound(pn, c);
                b * b
            },
            |pos, id| {
                *calls += 1;
                let d = sq_dist(
                    p.coords(),
                    &self.coords[pos * self.dim..(pos + 1) * self.dim],
                );
                if d < best_sq || (d == best_sq && id < best) {
                    best_sq = d;
                    best = id;
                }
                best_sq
            },
        );
        (best, best_sq.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_blobs() -> (Vec<Point>, Vec<Cf>) {
        let mut pts = Vec::new();
        for i in 0..20 {
            let off = f64::from(i % 5) * 0.1;
            pts.push(Point::xy(off, off));
            pts.push(Point::xy(50.0 + off, 50.0 + off));
        }
        // Deliberately offset seeds: refinement should still capture the
        // blobs.
        let seeds = vec![
            Cf::from_points(&[Point::xy(1.0, 1.0), Point::xy(2.0, 2.0)]),
            Cf::from_points(&[Point::xy(48.0, 48.0), Point::xy(49.0, 49.0)]),
        ];
        (pts, seeds)
    }

    #[test]
    fn one_pass_assigns_all_points() {
        let (pts, seeds) = two_blobs();
        let r = refine(&pts, None, &seeds, Phase4Config::default());
        assert_eq!(r.labels.len(), pts.len());
        assert!(r.labels.iter().all(Option::is_some));
        assert_eq!(r.discarded, 0);
        let total: f64 = r.clusters.iter().map(Cf::n).sum();
        assert_eq!(total, 40.0);
        // Each blob fully captured by one cluster.
        let n0 = r.clusters[0].n();
        let n1 = r.clusters[1].n();
        assert_eq!(n0, 20.0);
        assert_eq!(n1, 20.0);
    }

    #[test]
    fn centroids_improve_after_refinement() {
        let (pts, seeds) = two_blobs();
        let r = refine(&pts, None, &seeds, Phase4Config::default());
        // Blob 0's true centroid is (0.2, 0.2): the refined centroid must
        // be much closer to it than the seed (1.5, 1.5) was.
        let c = r.clusters[0].centroid();
        assert!(c.dist(&Point::xy(0.2, 0.2)) < 0.01, "centroid {c:?}");
    }

    #[test]
    fn multiple_passes_converge() {
        let (pts, seeds) = two_blobs();
        let one = refine(
            &pts,
            None,
            &seeds,
            Phase4Config {
                passes: 1,
                outlier_factor: None,
            },
        );
        let five = refine(
            &pts,
            None,
            &seeds,
            Phase4Config {
                passes: 5,
                outlier_factor: None,
            },
        );
        // With well-separated blobs one pass already lands the answer;
        // more passes must not change it.
        assert_eq!(one.labels, five.labels);
    }

    #[test]
    fn outlier_discard_drops_far_points() {
        let (mut pts, seeds) = two_blobs();
        pts.push(Point::xy(500.0, -500.0));
        let cfg = Phase4Config {
            passes: 2,
            outlier_factor: Some(3.0),
        };
        let r = refine(&pts, None, &seeds, cfg);
        assert_eq!(r.discarded, 1);
        assert_eq!(*r.labels.last().unwrap(), None);
        // Regular points all kept.
        assert_eq!(r.labels.iter().filter(|l| l.is_some()).count(), 40);
    }

    #[test]
    fn weighted_points_shift_centroid() {
        let pts = vec![Point::xy(0.0, 0.0), Point::xy(10.0, 0.0)];
        let weights = vec![9.0, 1.0];
        let seeds = vec![Cf::from_points(&pts)];
        let r = refine(&pts, Some(&weights), &seeds, Phase4Config::default());
        let c = r.clusters[0].centroid();
        assert!((c[0] - 1.0).abs() < 1e-12, "weighted centroid {c:?}");
    }

    #[test]
    fn empty_cluster_keeps_seed_cf() {
        // All points near seed 0; seed 1 receives nothing and must keep its
        // original CF (stable indices).
        let pts = vec![Point::xy(0.0, 0.0), Point::xy(0.1, 0.0)];
        let lonely = Cf::from_points(&[Point::xy(99.0, 99.0)]);
        let seeds = vec![Cf::from_points(&pts), lonely.clone()];
        let r = refine(&pts, None, &seeds, Phase4Config::default());
        assert_eq!(r.clusters[1], lonely);
    }

    /// Oracle: the plain linear scan the norm-ordered search replaced —
    /// every seed in index order, a strict win takes over.
    fn brute(p: &Point, centroids: &[Point]) -> (usize, f64) {
        let mut best = 0;
        let mut best_sq = f64::INFINITY;
        for (i, c) in centroids.iter().enumerate() {
            let d = p.sq_dist(c);
            if d < best_sq {
                best_sq = d;
                best = i;
            }
        }
        (best, best_sq.sqrt())
    }

    /// Seeds and query points for one generated case. `layout`: 0 random,
    /// 1 every seed duplicated, 2 every seed at one norm (sign flips of one
    /// vector, so the annulus is the whole seed set), 3 integer grid with
    /// half-integer queries (exact distance ties everywhere). Everything is
    /// translated by `offset` on every axis. The points are the seeds plus
    /// `queries` more.
    fn case(
        dim: usize,
        offset: f64,
        layout: u32,
        n_seeds: usize,
        queries: usize,
        seed: u64,
    ) -> (Vec<Cf>, Vec<Point>) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut coord = |span: f64| (next() - 0.5) * span;
        let base: Vec<f64> = (0..dim).map(|_| coord(80.0)).collect();
        let mut seeds: Vec<Point> = Vec::with_capacity(n_seeds);
        while seeds.len() < n_seeds {
            let c: Vec<f64> = match layout {
                0 | 1 => (0..dim).map(|_| coord(80.0) + offset).collect(),
                2 => base
                    .iter()
                    .map(|&v| {
                        if coord(1.0) < 0.0 {
                            -(v + offset)
                        } else {
                            v + offset
                        }
                    })
                    .collect(),
                _ => (0..dim).map(|_| coord(7.0).round() + offset).collect(),
            };
            if layout == 1 {
                seeds.push(Point::new(c.clone()));
            }
            seeds.push(Point::new(c));
        }
        seeds.truncate(n_seeds);
        let mut points: Vec<Point> = seeds.clone();
        for _ in 0..queries {
            let c: Vec<f64> = match layout {
                3 => (0..dim)
                    .map(|_| (coord(9.0) * 2.0).round() / 2.0 + offset)
                    .collect(),
                _ => (0..dim).map(|_| coord(120.0) + offset).collect(),
            };
            points.push(Point::new(c));
        }
        (seeds.iter().map(Cf::from_point).collect(), points)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn nearest_seed_matches_brute_scan(
            dim in prop::sample::select(&[1usize, 2, 16]),
            offset in prop::sample::select(&[0.0, 1e8, -1e8]),
            layout in 0u32..4,
            n_seeds in 1usize..40,
            seed in any::<u64>(),
        ) {
            let (seeds, points) = case(dim, offset, layout, n_seeds, 60, seed);
            let slab = SeedSlab::new(&seeds);
            let centroids: Vec<Point> = seeds.iter().map(Cf::centroid).collect();
            let mut calls = 0;
            for (i, p) in points.iter().enumerate() {
                let (bi, bd) = brute(p, &centroids);
                let (si, sd) = slab.nearest(p, &mut calls);
                prop_assert_eq!(bi, si, "point {} dim {} layout {} offset {}", i, dim, layout, offset);
                prop_assert_eq!(bd.to_bits(), sd.to_bits(), "point {} dim {} layout {}", i, dim, layout);
            }
            prop_assert!(calls <= (points.len() * seeds.len()) as u64);
        }

        #[test]
        fn refine_matches_brute_assignment(
            dim in prop::sample::select(&[1usize, 2, 16]),
            offset in prop::sample::select(&[0.0, 1e8]),
            layout in 0u32..4,
            n_seeds in 1usize..25,
            factor in prop::sample::select(&[None, Some(0.5), Some(2.0)]),
            passes in 1usize..3,
            threads in 1usize..5,
            // 18,000 queries span several blocks of a pass at every
            // thread count.
            queries in prop::sample::select(&[60usize, 18_000]),
            seed in any::<u64>(),
        ) {
            let (seeds, points) = case(dim, offset, layout, n_seeds, queries, seed);
            let weights: Vec<f64> = (0..points.len()).map(|i| 0.5 + (i % 7) as f64 * 0.25).collect();
            let config = Phase4Config { passes, outlier_factor: factor };
            let r = refine_parallel(&points, Some(&weights), &seeds, config, threads);

            // The passes by hand with the brute scan, same keep rule.
            let mut clusters = seeds.clone();
            let mut labels = vec![None; points.len()];
            let mut discarded = 0u64;
            for _ in 0..passes {
                let centroids: Vec<Point> = clusters.iter().map(Cf::centroid).collect();
                let radii: Vec<f64> = clusters.iter().map(Cf::radius).collect();
                let nz: Vec<f64> = radii.iter().copied().filter(|&r| r > 0.0).collect();
                let mean_radius = if nz.is_empty() { 0.0 } else { nz.iter().sum::<f64>() / nz.len() as f64 };
                let mut next: Vec<Cf> = clusters.iter().map(|_| Cf::empty(dim)).collect();
                discarded = 0;
                for (i, p) in points.iter().enumerate() {
                    let (b, d) = brute(p, &centroids);
                    let scale = if radii[b] > 0.0 { radii[b] } else { mean_radius };
                    let keep = factor.is_none_or(|f| scale == 0.0 || d <= f * scale);
                    labels[i] = keep.then_some(b);
                    if keep {
                        next[b].add_weighted_point(p, weights[i]);
                    } else {
                        discarded += 1;
                    }
                }
                for (c, n) in clusters.iter_mut().zip(next) {
                    if !n.is_empty() {
                        *c = n;
                    }
                }
            }
            prop_assert_eq!(&r.labels, &labels, "labels, {} threads", threads);
            prop_assert_eq!(words(&r.clusters), words(&clusters), "clusters, {} threads", threads);
            prop_assert_eq!(r.discarded, discarded);

            // The one-thread pass, its search work included.
            let one = refine(&points, Some(&weights), &seeds, config);
            prop_assert_eq!(&r.labels, &one.labels);
            prop_assert_eq!(words(&r.clusters), words(&one.clusters));
            prop_assert_eq!(r.discarded, one.discarded);
            prop_assert_eq!(r.seed_distance_calls, one.seed_distance_calls, "{} threads", threads);
        }
    }

    /// Every CF's words, for bit-for-bit comparison.
    fn words(cfs: &[Cf]) -> Vec<u64> {
        let mut out = Vec::new();
        for cf in cfs {
            cf.to_words(&mut out);
        }
        out
    }

    #[test]
    fn seed_distance_calls_count_only_the_annulus() {
        // Seeds on a line at x = 0, 10, …, 90 and one point just right of
        // each: the nearest seed is 1 away and every other seed's norm is
        // at least 9 away, so each point computes exactly one distance —
        // where a brute scan computes ten.
        let seeds: Vec<Cf> = (0..10)
            .map(|i| Cf::from_point(&Point::xy(f64::from(i) * 10.0, 0.0)))
            .collect();
        let pts: Vec<Point> = (0..10)
            .map(|i| Point::xy(f64::from(i) * 10.0 + 1.0, 0.0))
            .collect();
        let r = refine(&pts, None, &seeds, Phase4Config::default());
        assert_eq!(r.seed_distance_calls, 10);
        let want: Vec<Option<usize>> = (0..10).map(Some).collect();
        assert_eq!(r.labels, want);
        // Every pass counts: the second pass's centroids sit on the points.
        let two = refine(
            &pts,
            None,
            &seeds,
            Phase4Config {
                passes: 2,
                outlier_factor: None,
            },
        );
        assert_eq!(two.seed_distance_calls, 20);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn no_seeds_panics() {
        let _ = refine(&[Point::xy(0.0, 0.0)], None, &[], Phase4Config::default());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weight_length_mismatch_panics() {
        let pts = vec![Point::xy(0.0, 0.0)];
        let seeds = vec![Cf::from_point(&pts[0])];
        let _ = refine(&pts, Some(&[1.0, 2.0]), &seeds, Phase4Config::default());
    }
}
