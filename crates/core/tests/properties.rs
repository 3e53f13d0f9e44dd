//! Property-based tests of the core invariants (proptest).
//!
//! These check the algebraic and structural claims the paper's correctness
//! rests on, over randomized inputs:
//!
//! * the CF Additivity Theorem (merge ≡ batch construction),
//! * exactness of the CF-derived statistics vs brute force,
//! * symmetry/non-negativity of D0–D4,
//! * CF-tree structural invariants after arbitrary insertion sequences,
//! * the Reducibility Theorem's size claim for rebuilds,
//! * conservation of the data summary through rebuild and Phase 3.

use birch_core::hierarchical::{agglomerate, StopRule};
use birch_core::rebuild::rebuild;
use birch_core::{
    audit_with, parallel, phase1, AuditOptions, Birch, BirchConfig, BirchModel, Cf, CfTree,
    DistanceMetric, Point, ThresholdKind, TreeParams,
};
use proptest::prelude::*;

fn pt2() -> impl Strategy<Value = Point> {
    (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point::xy(x, y))
}

fn points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(pt2(), 1..max)
}

/// Random scatters around four well-separated blob centers, with a few
/// deterministic anchor points per blob so every blob is always present
/// (keeps `k = 4` clustering well-posed for the parallel-vs-serial
/// quality comparison).
fn blobby(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0usize..4, -2.0f64..2.0, -2.0f64..2.0), 32..max).prop_map(|v| {
        let mut pts: Vec<Point> = v
            .into_iter()
            .map(|(b, dx, dy)| {
                let c = b as f64 * 100.0;
                Point::xy(c + dx, c + dy)
            })
            .collect();
        for b in 0..4 {
            let c = b as f64 * 100.0;
            for i in 0..5 {
                let a = f64::from(i) * 1.3;
                pts.push(Point::xy(c + a.sin(), c + a.cos()));
            }
        }
        pts
    })
}

fn small_params(threshold: f64, metric: DistanceMetric) -> TreeParams {
    TreeParams {
        dim: 2,
        branching: 4,
        leaf_capacity: 4,
        threshold,
        threshold_kind: ThresholdKind::Diameter,
        metric,
        merge_refinement: true,
        descend_prune: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Additivity: CF(A) + CF(B) == CF(A ∪ B), exactly in the counts and
    /// within float tolerance in the sums.
    #[test]
    fn cf_additivity(a in points(40), b in points(40)) {
        let cf_a = Cf::from_points(&a);
        let cf_b = Cf::from_points(&b);
        let merged = cf_a.merged(&cf_b);
        let all: Vec<Point> = a.iter().chain(&b).cloned().collect();
        let direct = Cf::from_points(&all);
        prop_assert!((merged.n() - direct.n()).abs() < 1e-9);
        prop_assert!((merged.sse() - direct.sse()).abs() <= 1e-9 * (1.0 + direct.sse().abs()));
        for (x, y) in merged.mean().iter().zip(direct.mean()) {
            prop_assert!((x - y).abs() <= 1e-9 * (1.0 + y.abs()));
        }
    }

    /// Radius and diameter from the CF match brute force over the points.
    #[test]
    fn cf_statistics_match_brute_force(pts in points(50)) {
        let cf = Cf::from_points(&pts);
        let n = pts.len() as f64;
        // Brute-force centroid.
        let dim = pts[0].dim();
        let mut centroid = vec![0.0; dim];
        for p in &pts {
            for (c, v) in centroid.iter_mut().zip(p.iter()) {
                *c += v / n;
            }
        }
        // Brute-force radius.
        let sq_dev: f64 = pts
            .iter()
            .map(|p| {
                p.iter()
                    .zip(&centroid)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
            })
            .sum();
        let radius = (sq_dev / n).sqrt();
        prop_assert!((cf.radius() - radius).abs() < 1e-6 * (1.0 + radius));
        // Brute-force diameter over ordered pairs.
        if pts.len() > 1 {
            let mut s = 0.0;
            for p in &pts {
                for q in &pts {
                    s += p.sq_dist(q);
                }
            }
            let diameter = (s / (n * (n - 1.0))).sqrt();
            prop_assert!((cf.diameter() - diameter).abs() < 1e-6 * (1.0 + diameter));
        }
    }

    /// Subtraction inverts merging.
    #[test]
    fn cf_subtract_inverts_merge(a in points(30), b in points(30)) {
        let cf_a = Cf::from_points(&a);
        let cf_b = Cf::from_points(&b);
        let mut m = cf_a.merged(&cf_b);
        m.subtract(&cf_b);
        prop_assert!((m.n() - cf_a.n()).abs() < 1e-9);
        for (x, y) in m.mean().iter().zip(cf_a.mean()) {
            prop_assert!((x - y).abs() <= 1e-6 * (1.0 + y.abs()));
        }
    }

    /// All five metrics: symmetric, non-negative, finite.
    #[test]
    fn metrics_symmetric_nonnegative(a in points(20), b in points(20)) {
        let cf_a = Cf::from_points(&a);
        let cf_b = Cf::from_points(&b);
        for m in DistanceMetric::ALL {
            let ab = m.distance(&cf_a, &cf_b);
            let ba = m.distance(&cf_b, &cf_a);
            prop_assert!(ab.is_finite());
            prop_assert!(ab >= 0.0);
            prop_assert!((ab - ba).abs() <= 1e-9 * (1.0 + ab));
        }
    }

    /// After any insertion sequence the tree passes its full structural
    /// audit and conserves the data summary. Small cases audit after
    /// *every* insert (catching transient corruption the end state would
    /// hide); large cases audit once at the end with the N-conservation
    /// cross-check enabled.
    #[test]
    fn tree_invariants_hold(
        pts in points(200),
        threshold in 0.0f64..5.0,
        metric in prop::sample::select(&DistanceMetric::ALL),
    ) {
        let mut tree = CfTree::new(small_params(threshold, metric));
        let audit_each = pts.len() <= 40;
        for (i, p) in pts.iter().enumerate() {
            tree.insert_point(p);
            if audit_each {
                let r = tree.audit();
                prop_assert!(r.is_ok(), "audit after insert {}: {}", i, r.unwrap_err());
            }
        }
        let opts = AuditOptions {
            expected_n: Some(pts.len() as f64),
            ..AuditOptions::default()
        };
        let report = audit_with(&tree, &opts);
        prop_assert!(report.is_ok(), "final audit: {}", report.unwrap_err());
    }

    /// Rebuild with a larger threshold: never more pages or entries, and
    /// the summary is conserved (Reducibility Theorem + no data loss).
    #[test]
    fn rebuild_reduces_and_conserves(
        pts in points(300),
        t0 in 0.0f64..2.0,
        grow in 1.0f64..4.0,
    ) {
        let mut tree = CfTree::new(small_params(t0, DistanceMetric::D2));
        for p in &pts {
            tree.insert_point(p);
        }
        let (new_tree, report) = rebuild(&tree, t0 + grow, None);
        // Full audit of the rebuilt tree, with conservation against the
        // old tree's N (no outlier store: nothing may be dropped).
        let opts = AuditOptions {
            expected_n: Some(tree.total_cf().n()),
            ..AuditOptions::default()
        };
        let audit = audit_with(&new_tree, &opts);
        prop_assert!(audit.is_ok(), "rebuilt-tree audit: {}", audit.unwrap_err());
        // Reducibility Theorem: S_{i+1} <= S_i, and the rebuild transient
        // needs at most h extra pages.
        prop_assert!(report.new_pages <= report.old_pages,
            "grew from {} to {} pages", report.old_pages, report.new_pages);
        prop_assert!(report.peak_pages <= report.old_pages + tree.height(),
            "peak {} > old {} + h {}",
            report.peak_pages, report.old_pages, tree.height());
        prop_assert!(new_tree.leaf_entry_count() <= tree.leaf_entry_count());
        prop_assert!((new_tree.total_cf().n() - tree.total_cf().n()).abs() < 1e-9);
    }

    /// Hierarchical clustering conserves weight and yields exactly k
    /// clusters with total labels consistent.
    #[test]
    fn hierarchical_conserves_weight(pts in points(40), k in 1usize..8) {
        let entries: Vec<Cf> = pts.iter().map(Cf::from_point).collect();
        let k = k.min(entries.len());
        let r = agglomerate(&entries, DistanceMetric::D2, StopRule::ClusterCount(k));
        prop_assert_eq!(r.clusters.len(), k);
        let total: f64 = r.clusters.iter().map(Cf::n).sum();
        prop_assert!((total - pts.len() as f64).abs() < 1e-9);
        prop_assert_eq!(r.labels.len(), entries.len());
        for &l in &r.labels {
            prop_assert!(l < k);
        }
        // Each cluster's weight equals the number of entries labeled with it.
        for (ci, c) in r.clusters.iter().enumerate() {
            let count = r.labels.iter().filter(|&&l| l == ci).count();
            prop_assert!((c.n() - count as f64).abs() < 1e-9);
        }
    }

    /// Merge distances are the dendrogram heights; for D0 (a true metric on
    /// centroids) the first merge is the global closest pair.
    #[test]
    fn first_merge_is_closest_pair(pts in prop::collection::vec(pt2(), 3..20)) {
        // Dedup coincident points to keep "closest pair" well-defined.
        let entries: Vec<Cf> = pts.iter().map(Cf::from_point).collect();
        let r = agglomerate(&entries, DistanceMetric::D0, StopRule::ClusterCount(1));
        let mut closest = f64::INFINITY;
        for i in 0..entries.len() {
            for j in (i + 1)..entries.len() {
                closest = closest.min(
                    DistanceMetric::D0.distance(&entries[i], &entries[j]));
            }
        }
        prop_assert!((r.merge_distances[0] - closest).abs() <= 1e-9 * (1.0 + closest));
    }

    /// The memoized `‖μ‖²` stays *bit-exact* against a from-scratch
    /// `μ·μ` dot product across arbitrarily long add/merge/subtract
    /// chains. The documented tolerance is zero: the cache is refreshed by
    /// full recomputation after every `μ` mutation (see DESIGN.md), so
    /// any drift at all is a regression of that policy.
    #[test]
    fn ls_sq_memo_bit_exact_over_op_chains(
        ops in prop::collection::vec((0usize..3, points(6), 1.0f64..5.0), 1..60)
    ) {
        let mut cf = Cf::empty(2);
        let mut merged_history: Vec<Cf> = Vec::new();
        for (sel, pts, w) in &ops {
            match sel {
                0 => for p in pts { cf.add_point(p); },
                1 => cf.add_weighted_point(&pts[0], *w),
                _ => {
                    let other = Cf::from_points(pts);
                    cf.merge(&other);
                    merged_history.push(other);
                }
            }
            // Interleave subtraction of CFs merged earlier, so the chain
            // exercises the one mutation that can cancel mass.
            if merged_history.len() > 2 {
                let other = merged_history.remove(0);
                cf.subtract(&other);
            }
            let scratch: f64 = cf.mean().iter().zip(cf.mean()).map(|(x, y)| x * y).sum();
            prop_assert_eq!(
                cf.mean_sq().to_bits(), scratch.to_bits(),
                "memo {} != from-scratch {}", cf.mean_sq(), scratch
            );
        }
    }

    /// Weighted insertion scales linearly: weight w ≡ w identical points.
    #[test]
    fn weighted_equals_duplicated(p in pt2(), w in 1usize..20) {
        let mut weighted = Cf::empty(2);
        weighted.add_weighted_point(&p, w as f64);
        let mut repeated = Cf::empty(2);
        for _ in 0..w {
            repeated.add_point(&p);
        }
        prop_assert!((weighted.n() - repeated.n()).abs() < 1e-9);
        prop_assert!((weighted.sse() - repeated.sse()).abs() < 1e-6 * (1.0 + repeated.sse().abs()));
    }

    /// Sharded Phase 1 conserves the data summary exactly: for any shard
    /// count, the merged tree's total CF has the *same* N as the serial
    /// scan (unit weights sum exactly in f64) and mean/SSE equal to float
    /// round-off — the CF Additivity Theorem made operational. Outlier
    /// handling is off so nothing is ever discarded on either path.
    #[test]
    fn parallel_total_cf_matches_serial(
        pts in blobby(300),
        threads in prop::sample::select(&[1usize, 2, 4]),
    ) {
        let cfg = BirchConfig::with_clusters(4)
            .memory(4 * 1024)
            .page_size(1024)
            .outliers(false)
            .threads(1);
        let ser = phase1::run(&cfg, 2, pts.iter().map(Cf::from_point));
        let par = parallel::run(&cfg, 2, &pts, threads);
        let (s, p) = (ser.tree.total_cf(), par.tree.total_cf());
        // Unit-weight counts are integers < 2^53: exactly equal.
        prop_assert_eq!(p.n(), s.n());
        for (x, y) in p.mean().iter().zip(s.mean()) {
            prop_assert!((x - y).abs() <= 1e-9 * (1.0 + y.abs()),
                "mean drift beyond round-off: {} vs {}", x, y);
        }
        prop_assert!((p.sse() - s.sse()).abs() <= 1e-9 * (1.0 + s.sse().abs()),
            "SSE drift beyond round-off: {} vs {}", p.sse(), s.sse());
        // Full audit of the merged tree, conservation included (outliers
        // are off, so the merged tree must hold every point).
        let opts = AuditOptions {
            expected_n: Some(pts.len() as f64),
            ..AuditOptions::default()
        };
        let audit = audit_with(&par.tree, &opts);
        prop_assert!(audit.is_ok(), "merged-tree audit: {}", audit.unwrap_err());
    }

    /// End-to-end quality: the parallel build's Phase-3 clustering has a
    /// weighted average diameter close to the serial run's on blob data.
    /// (The totals are exact; the *partition* into leaf entries may differ
    /// — shard thresholds settle independently — so quality is compared
    /// with a tolerance, not bit-for-bit.)
    #[test]
    fn parallel_weighted_diameter_close_to_serial(
        pts in blobby(400),
        threads in prop::sample::select(&[2usize, 4]),
    ) {
        let cfg = BirchConfig::with_clusters(4)
            .memory(8 * 1024)
            .page_size(1024)
            .outliers(false);
        let ser = Birch::new(cfg.clone().threads(1)).fit(&pts).unwrap();
        let par = Birch::new(cfg.threads(threads)).fit(&pts).unwrap();
        prop_assert_eq!(par.clusters().len(), ser.clusters().len());
        let wd = |m: &BirchModel| {
            let num: f64 = m.clusters().iter().map(|c| c.weight() * c.diameter).sum();
            let den: f64 = m.clusters().iter().map(|c| c.weight()).sum();
            num / den
        };
        let (ds, dp) = (wd(&ser), wd(&par));
        prop_assert!((dp - ds).abs() <= 0.5 + 0.25 * ds,
            "weighted D diverged: parallel {} vs serial {}", dp, ds);
    }

    /// Threshold monotonicity: a coarser tree never has more leaf entries.
    #[test]
    fn coarser_threshold_fewer_entries(pts in points(150), t in 0.1f64..3.0) {
        let build = |threshold: f64| {
            let mut tree = CfTree::new(small_params(threshold, DistanceMetric::D2));
            for p in &pts {
                tree.insert_point(p);
            }
            tree.leaf_entry_count()
        };
        // Not guaranteed pointwise (insertion is order/greedy dependent),
        // but a 4x coarser threshold must not *increase* entries by more
        // than a small factor; check the strong direction loosely.
        let fine = build(t);
        let coarse = build(4.0 * t);
        prop_assert!(coarse <= fine + fine / 4 + 1,
            "coarse {} vs fine {}", coarse, fine);
    }
}
