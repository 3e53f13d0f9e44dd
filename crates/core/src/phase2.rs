//! Phase 2 (optional): condense the CF-tree into a desirable range.
//!
//! Paper §5: *"we observed that the existing global or semi-global
//! clustering methods applied in Phase 3 have different input size ranges
//! within which they perform well … Phase 2 serves as a cushion … it scans
//! the leaf entries in the initial CF tree to rebuild a smaller CF tree,
//! while removing more outliers and grouping crowded subclusters into
//! larger ones."*
//!
//! Implementation: keep growing the threshold (continuing Phase 1's
//! estimator sequence, so the r–N regression history carries over) and
//! rebuilding until the leaf-entry count drops to the configured target.

use crate::obs::{Event, EventSink, NoopSink};
use crate::outlier::OutlierStore;
use crate::phase1::mean_entry_n;
use crate::rebuild::rebuild_observed;
use crate::threshold::ThresholdEstimator;
use crate::tree::CfTree;
use birch_pager::IoStats;

/// Hard cap mirroring Phase 1's: condensation must converge because the
/// threshold grows strictly each round.
const MAX_ROUNDS: u64 = 10_000;

/// Condenses `tree` until it has at most `max_entries` leaf entries.
///
/// Threshold growth uses the entry-count-targeted estimator (see
/// [`ThresholdEstimator::next_threshold_for_target`]); `outliers`
/// optionally continues spilling low-density entries; counters accumulate
/// into `io`.
///
/// # Panics
///
/// Panics if `max_entries < 2` or if condensation fails to converge (a
/// logic error, since the threshold grows strictly every round).
pub fn condense(
    tree: CfTree,
    max_entries: usize,
    estimator: &mut ThresholdEstimator,
    outliers: Option<&mut OutlierStore>,
    io: &mut IoStats,
) -> CfTree {
    condense_with_sink(tree, max_entries, estimator, outliers, io, &mut NoopSink)
}

/// Like [`condense`], but streaming every telemetry [`Event`] (threshold
/// raises, rebuilds, spills, page high-water marks) into `sink`. With
/// [`NoopSink`] this is exactly [`condense`].
///
/// # Panics
///
/// Same as [`condense`].
pub fn condense_with_sink<S: EventSink>(
    mut tree: CfTree,
    max_entries: usize,
    estimator: &mut ThresholdEstimator,
    mut outliers: Option<&mut OutlierStore>,
    io: &mut IoStats,
    sink: &mut S,
) -> CfTree {
    assert!(max_entries >= 2, "phase 2 target must be >= 2 entries");
    let mut rounds = 0u64;
    while tree.leaf_entry_count() > max_entries {
        assert!(
            rounds < MAX_ROUNDS,
            "phase 2 did not converge after {MAX_ROUNDS} rounds"
        );
        rounds += 1;
        let t_next = estimator.next_threshold_for_target(&tree, max_entries);
        sink.record(&Event::ThresholdRaised {
            old: tree.threshold(),
            new: t_next,
            points_seen: tree.total_cf().n() as u64,
        });
        sink.record(&Event::RebuildTriggered {
            old_threshold: tree.threshold(),
            new_threshold: t_next,
            leaf_entries: tree.leaf_entry_count(),
            pages: tree.node_count(),
        });
        let (new_tree, report) = rebuild_observed(&tree, t_next, outliers.as_deref_mut(), sink);
        io.rebuilds += 1;
        if report.peak_pages > io.peak_pages {
            io.peak_pages = report.peak_pages;
            sink.record(&Event::PagesHighWater {
                pages: report.peak_pages,
            });
        }
        io.splits += new_tree.stats().splits;
        io.merge_refinements += new_tree.stats().merge_refinements;
        tree = new_tree;

        if let Some(store) = outliers.as_deref_mut() {
            if !store.has_space() && !store.is_empty() {
                let mean = mean_entry_n(&tree);
                store.reabsorb_observed(&mut tree, mean, sink);
            }
        }
    }

    // Final absorption attempt for anything still parked: entries may fit
    // under the (much larger) condensed threshold now.
    if let Some(store) = outliers {
        if !store.is_empty() {
            let mean = mean_entry_n(&tree);
            store.reabsorb_observed(&mut tree, mean, sink);
        }
        io.outliers_discarded += store.finalize_observed(&mut tree, sink);
    }
    tree.strict_audit("condense");
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::tree::TreeParams;

    fn scatter_tree(n: usize) -> CfTree {
        let mut t = CfTree::new(TreeParams::for_dim(2));
        for i in 0..n {
            let i = i as f64;
            t.insert_point(&Point::xy(
                (i * 0.618).rem_euclid(100.0),
                (i * 0.414).rem_euclid(100.0),
            ));
        }
        t
    }

    #[test]
    fn condense_hits_target() {
        let tree = scatter_tree(3000);
        assert!(tree.leaf_entry_count() > 200);
        let mut est = ThresholdEstimator::new(Some(3000));
        let mut io = IoStats::default();
        let condensed = condense(tree, 200, &mut est, None, &mut io);
        assert!(condensed.leaf_entry_count() <= 200);
        assert!(io.rebuilds >= 1);
        condensed.check_invariants().unwrap();
        assert!((condensed.total_cf().n() - 3000.0).abs() < 1e-6);
    }

    #[test]
    fn already_small_tree_untouched() {
        let mut t = CfTree::new(TreeParams::for_dim(2));
        for i in 0..5 {
            t.insert_point(&Point::xy(f64::from(i) * 10.0, 0.0));
        }
        let mut est = ThresholdEstimator::new(None);
        let mut io = IoStats::default();
        let out = condense(t, 100, &mut est, None, &mut io);
        assert_eq!(out.leaf_entry_count(), 5);
        assert_eq!(io.rebuilds, 0);
    }

    #[test]
    fn condense_with_outlier_store_discards_thin_entries() {
        use crate::outlier::OutlierConfig;
        let mut t = CfTree::new(TreeParams {
            threshold: 0.5,
            ..TreeParams::for_dim(2)
        });
        // Dense blob of identical points + scattered singles.
        for _ in 0..500 {
            t.insert_point(&Point::xy(0.0, 0.0));
        }
        for i in 0..100 {
            let i = f64::from(i);
            t.insert_point(&Point::xy(
                200.0 + (i * 37.0).rem_euclid(500.0),
                300.0 + (i * 53.0).rem_euclid(500.0),
            ));
        }
        let mut est = ThresholdEstimator::new(Some(600));
        let mut io = IoStats::default();
        let mut store = OutlierStore::new(64 * 1024, 32, OutlierConfig::default());
        let out = condense(t, 20, &mut est, Some(&mut store), &mut io);
        assert!(out.leaf_entry_count() <= 20);
        assert!(io.outliers_discarded > 0, "io={io:?}");
    }

    #[test]
    fn condense_tiny_target() {
        let tree = scatter_tree(500);
        let mut est = ThresholdEstimator::new(Some(500));
        let mut io = IoStats::default();
        let out = condense(tree, 2, &mut est, None, &mut io);
        assert!(out.leaf_entry_count() <= 2);
        let total: f64 = out.leaf_entries().map(|e| e.n()).sum();
        assert!((total - 500.0).abs() < 1e-6);
    }

    #[test]
    fn condensed_tree_respects_smaller_page_budget() {
        // Condensing to fewer entries must also shrink the page count:
        // rebuilds never add nodes (Reducibility), so the output's node
        // count is bounded by the input's and consistent with its own
        // entry count.
        let tree = scatter_tree(2000);
        let pages_before = tree.node_count();
        let entries_before = tree.leaf_entry_count();
        let mut est = ThresholdEstimator::new(Some(2000));
        let mut io = IoStats::default();
        let out = condense(tree, 64, &mut est, None, &mut io);
        assert!(out.leaf_entry_count() <= 64);
        assert!(
            out.node_count() <= pages_before,
            "condense grew the tree: {} -> {} pages",
            pages_before,
            out.node_count()
        );
        assert!(out.leaf_entry_count() < entries_before);
        out.check_invariants().unwrap();
    }

    #[test]
    fn condense_conserves_total_cf_exactly_in_n() {
        // Without an outlier store nothing may be dropped: N is conserved
        // to within float tolerance, and mean/SSE within relative tolerance.
        let tree = scatter_tree(1500);
        let before = tree.total_cf().clone();
        let mut est = ThresholdEstimator::new(Some(1500));
        let mut io = IoStats::default();
        let out = condense(tree, 50, &mut est, None, &mut io);
        let after = out.total_cf();
        assert!((before.n() - after.n()).abs() < 1e-9);
        for (x, y) in before.mean().iter().zip(after.mean()) {
            assert!((x - y).abs() <= 1e-6 * (1.0 + x.abs()), "{x} vs {y}");
        }
        assert!((before.sse() - after.sse()).abs() <= 1e-6 * (1.0 + before.sse().abs()));
    }

    #[test]
    fn condense_output_passes_full_audit() {
        let tree = scatter_tree(1200);
        let mut est = ThresholdEstimator::new(Some(1200));
        let mut io = IoStats::default();
        let out = condense(tree, 100, &mut est, None, &mut io);
        let report = crate::audit::audit(&out).unwrap();
        assert_eq!(report.leaf_entries, out.leaf_entry_count());
        assert!(report.root_drift.max() <= 1e-6);
    }

    #[test]
    fn condense_with_store_conserves_n_across_tree_plus_disk() {
        use crate::outlier::{OutlierConfig, OutlierStore};
        let mut t = CfTree::new(TreeParams {
            threshold: 0.5,
            ..TreeParams::for_dim(2)
        });
        for _ in 0..400 {
            t.insert_point(&Point::xy(0.0, 0.0));
        }
        for i in 0..50 {
            let i = f64::from(i);
            t.insert_point(&Point::xy(
                200.0 + (i * 37.0).rem_euclid(500.0),
                300.0 + (i * 53.0).rem_euclid(500.0),
            ));
        }
        let mut est = ThresholdEstimator::new(Some(450));
        let mut io = IoStats::default();
        // Fold-back-at-end configuration: condense finalizes the store by
        // re-inserting every still-parked entry, so the output tree must
        // hold every point — conservation is exact, not approximate.
        let cfg = OutlierConfig {
            discard_at_end: false,
            ..OutlierConfig::default()
        };
        let mut store = OutlierStore::new(64 * 1024, 32, cfg);
        let out = condense(t, 10, &mut est, Some(&mut store), &mut io);
        assert_eq!(io.outliers_discarded, 0);
        assert!(store.is_empty());
        assert!(
            (out.total_cf().n() - 450.0).abs() < 1e-6,
            "tree holds {} of 450 points",
            out.total_cf().n()
        );
        out.check_invariants().unwrap();
    }
}
