//! Outlier handling (§5.1.3), and how the delay-split option (§5.1.4)
//! uses the same kind of disk.
//!
//! BIRCH treats low-density leaf entries as *potential outliers*: during a
//! rebuild, a leaf entry holding "far fewer data points than the average"
//! is written to the outlier disk instead of the new tree. Periodically —
//! when the disk fills up, and once the full dataset has been scanned —
//! the entries on disk are re-scanned to see whether the (now larger)
//! threshold lets them be **re-absorbed** into the tree *without growing
//! it*. Entries that survive to the end of the scan are genuine outliers.
//!
//! The delay-split option uses leftover disk space differently: when memory
//! runs out, points that would force a node split are parked on disk so the
//! current threshold can squeeze in the points that still fit, postponing
//! the (expensive) rebuild. Phase 1 holds that disk, a
//! [`SpillLog`], directly; the outlier disk is the [`SpillLog`] inside an
//! [`OutlierStore`].

use crate::cf::Cf;
use crate::obs::{Event, EventSink};
use crate::spill::SpillLog;
use crate::tree::CfTree;

/// Configuration of the outlier-handling option.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierConfig {
    /// Master switch (paper Table 2: outlier-handling on by default).
    pub enabled: bool,
    /// A leaf entry is a potential outlier when it holds fewer than
    /// `factor ×` the average number of points per leaf entry. The paper
    /// uses a quarter ("contains < 25% of the average").
    pub factor: f64,
    /// Whether entries still unabsorbed at the end of the run are removed
    /// from the result (`true`, the paper's behaviour) or folded back into
    /// the tree (`false`).
    pub discard_at_end: bool,
}

impl Default for OutlierConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            factor: 0.25,
            discard_at_end: true,
        }
    }
}

impl OutlierConfig {
    /// Disabled outlier handling (every entry goes back into the tree).
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// Whether an entry of weight `entry_n` is a potential outlier given
    /// the current mean points-per-leaf-entry.
    #[must_use]
    pub fn is_potential_outlier(&self, entry_n: f64, mean_entry_n: f64) -> bool {
        self.enabled && entry_n < self.factor * mean_entry_n
    }
}

/// Outcome of a re-absorption scan over the outlier disk.
///
/// Every drained entry lands in exactly one bucket, so the counts sum to
/// the number of entries scanned. Only `absorbed` is a true §5.1.3
/// re-absorption; `reinserted` and `folded_back` grow the tree like any
/// other insert and are reported separately so telemetry doesn't
/// overstate how much the raised threshold actually recovered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReabsorbReport {
    /// Entries merged into an existing leaf entry without growing the
    /// tree (the absorption test of §5.1.3 passed).
    pub absorbed: u64,
    /// Entries that no longer look like outliers under the current mean
    /// points-per-entry and were re-inserted as regular data.
    pub reinserted: u64,
    /// Entries folded into the tree because the disk refused the
    /// write-back (injected fault or force-full degradation).
    pub folded_back: u64,
    /// Entries written back to disk (still potential outliers).
    pub retained: u64,
}

/// The potential-outlier disk of §5.1.3: a [`SpillLog`] plus the rule
/// that decides what a re-absorption scan does with each entry.
#[derive(Debug)]
pub struct OutlierStore {
    log: SpillLog,
    config: OutlierConfig,
}

impl OutlierStore {
    /// A store parking its potential outliers on `log`.
    #[must_use]
    pub fn new(log: SpillLog, config: OutlierConfig) -> Self {
        Self { log, config }
    }

    /// The store's configuration.
    #[must_use]
    pub fn config(&self) -> &OutlierConfig {
        &self.config
    }

    /// The disk the potential outliers are parked on.
    #[must_use]
    pub fn log(&self) -> &SpillLog {
        &self.log
    }

    /// The disk, for parking an entry, draining the disk, or installing a
    /// [`birch_pager::FaultPlan`] on it.
    pub fn log_mut(&mut self) -> &mut SpillLog {
        &mut self.log
    }

    /// Scans every entry on disk and tries to re-absorb it into `tree`
    /// without growing it (paper §5.1.3). Entries that fail the absorption
    /// test but no longer look like outliers under `mean_entry_n` are
    /// inserted normally; the rest go back to disk.
    ///
    /// Reports telemetry to `sink`: an [`Event::OutlierReabsorbed`] with
    /// the per-bucket counts (absorbed / reinserted / folded back), plus
    /// [`Event::SplitPerformed`] / [`Event::MergeRefinement`] for splits
    /// caused by re-inserting entries that outgrew outlierhood.
    pub fn reabsorb(
        &mut self,
        tree: &mut CfTree,
        mean_entry_n: f64,
        sink: &mut impl EventSink,
    ) -> ReabsorbReport {
        let _sp = crate::obs::span::enter("reabsorb");
        let before = tree.stats();
        let report = self.reabsorb_inner(tree, mean_entry_n);
        if sink.enabled() {
            if report.absorbed + report.reinserted + report.folded_back > 0 {
                sink.record(&Event::OutlierReabsorbed {
                    absorbed: report.absorbed,
                    reinserted: report.reinserted,
                    folded_back: report.folded_back,
                });
            }
            let after = tree.stats();
            if after.splits > before.splits {
                sink.record(&Event::SplitPerformed {
                    count: after.splits - before.splits,
                });
            }
            if after.merge_refinements > before.merge_refinements {
                sink.record(&Event::MergeRefinement {
                    count: after.merge_refinements - before.merge_refinements,
                });
            }
        }
        report
    }

    fn reabsorb_inner(&mut self, tree: &mut CfTree, mean_entry_n: f64) -> ReabsorbReport {
        let mut report = ReabsorbReport::default();
        for cf in self.log.drain() {
            if tree.try_absorb(&cf) {
                report.absorbed += 1;
            } else if !self.config.is_potential_outlier(cf.n(), mean_entry_n) {
                // Grew out of outlier-hood (e.g. it was spilled early, the
                // average moved): treat it as regular data again.
                tree.insert_cf(cf);
                report.reinserted += 1;
            } else if self.log.write(&cf).is_err() {
                // Refill refused: unreachable with drain-then-refill on
                // a healthy disk, but an injected fault or force-full
                // degradation lands here — fold into the tree rather
                // than lose data.
                tree.insert_cf(cf);
                report.folded_back += 1;
            } else {
                report.retained += 1;
            }
        }
        report
    }

    /// Final disposition at the end of the scan: either discards the
    /// remaining entries (returning how many points were dropped: their
    /// summed N, fractional for weighted input) or folds them back into the
    /// tree (returning 0), per the configuration.
    ///
    /// Reports telemetry to `sink`: an [`Event::OutlierDiscarded`] with
    /// the points dropped (when discarding), or split/refinement deltas
    /// for the fold-back inserts (when not).
    pub fn finalize(&mut self, tree: &mut CfTree, sink: &mut impl EventSink) -> f64 {
        let remaining = self.log.drain();
        if self.config.discard_at_end {
            let points: f64 = remaining.iter().map(Cf::n).sum();
            if sink.enabled() && !remaining.is_empty() {
                sink.record(&Event::OutlierDiscarded { points });
            }
            points
        } else {
            for cf in remaining {
                tree.insert_cf_observed(&cf, sink);
            }
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::NoopSink;
    use crate::point::Point;
    use crate::tree::TreeParams;

    fn store(capacity: usize, config: OutlierConfig) -> OutlierStore {
        OutlierStore::new(SpillLog::for_tests(capacity), config)
    }

    fn spill(store: &mut OutlierStore, cf: &Cf) {
        store.log_mut().write(cf).unwrap();
    }

    fn tree(threshold: f64) -> CfTree {
        CfTree::new(TreeParams {
            threshold,
            ..TreeParams::for_dim(2)
        })
    }

    #[test]
    fn outlier_rule_quarter_of_average() {
        let cfg = OutlierConfig::default();
        assert!(cfg.is_potential_outlier(1.0, 10.0));
        assert!(!cfg.is_potential_outlier(2.5, 10.0));
        assert!(!cfg.is_potential_outlier(9.0, 10.0));
        let off = OutlierConfig::disabled();
        assert!(!off.is_potential_outlier(0.1, 100.0));
    }

    #[test]
    fn spill_and_reabsorb_into_grown_threshold() {
        let mut store = store(4096, OutlierConfig::default());
        // Park an outlier near (5,5).
        spill(&mut store, &Cf::from_point(&Point::xy(5.0, 5.0)));
        // Tree with generous threshold and an entry at the origin cluster.
        let mut t = tree(20.0);
        for _ in 0..10 {
            t.insert_point(&Point::xy(0.0, 0.0));
        }
        let report = store.reabsorb(&mut t, 10.0, &mut NoopSink);
        assert_eq!(report.absorbed, 1);
        assert_eq!(report.reinserted, 0);
        assert_eq!(report.folded_back, 0);
        assert_eq!(report.retained, 0);
        assert!(store.log().is_empty());
        assert_eq!(t.total_cf().n(), 11.0);
    }

    #[test]
    fn unabsorbable_entry_retained_then_discarded() {
        let mut store = store(4096, OutlierConfig::default());
        spill(&mut store, &Cf::from_point(&Point::xy(1000.0, 1000.0)));
        let mut t = tree(0.5);
        for _ in 0..20 {
            t.insert_point(&Point::xy(0.0, 0.0));
        }
        let report = store.reabsorb(&mut t, 20.0, &mut NoopSink);
        assert_eq!(report.absorbed, 0);
        assert_eq!(report.reinserted, 0);
        assert_eq!(report.folded_back, 0);
        assert_eq!(report.retained, 1);
        assert_eq!(store.log().len(), 1);
        let discarded = store.finalize(&mut t, &mut NoopSink);
        assert_eq!(discarded, 1.0);
        assert_eq!(t.total_cf().n(), 20.0);
    }

    #[test]
    fn finalize_folds_back_when_discard_disabled() {
        let cfg = OutlierConfig {
            discard_at_end: false,
            ..OutlierConfig::default()
        };
        let mut store = store(4096, cfg);
        spill(&mut store, &Cf::from_point(&Point::xy(9.0, 9.0)));
        let mut t = tree(0.5);
        t.insert_point(&Point::xy(0.0, 0.0));
        let discarded = store.finalize(&mut t, &mut NoopSink);
        assert_eq!(discarded, 0.0);
        assert_eq!(t.total_cf().n(), 2.0);
        assert_eq!(t.leaf_entry_count(), 2);
    }

    #[test]
    fn entry_that_outgrew_outlierhood_reinserted() {
        let mut store = store(4096, OutlierConfig::default());
        // A 5-point subcluster: with mean_entry_n = 10 it *is* an outlier
        // (5 < 2.5? no — 5 >= 2.5, so it is NOT) — craft accordingly.
        let pts: Vec<Point> = (0..5).map(|_| Point::xy(50.0, 50.0)).collect();
        spill(&mut store, &Cf::from_points(&pts));
        let mut t = tree(0.1); // too tight to absorb at (50,50)
        t.insert_point(&Point::xy(0.0, 0.0));
        // mean 10 -> 5 >= 0.25*10: no longer an outlier, so it is inserted
        // as a fresh entry rather than retained — counted as a
        // re-insertion, not an absorption (the tree grew).
        let report = store.reabsorb(&mut t, 10.0, &mut NoopSink);
        assert_eq!(report.absorbed, 0);
        assert_eq!(report.reinserted, 1);
        assert_eq!(report.folded_back, 0);
        assert_eq!(t.leaf_entry_count(), 2);
    }

    #[test]
    fn refused_write_back_counted_as_fold_back() {
        let mut store = store(4096, OutlierConfig::default());
        spill(&mut store, &Cf::from_point(&Point::xy(1000.0, 1000.0)));
        // The entry is unabsorbable and still an outlier, so the scan
        // tries to write it back — attempt #2 on this disk, which the
        // plan fails, forcing the fold-into-tree degradation path.
        store
            .log_mut()
            .set_fault_plan(birch_pager::FaultPlan::new().fail_write(2));
        let mut t = tree(0.5);
        for _ in 0..20 {
            t.insert_point(&Point::xy(0.0, 0.0));
        }
        let report = store.reabsorb(&mut t, 20.0, &mut NoopSink);
        assert_eq!(report.absorbed, 0);
        assert_eq!(report.reinserted, 0);
        assert_eq!(report.folded_back, 1);
        assert_eq!(report.retained, 0);
        assert!(store.log().is_empty());
        // No data lost: the entry lives in the tree now.
        assert_eq!(t.total_cf().n(), 21.0);
    }

    #[test]
    fn full_disk_refuses_entry() {
        let mut store = store(32, OutlierConfig::default());
        spill(&mut store, &Cf::from_point(&Point::xy(0.0, 0.0)));
        let err = store
            .log_mut()
            .write(&Cf::from_point(&Point::xy(1.0, 1.0)))
            .unwrap_err();
        assert!(!err.injected);
        assert_eq!(store.log().len(), 1);
    }
}
