//! Anytime/streaming clustering on top of Phase 1.
//!
//! BIRCH is "incremental … the clustering decisions are made without
//! scanning all data points" (§1), which makes it a natural stream
//! clusterer: keep feeding points, and at any moment run the global phase
//! over the current CF-tree's leaf entries to get a clustering of
//! everything seen so far — without storing a single raw point.
//!
//! [`StreamingBirch`] packages that: [`push`](StreamingBirch::push) points
//! forever, [`snapshot`](StreamingBirch::snapshot) whenever a clustering
//! is wanted, [`finish`](StreamingBirch::finish) to run the end-of-scan
//! outlier disposition and take the final model. (Phase 4 needs the raw
//! points, so streaming models carry no per-point labels — use
//! [`crate::BirchModel::predict`]-style nearest-centroid assignment on the
//! snapshot instead.)

use crate::birch::ClusterSummary;
use crate::cf::Cf;
use crate::config::BirchConfig;
use crate::obs::{EventSink, MetricsRecorder, NoopSink};
use crate::phase1::{Phase1Builder, Phase1Output};
use crate::phase3;
use crate::point::Point;

/// An incrementally fed BIRCH clusterer.
#[derive(Debug)]
pub struct StreamingBirch<S: EventSink = NoopSink> {
    builder: Phase1Builder<S>,
    config: BirchConfig,
    dim: usize,
}

impl StreamingBirch {
    /// Creates a streaming clusterer for `dim`-dimensional points.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `dim == 0`.
    #[must_use]
    pub fn new(config: BirchConfig, dim: usize) -> Self {
        Self::with_sink(config, dim, NoopSink)
    }
}

impl<S: EventSink> StreamingBirch<S> {
    /// Creates a streaming clusterer whose telemetry [`Event`]s stream
    /// into `sink` as points arrive — rebuilds, threshold raises, outlier
    /// traffic, all live. The internal [`MetricsRecorder`] aggregates
    /// either way; see [`StreamingBirch::metrics`].
    ///
    /// [`Event`]: crate::obs::Event
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `dim == 0`.
    #[must_use]
    pub fn with_sink(config: BirchConfig, dim: usize, sink: S) -> Self {
        let builder = Phase1Builder::with_sink(&config, dim, sink);
        Self {
            builder,
            config,
            dim,
        }
    }

    /// Live aggregated telemetry of the stream so far (counters, depth
    /// histogram, threshold trajectory) — handy for periodic one-line
    /// status reports via [`MetricsRecorder::one_line`].
    #[must_use]
    pub fn metrics(&self) -> &MetricsRecorder {
        self.builder.metrics()
    }

    /// Dimensionality of the stream.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Points pushed so far.
    #[must_use]
    pub fn points_seen(&self) -> u64 {
        self.builder.points_scanned()
    }

    /// Current number of leaf entries (the summary's resolution).
    #[must_use]
    pub fn summary_size(&self) -> usize {
        self.builder.tree().leaf_entry_count()
    }

    /// Pushes one point.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn push(&mut self, p: &Point) {
        self.builder.feed_point(p);
    }

    /// Pushes one weighted point (`w > 0`).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or non-positive weight.
    pub fn push_weighted(&mut self, p: &Point, w: f64) {
        self.builder.feed_weighted_point(p, w);
    }

    /// Pushes a pre-aggregated subcluster (e.g. another tree's leaf
    /// entries — the CF Additivity Theorem makes this exact).
    ///
    /// # Panics
    ///
    /// Panics if `cf` is empty or of the wrong dimension.
    pub fn push_cf(&mut self, cf: Cf) {
        self.builder.feed(cf);
    }

    /// Merges another stream into this one — the streaming face of the
    /// sharded parallel build (see [`crate::parallel`]): feed `n` disjoint
    /// sub-streams on `n` threads, then fold them into one. Exact in the
    /// totals by the CF Additivity Theorem: the other stream's leaf
    /// entries are inserted as subclusters, and its still-parked potential
    /// outliers get re-judged against the combined tree instead of being
    /// discarded unilaterally.
    ///
    /// The receiving tree's threshold is raised to the donor's first (one
    /// rebuild) so donor entries cannot violate the leaf threshold
    /// invariant. Like [`push_cf`](StreamingBirch::push_cf),
    /// [`points_seen`](StreamingBirch::points_seen) counts each absorbed
    /// subcluster as one feed, not one per original point.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn absorb<S2: EventSink>(&mut self, other: StreamingBirch<S2>) {
        assert_eq!(
            self.dim, other.dim,
            "cannot absorb a {}-d stream into a {}-d stream",
            other.dim, self.dim
        );
        let (out, carried) = other.builder.finish_keeping_outliers();
        self.builder.ensure_threshold(out.tree.threshold());
        for cf in out.tree.into_leaf_entries() {
            self.builder.feed(cf);
        }
        for cf in carried {
            self.builder.feed_outlier_candidate(cf);
        }
    }

    /// Clusters everything seen so far (Phase 3 over the live tree's leaf
    /// entries plus any delay-split-parked points) without disturbing the
    /// stream. Returns an empty vector before the first point. Takes
    /// `&mut self` because scanning the parked points counts disk reads.
    #[must_use]
    pub fn snapshot(&mut self) -> Vec<ClusterSummary> {
        let mut entries: Vec<Cf> = self.builder.tree().leaf_entries().collect();
        entries.extend(self.builder.parked_cfs());
        if entries.is_empty() {
            return Vec::new();
        }
        let p3 = phase3::global_cluster_with(
            entries,
            self.config.metric,
            self.config.clusters,
            self.config.global_method,
        );
        p3.clusters
            .into_iter()
            .map(ClusterSummary::from_cf)
            .collect()
    }

    /// Ends the stream: runs the end-of-scan outlier disposition and
    /// returns the final clusters plus the raw Phase-1 output (tree,
    /// counters, threshold history).
    #[must_use]
    pub fn finish(self) -> (Vec<ClusterSummary>, Phase1Output) {
        let out = self.builder.finish();
        let entries: Vec<Cf> = out.tree.leaf_entries().collect();
        let clusters = if entries.is_empty() {
            Vec::new()
        } else {
            phase3::global_cluster_with(
                entries,
                self.config.metric,
                self.config.clusters,
                self.config.global_method,
            )
            .clusters
            .into_iter()
            .map(ClusterSummary::from_cf)
            .collect()
        };
        (clusters, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_source_point(t: usize) -> Point {
        let s = (t % 3) as f64 * 30.0;
        Point::xy(s + (t as f64 * 0.61).sin(), s + (t as f64 * 0.37).cos())
    }

    #[test]
    fn snapshots_track_the_stream() {
        let mut s = StreamingBirch::new(BirchConfig::with_clusters(3).memory(8 * 1024), 2);
        assert!(s.snapshot().is_empty());
        for t in 0..600 {
            s.push(&three_source_point(t));
        }
        let snap = s.snapshot();
        assert_eq!(snap.len(), 3);
        let total: f64 = snap.iter().map(ClusterSummary::weight).sum();
        assert_eq!(total, 600.0);
        // Stream continues after a snapshot.
        for t in 600..1200 {
            s.push(&three_source_point(t));
        }
        assert_eq!(s.points_seen(), 1200);
        let snap = s.snapshot();
        let total: f64 = snap.iter().map(ClusterSummary::weight).sum();
        assert_eq!(total, 1200.0);
    }

    #[test]
    fn memory_budget_enforced_across_stream() {
        let mut s = StreamingBirch::new(BirchConfig::with_clusters(3).memory(8 * 1024), 2);
        for t in 0..20_000 {
            s.push(&three_source_point(t * 7));
        }
        assert!(s.summary_size() > 0);
        let (clusters, out) = s.finish();
        assert_eq!(clusters.len(), 3);
        assert!(out.tree.node_count() <= 8);
        out.tree.check_invariants().unwrap();
    }

    #[test]
    fn weighted_and_cf_pushes() {
        let mut s = StreamingBirch::new(BirchConfig::with_clusters(1), 2);
        s.push_weighted(&Point::xy(1.0, 1.0), 5.0);
        s.push_cf(Cf::from_points(&[Point::xy(2.0, 2.0), Point::xy(3.0, 3.0)]));
        let snap = s.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].weight(), 7.0);
    }

    #[test]
    fn absorb_merges_substreams_exactly() {
        // Two disjoint sub-streams absorbed into one must summarize the
        // same 1200 points as a single stream (CF additivity).
        let cfg = BirchConfig::with_clusters(3).outliers(false);
        let mut a = StreamingBirch::new(cfg.clone(), 2);
        let mut b = StreamingBirch::new(cfg.clone(), 2);
        for t in 0..600 {
            a.push(&three_source_point(t));
        }
        for t in 600..1200 {
            b.push(&three_source_point(t));
        }
        a.absorb(b);
        let snap = a.snapshot();
        assert_eq!(snap.len(), 3);
        let total: f64 = snap.iter().map(ClusterSummary::weight).sum();
        assert!((total - 1200.0).abs() < 1e-9);
        let (_, out) = a.finish();
        out.tree.check_invariants().unwrap();
    }

    #[test]
    fn absorb_raises_threshold_to_donor() {
        // Donor under memory pressure ends with a high threshold; the
        // receiver must adopt at least that before taking its entries.
        let mut a = StreamingBirch::new(BirchConfig::with_clusters(3), 2);
        let mut b = StreamingBirch::new(BirchConfig::with_clusters(3).memory(8 * 1024), 2);
        a.push(&three_source_point(0));
        for t in 0..20_000 {
            b.push(&three_source_point(t * 7));
        }
        let donor_t = b.builder.tree().threshold();
        assert!(donor_t > 0.0, "donor never rebuilt; test is vacuous");
        a.absorb(b);
        let (_, out) = a.finish();
        assert!(
            out.tree.threshold() >= donor_t,
            "receiver T {} < donor T {donor_t}",
            out.tree.threshold()
        );
        out.tree.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "cannot absorb")]
    fn absorb_dimension_mismatch_panics() {
        let mut a = StreamingBirch::new(BirchConfig::with_clusters(1), 2);
        let b = StreamingBirch::new(BirchConfig::with_clusters(1), 3);
        a.absorb(b);
    }

    #[test]
    fn finish_on_empty_stream() {
        let s = StreamingBirch::new(BirchConfig::with_clusters(2), 2);
        let (clusters, out) = s.finish();
        assert!(clusters.is_empty());
        assert_eq!(out.points_scanned, 0);
    }
}
