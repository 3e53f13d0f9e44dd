//! The end-to-end BIRCH pipeline (paper Fig. 1).
//!
//! [`Birch::fit`] runs:
//!
//! 1. **Phase 1** — single scan, build the memory-bounded CF-tree;
//! 2. **Phase 2** — (optional) condense the tree for the global algorithm;
//! 3. **Phase 3** — agglomerative clustering of the leaf entries;
//! 4. **Phase 4** — (optional) refinement passes that relabel the original
//!    points against the Phase-3 centroids.
//!
//! The result is a [`BirchModel`]: cluster summaries (exact CFs, hence
//! exact centroids/radii/diameters), optional per-point labels, and the
//! run's resource statistics.

use crate::cf::Cf;
use crate::config::BirchConfig;
use crate::obs::mem::MemoryGauge;
use crate::obs::span::{self, SpanReport};
use crate::obs::{
    json_f64, shards_json, Event, EventSink, MetricsRecorder, MetricsReport, NoopSink, Phase,
    ShardReport, Tee, TraceStats,
};
use crate::parallel;
use crate::phase1::{self, Phase1Output};
use crate::phase2;
use crate::phase3;
use crate::phase4::{self, Phase4Config};
use crate::point::Point;
use crate::tree::TreeHealth;
use std::fmt;
use std::path::Path;
use std::time::{Duration, Instant};

/// Version stamp of the metrics JSON emitted by [`RunStats::to_json`].
/// Bump here (and only here) when the schema changes; tests pin this
/// constant, not a literal. See DESIGN.md §10 for the migration tables
/// from v3 → v4 to v8 → v9. v9 prints every run counter once, inside
/// `counters`, with the keys of its table ([`crate::obs::counters`]).
pub const METRICS_SCHEMA_VERSION: u32 = 9;

/// Errors surfaced by the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum BirchError {
    /// `fit` was called with no points.
    EmptyInput,
    /// A point's dimensionality disagrees with the first point's.
    DimensionMismatch {
        /// Dimensionality of the first point.
        expected: usize,
        /// Dimensionality of the offending point.
        got: usize,
        /// Index of the offending point.
        index: usize,
    },
    /// A point's weight is zero, negative, NaN or infinite.
    InvalidWeight {
        /// Index of the offending point.
        index: usize,
        /// Its weight.
        weight: f64,
    },
    /// Writing or reading a CF-tree snapshot failed.
    Snapshot {
        /// The snapshot file path.
        path: String,
        /// Rendered underlying error (I/O, checksum, format, …).
        detail: String,
    },
}

impl fmt::Display for BirchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BirchError::EmptyInput => write!(f, "cannot cluster an empty dataset"),
            BirchError::DimensionMismatch {
                expected,
                got,
                index,
            } => write!(f, "point {index} has dimension {got}, expected {expected}"),
            BirchError::InvalidWeight { index, weight } => {
                write!(
                    f,
                    "point {index} has weight {weight}, expected a finite positive weight"
                )
            }
            BirchError::Snapshot { path, detail } => {
                write!(f, "snapshot {path}: {detail}")
            }
        }
    }
}

impl std::error::Error for BirchError {}

/// One cluster of the final model.
#[derive(Debug, Clone)]
pub struct ClusterSummary {
    /// Exact sufficient statistics of the cluster.
    pub cf: Cf,
    /// Cluster centroid.
    pub centroid: Point,
    /// Cluster radius `R` (eq. 2).
    pub radius: f64,
    /// Cluster diameter `D` (eq. 3).
    pub diameter: f64,
}

impl ClusterSummary {
    pub(crate) fn from_cf(cf: Cf) -> Self {
        let centroid = cf.centroid();
        let radius = cf.radius();
        let diameter = cf.diameter();
        Self {
            cf,
            centroid,
            radius,
            diameter,
        }
    }

    /// Weighted point count of the cluster.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.cf.n()
    }
}

/// Wall-clock and resource statistics of one `fit`.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Worker threads used by Phase 1 and by Phase 4's seed search (1 =
    /// the serial scan and pass).
    pub threads: usize,
    /// Phase-1 duration.
    pub phase1_time: Duration,
    /// Merge-stage duration within Phase 1 (zero for the serial scan):
    /// the time spent folding shard leaf entries into the final tree.
    pub merge_time: Duration,
    /// Phase-2 duration (zero when disabled or not needed).
    pub phase2_time: Duration,
    /// Phase-3 duration.
    pub phase3_time: Duration,
    /// Phase-4 duration (zero when disabled).
    pub phase4_time: Duration,
    /// Final tree threshold entering Phase 3.
    pub final_threshold: f64,
    /// Leaf entries after Phase 1.
    pub leaf_entries_phase1: usize,
    /// Leaf entries handed to Phase 3 (after Phase 2, if enabled).
    pub leaf_entries_phase3: usize,
    /// Input records scanned.
    pub points_scanned: u64,
    /// Aggregated run telemetry collected across all phases: the run
    /// counters (`metrics.rebuilds`, `metrics.peak_pages`, …), the
    /// insertion-depth histogram and the threshold-vs-points trajectory.
    pub metrics: MetricsReport,
    /// Per-shard Phase-1 telemetry (empty for the serial scan). The spread
    /// of `wall` across shards is the skew that bounds parallel speedup.
    pub shards: Vec<ShardReport>,
    /// Byte accounting against budget M (live/high-water per component,
    /// headroom, overrun). See [`crate::obs::mem`].
    pub memory: MemoryGauge,
    /// Structural health of the tree entering Phase 3 (per-level
    /// occupancy, utilization, split/merge/rebuild rates).
    pub tree_health: TreeHealth,
    /// Ring statistics of the trace attached to the run (`None` when no
    /// trace sink was attached — the CLI fills this for `--trace`).
    pub trace: Option<TraceStats>,
    /// Hierarchical span profile of the run (`None` unless span profiling
    /// was enabled on the calling thread — see [`crate::obs::span`]).
    pub spans: Option<SpanReport>,
}

impl RunStats {
    /// Total time across all phases.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.phase1_time + self.phase2_time + self.phase3_time + self.phase4_time
    }

    /// Time for phases 1–3 only (the paper's headline configuration).
    #[must_use]
    pub fn time_phases_1to3(&self) -> Duration {
        self.phase1_time + self.phase2_time + self.phase3_time
    }

    /// Serializes the run statistics as one line of stable JSON (no serde —
    /// hand-rolled; see the README's "Observability" section for the
    /// schema). The run counters appear once each, in `counters`, read
    /// from the same store as the CLI's summary line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let m = &self.metrics;
        format!(
            "{{\"schema_version\":{},\
             \"points_scanned\":{},\
             \"threads\":{},\
             \"phase_times\":{{\"phase1_s\":{},\"merge_s\":{},\"phase2_s\":{},\
             \"phase3_s\":{},\"phase4_s\":{},\"total_s\":{}}},\
             \"counters\":{},\
             \"threshold_trajectory\":{},\
             \"final_threshold\":{},\
             \"leaf_entries_phase1\":{},\
             \"leaf_entries_phase3\":{},\
             \"memory\":{},\
             \"tree_health\":{},\
             \"trace\":{},\
             \"spans\":{},\
             \"shards\":{},\
             \"insert_depth_histogram\":{}}}",
            METRICS_SCHEMA_VERSION,
            self.points_scanned,
            self.threads.max(1),
            json_f64(self.phase1_time.as_secs_f64()),
            json_f64(self.merge_time.as_secs_f64()),
            json_f64(self.phase2_time.as_secs_f64()),
            json_f64(self.phase3_time.as_secs_f64()),
            json_f64(self.phase4_time.as_secs_f64()),
            json_f64(self.total_time().as_secs_f64()),
            m.counters.to_json(),
            m.trajectory_json(),
            json_f64(self.final_threshold),
            self.leaf_entries_phase1,
            self.leaf_entries_phase3,
            self.memory.to_json(),
            self.tree_health.to_json(),
            self.trace
                .as_ref()
                .map_or_else(|| "null".to_string(), TraceStats::to_json),
            self.spans
                .as_ref()
                .map_or_else(|| "null".to_string(), SpanReport::to_json),
            shards_json(&self.shards),
            m.histogram_json(),
        )
    }
}

/// A fitted BIRCH clustering.
#[derive(Debug, Clone)]
pub struct BirchModel {
    clusters: Vec<ClusterSummary>,
    labels: Option<Vec<Option<usize>>>,
    stats: RunStats,
}

impl BirchModel {
    /// The final clusters.
    #[must_use]
    pub fn clusters(&self) -> &[ClusterSummary] {
        &self.clusters
    }

    /// Per-point labels from Phase 4 (`None` for the whole thing when
    /// Phase 4 was disabled; inner `None` = point discarded as an outlier).
    #[must_use]
    pub fn labels(&self) -> Option<&[Option<usize>]> {
        self.labels.as_deref()
    }

    /// Run statistics.
    #[must_use]
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Mutable run statistics, for callers (like the CLI) that attach
    /// observability extras — trace-ring stats, say — after `fit`.
    pub fn stats_mut(&mut self) -> &mut RunStats {
        &mut self.stats
    }

    /// Assigns an arbitrary point to its nearest cluster centroid
    /// (Euclidean), like Phase 4 does.
    ///
    /// # Panics
    ///
    /// Panics if `p`'s dimension disagrees with the model's.
    #[must_use]
    pub fn predict(&self, p: &Point) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, c) in self.clusters.iter().enumerate() {
            let d = p.sq_dist(&c.centroid);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }
}

/// Validates a point slice: non-empty, uniform dimensionality. Returns `d`.
fn validate_points(points: &[Point]) -> Result<usize, BirchError> {
    if points.is_empty() {
        return Err(BirchError::EmptyInput);
    }
    let dim = points[0].dim();
    for (index, p) in points.iter().enumerate() {
        if p.dim() != dim {
            return Err(BirchError::DimensionMismatch {
                expected: dim,
                got: p.dim(),
                index,
            });
        }
    }
    Ok(dim)
}

/// Validates per-point weights: each finite and positive.
fn validate_weights(weights: &[f64]) -> Result<(), BirchError> {
    match weights.iter().position(|&w| !(w.is_finite() && w > 0.0)) {
        Some(index) => Err(BirchError::InvalidWeight {
            index,
            weight: weights[index],
        }),
        None => Ok(()),
    }
}

/// The BIRCH clusterer: configuration plus `fit` entry points.
#[derive(Debug, Clone)]
pub struct Birch {
    config: BirchConfig,
}

impl Birch {
    /// Creates a clusterer with the given configuration.
    #[must_use]
    pub fn new(config: BirchConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &BirchConfig {
        &self.config
    }

    /// Clusters `points`. Runs Phase 1 serially when
    /// [`BirchConfig::threads`] is 1 (the default), or as a sharded
    /// parallel build (see [`crate::parallel`]) when it is larger.
    ///
    /// # Errors
    ///
    /// [`BirchError::EmptyInput`] for an empty slice;
    /// [`BirchError::DimensionMismatch`] if points disagree on `d`.
    pub fn fit(&self, points: &[Point]) -> Result<BirchModel, BirchError> {
        self.fit_impl(points, None, self.config.threads, &mut NoopSink, None)
    }

    /// Like [`Birch::fit`], but additionally writes a versioned,
    /// checksummed snapshot of the CF-tree to `snapshot` at the Phase-3
    /// boundary (after Phase 2's condensation, before the tree is
    /// consumed). A later [`Birch::fit_from_snapshot`] with the same
    /// configuration resumes from that file and produces identical
    /// Phase-3/4 output.
    ///
    /// # Errors
    ///
    /// Same as [`Birch::fit`], plus [`BirchError::Snapshot`] if the
    /// checkpoint cannot be written.
    pub fn fit_with_checkpoint(
        &self,
        points: &[Point],
        snapshot: &Path,
    ) -> Result<BirchModel, BirchError> {
        self.fit_impl(
            points,
            None,
            self.config.threads,
            &mut NoopSink,
            Some(snapshot),
        )
    }

    /// Resumes a run from a CF-tree snapshot written by
    /// [`Birch::fit_with_checkpoint`] (or [`CfTree::checkpoint`]): Phase 1
    /// is skipped entirely and the global phases run on the restored tree.
    /// Pass the original points for Phase 4's labeling scan; with an empty
    /// slice, refinement is skipped and the model carries no labels.
    ///
    /// [`CfTree::checkpoint`]: crate::tree::CfTree::checkpoint
    ///
    /// # Errors
    ///
    /// [`BirchError::Snapshot`] if the file is missing, corrupt, or from
    /// an incompatible build; [`BirchError::DimensionMismatch`] if
    /// `points` disagree with the tree's dimensionality.
    pub fn fit_from_snapshot(
        &self,
        snapshot: &Path,
        points: &[Point],
    ) -> Result<BirchModel, BirchError> {
        let tree = crate::tree::CfTree::reopen(snapshot).map_err(|e| BirchError::Snapshot {
            path: snapshot.display().to_string(),
            detail: e.to_string(),
        })?;
        self.fit_from_tree(tree, points)
    }

    /// Runs Phases 2–4 on an already-built CF-tree (restored from a
    /// snapshot, or handed over from an external Phase-1 scheme). See
    /// [`Birch::fit_from_snapshot`] for the points/labeling contract.
    ///
    /// # Errors
    ///
    /// [`BirchError::DimensionMismatch`] if `points` disagree with the
    /// tree's dimensionality; [`BirchError::EmptyInput`] if the tree has
    /// no leaf entries.
    pub fn fit_from_tree(
        &self,
        tree: crate::tree::CfTree,
        points: &[Point],
    ) -> Result<BirchModel, BirchError> {
        if let Some(p) = points.iter().position(|p| p.dim() != tree.dim()) {
            return Err(BirchError::DimensionMismatch {
                expected: tree.dim(),
                got: points[p].dim(),
                index: p,
            });
        }
        let mut config = self.effective_config(points.len().max(1));
        if points.is_empty() {
            // No raw data to rescan: Phase 4 cannot run.
            config.phase4_passes = 0;
        }
        let stats = RunStats {
            points_scanned: points.len() as u64,
            threads: 1,
            leaf_entries_phase1: tree.leaf_entry_count(),
            ..RunStats::default()
        };
        let mut estimator = crate::threshold::ThresholdEstimator::new(config.total_points_hint);
        self.finish_pipeline(
            points,
            None,
            tree,
            &mut estimator,
            config,
            stats,
            MetricsRecorder::new(),
            &mut NoopSink,
            None,
        )
    }

    /// Like [`Birch::fit`], but streaming every telemetry [`Event`] into
    /// `sink` as the run proceeds (phase boundaries, rebuilds, threshold
    /// raises, splits, outlier traffic, …). The aggregated
    /// [`RunStats::metrics`] report is populated either way; a sink is only
    /// needed for *live* or *verbatim* event access (e.g. a [`TraceLog`]).
    ///
    /// [`TraceLog`]: crate::obs::TraceLog
    ///
    /// # Errors
    ///
    /// Same as [`Birch::fit`].
    pub fn fit_with_sink<S: EventSink>(
        &self,
        points: &[Point],
        sink: &mut S,
    ) -> Result<BirchModel, BirchError> {
        self.fit_impl(points, None, self.config.threads, sink, None)
    }

    /// Clusters weighted points: `(point, weight)` with `weight > 0`.
    /// Weights flow through every phase (tree building, global clustering,
    /// refinement) — this is how the paper's image application (§6.8)
    /// weights its bands.
    ///
    /// # Errors
    ///
    /// Same as [`Birch::fit`], plus [`BirchError::InvalidWeight`] for the
    /// first weight that is zero, negative, NaN or infinite.
    pub fn fit_weighted(&self, points: &[(Point, f64)]) -> Result<BirchModel, BirchError> {
        // Split into parallel arrays once; phases borrow both.
        let pts: Vec<Point> = points.iter().map(|(p, _)| p.clone()).collect();
        let weights: Vec<f64> = points.iter().map(|&(_, w)| w).collect();
        self.fit_impl(
            &pts,
            Some(&weights),
            self.config.threads,
            &mut NoopSink,
            None,
        )
    }

    /// Like [`Birch::fit`] but with an explicit thread count, overriding
    /// [`BirchConfig::threads`] — the paper's §7 "opportunities for
    /// parallelism". In Phase 1 the data is split into contiguous chunks,
    /// each thread builds a CF-tree under the full budget M, and the
    /// per-thread leaf entries are merged into one final tree (exact in the
    /// totals, by the CF Additivity Theorem). Phase 4 splits each pass's
    /// nearest-seed search across the same number of threads, with the same
    /// output bits as one thread ([`phase4::refine_parallel`]). See
    /// [`crate::parallel`] for the Phase-1 architecture.
    ///
    /// With `threads == 1` this is exactly the serial single-scan fit.
    ///
    /// # Errors
    ///
    /// Same as [`Birch::fit`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn fit_parallel(&self, points: &[Point], threads: usize) -> Result<BirchModel, BirchError> {
        assert!(threads >= 1, "need at least one thread");
        self.fit_impl(points, None, threads, &mut NoopSink, None)
    }

    fn fit_impl<S: EventSink>(
        &self,
        points: &[Point],
        weights: Option<&[f64]>,
        threads: usize,
        sink: &mut S,
        checkpoint: Option<&Path>,
    ) -> Result<BirchModel, BirchError> {
        let dim = validate_points(points)?;
        if let Some(w) = weights {
            validate_weights(w)?;
        }
        let threads = threads.min(points.len()).max(1);

        let mut stats = RunStats {
            points_scanned: points.len() as u64,
            threads,
            ..RunStats::default()
        };
        let config = self.effective_config(points.len());

        // ---- Phase 1: build the CF-tree (serial scan or sharded). ----
        let t0 = Instant::now();
        let _sp = span::enter("phase1");
        // Phase 1's report seeds the run's recorder, which phases 2–4
        // keep recording into (the sink saw Phase 1 live).
        let (tree, mut estimator, metrics) = if threads > 1 {
            let out = parallel::run_with_sink(&config, dim, points, weights, threads, sink);
            stats.merge_time = out.merge_wall;
            stats.shards = out.shards;
            stats.memory = out.memory;
            (out.tree, out.estimator, out.metrics)
        } else {
            let Phase1Output {
                tree,
                estimator,
                metrics,
                memory,
                ..
            } = phase1::run_points_with_sink(&config, dim, points, weights, &mut *sink);
            stats.memory = memory;
            (tree, estimator, metrics)
        };
        drop(_sp);
        stats.phase1_time = t0.elapsed();
        stats.leaf_entries_phase1 = tree.leaf_entry_count();

        self.finish_pipeline(
            points,
            weights,
            tree,
            &mut estimator,
            config,
            stats,
            MetricsRecorder::from(metrics),
            sink,
            checkpoint,
        )
    }

    /// The configuration with the dataset-size hint filled in.
    fn effective_config(&self, n: usize) -> BirchConfig {
        let mut c = self.config.clone();
        if c.total_points_hint.is_none() {
            c = c.total_points(n as u64);
        }
        c
    }

    /// Phases 2–4 (shared by the sequential and parallel fits).
    /// `recorder` arrives pre-loaded with Phase 1's report; phases 2–4
    /// record into it (and `sink`) directly, and its final report becomes
    /// [`RunStats::metrics`].
    #[allow(clippy::too_many_arguments)]
    fn finish_pipeline<S: EventSink>(
        &self,
        points: &[Point],
        weights: Option<&[f64]>,
        tree: crate::tree::CfTree,
        estimator: &mut crate::threshold::ThresholdEstimator,
        config: BirchConfig,
        mut stats: RunStats,
        mut recorder: MetricsRecorder,
        sink: &mut S,
        checkpoint: Option<&Path>,
    ) -> Result<BirchModel, BirchError> {
        // ---- Phase 2: condense (optional). ----
        let t0 = Instant::now();
        let tree = if config.phase2 && tree.leaf_entry_count() > config.phase2_max_entries {
            let _sp = span::enter("phase2");
            let counters = recorder.snapshot().counters;
            let mut tee = Tee(&mut recorder, &mut *sink);
            tee.record(&Event::PhaseStarted {
                phase: Phase::Condense,
            });
            let tree = phase2::condense_with_sink(
                tree,
                config.phase2_max_entries,
                estimator,
                None,
                &counters,
                &mut tee,
            );
            tee.record(&Event::PhaseFinished {
                phase: Phase::Condense,
                wall: t0.elapsed(),
            });
            tree
        } else {
            tree
        };
        stats.phase2_time = t0.elapsed();
        stats.final_threshold = tree.threshold();
        stats.leaf_entries_phase3 = tree.leaf_entry_count();

        // Checkpoint at the Phase-3 boundary: the tree is in its final
        // (post-condense) shape here, so a restore needs no estimator
        // state to reproduce Phases 3–4 exactly.
        if let Some(path) = checkpoint {
            let mut tree = tree;
            tree.checkpoint(path).map_err(|e| BirchError::Snapshot {
                path: path.display().to_string(),
                detail: e.to_string(),
            })?;
            return self.global_phases(points, weights, tree, config, stats, recorder, sink);
        }
        self.global_phases(points, weights, tree, config, stats, recorder, sink)
    }

    /// Phases 3–4: consume the tree's leaf entries, cluster globally,
    /// refine/label, and assemble the model.
    #[allow(clippy::too_many_arguments)]
    fn global_phases<S: EventSink>(
        &self,
        points: &[Point],
        weights: Option<&[f64]>,
        tree: crate::tree::CfTree,
        config: BirchConfig,
        mut stats: RunStats,
        mut recorder: MetricsRecorder,
        sink: &mut S,
    ) -> Result<BirchModel, BirchError> {
        // Snapshot the tree entering Phase 3: structural health plus a
        // final memory sample (Phase 2 may have condensed it).
        stats.memory.sample_tree(
            &tree,
            config.page_bytes,
            stats.memory.outlier_disk.live_bytes,
        );
        stats.tree_health = tree.health();
        {
            let m = recorder.snapshot();
            let per = |num: u64, den: u64, scale: f64| {
                if den == 0 {
                    0.0
                } else {
                    scale * num as f64 / den as f64
                }
            };
            stats.tree_health.split_rate_per_1k_inserts = per(m.splits, m.inserts, 1000.0);
            stats.tree_health.merge_rate_per_1k_inserts =
                per(m.merge_refinements, m.inserts, 1000.0);
            stats.tree_health.rebuild_rate_per_100k_points =
                per(m.rebuilds, stats.points_scanned, 100_000.0);
        }

        // ---- Phase 3: global clustering of the leaf entries. ----
        let t0 = Instant::now();
        let sp3 = span::enter("phase3");
        Tee(&mut recorder, &mut *sink).record(&Event::PhaseStarted {
            phase: Phase::Global,
        });
        let entries = tree.into_leaf_entries();
        // Outlier handling may have discarded *every* point in a pathological
        // configuration; guard so Phase 3's contract holds.
        if entries.is_empty() {
            return Err(BirchError::EmptyInput);
        }
        let p3 = phase3::global_cluster_with(
            entries,
            config.metric,
            config.clusters,
            config.global_method,
        );
        if let Some(hac) = p3.hac {
            let c = recorder.counters_mut();
            c.phase3_pairs_evaluated += hac.pairs_evaluated;
            c.phase3_pairs_pruned += hac.pairs_pruned;
        }
        stats.phase3_time = t0.elapsed();
        drop(sp3);
        Tee(&mut recorder, &mut *sink).record(&Event::PhaseFinished {
            phase: Phase::Global,
            wall: stats.phase3_time,
        });

        // ---- Phase 4: refinement + labeling (optional). ----
        let t0 = Instant::now();
        let (clusters, labels) = if config.phase4_passes > 0 {
            let _sp = span::enter("phase4");
            let mut tee = Tee(&mut recorder, &mut *sink);
            tee.record(&Event::PhaseStarted {
                phase: Phase::Refine,
            });
            let p4 = phase4::refine_parallel(
                points,
                weights,
                &p3.clusters,
                Phase4Config {
                    passes: config.phase4_passes,
                    outlier_factor: config.phase4_outlier_factor,
                },
                stats.threads.max(1),
            );
            if p4.discarded > 0 {
                // In points, as Phases 1 and 2 count theirs: the weight
                // of the rejected points.
                let points = weights.map_or(p4.discarded as f64, |w| {
                    p4.labels
                        .iter()
                        .zip(w)
                        .filter(|(l, _)| l.is_none())
                        .map(|(_, w)| w)
                        .sum()
                });
                tee.record(&Event::OutlierDiscarded { points });
            }
            tee.record(&Event::PhaseFinished {
                phase: Phase::Refine,
                wall: t0.elapsed(),
            });
            (p4.clusters, Some(p4.labels))
        } else {
            (p3.clusters, None)
        };
        stats.phase4_time = t0.elapsed();

        let clusters = clusters
            .into_iter()
            .filter(|c| !c.is_empty())
            .map(ClusterSummary::from_cf)
            .collect();

        stats.metrics = recorder.report();
        if span::enabled() {
            stats.spans = Some(span::take_report());
        }
        Ok(BirchModel {
            clusters,
            labels,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMetric;

    /// `k` well-separated grid blobs with `per` points each.
    fn grid_blobs(k: usize, per: usize) -> Vec<Point> {
        let side = (k as f64).sqrt().ceil() as usize;
        let mut out = Vec::with_capacity(k * per);
        for c in 0..k {
            let cx = (c % side) as f64 * 50.0;
            let cy = (c / side) as f64 * 50.0;
            for i in 0..per {
                let a = i as f64 * 2.399_963; // golden angle
                let r = (i as f64 / per as f64).sqrt() * 2.0;
                out.push(Point::xy(cx + r * a.cos(), cy + r * a.sin()));
            }
        }
        out
    }

    /// Deterministic shuffle so blobs are interleaved.
    fn shuffle(mut pts: Vec<Point>) -> Vec<Point> {
        let n = pts.len();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            pts.swap(i, j);
        }
        pts
    }

    #[test]
    fn recovers_four_blobs() {
        let pts = shuffle(grid_blobs(4, 500));
        let model = Birch::new(BirchConfig::with_clusters(4)).fit(&pts).unwrap();
        assert_eq!(model.clusters().len(), 4);
        // Every cluster should hold ~500 points.
        for c in model.clusters() {
            assert!(
                (c.weight() - 500.0).abs() < 50.0,
                "cluster weight {}",
                c.weight()
            );
            assert!(c.radius < 3.0, "radius {}", c.radius);
        }
        // Labels cover all points.
        let labels = model.labels().unwrap();
        assert_eq!(labels.len(), pts.len());
        assert!(labels.iter().all(Option::is_some));
    }

    #[test]
    fn predict_matches_blob_membership() {
        let pts = shuffle(grid_blobs(2, 300));
        let model = Birch::new(BirchConfig::with_clusters(2)).fit(&pts).unwrap();
        let a = model.predict(&Point::xy(0.0, 0.0));
        let b = model.predict(&Point::xy(50.0, 0.0));
        assert_ne!(a, b);
    }

    #[test]
    fn phases_1to3_only_no_labels() {
        let pts = shuffle(grid_blobs(3, 200));
        let model = Birch::new(BirchConfig::with_clusters(3).refinement_passes(0))
            .fit(&pts)
            .unwrap();
        assert!(model.labels().is_none());
        assert_eq!(model.clusters().len(), 3);
    }

    #[test]
    fn tight_memory_still_finds_clusters() {
        let pts = shuffle(grid_blobs(4, 2000));
        let model = Birch::new(
            BirchConfig::with_clusters(4)
                .memory(8 * 1024)
                .page_size(1024),
        )
        .fit(&pts)
        .unwrap();
        assert_eq!(model.clusters().len(), 4);
        assert!(model.stats().metrics.rebuilds > 0);
        // Weighted average radius stays close to the generated spread.
        for c in model.clusters() {
            assert!(c.radius < 5.0, "radius {}", c.radius);
        }
    }

    #[test]
    fn weighted_fit_equivalent_to_duplication() {
        // Points with weight 3 vs the same points repeated 3x must give the
        // same cluster CFs (Phase 1 order differs, but with ample memory
        // the end CFs should agree).
        let base = grid_blobs(2, 100);
        let weighted: Vec<(Point, f64)> = base.iter().map(|p| (p.clone(), 3.0)).collect();
        let tripled: Vec<Point> = base
            .iter()
            .flat_map(|p| std::iter::repeat_n(p.clone(), 3))
            .collect();
        let cfg = BirchConfig::with_clusters(2);
        let mw = Birch::new(cfg.clone()).fit_weighted(&weighted).unwrap();
        let md = Birch::new(cfg).fit(&tripled).unwrap();
        let mut wa: Vec<f64> = mw.clusters().iter().map(ClusterSummary::weight).collect();
        let mut da: Vec<f64> = md.clusters().iter().map(ClusterSummary::weight).collect();
        wa.sort_by(f64::total_cmp);
        da.sort_by(f64::total_cmp);
        for (x, y) in wa.iter().zip(&da) {
            assert!((x - y).abs() < 1e-6, "{wa:?} vs {da:?}");
        }
    }

    #[test]
    fn by_distance_discovers_cluster_count() {
        let pts = shuffle(grid_blobs(4, 300));
        // Blob spread ~2, separation 50: a 10.0 cut finds exactly the blobs.
        let model = Birch::new(BirchConfig::by_distance(10.0).metric(DistanceMetric::D0))
            .fit(&pts)
            .unwrap();
        assert_eq!(model.clusters().len(), 4);
    }

    #[test]
    fn empty_input_rejected() {
        let err = Birch::new(BirchConfig::with_clusters(1))
            .fit(&[])
            .unwrap_err();
        assert_eq!(err, BirchError::EmptyInput);
        assert!(err.to_string().contains("empty dataset"));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let pts = vec![Point::xy(0.0, 0.0), Point::new(vec![1.0, 2.0, 3.0])];
        let err = Birch::new(BirchConfig::with_clusters(1))
            .fit(&pts)
            .unwrap_err();
        assert_eq!(
            err,
            BirchError::DimensionMismatch {
                expected: 2,
                got: 3,
                index: 1
            }
        );
    }

    /// Fits three unit-weight points plus one with weight `w` at index 2.
    fn assert_weight_rejected(w: f64) {
        let pts: Vec<(Point, f64)> = (0..4)
            .map(|i| {
                let x = f64::from(i);
                (Point::xy(x, x), if i == 2 { w } else { 1.0 })
            })
            .collect();
        let err = Birch::new(BirchConfig::with_clusters(1))
            .fit_weighted(&pts)
            .unwrap_err();
        assert!(
            matches!(err, BirchError::InvalidWeight { index: 2, weight } if weight.to_bits() == w.to_bits()),
            "{err:?}"
        );
        assert!(err.to_string().contains("point 2 has weight"), "{err}");
    }

    #[test]
    fn zero_weight_rejected() {
        assert_weight_rejected(0.0);
    }

    #[test]
    fn negative_weight_rejected() {
        assert_weight_rejected(-1.5);
    }

    #[test]
    fn nan_weight_rejected() {
        assert_weight_rejected(f64::NAN);
    }

    #[test]
    fn infinite_weight_rejected() {
        assert_weight_rejected(f64::INFINITY);
    }

    #[test]
    fn stats_populated() {
        let pts = shuffle(grid_blobs(2, 500));
        let model = Birch::new(BirchConfig::with_clusters(2)).fit(&pts).unwrap();
        let s = model.stats();
        assert_eq!(s.points_scanned, 1000);
        assert!(s.leaf_entries_phase1 > 0);
        assert!(s.leaf_entries_phase3 > 0);
        assert!(s.total_time() >= s.time_phases_1to3());
    }

    #[test]
    fn parallel_fit_recovers_blobs() {
        let pts = shuffle(grid_blobs(4, 800));
        let model = Birch::new(BirchConfig::with_clusters(4))
            .fit_parallel(&pts, 4)
            .unwrap();
        assert_eq!(model.clusters().len(), 4);
        for c in model.clusters() {
            assert!((c.weight() - 800.0).abs() < 80.0, "weight {}", c.weight());
            assert!(c.radius < 3.0);
        }
        // Every point labeled.
        assert!(model.labels().unwrap().iter().all(Option::is_some));
    }

    #[test]
    fn parallel_one_thread_equals_sequential() {
        let pts = shuffle(grid_blobs(3, 300));
        // Pin threads=1 so the comparison holds even when BIRCH_THREADS
        // forces parallelism suite-wide (the CI matrix does).
        let cfg = BirchConfig::with_clusters(3).threads(1);
        let seq = Birch::new(cfg.clone()).fit(&pts).unwrap();
        let par = Birch::new(cfg).fit_parallel(&pts, 1).unwrap();
        let sizes = |m: &BirchModel| {
            let mut v: Vec<f64> = m.clusters().iter().map(ClusterSummary::weight).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        assert_eq!(sizes(&seq), sizes(&par));
    }

    #[test]
    fn parallel_quality_close_to_sequential() {
        let pts = shuffle(grid_blobs(9, 400));
        let cfg = BirchConfig::with_clusters(9).memory(16 * 1024);
        let seq = Birch::new(cfg.clone()).fit(&pts).unwrap();
        let par = Birch::new(cfg).fit_parallel(&pts, 3).unwrap();
        assert_eq!(par.clusters().len(), seq.clusters().len());
        let rad = |m: &BirchModel| {
            m.clusters().iter().map(|c| c.radius).sum::<f64>() / m.clusters().len() as f64
        };
        assert!(
            (rad(&par) - rad(&seq)).abs() < 0.5,
            "parallel {} vs sequential {}",
            rad(&par),
            rad(&seq)
        );
    }

    #[test]
    fn config_threads_dispatches_to_parallel() {
        let pts = shuffle(grid_blobs(4, 500));
        let model = Birch::new(BirchConfig::with_clusters(4).threads(4))
            .fit(&pts)
            .unwrap();
        assert_eq!(model.clusters().len(), 4);
        let s = model.stats();
        assert_eq!(s.threads, 4);
        assert_eq!(s.shards.len(), 4);
        let shard_points: u64 = s.shards.iter().map(|sh| sh.points).sum();
        assert_eq!(shard_points, pts.len() as u64);
    }

    #[test]
    fn stats_json_reports_threads_and_shards() {
        let pts = shuffle(grid_blobs(2, 400));
        let par = Birch::new(BirchConfig::with_clusters(2).threads(2))
            .fit(&pts)
            .unwrap();
        let json = par.stats().to_json();
        assert!(
            json.contains(&format!("\"schema_version\":{METRICS_SCHEMA_VERSION}")),
            "{json}"
        );
        assert!(json.contains("\"memory\":{"), "{json}");
        assert!(json.contains("\"tree_health\":{"), "{json}");
        assert!(json.contains("\"trace\":null"), "{json}");
        assert!(json.contains("\"threads\":2"), "{json}");
        assert!(json.contains("\"shards\":[{\"shard\":0,"), "{json}");
        assert!(json.contains("\"merge_s\":"), "{json}");

        let ser = Birch::new(BirchConfig::with_clusters(2).threads(1))
            .fit(&pts)
            .unwrap();
        let json = ser.stats().to_json();
        assert!(json.contains("\"threads\":1"), "{json}");
        assert!(json.contains("\"shards\":[]"), "{json}");
    }

    #[test]
    fn parallel_more_threads_than_points() {
        let pts: Vec<Point> = (0..5)
            .map(|i| Point::xy(f64::from(i) * 20.0, 0.0))
            .collect();
        let model = Birch::new(BirchConfig::with_clusters(2))
            .fit_parallel(&pts, 64)
            .unwrap();
        assert_eq!(model.clusters().len(), 2);
        let total: f64 = model.clusters().iter().map(ClusterSummary::weight).sum();
        assert_eq!(total, 5.0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn parallel_zero_threads_panics() {
        let pts = vec![Point::xy(0.0, 0.0)];
        let _ = Birch::new(BirchConfig::with_clusters(1)).fit_parallel(&pts, 0);
    }

    #[test]
    fn checkpoint_then_restore_reproduces_phases_3_and_4() {
        let pts = shuffle(grid_blobs(4, 600));
        let snap =
            std::env::temp_dir().join(format!("birch-pipeline-ckpt-{}.snap", std::process::id()));
        // Tight memory so the checkpointed tree went through real
        // rebuild/condense traffic first.
        let cfg = BirchConfig::with_clusters(4)
            .memory(8 * 1024)
            .page_size(1024)
            .threads(1);
        let full = Birch::new(cfg.clone())
            .fit_with_checkpoint(&pts, &snap)
            .unwrap();
        let resumed = Birch::new(cfg).fit_from_snapshot(&snap, &pts).unwrap();
        std::fs::remove_file(&snap).ok();

        assert_eq!(full.clusters().len(), resumed.clusters().len());
        for (a, b) in full.clusters().iter().zip(resumed.clusters()) {
            let (mut wa, mut wb) = (Vec::new(), Vec::new());
            a.cf.to_words(&mut wa);
            b.cf.to_words(&mut wb);
            assert_eq!(wa, wb, "cluster CFs must be bit-identical");
        }
        assert_eq!(
            full.labels(),
            resumed.labels(),
            "Phase-4 labeling must be identical after restore"
        );
    }

    #[test]
    fn restore_from_corrupt_snapshot_is_an_error() {
        let snap =
            std::env::temp_dir().join(format!("birch-pipeline-bad-{}.snap", std::process::id()));
        std::fs::write(&snap, b"not a snapshot at all").unwrap();
        let err = Birch::new(BirchConfig::with_clusters(2))
            .fit_from_snapshot(&snap, &[])
            .unwrap_err();
        std::fs::remove_file(&snap).ok();
        assert!(
            matches!(err, BirchError::Snapshot { .. }),
            "expected a typed snapshot error, got {err:?}"
        );
        assert!(err.to_string().contains("snapshot"), "{err}");
    }

    #[test]
    fn restore_without_points_skips_refinement() {
        let pts = shuffle(grid_blobs(3, 300));
        let snap =
            std::env::temp_dir().join(format!("birch-pipeline-nopts-{}.snap", std::process::id()));
        let cfg = BirchConfig::with_clusters(3).threads(1);
        let _ = Birch::new(cfg.clone())
            .fit_with_checkpoint(&pts, &snap)
            .unwrap();
        let resumed = Birch::new(cfg).fit_from_snapshot(&snap, &[]).unwrap();
        std::fs::remove_file(&snap).ok();
        assert_eq!(resumed.clusters().len(), 3);
        assert!(resumed.labels().is_none(), "no points, no Phase 4 labels");
    }

    #[test]
    fn out_of_core_fit_end_to_end() {
        let pts = shuffle(grid_blobs(4, 1500));
        let cfg = BirchConfig::with_clusters(4)
            .memory(8 * 1024)
            .page_size(1024)
            .threads(1)
            .out_of_core(true);
        // Counts the threshold raises recorded before Phase 1 finished.
        #[derive(Default)]
        struct Phase1Raises {
            finished: bool,
            raises: usize,
        }
        impl EventSink for Phase1Raises {
            fn record(&mut self, event: &Event) {
                match event {
                    Event::ThresholdRaised { .. } if !self.finished => self.raises += 1,
                    Event::PhaseFinished {
                        phase: Phase::Load, ..
                    } => self.finished = true,
                    _ => {}
                }
            }
        }
        let mut phase1 = Phase1Raises::default();
        let model = Birch::new(cfg).fit_with_sink(&pts, &mut phase1).unwrap();
        assert_eq!(model.clusters().len(), 4);
        let s = model.stats();
        // Phase 1 pages instead of rebuilding (Phase 2 may still rebuild
        // to condense for the global phase — that is its job). Its raises
        // would lead the run's trajectory.
        assert!(phase1.finished);
        assert_eq!(
            phase1.raises, 0,
            "Phase 1 raised the threshold: {:?}",
            s.metrics.threshold_trajectory
        );
        // The Phase-1 residency bound itself is asserted at the phase
        // boundary in phase1's unit tests; `metrics.peak_pages` here is a
        // whole-run counter and Phases 2–4 run fully resident by design.
        assert!(s.metrics.page_evictions > 0, "tree never spilled");
        assert!(s.metrics.page_faults > 0, "nothing faulted back");
        let json = s.to_json();
        assert!(json.contains("\"page_refs\":"), "{json}");
        assert!(json.contains("\"page_spill\":{"), "{json}");
        for c in model.clusters() {
            assert!(c.radius < 5.0, "radius {}", c.radius);
        }
    }

    #[test]
    fn phase4_outlier_discard_end_to_end() {
        let mut pts = shuffle(grid_blobs(2, 400));
        // An outlier closer to blob 0 than the blobs are to each other, so
        // Phase 3 folds it into blob 0's cluster (a *very* far point would
        // instead become its own Phase-3 cluster and never be discarded).
        pts.push(Point::xy(0.0, 30.0));
        let model = Birch::new(
            BirchConfig::with_clusters(2)
                .discard_refinement_outliers(4.0)
                .refinement_passes(2),
        )
        .fit(&pts)
        .unwrap();
        let labels = model.labels().unwrap();
        assert_eq!(
            labels[labels.len() - 1],
            None,
            "far point should be dropped"
        );
    }
}
