//! BIRCH configuration — the knobs of Table 2, with the paper's defaults.
//!
//! | Scope  | Parameter                        | Paper default        |
//! |--------|----------------------------------|----------------------|
//! | Global | Memory `M`                       | 80 × 1024 bytes      |
//! | Global | Disk `R` (outliers)              | 20% of `M`           |
//! | Global | Distance definition              | D2                   |
//! | Global | Quality / threshold statistic    | Diameter `D`         |
//! | Global | Threshold for leaf entry         | threshold on `D`     |
//! | Phase1 | Initial threshold `T0`           | 0.0                  |
//! | Phase1 | Delay-split                      | on                   |
//! | Phase1 | Page size `P`                    | 1024 bytes           |
//! | Phase1 | Outlier handling                 | on (entry < ¼ avg)   |
//! | Phase4 | Refinement passes                | 1 (§6: "refine … once or more") |

use crate::distance::{DistanceMetric, ThresholdKind};
use std::path::PathBuf;

/// How Phase 3 decides the number of clusters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterCount {
    /// Exactly `K` clusters (the usual BIRCH input).
    Exact(usize),
    /// Cut the dendrogram where the merge distance exceeds this threshold,
    /// letting the data choose `K`.
    ByDistance(f64),
}

/// Full pipeline configuration. Construct with [`BirchConfig::with_clusters`]
/// (or [`BirchConfig::by_distance`]) and override fields via the builder
/// methods.
#[derive(Debug, Clone, PartialEq)]
pub struct BirchConfig {
    /// Memory budget `M` in bytes (Table 2 default: 80 KB).
    pub memory_bytes: usize,
    /// Outlier disk budget `R` in bytes (default: 20% of `M`).
    pub disk_bytes: usize,
    /// Page size `P` in bytes (default 1024). Determines `B` and `L`.
    pub page_bytes: usize,
    /// Distance metric for tree descent, splits and Phase 3 (default D2).
    pub metric: DistanceMetric,
    /// Whether the threshold constrains entry diameter or radius.
    pub threshold_kind: ThresholdKind,
    /// Initial threshold `T0` (default 0.0).
    pub initial_threshold: f64,
    /// Phase-3 stopping rule.
    pub clusters: ClusterCount,
    /// Phase-3 algorithm (default: the paper's agglomerative HC).
    pub global_method: crate::phase3::GlobalMethod,
    /// §4.3 merging refinement (default on).
    pub merge_refinement: bool,
    /// §5.1.3 outlier handling (default on).
    pub outlier_handling: bool,
    /// Potential-outlier fraction: entry is an outlier candidate when its
    /// weight is below `outlier_factor ×` the mean entry weight (default ¼).
    pub outlier_factor: f64,
    /// §5.1.4 delay-split option (default on).
    pub delay_split: bool,
    /// Run Phase 2 (condense the tree before the global phase; default on).
    pub phase2: bool,
    /// Phase-2 target: maximum number of leaf entries handed to Phase 3
    /// (the paper's "range that the global algorithm works well with";
    /// its experiments use 1000).
    pub phase2_max_entries: usize,
    /// Number of Phase-4 refinement passes (0 disables Phase 4; default 1).
    pub phase4_passes: usize,
    /// Phase-4 outlier discard: drop a point whose distance to its closest
    /// seed exceeds `phase4_outlier_factor ×` that seed cluster's radius.
    /// `None` (default) keeps every point.
    pub phase4_outlier_factor: Option<f64>,
    /// Total dataset size, when known in advance — sharpens the threshold
    /// heuristic's growth target (optional).
    pub total_points_hint: Option<u64>,
    /// Worker threads (§7 "opportunities for parallelism") for Phase 1
    /// and Phase 4. `1` (the default) is the exact serial scan of the
    /// paper; `n > 1` shards the Phase-1 input across `n` scoped threads,
    /// builds one CF-tree per shard under the full budget M, and merges the
    /// shard leaf entries into the final tree by CF additivity (see
    /// [`crate::parallel`]). Phase 4 splits each pass's nearest-seed search
    /// across the same `n` threads; its output bits do not depend on `n`
    /// ([`crate::phase4::refine_parallel`]).
    ///
    /// The default can be overridden process-wide with the `BIRCH_THREADS`
    /// environment variable (read once per config construction) — CI uses
    /// this to force the parallel path through the whole test suite.
    pub threads: usize,
    /// Out-of-core Phase 1 (default off). When on, the CF-tree is backed
    /// by a file of real pages: instead of raising the threshold and
    /// rebuilding when `node_count × P` exceeds `M`, cold nodes are
    /// evicted to the spill file and faulted back on descent, so budget
    /// `M` bounds *residency* while the tree itself may grow past it.
    /// The threshold stays at `T0` — this trades rebuild CPU for page
    /// I/O, the classic paging trade.
    pub out_of_core: bool,
    /// Directory for spill files: the out-of-core tree's page file, and
    /// in every run, in core too, the spill logs of the parked outlier
    /// and delay-split entries (a log creates its file on its first
    /// write). `None` (the default) uses the system temp directory. Files
    /// are uniquely named per process/run and removed when the owning
    /// store or log drops. A directory that cannot take a log's file
    /// makes that log report itself full, so its entries stay in the tree.
    pub spill_dir: Option<PathBuf>,
}

impl BirchConfig {
    /// Paper-default configuration targeting exactly `k` clusters.
    #[must_use]
    pub fn with_clusters(k: usize) -> Self {
        assert!(k >= 1, "cluster count must be >= 1");
        Self::base(ClusterCount::Exact(k))
    }

    /// Paper-default configuration cutting the Phase-3 dendrogram at
    /// `distance` instead of fixing `K`.
    #[must_use]
    pub fn by_distance(distance: f64) -> Self {
        assert!(
            distance.is_finite() && distance >= 0.0,
            "distance cut must be finite and non-negative"
        );
        Self::base(ClusterCount::ByDistance(distance))
    }

    fn base(clusters: ClusterCount) -> Self {
        let memory_bytes = 80 * 1024;
        Self {
            memory_bytes,
            disk_bytes: memory_bytes / 5,
            page_bytes: 1024,
            metric: DistanceMetric::D2,
            threshold_kind: ThresholdKind::Diameter,
            initial_threshold: 0.0,
            clusters,
            global_method: crate::phase3::GlobalMethod::Hierarchical,
            merge_refinement: true,
            outlier_handling: true,
            outlier_factor: 0.25,
            delay_split: true,
            phase2: true,
            phase2_max_entries: 1000,
            phase4_passes: 1,
            phase4_outlier_factor: None,
            total_points_hint: None,
            threads: default_threads(),
            out_of_core: false,
            spill_dir: None,
        }
    }

    /// Sets the memory budget `M` (and scales the disk budget to 20% of it).
    #[must_use]
    pub fn memory(mut self, bytes: usize) -> Self {
        self.memory_bytes = bytes;
        self.disk_bytes = bytes / 5;
        self
    }

    /// Sets the outlier-disk budget `R` independently of `M`.
    #[must_use]
    pub fn disk(mut self, bytes: usize) -> Self {
        self.disk_bytes = bytes;
        self
    }

    /// Sets the page size `P`.
    #[must_use]
    pub fn page_size(mut self, bytes: usize) -> Self {
        self.page_bytes = bytes;
        self
    }

    /// Sets the distance metric.
    #[must_use]
    pub fn metric(mut self, metric: DistanceMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the Phase-3 global algorithm.
    #[must_use]
    pub fn global_method(mut self, method: crate::phase3::GlobalMethod) -> Self {
        self.global_method = method;
        self
    }

    /// Sets the threshold statistic (diameter vs radius).
    #[must_use]
    pub fn threshold_kind(mut self, kind: ThresholdKind) -> Self {
        self.threshold_kind = kind;
        self
    }

    /// Sets the initial threshold `T0`.
    #[must_use]
    pub fn initial_threshold(mut self, t0: f64) -> Self {
        assert!(t0.is_finite() && t0 >= 0.0, "T0 must be finite and >= 0");
        self.initial_threshold = t0;
        self
    }

    /// Enables/disables outlier handling.
    #[must_use]
    pub fn outliers(mut self, enabled: bool) -> Self {
        self.outlier_handling = enabled;
        self
    }

    /// Enables/disables the delay-split option.
    #[must_use]
    pub fn delay_split(mut self, enabled: bool) -> Self {
        self.delay_split = enabled;
        self
    }

    /// Enables/disables Phase 2 (tree condensation).
    #[must_use]
    pub fn phase2(mut self, enabled: bool) -> Self {
        self.phase2 = enabled;
        self
    }

    /// Sets the number of Phase-4 refinement passes (0 disables Phase 4;
    /// the model then carries no point labels).
    #[must_use]
    pub fn refinement_passes(mut self, passes: usize) -> Self {
        self.phase4_passes = passes;
        self
    }

    /// Enables Phase-4 outlier discard with the given factor.
    #[must_use]
    pub fn discard_refinement_outliers(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "factor must be positive"
        );
        self.phase4_outlier_factor = Some(factor);
        self
    }

    /// Declares the total dataset size when known in advance.
    #[must_use]
    pub fn total_points(mut self, n: u64) -> Self {
        self.total_points_hint = Some(n);
        self
    }

    /// Sets the number of Phase-1 and Phase-4 worker threads (`1` = the
    /// serial scan).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Enables/disables the out-of-core (file-backed) CF-tree.
    #[must_use]
    pub fn out_of_core(mut self, enabled: bool) -> Self {
        self.out_of_core = enabled;
        self
    }

    /// Sets the directory for out-of-core spill files (implies nothing
    /// about [`BirchConfig::out_of_core`] itself).
    #[must_use]
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Validates cross-field consistency; called by the pipeline.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent settings (e.g. a memory budget smaller than
    /// one page).
    pub fn validate(&self) {
        assert!(
            self.memory_bytes >= self.page_bytes,
            "memory budget {} smaller than one page {}",
            self.memory_bytes,
            self.page_bytes
        );
        assert!(self.outlier_factor > 0.0 && self.outlier_factor < 1.0);
        assert!(self.phase2_max_entries >= 2, "phase2 target too small");
        assert!(self.threads >= 1, "need at least one thread");
    }
}

/// The default Phase-1 parallelism: `BIRCH_THREADS` when set to a positive
/// integer, else 1 (serial).
fn default_threads() -> usize {
    std::env::var("BIRCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = BirchConfig::with_clusters(100);
        assert_eq!(c.memory_bytes, 80 * 1024);
        assert_eq!(c.disk_bytes, 16 * 1024);
        assert_eq!(c.page_bytes, 1024);
        assert_eq!(c.metric, DistanceMetric::D2);
        assert_eq!(c.threshold_kind, ThresholdKind::Diameter);
        assert_eq!(c.initial_threshold, 0.0);
        assert!(c.outlier_handling);
        assert!(c.delay_split);
        assert!((c.outlier_factor - 0.25).abs() < f64::EPSILON);
        c.validate();
    }

    #[test]
    fn builder_chain() {
        let c = BirchConfig::with_clusters(5)
            .memory(1 << 20)
            .page_size(4096)
            .metric(DistanceMetric::D4)
            .threshold_kind(ThresholdKind::Radius)
            .initial_threshold(0.5)
            .outliers(false)
            .delay_split(false)
            .phase2(false)
            .refinement_passes(3)
            .discard_refinement_outliers(2.0)
            .total_points(42);
        assert_eq!(c.memory_bytes, 1 << 20);
        assert_eq!(c.disk_bytes, (1 << 20) / 5);
        assert_eq!(c.page_bytes, 4096);
        assert_eq!(c.metric, DistanceMetric::D4);
        assert_eq!(c.threshold_kind, ThresholdKind::Radius);
        assert!(!c.outlier_handling);
        assert!(!c.delay_split);
        assert!(!c.phase2);
        assert_eq!(c.phase4_passes, 3);
        assert_eq!(c.phase4_outlier_factor, Some(2.0));
        assert_eq!(c.total_points_hint, Some(42));
        c.validate();
    }

    #[test]
    fn threads_knob() {
        let c = BirchConfig::with_clusters(2).threads(4);
        assert_eq!(c.threads, 4);
        c.validate();
    }

    #[test]
    fn out_of_core_knobs() {
        let c = BirchConfig::with_clusters(2)
            .out_of_core(true)
            .spill_dir("/tmp/birch-spill");
        assert!(c.out_of_core);
        assert_eq!(
            c.spill_dir.as_deref(),
            Some(std::path::Path::new("/tmp/birch-spill"))
        );
        c.validate();
        let d = BirchConfig::with_clusters(2);
        assert!(!d.out_of_core);
        assert!(d.spill_dir.is_none());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = BirchConfig::with_clusters(2).threads(0);
    }

    #[test]
    fn by_distance_variant() {
        let c = BirchConfig::by_distance(3.5);
        assert_eq!(c.clusters, ClusterCount::ByDistance(3.5));
    }

    #[test]
    #[should_panic(expected = "memory budget")]
    fn memory_below_page_rejected() {
        BirchConfig::with_clusters(2).memory(512).validate();
    }

    #[test]
    #[should_panic(expected = "cluster count must be >= 1")]
    fn zero_clusters_rejected() {
        let _ = BirchConfig::with_clusters(0);
    }
}
