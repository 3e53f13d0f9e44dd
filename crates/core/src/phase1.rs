//! Phase 1: load the data into an in-memory CF-tree in a single scan.
//!
//! Paper §5 and Fig. 2. Starting from threshold `T0`, every incoming point
//! is inserted into the CF-tree. When the tree outgrows the memory budget
//! `M`, the threshold is increased (see [`crate::threshold`]) and the tree
//! is rebuilt smaller from its own leaf entries (see [`crate::rebuild`]),
//! optionally spilling low-density entries to the outlier disk. With the
//! delay-split option, points that would force a split while memory is
//! exhausted are parked on disk first, squeezing the most out of the
//! current threshold before paying for a rebuild. After the last point,
//! parked points are folded back in and the outlier disk gets a final
//! re-absorption scan; what remains there is discarded as noise.

use crate::cf::Cf;
use crate::config::BirchConfig;
use crate::obs::mem::MemoryGauge;
use crate::obs::span;
use crate::obs::{Event, EventSink, MetricsRecorder, MetricsReport, NoopSink, Phase, Tee};
use crate::outlier::{DelaySplitBuffer, OutlierConfig, OutlierStore};
use crate::rebuild::rebuild_observed;
use crate::threshold::ThresholdEstimator;
use crate::tree::{CfTree, TreeParams};
use birch_pager::{IoStats, PageLayout};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Hard cap on rebuilds per run: the threshold grows strictly every
/// rebuild, so hitting this means a logic error, and failing loudly beats
/// spinning.
const MAX_REBUILDS: u64 = 10_000;

/// Everything Phase 1 produces.
#[derive(Debug)]
pub struct Phase1Output {
    /// The final CF-tree (fits the memory budget).
    pub tree: CfTree,
    /// Resource counters for the run.
    pub io: IoStats,
    /// The threshold after each rebuild, `T1, T2, …` (empty if no rebuild
    /// was needed).
    pub threshold_history: Vec<f64>,
    /// Input records scanned.
    pub points_scanned: u64,
    /// The outlier store (already finalized — empty unless
    /// `discard_at_end` was off), kept for its disk counters.
    pub outliers: Option<OutlierStore>,
    /// The threshold estimator, carrying its r–N history forward so Phase 2
    /// can continue the same sequence.
    pub estimator: ThresholdEstimator,
    /// Aggregated telemetry of the scan (counters, depth histogram,
    /// threshold trajectory) — the source of `io`'s event-derived fields.
    pub metrics: MetricsReport,
    /// Live/high-water byte accounting against the budget `M`: pager
    /// pages (the paper's unit), node arena, SoA blocks, outlier disk.
    pub memory: MemoryGauge,
}

/// Incremental Phase-1 driver: feed CFs one at a time, inspect the live
/// tree, and `finish()` when the scan ends. [`run`] wraps this for the
/// whole-dataset case; [`crate::stream::StreamingBirch`] wraps it for
/// open-ended streams.
#[derive(Debug)]
pub struct Phase1Builder<S: EventSink = NoopSink> {
    max_pages: usize,
    /// Out-of-core mode ([`BirchConfig::out_of_core`]): the page budget
    /// bounds *residency* through the tree pager instead of triggering
    /// threshold rebuilds, so the tree may grow past `M` on disk.
    out_of_core: bool,
    /// Page-spill file path while paging is active (`None` after
    /// `finish`, and always in in-core mode). Kept so rebuild paths —
    /// which replace the tree wholesale — can re-enable paging on the
    /// replacement.
    spill_path: Option<PathBuf>,
    tree: CfTree,
    estimator: ThresholdEstimator,
    outliers: Option<OutlierStore>,
    delay: Option<DelaySplitBuffer>,
    delay_mode: bool,
    io: IoStats,
    threshold_history: Vec<f64>,
    points_scanned: u64,
    /// Total weight (N) of every CF fed in, including outlier candidates —
    /// the auditor's end-to-end conservation baseline: until `finish`,
    /// every fed point is either in the tree or parked on a disk.
    fed_n: f64,
    /// Reusable scratch CF for the point-feed path ([`Cf::assign_point`]).
    /// With the tree's own reused insert buffers, a warm feed whose point
    /// is absorbed makes no heap allocation (`tests/alloc_free.rs`).
    scratch: Option<Cf>,
    /// Distance-call totals of trees already replaced by rebuilds — the
    /// live tree's [`TreeStats`](crate::tree::TreeStats) reset on every
    /// swap, so lifetime totals are `retired + tree.stats()`.
    retired_distance_calls: u64,
    /// Pruned-candidate totals of replaced trees (same bookkeeping).
    retired_distance_calls_pruned: u64,
    /// Always-on aggregator: `finish()` fills `io`'s event-derived
    /// counters from it, so the tree, the rebuild machinery, and the
    /// builder never keep parallel tallies of the same mutations.
    recorder: MetricsRecorder,
    /// Caller-supplied sink, receiving the same event stream.
    sink: S,
    started: Instant,
    /// Page size, kept so the gauge can convert node counts to bytes.
    page_bytes: usize,
    /// Memory-budget accounting. Pager pages are tracked O(1) on every
    /// page high-water move; the heap-walking components (arena, SoA
    /// blocks) are sampled only at rebuilds and `finish`, off the
    /// per-insert hot path.
    memory: MemoryGauge,
}

/// Runs Phase 1 over a stream of singleton (or subcluster) CFs of
/// dimensionality `dim`.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`BirchConfig::validate`])
/// or if an input CF has the wrong dimension.
pub fn run<I>(config: &BirchConfig, dim: usize, input: I) -> Phase1Output
where
    I: IntoIterator<Item = Cf>,
{
    run_with_sink(config, dim, input, NoopSink)
}

/// Like [`run`], but streaming every telemetry [`Event`] into `sink` as
/// the scan proceeds. With [`NoopSink`] this is exactly [`run`].
///
/// # Panics
///
/// Same as [`run`].
pub fn run_with_sink<I, S>(config: &BirchConfig, dim: usize, input: I, sink: S) -> Phase1Output
where
    I: IntoIterator<Item = Cf>,
    S: EventSink,
{
    let mut b = builder(config, dim, sink);
    for cf in input {
        b.feed(cf);
    }
    b.finish()
}

/// Runs Phase 1 over a slice of points (optionally weighted) using the
/// builder's scratch-CF feed path, which allocates nothing for a point
/// that is absorbed — the preferred entry point for point data; [`run`]
/// remains for pre-aggregated CF input.
///
/// # Panics
///
/// Panics if the configuration is invalid, a point has the wrong
/// dimension, or `weights` is shorter than `points`.
pub fn run_points_with_sink<S>(
    config: &BirchConfig,
    dim: usize,
    points: &[crate::point::Point],
    weights: Option<&[f64]>,
    sink: S,
) -> Phase1Output
where
    S: EventSink,
{
    let mut b = builder(config, dim, sink);
    match weights {
        Some(w) => {
            for (p, &wi) in points.iter().zip(w) {
                b.feed_weighted_point(p, wi);
            }
        }
        None => {
            for p in points {
                b.feed_point(p);
            }
        }
    }
    b.finish()
}

fn builder<S: EventSink>(config: &BirchConfig, dim: usize, sink: S) -> Phase1Builder<S> {
    config.validate();
    let layout = PageLayout::new(config.page_bytes, dim);
    let max_pages = layout.pages_in_budget(config.memory_bytes).max(1);
    let entry_bytes = layout.cf_entry_bytes();

    let both = config.outlier_handling && config.delay_split;
    let outliers = config.outlier_handling.then(|| {
        let bytes = if both {
            config.disk_bytes / 2
        } else {
            config.disk_bytes
        };
        OutlierStore::new(
            bytes,
            entry_bytes,
            OutlierConfig {
                enabled: true,
                factor: config.outlier_factor,
                discard_at_end: true,
            },
        )
    });
    let delay = config.delay_split.then(|| {
        let bytes = if both {
            config.disk_bytes - config.disk_bytes / 2
        } else {
            config.disk_bytes
        };
        DelaySplitBuffer::new(bytes, entry_bytes)
    });

    let params = TreeParams {
        dim,
        branching: layout.branching_factor(),
        leaf_capacity: layout.leaf_capacity(),
        threshold: config.initial_threshold,
        threshold_kind: config.threshold_kind,
        metric: config.metric,
        merge_refinement: config.merge_refinement,
        descend_prune: config.descend_prune,
    };

    let mut b = Phase1Builder {
        max_pages,
        out_of_core: config.out_of_core,
        spill_path: None,
        tree: CfTree::new(params),
        estimator: ThresholdEstimator::new(config.total_points_hint),
        outliers,
        delay,
        delay_mode: false,
        io: IoStats::default(),
        threshold_history: Vec::new(),
        points_scanned: 0,
        fed_n: 0.0,
        scratch: None,
        retired_distance_calls: 0,
        retired_distance_calls_pruned: 0,
        recorder: MetricsRecorder::new(),
        sink,
        started: Instant::now(),
        page_bytes: config.page_bytes,
        memory: MemoryGauge::with_budget(config.memory_bytes as u64),
    };
    if config.out_of_core {
        let dir = config.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
        let path = spill_file(&dir, "pages");
        b.tree
            .enable_paging(&path, b.resident_cap())
            .expect("create page spill file");
        b.spill_path = Some(path);
        if let Some(store) = b.outliers.as_mut() {
            store
                .back_with_file(&spill_file(&dir, "journal"))
                .expect("create outlier journal file");
        }
    }
    b.emit(Event::PhaseStarted { phase: Phase::Load });
    b
}

/// Process-wide spill-file sequence, so concurrent builders (parallel
/// shards, test threads) never collide on a path.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

fn spill_file(dir: &std::path::Path, ext: &str) -> PathBuf {
    let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("birch-spill-{}-{seq}.{ext}", std::process::id()))
}

impl Phase1Builder {
    /// Creates an incremental builder for `dim`-dimensional data.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(config: &BirchConfig, dim: usize) -> Self {
        builder(config, dim, NoopSink)
    }
}

impl<S: EventSink> Phase1Builder<S> {
    /// Creates an incremental builder that streams telemetry into `sink`
    /// (in addition to the internal [`MetricsRecorder`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn with_sink(config: &BirchConfig, dim: usize, sink: S) -> Self {
        builder(config, dim, sink)
    }

    /// The internal metrics aggregator (live view; snapshot any time).
    #[must_use]
    pub fn metrics(&self) -> &MetricsRecorder {
        &self.recorder
    }

    /// Sends one event to the internal recorder and the user sink.
    fn emit(&mut self, event: Event) {
        self.recorder.record(&event);
        self.sink.record(&event);
    }

    /// Raises the page high-water mark, emitting the event on a new peak.
    fn note_pages(&mut self, pages: usize) {
        self.memory
            .pager_pages
            .record(pages as u64 * self.page_bytes as u64);
        if pages > self.io.peak_pages {
            self.io.peak_pages = pages;
            self.emit(Event::PagesHighWater { pages });
        }
    }

    /// The pager's residency ceiling in out-of-core mode: the page
    /// budget, floored at 2 so a root split always has a resident child.
    fn resident_cap(&self) -> usize {
        self.max_pages.max(2)
    }

    /// Full memory sample (walks the node arena and SoA slabs): kept off
    /// the per-insert path — called after rebuilds and at `finish`, the
    /// moments the footprint actually shifts shape. In out-of-core mode
    /// the budgeted component follows the *resident* page count and the
    /// spill file is accounted separately.
    fn sample_memory(&mut self) {
        let outlier = self.outliers.as_ref().map_or(0, |s| s.used_bytes() as u64)
            + self.delay.as_ref().map_or(0, |b| b.used_bytes() as u64);
        match self.tree.page_stats() {
            Some(ps) => self.memory.sample_paged_tree(
                &self.tree,
                self.page_bytes,
                outlier,
                ps.resident_nodes,
                ps.spill_file_bytes,
            ),
            None => self
                .memory
                .sample_tree(&self.tree, self.page_bytes, outlier),
        }
    }

    /// The memory gauge so far (live view; snapshot any time).
    #[must_use]
    pub fn memory(&self) -> &MemoryGauge {
        &self.memory
    }

    /// The live CF-tree (always within the memory budget between feeds).
    #[must_use]
    pub fn tree(&self) -> &CfTree {
        &self.tree
    }

    /// Input records fed so far.
    #[must_use]
    pub fn points_scanned(&self) -> u64 {
        self.points_scanned
    }

    /// Resource counters so far.
    #[must_use]
    pub fn io(&self) -> &IoStats {
        &self.io
    }

    /// Clones everything currently parked on the simulated disk — the
    /// delay-split buffer and the potential-outlier store (counts the disk
    /// reads). Streaming snapshots fold these in so the anytime clustering
    /// covers every point seen and not yet discarded.
    #[must_use]
    pub fn parked_cfs(&mut self) -> Vec<Cf> {
        let mut out: Vec<Cf> = self
            .delay
            .as_mut()
            .map_or_else(Vec::new, |b| b.scan().to_vec());
        if let Some(store) = self.outliers.as_mut() {
            out.extend_from_slice(store.scan());
        }
        out
    }

    /// Mutable access to the outlier store (if outlier handling is on) —
    /// lets tests and soak harnesses install a
    /// [`birch_pager::FaultPlan`] on its disk mid-run.
    pub fn outliers_mut(&mut self) -> Option<&mut OutlierStore> {
        self.outliers.as_mut()
    }

    /// Mutable access to the delay-split buffer (if delay-split is on),
    /// for the same fault-injection purpose.
    pub fn delay_mut(&mut self) -> Option<&mut DelaySplitBuffer> {
        self.delay.as_mut()
    }

    /// Audits the live tree with run-level cross-checks layered on top of
    /// the structural invariants: the page budget (with the documented
    /// one-insert-plus-rebuild-transient slack of `height + 1` pages) and
    /// end-to-end N conservation — every point fed so far must be in the
    /// tree or parked on the outlier/delay-split disks, since nothing is
    /// discarded before `finish` (§5.1.3).
    ///
    /// In out-of-core mode the whole-tree page cap does not apply (the
    /// pager bounds residency instead, checked here against the cap);
    /// auditing faults every spilled node back in, and the pager evicts
    /// back down at the next insert.
    ///
    /// # Errors
    ///
    /// Returns the first invariant violation found.
    ///
    /// # Panics
    ///
    /// Panics in out-of-core mode if the pager let residency exceed the
    /// page budget — that is a pager bug, not a data-dependent condition.
    pub fn audit(&mut self) -> Result<crate::audit::AuditReport, crate::audit::AuditViolation> {
        let parked = self.outliers.as_ref().map_or(0.0, OutlierStore::parked_n)
            + self.delay.as_ref().map_or(0.0, DelaySplitBuffer::parked_n);
        let max_pages = if let Some(ps) = self.tree.page_stats() {
            assert!(
                ps.resident_nodes <= self.resident_cap(),
                "pager residency {} exceeds cap {}",
                ps.resident_nodes,
                self.resident_cap()
            );
            self.tree.fault_all();
            None
        } else {
            Some(self.max_pages + self.tree.height() + 1)
        };
        let opts = crate::audit::AuditOptions {
            max_pages,
            expected_n: Some(self.fed_n - parked),
            ..crate::audit::AuditOptions::default()
        };
        crate::audit::audit_with(&self.tree, &opts)
    }

    /// Checkpoints the live tree to `path` mid-scan (see
    /// [`CfTree::checkpoint`]), paged or not — a paged tree is faulted
    /// fully resident for the write and the pager evicts back down at
    /// the next insert boundary.
    ///
    /// # Errors
    ///
    /// Any [`birch_pager::SnapshotError`] from the snapshot writer.
    pub fn checkpoint(&mut self, path: &std::path::Path) -> Result<(), birch_pager::SnapshotError> {
        self.tree.checkpoint(path)
    }

    /// Feeds one CF (a point or a pre-aggregated subcluster).
    ///
    /// # Panics
    ///
    /// Panics if `cf` is empty or of the wrong dimension.
    pub fn feed(&mut self, cf: Cf) {
        self.feed_ref(&cf);
    }

    /// Feeds one unweighted data point through an internal scratch CF (the
    /// `Cf::from_point` route boxes two fresh vectors every time). A warm
    /// builder makes no heap allocation for a point that is absorbed; a
    /// new leaf entry may grow its leaf's slab, and a split allocates.
    ///
    /// # Panics
    ///
    /// Panics if `p` has the wrong dimension.
    pub fn feed_point(&mut self, p: &crate::point::Point) {
        self.feed_weighted_point(p, 1.0);
    }

    /// Weighted variant of [`Phase1Builder::feed_point`].
    ///
    /// # Panics
    ///
    /// Panics if `p` has the wrong dimension or `w` is not positive and
    /// finite.
    pub fn feed_weighted_point(&mut self, p: &crate::point::Point, w: f64) {
        let mut scratch = self
            .scratch
            .take()
            .unwrap_or_else(|| Cf::empty(self.tree.dim()));
        scratch.assign_weighted_point(p, w);
        self.feed_ref(&scratch);
        self.scratch = Some(scratch);
    }

    /// The feed path behind [`Phase1Builder::feed`] and the point feeds.
    /// Clones `cf` only when it must outlive the call, parked on the
    /// delay-split disk; the tree copies a new leaf entry into its slab.
    fn feed_ref(&mut self, cf: &Cf) {
        self.points_scanned += 1;
        self.fed_n += cf.n();
        if self.delay_mode {
            // §5.1.4: memory is exhausted — absorb what fits without
            // growing the tree, park the rest on disk.
            if self.tree.try_absorb(cf) {
                return;
            }
            let parked = self
                .delay
                .as_mut()
                .expect("delay_mode implies a delay buffer")
                .park(cf.clone());
            if let Err(cf) = parked {
                // Buffer full: time to actually rebuild, then insert.
                self.rebuild_cycle();
                self.insert_checked(&cf);
            }
        } else {
            self.insert_checked(cf);
        }
    }

    /// Inserts and reacts to memory pressure.
    fn insert_checked(&mut self, cf: &Cf) {
        self.tree
            .insert_cf_observed(cf, &mut Tee(&mut self.recorder, &mut self.sink));
        self.react_to_pressure();
    }

    /// The post-insert memory check. In out-of-core mode the pager
    /// already evicted down to the budget at the insert boundary, so
    /// pressure never triggers a rebuild; the high-water mark tracks
    /// *resident* pages.
    fn react_to_pressure(&mut self) {
        if self.out_of_core {
            let resident = self
                .tree
                .page_stats()
                .map_or_else(|| self.tree.node_count(), |ps| ps.resident_nodes);
            self.note_pages(resident);
            return;
        }
        self.note_pages(self.tree.node_count());
        if self.tree.node_count() > self.max_pages {
            let can_delay = self.delay.as_ref().is_some_and(DelaySplitBuffer::has_space);
            if can_delay {
                self.delay_mode = true;
            } else {
                self.rebuild_cycle();
            }
        }
    }

    /// Banks the live tree's distance-call counters before it is replaced
    /// by a rebuild, so lifetime totals survive the swap.
    fn retire_tree_counters(&mut self) {
        let s = self.tree.stats();
        self.retired_distance_calls += s.distance_calls;
        self.retired_distance_calls_pruned += s.distance_calls_pruned;
    }

    /// Rebuilds (possibly repeatedly) until the tree fits in memory, then
    /// folds parked delay-split points back in — rebuilding again mid-drain
    /// if they push the tree back over budget, so the page high-water mark
    /// never exceeds `budget + h` (the Reducibility Theorem's transient).
    fn rebuild_cycle(&mut self) {
        self.rebuild_until_fits();
        self.delay_mode = false;
        let parked = match self.delay.as_mut() {
            Some(buf) => buf.drain(),
            None => Vec::new(),
        };
        for cf in parked {
            self.tree
                .insert_cf_observed(&cf, &mut Tee(&mut self.recorder, &mut self.sink));
            self.note_pages(self.tree.node_count());
            if self.tree.node_count() > self.max_pages {
                self.rebuild_until_fits();
            }
        }
    }

    /// Re-enables paging after a rebuild replaced the tree (rebuilds work
    /// on a fully-resident tree and produce an unpaged one). No-op unless
    /// an out-of-core spill path is active.
    fn reenable_paging(&mut self) {
        if let Some(path) = self.spill_path.clone() {
            if !self.tree.is_paged() {
                self.tree
                    .enable_paging(&path, self.resident_cap())
                    .expect("recreate page spill file after rebuild");
            }
        }
    }

    /// The inner rebuild loop of Fig. 2: raise the threshold and rebuild
    /// until the tree fits the page budget.
    fn rebuild_until_fits(&mut self) {
        // Rebuilds walk and replace the whole tree: bring it resident
        // first, re-enable paging on the replacement after.
        let was_paged = self.tree.is_paged();
        if was_paged {
            self.tree.disable_paging();
        }
        while self.tree.node_count() > self.max_pages {
            assert!(
                self.io.rebuilds < MAX_REBUILDS,
                "rebuild did not converge after {MAX_REBUILDS} attempts"
            );
            let t_next = self
                .estimator
                .next_threshold(&self.tree, self.points_scanned);
            let old_t = self.tree.threshold();
            self.emit(Event::ThresholdRaised {
                old: old_t,
                new: t_next,
                points_seen: self.points_scanned,
            });
            self.emit(Event::RebuildTriggered {
                old_threshold: old_t,
                new_threshold: t_next,
                leaf_entries: self.tree.leaf_entry_count(),
                pages: self.tree.node_count(),
            });
            let (new_tree, report) = rebuild_observed(
                &self.tree,
                t_next,
                self.outliers.as_mut(),
                &mut Tee(&mut self.recorder, &mut self.sink),
            );
            self.io.rebuilds += 1;
            self.note_pages(report.peak_pages);
            self.threshold_history.push(t_next);
            self.retire_tree_counters();
            self.tree = new_tree;

            // Outlier disk full? Scan it for re-absorption (§5.1.3).
            if let Some(store) = self.outliers.as_mut() {
                if !store.has_space() && !store.is_empty() {
                    let mean = mean_entry_n(&self.tree);
                    store.reabsorb_observed(
                        &mut self.tree,
                        mean,
                        &mut Tee(&mut self.recorder, &mut self.sink),
                    );
                }
            }
            self.sample_memory();
        }
        if was_paged {
            self.reenable_paging();
        }
    }

    /// Raises the tree threshold to at least `t` (rebuilding once), so
    /// entries built under a *foreign* threshold — another shard's or
    /// stream's leaf CFs — can be inserted without violating the leaf
    /// threshold invariant. No-op when the tree is already at or above
    /// `t`. Counts as an ordinary rebuild in the telemetry.
    pub(crate) fn ensure_threshold(&mut self, t: f64) {
        if t <= self.tree.threshold() {
            return;
        }
        let was_paged = self.tree.is_paged();
        if was_paged {
            self.tree.disable_paging();
        }
        let old_t = self.tree.threshold();
        self.emit(Event::ThresholdRaised {
            old: old_t,
            new: t,
            points_seen: self.points_scanned,
        });
        self.emit(Event::RebuildTriggered {
            old_threshold: old_t,
            new_threshold: t,
            leaf_entries: self.tree.leaf_entry_count(),
            pages: self.tree.node_count(),
        });
        let (new_tree, report) = rebuild_observed(
            &self.tree,
            t,
            self.outliers.as_mut(),
            &mut Tee(&mut self.recorder, &mut self.sink),
        );
        self.io.rebuilds += 1;
        self.note_pages(report.peak_pages);
        self.threshold_history.push(t);
        self.retire_tree_counters();
        self.tree = new_tree;
        self.sample_memory();
        if was_paged {
            self.reenable_paging();
        }
    }

    /// Routes a CF that a previous scan already flagged as a potential
    /// outlier: try split-free absorption first, park it on the outlier
    /// disk if there is room, and only fall back to a full insert when
    /// neither works. The parallel merge stage feeds shard-carried
    /// outliers through this so they keep §5.1.3 semantics (one more
    /// re-absorption chance, then the usual end-of-scan disposition)
    /// instead of being promoted to regular data. Public so external
    /// shard-and-merge schemes (and fault-injection tests) can drive the
    /// same path.
    ///
    /// # Panics
    ///
    /// Panics if `cf` is empty or of the wrong dimension.
    pub fn feed_outlier_candidate(&mut self, cf: Cf) {
        self.fed_n += cf.n();
        if self.tree.try_absorb(&cf) {
            return;
        }
        let cf = match self.outliers.as_mut() {
            Some(store) => match store.spill(cf) {
                Ok(()) => return,
                Err(cf) => cf, // disk full: fold into the tree instead
            },
            None => cf,
        };
        self.insert_checked(&cf);
    }

    /// Ends the scan: flushes parked delay-split points, runs the final
    /// outlier re-absorption/discard, and returns the Phase-1 output.
    #[must_use]
    pub fn finish(self) -> Phase1Output {
        self.finish_inner(false).0
    }

    /// Like [`Phase1Builder::finish`], but instead of discarding the
    /// entries still parked on the outlier disk, returns them alongside
    /// the output. Used by the sharded parallel build (and available for
    /// any external shard-and-merge scheme): a shard must not declare
    /// noise unilaterally, because an entry that looks sparse within one
    /// shard may re-absorb into the merged tree.
    #[must_use]
    pub fn finish_keeping_outliers(self) -> (Phase1Output, Vec<Cf>) {
        self.finish_inner(true)
    }

    fn finish_inner(mut self, keep_outliers: bool) -> (Phase1Output, Vec<Cf>) {
        let _sp = span::enter("phase1_finish");
        // Flush any parked points.
        if self.delay.as_ref().is_some_and(|b| !b.is_empty()) {
            self.rebuild_cycle();
        }

        // Final outlier disposition: one more absorption scan, then either
        // discard what remains (they are the actual noise) or hand the
        // remainder back for a later merge stage to re-judge.
        let mut carried = Vec::new();
        if let Some(store) = self.outliers.as_mut() {
            if !store.is_empty() {
                let mean = mean_entry_n(&self.tree);
                store.reabsorb_observed(
                    &mut self.tree,
                    mean,
                    &mut Tee(&mut self.recorder, &mut self.sink),
                );
            }
            if keep_outliers {
                carried = store.take_remaining();
            } else {
                let _sp = span::enter("outlier_finalize");
                store.finalize_observed(
                    &mut self.tree,
                    &mut Tee(&mut self.recorder, &mut self.sink),
                );
            }
        }

        // Out-of-core epilogue: bank the pager's counters and take the
        // final sample while residency is still bounded, then bring the
        // tree fully resident — Phases 2–4 walk it in memory, and the
        // spill file is deleted with the page store.
        if self.tree.is_paged() {
            if let Some(ps) = self.tree.page_stats() {
                self.io.page_refs = ps.refs;
                self.io.page_faults = ps.faults;
                self.io.page_evictions = ps.evictions;
                self.note_pages(ps.resident_nodes);
            }
            self.sample_memory();
            self.tree.disable_paging();
            self.spill_path = None;
        } else {
            self.note_pages(self.tree.node_count());
            self.sample_memory();
        }
        self.emit(Event::PhaseFinished {
            phase: Phase::Load,
            wall: self.started.elapsed(),
        });

        // Assemble counters: event-derived fields come from the recorder —
        // the single source the tree, rebuilds, and outlier machinery all
        // report into — so nothing is tallied twice.
        {
            let m = self.recorder.snapshot();
            self.io.rebuilds = m.rebuilds;
            self.io.splits = m.splits;
            self.io.merge_refinements = m.merge_refinements;
            self.io.outliers_discarded = m.outliers_discarded;
            self.io.peak_pages = self.io.peak_pages.max(m.peak_pages);
        }
        if let Some(store) = &self.outliers {
            self.io.disk_writes += store.writes();
            self.io.disk_reads += store.reads();
            self.io.disk_bytes_written += store.bytes_written();
            self.io.disk_bytes_read += store.bytes_read();
            self.io.disk_write_attempts += store.write_attempts();
            self.io.disk_faults_injected += store.faults_injected();
        }
        if let Some(buf) = &self.delay {
            self.io.disk_writes += buf.writes();
            self.io.disk_reads += buf.reads();
            self.io.disk_bytes_written += buf.bytes_written();
            self.io.disk_bytes_read += buf.bytes_read();
            self.io.disk_write_attempts += buf.write_attempts();
            self.io.disk_faults_injected += buf.faults_injected();
        }

        let mut metrics = self.recorder.report();
        {
            let s = self.tree.stats();
            metrics.distance_calls = self.retired_distance_calls + s.distance_calls;
            metrics.distance_calls_pruned =
                self.retired_distance_calls_pruned + s.distance_calls_pruned;
        }
        let out = Phase1Output {
            tree: self.tree,
            io: self.io,
            threshold_history: self.threshold_history,
            points_scanned: self.points_scanned,
            outliers: self.outliers,
            estimator: self.estimator,
            metrics,
            memory: self.memory,
        };
        (out, carried)
    }
}

/// Mean (weighted) points per leaf entry — the outlier rule's baseline.
pub(crate) fn mean_entry_n(tree: &CfTree) -> f64 {
    if tree.leaf_entry_count() == 0 {
        0.0
    } else {
        tree.total_cf().n() / tree.leaf_entry_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    /// Deterministic scatter of `n` points over `k` well-separated blobs.
    fn blobs(n: usize, k: usize) -> Vec<Cf> {
        (0..n)
            .map(|i| {
                let c = (i % k) as f64 * 100.0;
                let j = i as f64;
                Cf::from_point(&Point::xy(
                    c + (j * 0.7).sin() * 2.0,
                    c + (j * 1.3).cos() * 2.0,
                ))
            })
            .collect()
    }

    fn tiny_config() -> BirchConfig {
        // Small memory to force rebuilds on modest data.
        BirchConfig::with_clusters(4)
            .memory(8 * 1024)
            .page_size(1024)
    }

    #[test]
    fn small_data_no_rebuild() {
        let cfg = BirchConfig::with_clusters(2);
        let out = run(&cfg, 2, blobs(100, 2));
        assert_eq!(out.points_scanned, 100);
        assert_eq!(out.io.rebuilds, 0);
        assert!(out.threshold_history.is_empty());
        out.tree.check_invariants().unwrap();
        assert!((out.tree.total_cf().n() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn memory_pressure_triggers_rebuilds_and_fits_budget() {
        let cfg = tiny_config();
        let out = run(&cfg, 2, blobs(20_000, 4));
        assert!(out.io.rebuilds >= 1, "expected rebuilds, io={:?}", out.io);
        let max_pages = cfg.memory_bytes / cfg.page_bytes;
        assert!(
            out.tree.node_count() <= max_pages,
            "tree {} pages > budget {}",
            out.tree.node_count(),
            max_pages
        );
        out.tree.check_invariants().unwrap();
        // Thresholds strictly increase.
        for w in out.threshold_history.windows(2) {
            assert!(
                w[1] > w[0],
                "thresholds not increasing: {:?}",
                out.threshold_history
            );
        }
    }

    #[test]
    fn out_of_core_bounds_residency_not_tree_size() {
        let cfg = tiny_config().out_of_core(true).delay_split(false);
        let max_pages = cfg.memory_bytes / cfg.page_bytes;
        let mut b = Phase1Builder::new(&cfg, 2);
        assert!(b.tree().is_paged());
        let n = 20_000;
        for (i, cf) in blobs(n, 4).into_iter().enumerate() {
            b.feed(cf);
            if i % 4000 == 1999 {
                b.audit().unwrap_or_else(|v| panic!("audit at {i}: {v}"));
            }
        }
        let out = b.finish();
        // Paged mode replaces rebuilds with eviction: the threshold never
        // rose, the tree grew past the page budget on disk, and the
        // resident high-water mark stayed within it.
        assert_eq!(out.io.rebuilds, 0, "paging must replace rebuilds");
        assert!(
            out.tree.node_count() > max_pages,
            "test premise: tree must outgrow the budget ({} nodes <= {max_pages} pages)",
            out.tree.node_count()
        );
        assert!(
            out.io.peak_pages <= max_pages,
            "resident peak {} pages exceeds budget {max_pages}",
            out.io.peak_pages
        );
        assert!(out.io.page_evictions > 0, "nothing was ever spilled");
        assert!(out.io.page_faults > 0, "nothing was ever faulted back");
        assert!(out.io.page_refs >= out.io.page_faults);
        assert!(
            out.memory.page_spill.peak_bytes > 0,
            "spill file never sampled"
        );
        assert!(
            out.memory.overrun_bytes() == 0,
            "resident bytes overran budget M by {}",
            out.memory.overrun_bytes()
        );
        // Phase boundary: the tree is fully resident and intact.
        assert!(!out.tree.is_paged());
        crate::audit::audit(&out.tree).unwrap();
        assert!((out.tree.total_cf().n() - n as f64).abs() < 1e-6);
    }

    #[test]
    fn out_of_core_outlier_journal_round_trips() {
        let cfg = tiny_config().out_of_core(true);
        let mut b = Phase1Builder::new(&cfg, 2);
        for cf in blobs(500, 4) {
            b.feed(cf);
        }
        // Far singletons: absorption fails at the tiny threshold, so they
        // park on the outlier disk — and its real backing journal.
        for i in 0..8 {
            let j = f64::from(i);
            b.feed_outlier_candidate(Cf::from_point(&Point::xy(1e6 + j * 1e4, -1e6 - j * 1e4)));
        }
        assert!(
            !b.outliers_mut().expect("outliers on").is_empty(),
            "test premise: at least one candidate must have parked"
        );
        let out = b.finish();
        let store = out.outliers.as_ref().expect("outlier handling on");
        let (jw, jr) = store.journal_bytes();
        assert!(jw > 0, "parked entries never hit the journal file");
        assert_eq!(
            jw, jr,
            "finalize must read back (and bit-verify) every journaled byte"
        );
        crate::audit::audit(&out.tree).unwrap();
    }

    #[test]
    fn no_data_lost_without_outlier_handling() {
        let cfg = tiny_config().outliers(false);
        let n = 5000;
        let out = run(&cfg, 2, blobs(n, 4));
        assert!((out.tree.total_cf().n() - n as f64).abs() < 1e-6);
        assert_eq!(out.io.outliers_discarded, 0);
    }

    #[test]
    fn delay_split_defers_rebuilds() {
        let with = run(&tiny_config().delay_split(true), 2, blobs(20_000, 4));
        let without = run(&tiny_config().delay_split(false), 2, blobs(20_000, 4));
        assert!(
            with.io.rebuilds <= without.io.rebuilds,
            "delay-split should not increase rebuilds: {} vs {}",
            with.io.rebuilds,
            without.io.rebuilds
        );
        // Both keep all the data (outlier handling may shave some off; use
        // totals net of discards).
        assert!(with.tree.total_cf().n() > 19_000.0);
    }

    #[test]
    fn noise_points_discarded_as_outliers() {
        // Two dense blobs plus isolated noise points far away. With
        // outlier handling on and memory pressure forcing rebuilds, at
        // least some noise should end up discarded.
        let mut input = blobs(10_000, 2);
        for i in 0..50 {
            let j = f64::from(i);
            input.push(Cf::from_point(&Point::xy(
                5_000.0 + j * 211.0,
                -7_000.0 - j * 173.0,
            )));
        }
        let cfg = tiny_config();
        let out = run(&cfg, 2, input);
        assert!(
            out.io.outliers_discarded > 0,
            "expected discarded outliers, io={:?}",
            out.io
        );
        // The blobs themselves survive.
        assert!(out.tree.total_cf().n() >= 10_000.0 - 1.0);
    }

    #[test]
    fn disk_counters_populate_under_pressure() {
        let out = run(&tiny_config(), 2, blobs(20_000, 4));
        // With both options on and rebuilds happening, the simulated disk
        // must see traffic.
        assert!(out.io.disk_writes > 0, "io={:?}", out.io);
    }

    #[test]
    fn empty_input_yields_empty_tree() {
        let out = run(&BirchConfig::with_clusters(1), 2, Vec::new());
        assert_eq!(out.points_scanned, 0);
        assert_eq!(out.tree.leaf_entry_count(), 0);
    }

    #[test]
    fn weighted_subclusters_accepted() {
        let cfg = BirchConfig::with_clusters(2);
        let mut input = Vec::new();
        for i in 0..100 {
            let p = Point::xy(f64::from(i % 10), 0.0);
            input.push(Cf::from_weighted_point(&p, 2.5));
        }
        let out = run(&cfg, 2, input);
        assert!((out.tree.total_cf().n() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn peak_pages_recorded() {
        let out = run(&tiny_config(), 2, blobs(20_000, 4));
        assert!(out.io.peak_pages > 0);
        assert!(out.io.peak_pages >= out.tree.node_count());
    }

    #[test]
    fn peak_pages_bounded_by_budget_plus_height() {
        // The memory budget is only ever exceeded by the one-page insert
        // overshoot plus the rebuild transient (≤ h pages, Reducibility
        // Theorem) — even with delay-split drains in the mix.
        let cfg = tiny_config();
        let out = run(&cfg, 2, blobs(30_000, 4));
        let budget_pages = cfg.memory_bytes / cfg.page_bytes;
        let slack = out.tree.height() + 1;
        assert!(
            out.io.peak_pages <= budget_pages + slack,
            "peak {} > budget {} + slack {}",
            out.io.peak_pages,
            budget_pages,
            slack
        );
    }
}
