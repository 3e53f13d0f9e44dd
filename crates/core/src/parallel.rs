//! Parallel sharded Phase 1: multi-threaded CF-tree construction with an
//! additivity-based merge (paper §7, "opportunities for parallelism").
//!
//! The CF Additivity Theorem (§4.1) makes data-parallel construction
//! *exact*: for disjoint shards `A` and `B`, `CF(A ∪ B) = CF(A) + CF(B)`,
//! so a CF-tree built per shard and then merged leaf-by-leaf summarizes
//! precisely the same data as one sequential scan. The plan:
//!
//! 1. **Shard** — the point stream is split into `n` contiguous chunks,
//!    one per worker thread (`std::thread::scope`; no runtime deps).
//! 2. **Build** — each worker runs the existing [`Phase1Builder`] over
//!    its shard with the shared starting threshold `T0`, its own outlier
//!    disk, and the full page budget `M` (a shard of a randomized stream
//!    spans the same cluster structure as the whole dataset, so an `M/n`
//!    share would push shard thresholds far past the serial run's and
//!    permanently coarsen the result; the transient `n × M` aggregate is
//!    reported honestly — see `peak_pages` below). Workers raise their
//!    thresholds independently via the §5.1.2 heuristics.
//! 3. **Merge** — a pairwise *tournament reduction*: while more than two
//!    shard trees remain, adjacent trees are merged two at a time, each
//!    pair on its own scoped thread (additivity makes every bracket
//!    exact, so the tournament computes the same total CF as a serial
//!    left fold, but the reduction depth is ⌈log₂ n⌉ rounds instead of an
//!    `n`-long serial tail). Each pair merge starts at the *maximum* of
//!    its two input thresholds (so every incoming entry satisfies the
//!    leaf-threshold invariant); the final ≤2-tree merge runs on the
//!    coordinator with the live event sink and, if it overflows the page
//!    budget, the ordinary rebuild machinery raises `T` further. Shard
//!    outliers are **not** discarded by the shards — an entry that looks
//!    sparse inside one shard may be dense in the union — and are *not*
//!    re-judged mid-bracket either (a half-merged tree is no better a
//!    judge than a shard): they accumulate through the rounds and get
//!    exactly one re-absorption pass against the final full tree before
//!    the usual end-of-scan disposition.
//!
//! Exactness invariant: with outlier handling off (nothing discarded),
//! the final tree's total CF equals the dataset's total CF *exactly* in
//! `N` and to float round-off in `μ`/`SSE`, for every shard count — the
//! property tests pin this down. What *can* differ from the serial scan
//! is the partition of that total into leaf entries: shards see less
//! data, so their thresholds may settle differently than one scan's, and
//! merge-time threshold raises coarsen further (see DESIGN.md).
//!
//! Telemetry: each worker carries its own [`crate::obs::MetricsRecorder`]; the
//! per-shard wall time, rebuild count, and threshold trajectory are
//! surfaced as [`ShardReport`]s so `--metrics-json` exposes shard skew,
//! while the aggregated counters fold into one [`MetricsReport`].

use crate::cf::Cf;
use crate::config::BirchConfig;
use crate::obs::mem::MemoryGauge;
use crate::obs::span::{self, SpanReport};
use crate::obs::{Counters, EventSink, MetricsReport, NoopSink, ShardReport};
use crate::phase1::{Phase1Builder, Phase1Output};
use crate::point::Point;
use crate::threshold::ThresholdEstimator;
use crate::tree::CfTree;
use std::time::{Duration, Instant};

/// Everything the parallel Phase 1 produces — the serial
/// [`Phase1Output`] fields plus the per-shard telemetry.
#[derive(Debug)]
pub struct ParallelPhase1Output {
    /// The final merged CF-tree (fits the full memory budget).
    pub tree: CfTree,
    /// The build's run counters: a copy of `metrics.counters`. Counts
    /// are summed across shards and merge; `peak_pages` is the
    /// *concurrent* peak — the sum of the shard peaks (the shards run at
    /// the same time), maxed with the merge stage's peak.
    pub io: Counters,
    /// Input records scanned across all shards.
    pub points_scanned: u64,
    /// The merge stage's threshold estimator, carrying its r–N history
    /// forward so Phase 2 can continue the same sequence.
    pub estimator: ThresholdEstimator,
    /// Aggregated telemetry across every shard and the merge stage.
    pub metrics: MetricsReport,
    /// Per-shard telemetry, in shard (input) order.
    pub shards: Vec<ShardReport>,
    /// Wall time of the merge stage alone (every tournament round plus
    /// the final merge).
    pub merge_wall: Duration,
    /// Wall time of each parallel tournament round, outermost first
    /// (empty when ≤ 2 shards — the reduction degenerates to the final
    /// merge). Each round also appears as a `merge_round_i` span.
    pub merge_round_walls: Vec<Duration>,
    /// Combined byte accounting: shard gauges folded *concurrently*
    /// (peaks sum — the workers coexist), the merge stage folded
    /// *sequentially* (peaks max).
    pub memory: MemoryGauge,
}

/// Runs the sharded Phase 1 over `points` (optionally weighted) with
/// `threads` workers. `threads` is clamped to the number of points;
/// `threads == 1` (after clamping) still goes through the same code path
/// but with a single shard — callers wanting the byte-identical serial
/// scan should dispatch to [`crate::phase1::run`] instead (as
/// [`Birch::fit`] does).
///
/// `sink` receives the *merge stage's* events live. Shard events are
/// aggregated per worker (a `&mut` sink cannot be shared across threads)
/// and folded into [`ParallelPhase1Output::metrics`] and
/// [`ParallelPhase1Output::shards`] when the workers join.
///
/// [`Birch::fit`]: crate::Birch::fit
///
/// # Panics
///
/// Panics if `threads == 0`, if the configuration is invalid, if
/// `points` is empty, or if a weights slice of mismatched length is
/// supplied.
pub fn run_with_sink<S: EventSink>(
    config: &BirchConfig,
    dim: usize,
    points: &[Point],
    weights: Option<&[f64]>,
    threads: usize,
    sink: &mut S,
) -> ParallelPhase1Output {
    assert!(threads >= 1, "need at least one thread");
    assert!(!points.is_empty(), "cannot shard an empty dataset");
    if let Some(w) = weights {
        assert_eq!(w.len(), points.len(), "weights/points length mismatch");
    }
    config.validate();

    let threads = threads.min(points.len());
    let chunk = points.len().div_ceil(threads);

    // Each worker runs under the FULL page budget `M`, not `M/n`: a
    // shard of a randomized stream covers the same cluster structure as
    // the whole dataset, so its summary needs as many leaf entries as a
    // full scan's — splitting the budget would force every shard's
    // threshold far past the serial run's and permanently coarsen the
    // merged tree. The cost is a transient aggregate footprint of up to
    // `n × M` while the workers run (reported honestly: the combined
    // `peak_pages` is the *sum* of the shard peaks); the merged tree is
    // the one that must fit `M`. Workers only get their own shard-sized
    // growth target and outlier disk.
    let shard_config = config.clone().total_points(chunk as u64).threads(1);

    // ---- Fan out: one Phase1Builder per contiguous shard. ----
    // Span profiling is a thread-local switch: each worker inherits the
    // coordinator's setting, times its shard under a `shard` span, and
    // ships the frozen report back for grafting into the run's tree.
    let profiled = span::enabled();
    let shard_runs: Vec<ShardRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = points
            .chunks(chunk)
            .enumerate()
            .map(|(i, part)| {
                let cfg = &shard_config;
                let wpart = weights.map(|w| &w[i * chunk..(i * chunk + part.len())]);
                scope.spawn(move || {
                    span::set_enabled(profiled);
                    let started = Instant::now();
                    let sp = span::enter("shard");
                    let mut b = Phase1Builder::new(cfg, dim);
                    match wpart {
                        Some(w) => {
                            for (p, &wi) in part.iter().zip(w) {
                                b.feed_weighted_point(p, wi);
                            }
                        }
                        None => {
                            for p in part {
                                b.feed_point(p);
                            }
                        }
                    }
                    let (out, carried) = b.finish_keeping_outliers();
                    drop(sp);
                    let spans = profiled.then(span::take_report);
                    (out, carried, started.elapsed(), spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("phase-1 shard worker panicked"))
            .collect()
    });

    merge_shards(config, dim, points.len() as u64, shard_runs, sink)
}

/// Like [`run_with_sink`] with a [`NoopSink`].
///
/// # Panics
///
/// Same as [`run_with_sink`].
pub fn run(
    config: &BirchConfig,
    dim: usize,
    points: &[Point],
    threads: usize,
) -> ParallelPhase1Output {
    run_with_sink(config, dim, points, None, threads, &mut NoopSink)
}

/// One worker's result: Phase-1 output, carried outliers, wall time,
/// and the shard's frozen span tree (when profiling is on).
type ShardRun = (Phase1Output, Vec<Cf>, Duration, Option<SpanReport>);

/// One tournament participant: a partially merged tree plus the outlier
/// CFs accumulated (but not yet re-judged) along its bracket.
struct MergeItem {
    tree: CfTree,
    carried: Vec<Cf>,
}

/// Static span names for the tournament rounds (`span::enter` needs
/// `&'static str`); six names cover ≤ 128 shards, deeper brackets share
/// the last name.
const MERGE_ROUND_SPANS: [&str; 6] = [
    "merge_round_0",
    "merge_round_1",
    "merge_round_2",
    "merge_round_3",
    "merge_round_4",
    "merge_round_5",
];

fn round_span_name(round: usize) -> &'static str {
    MERGE_ROUND_SPANS
        .get(round)
        .copied()
        .unwrap_or(MERGE_ROUND_SPANS[MERGE_ROUND_SPANS.len() - 1])
}

/// Merges two tournament items into one: feed both trees' leaf entries
/// into a fresh full-budget builder whose threshold dominates both
/// inputs, keep (don't judge) the accumulated outliers.
fn merge_pair(
    config: &BirchConfig,
    dim: usize,
    total_points: u64,
    a: MergeItem,
    b: MergeItem,
) -> (Phase1Output, Vec<Cf>) {
    let t_start = a
        .tree
        .threshold()
        .max(b.tree.threshold())
        .max(config.initial_threshold);
    let pair_config = config
        .clone()
        .initial_threshold(t_start)
        .total_points(total_points)
        .threads(1);
    let mut builder = Phase1Builder::new(&pair_config, dim);
    for cf in a.tree.into_leaf_entries() {
        builder.feed(cf);
    }
    for cf in b.tree.into_leaf_entries() {
        builder.feed(cf);
    }
    let (out, kept) = builder.finish_keeping_outliers();
    let mut carried = a.carried;
    carried.extend(b.carried);
    carried.extend(kept);
    (out, carried)
}

/// The merge stage: a pairwise tournament reduction over the shard
/// trees (additivity makes every bracket exact), finishing with a
/// coordinator-side merge of the last ≤ 2 trees plus one re-absorption
/// pass for every bracket-carried outlier, assembling the combined
/// telemetry along the way.
fn merge_shards<S: EventSink>(
    config: &BirchConfig,
    dim: usize,
    total_points: u64,
    shard_runs: Vec<ShardRun>,
    sink: &mut S,
) -> ParallelPhase1Output {
    // Graft every shard's span tree under whatever span is open on the
    // coordinator (the pipeline's `phase1`), before any merge span opens.
    for (_, _, _, spans) in &shard_runs {
        if let Some(r) = spans {
            span::merge_report(r);
        }
    }

    let mut metrics = MetricsReport::default();
    let mut shards = Vec::with_capacity(shard_runs.len());
    let mut shard_peak_sum = 0usize;
    let mut memory = MemoryGauge::with_budget(config.memory_bytes as u64);

    let merge_started = Instant::now();
    let mut items: Vec<MergeItem> = Vec::with_capacity(shard_runs.len());
    for (i, (out, carried, wall, _)) in shard_runs.into_iter().enumerate() {
        shards.push(ShardReport {
            shard: i,
            points: out.points_scanned,
            wall,
            rebuilds: out.metrics.rebuilds,
            final_threshold: out.tree.threshold(),
            leaf_entries: out.tree.leaf_entry_count(),
            peak_pages: out.metrics.peak_pages,
            splits: out.metrics.splits,
            outliers_carried: carried.len() as u64,
            threshold_trajectory: out.metrics.threshold_trajectory.clone(),
        });
        shard_peak_sum += out.metrics.peak_pages;
        metrics.absorb(&out.metrics);
        memory.absorb_concurrent(&out.memory);
        items.push(MergeItem {
            tree: out.tree,
            carried,
        });
    }

    // ---- Tournament rounds: halve the tree count per round, pairs in
    // parallel. The serial left fold this replaces re-inserted every
    // shard's entries one shard at a time on the coordinator; here round
    // `r` runs its pair merges concurrently, so the reduction's critical
    // path is ⌈log₂ n⌉ pair merges instead of n−1.
    let profiled = span::enabled();
    let mut peak_pages_floor = shard_peak_sum;
    let mut merge_round_walls = Vec::new();
    let mut round = 0usize;
    while items.len() > 2 {
        let round_started = Instant::now();
        let span_name = round_span_name(round);
        let mut next: Vec<MergeItem> = Vec::with_capacity(items.len().div_ceil(2));
        let mut pairs: Vec<(MergeItem, MergeItem)> = Vec::with_capacity(items.len() / 2);
        let mut it = items.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => pairs.push((a, b)),
                // Odd tree out: a bye straight into the next round.
                None => next.push(a),
            }
        }
        let outputs: Vec<(Phase1Output, Vec<Cf>, Option<SpanReport>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = pairs
                    .into_iter()
                    .map(|(a, b)| {
                        scope.spawn(move || {
                            span::set_enabled(profiled);
                            let sp = span::enter(span_name);
                            let (out, carried) = merge_pair(config, dim, total_points, a, b);
                            drop(sp);
                            let spans = profiled.then(span::take_report);
                            (out, carried, spans)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("merge-round worker panicked"))
                    .collect()
            });
        // Pairs within a round coexist (peaks sum); rounds are sequential
        // against each other and the shard stage (peaks max).
        let mut round_mem = MemoryGauge::with_budget(config.memory_bytes as u64);
        let mut round_peak_sum = 0usize;
        for (out, carried, spans) in outputs {
            if let Some(r) = &spans {
                span::merge_report(r);
            }
            round_peak_sum += out.metrics.peak_pages;
            metrics.absorb(&out.metrics);
            round_mem.absorb_concurrent(&out.memory);
            next.push(MergeItem {
                tree: out.tree,
                carried,
            });
        }
        memory.absorb_sequential(&round_mem);
        peak_pages_floor = peak_pages_floor.max(round_peak_sum);
        merge_round_walls.push(round_started.elapsed());
        items = next;
        round += 1;
    }

    // ---- Final: merge the last ≤ 2 trees on the coordinator (live
    // sink), then give every bracket-carried outlier its one chance
    // against the full tree before the usual end-of-scan disposition
    // (§5.1.3).
    let t_start = items
        .iter()
        .map(|item| item.tree.threshold())
        .fold(config.initial_threshold, f64::max);
    let merge_config = config
        .clone()
        .initial_threshold(t_start)
        .total_points(total_points)
        .threads(1);
    let sp_merge = span::enter("merge");
    let mut builder = Phase1Builder::with_sink(&merge_config, dim, &mut *sink);
    let mut carried_outliers = Vec::new();
    for item in items {
        for cf in item.tree.into_leaf_entries() {
            builder.feed(cf);
        }
        carried_outliers.extend(item.carried);
    }
    for cf in carried_outliers {
        builder.feed_outlier_candidate(cf);
    }
    let merged = builder.finish();
    merged.tree.strict_audit("merge_shards");
    drop(sp_merge);
    let merge_wall = merge_started.elapsed();

    metrics.absorb(&merged.metrics);
    memory.absorb_sequential(&merged.memory);
    // Honest in-memory peak: concurrent stages sum (shards; pairs within
    // a round), sequential stages max — whichever stage peaked highest.
    metrics.counters.peak_pages = peak_pages_floor.max(merged.metrics.peak_pages);

    ParallelPhase1Output {
        tree: merged.tree,
        io: metrics.counters,
        points_scanned: total_points,
        estimator: merged.estimator,
        metrics,
        shards,
        merge_wall,
        merge_round_walls,
        memory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase1;

    /// Deterministic scatter of `n` points over `k` well-separated blobs.
    fn blobs(n: usize, k: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let c = (i % k) as f64 * 100.0;
                let j = i as f64;
                Point::xy(c + (j * 0.7).sin() * 2.0, c + (j * 1.3).cos() * 2.0)
            })
            .collect()
    }

    fn total_cf_of(points: &[Point]) -> Cf {
        let mut cf = Cf::empty(2);
        for p in points {
            cf.add_point(p);
        }
        cf
    }

    #[test]
    fn merged_total_cf_matches_dataset() {
        let pts = blobs(5000, 4);
        let cfg = BirchConfig::with_clusters(4)
            .memory(8 * 1024)
            .page_size(1024)
            .outliers(false);
        for threads in [1, 2, 3, 4] {
            let out = run(&cfg, 2, &pts, threads);
            let expect = total_cf_of(&pts);
            let got = out.tree.total_cf();
            assert_eq!(got.n(), expect.n(), "threads={threads}");
            for (a, b) in got.mean().iter().zip(expect.mean()) {
                assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()), "threads={threads}");
            }
            assert!(
                (got.sse() - expect.sse()).abs() < 1e-6 * (1.0 + expect.sse()),
                "threads={threads}"
            );
            out.tree.check_invariants().unwrap();
        }
    }

    #[test]
    fn shard_reports_cover_all_points() {
        let pts = blobs(2000, 4);
        let cfg = BirchConfig::with_clusters(4).memory(8 * 1024);
        let out = run(&cfg, 2, &pts, 4);
        assert_eq!(out.shards.len(), 4);
        let total: u64 = out.shards.iter().map(|s| s.points).sum();
        assert_eq!(total, 2000);
        for (i, s) in out.shards.iter().enumerate() {
            assert_eq!(s.shard, i);
            assert!(s.leaf_entries > 0);
            assert!(s.final_threshold >= 0.0);
        }
        assert_eq!(out.points_scanned, 2000);
    }

    #[test]
    fn merge_threshold_dominates_shards() {
        let pts = blobs(10_000, 4);
        let cfg = BirchConfig::with_clusters(4)
            .memory(8 * 1024)
            .page_size(1024);
        let out = run(&cfg, 2, &pts, 4);
        let max_shard_t = out
            .shards
            .iter()
            .map(|s| s.final_threshold)
            .fold(0.0, f64::max);
        assert!(
            out.tree.threshold() >= max_shard_t,
            "merged T {} < max shard T {max_shard_t}",
            out.tree.threshold()
        );
        out.tree.check_invariants().unwrap();
    }

    #[test]
    fn final_tree_fits_budget() {
        let pts = blobs(20_000, 4);
        let cfg = BirchConfig::with_clusters(4)
            .memory(8 * 1024)
            .page_size(1024);
        let out = run(&cfg, 2, &pts, 4);
        assert!(
            out.tree.node_count() <= cfg.memory_bytes / cfg.page_bytes,
            "merged tree {} pages over budget",
            out.tree.node_count()
        );
    }

    #[test]
    fn concurrent_peak_is_sum_of_shard_peaks() {
        let pts = blobs(20_000, 4);
        let cfg = BirchConfig::with_clusters(4)
            .memory(8 * 1024)
            .page_size(1024);
        let out = run(&cfg, 2, &pts, 4);
        let sum: usize = out.shards.iter().map(|s| s.peak_pages).sum();
        assert!(out.metrics.peak_pages >= sum.min(out.metrics.peak_pages));
        assert!(out.metrics.peak_pages >= out.tree.node_count());
    }

    #[test]
    fn carried_outliers_rejudged_not_lost_silently() {
        // Noise in close pairs: with outlier handling on, each pair lands
        // in one leaf entry of two points, which the shard parks and the
        // merge discards. The merge must account for every point as either
        // kept in the tree or counted discarded, so a discarded entry
        // counts its N, not one.
        let mut pts = blobs(8_000, 2);
        for i in 0..40 {
            let j = f64::from(i);
            let (x, y) = (5_000.0 + j * 211.0, -7_000.0 - j * 173.0);
            pts.push(Point::xy(x, y));
            pts.push(Point::xy(x + 0.01, y));
        }
        let cfg = BirchConfig::with_clusters(2)
            .memory(8 * 1024)
            .page_size(1024);
        let out = run(&cfg, 2, &pts, 4);
        let kept = out.tree.total_cf().n();
        let discarded = out.metrics.outliers_discarded;
        assert!(discarded >= 2.0, "no pair was discarded: {discarded}");
        assert_eq!(
            kept + discarded,
            pts.len() as f64,
            "kept {kept} + discarded {discarded} != {}",
            pts.len()
        );
    }

    #[test]
    fn weighted_shards_preserve_total_weight() {
        let pts = blobs(1000, 2);
        let weights: Vec<f64> = (0..1000).map(|i| 1.0 + (i % 3) as f64).collect();
        let cfg = BirchConfig::with_clusters(2).outliers(false);
        let out = run_with_sink(&cfg, 2, &pts, Some(&weights), 4, &mut NoopSink);
        let expect: f64 = weights.iter().sum();
        assert!((out.tree.total_cf().n() - expect).abs() < 1e-9);
    }

    #[test]
    fn tournament_rounds_reported_and_bounded_by_merge_wall() {
        let pts = blobs(6000, 3);
        let cfg = BirchConfig::with_clusters(3).outliers(false);
        // 6 shards → 3 → 2 → final: two parallel rounds.
        let out = run(&cfg, 2, &pts, 6);
        assert_eq!(out.merge_round_walls.len(), 2);
        let rounds: Duration = out.merge_round_walls.iter().sum();
        assert!(
            rounds <= out.merge_wall,
            "rounds {rounds:?} exceed merge wall {:?}",
            out.merge_wall
        );
        // ≤ 2 shards need no tournament at all.
        let out2 = run(&cfg, 2, &pts, 2);
        assert!(out2.merge_round_walls.is_empty());
    }

    #[test]
    fn tournament_merge_conserves_data_with_odd_bracket() {
        // 5 shards exercises the bye path in both rounds (5 → 3 → 2).
        let pts = blobs(5000, 4);
        let cfg = BirchConfig::with_clusters(4).outliers(false);
        let out = run(&cfg, 2, &pts, 5);
        assert_eq!(out.merge_round_walls.len(), 2);
        let expect = total_cf_of(&pts);
        let got = out.tree.total_cf();
        assert_eq!(got.n(), expect.n());
        for (a, b) in got.mean().iter().zip(expect.mean()) {
            assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
        }
        out.tree.check_invariants().unwrap();
    }

    #[test]
    fn single_shard_matches_serial_phase1_totals() {
        // threads=1 through the parallel path still conserves the data
        // and produces a within-budget tree; Birch::fit short-circuits to
        // the true serial path, but the degenerate shard count must work.
        let pts = blobs(3000, 3);
        let cfg = BirchConfig::with_clusters(3).outliers(false);
        let par = run(&cfg, 2, &pts, 1);
        let ser = phase1::run(&cfg, 2, pts.iter().map(Cf::from_point));
        assert_eq!(par.tree.total_cf().n(), ser.tree.total_cf().n());
        assert_eq!(par.shards.len(), 1);
    }
}
