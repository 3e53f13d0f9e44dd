//! The traced run: the pipeline rebuilt from the public phase functions,
//! each call timed and its heap peak counted from outside, and checked
//! bit for bit against an untraced `Birch::fit` of the same input.

use crate::alloc;
use crate::fit::{self, cf_words};
use crate::stats::{grouped_quantile, Samples};
use crate::workload::Input;
use birch_core::hierarchical::HacStats;
use birch_core::phase1::{Phase1Builder, Phase1Output};
use birch_core::phase4::Phase4Config;
use birch_core::{parallel, phase1, phase2, phase3, phase4, BirchConfig, Cf, NoopSink, Point};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Workers of the parallel half of the speedup pair: `ds1_1m_t2`'s own
/// thread count.
const PAIR_THREADS: usize = 2;

/// A feed call slower than this counts as a stall (a rebuild, or a burst
/// of page faults).
const STALL_NS: u64 = 1_000_000;

struct Timed<T> {
    out: T,
    wall: Duration,
    /// Peak heap bytes during the call, above what was live before it.
    heap: usize,
}

fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let base = alloc::start();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed();
    Timed {
        out,
        wall,
        heap: alloc::peak_since(base),
    }
}

/// The configuration `Birch::fit` runs with: its dataset-size hint filled in.
fn effective(config: &BirchConfig, n: usize) -> BirchConfig {
    match config.total_points_hint {
        Some(_) => config.clone(),
        None => config.clone().total_points(n as u64),
    }
}

/// What the serial Phase-1 scan reports to the `phase1.*` and `pager.*`
/// metrics, taken before its tree moves on to Phase 2.
struct Phase1Probe {
    heap: usize,
    rebuilds: u64,
    splits: u64,
    distance_calls: u64,
    leaf_entries: usize,
    dropped: f64,
    page_refs: u64,
    page_faults: u64,
    page_evictions: u64,
}

impl Phase1Probe {
    fn of(p1: &Timed<Phase1Output>, n: usize) -> Self {
        let out = &p1.out;
        Self {
            heap: p1.heap,
            rebuilds: out.io.rebuilds,
            splits: out.io.splits,
            distance_calls: out.metrics.distance_calls,
            leaf_entries: out.tree.leaf_entry_count(),
            dropped: n as f64 - out.tree.total_cf().n(),
            page_refs: out.io.page_refs,
            page_faults: out.io.page_faults,
            page_evictions: out.io.page_evictions,
        }
    }

    /// Records the probe, with the scan's per-call times in `feed_ns`.
    fn record(&self, feed_ns: &mut [u64], memory_bytes: usize, s: &mut Samples) {
        feed_ns.sort_unstable();
        let stalls = feed_ns.len() - feed_ns.partition_point(|&t| t <= STALL_NS);
        s.push("phase1.feed_ns_p50", grouped_quantile(feed_ns, 0.5));
        s.push("phase1.feed_ns_p999", grouped_quantile(feed_ns, 0.999));
        s.push("phase1.stalls_1ms", stalls as f64);
        s.push("phase1.rebuilds", self.rebuilds as f64);
        s.push("phase1.splits", self.splits as f64);
        s.push("phase1.distance_calls", self.distance_calls as f64);
        s.push("phase1.leaf_entries", self.leaf_entries as f64);
        s.push("phase1.peak_heap_bytes", self.heap as f64);
        s.push("phase1.heap_over_m", self.heap as f64 / memory_bytes as f64);
        s.push("phase1.points_dropped", self.dropped);
        let miss_ratio = if self.page_refs == 0 {
            0.0
        } else {
            self.page_faults as f64 / self.page_refs as f64
        };
        s.push("pager.page_refs", self.page_refs as f64);
        s.push("pager.page_faults", self.page_faults as f64);
        s.push("pager.miss_ratio", miss_ratio);
        s.push("pager.page_evictions", self.page_evictions as f64);
    }
}

/// The serial Phase-1 scan, `Phase1Builder::feed_point` timed per call
/// into `feed_ns` (one clock read per point) and `finish` included.
fn serial_phase1(
    cfg: &BirchConfig,
    points: &[Point],
    feed_ns: &mut Vec<u64>,
) -> (Timed<Phase1Output>, Phase1Probe) {
    feed_ns.clear();
    feed_ns.reserve(points.len());
    let p1 = timed(|| {
        let mut b = Phase1Builder::new(cfg, points[0].dim());
        let mut prev = Instant::now();
        for p in points {
            b.feed_point(p);
            let now = Instant::now();
            feed_ns.push(u64::try_from((now - prev).as_nanos()).unwrap_or(u64::MAX));
            prev = now;
        }
        b.finish()
    });
    let probe = Phase1Probe::of(&p1, points.len());
    (p1, probe)
}

/// The rebuilt pipeline's outputs and the walls of its calls.
struct Pipeline {
    clusters: Vec<Cf>,
    labels: Vec<Option<usize>>,
    wall: Duration,
    phase1_wall: Duration,
    /// Present when Phase 1 ran serially (and so was traced per call).
    phase1: Option<Phase1Probe>,
    phase2_wall: Duration,
    entries_out: usize,
    phase3_wall: Duration,
    phase3_heap: usize,
    hac: Option<HacStats>,
    phase4_wall: Duration,
    phase4_heap: usize,
    seeds: usize,
}

/// `Birch::fit` rebuilt from its phase functions, in its order and with
/// its arguments.
fn pipeline(input: &Input, cfg: &BirchConfig, feed_ns: &mut Vec<u64>) -> Pipeline {
    let points = &input.points;
    let n = points.len();
    let threads = cfg.threads.min(n).max(1);
    let t0 = Instant::now();

    let (tree, mut estimator, mut io, phase1_wall, phase1) = if threads > 1 {
        let p1 = timed(|| {
            parallel::run_with_sink(cfg, points[0].dim(), points, None, threads, &mut NoopSink)
        });
        let out = p1.out;
        (out.tree, out.estimator, out.io, p1.wall, None)
    } else {
        let (p1, probe) = serial_phase1(cfg, points, feed_ns);
        let out = p1.out;
        (out.tree, out.estimator, out.io, p1.wall, Some(probe))
    };

    let t2 = Instant::now();
    let tree = if cfg.phase2 && tree.leaf_entry_count() > cfg.phase2_max_entries {
        phase2::condense_with_sink(
            tree,
            cfg.phase2_max_entries,
            &mut estimator,
            None,
            &mut io,
            &mut NoopSink,
        )
    } else {
        tree
    };
    let phase2_wall = t2.elapsed();
    let entries_out = tree.leaf_entry_count();

    let entries = tree.into_leaf_entries();
    let p3 =
        timed(|| phase3::global_cluster_with(entries, cfg.metric, cfg.clusters, cfg.global_method));
    let seeds = p3.out.clusters.len();
    let p4 = timed(|| {
        phase4::refine(
            points,
            None,
            &p3.out.clusters,
            Phase4Config {
                passes: cfg.phase4_passes,
                outlier_factor: cfg.phase4_outlier_factor,
            },
        )
    });
    let phase4::Phase4Result {
        labels, clusters, ..
    } = p4.out;
    let clusters = clusters.into_iter().filter(|c| !c.is_empty()).collect();
    let wall = t0.elapsed();

    Pipeline {
        clusters,
        labels,
        wall,
        phase1_wall,
        phase1,
        phase2_wall,
        entries_out,
        phase3_wall: p3.wall,
        phase3_heap: p3.heap,
        hac: p3.out.hac,
        phase4_wall: p4.wall,
        phase4_heap: p4.heap,
        seeds,
    }
}

/// One traced repetition: an untraced `Birch::fit`, the traced pipeline,
/// and one serial/parallel Phase-1 pair, the order of each two alternating
/// with `index`. Returns the check outcome of the fit and of the pipeline.
pub fn rep(
    input: &Input,
    index: usize,
    feed_ns: &mut Vec<u64>,
    s: &mut Samples,
) -> [Result<(), String>; 2] {
    let points = &input.points;
    let n = points.len();
    let cfg = effective(&input.config, n);
    let even = index.is_multiple_of(2);

    let mut run_traced = || {
        catch_unwind(AssertUnwindSafe(|| pipeline(input, &cfg, feed_ns)))
            .map_err(|_| "traced pipeline panicked".to_string())
    };
    let (untraced, traced) = if even {
        let untraced = fit::run(input);
        (untraced, run_traced())
    } else {
        let traced = run_traced();
        (fit::run(input), traced)
    };

    let fit_outcome = untraced
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|f| fit::check(&f.cfs(), f.model.labels(), n, input.k));
    let traced_outcome = traced.as_ref().map_err(Clone::clone).and_then(|t| {
        fit::check(&t.clusters, Some(&t.labels), n, input.k)?;
        let f = untraced
            .as_ref()
            .map_err(|_| "no untraced fit to compare with")?;
        if cf_words(&t.clusters) != cf_words(&f.cfs()) {
            return Err("traced cluster CFs differ from Birch::fit".to_string());
        }
        if f.model.labels() != Some(t.labels.as_slice()) {
            return Err("traced labels differ from Birch::fit".to_string());
        }
        Ok(())
    });

    if let (Ok(f), Ok(t)) = (&untraced, &traced) {
        record_pipeline(t, f.wall, n, s);
        // A parallel fit has no serial scan to trace: run one for `phase1.*`.
        let own;
        let probe = match &t.phase1 {
            Some(p) => p,
            None => {
                own = serial_phase1(&cfg, points, feed_ns).1;
                &own
            }
        };
        probe.record(feed_ns, input.config.memory_bytes, s);
    }
    // Free both outputs' label vectors before the pair runs.
    drop(untraced);
    drop(traced);
    phase1_pair(&cfg, points, even, s);
    [fit_outcome, traced_outcome]
}

fn record_pipeline(t: &Pipeline, untraced_wall: Duration, n: usize, s: &mut Samples) {
    let secs = Duration::as_secs_f64;
    let (evaluated, pruned) = t
        .hac
        .as_ref()
        .map_or((0, 0), |h| (h.pairs_evaluated, h.pairs_pruned));
    let candidates = evaluated + pruned;
    let attributed = t.phase1_wall + t.phase2_wall + t.phase3_wall + t.phase4_wall;
    s.push("phase2.wall_s", secs(&t.phase2_wall));
    s.push("phase2.entries_out", t.entries_out as f64);
    s.push("phase3.wall_s", secs(&t.phase3_wall));
    s.push("phase3.pairs_evaluated", evaluated as f64);
    s.push(
        "phase3.prune_ratio",
        if candidates == 0 {
            0.0
        } else {
            pruned as f64 / candidates as f64
        },
    );
    s.push("phase3.peak_heap_bytes", t.phase3_heap as f64);
    s.push("phase4.wall_s", secs(&t.phase4_wall));
    s.push(
        "phase4.ns_per_point_seed",
        t.phase4_wall.as_nanos() as f64 / (n * t.seeds.max(1)) as f64,
    );
    s.push("phase4.peak_heap_bytes", t.phase4_heap as f64);
    s.push(
        "trace.overhead_pct",
        (secs(&t.wall) / secs(&untraced_wall) - 1.0) * 100.0,
    );
    s.push("trace.unattributed_s", secs(&(t.wall - attributed)));
}

/// The plain serial scan and the plain parallel build, back to back.
fn phase1_pair(cfg: &BirchConfig, points: &[Point], serial_first: bool, s: &mut Samples) {
    let dim = points[0].dim();
    let serial = || timed(|| phase1::run_points_with_sink(cfg, dim, points, None, NoopSink)).wall;
    let sharded =
        || timed(|| parallel::run_with_sink(cfg, dim, points, None, PAIR_THREADS, &mut NoopSink));
    let (serial_wall, par) = if serial_first {
        let w = serial();
        (w, sharded())
    } else {
        let p = sharded();
        (serial(), p)
    };
    s.push("phase1.wall_s", serial_wall.as_secs_f64());
    s.push("parallel.wall_s", par.wall.as_secs_f64());
    s.push(
        "parallel.speedup_vs_serial",
        serial_wall.as_secs_f64() / par.wall.as_secs_f64(),
    );
    s.push("parallel.rebuilds", par.out.io.rebuilds as f64);
    s.push(
        "parallel.points_dropped",
        points.len() as f64 - par.out.tree.total_cf().n(),
    );
}
