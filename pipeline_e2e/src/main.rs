//! End-to-end BIRCH benchmark: whole `Birch::fit` calls on five
//! workloads, with fit time, heap, quality and set-up time as the
//! end-to-end metrics, and a separate traced run that breaks a fit down
//! by phase.
//!
//! ```text
//! cargo run --release --manifest-path pipeline_e2e/Cargo.toml -- \
//!     --workload <name|all> [--seed 42] [--seconds 15] [--trace [0|1]] [--scale 1.0]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! Without `--trace` (or with `--trace 0`) the metrics are the end-to-end
//! ones; with `--trace` (or `--trace 1`) they are the per-layer ones. With
//! `--workload all` each metric is prefixed by its workload's name. The
//! lines before it print the same numbers for a reader, with quartiles and
//! sample counts. The exit code is 0 when every output checked out, 1 when
//! one did not, and 2 for a usage error.
//!
//! # Workloads
//!
//! Every input is generated in-process from `--seed`; `--scale` multiplies
//! the points per cluster (the smoke test runs at 0.01). Input sizes count
//! 8 bytes per coordinate and are compared with the memory budget `M`;
//! heap figures are from traced runs on a 2-vCPU Xeon VM.
//!
//! - `ds1_1m`: the paper's DS1 grid at 10× its size, K = 100 × 10,000 =
//!   1M points, Table-2 defaults (M = 80 KB, P = 1 KB, D2, Phase 2 to 1000
//!   entries, one Phase-4 pass), one thread. 16 MB of input, about 200× M.
//!   Phase 1 and Phase 4 do the work and Phase 3 takes milliseconds, so a
//!   Phase-3 change should show no change here. Phase 1 peaks near 10× M
//!   of heap; the fit's peak is the 16 MB Phase-4 label vector.
//! - `ds1_1m_t2`: the same input with `threads(2)`, the only workload
//!   whose fits run the sharded Phase 1 and the tournament merge. It
//!   shows what two workers gain, and what per-shard thresholds cost in
//!   quality.
//! - `grid_k1000`: the DS1 grid pattern with K = 1000 × 200 = 200k points,
//!   M = 1 MB, Phase 2 to 10,000 entries. 3.2 MB of input, about 3× M. The
//!   global phases dominate: Phase 3 agglomerates nearly 10,000 entries
//!   and Phase 4 assigns every point among 1000 seeds.
//! - `blobs_d16`: 100 Gaussian blobs (σ = 1, centres uniform in
//!   [0, 100)^16) of 2000 points, 200k points shuffled, M = 1 MB. 25.6 MB
//!   of input, about 24× M. The only workload with dimension ≥ 5, where the
//!   f64x4 lane kernels run during descent and splits; the others are
//!   2-d and take the serial dimension ≤ 4 paths. Phase 1 sets the peak,
//!   6–7× M.
//! - `ds1_ooc`: the DS1 grid with K = 100 × 500 = 50k points, M = 80 KB,
//!   `out_of_core(true)`. 800 KB of input, about 10× M. The threshold
//!   stays at T0, so the tree keeps one leaf entry per point and grows far
//!   past M; the pager evicts and faults pages (about 70k of each per fit)
//!   instead of rebuilding, and Phase 2 then condenses the large tree.
//!   Phase 1 is about 90% of the fit and holds 160× M of heap.
//!
//! # Spill files
//!
//! `ds1_ooc` spills pages, and every workload writes its CSV for the
//! set-up metric, under `target/pipeline_e2e/<pid>/` below the working
//! directory, removed when the run ends. Pages are written with `pwrite`
//! and never fsynced, and reads come from the OS page cache, so
//! `ds1_ooc` measures the pager's own work and system-call cost, not a
//! storage device's latency.
//!
//! # Load model
//!
//! Closed loop in a single process: one fit at a time, each starting when
//! the last returns, one thread of load. Only `ds1_1m_t2` runs two
//! Phase-1 workers. After one untimed warm-up fit, fits repeat until
//! `--seconds` have passed (at least three), and `fit_s` is their median.
//! `setup_s` is the median load time of the workload's CSV by
//! `birch_datagen::csv::read_points`, the path `birch-cli cluster --input`
//! takes, over at least three loads and until a second has gone into
//! loading. `peak_heap_mb` is the highest heap a fit reached above what was
//! live before it (the input points), counted by this binary's global
//! allocator. `ari` scores the Phase-4 labels against the generator's and
//! `wavg_diameter` is the paper's weighted average cluster diameter D.
//!
//! Every fit is checked: an error or panic, a cluster count other than K,
//! a label missing or out of range, cluster weights not summing to N, or
//! a non-finite centroid fails it. `attempted` counts the fits, the traced
//! pipelines and the CSV loads (each compared with the generated points);
//! `failed` counts those that failed a check.
//!
//! # Host drift
//!
//! Fit times follow the host. On a shared machine whole minutes can run
//! 1.6–1.8× slower with CPU time equal to wall time, which no change to
//! the code explains: on the 2-vCPU Xeon VM above, four back-to-back runs
//! of `ds1_1m` with one seed had median fits from 1.04 to 1.25 s. Compare
//! medians of several runs, alternate the two commits being compared, and
//! treat a set measured during such a period as unresolved rather than as
//! agreement or regression.
//!
//! # Reading the traced output
//!
//! `--trace` repeats, at least three times and until `--seconds` have
//! passed: an untraced fit, the same pipeline rebuilt from the public
//! phase functions and timed call by call from outside
//! (`Phase1Builder::feed_point` per point then `finish`, or
//! `parallel::run_with_sink` for a two-worker fit;
//! `phase2::condense_with_sink`; `phase3::global_cluster_with`;
//! `phase4::refine`), and a plain serial/parallel Phase-1 pair; the order
//! within each two alternates. The rebuilt pipeline's cluster CFs and
//! labels must equal the fit's bit for bit, or the run fails. Each
//! per-layer metric is the median over the repetitions, named
//! `<layer>.<metric>`:
//!
//! - `phase1.*`: the serial scan. `wall_s` is the plain scan of the pair;
//!   the per-call times (`feed_ns_p50`, `feed_ns_p999`, `stalls_1ms`
//!   counting calls over 1 ms) and `peak_heap_bytes` come from the traced
//!   scan, which a two-worker workload runs on the side. `heap_over_m` is
//!   that peak over M.
//! - `parallel.*`: the two-worker build of the pair, on every workload;
//!   `speedup_vs_serial` is the pair's serial wall over its parallel one.
//! - `pager.*`: page references, faults, their ratio and evictions of the
//!   traced serial scan; zero on the in-core workloads.
//! - `phase2.*`, `phase3.*`, `phase4.*`: the traced calls. `prune_ratio`
//!   is the share of candidate pairs Phase 3 skipped by its lower bound;
//!   `ns_per_point_seed` is Phase 4's wall over N × seeds.
//! - `trace.overhead_pct`: the traced pipeline's wall over the untraced
//!   fit's, minus one, in percent; its quartiles show how much of it is
//!   host noise. `trace.unattributed_s`: the traced wall minus the sum of
//!   the four phase walls, the glue between the calls.

mod alloc;
mod fit;
mod stats;
mod trace;
mod workload;

use birch_eval::quality::{adjusted_rand_index, weighted_average_diameter};
use stats::{median, quartiles, Samples};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::Input;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics, printed without `--trace`: (name, unit).
const END_TO_END: [(&str, &str); 5] = [
    ("fit_s", "s"),
    ("peak_heap_mb", "MB"),
    ("ari", "ratio"),
    ("wavg_diameter", "units"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed with `--trace`: (name, unit).
const PER_LAYER: [(&str, &str); 30] = [
    ("phase1.wall_s", "s"),
    ("phase1.feed_ns_p50", "ns"),
    ("phase1.feed_ns_p999", "ns"),
    ("phase1.stalls_1ms", "count"),
    ("phase1.rebuilds", "count"),
    ("phase1.splits", "count"),
    ("phase1.distance_calls", "count"),
    ("phase1.leaf_entries", "count"),
    ("phase1.peak_heap_bytes", "bytes"),
    ("phase1.heap_over_m", "ratio"),
    ("phase1.points_dropped", "count"),
    ("parallel.wall_s", "s"),
    ("parallel.speedup_vs_serial", "ratio"),
    ("parallel.rebuilds", "count"),
    ("parallel.points_dropped", "count"),
    ("pager.page_refs", "count"),
    ("pager.page_faults", "count"),
    ("pager.miss_ratio", "ratio"),
    ("pager.page_evictions", "count"),
    ("phase2.wall_s", "s"),
    ("phase2.entries_out", "count"),
    ("phase3.wall_s", "s"),
    ("phase3.pairs_evaluated", "count"),
    ("phase3.prune_ratio", "ratio"),
    ("phase3.peak_heap_bytes", "bytes"),
    ("phase4.wall_s", "s"),
    ("phase4.ns_per_point_seed", "ns"),
    ("phase4.peak_heap_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_s", "s"),
];

const MIN_TIMED_FITS: usize = 3;
const MIN_TRACE_REPS: usize = 3;
/// Set-up loads per run: at least this many, and more until this much
/// time has gone into loading, so that small inputs get a steady median.
const MIN_SETUP_LOADS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;

const USAGE: &str = "usage: pipeline_e2e --workload <name|all> [--seed n] [--seconds n] \
                     [--trace [0|1]] [--scale f]";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: Duration,
    trace: bool,
    scale: f64,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}\nworkloads: {}", workload::NAMES.join(", "));
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: Duration::from_secs(15),
        trace: false,
        scale: 1.0,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload");
                args.workloads = if name == "all" {
                    workload::NAMES.to_vec()
                } else {
                    match workload::NAMES.iter().find(|&&w| w == name) {
                        Some(&w) => vec![w],
                        None => usage_error(&format!("unknown workload {name:?}")),
                    }
                };
            }
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed must be a u64"));
            }
            "--seconds" => {
                let s: f64 = value("--seconds")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seconds must be a number"));
                if !(s.is_finite() && s >= 0.0) {
                    usage_error("--seconds must be finite and non-negative");
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                // A bare `--trace` means `--trace 1`.
                let explicit = it.peek().and_then(|v| match v.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                });
                args.trace = explicit.unwrap_or(true);
                if explicit.is_some() {
                    it.next();
                }
            }
            "--scale" => {
                args.scale = value("--scale")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--scale must be a number"));
                if !(args.scale.is_finite() && args.scale > 0.0) {
                    usage_error("--scale must be positive");
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}\nworkloads: {}", workload::NAMES.join(", "));
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        usage_error("--workload is required");
    }
    args
}

/// Checked operations of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, what: &str, outcome: &Result<T, String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        }
    }
}

/// The run's scratch directory, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Self {
        let dir = Path::new("target")
            .join("pipeline_e2e")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Loads the workload's CSV repeatedly; returns each load's wall.
fn setup_times(input: &Input, scratch: &Path, tally: &mut Tally) -> Vec<f64> {
    let path = scratch.join("input.csv");
    birch_datagen::csv::write_points(&path, &input.points, None).expect("write the workload CSV");
    let mut times = Vec::new();
    while times.len() < MIN_SETUP_LOADS || times.iter().sum::<f64>() < SETUP_SECONDS {
        let t0 = Instant::now();
        let loaded = birch_datagen::csv::read_points(&path, false);
        times.push(t0.elapsed().as_secs_f64());
        let outcome = match loaded {
            Ok((points, _)) if points == input.points => Ok(()),
            Ok(_) => Err("loaded points differ from the generated ones".to_string()),
            Err(e) => Err(e.to_string()),
        };
        tally.record("CSV load", &outcome);
    }
    let _ = std::fs::remove_file(&path);
    times
}

/// One fit, checked; when it passed, its wall, heap peak in MB, adjusted
/// Rand index against the generator's labels and weighted average
/// diameter.
fn checked_fit(input: &Input, tally: &mut Tally) -> Option<[f64; 4]> {
    let n = input.points.len();
    let outcome = fit::run(input).and_then(|f| {
        let cfs = f.cfs();
        fit::check(&cfs, f.model.labels(), n, input.k)?;
        let labels = f.model.labels().expect("checked");
        Ok([
            f.wall.as_secs_f64(),
            f.heap as f64 / 1e6,
            adjusted_rand_index(labels, &input.truth),
            weighted_average_diameter(&cfs),
        ])
    });
    tally.record("fit", &outcome);
    outcome.ok()
}

/// The untraced run: set-up loads, a warm-up fit, then timed fits.
fn end_to_end(input: &Input, seconds: Duration, scratch: &Path, tally: &mut Tally) -> Samples {
    let mut s = Samples::default();
    for t in setup_times(input, scratch, tally) {
        s.push("setup_s", t);
    }
    checked_fit(input, tally);
    let started = Instant::now();
    let mut fits = 0;
    while fits < MIN_TIMED_FITS || started.elapsed() < seconds {
        fits += 1;
        if let Some([wall, heap_mb, ari, d]) = checked_fit(input, tally) {
            s.push("fit_s", wall);
            s.push("peak_heap_mb", heap_mb);
            s.push("ari", ari);
            s.push("wavg_diameter", d);
        }
    }
    s
}

/// The traced run: a warm-up fit, then traced repetitions.
fn traced(input: &Input, seconds: Duration, tally: &mut Tally) -> Samples {
    let mut s = Samples::default();
    checked_fit(input, tally);
    let mut feed_ns = Vec::with_capacity(input.points.len());
    let started = Instant::now();
    let mut reps = 0;
    while reps < MIN_TRACE_REPS || started.elapsed() < seconds {
        let [fit, pipeline] = trace::rep(input, reps, &mut feed_ns, &mut s);
        tally.record("fit", &fit);
        tally.record("traced pipeline", &pipeline);
        reps += 1;
    }
    s
}

fn main() {
    let args = parse_args();
    let scratch = Scratch::create();
    let metrics = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut tally = Tally::default();
    let mut json = Vec::new();
    let host_cpus = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);

    for &name in &args.workloads {
        let input = workload::build(name, args.seed, args.scale, &scratch.0).expect("known name");
        println!(
            "workload {name}: N={} dim={} K={} M={} KB threads={} seed={} host_cpus={host_cpus}{}",
            input.points.len(),
            input.points[0].dim(),
            input.k,
            input.config.memory_bytes / 1024,
            input.config.threads,
            args.seed,
            if args.trace { " (traced)" } else { "" },
        );
        let samples = if args.trace {
            traced(&input, args.seconds, &mut tally)
        } else {
            end_to_end(&input, args.seconds, &scratch.0, &mut tally)
        };
        for &(metric, unit) in metrics {
            // Empty only when every measurement failed, which the tally counts.
            let values = samples.get(metric);
            let value = median(values);
            let (q1, q3) = quartiles(values);
            println!(
                "  {metric:<28} {:>16} {unit:<6} (q1 {}, q3 {}, n={})",
                readable(value),
                readable(q1),
                readable(q3),
                values.len()
            );
            let key = if args.workloads.len() == 1 {
                metric.to_string()
            } else {
                format!("{name}.{metric}")
            };
            json.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
    }

    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        json.join(", ")
    );
    drop(scratch);
    if !correct {
        std::process::exit(1);
    }
}

/// Six decimals for the human-readable lines, or scientific form where
/// six decimals would print a non-zero value as zero.
fn readable(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.6}")
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
