//! `birch-cli` — cluster CSV files from the command line.
//!
//! ```text
//! birch-cli generate --preset ds1 --out points.csv [--seed 42] [--per-cluster 1000]
//! birch-cli cluster  --input points.csv --k 100 [--labeled true] [--metric D2]
//!                    [--memory-kb 80] [--threads n] [--labels-out labels.csv]
//!                    [--summary-out clusters.csv]
//!                    [--metrics-json metrics.json] [--trace]
//! ```
//!
//! `cluster` reads CSV points (one row per point), runs the full BIRCH
//! pipeline with the paper's defaults, prints a cluster summary, and
//! optionally writes per-point labels and the cluster table. Files written
//! by `generate` carry a trailing ground-truth label column — pass
//! `--labeled true` to skip it (and score against it).
//!
//! Durability: `--out-of-core` backs the CF-tree with a real page file
//! (spill directory via `--spill-dir`), so budget M bounds residency
//! instead of forcing threshold rebuilds; `--checkpoint <file>` writes a
//! versioned CF-tree snapshot at the Phase-3 boundary; `--restore <file>`
//! skips Phase 1 and resumes the pipeline from such a snapshot.
//!
//! Observability: `--metrics-json <path>` writes the run's telemetry
//! (per-phase times, rebuild/split counters, threshold trajectory,
//! insertion-depth histogram) as one line of JSON; `--metrics-prom <path>`
//! writes the same numbers as a Prometheus text exposition; `--profile`
//! turns on the hierarchical span profiler so both exports (and
//! `birch-report`) carry per-stage timings; `--trace` prints the last
//! events of the run (rebuilds, threshold raises, phase boundaries) to
//! stdout.

use birch::cli::{config, is_on, parse_flags, positive, preset_spec, usage_error};
use birch::prelude::*;
use birch_datagen::csv::{read_points, write_points};
use birch_datagen::Dataset;
use birch_eval::visualize::clusters_to_csv;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("generate") => generate(parse_flags(args)),
        Some("cluster") => cluster(parse_flags(args)),
        _ => {
            eprintln!(
                "usage:\n  birch-cli generate --preset <ds1|ds2|ds3> --out <file> \
                 [--seed n] [--per-cluster n]\n  birch-cli cluster --input <file> --k <n> \
                 [--labeled true] [--metric D0..D4] [--memory-kb n] [--threads n] \
                 [--out-of-core] [--spill-dir d] [--checkpoint f] [--restore f] \
                 [--labels-out f] [--summary-out f] [--metrics-json f] \
                 [--metrics-prom f] [--profile] [--trace]"
            );
            ExitCode::from(2)
        }
    }
}

/// Trace sink for `--trace`: keeps the last events, skipping the
/// per-insert descend records that would otherwise evict every
/// interesting rebuild/threshold event from the ring.
struct CliTrace(TraceLog);

impl EventSink for CliTrace {
    fn record(&mut self, event: &Event) {
        if !matches!(event, Event::InsertDescend { .. }) {
            self.0.record(event);
        }
    }
}

fn generate(flags: HashMap<String, String>) -> ExitCode {
    let out = PathBuf::from(
        flags
            .get("out")
            .unwrap_or_else(|| usage_error("generate needs --out <file>")),
    );
    let (_, spec) = preset_spec(&flags, None);
    let ds = Dataset::generate(&spec);
    if let Err(e) = write_points(&out, &ds.points, Some(&ds.labels)) {
        eprintln!("error writing {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} points ({} clusters, {} noise) to {}",
        ds.len(),
        ds.clusters.len(),
        ds.noise_count(),
        out.display()
    );
    ExitCode::SUCCESS
}

fn cluster(flags: HashMap<String, String>) -> ExitCode {
    let input = PathBuf::from(
        flags
            .get("input")
            .unwrap_or_else(|| usage_error("cluster needs --input <file>")),
    );
    let k = positive(&flags, "k").unwrap_or_else(|| usage_error("cluster needs --k <n>"));
    let mut config = config(&flags, k);
    if let Some(dir) = flags.get("spill-dir") {
        if !std::path::Path::new(dir).is_dir() {
            usage_error(format_args!("--spill-dir {dir:?} is not a directory"));
        }
        config = config.spill_dir(dir.clone());
    }

    let (points, truth) = match read_points(&input, is_on(&flags, "labeled")) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error reading {}: {e}", input.display());
            return ExitCode::FAILURE;
        }
    };
    println!("read {} points from {}", points.len(), input.display());
    let config = config.total_points(points.len() as u64);

    let trace = is_on(&flags, "trace");
    if is_on(&flags, "profile") {
        birch::core::obs::span::set_enabled(true);
    }
    let mut tracer = CliTrace(TraceLog::new(512));
    let clusterer = Birch::new(config);
    let result = if let Some(path) = flags.get("restore") {
        // Skip Phase 1 entirely: the CF-tree comes off the snapshot; the
        // input points only feed Phase 4's labeling scan.
        println!("restoring CF-tree from {path}");
        clusterer.fit_from_snapshot(std::path::Path::new(path), &points)
    } else if let Some(path) = flags.get("checkpoint") {
        let r = clusterer.fit_with_checkpoint(&points, std::path::Path::new(path));
        if r.is_ok() {
            println!("CF-tree checkpoint written to {path}");
        }
        r
    } else if trace {
        clusterer.fit_with_sink(&points, &mut tracer)
    } else {
        clusterer.fit(&points)
    };
    let mut model = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("clustering failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if trace {
        // Attach the ring's stats so the JSON/Prometheus exports carry
        // the drop count alongside the printed events.
        model.stats_mut().trace = Some(tracer.0.stats());
    }

    if trace {
        let tracer = &tracer.0;
        if tracer.dropped() > 0 {
            println!("trace: … {} earlier events dropped", tracer.dropped());
        }
        for ev in tracer.events() {
            println!("trace: {}", ev.render());
        }
    }

    let stats = model.stats();
    if !stats.shards.is_empty() {
        let walls: Vec<f64> = stats.shards.iter().map(|s| s.wall.as_secs_f64()).collect();
        let slowest = walls.iter().copied().fold(0.0, f64::max);
        let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "phase 1: {} shards (wall {fastest:.3}s-{slowest:.3}s), merge {:.3}s",
            stats.shards.len(),
            stats.merge_time.as_secs_f64()
        );
    }
    let m = &stats.metrics;
    if m.page_refs > 0 {
        let hit_rate = 100.0 * (1.0 - m.page_faults as f64 / m.page_refs as f64);
        println!(
            "page cache: {} refs, {} faults, {} evictions (hit rate {hit_rate:.1}%)",
            m.page_refs, m.page_faults, m.page_evictions
        );
    }
    println!(
        "found {} clusters in {:.3}s ({} rebuilds, peak {} pages):",
        model.clusters().len(),
        stats.total_time().as_secs_f64(),
        m.rebuilds,
        m.peak_pages
    );
    for (i, c) in model.clusters().iter().enumerate().take(20) {
        println!(
            "  #{i}: {:>8.0} points, radius {:>8.3}, centroid {:?}",
            c.weight(),
            c.radius,
            c.centroid
        );
    }
    if model.clusters().len() > 20 {
        println!(
            "  … {} more (use --summary-out for the full table)",
            model.clusters().len() - 20
        );
    }

    // With ground truth available, score the clustering.
    if let (Some(truth), Some(found)) = (&truth, model.labels()) {
        let ari = birch_eval::quality::adjusted_rand_index(found, truth);
        let purity = birch_eval::quality::purity(found, truth);
        println!("vs ground truth: ARI {ari:.3}, purity {purity:.3}");
    }

    if let Some(path) = flags.get("metrics-json") {
        let mut json = model.stats().to_json();
        json.push('\n');
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics written to {path}");
    }
    if let Some(path) = flags.get("metrics-prom") {
        let text = birch::core::prometheus_exposition(model.stats());
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("prometheus exposition written to {path}");
    }
    if let Some(path) = flags.get("summary-out") {
        let cfs: Vec<_> = model.clusters().iter().map(|c| c.cf.clone()).collect();
        if let Err(e) = std::fs::write(path, clusters_to_csv(&cfs)) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("cluster table written to {path}");
    }
    if let Some(path) = flags.get("labels-out") {
        let labels = model.labels().unwrap_or(&[]);
        let rows: String = labels
            .iter()
            .map(|l| l.map_or(String::from("\n"), |v| format!("{v}\n")))
            .collect();
        if let Err(e) = std::fs::write(path, rows) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("labels written to {path}");
    }
    ExitCode::SUCCESS
}
