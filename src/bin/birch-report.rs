//! `birch-report` — the run observatory, in human-readable form.
//!
//! ```text
//! birch-report [--preset ds1] [--seed 42] [--per-cluster 200]
//!              [--input pts.csv [--labeled true]]
//!              [--k 100] [--threads n] [--memory-kb 80] [--metric D2]
//!              [--out-of-core] [--folded spans.folded] [--json report.json]
//! ```
//!
//! Runs one profiled clustering (span profiler on) over a generated
//! preset or a CSV file and prints everything the observability layer
//! collects: the hierarchical span tree with self-times, the span totals
//! cross-checked against the per-phase wall clocks, the memory gauge
//! against budget M, tree-health gauges, and every run counter with its
//! help text.
//!
//! `--folded <path>` additionally writes inferno-compatible folded
//! stacks (`path;to;span <self-µs>` per line), ready for
//! `inferno-flamegraph < spans.folded > flame.svg`; `--json <path>`
//! writes the full metrics JSON.

use birch::cli::{config, is_on, parse_flags, positive, preset_spec};
use birch::core::obs::span;
use birch::prelude::*;
use birch_datagen::csv::read_points;
use birch_datagen::Dataset;
use std::process::ExitCode;

fn main() -> ExitCode {
    let flags = parse_flags(std::env::args().skip(1));
    let k = positive(&flags, "k").unwrap_or(100);
    let config = config(&flags, k);
    // Read even when `--input` leaves them unused, so a malformed value
    // is never silently ignored.
    let (preset, spec) = preset_spec(&flags, Some(200));

    // ---- Input: CSV file, or a generated preset (default ds1, sized
    // down to ~20k points so a report run stays interactive). ----
    let (points, source) = if let Some(path) = flags.get("input") {
        match read_points(std::path::Path::new(path), is_on(&flags, "labeled")) {
            Ok((pts, _)) => (pts, path.clone()),
            Err(e) => {
                eprintln!("error reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let ds = Dataset::generate(&spec);
        let label = format!("{preset} seed={} ({} points)", spec.seed, ds.len());
        (ds.points, label)
    };
    if points.is_empty() {
        eprintln!("error: no points to cluster");
        return ExitCode::FAILURE;
    }

    let config = config.total_points(points.len() as u64);

    // ---- The profiled run. ----
    span::set_enabled(true);
    let model = match Birch::new(config).fit(&points) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("clustering failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    span::set_enabled(false);
    let stats = model.stats();

    println!("birch-report — run observatory");
    println!(
        "input: {source}, dim {}; k={k}, threads={}",
        points[0].dim(),
        stats.threads.max(1)
    );
    println!();

    // ---- Span profile, cross-checked against the phase wall clocks. ----
    println!("== span profile ==");
    match &stats.spans {
        Some(spans) => {
            print!("{}", spans.render());
            println!();
            println!("span totals vs phase wall clocks:");
            for (path, wall) in [
                ("phase1", stats.phase1_time),
                ("phase2", stats.phase2_time),
                ("phase3", stats.phase3_time),
                ("phase4", stats.phase4_time),
            ] {
                let Some(node) = spans.get(path) else {
                    if !wall.is_zero() {
                        println!("  {path:<8} wall {:>9.3?}  (no span recorded)", wall);
                    }
                    continue;
                };
                let span_s = node.total.as_secs_f64();
                let wall_s = wall.as_secs_f64();
                let delta = if wall_s > 0.0 {
                    100.0 * (wall_s - span_s).abs() / wall_s
                } else {
                    0.0
                };
                println!(
                    "  {path:<8} wall {:>9.3?}  span {:>9.3?}  Δ {delta:.1}%",
                    wall, node.total
                );
            }
        }
        None => println!("(no spans recorded — profiler was off)"),
    }
    println!();

    // ---- Memory against budget M. ----
    println!("== memory (budget M) ==");
    print!("{}", stats.memory.render());
    println!();

    // ---- Tree health. ----
    let h = &stats.tree_health;
    println!("== tree health (entering phase 3) ==");
    println!(
        "height {}, {} nodes ({} leaves), {} leaf entries",
        h.height, h.nodes, h.leaf_nodes, h.leaf_entries
    );
    println!(
        "utilization: leaves {:.1}%, interior {:.1}%",
        100.0 * h.leaf_utilization,
        100.0 * h.interior_utilization
    );
    for l in &h.levels {
        println!(
            "  level {}: {:>5} nodes, {:>6} entries (fill {:>5.1}%, min {} / max {} of {})",
            l.level,
            l.nodes,
            l.entries,
            100.0 * l.utilization(),
            l.min_entries,
            l.max_entries,
            l.capacity_per_node
        );
    }
    println!(
        "rates: {:.2} splits/1k inserts, {:.2} merges/1k inserts, {:.2} rebuilds/100k points",
        h.split_rate_per_1k_inserts, h.merge_rate_per_1k_inserts, h.rebuild_rate_per_100k_points
    );
    println!();

    // ---- Run counters. ----
    println!("== counters ==");
    println!(
        "{} clusters in {:.3}s",
        model.clusters().len(),
        stats.total_time().as_secs_f64()
    );
    print!("{}", stats.metrics.counters.render());

    // ---- Optional artifacts. ----
    if let Some(path) = flags.get("folded") {
        let Some(spans) = &stats.spans else {
            eprintln!("error: no spans to fold");
            return ExitCode::FAILURE;
        };
        if let Err(e) = std::fs::write(path, spans.folded()) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("folded stacks written to {path}");
    }
    if let Some(path) = flags.get("json") {
        let mut json = stats.to_json();
        json.push('\n');
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics JSON written to {path}");
    }
    ExitCode::SUCCESS
}
