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
//! against budget M, tree-health gauges, and the headline counters.
//!
//! `--folded <path>` additionally writes inferno-compatible folded
//! stacks (`path;to;span <self-µs>` per line), ready for
//! `inferno-flamegraph < spans.folded > flame.svg`; `--json <path>`
//! writes the full schema-v4 metrics JSON.

use birch::cli::{is_on, parse_flags};
use birch::core::obs::span;
use birch::prelude::*;
use birch_datagen::csv::read_points;
use birch_datagen::{presets, Dataset};
use std::process::ExitCode;

fn main() -> ExitCode {
    let flags = parse_flags(std::env::args().skip(1));
    let seed: u64 = flags
        .get("seed")
        .map_or(42, |s| s.parse().expect("--seed must be an integer"));

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
        let preset = flags.get("preset").map_or("ds1", String::as_str);
        let per: usize = flags.get("per-cluster").map_or(200, |s| {
            s.parse().expect("--per-cluster must be an integer")
        });
        let mut spec = match preset {
            "ds1" => presets::ds1(seed),
            "ds2" => presets::ds2(seed),
            "ds3" => presets::ds3(seed),
            "ds1o" => presets::ds1o(seed),
            "ds2o" => presets::ds2o(seed),
            "ds3o" => presets::ds3o(seed),
            other => {
                eprintln!("error: unknown preset {other:?}");
                return ExitCode::from(2);
            }
        };
        if spec.n_low == spec.n_high {
            spec.n_low = per;
            spec.n_high = per;
        } else {
            spec.n_high = 2 * per;
        }
        let ds = Dataset::generate(&spec);
        let label = format!("{preset} seed={seed} ({} points)", ds.len());
        (ds.points, label)
    };
    if points.is_empty() {
        eprintln!("error: no points to cluster");
        return ExitCode::FAILURE;
    }

    let k: usize = flags
        .get("k")
        .map_or(100, |s| s.parse().expect("--k must be an integer"));
    let mut config = BirchConfig::with_clusters(k).total_points(points.len() as u64);
    if let Some(m) = flags.get("metric") {
        config = config.metric(m.parse().expect("--metric must be D0..D4"));
    }
    if let Some(mem) = flags.get("memory-kb") {
        let kb: usize = mem.parse().expect("--memory-kb must be an integer");
        config = config.memory(kb * 1024);
    }
    if let Some(t) = flags.get("threads") {
        config = config.threads(t.parse().expect("--threads must be a positive integer"));
    }
    if is_on(&flags, "out-of-core") {
        config = config.out_of_core(true);
    }

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

    // ---- Page cache (only meaningful for out-of-core runs). ----
    if stats.io.page_refs > 0 || stats.io.page_evictions > 0 {
        let refs = stats.io.page_refs.max(1);
        let hit = 100.0 * (1.0 - stats.io.page_faults as f64 / refs as f64);
        println!("== page cache (out-of-core) ==");
        println!(
            "refs                 {:>12}\n\
             faults               {:>12} (hit rate {hit:.1}%)\n\
             evictions            {:>12}\n\
             spill peak           {:>12} bytes",
            stats.io.page_refs,
            stats.io.page_faults,
            stats.io.page_evictions,
            stats.memory.page_spill.peak_bytes,
        );
        println!();
    }

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

    // ---- Headline counters. ----
    let m = &stats.metrics;
    println!("== counters ==");
    println!(
        "{} clusters in {:.3}s; {} inserts, {} splits, {} refinements, {} rebuilds",
        model.clusters().len(),
        stats.total_time().as_secs_f64(),
        m.inserts,
        m.splits,
        m.merge_refinements,
        m.rebuilds
    );
    println!(
        "distance calls: {} performed, {} pruned; io: {}",
        m.distance_calls, m.distance_calls_pruned, stats.io
    );

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
