//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the BIRCH paper's §6 (see DESIGN.md's experiment index).
//!
//! Each binary accepts:
//!
//! * `--scale <f>`   — dataset size as a fraction of the paper's (default
//!   0.1: the paper uses N = 100,000 per base dataset; 0.1 keeps every
//!   binary interactive while preserving every qualitative shape. Use
//!   `--scale 1.0` to run at full paper size).
//! * `--seed <u64>`  — generator seed (default 42).
//!
//! The library provides argument parsing, the scaled Table-3 workloads,
//! and fixed-width table printing so every binary reports the same way.

#![forbid(unsafe_code)]

use birch_core::{Birch, BirchConfig, BirchModel, Cf};
use birch_datagen::{presets, Dataset, DatasetSpec};
use std::time::{Duration, Instant};

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Fraction of the paper's dataset sizes to run at.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
}

impl Args {
    /// Parses `--scale` and `--seed` from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed values.
    #[must_use]
    pub fn parse() -> Self {
        let mut args = Args {
            scale: 0.1,
            seed: 42,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => {
                    let v = it.next().expect("--scale needs a value");
                    args.scale = v.parse().expect("--scale must be a float");
                    assert!(args.scale > 0.0, "--scale must be positive");
                }
                "--seed" => {
                    let v = it.next().expect("--seed needs a value");
                    args.seed = v.parse().expect("--seed must be an integer");
                }
                "--help" | "-h" => {
                    eprintln!("usage: <bin> [--scale f] [--seed n]");
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other:?} (try --help)"),
            }
        }
        args
    }

    /// Scales a per-cluster point count.
    #[must_use]
    pub fn n_per_cluster(&self, paper_n: usize) -> usize {
        ((paper_n as f64 * self.scale).round() as usize).max(2)
    }
}

/// A named Table-3 workload at the chosen scale.
pub struct Workload {
    /// Dataset name as in the paper (DS1, DS2O, …).
    pub name: &'static str,
    /// The scaled spec.
    pub spec: DatasetSpec,
}

/// The six base workloads of Table 3 (randomized + ordered variants),
/// scaled by `args.scale` (cluster count stays at K = 100; per-cluster
/// sizes shrink).
#[must_use]
pub fn base_workloads(args: &Args) -> Vec<Workload> {
    let n = args.n_per_cluster(1000);
    let nh3 = args.n_per_cluster(2000);
    let scale_n = |mut spec: DatasetSpec, nl: usize, nh: usize| {
        spec.n_low = nl;
        spec.n_high = nh;
        spec
    };
    vec![
        Workload {
            name: "DS1",
            spec: scale_n(presets::ds1(args.seed), n, n),
        },
        Workload {
            name: "DS2",
            spec: scale_n(presets::ds2(args.seed), n, n),
        },
        Workload {
            name: "DS3",
            spec: scale_n(presets::ds3(args.seed), 0, nh3),
        },
        Workload {
            name: "DS1O",
            spec: scale_n(presets::ds1o(args.seed), n, n),
        },
        Workload {
            name: "DS2O",
            spec: scale_n(presets::ds2o(args.seed), n, n),
        },
        Workload {
            name: "DS3O",
            spec: scale_n(presets::ds3o(args.seed), 0, nh3),
        },
    ]
}

/// The paper's default BIRCH configuration (Table 2) for `k` clusters,
/// with the memory budget scaled with the dataset (the paper's 80 KB is
/// ~5% of its 100k-point datasets; we keep the same ratio so rebuild
/// behaviour matches at reduced scale).
#[must_use]
pub fn paper_config(k: usize, dataset_points: usize) -> BirchConfig {
    // 80 KB per 100_000 points. The floor of 16 pages keeps enough leaf
    // entries for K=100 clusters at reduced --scale; below it the tree is
    // too coarse for the touching grid clusters of DS1.
    let mem = ((80.0 * 1024.0) * (dataset_points as f64 / 100_000.0)) as usize;
    BirchConfig::with_clusters(k)
        .memory(mem.max(16 * 1024))
        .total_points(dataset_points as u64)
}

/// Times one closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Runs BIRCH on a dataset with the paper's defaults; returns the model.
///
/// # Panics
///
/// Panics if the fit fails (datasets here are never empty).
#[must_use]
pub fn run_birch(ds: &Dataset, k: usize) -> BirchModel {
    let config = paper_config(k, ds.len());
    Birch::new(config).fit(&ds.points).expect("fit succeeds")
}

/// Extracts cluster CFs from a model.
#[must_use]
pub fn model_cfs(model: &BirchModel) -> Vec<Cf> {
    model.clusters().iter().map(|c| c.cf.clone()).collect()
}

/// Prints one BIRCH run's telemetry as a machine-greppable line:
/// `# METRICS <label> <json>` — the same JSON `birch-cli --metrics-json`
/// writes, so experiment output can feed the same tooling.
pub fn print_metrics(label: &str, model: &BirchModel) {
    println!("# METRICS {label} {}", model.stats().to_json());
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:>w$}  ", w = w));
    }
    println!("{}", line.trim_end());
}

/// Prints a header row followed by a dashed rule.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(ToString::to_string).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
}

/// Formats a `Duration` in seconds with millisecond resolution.
#[must_use]
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_scale() {
        let args = Args {
            scale: 0.05,
            seed: 1,
        };
        let w = base_workloads(&args);
        assert_eq!(w.len(), 6);
        assert_eq!(w[0].spec.n_low, 50);
        assert_eq!(w[2].spec.n_high, 100);
        assert_eq!(w[0].spec.k, 100);
    }

    #[test]
    fn paper_config_scales_memory() {
        let c = paper_config(100, 100_000);
        assert_eq!(c.memory_bytes, 80 * 1024);
        let c = paper_config(100, 20_000);
        assert_eq!(c.memory_bytes, 16 * 1024);
        let c = paper_config(100, 100);
        assert_eq!(c.memory_bytes, 16 * 1024); // floor
    }

    #[test]
    fn n_per_cluster_floor() {
        let args = Args {
            scale: 0.0001,
            seed: 0,
        };
        assert_eq!(args.n_per_cluster(1000), 2);
    }

    #[test]
    fn run_birch_smoke() {
        let args = Args {
            scale: 0.01,
            seed: 3,
        };
        let w = &base_workloads(&args)[0];
        let ds = Dataset::generate(&w.spec);
        let model = run_birch(&ds, 100);
        assert!(!model.clusters().is_empty());
        assert_eq!(model_cfs(&model).len(), model.clusters().len());
    }
}
