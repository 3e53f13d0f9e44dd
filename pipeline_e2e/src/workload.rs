//! The five workloads: each one's input, generated from the seed, and the
//! configuration its fits run with. Why each exists is in the crate doc.

use birch_core::{BirchConfig, Point};
use birch_datagen::rng::normal;
use birch_datagen::{presets, Dataset, DatasetSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 5] = ["ds1_1m", "ds1_1m_t2", "grid_k1000", "blobs_d16", "ds1_ooc"];

/// One workload's generated input and the configuration it is fitted with.
pub struct Input {
    /// The points, in presentation order.
    pub points: Vec<Point>,
    /// The generator's cluster of each point.
    pub truth: Vec<Option<usize>>,
    /// The configuration every fit of this workload uses.
    pub config: BirchConfig,
    /// The number of clusters asked for.
    pub k: usize,
}

const KB: usize = 1024;
const MB: usize = 1024 * KB;

/// Builds workload `name` from `seed`. `scale` multiplies the points per
/// cluster; `spill` is the directory for out-of-core page files.
/// Returns `None` for an unknown name.
///
/// Every configuration sets its thread count, so the `BIRCH_THREADS`
/// environment override cannot change a workload.
pub fn build(name: &str, seed: u64, scale: f64, spill: &Path) -> Option<Input> {
    let per = |n: usize| ((n as f64 * scale).round() as usize).max(2);
    let input = match name {
        "ds1_1m" => ds1_grid(
            seed,
            100,
            per(10_000),
            BirchConfig::with_clusters(100).threads(1),
        ),
        "ds1_1m_t2" => ds1_grid(
            seed,
            100,
            per(10_000),
            BirchConfig::with_clusters(100).threads(2),
        ),
        "grid_k1000" => {
            let mut config = BirchConfig::with_clusters(1000).memory(MB).threads(1);
            config.phase2_max_entries = 10_000;
            ds1_grid(seed, 1000, per(200), config)
        }
        "blobs_d16" => blobs(
            seed,
            100,
            16,
            per(2000),
            BirchConfig::with_clusters(100).memory(MB).threads(1),
        ),
        "ds1_ooc" => ds1_grid(
            seed,
            100,
            per(500),
            BirchConfig::with_clusters(100)
                .memory(80 * KB)
                .out_of_core(true)
                .spill_dir(spill)
                .threads(1),
        ),
        _ => return None,
    };
    Some(input)
}

/// The paper's DS1 pattern (grid spacing 4, radius √2, randomized order)
/// with `k` clusters of `per` points.
fn ds1_grid(seed: u64, k: usize, per: usize, config: BirchConfig) -> Input {
    let ds = Dataset::generate(&DatasetSpec {
        k,
        n_low: per,
        n_high: per,
        ..presets::ds1(seed)
    });
    Input {
        points: ds.points,
        truth: ds.labels,
        config,
        k,
    }
}

/// `k` isotropic Gaussian blobs (σ = 1) of `per` points in `dim`
/// dimensions, centres uniform in `[0, 100)^dim`, shuffled.
fn blobs(seed: u64, k: usize, dim: usize, per: usize, config: BirchConfig) -> Input {
    let mut rng = StdRng::seed_from_u64(seed);
    let centres: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..100.0)).collect())
        .collect();
    let mut labelled: Vec<(Point, Option<usize>)> = Vec::with_capacity(k * per);
    for (c, centre) in centres.iter().enumerate() {
        for _ in 0..per {
            let p: Vec<f64> = centre.iter().map(|&m| normal(&mut rng, m, 1.0)).collect();
            labelled.push((Point::new(p), Some(c)));
        }
    }
    labelled.shuffle(&mut rng);
    let (points, truth) = labelled.into_iter().unzip();
    Input {
        points,
        truth,
        config,
        k,
    }
}
