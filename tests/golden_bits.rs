//! Golden output bits: CRC-32 pins over what a fit produces, so a change
//! that claims to keep every output bit is checked against fixed values.
//!
//! Each case pins three checksums:
//!
//! * the Phase-1 tree's leaf-entry words (`Cf::to_words`), in chain order;
//! * the bytes of that tree's checkpoint file;
//! * the fitted cluster-CF words followed by the Phase-4 labels.
//!
//! The constants change only with a deliberate change to the CF
//! arithmetic, the tree's insert/split/rebuild decisions, or the snapshot
//! format. Every configuration sets `.threads(1)`, so the `BIRCH_THREADS`
//! override cannot move them.

use birch::pager::crc32;
use birch_core::{phase1, Birch, BirchConfig, Counters, NoopSink, Point};
use birch_datagen::rng::normal;
use birch_datagen::{presets, Dataset};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

const KB: usize = 1024;

/// `(leaf-entry words, checkpoint file, cluster CFs + labels)`.
type Pins = (u32, u32, u32);

fn crc_of_words(words: &[u64]) -> u32 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    crc32(&bytes)
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("birch-golden-{}-{tag}", std::process::id()))
}

/// Runs the serial Phase 1 and the full fit of `points` under `config`
/// and returns their three checksums, with Phase 1's I/O counters so a
/// case can check it reached the path it is meant to cover.
fn pins(config: BirchConfig, points: &[Point], tag: &str) -> (Pins, Counters) {
    let config = config.threads(1).total_points(points.len() as u64);
    let dim = points[0].dim();

    let mut out = phase1::run_points_with_sink(&config, dim, points, None, NoopSink);
    let io = out.io;
    let snap = scratch(&format!("{tag}.snapshot"));
    out.tree.checkpoint(&snap).expect("checkpoint");
    let checkpoint = crc32(&std::fs::read(&snap).expect("read snapshot"));
    std::fs::remove_file(&snap).expect("remove snapshot");
    let mut words = Vec::new();
    for cf in out.tree.into_leaf_entries() {
        cf.to_words(&mut words);
    }
    let leaf_words = crc_of_words(&words);

    let model = Birch::new(config).fit(points).expect("fit");
    let mut words = Vec::new();
    for c in model.clusters() {
        c.cf.to_words(&mut words);
    }
    let labels = model.labels().expect("Phase-4 labels");
    words.extend(labels.iter().map(|l| l.map_or(u64::MAX, |c| c as u64)));
    ((leaf_words, checkpoint, crc_of_words(&words)), io)
}

/// Seeded DS1 (100 grid clusters) at 200 points per cluster: 20k points.
fn ds1_20k() -> Vec<Point> {
    Dataset::generate(&presets::ds1_scaled_n(42, 200)).points
}

/// 50 isotropic 16-d Gaussian blobs of 200 points (σ = 1, centres
/// uniform in `[0, 100)^16`), shuffled: 10k points.
fn blobs_d16_10k() -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(7);
    let centres: Vec<Vec<f64>> = (0..50)
        .map(|_| (0..16).map(|_| rng.gen_range(0.0..100.0)).collect())
        .collect();
    let mut points: Vec<Point> = centres
        .iter()
        .flat_map(|c| std::iter::repeat_n(c, 200))
        .map(|c| Point::new(c.iter().map(|&m| normal(&mut rng, m, 1.0)).collect()))
        .collect();
    points.shuffle(&mut rng);
    points
}

#[test]
fn ds1_in_core_bits_are_pinned() {
    let config = BirchConfig::with_clusters(100).memory(16 * KB);
    let (got, io) = pins(config, &ds1_20k(), "ds1-core");
    assert!(io.rebuilds > 0, "M must force Phase-1 rebuilds");
    assert_eq!(got, DS1_IN_CORE);
}

#[test]
fn ds1_out_of_core_bits_are_pinned() {
    let spill = scratch("ds1-ooc-spill");
    std::fs::create_dir_all(&spill).expect("spill dir");
    let config = BirchConfig::with_clusters(100)
        .memory(16 * KB)
        .initial_threshold(1.5)
        .out_of_core(true)
        .spill_dir(&spill);
    let (got, io) = pins(config, &ds1_20k(), "ds1-ooc");
    std::fs::remove_dir_all(&spill).expect("remove spill dir");
    assert!(io.page_faults > 0, "M must force page faults");
    assert_eq!(got, DS1_OUT_OF_CORE);
}

#[test]
fn blobs_d16_bits_are_pinned() {
    let config = BirchConfig::with_clusters(50).memory(64 * KB);
    let (got, io) = pins(config, &blobs_d16_10k(), "blobs-d16");
    assert!(io.splits > 0, "the dim-16 kernels must run in splits");
    assert_eq!(got, BLOBS_D16);
}

const DS1_IN_CORE: Pins = (1_740_681_257, 1_802_455_936, 2_707_621_820);
const DS1_OUT_OF_CORE: Pins = (3_217_167_819, 2_441_808_267, 2_720_718_020);
const BLOBS_D16: Pins = (91_523_510, 37_406_554, 4_128_262_915);
