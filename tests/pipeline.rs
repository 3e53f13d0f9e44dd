//! Cross-crate integration tests: the full BIRCH pipeline against the
//! paper's synthetic workloads, scored with the ground truth.

use birch::prelude::*;
use birch_datagen::{presets, Dataset, DatasetSpec};
use birch_eval::matching::match_clusters;
use birch_eval::quality::{adjusted_rand_index, weighted_average_diameter};

/// DS1 shrunk to 100 clusters × 60 points for test speed.
fn ds1_small(seed: u64) -> Dataset {
    Dataset::generate(&DatasetSpec {
        n_low: 60,
        n_high: 60,
        ..presets::ds1(seed)
    })
}

fn model_cfs(model: &birch_core::BirchModel) -> Vec<birch_core::Cf> {
    model.clusters().iter().map(|c| c.cf.clone()).collect()
}

#[test]
fn recovers_the_grid_of_ds1() {
    let ds = ds1_small(42);
    let config = BirchConfig::with_clusters(100)
        .memory(16 * 1024)
        .total_points(ds.len() as u64);
    let model = Birch::new(config).fit(&ds.points).expect("fit");

    // 100 clusters found.
    assert_eq!(model.clusters().len(), 100);

    // Quality close to the actual clusters'.
    let d = weighted_average_diameter(&model_cfs(&model));
    let actual = ds.actual_weighted_diameter();
    assert!(
        d < actual * 1.3,
        "weighted diameter {d:.3} vs actual {actual:.3}"
    );

    // Ground-truth agreement. DS1's neighbouring clusters overlap at ±2σ
    // (spacing 4, σ = 1), so ~5% of points are ambiguous even for an
    // oracle nearest-centre assigner; ARI ≈ 0.83 is the ceiling here.
    let ari = adjusted_rand_index(model.labels().expect("labels"), &ds.labels);
    assert!(ari > 0.8, "ARI {ari:.3}");

    // Centroids land on the actual grid.
    let report = match_clusters(&model_cfs(&model), &ds.clusters);
    assert_eq!(report.unmatched_actual, 0);
    assert!(
        report.mean_centroid_distance < 0.5,
        "mean displacement {:.3}",
        report.mean_centroid_distance
    );
}

#[test]
fn order_insensitivity_ordered_vs_randomized() {
    // §6.6: BIRCH's quality must be nearly identical across input orders.
    let mut qualities = Vec::new();
    for spec in [
        DatasetSpec {
            n_low: 60,
            n_high: 60,
            ..presets::ds1(7)
        },
        DatasetSpec {
            n_low: 60,
            n_high: 60,
            ..presets::ds1o(7)
        },
    ] {
        let ds = Dataset::generate(&spec);
        let config = BirchConfig::with_clusters(100)
            .memory(16 * 1024)
            .total_points(ds.len() as u64);
        let model = Birch::new(config).fit(&ds.points).expect("fit");
        qualities.push(weighted_average_diameter(&model_cfs(&model)));
    }
    let (randomized, ordered) = (qualities[0], qualities[1]);
    assert!(
        (randomized - ordered).abs() / randomized < 0.15,
        "order-sensitive: randomized {randomized:.3} vs ordered {ordered:.3}"
    );
}

#[test]
fn memory_budget_respected_under_pressure() {
    let ds = ds1_small(11);
    let mem = 8 * 1024;
    let config = BirchConfig::with_clusters(100)
        .memory(mem)
        .total_points(ds.len() as u64);
    let model = Birch::new(config).fit(&ds.points).expect("fit");
    // Peak pages during phase 1 can exceed the budget only transiently by
    // the rebuild's h extra pages; the paper allows that. The final tree
    // must be within budget — asserted inside phase 1; here check rebuilds
    // actually happened and clustering still worked.
    assert!(model.stats().metrics.rebuilds >= 1);
    assert_eq!(model.clusters().len(), 100);
}

#[test]
fn noisy_ds3_quality_with_outlier_handling() {
    let spec = DatasetSpec {
        n_high: 120,
        noise_fraction: 0.1,
        ..presets::ds3(3)
    };
    let ds = Dataset::generate(&spec);
    let config = BirchConfig::with_clusters(100)
        .memory(16 * 1024)
        .total_points(ds.len() as u64);
    let model = Birch::new(config).fit(&ds.points).expect("fit");
    // The pipeline completes and labels cover all points (noise may be
    // assigned or discarded, but never lost silently).
    let labels = model.labels().expect("labels");
    assert_eq!(labels.len(), ds.points.len());
}

#[test]
fn sine_dataset_clusters_found() {
    let spec = DatasetSpec {
        n_low: 60,
        n_high: 60,
        ..presets::ds2(13)
    };
    let ds = Dataset::generate(&spec);
    let config = BirchConfig::with_clusters(100)
        .memory(16 * 1024)
        .total_points(ds.len() as u64);
    let model = Birch::new(config).fit(&ds.points).expect("fit");
    assert_eq!(model.clusters().len(), 100);
    let ari = adjusted_rand_index(model.labels().expect("labels"), &ds.labels);
    assert!(ari > 0.85, "ARI {ari:.3} on the sine workload");
}

#[test]
fn weighted_image_points_roundtrip() {
    use birch_datagen::image::NirVisImage;
    let img = NirVisImage::generate(64, 64, 9);
    let pts = img.scaled_points(1.0, 10.0);
    let model = Birch::new(BirchConfig::with_clusters(5).total_points(pts.len() as u64))
        .fit(&pts)
        .expect("fit");
    assert_eq!(model.clusters().len(), 5);
    let total: f64 = model.clusters().iter().map(|c| c.weight()).sum();
    assert!((total - pts.len() as f64).abs() < 1e-6);
}

#[test]
fn stats_timing_sane() {
    let ds = ds1_small(21);
    let model = Birch::new(
        BirchConfig::with_clusters(100)
            .memory(16 * 1024)
            .total_points(ds.len() as u64),
    )
    .fit(&ds.points)
    .expect("fit");
    let s = model.stats();
    assert_eq!(s.points_scanned, ds.len() as u64);
    assert!(s.leaf_entries_phase3 <= s.leaf_entries_phase1.max(1000));
    assert!(s.final_threshold >= 0.0);
    assert!(s.total_time() >= s.phase3_time);
}

/// The profiler times seams, not points: in a profiled fit of 20k DS1
/// points, no span path opens as often as once per four inserts. (A span
/// per insert, descent or distance scan would open at least once per
/// insert.) The per-point work is counted by `inserts` and
/// `distance_calls` instead.
#[test]
fn profiled_fit_opens_no_span_per_point() {
    let ds = Dataset::generate(&presets::ds1_scaled_n(42, 200));
    let config = BirchConfig::with_clusters(100)
        .threads(1)
        .total_points(ds.len() as u64);
    // Own thread: the profiler switch and its state are thread-local.
    let model = std::thread::scope(|s| {
        s.spawn(|| {
            birch_core::obs::span::set_enabled(true);
            let model = Birch::new(config).fit(&ds.points).expect("fit");
            birch_core::obs::span::set_enabled(false);
            model
        })
        .join()
        .expect("profiled fit")
    });
    let stats = model.stats();
    let inserts = stats.metrics.inserts;
    let spans = stats.spans.as_ref().expect("profiled run has spans");
    spans.visit(|node| {
        assert!(
            node.calls * 4 < inserts,
            "span {:?} opened {} times for {inserts} inserts",
            node.name,
            node.calls
        );
    });
}

#[test]
fn fits_leave_the_spill_dir_empty() {
    let ds = ds1_small(7);
    let dir = std::env::temp_dir().join(format!("birch-pipeline-spill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the spill dir");
    for out_of_core in [false, true] {
        for threads in [1, 4] {
            let config = BirchConfig::with_clusters(100)
                .memory(16 * 1024)
                .out_of_core(out_of_core)
                .spill_dir(&dir)
                .threads(threads);
            let model = Birch::new(config).fit(&ds.points).expect("fit");
            let c = &model.stats().metrics.counters;
            if !out_of_core {
                assert!(c.disk_writes > 0, "threads {threads}: nothing was spilled");
            }
            let left: Vec<_> = std::fs::read_dir(&dir).expect("list").collect();
            assert!(
                left.is_empty(),
                "out_of_core {out_of_core}, threads {threads}: {left:?} left behind"
            );
        }
    }
    std::fs::remove_dir(&dir).expect("remove the spill dir");
}
