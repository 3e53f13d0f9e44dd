//! The paper's base workload end-to-end: generate DS1/DS2/DS3, cluster
//! each with BIRCH, and score against the generator's ground truth —
//! a miniature of §6.4's Table 4 with extra label-based metrics.
//!
//! ```text
//! cargo run --release --example base_workload
//! ```

use birch::prelude::*;
use birch_datagen::{presets, Dataset};
use birch_eval::matching::match_clusters;
use birch_eval::quality::{adjusted_rand_index, weighted_average_diameter};

fn main() {
    // 10% of the paper's size keeps this example snappy; the shapes hold.
    let per_cluster = 100;

    for (name, mut spec) in [
        ("DS1 (grid)", presets::ds1(42)),
        ("DS2 (sine)", presets::ds2(42)),
        ("DS3 (random)", presets::ds3(42)),
    ] {
        if spec.n_low == spec.n_high {
            spec.n_low = per_cluster;
            spec.n_high = per_cluster;
        } else {
            spec.n_high = 2 * per_cluster;
        }
        let ds = Dataset::generate(&spec);

        let config = BirchConfig::with_clusters(100)
            .memory(16 * 1024)
            .total_points(ds.len() as u64);
        let model = Birch::new(config).fit(&ds.points).expect("fit");

        let cfs: Vec<_> = model.clusters().iter().map(|c| c.cf.clone()).collect();
        let d = weighted_average_diameter(&cfs);
        let report = match_clusters(&cfs, &ds.clusters);
        let ari = adjusted_rand_index(model.labels().expect("phase 4 on"), &ds.labels);

        println!("=== {name} ===");
        println!("  N = {}, clusters found = {}", ds.len(), cfs.len());
        println!(
            "  D = {:.3} (actual {:.3}),  ARI = {:.3}",
            d,
            ds.actual_weighted_diameter(),
            ari
        );
        println!(
            "  centroid displacement {:.3}, size error {:.1}%, rebuilds {}",
            report.mean_centroid_distance,
            report.mean_size_rel_error * 100.0,
            model.stats().metrics.rebuilds
        );
        println!();
    }
}
