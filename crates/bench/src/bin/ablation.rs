//! Ablation study of BIRCH's design choices (beyond the paper's own
//! sensitivity analysis): what each mechanism buys on the base workload.
//!
//! * **Distance metric D0–D4** — the paper defaults to D2 and reports
//!   (in the tech-report version) that metrics behave similarly; verify.
//! * **Threshold statistic** — diameter (default) vs radius.
//! * **Merging refinement (§4.3)** — on/off: page utilization and splits
//!   under *ordered* input, the case it was designed for.
//! * **Phase 2 condensation** — on/off: Phase-3 input size vs time.
//! * **Phase 4 refinement** — 0/1/3 passes: label quality gain.
//!
//! ```text
//! cargo run --release -p birch-bench --bin ablation [-- --scale 0.1]
//! ```

use birch_bench::{base_workloads, model_cfs, paper_config, print_header, print_row, secs, Args};
use birch_core::{Birch, BirchConfig, DistanceMetric, ThresholdKind};
use birch_datagen::Dataset;
use birch_eval::quality::{adjusted_rand_index, weighted_average_diameter};

fn fit_stats(ds: &Dataset, config: BirchConfig) -> (f64, f64, std::time::Duration, u64, u64) {
    let model = Birch::new(config).fit(&ds.points).expect("fit");
    let d = weighted_average_diameter(&model_cfs(&model));
    let ari = model
        .labels()
        .map_or(f64::NAN, |l| adjusted_rand_index(l, &ds.labels));
    (
        d,
        ari,
        model.stats().total_time(),
        model.stats().metrics.splits,
        model.stats().metrics.merge_refinements,
    )
}

fn main() {
    let args = Args::parse();
    let workloads = base_workloads(&args);
    let ds1 = Dataset::generate(&workloads[0].spec);
    let ds1o = Dataset::generate(&workloads[3].spec);
    let widths = [10, 10, 10, 10, 12, 12];

    println!("Ablation: distance metric (DS1, scale {})\n", args.scale);
    print_header(&["metric", "D", "ARI", "time-s", "splits", ""], &widths);
    for metric in DistanceMetric::ALL {
        let cfg = paper_config(100, ds1.len()).metric(metric);
        let (d, ari, t, splits, _) = fit_stats(&ds1, cfg);
        print_row(
            &[
                metric.to_string(),
                format!("{d:.3}"),
                format!("{ari:.3}"),
                secs(t),
                splits.to_string(),
                String::new(),
            ],
            &widths,
        );
    }

    println!("\nAblation: threshold statistic (DS1)\n");
    print_header(&["stat", "D", "ARI", "time-s", "", ""], &widths);
    for (name, kind) in [
        ("diameter", ThresholdKind::Diameter),
        ("radius", ThresholdKind::Radius),
    ] {
        let cfg = paper_config(100, ds1.len()).threshold_kind(kind);
        let (d, ari, t, _, _) = fit_stats(&ds1, cfg);
        print_row(
            &[
                name.to_string(),
                format!("{d:.3}"),
                format!("{ari:.3}"),
                secs(t),
                String::new(),
                String::new(),
            ],
            &widths,
        );
    }

    println!("\nAblation: merging refinement on ordered input (DS1O)\n");
    print_header(
        &["refine", "D", "ARI", "time-s", "splits", "refines"],
        &widths,
    );
    for on in [true, false] {
        let mut cfg = paper_config(100, ds1o.len());
        cfg.merge_refinement = on;
        let (d, ari, t, splits, refines) = fit_stats(&ds1o, cfg);
        print_row(
            &[
                if on { "on" } else { "off" }.to_string(),
                format!("{d:.3}"),
                format!("{ari:.3}"),
                secs(t),
                splits.to_string(),
                refines.to_string(),
            ],
            &widths,
        );
    }

    println!("\nAblation: Phase 2 condensation (DS1)\n");
    print_header(&["phase2", "D", "ARI", "time-s", "", ""], &widths);
    for on in [true, false] {
        let cfg = paper_config(100, ds1.len()).phase2(on);
        let (d, ari, t, _, _) = fit_stats(&ds1, cfg);
        print_row(
            &[
                if on { "on" } else { "off" }.to_string(),
                format!("{d:.3}"),
                format!("{ari:.3}"),
                secs(t),
                String::new(),
                String::new(),
            ],
            &widths,
        );
    }

    println!("\nAblation: Phase 3 global method (DS1)\n");
    print_header(&["method", "D", "ARI", "time-s", "", ""], &widths);
    for (name, method) in [
        ("hier", birch_core::phase3::GlobalMethod::Hierarchical),
        (
            "kmeans",
            birch_core::phase3::GlobalMethod::KMeans { max_iters: 50 },
        ),
    ] {
        let cfg = paper_config(100, ds1.len()).global_method(method);
        let (d, ari, t, _, _) = fit_stats(&ds1, cfg);
        print_row(
            &[
                name.to_string(),
                format!("{d:.3}"),
                format!("{ari:.3}"),
                secs(t),
                String::new(),
                String::new(),
            ],
            &widths,
        );
    }

    println!("\nAblation: Phase 4 passes (DS1)\n");
    print_header(&["passes", "D", "ARI", "time-s", "", ""], &widths);
    for passes in [0usize, 1, 3] {
        let cfg = paper_config(100, ds1.len()).refinement_passes(passes);
        let (d, ari, t, _, _) = fit_stats(&ds1, cfg);
        print_row(
            &[
                passes.to_string(),
                format!("{d:.3}"),
                if ari.is_nan() {
                    "-".to_string()
                } else {
                    format!("{ari:.3}")
                },
                secs(t),
                String::new(),
                String::new(),
            ],
            &widths,
        );
    }
    println!(
        "\nexpected: metrics comparable (D2 default justified); refinement cuts splits on \
         ordered input; phase 4 passes improve ARI then saturate"
    );
}
