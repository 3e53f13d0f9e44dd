//! Regenerates the **§6.5 sensitivity study**: how BIRCH's time and
//! quality respond to the initial threshold `T0`, the page size `P`, the
//! memory budget `M`, and the outlier options.
//!
//! Paper findings this binary checks:
//!
//! * **T0**: performance is stable as long as T0 is not excessively high
//!   wrt the dataset; a knowledgeable non-zero T0 is rewarded with less
//!   rebuilding time.
//! * **P** (64…4096): smaller P → finer tree → slightly better Phase-3
//!   quality but more expensive; Phase 4 compensates, leaving end quality
//!   almost flat.
//! * **M**: more memory → finer subclusters → better (or equal) quality,
//!   traded against time.
//! * **Outlier options** on DS3-with-noise: turning the options on removes
//!   noise without hurting the real clusters.
//!
//! ```text
//! cargo run --release -p birch-bench --bin sensitivity [-- --scale 0.1]
//! ```

use birch_bench::{base_workloads, model_cfs, print_header, print_row, secs, Args};
use birch_core::{Birch, BirchConfig};
use birch_datagen::{Dataset, DatasetSpec};
use birch_eval::quality::weighted_average_diameter;

fn run(label: &str, ds: &Dataset, config: BirchConfig) -> (f64, std::time::Duration, u64, usize) {
    let model = Birch::new(config).fit(&ds.points).expect("fit");
    birch_bench::print_metrics(label, &model);
    (
        weighted_average_diameter(&model_cfs(&model)),
        model.stats().total_time(),
        model.stats().metrics.rebuilds,
        model.clusters().len(),
    )
}

fn main() {
    let args = Args::parse();
    let workloads = base_workloads(&args);
    let widths = [8, 10, 10, 10, 10, 10];

    // --- Initial threshold T0 (§6.5 "Initial threshold"). ---
    println!(
        "Sensitivity: initial threshold T0 (DS1, scale {})\n",
        args.scale
    );
    let ds1 = Dataset::generate(&workloads[0].spec);
    print_header(&["T0", "D", "time-s", "rebuilds", "clusters", ""], &widths);
    for t0 in [0.0, 0.5, 1.0, 2.0, 4.0] {
        let cfg = birch_bench::paper_config(100, ds1.len()).initial_threshold(t0);
        let (d, t, rebuilds, k) = run(&format!("sensitivity:T0={t0}"), &ds1, cfg);
        print_row(
            &[
                format!("{t0}"),
                format!("{d:.3}"),
                secs(t),
                rebuilds.to_string(),
                k.to_string(),
                String::new(),
            ],
            &widths,
        );
    }
    println!("paper shape: good T0 saves rebuilds; quality stable until T0 is excessive\n");

    // --- Page size P (§6.5 "Page Size"). ---
    println!("Sensitivity: page size P (DS1)\n");
    print_header(&["P", "D", "time-s", "rebuilds", "clusters", ""], &widths);
    for p in [256usize, 512, 1024, 4096] {
        let cfg = birch_bench::paper_config(100, ds1.len()).page_size(p);
        let (d, t, rebuilds, k) = run(&format!("sensitivity:P={p}"), &ds1, cfg);
        print_row(
            &[
                p.to_string(),
                format!("{d:.3}"),
                secs(t),
                rebuilds.to_string(),
                k.to_string(),
                String::new(),
            ],
            &widths,
        );
    }
    println!("paper shape: with Phase 4 on, end quality almost flat across P\n");

    // --- Memory M. ---
    println!("Sensitivity: memory budget M (DS1)\n");
    print_header(
        &["M-KB", "D", "time-s", "rebuilds", "clusters", ""],
        &widths,
    );
    let base_mem = birch_bench::paper_config(100, ds1.len()).memory_bytes;
    for factor in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let mem = ((base_mem as f64 * factor) as usize).max(4 * 1024);
        let cfg = birch_bench::paper_config(100, ds1.len()).memory(mem);
        let (d, t, rebuilds, k) = run(&format!("sensitivity:M-KB={}", mem / 1024), &ds1, cfg);
        print_row(
            &[
                (mem / 1024).to_string(),
                format!("{d:.3}"),
                secs(t),
                rebuilds.to_string(),
                k.to_string(),
                String::new(),
            ],
            &widths,
        );
    }
    println!("paper shape: more memory never hurts quality; less memory costs rebuilds\n");

    // --- Outlier options on noisy DS3 (rn = 10%). ---
    println!("Sensitivity: outlier options (DS3 + 10% noise)\n");
    let noisy_spec = DatasetSpec {
        noise_fraction: 0.10,
        ..workloads[2].spec.clone()
    };
    let noisy = Dataset::generate(&noisy_spec);
    let w2 = [14, 10, 10, 10, 10, 12];
    print_header(
        &[
            "options",
            "D",
            "time-s",
            "rebuilds",
            "clusters",
            "discarded",
        ],
        &w2,
    );
    for (label, outliers, delay) in [
        ("none", false, false),
        ("outlier", true, false),
        ("delay", false, true),
        ("both", true, true),
    ] {
        let cfg = birch_bench::paper_config(100, noisy.len())
            .outliers(outliers)
            .delay_split(delay);
        let model = Birch::new(cfg).fit(&noisy.points).expect("fit");
        birch_bench::print_metrics(&format!("sensitivity:outliers={label}"), &model);
        print_row(
            &[
                label.to_string(),
                format!("{:.3}", weighted_average_diameter(&model_cfs(&model))),
                secs(model.stats().total_time()),
                model.stats().metrics.rebuilds.to_string(),
                model.clusters().len().to_string(),
                model.stats().metrics.outliers_discarded.to_string(),
            ],
            &w2,
        );
    }
    println!("paper shape: outlier option discards noise and improves D on noisy data");
}
