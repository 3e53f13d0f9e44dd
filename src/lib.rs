//! BIRCH — Balanced Iterative Reducing and Clustering using Hierarchies.
//!
//! Umbrella crate re-exporting the whole workspace so downstream users can
//! depend on a single crate. See the individual crates for detail:
//!
//! * [`core`] ([`birch_core`]) — the paper's contribution: CF vectors,
//!   the CF-tree, and the four-phase clustering pipeline.
//! * [`pager`] ([`birch_pager`]) — paged-memory/disk accounting substrate.
//! * [`datagen`] ([`birch_datagen`]) — the paper's synthetic data generator
//!   (Table 1) and the NIR/VIS image application workload.
//! * [`baselines`] ([`birch_baselines`]) — CLARANS, k-means, exact HC.
//! * [`eval`] ([`birch_eval`]) — quality metrics, matching, visualization.
//!
//! # Quickstart
//!
//! ```
//! use birch::prelude::*;
//!
//! // Three tight 2-d blobs.
//! let pts: Vec<Point> = (0..300)
//!     .map(|i| {
//!         let c = (i % 3) as f64 * 10.0;
//!         Point::new(vec![c + (i as f64 * 0.37).sin() * 0.2,
//!                         c + (i as f64 * 0.73).cos() * 0.2])
//!     })
//!     .collect();
//!
//! let model = Birch::new(BirchConfig::with_clusters(3)).fit(&pts).unwrap();
//! assert_eq!(model.clusters().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use birch_baselines as baselines;
pub use birch_core as core;
pub use birch_datagen as datagen;
pub use birch_eval as eval;
pub use birch_pager as pager;

/// Convenient glob-import surface covering the common API.
pub mod prelude {
    pub use birch_baselines::{clarans::Clarans, kmeans::KMeans};
    pub use birch_core::{
        Birch, BirchConfig, BirchModel, Cf, CfTree, DistanceMetric, Event, EventSink,
        MetricsRecorder, MetricsReport, NoopSink, Point, StreamingBirch, ThresholdKind, TraceLog,
    };
    pub use birch_datagen::{DatasetSpec, Ordering, Pattern};
    pub use birch_eval::quality::weighted_average_diameter;
}
