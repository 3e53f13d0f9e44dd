//! One `Birch::fit` of a workload: timed, its heap peak counted, its
//! outputs checked.

use crate::alloc;
use crate::workload::Input;
use birch_core::{Birch, BirchModel, Cf};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A fit that returned a model.
pub struct Fit {
    pub model: BirchModel,
    pub wall: Duration,
    /// Peak heap bytes during the fit, above what was live before it.
    pub heap: usize,
}

impl Fit {
    pub fn cfs(&self) -> Vec<Cf> {
        self.model.clusters().iter().map(|c| c.cf.clone()).collect()
    }
}

/// Runs one fit. An `Err` or a panic comes back as the reason it failed.
pub fn run(input: &Input) -> Result<Fit, String> {
    let birch = Birch::new(input.config.clone());
    let base = alloc::start();
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| birch.fit(&input.points)));
    let wall = t0.elapsed();
    let heap = alloc::peak_since(base);
    match result {
        Ok(Ok(model)) => Ok(Fit { model, wall, heap }),
        Ok(Err(e)) => Err(format!("fit returned an error: {e}")),
        Err(_) => Err("fit panicked".to_string()),
    }
}

/// Checks one pipeline output: `k` clusters, one in-range label per
/// point, cluster weights summing to exactly `n`, finite centroids.
pub fn check(
    clusters: &[Cf],
    labels: Option<&[Option<usize>]>,
    n: usize,
    k: usize,
) -> Result<(), String> {
    if clusters.len() != k {
        return Err(format!("{} clusters, expected {k}", clusters.len()));
    }
    let labels = labels.ok_or("no Phase-4 labels")?;
    if labels.len() != n {
        return Err(format!("{} labels for {n} points", labels.len()));
    }
    if let Some(i) = labels.iter().position(|l| !matches!(l, Some(c) if *c < k)) {
        return Err(format!("point {i} has label {:?}", labels[i]));
    }
    let total: f64 = clusters.iter().map(Cf::n).sum();
    if total != n as f64 {
        return Err(format!("cluster weights sum to {total}, expected {n}"));
    }
    if clusters
        .iter()
        .any(|c| !c.centroid().iter().all(|x| x.is_finite()))
    {
        return Err("non-finite centroid".to_string());
    }
    Ok(())
}

/// The bits of every cluster CF, in order: two outputs are the same
/// clustering exactly when these and the labels are equal.
pub fn cf_words(clusters: &[Cf]) -> Vec<u64> {
    let mut words = Vec::new();
    for c in clusters {
        c.to_words(&mut words);
    }
    words
}
