//! Differential oracle: a deliberately naive flat reference clusterer.
//!
//! [`FlatOracle`] keeps every subcluster in one flat `Vec` and decides
//! absorb-vs-new-entry by an exhaustive closest-CF scan — no tree, no
//! descent, no splits. It reimplements *only* the paper's leaf rule
//! (§4.2 step 2: merge into the closest entry iff the merged entry still
//! satisfies the threshold), with the same first-minimum tie-breaking as
//! `CfTree::closest_leaf_entry`.
//!
//! In the single-leaf regime (branching/leaf capacity larger than the
//! entry count, so the tree never splits and the descent is trivial) the
//! tree must agree with the oracle *bit for bit*: same outcome sequence,
//! same entries in the same order. With splits enabled the tree's descent
//! localizes the search, so only aggregate equivalences are required —
//! on well-separated data the resulting entry sets, and therefore the
//! Phase-3 global clustering built from them, must still match exactly.

use birch_core::config::ClusterCount;
use birch_core::distance::{closest_among, closest_among_pruned, CfBlock};
use birch_core::phase3::global_cluster;
use birch_core::tree::{CfTree, InsertOutcome, TreeParams};
use birch_core::{Cf, DistanceMetric, Point, ThresholdKind};

/// The naive flat reference: exhaustive closest-CF scan over all entries.
struct FlatOracle {
    entries: Vec<Cf>,
    threshold: f64,
    kind: ThresholdKind,
    metric: DistanceMetric,
    total: Cf,
}

impl FlatOracle {
    fn new(dim: usize, threshold: f64, kind: ThresholdKind, metric: DistanceMetric) -> Self {
        Self {
            entries: Vec::new(),
            threshold,
            kind,
            metric,
            total: Cf::empty(dim),
        }
    }

    /// Index of the closest entry — first minimum wins, exactly like
    /// `CfTree::closest_leaf_entry`.
    fn closest(&self, ent: &Cf) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            let d = self.metric.distance(ent, e);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best.map(|(i, _)| i)
    }

    /// The paper's leaf rule, flat: absorb into the closest entry if the
    /// merged entry satisfies `T`, else append a new entry.
    fn insert(&mut self, ent: Cf) -> InsertOutcome {
        self.total.merge(&ent);
        if let Some(idx) = self.closest(&ent) {
            let tentative = self.entries[idx].merged(&ent);
            if self.kind.satisfies(&tentative, self.threshold) {
                self.entries[idx] = tentative;
                return InsertOutcome::Absorbed;
            }
        }
        self.entries.push(ent);
        InsertOutcome::Added
    }
}

/// xorshift64 — deterministic input without external RNG crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn params(threshold: f64, branching: usize, leaf_capacity: usize) -> TreeParams {
    TreeParams {
        dim: 2,
        branching,
        leaf_capacity,
        threshold,
        threshold_kind: ThresholdKind::Diameter,
        metric: DistanceMetric::D2,
        merge_refinement: true,
        descend_prune: false,
    }
}

/// Canonical order for comparing entry *sets* when the tree's leaf order
/// may differ from the oracle's insertion order.
fn sorted_entries(mut entries: Vec<Cf>) -> Vec<Cf> {
    entries.sort_by(|a, b| {
        (a.mean()[0], a.mean()[1], a.n())
            .partial_cmp(&(b.mean()[0], b.mean()[1], b.n()))
            .expect("finite CFs")
    });
    entries
}

#[test]
fn single_leaf_regime_is_bit_exact() {
    // Capacity far above the entry count: the tree is one leaf, its
    // closest-entry scan walks the same list in the same order as the
    // oracle, so every absorb/new-entry decision — and every merged CF —
    // must be bit-identical.
    let mut tree = CfTree::new(params(1.5, 4096, 4096));
    let mut oracle = FlatOracle::new(2, 1.5, ThresholdKind::Diameter, DistanceMetric::D2);
    let mut rng = Rng(0x0A7A1E);
    for i in 0..400 {
        let p = Point::xy(rng.f64() * 30.0, rng.f64() * 30.0);
        let t = tree.insert_point(&p);
        let o = oracle.insert(Cf::from_point(&p));
        assert_eq!(t, o, "decision diverged at point {i} ({p:?})");
    }
    assert_eq!(tree.height(), 1, "test premise: tree never split");
    let tree_entries: Vec<Cf> = tree.leaf_entries().cloned().collect();
    assert_eq!(tree_entries.len(), oracle.entries.len());
    for (i, (a, b)) in tree_entries.iter().zip(&oracle.entries).enumerate() {
        assert!(a == b, "entry {i} differs: tree {a:?} vs oracle {b:?}");
    }
    assert!(tree.total_cf() == &oracle.total, "running totals diverged");
    tree.audit().unwrap();
}

#[test]
fn single_leaf_regime_all_metrics_and_kinds() {
    // The bit-exact equivalence is metric/threshold-kind independent.
    for &metric in &DistanceMetric::ALL {
        for kind in [ThresholdKind::Diameter, ThresholdKind::Radius] {
            let mut tree = CfTree::new(TreeParams {
                threshold_kind: kind,
                metric,
                ..params(1.0, 4096, 4096)
            });
            let mut oracle = FlatOracle::new(2, 1.0, kind, metric);
            let mut rng = Rng(0xD1FF ^ metric as u64);
            for _ in 0..200 {
                let p = Point::xy(rng.f64() * 20.0, rng.f64() * 20.0);
                let t = tree.insert_point(&p);
                let o = oracle.insert(Cf::from_point(&p));
                assert_eq!(t, o, "decision diverged under {metric:?}/{kind:?}");
            }
            let tree_entries: Vec<Cf> = tree.leaf_entries().cloned().collect();
            assert_eq!(
                tree_entries, oracle.entries,
                "entries diverged under {metric:?}/{kind:?}"
            );
        }
    }
}

#[test]
fn well_separated_blobs_match_despite_splits() {
    // Small B/L so the tree genuinely splits. Blob spacing (200) dwarfs
    // both the threshold and the blob spread, so the descent always lands
    // each point in its own blob's entry: the *set* of entries (and each
    // entry's exact CF, merged in feed order) must match the flat oracle
    // even though leaf order differs.
    let mut tree = CfTree::new(params(8.0, 3, 3));
    let mut oracle = FlatOracle::new(2, 8.0, ThresholdKind::Diameter, DistanceMetric::D2);
    let mut rng = Rng(0xB10B5);
    let centers = [0.0, 200.0, 400.0, 600.0, 800.0, 1000.0];
    for i in 0..600 {
        let c = centers[i % centers.len()];
        let p = Point::xy(c + rng.f64(), c + rng.f64());
        tree.insert_point(&p);
        oracle.insert(Cf::from_point(&p));
    }
    assert!(tree.height() > 1, "test premise: tree split");
    assert_eq!(oracle.entries.len(), centers.len(), "one entry per blob");
    let t = sorted_entries(tree.leaf_entries().cloned().collect());
    let o = sorted_entries(oracle.entries.clone());
    assert_eq!(t, o, "entry sets diverged");
    tree.audit().unwrap();
}

#[test]
fn phase3_input_cfs_agree_with_oracle() {
    // Phase 3 consumes the leaf entries; feeding it the tree's entries
    // and the oracle's entries (canonically ordered) must produce the
    // same global clusters, exactly.
    let mut tree = CfTree::new(params(8.0, 3, 3));
    let mut oracle = FlatOracle::new(2, 8.0, ThresholdKind::Diameter, DistanceMetric::D2);
    let mut rng = Rng(0x9A5E3);
    let centers = [0.0, 150.0, 300.0, 450.0];
    for i in 0..400 {
        let c = centers[i % centers.len()];
        let p = Point::xy(c + rng.f64() * 2.0, c + rng.f64() * 2.0);
        tree.insert_point(&p);
        oracle.insert(Cf::from_point(&p));
    }
    let t_entries = sorted_entries(tree.leaf_entries().cloned().collect());
    let o_entries = sorted_entries(oracle.entries.clone());
    assert_eq!(t_entries, o_entries, "phase-3 inputs differ");

    let k = 2;
    let t3 = global_cluster(t_entries, DistanceMetric::D2, ClusterCount::Exact(k));
    let o3 = global_cluster(o_entries, DistanceMetric::D2, ClusterCount::Exact(k));
    assert_eq!(t3.entry_labels, o3.entry_labels, "labels diverged");
    assert_eq!(
        sorted_entries(t3.clusters),
        sorted_entries(o3.clusters),
        "cluster CFs diverged"
    );
}

#[test]
fn kernel_descent_choice_matches_scalar_reference_on_all_metrics() {
    // The batched closest-child kernel must pick the *identical* index as
    // a naive first-minimum scan over `DistanceMetric::distance` — same
    // winner, same distance bits, and the same tie resolution (a
    // duplicated candidate forces an exact tie every trial). The pruned
    // variant must agree too, with its evaluated/pruned counters summing
    // to the scan length.
    let mut rng = Rng(0x5EED5);
    for &metric in &DistanceMetric::ALL {
        for trial in 0..50 {
            let n = 2 + (rng.next() % 6) as usize;
            let mut cands: Vec<Cf> = (0..n)
                .map(|_| {
                    let mut cf = Cf::empty(2);
                    for _ in 0..=(rng.next() % 3) {
                        cf.add_point(&Point::xy(rng.f64() * 10.0, rng.f64() * 10.0));
                    }
                    cf
                })
                .collect();
            let dup = cands[(rng.next() % n as u64) as usize].clone();
            cands.push(dup);
            let probe = Cf::from_point(&Point::xy(rng.f64() * 10.0, rng.f64() * 10.0));
            let block = CfBlock::from_cfs(cands.iter());

            let mut reference: Option<(usize, f64)> = None;
            for (i, c) in cands.iter().enumerate() {
                let d = metric.distance(&probe, c);
                if reference.is_none_or(|(_, bd)| d < bd) {
                    reference = Some((i, d));
                }
            }

            let kernel = closest_among(metric, &probe, &block);
            let (ri, rd) = reference.expect("non-empty candidate set");
            let (ki, kd) = kernel.expect("non-empty block");
            assert_eq!(ki, ri, "winner diverged under {metric:?} (trial {trial})");
            assert_eq!(
                kd.to_bits(),
                rd.to_bits(),
                "distance bits diverged under {metric:?} (trial {trial}): {kd} vs {rd}"
            );

            let (pruned_best, evaluated, pruned) = closest_among_pruned(metric, &probe, &block);
            let (pi, pd) = pruned_best.expect("non-empty block");
            assert_eq!(pi, ri, "pruned winner diverged under {metric:?}");
            assert_eq!(pd.to_bits(), rd.to_bits(), "pruned distance bits diverged");
            assert_eq!(
                evaluated + pruned,
                cands.len() as u64,
                "counter identity broken under {metric:?}"
            );
        }
    }
}

#[test]
fn adversarial_input_conserves_and_respects_threshold() {
    // Duplicates, collinear runs, large-magnitude coordinates: both sides
    // must conserve N exactly, the oracle's multi-point entries must obey
    // the threshold rule they were built under, and the tree's own audit
    // (Additivity, chain, bounds, threshold) must pass.
    let mut tree = CfTree::new(params(2.0, 3, 3));
    let mut oracle = FlatOracle::new(2, 2.0, ThresholdKind::Diameter, DistanceMetric::D2);
    let mut rng = Rng(0xADE5A);
    let mut fed = 0.0;
    for i in 0..500 {
        let p = match i % 4 {
            0 => Point::xy(1e6, -1e6),         // repeated duplicate
            1 => Point::xy(f64::from(i), 0.0), // collinear run
            2 => Point::xy(f64::from(i).mul_add(-0.5, 7.0), 1e-9),
            _ => Point::xy(rng.f64() * 1e4, rng.f64() * 1e4),
        };
        tree.insert_point(&p);
        oracle.insert(Cf::from_point(&p));
        fed += 1.0;
    }
    assert!((tree.total_cf().n() - fed).abs() < 1e-9);
    assert!((oracle.total.n() - fed).abs() < 1e-9);
    let in_entries: f64 = oracle.entries.iter().map(Cf::n).sum();
    assert!((in_entries - fed).abs() < 1e-9, "oracle dropped points");
    let slack = 2.0 * (1.0 + 1e-9) + 1e-12;
    for e in &oracle.entries {
        if e.n() > 1.0 {
            assert!(
                ThresholdKind::Diameter.statistic(e) <= slack,
                "oracle entry breaks its own threshold rule"
            );
        }
    }
    tree.audit().unwrap();
}
