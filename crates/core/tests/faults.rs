//! Deterministic fault-injection: drives the degradation paths that a
//! healthy spill disk never exercises.
//!
//! The outlier store and the delay-split option park their entries on a
//! `birch_core::spill::SpillLog`, a log of checksummed pages in a real
//! file that accepts a seeded [`FaultPlan`] (fail the k-th write, random
//! failures from a seed, a permanent force-full watermark) and refuses a
//! write it cannot put on disk as if the disk were full. These tests
//! verify the §5.1.3/§5.1.4 machinery stays lossless under every failure:
//! a refused spill folds the entry back into the tree, a force-full disk
//! triggers the re-absorption scan, a merge stage with a failing outlier
//! disk still conserves every point carried over from its shards, and a
//! spill directory that does not exist refuses every write without a
//! panic.

use birch_core::phase1::Phase1Builder;
use birch_core::{BirchConfig, Cf, Point};
use birch_pager::FaultPlan;

/// Three tight blobs plus sparse far noise — the noise singletons become
/// potential outliers at every rebuild.
fn blobs_with_noise(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            if i % 25 == 0 {
                // Noise: unique, far from all blobs and from each other.
                let j = f64::from(u32::try_from(i).unwrap());
                Point::xy(5e5 + j * 1e4, -5e5 - j * 1e4)
            } else {
                let c = (i % 3) as f64 * 50.0;
                let j = f64::from(u32::try_from(i).unwrap());
                Point::xy(
                    c + (j * 0.37).rem_euclid(2.0),
                    c + (j * 0.73).rem_euclid(2.0),
                )
            }
        })
        .collect()
}

/// Acceptance path: a force-full watermark makes the outlier disk report
/// "no space" from early in the run, so every rebuild afterwards hits the
/// §5.1.3 "disk full → scan for re-absorption" branch, and the refused
/// refills fold back into the tree. End to end: spill → forced-full →
/// reabsorb, with N conserved throughout.
#[test]
fn spill_full_then_reabsorb_end_to_end() {
    // delay-split off so every parked point is on the *outlier* disk and
    // the conservation arithmetic below has one term.
    let cfg = BirchConfig::with_clusters(3)
        .memory(4 * 1024)
        .disk(4 * 1024)
        .outliers(true)
        .delay_split(false);
    let mut b = Phase1Builder::new(&cfg, 2);
    b.outlier_log_mut()
        .expect("outliers enabled")
        .set_fault_plan(FaultPlan::new().force_full_after(256));

    for (i, p) in blobs_with_noise(3000).iter().enumerate() {
        b.feed(Cf::from_point(p));
        if i % 250 == 0 {
            b.audit()
                .unwrap_or_else(|v| panic!("audit after {i} feeds: {v}"));
        }
    }
    b.audit().unwrap();

    let store = b.outlier_log_mut().expect("outliers enabled");
    assert!(
        store.faults_injected() > 0,
        "the forced-full watermark never refused a write"
    );
    let m = b.metrics().snapshot();
    assert!(m.rebuilds > 0, "memory pressure never triggered a rebuild");
    assert!(m.outliers_spilled > 0, "rebuilds never spilled an outlier");
    // The forced-full disk refuses write-backs, so the scan's recoveries
    // arrive as true absorptions and/or fold-backs; either proves the
    // re-absorption branch ran.
    assert!(
        m.outliers_reabsorbed + m.outliers_folded_back > 0,
        "the full disk never triggered the re-absorption scan"
    );

    let tree_n = b.tree().total_cf().n();
    let parked = b.outlier_log_mut().map_or(0.0, |s| s.parked_n());
    assert!(
        (tree_n + parked - 3000.0).abs() < 1e-9,
        "points lost mid-run: tree {tree_n} + parked {parked} != 3000"
    );

    let out = b.finish();
    birch_core::audit(&out.tree).expect("post-finish audit");
}

/// A single injected write failure on an otherwise healthy disk: the
/// refused potential outlier must be folded into the tree (not lost, not
/// silently retried), and the next spill must succeed.
#[test]
fn injected_spill_failure_folds_entry_into_tree() {
    let cfg = BirchConfig::with_clusters(2)
        .memory(64 * 1024)
        .outliers(true)
        .delay_split(false);
    let mut b = Phase1Builder::new(&cfg, 2);
    for i in 0..50 {
        let c = (i % 2) as f64 * 40.0;
        b.feed(Cf::from_point(&Point::xy(c, c)));
    }
    let base = b.tree().total_cf().n();

    b.outlier_log_mut()
        .expect("outliers enabled")
        .set_fault_plan(FaultPlan::new().fail_write(1));

    // Far from every entry (threshold is still tiny), so absorption fails
    // and the spill is attempted — and refused by the injected fault.
    b.feed_outlier_candidate(Cf::from_point(&Point::xy(1e5, 1e5)));
    {
        let store = b.outlier_log_mut().expect("outliers enabled");
        assert_eq!(store.faults_injected(), 1);
        assert!(store.is_empty(), "refused entry must not be on disk");
    }
    assert!(
        (b.tree().total_cf().n() - (base + 1.0)).abs() < 1e-9,
        "refused spill was not folded into the tree"
    );

    // The plan is exhausted: the next candidate parks normally.
    b.feed_outlier_candidate(Cf::from_point(&Point::xy(-1e5, -1e5)));
    {
        let store = b.outlier_log_mut().expect("outliers enabled");
        assert_eq!(store.len(), 1, "second spill should succeed");
        assert_eq!(store.faults_injected(), 1);
    }
    b.audit().unwrap();
}

/// Manual two-shard build-and-merge where the merge stage's outlier disk
/// refuses every write: carried shard outliers must all land in the merged
/// tree (via `feed_outlier_candidate`'s fold-back), conserving N exactly.
#[test]
fn shard_merge_with_failed_spill_conserves_everything() {
    let cfg = BirchConfig::with_clusters(3)
        .memory(4 * 1024)
        .disk(4 * 1024)
        .outliers(true)
        .delay_split(false);
    let pts = blobs_with_noise(2400);
    let (half_a, half_b) = pts.split_at(1200);

    let shard = |half: &[Point]| {
        let mut s = Phase1Builder::new(&cfg, 2);
        for p in half {
            s.feed(Cf::from_point(p));
        }
        s.audit().unwrap();
        s.finish_keeping_outliers()
    };
    let (out_a, carried_a) = shard(half_a);
    let (out_b, carried_b) = shard(half_b);
    assert!(
        !carried_a.is_empty() || !carried_b.is_empty(),
        "test premise: shards must carry unresolved outliers into the merge"
    );

    // Merge stage at the max shard threshold (same rule as parallel.rs),
    // with an outlier disk that refuses every write from the start.
    let t = out_a.tree.threshold().max(out_b.tree.threshold());
    let mcfg = cfg.clone().initial_threshold(t);
    let mut m = Phase1Builder::new(&mcfg, 2);
    m.outlier_log_mut()
        .expect("outliers enabled")
        .set_fault_plan(FaultPlan::new().force_full_after(0));

    let mut expected = 0.0;
    for e in out_a.tree.into_leaf_entries() {
        expected += e.n();
        m.feed(e);
    }
    for e in out_b.tree.into_leaf_entries() {
        expected += e.n();
        m.feed(e);
    }
    let mut spill_attempts = 0u64;
    for cf in carried_a.into_iter().chain(carried_b) {
        expected += cf.n();
        m.feed_outlier_candidate(cf);
        spill_attempts += 1;
    }
    m.audit().unwrap();
    {
        let store = m.outlier_log_mut().expect("outliers enabled");
        assert!(store.is_empty(), "no write can have succeeded");
        assert!(
            store.faults_injected() > 0,
            "none of the {spill_attempts} carried outliers hit the faulty disk \
             (all absorbed?) — premise broken"
        );
    }

    let out = m.finish();
    birch_core::audit(&out.tree).expect("merged tree audit");
    // Nothing was parked and nothing discarded, so the merged tree holds
    // every point from both shards.
    assert!(
        (out.tree.total_cf().n() - expected).abs() < 1e-6,
        "merge lost data: tree N {} vs fed {expected}",
        out.tree.total_cf().n()
    );
}

/// Random seeded failures on the delay-split log: a refused park falls
/// back to rebuild-then-insert, so delay-mode degradation is lossless too.
#[test]
fn delay_split_park_failures_are_lossless() {
    let cfg = BirchConfig::with_clusters(3)
        .memory(4 * 1024)
        .disk(4 * 1024)
        .outliers(false)
        .delay_split(true);
    let mut b = Phase1Builder::new(&cfg, 2);
    b.delay_log_mut()
        .expect("delay-split enabled")
        .set_fault_plan(FaultPlan::new().fail_randomly(0xFA17, 0.5));

    let n = 2000;
    for (i, p) in blobs_with_noise(n).iter().enumerate() {
        b.feed(Cf::from_point(p));
        if i % 300 == 0 {
            b.audit()
                .unwrap_or_else(|v| panic!("audit after {i} feeds: {v}"));
        }
    }
    b.audit().unwrap();
    assert!(
        b.delay_log_mut()
            .expect("delay-split enabled")
            .faults_injected()
            > 0,
        "no park was ever refused — raise the failure probability"
    );

    let out = b.finish();
    birch_core::audit(&out.tree).expect("post-finish audit");
    assert!(
        (out.tree.total_cf().n() - f64::from(u32::try_from(n).unwrap())).abs() < 1e-9,
        "delay-split degradation lost points"
    );
}

/// An in-core fit whose spill directory does not exist: the spill logs
/// cannot create their files, so they report themselves full from the
/// first write on. Every refusal is organic, the fit finishes without a
/// panic, and every point is kept or counted as discarded.
#[test]
fn missing_spill_dir_refuses_every_write_organically() {
    let dir = std::env::temp_dir().join(format!("birch-faults-no-such-dir-{}", std::process::id()));
    assert!(!dir.exists());
    let cfg = BirchConfig::with_clusters(3)
        .memory(4 * 1024)
        .disk(4 * 1024)
        .spill_dir(&dir)
        .refinement_passes(0)
        .threads(1);
    let pts = blobs_with_noise(3000);
    let model = birch_core::Birch::new(cfg)
        .fit(&pts)
        .expect("the fit finishes");
    let m = &model.stats().metrics;
    let c = &m.counters;
    assert!(m.rebuilds > 0, "memory pressure never triggered a rebuild");
    assert!(c.disk_write_attempts > 0, "nothing tried to spill");
    assert_eq!(c.disk_writes, 0, "a write landed without a file");
    assert_eq!(c.disk_faults_injected, 0, "an I/O refusal is organic");
    // With Phase 4 off, the clusters are the tree's: they hold every
    // point not discarded, and none was discarded, as none was parked.
    let kept: f64 = model.clusters().iter().map(|k| k.cf.n()).sum();
    assert_eq!(c.outliers_discarded, 0.0);
    assert_eq!(kept, 3000.0, "points lost");
    assert!(!dir.exists());
}
