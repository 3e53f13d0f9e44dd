//! Randomized soak harness for the CF-tree invariant auditor.
//!
//! Each iteration draws a random-but-seeded configuration (memory budget,
//! page size, metric, threshold kind, outlier/delay-split options, thread
//! count) and a random dataset, then drives the tree through the paths
//! that mutate it — serial inserts with rebuilds, deterministic disk
//! faults on the outlier store, and the sharded parallel build — auditing
//! the full invariant set along the way and accumulating the worst
//! floating-point drift observed.
//!
//! Build with `--features strict-audit` to additionally audit after every
//! single tree mutation (the per-operation hooks inside `birch-core`).
//!
//! `--recovery` switches to the crash-recovery fuzz instead: every
//! iteration builds an *out-of-core* tree, checkpoints it at a random
//! point mid-scan, "crashes" (reopens from the snapshot file alone),
//! bit-compares the restored leaf CFs against the live tree, verifies a
//! randomly corrupted copy of the snapshot is rejected with a typed
//! error, and then continues the scan on both trees in lockstep.
//!
//! Exit status: 0 when every audit passed, 1 on the first violation.
//! Usage: `birch-soak [--iters N] [--seed S] [--recovery]` (defaults:
//! 20 iterations, seed 0xB1C5).

use birch_core::audit::Drift;
use birch_core::phase1::Phase1Builder;
use birch_core::tree::CfTree;
use birch_core::{parallel, BirchConfig, Cf, DistanceMetric, Point, ThresholdKind};
use birch_pager::FaultPlan;
use std::process::ExitCode;

/// xorshift64 (Marsaglia) — the same deterministic generator the pager's
/// fault plan uses; no external RNG dependency.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct Args {
    iters: u64,
    seed: u64,
    recovery: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        iters: 20,
        seed: 0xB1C5,
        recovery: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--iters" => args.iters = value("--iters")?,
            "--seed" => args.seed = value("--seed")?,
            "--recovery" => args.recovery = true,
            other => {
                return Err(format!(
                    "unknown flag {other} (try --iters, --seed, --recovery)"
                ))
            }
        }
    }
    Ok(args)
}

/// A seeded random dataset: `k` Gaussian-ish blobs plus background noise.
fn dataset(rng: &mut Rng, n: usize, k: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            if rng.below(20) == 0 {
                // 5% noise, far from every blob.
                Point::xy(500.0 + rng.f64() * 4000.0, -500.0 - rng.f64() * 4000.0)
            } else {
                let c = (i % k) as f64 * 60.0;
                Point::xy(c + rng.f64() * 4.0 - 2.0, c + rng.f64() * 4.0 - 2.0)
            }
        })
        .collect()
}

fn random_config(rng: &mut Rng) -> BirchConfig {
    let memory = 4 * 1024 + rng.below(28) as usize * 1024;
    let page = if rng.below(2) == 0 { 512 } else { 1024 };
    let metric = DistanceMetric::ALL[rng.below(4) as usize];
    let kind = if rng.below(2) == 0 {
        ThresholdKind::Diameter
    } else {
        ThresholdKind::Radius
    };
    BirchConfig::with_clusters(2 + rng.below(4) as usize)
        .memory(memory)
        .page_size(page)
        .metric(metric)
        .threshold_kind(kind)
        .outliers(rng.below(4) != 0)
        .delay_split(rng.below(2) == 0)
}

fn fold_drift(acc: &mut Drift, r: &birch_core::AuditReport) {
    acc.n = acc.n.max(r.interior_drift.n).max(r.root_drift.n);
    acc.vec = acc.vec.max(r.interior_drift.vec).max(r.root_drift.vec);
    acc.scalar = acc
        .scalar
        .max(r.interior_drift.scalar)
        .max(r.root_drift.scalar);
}

/// One serial soak pass: feed everything through a [`Phase1Builder`],
/// optionally injecting disk faults, auditing periodically and at the end.
fn soak_serial(
    rng: &mut Rng,
    cfg: &BirchConfig,
    pts: &[Point],
    drift: &mut Drift,
) -> Result<(u64, u64), String> {
    let mut b = Phase1Builder::new(cfg, 2);
    // Half the runs degrade the outlier disk mid-flight: force-full after
    // a small byte watermark, plus sporadic random write failures.
    let mut faulted = false;
    if rng.below(2) == 0 {
        if let Some(store) = b.outlier_log_mut() {
            let plan = FaultPlan::new()
                .fail_randomly(rng.next_u64().max(1), 0.2)
                .force_full_after(512 + rng.below(2048));
            store.set_fault_plan(plan);
            faulted = true;
        }
    }
    let audit_every = 1 + rng.below(97);
    let mut audits = 0u64;
    for (i, p) in pts.iter().enumerate() {
        b.feed(Cf::from_point(p));
        if (i as u64).is_multiple_of(audit_every) {
            b.audit().map_err(|v| format!("mid-run audit: {v}"))?;
            audits += 1;
        }
    }
    b.audit().map_err(|v| format!("end-of-scan audit: {v}"))?;
    audits += 1;
    let faults = if faulted {
        b.outlier_log_mut().map_or(0, |s| s.faults_injected())
    } else {
        0
    };
    let out = b.finish();
    let report = birch_core::audit(&out.tree).map_err(|v| format!("post-finish audit: {v}"))?;
    fold_drift(drift, &report);
    Ok((audits + 1, faults))
}

/// One parallel soak pass: sharded build, then a full audit of the merged
/// tree (with `strict-audit` the merge itself already audited per-op).
fn soak_parallel(
    rng: &mut Rng,
    cfg: &BirchConfig,
    pts: &[Point],
    drift: &mut Drift,
) -> Result<(), String> {
    let threads = 1 + rng.below(4) as usize;
    let out = parallel::run(cfg, 2, pts, threads);
    let report =
        birch_core::audit(&out.tree).map_err(|v| format!("parallel({threads}) audit: {v}"))?;
    fold_drift(drift, &report);
    Ok(())
}

/// One crash-recovery pass: build out-of-core, checkpoint at a random
/// cut point, "crash" (reopen from the snapshot file alone), bit-compare
/// the restored leaf CFs against the live tree, verify a corrupted copy
/// of the snapshot is rejected, then resume the scan on both sides and
/// check they stay in lockstep.
fn soak_recovery(
    rng: &mut Rng,
    cfg: &BirchConfig,
    pts: &[Point],
    drift: &mut Drift,
    iter: u64,
) -> Result<(u64, u64), String> {
    let cfg = cfg.clone().out_of_core(true);
    let snap =
        std::env::temp_dir().join(format!("birch-soak-rec-{}-{iter}.snap", std::process::id()));
    let cut = 1 + rng.below(pts.len() as u64 - 1) as usize;

    let mut b = Phase1Builder::new(&cfg, 2);
    for p in &pts[..cut] {
        b.feed(Cf::from_point(p));
    }
    let report = b
        .audit()
        .map_err(|v| format!("pre-checkpoint audit: {v}"))?;
    fold_drift(drift, &report);
    b.checkpoint(&snap)
        .map_err(|e| format!("checkpoint: {e}"))?;
    let mut survivor = b;

    let mut restored = match CfTree::reopen(&snap) {
        Ok(t) => t,
        Err(e) => {
            std::fs::remove_file(&snap).ok();
            return Err(format!("reopen: {e}"));
        }
    };
    let report = restored
        .audit()
        .map_err(|v| format!("restored-tree audit: {v}"))?;
    fold_drift(drift, &report);

    // Bit-identity of the leaf CFs (checkpoint faulted everything in, so
    // the live paged tree is fully resident right now).
    let words = |tree: &CfTree| -> Vec<Vec<u64>> {
        tree.leaf_entries()
            .map(|cf| {
                let mut w = Vec::new();
                cf.to_words(&mut w);
                w
            })
            .collect()
    };
    if words(survivor.tree()) != words(&restored) {
        std::fs::remove_file(&snap).ok();
        return Err(format!(
            "restored leaf CFs differ from live tree at cut {cut}"
        ));
    }

    // A random single-bit flip anywhere in the snapshot must be rejected
    // with a typed error, never loaded cleanly and never a panic.
    let mut corruptions = 0u64;
    let bytes = std::fs::read(&snap).map_err(|e| format!("read snapshot: {e}"))?;
    let mut evil = bytes;
    let at = rng.below(evil.len() as u64) as usize;
    evil[at] ^= 1 << rng.below(8);
    std::fs::write(&snap, &evil).map_err(|e| format!("write corrupted snapshot: {e}"))?;
    match CfTree::reopen(&snap) {
        Err(_) => corruptions += 1,
        Ok(t) => {
            std::fs::remove_file(&snap).ok();
            return Err(format!(
                "corrupt snapshot (bit flipped at byte {at}) loaded cleanly with {} nodes",
                t.node_count()
            ));
        }
    }
    std::fs::remove_file(&snap).ok();

    // Resume the scan identically on both sides; the restored tree uses
    // the raw insert path (no builder), so only conservation of N — not
    // rebuild-dependent shape — is comparable.
    for p in &pts[cut..] {
        survivor.feed(Cf::from_point(p));
        let _ = restored.insert_point(p);
    }
    let report = survivor
        .audit()
        .map_err(|v| format!("resumed audit: {v}"))?;
    fold_drift(drift, &report);
    restored
        .check_invariants()
        .map_err(|v| format!("resumed restored-tree invariants: {v}"))?;
    let out = survivor.finish();
    let report = birch_core::audit(&out.tree).map_err(|v| format!("post-finish audit: {v}"))?;
    fold_drift(drift, &report);
    if (out.tree.total_cf().n() - restored.total_cf().n()).abs() > 1e-9 {
        return Err(format!(
            "diverged after resume: control N {} vs restored N {}",
            out.tree.total_cf().n(),
            restored.total_cf().n()
        ));
    }
    Ok((4, corruptions))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("birch-soak: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rng = Rng::new(args.seed);
    let mut drift = Drift::default();
    let mut audits = 0u64;
    let mut faults = 0u64;
    let strict = cfg!(feature = "strict-audit");
    println!(
        "birch-soak: {} iters, seed {:#x}, strict-audit {}{}",
        args.iters,
        args.seed,
        if strict { "on" } else { "off" },
        if args.recovery { ", recovery fuzz" } else { "" }
    );

    if args.recovery {
        let mut corruptions = 0u64;
        for iter in 0..args.iters {
            let cfg = random_config(&mut rng);
            let n = 500 + rng.below(2500) as usize;
            let k = 2 + rng.below(4) as usize;
            let pts = dataset(&mut rng, n, k);
            match soak_recovery(&mut rng, &cfg, &pts, &mut drift, iter) {
                Ok((a, c)) => {
                    audits += a;
                    corruptions += c;
                }
                Err(e) => {
                    eprintln!("iter {iter} (recovery, n={n}): FAIL: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!(
            "ok: {} recovery iters, {audits} explicit audits, {corruptions} corrupt \
             snapshots rejected; worst drift n={:.3e} vec={:.3e} scalar={:.3e}",
            args.iters, drift.n, drift.vec, drift.scalar
        );
        return ExitCode::SUCCESS;
    }

    for iter in 0..args.iters {
        let cfg = random_config(&mut rng);
        let n = 500 + rng.below(2500) as usize;
        let k = 2 + rng.below(4) as usize;
        let pts = dataset(&mut rng, n, k);

        match soak_serial(&mut rng, &cfg, &pts, &mut drift) {
            Ok((a, f)) => {
                audits += a;
                faults += f;
            }
            Err(e) => {
                eprintln!("iter {iter} (serial, n={n}): FAIL: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = soak_parallel(&mut rng, &cfg, &pts, &mut drift) {
            eprintln!("iter {iter} (parallel, n={n}): FAIL: {e}");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "ok: {} iters, {audits} explicit audits, {faults} disk faults injected; \
         worst drift n={:.3e} vec={:.3e} scalar={:.3e}",
        args.iters, drift.n, drift.vec, drift.scalar
    );
    ExitCode::SUCCESS
}
