//! Crash-recovery integration: out-of-core Phase 1, checkpoint at an
//! arbitrary moment, "crash" (drop every in-memory structure), reopen
//! from the snapshot file, and verify nothing was lost — structurally
//! (full auditor), bit-for-bit (leaf CF words), and behaviorally (the
//! global phases produce identical output from the restored tree).

use birch_core::node::Node;
use birch_core::phase1::Phase1Builder;
use birch_core::tree::{CfTree, TreeParams};
use birch_core::{Birch, BirchConfig, Cf, Point};
use birch_pager::{
    decode_page, encode_page, peek_kind, PageKind, SnapshotError, SnapshotReader, SnapshotWriter,
};

/// Deterministic interleaved blobs with occasional far noise.
fn noisy_blobs(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            if i % 40 == 0 {
                let j = i as f64;
                Point::xy(3e5 + j * 1e3, -3e5 - j * 1e3)
            } else {
                let c = (i % 4) as f64 * 80.0;
                let j = i as f64;
                Point::xy(c + (j * 0.41).sin() * 2.0, c + (j * 0.97).cos() * 2.0)
            }
        })
        .collect()
}

fn leaf_words(tree: &CfTree) -> Vec<Vec<u64>> {
    tree.leaf_entries()
        .map(|cf| {
            let mut w = Vec::new();
            cf.to_words(&mut w);
            w
        })
        .collect()
}

/// Out-of-core build → checkpoint mid-scan → crash → reopen → continue
/// feeding the identical remainder on both sides → identical trees.
#[test]
fn out_of_core_checkpoint_survives_crash_mid_scan() {
    let cfg = BirchConfig::with_clusters(4)
        .memory(8 * 1024)
        .page_size(1024)
        .out_of_core(true)
        .delay_split(false)
        .outliers(false);
    let pts = noisy_blobs(4000);
    let (first, rest) = pts.split_at(2500);

    let snap = std::env::temp_dir().join(format!(
        "birch-recovery-midscan-{}.snap",
        std::process::id()
    ));

    // Build the first half out-of-core and checkpoint the tree.
    let mut b = Phase1Builder::new(&cfg, 2);
    for p in first {
        b.feed(Cf::from_point(p));
    }
    b.audit().expect("pre-checkpoint audit");
    // Checkpoint straight off the paged tree (faults everything in
    // first), then keep this builder as the uncrashed control.
    b.checkpoint(&snap).expect("checkpoint paged tree");
    let mut survivor = b;

    // "Crash": reopen from the file alone and verify bit-identity with
    // the control before continuing.
    let mut restored = CfTree::reopen(&snap).expect("reopen after crash");
    restored.audit().expect("restored tree audit");
    assert_eq!(
        leaf_words(survivor.tree()),
        leaf_words(&restored),
        "restored leaf CFs must be bit-identical to the checkpointed tree"
    );

    // Continue the scan identically on both sides.
    for p in rest {
        survivor.feed(Cf::from_point(p));
        restored.insert_point(p);
    }
    let out = survivor.finish();
    out.tree.check_invariants().expect("control invariants");
    restored.check_invariants().expect("restored invariants");
    assert!(
        (out.tree.total_cf().n() - restored.total_cf().n()).abs() < 1e-9,
        "diverged after resume: control N {} vs restored N {}",
        out.tree.total_cf().n(),
        restored.total_cf().n()
    );
    std::fs::remove_file(&snap).ok();
}

/// The restored tree drives Phases 3–4 to the same model as the run that
/// wrote the checkpoint — the pipeline-level recovery contract.
#[test]
fn restored_tree_reproduces_global_phases() {
    let pts = noisy_blobs(3000);
    let snap =
        std::env::temp_dir().join(format!("birch-recovery-global-{}.snap", std::process::id()));
    let cfg = BirchConfig::with_clusters(4)
        .memory(8 * 1024)
        .page_size(1024)
        .threads(1);
    let full = Birch::new(cfg.clone())
        .fit_with_checkpoint(&pts, &snap)
        .expect("fit with checkpoint");
    let resumed = Birch::new(cfg)
        .fit_from_snapshot(&snap, &pts)
        .expect("fit from snapshot");
    std::fs::remove_file(&snap).ok();

    assert_eq!(full.clusters().len(), resumed.clusters().len());
    for (a, b) in full.clusters().iter().zip(resumed.clusters()) {
        let (mut wa, mut wb) = (Vec::new(), Vec::new());
        a.cf.to_words(&mut wa);
        b.cf.to_words(&mut wb);
        assert_eq!(wa, wb, "cluster CFs diverged after restore");
    }
    assert_eq!(full.labels(), resumed.labels(), "labels diverged");
}

/// Every flipped byte anywhere in a snapshot must surface as a typed
/// error on reopen — never a clean load of corrupt state, never a panic.
#[test]
fn reopen_rejects_bit_flips_everywhere() {
    let cfg = BirchConfig::with_clusters(3)
        .memory(8 * 1024)
        .page_size(1024);
    let snap =
        std::env::temp_dir().join(format!("birch-recovery-flips-{}.snap", std::process::id()));
    let mut b = Phase1Builder::new(&cfg, 2);
    for p in noisy_blobs(600) {
        b.feed(Cf::from_point(&p));
    }
    let mut out = b.finish();
    out.tree.checkpoint(&snap).expect("checkpoint");
    let bytes = std::fs::read(&snap).expect("read snapshot");
    assert!(bytes.len() > 256, "snapshot suspiciously small");

    let mut rejected = 0usize;
    for at in (0..bytes.len()).step_by(131) {
        let mut evil = bytes.clone();
        evil[at] ^= 0x40;
        std::fs::write(&snap, &evil).expect("write corrupted snapshot");
        match CfTree::reopen(&snap) {
            Err(_) => rejected += 1,
            Ok(tree) => {
                // A flip in CF payload bits that still checksums is
                // impossible; a load that "succeeds" must be truly
                // byte-identical semantics (never happens for xor 0x40).
                panic!(
                    "corrupt snapshot (byte {at} flipped) loaded cleanly \
                     with {} nodes",
                    tree.node_count()
                );
            }
        }
    }
    assert!(rejected > 0);
    std::fs::remove_file(&snap).ok();
}

/// A multi-level tree (B = L = 3) from a deterministic 500-point walk.
fn walk_tree() -> CfTree {
    let mut t = CfTree::new(TreeParams {
        branching: 3,
        leaf_capacity: 3,
        threshold: 0.5,
        ..TreeParams::for_dim(2)
    });
    let (mut x, mut y) = (0.0f64, 0.0f64);
    for i in 0..500 {
        x = (x * 1.3 + f64::from(i) * 0.7).rem_euclid(50.0);
        y = (y * 1.7 + f64::from(i) * 0.3).rem_euclid(50.0);
        t.insert_point(&Point::xy(x, y));
    }
    assert!(t.height() >= 3, "need interior pages below the root");
    t
}

/// Checkpoints [`walk_tree`], sets the first child word of the snapshot's
/// first interior page to `child(page_id)`, and reopens it. The page and
/// the snapshot are re-encoded, so every CRC still holds and only the id
/// checks can catch the edit.
fn reopen_with_first_child(tag: &str, child: impl Fn(u32) -> u64) -> Result<CfTree, SnapshotError> {
    let snap = std::env::temp_dir().join(format!(
        "birch-recovery-child-{tag}-{}.snap",
        std::process::id()
    ));
    walk_tree().checkpoint(&snap).expect("checkpoint");
    let reader = SnapshotReader::open(&snap).expect("open snapshot");
    let mut w = SnapshotWriter::new();
    w.add_section(*b"META", reader.require(*b"META").expect("META").to_vec());
    let mut edited = false;
    for payload in reader.sections(*b"NODE") {
        let (id, page) = payload.split_at(4);
        let mut payload = payload.to_vec();
        if !edited && matches!(peek_kind(page), Ok(PageKind::Interior)) {
            let id = u32::from_le_bytes(id.try_into().expect("4 bytes"));
            let per = Node::words_per_entry(PageKind::Interior, 2);
            let mut p = decode_page(page, per).expect("decode page");
            p.words[per - 1] = child(id);
            let page = encode_page(page.len(), p.kind, p.count, p.prev, p.next, &p.words)
                .expect("re-encode page");
            payload.truncate(4);
            payload.extend_from_slice(&page);
            edited = true;
        }
        w.add_section(*b"NODE", payload);
    }
    assert!(edited, "snapshot has no interior page");
    w.finish(&snap).expect("rewrite snapshot");
    let out = CfTree::reopen(&snap);
    std::fs::remove_file(&snap).ok();
    out
}

fn assert_malformed(got: Result<CfTree, SnapshotError>, want: &str) {
    match got {
        Err(SnapshotError::Malformed { detail }) => {
            assert!(detail.contains(want), "wrong defect named: {detail}");
        }
        Err(e) => panic!("expected a malformed-snapshot error, got {e}"),
        Ok(t) => panic!("bad child id loaded cleanly ({} nodes)", t.node_count()),
    }
}

/// A child id past the end of the arena is rejected on reopen, not left
/// for the first descent to index out of bounds.
#[test]
fn reopen_rejects_child_outside_the_arena() {
    assert_malformed(
        reopen_with_first_child("far", |_| 100_000),
        "child 100000 is outside the arena",
    );
}

/// A child word wider than a node id is an error, not a decode panic.
#[test]
fn reopen_rejects_child_word_beyond_node_ids() {
    assert_malformed(
        reopen_with_first_child("wide", |_| 1 << 40),
        "child pointer 1099511627776 exceeds the arena range",
    );
}

/// A node naming itself as a child is rejected instead of making every
/// descent through it loop forever.
#[test]
fn reopen_rejects_self_referencing_child() {
    assert_malformed(
        reopen_with_first_child("self", u64::from),
        "is reached twice",
    );
}
