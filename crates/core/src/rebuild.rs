//! CF-tree rebuilding (§5.1) — the paper's path-mirroring algorithm and
//! its Reducibility Theorem (§5.1.1).
//!
//! When the tree outgrows memory, BIRCH rebuilds it with a larger
//! threshold `T_{i+1} > T_i`. The paper's algorithm walks the old tree's
//! leaves *path by path* ("OldCurrentPath"), maintaining a mirrored
//! "NewCurrentPath" in the new tree — the same node at every level,
//! created on demand. Each old leaf entry is tested against the new tree:
//! if it can fit into an existing node **without splitting** (absorbed
//! within the threshold, or added to a leaf with free space — necessarily
//! at or left of the current path), it goes there; otherwise it is
//! appended to the mirrored current leaf, which by construction has room.
//! Because nodes are only ever created as mirrors of old nodes and no
//! split ever happens, the new tree cannot have more nodes than the old
//! one — and while both trees are partially alive, the transient overlap
//! is at most the `h` nodes of the current path:
//!
//! > **Reducibility Theorem**: rebuilding with `T_{i+1} ≥ T_i` needs at
//! > most `h` extra pages of memory, and `S_{i+1} ≤ S_i`.
//!
//! Rebuilding is also where outlier handling hooks in (§5.1.3): old leaf
//! entries holding far fewer points than average are potential outliers
//! and go to the outlier disk instead of the new tree.

use crate::cf::Cf;
use crate::node::{Node, NodeId, NodeKind};
use crate::obs::{Event, EventSink, NoopSink};
use crate::outlier::OutlierStore;
use crate::tree::{CfTree, TreeParams};

/// Accounting record of one rebuild.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RebuildReport {
    /// Pages (nodes) of the old tree.
    pub old_pages: usize,
    /// Pages (nodes) of the new tree.
    pub new_pages: usize,
    /// Transient peak of `new-tree pages + not-yet-freed old-tree pages`
    /// during the rebuild — the Reducibility Theorem bounds this by
    /// `old_pages + h`.
    pub peak_pages: usize,
    /// Leaf entries re-inserted into the new tree.
    pub entries_reinserted: usize,
    /// Leaf entries diverted to the outlier disk.
    pub entries_spilled: usize,
}

/// Rebuilds `old` into a fresh tree with threshold `new_threshold`,
/// guaranteeing `new.node_count() <= old.node_count()` (Reducibility).
///
/// If `outliers` is provided, entries whose weight falls below the
/// configured fraction of the average are spilled to the outlier disk;
/// when the disk is full they are kept in the new tree instead (no data
/// is ever dropped here).
///
/// # Panics
///
/// Panics if `new_threshold` is not finite or is smaller than the old
/// threshold — rebuilding with a tighter threshold can only grow the tree.
pub fn rebuild(
    old: &CfTree,
    new_threshold: f64,
    outliers: Option<&mut OutlierStore>,
) -> (CfTree, RebuildReport) {
    rebuild_observed(old, new_threshold, outliers, &mut NoopSink)
}

/// Like [`rebuild`], but reporting telemetry to `sink`: an
/// [`Event::OutlierSpilled`] with the total spill count, plus
/// [`Event::SplitPerformed`] / [`Event::MergeRefinement`] for any tree
/// mutations during construction (the spine builder itself never splits,
/// so these normally stay zero). With [`NoopSink`] this monomorphizes to
/// exactly [`rebuild`].
///
/// # Panics
///
/// Same as [`rebuild`].
pub fn rebuild_observed(
    old: &CfTree,
    new_threshold: f64,
    mut outliers: Option<&mut OutlierStore>,
    sink: &mut impl EventSink,
) -> (CfTree, RebuildReport) {
    let _sp = crate::obs::span::enter("rebuild");
    assert!(
        new_threshold.is_finite() && new_threshold >= old.threshold(),
        "new threshold {new_threshold} must be finite and >= old {}",
        old.threshold()
    );
    let params = TreeParams {
        threshold: new_threshold,
        ..*old.params()
    };
    let mut report = RebuildReport {
        old_pages: old.node_count(),
        ..RebuildReport::default()
    };

    let mean_entry_n = if old.leaf_entry_count() == 0 {
        0.0
    } else {
        old.total_cf().n() / old.leaf_entry_count() as f64
    };

    let h = old.height();
    let mut builder = SpineBuilder::new(params, h);
    let paths = collect_leaf_paths(old);

    // "Old pages still alive": freed suffix-by-suffix as the DFS exits
    // nodes, which is exactly when the paper's algorithm can reuse them.
    let mut old_remaining = old.node_count();
    report.peak_pages = old_remaining;
    let mut prev: Option<&Vec<NodeId>> = None;

    for path in &paths {
        let cp = prev.map_or(0, |p| common_prefix(p, path));
        if let Some(p) = prev {
            // The DFS has exited p[cp..]: those old pages are reusable.
            old_remaining -= p.len() - cp;
        }
        builder.close_from(cp);

        let leaf = old.node(*path.last().expect("path includes the leaf"));
        for i in 0..leaf.entry_count() {
            let entry = leaf.block().row_cf(i);
            let is_outlier = outliers
                .as_ref()
                .is_some_and(|s| s.config().is_potential_outlier(entry.n(), mean_entry_n));
            if is_outlier {
                let store = outliers.as_mut().expect("checked above");
                if store.log_mut().write(&entry).is_ok() {
                    report.entries_spilled += 1;
                    continue;
                }
            }
            builder.insert(entry);
            report.entries_reinserted += 1;
        }
        report.peak_pages = report
            .peak_pages
            .max(builder.tree.node_count() + old_remaining);
        prev = Some(path);
    }

    let new_tree = builder.finish();
    new_tree.strict_audit("rebuild");
    report.new_pages = new_tree.node_count();
    if sink.enabled() {
        if report.entries_spilled > 0 {
            sink.record(&Event::OutlierSpilled {
                count: report.entries_spilled as u64,
            });
        }
        let stats = new_tree.stats();
        if stats.splits > 0 {
            sink.record(&Event::SplitPerformed {
                count: stats.splits,
            });
        }
        if stats.merge_refinements > 0 {
            sink.record(&Event::MergeRefinement {
                count: stats.merge_refinements,
            });
        }
    }
    debug_assert!(
        report.new_pages <= report.old_pages,
        "reducibility violated: {} > {}",
        report.new_pages,
        report.old_pages
    );
    (new_tree, report)
}

/// All root-to-leaf paths (each including the leaf) in DFS order — the
/// paper's path order.
fn collect_leaf_paths(tree: &CfTree) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    let mut path = Vec::with_capacity(tree.height());
    collect_rec(tree, tree.root, &mut path, &mut out);
    out
}

fn collect_rec(tree: &CfTree, id: NodeId, path: &mut Vec<NodeId>, out: &mut Vec<Vec<NodeId>>) {
    path.push(id);
    match &tree.node(id).kind {
        NodeKind::Leaf { .. } => out.push(path.clone()),
        NodeKind::Interior { children } => {
            for &c in children {
                collect_rec(tree, c, path, out);
            }
        }
    }
    path.pop();
}

fn common_prefix(a: &[NodeId], b: &[NodeId]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Builds the new tree by mirroring old paths ("NewCurrentPath"): nodes
/// are created lazily, one per old node the current path visits, and only
/// when an entry actually needs appending beneath them.
struct SpineBuilder {
    tree: CfTree,
    /// Mirrored current path; `spine[0]` is the root level, `spine[h-1]`
    /// the leaf level. `None` = not materialized for the current old path.
    spine: Vec<Option<NodeId>>,
    /// Tail of the new tree's leaf chain.
    last_leaf: Option<NodeId>,
    /// Whether any node has been materialized yet (the initial placeholder
    /// root leaf is repurposed as the first spine leaf).
    started: bool,
    height: usize,
}

impl SpineBuilder {
    fn new(params: TreeParams, height: usize) -> Self {
        Self {
            tree: CfTree::new(params),
            spine: vec![None; height],
            last_leaf: None,
            started: false,
            height,
        }
    }

    /// Inserts one old leaf entry per the paper's rule: into an existing
    /// node if that needs no split, otherwise appended to the mirrored
    /// current leaf.
    fn insert(&mut self, ent: Cf) {
        if self.started && self.tree.try_add_no_split(&ent) {
            return;
        }
        self.append(ent);
    }

    /// Appends `ent` to the current spine leaf, materializing the spine
    /// (top-down, mirroring the old path) as needed.
    fn append(&mut self, ent: Cf) {
        self.ensure_spine();
        self.tree.note_atomic_input(&ent);
        let leaf = self.spine[self.height - 1].expect("spine materialized");
        self.tree.nodes[leaf.index()].push_entry(&ent);
        self.tree.leaf_entry_count += 1;
        self.tree.total.merge(&ent);
        // Every spine interior's entry for its spine child is its *last*
        // child entry (children are appended rightward only).
        for lvl in 0..self.height - 1 {
            let nid = self.spine[lvl].expect("spine materialized");
            let child = self.spine[lvl + 1].expect("spine materialized");
            let node = &mut self.tree.nodes[nid.index()];
            let last = node.entry_count() - 1;
            debug_assert_eq!(node.children()[last], child, "spine child not rightmost");
            node.merge_into(last, &ent);
        }
    }

    /// Materializes any missing spine levels, top-down. The first-ever
    /// materialization repurposes the placeholder root leaf as the first
    /// spine leaf (so pre-spine `try_add_no_split` hits land in the right
    /// node) and stacks the interior levels above it.
    fn ensure_spine(&mut self) {
        let h = self.height;
        if !self.started {
            let leaf = self.tree.root;
            self.spine[h - 1] = Some(leaf);
            let mut child = leaf;
            for lvl in (0..h.saturating_sub(1)).rev() {
                let cf = self.tree.nodes[child.index()].summary(self.tree.dim());
                let mut node = Node::new_interior();
                node.push_child(&cf, child);
                let id = self.tree.alloc(node);
                self.spine[lvl] = Some(id);
                child = id;
            }
            self.tree.root = child;
            self.tree.height = h;
            self.tree.first_leaf = leaf;
            self.last_leaf = Some(leaf);
            self.started = true;
            return;
        }
        // Later paths: create the missing suffix below the deepest
        // materialized level.
        for lvl in 0..h {
            if self.spine[lvl].is_some() {
                continue;
            }
            debug_assert!(lvl > 0, "root level never closes");
            let parent = self.spine[lvl - 1].expect("materialize top-down");
            let is_leaf = lvl == h - 1;
            let id = if is_leaf {
                let id = self.tree.alloc(Node::new_leaf());
                // Link into the leaf chain after the current tail.
                let prev_tail = self.last_leaf.expect("chain started");
                if let NodeKind::Leaf { next, .. } = &mut self.tree.nodes[prev_tail.index()].kind {
                    *next = Some(id);
                }
                if let NodeKind::Leaf { prev, .. } = &mut self.tree.nodes[id.index()].kind {
                    *prev = Some(prev_tail);
                }
                self.last_leaf = Some(id);
                id
            } else {
                self.tree.alloc(Node::new_interior())
            };
            let cf = Cf::empty(self.tree.dim());
            self.tree.nodes[parent.index()].push_child(&cf, id);
            self.spine[lvl] = Some(id);
        }
    }

    /// The old path moved: forget the mirrored nodes from level `cp` down
    /// (they stay in the tree if they were materialized — materialized
    /// nodes always hold data).
    fn close_from(&mut self, cp: usize) {
        for slot in self.spine.iter_mut().skip(cp.max(1)) {
            *slot = None;
        }
    }

    /// Collapses single-child root levels and returns the finished tree.
    fn finish(mut self) -> CfTree {
        loop {
            let root = self.tree.root;
            let next = match &self.tree.nodes[root.index()].kind {
                NodeKind::Interior { children } if children.len() == 1 => children[0],
                _ => break,
            };
            self.tree.free.push(root);
            self.tree.root = next;
            self.tree.height -= 1;
        }
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{DistanceMetric, ThresholdKind};
    use crate::outlier::OutlierConfig;
    use crate::point::Point;
    use crate::spill::SpillLog;

    fn params(threshold: f64) -> TreeParams {
        TreeParams {
            dim: 2,
            branching: 4,
            leaf_capacity: 4,
            threshold,
            threshold_kind: ThresholdKind::Diameter,
            metric: DistanceMetric::D2,
            merge_refinement: true,
        }
    }

    fn build_tree(threshold: f64, n: usize) -> CfTree {
        let mut t = CfTree::new(params(threshold));
        for i in 0..n {
            let i = i as f64;
            t.insert_point(&Point::xy(
                (i * 0.618).rem_euclid(30.0),
                (i * 0.414).rem_euclid(30.0),
            ));
        }
        t
    }

    #[test]
    fn rebuild_preserves_total_cf() {
        let old = build_tree(0.2, 400);
        let (new, report) = rebuild(&old, 1.0, None);
        new.check_invariants().unwrap();
        assert_eq!(report.entries_spilled, 0);
        let (a, b) = (old.total_cf(), new.total_cf());
        assert!((a.n() - b.n()).abs() < 1e-9);
        assert!((a.sse() - b.sse()).abs() < 1e-6 * a.sse().abs().max(1.0));
        for (x, y) in a.mean().iter().zip(b.mean()) {
            assert!((x - y).abs() < 1e-6 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn reducibility_never_more_pages() {
        for (t0, t1, n) in [(0.1, 2.0, 600), (0.0, 0.5, 300), (0.5, 0.5, 500)] {
            let old = build_tree(t0, n);
            let (new, report) = rebuild(&old, t1, None);
            new.check_invariants().unwrap();
            assert!(
                new.node_count() <= old.node_count(),
                "t0={t0} t1={t1}: new {} > old {}",
                new.node_count(),
                old.node_count()
            );
            assert!(new.leaf_entry_count() <= old.leaf_entry_count());
            assert!(report.new_pages <= report.old_pages);
        }
    }

    #[test]
    fn transient_peak_within_h_extra_pages() {
        let old = build_tree(0.1, 600);
        let h = old.height();
        let (_, report) = rebuild(&old, 1.0, None);
        assert!(
            report.peak_pages <= report.old_pages + h,
            "peak {} > old {} + h {}",
            report.peak_pages,
            report.old_pages,
            h
        );
    }

    #[test]
    fn larger_threshold_compresses() {
        let old = build_tree(0.1, 600);
        let (new, _) = rebuild(&old, 4.0, None);
        assert!(
            new.leaf_entry_count() < old.leaf_entry_count() / 2,
            "expected real compression: {} -> {}",
            old.leaf_entry_count(),
            new.leaf_entry_count()
        );
    }

    #[test]
    fn outlier_entries_spilled_during_rebuild() {
        // A dense blob plus isolated singles: the singles' entries hold 1
        // point each while the blob entry holds many, so the singles spill.
        let mut t = CfTree::new(params(0.5));
        for _ in 0..96 {
            t.insert_point(&Point::xy(0.0, 0.0));
        }
        for i in 0..4 {
            t.insert_point(&Point::xy(100.0 + f64::from(i) * 40.0, 250.0));
        }
        let mut store = OutlierStore::new(SpillLog::for_tests(4096), OutlierConfig::default());
        let (new, report) = rebuild(&t, 1.0, Some(&mut store));
        assert_eq!(report.entries_spilled, 4, "report: {report:?}");
        assert_eq!(store.log().len(), 4);
        assert!((new.total_cf().n() - 96.0).abs() < 1e-9);
        new.check_invariants().unwrap();
    }

    #[test]
    fn full_outlier_disk_folds_entries_back() {
        let mut t = CfTree::new(params(0.5));
        for _ in 0..96 {
            t.insert_point(&Point::xy(0.0, 0.0));
        }
        for i in 0..4 {
            t.insert_point(&Point::xy(100.0 + f64::from(i) * 40.0, 250.0));
        }
        // Disk holds exactly 2 records of 32 bytes.
        let mut store = OutlierStore::new(SpillLog::for_tests(64), OutlierConfig::default());
        let (new, report) = rebuild(&t, 1.0, Some(&mut store));
        assert_eq!(report.entries_spilled, 2);
        assert_eq!(store.log().len(), 2);
        // No data lost: spilled 2 singles, kept 2 + the blob.
        assert!((new.total_cf().n() - 98.0).abs() < 1e-9);
    }

    #[test]
    fn rebuild_empty_tree() {
        let old = CfTree::new(params(0.0));
        let (new, report) = rebuild(&old, 1.0, None);
        assert_eq!(new.leaf_entry_count(), 0);
        assert_eq!(report.entries_reinserted, 0);
        new.check_invariants().unwrap();
    }

    #[test]
    fn rebuilt_tree_accepts_further_inserts() {
        let old = build_tree(0.2, 300);
        let (mut new, _) = rebuild(&old, 1.0, None);
        for i in 0..200 {
            let i = f64::from(i);
            new.insert_point(&Point::xy(
                (i * 0.7).rem_euclid(30.0),
                (i * 0.3).rem_euclid(30.0),
            ));
        }
        new.check_invariants().unwrap();
        assert!((new.total_cf().n() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_rebuilds_shrink_to_one_entry() {
        let mut tree = build_tree(0.0, 200);
        let mut t = 0.5;
        for _ in 0..12 {
            let (next, _) = rebuild(&tree, t, None);
            next.check_invariants().unwrap();
            tree = next;
            t *= 2.0;
        }
        // Threshold 2048 dwarfs the 30x30 data box: everything merges.
        assert_eq!(tree.leaf_entry_count(), 1);
        assert_eq!(tree.node_count(), 1);
        assert!((tree.total_cf().n() - 200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be finite and >=")]
    fn shrinking_threshold_rejected() {
        let old = build_tree(1.0, 10);
        let _ = rebuild(&old, 0.5, None);
    }
}
