//! The CF-tree (§4.2) and its insertion algorithm (§4.3).
//!
//! A CF-tree is a height-balanced tree with three parameters: branching
//! factor `B` (max entries per nonleaf node), leaf capacity `L` (max entries
//! per leaf node), and threshold `T` — every leaf entry's diameter (or
//! radius) must stay below `T`. `B` and `L` are functions of the page size
//! `P` (see `birch_pager::PageLayout`); each node occupies one page.
//!
//! Insertion of an entry `Ent` (§4.3):
//!
//! 1. **Identify the appropriate leaf** — descend from the root, at each
//!    level following the child whose CF is closest to `Ent` under the
//!    chosen distance metric D0–D4.
//! 2. **Modify the leaf** — find the closest leaf entry; if it can absorb
//!    `Ent` without violating the threshold condition, merge; otherwise add
//!    `Ent` as a new entry, splitting the leaf if it overflows. Splitting
//!    picks the *farthest pair* of entries as seeds and redistributes the
//!    rest by proximity.
//! 3. **Modify the path** — update the CF entries on the root-to-leaf path;
//!    propagate splits upward; if the root splits the tree grows by one
//!    level.
//! 4. **Merging refinement** — when a split's upward propagation stops at
//!    some nonleaf node, find that node's two closest entries; if they are
//!    not the pair produced by the split, try to merge them (and their child
//!    nodes); if the merged node overflows, split it again. This heals the
//!    space-utilization damage done by skewed input order.

use crate::cf::Cf;
use crate::distance::{
    closest_among, closest_among_pruned, closest_pair, farthest_pair, pair_in_block, CfBlock,
    DistanceMetric, ThresholdKind,
};
use crate::node::{ChildEntry, Node, NodeId, NodeKind};
use crate::obs::{Event, EventSink, NoopSink};
use birch_pager::{
    decode_page, encode_page, peek_kind, ClockCache, PageStore, SnapshotError, SnapshotReader,
    SnapshotWriter, PAGE_HEADER_BYTES,
};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;

/// The first META word of a snapshot: the CF word layout it was written
/// with. Only the `(N, μ, carry, SSE, SSE carry)` layout exists, tagged 0;
/// [`CfTree::reopen`] rejects any other value as malformed.
const SNAPSHOT_BACKEND_TAG: u32 = 0;

/// Static parameters of a CF-tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Data dimensionality `d`.
    pub dim: usize,
    /// Branching factor `B`: max entries in a nonleaf node.
    pub branching: usize,
    /// Leaf capacity `L`: max entries in a leaf node.
    pub leaf_capacity: usize,
    /// Threshold `T` on each leaf entry's diameter/radius.
    pub threshold: f64,
    /// Whether `T` constrains diameter or radius.
    pub threshold_kind: ThresholdKind,
    /// Distance metric used to pick closest children/entries.
    pub metric: DistanceMetric,
    /// Whether to run the §4.3 merging refinement after splits.
    pub merge_refinement: bool,
    /// Whether the descent's closest-child/closest-entry scans may skip
    /// candidates using the D0 triangle-inequality lower bound (see
    /// [`crate::distance::closest_among_pruned`]). Off by default; only
    /// effective under [`DistanceMetric::D0`], and provably never changes
    /// which candidate is selected — only how many distances are evaluated
    /// (observable via [`TreeStats::distance_calls_pruned`]).
    pub descend_prune: bool,
}

impl TreeParams {
    /// Reasonable defaults for tests and examples: `B = 25`, `L = 31`
    /// (the paper's `P = 1024`, `d = 2` layout), threshold 0, D2 metric.
    #[must_use]
    pub fn for_dim(dim: usize) -> Self {
        Self {
            dim,
            branching: 25,
            leaf_capacity: 31,
            threshold: 0.0,
            threshold_kind: ThresholdKind::default(),
            metric: DistanceMetric::default(),
            merge_refinement: true,
            descend_prune: false,
        }
    }

    fn validate(&self) {
        assert!(self.dim > 0, "dimensionality must be positive");
        assert!(self.branching >= 2, "branching factor must be >= 2");
        assert!(self.leaf_capacity >= 2, "leaf capacity must be >= 2");
        assert!(
            self.threshold.is_finite() && self.threshold >= 0.0,
            "threshold must be finite and non-negative"
        );
    }
}

/// What happened to an inserted entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Merged into an existing leaf entry within the threshold.
    Absorbed,
    /// Stored as a new leaf entry; no node overflowed.
    Added,
    /// Stored as a new leaf entry after one or more node splits.
    AddedWithSplit,
}

/// Mutation counters for one tree's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Node splits (leaf and interior).
    pub splits: u64,
    /// Merging refinements performed (§4.3).
    pub merge_refinements: u64,
    /// Full distance evaluations performed by the insert hot path — the
    /// closest-child scans of the descent plus the closest-leaf-entry scan
    /// (the §6.1 CPU cost model's inner loop). Distances computed during
    /// splits, refinement, or Dmin probes are not counted: this counter
    /// exists to measure the descent workload the lower-bound prune acts
    /// on.
    pub distance_calls: u64,
    /// Descent-scan candidates skipped by the D0 triangle-inequality lower
    /// bound ([`TreeParams::descend_prune`]). Always 0 with pruning off.
    pub distance_calls_pruned: u64,
}

/// Heap occupancy of one tree, split the way the memory gauge reports it
/// (see [`crate::obs::mem`]): arena/entry storage vs. the SoA mirrors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeFootprint {
    /// The node arena (`Vec<Node>` capacity) plus every node's entry
    /// storage: `Vec` capacities and the CFs' boxed statistic slabs.
    pub arena_bytes: u64,
    /// Every node's SoA [`CfBlock`] mirror slabs — the cache-residency
    /// overhead the insert kernels buy their speed with.
    pub block_bytes: u64,
}

/// Occupancy of one tree level (root = level 0).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelOccupancy {
    /// Depth below the root.
    pub level: usize,
    /// Nodes on this level.
    pub nodes: usize,
    /// Entries across the level's nodes (child entries for interior
    /// levels, CF entries for the leaf level).
    pub entries: usize,
    /// Per-node entry capacity on this level (`B` interior, `L` leaf).
    pub capacity_per_node: usize,
    /// Smallest per-node entry count on the level.
    pub min_entries: usize,
    /// Largest per-node entry count on the level.
    pub max_entries: usize,
}

impl LevelOccupancy {
    /// Mean fill of the level against its per-node capacity, in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let cap = self.nodes * self.capacity_per_node;
        if cap == 0 {
            0.0
        } else {
            self.entries as f64 / cap as f64
        }
    }

    /// Serializes as one JSON object of the `tree_health.levels` array.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"level\":{},\"nodes\":{},\"entries\":{},\"capacity_per_node\":{},\
             \"min_entries\":{},\"max_entries\":{},\"utilization\":{}}}",
            self.level,
            self.nodes,
            self.entries,
            self.capacity_per_node,
            self.min_entries,
            self.max_entries,
            crate::obs::json_f64(self.utilization()),
        )
    }
}

/// Structural health of a CF-tree: the per-level occupancy histogram and
/// the space-utilization summaries the K-tree literature reports (see
/// PAPERS.md) — low leaf utilization is the §4.3 merging refinement's
/// reason to exist, so it should be *measured*, not assumed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TreeHealth {
    /// Tree height (1 = root is a leaf).
    pub height: usize,
    /// Live nodes (== pages under the paper's cost model).
    pub nodes: usize,
    /// Leaf nodes.
    pub leaf_nodes: usize,
    /// CF entries across all leaves.
    pub leaf_entries: usize,
    /// Leaf fill against capacity `L`, in `[0, 1]`.
    pub leaf_utilization: f64,
    /// Interior fill against branching `B`, in `[0, 1]` (0 when the root
    /// is a leaf).
    pub interior_utilization: f64,
    /// Per-level occupancy, root first.
    pub levels: Vec<LevelOccupancy>,
    /// Splits per 1000 tree insertions (filled by the pipeline from the
    /// run counters; 0 for a bare [`CfTree::health`] call).
    pub split_rate_per_1k_inserts: f64,
    /// Merging refinements per 1000 tree insertions (same provenance).
    pub merge_rate_per_1k_inserts: f64,
    /// Rebuilds per 100k input points scanned (same provenance).
    pub rebuild_rate_per_100k_points: f64,
}

impl TreeHealth {
    /// Serializes as the schema-v4 `"tree_health"` JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut levels = String::from("[");
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                levels.push(',');
            }
            levels.push_str(&l.to_json());
        }
        levels.push(']');
        format!(
            "{{\"height\":{},\"nodes\":{},\"leaf_nodes\":{},\"leaf_entries\":{},\
             \"leaf_utilization\":{},\"interior_utilization\":{},\
             \"split_rate_per_1k_inserts\":{},\"merge_rate_per_1k_inserts\":{},\
             \"rebuild_rate_per_100k_points\":{},\"levels\":{levels}}}",
            self.height,
            self.nodes,
            self.leaf_nodes,
            self.leaf_entries,
            crate::obs::json_f64(self.leaf_utilization),
            crate::obs::json_f64(self.interior_utilization),
            crate::obs::json_f64(self.split_rate_per_1k_inserts),
            crate::obs::json_f64(self.merge_rate_per_1k_inserts),
            crate::obs::json_f64(self.rebuild_rate_per_100k_points),
        )
    }
}

/// Snapshot of the page cache's lifetime counters and current occupancy
/// (see [`CfTree::page_stats`]); `None`-free mirror of what `birch-report`
/// prints as the page-cache hit-rate rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageCacheStats {
    /// Node accesses routed through the pager (`fault_in` calls).
    pub refs: u64,
    /// Accesses that had to read the node back from the spill file.
    pub faults: u64,
    /// Nodes written out to the spill file to honour the page budget.
    pub evictions: u64,
    /// Live nodes currently resident in memory.
    pub resident_nodes: usize,
    /// Live nodes currently spilled to disk.
    pub evicted_nodes: usize,
    /// Bytes the spill file occupies (slots × page size).
    pub spill_file_bytes: u64,
    /// Bytes ever written to the spill file.
    pub spill_bytes_written: u64,
    /// Bytes ever read back from the spill file.
    pub spill_bytes_read: u64,
}

impl PageCacheStats {
    /// Fraction of pager-routed accesses served from memory, in `[0, 1]`
    /// (1.0 when there were no accesses).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.refs == 0 {
            1.0
        } else {
            1.0 - self.faults as f64 / self.refs as f64
        }
    }
}

/// Out-of-core state of a [`CfTree`]: the spill file, the clock over
/// resident non-root nodes, and the id → slot map of evicted nodes.
///
/// The root is *pinned* — it never enters the clock, so every descent
/// starts from a resident node. Eviction happens only at insert-operation
/// boundaries ([`CfTree::insert_cf`] and friends call `evict_to_cap` after
/// the tree is back within its B/L capacities), so an evicted node is
/// always within capacity and fits the physical page slot.
#[derive(Debug)]
struct TreePager {
    store: PageStore,
    cache: ClockCache,
    /// Spill slot of each currently-evicted node id.
    slot_of: HashMap<u32, u32>,
    /// Max live nodes resident at an operation boundary.
    max_resident: usize,
    refs: u64,
    faults: u64,
    evictions: u64,
}

/// A height-balanced tree of Clustering Features.
#[derive(Debug)]
pub struct CfTree {
    pub(crate) params: TreeParams,
    pub(crate) nodes: Vec<Node>,
    pub(crate) free: Vec<NodeId>,
    pub(crate) root: NodeId,
    pub(crate) first_leaf: NodeId,
    pub(crate) height: usize,
    pub(crate) leaf_entry_count: usize,
    pub(crate) total: Cf,
    pub(crate) stats: TreeStats,
    /// Largest threshold statistic of any *atomic* input CF that landed as
    /// its own leaf entry. Point input keeps this at 0; weighted/CF input
    /// (e.g. `push_cf`) may exceed `T`, and such an entry is legitimate
    /// because an input CF cannot be split. The auditor widens its
    /// threshold check by this amount.
    pub(crate) max_input_stat: f64,
    /// Out-of-core mode: `Some` after [`CfTree::enable_paging`]. Never
    /// cloned (a clone is always fully resident with paging off).
    pager: Option<Box<TreePager>>,
}

impl Clone for CfTree {
    fn clone(&self) -> Self {
        assert!(
            !self.has_evicted_nodes(),
            "cannot clone a CF-tree with spilled nodes; fault them in first"
        );
        Self {
            params: self.params,
            nodes: self.nodes.clone(),
            free: self.free.clone(),
            root: self.root,
            first_leaf: self.first_leaf,
            height: self.height,
            leaf_entry_count: self.leaf_entry_count,
            total: self.total.clone(),
            stats: self.stats,
            max_input_stat: self.max_input_stat,
            pager: None,
        }
    }
}

impl CfTree {
    /// Creates an empty tree.
    ///
    /// # Panics
    ///
    /// Panics if `params` are inconsistent (see [`TreeParams`] field docs).
    #[must_use]
    pub fn new(params: TreeParams) -> Self {
        params.validate();
        let mut root = Node::new_leaf();
        root.id = NodeId(0);
        Self {
            params,
            nodes: vec![root],
            free: Vec::new(),
            root: NodeId(0),
            first_leaf: NodeId(0),
            height: 1,
            leaf_entry_count: 0,
            total: Cf::empty(params.dim),
            stats: TreeStats::default(),
            max_input_stat: 0.0,
            pager: None,
        }
    }

    /// Records that `ent` landed as its own leaf entry (rather than being
    /// absorbed into an existing one, which is threshold-checked). An
    /// atomic multi-point input may carry any spread, so the auditor's
    /// threshold invariant must allow entries up to this statistic.
    pub(crate) fn note_atomic_input(&mut self, ent: &Cf) {
        if ent.n() > 1.0 {
            let s = self.params.threshold_kind.statistic(ent);
            if s > self.max_input_stat {
                self.max_input_stat = s;
            }
        }
    }

    /// The tree's static parameters.
    #[must_use]
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// Current threshold `T`.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.params.threshold
    }

    /// Data dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.params.dim
    }

    /// Tree height (1 = root is a leaf).
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of live nodes — under the paper's cost model, the number of
    /// memory pages the tree occupies.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Total number of CF entries across all leaves.
    #[must_use]
    pub fn leaf_entry_count(&self) -> usize {
        self.leaf_entry_count
    }

    /// The CF of everything ever inserted (and not rolled back).
    #[must_use]
    pub fn total_cf(&self) -> &Cf {
        &self.total
    }

    /// Mutation counters.
    #[must_use]
    pub fn stats(&self) -> TreeStats {
        self.stats
    }

    /// Heap occupancy of the tree right now, split into arena/entry
    /// storage and SoA mirror slabs. O(nodes); the Phase-1 gauge samples
    /// it only when the page count changes, not per point.
    #[must_use]
    pub fn memory_footprint(&self) -> TreeFootprint {
        let mut arena = self.nodes.capacity() * std::mem::size_of::<Node>();
        let mut blocks = 0usize;
        // Free-listed nodes keep their allocations until reused, so they
        // are counted too: the bytes are genuinely held.
        for n in &self.nodes {
            arena += n.entry_heap_bytes();
            blocks += n.block_heap_bytes();
        }
        TreeFootprint {
            arena_bytes: arena as u64,
            block_bytes: blocks as u64,
        }
    }

    /// Structural health snapshot: per-level occupancy (BFS from the
    /// root) and leaf/interior utilization. The rate fields are left 0 —
    /// the pipeline fills them from its run counters.
    #[must_use]
    pub fn health(&self) -> TreeHealth {
        let mut levels = Vec::with_capacity(self.height);
        let mut leaf_nodes = 0usize;
        let mut leaf_entries = 0usize;
        let mut interior_nodes = 0usize;
        let mut interior_entries = 0usize;
        let mut frontier = vec![self.root];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            let mut occ = LevelOccupancy {
                level: levels.len(),
                min_entries: usize::MAX,
                ..LevelOccupancy::default()
            };
            for &id in &frontier {
                let node = self.node(id);
                let count = node.entry_count();
                occ.nodes += 1;
                occ.entries += count;
                occ.min_entries = occ.min_entries.min(count);
                occ.max_entries = occ.max_entries.max(count);
                if node.is_leaf() {
                    occ.capacity_per_node = self.params.leaf_capacity;
                    leaf_nodes += 1;
                    leaf_entries += count;
                } else {
                    occ.capacity_per_node = self.params.branching;
                    interior_nodes += 1;
                    interior_entries += count;
                    next.extend(node.children().iter().map(|c| c.child));
                }
            }
            if occ.min_entries == usize::MAX {
                occ.min_entries = 0;
            }
            levels.push(occ);
            frontier = next;
        }
        let util = |entries: usize, nodes: usize, cap: usize| {
            if nodes == 0 {
                0.0
            } else {
                entries as f64 / (nodes * cap) as f64
            }
        };
        TreeHealth {
            height: self.height,
            nodes: self.node_count(),
            leaf_nodes,
            leaf_entries,
            leaf_utilization: util(leaf_entries, leaf_nodes, self.params.leaf_capacity),
            interior_utilization: util(interior_entries, interior_nodes, self.params.branching),
            levels,
            ..TreeHealth::default()
        }
    }

    fn node(&self, id: NodeId) -> &Node {
        debug_assert!(
            self.pager
                .as_ref()
                .is_none_or(|p| !p.slot_of.contains_key(&id.0)),
            "access to evicted node {} without fault_in",
            id.0
        );
        &self.nodes[id.index()]
    }

    /// Crate-internal read access to a node (used by the rebuild scan).
    pub(crate) fn node_view(&self, id: NodeId) -> &Node {
        self.node(id)
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        debug_assert!(
            self.pager
                .as_ref()
                .is_none_or(|p| !p.slot_of.contains_key(&id.0)),
            "mutation of evicted node {} without fault_in",
            id.0
        );
        &mut self.nodes[id.index()]
    }

    pub(crate) fn alloc(&mut self, mut node: Node) -> NodeId {
        let id = if let Some(id) = self.free.pop() {
            node.id = id;
            self.nodes[id.index()] = node;
            id
        } else {
            let id = NodeId(u32::try_from(self.nodes.len()).expect("arena overflow"));
            node.id = id;
            self.nodes.push(node);
            id
        };
        // A fresh node is resident by construction; the root stays pinned
        // outside the clock.
        if let Some(p) = self.pager.as_mut() {
            if id != self.root {
                p.cache.insert(u64::from(id.0));
            }
        }
        id
    }

    fn free_node(&mut self, id: NodeId) {
        if let Some(p) = self.pager.as_mut() {
            p.cache.remove(u64::from(id.0));
            if let Some(slot) = p.slot_of.remove(&id.0) {
                p.store.free(slot);
            }
        }
        self.free.push(id);
    }

    fn summary(&self, id: NodeId) -> Cf {
        self.node(id).summary(self.params.dim)
    }

    /// Inserts a single unweighted data point.
    pub fn insert_point(&mut self, p: &crate::point::Point) -> InsertOutcome {
        self.insert_cf(Cf::from_point(p))
    }

    /// Inserts a subcluster summary `ent` (used when re-inserting leaf
    /// entries during rebuilds, and when re-absorbing outliers).
    ///
    /// # Panics
    ///
    /// Panics if `ent` is empty or of the wrong dimension.
    pub fn insert_cf(&mut self, ent: Cf) -> InsertOutcome {
        self.insert_cf_observed(ent, &mut NoopSink)
    }

    /// Like [`CfTree::insert_cf`], but reporting what happened to `sink`:
    /// an [`Event::InsertDescend`] with the descent depth, plus
    /// [`Event::SplitPerformed`] / [`Event::MergeRefinement`] deltas when
    /// the insert caused any. This is the single insertion code path —
    /// [`CfTree::insert_cf`] delegates here with [`NoopSink`], which
    /// monomorphizes every telemetry branch away.
    ///
    /// # Panics
    ///
    /// Panics if `ent` is empty or of the wrong dimension.
    pub fn insert_cf_observed(&mut self, ent: Cf, sink: &mut impl EventSink) -> InsertOutcome {
        self.insert_entry(EntInput::Owned(ent), sink)
    }

    /// Borrowed-entry insertion for the scratch-CF feed path: identical to
    /// [`CfTree::insert_cf_observed`] but clones `ent` only when it
    /// actually becomes a new leaf entry. An absorbed input (the common
    /// case once the tree is warm) allocates nothing.
    pub(crate) fn insert_cf_ref_observed(
        &mut self,
        ent: &Cf,
        sink: &mut impl EventSink,
    ) -> InsertOutcome {
        self.insert_entry(EntInput::Ref(ent), sink)
    }

    fn insert_entry(&mut self, ent: EntInput<'_>, sink: &mut impl EventSink) -> InsertOutcome {
        let _sp = crate::obs::span::enter("insert");
        assert!(!ent.get().is_empty(), "cannot insert an empty CF");
        assert_eq!(ent.get().dim(), self.params.dim, "dimension mismatch");
        let before = self.stats;
        // Height-balanced tree: every descent visits height-1 interior
        // levels at the moment of insertion.
        let depth = self.height - 1;
        self.total.merge(ent.get());

        let (leaf_id, path) = self.descend(ent.get());
        let outcome = 'insert: {
            // Step 2: try to absorb into the closest leaf entry.
            if let Some(idx) = self.closest_leaf_entry(leaf_id, ent.get()) {
                let tentative = self.node(leaf_id).leaf_entries()[idx].merged(ent.get());
                if self
                    .params
                    .threshold_kind
                    .satisfies(&tentative, self.params.threshold)
                {
                    self.node_mut(leaf_id).set_leaf_entry(idx, tentative);
                    self.add_to_path(&path, ent.get());
                    break 'insert InsertOutcome::Absorbed;
                }
            }

            // New entry (split-free): update the path, then move `ent` in.
            self.note_atomic_input(ent.get());
            if self.node(leaf_id).entry_count() < self.params.leaf_capacity {
                self.add_to_path(&path, ent.get());
                self.node_mut(leaf_id).push_leaf_entry(ent.into_cf());
                self.leaf_entry_count += 1;
                break 'insert InsertOutcome::Added;
            }

            // Step 3: the leaf overflows — split and propagate upward.
            let _sp = crate::obs::span::enter("split");
            self.node_mut(leaf_id).push_leaf_entry(ent.into_cf());
            self.leaf_entry_count += 1;
            let new_leaf = self.split_leaf(leaf_id);
            self.propagate_split(&path, new_leaf);
            InsertOutcome::AddedWithSplit
        };

        if sink.enabled() {
            sink.record(&Event::InsertDescend { depth });
            let splits = self.stats.splits - before.splits;
            if splits > 0 {
                sink.record(&Event::SplitPerformed { count: splits });
            }
            let refinements = self.stats.merge_refinements - before.merge_refinements;
            if refinements > 0 {
                sink.record(&Event::MergeRefinement { count: refinements });
            }
        }
        self.strict_audit("insert_cf");
        self.evict_to_cap();
        outcome
    }

    /// Attempts to merge `ent` into an existing leaf entry *without* adding
    /// a new entry or splitting — the re-absorption test of §5.1.3 ("see if
    /// they can be re-absorbed into the current tree without causing the
    /// tree to grow in size"). Returns `true` on success.
    pub fn try_absorb(&mut self, ent: &Cf) -> bool {
        let absorbed = self.try_absorb_inner(ent);
        self.evict_to_cap();
        absorbed
    }

    fn try_absorb_inner(&mut self, ent: &Cf) -> bool {
        assert!(!ent.is_empty(), "cannot absorb an empty CF");
        assert_eq!(ent.dim(), self.params.dim, "dimension mismatch");
        let (leaf_id, path) = self.descend(ent);
        let Some(idx) = self.closest_leaf_entry(leaf_id, ent) else {
            return false;
        };
        let tentative = self.node(leaf_id).leaf_entries()[idx].merged(ent);
        if !self
            .params
            .threshold_kind
            .satisfies(&tentative, self.params.threshold)
        {
            return false;
        }
        self.node_mut(leaf_id).set_leaf_entry(idx, tentative);
        self.add_to_path(&path, ent);
        self.total.merge(ent);
        self.strict_audit("try_absorb");
        true
    }

    /// Like [`CfTree::try_absorb`] but additionally allowed to *add* `ent`
    /// as a new entry when the target leaf has free space — the paper's
    /// rebuild test "if it can fit in [the new tree] without splitting"
    /// (§5.1.1). Never splits a node; returns `false` if neither
    /// absorption nor a split-free add is possible.
    pub(crate) fn try_add_no_split(&mut self, ent: &Cf) -> bool {
        if self.try_absorb(ent) {
            return true;
        }
        let (leaf_id, path) = self.descend(ent);
        if self.node(leaf_id).entry_count() >= self.params.leaf_capacity {
            self.evict_to_cap();
            return false;
        }
        self.note_atomic_input(ent);
        self.node_mut(leaf_id).push_leaf_entry(ent.clone());
        self.leaf_entry_count += 1;
        self.add_to_path(&path, ent);
        self.total.merge(ent);
        self.strict_audit("try_add_no_split");
        self.evict_to_cap();
        true
    }

    /// Root-to-leaf descent following the closest child at each level,
    /// scanning each node's contiguous [`CfBlock`] with the batched
    /// [`closest_among`] kernel (or its D0 lower-bound-pruned variant when
    /// [`TreeParams::descend_prune`] is on). Returns the leaf id and the
    /// interior path as `(node, child_index)` pairs from the root downward.
    /// Takes `&mut self` only to accumulate the distance-call counters.
    fn descend(&mut self, ent: &Cf) -> (NodeId, Vec<(NodeId, usize)>) {
        let _sp = crate::obs::span::enter("descend");
        let metric = self.params.metric;
        let prune = self.params.descend_prune;
        let mut path = Vec::with_capacity(self.height.saturating_sub(1));
        let mut cur = self.root;
        let mut calls = 0u64;
        let mut skipped = 0u64;
        self.fault_in(cur);
        while !self.node(cur).is_leaf() {
            let node = self.node(cur);
            debug_assert!(node.entry_count() > 0, "interior node with no children");
            let best = if prune {
                let (best, evaluated, pruned) = closest_among_pruned(metric, ent, node.block());
                calls += evaluated;
                skipped += pruned;
                best
            } else {
                calls += node.entry_count() as u64;
                closest_among(metric, ent, node.block())
            };
            let best = best.map_or(0, |(i, _)| i);
            path.push((cur, best));
            cur = node.children()[best].child;
            self.fault_in(cur);
        }
        self.stats.distance_calls += calls;
        self.stats.distance_calls_pruned += skipped;
        (cur, path)
    }

    /// Index of the leaf entry closest to `ent`, or `None` if the leaf is
    /// empty. Same kernelized scan as [`CfTree::descend`]; takes `&mut self`
    /// only to accumulate the distance-call counters.
    fn closest_leaf_entry(&mut self, leaf_id: NodeId, ent: &Cf) -> Option<usize> {
        let metric = self.params.metric;
        let node = self.node(leaf_id);
        let (best, evaluated, pruned) = if self.params.descend_prune {
            closest_among_pruned(metric, ent, node.block())
        } else {
            let best = closest_among(metric, ent, node.block());
            (best, node.entry_count() as u64, 0)
        };
        self.stats.distance_calls += evaluated;
        self.stats.distance_calls_pruned += pruned;
        best.map(|(i, _)| i)
    }

    /// Merges `ent` into every `[CF, child]` entry along the descent path —
    /// the cheap CF update used when no split occurred.
    fn add_to_path(&mut self, path: &[(NodeId, usize)], ent: &Cf) {
        for &(nid, idx) in path {
            self.node_mut(nid).merge_into_child_cf(idx, ent);
        }
    }

    /// Splits an over-full leaf. The farthest pair of entries seeds two
    /// groups; the original node keeps the first group, a freshly allocated
    /// leaf (linked right after it in the chain) takes the second.
    fn split_leaf(&mut self, leaf_id: NodeId) -> NodeId {
        self.stats.splits += 1;
        let entries = self.node_mut(leaf_id).take_leaf_entries();
        let (g1, g2) = partition_by_farthest_pair(entries, |e| e, self.params.metric);
        self.node_mut(leaf_id).set_leaf_entries(g1);

        let new_id = self.alloc(Node::new_leaf());
        self.node_mut(new_id).set_leaf_entries(g2);
        self.link_after(leaf_id, new_id);
        new_id
    }

    /// Splits an over-full interior node; returns the new sibling.
    fn split_interior(&mut self, node_id: NodeId) -> NodeId {
        self.stats.splits += 1;
        let children = self.node_mut(node_id).take_children();
        let (g1, g2) = partition_by_farthest_pair(children, |c| &c.cf, self.params.metric);
        self.node_mut(node_id).set_children(g1);

        let new_id = self.alloc(Node::new_interior());
        self.node_mut(new_id).set_children(g2);
        new_id
    }

    /// Walks the descent path bottom-up after a leaf split: recomputes the
    /// changed child's CF entry, inserts the new sibling's entry, splits
    /// overflowing interior nodes, applies the merging refinement where the
    /// propagation stops, and grows a new root if the split reaches the top.
    fn propagate_split(&mut self, path: &[(NodeId, usize)], new_child: NodeId) {
        let mut pending = Some(new_child);
        for &(nid, idx) in path.iter().rev() {
            // The child at `idx` may have changed shape: recompute its CF.
            let child_id = self.node(nid).children()[idx].child;
            let child_cf = self.summary(child_id);
            self.node_mut(nid).set_child_cf(idx, child_cf);

            if let Some(new_id) = pending.take() {
                let cf = self.summary(new_id);
                self.node_mut(nid)
                    .insert_child(idx + 1, ChildEntry { cf, child: new_id });
                if self.node(nid).entry_count() > self.params.branching {
                    pending = Some(self.split_interior(nid));
                } else if self.params.merge_refinement {
                    self.merge_refine(nid, idx, idx + 1);
                }
            }
        }

        if let Some(new_id) = pending {
            // Root split: the tree grows one level.
            let old_root = self.root;
            let mut root = Node::new_interior();
            root.push_child(ChildEntry {
                cf: self.summary(old_root),
                child: old_root,
            });
            root.push_child(ChildEntry {
                cf: self.summary(new_id),
                child: new_id,
            });
            let new_root = self.alloc(root);
            self.root = new_root;
            self.height += 1;
            // The pin moves with the root: the new root leaves the clock,
            // the demoted one becomes evictable.
            if let Some(p) = self.pager.as_mut() {
                p.cache.remove(u64::from(new_root.0));
                p.cache.insert(u64::from(old_root.0));
            }
        }
    }

    /// §4.3 merging refinement at node `nid`, where `(split_a, split_b)` are
    /// the entry indices produced by the just-finished split. Finds the two
    /// closest entries; if they are not the split pair, merges their child
    /// nodes — resplitting if the merged node overflows its capacity.
    fn merge_refine(&mut self, nid: NodeId, split_a: usize, split_b: usize) {
        if self.node(nid).entry_count() < 3 {
            return; // The only pair is the split pair.
        }
        // One contiguous pairwise sweep over the node's SoA block.
        let best = closest_pair(self.params.metric, self.node(nid).block());
        let Some((i, j, _)) = best else { return };
        if (i, j) == (split_a.min(split_b), split_a.max(split_b)) {
            return; // Closest pair is the freshly split pair: nothing to heal.
        }

        let a_id = self.node(nid).children()[i].child;
        let b_id = self.node(nid).children()[j].child;
        // The closest pair need not lie on the descent path: fault both
        // children in before merging their contents.
        self.fault_in(a_id);
        self.fault_in(b_id);
        let a_is_leaf = self.node(a_id).is_leaf();
        debug_assert_eq!(
            a_is_leaf,
            self.node(b_id).is_leaf(),
            "sibling level mismatch"
        );
        let capacity = if a_is_leaf {
            self.params.leaf_capacity
        } else {
            self.params.branching
        };
        let combined = self.node(a_id).entry_count() + self.node(b_id).entry_count();

        self.stats.merge_refinements += 1;
        if combined <= capacity {
            // Merge b into a; drop b's entry and node.
            if a_is_leaf {
                let moved = self.node_mut(b_id).take_leaf_entries();
                self.node_mut(a_id).append_leaf_entries(moved);
                self.unlink_leaf(b_id);
            } else {
                let moved = self.node_mut(b_id).take_children();
                self.node_mut(a_id).append_children(moved);
            }
            self.free_node(b_id);
            let a_cf = self.summary(a_id);
            let parent = self.node_mut(nid);
            parent.set_child_cf(i, a_cf);
            parent.remove_child(j);
        } else {
            // Merge + resplit: pool both nodes' items and redistribute by
            // the farthest-pair rule to even out occupancy.
            if a_is_leaf {
                let mut pool = self.node_mut(a_id).take_leaf_entries();
                pool.append(&mut self.node_mut(b_id).take_leaf_entries());
                let (mut g1, mut g2) = partition_by_farthest_pair(pool, |e| e, self.params.metric);
                rebalance_to_capacity(
                    &mut g1,
                    &mut g2,
                    |e| e,
                    self.params.metric,
                    capacity,
                    self.params.dim,
                );
                self.node_mut(a_id).set_leaf_entries(g1);
                self.node_mut(b_id).set_leaf_entries(g2);
            } else {
                let mut pool = self.node_mut(a_id).take_children();
                pool.append(&mut self.node_mut(b_id).take_children());
                let (mut g1, mut g2) =
                    partition_by_farthest_pair(pool, |c| &c.cf, self.params.metric);
                rebalance_to_capacity(
                    &mut g1,
                    &mut g2,
                    |c| &c.cf,
                    self.params.metric,
                    capacity,
                    self.params.dim,
                );
                self.node_mut(a_id).set_children(g1);
                self.node_mut(b_id).set_children(g2);
            }
            let a_cf = self.summary(a_id);
            let b_cf = self.summary(b_id);
            let parent = self.node_mut(nid);
            parent.set_child_cf(i, a_cf);
            parent.set_child_cf(j, b_cf);
        }
    }

    /// Links `new_id` into the leaf chain immediately after `after`.
    fn link_after(&mut self, after: NodeId, new_id: NodeId) {
        let old_next = match &self.node(after).kind {
            NodeKind::Leaf { next, .. } => *next,
            NodeKind::Interior { .. } => unreachable!("link_after on interior"),
        };
        // The chain successor is off the descent path and may be spilled.
        if let Some(n) = old_next {
            self.fault_in(n);
        }
        if let NodeKind::Leaf { next, .. } = &mut self.node_mut(after).kind {
            *next = Some(new_id);
        }
        if let NodeKind::Leaf { prev, next, .. } = &mut self.node_mut(new_id).kind {
            *prev = Some(after);
            *next = old_next;
        }
        if let Some(n) = old_next {
            if let NodeKind::Leaf { prev, .. } = &mut self.node_mut(n).kind {
                *prev = Some(new_id);
            }
        }
    }

    /// Removes a leaf from the chain (used when merging refinement fuses two
    /// leaves into one).
    fn unlink_leaf(&mut self, id: NodeId) {
        let (p, n) = match &self.node(id).kind {
            NodeKind::Leaf { prev, next, .. } => (*prev, *next),
            NodeKind::Interior { .. } => unreachable!("unlink_leaf on interior"),
        };
        // Chain neighbours are off the descent path and may be spilled.
        if let Some(p) = p {
            self.fault_in(p);
        }
        if let Some(n) = n {
            self.fault_in(n);
        }
        match p {
            Some(p) => {
                if let NodeKind::Leaf { next, .. } = &mut self.node_mut(p).kind {
                    *next = n;
                }
            }
            None => {
                self.first_leaf = n.expect("unlinking the only leaf");
            }
        }
        if let Some(n) = n {
            if let NodeKind::Leaf { prev, .. } = &mut self.node_mut(n).kind {
                *prev = p;
            }
        }
    }

    /// Leaf node ids in chain order (leftmost first).
    pub fn leaf_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        LeafIter {
            tree: self,
            cur: if self.leaf_entry_count == 0 && self.node(self.first_leaf).entry_count() == 0 {
                // Completely empty tree: still yield the root leaf so
                // callers see a consistent (empty) chain.
                Some(self.first_leaf)
            } else {
                Some(self.first_leaf)
            },
        }
    }

    /// All leaf entries in chain (path) order — the input order for tree
    /// rebuilds and for Phase 3.
    pub fn leaf_entries(&self) -> impl Iterator<Item = &Cf> + '_ {
        self.leaf_ids()
            .flat_map(move |id| self.node(id).leaf_entries().iter())
    }

    /// Consumes the tree, returning all leaf entries in chain order.
    #[must_use]
    pub fn into_leaf_entries(self) -> Vec<Cf> {
        let mut out = Vec::with_capacity(self.leaf_entry_count);
        for e in self.leaf_entries() {
            out.push(e.clone());
        }
        out
    }

    /// Average statistic (diameter or radius, per the threshold kind) over
    /// leaf entries with at least 2 points — the paper's measure of how
    /// "full" entries are, used by the threshold heuristics.
    #[must_use]
    pub fn mean_entry_statistic(&self) -> f64 {
        let mut sum = 0.0;
        let mut cnt = 0usize;
        for e in self.leaf_entries() {
            if e.n() > 1.0 {
                sum += self.params.threshold_kind.statistic(e);
                cnt += 1;
            }
        }
        if cnt == 0 {
            0.0
        } else {
            sum / cnt as f64
        }
    }

    /// Distance between the two closest entries in the most crowded leaf —
    /// the paper's `Dmin` signal (§5.1.2): the smallest threshold that would
    /// merge at least one pair of entries in the densest region.
    #[must_use]
    pub fn dmin_most_crowded_leaf(&self) -> Option<f64> {
        let crowded = self
            .leaf_ids()
            .max_by_key(|&id| self.node(id).entry_count())?;
        let entries = self.node(crowded).leaf_entries();
        if entries.len() < 2 {
            return None;
        }
        let mut best = f64::INFINITY;
        for i in 0..entries.len() {
            for j in (i + 1)..entries.len() {
                // The threshold constrains the *merged entry's* statistic,
                // so measure the candidate merge directly.
                let merged = entries[i].merged(&entries[j]);
                let stat = self.params.threshold_kind.statistic(&merged);
                best = best.min(stat);
            }
        }
        Some(best)
    }

    /// Verifies every structural invariant of the CF-tree; returns a
    /// description of the first violation. Intended for tests and debugging
    /// (cost is O(size of tree)).
    ///
    /// This is a thin compatibility wrapper over [`crate::audit::audit`],
    /// which additionally reports structure and floating-point-drift
    /// measurements — prefer calling the auditor directly for those.
    pub fn check_invariants(&self) -> Result<(), String> {
        crate::audit::audit(self)
            .map(|_| ())
            .map_err(|v| v.to_string())
    }

    /// Runs a full [`crate::audit::audit`] of this tree.
    ///
    /// # Errors
    ///
    /// Returns the first invariant violation found.
    pub fn audit(&self) -> Result<crate::audit::AuditReport, crate::audit::AuditViolation> {
        crate::audit::audit(self)
    }

    /// With the `strict-audit` feature enabled, audits the whole tree and
    /// panics on the first violation, naming the operation that produced
    /// the state. Called after every mutating tree operation; turns a
    /// debug soak run into a per-operation correctness proof.
    #[cfg(feature = "strict-audit")]
    pub(crate) fn strict_audit(&self, op: &str) {
        // The auditor walks the whole tree; with nodes spilled out-of-core
        // it would read hollow placeholders. Out-of-core runs audit at
        // fault-all boundaries instead (see Phase 1's finish path).
        if self.has_evicted_nodes() {
            return;
        }
        if let Err(v) = crate::audit::audit(self) {
            panic!("strict-audit after {op}: {v}");
        }
    }

    /// Without the `strict-audit` feature this is a no-op the optimizer
    /// removes entirely.
    #[cfg(not(feature = "strict-audit"))]
    #[inline(always)]
    pub(crate) fn strict_audit(&self, _op: &str) {}

    // ------------------------------------------------------------------
    // Out-of-core paging (§4.2's "M bytes of memory, pages of P bytes"
    // made literal) and checkpoint/restore.
    // ------------------------------------------------------------------

    /// Switches the tree into out-of-core mode: nodes beyond a resident
    /// budget of `max_resident` pages are spilled to `spill_path` (clock
    /// eviction, root pinned) and faulted back on access. The spill file
    /// is created immediately and deleted when paging is disabled or the
    /// tree is dropped.
    ///
    /// Eviction runs at insert-operation boundaries, so the budget is a
    /// bound on the resident set *between* operations; mid-operation the
    /// descent path plus split churn is transiently resident on top.
    ///
    /// # Errors
    ///
    /// Propagates spill-file creation errors.
    ///
    /// # Panics
    ///
    /// Panics if paging is already enabled or `max_resident < 2`.
    pub fn enable_paging(&mut self, spill_path: &Path, max_resident: usize) -> io::Result<()> {
        assert!(self.pager.is_none(), "paging already enabled");
        assert!(
            max_resident >= 2,
            "page budget must keep at least the root and one other node resident"
        );
        // Physical slots leave one entry row of slack over B/L: splits
        // transiently hold capacity + 1 entries, and a checkpoint taken
        // from a foreign (pre-rebuild) tree may too.
        let cf_words = Cf::words_per_entry(self.params.dim);
        let leaf_words = (self.params.leaf_capacity + 1) * cf_words;
        let interior_words = (self.params.branching + 1) * (cf_words + 1);
        let page_bytes = PAGE_HEADER_BYTES + 8 * leaf_words.max(interior_words);
        let store = PageStore::create(spill_path, page_bytes)?;
        let mut cache = ClockCache::new();
        let free: HashSet<u32> = self.free.iter().map(|id| id.0).collect();
        for n in 0..self.nodes.len() {
            let n = u32::try_from(n).expect("arena overflow");
            if n != self.root.0 && !free.contains(&n) {
                cache.insert(u64::from(n));
            }
        }
        self.pager = Some(Box::new(TreePager {
            store,
            cache,
            slot_of: HashMap::new(),
            max_resident,
            refs: 0,
            faults: 0,
            evictions: 0,
        }));
        self.evict_to_cap();
        Ok(())
    }

    /// Leaves out-of-core mode: faults every spilled node back in and
    /// deletes the spill file. No-op when paging is off.
    pub fn disable_paging(&mut self) {
        self.fault_all();
        self.pager = None;
    }

    /// Whether out-of-core mode is on.
    #[must_use]
    pub fn is_paged(&self) -> bool {
        self.pager.is_some()
    }

    /// Whether any live node is currently spilled to disk (always `false`
    /// with paging off). Whole-tree walks — audits, health, leaf
    /// iteration — require this to be `false`; call [`CfTree::fault_all`]
    /// first.
    #[must_use]
    pub fn has_evicted_nodes(&self) -> bool {
        self.pager.as_ref().is_some_and(|p| !p.slot_of.is_empty())
    }

    /// Page-cache counters and occupancy, or `None` with paging off.
    #[must_use]
    pub fn page_stats(&self) -> Option<PageCacheStats> {
        self.pager.as_ref().map(|p| PageCacheStats {
            refs: p.refs,
            faults: p.faults,
            evictions: p.evictions,
            resident_nodes: self.node_count() - p.slot_of.len(),
            evicted_nodes: p.slot_of.len(),
            spill_file_bytes: p.store.file_bytes(),
            spill_bytes_written: p.store.stats().bytes_written,
            spill_bytes_read: p.store.stats().bytes_read,
        })
    }

    /// Faults every spilled node back into memory (paging stays on, so
    /// subsequent inserts will evict again).
    ///
    /// # Panics
    ///
    /// Panics if the spill file is unreadable or a page fails to verify —
    /// the spill file lives for exactly one process, so damage to it is a
    /// local I/O failure, not a recoverable input condition.
    pub fn fault_all(&mut self) {
        let Some(pager) = self.pager.as_ref() else {
            return;
        };
        let mut ids: Vec<u32> = pager.slot_of.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            self.fault_in(NodeId(id));
        }
    }

    /// Ensures `id` is resident, reading it back from the spill file if it
    /// was evicted, and marks it recently-used. No-op with paging off —
    /// the hot path pays one `Option` branch.
    fn fault_in(&mut self, id: NodeId) {
        if self.pager.is_none() {
            return;
        }
        let root = self.root;
        let dim = self.params.dim;
        let pager = self.pager.as_mut().expect("pager checked above");
        pager.refs += 1;
        if id != root {
            pager.cache.insert(u64::from(id.0));
        }
        let Some(slot) = pager.slot_of.remove(&id.0) else {
            return;
        };
        pager.faults += 1;
        let buf = pager.store.read_slot(slot).expect("spill file read failed");
        pager.store.free(slot);
        let kind = peek_kind(&buf).expect("spill page header corrupt");
        let page = decode_page(&buf, Node::words_per_entry(kind, dim)).expect("spill page corrupt");
        let mut node = Node::from_decoded_page(&page, dim);
        node.id = id;
        self.nodes[id.index()] = node;
    }

    /// Spills the clock's victim to the spill file, replacing its arena
    /// entry with a hollow placeholder. Returns `false` when nothing is
    /// evictable.
    fn evict_one(&mut self) -> bool {
        let Some(pager) = self.pager.as_mut() else {
            return false;
        };
        let Some(key) = pager.cache.evict() else {
            return false;
        };
        let id = NodeId(u32::try_from(key).expect("cache keys are node ids"));
        let (kind, count, prev, next, words) = self.nodes[id.index()].to_page_words();
        let pager = self.pager.as_mut().expect("pager checked above");
        let buf = encode_page(pager.store.page_bytes(), kind, count, prev, next, &words)
            .expect("node exceeds its physical page slot");
        let slot = pager.store.alloc();
        pager
            .store
            .write_slot(slot, &buf)
            .expect("spill file write failed");
        pager.slot_of.insert(id.0, slot);
        pager.evictions += 1;
        let mut hollow = Node::new_leaf();
        hollow.id = id;
        self.nodes[id.index()] = hollow;
        true
    }

    /// Evicts until the live resident set fits the page budget. Called at
    /// operation boundaries, when every node is within B/L capacity.
    fn evict_to_cap(&mut self) {
        loop {
            let Some(pager) = self.pager.as_ref() else {
                return;
            };
            let resident = self.node_count() - pager.slot_of.len();
            if resident <= pager.max_resident || !self.evict_one() {
                return;
            }
        }
    }

    /// Writes a versioned, per-section-checksummed snapshot of the whole
    /// tree to `path` (atomically: temp sibling + fsync + rename). Spilled
    /// nodes are faulted in first, so the snapshot is always complete.
    /// Restore with [`CfTree::reopen`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the snapshot.
    pub fn checkpoint(&mut self, path: &Path) -> Result<(), SnapshotError> {
        self.fault_all();
        let mut w = SnapshotWriter::new();
        w.add_section(*b"META", self.encode_meta());
        let free: HashSet<u32> = self.free.iter().map(|id| id.0).collect();
        for (i, node) in self.nodes.iter().enumerate() {
            let id = u32::try_from(i).expect("arena overflow");
            if free.contains(&id) {
                continue;
            }
            let (kind, count, prev, next, words) = node.to_page_words();
            // Snapshot pages are tight (header + payload), not padded to
            // the physical slot size: node id first, page bytes after.
            let page_bytes = PAGE_HEADER_BYTES + words.len() * 8;
            let page = encode_page(page_bytes, kind, count, prev, next, &words)
                .expect("tight page cannot overflow");
            let mut payload = Vec::with_capacity(4 + page.len());
            payload.extend_from_slice(&id.to_le_bytes());
            payload.extend_from_slice(&page);
            w.add_section(*b"NODE", payload);
        }
        w.finish(path)?;
        Ok(())
    }

    fn encode_meta(&self) -> Vec<u8> {
        let mut m = Vec::with_capacity(128 + 8 * Cf::words_per_entry(self.params.dim));
        let p = &self.params;
        m.extend_from_slice(&SNAPSHOT_BACKEND_TAG.to_le_bytes());
        m.extend_from_slice(&u32::try_from(p.dim).expect("dim range").to_le_bytes());
        m.extend_from_slice(&u32::try_from(p.branching).expect("B range").to_le_bytes());
        m.extend_from_slice(
            &u32::try_from(p.leaf_capacity)
                .expect("L range")
                .to_le_bytes(),
        );
        m.push(threshold_kind_to_byte(p.threshold_kind));
        m.push(metric_to_byte(p.metric));
        m.push(u8::from(p.merge_refinement));
        m.push(u8::from(p.descend_prune));
        m.extend_from_slice(&p.threshold.to_bits().to_le_bytes());
        m.extend_from_slice(&self.root.0.to_le_bytes());
        m.extend_from_slice(&self.first_leaf.0.to_le_bytes());
        m.extend_from_slice(
            &u32::try_from(self.height)
                .expect("height range")
                .to_le_bytes(),
        );
        m.extend_from_slice(
            &u32::try_from(self.nodes.len())
                .expect("arena overflow")
                .to_le_bytes(),
        );
        m.extend_from_slice(&(self.leaf_entry_count as u64).to_le_bytes());
        m.extend_from_slice(&self.max_input_stat.to_bits().to_le_bytes());
        m.extend_from_slice(&self.stats.splits.to_le_bytes());
        m.extend_from_slice(&self.stats.merge_refinements.to_le_bytes());
        m.extend_from_slice(&self.stats.distance_calls.to_le_bytes());
        m.extend_from_slice(&self.stats.distance_calls_pruned.to_le_bytes());
        m.extend_from_slice(
            &u32::try_from(self.free.len())
                .expect("free list range")
                .to_le_bytes(),
        );
        for id in &self.free {
            m.extend_from_slice(&id.0.to_le_bytes());
        }
        let mut words = Vec::with_capacity(Cf::words_per_entry(self.params.dim));
        self.total.to_words(&mut words);
        m.extend_from_slice(
            &u32::try_from(words.len())
                .expect("CF word range")
                .to_le_bytes(),
        );
        for w in words {
            m.extend_from_slice(&w.to_le_bytes());
        }
        m
    }

    /// Reconstructs a tree from a [`CfTree::checkpoint`] snapshot. The
    /// result is fully resident with paging off (re-enable it with
    /// [`CfTree::enable_paging`] if desired); leaf CF statistics are
    /// bit-identical to the checkpointed tree's.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: unreadable file, bad magic/version, a
    /// checksum mismatch anywhere, or a structurally inconsistent META
    /// section — corruption is always a typed error, never garbage stats.
    pub fn reopen(path: &Path) -> Result<Self, SnapshotError> {
        let malformed = |detail: String| SnapshotError::Malformed { detail };
        let snap = SnapshotReader::open(path)?;
        let meta = snap.require(*b"META")?;
        let mut c = MetaCursor { buf: meta, at: 0 };

        let backend = c.u32()?;
        if backend != SNAPSHOT_BACKEND_TAG {
            return Err(malformed(format!(
                "snapshot names CF backend {backend}, expected {SNAPSHOT_BACKEND_TAG}"
            )));
        }
        let dim = c.u32()? as usize;
        let branching = c.u32()? as usize;
        let leaf_capacity = c.u32()? as usize;
        let threshold_kind = threshold_kind_from_byte(c.u8()?)
            .ok_or_else(|| malformed("unknown threshold kind byte".into()))?;
        let metric = metric_from_byte(c.u8()?)
            .ok_or_else(|| malformed("unknown distance metric byte".into()))?;
        let merge_refinement = c.u8()? != 0;
        let descend_prune = c.u8()? != 0;
        let threshold = f64::from_bits(c.u64()?);
        if dim == 0 || branching < 2 || leaf_capacity < 2 || !threshold.is_finite() {
            return Err(malformed("inconsistent tree parameters".into()));
        }
        let params = TreeParams {
            dim,
            branching,
            leaf_capacity,
            threshold,
            threshold_kind,
            metric,
            merge_refinement,
            descend_prune,
        };
        let root = NodeId(c.u32()?);
        let first_leaf = NodeId(c.u32()?);
        let height = c.u32()? as usize;
        let arena_len = c.u32()? as usize;
        let leaf_entry_count = usize::try_from(c.u64()?)
            .map_err(|_| malformed("leaf entry count exceeds this platform".into()))?;
        let max_input_stat = f64::from_bits(c.u64()?);
        let stats = TreeStats {
            splits: c.u64()?,
            merge_refinements: c.u64()?,
            distance_calls: c.u64()?,
            distance_calls_pruned: c.u64()?,
        };
        let free_len = c.u32()? as usize;
        let mut free = Vec::with_capacity(free_len);
        let mut free_set = HashSet::with_capacity(free_len);
        for _ in 0..free_len {
            let id = c.u32()?;
            if id as usize >= arena_len || !free_set.insert(id) {
                return Err(malformed(format!("bad free-list id {id}")));
            }
            free.push(NodeId(id));
        }
        let total_words_len = c.u32()? as usize;
        if total_words_len != Cf::words_per_entry(dim) {
            return Err(malformed(format!(
                "total CF has {total_words_len} words, expected {}",
                Cf::words_per_entry(dim)
            )));
        }
        let mut total_words = Vec::with_capacity(total_words_len);
        for _ in 0..total_words_len {
            total_words.push(c.u64()?);
        }
        c.finish()?;
        let total = Cf::from_words(&total_words, dim);

        if root.index() >= arena_len || first_leaf.index() >= arena_len || height == 0 {
            return Err(malformed("root/first-leaf/height out of range".into()));
        }

        let mut slots: Vec<Option<Node>> =
            std::iter::repeat_with(|| None).take(arena_len).collect();
        for payload in snap.sections(*b"NODE") {
            if payload.len() < 4 {
                return Err(malformed("NODE section shorter than its id".into()));
            }
            let id = u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes"));
            if id as usize >= arena_len {
                return Err(malformed(format!("node id {id} outside the arena")));
            }
            let page_buf = &payload[4..];
            let kind = peek_kind(page_buf).map_err(|e| malformed(format!("node {id}: {e}")))?;
            let page = decode_page(page_buf, Node::words_per_entry(kind, dim))
                .map_err(|e| malformed(format!("node {id}: {e}")))?;
            let mut node = Node::from_decoded_page(&page, dim);
            node.id = NodeId(id);
            if slots[id as usize].replace(node).is_some() {
                return Err(malformed(format!("duplicate NODE section for id {id}")));
            }
        }
        let mut nodes = Vec::with_capacity(arena_len);
        for (i, slot) in slots.into_iter().enumerate() {
            let id = u32::try_from(i).expect("arena overflow");
            match slot {
                Some(node) => {
                    if free_set.contains(&id) {
                        return Err(malformed(format!("free-listed id {id} has a NODE")));
                    }
                    nodes.push(node);
                }
                None => {
                    if !free_set.contains(&id) {
                        return Err(malformed(format!("live node {id} missing its NODE")));
                    }
                    let mut hollow = Node::new_leaf();
                    hollow.id = NodeId(id);
                    nodes.push(hollow);
                }
            }
        }

        Ok(Self {
            params,
            nodes,
            free,
            root,
            first_leaf,
            height,
            leaf_entry_count,
            total,
            stats,
            max_input_stat,
            pager: None,
        })
    }
}

/// Bounds-checked little-endian reader over the snapshot META payload:
/// every short read is a typed [`SnapshotError::Malformed`], never a
/// panic, so a truncating corruption that survives framing cannot crash
/// the restore path.
struct MetaCursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> MetaCursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(SnapshotError::Malformed {
                detail: format!("META truncated at byte {}", self.at),
            });
        };
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn finish(&self) -> Result<(), SnapshotError> {
        if self.at != self.buf.len() {
            return Err(SnapshotError::Malformed {
                detail: format!("META has {} trailing bytes", self.buf.len() - self.at),
            });
        }
        Ok(())
    }
}

fn threshold_kind_to_byte(k: ThresholdKind) -> u8 {
    match k {
        ThresholdKind::Diameter => 0,
        ThresholdKind::Radius => 1,
    }
}

fn threshold_kind_from_byte(b: u8) -> Option<ThresholdKind> {
    match b {
        0 => Some(ThresholdKind::Diameter),
        1 => Some(ThresholdKind::Radius),
        _ => None,
    }
}

fn metric_to_byte(m: DistanceMetric) -> u8 {
    match m {
        DistanceMetric::D0 => 0,
        DistanceMetric::D1 => 1,
        DistanceMetric::D2 => 2,
        DistanceMetric::D3 => 3,
        DistanceMetric::D4 => 4,
    }
}

fn metric_from_byte(b: u8) -> Option<DistanceMetric> {
    match b {
        0 => Some(DistanceMetric::D0),
        1 => Some(DistanceMetric::D1),
        2 => Some(DistanceMetric::D2),
        3 => Some(DistanceMetric::D3),
        4 => Some(DistanceMetric::D4),
        _ => None,
    }
}

/// An entry on its way into the tree: owned (the public `insert_cf` path)
/// or borrowed (the scratch-CF feed path). A borrowed entry is cloned only
/// at the moment it must be stored as a new leaf entry, so the common
/// absorbed case allocates nothing.
enum EntInput<'a> {
    Owned(Cf),
    Ref(&'a Cf),
}

impl EntInput<'_> {
    fn get(&self) -> &Cf {
        match self {
            EntInput::Owned(cf) => cf,
            EntInput::Ref(cf) => cf,
        }
    }

    fn into_cf(self) -> Cf {
        match self {
            EntInput::Owned(cf) => cf,
            EntInput::Ref(cf) => cf.clone(),
        }
    }
}

struct LeafIter<'a> {
    tree: &'a CfTree,
    cur: Option<NodeId>,
}

impl Iterator for LeafIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.cur?;
        self.cur = match &self.tree.node(id).kind {
            NodeKind::Leaf { next, .. } => *next,
            NodeKind::Interior { .. } => unreachable!("interior node in leaf chain"),
        };
        Some(id)
    }
}

/// Splits `items` into two non-empty groups: the farthest pair of items
/// (under `metric`, comparing the CFs produced by `cf_of`) seed the groups
/// and every other item joins the nearer seed. This is the paper's split
/// rule ("choosing the farthest pair of entries as seeds, and redistributing
/// the remaining entries based on the closest criteria").
fn partition_by_farthest_pair<T>(
    items: Vec<T>,
    cf_of: impl Fn(&T) -> &Cf,
    metric: DistanceMetric,
) -> (Vec<T>, Vec<T>) {
    assert!(items.len() >= 2, "cannot partition fewer than 2 items");
    // Gather the items' CFs into one contiguous SoA block: the O(n²)
    // farthest-pair matrix and the redistribution pass both become linear
    // sweeps over cache-resident rows.
    let block = CfBlock::from_cfs(items.iter().map(&cf_of));
    let (s1, s2, _) = farthest_pair(metric, &block).expect("at least 2 items");
    let mut g1 = Vec::with_capacity(items.len() / 2 + 1);
    let mut g2 = Vec::with_capacity(items.len() / 2 + 1);
    for (k, item) in items.into_iter().enumerate() {
        if k == s1 {
            g1.push(item);
        } else if k == s2 {
            g2.push(item);
        } else {
            let d1 = pair_in_block(metric, &block, k, s1);
            let d2 = pair_in_block(metric, &block, k, s2);
            if d1 <= d2 {
                g1.push(item);
            } else {
                g2.push(item);
            }
        }
    }
    (g1, g2)
}

/// Moves items from an over-full group to the other until both respect
/// `capacity`. Proximity partitioning ignores capacity, and a merge+resplit
/// pools up to `2×capacity` items, so a group can overflow; each move picks
/// the overflowing group's item closest to the *other* group's summary,
/// keeping the redistribution as proximity-faithful as possible.
fn rebalance_to_capacity<T>(
    g1: &mut Vec<T>,
    g2: &mut Vec<T>,
    cf_of: impl Fn(&T) -> &Cf,
    metric: DistanceMetric,
    capacity: usize,
    dim: usize,
) {
    debug_assert!(g1.len() + g2.len() <= 2 * capacity, "pool too large to fit");
    let group_cf = |g: &[T]| {
        let mut cf = Cf::empty(dim);
        for item in g {
            cf.merge(cf_of(item));
        }
        cf
    };
    loop {
        let (from, to) = if g1.len() > capacity {
            (&mut *g1, &mut *g2)
        } else if g2.len() > capacity {
            (&mut *g2, &mut *g1)
        } else {
            return;
        };
        let target = group_cf(to);
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, item) in from.iter().enumerate() {
            let d = if target.is_empty() {
                0.0
            } else {
                metric.distance(cf_of(item), &target)
            };
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        let item = from.swap_remove(best);
        to.push(item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn small_params(threshold: f64) -> TreeParams {
        TreeParams {
            dim: 2,
            branching: 3,
            leaf_capacity: 3,
            threshold,
            threshold_kind: ThresholdKind::Diameter,
            metric: DistanceMetric::D2,
            merge_refinement: true,
            descend_prune: false,
        }
    }

    #[test]
    fn empty_tree_is_consistent() {
        let t = CfTree::new(TreeParams::for_dim(2));
        assert_eq!(t.leaf_entry_count(), 0);
        assert_eq!(t.height(), 1);
        assert_eq!(t.node_count(), 1);
        t.check_invariants().unwrap();
        assert_eq!(t.leaf_entries().count(), 0);
    }

    #[test]
    fn first_insert_adds_entry() {
        let mut t = CfTree::new(small_params(1.0));
        let out = t.insert_point(&Point::xy(1.0, 1.0));
        assert_eq!(out, InsertOutcome::Added);
        assert_eq!(t.leaf_entry_count(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn close_point_absorbed_far_point_added() {
        let mut t = CfTree::new(small_params(1.0));
        t.insert_point(&Point::xy(0.0, 0.0));
        let out = t.insert_point(&Point::xy(0.1, 0.0));
        assert_eq!(out, InsertOutcome::Absorbed);
        assert_eq!(t.leaf_entry_count(), 1);
        let out = t.insert_point(&Point::xy(10.0, 0.0));
        assert_eq!(out, InsertOutcome::Added);
        assert_eq!(t.leaf_entry_count(), 2);
        t.check_invariants().unwrap();
    }

    #[test]
    fn zero_threshold_only_merges_identical_points() {
        let mut t = CfTree::new(small_params(0.0));
        t.insert_point(&Point::xy(1.0, 1.0));
        assert_eq!(
            t.insert_point(&Point::xy(1.0, 1.0)),
            InsertOutcome::Absorbed
        );
        // An offset large enough to survive the CF algebra's floating-point
        // cancellation (SS − ‖LS‖²/N operates near ‖LS‖² ≈ 16 here).
        assert_eq!(
            t.insert_point(&Point::xy(1.0, 1.0 + 1e-3)),
            InsertOutcome::Added
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn leaf_split_grows_tree() {
        let mut t = CfTree::new(small_params(0.0));
        // L = 3 distinct points fill the root leaf; the 4th splits it.
        for i in 0..3 {
            t.insert_point(&Point::xy(f64::from(i) * 10.0, 0.0));
        }
        assert_eq!(t.height(), 1);
        let out = t.insert_point(&Point::xy(35.0, 0.0));
        assert_eq!(out, InsertOutcome::AddedWithSplit);
        assert_eq!(t.height(), 2);
        assert_eq!(t.leaf_entry_count(), 4);
        assert!(t.stats().splits >= 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn many_inserts_keep_invariants_and_balance() {
        let mut t = CfTree::new(small_params(0.5));
        // A deterministic pseudo-random walk over a 2-d box.
        let mut x = 0.0f64;
        let mut y = 0.0f64;
        for i in 0..500 {
            x = (x * 1.3 + f64::from(i) * 0.7).rem_euclid(50.0);
            y = (y * 1.7 + f64::from(i) * 0.3).rem_euclid(50.0);
            t.insert_point(&Point::xy(x, y));
        }
        t.check_invariants().unwrap();
        assert!(t.height() >= 3, "expected a multi-level tree");
        assert_eq!(t.total_cf().n(), 500.0);
    }

    #[test]
    fn leaf_chain_order_matches_left_to_right() {
        let mut t = CfTree::new(small_params(0.0));
        for i in 0..40 {
            t.insert_point(&Point::xy(f64::from(i), 0.0));
        }
        t.check_invariants().unwrap();
        // Chain order must equal DFS order (checked by invariants), and the
        // entries visited in chain order should cover all 40 points.
        let total: f64 = t.leaf_entries().map(Cf::n).sum();
        assert_eq!(total, 40.0);
    }

    #[test]
    fn insert_cf_subcluster() {
        let mut t = CfTree::new(small_params(5.0));
        let pts: Vec<Point> = (0..10)
            .map(|i| Point::xy(f64::from(i) * 0.1, 0.0))
            .collect();
        let sub = Cf::from_points(&pts);
        t.insert_cf(sub.clone());
        assert_eq!(t.leaf_entry_count(), 1);
        assert_eq!(t.total_cf().n(), 10.0);
        // A nearby subcluster within threshold should be absorbed.
        let sub2 = Cf::from_point(&Point::xy(0.45, 0.0));
        assert_eq!(t.insert_cf(sub2), InsertOutcome::Absorbed);
        t.check_invariants().unwrap();
    }

    #[test]
    fn try_absorb_success_and_failure() {
        let mut t = CfTree::new(small_params(1.0));
        t.insert_point(&Point::xy(0.0, 0.0));
        assert!(t.try_absorb(&Cf::from_point(&Point::xy(0.2, 0.0))));
        assert_eq!(t.leaf_entry_count(), 1);
        assert!(!t.try_absorb(&Cf::from_point(&Point::xy(50.0, 0.0))));
        assert_eq!(t.leaf_entry_count(), 1);
        assert_eq!(t.total_cf().n(), 2.0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn try_absorb_on_empty_tree_fails() {
        let mut t = CfTree::new(small_params(1.0));
        assert!(!t.try_absorb(&Cf::from_point(&Point::xy(0.0, 0.0))));
    }

    #[test]
    fn larger_threshold_fewer_entries() {
        let mk = |thr: f64| {
            let mut t = CfTree::new(small_params(thr));
            for i in 0..200 {
                let v = f64::from(i % 20);
                t.insert_point(&Point::xy(v, v * 0.5));
            }
            t.leaf_entry_count()
        };
        let fine = mk(0.1);
        let coarse = mk(10.0);
        assert!(
            coarse < fine,
            "coarse threshold should compress more: {coarse} vs {fine}"
        );
    }

    #[test]
    fn partition_separates_two_blobs() {
        let mut items: Vec<Cf> = Vec::new();
        for i in 0..5 {
            items.push(Cf::from_point(&Point::xy(f64::from(i) * 0.1, 0.0)));
        }
        for i in 0..5 {
            items.push(Cf::from_point(&Point::xy(100.0 + f64::from(i) * 0.1, 0.0)));
        }
        let (g1, g2) = partition_by_farthest_pair(items, |e| e, DistanceMetric::D0);
        assert_eq!(g1.len(), 5);
        assert_eq!(g2.len(), 5);
        let c1 = g1[0].centroid()[0];
        assert!(g1.iter().all(|e| (e.centroid()[0] - c1).abs() < 10.0));
    }

    #[test]
    fn partition_of_two_items() {
        let items = vec![
            Cf::from_point(&Point::xy(0.0, 0.0)),
            Cf::from_point(&Point::xy(1.0, 0.0)),
        ];
        let (g1, g2) = partition_by_farthest_pair(items, |e| e, DistanceMetric::D0);
        assert_eq!(g1.len(), 1);
        assert_eq!(g2.len(), 1);
    }

    #[test]
    fn mean_entry_statistic_and_dmin() {
        let mut t = CfTree::new(small_params(2.0));
        for i in 0..30 {
            t.insert_point(&Point::xy(f64::from(i % 5) * 3.0, 0.0));
            t.insert_point(&Point::xy(f64::from(i % 5) * 3.0 + 0.5, 0.0));
        }
        let stat = t.mean_entry_statistic();
        assert!(stat > 0.0 && stat <= 2.0, "stat={stat}");
        let dmin = t.dmin_most_crowded_leaf().unwrap();
        assert!(dmin > 0.0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_heavy_input_stays_small() {
        let mut t = CfTree::new(small_params(0.0));
        for _ in 0..1000 {
            t.insert_point(&Point::xy(1.0, 2.0));
        }
        assert_eq!(t.leaf_entry_count(), 1);
        assert_eq!(t.total_cf().n(), 1000.0);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn merge_refinement_counter_moves_on_skewed_input() {
        // Sorted (skewed) input is exactly the case §4.3's refinement
        // targets; with small B it should fire at least once.
        let mut t = CfTree::new(TreeParams {
            merge_refinement: true,
            ..small_params(0.0)
        });
        for i in 0..300 {
            t.insert_point(&Point::xy(f64::from(i) * 0.7, f64::from(i % 7)));
        }
        t.check_invariants().unwrap();
        assert!(
            t.stats().merge_refinements > 0,
            "expected merging refinement to trigger on ordered input"
        );
    }

    #[test]
    fn refinement_off_still_consistent() {
        let mut t = CfTree::new(TreeParams {
            merge_refinement: false,
            ..small_params(0.0)
        });
        for i in 0..300 {
            t.insert_point(&Point::xy(f64::from(i) * 0.7, f64::from(i % 7)));
        }
        t.check_invariants().unwrap();
        assert_eq!(t.stats().merge_refinements, 0);
    }

    /// The deterministic pseudo-random walk shared by the counter tests.
    fn walk_tree(params: TreeParams) -> CfTree {
        let mut t = CfTree::new(params);
        let mut x = 0.0f64;
        let mut y = 0.0f64;
        for i in 0..500 {
            x = (x * 1.3 + f64::from(i) * 0.7).rem_euclid(50.0);
            y = (y * 1.7 + f64::from(i) * 0.3).rem_euclid(50.0);
            t.insert_point(&Point::xy(x, y));
        }
        t
    }

    // The bound is widened by `D0_PRUNE_SLACK_REL`, so selection is
    // provably unchanged: the trees must be identical and the
    // evaluated/pruned counters must reconcile exactly.
    #[test]
    fn d0_prune_builds_identical_tree_and_counts_pruned() {
        let mk = |prune: bool| {
            walk_tree(TreeParams {
                metric: DistanceMetric::D0,
                descend_prune: prune,
                ..small_params(0.5)
            })
        };
        let base = mk(false);
        let pruned = mk(true);
        // Selection is provably unchanged, so the trees must be identical.
        let a: Vec<Cf> = base.leaf_entries().cloned().collect();
        let b: Vec<Cf> = pruned.leaf_entries().cloned().collect();
        assert_eq!(a, b, "pruned descent must build an identical tree");
        assert_eq!(base.stats().splits, pruned.stats().splits);
        assert_eq!(
            base.stats().merge_refinements,
            pruned.stats().merge_refinements
        );
        // The prune must actually fire, and every candidate is either
        // evaluated or pruned — the totals reconcile exactly.
        assert_eq!(base.stats().distance_calls_pruned, 0);
        assert!(
            pruned.stats().distance_calls_pruned > 0,
            "prune never fired"
        );
        assert_eq!(
            pruned.stats().distance_calls + pruned.stats().distance_calls_pruned,
            base.stats().distance_calls,
        );
        base.check_invariants().unwrap();
        pruned.check_invariants().unwrap();
    }

    #[test]
    fn prune_flag_is_inert_under_non_d0_metrics() {
        let t = walk_tree(TreeParams {
            descend_prune: true,
            ..small_params(0.5)
        });
        let u = walk_tree(small_params(0.5));
        assert_eq!(t.stats(), u.stats(), "prune flag must be a no-op under D2");
        assert_eq!(t.stats().distance_calls_pruned, 0);
    }

    #[test]
    fn distance_call_counter_is_pinned_on_fixed_workload() {
        // Regression pin: the descent + closest-leaf-entry scans of the
        // fixed 500-point walk perform exactly this many distance
        // evaluations. A change here means the hot path gained or lost
        // evaluations — intentional changes must update the pin.
        let t = walk_tree(small_params(0.5));
        assert_eq!(t.stats().distance_calls, DISTANCE_CALLS_PIN);
        assert_eq!(t.stats().distance_calls_pruned, 0);
    }

    /// See `distance_call_counter_is_pinned_on_fixed_workload`.
    const DISTANCE_CALLS_PIN: u64 = 7419;

    #[test]
    fn simd_kernel_span_nests_under_descend_and_split() {
        // The lane scans open a "simd_kernel" span, so a profiled run
        // must show it nested under the insert paths that reach them:
        // descend (closest_among) and split (farthest-pair seeding).
        // Own thread: the profiler state is thread-local and must not
        // leak into other tests sharing a cargo test worker.
        std::thread::scope(|s| {
            s.spawn(|| {
                crate::obs::span::set_enabled(true);
                walk_tree(small_params(0.5));
                let report = crate::obs::span::take_report();
                crate::obs::span::set_enabled(false);
                let descend = report
                    .get("insert/descend/simd_kernel")
                    .expect("simd_kernel span under descend");
                assert!(descend.calls > 0);
                let split = report
                    .get("insert/split/simd_kernel")
                    .expect("simd_kernel span under split");
                assert!(split.calls > 0);
            })
            .join()
            .expect("span test thread");
        });
    }

    #[test]
    #[should_panic(expected = "cannot insert an empty CF")]
    fn inserting_empty_cf_panics() {
        let mut t = CfTree::new(small_params(1.0));
        t.insert_cf(Cf::empty(2));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let mut t = CfTree::new(small_params(1.0));
        t.insert_cf(Cf::from_point(&Point::new(vec![1.0, 2.0, 3.0])));
    }

    fn temp_file(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("birch-tree-test-{}-{tag}", std::process::id()))
    }

    /// Identical f64 bit patterns, entry by entry, leaf chain order.
    fn assert_bit_identical(a: &CfTree, b: &CfTree) {
        let ea: Vec<&Cf> = a.leaf_entries().collect();
        let eb: Vec<&Cf> = b.leaf_entries().collect();
        assert_eq!(ea.len(), eb.len(), "leaf entry counts differ");
        for (i, (x, y)) in ea.iter().zip(&eb).enumerate() {
            let mut wx = Vec::new();
            let mut wy = Vec::new();
            x.to_words(&mut wx);
            y.to_words(&mut wy);
            assert_eq!(wx, wy, "leaf entry {i} differs bitwise");
        }
    }

    #[test]
    fn paged_build_bounds_residency_and_matches_unpaged() {
        let spill = temp_file("paged-build.pages");
        let budget = 4;

        let mut paged = CfTree::new(small_params(0.5));
        paged.enable_paging(&spill, budget).unwrap();
        let mut resident = CfTree::new(small_params(0.5));

        let mut x = 0.0f64;
        let mut y = 0.0f64;
        for i in 0..500 {
            x = (x * 1.3 + f64::from(i) * 0.7).rem_euclid(50.0);
            y = (y * 1.7 + f64::from(i) * 0.3).rem_euclid(50.0);
            paged.insert_point(&Point::xy(x, y));
            resident.insert_point(&Point::xy(x, y));
            let s = paged.page_stats().unwrap();
            assert!(
                s.resident_nodes <= budget,
                "resident {} exceeds page budget {budget} at op boundary",
                s.resident_nodes
            );
        }
        assert!(
            paged.node_count() > budget,
            "workload too small to exercise eviction"
        );
        let s = paged.page_stats().unwrap();
        assert!(s.evictions > 0, "no evictions despite budget pressure");
        assert!(s.faults > 0, "no faults despite evictions");
        assert!(s.spill_bytes_written > 0);
        // Regression pin: the clock's victim order decides every fault
        // and eviction of this walk. A change here means the eviction
        // sequence moved, not just its cost — intentional policy changes
        // must update the pin.
        assert_eq!((s.refs, s.faults, s.evictions), PAGED_WALK_PIN);

        // Descent order, splits, and CF arithmetic are untouched by
        // paging: counters and leaf stats must be exactly equal.
        assert_eq!(paged.stats(), resident.stats());
        paged.disable_paging();
        assert!(!spill.exists(), "spill file must be deleted");
        paged.audit().unwrap();
        assert_bit_identical(&paged, &resident);
    }

    /// `(refs, faults, evictions)` of the walk in
    /// `paged_build_bounds_residency_and_matches_unpaged`.
    const PAGED_WALK_PIN: (u64, u64, u64) = (3518, 2716, 3117);

    #[test]
    fn checkpoint_reopen_is_bit_identical_and_continues_equally() {
        let snap = temp_file("checkpoint.snapshot");
        let mut t = walk_tree(small_params(0.5));
        t.checkpoint(&snap).unwrap();

        let mut back = CfTree::reopen(&snap).unwrap();
        std::fs::remove_file(&snap).unwrap();
        back.audit().unwrap();
        assert_eq!(back.params(), t.params());
        assert_eq!(back.height(), t.height());
        assert_eq!(back.node_count(), t.node_count());
        assert_eq!(back.leaf_entry_count(), t.leaf_entry_count());
        assert_eq!(back.stats(), t.stats());
        assert_bit_identical(&back, &t);
        {
            let mut wa = Vec::new();
            let mut wb = Vec::new();
            t.total_cf().to_words(&mut wa);
            back.total_cf().to_words(&mut wb);
            assert_eq!(wa, wb, "total CF differs bitwise");
        }

        // The restored tree must behave identically from here on.
        for i in 0..100 {
            let p = Point::xy(f64::from(i) * 0.37 % 50.0, f64::from(i) * 0.73 % 50.0);
            assert_eq!(t.insert_point(&p), back.insert_point(&p));
        }
        assert_eq!(back.stats(), t.stats());
        assert_bit_identical(&back, &t);
    }

    #[test]
    fn paged_checkpoint_faults_all_and_restores() {
        let spill = temp_file("paged-ckpt.pages");
        let snap = temp_file("paged-ckpt.snapshot");
        let mut t = CfTree::new(small_params(0.5));
        t.enable_paging(&spill, 3).unwrap();
        for i in 0..200 {
            let p = Point::xy(f64::from(i) * 1.37 % 40.0, f64::from(i) * 2.11 % 40.0);
            t.insert_point(&p);
        }
        assert!(t.has_evicted_nodes(), "budget 3 must force spills");
        t.checkpoint(&snap).unwrap();
        assert!(!t.has_evicted_nodes(), "checkpoint faults everything in");

        let back = CfTree::reopen(&snap).unwrap();
        std::fs::remove_file(&snap).unwrap();
        back.audit().unwrap();
        assert!(!back.is_paged(), "a reopened tree starts fully resident");
        t.disable_paging();
        assert_bit_identical(&back, &t);
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let snap = temp_file("corrupt.snapshot");
        let mut t = walk_tree(small_params(0.5));
        t.checkpoint(&snap).unwrap();
        let bytes = std::fs::read(&snap).unwrap();

        // Flip one byte at a spread of offsets: every read must fail
        // loudly, never return a tree with silently wrong statistics.
        for at in (0..bytes.len()).step_by(97) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            std::fs::write(&snap, &bad).unwrap();
            assert!(
                CfTree::reopen(&snap).is_err(),
                "flip at byte {at} went undetected"
            );
        }
        // Truncations too.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&snap, &bytes[..cut]).unwrap();
            assert!(
                CfTree::reopen(&snap).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
        std::fs::remove_file(&snap).unwrap();
    }

    #[test]
    fn reopen_rejects_wrong_backend_tag() {
        let snap = temp_file("backend.snapshot");
        let mut t = walk_tree(small_params(0.5));
        t.checkpoint(&snap).unwrap();
        // A payload edit means re-checksumming, so rebuild the snapshot
        // through the writer with the backend tag flipped.
        let reader = SnapshotReader::open(&snap).unwrap();
        let mut meta = reader.require(*b"META").unwrap().to_vec();
        meta[0] ^= 1; // flip the backend tag
        let mut w = SnapshotWriter::new();
        w.add_section(*b"META", meta);
        for node in reader.sections(*b"NODE") {
            w.add_section(*b"NODE", node.to_vec());
        }
        w.finish(&snap).unwrap();
        let err = CfTree::reopen(&snap).unwrap_err();
        std::fs::remove_file(&snap).unwrap();
        assert!(
            matches!(err, SnapshotError::Malformed { .. }),
            "wrong backend must be malformed, got {err}"
        );
    }
}
