//! Arena-allocated CF-tree nodes.
//!
//! §4.2: a CF-tree node is either a **nonleaf** holding at most `B` entries
//! of the form `[CFᵢ, childᵢ]`, or a **leaf** holding at most `L` CF entries
//! plus `prev`/`next` pointers chaining all leaves together. Each node
//! occupies one page.
//!
//! Nodes live in a `Vec` arena indexed by [`NodeId`] — cache-friendly, no
//! `Rc<RefCell<…>>`, and page accounting is just arena occupancy.
//!
//! Each node additionally owns a [`CfBlock`]: a flat SoA mirror of its
//! entries' vector statistics (`LS` classic, μ + carry stable) plus
//! parallel `(N, scalar stat, ‖vec‖²)` arrays. The descent scan and the
//! split pairwise matrix sweep the block instead of chasing one
//! `Box<[f64]>` per entry; on the stable backend each row is zero-padded
//! to a lane-width stride ([`CfBlock::stride`]) so the SIMD kernels
//! stream it tail-free. Every mutation goes through the mutator methods
//! below, which keep the mirror in sync; the auditor cross-checks
//! block-vs-entries exactly.

use crate::cf::Cf;
use crate::distance::CfBlock;
use birch_pager::{DecodedPage, PageKind, NO_NEIGHBOR};

/// Index of a node in the tree's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The arena slot this id refers to.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One `[CFᵢ, childᵢ]` entry of a nonleaf node.
#[derive(Debug, Clone)]
pub struct ChildEntry {
    /// Summary of the entire subtree rooted at `child`.
    pub cf: Cf,
    /// The subtree root.
    pub child: NodeId,
}

/// Payload of a node: leaf or interior.
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// A leaf node: CF entries (each a subcluster obeying the threshold
    /// condition) plus its position in the doubly linked leaf chain.
    Leaf {
        /// The subcluster summaries stored in this leaf.
        entries: Vec<Cf>,
        /// Previous leaf in the chain (`None` at the head).
        prev: Option<NodeId>,
        /// Next leaf in the chain (`None` at the tail).
        next: Option<NodeId>,
    },
    /// An interior (nonleaf) node: `[CF, child]` routing entries.
    Interior {
        /// The routing entries, in sibling order.
        children: Vec<ChildEntry>,
    },
}

/// Sentinel id of a node not yet placed in an arena.
const UNALLOCATED: NodeId = NodeId(u32::MAX);

/// A CF-tree node (one simulated page).
#[derive(Debug, Clone)]
pub struct Node {
    /// The node payload. Public for *reads* and for leaf-chain `prev`/
    /// `next` surgery; CF-entry mutations must go through the mutator
    /// methods so the SoA [`CfBlock`] mirror stays in sync (direct `kind`
    /// surgery that touches CFs must call [`Node::rebuild_block`]).
    pub kind: NodeKind,
    /// Flat SoA mirror of the entries' CF statistics, kept in sync by the
    /// mutator methods. For a leaf, row `i` mirrors `entries[i]`; for an
    /// interior node, row `i` mirrors `children[i].cf`.
    block: CfBlock,
    /// The arena slot this node occupies, stamped by the tree's allocator
    /// ([`UNALLOCATED`] until then). Lets accessors and the auditor name
    /// the node in diagnostics, and lets the auditor verify arena
    /// consistency.
    pub(crate) id: NodeId,
}

impl Node {
    /// A fresh empty leaf, not yet linked into the chain.
    #[must_use]
    pub fn new_leaf() -> Self {
        Self {
            kind: NodeKind::Leaf {
                entries: Vec::new(),
                prev: None,
                next: None,
            },
            block: CfBlock::new(),
            id: UNALLOCATED,
        }
    }

    /// A fresh interior node with no children.
    #[must_use]
    pub fn new_interior() -> Self {
        Self {
            kind: NodeKind::Interior {
                children: Vec::new(),
            },
            block: CfBlock::new(),
            id: UNALLOCATED,
        }
    }

    /// The arena id stamped on this node at allocation.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// A short human-readable identity for diagnostics, e.g.
    /// `"n7 (leaf, 3 entries)"`.
    #[must_use]
    pub fn describe(&self) -> String {
        let id = if self.id == UNALLOCATED {
            "n?".to_string()
        } else {
            format!("n{}", self.id.0)
        };
        match &self.kind {
            NodeKind::Leaf { entries, .. } => {
                format!("{id} (leaf, {} entries)", entries.len())
            }
            NodeKind::Interior { children } => {
                format!("{id} (interior, {} children)", children.len())
            }
        }
    }

    /// Whether this node is a leaf.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf { .. })
    }

    /// Number of entries (CF entries for a leaf, children for an interior).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf { entries, .. } => entries.len(),
            NodeKind::Interior { children } => children.len(),
        }
    }

    /// Leaf entries, panicking if this is an interior node.
    #[must_use]
    pub fn leaf_entries(&self) -> &[Cf] {
        match &self.kind {
            NodeKind::Leaf { entries, .. } => entries,
            NodeKind::Interior { .. } => {
                panic!("leaf_entries on interior node {}", self.describe())
            }
        }
    }

    /// Interior children, panicking if this is a leaf.
    #[must_use]
    pub fn children(&self) -> &[ChildEntry] {
        match &self.kind {
            NodeKind::Interior { children } => children,
            NodeKind::Leaf { .. } => panic!("children on leaf node {}", self.describe()),
        }
    }

    /// The flat SoA mirror of this node's entry CFs (leaf entries or
    /// interior child CFs, in sibling order).
    #[must_use]
    pub fn block(&self) -> &CfBlock {
        &self.block
    }

    /// Heap bytes owned by the node's entry storage: the `Vec`'s capacity
    /// plus each CF's boxed statistics. The `Node` struct itself lives in
    /// the tree's arena and is counted there; the SoA mirror is counted
    /// separately via [`Node::block_heap_bytes`] so the gauge can report
    /// the mirror's overhead as its own component.
    #[must_use]
    pub fn entry_heap_bytes(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf { entries, .. } => {
                entries.capacity() * std::mem::size_of::<Cf>()
                    + entries.iter().map(Cf::heap_bytes).sum::<usize>()
            }
            NodeKind::Interior { children } => {
                children.capacity() * std::mem::size_of::<ChildEntry>()
                    + children.iter().map(|c| c.cf.heap_bytes()).sum::<usize>()
            }
        }
    }

    /// Heap bytes owned by the node's SoA mirror slabs.
    #[must_use]
    pub fn block_heap_bytes(&self) -> usize {
        self.block.heap_bytes()
    }

    /// Rebuilds the SoA mirror from the entries. Needed only after direct
    /// `kind` surgery that bypassed the mutators (e.g. the auditor's
    /// seeded-corruption tests); the mutators keep the mirror in sync on
    /// their own.
    pub fn rebuild_block(&mut self) {
        self.block.clear();
        match &self.kind {
            NodeKind::Leaf { entries, .. } => {
                for e in entries {
                    self.block.push(e);
                }
            }
            NodeKind::Interior { children } => {
                for c in children {
                    self.block.push(&c.cf);
                }
            }
        }
    }

    // ---- Leaf mutators (each keeps the SoA mirror in sync). ----

    /// Appends a CF entry to a leaf.
    ///
    /// # Panics
    ///
    /// Panics if this is an interior node.
    pub fn push_leaf_entry(&mut self, cf: Cf) {
        match &mut self.kind {
            NodeKind::Leaf { entries, .. } => {
                self.block.push(&cf);
                entries.push(cf);
            }
            NodeKind::Interior { .. } => {
                panic!("push_leaf_entry on interior node {}", self.describe())
            }
        }
    }

    /// Overwrites leaf entry `idx` with `cf`.
    ///
    /// # Panics
    ///
    /// Panics if this is an interior node or `idx` is out of range.
    pub fn set_leaf_entry(&mut self, idx: usize, cf: Cf) {
        match &mut self.kind {
            NodeKind::Leaf { entries, .. } => {
                self.block.set(idx, &cf);
                entries[idx] = cf;
            }
            NodeKind::Interior { .. } => {
                panic!("set_leaf_entry on interior node {}", self.describe())
            }
        }
    }

    /// Takes all leaf entries out (leaving the leaf empty but keeping its
    /// chain links), clearing the mirror.
    ///
    /// # Panics
    ///
    /// Panics if this is an interior node.
    pub fn take_leaf_entries(&mut self) -> Vec<Cf> {
        match &mut self.kind {
            NodeKind::Leaf { entries, .. } => {
                self.block.clear();
                std::mem::take(entries)
            }
            NodeKind::Interior { .. } => {
                panic!("take_leaf_entries on interior node {}", self.describe())
            }
        }
    }

    /// Replaces the leaf's entries wholesale (chain links untouched),
    /// rebuilding the mirror.
    ///
    /// # Panics
    ///
    /// Panics if this is an interior node.
    pub fn set_leaf_entries(&mut self, new_entries: Vec<Cf>) {
        match &mut self.kind {
            NodeKind::Leaf { entries, .. } => {
                *entries = new_entries;
            }
            NodeKind::Interior { .. } => {
                panic!("set_leaf_entries on interior node {}", self.describe())
            }
        }
        self.rebuild_block();
    }

    /// Appends a batch of leaf entries, extending the mirror.
    ///
    /// # Panics
    ///
    /// Panics if this is an interior node.
    pub fn append_leaf_entries<I: IntoIterator<Item = Cf>>(&mut self, new_entries: I) {
        match &mut self.kind {
            NodeKind::Leaf { entries, .. } => {
                for cf in new_entries {
                    self.block.push(&cf);
                    entries.push(cf);
                }
            }
            NodeKind::Interior { .. } => {
                panic!("append_leaf_entries on interior node {}", self.describe())
            }
        }
    }

    // ---- Interior mutators (each keeps the SoA mirror in sync). ----

    /// Appends a `[CF, child]` routing entry.
    ///
    /// # Panics
    ///
    /// Panics if this is a leaf.
    pub fn push_child(&mut self, entry: ChildEntry) {
        match &mut self.kind {
            NodeKind::Interior { children } => {
                self.block.push(&entry.cf);
                children.push(entry);
            }
            NodeKind::Leaf { .. } => panic!("push_child on leaf node {}", self.describe()),
        }
    }

    /// Inserts a `[CF, child]` routing entry at `idx`, shifting later
    /// siblings right.
    ///
    /// # Panics
    ///
    /// Panics if this is a leaf or `idx > len`.
    pub fn insert_child(&mut self, idx: usize, entry: ChildEntry) {
        match &mut self.kind {
            NodeKind::Interior { children } => {
                self.block.insert(idx, &entry.cf);
                children.insert(idx, entry);
            }
            NodeKind::Leaf { .. } => panic!("insert_child on leaf node {}", self.describe()),
        }
    }

    /// Removes the routing entry at `idx`, returning it.
    ///
    /// # Panics
    ///
    /// Panics if this is a leaf or `idx` is out of range.
    pub fn remove_child(&mut self, idx: usize) -> ChildEntry {
        match &mut self.kind {
            NodeKind::Interior { children } => {
                self.block.remove(idx);
                children.remove(idx)
            }
            NodeKind::Leaf { .. } => panic!("remove_child on leaf node {}", self.describe()),
        }
    }

    /// Overwrites the CF of the routing entry at `idx` (child id kept).
    ///
    /// # Panics
    ///
    /// Panics if this is a leaf or `idx` is out of range.
    pub fn set_child_cf(&mut self, idx: usize, cf: Cf) {
        match &mut self.kind {
            NodeKind::Interior { children } => {
                self.block.set(idx, &cf);
                children[idx].cf = cf;
            }
            NodeKind::Leaf { .. } => panic!("set_child_cf on leaf node {}", self.describe()),
        }
    }

    /// Merges `ent` into the CF of the routing entry at `idx` — the
    /// descent path update of §4.2 ("update the CF entries on the path").
    ///
    /// # Panics
    ///
    /// Panics if this is a leaf or `idx` is out of range.
    pub fn merge_into_child_cf(&mut self, idx: usize, ent: &Cf) {
        match &mut self.kind {
            NodeKind::Interior { children } => {
                children[idx].cf.merge(ent);
                self.block.set(idx, &children[idx].cf);
            }
            NodeKind::Leaf { .. } => {
                panic!("merge_into_child_cf on leaf node {}", self.describe())
            }
        }
    }

    /// Takes all routing entries out (leaving the interior node empty),
    /// clearing the mirror.
    ///
    /// # Panics
    ///
    /// Panics if this is a leaf.
    pub fn take_children(&mut self) -> Vec<ChildEntry> {
        match &mut self.kind {
            NodeKind::Interior { children } => {
                self.block.clear();
                std::mem::take(children)
            }
            NodeKind::Leaf { .. } => panic!("take_children on leaf node {}", self.describe()),
        }
    }

    /// Appends a batch of routing entries, extending the mirror.
    ///
    /// # Panics
    ///
    /// Panics if this is a leaf.
    pub fn append_children<I: IntoIterator<Item = ChildEntry>>(&mut self, new_children: I) {
        match &mut self.kind {
            NodeKind::Interior { children } => {
                for entry in new_children {
                    self.block.push(&entry.cf);
                    children.push(entry);
                }
            }
            NodeKind::Leaf { .. } => panic!("append_children on leaf node {}", self.describe()),
        }
    }

    /// Replaces the routing entries wholesale, rebuilding the mirror.
    ///
    /// # Panics
    ///
    /// Panics if this is a leaf.
    pub fn set_children(&mut self, new_children: Vec<ChildEntry>) {
        match &mut self.kind {
            NodeKind::Interior { children } => {
                *children = new_children;
            }
            NodeKind::Leaf { .. } => panic!("set_children on leaf node {}", self.describe()),
        }
        self.rebuild_block();
    }

    /// Words one serialized entry of a `kind` node occupies: the CF words
    /// plus, for interior nodes, the child pointer.
    #[must_use]
    pub fn words_per_entry(kind: PageKind, dim: usize) -> usize {
        match kind {
            PageKind::Leaf => Cf::words_per_entry(dim),
            PageKind::Interior => Cf::words_per_entry(dim) + 1,
        }
    }

    /// Serializes this node into page-codec inputs: `(kind, count, prev,
    /// next, words)` for [`birch_pager::encode_page`]. Leaf chain links
    /// map `None` to [`NO_NEIGHBOR`]; interior nodes carry no neighbours.
    #[must_use]
    pub fn to_page_words(&self) -> (PageKind, u32, u64, u64, Vec<u64>) {
        let chain = |link: &Option<NodeId>| link.map_or(NO_NEIGHBOR, |id| u64::from(id.0));
        let sized = |kind| {
            Vec::with_capacity(self.entry_count() * Self::words_per_entry(kind, self.block.dim()))
        };
        match &self.kind {
            NodeKind::Leaf {
                entries,
                prev,
                next,
            } => {
                let mut words = sized(PageKind::Leaf);
                for e in entries {
                    e.to_words(&mut words);
                }
                (
                    PageKind::Leaf,
                    entries.len() as u32,
                    chain(prev),
                    chain(next),
                    words,
                )
            }
            NodeKind::Interior { children } => {
                let mut words = sized(PageKind::Interior);
                for c in children {
                    c.cf.to_words(&mut words);
                    words.push(u64::from(c.child.0));
                }
                (
                    PageKind::Interior,
                    children.len() as u32,
                    NO_NEIGHBOR,
                    NO_NEIGHBOR,
                    words,
                )
            }
        }
    }

    /// Rebuilds a node from a decoded page. The arena id is *not* stored
    /// on the page — the caller (the tree) stamps it. Entries are replayed
    /// through the mutators, so the SoA mirror comes back in sync and the
    /// CF memos are recomputed under their exact contracts: the rebuilt
    /// node is bit-identical to the one serialized. The entry `Vec` and
    /// the mirror's slabs are sized from the page's count up front, so
    /// the replay never reallocates.
    ///
    /// # Panics
    ///
    /// Panics if the page's word count is not a multiple of the entry
    /// width for its kind (a decoding-layer bug; torn pages are caught by
    /// the page CRC before this point).
    #[must_use]
    pub fn from_decoded_page(page: &DecodedPage, dim: usize) -> Self {
        let chain = |w: u64| {
            (w != NO_NEIGHBOR)
                .then(|| NodeId(u32::try_from(w).expect("leaf chain word exceeds arena range")))
        };
        let per = Self::words_per_entry(page.kind, dim);
        assert_eq!(
            page.words.len(),
            page.count as usize * per,
            "page word count does not match {} entries of {per} words",
            page.count
        );
        let rows = page.count as usize;
        let block = CfBlock::with_capacity(dim, rows);
        match page.kind {
            PageKind::Leaf => {
                let mut node = Self {
                    kind: NodeKind::Leaf {
                        entries: Vec::with_capacity(rows),
                        prev: chain(page.prev),
                        next: chain(page.next),
                    },
                    block,
                    id: UNALLOCATED,
                };
                for row in page.words.chunks_exact(per) {
                    node.push_leaf_entry(Cf::from_words(row, dim));
                }
                node
            }
            PageKind::Interior => {
                let mut node = Self {
                    kind: NodeKind::Interior {
                        children: Vec::with_capacity(rows),
                    },
                    block,
                    id: UNALLOCATED,
                };
                for row in page.words.chunks_exact(per) {
                    let child = NodeId(
                        u32::try_from(row[per - 1]).expect("child pointer exceeds arena range"),
                    );
                    node.push_child(ChildEntry {
                        cf: Cf::from_words(&row[..per - 1], dim),
                        child,
                    });
                }
                node
            }
        }
    }

    /// Exact CF summary of this node: the sum of its entries.
    ///
    /// # Panics
    ///
    /// Panics if the node has no entries (an empty node has no meaningful
    /// summary and should never be summarized).
    #[must_use]
    pub fn summary(&self, dim: usize) -> Cf {
        let mut cf = Cf::empty(dim);
        match &self.kind {
            NodeKind::Leaf { entries, .. } => {
                for e in entries {
                    cf.merge(e);
                }
            }
            NodeKind::Interior { children } => {
                for c in children {
                    cf.merge(&c.cf);
                }
            }
        }
        cf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    /// The block mirror must match the entries row for row.
    fn assert_block_in_sync(n: &Node) {
        let b = n.block();
        match &n.kind {
            NodeKind::Leaf { entries, .. } => {
                assert_eq!(b.len(), entries.len());
                for (i, e) in entries.iter().enumerate() {
                    assert_eq!(b.row_n(i), e.n());
                    assert_eq!(b.row_scalar(i), e.scalar_stat());
                    assert_eq!(b.row_vec_sq(i).to_bits(), e.vec_stat_sq().to_bits());
                    assert_eq!(b.row_vec(i), e.vec_stat());
                }
            }
            NodeKind::Interior { children } => {
                assert_eq!(b.len(), children.len());
                for (i, c) in children.iter().enumerate() {
                    assert_eq!(b.row_n(i), c.cf.n());
                    assert_eq!(b.row_vec(i), c.cf.vec_stat());
                }
            }
        }
    }

    #[test]
    fn leaf_basics() {
        let mut n = Node::new_leaf();
        assert!(n.is_leaf());
        assert_eq!(n.entry_count(), 0);
        n.push_leaf_entry(Cf::from_point(&Point::xy(1.0, 2.0)));
        assert_eq!(n.entry_count(), 1);
        assert_eq!(n.leaf_entries().len(), 1);
        assert_block_in_sync(&n);
    }

    #[test]
    fn interior_basics() {
        let mut n = Node::new_interior();
        assert!(!n.is_leaf());
        n.push_child(ChildEntry {
            cf: Cf::from_point(&Point::xy(0.0, 0.0)),
            child: NodeId(7),
        });
        assert_eq!(n.entry_count(), 1);
        assert_eq!(n.children()[0].child, NodeId(7));
        assert_block_in_sync(&n);
    }

    #[test]
    fn summary_sums_entries() {
        let mut n = Node::new_leaf();
        n.push_leaf_entry(Cf::from_point(&Point::xy(1.0, 0.0)));
        n.push_leaf_entry(Cf::from_point(&Point::xy(3.0, 4.0)));
        let s = n.summary(2);
        assert_eq!(s.n(), 2.0);
        // Backend-agnostic: centroid (2, 2) and Σ‖x − μ‖² = 10 for the
        // points (1,0) and (3,4), whichever statistics the CF stores.
        assert_eq!(s.centroid().coords(), &[2.0, 2.0]);
        assert!((s.sq_deviation() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn leaf_mutators_keep_block_in_sync() {
        let mut n = Node::new_leaf();
        n.push_leaf_entry(Cf::from_point(&Point::xy(1.0, 0.0)));
        n.push_leaf_entry(Cf::from_point(&Point::xy(2.0, 0.0)));
        n.set_leaf_entry(0, Cf::from_point(&Point::xy(-5.0, 3.0)));
        assert_block_in_sync(&n);
        let taken = n.take_leaf_entries();
        assert_eq!(taken.len(), 2);
        assert_eq!(n.entry_count(), 0);
        assert_block_in_sync(&n);
        n.set_leaf_entries(taken);
        assert_eq!(n.entry_count(), 2);
        assert_block_in_sync(&n);
        n.append_leaf_entries(vec![Cf::from_point(&Point::xy(9.0, 9.0))]);
        assert_eq!(n.entry_count(), 3);
        assert_block_in_sync(&n);
    }

    #[test]
    fn interior_mutators_keep_block_in_sync() {
        let mut n = Node::new_interior();
        for i in 0..3 {
            n.push_child(ChildEntry {
                cf: Cf::from_point(&Point::xy(f64::from(i), 0.0)),
                child: NodeId(i as u32),
            });
        }
        n.insert_child(
            1,
            ChildEntry {
                cf: Cf::from_point(&Point::xy(7.0, 7.0)),
                child: NodeId(9),
            },
        );
        assert_eq!(n.children()[1].child, NodeId(9));
        assert_block_in_sync(&n);
        n.set_child_cf(2, Cf::from_point(&Point::xy(-1.0, -1.0)));
        assert_block_in_sync(&n);
        n.merge_into_child_cf(0, &Cf::from_point(&Point::xy(0.5, 0.5)));
        assert_eq!(n.children()[0].cf.n(), 2.0);
        assert_block_in_sync(&n);
        let removed = n.remove_child(1);
        assert_eq!(removed.child, NodeId(9));
        assert_block_in_sync(&n);
        let kids = n.take_children();
        assert_eq!(kids.len(), 3);
        assert_block_in_sync(&n);
        n.set_children(kids);
        assert_block_in_sync(&n);
    }

    #[test]
    fn rebuild_block_resyncs_after_direct_surgery() {
        let mut n = Node::new_leaf();
        n.push_leaf_entry(Cf::from_point(&Point::xy(1.0, 1.0)));
        // Bypass the mutators, as the auditor's corruption tests do.
        if let NodeKind::Leaf { entries, .. } = &mut n.kind {
            entries[0].merge(&Cf::from_point(&Point::xy(5.0, 5.0)));
        }
        n.rebuild_block();
        assert_block_in_sync(&n);
    }

    #[test]
    fn leaf_round_trips_through_page_words_bitwise() {
        let mut n = Node::new_leaf();
        n.push_leaf_entry(Cf::from_points(&[
            Point::xy(1e8, 1e8 + 1e-3),
            Point::xy(1e8, 1e8),
        ]));
        n.push_leaf_entry(Cf::from_point(&Point::xy(-3.5, 0.25)));
        if let NodeKind::Leaf { prev, next, .. } = &mut n.kind {
            *prev = Some(NodeId(11));
            *next = None;
        }
        let (kind, count, prev, next, words) = n.to_page_words();
        assert_eq!(kind, PageKind::Leaf);
        assert_eq!(count, 2);
        assert_eq!(prev, 11);
        assert_eq!(next, NO_NEIGHBOR);
        let buf = birch_pager::encode_page(4096, kind, count, prev, next, &words).unwrap();
        let decoded = birch_pager::decode_page(&buf, Cf::words_per_entry(2)).unwrap();
        let back = Node::from_decoded_page(&decoded, 2);
        assert_eq!(back.entry_count(), 2);
        for (a, b) in back.leaf_entries().iter().zip(n.leaf_entries()) {
            assert!(a == b, "leaf CF changed across the page round-trip");
            assert_eq!(a.vec_stat_sq().to_bits(), b.vec_stat_sq().to_bits());
        }
        match (&back.kind, &n.kind) {
            (
                NodeKind::Leaf {
                    prev: bp, next: bn, ..
                },
                NodeKind::Leaf {
                    prev: ap, next: an, ..
                },
            ) => {
                assert_eq!(bp, ap);
                assert_eq!(bn, an);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn interior_round_trips_through_page_words_bitwise() {
        let mut n = Node::new_interior();
        for i in 0..3u32 {
            n.push_child(ChildEntry {
                cf: Cf::from_point(&Point::xy(f64::from(i) * 2.5, -f64::from(i))),
                child: NodeId(i * 7 + 1),
            });
        }
        let (kind, count, prev, next, words) = n.to_page_words();
        assert_eq!(kind, PageKind::Interior);
        assert_eq!(count, 3);
        let buf = birch_pager::encode_page(4096, kind, count, prev, next, &words).unwrap();
        let decoded =
            birch_pager::decode_page(&buf, Node::words_per_entry(PageKind::Interior, 2)).unwrap();
        let back = Node::from_decoded_page(&decoded, 2);
        assert_eq!(back.entry_count(), 3);
        for (a, b) in back.children().iter().zip(n.children()) {
            assert_eq!(a.child, b.child);
            assert!(a.cf == b.cf);
        }
    }

    #[test]
    #[should_panic(expected = "children on leaf node")]
    fn children_on_leaf_panics() {
        let n = Node::new_leaf();
        let _ = n.children();
    }

    #[test]
    fn describe_names_id_kind_and_occupancy() {
        let n = Node::new_interior();
        assert_eq!(n.describe(), "n? (interior, 0 children)");
        let mut l = Node::new_leaf();
        l.id = NodeId(4);
        l.push_leaf_entry(Cf::from_point(&Point::xy(0.0, 0.0)));
        assert_eq!(l.describe(), "n4 (leaf, 1 entries)");
    }

    #[test]
    #[should_panic(expected = "push_child on leaf node n9 (leaf, 0 entries)")]
    fn panic_message_names_the_node() {
        let mut n = Node::new_leaf();
        n.id = NodeId(9);
        n.push_child(ChildEntry {
            cf: Cf::from_point(&Point::xy(0.0, 0.0)),
            child: NodeId(0),
        });
    }

    #[test]
    #[should_panic(expected = "leaf_entries on interior node")]
    fn leaf_entries_on_interior_panics() {
        let n = Node::new_interior();
        let _ = n.leaf_entries();
    }

    #[test]
    #[should_panic(expected = "push_leaf_entry on interior node")]
    fn push_leaf_entry_on_interior_panics() {
        let mut n = Node::new_interior();
        n.push_leaf_entry(Cf::from_point(&Point::xy(0.0, 0.0)));
    }
}
