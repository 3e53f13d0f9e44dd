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
//! A node's CF entries live in one place: its [`CfBlock`], a flat SoA
//! slab of `(N, μ, μ carry, SSE, SSE carry, ‖μ‖²)` rows that the descent
//! scan and the split pairwise matrix sweep directly. Each mean row is
//! zero-padded to a lane-width stride ([`CfBlock::stride`]) so the SIMD
//! kernels stream it tail-free. [`NodeKind`] keeps only what is not a CF:
//! a leaf's chain links, or an interior node's child ids, where
//! `children[i]` is the subtree summarized by row `i`. The row operations
//! below serve both kinds and move a child id with its row. Outside the
//! slab a [`Cf`] exists only as a copy (`CfBlock::row_cf`).

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

/// What a node holds besides its CF rows.
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// A leaf node: its position in the doubly linked leaf chain. Its rows
    /// are subclusters obeying the threshold condition.
    Leaf {
        /// Previous leaf in the chain (`None` at the head).
        prev: Option<NodeId>,
        /// Next leaf in the chain (`None` at the tail).
        next: Option<NodeId>,
    },
    /// An interior (nonleaf) node: the child under each row, in sibling
    /// order.
    Interior {
        /// `children[i]` is the subtree row `i` summarizes.
        children: Vec<NodeId>,
    },
}

/// Sentinel id of a node not yet placed in an arena.
const UNALLOCATED: NodeId = NodeId(u32::MAX);

/// A CF-tree node (one simulated page).
#[derive(Debug, Clone)]
pub struct Node {
    /// Chain links or child ids. Leaf-chain surgery edits the links
    /// directly; child ids change only through the row operations, which
    /// keep them in step with the rows.
    pub(crate) kind: NodeKind,
    /// The node's entries: leaf CFs, or the child subtrees' CFs.
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
        Self::with_kind(NodeKind::Leaf {
            prev: None,
            next: None,
        })
    }

    /// A fresh interior node with no children.
    #[must_use]
    pub fn new_interior() -> Self {
        Self::with_kind(NodeKind::Interior {
            children: Vec::new(),
        })
    }

    fn with_kind(kind: NodeKind) -> Self {
        Self {
            kind,
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
        let count = self.entry_count();
        match self.kind {
            NodeKind::Leaf { .. } => format!("{id} (leaf, {count} entries)"),
            NodeKind::Interior { .. } => format!("{id} (interior, {count} children)"),
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
        self.block.len()
    }

    /// The node's CF rows: leaf entries or interior child CFs, in sibling
    /// order.
    #[must_use]
    pub fn block(&self) -> &CfBlock {
        &self.block
    }

    /// Test-only write access to the rows, for seeded corruptions.
    #[cfg(test)]
    pub(crate) fn block_mut(&mut self) -> &mut CfBlock {
        &mut self.block
    }

    /// Interior child ids, panicking if this is a leaf.
    #[must_use]
    pub fn children(&self) -> &[NodeId] {
        match &self.kind {
            NodeKind::Interior { children } => children,
            NodeKind::Leaf { .. } => panic!("children on leaf node {}", self.describe()),
        }
    }

    fn children_mut(&mut self, op: &str) -> &mut Vec<NodeId> {
        assert!(!self.is_leaf(), "{op} on leaf node {}", self.describe());
        match &mut self.kind {
            NodeKind::Interior { children } => children,
            NodeKind::Leaf { .. } => unreachable!("checked above"),
        }
    }

    /// Appends a CF entry to a leaf.
    ///
    /// # Panics
    ///
    /// Panics if this is an interior node.
    pub(crate) fn push_entry(&mut self, cf: &Cf) {
        assert!(
            self.is_leaf(),
            "push_entry on interior node {}",
            self.describe()
        );
        self.block.push(cf);
    }

    /// Appends a `[CF, child]` routing entry.
    ///
    /// # Panics
    ///
    /// Panics if this is a leaf.
    pub(crate) fn push_child(&mut self, cf: &Cf, child: NodeId) {
        self.children_mut("push_child").push(child);
        self.block.push(cf);
    }

    /// Inserts a `[CF, child]` routing entry at `idx`, shifting later
    /// siblings right.
    ///
    /// # Panics
    ///
    /// Panics if this is a leaf or `idx > len`.
    pub(crate) fn insert_child(&mut self, idx: usize, cf: &Cf, child: NodeId) {
        self.children_mut("insert_child").insert(idx, child);
        self.block.insert(idx, cf);
    }

    /// Overwrites row `idx` (a child id stays).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub(crate) fn set_cf(&mut self, idx: usize, cf: &Cf) {
        self.block.set(idx, cf);
    }

    /// Merges `ent` into row `idx` — the descent path update of §4.2
    /// ("update the CF entries on the path").
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub(crate) fn merge_into(&mut self, idx: usize, ent: &Cf) {
        self.block.merge_into_row(idx, ent);
    }

    /// Removes row `idx` (and its child id), shifting later rows left.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub(crate) fn remove(&mut self, idx: usize) {
        if let NodeKind::Interior { children } = &mut self.kind {
            children.remove(idx);
        }
        self.block.remove(idx);
    }

    /// Moves every row (and child id) out into an unlinked node of the
    /// same kind, leaving this one empty with its chain links intact.
    pub(crate) fn take_rows(&mut self) -> Node {
        let mut out = self.empty_like(0);
        self.swap_rows(&mut out);
        out
    }

    /// Replaces this node's rows (and child ids) with `other`'s, keeping
    /// this node's id and chain links.
    ///
    /// # Panics
    ///
    /// Panics if the kinds differ.
    pub(crate) fn replace_rows(&mut self, mut other: Node) {
        self.swap_rows(&mut other);
    }

    fn swap_rows(&mut self, other: &mut Node) {
        match (&mut self.kind, &mut other.kind) {
            (NodeKind::Interior { children }, NodeKind::Interior { children: theirs }) => {
                std::mem::swap(children, theirs);
            }
            (NodeKind::Leaf { .. }, NodeKind::Leaf { .. }) => {}
            _ => panic!(
                "rows of {} swapped with {}",
                other.describe(),
                self.describe()
            ),
        }
        std::mem::swap(&mut self.block, &mut other.block);
    }

    /// Appends copies of all of `other`'s rows (and child ids).
    ///
    /// # Panics
    ///
    /// Panics if the kinds differ.
    pub(crate) fn append_rows(&mut self, other: &Node) {
        for i in 0..other.entry_count() {
            self.push_row_from(other, i);
        }
    }

    /// An unlinked node of the same kind holding copies of rows `rows` (and
    /// their child ids), in that order, with exactly that many slots.
    #[must_use]
    pub(crate) fn gather(&self, rows: &[usize]) -> Node {
        let mut out = self.empty_like(rows.len());
        for &i in rows {
            out.push_row_from(self, i);
        }
        out
    }

    /// An unlinked, empty node of the same kind with room for `rows` rows.
    fn empty_like(&self, rows: usize) -> Node {
        let mut out = Node::with_kind(match self.kind {
            NodeKind::Leaf { .. } => NodeKind::Leaf {
                prev: None,
                next: None,
            },
            NodeKind::Interior { .. } => NodeKind::Interior {
                children: Vec::with_capacity(rows),
            },
        });
        out.block = CfBlock::with_capacity(self.block.dim(), rows);
        out
    }

    fn push_row_from(&mut self, src: &Node, i: usize) {
        match (&mut self.kind, &src.kind) {
            (NodeKind::Interior { children }, NodeKind::Interior { children: from }) => {
                children.push(from[i]);
            }
            (NodeKind::Leaf { .. }, NodeKind::Leaf { .. }) => {}
            _ => panic!("row of {} copied into {}", src.describe(), self.describe()),
        }
        self.block.push_row_from(&src.block, i);
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
    /// next, words)` for [`birch_pager::encode_page`], written straight
    /// from the rows. Leaf chain links map `None` to [`NO_NEIGHBOR`];
    /// interior nodes carry no neighbours.
    #[must_use]
    pub fn to_page_words(&self) -> (PageKind, u32, u64, u64, Vec<u64>) {
        let link = |l: &Option<NodeId>| l.map_or(NO_NEIGHBOR, |id| u64::from(id.0));
        let (kind, prev, next, children) = match &self.kind {
            NodeKind::Leaf { prev, next } => (PageKind::Leaf, link(prev), link(next), None),
            NodeKind::Interior { children } => {
                (PageKind::Interior, NO_NEIGHBOR, NO_NEIGHBOR, Some(children))
            }
        };
        let rows = self.entry_count();
        let mut words = Vec::with_capacity(rows * Self::words_per_entry(kind, self.block.dim()));
        for i in 0..rows {
            self.block.row_words(i, &mut words);
            if let Some(children) = children {
                words.push(u64::from(children[i].0));
            }
        }
        (kind, rows as u32, prev, next, words)
    }

    /// Rebuilds a node from a decoded page, filling the slab straight from
    /// the page words. The arena id is *not* stored on the page — the
    /// caller (the tree) stamps it. The `‖μ‖²` memos are recomputed under
    /// their exact contract, so the rebuilt node is bit-identical to the
    /// one serialized. The slab is sized from the page's count up front,
    /// so filling it never reallocates.
    ///
    /// Ids are only range-checked here; whether they name live nodes of
    /// the right kind is the tree's to check.
    ///
    /// # Errors
    ///
    /// A description of the defect when the page's word count is not its
    /// entry count times the entry width, or a chain link or child pointer
    /// does not fit a node id.
    pub fn from_decoded_page(page: &DecodedPage, dim: usize) -> Result<Self, String> {
        let id_of = |w: u64, what: &str| {
            u32::try_from(w)
                .map(NodeId)
                .map_err(|_| format!("{what} {w} exceeds the arena range"))
        };
        let link = |w: u64| {
            (w != NO_NEIGHBOR)
                .then(|| id_of(w, "leaf chain link"))
                .transpose()
        };
        let per = Self::words_per_entry(page.kind, dim);
        let rows = page.count as usize;
        if page.words.len() != rows * per {
            return Err(format!(
                "page holds {} words, not {rows} entries of {per} words",
                page.words.len()
            ));
        }
        let mut node = Self::with_kind(match page.kind {
            PageKind::Leaf => NodeKind::Leaf {
                prev: link(page.prev)?,
                next: link(page.next)?,
            },
            PageKind::Interior => NodeKind::Interior {
                children: Vec::with_capacity(rows),
            },
        });
        node.block = CfBlock::with_capacity(dim, rows);
        let cf_words = Cf::words_per_entry(dim);
        for row in page.words.chunks_exact(per) {
            node.block.push_words(&row[..cf_words], dim);
            if let NodeKind::Interior { children } = &mut node.kind {
                children.push(id_of(row[cf_words], "child pointer")?);
            }
        }
        Ok(node)
    }

    /// Exact CF summary of this node: the sum of its rows.
    #[must_use]
    pub fn summary(&self, dim: usize) -> Cf {
        let mut cf = Cf::empty(dim);
        for i in 0..self.entry_count() {
            self.block.merge_row_into(i, &mut cf);
        }
        cf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn rows(n: &Node) -> Vec<Cf> {
        (0..n.entry_count()).map(|i| n.block().row_cf(i)).collect()
    }

    #[test]
    fn leaf_basics() {
        let mut n = Node::new_leaf();
        assert!(n.is_leaf());
        assert_eq!(n.entry_count(), 0);
        let cf = Cf::from_point(&Point::xy(1.0, 2.0));
        n.push_entry(&cf);
        assert_eq!(n.entry_count(), 1);
        assert_eq!(rows(&n), vec![cf]);
    }

    #[test]
    fn interior_basics() {
        let mut n = Node::new_interior();
        assert!(!n.is_leaf());
        n.push_child(&Cf::from_point(&Point::xy(0.0, 0.0)), NodeId(7));
        assert_eq!(n.entry_count(), 1);
        assert_eq!(n.children()[0], NodeId(7));
    }

    #[test]
    fn summary_sums_entries() {
        let mut n = Node::new_leaf();
        n.push_entry(&Cf::from_point(&Point::xy(1.0, 0.0)));
        n.push_entry(&Cf::from_point(&Point::xy(3.0, 4.0)));
        let s = n.summary(2);
        assert_eq!(s.n(), 2.0);
        // Centroid (2, 2) and Σ‖x − μ‖² = 10 for the points (1,0), (3,4).
        assert_eq!(s.centroid().coords(), &[2.0, 2.0]);
        assert!((s.sq_deviation() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn row_operations_move_child_ids_with_rows() {
        let cf = |x: f64| Cf::from_point(&Point::xy(x, 0.0));
        let mut n = Node::new_interior();
        for i in 0..3u32 {
            n.push_child(&cf(f64::from(i)), NodeId(i));
        }
        n.insert_child(1, &cf(7.0), NodeId(9));
        assert_eq!(n.children(), &[NodeId(0), NodeId(9), NodeId(1), NodeId(2)]);
        n.merge_into(0, &cf(1.0));
        assert_eq!(n.block().row_cf(0), cf(0.0).merged(&cf(1.0)));
        n.remove(1);
        assert_eq!(n.children(), &[NodeId(0), NodeId(1), NodeId(2)]);
        let g = n.gather(&[2, 0]);
        assert_eq!(g.children(), &[NodeId(2), NodeId(0)]);
        assert_eq!(rows(&g), vec![cf(2.0), cf(0.0).merged(&cf(1.0))]);
        let taken = n.take_rows();
        assert_eq!(n.entry_count(), 0);
        assert!(n.children().is_empty());
        n.replace_rows(g);
        n.append_rows(&taken);
        assert_eq!(
            n.children(),
            &[NodeId(2), NodeId(0), NodeId(0), NodeId(1), NodeId(2)]
        );
        assert_eq!(n.entry_count(), 5);
    }

    #[test]
    fn leaf_round_trips_through_page_words_bitwise() {
        let mut n = Node::new_leaf();
        n.push_entry(&Cf::from_points(&[
            Point::xy(1e8, 1e8 + 1e-3),
            Point::xy(1e8, 1e8),
        ]));
        n.push_entry(&Cf::from_point(&Point::xy(-3.5, 0.25)));
        if let NodeKind::Leaf { prev, next } = &mut n.kind {
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
        let back = Node::from_decoded_page(&decoded, 2).unwrap();
        assert_eq!(back.entry_count(), 2);
        // PartialEq compares every field, carries and the memo included.
        assert!(
            rows(&back) == rows(&n),
            "leaf CF changed across the page round-trip"
        );
        assert_eq!(back.block(), n.block());
        match (&back.kind, &n.kind) {
            (NodeKind::Leaf { prev: bp, next: bn }, NodeKind::Leaf { prev: ap, next: an }) => {
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
            n.push_child(
                &Cf::from_point(&Point::xy(f64::from(i) * 2.5, -f64::from(i))),
                NodeId(i * 7 + 1),
            );
        }
        let (kind, count, prev, next, words) = n.to_page_words();
        assert_eq!(kind, PageKind::Interior);
        assert_eq!(count, 3);
        let buf = birch_pager::encode_page(4096, kind, count, prev, next, &words).unwrap();
        let decoded =
            birch_pager::decode_page(&buf, Node::words_per_entry(PageKind::Interior, 2)).unwrap();
        let back = Node::from_decoded_page(&decoded, 2).unwrap();
        assert_eq!(back.entry_count(), 3);
        assert_eq!(back.children(), n.children());
        assert!(rows(&back) == rows(&n));
    }

    #[test]
    fn decoding_an_oversized_child_pointer_is_an_error() {
        let mut n = Node::new_interior();
        n.push_child(&Cf::from_point(&Point::xy(0.0, 0.0)), NodeId(3));
        let (kind, count, prev, next, mut words) = n.to_page_words();
        *words.last_mut().unwrap() = 1 << 40;
        let buf = birch_pager::encode_page(4096, kind, count, prev, next, &words).unwrap();
        let decoded = birch_pager::decode_page(&buf, Node::words_per_entry(kind, 2)).unwrap();
        let err = Node::from_decoded_page(&decoded, 2).unwrap_err();
        assert!(err.contains("child pointer"), "{err}");
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
        l.push_entry(&Cf::from_point(&Point::xy(0.0, 0.0)));
        assert_eq!(l.describe(), "n4 (leaf, 1 entries)");
    }

    #[test]
    #[should_panic(expected = "push_child on leaf node n9 (leaf, 0 entries)")]
    fn panic_message_names_the_node() {
        let mut n = Node::new_leaf();
        n.id = NodeId(9);
        n.push_child(&Cf::from_point(&Point::xy(0.0, 0.0)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "push_entry on interior node")]
    fn push_entry_on_interior_panics() {
        let mut n = Node::new_interior();
        n.push_entry(&Cf::from_point(&Point::xy(0.0, 0.0)));
    }
}
