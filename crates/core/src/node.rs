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
use birch_pager::{begin_page, seal_page, PageKind, PageView, NO_NEIGHBOR};

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
#[derive(Debug, Clone, PartialEq)]
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

    /// Appends this node to `out` as a tight page: the header, then one
    /// record per row written straight from the slab (the CF words, plus
    /// the child id for an interior node), then the CRC. The bytes are
    /// what [`birch_pager::encode_page`] returns at size
    /// `PAGE_HEADER_BYTES + 8 × words`. Leaf chain links map `None` to
    /// [`NO_NEIGHBOR`]; interior nodes carry no neighbours. Whatever `out`
    /// held before stays in front of the page.
    pub fn write_page(&self, out: &mut Vec<u8>) {
        let link = |l: &Option<NodeId>| l.map_or(NO_NEIGHBOR, |id| u64::from(id.0));
        let (kind, prev, next, children) = match &self.kind {
            NodeKind::Leaf { prev, next } => (PageKind::Leaf, link(prev), link(next), None),
            NodeKind::Interior { children } => {
                (PageKind::Interior, NO_NEIGHBOR, NO_NEIGHBOR, Some(children))
            }
        };
        let rows = self.entry_count();
        let record = 8 * Self::words_per_entry(kind, self.block.dim());
        let start = out.len();
        begin_page(out, kind, rows as u32, prev, next);
        let payload = out.len();
        out.resize(payload + rows * record, 0);
        self.block.write_records(&mut out[payload..], record);
        if let Some(children) = children {
            for (r, child) in out[payload..].chunks_exact_mut(record).zip(children) {
                r[record - 8..].copy_from_slice(&u64::from(child.0).to_le_bytes());
            }
        }
        seal_page(&mut out[start..]);
    }

    /// Replaces this node's rows and links or children with a verified
    /// page's, filling the slab straight from the page's payload. The
    /// node may have been of the other kind: its slab and child-id
    /// allocations are kept when they are large enough, so refilling a
    /// recycled node allocates nothing. The arena id is *not* stored on
    /// the page — the caller (the tree) stamps it. The `‖μ‖²` memos are
    /// recomputed under their exact contract, so the refilled node is
    /// bit-identical to the one written.
    ///
    /// Ids are only range-checked here; whether they name live nodes of
    /// the right kind is the tree's to check.
    ///
    /// # Errors
    ///
    /// A description of the defect when the payload is not the page's
    /// entry count times the entry width for `dim`, or a chain link or
    /// child pointer does not fit a node id. The node's contents are then
    /// unspecified.
    pub fn fill_from_page(&mut self, page: &PageView<'_>, dim: usize) -> Result<(), String> {
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
        let rows = page.count as usize;
        let per = Self::words_per_entry(page.kind, dim);
        if page.payload().len() != rows * per * 8 {
            return Err(format!(
                "page holds {} words, not {rows} entries of {per} words",
                page.payload().len() / 8
            ));
        }
        let mut children = match &mut self.kind {
            NodeKind::Interior { children } => std::mem::take(children),
            NodeKind::Leaf { .. } => Vec::new(),
        };
        self.kind = match page.kind {
            PageKind::Leaf => NodeKind::Leaf {
                prev: link(page.prev)?,
                next: link(page.next)?,
            },
            PageKind::Interior => {
                children.clear();
                children.reserve_exact(rows);
                NodeKind::Interior { children }
            }
        };
        self.block.fill_from_records(page.payload(), 8 * per, dim);
        if let NodeKind::Interior { children } = &mut self.kind {
            for r in page.payload().chunks_exact(8 * per) {
                let w = u64::from_le_bytes(r[8 * per - 8..].try_into().expect("8 bytes"));
                children.push(id_of(w, "child pointer")?);
            }
        }
        Ok(())
    }

    /// Releases the spare capacity of the slab and of an interior node's
    /// child ids.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.block.shrink_to_fit();
        if let NodeKind::Interior { children } = &mut self.kind {
            children.shrink_to_fit();
        }
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
    use birch_pager::PAGE_HEADER_BYTES;

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

    /// The reference form of a node's page: its rows' words (and child
    /// ids) handed to `encode_page` at the tight size.
    fn encode_page_tight(n: &Node) -> Vec<u8> {
        let mut words = Vec::new();
        for i in 0..n.entry_count() {
            n.block().row_cf(i).to_words(&mut words);
            if !n.is_leaf() {
                words.push(u64::from(n.children()[i].0));
            }
        }
        let (kind, prev, next) = match n.kind {
            NodeKind::Leaf { prev, next } => {
                let link = |l: Option<NodeId>| l.map_or(NO_NEIGHBOR, |id| u64::from(id.0));
                (PageKind::Leaf, link(prev), link(next))
            }
            NodeKind::Interior { .. } => (PageKind::Interior, NO_NEIGHBOR, NO_NEIGHBOR),
        };
        let tight = PAGE_HEADER_BYTES + 8 * words.len();
        let count = n.entry_count() as u32;
        birch_pager::encode_page(tight, kind, count, prev, next, &words).unwrap()
    }

    /// Decodes `page` into a fresh node, checking the borrowing decoder
    /// against the owning one on the way.
    fn read_page(page: &[u8], dim: usize) -> Result<Node, String> {
        let kind = birch_pager::peek_kind(page).unwrap();
        let per = Node::words_per_entry(kind, dim);
        let view = birch_pager::view_page(page, per).unwrap();
        let owned = birch_pager::decode_page(page, per).unwrap();
        assert_eq!(
            (view.kind, view.count, view.prev, view.next),
            (owned.kind, owned.count, owned.prev, owned.next)
        );
        assert_eq!(view.words().collect::<Vec<_>>(), owned.words);
        let mut node = Node::new_leaf();
        node.fill_from_page(&view, dim)?;
        Ok(node)
    }

    /// Rows, `‖μ‖²` memos (the slab's `PartialEq` covers them), links
    /// and children.
    fn same_node(a: &Node, b: &Node) -> bool {
        a.block() == b.block() && a.kind == b.kind
    }

    #[test]
    fn an_empty_leaf_equals_its_round_trip() {
        // A node that never held a row has no width yet; its page fixes
        // one. The blocks still compare equal: no rows, nothing differs.
        let mut n = Node::new_leaf();
        if let NodeKind::Leaf { prev, .. } = &mut n.kind {
            *prev = Some(NodeId(3));
        }
        let mut page = Vec::new();
        n.write_page(&mut page);
        let back = read_page(&page, 2).unwrap();
        assert_eq!((n.block().dim(), back.block().dim()), (0, 2));
        assert!(back.block() == n.block());
        assert!(same_node(&back, &n));
    }

    #[test]
    fn leaf_round_trips_through_its_page_bitwise() {
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
        let mut page = Vec::new();
        n.write_page(&mut page);
        assert_eq!(page, encode_page_tight(&n));
        let back = read_page(&page, 2).unwrap();
        assert_eq!(back.entry_count(), 2);
        // PartialEq compares every field, carries and the memo included.
        assert!(
            rows(&back) == rows(&n),
            "leaf CF changed across the page round-trip"
        );
        assert!(same_node(&back, &n));
    }

    #[test]
    fn interior_round_trips_through_its_page_bitwise() {
        let mut n = Node::new_interior();
        for i in 0..3u32 {
            n.push_child(
                &Cf::from_point(&Point::xy(f64::from(i) * 2.5, -f64::from(i))),
                NodeId(i * 7 + 1),
            );
        }
        let mut page = Vec::new();
        n.write_page(&mut page);
        assert_eq!(page, encode_page_tight(&n));
        let back = read_page(&page, 2).unwrap();
        assert_eq!(back.children(), n.children());
        assert!(rows(&back) == rows(&n));
        assert!(same_node(&back, &n));
    }

    #[test]
    fn decoding_an_oversized_child_pointer_is_an_error() {
        let mut words = Vec::new();
        Cf::from_point(&Point::xy(0.0, 0.0)).to_words(&mut words);
        words.push(1 << 40);
        let tight = PAGE_HEADER_BYTES + 8 * words.len();
        let page = birch_pager::encode_page(
            tight,
            PageKind::Interior,
            1,
            NO_NEIGHBOR,
            NO_NEIGHBOR,
            &words,
        )
        .unwrap();
        let err = read_page(&page, 2).unwrap_err();
        assert!(err.contains("child pointer"), "{err}");
    }

    #[test]
    fn a_payload_of_the_wrong_width_is_an_error() {
        let n = {
            let mut n = Node::new_leaf();
            n.push_entry(&Cf::from_point(&Point::xy(1.0, 2.0)));
            n
        };
        let mut page = Vec::new();
        n.write_page(&mut page);
        // Read as 3-d rows, the page's one 2-d row is too short.
        let view = birch_pager::view_page(&page, Node::words_per_entry(PageKind::Leaf, 2)).unwrap();
        let err = Node::new_leaf().fill_from_page(&view, 3).unwrap_err();
        assert!(err.contains("not 1 entries of 9 words"), "{err}");
    }

    /// A node of `rows` rows at `dim`, with values drawn from `seed`:
    /// weights above 1, a large offset so the means carry, and for an
    /// interior node child ids up to the arena's range.
    fn random_node(interior: bool, dim: usize, rows: usize, seed: u64) -> Node {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        let mut n = if interior {
            Node::new_interior()
        } else {
            Node::new_leaf()
        };
        for _ in 0..rows {
            let pts: Vec<Point> = (0..1 + (unit() * 4.0) as usize)
                .map(|_| Point::new((0..dim).map(|_| 1e8 + unit() * 10.0 - 5.0).collect()))
                .collect();
            let cf = Cf::from_points(&pts);
            if interior {
                let child = if unit() < 0.1 {
                    u32::MAX - 1
                } else {
                    (unit() * 1e4) as u32
                };
                n.push_child(&cf, NodeId(child));
            } else {
                n.push_entry(&cf);
            }
        }
        if let NodeKind::Leaf { prev, next } = &mut n.kind {
            *prev = (unit() < 0.7).then(|| NodeId((unit() * 1e4) as u32));
            *next = (unit() < 0.7).then_some(NodeId(u32::MAX - 1));
        }
        n
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(192))]

        /// The one codec: the tight encoder writes `encode_page`'s bytes,
        /// the borrowing decoder returns `decode_page`'s fields, and a
        /// recycled node of the other kind and a larger capacity refills
        /// to the node a fresh one decodes to — at every dimension class
        /// the kernels compile, from an empty node to one row past
        /// capacity.
        #[test]
        fn tight_pages_round_trip_through_fresh_and_recycled_nodes(
            dim in proptest::prelude::prop::sample::select(&[1usize, 2, 3, 4, 5, 16]),
            interior in proptest::prelude::prop::bool::ANY,
            pick in proptest::prelude::any::<u64>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let layout = birch_pager::PageLayout::new(1024, dim);
            let cap = if interior {
                layout.branching_factor()
            } else {
                layout.leaf_capacity()
            };
            let rows = (pick % (cap as u64 + 2)) as usize;
            let n = random_node(interior, dim, rows, seed);
            let mut page = vec![0xA5; 3];
            n.write_page(&mut page);
            let page = page.split_off(3);
            proptest::prop_assert_eq!(&page, &encode_page_tight(&n));

            let fresh = read_page(&page, dim).unwrap();
            proptest::prop_assert!(same_node(&fresh, &n));

            let mut recycled = random_node(!interior, dim, cap + 1, !seed);
            let held = recycled.block().heap_bytes();
            let kind = if interior { PageKind::Interior } else { PageKind::Leaf };
            let per = Node::words_per_entry(kind, dim);
            let view = birch_pager::view_page(&page, per).unwrap();
            recycled.fill_from_page(&view, dim).unwrap();
            proptest::prop_assert!(same_node(&recycled, &fresh));
            proptest::prop_assert_eq!(recycled.block().heap_bytes(), held);
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
