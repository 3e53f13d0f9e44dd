//! Full-tree invariant auditor: the machine-checked statement of what a
//! valid CF-tree *is*.
//!
//! The paper's correctness rests on structural invariants that the code
//! maintains incrementally across three mutation paths (serial insert,
//! rebuild, shard merge); this module re-derives every one of them from
//! scratch and compares. The checked invariants (numbered list with paper
//! citations and tolerances in DESIGN.md §7):
//!
//! 1. **Additivity** (§4.1): every interior `[CF, child]` entry equals the
//!    CF recomputed bottom-up from the child's subtree, and the tracked
//!    total CF equals the root's recomputed summary.
//! 2. **Branching bounds** (§4.2): interior nodes hold ≤ `B` children,
//!    leaves ≤ `L` entries, and (optionally) the live page count respects
//!    the budget `M/P`.
//! 3. **Leaf chain** (§4.2): the `prev`/`next` chain is a complete,
//!    acyclic, two-way-consistent traversal of exactly the leaves
//!    reachable from the root.
//! 4. **Threshold** (§4.2, §5.1): every leaf entry's diameter/radius
//!    satisfies the current threshold `T` — widened to the largest atomic
//!    multi-point input CF the tree has accepted as a standalone entry
//!    (weighted/CF input cannot be split, so such an entry may
//!    legitimately exceed `T`; see `CfTree::note_atomic_input`).
//! 5. **Bookkeeping**: uniform leaf depth equal to the recorded height,
//!    cached `leaf_entry_count` correct, arena ids consistent, free-list
//!    slots unreachable, and (optionally) end-to-end N conservation
//!    against the points actually fed.
//! 6. **Cached statistics**: every node row's memoized `‖μ‖²` matches a
//!    from-scratch `μ·μ` within tolerance (drift is additionally
//!    reported as the measurable [`AuditReport::norm_cache_drift`] —
//!    exactly `0` under the current refresh-by-recomputation policy). A
//!    node's rows ([`crate::distance::CfBlock`]) are its only copy of its
//!    CFs, so there is no second copy to compare them with.
//! 7. **Kernel agreement**: every node's row distances
//!    replayed through the production SIMD kernel ([`crate::simd`]) agree
//!    with the bit-exact scalar oracle within the tolerance contract
//!    [`crate::distance::SIMD_TOLERANCE_REL`] (worst case reported as
//!    [`AuditReport::simd_kernel_drift`]).
//! 8. **Prune-bound soundness**: the Phase 3 candidate lower bound
//!    ([`crate::distance::pair_lower_bound`]) never exceeds the true pair
//!    distance, replayed for every same-node CF pair under every D0–D4
//!    metric (tightest margin reported as
//!    [`AuditReport::prune_bound_margin`]).
//!
//! Floating-point drift between the incrementally maintained CFs and the
//! recomputed-from-scratch ones is reported as a *measurable*
//! ([`AuditReport::interior_drift`] / [`AuditReport::root_drift`]), not
//! just a pass/fail — BETULA (Lang & Schubert) shows naive `(N, LS, SS)`
//! arithmetic drifts, so we measure it instead of assuming it away. Drift
//! beyond the configured tolerance *is* a violation. The auditor also
//! recomputes the tree's total squared deviation in ~106-bit double-double
//! arithmetic ([`crate::quad`]) and reports the disagreement with the
//! CF's own f64 value as [`AuditReport::cancellation_drift`] —
//! the catastrophic-cancellation measurable (report-only; see the field
//! docs).
//!
//! The auditor runs in O(size of tree). It is wired into the test suites
//! and, behind the `strict-audit` cargo feature, after every mutating
//! tree operation (debug soak runs; see `CfTree::strict_audit`).

use crate::cf::Cf;
use crate::distance::CfBlock;
use crate::node::{Node, NodeId, NodeKind};
use crate::quad::Dd;
use crate::tree::CfTree;
use std::collections::HashSet;
use std::fmt;

/// Tolerances and optional cross-checks for one audit pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditOptions {
    /// Relative tolerance for CF component comparisons (stored vs
    /// recomputed): components `x`, `y` match when
    /// `|x − y| ≤ rel_tol · (1 + max(|x|, |y|))`.
    pub rel_tol: f64,
    /// Relative slack on the threshold test: a leaf entry passes when its
    /// statistic is `≤ T · (1 + threshold_rel_tol) + threshold_abs_tol`
    /// (the same slack the incremental insert uses, so an entry accepted
    /// by [`crate::distance::ThresholdKind::satisfies`] never fails the
    /// audit on round-off alone).
    pub threshold_rel_tol: f64,
    /// Absolute slack on the threshold test (covers `T = 0`).
    pub threshold_abs_tol: f64,
    /// When set, the live node (= page) count must not exceed this budget.
    pub max_pages: Option<usize>,
    /// When set, the tree's total CF weight must equal this value within
    /// `rel_tol` — end-to-end N conservation (points fed minus points
    /// resident elsewhere, e.g. the outlier store).
    pub expected_n: Option<f64>,
}

impl Default for AuditOptions {
    fn default() -> Self {
        Self {
            rel_tol: 1e-6,
            threshold_rel_tol: 1e-9,
            threshold_abs_tol: 1e-12,
            max_pages: None,
            expected_n: None,
        }
    }
}

/// Which invariant a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// An interior `[CF, child]` entry disagrees with the child subtree's
    /// recomputed CF beyond tolerance (Additivity, §4.1).
    ParentCfMismatch,
    /// The tracked total CF disagrees with the root's recomputed summary
    /// beyond tolerance.
    RootCfMismatch,
    /// The tracked total N disagrees with the caller-supplied expected
    /// value (end-to-end conservation).
    NConservation,
    /// A node holds more entries than `B` (interior) or `L` (leaf).
    NodeOverflow,
    /// An interior node holds no children.
    EmptyInterior,
    /// A leaf stores an empty CF entry.
    EmptyEntry,
    /// The live page count exceeds the supplied budget.
    PageBudgetExceeded,
    /// The leaf chain revisits a node (cycle).
    ChainCycle,
    /// A `prev`/`next` pointer is inconsistent, or the chain contains a
    /// non-leaf or starts off the head.
    ChainBroken,
    /// The chain does not visit exactly the leaves reachable from the
    /// root.
    ChainIncomplete,
    /// A leaf entry's diameter/radius exceeds the threshold `T`.
    ThresholdViolation,
    /// A leaf sits at a depth other than the recorded height.
    DepthMismatch,
    /// A node is reachable from the root along two paths.
    NodeRevisited,
    /// A free-list slot is reachable from the root.
    FreeNodeReachable,
    /// The cached `leaf_entry_count` disagrees with the actual count.
    CountMismatch,
    /// A node's stamped arena id disagrees with its slot.
    IdMismatch,
    /// A CF's memoized `‖μ‖²` disagrees with a from-scratch `μ·μ`
    /// beyond tolerance.
    NormCacheMismatch,
    /// The lane (SIMD) distance kernel disagrees with the scalar oracle
    /// beyond [`crate::distance::SIMD_TOLERANCE_REL`] on a node's rows.
    SimdKernelMismatch,
    /// [`crate::distance::pair_lower_bound`] exceeded the true pair
    /// distance — the Phase 3 candidate prune could discard a winner.
    PruneBoundUnsound,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ViolationKind::ParentCfMismatch => "parent CF mismatch",
            ViolationKind::RootCfMismatch => "root CF mismatch",
            ViolationKind::NConservation => "N conservation failure",
            ViolationKind::NodeOverflow => "node overflow",
            ViolationKind::EmptyInterior => "empty interior node",
            ViolationKind::EmptyEntry => "empty leaf entry",
            ViolationKind::PageBudgetExceeded => "page budget exceeded",
            ViolationKind::ChainCycle => "leaf chain cycle",
            ViolationKind::ChainBroken => "leaf chain broken",
            ViolationKind::ChainIncomplete => "leaf chain incomplete",
            ViolationKind::ThresholdViolation => "threshold violation",
            ViolationKind::DepthMismatch => "leaf depth mismatch",
            ViolationKind::NodeRevisited => "node reachable twice",
            ViolationKind::FreeNodeReachable => "free node reachable",
            ViolationKind::CountMismatch => "leaf entry count mismatch",
            ViolationKind::IdMismatch => "arena id mismatch",
            ViolationKind::NormCacheMismatch => "norm cache mismatch",
            ViolationKind::SimdKernelMismatch => "simd kernel mismatch",
            ViolationKind::PruneBoundUnsound => "prune bound unsound",
        };
        f.write_str(name)
    }
}

/// One invariant violation: which invariant, where, and the evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditViolation {
    /// The broken invariant.
    pub kind: ViolationKind,
    /// The offending node, when the violation is local to one.
    pub node: Option<NodeId>,
    /// Human-readable evidence (values, bounds, indices).
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(id) => write!(f, "{} at {:?}: {}", self.kind, id, self.detail),
            None => write!(f, "{}: {}", self.kind, self.detail),
        }
    }
}

impl std::error::Error for AuditViolation {}

/// Maximum relative floating-point drift observed between incrementally
/// maintained CFs and CFs recomputed from scratch, per component.
///
/// Relative drift of components `x` (stored) and `y` (recomputed) is
/// `|x − y| / (1 + max(|x|, |y|))`; for the vector statistic the worst
/// coordinate counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Drift {
    /// Drift in the point count `N`.
    pub n: f64,
    /// Worst-coordinate drift in the mean μ.
    pub vec: f64,
    /// Drift in the deviation sum `SSE`.
    pub scalar: f64,
}

impl Drift {
    fn component(x: f64, y: f64) -> f64 {
        (x - y).abs() / (1.0 + x.abs().max(y.abs()))
    }

    /// Folds the drift between `stored` and `recomputed` into `self`.
    fn observe(&mut self, stored: &Cf, recomputed: &Cf) {
        self.observe_stats(stored.n(), stored.sse(), stored.mean(), recomputed);
    }

    /// [`Drift::observe`] with the stored CF given as `(N, SSE, μ)`: row
    /// `i` of a block compares without a copy.
    fn observe_row(&mut self, block: &CfBlock, i: usize, recomputed: &Cf) {
        self.observe_stats(
            block.row_n(i),
            block.row_scalar(i),
            block.row_vec(i),
            recomputed,
        );
    }

    fn observe_stats(&mut self, n: f64, sse: f64, mean: &[f64], recomputed: &Cf) {
        self.n = self.n.max(Self::component(n, recomputed.n()));
        self.scalar = self.scalar.max(Self::component(sse, recomputed.sse()));
        for (&x, &y) in mean.iter().zip(recomputed.mean()) {
            self.vec = self.vec.max(Self::component(x, y));
        }
    }

    /// The worst drift across all components.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.n.max(self.vec).max(self.scalar)
    }
}

/// Everything a successful audit measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Live nodes reachable from the root (= pages in use).
    pub nodes: usize,
    /// Leaf nodes among them.
    pub leaves: usize,
    /// CF entries across all leaves.
    pub leaf_entries: usize,
    /// Tree height (1 = the root is a leaf).
    pub height: usize,
    /// Worst drift between any interior `[CF, child]` entry and the
    /// child subtree's recomputed CF — the accumulated incremental
    /// round-off of the insert/split/merge arithmetic.
    pub interior_drift: Drift,
    /// Drift between the tracked total CF and the root's recomputed
    /// summary (end-to-end accumulation over the whole run).
    pub root_drift: Drift,
    /// Worst relative drift between any CF's memoized `‖μ‖²` and a
    /// from-scratch `μ·μ` dot product. The cache is refreshed by exact
    /// recomputation after every `μ` mutation, so this is `0` unless the
    /// refresh policy regresses — the measurable exists to catch exactly
    /// that.
    pub norm_cache_drift: f64,
    /// Relative disagreement between the tree's total squared deviation
    /// as the CF computes it in `f64` and the same statistic recomputed
    /// from the leaf-entry statistics in ~106-bit double-double
    /// arithmetic ([`crate::quad`]).
    ///
    /// This is the catastrophic-cancellation measurable. The paper's
    /// `(N, LS, SS)` triple evaluates `SS − ‖LS‖²/N`, which collapses for
    /// tight clusters far from the origin (the `cf_stability` bench's
    /// foil shows its error reaching `1.0`, the statistic clamped to exact
    /// `0`). The `(N, μ, SSE)` CF reads the deviation sum directly and
    /// stays at round-off level regardless of offset. Report-only: it
    /// never fails the audit.
    pub cancellation_drift: f64,
    /// Worst relative disagreement between the lane (SIMD) row-distance
    /// kernel and the bit-exact scalar oracle across every node's rows,
    /// probed with the tree's own metric. Exactly `0` at dim ≤ 4 (where
    /// the lane kernel is the scalar loop, bit for bit);
    /// above that, disagreement beyond
    /// [`crate::distance::SIMD_TOLERANCE_REL`] *is* a violation
    /// ([`ViolationKind::SimdKernelMismatch`]) — the tolerance contract,
    /// machine-enforced on real trees rather than just test fixtures.
    pub simd_kernel_drift: f64,
    /// Tightest observed safety margin of the Phase 3 candidate prune:
    /// the minimum of `distance − pair_lower_bound` over every same-node
    /// CF pair under every D0–D4 metric (`None` when no node holds two
    /// entries). A negative margin means the bound overshot a real
    /// distance — the prune would skip a true winner — and is a violation
    /// ([`ViolationKind::PruneBoundUnsound`]); the measurable exists so
    /// bound-tightening work can see how much headroom is left.
    pub prune_bound_margin: Option<f64>,
}

/// Audits `tree` with default [`AuditOptions`].
///
/// # Errors
///
/// Returns the first [`AuditViolation`] found.
pub fn audit(tree: &CfTree) -> Result<AuditReport, AuditViolation> {
    audit_with(tree, &AuditOptions::default())
}

/// Audits `tree` against `opts`, verifying every invariant in the module
/// docs and measuring floating-point drift.
///
/// # Errors
///
/// Returns the first [`AuditViolation`] found.
pub fn audit_with(tree: &CfTree, opts: &AuditOptions) -> Result<AuditReport, AuditViolation> {
    let mut report = AuditReport {
        height: tree.height,
        ..AuditReport::default()
    };
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut dfs_leaves: Vec<NodeId> = Vec::new();

    // ---- Structural DFS: depth, bounds, ids, threshold, Additivity. ----
    let root_cf = check_subtree(
        tree,
        tree.root,
        1,
        opts,
        &mut seen,
        &mut dfs_leaves,
        &mut report,
    )?;

    report.nodes = seen.len();
    report.leaves = dfs_leaves.len();

    // ---- Free list: no reachable node may sit on it. ----
    for &id in &tree.free {
        if seen.contains(&id) {
            return Err(AuditViolation {
                kind: ViolationKind::FreeNodeReachable,
                node: Some(id),
                detail: format!("{id:?} is on the free list but reachable from the root"),
            });
        }
    }

    // ---- Page budget. ----
    if let Some(budget) = opts.max_pages {
        if report.nodes > budget {
            return Err(AuditViolation {
                kind: ViolationKind::PageBudgetExceeded,
                node: None,
                detail: format!("{} live pages > budget {budget}", report.nodes),
            });
        }
    }

    // ---- Leaf chain: complete, acyclic, two-way consistent. ----
    check_chain(tree, &dfs_leaves)?;

    // ---- Cached counts. ----
    if report.leaf_entries != tree.leaf_entry_count {
        return Err(AuditViolation {
            kind: ViolationKind::CountMismatch,
            node: None,
            detail: format!(
                "cached leaf_entry_count {} != counted {}",
                tree.leaf_entry_count, report.leaf_entries
            ),
        });
    }

    // ---- Root Additivity: tracked total vs recomputed-from-scratch. ----
    if tree.leaf_entry_count > 0 {
        report.root_drift.observe(&tree.total, &root_cf);
        if report.root_drift.max() > opts.rel_tol {
            return Err(AuditViolation {
                kind: ViolationKind::RootCfMismatch,
                node: Some(tree.root),
                detail: format!(
                    "tracked total {:?} vs recomputed root {root_cf:?} (drift {:.3e})",
                    tree.total,
                    report.root_drift.max()
                ),
            });
        }
    }

    // ---- End-to-end N conservation. ----
    if let Some(expected) = opts.expected_n {
        let got = tree.total.n();
        if (got - expected).abs() > opts.rel_tol * (1.0 + expected.abs()) {
            return Err(AuditViolation {
                kind: ViolationKind::NConservation,
                node: None,
                detail: format!("tree holds N = {got}, expected {expected}"),
            });
        }
    }

    // ---- Cancellation drift (report-only measurable). ----
    report.cancellation_drift = measure_cancellation_drift(tree);

    Ok(report)
}

/// Leaf row `i`'s `(N, centroid, internal squared deviation)` with the
/// last two promoted to double-double: the mean (carry folded in,
/// exactly) and the deviation sum read directly.
fn dd_entry_stats(block: &CfBlock, i: usize) -> (f64, Vec<Dd>, Dd) {
    let c: Vec<Dd> = block
        .row_vec(i)
        .iter()
        .zip(block.row_vec_c(i))
        .map(|(&m, &e)| Dd::from_f64(m).add_f64(e))
        .collect();
    (block.row_n(i), c, Dd::from_f64(block.row_scalar(i)))
}

/// Recomputes the tree's total squared deviation from its leaf-entry
/// statistics in double-double arithmetic and returns the relative
/// disagreement with the CF's own f64 evaluation
/// ([`AuditReport::cancellation_drift`]).
///
/// Decomposition: with per-entry weight `nᵢ`, centroid `cᵢ` and internal
/// deviation `sᵢ`, the total deviation around the grand mean
/// `M = Σnᵢcᵢ/Σnᵢ` is `Σsᵢ + Σnᵢ·‖cᵢ − M‖²`. Every term is evaluated in
/// [`Dd`] (~32 significant digits), so the reference sits far below any
/// cancellation an f64 backend can exhibit.
fn measure_cancellation_drift(tree: &CfTree) -> f64 {
    let total = tree.total_cf();
    if total.is_empty() {
        return 0.0;
    }
    let dim = total.dim();
    let mut n_sum = Dd::ZERO;
    let mut weighted = vec![Dd::ZERO; dim];
    let mut inner = Dd::ZERO;
    let mut parts: Vec<(f64, Vec<Dd>)> = Vec::new();
    for id in tree.leaf_ids() {
        let block = tree.node(id).block();
        for i in 0..block.len() {
            let (n, c, s) = dd_entry_stats(block, i);
            n_sum = n_sum.add_f64(n);
            for (w, ci) in weighted.iter_mut().zip(&c) {
                *w = *w + ci.mul_f64(n);
            }
            inner = inner + s;
            parts.push((n, c));
        }
    }
    let nf = n_sum.to_f64();
    if nf <= 0.0 {
        return 0.0;
    }
    let mean: Vec<Dd> = weighted.iter().map(|w| w.div_f64(nf)).collect();
    let mut between = Dd::ZERO;
    for (n, c) in &parts {
        for (ci, mi) in c.iter().zip(&mean) {
            let d = *ci - *mi;
            between = between + (d * d).mul_f64(*n);
        }
    }
    let reference = (inner + between).to_f64().max(0.0);
    Drift::component(total.sq_deviation(), reference)
}

/// Replays every row distance of a node's rows through both the
/// production lane kernel and the bit-exact scalar oracle, folding the
/// worst relative disagreement into
/// [`AuditReport::simd_kernel_drift`] and failing beyond
/// [`crate::distance::SIMD_TOLERANCE_REL`]. The probe is a copy of the
/// node's own first entry — the same shape (`Cf` vs block row) the
/// descend path evaluates.
fn check_simd_kernel(
    node: &Node,
    id: NodeId,
    metric: crate::distance::DistanceMetric,
    report: &mut AuditReport,
) -> Result<(), AuditViolation> {
    let block = node.block();
    if block.is_empty() {
        return Ok(());
    }
    let probe = block.row_cf(0);
    for i in 0..block.len() {
        let lane = crate::simd::distance_to_row(metric, &probe, block, i);
        let scalar = crate::distance::distance_to_row(metric, &probe, block, i);
        let drift = (lane - scalar).abs() / scalar.abs().max(1.0);
        report.simd_kernel_drift = report.simd_kernel_drift.max(drift);
        if drift > crate::distance::SIMD_TOLERANCE_REL {
            return Err(AuditViolation {
                kind: ViolationKind::SimdKernelMismatch,
                node: Some(id),
                detail: format!(
                    "row {i}: lane {metric} distance {lane} vs scalar {scalar} \
                     (drift {drift:.3e} > contract {:.0e})",
                    crate::distance::SIMD_TOLERANCE_REL
                ),
            });
        }
    }
    Ok(())
}

/// Replays [`crate::distance::pair_lower_bound`] against the true
/// [`crate::distance::pair_in_block`] distance for every row pair of a
/// node, under every D0–D4 metric (the Phase 3 agglomerator
/// may be configured with any of them). The bound must never exceed the
/// distance — that is the whole soundness contract of the NN-chain
/// candidate prune — and the tightest margin is folded into
/// [`AuditReport::prune_bound_margin`].
fn check_prune_bounds(
    node: &Node,
    id: NodeId,
    report: &mut AuditReport,
) -> Result<(), AuditViolation> {
    let block = node.block();
    for metric in crate::distance::DistanceMetric::ALL {
        for i in 0..block.len() {
            for j in (i + 1)..block.len() {
                let bound = crate::distance::pair_lower_bound(metric, block, i, j);
                let dist = crate::distance::pair_in_block(metric, block, i, j);
                let margin = dist - bound;
                report.prune_bound_margin = Some(match report.prune_bound_margin {
                    Some(m) => m.min(margin),
                    None => margin,
                });
                if bound > dist {
                    return Err(AuditViolation {
                        kind: ViolationKind::PruneBoundUnsound,
                        node: Some(id),
                        detail: format!(
                            "rows ({i},{j}): {metric} lower bound {bound} exceeds \
                             true distance {dist}"
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Measures the drift between every row's memoized `‖μ‖²` and a
/// from-scratch `μ·μ`, folding it into the report and failing beyond
/// tolerance.
fn check_norm_cache(
    node: &Node,
    id: NodeId,
    opts: &AuditOptions,
    report: &mut AuditReport,
) -> Result<(), AuditViolation> {
    let block = node.block();
    for i in 0..block.len() {
        let recomputed: f64 = block.row_vec(i).iter().map(|x| x * x).sum();
        let drift = Drift::component(block.row_vec_sq(i), recomputed);
        report.norm_cache_drift = report.norm_cache_drift.max(drift);
        if drift > opts.rel_tol {
            return Err(AuditViolation {
                kind: ViolationKind::NormCacheMismatch,
                node: Some(id),
                detail: format!(
                    "row {i} caches ‖μ‖² = {} but a from-scratch dot product \
                     recomputes to {recomputed} (drift {drift:.3e})",
                    block.row_vec_sq(i)
                ),
            });
        }
    }
    Ok(())
}

/// Recursively audits the subtree at `id`, returning its
/// recomputed-from-scratch CF.
fn check_subtree(
    tree: &CfTree,
    id: NodeId,
    depth: usize,
    opts: &AuditOptions,
    seen: &mut HashSet<NodeId>,
    dfs_leaves: &mut Vec<NodeId>,
    report: &mut AuditReport,
) -> Result<Cf, AuditViolation> {
    if !seen.insert(id) {
        return Err(AuditViolation {
            kind: ViolationKind::NodeRevisited,
            node: Some(id),
            detail: format!("{id:?} reachable along two paths"),
        });
    }
    let node = tree.node(id);
    if node.id() != id {
        return Err(AuditViolation {
            kind: ViolationKind::IdMismatch,
            node: Some(id),
            detail: format!("arena slot {id:?} holds a node stamped {:?}", node.id()),
        });
    }
    // Before the threshold test: the statistic reads the same rows, so a
    // poisoned cache must be reported as a cache failure, not a threshold
    // one.
    check_norm_cache(node, id, opts, report)?;
    check_simd_kernel(node, id, tree.params.metric, report)?;
    check_prune_bounds(node, id, report)?;
    let block = node.block();
    match &node.kind {
        NodeKind::Leaf { .. } => {
            if depth != tree.height {
                return Err(AuditViolation {
                    kind: ViolationKind::DepthMismatch,
                    node: Some(id),
                    detail: format!("leaf at depth {depth}, recorded height {}", tree.height),
                });
            }
            if block.len() > tree.params.leaf_capacity {
                return Err(AuditViolation {
                    kind: ViolationKind::NodeOverflow,
                    node: Some(id),
                    detail: format!(
                        "leaf holds {} entries > L = {}",
                        block.len(),
                        tree.params.leaf_capacity
                    ),
                });
            }
            let mut cf = Cf::empty(tree.params.dim);
            let t = tree.params.threshold;
            // An entry must satisfy T unless it descends from an atomic
            // multi-point input CF (which the tree cannot split and so
            // accepts unconditionally); the tree records the worst such
            // input statistic and the check widens to it.
            let bound = t.max(tree.max_input_stat);
            let limit = bound * (1.0 + opts.threshold_rel_tol) + opts.threshold_abs_tol;
            for i in 0..block.len() {
                if block.row_n(i) == 0.0 {
                    return Err(AuditViolation {
                        kind: ViolationKind::EmptyEntry,
                        node: Some(id),
                        detail: format!("entry {i} is empty"),
                    });
                }
                let stat = tree.params.threshold_kind.row_statistic(block, i);
                if block.row_n(i) > 1.0 && stat > limit {
                    return Err(AuditViolation {
                        kind: ViolationKind::ThresholdViolation,
                        node: Some(id),
                        detail: format!(
                            "entry {i} has {:?} {stat} > max(T = {t}, atomic input {}) \
                             (+{:.0e} rel slack)",
                            tree.params.threshold_kind, tree.max_input_stat, opts.threshold_rel_tol
                        ),
                    });
                }
                block.merge_row_into(i, &mut cf);
            }
            report.leaf_entries += block.len();
            dfs_leaves.push(id);
            Ok(cf)
        }
        NodeKind::Interior { children } => {
            if children.is_empty() {
                return Err(AuditViolation {
                    kind: ViolationKind::EmptyInterior,
                    node: Some(id),
                    detail: "interior node with no children".to_string(),
                });
            }
            if children.len() > tree.params.branching {
                return Err(AuditViolation {
                    kind: ViolationKind::NodeOverflow,
                    node: Some(id),
                    detail: format!(
                        "interior holds {} children > B = {}",
                        children.len(),
                        tree.params.branching
                    ),
                });
            }
            let mut cf = Cf::empty(tree.params.dim);
            for (i, &child) in children.iter().enumerate() {
                let child_cf =
                    check_subtree(tree, child, depth + 1, opts, seen, dfs_leaves, report)?;
                let mut drift = Drift::default();
                drift.observe_row(block, i, &child_cf);
                report.interior_drift.observe_row(block, i, &child_cf);
                if drift.max() > opts.rel_tol {
                    return Err(AuditViolation {
                        kind: ViolationKind::ParentCfMismatch,
                        node: Some(id),
                        detail: format!(
                            "entry {i} stores {:?} but child {child:?} recomputes to \
                             {child_cf:?} (drift {:.3e})",
                            block.row_cf(i),
                            drift.max()
                        ),
                    });
                }
                cf.merge(&child_cf);
            }
            Ok(cf)
        }
    }
}

/// Verifies the leaf chain is an acyclic, two-way-consistent traversal of
/// exactly `dfs_leaves` (as a set; order may legitimately differ from DFS
/// order after interior splits redistribute children by proximity).
fn check_chain(tree: &CfTree, dfs_leaves: &[NodeId]) -> Result<(), AuditViolation> {
    let mut chain: Vec<NodeId> = Vec::with_capacity(dfs_leaves.len());
    let mut visited: HashSet<NodeId> = HashSet::new();
    let mut prev: Option<NodeId> = None;
    let mut cur = Some(tree.first_leaf);
    while let Some(id) = cur {
        if !visited.insert(id) {
            return Err(AuditViolation {
                kind: ViolationKind::ChainCycle,
                node: Some(id),
                detail: format!("chain revisits {id:?} after {} hops", chain.len()),
            });
        }
        let (p, n) = match tree.node(id).kind {
            NodeKind::Leaf { prev, next } => (prev, next),
            NodeKind::Interior { .. } => {
                return Err(AuditViolation {
                    kind: ViolationKind::ChainBroken,
                    node: Some(id),
                    detail: format!("chain reaches interior node {id:?}"),
                });
            }
        };
        if p != prev {
            return Err(AuditViolation {
                kind: ViolationKind::ChainBroken,
                node: Some(id),
                detail: format!("prev pointer {p:?} but predecessor in chain is {prev:?}"),
            });
        }
        chain.push(id);
        prev = Some(id);
        cur = n;
    }

    if chain.len() != dfs_leaves.len() || !dfs_leaves.iter().all(|id| visited.contains(id)) {
        let missing: Vec<NodeId> = dfs_leaves
            .iter()
            .filter(|id| !visited.contains(id))
            .copied()
            .collect();
        let extra: Vec<NodeId> = chain
            .iter()
            .filter(|id| !dfs_leaves.contains(id))
            .copied()
            .collect();
        return Err(AuditViolation {
            kind: ViolationKind::ChainIncomplete,
            node: None,
            detail: format!(
                "chain visits {} leaves, DFS finds {}; unreached {missing:?}, stray {extra:?}",
                chain.len(),
                dfs_leaves.len()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{DistanceMetric, ThresholdKind};
    use crate::node::NodeKind;
    use crate::point::Point;
    use crate::tree::TreeParams;

    fn params(threshold: f64) -> TreeParams {
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

    /// A multi-level tree with several leaves, for corrupting.
    fn grown_tree() -> CfTree {
        let mut t = CfTree::new(params(0.5));
        for i in 0..60 {
            let i = f64::from(i);
            t.insert_point(&Point::xy(
                (i * 3.7).rem_euclid(40.0),
                (i * 1.9).rem_euclid(40.0),
            ));
        }
        assert!(t.height() >= 2, "need a multi-level tree to corrupt");
        audit(&t).unwrap();
        t
    }

    fn first_interior_with_child(t: &CfTree) -> NodeId {
        // The root of a multi-level tree is interior.
        t.root
    }

    #[test]
    fn clean_tree_reports_structure() {
        let t = grown_tree();
        let r = audit(&t).unwrap();
        assert_eq!(r.leaf_entries, t.leaf_entry_count());
        assert_eq!(r.height, t.height());
        assert!(r.leaves >= 2);
        assert!(r.nodes >= r.leaves);
        // Incremental maintenance drifts, but far below tolerance here.
        assert!(r.interior_drift.max() <= 1e-9, "{:?}", r.interior_drift);
        assert!(r.root_drift.max() <= 1e-9, "{:?}", r.root_drift);
        // Well-conditioned data: the CF agrees with the double-double
        // reference.
        assert!(r.cancellation_drift <= 1e-9, "{}", r.cancellation_drift);
    }

    /// Tight clusters (dyadic spread ≈ 1e-3) translated to `offset`. At
    /// offset 1e8 the paper's (N, LS, SS) statistics would collapse.
    fn offset_tree(offset: f64) -> CfTree {
        let mut t = CfTree::new(params(0.5));
        const S: f64 = 9.765_625e-4; // 2⁻¹⁰, an exact multiple of ulp(1e8)
        for c in 0..6 {
            let base = offset + f64::from(c) * 8.0;
            for i in 0..10 {
                let d = f64::from(i % 3) * S;
                let e = f64::from(i % 4) * S;
                t.insert_point(&Point::xy(base + d, base - e));
            }
        }
        t
    }

    #[test]
    fn cancellation_drift_stays_flat_for_stable_at_large_offset() {
        let near = audit(&offset_tree(0.0)).unwrap();
        assert!(
            near.cancellation_drift <= 1e-9,
            "{}",
            near.cancellation_drift
        );
        let far = audit(&offset_tree(1e8)).unwrap();
        assert!(
            far.cancellation_drift <= 1e-9,
            "CF drifted: {}",
            far.cancellation_drift
        );
    }

    #[test]
    fn cancellation_drift_reports_a_total_that_disagrees_with_its_leaves() {
        // Push the tracked total's SSE 1% off the leaf entries it sums.
        // A loose rel_tol lets the root Additivity check pass, so the
        // disagreement reaches the report-only measurable.
        let mut t = grown_tree();
        let sse = t.total.sse();
        t.total.corrupt_sse_for_test(0.01 * sse);
        let loose = AuditOptions {
            rel_tol: 1.0,
            ..AuditOptions::default()
        };
        let r = audit_with(&t, &loose).unwrap();
        assert!(r.cancellation_drift > 1e-3, "{}", r.cancellation_drift);
    }

    #[test]
    fn empty_tree_audits_clean() {
        let t = CfTree::new(params(1.0));
        let r = audit(&t).unwrap();
        assert_eq!(r.nodes, 1);
        assert_eq!(r.leaf_entries, 0);
    }

    // ---- Seeded corruptions: the auditor self-test. Each corruption is
    // crafted to break exactly one invariant so the reported kind is
    // deterministic. ----

    #[test]
    fn detects_bad_parent_cf() {
        let mut t = grown_tree();
        let nid = first_interior_with_child(&t);
        // Only Additivity breaks: the tracked total stays consistent
        // because the recomputed root is built from leaves, which are
        // untouched.
        let bump = Cf::from_point(&Point::xy(1e6, -1e6));
        t.nodes[nid.index()].block_mut().merge_into_row(0, &bump);
        let v = audit(&t).unwrap_err();
        assert_eq!(v.kind, ViolationKind::ParentCfMismatch, "{v}");
        assert_eq!(v.node, Some(nid));
    }

    #[test]
    fn detects_broken_leaf_chain_prev() {
        let mut t = grown_tree();
        // Corrupt the second leaf's prev pointer.
        let second = t.leaf_ids().nth(1).expect("at least two leaves");
        if let NodeKind::Leaf { prev, .. } = &mut t.nodes[second.index()].kind {
            *prev = None;
        }
        let v = audit(&t).unwrap_err();
        assert_eq!(v.kind, ViolationKind::ChainBroken, "{v}");
        assert_eq!(v.node, Some(second));
    }

    #[test]
    fn detects_leaf_chain_cycle() {
        let mut t = grown_tree();
        let head = t.first_leaf;
        let second = t.leaf_ids().nth(1).expect("at least two leaves");
        // Point the second leaf back at the head: a 2-cycle. Fix the
        // head's prev so the cycle is the first inconsistency met.
        if let NodeKind::Leaf { next, .. } = &mut t.nodes[second.index()].kind {
            *next = Some(head);
        }
        let v = audit(&t).unwrap_err();
        assert!(
            matches!(
                v.kind,
                ViolationKind::ChainCycle | ViolationKind::ChainBroken
            ),
            "{v}"
        );
    }

    #[test]
    fn detects_chain_missing_a_leaf() {
        let mut t = grown_tree();
        // Splice the second leaf out of the chain (next skips it) without
        // touching the tree structure: the spliced-out leaf stays
        // reachable from the root, so the chain is incomplete.
        let leaves: Vec<NodeId> = t.leaf_ids().collect();
        assert!(leaves.len() >= 3, "need >= 3 leaves to splice");
        let (a, b, c) = (leaves[0], leaves[1], leaves[2]);
        if let NodeKind::Leaf { next, .. } = &mut t.nodes[a.index()].kind {
            *next = Some(c);
        }
        if let NodeKind::Leaf { prev, .. } = &mut t.nodes[c.index()].kind {
            *prev = Some(a);
        }
        let v = audit(&t).unwrap_err();
        assert_eq!(v.kind, ViolationKind::ChainIncomplete, "{v}");
        assert!(v.detail.contains(&format!("{b:?}")), "{v}");
    }

    #[test]
    fn detects_oversize_node() {
        let mut t = grown_tree();
        // Shrink the recorded capacity under a leaf that is fuller: pure
        // bounds violation, no CF touched.
        let fullest = t
            .leaf_ids()
            .max_by_key(|&id| t.node(id).entry_count())
            .unwrap();
        let n = t.node(fullest).entry_count();
        assert!(n >= 2);
        t.params.leaf_capacity = n - 1;
        let v = audit(&t).unwrap_err();
        assert_eq!(v.kind, ViolationKind::NodeOverflow, "{v}");
    }

    #[test]
    fn detects_threshold_violation() {
        let mut t = grown_tree();
        // The scattered fixture points all live in single-point entries
        // (statistic 0), so plant a close pair that absorbs into one
        // multi-point entry with a nonzero diameter.
        t.insert_point(&Point::xy(200.0, 200.0));
        t.insert_point(&Point::xy(200.1, 200.1));
        audit(&t).unwrap();
        // Lower T below what the existing entries were built under.
        let worst = t
            .leaf_entries()
            .filter(|e| e.n() > 1.0)
            .map(|e| t.params.threshold_kind.statistic(&e))
            .fold(0.0f64, f64::max);
        assert!(worst > 0.0, "need a multi-point entry");
        t.params.threshold = worst / 2.0;
        let v = audit(&t).unwrap_err();
        assert_eq!(v.kind, ViolationKind::ThresholdViolation, "{v}");
    }

    #[test]
    fn detects_total_cf_drift() {
        let mut t = grown_tree();
        t.total.merge(&Cf::from_point(&Point::xy(0.0, 0.0)));
        let v = audit(&t).unwrap_err();
        assert_eq!(v.kind, ViolationKind::RootCfMismatch, "{v}");
    }

    #[test]
    fn detects_page_budget_excess() {
        let t = grown_tree();
        let opts = AuditOptions {
            max_pages: Some(t.node_count() - 1),
            ..AuditOptions::default()
        };
        let v = audit_with(&t, &opts).unwrap_err();
        assert_eq!(v.kind, ViolationKind::PageBudgetExceeded, "{v}");
        let ok = AuditOptions {
            max_pages: Some(t.node_count()),
            ..AuditOptions::default()
        };
        audit_with(&t, &ok).unwrap();
    }

    #[test]
    fn detects_n_conservation_failure() {
        let t = grown_tree();
        let opts = AuditOptions {
            expected_n: Some(t.total_cf().n() + 5.0),
            ..AuditOptions::default()
        };
        let v = audit_with(&t, &opts).unwrap_err();
        assert_eq!(v.kind, ViolationKind::NConservation, "{v}");
        let ok = AuditOptions {
            expected_n: Some(t.total_cf().n()),
            ..AuditOptions::default()
        };
        audit_with(&t, &ok).unwrap();
    }

    #[test]
    fn detects_cached_count_mismatch() {
        let mut t = grown_tree();
        t.leaf_entry_count += 1;
        let v = audit(&t).unwrap_err();
        assert_eq!(v.kind, ViolationKind::CountMismatch, "{v}");
    }

    #[test]
    fn detects_norm_cache_mismatch() {
        let mut t = grown_tree();
        let leaf = t.first_leaf;
        t.nodes[leaf.index()]
            .block_mut()
            .corrupt_norm_memo_for_test(0, 0.5);
        let v = audit(&t).unwrap_err();
        assert_eq!(v.kind, ViolationKind::NormCacheMismatch, "{v}");
        assert_eq!(v.node, Some(leaf));
    }

    #[test]
    fn norm_cache_drift_is_exactly_zero() {
        // The refresh-by-recomputation policy promises a bit-exact cache;
        // the measurable must read 0, not merely "within tolerance".
        let t = grown_tree();
        let r = audit(&t).unwrap();
        assert_eq!(r.norm_cache_drift, 0.0);
    }

    #[test]
    fn simd_kernel_drift_is_zero_at_dim_2() {
        // dim ≤ 4 dispatches to the serial specializations, which are the
        // scalar loop bit for bit — so the measurable must read exactly 0.
        let t = grown_tree();
        let r = audit(&t).unwrap();
        assert_eq!(r.simd_kernel_drift, 0.0);
    }

    #[test]
    fn simd_kernel_drift_respects_contract_at_wide_dims() {
        // A dim-8 tree exercises the lane sweep proper; the audit itself
        // fails on any row beyond the contract, and the reported worst
        // case must sit within it.
        let mut t = CfTree::new(TreeParams {
            dim: 8,
            ..params(0.5)
        });
        let mut s = 0xD1A8_u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 * 30.0
        };
        for _ in 0..80 {
            t.insert_point(&Point::new((0..8).map(|_| next()).collect()));
        }
        let r = audit(&t).unwrap();
        assert!(
            r.simd_kernel_drift <= crate::distance::SIMD_TOLERANCE_REL,
            "{}",
            r.simd_kernel_drift
        );
    }

    #[test]
    fn prune_bound_margin_nonnegative_on_grown_tree() {
        // Invariant 8: the Phase 3 candidate bound never overshoots a
        // real distance, on a real tree, for every metric — and a grown
        // tree has multi-entry nodes, so the measurable is populated.
        let t = grown_tree();
        let r = audit(&t).unwrap();
        let margin = r.prune_bound_margin.expect("multi-entry nodes probed");
        assert!(margin >= 0.0, "negative prune margin {margin}");
    }

    #[test]
    fn prune_bound_margin_probed_at_wide_dims() {
        // Same contract on a dim-8 tree, where the lane kernel (when
        // compiled) takes its vectorized path rather than the serial
        // specialization.
        let mut t = CfTree::new(TreeParams {
            dim: 8,
            ..params(0.5)
        });
        let mut s = 0x9E37_u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 * 30.0
        };
        for _ in 0..80 {
            t.insert_point(&Point::new((0..8).map(|_| next()).collect()));
        }
        let r = audit(&t).unwrap();
        let margin = r.prune_bound_margin.expect("multi-entry nodes probed");
        assert!(margin >= 0.0, "negative prune margin {margin}");
    }

    #[test]
    fn detects_id_mismatch() {
        let mut t = grown_tree();
        let second = t.leaf_ids().nth(1).expect("two leaves");
        t.nodes[second.index()].id = NodeId(999);
        let v = audit(&t).unwrap_err();
        assert_eq!(v.kind, ViolationKind::IdMismatch, "{v}");
    }

    #[test]
    fn violation_renders_node_and_kind() {
        let mut t = grown_tree();
        let nid = first_interior_with_child(&t);
        let bump = Cf::from_point(&Point::xy(1e6, 0.0));
        t.nodes[nid.index()].block_mut().merge_into_row(0, &bump);
        let msg = audit(&t).unwrap_err().to_string();
        assert!(msg.contains("parent CF mismatch"), "{msg}");
        assert!(msg.contains("NodeId"), "{msg}");
    }

    #[test]
    fn drift_is_measured_not_assumed() {
        // A long absorb-heavy run accumulates real (tiny) drift; the
        // report must expose it as a number rather than hiding it.
        let mut t = CfTree::new(TreeParams {
            threshold: 2.0,
            ..params(2.0)
        });
        let mut x = 0.0f64;
        for i in 0..5000 {
            x = (x * 1.000_1 + f64::from(i) * 0.013).rem_euclid(25.0);
            t.insert_point(&Point::xy(x, 25.0 - x));
        }
        let r = audit(&t).unwrap();
        assert!(r.root_drift.max() < 1e-6);
        assert!(r.interior_drift.max() < 1e-6);
        // The measurement is finite and non-negative by construction.
        assert!(r.root_drift.max() >= 0.0);
    }
}
