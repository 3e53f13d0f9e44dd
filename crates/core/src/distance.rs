//! The five inter-cluster distance metrics of §3 (eqs. 4–8), computed
//! exactly from CF vectors.
//!
//! Given clusters with features `CF₁ = (N₁, LS₁, SS₁)` and
//! `CF₂ = (N₂, LS₂, SS₂)`:
//!
//! * **D0** — centroid Euclidean distance `‖X0₁ − X0₂‖` (eq. 4),
//! * **D1** — centroid Manhattan distance `Σ|X0₁(t) − X0₂(t)|` (eq. 5),
//! * **D2** — average inter-cluster distance
//!   `sqrt(Σᵢ∈1 Σⱼ∈2 ‖Xᵢ−Xⱼ‖² / (N₁N₂))` (eq. 6),
//! * **D3** — average intra-cluster distance of the *merged* cluster
//!   (eq. 7) — i.e. the diameter of `CF₁ + CF₂`,
//! * **D4** — variance-increase distance (eq. 8): the growth in total
//!   squared deviation caused by merging.
//!
//! The paper states D2–D4 as closed forms over `(N, LS, SS)`. Those
//! subtract large near-equal quantities and collapse far from the origin
//! (the `cf_stability` bench keeps them as its cancellation foil), so the
//! kernel here, `view_distance` over a `CfView`, evaluates the
//! deviation forms on the CF's `(N, μ, SSE)` with the compensated centroid
//! difference `Δμᵢ = (μ₁ᵢ − μ₂ᵢ) + (c₁ᵢ − c₂ᵢ)` (the leading difference of
//! nearby means is exact by Sterbenz's lemma, so the Neumaier carries `c`
//! survive into the result):
//!
//! ```text
//! D0² = ‖Δμ‖²                 D1 = Σ|Δμᵢ|
//! D2² = SSE₁/N₁ + SSE₂/N₂ + ‖Δμ‖²
//! D3² = 2·SSEₘ/(N−1),  SSEₘ = SSE₁ + SSE₂ + (N₁N₂/N)·‖Δμ‖²
//! D4² = (N₁N₂/N)·‖Δμ‖²
//! ```
//!
//! Every term is translation-invariant, so these stay accurate at any
//! coordinate offset.
//!
//! Over a [`CfBlock`] the batched scans run the `f64x4` lane kernels of
//! `crate::simd`. The scalar block kernels here ([`distance_to_row`] and
//! the `*_scalar` scans) call `view_distance` itself, so they are
//! bit-identical to [`DistanceMetric::distance`] by construction; they
//! stay compiled as the oracles the lane kernels are checked against (by
//! the tests, the auditor's `SimdKernelMismatch` check and the
//! `insert_kernel` bench).
//!
//! The kernels share one contract for empty operands (`N ≤ 0`): they
//! `debug_assert!` (catching the misuse in debug/test builds) and return
//! `+∞` in release builds, so an empty row can never win a closest-entry
//! scan via `NaN` poisoning. The higher-level [`DistanceMetric::distance`]
//! keeps its hard panic: asking for the distance between empty *clusters*
//! is a caller bug in every build.

use crate::cf::{Cf, CfParts};
use crate::point::dot;
use std::fmt;
use std::str::FromStr;

/// Which of the paper's five distance definitions to use when comparing
/// clusters (choosing the closest child during descent, seeding splits,
/// Phase-3 agglomeration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DistanceMetric {
    /// D0 — Euclidean distance between centroids (eq. 4).
    D0,
    /// D1 — Manhattan distance between centroids (eq. 5).
    D1,
    /// D2 — average inter-cluster distance (eq. 6). The paper's default
    /// (Table 2: "Distance def. D2").
    #[default]
    D2,
    /// D3 — average intra-cluster distance of the merged cluster (eq. 7).
    D3,
    /// D4 — variance increase distance (eq. 8).
    D4,
}

impl DistanceMetric {
    /// All five metrics, for sweeps and tests.
    pub const ALL: [DistanceMetric; 5] = [
        DistanceMetric::D0,
        DistanceMetric::D1,
        DistanceMetric::D2,
        DistanceMetric::D3,
        DistanceMetric::D4,
    ];

    /// Distance between two non-empty clusters under this metric.
    ///
    /// All metrics are symmetric and non-negative; all except D3 are zero
    /// for identical singletons (D3 of two coincident singletons is also 0).
    ///
    /// # Panics
    ///
    /// Panics if either CF is empty or dimensions disagree.
    #[must_use]
    pub fn distance(self, a: &Cf, b: &Cf) -> f64 {
        assert!(
            !a.is_empty() && !b.is_empty(),
            "distance between empty clusters is undefined"
        );
        assert_eq!(
            a.dim(),
            b.dim(),
            "dimension mismatch: {} vs {}",
            a.dim(),
            b.dim()
        );
        view_distance(self, &CfView::of(a), &CfView::of(b))
    }

    /// Whether this metric is a *reducible* linkage: merging mutual
    /// nearest neighbors `i`, `j` can never bring the merged cluster
    /// closer to a third cluster `k` than both parents were —
    /// `d(i∪j, k) ≥ min(d(i,k), d(j,k))` whenever `d(i,j) ≤ d(i,k)` and
    /// `d(i,j) ≤ d(j,k)`. Reducibility is what makes the
    /// nearest-neighbor-chain agglomerator ([`crate::hierarchical`])
    /// exact: it guarantees the chain's locally discovered merges form
    /// the same dendrogram as the globally greedy heap order.
    ///
    /// - **D2** (average inter-cluster distance): reducible. `D2²(i∪j,k)`
    ///   is the *weighted average* `(nᵢ·D2²(i,k) + nⱼ·D2²(j,k))/(nᵢ+nⱼ)`
    ///   — an average of two values is never below their minimum, and
    ///   `sqrt` is monotone.
    /// - **D4** (variance increase): reducible. `D4²` is the Ward merge
    ///   cost `nᵢnⱼ/(nᵢ+nⱼ)·‖Δμ‖²`; Ward's linkage satisfies the
    ///   Lance–Williams reducibility condition.
    /// - **D0/D1** (centroid distances): *not* reducible — the merged
    ///   centroid moves between the parents and can land closer to `k`
    ///   than either parent was. Counterexample: singletons at `(0,0)`
    ///   and `(2,0)` with `k` at `(1,√3)` have all three pairwise
    ///   distances equal to 2, but the merged centroid `(1,0)` sits at
    ///   `√3 < 2` from `k` — an inversion.
    /// - **D3** (merged average intra-cluster distance): *not* reducible
    ///   — coincident singletons `a = b = 0` with a singleton `k = 1`
    ///   give `D3(a,b) = 0` but `D3(a∪b, k)² = 2·(2/3)/2 = 2/3 < 1 =
    ///   D3(a,k)²`.
    ///
    /// Non-reducible metrics fall back to the exhaustive heap
    /// agglomerator (see `crate::hierarchical::agglomerate`).
    #[must_use]
    pub fn is_reducible(self) -> bool {
        matches!(self, DistanceMetric::D2 | DistanceMetric::D4)
    }
}

impl fmt::Display for DistanceMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DistanceMetric::D0 => "D0",
            DistanceMetric::D1 => "D1",
            DistanceMetric::D2 => "D2",
            DistanceMetric::D3 => "D3",
            DistanceMetric::D4 => "D4",
        };
        f.write_str(s)
    }
}

impl FromStr for DistanceMetric {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_uppercase().as_str() {
            "D0" => Ok(DistanceMetric::D0),
            "D1" => Ok(DistanceMetric::D1),
            "D2" => Ok(DistanceMetric::D2),
            "D3" => Ok(DistanceMetric::D3),
            "D4" => Ok(DistanceMetric::D4),
            other => Err(format!("unknown distance metric {other:?} (want D0..D4)")),
        }
    }
}

// ---------------------------------------------------------------------
// The CF view and metric kernel.
//
// The kernel is a closed form over the view's fields: no centroid/merge
// materialization, hence no allocation. It runs once per child entry per
// tree level for *every* insertion (the §6.1 CPU cost model's inner loop),
// so the allocation-free form matters. Both the scalar path
// (`DistanceMetric::distance`) and the scalar block oracles
// (`distance_to_row` / `pair_in_block_scalar`) call this same function,
// so their results are bit-identical by construction.
// ---------------------------------------------------------------------

/// A borrowed `(N, SSE, μ, carry)` view of a CF (or of a `CfBlock`
/// row). `mean_c` holds the Neumaier compensation
/// terms of the mean — the deviation kernels fold them into `Δμ` so
/// distances keep ~1 ulp accuracy even at coordinate offsets where the
/// raw mean difference rounds coarsely.
#[derive(Debug, Clone, Copy)]
struct CfView<'a> {
    /// Weighted point count `N`.
    n: f64,
    /// Sum of squared deviations from the mean (compensation folded in).
    sse: f64,
    /// The mean vector μ.
    mean: &'a [f64],
    /// Neumaier carry of each mean coordinate.
    mean_c: &'a [f64],
}

impl<'a> CfView<'a> {
    /// The view of a CF.
    fn of(cf: &'a Cf) -> Self {
        CfView {
            n: cf.n(),
            sse: cf.sse(),
            mean: cf.mean(),
            mean_c: cf.mean_carry(),
        }
    }
}

/// Distance between two CF views: translation-invariant
/// deviation forms over `(N, μ, SSE)` with the compensated centroid
/// difference `Δμᵢ = (μ_aᵢ − μ_bᵢ) + (c_aᵢ − c_bᵢ)`. Empty operands
/// (`N ≤ 0`) debug-assert and return `+∞` in release builds (see the
/// module docs).
fn view_distance(metric: DistanceMetric, a: &CfView<'_>, b: &CfView<'_>) -> f64 {
    if a.n <= 0.0 || b.n <= 0.0 {
        debug_assert!(false, "distance with an empty CF operand");
        return f64::INFINITY;
    }
    let dmu = |i: usize| (a.mean[i] - b.mean[i]) + (a.mean_c[i] - b.mean_c[i]);
    let dmu_sq = || {
        let mut s = 0.0;
        for i in 0..a.mean.len() {
            let d = dmu(i);
            s += d * d;
        }
        s
    };
    match metric {
        DistanceMetric::D0 => dmu_sq().sqrt(),
        DistanceMetric::D1 => (0..a.mean.len()).map(|i| dmu(i).abs()).sum(),
        DistanceMetric::D2 => (a.sse / a.n + b.sse / b.n + dmu_sq()).max(0.0).sqrt(),
        DistanceMetric::D3 => {
            let n = a.n + b.n;
            if n <= 1.0 {
                return 0.0; // fractional weights: merged "cluster" of ≤ one point
            }
            let sse_m = a.sse + b.sse + (a.n * b.n / n) * dmu_sq();
            (2.0 * sse_m / (n - 1.0)).max(0.0).sqrt()
        }
        DistanceMetric::D4 => {
            let n = a.n + b.n;
            ((a.n * b.n / n) * dmu_sq()).max(0.0).sqrt()
        }
    }
}

// ---------------------------------------------------------------------
// Batched distance kernels over a flat SoA block of CFs.
//
// The tree-descent inner loop (§4.3: "find the closest child") walks a
// node's entries calling `DistanceMetric::distance` once per entry; with
// `Vec<Cf>` each call chases a separate `Box<[f64]>`. A `CfBlock` lays the
// same entries out as one stride-padded vector slab plus parallel scalar
// arrays, so the scan is a linear sweep over contiguous memory. The
// scalar block path calls the same kernel function on the same field
// values as `DistanceMetric::distance`, so it returns bit-identical
// distances (and therefore identical argmins, including tie order) by
// construction; the lane path (`crate::simd`) is bit-identical at
// dim ≤ 4 and within `SIMD_TOLERANCE_REL` above that.
// ---------------------------------------------------------------------

/// Lane width of the explicit-SIMD kernels (`f64x4`), and therefore the
/// row-stride granule of [`CfBlock`]'s vector slabs.
pub const LANE_WIDTH: usize = 4;

/// A flat, cache-resident sequence of CFs: stride-padded slabs of the
/// means and their carries, and parallel `(N, SSE, SSE carry, ‖μ‖²)`
/// arrays. A tree node stores its entries here and nowhere else.
///
/// Each mean row occupies [`CfBlock::stride`] slots — `dim` live
/// coordinates followed by zero padding up to the next multiple of
/// [`LANE_WIDTH`] — so the lane kernels can sweep row pairs in full lanes
/// with no scalar tail (zero padding contributes exactly `0` to every
/// deviation sum). The row accessors always return exactly `dim`
/// coordinates, so the padding is invisible outside the lane kernels.
///
/// A row holds every field a [`Cf`] holds, so it round-trips:
/// `CfBlock::row_cf` returns a `Cf` equal to the one pushed, carries
/// and memo included. The kernels read the SSE folded with its carry,
/// the value [`Cf::sse`] returns.
///
/// The dimensionality is fixed lazily by the first row pushed, so an empty
/// block is dimension-agnostic (a fresh tree node can own one before any
/// entry exists).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CfBlock {
    /// Row width; 0 until the first push fixes it.
    dim: usize,
    /// Per-row weighted point count `N`.
    n: Vec<f64>,
    /// Per-row leading `SSE`.
    sse: Vec<f64>,
    /// Per-row `SSE` compensation carry.
    sse_c: Vec<f64>,
    /// Per-row memoized `‖μ‖²` (copied from [`Cf::mean_sq`]).
    vec_sq: Vec<f64>,
    /// Row-major mean slab: row `i` occupies
    /// `vec[i*stride .. i*stride + dim]`, zero-padded to the stride.
    vec: Vec<f64>,
    /// Row-major Neumaier carry slab for the mean (same striding as
    /// `vec`) — the deviation kernels need it for the compensated Δμ.
    vec_c: Vec<f64>,
}

impl CfBlock {
    /// An empty block with no fixed dimensionality yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty block of `dim`-wide rows with room for `rows` rows, so
    /// that pushing them never reallocates.
    #[must_use]
    pub(crate) fn with_capacity(dim: usize, rows: usize) -> Self {
        let mut b = Self {
            dim,
            ..Self::default()
        };
        let slots = rows * b.stride();
        b.n.reserve_exact(rows);
        b.sse.reserve_exact(rows);
        b.sse_c.reserve_exact(rows);
        b.vec_sq.reserve_exact(rows);
        b.vec.reserve_exact(slots);
        b.vec_c.reserve_exact(slots);
        b
    }

    /// A block holding `cfs` in order.
    #[must_use]
    pub fn from_cfs<'a, I: IntoIterator<Item = &'a Cf>>(cfs: I) -> Self {
        let mut b = Self::new();
        for cf in cfs {
            b.push(cf);
        }
        b
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n.len()
    }

    /// Whether the block holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n.is_empty()
    }

    /// Row width (0 while the block has never held a row).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Slots per row in the `vec`/`vec_c` slabs: `dim` rounded up to a
    /// multiple of [`LANE_WIDTH`] (the padding is zero-filled).
    #[must_use]
    pub fn stride(&self) -> usize {
        self.dim.next_multiple_of(LANE_WIDTH)
    }

    /// Heap bytes held by the block's slabs — *capacity*, not length,
    /// because the allocation is what occupies memory. Feeds the memory
    /// gauge's `cf_blocks` component ([`crate::obs::mem`]).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let slots = self.n.capacity()
            + self.sse.capacity()
            + self.sse_c.capacity()
            + self.vec_sq.capacity()
            + self.vec.capacity()
            + self.vec_c.capacity();
        slots * std::mem::size_of::<f64>()
    }

    fn fix_dim(&mut self, dim: usize) {
        if self.dim == 0 {
            self.dim = dim;
        }
        assert_eq!(
            dim, self.dim,
            "dimension mismatch: CF {dim} vs block {}",
            self.dim
        );
    }

    /// Appends a row holding `cf`.
    ///
    /// # Panics
    ///
    /// Panics if `cf`'s dimension disagrees with earlier rows.
    pub fn push(&mut self, cf: &Cf) {
        self.fix_dim(cf.dim());
        let (sse, sse_c) = cf.sse_pair();
        self.n.push(cf.n());
        self.sse.push(sse);
        self.sse_c.push(sse_c);
        self.vec_sq.push(cf.mean_sq());
        let padded = self.n.len() * self.stride();
        self.vec.extend_from_slice(cf.mean());
        self.vec.resize(padded, 0.0);
        self.vec_c.extend_from_slice(cf.mean_carry());
        self.vec_c.resize(padded, 0.0);
    }

    /// Appends a copy of row `i` of `src`, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range `i` or dimension mismatch.
    pub(crate) fn push_row_from(&mut self, src: &CfBlock, i: usize) {
        self.fix_dim(src.dim);
        let s = self.stride();
        self.n.push(src.n[i]);
        self.sse.push(src.sse[i]);
        self.sse_c.push(src.sse_c[i]);
        self.vec_sq.push(src.vec_sq[i]);
        self.vec.extend_from_slice(&src.vec[i * s..(i + 1) * s]);
        self.vec_c.extend_from_slice(&src.vec_c[i * s..(i + 1) * s]);
    }

    /// Appends a row decoded from one CF's words ([`Cf::to_words`]
    /// layout). The `‖μ‖²` memo is not stored in the words; it is
    /// recomputed by the same exact `dot` every mutation uses.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not [`Cf::words_per_entry`] long for `dim`, or
    /// on dimension mismatch.
    pub(crate) fn push_words(&mut self, words: &[u64], dim: usize) {
        assert_eq!(
            words.len(),
            Cf::words_per_entry(dim),
            "CF word count mismatch for dim {dim}"
        );
        self.fix_dim(dim);
        let padded = (self.n.len() + 1) * self.stride();
        self.n.push(f64::from_bits(words[0]));
        self.vec
            .extend(words[1..=dim].iter().map(|&x| f64::from_bits(x)));
        self.vec.resize(padded, 0.0);
        self.vec_c
            .extend(words[1 + dim..=2 * dim].iter().map(|&x| f64::from_bits(x)));
        self.vec_c.resize(padded, 0.0);
        self.sse.push(f64::from_bits(words[1 + 2 * dim]));
        self.sse_c.push(f64::from_bits(words[2 + 2 * dim]));
        let mean = self.row_vec(self.n.len() - 1);
        self.vec_sq.push(dot(mean, mean));
    }

    /// Appends row `i`'s words ([`Cf::to_words`] layout) to `out`.
    pub(crate) fn row_words(&self, i: usize, out: &mut Vec<u64>) {
        let sse = (self.sse[i], self.sse_c[i]);
        crate::cf::put_words(self.n[i], self.row_vec(i), self.row_vec_c(i), sse, out);
    }

    /// Overwrites row `i` with `cf`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range `i` or dimension mismatch.
    pub fn set(&mut self, i: usize, cf: &Cf) {
        self.fix_dim(cf.dim());
        let (sse, sse_c) = cf.sse_pair();
        self.n[i] = cf.n();
        self.sse[i] = sse;
        self.sse_c[i] = sse_c;
        self.vec_sq[i] = cf.mean_sq();
        let s = self.stride();
        self.vec[i * s..i * s + self.dim].copy_from_slice(cf.mean());
        self.vec_c[i * s..i * s + self.dim].copy_from_slice(cf.mean_carry());
    }

    /// Inserts a row holding `cf` at position `i`, shifting later rows.
    ///
    /// # Panics
    ///
    /// Panics if `i > len()` or on dimension mismatch.
    pub fn insert(&mut self, i: usize, cf: &Cf) {
        self.fix_dim(cf.dim());
        let (sse, sse_c) = cf.sse_pair();
        self.n.insert(i, cf.n());
        self.sse.insert(i, sse);
        self.sse_c.insert(i, sse_c);
        self.vec_sq.insert(i, cf.mean_sq());
        let s = self.stride();
        let pad = std::iter::repeat_n(0.0, s - self.dim);
        self.vec
            .splice(i * s..i * s, cf.mean().iter().copied().chain(pad.clone()));
        self.vec_c
            .splice(i * s..i * s, cf.mean_carry().iter().copied().chain(pad));
    }

    /// Removes row `i`, shifting later rows down.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn remove(&mut self, i: usize) {
        self.n.remove(i);
        self.sse.remove(i);
        self.sse_c.remove(i);
        self.vec_sq.remove(i);
        let s = self.stride();
        self.vec.drain(i * s..(i + 1) * s);
        self.vec_c.drain(i * s..(i + 1) * s);
    }

    /// Mutable borrows of row `i`'s fields, for the merge arithmetic.
    fn row_parts(&mut self, i: usize) -> CfParts<'_> {
        let (s, d) = (self.stride(), self.dim);
        CfParts {
            n: &mut self.n[i],
            mean: &mut self.vec[i * s..i * s + d],
            mean_c: &mut self.vec_c[i * s..i * s + d],
            sse: &mut self.sse[i],
            sse_c: &mut self.sse_c[i],
            mean_sq: &mut self.vec_sq[i],
        }
    }

    /// Merges `cf` into row `i` in place: bit-identical to merging it
    /// into [`CfBlock::row_cf`] and writing the result back.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range `i` or dimension mismatch.
    pub(crate) fn merge_into_row(&mut self, i: usize, cf: &Cf) {
        self.row_parts(i).merge_cf(cf);
    }

    /// Merges row `i` into `cf`: bit-identical to
    /// `cf.merge(&self.row_cf(i))`, without building the copy.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range `i` or dimension mismatch.
    pub(crate) fn merge_row_into(&self, i: usize, cf: &mut Cf) {
        assert_eq!(
            cf.dim(),
            self.dim,
            "dimension mismatch: {} vs {}",
            self.dim,
            cf.dim()
        );
        cf.parts().merge(
            self.n[i],
            self.row_vec(i),
            Some(self.row_vec_c(i)),
            self.sse[i],
            self.sse_c[i],
        );
    }

    /// Overwrites `cf` with row `i`, reusing its buffers: afterwards
    /// `*cf == self.row_cf(i)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range `i` or dimension mismatch.
    pub(crate) fn load_row(&self, i: usize, cf: &mut Cf) {
        let p = cf.parts();
        *p.n = self.n[i];
        p.mean.copy_from_slice(self.row_vec(i));
        p.mean_c.copy_from_slice(self.row_vec_c(i));
        *p.sse = self.sse[i];
        *p.sse_c = self.sse_c[i];
        *p.mean_sq = self.vec_sq[i];
    }

    /// Row `i` as a [`Cf`]: equal in every field (carries and the `‖μ‖²`
    /// memo included) to the `Cf` the row was built from.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub(crate) fn row_cf(&self, i: usize) -> Cf {
        // Copied out of the slices rather than into a zeroed `Cf::empty`:
        // when this ran once per absorb attempt, the zeroed allocation
        // measured 18% slower on a fit with two Phase-1 workers.
        Cf::from_parts(
            self.n[i],
            self.row_vec(i).into(),
            self.row_vec_c(i).into(),
            (self.sse[i], self.sse_c[i]),
            self.vec_sq[i],
        )
    }

    /// Row `i`'s weighted point count `N`.
    #[must_use]
    pub fn row_n(&self, i: usize) -> f64 {
        self.n[i]
    }

    /// Row `i`'s `SSE`, carry folded in (the value [`Cf::sse`] returns).
    #[must_use]
    pub fn row_scalar(&self, i: usize) -> f64 {
        self.sse[i] + self.sse_c[i]
    }

    /// Row `i`'s memoized `‖μ‖²`.
    #[must_use]
    pub fn row_vec_sq(&self, i: usize) -> f64 {
        self.vec_sq[i]
    }

    /// Row `i`'s mean slice inside the slab. Exactly `dim` coordinates —
    /// padding excluded.
    #[must_use]
    pub fn row_vec(&self, i: usize) -> &[f64] {
        let s = self.stride();
        &self.vec[i * s..i * s + self.dim]
    }

    /// Row `i`'s mean-carry slice inside the carry slab. Exactly `dim`
    /// coordinates — padding excluded.
    #[must_use]
    pub fn row_vec_c(&self, i: usize) -> &[f64] {
        let s = self.stride();
        &self.vec_c[i * s..i * s + self.dim]
    }

    /// Test-only corruption of row `i`'s memoized `‖μ‖²`, giving the
    /// auditor's norm-cache check a deterministic failure to detect.
    #[cfg(test)]
    pub(crate) fn corrupt_norm_memo_for_test(&mut self, i: usize, delta: f64) {
        self.vec_sq[i] += delta;
    }

    /// The full vector slab including padding, for the lane kernels.
    pub(crate) fn vec_slab(&self) -> &[f64] {
        &self.vec
    }

    /// The full mean-carry slab including padding, for the lane kernels.
    pub(crate) fn vec_c_slab(&self) -> &[f64] {
        &self.vec_c
    }

    /// The per-row `N` slab, for the lane kernels.
    pub(crate) fn n_slab(&self) -> &[f64] {
        &self.n
    }

    /// The per-row leading-`SSE` and `SSE`-carry slabs, for the lane
    /// kernels (which fold them per row, as [`CfBlock::row_scalar`] does).
    pub(crate) fn sse_slabs(&self) -> (&[f64], &[f64]) {
        (&self.sse, &self.sse_c)
    }
}

fn row_view(block: &CfBlock, i: usize) -> CfView<'_> {
    CfView {
        n: block.row_n(i),
        sse: block.row_scalar(i),
        mean: block.row_vec(i),
        mean_c: block.row_vec_c(i),
    }
}

/// Distance from `a` to block row `i` — bit-identical to
/// `metric.distance(a, &row_i_cf)`.
///
/// # Panics
///
/// Panics if `a` is empty, `i` is out of range, or dimensions disagree.
#[must_use]
#[inline]
pub fn distance_to_row(metric: DistanceMetric, a: &Cf, block: &CfBlock, i: usize) -> f64 {
    assert!(!a.is_empty(), "distance from an empty cluster is undefined");
    assert_eq!(
        a.dim(),
        block.dim(),
        "dimension mismatch: {} vs {}",
        a.dim(),
        block.dim()
    );
    view_distance(metric, &CfView::of(a), &row_view(block, i))
}

// ---------------------------------------------------------------------
// Kernel paths: every batch scan exists in a scalar form (the oracle —
// bit-identical to `DistanceMetric::distance` by construction) and a lane
// form in `crate::simd`. The production names (`pair_in_block`,
// `closest_among`, …) call the lane kernels. Lane and scalar results agree
// bit-for-bit at dim ≤ 4 (the small-dim specializations keep scalar
// accumulation order) and within [`SIMD_TOLERANCE_REL`] above that (lane
// reduction reorders the sums).
// ---------------------------------------------------------------------

/// Per-call tolerance contract of the lane kernels: for dims above the
/// serial-order specializations a lane-computed distance `d_l` and its
/// scalar oracle `d_s` satisfy `|d_l − d_s| ≤ SIMD_TOLERANCE_REL ·
/// max(|d_s|, 1)`. The slack is enormous against the actual reordering
/// error (four partial sums of non-negative terms differ from the serial
/// sum by O(dim · ε) ≲ 1e-13 relative even at dim 1024), so the
/// differential tests and the auditor can check it as a hard bound.
pub const SIMD_TOLERANCE_REL: f64 = 1e-12;

/// Distance between block rows `i` and `j` by the scalar kernel —
/// bit-identical to `metric.distance(&row_i_cf, &row_j_cf)`. This is the
/// oracle the lane path is differentially tested against.
///
/// # Panics
///
/// Panics if either index is out of range.
#[must_use]
#[inline]
pub fn pair_in_block_scalar(metric: DistanceMetric, block: &CfBlock, i: usize, j: usize) -> f64 {
    view_distance(metric, &row_view(block, i), &row_view(block, j))
}

/// Distance between block rows `i` and `j` — the production form,
/// lane-computed (within [`SIMD_TOLERANCE_REL`] of
/// [`pair_in_block_scalar`], bit-identical at dim ≤ 4).
///
/// # Panics
///
/// Panics if either index is out of range.
#[must_use]
#[inline]
pub fn pair_in_block(metric: DistanceMetric, block: &CfBlock, i: usize, j: usize) -> f64 {
    crate::simd::pair_in_block(metric, block, i, j)
}

/// Scalar form of [`closest_among`]: first-minimum via
/// [`distance_to_row`], so every distance is bit-identical to the scalar
/// `DistanceMetric::distance`.
#[must_use]
#[inline]
pub fn closest_among_scalar(
    metric: DistanceMetric,
    ent: &Cf,
    block: &CfBlock,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    let mut best_d = f64::INFINITY;
    for i in 0..block.len() {
        let d = distance_to_row(metric, ent, block, i);
        if d < best_d {
            best_d = d;
            best = Some((i, d));
        }
    }
    best
}

/// First-minimum closest row to `ent`: the batched form of the descent
/// scan (`best` starts at `+∞`, strictly-smaller wins, so the earliest of
/// tied rows is kept — the same tie-break as `CfTree::descend` and
/// `CfTree::closest_leaf_entry`). Returns `None` on an empty block.
#[must_use]
#[inline]
pub fn closest_among(metric: DistanceMetric, ent: &Cf, block: &CfBlock) -> Option<(usize, f64)> {
    crate::simd::closest_among(metric, ent, block)
}

/// Conservative slack of the D0 prune bound, relative to the *sum* of the
/// two centroid norms being compared.
///
/// The cached `‖μ‖²` ignores the Neumaier carries that
/// the distances fold in, and the lane kernels reorder sums, so the
/// computed bound `|‖μ_a‖ − ‖μ_b‖|` can sit above the true D0 by a few
/// ulps *of the norms* (not of their difference). Every contributing
/// error is relative to the norms themselves — carry magnitude ≤ 2⁻⁵²‖μ‖,
/// dot-product and `sqrt` rounding O(dim·ε)‖μ‖, lane reordering within
/// [`SIMD_TOLERANCE_REL`] — totalling ≲ 3e-14·(‖μ_a‖+‖μ_b‖) at dim ≤ 128.
/// Subtracting `D0_PRUNE_SLACK_REL · (‖μ_a‖+‖μ_b‖)` therefore makes the
/// bound a true lower bound with ≥ 30× margin, preserving the
/// exact-selection guarantee: a pruned row provably cannot win the
/// strict-`<` comparison.
pub const D0_PRUNE_SLACK_REL: f64 = 1e-12;

/// [`closest_among`] with the D0 triangle-inequality lower-bound prune.
///
/// For D0 (centroid Euclidean distance) the reverse triangle inequality
/// gives `D0(a, b) ≥ |‖c_a‖ − ‖c_b‖|`, and each centroid norm is O(1)
/// from the cached squared norms. A row whose lower bound strictly
/// exceeds the best distance so far cannot win the strict `<` comparison,
/// so skipping it provably never changes the selected index (tie order
/// included). Non-D0 metrics fall back to the plain scan.
///
/// The bound is widened by [`D0_PRUNE_SLACK_REL`] to absorb the
/// carry/rounding mismatch between the uncompensated cached
/// norms and the compensated (and possibly lane-reordered) distances —
/// conservative, so selection safety is preserved at the cost of a few
/// un-pruned borderline rows.
///
/// Returns `(best, evaluated, pruned)`: the winning `(index, distance)`,
/// how many full distance evaluations ran, and how many rows the bound
/// skipped.
#[must_use]
pub fn closest_among_pruned(
    metric: DistanceMetric,
    ent: &Cf,
    block: &CfBlock,
) -> (Option<(usize, f64)>, u64, u64) {
    crate::simd::closest_among_pruned(metric, ent, block)
}

/// Cheap lower bound on `pair_in_block(metric, block, i, j)` computed
/// from the rows' cached summary statistics alone — no vector sweep.
///
/// This is the candidate prune of the Phase-3 agglomerator
/// ([`crate::hierarchical`]): a row pair whose bound strictly exceeds
/// the best distance found so far provably cannot win a strict-`<`
/// nearest-neighbor scan, so the O(dim) kernel call is skipped.
///
/// Derivation (the cached triple per row is `(N, SSE, ‖μ‖²)`): the
/// reverse triangle inequality gives `‖Δμ‖ ≥ |‖μ_a‖ − ‖μ_b‖|`; widening
/// by [`D0_PRUNE_SLACK_REL`] · `(‖μ_a‖+‖μ_b‖)` (that constant's slack
/// argument: cached norms ignore the Neumaier carries the kernels fold
/// in, and lane kernels reorder sums, every error term relative to the
/// norms) yields a true lower bound `d0b ≤ ‖Δμ‖`. The deviation forms are monotone in `‖Δμ‖²` with all
/// other inputs read bit-identically from the same cached statistics:
///
/// - D0: `d0b`; D1 ≥ D0 coordinate-wise (L1 dominates L2), so `d0b` too.
/// - D2² = SSE_a/N_a + SSE_b/N_b + ‖Δμ‖² ≥ same with `d0b²`.
/// - D3² = 2(SSE_a + SSE_b + (N_aN_b/N)‖Δμ‖²)/(N−1), same substitution.
/// - D4² = (N_aN_b/N)‖Δμ‖² ≥ (N_aN_b/N)·d0b².
///
/// The derived-metric bounds are additionally shaved by one more
/// [`D0_PRUNE_SLACK_REL`] relative step to absorb their own few-ulp
/// assembly round-off, keeping `bound ≤ distance` a hard invariant (the
/// auditor re-checks it on every node; see `crate::audit`).
///
/// # Panics
///
/// Panics if either index is out of range.
#[must_use]
pub fn pair_lower_bound(metric: DistanceMetric, block: &CfBlock, i: usize, j: usize) -> f64 {
    let (na, nb) = (block.row_n(i), block.row_n(j));
    let ma = row_centroid_norm(block, i);
    let mb = row_centroid_norm(block, j);
    let d0b = ((ma - mb).abs() - D0_PRUNE_SLACK_REL * (ma + mb)).max(0.0);
    let shave = 1.0 - D0_PRUNE_SLACK_REL;
    match metric {
        DistanceMetric::D0 | DistanceMetric::D1 => d0b,
        DistanceMetric::D2 => {
            let (sa, sb) = (block.row_scalar(i), block.row_scalar(j));
            (sa / na + sb / nb + d0b * d0b).max(0.0).sqrt() * shave
        }
        DistanceMetric::D3 => {
            let n = na + nb;
            if n <= 1.0 {
                return 0.0;
            }
            let (sa, sb) = (block.row_scalar(i), block.row_scalar(j));
            let sse_m = sa + sb + (na * nb / n) * (d0b * d0b);
            (2.0 * sse_m / (n - 1.0)).max(0.0).sqrt() * shave
        }
        DistanceMetric::D4 => {
            let n = na + nb;
            ((na * nb / n) * (d0b * d0b)).max(0.0).sqrt() * shave
        }
    }
}

/// Row `i`'s centroid norm `‖μ‖` from its cached `‖μ‖²`. The norm
/// [`pair_lower_bound`] bounds with, and the key Phase 3's norm-ordered
/// neighbour walk sorts rows by.
#[must_use]
#[inline]
pub fn row_centroid_norm(block: &CfBlock, i: usize) -> f64 {
    block.row_vec_sq(i).sqrt()
}

/// Stop rule of the norm-ordered neighbour walk ([`crate::annulus`]) from
/// query row `i`: given the [`row_centroid_norm`] of a candidate row, a
/// lower bound on `pair_in_block(metric, block, i, j)` for that row *and
/// every row whose norm lies farther from row `i`'s on the same side*.
/// `n_min` must bound every candidate row's `N` from below.
///
/// It is [`pair_lower_bound`] with the candidate's own statistics replaced
/// by their worst case, and the D0 part taken from
/// [`crate::annulus::gap_bound`] (twice the slack, so the computed value
/// stays below the exact bound of every row farther out): D2 drops the
/// candidate's `SSE/N` term; D4 takes the weight factor at `N = n_min`,
/// its smallest (`NₐN/(Nₐ+N)` grows with `N`); D3's bound needs the
/// candidate's SSE and gives 0.
pub(crate) fn annulus_stop_bound(
    metric: DistanceMetric,
    block: &CfBlock,
    i: usize,
    n_min: f64,
) -> impl Fn(f64) -> f64 {
    let q = row_centroid_norm(block, i);
    let (na, sa) = (block.row_n(i), block.row_scalar(i));
    let shave = 1.0 - D0_PRUNE_SLACK_REL;
    move |norm| {
        let t = crate::annulus::gap_bound(q, norm);
        match metric {
            DistanceMetric::D0 | DistanceMetric::D1 => t,
            DistanceMetric::D2 => (sa / na + t * t).max(0.0).sqrt() * shave,
            DistanceMetric::D3 => 0.0,
            DistanceMetric::D4 => ((na * n_min / (na + n_min)) * (t * t)).max(0.0).sqrt() * shave,
        }
    }
}

/// Scalar form of [`closest_pair`] — every pair distance bit-identical
/// to the scalar `DistanceMetric::distance`.
#[must_use]
#[inline]
pub fn closest_pair_scalar(metric: DistanceMetric, block: &CfBlock) -> Option<(usize, usize, f64)> {
    let mut best: Option<(usize, usize, f64)> = None;
    for i in 0..block.len() {
        for j in (i + 1)..block.len() {
            let d = pair_in_block_scalar(metric, block, i, j);
            if best.is_none_or(|(_, _, bd)| d < bd) {
                best = Some((i, j, d));
            }
        }
    }
    best
}

/// First-minimum closest pair among the block's rows (`i < j`, earliest
/// pair wins ties) — the batched form of the §4.3 merging-refinement scan.
/// Returns `None` when the block has fewer than two rows.
#[must_use]
#[inline]
pub fn closest_pair(metric: DistanceMetric, block: &CfBlock) -> Option<(usize, usize, f64)> {
    crate::simd::closest_pair(metric, block)
}

/// Scalar form of [`farthest_pair`] — every pair distance bit-identical
/// to the scalar `DistanceMetric::distance`.
#[must_use]
#[inline]
pub fn farthest_pair_scalar(
    metric: DistanceMetric,
    block: &CfBlock,
) -> Option<(usize, usize, f64)> {
    if block.len() < 2 {
        return None;
    }
    let (mut far, mut far_d) = ((0, 1), f64::NEG_INFINITY);
    for i in 0..block.len() {
        for j in (i + 1)..block.len() {
            let d = pair_in_block_scalar(metric, block, i, j);
            if d > far_d {
                far = (i, j);
                far_d = d;
            }
        }
    }
    Some((far.0, far.1, far_d))
}

/// First-maximum farthest pair among the block's rows (`i < j`, earliest
/// pair wins ties) — the batched form of the split seeding scan (§4.2:
/// "the farthest pair of entries"). Returns `None` when the block has
/// fewer than two rows.
#[must_use]
#[inline]
pub fn farthest_pair(metric: DistanceMetric, block: &CfBlock) -> Option<(usize, usize, f64)> {
    crate::simd::farthest_pair(metric, block)
}

/// What cluster statistic the CF-tree threshold `T` constrains (§4.2: the
/// diameter *or radius* of each leaf entry has to be less than `T`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ThresholdKind {
    /// Constrain the leaf entry's diameter `D < T` (the paper's default
    /// quality measure, Table 2).
    #[default]
    Diameter,
    /// Constrain the leaf entry's radius `R < T`.
    Radius,
}

impl ThresholdKind {
    /// The constrained statistic of a CF.
    #[must_use]
    pub fn statistic(self, cf: &Cf) -> f64 {
        self.statistic_of(cf.n(), cf.sse())
    }

    /// The constrained statistic of row `i` of `block`: bit-identical to
    /// [`ThresholdKind::statistic`] of [`CfBlock::row_cf`].
    #[must_use]
    pub(crate) fn row_statistic(self, block: &CfBlock, i: usize) -> f64 {
        self.statistic_of(block.row_n(i), block.row_scalar(i))
    }

    fn statistic_of(self, n: f64, sse: f64) -> f64 {
        match self {
            ThresholdKind::Diameter => crate::cf::diameter_of(n, sse),
            ThresholdKind::Radius => crate::cf::radius_of(n, sse),
        }
    }

    /// Whether `cf` satisfies the threshold condition wrt `t`.
    #[must_use]
    pub fn satisfies(self, cf: &Cf, t: f64) -> bool {
        self.statistic(cf) <= t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn cf_of(raw: &[[f64; 2]]) -> Cf {
        let pts: Vec<Point> = raw.iter().map(|&[x, y]| Point::xy(x, y)).collect();
        Cf::from_points(&pts)
    }

    /// Brute-force D2 straight from the definition for cross-checking.
    fn d2_brute(a: &[[f64; 2]], b: &[[f64; 2]]) -> f64 {
        let mut s = 0.0;
        for p in a {
            for q in b {
                s += (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2);
            }
        }
        (s / (a.len() * b.len()) as f64).sqrt()
    }

    #[test]
    fn d0_between_singletons_is_euclidean() {
        let a = cf_of(&[[0.0, 0.0]]);
        let b = cf_of(&[[3.0, 4.0]]);
        assert!((DistanceMetric::D0.distance(&a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn d1_between_singletons_is_manhattan() {
        let a = cf_of(&[[0.0, 0.0]]);
        let b = cf_of(&[[3.0, 4.0]]);
        assert!((DistanceMetric::D1.distance(&a, &b) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn d2_matches_brute_force() {
        let a = [[0.0, 0.0], [1.0, 1.0], [2.0, -1.0]];
        let b = [[5.0, 5.0], [6.0, 4.0]];
        let got = DistanceMetric::D2.distance(&cf_of(&a), &cf_of(&b));
        assert!((got - d2_brute(&a, &b)).abs() < 1e-10);
    }

    #[test]
    fn d2_of_singletons_equals_d0() {
        let a = cf_of(&[[1.0, 2.0]]);
        let b = cf_of(&[[4.0, 6.0]]);
        let d0 = DistanceMetric::D0.distance(&a, &b);
        let d2 = DistanceMetric::D2.distance(&a, &b);
        assert!((d0 - d2).abs() < 1e-12);
    }

    #[test]
    fn d3_is_merged_diameter() {
        let a = [[0.0, 0.0], [1.0, 0.0]];
        let b = [[10.0, 0.0]];
        let merged = cf_of(&[[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]]);
        let got = DistanceMetric::D3.distance(&cf_of(&a), &cf_of(&b));
        assert!((got - merged.diameter()).abs() < 1e-12);
    }

    #[test]
    fn d4_matches_deviation_increase() {
        let a = [[0.0, 0.0], [2.0, 0.0]];
        let b = [[10.0, 0.0], [12.0, 0.0]];
        let (cfa, cfb) = (cf_of(&a), cf_of(&b));
        let merged = cfa.merged(&cfb);
        let expected = (merged.sq_deviation() - cfa.sq_deviation() - cfb.sq_deviation())
            .max(0.0)
            .sqrt();
        let got = DistanceMetric::D4.distance(&cfa, &cfb);
        assert!((got - expected).abs() < 1e-10, "got {got}, want {expected}");
    }

    #[test]
    fn all_metrics_symmetric_and_nonnegative() {
        let a = cf_of(&[[0.0, 1.0], [2.0, 3.0], [1.0, -2.0]]);
        let b = cf_of(&[[7.0, 7.0], [8.0, 6.0]]);
        for m in DistanceMetric::ALL {
            let ab = m.distance(&a, &b);
            let ba = m.distance(&b, &a);
            assert!(ab >= 0.0, "{m} negative");
            assert!((ab - ba).abs() < 1e-12, "{m} asymmetric");
        }
    }

    #[test]
    fn coincident_singletons_have_zero_distance() {
        let a = cf_of(&[[5.0, 5.0]]);
        let b = cf_of(&[[5.0, 5.0]]);
        for m in DistanceMetric::ALL {
            assert!(m.distance(&a, &b).abs() < 1e-12, "{m} nonzero");
        }
    }

    #[test]
    fn metric_ordering_on_separated_blobs() {
        // Far-apart blobs: every metric should report a "large" distance
        // comparable to the centroid separation (within a small factor).
        let a = cf_of(&[[0.0, 0.0], [0.1, 0.1]]);
        let b = cf_of(&[[100.0, 0.0], [100.1, 0.1]]);
        for m in DistanceMetric::ALL {
            let d = m.distance(&a, &b);
            assert!(d > 50.0, "{m} too small: {d}");
        }
    }

    #[test]
    #[should_panic(expected = "empty clusters")]
    fn empty_cf_distance_panics() {
        let a = Cf::empty(2);
        let b = cf_of(&[[1.0, 1.0]]);
        let _ = DistanceMetric::D0.distance(&a, &b);
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for m in DistanceMetric::ALL {
            let parsed: DistanceMetric = m.to_string().parse().unwrap();
            assert_eq!(parsed, m);
        }
        assert!("D9".parse::<DistanceMetric>().is_err());
        assert_eq!("d3".parse::<DistanceMetric>().unwrap(), DistanceMetric::D3);
    }

    #[test]
    fn threshold_kind_statistics() {
        let cf = cf_of(&[[0.0, 0.0], [6.0, 0.0]]);
        assert!((ThresholdKind::Diameter.statistic(&cf) - 6.0).abs() < 1e-12);
        assert!((ThresholdKind::Radius.statistic(&cf) - 3.0).abs() < 1e-12);
        assert!(ThresholdKind::Diameter.satisfies(&cf, 6.0));
        assert!(!ThresholdKind::Diameter.satisfies(&cf, 5.9));
        assert!(ThresholdKind::Radius.satisfies(&cf, 3.5));
    }

    #[test]
    fn default_metric_is_d2_and_default_threshold_is_diameter() {
        assert_eq!(DistanceMetric::default(), DistanceMetric::D2);
        assert_eq!(ThresholdKind::default(), ThresholdKind::Diameter);
    }

    /// A varied set of multi-point CFs for kernel-vs-scalar comparisons.
    fn kernel_fixture() -> Vec<Cf> {
        vec![
            cf_of(&[[0.0, 0.0], [1.0, 1.0]]),
            cf_of(&[[5.0, -3.0]]),
            cf_of(&[[2.5, 2.5], [2.5, 2.5], [3.0, 2.0]]),
            cf_of(&[[-7.0, 4.0], [-6.5, 4.5]]),
            cf_of(&[[100.0, 100.0]]),
            cf_of(&[[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]]),
        ]
    }

    #[test]
    fn block_rows_mirror_cfs() {
        let cfs = kernel_fixture();
        let b = CfBlock::from_cfs(&cfs);
        assert_eq!(b.len(), cfs.len());
        assert_eq!(b.dim(), 2);
        for (i, cf) in cfs.iter().enumerate() {
            assert_eq!(b.row_n(i), cf.n());
            assert_eq!(b.row_scalar(i), cf.sse());
            assert_eq!(b.row_vec_sq(i).to_bits(), cf.mean_sq().to_bits());
            assert_eq!(b.row_vec(i), cf.mean());
            assert_eq!(b.row_vec_c(i), cf.mean_carry());
        }
    }

    #[test]
    fn block_mutators_keep_rows_in_sync() {
        let cfs = kernel_fixture();
        let mut b = CfBlock::from_cfs(&cfs[..3]);
        b.set(1, &cfs[3]);
        assert_eq!(b.row_vec(1), cfs[3].mean());
        b.insert(0, &cfs[4]);
        assert_eq!(b.len(), 4);
        assert_eq!(b.row_vec(0), cfs[4].mean());
        assert_eq!(b.row_vec(1), cfs[0].mean());
        b.remove(2);
        assert_eq!(b.len(), 3);
        assert_eq!(b.row_vec(2), cfs[2].mean());
        let rows: Vec<Cf> = (0..b.len()).map(|i| b.row_cf(i)).collect();
        assert_eq!(rows, vec![cfs[4].clone(), cfs[0].clone(), cfs[2].clone()]);
    }

    /// CFs with nonzero mean and SSE carries: tight clusters far from the
    /// origin, built by incremental merges.
    fn carried_fixture(dim: usize) -> Vec<Cf> {
        (0..5)
            .map(|r| {
                let base = 1e8 + f64::from(r) * 3.0;
                let pts: Vec<Point> = (0..4)
                    .map(|k| {
                        let k = f64::from(k);
                        Point::new(
                            (0..dim)
                                .map(|d| base + (k * 0.37 + d as f64) * 1e-3)
                                .collect(),
                        )
                    })
                    .collect();
                let mut cf = Cf::from_points(&pts);
                cf.add_weighted_point(&pts[1], 0.75);
                cf
            })
            .collect()
    }

    #[test]
    fn rows_round_trip_every_field() {
        for dim in [2, 5] {
            let cfs = carried_fixture(dim);
            assert!(
                cfs.iter().any(|c| c.sse_pair().1 != 0.0),
                "fixture needs SSE carries"
            );
            let b = CfBlock::from_cfs(&cfs);
            let mut copy = CfBlock::new();
            let mut words = Vec::new();
            for (i, cf) in cfs.iter().enumerate() {
                // PartialEq covers the carries and the memo.
                assert!(b.row_cf(i) == *cf, "dim {dim} row {i}");
                assert_eq!(b.row_cf(i).mean_sq().to_bits(), cf.mean_sq().to_bits());
                assert_eq!(b.row_scalar(i).to_bits(), cf.sse().to_bits());
                copy.push_row_from(&b, i);
                b.row_words(i, &mut words);
            }
            assert_eq!(copy, b);
            let mut want = Vec::new();
            for cf in &cfs {
                cf.to_words(&mut want);
            }
            assert_eq!(words, want);
            let mut decoded = CfBlock::new();
            for w in words.chunks_exact(Cf::words_per_entry(dim)) {
                decoded.push_words(w, dim);
            }
            assert_eq!(decoded, b);
        }
    }

    #[test]
    fn row_merges_match_cf_merges_bitwise() {
        for dim in [2, 5] {
            let cfs = carried_fixture(dim);
            let mut b = CfBlock::from_cfs(&cfs);
            for i in 0..cfs.len() {
                let other = &cfs[(i + 2) % cfs.len()];
                let mut want = cfs[i].clone();
                want.merge(other);
                b.merge_into_row(i, other);
                assert!(b.row_cf(i) == want, "dim {dim} merge into row {i}");

                let mut acc = other.clone();
                b.merge_row_into(i, &mut acc);
                let mut want = other.clone();
                want.merge(&b.row_cf(i));
                assert!(acc == want, "dim {dim} merge of row {i}");

                b.load_row(i, &mut acc);
                assert!(acc == b.row_cf(i), "dim {dim} load row {i}");
            }
        }
    }

    #[test]
    fn row_kernels_are_bit_identical_to_scalar() {
        let cfs = kernel_fixture();
        let b = CfBlock::from_cfs(&cfs);
        let probe = cf_of(&[[1.0, -1.0], [2.0, 0.5]]);
        for m in DistanceMetric::ALL {
            for i in 0..cfs.len() {
                let scalar = m.distance(&probe, &cfs[i]);
                let kernel = distance_to_row(m, &probe, &b, i);
                assert_eq!(scalar.to_bits(), kernel.to_bits(), "{m} row {i}");
                for j in (i + 1)..cfs.len() {
                    let scalar = m.distance(&cfs[i], &cfs[j]);
                    let kernel = pair_in_block(m, &b, i, j);
                    assert_eq!(scalar.to_bits(), kernel.to_bits(), "{m} pair {i},{j}");
                }
            }
        }
    }

    #[test]
    fn closest_among_matches_first_min_reference() {
        let cfs = kernel_fixture();
        let b = CfBlock::from_cfs(&cfs);
        let probe = cf_of(&[[2.0, 2.0]]);
        for m in DistanceMetric::ALL {
            let mut best: Option<(usize, f64)> = None;
            for (i, cf) in cfs.iter().enumerate() {
                let d = m.distance(&probe, cf);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((i, d));
                }
            }
            let got = closest_among(m, &probe, &b);
            assert_eq!(got.map(|(i, _)| i), best.map(|(i, _)| i), "{m}");
            assert_eq!(
                got.map(|(_, d)| d.to_bits()),
                best.map(|(_, d)| d.to_bits()),
                "{m}"
            );
        }
    }

    #[test]
    fn closest_among_keeps_earliest_of_tied_rows() {
        // Two identical rows: the scan must return the first.
        let twin = cf_of(&[[3.0, 3.0]]);
        let b = CfBlock::from_cfs([&cf_of(&[[9.0, 9.0]]), &twin, &twin.clone()]);
        let probe = cf_of(&[[3.0, 2.0]]);
        for m in DistanceMetric::ALL {
            let (i, _) = closest_among(m, &probe, &b).unwrap();
            assert_eq!(i, 1, "{m} broke tie order");
        }
    }

    #[test]
    fn pruned_scan_picks_identical_winner_and_counts() {
        // Rows with widely spread centroid norms so the D0 bound prunes.
        let rows: Vec<Cf> = (0..40)
            .map(|i| {
                let x = f64::from(i) * 25.0;
                cf_of(&[[x, x * 0.5]])
            })
            .collect();
        let b = CfBlock::from_cfs(&rows);
        let probe = cf_of(&[[26.0, 12.0]]);
        let plain = closest_among(DistanceMetric::D0, &probe, &b);
        let (pruned_best, evaluated, pruned) = closest_among_pruned(DistanceMetric::D0, &probe, &b);
        assert_eq!(plain.map(|(i, _)| i), pruned_best.map(|(i, _)| i));
        assert_eq!(
            plain.map(|(_, d)| d.to_bits()),
            pruned_best.map(|(_, d)| d.to_bits())
        );
        assert!(pruned > 0, "spread norms must prune something");
        assert_eq!(evaluated + pruned, rows.len() as u64);
        // Non-D0 metrics fall back to the plain scan, nothing pruned.
        let (_, ev2, pr2) = closest_among_pruned(DistanceMetric::D2, &probe, &b);
        assert_eq!((ev2, pr2), (rows.len() as u64, 0));
    }

    #[test]
    fn stable_prune_bound_is_conservative_near_the_boundary() {
        // Rows whose centroid norms equal the probe's exactly sit *on*
        // the prune boundary once a very close best (d = 1e-9) is held:
        // their exact norm-difference bound is 0 and the slack pushes it
        // negative, so the conservative bound must refuse to prune them
        // even though they are far away in actual distance. A wrong-sign
        // slack (or a bound computed on drifted cached norms) would
        // prune them here. Far rows with large norm gaps still prune.
        let probe = cf_of(&[[30.0, 0.0]]);
        let mut rows: Vec<Cf> = vec![
            cf_of(&[[30.0 + 1e-9, 0.0]]), // true winner, evaluated first
            cf_of(&[[0.0, 30.0]]),        // ‖μ‖ = 30 exactly: bound ≤ 0, must evaluate
            cf_of(&[[-30.0, 0.0]]),       // same norm from the other side
        ];
        rows.extend((1..30).map(|i| {
            let x = f64::from(i) * 500.0;
            cf_of(&[[x, x]])
        }));
        let b = CfBlock::from_cfs(&rows);
        let plain = closest_among(DistanceMetric::D0, &probe, &b);
        let (best, evaluated, pruned) = closest_among_pruned(DistanceMetric::D0, &probe, &b);
        assert_eq!(plain.map(|(i, _)| i), best.map(|(i, _)| i));
        assert_eq!(
            plain.map(|(_, d)| d.to_bits()),
            best.map(|(_, d)| d.to_bits())
        );
        assert!(pruned > 0, "far rows must prune");
        assert!(evaluated >= 3, "equal-norm rows must not prune");
        assert_eq!(evaluated + pruned, rows.len() as u64);
    }

    #[test]
    fn pair_in_block_is_bit_symmetric() {
        // The agglomerators evaluate the same pair from either side (the
        // chain from its tip, the heap in index order); bit-identical
        // dendrograms across paths require d(i,j) == d(j,i) exactly.
        let cfs = kernel_fixture();
        let b = CfBlock::from_cfs(&cfs);
        for m in DistanceMetric::ALL {
            for i in 0..cfs.len() {
                for j in 0..cfs.len() {
                    if i == j {
                        continue;
                    }
                    assert_eq!(
                        pair_in_block(m, &b, i, j).to_bits(),
                        pair_in_block(m, &b, j, i).to_bits(),
                        "{m} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn pair_lower_bound_is_sound_for_all_metrics() {
        // The NN-chain prune contract: bound ≤ true distance, on every
        // pair, every metric — including weighted CFs,
        // tight co-located clusters, and mirrored-norm pairs where the
        // norm-difference term collapses to zero.
        let rows: Vec<Cf> = vec![
            cf_of(&[[0.0, 0.0], [0.2, 0.1]]),
            cf_of(&[[0.1, 0.05]]),
            cf_of(&[[100.0, 100.0], [100.5, 99.5], [99.5, 100.5]]),
            cf_of(&[[-100.0, -100.0]]), // same norm as above, opposite side
            cf_of(&[[3.0, 4.0], [3.0, 4.0], [3.0, 4.0]]), // zero-SSE triple
            cf_of(&[[-5.0, 12.0]]),     // ‖μ‖ = 13, near the (3,4)-norm 5
            cf_of(&[[1e6, 1.0]]),
        ];
        let b = CfBlock::from_cfs(&rows);
        for m in DistanceMetric::ALL {
            for i in 0..rows.len() {
                for j in (i + 1)..rows.len() {
                    let bound = pair_lower_bound(m, &b, i, j);
                    let dist = pair_in_block(m, &b, i, j);
                    assert!(
                        bound <= dist,
                        "{m} rows ({i},{j}): bound {bound} > distance {dist}"
                    );
                    assert!(bound >= 0.0, "{m} rows ({i},{j}): negative bound {bound}");
                }
            }
        }
    }

    #[test]
    fn pair_lower_bound_bites_on_separated_rows() {
        // A bound that is always 0 would be sound but useless: for rows
        // with well-separated centroid norms it must go positive under
        // every metric.
        let a = cf_of(&[[1.0, 0.0], [1.2, 0.1]]);
        let z = cf_of(&[[800.0, 600.0], [800.4, 600.2]]);
        let b = CfBlock::from_cfs([&a, &z]);
        for m in DistanceMetric::ALL {
            assert!(pair_lower_bound(m, &b, 0, 1) > 0.0, "{m}");
        }
    }

    #[test]
    fn pair_scans_match_scalar_reference() {
        let cfs = kernel_fixture();
        let b = CfBlock::from_cfs(&cfs);
        for m in DistanceMetric::ALL {
            // Scalar closest-pair reference (first minimum).
            let mut best: Option<(usize, usize, f64)> = None;
            let (mut far, mut far_d) = ((0, 1), f64::NEG_INFINITY);
            for i in 0..cfs.len() {
                for j in (i + 1)..cfs.len() {
                    let d = m.distance(&cfs[i], &cfs[j]);
                    if best.is_none_or(|(_, _, bd)| d < bd) {
                        best = Some((i, j, d));
                    }
                    if d > far_d {
                        far = (i, j);
                        far_d = d;
                    }
                }
            }
            let got = closest_pair(m, &b).unwrap();
            let want = best.unwrap();
            assert_eq!((got.0, got.1), (want.0, want.1), "{m} closest pair");
            assert_eq!(got.2.to_bits(), want.2.to_bits(), "{m}");
            let gf = farthest_pair(m, &b).unwrap();
            assert_eq!((gf.0, gf.1), far, "{m} farthest pair");
            assert_eq!(gf.2.to_bits(), far_d.to_bits(), "{m}");
        }
        assert!(farthest_pair(DistanceMetric::D0, &CfBlock::new()).is_none());
        assert!(closest_pair(DistanceMetric::D0, &CfBlock::new()).is_none());
    }

    /// Exercises the empty-operand contract of the kernel for one metric:
    /// debug builds panic on the debug assert, release builds return `+∞`
    /// (never `NaN`, which would poison `closest_among`).
    fn empty_operand_check(metric: DistanceMetric) {
        let mean = [1.0, 2.0];
        let zeros = [0.0, 0.0];
        let full = CfView {
            n: 1.0,
            sse: 0.0,
            mean: &mean,
            mean_c: &zeros,
        };
        let empty = CfView {
            n: 0.0,
            sse: 0.0,
            mean: &zeros,
            mean_c: &zeros,
        };
        #[cfg(debug_assertions)]
        {
            use std::panic::{catch_unwind, AssertUnwindSafe};
            for f in [
                Box::new(|| view_distance(metric, &full, &empty)) as Box<dyn Fn() -> f64>,
                Box::new(|| view_distance(metric, &empty, &full)),
            ] {
                assert!(
                    catch_unwind(AssertUnwindSafe(f)).is_err(),
                    "{metric} did not debug-assert on an empty operand"
                );
            }
        }
        #[cfg(not(debug_assertions))]
        {
            assert_eq!(view_distance(metric, &full, &empty), f64::INFINITY);
            assert_eq!(view_distance(metric, &empty, &full), f64::INFINITY);
        }
    }

    #[test]
    fn empty_operand_contract_d0() {
        empty_operand_check(DistanceMetric::D0);
    }

    #[test]
    fn empty_operand_contract_d1() {
        empty_operand_check(DistanceMetric::D1);
    }

    #[test]
    fn empty_operand_contract_d2() {
        empty_operand_check(DistanceMetric::D2);
    }

    #[test]
    fn empty_operand_contract_d3() {
        empty_operand_check(DistanceMetric::D3);
    }

    #[test]
    fn empty_operand_contract_d4() {
        empty_operand_check(DistanceMetric::D4);
    }

    #[test]
    fn stable_kernel_distances_survive_large_offset() {
        // Two tight dyadic-spread clusters 2⁻³ apart, at the origin and
        // translated by 1e8 (an exact translate: every coordinate is a
        // multiple of ulp(1e8) = 2⁻²⁶). The stable kernel must report the
        // same D0–D4 at both offsets to ~1e-9 relative; the paper's closed
        // forms over (N, LS, SS) collapse entirely here (that failure is
        // pinned by the stability bench's foil).
        const S: f64 = 9.765_625e-4; // 2⁻¹⁰
        const GAP: f64 = 0.125; // 2⁻³
        let cloud = |base: f64| {
            vec![
                Point::xy(base, base),
                Point::xy(base + S, base),
                Point::xy(base, base + S),
            ]
        };
        let pair = |off: f64| {
            (
                Cf::from_points(&cloud(off)),
                Cf::from_points(&cloud(off + GAP)),
            )
        };
        let (a0, b0) = pair(0.0);
        let (a8, b8) = pair(1e8);
        for m in DistanceMetric::ALL {
            let d_origin = view_distance(m, &CfView::of(&a0), &CfView::of(&b0));
            let d_far = view_distance(m, &CfView::of(&a8), &CfView::of(&b8));
            assert!(d_origin > 0.0, "{m} degenerate fixture");
            assert!(
                ((d_far - d_origin) / d_origin).abs() < 1e-9,
                "{m} drifted under translation: {d_origin} vs {d_far}"
            );
        }
    }
}
