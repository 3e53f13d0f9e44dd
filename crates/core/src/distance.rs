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
//! Two kernel families compute these, one per CF backend, and both are
//! always compiled (the `classic-cf` feature only selects which one the
//! pipeline routes through; the stable kernel is the default):
//!
//! * [`classic_distance`] over [`ClassicView`] — the paper's closed forms
//!   on `(N, LS, SS)`:
//!
//!   ```text
//!   D2² = (N₂·SS₁ + N₁·SS₂ − 2·LS₁·LS₂) / (N₁·N₂)
//!   D3² = (2N·SSₘ − 2‖LSₘ‖²) / (N(N−1)),  N = N₁+N₂, subscript m = merged
//!   D4² = ‖LS₁‖²/N₁ + ‖LS₂‖²/N₂ − ‖LSₘ‖²/N
//!   ```
//!
//!   (for D4, note `SSₘ = SS₁+SS₂` cancels out of the deviation
//!   difference). These subtract large near-equal quantities, so they
//!   inherit the classic backend's catastrophic cancellation far from the
//!   origin.
//!
//! * [`stable_distance`] over [`StableView`] — deviation forms on
//!   `(N, μ, SSE)` with the compensated centroid difference
//!   `Δμᵢ = (μ₁ᵢ − μ₂ᵢ) + (c₁ᵢ − c₂ᵢ)` (the leading difference of nearby
//!   means is exact by Sterbenz's lemma, so the Neumaier carries `c`
//!   survive into the result):
//!
//!   ```text
//!   D0² = ‖Δμ‖²                 D1 = Σ|Δμᵢ|
//!   D2² = SSE₁/N₁ + SSE₂/N₂ + ‖Δμ‖²
//!   D3² = 2·SSEₘ/(N−1),  SSEₘ = SSE₁ + SSE₂ + (N₁N₂/N)·‖Δμ‖²
//!   D4² = (N₁N₂/N)·‖Δμ‖²
//!   ```
//!
//!   Every term is translation-invariant, so these stay accurate at any
//!   coordinate offset.
//!
//! Both kernels share one contract for empty operands (`N ≤ 0`): they
//! `debug_assert!` (catching the misuse in debug/test builds) and return
//! `+∞` in release builds, so an empty row can never win a closest-entry
//! scan via `NaN` poisoning. The higher-level [`DistanceMetric::distance`]
//! keeps its hard panic: asking for the distance between empty *clusters*
//! is a caller bug in every build.

use crate::cf::Cf;
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
        active_kernel(self, &cf_view(a), &cf_view(b))
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
// Backend views and metric kernels.
//
// Each kernel is a closed form over its view's fields: no centroid/merge
// materialization, hence no allocation. These run once per child entry per
// tree level for *every* insertion (the §6.1 CPU cost model's inner loop),
// so the allocation-free forms matter. Both the scalar path
// (`DistanceMetric::distance`) and the batched block path
// (`distance_to_row` / `pair_in_block`) call the exact same kernel
// function, so scalar and batched results are bit-identical by
// construction.
// ---------------------------------------------------------------------

/// A borrowed `(N, SS, ‖LS‖², LS)` view of a classic-backend CF (or a
/// `CfBlock` row mirroring one).
#[derive(Debug, Clone, Copy)]
pub struct ClassicView<'a> {
    /// Weighted point count `N`.
    pub n: f64,
    /// Scalar square sum `SS`.
    pub ss: f64,
    /// Memoized `‖LS‖²`.
    pub ls_sq: f64,
    /// Linear sum `LS`.
    pub ls: &'a [f64],
}

impl<'a> ClassicView<'a> {
    /// The view of a classic-backend CF.
    #[must_use]
    pub fn of(cf: &'a crate::cf::classic::Cf) -> Self {
        ClassicView {
            n: cf.n(),
            ss: cf.scalar_stat(),
            ls_sq: cf.vec_stat_sq(),
            ls: cf.vec_stat(),
        }
    }
}

/// A borrowed `(N, SSE, μ, carry)` view of a stable-backend CF (or a
/// `CfBlock` row mirroring one). `mean_c` holds the Neumaier compensation
/// terms of the mean — the deviation kernels fold them into `Δμ` so
/// distances keep ~1 ulp accuracy even at coordinate offsets where the
/// raw mean difference rounds coarsely.
#[derive(Debug, Clone, Copy)]
pub struct StableView<'a> {
    /// Weighted point count `N`.
    pub n: f64,
    /// Sum of squared deviations from the mean (compensation folded in).
    pub sse: f64,
    /// The mean vector μ.
    pub mean: &'a [f64],
    /// Neumaier carry of each mean coordinate.
    pub mean_c: &'a [f64],
}

impl<'a> StableView<'a> {
    /// The view of a stable-backend CF.
    #[must_use]
    pub fn of(cf: &'a crate::cf::stable::Cf) -> Self {
        StableView {
            n: cf.n(),
            sse: cf.scalar_stat(),
            mean: cf.mean(),
            mean_c: cf.mean_carry(),
        }
    }
}

/// Distance between two classic-backend views: the paper's closed forms
/// over `(N, LS, SS)`. Empty operands (`N ≤ 0`) debug-assert and return
/// `+∞` in release builds (see the module docs).
#[must_use]
pub fn classic_distance(metric: DistanceMetric, a: &ClassicView<'_>, b: &ClassicView<'_>) -> f64 {
    if a.n <= 0.0 || b.n <= 0.0 {
        debug_assert!(false, "distance with an empty CF operand");
        return f64::INFINITY;
    }
    let (na, nb) = (a.n, b.n);
    match metric {
        DistanceMetric::D0 => {
            a.ls.iter()
                .zip(b.ls)
                .map(|(&x, &y)| {
                    let d = x / na - y / nb;
                    d * d
                })
                .sum::<f64>()
                .sqrt()
        }
        DistanceMetric::D1 => {
            a.ls.iter()
                .zip(b.ls)
                .map(|(&x, &y)| (x / na - y / nb).abs())
                .sum()
        }
        DistanceMetric::D2 => {
            let num = nb * a.ss + na * b.ss - 2.0 * dot(a.ls, b.ls);
            (num.max(0.0) / (na * nb)).sqrt()
        }
        DistanceMetric::D3 => {
            let n = na + nb;
            if n <= 1.0 {
                return 0.0; // fractional weights: merged "cluster" of ≤ one point
            }
            let ss = a.ss + b.ss;
            // ‖LS_a + LS_b‖² without materializing the merged vector: the
            // memoized self-norms are bit-identical to recomputing
            // dot(ls, ls), so this is one dot product instead of three.
            // Summed self-norms first so the result is bit-symmetric in
            // (a, b) — the agglomerators evaluate pairs in either order.
            let merged = (a.ls_sq + b.ls_sq) + 2.0 * dot(a.ls, b.ls);
            let num = 2.0 * n * ss - 2.0 * merged;
            (num.max(0.0) / (n * (n - 1.0))).sqrt()
        }
        DistanceMetric::D4 => {
            let n = na + nb;
            // Self-norms summed first: bit-symmetric in (a, b), as above.
            let merged = (a.ls_sq + b.ls_sq) + 2.0 * dot(a.ls, b.ls);
            let inc = a.ls_sq / na + b.ls_sq / nb - merged / n;
            inc.max(0.0).sqrt()
        }
    }
}

/// Distance between two stable-backend views: translation-invariant
/// deviation forms over `(N, μ, SSE)` with the compensated centroid
/// difference `Δμᵢ = (μ_aᵢ − μ_bᵢ) + (c_aᵢ − c_bᵢ)`. Empty operands
/// (`N ≤ 0`) debug-assert and return `+∞` in release builds (see the
/// module docs).
#[must_use]
pub fn stable_distance(metric: DistanceMetric, a: &StableView<'_>, b: &StableView<'_>) -> f64 {
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

// The feature-selected routing: which view/kernel pair the pipeline's
// `Cf` alias maps onto. Both kernels stay compiled either way (the
// stability bench compares them side by side in one binary).

#[cfg(feature = "classic-cf")]
use classic_distance as active_kernel;
#[cfg(not(feature = "classic-cf"))]
use stable_distance as active_kernel;

#[cfg(feature = "classic-cf")]
fn cf_view(cf: &Cf) -> ClassicView<'_> {
    ClassicView::of(cf)
}

#[cfg(not(feature = "classic-cf"))]
fn cf_view(cf: &Cf) -> StableView<'_> {
    StableView::of(cf)
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
// construction; the lane path (stable+`simd` builds, `crate::simd`) is
// bit-identical at dim ≤ 4 and within `SIMD_TOLERANCE_REL` above that.
// ---------------------------------------------------------------------

/// Lane width of the explicit-SIMD kernels (`f64x4`), and therefore the
/// row-stride granule of [`CfBlock`]'s vector slabs on the stable backend.
pub const LANE_WIDTH: usize = 4;

/// A flat, cache-resident mirror of a sequence of CFs: one stride-padded
/// vector slab (μ by default plus its carry slab, or `LS` under
/// `classic-cf`) and parallel `(N, scalar stat, ‖vec‖²)` arrays.
///
/// On the stable backend each vector row occupies [`CfBlock::stride`]
/// slots — `dim` live coordinates followed by zero padding up to the next
/// multiple of [`LANE_WIDTH`] — so the lane kernels can sweep row pairs in
/// full lanes with no scalar tail (zero padding contributes exactly `0`
/// to every deviation sum). Classic builds keep `stride == dim`: the
/// classic kernels are scalar-only and their memory layout predates the
/// padding. The row accessors always return exactly `dim` coordinates, so
/// the padding is invisible outside the lane kernels.
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
    /// Per-row scalar statistic: `SS` (classic) or folded `SSE` (stable).
    scalar: Vec<f64>,
    /// Per-row memoized squared norm of the vector statistic (copied from
    /// [`Cf::vec_stat_sq`]).
    vec_sq: Vec<f64>,
    /// Row-major vector-statistic slab: row `i` occupies
    /// `vec[i*dim .. (i+1)*dim]`. `LS` (classic) or μ (stable).
    vec: Vec<f64>,
    /// Row-major Neumaier carry slab for the mean (same striding as
    /// `vec`) — the deviation kernels need it for the compensated Δμ.
    #[cfg(not(feature = "classic-cf"))]
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
        b.scalar.reserve_exact(rows);
        b.vec_sq.reserve_exact(rows);
        b.vec.reserve_exact(slots);
        #[cfg(not(feature = "classic-cf"))]
        b.vec_c.reserve_exact(slots);
        b
    }

    /// A block mirroring `cfs` in order.
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
    /// multiple of [`LANE_WIDTH`] on the stable backend (the padding is
    /// zero-filled), exactly `dim` under `classic-cf`.
    #[must_use]
    pub fn stride(&self) -> usize {
        #[cfg(feature = "classic-cf")]
        {
            self.dim
        }
        #[cfg(not(feature = "classic-cf"))]
        {
            self.dim.next_multiple_of(LANE_WIDTH)
        }
    }

    /// Heap bytes held by the block's slabs — *capacity*, not length,
    /// because the allocation is what occupies memory. Feeds the memory
    /// gauge's `cf_blocks` component ([`crate::obs::mem`]).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        #[cfg_attr(feature = "classic-cf", allow(unused_mut))]
        let mut slots = self.n.capacity()
            + self.scalar.capacity()
            + self.vec_sq.capacity()
            + self.vec.capacity();
        #[cfg(not(feature = "classic-cf"))]
        {
            slots += self.vec_c.capacity();
        }
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

    /// Appends a row mirroring `cf`.
    ///
    /// # Panics
    ///
    /// Panics if `cf`'s dimension disagrees with earlier rows.
    pub fn push(&mut self, cf: &Cf) {
        self.fix_dim(cf.dim());
        self.n.push(cf.n());
        self.scalar.push(cf.scalar_stat());
        self.vec_sq.push(cf.vec_stat_sq());
        let padded = self.n.len() * self.stride();
        self.vec.extend_from_slice(cf.vec_stat());
        self.vec.resize(padded, 0.0);
        #[cfg(not(feature = "classic-cf"))]
        {
            self.vec_c.extend_from_slice(cf.mean_carry());
            self.vec_c.resize(padded, 0.0);
        }
    }

    /// Overwrites row `i` with `cf`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range `i` or dimension mismatch.
    pub fn set(&mut self, i: usize, cf: &Cf) {
        self.fix_dim(cf.dim());
        self.n[i] = cf.n();
        self.scalar[i] = cf.scalar_stat();
        self.vec_sq[i] = cf.vec_stat_sq();
        let s = self.stride();
        self.vec[i * s..i * s + self.dim].copy_from_slice(cf.vec_stat());
        #[cfg(not(feature = "classic-cf"))]
        self.vec_c[i * s..i * s + self.dim].copy_from_slice(cf.mean_carry());
    }

    /// Inserts a row mirroring `cf` at position `i`, shifting later rows.
    ///
    /// # Panics
    ///
    /// Panics if `i > len()` or on dimension mismatch.
    pub fn insert(&mut self, i: usize, cf: &Cf) {
        self.fix_dim(cf.dim());
        self.n.insert(i, cf.n());
        self.scalar.insert(i, cf.scalar_stat());
        self.vec_sq.insert(i, cf.vec_stat_sq());
        let s = self.stride();
        let pad = std::iter::repeat_n(0.0, s - self.dim);
        self.vec.splice(
            i * s..i * s,
            cf.vec_stat().iter().copied().chain(pad.clone()),
        );
        #[cfg(not(feature = "classic-cf"))]
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
        self.scalar.remove(i);
        self.vec_sq.remove(i);
        let s = self.stride();
        self.vec.drain(i * s..(i + 1) * s);
        #[cfg(not(feature = "classic-cf"))]
        self.vec_c.drain(i * s..(i + 1) * s);
    }

    /// Removes every row (the dimensionality stays fixed).
    pub fn clear(&mut self) {
        self.n.clear();
        self.scalar.clear();
        self.vec_sq.clear();
        self.vec.clear();
        #[cfg(not(feature = "classic-cf"))]
        self.vec_c.clear();
    }

    /// Row `i`'s weighted point count `N`.
    #[must_use]
    pub fn row_n(&self, i: usize) -> f64 {
        self.n[i]
    }

    /// Row `i`'s scalar statistic: `SS` (classic) or folded `SSE`
    /// (stable).
    #[must_use]
    pub fn row_scalar(&self, i: usize) -> f64 {
        self.scalar[i]
    }

    /// Row `i`'s memoized squared vector-statistic norm.
    #[must_use]
    pub fn row_vec_sq(&self, i: usize) -> f64 {
        self.vec_sq[i]
    }

    /// Row `i`'s vector-statistic slice inside the slab: μ (stable) or
    /// `LS` (classic). Exactly `dim` coordinates — padding excluded.
    #[must_use]
    pub fn row_vec(&self, i: usize) -> &[f64] {
        let s = self.stride();
        &self.vec[i * s..i * s + self.dim]
    }

    /// Row `i`'s mean-carry slice inside the carry slab. Exactly `dim`
    /// coordinates — padding excluded.
    #[cfg(not(feature = "classic-cf"))]
    #[must_use]
    pub fn row_vec_c(&self, i: usize) -> &[f64] {
        let s = self.stride();
        &self.vec_c[i * s..i * s + self.dim]
    }

    /// The full vector slab including padding, for the lane kernels.
    #[cfg(all(feature = "simd", not(feature = "classic-cf")))]
    pub(crate) fn vec_slab(&self) -> &[f64] {
        &self.vec
    }

    /// The full mean-carry slab including padding, for the lane kernels.
    #[cfg(all(feature = "simd", not(feature = "classic-cf")))]
    pub(crate) fn vec_c_slab(&self) -> &[f64] {
        &self.vec_c
    }

    /// The per-row `N` slab, for the lane kernels.
    #[cfg(all(feature = "simd", not(feature = "classic-cf")))]
    pub(crate) fn n_slab(&self) -> &[f64] {
        &self.n
    }

    /// The per-row scalar-statistic (`SSE`) slab, for the lane kernels.
    #[cfg(all(feature = "simd", not(feature = "classic-cf")))]
    pub(crate) fn scalar_slab(&self) -> &[f64] {
        &self.scalar
    }
}

#[cfg(feature = "classic-cf")]
fn row_view(block: &CfBlock, i: usize) -> ClassicView<'_> {
    ClassicView {
        n: block.row_n(i),
        ss: block.row_scalar(i),
        ls_sq: block.row_vec_sq(i),
        ls: block.row_vec(i),
    }
}

#[cfg(not(feature = "classic-cf"))]
fn row_view(block: &CfBlock, i: usize) -> StableView<'_> {
    StableView {
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
    active_kernel(metric, &cf_view(a), &row_view(block, i))
}

// ---------------------------------------------------------------------
// Kernel routing: every batch scan exists in a scalar form (the oracle —
// bit-identical to `DistanceMetric::distance` by construction) and, on
// the default stable+`simd` build, a lane form in `crate::simd`. The
// production names (`pair_in_block`, `closest_among`, …) route to the
// lane kernels when they are compiled in and to the scalar forms
// otherwise. Lane and scalar results agree bit-for-bit at dim ≤ 4 (the
// small-dim specializations keep scalar accumulation order) and within
// [`SIMD_TOLERANCE_REL`] above that (lane reduction reorders the sums).
// ---------------------------------------------------------------------

/// Which batched kernel family the production scans route through:
/// `"lane"` on stable+`simd` builds, `"scalar"` otherwise. Recorded in
/// the bench JSON so `bench_gate` baselines name the path they measured.
#[cfg(all(feature = "simd", not(feature = "classic-cf")))]
pub const KERNEL_KIND: &str = "lane";
/// Which batched kernel family the production scans route through:
/// `"lane"` on stable+`simd` builds, `"scalar"` otherwise. Recorded in
/// the bench JSON so `bench_gate` baselines name the path they measured.
#[cfg(not(all(feature = "simd", not(feature = "classic-cf"))))]
pub const KERNEL_KIND: &str = "scalar";

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
    active_kernel(metric, &row_view(block, i), &row_view(block, j))
}

/// Distance between block rows `i` and `j` — the production form:
/// lane-computed on stable+`simd` builds (within [`SIMD_TOLERANCE_REL`]
/// of [`pair_in_block_scalar`], bit-identical at dim ≤ 4), scalar
/// otherwise.
///
/// # Panics
///
/// Panics if either index is out of range.
#[must_use]
#[inline]
pub fn pair_in_block(metric: DistanceMetric, block: &CfBlock, i: usize, j: usize) -> f64 {
    #[cfg(all(feature = "simd", not(feature = "classic-cf")))]
    {
        crate::simd::pair_in_block(metric, block, i, j)
    }
    #[cfg(not(all(feature = "simd", not(feature = "classic-cf"))))]
    {
        pair_in_block_scalar(metric, block, i, j)
    }
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
/// Routes through the lane kernels on stable+`simd` builds.
#[must_use]
#[inline]
pub fn closest_among(metric: DistanceMetric, ent: &Cf, block: &CfBlock) -> Option<(usize, f64)> {
    #[cfg(all(feature = "simd", not(feature = "classic-cf")))]
    {
        crate::simd::closest_among(metric, ent, block)
    }
    #[cfg(not(all(feature = "simd", not(feature = "classic-cf"))))]
    {
        closest_among_scalar(metric, ent, block)
    }
}

/// Per-row distance by whichever kernel family the production scans use
/// — the evaluation the pruned scan must share with [`closest_among`] so
/// prune-on and prune-off descents see identical distances.
#[inline]
fn row_distance_production(metric: DistanceMetric, ent: &Cf, block: &CfBlock, i: usize) -> f64 {
    #[cfg(all(feature = "simd", not(feature = "classic-cf")))]
    {
        crate::simd::distance_to_row(metric, ent, block, i)
    }
    #[cfg(not(all(feature = "simd", not(feature = "classic-cf"))))]
    {
        distance_to_row(metric, ent, block, i)
    }
}

/// Conservative slack of the stable-backend D0 prune bound, relative to
/// the *sum* of the two centroid norms being compared.
///
/// The stable backend's cached `‖μ‖²` ignores the Neumaier carries that
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
/// On the classic backend the cached-norm bound is exact (the memo is
/// refreshed by exact recomputation), so no slack is needed. On the
/// stable backend the bound is widened by [`D0_PRUNE_SLACK_REL`] to
/// absorb the carry/rounding mismatch between the uncompensated cached
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
    if metric != DistanceMetric::D0 {
        let best = closest_among(metric, ent, block);
        return (best, block.len() as u64, 0);
    }
    // Centroid norms from the cached squared vector-statistic norms: the
    // vector statistic is LS on the classic backend (divide by N for the
    // centroid) and μ itself on the stable one.
    #[cfg(feature = "classic-cf")]
    let centroid_norm = |sq: f64, n: f64| sq.sqrt() / n;
    #[cfg(not(feature = "classic-cf"))]
    let centroid_norm = |sq: f64, _n: f64| sq.sqrt();
    let ent_norm = centroid_norm(ent.vec_stat_sq(), ent.n());
    let mut best: Option<(usize, f64)> = None;
    let mut best_d = f64::INFINITY;
    let mut evaluated = 0u64;
    let mut pruned = 0u64;
    for i in 0..block.len() {
        let row_norm = centroid_norm(block.row_vec_sq(i), block.row_n(i));
        #[cfg(feature = "classic-cf")]
        let bound = (ent_norm - row_norm).abs();
        #[cfg(not(feature = "classic-cf"))]
        let bound = (ent_norm - row_norm).abs() - D0_PRUNE_SLACK_REL * (ent_norm + row_norm);
        if bound > best_d {
            pruned += 1;
            continue;
        }
        evaluated += 1;
        let d = row_distance_production(metric, ent, block, i);
        if d < best_d {
            best_d = d;
            best = Some((i, d));
        }
    }
    (best, evaluated, pruned)
}

/// Cheap lower bound on `pair_in_block(metric, block, i, j)` computed
/// from the rows' cached summary statistics alone — no vector sweep.
///
/// This is the candidate prune of the Phase-3 agglomerator
/// ([`crate::hierarchical`]): a row pair whose bound strictly exceeds
/// the best distance found so far provably cannot win a strict-`<`
/// nearest-neighbor scan, so the O(dim) kernel call is skipped.
///
/// Derivation (stable backend, where the cached triple per row is
/// `(N, SSE, ‖μ‖²)`): the reverse triangle inequality gives
/// `‖Δμ‖ ≥ |‖μ_a‖ − ‖μ_b‖|`; widening by [`D0_PRUNE_SLACK_REL`] ·
/// `(‖μ_a‖+‖μ_b‖)` (the PR-4 slack argument: cached norms ignore the
/// Neumaier carries the kernels fold in, and lane kernels reorder sums,
/// every error term relative to the norms) yields a true lower bound
/// `d0b ≤ ‖Δμ‖`. The deviation forms are monotone in `‖Δμ‖²` with all
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
/// Classic backend: only the D0/D1 centroid-norm bound is available —
/// `SSE = SS − ‖LS‖²/N` suffers exactly the catastrophic cancellation
/// that motivated the stable backend, so a cached-stat reconstruction
/// of the D2/D3/D4 deviation terms cannot be trusted as a *lower*
/// bound; those metrics return 0.0 (never prunes) there. The D0/D1
/// bound gets the same relative slack as the stable path: the cached
/// `‖LS‖²` is one rounding sequence and the kernel's coordinate-wise
/// `Σ(Δc)²` another, so the two can disagree by a few ulps even in
/// exact arithmetic's favor — observed live as a 1-ulp overshoot that
/// tripped the audit's `bound ≤ distance` invariant.
///
/// # Panics
///
/// Panics if either index is out of range.
#[must_use]
pub fn pair_lower_bound(metric: DistanceMetric, block: &CfBlock, i: usize, j: usize) -> f64 {
    #[cfg(feature = "classic-cf")]
    {
        match metric {
            DistanceMetric::D0 | DistanceMetric::D1 => {
                let ca = row_centroid_norm(block, i);
                let cb = row_centroid_norm(block, j);
                ((ca - cb).abs() - D0_PRUNE_SLACK_REL * (ca + cb)).max(0.0)
            }
            _ => 0.0,
        }
    }
    #[cfg(not(feature = "classic-cf"))]
    {
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
}

/// Row `i`'s centroid norm from its cached squared vector-statistic norm:
/// `‖μ‖` on the stable backend, `‖LS‖/N` on the classic one. The norm
/// [`pair_lower_bound`] bounds with, and the key Phase 3's norm-ordered
/// neighbour walk sorts rows by.
#[must_use]
#[inline]
pub fn row_centroid_norm(block: &CfBlock, i: usize) -> f64 {
    #[cfg(feature = "classic-cf")]
    {
        block.row_vec_sq(i).sqrt() / block.row_n(i)
    }
    #[cfg(not(feature = "classic-cf"))]
    {
        block.row_vec_sq(i).sqrt()
    }
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
/// candidate's SSE and gives 0. On the classic backend it is 0 for every
/// metric — never stop — matching that backend's D2–D4 [`pair_lower_bound`].
pub(crate) fn annulus_stop_bound(
    metric: DistanceMetric,
    block: &CfBlock,
    i: usize,
    n_min: f64,
) -> impl Fn(f64) -> f64 {
    #[cfg(feature = "classic-cf")]
    {
        let _ = (metric, block, i, n_min);
        |_| 0.0
    }
    #[cfg(not(feature = "classic-cf"))]
    {
        let q = row_centroid_norm(block, i);
        let (na, sa) = (block.row_n(i), block.row_scalar(i));
        let shave = 1.0 - D0_PRUNE_SLACK_REL;
        move |norm| {
            let t = crate::annulus::gap_bound(q, norm);
            match metric {
                DistanceMetric::D0 | DistanceMetric::D1 => t,
                DistanceMetric::D2 => (sa / na + t * t).max(0.0).sqrt() * shave,
                DistanceMetric::D3 => 0.0,
                DistanceMetric::D4 => {
                    ((na * n_min / (na + n_min)) * (t * t)).max(0.0).sqrt() * shave
                }
            }
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
/// Returns `None` when the block has fewer than two rows. Routes through
/// the lane kernels on stable+`simd` builds.
#[must_use]
#[inline]
pub fn closest_pair(metric: DistanceMetric, block: &CfBlock) -> Option<(usize, usize, f64)> {
    #[cfg(all(feature = "simd", not(feature = "classic-cf")))]
    {
        crate::simd::closest_pair(metric, block)
    }
    #[cfg(not(all(feature = "simd", not(feature = "classic-cf"))))]
    {
        closest_pair_scalar(metric, block)
    }
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
/// fewer than two rows. Routes through the lane kernels on stable+`simd`
/// builds.
#[must_use]
#[inline]
pub fn farthest_pair(metric: DistanceMetric, block: &CfBlock) -> Option<(usize, usize, f64)> {
    #[cfg(all(feature = "simd", not(feature = "classic-cf")))]
    {
        crate::simd::farthest_pair(metric, block)
    }
    #[cfg(not(all(feature = "simd", not(feature = "classic-cf"))))]
    {
        farthest_pair_scalar(metric, block)
    }
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
        match self {
            ThresholdKind::Diameter => cf.diameter(),
            ThresholdKind::Radius => cf.radius(),
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
            assert_eq!(b.row_scalar(i), cf.scalar_stat());
            assert_eq!(b.row_vec_sq(i).to_bits(), cf.vec_stat_sq().to_bits());
            assert_eq!(b.row_vec(i), cf.vec_stat());
            #[cfg(not(feature = "classic-cf"))]
            assert_eq!(b.row_vec_c(i), cf.mean_carry());
        }
    }

    #[test]
    fn block_mutators_keep_rows_in_sync() {
        let cfs = kernel_fixture();
        let mut b = CfBlock::from_cfs(&cfs[..3]);
        b.set(1, &cfs[3]);
        assert_eq!(b.row_vec(1), cfs[3].vec_stat());
        b.insert(0, &cfs[4]);
        assert_eq!(b.len(), 4);
        assert_eq!(b.row_vec(0), cfs[4].vec_stat());
        assert_eq!(b.row_vec(1), cfs[0].vec_stat());
        b.remove(2);
        assert_eq!(b.len(), 3);
        assert_eq!(b.row_vec(2), cfs[2].vec_stat());
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.dim(), 2, "dim survives clear");
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

    #[cfg(not(feature = "classic-cf"))]
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
        // dendrograms across paths require d(i,j) == d(j,i) exactly. The
        // classic D3/D4 merged-norm assembly once violated this by one
        // ulp through association order.
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
        // pair, every metric, both backends — including weighted CFs,
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
        // with well-separated centroid norms it must go positive — D0/D1
        // on both backends, the derived D2/D3/D4 forms on the stable one.
        let a = cf_of(&[[1.0, 0.0], [1.2, 0.1]]);
        let z = cf_of(&[[800.0, 600.0], [800.4, 600.2]]);
        let b = CfBlock::from_cfs([&a, &z]);
        for m in [DistanceMetric::D0, DistanceMetric::D1] {
            assert!(pair_lower_bound(m, &b, 0, 1) > 0.0, "{m}");
        }
        #[cfg(not(feature = "classic-cf"))]
        for m in [DistanceMetric::D2, DistanceMetric::D3, DistanceMetric::D4] {
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

    /// Exercises the shared empty-operand contract of both kernels for
    /// one metric: debug builds panic on the debug assert, release builds
    /// return `+∞` (never `NaN`, which would poison `closest_among`).
    fn empty_operand_check(metric: DistanceMetric) {
        let ls = [1.0, 2.0];
        let zeros = [0.0, 0.0];
        let full_c = ClassicView {
            n: 1.0,
            ss: 5.0,
            ls_sq: 5.0,
            ls: &ls,
        };
        let empty_c = ClassicView {
            n: 0.0,
            ss: 0.0,
            ls_sq: 0.0,
            ls: &zeros,
        };
        let full_s = StableView {
            n: 1.0,
            sse: 0.0,
            mean: &ls,
            mean_c: &zeros,
        };
        let empty_s = StableView {
            n: 0.0,
            sse: 0.0,
            mean: &zeros,
            mean_c: &zeros,
        };
        #[cfg(debug_assertions)]
        {
            use std::panic::{catch_unwind, AssertUnwindSafe};
            for f in [
                Box::new(|| classic_distance(metric, &full_c, &empty_c)) as Box<dyn Fn() -> f64>,
                Box::new(|| classic_distance(metric, &empty_c, &full_c)),
                Box::new(|| stable_distance(metric, &full_s, &empty_s)),
                Box::new(|| stable_distance(metric, &empty_s, &full_s)),
            ] {
                assert!(
                    catch_unwind(AssertUnwindSafe(f)).is_err(),
                    "{metric} did not debug-assert on an empty operand"
                );
            }
        }
        #[cfg(not(debug_assertions))]
        {
            assert_eq!(classic_distance(metric, &full_c, &empty_c), f64::INFINITY);
            assert_eq!(classic_distance(metric, &empty_c, &full_c), f64::INFINITY);
            assert_eq!(stable_distance(metric, &full_s, &empty_s), f64::INFINITY);
            assert_eq!(stable_distance(metric, &empty_s, &full_s), f64::INFINITY);
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

    /// Raw point clouds for cross-backend comparisons (well-conditioned:
    /// near the origin, O(1) spreads).
    fn parity_clouds() -> Vec<Vec<Point>> {
        vec![
            vec![Point::xy(0.0, 0.0), Point::xy(1.0, 1.0)],
            vec![Point::xy(5.0, -3.0)],
            vec![
                Point::xy(2.5, 2.5),
                Point::xy(2.5, 2.5),
                Point::xy(3.0, 2.0),
            ],
            vec![Point::xy(-7.0, 4.0), Point::xy(-6.5, 4.5)],
            vec![Point::xy(100.0, 100.0)],
            vec![
                Point::xy(0.1, 0.2),
                Point::xy(0.3, 0.4),
                Point::xy(0.5, 0.6),
                Point::xy(0.7, 0.8),
            ],
        ]
    }

    #[test]
    fn stable_kernel_parity_with_classic_on_well_conditioned_data() {
        // Both kernel families are always compiled, so the parity claim —
        // same distances (within round-off) and the same winner index on
        // well-conditioned data — is checked regardless of which backend
        // the pipeline alias selects.
        let clouds = parity_clouds();
        let classics: Vec<crate::cf::classic::Cf> = clouds
            .iter()
            .map(crate::cf::classic::Cf::from_points)
            .collect();
        let stables: Vec<crate::cf::stable::Cf> = clouds
            .iter()
            .map(crate::cf::stable::Cf::from_points)
            .collect();
        let probe_pts = vec![Point::xy(1.0, -1.0), Point::xy(2.0, 0.5)];
        let probe_c = crate::cf::classic::Cf::from_points(&probe_pts);
        let probe_s = crate::cf::stable::Cf::from_points(&probe_pts);
        for m in DistanceMetric::ALL {
            let mut win_c: Option<(usize, f64)> = None;
            let mut win_s: Option<(usize, f64)> = None;
            for i in 0..clouds.len() {
                let dc = classic_distance(
                    m,
                    &ClassicView::of(&probe_c),
                    &ClassicView::of(&classics[i]),
                );
                let ds =
                    stable_distance(m, &StableView::of(&probe_s), &StableView::of(&stables[i]));
                let scale = dc.abs().max(1.0);
                assert!(
                    (dc - ds).abs() < 1e-9 * scale,
                    "{m} cloud {i}: classic {dc} vs stable {ds}"
                );
                if win_c.is_none_or(|(_, d)| dc < d) {
                    win_c = Some((i, dc));
                }
                if win_s.is_none_or(|(_, d)| ds < d) {
                    win_s = Some((i, ds));
                }
            }
            assert_eq!(
                win_c.map(|(i, _)| i),
                win_s.map(|(i, _)| i),
                "{m} winner index diverged between backends"
            );
        }
    }

    #[test]
    fn stable_kernel_distances_survive_large_offset() {
        // Two tight dyadic-spread clusters 2⁻³ apart, at the origin and
        // translated by 1e8 (an exact translate: every coordinate is a
        // multiple of ulp(1e8) = 2⁻²⁶). The stable kernel must report the
        // same D0–D4 at both offsets to ~1e-9 relative; the classic closed
        // forms collapse entirely here (that failure is pinned by the
        // translation-invariance suite and the stability bench).
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
                crate::cf::stable::Cf::from_points(&cloud(off)),
                crate::cf::stable::Cf::from_points(&cloud(off + GAP)),
            )
        };
        let (a0, b0) = pair(0.0);
        let (a8, b8) = pair(1e8);
        for m in DistanceMetric::ALL {
            let d_origin = stable_distance(m, &StableView::of(&a0), &StableView::of(&b0));
            let d_far = stable_distance(m, &StableView::of(&a8), &StableView::of(&b8));
            assert!(d_origin > 0.0, "{m} degenerate fixture");
            assert!(
                ((d_far - d_origin) / d_origin).abs() < 1e-9,
                "{m} drifted under translation: {d_origin} vs {d_far}"
            );
        }
    }
}
