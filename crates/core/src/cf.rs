//! The Clustering Feature (CF) — the paper's central data structure, in
//! BETULA's numerically stable `(N, μ, SSE)` form.
//!
//! **Definition 4.1**: for a cluster of `N` `d`-dimensional points `{Xᵢ}`,
//! `CF = (N, LS, SS)` where `LS = Σ Xᵢ` is the linear sum and `SS = Σ Xᵢ·Xᵢ`
//! is the (scalar) square sum. The **CF Additivity Theorem (4.1)** — merging
//! disjoint clusters adds their CFs component-wise — is what lets BIRCH
//! cluster incrementally: centroid `X0` (eq. 1), radius `R` (eq. 2),
//! diameter `D` (eq. 3) and the inter-cluster distances `D0…D4` (eqs. 4–8)
//! are all computable from CFs alone, without storing the points.
//!
//! The paper's triple is algebraically exact but *numerically* treacherous:
//! every quality-bearing statistic evaluates a difference of large, nearly
//! equal terms (`SS − ‖LS‖²/N` and friends). For a tight cluster at a large
//! coordinate offset the true deviation falls below the f64 rounding of the
//! operands and the clamped difference silently collapses to 0 —
//! catastrophic cancellation. BETULA (Lang & Schubert, PAPERS.md) replaces
//! the raw sums with the *translation-invariant* statistics
//!
//! * `N` — weighted point count (unchanged),
//! * `μ = LS / N` — the mean, and
//! * `SSE = Σ wᵢ‖Xᵢ − μ‖²` — the sum of squared deviations,
//!
//! updated incrementally (Welford-style). Radius, diameter and the
//! deviation-form distances then read `SSE` *directly* — no cancelling
//! subtraction ever happens, so shifting the data by 1e8 does not change
//! a single statistic beyond input rounding. The additivity theorem holds
//! in this form too (the merge rule below). The paper's `(N, LS, SS)`
//! triple survives only as the cancellation foil of the `cf_stability`
//! bench.
//!
//! On top of BETULA's algebra the CF compensates both accumulators
//! (Neumaier/Kahan via error-free [`two_sum`]): the mean is kept as a
//! `mean + mean_c` pair (per-dimension carry) and `SSE` as `sse + sse_c`.
//! Plain Welford at offset 1e8 still rounds each mean update at
//! `ulp(1e8) ≈ 1.5e-8`, which leaks into the deviations; the compensated
//! pair keeps the mean accurate to ~1 ulp *of the deviations*, driving the
//! relative error of radius/D4 to ~1e-15 where the bench demands ≤ 1e-9
//! (`BENCH_cf_stability.json`).
//!
//! Merge/subtract rules (the update is the `nb = w` singleton case, routed
//! through the same code so `add ≡ merge` bit-for-bit):
//!
//! ```text
//! merge:    n' = na + nb;   Δ = μb − μa
//!           μ' = μa + (nb/n')·Δ
//!           SSE' = SSEa + SSEb + (na·nb/n')·‖Δ‖²
//! subtract: na' = n − nb    (inverse: recover cluster a from merged m)
//!           μa' = μ + (nb/na')·(μ − μb)
//!           SSEa' = SSE − SSEb − (na'·nb/n)·‖μa' − μb‖²,  clamped ≥ 0
//! ```
//!
//! The squared mean norm `‖μ‖²` is memoized ([`Cf::mean_sq`]) and
//! refreshed by exact recomputation after every mutation of the mean, so
//! it stays bit-identical to a from-scratch `dot(μ, μ)`.
//!
//! Weights: the paper allows a weighted clustering function (§1) and the
//! image application (§6.8) weights pixels. A point `x` with weight `w` is
//! the singleton CF `(w, x, 0)`; with all weights 1 this is the paper's CF.

use crate::point::{dot, Point};
use crate::quad::{quick_two_sum, two_sum};
use std::fmt;

/// Relative dust threshold for [`Cf::subtract`]: a residual weight at or
/// below `N_DUST_REL` times the pre-subtraction weight is floating-point
/// dust, not a real cluster, and snaps to the empty CF. The same constant
/// makes the "cannot subtract more than is present" guard relative.
const N_DUST_REL: f64 = 1e-9;

/// A Clustering Feature in the `(N, μ, SSE)` representation, with
/// Neumaier-compensated mean and deviation-sum accumulators.
#[derive(Clone, PartialEq)]
pub struct Cf {
    /// Total (weighted) number of points, `N`.
    n: f64,
    /// Mean `μ = LS / N` (leading component).
    mean: Box<[f64]>,
    /// Per-dimension compensation carry: the true mean is `mean + mean_c`,
    /// with `|mean_c[i]| ≲ ulp(mean[i])`.
    mean_c: Box<[f64]>,
    /// Sum of squared deviations `SSE = Σ wᵢ‖Xᵢ − μ‖²` (leading component).
    sse: f64,
    /// Compensation carry for `sse`.
    sse_c: f64,
    /// Memoized `‖μ‖² = dot(mean, mean)`, refreshed on every mutation of
    /// `mean` by exact recomputation.
    mean_sq: f64,
}

impl Cf {
    /// An empty CF of dimensionality `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn empty(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            n: 0.0,
            mean: vec![0.0; dim].into_boxed_slice(),
            mean_c: vec![0.0; dim].into_boxed_slice(),
            sse: 0.0,
            sse_c: 0.0,
            mean_sq: 0.0,
        }
    }

    /// The CF of a single unweighted point.
    #[must_use]
    pub fn from_point(p: &Point) -> Self {
        Self::from_weighted_point(p, 1.0)
    }

    /// Heap bytes owned by this CF (the boxed `μ` and carry slabs); the
    /// struct itself is counted by whoever stores it. Feeds the memory
    /// gauge's accounting against budget M ([`crate::obs::mem`]).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        (self.mean.len() + self.mean_c.len()) * std::mem::size_of::<f64>()
    }

    /// The CF of a single point with weight `w > 0`: `(w, p, 0)` — a
    /// singleton has zero deviation regardless of weight.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not finite and positive.
    #[must_use]
    pub fn from_weighted_point(p: &Point, w: f64) -> Self {
        assert!(w.is_finite() && w > 0.0, "weight must be positive, got {w}");
        let mean: Box<[f64]> = p.coords().into();
        let mean_sq = dot(&mean, &mean);
        Self {
            n: w,
            mean_c: vec![0.0; p.dim()].into_boxed_slice(),
            mean,
            sse: 0.0,
            sse_c: 0.0,
            mean_sq,
        }
    }

    /// The CF of a batch of unweighted points.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or dimensions disagree.
    #[must_use]
    pub fn from_points<'a, I: IntoIterator<Item = &'a Point>>(points: I) -> Self {
        let mut it = points.into_iter();
        let first = it.next().expect("from_points needs at least one point");
        let mut cf = Self::from_point(first);
        for p in it {
            cf.add_point(p);
        }
        cf
    }

    /// Dimensionality `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Weighted point count `N`.
    #[must_use]
    pub fn n(&self) -> f64 {
        self.n
    }

    /// Whether the CF summarizes no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0.0
    }

    /// The mean `μ` (leading component; see [`Cf::mean_carry`] for the
    /// compensation term).
    #[must_use]
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The per-dimension compensation carry: the best estimate of the
    /// true mean is `mean()[i] + mean_carry()[i]`. The deviation-form
    /// distance kernels consume it so differences of means keep full
    /// precision at large coordinate offsets.
    #[must_use]
    pub fn mean_carry(&self) -> &[f64] {
        &self.mean_c
    }

    /// Sum of squared deviations `SSE`, compensation folded in.
    #[must_use]
    pub fn sse(&self) -> f64 {
        self.sse + self.sse_c
    }

    /// Memoized `‖μ‖²`. Bit-identical to recomputing `dot(mean, mean)`
    /// from scratch: every mutation of the mean refreshes the memo by exact
    /// recomputation, so callers may substitute this value anywhere that
    /// dot product appears without changing a single result bit.
    #[must_use]
    pub fn mean_sq(&self) -> f64 {
        self.mean_sq
    }

    /// Test-only corruption of the memoized norm, giving the auditor's
    /// norm-cache check a deterministic failure to detect.
    #[cfg(test)]
    pub(crate) fn corrupt_norm_memo_for_test(&mut self, delta: f64) {
        self.mean_sq += delta;
    }

    /// Test-only corruption of the stored `SSE`, giving the auditor's
    /// cancellation-drift measurable a deterministic disagreement between
    /// a CF and the leaf entries it summarizes.
    #[cfg(test)]
    pub(crate) fn corrupt_sse_for_test(&mut self, delta: f64) {
        self.sse += delta;
    }

    /// Reassigns this CF to a single unweighted point, reusing the
    /// buffers. Bitwise-equal to `*self = Cf::from_point(p)` without the
    /// per-point heap allocations — the insert hot path's scratch entry.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn assign_point(&mut self, p: &Point) {
        self.assign_weighted_point(p, 1.0);
    }

    /// Reassigns this CF to a single point with weight `w > 0`, reusing
    /// the buffers (see [`Cf::assign_point`]).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or non-positive weight.
    pub fn assign_weighted_point(&mut self, p: &Point, w: f64) {
        assert!(w.is_finite() && w > 0.0, "weight must be positive, got {w}");
        assert_eq!(
            p.dim(),
            self.dim(),
            "dimension mismatch: point {} vs CF {}",
            p.dim(),
            self.dim()
        );
        self.n = w;
        self.mean.copy_from_slice(p.coords());
        self.mean_c.fill(0.0);
        self.sse = 0.0;
        self.sse_c = 0.0;
        self.mean_sq = dot(&self.mean, &self.mean);
    }

    /// Adds one unweighted point (the `nb = 1` singleton merge).
    pub fn add_point(&mut self, p: &Point) {
        self.add_weighted_point(p, 1.0);
    }

    /// Adds one point with weight `w > 0` — routed through the same inner
    /// merge as [`Cf::merge`] (a weighted point *is* the singleton CF
    /// `(w, p, 0)`), so add and merge stay bit-identical.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or non-positive weight.
    pub fn add_weighted_point(&mut self, p: &Point, w: f64) {
        assert!(w.is_finite() && w > 0.0, "weight must be positive, got {w}");
        assert_eq!(
            p.dim(),
            self.dim(),
            "dimension mismatch: point {} vs CF {}",
            p.dim(),
            self.dim()
        );
        self.merge_parts(w, p.coords(), None, 0.0, 0.0);
    }

    /// Merges another CF into this one (BETULA's merge rule — the
    /// Additivity Theorem in `(N, μ, SSE)` form).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn merge(&mut self, other: &Cf) {
        assert_eq!(
            other.dim(),
            self.dim(),
            "dimension mismatch: {} vs {}",
            other.dim(),
            self.dim()
        );
        self.merge_parts(
            other.n,
            &other.mean,
            Some(&other.mean_c),
            other.sse,
            other.sse_c,
        );
    }

    /// Returns the merge of two CFs without mutating either.
    #[must_use]
    pub fn merged(&self, other: &Cf) -> Cf {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// The shared merge core: folds the cluster `(nb, mb + cb, sse_b +
    /// sse_c_b)` into `self`. `cb = None` means a zero carry (the
    /// weighted-point case), keeping one code path for both entrances.
    fn merge_parts(&mut self, nb: f64, mb: &[f64], cb: Option<&[f64]>, sse_b: f64, sse_c_b: f64) {
        if nb == 0.0 {
            return;
        }
        if self.n == 0.0 {
            self.n = nb;
            self.mean.copy_from_slice(mb);
            match cb {
                Some(c) => self.mean_c.copy_from_slice(c),
                None => self.mean_c.fill(0.0),
            }
            self.sse = sse_b;
            self.sse_c = sse_c_b;
            self.mean_sq = dot(&self.mean, &self.mean);
            return;
        }
        let n_new = self.n + nb;
        let f = nb / n_new;
        let mut d_sq = 0.0;
        for i in 0..self.mean.len() {
            let cbi = cb.map_or(0.0, |c| c[i]);
            // Compensated Δᵢ = μb − μa: the leading difference is exact by
            // Sterbenz when the means are close (the case that matters at
            // large offsets); the carry difference restores the rest.
            let d = (mb[i] - self.mean[i]) + (cbi - self.mean_c[i]);
            d_sq += d * d;
            // μ' = μa + f·Δ, error-free into the carry, renormalized so
            // `mean` stays the correctly rounded leading component.
            let (s, e) = two_sum(self.mean[i], f * d);
            let (hi, lo) = quick_two_sum(s, self.mean_c[i] + e);
            self.mean[i] = hi;
            self.mean_c[i] = lo;
        }
        // Scatter term (na·nb/n')·‖Δ‖², with na read *before* the count
        // update. All three SSE contributions are non-negative; compensation
        // keeps long accumulation chains from drifting.
        let term = (self.n * f) * d_sq;
        self.acc_sse(sse_b);
        self.acc_sse(sse_c_b);
        self.acc_sse(term);
        self.n = n_new;
        self.mean_sq = dot(&self.mean, &self.mean);
    }

    /// Compensated accumulation into the SSE pair.
    fn acc_sse(&mut self, x: f64) {
        let (s, e) = two_sum(self.sse, x);
        let (hi, lo) = quick_two_sum(s, self.sse_c + e);
        self.sse = hi;
        self.sse_c = lo;
    }

    /// Removes a previously merged CF (inverse of [`Cf::merge`]) —
    /// BETULA's subtract rule, mean updated first so the scatter term uses
    /// the recovered mean. Used when a tentative absorption is rolled back
    /// and by Phase-4 reassignment.
    ///
    /// The weight guard is *relative*: `other` may exceed `self` by up to
    /// `N_DUST_REL · self.n` of round-off (a fixed absolute slack would
    /// spuriously reject float dust at large `N` and wave through real
    /// oversubtraction at tiny `N`). Any residual weight at or below
    /// `N_DUST_REL` of the original is likewise dust and snaps to the true
    /// empty CF, so no near-zero `N` with leftover statistics survives to
    /// feed divide-by-near-zero centroids.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if `other` holds more weight than
    /// `self` (the subtraction would not describe a real cluster).
    pub fn subtract(&mut self, other: &Cf) {
        assert_eq!(
            other.dim(),
            self.dim(),
            "dimension mismatch: {} vs {}",
            other.dim(),
            self.dim()
        );
        assert!(
            other.n <= self.n * (1.0 + N_DUST_REL),
            "cannot subtract CF with larger N ({} > {})",
            other.n,
            self.n
        );
        let n_before = self.n;
        let n_new = self.n - other.n;
        if n_new <= N_DUST_REL * n_before {
            // Residual dust (including the tiny negatives the relative
            // guard admits): snap to the true empty CF.
            self.n = 0.0;
            self.mean.fill(0.0);
            self.mean_c.fill(0.0);
            self.sse = 0.0;
            self.sse_c = 0.0;
            self.mean_sq = 0.0;
            return;
        }
        if other.n == 0.0 {
            return;
        }
        let g = other.n / n_new;
        let mut d_sq = 0.0;
        for i in 0..self.mean.len() {
            let d = (self.mean[i] - other.mean[i]) + (self.mean_c[i] - other.mean_c[i]);
            // μa' − μb = (1 + g)·(μ − μb): the recovered mean's deviation
            // from the removed cluster, needed by the scatter term below.
            let dd = (1.0 + g) * d;
            d_sq += dd * dd;
            let (s, e) = two_sum(self.mean[i], g * d);
            let (hi, lo) = quick_two_sum(s, self.mean_c[i] + e);
            self.mean[i] = hi;
            self.mean_c[i] = lo;
        }
        let term = (n_new * other.n / n_before) * d_sq;
        let folded = (self.sse + self.sse_c) - (other.sse + other.sse_c) - term;
        // SSE is a sum of squares: a negative residual is pure round-off.
        self.sse = folded.max(0.0);
        self.sse_c = 0.0;
        self.n = n_new;
        self.mean_sq = dot(&self.mean, &self.mean);
    }

    /// Number of 8-byte words [`Cf::to_words`] emits for dimensionality
    /// `dim`: `N`, `μ`, the mean carry, `SSE`, and the SSE carry. The
    /// `‖μ‖²` memo is *not* serialized — it is recomputed exactly on
    /// decode, the same zero-drift contract every mutation obeys.
    #[must_use]
    pub fn words_per_entry(dim: usize) -> usize {
        2 * dim + 3
    }

    /// Serializes the CF into little-endian-friendly `u64` words (f64 bit
    /// patterns), appending to `out`. Layout: `n, mean[0..d], mean_c[0..d],
    /// sse, sse_c`.
    pub fn to_words(&self, out: &mut Vec<u64>) {
        out.push(self.n.to_bits());
        out.extend(self.mean.iter().map(|m| m.to_bits()));
        out.extend(self.mean_c.iter().map(|c| c.to_bits()));
        out.push(self.sse.to_bits());
        out.push(self.sse_c.to_bits());
    }

    /// Rebuilds a CF from [`Cf::to_words`] output. Bit-identical to the
    /// original: every stored field round-trips through `f64::to_bits`,
    /// and the `‖μ‖²` memo is recomputed by the same exact `dot` every
    /// mutation uses.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != Cf::words_per_entry(dim)` or `dim == 0`.
    #[must_use]
    pub fn from_words(words: &[u64], dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        assert_eq!(
            words.len(),
            Self::words_per_entry(dim),
            "CF word count mismatch for dim {dim}"
        );
        let n = f64::from_bits(words[0]);
        let mean: Box<[f64]> = words[1..1 + dim]
            .iter()
            .map(|&w| f64::from_bits(w))
            .collect();
        let mean_c: Box<[f64]> = words[1 + dim..1 + 2 * dim]
            .iter()
            .map(|&w| f64::from_bits(w))
            .collect();
        let sse = f64::from_bits(words[1 + 2 * dim]);
        let sse_c = f64::from_bits(words[2 + 2 * dim]);
        let mean_sq = dot(&mean, &mean);
        Self {
            n,
            mean,
            mean_c,
            sse,
            sse_c,
            mean_sq,
        }
    }

    /// Centroid `X0 = μ` (paper eq. 1), compensation folded in.
    ///
    /// # Panics
    ///
    /// Panics if the CF is empty.
    #[must_use]
    pub fn centroid(&self) -> Point {
        assert!(!self.is_empty(), "centroid of an empty CF is undefined");
        Point::new(
            self.mean
                .iter()
                .zip(self.mean_c.iter())
                .map(|(m, c)| m + c)
                .collect(),
        )
    }

    /// Sum of squared deviations from the centroid: the stored `SSE`
    /// itself — no cancelling subtraction, which is the whole point of
    /// the `(N, μ, SSE)` form. Clamped at 0 against compensation round-off.
    #[must_use]
    pub fn sq_deviation(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.sse().max(0.0)
    }

    /// Radius `R = sqrt(SSE / N)` (paper eq. 2). Zero for empty/singleton
    /// CFs.
    #[must_use]
    pub fn radius(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (self.sq_deviation() / self.n).sqrt()
    }

    /// Diameter `D = sqrt(2·SSE / (N−1))` (paper eq. 3 in deviation form:
    /// the ordered-pair double sum `2N·SS − 2‖LS‖²` equals `2N·SSE`).
    /// Zero when `N ≤ 1`.
    #[must_use]
    pub fn diameter(&self) -> f64 {
        if self.n <= 1.0 {
            return 0.0;
        }
        (2.0 * self.sq_deviation() / (self.n - 1.0)).sqrt()
    }
}

impl fmt::Debug for Cf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CF(N={:.1}, mean=[", self.n)?;
        for (i, m) in self.mean.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m:.3}")?;
        }
        write!(f, "], SSE={:.3})", self.sse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(raw: &[[f64; 2]]) -> Vec<Point> {
        raw.iter().map(|&[x, y]| Point::xy(x, y)).collect()
    }

    #[test]
    fn single_point_cf() {
        let cf = Cf::from_point(&Point::xy(3.0, 4.0));
        assert_eq!(cf.n(), 1.0);
        assert_eq!(cf.mean(), &[3.0, 4.0]);
        assert_eq!(cf.sse(), 0.0);
        assert_eq!(cf.radius(), 0.0);
        assert_eq!(cf.diameter(), 0.0);
        assert_eq!(cf.centroid().coords(), &[3.0, 4.0]);
    }

    #[test]
    fn batch_matches_incremental() {
        let points = pts(&[[0.0, 0.0], [2.0, 0.0], [1.0, 3.0], [-1.0, 1.0]]);
        let batch = Cf::from_points(&points);
        let mut inc = Cf::empty(2);
        for p in &points {
            inc.add_point(p);
        }
        assert_eq!(batch, inc);
    }

    #[test]
    fn additivity_theorem_within_round_off() {
        // Merge vs direct construction walk different op orders, so the
        // comparison is to round-off tolerance, not bitwise (raw sums
        // would be order-independent; means are not).
        let a = pts(&[[0.0, 0.0], [1.0, 1.0]]);
        let b = pts(&[[4.0, 0.0], [5.0, 5.0], [6.0, 2.0]]);
        let cf_a = Cf::from_points(&a);
        let cf_b = Cf::from_points(&b);
        let merged = cf_a.merged(&cf_b);
        let all: Vec<Point> = a.iter().chain(&b).cloned().collect();
        let direct = Cf::from_points(&all);
        assert_eq!(merged.n(), direct.n());
        for (x, y) in merged.centroid().iter().zip(direct.centroid().iter()) {
            assert!((x - y).abs() <= 1e-12 * (1.0 + y.abs()));
        }
        assert!((merged.sse() - direct.sse()).abs() <= 1e-12 * (1.0 + direct.sse()));
    }

    #[test]
    fn subtract_inverts_merge() {
        let a = Cf::from_points(&pts(&[[1.0, 2.0], [3.0, 4.0]]));
        let b = Cf::from_points(&pts(&[[10.0, 10.0]]));
        let mut m = a.merged(&b);
        m.subtract(&b);
        assert!((m.n() - a.n()).abs() < 1e-12);
        assert!((m.sse() - a.sse()).abs() < 1e-9);
        for (x, y) in m.centroid().iter().zip(a.centroid().iter()) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn centroid_of_square() {
        let cf = Cf::from_points(&pts(&[[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]));
        for (c, want) in cf.centroid().iter().zip(&[1.0, 1.0]) {
            assert!((c - want).abs() < 1e-15);
        }
    }

    #[test]
    fn radius_of_unit_square_corners() {
        let cf = Cf::from_points(&pts(&[[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]));
        assert!((cf.radius() - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn diameter_of_point_pair() {
        let cf = Cf::from_points(&pts(&[[0.0, 0.0], [6.0, 0.0]]));
        assert!((cf.diameter() - 6.0).abs() < 1e-12);
        assert!((cf.radius() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn diameter_hand_computed_triangle() {
        // Points (0,0), (2,0), (0,2): pairwise sq dists 4, 4, 8 -> mean over
        // N(N-1)=6 *ordered* pairs = (2*(4+4+8))/6 = 16/3.
        let cf = Cf::from_points(&pts(&[[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]));
        assert!((cf.diameter() - (16.0_f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn weighted_point_equals_repeated_point() {
        let p = Point::xy(2.0, -1.0);
        let mut w = Cf::empty(2);
        w.add_weighted_point(&p, 3.0);
        let mut r = Cf::empty(2);
        for _ in 0..3 {
            r.add_point(&p);
        }
        // Coincident points leave the mean untouched and add zero
        // deviation: bitwise equal even through the incremental path.
        assert_eq!(w, r);
    }

    #[test]
    fn statistics_survive_large_offset() {
        // The motivating failure: a tight cluster (spread ~1e-3) at offset
        // 1e8. The paper's (N, LS, SS) radius collapses to 0 here; this
        // CF must agree with the same cloud at the origin to ~1e-9
        // relative. Dyadic spreads (multiples of 2⁻¹¹ ≈ 4.9e-4) are exact
        // multiples of ulp(1e8) = 2⁻²⁶, so the shifted cloud is an *exact*
        // translate — any drift is the CF's own error, not input rounding.
        const S: f64 = 9.765_625e-4; // 2⁻¹⁰
        const H: f64 = 4.882_812_5e-4; // 2⁻¹¹
        let spread = [[0.0, 0.0], [S, 0.0], [0.0, S], [S, S], [H, H]];
        let at = |off: f64| {
            Cf::from_points(
                &spread
                    .iter()
                    .map(|&[x, y]| Point::xy(off + x, off + y))
                    .collect::<Vec<_>>(),
            )
        };
        let origin = at(0.0);
        let shifted = at(1e8);
        assert!(origin.radius() > 0.0);
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs();
        assert!(
            rel(shifted.radius(), origin.radius()) < 1e-9,
            "radius drifted: {} vs {}",
            shifted.radius(),
            origin.radius()
        );
        assert!(
            rel(shifted.diameter(), origin.diameter()) < 1e-9,
            "diameter drifted: {} vs {}",
            shifted.diameter(),
            origin.diameter()
        );
    }

    #[test]
    fn sq_deviation_never_negative_under_cancellation() {
        let p = Point::xy(1e8, 1e8);
        let mut cf = Cf::empty(2);
        for _ in 0..1000 {
            cf.add_point(&p);
        }
        assert!(cf.sq_deviation() >= 0.0);
        assert!(cf.radius() >= 0.0);
        assert!(cf.diameter() >= 0.0);
        // Identical points: the deviation is *exactly* zero here, not
        // merely clamped — the d = x − μ differences all vanish.
        assert_eq!(cf.sq_deviation(), 0.0);
    }

    #[test]
    fn empty_cf_behaviour() {
        let cf = Cf::empty(3);
        assert!(cf.is_empty());
        assert_eq!(cf.radius(), 0.0);
        assert_eq!(cf.diameter(), 0.0);
        assert_eq!(cf.sq_deviation(), 0.0);
    }

    #[test]
    #[should_panic(expected = "centroid of an empty CF")]
    fn empty_centroid_panics() {
        let _ = Cf::empty(2).centroid();
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn merge_dimension_mismatch_panics() {
        let mut a = Cf::empty(2);
        let b = Cf::empty(3);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "cannot subtract")]
    fn oversubtraction_panics() {
        let mut a = Cf::from_point(&Point::xy(0.0, 0.0));
        let b = Cf::from_points(&pts(&[[0.0, 0.0], [1.0, 1.0]]));
        a.subtract(&b);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        let mut cf = Cf::empty(2);
        cf.add_weighted_point(&Point::xy(0.0, 0.0), 0.0);
    }

    #[test]
    fn debug_format() {
        let cf = Cf::from_point(&Point::xy(1.0, 2.0));
        let s = format!("{cf:?}");
        assert!(s.starts_with("CF(N=1.0"));
        assert!(s.contains("SSE="));
    }

    #[test]
    fn mean_sq_cache_is_bit_exact_across_mutations() {
        let mut cf = Cf::empty(2);
        assert_eq!(cf.mean_sq(), 0.0);
        cf.add_point(&Point::xy(1.5, -2.25));
        assert_eq!(cf.mean_sq().to_bits(), dot(cf.mean(), cf.mean()).to_bits());
        cf.add_weighted_point(&Point::xy(0.3, 0.7), 2.5);
        assert_eq!(cf.mean_sq().to_bits(), dot(cf.mean(), cf.mean()).to_bits());
        let other = Cf::from_points(&pts(&[[4.0, 1.0], [-2.0, 3.0]]));
        cf.merge(&other);
        assert_eq!(cf.mean_sq().to_bits(), dot(cf.mean(), cf.mean()).to_bits());
        cf.subtract(&other);
        assert_eq!(cf.mean_sq().to_bits(), dot(cf.mean(), cf.mean()).to_bits());
    }

    #[test]
    fn assign_point_matches_from_point_bitwise() {
        let p = Point::xy(3.25, -7.5);
        let mut scratch = Cf::from_point(&Point::xy(99.0, 99.0));
        scratch.assign_point(&p);
        let fresh = Cf::from_point(&p);
        assert!(scratch == fresh);
        assert_eq!(scratch.mean_sq().to_bits(), fresh.mean_sq().to_bits());

        scratch.assign_weighted_point(&p, 2.0);
        let fresh_w = Cf::from_weighted_point(&p, 2.0);
        assert!(scratch == fresh_w);
        assert_eq!(scratch.mean_sq().to_bits(), fresh_w.mean_sq().to_bits());
    }

    #[test]
    fn add_point_is_singleton_merge_bitwise() {
        // The contract that keeps tree-insert and oracle paths identical:
        // adding a weighted point must be *exactly* merging its singleton
        // CF (same inner routine, same carries).
        let base = Cf::from_points(&pts(&[[1.0, 2.0], [3.5, -1.0], [0.25, 0.75]]));
        let p = Point::xy(-2.5, 4.0);
        let mut via_add = base.clone();
        via_add.add_weighted_point(&p, 2.5);
        let mut via_merge = base.clone();
        via_merge.merge(&Cf::from_weighted_point(&p, 2.5));
        assert_eq!(via_add, via_merge);
    }

    #[test]
    fn subtract_to_empty_resets_everything() {
        let a = Cf::from_point(&Point::xy(5.0, 5.0));
        let mut m = a.clone();
        m.subtract(&a);
        assert!(m.is_empty());
        assert_eq!(m.mean_sq(), 0.0);
        assert_eq!(m.mean(), &[0.0, 0.0]);
        assert_eq!(m.sse(), 0.0);
    }

    #[test]
    fn subtract_snaps_near_zero_residual() {
        let p = Point::xy(1.0, 2.0);
        let mut a = Cf::from_weighted_point(&p, 1.0);
        let b = Cf::from_weighted_point(&p, 1.0 - 1e-12);
        a.subtract(&b);
        assert!(a.is_empty());
        assert_eq!(a.mean(), &[0.0, 0.0]);
        assert_eq!(a.sse(), 0.0);
    }

    #[test]
    fn subtract_guard_tolerance_is_relative() {
        let p = Point::xy(1.0, 1.0);
        let mut a = Cf::from_weighted_point(&p, 1e12);
        let b = Cf::from_weighted_point(&p, 1e12 + 1.0);
        a.subtract(&b);
        assert!(a.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot subtract")]
    fn subtract_guard_still_rejects_real_oversubtraction_at_scale() {
        let p = Point::xy(1.0, 1.0);
        let mut a = Cf::from_weighted_point(&p, 1e12);
        let b = Cf::from_weighted_point(&p, 1.01e12);
        a.subtract(&b);
    }

    #[test]
    fn words_round_trip_bit_identically() {
        let mut cf = Cf::from_points(&pts(&[[1e8, 1e8 + 1e-3], [1e8 + 2e-3, 1e8]]));
        cf.add_weighted_point(&Point::xy(1e8 + 5e-4, 1e8), 2.5);
        let mut words = Vec::new();
        cf.to_words(&mut words);
        assert_eq!(words.len(), Cf::words_per_entry(2));
        let back = Cf::from_words(&words, 2);
        // PartialEq compares every field including carries and the memo.
        assert!(back == cf);
        assert_eq!(back.mean_sq().to_bits(), cf.mean_sq().to_bits());
        assert_eq!(back.sse().to_bits(), cf.sse().to_bits());
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn from_words_rejects_wrong_length() {
        let _ = Cf::from_words(&[0; 5], 2);
    }
}
