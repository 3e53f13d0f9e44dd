//! Explicit-width lane kernels for the batched [`CfBlock`] distance
//! scans — the deviation-form metrics streamed through `f64x4` lanes.
//!
//! The scalar kernels in [`crate::distance`] evaluate the §3 metrics one
//! coordinate at a time in serial order. That order is a feature (it is
//! the bit-exactness contract every historical pin rests on) but it also
//! serializes the additions: at dim 32 the compiler cannot reorder
//! `s += d·d` into independent chains without `-ffast-math`-style
//! licenses it does not have. This module grants that license explicitly
//! and in a controlled way:
//!
//! * **Lane type** — [`lane::F64x4`] is four `f64` lanes as a plain
//!   `[f64; 4]` with `#[inline(always)]` element-wise arithmetic. The
//!   fixed width and independent lanes give LLVM a straight-line shape
//!   it vectorizes to the target's native vectors (SSE2 is in the
//!   `x86_64` baseline; wider units are used when the build enables
//!   them). Raw `core::arch` intrinsics are deliberately *not* used:
//!   rustc requires every caller of a `#[target_feature]` intrinsic to
//!   carry the attribute itself — build-level feature enablement does
//!   not lift the obligation — which is incompatible with this crate's
//!   `#![forbid(unsafe_code)]` and with `std::ops` trait impls. The
//!   value-semantics lane type compiles to the same instructions with
//!   no `unsafe` anywhere.
//!
//! * **Deviation sweep** — every metric needs either `Σ Δμᵢ²` or
//!   `Σ |Δμᵢ|` over the compensated centroid difference
//!   `Δμᵢ = (μ_aᵢ − μ_bᵢ) + (c_aᵢ − c_bᵢ)`. [`deviation`] computes both
//!   through one const-generic accumulator. Row-vs-row sweeps run over
//!   the block's stride-padded slabs ([`CfBlock::stride`]) so the lane
//!   loop has no scalar tail (zero padding contributes exactly `0`);
//!   probe-vs-row sweeps take the probe's unpadded `dim` slices and
//!   finish the remainder serially.
//!
//! * **Small-dim specializations** — dims 1–4 dispatch to fully-unrolled
//!   serial-order loops (`dev_serial`) that live entirely in registers.
//!   They preserve the scalar accumulation order, so lane results at
//!   dim ≤ 4 are **bit-identical** to the scalar oracle — the low-dim
//!   regime can never regress into different arithmetic, and every
//!   dim-2 historical pin keeps holding through the lane path.
//!
//! * **Tolerance contract** — above dim 4 the lane reduction reorders
//!   the sums (four partial sums + one horizontal fold), so results may
//!   differ from the scalar oracle in the last ulps. The bound is
//!   [`crate::distance::SIMD_TOLERANCE_REL`]; the differential tests
//!   below and the tree auditor ([`crate::audit`]) both enforce it.
//!
//! These are the only production kernels: the batched scans in
//! `distance.rs` (`pair_in_block`, `closest_among`, `closest_pair`,
//! `farthest_pair` and the D0-pruned scan) call them directly. The scalar
//! block kernels there are kept as the oracles they are checked against.

use crate::cf::Cf;
use crate::distance::{CfBlock, DistanceMetric};

/// The portable explicit-width lane type: a plain array with
/// `#[inline(always)]` lane arithmetic that LLVM vectorizes to the
/// target's native vector unit (see the module docs for why raw
/// intrinsics are not an option under `#![forbid(unsafe_code)]`).
mod lane {
    /// Four `f64` lanes as an array.
    #[derive(Clone, Copy)]
    pub struct F64x4([f64; 4]);

    impl F64x4 {
        /// All lanes zero.
        #[inline(always)]
        pub fn zero() -> Self {
            Self([0.0; 4])
        }

        /// Lanes from a 4-element chunk (as yielded by `chunks_exact(4)`;
        /// the length conversion folds away, leaving an unchecked
        /// 4-wide load).
        #[inline(always)]
        pub fn from_chunk(c: &[f64]) -> Self {
            let a: [f64; 4] = c.try_into().expect("lane chunk of width 4");
            Self(a)
        }

        /// Lane-wise `|x|`.
        #[inline(always)]
        pub fn abs(self) -> Self {
            let v = self.0;
            Self([v[0].abs(), v[1].abs(), v[2].abs(), v[3].abs()])
        }

        /// Horizontal sum `(l0 + l2) + (l1 + l3)` — the one place lane
        /// order folds back to a scalar; fixed as part of the kernel's
        /// reproducibility story (same fold on every target).
        #[inline(always)]
        pub fn hsum(self) -> f64 {
            let v = self.0;
            (v[0] + v[2]) + (v[1] + v[3])
        }
    }

    impl std::ops::Add for F64x4 {
        type Output = Self;
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            let (a, b) = (self.0, o.0);
            Self([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]])
        }
    }

    impl std::ops::Sub for F64x4 {
        type Output = Self;
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            let (a, b) = (self.0, o.0);
            Self([a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]])
        }
    }

    impl std::ops::Mul for F64x4 {
        type Output = Self;
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            let (a, b) = (self.0, o.0);
            Self([a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]])
        }
    }
}

use lane::F64x4;

/// Fully-unrolled serial-order deviation sum over the first `D`
/// coordinates: bit-identical to the scalar kernel's
/// `for i { s += …(Δμᵢ) }` loop because it *is* that loop, with the trip
/// count known at compile time so it lives in registers.
#[inline(always)]
fn dev_serial<const ABS: bool, const D: usize>(
    av: &[f64],
    ac: &[f64],
    bv: &[f64],
    bc: &[f64],
) -> f64 {
    // One up-front length check per operand; the indexed loads below are
    // then provably in bounds and check-free.
    let (av, ac) = (&av[..D], &ac[..D]);
    let (bv, bc) = (&bv[..D], &bc[..D]);
    let mut s = 0.0;
    for i in 0..D {
        let d = (av[i] - bv[i]) + (ac[i] - bc[i]);
        s += if ABS { d.abs() } else { d * d };
    }
    s
}

/// Lane-parallel deviation sum: full `f64x4` chunks accumulated in four
/// partial sums, horizontally folded, then any scalar remainder added in
/// serial order. Reorders the serial sum — covered by the
/// [`crate::distance::SIMD_TOLERANCE_REL`] contract.
///
/// The sweep length is the *shortest* operand (a probe passes unpadded
/// `dim` slices against a row's padded stride, and padding past `dim` is
/// all zeros, so the short interpretation loses nothing). The heads are
/// narrowed to the full-chunk prefix up front so the `k + 4 <= full`
/// guard proves every 4-wide load in bounds — LLVM drops the per-element
/// checks and emits straight vector loads, where a naive `s[i + k]` form
/// keeps checks that serialize the whole loop.
#[inline]
fn dev_lanes<const ABS: bool>(av: &[f64], ac: &[f64], bv: &[f64], bc: &[f64]) -> f64 {
    let len = av.len().min(ac.len()).min(bv.len()).min(bc.len());
    let full = len & !3;
    let (avh, ach) = (&av[..full], &ac[..full]);
    let (bvh, bch) = (&bv[..full], &bc[..full]);
    let mut acc = F64x4::zero();
    let mut k = 0;
    while k + 4 <= full {
        let d = (F64x4::from_chunk(&avh[k..k + 4]) - F64x4::from_chunk(&bvh[k..k + 4]))
            + (F64x4::from_chunk(&ach[k..k + 4]) - F64x4::from_chunk(&bch[k..k + 4]));
        acc = if ABS { acc + d.abs() } else { acc + d * d };
        k += 4;
    }
    let mut s = acc.hsum();
    while k < len {
        let d = (av[k] - bv[k]) + (ac[k] - bc[k]);
        s += if ABS { d.abs() } else { d * d };
        k += 1;
    }
    s
}

/// Deviation sum (`Σ Δμᵢ²`, or `Σ |Δμᵢ|` when `ABS`) over `dim` live
/// coordinates, dispatching dims 1–4 to the bit-identical serial
/// specializations and everything larger to the lane sweep. The slices
/// may be longer than `dim` (stride padding); only `dim` coordinates are
/// read on the serial path, while the lane path reads whatever length
/// the *shortest* interpretation allows — callers pass either exactly
/// `dim` (probe rows) or the zero-padded stride (block rows), and zero
/// padding contributes exactly `0` to either sum.
#[inline(always)]
fn deviation<const ABS: bool>(dim: usize, av: &[f64], ac: &[f64], bv: &[f64], bc: &[f64]) -> f64 {
    match dim {
        0 => 0.0,
        1 => dev_serial::<ABS, 1>(av, ac, bv, bc),
        2 => dev_serial::<ABS, 2>(av, ac, bv, bc),
        3 => dev_serial::<ABS, 3>(av, ac, bv, bc),
        4 => dev_serial::<ABS, 4>(av, ac, bv, bc),
        _ => dev_lanes::<ABS>(av, ac, bv, bc),
    }
}

/// A borrowed CF operand for the lane kernels: the scalar stats plus the
/// (possibly stride-padded) mean and carry slices.
#[derive(Clone, Copy)]
struct Operand<'a> {
    n: f64,
    sse: f64,
    vec: &'a [f64],
    vec_c: &'a [f64],
}

impl<'a> Operand<'a> {
    #[inline(always)]
    fn probe(cf: &'a Cf) -> Self {
        Operand {
            n: cf.n(),
            sse: cf.sse(),
            vec: cf.mean(),
            vec_c: cf.mean_carry(),
        }
    }
}

/// A block's four slabs borrowed *once* per scan, so the row loops slice
/// off resident base pointers instead of re-deriving every accessor per
/// row (which the measured kernels showed costs more than the arithmetic
/// at low dims).
#[derive(Clone, Copy)]
struct Rows<'a> {
    stride: usize,
    n: &'a [f64],
    sse: &'a [f64],
    vec: &'a [f64],
    vec_c: &'a [f64],
}

impl<'a> Rows<'a> {
    #[inline(always)]
    fn of(block: &'a CfBlock) -> Self {
        Rows {
            stride: block.stride(),
            n: block.n_slab(),
            sse: block.scalar_slab(),
            vec: block.vec_slab(),
            vec_c: block.vec_c_slab(),
        }
    }

    /// Row `i` as full padded stride slices (tail-free lane sweep).
    #[inline(always)]
    fn row(&self, i: usize) -> Operand<'a> {
        let s = self.stride;
        Operand {
            n: self.n[i],
            sse: self.sse[i],
            vec: &self.vec[i * s..(i + 1) * s],
            vec_c: &self.vec_c[i * s..(i + 1) * s],
        }
    }
}

/// The lane twin of `view_distance`: identical metric epilogues over
/// lane-accumulated deviation sums. Shares the empty-operand contract
/// (debug-assert, `+∞` in release).
#[inline]
fn lane_distance(metric: DistanceMetric, dim: usize, a: &Operand<'_>, b: &Operand<'_>) -> f64 {
    if a.n <= 0.0 || b.n <= 0.0 {
        debug_assert!(false, "distance with an empty CF operand");
        return f64::INFINITY;
    }
    match metric {
        DistanceMetric::D0 => deviation::<false>(dim, a.vec, a.vec_c, b.vec, b.vec_c).sqrt(),
        DistanceMetric::D1 => deviation::<true>(dim, a.vec, a.vec_c, b.vec, b.vec_c),
        DistanceMetric::D2 => {
            let dmu_sq = deviation::<false>(dim, a.vec, a.vec_c, b.vec, b.vec_c);
            (a.sse / a.n + b.sse / b.n + dmu_sq).max(0.0).sqrt()
        }
        DistanceMetric::D3 => {
            let n = a.n + b.n;
            if n <= 1.0 {
                return 0.0; // fractional weights: merged "cluster" of ≤ one point
            }
            let dmu_sq = deviation::<false>(dim, a.vec, a.vec_c, b.vec, b.vec_c);
            let sse_m = a.sse + b.sse + (a.n * b.n / n) * dmu_sq;
            (2.0 * sse_m / (n - 1.0)).max(0.0).sqrt()
        }
        DistanceMetric::D4 => {
            let n = a.n + b.n;
            let dmu_sq = deviation::<false>(dim, a.vec, a.vec_c, b.vec, b.vec_c);
            ((a.n * b.n / n) * dmu_sq).max(0.0).sqrt()
        }
    }
}

/// Lane form of [`crate::distance::distance_to_row`] (probe vs block
/// row). Bit-identical to the scalar kernel at dim ≤ 4, within the
/// tolerance contract above.
#[inline]
pub(crate) fn distance_to_row(metric: DistanceMetric, ent: &Cf, block: &CfBlock, i: usize) -> f64 {
    lane_distance(
        metric,
        block.dim(),
        &Operand::probe(ent),
        &Rows::of(block).row(i),
    )
}

/// Lane form of [`crate::distance::pair_in_block`]: both rows as padded
/// stride slices, so the sweep is tail-free.
#[inline]
pub(crate) fn pair_in_block(metric: DistanceMetric, block: &CfBlock, i: usize, j: usize) -> f64 {
    let rows = Rows::of(block);
    lane_distance(metric, block.dim(), &rows.row(i), &rows.row(j))
}

/// Lane form of the first-minimum closest-row scan. Identical tie-break
/// (strict `<`, earliest row wins) to the scalar form.
#[inline]
pub(crate) fn closest_among(
    metric: DistanceMetric,
    ent: &Cf,
    block: &CfBlock,
) -> Option<(usize, f64)> {
    let _sp = crate::obs::span::enter("simd_kernel");
    let probe = Operand::probe(ent);
    let dim = block.dim();
    let rows = Rows::of(block);
    let mut best: Option<(usize, f64)> = None;
    let mut best_d = f64::INFINITY;
    for i in 0..block.len() {
        let d = lane_distance(metric, dim, &probe, &rows.row(i));
        if d < best_d {
            best_d = d;
            best = Some((i, d));
        }
    }
    best
}

/// Lane form of the first-minimum closest-pair scan.
#[inline]
pub(crate) fn closest_pair(metric: DistanceMetric, block: &CfBlock) -> Option<(usize, usize, f64)> {
    let _sp = crate::obs::span::enter("simd_kernel");
    let dim = block.dim();
    let rows = Rows::of(block);
    let mut best: Option<(usize, usize, f64)> = None;
    for i in 0..block.len() {
        let a = rows.row(i);
        for j in (i + 1)..block.len() {
            let d = lane_distance(metric, dim, &a, &rows.row(j));
            if best.is_none_or(|(_, _, bd)| d < bd) {
                best = Some((i, j, d));
            }
        }
    }
    best
}

/// Lane form of the first-maximum farthest-pair scan.
#[inline]
pub(crate) fn farthest_pair(
    metric: DistanceMetric,
    block: &CfBlock,
) -> Option<(usize, usize, f64)> {
    if block.len() < 2 {
        return None;
    }
    let _sp = crate::obs::span::enter("simd_kernel");
    let dim = block.dim();
    let rows = Rows::of(block);
    let (mut far, mut far_d) = ((0, 1), f64::NEG_INFINITY);
    for i in 0..block.len() {
        let a = rows.row(i);
        for j in (i + 1)..block.len() {
            let d = lane_distance(metric, dim, &a, &rows.row(j));
            if d > far_d {
                far = (i, j);
                far_d = d;
            }
        }
    }
    Some((far.0, far.1, far_d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{
        closest_among_scalar, closest_pair_scalar, distance_to_row as scalar_row,
        farthest_pair_scalar, pair_in_block_scalar, SIMD_TOLERANCE_REL,
    };
    use crate::point::Point;

    /// Deterministic xorshift point clouds at any dimension.
    fn fixture(dim: usize, rows: usize) -> Vec<Cf> {
        let mut s = 0x5EED_u64 ^ (dim as u64) << 8;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 * 40.0 - 20.0
        };
        (0..rows)
            .map(|r| {
                let pts: Vec<Point> = (0..(r % 4) + 1)
                    .map(|_| Point::new((0..dim).map(|_| next()).collect()))
                    .collect();
                Cf::from_points(&pts)
            })
            .collect()
    }

    fn assert_within_contract(m: DistanceMetric, lane: f64, scalar: f64, ctx: &str) {
        let tol = SIMD_TOLERANCE_REL * scalar.abs().max(1.0);
        assert!(
            (lane - scalar).abs() <= tol,
            "{m} {ctx}: lane {lane} vs scalar {scalar} exceeds tolerance"
        );
    }

    #[test]
    fn small_dims_are_bit_identical_to_scalar() {
        for dim in [1usize, 2, 3, 4] {
            let cfs = fixture(dim, 8);
            let block = CfBlock::from_cfs(&cfs);
            let probe = &cfs[0];
            for m in DistanceMetric::ALL {
                for i in 0..cfs.len() {
                    let lane = distance_to_row(m, probe, &block, i);
                    let scalar = scalar_row(m, probe, &block, i);
                    assert_eq!(lane.to_bits(), scalar.to_bits(), "{m} dim {dim} row {i}");
                    for j in (i + 1)..cfs.len() {
                        let lane = pair_in_block(m, &block, i, j);
                        let scalar = pair_in_block_scalar(m, &block, i, j);
                        assert_eq!(
                            lane.to_bits(),
                            scalar.to_bits(),
                            "{m} dim {dim} pair {i},{j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn large_dims_stay_within_tolerance_contract() {
        // Dims straddling the lane boundaries: 5 (one chunk + tail),
        // 8 (two clean chunks), 32, 33 (eight chunks + tail).
        for dim in [5usize, 8, 32, 33] {
            let cfs = fixture(dim, 6);
            let block = CfBlock::from_cfs(&cfs);
            let probe = &cfs[0];
            for m in DistanceMetric::ALL {
                for i in 0..cfs.len() {
                    assert_within_contract(
                        m,
                        distance_to_row(m, probe, &block, i),
                        scalar_row(m, probe, &block, i),
                        &format!("dim {dim} row {i}"),
                    );
                    for j in (i + 1)..cfs.len() {
                        assert_within_contract(
                            m,
                            pair_in_block(m, &block, i, j),
                            pair_in_block_scalar(m, &block, i, j),
                            &format!("dim {dim} pair {i},{j}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scans_agree_with_scalar_oracles() {
        // Winners must match the scalar scans at every dim: distances
        // agree within 1e-12 relative while the fixtures keep every
        // inter-row gap far wider, so no ordering can flip.
        for dim in [2usize, 3, 5, 8, 33] {
            let cfs = fixture(dim, 10);
            let block = CfBlock::from_cfs(&cfs);
            let probe = &cfs[3];
            for m in DistanceMetric::ALL {
                let lane = closest_among(m, probe, &block);
                let scalar = closest_among_scalar(m, probe, &block);
                assert_eq!(
                    lane.map(|(i, _)| i),
                    scalar.map(|(i, _)| i),
                    "{m} dim {dim} closest_among winner"
                );
                let (lp, sp) = (closest_pair(m, &block), closest_pair_scalar(m, &block));
                assert_eq!(
                    lp.map(|(i, j, _)| (i, j)),
                    sp.map(|(i, j, _)| (i, j)),
                    "{m} dim {dim} closest_pair"
                );
                let (lf, sf) = (farthest_pair(m, &block), farthest_pair_scalar(m, &block));
                assert_eq!(
                    lf.map(|(i, j, _)| (i, j)),
                    sf.map(|(i, j, _)| (i, j)),
                    "{m} dim {dim} farthest_pair"
                );
            }
        }
    }

    #[test]
    fn padded_rows_contribute_zero() {
        // A block at dim 5 pads each row to stride 8; mutate the block
        // through its public API (set/insert/remove) and verify the lane
        // distances still match the scalar oracle — stale padding would
        // show up as a tolerance violation here.
        let cfs = fixture(5, 6);
        let mut block = CfBlock::from_cfs(&cfs[..4]);
        block.set(1, &cfs[4]);
        block.insert(2, &cfs[5]);
        block.remove(0);
        assert_eq!(block.stride(), 8);
        for m in DistanceMetric::ALL {
            for i in 0..block.len() {
                for j in (i + 1)..block.len() {
                    assert_within_contract(
                        m,
                        pair_in_block(m, &block, i, j),
                        pair_in_block_scalar(m, &block, i, j),
                        &format!("mutated pair {i},{j}"),
                    );
                }
            }
        }
    }

    #[test]
    fn empty_block_scans_return_none() {
        let block = CfBlock::new();
        let probe = fixture(3, 1).pop().unwrap();
        assert!(closest_among(DistanceMetric::D2, &probe, &block).is_none());
        assert!(closest_pair(DistanceMetric::D2, &block).is_none());
        assert!(farthest_pair(DistanceMetric::D2, &block).is_none());
    }
}
