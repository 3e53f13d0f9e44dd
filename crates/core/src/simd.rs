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
//!   `Δμᵢ = (μ_aᵢ − μ_bᵢ) + (c_aᵢ − c_bᵢ)`. Row-vs-row sweeps run over
//!   the block's stride-padded slabs ([`CfBlock::stride`]) so the lane
//!   loop has no scalar tail (zero padding contributes exactly `0`);
//!   probe-vs-row sweeps take the probe's unpadded `dim` slices and
//!   finish the remainder serially.
//!
//! * **Compiled per metric and dimension class** — [`pre_root`] is the
//!   one kernel: each metric's formula without its final `sqrt`, generic
//!   over the metric `M` and a dimension class `D`. Dims 1–4 are classes
//!   of their own, fully-unrolled serial-order loops (`dev_serial`) that
//!   live entirely in registers and keep the scalar accumulation order,
//!   so lane results at dim ≤ 4 are **bit-identical** to the scalar
//!   oracle and every dim-2 historical pin holds through the lane path.
//!   Every wider dim is the [`WIDE`] class, the lane sweep. Every scan is
//!   compiled once per `(M, D)`, and the `compiled!` macro, the one
//!   dispatch point, picks the instance once per call, so a scan's row
//!   loop carries no call and no metric or dimension branch.
//!
//! * **Chunked selection** — the first-minimum and first-maximum scans
//!   (`closest_among` and the inner loops of `closest_pair` and
//!   `farthest_pair`) compute [`CHUNK`] rows' pre-root values into a
//!   stack buffer, keeping the running extreme with a select rather than
//!   a branch, and take a root only when a chunk's extreme beats the
//!   running best (see [`Best`] for why the selection stays exact).
//!
//! * **Tolerance contract** — above dim 4 the lane reduction reorders
//!   the sums (four partial sums + one horizontal fold), so results may
//!   differ from the scalar oracle in the last ulps. The bound is
//!   [`crate::distance::SIMD_TOLERANCE_REL`]; the differential tests
//!   below and the tree auditor ([`crate::audit`]) both enforce it.
//!
//! These are the only production kernels: the batched scans in
//! `distance.rs` (`pair_in_block`, `closest_among`, `closest_pair`,
//! `farthest_pair` and the D0-pruned scan) call them directly, and each
//! entry point here pays the metric and dimension dispatch once per call,
//! not once per row. The scalar block kernels there are kept as the
//! oracles they are checked against.

use crate::cf::Cf;
use crate::distance::{row_centroid_norm, CfBlock, DistanceMetric, D0_PRUNE_SLACK_REL, LANE_WIDTH};

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

/// The metric ids the kernels are compiled for (const-generic arguments
/// stand in for the enum, which stable Rust does not accept there).
const D0: u8 = DistanceMetric::D0 as u8;
const D1: u8 = DistanceMetric::D1 as u8;
const D2: u8 = DistanceMetric::D2 as u8;
const D3: u8 = DistanceMetric::D3 as u8;
const D4: u8 = DistanceMetric::D4 as u8;

/// The dimension class of every dim above 4: the lane sweep, whose
/// length is read from the slices. (An empty block's dim 0 lands here
/// too; it has no rows to scan.)
const WIDE: usize = 0;

/// Rows per selection chunk: the stack buffer of pre-root values that a
/// first-extreme scan fills before it looks at any root.
const CHUNK: usize = 32;

/// The one dispatch point: runs `$scan::<M, D>$args` compiled for the
/// runtime metric and the dimension class of `$dim` (1–4 each their own
/// class, every other dim [`WIDE`]).
macro_rules! compiled {
    ($metric:expr, $dim:expr, $scan:ident $args:tt) => {
        match $metric {
            DistanceMetric::D0 => compiled!(@class D0, $dim, $scan $args),
            DistanceMetric::D1 => compiled!(@class D1, $dim, $scan $args),
            DistanceMetric::D2 => compiled!(@class D2, $dim, $scan $args),
            DistanceMetric::D3 => compiled!(@class D3, $dim, $scan $args),
            DistanceMetric::D4 => compiled!(@class D4, $dim, $scan $args),
        }
    };
    (@class $m:ident, $dim:expr, $scan:ident $args:tt) => {
        match $dim {
            1 => $scan::<$m, 1> $args,
            2 => $scan::<$m, 2> $args,
            3 => $scan::<$m, 3> $args,
            4 => $scan::<$m, 4> $args,
            _ => $scan::<$m, WIDE> $args,
        }
    };
}

/// Fully-unrolled serial-order deviation sum (`Σ Δμᵢ²`, or `Σ |Δμᵢ|`
/// when `abs`) over the first `D` coordinates: bit-identical to the
/// scalar kernel's `for i { s += …(Δμᵢ) }` loop because it *is* that
/// loop, with the trip count known at compile time so it lives in
/// registers.
#[inline(always)]
fn dev_serial<const D: usize>(abs: bool, av: &[f64], ac: &[f64], bv: &[f64], bc: &[f64]) -> f64 {
    // One up-front length check per operand; the indexed loads below are
    // then provably in bounds and check-free. A scan's rows come from
    // `LANE_WIDTH`-long chunks, so their checks fold away entirely.
    let (av, ac) = (&av[..D], &ac[..D]);
    let (bv, bc) = (&bv[..D], &bc[..D]);
    let mut s = 0.0;
    for i in 0..D {
        let d = (av[i] - bv[i]) + (ac[i] - bc[i]);
        s += if abs { d.abs() } else { d * d };
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
#[inline(always)]
fn dev_lanes(abs: bool, av: &[f64], ac: &[f64], bv: &[f64], bc: &[f64]) -> f64 {
    let len = av.len().min(ac.len()).min(bv.len()).min(bc.len());
    let full = len & !3;
    let (avh, ach) = (&av[..full], &ac[..full]);
    let (bvh, bch) = (&bv[..full], &bc[..full]);
    let mut acc = F64x4::zero();
    let mut k = 0;
    while k + 4 <= full {
        let d = (F64x4::from_chunk(&avh[k..k + 4]) - F64x4::from_chunk(&bvh[k..k + 4]))
            + (F64x4::from_chunk(&ach[k..k + 4]) - F64x4::from_chunk(&bch[k..k + 4]));
        acc = if abs { acc + d.abs() } else { acc + d * d };
        k += 4;
    }
    let mut s = acc.hsum();
    while k < len {
        let d = (av[k] - bv[k]) + (ac[k] - bc[k]);
        s += if abs { d.abs() } else { d * d };
        k += 1;
    }
    s
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

/// A block's slabs borrowed *once* per scan, so the row loops slice
/// off resident base pointers instead of re-deriving every accessor per
/// row (which the measured kernels showed costs more than the arithmetic
/// at low dims).
#[derive(Clone, Copy)]
struct Rows<'a> {
    stride: usize,
    n: &'a [f64],
    sse: &'a [f64],
    sse_c: &'a [f64],
    vec: &'a [f64],
    vec_c: &'a [f64],
}

impl<'a> Rows<'a> {
    #[inline(always)]
    fn of(block: &'a CfBlock) -> Self {
        let (sse, sse_c) = block.sse_slabs();
        Rows {
            stride: block.stride(),
            n: block.n_slab(),
            sse,
            sse_c,
            vec: block.vec_slab(),
            vec_c: block.vec_c_slab(),
        }
    }

    #[inline(always)]
    fn len(&self) -> usize {
        self.n.len()
    }

    /// Row `i` as full padded stride slices (tail-free lane sweep), its
    /// SSE folded with the carry as [`Cf::sse`] folds it.
    #[inline(always)]
    fn row(&self, i: usize) -> Operand<'a> {
        let s = self.stride;
        Operand {
            n: self.n[i],
            sse: self.sse[i] + self.sse_c[i],
            vec: &self.vec[i * s..(i + 1) * s],
            vec_c: &self.vec_c[i * s..(i + 1) * s],
        }
    }

    /// Rows `start..end` in order, each as [`Rows::row`] gives it. Every
    /// slab is sliced once for the whole range and the slices are walked
    /// together, so no row load carries a bounds check; in the serial
    /// classes the stride is the constant [`LANE_WIDTH`].
    #[inline(always)]
    fn range<const D: usize>(&self, start: usize, end: usize) -> impl Iterator<Item = Operand<'a>> {
        let s = if D == WIDE { self.stride } else { LANE_WIDTH };
        debug_assert_eq!(s, self.stride, "a serial class's rows are one lane wide");
        let vec = self.vec[start * s..end * s].chunks_exact(s);
        let vec_c = self.vec_c[start * s..end * s].chunks_exact(s);
        let sse = self.sse[start..end].iter().zip(&self.sse_c[start..end]);
        self.n[start..end].iter().zip(sse).zip(vec.zip(vec_c)).map(
            |((&n, (&sse, &sse_c)), (vec, vec_c))| Operand {
                n,
                sse: sse + sse_c,
                vec,
                vec_c,
            },
        )
    }
}

/// The one kernel: metric `M`'s value before its final square root,
/// `view_distance`'s deviation form over the dimension class `D`'s sums.
/// D1 has no root, so its value is the distance itself. The metric match
/// and the class test fold away at compile time, so a row costs its
/// arithmetic and the empty-operand guard, which never fires on a live
/// tree. Shares the empty-operand contract (debug-assert, `+∞` in
/// release).
#[inline(always)]
fn pre_root<const M: u8, const D: usize>(a: &Operand<'_>, b: &Operand<'_>) -> f64 {
    let abs = M == D1;
    let dev = if D == WIDE {
        dev_lanes(abs, a.vec, a.vec_c, b.vec, b.vec_c)
    } else {
        dev_serial::<D>(abs, a.vec, a.vec_c, b.vec, b.vec_c)
    };
    let n = a.n + b.n;
    let pre = match M {
        D0 | D1 => dev,
        D2 => (a.sse / a.n + b.sse / b.n + dev).max(0.0),
        D3 => {
            let sse_m = a.sse + b.sse + (a.n * b.n / n) * dev;
            // Fractional weights: a merged "cluster" of at most one point.
            if n <= 1.0 {
                0.0
            } else {
                (2.0 * sse_m / (n - 1.0)).max(0.0)
            }
        }
        D4 => ((a.n * b.n / n) * dev).max(0.0),
        _ => unreachable!("no metric has id {M}"),
    };
    let empty = a.n <= 0.0 || b.n <= 0.0;
    debug_assert!(!empty, "distance with an empty CF operand");
    if empty {
        f64::INFINITY
    } else {
        pre
    }
}

/// Metric `M`'s final step from its [`pre_root`] value.
#[inline(always)]
fn root<const M: u8>(pre: f64) -> f64 {
    if M == D1 {
        pre
    } else {
        pre.sqrt()
    }
}

/// The lane twin of `view_distance`: the root of [`pre_root`].
#[inline(always)]
fn lane_distance<const M: u8, const D: usize>(a: &Operand<'_>, b: &Operand<'_>) -> f64 {
    root::<M>(pre_root::<M, D>(a, b))
}

/// Whether `x` beats `y` in a first-maximum (`MAX`) or first-minimum scan.
/// Nothing beats or is beaten by NaN.
#[inline(always)]
fn beats<const MAX: bool>(x: f64, y: f64) -> bool {
    if MAX {
        x > y
    } else {
        x < y
    }
}

/// A scan's running best: the winner's distance `d` and a pre-root value
/// `pre` with `d == root(pre)`.
///
/// `sqrt` is correctly rounded and so monotone: a value that does not beat
/// `pre` cannot have a root that beats `d`, so a scan takes a root only
/// when a pre-root value wins, and a row becomes the best only if its root
/// wins too. The second test matters because two pre-root values an ulp
/// apart can share one root: comparing roots keeps the earlier row,
/// exactly as a scan over distances does. A chunk of rows is resolved the
/// same way through its extreme value `x`: the rows whose root equals
/// `root(x)` are exactly the chunk's rows at its best distance, so the
/// first of them is the chunk's first-extreme row.
#[derive(Clone, Copy)]
struct Best {
    pre: f64,
    d: f64,
}

impl Best {
    /// The running best of a first-minimum scan before its first row.
    const MIN_START: Best = Best {
        pre: f64::INFINITY,
        d: f64::INFINITY,
    };

    /// The running best of a first-maximum scan before its first row.
    const MAX_START: Best = Best {
        pre: f64::NEG_INFINITY,
        d: f64::NEG_INFINITY,
    };

    /// The best taken unconditionally from a row's pre-root value.
    #[inline(always)]
    fn of<const M: u8>(pre: f64) -> Self {
        Best {
            pre,
            d: root::<M>(pre),
        }
    }

    /// Takes the row whose pre-root value is `pre` if its distance is
    /// strictly smaller (so the earliest of equal distances stays).
    #[inline(always)]
    fn lower<const M: u8>(&mut self, pre: f64) -> bool {
        if pre < self.pre {
            let d = root::<M>(pre);
            if d < self.d {
                *self = Best { pre, d };
                return true;
            }
        }
        false
    }
}

/// Continues a first-minimum (first-maximum when `MAX`) scan of `a`
/// against rows `from..` of `rows`, chunk by chunk: fills `buf` with a
/// chunk's pre-root values and its extreme with no branch per row, and
/// resolves the chunk only when that extreme beats `best` (see [`Best`]).
/// Returns the row that last replaced `best`, if any.
#[inline(always)]
fn scan_rows<const M: u8, const D: usize, const MAX: bool>(
    a: &Operand<'_>,
    rows: &Rows<'_>,
    from: usize,
    best: &mut Best,
    buf: &mut [f64; CHUNK],
) -> Option<usize> {
    let mut at = None;
    let mut start = from;
    while start < rows.len() {
        let end = rows.len().min(start + CHUNK);
        let vals = &mut buf[..end - start];
        let mut extreme = if MAX {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        for (v, b) in vals.iter_mut().zip(rows.range::<D>(start, end)) {
            *v = pre_root::<M, D>(a, &b);
            extreme = if beats::<MAX>(*v, extreme) {
                *v
            } else {
                extreme
            };
        }
        if beats::<MAX>(extreme, best.pre) {
            let d = root::<M>(extreme);
            if beats::<MAX>(d, best.d) {
                *best = Best { pre: extreme, d };
                let i = vals
                    .iter()
                    .position(|&v| root::<M>(v) == d)
                    .expect("a chunk's extreme is one of its rows");
                at = Some(start + i);
            }
        }
        start = end;
    }
    at
}

/// Lane form of [`crate::distance::distance_to_row`] (probe vs block
/// row). Bit-identical to the scalar kernel at dim ≤ 4, within the
/// tolerance contract above.
#[inline]
pub(crate) fn distance_to_row(metric: DistanceMetric, ent: &Cf, block: &CfBlock, i: usize) -> f64 {
    let (probe, row) = (Operand::probe(ent), Rows::of(block).row(i));
    compiled!(metric, block.dim(), lane_distance(&probe, &row))
}

/// Lane form of [`crate::distance::pair_in_block`]: both rows as padded
/// stride slices, so the sweep is tail-free.
#[inline]
pub(crate) fn pair_in_block(metric: DistanceMetric, block: &CfBlock, i: usize, j: usize) -> f64 {
    let rows = Rows::of(block);
    let (a, b) = (rows.row(i), rows.row(j));
    compiled!(metric, block.dim(), lane_distance(&a, &b))
}

/// Lane form of the first-minimum closest-row scan. Identical selection
/// (strict `<` on distances, earliest row wins) to the scalar form.
#[inline]
pub(crate) fn closest_among(
    metric: DistanceMetric,
    ent: &Cf,
    block: &CfBlock,
) -> Option<(usize, f64)> {
    let _sp = crate::obs::span::enter("simd_kernel");
    let (probe, rows) = (Operand::probe(ent), Rows::of(block));
    compiled!(metric, block.dim(), closest_among_in(&probe, &rows))
}

fn closest_among_in<const M: u8, const D: usize>(
    probe: &Operand<'_>,
    rows: &Rows<'_>,
) -> Option<(usize, f64)> {
    let mut best = Best::MIN_START;
    let at = scan_rows::<M, D, false>(probe, rows, 0, &mut best, &mut [0.0; CHUNK]);
    at.map(|i| (i, best.d))
}

/// Lane form of [`crate::distance::closest_among_pruned`]: the D0 scan
/// skips a row whose norm bound exceeds the best distance so far.
pub(crate) fn closest_among_pruned(
    metric: DistanceMetric,
    ent: &Cf,
    block: &CfBlock,
) -> (Option<(usize, f64)>, u64, u64) {
    if metric != DistanceMetric::D0 {
        let best = closest_among(metric, ent, block);
        return (best, block.len() as u64, 0);
    }
    let probe = Operand::probe(ent);
    let ent_norm = ent.mean_sq().sqrt();
    compiled!(
        metric,
        block.dim(),
        closest_among_pruned_in(&probe, ent_norm, block)
    )
}

/// Row by row, since whether a row is skipped depends on the best found
/// before it.
fn closest_among_pruned_in<const M: u8, const D: usize>(
    probe: &Operand<'_>,
    ent_norm: f64,
    block: &CfBlock,
) -> (Option<(usize, f64)>, u64, u64) {
    let rows = Rows::of(block);
    let mut best = Best::MIN_START;
    let mut at = None;
    let (mut evaluated, mut pruned) = (0u64, 0u64);
    for i in 0..rows.len() {
        let row_norm = row_centroid_norm(block, i);
        let bound = (ent_norm - row_norm).abs() - D0_PRUNE_SLACK_REL * (ent_norm + row_norm);
        if bound > best.d {
            pruned += 1;
            continue;
        }
        evaluated += 1;
        if best.lower::<M>(pre_root::<M, D>(probe, &rows.row(i))) {
            at = Some(i);
        }
    }
    (at.map(|i| (i, best.d)), evaluated, pruned)
}

/// Lane form of the first-minimum closest-pair scan. The first pair is
/// taken unconditionally, as in the scalar form.
#[inline]
pub(crate) fn closest_pair(metric: DistanceMetric, block: &CfBlock) -> Option<(usize, usize, f64)> {
    let _sp = crate::obs::span::enter("simd_kernel");
    if block.len() < 2 {
        return None;
    }
    let rows = Rows::of(block);
    compiled!(metric, block.dim(), closest_pair_in(&rows))
}

fn closest_pair_in<const M: u8, const D: usize>(rows: &Rows<'_>) -> Option<(usize, usize, f64)> {
    let buf = &mut [0.0; CHUNK];
    // Pair (0, 1) is the unconditional start; meeting it again in the
    // scan cannot replace it, since nothing beats itself.
    let mut best = Best::of::<M>(pre_root::<M, D>(&rows.row(0), &rows.row(1)));
    let mut at = (0, 1);
    for i in 0..rows.len() {
        if let Some(j) = scan_rows::<M, D, false>(&rows.row(i), rows, i + 1, &mut best, buf) {
            at = (i, j);
        }
    }
    Some((at.0, at.1, best.d))
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
    let rows = Rows::of(block);
    compiled!(metric, block.dim(), farthest_pair_in(&rows))
}

fn farthest_pair_in<const M: u8, const D: usize>(rows: &Rows<'_>) -> Option<(usize, usize, f64)> {
    let buf = &mut [0.0; CHUNK];
    let (mut best, mut at) = (Best::MAX_START, (0, 1));
    for i in 0..rows.len() {
        if let Some(j) = scan_rows::<M, D, true>(&rows.row(i), rows, i + 1, &mut best, buf) {
            at = (i, j);
        }
    }
    Some((at.0, at.1, best.d))
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

    /// Asserts that the three lane scans pick the scalar oracles' rows,
    /// and at dim ≤ 4 also return the scalar oracles' distance bits.
    fn assert_scans_agree(m: DistanceMetric, probe: &Cf, block: &CfBlock, ctx: &str) {
        let bits = |d: f64| if block.dim() <= 4 { d.to_bits() } else { 0 };
        let lane = closest_among(m, probe, block);
        let scalar = closest_among_scalar(m, probe, block);
        assert_eq!(
            lane.map(|(i, d)| (i, bits(d))),
            scalar.map(|(i, d)| (i, bits(d))),
            "{m} {ctx} closest_among winner"
        );
        let (lp, sp) = (closest_pair(m, block), closest_pair_scalar(m, block));
        assert_eq!(
            lp.map(|(i, j, d)| (i, j, bits(d))),
            sp.map(|(i, j, d)| (i, j, bits(d))),
            "{m} {ctx} closest_pair"
        );
        let (lf, sf) = (farthest_pair(m, block), farthest_pair_scalar(m, block));
        assert_eq!(
            lf.map(|(i, j, d)| (i, j, bits(d))),
            sf.map(|(i, j, d)| (i, j, bits(d))),
            "{m} {ctx} farthest_pair"
        );
    }

    /// Two y coordinates `(hi, lo)` whose pre-root values `3² + y²` (summed
    /// in the dim-2 kernels' order) differ, `lo`'s the smaller, but share
    /// one square root: searched a few floats down from `hi = 4`.
    fn root_collision() -> (f64, f64) {
        let pre = |y: f64| 3.0 * 3.0 + y * y;
        let hi = 4.0_f64;
        (1..64)
            .map(|k| f64::from_bits(hi.to_bits() - k))
            .find(|&lo| pre(lo) < pre(hi) && pre(lo).sqrt() == pre(hi).sqrt())
            .map(|lo| (hi, lo))
            .expect("a pre-root pair sharing one root")
    }

    #[test]
    fn scans_agree_with_scalar_oracles() {
        // Winners must match the scalar scans at every dim: distances
        // agree within 1e-12 relative while the fixtures keep every
        // inter-row gap far wider, so no ordering can flip. The block
        // sizes sit on both sides of one and two selection chunks, and
        // the dims cover every dimension class.
        for dim in [1usize, 2, 3, 4, 5, 8, 33] {
            let cfs = fixture(dim, 101);
            let probe = &cfs[100];
            for rows in [1usize, 2, 10, 31, 32, 33, 64, 65, 100] {
                let block = CfBlock::from_cfs(&cfs[..rows]);
                for m in DistanceMetric::ALL {
                    assert_scans_agree(m, probe, &block, &format!("dim {dim}, {rows} rows"));
                }
            }
        }

        // Planted cases, probed from the origin, each with the winner the
        // scalar scan it targets must pick under D0.
        enum Want {
            Among(usize),
            Pair(usize, usize),
            Far(usize, usize),
        }
        let at = |x: f64, y: f64| Cf::from_point(&Point::xy(x, y));
        let origin = at(0.0, 0.0);
        let planted = |backdrop: &[Cf], rows: &[(usize, Cf)]| {
            let mut block = CfBlock::from_cfs(backdrop);
            for (i, cf) in rows {
                block.set(*i, cf);
            }
            block
        };
        // Backdrops of 64 singletons: 100 apart on a line from (100, 0);
        // 5 apart on an 8-wide grid from (150, 150); 1e-3 apart on one
        // from (1.5, 2), 2.5 from both the origin and (3, 4).
        let line = (0..64)
            .map(|r| at(100.0 * (r + 1) as f64, 0.0))
            .collect::<Vec<_>>();
        let lattice = |x: f64, y: f64, step: f64| {
            (0..64)
                .map(|r| at(x + step * (r % 8) as f64, y + step * (r / 8) as f64))
                .collect::<Vec<_>>()
        };
        let (grid, huddle) = (lattice(150.0, 150.0, 5.0), lattice(1.5, 2.0, 1e-3));
        let mut cases = Vec::new();

        // Exact ties across a chunk boundary. closest_among: the same
        // nearest row in two chunks. closest_pair: row 0's two nearest
        // rows straddle its scan's first chunk boundary (at CHUNK + 1),
        // and two equal pairs sit in the scans of rows 5 and 41.
        // farthest_pair: row 0's two farthest rows straddle it. The
        // earlier row or pair must win.
        for (a, b) in [(CHUNK - 1, CHUNK), (5, 40)] {
            let block = planted(&line, &[(a, at(3.0, 4.0)), (b, at(3.0, 4.0))]);
            cases.push((format!("tie rows {a}, {b}"), block, Want::Among(a)));
        }
        let (a, b) = (CHUNK, CHUNK + 1);
        let rows = [(0, origin.clone()), (a, at(3.0, 4.0)), (b, at(-3.0, -4.0))];
        cases.push((
            "tie pairs in one scan".into(),
            planted(&line, &rows),
            Want::Pair(0, a),
        ));
        let rows = [(40, at(603.0, 4.0)), (63, at(4203.0, 4.0))];
        cases.push((
            "tie pairs in two scans".into(),
            planted(&line, &rows),
            Want::Pair(5, 40),
        ));
        let rows = [
            (0, origin.clone()),
            (a, at(300.0, 400.0)),
            (b, at(400.0, 300.0)),
        ];
        cases.push((
            "tie far pairs".into(),
            planted(&grid, &rows),
            Want::Far(0, a),
        ));

        // Root collisions: an earlier and a later candidate at distance 5,
        // one's pre-root value an ulp past the other's. The strict rule on
        // distances keeps the earlier one; a scan comparing pre-root
        // values alone would not. First within one chunk, then straddling
        // a chunk boundary in both orders.
        let (hi, lo) = root_collision();
        let block = CfBlock::from_cfs(&[at(30.0, 0.0), at(3.0, hi), at(3.0, lo), at(-30.0, 0.0)]);
        cases.push(("root collision among".into(), block, Want::Among(1)));
        let block =
            CfBlock::from_cfs(&[origin.clone(), at(3.0, hi), at(1e3, 0.0), at(1e3 + 3.0, lo)]);
        cases.push(("root collision pairs".into(), block, Want::Pair(0, 1)));
        let block = CfBlock::from_cfs(&[origin.clone(), at(3.0, lo), at(3.0, hi)]);
        cases.push(("root collision far".into(), block, Want::Far(0, 1)));
        for (y1, y2) in [(hi, lo), (lo, hi)] {
            let ctx = format!("root collision across chunks, y {y1} then {y2}");
            let rows = [(CHUNK - 1, at(3.0, y1)), (CHUNK, at(3.0, y2))];
            let want = Want::Among(CHUNK - 1);
            cases.push((format!("{ctx}: among"), planted(&line, &rows), want));
            let rows = [(0, origin.clone()), (a, at(3.0, y1)), (b, at(-3.0, -y2))];
            cases.push((
                format!("{ctx}: pairs"),
                planted(&line, &rows),
                Want::Pair(0, a),
            ));
            let rows = [(0, origin.clone()), (a, at(3.0, y1)), (b, at(3.0, y2))];
            cases.push((
                format!("{ctx}: far"),
                planted(&huddle, &rows),
                Want::Far(0, a),
            ));
        }

        let d0 = DistanceMetric::D0;
        for (ctx, block, want) in &cases {
            let (got, want) = match *want {
                Want::Among(i) => (
                    closest_among_scalar(d0, &origin, block).map(|(i, _)| (i, 0)),
                    (i, 0),
                ),
                Want::Pair(i, j) => (
                    closest_pair_scalar(d0, block).map(|(i, j, _)| (i, j)),
                    (i, j),
                ),
                Want::Far(i, j) => (
                    farthest_pair_scalar(d0, block).map(|(i, j, _)| (i, j)),
                    (i, j),
                ),
            };
            assert_eq!(got, Some(want), "{ctx}");
            for m in DistanceMetric::ALL {
                assert_scans_agree(m, &origin, block, ctx);
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
