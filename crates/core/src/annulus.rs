//! Exact nearest-neighbour search over rows sorted by centroid norm.
//!
//! The reverse triangle inequality `‖x − μ‖ ≥ |‖x‖ − ‖μ‖|` bounds a
//! distance from the two norms alone. With the rows sorted by norm, every
//! row farther out in norm from the query than some row `r` has a bound at
//! least `r`'s, so once `r`'s bound exceeds the best distance found, the
//! whole rest of that side can be skipped unseen. [`NormOrder::walk`]
//! visits rows outward from the query's norm, nearer norm gap first, and
//! closes each side that way — the annulus around `‖x‖` shrinks as the best
//! distance does (Schubert & Lang's aggregated HAC and Moore's anchors
//! hierarchy use the same cached-norm bound; see PAPERS.md).
//!
//! Phase 3's nearest-neighbour chain ([`crate::hierarchical`]) walks it. The
//! walk only changes which rows are looked at, never how a visited row
//! compares, so the chain keeps its scan's tie rules and stays
//! bit-identical to it (DESIGN.md §12.3). Phase 4's seed search
//! ([`crate::phase4`]) does not walk: it sorts its seeds with a
//! [`NormOrder`] and scans the same annulus a chunk of rows at a time,
//! closing each side on the same [`gap_bound`].

use crate::distance::D0_PRUNE_SLACK_REL;

/// Relative slack of [`gap_bound`]: twice the per-row prune slack.
///
/// One [`D0_PRUNE_SLACK_REL`] makes the computed reverse-triangle bound a
/// true lower bound of the row's own distance (the argument at that
/// constant). The second one absorbs the few-ulp rounding of computing the
/// bound itself, so the computed value of a row stays below the
/// exact-arithmetic bound of every row farther out in norm — closing a side
/// on it can never skip a row that could still win, rounding included.
const STOP_SLACK_REL: f64 = 2.0 * D0_PRUNE_SLACK_REL;

/// Lower bound on the centroid distance between any row whose norm is at
/// least as far from `q` as `norm` is (on the same side of `q`) and a
/// centroid of norm `q`: `|q − norm|` shaved by [`STOP_SLACK_REL`].
#[must_use]
#[inline]
pub(crate) fn gap_bound(q: f64, norm: f64) -> f64 {
    ((q - norm).abs() - STOP_SLACK_REL * (q + norm)).max(0.0)
}

/// Row ids sorted by `(norm, id)`: the norm ascending, ties by the smaller
/// id. The norms are kept beside the ids so a walk reads one contiguous
/// array.
#[derive(Debug)]
pub(crate) struct NormOrder {
    norms: Vec<f64>,
    ids: Vec<u32>,
}

impl NormOrder {
    /// Sorts rows `0..norms.len()` by their norm.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` rows.
    #[must_use]
    pub(crate) fn new(norms: &[f64]) -> Self {
        let n = u32::try_from(norms.len()).expect("at most u32::MAX rows");
        let mut ids: Vec<u32> = (0..n).collect();
        ids.sort_unstable_by(|&a, &b| {
            norms[a as usize]
                .total_cmp(&norms[b as usize])
                .then(a.cmp(&b))
        });
        Self {
            norms: ids.iter().map(|&i| norms[i as usize]).collect(),
            ids,
        }
    }

    /// Number of rows.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The id of the row at sorted position `pos`.
    #[must_use]
    #[inline]
    pub(crate) fn id(&self, pos: usize) -> usize {
        self.ids[pos] as usize
    }

    /// The norms in sorted order.
    #[must_use]
    #[inline]
    pub(crate) fn norms(&self) -> &[f64] {
        &self.norms
    }

    /// The row ids in sorted order.
    #[must_use]
    #[inline]
    pub(crate) fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Heap bytes of the two arrays (capacity: what the allocation holds).
    #[must_use]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.norms.capacity() * std::mem::size_of::<f64>()
            + self.ids.capacity() * std::mem::size_of::<u32>()
    }

    /// First position whose `(norm, id)` is not below `(norm, id)`.
    fn lower_bound(&self, norm: f64, id: usize) -> usize {
        let start = self.norms.partition_point(|n| n.total_cmp(&norm).is_lt());
        let run = self.norms[start..].partition_point(|n| n.total_cmp(&norm).is_eq());
        start + self.ids[start..start + run].partition_point(|&i| (i as usize) < id)
    }

    /// Position of row `id`, whose norm is `norm`.
    fn position(&self, id: usize, norm: f64) -> usize {
        let pos = self.lower_bound(norm, id);
        assert!(
            pos < self.len() && self.id(pos) == id,
            "row {id} is not in the order at norm {norm}"
        );
        pos
    }

    /// Removes row `id`, whose norm is `norm`.
    ///
    /// # Panics
    ///
    /// Panics if the row is not present at that norm.
    pub(crate) fn remove(&mut self, id: usize, norm: f64) {
        let pos = self.position(id, norm);
        self.norms.remove(pos);
        self.ids.remove(pos);
    }

    /// Moves row `id` from norm `old` to norm `new`, shifting only the rows
    /// between its two positions.
    ///
    /// # Panics
    ///
    /// Panics if the row is not present at norm `old`.
    pub(crate) fn update(&mut self, id: usize, old: f64, new: f64) {
        let from = self.position(id, old);
        // Counted with the row itself still at `from`, so a move up lands
        // one slot lower once the row leaves `from`.
        let to = self.lower_bound(new, id);
        if to > from {
            self.norms[from..to].rotate_left(1);
            self.ids[from..to].rotate_left(1);
            self.norms[to - 1] = new;
        } else {
            self.norms[to..=from].rotate_right(1);
            self.ids[to..=from].rotate_right(1);
            self.norms[to] = new;
        }
    }

    /// Visits rows outward from norm `q`, the side with the smaller norm
    /// gap `|q − norm|` first, and returns once both sides are closed.
    ///
    /// `best` is the caller's running best distance, in whatever units
    /// `stop` returns. Before a row is visited, `stop(norm)` must be a lower
    /// bound on the distance of that row *and of every row farther out on
    /// its side*; when it exceeds `best`, the side is closed without visiting
    /// the row. `visit(pos, id)` evaluates the row at sorted position `pos`
    /// and returns the new running best.
    pub(crate) fn walk(
        &self,
        q: f64,
        mut best: f64,
        stop: impl Fn(f64) -> f64,
        mut visit: impl FnMut(usize, usize) -> f64,
    ) {
        let len = self.len();
        // Rows at `lo..hi` have been visited; `lo - 1` and `hi` are next.
        let mut lo = self.norms.partition_point(|&n| n < q);
        let mut hi = lo;
        let (mut left, mut right) = (lo > 0, hi < len);
        while left || right {
            let go_left = !right || (left && q - self.norms[lo - 1] <= self.norms[hi] - q);
            let pos = if go_left { lo - 1 } else { hi };
            if stop(self.norms[pos]) > best {
                if go_left {
                    left = false;
                } else {
                    right = false;
                }
                continue;
            }
            best = visit(pos, self.id(pos));
            if go_left {
                lo -= 1;
                left = lo > 0;
            } else {
                hi += 1;
                right = hi < len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sorted(o: &NormOrder) {
        for w in 0..o.len().saturating_sub(1) {
            let a = (o.norms[w], o.ids[w]);
            let b = (o.norms[w + 1], o.ids[w + 1]);
            assert!(a.0 < b.0 || (a.0 == b.0 && a.1 < b.1), "{a:?} !< {b:?}");
        }
    }

    #[test]
    fn new_sorts_by_norm_then_id() {
        let o = NormOrder::new(&[3.0, 1.0, 3.0, 0.0, 1.0]);
        assert_eq!(o.ids, vec![3, 1, 4, 0, 2]);
        assert_eq!(o.norms, vec![0.0, 1.0, 1.0, 3.0, 3.0]);
    }

    #[test]
    fn remove_and_update_keep_the_order() {
        let mut norms: Vec<f64> = (0..40).map(|i| f64::from((i * 7) % 13)).collect();
        let mut o = NormOrder::new(&norms);
        let mut live: Vec<usize> = (0..40).collect();
        for step in 0..30usize {
            let id = live[(step * 5) % live.len()];
            if step % 3 == 0 {
                o.remove(id, norms[id]);
                live.retain(|&x| x != id);
            } else {
                // Up, down and onto an existing norm (a tie with other ids).
                let new = [norms[id] + 2.5, norms[id] - 4.0, 6.0][(step / 3) % 3];
                o.update(id, norms[id], new);
                norms[id] = new;
            }
            assert_sorted(&o);
            let mut ids: Vec<usize> = (0..o.len()).map(|p| o.id(p)).collect();
            ids.sort_unstable();
            assert_eq!(ids, live);
            for p in 0..o.len() {
                assert_eq!(o.norms[p].to_bits(), norms[o.id(p)].to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in the order")]
    fn removing_at_the_wrong_norm_panics() {
        let mut o = NormOrder::new(&[1.0, 2.0]);
        o.remove(0, 2.0);
    }

    #[test]
    fn walk_goes_outward_and_closes_sides() {
        // Norms 0, 10, …, 90; query at 41 with a best of 5 after the first
        // visit: only the row at 40 can be visited.
        let norms: Vec<f64> = (0..10).map(|i| f64::from(i) * 10.0).collect();
        let o = NormOrder::new(&norms);
        let mut seen = Vec::new();
        o.walk(
            41.0,
            f64::INFINITY,
            |n| gap_bound(41.0, n),
            |_, id| {
                seen.push(id);
                5.0
            },
        );
        assert_eq!(seen, vec![4]);

        // With no bound every row is visited, nearer gaps first.
        let mut seen = Vec::new();
        o.walk(
            41.0,
            f64::INFINITY,
            |_| 0.0,
            |_, id| {
                seen.push(id);
                f64::INFINITY
            },
        );
        assert_eq!(seen, vec![4, 5, 3, 6, 2, 7, 1, 8, 0, 9]);
    }

    #[test]
    fn gap_bound_is_below_the_gap() {
        assert_eq!(gap_bound(5.0, 5.0), 0.0);
        let b = gap_bound(1e8, 1e8 + 3.0);
        assert!(b < 3.0 && b > 3.0 - 1e-3, "{b}");
    }
}
