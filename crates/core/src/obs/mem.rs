//! Memory-budget accounting against the paper's M.
//!
//! BIRCH's contract is "the best clustering within a fixed amount of
//! memory M" (§1, §5): Phase 1 *reacts* to the page budget — rebuilds
//! when `node_count × P > M` — but until now nothing measured how close
//! the process actually sits to M in bytes, nor what the real (Rust-side)
//! footprint of a "page" is. [`MemoryGauge`] tracks live and high-water
//! bytes for four components:
//!
//! * `pager_pages` — `node_count × page_bytes`, the paper's own cost
//!   model. This is the component compared against `budget_bytes`
//!   (= `BirchConfig::memory_bytes`); its peak is `mem_highwater_bytes`
//!   in the JSON.
//! * `node_arena` — the node structure on the heap: the arena `Vec`'s
//!   capacity of `Node` structs plus every interior node's child-id
//!   `Vec`.
//! * `cf_blocks` — every node's [`CfBlock`](crate::distance::CfBlock)
//!   slabs, the one place the tree stores its CFs. `node_arena +
//!   cf_blocks` is what the tree really occupies.
//! * `outlier_disk` — bytes parked on the outlier and delay-split spill
//!   logs under the paper's per-entry cost model (budgeted separately by
//!   `disk_bytes`, reported here for the full picture). The entries are
//!   on disk, not heap: each log holds at most the one page it is
//!   filling in RAM.
//! * `page_spill` — bytes of evicted CF-tree nodes in the out-of-core
//!   spill file (zero unless `out_of_core` is on). Spilled pages are
//!   exactly what does *not* count against M: in paged runs the budgeted
//!   `pager_pages` component follows the resident count instead.
//!
//! *Headroom* (`budget − peak(pager_pages)`) is a first-class measurable,
//! and so is its violation: `overrun_bytes() > 0` names exactly how far a
//! run exceeded M. A transient overrun of about one page per tree level
//! is legitimate — the rebuild trigger fires *after* the split that
//! crossed the budget — and the gauge makes that transient visible
//! instead of hiding it.

use crate::tree::CfTree;

/// Live/high-water byte pair for one accounted component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemComponent {
    /// Bytes held at the last sample.
    pub live_bytes: u64,
    /// Largest sampled value over the run.
    pub peak_bytes: u64,
}

impl MemComponent {
    /// Records a new live value, ratcheting the peak.
    pub fn record(&mut self, live: u64) {
        self.live_bytes = live;
        self.peak_bytes = self.peak_bytes.max(live);
    }

    /// Serializes as a `{"live_bytes":…,"peak_bytes":…}` JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"live_bytes\":{},\"peak_bytes\":{}}}",
            self.live_bytes, self.peak_bytes
        )
    }
}

/// Byte accounting of one run against budget M (see the module docs for
/// the component inventory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryGauge {
    /// Budget M in bytes (`BirchConfig::memory_bytes`).
    pub budget_bytes: u64,
    /// Simulated page bytes (`node_count × page_bytes`) — the component
    /// held against `budget_bytes`.
    pub pager_pages: MemComponent,
    /// Real heap bytes of the node arena and the child-id vectors.
    pub node_arena: MemComponent,
    /// Real heap bytes of the nodes' [`CfBlock`] slabs.
    ///
    /// [`CfBlock`]: crate::distance::CfBlock
    pub cf_blocks: MemComponent,
    /// Bytes parked on the outlier and delay-split spill logs, under the
    /// per-entry cost model (on disk, not heap).
    pub outlier_disk: MemComponent,
    /// Bytes of evicted tree nodes in the out-of-core page spill file
    /// (zero for in-core runs).
    pub page_spill: MemComponent,
}

impl MemoryGauge {
    /// A gauge with budget M set and nothing sampled yet.
    #[must_use]
    pub fn with_budget(budget_bytes: u64) -> Self {
        Self {
            budget_bytes,
            ..Self::default()
        }
    }

    /// Samples the tree (and the current outlier-disk occupancy) into the
    /// gauge. O(nodes) — callers sample on page-count changes, rebuilds
    /// and phase boundaries, not per point.
    pub fn sample_tree(&mut self, tree: &CfTree, page_bytes: usize, outlier_bytes: u64) {
        let fp = tree.memory_footprint();
        self.node_arena.record(fp.arena_bytes);
        self.cf_blocks.record(fp.block_bytes);
        self.pager_pages
            .record((tree.node_count() * page_bytes) as u64);
        self.outlier_disk.record(outlier_bytes);
        // In-core: nothing is spilled, but keep the live value honest.
        self.page_spill.record(0);
    }

    /// Paged (out-of-core) variant of [`MemoryGauge::sample_tree`]: the
    /// budgeted `pager_pages` component follows the *resident* page
    /// count — what actually occupies budget M — and the evicted
    /// remainder is accounted as `page_spill`.
    pub fn sample_paged_tree(
        &mut self,
        tree: &CfTree,
        page_bytes: usize,
        outlier_bytes: u64,
        resident_nodes: usize,
        spill_file_bytes: u64,
    ) {
        let fp = tree.memory_footprint();
        self.node_arena.record(fp.arena_bytes);
        self.cf_blocks.record(fp.block_bytes);
        self.pager_pages
            .record((resident_nodes * page_bytes) as u64);
        self.outlier_disk.record(outlier_bytes);
        self.page_spill.record(spill_file_bytes);
    }

    /// The page high-water mark in bytes — schema v4's
    /// `mem_highwater_bytes`, the number held against budget M.
    #[must_use]
    pub fn highwater_bytes(&self) -> u64 {
        self.pager_pages.peak_bytes
    }

    /// Budget minus the page high-water mark (0 when over budget).
    #[must_use]
    pub fn headroom_bytes(&self) -> u64 {
        self.budget_bytes.saturating_sub(self.highwater_bytes())
    }

    /// How far the page high-water mark exceeded budget M (0 when the
    /// budget held). Non-zero values are *reported, not panicked on*: the
    /// rebuild trigger fires after the allocation that crossed M, so a
    /// transient of ~one page per tree level is the expected shape.
    #[must_use]
    pub fn overrun_bytes(&self) -> u64 {
        self.highwater_bytes().saturating_sub(self.budget_bytes)
    }

    /// Folds in a gauge from a *concurrent* stage (a parallel shard):
    /// peaks and lives sum — the shards held their memory at the same
    /// time. The budget keeps `self`'s value (the run-level M).
    pub fn absorb_concurrent(&mut self, other: &MemoryGauge) {
        for (mine, theirs) in self.components_mut().into_iter().zip(other.components()) {
            mine.live_bytes += theirs.live_bytes;
            mine.peak_bytes += theirs.peak_bytes;
        }
    }

    /// Folds in a gauge from a *sequential* stage (e.g. the merge tree
    /// built after the shards are done): peaks max, live follows the
    /// later stage. The budget keeps `self`'s value.
    pub fn absorb_sequential(&mut self, other: &MemoryGauge) {
        for (mine, theirs) in self.components_mut().into_iter().zip(other.components()) {
            mine.live_bytes = theirs.live_bytes;
            mine.peak_bytes = mine.peak_bytes.max(theirs.peak_bytes);
        }
    }

    fn components(&self) -> [&MemComponent; 5] {
        [
            &self.pager_pages,
            &self.node_arena,
            &self.cf_blocks,
            &self.outlier_disk,
            &self.page_spill,
        ]
    }

    fn components_mut(&mut self) -> [&mut MemComponent; 5] {
        [
            &mut self.pager_pages,
            &mut self.node_arena,
            &mut self.cf_blocks,
            &mut self.outlier_disk,
            &mut self.page_spill,
        ]
    }

    /// Component names paired with their values, in stable export order
    /// (used by the Prometheus exposition).
    #[must_use]
    pub fn named_components(&self) -> [(&'static str, MemComponent); 5] {
        [
            ("pager_pages", self.pager_pages),
            ("node_arena", self.node_arena),
            ("cf_blocks", self.cf_blocks),
            ("outlier_disk", self.outlier_disk),
            ("page_spill", self.page_spill),
        ]
    }

    /// Serializes as the schema-v6 `"memory"` JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"budget_bytes\":{},\"mem_highwater_bytes\":{},\"headroom_bytes\":{},\
             \"overrun_bytes\":{},\"budget_held\":{},\"pager_pages\":{},\"node_arena\":{},\
             \"cf_blocks\":{},\"outlier_disk\":{},\"page_spill\":{}}}",
            self.budget_bytes,
            self.highwater_bytes(),
            self.headroom_bytes(),
            self.overrun_bytes(),
            self.overrun_bytes() == 0,
            self.pager_pages.to_json(),
            self.node_arena.to_json(),
            self.cf_blocks.to_json(),
            self.outlier_disk.to_json(),
            self.page_spill.to_json(),
        )
    }

    /// Human-readable multi-line table for `birch-report`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "budget M             {:>12} bytes\n\
             page high-water      {:>12} bytes ({} of budget)\n\
             headroom             {:>12} bytes\n",
            self.budget_bytes,
            self.highwater_bytes(),
            if self.budget_bytes == 0 {
                "n/a".to_string()
            } else {
                format!(
                    "{:.1}%",
                    100.0 * self.highwater_bytes() as f64 / self.budget_bytes as f64
                )
            },
            self.headroom_bytes(),
        ));
        if self.overrun_bytes() > 0 {
            out.push_str(&format!(
                "OVERRUN              {:>12} bytes past budget M\n",
                self.overrun_bytes()
            ));
        }
        for (name, c) in self.named_components() {
            out.push_str(&format!(
                "{name:<20} {:>12} live / {:>12} peak\n",
                c.live_bytes, c.peak_bytes
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::tree::TreeParams;

    fn tiny_tree(points: usize) -> CfTree {
        let mut t = CfTree::new(TreeParams {
            leaf_capacity: 3,
            branching: 3,
            ..TreeParams::for_dim(2)
        });
        for i in 0..points {
            let x = i as f64;
            t.insert_point(&Point::xy(x * 10.0, x * 10.0));
        }
        t
    }

    #[test]
    fn record_ratchets_peak() {
        let mut c = MemComponent::default();
        c.record(100);
        c.record(40);
        assert_eq!(c.live_bytes, 40);
        assert_eq!(c.peak_bytes, 100);
        c.record(250);
        assert_eq!(c.peak_bytes, 250);
    }

    #[test]
    fn sample_tree_fills_all_components() {
        let tree = tiny_tree(20);
        let mut g = MemoryGauge::with_budget(1 << 20);
        g.sample_tree(&tree, 1024, 512);
        assert_eq!(
            g.pager_pages.live_bytes,
            (tree.node_count() * 1024) as u64,
            "pages follow the paper's cost model"
        );
        assert!(g.node_arena.live_bytes > 0);
        assert!(g.cf_blocks.live_bytes > 0);
        assert_eq!(g.outlier_disk.live_bytes, 512);
        assert_eq!(g.highwater_bytes(), g.pager_pages.peak_bytes);
        assert_eq!(g.headroom_bytes(), (1 << 20) - g.highwater_bytes());
        assert_eq!(g.overrun_bytes(), 0);
    }

    #[test]
    fn paged_sample_budgets_residency_not_tree_size() {
        let tree = tiny_tree(50);
        let mut g = MemoryGauge::with_budget(4 * 1024);
        // 3 resident pages of a much larger tree, the rest spilled.
        g.sample_paged_tree(&tree, 1024, 0, 3, 9000);
        assert_eq!(g.pager_pages.live_bytes, 3 * 1024);
        assert_eq!(g.page_spill.live_bytes, 9000);
        assert_eq!(g.overrun_bytes(), 0, "resident fits the budget");
        let json = g.to_json();
        assert!(
            json.contains("\"page_spill\":{\"live_bytes\":9000"),
            "{json}"
        );
        // Back in core: the spill component's live value drops to zero.
        g.sample_tree(&tree, 1024, 0);
        assert_eq!(g.page_spill.live_bytes, 0);
        assert_eq!(g.page_spill.peak_bytes, 9000);
    }

    #[test]
    fn footprint_grows_with_the_tree() {
        let small = tiny_tree(4).memory_footprint();
        let large = tiny_tree(200).memory_footprint();
        assert!(large.arena_bytes > small.arena_bytes);
        assert!(large.block_bytes > small.block_bytes);
    }

    #[test]
    fn overrun_is_reported_not_clamped_away() {
        let mut g = MemoryGauge::with_budget(1000);
        g.pager_pages.record(1500);
        assert_eq!(g.overrun_bytes(), 500);
        assert_eq!(g.headroom_bytes(), 0);
        let json = g.to_json();
        assert!(json.contains("\"overrun_bytes\":500"), "{json}");
        assert!(json.contains("\"budget_held\":false"), "{json}");
        assert!(g.render().contains("OVERRUN"), "{}", g.render());
    }

    #[test]
    fn concurrent_absorb_sums_sequential_maxes() {
        let mut a = MemoryGauge::with_budget(4096);
        a.pager_pages.record(1000);
        let mut b = MemoryGauge::default();
        b.pager_pages.record(700);
        a.absorb_concurrent(&b);
        assert_eq!(a.pager_pages.peak_bytes, 1700, "shards coexist: peaks add");
        assert_eq!(a.budget_bytes, 4096, "budget is the run's, not summed");

        let mut late = MemoryGauge::default();
        late.pager_pages.record(1200);
        a.absorb_sequential(&late);
        assert_eq!(a.pager_pages.peak_bytes, 1700, "sequential stage maxes");
        assert_eq!(a.pager_pages.live_bytes, 1200, "live follows later stage");
    }

    #[test]
    fn health_reports_levels_and_utilization() {
        let tree = tiny_tree(30);
        let h = tree.health();
        assert_eq!(h.height, tree.height());
        assert_eq!(h.levels.len(), h.height);
        assert_eq!(h.nodes, tree.node_count());
        assert_eq!(h.leaf_entries, tree.leaf_entry_count());
        assert_eq!(
            h.levels.iter().map(|l| l.nodes).sum::<usize>(),
            h.nodes,
            "every node appears on exactly one level"
        );
        assert!(h.leaf_utilization > 0.0 && h.leaf_utilization <= 1.0);
        for l in &h.levels {
            assert!(l.min_entries <= l.max_entries);
            assert!(l.max_entries <= l.capacity_per_node);
        }
        let json = h.to_json();
        assert!(json.contains("\"leaf_utilization\":"), "{json}");
        assert!(json.contains("\"levels\":[{\"level\":0,"), "{json}");
    }

    #[test]
    fn empty_tree_health_is_sane() {
        let tree = CfTree::new(TreeParams::for_dim(2));
        let h = tree.health();
        assert_eq!(h.height, 1);
        assert_eq!(h.leaf_nodes, 1);
        assert_eq!(h.leaf_entries, 0);
        assert_eq!(h.leaf_utilization, 0.0);
        assert_eq!(h.levels[0].min_entries, 0);
    }
}
