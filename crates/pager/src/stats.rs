//! Aggregate I/O and memory statistics for a BIRCH run.
//!
//! These are the columns the paper's §6 reports or reasons about: number of
//! tree rebuilds, page high-water mark, and outlier-disk traffic. The
//! pipeline fills one [`IoStats`] per run and the bench binaries print it.

use std::fmt;

/// Counters describing the resource behaviour of one clustering run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoStats {
    /// Number of CF-tree rebuilds triggered by memory pressure (paper §5.1).
    pub rebuilds: u64,
    /// Peak number of memory pages in use at any time.
    pub peak_pages: usize,
    /// Records (outlier CF entries / delayed points) written to disk.
    pub disk_writes: u64,
    /// Records read back from disk during re-absorption.
    pub disk_reads: u64,
    /// Bytes written to the simulated disk.
    pub disk_bytes_written: u64,
    /// Bytes read from the simulated disk.
    pub disk_bytes_read: u64,
    /// Write *attempts*, successful or not — `disk_writes` counts only
    /// the ones that landed, so `attempts - writes` is the number of
    /// rejections (genuine disk-full plus injected faults).
    pub disk_write_attempts: u64,
    /// Rejections caused by an installed [`FaultPlan`](crate::FaultPlan)
    /// rather than a genuinely full disk. Lets soak harnesses separate
    /// injected failures from organic ones.
    pub disk_faults_injected: u64,
    /// Node accesses that went through the page cache (out-of-core mode).
    pub page_refs: u64,
    /// Node accesses that missed and had to fault the page in from the
    /// spill file.
    pub page_faults: u64,
    /// Resident nodes evicted to the spill file under page pressure.
    pub page_evictions: u64,
    /// Leaf-entry splits performed during insertion.
    pub splits: u64,
    /// Merging refinements performed after splits (paper §4.3).
    pub merge_refinements: u64,
    /// Points discarded for good as outliers: the summed N (weight) of the
    /// outlier entries dropped at the end of the scan, so that the kept
    /// tree's N plus this equals the N fed exactly, plus any points a
    /// refinement pass discards. Fractional for weighted input.
    pub outliers_discarded: f64,
}

impl IoStats {
    /// Merges another stats block into this one (component-wise sum; peak is
    /// the max of the two peaks).
    pub fn absorb(&mut self, other: &IoStats) {
        self.rebuilds += other.rebuilds;
        self.peak_pages = self.peak_pages.max(other.peak_pages);
        self.disk_writes += other.disk_writes;
        self.disk_reads += other.disk_reads;
        self.disk_bytes_written += other.disk_bytes_written;
        self.disk_bytes_read += other.disk_bytes_read;
        self.disk_write_attempts += other.disk_write_attempts;
        self.disk_faults_injected += other.disk_faults_injected;
        self.page_refs += other.page_refs;
        self.page_faults += other.page_faults;
        self.page_evictions += other.page_evictions;
        self.splits += other.splits;
        self.merge_refinements += other.merge_refinements;
        self.outliers_discarded += other.outliers_discarded;
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rebuilds={} peak_pages={} splits={} refinements={} \
             cache(refs={},faults={},evictions={}) \
             disk(w={},r={},bytes_w={},bytes_r={},attempts={},faults={}) \
             outliers_discarded={}",
            self.rebuilds,
            self.peak_pages,
            self.splits,
            self.merge_refinements,
            self.page_refs,
            self.page_faults,
            self.page_evictions,
            self.disk_writes,
            self.disk_reads,
            self.disk_bytes_written,
            self.disk_bytes_read,
            self.disk_write_attempts,
            self.disk_faults_injected,
            self.outliers_discarded,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_and_maxes() {
        let mut a = IoStats {
            rebuilds: 2,
            peak_pages: 40,
            disk_writes: 10,
            splits: 5,
            ..IoStats::default()
        };
        let b = IoStats {
            rebuilds: 1,
            peak_pages: 75,
            disk_reads: 4,
            merge_refinements: 3,
            ..IoStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.rebuilds, 3);
        assert_eq!(a.peak_pages, 75);
        assert_eq!(a.disk_writes, 10);
        assert_eq!(a.disk_reads, 4);
        assert_eq!(a.splits, 5);
        assert_eq!(a.merge_refinements, 3);
    }

    #[test]
    fn absorb_peak_pages_is_max_not_sum() {
        // Peaks describe concurrent residency: merging two runs (or two
        // parallel workers) must never add the high-water marks together.
        let mut a = IoStats {
            peak_pages: 40,
            ..IoStats::default()
        };
        let b = IoStats {
            peak_pages: 75,
            ..IoStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.peak_pages, 75);

        // Absorbing a smaller peak leaves the mark unchanged…
        a.absorb(&IoStats {
            peak_pages: 10,
            ..IoStats::default()
        });
        assert_eq!(a.peak_pages, 75);

        // …and the operation is commutative in the peak.
        let mut c = IoStats {
            peak_pages: 75,
            ..IoStats::default()
        };
        c.absorb(&IoStats {
            peak_pages: 40,
            ..IoStats::default()
        });
        assert_eq!(c.peak_pages, a.peak_pages);
    }

    #[test]
    fn absorb_empty_is_identity() {
        let mut a = IoStats {
            rebuilds: 2,
            peak_pages: 40,
            disk_writes: 10,
            disk_reads: 7,
            disk_bytes_written: 320,
            disk_bytes_read: 224,
            disk_write_attempts: 12,
            disk_faults_injected: 2,
            page_refs: 200,
            page_faults: 30,
            page_evictions: 28,
            splits: 5,
            merge_refinements: 4,
            outliers_discarded: 1.5,
        };
        let before = a;
        a.absorb(&IoStats::default());
        assert_eq!(a, before);
    }

    #[test]
    fn display_is_human_readable() {
        let s = IoStats {
            rebuilds: 3,
            peak_pages: 80,
            ..IoStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("rebuilds=3"));
        assert!(text.contains("peak_pages=80"));
    }
}
