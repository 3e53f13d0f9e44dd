//! Outlier handling (§5.1.3) and the delay-split buffer (§5.1.4).
//!
//! BIRCH treats low-density leaf entries as *potential outliers*: during a
//! rebuild, a leaf entry holding "far fewer data points than the average"
//! is written to the outlier disk instead of the new tree. Periodically —
//! when the disk fills up, and once the full dataset has been scanned —
//! the entries on disk are re-scanned to see whether the (now larger)
//! threshold lets them be **re-absorbed** into the tree *without growing
//! it*. Entries that survive to the end of the scan are genuine outliers.
//!
//! The delay-split option uses leftover disk space differently: when memory
//! runs out, points that would force a node split are parked on disk so the
//! current threshold can squeeze in the points that still fit, postponing
//! the (expensive) rebuild.

use crate::cf::Cf;
use crate::obs::{Event, EventSink, NoopSink};
use crate::tree::CfTree;
use birch_pager::{crc32, SimDisk};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Configuration of the outlier-handling option.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierConfig {
    /// Master switch (paper Table 2: outlier-handling on by default).
    pub enabled: bool,
    /// A leaf entry is a potential outlier when it holds fewer than
    /// `factor ×` the average number of points per leaf entry. The paper
    /// uses a quarter ("contains < 25% of the average").
    pub factor: f64,
    /// Whether entries still unabsorbed at the end of the run are removed
    /// from the result (`true`, the paper's behaviour) or folded back into
    /// the tree (`false`).
    pub discard_at_end: bool,
}

impl Default for OutlierConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            factor: 0.25,
            discard_at_end: true,
        }
    }
}

impl OutlierConfig {
    /// Disabled outlier handling (every entry goes back into the tree).
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// Whether an entry of weight `entry_n` is a potential outlier given
    /// the current mean points-per-leaf-entry.
    #[must_use]
    pub fn is_potential_outlier(&self, entry_n: f64, mean_entry_n: f64) -> bool {
        self.enabled && entry_n < self.factor * mean_entry_n
    }
}

/// Outcome of a re-absorption scan over the outlier disk.
///
/// Every drained entry lands in exactly one bucket, so the counts sum to
/// the number of entries scanned. Only `absorbed` is a true §5.1.3
/// re-absorption; `reinserted` and `folded_back` grow the tree like any
/// other insert and are reported separately so telemetry doesn't
/// overstate how much the raised threshold actually recovered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReabsorbReport {
    /// Entries merged into an existing leaf entry without growing the
    /// tree (the absorption test of §5.1.3 passed).
    pub absorbed: u64,
    /// Entries that no longer look like outliers under the current mean
    /// points-per-entry and were re-inserted as regular data.
    pub reinserted: u64,
    /// Entries folded into the tree because the disk refused the
    /// write-back (injected fault or force-full degradation).
    pub folded_back: u64,
    /// Entries written back to disk (still potential outliers).
    pub retained: u64,
}

/// Append-only journal of spilled CF entries in a real file: each record
/// is `u32 word-count | u32 crc32(payload) | payload` (little-endian u64
/// words, the CF's [`Cf::to_words`] layout). Draining reads every record
/// back, verifies its checksum, and bit-compares it against the in-memory
/// copy — so the "disk R" of §5.1.3 genuinely round-trips through the
/// filesystem instead of only being *accounted* as if it did.
#[derive(Debug)]
struct CfJournal {
    file: File,
    path: PathBuf,
    records: usize,
    bytes_written: u64,
    bytes_read: u64,
}

impl CfJournal {
    fn create(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            records: 0,
            bytes_written: 0,
            bytes_read: 0,
        })
    }

    fn append(&mut self, cf: &Cf) -> io::Result<()> {
        let mut words = Vec::new();
        cf.to_words(&mut words);
        let mut payload = Vec::with_capacity(words.len() * 8);
        for w in &words {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        let mut rec = Vec::with_capacity(8 + payload.len());
        rec.extend_from_slice(
            &u32::try_from(words.len())
                .expect("CF word range")
                .to_le_bytes(),
        );
        rec.extend_from_slice(&crc32(&payload).to_le_bytes());
        rec.extend_from_slice(&payload);
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(&rec)?;
        self.records += 1;
        self.bytes_written += rec.len() as u64;
        Ok(())
    }

    /// Reads every record back (verifying checksums), truncates the file,
    /// and returns the decoded CFs in append order.
    fn drain(&mut self, dim: usize) -> io::Result<Vec<Cf>> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut out = Vec::with_capacity(self.records);
        for i in 0..self.records {
            let mut head = [0u8; 8];
            self.file.read_exact(&mut head)?;
            let n_words = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
            let stored = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
            let mut payload = vec![0u8; n_words * 8];
            self.file.read_exact(&mut payload)?;
            self.bytes_read += (8 + payload.len()) as u64;
            assert_eq!(
                crc32(&payload),
                stored,
                "outlier journal record {i} failed its checksum"
            );
            let words: Vec<u64> = payload
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            out.push(Cf::from_words(&words, dim));
        }
        self.file.set_len(0)?;
        self.records = 0;
        Ok(out)
    }
}

impl Drop for CfJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Disk-backed store of potential-outlier CF entries.
#[derive(Debug)]
pub struct OutlierStore {
    disk: SimDisk<Cf>,
    config: OutlierConfig,
    /// Real-file journal mirroring the parked entries (`None` = memory
    /// only). [`SimDisk`] stays the capacity/fault/accounting model the
    /// paper's evaluation needs; the journal is the bytes.
    journal: Option<CfJournal>,
}

impl Clone for OutlierStore {
    /// Clones the in-memory state; the clone is *not* file-backed (the
    /// parallel Phase-1 shards that clone stores run memory-only).
    fn clone(&self) -> Self {
        Self {
            disk: self.disk.clone(),
            config: self.config,
            journal: None,
        }
    }
}

impl OutlierStore {
    /// Creates a store over `disk_bytes` of simulated disk, where each CF
    /// entry accounts for `entry_bytes` (see
    /// [`birch_pager::PageLayout::cf_entry_bytes`]).
    #[must_use]
    pub fn new(disk_bytes: usize, entry_bytes: usize, config: OutlierConfig) -> Self {
        Self {
            disk: SimDisk::new(disk_bytes, entry_bytes),
            config,
            journal: None,
        }
    }

    /// Backs the store with a real append-only journal at `path`: every
    /// parked entry's statistics are written (checksummed) to the file,
    /// and every drain reads them back and verifies them bit-for-bit
    /// against the in-memory copies. The file is deleted when the store
    /// is dropped. Capacity, fault injection, and the I/O *cost model*
    /// stay with the simulated disk.
    ///
    /// # Errors
    ///
    /// Propagates journal-file creation errors.
    ///
    /// # Panics
    ///
    /// Panics when entries are already parked (the journal must see every
    /// record from the start to stay in sync).
    pub fn back_with_file(&mut self, path: &Path) -> io::Result<()> {
        assert!(
            self.disk.is_empty(),
            "cannot attach a journal to a non-empty outlier store"
        );
        self.journal = Some(CfJournal::create(path)?);
        Ok(())
    }

    /// The store's configuration.
    #[must_use]
    pub fn config(&self) -> &OutlierConfig {
        &self.config
    }

    /// Number of potential outliers currently parked on disk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.disk.len()
    }

    /// Whether the disk holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.disk.is_empty()
    }

    /// Whether the disk can take one more entry.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.disk.has_space()
    }

    /// Entries successfully written to the (simulated) disk.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.disk.writes()
    }

    /// Entries read back from the (simulated) disk.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.disk.reads()
    }

    /// Bytes written, under the paper's per-entry cost model.
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.disk.bytes_written()
    }

    /// Bytes read, under the paper's per-entry cost model.
    #[must_use]
    pub fn bytes_read(&self) -> u64 {
        self.disk.bytes_read()
    }

    /// Write attempts, landed or refused.
    #[must_use]
    pub fn write_attempts(&self) -> u64 {
        self.disk.write_attempts()
    }

    /// Writes refused by an injected fault (as opposed to a genuinely
    /// full disk).
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.disk.faults_injected()
    }

    /// Bytes currently occupied on the (simulated) disk.
    #[must_use]
    pub fn used_bytes(&self) -> usize {
        self.disk.used_bytes()
    }

    /// Lifetime bytes `(written, read)` through the real-file journal —
    /// both 0 when the store is memory-only.
    #[must_use]
    pub fn journal_bytes(&self) -> (u64, u64) {
        self.journal
            .as_ref()
            .map_or((0, 0), |j| (j.bytes_written, j.bytes_read))
    }

    /// Installs a fault-injection plan on the underlying disk (tests and
    /// soak runs): spills then fail deterministically, exercising the
    /// fold-back and reabsorb-after-full degradation paths.
    pub fn set_fault_plan(&mut self, plan: birch_pager::FaultPlan) {
        self.disk.set_fault_plan(plan);
    }

    /// Total number of data points parked on disk (sum of the parked
    /// entries' weights), read without touching the I/O counters — the
    /// auditor's N-conservation term.
    #[must_use]
    pub fn parked_n(&self) -> f64 {
        self.disk.peek().iter().map(Cf::n).sum()
    }

    /// Parks a potential outlier on disk. On a full disk the entry is
    /// handed back so the caller can fold it into the tree instead.
    ///
    /// # Panics
    ///
    /// Panics if the store is file-backed and the journal write fails —
    /// a local I/O failure, not a recoverable input condition.
    pub fn spill(&mut self, entry: Cf) -> Result<(), Cf> {
        let _sp = crate::obs::span::enter("disk_write");
        match self.disk.write(entry) {
            Ok(()) => {
                if let Some(j) = self.journal.as_mut() {
                    let cf = self.disk.peek().last().expect("entry just written");
                    j.append(cf).expect("outlier journal write failed");
                }
                Ok(())
            }
            Err((cf, _)) => Err(cf),
        }
    }

    /// Drains the simulated disk and, when file-backed, reads the journal
    /// back and verifies every record bit-for-bit against the in-memory
    /// copies — the real-I/O half of the §5.1.3 outlier disk.
    fn drain_verified(&mut self) -> Vec<Cf> {
        let _sp = crate::obs::span::enter("disk_read");
        let pending = self.disk.drain_all();
        if let Some(j) = self.journal.as_mut() {
            assert_eq!(
                j.records,
                pending.len(),
                "outlier journal out of sync with the store"
            );
            let dim = pending.first().map_or(1, Cf::dim);
            let from_file = j.drain(dim).expect("outlier journal read failed");
            for (i, (disk_cf, mem_cf)) in from_file.iter().zip(&pending).enumerate() {
                let mut wa = Vec::new();
                let mut wb = Vec::new();
                disk_cf.to_words(&mut wa);
                mem_cf.to_words(&mut wb);
                assert_eq!(wa, wb, "outlier journal record {i} diverges from memory");
            }
        }
        pending
    }

    /// Scans every entry on disk and tries to re-absorb it into `tree`
    /// without growing it (paper §5.1.3). Entries that fail the absorption
    /// test but no longer look like outliers under `mean_entry_n` are
    /// inserted normally; the rest go back to disk.
    pub fn reabsorb(&mut self, tree: &mut CfTree, mean_entry_n: f64) -> ReabsorbReport {
        self.reabsorb_observed(tree, mean_entry_n, &mut NoopSink)
    }

    /// Like [`OutlierStore::reabsorb`], but reporting telemetry to `sink`:
    /// an [`Event::OutlierReabsorbed`] with the per-bucket counts
    /// (absorbed / reinserted / folded back), plus
    /// [`Event::SplitPerformed`] / [`Event::MergeRefinement`] for splits
    /// caused by re-inserting entries that outgrew outlierhood. With
    /// [`NoopSink`] this monomorphizes to exactly
    /// [`OutlierStore::reabsorb`].
    pub fn reabsorb_observed(
        &mut self,
        tree: &mut CfTree,
        mean_entry_n: f64,
        sink: &mut impl EventSink,
    ) -> ReabsorbReport {
        let _sp = crate::obs::span::enter("reabsorb");
        let before = tree.stats();
        let report = self.reabsorb_inner(tree, mean_entry_n);
        if sink.enabled() {
            if report.absorbed + report.reinserted + report.folded_back > 0 {
                sink.record(&Event::OutlierReabsorbed {
                    absorbed: report.absorbed,
                    reinserted: report.reinserted,
                    folded_back: report.folded_back,
                });
            }
            let after = tree.stats();
            if after.splits > before.splits {
                sink.record(&Event::SplitPerformed {
                    count: after.splits - before.splits,
                });
            }
            if after.merge_refinements > before.merge_refinements {
                sink.record(&Event::MergeRefinement {
                    count: after.merge_refinements - before.merge_refinements,
                });
            }
        }
        report
    }

    fn reabsorb_inner(&mut self, tree: &mut CfTree, mean_entry_n: f64) -> ReabsorbReport {
        let mut report = ReabsorbReport::default();
        let pending = self.drain_verified();
        for cf in pending {
            if tree.try_absorb(&cf) {
                report.absorbed += 1;
            } else if !self.config.is_potential_outlier(cf.n(), mean_entry_n) {
                // Grew out of outlier-hood (e.g. it was spilled early, the
                // average moved): treat it as regular data again.
                tree.insert_cf(cf);
                report.reinserted += 1;
            } else if let Err(cf) = self.spill(cf) {
                // Refill refused: unreachable with drain-then-refill on
                // a healthy disk, but an injected fault or force-full
                // degradation lands here — fold into the tree rather
                // than lose data.
                tree.insert_cf(cf);
                report.folded_back += 1;
            } else {
                report.retained += 1;
            }
        }
        report
    }

    /// Scans the parked entries without removing them (counts the disk
    /// reads) — used by streaming snapshots.
    pub fn scan(&mut self) -> &[Cf] {
        self.disk.scan_all()
    }

    /// Drains every parked entry *without* deciding its fate — neither
    /// discarded nor folded back. The parallel Phase-1 path uses this to
    /// carry a shard's unresolved potential outliers into the merge stage,
    /// where they get one more re-absorption chance against the full tree
    /// before the usual end-of-scan disposition.
    pub fn take_remaining(&mut self) -> Vec<Cf> {
        self.drain_verified()
    }

    /// Final disposition at the end of the scan: either discards the
    /// remaining entries (returning how many points were dropped: their
    /// summed N, fractional for weighted input) or folds them back into the
    /// tree (returning 0), per the configuration.
    pub fn finalize(&mut self, tree: &mut CfTree) -> f64 {
        self.finalize_observed(tree, &mut NoopSink)
    }

    /// Like [`OutlierStore::finalize`], but reporting telemetry to `sink`:
    /// an [`Event::OutlierDiscarded`] with the points dropped (when
    /// discarding), or split/refinement deltas for the fold-back inserts
    /// (when not). With [`NoopSink`] this monomorphizes to exactly
    /// [`OutlierStore::finalize`].
    pub fn finalize_observed(&mut self, tree: &mut CfTree, sink: &mut impl EventSink) -> f64 {
        let remaining = self.drain_verified();
        if self.config.discard_at_end {
            let points: f64 = remaining.iter().map(Cf::n).sum();
            if sink.enabled() && !remaining.is_empty() {
                sink.record(&Event::OutlierDiscarded { points });
            }
            points
        } else {
            for cf in remaining {
                tree.insert_cf_observed(&cf, sink);
            }
            0.0
        }
    }
}

/// Disk buffer for the delay-split option (§5.1.4): points that would force
/// a split while memory is exhausted wait here until the next rebuild.
#[derive(Debug, Clone)]
pub struct DelaySplitBuffer {
    disk: SimDisk<Cf>,
}

impl DelaySplitBuffer {
    /// Creates a buffer over `disk_bytes` of simulated disk.
    #[must_use]
    pub fn new(disk_bytes: usize, entry_bytes: usize) -> Self {
        Self {
            disk: SimDisk::new(disk_bytes, entry_bytes),
        }
    }

    /// Number of parked points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.disk.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.disk.is_empty()
    }

    /// Whether one more point fits.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.disk.has_space()
    }

    /// Points successfully parked on the (simulated) disk.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.disk.writes()
    }

    /// Points read back from the (simulated) disk.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.disk.reads()
    }

    /// Bytes written, under the paper's per-entry cost model.
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.disk.bytes_written()
    }

    /// Bytes read, under the paper's per-entry cost model.
    #[must_use]
    pub fn bytes_read(&self) -> u64 {
        self.disk.bytes_read()
    }

    /// Write attempts, landed or refused.
    #[must_use]
    pub fn write_attempts(&self) -> u64 {
        self.disk.write_attempts()
    }

    /// Writes refused by an injected fault.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.disk.faults_injected()
    }

    /// Bytes currently occupied on the (simulated) disk.
    #[must_use]
    pub fn used_bytes(&self) -> usize {
        self.disk.used_bytes()
    }

    /// Installs a fault-injection plan on the underlying disk.
    pub fn set_fault_plan(&mut self, plan: birch_pager::FaultPlan) {
        self.disk.set_fault_plan(plan);
    }

    /// Total points parked (sum of parked weights), counter-free — the
    /// auditor's N-conservation term.
    #[must_use]
    pub fn parked_n(&self) -> f64 {
        self.disk.peek().iter().map(Cf::n).sum()
    }

    /// Parks a point (as a singleton CF); returns it on a full buffer.
    pub fn park(&mut self, cf: Cf) -> Result<(), Cf> {
        let _sp = crate::obs::span::enter("disk_write");
        self.disk.write(cf).map_err(|(cf, _)| cf)
    }

    /// Drains all parked points for re-insertion after a rebuild.
    pub fn drain(&mut self) -> Vec<Cf> {
        let _sp = crate::obs::span::enter("disk_read");
        self.disk.drain_all()
    }

    /// Scans the parked points without removing them (counts the disk
    /// reads) — used by streaming snapshots so parked points still show
    /// up in the anytime clustering.
    pub fn scan(&mut self) -> &[Cf] {
        self.disk.scan_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::tree::TreeParams;

    fn tree(threshold: f64) -> CfTree {
        CfTree::new(TreeParams {
            threshold,
            ..TreeParams::for_dim(2)
        })
    }

    #[test]
    fn outlier_rule_quarter_of_average() {
        let cfg = OutlierConfig::default();
        assert!(cfg.is_potential_outlier(1.0, 10.0));
        assert!(!cfg.is_potential_outlier(2.5, 10.0));
        assert!(!cfg.is_potential_outlier(9.0, 10.0));
        let off = OutlierConfig::disabled();
        assert!(!off.is_potential_outlier(0.1, 100.0));
    }

    #[test]
    fn spill_and_reabsorb_into_grown_threshold() {
        let mut store = OutlierStore::new(4096, 32, OutlierConfig::default());
        // Park an outlier near (5,5).
        store.spill(Cf::from_point(&Point::xy(5.0, 5.0))).unwrap();
        // Tree with generous threshold and an entry at the origin cluster.
        let mut t = tree(20.0);
        for _ in 0..10 {
            t.insert_point(&Point::xy(0.0, 0.0));
        }
        let report = store.reabsorb(&mut t, 10.0);
        assert_eq!(report.absorbed, 1);
        assert_eq!(report.reinserted, 0);
        assert_eq!(report.folded_back, 0);
        assert_eq!(report.retained, 0);
        assert!(store.is_empty());
        assert_eq!(t.total_cf().n(), 11.0);
    }

    #[test]
    fn unabsorbable_entry_retained_then_discarded() {
        let mut store = OutlierStore::new(4096, 32, OutlierConfig::default());
        store
            .spill(Cf::from_point(&Point::xy(1000.0, 1000.0)))
            .unwrap();
        let mut t = tree(0.5);
        for _ in 0..20 {
            t.insert_point(&Point::xy(0.0, 0.0));
        }
        let report = store.reabsorb(&mut t, 20.0);
        assert_eq!(report.absorbed, 0);
        assert_eq!(report.reinserted, 0);
        assert_eq!(report.folded_back, 0);
        assert_eq!(report.retained, 1);
        assert_eq!(store.len(), 1);
        let discarded = store.finalize(&mut t);
        assert_eq!(discarded, 1.0);
        assert_eq!(t.total_cf().n(), 20.0);
    }

    #[test]
    fn finalize_folds_back_when_discard_disabled() {
        let cfg = OutlierConfig {
            discard_at_end: false,
            ..OutlierConfig::default()
        };
        let mut store = OutlierStore::new(4096, 32, cfg);
        store.spill(Cf::from_point(&Point::xy(9.0, 9.0))).unwrap();
        let mut t = tree(0.5);
        t.insert_point(&Point::xy(0.0, 0.0));
        let discarded = store.finalize(&mut t);
        assert_eq!(discarded, 0.0);
        assert_eq!(t.total_cf().n(), 2.0);
        assert_eq!(t.leaf_entry_count(), 2);
    }

    #[test]
    fn entry_that_outgrew_outlierhood_reinserted() {
        let mut store = OutlierStore::new(4096, 32, OutlierConfig::default());
        // A 5-point subcluster: with mean_entry_n = 10 it *is* an outlier
        // (5 < 2.5? no — 5 >= 2.5, so it is NOT) — craft accordingly.
        let pts: Vec<Point> = (0..5).map(|_| Point::xy(50.0, 50.0)).collect();
        store.spill(Cf::from_points(&pts)).unwrap();
        let mut t = tree(0.1); // too tight to absorb at (50,50)
        t.insert_point(&Point::xy(0.0, 0.0));
        // mean 10 -> 5 >= 0.25*10: no longer an outlier, so it is inserted
        // as a fresh entry rather than retained — counted as a
        // re-insertion, not an absorption (the tree grew).
        let report = store.reabsorb(&mut t, 10.0);
        assert_eq!(report.absorbed, 0);
        assert_eq!(report.reinserted, 1);
        assert_eq!(report.folded_back, 0);
        assert_eq!(t.leaf_entry_count(), 2);
    }

    #[test]
    fn refused_write_back_counted_as_fold_back() {
        let mut store = OutlierStore::new(4096, 32, OutlierConfig::default());
        store
            .spill(Cf::from_point(&Point::xy(1000.0, 1000.0)))
            .unwrap();
        // The entry is unabsorbable and still an outlier, so the scan
        // tries to write it back — attempt #2 on this disk, which the
        // plan fails, forcing the fold-into-tree degradation path.
        store.set_fault_plan(birch_pager::FaultPlan::new().fail_write(2));
        let mut t = tree(0.5);
        for _ in 0..20 {
            t.insert_point(&Point::xy(0.0, 0.0));
        }
        let report = store.reabsorb(&mut t, 20.0);
        assert_eq!(report.absorbed, 0);
        assert_eq!(report.reinserted, 0);
        assert_eq!(report.folded_back, 1);
        assert_eq!(report.retained, 0);
        assert!(store.is_empty());
        // No data lost: the entry lives in the tree now.
        assert_eq!(t.total_cf().n(), 21.0);
    }

    #[test]
    fn full_disk_hands_back_entry() {
        let mut store = OutlierStore::new(32, 32, OutlierConfig::default());
        store.spill(Cf::from_point(&Point::xy(0.0, 0.0))).unwrap();
        let cf = Cf::from_point(&Point::xy(1.0, 1.0));
        let back = store.spill(cf.clone()).unwrap_err();
        assert_eq!(back, cf);
    }

    #[test]
    fn file_backed_store_round_trips_bit_identically() {
        let path =
            std::env::temp_dir().join(format!("birch-outlier-journal-{}.log", std::process::id()));
        let mut store = OutlierStore::new(4096, 32, OutlierConfig::default());
        store.back_with_file(&path).unwrap();
        // Awkward bit patterns: spread-out weighted subclusters.
        for i in 0..7 {
            let pts: Vec<Point> = (0..=i)
                .map(|k| Point::xy(f64::from(i) * 1e8 + 0.1, f64::from(k) * 0.3 - 7.7))
                .collect();
            store.spill(Cf::from_points(&pts)).unwrap();
        }
        assert!(path.exists(), "journal file must exist while parked");
        let (written, read) = store.journal_bytes();
        assert!(written > 0);
        assert_eq!(read, 0);

        // drain_verified (via take_remaining) re-reads every record from
        // the file and bit-compares — a divergence would panic here.
        let drained = store.take_remaining();
        assert_eq!(drained.len(), 7);
        let (_, read) = store.journal_bytes();
        assert_eq!(read, written, "every journal byte must be read back");

        drop(store);
        assert!(!path.exists(), "journal file must be deleted on drop");
    }

    #[test]
    fn journal_detects_file_corruption() {
        let path =
            std::env::temp_dir().join(format!("birch-outlier-corrupt-{}.log", std::process::id()));
        let mut store = OutlierStore::new(4096, 32, OutlierConfig::default());
        store.back_with_file(&path).unwrap();
        store.spill(Cf::from_point(&Point::xy(3.0, 4.0))).unwrap();
        // Corrupt the payload behind the store's back.
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.take_remaining()));
        assert!(result.is_err(), "corrupted journal record must not decode");
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn delay_buffer_roundtrip() {
        let mut buf = DelaySplitBuffer::new(96, 32);
        assert!(buf.is_empty());
        for i in 0..3 {
            buf.park(Cf::from_point(&Point::xy(f64::from(i), 0.0)))
                .unwrap();
        }
        assert!(!buf.has_space());
        assert!(buf.park(Cf::from_point(&Point::xy(9.0, 9.0))).is_err());
        let drained = buf.drain();
        assert_eq!(drained.len(), 3);
        assert!(buf.is_empty());
        assert_eq!(buf.writes(), 3);
        assert_eq!(buf.reads(), 3);
    }
}
