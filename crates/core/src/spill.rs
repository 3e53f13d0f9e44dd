//! The spill log: the disk of `R` bytes where Phase 1 parks potential
//! outliers (§5.1.3) and delayed-split points (§5.1.4).
//!
//! The paper writes potential outliers *"out to disk"* and scans them
//! back for re-absorption, and the delay-split option parks points that
//! would force a split there until the next rebuild. Table 2 gives that
//! disk `R` bytes, 20% of `M` by default. Phase 1 keeps one [`SpillLog`]
//! for each use, each with its share of `R`.
//!
//! A log keeps its entries as tight BPG1 leaf pages in one [`PageStore`]
//! file, written and read with the CF-tree's own leaf codec
//! ([`Node::write_page`], [`Node::fill_from_page`]). Only the page being
//! filled stays in RAM; a full page goes to the file when the next entry
//! arrives. The file is created by the first write and deleted when the
//! log drops, so a log that never takes an entry creates no file.
//!
//! What the log *counts* is the paper's cost model, not the file's bytes.
//! Capacity `R` bounds `entries × cf_entry_bytes`, and the six disk
//! counters count entries and their cost-model bytes. A [`FaultPlan`]
//! refuses writes one entry at a time, exactly as a full disk would.
//! A file that cannot be created or written makes the log report itself
//! full for good, so the callers' fold-back path keeps the entry. A page
//! that fails its checksum on the way back panics, naming the file: the
//! file lives for one process, so damage to it is a local I/O failure,
//! not an input condition.

use crate::cf::Cf;
use crate::node::Node;
use birch_pager::{view_page, DiskError, FaultPlan, PageKind, PageLayout, PageStore};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide spill-file sequence, so concurrent builders (parallel
/// shards, test threads) never collide on a path.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh spill-file path in `dir`, unique within this process run:
/// `birch-spill-{pid}-{seq}.{ext}`.
pub(crate) fn spill_file(dir: &Path, ext: &str) -> PathBuf {
    let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("birch-spill-{}-{seq}.{ext}", std::process::id()))
}

/// An append-only log of CF entries on checksummed pages, bounded by a
/// byte capacity under the paper's per-entry cost model.
#[derive(Debug)]
pub struct SpillLog {
    /// Where the page file goes; created by the first write.
    path: PathBuf,
    /// The file, once the first write created it.
    store: Option<PageStore>,
    /// Slots of the written pages, in append order. Each holds
    /// `page_rows` entries.
    pages: Vec<u32>,
    /// The page being filled: the only entries held in RAM.
    tail: Node,
    /// The one buffer every page crosses on its way to or from the file.
    buf: Vec<u8>,
    dim: usize,
    /// Entries per page: as many CF rows as one slot holds.
    page_rows: usize,
    slot_bytes: usize,
    /// Cost-model bytes of one entry ([`PageLayout::cf_entry_bytes`]).
    entry_bytes: usize,
    capacity_bytes: usize,
    /// Summed N of the parked entries, in append order.
    parked_n: f64,
    /// Set when the file could not be created or written.
    failed: bool,
    plan: FaultPlan,
    write_attempts: u64,
    writes: u64,
    reads: u64,
    bytes_written: u64,
    bytes_read: u64,
    faults_injected: u64,
}

impl SpillLog {
    /// A log of `capacity_bytes` for the CF entries of `layout`'s
    /// dimension, each costing [`PageLayout::cf_entry_bytes`], whose page
    /// file will be `path`. Touches no file.
    #[must_use]
    pub fn new(path: PathBuf, capacity_bytes: usize, layout: &PageLayout) -> Self {
        let record = 8 * Cf::words_per_entry(layout.dim);
        let slot_bytes = PageLayout::slot_bytes(
            layout.branching_factor(),
            layout.leaf_capacity(),
            Cf::words_per_entry(layout.dim),
        );
        Self {
            path,
            store: None,
            pages: Vec::new(),
            tail: Node::new_leaf(),
            buf: Vec::new(),
            dim: layout.dim,
            page_rows: (slot_bytes - birch_pager::PAGE_HEADER_BYTES) / record,
            slot_bytes,
            entry_bytes: layout.cf_entry_bytes(),
            capacity_bytes,
            parked_n: 0.0,
            failed: false,
            plan: FaultPlan::default(),
            write_attempts: 0,
            writes: 0,
            reads: 0,
            bytes_written: 0,
            bytes_read: 0,
            faults_injected: 0,
        }
    }

    /// The page file's path (the file exists only between the first
    /// write and the drop).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Installs a [`FaultPlan`]; later write attempts and space checks
    /// consult it. Replaces any previous plan (and its random stream
    /// position).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Entries parked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pages.len() * self.page_rows + self.tail.entry_count()
    }

    /// Whether no entry is parked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes in use under the cost model.
    #[must_use]
    pub fn used_bytes(&self) -> usize {
        self.len() * self.entry_bytes
    }

    /// Whether one more entry fits. A reached
    /// [`FaultPlan::force_full_after`] watermark, or a file that could
    /// not be created or written, makes this `false` for good.
    #[must_use]
    pub fn has_space(&self) -> bool {
        !self.failed
            && !self.plan.forced_full(self.bytes_written)
            && self.used_bytes() + self.entry_bytes <= self.capacity_bytes
    }

    /// Total points parked (the summed N of the entries), read without
    /// touching the file or a counter: the auditor's N-conservation term.
    #[must_use]
    pub fn parked_n(&self) -> f64 {
        self.parked_n
    }

    /// Appends a copy of `cf`.
    ///
    /// Refusals, in precedence order:
    ///
    /// 1. The entry does not fit the remaining capacity, or the file has
    ///    failed: the refusal is **organic** (`injected = false`), even
    ///    if the [`FaultPlan`] also fired on this attempt or its
    ///    watermark is reached. The write would have been refused with
    ///    no plan installed, so counting it as injected would make
    ///    `faults_injected` over-report.
    /// 2. Otherwise, a plan firing (k-th write or random) or a reached
    ///    force-full watermark (`bytes_written >= limit`, the exact
    ///    boundary included) makes the refusal **injected**.
    /// 3. Otherwise, a file that cannot be created, or a full page that
    ///    cannot be written to it, refuses organically and marks the log
    ///    failed.
    ///
    /// The plan's random stream advances exactly once per attempt,
    /// however the attempt resolves, so fault sequences stay a pure
    /// function of the seed and the attempt order.
    ///
    /// # Errors
    ///
    /// [`DiskError`] when the entry was refused; the caller still holds
    /// it.
    pub fn write(&mut self, cf: &Cf) -> Result<(), DiskError> {
        self.write_attempts += 1;
        let plan_fired = self.plan.fires_on(self.write_attempts);
        let full = self.failed || self.used_bytes() + self.entry_bytes > self.capacity_bytes;
        let injected = !full && (plan_fired || self.plan.forced_full(self.bytes_written));
        if injected {
            self.faults_injected += 1;
        } else if !full {
            if self.append(cf).is_ok() {
                self.writes += 1;
                self.bytes_written += self.entry_bytes as u64;
                self.parked_n += cf.n();
                return Ok(());
            }
            self.failed = true;
        }
        Err(DiskError {
            used: self.used_bytes(),
            capacity: self.capacity_bytes,
            requested: self.entry_bytes,
            injected,
        })
    }

    /// Puts `cf` on the tail page, first creating the file if this is
    /// the first write and writing the tail out if it is full. On an
    /// error the tail is as it was.
    fn append(&mut self, cf: &Cf) -> std::io::Result<()> {
        if self.store.is_none() {
            self.store = Some(PageStore::create(&self.path, self.slot_bytes)?);
        }
        if self.tail.entry_count() == self.page_rows {
            let _sp = crate::obs::span::enter("disk_write");
            let store = self.store.as_mut().expect("created above");
            self.buf.clear();
            self.tail.write_page(&mut self.buf);
            let slot = store.alloc();
            if let Err(e) = store.write_slot(slot, &self.buf) {
                store.free(slot);
                return Err(e);
            }
            self.pages.push(slot);
            self.tail.take_rows();
        }
        self.tail.push_entry(cf);
        Ok(())
    }

    /// Reads every entry back in append order without removing it,
    /// counting one read per entry. Streaming snapshots use it so parked
    /// entries still show in the anytime clustering.
    ///
    /// # Panics
    ///
    /// Panics, naming the file, if a page cannot be read or fails to
    /// verify.
    pub fn scan(&mut self) -> Vec<Cf> {
        let n = self.len();
        self.reads += n as u64;
        self.bytes_read += (n * self.entry_bytes) as u64;
        let mut out = Vec::with_capacity(n);
        let mut page = Node::new_leaf();
        let words = Node::words_per_entry(PageKind::Leaf, self.dim);
        for (i, &slot) in self.pages.iter().enumerate() {
            let store = self.store.as_mut().expect("a written page has a file");
            let read = store
                .read_slot_into(slot, &mut self.buf)
                .map_err(|e| e.to_string())
                .and_then(|()| view_page(&self.buf, words).map_err(|e| e.to_string()))
                .and_then(|view| page.fill_from_page(&view, self.dim));
            if let Err(e) = read {
                panic!("spill log {} page {i}: {e}", self.path.display());
            }
            out.extend((0..page.entry_count()).map(|r| page.block().row_cf(r)));
        }
        out.extend((0..self.tail.entry_count()).map(|r| self.tail.block().row_cf(r)));
        out
    }

    /// Takes every entry off the log, in append order, counting the reads
    /// like [`SpillLog::scan`] does: the paper's *"scan the outlier entries on disk"* pass,
    /// and the delay-split points' return after a rebuild.
    ///
    /// # Panics
    ///
    /// Panics, naming the file, if a page cannot be read or fails to
    /// verify.
    pub fn drain(&mut self) -> Vec<Cf> {
        let _sp = crate::obs::span::enter("disk_read");
        let out = self.scan();
        if let Some(store) = self.store.as_mut() {
            // Freed last-first, so the next pages reuse the slots in
            // file order.
            for slot in self.pages.drain(..).rev() {
                store.free(slot);
            }
        }
        self.tail.take_rows();
        self.parked_n = 0.0;
        out
    }

    /// Entries written over the log's lifetime.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Entries read back over the log's lifetime.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Bytes written over the log's lifetime, under the cost model.
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Bytes read over the log's lifetime, under the cost model.
    #[must_use]
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Write attempts over the log's lifetime, landed or refused (the
    /// [`FaultPlan`]'s attempt counter).
    #[must_use]
    pub fn write_attempts(&self) -> u64 {
        self.write_attempts
    }

    /// Writes the [`FaultPlan`] refused where capacity would have let
    /// them land (k-th write, random, or force-full refusals).
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }
}

#[cfg(test)]
impl SpillLog {
    /// A log of `capacity` bytes under the temp dir for 2-d entries of
    /// 32 cost-model bytes, on small pages of four entries each, so a
    /// few entries already cross page boundaries.
    pub(crate) fn for_tests(capacity: usize) -> Self {
        let path = spill_file(&std::env::temp_dir(), "test");
        Self::new(path, capacity, &PageLayout::new(128, 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn log(capacity: usize) -> SpillLog {
        SpillLog::for_tests(capacity)
    }

    /// Entry `i`: a point whose first coordinate names it.
    fn cf(i: u32) -> Cf {
        Cf::from_point(&Point::xy(f64::from(i), -0.5))
    }

    fn ids(cfs: &[Cf]) -> Vec<u32> {
        cfs.iter().map(|c| c.mean()[0] as u32).collect()
    }

    #[test]
    fn pages_hold_as_many_rows_as_a_slot() {
        let l = log(4096);
        assert_eq!(l.page_rows, 4, "(288 - 32) / 56");
        let paper = SpillLog::new(PathBuf::new(), 0, &PageLayout::new(1024, 2));
        assert_eq!(paper.page_rows, 32, "L + 1 rows of 7 words");
    }

    /// The `disk_write` span times a page going to the file, not an entry
    /// landing on the tail page: 100 writes on four-entry pages close one
    /// span per page flushed, 24, with the 25th page still the tail.
    #[test]
    fn disk_write_span_opens_once_per_page_written() {
        use crate::obs::span;
        // Own thread: the profiler switch and its state are thread-local.
        let (report, pages) = std::thread::scope(|s| {
            s.spawn(|| {
                span::set_enabled(true);
                let mut d = log(4096);
                for i in 0..100 {
                    d.write(&cf(i)).unwrap();
                }
                span::set_enabled(false);
                (span::take_report(), d.pages.len())
            })
            .join()
            .expect("profiled writes")
        });
        assert_eq!(pages, 24);
        assert_eq!(report.get("disk_write").map_or(0, |n| n.calls), 24);
    }

    #[test]
    fn write_then_drain_preserves_order() {
        let mut d = log(1024);
        for i in 0..5 {
            d.write(&cf(i)).unwrap();
        }
        assert_eq!(d.len(), 5);
        assert_eq!(d.used_bytes(), 160);
        let out = d.drain();
        assert_eq!(ids(&out), vec![0, 1, 2, 3, 4]);
        assert!(d.is_empty());
        assert_eq!(d.reads(), 5);
        assert_eq!(d.bytes_read(), 160);
    }

    #[test]
    fn full_log_refuses_and_the_caller_keeps_the_entry() {
        let mut d = log(64);
        d.write(&cf(0)).unwrap();
        d.write(&cf(1)).unwrap();
        let err = d.write(&cf(2)).unwrap_err();
        assert_eq!(err.used, 64);
        assert!(!err.injected);
        assert!(err.to_string().contains("disk budget exhausted"));
        assert_eq!(d.len(), 2);
        assert!(!d.has_space());
        assert_eq!(ids(&d.drain()), vec![0, 1]);
        assert_eq!((d.writes(), d.reads()), (2, 2));
    }

    #[test]
    fn counters_accumulate_across_cycles() {
        let mut d = log(320);
        for i in 0..10 {
            d.write(&cf(i)).unwrap();
        }
        let _ = d.drain();
        for i in 0..3 {
            d.write(&cf(i)).unwrap();
        }
        assert_eq!(d.writes(), 13);
        assert_eq!(d.reads(), 10);
        assert_eq!(d.bytes_written(), 13 * 32);
        assert_eq!(ids(&d.drain()), vec![0, 1, 2]);
    }

    #[test]
    fn zero_capacity_log_never_accepts_and_creates_no_file() {
        let mut d = log(0);
        assert!(!d.has_space());
        assert!(d.write(&cf(1)).is_err());
        assert!(!d.path().exists());
    }

    #[test]
    fn fault_plan_fails_exactly_the_kth_write() {
        let mut d = log(4096);
        d.set_fault_plan(FaultPlan::new().fail_write(3));
        d.write(&cf(1)).unwrap();
        d.write(&cf(2)).unwrap();
        let err = d.write(&cf(3)).unwrap_err();
        assert!(err.injected);
        assert!(err.to_string().contains("injected fault"), "{err}");
        // The 4th attempt succeeds again; only attempt 3 was doomed.
        d.write(&cf(4)).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.faults_injected(), 1);
        assert_eq!(d.write_attempts(), 4);
        assert_eq!(d.writes(), 3);
        assert_eq!(ids(&d.drain()), vec![1, 2, 4]);
    }

    #[test]
    fn random_faults_are_seed_deterministic() {
        let run = |seed: u64| {
            let mut d = log(1 << 20);
            d.set_fault_plan(FaultPlan::new().fail_randomly(seed, 0.3));
            (0..200u32)
                .map(|i| d.write(&cf(i)).is_err())
                .collect::<Vec<_>>()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed must fail the same attempts");
        assert_ne!(a, c, "different seeds should differ");
        let failures = a.iter().filter(|&&f| f).count();
        assert!((20..=100).contains(&failures), "p=0.3 over 200: {failures}");
    }

    #[test]
    fn force_full_after_watermark_is_permanent() {
        let mut d = log(4096);
        d.set_fault_plan(FaultPlan::new().force_full_after(64));
        d.write(&cf(1)).unwrap();
        d.write(&cf(2)).unwrap();
        // Watermark reached: full forever, even after a drain frees space.
        assert!(!d.has_space());
        assert!(d.write(&cf(3)).unwrap_err().injected);
        let _ = d.drain();
        assert!(d.is_empty());
        assert!(!d.has_space(), "degradation must survive drains");
        assert!(d.write(&cf(4)).is_err());
        assert_eq!(d.faults_injected(), 2);
    }

    #[test]
    fn genuine_full_is_not_reported_as_injected() {
        let mut d = log(32);
        d.set_fault_plan(FaultPlan::new().fail_write(99));
        d.write(&cf(1)).unwrap();
        assert!(!d.write(&cf(2)).unwrap_err().injected);
        assert_eq!(d.faults_injected(), 0);
    }

    #[test]
    fn fault_firing_on_a_full_log_is_classified_organic() {
        // The plan fires on attempt 2, but the log is also genuinely
        // full: the refusal would have happened with no plan installed,
        // so it must not count as injected.
        let mut d = log(32);
        d.set_fault_plan(FaultPlan::new().fail_write(2));
        d.write(&cf(1)).unwrap();
        let err = d.write(&cf(2)).unwrap_err();
        assert!(!err.injected, "genuine-full takes precedence over the plan");
        assert_eq!(d.faults_injected(), 0);
        assert_eq!(d.write_attempts(), 2);
    }

    #[test]
    fn watermark_on_a_full_log_is_organic_until_space_frees() {
        // Capacity 96, watermark 96: after three writes the log is both
        // genuinely full and past the watermark. The 4th refusal is
        // organic (capacity decides); after a drain frees space, the
        // watermark alone refuses — that refusal is injected.
        let mut d = log(96);
        d.set_fault_plan(FaultPlan::new().force_full_after(96));
        for i in 0..3 {
            d.write(&cf(i)).unwrap();
        }
        assert_eq!(d.bytes_written(), 96);
        assert!(
            !d.write(&cf(3)).unwrap_err().injected,
            "over-determined refusal is organic"
        );
        assert_eq!(d.faults_injected(), 0);
        let _ = d.drain();
        assert!(
            d.write(&cf(4)).unwrap_err().injected,
            "with space free, the watermark is the cause"
        );
        assert_eq!(d.faults_injected(), 1);
    }

    #[test]
    fn watermark_fires_at_exactly_bytes_written_equals_limit() {
        // The contract is "reaches this watermark": the exact
        // `bytes_written == limit` boundary must already refuse (and the
        // entry still fits, so the refusal is injected).
        let mut d = log(4096);
        d.set_fault_plan(FaultPlan::new().force_full_after(64));
        d.write(&cf(1)).unwrap();
        d.write(&cf(2)).unwrap();
        assert_eq!(d.bytes_written(), 64);
        assert!(!d.has_space());
        assert!(d.write(&cf(3)).unwrap_err().injected);
        assert_eq!(d.faults_injected(), 1);
    }

    #[test]
    fn random_stream_advances_once_per_attempt_even_when_full() {
        // Two logs, same random plan; one hits genuine-full refusals
        // mid-sequence. The injected-fault decisions must depend only on
        // the attempt index, not on how earlier attempts resolved.
        let plan = FaultPlan::new().fail_randomly(7, 0.4);
        let mut roomy = log(1 << 20);
        roomy.set_fault_plan(plan.clone());
        let fired: Vec<bool> = (0..50u32)
            .map(|i| matches!(roomy.write(&cf(i)), Err(e) if e.injected))
            .collect();

        let mut cramped = log(64);
        cramped.set_fault_plan(plan);
        for (i, &expect_fire) in fired.iter().enumerate() {
            match cramped.write(&cf(i as u32)) {
                Ok(()) => assert!(!expect_fire, "attempt {i}: plan fired on the roomy log"),
                Err(e) if e.injected => {
                    assert!(expect_fire, "attempt {i}: injected without the plan firing");
                }
                // Organic refusal: the plan may or may not have fired
                // underneath; either way the stream advanced once.
                Err(_) => {}
            }
            // Keep the cramped log oscillating between full and one
            // free slot so both refusal kinds occur.
            if cramped.len() == 2 {
                let _ = cramped.drain();
            }
        }
        assert!(fired.iter().any(|&f| f), "plan should fire at p=0.4");
    }

    #[test]
    fn parked_n_does_not_touch_read_counters() {
        let mut d = log(4096);
        d.write(&Cf::from_weighted_point(&Point::xy(7.0, 0.0), 2.5))
            .unwrap();
        for i in 0..5 {
            d.write(&cf(i)).unwrap();
        }
        assert_eq!(d.parked_n(), 7.5);
        assert_eq!(d.reads(), 0);
        assert_eq!(d.bytes_read(), 0);
        let _ = d.drain();
        assert_eq!(d.parked_n(), 0.0);
    }

    #[test]
    fn a_full_log_refuses_until_drained() {
        let mut buf = log(96);
        assert!(buf.is_empty());
        for i in 0..3 {
            buf.write(&Cf::from_point(&Point::xy(f64::from(i), 0.0)))
                .unwrap();
        }
        assert!(!buf.has_space());
        assert!(buf.write(&Cf::from_point(&Point::xy(9.0, 9.0))).is_err());
        let drained = buf.drain();
        assert_eq!(drained.len(), 3);
        assert!(buf.is_empty());
        assert_eq!(buf.writes(), 3);
        assert_eq!(buf.reads(), 3);
    }

    /// Weighted subclusters with awkward bit patterns: large offsets, so
    /// the means carry, and spreads, so SSE and its carry are live.
    fn awkward(i: u32) -> Cf {
        let pts: Vec<Point> = (0..=i % 5)
            .map(|k| Point::xy(f64::from(i) * 1e8 + 0.1, f64::from(k) * 0.3 - 7.7))
            .collect();
        Cf::from_points(&pts)
    }

    #[test]
    fn entries_round_trip_bit_identically_through_pages_and_the_tail() {
        let mut d = log(1 << 20);
        let want: Vec<Cf> = (0..11).map(awkward).collect();
        for c in &want {
            d.write(c).unwrap();
        }
        // Two full pages went to the file; three entries wait in RAM.
        assert_eq!(d.pages.len(), 2);
        assert_eq!(d.tail.entry_count(), 3);
        let file = std::fs::metadata(d.path()).unwrap().len();
        assert_eq!(file, d.slot_bytes as u64 + 32 + 4 * 56, "two tight pages");
        // Cf's `PartialEq` compares every field, carries and memo included.
        assert!(d.scan() == want, "a scan changed an entry");
        assert!(d.drain() == want, "a drain changed an entry");
        assert_eq!(d.reads(), 22);
        // Drained slots are reused in file order.
        for c in &want {
            d.write(c).unwrap();
        }
        assert_eq!(d.pages, vec![0, 1]);
        assert!(d.drain() == want);
    }

    #[test]
    fn at_most_one_page_of_entries_stays_in_ram() {
        let mut d = log(1 << 20);
        for i in 0..40 {
            d.write(&cf(i)).unwrap();
            assert!(d.tail.entry_count() <= d.page_rows);
            assert_eq!(d.len(), i as usize + 1);
        }
        assert_eq!(d.pages.len(), 9);
    }

    #[test]
    fn a_flipped_byte_in_a_written_page_panics_naming_the_file() {
        let mut d = log(4096);
        for i in 0..6 {
            d.write(&cf(i)).unwrap();
        }
        let mut bytes = std::fs::read(d.path()).unwrap();
        bytes[40] ^= 0x01;
        std::fs::write(d.path(), &bytes).unwrap();
        let name = d.path().display().to_string();
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.drain()));
        let err = got.expect_err("a damaged page was drained");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(&name), "{msg}");
        assert!(msg.contains("checksum"), "{msg}");
    }

    #[test]
    fn the_file_exists_from_the_first_write_until_the_drop() {
        let mut d = log(4096);
        let path = d.path().to_path_buf();
        assert!(!path.exists(), "a log that took nothing has no file");
        d.write(&cf(0)).unwrap();
        assert!(path.exists());
        let _ = d.drain();
        assert!(path.exists(), "a drained log keeps its file");
        drop(d);
        assert!(!path.exists(), "the file must be deleted on drop");
    }

    #[test]
    fn a_log_that_cannot_create_its_file_reports_itself_full() {
        let dir = std::env::temp_dir().join("birch-spill-no-such-dir");
        assert!(!dir.exists());
        let mut d = SpillLog::new(spill_file(&dir, "test"), 4096, &PageLayout::new(128, 2));
        assert!(d.has_space());
        let err = d.write(&cf(0)).unwrap_err();
        assert!(!err.injected, "an I/O refusal is organic");
        assert!(!d.has_space());
        assert!(d.is_empty());
        assert!(d.write(&cf(1)).is_err());
        assert_eq!(
            (d.write_attempts(), d.writes(), d.faults_injected()),
            (2, 0, 0)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The log conserves entries: everything written comes back once,
        /// in order, and the byte counters match.
        #[test]
        fn log_conserves_entries(
            batches in proptest::prelude::prop::collection::vec(0usize..40, 1..6),
            capacity_entries in 1usize..64,
        ) {
            let mut d = log(capacity_entries * 32);
            let (mut written, mut next) = (0u64, 0u32);
            for batch in batches {
                let mut expect = Vec::new();
                for _ in 0..batch {
                    if d.write(&cf(next)).is_ok() {
                        expect.push(next);
                        written += 1;
                    }
                    next += 1;
                }
                proptest::prop_assert_eq!(ids(&d.drain()), expect);
                proptest::prop_assert!(d.is_empty());
            }
            proptest::prop_assert_eq!(d.writes(), written);
            proptest::prop_assert_eq!(d.bytes_written(), written * 32);
            proptest::prop_assert_eq!(d.reads(), written);
        }

        /// Fault-accounting conservation laws: every attempt is either a
        /// landed write or a refusal, and injected faults never exceed
        /// the refusal count — whatever the capacity, plan or watermark.
        #[test]
        fn log_attempts_conserve(
            attempts in 1usize..200,
            capacity_entries in 1usize..64,
            seed in 1u64..u64::MAX,
            prob in 0.0f64..0.6,
            watermark_entries in 0usize..80,
        ) {
            let mut d = log(capacity_entries * 32);
            let mut plan = FaultPlan::new().fail_randomly(seed, prob);
            // Values past 63 mean "no watermark".
            if watermark_entries < 64 {
                plan = plan.force_full_after((watermark_entries * 32) as u64);
            }
            d.set_fault_plan(plan);
            let mut refusals = 0u64;
            for i in 0..attempts {
                // Drain now and then so the log isn't permanently full.
                if i % 17 == 16 {
                    let _ = d.drain();
                }
                if d.write(&cf(i as u32)).is_err() {
                    refusals += 1;
                }
            }
            proptest::prop_assert_eq!(d.write_attempts(), attempts as u64);
            proptest::prop_assert_eq!(d.write_attempts(), d.writes() + refusals);
            proptest::prop_assert!(d.faults_injected() <= refusals);
        }

        /// Repeated scans bill the same bytes each time and never change
        /// what is parked.
        #[test]
        fn scans_bill_consistently(n in 0u32..50, scans in 1usize..5) {
            let mut d = log(64 * 1024);
            for i in 0..n {
                d.write(&cf(i)).unwrap();
            }
            for _ in 0..scans {
                let before = d.bytes_read();
                proptest::prop_assert_eq!(ids(&d.scan()), (0..n).collect::<Vec<_>>());
                proptest::prop_assert_eq!(d.bytes_read() - before, u64::from(n) * 32);
            }
            proptest::prop_assert_eq!(d.len(), n as usize);
        }
    }
}
