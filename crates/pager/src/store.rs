//! File-backed page storage and the clock eviction policy.
//!
//! This is what makes the CF-tree genuinely out-of-core: [`PageStore`]
//! owns one file of fixed-size slots (one encoded page per slot, see
//! [`crate::page`]), and [`ClockCache`] decides which resident node to
//! spill when the resident set exceeds the page budget `M/P` (paper §4.2:
//! *"if we run out of memory … the tree on disk"* framing of §5–6.1).
//!
//! Slots are recycled through a free list, slot `s` lives at byte offset
//! `s × page_bytes`, and every operation bumps the counters the run
//! report surfaces (`page cache` section of `birch-report`). A page may
//! be shorter than its slot (the CF-tree writes tight pages): the store
//! writes only the page's bytes, remembers how many, and reads back
//! exactly those, so the slot's tail is never touched. Each page read or
//! write is one positioned system call (`pread`/`pwrite` through
//! [`std::os::unix::fs::FileExt`]), with no seek before it. No `mmap`, no
//! unsafe: the crate stays `#![forbid(unsafe_code)]`.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Counters of one [`PageStore`]'s lifetime traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Pages written to the backing file (evictions, checkpoints).
    pub page_writes: u64,
    /// Pages read back from the backing file (faults).
    pub page_reads: u64,
    /// Bytes written to the backing file.
    pub bytes_written: u64,
    /// Bytes read from the backing file.
    pub bytes_read: u64,
}

/// A file of fixed-size page slots with free-list recycling.
#[derive(Debug)]
pub struct PageStore {
    file: File,
    path: PathBuf,
    page_bytes: usize,
    /// Slots ever allocated (the file's logical length in pages).
    slots: u32,
    /// Bytes of the page last written to each slot.
    lens: Vec<u32>,
    free: Vec<u32>,
    stats: StoreStats,
    delete_on_drop: bool,
}

impl PageStore {
    /// Creates (truncating) a page store at `path` with `page_bytes`
    /// slots. The file is deleted when the store is dropped.
    ///
    /// # Errors
    ///
    /// Propagates file creation errors.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes == 0`.
    pub fn create(path: &Path, page_bytes: usize) -> io::Result<Self> {
        assert!(page_bytes > 0, "page size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            page_bytes,
            slots: 0,
            lens: Vec::new(),
            free: Vec::new(),
            stats: StoreStats::default(),
            delete_on_drop: true,
        })
    }

    /// The fixed slot size in bytes.
    #[must_use]
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Slots ever allocated (free-listed slots included).
    #[must_use]
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// Lifetime I/O counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Bytes the backing file occupies (`slots × page_bytes`).
    #[must_use]
    pub fn file_bytes(&self) -> u64 {
        u64::from(self.slots) * self.page_bytes as u64
    }

    /// Allocates a slot, reusing a freed one when available.
    pub fn alloc(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = self.slots;
        self.slots += 1;
        self.lens.push(0);
        slot
    }

    /// Returns a slot to the free list. The slot's bytes stay on disk
    /// until overwritten; callers must not read a freed slot.
    pub fn free(&mut self, slot: u32) {
        debug_assert!(slot < self.slots, "freeing unallocated slot {slot}");
        self.free.push(slot);
    }

    /// Writes one page of at most one slot into `slot`: only `buf`'s
    /// bytes, however short of the slot it ends.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is longer than one slot.
    pub fn write_slot(&mut self, slot: u32, buf: &[u8]) -> io::Result<()> {
        assert!(
            buf.len() <= self.page_bytes,
            "page of {} bytes exceeds the {}-byte slot",
            buf.len(),
            self.page_bytes
        );
        self.file.write_all_at(buf, self.offset(slot))?;
        self.lens[slot as usize] = u32::try_from(buf.len()).expect("slot size fits u32");
        self.stats.page_writes += 1;
        self.stats.bytes_written += buf.len() as u64;
        Ok(())
    }

    /// Reads the page last written to `slot` into `buf`, replacing its
    /// contents and reusing its allocation. A file that ends inside the
    /// page (truncated under the store) is a short read, not an error:
    /// `buf` then holds the bytes that were there, and the page decoder
    /// rejects it as truncated or by its CRC.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than end of file.
    pub fn read_slot_into(&mut self, slot: u32, buf: &mut Vec<u8>) -> io::Result<()> {
        let len = self.lens[slot as usize] as usize;
        let at = self.offset(slot);
        // Stale bytes are read over or cut off below: only growth zeroes.
        buf.resize(len, 0);
        let mut got = 0;
        while got < len {
            match self.file.read_at(&mut buf[got..], at + got as u64) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        buf.truncate(got);
        self.stats.page_reads += 1;
        self.stats.bytes_read += got as u64;
        Ok(())
    }

    /// Byte offset of `slot` in the backing file.
    fn offset(&self, slot: u32) -> u64 {
        u64::from(slot) * self.page_bytes as u64
    }
}

impl Drop for PageStore {
    fn drop(&mut self) {
        if self.delete_on_drop {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Clock (second-chance) eviction over a set of `u64` keys.
///
/// A ring of `(key, referenced)` pairs with a sweeping hand: `touch` sets
/// the reference bit, `evict` clears bits until it finds an unreferenced
/// key — the classic approximation of LRU with no per-access reordering,
/// which is what a per-descend hot path wants. Keys are found by a linear
/// scan of the ring, which between operations holds at most the page
/// budget `M/P` keys.
#[derive(Debug, Default)]
pub struct ClockCache {
    ring: Vec<(u64, bool)>,
    hand: usize,
}

impl ClockCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Keys currently tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no keys are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Whether `key` is tracked.
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.ring.iter().any(|&(k, _)| k == key)
    }

    /// Starts tracking `key` with its reference bit set. No-op (but
    /// touches) when already tracked.
    pub fn insert(&mut self, key: u64) {
        if !self.touch(key) {
            self.ring.push((key, true));
        }
    }

    /// Sets `key`'s reference bit; returns whether the key was tracked.
    pub fn touch(&mut self, key: u64) -> bool {
        for entry in &mut self.ring {
            if entry.0 == key {
                entry.1 = true;
                return true;
            }
        }
        false
    }

    /// Stops tracking `key` (whether or not it is present).
    pub fn remove(&mut self, key: u64) {
        if let Some(i) = self.ring.iter().position(|&(k, _)| k == key) {
            self.ring.swap_remove(i);
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
        }
    }

    /// Picks and removes the eviction victim: sweeps the hand, giving
    /// each referenced key a second chance (bit cleared), and returns
    /// the first unreferenced key met. Returns `None` when empty.
    pub fn evict(&mut self) -> Option<u64> {
        if self.ring.is_empty() {
            return None;
        }
        loop {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let (key, referenced) = self.ring[self.hand];
            if referenced {
                self.ring[self.hand].1 = false;
                self.hand += 1;
            } else {
                self.ring.swap_remove(self.hand);
                if self.hand >= self.ring.len() {
                    self.hand = 0;
                }
                return Some(key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{decode_page, encode_page, PageKind, NO_NEIGHBOR};

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "birch-store-test-{}-{tag}.pages",
            std::process::id()
        ))
    }

    #[test]
    fn slots_round_trip_through_the_file() {
        let path = temp_path("roundtrip");
        let mut store = PageStore::create(&path, 256).unwrap();
        let a = store.alloc();
        let b = store.alloc();
        assert_ne!(a, b);

        let page_a = encode_page(256, PageKind::Leaf, 2, NO_NEIGHBOR, 5, &[1, 2, 3, 4]).unwrap();
        let page_b = encode_page(
            256,
            PageKind::Interior,
            1,
            NO_NEIGHBOR,
            NO_NEIGHBOR,
            &[9, 8],
        )
        .unwrap();
        store.write_slot(a, &page_a).unwrap();
        store.write_slot(b, &page_b).unwrap();

        let mut buf = Vec::new();
        store.read_slot_into(a, &mut buf).unwrap();
        let got_a = decode_page(&buf, 2).unwrap();
        assert_eq!(got_a.kind, PageKind::Leaf);
        assert_eq!(got_a.words, vec![1, 2, 3, 4]);
        store.read_slot_into(b, &mut buf).unwrap();
        let got_b = decode_page(&buf, 2).unwrap();
        assert_eq!(got_b.kind, PageKind::Interior);
        assert_eq!(got_b.words, vec![9, 8]);

        let s = store.stats();
        assert_eq!(s.page_writes, 2);
        assert_eq!(s.page_reads, 2);
        assert_eq!(s.bytes_written, 512);
        assert_eq!(s.bytes_read, 512);

        drop(store);
        assert!(!path.exists(), "spill file must be deleted on drop");
    }

    #[test]
    fn tight_pages_read_back_exactly_and_a_cut_file_reads_short() {
        let path = temp_path("tight");
        let mut store = PageStore::create(&path, 256).unwrap();
        let words = [7u64, 8, 9];
        let tight = encode_page(56, PageKind::Leaf, 1, NO_NEIGHBOR, NO_NEIGHBOR, &words).unwrap();
        let full = encode_page(256, PageKind::Leaf, 1, NO_NEIGHBOR, NO_NEIGHBOR, &words).unwrap();
        let (a, b) = (store.alloc(), store.alloc());
        store.write_slot(a, &full).unwrap();
        // The last slot holds a tight page: the file ends inside it.
        store.write_slot(b, &tight).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 256 + 56);
        let mut buf = vec![0xFF; 300];
        store.read_slot_into(b, &mut buf).unwrap();
        assert_eq!(buf, tight);
        assert_eq!(decode_page(&buf, 3).unwrap().words, words);
        // A shorter page over a longer one reads back as itself.
        store.write_slot(a, &tight).unwrap();
        store.read_slot_into(a, &mut buf).unwrap();
        assert_eq!(buf, tight);
        let s = store.stats();
        assert_eq!(s.bytes_written, 256 + 56 + 56);
        assert_eq!(s.bytes_read, 56 + 56);

        // Cut inside the last page: the read comes back short, and the
        // decoder, not the store, rejects what is left.
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(256 + 40)
            .unwrap();
        store.read_slot_into(b, &mut buf).unwrap();
        assert_eq!(buf, tight[..40]);
        assert!(decode_page(&buf, 3).is_err());
        assert_eq!(store.stats().bytes_read, 56 + 56 + 40);
    }

    #[test]
    #[should_panic(expected = "exceeds the 64-byte slot")]
    fn a_page_longer_than_its_slot_panics() {
        let path = temp_path("overlong");
        let mut store = PageStore::create(&path, 64).unwrap();
        let slot = store.alloc();
        let _ = store.write_slot(slot, &[0; 65]);
    }

    #[test]
    fn freed_slots_are_recycled() {
        let path = temp_path("freelist");
        let mut store = PageStore::create(&path, 64).unwrap();
        let a = store.alloc();
        let _b = store.alloc();
        store.free(a);
        assert_eq!(store.alloc(), a, "free list reuses the slot");
        assert_eq!(store.slots(), 2);
        assert_eq!(store.file_bytes(), 128);
    }

    #[test]
    fn clock_evicts_unreferenced_first() {
        let mut c = ClockCache::new();
        c.insert(1);
        c.insert(2);
        c.insert(3);
        // All referenced: the sweep clears 1, 2, 3 then evicts 1.
        assert_eq!(c.evict(), Some(1));
        // 2 and 3 now unreferenced; touching 2 protects it.
        assert!(c.touch(2));
        assert_eq!(c.evict(), Some(3));
        assert_eq!(c.len(), 1);
        assert!(c.contains(2));
    }

    #[test]
    fn clock_remove_and_empty_behaviour() {
        let mut c = ClockCache::new();
        assert_eq!(c.evict(), None);
        c.insert(7);
        c.insert(8);
        c.remove(7);
        assert!(!c.contains(7));
        assert_eq!(c.evict(), Some(8));
        assert!(c.is_empty());
        c.remove(99); // absent: no-op
    }

    #[test]
    fn clock_touch_keeps_hot_keys_resident() {
        let mut c = ClockCache::new();
        for k in [9, 0, 7, 8] {
            c.insert(k);
        }
        // First sweep: everything is referenced, so the hand clears every
        // bit, wraps, and evicts the key it started on.
        assert_eq!(c.evict(), Some(9));
        // From now on keep 0 hot: the other keys' bits stay clear, so the
        // sweep always finds a cold victim before circling back to 0.
        let mut evicted = Vec::new();
        for _ in 0..2 {
            c.touch(0);
            evicted.push(c.evict().unwrap());
        }
        assert!(!evicted.contains(&0), "hot key evicted: {evicted:?}");
        assert!(c.contains(0));
        assert_eq!(c.len(), 1);
    }
}
