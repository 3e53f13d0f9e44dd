//! The on-disk page format: a versioned, checksummed little-endian
//! encoding of one CF-tree node.
//!
//! Paper §4.2 sizes the tree in pages of `P` bytes — [`crate::PageLayout`]
//! derives the branching factor `B` and leaf capacity `L` from that
//! arithmetic, and this module turns the arithmetic into actual bytes so
//! nodes can live on disk ([`crate::PageStore`]) and inside snapshots
//! ([`crate::snapshot`]). One page is:
//!
//! ```text
//! offset  size  field
//!      0     4  magic        "BPG1" (0x31474250 LE)
//!      4     2  format version (currently 1)
//!      6     1  kind         0 = leaf, 1 = interior
//!      7     1  reserved     (must be 0)
//!      8     4  entry count  semantic entries in the payload
//!     12     4  crc32        over the whole page with this field zeroed
//!     16     8  prev         leaf-chain predecessor (u64::MAX = none)
//!     24     8  next         leaf-chain successor   (u64::MAX = none)
//!     32     …  payload      count × entry records, little-endian u64
//!                            words (f64 bit patterns and child ids)
//! ```
//!
//! The payload is opaque to this crate: callers (the CF-tree) define the
//! per-entry word layout — for a leaf, the CF's serialized statistics; for
//! an interior node, the CF words followed by the child page id. The
//! `prev`/`next` chain words are first-class header fields because the
//! paper's leaf chain (§4.2) is part of the node, not of any entry.
//!
//! Every multi-byte field is little-endian. Decoding verifies magic,
//! version, kind, and the CRC before handing any word back, so a torn or
//! corrupted page surfaces as a typed [`PageError`], never as garbage CF
//! statistics.
//!
//! A page padded to a fixed size ([`encode_page`] at `page_bytes`) carries
//! a CRC over its padding too. A *tight* page is just the header and the
//! payload; the CF-tree writes its spill pages and snapshot pages tight,
//! building them in place with [`begin_page`] and [`seal_page`], and reads
//! them back with [`view_page`], which borrows the payload from the
//! buffer instead of copying it into words.

use std::fmt;

/// First four bytes of every encoded page.
pub const PAGE_MAGIC: [u8; 4] = *b"BPG1";

/// Current page format version.
pub const PAGE_FORMAT_VERSION: u16 = 1;

/// Bytes of the fixed page header preceding the payload words.
pub const PAGE_HEADER_BYTES: usize = 32;

/// Sentinel for "no neighbour" in the header chain words.
pub const NO_NEIGHBOR: u64 = u64::MAX;

/// Node kind stored in a page header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// A leaf node: payload rows are CF entries; chain words are live.
    Leaf,
    /// An interior node: payload rows are CF entries plus a child id.
    Interior,
}

impl PageKind {
    fn to_byte(self) -> u8 {
        match self {
            PageKind::Leaf => 0,
            PageKind::Interior => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(PageKind::Leaf),
            1 => Some(PageKind::Interior),
            _ => None,
        }
    }
}

/// Why a page failed to decode (or encode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageError {
    /// The buffer does not start with [`PAGE_MAGIC`].
    BadMagic,
    /// The format version is not [`PAGE_FORMAT_VERSION`].
    BadVersion(u16),
    /// The kind byte is neither leaf nor interior.
    BadKind(u8),
    /// The stored CRC32 disagrees with the recomputed one.
    ChecksumMismatch {
        /// CRC stored in the header.
        stored: u32,
        /// CRC recomputed over the page contents.
        computed: u32,
    },
    /// The buffer is shorter than the header, or shorter than the entry
    /// count requires.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes it got.
        got: usize,
    },
    /// Encoding would not fit the fixed page size.
    Overflow {
        /// Bytes the encoding needs.
        needed: usize,
        /// The fixed page size.
        page_bytes: usize,
    },
}

impl fmt::Display for PageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageError::BadMagic => write!(f, "page magic mismatch (not a BIRCH page)"),
            PageError::BadVersion(v) => write!(
                f,
                "page format version {v} unsupported (expected {PAGE_FORMAT_VERSION})"
            ),
            PageError::BadKind(b) => write!(f, "unknown page kind byte {b}"),
            PageError::ChecksumMismatch { stored, computed } => write!(
                f,
                "page checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            PageError::Truncated { needed, got } => {
                write!(f, "page truncated: needed {needed} bytes, got {got}")
            }
            PageError::Overflow { needed, page_bytes } => write!(
                f,
                "page overflow: encoding needs {needed} bytes > page size {page_bytes}"
            ),
        }
    }
}

impl std::error::Error for PageError {}

/// A decoded page: header fields plus the payload words.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedPage {
    /// Leaf or interior.
    pub kind: PageKind,
    /// Semantic entry count (the payload may be longer; only the words
    /// the encoder wrote for `count` entries are returned).
    pub count: u32,
    /// Leaf-chain predecessor ([`NO_NEIGHBOR`] = none).
    pub prev: u64,
    /// Leaf-chain successor ([`NO_NEIGHBOR`] = none).
    pub next: u64,
    /// Payload words, little-endian decoded, in encoder order.
    pub words: Vec<u64>,
}

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables: `CRC32_TABLES[0]` is the classic byte table, and
/// `CRC32_TABLES[k][b]` is the CRC register after byte `b` is followed by
/// `k` zero bytes, so sixteen table lookups advance the register by
/// sixteen input bytes at once.
static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC32_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 16 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes`.
/// Hand-rolled rather than a dependency: the workspace builds offline
/// (`shims/README.md`), and 16 KiB of tables is all a checksum this
/// simple needs.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extends a finished CRC-32 over more bytes: `crc32_update(crc32(a), b)
/// == crc32(a ++ b)`, and `crc32_update(0, b) == crc32(b)`. Lets the page
/// and snapshot codecs checksum a message held in pieces without
/// concatenating them.
///
/// Slicing-by-16: each 16-byte chunk costs sixteen independent table
/// lookups instead of sixteen dependent byte steps; the tail (fewer than
/// sixteen bytes) runs bytewise. Alignment does not matter: chunks are
/// read with `from_le_bytes`.
#[must_use]
pub(crate) fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let lookup = |k: usize, w: u32| {
        t[k + 3][(w & 0xFF) as usize]
            ^ t[k + 2][((w >> 8) & 0xFF) as usize]
            ^ t[k + 1][((w >> 16) & 0xFF) as usize]
            ^ t[k][(w >> 24) as usize]
    };
    let mut c = !crc;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        c = lookup(12, c ^ word(&chunk[0..4]))
            ^ lookup(8, word(&chunk[4..8]))
            ^ lookup(4, word(&chunk[8..12]))
            ^ lookup(0, word(&chunk[12..16]));
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Appends a page header to `out`: magic, version, `kind`, `count`,
/// `prev` and `next`, with the CRC field zero. The caller appends the
/// payload words after it and then seals the page with [`seal_page`].
/// [`encode_page`] builds its pages this way, and so does the CF-tree's
/// node encoder, which writes a node's rows straight into a reused
/// buffer.
pub fn begin_page(out: &mut Vec<u8>, kind: PageKind, count: u32, prev: u64, next: u64) {
    out.extend_from_slice(&PAGE_MAGIC);
    out.extend_from_slice(&PAGE_FORMAT_VERSION.to_le_bytes());
    out.push(kind.to_byte());
    out.push(0);
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&[0; 4]); // the CRC, set by `seal_page`
    out.extend_from_slice(&prev.to_le_bytes());
    out.extend_from_slice(&next.to_le_bytes());
}

/// Stores the CRC of `page` — every byte of it, with the CRC field read
/// as zero — in the CRC field. `page` is one whole page that
/// [`begin_page`] started, its CRC field still zero.
///
/// # Panics
///
/// Panics if `page` is shorter than the header.
pub fn seal_page(page: &mut [u8]) {
    assert!(page.len() >= PAGE_HEADER_BYTES, "a page holds its header");
    debug_assert_eq!(page[12..16], [0; 4], "page sealed twice");
    let crc = crc32(page);
    page[12..16].copy_from_slice(&crc.to_le_bytes());
}

/// Encodes one node into a fixed-size page buffer of `page_bytes`.
///
/// `words` is the payload (entry records as u64 word patterns); `count`
/// is the semantic entry count the decoder hands back. The buffer is
/// zero-padded past the payload, and the header CRC covers the entire
/// page (checksum field zeroed during computation) so padding corruption
/// is detected too. At `page_bytes = PAGE_HEADER_BYTES + 8 × words.len()`
/// the page is *tight*: no padding, the form the CF-tree spills and
/// snapshots.
///
/// # Errors
///
/// [`PageError::Overflow`] when header + payload exceed `page_bytes`.
pub fn encode_page(
    page_bytes: usize,
    kind: PageKind,
    count: u32,
    prev: u64,
    next: u64,
    words: &[u64],
) -> Result<Vec<u8>, PageError> {
    let needed = PAGE_HEADER_BYTES + words.len() * 8;
    if needed > page_bytes {
        return Err(PageError::Overflow { needed, page_bytes });
    }
    let mut buf = Vec::with_capacity(page_bytes);
    begin_page(&mut buf, kind, count, prev, next);
    for w in words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf.resize(page_bytes, 0);
    seal_page(&mut buf);
    Ok(buf)
}

/// Reads just the kind byte from a page header, without verifying the
/// checksum. Callers use this to learn the per-entry word width (which
/// differs between leaf and interior rows) before calling [`view_page`],
/// which still performs full verification.
///
/// # Errors
///
/// [`PageError::Truncated`] when the buffer is shorter than the header,
/// [`PageError::BadMagic`] / [`PageError::BadKind`] on a foreign buffer.
pub fn peek_kind(buf: &[u8]) -> Result<PageKind, PageError> {
    if buf.len() < PAGE_HEADER_BYTES {
        return Err(PageError::Truncated {
            needed: PAGE_HEADER_BYTES,
            got: buf.len(),
        });
    }
    if buf[0..4] != PAGE_MAGIC {
        return Err(PageError::BadMagic);
    }
    PageKind::from_byte(buf[6]).ok_or(PageError::BadKind(buf[6]))
}

/// A verified page, borrowed from the buffer it was read into: the header
/// fields, and the payload bytes of its `count` entries. Only
/// [`view_page`] makes one, so holding one means the checks passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageView<'a> {
    /// Leaf or interior.
    pub kind: PageKind,
    /// Semantic entry count.
    pub count: u32,
    /// Leaf-chain predecessor ([`NO_NEIGHBOR`] = none).
    pub prev: u64,
    /// Leaf-chain successor ([`NO_NEIGHBOR`] = none).
    pub next: u64,
    /// Exactly `count × words_per_entry` little-endian u64 words.
    payload: &'a [u8],
}

impl<'a> PageView<'a> {
    /// The payload: `count` entries of `words_per_entry` little-endian
    /// u64 words each, in encoder order.
    #[must_use]
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// The payload words, decoded.
    pub fn words(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        self.payload.chunks_exact(8).map(le_word)
    }
}

/// The little-endian u64 in the first eight bytes of `b`.
fn le_word(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Verifies `buf` as one whole page and borrows its fields, copying
/// nothing. It checks the magic, version and kind, the CRC over every
/// byte of `buf` (padding too), and that the entry count fits the
/// buffer. A tight page is exactly its header and payload, so there the
/// CRC covers every byte the caller will read.
///
/// `words_per_entry` tells the decoder how many payload words each of the
/// `count` entries occupies (the caller's row layout), so it can return
/// exactly the meaningful words and reject a count that overruns the
/// buffer.
///
/// # Errors
///
/// Any [`PageError`] variant: bad magic/version/kind, checksum mismatch,
/// or truncation.
pub fn view_page(buf: &[u8], words_per_entry: usize) -> Result<PageView<'_>, PageError> {
    if buf.len() < PAGE_HEADER_BYTES {
        return Err(PageError::Truncated {
            needed: PAGE_HEADER_BYTES,
            got: buf.len(),
        });
    }
    if buf[0..4] != PAGE_MAGIC {
        return Err(PageError::BadMagic);
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != PAGE_FORMAT_VERSION {
        return Err(PageError::BadVersion(version));
    }
    let kind = PageKind::from_byte(buf[6]).ok_or(PageError::BadKind(buf[6]))?;
    let count = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    let stored = u32::from_le_bytes([buf[12], buf[13], buf[14], buf[15]]);
    // The CRC covers the page with its own field read as zero: stream it
    // over the bytes on either side of the field, with four zeros between.
    let computed = crc32_update(crc32_update(crc32(&buf[..12]), &[0; 4]), &buf[16..]);
    if stored != computed {
        return Err(PageError::ChecksumMismatch { stored, computed });
    }
    let needed = (count as usize)
        .saturating_mul(words_per_entry)
        .saturating_mul(8)
        .saturating_add(PAGE_HEADER_BYTES);
    if buf.len() < needed {
        return Err(PageError::Truncated {
            needed,
            got: buf.len(),
        });
    }
    Ok(PageView {
        kind,
        count,
        prev: le_word(&buf[16..24]),
        next: le_word(&buf[24..32]),
        payload: &buf[PAGE_HEADER_BYTES..needed],
    })
}

/// Decodes and verifies a page buffer produced by [`encode_page`]: the
/// owning form of [`view_page`], with the same checks.
///
/// # Errors
///
/// Any [`PageError`] variant: bad magic/version/kind, checksum mismatch,
/// or truncation.
pub fn decode_page(buf: &[u8], words_per_entry: usize) -> Result<DecodedPage, PageError> {
    let page = view_page(buf, words_per_entry)?;
    Ok(DecodedPage {
        kind: page.kind,
        count: page.count,
        prev: page.prev,
        next: page.next,
        words: page.words().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original byte-at-a-time table CRC-32, kept verbatim as the
    /// oracle the sliced [`crc32`] and [`crc32_update`] must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        const fn table() -> [u32; 256] {
            let mut t = [0u32; 256];
            let mut i = 0;
            while i < 256 {
                let mut c = i as u32;
                let mut k = 0;
                while k < 8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                    k += 1;
                }
                t[i] = c;
                i += 1;
            }
            t
        }
        const TABLE: [u32; 256] = table();
        let mut crc = !0u32;
        for &b in bytes {
            crc = TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sliced_crc_matches_oracle_on_every_short_slice() {
        // Every length up to five 16-byte chunks, from every start offset
        // mod 16, split at every point: covers each chunk/tail boundary
        // exactly.
        let buf: Vec<u8> = (0..96u32).map(|i| (i * 151 + 7) as u8).collect();
        for start in 0..16 {
            for len in 0..=80 {
                let msg = &buf[start..start + len];
                let want = crc32_bytewise(msg);
                assert_eq!(crc32(msg), want, "start {start} len {len}");
                for cut in 0..=len {
                    let (a, b) = msg.split_at(cut);
                    assert_eq!(crc32_update(crc32(a), b), want, "start {start} len {len}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Sliced and streaming CRCs equal the bytewise oracle for any
        /// bytes of length 0..4096, from any start offset mod 16, and
        /// for the streaming form at any split point.
        #[test]
        fn sliced_crc_matches_bytewise_oracle(
            bytes in prop::collection::vec(any::<u8>(), 0..4112),
            start in 0usize..16,
            split in any::<usize>(),
        ) {
            let msg = &bytes[start.min(bytes.len())..];
            let want = crc32_bytewise(msg);
            prop_assert_eq!(crc32(msg), want);
            let (a, b) = msg.split_at(split % (msg.len() + 1));
            prop_assert_eq!(crc32_update(crc32(a), b), want);
            prop_assert_eq!(crc32_update(0, msg), want);
        }
    }

    #[test]
    fn round_trip_leaf_page() {
        let words: Vec<u64> = (0..12).map(|i| 0xDEAD_0000 + i).collect();
        let buf = encode_page(1024, PageKind::Leaf, 4, 7, NO_NEIGHBOR, &words).unwrap();
        assert_eq!(buf.len(), 1024);
        let page = decode_page(&buf, 3).unwrap();
        assert_eq!(page.kind, PageKind::Leaf);
        assert_eq!(page.count, 4);
        assert_eq!(page.prev, 7);
        assert_eq!(page.next, NO_NEIGHBOR);
        assert_eq!(page.words, words);
    }

    #[test]
    fn round_trip_interior_page_with_f64_bits() {
        let words = vec![
            1.5f64.to_bits(),
            (-0.0f64).to_bits(),
            42,
            f64::NAN.to_bits(),
        ];
        let buf =
            encode_page(256, PageKind::Interior, 1, NO_NEIGHBOR, NO_NEIGHBOR, &words).unwrap();
        let page = decode_page(&buf, 4).unwrap();
        assert_eq!(page.kind, PageKind::Interior);
        assert_eq!(page.words, words, "f64 bit patterns survive verbatim");
    }

    #[test]
    fn tight_page_built_in_place_equals_encode_page_and_views_borrow_it() {
        let words: Vec<u64> = (0..9).map(|i| 0xBEEF_0000 + i * 3).collect();
        let tight = PAGE_HEADER_BYTES + 8 * words.len();
        let want = encode_page(tight, PageKind::Interior, 3, NO_NEIGHBOR, 5, &words).unwrap();
        // Built after other bytes in the same buffer, as a snapshot
        // section's node id precedes its page.
        let mut out = vec![0xAA; 4];
        begin_page(&mut out, PageKind::Interior, 3, NO_NEIGHBOR, 5);
        for w in &words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        seal_page(&mut out[4..]);
        assert_eq!(out[4..], want[..]);

        for buf in [
            want.clone(),
            encode_page(512, PageKind::Leaf, 3, 2, NO_NEIGHBOR, &words).unwrap(),
        ] {
            let view = view_page(&buf, 3).unwrap();
            let owned = decode_page(&buf, 3).unwrap();
            assert_eq!(
                (view.kind, view.count, view.prev, view.next),
                (owned.kind, owned.count, owned.prev, owned.next)
            );
            assert_eq!(view.words().collect::<Vec<_>>(), owned.words);
            assert_eq!(view.payload(), &buf[PAGE_HEADER_BYTES..tight]);
        }
    }

    #[test]
    fn single_bit_flip_anywhere_is_detected() {
        let words: Vec<u64> = (0..8).map(|i| i * 31).collect();
        let buf = encode_page(128, PageKind::Leaf, 2, 1, 2, &words).unwrap();
        for byte in 0..buf.len() {
            let mut bad = buf.clone();
            bad[byte] ^= 0x10;
            assert!(
                decode_page(&bad, 4).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn overflow_and_truncation_are_typed() {
        let words = vec![0u64; 20];
        let err = encode_page(64, PageKind::Leaf, 20, 0, 0, &words).unwrap_err();
        assert!(matches!(err, PageError::Overflow { .. }), "{err}");

        let ok = encode_page(256, PageKind::Leaf, 20, 0, 0, &words).unwrap();
        let err = decode_page(&ok[..16], 1).unwrap_err();
        assert!(matches!(err, PageError::Truncated { .. }), "{err}");
        // Count says more entries than the buffer holds.
        let err = decode_page(&ok, 3).unwrap_err();
        assert!(matches!(err, PageError::Truncated { .. }), "{err}");
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let buf = encode_page(64, PageKind::Leaf, 0, 0, 0, &[]).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert_eq!(decode_page(&bad, 1).unwrap_err(), PageError::BadMagic);

        let mut bad = buf.clone();
        bad[4] = 99;
        // Re-seal the CRC so only the version is wrong.
        bad[12..16].fill(0);
        let crc = crc32(&bad);
        bad[12..16].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_page(&bad, 1).unwrap_err(), PageError::BadVersion(99));

        let mut bad = buf;
        bad[6] = 7;
        bad[12..16].fill(0);
        let crc = crc32(&bad);
        bad[12..16].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_page(&bad, 1).unwrap_err(), PageError::BadKind(7));
    }
}
