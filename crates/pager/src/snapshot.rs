//! Versioned, checksummed snapshot container for checkpoint/restore.
//!
//! A snapshot is a single file of tagged sections — the CF-tree writes
//! its metadata and node pages into them (`CfTree::checkpoint` /
//! `CfTree::reopen` in `birch-core`), but the container itself is
//! generic: tags are opaque 4-byte identifiers, payloads are opaque
//! bytes, every section carries its own CRC-32, and the whole file is
//! written to a temporary sibling and atomically renamed into place so a
//! crash mid-checkpoint never leaves a half-written snapshot under the
//! target name.
//!
//! ```text
//! offset  size  field
//!      0     8  magic          "BIRCHSN1"
//!      8     4  format version (currently 1)
//!     12     4  section count
//!   then per section:
//!      +0     4  tag            e.g. "META", "NODE"
//!      +4     8  payload length
//!     +12     4  crc32 of tag ++ payload
//!     +16     …  payload bytes
//! ```
//!
//! All integers little-endian. [`SnapshotReader::open`] validates magic,
//! version, section framing, and every CRC before returning, so corrupt
//! or truncated snapshots surface as typed [`SnapshotError`]s — reopen
//! paths must degrade to an error, never to a silently wrong tree.

use crate::page::{crc32, crc32_update};
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::ops::Range;
use std::path::Path;

/// First eight bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"BIRCHSN1";

/// Current snapshot container version.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

/// Bytes of the file header, and of each section header.
const HEADER_BYTES: usize = 16;

/// Section checksum: covers the tag too, so a flipped tag byte cannot
/// silently reroute a section to a different consumer.
fn section_crc(tag: [u8; 4], payload: &[u8]) -> u32 {
    crc32_update(crc32(&tag), payload)
}

/// Why a snapshot failed to load.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The container version is unsupported.
    BadVersion(u32),
    /// A section header or payload runs past the end of the file.
    Truncated {
        /// Short description of what was being read.
        context: &'static str,
    },
    /// A section payload's CRC disagrees with the stored one.
    ChecksumMismatch {
        /// The section's 4-byte tag, rendered best-effort.
        tag: String,
    },
    /// A section the consumer requires is absent or malformed.
    Malformed {
        /// What was wrong, for the error message.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a BIRCH snapshot (magic mismatch)"),
            SnapshotError::BadVersion(v) => write!(
                f,
                "snapshot version {v} unsupported (expected {SNAPSHOT_FORMAT_VERSION})"
            ),
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::ChecksumMismatch { tag } => {
                write!(f, "snapshot section {tag:?} failed its checksum")
            }
            SnapshotError::Malformed { detail } => write!(f, "snapshot malformed: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Accumulates sections and atomically writes the snapshot file.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl SnapshotWriter {
    /// An empty snapshot under construction.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section. Tags may repeat; readers see them in order.
    pub fn add_section(&mut self, tag: [u8; 4], payload: Vec<u8>) {
        self.sections.push((tag, payload));
    }

    /// Serializes all sections and atomically installs the file at
    /// `path` (write to a `.tmp` sibling, fsync, rename).
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors; on error the target path is untouched.
    pub fn finish(self, path: &Path) -> io::Result<()> {
        let mut buf = Vec::with_capacity(
            16 + self
                .sections
                .iter()
                .map(|(_, p)| p.len() + 16)
                .sum::<usize>(),
        );
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (tag, payload) in &self.sections {
            buf.extend_from_slice(tag);
            buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            buf.extend_from_slice(&section_crc(*tag, payload).to_le_bytes());
            buf.extend_from_slice(payload);
        }
        let tmp = path.with_extension("snapshot.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        match fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// A fully validated, in-memory view of a snapshot file: the file's
/// bytes, read once, and where each section's payload lies in them.
#[derive(Debug)]
pub struct SnapshotReader {
    bytes: Vec<u8>,
    sections: Vec<([u8; 4], Range<usize>)>,
}

impl SnapshotReader {
    /// Loads and validates `path`: magic, version, section framing, and
    /// every section CRC.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; a corrupt or truncated file never yields a
    /// reader.
    pub fn open(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = fs::read(path)?;
        if bytes.len() < HEADER_BYTES {
            return Err(SnapshotError::Truncated { context: "header" });
        }
        if bytes[0..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        // The header is not checksummed, so the count may be garbage:
        // reserve no more sections than the file has room for headers.
        let room = (bytes.len() - HEADER_BYTES) / HEADER_BYTES;
        let mut sections = Vec::with_capacity((count as usize).min(room));
        let mut at = HEADER_BYTES;
        for _ in 0..count {
            if bytes.len() - at < HEADER_BYTES {
                return Err(SnapshotError::Truncated {
                    context: "section header",
                });
            }
            let tag: [u8; 4] = bytes[at..at + 4].try_into().expect("4 bytes");
            let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes"));
            let stored = u32::from_le_bytes(bytes[at + 12..at + 16].try_into().expect("4 bytes"));
            at += HEADER_BYTES;
            let end = usize::try_from(len)
                .ok()
                .and_then(|len| at.checked_add(len))
                .filter(|&end| end <= bytes.len())
                .ok_or(SnapshotError::Truncated {
                    context: "section payload",
                })?;
            if section_crc(tag, &bytes[at..end]) != stored {
                return Err(SnapshotError::ChecksumMismatch {
                    tag: String::from_utf8_lossy(&tag).into_owned(),
                });
            }
            sections.push((tag, at..end));
            at = end;
        }
        if at != bytes.len() {
            // A corrupted (shrunken) section count would otherwise drop
            // trailing sections without tripping any checksum.
            return Err(SnapshotError::Malformed {
                detail: format!("{} trailing bytes after last section", bytes.len() - at),
            });
        }
        Ok(Self { bytes, sections })
    }

    /// The first section with `tag`, if present.
    #[must_use]
    pub fn section(&self, tag: [u8; 4]) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, r)| &self.bytes[r.clone()])
    }

    /// All sections with `tag`, in file order.
    #[must_use]
    pub fn sections(&self, tag: [u8; 4]) -> Vec<&[u8]> {
        self.sections
            .iter()
            .filter(|(t, _)| *t == tag)
            .map(|(_, r)| &self.bytes[r.clone()])
            .collect()
    }

    /// The first section with `tag`, or a [`SnapshotError::Malformed`]
    /// naming the missing tag.
    ///
    /// # Errors
    ///
    /// When no section carries `tag`.
    pub fn require(&self, tag: [u8; 4]) -> Result<&[u8], SnapshotError> {
        self.section(tag).ok_or_else(|| SnapshotError::Malformed {
            detail: format!("missing section {:?}", String::from_utf8_lossy(&tag)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("birch-snap-test-{}-{tag}.snap", std::process::id()))
    }

    #[test]
    fn sections_round_trip() {
        let path = temp_path("roundtrip");
        let mut w = SnapshotWriter::new();
        w.add_section(*b"META", vec![1, 2, 3]);
        w.add_section(*b"NODE", vec![0; 1000]);
        w.add_section(*b"NODE", vec![9, 9]);
        w.finish(&path).unwrap();

        let r = SnapshotReader::open(&path).unwrap();
        assert_eq!(r.require(*b"META").unwrap(), &[1, 2, 3]);
        assert_eq!(r.sections(*b"NODE").len(), 2);
        assert_eq!(r.sections(*b"NODE")[1], &[9, 9]);
        assert!(r.section(*b"GONE").is_none());
        assert!(matches!(
            r.require(*b"GONE"),
            Err(SnapshotError::Malformed { .. })
        ));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        let path = temp_path("corrupt");
        let mut w = SnapshotWriter::new();
        w.add_section(*b"META", (0u8..100).collect());
        w.finish(&path).unwrap();
        let clean = fs::read(&path).unwrap();
        // Flip one byte at every offset: each must fail to open (payload
        // bytes via CRC, header bytes via magic/version/framing checks)
        // or, for count/length bytes, fail as truncation.
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            assert!(
                SnapshotReader::open(&path).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn huge_section_count_and_length_are_truncation_not_abort() {
        // The header is not checksummed: a count of u32::MAX must not
        // reserve u32::MAX sections, and a length of u64::MAX must not
        // overflow the payload bound.
        let path = temp_path("huge");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SnapshotReader::open(&path),
            Err(SnapshotError::Truncated {
                context: "section header"
            })
        ));

        bytes.extend_from_slice(b"META");
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SnapshotReader::open(&path),
            Err(SnapshotError::Truncated {
                context: "section payload"
            })
        ));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let path = temp_path("trunc");
        let mut w = SnapshotWriter::new();
        w.add_section(*b"META", vec![7; 64]);
        w.finish(&path).unwrap();
        let clean = fs::read(&path).unwrap();
        for cut in [0, 4, 15, 16, 20, clean.len() - 1] {
            fs::write(&path, &clean[..cut]).unwrap();
            assert!(
                SnapshotReader::open(&path).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn finish_is_atomic_no_tmp_left_behind() {
        let path = temp_path("atomic");
        let mut w = SnapshotWriter::new();
        w.add_section(*b"META", vec![1]);
        w.finish(&path).unwrap();
        assert!(path.exists());
        assert!(!path.with_extension("snapshot.tmp").exists());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = SnapshotReader::open(Path::new("/nonexistent/birch.snap")).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err}");
    }
}
