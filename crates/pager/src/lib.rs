//! Paged-memory substrate for BIRCH: page arithmetic, the page codec and
//! the page files.
//!
//! The BIRCH paper (Zhang, Ramakrishnan & Livny, SIGMOD 1996) is explicitly a
//! *memory-bounded* algorithm: the CF-tree must fit into `M` bytes of main
//! memory organised as pages of `P` bytes, and an optional amount `R` of disk
//! is available for spilling potential outliers and delayed-split points.
//! The tree's branching factor `B` and leaf capacity `L` are *derived* from
//! the page size and data dimensionality, not chosen independently.
//!
//! This crate provides that substrate:
//!
//! * [`PageLayout`] — computes how many CF entries fit on one page, i.e. the
//!   paper's `B` (interior nodes) and `L` (leaf nodes), and the byte size
//!   of one page slot on disk,
//! * [`page`] — a versioned, checksummed little-endian page codec for
//!   leaf/interior nodes (the bytes behind `PageLayout`'s arithmetic),
//! * [`PageStore`] — a file of fixed-size page slots with free-list
//!   recycling. It backs out-of-core CF-trees and the spill logs
//!   (`birch_core::spill`) that hold the outlier and delay-split entries,
//! * [`FaultPlan`] / [`DiskError`] — deterministic refusals of spill
//!   writes, and the error a refused write returns,
//! * [`ClockCache`] — the second-chance eviction policy choosing which
//!   resident node to spill when the page budget is exceeded,
//! * [`SnapshotWriter`] / [`SnapshotReader`] — an atomically-installed,
//!   per-section-checksummed snapshot container for checkpoint/restore.
//!
//! The run counters the paper's evaluation section reports (rebuilds,
//! peak pages, disk traffic) are kept by `birch_core::obs::Counters`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod layout;
pub mod page;
pub mod snapshot;
pub mod store;

pub use disk::{DiskError, FaultPlan};
pub use layout::PageLayout;
pub use page::{
    begin_page, crc32, decode_page, encode_page, peek_kind, seal_page, view_page, DecodedPage,
    PageError, PageKind, PageView, NO_NEIGHBOR, PAGE_FORMAT_VERSION, PAGE_HEADER_BYTES,
};
pub use snapshot::{
    SnapshotError, SnapshotReader, SnapshotWriter, SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MAGIC,
};
pub use store::{ClockCache, PageStore, StoreStats};
