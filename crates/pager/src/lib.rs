//! Paged-memory and simulated-disk accounting substrate for BIRCH.
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
//!   paper's `B` (interior nodes) and `L` (leaf nodes),
//! * [`MemoryBudget`] — tracks page allocation against the budget `M` and
//!   reports when a rebuild is required,
//! * [`SimDisk`] — an append-only simulated disk with byte/page-granularity
//!   I/O counters, used for outlier entries and delay-split buffers.
//!
//! The run counters the paper's evaluation section reports (rebuilds,
//! peak pages, disk traffic) are kept by `birch_core::obs::Counters`,
//! which banks these components' counters when a scan finishes.
//!
//! Accounting ([`MemoryBudget`], [`SimDisk`]) reproduces the
//! paper's *cost model* faithfully (see DESIGN.md, substitution 3) so the
//! benchmark harness can report the same columns. On top of that, the crate
//! provides real durability:
//!
//! * [`page`] — a versioned, checksummed little-endian page codec for
//!   leaf/interior nodes (the bytes behind `PageLayout`'s arithmetic),
//! * [`PageStore`] — a file of fixed-size page slots with free-list
//!   recycling, backing out-of-core CF-trees,
//! * [`ClockCache`] — the second-chance eviction policy choosing which
//!   resident node to spill when the page budget is exceeded,
//! * [`SnapshotWriter`] / [`SnapshotReader`] — an atomically-installed,
//!   per-section-checksummed snapshot container for checkpoint/restore.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod disk;
pub mod layout;
pub mod page;
pub mod snapshot;
pub mod store;

pub use budget::{BudgetError, MemoryBudget};
pub use disk::{DiskError, FaultPlan, SimDisk};
pub use layout::PageLayout;
pub use page::{
    begin_page, crc32, decode_page, encode_page, peek_kind, seal_page, view_page, DecodedPage,
    PageError, PageKind, PageView, NO_NEIGHBOR, PAGE_FORMAT_VERSION, PAGE_HEADER_BYTES,
};
pub use snapshot::{
    SnapshotError, SnapshotReader, SnapshotWriter, SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MAGIC,
};
pub use store::{ClockCache, PageStore, StoreStats};
