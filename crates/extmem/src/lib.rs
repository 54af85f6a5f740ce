//! # lcrs-extmem — simulated external memory
//!
//! This crate provides the cost model of the paper (Section 1.1): data lives
//! on a "disk" of fixed-size pages, every page access that misses the
//! (optional) internal-memory cache costs one IO, and a page holds `B`
//! records. All data structures in the workspace store their data through
//! [`Device`] so that the IO counts reported by the benchmark harness are
//! exact for the model rather than estimates.
//!
//! Components:
//! * [`Device`] — the simulated disk: page allocation, read/write with IO
//!   accounting, an optional LRU cache of `M/B` pages, whose frames hold the
//!   bytes of resident pages of a reopened snapshot.
//! * [`Record`] — fixed-size little-endian record codec.
//! * [`VecFile`]/[`FileBuilder`] — a typed sequence of records packed into
//!   contiguous pages (the unit the paper calls "storing a list in
//!   `ceil(len/B)` blocks").
//! * [`btree::BPlusTree`] — a bulk-loaded, read-only external B+-tree (the
//!   paper's 1-D baseline and a building block for boundary search in
//!   Section 3). There is no external sort: constructions sort in internal
//!   memory, and the model does not charge them.
//! * [`snapshot`] — persistent snapshots of frozen devices: a versioned,
//!   checksummed on-disk format ([`Device::freeze_to_path`] /
//!   [`Device::open_snapshot`]) plus the [`MetaWriter`]/[`MetaReader`]
//!   codec every structure's `save`/`load` pair uses.

pub mod btree;
pub mod device;
pub mod file;
pub mod snapshot;
pub mod stats;

pub use device::{Device, DeviceConfig, DeviceHandle, PageBackend, PageId};
pub use file::{FileBuilder, Record, VecFile};
pub use snapshot::{MetaReader, MetaWriter, SnapshotError, TempDir};
pub use stats::{IoDelta, IoStats};
