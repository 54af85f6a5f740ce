//! # lcrs-baselines — external-memory baselines for halfspace reporting
//!
//! The comparison structures of the paper's Section 1.2: a naive scan
//! (always Θ(n) IOs), an external kd-tree (k-d-B style — good average-case
//! performance, Ω(n) worst case on the diagonal adversarial input), and an
//! STR bulk-loaded R-tree (the classic spatial-database index, with the same
//! failure mode). All report exactly the points strictly below (or on) a
//! query line, so they are interchangeable with `lcrs_halfspace::HalfspaceRS2`
//! in the benchmark harness.
//!
//! Like every structure in the workspace, the baselines return answers
//! only: a caller measures the IOs a query pays with
//! `lcrs_extmem::DeviceHandle::measure` on the scope it reads through.
//! The two trees check their node pages when loaded from a snapshot, so a
//! checksummed but malformed tree is a typed error, not a panic or a stack
//! overflow at query time.

pub mod kdtree;
pub mod rtree;
pub mod scan;

pub use kdtree::ExternalKdTree;
pub use rtree::StrRTree;
pub use scan::{ExternalScan, ExternalScan3};
