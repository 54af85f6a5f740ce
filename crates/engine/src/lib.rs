//! # lcrs-engine — batched multi-query execution
//!
//! The paper's bounds are per-query (O(log_B n + t) IOs), but a system
//! serving heavy traffic answers *batches* of queries, where page reuse
//! across queries is the dominant cost saving. This crate is the front door
//! for that mode of operation (DESIGN.md §7):
//!
//! * [`Query`] — a structure-agnostic query value: halfplane, halfspace,
//!   and k-NN reports, plus the derived classes of DESIGN.md §15 —
//!   [`Query::Disk`] (circular ranges via the paraboloid lift),
//!   [`Query::Count`] / [`Query::Sum`] (annotated aggregates), and
//!   [`Query::TopK`] (ranked reporting);
//! * [`LiftedIndex`] (kind `knn`) — disks and k-NN (Theorem 4.3)
//!   answered by the existing 3D halfspace structure over lifted 2D
//!   points, with an exact-scan tail for points outside the lift budget:
//!   the k nearest neighbors are the k lowest lifted planes at the
//!   center, and a disk's points are the planes below one point on the
//!   center's vertical line;
//! * [`RangeIndex`] — the unified query interface, implemented by every
//!   structure of `lcrs_halfspace` and every baseline of `lcrs_baselines`,
//!   with per-query [`IoDelta`](lcrs_extmem::IoDelta) attribution measured
//!   through the device the structure was built on;
//! * [`BatchExecutor`] — the one executor: accepts a batch, reorders it
//!   for page locality (by the query's dual point / region), executes it
//!   against a warm LRU cache, and reports per-query and aggregate IO
//!   against the one-at-a-time cold baseline. With
//!   [`BatchExecutor::workers`] it cuts the schedule into contiguous
//!   chunks run by a pool of at most `available_parallelism` threads
//!   (DESIGN.md §8), each chunk on its own
//!   [`lcrs_extmem::DeviceHandle`] fork (own warm LRU, exactly attributed
//!   per-chunk IO); a lone chunk runs on the calling thread;
//! * [`SnapshotCatalog`] — build-once/serve-many (DESIGN.md §9): persist
//!   a directory of frozen indexes ([`RangeIndex::save_meta`] +
//!   [`lcrs_extmem::Device::freeze_to_path`], one pages file per store
//!   however many indexes share it) and reload them read-only in any
//!   later process, answers and read-IO counts bit-identical to the
//!   in-memory originals;
//! * [`IndexSet`] — the cost-model query planner (DESIGN.md §10): a
//!   facade over a heterogeneous collection of built structures that
//!   routes each query of a mixed batch to the cheapest capable one,
//!   using the paper's asymptotic bounds ([`RangeIndex::cost_hint`])
//!   calibrated by a measured probe pass; calibration constants persist
//!   through a catalog so a reopened set plans identically;
//! * [`ShardedIndexSet`] — space-partitioned serving (DESIGN.md §11): the
//!   dataset split into S geometry-aware shards by recursive ham-sandwich
//!   cuts ([`lcrs_halfspace::partition`]), each shard a full calibrated
//!   [`IndexSet`] on its own devices with its own sub-catalog; queries
//!   route only to the shards whose region they can intersect
//!   (conservative, no false negatives), scatter-gather on the same
//!   bounded pool, and merge to the canonical answer order with exact per-shard
//!   IO attribution and a fan-out-aware cost model;
//! * [`LiveIndex`] — live-update serving (DESIGN.md §12): an LSM-style
//!   mutable tier over the leveled logarithmic-method core
//!   ([`lcrs_halfspace::dynamic`]), absorbing inserts and deletes while
//!   answering queries, checkpointing every mutation through an atomic
//!   `__live.meta` manifest swap over [`SnapshotCatalog`]-persisted frozen
//!   levels (`lv<seq>` entries), merging levels on a background thread
//!   while readers keep serving the pre-merge state — and itself a
//!   [`RangeIndex`], so a reader fork plans like any frozen slot;
//! * [`QueryServer`] — the serving front end (DESIGN.md §14): a windowed
//!   loop over a deterministic tenant-tagged arrival stream that
//!   accumulates arrivals into time/size-bounded windows
//!   ([`WindowPolicy`]), executes each window as one planned batch
//!   (on one thread or across executor chunks), enforces
//!   per-tenant IO quotas ([`QuotaConfig`]) with typed
//!   [`ServeStatus::Rejected`] outcomes, attributes exact per-tenant
//!   [`IoDelta`](lcrs_extmem::IoDelta)s, and exposes a pull-style
//!   [`MetricsSnapshot`].
//!
//! Answers are never affected by batching, sharding, or persistence: the
//! executor only changes *when* pages happen to be resident, and a
//! reloaded index reads exactly the pages the original froze — which the
//! test suites pin by comparing cold, batched, parallel, and
//! reopened-from-snapshot answers element-wise.

pub mod batch;
pub mod catalog;
pub mod cost;
pub mod lift;
pub mod live;
pub mod planner;
pub mod query;
pub mod serve;
pub mod shard;

pub use batch::{BatchExecutor, BatchReport, ExecMode, QueryOutcome, QueryStatus, WorkerReport};
pub use catalog::{CatalogEntry, SnapshotCatalog, RESERVED_PREFIX};
pub use cost::{calibrate_index, predicted_reads, Calibration};
pub use lift::LiftedIndex;
pub use live::{LiveIndex, LiveLevel, LIVE_MANIFEST};
pub use planner::{IndexSet, Plan, PlanReport, RoutedReport, CALIBRATION_FILE};
pub use query::{decode_sum, encode_sum, load_index, Query, RangeIndex, Unsupported};
pub use serve::{
    saturating_ns, Arrival, MetricsSnapshot, QueryServer, QuotaConfig, RejectReason, ServeConfig,
    ServeOutcome, ServeReport, ServeStatus, TenantId, TenantMetrics, WindowPolicy, WindowSummary,
};
pub use shard::{ShardConfig, ShardReport, ShardedIndexSet, ShardedReport, SHARD_MANIFEST};
