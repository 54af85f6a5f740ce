//! # lcrs-halfspace — external-memory halfspace range searching
//!
//! The data structures of Agarwal, Arge, Erickson, Franciosa and Vitter,
//! *Efficient Searching with Linear Constraints* (PODS 1998), implemented on
//! the simulated disk of [`lcrs_extmem`]:
//!
//! * [`hs2d`] — the optimal 2D structure (Theorem 3.5): O(n) blocks,
//!   O(log_B n + t) IOs per query, via greedy 3k-clusterings of levels;
//! * [`hs3d`] — the 3D structure (Theorem 4.4): O(n log₂ n) expected blocks,
//!   O(log_B n + t) expected IOs, via lower envelopes of geometric samples
//!   with conflict lists; its k-lowest-planes query is what planar k-NN by
//!   lifting (Theorem 4.3) rides on, through the engine's `LiftedIndex`;
//! * [`dynamic`] — the leveled core of the dynamization (Remark (iii), the
//!   logarithmic method over Theorem 3.5 levels): inserts and tombstoned
//!   deletes through a delta tier, levels on the caller's device or each
//!   on its own frozen device (the engine's `LiveIndex`, DESIGN.md §12);
//! * [`ptree`] — linear-size partition trees for d dimensions
//!   (Theorem 5.2), answering halfspace and simplex queries;
//! * [`tradeoff`] — the space/query trade-offs of Section 6 (hybrid
//!   partition tree with 3D structures at the leaves, Theorem 6.1, and the
//!   shallow-style tree of Theorem 6.3);
//! * [`partition`] — the space partitioner for sharded serving: recursive
//!   ham-sandwich cuts into S near-even shards with explicit convex-cell
//!   regions and conservative routing tests (the geometry behind the
//!   `ShardedIndexSet` of `lcrs-engine`, DESIGN.md §11).
//!
//! All query methods report *exactly* the input points satisfying the
//! constraint (verified against brute force in the test suites); IO costs
//! are measured, not estimated, through the device the structure was built
//! on.
//!
//! Every structure additionally self-reports its paper query bound as a
//! [`cost::CostHint`] (the `cost_hint()` methods), which is what the
//! cost-model query planner of `lcrs-engine` routes on (DESIGN.md §10).

pub mod cost;
pub mod delta;
pub mod dynamic;
pub mod hs2d;
pub mod hs3d;
pub mod partition;
pub mod ptree;
pub mod tradeoff;

pub use cost::{CostHint, CostShape};
pub use delta::DeltaTier;
pub use dynamic::{DynamicHalfspace2, Level, LevelBacking, MergeHandle};
pub use hs2d::HalfspaceRS2;
pub use hs3d::HalfspaceRS3;
pub use partition::{partition2, partition3, Partition2, Partition3, ShardRegion2, ShardRegion3};
pub use ptree::PartitionTree;
pub use tradeoff::{HybridTree3, ShallowTree3};
