//! The space-partitioned index set: geometry-aware shards with per-shard
//! catalogs and scatter-gather planning (DESIGN.md §11).
//!
//! A [`ShardedIndexSet`] splits one logical 2D + 3D dataset into S
//! near-even geometric shards ([`lcrs_halfspace::partition`]: recursive
//! ham-sandwich cuts in 2D, axis-median boxes in 3D) and gives every
//! shard its own devices plus a full calibrated [`IndexSet`] over its
//! sub-dataset. Serving then scatter-gathers:
//!
//! * **Route** — the pure [`ShardedIndexSet::shards_intersecting`]
//!   predicate keeps only the shards whose region can intersect the
//!   query constraint (conservative and exact: a shard holding a
//!   reported answer is never pruned; k-NN fans out to every shard).
//!   The derived classes of DESIGN.md §15 route by the same geometry:
//!   disks clamp the center to the shard box and compare exact
//!   carry-aware distances
//!   ([`lcrs_halfspace::ShardRegion2::may_intersect_disk`]), while
//!   count/sum/top-k reduce to their halfplane constraint.
//! * **Execute** — each routed sub-batch runs through the shard's own
//!   planner ([`IndexSet::execute_parallel_plan`]), shards one after
//!   another or, with [`ShardedIndexSet::execute_parallel`], on the
//!   engine's bounded pool: at most `available_parallelism` threads, the
//!   calling thread one of them, claim the active shards longest
//!   sub-batch first (ties by shard index), and the executor's chunks
//!   *within* each shard share the same bound — shards live on disjoint
//!   devices, so concurrency never changes counts.
//! * **Merge** — query by query, per-shard answers translate back to
//!   global ids in the canonical order; `execute_parallel` merges
//!   contiguous query ranges, one per active shard, on the same pool and
//!   concatenates them in submission order. Global ids are dense in
//!   `[0, N)` and shards disjoint, so a report answer (halfplane,
//!   halfspace, disk) sets its ids in its range's N-bit map and drains it
//!   in ascending order: O(t + N/64), no sort. k-NN ranks by exact
//!   carry-aware `(distance², id)` ([`lcrs_geom::lift::dist2_carry`])
//!   and top-k by exact `i128` `(key, id)`, both keyed from the shard's
//!   own copy of each point and truncated to `k`; count/sum scalars sum
//!   across the disjoint shards
//!   (zero-synthesized when routing pruned every shard). Per-shard
//!   [`IoDelta`]s sum *exactly* to the aggregate (each is a sum of the
//!   executor's runtime-checked chunk totals).
//!
//! The cost model is fan-out aware: [`ShardedIndexSet::predicted_reads`]
//! prices a query as the sum over routed shards of the cheapest capable
//! slot inside each shard — (shards touched) × (per-shard calibrated
//! `CostHint` cost). Broad queries fan out everywhere, so their predicted
//! cost grows with S while a narrow query's shrinks.
//!
//! At S=1 the sharded set *is* the unsharded set: one shard, identity
//! routing (no region pruning — so IO totals reproduce the unsharded
//! planner exactly, pinned by the differential suite).

use std::cmp::Reverse;
use std::ops::Range;
use std::path::{Path, PathBuf};

use lcrs_extmem::{
    Device, DeviceConfig, DeviceHandle, IoDelta, MetaReader, MetaWriter, SnapshotError,
};
use lcrs_geom::lift::dist2_carry;
use lcrs_halfspace::partition::{partition2, partition3, Partition2, Partition3};
use lcrs_halfspace::{ShardRegion2, ShardRegion3};

use crate::batch::{even_ranges, fan_out, QueryOutcome, QueryStatus};
use crate::catalog::SnapshotCatalog;
use crate::planner::{IndexSet, PlanReport};
use crate::query::{decode_sum, encode_sum, Query};

/// File name of the shard manifest inside a sharded-catalog directory
/// (next to the `shard<i>/` sub-catalogs). Uses the engine-internal
/// [`crate::catalog::RESERVED_PREFIX`], which entry labels may not start
/// with, so a flat catalog sharing the directory can never overwrite it.
pub const SHARD_MANIFEST: &str = "__shards.meta";

/// Magic string guarding the shard manifest.
const MANIFEST_MAGIC: &str = "lcrs-shards";
const MANIFEST_VERSION: u64 = 1;

/// Configuration of a sharded build.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Number of shards: a power of two ≥ 1, at most the size of either
    /// dataset.
    pub shards: usize,
    /// Device geometry for every shard's 2D and 3D device.
    pub device: DeviceConfig,
}

struct Shard {
    set: IndexSet,
    region2: ShardRegion2,
    region3: ShardRegion3,
    /// Local id → global id for the 2D structures (ascending input order).
    ids2: Vec<u32>,
    /// The shard's 2D points in local-id order (the k-NN and top-k merges
    /// recompute exact keys from these).
    pts2: Vec<(i64, i64)>,
    /// Local id → global id for the 3D structures.
    ids3: Vec<u32>,
}

/// IO accounting of one shard's routed sub-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index in `0..shards`.
    pub shard: usize,
    /// Queries routed to this shard.
    pub queries: usize,
    /// Aggregate IOs across the shard's devices (its planner sub-report
    /// total).
    pub io: IoDelta,
}

/// Result of scatter-gather execution over a [`ShardedIndexSet`].
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Per-query outcomes in *submission* order. A query routed to
    /// several shards carries the **sum** of its per-shard deltas;
    /// `reported` counts the *merged* answer.
    pub outcomes: Vec<QueryOutcome>,
    /// Per-shard sub-batch totals, ascending by shard, non-empty
    /// sub-batches only.
    pub per_shard: Vec<ShardReport>,
    /// Aggregate IOs: the sum of the per-shard totals (exact — shards
    /// live on disjoint devices).
    pub total: IoDelta,
    /// Merged answers in submission order, already canonical: ascending
    /// global ids for reports, `(distance, id)` order for k-NN, `(key, id)`
    /// order for top-k, and the summed scalar for count/sum.
    pub answers: Option<Vec<Vec<u64>>>,
    /// Shards touched per query (submission order) — the fan-out the
    /// cost model prices.
    pub fanout: Vec<usize>,
}

impl ShardedReport {
    /// Sum of the per-query deltas; equals [`Self::total`] exactly.
    pub fn attributed_total(&self) -> IoDelta {
        crate::batch::sum_outcome_io(&self.outcomes)
    }

    /// Total read IOs.
    pub fn reads(&self) -> u64 {
        self.total.reads
    }

    /// Queries no shard's set supports.
    pub fn unsupported(&self) -> usize {
        crate::batch::count_unsupported(&self.outcomes)
    }

    /// Mean shards touched per query (0.0 for an empty batch).
    pub fn mean_fanout(&self) -> f64 {
        if self.fanout.is_empty() {
            0.0
        } else {
            self.fanout.iter().sum::<usize>() as f64 / self.fanout.len() as f64
        }
    }
}

/// S geometry-aware shards, each a full calibrated [`IndexSet`] on its
/// own devices — see the module docs.
pub struct ShardedIndexSet {
    shards: Vec<Shard>,
    /// The owned per-shard devices (2D, 3D per shard) when built
    /// in-memory; empty after [`Self::from_catalog`] (reopened structures
    /// own their snapshot-backed devices through their handles).
    devices: Vec<Device>,
}

impl ShardedIndexSet {
    /// Partition `(pts2, pts3)` into `cfg.shards` geometric shards and
    /// build every shard's [`IndexSet`] with `build_shard`, which
    /// receives the shard's 2D/3D device handles and its local point
    /// slices (local id = position in the slice; the sharded set
    /// translates reported ids back to global input indices). The
    /// canonical builder is `lcrs_bench::full_index_set`; any builder
    /// works as long as every shard gets the same structure kinds in the
    /// same slot order, each over all of the shard's points (a breach
    /// panics).
    pub fn build<F>(
        pts2: &[(i64, i64)],
        pts3: &[(i64, i64, i64)],
        cfg: &ShardConfig,
        build_shard: F,
    ) -> ShardedIndexSet
    where
        F: Fn(&DeviceHandle, &DeviceHandle, &[(i64, i64)], &[(i64, i64, i64)]) -> IndexSet,
    {
        let p2 = partition2(pts2, cfg.shards);
        let p3 = partition3(pts3, cfg.shards);
        Self::assemble(pts2, pts3, p2, p3, cfg, build_shard)
    }

    fn assemble<F>(
        pts2: &[(i64, i64)],
        pts3: &[(i64, i64, i64)],
        p2: Partition2,
        p3: Partition3,
        cfg: &ShardConfig,
        build_shard: F,
    ) -> ShardedIndexSet
    where
        F: Fn(&DeviceHandle, &DeviceHandle, &[(i64, i64)], &[(i64, i64, i64)]) -> IndexSet,
    {
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut devices = Vec::with_capacity(2 * cfg.shards);
        for (s, (ids2, ids3)) in p2.groups.iter().zip(&p3.groups).enumerate() {
            let local2: Vec<(i64, i64)> = ids2.iter().map(|&i| pts2[i as usize]).collect();
            let local3: Vec<(i64, i64, i64)> = ids3.iter().map(|&i| pts3[i as usize]).collect();
            let dev2 = Device::new(cfg.device);
            let dev3 = Device::new(cfg.device);
            let set = build_shard(&dev2, &dev3, &local2, &local3);
            assert!(!set.is_empty(), "shard {s}: build_shard returned an empty set");
            shards.push(Shard {
                set,
                region2: p2.regions[s].clone(),
                region3: p3.regions[s].clone(),
                ids2: ids2.clone(),
                pts2: local2,
                ids3: ids3.clone(),
            });
            devices.push(dev2);
            devices.push(dev3);
        }
        let sharded = ShardedIndexSet { shards, devices };
        sharded.check_shards().unwrap_or_else(|e| panic!("{e}"));
        sharded
    }

    /// The contract every shard meets, checked once by both constructors:
    /// a panic from [`Self::build`] (a caller bug) and a typed error from
    /// [`Self::from_catalog`] (bad files). Every shard holds the same
    /// structure kinds in the same slot order as shard 0, which makes
    /// per-class support uniform across shards (a query is answerable by
    /// all routed shards or by none). Every slot holds exactly as many
    /// points as its shard's id map names — `ids3` for the slots answering
    /// [`Query::Halfspace`], `ids2` for the rest — so each local id it
    /// reports has a global id.
    fn check_shards(&self) -> Result<(), String> {
        let kinds = |set: &IndexSet| -> Vec<&str> {
            (0..set.len()).map(|slot| set.structure(slot).name()).collect()
        };
        let reference = kinds(&self.shards[0].set);
        let halfspace = Query::Halfspace { u: 0, v: 0, w: 0, inclusive: true };
        for (s, shard) in self.shards.iter().enumerate() {
            let found = kinds(&shard.set);
            if found != reference {
                return Err(format!(
                    "shard {s}: structure kinds {found:?} differ from shard 0's {reference:?}"
                ));
            }
            for slot in 0..shard.set.len() {
                let index = shard.set.structure(slot);
                let ids =
                    if index.supports(&halfspace) { shard.ids3.len() } else { shard.ids2.len() };
                let n = index.cost_hint().n;
                if n != ids as u64 {
                    return Err(format!(
                        "shard {s}: slot {slot} ({}) holds {n} points but its id map names {ids}",
                        index.name()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard's planner set (probe access for tests and tools).
    pub fn shard_set(&self, shard: usize) -> &IndexSet {
        &self.shards[shard].set
    }

    /// The shard's 2D region.
    pub fn region2(&self, shard: usize) -> &ShardRegion2 {
        &self.shards[shard].region2
    }

    /// The shard's 3D region.
    pub fn region3(&self, shard: usize) -> &ShardRegion3 {
        &self.shards[shard].region3
    }

    /// Points held by `shard` as `(2D count, 3D count)`.
    pub fn shard_sizes(&self, shard: usize) -> (usize, usize) {
        (self.shards[shard].ids2.len(), self.shards[shard].ids3.len())
    }

    /// Calibrate every shard's planner with the same measured probe pass
    /// (each shard fits its own constants over its own sub-dataset).
    pub fn calibrate(&mut self, probes: &[Query]) {
        for shard in &mut self.shards {
            shard.set.calibrate(probes);
        }
    }

    /// Freeze every owned shard device (no-op after
    /// [`Self::from_catalog`] — snapshot-backed devices are born frozen).
    /// Required before [`Self::save_to_catalog`] and for lock-free
    /// parallel reads.
    pub fn freeze(&self) {
        for dev in &self.devices {
            dev.freeze();
        }
    }

    /// Can any structure (in every shard — kinds are uniform) answer `q`?
    pub fn supports(&self, q: &Query) -> bool {
        let set = &self.shards[0].set;
        (0..set.len()).any(|slot| set.structure(slot).supports(q))
    }

    /// The pure routing predicate: the shards whose region can intersect
    /// `q`, ascending. Conservative with no false negatives — a shard
    /// holding a reported answer is always included (pinned by the
    /// property suite). k-NN queries fan out to every shard (any shard
    /// may hold one of the k nearest). With a single shard, routing is
    /// the identity (no pruning), so S=1 reproduces the unsharded
    /// planner's IO exactly.
    pub fn shards_intersecting(&self, q: &Query) -> Vec<usize> {
        if self.shards.len() == 1 {
            return vec![0];
        }
        match *q {
            Query::Halfplane { m, c, inclusive } => (0..self.shards.len())
                .filter(|&s| self.shards[s].region2.may_intersect_halfplane(m, c, inclusive))
                .collect(),
            Query::Halfspace { u, v, w, inclusive } => (0..self.shards.len())
                .filter(|&s| self.shards[s].region3.may_intersect_halfspace(u, v, w, inclusive))
                .collect(),
            Query::Knn { .. } => (0..self.shards.len()).collect(),
            // The derived 2D classes route by the same region geometry:
            // disks clamp the center to the shard box (exact carry-aware
            // distance), count/sum/top-k reduce to their halfplane
            // constraint (a shard with no point below y = m·x + c
            // contributes zero / no candidates).
            Query::Disk { x, y, r2, inclusive } => (0..self.shards.len())
                .filter(|&s| self.shards[s].region2.may_intersect_disk(x, y, r2, inclusive))
                .collect(),
            Query::Count { m, c, inclusive } | Query::Sum { m, c, inclusive } => {
                (0..self.shards.len())
                    .filter(|&s| self.shards[s].region2.may_intersect_halfplane(m, c, inclusive))
                    .collect()
            }
            Query::TopK { m, c, .. } => (0..self.shards.len())
                .filter(|&s| self.shards[s].region2.may_intersect_halfplane(m, c, true))
                .collect(),
        }
    }

    /// Fan-out of `q`: how many shards routing touches.
    pub fn fanout(&self, q: &Query) -> usize {
        self.shards_intersecting(q).len()
    }

    /// The fan-out-aware cost model: predicted reads for `q` is the sum
    /// over routed shards of the cheapest capable slot's calibrated cost
    /// inside that shard — (shards touched) × (per-shard `CostHint`
    /// cost). `f64::INFINITY` when no structure supports `q`; `0.0` when
    /// routing prunes every shard (the query provably has no answer and
    /// costs nothing).
    pub fn predicted_reads(&self, q: &Query) -> f64 {
        if !self.supports(q) {
            return f64::INFINITY;
        }
        self.shards_intersecting(q)
            .into_iter()
            .map(|s| {
                let set = &self.shards[s].set;
                (0..set.len())
                    .filter(|&slot| set.structure(slot).supports(q))
                    .map(|slot| set.cost(slot, q))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }

    /// Scatter-gather execution, every shard and every merge on the
    /// calling thread, one after another (the deterministic reference;
    /// [`Self::execute_parallel`] must match it bit-for-bit on answers and
    /// counts).
    pub fn execute(&self, queries: &[Query], keep_answers: bool) -> ShardedReport {
        self.run(queries, keep_answers, false, 1)
    }

    /// Scatter-gather execution on the engine's bounded pool: at most
    /// `min(active shards, available_parallelism)` threads, the calling
    /// thread one of them, claim the routed shards longest sub-batch
    /// first (ties by shard index), each shard's groups cut into up to
    /// `workers` executor chunks ([`IndexSet::execute_parallel_plan`]).
    /// The merge then runs on the same pool over contiguous query ranges,
    /// one per active shard, concatenated in submission order. Shards
    /// live on disjoint devices, so answers and every outcome, per-shard
    /// and aggregate IO count are identical to [`Self::execute`] (pinned
    /// by the suite); freeze first for lock-free reads.
    pub fn execute_parallel(
        &self,
        queries: &[Query],
        workers: usize,
        keep_answers: bool,
    ) -> ShardedReport {
        self.run(queries, keep_answers, true, workers)
    }

    fn run(
        &self,
        queries: &[Query],
        keep_answers: bool,
        concurrent: bool,
        workers: usize,
    ) -> ShardedReport {
        // Route. Each routed query records, per shard, its position in
        // that shard's sub-batch; unsupported classes (`None`) never reach
        // a shard.
        let mut subs: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let routes: Vec<Option<Vec<(usize, usize)>>> = queries
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                self.supports(q).then(|| {
                    self.shards_intersecting(q)
                        .into_iter()
                        .map(|s| {
                            subs[s].push(qi);
                            (s, subs[s].len() - 1)
                        })
                        .collect()
                })
            })
            .collect();
        let fanout: Vec<usize> = routes.iter().map(|r| r.as_ref().map_or(0, Vec::len)).collect();

        // Scatter: execute each non-empty sub-batch through the shard's
        // own planner, the longest sub-batch claimed first (ties by shard
        // index) so that a long shard never starts last. Answers are
        // always collected internally — the gather step needs them for id
        // translation and the k-NN merge.
        let mut active: Vec<usize> =
            (0..self.shards.len()).filter(|&s| !subs[s].is_empty()).collect();
        active.sort_by_key(|&s| (Reverse(subs[s].len()), s));
        let reports = each(concurrent, active.len(), |i| {
            let s = active[i];
            let set = &self.shards[s].set;
            let sub: Vec<Query> = subs[s].iter().map(|&qi| queries[qi]).collect();
            let plan = set.plan(&sub);
            assert_eq!(
                plan.unrouted(),
                0,
                "shard {s}: routed queries must be supported by the shard set"
            );
            set.execute_parallel_plan(&sub, &plan, workers, true)
        });

        // Each report filed under its shard, and per-shard totals ascending.
        let mut by_shard: Vec<Option<PlanReport>> = vec![None; self.shards.len()];
        for (&s, report) in active.iter().zip(reports) {
            by_shard[s] = Some(report);
        }
        let per_shard: Vec<ShardReport> = by_shard
            .iter()
            .enumerate()
            .filter_map(|(s, report)| {
                let io = report.as_ref()?.total;
                Some(ShardReport { shard: s, queries: subs[s].len(), io })
            })
            .collect();
        let total = per_shard.iter().map(|r| r.io).sum();

        // Gather over contiguous query ranges, one per active shard: the
        // merge grows with the shards that answered, and where shards
        // outnumber cores, ranges outnumber threads, so one heavy range
        // does not hold up the rest. Ranges concatenate back in
        // submission order.
        let ranges = even_ranges(queries.len(), active.len().max(1));
        let merged = each(concurrent, ranges.len(), |r| {
            self.gather(queries, &routes, &by_shard, ranges[r].clone(), keep_answers)
        });
        let mut outcomes = Vec::with_capacity(queries.len());
        let mut answers: Vec<Vec<u64>> =
            Vec::with_capacity(if keep_answers { queries.len() } else { 0 });
        for (range_outcomes, range_answers) in merged {
            outcomes.extend(range_outcomes);
            answers.extend(range_answers);
        }

        ShardedReport {
            outcomes,
            per_shard,
            total,
            answers: keep_answers.then_some(answers),
            fanout,
        }
    }

    /// The merged outcomes of the queries in `range`, and their answers
    /// when kept, in submission order. A query's routed (shard, position)
    /// pairs find its outcome and local answer in each shard's report.
    /// Deltas sum across the shards, and so do count/sum scalars: shards
    /// are disjoint, so the sums are exact.
    fn gather(
        &self,
        queries: &[Query],
        routes: &[Option<Vec<(usize, usize)>>],
        by_shard: &[Option<PlanReport>],
        range: Range<usize>,
        keep_answers: bool,
    ) -> (Vec<QueryOutcome>, Vec<Vec<u64>>) {
        let n2: usize = self.shards.iter().map(|s| s.ids2.len()).sum();
        let n3: usize = self.shards.iter().map(|s| s.ids3.len()).sum();
        let mut bitmap = vec![0u64; n2.max(n3).div_ceil(64)];
        let mut parts: Vec<(&Shard, &[u64])> = Vec::with_capacity(self.shards.len());
        let mut outcomes = Vec::with_capacity(range.len());
        let mut answers: Vec<Vec<u64>> =
            Vec::with_capacity(if keep_answers { range.len() } else { 0 });
        for qi in range {
            let Some(route) = &routes[qi] else {
                outcomes.push(QueryOutcome {
                    query: qi,
                    status: QueryStatus::Unsupported,
                    reported: 0,
                    io: IoDelta::default(),
                });
                if keep_answers {
                    answers.push(Vec::new());
                }
                continue;
            };
            let mut io = IoDelta::default();
            parts.clear();
            for &(s, pos) in route {
                let report = by_shard[s].as_ref().expect("a routed shard ran its sub-batch");
                let outcome = &report.outcomes[pos];
                assert_eq!(outcome.query, pos, "shard {s}: sub-batch outcomes out of order");
                assert_eq!(
                    outcome.status,
                    QueryStatus::Ok,
                    "shard {s}: a routed query must not be declined mid-merge"
                );
                io += outcome.io;
                let local = &report.answers.as_ref().expect("shard answers kept")[pos];
                parts.push((&self.shards[s], local));
            }
            // Canonical merge order, identical to the unsharded structures'
            // answer form: ascending global ids for reports; exact
            // (distance², id) for k-NN and (key, id) for top-k, truncated
            // to k; aggregates re-encode their summed scalars (zero when
            // routing pruned every shard).
            let ids = match queries[qi] {
                Query::Halfplane { .. } | Query::Disk { .. } => drain_sorted(
                    &mut bitmap[..n2.div_ceil(64)],
                    parts.iter().map(|&(sh, local)| (&sh.ids2[..], local)),
                ),
                Query::Halfspace { .. } => drain_sorted(
                    &mut bitmap[..n3.div_ceil(64)],
                    parts.iter().map(|&(sh, local)| (&sh.ids3[..], local)),
                ),
                Query::Knn { x, y, k } => rank(&parts, k, |(px, py)| dist2_carry(x, y, px, py)),
                // Each shard already filtered to key ≤ c.
                Query::TopK { m, k, .. } => {
                    rank(&parts, k, |(px, py)| py as i128 - m as i128 * px as i128)
                }
                Query::Count { .. } => vec![parts.iter().map(|(_, local)| local[0]).sum()],
                Query::Sum { .. } => {
                    encode_sum(parts.iter().map(|(_, local)| decode_sum(local)).sum())
                }
            };
            outcomes.push(QueryOutcome {
                query: qi,
                status: QueryStatus::Ok,
                reported: ids.len(),
                io,
            });
            if keep_answers {
                answers.push(ids);
            }
        }
        (outcomes, answers)
    }

    /// Where a sharded catalog keeps its manifest.
    pub fn manifest_path(dir: impl AsRef<Path>) -> PathBuf {
        dir.as_ref().join(SHARD_MANIFEST)
    }

    /// Persist the whole sharded set under `dir`: one
    /// [`SnapshotCatalog`] per shard in `dir/shard<i>/` (each with its
    /// own calibration file) plus the shard manifest `__shards.meta`
    /// (regions, id maps, per-shard points). Devices must be frozen
    /// ([`Self::freeze`]).
    pub fn save_to_catalog(&self, dir: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        for (s, shard) in self.shards.iter().enumerate() {
            let mut cat = SnapshotCatalog::create(dir.join(format!("shard{s}")))?;
            for slot in 0..shard.set.len() {
                cat.add(&format!("s{slot}"), shard.set.structure(slot))?;
            }
            shard.set.save_calibration_to_catalog(&cat)?;
        }
        let mut w = MetaWriter::new();
        w.str(MANIFEST_MAGIC);
        w.u64(MANIFEST_VERSION);
        w.usize(self.shards.len());
        self.partition2_view().save(&mut w);
        self.partition3_view().save(&mut w);
        for shard in &self.shards {
            w.seq(shard.pts2.len());
            for &(x, y) in &shard.pts2 {
                w.i64(x);
                w.i64(y);
            }
        }
        w.write_to_path(&Self::manifest_path(dir))
    }

    /// Reopen a sharded catalog cold: every shard's sub-catalog (fresh
    /// file-backed devices, persisted calibration auto-loaded) plus the
    /// manifest's regions and id maps. Answers, plans, and read-IO
    /// counts are bit-identical to the in-memory original (pinned by the
    /// differential suite). A shard whose structures hold other kinds than
    /// shard 0's, or other point counts than the manifest's id maps give
    /// it, is a typed [`SnapshotError::Meta`].
    pub fn from_catalog(
        dir: impl AsRef<Path>,
        cache_pages: usize,
    ) -> Result<ShardedIndexSet, SnapshotError> {
        let dir = dir.as_ref();
        let mut r = MetaReader::open(&Self::manifest_path(dir))?;
        let magic = r.str()?;
        if magic != MANIFEST_MAGIC {
            return Err(r.error(format!("not a shard manifest (magic {magic:?})")));
        }
        let version = r.u64()?;
        if version != MANIFEST_VERSION {
            return Err(r.error(format!("unsupported shard manifest version {version}")));
        }
        let shards = r.usize()?;
        if shards == 0 {
            return Err(r.error("shard manifest with zero shards"));
        }
        let p2 = Partition2::load(&mut r)?;
        let p3 = Partition3::load(&mut r)?;
        if p2.groups.len() != shards || p3.groups.len() != shards {
            return Err(r.error(format!(
                "shard manifest claims {shards} shards but partitions hold {} / {}",
                p2.groups.len(),
                p3.groups.len()
            )));
        }
        let mut all_pts2 = Vec::with_capacity(shards);
        for (s, group) in p2.groups.iter().enumerate() {
            let n = r.seq()?;
            if n != group.len() {
                return Err(r.error(format!(
                    "shard {s}: manifest holds {n} points for a {}-point group",
                    group.len()
                )));
            }
            let mut pts = Vec::with_capacity(n);
            for _ in 0..n {
                pts.push((r.i64()?, r.i64()?));
            }
            all_pts2.push(pts);
        }
        r.finish()?;

        let mut loaded = Vec::with_capacity(shards);
        for (s, pts2) in all_pts2.into_iter().enumerate() {
            let cat = SnapshotCatalog::open(dir.join(format!("shard{s}")))?;
            let set = IndexSet::from_catalog(&cat, cache_pages)?;
            loaded.push(Shard {
                set,
                region2: p2.regions[s].clone(),
                region3: p3.regions[s].clone(),
                ids2: p2.groups[s].clone(),
                pts2,
                ids3: p3.groups[s].clone(),
            });
        }
        let sharded = ShardedIndexSet { shards: loaded, devices: Vec::new() };
        sharded.check_shards().map_err(|detail| r.error(detail))?;
        Ok(sharded)
    }

    fn partition2_view(&self) -> Partition2 {
        Partition2 {
            groups: self.shards.iter().map(|s| s.ids2.clone()).collect(),
            regions: self.shards.iter().map(|s| s.region2.clone()).collect(),
        }
    }

    fn partition3_view(&self) -> Partition3 {
        Partition3 {
            groups: self.shards.iter().map(|s| s.ids3.clone()).collect(),
            regions: self.shards.iter().map(|s| s.region3.clone()).collect(),
        }
    }
}

/// `f(0)..f(n)` in index order: on the engine's bounded pool when
/// `concurrent`, else one after another on the calling thread.
fn each<R: Send>(concurrent: bool, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if concurrent {
        fan_out(n, f)
    } else {
        (0..n).map(f).collect()
    }
}

/// The ascending union of global ids: sets bit `ids[l]` in `bitmap` (all
/// zero, one bit per global id) for every local id `l` of every part, then
/// drains it in order, clearing each word as it goes — O(t + N/64) for t
/// ids out of N. Shards are disjoint, so the drain yields exactly t ids.
fn drain_sorted<'a>(
    bitmap: &mut [u64],
    parts: impl Iterator<Item = (&'a [u32], &'a [u64])>,
) -> Vec<u64> {
    let mut t = 0;
    for (ids, local) in parts {
        t += local.len();
        for &l in local {
            let gid = ids[l as usize] as usize;
            bitmap[gid / 64] |= 1 << (gid % 64);
        }
    }
    let mut out = Vec::with_capacity(t);
    for (w, word) in bitmap.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            out.push(64 * w as u64 + u64::from(bits.trailing_zeros()));
            bits &= bits - 1;
        }
    }
    assert_eq!(out.len(), t, "disjoint shards report every global id at most once");
    out
}

/// The global ids of the `k` least `(key, id)` candidates, in that order,
/// each keyed from its shard's own copy of the point.
fn rank<K: Ord>(parts: &[(&Shard, &[u64])], k: usize, key: impl Fn((i64, i64)) -> K) -> Vec<u64> {
    let key = &key;
    let mut ranked: Vec<(K, u64)> = parts
        .iter()
        .flat_map(|&(shard, local)| {
            local
                .iter()
                .map(move |&l| (key(shard.pts2[l as usize]), u64::from(shard.ids2[l as usize])))
        })
        .collect();
    ranked.sort_unstable();
    ranked.into_iter().take(k).map(|(_, id)| id).collect()
}
