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
//!   another or, with [`ShardedIndexSet::execute_parallel`], each active
//!   shard on its own OS thread (a lone active shard stays on the calling
//!   thread) and the executor's chunks *within* each shard — shards live
//!   on disjoint devices, so concurrency never changes counts.
//! * **Merge** — per-shard answers translate back to global ids and
//!   merge to the canonical order (sorted ids for reports; `(distance,
//!   id)` for k-NN and `(key, id)` for top-k, recomputed exactly in
//!   `i128` and truncated to `k`; count/sum scalars summed across the
//!   disjoint shards — zero-synthesized when routing pruned every
//!   shard), and per-shard [`IoDelta`]s sum *exactly* to the aggregate
//!   (each is a sum of the executor's runtime-checked chunk totals).
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

use std::path::{Path, PathBuf};

use lcrs_extmem::{
    Device, DeviceConfig, DeviceHandle, IoDelta, MetaReader, MetaWriter, ReopenBackend,
    SnapshotError,
};
use lcrs_halfspace::partition::{partition2, partition3, Partition2, Partition3};
use lcrs_halfspace::{ShardRegion2, ShardRegion3};

use crate::batch::{fan_out, QueryOutcome, QueryStatus};
use crate::catalog::SnapshotCatalog;
use crate::planner::{IndexSet, PlanReport};
use crate::query::Query;

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
    /// The shard's 2D points in local-id order (the k-NN merge recomputes
    /// exact distances from these).
    pts2: Vec<(i64, i64)>,
    /// Local id → global id for the 3D structures.
    ids3: Vec<u32>,
}

/// IO accounting of one shard's routed sub-batch.
#[derive(Debug, Clone, Copy)]
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
    /// Merged answers in submission order, already canonical: sorted
    /// global ids for reports, `(distance, id)` order for k-NN.
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
    /// same slot order (asserted).
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
        sharded.assert_uniform_kinds();
        sharded
    }

    /// Every shard must hold the same structure kinds in the same slot
    /// order — the contract that makes per-class support uniform across
    /// shards (a query is answerable by all routed shards or by none).
    fn assert_uniform_kinds(&self) {
        let reference: Vec<&str> =
            (0..self.shards[0].set.len()).map(|i| self.shards[0].set.structure(i).name()).collect();
        for (s, shard) in self.shards.iter().enumerate() {
            let kinds: Vec<&str> =
                (0..shard.set.len()).map(|i| shard.set.structure(i).name()).collect();
            assert_eq!(kinds, reference, "shard {s}: structure kinds must match shard 0");
        }
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

    /// Scatter-gather execution, shards sequentially in index order (the
    /// deterministic reference; [`Self::execute_parallel`] must match it
    /// bit-for-bit on answers and counts).
    pub fn execute(&self, queries: &[Query], keep_answers: bool) -> ShardedReport {
        self.run(queries, keep_answers, false, 1)
    }

    /// Scatter-gather execution with every routed shard on its own OS
    /// thread (a lone routed shard runs on the calling thread), each
    /// shard's groups cut into up to `workers` executor chunks
    /// ([`IndexSet::execute_parallel_plan`]). Shards live on disjoint
    /// devices, so answers and IO counts are identical to
    /// [`Self::execute`] (pinned by the suite); freeze first for
    /// lock-free reads.
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
        // Route. Unsupported query classes never reach a shard.
        let routes: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| if self.supports(q) { self.shards_intersecting(q) } else { Vec::new() })
            .collect();
        let fanout: Vec<usize> = routes.iter().map(Vec::len).collect();
        let mut subs: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (qi, route) in routes.iter().enumerate() {
            for &s in route {
                subs[s].push(qi);
            }
        }

        // Scatter: execute each non-empty sub-batch through the shard's
        // own planner. Answers are always collected internally — the
        // gather step needs them for id translation and the k-NN merge.
        let exec = |s: usize| -> PlanReport {
            let set = &self.shards[s].set;
            let sub: Vec<Query> = subs[s].iter().map(|&qi| queries[qi]).collect();
            let plan = set.plan(&sub);
            assert_eq!(
                plan.unrouted(),
                0,
                "shard {s}: routed queries must be supported by the shard set"
            );
            set.execute_parallel_plan(&sub, &plan, workers, true)
        };
        let active: Vec<usize> = (0..self.shards.len()).filter(|&s| !subs[s].is_empty()).collect();
        let reports: Vec<PlanReport> = if concurrent {
            fan_out(active.len(), |i| exec(active[i]))
        } else {
            active.iter().map(|&s| exec(s)).collect()
        };

        // Gather: merge per-shard outcomes and answers back into
        // submission order, summing a query's deltas across its shards.
        // Report classes accumulate id candidates for the canonical
        // merge; aggregate classes (count/sum) merge by *summing* the
        // per-shard scalars — shards are disjoint, so the sums are exact.
        let mut io: Vec<IoDelta> = vec![IoDelta::default(); queries.len()];
        let mut candidates: Vec<Vec<u64>> = vec![Vec::new(); queries.len()];
        let mut agg_count: Vec<u64> = vec![0; queries.len()];
        let mut agg_sum: Vec<i128> = vec![0; queries.len()];
        let mut per_shard = Vec::with_capacity(reports.len());
        let mut total = IoDelta::default();
        for (&s, report) in active.iter().zip(&reports) {
            let shard = &self.shards[s];
            let answers = report.answers.as_ref().expect("shard answers kept");
            for outcome in &report.outcomes {
                let qi = subs[s][outcome.query];
                assert_eq!(
                    outcome.status,
                    QueryStatus::Ok,
                    "shard {s}: a routed query must not be declined mid-merge"
                );
                io[qi] += outcome.io;
                let local = &answers[outcome.query];
                match queries[qi] {
                    Query::Count { .. } => agg_count[qi] += local[0],
                    Query::Sum { .. } => agg_sum[qi] += crate::query::decode_sum(local),
                    Query::Halfspace { .. } => {
                        candidates[qi].extend(local.iter().map(|&l| shard.ids3[l as usize] as u64))
                    }
                    Query::Halfplane { .. }
                    | Query::Knn { .. }
                    | Query::Disk { .. }
                    | Query::TopK { .. } => {
                        candidates[qi].extend(local.iter().map(|&l| shard.ids2[l as usize] as u64))
                    }
                }
            }
            per_shard.push(ShardReport { shard: s, queries: subs[s].len(), io: report.total });
            total += report.total;
        }

        // Canonical merge order: sorted global ids for reports; exact
        // (distance², id) for k-NN and (key, id) for top-k, truncated to
        // k; aggregates re-encode their summed scalars — identical to
        // the unsharded structures' canonical answer form. A supported
        // aggregate whose every shard was pruned still answers (zero).
        let mut outcomes = Vec::with_capacity(queries.len());
        let mut answers: Vec<Vec<u64>> =
            if keep_answers { vec![Vec::new(); queries.len()] } else { Vec::new() };
        for (qi, q) in queries.iter().enumerate() {
            let mut ids = std::mem::take(&mut candidates[qi]);
            match *q {
                Query::Knn { x, y, k } => {
                    let mut ranked: Vec<(i128, u64)> = ids
                        .iter()
                        .map(|&gid| {
                            let shard_local = self.locate2(gid as u32);
                            let (px, py) = shard_local;
                            let (dx, dy) = (x as i128 - px as i128, y as i128 - py as i128);
                            (dx * dx + dy * dy, gid)
                        })
                        .collect();
                    ranked.sort_unstable();
                    ids = ranked.into_iter().take(k).map(|(_, gid)| gid).collect();
                }
                Query::TopK { m, c: _, k } => {
                    // Each shard already filtered to key ≤ c; re-rank the
                    // union by the exact key and truncate, like k-NN.
                    let mut ranked: Vec<(i128, u64)> = ids
                        .iter()
                        .map(|&gid| {
                            let (px, py) = self.locate2(gid as u32);
                            (py as i128 - m as i128 * px as i128, gid)
                        })
                        .collect();
                    ranked.sort_unstable();
                    ids = ranked.into_iter().take(k).map(|(_, gid)| gid).collect();
                }
                Query::Count { .. } if self.supports(q) => ids = vec![agg_count[qi]],
                Query::Sum { .. } if self.supports(q) => {
                    ids = crate::query::encode_sum(agg_sum[qi])
                }
                _ => ids.sort_unstable(),
            }
            let status = if routes[qi].is_empty() && !self.supports(q) {
                QueryStatus::Unsupported
            } else {
                QueryStatus::Ok
            };
            outcomes.push(QueryOutcome { query: qi, status, reported: ids.len(), io: io[qi] });
            if keep_answers {
                answers[qi] = ids;
            }
        }

        ShardedReport {
            outcomes,
            per_shard,
            total,
            answers: keep_answers.then_some(answers),
            fanout,
        }
    }

    /// The 2D coordinates of global id `gid` (k-NN merge support).
    fn locate2(&self, gid: u32) -> (i64, i64) {
        for shard in &self.shards {
            if let Ok(pos) = shard.ids2.binary_search(&gid) {
                return shard.pts2[pos];
            }
        }
        panic!("global 2D id {gid} not held by any shard");
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
    /// differential suite).
    pub fn from_catalog(
        dir: impl AsRef<Path>,
        cache_pages: usize,
    ) -> Result<ShardedIndexSet, SnapshotError> {
        Self::from_catalog_as(dir, cache_pages, ReopenBackend::Pread)
    }

    /// [`Self::from_catalog`] with an explicit storage backend for every
    /// shard's reopened devices ([`ReopenBackend::Mmap`] for zero-copy
    /// serving) — the same guarantees, backend choice plumbed through
    /// every sub-catalog.
    pub fn from_catalog_as(
        dir: impl AsRef<Path>,
        cache_pages: usize,
        backend: ReopenBackend,
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
            let set = IndexSet::from_catalog_as(&cat, cache_pages, backend)?;
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
        sharded.assert_uniform_kinds();
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
