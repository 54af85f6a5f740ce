//! The unified query interface: [`Query`] values and the [`RangeIndex`]
//! trait implemented by every structure in the workspace.

use lcrs_baselines::{ExternalKdTree, ExternalScan, ExternalScan3, StrRTree};
use lcrs_extmem::{DeviceHandle, IoDelta, MetaReader, MetaWriter, SnapshotError};
use lcrs_geom::point::HyperplaneD;
use lcrs_halfspace::cost::{CostHint, CostShape};
use lcrs_halfspace::{
    DynamicHalfspace2, HalfspaceRS2, HalfspaceRS3, HybridTree3, PartitionTree, ShallowTree3,
};

/// A structure-agnostic query.
///
/// Seven query classes share one answer channel (`Vec<u64>` of ids or
/// encoded scalars — see each variant). Coordinates follow the
/// conventions of the underlying structures: 2D halfplanes are
/// `y <= m·x + c`, 3D halfspaces are `z <= u·x + v·y + w` (strict unless
/// `inclusive`). Three classes are *derived* — answered by existing
/// structures without any new index:
///
/// * [`Query::Disk`] reduces to a 3D halfspace over paraboloid-lifted
///   points ([`lcrs_geom::lift`], served by [`crate::LiftedIndex`]);
/// * [`Query::Count`] / [`Query::Sum`] ride annotated canonical nodes
///   (subtree counts and weight sums, weight = `x + y`) so covered nodes
///   answer without enumerating leaves;
/// * [`Query::TopK`] ranks the halfplane candidates by `y − m·x`, the
///   dual-line value the 2D walk computes anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Points below the line `y = m·x + c` (2D structures). Answer: ids.
    Halfplane { m: i64, c: i64, inclusive: bool },
    /// Points below the plane `z = u·x + v·y + w` (3D structures).
    /// Answer: ids.
    Halfspace { u: i64, v: i64, w: i64, inclusive: bool },
    /// The `k` nearest neighbors of `(x, y)` (the lifted `knn` kind of
    /// [`crate::LiftedIndex`] and the 2D scan). Answer: ids, closest first
    /// (ties by id) — order matters.
    Knn { x: i64, y: i64, k: usize },
    /// Points within squared distance `r2` of `(x, y)` (circular range
    /// reporting via the lift — DESIGN.md §15). `r2 < 0` is an empty
    /// disk. Answer: ids.
    Disk { x: i64, y: i64, r2: i64, inclusive: bool },
    /// How many points lie below `y = m·x + c`. Answer: `vec![count]`.
    Count { m: i64, c: i64, inclusive: bool },
    /// Exact `Σ (x + y)` over points below `y = m·x + c`, an `i128`.
    /// Answer: two words — see [`encode_sum`] / [`decode_sum`].
    Sum { m: i64, c: i64, inclusive: bool },
    /// The `k` points with the lowest key `y − m·x` among those with
    /// key ≤ `c` (always inclusive). Answer: ids ordered by
    /// `(key, id)` — order matters, like [`Query::Knn`].
    TopK { m: i64, c: i64, k: usize },
}

impl Query {
    /// Sort key for page locality: nearby keys tend to touch the same
    /// pages. Halfplanes and their derived classes (count/sum/top-k) map
    /// to their dual point `(m, c)` — queries with close duals cross the
    /// same levels of the 2D structure; halfspaces, disks, and k-NN
    /// queries sort by their region of interest.
    pub fn locality_key(&self) -> [i64; 3] {
        match *self {
            Query::Halfplane { m, c, .. } => [m, c, 0],
            Query::Halfspace { u, v, w, .. } => [u, v, w],
            Query::Knn { x, y, k } => [x, y, k as i64],
            Query::Disk { x, y, r2, .. } => [x, y, r2],
            Query::Count { m, c, .. } => [m, c, 1],
            Query::Sum { m, c, .. } => [m, c, 2],
            Query::TopK { m, c, k } => [m, c, k as i64],
        }
    }

    /// The query's class, which calibration fits one constant per.
    pub fn class(&self) -> QueryClass {
        match self {
            Query::Halfplane { .. } => QueryClass::Halfplane,
            Query::Halfspace { .. } => QueryClass::Halfspace,
            Query::Knn { .. } => QueryClass::Knn,
            Query::Disk { .. } => QueryClass::Disk,
            Query::Count { .. } => QueryClass::Count,
            Query::Sum { .. } => QueryClass::Sum,
            Query::TopK { .. } => QueryClass::TopK,
        }
    }

    /// `true` for the scalar-answer classes ([`Query::Count`] /
    /// [`Query::Sum`]): their answers are aggregates, not id reports, so
    /// sharded execution merges them by summing.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, Query::Count { .. } | Query::Sum { .. })
    }

    /// `true` when the answer's *order* is part of the contract
    /// ([`Query::Knn`] distance-ranked, [`Query::TopK`] key-ranked):
    /// comparing or merging such answers must never sort them by id.
    pub fn is_ranked(&self) -> bool {
        matches!(self, Query::Knn { .. } | Query::TopK { .. })
    }
}

/// The seven [`Query`] classes, in the fixed order of [`Self::ALL`] that
/// calibration tables and reports use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    Halfplane,
    Halfspace,
    Knn,
    Disk,
    Count,
    Sum,
    TopK,
}

impl QueryClass {
    /// Every class, in order: `ALL[c as usize] == c`.
    pub const ALL: [QueryClass; 7] = [
        QueryClass::Halfplane,
        QueryClass::Halfspace,
        QueryClass::Knn,
        QueryClass::Disk,
        QueryClass::Count,
        QueryClass::Sum,
        QueryClass::TopK,
    ];

    /// Lower-case name for tables and report cells.
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Halfplane => "halfplane",
            QueryClass::Halfspace => "halfspace",
            QueryClass::Knn => "knn",
            QueryClass::Disk => "disk",
            QueryClass::Count => "count",
            QueryClass::Sum => "sum",
            QueryClass::TopK => "topk",
        }
    }
}

/// Encode an exact `i128` weight sum into the `Vec<u64>` answer channel:
/// `[low 64 bits, high 64 bits]`. [`decode_sum`] inverts this.
pub fn encode_sum(s: i128) -> Vec<u64> {
    vec![s as u64, (s >> 64) as u64]
}

/// Decode a [`Query::Sum`] answer produced by [`encode_sum`].
pub fn decode_sum(ans: &[u64]) -> i128 {
    assert_eq!(ans.len(), 2, "a Sum answer is exactly two words");
    ((ans[1] as i64 as i128) << 64) | ans[0] as i128
}

/// A query an index cannot answer (wrong query class for the structure).
///
/// Returned by [`RangeIndex::try_execute`] so batch executors can record a
/// per-query [`crate::QueryStatus::Unsupported`] outcome and keep going
/// instead of aborting the whole batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unsupported {
    /// [`RangeIndex::name`] of the index that rejected the query.
    pub index: &'static str,
    /// The rejected query.
    pub query: Query,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} does not support {:?}", self.index, self.query)
    }
}

impl std::error::Error for Unsupported {}

/// A queryable index living on a device.
///
/// `try_execute` answers one [`Query`] and returns the reported ids (input
/// indices, or caller tags for [`DynamicHalfspace2`]), widened to `u64`,
/// or [`Unsupported`] when the index cannot answer that query class.
/// `execute_measured` runs the call inside [`DeviceHandle::measure`] so
/// each query gets exact [`IoDelta`] attribution — the primitive the
/// [`crate::BatchExecutor`] builds on. The structures count nothing
/// themselves: this one bracket on the scope that paid the IOs is the
/// only meter.
///
/// The `Send + Sync` supertraits are what lets the [`crate::BatchExecutor`]
/// share an index across worker threads; they hold for every structure in
/// the workspace because all device state lives behind [`DeviceHandle`]s.
/// `fork_reader` is the other half of that story: it clones the index onto
/// a fresh handle scope (own LRU, zeroed stats, same pages), giving each
/// worker deterministic, exactly-attributable IO counts.
pub trait RangeIndex: Send + Sync {
    /// Short structure name for reports and tables.
    fn name(&self) -> &'static str;

    /// The device handle the structure reads through (all its IOs flow
    /// through this scope).
    fn device(&self) -> &DeviceHandle;

    /// Can this index answer `q` at all?
    fn supports(&self, q: &Query) -> bool;

    /// The structure's self-reported asymptotic query bound (DESIGN.md
    /// §10) — the shape the [`crate::IndexSet`] planner's cost model is
    /// seeded from before calibration fits one constant per query class.
    fn cost_hint(&self) -> CostHint;

    /// Answer `q`, returning reported ids, or [`Unsupported`] when
    /// `!self.supports(q)`.
    fn try_execute(&self, q: &Query) -> Result<Vec<u64>, Unsupported>;

    /// Answer `q`, returning reported ids. Panics if `!self.supports(q)`;
    /// use [`Self::try_execute`] to keep a batch alive instead.
    fn execute(&self, q: &Query) -> Vec<u64> {
        self.try_execute(q).unwrap_or_else(|e| panic!("{e} (check RangeIndex::supports first)"))
    }

    /// [`Self::try_execute`] with exact IO attribution:
    /// [`DeviceHandle::measure`] around the call.
    fn try_execute_measured(&self, q: &Query) -> (Result<Vec<u64>, Unsupported>, IoDelta) {
        self.device().measure(|| self.try_execute(q))
    }

    /// [`Self::execute`] with exact IO attribution:
    /// [`DeviceHandle::measure`] around the call.
    fn execute_measured(&self, q: &Query) -> (Vec<u64>, IoDelta) {
        self.device().measure(|| self.execute(q))
    }

    /// A reader clone of this index on a fresh device-handle scope (its own
    /// cache and stats) over the same pages, for one parallel worker.
    fn fork_reader(&self) -> Box<dyn RangeIndex>;

    /// Serialize this index's host-side metadata (roots, fanouts,
    /// partition tables — recursively through nested sub-structures); the
    /// page data is captured separately by
    /// [`lcrs_extmem::Device::freeze_to_path`]. [`load_index`] re-creates
    /// the index from [`Self::name`] plus these bytes — the dispatch the
    /// [`crate::SnapshotCatalog`] is built on.
    fn save_meta(&self, w: &mut MetaWriter);
}

/// Reconstruct an index persisted through [`RangeIndex::save_meta`] from
/// its [`RangeIndex::name`], reading pages through `h` (typically the
/// primary handle of a [`lcrs_extmem::Device::open_snapshot`] device).
pub fn load_index(
    kind: &str,
    h: &DeviceHandle,
    r: &mut MetaReader,
) -> Result<Box<dyn RangeIndex>, SnapshotError> {
    Ok(match kind {
        "hs2d" => Box::new(HalfspaceRS2::load(h, r)?),
        "dynamic" => Box::new(DynamicHalfspace2::load(h, r)?),
        "live-level" => Box::new(crate::live::LiveLevel::load(h, r)?),
        "ptree" => Box::new(PartitionTree::<2>::load(h, r)?),
        "hs3d" => Box::new(HalfspaceRS3::load(h, r)?),
        "tradeoff-hybrid" => Box::new(HybridTree3::load(h, r)?),
        "tradeoff-shallow" => Box::new(ShallowTree3::load(h, r)?),
        "scan" => Box::new(ExternalScan::load(h, r)?),
        "scan3" => Box::new(ExternalScan3::load(h, r)?),
        "kdtree" => Box::new(ExternalKdTree::load(h, r)?),
        "rtree" => Box::new(StrRTree::load(h, r)?),
        "knn" => Box::new(crate::lift::LiftedIndex::load(h, r)?),
        other => {
            return Err(SnapshotError::Meta {
                offset: 0,
                detail: format!("unknown index kind {other:?}"),
            })
        }
    })
}

fn widen(v: Vec<u32>) -> Vec<u64> {
    v.into_iter().map(u64::from).collect()
}

pub(crate) fn unsupported(name: &'static str, q: &Query) -> Result<Vec<u64>, Unsupported> {
    Err(Unsupported { index: name, query: *q })
}

impl RangeIndex for HalfspaceRS2 {
    fn name(&self) -> &'static str {
        "hs2d"
    }

    fn device(&self) -> &DeviceHandle {
        HalfspaceRS2::device(self)
    }

    fn supports(&self, q: &Query) -> bool {
        matches!(
            q,
            Query::Halfplane { .. } | Query::Count { .. } | Query::Sum { .. } | Query::TopK { .. }
        )
    }

    fn cost_hint(&self) -> CostHint {
        HalfspaceRS2::cost_hint(self)
    }

    fn try_execute(&self, q: &Query) -> Result<Vec<u64>, Unsupported> {
        match *q {
            Query::Halfplane { m, c, inclusive } => Ok(widen(self.query_below(m, c, inclusive))),
            Query::Count { m, c, inclusive } => Ok(vec![self.aggregate_below(m, c, inclusive).0]),
            Query::Sum { m, c, inclusive } => {
                Ok(encode_sum(self.aggregate_below(m, c, inclusive).1))
            }
            Query::TopK { m, c, k } => Ok(widen(self.top_k(m, c, k))),
            _ => unsupported(RangeIndex::name(self), q),
        }
    }

    fn fork_reader(&self) -> Box<dyn RangeIndex> {
        Box::new(HalfspaceRS2::fork_reader(self))
    }

    fn save_meta(&self, w: &mut MetaWriter) {
        HalfspaceRS2::save(self, w)
    }
}

impl RangeIndex for DynamicHalfspace2 {
    fn name(&self) -> &'static str {
        "dynamic"
    }

    fn device(&self) -> &DeviceHandle {
        DynamicHalfspace2::device(self)
    }

    /// The one dispatch of the leveled core, which [`crate::LiveIndex`]
    /// forwards to as well. Besides halfplanes it answers every 2D-derived
    /// class (aggregates, top-k, disks for arbitrary centers) by exact
    /// host-side enumeration of its catalog state — the mutable tier
    /// favors exactness over IO wins.
    fn supports(&self, q: &Query) -> bool {
        matches!(
            q,
            Query::Halfplane { .. }
                | Query::Count { .. }
                | Query::Sum { .. }
                | Query::TopK { .. }
                | Query::Disk { .. }
        )
    }

    fn cost_hint(&self) -> CostHint {
        DynamicHalfspace2::cost_hint(self)
    }

    fn try_execute(&self, q: &Query) -> Result<Vec<u64>, Unsupported> {
        match *q {
            Query::Halfplane { m, c, inclusive } => Ok(self.query_below(m, c, inclusive)),
            Query::Count { m, c, inclusive } => Ok(vec![self.aggregate_below(m, c, inclusive).0]),
            Query::Sum { m, c, inclusive } => {
                Ok(encode_sum(self.aggregate_below(m, c, inclusive).1))
            }
            Query::TopK { m, c, k } => Ok(self.top_k(m, c, k)),
            Query::Disk { x, y, r2, inclusive } => Ok(self.disk_report(x, y, r2, inclusive)),
            _ => unsupported(RangeIndex::name(self), q),
        }
    }

    fn fork_reader(&self) -> Box<dyn RangeIndex> {
        Box::new(DynamicHalfspace2::fork_reader(self))
    }

    fn save_meta(&self, w: &mut MetaWriter) {
        DynamicHalfspace2::save(self, w)
    }
}

impl RangeIndex for PartitionTree<2> {
    fn name(&self) -> &'static str {
        "ptree"
    }

    fn device(&self) -> &DeviceHandle {
        PartitionTree::device(self)
    }

    fn supports(&self, q: &Query) -> bool {
        matches!(q, Query::Halfplane { .. })
    }

    fn cost_hint(&self) -> CostHint {
        PartitionTree::cost_hint(self)
    }

    fn try_execute(&self, q: &Query) -> Result<Vec<u64>, Unsupported> {
        match *q {
            Query::Halfplane { m, c, inclusive } => {
                // y <= m·x + c as the 2D hyperplane [a0, a1] = [c, m].
                let h: HyperplaneD<2> = HyperplaneD::new([c, m]);
                Ok(widen(self.query_halfspace(&h, inclusive)))
            }
            _ => unsupported(RangeIndex::name(self), q),
        }
    }

    fn fork_reader(&self) -> Box<dyn RangeIndex> {
        Box::new(PartitionTree::fork_reader(self))
    }

    fn save_meta(&self, w: &mut MetaWriter) {
        PartitionTree::save(self, w)
    }
}

impl RangeIndex for HalfspaceRS3 {
    fn name(&self) -> &'static str {
        "hs3d"
    }

    fn device(&self) -> &DeviceHandle {
        HalfspaceRS3::device(self)
    }

    fn supports(&self, q: &Query) -> bool {
        matches!(q, Query::Halfspace { .. })
    }

    fn cost_hint(&self) -> CostHint {
        HalfspaceRS3::cost_hint(self)
    }

    fn try_execute(&self, q: &Query) -> Result<Vec<u64>, Unsupported> {
        match *q {
            Query::Halfspace { u, v, w, inclusive } => {
                Ok(widen(self.query_below(u, v, w, inclusive)))
            }
            _ => unsupported(RangeIndex::name(self), q),
        }
    }

    fn fork_reader(&self) -> Box<dyn RangeIndex> {
        Box::new(HalfspaceRS3::fork_reader(self))
    }

    fn save_meta(&self, w: &mut MetaWriter) {
        HalfspaceRS3::save(self, w)
    }
}

impl RangeIndex for HybridTree3 {
    fn name(&self) -> &'static str {
        "tradeoff-hybrid"
    }

    fn device(&self) -> &DeviceHandle {
        HybridTree3::device(self)
    }

    fn supports(&self, q: &Query) -> bool {
        matches!(q, Query::Halfspace { .. })
    }

    fn cost_hint(&self) -> CostHint {
        HybridTree3::cost_hint(self)
    }

    fn try_execute(&self, q: &Query) -> Result<Vec<u64>, Unsupported> {
        match *q {
            Query::Halfspace { u, v, w, inclusive } => {
                Ok(widen(self.query_below(u, v, w, inclusive)))
            }
            _ => unsupported(RangeIndex::name(self), q),
        }
    }

    fn fork_reader(&self) -> Box<dyn RangeIndex> {
        Box::new(HybridTree3::fork_reader(self))
    }

    fn save_meta(&self, w: &mut MetaWriter) {
        HybridTree3::save(self, w)
    }
}

impl RangeIndex for ShallowTree3 {
    fn name(&self) -> &'static str {
        "tradeoff-shallow"
    }

    fn device(&self) -> &DeviceHandle {
        ShallowTree3::device(self)
    }

    fn supports(&self, q: &Query) -> bool {
        matches!(q, Query::Halfspace { .. })
    }

    fn cost_hint(&self) -> CostHint {
        ShallowTree3::cost_hint(self)
    }

    fn try_execute(&self, q: &Query) -> Result<Vec<u64>, Unsupported> {
        match *q {
            Query::Halfspace { u, v, w, inclusive } => {
                Ok(widen(self.query_below(u, v, w, inclusive)))
            }
            _ => unsupported(RangeIndex::name(self), q),
        }
    }

    fn fork_reader(&self) -> Box<dyn RangeIndex> {
        Box::new(ShallowTree3::fork_reader(self))
    }

    fn save_meta(&self, w: &mut MetaWriter) {
        ShallowTree3::save(self, w)
    }
}

impl RangeIndex for ExternalScan {
    fn name(&self) -> &'static str {
        "scan"
    }

    fn device(&self) -> &DeviceHandle {
        ExternalScan::device(self)
    }

    /// A 2D scan can answer anything computable from its points — every
    /// query class except 3D halfspaces, at Θ(n/B) IOs. In particular it
    /// is the only structure answering [`Query::Disk`] for *arbitrary*
    /// centers (exact carry-aware `u128` distances), so every disk query
    /// has at least one capable structure in a full index set.
    fn supports(&self, q: &Query) -> bool {
        !matches!(q, Query::Halfspace { .. })
    }

    fn cost_hint(&self) -> CostHint {
        CostHint::new(CostShape::Scan { data_pages: self.data_pages() }, self.len())
    }

    fn try_execute(&self, q: &Query) -> Result<Vec<u64>, Unsupported> {
        match *q {
            Query::Halfplane { m, c, inclusive } => Ok(widen(self.query_below(m, c, inclusive))),
            Query::Knn { x, y, k } => Ok(widen(self.k_nearest(x, y, k))),
            Query::Disk { x, y, r2, inclusive } => Ok(widen(self.disk_report(x, y, r2, inclusive))),
            Query::Count { m, c, inclusive } => Ok(vec![self.aggregate_below(m, c, inclusive).0]),
            Query::Sum { m, c, inclusive } => {
                Ok(encode_sum(self.aggregate_below(m, c, inclusive).1))
            }
            Query::TopK { m, c, k } => Ok(widen(self.top_k(m, c, k))),
            Query::Halfspace { .. } => unsupported(RangeIndex::name(self), q),
        }
    }

    fn fork_reader(&self) -> Box<dyn RangeIndex> {
        Box::new(ExternalScan::fork_reader(self))
    }

    fn save_meta(&self, w: &mut MetaWriter) {
        ExternalScan::save(self, w)
    }
}

impl RangeIndex for ExternalKdTree {
    fn name(&self) -> &'static str {
        "kdtree"
    }

    fn device(&self) -> &DeviceHandle {
        ExternalKdTree::device(self)
    }

    fn supports(&self, q: &Query) -> bool {
        matches!(
            q,
            Query::Halfplane { .. } | Query::Count { .. } | Query::Sum { .. } | Query::TopK { .. }
        )
    }

    fn cost_hint(&self) -> CostHint {
        // k-d-B tree: the classic O(sqrt(n/B) + t/B) 2D envelope.
        CostHint::new(CostShape::RootD { d: 2 }, self.len())
    }

    fn try_execute(&self, q: &Query) -> Result<Vec<u64>, Unsupported> {
        match *q {
            Query::Halfplane { m, c, inclusive } => Ok(widen(self.query_below(m, c, inclusive))),
            Query::Count { m, c, inclusive } => Ok(vec![self.aggregate_below(m, c, inclusive).0]),
            Query::Sum { m, c, inclusive } => {
                Ok(encode_sum(self.aggregate_below(m, c, inclusive).1))
            }
            Query::TopK { m, c, k } => Ok(widen(self.top_k(m, c, k))),
            _ => unsupported(RangeIndex::name(self), q),
        }
    }

    fn fork_reader(&self) -> Box<dyn RangeIndex> {
        Box::new(ExternalKdTree::fork_reader(self))
    }

    fn save_meta(&self, w: &mut MetaWriter) {
        ExternalKdTree::save(self, w)
    }
}

impl RangeIndex for StrRTree {
    fn name(&self) -> &'static str {
        "rtree"
    }

    fn device(&self) -> &DeviceHandle {
        StrRTree::device(self)
    }

    fn supports(&self, q: &Query) -> bool {
        matches!(q, Query::Halfplane { .. })
    }

    fn cost_hint(&self) -> CostHint {
        // STR R-tree: no worst-case guarantee; behaves like the sqrt
        // envelope on non-adversarial inputs (the constant is fitted).
        CostHint::new(CostShape::RootD { d: 2 }, self.len())
    }

    fn try_execute(&self, q: &Query) -> Result<Vec<u64>, Unsupported> {
        match *q {
            Query::Halfplane { m, c, inclusive } => Ok(widen(self.query_below(m, c, inclusive))),
            _ => unsupported(RangeIndex::name(self), q),
        }
    }

    fn fork_reader(&self) -> Box<dyn RangeIndex> {
        Box::new(StrRTree::fork_reader(self))
    }

    fn save_meta(&self, w: &mut MetaWriter) {
        StrRTree::save(self, w)
    }
}

impl RangeIndex for ExternalScan3 {
    fn name(&self) -> &'static str {
        "scan3"
    }

    fn device(&self) -> &DeviceHandle {
        ExternalScan3::device(self)
    }

    fn supports(&self, q: &Query) -> bool {
        matches!(q, Query::Halfspace { .. })
    }

    fn cost_hint(&self) -> CostHint {
        CostHint::new(CostShape::Scan { data_pages: self.data_pages() }, self.len())
    }

    fn try_execute(&self, q: &Query) -> Result<Vec<u64>, Unsupported> {
        match *q {
            Query::Halfspace { u, v, w, inclusive } => {
                Ok(widen(self.query_below(u, v, w, inclusive)))
            }
            _ => unsupported(RangeIndex::name(self), q),
        }
    }

    fn fork_reader(&self) -> Box<dyn RangeIndex> {
        Box::new(ExternalScan3::fork_reader(self))
    }

    fn save_meta(&self, w: &mut MetaWriter) {
        ExternalScan3::save(self, w)
    }
}
