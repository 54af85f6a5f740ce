//! The optimal two-dimensional structure (Section 3, Theorem 3.5).
//!
//! Points are dualized to lines (Lemma 2.1); the lines are partitioned into
//! subsets L_1, L_2, …, L_m where L_i is the set of lines passing below a
//! random level λ_i ∈ [β, 2β] (β = B·log_B n) of the arrangement of the
//! remaining lines H_i, stored as a greedy 3λ-clustering (Lemma 3.2). A
//! query visits clusterings in order: it locates the relevant cluster with a
//! B-tree on the boundary abscissae, and either *halts* — fewer than λ_i
//! lines of the cluster below the query point means, by Lemma 3.1, that the
//! cluster contains every remaining line below the point — or reports L_i's
//! lines below the point by scanning neighboring clusters until the
//! stopping rule of Lemma 3.4 fires, then proceeds to L_{i+1}.
//!
//! Total: O(n) blocks and O(log_B n + t) IOs per query, worst case.

pub mod cluster;

use std::collections::HashSet;

use lcrs_extmem::btree::BPlusTree;
use lcrs_extmem::{DeviceHandle, MetaReader, MetaWriter, Record, SnapshotError, VecFile};
use lcrs_geom::dual::point2_to_line;
use lcrs_geom::line2::Line2;
use lcrs_geom::rational::Rat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cost::{CostHint, CostShape};
use cluster::greedy_clustering;

/// A cluster-file record: (line id, slope, intercept). The id is the
/// original point index when the input had no duplicate points, otherwise a
/// dense unique-line index expanded through the duplicate tables.
type LineRec = (u32, (i64, i64));

/// Exact rational B-tree key (canonicalized so equal values are bitwise
/// equal), ordered by value. Boundary abscissae are crossings of two dual
/// lines, so numerator and denominator fit i64 within the 2D budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RatKey {
    num: i64,
    den: i64,
}

impl RatKey {
    pub fn new(num: i128, den: i128) -> RatKey {
        assert!(den != 0);
        let (mut num, mut den) = if den < 0 { (-num, -den) } else { (num, den) };
        let g = (gcd(num.unsigned_abs(), den.unsigned_abs()).max(1)) as i128;
        num /= g;
        den /= g;
        assert!(
            i64::try_from(num).is_ok() && i64::try_from(den).is_ok(),
            "boundary abscissa exceeds the 2D coordinate budget"
        );
        RatKey { num: num as i64, den: den as i64 }
    }

    pub fn from_rat(r: Rat) -> RatKey {
        let (n, d) = r.parts();
        RatKey::new(n, d)
    }

    pub fn from_int(v: i64) -> RatKey {
        RatKey { num: v, den: 1 }
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Ord for RatKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.num as i128 * other.den as i128).cmp(&(other.num as i128 * self.den as i128))
    }
}
impl PartialOrd for RatKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Record for RatKey {
    const SIZE: usize = 16;
    fn store(&self, buf: &mut [u8]) {
        self.num.store(&mut buf[..8]);
        self.den.store(&mut buf[8..]);
    }
    fn load(buf: &[u8]) -> Self {
        RatKey { num: i64::load(&buf[..8]), den: i64::load(&buf[8..]) }
    }
}

/// Per line-slot annotation, parallel to `lines`: the cluster index where
/// this line's contiguous occurrence run starts within the clustering
/// (Corollary 3.3 — a line's cluster occurrences form one contiguous run),
/// plus the duplicate-expanded point count and weight sum the line
/// contributes. Read only by the aggregate path; the report path never
/// touches these pages.
#[derive(Debug, Clone, Copy, Default)]
struct AnnRec {
    start: u32,
    pcount: u32,
    wsum: i64,
}

impl Record for AnnRec {
    const SIZE: usize = 16;
    fn store(&self, buf: &mut [u8]) {
        self.start.store(buf);
        self.pcount.store(&mut buf[4..]);
        self.wsum.store(&mut buf[8..]);
    }
    fn load(buf: &[u8]) -> Self {
        AnnRec { start: u32::load(buf), pcount: u32::load(&buf[4..]), wsum: i64::load(&buf[8..]) }
    }
}

/// Per-cluster aggregate annotation: duplicate-expanded totals over all
/// lines of the cluster, totals over only the lines whose occurrence run
/// *starts* at this cluster ("new" lines — the dedup unit of the
/// aggregate walk), and a conservative geometric certificate
/// (`m_min`/`m_max`/`b_max`) proving every line of the cluster passes
/// below a query point without reading the lines.
#[derive(Debug, Clone, Copy, Default)]
struct AggRec {
    pcount_total: u64,
    wsum_total: i64,
    pcount_new: u64,
    wsum_new: i64,
    m_min: i64,
    m_max: i64,
    b_max: i64,
}

impl Record for AggRec {
    const SIZE: usize = 56;
    fn store(&self, buf: &mut [u8]) {
        self.pcount_total.store(buf);
        self.wsum_total.store(&mut buf[8..]);
        self.pcount_new.store(&mut buf[16..]);
        self.wsum_new.store(&mut buf[24..]);
        self.m_min.store(&mut buf[32..]);
        self.m_max.store(&mut buf[40..]);
        self.b_max.store(&mut buf[48..]);
    }
    fn load(buf: &[u8]) -> Self {
        AggRec {
            pcount_total: u64::load(buf),
            wsum_total: i64::load(&buf[8..]),
            pcount_new: u64::load(&buf[16..]),
            wsum_new: i64::load(&buf[24..]),
            m_min: i64::load(&buf[32..]),
            m_max: i64::load(&buf[40..]),
            b_max: i64::load(&buf[48..]),
        }
    }
}

/// One clustering Γ_i on disk.
struct ClusteringDisk {
    lambda: usize,
    n_clusters: usize,
    /// Boundary abscissa → index of the cluster to its right.
    boundaries: BPlusTree<RatKey, u32>,
    /// Cluster index → (offset, length) into `lines`.
    dir: VecFile<(u64, u32)>,
    /// Concatenated clusters, each sorted by line id.
    lines: VecFile<LineRec>,
    /// Per-slot run-start/weight annotations, parallel to `lines`.
    ann: VecFile<AnnRec>,
    /// Per-cluster aggregates, parallel to `dir`.
    aggs: VecFile<AggRec>,
}

impl ClusteringDisk {
    fn with_handle(&self, h: &DeviceHandle) -> ClusteringDisk {
        ClusteringDisk {
            lambda: self.lambda,
            n_clusters: self.n_clusters,
            boundaries: self.boundaries.with_handle(h),
            dir: self.dir.with_handle(h),
            lines: self.lines.with_handle(h),
            ann: self.ann.with_handle(h),
            aggs: self.aggs.with_handle(h),
        }
    }

    fn save(&self, w: &mut MetaWriter) {
        w.usize(self.lambda);
        w.usize(self.n_clusters);
        self.boundaries.save(w);
        self.dir.save(w);
        self.lines.save(w);
        self.ann.save(w);
        self.aggs.save(w);
    }

    fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<ClusteringDisk, SnapshotError> {
        Ok(ClusteringDisk {
            lambda: r.usize()?,
            n_clusters: r.usize()?,
            boundaries: BPlusTree::load(h, r)?,
            dir: VecFile::load(h, r)?,
            lines: VecFile::load(h, r)?,
            ann: VecFile::load(h, r)?,
            aggs: VecFile::load(h, r)?,
        })
    }

    /// Aggregate contribution of cluster `k` for the dual query point
    /// `(px, py)`: `(lines_below, new, carry)` where `new` and `carry`
    /// are `(point count, weight sum)` over the below lines whose runs
    /// start at `k` resp. strictly before `k`. Lines *above* the query
    /// point are inserted into `above` (for the Lemma 3.4 stopping rule).
    /// When the persisted certificate proves every line of the cluster
    /// below, nothing is read beyond the one `AggRec` — the aggregate
    /// fast path — and the stopping bookkeeping is unchanged, because a
    /// provably all-below cluster contributes zero above lines exactly
    /// like a scanned one would.
    fn aggregate_cluster(
        &self,
        k: usize,
        px: i64,
        py: i64,
        inclusive: bool,
        above: Option<&mut HashSet<u32>>,
    ) -> (usize, (u64, i128), (u64, i128)) {
        let a = self.aggs.get(k);
        let (off, len) = self.dir.get(k);
        // Certificate: every line's value at px is at most
        // max(m_min·px, m_max·px) + b_max.
        let all_below = len == 0 || {
            let worst =
                (a.m_min as i128 * px as i128).max(a.m_max as i128 * px as i128) + a.b_max as i128;
            if inclusive {
                worst <= py as i128
            } else {
                worst < py as i128
            }
        };
        if all_below {
            let carry = (a.pcount_total - a.pcount_new, a.wsum_total as i128 - a.wsum_new as i128);
            return (len as usize, (a.pcount_new, a.wsum_new as i128), carry);
        }
        let range = off as usize..off as usize + len as usize;
        let mut buf: Vec<LineRec> = Vec::new();
        let mut ann: Vec<AnnRec> = Vec::new();
        self.lines.read_range(range.clone(), &mut buf);
        self.ann.read_range(range, &mut ann);
        let mut n_below = 0usize;
        let (mut new, mut carry) = ((0u64, 0i128), (0u64, 0i128));
        let mut above = above;
        for (r, an) in buf.iter().zip(&ann) {
            let v = r.1 .0 as i128 * px as i128 + r.1 .1 as i128;
            let below = if inclusive { v <= py as i128 } else { v < py as i128 };
            if below {
                n_below += 1;
                let acc = if an.start as usize == k { &mut new } else { &mut carry };
                acc.0 += u64::from(an.pcount);
                acc.1 += i128::from(an.wsum);
            } else if let Some(ab) = above.as_deref_mut() {
                ab.insert(r.0);
            }
        }
        (n_below, new, carry)
    }
}

/// Construction parameters (paper defaults; EXP-ABL varies them).
#[derive(Debug, Clone, Copy)]
pub struct Hs2dConfig {
    /// Cluster size factor (the paper's 3 in "3k-clustering").
    pub cluster_factor: usize,
    /// Multiplier on β for the final-subset cutoff (paper analysis: any
    /// constant > factor·2 works; we use 6).
    pub final_cutoff_factor: usize,
    /// Override β (0 = the paper's B·⌈log_B n⌉).
    pub beta_override: usize,
    /// RNG seed for the random level choices.
    pub seed: u64,
}

impl Default for Hs2dConfig {
    fn default() -> Self {
        Hs2dConfig {
            cluster_factor: 3,
            final_cutoff_factor: 6,
            beta_override: 0,
            seed: 0x1cbe991a14,
        }
    }
}

impl Hs2dConfig {
    /// Serialize the four parameters, in declaration order.
    pub fn save(&self, w: &mut MetaWriter) {
        w.usize(self.cluster_factor);
        w.usize(self.final_cutoff_factor);
        w.usize(self.beta_override);
        w.u64(self.seed);
    }

    /// Inverse of [`Self::save`].
    pub fn load(r: &mut MetaReader) -> Result<Hs2dConfig, SnapshotError> {
        Ok(Hs2dConfig {
            cluster_factor: r.usize()?,
            final_cutoff_factor: r.usize()?,
            beta_override: r.usize()?,
            seed: r.u64()?,
        })
    }
}

/// The Theorem 3.5 structure.
pub struct HalfspaceRS2 {
    dev: DeviceHandle,
    clusterings: Vec<ClusteringDisk>,
    n_points: usize,
    n_lines: usize,
    beta: usize,
    /// Duplicate-point expansion: line id → (offset, len) into `group_pts`;
    /// `None` when the input points were distinct (ids are point indices).
    group_dir: Option<VecFile<(u64, u32)>>,
    group_pts: Option<VecFile<u32>>,
    pages_at_build_end: u64,
}

impl HalfspaceRS2 {
    /// `true` when `page_bytes`-byte pages hold every record and boundary
    /// tree node [`Self::build`] writes.
    pub(crate) fn page_fits(page_bytes: usize) -> bool {
        page_bytes >= <AggRec as Record>::SIZE && BPlusTree::<RatKey, u32>::page_fits(page_bytes)
    }

    /// Preprocess `points` (pairs `(x, y)`, |coord| ≤ 2^30) for
    /// linear-constraint queries on the given device.
    pub fn build(dev: &DeviceHandle, points: &[(i64, i64)], cfg: Hs2dConfig) -> HalfspaceRS2 {
        for &(x, y) in points {
            assert!(
                x.abs() <= lcrs_geom::MAX_COORD_2D && y.abs() <= lcrs_geom::MAX_COORD_2D,
                "point ({x},{y}) outside the 2D coordinate budget"
            );
        }
        // Dualize and group duplicates.
        let mut order: Vec<u32> = (0..points.len() as u32).collect();
        order.sort_by_key(|&i| points[i as usize]);
        let mut lines: Vec<Line2> = Vec::new();
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for &i in &order {
            let l = point2_to_line(points[i as usize].0, points[i as usize].1);
            if lines.last() == Some(&l) {
                groups.last_mut().unwrap().push(i);
            } else {
                lines.push(l);
                groups.push(vec![i]);
            }
        }
        let has_dups = groups.iter().any(|g| g.len() > 1);
        let n_lines = lines.len();

        // Line ids used inside cluster files.
        let ids: Vec<u32> = if has_dups {
            (0..n_lines as u32).collect()
        } else {
            groups.iter().map(|g| g[0]).collect()
        };
        let id_of = |li: usize| ids[li];
        // Geometry lookup by public id (dense enough either way), plus the
        // duplicate-expanded aggregate a line contributes: its group's
        // point count and weight sum (weight of a point (x, y) is x + y).
        let mut geom_by_id: Vec<Line2> = vec![Line2::new(0, 0); points.len().max(n_lines)];
        let mut agg_by_id: Vec<(u32, i64)> = vec![(0, 0); points.len().max(n_lines)];
        for (li, &id) in ids.iter().enumerate() {
            geom_by_id[id as usize] = lines[li];
            let mut wsum = 0i128;
            for &p in &groups[li] {
                let (x, y) = points[p as usize];
                wsum += x as i128 + y as i128;
            }
            agg_by_id[id as usize] =
                (groups[li].len() as u32, i64::try_from(wsum).expect("group weight sum fits i64"));
        }

        let per_page = dev.records_per_page(<LineRec as Record>::SIZE);
        let n_blocks = n_lines.div_ceil(per_page).max(1);
        let beta = if cfg.beta_override > 0 {
            cfg.beta_override
        } else {
            let logb = if n_blocks <= 1 {
                1.0
            } else {
                (n_blocks as f64).ln() / (per_page.max(2) as f64).ln()
            };
            (per_page as f64 * logb.max(1.0)).ceil() as usize
        };
        let beta = beta.max(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Iteratively peel clusterings off the remaining set H.
        let mut h: Vec<u32> = (0..n_lines as u32).collect(); // dense line indices
        let mut clusterings = Vec::new();
        while !h.is_empty() {
            if h.len() <= cfg.final_cutoff_factor * beta {
                // Final subset: one cluster holding everything; λ chosen so
                // the halting test always fires here.
                let mut all: Vec<u32> = h.iter().map(|&li| id_of(li as usize)).collect();
                all.sort_unstable();
                let built = vec![all];
                clusterings.push(Self::write_clustering(
                    dev,
                    h.len() + 1,
                    &[],
                    &built,
                    &geom_by_id,
                    &agg_by_id,
                ));
                break;
            }
            let lambda = rng.gen_range(beta..=2 * beta);
            debug_assert!(lambda < h.len());
            let built = greedy_clustering(&lines, &h, lambda, cfg.cluster_factor);
            // Translate dense indices to public ids when writing.
            let clusters_pub: Vec<Vec<u32>> = built
                .clusters
                .iter()
                .map(|c| {
                    let mut v: Vec<u32> = c.iter().map(|&li| id_of(li as usize)).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            clusterings.push(Self::write_clustering(
                dev,
                lambda,
                &built.boundaries,
                &clusters_pub,
                &geom_by_id,
                &agg_by_id,
            ));
            // H ← H \ L_i (both sorted ascending).
            let mut next = Vec::with_capacity(h.len() - built.covered.len());
            let mut ci = 0;
            for &li in &h {
                if ci < built.covered.len() && built.covered[ci] == li {
                    ci += 1;
                } else {
                    next.push(li);
                }
            }
            assert!(next.len() < h.len(), "construction must make progress");
            h = next;
        }

        // Duplicate expansion tables.
        let (group_dir, group_pts) = if has_dups {
            let mut dir = Vec::with_capacity(n_lines);
            let mut pts = Vec::new();
            for g in &groups {
                dir.push((pts.len() as u64, g.len() as u32));
                pts.extend_from_slice(g);
            }
            (Some(VecFile::from_slice(dev, &dir)), Some(VecFile::from_slice(dev, &pts)))
        } else {
            (None, None)
        };

        HalfspaceRS2 {
            dev: dev.clone(),
            clusterings,
            n_points: points.len(),
            n_lines,
            beta,
            group_dir,
            group_pts,
            pages_at_build_end: dev.pages_allocated(),
        }
    }

    fn write_clustering(
        dev: &DeviceHandle,
        lambda: usize,
        boundaries: &[Rat],
        clusters: &[Vec<u32>],
        geom_by_id: &[Line2],
        agg_by_id: &[(u32, i64)],
    ) -> ClusteringDisk {
        let mut dir: Vec<(u64, u32)> = Vec::with_capacity(clusters.len());
        let mut recs: Vec<LineRec> = Vec::new();
        let mut anns: Vec<AnnRec> = Vec::new();
        let mut aggs: Vec<AggRec> = Vec::with_capacity(clusters.len());
        // Run starts: first occurrence cluster per line id; Corollary 3.3
        // guarantees occurrences are contiguous, which the dedup convention
        // of the aggregate walk relies on — assert it at build time.
        let mut runs: std::collections::HashMap<u32, (u32, u32)> = std::collections::HashMap::new();
        for (k, c) in clusters.iter().enumerate() {
            dir.push((recs.len() as u64, c.len() as u32));
            let mut agg = AggRec { b_max: i64::MIN, ..Default::default() };
            let mut first = true;
            for &id in c {
                let l = geom_by_id[id as usize];
                recs.push((id, (l.m, l.b)));
                let start = match runs.entry(id) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let (start, last) = *e.get();
                        assert!(
                            last + 1 == k as u32,
                            "line {id} recurs non-contiguously (Corollary 3.3 violated)"
                        );
                        e.insert((start, k as u32));
                        start
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((k as u32, k as u32));
                        k as u32
                    }
                };
                let (pcount, wsum) = agg_by_id[id as usize];
                anns.push(AnnRec { start, pcount, wsum });
                agg.pcount_total += u64::from(pcount);
                agg.wsum_total = agg.wsum_total.checked_add(wsum).expect("weight sum fits i64");
                if start == k as u32 {
                    agg.pcount_new += u64::from(pcount);
                    agg.wsum_new = agg.wsum_new.checked_add(wsum).expect("weight sum fits i64");
                }
                if first {
                    (agg.m_min, agg.m_max) = (l.m, l.m);
                    first = false;
                } else {
                    agg.m_min = agg.m_min.min(l.m);
                    agg.m_max = agg.m_max.max(l.m);
                }
                agg.b_max = agg.b_max.max(l.b);
            }
            aggs.push(agg);
        }
        // Boundary B-tree: key = abscissa, value = cluster index to the
        // right. Duplicate abscissae (degenerate concurrences) keep the
        // rightmost cluster.
        let mut pairs: Vec<(RatKey, u32)> = boundaries
            .iter()
            .enumerate()
            .map(|(k, w)| (RatKey::from_rat(*w), k as u32 + 1))
            .collect();
        pairs.dedup_by(|b, a| {
            if a.0 == b.0 {
                a.1 = a.1.max(b.1);
                true
            } else {
                false
            }
        });
        let btree = BPlusTree::bulk_load(dev, &pairs);
        ClusteringDisk {
            lambda,
            n_clusters: clusters.len(),
            boundaries: btree,
            dir: VecFile::from_slice(dev, &dir),
            lines: VecFile::from_slice(dev, &recs),
            ann: VecFile::from_slice(dev, &anns),
            aggs: VecFile::from_slice(dev, &aggs),
        }
    }

    /// Number of input points.
    pub fn len(&self) -> usize {
        self.n_points
    }

    pub fn is_empty(&self) -> bool {
        self.n_points == 0
    }

    /// The device this structure lives on (for scoped IO measurement).
    pub fn device(&self) -> &DeviceHandle {
        &self.dev
    }

    /// The same on-disk structure viewed through `h` (own cache + stats).
    pub fn with_handle(&self, h: &DeviceHandle) -> HalfspaceRS2 {
        HalfspaceRS2 {
            dev: h.clone(),
            clusterings: self.clusterings.iter().map(|c| c.with_handle(h)).collect(),
            n_points: self.n_points,
            n_lines: self.n_lines,
            beta: self.beta,
            group_dir: self.group_dir.as_ref().map(|f| f.with_handle(h)),
            group_pts: self.group_pts.as_ref().map(|f| f.with_handle(h)),
            pages_at_build_end: self.pages_at_build_end,
        }
    }

    /// A reader clone on a fresh handle scope over the same pages — each
    /// parallel worker calls this to get its own LRU and IO attribution.
    pub fn fork_reader(&self) -> HalfspaceRS2 {
        self.with_handle(&self.dev.fork())
    }

    /// Serialize the structure's host-side metadata (clustering directory,
    /// boundary-tree roots, duplicate tables); the page data is captured
    /// separately by [`lcrs_extmem::Device::freeze_to_path`].
    pub fn save(&self, w: &mut MetaWriter) {
        w.seq(self.clusterings.len());
        for c in &self.clusterings {
            c.save(w);
        }
        w.usize(self.n_points);
        w.usize(self.n_lines);
        w.usize(self.beta);
        w.opt(self.group_dir.is_some());
        if let Some(f) = &self.group_dir {
            f.save(w);
        }
        w.opt(self.group_pts.is_some());
        if let Some(f) = &self.group_pts {
            f.save(w);
        }
        w.u64(self.pages_at_build_end);
    }

    /// Rebuild from metadata written by [`Self::save`], reading pages
    /// through `h` (typically a device reopened with
    /// [`lcrs_extmem::Device::open_snapshot`]).
    pub fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<HalfspaceRS2, SnapshotError> {
        let n_clusterings = r.seq()?;
        let mut clusterings = Vec::with_capacity(n_clusterings);
        for _ in 0..n_clusterings {
            clusterings.push(ClusteringDisk::load(h, r)?);
        }
        let n_points = r.usize()?;
        let n_lines = r.usize()?;
        let beta = r.usize()?;
        let group_dir = if r.opt()? { Some(VecFile::load(h, r)?) } else { None };
        let group_pts = if r.opt()? { Some(VecFile::load(h, r)?) } else { None };
        if group_dir.is_some() != group_pts.is_some() {
            return Err(r.error("duplicate tables must be both present or both absent"));
        }
        Ok(HalfspaceRS2 {
            dev: h.clone(),
            clusterings,
            n_points,
            n_lines,
            beta,
            group_dir,
            group_pts,
            pages_at_build_end: r.u64()?,
        })
    }

    /// Distinct dual lines.
    pub fn unique_points(&self) -> usize {
        self.n_lines
    }

    /// The β = B·⌈log_B n⌉ used at construction.
    pub fn beta(&self) -> usize {
        self.beta
    }

    /// Number of clusterings (the paper's m ≤ n / log_B n).
    pub fn num_clusterings(&self) -> usize {
        self.clusterings.len()
    }

    /// Disk pages this structure occupies (its linear-space footprint).
    pub fn pages(&self) -> u64 {
        self.pages_at_build_end
    }

    /// The Theorem 3.5 query bound — O(log_B n + t/B) — as a planner hint
    /// (DESIGN.md §10).
    pub fn cost_hint(&self) -> CostHint {
        CostHint::new(CostShape::Logarithmic, self.len())
    }

    /// Report all points strictly below the line `y = m·x + c`
    /// (`inclusive` additionally reports points exactly on it). Returns
    /// original point indices, unordered.
    pub fn query_below(&self, m: i64, c: i64, inclusive: bool) -> Vec<u32> {
        let out: Vec<u32> = self.below_lines(m, c, inclusive).iter().map(|r| r.0).collect();

        // Expand duplicate groups with page-batched reads: directory
        // entries in id order, then point slots in offset order, paying one
        // IO per distinct page rather than one per reported line.
        if let (Some(dir), Some(pts)) = (&self.group_dir, &self.group_pts) {
            let mut ids: Vec<usize> = out.iter().map(|&i| i as usize).collect();
            ids.sort_unstable();
            let mut entries: Vec<(u64, u32)> = Vec::with_capacity(ids.len());
            dir.get_many(&ids, &mut entries);
            let mut slots: Vec<usize> = entries
                .iter()
                .flat_map(|&(off, len)| off as usize..off as usize + len as usize)
                .collect();
            slots.sort_unstable();
            let mut expanded = Vec::with_capacity(slots.len());
            pts.get_many(&slots, &mut expanded);
            expanded
        } else {
            out
        }
    }

    /// The cluster-cascade walk shared by the report and top-k paths:
    /// every distinct dual line below the query point `(px, py)`, in
    /// first-seen order.
    fn below_lines(&self, px: i64, py: i64, inclusive: bool) -> Vec<LineRec> {
        let below = |lm: i64, lb: i64| -> bool {
            let v = lm as i128 * px as i128 + lb as i128;
            if inclusive {
                v <= py as i128
            } else {
                v < py as i128
            }
        };

        let mut reported_ids: HashSet<u32> = HashSet::new();
        let mut out: Vec<LineRec> = Vec::new();
        let mut report = |r: &LineRec, out: &mut Vec<LineRec>| {
            if reported_ids.insert(r.0) {
                out.push(*r);
            }
        };

        'clusterings: for g in &self.clusterings {
            // Relevant cluster.
            let j = g.boundaries.floor(&RatKey::from_int(px)).map(|(_, v)| v as usize).unwrap_or(0);
            let mut buf: Vec<LineRec> = Vec::new();
            let read_cluster = |idx: usize, buf: &mut Vec<LineRec>| {
                buf.clear();
                let (off, len) = g.dir.get(idx);
                g.lines.read_range(off as usize..off as usize + len as usize, buf);
            };
            read_cluster(j, &mut buf);
            let below_j: Vec<LineRec> =
                buf.iter().filter(|r| below(r.1 .0, r.1 .1)).copied().collect();
            let halt = below_j.len() < g.lambda;
            for r in &below_j {
                report(r, &mut out);
            }
            if halt {
                // Lemma 3.1: the relevant cluster contains every remaining
                // line below the query point — report and halt.
                break 'clusterings;
            }
            // Rightward scan (Lemma 3.4).
            let mut above_right: HashSet<u32> = HashSet::new();
            for k in j + 1..g.n_clusters {
                read_cluster(k, &mut buf);
                for r in &buf {
                    if below(r.1 .0, r.1 .1) {
                        report(r, &mut out);
                    } else {
                        above_right.insert(r.0);
                    }
                }
                if above_right.len() > g.lambda {
                    break;
                }
            }
            // Leftward scan.
            let mut above_left: HashSet<u32> = HashSet::new();
            for k in (0..j).rev() {
                read_cluster(k, &mut buf);
                for r in &buf {
                    if below(r.1 .0, r.1 .1) {
                        report(r, &mut out);
                    } else {
                        above_left.insert(r.0);
                    }
                }
                if above_left.len() > g.lambda {
                    break;
                }
            }
        }
        out
    }

    /// Count and weight-sum (weight of `(x, y)` is `x + y`) of every
    /// point below `y = m·x + c`, *without* enumerating the answer: the
    /// same cluster cascade as [`Self::query_below`], but any cluster
    /// whose persisted certificate proves all its lines below the query
    /// point contributes its pre-aggregated totals at the cost of one
    /// `AggRec` read. Exactness rests on the run-start dedup: each line
    /// is counted at the first cluster of its contiguous occurrence run
    /// inside the scanned interval (Corollary 3.3), so overlapping
    /// clusters never double-count, and the halting/stopping decisions
    /// are bit-identical to the report path (an all-below cluster
    /// contributes zero above lines either way).
    pub fn aggregate_below(&self, m: i64, c: i64, inclusive: bool) -> (u64, i128) {
        let (px, py) = (m, c);
        let (mut count, mut wsum) = (0u64, 0i128);

        'clusterings: for g in &self.clusterings {
            let j = g.boundaries.floor(&RatKey::from_int(px)).map(|(_, v)| v as usize).unwrap_or(0);
            let (n_below, new_j, carry_j) = g.aggregate_cluster(j, px, py, inclusive, None);
            if n_below < g.lambda {
                // Lemma 3.1 halting: the interval is {j}; every below line
                // of j counts exactly once, wherever its run started.
                count += new_j.0 + carry_j.0;
                wsum += new_j.1 + carry_j.1;
                break 'clusterings;
            }
            count += new_j.0;
            wsum += new_j.1;
            // Carry of the leftmost processed cluster; lines whose runs
            // began left of the scanned interval recur at its left edge
            // (contiguity), so they are counted there once at the end.
            let mut edge_carry = carry_j;
            // Rightward scan (Lemma 3.4): runs of below lines seen here
            // start within the interval, so `new` totals cover them.
            let mut above_right: HashSet<u32> = HashSet::new();
            for k in j + 1..g.n_clusters {
                let (_, new_k, _) =
                    g.aggregate_cluster(k, px, py, inclusive, Some(&mut above_right));
                count += new_k.0;
                wsum += new_k.1;
                if above_right.len() > g.lambda {
                    break;
                }
            }
            // Leftward scan.
            let mut above_left: HashSet<u32> = HashSet::new();
            for k in (0..j).rev() {
                let (_, new_k, carry_k) =
                    g.aggregate_cluster(k, px, py, inclusive, Some(&mut above_left));
                count += new_k.0;
                wsum += new_k.1;
                edge_carry = carry_k;
                if above_left.len() > g.lambda {
                    break;
                }
            }
            // Left-edge fixup.
            count += edge_carry.0;
            wsum += edge_carry.1;
        }
        (count, wsum)
    }

    /// The `k` points of lowest key `y − m·x` among those with
    /// `y − m·x ≤ c` (the candidate halfplane is always inclusive),
    /// ordered by `(key, id)`. The key of a point is exactly its dual
    /// line's value at abscissa `m`, which the cascade walk evaluates
    /// anyway — no extra reads over an inclusive report.
    pub fn top_k(&self, m: i64, c: i64, k: usize) -> Vec<u32> {
        let lines = self.below_lines(m, c, true);
        // Dual identity: point (a, b) has key b − m·a = value of its dual
        // line (−a, b) at px = m.
        let mut cand: Vec<(i128, u32)> =
            lines.iter().map(|&(id, (lm, lb))| (lm as i128 * m as i128 + lb as i128, id)).collect();
        // Expand duplicate groups, each member inheriting its line's key
        // (duplicates share coordinates). Group offsets are monotone in
        // line id, so sorting candidates by id keeps slots sorted too.
        if let (Some(dir), Some(pts)) = (&self.group_dir, &self.group_pts) {
            cand.sort_unstable_by_key(|&(_, id)| id);
            let ids: Vec<usize> = cand.iter().map(|&(_, id)| id as usize).collect();
            let mut entries: Vec<(u64, u32)> = Vec::with_capacity(ids.len());
            dir.get_many(&ids, &mut entries);
            let slots: Vec<usize> = entries
                .iter()
                .flat_map(|&(off, len)| off as usize..off as usize + len as usize)
                .collect();
            debug_assert!(slots.windows(2).all(|w| w[0] < w[1]));
            let mut expanded = Vec::with_capacity(slots.len());
            pts.get_many(&slots, &mut expanded);
            let mut cursor = 0usize;
            let mut out = Vec::with_capacity(expanded.len());
            for (&(val, _), &(_, len)) in cand.iter().zip(&entries) {
                for _ in 0..len {
                    out.push((val, expanded[cursor]));
                    cursor += 1;
                }
            }
            cand = out;
        }
        cand.sort_unstable();
        cand.truncate(k);
        cand.into_iter().map(|(_, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrs_extmem::{Device, DeviceConfig};

    fn pseudo_points(n: usize, seed: u64, range: i64) -> Vec<(i64, i64)> {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as i64).rem_euclid(2 * range) - range
        };
        (0..n).map(|_| (next(), next())).collect()
    }

    fn brute_force(points: &[(i64, i64)], m: i64, c: i64, inclusive: bool) -> Vec<u32> {
        let mut v: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| {
                let rhs = m as i128 * x as i128 + c as i128;
                if inclusive {
                    (y as i128) <= rhs
                } else {
                    (y as i128) < rhs
                }
            })
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    fn check_queries(points: &[(i64, i64)], hs: &HalfspaceRS2, seed: u64, trials: usize) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((s >> 33) as i64).rem_euclid(4000) - 2000
        };
        for t in 0..trials {
            let (m, c) = (next(), next() * 100);
            let inclusive = t % 2 == 0;
            let mut got = hs.query_below(m, c, inclusive);
            got.sort_unstable();
            let want = brute_force(points, m, c, inclusive);
            assert_eq!(got, want, "query y <= {m}x+{c} (inclusive={inclusive})");
        }
    }

    #[test]
    fn tiny_inputs() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        for n in [0usize, 1, 2, 5] {
            let pts = pseudo_points(n, 9 + n as u64, 1000);
            let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
            check_queries(&pts, &hs, 1, 20);
        }
    }

    #[test]
    fn builds_on_the_smallest_page_that_fits() {
        let min = (1..4096).find(|&pb| HalfspaceRS2::page_fits(pb)).unwrap();
        assert!((min..4096).all(HalfspaceRS2::page_fits), "the fit test must be monotone");
        let dev = Device::new(DeviceConfig::new(min, 0));
        let pts = pseudo_points(2000, 17, 100_000);
        let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        check_queries(&pts, &hs, 3, 20);
    }

    #[test]
    fn medium_random_matches_brute_force() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let pts = pseudo_points(500, 42, 100_000);
        let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        assert!(hs.num_clusterings() >= 1);
        check_queries(&pts, &hs, 7, 60);
    }

    #[test]
    fn multi_clustering_structure() {
        // Force several clusterings with a small page size (small B ⇒ small β).
        let dev = Device::new(DeviceConfig::new(128, 0));
        let pts = pseudo_points(2000, 5, 1_000_000);
        let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        assert!(hs.num_clusterings() > 1, "expected a multi-level cascade");
        check_queries(&pts, &hs, 3, 40);
    }

    #[test]
    fn duplicate_points_are_all_reported() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let mut pts = pseudo_points(300, 8, 1000);
        // Triple some points.
        for i in 0..60 {
            let p = pts[i * 3];
            pts.push(p);
            pts.push(p);
        }
        let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        assert!(hs.unique_points() < pts.len());
        check_queries(&pts, &hs, 11, 40);
    }

    #[test]
    fn diagonal_adversarial_input() {
        // The Section 1.2 worst case for heuristic indexes: points on a
        // diagonal, query just above it. Correctness here; IO bounds in the
        // bench harness.
        let dev = Device::new(DeviceConfig::new(256, 0));
        let pts: Vec<(i64, i64)> = (0..1500).map(|i| (i, i)).collect();
        let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        // y <= x + 0 inclusive: everything. strict: nothing.
        let mut all = hs.query_below(1, 0, true);
        all.sort_unstable();
        assert_eq!(all, (0..1500u32).collect::<Vec<_>>());
        assert!(hs.query_below(1, 0, false).is_empty());
        // A slab query: y <= x - c strict picks nothing; y <= x + 1 all.
        assert_eq!(hs.query_below(1, 1, false).len(), 1500);
        check_queries(&pts, &hs, 13, 30);
    }

    #[test]
    fn query_io_scales_with_output_not_n() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let pts = pseudo_points(4000, 21, 1 << 20);
        let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        // A query with tiny output must cost far fewer IOs than n blocks.
        let (res, io) = dev.measure(|| hs.query_below(0, -(1 << 20) + 1000, false));
        let n_blocks = (hs.unique_points() as u64).div_ceil(512 / 20);
        assert!(res.len() < 50, "output unexpectedly large: {}", res.len());
        assert!(
            io.total() < n_blocks / 2,
            "small-output query cost {} IOs vs n = {} blocks",
            io.total(),
            n_blocks
        );
    }

    fn brute_agg(points: &[(i64, i64)], m: i64, c: i64, inclusive: bool) -> (u64, i128) {
        let mut count = 0u64;
        let mut wsum = 0i128;
        for &(x, y) in points {
            let rhs = m as i128 * x as i128 + c as i128;
            let below = if inclusive { y as i128 <= rhs } else { (y as i128) < rhs };
            if below {
                count += 1;
                wsum += x as i128 + y as i128;
            }
        }
        (count, wsum)
    }

    fn brute_topk(points: &[(i64, i64)], m: i64, c: i64, k: usize) -> Vec<u32> {
        let mut cand: Vec<(i128, u32)> = points
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| y as i128 - m as i128 * x as i128 <= c as i128)
            .map(|(i, &(x, y))| (y as i128 - m as i128 * x as i128, i as u32))
            .collect();
        cand.sort_unstable();
        cand.truncate(k);
        cand.into_iter().map(|(_, id)| id).collect()
    }

    #[test]
    fn aggregates_match_enumeration() {
        let dev = Device::new(DeviceConfig::new(128, 0));
        let mut pts = pseudo_points(1500, 77, 1 << 20);
        for i in 0..50 {
            let p = pts[i * 7];
            pts.push(p); // duplicate groups must be weight-expanded
        }
        let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        assert!(hs.num_clusterings() > 1, "want a multi-level cascade");
        let mut s = 99u64;
        let mut next = move || {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((s >> 33) as i64).rem_euclid(4000) - 2000
        };
        for t in 0..60 {
            let (m, c) = (next(), next() * 1000);
            let inclusive = t % 2 == 0;
            let got = hs.aggregate_below(m, c, inclusive);
            assert_eq!(got, brute_agg(&pts, m, c, inclusive), "m={m} c={c} inc={inclusive}");
        }
        // Selectivity extremes, where the certificate skips whole clusters.
        for (m, c) in [(0, i64::MAX / 2), (0, i64::MIN / 2), (3, 1 << 40), (-5, -(1 << 40))] {
            for inclusive in [false, true] {
                assert_eq!(hs.aggregate_below(m, c, inclusive), brute_agg(&pts, m, c, inclusive));
            }
        }
        // A query covering everything must answer mostly from certificates:
        // uncached, it reads strictly fewer pages than reporting the same
        // points (a scanned cluster costs its lines *and* annotations).
        let ((count, _), agg) = dev.measure(|| hs.aggregate_below(0, i64::MAX / 2, true));
        let (all, report) = dev.measure(|| hs.query_below(0, i64::MAX / 2, true));
        assert_eq!((count as usize, all.len()), (pts.len(), pts.len()));
        assert!(
            agg.reads < report.reads,
            "aggregate path read {} pages, the report path {}",
            agg.reads,
            report.reads
        );
    }

    #[test]
    fn aggregates_survive_save_load() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let pts = pseudo_points(600, 5, 100_000);
        let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        let mut w = MetaWriter::new();
        hs.save(&mut w);
        let mut r = MetaReader::from_bytes(w.into_bytes()).unwrap();
        let back = HalfspaceRS2::load(&dev, &mut r).unwrap();
        r.finish().unwrap();
        for (m, c, inclusive) in [(3, 50_000, true), (-40, -1, false), (0, 0, true)] {
            assert_eq!(back.aggregate_below(m, c, inclusive), hs.aggregate_below(m, c, inclusive));
            assert_eq!(back.top_k(m, c, 7), hs.top_k(m, c, 7));
        }
    }

    #[test]
    fn top_k_matches_brute_force() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let mut pts = pseudo_points(700, 31, 100_000);
        for i in 0..30 {
            let p = pts[i * 11];
            pts.push(p); // ties across duplicates break by id
        }
        let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        let mut s = 13u64;
        let mut next = move || {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((s >> 33) as i64).rem_euclid(4000) - 2000
        };
        for t in 0..40 {
            let (m, c) = (next(), next() * 100);
            let k = (t % 9) + 1;
            assert_eq!(hs.top_k(m, c, k), brute_topk(&pts, m, c, k), "m={m} c={c} k={k}");
        }
        // k larger than the candidate set returns everything, still ordered.
        assert_eq!(hs.top_k(1, i64::MAX / 2, 10_000).len(), pts.len());
        assert_eq!(hs.top_k(1, i64::MIN / 2, 5), brute_topk(&pts, 1, i64::MIN / 2, 5));
    }

    #[test]
    fn cluster_factor_ablation_still_correct() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let pts = pseudo_points(800, 31, 500_000);
        for factor in [2usize, 4] {
            let cfg = Hs2dConfig { cluster_factor: factor, ..Default::default() };
            let hs = HalfspaceRS2::build(&dev, &pts, cfg);
            check_queries(&pts, &hs, factor as u64, 25);
        }
    }
}
