//! Linear-size partition trees (Section 5, Theorem 5.2).
//!
//! Each internal node partitions its point set S_v into
//! r_v = min(cB, 2n_v)-ish balanced subsets, each with a bounding cell;
//! leaves hold ≤ B points in one block, and every subtree's points are
//! stored contiguously (DFS order) so a fully-below cell is reported in
//! O(n_v) IOs. Queries classify each child cell against the constraint:
//! fully-below cells are reported wholesale, crossed cells are recursed
//! into, and the crossing-number bound of the partitioner yields
//! O(n^{1-1/d+ε} + t) IOs.
//!
//! Partitioners (DESIGN.md §3.4 — substitutes for Matoušek's Theorem 5.1):
//! * [`Partitioner::KdMedian`] — cyclic median splits into 2^(d·s) boxes;
//!   the O(r^{1-1/d}) crossing bound is empirical (measured in EXP-T1-PT);
//! * [`Partitioner::HamSandwich`] (d = 2) — Willard's (ref. 53) 4-way
//!   ham-sandwich partition; a line always misses one of the four wedges
//!   around the cut crossing, giving a worst-case O(n^{log₄3}) ≈ O(n^0.79)
//!   guarantee. Cells are stored as bounding boxes of the actual subsets.
//!
//! The same tree answers simplex (convex-region) queries — the paper's
//! Remark (i) — via conservative box/region classification.

pub mod hamsandwich;

use lcrs_extmem::{DeviceHandle, MetaReader, MetaWriter, Record, SnapshotError, VecFile};
use lcrs_geom::point::{Aabb, BoxSide, HyperplaneD, PointD, Simplex, SimplexSide};

use crate::cost::{CostHint, CostShape};

/// On-disk node record.
#[derive(Debug, Clone, Copy)]
struct NodeRec<const D: usize> {
    lo: [i64; D],
    hi: [i64; D],
    /// First child node index; 0 children ⇒ leaf.
    child_start: u64,
    child_count: u32,
    /// Subtree point range (DFS-contiguous) in the points file.
    pts_off: u64,
    pts_len: u64,
}

impl<const D: usize> Record for NodeRec<D> {
    const SIZE: usize = 16 * D + 28;
    fn store(&self, buf: &mut [u8]) {
        self.lo.store(buf);
        self.hi.store(&mut buf[8 * D..]);
        self.child_start.store(&mut buf[16 * D..]);
        self.child_count.store(&mut buf[16 * D + 8..]);
        self.pts_off.store(&mut buf[16 * D + 12..]);
        self.pts_len.store(&mut buf[16 * D + 20..]);
    }
    fn load(buf: &[u8]) -> Self {
        NodeRec {
            lo: <[i64; D]>::load(buf),
            hi: <[i64; D]>::load(&buf[8 * D..]),
            child_start: u64::load(&buf[16 * D..]),
            child_count: u32::load(&buf[16 * D + 8..]),
            pts_off: u64::load(&buf[16 * D + 12..]),
            pts_len: u64::load(&buf[16 * D + 20..]),
        }
    }
}

/// Point record: (coords, input index).
type PtRec<const D: usize> = ([i64; D], u32);

/// Which balanced partition a node uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// Cyclic median kd-splits into 2^(D·s) boxes.
    KdMedian,
    /// Willard ham-sandwich 4-way partition (D = 2 only); nodes larger than
    /// the cutoff, or degenerate ones, fall back to kd.
    HamSandwich,
}

/// Construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct PTreeConfig {
    pub partitioner: Partitioner,
    /// Target fanout (0 ⇒ min(4·B, n_v), rounded down to a power of 2^D).
    pub fanout: usize,
    /// Leaf capacity (0 ⇒ B points).
    pub leaf_capacity: usize,
    /// Node size above which HamSandwich falls back to kd (median-level
    /// walks on huge nodes are expensive; see DESIGN.md §3.4).
    pub hs_cutoff: usize,
}

impl Default for PTreeConfig {
    fn default() -> Self {
        PTreeConfig {
            partitioner: Partitioner::KdMedian,
            fanout: 0,
            leaf_capacity: 0,
            hs_cutoff: 1 << 15,
        }
    }
}

/// The Theorem 5.2 structure for d-dimensional halfspace and simplex
/// reporting.
pub struct PartitionTree<const D: usize> {
    dev: DeviceHandle,
    nodes: VecFile<NodeRec<D>>,
    points: VecFile<PtRec<D>>,
    n: usize,
    pages_at_build_end: u64,
}

impl<const D: usize> PartitionTree<D> {
    /// Preprocess `points` (|coordinate| ≤ 2^30).
    pub fn build(dev: &DeviceHandle, points: &[PointD<D>], cfg: PTreeConfig) -> PartitionTree<D> {
        assert!(D >= 1);
        assert!(
            cfg.partitioner == Partitioner::KdMedian || D == 2,
            "HamSandwich partitioner is 2D-only"
        );
        for p in points {
            assert!(
                p.c.iter().all(|c| c.abs() <= lcrs_geom::MAX_COORD_2D),
                "point outside coordinate budget"
            );
        }
        let b_pts = dev.records_per_page(<PtRec<D> as Record>::SIZE);
        let leaf_cap = if cfg.leaf_capacity > 0 { cfg.leaf_capacity } else { b_pts }.max(1);

        let mut items: Vec<PtRec<D>> =
            points.iter().enumerate().map(|(i, p)| (p.c, i as u32)).collect();
        let mut nodes: Vec<NodeRec<D>> = Vec::new();
        let mut pts_out: Vec<PtRec<D>> = Vec::with_capacity(items.len());
        if !items.is_empty() {
            nodes.push(NodeRec {
                lo: [0; D],
                hi: [0; D],
                child_start: 0,
                child_count: 0,
                pts_off: 0,
                pts_len: 0,
            });
            Self::build_node(&mut items, 0, &mut nodes, &mut pts_out, &cfg, leaf_cap, b_pts);
        }
        PartitionTree {
            dev: dev.clone(),
            nodes: VecFile::from_slice(dev, &nodes),
            points: VecFile::from_slice(dev, &pts_out),
            n: points.len(),
            pages_at_build_end: dev.pages_allocated(),
        }
    }

    fn bbox(items: &[PtRec<D>]) -> ([i64; D], [i64; D]) {
        let mut lo = items[0].0;
        let mut hi = items[0].0;
        for (c, _) in &items[1..] {
            for i in 0..D {
                lo[i] = lo[i].min(c[i]);
                hi[i] = hi[i].max(c[i]);
            }
        }
        (lo, hi)
    }

    /// Recursively build node `ni` over `items`; appends points in DFS
    /// order to `pts_out`.
    fn build_node(
        items: &mut [PtRec<D>],
        ni: usize,
        nodes: &mut Vec<NodeRec<D>>,
        pts_out: &mut Vec<PtRec<D>>,
        cfg: &PTreeConfig,
        leaf_cap: usize,
        b_pts: usize,
    ) {
        let (lo, hi) = Self::bbox(items);
        let pts_off = pts_out.len() as u64;
        if items.len() <= leaf_cap {
            pts_out.extend_from_slice(items);
            nodes[ni] = NodeRec {
                lo,
                hi,
                child_start: 0,
                child_count: 0,
                pts_off,
                pts_len: items.len() as u64,
            };
            return;
        }
        // Partition into balanced ranges.
        let ranges: Vec<std::ops::Range<usize>> = match cfg.partitioner {
            Partitioner::HamSandwich if D == 2 && items.len() <= cfg.hs_cutoff => {
                match Self::ham_sandwich_ranges(items) {
                    Some(r) => r,
                    None => Self::kd_ranges(items, cfg, leaf_cap, b_pts),
                }
            }
            _ => Self::kd_ranges(items, cfg, leaf_cap, b_pts),
        };
        let child_start = nodes.len() as u64;
        let child_count = ranges.len() as u32;
        for _ in 0..ranges.len() {
            nodes.push(NodeRec {
                lo: [0; D],
                hi: [0; D],
                child_start: 0,
                child_count: 0,
                pts_off: 0,
                pts_len: 0,
            });
        }
        for (k, r) in ranges.iter().enumerate() {
            Self::build_node(
                &mut items[r.clone()],
                child_start as usize + k,
                nodes,
                pts_out,
                cfg,
                leaf_cap,
                b_pts,
            );
        }
        let pts_len = pts_out.len() as u64 - pts_off;
        nodes[ni] = NodeRec { lo, hi, child_start, child_count, pts_off, pts_len };
    }

    /// Balanced kd ranges: r = 2^(D·s) ≤ min(fanout, n_v), median splits
    /// cycling through the axes.
    fn kd_ranges(
        items: &mut [PtRec<D>],
        cfg: &PTreeConfig,
        leaf_cap: usize,
        b_pts: usize,
    ) -> Vec<std::ops::Range<usize>> {
        let target = if cfg.fanout > 0 { cfg.fanout } else { 4 * b_pts };
        let target = target.min(items.len().div_ceil(leaf_cap)).max(2);
        // Depth: largest s with 2^(D·s) ≤ target, at least one split.
        let mut depth = 1usize;
        while (1usize << ((depth + 1) * D.min(20))) <= target {
            depth += 1;
        }
        let splits = depth * D; // binary splits, cycling axes
        let mut ranges = Vec::new();
        Self::halve(items, 0, splits, 0, &mut ranges);
        ranges
    }

    fn halve(
        items: &mut [PtRec<D>],
        base: usize,
        splits_left: usize,
        axis: usize,
        out: &mut Vec<std::ops::Range<usize>>,
    ) {
        if splits_left == 0 || items.len() <= 1 {
            if !items.is_empty() {
                out.push(base..base + items.len());
            }
            return;
        }
        let mid = items.len() / 2;
        items.select_nth_unstable_by_key(mid, |(c, id)| (c[axis], *id));
        let (left, right) = items.split_at_mut(mid);
        let next_axis = (axis + 1) % D;
        Self::halve(left, base, splits_left - 1, next_axis, out);
        Self::halve(right, base + mid, splits_left - 1, next_axis, out);
    }

    /// Willard 4-way ranges (D == 2): lexicographic median split, then a
    /// ham-sandwich cut of the two halves.
    fn ham_sandwich_ranges(items: &mut [PtRec<D>]) -> Option<Vec<std::ops::Range<usize>>> {
        debug_assert_eq!(D, 2);
        items.sort_unstable_by_key(|(c, id)| (c[0], c[1], *id));
        let half = items.len() / 2;
        let a: Vec<(i64, i64)> = items[..half].iter().map(|(c, _)| (c[0], c[1])).collect();
        let b: Vec<(i64, i64)> = items[half..].iter().map(|(c, _)| (c[0], c[1])).collect();
        let (ia, ib) = hamsandwich::find_cut(&a, &b)?;
        let (p, q) = (a[ia], b[ib]);
        if p.0 == q.0 {
            return None; // vertical cut: degenerate for the side test
        }
        // Partition each half by the cut (on-line points count as below).
        let side = |c: &[i64; D]| !hamsandwich::strictly_below_cut(p, q, (c[0], c[1]));
        let mid1 = partition_in_place(&mut items[..half], |(c, _)| !side(c));
        let mid2 = partition_in_place(&mut items[half..], |(c, _)| !side(c));
        let mut out = Vec::with_capacity(4);
        for r in [0..mid1, mid1..half, half..half + mid2, half + mid2..items.len()] {
            if !r.is_empty() {
                out.push(r);
            }
        }
        Some(out)
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Disk pages occupied (linear in n).
    pub fn pages(&self) -> u64 {
        self.pages_at_build_end
    }

    /// The Theorem 5.2 query bound — O((n/B)^(1-1/d) + t/B) from linear
    /// space — as a planner hint (DESIGN.md §10).
    pub fn cost_hint(&self) -> CostHint {
        CostHint::new(CostShape::RootD { d: D as u32 }, self.len())
    }

    /// The device this structure lives on (for scoped IO measurement).
    pub fn device(&self) -> &DeviceHandle {
        &self.dev
    }

    /// The same on-disk structure viewed through `h` (own cache + stats).
    pub fn with_handle(&self, h: &DeviceHandle) -> PartitionTree<D> {
        PartitionTree {
            dev: h.clone(),
            nodes: self.nodes.with_handle(h),
            points: self.points.with_handle(h),
            n: self.n,
            pages_at_build_end: self.pages_at_build_end,
        }
    }

    /// A reader clone on a fresh handle scope over the same pages — each
    /// parallel worker calls this to get its own LRU and IO attribution.
    pub fn fork_reader(&self) -> PartitionTree<D> {
        self.with_handle(&self.dev.fork())
    }

    /// Serialize the tree's metadata (node and point files, counts); the
    /// page data is captured by [`lcrs_extmem::Device::freeze_to_path`].
    /// The dimension is written as a guard so a `PartitionTree<3>` save
    /// can never load as a `PartitionTree<2>`.
    pub fn save(&self, w: &mut MetaWriter) {
        w.usize(D);
        self.nodes.save(w);
        self.points.save(w);
        w.usize(self.n);
        w.u64(self.pages_at_build_end);
    }

    /// Rebuild from metadata written by [`Self::save`].
    pub fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<PartitionTree<D>, SnapshotError> {
        let d = r.usize()?;
        if d != D {
            return Err(r.error(format!("dimension mismatch: saved {d}, loading {D}")));
        }
        Ok(PartitionTree {
            dev: h.clone(),
            nodes: VecFile::load(h, r)?,
            points: VecFile::load(h, r)?,
            n: r.usize()?,
            pages_at_build_end: r.u64()?,
        })
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Report all points strictly below the constraint hyperplane
    /// (`inclusive` adds points on it). Returns input indices.
    pub fn query_halfspace(&self, h: &HyperplaneD<D>, inclusive: bool) -> Vec<u32> {
        let mut out = Vec::new();
        if self.n > 0 {
            self.visit(
                0,
                &mut out,
                &mut |b: &Aabb<D>| match h.classify_box(b) {
                    BoxSide::FullyBelow if !inclusive => Visit::ReportAll,
                    // Inclusive queries treat boundary-touching boxes as crossed;
                    // FullyBelow (strict) is still fully reportable.
                    BoxSide::FullyBelow => Visit::ReportAll,
                    BoxSide::FullyAbove if !inclusive => Visit::Skip,
                    BoxSide::FullyAbove => {
                        // A box with max slack exactly 0 contains on-plane
                        // points: must be scanned for inclusive queries.
                        Visit::Recurse
                    }
                    BoxSide::Crossing => Visit::Recurse,
                },
                &mut |p: &PointD<D>| {
                    let s = h.slack(p);
                    if inclusive {
                        s >= 0
                    } else {
                        s > 0
                    }
                },
            );
        }
        out
    }

    /// Count the points strictly below the constraint without reporting
    /// them: fully-below subtrees contribute their stored size with no
    /// point-file IO at all, so counting costs only the O(n^{1-1/d+ε})
    /// traversal term.
    pub fn count_halfspace(&self, h: &HyperplaneD<D>, inclusive: bool) -> u64 {
        let mut count = 0u64;
        if self.n > 0 {
            self.count_visit(0, h, inclusive, &mut count);
        }
        count
    }

    fn count_visit(&self, ni: usize, h: &HyperplaneD<D>, inclusive: bool, count: &mut u64) {
        let node = self.nodes.get(ni);
        let cell = Aabb { lo: node.lo, hi: node.hi };
        match h.classify_box(&cell) {
            BoxSide::FullyAbove if !inclusive => {}
            BoxSide::FullyBelow => {
                *count += node.pts_len;
            }
            _ => {
                if node.child_count == 0 {
                    let mut buf: Vec<PtRec<D>> = Vec::with_capacity(node.pts_len as usize);
                    self.points.read_range(
                        node.pts_off as usize..(node.pts_off + node.pts_len) as usize,
                        &mut buf,
                    );
                    for (c, _) in buf {
                        let s = h.slack(&PointD::new(c));
                        if if inclusive { s >= 0 } else { s > 0 } {
                            *count += 1;
                        }
                    }
                } else {
                    for k in 0..node.child_count as usize {
                        self.count_visit(node.child_start as usize + k, h, inclusive, count);
                    }
                }
            }
        }
    }

    /// Report all points inside the convex region (simplex) — Remark (i).
    pub fn query_simplex(&self, s: &Simplex<D>) -> Vec<u32> {
        let mut out = Vec::new();
        if self.n > 0 {
            self.visit(
                0,
                &mut out,
                &mut |b: &Aabb<D>| match s.classify_box(b) {
                    SimplexSide::Inside => Visit::ReportAll,
                    SimplexSide::Outside => Visit::Skip,
                    SimplexSide::Maybe => Visit::Recurse,
                },
                &mut |p: &PointD<D>| s.contains_point(p),
            );
        }
        out
    }

    fn visit(
        &self,
        ni: usize,
        out: &mut Vec<u32>,
        classify: &mut dyn FnMut(&Aabb<D>) -> Visit,
        test: &mut dyn FnMut(&PointD<D>) -> bool,
    ) {
        let node = self.nodes.get(ni);
        let cell = Aabb { lo: node.lo, hi: node.hi };
        match classify(&cell) {
            Visit::Skip => {}
            Visit::ReportAll => {
                self.report_range(node.pts_off, node.pts_len, out);
            }
            Visit::Recurse => {
                if node.child_count == 0 {
                    let mut buf: Vec<PtRec<D>> = Vec::with_capacity(node.pts_len as usize);
                    self.points.read_range(
                        node.pts_off as usize..(node.pts_off + node.pts_len) as usize,
                        &mut buf,
                    );
                    for (c, id) in buf {
                        if test(&PointD::new(c)) {
                            out.push(id);
                        }
                    }
                } else {
                    for k in 0..node.child_count as usize {
                        self.visit(node.child_start as usize + k, out, classify, test);
                    }
                }
            }
        }
    }

    fn report_range(&self, off: u64, len: u64, out: &mut Vec<u32>) {
        let mut buf: Vec<PtRec<D>> = Vec::with_capacity(len as usize);
        self.points.read_range(off as usize..(off + len) as usize, &mut buf);
        out.extend(buf.into_iter().map(|(_, id)| id));
    }
}

enum Visit {
    Skip,
    ReportAll,
    Recurse,
}

/// Stable two-way partition: moves elements satisfying `pred` to the front,
/// returning the split index.
fn partition_in_place<T: Copy>(items: &mut [T], mut pred: impl FnMut(&T) -> bool) -> usize {
    let mut buf: Vec<T> = Vec::with_capacity(items.len());
    let mut k = 0;
    for i in 0..items.len() {
        if pred(&items[i]) {
            items[k] = items[i];
            k += 1;
        } else {
            buf.push(items[i]);
        }
    }
    items[k..].copy_from_slice(&buf);
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrs_extmem::{Device, DeviceConfig};

    fn pseudo<const D: usize>(n: usize, seed: u64, range: i64) -> Vec<PointD<D>> {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as i64).rem_euclid(2 * range) - range
        };
        (0..n).map(|_| PointD::new(std::array::from_fn(|_| next()))).collect()
    }

    fn brute<const D: usize>(pts: &[PointD<D>], h: &HyperplaneD<D>, inclusive: bool) -> Vec<u32> {
        let mut v: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                let s = h.slack(p);
                if inclusive {
                    s >= 0
                } else {
                    s > 0
                }
            })
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    fn check<const D: usize>(pts: &[PointD<D>], t: &PartitionTree<D>, seed: u64, trials: usize) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((s >> 33) as i64).rem_euclid(2000) - 1000
        };
        for k in 0..trials {
            let h: HyperplaneD<D> =
                HyperplaneD::new(std::array::from_fn(
                    |i| {
                        if i == 0 {
                            next() * 100
                        } else {
                            next()
                        }
                    },
                ));
            let inclusive = k % 2 == 0;
            let mut got = t.query_halfspace(&h, inclusive);
            got.sort_unstable();
            assert_eq!(got, brute(pts, &h, inclusive), "{h:?} inclusive={inclusive}");
        }
    }

    #[test]
    fn correctness_2d_kd() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let pts = pseudo::<2>(1200, 3, 100_000);
        let t = PartitionTree::build(&dev, &pts, PTreeConfig::default());
        check(&pts, &t, 1, 40);
    }

    #[test]
    fn correctness_2d_ham_sandwich() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let pts = pseudo::<2>(900, 5, 100_000);
        let cfg = PTreeConfig { partitioner: Partitioner::HamSandwich, ..Default::default() };
        let t = PartitionTree::build(&dev, &pts, cfg);
        check(&pts, &t, 2, 30);
    }

    #[test]
    fn correctness_3d_and_4d() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let pts3 = pseudo::<3>(800, 7, 50_000);
        let t3 = PartitionTree::build(&dev, &pts3, PTreeConfig::default());
        check(&pts3, &t3, 3, 25);
        let pts4 = pseudo::<4>(600, 9, 50_000);
        let t4 = PartitionTree::build(&dev, &pts4, PTreeConfig::default());
        check(&pts4, &t4, 4, 20);
    }

    #[test]
    fn simplex_queries_match_brute_force() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let pts = pseudo::<2>(700, 11, 10_000);
        let t = PartitionTree::build(&dev, &pts, PTreeConfig::default());
        // Random triangles as 3 halfplanes.
        let mut s = 13u64;
        let mut next = move || {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((s >> 33) as i64).rem_euclid(20_000) - 10_000
        };
        for _ in 0..25 {
            let tri = Simplex::new(vec![
                ([next() % 10, next() % 10], next()),
                ([next() % 10, next() % 10], next()),
                ([next() % 10, next() % 10], next()),
            ]);
            let mut got = t.query_simplex(&tri);
            got.sort_unstable();
            let mut want: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| tri.contains_point(p))
                .map(|(i, _)| i as u32)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn duplicates_and_degenerate_inputs() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        // All points identical, plus a grid line.
        let mut pts: Vec<PointD<2>> = (0..200).map(|_| PointD::new([5, 5])).collect();
        pts.extend((0..200).map(|i| PointD::new([i, i])));
        let t = PartitionTree::build(&dev, &pts, PTreeConfig::default());
        check(&pts, &t, 17, 25);
        let cfg = PTreeConfig { partitioner: Partitioner::HamSandwich, ..Default::default() };
        let t2 = PartitionTree::build(&dev, &pts, cfg);
        check(&pts, &t2, 19, 25);
    }

    #[test]
    fn tiny_inputs() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        for n in [0usize, 1, 2, 7] {
            let pts = pseudo::<2>(n, 21 + n as u64, 100);
            let t = PartitionTree::build(&dev, &pts, PTreeConfig::default());
            check(&pts, &t, 23, 10);
        }
    }

    #[test]
    fn counting_matches_reporting_with_fewer_ios() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let pts = pseudo::<2>(6000, 29, 100_000);
        let t = PartitionTree::build(&dev, &pts, PTreeConfig::default());
        let mut s = 31u64;
        let mut next = move || {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((s >> 33) as i64).rem_euclid(2000) - 1000
        };
        for k in 0..15 {
            let h: HyperplaneD<2> = HyperplaneD::new([next() * 100, next()]);
            let inclusive = k % 2 == 0;
            let (res, rs) = dev.measure(|| t.query_halfspace(&h, inclusive));
            let (cnt, cs) = dev.measure(|| t.count_halfspace(&h, inclusive));
            assert_eq!(cnt as usize, res.len());
            assert!(cs.total() <= rs.total(), "count {} > report {}", cs.total(), rs.total());
        }
    }

    #[test]
    fn space_is_linear() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let pts = pseudo::<2>(20_000, 25, 1 << 20);
        let t = PartitionTree::build(&dev, &pts, PTreeConfig::default());
        let pt_blocks = 20_000u64.div_ceil(512 / 20);
        assert!(t.pages() < 4 * pt_blocks, "pages {} vs point blocks {}", t.pages(), pt_blocks);
    }

    #[test]
    fn fully_below_subtree_reporting_is_blockwise() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let pts = pseudo::<2>(8000, 27, 1000);
        let t = PartitionTree::build(&dev, &pts, PTreeConfig::default());
        // A halfplane far above everything: reports all points.
        let h = HyperplaneD::new([1 << 25, 0]);
        let (res, io) = dev.measure(|| t.query_halfspace(&h, false));
        assert_eq!(res.len(), 8000);
        let pt_blocks = 8000u64.div_ceil(512 / 20);
        assert!(io.total() <= pt_blocks + 8, "reporting everything cost {} IOs", io.total());
    }
}
