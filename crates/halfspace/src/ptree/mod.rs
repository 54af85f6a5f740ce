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
//!
//! This module also owns the layout the Section 6 trees
//! ([`crate::tradeoff`]) are built on: the node record, the builder
//! `lay_out`, the kd splitter, the subtree-points reader and the
//! load-time walk `verify`. Those trees store one `u32` after each node
//! record, naming what is attached there.

pub mod hamsandwich;

use std::ops::Range;

use lcrs_extmem::{DeviceHandle, MetaReader, MetaWriter, Record, SnapshotError, VecFile};
use lcrs_geom::point::{Aabb, BoxSide, HyperplaneD, PointD, Simplex, SimplexSide};

use crate::cost::{CostHint, CostShape};

/// On-disk node record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeRec<const D: usize> {
    lo: [i64; D],
    hi: [i64; D],
    /// First child node index; 0 children ⇒ leaf.
    child_start: u64,
    child_count: u32,
    /// Subtree point range (DFS-contiguous) in the points file.
    pts_off: u64,
    pts_len: u64,
}

impl<const D: usize> NodeRec<D> {
    /// The bounding box of the subtree's points.
    pub(crate) fn cell(&self) -> Aabb<D> {
        Aabb { lo: self.lo, hi: self.hi }
    }

    /// The subtree's range in the points file.
    pub(crate) fn pts(&self) -> Range<usize> {
        self.pts_off as usize..(self.pts_off + self.pts_len) as usize
    }

    /// The child block in the node file (empty for a leaf).
    pub(crate) fn children(&self) -> Range<usize> {
        self.child_start as usize..self.child_start as usize + self.child_count as usize
    }
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
pub(crate) type PtRec<const D: usize> = ([i64; D], u32);

/// Child ranges of a node's points (reordering them), or `None` for a leaf.
pub(crate) type Split<'a, const D: usize> =
    dyn FnMut(&mut [PtRec<D>]) -> Option<Vec<Range<usize>>> + 'a;

/// Lay out a tree over `items`. The root is node 0, each node's children
/// form one contiguous block in creation order, and the points go out in
/// DFS order, so every subtree's points are contiguous. `attach(points,
/// children)` runs once a node's subtree is laid out (a leaf as soon as it
/// is reached, an internal node after its last child) with the subtree's
/// points in DFS order and its child count; its result is stored with the
/// node.
pub(crate) fn lay_out<const D: usize, A>(
    items: &mut [PtRec<D>],
    split: &mut Split<'_, D>,
    attach: &mut dyn FnMut(&[PtRec<D>], usize) -> A,
) -> (Vec<(NodeRec<D>, A)>, Vec<PtRec<D>>) {
    #[allow(clippy::type_complexity)]
    fn place<const D: usize, A>(
        items: &mut [PtRec<D>],
        ni: usize,
        nodes: &mut Vec<Option<(NodeRec<D>, A)>>,
        pts: &mut Vec<PtRec<D>>,
        split: &mut Split<'_, D>,
        attach: &mut dyn FnMut(&[PtRec<D>], usize) -> A,
    ) {
        let (lo, hi) = bbox(items);
        let pts_off = pts.len();
        let (child_start, child_count) = match split(items) {
            None => {
                pts.extend_from_slice(items);
                (0, 0)
            }
            Some(ranges) => {
                let start = nodes.len();
                nodes.resize_with(start + ranges.len(), || None);
                for (k, r) in ranges.iter().enumerate() {
                    place(&mut items[r.clone()], start + k, nodes, pts, split, attach);
                }
                (start, ranges.len())
            }
        };
        let node = NodeRec {
            lo,
            hi,
            child_start: child_start as u64,
            child_count: child_count as u32,
            pts_off: pts_off as u64,
            pts_len: (pts.len() - pts_off) as u64,
        };
        nodes[ni] = Some((node, attach(&pts[pts_off..], child_count)));
    }

    let mut nodes = Vec::new();
    let mut pts = Vec::with_capacity(items.len());
    if !items.is_empty() {
        nodes.push(None);
        place(items, 0, &mut nodes, &mut pts, split, attach);
    }
    (nodes.into_iter().map(|n| n.expect("every node is placed")).collect(), pts)
}

fn bbox<const D: usize>(items: &[PtRec<D>]) -> ([i64; D], [i64; D]) {
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

/// Balanced kd ranges: `splits` rounds of median halvings, cycling the
/// axes from x; a range of one point is not split further.
pub(crate) fn kd_split<const D: usize>(items: &mut [PtRec<D>], splits: usize) -> Vec<Range<usize>> {
    let mut ranges: Vec<Range<usize>> = std::iter::once(0..items.len()).collect();
    for round in 0..splits {
        let mut next = Vec::with_capacity(2 * ranges.len());
        for r in ranges {
            if r.len() <= 1 {
                next.push(r);
                continue;
            }
            let mid = r.len() / 2;
            items[r.clone()].select_nth_unstable_by_key(mid, |(c, id)| (c[round % D], *id));
            next.extend([r.start..r.start + mid, r.start + mid..r.end]);
        }
        ranges = next;
    }
    ranges
}

/// Read `node`'s subtree points, one IO per page.
pub(crate) fn read_points<const D: usize>(
    points: &VecFile<PtRec<D>>,
    node: &NodeRec<D>,
) -> Vec<PtRec<D>> {
    let mut buf = Vec::with_capacity(node.pts_len as usize);
    points.read_range(node.pts(), &mut buf);
    buf
}

/// Deepest root-to-leaf path [`verify`] accepts; `build` makes trees of
/// depth O(log n), far shallower.
const MAX_DEPTH: usize = 64;

/// Read the node pages once, on a throwaway fork so no scope's stats,
/// cache or frames move, and walk the tree from the root without
/// recursion, checking what a query relies on: every child block lies
/// inside the node file, no node is reached twice (no cycle, no shared
/// child), no path is deeper than `MAX_DEPTH`, every point range lies
/// inside the point file, the root holds points `0..n` and each node's
/// children tile its range in order. `node` reads the node out of a
/// record, and `attached(i, record)` checks what node `i` carries once
/// its ranges hold.
pub(crate) fn verify<const D: usize, R: Record>(
    nodes: &VecFile<R>,
    points: &VecFile<PtRec<D>>,
    n: usize,
    node: impl Fn(&R) -> NodeRec<D>,
    mut attached: impl FnMut(usize, &R) -> Result<(), String>,
) -> Result<(), String> {
    if n == 0 {
        return Ok(()); // queries never read a node
    }
    let recs = nodes.with_handle(&nodes.device().fork()).read_all();
    let Some(root) = recs.first().map(&node) else {
        return Err(format!("{n} points but no root node"));
    };
    let in_file = |ni: usize, v: &NodeRec<D>| {
        let (off, len) = (v.pts_off, v.pts_len);
        match off.checked_add(len) {
            Some(end) if end <= points.len() as u64 => Ok(()),
            _ => Err(format!("node {ni} holds points {off}+{len} of {}", points.len())),
        }
    };
    in_file(0, &root)?;
    if (root.pts_off, root.pts_len) != (0, n as u64) {
        return Err(format!("the root holds points {}+{}, not 0+{n}", root.pts_off, root.pts_len));
    }
    let mut seen = vec![false; recs.len()];
    seen[0] = true;
    let mut stack = vec![(0usize, 1usize)];
    while let Some((ni, depth)) = stack.pop() {
        if depth > MAX_DEPTH {
            return Err(format!("node {ni} lies deeper than {MAX_DEPTH} levels"));
        }
        let v = node(&recs[ni]);
        let (start, count) = (v.child_start, u64::from(v.child_count));
        if start.checked_add(count).is_none_or(|end| end > recs.len() as u64) {
            return Err(format!("node {ni} has children {start}+{count} of {}", recs.len()));
        }
        // The children tile the node's range in order: each starts where
        // the one before it ends, the first at the node's start.
        let mut at = v.pts_off;
        for ci in v.children() {
            if std::mem::replace(&mut seen[ci], true) {
                return Err(format!("node {ci} is reached twice"));
            }
            let c = node(&recs[ci]);
            in_file(ci, &c)?;
            if c.pts_off != at {
                return Err(format!("node {ci} starts at point {}, not {at}", c.pts_off));
            }
            at += c.pts_len;
        }
        if count > 0 && at != v.pts_off + v.pts_len {
            let end = v.pts_off + v.pts_len;
            return Err(format!("the children of node {ni} end at point {at}, not {end}"));
        }
        attached(ni, &recs[ni])?;
        stack.extend(v.children().rev().map(|ci| (ci, depth + 1)));
    }
    Ok(())
}

/// Which balanced partition a node uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// Cyclic median kd-splits into 2^(D·s) boxes.
    KdMedian,
    /// Willard ham-sandwich 4-way partition (D = 2 only); nodes larger than
    /// `HS_CUTOFF` points, or degenerate ones, fall back to kd.
    HamSandwich,
}

/// Node size above which HamSandwich falls back to kd (median-level walks
/// on huge nodes are expensive; see DESIGN.md §3.4).
const HS_CUTOFF: usize = 1 << 15;

/// Construction parameters. Leaves hold up to B points.
#[derive(Debug, Clone, Copy)]
pub struct PTreeConfig {
    pub partitioner: Partitioner,
    /// Target fanout (0 ⇒ 4·B). A node of n_v points caps its target at
    /// ⌈n_v / B⌉ (and raises it to at least 2), then splits into up to
    /// 2^(D·s) cells for the largest s ≥ 1 with 2^(D·s) ≤ target.
    pub fanout: usize,
}

impl Default for PTreeConfig {
    fn default() -> Self {
        PTreeConfig { partitioner: Partitioner::KdMedian, fanout: 0 }
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
        let target = if cfg.fanout > 0 { cfg.fanout } else { 4 * b_pts };
        let kd = |items: &mut [PtRec<D>]| {
            let target = target.min(items.len().div_ceil(b_pts)).max(2);
            // Depth: largest s with 2^(D·s) ≤ target, at least one split.
            let mut depth = 1usize;
            while (1usize << ((depth + 1) * D.min(20))) <= target {
                depth += 1;
            }
            kd_split(items, depth * D)
        };
        let mut items: Vec<PtRec<D>> =
            points.iter().enumerate().map(|(i, p)| (p.c, i as u32)).collect();
        let (nodes, pts) = lay_out(
            &mut items,
            &mut |items| {
                (items.len() > b_pts).then(|| match cfg.partitioner {
                    Partitioner::HamSandwich if D == 2 && items.len() <= HS_CUTOFF => {
                        Self::ham_sandwich_ranges(items).unwrap_or_else(|| kd(items))
                    }
                    _ => kd(items),
                })
            },
            &mut |_, _| (),
        );
        let nodes: Vec<NodeRec<D>> = nodes.into_iter().map(|(node, ())| node).collect();
        PartitionTree {
            dev: dev.clone(),
            nodes: VecFile::from_slice(dev, &nodes),
            points: VecFile::from_slice(dev, &pts),
            n: points.len(),
            pages_at_build_end: dev.pages_allocated(),
        }
    }

    /// Willard 4-way ranges (D == 2): lexicographic median split, then a
    /// ham-sandwich cut of the two halves.
    fn ham_sandwich_ranges(items: &mut [PtRec<D>]) -> Option<Vec<Range<usize>>> {
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

    /// Rebuild from metadata written by [`Self::save`]. A node layout a
    /// query could not walk (see `verify`) is a [`SnapshotError::Meta`],
    /// never a panic or a stack overflow at a later query.
    pub fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<PartitionTree<D>, SnapshotError> {
        let d = r.usize()?;
        if d != D {
            return Err(r.error(format!("dimension mismatch: saved {d}, loading {D}")));
        }
        let tree = PartitionTree {
            dev: h.clone(),
            nodes: VecFile::load(h, r)?,
            points: VecFile::load(h, r)?,
            n: r.usize()?,
            pages_at_build_end: r.u64()?,
        };
        verify(&tree.nodes, &tree.points, tree.n, |&node| node, |_, _| Ok(()))
            .map_err(|detail| r.error(detail))?;
        Ok(tree)
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
        match h.classify_box(&node.cell()) {
            BoxSide::FullyAbove if !inclusive => {}
            BoxSide::FullyBelow => {
                *count += node.pts_len;
            }
            _ if node.children().is_empty() => {
                for (c, _) in read_points(&self.points, &node) {
                    let s = h.slack(&PointD::new(c));
                    if if inclusive { s >= 0 } else { s > 0 } {
                        *count += 1;
                    }
                }
            }
            _ => {
                for ci in node.children() {
                    self.count_visit(ci, h, inclusive, count);
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
        match classify(&node.cell()) {
            Visit::Skip => {}
            Visit::ReportAll => {
                out.extend(read_points(&self.points, &node).into_iter().map(|(_, id)| id));
            }
            Visit::Recurse if node.children().is_empty() => {
                for (c, id) in read_points(&self.points, &node) {
                    if test(&PointD::new(c)) {
                        out.push(id);
                    }
                }
            }
            Visit::Recurse => {
                for ci in node.children() {
                    self.visit(ci, out, classify, test);
                }
            }
        }
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
