//! Space/query trade-offs in R³ (Section 6).
//!
//! * [`HybridTree3`] (Theorem 6.1): a partition tree whose recursion stops
//!   at N_v ≤ B^a; each leaf stores its points in a Section 4 structure.
//!   Space O(n log₂ B)-ish, queries O((n/B^{a-1})^{2/3+ε} + t) expected.
//! * [`ShallowTree3`] (Theorem 6.3): a partition tree where every internal
//!   node carries a *secondary* plain partition tree over its whole subtree;
//!   when a query plane crosses more than κ·log₂ r_v child cells, it is not
//!   shallow at this node — at least a constant fraction of the subtree lies
//!   below it — and the secondary structure reports the subtree in O(t_v)
//!   IOs. Space O(n log_B n), queries O(n^ε + t) for the paper's partitions
//!   (measured for our substituted partitioner, DESIGN.md §3.4/3.5).

use lcrs_extmem::{DeviceHandle, MetaReader, MetaWriter, Record, SnapshotError, VecFile};
use lcrs_geom::point::{Aabb, BoxSide, HyperplaneD, PointD};

use crate::cost::{CostHint, CostShape};
use crate::hs3d::{HalfspaceRS3, Hs3dConfig};
use crate::ptree::{PTreeConfig, PartitionTree, Partitioner};

/// Node record shared by both trees (3D cells).
#[derive(Debug, Clone, Copy)]
struct Node3 {
    lo: [i64; 3],
    hi: [i64; 3],
    child_start: u64,
    child_count: u32,
    pts_off: u64,
    pts_len: u64,
    /// Hybrid: leaf-structure index; Shallow: secondary-structure index
    /// (`u32::MAX` = none).
    aux: u32,
}

impl Record for Node3 {
    const SIZE: usize = 48 + 28 + 4;
    fn store(&self, buf: &mut [u8]) {
        self.lo.store(buf);
        self.hi.store(&mut buf[24..]);
        self.child_start.store(&mut buf[48..]);
        self.child_count.store(&mut buf[56..]);
        self.pts_off.store(&mut buf[60..]);
        self.pts_len.store(&mut buf[68..]);
        self.aux.store(&mut buf[76..]);
    }
    fn load(buf: &[u8]) -> Self {
        Node3 {
            lo: <[i64; 3]>::load(buf),
            hi: <[i64; 3]>::load(&buf[24..]),
            child_start: u64::load(&buf[48..]),
            child_count: u32::load(&buf[56..]),
            pts_off: u64::load(&buf[60..]),
            pts_len: u64::load(&buf[68..]),
            aux: u32::load(&buf[76..]),
        }
    }
}

type PtRec3 = ([i64; 3], u32);
const NOAUX: u32 = u32::MAX;

fn bbox3(items: &[PtRec3]) -> ([i64; 3], [i64; 3]) {
    let mut lo = items[0].0;
    let mut hi = items[0].0;
    for (c, _) in &items[1..] {
        for i in 0..3 {
            lo[i] = lo[i].min(c[i]);
            hi[i] = hi[i].max(c[i]);
        }
    }
    (lo, hi)
}

/// Balanced kd ranges over 3D records (median splits cycling axes).
fn kd_ranges3(items: &mut [PtRec3], fanout: usize) -> Vec<std::ops::Range<usize>> {
    let mut splits = 1usize;
    while (1usize << (splits + 1)) <= fanout && splits < 20 {
        splits += 1;
    }
    let mut out = Vec::new();
    fn halve(
        items: &mut [PtRec3],
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
        let (l, r) = items.split_at_mut(mid);
        halve(l, base, splits_left - 1, (axis + 1) % 3, out);
        halve(r, base + mid, splits_left - 1, (axis + 1) % 3, out);
    }
    halve(items, 0, splits, 0, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Theorem 6.1: hybrid tree.
// ---------------------------------------------------------------------------

/// Configuration for [`HybridTree3`].
#[derive(Debug, Clone, Copy)]
pub struct HybridConfig {
    /// Recursion stops at N_v ≤ B^a (paper's a > 1).
    pub a: f64,
    /// Internal fanout (0 ⇒ 8).
    pub fanout: usize,
    /// Parameters of the leaf Section 4 structures.
    pub hs3: Hs3dConfig,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig { a: 1.5, fanout: 8, hs3: Hs3dConfig { copies: 1, ..Default::default() } }
    }
}

/// The Theorem 6.1 structure.
pub struct HybridTree3 {
    dev: DeviceHandle,
    nodes: VecFile<Node3>,
    points: VecFile<PtRec3>,
    leaves: Vec<HalfspaceRS3>,
    n: usize,
    pages_at_build_end: u64,
}

impl HybridTree3 {
    pub fn build(dev: &DeviceHandle, points: &[(i64, i64, i64)], cfg: HybridConfig) -> HybridTree3 {
        let b = dev.records_per_page(<PtRec3 as Record>::SIZE);
        let threshold = ((b as f64).powf(cfg.a).ceil() as usize).max(2 * b).max(16);
        let fanout = if cfg.fanout > 0 { cfg.fanout } else { 8 };
        let mut items: Vec<PtRec3> =
            points.iter().enumerate().map(|(i, &(x, y, z))| ([x, y, z], i as u32)).collect();
        let mut nodes: Vec<Node3> = Vec::new();
        let mut dfs: Vec<PtRec3> = Vec::with_capacity(items.len());
        let mut leaves: Vec<HalfspaceRS3> = Vec::new();

        fn build_node(
            dev: &DeviceHandle,
            items: &mut [PtRec3],
            ni: usize,
            nodes: &mut Vec<Node3>,
            dfs: &mut Vec<PtRec3>,
            leaves: &mut Vec<HalfspaceRS3>,
            threshold: usize,
            fanout: usize,
            hs3: Hs3dConfig,
        ) {
            let (lo, hi) = bbox3(items);
            let pts_off = dfs.len() as u64;
            if items.len() <= threshold {
                // Leaf: a Section 4 structure over the subset.
                let subset: Vec<(i64, i64, i64)> =
                    items.iter().map(|(c, _)| (c[0], c[1], c[2])).collect();
                let hs = HalfspaceRS3::build(dev, &subset, hs3);
                let aux = leaves.len() as u32;
                leaves.push(hs);
                dfs.extend_from_slice(items);
                nodes[ni] = Node3 {
                    lo,
                    hi,
                    child_start: 0,
                    child_count: 0,
                    pts_off,
                    pts_len: items.len() as u64,
                    aux,
                };
                return;
            }
            let ranges = kd_ranges3(items, fanout);
            let child_start = nodes.len() as u64;
            for _ in 0..ranges.len() {
                nodes.push(Node3 {
                    lo: [0; 3],
                    hi: [0; 3],
                    child_start: 0,
                    child_count: 0,
                    pts_off: 0,
                    pts_len: 0,
                    aux: NOAUX,
                });
            }
            for (k, r) in ranges.iter().enumerate() {
                build_node(
                    dev,
                    &mut items[r.clone()],
                    child_start as usize + k,
                    nodes,
                    dfs,
                    leaves,
                    threshold,
                    fanout,
                    hs3,
                );
            }
            nodes[ni] = Node3 {
                lo,
                hi,
                child_start,
                child_count: ranges.len() as u32,
                pts_off,
                pts_len: dfs.len() as u64 - pts_off,
                aux: NOAUX,
            };
        }

        if !items.is_empty() {
            nodes.push(Node3 {
                lo: [0; 3],
                hi: [0; 3],
                child_start: 0,
                child_count: 0,
                pts_off: 0,
                pts_len: 0,
                aux: NOAUX,
            });
            build_node(
                dev,
                &mut items,
                0,
                &mut nodes,
                &mut dfs,
                &mut leaves,
                threshold,
                fanout,
                cfg.hs3,
            );
        }
        HybridTree3 {
            dev: dev.clone(),
            nodes: VecFile::from_slice(dev, &nodes),
            points: VecFile::from_slice(dev, &dfs),
            leaves,
            n: points.len(),
            pages_at_build_end: dev.pages_allocated(),
        }
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub fn pages(&self) -> u64 {
        self.pages_at_build_end
    }

    /// The Theorem 6.1 hybrid-tree query bound — a shallow partition-tree
    /// descent into Section 4 leaf structures, O(n^(1/3) polylog n + t/B)
    /// on the paper's trade-off curve — as a planner hint (DESIGN.md §10).
    pub fn cost_hint(&self) -> CostHint {
        CostHint::new(CostShape::Tradeoff { num: 1, den: 3 }, self.len())
    }

    /// The device this structure lives on (for scoped IO measurement).
    pub fn device(&self) -> &DeviceHandle {
        &self.dev
    }

    /// The same on-disk structure viewed through `h` (own cache + stats).
    pub fn with_handle(&self, h: &DeviceHandle) -> HybridTree3 {
        HybridTree3 {
            dev: h.clone(),
            nodes: self.nodes.with_handle(h),
            points: self.points.with_handle(h),
            leaves: self.leaves.iter().map(|l| l.with_handle(h)).collect(),
            n: self.n,
            pages_at_build_end: self.pages_at_build_end,
        }
    }

    /// A reader clone on a fresh handle scope over the same pages — each
    /// parallel worker calls this to get its own LRU and IO attribution.
    pub fn fork_reader(&self) -> HybridTree3 {
        self.with_handle(&self.dev.fork())
    }

    /// Serialize the tree's metadata, recursing into every leaf's
    /// Section 4 structure; page data is captured by
    /// [`lcrs_extmem::Device::freeze_to_path`].
    pub fn save(&self, w: &mut MetaWriter) {
        self.nodes.save(w);
        self.points.save(w);
        w.seq(self.leaves.len());
        for l in &self.leaves {
            l.save(w);
        }
        w.usize(self.n);
        w.u64(self.pages_at_build_end);
    }

    /// Rebuild from metadata written by [`Self::save`].
    pub fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<HybridTree3, SnapshotError> {
        let nodes = VecFile::load(h, r)?;
        let points = VecFile::load(h, r)?;
        let n_leaves = r.seq()?;
        let mut leaves = Vec::with_capacity(n_leaves);
        for _ in 0..n_leaves {
            leaves.push(HalfspaceRS3::load(h, r)?);
        }
        Ok(HybridTree3 {
            dev: h.clone(),
            nodes,
            points,
            leaves,
            n: r.usize()?,
            pages_at_build_end: r.u64()?,
        })
    }

    /// Report points strictly below `z = u·x + v·y + w` (`inclusive` adds
    /// points on it).
    pub fn query_below(&self, u: i64, v: i64, w: i64, inclusive: bool) -> Vec<u32> {
        let mut out = Vec::new();
        if self.n > 0 {
            let h: HyperplaneD<3> = HyperplaneD::new([w, u, v]);
            self.visit(0, &h, u, v, w, inclusive, &mut out);
        }
        out
    }

    fn visit(
        &self,
        ni: usize,
        h: &HyperplaneD<3>,
        u: i64,
        v: i64,
        w: i64,
        inclusive: bool,
        out: &mut Vec<u32>,
    ) {
        let node = self.nodes.get(ni);
        let cell = Aabb { lo: node.lo, hi: node.hi };
        match h.classify_box(&cell) {
            BoxSide::FullyAbove if !inclusive => {}
            BoxSide::FullyBelow => {
                let mut buf: Vec<PtRec3> = Vec::with_capacity(node.pts_len as usize);
                self.points.read_range(
                    node.pts_off as usize..(node.pts_off + node.pts_len) as usize,
                    &mut buf,
                );
                out.extend(buf.into_iter().map(|(_, id)| id));
            }
            _ => {
                if node.child_count > 0 {
                    for k in 0..node.child_count as usize {
                        self.visit(node.child_start as usize + k, h, u, v, w, inclusive, out);
                    }
                } else {
                    // Leaf: delegate to the Section 4 structure, then remap
                    // local ids through the DFS range.
                    let local = self.leaves[node.aux as usize].query_below(u, v, w, inclusive);
                    if !local.is_empty() {
                        let mut buf: Vec<PtRec3> = Vec::with_capacity(node.pts_len as usize);
                        self.points.read_range(
                            node.pts_off as usize..(node.pts_off + node.pts_len) as usize,
                            &mut buf,
                        );
                        out.extend(local.into_iter().map(|j| buf[j as usize].1));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Theorem 6.3: shallow-style tree with secondary structures.
// ---------------------------------------------------------------------------

/// Configuration for [`ShallowTree3`].
#[derive(Debug, Clone, Copy)]
pub struct ShallowConfig {
    /// Crossing threshold multiplier κ: more than ⌈κ·log₂ r_v⌉ crossed
    /// children ⇒ the plane is treated as non-shallow at v.
    pub kappa: f64,
    /// Internal fanout (0 ⇒ 8).
    pub fanout: usize,
    /// Leaf capacity (0 ⇒ B).
    pub leaf_capacity: usize,
}

impl Default for ShallowConfig {
    fn default() -> Self {
        ShallowConfig { kappa: 2.0, fanout: 8, leaf_capacity: 0 }
    }
}

/// The Theorem 6.3 structure.
pub struct ShallowTree3 {
    dev: DeviceHandle,
    nodes: VecFile<Node3>,
    points: VecFile<PtRec3>,
    secondaries: Vec<PartitionTree<3>>,
    threshold: Vec<usize>,
    n: usize,
    pages_at_build_end: u64,
}

impl ShallowTree3 {
    pub fn build(
        dev: &DeviceHandle,
        points: &[(i64, i64, i64)],
        cfg: ShallowConfig,
    ) -> ShallowTree3 {
        let b = dev.records_per_page(<PtRec3 as Record>::SIZE);
        let leaf_cap = if cfg.leaf_capacity > 0 { cfg.leaf_capacity } else { b }.max(1);
        let fanout = if cfg.fanout > 0 { cfg.fanout } else { 8 };
        let kappa = cfg.kappa.max(0.1);
        let mut items: Vec<PtRec3> =
            points.iter().enumerate().map(|(i, &(x, y, z))| ([x, y, z], i as u32)).collect();
        let mut nodes: Vec<Node3> = Vec::new();
        let mut dfs: Vec<PtRec3> = Vec::with_capacity(items.len());
        let mut secondaries: Vec<PartitionTree<3>> = Vec::new();
        let mut threshold: Vec<usize> = Vec::new();

        #[allow(clippy::too_many_arguments)]
        fn build_node(
            dev: &DeviceHandle,
            items: &mut [PtRec3],
            ni: usize,
            nodes: &mut Vec<Node3>,
            dfs: &mut Vec<PtRec3>,
            secondaries: &mut Vec<PartitionTree<3>>,
            threshold: &mut Vec<usize>,
            leaf_cap: usize,
            fanout: usize,
            kappa: f64,
        ) {
            let (lo, hi) = bbox3(items);
            let pts_off = dfs.len() as u64;
            if items.len() <= leaf_cap {
                dfs.extend_from_slice(items);
                nodes[ni] = Node3 {
                    lo,
                    hi,
                    child_start: 0,
                    child_count: 0,
                    pts_off,
                    pts_len: items.len() as u64,
                    aux: NOAUX,
                };
                return;
            }
            // Secondary non-shallow structure over the whole subtree, built
            // on the DFS-ordered subset so reported local ids map straight
            // into the DFS range.
            let ranges = kd_ranges3(items, fanout);
            let child_start = nodes.len() as u64;
            for _ in 0..ranges.len() {
                nodes.push(Node3 {
                    lo: [0; 3],
                    hi: [0; 3],
                    child_start: 0,
                    child_count: 0,
                    pts_off: 0,
                    pts_len: 0,
                    aux: NOAUX,
                });
            }
            for (k, r) in ranges.iter().enumerate() {
                build_node(
                    dev,
                    &mut items[r.clone()],
                    child_start as usize + k,
                    nodes,
                    dfs,
                    secondaries,
                    threshold,
                    leaf_cap,
                    fanout,
                    kappa,
                );
            }
            let pts_len = dfs.len() as u64 - pts_off;
            let subset: Vec<PointD<3>> =
                dfs[pts_off as usize..].iter().map(|(c, _)| PointD::new(*c)).collect();
            let sec = PartitionTree::build(
                dev,
                &subset,
                PTreeConfig { partitioner: Partitioner::KdMedian, ..Default::default() },
            );
            let aux = secondaries.len() as u32;
            secondaries.push(sec);
            let r_v = ranges.len().max(2);
            threshold.push((kappa * (r_v as f64).log2()).ceil() as usize);
            nodes[ni] = Node3 {
                lo,
                hi,
                child_start,
                child_count: ranges.len() as u32,
                pts_off,
                pts_len,
                aux,
            };
        }

        if !items.is_empty() {
            nodes.push(Node3 {
                lo: [0; 3],
                hi: [0; 3],
                child_start: 0,
                child_count: 0,
                pts_off: 0,
                pts_len: 0,
                aux: NOAUX,
            });
            build_node(
                dev,
                &mut items,
                0,
                &mut nodes,
                &mut dfs,
                &mut secondaries,
                &mut threshold,
                leaf_cap,
                fanout,
                kappa,
            );
        }
        ShallowTree3 {
            dev: dev.clone(),
            nodes: VecFile::from_slice(dev, &nodes),
            points: VecFile::from_slice(dev, &dfs),
            secondaries,
            threshold,
            n: points.len(),
            pages_at_build_end: dev.pages_allocated(),
        }
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub fn pages(&self) -> u64 {
        self.pages_at_build_end
    }

    /// The Theorem 6.3 shallow-tree query bound — O(n^(2/3+δ) + t/B) from
    /// near-linear space — as a planner hint (DESIGN.md §10).
    pub fn cost_hint(&self) -> CostHint {
        CostHint::new(CostShape::Tradeoff { num: 2, den: 3 }, self.len())
    }

    /// The device this structure lives on (for scoped IO measurement).
    pub fn device(&self) -> &DeviceHandle {
        &self.dev
    }

    /// The same on-disk structure viewed through `h` (own cache + stats).
    pub fn with_handle(&self, h: &DeviceHandle) -> ShallowTree3 {
        ShallowTree3 {
            dev: h.clone(),
            nodes: self.nodes.with_handle(h),
            points: self.points.with_handle(h),
            secondaries: self.secondaries.iter().map(|t| t.with_handle(h)).collect(),
            threshold: self.threshold.clone(),
            n: self.n,
            pages_at_build_end: self.pages_at_build_end,
        }
    }

    /// A reader clone on a fresh handle scope over the same pages — each
    /// parallel worker calls this to get its own LRU and IO attribution.
    pub fn fork_reader(&self) -> ShallowTree3 {
        self.with_handle(&self.dev.fork())
    }

    /// Serialize the tree's metadata, recursing into every secondary
    /// partition tree; page data is captured by
    /// [`lcrs_extmem::Device::freeze_to_path`].
    pub fn save(&self, w: &mut MetaWriter) {
        self.nodes.save(w);
        self.points.save(w);
        w.seq(self.secondaries.len());
        for s in &self.secondaries {
            s.save(w);
        }
        w.seq(self.threshold.len());
        for &t in &self.threshold {
            w.usize(t);
        }
        w.usize(self.n);
        w.u64(self.pages_at_build_end);
    }

    /// Rebuild from metadata written by [`Self::save`].
    pub fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<ShallowTree3, SnapshotError> {
        let nodes = VecFile::load(h, r)?;
        let points = VecFile::load(h, r)?;
        let n_secondaries = r.seq()?;
        let mut secondaries = Vec::with_capacity(n_secondaries);
        for _ in 0..n_secondaries {
            secondaries.push(PartitionTree::<3>::load(h, r)?);
        }
        let n_thresholds = r.seq()?;
        let mut threshold = Vec::with_capacity(n_thresholds);
        for _ in 0..n_thresholds {
            threshold.push(r.usize()?);
        }
        if threshold.len() != secondaries.len() {
            return Err(r.error("secondaries and thresholds must be parallel"));
        }
        Ok(ShallowTree3 {
            dev: h.clone(),
            nodes,
            points,
            secondaries,
            threshold,
            n: r.usize()?,
            pages_at_build_end: r.u64()?,
        })
    }

    pub fn query_below(&self, u: i64, v: i64, w: i64, inclusive: bool) -> Vec<u32> {
        let mut out = Vec::new();
        if self.n > 0 {
            let h: HyperplaneD<3> = HyperplaneD::new([w, u, v]);
            self.visit(0, &h, inclusive, &mut out);
        }
        out
    }

    fn report_range(
        &self,
        off: u64,
        len: u64,
        h: &HyperplaneD<3>,
        filter: bool,
        inclusive: bool,
        out: &mut Vec<u32>,
    ) {
        let mut buf: Vec<PtRec3> = Vec::with_capacity(len as usize);
        self.points.read_range(off as usize..(off + len) as usize, &mut buf);
        for (c, id) in buf {
            if !filter || {
                let s = h.slack(&PointD::new(c));
                if inclusive {
                    s >= 0
                } else {
                    s > 0
                }
            } {
                out.push(id);
            }
        }
    }

    fn visit(&self, ni: usize, h: &HyperplaneD<3>, inclusive: bool, out: &mut Vec<u32>) {
        let node = self.nodes.get(ni);
        let cell = Aabb { lo: node.lo, hi: node.hi };
        match h.classify_box(&cell) {
            BoxSide::FullyAbove if !inclusive => return,
            BoxSide::FullyBelow => {
                self.report_range(node.pts_off, node.pts_len, h, false, inclusive, out);
                return;
            }
            _ => {}
        }
        if node.child_count == 0 {
            self.report_range(node.pts_off, node.pts_len, h, true, inclusive, out);
            return;
        }
        // Count crossed children first (their descriptors share pages, so
        // this is O(1) IOs per node).
        let mut crossed: Vec<usize> = Vec::new();
        let mut below: Vec<usize> = Vec::new();
        for k in 0..node.child_count as usize {
            let ci = node.child_start as usize + k;
            let c = self.nodes.get(ci);
            match h.classify_box(&Aabb { lo: c.lo, hi: c.hi }) {
                BoxSide::FullyBelow => below.push(ci),
                BoxSide::FullyAbove if !inclusive => {}
                _ => crossed.push(ci),
            }
        }
        if crossed.len() > self.threshold[node.aux as usize] {
            // Not shallow at this node: answer with the secondary structure
            // (its input was the DFS slice, so local id j ↔ pts_off + j,
            // and the id is read back from the DFS file).
            let local = self.secondaries[node.aux as usize].query_halfspace(h, inclusive);
            if !local.is_empty() {
                let mut buf: Vec<PtRec3> = Vec::with_capacity(node.pts_len as usize);
                self.points.read_range(
                    node.pts_off as usize..(node.pts_off + node.pts_len) as usize,
                    &mut buf,
                );
                out.extend(local.into_iter().map(|j| buf[j as usize].1));
            }
            return;
        }
        for ci in below {
            let c = self.nodes.get(ci);
            self.report_range(c.pts_off, c.pts_len, h, false, inclusive, out);
        }
        for ci in crossed {
            self.visit(ci, h, inclusive, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrs_extmem::{Device, DeviceConfig};

    fn pseudo3(n: usize, seed: u64, range: i64) -> Vec<(i64, i64, i64)> {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as i64).rem_euclid(2 * range) - range
        };
        (0..n).map(|_| (next(), next(), next())).collect()
    }

    fn brute(points: &[(i64, i64, i64)], u: i64, v: i64, w: i64, inclusive: bool) -> Vec<u32> {
        let mut r: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, &(x, y, z))| {
                let rhs = u as i128 * x as i128 + v as i128 * y as i128 + w as i128;
                if inclusive {
                    z as i128 <= rhs
                } else {
                    (z as i128) < rhs
                }
            })
            .map(|(i, _)| i as u32)
            .collect();
        r.sort_unstable();
        r
    }

    #[test]
    fn hybrid_matches_brute_force() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let pts = pseudo3(1500, 42, 100_000);
        let t = HybridTree3::build(&dev, &pts, HybridConfig::default());
        assert!(!t.leaves.is_empty());
        let mut s = 7u64;
        let mut next = move || {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((s >> 33) as i64).rem_euclid(2000) - 1000
        };
        for k in 0..30 {
            let (u, v, w) = (next(), next(), next() * 500);
            let inclusive = k % 2 == 0;
            let mut got = t.query_below(u, v, w, inclusive);
            got.sort_unstable();
            assert_eq!(got, brute(&pts, u, v, w, inclusive));
        }
    }

    #[test]
    fn hybrid_parameter_sweep() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let pts = pseudo3(600, 5, 50_000);
        for a in [1.2f64, 1.8] {
            let t = HybridTree3::build(&dev, &pts, HybridConfig { a, ..Default::default() });
            let mut got = t.query_below(3, -2, 1000, false);
            got.sort_unstable();
            assert_eq!(got, brute(&pts, 3, -2, 1000, false), "a={a}");
        }
    }

    #[test]
    fn shallow_matches_brute_force() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let pts = pseudo3(1200, 11, 100_000);
        let t = ShallowTree3::build(&dev, &pts, ShallowConfig::default());
        assert!(!t.secondaries.is_empty());
        let mut s = 13u64;
        let mut next = move || {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((s >> 33) as i64).rem_euclid(2000) - 1000
        };
        for k in 0..30 {
            let (u, v, w) = (next(), next(), next() * 500);
            let inclusive = k % 2 == 0;
            let mut got = t.query_below(u, v, w, inclusive);
            got.sort_unstable();
            assert_eq!(got, brute(&pts, u, v, w, inclusive));
        }
    }

    #[test]
    fn shallow_secondary_fires_on_deep_planes() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let pts = pseudo3(2000, 17, 10_000);
        // κ only sets the crossing thresholds, so both trees have the same
        // layout: a tiny κ forces the secondary path on nearly every query,
        // a huge one never takes it, and the two must read different pages
        // for the same answer.
        let [(deep, deep_io), (never, never_io)] = [0.1, 1e9].map(|kappa| {
            let t = ShallowTree3::build(&dev, &pts, ShallowConfig { kappa, ..Default::default() });
            let (mut got, io) = dev.measure(|| t.query_below(1, 1, 0, false));
            got.sort_unstable();
            (got, io)
        });
        assert_eq!(deep, brute(&pts, 1, 1, 0, false));
        assert_eq!(never, deep);
        assert_ne!(deep_io.reads, never_io.reads, "expected the non-shallow fallback to fire");
    }

    #[test]
    fn tiny_inputs() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        for n in [0usize, 1, 5] {
            let pts = pseudo3(n, 3 + n as u64, 100);
            let h = HybridTree3::build(&dev, &pts, HybridConfig::default());
            let s = ShallowTree3::build(&dev, &pts, ShallowConfig::default());
            assert_eq!(h.query_below(1, 1, 50, true).len(), brute(&pts, 1, 1, 50, true).len());
            assert_eq!(s.query_below(1, 1, 50, true).len(), brute(&pts, 1, 1, 50, true).len());
        }
    }
}
