//! Space/query trade-offs in R³ (Section 6).
//!
//! Both trees are the Section 5 partition tree ([`crate::ptree`]) laid
//! out by the same builder, with one `u32` stored after each node record
//! that names what is attached there. Each internal node splits its points
//! by three median halvings (x, y, z) into up to 8 children.
//!
//! * [`HybridTree3`] (Theorem 6.1): the recursion stops at N_v ≤ B^a; each
//!   leaf's index names its Section 4 structure over the leaf's points.
//!   Space O(n log₂ B)-ish, queries O((n/B^{a-1})^{2/3+ε} + t) expected.
//! * [`ShallowTree3`] (Theorem 6.3): leaves hold B points, and each
//!   internal node's index names a *secondary* plain partition tree over
//!   its whole subtree and a crossing threshold; when a query plane
//!   crosses more than κ·log₂ r_v child cells, it is not shallow at this
//!   node — at least a constant fraction of the subtree lies below it —
//!   and the secondary structure reports the subtree in O(t_v) IOs. Space
//!   O(n log_B n), queries O(n^ε + t) for the paper's partitions (measured
//!   for our substituted partitioner, DESIGN.md §3.4/3.5).

use lcrs_extmem::{DeviceHandle, MetaReader, MetaWriter, Record, SnapshotError, VecFile};
use lcrs_geom::point::{BoxSide, HyperplaneD, PointD};

use crate::cost::{CostHint, CostShape};
use crate::hs3d::{HalfspaceRS3, Hs3dConfig};
use crate::ptree::{
    kd_split, lay_out, read_points, verify, NodeRec, PTreeConfig, PartitionTree, PtRec,
};

/// A node and the index of what is attached there (`NONE` for nothing).
type Node = (NodeRec<3>, u32);
const NONE: u32 = u32::MAX;

/// Median halvings per internal node: 8 children.
const SPLITS: usize = 3;

/// The layout both trees share: the node file, the DFS-ordered point file
/// and the counts.
struct Layout {
    dev: DeviceHandle,
    nodes: VecFile<Node>,
    points: VecFile<PtRec<3>>,
    n: usize,
    pages_at_build_end: u64,
}

impl Layout {
    /// Lay out `points` with leaves of at most `leaf` points;
    /// `attach(subtree points, children)` builds what a node carries (see
    /// [`lay_out`]) and returns its index.
    fn build(
        dev: &DeviceHandle,
        points: &[(i64, i64, i64)],
        leaf: usize,
        attach: &mut dyn FnMut(&[PtRec<3>], usize) -> u32,
    ) -> Layout {
        let mut items: Vec<PtRec<3>> =
            points.iter().enumerate().map(|(i, &(x, y, z))| ([x, y, z], i as u32)).collect();
        let (nodes, pts) = lay_out(
            &mut items,
            &mut |items| (items.len() > leaf).then(|| kd_split(items, SPLITS)),
            attach,
        );
        Layout {
            dev: dev.clone(),
            nodes: VecFile::from_slice(dev, &nodes),
            points: VecFile::from_slice(dev, &pts),
            n: points.len(),
            pages_at_build_end: dev.pages_allocated(),
        }
    }

    fn with_handle(&self, h: &DeviceHandle) -> Layout {
        Layout {
            dev: h.clone(),
            nodes: self.nodes.with_handle(h),
            points: self.points.with_handle(h),
            n: self.n,
            pages_at_build_end: self.pages_at_build_end,
        }
    }

    /// Write the layout's metadata around the attached structures' (which
    /// `attached` writes).
    fn save(&self, w: &mut MetaWriter, attached: impl FnOnce(&mut MetaWriter)) {
        self.nodes.save(w);
        self.points.save(w);
        attached(w);
        w.usize(self.n);
        w.u64(self.pages_at_build_end);
    }

    /// Read what [`Self::save`] wrote, the attached structures through
    /// `attached`.
    fn load<A>(
        h: &DeviceHandle,
        r: &mut MetaReader,
        attached: impl FnOnce(&mut MetaReader) -> Result<A, SnapshotError>,
    ) -> Result<(Layout, A), SnapshotError> {
        let nodes = VecFile::load(h, r)?;
        let points = VecFile::load(h, r)?;
        let a = attached(r)?;
        let tree =
            Layout { dev: h.clone(), nodes, points, n: r.usize()?, pages_at_build_end: r.u64()? };
        Ok((tree, a))
    }

    /// Walk the layout once ([`verify`]), also checking that every node a
    /// query hands to an attached structure (the leaves if `at_leaves`,
    /// else the internal nodes) names one of the structures, whose
    /// lengths are `lens`, of its own point count.
    fn verify(&self, what: &str, at_leaves: bool, lens: &[usize]) -> Result<(), String> {
        verify(
            &self.nodes,
            &self.points,
            self.n,
            |&(node, _)| node,
            |i, &(node, ix)| {
                if node.children().is_empty() != at_leaves {
                    return Ok(());
                }
                let pts = node.pts().len();
                match lens.get(ix as usize) {
                    None => Err(format!("node {i} names {what} {ix} of {}", lens.len())),
                    Some(&len) if len != pts => {
                        Err(format!("node {i} holds {pts} points but its {what} {ix} holds {len}"))
                    }
                    Some(_) => Ok(()),
                }
            },
        )
    }

    /// Append the input ids of `local`, ids into `node`'s subtree in DFS
    /// order (as an attached structure built over it reports them).
    fn map_local(&self, node: &NodeRec<3>, local: Vec<u32>, out: &mut Vec<u32>) {
        if !local.is_empty() {
            let buf = read_points(&self.points, node);
            out.extend(local.into_iter().map(|j| buf[j as usize].1));
        }
    }
}

// ---------------------------------------------------------------------------
// Theorem 6.1: hybrid tree.
// ---------------------------------------------------------------------------

/// Configuration for [`HybridTree3`]. Leaves are one-copy Section 4
/// structures (`Hs3dConfig { copies: 1, ..Hs3dConfig::default() }`).
#[derive(Debug, Clone, Copy)]
pub struct HybridConfig {
    /// Recursion stops at N_v ≤ B^a (paper's a > 1).
    pub a: f64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig { a: 1.5 }
    }
}

/// The Theorem 6.1 structure.
pub struct HybridTree3 {
    tree: Layout,
    leaves: Vec<HalfspaceRS3>,
}

impl HybridTree3 {
    pub fn build(dev: &DeviceHandle, points: &[(i64, i64, i64)], cfg: HybridConfig) -> HybridTree3 {
        let b = dev.records_per_page(<PtRec<3> as Record>::SIZE);
        let threshold = ((b as f64).powf(cfg.a).ceil() as usize).max(2 * b).max(16);
        let hs3 = Hs3dConfig { copies: 1, ..Hs3dConfig::default() };
        let mut leaves: Vec<HalfspaceRS3> = Vec::new();
        let tree = Layout::build(dev, points, threshold, &mut |pts, children| {
            if children > 0 {
                return NONE;
            }
            // Leaf: a Section 4 structure over the subset.
            let subset: Vec<(i64, i64, i64)> =
                pts.iter().map(|(c, _)| (c[0], c[1], c[2])).collect();
            leaves.push(HalfspaceRS3::build(dev, &subset, hs3));
            leaves.len() as u32 - 1
        });
        HybridTree3 { tree, leaves }
    }

    pub fn len(&self) -> usize {
        self.tree.n
    }

    pub fn is_empty(&self) -> bool {
        self.tree.n == 0
    }

    pub fn pages(&self) -> u64 {
        self.tree.pages_at_build_end
    }

    /// The Theorem 6.1 hybrid-tree query bound — a shallow partition-tree
    /// descent into Section 4 leaf structures, O(n^(1/3) polylog n + t/B)
    /// on the paper's trade-off curve — as a planner hint (DESIGN.md §10).
    pub fn cost_hint(&self) -> CostHint {
        CostHint::new(CostShape::Tradeoff { num: 1, den: 3 }, self.len())
    }

    /// The device this structure lives on (for scoped IO measurement).
    pub fn device(&self) -> &DeviceHandle {
        &self.tree.dev
    }

    /// The same on-disk structure viewed through `h` (own cache + stats).
    pub fn with_handle(&self, h: &DeviceHandle) -> HybridTree3 {
        HybridTree3 {
            tree: self.tree.with_handle(h),
            leaves: self.leaves.iter().map(|l| l.with_handle(h)).collect(),
        }
    }

    /// A reader clone on a fresh handle scope over the same pages — each
    /// parallel worker calls this to get its own LRU and IO attribution.
    pub fn fork_reader(&self) -> HybridTree3 {
        self.with_handle(&self.tree.dev.fork())
    }

    /// Serialize the tree's metadata, recursing into every leaf's
    /// Section 4 structure; page data is captured by
    /// [`lcrs_extmem::Device::freeze_to_path`].
    pub fn save(&self, w: &mut MetaWriter) {
        self.tree.save(w, |w| {
            w.seq(self.leaves.len());
            for l in &self.leaves {
                l.save(w);
            }
        });
    }

    /// Rebuild from metadata written by [`Self::save`]. A layout a query
    /// could not walk, or a leaf whose index names no structure of its
    /// point count, is a [`SnapshotError::Meta`].
    pub fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<HybridTree3, SnapshotError> {
        let (tree, leaves) = Layout::load(h, r, |r| {
            (0..r.seq()?).map(|_| HalfspaceRS3::load(h, r)).collect::<Result<Vec<_>, _>>()
        })?;
        let lens: Vec<usize> = leaves.iter().map(HalfspaceRS3::len).collect();
        tree.verify("leaf structure", true, &lens).map_err(|detail| r.error(detail))?;
        Ok(HybridTree3 { tree, leaves })
    }

    /// Report points strictly below `z = u·x + v·y + w` (`inclusive` adds
    /// points on it).
    pub fn query_below(&self, u: i64, v: i64, w: i64, inclusive: bool) -> Vec<u32> {
        let mut out = Vec::new();
        if self.tree.n > 0 {
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
        let (node, leaf) = self.tree.nodes.get(ni);
        match h.classify_box(&node.cell()) {
            BoxSide::FullyAbove if !inclusive => {}
            BoxSide::FullyBelow => {
                out.extend(read_points(&self.tree.points, &node).into_iter().map(|(_, id)| id));
            }
            // Leaf: delegate to the Section 4 structure.
            _ if node.children().is_empty() => {
                let local = self.leaves[leaf as usize].query_below(u, v, w, inclusive);
                self.tree.map_local(&node, local, out);
            }
            _ => {
                for ci in node.children() {
                    self.visit(ci, h, u, v, w, inclusive, out);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Theorem 6.3: shallow-style tree with secondary structures.
// ---------------------------------------------------------------------------

/// Configuration for [`ShallowTree3`]. Leaves hold B points.
#[derive(Debug, Clone, Copy)]
pub struct ShallowConfig {
    /// Crossing threshold multiplier κ: more than ⌈κ·log₂ r_v⌉ crossed
    /// children ⇒ the plane is treated as non-shallow at v.
    pub kappa: f64,
}

impl Default for ShallowConfig {
    fn default() -> Self {
        ShallowConfig { kappa: 2.0 }
    }
}

/// The Theorem 6.3 structure.
pub struct ShallowTree3 {
    tree: Layout,
    secondaries: Vec<PartitionTree<3>>,
    threshold: Vec<usize>,
}

impl ShallowTree3 {
    pub fn build(
        dev: &DeviceHandle,
        points: &[(i64, i64, i64)],
        cfg: ShallowConfig,
    ) -> ShallowTree3 {
        let b = dev.records_per_page(<PtRec<3> as Record>::SIZE);
        let kappa = cfg.kappa.max(0.1);
        let mut secondaries: Vec<PartitionTree<3>> = Vec::new();
        let mut threshold: Vec<usize> = Vec::new();
        let tree = Layout::build(dev, points, b, &mut |pts, children| {
            if children == 0 {
                return NONE;
            }
            // Secondary non-shallow structure over the whole subtree, built
            // on the DFS-ordered subset so reported local ids map straight
            // into the DFS range.
            let subset: Vec<PointD<3>> = pts.iter().map(|(c, _)| PointD::new(*c)).collect();
            secondaries.push(PartitionTree::build(dev, &subset, PTreeConfig::default()));
            threshold.push((kappa * (children.max(2) as f64).log2()).ceil() as usize);
            secondaries.len() as u32 - 1
        });
        ShallowTree3 { tree, secondaries, threshold }
    }

    pub fn len(&self) -> usize {
        self.tree.n
    }

    pub fn is_empty(&self) -> bool {
        self.tree.n == 0
    }

    pub fn pages(&self) -> u64 {
        self.tree.pages_at_build_end
    }

    /// The Theorem 6.3 shallow-tree query bound — O(n^(2/3+δ) + t/B) from
    /// near-linear space — as a planner hint (DESIGN.md §10).
    pub fn cost_hint(&self) -> CostHint {
        CostHint::new(CostShape::Tradeoff { num: 2, den: 3 }, self.len())
    }

    /// The device this structure lives on (for scoped IO measurement).
    pub fn device(&self) -> &DeviceHandle {
        &self.tree.dev
    }

    /// The same on-disk structure viewed through `h` (own cache + stats).
    pub fn with_handle(&self, h: &DeviceHandle) -> ShallowTree3 {
        ShallowTree3 {
            tree: self.tree.with_handle(h),
            secondaries: self.secondaries.iter().map(|t| t.with_handle(h)).collect(),
            threshold: self.threshold.clone(),
        }
    }

    /// A reader clone on a fresh handle scope over the same pages — each
    /// parallel worker calls this to get its own LRU and IO attribution.
    pub fn fork_reader(&self) -> ShallowTree3 {
        self.with_handle(&self.tree.dev.fork())
    }

    /// Serialize the tree's metadata, recursing into every secondary
    /// partition tree; page data is captured by
    /// [`lcrs_extmem::Device::freeze_to_path`].
    pub fn save(&self, w: &mut MetaWriter) {
        self.tree.save(w, |w| {
            w.seq(self.secondaries.len());
            for s in &self.secondaries {
                s.save(w);
            }
            w.seq(self.threshold.len());
            for &t in &self.threshold {
                w.usize(t);
            }
        });
    }

    /// Rebuild from metadata written by [`Self::save`]. A layout a query
    /// could not walk, or an internal node whose index names no secondary
    /// of its point count, is a [`SnapshotError::Meta`].
    pub fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<ShallowTree3, SnapshotError> {
        let (tree, (secondaries, threshold)) = Layout::load(h, r, |r| {
            let secondaries = (0..r.seq()?)
                .map(|_| PartitionTree::<3>::load(h, r))
                .collect::<Result<Vec<_>, _>>()?;
            let threshold = (0..r.seq()?).map(|_| r.usize()).collect::<Result<Vec<_>, _>>()?;
            if threshold.len() != secondaries.len() {
                return Err(r.error("secondaries and thresholds must be parallel"));
            }
            Ok((secondaries, threshold))
        })?;
        let lens: Vec<usize> = secondaries.iter().map(PartitionTree::len).collect();
        tree.verify("secondary", false, &lens).map_err(|detail| r.error(detail))?;
        Ok(ShallowTree3 { tree, secondaries, threshold })
    }

    pub fn query_below(&self, u: i64, v: i64, w: i64, inclusive: bool) -> Vec<u32> {
        let mut out = Vec::new();
        if self.tree.n > 0 {
            let h: HyperplaneD<3> = HyperplaneD::new([w, u, v]);
            self.visit(0, &h, inclusive, &mut out);
        }
        out
    }

    fn report(
        &self,
        node: &NodeRec<3>,
        h: &HyperplaneD<3>,
        filter: bool,
        inclusive: bool,
        out: &mut Vec<u32>,
    ) {
        for (c, id) in read_points(&self.tree.points, node) {
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
        let (node, sec) = self.tree.nodes.get(ni);
        match h.classify_box(&node.cell()) {
            BoxSide::FullyAbove if !inclusive => return,
            BoxSide::FullyBelow => {
                self.report(&node, h, false, inclusive, out);
                return;
            }
            _ => {}
        }
        if node.children().is_empty() {
            self.report(&node, h, true, inclusive, out);
            return;
        }
        // Count crossed children first (their descriptors share pages, so
        // this is O(1) IOs per node).
        let mut crossed: Vec<usize> = Vec::new();
        let mut below: Vec<usize> = Vec::new();
        for ci in node.children() {
            let (c, _) = self.tree.nodes.get(ci);
            match h.classify_box(&c.cell()) {
                BoxSide::FullyBelow => below.push(ci),
                BoxSide::FullyAbove if !inclusive => {}
                _ => crossed.push(ci),
            }
        }
        if crossed.len() > self.threshold[sec as usize] {
            // Not shallow at this node: answer with the secondary structure
            // (its input was the DFS slice, so local id j ↔ pts_off + j,
            // and the id is read back from the DFS file).
            let local = self.secondaries[sec as usize].query_halfspace(h, inclusive);
            self.tree.map_local(&node, local, out);
            return;
        }
        for ci in below {
            let (c, _) = self.tree.nodes.get(ci);
            self.report(&c, h, false, inclusive, out);
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
            let t = HybridTree3::build(&dev, &pts, HybridConfig { a });
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
            let t = ShallowTree3::build(&dev, &pts, ShallowConfig { kappa });
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
