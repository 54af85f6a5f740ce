//! An STR (sort-tile-recursive) bulk-loaded R-tree.
//!
//! The standard spatial-database index [Guttman'85; STR packing]: leaves
//! hold one block of points, internal nodes hold up to B child rectangles.
//! Halfplane queries classify each MBR against the query line; crossed
//! rectangles are recursed into. Like the kd-tree, it degrades to Ω(n) IOs
//! on the diagonal adversarial input of Section 1.2.

use lcrs_extmem::{DeviceHandle, MetaReader, MetaWriter, Record, SnapshotError, VecFile};

#[derive(Debug, Clone, Copy, Default)]
struct RNode {
    lo: [i64; 2],
    hi: [i64; 2],
    /// First child index (internal) or point offset (leaf).
    start: u64,
    /// Child count (internal) or point count (leaf).
    count: u32,
    /// 1 = leaf.
    leaf: u8,
}

impl Record for RNode {
    const SIZE: usize = 32 + 8 + 4 + 1;
    fn store(&self, buf: &mut [u8]) {
        self.lo.store(buf);
        self.hi.store(&mut buf[16..]);
        self.start.store(&mut buf[32..]);
        self.count.store(&mut buf[40..]);
        self.leaf.store(&mut buf[44..]);
    }
    fn load(buf: &[u8]) -> Self {
        RNode {
            lo: <[i64; 2]>::load(buf),
            hi: <[i64; 2]>::load(&buf[16..]),
            start: u64::load(&buf[32..]),
            count: u32::load(&buf[40..]),
            leaf: u8::load(&buf[44..]),
        }
    }
}

type PtRec = ([i64; 2], u32);

/// Deepest root-to-leaf path `load` accepts, in nodes. With a fanout of at
/// least 2, STR about halves the node count per level, so a tree over
/// `u32` ids stays well under this.
const MAX_DEPTH: usize = 64;

/// STR bulk-loaded R-tree over 2D points.
pub struct StrRTree {
    dev: DeviceHandle,
    nodes: VecFile<RNode>,
    points: VecFile<PtRec>,
    root: usize,
    n: usize,
    pages_at_build_end: u64,
}

impl StrRTree {
    pub fn build(dev: &DeviceHandle, points: &[(i64, i64)]) -> StrRTree {
        let leaf_cap = dev.records_per_page(<PtRec as Record>::SIZE).max(2);
        let fanout = dev.records_per_page(<RNode as Record>::SIZE).max(2);
        let mut items: Vec<PtRec> =
            points.iter().enumerate().map(|(i, &(x, y))| ([x, y], i as u32)).collect();

        // STR tiling: sort by x, slice into vertical strips of
        // √(n/leaf_cap) leaves, sort each strip by y, cut into leaves.
        let mut nodes: Vec<RNode> = Vec::new();
        let mut dfs: Vec<PtRec> = Vec::new();
        let mut level: Vec<usize> = Vec::new(); // node ids of current level
        if !items.is_empty() {
            let n_leaves = items.len().div_ceil(leaf_cap);
            let strips = (n_leaves as f64).sqrt().ceil() as usize;
            let per_strip = items.len().div_ceil(strips);
            items.sort_unstable_by_key(|(c, id)| (c[0], c[1], *id));
            for strip in items.chunks_mut(per_strip) {
                strip.sort_unstable_by_key(|(c, id)| (c[1], c[0], *id));
                for leaf in strip.chunks(leaf_cap) {
                    let (lo, hi) = mbr_points(leaf);
                    let id = nodes.len();
                    nodes.push(RNode {
                        lo,
                        hi,
                        start: dfs.len() as u64,
                        count: leaf.len() as u32,
                        leaf: 1,
                    });
                    dfs.extend_from_slice(leaf);
                    level.push(id);
                }
            }
            // Pack upper levels by tiling child MBR centers (x then y).
            while level.len() > 1 {
                let n_parents = level.len().div_ceil(fanout);
                let strips = (n_parents as f64).sqrt().ceil() as usize;
                let per_strip = level.len().div_ceil(strips);
                let centers: Vec<(i64, i64)> = nodes
                    .iter()
                    .map(|nd| ((nd.lo[0] + nd.hi[0]) / 2, (nd.lo[1] + nd.hi[1]) / 2))
                    .collect();
                level.sort_by_key(|&id| centers[id].0);
                let mut next_level = Vec::new();
                let mut strip_bufs: Vec<Vec<usize>> =
                    level.chunks(per_strip).map(|s| s.to_vec()).collect();
                for strip in &mut strip_bufs {
                    strip.sort_by_key(|&id| centers[id].1);
                    for group in strip.chunks(fanout) {
                        // Children must be contiguous in the nodes file:
                        // copy them to fresh contiguous slots.
                        let start = nodes.len() as u64;
                        let mut lo = [i64::MAX; 2];
                        let mut hi = [i64::MIN; 2];
                        let copies: Vec<RNode> = group.iter().map(|&id| nodes[id]).collect();
                        for c in &copies {
                            for i in 0..2 {
                                lo[i] = lo[i].min(c.lo[i]);
                                hi[i] = hi[i].max(c.hi[i]);
                            }
                        }
                        for c in copies {
                            nodes.push(c);
                        }
                        let id = nodes.len();
                        nodes.push(RNode { lo, hi, start, count: group.len() as u32, leaf: 0 });
                        next_level.push(id);
                    }
                }
                level = next_level;
            }
        }
        let root = level.first().copied().unwrap_or(0);
        StrRTree {
            dev: dev.clone(),
            nodes: VecFile::from_slice(dev, &nodes),
            points: VecFile::from_slice(dev, &dfs),
            root,
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

    /// The device this structure lives on (for scoped IO measurement).
    pub fn device(&self) -> &DeviceHandle {
        &self.dev
    }

    /// The same on-disk structure viewed through `h` (own cache + stats).
    pub fn with_handle(&self, h: &DeviceHandle) -> StrRTree {
        StrRTree {
            dev: h.clone(),
            nodes: self.nodes.with_handle(h),
            points: self.points.with_handle(h),
            root: self.root,
            n: self.n,
            pages_at_build_end: self.pages_at_build_end,
        }
    }

    /// A reader clone on a fresh handle scope over the same pages — each
    /// parallel worker calls this to get its own LRU and IO attribution.
    pub fn fork_reader(&self) -> StrRTree {
        self.with_handle(&self.dev.fork())
    }

    /// Serialize the tree's metadata (node and point files, root index);
    /// page data is captured by [`lcrs_extmem::Device::freeze_to_path`].
    pub fn save(&self, w: &mut MetaWriter) {
        self.nodes.save(w);
        self.points.save(w);
        w.usize(self.root);
        w.usize(self.n);
        w.u64(self.pages_at_build_end);
    }

    /// Rebuild from metadata written by [`Self::save`]. A node layout a
    /// query could not walk (see `verify`) is a [`SnapshotError::Meta`],
    /// never a panic or a stack overflow at a later query.
    pub fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<StrRTree, SnapshotError> {
        let nodes: VecFile<RNode> = VecFile::load(h, r)?;
        let points = VecFile::load(h, r)?;
        let root = r.usize()?;
        if root >= nodes.len().max(1) {
            return Err(r.error(format!("root {root} exceeds the {} nodes", nodes.len())));
        }
        let tree = StrRTree {
            dev: h.clone(),
            nodes,
            points,
            root,
            n: r.usize()?,
            pages_at_build_end: r.u64()?,
        };
        tree.verify().map_err(|detail| r.error(detail))?;
        Ok(tree)
    }

    /// Read the node pages once, on a throwaway fork so no scope's stats,
    /// cache or frames move, and walk the tree from the root without
    /// recursion, checking what a query relies on: every node is a leaf
    /// (`leaf` 1) whose point range lies inside the point file, or an
    /// internal node (`leaf` 0) with at least one child, all inside the
    /// node file; no node is reached twice (no cycle, no shared child);
    /// no path is deeper than `MAX_DEPTH`; and the leaves hold `n` points
    /// in all.
    fn verify(&self) -> Result<(), String> {
        if self.n == 0 {
            return Ok(()); // queries never read a node
        }
        let nodes = self.nodes.with_handle(&self.dev.fork()).read_all();
        if nodes.is_empty() {
            return Err(format!("{} points but no root node", self.n));
        }
        let mut seen = vec![false; nodes.len()];
        let mut stack = vec![(self.root, 1usize)];
        let mut points = 0u64;
        while let Some((ni, depth)) = stack.pop() {
            if depth > MAX_DEPTH {
                return Err(format!("node {ni} lies deeper than {MAX_DEPTH} levels"));
            }
            if std::mem::replace(&mut seen[ni], true) {
                return Err(format!("node {ni} is reached twice"));
            }
            let node = nodes[ni];
            let (start, count) = (node.start, u64::from(node.count));
            let bound = match node.leaf {
                1 => self.points.len(),
                0 if count > 0 => nodes.len(),
                _ => return Err(format!("node {ni} is tagged {} with {count} entries", node.leaf)),
            };
            if start.checked_add(count).is_none_or(|end| end > bound as u64) {
                return Err(format!("node {ni} spans {start}+{count} of {bound}"));
            }
            if node.leaf == 1 {
                points += count;
            } else {
                stack.extend((start as usize..(start + count) as usize).map(|c| (c, depth + 1)));
            }
        }
        if points != self.n as u64 {
            return Err(format!("the leaves hold {points} points, not {}", self.n));
        }
        Ok(())
    }

    pub fn query_below(&self, m: i64, c: i64, inclusive: bool) -> Vec<u32> {
        let mut out = Vec::new();
        if self.n > 0 {
            self.visit(self.root, m, c, inclusive, &mut out);
        }
        out
    }

    fn visit(&self, ni: usize, m: i64, c: i64, inclusive: bool, out: &mut Vec<u32>) {
        let node = self.nodes.get(ni);
        // Min slack over MBR corners; prune when no corner is below.
        let mut lo_s = i128::MAX;
        for &x in &[node.lo[0], node.hi[0]] {
            for &y in &[node.lo[1], node.hi[1]] {
                lo_s = lo_s.min(y as i128 - m as i128 * x as i128 - c as i128);
            }
        }
        let none_below = if inclusive { lo_s > 0 } else { lo_s >= 0 };
        if none_below {
            return;
        }
        if node.leaf == 1 {
            let mut buf: Vec<PtRec> = Vec::with_capacity(node.count as usize);
            self.points.read_range(
                node.start as usize..(node.start as usize + node.count as usize),
                &mut buf,
            );
            for ([x, y], id) in buf {
                let s = y as i128 - m as i128 * x as i128 - c as i128;
                let hit = if inclusive { s <= 0 } else { s < 0 };
                if hit {
                    out.push(id);
                }
            }
        } else {
            for k in 0..node.count as usize {
                self.visit(node.start as usize + k, m, c, inclusive, out);
            }
        }
    }
}

fn mbr_points(pts: &[PtRec]) -> ([i64; 2], [i64; 2]) {
    let mut lo = pts[0].0;
    let mut hi = pts[0].0;
    for (c, _) in &pts[1..] {
        for i in 0..2 {
            lo[i] = lo[i].min(c[i]);
            hi[i] = hi[i].max(c[i]);
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrs_extmem::{Device, DeviceConfig};

    fn pseudo(n: usize, seed: u64) -> Vec<(i64, i64)> {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as i64).rem_euclid(200_001) - 100_000
        };
        (0..n).map(|_| (next(), next())).collect()
    }

    #[test]
    fn matches_brute_force() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let pts = pseudo(900, 5);
        let t = StrRTree::build(&dev, &pts);
        for (m, c) in [(0i64, 0i64), (2, 30_000), (-9, -1000)] {
            for inclusive in [false, true] {
                let mut got = t.query_below(m, c, inclusive);
                got.sort_unstable();
                let want: Vec<u32> = pts
                    .iter()
                    .enumerate()
                    .filter(|(_, &(x, y))| {
                        let rhs = m as i128 * x as i128 + c as i128;
                        if inclusive {
                            y as i128 <= rhs
                        } else {
                            (y as i128) < rhs
                        }
                    })
                    .map(|(i, _)| i as u32)
                    .collect();
                assert_eq!(got, want, "m={m} c={c} inclusive={inclusive}");
            }
        }
    }

    #[test]
    fn diagonal_degrades() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let pts: Vec<(i64, i64)> = (0..4096).map(|i| (i, i)).collect();
        let t = StrRTree::build(&dev, &pts);
        let (got, io) = dev.measure(|| t.query_below(1, 0, false));
        assert!(got.is_empty());
        let n_leaves = 4096 / dev.records_per_page(20);
        assert!(io.reads as usize >= n_leaves / 2, "reads {}", io.reads);
    }

    #[test]
    fn empty_input() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let t = StrRTree::build(&dev, &[]);
        assert!(t.query_below(1, 1, true).is_empty());
    }
}
