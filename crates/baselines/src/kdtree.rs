//! An external kd-tree (k-d-B-tree style, bulk-loaded).
//!
//! The classic spatial index adapted to halfplane queries: internal nodes
//! split by coordinate medians (cycling axes), leaves hold one block of
//! points, and a query recurses into every node whose bounding box the
//! query line crosses. Average-case good; on the paper's diagonal input
//! every leaf box straddles a near-diagonal query line, so queries take
//! Ω(n) IOs no matter how small the output — the motivation for Section 3.

use lcrs_extmem::{DeviceHandle, MetaReader, MetaWriter, Record, SnapshotError, VecFile};

#[derive(Debug, Clone, Copy, Default)]
struct KdNode {
    lo: [i64; 2],
    hi: [i64; 2],
    /// Children (left, right); both 0 ⇒ leaf (node 0 is the root, never a
    /// child).
    left: u32,
    right: u32,
    pts_off: u64,
    pts_len: u64,
    /// Subtree aggregate annotations (DESIGN.md §15): point count and
    /// weight sum (weight of `(x, y)` is `x + y`), letting fully-covered
    /// nodes answer count/sum queries without touching their leaves.
    count: u64,
    wsum: i64,
}

impl Record for KdNode {
    const SIZE: usize = 32 + 8 + 16 + 16;
    fn store(&self, buf: &mut [u8]) {
        self.lo.store(buf);
        self.hi.store(&mut buf[16..]);
        self.left.store(&mut buf[32..]);
        self.right.store(&mut buf[36..]);
        self.pts_off.store(&mut buf[40..]);
        self.pts_len.store(&mut buf[48..]);
        self.count.store(&mut buf[56..]);
        self.wsum.store(&mut buf[64..]);
    }
    fn load(buf: &[u8]) -> Self {
        KdNode {
            lo: <[i64; 2]>::load(buf),
            hi: <[i64; 2]>::load(&buf[16..]),
            left: u32::load(&buf[32..]),
            right: u32::load(&buf[36..]),
            pts_off: u64::load(&buf[40..]),
            pts_len: u64::load(&buf[48..]),
            count: u64::load(&buf[56..]),
            wsum: i64::load(&buf[64..]),
        }
    }
}

type PtRec = ([i64; 2], u32);

/// Deepest root-to-leaf path `load` accepts, in nodes. `build` halves the
/// points at every level, so a tree over `u32` ids is at most 33 deep.
const MAX_DEPTH: usize = 64;

/// Bulk-loaded external kd-tree over 2D points.
pub struct ExternalKdTree {
    dev: DeviceHandle,
    nodes: VecFile<KdNode>,
    points: VecFile<PtRec>,
    n: usize,
    pages_at_build_end: u64,
}

impl ExternalKdTree {
    pub fn build(dev: &DeviceHandle, points: &[(i64, i64)]) -> ExternalKdTree {
        let leaf_cap = dev.records_per_page(<PtRec as Record>::SIZE).max(1);
        let mut items: Vec<PtRec> =
            points.iter().enumerate().map(|(i, &(x, y))| ([x, y], i as u32)).collect();
        let mut nodes: Vec<KdNode> = Vec::new();
        let mut dfs: Vec<PtRec> = Vec::with_capacity(items.len());

        fn bbox(items: &[PtRec]) -> ([i64; 2], [i64; 2]) {
            let mut lo = items[0].0;
            let mut hi = items[0].0;
            for (c, _) in &items[1..] {
                for i in 0..2 {
                    lo[i] = lo[i].min(c[i]);
                    hi[i] = hi[i].max(c[i]);
                }
            }
            (lo, hi)
        }

        fn rec(
            items: &mut [PtRec],
            ni: usize,
            axis: usize,
            nodes: &mut Vec<KdNode>,
            dfs: &mut Vec<PtRec>,
            leaf_cap: usize,
        ) {
            let (lo, hi) = bbox(items);
            let wsum: i64 = items
                .iter()
                .map(|([x, y], _)| x.checked_add(*y).expect("point weight fits i64"))
                .fold(0i64, |a, w| a.checked_add(w).expect("subtree weight sum fits i64"));
            if items.len() <= leaf_cap {
                nodes[ni] = KdNode {
                    lo,
                    hi,
                    left: 0,
                    right: 0,
                    pts_off: dfs.len() as u64,
                    pts_len: items.len() as u64,
                    count: items.len() as u64,
                    wsum,
                };
                dfs.extend_from_slice(items);
                return;
            }
            let mid = items.len() / 2;
            items.select_nth_unstable_by_key(mid, |(c, id)| (c[axis], *id));
            let li = nodes.len();
            nodes.push(Default::default());
            nodes.push(Default::default());
            let (l, r) = items.split_at_mut(mid);
            rec(l, li, (axis + 1) % 2, nodes, dfs, leaf_cap);
            rec(r, li + 1, (axis + 1) % 2, nodes, dfs, leaf_cap);
            nodes[ni] = KdNode {
                lo,
                hi,
                left: li as u32,
                right: li as u32 + 1,
                pts_off: 0,
                pts_len: 0,
                count: items.len() as u64,
                wsum,
            };
        }

        if !items.is_empty() {
            nodes.push(Default::default());
            rec(&mut items, 0, 0, &mut nodes, &mut dfs, leaf_cap);
        }
        ExternalKdTree {
            dev: dev.clone(),
            nodes: VecFile::from_slice(dev, &nodes),
            points: VecFile::from_slice(dev, &dfs),
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
    pub fn with_handle(&self, h: &DeviceHandle) -> ExternalKdTree {
        ExternalKdTree {
            dev: h.clone(),
            nodes: self.nodes.with_handle(h),
            points: self.points.with_handle(h),
            n: self.n,
            pages_at_build_end: self.pages_at_build_end,
        }
    }

    /// A reader clone on a fresh handle scope over the same pages — each
    /// parallel worker calls this to get its own LRU and IO attribution.
    pub fn fork_reader(&self) -> ExternalKdTree {
        self.with_handle(&self.dev.fork())
    }

    /// Serialize the tree's metadata (node and point files); page data is
    /// captured by [`lcrs_extmem::Device::freeze_to_path`].
    pub fn save(&self, w: &mut MetaWriter) {
        self.nodes.save(w);
        self.points.save(w);
        w.usize(self.n);
        w.u64(self.pages_at_build_end);
    }

    /// Rebuild from metadata written by [`Self::save`]. A node layout a
    /// query could not walk (see `verify`) is a [`SnapshotError::Meta`],
    /// never a panic or a stack overflow at a later query.
    pub fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<ExternalKdTree, SnapshotError> {
        let tree = ExternalKdTree {
            dev: h.clone(),
            nodes: VecFile::load(h, r)?,
            points: VecFile::load(h, r)?,
            n: r.usize()?,
            pages_at_build_end: r.u64()?,
        };
        tree.verify().map_err(|detail| r.error(detail))?;
        Ok(tree)
    }

    /// Read the node pages once, on a throwaway fork so no scope's stats,
    /// cache or frames move, and walk the tree from the root without
    /// recursion, checking what a query relies on: every node is a leaf
    /// (both children 0) or has both children inside the node file, no
    /// node is reached twice (no cycle, no shared child), no path is
    /// deeper than `MAX_DEPTH`, every leaf's point range lies inside the
    /// point file, and the leaves hold `n` points in all.
    fn verify(&self) -> Result<(), String> {
        if self.n == 0 {
            return Ok(()); // queries never read a node
        }
        let nodes = self.nodes.with_handle(&self.dev.fork()).read_all();
        if nodes.is_empty() {
            return Err(format!("{} points but no root node", self.n));
        }
        let mut seen = vec![false; nodes.len()];
        let mut stack = vec![(0usize, 1usize)];
        let mut points = 0u64;
        while let Some((ni, depth)) = stack.pop() {
            if depth > MAX_DEPTH {
                return Err(format!("node {ni} lies deeper than {MAX_DEPTH} levels"));
            }
            if std::mem::replace(&mut seen[ni], true) {
                return Err(format!("node {ni} is reached twice"));
            }
            let node = nodes[ni];
            match (node.left as usize, node.right as usize) {
                (0, 0) => {
                    if node
                        .pts_off
                        .checked_add(node.pts_len)
                        .is_none_or(|end| end > self.points.len() as u64)
                    {
                        return Err(format!(
                            "leaf {ni} holds points {}+{} of {}",
                            node.pts_off,
                            node.pts_len,
                            self.points.len()
                        ));
                    }
                    points += node.pts_len;
                }
                (l, r) if (1..nodes.len()).contains(&l) && (1..nodes.len()).contains(&r) => {
                    stack.push((r, depth + 1));
                    stack.push((l, depth + 1));
                }
                (l, r) => {
                    return Err(format!("node {ni} has children {l} and {r} of {}", nodes.len()))
                }
            }
        }
        if points != self.n as u64 {
            return Err(format!("the leaves hold {points} points, not {}", self.n));
        }
        Ok(())
    }

    /// Report points strictly below `y = m·x + c` (`inclusive` adds
    /// on-line points).
    pub fn query_below(&self, m: i64, c: i64, inclusive: bool) -> Vec<u32> {
        let mut out = Vec::new();
        if self.n > 0 {
            self.visit(0, m, c, inclusive, &mut out);
        }
        out
    }

    /// Count and weight-sum (weight of `(x, y)` is `x + y`) of points
    /// below `y = m·x + c`, answered from the subtree annotations: a node
    /// whose box lies entirely below the line contributes its persisted
    /// `(count, wsum)` without descending — the aggregate path reads
    /// strictly fewer pages than enumerate-then-count whenever the query
    /// covers whole subtrees (asserted by the `exp_lift` experiment).
    pub fn aggregate_below(&self, m: i64, c: i64, inclusive: bool) -> (u64, i128) {
        let mut acc = (0u64, 0i128);
        if self.n > 0 {
            self.visit_agg(0, m, c, inclusive, &mut acc);
        }
        acc
    }

    fn visit_agg(&self, ni: usize, m: i64, c: i64, inclusive: bool, acc: &mut (u64, i128)) {
        let node = self.nodes.get(ni);
        let (lo, hi) = Self::slack_range(&node, m, c);
        let all_below = if inclusive { hi <= 0 } else { hi < 0 };
        let none_below = if inclusive { lo > 0 } else { lo >= 0 };
        if none_below {
            return;
        }
        if all_below {
            acc.0 += node.count;
            acc.1 += i128::from(node.wsum);
            return;
        }
        if node.left == 0 && node.right == 0 {
            let mut buf: Vec<PtRec> = Vec::with_capacity(node.pts_len as usize);
            self.points.read_range(
                node.pts_off as usize..(node.pts_off + node.pts_len) as usize,
                &mut buf,
            );
            for ([x, y], _) in buf {
                let s = y as i128 - m as i128 * x as i128 - c as i128;
                let hit = if inclusive { s <= 0 } else { s < 0 };
                if hit {
                    acc.0 += 1;
                    acc.1 += x as i128 + y as i128;
                }
            }
            return;
        }
        self.visit_agg(node.left as usize, m, c, inclusive, acc);
        self.visit_agg(node.right as usize, m, c, inclusive, acc);
    }

    /// The `k` points of lowest key `y − m·x` among those with
    /// `y − m·x ≤ c` (inclusive candidates), ordered by `(key, id)`.
    pub fn top_k(&self, m: i64, c: i64, k: usize) -> Vec<u32> {
        let mut cand: Vec<(i128, u32)> = Vec::new();
        if self.n > 0 {
            self.visit_topk(0, m, c, &mut cand);
        }
        cand.sort_unstable();
        cand.truncate(k);
        cand.into_iter().map(|(_, id)| id).collect()
    }

    fn visit_topk(&self, ni: usize, m: i64, c: i64, cand: &mut Vec<(i128, u32)>) {
        let node = self.nodes.get(ni);
        let (lo, _) = Self::slack_range(&node, m, c);
        if lo > 0 {
            return; // every key in the box exceeds c
        }
        if node.left == 0 && node.right == 0 {
            let mut buf: Vec<PtRec> = Vec::with_capacity(node.pts_len as usize);
            self.points.read_range(
                node.pts_off as usize..(node.pts_off + node.pts_len) as usize,
                &mut buf,
            );
            for ([x, y], id) in buf {
                let key = y as i128 - m as i128 * x as i128;
                if key <= c as i128 {
                    cand.push((key, id));
                }
            }
            return;
        }
        self.visit_topk(node.left as usize, m, c, cand);
        self.visit_topk(node.right as usize, m, c, cand);
    }

    /// (min, max) of y - m·x - c over the box corners.
    fn slack_range(node: &KdNode, m: i64, c: i64) -> (i128, i128) {
        let mut lo = i128::MAX;
        let mut hi = i128::MIN;
        for &x in &[node.lo[0], node.hi[0]] {
            for &y in &[node.lo[1], node.hi[1]] {
                let s = y as i128 - m as i128 * x as i128 - c as i128;
                lo = lo.min(s);
                hi = hi.max(s);
            }
        }
        (lo, hi)
    }

    fn visit(&self, ni: usize, m: i64, c: i64, inclusive: bool, out: &mut Vec<u32>) {
        let node = self.nodes.get(ni);
        let (lo, _) = Self::slack_range(&node, m, c);
        // Point below line ⟺ slack y - mx - c < 0 (<= when inclusive).
        let none_below = if inclusive { lo > 0 } else { lo >= 0 };
        if none_below {
            return;
        }
        if node.left == 0 && node.right == 0 {
            // Leaf: scan the block.
            let mut buf: Vec<PtRec> = Vec::with_capacity(node.pts_len as usize);
            self.points.read_range(
                node.pts_off as usize..(node.pts_off + node.pts_len) as usize,
                &mut buf,
            );
            for ([x, y], id) in buf {
                let s = y as i128 - m as i128 * x as i128 - c as i128;
                let hit = if inclusive { s <= 0 } else { s < 0 };
                if hit {
                    out.push(id);
                }
            }
            return;
        }
        self.visit(node.left as usize, m, c, inclusive, out);
        self.visit(node.right as usize, m, c, inclusive, out);
    }
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
        let pts = pseudo(800, 3);
        let t = ExternalKdTree::build(&dev, &pts);
        for (m, c) in [(0, 0), (3, 5000), (-7, -20_000), (100, 0)] {
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
                assert_eq!(got, want, "m={m} c={c}");
            }
        }
    }

    #[test]
    fn aggregates_match_enumeration_and_read_less() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let pts = pseudo(1200, 7);
        let t = ExternalKdTree::build(&dev, &pts);
        for (m, c) in [(0, 0), (3, 5000), (-7, -20_000), (0, 10_000_000), (0, -10_000_000)] {
            for inclusive in [false, true] {
                let (count, wsum) = t.aggregate_below(m, c, inclusive);
                let mut want = (0u64, 0i128);
                for &(x, y) in &pts {
                    let rhs = m as i128 * x as i128 + c as i128;
                    let hit = if inclusive { y as i128 <= rhs } else { (y as i128) < rhs };
                    if hit {
                        want.0 += 1;
                        want.1 += x as i128 + y as i128;
                    }
                }
                assert_eq!((count, wsum), want, "m={m} c={c}");
            }
        }
        // A query covering everything answers from the root annotation:
        // one node page, no leaf reads — the annotated-aggregate win.
        let (_, agg) = dev.measure(|| t.aggregate_below(0, 10_000_000, true));
        assert_eq!(agg.reads, 1);
        let (_, enumerate) = dev.measure(|| t.query_below(0, 10_000_000, true));
        assert!(agg.reads < enumerate.reads, "aggregate {agg:?} !< enumerate {enumerate:?}");
    }

    #[test]
    fn top_k_matches_brute_force() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let pts = pseudo(900, 11);
        let t = ExternalKdTree::build(&dev, &pts);
        for (m, c, k) in [(0, 0, 5), (3, 5000, 1), (-7, 50_000, 12), (2, -200_000, 4)] {
            let got = t.top_k(m, c, k);
            let mut cand: Vec<(i128, u32)> = pts
                .iter()
                .enumerate()
                .filter(|(_, &(x, y))| y as i128 - m as i128 * x as i128 <= c as i128)
                .map(|(i, &(x, y))| (y as i128 - m as i128 * x as i128, i as u32))
                .collect();
            cand.sort_unstable();
            cand.truncate(k);
            let want: Vec<u32> = cand.into_iter().map(|(_, id)| id).collect();
            assert_eq!(got, want, "m={m} c={c} k={k}");
        }
    }

    #[test]
    fn diagonal_degrades_to_linear_ios() {
        // The Section 1.2 lower-bound instance: every leaf box straddles a
        // near-diagonal line, so even an empty-output query reads Ω(n)
        // pages.
        let dev = Device::new(DeviceConfig::new(256, 0));
        let pts: Vec<(i64, i64)> = (0..4096).map(|i| (i, i)).collect();
        let t = ExternalKdTree::build(&dev, &pts);
        let (got, io) = dev.measure(|| t.query_below(1, 0, false)); // y < x: empty
        assert!(got.is_empty());
        let n_leaves = 4096 / dev.records_per_page(20);
        assert!(
            io.reads as usize >= n_leaves,
            "expected Ω(n) reads, got {} (leaves {n_leaves})",
            io.reads
        );
    }

    #[test]
    fn empty_and_single() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let t = ExternalKdTree::build(&dev, &[]);
        assert!(t.query_below(1, 1, true).is_empty());
        let t1 = ExternalKdTree::build(&dev, &[(5, 5)]);
        assert_eq!(t1.query_below(0, 10, false), vec![0]);
    }
}
