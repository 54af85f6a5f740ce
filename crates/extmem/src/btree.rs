//! An external-memory B+-tree.
//!
//! This is the paper's Section 1.2 baseline ("B-trees answer one-dimensional
//! range queries in O(log_B n + t) IOs using linear space") and the building
//! block used in Section 3 to search clustering boundaries. Keys and values
//! are fixed-size [`Record`]s; internal nodes hold only keys and child
//! pointers, leaves hold key/value pairs and are chained for range scans.

use crate::device::{DeviceHandle, PageId};
use crate::file::Record;

/// Node header: 1 tag byte, 2 count bytes, 8 next-leaf bytes (leaves only).
const HDR: usize = 16;
const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 0;
const NO_PAGE: u64 = u64::MAX;

/// External B+-tree mapping `K` to `V`.
pub struct BPlusTree<K: Record + Ord, V: Record> {
    dev: DeviceHandle,
    root: PageId,
    height: usize,
    len: usize,
    pages: usize,
    _marker: std::marker::PhantomData<(K, V)>,
}

#[derive(Clone)]
struct Leaf<K, V> {
    keys: Vec<K>,
    vals: Vec<V>,
    next: Option<PageId>,
}

#[derive(Clone)]
struct Internal<K> {
    keys: Vec<K>,          // separator keys; child i holds keys < keys[i] ... standard
    children: Vec<PageId>, // keys.len() + 1 children
}

enum Node<K, V> {
    Leaf(Leaf<K, V>),
    Internal(Internal<K>),
}

impl<K: Record + Ord + Copy, V: Record> BPlusTree<K, V> {
    fn leaf_cap(dev: &DeviceHandle) -> usize {
        let c = (dev.page_bytes() - HDR) / (K::SIZE + V::SIZE);
        assert!(c >= 4, "page too small for B+-tree leaf");
        c
    }

    fn internal_cap(dev: &DeviceHandle) -> usize {
        // k keys + (k+1) children of 8 bytes.
        let c = (dev.page_bytes() - HDR - 8) / (K::SIZE + 8);
        assert!(c >= 4, "page too small for B+-tree internal node");
        c
    }

    /// `true` when `page_bytes`-byte pages hold a leaf and an internal
    /// node of at least four entries each — the one geometry check behind
    /// [`Self::load`] and the structures that build trees of this kind.
    pub fn page_fits(page_bytes: usize) -> bool {
        page_bytes > HDR + 8
            && (page_bytes - HDR) / (K::SIZE + V::SIZE) >= 4
            && (page_bytes - HDR - 8) / (K::SIZE + 8) >= 4
    }

    /// The fanout (maximum number of children of an internal node).
    pub fn fanout(dev: &DeviceHandle) -> usize {
        Self::internal_cap(dev) + 1
    }

    fn read_node(&self, id: PageId) -> Node<K, V> {
        self.dev.read_page(id, |b| {
            let tag = b[0];
            let count = u16::load(&b[1..]) as usize;
            if tag == TAG_LEAF {
                let next = u64::load(&b[3..]);
                let mut keys = Vec::with_capacity(count);
                let mut vals = Vec::with_capacity(count);
                let mut off = HDR;
                for _ in 0..count {
                    keys.push(K::load(&b[off..]));
                    off += K::SIZE;
                    vals.push(V::load(&b[off..]));
                    off += V::SIZE;
                }
                Node::Leaf(Leaf {
                    keys,
                    vals,
                    next: if next == NO_PAGE { None } else { Some(PageId(next)) },
                })
            } else {
                let mut keys = Vec::with_capacity(count);
                let mut children = Vec::with_capacity(count + 1);
                let mut off = HDR;
                for _ in 0..count {
                    keys.push(K::load(&b[off..]));
                    off += K::SIZE;
                }
                for _ in 0..=count {
                    children.push(PageId(u64::load(&b[off..])));
                    off += 8;
                }
                Node::Internal(Internal { keys, children })
            }
        })
    }

    fn write_leaf(&mut self, id: PageId, leaf: &Leaf<K, V>) {
        self.dev.write_page(id, |b| {
            b[0] = TAG_LEAF;
            (leaf.keys.len() as u16).store(&mut b[1..]);
            leaf.next.map_or(NO_PAGE, |p| p.0).store(&mut b[3..]);
            let mut off = HDR;
            for (k, v) in leaf.keys.iter().zip(&leaf.vals) {
                k.store(&mut b[off..]);
                off += K::SIZE;
                v.store(&mut b[off..]);
                off += V::SIZE;
            }
        });
    }

    fn write_internal(&mut self, id: PageId, node: &Internal<K>) {
        self.dev.write_page(id, |b| {
            b[0] = TAG_INTERNAL;
            (node.keys.len() as u16).store(&mut b[1..]);
            let mut off = HDR;
            for k in &node.keys {
                k.store(&mut b[off..]);
                off += K::SIZE;
            }
            for c in &node.children {
                c.0.store(&mut b[off..]);
                off += 8;
            }
        });
    }

    fn alloc(&mut self) -> PageId {
        self.pages += 1;
        self.dev.alloc_pages(1)
    }

    /// An empty tree.
    pub fn new(dev: &DeviceHandle) -> Self {
        let mut t = BPlusTree {
            dev: dev.clone(),
            root: PageId(NO_PAGE),
            height: 0,
            len: 0,
            pages: 0,
            _marker: Default::default(),
        };
        let root = t.alloc();
        t.root = root;
        t.write_leaf(root, &Leaf { keys: vec![], vals: vec![], next: None });
        t.height = 1;
        t
    }

    /// Bulk-load from key-sorted pairs (keys must be strictly increasing).
    /// Packs leaves to ~full, building each level with one pass.
    pub fn bulk_load(dev: &DeviceHandle, pairs: &[(K, V)]) -> Self {
        let mut t = BPlusTree {
            dev: dev.clone(),
            root: PageId(NO_PAGE),
            height: 0,
            len: pairs.len(),
            pages: 0,
            _marker: Default::default(),
        };
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_load requires sorted unique keys"
        );
        let leaf_cap = Self::leaf_cap(dev);
        // Build leaves.
        let mut level: Vec<(K, PageId)> = Vec::new(); // (min key, page)
        if pairs.is_empty() {
            return Self::new(dev);
        }
        let nleaves = pairs.len().div_ceil(leaf_cap);
        let per = pairs.len().div_ceil(nleaves); // balanced fill
        let mut ids: Vec<PageId> = (0..nleaves).map(|_| t.alloc()).collect();
        for (i, chunk) in pairs.chunks(per).enumerate() {
            let leaf = Leaf {
                keys: chunk.iter().map(|p| p.0).collect(),
                vals: chunk.iter().map(|p| p.1).collect(),
                next: ids.get(i + 1).copied(),
            };
            t.write_leaf(ids[i], &leaf);
            level.push((chunk[0].0, ids[i]));
        }
        t.height = 1;
        // Build internal levels.
        let icap = Self::internal_cap(dev);
        while level.len() > 1 {
            let nnodes = level.len().div_ceil(icap + 1);
            let per = level.len().div_ceil(nnodes);
            ids = (0..nnodes).map(|_| t.alloc()).collect();
            let mut next_level = Vec::with_capacity(nnodes);
            for (i, chunk) in level.chunks(per).enumerate() {
                let node = Internal {
                    keys: chunk[1..].iter().map(|e| e.0).collect(),
                    children: chunk.iter().map(|e| e.1).collect(),
                };
                t.write_internal(ids[i], &node);
                next_level.push((chunk[0].0, ids[i]));
            }
            level = next_level;
            t.height += 1;
        }
        t.root = level[0].1;
        t
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height in levels (1 = a single leaf). IO cost of a search.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pages occupied by the tree.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// The same on-disk tree viewed through a different handle scope
    /// (metadata copied, IOs accounted to `h`). The handle must target the
    /// store this tree was built on.
    ///
    /// The view is for *reading* (`get`/`floor`/`range`): the structural
    /// metadata (root, height, len) is a snapshot, so mutating through a
    /// view on an unfrozen store would desynchronize it from the original.
    /// Updates belong to the tree the pages were built through — on a
    /// frozen store the device enforces this by panicking on writes.
    pub fn with_handle(&self, h: &DeviceHandle) -> BPlusTree<K, V> {
        assert!(h.same_store(&self.dev), "handle belongs to a different device");
        BPlusTree {
            dev: h.clone(),
            root: self.root,
            height: self.height,
            len: self.len,
            pages: self.pages,
            _marker: Default::default(),
        }
    }

    /// Serialize the tree's metadata — root, height, length, page count;
    /// the node pages themselves are captured by
    /// [`crate::Device::freeze_to_path`].
    pub fn save(&self, w: &mut crate::snapshot::MetaWriter) {
        w.u64(self.root.0);
        w.usize(self.height);
        w.usize(self.len);
        w.usize(self.pages);
    }

    /// Rebuild from metadata written by [`Self::save`], reading node pages
    /// through `dev`. Like [`Self::with_handle`], the result is a *reader*;
    /// validation rejects roots outside the store and page geometries the
    /// tree's node layout cannot fit, with typed errors instead of panics.
    pub fn load(
        dev: &DeviceHandle,
        r: &mut crate::snapshot::MetaReader,
    ) -> Result<BPlusTree<K, V>, crate::snapshot::SnapshotError> {
        let root = r.u64()?;
        let height = r.usize()?;
        let len = r.usize()?;
        let pages = r.usize()?;
        let pb = dev.page_bytes();
        if !Self::page_fits(pb) {
            return Err(r.error(format!(
                "{pb}-byte pages cannot hold B+-tree nodes of this key/value size"
            )));
        }
        if root >= dev.pages_allocated() {
            return Err(r.error(format!(
                "root page {root} exceeds the {} allocated pages",
                dev.pages_allocated()
            )));
        }
        if height == 0 || pages as u64 > dev.pages_allocated() {
            return Err(r.error(format!("implausible tree shape (height {height}, {pages} pages)")));
        }
        Ok(BPlusTree {
            dev: dev.clone(),
            root: PageId(root),
            height,
            len,
            pages,
            _marker: Default::default(),
        })
    }

    fn descend(&self, key: &K) -> (PageId, Vec<PageId>) {
        let mut path = Vec::with_capacity(self.height);
        let mut cur = self.root;
        loop {
            match self.read_node(cur) {
                Node::Leaf(_) => return (cur, path),
                Node::Internal(node) => {
                    path.push(cur);
                    // child index = number of separator keys <= key
                    let idx = node.keys.partition_point(|k| k <= key);
                    cur = node.children[idx];
                }
            }
        }
    }

    /// Exact-match lookup: O(log_B n) IOs.
    pub fn get(&self, key: &K) -> Option<V> {
        let (leaf_id, _) = self.descend(key);
        match self.read_node(leaf_id) {
            Node::Leaf(leaf) => leaf.keys.binary_search(key).ok().map(|i| leaf.vals[i]),
            Node::Internal(_) => unreachable!(),
        }
    }

    /// Largest key `<= key`, with its value (predecessor search).
    pub fn floor(&self, key: &K) -> Option<(K, V)> {
        // Descend as in get; if the leaf has no key <= key, the answer is the
        // max of the previous leaf — but by the separator invariant this can
        // only happen at the leftmost position overall.
        let (leaf_id, _) = self.descend(key);
        match self.read_node(leaf_id) {
            Node::Leaf(leaf) => {
                let i = leaf.keys.partition_point(|k| k <= key);
                if i == 0 {
                    None
                } else {
                    Some((leaf.keys[i - 1], leaf.vals[i - 1]))
                }
            }
            Node::Internal(_) => unreachable!(),
        }
    }

    /// Visit all pairs with `lo <= key <= hi` in key order: O(log_B n + t)
    /// IOs by walking the leaf chain.
    pub fn range(&self, lo: &K, hi: &K, mut f: impl FnMut(&K, &V)) {
        if lo > hi {
            return;
        }
        let (leaf_id, _) = self.descend(lo);
        let mut cur = Some(leaf_id);
        while let Some(id) = cur {
            match self.read_node(id) {
                Node::Leaf(leaf) => {
                    for (k, v) in leaf.keys.iter().zip(&leaf.vals) {
                        if k > hi {
                            return;
                        }
                        if k >= lo {
                            f(k, v);
                        }
                    }
                    cur = leaf.next;
                }
                Node::Internal(_) => unreachable!(),
            }
        }
    }

    /// Insert (replacing any existing value). Amortized O(log_B n) IOs.
    pub fn insert(&mut self, key: K, val: V) {
        let (leaf_id, path) = self.descend(&key);
        let mut leaf = match self.read_node(leaf_id) {
            Node::Leaf(l) => l,
            Node::Internal(_) => unreachable!(),
        };
        match leaf.keys.binary_search(&key) {
            Ok(i) => {
                leaf.vals[i] = val;
                self.write_leaf(leaf_id, &leaf);
                return;
            }
            Err(i) => {
                leaf.keys.insert(i, key);
                leaf.vals.insert(i, val);
                self.len += 1;
            }
        }
        let cap = Self::leaf_cap(&self.dev);
        if leaf.keys.len() <= cap {
            self.write_leaf(leaf_id, &leaf);
            return;
        }
        // Split the leaf.
        let mid = leaf.keys.len() / 2;
        let right = Leaf {
            keys: leaf.keys.split_off(mid),
            vals: leaf.vals.split_off(mid),
            next: leaf.next,
        };
        let right_id = self.alloc();
        leaf.next = Some(right_id);
        let sep = right.keys[0];
        self.write_leaf(leaf_id, &leaf);
        self.write_leaf(right_id, &right);
        self.insert_into_parents(path, sep, right_id);
    }

    fn insert_into_parents(&mut self, mut path: Vec<PageId>, mut sep: K, mut new_child: PageId) {
        let icap = Self::internal_cap(&self.dev);
        while let Some(id) = path.pop() {
            let mut node = match self.read_node(id) {
                Node::Internal(n) => n,
                Node::Leaf(_) => unreachable!(),
            };
            let idx = node.keys.partition_point(|k| *k <= sep);
            node.keys.insert(idx, sep);
            node.children.insert(idx + 1, new_child);
            if node.keys.len() <= icap {
                self.write_internal(id, &node);
                return;
            }
            let mid = node.keys.len() / 2;
            let up = node.keys[mid];
            let right = Internal {
                keys: node.keys.split_off(mid + 1),
                children: node.children.split_off(mid + 1),
            };
            node.keys.pop();
            let right_id = self.alloc();
            self.write_internal(id, &node);
            self.write_internal(right_id, &right);
            sep = up;
            new_child = right_id;
        }
        // Split reached the root: grow the tree.
        let new_root = self.alloc();
        let node = Internal { keys: vec![sep], children: vec![self.root, new_child] };
        self.write_internal(new_root, &node);
        self.root = new_root;
        self.height += 1;
    }
}

impl<K: Record + Ord + Copy, V: Record> BPlusTree<K, V> {
    /// Delete `key`, returning its value. Amortized O(log_B n) IOs.
    ///
    /// Underflowing leaves first borrow from a sibling, then merge; interior
    /// underflow is repaired the same way up the path, and the root
    /// collapses when it has a single child.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (leaf_id, path) = self.descend(key);
        let mut leaf = match self.read_node(leaf_id) {
            Node::Leaf(l) => l,
            Node::Internal(_) => unreachable!(),
        };
        let i = leaf.keys.binary_search(key).ok()?;
        leaf.keys.remove(i);
        let val = leaf.vals.remove(i);
        self.len -= 1;
        let min_fill = Self::leaf_cap(&self.dev) / 2;
        self.write_leaf(leaf_id, &leaf);
        if leaf.keys.len() >= min_fill || path.is_empty() {
            return Some(val);
        }
        self.repair_leaf_underflow(leaf_id, leaf, path);
        Some(val)
    }

    fn repair_leaf_underflow(&mut self, leaf_id: PageId, leaf: Leaf<K, V>, mut path: Vec<PageId>) {
        let parent_id = path.pop().expect("non-root underflow has a parent");
        let mut parent = match self.read_node(parent_id) {
            Node::Internal(p) => p,
            Node::Leaf(_) => unreachable!(),
        };
        let idx = parent.children.iter().position(|&c| c == leaf_id).expect("parent lists child");
        let min_fill = Self::leaf_cap(&self.dev) / 2;
        // Try borrowing from the richer adjacent sibling.
        let try_sides: &[usize] = if idx == 0 {
            &[1]
        } else if idx + 1 == parent.children.len() {
            &[0]
        } else {
            &[0, 1] // 0 = left, 1 = right
        };
        let mut leaf = leaf;
        for &side in try_sides {
            let sib_idx = if side == 0 { idx - 1 } else { idx + 1 };
            let sib_id = parent.children[sib_idx];
            let mut sib = match self.read_node(sib_id) {
                Node::Leaf(l) => l,
                Node::Internal(_) => unreachable!(),
            };
            if sib.keys.len() > min_fill {
                if side == 0 {
                    // Move the left sibling's max into our front.
                    let k = sib.keys.pop().unwrap();
                    let v = sib.vals.pop().unwrap();
                    leaf.keys.insert(0, k);
                    leaf.vals.insert(0, v);
                    parent.keys[idx - 1] = k;
                } else {
                    // Move the right sibling's min onto our back.
                    let k = sib.keys.remove(0);
                    let v = sib.vals.remove(0);
                    leaf.keys.push(k);
                    leaf.vals.push(v);
                    parent.keys[idx] = sib.keys[0];
                }
                self.write_leaf(sib_id, &sib);
                self.write_leaf(leaf_id, &leaf);
                self.write_internal(parent_id, &parent);
                return;
            }
        }
        // Merge with a sibling (the left one when it exists).
        let (left_idx, left_id, mut left, right_id, right) = if idx > 0 {
            let lid = parent.children[idx - 1];
            let l = match self.read_node(lid) {
                Node::Leaf(x) => x,
                _ => unreachable!(),
            };
            (idx - 1, lid, l, leaf_id, leaf)
        } else {
            let rid = parent.children[idx + 1];
            let r = match self.read_node(rid) {
                Node::Leaf(x) => x,
                _ => unreachable!(),
            };
            (idx, leaf_id, leaf, rid, r)
        };
        left.keys.extend(right.keys);
        left.vals.extend(right.vals);
        left.next = right.next;
        self.write_leaf(left_id, &left);
        let _ = right_id; // page is abandoned (no free list in the model)
        parent.keys.remove(left_idx);
        parent.children.remove(left_idx + 1);
        self.write_internal(parent_id, &parent);
        self.repair_internal_underflow(parent_id, parent, path);
    }

    fn repair_internal_underflow(
        &mut self,
        node_id: PageId,
        node: Internal<K>,
        mut path: Vec<PageId>,
    ) {
        let min_fill = Self::internal_cap(&self.dev) / 2;
        if node.keys.len() >= min_fill {
            return;
        }
        let Some(parent_id) = path.pop() else {
            // Root: collapse when it lost all separators.
            if node.keys.is_empty() {
                self.root = node.children[0];
                self.height -= 1;
            }
            return;
        };
        let mut parent = match self.read_node(parent_id) {
            Node::Internal(p) => p,
            Node::Leaf(_) => unreachable!(),
        };
        let idx = parent.children.iter().position(|&c| c == node_id).expect("parent lists child");
        let mut node = node;
        // Borrow through the parent separator.
        let try_sides: &[usize] = if idx == 0 {
            &[1]
        } else if idx + 1 == parent.children.len() {
            &[0]
        } else {
            &[0, 1]
        };
        for &side in try_sides {
            let sib_idx = if side == 0 { idx - 1 } else { idx + 1 };
            let sib_id = parent.children[sib_idx];
            let mut sib = match self.read_node(sib_id) {
                Node::Internal(s) => s,
                Node::Leaf(_) => unreachable!(),
            };
            if sib.keys.len() > min_fill {
                if side == 0 {
                    let sep = parent.keys[idx - 1];
                    let k = sib.keys.pop().unwrap();
                    let c = sib.children.pop().unwrap();
                    node.keys.insert(0, sep);
                    node.children.insert(0, c);
                    parent.keys[idx - 1] = k;
                } else {
                    let sep = parent.keys[idx];
                    let k = sib.keys.remove(0);
                    let c = sib.children.remove(0);
                    node.keys.push(sep);
                    node.children.push(c);
                    parent.keys[idx] = k;
                }
                self.write_internal(sib_id, &sib);
                self.write_internal(node_id, &node);
                self.write_internal(parent_id, &parent);
                return;
            }
        }
        // Merge with a sibling through the separator.
        let (left_idx, left_id, mut left, right) = if idx > 0 {
            let lid = parent.children[idx - 1];
            let l = match self.read_node(lid) {
                Node::Internal(x) => x,
                _ => unreachable!(),
            };
            (idx - 1, lid, l, node)
        } else {
            let rid = parent.children[idx + 1];
            let r = match self.read_node(rid) {
                Node::Internal(x) => x,
                _ => unreachable!(),
            };
            (idx, node_id, node, r)
        };
        left.keys.push(parent.keys[left_idx]);
        left.keys.extend(right.keys);
        left.children.extend(right.children);
        self.write_internal(left_id, &left);
        parent.keys.remove(left_idx);
        parent.children.remove(left_idx + 1);
        self.write_internal(parent_id, &parent);
        self.repair_internal_underflow(parent_id, parent, path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceConfig};

    fn dev() -> Device {
        Device::new(DeviceConfig::new(256, 0))
    }

    #[test]
    fn bulk_load_and_get() {
        let d = dev();
        let pairs: Vec<(i64, i64)> = (0..1000).map(|i| (i * 2, i)).collect();
        let t = BPlusTree::bulk_load(&d, &pairs);
        assert_eq!(t.len(), 1000);
        for i in 0..1000 {
            assert_eq!(t.get(&(i * 2)), Some(i));
            assert_eq!(t.get(&(i * 2 + 1)), None);
        }
    }

    #[test]
    fn floor_semantics() {
        let d = dev();
        let pairs: Vec<(i64, i64)> = (0..100).map(|i| (i * 10, i)).collect();
        let t = BPlusTree::bulk_load(&d, &pairs);
        assert_eq!(t.floor(&-1), None);
        assert_eq!(t.floor(&0), Some((0, 0)));
        assert_eq!(t.floor(&9), Some((0, 0)));
        assert_eq!(t.floor(&10), Some((10, 1)));
        assert_eq!(t.floor(&995), Some((990, 99)));
    }

    #[test]
    fn range_scan_is_sorted_and_complete() {
        let d = dev();
        let pairs: Vec<(i64, i64)> = (0..500).map(|i| (i, i * i)).collect();
        let t = BPlusTree::bulk_load(&d, &pairs);
        let mut got = Vec::new();
        t.range(&100, &200, |k, v| got.push((*k, *v)));
        assert_eq!(got, (100..=200).map(|i| (i, i * i)).collect::<Vec<_>>());
    }

    #[test]
    fn range_io_is_logarithmic_plus_output() {
        let d = dev();
        let pairs: Vec<(i64, i64)> = (0..10_000).map(|i| (i, i)).collect();
        let t = BPlusTree::bulk_load(&d, &pairs);
        d.reset_stats();
        let mut cnt = 0u64;
        t.range(&5000, &5100, |_, _| cnt += 1);
        assert_eq!(cnt, 101);
        let leaf_cap = BPlusTree::<i64, i64>::leaf_cap(&d) as u64;
        let io = d.stats().reads;
        // height + ceil(t/B) + slack
        assert!(
            io <= t.height() as u64 + 101 / leaf_cap + 3,
            "io {io} too large (height {})",
            t.height()
        );
    }

    #[test]
    fn inserts_match_reference_model() {
        let d = dev();
        let mut t: BPlusTree<i64, i64> = BPlusTree::new(&d);
        let mut model = std::collections::BTreeMap::new();
        // Deterministic pseudo-random insertion order.
        let mut x: i64 = 12345;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = x % 10_000;
            t.insert(k, x);
            model.insert(k, x);
        }
        assert_eq!(t.len(), model.len());
        for (k, v) in &model {
            assert_eq!(t.get(k), Some(*v), "key {k}");
        }
        let mut got = Vec::new();
        t.range(&i64::MIN, &i64::MAX, |k, v| got.push((*k, *v)));
        assert_eq!(got, model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn insert_after_bulk_load() {
        let d = dev();
        let pairs: Vec<(i64, i64)> = (0..100).map(|i| (i * 3, i)).collect();
        let mut t = BPlusTree::bulk_load(&d, &pairs);
        for i in 0..100 {
            t.insert(i * 3 + 1, -i);
        }
        for i in 0..100 {
            assert_eq!(t.get(&(i * 3)), Some(i));
            assert_eq!(t.get(&(i * 3 + 1)), Some(-i));
        }
    }

    #[test]
    fn remove_simple() {
        let d = dev();
        let pairs: Vec<(i64, i64)> = (0..100).map(|i| (i, i * 10)).collect();
        let mut t = BPlusTree::bulk_load(&d, &pairs);
        assert_eq!(t.remove(&50), Some(500));
        assert_eq!(t.remove(&50), None);
        assert_eq!(t.get(&50), None);
        assert_eq!(t.len(), 99);
        assert_eq!(t.get(&49), Some(490));
        assert_eq!(t.get(&51), Some(510));
    }

    #[test]
    fn remove_everything_in_order() {
        let d = dev();
        let pairs: Vec<(i64, i64)> = (0..500).map(|i| (i, i)).collect();
        let mut t = BPlusTree::bulk_load(&d, &pairs);
        for i in 0..500 {
            assert_eq!(t.remove(&i), Some(i), "remove {i}");
            assert_eq!(t.get(&i), None);
            if i + 1 < 500 {
                assert_eq!(t.get(&(i + 1)), Some(i + 1), "successor of {i} must survive");
            }
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1, "tree must collapse back to a single leaf");
    }

    #[test]
    fn remove_reverse_and_reinsert() {
        let d = dev();
        let pairs: Vec<(i64, i64)> = (0..300).map(|i| (i * 2, i)).collect();
        let mut t = BPlusTree::bulk_load(&d, &pairs);
        for i in (0..300).rev() {
            assert_eq!(t.remove(&(i * 2)), Some(i));
        }
        assert!(t.is_empty());
        for i in 0..300 {
            t.insert(i, -i);
        }
        for i in 0..300 {
            assert_eq!(t.get(&i), Some(-i));
        }
    }

    #[test]
    fn interleaved_ops_match_reference_model() {
        let d = dev();
        let mut t: BPlusTree<i64, i64> = BPlusTree::new(&d);
        let mut model = std::collections::BTreeMap::new();
        let mut x: i64 = 999;
        for step in 0..6000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = (x >> 33) % 700;
            match step % 3 {
                0 | 1 => {
                    t.insert(k, x);
                    model.insert(k, x);
                }
                _ => {
                    assert_eq!(t.remove(&k), model.remove(&k), "step {step} key {k}");
                }
            }
            if step % 503 == 0 {
                let mut got = Vec::new();
                t.range(&i64::MIN, &i64::MAX, |k, v| got.push((*k, *v)));
                assert_eq!(got, model.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>());
            }
        }
        assert_eq!(t.len(), model.len());
    }

    #[test]
    fn range_scan_correct_after_merges() {
        let d = dev();
        let pairs: Vec<(i64, i64)> = (0..400).map(|i| (i, i)).collect();
        let mut t = BPlusTree::bulk_load(&d, &pairs);
        // Punch holes to force borrows and merges across leaves.
        for i in (0..400).step_by(3) {
            t.remove(&i);
        }
        let mut got = Vec::new();
        t.range(&0, &399, |k, _| got.push(*k));
        let want: Vec<i64> = (0..400).filter(|i| i % 3 != 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_tree_behaviour() {
        let d = dev();
        let t: BPlusTree<i64, i64> = BPlusTree::new(&d);
        assert_eq!(t.get(&5), None);
        assert_eq!(t.floor(&5), None);
        let mut n = 0;
        t.range(&0, &100, |_, _| n += 1);
        assert_eq!(n, 0);
    }
}
