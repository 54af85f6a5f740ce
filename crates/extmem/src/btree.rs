//! An external-memory B+-tree, bulk-loaded once and read-only afterwards.
//!
//! This is the paper's Section 1.2 baseline ("B-trees answer one-dimensional
//! range queries in O(log_B n + t) IOs using linear space") and the building
//! block used in Section 3 to search clustering boundaries. Keys and values
//! are fixed-size [`Record`]s; internal nodes hold only keys and child
//! pointers, leaves hold key/value pairs and are chained for range scans.
//! [`BPlusTree::bulk_load`] is the only constructor. A lookup descends once
//! and reads `height` pages, and [`BPlusTree::load`] verifies every node of
//! a reopened tree before its first lookup.

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

struct Leaf<K, V> {
    keys: Vec<K>,
    vals: Vec<V>,
    next: Option<PageId>,
}

struct Internal<K> {
    /// Separator `i` is the first key under child `i + 1`.
    keys: Vec<K>,
    /// `keys.len() + 1` children.
    children: Vec<PageId>,
}

enum Node<K, V> {
    Leaf(Leaf<K, V>),
    Internal(Internal<K>),
}

impl<K: Record + Ord + Copy, V: Record> BPlusTree<K, V> {
    // Capacities stop at `u16::MAX`, the most a node's count field holds.
    fn leaf_cap(dev: &DeviceHandle) -> usize {
        let c = (dev.page_bytes() - HDR) / (K::SIZE + V::SIZE);
        assert!(c >= 4, "page too small for B+-tree leaf");
        c.min(u16::MAX as usize)
    }

    fn internal_cap(dev: &DeviceHandle) -> usize {
        // k keys + (k+1) children of 8 bytes.
        let c = (dev.page_bytes() - HDR - 8) / (K::SIZE + 8);
        assert!(c >= 4, "page too small for B+-tree internal node");
        c.min(u16::MAX as usize)
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

    /// Decode the node on page `id`, read through `dev`. A tag that is
    /// neither leaf nor internal, or a count over the node's capacity, is
    /// an error found before any entry is decoded.
    fn read_node(dev: &DeviceHandle, id: PageId) -> Result<Node<K, V>, String> {
        let (leaf_cap, internal_cap) = (Self::leaf_cap(dev), Self::internal_cap(dev));
        dev.read_page(id, |b| {
            let count = u16::load(&b[1..]) as usize;
            let cap = match b[0] {
                TAG_LEAF => leaf_cap,
                TAG_INTERNAL => internal_cap,
                tag => return Err(format!("page {} has node tag {tag}", id.0)),
            };
            if count > cap {
                return Err(format!("page {} holds {count} entries, over its {cap}", id.0));
            }
            let mut off = HDR;
            if b[0] == TAG_LEAF {
                let next = u64::load(&b[3..]);
                let mut keys = Vec::with_capacity(count);
                let mut vals = Vec::with_capacity(count);
                for _ in 0..count {
                    keys.push(K::load(&b[off..]));
                    off += K::SIZE;
                    vals.push(V::load(&b[off..]));
                    off += V::SIZE;
                }
                let next = if next == NO_PAGE { None } else { Some(PageId(next)) };
                Ok(Node::Leaf(Leaf { keys, vals, next }))
            } else {
                let mut keys = Vec::with_capacity(count);
                let mut children = Vec::with_capacity(count + 1);
                for _ in 0..count {
                    keys.push(K::load(&b[off..]));
                    off += K::SIZE;
                }
                for _ in 0..=count {
                    children.push(PageId(u64::load(&b[off..])));
                    off += 8;
                }
                Ok(Node::Internal(Internal { keys, children }))
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

    /// Bulk-load from key-sorted pairs; panics unless the keys are strictly
    /// increasing. Packs leaves to ~full, building each level with one pass.
    /// No pairs give a tree of one empty leaf.
    pub fn bulk_load(dev: &DeviceHandle, pairs: &[(K, V)]) -> Self {
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "bulk_load requires sorted unique keys");
        let mut t = BPlusTree {
            dev: dev.clone(),
            root: PageId(NO_PAGE),
            height: 1,
            len: pairs.len(),
            pages: 0,
            _marker: Default::default(),
        };
        let leaf_cap = Self::leaf_cap(dev);
        if pairs.is_empty() {
            t.root = t.alloc();
            t.write_leaf(t.root, &Leaf { keys: vec![], vals: vec![], next: None });
            return t;
        }
        // Build leaves.
        let mut level: Vec<(K, PageId)> = Vec::new(); // (min key, page)
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

    /// Height in levels (1 = a single leaf): the pages a lookup reads.
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
    /// through `dev`. A page geometry the node layout cannot fit, a root
    /// outside the store, or any node that breaks the tree's invariants
    /// (see `verify`) is a [`crate::snapshot::SnapshotError::Meta`], never
    /// a panic at a later lookup.
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
        let tree = BPlusTree {
            dev: dev.clone(),
            root: PageId(root),
            height,
            len,
            pages,
            _marker: Default::default(),
        };
        tree.verify().map_err(|detail| r.error(detail))?;
        Ok(tree)
    }

    /// Read every node once, on a throwaway fork so no scope's stats,
    /// cache or frames move, and check what a lookup relies on: node tags
    /// and counts (in `read_node`), child ids inside the store (before the
    /// child is read), `height` nodes on every root-to-leaf path, each
    /// separator equal to the first key under it, one leaf chain in key
    /// order with strictly rising keys, and `len` keys in all. At most
    /// `pages` nodes are read, whatever the pages say.
    fn verify(&self) -> Result<(), String> {
        let h = self.dev.fork();
        let allocated = h.pages_allocated();
        // (page, depth, the separator its first key must equal)
        let mut stack = vec![(self.root, 1, None)];
        let mut visited = 0;
        let mut keys = 0;
        let mut last_key: Option<K> = None;
        // The next pointer of the last leaf reached, once one is.
        let mut chain: Option<Option<PageId>> = None;
        while let Some((id, depth, first)) = stack.pop() {
            visited += 1;
            if visited > self.pages {
                return Err(format!("the tree reaches more than its {} pages", self.pages));
            }
            match Self::read_node(&h, id)? {
                Node::Internal(node) => {
                    for (i, &child) in node.children.iter().enumerate().rev() {
                        if child.0 >= allocated {
                            return Err(format!(
                                "page {} names child {} of {allocated} pages",
                                id.0, child.0
                            ));
                        }
                        let first = if i == 0 { first } else { Some(node.keys[i - 1]) };
                        stack.push((child, depth + 1, first));
                    }
                }
                Node::Leaf(leaf) => {
                    if depth != self.height {
                        return Err(format!(
                            "leaf page {} at depth {depth} of a height-{} tree",
                            id.0, self.height
                        ));
                    }
                    if chain.is_some_and(|next| next != Some(id)) {
                        return Err(format!("the leaf chain skips leaf page {}", id.0));
                    }
                    if first.is_some() && leaf.keys.first() != first.as_ref() {
                        return Err(format!("leaf page {} does not start at its separator", id.0));
                    }
                    for &k in &leaf.keys {
                        if last_key.is_some_and(|l| l >= k) {
                            return Err(format!("keys do not rise at leaf page {}", id.0));
                        }
                        last_key = Some(k);
                    }
                    keys += leaf.keys.len();
                    chain = Some(leaf.next);
                }
            }
        }
        if chain != Some(None) {
            return Err("the last leaf links to another page".to_string());
        }
        if keys != self.len {
            return Err(format!("the leaves hold {keys} keys, not {}", self.len));
        }
        Ok(())
    }

    /// Descend from page `id` toward `key`, one read per level, to the leaf
    /// whose key range holds `key`. From a leaf page that is the leaf.
    fn descend(&self, mut id: PageId, key: &K) -> Leaf<K, V> {
        loop {
            // Nodes were written by `bulk_load` or checked by `load`.
            match Self::read_node(&self.dev, id).expect("B+-tree nodes are checked when loaded") {
                Node::Leaf(leaf) => return leaf,
                Node::Internal(node) => id = node.children[node.keys.partition_point(|k| k <= key)],
            }
        }
    }

    /// Exact-match lookup: `height` IOs.
    pub fn get(&self, key: &K) -> Option<V> {
        let leaf = self.descend(self.root, key);
        leaf.keys.binary_search(key).ok().map(|i| leaf.vals[i])
    }

    /// Largest key `<= key`, with its value (predecessor search): `height`
    /// IOs.
    pub fn floor(&self, key: &K) -> Option<(K, V)> {
        // A leaf starts at its separator, so the leaf reached holds a key
        // `<= key` unless no key of the tree is.
        let leaf = self.descend(self.root, key);
        let i = leaf.keys.partition_point(|k| k <= key);
        (i > 0).then(|| (leaf.keys[i - 1], leaf.vals[i - 1]))
    }

    /// Visit all pairs with `lo <= key <= hi` in key order: `height` IOs,
    /// plus one per further leaf of the chain walked.
    pub fn range(&self, lo: &K, hi: &K, mut f: impl FnMut(&K, &V)) {
        if lo > hi {
            return;
        }
        let mut leaf = self.descend(self.root, lo);
        loop {
            for (k, v) in leaf.keys.iter().zip(&leaf.vals) {
                if k > hi {
                    return;
                }
                if k >= lo {
                    f(k, v);
                }
            }
            let Some(next) = leaf.next else { return };
            leaf = self.descend(next, hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceConfig};
    use crate::snapshot::{MetaReader, MetaWriter, SnapshotError, TempDir};

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

    /// Reads charged to `d`'s primary scope by `f`.
    fn reads(d: &Device, f: impl FnOnce()) -> u64 {
        d.reset_stats();
        f();
        d.stats().reads
    }

    #[test]
    fn lookups_read_one_page_per_level() {
        // Uncached, every page touched is one read, so a lookup reading
        // `height` pages reads each node on its path once. 256-byte pages
        // hold 15 pairs a leaf: 10,000 keys fill 667 leaves, leaf j holding
        // the keys 15j..15j + 14.
        assert_eq!(BPlusTree::<i64, i64>::leaf_cap(&dev()), 15);
        for (n, height) in [(0, 1), (10, 1), (10_000, 4)] {
            let d = dev();
            let pairs: Vec<(i64, i64)> = (0..n).map(|i| (i, -i)).collect();
            let t = BPlusTree::bulk_load(&d, &pairs);
            assert_eq!(t.height(), height);
            let h = height as u64;
            for k in [-1, 0, 7, n / 2, n - 1, n + 5] {
                assert_eq!(reads(&d, || assert_eq!(t.get(&k).is_some(), (0..n).contains(&k))), h);
                assert_eq!(reads(&d, || assert_eq!(t.floor(&k).is_some(), k >= 0 && n > 0)), h);
            }
            // `range` walks on from the leaf of `lo` to the leaf of the
            // first key past `hi`, or to the last leaf.
            let leaf = |k: i64| (k.clamp(0, (n - 1).max(0)) / 15) as u64;
            for (lo, hi) in
                [(0, 0), (3, 5), (100, 400), (100, 404), (-5, n + 5), (n / 2, n / 2 + 14)]
            {
                let further = leaf(hi + 1) - leaf(lo);
                let got = reads(&d, || t.range(&lo, &hi, |_, _| ()));
                assert_eq!(got, h + further, "range({lo}, {hi}) over {n} keys");
            }
        }
        // Cached, a cold lookup reads the same pages and hits none.
        let d = Device::new(DeviceConfig::new(256, 8));
        let pairs: Vec<(i64, i64)> = (0..10_000).map(|i| (i, -i)).collect();
        let t = BPlusTree::bulk_load(&d, &pairs);
        d.clear_cache();
        d.reset_stats();
        assert_eq!(t.floor(&5000), Some((5000, -5000)));
        assert_eq!((d.stats().reads, d.stats().cache_hits), (4, 0));
    }

    #[test]
    fn node_counts_fit_their_16_bit_field() {
        // 2 MiB pages would hold 131,071 pairs a leaf; a leaf of 100,000
        // used to record 34,464 of them.
        let d = Device::new(DeviceConfig::new(2 << 20, 0));
        let pairs: Vec<(i64, i64)> = (0..100_000).map(|i| (i, -i)).collect();
        let t = BPlusTree::bulk_load(&d, &pairs);
        assert_eq!(t.height(), 2);
        assert_eq!(t.get(&50_000), Some(-50_000));
        assert_eq!(t.floor(&i64::MAX), Some((99_999, -99_999)));
        let mut n = 0;
        t.range(&0, &i64::MAX, |_, _| n += 1);
        assert_eq!(n, 100_000);
    }

    #[test]
    #[should_panic(expected = "sorted unique keys")]
    fn bulk_load_refuses_unsorted_keys() {
        BPlusTree::bulk_load(&dev(), &[(2i64, 0i64), (1, 0)]);
    }

    #[test]
    fn load_verifies_every_node() {
        // 10,000 even keys on 256-byte pages: leaves are pages 0..667 (leaf
        // j holds the keys 30j..30j + 28), then the internal levels, with
        // the root last. Pages are corrupted before the snapshot is
        // written, so every checksum holds.
        type Corrupt<'a> = &'a dyn Fn(&Device, &BPlusTree<i64, i64>, &mut [u64; 4]);
        let dir = TempDir::new("lcrs-btree-verify");
        let pairs: Vec<(i64, i64)> = (0..10_000).map(|i| (2 * i, i)).collect();
        let open = |name: &str, corrupt: Corrupt| {
            let d = Device::new(DeviceConfig::new(256, 8));
            let t = BPlusTree::bulk_load(&d, &pairs);
            let mut meta = [t.root.0, t.height as u64, t.len as u64, t.pages as u64];
            corrupt(&d, &t, &mut meta);
            let path = dir.file(&format!("{name}.pages"));
            d.freeze_to_path(&path).unwrap();
            let re = Device::open_snapshot(&path, 8).unwrap();
            let mut w = MetaWriter::new();
            meta.iter().for_each(|&v| w.u64(v));
            let mut r = MetaReader::from_bytes(w.into_bytes()).unwrap();
            (BPlusTree::<i64, i64>::load(&re, &mut r), re)
        };
        // The walk reads through a fork: the reopened scope stays cold.
        let (t, re) = open("intact", &|_, _, _| ());
        assert_eq!((re.stats(), re.cached_pages()), (crate::IoStats::default(), 0));
        assert_eq!(t.unwrap().floor(&151), Some((150, 75)));

        let set = |d: &Device, page: u64, at: usize, bytes: &[u8]| {
            d.write_page(PageId(page), |b| b[at..at + bytes.len()].copy_from_slice(bytes))
        };
        let root_keys = |d: &Device, t: &BPlusTree<i64, i64>| {
            d.read_page(t.root, |b| u16::load(&b[1..]) as usize)
        };
        // Each corruption, and the breach `load` must name.
        let cases: [(&str, Corrupt); 11] = [
            ("node tag 7", &|d, _, _| set(d, 0, 0, &[7])),
            ("holds 15 entries", &|d, t, _| set(d, t.root.0, 1, &15u16.to_le_bytes())),
            ("names child", &|d, t, _| {
                set(d, t.root.0, HDR + 8 * root_keys(d, t), &u64::MAX.to_le_bytes())
            }),
            ("at depth 4 of a height-5 tree", &|_, _, m| m[1] += 1),
            ("at depth 4 of a height-3 tree", &|_, _, m| m[1] -= 1),
            ("10000 keys, not 10001", &|_, _, m| m[2] += 1),
            ("more than its 5 pages", &|_, _, m| m[3] = 5),
            ("does not start at its separator", &|d, _, _| set(d, 1, HDR, &31i64.to_le_bytes())),
            ("do not rise", &|d, _, _| set(d, 3, HDR + 16, &90i64.to_le_bytes())),
            ("skips leaf page 6", &|d, _, _| set(d, 5, 3, &7u64.to_le_bytes())),
            ("last leaf links", &|d, _, _| set(d, 666, 3, &0u64.to_le_bytes())),
        ];
        for (i, (breach, corrupt)) in cases.into_iter().enumerate() {
            match open(&format!("case{i}"), corrupt).0 {
                Err(SnapshotError::Meta { detail, .. }) => {
                    assert!(detail.contains(breach), "{detail}")
                }
                Err(e) => panic!("{breach}: {e}"),
                Ok(_) => panic!("{breach}: loaded"),
            }
        }
    }

    #[test]
    fn empty_tree_behaviour() {
        let d = dev();
        let t: BPlusTree<i64, i64> = BPlusTree::bulk_load(&d, &[]);
        assert_eq!((t.len(), t.height(), t.pages()), (0, 1, 1));
        assert_eq!(t.get(&5), None);
        assert_eq!(t.floor(&5), None);
        let mut n = 0;
        t.range(&0, &100, |_, _| n += 1);
        assert_eq!(n, 0);
    }
}
