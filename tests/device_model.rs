//! Cost-model behaviour: the IO counts the harness reports must be
//! deterministic, cache-sensitive in the right direction, and consistent
//! with the space accounting.

use lcrs::extmem::{Device, DeviceConfig, PageId, TempDir, VecFile};
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs::workloads::{halfplane_with_selectivity, points2, Dist2};

#[test]
fn query_io_counts_are_deterministic() {
    let pts = points2(Dist2::Uniform, 2000, 1 << 20, 1);
    let dev = Device::new(DeviceConfig::new(512, 0));
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    let (m, c) = halfplane_with_selectivity(&pts, 100, 30, 2);
    let (r1, s1) = dev.measure(|| hs.query_below(m, c, false));
    let (r2, s2) = dev.measure(|| hs.query_below(m, c, false));
    assert_eq!(r1.len(), r2.len());
    assert_eq!(s1.total(), s2.total(), "uncached queries must cost the same every time");
}

#[test]
fn cache_reduces_but_never_changes_answers() {
    let pts = points2(Dist2::Uniform, 2000, 1 << 20, 3);
    // Same build twice: without cache and with a generous cache.
    let dev_cold = Device::new(DeviceConfig::new(512, 0));
    let hs_cold = HalfspaceRS2::build(&dev_cold, &pts, Hs2dConfig::default());
    let dev_warm = Device::new(DeviceConfig::new(512, 256));
    let hs_warm = HalfspaceRS2::build(&dev_warm, &pts, Hs2dConfig::default());
    let (m, c) = halfplane_with_selectivity(&pts, 150, 30, 4);
    let (mut r_cold, s_cold) = dev_cold.measure(|| hs_cold.query_below(m, c, false));
    // Warm the cache with one query, then measure the second.
    let _ = hs_warm.query_below(m, c, false);
    let (mut r_warm, s_warm) = dev_warm.measure(|| hs_warm.query_below(m, c, false));
    r_cold.sort_unstable();
    r_warm.sort_unstable();
    assert_eq!(r_cold, r_warm);
    assert!(
        s_warm.total() < s_cold.total(),
        "a warm cache must absorb IOs: warm {} vs cold {}",
        s_warm.total(),
        s_cold.total()
    );
}

#[test]
fn space_accounting_matches_device_pages() {
    let dev = Device::new(DeviceConfig::new(512, 0));
    let before = dev.pages_allocated();
    let pts = points2(Dist2::Uniform, 3000, 1 << 20, 5);
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    assert_eq!(hs.pages(), dev.pages_allocated());
    assert!(hs.pages() > before);
}

#[test]
fn get_many_pays_one_io_per_page() {
    let dev = Device::new(DeviceConfig::new(64, 0)); // 8 i64 per page
    let f = VecFile::from_slice(&dev, &(0..512i64).collect::<Vec<_>>());
    dev.reset_stats();
    // 16 indices spread over exactly 4 pages.
    let idx: Vec<usize> = (0..16).map(|i| (i % 4) + (i / 4) * 8).map(|i| i * 8 + 3).collect();
    let mut idx = idx;
    idx.sort_unstable();
    idx.dedup();
    let pages: std::collections::HashSet<usize> = idx.iter().map(|i| i / 8).collect();
    let mut out = Vec::new();
    f.get_many(&idx, &mut out);
    assert_eq!(out.len(), idx.len());
    assert_eq!(dev.stats().reads as usize, pages.len());
    for (k, &i) in idx.iter().enumerate() {
        assert_eq!(out[k], i as i64);
    }
}

/// Reference LRU with a linear-scan eviction of the page with the oldest
/// last use, driven in lockstep with the device to pin that its slab LRU
/// (a recency list whose tail is the victim) picks bit-identical victims:
/// ticks are unique, so "min last-used tick" is a deterministic choice
/// either way. Pages are keyed by (store id, page id), as in a scope that
/// spans several stores.
struct ModelLru {
    cap: usize,
    entries: Vec<((u64, u64), u64)>, // ((store, page), last-used tick)
    tick: u64,
    reads: u64,
    writes: u64,
    hits: u64,
}

impl ModelLru {
    fn new(cap: usize) -> ModelLru {
        ModelLru { cap, entries: Vec::new(), tick: 0, reads: 0, writes: 0, hits: 0 }
    }

    fn touch(&mut self, key: (u64, u64)) {
        self.tick += 1;
        if self.cap == 0 {
            return;
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == key) {
            e.1 = self.tick;
            return;
        }
        if self.entries.len() >= self.cap {
            let victim =
                self.entries.iter().enumerate().min_by_key(|(_, e)| e.1).map(|(i, _)| i).unwrap();
            self.entries.swap_remove(victim);
        }
        self.entries.push((key, self.tick));
    }

    fn read(&mut self, key: (u64, u64)) {
        if self.cap > 0 && self.entries.iter().any(|e| e.0 == key) {
            self.hits += 1;
        } else {
            self.reads += 1;
        }
        self.touch(key);
    }

    fn write(&mut self, key: (u64, u64)) {
        self.writes += 1;
        self.touch(key);
    }

    fn counts(&self) -> (u64, u64, u64) {
        (self.reads, self.writes, self.hits)
    }
}

/// A seeded LCG for the lockstep traces.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed;
    move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        s >> 33
    }
}

/// The bytes of page `p` of a lockstep test's snapshot.
fn snapshot_page(p: u64) -> Vec<u8> {
    (0..64u64).map(|i| (p * 7 + i * 13) as u8).collect()
}

/// A 64-byte-page snapshot of `universe` pages holding [`snapshot_page`].
fn write_snapshot(dir: &TempDir, name: &str, universe: u64) -> std::path::PathBuf {
    let dev = Device::new(DeviceConfig::new(64, 0));
    dev.alloc_pages(universe as usize);
    for p in 0..universe {
        dev.write_page(PageId(p), |b| b.copy_from_slice(&snapshot_page(p)));
    }
    let path = dir.file(name);
    dev.freeze_to_path(&path).unwrap();
    path
}

#[test]
fn lru_matches_linear_scan_reference_exactly() {
    for cache_pages in [0usize, 1, 3, 17] {
        let dev = Device::new(DeviceConfig::new(64, cache_pages));
        let universe = 50u64;
        dev.alloc_pages(universe as usize);
        let store = dev.store_id();
        let mut model = ModelLru::new(cache_pages);
        let mut next = lcg(0xfeed_0000 + cache_pages as u64);
        for step in 0..4000 {
            let p = next() % universe;
            match next() % 10 {
                0..=5 => {
                    dev.read_page(PageId(p), |_| ());
                    model.read((store, p));
                }
                6..=7 => {
                    dev.write_page(PageId(p), |b| b[0] = step as u8);
                    model.write((store, p));
                }
                8 => {
                    // A read, then a write: two ticks in both worlds.
                    dev.read_page(PageId(p), |_| ());
                    dev.write_page(PageId(p), |b| b[0] ^= 1);
                    model.read((store, p));
                    model.write((store, p));
                }
                _ => {
                    dev.clear_cache();
                    model.entries.clear();
                }
            }
            let st = dev.stats();
            assert_eq!(
                (st.reads, st.writes, st.cache_hits),
                model.counts(),
                "divergence at step {step} with cache={cache_pages}"
            );
        }
    }
}

#[test]
fn frames_of_a_reopened_device_match_the_reference_lru_exactly() {
    // The same reference, in lockstep with a snapshot-backed device: hits
    // are served from the scope's frames and misses pread into recycled
    // ones, so every read must return that page's own bytes, and the
    // (reads, hits) stream must be the reference LRU's step by step.
    let dir = TempDir::new("lcrs-frames-model");
    let universe = 50u64;
    let path = write_snapshot(&dir, "model.pages", universe);
    for cache_pages in [0usize, 1, 3, 17] {
        let re = Device::open_snapshot(&path, cache_pages).unwrap();
        let store = re.store_id();
        let mut model = ModelLru::new(cache_pages);
        let mut next = lcg(0xf4a3_0000 + cache_pages as u64);
        for step in 0..4000 {
            let p = next() % universe;
            if next() % 10 < 9 {
                let bytes = re.read_page(PageId(p), |b| b.to_vec());
                assert_eq!(
                    bytes,
                    snapshot_page(p),
                    "page {p} at step {step} with cache={cache_pages}"
                );
                model.read((store, p));
            } else {
                re.clear_cache();
                model.entries.clear();
            }
            let st = re.stats();
            assert_eq!(
                (st.reads, st.cache_hits),
                (model.reads, model.hits),
                "divergence at step {step} with cache={cache_pages}"
            );
        }
    }
}

#[test]
fn one_scope_over_two_stores_matches_the_reference_lru_exactly() {
    // One `scoped_to` scope spans a store still in its build phase (read
    // and written) and a reopened snapshot (read through frames), so both
    // stores' pages, with equal page ids, share one LRU budget: the pages
    // of one store evict the other's, and an evicted snapshot page's frame
    // is recycled for the next miss of either kind.
    let dir = TempDir::new("lcrs-two-store-model");
    let universe = 40u64;
    let path = write_snapshot(&dir, "two.pages", universe);
    for cache_pages in [0usize, 1, 3, 17] {
        let built = Device::new(DeviceConfig::new(64, cache_pages));
        built.alloc_pages(universe as usize);
        let mut host = vec![vec![0u8; 64]; universe as usize];
        let reopened = Device::open_snapshot(&path, cache_pages).unwrap();
        let view = (*reopened).scoped_to(&built);
        let (built_id, snap_id) = (built.store_id(), reopened.store_id());
        let mut model = ModelLru::new(cache_pages);
        let mut next = lcg(0x2570_0000 + cache_pages as u64);
        for step in 0..6000 {
            let p = next() % universe;
            let at = format!("page {p} at step {step} with cache={cache_pages}");
            match next() % 16 {
                0..=5 => {
                    let bytes = view.read_page(PageId(p), |b| b.to_vec());
                    assert_eq!(bytes, snapshot_page(p), "snapshot {at}");
                    model.read((snap_id, p));
                }
                6..=10 => {
                    let bytes = built.read_page(PageId(p), |b| b.to_vec());
                    assert_eq!(bytes, host[p as usize], "built {at}");
                    model.read((built_id, p));
                }
                11..=14 => {
                    let v = (next() & 0xff) as u8;
                    built.write_page(PageId(p), |b| b[step % 64] = v);
                    host[p as usize][step % 64] = v;
                    model.write((built_id, p));
                }
                _ => {
                    if next().is_multiple_of(2) {
                        built.clear_cache();
                    } else {
                        view.clear_cache();
                    }
                    model.entries.clear();
                }
            }
            let st = built.stats();
            assert_eq!((st.reads, st.writes, st.cache_hits), model.counts(), "divergence at {at}");
            assert_eq!(view.stats(), st, "the view accounts into the shared scope");
            assert_eq!(built.cached_pages(), model.entries.len(), "residency at {at}");
            assert!(built.cached_pages() <= cache_pages, "over budget at {at}");
        }
        assert_eq!(reopened.stats().total(), 0, "the snapshot's own scope stays untouched");
    }
}

#[test]
fn all_duplicate_input_still_answers() {
    let pts: Vec<(i64, i64)> = vec![(7, -3); 500];
    let dev = Device::new(DeviceConfig::new(512, 0));
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    assert_eq!(hs.unique_points(), 1);
    assert_eq!(hs.query_below(0, 0, false).len(), 500); // -3 < 0
    assert_eq!(hs.query_below(0, -3, false).len(), 0);
    assert_eq!(hs.query_below(0, -3, true).len(), 500);
}
