//! The simulated disk.
//!
//! Storage is split into a *build phase* and a *read phase* (DESIGN.md §8):
//! a [`Device`] starts mutable — structures allocate and write pages through
//! it, serialized by a store-level mutex — and [`Device::freeze`] ends that
//! phase by moving the pages into an immutable `PageSource` that is read
//! without any lock. Cache state and [`IoStats`] do not live in the store at
//! all: they belong to [`DeviceHandle`] scopes, so concurrent readers each
//! get their own LRU and exact, deterministic IO attribution.
//!
//! A frozen store can also live on a real disk (DESIGN.md §9):
//! [`Device::freeze_to_path`] serializes the frozen pages into a versioned,
//! checksummed snapshot file, and [`Device::open_snapshot`] reopens one as a
//! read-only, file-backed store — same handles, same fork semantics, same
//! IO accounting, so an index built once can serve queries from any number
//! of later processes without rebuilding. Each scope keeps the bytes of its
//! resident file-backed pages in *frames* (DESIGN.md §13): a cache hit is
//! served from its frame with no syscall, a miss is one `pread`, so preads
//! issued equal the model's read IOs.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::snapshot::{write_snapshot, SnapshotError, SnapshotFile};
use crate::stats::{IoDelta, IoStats};

/// Identifier of a disk page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

/// Configuration of a [`Device`].
#[derive(Debug, Clone, Copy)]
pub struct DeviceConfig {
    /// Page size in bytes; `B` for a record type is `page_bytes / SIZE`.
    pub page_bytes: usize,
    /// Number of pages the internal-memory cache may hold (the `M/B` of the
    /// external-memory model). `0` disables caching, so *every* page access
    /// counts as an IO — the setting used for query measurements. The
    /// budget applies to each [`DeviceHandle`] scope separately.
    pub cache_pages: usize,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig { page_bytes: 4096, cache_pages: 0 }
    }
}

impl DeviceConfig {
    /// Convenience constructor.
    pub fn new(page_bytes: usize, cache_pages: usize) -> Self {
        DeviceConfig { page_bytes, cache_pages }
    }
}

/// Where a frozen store's page data lives: the build-phase vector moved in
/// place ([`Device::freeze`]), or a validated snapshot file
/// ([`Device::open_snapshot`]) whose pages reach readers through their
/// scope's frames (see `HandleState`). Both are immutable and read without
/// a store lock, so the source never changes `Send + Sync` reads, fork
/// semantics, or IO accounting — only where the bytes come from.
enum PageSource {
    Memory(Vec<Box<[u8]>>),
    File(SnapshotFile),
}

impl PageSource {
    /// A page of a memory-backed source. File-backed pages are read through
    /// a scope's frames ([`DeviceHandle::read_page`]), never here.
    fn memory_page(&self, id: PageId, op: &str) -> &[u8] {
        match self {
            PageSource::Memory(pages) => Store::page(pages, id, op),
            PageSource::File(_) => unreachable!("{op} of file-backed page {id:?} outside a frame"),
        }
    }

    fn page_count(&self) -> u64 {
        match self {
            PageSource::Memory(pages) => pages.len() as u64,
            PageSource::File(sf) => sf.page_count(),
        }
    }
}

/// Which backend a device's pages currently live on (see `PageSource`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageBackend {
    /// Still in the mutable build phase.
    Building,
    /// Frozen in memory ([`Device::freeze`]).
    Memory,
    /// Frozen on disk ([`Device::open_snapshot`]): a miss is one positional
    /// `pread` into a frame of the reading scope, a hit serves that frame.
    File,
}

/// The shared page store. While building, pages live behind `building`;
/// `freeze` moves them into `frozen`, after which every read is a plain
/// indexed load guarded only by one atomic pointer check (`OnceLock::get`).
struct Store {
    /// Process-unique store identity. Scope state (cache, stats) may be
    /// shared across stores ([`DeviceHandle::scoped_to`]), so cache entries
    /// are keyed by `(store id, page id)` — the same `PageId` on two
    /// different stores never aliases in the LRU.
    id: u64,
    cfg: DeviceConfig,
    building: Mutex<Vec<Box<[u8]>>>,
    frozen: OnceLock<PageSource>,
}

fn next_store_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Store {
    // NOTE: on an *unfrozen* store both accessors run `f` while holding the
    // (non-reentrant) build mutex, so a page closure must never access the
    // device again — `read_page(p, |_| read_page(q, ..))` would deadlock.
    // The pre-split device rejected the same pattern with a RefCell borrow
    // panic; no structure in the workspace nests page accesses. After
    // freeze() the read path takes no store lock and the constraint
    // disappears.
    fn with_page<R>(&self, id: PageId, op: &str, f: impl FnOnce(&[u8]) -> R) -> R {
        if let Some(src) = self.frozen.get() {
            return f(src.memory_page(id, op));
        }
        let guard = self.building.lock().unwrap();
        // Re-check: a freeze may have landed between the lock-free probe
        // and acquiring the build lock.
        if let Some(src) = self.frozen.get() {
            drop(guard);
            return f(src.memory_page(id, op));
        }
        f(Self::page(&guard, id, op))
    }

    fn with_page_mut<R>(&self, id: PageId, op: &str, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut guard = self.building.lock().unwrap();
        // Checked under the build lock: freeze() takes it too, so a racing
        // freeze either completes before this (and the check fires) or
        // waits until this write is done.
        assert!(self.frozen.get().is_none(), "{op} of page {id:?} on a frozen device");
        let idx = id.0 as usize;
        assert!(idx < guard.len(), "{op} of unallocated page {id:?}");
        f(&mut guard[idx])
    }

    fn page<'a>(pages: &'a [Box<[u8]>], id: PageId, op: &str) -> &'a [u8] {
        pages.get(id.0 as usize).unwrap_or_else(|| panic!("{op} of unallocated page {id:?}"))
    }

    fn pages_allocated(&self) -> u64 {
        if let Some(src) = self.frozen.get() {
            return src.page_count();
        }
        self.building.lock().unwrap().len() as u64
    }

    fn is_frozen(&self) -> bool {
        self.frozen.get().is_some()
    }
}

/// The bytes of one resident page of a file-backed store. Shared so a page
/// closure can hold its frame without the scope lock: a frame evicted while
/// held stays valid until the closure returns.
type Frame = Arc<[u8]>;

/// Per-scope mutable state: the LRU cache, the IO counters, and the frames
/// that hold the bytes of resident file-backed pages. One of these exists
/// per [`DeviceHandle`] scope, so readers never contend on it.
struct HandleState {
    stats: IoStats,
    /// Clean LRU cache: pages are write-through, so eviction never writes.
    /// `cache` maps a resident page (keyed by store id + page id, so a
    /// scope spanning several stores never conflates their pages) to its
    /// last-use tick; `by_tick` is the exact inverse (ticks are unique),
    /// kept ordered so the LRU victim is always the first entry. Promotion
    /// and eviction are O(log cache) — the batch engine runs with caches
    /// of thousands of pages, where a per-access linear scan would distort
    /// wall-clock measurements.
    cache: HashMap<(u64, PageId), u64>,
    by_tick: BTreeMap<u64, (u64, PageId)>,
    tick: u64,
    /// The frame of every resident page of a file-backed store, keyed as
    /// in `cache`. A page enters `frames` when its miss is accounted and
    /// leaves when the LRU evicts it or the cache is cleared, so a hit is
    /// served with no syscall. Memory-backed pages have no frame: their
    /// bytes are in RAM already.
    frames: HashMap<(u64, PageId), Frame>,
    /// Unshared frames for the next misses: at most `cache_pages` of them
    /// (one for an uncached scope), so a warm scope allocates nothing.
    spare: Vec<Frame>,
}

impl HandleState {
    fn new() -> Self {
        HandleState {
            stats: IoStats::default(),
            cache: HashMap::new(),
            by_tick: BTreeMap::new(),
            tick: 0,
            frames: HashMap::new(),
            spare: Vec::new(),
        }
    }

    fn touch(&mut self, cache_pages: usize, key: (u64, PageId)) {
        self.tick += 1;
        let tick = self.tick;
        if cache_pages == 0 {
            return;
        }
        if let Some(t) = self.cache.get_mut(&key) {
            self.by_tick.remove(t);
            *t = tick;
            self.by_tick.insert(tick, key);
            return;
        }
        if self.cache.len() >= cache_pages {
            // Evict the least recently used page: the smallest tick. This
            // picks the same victim a full scan would (ticks are unique),
            // so IO counts are deterministic. A file-backed victim's frame
            // goes with it.
            if let Some((_, victim)) = self.by_tick.pop_first() {
                self.cache.remove(&victim);
                if !self.frames.is_empty() {
                    if let Some(frame) = self.frames.remove(&victim) {
                        recycle(&mut self.spare, cache_pages, frame);
                    }
                }
            }
        }
        self.cache.insert(key, tick);
        self.by_tick.insert(tick, key);
    }

    fn account_read(&mut self, cache_pages: usize, key: (u64, PageId)) {
        if cache_pages > 0 && self.cache.contains_key(&key) {
            self.stats.cache_hits += 1;
        } else {
            self.stats.reads += 1;
        }
        self.touch(cache_pages, key);
    }

    fn account_write(&mut self, cache_pages: usize, key: (u64, PageId)) {
        self.stats.writes += 1;
        self.touch(cache_pages, key);
    }
}

/// Put a frame that no page owns any more on the free list, unless a page
/// closure still reads it or the list is full.
fn recycle(spare: &mut Vec<Frame>, cache_pages: usize, mut frame: Frame) {
    if Arc::get_mut(&mut frame).is_some() && spare.len() < cache_pages.max(1) {
        spare.push(frame);
    }
}

/// One accounting scope onto a shared page store.
///
/// Cheap to clone; clones *share* the scope (same cache, same counters), so
/// a structure and the test that built it observe one coherent stream of
/// IOs — the pre-refactor `Device` semantics. [`DeviceHandle::fork`] opens
/// a fresh scope over the same pages (empty cache, zeroed stats), which is
/// how each worker of the parallel executor gets its own warm LRU and an
/// IO total that is exactly attributable to it.
///
/// Handles are `Send + Sync`. On a frozen store the page-data path is
/// lock-free; the per-scope state sits behind a mutex that is private to
/// the scope, so workers on distinct forks never contend.
#[derive(Clone)]
pub struct DeviceHandle {
    store: Arc<Store>,
    state: Arc<Mutex<HandleState>>,
}

impl DeviceHandle {
    pub fn config(&self) -> DeviceConfig {
        self.store.cfg
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.store.cfg.page_bytes
    }

    /// Records of `size` bytes that fit in one page (the model's `B`).
    pub fn records_per_page(&self, size: usize) -> usize {
        assert!(
            size > 0 && size <= self.page_bytes(),
            "record size {size} must be in 1..={} (the page size in bytes)",
            self.page_bytes()
        );
        self.page_bytes() / size
    }

    /// A fresh scope (empty cache, zeroed stats) over the same page store.
    pub fn fork(&self) -> DeviceHandle {
        DeviceHandle {
            store: Arc::clone(&self.store),
            state: Arc::new(Mutex::new(HandleState::new())),
        }
    }

    /// A handle on *this* store that accounts into `scope`'s state: same
    /// pages as `self`, but IO counters and LRU residency shared with
    /// `scope` (cache entries are keyed by store, so pages of different
    /// stores never alias). This is how a composite structure spread over
    /// several devices — e.g. one frozen level per device — presents one
    /// coherent accounting scope: every part reads through a view scoped
    /// to a single anchor handle, and a stats bracket around that anchor
    /// observes exactly the composite's IOs.
    ///
    /// The LRU capacity charged on each access is the *accessed* store's
    /// `cache_pages`; keep it uniform across the stores sharing a scope
    /// for a single well-defined budget.
    pub fn scoped_to(&self, scope: &DeviceHandle) -> DeviceHandle {
        DeviceHandle { store: Arc::clone(&self.store), state: Arc::clone(&scope.state) }
    }

    /// `true` once the store's build phase ended (see [`Device::freeze`]).
    pub fn is_frozen(&self) -> bool {
        self.store.is_frozen()
    }

    /// Which backend the pages currently live on.
    pub fn backend(&self) -> PageBackend {
        match self.store.frozen.get() {
            None => PageBackend::Building,
            Some(PageSource::Memory(_)) => PageBackend::Memory,
            Some(PageSource::File(_)) => PageBackend::File,
        }
    }

    /// Serialize the *frozen* page store to a snapshot file (DESIGN.md §9:
    /// header, per-page checksums, raw pages; atomic rename). Errors with
    /// [`SnapshotError::NotFrozen`] while the build phase is still open —
    /// use [`Device::freeze_to_path`] to freeze-and-write in one step.
    ///
    /// Serialization is a host-side maintenance operation: it bypasses the
    /// cost model entirely (no reads are charged to any scope), exactly
    /// like construction-time page allocation models formatting.
    pub fn snapshot_to_path(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let page_bytes = self.store.cfg.page_bytes;
        match self.store.frozen.get() {
            None => Err(SnapshotError::NotFrozen),
            Some(PageSource::Memory(pages)) => {
                write_snapshot(path.as_ref(), page_bytes, pages.len() as u64, |i, buf| {
                    buf.copy_from_slice(&pages[i as usize])
                })
            }
            Some(PageSource::File(sf)) => {
                write_snapshot(path.as_ref(), page_bytes, sf.page_count(), |i, buf| {
                    sf.read_page_into(i, buf)
                })
            }
        }
    }

    /// `true` when both handles read the same underlying page store.
    pub fn same_store(&self, other: &DeviceHandle) -> bool {
        Arc::ptr_eq(&self.store, &other.store)
    }

    /// Process-unique identity of the underlying page store, equal across
    /// every handle, clone and fork on it. Ids are never reused within a
    /// process, so a recorded id names one store without keeping its pages
    /// alive: once that store is dropped, no live handle reports the id.
    pub fn store_id(&self) -> u64 {
        self.store.id
    }

    /// Allocate `count` fresh zeroed pages with consecutive ids; returns the
    /// first id. Allocation itself is free (it models formatting, not IO).
    /// Panics on a frozen store.
    pub fn alloc_pages(&self, count: usize) -> PageId {
        let mut pages = self.store.building.lock().unwrap();
        // Checked under the build lock (freeze() takes it too), so a racing
        // freeze can never hand out ids aliasing frozen pages.
        assert!(!self.store.is_frozen(), "allocation on a frozen device");
        let first = pages.len() as u64;
        let page_bytes = self.store.cfg.page_bytes;
        for _ in 0..count {
            pages.push(vec![0u8; page_bytes].into_boxed_slice());
        }
        PageId(first)
    }

    /// Number of pages allocated so far (a space measure in blocks).
    pub fn pages_allocated(&self) -> u64 {
        self.store.pages_allocated()
    }

    // The accessors below account against the scope only after the page is
    // validated and its bytes are at hand: a rejected access (unallocated
    // page, write-after-freeze, failed pread) panics without leaving a
    // phantom IO in the counters or a bogus entry in the LRU. The scope
    // mutex nests strictly inside the store lock and is never held across
    // user code or a pread.

    /// Read a page, paying one IO unless cached in this scope.
    pub fn read_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> R {
        if let Some(PageSource::File(sf)) = self.store.frozen.get() {
            return self.read_frame(sf, id, f);
        }
        self.store.with_page(id, "read", |page| {
            self.state
                .lock()
                .unwrap()
                .account_read(self.store.cfg.cache_pages, (self.store.id, id));
            f(page)
        })
    }

    /// [`Self::read_page`] on a file-backed store, through this scope's
    /// frames: a hit runs `f` on the page's resident frame with no syscall,
    /// and a miss is exactly one `pread` into a recycled frame, which stays
    /// resident as long as the page does. Preads issued therefore equal
    /// `IoStats::reads`.
    fn read_frame<R>(&self, sf: &SnapshotFile, id: PageId, f: impl FnOnce(&[u8]) -> R) -> R {
        assert!(id.0 < sf.page_count(), "read of unallocated page {id:?}");
        let cache_pages = self.store.cfg.cache_pages;
        let key = (self.store.id, id);
        let mut state = self.state.lock().unwrap();
        let mut frame = if let Some(frame) = state.frames.get(&key).cloned() {
            state.account_read(cache_pages, key);
            drop(state);
            frame
        } else {
            // The pread runs outside the scope lock, so a failed read
            // panics before any counter or LRU change and poisons nothing.
            let spare = state.spare.pop();
            drop(state);
            let mut frame = match spare {
                Some(frame) if frame.len() == sf.page_bytes() => frame,
                _ => Frame::from(vec![0; sf.page_bytes()]),
            };
            sf.read_page_into(id.0, Arc::get_mut(&mut frame).expect("spare frames are unshared"));
            let mut state = self.state.lock().unwrap();
            state.account_read(cache_pages, key);
            if cache_pages > 0 {
                let state = &mut *state;
                // Another reader of this scope may have loaded the page
                // meanwhile; keep one frame.
                if let Some(old) = state.frames.insert(key, Arc::clone(&frame)) {
                    recycle(&mut state.spare, cache_pages, old);
                }
            }
            frame
        };
        let r = f(&frame);
        if Arc::get_mut(&mut frame).is_some() {
            // Evicted while `f` held it (a nested read on this scope, or an
            // uncached scope): back to the free list.
            recycle(&mut self.state.lock().unwrap().spare, cache_pages, frame);
        }
        r
    }

    /// Overwrite a page (write-through), paying one write IO. Panics on a
    /// frozen store.
    pub fn write_page(&self, id: PageId, f: impl FnOnce(&mut [u8])) {
        self.store.with_page_mut(id, "write", |page| {
            self.state
                .lock()
                .unwrap()
                .account_write(self.store.cfg.cache_pages, (self.store.id, id));
            f(page)
        })
    }

    /// IO counters of this scope.
    pub fn stats(&self) -> IoStats {
        self.state.lock().unwrap().stats
    }

    pub fn reset_stats(&self) {
        self.state.lock().unwrap().stats = IoStats::default();
    }

    /// Run `f` and return its result with the IOs this scope paid for it:
    /// one stats snapshot before, one after. The one IO meter — structures
    /// count nothing themselves; whoever runs a query through a scope
    /// brackets it here.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (R, IoDelta) {
        let before = self.stats();
        let r = f();
        (r, self.stats().since(before))
    }

    /// Drop this scope's cached pages (so the next accesses pay IOs)
    /// without touching the counters. Used to measure cold-cache queries.
    pub fn clear_cache(&self) {
        let mut state = self.state.lock().unwrap();
        let HandleState { cache, by_tick, frames, spare, .. } = &mut *state;
        cache.clear();
        by_tick.clear();
        for (_, frame) in frames.drain() {
            recycle(spare, self.store.cfg.cache_pages, frame);
        }
    }

    /// Number of pages currently resident in this scope's cache.
    pub fn cached_pages(&self) -> usize {
        self.state.lock().unwrap().cache.len()
    }
}

/// A simulated disk with IO accounting: the lifecycle owner of a page store
/// plus its *primary* [`DeviceHandle`].
///
/// Cheap to clone (clones share the primary scope). The device starts in
/// the build phase — structures allocate and write through it — and
/// [`Device::freeze`] ends that phase, making the pages immutable and the
/// read path lock-free so handles can fan out across threads. All of the
/// access API lives on [`DeviceHandle`], which `Device` derefs to.
#[derive(Clone)]
pub struct Device {
    primary: DeviceHandle,
}

impl Device {
    pub fn new(cfg: DeviceConfig) -> Self {
        Device::over(cfg, OnceLock::new())
    }

    /// A device over a fresh store with page source `frozen` (empty while
    /// the store is still building).
    fn over(cfg: DeviceConfig, frozen: OnceLock<PageSource>) -> Device {
        Device {
            primary: DeviceHandle {
                store: Arc::new(Store {
                    id: next_store_id(),
                    cfg,
                    building: Mutex::new(Vec::new()),
                    frozen,
                }),
                state: Arc::new(Mutex::new(HandleState::new())),
            },
        }
    }

    /// A device with default page size and no cache.
    pub fn default_device() -> Self {
        Device::new(DeviceConfig::default())
    }

    /// End the build phase: page data becomes immutable and the read path
    /// lock-free. Further writes or allocations panic; reads, caches and
    /// stats are unaffected. Idempotent.
    pub fn freeze(&self) {
        let store = &self.primary.store;
        let mut building = store.building.lock().unwrap();
        if store.is_frozen() {
            return;
        }
        let pages = std::mem::take(&mut *building);
        store
            .frozen
            .set(PageSource::Memory(pages))
            .unwrap_or_else(|_| unreachable!("freeze is serialized by the build lock"));
    }

    /// End the build phase (if still open) and serialize the frozen pages
    /// to a snapshot file at `path` — the "build once" half of the
    /// build-once/serve-many lifecycle. See
    /// [`DeviceHandle::snapshot_to_path`] for the format and accounting
    /// semantics, and [`Device::open_snapshot`] for the other half.
    pub fn freeze_to_path(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        self.freeze();
        self.primary.snapshot_to_path(path)
    }

    /// Reopen a snapshot written by [`Device::freeze_to_path`] as a
    /// frozen, read-only, file-backed device. The page size comes from the
    /// snapshot header; `cache_pages` is a runtime choice, exactly as for
    /// [`Device::new`]. The whole file is checksum-validated up front, so
    /// any corruption (truncation, bit flips, wrong magic, future format
    /// versions) surfaces here as a typed [`SnapshotError`] — never later
    /// as a bad page read.
    ///
    /// Each scope reads the file through its frames: a miss is one `pread`
    /// into a frame that stays resident while the page does in the scope's
    /// LRU, and a hit is served from that frame with no syscall.
    ///
    /// The reopened device starts with a fresh primary scope: zeroed
    /// [`IoStats`], empty cache. Validation reads are *not* charged — the
    /// cost model starts counting at the first query, so a cold reopened
    /// index measures exactly its query cost (pinned by regression test).
    pub fn open_snapshot(
        path: impl AsRef<Path>,
        cache_pages: usize,
    ) -> Result<Device, SnapshotError> {
        let sf = SnapshotFile::open(path.as_ref())?;
        let cfg = DeviceConfig::new(sf.page_bytes(), cache_pages);
        Ok(Device::over(cfg, OnceLock::from(PageSource::File(sf))))
    }

    /// A fresh accounting scope (empty cache, zeroed stats) over this
    /// device's pages — shorthand for `device.fork()` on the primary.
    pub fn handle(&self) -> DeviceHandle {
        self.primary.fork()
    }
}

impl std::ops::Deref for Device {
    type Target = DeviceHandle;

    fn deref(&self) -> &DeviceHandle {
        &self.primary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_accounting_no_cache() {
        let dev = Device::new(DeviceConfig::new(128, 0));
        let p = dev.alloc_pages(2);
        dev.write_page(p, |b| b[0] = 7);
        let v = dev.read_page(p, |b| b[0]);
        assert_eq!(v, 7);
        let s = dev.stats();
        assert_eq!((s.reads, s.writes, s.cache_hits), (1, 1, 0));
    }

    #[test]
    fn consecutive_alloc_ids() {
        let dev = Device::default_device();
        let a = dev.alloc_pages(3);
        let b = dev.alloc_pages(1);
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(3));
        assert_eq!(dev.pages_allocated(), 4);
    }

    #[test]
    fn cache_absorbs_repeat_reads() {
        let dev = Device::new(DeviceConfig::new(128, 2));
        let p = dev.alloc_pages(3);
        let ids = [PageId(p.0), PageId(p.0 + 1), PageId(p.0 + 2)];
        dev.reset_stats();
        dev.read_page(ids[0], |_| ());
        dev.read_page(ids[0], |_| ());
        assert_eq!(dev.stats().reads, 1);
        assert_eq!(dev.stats().cache_hits, 1);
        // Fill beyond capacity: 0 is evicted as LRU after 1,2 are touched.
        dev.read_page(ids[1], |_| ());
        dev.read_page(ids[2], |_| ());
        dev.read_page(ids[0], |_| ());
        assert_eq!(dev.stats().reads, 4);
    }

    #[test]
    fn clear_cache_forces_io() {
        let dev = Device::new(DeviceConfig::new(128, 4));
        let p = dev.alloc_pages(1);
        dev.read_page(p, |_| ());
        dev.clear_cache();
        dev.read_page(p, |_| ());
        assert_eq!(dev.stats().reads, 2);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn read_unallocated_panics() {
        let dev = Device::default_device();
        dev.read_page(PageId(0), |_| ());
    }

    #[test]
    fn write_counts_as_use_in_lru() {
        // Pinned semantics: a write-through write promotes the page, so a
        // recently *written* page survives eviction over a less recently
        // *read* one.
        let dev = Device::new(DeviceConfig::new(128, 2));
        let p = dev.alloc_pages(3);
        let ids = [PageId(p.0), PageId(p.0 + 1), PageId(p.0 + 2)];
        dev.read_page(ids[0], |_| ()); // cache: {0}
        dev.read_page(ids[1], |_| ()); // cache: {0, 1}
        dev.write_page(ids[0], |b| b[0] = 1); // promotes 0; LRU is now 1
        dev.reset_stats();
        dev.read_page(ids[2], |_| ()); // evicts 1, not 0
        dev.read_page(ids[0], |_| ()); // must be a hit
        let s = dev.stats();
        assert_eq!((s.reads, s.cache_hits), (1, 1), "written page must stay resident");
        dev.reset_stats();
        dev.read_page(ids[1], |_| ()); // was evicted: pays an IO
        assert_eq!(dev.stats().reads, 1);
    }

    #[test]
    fn write_caches_an_uncached_page() {
        // A write also *inserts* into the cache: the next read of that page
        // is free, even though the write itself always pays a write IO.
        let dev = Device::new(DeviceConfig::new(128, 4));
        let p = dev.alloc_pages(1);
        dev.write_page(p, |b| b[0] = 9);
        dev.read_page(p, |_| ());
        let s = dev.stats();
        assert_eq!((s.reads, s.writes, s.cache_hits), (0, 1, 1));
    }

    #[test]
    fn clear_cache_then_since_scopes_cold_queries() {
        // The per-query attribution pattern of the batch engine: snapshot,
        // access, snapshot — with clear_cache() marking query boundaries.
        let dev = Device::new(DeviceConfig::new(128, 8));
        let p = dev.alloc_pages(2);
        let ids = [PageId(p.0), PageId(p.0 + 1)];
        dev.read_page(ids[0], |_| ());
        // Cold scope: cache dropped, both accesses pay IOs.
        dev.clear_cache();
        let before = dev.stats();
        dev.read_page(ids[0], |_| ());
        dev.read_page(ids[1], |_| ());
        let cold = dev.stats().since(before);
        assert_eq!((cold.reads, cold.cache_hits), (2, 0));
        // Warm scope right after: same accesses, all absorbed.
        let before = dev.stats();
        dev.read_page(ids[0], |_| ());
        dev.read_page(ids[1], |_| ());
        let warm = dev.stats().since(before);
        assert_eq!((warm.reads, warm.cache_hits), (0, 2));
        // Deltas bracket a reset without underflow (saturating since).
        let before = dev.stats();
        dev.reset_stats();
        dev.read_page(ids[0], |_| ());
        let d = dev.stats().since(before);
        assert_eq!(d.total(), 0);
    }

    #[test]
    fn cached_pages_never_exceeds_capacity() {
        let dev = Device::new(DeviceConfig::new(128, 3));
        let p = dev.alloc_pages(10);
        for i in 0..10 {
            dev.read_page(PageId(p.0 + i), |_| ());
            assert!(dev.cached_pages() <= 3);
        }
        assert_eq!(dev.cached_pages(), 3);
        dev.clear_cache();
        assert_eq!(dev.cached_pages(), 0);
    }

    #[test]
    fn clones_share_scope_forks_do_not() {
        let dev = Device::new(DeviceConfig::new(128, 4));
        let p = dev.alloc_pages(1);
        let shared: DeviceHandle = (*dev).clone();
        shared.read_page(p, |_| ());
        // The clone's IO is visible on the device (same scope) …
        assert_eq!(dev.stats().reads, 1);
        // … and absorbed by the shared cache.
        dev.read_page(p, |_| ());
        assert_eq!(dev.stats().cache_hits, 1);
        // A fork starts cold and counts from zero, without touching the
        // primary scope.
        let fork = dev.handle();
        assert_eq!(fork.stats(), crate::IoStats::default());
        fork.read_page(p, |_| ());
        assert_eq!(fork.stats().reads, 1);
        assert_eq!(dev.stats().reads, 1, "fork IOs must not leak into the primary scope");
        assert!(fork.same_store(&dev));
        assert_eq!(fork.store_id(), shared.store_id());
        assert_ne!(Device::default_device().store_id(), dev.store_id());
    }

    #[test]
    fn freeze_keeps_reads_and_stops_writes() {
        let dev = Device::new(DeviceConfig::new(128, 0));
        let p = dev.alloc_pages(1);
        dev.write_page(p, |b| b[0] = 42);
        assert!(!dev.is_frozen());
        dev.freeze();
        dev.freeze(); // idempotent
        assert!(dev.is_frozen());
        assert_eq!(dev.read_page(p, |b| b[0]), 42);
        let stats_before = dev.stats();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.write_page(p, |b| b[0] = 0);
        }));
        assert!(result.is_err(), "writes after freeze must panic");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.alloc_pages(1);
        }));
        assert!(result.is_err(), "allocation after freeze must panic");
        assert_eq!(dev.pages_allocated(), 1);
        // Rejected accesses must not leave phantom IOs in the counters.
        assert_eq!(dev.stats(), stats_before, "rejected writes must not be accounted");
    }

    #[test]
    fn rejected_access_leaves_stats_and_cache_untouched() {
        let dev = Device::new(DeviceConfig::new(128, 4));
        let p = dev.alloc_pages(1);
        dev.read_page(p, |_| ());
        let (stats, cached) = (dev.stats(), dev.cached_pages());
        for op in [
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dev.read_page(PageId(99), |_| ());
            })),
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dev.write_page(PageId(99), |_| ());
            })),
        ] {
            assert!(op.is_err(), "unallocated accesses must panic");
        }
        assert_eq!(dev.stats(), stats, "rejected accesses must not be accounted");
        assert_eq!(dev.cached_pages(), cached, "rejected accesses must not touch the LRU");
    }

    #[test]
    fn frozen_store_shared_across_threads() {
        let dev = Device::new(DeviceConfig::new(128, 8));
        let p = dev.alloc_pages(16);
        for i in 0..16 {
            dev.write_page(PageId(p.0 + i), |b| b[0] = i as u8);
        }
        dev.freeze();
        let totals: Vec<u64> = std::thread::scope(|s| {
            (0..4u8)
                .map(|_| {
                    let h = dev.handle();
                    s.spawn(move || {
                        for round in 0..3 {
                            for i in 0..16u64 {
                                let v = h.read_page(PageId(i), |b| b[0]);
                                assert_eq!(v, i as u8, "round {round}");
                            }
                        }
                        h.stats().reads
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|t| t.join().unwrap())
                .collect()
        });
        // Every worker has its own LRU of 8 pages cycling over 16: all 48
        // accesses miss, deterministically, regardless of interleaving.
        assert_eq!(totals, vec![48, 48, 48, 48]);
        assert_eq!(dev.stats().reads, 0, "worker IOs never land on the primary scope");
    }

    #[test]
    fn snapshot_roundtrip_preserves_pages_and_geometry() {
        let dir = crate::snapshot::TempDir::new("lcrs-device-snap");
        let dev = Device::new(DeviceConfig::new(128, 0));
        let p = dev.alloc_pages(6);
        for i in 0..6 {
            dev.write_page(PageId(p.0 + i), |b| {
                b[0] = i as u8;
                b[127] = 0xA0 + i as u8;
            });
        }
        // freeze_to_path freezes implicitly (build phase still open here).
        assert!(!dev.is_frozen());
        let path = dir.file("dev.pages");
        dev.freeze_to_path(&path).unwrap();
        assert!(dev.is_frozen());
        assert_eq!(dev.backend(), PageBackend::Memory);

        let re = Device::open_snapshot(&path, 0).unwrap();
        assert!(re.is_frozen());
        assert_eq!(re.backend(), PageBackend::File);
        assert_eq!(re.page_bytes(), 128);
        assert_eq!(re.pages_allocated(), 6);
        for i in 0..6u64 {
            let (a, z) = re.read_page(PageId(i), |b| (b[0], b[127]));
            assert_eq!((a, z), (i as u8, 0xA0 + i as u8));
        }
    }

    #[test]
    fn reopened_device_rejects_writes_and_allocs() {
        let dir = crate::snapshot::TempDir::new("lcrs-device-snap-ro");
        let dev = Device::new(DeviceConfig::new(64, 0));
        let p = dev.alloc_pages(1);
        dev.write_page(p, |b| b[0] = 1);
        dev.freeze_to_path(dir.file("ro.pages")).unwrap();
        let re = Device::open_snapshot(dir.file("ro.pages"), 0).unwrap();
        re.freeze(); // idempotent no-op on an already-frozen store
        for result in [
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                re.write_page(p, |b| b[0] = 2);
            })),
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                re.alloc_pages(1);
            })),
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                re.read_page(PageId(9), |_| ());
            })),
        ] {
            assert!(result.is_err(), "mutation / OOB reads on a snapshot must panic");
        }
        // The frozen read path takes no lock, so the caught panics above
        // (which poison the build mutex) never affect reads.
        assert_eq!(re.read_page(p, |b| b[0]), 1);
    }

    #[test]
    fn snapshot_of_unfrozen_handle_is_typed_error() {
        let dir = crate::snapshot::TempDir::new("lcrs-device-snap-unfrozen");
        let dev = Device::new(DeviceConfig::new(64, 0));
        dev.alloc_pages(1);
        let err = (*dev).snapshot_to_path(dir.file("x.pages")).unwrap_err();
        assert!(matches!(err, crate::snapshot::SnapshotError::NotFrozen));
    }

    #[test]
    fn reopened_device_starts_cold_and_accounts_reads() {
        // ISSUE 4 regression: opening a snapshot validates every page, but
        // none of that is model IO — the opening scope starts zeroed and
        // the first query pays real, attributed reads.
        let dir = crate::snapshot::TempDir::new("lcrs-device-snap-cold");
        let dev = Device::new(DeviceConfig::new(128, 4));
        let p = dev.alloc_pages(3);
        for i in 0..3 {
            dev.write_page(PageId(p.0 + i), |b| b[0] = i as u8);
        }
        dev.freeze_to_path(dir.file("cold.pages")).unwrap();
        let re = Device::open_snapshot(dir.file("cold.pages"), 4).unwrap();
        assert_eq!(re.stats(), IoStats::default(), "cold reopen must start with zeroed counters");
        assert_eq!(re.cached_pages(), 0);
        re.read_page(PageId(0), |_| ());
        re.read_page(PageId(0), |_| ());
        re.read_page(PageId(2), |_| ());
        let s = re.stats();
        assert_eq!((s.reads, s.writes, s.cache_hits), (2, 0, 1), "file-backed reads are charged");
        // Forked scopes are independent, exactly as on a memory store.
        let fork = re.handle();
        assert_eq!(fork.stats(), IoStats::default());
        fork.read_page(PageId(1), |_| ());
        assert_eq!(fork.stats().reads, 1);
        assert_eq!(re.stats().reads, 2, "fork IOs stay off the primary scope");
    }

    #[test]
    fn reopened_snapshot_can_be_resnapshotted() {
        // snapshot_to_path on a file-backed store copies the snapshot —
        // the catalog uses this to re-persist a reopened index.
        let dir = crate::snapshot::TempDir::new("lcrs-device-snap-copy");
        let dev = Device::new(DeviceConfig::new(64, 0));
        let p = dev.alloc_pages(2);
        dev.write_page(p, |b| b[0] = 7);
        dev.write_page(PageId(p.0 + 1), |b| b[0] = 8);
        dev.freeze_to_path(dir.file("a.pages")).unwrap();
        let re = Device::open_snapshot(dir.file("a.pages"), 0).unwrap();
        re.snapshot_to_path(dir.file("b.pages")).unwrap();
        let re2 = Device::open_snapshot(dir.file("b.pages"), 0).unwrap();
        assert_eq!(re2.read_page(p, |b| b[0]), 7);
        assert_eq!(re2.read_page(PageId(p.0 + 1), |b| b[0]), 8);
        assert_eq!(re2.pages_allocated(), 2);
    }

    #[test]
    fn empty_device_snapshot_roundtrip() {
        let dir = crate::snapshot::TempDir::new("lcrs-device-snap-zero");
        let dev = Device::new(DeviceConfig::new(256, 0));
        dev.freeze_to_path(dir.file("zero.pages")).unwrap();
        let re = Device::open_snapshot(dir.file("zero.pages"), 0).unwrap();
        assert_eq!(re.pages_allocated(), 0);
        assert_eq!(re.page_bytes(), 256);
        assert!(re.is_frozen());
    }

    #[test]
    fn scoped_to_shares_stats_across_stores() {
        // Two independent stores, one accounting scope: the anchor sees
        // every IO either part pays, which is what lets a multi-device
        // composite structure be measured through a single handle.
        let a = Device::new(DeviceConfig::new(128, 0));
        let b = Device::new(DeviceConfig::new(128, 0));
        let pa = a.alloc_pages(1);
        let pb = b.alloc_pages(2);
        let vb = (*b).scoped_to(&a);
        assert!(vb.same_store(&b) && !vb.same_store(&a));
        a.read_page(pa, |_| ());
        vb.read_page(pb, |_| ());
        vb.read_page(PageId(pb.0 + 1), |_| ());
        assert_eq!(a.stats().reads, 3, "view IOs must land on the anchor scope");
        assert_eq!(b.stats().reads, 0, "the viewed store's own scope stays untouched");
    }

    #[test]
    fn scoped_cache_never_aliases_equal_page_ids() {
        // Page 0 of store A and page 0 of store B are different pages; a
        // shared scope must cache them under distinct keys.
        let a = Device::new(DeviceConfig::new(128, 4));
        let b = Device::new(DeviceConfig::new(128, 4));
        let pa = a.alloc_pages(1);
        let pb = b.alloc_pages(1);
        a.write_page(pa, |buf| buf[0] = 1);
        b.write_page(pb, |buf| buf[0] = 2);
        a.freeze();
        b.freeze();
        let vb = (*b).scoped_to(&a);
        a.clear_cache();
        a.reset_stats();
        a.read_page(pa, |_| ());
        vb.read_page(pb, |_| ());
        let s = a.stats();
        assert_eq!((s.reads, s.cache_hits), (2, 0), "same PageId on two stores must both miss");
        a.read_page(pa, |_| ());
        vb.read_page(pb, |_| ());
        let s = a.stats();
        assert_eq!((s.reads, s.cache_hits), (2, 2), "…and both stay resident");
        assert_eq!(a.cached_pages(), 2);
    }

    #[test]
    fn scoped_view_shares_lru_budget_and_fork_detaches() {
        let a = Device::new(DeviceConfig::new(128, 1));
        let b = Device::new(DeviceConfig::new(128, 1));
        let pa = a.alloc_pages(1);
        let pb = b.alloc_pages(1);
        let vb = (*b).scoped_to(&a);
        // One shared slot: alternating stores evicts every time.
        a.read_page(pa, |_| ());
        vb.read_page(pb, |_| ());
        a.read_page(pa, |_| ());
        assert_eq!(a.stats().reads, 3, "a shared 1-page budget thrashes across stores");
        // A fork of the view opens a fresh scope over store B only.
        let f = vb.fork();
        assert!(f.same_store(&b));
        f.read_page(pb, |_| ());
        assert_eq!(f.stats().reads, 1);
        assert_eq!(a.stats().reads, 3, "fork IOs must not leak into the shared scope");
    }

    #[test]
    fn file_backed_reads_are_lock_free_across_threads() {
        let dir = crate::snapshot::TempDir::new("lcrs-device-snap-mt");
        let dev = Device::new(DeviceConfig::new(128, 0));
        let p = dev.alloc_pages(8);
        for i in 0..8 {
            dev.write_page(PageId(p.0 + i), |b| b[0] = i as u8);
        }
        dev.freeze_to_path(dir.file("mt.pages")).unwrap();
        let re = Device::open_snapshot(dir.file("mt.pages"), 0).unwrap();
        let totals: Vec<u64> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let h = re.handle();
                    s.spawn(move || {
                        for i in 0..8u64 {
                            assert_eq!(h.read_page(PageId(i), |b| b[0]), i as u8);
                        }
                        h.stats().reads
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|t| t.join().unwrap())
                .collect()
        });
        assert_eq!(totals, vec![8, 8, 8, 8]);
    }

    /// Six 128-byte pages, each filled with its own index and tagged at
    /// the end, frozen to `name` in `dir`.
    fn six_page_snapshot(dir: &crate::snapshot::TempDir, name: &str) -> std::path::PathBuf {
        let dev = Device::new(DeviceConfig::new(128, 0));
        let p = dev.alloc_pages(6);
        for i in 0..6 {
            dev.write_page(PageId(p.0 + i), |b| {
                b.fill(i as u8);
                b[127] = 0xC0 + i as u8;
            });
        }
        let path = dir.file(name);
        dev.freeze_to_path(&path).unwrap();
        path
    }

    fn page_bytes_of(i: u64) -> Vec<u8> {
        let mut b = vec![i as u8; 128];
        b[127] = 0xC0 + i as u8;
        b
    }

    #[test]
    fn nested_read_that_evicts_the_outer_frame_leaves_its_bytes_intact() {
        // With one cached page, the inner read of page 3 evicts page 0
        // while the outer closure still reads page 0's frame. That frame
        // must stay valid until the outer closure returns, and both frames
        // are then recycled: the scope settles at two, allocating nothing.
        let dir = crate::snapshot::TempDir::new("lcrs-device-nested");
        let re = Device::open_snapshot(six_page_snapshot(&dir, "n.pages"), 1).unwrap();
        for round in 0..10 {
            let before = re.stats();
            let (outer, inner) = re.read_page(PageId(0), |outer| {
                let inner = re.read_page(PageId(3), |b| b.to_vec());
                (outer.to_vec(), inner)
            });
            assert_eq!((outer, inner), (page_bytes_of(0), page_bytes_of(3)), "round {round}");
            let d = re.stats().since(before);
            assert_eq!((d.reads, d.cache_hits), (2, 0), "round {round}");
            let state = re.state.lock().unwrap();
            assert_eq!(
                (state.frames.len(), state.spare.len()),
                (1, 1),
                "round {round}: one resident frame and one spare, not one per access"
            );
        }
    }

    #[test]
    fn hits_are_served_from_frames_and_a_failed_miss_changes_nothing() {
        // Warm three pages, then truncate the snapshot under the open
        // device: hits never touch the file, while a miss fails its pread
        // and panics before any counter or LRU change. The scope lock is
        // not held across the pread, so the scope keeps serving hits.
        let dir = crate::snapshot::TempDir::new("lcrs-device-truncate");
        let path = six_page_snapshot(&dir, "t.pages");
        let re = Device::open_snapshot(&path, 3).unwrap();
        for i in 0..3 {
            assert_eq!(re.read_page(PageId(i), |b| b.to_vec()), page_bytes_of(i));
        }
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(0).unwrap();
        for i in 0..3 {
            assert_eq!(re.read_page(PageId(i), |b| b.to_vec()), page_bytes_of(i), "hit {i}");
        }
        let (stats, cached) = (re.stats(), re.cached_pages());
        assert_eq!((stats.reads, stats.cache_hits), (3, 3));
        let miss = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            re.read_page(PageId(4), |_| ());
        }));
        assert!(miss.is_err(), "a miss on a truncated snapshot must panic");
        assert_eq!(re.stats(), stats, "a failed pread must not be charged");
        assert_eq!(re.cached_pages(), cached, "a failed pread must not touch the LRU");
        for i in 0..3 {
            assert_eq!(re.read_page(PageId(i), |b| b.to_vec()), page_bytes_of(i), "hit {i}");
        }
        assert_eq!(re.stats().cache_hits, 6, "the scope still serves hits after the failure");
    }
}
