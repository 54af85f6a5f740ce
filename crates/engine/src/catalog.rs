//! The snapshot catalog: persist and reload a whole batch-executor's worth
//! of indexes from one directory (DESIGN.md §9).
//!
//! Directory layout — one manifest, a metadata file per entry, and one
//! pages file per distinct page store:
//!
//! ```text
//! catalog-dir/
//!   __catalog.meta    manifest: magic, version, then (label, kind, pages file) per entry
//!   <label>.pages     page snapshot of one store (Device::freeze_to_path format)
//!   <label>.meta      structure metadata (RangeIndex::save_meta envelope)
//! ```
//!
//! Indexes built on one device share its pages file: the first entry added
//! from a store writes the snapshot under its own label, and every later
//! entry from the same store records that file in the manifest instead of
//! writing another copy. A file stays until the last entry reading it is
//! removed.
//!
//! Every engine-internal file in a catalog directory (this manifest, the
//! sharded manifest, planner calibration, live-level manifests) is named
//! with the [`RESERVED_PREFIX`]; entry labels may not use it, so internal
//! files and entry files can never collide no matter what internal files
//! future engine versions add.
//!
//! [`SnapshotCatalog::add`] serializes one frozen index;
//! [`SnapshotCatalog::load`] reopens an entry as a fresh file-backed
//! device plus the index over it, and [`SnapshotCatalog::load_all`] opens
//! each pages file once for all the entries reading it — ready for the
//! [`crate::BatchExecutor`] on one thread or many, the
//! build-once/serve-many workflow in one call. Every file is checksummed
//! and every failure is a typed [`SnapshotError`]; the manifest is
//! rewritten atomically after each `add`, so a crash mid-build leaves a
//! catalog that simply lacks the unfinished entry.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

use lcrs_extmem::{Device, MetaReader, MetaWriter, SnapshotError};

use crate::query::{load_index, RangeIndex};

/// Prefix reserved for engine-internal files living inside catalog
/// directories. Catalog entry labels may not start with it
/// ([`SnapshotError::ReservedLabel`]), which replaces the per-name
/// blocklist that used to grow with every new internal file.
pub const RESERVED_PREFIX: &str = "__";

const MANIFEST: &str = "__catalog.meta";
const MANIFEST_MAGIC: &str = "lcrs-catalog";
/// Version 1 was a bare sequence of (label, kind) pairs with one pages
/// file per entry; it has no header, so [`SnapshotCatalog::open`] rejects
/// it at the magic.
const MANIFEST_VERSION: u64 = 2;

/// One persisted index in a [`SnapshotCatalog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Caller-chosen name; doubles as the stem of the entry's `.meta` file.
    pub label: String,
    /// The index's [`RangeIndex::name`], used to dispatch the load.
    pub kind: String,
    /// The page snapshot this entry reads, a file name inside the catalog
    /// directory. Entries added from one store share one file.
    pub pages: String,
}

fn check_label(label: &str) -> Result<(), SnapshotError> {
    let well_formed = !label.is_empty()
        && label.len() <= 64
        && label.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
    if !well_formed {
        return Err(SnapshotError::InvalidLabel { label: label.to_string() });
    }
    // A label starting with the reserved prefix would collide with an
    // engine-internal file sharing the directory (the `__catalog.meta`
    // manifest, `__shards.meta`, `__planner.calib`, `__live.meta`, or any
    // internal file added later) and silently overwrite it.
    if label.starts_with(RESERVED_PREFIX) {
        return Err(SnapshotError::ReservedLabel {
            label: label.to_string(),
            prefix: RESERVED_PREFIX,
        });
    }
    Ok(())
}

/// The `n`-th pages file name `add` may give a store first written under
/// `label`: `<label>.pages`, then `<label>.<n>.pages`. Labels hold no `.`,
/// so no candidate can equal another label's pages or metadata file.
fn pages_name(label: &str, n: u64) -> String {
    if n == 0 {
        format!("{label}.pages")
    } else {
        format!("{label}.{n}.pages")
    }
}

/// Whether `name` is one [`pages_name`] generates for a valid label: the
/// only files a manifest may point an entry at (never a path out of the
/// directory, an internal file, or an entry's metadata).
fn is_pages_name(name: &str) -> bool {
    let stem = name.strip_suffix(".pages").unwrap_or_default();
    let (label, n) = stem.split_once('.').unwrap_or((stem, "0"));
    check_label(label).is_ok() && n.parse().is_ok_and(|n| pages_name(label, n) == name)
}

/// A directory of persisted indexes — see the module docs for the layout.
pub struct SnapshotCatalog {
    dir: PathBuf,
    entries: Vec<CatalogEntry>,
    /// The pages file this catalog wrote for each store, keyed by
    /// [`lcrs_extmem::DeviceHandle::store_id`]. Ids, not handles: holding
    /// a handle would keep a dropped store's pages (say, a merged-away
    /// live level) in memory for as long as the catalog lives. Empty after
    /// [`Self::open`], so an index reloaded from disk and added again gets
    /// a file of its own.
    written: HashMap<u64, String>,
}

impl SnapshotCatalog {
    /// Start an empty catalog at `dir` (created if absent; an existing
    /// manifest there is overwritten).
    pub fn create(dir: impl AsRef<Path>) -> Result<SnapshotCatalog, SnapshotError> {
        std::fs::create_dir_all(dir.as_ref())?;
        let cat = SnapshotCatalog {
            dir: dir.as_ref().to_path_buf(),
            entries: Vec::new(),
            written: HashMap::new(),
        };
        cat.write_manifest()?;
        Ok(cat)
    }

    /// Open an existing catalog's manifest. A manifest of an older layout,
    /// an entry with an invalid or duplicate label, or a pages reference
    /// that is not a catalog-generated file name is a typed error.
    pub fn open(dir: impl AsRef<Path>) -> Result<SnapshotCatalog, SnapshotError> {
        let dir = dir.as_ref().to_path_buf();
        let mut r = MetaReader::open(&dir.join(MANIFEST))?;
        let magic = r.str().map_err(|_| {
            r.error("not a catalog manifest: no magic header (layouts before version 2 have none)")
        })?;
        if magic != MANIFEST_MAGIC {
            return Err(r.error(format!("not a catalog manifest (magic {magic:?})")));
        }
        let version = r.u64()?;
        if version != MANIFEST_VERSION {
            return Err(r.error(format!("unsupported catalog manifest version {version}")));
        }
        let n = r.seq()?;
        let mut entries: Vec<CatalogEntry> = Vec::with_capacity(n);
        for _ in 0..n {
            let entry = CatalogEntry { label: r.str()?, kind: r.str()?, pages: r.str()? };
            check_label(&entry.label)?;
            if entries.iter().any(|e| e.label == entry.label) {
                return Err(SnapshotError::DuplicateEntry { label: entry.label });
            }
            if !is_pages_name(&entry.pages) {
                return Err(r.error(format!(
                    "entry {:?} reads {:?}, which is not a pages file name",
                    entry.label, entry.pages
                )));
            }
            entries.push(entry);
        }
        r.finish()?;
        Ok(SnapshotCatalog { dir, entries, written: HashMap::new() })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The persisted entries, in `add` order.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// Path of the page snapshot `entry` reads. Public so composite
    /// structures (the live index's leveled sub-entries) can reopen an
    /// entry's device directly and re-scope it.
    pub fn pages_path(&self, entry: &CatalogEntry) -> PathBuf {
        self.dir.join(&entry.pages)
    }

    /// Path of an entry's metadata envelope (`<label>.meta`).
    pub fn meta_path(&self, label: &str) -> PathBuf {
        self.dir.join(format!("{label}.meta"))
    }

    /// Persist one index under `label`: its metadata to `<label>.meta`,
    /// its store's frozen pages unless this catalog already holds them,
    /// and the manifest. The index's device must already be frozen
    /// ([`SnapshotError::NotFrozen`] otherwise — freezing is the owner's
    /// lifecycle decision, not the catalog's).
    ///
    /// Each store is written once: the first entry from a store snapshots
    /// it to `<label>.pages` (or `<label>.<n>.pages` while a remaining
    /// entry still reads that name), and a later entry whose index lives on
    /// the same store records that file instead. Entries still load
    /// independently — each names the file it reads — and `add` never
    /// overwrites a file a remaining entry reads.
    pub fn add(&mut self, label: &str, index: &dyn RangeIndex) -> Result<(), SnapshotError> {
        check_label(label)?;
        if self.entries.iter().any(|e| e.label == label) {
            return Err(SnapshotError::DuplicateEntry { label: label.to_string() });
        }
        let store = index.device().store_id();
        let pages = match self.written.get(&store) {
            Some(pages) => pages.clone(),
            None => {
                let mut n = 0;
                while self.entries.iter().any(|e| e.pages == pages_name(label, n)) {
                    n += 1;
                }
                let pages = pages_name(label, n);
                index.device().snapshot_to_path(self.dir.join(&pages))?;
                pages
            }
        };
        let mut w = MetaWriter::new();
        w.str(index.name());
        index.save_meta(&mut w);
        w.write_to_path(&self.meta_path(label))?;
        self.written.insert(store, pages.clone());
        self.entries.push(CatalogEntry {
            label: label.to_string(),
            kind: index.name().to_string(),
            pages,
        });
        self.write_manifest()
    }

    /// Reopen one entry: a fresh file-backed device over the pages file it
    /// reads (validated, cold — zeroed stats, empty cache of `cache_pages`
    /// pages) and the index reloaded on a fresh scope of it.
    pub fn load(
        &self,
        label: &str,
        cache_pages: usize,
    ) -> Result<Box<dyn RangeIndex>, SnapshotError> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.label == label)
            .ok_or_else(|| SnapshotError::NoSuchEntry { label: label.to_string() })?;
        let device = Device::open_snapshot(self.pages_path(entry), cache_pages)?;
        self.load_entry(entry, &device)
    }

    /// Reopen every entry, in `add` order. Each pages file is opened and
    /// validated once; the entries reading it each load on their own fresh
    /// scope of that one store, so per-entry cache budget, cold start and
    /// IO attribution are those of [`Self::load`].
    pub fn load_all(&self, cache_pages: usize) -> Result<Vec<Box<dyn RangeIndex>>, SnapshotError> {
        let mut stores: HashMap<&str, Device> = HashMap::new();
        self.entries
            .iter()
            .map(|e| {
                let device = match stores.entry(&e.pages) {
                    Entry::Occupied(o) => o.into_mut(),
                    Entry::Vacant(v) => {
                        v.insert(Device::open_snapshot(self.pages_path(e), cache_pages)?)
                    }
                };
                self.load_entry(e, device)
            })
            .collect()
    }

    /// Load `entry`'s metadata onto a fresh scope of `device`, the opened
    /// store of the entry's pages file.
    fn load_entry(
        &self,
        entry: &CatalogEntry,
        device: &Device,
    ) -> Result<Box<dyn RangeIndex>, SnapshotError> {
        let mut r = MetaReader::open(&self.meta_path(&entry.label))?;
        let kind = r.str()?;
        if kind != entry.kind {
            return Err(r.error(format!(
                "kind mismatch for {:?}: manifest says {:?}, metadata says {kind:?}",
                entry.label, entry.kind
            )));
        }
        let index = load_index(&kind, &device.handle(), &mut r)?;
        r.finish()?;
        Ok(index)
    }

    /// Drop one entry: it leaves the manifest first (the commit point —
    /// rewritten atomically), then its metadata file is deleted, and its
    /// pages file too once no remaining entry reads it, both best-effort.
    /// A crash between the two leaves orphaned files no manifest
    /// references, which a later `add` is free to overwrite — never a
    /// manifest pointing at missing files.
    pub fn remove(&mut self, label: &str) -> Result<(), SnapshotError> {
        let i = self
            .entries
            .iter()
            .position(|e| e.label == label)
            .ok_or_else(|| SnapshotError::NoSuchEntry { label: label.to_string() })?;
        let entry = self.entries.remove(i);
        self.write_manifest()?;
        if !self.entries.iter().any(|e| e.pages == entry.pages) {
            self.written.retain(|_, pages| *pages != entry.pages);
            let _ = std::fs::remove_file(self.pages_path(&entry));
        }
        let _ = std::fs::remove_file(self.meta_path(label));
        Ok(())
    }

    fn write_manifest(&self) -> Result<(), SnapshotError> {
        let mut w = MetaWriter::new();
        w.str(MANIFEST_MAGIC);
        w.u64(MANIFEST_VERSION);
        w.seq(self.entries.len());
        for e in &self.entries {
            w.str(&e.label);
            w.str(&e.kind);
            w.str(&e.pages);
        }
        w.write_to_path(&self.dir.join(MANIFEST))
    }
}
