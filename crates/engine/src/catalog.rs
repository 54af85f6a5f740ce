//! The snapshot catalog: persist and reload a whole batch-executor's worth
//! of indexes from one directory (DESIGN.md §9).
//!
//! Directory layout — one manifest plus a pages/metadata pair per entry:
//!
//! ```text
//! catalog-dir/
//!   __catalog.meta    manifest: sequence of (label, kind) pairs
//!   <label>.pages     page snapshot (Device::freeze_to_path format)
//!   <label>.meta      structure metadata (RangeIndex::save_meta envelope)
//! ```
//!
//! Every engine-internal file in a catalog directory (this manifest, the
//! sharded manifest, planner calibration, live-level manifests) is named
//! with the [`RESERVED_PREFIX`]; entry labels may not use it, so internal
//! files and entry files can never collide no matter what internal files
//! future engine versions add.
//!
//! [`SnapshotCatalog::add`] serializes one frozen index;
//! [`SnapshotCatalog::load`] reopens an entry as a fresh file-backed
//! device plus the index over it, ready for the [`crate::BatchExecutor`]
//! on one thread or many — the build-once/serve-many workflow in one
//! call. Every file is checksummed and every failure is a typed
//! [`SnapshotError`]; the manifest is rewritten atomically after each
//! `add`, so a crash mid-build leaves a catalog that simply lacks the
//! unfinished entry.

use std::path::{Path, PathBuf};

use lcrs_extmem::{Device, MetaReader, MetaWriter, ReopenBackend, SnapshotError};

use crate::query::{load_index, RangeIndex};

/// Prefix reserved for engine-internal files living inside catalog
/// directories. Catalog entry labels may not start with it
/// ([`SnapshotError::ReservedLabel`]), which replaces the per-name
/// blocklist that used to grow with every new internal file.
pub const RESERVED_PREFIX: &str = "__";

const MANIFEST: &str = "__catalog.meta";

/// One persisted index in a [`SnapshotCatalog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Caller-chosen name; doubles as the entry's file stem.
    pub label: String,
    /// The index's [`RangeIndex::name`], used to dispatch the load.
    pub kind: String,
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

/// A directory of persisted indexes — see the module docs for the layout.
pub struct SnapshotCatalog {
    dir: PathBuf,
    entries: Vec<CatalogEntry>,
}

impl SnapshotCatalog {
    /// Start an empty catalog at `dir` (created if absent; an existing
    /// manifest there is overwritten).
    pub fn create(dir: impl AsRef<Path>) -> Result<SnapshotCatalog, SnapshotError> {
        std::fs::create_dir_all(dir.as_ref())?;
        let cat = SnapshotCatalog { dir: dir.as_ref().to_path_buf(), entries: Vec::new() };
        cat.write_manifest()?;
        Ok(cat)
    }

    /// Open an existing catalog's manifest.
    pub fn open(dir: impl AsRef<Path>) -> Result<SnapshotCatalog, SnapshotError> {
        let dir = dir.as_ref().to_path_buf();
        let mut r = MetaReader::open(&dir.join(MANIFEST))?;
        let n = r.seq()?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(CatalogEntry { label: r.str()?, kind: r.str()? });
        }
        r.finish()?;
        Ok(SnapshotCatalog { dir, entries })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The persisted entries, in `add` order.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// Path of an entry's page snapshot (`<label>.pages`). Public so
    /// composite structures (the live index's leveled sub-entries) can
    /// reopen an entry's device directly and re-scope it.
    pub fn pages_path(&self, label: &str) -> PathBuf {
        self.dir.join(format!("{label}.pages"))
    }

    /// Path of an entry's metadata envelope (`<label>.meta`).
    pub fn meta_path(&self, label: &str) -> PathBuf {
        self.dir.join(format!("{label}.meta"))
    }

    /// Persist one index under `label`: its device's frozen pages to
    /// `<label>.pages`, its metadata to `<label>.meta`, and the manifest.
    /// The index's device must already be frozen
    /// ([`SnapshotError::NotFrozen`] otherwise — freezing is the owner's
    /// lifecycle decision, not the catalog's).
    ///
    /// Indexes sharing one device serialize one copy of that device's
    /// pages *each*: entries are self-contained, so any subset of the
    /// catalog can be loaded (or deleted) independently.
    pub fn add(&mut self, label: &str, index: &dyn RangeIndex) -> Result<(), SnapshotError> {
        check_label(label)?;
        if self.entries.iter().any(|e| e.label == label) {
            return Err(SnapshotError::DuplicateEntry { label: label.to_string() });
        }
        index.device().snapshot_to_path(self.pages_path(label))?;
        let mut w = MetaWriter::new();
        w.str(index.name());
        index.save_meta(&mut w);
        w.write_to_path(&self.meta_path(label))?;
        self.entries
            .push(CatalogEntry { label: label.to_string(), kind: index.name().to_string() });
        self.write_manifest()
    }

    /// Reopen one entry: a fresh file-backed device over `<label>.pages`
    /// (validated, cold — zeroed stats, empty cache of `cache_pages`
    /// pages) and the index reloaded on its primary handle scope.
    pub fn load(
        &self,
        label: &str,
        cache_pages: usize,
    ) -> Result<Box<dyn RangeIndex>, SnapshotError> {
        self.load_as(label, cache_pages, ReopenBackend::Pread)
    }

    /// [`Self::load`] with an explicit storage backend
    /// ([`ReopenBackend::Mmap`] for the zero-copy mapping, DESIGN.md §13).
    /// Answers and model read-IO counts are bit-identical across backends.
    pub fn load_as(
        &self,
        label: &str,
        cache_pages: usize,
        backend: ReopenBackend,
    ) -> Result<Box<dyn RangeIndex>, SnapshotError> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.label == label)
            .ok_or_else(|| SnapshotError::NoSuchEntry { label: label.to_string() })?;
        let device = Device::open_snapshot_as(self.pages_path(label), cache_pages, backend)?;
        let mut r = MetaReader::open(&self.meta_path(label))?;
        let kind = r.str()?;
        if kind != entry.kind {
            return Err(r.error(format!(
                "kind mismatch for {label:?}: manifest says {:?}, metadata says {kind:?}",
                entry.kind
            )));
        }
        let index = load_index(&kind, &device, &mut r)?;
        r.finish()?;
        Ok(index)
    }

    /// Reopen every entry, in `add` order.
    pub fn load_all(&self, cache_pages: usize) -> Result<Vec<Box<dyn RangeIndex>>, SnapshotError> {
        self.load_all_as(cache_pages, ReopenBackend::Pread)
    }

    /// [`Self::load_all`] with an explicit storage backend.
    pub fn load_all_as(
        &self,
        cache_pages: usize,
        backend: ReopenBackend,
    ) -> Result<Vec<Box<dyn RangeIndex>>, SnapshotError> {
        self.entries.iter().map(|e| self.load_as(&e.label, cache_pages, backend)).collect()
    }

    /// Drop one entry: it leaves the manifest first (the commit point —
    /// rewritten atomically), then its files are deleted best-effort. A
    /// crash between the two leaves orphaned files no manifest references,
    /// which a later `remove`/`add` cycle is free to overwrite — never a
    /// manifest pointing at missing files.
    pub fn remove(&mut self, label: &str) -> Result<(), SnapshotError> {
        let i = self
            .entries
            .iter()
            .position(|e| e.label == label)
            .ok_or_else(|| SnapshotError::NoSuchEntry { label: label.to_string() })?;
        self.entries.remove(i);
        self.write_manifest()?;
        let _ = std::fs::remove_file(self.pages_path(label));
        let _ = std::fs::remove_file(self.meta_path(label));
        Ok(())
    }

    fn write_manifest(&self) -> Result<(), SnapshotError> {
        let mut w = MetaWriter::new();
        w.seq(self.entries.len());
        for e in &self.entries {
            w.str(&e.label);
            w.str(&e.kind);
        }
        w.write_to_path(&self.dir.join(MANIFEST))
    }
}
