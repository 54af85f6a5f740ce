//! Live-update serving: an LSM-style mutable tier over frozen snapshot
//! levels (DESIGN.md §12).
//!
//! [`LiveIndex`] is the engine face of the halfspace crate's
//! [`DynamicHalfspace2`] core in its `PerLevel` configuration: one
//! in-memory delta tier absorbs inserts and tombstoned deletes, and behind
//! it every static level is an ordinary [`HalfspaceRS2`] on its *own*
//! frozen [`Device`] — which is exactly what the PR-4 snapshot machinery
//! knows how to persist. The index can therefore checkpoint itself into a
//! [`SnapshotCatalog`] directory level by level and reopen mid-stream,
//! while queries route through [`crate::IndexSet`] planning like any other
//! [`RangeIndex`].
//!
//! ## On-disk layout
//!
//! A live index owns a catalog directory and two namespaces inside it:
//!
//! ```text
//! dir/
//!   __catalog.meta    ordinary catalog manifest
//!   __live.meta       live manifest: delta tier + the committed level set
//!   lv<seq>.pages     one frozen level's pages   (catalog entry "lv<seq>")
//!   lv<seq>.meta      that level's structure + build input
//! ```
//!
//! Each level is a regular catalog entry of kind `"live-level"`
//! ([`LiveLevel`]), so the generic catalog tooling can inspect or load it.
//! The `__live.meta` manifest — written through the same atomic
//! `.tmp`-rename path as every other metadata file — names which level
//! sequences are *committed*. That ordering is the whole crash story:
//!
//! 1. new levels are snapshotted into the catalog first,
//! 2. the live manifest is atomically replaced (THE commit point),
//! 3. levels the manifest no longer references are garbage-collected.
//!
//! A crash anywhere in that protocol leaves either the old manifest (the
//! new level is an unreferenced orphan, collected by a later checkpoint)
//! or the new one (stale levels linger until collected) — never a manifest
//! pointing at missing data. The live index owns every `lv<seq>` label in
//! its directory and will collect unreferenced ones; other entries are
//! left alone, so a live index can share a directory with a plain catalog.
//!
//! ## Merges
//!
//! Merges run synchronously (a full delta auto-flushes on insert) or in
//! the background ([`LiveIndex::begin_merge`] /
//! [`LiveIndex::commit_merge`]): the build runs on a worker thread against
//! the drained-but-still-visible state while queries — and reader forks
//! taken mid-merge — keep serving the old level set. While a merge is in
//! flight the on-disk manifest simply stays at the pre-merge state, which
//! is always a correct (if slightly stale) snapshot.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use lcrs_extmem::{Device, DeviceConfig, DeviceHandle, MetaReader, MetaWriter, SnapshotError};
use lcrs_halfspace::cost::CostHint;
use lcrs_halfspace::dynamic::{
    load_level, load_points, load_tombstones, save_level, save_points, save_tombstones,
};
use lcrs_halfspace::hs2d::Hs2dConfig;
use lcrs_halfspace::{
    DeltaTier, DynamicHalfspace2, HalfspaceRS2, Level, LevelBacking, MergeHandle,
};

use crate::catalog::SnapshotCatalog;
use crate::query::{Query, RangeIndex, Unsupported};

/// File name of a live index's manifest inside its catalog directory
/// (engine-internal: uses the [`crate::catalog::RESERVED_PREFIX`]).
pub const LIVE_MANIFEST: &str = "__live.meta";

const MAGIC: &str = "lcrs-live";
const VERSION: u64 = 1;

fn level_label(seq: u64) -> String {
    format!("lv{seq}")
}

fn parse_level_label(label: &str) -> Option<u64> {
    let digits = label.strip_prefix("lv")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// One frozen level of a [`LiveIndex`], as a self-contained catalog entry:
/// a static [`HalfspaceRS2`] plus its build input (point coordinates and
/// caller tags — the part merges and rebuilds need back).
///
/// Answers report *tags*, unfiltered: tombstones live in the owning
/// index's delta tier, so a level loaded on its own reports whatever was
/// alive when the level was built.
pub struct LiveLevel {
    structure: HalfspaceRS2,
    points: Arc<Vec<(i64, i64, u64)>>,
}

impl LiveLevel {
    /// Wrap a built structure and its input (lengths must match).
    pub fn new(structure: HalfspaceRS2, points: Vec<(i64, i64, u64)>) -> LiveLevel {
        assert_eq!(points.len(), structure.len(), "level input must match its structure");
        LiveLevel { structure, points: Arc::new(points) }
    }

    fn view(level: &Level) -> LiveLevel {
        let dev = level.device().expect("live levels are per-level backed");
        LiveLevel { structure: level.structure().with_handle(dev), points: level.points_arc() }
    }

    /// Number of points in the level.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The build input: `(x, y, tag)` triples.
    pub fn points(&self) -> &[(i64, i64, u64)] {
        &self.points
    }

    /// Inverse of [`RangeIndex::save_meta`], reading pages through `h`.
    pub fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<LiveLevel, SnapshotError> {
        let (structure, points) = load_level(h, r)?;
        Ok(LiveLevel { structure, points })
    }
}

impl RangeIndex for LiveLevel {
    fn name(&self) -> &'static str {
        "live-level"
    }

    fn device(&self) -> &DeviceHandle {
        self.structure.device()
    }

    fn supports(&self, q: &Query) -> bool {
        matches!(
            q,
            Query::Halfplane { .. }
                | Query::Count { .. }
                | Query::Sum { .. }
                | Query::TopK { .. }
                | Query::Disk { .. }
        )
    }

    fn cost_hint(&self) -> CostHint {
        self.structure.cost_hint()
    }

    fn try_execute(&self, q: &Query) -> Result<Vec<u64>, Unsupported> {
        match *q {
            Query::Halfplane { m, c, inclusive } => Ok(self
                .structure
                .query_below(m, c, inclusive)
                .into_iter()
                .map(|id| self.points[id as usize].2)
                .collect()),
            // Aggregates depend only on coordinates, not on the local→tag
            // id mapping, so they delegate to the annotated structure.
            Query::Count { m, c, inclusive } => {
                Ok(vec![self.structure.aggregate_below(m, c, inclusive).0])
            }
            Query::Sum { m, c, inclusive } => {
                Ok(crate::query::encode_sum(self.structure.aggregate_below(m, c, inclusive).1))
            }
            // Ranked reporting ties by *external* tag, which the
            // structure's local ids cannot see — rank host-side instead.
            Query::TopK { m, c, k } => {
                let mut cand: Vec<(i128, u64)> = self
                    .points
                    .iter()
                    .map(|&(x, y, tag)| (y as i128 - m as i128 * x as i128, tag))
                    .filter(|&(key, _)| key <= c as i128)
                    .collect();
                cand.sort_unstable();
                cand.truncate(k);
                Ok(cand.into_iter().map(|(_, tag)| tag).collect())
            }
            Query::Disk { x, y, r2, inclusive } => Ok(self
                .points
                .iter()
                .filter(|&&(px, py, _)| lcrs_geom::lift::in_disk(x, y, r2, px, py, inclusive))
                .map(|&(_, _, tag)| tag)
                .collect()),
            _ => Err(Unsupported { index: RangeIndex::name(self), query: *q }),
        }
    }

    fn fork_reader(&self) -> Box<dyn RangeIndex> {
        Box::new(LiveLevel {
            structure: self.structure.fork_reader(),
            points: Arc::clone(&self.points),
        })
    }

    fn save_meta(&self, w: &mut MetaWriter) {
        save_level(w, &self.structure, &self.points);
    }
}

/// A mutable 2D halfplane index served LSM-style — see the module docs.
///
/// All level IOs are accounted through one anchor scope
/// ([`RangeIndex::device`]), whatever device the pages actually live on,
/// so batch executors, the planner's calibration, and the bench gates
/// measure it exactly like a single-device structure.
pub struct LiveIndex {
    core: DynamicHalfspace2,
    geometry: DeviceConfig,
    dir: Option<PathBuf>,
    cat: Option<SnapshotCatalog>,
    /// Level sequences both snapshotted in the catalog and referenced by
    /// the last committed manifest.
    persisted: BTreeSet<u64>,
    pending: Option<MergeHandle>,
}

impl LiveIndex {
    /// An empty, in-memory live index. `geometry` sizes every level device
    /// and the per-scope cache budget; `buffer_cap` bounds the delta tier
    /// (default: one page worth of records, min 8). Panics on a zero cap or
    /// a page size too small for a level's records.
    pub fn new(geometry: DeviceConfig, cfg: Hs2dConfig, buffer_cap: Option<usize>) -> LiveIndex {
        // The anchor device holds no pages — it exists to own the handle
        // scope every level is accounted through.
        let anchor = Device::new(geometry);
        anchor.freeze();
        let core = DynamicHalfspace2::with_backing(
            &anchor,
            cfg,
            LevelBacking::PerLevel { geometry },
            buffer_cap,
        );
        LiveIndex {
            core,
            geometry,
            dir: None,
            cat: None,
            persisted: BTreeSet::new(),
            pending: None,
        }
    }

    /// The leveled core (level set, delta tier, merge epoch) — read-only;
    /// mutation goes through this index so persistence stays in step.
    pub fn core(&self) -> &DynamicHalfspace2 {
        &self.core
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.core.len()
    }

    pub fn is_empty(&self) -> bool {
        self.core.is_empty()
    }

    /// How many times the level set has changed (merge commits plus global
    /// rebuilds) since this index was created or reopened.
    pub fn merge_epoch(&self) -> u64 {
        self.core.epoch()
    }

    /// `true` while a background merge is outstanding.
    pub fn merge_in_progress(&self) -> bool {
        self.pending.is_some()
    }

    /// Insert a point with a caller-chosen tag (must be unique among live
    /// points). May trigger a synchronous merge; when a directory is
    /// attached the new state is checkpointed before returning.
    pub fn insert(&mut self, x: i64, y: i64, tag: u64) -> Result<(), SnapshotError> {
        self.core.insert(x, y, tag);
        self.maybe_persist()
    }

    /// Delete by tag; `Ok(true)` if a live point was removed.
    pub fn remove(&mut self, tag: u64) -> Result<bool, SnapshotError> {
        let hit = self.core.remove(tag);
        self.maybe_persist()?;
        Ok(hit)
    }

    /// Report the tags of all live points strictly below `y = m·x + c`
    /// (`inclusive` adds on-line points).
    pub fn query_below(&self, m: i64, c: i64, inclusive: bool) -> Vec<u64> {
        self.core.query_below(m, c, inclusive)
    }

    /// Start a background merge if one is warranted and none is in flight;
    /// `true` if a worker was started. While the merge runs, inserts
    /// buffer past the cap, deletes tombstone, and queries (plus any
    /// reader forks) serve the pre-merge state.
    pub fn begin_merge(&mut self) -> bool {
        if self.pending.is_some() {
            return false;
        }
        self.pending = self.core.begin_background_merge();
        self.pending.is_some()
    }

    /// Join the outstanding background merge and install its result
    /// atomically; `Ok(false)` when none was in flight. With a directory
    /// attached, the post-merge state is checkpointed (the manifest swap
    /// is the commit point; a crash before it leaves the old state).
    pub fn commit_merge(&mut self) -> Result<bool, SnapshotError> {
        match self.pending.take() {
            Some(h) => {
                self.core.commit_background_merge(h);
                self.maybe_persist()?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Attach `dir` as this index's home and checkpoint everything into it
    /// now. An existing catalog there is kept (its non-`lv` entries are
    /// never touched); otherwise one is created. Not callable mid-merge.
    pub fn save_to_dir(&mut self, dir: impl AsRef<Path>) -> Result<(), SnapshotError> {
        assert!(self.pending.is_none(), "save_to_dir during an in-flight merge");
        let dir = dir.as_ref().to_path_buf();
        let cat = if dir.join("__catalog.meta").exists() {
            SnapshotCatalog::open(&dir)?
        } else {
            SnapshotCatalog::create(&dir)?
        };
        self.cat = Some(cat);
        self.dir = Some(dir);
        self.persisted.clear();
        self.persist()
    }

    /// Checkpoint now (no-op without an attached directory or while a
    /// merge is in flight — mutation and merge commit already checkpoint).
    /// Returns whether a checkpoint was written.
    pub fn checkpoint(&mut self) -> Result<bool, SnapshotError> {
        if self.cat.is_none() || self.pending.is_some() {
            return Ok(false);
        }
        self.persist()?;
        Ok(true)
    }

    /// Reopen a live index from the directory a previous
    /// [`Self::save_to_dir`] populated. Levels come back on fresh
    /// file-backed devices (`cache_pages` pages of cache each, cold
    /// stats); the reopened index serves and *ingests* — new levels are
    /// built in memory and snapshotted on commit like always.
    pub fn open_dir(dir: impl AsRef<Path>, cache_pages: usize) -> Result<LiveIndex, SnapshotError> {
        let dir = dir.as_ref().to_path_buf();
        let cat = SnapshotCatalog::open(&dir)?;
        let mut r = MetaReader::open(&dir.join(LIVE_MANIFEST))?;
        let magic = r.str()?;
        if magic != MAGIC {
            return Err(r.error(format!("not a live-index manifest (magic {magic:?})")));
        }
        let version = r.u64()?;
        if version != VERSION {
            return Err(r.error(format!("unsupported live-index manifest version {version}")));
        }
        let page_bytes = r.usize()?;
        let _saved_cache_pages = r.usize()?;
        let geometry = DeviceConfig::new(page_bytes, cache_pages);
        let cfg = Hs2dConfig::load(&mut r)?;
        let buffer_cap = r.usize()?;
        let buffer = load_points(&mut r)?;
        let dead = load_tombstones(&mut r)?;
        let live = r.usize()?;
        let total_slots = r.usize()?;
        let n_levels = r.seq()?;
        let mut seqs = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            seqs.push(r.u64()?);
        }
        r.finish()?;

        let anchor = Device::new(geometry);
        anchor.freeze();
        let mut levels = Vec::with_capacity(seqs.len());
        for &seq in &seqs {
            let label = level_label(seq);
            let entry = cat
                .entries()
                .iter()
                .find(|e| e.label == label)
                .ok_or_else(|| SnapshotError::NoSuchEntry { label: label.clone() })?;
            if entry.kind != "live-level" {
                return Err(SnapshotError::Meta {
                    offset: 0,
                    detail: format!(
                        "live manifest references {label:?}, which is a {:?} entry, not a live-level",
                        entry.kind
                    ),
                });
            }
            let device = Device::open_snapshot(cat.pages_path(entry), cache_pages)?;
            let mut lr = MetaReader::open(&cat.meta_path(&label))?;
            let kind = lr.str()?;
            if kind != "live-level" {
                return Err(lr.error(format!("{label:?} metadata declares kind {kind:?}")));
            }
            let level = LiveLevel::load(&(*device).scoped_to(&anchor), &mut lr)?;
            lr.finish()?;
            levels.push(Level::restore(Some(device), level.structure, level.points, seq));
        }
        let core = DynamicHalfspace2::restore(
            &anchor,
            cfg,
            LevelBacking::PerLevel { geometry },
            DeltaTier::restore(buffer, buffer_cap, dead),
            levels,
            live,
            total_slots,
        )?;
        Ok(LiveIndex {
            core,
            geometry,
            dir: Some(dir),
            cat: Some(cat),
            persisted: seqs.into_iter().collect(),
            pending: None,
        })
    }

    fn maybe_persist(&mut self) -> Result<(), SnapshotError> {
        // While a merge is in flight the drained state lives nowhere
        // persistable; the on-disk manifest stays at the pre-merge
        // checkpoint (correct, slightly stale) until commit.
        if self.cat.is_none() || self.pending.is_some() {
            return Ok(());
        }
        self.persist()
    }

    /// The checkpoint protocol of the module docs: snapshot new levels,
    /// atomically swap the manifest (commit), collect unreferenced levels.
    fn persist(&mut self) -> Result<(), SnapshotError> {
        let cat = self.cat.as_mut().expect("persist without an attached catalog");
        let dir = self.dir.as_ref().expect("persist without an attached directory");
        let current: BTreeSet<u64> = self.core.levels().iter().map(|l| l.seq()).collect();

        for level in self.core.levels() {
            if self.persisted.contains(&level.seq()) {
                continue;
            }
            let label = level_label(level.seq());
            if cat.entries().iter().any(|e| e.label == label) {
                // A crashed run left an entry under a sequence we have
                // since reused; replace it.
                cat.remove(&label)?;
            }
            cat.add(&label, &LiveLevel::view(level))?;
        }

        let mut w = MetaWriter::new();
        w.str(MAGIC);
        w.u64(VERSION);
        w.usize(self.geometry.page_bytes);
        w.usize(self.geometry.cache_pages);
        self.core.config().save(&mut w);
        w.usize(self.core.delta().cap());
        save_points(&mut w, self.core.delta().buffer());
        save_tombstones(&mut w, self.core.delta().dead());
        w.usize(self.core.len());
        w.usize(self.core.total_slots());
        w.seq(current.len());
        for &seq in &current {
            w.u64(seq);
        }
        w.write_to_path(&dir.join(LIVE_MANIFEST))?;

        let stale: Vec<String> = cat
            .entries()
            .iter()
            .map(|e| e.label.clone())
            .filter(|l| parse_level_label(l).is_some_and(|seq| !current.contains(&seq)))
            .collect();
        for label in stale {
            cat.remove(&label)?;
        }
        self.persisted = current;
        Ok(())
    }
}

impl RangeIndex for LiveIndex {
    fn name(&self) -> &'static str {
        "live"
    }

    fn device(&self) -> &DeviceHandle {
        self.core.device()
    }

    fn supports(&self, q: &Query) -> bool {
        RangeIndex::supports(&self.core, q)
    }

    fn cost_hint(&self) -> CostHint {
        self.core.cost_hint()
    }

    /// The core's dispatch; a refusal names this index.
    fn try_execute(&self, q: &Query) -> Result<Vec<u64>, Unsupported> {
        RangeIndex::try_execute(&self.core, q)
            .map_err(|e| Unsupported { index: RangeIndex::name(self), ..e })
    }

    /// A read-only clone on a fresh accounting scope over the same pages —
    /// valid mid-merge (it serves the same pre-merge state the writer
    /// does). Forks are in-memory: they never persist.
    fn fork_reader(&self) -> Box<dyn RangeIndex> {
        Box::new(LiveIndex {
            core: self.core.fork_reader(),
            geometry: self.geometry,
            dir: None,
            cat: None,
            persisted: BTreeSet::new(),
            pending: None,
        })
    }

    /// A live index spans one device per level and persists through
    /// [`Self::save_to_dir`] / [`Self::open_dir`]; it cannot be stored as
    /// a single catalog entry.
    fn save_meta(&self, _w: &mut MetaWriter) {
        panic!(
            "LiveIndex spans one device per level; persist it with \
             LiveIndex::save_to_dir and reopen it with LiveIndex::open_dir"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrs_extmem::TempDir;

    fn cfg() -> Hs2dConfig {
        Hs2dConfig { seed: 7, ..Hs2dConfig::default() }
    }

    fn pt(i: u64) -> (i64, i64) {
        let x = (i as i64 * 37) % 401 - 200;
        let y = (i as i64 * 91) % 607 - 300;
        (x, y)
    }

    #[test]
    fn persists_on_every_mutation_and_reopens_midstream() {
        let dir = TempDir::new("lcrs-live-roundtrip");
        let mut live = LiveIndex::new(DeviceConfig::new(256, 0), cfg(), Some(16));
        live.save_to_dir(dir.path()).unwrap();
        for i in 0..120u64 {
            live.insert(pt(i).0, pt(i).1, i).unwrap();
            if i % 7 == 3 {
                live.remove(i / 2).unwrap();
            }
        }
        // Reopen from whatever the last mutation committed — no explicit
        // checkpoint call in between.
        let back = LiveIndex::open_dir(dir.path(), 4).unwrap();
        assert_eq!(back.len(), live.len());
        for (m, c, inc) in [(3i64, 40i64, false), (-1, -25, true), (0, 0, false)] {
            let mut a = live.query_below(m, c, inc);
            let mut b = back.query_below(m, c, inc);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "m={m} c={c}");
        }
        // The reopened index keeps ingesting (new levels snapshot fine).
        let mut back = back;
        for i in 200..260u64 {
            back.insert(pt(i).0, pt(i).1, i).unwrap();
        }
        assert!(back.merge_epoch() > 0, "60 inserts at cap 16 must merge");
        let again = LiveIndex::open_dir(dir.path(), 4).unwrap();
        assert_eq!(again.len(), back.len());
    }

    #[test]
    fn background_merge_checkpoints_at_commit_only() {
        let dir = TempDir::new("lcrs-live-bg");
        let mut live = LiveIndex::new(DeviceConfig::new(256, 0), cfg(), Some(8));
        for i in 0..50u64 {
            live.insert(pt(i).0, pt(i).1, i).unwrap();
        }
        live.save_to_dir(dir.path()).unwrap();
        for i in 50..57u64 {
            live.insert(pt(i).0, pt(i).1, i).unwrap();
        }
        assert!(live.begin_merge());
        // Mutations mid-merge do not move the on-disk state...
        live.insert(pt(80).0, pt(80).1, 80).unwrap();
        live.remove(3).unwrap();
        let stale = LiveIndex::open_dir(dir.path(), 4).unwrap();
        assert_eq!(stale.len(), 57, "mid-merge reopen serves the pre-merge checkpoint");
        // ...and commit installs + persists everything at once.
        assert!(live.commit_merge().unwrap());
        let fresh = LiveIndex::open_dir(dir.path(), 4).unwrap();
        assert_eq!(fresh.len(), live.len());
        let mut a = live.query_below(2, 10, true);
        let mut b = fresh.query_below(2, 10, true);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn catalog_collects_only_its_own_level_namespace() {
        let dir = TempDir::new("lcrs-live-gc");
        // A foreign entry that merely *looks* unrelated to levels.
        let mut cat = SnapshotCatalog::create(dir.path()).unwrap();
        let dev = Device::new(DeviceConfig::new(256, 0));
        let coords: Vec<(i64, i64)> = (0..40u64).map(pt).collect();
        let hs = HalfspaceRS2::build(&dev, &coords, cfg());
        dev.freeze();
        cat.add("user-data", &hs).unwrap();
        drop(cat);

        let mut live = LiveIndex::new(DeviceConfig::new(256, 0), cfg(), Some(8));
        for i in 0..40u64 {
            live.insert(pt(i).0, pt(i).1, 1000 + i).unwrap();
        }
        live.save_to_dir(dir.path()).unwrap();
        // Force several merge generations so old lv entries go stale.
        for i in 40..120u64 {
            live.insert(pt(i).0, pt(i).1, 1000 + i).unwrap();
        }
        let cat = SnapshotCatalog::open(dir.path()).unwrap();
        assert!(cat.entries().iter().any(|e| e.label == "user-data"), "foreign entries survive");
        let lv_entries: BTreeSet<u64> =
            cat.entries().iter().filter_map(|e| parse_level_label(&e.label)).collect();
        let current: BTreeSet<u64> = live.core().levels().iter().map(|l| l.seq()).collect();
        assert_eq!(lv_entries, current, "catalog holds exactly the committed level set");
    }
}
