//! Dynamization by partial reconstruction (the paper's Remark (iii) and
//! Open Problem 1): the leveled core of DESIGN.md §12.
//!
//! The standard logarithmic method [Bentley–Saxe; Mehlhorn, ref. 39 in the
//! paper's references]: maintain static Theorem 3.5 structures over subsets
//! of sizes that follow the binary representation of N. An insertion goes
//! into a buffer; when the buffer fills, it is merged with the smallest
//! structures and rebuilt — O((log₂ n)·amortized-build/N) amortized IOs per
//! insertion. Deletions use a tombstone set and trigger global rebuilding
//! when half the elements are dead, preserving the query bound at
//! O(log₂ n · (log_B n + t)) worst case (each of the O(log n) static parts
//! pays its own O(log_B n) search).
//!
//! In [`DynamicHalfspace2`] one [`DeltaTier`] absorbs all mutation; behind
//! it sits a stack of *levels*, each an ordinary static [`HalfspaceRS2`]
//! of geometrically increasing size. The core is generic over where level
//! pages live ([`LevelBacking`]): `Shared` keeps every level on the one
//! device the caller provided ([`DynamicHalfspace2::new`], the in-process
//! configuration), `PerLevel` builds each level on its own fresh `Device`
//! and freezes it — the configuration the engine's `LiveIndex` persists
//! level-by-level through its snapshot catalog.
//!
//! Whatever the backing, every level reads through handles scoped to one
//! *anchor* scope (`DeviceHandle::scoped_to`), so a stats bracket around
//! that single scope observes exactly the composite's IOs — the invariant
//! the batch executor, the calibrated planner, and the bench gates measure
//! through.
//!
//! Merges can run synchronously ([`DynamicHalfspace2::flush`]) or on a
//! background thread ([`DynamicHalfspace2::begin_background_merge`] /
//! [`commit_background_merge`](DynamicHalfspace2::commit_background_merge)):
//! while a merge is in flight the drained delta buffer and the drained
//! levels stay visible to queries (and to reader forks) untouched, and the
//! merge result replaces them atomically at commit.
//!
//! The catalog state is written through one codec per field group —
//! [`Hs2dConfig::save`], [`save_points`], [`save_tombstones`] and
//! [`save_level`] — shared by the `dynamic` catalog kind
//! ([`DynamicHalfspace2::save`]) and the engine's live manifest and level
//! entries, and read back through one validating
//! [`DynamicHalfspace2::restore`].

use std::collections::HashSet;
use std::sync::Arc;
use std::thread::JoinHandle;

use lcrs_extmem::{Device, DeviceConfig, DeviceHandle, MetaReader, MetaWriter, SnapshotError};

use crate::cost::{CostHint, CostShape};
use crate::delta::DeltaTier;
use crate::hs2d::{HalfspaceRS2, Hs2dConfig};

/// Where the pages of each level live.
#[derive(Clone)]
pub enum LevelBacking {
    /// Every level is built on the one (unfrozen) device the core was
    /// created over — the in-process configuration.
    Shared,
    /// Each level gets its own fresh `Device` with this geometry, frozen
    /// as soon as the level is built. Frozen levels can be snapshotted and
    /// reopened individually — the persistent configuration.
    PerLevel {
        /// Geometry of each level device (page size, cache budget).
        geometry: DeviceConfig,
    },
}

/// One frozen level: a static structure plus its build input (kept on the
/// host side like any database catalog would — rebuilds merge from it).
pub struct Level {
    /// Lifecycle owner of this level's pages under `PerLevel` backing;
    /// `None` under `Shared` backing.
    device: Option<Device>,
    structure: HalfspaceRS2,
    /// `Arc`-shared with reader forks: a fork is O(levels), not O(n).
    points: Arc<Vec<(i64, i64, u64)>>,
    /// Stable identity across merges — the engine persists levels under
    /// `lv<seq>` labels and uses the sequence to tell survivors from
    /// drained levels when it garbage-collects its catalog.
    seq: u64,
}

impl Level {
    /// Reassemble a level from persisted parts (as [`load_level`] returns
    /// them). The structure must read through a handle scoped to the
    /// owning core's anchor scope.
    pub fn restore(
        device: Option<Device>,
        structure: HalfspaceRS2,
        points: Arc<Vec<(i64, i64, u64)>>,
        seq: u64,
    ) -> Level {
        assert_eq!(points.len(), structure.len(), "level input must match its structure");
        Level { device, structure, points, seq }
    }

    pub fn seq(&self) -> u64 {
        self.seq
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn structure(&self) -> &HalfspaceRS2 {
        &self.structure
    }

    pub fn points(&self) -> &[(i64, i64, u64)] {
        &self.points
    }

    /// The build input behind its shared `Arc` (O(1) — what the engine's
    /// live persistence clones instead of copying the vector).
    pub fn points_arc(&self) -> Arc<Vec<(i64, i64, u64)>> {
        Arc::clone(&self.points)
    }

    /// The level's own device (`PerLevel` backing only).
    pub fn device(&self) -> Option<&Device> {
        self.device.as_ref()
    }

    fn view(&self, scope: &DeviceHandle) -> Level {
        let h = match &self.device {
            Some(dev) => (**dev).scoped_to(scope),
            None => scope.clone(),
        };
        Level {
            device: self.device.clone(),
            structure: self.structure.with_handle(&h),
            points: Arc::clone(&self.points),
            seq: self.seq,
        }
    }

    fn take_points(self) -> Vec<(i64, i64, u64)> {
        Arc::try_unwrap(self.points).unwrap_or_else(|a| (*a).clone())
    }
}

/// In-flight merge state: everything the merge consumes stays visible to
/// queries, immutably, until commit.
struct Draining {
    /// The delta buffer as of merge begin (still scanned by queries;
    /// deletes of these points tombstone instead of mutating).
    buffer: Vec<(i64, i64, u64)>,
    /// The levels being merged away (still served).
    levels: Vec<Level>,
    /// Tombstones whose points were filtered out of the merge input —
    /// dropped from the delta's dead set at commit, when the points they
    /// shadowed no longer exist anywhere.
    consumed: Vec<u64>,
}

/// A background level build in flight. Returned by
/// [`DynamicHalfspace2::begin_background_merge`]; hand it back to
/// [`DynamicHalfspace2::commit_background_merge`] to join and install the
/// result.
pub struct MergeHandle {
    worker: JoinHandle<Option<Level>>,
}

/// A dynamic halfspace-reporting structure over 2D points: the leveled
/// logarithmic-method core (see the module docs).
///
/// Point identity: values are `(x, y)` pairs plus a caller-supplied `u64`
/// tag (stable across rebuilds; duplicates allowed).
pub struct DynamicHalfspace2 {
    scope: DeviceHandle,
    cfg: Hs2dConfig,
    backing: LevelBacking,
    delta: DeltaTier,
    levels: Vec<Level>,
    draining: Option<Draining>,
    live: usize,
    total_slots: usize,
    next_seq: u64,
    /// Bumped every time the level set changes (merge commit or global
    /// rebuild) — how the engine's live persistence knows a checkpoint is
    /// due, and what the benches report as the merge count.
    epoch: u64,
    /// A mass deletion crossed the global-rebuild threshold while a merge
    /// was in flight; run the rebuild at commit.
    rebuild_pending: bool,
}

impl DynamicHalfspace2 {
    /// An empty in-process structure: every level on `dev`
    /// ([`LevelBacking::Shared`]), synchronous merges, the default buffer
    /// cap.
    pub fn new(dev: &DeviceHandle, cfg: Hs2dConfig) -> DynamicHalfspace2 {
        DynamicHalfspace2::with_backing(dev, cfg, LevelBacking::Shared, None)
    }

    /// An empty structure. `scope` is the anchor every level reads
    /// through; `buffer_cap` defaults to one page of 20-byte records
    /// (min 8). Panics on a zero cap or on level pages too small for
    /// [`HalfspaceRS2`] records — state no merge could survive.
    pub fn with_backing(
        scope: &DeviceHandle,
        cfg: Hs2dConfig,
        backing: LevelBacking,
        buffer_cap: Option<usize>,
    ) -> DynamicHalfspace2 {
        let cap = buffer_cap.unwrap_or_else(|| (scope.page_bytes() / 20).max(8));
        if let Err(e) = check_shape(scope, &backing, cap) {
            panic!("DynamicHalfspace2: {e}");
        }
        DynamicHalfspace2 {
            scope: scope.clone(),
            cfg,
            backing,
            delta: DeltaTier::new(cap),
            levels: Vec::new(),
            draining: None,
            live: 0,
            total_slots: 0,
            next_seq: 0,
            epoch: 0,
            rebuild_pending: false,
        }
    }

    /// Reassemble a core from persisted parts (levels already scoped to
    /// `scope`; new levels get sequences past every restored one). State
    /// that a later mutation could not survive is a typed error: a zero
    /// buffer cap, level pages too small for [`HalfspaceRS2`] records,
    /// `total_slots` other than the level lengths plus the buffer, a
    /// `live` count outside `total_slots − tombstones ..= total_slots`, a
    /// tombstone that names no level point, or a point outside the 2D
    /// coordinate budget.
    pub fn restore(
        scope: &DeviceHandle,
        cfg: Hs2dConfig,
        backing: LevelBacking,
        delta: DeltaTier,
        mut levels: Vec<Level>,
        live: usize,
        total_slots: usize,
    ) -> Result<DynamicHalfspace2, SnapshotError> {
        let invalid = |detail: String| SnapshotError::Meta { offset: 0, detail };
        check_shape(scope, &backing, delta.cap()).map_err(invalid)?;
        let slots = levels.iter().map(Level::len).sum::<usize>() + delta.len();
        if total_slots != slots {
            return Err(invalid(format!(
                "total_slots {total_slots} but the levels and buffer hold {slots} points"
            )));
        }
        let min_live = total_slots.saturating_sub(delta.dead_len());
        if !(min_live..=total_slots).contains(&live) {
            return Err(invalid(format!(
                "live count {live} outside {min_live}..={total_slots} ({} tombstones)",
                delta.dead_len()
            )));
        }
        // Removes and merges rely on every tombstone shadowing a level
        // point, and merges rebuild every point through `HalfspaceRS2::build`.
        let budget = lcrs_geom::MAX_COORD_2D.unsigned_abs();
        let level_points = levels.iter().flat_map(|l| l.points.iter());
        if let Some(p) = level_points
            .clone()
            .chain(delta.buffer())
            .find(|p| p.0.unsigned_abs() > budget || p.1.unsigned_abs() > budget)
        {
            return Err(invalid(format!("point {p:?} outside the 2D coordinate budget")));
        }
        let shadowed: HashSet<u64> =
            level_points.map(|p| p.2).filter(|&tag| delta.is_dead(tag)).collect();
        if shadowed.len() != delta.dead_len() {
            return Err(invalid(format!(
                "{} of {} tombstones name no level point",
                delta.dead_len() - shadowed.len(),
                delta.dead_len()
            )));
        }
        let next_seq = levels.iter().map(|l| l.seq + 1).max().unwrap_or(0);
        levels.sort_by_key(|l| std::cmp::Reverse(l.len()));
        Ok(DynamicHalfspace2 {
            scope: scope.clone(),
            cfg,
            backing,
            delta,
            levels,
            draining: None,
            live,
            total_slots,
            next_seq,
            epoch: 0,
            rebuild_pending: false,
        })
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of static levels a query visits (O(log n)) — includes
    /// levels currently being drained by an in-flight merge, which still
    /// serve queries.
    pub fn num_parts(&self) -> usize {
        self.levels.len() + self.draining.as_ref().map_or(0, |d| d.levels.len())
    }

    /// The Section 7 logarithmic-method query bound — one Theorem 3.5
    /// search per level, O(log n · log_B n + t/B) total — as a planner
    /// hint (DESIGN.md §10). Re-read after inserts/removes: the level
    /// count changes as the logarithmic method merges.
    pub fn cost_hint(&self) -> CostHint {
        CostHint::new(CostShape::PartsLog { parts: self.num_parts() as u32 }, self.len())
    }

    /// The anchor scope: all level IOs are accounted here.
    pub fn device(&self) -> &DeviceHandle {
        &self.scope
    }

    /// The structure's configuration.
    pub fn config(&self) -> Hs2dConfig {
        self.cfg
    }

    /// The mutable tier (buffered inserts + tombstones).
    pub fn delta(&self) -> &DeltaTier {
        &self.delta
    }

    /// The frozen levels, largest first. Excludes levels being drained by
    /// an in-flight merge.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// Total slots across levels and buffer, counting tombstoned points.
    pub fn total_slots(&self) -> usize {
        self.total_slots
    }

    /// `true` while a [`MergeHandle`] is outstanding.
    pub fn merge_in_progress(&self) -> bool {
        self.draining.is_some()
    }

    /// How many times the level set has changed (merge commits plus global
    /// rebuilds) since this core was created or restored.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The same structure viewed through `scope` (own cache + stats):
    /// level handles re-scoped, catalog state `Arc`-shared, buffer copied.
    /// The view answers queries exactly like `self` does right now — even
    /// mid-merge, when it serves the draining buffer and levels the same
    /// way the writer does. Updates belong to the original single writer.
    pub fn with_handle(&self, scope: &DeviceHandle) -> DynamicHalfspace2 {
        DynamicHalfspace2 {
            scope: scope.clone(),
            cfg: self.cfg,
            backing: self.backing.clone(),
            delta: self.delta.clone_for_reader(),
            levels: self.levels.iter().map(|l| l.view(scope)).collect(),
            draining: self.draining.as_ref().map(|d| Draining {
                buffer: d.buffer.clone(),
                levels: d.levels.iter().map(|l| l.view(scope)).collect(),
                consumed: d.consumed.clone(),
            }),
            live: self.live,
            total_slots: self.total_slots,
            next_seq: self.next_seq,
            epoch: self.epoch,
            rebuild_pending: false,
        }
    }

    /// A reader clone on a fresh scope over the same pages — each
    /// parallel worker calls this to get its own LRU and IO attribution.
    /// Queries are read-only, so forks work whether or not the device is
    /// frozen; mutation stays with the original (the single writer).
    pub fn fork_reader(&self) -> DynamicHalfspace2 {
        self.with_handle(&self.scope.fork())
    }

    /// Insert a point with a caller-chosen tag (must be unique among live
    /// points if deletion by tag is used). Flushes the delta synchronously
    /// when it fills — unless a background merge is in flight, in which
    /// case the buffer keeps growing until the merge commits (queries
    /// scan it for free either way).
    pub fn insert(&mut self, x: i64, y: i64, tag: u64) {
        self.delta.push(x, y, tag);
        self.live += 1;
        self.total_slots += 1;
        if self.delta.is_full() && self.draining.is_none() {
            self.flush();
        }
    }

    /// Delete by tag; `true` if a live point was removed (lazy tombstone).
    pub fn remove(&mut self, tag: u64) -> bool {
        if let Some(i) = self.delta.position(tag) {
            self.delta.swap_remove(i);
            self.live -= 1;
            self.total_slots -= 1;
            return true;
        }
        let in_static = self.levels.iter().any(|l| l.points.iter().any(|p| p.2 == tag))
            || self.draining.as_ref().is_some_and(|d| {
                d.levels.iter().any(|l| l.points.iter().any(|p| p.2 == tag))
                    || d.buffer.iter().any(|p| p.2 == tag)
            });
        if !in_static || self.delta.is_dead(tag) {
            return false;
        }
        self.delta.tombstone(tag);
        self.live -= 1;
        if self.live * 2 < self.total_slots {
            if self.draining.is_some() {
                self.rebuild_pending = true;
            } else {
                self.rebuild_all();
            }
        }
        true
    }

    /// Drain the delta and every level the logarithmic policy selects,
    /// build the merged level, and commit — all synchronously.
    pub fn flush(&mut self) {
        assert!(self.draining.is_none(), "flush during an in-flight background merge");
        let batch = self.begin_merge();
        let level = self.build_merged_level(batch);
        self.commit(level);
    }

    /// Start a background merge: the merge input is chosen and filtered
    /// now (so the cut is well-defined), the level build runs on a worker
    /// thread, and queries keep serving the pre-merge state. Returns
    /// `None` when there is nothing to merge or a merge is already in
    /// flight. Build IOs are accounted to this structure's scope as the
    /// worker runs.
    pub fn begin_background_merge(&mut self) -> Option<MergeHandle> {
        if self.draining.is_some() {
            return None;
        }
        let batch = self.begin_merge();
        if batch.is_empty() {
            self.commit(None);
            return None;
        }
        let scope = self.scope.clone();
        let backing = self.backing.clone();
        let cfg = self.cfg;
        let seq = self.next_seq;
        self.next_seq += 1;
        let worker = std::thread::spawn(move || build_level(&scope, &backing, cfg, batch, seq));
        Some(MergeHandle { worker })
    }

    /// Join a background merge and install its level: the drained buffer
    /// and levels are dropped, the merged level takes their place, and
    /// consumed tombstones are absolved — one atomic switch from the
    /// query path's point of view.
    pub fn commit_background_merge(&mut self, h: MergeHandle) {
        assert!(self.draining.is_some(), "no merge in flight");
        let level = h.worker.join().expect("level-merge worker panicked");
        self.commit(level);
    }

    /// Choose and take the merge input: the whole delta buffer plus every
    /// level no larger than the accumulated batch (the logarithmic
    /// policy), tombstone-filtered. Leaves the taken state in `draining`,
    /// still serving queries.
    fn begin_merge(&mut self) -> Vec<(i64, i64, u64)> {
        let buffer = self.delta.drain();
        let mut drained_levels: Vec<Level> = Vec::new();
        let mut batch: Vec<(i64, i64, u64)> = buffer.clone();
        loop {
            let acc = batch.len();
            match self.levels.iter().position(|l| l.len() <= acc) {
                Some(i) => {
                    let level = self.levels.swap_remove(i);
                    batch.extend_from_slice(&level.points);
                    drained_levels.push(level);
                }
                None => break,
            }
        }
        let mut consumed = Vec::new();
        batch.retain(|p| {
            if self.delta.is_dead(p.2) {
                consumed.push(p.2);
                false
            } else {
                true
            }
        });
        self.draining = Some(Draining { buffer, levels: drained_levels, consumed });
        batch
    }

    fn build_merged_level(&mut self, batch: Vec<(i64, i64, u64)>) -> Option<Level> {
        if batch.is_empty() {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        build_level(&self.scope, &self.backing, self.cfg, batch, seq)
    }

    fn commit(&mut self, level: Option<Level>) {
        let draining = self.draining.take().expect("commit without a merge in flight");
        let changed = level.is_some() || !draining.levels.is_empty();
        drop(draining.levels); // level devices (PerLevel) release their pages
        for tag in draining.consumed {
            self.delta.absolve(tag);
        }
        if let Some(level) = level {
            self.levels.push(level);
        }
        if changed {
            self.epoch += 1;
        }
        self.levels.sort_by_key(|l| std::cmp::Reverse(l.len()));
        self.total_slots = self.levels.iter().map(|l| l.len()).sum::<usize>() + self.delta.len();
        if self.rebuild_pending {
            self.rebuild_pending = false;
            if self.live * 2 < self.total_slots {
                self.rebuild_all();
            }
        } else if self.delta.is_full() {
            // The buffer overfilled while the merge ran; drain it now.
            self.flush();
        }
    }

    /// Global rebuild (half the slots are tombstoned): collapse everything
    /// live into one level and clear the tombstones.
    fn rebuild_all(&mut self) {
        assert!(self.draining.is_none(), "rebuild during an in-flight background merge");
        let mut all: Vec<(i64, i64, u64)> = self.delta.drain();
        for level in std::mem::take(&mut self.levels) {
            all.extend(level.take_points());
        }
        all.retain(|p| !self.delta.is_dead(p.2));
        self.delta.clear_dead();
        self.epoch += 1;
        self.total_slots = all.len();
        self.live = all.len();
        if all.is_empty() {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let level = build_level(&self.scope, &self.backing, self.cfg, all, seq)
            .expect("non-empty rebuild input");
        self.levels.push(level);
    }

    /// Report the tags of all live points strictly below `y = m·x + c`
    /// (`inclusive` adds on-line points).
    pub fn query_below(&self, m: i64, c: i64, inclusive: bool) -> Vec<u64> {
        let mut out = Vec::new();
        let draining_levels = self.draining.iter().flat_map(|d| d.levels.iter());
        for level in self.levels.iter().chain(draining_levels) {
            for id in level.structure.query_below(m, c, inclusive) {
                let p = level.points[id as usize];
                if !self.delta.is_dead(p.2) {
                    out.push(p.2);
                }
            }
        }
        if let Some(d) = &self.draining {
            // The drained buffer is still in memory (free to scan) but its
            // points can be tombstoned: deletes during a merge never
            // mutate it.
            for &(x, y, tag) in &d.buffer {
                let rhs = m as i128 * x as i128 + c as i128;
                let hit = if inclusive { y as i128 <= rhs } else { (y as i128) < rhs };
                if hit && !self.delta.is_dead(tag) {
                    out.push(tag);
                }
            }
        }
        self.delta.scan_below(m, c, inclusive, &mut out);
        out
    }

    /// Visit every live point `(x, y, tag)` host-side: level inputs and
    /// the delta buffer are in memory anyway (they are catalog state), so
    /// the live tier answers the derived query classes by exact
    /// enumeration — zero device IOs, exactness over asymptotics. The
    /// frozen snapshot levels behind the engine's `LiveIndex` take the
    /// annotated/lifted fast paths instead.
    fn for_each_live(&self, mut f: impl FnMut(i64, i64, u64)) {
        let draining_levels = self.draining.iter().flat_map(|d| d.levels.iter());
        for level in self.levels.iter().chain(draining_levels) {
            for &(x, y, tag) in level.points.iter() {
                if !self.delta.is_dead(tag) {
                    f(x, y, tag);
                }
            }
        }
        if let Some(d) = &self.draining {
            for &(x, y, tag) in &d.buffer {
                if !self.delta.is_dead(tag) {
                    f(x, y, tag);
                }
            }
        }
        for &(x, y, tag) in self.delta.buffer() {
            f(x, y, tag);
        }
    }

    /// Count and weight-sum (`Σ x + y`, exact in `i128`) of live points
    /// below `y = m·x + c`.
    pub fn aggregate_below(&self, m: i64, c: i64, inclusive: bool) -> (u64, i128) {
        let (mut count, mut wsum) = (0u64, 0i128);
        self.for_each_live(|x, y, _| {
            let rhs = m as i128 * x as i128 + c as i128;
            let hit = if inclusive { y as i128 <= rhs } else { (y as i128) < rhs };
            if hit {
                count += 1;
                wsum += x as i128 + y as i128;
            }
        });
        (count, wsum)
    }

    /// The `k` live points with the lowest key `y − m·x` among those with
    /// key ≤ `c` (always inclusive), as tags ordered by `(key, tag)`.
    pub fn top_k(&self, m: i64, c: i64, k: usize) -> Vec<u64> {
        let mut cand: Vec<(i128, u64)> = Vec::new();
        self.for_each_live(|x, y, tag| {
            let key = y as i128 - m as i128 * x as i128;
            if key <= c as i128 {
                cand.push((key, tag));
            }
        });
        cand.sort_unstable();
        cand.truncate(k);
        cand.into_iter().map(|(_, tag)| tag).collect()
    }

    /// Tags of live points inside the disk of center `(x, y)` and squared
    /// radius `r2` — exact for arbitrary `i64` coordinates (carry-aware
    /// `u128` distances, [`lcrs_geom::lift::in_disk`]).
    pub fn disk_report(&self, x: i64, y: i64, r2: i64, inclusive: bool) -> Vec<u64> {
        let mut out = Vec::new();
        self.for_each_live(|px, py, tag| {
            if lcrs_geom::lift::in_disk(x, y, r2, px, py, inclusive) {
                out.push(tag);
            }
        });
        out
    }

    /// Serialize the catalog state — the `dynamic` catalog kind: every
    /// level (its structure *and* its build input, which rebuilds need),
    /// the insert buffer, and the tombstone set. Page data is captured
    /// separately per backing. Panics mid-merge: commit the outstanding
    /// [`MergeHandle`] first.
    pub fn save(&self, w: &mut MetaWriter) {
        assert!(self.draining.is_none(), "save during an in-flight background merge");
        self.cfg.save(w);
        w.seq(self.levels.len());
        for level in &self.levels {
            save_level(w, &level.structure, &level.points);
        }
        save_points(w, self.delta.buffer());
        w.usize(self.delta.cap());
        save_tombstones(w, self.delta.dead());
        w.usize(self.live);
        w.usize(self.total_slots);
    }

    /// Rebuild from metadata written by [`Self::save`], with every level
    /// structure reading through `h` (`Shared` backing). A structure
    /// loaded from a read-only snapshot serves queries exactly like the
    /// original; updates that would flush or rebuild panic at the device
    /// layer (writes on a frozen store), so treat the result as a reader.
    pub fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<DynamicHalfspace2, SnapshotError> {
        let cfg = Hs2dConfig::load(r)?;
        let n_levels = r.seq()?;
        let mut levels = Vec::with_capacity(n_levels);
        for seq in 0..n_levels as u64 {
            let (structure, points) = load_level(h, r)?;
            levels.push(Level::restore(None, structure, points, seq));
        }
        let buffer = load_points(r)?;
        let cap = r.usize()?;
        let delta = DeltaTier::restore(buffer, cap, load_tombstones(r)?);
        let live = r.usize()?;
        let total_slots = r.usize()?;
        DynamicHalfspace2::restore(h, cfg, LevelBacking::Shared, delta, levels, live, total_slots)
    }
}

/// The geometry every merge relies on: a non-zero buffer cap (a zero cap
/// flushes an empty buffer forever) and level pages that hold
/// [`HalfspaceRS2`] records.
fn check_shape(scope: &DeviceHandle, backing: &LevelBacking, cap: usize) -> Result<(), String> {
    let page_bytes = match backing {
        LevelBacking::Shared => scope.page_bytes(),
        LevelBacking::PerLevel { geometry } => geometry.page_bytes,
    };
    if cap == 0 {
        return Err("delta buffer cap must be at least 1".to_string());
    }
    if !HalfspaceRS2::page_fits(page_bytes) {
        return Err(format!("{page_bytes}-byte pages cannot hold a level's records"));
    }
    Ok(())
}

/// Serialize an `(x, y, tag)` sequence (level inputs, the delta buffer).
pub fn save_points(w: &mut MetaWriter, points: &[(i64, i64, u64)]) {
    w.seq(points.len());
    for &(x, y, tag) in points {
        w.i64(x);
        w.i64(y);
        w.u64(tag);
    }
}

/// Inverse of [`save_points`].
pub fn load_points(r: &mut MetaReader) -> Result<Vec<(i64, i64, u64)>, SnapshotError> {
    let n = r.seq()?;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        points.push((r.i64()?, r.i64()?, r.u64()?));
    }
    Ok(points)
}

/// Serialize a tombstone set, sorted so equal sets serialize to equal
/// bytes.
pub fn save_tombstones(w: &mut MetaWriter, dead: &HashSet<u64>) {
    let mut dead: Vec<u64> = dead.iter().copied().collect();
    dead.sort_unstable();
    w.seq(dead.len());
    for t in dead {
        w.u64(t);
    }
}

/// Inverse of [`save_tombstones`].
pub fn load_tombstones(r: &mut MetaReader) -> Result<HashSet<u64>, SnapshotError> {
    let n = r.seq()?;
    let mut dead = HashSet::with_capacity(n);
    for _ in 0..n {
        dead.insert(r.u64()?);
    }
    Ok(dead)
}

/// Serialize one level: its static structure, then its build input.
pub fn save_level(w: &mut MetaWriter, structure: &HalfspaceRS2, points: &[(i64, i64, u64)]) {
    structure.save(w);
    save_points(w, points);
}

/// Inverse of [`save_level`], reading pages through `h`. An input whose
/// length differs from the structure's is a typed error.
pub fn load_level(
    h: &DeviceHandle,
    r: &mut MetaReader,
) -> Result<(HalfspaceRS2, Arc<Vec<(i64, i64, u64)>>), SnapshotError> {
    let structure = HalfspaceRS2::load(h, r)?;
    let points = load_points(r)?;
    if points.len() != structure.len() {
        return Err(r.error("level input length must match its structure"));
    }
    Ok((structure, Arc::new(points)))
}

/// Build one level from `batch` (the merged, tombstone-filtered input).
/// Runs on the caller thread for synchronous merges and on the worker for
/// background merges; either way the build reads and writes through a
/// handle scoped to `scope`, so build IOs land in the owner's accounting.
fn build_level(
    scope: &DeviceHandle,
    backing: &LevelBacking,
    cfg: Hs2dConfig,
    batch: Vec<(i64, i64, u64)>,
    seq: u64,
) -> Option<Level> {
    if batch.is_empty() {
        return None;
    }
    let coords: Vec<(i64, i64)> = batch.iter().map(|p| (p.0, p.1)).collect();
    match backing {
        LevelBacking::Shared => {
            let structure = HalfspaceRS2::build(scope, &coords, cfg);
            Some(Level { device: None, structure, points: Arc::new(batch), seq })
        }
        LevelBacking::PerLevel { geometry } => {
            let device = Device::new(*geometry);
            let build_handle = (*device).scoped_to(scope);
            let structure = HalfspaceRS2::build(&build_handle, &coords, cfg);
            device.freeze();
            Some(Level { device: Some(device), structure, points: Arc::new(batch), seq })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrs_extmem::DeviceConfig;
    use std::collections::BTreeMap;

    fn check(core: &DynamicHalfspace2, model: &BTreeMap<u64, (i64, i64)>) {
        for (m, c, inclusive) in [(3i64, 500i64, false), (-2, -100, true), (0, 0, false)] {
            let mut got = core.query_below(m, c, inclusive);
            got.sort_unstable();
            let mut want: Vec<u64> = model
                .iter()
                .filter(|(_, &(x, y))| {
                    let rhs = m as i128 * x as i128 + c as i128;
                    if inclusive {
                        y as i128 <= rhs
                    } else {
                        (y as i128) < rhs
                    }
                })
                .map(|(t, _)| *t)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "m={m} c={c}");
        }
    }

    fn per_level_core() -> (Device, DynamicHalfspace2) {
        let anchor = Device::new(DeviceConfig::new(256, 0));
        anchor.freeze();
        let core = DynamicHalfspace2::with_backing(
            &anchor,
            Hs2dConfig::default(),
            LevelBacking::PerLevel { geometry: DeviceConfig::new(256, 0) },
            None,
        );
        (anchor, core)
    }

    #[test]
    fn inserts_then_queries() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let mut d = DynamicHalfspace2::new(&dev, Hs2dConfig::default());
        let mut model = BTreeMap::new();
        let mut s = 77u64;
        for tag in 0..600u64 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let (x, y) = (((s >> 33) as i64) % 2000 - 1000, ((s >> 13) as i64) % 2000 - 1000);
            d.insert(x, y, tag);
            model.insert(tag, (x, y));
            if tag % 97 == 0 {
                check(&d, &model);
            }
        }
        assert!(d.num_parts() <= 12, "parts must stay logarithmic: {}", d.num_parts());
        check(&d, &model);
    }

    #[test]
    fn interleaved_inserts_and_deletes() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let mut d = DynamicHalfspace2::new(&dev, Hs2dConfig::default());
        let mut model = BTreeMap::new();
        let mut s = 5u64;
        for round in 0..900u64 {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            if round % 3 == 2 && !model.is_empty() {
                // Delete a pseudo-random live tag.
                let k = *model.keys().nth((s as usize) % model.len()).unwrap();
                assert!(d.remove(k));
                model.remove(&k);
            } else {
                let (x, y) = (((s >> 33) as i64) % 500 - 250, ((s >> 11) as i64) % 500 - 250);
                d.insert(x, y, round);
                model.insert(round, (x, y));
            }
            if round % 131 == 0 {
                check(&d, &model);
                assert_eq!(d.len(), model.len());
            }
        }
        check(&d, &model);
    }

    #[test]
    fn removing_absent_tag_is_noop() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let mut d = DynamicHalfspace2::new(&dev, Hs2dConfig::default());
        d.insert(1, 1, 10);
        assert!(!d.remove(99));
        assert!(d.remove(10));
        assert!(!d.remove(10));
        assert!(d.is_empty());
    }

    #[test]
    fn mass_deletion_triggers_compaction() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let mut d = DynamicHalfspace2::new(&dev, Hs2dConfig::default());
        for t in 0..400u64 {
            d.insert(t as i64, -(t as i64), t);
        }
        for t in 0..300u64 {
            assert!(d.remove(t));
        }
        assert_eq!(d.len(), 100);
        // After compaction the dead set must have been flushed.
        assert!(d.delta().dead_len() < 200);
        let got = d.query_below(0, i64::MAX / 4, false);
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn per_level_backing_matches_model() {
        let (anchor, mut core) = per_level_core();
        let mut model = BTreeMap::new();
        let mut s = 41u64;
        for round in 0..700u64 {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            if round % 4 == 3 && !model.is_empty() {
                let k = *model.keys().nth((s as usize) % model.len()).unwrap();
                assert!(core.remove(k));
                model.remove(&k);
            } else {
                let (x, y) = (((s >> 33) as i64) % 800 - 400, ((s >> 11) as i64) % 800 - 400);
                core.insert(x, y, round);
                model.insert(round, (x, y));
            }
            if round % 113 == 0 {
                check(&core, &model);
                assert_eq!(core.len(), model.len());
            }
        }
        check(&core, &model);
        // Every level sits on its own frozen device; all query IOs land on
        // the anchor scope.
        for level in core.levels() {
            assert!(level.device().expect("per-level device").is_frozen());
        }
        let (_, io) = anchor.measure(|| core.query_below(1, 0, false));
        assert!(io.total() > 0, "query IOs must hit the anchor scope");
    }

    #[test]
    fn background_merge_serves_old_state_until_commit() {
        let (_anchor, mut core) = per_level_core();
        let mut model = BTreeMap::new();
        // 303 is not a multiple of the flush cap, so the delta buffer is
        // non-empty when the merge begins.
        for t in 0..303u64 {
            let (x, y) = ((t as i64 * 37) % 500 - 250, (t as i64 * 91) % 500 - 250);
            core.insert(x, y, t);
            model.insert(t, (x, y));
        }
        check(&core, &model);
        let handle = core.begin_background_merge().expect("merge should have input");
        assert!(core.merge_in_progress());
        // Mid-merge: queries serve the old levels + drained buffer, and
        // mutation keeps working against the delta.
        check(&core, &model);
        for t in 400..440u64 {
            core.insert(t as i64, -(t as i64), t);
            model.insert(t, (t as i64, -(t as i64)));
        }
        assert!(core.remove(5));
        model.remove(&5);
        assert!(core.remove(420)); // a post-begin buffered insert
        model.remove(&420);
        check(&core, &model);
        // A reader forked mid-merge sees the same answers.
        let fork = core.fork_reader();
        check(&fork, &model);
        core.commit_background_merge(handle);
        assert!(!core.merge_in_progress());
        check(&core, &model);
        assert_eq!(core.len(), model.len());
        // The fork taken before commit still answers from the old state.
        check(&fork, &model);
    }

    fn check_derived(core: &DynamicHalfspace2, model: &BTreeMap<u64, (i64, i64)>) {
        // Aggregates, top-k, and disks against the model — the derived
        // query classes must see exactly the live set, even mid-merge.
        for (m, c) in [(3i64, 500i64), (-2, -100), (0, 0)] {
            let got = core.aggregate_below(m, c, true);
            let mut want = (0u64, 0i128);
            let mut keys: Vec<(i128, u64)> = Vec::new();
            for (&t, &(x, y)) in model {
                let key = y as i128 - m as i128 * x as i128;
                if key <= c as i128 {
                    want.0 += 1;
                    want.1 += x as i128 + y as i128;
                    keys.push((key, t));
                }
            }
            assert_eq!(got, want, "aggregate m={m} c={c}");
            keys.sort_unstable();
            keys.truncate(7);
            let want_top: Vec<u64> = keys.into_iter().map(|(_, t)| t).collect();
            assert_eq!(core.top_k(m, c, 7), want_top, "top_k m={m} c={c}");
        }
        for (x, y, r2) in [(0i64, 0i64, 40_000i64), (100, -100, 10_000), (0, 0, -1)] {
            let mut got = core.disk_report(x, y, r2, true);
            got.sort_unstable();
            let mut want: Vec<u64> = model
                .iter()
                .filter(|(_, &(px, py))| lcrs_geom::lift::in_disk(x, y, r2, px, py, true))
                .map(|(&t, _)| t)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "disk ({x},{y},{r2})");
        }
    }

    #[test]
    fn derived_queries_match_model_even_mid_merge() {
        let (_anchor, mut core) = per_level_core();
        let mut model = BTreeMap::new();
        for t in 0..303u64 {
            let (x, y) = ((t as i64 * 37) % 500 - 250, (t as i64 * 91) % 500 - 250);
            core.insert(x, y, t);
            model.insert(t, (x, y));
        }
        check_derived(&core, &model);
        let handle = core.begin_background_merge().expect("merge input");
        for t in 400..430u64 {
            core.insert(t as i64, -(t as i64), t);
            model.insert(t, (t as i64, -(t as i64)));
        }
        assert!(core.remove(5));
        model.remove(&5);
        check_derived(&core, &model); // draining levels + buffer + tombstones
        core.commit_background_merge(handle);
        check_derived(&core, &model);
    }

    #[test]
    fn deferred_rebuild_runs_after_commit() {
        let (_anchor, mut core) = per_level_core();
        for t in 0..200u64 {
            core.insert(t as i64, -(t as i64), t);
        }
        let handle = core.begin_background_merge().expect("merge input");
        // Mass deletion while the merge runs: the rebuild must defer.
        for t in 0..150u64 {
            assert!(core.remove(t));
        }
        assert!(core.merge_in_progress());
        core.commit_background_merge(handle);
        assert_eq!(core.len(), 50);
        // The deferred global rebuild collapsed the tombstones.
        assert!(core.delta().dead_len() < 100, "rebuild must flush tombstones");
        assert_eq!(core.query_below(0, i64::MAX / 4, false).len(), 50);
    }
}
