//! Corruption-matrix negative tests for the snapshot format (ISSUE 4):
//! truncated files, flipped bytes in header / page body / checksum table,
//! wrong magic, and future format versions must each surface as a typed
//! [`SnapshotError`] with the failing offset — never a panic: the whole
//! file is validated once at open, so corruption is always an open-time
//! error, never a read-time fault. Empty-device and single-page snapshots
//! are pinned as working edge cases, and the structure-metadata envelope
//! gets the same treatment
//! (including loading one structure's metadata as another kind). Leveled
//! state that is correctly checksummed but out of range — a zero buffer
//! cap, pages too small for a level, slot and live counters that disagree
//! with the levels, a tombstone with no point under it, a point outside
//! the coordinate budget — is a typed error at open, both in a live
//! manifest and in a `dynamic` catalog entry. So are catalog entries in
//! the retired kinds and layouts of the lifted 3D structure, and a lifted
//! id map that repeats an id or names one past the point count. So is a
//! shard manifest whose 2D or 3D id maps repeat an id across two shards
//! or name one past the point count, and a sharded catalog whose shard
//! directories were swapped or replaced by a shard of other kinds, and a
//! planner calibration file of another version or with a short or
//! non-positive per-class table. So are
//! checksummed kd-tree and R-tree node pages that no query can walk: a
//! cycle, a shared child, a child or leaf range past the end of its file,
//! leaves that miss a point, a path deeper than 64, a bad leaf tag. The
//! partition tree and the hybrid and shallow trees built on its layout get
//! the same cases, plus children that do not tile their parent's points
//! and attached structures that are missing or of the wrong size.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

use lcrs::baselines::{ExternalKdTree, ExternalScan, ExternalScan3, StrRTree};
use lcrs::engine::{
    load_index, Calibration, ClassFit, IndexSet, LiftedIndex, LiveIndex, Query, RangeIndex,
    ShardConfig, ShardedIndexSet, SnapshotCatalog, CALIBRATION_FILE, LIVE_MANIFEST, SHARD_MANIFEST,
};
use lcrs::extmem::{
    Device, DeviceConfig, DeviceHandle, IoStats, MetaReader, MetaWriter, PageId, SnapshotError,
    TempDir, VecFile,
};
use lcrs::geom::plane3::Plane3;
use lcrs::geom::point::PointD;
use lcrs::halfspace::dynamic::{
    load_level, load_points, load_tombstones, save_level, save_points, save_tombstones,
};
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs::halfspace::hs3d::{HalfspaceRS3, Hs3dConfig};
use lcrs::halfspace::ptree::PTreeConfig;
use lcrs::halfspace::tradeoff::{HybridConfig, HybridTree3, ShallowConfig, ShallowTree3};
use lcrs::halfspace::{DynamicHalfspace2, Partition2, Partition3, PartitionTree};
use lcrs::workloads::{points2, points3, Dist2, Dist3};

/// Byte offsets of the page-snapshot header (DESIGN.md §9).
const OFF_VERSION: usize = 8;
const OFF_PAGE_BYTES: usize = 12;
const OFF_TABLE: usize = 40;

fn write_reference_snapshot(dir: &TempDir, pages: usize) -> std::path::PathBuf {
    let dev = Device::new(DeviceConfig::new(128, 0));
    if pages > 0 {
        let p = dev.alloc_pages(pages);
        for i in 0..pages {
            dev.write_page(PageId(p.0 + i as u64), |b| {
                b[0] = i as u8;
                b[127] = !(i as u8);
            });
        }
    }
    let path = dir.file(&format!("ref-{pages}.pages"));
    dev.freeze_to_path(&path).unwrap();
    path
}

fn mutate(path: &Path, out: &Path, f: impl FnOnce(&mut Vec<u8>)) {
    let mut bytes = std::fs::read(path).unwrap();
    f(&mut bytes);
    std::fs::write(out, bytes).unwrap();
}

#[test]
fn wrong_magic_is_typed_with_offset() {
    let dir = TempDir::new("lcrs-corrupt-magic");
    let good = write_reference_snapshot(&dir, 3);
    let bad = dir.file("bad.pages");
    mutate(&good, &bad, |b| b[0] = b'X');
    match Device::open_snapshot(&bad, 0) {
        Err(SnapshotError::BadMagic { offset: 0, found, .. }) => assert_eq!(found[0], b'X'),
        other => panic!("expected BadMagic, got {other:?}", other = other.err()),
    }
}

#[test]
fn future_format_version_is_rejected() {
    let dir = TempDir::new("lcrs-corrupt-version");
    let good = write_reference_snapshot(&dir, 3);
    let bad = dir.file("bad.pages");
    mutate(&good, &bad, |b| b[OFF_VERSION] = 99);
    match Device::open_snapshot(&bad, 0) {
        Err(SnapshotError::UnsupportedVersion { offset, found, supported }) => {
            assert_eq!(offset, OFF_VERSION as u64);
            assert_eq!(found, 99);
            assert!(supported < 99);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}", other = other.err()),
    }
}

#[test]
fn flipped_header_byte_fails_the_header_checksum() {
    let dir = TempDir::new("lcrs-corrupt-header");
    let good = write_reference_snapshot(&dir, 3);
    // Flip a bit in the page-size field: caught by the header checksum
    // before the bogus geometry is ever trusted.
    let bad = dir.file("bad.pages");
    mutate(&good, &bad, |b| b[OFF_PAGE_BYTES] ^= 0x01);
    match Device::open_snapshot(&bad, 0) {
        Err(SnapshotError::ChecksumMismatch { what: "header", offset, .. }) => {
            assert_eq!(offset, 32);
        }
        other => panic!("expected a header ChecksumMismatch, got {other:?}", other = other.err()),
    }
}

#[test]
fn flipped_checksum_table_byte_is_detected() {
    let dir = TempDir::new("lcrs-corrupt-table");
    let good = write_reference_snapshot(&dir, 3);
    let bad = dir.file("bad.pages");
    mutate(&good, &bad, |b| b[OFF_TABLE + 5] ^= 0x80);
    match Device::open_snapshot(&bad, 0) {
        Err(SnapshotError::ChecksumMismatch { what: "page-checksum table", offset, .. }) => {
            assert_eq!(offset, 24, "reported at the table-checksum header field");
        }
        other => panic!("expected a table ChecksumMismatch, got {other:?}", other = other.err()),
    }
}

#[test]
fn flipped_page_body_byte_reports_page_and_offset() {
    let dir = TempDir::new("lcrs-corrupt-page");
    let good = write_reference_snapshot(&dir, 3);
    let bad = dir.file("bad.pages");
    // 3 pages ⇒ data starts at 40 + 3·8 = 64; corrupt a byte inside page 1.
    let data_offset = 64u64;
    mutate(&good, &bad, |b| b[data_offset as usize + 128 + 17] ^= 0x20);
    match Device::open_snapshot(&bad, 0) {
        Err(SnapshotError::PageChecksum { page, offset, expected, actual }) => {
            assert_eq!(page, 1);
            assert_eq!(offset, data_offset + 128, "offset of the corrupt page's start");
            assert_ne!(expected, actual);
        }
        other => panic!("expected PageChecksum, got {other:?}", other = other.err()),
    }
}

#[test]
fn truncations_at_every_region_are_typed() {
    let dir = TempDir::new("lcrs-corrupt-trunc");
    let good = write_reference_snapshot(&dir, 3);
    let full = std::fs::read(&good).unwrap().len();
    // Cut inside the header, inside the checksum table, inside the pages,
    // and one byte short of complete.
    for (i, keep) in [10usize, 45, 200, full - 1].into_iter().enumerate() {
        let bad = dir.file(&format!("trunc-{i}.pages"));
        mutate(&good, &bad, |b| b.truncate(keep));
        match Device::open_snapshot(&bad, 0) {
            Err(SnapshotError::Truncated { offset, expected, actual }) => {
                assert_eq!(actual, keep as u64, "cut at {keep}");
                assert!(expected > actual, "cut at {keep}");
                assert!(offset <= actual, "cut at {keep}: offset points into the file");
            }
            other => {
                panic!("cut at {keep}: expected Truncated, got {other:?}", other = other.err())
            }
        }
    }
    // Trailing garbage is a length mismatch too (the header is explicit
    // about the exact size).
    let bad = dir.file("overlong.pages");
    mutate(&good, &bad, |b| b.extend_from_slice(&[0u8; 7]));
    assert!(matches!(Device::open_snapshot(&bad, 0), Err(SnapshotError::Truncated { .. })));
}

#[test]
fn empty_and_single_page_snapshots_roundtrip() {
    let dir = TempDir::new("lcrs-corrupt-edges");
    // Empty device: header-only file, reopens with zero pages.
    let empty = write_reference_snapshot(&dir, 0);
    let re = Device::open_snapshot(&empty, 0).unwrap();
    assert_eq!(re.pages_allocated(), 0);
    assert_eq!(re.page_bytes(), 128);
    // One page: the smallest data-carrying snapshot.
    let one = write_reference_snapshot(&dir, 1);
    let re = Device::open_snapshot(&one, 4).unwrap();
    assert_eq!(re.pages_allocated(), 1);
    assert_eq!(re.read_page(PageId(0), |b| (b[0], b[127])), (0, 0xFF));
    // Corruption in a 1-page file still lands on page 0.
    let bad = dir.file("one-bad.pages");
    mutate(&one, &bad, |b| {
        let n = b.len();
        b[n - 1] ^= 0x01;
    });
    assert!(matches!(
        Device::open_snapshot(&bad, 0),
        Err(SnapshotError::PageChecksum { page: 0, .. })
    ));
}

#[test]
fn missing_file_is_an_io_error() {
    let dir = TempDir::new("lcrs-corrupt-missing");
    assert!(matches!(
        Device::open_snapshot(dir.file("does-not-exist.pages"), 0),
        Err(SnapshotError::Io(_))
    ));
}

#[test]
fn metadata_corruption_matrix() {
    let dir = TempDir::new("lcrs-corrupt-meta");
    let dev = Device::new(DeviceConfig::new(1024, 0));
    let pts = points2(Dist2::Uniform, 300, 1 << 18, 3);
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    dev.freeze_to_path(dir.file("hs.pages")).unwrap();
    let mut w = MetaWriter::new();
    hs.save_meta(&mut w);
    let good = w.into_bytes();
    let re_dev = Device::open_snapshot(dir.file("hs.pages"), 0).unwrap();

    // The pristine metadata loads.
    let mut r = MetaReader::from_bytes(good.clone()).unwrap();
    assert!(load_index("hs2d", &re_dev, &mut r).is_ok());

    // Flipped payload byte: envelope checksum.
    let mut flipped = good.clone();
    let mid = 20 + (good.len() - 28) / 2;
    flipped[mid] ^= 0x10;
    assert!(matches!(
        MetaReader::from_bytes(flipped),
        Err(SnapshotError::ChecksumMismatch { what: "metadata envelope", .. })
    ));

    // Truncated metadata.
    assert!(matches!(
        MetaReader::from_bytes(good[..good.len() / 2].to_vec()),
        Err(SnapshotError::Truncated { .. })
    ));

    // Unknown index kind.
    let mut r = MetaReader::from_bytes(good.clone()).unwrap();
    assert!(matches!(
        load_index("no-such-structure", &re_dev, &mut r),
        Err(SnapshotError::Meta { .. })
    ));

    // Kind confusion: hs2d metadata decoded as a kdtree must fail typed
    // (tag mismatch), not panic or mis-load.
    let mut r = MetaReader::from_bytes(good.clone()).unwrap();
    assert!(matches!(load_index("kdtree", &re_dev, &mut r), Err(SnapshotError::Meta { .. })));

    // Cross-wired pages: metadata pointing past a too-small device must be
    // rejected by the page-range validation, not panic later.
    let tiny = Device::new(DeviceConfig::new(1024, 0));
    tiny.alloc_pages(1);
    tiny.freeze_to_path(dir.file("tiny.pages")).unwrap();
    let tiny_re = Device::open_snapshot(dir.file("tiny.pages"), 0).unwrap();
    let mut r = MetaReader::from_bytes(good).unwrap();
    assert!(matches!(load_index("hs2d", &tiny_re, &mut r), Err(SnapshotError::Meta { .. })));
}

#[test]
fn every_snapshot_error_displays_its_offsets() {
    // The Display impls are part of the operator surface: each corruption
    // error must mention where it happened.
    let dir = TempDir::new("lcrs-corrupt-display");
    let good = write_reference_snapshot(&dir, 2);
    let bad = dir.file("bad.pages");
    mutate(&good, &bad, |b| {
        let n = b.len();
        b[n - 3] ^= 0x04;
    });
    let err = match Device::open_snapshot(&bad, 0) {
        Err(e) => e,
        Ok(_) => panic!("corrupt snapshot must not open"),
    };
    let msg = format!("{err}");
    assert!(msg.contains("page 1"), "message {msg:?} must name the page");
    assert!(msg.contains("offset"), "message {msg:?} must name the offset");
    let source: &dyn std::error::Error = &err;
    assert!(source.source().is_none());
}

/// The leveled-state fields a `__live.meta` manifest and a `dynamic`
/// catalog entry both carry.
#[derive(Clone)]
struct LeveledFields {
    cfg: Hs2dConfig,
    cap: usize,
    buffer: Vec<(i64, i64, u64)>,
    dead: HashSet<u64>,
    live: usize,
    total_slots: usize,
}

/// Rewrites that each leave the state correctly checksummed but out of
/// range, so that opening it must fail typed.
const OUT_OF_RANGE: [(&str, fn(&mut LeveledFields)); 6] = [
    ("delta cap 0", |f| f.cap = 0),
    ("live 0 with points in levels", |f| f.live = 0),
    ("live above the slots", |f| f.live = f.total_slots + 1),
    ("slots not the level and buffer lengths", |f| {
        f.total_slots += 1;
        f.live += 1;
    }),
    ("a tombstone naming no level point", |f| {
        f.dead.insert(u64::MAX);
    }),
    ("a buffer point outside the coordinate budget", |f| f.buffer[0].0 = i64::MIN),
];

/// A `__live.meta` manifest, decoded through the shared state codecs so
/// one field can be rewritten under a fresh checksum.
#[derive(Clone)]
struct LiveManifest {
    page_bytes: usize,
    cache_pages: usize,
    fields: LeveledFields,
    levels: Vec<u64>,
}

impl LiveManifest {
    fn read(path: &Path) -> LiveManifest {
        let mut r = MetaReader::open(path).unwrap();
        assert_eq!((r.str().unwrap(), r.u64().unwrap()), ("lcrs-live".to_string(), 1));
        let (page_bytes, cache_pages) = (r.usize().unwrap(), r.usize().unwrap());
        let fields = LeveledFields {
            cfg: Hs2dConfig::load(&mut r).unwrap(),
            cap: r.usize().unwrap(),
            buffer: load_points(&mut r).unwrap(),
            dead: load_tombstones(&mut r).unwrap(),
            live: r.usize().unwrap(),
            total_slots: r.usize().unwrap(),
        };
        let levels = (0..r.seq().unwrap()).map(|_| r.u64().unwrap()).collect();
        r.finish().unwrap();
        LiveManifest { page_bytes, cache_pages, fields, levels }
    }

    fn write(&self, path: &Path) {
        let f = &self.fields;
        let mut w = MetaWriter::new();
        w.str("lcrs-live");
        w.u64(1);
        w.usize(self.page_bytes);
        w.usize(self.cache_pages);
        f.cfg.save(&mut w);
        w.usize(f.cap);
        save_points(&mut w, &f.buffer);
        save_tombstones(&mut w, &f.dead);
        w.usize(f.live);
        w.usize(f.total_slots);
        w.seq(self.levels.len());
        for &seq in &self.levels {
            w.u64(seq);
        }
        w.write_to_path(path).unwrap();
    }
}

/// A `dynamic` catalog entry (kind, then the core's state), decoded the
/// same way.
struct DynamicEntry {
    levels: Vec<(HalfspaceRS2, Arc<Vec<(i64, i64, u64)>>)>,
    fields: LeveledFields,
}

impl DynamicEntry {
    fn read(path: &Path, pages: &Device) -> DynamicEntry {
        let mut r = MetaReader::open(path).unwrap();
        assert_eq!(r.str().unwrap(), "dynamic");
        let cfg = Hs2dConfig::load(&mut r).unwrap();
        let levels = (0..r.seq().unwrap()).map(|_| load_level(pages, &mut r).unwrap()).collect();
        let buffer = load_points(&mut r).unwrap();
        let cap = r.usize().unwrap();
        let dead = load_tombstones(&mut r).unwrap();
        let (live, total_slots) = (r.usize().unwrap(), r.usize().unwrap());
        r.finish().unwrap();
        DynamicEntry { levels, fields: LeveledFields { cfg, cap, buffer, dead, live, total_slots } }
    }

    fn write(&self, path: &Path) {
        let f = &self.fields;
        let mut w = MetaWriter::new();
        w.str("dynamic");
        f.cfg.save(&mut w);
        w.seq(self.levels.len());
        for (structure, points) in &self.levels {
            save_level(&mut w, structure, points);
        }
        save_points(&mut w, &f.buffer);
        w.usize(f.cap);
        save_tombstones(&mut w, &f.dead);
        w.usize(f.live);
        w.usize(f.total_slots);
        w.write_to_path(path).unwrap();
    }
}

/// Points, deletes of every seventh and a partial buffer — a state with
/// levels, tombstones and buffered inserts.
fn leveled_trace(mut apply: impl FnMut(Option<(i64, i64)>, u64)) {
    for i in 0..150u64 {
        apply(Some(((i as i64 * 37) % 401 - 200, (i as i64 * 91) % 607 - 300)), i);
        if i % 7 == 3 {
            apply(None, i / 2);
        }
    }
}

fn expect_meta_error<T>(what: &str, opened: Result<T, SnapshotError>) {
    match opened {
        Err(SnapshotError::Meta { .. }) => {}
        Err(e) => panic!("{what}: expected a metadata error, got {e}"),
        Ok(_) => panic!("{what}: out-of-range state opened"),
    }
}

#[test]
fn out_of_range_live_manifest_is_typed_at_open() {
    let dir = TempDir::new("lcrs-corrupt-live");
    let mut live = LiveIndex::new(DeviceConfig::new(256, 0), Hs2dConfig::default(), Some(16));
    leveled_trace(|p, tag| match p {
        Some((x, y)) => live.insert(x, y, tag).unwrap(),
        None => assert!(live.remove(tag).unwrap()),
    });
    live.save_to_dir(dir.path()).unwrap();
    drop(live);
    let path = dir.path().join(LIVE_MANIFEST);
    let pristine = std::fs::read(&path).unwrap();
    let good = LiveManifest::read(&path);
    let f = &good.fields;
    assert!(!good.levels.is_empty() && !f.buffer.is_empty() && !f.dead.is_empty());
    good.write(&path);
    assert_eq!(std::fs::read(&path).unwrap(), pristine, "the decoder must see every field");
    assert!(LiveIndex::open_dir(dir.path(), 4).is_ok());

    let page_sizes: [(&str, fn(&mut LiveManifest)); 2] =
        [("page size 0", |m| m.page_bytes = 0), ("page size 8", |m| m.page_bytes = 8)];
    for (what, corrupt) in page_sizes {
        let mut bad = good.clone();
        corrupt(&mut bad);
        bad.write(&path);
        expect_meta_error(what, LiveIndex::open_dir(dir.path(), 4));
    }
    for (what, corrupt) in OUT_OF_RANGE {
        let mut bad = good.clone();
        corrupt(&mut bad.fields);
        bad.write(&path);
        expect_meta_error(what, LiveIndex::open_dir(dir.path(), 4));
    }
}

#[test]
fn out_of_range_dynamic_entry_is_typed_at_load() {
    let dir = TempDir::new("lcrs-corrupt-dynamic");
    let dev = Device::new(DeviceConfig::new(256, 0));
    let mut dynamic = DynamicHalfspace2::new(&dev, Hs2dConfig::default());
    leveled_trace(|p, tag| match p {
        Some((x, y)) => dynamic.insert(x, y, tag),
        None => assert!(dynamic.remove(tag)),
    });
    dev.freeze();
    let mut cat = SnapshotCatalog::create(dir.path()).unwrap();
    cat.add("dyn", &dynamic).unwrap();
    let meta = cat.meta_path("dyn");
    let pristine = std::fs::read(&meta).unwrap();
    let pages = Device::open_snapshot(cat.pages_path(&cat.entries()[0]), 0).unwrap();
    let good = DynamicEntry::read(&meta, &pages);
    let f = &good.fields;
    assert!(!good.levels.is_empty() && !f.buffer.is_empty() && !f.dead.is_empty());
    good.write(&meta);
    assert_eq!(std::fs::read(&meta).unwrap(), pristine, "the decoder must see every field");
    assert!(cat.load("dyn", 0).is_ok());

    for (what, corrupt) in OUT_OF_RANGE {
        std::fs::write(&meta, &pristine).unwrap();
        let mut bad = DynamicEntry::read(&meta, &pages);
        corrupt(&mut bad.fields);
        bad.write(&meta);
        expect_meta_error(what, cat.load("dyn", 0));
    }
}

/// Write a catalog metadata file of `kind` in the lifted layout: the 3D
/// structure, then the id map, the tail and the point count.
fn write_lifted_meta(
    path: &Path,
    kind: &str,
    inner: &dyn RangeIndex,
    ids: &[u32],
    tail: &VecFile<(i64, i64, u32)>,
    n: usize,
) {
    let mut w = MetaWriter::new();
    w.str(kind);
    inner.save_meta(&mut w);
    w.seq(ids.len());
    for &id in ids {
        w.u32(id);
    }
    tail.save(&mut w);
    w.usize(n);
    w.write_to_path(path).unwrap();
}

/// Catalog entries in the layouts the lifted `HalfspaceRS3` had before it
/// became the one `LiftedIndex`: `knn` as the 3D structure's metadata
/// followed by the point count, and the `lift-hs3d` kind; and entries of
/// the retired `lift-hybrid`, `lift-shallow` and `lift-scan3` kinds, each
/// in the layout it was written in. No reader takes any of them; each
/// must fail to load with a typed error. So must a `knn` entry whose id
/// map is shorter than its 3D structure (even with the tail making up the
/// point count), repeats an id, or names an id past the point count.
#[test]
fn retired_lifted_layouts_are_typed_at_load() {
    let dir = TempDir::new("lcrs-corrupt-lifted");
    let pts = points2(Dist2::Uniform, 300, 1000, 9);
    let dev = Device::new(DeviceConfig::new(512, 0));
    let knn = LiftedIndex::build(&dev, &pts);
    let planes: Vec<Plane3> =
        pts.iter().map(|&(a, b)| Plane3::new(-2 * a, -2 * b, a * a + b * b)).collect();
    let old_hs = HalfspaceRS3::build_dual(&dev, &planes, Hs3dConfig::default());
    let one_point_tail = VecFile::from_slice(&dev, &[(5000i64, 0i64, 299u32)]);
    let empty_tail = VecFile::from_slice(&dev, &[]);
    let lifted: Vec<(i64, i64, i64)> = pts.iter().map(|&(a, b)| (a, b, a * a + b * b)).collect();
    let hybrid = HybridTree3::build(&dev, &lifted, HybridConfig::default());
    let shallow = ShallowTree3::build(&dev, &lifted, ShallowConfig::default());
    let scan3 = ExternalScan3::build(&dev, &lifted);
    dev.freeze();
    let mut cat = SnapshotCatalog::create(dir.path()).unwrap();
    cat.add("lifted", &knn).unwrap();
    assert!(cat.load("lifted", 0).is_ok());
    let meta = cat.meta_path("lifted");

    // The old `knn` layout: no id map and no tail after the 3D structure.
    let mut w = MetaWriter::new();
    w.str("knn");
    old_hs.save(&mut w);
    w.usize(pts.len());
    w.write_to_path(&meta).unwrap();
    expect_meta_error("knn in the old layout", cat.load("lifted", 0));

    let all: Vec<u32> = (0..300).collect();
    write_lifted_meta(&meta, "knn", &old_hs, &all[..299], &one_point_tail, 300);
    expect_meta_error("an id map one short", cat.load("lifted", 0));

    // Id maps of the right length whose first id runs past n or repeats
    // the second. The index would answer with them, and a sharded gather
    // would index its global-id table with them.
    for (what, first) in [("an id past n", 300u32), ("a repeated id", 1)] {
        let mut ids = all.clone();
        ids[0] = first;
        write_lifted_meta(&meta, "knn", &old_hs, &ids, &empty_tail, 300);
        expect_meta_error(what, cat.load("lifted", 0));
    }

    // The retired kinds in both the manifest and the metadata, so the
    // load reaches the kind dispatch.
    let pages = cat.entries()[0].pages.clone();
    let retired: [(&str, &dyn RangeIndex); 4] = [
        ("lift-hs3d", &old_hs),
        ("lift-hybrid", &hybrid),
        ("lift-shallow", &shallow),
        ("lift-scan3", &scan3),
    ];
    for (kind, inner) in retired {
        write_lifted_meta(&meta, kind, inner, &all, &empty_tail, 300);
        let mut w = MetaWriter::new();
        w.str("lcrs-catalog");
        w.u64(2);
        w.seq(1);
        w.str("lifted");
        w.str(kind);
        w.str(&pages);
        w.write_to_path(&dir.path().join("__catalog.meta")).unwrap();
        let reopened = SnapshotCatalog::open(dir.path()).unwrap();
        assert_eq!(reopened.entries()[0].kind, kind);
        expect_meta_error(kind, reopened.load("lifted", 0));
    }
}

/// A `__shards.meta` manifest, decoded through the partitions' own codecs
/// so an id map can be rewritten under a fresh checksum.
#[derive(Clone)]
struct ShardManifest {
    shards: usize,
    p2: Partition2,
    p3: Partition3,
    pts2: Vec<Vec<(i64, i64)>>,
}

impl ShardManifest {
    fn read(path: &Path) -> ShardManifest {
        let mut r = MetaReader::open(path).unwrap();
        assert_eq!((r.str().unwrap(), r.u64().unwrap()), ("lcrs-shards".to_string(), 1));
        let shards = r.usize().unwrap();
        let p2 = Partition2::load(&mut r).unwrap();
        let p3 = Partition3::load(&mut r).unwrap();
        let pts2 = (0..shards)
            .map(|_| (0..r.seq().unwrap()).map(|_| (r.i64().unwrap(), r.i64().unwrap())).collect())
            .collect();
        r.finish().unwrap();
        ShardManifest { shards, p2, p3, pts2 }
    }

    fn write(&self, path: &Path) {
        let mut w = MetaWriter::new();
        w.str("lcrs-shards");
        w.u64(1);
        w.usize(self.shards);
        self.p2.save(&mut w);
        self.p3.save(&mut w);
        for pts in &self.pts2 {
            w.seq(pts.len());
            for &(x, y) in pts {
                w.i64(x);
                w.i64(y);
            }
        }
        w.write_to_path(path).unwrap();
    }
}

/// Shard id maps that are not a disjoint cover of `0..n` — an id repeated
/// across two shards, or an id equal to n — in the 2D or the 3D partition
/// of a correctly checksummed manifest must fail the reopen with a typed
/// error: the gather would answer with a duplicated or foreign id, or set
/// a bit past the end of its id bitmap.
#[test]
fn shard_manifest_id_maps_must_cover_every_point_once() {
    let dir = TempDir::new("lcrs-corrupt-shards");
    let pts2 = points2(Dist2::Uniform, 300, 1000, 9);
    let pts3 = points3(Dist3::Uniform, 200, 1 << 12, 10);
    let cfg = ShardConfig { shards: 4, device: DeviceConfig::new(256, 0) };
    let sharded = ShardedIndexSet::build(&pts2, &pts3, &cfg, |h2, h3, p2, p3| {
        let mut set = IndexSet::new();
        set.add(Box::new(ExternalScan::build(h2, p2)));
        set.add(Box::new(ExternalScan3::build(h3, p3)));
        set
    });
    sharded.freeze();
    sharded.save_to_catalog(dir.path()).unwrap();
    let path = dir.path().join(SHARD_MANIFEST);
    let pristine = std::fs::read(&path).unwrap();
    let good = ShardManifest::read(&path);
    good.write(&path);
    assert_eq!(std::fs::read(&path).unwrap(), pristine, "the decoder must see every field");
    assert!(ShardedIndexSet::from_catalog(dir.path(), 0).is_ok());

    let corruptions: [(&str, fn(&mut Vec<Vec<u32>>)); 2] = [
        ("an id repeated across two shards", |g| g[1][0] = g[0][0]),
        ("an id equal to n", |g| g[2][0] = g.iter().map(Vec::len).sum::<usize>() as u32),
    ];
    for (what, corrupt) in corruptions {
        let mut bad = good.clone();
        corrupt(&mut bad.p2.groups);
        bad.write(&path);
        expect_meta_error(&format!("2D: {what}"), ShardedIndexSet::from_catalog(dir.path(), 0));
        let mut bad = good.clone();
        corrupt(&mut bad.p3.groups);
        bad.write(&path);
        expect_meta_error(&format!("3D: {what}"), ShardedIndexSet::from_catalog(dir.path(), 0));
    }
}

/// An S=2 sharded catalog under `dir` over the given points, each shard
/// holding the structures `build_shard` makes.
fn save_two_shards(
    dir: &Path,
    pts2: &[(i64, i64)],
    pts3: &[(i64, i64, i64)],
    build_shard: impl Fn(&DeviceHandle, &DeviceHandle, &[(i64, i64)], &[(i64, i64, i64)]) -> IndexSet,
) -> ShardedIndexSet {
    let cfg = ShardConfig { shards: 2, device: DeviceConfig::new(256, 0) };
    let sharded = ShardedIndexSet::build(pts2, pts3, &cfg, build_shard);
    sharded.freeze();
    sharded.save_to_catalog(dir).unwrap();
    sharded
}

fn scans(
    h2: &DeviceHandle,
    h3: &DeviceHandle,
    p2: &[(i64, i64)],
    p3: &[(i64, i64, i64)],
) -> IndexSet {
    let mut set = IndexSet::new();
    set.add(Box::new(ExternalScan::build(h2, p2)));
    set.add(Box::new(ExternalScan3::build(h3, p3)));
    set
}

/// Swapping `shard0/` and `shard1/` of a catalog over 150 + 151 2D points
/// leaves every file intact and checksummed, but each shard's structures
/// then hold one point more or fewer than the manifest's id map for that
/// shard: a reopen must fail typed rather than answer with the wrong ids.
#[test]
fn swapped_shard_catalogs_are_typed_at_open() {
    let dir = TempDir::new("lcrs-corrupt-swapped-shards");
    let pts2 = points2(Dist2::Uniform, 301, 1000, 11);
    let pts3 = points3(Dist3::Uniform, 200, 1 << 12, 12);
    let sharded = save_two_shards(dir.path(), &pts2, &pts3, scans);
    let (a, b) = (sharded.shard_sizes(0).0, sharded.shard_sizes(1).0);
    assert_eq!((a.min(b), a.max(b)), (150, 151), "the swap must change the 2D sizes");
    assert!(ShardedIndexSet::from_catalog(dir.path(), 0).is_ok());

    let (s0, s1, tmp) = (dir.file("shard0"), dir.file("shard1"), dir.file("swap"));
    std::fs::rename(&s0, &tmp).unwrap();
    std::fs::rename(&s1, &s0).unwrap();
    std::fs::rename(&tmp, &s1).unwrap();
    expect_meta_error("swapped shards", ShardedIndexSet::from_catalog(dir.path(), 0));
}

/// A shard directory copied from a sharded set of other structure kinds
/// breaks the uniform-kinds contract every query route relies on: a reopen
/// must fail typed, not panic.
#[test]
fn shard_catalog_of_other_kinds_is_typed_at_open() {
    let dir = TempDir::new("lcrs-corrupt-shard-kinds");
    let other = TempDir::new("lcrs-corrupt-shard-kinds-other");
    let pts2 = points2(Dist2::Uniform, 301, 1000, 13);
    let pts3 = points3(Dist3::Uniform, 200, 1 << 12, 14);
    save_two_shards(dir.path(), &pts2, &pts3, scans);
    save_two_shards(other.path(), &pts2, &pts3, |h2, _, p2, _| {
        let mut set = IndexSet::new();
        set.add(Box::new(HalfspaceRS2::build(h2, p2, Hs2dConfig::default())));
        set
    });
    assert!(ShardedIndexSet::from_catalog(dir.path(), 0).is_ok());

    let shard1 = dir.file("shard1");
    std::fs::remove_dir_all(&shard1).unwrap();
    std::fs::create_dir(&shard1).unwrap();
    for file in std::fs::read_dir(other.file("shard1")).unwrap() {
        let file = file.unwrap();
        std::fs::copy(file.path(), shard1.join(file.file_name())).unwrap();
    }
    expect_meta_error("a shard of other kinds", ShardedIndexSet::from_catalog(dir.path(), 0));
}

/// A catalog's `__planner.calib` holds one (constant, probes) pair per
/// structure and query class behind a magic and version 2. A correctly
/// checksummed file in the headerless version-1 layout, of an unknown
/// version, with a per-class table cut short, or with a constant that is
/// not finite and positive must fail the reopen typed, both of the shard's
/// own catalog and of the sharded catalog around it.
#[test]
fn corrupt_calibration_files_are_typed_at_open() {
    let dir = TempDir::new("lcrs-corrupt-calib");
    let pts2 = points2(Dist2::Uniform, 301, 1000, 15);
    let pts3 = points3(Dist3::Uniform, 200, 1 << 12, 16);
    let probes = [
        Query::Halfplane { m: 1, c: 0, inclusive: true },
        Query::Knn { x: 0, y: 0, k: 3 },
        Query::Halfspace { u: 1, v: 0, w: 0, inclusive: false },
    ];
    save_two_shards(dir.path(), &pts2, &pts3, |h2, h3, p2, p3| {
        let mut set = scans(h2, h3, p2, p3);
        set.calibrate(&probes);
        set
    });
    let shard0 = dir.file("shard0");
    let path = shard0.join(CALIBRATION_FILE);
    let reopen = || IndexSet::from_catalog(&SnapshotCatalog::open(&shard0).unwrap(), 0);
    let fitted: Vec<Calibration> = {
        let set = reopen().unwrap();
        (0..set.len()).map(|slot| set.calibration(slot)).collect()
    };
    assert!(fitted.iter().all(|c| *c != Calibration::default()), "the shard is calibrated");

    // The file with its header (none for version 1), then per structure
    // its name and the table `table` writes.
    let write = |header: Option<u64>, table: &dyn Fn(&mut MetaWriter, &Calibration)| {
        let mut w = MetaWriter::new();
        if let Some(version) = header {
            w.str("lcrs-planner-calib");
            w.u64(version);
        }
        w.seq(fitted.len());
        for (name, calib) in ["scan", "scan3"].iter().zip(&fitted) {
            w.str(name);
            table(&mut w, calib);
        }
        w.write_to_path(&path).unwrap();
    };
    let pairs = |w: &mut MetaWriter, fits: &[ClassFit]| {
        for fit in fits {
            w.u64(fit.constant.to_bits());
            w.u64(fit.probes);
        }
    };
    let pristine = std::fs::read(&path).unwrap();
    write(Some(2), &|w, c| c.save(w));
    assert_eq!(std::fs::read(&path).unwrap(), pristine, "the writer must see every field");

    let expect_typed = |what: &str| {
        expect_meta_error(what, reopen());
        expect_meta_error(what, ShardedIndexSet::from_catalog(dir.path(), 0));
    };
    // Version 1: one reporting and one aggregate pair per structure.
    write(None, &|w, c| pairs(w, &[c.classes[0], c.classes[4]]));
    expect_typed("a headerless version-1 file");
    write(Some(3), &|w, c| c.save(w));
    expect_typed("an unknown version");
    write(Some(2), &|w, c| {
        w.seq(c.classes.len() - 1);
        pairs(w, &c.classes[1..]);
    });
    expect_typed("a table declaring six classes");
    write(Some(2), &|w, c| {
        w.seq(c.classes.len());
        pairs(w, &c.classes[1..]);
    });
    expect_typed("a table that ends after six classes");
    for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
        write(Some(2), &|w, c| {
            let mut c = *c;
            c.classes[3].constant = bad;
            c.save(w);
        });
        expect_typed(&format!("a constant of {bad}"));
    }

    std::fs::write(&path, &pristine).unwrap();
    assert_eq!(reopen().unwrap().calibration(1), fitted[1]);
    assert!(ShardedIndexSet::from_catalog(dir.path(), 0).is_ok());
}

/// A kd-tree, R-tree or 2D partition tree over 1200 points, or a hybrid
/// or shallow tree over 800 3D points, on 256-byte pages whose device is
/// not frozen yet: node fields can still be rewritten with `write_page`,
/// so a corrupted tree still passes every snapshot checksum.
struct TreeUnderTest {
    kind: &'static str,
    dev: Device,
    tree: Box<dyn RangeIndex>,
    /// The metadata `reopen` loads the tree from.
    meta: Vec<u8>,
    /// Node record size, first page and length of the node file.
    node_bytes: usize,
    first: u64,
    nodes: usize,
    /// First page and records of the point file.
    points_first: u64,
    points: usize,
    root: usize,
}

/// `(byte offset, width)` of the node fields the corruptions rewrite
/// (little-endian, as `Record` stores integers).
const KD_LEFT: (usize, usize) = (32, 4);
const KD_RIGHT: (usize, usize) = (36, 4);
const KD_PTS_OFF: (usize, usize) = (40, 8);
const KD_PTS_LEN: (usize, usize) = (48, 8);
const R_START: (usize, usize) = (32, 8);
const R_COUNT: (usize, usize) = (40, 4);
const R_LEAF: (usize, usize) = (44, 1);
/// The partition-tree node fields after the 2D (`ptree`) or 3D (trade-off
/// trees) cell, and the index the trade-off trees store after them.
const P_START: usize = 0;
const P_COUNT: usize = 1;
const P_OFF: usize = 2;
const P_LEN: usize = 3;
const P_INDEX: usize = 4;

impl TreeUnderTest {
    fn build(kind: &'static str) -> TreeUnderTest {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let pts = points2(Dist2::Uniform, 1200, 1 << 16, 17);
        let pts3 = points3(Dist3::Uniform, 800, 1 << 12, 19);
        let (tree, node_bytes): (Box<dyn RangeIndex>, usize) = match kind {
            "kdtree" => (Box::new(ExternalKdTree::build(&dev, &pts)), 72),
            "rtree" => (Box::new(StrRTree::build(&dev, &pts)), 45),
            "ptree" => {
                let pd: Vec<PointD<2>> = pts.iter().map(|&(x, y)| PointD::new([x, y])).collect();
                (Box::new(PartitionTree::<2>::build(&dev, &pd, PTreeConfig::default())), 60)
            }
            "tradeoff-hybrid" => {
                (Box::new(HybridTree3::build(&dev, &pts3, HybridConfig::default())), 80)
            }
            _ => (Box::new(ShallowTree3::build(&dev, &pts3, ShallowConfig::default())), 80),
        };
        // Every metadata layout opens with the node file, then the point
        // file (the partition tree's after its dimension); the R-tree's
        // root index follows.
        let meta = tree_meta(tree.as_ref());
        let mut r = MetaReader::from_bytes(meta.clone()).unwrap();
        if kind == "ptree" {
            r.usize().unwrap();
        }
        let (first, nodes) = (r.u64().unwrap(), r.usize().unwrap());
        let (points_first, points) = (r.u64().unwrap(), r.usize().unwrap());
        let root = if kind == "rtree" { r.usize().unwrap() } else { 0 };
        TreeUnderTest {
            kind,
            dev,
            tree,
            meta,
            node_bytes,
            first,
            nodes,
            points_first,
            points,
            root,
        }
    }

    /// `(byte offset, width)` of partition-tree field `f` (`P_*`): after
    /// the cell's two corners, child start, child count, point offset,
    /// point length and the trade-off trees' attached index.
    fn p(&self, f: usize) -> (usize, usize) {
        let cell = self.node_bytes - if self.kind == "ptree" { 28 } else { 32 };
        [(cell, 8), (cell + 8, 4), (cell + 12, 8), (cell + 20, 8), (cell + 28, 4)][f]
    }

    /// A leaf a query can reach: follow first children from the root.
    fn reachable_p_leaf(&self) -> usize {
        let mut i = 0;
        while self.field(i, self.p(P_COUNT)) != 0 {
            i = self.field(i, self.p(P_START));
        }
        i
    }

    /// The 2D partition tree's metadata with `nodes` records in its node
    /// file and `n` points: the dimension, the node and point files, `n`
    /// and the page count.
    fn ptree_meta(&self, nodes: usize, n: usize) -> Vec<u8> {
        let mut r = MetaReader::from_bytes(self.meta.clone()).unwrap();
        let (d, _, _) = (r.usize().unwrap(), r.u64().unwrap(), r.usize().unwrap());
        let (_, _, _, pages) =
            (r.u64().unwrap(), r.usize().unwrap(), r.usize().unwrap(), r.u64().unwrap());
        let mut w = MetaWriter::new();
        w.usize(d);
        w.u64(self.first);
        w.usize(nodes);
        w.u64(self.points_first);
        w.usize(self.points);
        w.usize(n);
        w.u64(pages);
        w.into_bytes()
    }

    /// Every leaf of a partition tree, in node order.
    fn p_leaves(&self) -> Vec<usize> {
        (0..self.nodes).filter(|&i| self.field(i, self.p(P_COUNT)) == 0).collect()
    }

    fn locate(&self, node: usize) -> (PageId, usize) {
        let per = 256 / self.node_bytes;
        (PageId(self.first + (node / per) as u64), node % per * self.node_bytes)
    }

    fn field(&self, node: usize, (at, width): (usize, usize)) -> usize {
        let (page, off) = self.locate(node);
        let mut v = [0u8; 8];
        self.dev.read_page(page, |b| v[..width].copy_from_slice(&b[off + at..][..width]));
        u64::from_le_bytes(v) as usize
    }

    fn set(&self, node: usize, (at, width): (usize, usize), v: usize) {
        let (page, off) = self.locate(node);
        let bytes = (v as u64).to_le_bytes();
        self.dev.write_page(page, |b| b[off + at..][..width].copy_from_slice(&bytes[..width]));
    }

    /// A leaf a query can reach: follow first children from the root.
    fn reachable_leaf(&self) -> usize {
        let mut i = self.root;
        if self.kind == "kdtree" {
            while self.field(i, KD_LEFT) != 0 {
                i = self.field(i, KD_LEFT);
            }
        } else {
            while self.field(i, R_LEAF) == 0 {
                i = self.field(i, R_START);
            }
        }
        i
    }

    /// Freeze the pages into a snapshot under `dir` and load the tree back
    /// through `load_index` on an 8-page cache.
    fn reopen(&self, dir: &TempDir) -> Result<(Device, Box<dyn RangeIndex>), SnapshotError> {
        let path = dir.file(&format!("{}.pages", self.kind));
        self.dev.freeze_to_path(&path).unwrap();
        let re = Device::open_snapshot(&path, 8)?;
        let mut r = MetaReader::from_bytes(self.meta.clone())?;
        let tree = load_index(self.kind, &re, &mut r)?;
        Ok((re, tree))
    }
}

fn tree_meta(tree: &dyn RangeIndex) -> Vec<u8> {
    let mut w = MetaWriter::new();
    tree.save_meta(&mut w);
    w.into_bytes()
}

/// A kd-tree or R-tree whose node pages are correctly checksummed but
/// describe no tree a query can walk must fail `load_index` with a typed
/// error. Unchecked, a cycle makes a query recurse until the stack
/// overflows (an abort no `catch_unwind` contains), and a child or point
/// range past the end of its file panics in `VecFile`'s bounds asserts.
/// A path deeper than any `build` makes is refused too, before a long
/// enough one could overflow the query's recursion. The load-time walk
/// runs on a fork, so the intact tree reopens with zeroed stats and an
/// empty cache.
#[test]
fn checksummed_tree_cycles_and_ranges_are_typed_at_load() {
    let dir = TempDir::new("lcrs-corrupt-trees");
    let queries: Vec<Query> = [(0, 0), (3, 5000), (-7, -20_000)]
        .map(|(m, c)| Query::Halfplane { m, c, inclusive: true })
        .into();
    for kind in ["kdtree", "rtree"] {
        let t = TreeUnderTest::build(kind);
        let want: Vec<Vec<u64>> = queries.iter().map(|q| t.tree.execute(q)).collect();
        let (re, tree) = t.reopen(&dir).unwrap_or_else(|e| panic!("intact {kind}: {e}"));
        assert_eq!((re.stats(), re.cached_pages()), (IoStats::default(), 0), "{kind}");
        assert_eq!(queries.iter().map(|q| tree.execute(q)).collect::<Vec<_>>(), want, "{kind}");
    }

    // (kind, corruption, what the error must name, the corruption)
    let corruptions: [(&str, &str, &str, fn(&TreeUnderTest)); 13] = [
        ("kdtree", "a self-cycle", "node 1 is reached twice", |t| {
            let l = t.field(0, KD_LEFT);
            t.set(l, KD_LEFT, l);
        }),
        ("kdtree", "a child past the end", "node 0 has children", |t| t.set(0, KD_RIGHT, t.nodes)),
        ("kdtree", "a shared child", "reached twice", |t| t.set(0, KD_RIGHT, t.field(0, KD_LEFT))),
        ("kdtree", "a leaf past the points", "holds points 1200+", |t| {
            t.set(t.reachable_leaf(), KD_PTS_OFF, t.points)
        }),
        ("kdtree", "leaves that miss a point", "hold 1199 points", |t| {
            let leaf = t.reachable_leaf();
            t.set(leaf, KD_PTS_LEN, t.field(leaf, KD_PTS_LEN) - 1)
        }),
        ("kdtree", "a path 65 deep", "deeper than 64", |t| {
            // Nodes 0..=64 chain through their left children; each right
            // child is a distinct leaf among nodes 65..129.
            assert!(t.nodes > 129);
            for i in 0..64 {
                t.set(i, KD_LEFT, i + 1);
                t.set(i, KD_RIGHT, 65 + i);
                t.set(65 + i, KD_LEFT, 0);
                t.set(65 + i, KD_RIGHT, 0);
            }
        }),
        ("rtree", "a self-cycle", "reached twice", |t| {
            t.set(t.root, R_START, t.root);
            t.set(t.root, R_COUNT, 1);
        }),
        ("rtree", "a child past the end", "spans", |t| t.set(t.root, R_START, t.nodes)),
        ("rtree", "a shared child", "reached twice", |t| {
            let c = t.field(t.root, R_START);
            t.set(c + 1, R_START, t.field(c, R_START));
            t.set(c + 1, R_COUNT, t.field(c, R_COUNT));
        }),
        ("rtree", "a leaf past the points", "spans 1200+", |t| {
            t.set(t.reachable_leaf(), R_START, t.points)
        }),
        ("rtree", "leaves that miss a point", "hold 1199 points", |t| {
            let leaf = t.reachable_leaf();
            t.set(leaf, R_COUNT, t.field(leaf, R_COUNT) - 1)
        }),
        ("rtree", "a leaf tag of 2", "is tagged 2", |t| t.set(t.reachable_leaf(), R_LEAF, 2)),
        ("rtree", "a path 67 deep", "deeper than 64", |t| {
            // The root's one child starts a chain of one-child nodes
            // 0..65 that ends in a leaf holding every point.
            assert!(t.root > 65);
            t.set(t.root, R_START, 0);
            t.set(t.root, R_COUNT, 1);
            for i in 0..65 {
                t.set(i, R_LEAF, 0);
                t.set(i, R_START, i + 1);
                t.set(i, R_COUNT, 1);
            }
            t.set(65, R_LEAF, 1);
            t.set(65, R_START, 0);
            t.set(65, R_COUNT, t.points);
        }),
    ];
    for (kind, what, names, corrupt) in corruptions {
        let t = TreeUnderTest::build(kind);
        corrupt(&t);
        match t.reopen(&dir) {
            Err(SnapshotError::Meta { detail, .. }) => {
                assert!(detail.contains(names), "{kind}, {what}: {detail}")
            }
            Err(e) => panic!("{kind}, {what}: expected a metadata error, got {e}"),
            Ok(_) => panic!("{kind}, {what}: the corrupted tree loaded"),
        }
    }
}

/// The partition tree and the two trade-off trees built on its layout get
/// the same treatment: checksummed node pages that no query can walk fail
/// `load_index` with a typed error naming the breach. Unchecked, a root
/// that names itself as a child loads and then aborts the process with a
/// stack overflow at the first query, and a leaf index past the hybrid
/// tree's leaf structures panics there. The walk also checks what each
/// trade-off node carries: a leaf structure (hybrid) or secondary tree
/// (shallow) that exists and holds the node's points. The intact trees
/// reopen cold and answer as they do in memory.
#[test]
fn checksummed_partition_trees_are_typed_at_load() {
    let dir = TempDir::new("lcrs-corrupt-ptrees");
    for kind in ["ptree", "tradeoff-hybrid", "tradeoff-shallow"] {
        let t = TreeUnderTest::build(kind);
        let queries: Vec<Query> = if kind == "ptree" {
            [(0, 0), (3, 5000), (-7, -20_000)]
                .map(|(m, c)| Query::Halfplane { m, c, inclusive: true })
                .into()
        } else {
            [(1, 1, 0), (-2, 3, 500), (0, 0, -100)]
                .map(|(u, v, w)| Query::Halfspace { u, v, w, inclusive: true })
                .into()
        };
        let want: Vec<Vec<u64>> = queries.iter().map(|q| t.tree.execute(q)).collect();
        assert!(want.iter().any(|a| !a.is_empty()), "{kind}");
        let (re, tree) = t.reopen(&dir).unwrap_or_else(|e| panic!("intact {kind}: {e}"));
        assert_eq!((re.stats(), re.cached_pages()), (IoStats::default(), 0), "{kind}");
        assert_eq!(queries.iter().map(|q| tree.execute(q)).collect::<Vec<_>>(), want, "{kind}");
    }

    type Corruption = fn(&mut TreeUnderTest);
    let every_tree: [(&str, &str, Corruption); 6] = [
        ("a self-cycle", "node 0 is reached twice", |t| t.set(0, t.p(P_START), 0)),
        ("a child range past the end", "node 0 has children", |t| t.set(0, t.p(P_START), t.nodes)),
        ("a shared child", "is reached twice", |t| {
            // The root's second child takes its first child's children.
            let c = t.field(0, t.p(P_START));
            assert_ne!(t.field(c, t.p(P_COUNT)), 0);
            t.set(c + 1, t.p(P_START), t.field(c, t.p(P_START)));
            t.set(c + 1, t.p(P_COUNT), t.field(c, t.p(P_COUNT)));
        }),
        ("a point range past the points file", "holds points", |t| {
            t.set(t.reachable_p_leaf(), t.p(P_OFF), t.points)
        }),
        ("leaves that miss a point", "starts at point", |t| {
            let leaf = t.reachable_p_leaf();
            t.set(leaf, t.p(P_LEN), t.field(leaf, t.p(P_LEN)) - 1)
        }),
        ("a last child that misses a point", "the children of node 0 end at point", |t| {
            let last = t.field(0, t.p(P_START)) + t.field(0, t.p(P_COUNT)) - 1;
            t.set(last, t.p(P_LEN), t.field(last, t.p(P_LEN)) - 1)
        }),
    ];
    let mut corruptions: Vec<(&str, &str, &str, Corruption)> = Vec::new();
    for kind in ["ptree", "tradeoff-hybrid", "tradeoff-shallow"] {
        corruptions.extend(every_tree.iter().map(|&(what, names, f)| (kind, what, names, f)));
    }
    let one_tree: [(&str, &str, &str, Corruption); 8] = [
        (
            "ptree",
            "a root range other than 0..n",
            "the root holds points 0+1199, not 0+1200",
            |t| t.set(0, t.p(P_LEN), t.points - 1),
        ),
        ("ptree", "a path 65 deep", "node 64 lies deeper than 64", |t| {
            // Nodes 0..=64 chain through one child each, all holding every
            // point, so only the depth is wrong.
            assert!(t.nodes > 64);
            for i in 0..=64 {
                t.set(i, t.p(P_START), i + 1);
                t.set(i, t.p(P_COUNT), usize::from(i < 64));
                t.set(i, t.p(P_OFF), 0);
                t.set(i, t.p(P_LEN), t.points);
            }
        }),
        ("ptree", "no root node", "1200 points but no root node", |t| {
            t.meta = t.ptree_meta(0, t.points)
        }),
        ("ptree", "a root past the points file", "node 0 holds points 0+1201 of 1200", |t| {
            t.set(0, t.p(P_LEN), t.points + 1);
            t.meta = t.ptree_meta(t.nodes, t.points + 1);
        }),
        ("tradeoff-hybrid", "an index past the end", "names leaf structure 9999 of", |t| {
            t.set(t.reachable_p_leaf(), t.p(P_INDEX), 9999)
        }),
        ("tradeoff-hybrid", "a leaf structure of another length", "its leaf structure", |t| {
            // Point the reachable leaf at the structure of a leaf of
            // another size.
            let leaf = t.reachable_p_leaf();
            let len = t.field(leaf, t.p(P_LEN));
            let other = t.p_leaves().into_iter().find(|&l| t.field(l, t.p(P_LEN)) != len);
            let other = other.expect("leaves of two sizes");
            t.set(leaf, t.p(P_INDEX), t.field(other, t.p(P_INDEX)));
        }),
        ("tradeoff-shallow", "an index past the end", "names secondary 9999 of", |t| {
            t.set(0, t.p(P_INDEX), 9999)
        }),
        (
            "tradeoff-shallow",
            "a secondary of another length",
            "holds 800 points but its secondary",
            |t| {
                // The root takes its first child's secondary.
                let c = t.field(0, t.p(P_START));
                t.set(0, t.p(P_INDEX), t.field(c, t.p(P_INDEX)));
            },
        ),
    ];
    corruptions.extend(one_tree);
    for (kind, what, names, corrupt) in corruptions {
        let mut t = TreeUnderTest::build(kind);
        corrupt(&mut t);
        match t.reopen(&dir) {
            Err(SnapshotError::Meta { detail, .. }) => {
                assert!(detail.contains(names), "{kind}, {what}: {detail}")
            }
            Err(e) => panic!("{kind}, {what}: expected a metadata error, got {e}"),
            Ok(_) => panic!("{kind}, {what}: the corrupted tree loaded"),
        }
    }
}
