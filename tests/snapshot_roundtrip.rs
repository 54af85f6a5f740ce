//! Round-trip differential suite for the persistent snapshot backend
//! (ISSUE 4): every `RangeIndex` structure × two distributions is built,
//! frozen to disk (`Device::freeze_to_path` + `save_meta`), reopened
//! read-only (`Device::open_snapshot` + `load_index`), and run against the
//! same pinned query batch — answers must be bit-identical and IO counts
//! (per query and aggregate) identical to the in-memory frozen original.
//! The chunked executor is re-verified over reloaded indexes at 1 and 4
//! workers, and a cold reopened device must start with zeroed counters
//! until the first query (the IO-accounting bugfix riding along).
//!
//! All files live in self-cleaning temp directories ([`TempDir`] removes
//! them even on panic).

use lcrs::baselines::{ExternalKdTree, ExternalScan, StrRTree};
use lcrs::engine::{load_index, BatchExecutor, LiftedIndex, Query, RangeIndex, SnapshotCatalog};
use lcrs::extmem::{
    Device, DeviceConfig, IoDelta, IoStats, MetaReader, MetaWriter, PageBackend, SnapshotError,
    TempDir,
};
use lcrs::geom::point::PointD;
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs::halfspace::hs3d::{HalfspaceRS3, Hs3dConfig};
use lcrs::halfspace::ptree::{PTreeConfig, Partitioner};
use lcrs::halfspace::tradeoff::{HybridConfig, HybridTree3, ShallowConfig, ShallowTree3};
use lcrs::halfspace::{DynamicHalfspace2, PartitionTree};
use lcrs::workloads::{halfplane_batch, halfspace3_batch, knn_batch, points2, points3, BatchShape};
use lcrs::workloads::{Dist2, Dist3};
use lcrs_bench::pages_files;

const PAGE: usize = 1024;
const CACHE: usize = 128;

fn warm_device() -> Device {
    Device::new(DeviceConfig::new(PAGE, CACHE))
}

fn halfplane_queries(pts: &[(i64, i64)], len: usize, seed: u64) -> Vec<Query> {
    halfplane_batch(pts, BatchShape::ZipfRepeat { distinct: 10, s: 1.1 }, len, 40, seed)
        .into_iter()
        .map(|(m, c)| Query::Halfplane { m, c, inclusive: false })
        .collect()
}

fn halfspace_queries(pts: &[(i64, i64, i64)], len: usize, seed: u64) -> Vec<Query> {
    halfspace3_batch(pts, BatchShape::SortedSweep, len, 30, seed)
        .into_iter()
        .map(|(u, v, w)| Query::Halfspace { u, v, w, inclusive: false })
        .collect()
}

fn knn_queries(pts: &[(i64, i64)], len: usize, seed: u64) -> Vec<Query> {
    knn_batch(pts, BatchShape::SortedSweep, len, 7, seed)
        .into_iter()
        .map(|(x, y, k)| Query::Knn { x, y, k })
        .collect()
}

/// The full round-trip contract for one (structure, batch) pair:
/// serialize, reopen read-only, and demand bit-identical answers and
/// identical IO accounting — per query and aggregate, sequential and
/// parallel at 1 and 4 workers.
fn check_roundtrip(
    dir: &TempDir,
    dev: &Device,
    index: &dyn RangeIndex,
    queries: &[Query],
    label: &str,
) {
    let mem = BatchExecutor::new(index).keep_answers(true).run_batched(queries);

    let pages = dir.file(&format!("{label}.pages"));
    dev.freeze_to_path(&pages).unwrap_or_else(|e| panic!("{label}: freeze_to_path: {e}"));
    let mut w = MetaWriter::new();
    index.save_meta(&mut w);
    let meta = w.into_bytes();

    // Reopen cold: same cache budget, file-backed pages, zeroed counters.
    let re_dev = Device::open_snapshot(&pages, CACHE)
        .unwrap_or_else(|e| panic!("{label}: open_snapshot: {e}"));
    assert_eq!(re_dev.backend(), PageBackend::File, "{label}");
    assert_eq!(
        re_dev.stats(),
        IoStats::default(),
        "{label}: a cold reopened device must start with zeroed counters"
    );
    let mut r = MetaReader::from_bytes(meta).unwrap();
    let re =
        load_index(index.name(), &re_dev, &mut r).unwrap_or_else(|e| panic!("{label}: load: {e}"));
    r.finish().unwrap_or_else(|e| panic!("{label}: trailing metadata: {e}"));
    assert_eq!(re.name(), index.name(), "{label}");
    assert_eq!(
        re_dev.stats(),
        IoStats::default(),
        "{label}: loading metadata must not charge model IOs"
    );

    let rep = BatchExecutor::new(&*re).keep_answers(true).run_batched(queries);
    assert_eq!(
        rep.answers, mem.answers,
        "{label}: reopened answers must be bit-identical to the in-memory original"
    );
    assert_eq!(rep.total, mem.total, "{label}: aggregate IO must be identical");
    assert!(rep.total.reads > 0, "{label}: the batch must actually touch the disk");
    for (a, b) in rep.outcomes.iter().zip(&mem.outcomes) {
        assert_eq!(
            (a.query, a.status, a.reported, a.io),
            (b.query, b.status, b.reported, b.io),
            "{label}: per-query outcome and IO delta must be identical"
        );
    }
    // The query IOs above all landed on the reopened primary scope: the
    // device counters since open equal the batch total exactly.
    assert_eq!(
        re_dev.stats().since(IoStats::default()),
        rep.total,
        "{label}: all reopened IOs are attributed to the opening scope"
    );

    // Chunked execution over the reloaded index: same answers, exact
    // per-chunk attribution, at 1 and 4 workers.
    for workers in [1usize, 4] {
        let par = BatchExecutor::new(&*re).workers(workers).keep_answers(true).run_batched(queries);
        assert_eq!(
            par.answers, mem.answers,
            "{label}/{workers}: parallel answers over the reloaded index"
        );
        let chunk_sum: IoDelta = par.per_worker.iter().map(|w| w.io).sum();
        assert_eq!(chunk_sum, par.total, "{label}/{workers}: chunk deltas sum exactly");
        if workers == 1 {
            assert_eq!(par.total, mem.total, "{label}: one worker costs the sequential batch");
        }
    }
}

#[test]
fn roundtrip_2d_structures_two_distributions() {
    let dir = TempDir::new("lcrs-roundtrip-2d");
    for (di, dist) in [Dist2::Uniform, Dist2::Clustered].into_iter().enumerate() {
        let seed = 41 + di as u64;
        let pts = points2(dist, 800, 1 << 20, seed);
        let queries = halfplane_queries(&pts, 60, seed + 10);
        let pd: Vec<PointD<2>> = pts.iter().map(|&(x, y)| PointD::new([x, y])).collect();

        // One device per structure: freeze_to_path serializes the whole
        // store, and per-structure devices keep the snapshots lean.
        let cases: Vec<(Device, Box<dyn RangeIndex>)> = vec![
            {
                let dev = warm_device();
                let i = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
                (dev, Box::new(i))
            },
            {
                let dev = warm_device();
                let i = ExternalScan::build(&dev, &pts);
                (dev, Box::new(i))
            },
            {
                let dev = warm_device();
                let i = ExternalKdTree::build(&dev, &pts);
                (dev, Box::new(i))
            },
            {
                let dev = warm_device();
                let i = StrRTree::build(&dev, &pts);
                (dev, Box::new(i))
            },
            {
                let dev = warm_device();
                let i = PartitionTree::<2>::build(&dev, &pd, PTreeConfig::default());
                (dev, Box::new(i))
            },
        ];
        for (dev, index) in &cases {
            let label = format!("{}-{dist:?}", index.name());
            check_roundtrip(&dir, dev, &**index, &queries, &label);
        }
    }
}

#[test]
fn roundtrip_3d_structures_two_distributions() {
    let dir = TempDir::new("lcrs-roundtrip-3d");
    for (di, dist) in [Dist3::Uniform, Dist3::Slab].into_iter().enumerate() {
        let seed = 61 + di as u64;
        let pts = points3(dist, 400, 1 << 16, seed);
        let queries = halfspace_queries(&pts, 50, seed + 10);
        let cases: Vec<(Device, Box<dyn RangeIndex>)> = vec![
            {
                let dev = warm_device();
                let i = HalfspaceRS3::build(&dev, &pts, Hs3dConfig::default());
                (dev, Box::new(i))
            },
            {
                let dev = warm_device();
                let i = HybridTree3::build(&dev, &pts, HybridConfig::default());
                (dev, Box::new(i))
            },
            {
                let dev = warm_device();
                let i = ShallowTree3::build(&dev, &pts, ShallowConfig::default());
                (dev, Box::new(i))
            },
        ];
        for (dev, index) in &cases {
            let label = format!("{}-{dist:?}", index.name());
            check_roundtrip(&dir, dev, &**index, &queries, &label);
        }
    }
}

#[test]
fn roundtrip_knn_and_dynamic_two_distributions() {
    let dir = TempDir::new("lcrs-roundtrip-kd");
    for (di, dist) in [Dist2::Uniform, Dist2::Clustered].into_iter().enumerate() {
        let seed = 81 + di as u64;

        // k-NN (coordinates inside the lift budget).
        let kpts = points2(dist, 500, 1000, seed);
        let kdev = warm_device();
        let knn = LiftedIndex::build(&kdev, &kpts);
        let kqueries = knn_queries(&kpts, 40, seed + 10);
        check_roundtrip(&dir, &kdev, &knn, &kqueries, &format!("knn-{dist:?}"));

        // Dynamic: build through the mutable path (inserts + some
        // removals so parts, buffer, and tombstones all have content),
        // then persist the frozen result.
        let pts = points2(dist, 700, 1 << 20, seed + 1);
        let ddev = warm_device();
        let mut dynamic = DynamicHalfspace2::new(&ddev, Hs2dConfig::default());
        for (i, &(x, y)) in pts.iter().enumerate() {
            dynamic.insert(x, y, i as u64);
        }
        for tag in (0..40u64).map(|t| t * 7) {
            assert!(dynamic.remove(tag));
        }
        let dqueries = halfplane_queries(&pts, 50, seed + 11);
        check_roundtrip(&dir, &ddev, &dynamic, &dqueries, &format!("dynamic-{dist:?}"));
    }
}

#[test]
fn catalog_persists_and_reloads_a_batch_executors_worth() {
    let dir = TempDir::new("lcrs-catalog");
    let pts = points2(Dist2::Uniform, 700, 1 << 20, 5);
    let queries = halfplane_queries(&pts, 50, 6);

    let hs_dev = warm_device();
    let hs = HalfspaceRS2::build(&hs_dev, &pts, Hs2dConfig::default());
    let kd_dev = warm_device();
    let kd = ExternalKdTree::build(&kd_dev, &pts);
    let sc_dev = warm_device();
    let sc = ExternalScan::build(&sc_dev, &pts);

    let mut cat = SnapshotCatalog::create(dir.file("cat")).unwrap();
    // Freezing is the owner's decision: an unfrozen device is refused.
    assert!(matches!(cat.add("hs", &hs), Err(SnapshotError::NotFrozen)));
    hs_dev.freeze();
    kd_dev.freeze();
    sc_dev.freeze();
    cat.add("hs", &hs).unwrap();
    cat.add("kd", &kd).unwrap();
    cat.add("sc", &sc).unwrap();
    assert!(matches!(cat.add("hs", &kd), Err(SnapshotError::DuplicateEntry { .. })));
    assert!(matches!(cat.add("bad/label", &kd), Err(SnapshotError::InvalidLabel { .. })));
    assert!(matches!(cat.add("", &kd), Err(SnapshotError::InvalidLabel { .. })));
    // The "__" prefix is reserved for engine-internal files sharing the
    // directory: a colliding entry must fail typed for every internal
    // file the engine currently keeps (and any added later), replacing
    // the per-name blocklist that used to grow with each new file.
    for internal in ["__catalog", "__shards", "__planner", "__live", "__anything-future"] {
        assert!(
            matches!(
                cat.add(internal, &kd),
                Err(SnapshotError::ReservedLabel { prefix: lcrs_engine::RESERVED_PREFIX, .. })
            ),
            "label {internal:?} must be rejected as reserved"
        );
    }
    // The old single-underscore and plain names are ordinary labels now.
    cat.add("catalog", &kd).unwrap();
    cat.remove("catalog").unwrap();
    assert!(matches!(cat.remove("catalog"), Err(SnapshotError::NoSuchEntry { .. })));

    // Reopen the whole directory in "another process".
    let reopened = SnapshotCatalog::open(dir.file("cat")).unwrap();
    assert_eq!(reopened.entries().len(), 3);
    assert_eq!(
        reopened.entries().iter().map(|e| (e.label.as_str(), e.kind.as_str())).collect::<Vec<_>>(),
        vec![("hs", "hs2d"), ("kd", "kdtree"), ("sc", "scan")]
    );
    assert!(matches!(reopened.load("nope", CACHE), Err(SnapshotError::NoSuchEntry { .. })));

    let originals: Vec<&dyn RangeIndex> = vec![&hs, &kd, &sc];
    let loaded = reopened.load_all(CACHE).unwrap();
    assert_eq!(loaded.len(), 3);
    for (orig, re) in originals.iter().zip(&loaded) {
        assert_eq!(orig.name(), re.name());
        assert_reloaded_identical(*orig, &**re, &queries, orig.name());
    }
}

/// `re`, reloaded from a catalog, answers `queries` exactly like the
/// in-memory `orig`: same answers, same aggregate and per-query IO.
fn assert_reloaded_identical(
    orig: &dyn RangeIndex,
    re: &dyn RangeIndex,
    queries: &[Query],
    tag: &str,
) {
    let mem = BatchExecutor::new(orig).keep_answers(true).run_batched(queries);
    let rep = BatchExecutor::new(re).keep_answers(true).run_batched(queries);
    assert_eq!(rep.answers, mem.answers, "{tag}: answers");
    assert_eq!(rep.total, mem.total, "{tag}: aggregate IO");
    for (a, b) in rep.outcomes.iter().zip(&mem.outcomes) {
        assert_eq!((a.query, a.io), (b.query, b.io), "{tag}: per-query IO");
    }
}

#[test]
fn snapshots_survive_indexes_sharing_one_device() {
    // Two structures on one device: the catalog writes that device's
    // pages once, both entries read the one file, and both reload
    // correctly — alone, or together on one opened store with a scope
    // each.
    let dir = TempDir::new("lcrs-catalog-shared");
    let pts = points2(Dist2::Clustered, 500, 1 << 18, 7);
    let dev = warm_device();
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    let sc = ExternalScan::build(&dev, &pts);
    dev.freeze();
    let mut cat = SnapshotCatalog::create(dir.file("cat")).unwrap();
    cat.add("hs", &hs).unwrap();
    cat.add("sc", &sc).unwrap();
    assert_eq!(pages_files(&dir.file("cat")), ["hs.pages"], "one pages file per store");
    let queries = halfplane_queries(&pts, 30, 8);
    let cat = SnapshotCatalog::open(dir.file("cat")).unwrap();
    assert!(cat.entries().iter().all(|e| e.pages == "hs.pages"));
    for (orig, label) in [(&hs as &dyn RangeIndex, "hs"), (&sc, "sc")] {
        let re = cat.load(label, CACHE).unwrap();
        assert_reloaded_identical(orig, &*re, &queries, label);
    }

    // load_all opens the shared file once: both entries read one store,
    // each through its own cold scope.
    let loaded = cat.load_all(CACHE).unwrap();
    let (re_hs, re_sc) = (&loaded[0], &loaded[1]);
    assert!(re_hs.device().same_store(re_sc.device()), "the shared file is opened once");
    for q in &queries {
        re_hs.execute(q);
    }
    assert!(re_hs.device().stats().reads > 0 && re_hs.device().cached_pages() > 0);
    assert_eq!(re_sc.device().stats(), IoStats::default(), "a sibling's queries stay off sc");
    assert_eq!(re_sc.device().cached_pages(), 0, "a sibling's pages never warm sc's cache");
    for (orig, re, label) in [(&hs as &dyn RangeIndex, re_hs, "hs"), (&sc, re_sc, "sc")] {
        assert_reloaded_identical(orig, &**re, &queries, &format!("{label} via load_all"));
    }
}

#[test]
fn shared_pages_outlive_their_writer_and_are_never_overwritten() {
    let dir = TempDir::new("lcrs-catalog-shared-remove");
    let cat_dir = dir.file("cat");
    let pts = points2(Dist2::Uniform, 500, 1 << 18, 11);
    let queries = halfplane_queries(&pts, 30, 12);
    let dev = warm_device();
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    let sc = ExternalScan::build(&dev, &pts);
    dev.freeze();
    let other = warm_device();
    let kd = ExternalKdTree::build(&other, &pts);
    other.freeze();

    let mut cat = SnapshotCatalog::create(&cat_dir).unwrap();
    // A store whose only reader was removed is written afresh when an
    // index on it is added again.
    cat.add("x", &hs).unwrap();
    cat.remove("x").unwrap();
    assert!(pages_files(&cat_dir).is_empty());
    cat.add("a", &hs).unwrap();
    cat.add("b", &sc).unwrap();
    assert_eq!(pages_files(&cat_dir), ["a.pages"]);

    // Removing the entry that wrote the shared file keeps the file for
    // the entry still reading it.
    cat.remove("a").unwrap();
    assert!(!cat_dir.join("a.meta").exists(), "the removed entry's metadata goes");
    assert_eq!(pages_files(&cat_dir), ["a.pages"], "b still reads a.pages");
    assert_reloaded_identical(&sc, &*cat.load("b", CACHE).unwrap(), &queries, "b without a");

    // Re-adding the removed label from another store must not overwrite
    // the file b reads — on the catalog that wrote it, and after a reopen,
    // where the manifest alone says which files are read.
    cat.add("a", &kd).unwrap();
    assert_eq!(pages_files(&cat_dir), ["a.1.pages", "a.pages"]);
    let mut cat = SnapshotCatalog::open(&cat_dir).unwrap();
    assert_eq!(
        cat.entries().iter().map(|e| (e.label.as_str(), e.pages.as_str())).collect::<Vec<_>>(),
        [("b", "a.pages"), ("a", "a.1.pages")]
    );
    assert_reloaded_identical(&sc, &*cat.load("b", CACHE).unwrap(), &queries, "b, a re-added");
    assert_reloaded_identical(&kd, &*cat.load("a", CACHE).unwrap(), &queries, "re-added a");
    cat.remove("a").unwrap();
    assert_eq!(pages_files(&cat_dir), ["a.pages"], "an unread file is deleted");
    cat.add("a", &kd).unwrap();
    assert_eq!(pages_files(&cat_dir), ["a.1.pages", "a.pages"]);
    assert_reloaded_identical(&sc, &*cat.load("b", CACHE).unwrap(), &queries, "b, reopened");

    // Removing the last entry reading a file deletes it.
    cat.remove("b").unwrap();
    assert_eq!(pages_files(&cat_dir), ["a.1.pages"]);
    let cat = SnapshotCatalog::open(&cat_dir).unwrap();
    assert_reloaded_identical(&kd, &*cat.load("a", CACHE).unwrap(), &queries, "a alone");
}

#[test]
fn old_or_malformed_manifests_are_rejected_typed() {
    let dir = TempDir::new("lcrs-catalog-bad-manifest");
    let open_err = |w: MetaWriter| -> String {
        w.write_to_path(&dir.file("__catalog.meta")).unwrap();
        match SnapshotCatalog::open(dir.path()) {
            Err(SnapshotError::Meta { detail, .. }) => detail,
            Err(e) => format!("{e:?}"),
            Ok(_) => panic!("a bad manifest must not open"),
        }
    };

    // The layout before the magic+version header: a bare sequence of
    // (label, kind) pairs, each entry reading `<label>.pages`.
    for entries in [vec![], vec![("hs", "hs2d"), ("sc", "scan")]] {
        let mut w = MetaWriter::new();
        w.seq(entries.len());
        for (label, kind) in &entries {
            w.str(label);
            w.str(kind);
        }
        let err = open_err(w);
        assert!(err.contains("no magic header"), "pre-versioned manifest: {err}");
    }

    // Current layout, one bad field each: a future version, a pages
    // reference out of the directory or onto an internal file, an invalid
    // label, a duplicate label.
    let v2 = |version: u64, entries: &[(&str, &str)]| {
        let mut w = MetaWriter::new();
        w.str("lcrs-catalog");
        w.u64(version);
        w.seq(entries.len());
        for &(label, pages) in entries {
            w.str(label);
            w.str("hs2d");
            w.str(pages);
        }
        w
    };
    let cases: [(MetaWriter, &str); 6] = [
        (v2(3, &[]), "version 3"),
        (v2(2, &[("hs", "../hs.pages")]), "not a pages file name"),
        (v2(2, &[("hs", "__catalog.meta")]), "not a pages file name"),
        (v2(2, &[("hs", "hs.0.pages")]), "not a pages file name"),
        (v2(2, &[("a/b", "hs.pages")]), "InvalidLabel"),
        (v2(2, &[("hs", "hs.pages"), ("hs", "hs.pages")]), "DuplicateEntry"),
    ];
    for (w, want) in cases {
        let err = open_err(w);
        assert!(err.contains(want), "expected {want:?}, got {err}");
    }
    // The same writer with well-formed fields opens, so each case above
    // fails on its one bad field.
    v2(2, &[("hs", "hs.pages"), ("sc", "hs.pages"), ("kd", "kd.1.pages")])
        .write_to_path(&dir.file("__catalog.meta"))
        .unwrap();
    assert_eq!(SnapshotCatalog::open(dir.path()).unwrap().entries().len(), 3);
}

#[test]
fn reloaded_index_forks_stay_cold_and_independent() {
    // fork_reader on a file-backed index behaves exactly like on a memory
    // one: fresh scope, zeroed stats, no leakage into the primary.
    let dir = TempDir::new("lcrs-roundtrip-fork");
    let pts = points2(Dist2::Uniform, 400, 1 << 18, 9);
    let dev = warm_device();
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    dev.freeze_to_path(dir.file("hs.pages")).unwrap();
    let mut w = MetaWriter::new();
    hs.save_meta(&mut w);
    let re_dev = Device::open_snapshot(dir.file("hs.pages"), CACHE).unwrap();
    let mut r = MetaReader::from_bytes(w.into_bytes()).unwrap();
    let re = load_index("hs2d", &re_dev, &mut r).unwrap();
    let fork = re.fork_reader();
    assert_eq!(fork.device().stats(), IoStats::default());
    let queries = halfplane_queries(&pts, 10, 10);
    for q in &queries {
        fork.execute(q);
    }
    assert!(fork.device().stats().reads > 0);
    assert_eq!(
        re.device().stats(),
        IoStats::default(),
        "fork IOs must not land on the reloaded primary scope"
    );
}

/// The bytes the partition-tree family writes: the 2D partition tree
/// (kd and ham-sandwich), the hybrid tree and the shallow tree, each on a
/// fresh device at two page sizes over fixed seeded points, added to a
/// catalog. The constants are (length, FNV-1a) of each entry's `.pages`
/// and `.meta` as older builds wrote them, so a change to the node layout,
/// the build order of the attached structures or the metadata fails here.
#[test]
fn partition_tree_family_bytes_are_pinned() {
    let fingerprint = |path: std::path::PathBuf| {
        let bytes = std::fs::read(&path).unwrap();
        (bytes.len(), lcrs::extmem::snapshot::fnv1a64(&bytes))
    };
    let pts2: Vec<PointD<2>> = points2(Dist2::Clustered, 1500, 1 << 16, 29)
        .into_iter()
        .map(|(x, y)| PointD::new([x, y]))
        .collect();
    let pts3 = points3(Dist3::Uniform, 700, 1 << 12, 31);
    let dir = TempDir::new("lcrs-ptree-bytes");
    let mut cat = SnapshotCatalog::create(dir.path()).unwrap();
    let mut got = Vec::new();
    for page in [256usize, 1024] {
        for name in ["kd", "ham", "hybrid", "shallow"] {
            let dev = Device::new(DeviceConfig::new(page, 0));
            let ham = PTreeConfig { partitioner: Partitioner::HamSandwich, ..Default::default() };
            let index: Box<dyn RangeIndex> = match name {
                "kd" => Box::new(PartitionTree::<2>::build(&dev, &pts2, PTreeConfig::default())),
                "ham" => Box::new(PartitionTree::<2>::build(&dev, &pts2, ham)),
                "hybrid" => Box::new(HybridTree3::build(&dev, &pts3, HybridConfig::default())),
                _ => Box::new(ShallowTree3::build(&dev, &pts3, ShallowConfig::default())),
            };
            dev.freeze();
            let label = format!("{name}-{page}");
            cat.add(&label, &*index).unwrap();
            got.push((
                label.clone(),
                fingerprint(dir.file(&format!("{label}.pages"))),
                fingerprint(dir.file(&format!("{label}.meta"))),
            ));
        }
    }
    let want: [(&str, (usize, u64), (usize, u64)); 8] = [
        ("kd-256", (55480, 12078289966157227352), (105, 11154826345529561162)),
        ("ham-256", (55744, 17929309991359313674), (105, 2244038402368986776)),
        ("hybrid-256", (86104, 11165141237821301759), (9907, 12917416229515599818)),
        ("shallow-256", (302584, 1641599343281498629), (5381, 12946972454251669071)),
        ("kd-1024", (36160, 9014885704854893665), (105, 2938046693170378579)),
        ("ham-1024", (36160, 4194629346103028494), (105, 839141100484710940)),
        ("hybrid-1024", (204376, 7434132931289626780), (2467, 736308047960700515)),
        ("shallow-1024", (87760, 10427054646360438628), (773, 5247272600475813896)),
    ];
    let want: Vec<_> = want.iter().map(|&(l, p, m)| (l.to_string(), p, m)).collect();
    assert_eq!(got, want);
}
