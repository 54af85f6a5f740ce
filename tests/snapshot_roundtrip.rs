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
use lcrs::engine::{load_index, BatchExecutor, Query, RangeIndex, SnapshotCatalog};
use lcrs::extmem::{
    Device, DeviceConfig, IoDelta, IoStats, MetaReader, MetaWriter, PageBackend, ReopenBackend,
    SnapshotError, TempDir,
};
use lcrs::geom::point::PointD;
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs::halfspace::hs3d::{HalfspaceRS3, Hs3dConfig};
use lcrs::halfspace::ptree::PTreeConfig;
use lcrs::halfspace::tradeoff::{HybridConfig, HybridTree3, ShallowConfig, ShallowTree3};
use lcrs::halfspace::{DynamicHalfspace2, KnnStructure, PartitionTree};
use lcrs::workloads::{halfplane_batch, halfspace3_batch, knn_batch, points2, points3, BatchShape};
use lcrs::workloads::{Dist2, Dist3};

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
    let mut r = MetaReader::from_bytes(meta.clone()).unwrap();
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

    // Reopen a third time through the zero-copy mapping (DESIGN.md §13):
    // the mmap backend shares the pread backend's validate-once open path,
    // and after that a frozen read is a pointer offset — answers, per-query
    // outcomes, and model read-IO totals must be bit-identical to both the
    // in-memory original and the pread reopen, sequential and parallel.
    let mm_dev = Device::open_snapshot_as(&pages, CACHE, ReopenBackend::Mmap)
        .unwrap_or_else(|e| panic!("{label}: open_snapshot_as(mmap): {e}"));
    #[cfg(unix)]
    assert_eq!(mm_dev.backend(), PageBackend::Mmap, "{label}");
    assert_eq!(mm_dev.stats(), IoStats::default(), "{label}: cold mmap reopen starts zeroed");
    let mut r = MetaReader::from_bytes(meta).unwrap();
    let mm = load_index(index.name(), &mm_dev, &mut r)
        .unwrap_or_else(|e| panic!("{label}: mmap load: {e}"));
    r.finish().unwrap_or_else(|e| panic!("{label}: trailing metadata (mmap): {e}"));
    let mrep = BatchExecutor::new(&*mm).keep_answers(true).run_batched(queries);
    assert_eq!(mrep.answers, mem.answers, "{label}: mmap answers match the in-memory original");
    assert_eq!(mrep.total, mem.total, "{label}: mmap aggregate IO matches");
    for (a, b) in mrep.outcomes.iter().zip(&rep.outcomes) {
        assert_eq!(
            (a.query, a.status, a.reported, a.io),
            (b.query, b.status, b.reported, b.io),
            "{label}: per-query outcome and IO delta identical across pread and mmap"
        );
    }
    for workers in [1usize, 4] {
        let par = BatchExecutor::new(&*mm).workers(workers).keep_answers(true).run_batched(queries);
        assert_eq!(par.answers, mem.answers, "{label}/{workers}: parallel answers over mmap");
        let chunk_sum: IoDelta = par.per_worker.iter().map(|w| w.io).sum();
        assert_eq!(chunk_sum, par.total, "{label}/{workers}: mmap chunk deltas sum exactly");
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
        let knn = KnnStructure::build(&kdev, &kpts, Hs3dConfig::default());
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
        let mem = BatchExecutor::new(*orig).keep_answers(true).run_batched(&queries);
        let rep = BatchExecutor::new(&**re).keep_answers(true).run_batched(&queries);
        assert_eq!(rep.answers, mem.answers, "{}", orig.name());
        assert_eq!(rep.total, mem.total, "{}", orig.name());
    }
}

#[test]
fn snapshots_survive_indexes_sharing_one_device() {
    // Two structures on one device snapshot that device twice — each
    // catalog entry stays self-contained and both reload correctly.
    let dir = TempDir::new("lcrs-catalog-shared");
    let pts = points2(Dist2::Clustered, 500, 1 << 18, 7);
    let dev = warm_device();
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    let sc = ExternalScan::build(&dev, &pts);
    dev.freeze();
    let mut cat = SnapshotCatalog::create(dir.file("cat")).unwrap();
    cat.add("hs", &hs).unwrap();
    cat.add("sc", &sc).unwrap();
    let queries = halfplane_queries(&pts, 30, 8);
    let cat = SnapshotCatalog::open(dir.file("cat")).unwrap();
    for (orig, label) in [(&hs as &dyn RangeIndex, "hs"), (&sc, "sc")] {
        let re = cat.load(label, CACHE).unwrap();
        let mem = BatchExecutor::new(orig).keep_answers(true).run_batched(&queries);
        let rep = BatchExecutor::new(&*re).keep_answers(true).run_batched(&queries);
        assert_eq!(rep.answers, mem.answers, "{label}");
        assert_eq!(rep.total, mem.total, "{label}");
    }
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
