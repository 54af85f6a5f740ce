//! EXP-REOPEN — the build-once/serve-many lifecycle (DESIGN.md §9, §13),
//! with wall-clock as a first-class number: build an index, freeze it in
//! memory, persist it to a snapshot, reopen it, and put wall ns/query of
//! the in-memory original and of the reopened index (a page miss is one
//! `pread` into a frame of the reading scope, a hit is served from that
//! frame) next to the model read-IO count.
//!
//! Invariants asserted on every cell: answers and model read-IO totals are
//! bit-identical between the in-memory original and the reopened index —
//! where the bytes live never moves the cost model — and a cold reopened
//! device starts with zeroed IO counters. Traffic covers the repeat-heavy
//! (zipf), sorted-sweep, and sequential page-sweep shapes (nested-prefix
//! answer sets walk the pages front to back), plus a planner-driven mixed
//! cell that times [`IndexSet::execute_plan`] on an in-memory set and on
//! the same set reopened from a catalog. The `<structure>/<Dist>`
//! lifecycle cells build each structure on a device of its own over two
//! distributions of its class and also time the one-time steps — build,
//! freeze + save, open + load — and the snapshot size: reopening skips
//! the build in every later process.
//!
//! Wall numbers are informational; only the IO/answer parity asserts. Run
//! with `--smoke` for the CI-sized variant.

use std::time::{Duration, Instant};

use lcrs_baselines::{ExternalKdTree, ExternalScan};
use lcrs_bench::{print_table, BenchReport};
use lcrs_engine::{
    load_index, BatchExecutor, IndexSet, LiftedIndex, Query, RangeIndex, SnapshotCatalog,
};
use lcrs_extmem::{Device, DeviceConfig, IoStats, MetaReader, MetaWriter, PageBackend, TempDir};
use lcrs_halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs_halfspace::tradeoff::{HybridConfig, HybridTree3};
use lcrs_workloads::{
    halfplane_batch, halfplane_page_sweep, halfspace3_batch, knn_batch, points2, points3,
    BatchShape, Dist2, Dist3,
};

const PAGE: usize = 4096;
const CACHE_PAGES: usize = 512;
/// Best-of-N wall timing per side: the minimum of several runs filters
/// scheduler noise without averaging away the real difference.
const TIMING_RUNS: usize = 3;

struct Row {
    cell: String,
    queries: usize,
    reads: u64,
    memory_wall: Duration,
    pread_wall: Duration,
    /// The one-time steps, for a cell built on a device of its own.
    lifecycle: Option<Lifecycle>,
}

struct Lifecycle {
    build: Duration,
    /// Freeze to a snapshot file plus serialize the metadata.
    save: Duration,
    /// Open the snapshot plus `load_index`.
    open: Duration,
    snapshot_kib: u64,
}

fn ns_per_query(wall: Duration, queries: usize) -> f64 {
    wall.as_nanos() as f64 / queries as f64
}

fn best_of<R>(runs: usize, mut f: impl FnMut() -> R) -> Duration {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .min()
        .expect("runs > 0")
}

/// One standalone cell: freeze and persist `index`, reopen it, pin
/// answer/IO parity against the in-memory original, time both. `build`
/// is the build time of a lifecycle cell, `None` for an index shared by
/// several cells.
fn run_cell(
    dir: &TempDir,
    dev: &Device,
    index: &dyn RangeIndex,
    queries: &[Query],
    cell: String,
    build: Option<Duration>,
) -> Row {
    let path = dir.file(&format!("{}.pages", cell.replace('/', "-")));
    let t = Instant::now();
    dev.freeze_to_path(&path).expect("freeze_to_path");
    let mut w = MetaWriter::new();
    index.save_meta(&mut w);
    let meta = w.into_bytes();
    let save = t.elapsed();
    let mem = BatchExecutor::new(index).keep_answers(true).run_batched(queries);
    let memory_wall = best_of(TIMING_RUNS, || BatchExecutor::new(index).run_batched(queries));

    let t = Instant::now();
    let re_dev = Device::open_snapshot(&path, CACHE_PAGES).expect("open_snapshot");
    let mut r = MetaReader::from_bytes(meta).expect("metadata envelope");
    let re = load_index(index.name(), &re_dev, &mut r).expect("load_index");
    let open = t.elapsed();
    assert_eq!(re_dev.backend(), PageBackend::File, "{cell}");
    assert_eq!(re_dev.stats(), IoStats::default(), "{cell}: cold reopen starts zeroed");
    let rep = BatchExecutor::new(&*re).keep_answers(true).run_batched(queries);
    assert_eq!(
        rep.answers, mem.answers,
        "{cell}: reopened answers must be bit-identical to the in-memory original"
    );
    assert_eq!(rep.total, mem.total, "{cell}: IO totals must be identical");
    let pread_wall = best_of(TIMING_RUNS, || BatchExecutor::new(&*re).run_batched(queries));

    let snapshot_kib = std::fs::metadata(&path).expect("snapshot exists").len() / 1024;
    Row {
        cell,
        queries: queries.len(),
        reads: mem.total.reads,
        memory_wall,
        pread_wall,
        lifecycle: build.map(|build| Lifecycle { build, save, open, snapshot_kib }),
    }
}

/// A lifecycle cell: build an index on a device of its own, timed, then
/// run it through [`run_cell`].
fn built_cell<I: RangeIndex>(
    dir: &TempDir,
    queries: &[Query],
    cell: String,
    build: impl FnOnce(&Device) -> I,
) -> Row {
    let dev = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let t = Instant::now();
    let index = build(&dev);
    let build = t.elapsed();
    run_cell(dir, &dev, &index, queries, cell, Some(build))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n2, nk, batch_len) = if smoke { (3000, 800, 150) } else { (40_000, 8_192, 600) };
    let dir = TempDir::new("lcrs-exp-reopen");
    println!(
        "# EXP-REOPEN: in-memory vs reopened (pread with frames), wall ns/query next to model \
         read IOs, page={PAGE}B, cache={CACHE_PAGES} pages, best-of-{TIMING_RUNS} timing{}",
        if smoke { " (smoke)" } else { "" }
    );

    let pts = points2(Dist2::Uniform, n2, 1 << 29, 521);
    let to_hp = |batch: Vec<(i64, i64)>| -> Vec<Query> {
        batch.into_iter().map(|(m, c)| Query::Halfplane { m, c, inclusive: false }).collect()
    };
    let zipf = to_hp(halfplane_batch(
        &pts,
        BatchShape::ZipfRepeat { distinct: 16, s: 1.1 },
        batch_len,
        48,
        3,
    ));
    let sweep = to_hp(halfplane_batch(&pts, BatchShape::SortedSweep, batch_len, 48, 4));
    // Nested-prefix answer sets advancing a fixed record stride per query:
    // a rank-ordered layout reads its pages strictly front to back across
    // the batch.
    let pagesweep = to_hp(halfplane_page_sweep(&pts, batch_len, n2 / batch_len, 48, 5));

    let dev_hs = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let hs2d = HalfspaceRS2::build(&dev_hs, &pts, Hs2dConfig::default());
    let dev_scan = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let scan = ExternalScan::build(&dev_scan, &pts);
    let dev_kd = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let kd = ExternalKdTree::build(&dev_kd, &pts);

    let kpts = points2(Dist2::Clustered, nk, 1000, 523);
    let dev_knn = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let knn = LiftedIndex::build(&dev_knn, &kpts);
    let kqueries: Vec<Query> = knn_batch(&kpts, BatchShape::SortedSweep, batch_len, 16, 6)
        .into_iter()
        .map(|(x, y, k)| Query::Knn { x, y, k })
        .collect();

    let mut rows = vec![
        run_cell(&dir, &dev_hs, &hs2d, &zipf, "hs2d/zipf".to_string(), None),
        run_cell(&dir, &dev_hs, &hs2d, &sweep, "hs2d/sweep".to_string(), None),
        run_cell(&dir, &dev_hs, &hs2d, &pagesweep, "hs2d/pagesweep".to_string(), None),
        run_cell(&dir, &dev_scan, &scan, &pagesweep, "scan/pagesweep".to_string(), None),
        run_cell(&dir, &dev_kd, &kd, &zipf, "kdtree/zipf".to_string(), None),
        run_cell(&dir, &dev_knn, &knn, &kqueries, "knn/sweep".to_string(), None),
    ];

    // The lifecycle cells: the optimal 2D structure and the two
    // fastest-building baselines, the a=2/3 trade-off tree, and k-NN
    // (centers inside the lift coordinate budget).
    for dist in [Dist2::Uniform, Dist2::Clustered] {
        let pts = points2(dist, n2, 1 << 29, 52);
        let queries = to_hp(halfplane_batch(
            &pts,
            BatchShape::ZipfRepeat { distinct: 16, s: 1.1 },
            batch_len,
            48,
            3,
        ));
        rows.push(built_cell(&dir, &queries, format!("hs2d/{dist:?}"), |dev| {
            HalfspaceRS2::build(dev, &pts, Hs2dConfig::default())
        }));
        rows.push(built_cell(&dir, &queries, format!("kdtree/{dist:?}"), |dev| {
            ExternalKdTree::build(dev, &pts)
        }));
        rows.push(built_cell(&dir, &queries, format!("scan/{dist:?}"), |dev| {
            ExternalScan::build(dev, &pts)
        }));
    }
    for dist in [Dist3::Uniform, Dist3::Slab] {
        let pts = points3(dist, nk, 1 << 18, 53);
        let queries: Vec<Query> = halfspace3_batch(&pts, BatchShape::SortedSweep, batch_len, 32, 4)
            .into_iter()
            .map(|(u, v, w)| Query::Halfspace { u, v, w, inclusive: false })
            .collect();
        rows.push(built_cell(&dir, &queries, format!("tradeoff-hybrid/{dist:?}"), |dev| {
            HybridTree3::build(dev, &pts, HybridConfig::default())
        }));
    }
    {
        let pts = points2(Dist2::Uniform, nk, 1000, 54);
        let queries: Vec<Query> = knn_batch(&pts, BatchShape::SortedSweep, batch_len, 16, 5)
            .into_iter()
            .map(|(x, y, k)| Query::Knn { x, y, k })
            .collect();
        rows.push(built_cell(&dir, &queries, "knn/Uniform".to_string(), |dev| {
            LiftedIndex::build(dev, &pts)
        }));
    }

    // The planner-driven mixed cell: the three 2D structures as one
    // in-memory set and as the same set reopened from a catalog, the same
    // plan executed on each.
    {
        let mut cat = SnapshotCatalog::create(dir.file("cat")).expect("catalog");
        for (label, index) in
            [("hs", &hs2d as &dyn RangeIndex), ("kd", &kd as &dyn RangeIndex), ("sc", &scan)]
        {
            cat.add(label, index).expect("catalog add");
        }
        let cat = SnapshotCatalog::open(dir.file("cat")).expect("catalog reopen");
        let mut memory = IndexSet::new();
        memory.add(Box::new(hs2d));
        memory.add(Box::new(kd));
        memory.add(Box::new(scan));
        let reopened = IndexSet::from_catalog(&cat, CACHE_PAGES).expect("from_catalog");
        let mixed: Vec<Query> = zipf.iter().zip(&pagesweep).flat_map(|(a, b)| [*a, *b]).collect();

        let mut walls = [Duration::ZERO; 2];
        let mut runs = Vec::new();
        for (i, set) in [&memory, &reopened].into_iter().enumerate() {
            let plan = set.plan(&mixed);
            assert_eq!(plan.unrouted(), 0, "the set covers every mixed query");
            runs.push((plan.assignments.clone(), set.execute_plan(&mixed, &plan, true)));
            walls[i] = best_of(TIMING_RUNS, || set.execute_plan(&mixed, &plan, false));
        }
        let (mem, re) = (&runs[0], &runs[1]);
        assert_eq!(mem.0, re.0, "planner/mixed: identical routing in memory and reopened");
        assert_eq!(mem.1.answers, re.1.answers, "planner/mixed: answers identical");
        assert_eq!(mem.1.total, re.1.total, "planner/mixed: IO totals identical");
        rows.push(Row {
            cell: "planner/mixed".to_string(),
            queries: mixed.len(),
            reads: mem.1.total.reads,
            memory_wall: walls[0],
            pread_wall: walls[1],
            lifecycle: None,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.cell.clone(),
                format!("{}", r.queries),
                format!("{}", r.reads),
                format!("{:.0}", ns_per_query(r.memory_wall, r.queries)),
                format!("{:.0}", ns_per_query(r.pread_wall, r.queries)),
                format!(
                    "{:.2}x",
                    r.pread_wall.as_nanos() as f64 / r.memory_wall.as_nanos().max(1) as f64
                ),
            ]
        })
        .collect();
    print_table(
        "in-memory vs reopened: model read IOs and wall ns/query (best-of-3)",
        &["cell", "queries", "read IOs", "memory ns/q", "pread ns/q", "pread/memory"],
        &table,
    );
    let ms = |d: Duration| format!("{:.1}", d.as_secs_f64() * 1e3);
    let lifecycle: Vec<Vec<String>> = rows
        .iter()
        .filter_map(|r| {
            let l = r.lifecycle.as_ref()?;
            Some(vec![
                r.cell.clone(),
                format!("{}", l.snapshot_kib),
                ms(l.build),
                ms(l.save),
                ms(l.open),
                ms(l.build.saturating_sub(l.open)),
            ])
        })
        .collect();
    print_table(
        "lifecycle: snapshot size and one-time ms per step (reopening skips the build)",
        &["cell", "snapKiB", "build", "save", "open", "build − open"],
        &lifecycle,
    );
    let memory_total: Duration = rows.iter().map(|r| r.memory_wall).sum();
    let pread_total: Duration = rows.iter().map(|r| r.pread_wall).sum();
    println!("\nWall totals: memory {memory_total:?}, reopened {pread_total:?} (informational)");
    println!(
        "Parity gates: answers and model read-IO totals bit-identical between the in-memory \
         original and the reopened index on every cell (including the planner-driven mixed batch)."
    );

    if smoke {
        let mut report = BenchReport::new("exp_reopen", smoke);
        for r in &rows {
            let cell = report
                .cell(r.cell.clone())
                .metric("queries", r.queries as f64)
                .metric("read_ios", r.reads as f64)
                .metric("memory_ns_per_q", ns_per_query(r.memory_wall, r.queries))
                .metric("pread_ns_per_q", ns_per_query(r.pread_wall, r.queries))
                .report_wall(r.pread_wall);
            if let Some(l) = &r.lifecycle {
                cell.metric("build_s", l.build.as_secs_f64())
                    .metric("save_s", l.save.as_secs_f64())
                    .metric("open_s", l.open.as_secs_f64())
                    .metric("snapshot_kib", l.snapshot_kib as f64);
            }
        }
        report.write_default();
    }
}
