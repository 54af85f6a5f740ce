//! EXP-REOPEN — wall-clock as a first-class number (DESIGN.md §13): build an
//! index, freeze it in memory, persist it to a snapshot, reopen it, and put
//! wall ns/query of the in-memory original and of the reopened index (a
//! page miss is one `pread` into a frame of the reading scope, a hit is
//! served from that frame) next to the model read-IO count.
//!
//! Invariants asserted on every cell: answers and model read-IO totals are
//! bit-identical between the in-memory original and the reopened index —
//! where the bytes live never moves the cost model. Traffic covers the
//! repeat-heavy (zipf), sorted-sweep, and sequential page-sweep shapes
//! (nested-prefix answer sets walk the pages front to back), plus a
//! planner-driven mixed cell that times [`IndexSet::execute_plan`] on an
//! in-memory set and on the same set reopened from a catalog.
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
use lcrs_workloads::{
    halfplane_batch, halfplane_page_sweep, knn_batch, points2, BatchShape, Dist2,
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
/// answer/IO parity against the in-memory original, time both.
fn run_cell(
    dir: &TempDir,
    dev: &Device,
    index: &dyn RangeIndex,
    queries: &[Query],
    cell: String,
) -> Row {
    let path = dir.file(&format!("{}.pages", cell.replace('/', "-")));
    dev.freeze_to_path(&path).expect("freeze_to_path");
    let mem = BatchExecutor::new(index).keep_answers(true).run_batched(queries);
    let memory_wall = best_of(TIMING_RUNS, || BatchExecutor::new(index).run_batched(queries));

    let mut w = MetaWriter::new();
    index.save_meta(&mut w);
    let re_dev = Device::open_snapshot(&path, CACHE_PAGES).expect("open_snapshot");
    assert_eq!(re_dev.backend(), PageBackend::File, "{cell}");
    assert_eq!(re_dev.stats(), IoStats::default(), "{cell}: cold reopen starts zeroed");
    let mut r = MetaReader::from_bytes(w.into_bytes()).expect("metadata envelope");
    let re = load_index(index.name(), &re_dev, &mut r).expect("load_index");
    let rep = BatchExecutor::new(&*re).keep_answers(true).run_batched(queries);
    assert_eq!(
        rep.answers, mem.answers,
        "{cell}: reopened answers must be bit-identical to the in-memory original"
    );
    assert_eq!(rep.total, mem.total, "{cell}: IO totals must be identical");
    let pread_wall = best_of(TIMING_RUNS, || BatchExecutor::new(&*re).run_batched(queries));

    Row { cell, queries: queries.len(), reads: mem.total.reads, memory_wall, pread_wall }
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
        run_cell(&dir, &dev_hs, &hs2d, &zipf, "hs2d/zipf".to_string()),
        run_cell(&dir, &dev_hs, &hs2d, &sweep, "hs2d/sweep".to_string()),
        run_cell(&dir, &dev_hs, &hs2d, &pagesweep, "hs2d/pagesweep".to_string()),
        run_cell(&dir, &dev_scan, &scan, &pagesweep, "scan/pagesweep".to_string()),
        run_cell(&dir, &dev_kd, &kd, &zipf, "kdtree/zipf".to_string()),
        run_cell(&dir, &dev_knn, &knn, &kqueries, "knn/sweep".to_string()),
    ];

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
            report
                .cell(r.cell.clone())
                .metric("queries", r.queries as f64)
                .metric("read_ios", r.reads as f64)
                .metric("memory_ns_per_q", ns_per_query(r.memory_wall, r.queries))
                .metric("pread_ns_per_q", ns_per_query(r.pread_wall, r.queries))
                .report_wall(r.pread_wall);
        }
        report.write_default();
    }
}
