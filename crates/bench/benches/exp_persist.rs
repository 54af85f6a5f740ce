//! EXP-PERSIST — the build-once/serve-many lifecycle (DESIGN.md §9):
//! build an index, freeze it to a snapshot file, reopen it read-only in a
//! file-backed device, and compare the cold-reopen query cost against the
//! in-memory frozen original, per structure and distribution.
//!
//! Invariants asserted on every cell: reopened answers are bit-identical
//! to the in-memory run, read-IO totals are *identical* (persistence only
//! changes where the bytes live, never the cost model), and a cold
//! reopened device starts with zeroed IO counters. The interesting
//! numbers are wall-clock: `save`/`open` are one-time costs amortized
//! over every process that skips the build, and `q_mem` vs `q_file`
//! shows the price of serving straight from the (checksummed, pread-
//! backed) file.
//!
//! Run with `--smoke` for the CI-sized variant. All snapshot files live
//! in a self-cleaning temp directory.

use std::time::{Duration, Instant};

use lcrs_baselines::{ExternalKdTree, ExternalScan};
use lcrs_bench::{print_table, BenchReport};
use lcrs_engine::{load_index, BatchExecutor, LiftedIndex, Query, RangeIndex};
use lcrs_extmem::{Device, DeviceConfig, IoStats, MetaReader, MetaWriter, PageBackend, TempDir};
use lcrs_halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs_halfspace::tradeoff::{HybridConfig, HybridTree3};
use lcrs_workloads::{
    halfplane_batch, halfspace3_batch, knn_batch, points2, points3, BatchShape, Dist2, Dist3,
};

const PAGE: usize = 4096;
const CACHE_PAGES: usize = 512;

struct Row {
    structure: &'static str,
    dist: String,
    n: usize,
    queries: usize,
    pages: u64,
    snap_kib: u64,
    build_ms: f64,
    save_ms: f64,
    open_ms: f64,
    reads: u64,
    q_mem_ms: f64,
    q_file_ms: f64,
}

/// One cell: persist `index`, reopen it, and pin the differential
/// invariants while timing every lifecycle step.
fn run_cell(
    dir: &TempDir,
    dev: &Device,
    index: &dyn RangeIndex,
    queries: &[Query],
    n: usize,
    dist: String,
    build_ms: f64,
) -> Row {
    let label = format!("{}-{dist}", index.name());
    let mem = BatchExecutor::new(index).keep_answers(true).run_batched(queries);
    let t = Instant::now();
    let mem_timed = BatchExecutor::new(index).run_batched(queries);
    let q_mem_ms = t.elapsed().as_secs_f64() * 1e3;

    let path = dir.file(&format!("{label}.pages"));
    let t = Instant::now();
    dev.freeze_to_path(&path).expect("freeze_to_path");
    let mut w = MetaWriter::new();
    index.save_meta(&mut w);
    let meta = w.into_bytes();
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    let snap_kib = std::fs::metadata(&path).expect("snapshot exists").len() / 1024;

    let t = Instant::now();
    let re_dev = Device::open_snapshot(&path, CACHE_PAGES).expect("open_snapshot");
    let mut r = MetaReader::from_bytes(meta).expect("metadata envelope");
    let re = load_index(index.name(), &re_dev, &mut r).expect("load_index");
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(re_dev.backend(), PageBackend::File, "{label}");
    assert_eq!(
        re_dev.stats(),
        IoStats::default(),
        "{label}: cold reopen must start with zeroed counters"
    );

    let rep = BatchExecutor::new(&*re).keep_answers(true).run_batched(queries);
    assert_eq!(rep.answers, mem.answers, "{label}: reopened answers must be bit-identical");
    assert_eq!(rep.total, mem.total, "{label}: reopened IO totals must be identical");
    let t = Instant::now();
    let file_timed = BatchExecutor::new(&*re).run_batched(queries);
    let q_file_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(file_timed.total, mem_timed.total, "{label}: timed runs agree too");

    Row {
        structure: index.name(),
        dist,
        n,
        queries: queries.len(),
        pages: dev.pages_allocated(),
        snap_kib,
        build_ms,
        save_ms,
        open_ms,
        reads: rep.total.reads,
        q_mem_ms,
        q_file_ms,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n2, n3, batch_len) = if smoke { (3000, 800, 150) } else { (60_000, 12_288, 800) };
    let dir = TempDir::new("lcrs-exp-persist");
    println!(
        "# EXP-PERSIST: freeze_to_path / open_snapshot lifecycle, page={PAGE}B, \
         cache={CACHE_PAGES} pages, {batch_len}-query batches{}",
        if smoke { " (smoke)" } else { "" }
    );

    let mut rows: Vec<Row> = Vec::new();

    // 2D: the optimal structure and the two fastest-building baselines.
    for dist in [Dist2::Uniform, Dist2::Clustered] {
        let pts = points2(dist, n2, 1 << 29, 52);
        let queries: Vec<Query> = halfplane_batch(
            &pts,
            BatchShape::ZipfRepeat { distinct: 16, s: 1.1 },
            batch_len,
            48,
            3,
        )
        .into_iter()
        .map(|(m, c)| Query::Halfplane { m, c, inclusive: false })
        .collect();
        {
            let dev = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
            let t = Instant::now();
            let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            rows.push(run_cell(&dir, &dev, &hs, &queries, n2, format!("{dist:?}"), ms));
        }
        {
            let dev = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
            let t = Instant::now();
            let kd = ExternalKdTree::build(&dev, &pts);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            rows.push(run_cell(&dir, &dev, &kd, &queries, n2, format!("{dist:?}"), ms));
        }
        {
            let dev = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
            let t = Instant::now();
            let sc = ExternalScan::build(&dev, &pts);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            rows.push(run_cell(&dir, &dev, &sc, &queries, n2, format!("{dist:?}"), ms));
        }
    }

    // 3D: the a=2/3 trade-off tree.
    for dist in [Dist3::Uniform, Dist3::Slab] {
        let pts = points3(dist, n3, 1 << 18, 53);
        let queries: Vec<Query> = halfspace3_batch(&pts, BatchShape::SortedSweep, batch_len, 32, 4)
            .into_iter()
            .map(|(u, v, w)| Query::Halfspace { u, v, w, inclusive: false })
            .collect();
        let dev = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
        let t = Instant::now();
        let hybrid = HybridTree3::build(&dev, &pts, HybridConfig::default());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        rows.push(run_cell(&dir, &dev, &hybrid, &queries, n3, format!("{dist:?}"), ms));
    }

    // k-NN (centers inside the lift coordinate budget).
    {
        let pts = points2(Dist2::Uniform, n3, 1000, 54);
        let queries: Vec<Query> = knn_batch(&pts, BatchShape::SortedSweep, batch_len, 16, 5)
            .into_iter()
            .map(|(x, y, k)| Query::Knn { x, y, k })
            .collect();
        let dev = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
        let t = Instant::now();
        let knn = LiftedIndex::build(&dev, &pts);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        rows.push(run_cell(&dir, &dev, &knn, &queries, n3, "Uniform".to_string(), ms));
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.structure.to_string(),
                r.dist.clone(),
                format!("{}", r.n),
                format!("{}", r.queries),
                format!("{}", r.pages),
                format!("{}", r.snap_kib),
                format!("{:.1}", r.build_ms),
                format!("{:.1}", r.save_ms),
                format!("{:.1}", r.open_ms),
                format!("{}", r.reads),
                format!("{:.1}", r.q_mem_ms),
                format!("{:.1}", r.q_file_ms),
            ]
        })
        .collect();
    print_table(
        "Persist lifecycle: snapshot size and wall-clock per step (answers and read-IOs \
         pinned identical between memory and file backends)",
        &[
            "structure",
            "dist",
            "n",
            "queries",
            "pages",
            "snapKiB",
            "build",
            "save",
            "open",
            "reads",
            "q_mem",
            "q_file",
        ],
        &table,
    );

    let amortize: f64 =
        rows.iter().map(|r| r.build_ms - r.open_ms).sum::<f64>() / rows.len() as f64;
    println!(
        "\nAll {} cells: bit-identical answers, identical read-IO totals, zeroed cold \
         counters. Reopening skips the build entirely — on average {:.1} ms saved per \
         process per index (build − open), paid once at save time.",
        rows.len(),
        amortize
    );
    if smoke {
        let mut report = BenchReport::new("exp_persist", smoke);
        for r in &rows {
            report
                .cell(format!("{}/{}", r.structure, r.dist))
                .metric("queries", r.queries as f64)
                .metric("read_ios", r.reads as f64)
                .metric("snapshot_kib", r.snap_kib as f64)
                .metric("pages", r.pages as f64)
                .metric("build_s", r.build_ms / 1e3)
                .metric("save_s", r.save_ms / 1e3)
                .metric("open_s", r.open_ms / 1e3)
                .metric("query_mem_s", r.q_mem_ms / 1e3)
                .metric("query_file_s", r.q_file_ms / 1e3)
                .report_wall(Duration::from_secs_f64(r.q_file_ms / 1e3));
        }
        report.write_default();
    }
}
