//! EXP-PARALLEL — the query engine's chunked mode (DESIGN.md §8): total
//! read IOs and wall-clock time of a query batch executed through the
//! [`BatchExecutor`] on the calling thread versus cut into chunks at 1, 2,
//! 4, and 8 workers, per structure, distribution, and batch shape.
//!
//! The device is frozen after construction, so workers read the page store
//! lock-free; each chunk is a contiguous, locality-ordered piece of the
//! schedule run against its own forked device-handle scope (own warm LRU).
//! Per-cell invariants asserted on every run: per-chunk IO deltas sum
//! exactly to the aggregate, and per-query reported counts match the
//! one-thread run (full bit-identity of answers is pinned by
//! `tests/engine_parallel.rs`).
//!
//! Run with `--smoke` for the CI-sized variant (assertions only — wall
//! clock on a loaded CI box is noise).

use std::time::{Duration, Instant};

use lcrs_baselines::{ExternalKdTree, ExternalScan};
use lcrs_bench::{print_table, BenchReport};
use lcrs_engine::{BatchExecutor, LiftedIndex, Query, RangeIndex};
use lcrs_extmem::{Device, DeviceConfig, IoDelta};
use lcrs_halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs_halfspace::tradeoff::{HybridConfig, HybridTree3};
use lcrs_workloads::{
    halfplane_batch, halfspace3_batch, knn_batch, points2, points3, BatchShape, Dist2, Dist3,
};

const PAGE: usize = 4096;
const CACHE_PAGES: usize = 1024;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Row {
    structure: &'static str,
    dist: String,
    shape: &'static str,
    n: usize,
    queries: usize,
    seq_reads: u64,
    seq_ms: f64,
    wall_ms: Vec<f64>, // parallel to WORKER_COUNTS
    speedup4: f64,
}

fn shape_name(s: &BatchShape) -> &'static str {
    match s {
        BatchShape::ZipfRepeat { .. } => "zipf",
        BatchShape::SortedSweep => "sweep",
    }
}

/// Run one (structure, batch) cell: the one-thread batched baseline, then
/// the executor at each worker count, with the report invariants asserted
/// every time.
fn run_cell(
    index: &dyn RangeIndex,
    queries: &[Query],
    n: usize,
    dist: String,
    shape: &BatchShape,
) -> Row {
    // Untimed warmup so first-touch effects (page faults, allocator growth)
    // don't masquerade as speedup or slowdown in the timed runs.
    let _ = BatchExecutor::new(index).run_batched(queries);
    let t0 = Instant::now();
    let sequential = BatchExecutor::new(index).run_batched(queries);
    let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        sequential.attributed_total(),
        sequential.total,
        "{}: per-query deltas must sum to the batch total",
        index.name()
    );
    let mut wall_ms = Vec::with_capacity(WORKER_COUNTS.len());
    for &workers in &WORKER_COUNTS {
        let t = Instant::now();
        let report = BatchExecutor::new(index).workers(workers).run_batched(queries);
        wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let worker_sum: IoDelta = report.per_worker.iter().map(|w| w.io).sum();
        assert_eq!(
            worker_sum,
            report.total,
            "{}/{workers}: per-chunk deltas must sum to the aggregate",
            index.name()
        );
        for (o, s) in report.outcomes.iter().zip(&sequential.outcomes) {
            assert_eq!(
                (o.query, o.reported),
                (s.query, s.reported),
                "{}/{workers}: chunked outcomes must match the one-thread run",
                index.name()
            );
        }
        if workers == 1 {
            assert_eq!(
                report.total,
                sequential.total,
                "{}: one worker must cost exactly the sequential batch",
                index.name()
            );
        }
    }
    let speedup4 = seq_ms / wall_ms[2].max(1e-9);
    Row {
        structure: index.name(),
        dist,
        shape: shape_name(shape),
        n,
        queries: queries.len(),
        seq_reads: sequential.reads(),
        seq_ms,
        wall_ms,
        speedup4,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n2, n3, batch_len) = if smoke { (4096, 1024, 200) } else { (100_000, 16_384, 1000) };
    let shapes = [BatchShape::ZipfRepeat { distinct: 16, s: 1.1 }, BatchShape::SortedSweep];
    println!(
        "# EXP-PARALLEL: one thread vs chunked wall-clock and reads, page={PAGE}B, \
         cache={CACHE_PAGES} pages/worker, {batch_len}-query batches, workers {WORKER_COUNTS:?}{}",
        if smoke { " (smoke)" } else { "" }
    );

    let mut rows: Vec<Row> = Vec::new();

    // 2D: the optimal structure plus the two baselines with the fastest
    // builds (the 100k-point wall-clock cells of the acceptance bar).
    for dist in [Dist2::Uniform, Dist2::Clustered] {
        let pts = points2(dist, n2, 1 << 29, 42);
        let dev = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
        let hs2d = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        let kd = ExternalKdTree::build(&dev, &pts);
        let scan = ExternalScan::build(&dev, &pts);
        dev.freeze();
        let indexes: Vec<&dyn RangeIndex> = vec![&hs2d, &kd, &scan];
        for shape in shapes {
            let qs: Vec<Query> = halfplane_batch(&pts, shape, batch_len, 48, 7)
                .into_iter()
                .map(|(m, c)| Query::Halfplane { m, c, inclusive: false })
                .collect();
            for idx in &indexes {
                rows.push(run_cell(*idx, &qs, n2, format!("{dist:?}"), &shape));
            }
        }
    }

    // 3D: the a=2/3 trade-off tree.
    for dist in [Dist3::Uniform, Dist3::Slab] {
        let pts = points3(dist, n3, 1 << 18, 43);
        let dev = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
        let hybrid = HybridTree3::build(&dev, &pts, HybridConfig::default());
        dev.freeze();
        for shape in shapes {
            let qs: Vec<Query> = halfspace3_batch(&pts, shape, batch_len, 32, 8)
                .into_iter()
                .map(|(u, v, w)| Query::Halfspace { u, v, w, inclusive: false })
                .collect();
            rows.push(run_cell(&hybrid, &qs, n3, format!("{dist:?}"), &shape));
        }
    }

    // k-NN (centers inside the lift coordinate budget).
    {
        let pts = points2(Dist2::Uniform, n3, 1000, 44);
        let dev = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
        let knn = LiftedIndex::build(&dev, &pts);
        dev.freeze();
        for shape in shapes {
            let qs: Vec<Query> = knn_batch(&pts, shape, batch_len, 16, 9)
                .into_iter()
                .map(|(x, y, k)| Query::Knn { x, y, k })
                .collect();
            rows.push(run_cell(&knn, &qs, n3, "Uniform".to_string(), &shape));
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![
                r.structure.to_string(),
                r.dist.clone(),
                r.shape.to_string(),
                format!("{}", r.n),
                format!("{}", r.queries),
                format!("{}", r.seq_reads),
                format!("{:.1}", r.seq_ms),
            ];
            cells.extend(r.wall_ms.iter().map(|w| format!("{w:.1}")));
            cells.push(format!("{:.2}x", r.speedup4));
            cells
        })
        .collect();
    print_table(
        "One thread vs chunked execution (wall-clock ms per whole batch)",
        &[
            "structure",
            "dist",
            "shape",
            "n",
            "queries",
            "reads",
            "seq",
            "w1",
            "w2",
            "w4",
            "w8",
            "spd@4",
        ],
        &table,
    );

    let best = rows
        .iter()
        .max_by(|a, b| a.speedup4.partial_cmp(&b.speedup4).unwrap())
        .expect("at least one cell");
    println!(
        "\nAll {} cells: per-chunk deltas sum exactly; outcomes match the one-thread \
         run. Best 4-worker speedup: {:.2}x ({} {} {} n={}).",
        rows.len(),
        best.speedup4,
        best.structure,
        best.dist,
        best.shape,
        best.n
    );
    // Wall-clock speedup needs hardware parallelism: only hold the bench to
    // the >1.5x bar when the machine can actually run 4 workers at once.
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    if !smoke && cores >= 4 {
        assert!(
            rows.iter().any(|r| r.n >= 100_000 && r.speedup4 > 1.5),
            "expected a >1.5x 4-worker speedup on at least one 100k-point workload"
        );
    } else if !smoke {
        println!(
            "note: only {cores} core(s) available — the >1.5x speedup gate needs >=4 \
             and was skipped; IO/merge invariants were still asserted on every cell."
        );
    }
    if smoke {
        let mut report = BenchReport::new("exp_parallel", smoke);
        for r in &rows {
            let cell = report.cell(format!("{}/{}/{}", r.structure, r.dist, r.shape));
            cell.metric("queries", r.queries as f64)
                .metric("read_ios", r.seq_reads as f64)
                .metric("seq_wall_s", r.seq_ms / 1e3)
                .report_wall(Duration::from_secs_f64(r.seq_ms / 1e3));
            for (w, ms) in WORKER_COUNTS.iter().zip(&r.wall_ms) {
                cell.metric(&format!("w{w}_wall_s"), ms / 1e3);
            }
        }
        report.write_default();
    }
}
