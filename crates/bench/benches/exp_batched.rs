//! EXP-BATCHED — the query engine's batch mode (DESIGN.md §7): total read
//! IOs of a query batch executed one-at-a-time cold versus through the
//! [`BatchExecutor`] (locality-ordered, shared warm LRU), per structure and
//! per batch shape — all six halfspace structures (hs2d, hs3d, knn, ptree,
//! and both Section 6 trade-off trees) plus the three baselines.
//!
//! The paper's bounds are per-query; this experiment measures what they
//! leave on the table under production-style traffic: repeat-heavy
//! (Zipf-popularity) and sorted-sweep batches both reuse pages heavily, so
//! the batched cost must come in strictly below the cold cost on every
//! structure, while answers and per-query attribution stay exact.
//!
//! Run with `--smoke` for the CI-sized variant.

use lcrs_baselines::{ExternalKdTree, ExternalScan, StrRTree};
use lcrs_bench::{print_table, BenchReport};
use lcrs_engine::{BatchExecutor, LiftedIndex, Query, RangeIndex};
use lcrs_extmem::{Device, DeviceConfig};
use lcrs_geom::point::PointD;
use lcrs_halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs_halfspace::hs3d::{HalfspaceRS3, Hs3dConfig};
use lcrs_halfspace::ptree::{PTreeConfig, PartitionTree};
use lcrs_halfspace::tradeoff::{HybridConfig, HybridTree3, ShallowConfig, ShallowTree3};
use lcrs_workloads::{
    halfplane_batch, halfspace3_batch, knn_batch, points2, points3, BatchShape, Dist2, Dist3,
};
use std::time::{Duration, Instant};

const PAGE: usize = 4096;
const CACHE_PAGES: usize = 1024;

struct Row {
    structure: &'static str,
    dist: String,
    shape: &'static str,
    queries: usize,
    cold_reads: u64,
    batched_reads: u64,
    batched_hits: u64,
    wall: Duration,
}

fn shape_name(s: &BatchShape) -> &'static str {
    match s {
        BatchShape::ZipfRepeat { .. } => "zipf",
        BatchShape::SortedSweep => "sweep",
    }
}

/// Run one (structure, batch) cell: cold then batched, with the attribution
/// and savings invariants asserted. Returns cold reads, batched reads,
/// batched cache hits, and the batched run's wall-clock.
fn run_cell(index: &dyn RangeIndex, queries: &[Query]) -> (u64, u64, u64, Duration) {
    let ex = BatchExecutor::new(index);
    let cold = ex.run_cold(queries);
    let t0 = Instant::now();
    let batched = ex.run_batched(queries);
    let wall = t0.elapsed();
    for report in [&cold, &batched] {
        assert_eq!(
            report.attributed_total(),
            report.total,
            "{}: per-query deltas must sum to the batch total",
            index.name()
        );
    }
    assert!(
        batched.reads() < cold.reads(),
        "{}: batched {} reads must beat cold {}",
        index.name(),
        batched.reads(),
        cold.reads()
    );
    (cold.reads(), batched.reads(), batched.total.cache_hits, wall)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n2, n3, batch_len) = if smoke { (4096, 1024, 200) } else { (32768, 8192, 1000) };
    let shapes = [BatchShape::ZipfRepeat { distinct: 16, s: 1.1 }, BatchShape::SortedSweep];
    println!(
        "# EXP-BATCHED: cold vs batched total read IOs, page={PAGE}B, \
         cache={CACHE_PAGES} pages, {batch_len}-query batches{}",
        if smoke { " (smoke)" } else { "" }
    );

    let mut rows: Vec<Row> = Vec::new();

    // 2D: the optimal structure vs all three baselines.
    for dist in [Dist2::Uniform, Dist2::Clustered] {
        let pts = points2(dist, n2, 1 << 29, 42);
        let dev = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
        let hs2d = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        let scan = ExternalScan::build(&dev, &pts);
        let kd = ExternalKdTree::build(&dev, &pts);
        let rt = StrRTree::build(&dev, &pts);
        let pd: Vec<PointD<2>> = pts.iter().map(|&(x, y)| PointD::new([x, y])).collect();
        let pt = PartitionTree::<2>::build(&dev, &pd, PTreeConfig::default());
        let indexes: Vec<&dyn RangeIndex> = vec![&hs2d, &pt, &kd, &rt, &scan];
        for shape in shapes {
            let qs: Vec<Query> = halfplane_batch(&pts, shape, batch_len, 48, 7)
                .into_iter()
                .map(|(m, c)| Query::Halfplane { m, c, inclusive: false })
                .collect();
            for idx in &indexes {
                let (cold, batched, hits, wall) = run_cell(*idx, &qs);
                rows.push(Row {
                    structure: idx.name(),
                    dist: format!("{dist:?}"),
                    shape: shape_name(&shape),
                    queries: qs.len(),
                    cold_reads: cold,
                    batched_reads: batched,
                    batched_hits: hits,
                    wall,
                });
            }
        }
    }

    // 3D: both Section 6 trade-off structures.
    for dist in [Dist3::Uniform, Dist3::Slab] {
        let pts = points3(dist, n3, 1 << 18, 43);
        let dev = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
        let hs3d = HalfspaceRS3::build(&dev, &pts, Hs3dConfig::default());
        let hybrid = HybridTree3::build(&dev, &pts, HybridConfig::default());
        let shallow = ShallowTree3::build(&dev, &pts, ShallowConfig::default());
        let indexes: Vec<&dyn RangeIndex> = vec![&hs3d, &hybrid, &shallow];
        for shape in shapes {
            let qs: Vec<Query> = halfspace3_batch(&pts, shape, batch_len, 32, 8)
                .into_iter()
                .map(|(u, v, w)| Query::Halfspace { u, v, w, inclusive: false })
                .collect();
            for idx in &indexes {
                let (cold, batched, hits, wall) = run_cell(*idx, &qs);
                rows.push(Row {
                    structure: idx.name(),
                    dist: format!("{dist:?}"),
                    shape: shape_name(&shape),
                    queries: qs.len(),
                    cold_reads: cold,
                    batched_reads: batched,
                    batched_hits: hits,
                    wall,
                });
            }
        }
    }

    // k-NN: the Theorem 4.3 structure (centers stay inside the lift
    // coordinate budget, so the point range is +-1000).
    for dist in [Dist2::Uniform, Dist2::Clustered] {
        let pts = points2(dist, n3, 1000, 44);
        let dev = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
        let knn = LiftedIndex::build(&dev, &pts);
        for shape in shapes {
            let qs: Vec<Query> = knn_batch(&pts, shape, batch_len, 16, 9)
                .into_iter()
                .map(|(x, y, k)| Query::Knn { x, y, k })
                .collect();
            let (cold, batched, hits, wall) = run_cell(&knn, &qs);
            rows.push(Row {
                structure: RangeIndex::name(&knn),
                dist: format!("{dist:?}"),
                shape: shape_name(&shape),
                queries: qs.len(),
                cold_reads: cold,
                batched_reads: batched,
                batched_hits: hits,
                wall,
            });
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.structure.to_string(),
                r.dist.clone(),
                r.shape.to_string(),
                format!("{}", r.queries),
                format!("{}", r.cold_reads),
                format!("{}", r.batched_reads),
                format!("{}", r.batched_hits),
                format!("{:.1}%", 100.0 * (1.0 - r.batched_reads as f64 / r.cold_reads as f64)),
            ]
        })
        .collect();
    print_table(
        "Cold vs batched total read IOs per structure and batch shape",
        &["structure", "dist", "shape", "queries", "cold", "batched", "hits", "saved"],
        &table,
    );
    println!(
        "\nAll {} cells: per-query attribution sums to the batch total; \
         batched reads strictly below cold.",
        rows.len()
    );
    if smoke {
        let mut report = BenchReport::new("exp_batched", smoke);
        for r in &rows {
            report
                .cell(format!("{}/{}/{}", r.structure, r.dist, r.shape))
                .metric("queries", r.queries as f64)
                .metric("read_ios", r.batched_reads as f64)
                .metric("cold_reads", r.cold_reads as f64)
                .metric("cache_hits", r.batched_hits as f64)
                .report_wall(r.wall);
        }
        report.write_default();
    }
}
