//! Acceptance + determinism suite for the chunked executor: for every
//! structure that implements `RangeIndex`, `BatchExecutor::workers(n)` at
//! 1, 2, 4, and 8 workers must produce answers bit-identical to the
//! one-thread `BatchExecutor`, per-chunk IO deltas that sum exactly to the
//! aggregate, and reports that are independent of thread scheduling
//! (every run is executed twice and compared field-by-field). A run of
//! two or more chunks happens on forks and must never leak IOs into the
//! index's primary handle scope; a run of one chunk happens on that scope
//! and costs exactly what the same run on an explicit fork costs.

use lcrs::baselines::{ExternalKdTree, ExternalScan, StrRTree};
use lcrs::engine::{BatchExecutor, Query, QueryStatus, RangeIndex};
use lcrs::extmem::{Device, DeviceConfig, IoDelta};
use lcrs::geom::point::PointD;
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs::halfspace::hs3d::{HalfspaceRS3, Hs3dConfig};
use lcrs::halfspace::ptree::PTreeConfig;
use lcrs::halfspace::tradeoff::{HybridConfig, HybridTree3, ShallowConfig, ShallowTree3};
use lcrs::halfspace::{DynamicHalfspace2, KnnStructure, PartitionTree};
use lcrs::workloads::{
    halfplane_batch, halfspace3_batch, points2, points3, BatchShape, Dist2, Dist3,
};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn warm_device() -> Device {
    Device::new(DeviceConfig::new(1024, 256))
}

fn halfplane_queries(pts: &[(i64, i64)], len: usize, seed: u64) -> Vec<Query> {
    halfplane_batch(pts, BatchShape::ZipfRepeat { distinct: 12, s: 1.1 }, len, 40, seed)
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

/// The full contract for one (structure, batch) pair.
fn check(index: &dyn RangeIndex, queries: &[Query], label: &str) {
    let sequential = BatchExecutor::new(index).keep_answers(true).run_batched(queries);
    for workers in WORKER_COUNTS {
        let chunks = workers.min(queries.len());
        let ex = BatchExecutor::new(index).workers(workers).keep_answers(true);
        let primary_before = index.device().stats();
        let r1 = ex.run_batched(queries);
        let r2 = ex.run_batched(queries);
        if chunks >= 2 {
            // Two or more chunks run on forks and leave the primary alone.
            assert_eq!(
                index.device().stats(),
                primary_before,
                "{label}/{workers}: chunk IOs must never land on the primary scope"
            );
        }
        assert_eq!(r1.per_worker.len(), chunks, "{label}/{workers}");
        assert_eq!(
            r1.answers, sequential.answers,
            "{label}/{workers}: chunked answers must be bit-identical to the one-thread batch"
        );
        for (o, s) in r1.outcomes.iter().zip(&sequential.outcomes) {
            assert_eq!((o.query, o.reported), (s.query, s.reported), "{label}/{workers}");
            assert_eq!(o.status, QueryStatus::Ok, "{label}/{workers}");
        }
        let chunk_sum: IoDelta = r1.per_worker.iter().map(|w| w.io).sum();
        assert_eq!(chunk_sum, r1.total, "{label}/{workers}: chunk deltas must sum exactly");
        assert_eq!(r1.attributed_total(), r1.total, "{label}/{workers}: per-query sum");
        assert_eq!(
            r1.per_worker.iter().map(|w| w.queries).sum::<usize>(),
            queries.len(),
            "{label}/{workers}: every query runs exactly once"
        );
        if workers == 1 {
            // One worker is the one-thread executor: the same schedule
            // against the same LRU geometry, so even the IO totals
            // coincide.
            assert_eq!(r1.total, sequential.total, "{label}: 1-worker IO equals one-thread");
        }
        // Scheduling independence: a second run must reproduce the report
        // exactly, field by field.
        assert_eq!(r1.total, r2.total, "{label}/{workers}: total must not depend on scheduling");
        assert_eq!(r1.answers, r2.answers, "{label}/{workers}");
        assert_eq!(r1.per_worker.len(), r2.per_worker.len(), "{label}/{workers}");
        for (a, b) in r1.per_worker.iter().zip(&r2.per_worker) {
            assert_eq!(
                (a.worker, a.queries, a.io),
                (b.worker, b.queries, b.io),
                "{label}/{workers}: per-chunk stats must be deterministic"
            );
        }
        for (a, b) in r1.outcomes.iter().zip(&r2.outcomes) {
            assert_eq!(
                (a.query, a.status, a.reported, a.io),
                (b.query, b.status, b.reported, b.io),
                "{label}/{workers}: per-query outcomes must be deterministic"
            );
        }
    }
}

#[test]
fn parallel_matches_batched_2d_structures() {
    let pts = points2(Dist2::Uniform, 2500, 1 << 20, 21);
    let dev = warm_device();
    let hs2d = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    let scan = ExternalScan::build(&dev, &pts);
    let kd = ExternalKdTree::build(&dev, &pts);
    let rt = StrRTree::build(&dev, &pts);
    let pd: Vec<PointD<2>> = pts.iter().map(|&(x, y)| PointD::new([x, y])).collect();
    let pt = PartitionTree::<2>::build(&dev, &pd, PTreeConfig::default());
    dev.freeze();
    let queries = halfplane_queries(&pts, 160, 22);
    for index in [&hs2d as &dyn RangeIndex, &scan, &kd, &rt, &pt] {
        check(index, &queries, index.name());
    }
}

#[test]
fn parallel_matches_batched_3d_structures() {
    let pts = points3(Dist3::Uniform, 900, 1 << 18, 23);
    let dev = warm_device();
    let hs3d = HalfspaceRS3::build(&dev, &pts, Hs3dConfig::default());
    let hybrid = HybridTree3::build(&dev, &pts, HybridConfig::default());
    let shallow = ShallowTree3::build(&dev, &pts, ShallowConfig::default());
    dev.freeze();
    let queries = halfspace_queries(&pts, 120, 24);
    for index in [&hs3d as &dyn RangeIndex, &hybrid, &shallow] {
        check(index, &queries, index.name());
    }
}

#[test]
fn parallel_matches_batched_knn() {
    // Stay inside the lift coordinate budget (|coord| <= 1024).
    let pts = points2(Dist2::Uniform, 700, 1000, 25);
    let dev = warm_device();
    let knn = KnnStructure::build(&dev, &pts, Hs3dConfig::default());
    dev.freeze();
    let queries: Vec<Query> = (0..96i64)
        .map(|i| Query::Knn {
            x: (i * 37 % 2000) - 1000,
            y: (i * 53 % 2000) - 1000,
            k: 5 + (i as usize) % 7,
        })
        .collect();
    check(&knn, &queries, "knn");
}

#[test]
fn parallel_matches_batched_dynamic() {
    // The dynamic structure keeps its mutable path: build via inserts on
    // the single-writer handle, freeze, then fan readers out.
    let pts = points2(Dist2::Clustered, 1800, 1 << 20, 26);
    let dev = warm_device();
    let mut dynamic = DynamicHalfspace2::new(&dev, Hs2dConfig::default());
    for (i, &(x, y)) in pts.iter().enumerate() {
        dynamic.insert(x, y, i as u64);
    }
    dev.freeze();
    let queries = halfplane_queries(&pts, 120, 27);
    check(&dynamic, &queries, "dynamic");
}

#[test]
fn parallel_works_unfrozen_with_identical_answers() {
    // Freezing is what makes the read path lock-free, but it is not a
    // correctness requirement: on an unfrozen store workers serialize on
    // the build lock and still answer identically.
    let pts = points2(Dist2::Uniform, 900, 1 << 20, 28);
    let dev = warm_device();
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    assert!(!dev.is_frozen());
    let queries = halfplane_queries(&pts, 60, 29);
    check(&hs, &queries, "hs2d-unfrozen");
}

#[test]
fn parallel_reports_unsupported_outcomes() {
    let pts = points2(Dist2::Uniform, 600, 1 << 20, 30);
    let dev = warm_device();
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    dev.freeze();
    let mut queries = halfplane_queries(&pts, 40, 31);
    queries.insert(7, Query::Knn { x: 0, y: 0, k: 3 });
    queries.insert(23, Query::Knn { x: 5, y: 5, k: 2 });
    let report = BatchExecutor::new(&hs).workers(4).keep_answers(true).run_batched(&queries);
    assert_eq!(report.unsupported(), 2);
    for qi in [7, 23] {
        assert_eq!(report.outcomes[qi].status, QueryStatus::Unsupported);
        assert_eq!(report.outcomes[qi].reported, 0);
        assert!(report.answers.as_ref().unwrap()[qi].is_empty());
    }
    let chunk_sum: IoDelta = report.per_worker.iter().map(|w| w.io).sum();
    assert_eq!(chunk_sum, report.total);
}

#[test]
fn chunks_are_exact_and_balanced() {
    // Worker counts that do NOT divide the batch length still get exactly
    // min(workers, len) chunks, sized within one of each other, covering
    // every query once — and the executed report agrees.
    let pts = points2(Dist2::Uniform, 500, 1 << 20, 34);
    let dev = warm_device();
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    dev.freeze();
    for (len, workers) in [(13usize, 6usize), (6, 4), (7, 8), (100, 7), (5, 5)] {
        let queries = halfplane_queries(&pts, len, 35 + len as u64);
        let ex = BatchExecutor::new(&hs).workers(workers);
        let chunks = ex.chunks(&queries);
        let expect = workers.min(len);
        assert_eq!(chunks.len(), expect, "len={len} workers={workers}");
        let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        assert!(max - min <= 1, "near-even chunks, got {sizes:?}");
        assert_eq!(chunks.concat(), ex.schedule(&queries), "chunks are the schedule, in order");
        let mut all: Vec<usize> = chunks.concat();
        all.sort_unstable();
        assert_eq!(all, (0..len).collect::<Vec<_>>(), "every query in exactly one chunk");
        let report = ex.run_batched(&queries);
        assert_eq!(report.per_worker.len(), expect);
        assert_eq!(report.per_worker.iter().map(|w| w.queries).sum::<usize>(), len);
    }
}

#[test]
fn one_chunk_runs_on_the_calling_scope_like_a_fork() {
    // A batch cut into one chunk — one worker, or a 1-query batch at four
    // — runs on the index's own handle with no fork, and costs exactly
    // what the same run on an explicit fork_reader() clone costs.
    let pts = points2(Dist2::Uniform, 700, 1 << 20, 36);
    let dev = warm_device();
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    dev.freeze();
    let queries = halfplane_queries(&pts, 40, 37);
    for (batch, workers) in [(&queries[..], 1usize), (&queries[..1], 4)] {
        let fork = hs.fork_reader();
        let on_fork = BatchExecutor::new(&fork).keep_answers(true).run_batched(batch);
        let primary_before = hs.device().stats();
        let run = BatchExecutor::new(&hs).workers(workers).keep_answers(true).run_batched(batch);
        assert_eq!(run.per_worker.len(), 1, "{workers} workers, {} queries", batch.len());
        assert_eq!(run.answers, on_fork.answers);
        for (a, b) in run.outcomes.iter().zip(&on_fork.outcomes) {
            assert_eq!(
                (a.query, a.status, a.reported, a.io),
                (b.query, b.status, b.reported, b.io),
                "one chunk: per-query outcome and IO delta equal the fork's"
            );
        }
        assert_eq!(run.total, on_fork.total);
        assert!(run.total.reads > 0, "the batch must actually read pages");
        assert_eq!(
            hs.device().stats().since(primary_before),
            run.total,
            "a lone chunk runs on the index's own handle"
        );
    }
}

#[test]
fn parallel_handles_tiny_and_empty_batches() {
    let pts = points2(Dist2::Uniform, 400, 1 << 20, 32);
    let dev = warm_device();
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    dev.freeze();
    let empty = BatchExecutor::new(&hs).workers(8).run_batched(&[]);
    assert_eq!(empty.per_worker.len(), 0);
    assert_eq!(empty.outcomes.len(), 0);
    assert_eq!(empty.total, IoDelta::default());
    // More workers than queries: capped, every query still runs once.
    let queries = halfplane_queries(&pts, 3, 33);
    let tiny = BatchExecutor::new(&hs).workers(8).keep_answers(true).run_batched(&queries);
    assert_eq!(tiny.per_worker.len(), 3);
    assert_eq!(tiny.outcomes.len(), 3);
    let sequential = BatchExecutor::new(&hs).keep_answers(true).run_batched(&queries);
    assert_eq!(tiny.answers, sequential.answers);
}
