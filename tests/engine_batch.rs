//! Acceptance test for the batch engine: a 1k-query batch through the
//! BatchExecutor with a warm shared cache costs strictly fewer total read
//! IOs than the same queries issued one-at-a-time cold — for hs2d, a
//! Section 6 trade-off structure, and a baseline, on two distributions
//! each — with outcomes in submission order, per-query IoDelta
//! attribution summing to the batch total, and answers unchanged. Also
//! pinned: the locality schedule, a cacheless device gaining nothing,
//! unsupported queries that never abort a batch, and which structures
//! take k-NN queries.

use lcrs::baselines::{ExternalKdTree, ExternalScan, StrRTree};
use lcrs::engine::{
    BatchExecutor, ExecMode, IndexSet, LiftedIndex, Query, QueryStatus, RangeIndex,
};
use lcrs::extmem::{Device, DeviceConfig, IoDelta};
use lcrs::geom::point::PointD;
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs::halfspace::ptree::PTreeConfig;
use lcrs::halfspace::tradeoff::{HybridConfig, HybridTree3};
use lcrs::halfspace::{DynamicHalfspace2, PartitionTree};
use lcrs::workloads::{
    halfplane_batch, halfplane_with_selectivity, halfspace3_batch, points2, points3, BatchShape,
    Dist2, Dist3,
};

const BATCH: usize = 1000;

fn cached_device() -> Device {
    Device::new(DeviceConfig::new(2048, 512))
}

/// Cold vs batched on one index; returns (cold reads, batched reads).
fn check(index: &dyn RangeIndex, queries: &[Query], label: &str) -> (u64, u64) {
    assert_eq!(queries.len(), BATCH);
    let ex = BatchExecutor::new(index).keep_answers(true);
    let cold = ex.run_cold(queries);
    let batched = ex.run_batched(queries);
    assert_eq!((cold.mode, batched.mode), (ExecMode::Cold, ExecMode::Batched), "{label}");
    for report in [&cold, &batched] {
        assert_eq!(
            report.attributed_total(),
            report.total,
            "{label}: attribution must sum to the batch total"
        );
        assert_eq!(report.total.writes, 0, "{label}: report queries never write");
        let answers = report.answers.as_ref().unwrap();
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.query, i, "{label}: outcomes must be in submission order");
            assert_eq!(o.reported, answers[i].len(), "{label}: q{i} reported count");
        }
    }
    assert_eq!(cold.answers, batched.answers, "{label}: batching must not change answers");
    assert!(
        batched.reads() < cold.reads(),
        "{label}: batched reads {} must be strictly below cold {}",
        batched.reads(),
        cold.reads()
    );
    (cold.reads(), batched.reads())
}

#[test]
fn batched_beats_cold_hs2d_two_distributions() {
    for (dist, seed) in [(Dist2::Uniform, 1u64), (Dist2::Clustered, 2)] {
        let pts = points2(dist, 6000, 1 << 20, seed);
        let dev = cached_device();
        let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        let qs: Vec<Query> =
            halfplane_batch(&pts, BatchShape::ZipfRepeat { distinct: 24, s: 1.1 }, BATCH, 40, seed)
                .into_iter()
                .map(|(m, c)| Query::Halfplane { m, c, inclusive: false })
                .collect();
        check(&hs, &qs, &format!("hs2d/{dist:?}"));
    }
}

#[test]
fn batched_beats_cold_tradeoff_two_distributions() {
    for (dist, seed) in [(Dist3::Uniform, 3u64), (Dist3::Slab, 4)] {
        let pts = points3(dist, 2000, 1 << 18, seed);
        let dev = cached_device();
        let hy = HybridTree3::build(&dev, &pts, HybridConfig::default());
        let qs: Vec<Query> = halfspace3_batch(&pts, BatchShape::SortedSweep, BATCH, 30, seed)
            .into_iter()
            .map(|(u, v, w)| Query::Halfspace { u, v, w, inclusive: false })
            .collect();
        check(&hy, &qs, &format!("tradeoff-hybrid/{dist:?}"));
    }
}

#[test]
fn batched_beats_cold_baseline_two_distributions() {
    for (dist, seed) in [(Dist2::Uniform, 5u64), (Dist2::Diagonal, 6)] {
        let pts = points2(dist, 6000, 1 << 20, seed);
        let dev = cached_device();
        let kd = ExternalKdTree::build(&dev, &pts);
        let qs: Vec<Query> =
            halfplane_batch(&pts, BatchShape::ZipfRepeat { distinct: 16, s: 1.2 }, BATCH, 40, seed)
                .into_iter()
                .map(|(m, c)| Query::Halfplane { m, c, inclusive: false })
                .collect();
        check(&kd, &qs, &format!("kdtree/{dist:?}"));
    }
}

#[test]
fn empty_batch_yields_empty_reports_with_zeroed_deltas() {
    // Regression (ISSUE 9): a zero-query window from the serving loop
    // lands here as an empty batch — every executor must return an empty
    // report with zeroed deltas instead of tripping the "deltas sum to
    // aggregate" runtime assert (or panicking on an empty schedule).
    let pts = points2(Dist2::Uniform, 500, 1 << 16, 7);
    let dev = cached_device();
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());

    let ex = BatchExecutor::new(&hs).keep_answers(true);
    for (report, label) in [(ex.run_batched(&[]), "batched"), (ex.run_cold(&[]), "cold")] {
        assert!(report.outcomes.is_empty(), "{label}: no outcomes for no queries");
        assert_eq!(report.total, IoDelta::default(), "{label}: zeroed aggregate");
        assert_eq!(report.attributed_total(), report.total, "{label}: invariant holds on empty");
        assert_eq!(report.answers, Some(Vec::new()), "{label}: empty answer set");
    }

    let par = BatchExecutor::new(&hs).workers(4).keep_answers(true).run_batched(&[]);
    assert_eq!(par.per_worker.len(), 0, "no chunks for an empty batch");
    assert!(par.outcomes.is_empty() && par.per_worker.is_empty());
    assert_eq!(par.total, IoDelta::default());
    assert_eq!(par.attributed_total(), par.total);
    assert_eq!(par.answers, Some(Vec::new()));

    let dev2 = cached_device();
    let mut set = IndexSet::new();
    set.add(Box::new(HalfspaceRS2::build(&dev2, &pts, Hs2dConfig::default())));
    let plan = set.plan(&[]);
    assert!(plan.assignments.is_empty());
    for (rep, label) in [
        (set.execute_plan(&[], &plan, true), "plan"),
        (set.execute_parallel_plan(&[], &plan, 4, true), "parallel plan"),
    ] {
        assert!(rep.outcomes.is_empty() && rep.per_index.is_empty(), "{label}");
        assert_eq!(rep.total, IoDelta::default(), "{label}: zeroed aggregate");
        assert_eq!(rep.attributed_total(), rep.total, "{label}: invariant holds on empty");
        assert_eq!(rep.answers, Some(Vec::new()), "{label}: empty answer set");
    }
}

#[test]
fn schedule_is_a_locality_sorted_permutation() {
    let queries = vec![
        Query::Halfplane { m: 5, c: 0, inclusive: false },
        Query::Halfplane { m: -3, c: 10, inclusive: false },
        Query::Halfplane { m: 5, c: -2, inclusive: false },
        Query::Halfplane { m: -3, c: 10, inclusive: true },
    ];
    let pts = points2(Dist2::Uniform, 50, 1 << 20, 15);
    let dev = cached_device();
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    let order = BatchExecutor::new(&hs).schedule(&queries);
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 1, 2, 3], "schedule must be a permutation");
    // Duals: (-3,10) twice (submission order 1 then 3), then (5,-2), (5,0).
    assert_eq!(order, vec![1, 3, 2, 0]);
}

#[test]
fn cacheless_device_makes_batching_a_no_op() {
    let pts = points2(Dist2::Uniform, 1000, 1 << 20, 17);
    let dev = Device::new(DeviceConfig::new(512, 0));
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    let queries: Vec<Query> = (0..20)
        .map(|i| {
            let (m, c) = halfplane_with_selectivity(&pts, 50, 40, i);
            Query::Halfplane { m, c, inclusive: false }
        })
        .collect();
    let ex = BatchExecutor::new(&hs);
    let cold = ex.run_cold(&queries);
    let batched = ex.run_batched(&queries);
    assert_eq!(cold.reads(), batched.reads(), "no cache, no savings");
    assert_eq!(cold.total.cache_hits, 0);
}

#[test]
fn executor_reports_unsupported_queries_without_aborting() {
    // A mixed batch: the unsupported k-NN query gets an Unsupported
    // outcome (zero ids, zero IOs) while the halfplane queries around it
    // still run — the batch is never aborted.
    let pts = points2(Dist2::Uniform, 100, 1 << 20, 18);
    let dev = cached_device();
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    let queries = [
        Query::Halfplane { m: 1, c: 0, inclusive: false },
        Query::Knn { x: 0, y: 0, k: 3 },
        Query::Halfplane { m: -2, c: 100, inclusive: true },
    ];
    let report = BatchExecutor::new(&hs).keep_answers(true).run_batched(&queries);
    assert_eq!(report.unsupported(), 1);
    assert_eq!(report.outcomes[1].status, QueryStatus::Unsupported);
    assert_eq!(report.outcomes[1].reported, 0);
    assert_eq!(report.outcomes[1].io, IoDelta::default());
    for qi in [0, 2] {
        assert_eq!(report.outcomes[qi].status, QueryStatus::Ok);
        assert_eq!(
            report.answers.as_ref().unwrap()[qi].len(),
            report.outcomes[qi].reported,
            "supported queries still answer"
        );
    }
    assert_eq!(report.attributed_total(), report.total);
    // try_execute surfaces the same condition as a value.
    let err = hs.try_execute(&queries[1]).unwrap_err();
    assert_eq!(err.index, "hs2d");
}

#[test]
fn only_the_scan_and_the_knn_structure_take_knn() {
    let pts = points2(Dist2::Uniform, 800, 1 << 20, 11);
    let dev = cached_device();
    let hs2d = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    let scan = ExternalScan::build(&dev, &pts);
    let kd = ExternalKdTree::build(&dev, &pts);
    let rt = StrRTree::build(&dev, &pts);
    let pd: Vec<PointD<2>> = pts.iter().map(|&(x, y)| PointD::new([x, y])).collect();
    let pt = PartitionTree::<2>::build(&dev, &pd, PTreeConfig::default());
    let mut dynm = DynamicHalfspace2::new(&dev, Hs2dConfig::default());
    for (i, &(x, y)) in pts.iter().enumerate() {
        dynm.insert(x, y, i as u64);
    }
    let indexes: [&dyn RangeIndex; 6] = [&hs2d, &scan, &kd, &rt, &pt, &dynm];
    for idx in indexes {
        assert!(idx.supports(&Query::Halfplane { m: 1, c: 0, inclusive: false }));
        assert_eq!(
            idx.supports(&Query::Knn { x: 0, y: 0, k: 1 }),
            idx.name() == "scan",
            "{}",
            idx.name()
        );
    }
    // The lifted `knn` kind takes k-NN queries and no halfplanes.
    let small = points2(Dist2::Uniform, 300, 1000, 13);
    let knn = LiftedIndex::build(&dev, &small);
    assert!(knn.supports(&Query::Knn { x: 7, y: -3, k: 12 }));
    assert!(!knn.supports(&Query::Halfplane { m: 0, c: 0, inclusive: false }));
}
