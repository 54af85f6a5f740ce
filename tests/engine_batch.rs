//! Acceptance test for the batch engine (ISSUE 2): a 1k-query batch
//! through the BatchExecutor with a warm shared cache costs strictly fewer
//! total read IOs than the same queries issued one-at-a-time cold — for
//! hs2d, a Section 6 trade-off structure, and a baseline, on two
//! distributions each — with per-query IoDelta attribution summing to the
//! batch total and answers unchanged.

use lcrs::baselines::ExternalKdTree;
use lcrs::engine::{BatchExecutor, IndexSet, Query, RangeIndex};
use lcrs::extmem::{Device, DeviceConfig, IoDelta};
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs::halfspace::tradeoff::{HybridConfig, HybridTree3};
use lcrs::workloads::{
    halfplane_batch, halfspace3_batch, points2, points3, BatchShape, Dist2, Dist3,
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
    for report in [&cold, &batched] {
        assert_eq!(
            report.attributed_total(),
            report.total,
            "{label}: attribution must sum to the batch total"
        );
        assert_eq!(report.total.writes, 0, "{label}: report queries never write");
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
