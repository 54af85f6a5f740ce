//! Acceptance + property suite for the cost-model query planner (ISSUE 5;
//! derived query classes per DESIGN.md §15).
//!
//! The shared fixture is a fifteen-structure [`IndexSet`] over one 2D and
//! one 3D dataset — every `RangeIndex` structure in the workspace (now
//! including the four lifted-disk backends) plus the scan baselines
//! covering all six query classes — calibrated by a measured probe pass,
//! and a mixed 500-query oracle workload (180 halfplane + 80 halfspace +
//! 60 k-NN + 72 disk + 72 count/sum + 36 top-k, interleaved).
//!
//! Pinned here:
//! * planned answers are bit-identical to routing every query through the
//!   linear-scan baselines, and both match host-side brute force;
//! * planned aggregate read IOs strictly beat always-scan routing *and*
//!   predicted-worst routing;
//! * per-query IO attribution sums exactly to the aggregate;
//! * `force_plan(slot)` reproduces a direct `BatchExecutor` run on that
//!   structure bit-identically (outcome, IO, and answer);
//! * parallel plan execution matches sequential plan execution;
//! * calibration constants round-trip through a `SnapshotCatalog` and a
//!   reopened set makes identical plan decisions without re-probing;
//! * (property) no plan ever routes a query to a structure whose
//!   `supports()` rejects it, scan plans stay on scan-class structures,
//!   and the planned choice never predicts worse than the worst choice.

use std::sync::{Mutex, MutexGuard, OnceLock};

use lcrs::baselines::ExternalScan;
use lcrs::engine::{BatchExecutor, IndexSet, Plan, Query, QueryStatus, SnapshotCatalog};
use lcrs::extmem::{Device, DeviceConfig, ReopenBackend, TempDir};
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs::workloads::{points2, points3, Dist2, Dist3};
use lcrs_bench::{brute_answer, canon_answer, full_index_set, lifted_oracle, lifted_probes};
use proptest::prelude::*;

const PAGE: usize = 1024;
// Smaller than either scan file, so always-scan routing really pays Θ(n/B)
// per query instead of serving from a fully resident cache.
const CACHE_PAGES: usize = 12;
const N2: usize = 1400;
const N3: usize = 700;

struct State {
    /// Keeps the devices (and their page stores) alive for the suite.
    devices: Vec<Device>,
    set: IndexSet,
    queries: Vec<Query>,
    /// Brute-force reference answer per query (sorted ids; k-NN ordered).
    reference: Vec<Vec<u64>>,
}

fn build_state() -> State {
    let pts2 = points2(Dist2::Clustered, N2, 1000, 61);
    let pts3 = points3(Dist3::Uniform, N3, 1 << 16, 62);

    // The canonical fifteen-structure fixture, shared with exp_planner
    // (slot order is load-bearing for tie-breaking — scans sit last).
    let dev2 = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let dev3 = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let mut set = full_index_set(&dev2, &dev3, &pts2, &pts3);

    // The measured probe pass, on seeds disjoint from the workload; the
    // aggregate probes populate the dual calibration's aggregate side.
    set.calibrate(&lifted_probes(&pts2, &pts3, 81));

    // The mixed 500-query oracle workload across all six query classes,
    // deterministically interleaved — the same construction as
    // exp_planner's (the query coefficients differ with the dataset, which
    // is smaller here).
    let queries = lifted_oracle(&pts2, &pts3, (180, 80, 60, 72, 72, 36), 71);
    assert_eq!(queries.len(), 500);
    let reference: Vec<Vec<u64>> = queries.iter().map(|q| brute_answer(q, &pts2, &pts3)).collect();
    State { devices: vec![dev2, dev3], set, queries, reference }
}

/// The fixture is expensive (eleven structure builds) and the executors
/// measure IO on shared device scopes, so tests serialize on one mutex.
fn state() -> MutexGuard<'static, State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(build_state())).lock().unwrap()
}

#[test]
fn planner_beats_scan_and_worst_on_the_mixed_oracle_workload() {
    let st = state();
    let (set, queries) = (&st.set, &st.queries);

    let planned_plan = set.plan(queries);
    let scan_plan = set.scan_plan(queries);
    let worst_plan = set.worst_plan(queries);
    assert_eq!(planned_plan.unrouted(), 0, "the set covers every query class");
    assert_eq!(scan_plan.unrouted(), 0, "scan + scan3 cover every query class");

    let planned = set.execute_plan(queries, &planned_plan, true);
    let scanned = set.execute_plan(queries, &scan_plan, true);
    let worst = set.execute_plan(queries, &worst_plan, true);

    // Differential gate: planned answers == scan-baseline answers ==
    // host-side brute force, on all 500 queries.
    let planned_answers = planned.answers.as_ref().unwrap();
    let scanned_answers = scanned.answers.as_ref().unwrap();
    for (qi, q) in queries.iter().enumerate() {
        let want = &st.reference[qi];
        assert_eq!(&canon_answer(q, planned_answers[qi].clone()), want, "planned q{qi} {q:?}");
        assert_eq!(&canon_answer(q, scanned_answers[qi].clone()), want, "scanned q{qi} {q:?}");
        assert_eq!(planned.outcomes[qi].status, QueryStatus::Ok);
        assert_eq!(planned.outcomes[qi].reported, want.len());
    }

    // Attribution: per-query deltas sum exactly to the aggregate, and the
    // per-structure sub-batch totals do too.
    for report in [&planned, &scanned, &worst] {
        assert_eq!(report.attributed_total(), report.total);
        let sub_sum: lcrs::extmem::IoDelta = report.per_index.iter().map(|r| r.io).sum();
        assert_eq!(sub_sum, report.total);
    }

    // The IO gate: planned reads strictly beat both alternatives.
    assert!(
        planned.reads() < scanned.reads(),
        "planned {} must beat always-scan {}",
        planned.reads(),
        scanned.reads()
    );
    assert!(
        planned.reads() < worst.reads(),
        "planned {} must beat worst routing {}",
        planned.reads(),
        worst.reads()
    );

    // Report queries never write.
    assert_eq!(planned.total.writes, 0);
}

#[test]
fn force_plan_reproduces_direct_execution_bit_identically() {
    let st = state();
    let (set, queries) = (&st.set, &st.queries);
    for slot in 0..set.len() {
        let plan = set.force_plan(slot, queries);
        let forced = set.execute_plan(queries, &plan, true);
        // The unplanned reference: the same structure fed the whole mixed
        // batch through a BatchExecutor directly (unsupported queries
        // produce zero-IO Unsupported outcomes there too).
        let direct =
            BatchExecutor::new(set.structure(slot)).keep_answers(true).run_batched(queries);
        assert_eq!(forced.total, direct.total, "slot {slot} totals");
        for (f, d) in forced.outcomes.iter().zip(&direct.outcomes) {
            assert_eq!(
                (f.query, f.status, f.reported, f.io),
                (d.query, d.status, d.reported, d.io),
                "slot {slot} ({}) outcome",
                set.structure(slot).name()
            );
        }
        assert_eq!(forced.answers, direct.answers, "slot {slot} answers");
    }
}

#[test]
fn parallel_plan_execution_matches_sequential() {
    let st = state();
    let (set, queries) = (&st.set, &st.queries);
    // Parallel workers need lock-free reads to be interesting, but the
    // executor is correct either way; freeze to exercise the real path.
    for dev in &st.devices {
        dev.freeze();
    }
    let plan = set.plan(queries);
    let sequential = set.execute_plan(queries, &plan, true);
    for workers in [1usize, 4] {
        let parallel = set.execute_parallel_plan(queries, &plan, workers, true);
        assert_eq!(parallel.answers, sequential.answers, "{workers} workers");
        assert_eq!(parallel.attributed_total(), parallel.total, "{workers} workers");
        for (p, s) in parallel.outcomes.iter().zip(&sequential.outcomes) {
            assert_eq!((p.query, p.status, p.reported), (s.query, s.status, s.reported));
        }
        if workers == 1 {
            assert_eq!(parallel.total, sequential.total, "1 worker == sequential IO");
        }
    }
}

#[test]
fn calibration_roundtrips_through_the_catalog_with_identical_plans() {
    let dir = TempDir::new("lcrs-planner-catalog");
    let st = state();
    let (set, queries) = (&st.set, &st.queries);
    for dev in &st.devices {
        dev.freeze(); // catalog entries require frozen devices
    }

    let mut cat = SnapshotCatalog::create(dir.path()).unwrap();
    for slot in 0..set.len() {
        cat.add(&format!("s{slot}"), set.structure(slot)).unwrap();
    }
    set.save_calibration_to_catalog(&cat).unwrap();

    // Reopen: calibration loads from the catalog — no re-probing.
    let reopened =
        IndexSet::from_catalog(&SnapshotCatalog::open(dir.path()).unwrap(), CACHE_PAGES).unwrap();
    assert_eq!(reopened.len(), set.len());
    for slot in 0..set.len() {
        assert_eq!(reopened.structure(slot).name(), set.structure(slot).name());
        assert_eq!(
            reopened.calibration(slot).constant.to_bits(),
            set.calibration(slot).constant.to_bits(),
            "slot {slot}: constants must round-trip bit-exactly"
        );
        assert_eq!(reopened.calibration(slot).probes, set.calibration(slot).probes);
    }

    // Identical plan decisions…
    let plan = set.plan(queries);
    let re_plan = reopened.plan(queries);
    assert_eq!(plan.assignments, re_plan.assignments);
    for (a, b) in plan.predicted.iter().zip(&re_plan.predicted) {
        assert_eq!(a.to_bits(), b.to_bits(), "predicted costs must match bit-exactly");
    }

    // …and identical execution: answers and read-IO totals (persistence
    // moves bytes, never the cost model — DESIGN.md §9).
    let original = set.execute_plan(queries, &plan, true);
    let re_run = reopened.execute_plan(queries, &re_plan, true);
    let original_answers = original.answers.as_ref().unwrap();
    let re_answers = re_run.answers.as_ref().unwrap();
    for (qi, q) in queries.iter().enumerate() {
        assert_eq!(
            canon_answer(q, original_answers[qi].clone()),
            canon_answer(q, re_answers[qi].clone()),
            "q{qi}"
        );
    }
    assert_eq!(original.total, re_run.total, "reopened IO totals must be identical");
}

#[test]
fn oracle_is_bit_identical_across_memory_pread_and_mmap_backends() {
    // The ISSUE 8 backend-parity oracle: the full 500-query mixed workload
    // through the in-memory set and through catalog reopens on both
    // storage backends — identical routing, answers, per-query outcomes,
    // and model read-IO totals, sequentially and in parallel.
    let dir = TempDir::new("lcrs-planner-backends");
    let st = state();
    let (set, queries) = (&st.set, &st.queries);
    for dev in &st.devices {
        dev.freeze();
    }
    let mut cat = SnapshotCatalog::create(dir.path()).unwrap();
    for slot in 0..set.len() {
        cat.add(&format!("s{slot}"), set.structure(slot)).unwrap();
    }
    set.save_calibration_to_catalog(&cat).unwrap();
    let cat = SnapshotCatalog::open(dir.path()).unwrap();

    let plan = set.plan(queries);
    let memory = set.execute_plan(queries, &plan, true);

    let pread = IndexSet::from_catalog(&cat, CACHE_PAGES).unwrap();
    let mmap = IndexSet::from_catalog_as(&cat, CACHE_PAGES, ReopenBackend::Mmap).unwrap();

    for (name, reopened) in [("pread", &pread), ("mmap", &mmap)] {
        let re_plan = reopened.plan(queries);
        assert_eq!(re_plan.assignments, plan.assignments, "{name}: identical routing");
        let run = reopened.execute_plan(queries, &re_plan, true);
        assert_eq!(run.answers, memory.answers, "{name}: sequential answers");
        assert_eq!(run.total, memory.total, "{name}: sequential read-IO totals");
        for (a, b) in run.outcomes.iter().zip(&memory.outcomes) {
            assert_eq!(
                (a.query, a.status, a.reported, a.io),
                (b.query, b.status, b.reported, b.io),
                "{name}: per-query outcome and IO delta"
            );
        }
        for workers in [1usize, 4] {
            let par = reopened.execute_parallel_plan(queries, &re_plan, workers, true);
            assert_eq!(par.answers, memory.answers, "{name}/{workers}: parallel answers");
            assert_eq!(par.attributed_total(), par.total, "{name}/{workers}: attribution");
            if workers == 1 {
                assert_eq!(par.total, memory.total, "{name}/{workers}: 1 worker == sequential");
            }
        }
    }
}

#[test]
fn uncalibrated_sets_rank_by_the_paper_shapes() {
    // Before any probe pass the cost model is the raw paper bound: a
    // logarithmic structure must out-rank the scan for a 2D report query.
    let pts = points2(Dist2::Uniform, 300, 1000, 91);
    let dev = Device::new(DeviceConfig::new(PAGE, 8));
    let hs2d = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    let scan = ExternalScan::build(&dev, &pts);
    let mut set = IndexSet::new();
    let scan_slot = set.add(Box::new(scan));
    let hs_slot = set.add(Box::new(hs2d));
    let q = Query::Halfplane { m: 1, c: 0, inclusive: false };
    assert!(set.cost(hs_slot, &q) < set.cost(scan_slot, &q));
    let plan = set.plan(&[q]);
    assert_eq!(plan.assignments, vec![Some(hs_slot)]);
    // An empty set plans nothing and executes to all-Unsupported.
    let empty = IndexSet::new();
    let plan = empty.plan(&[q]);
    assert_eq!(plan.assignments, vec![None]);
    let report = empty.execute_plan(&[q], &plan, true);
    assert_eq!(report.unsupported(), 1);
    assert_eq!(report.total, lcrs::extmem::IoDelta::default());
}

/// Check the structural plan invariants for any plan over any queries.
fn check_plan_invariants(set: &IndexSet, queries: &[Query], plan: &Plan, scan_only: bool) {
    assert_eq!(plan.assignments.len(), queries.len());
    for (qi, (assignment, q)) in plan.assignments.iter().zip(queries).enumerate() {
        match *assignment {
            Some(slot) => {
                assert!(slot < set.len(), "q{qi}: slot in range");
                assert!(
                    set.structure(slot).supports(q),
                    "q{qi}: routed to {}, which rejects {q:?}",
                    set.structure(slot).name()
                );
                if scan_only {
                    assert!(
                        set.structure(slot).cost_hint().is_scan(),
                        "q{qi}: scan plan routed to non-scan {}",
                        set.structure(slot).name()
                    );
                }
                assert!(plan.predicted[qi] > 0.0);
            }
            None => {
                if !scan_only {
                    assert!(
                        (0..set.len()).all(|s| !set.structure(s).supports(q)),
                        "q{qi}: unrouted despite a capable structure"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn plans_only_route_to_supporting_structures(
        picks in prop::collection::vec((0usize..500, any::<bool>()), 1..60),
        force_slot in 0usize..11,
    ) {
        let st = state();
        let (set, pool) = (&st.set, &st.queries);
        // A pseudo-random sub-batch of the oracle pool, with some queries
        // mutated to exercise different coefficients.
        let queries: Vec<Query> = picks
            .iter()
            .map(|&(i, flip)| {
                let q = pool[i % pool.len()];
                match (q, flip) {
                    (Query::Halfplane { m, c, .. }, true) => {
                        Query::Halfplane { m: -m, c, inclusive: true }
                    }
                    (Query::Knn { x, y, k }, true) => Query::Knn { x: -x, y: -y, k: k.max(1) },
                    _ => q,
                }
            })
            .collect();

        let planned = set.plan(&queries);
        let worst = set.worst_plan(&queries);
        let scan = set.scan_plan(&queries);
        check_plan_invariants(set, &queries, &planned, false);
        check_plan_invariants(set, &queries, &worst, false);
        check_plan_invariants(set, &queries, &scan, true);
        // Forced plans route exactly the queries the forced slot supports
        // (elsewhere-capable queries legitimately stay unrouted here, so
        // the all-capable invariant helper does not apply).
        let forced = set.force_plan(force_slot, &queries);
        for (qi, a) in forced.assignments.iter().enumerate() {
            match *a {
                Some(slot) => {
                    prop_assert_eq!(slot, force_slot);
                    prop_assert!(set.structure(slot).supports(&queries[qi]));
                }
                None => prop_assert!(!set.structure(force_slot).supports(&queries[qi])),
            }
        }
        // The planned choice never predicts worse than the worst choice,
        // and both route exactly the supportable queries.
        for qi in 0..queries.len() {
            prop_assert_eq!(planned.assignments[qi].is_some(), worst.assignments[qi].is_some());
            prop_assert!(planned.predicted[qi] <= worst.predicted[qi]);
        }
    }
}
