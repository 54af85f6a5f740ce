//! EXP-PLANNER — the cost-model query planner (DESIGN.md §10): a mixed
//! six-class workload (halfplane/halfspace/k-NN plus the DESIGN.md §15
//! disk/count/sum/top-k classes) over an [`IndexSet`] holding every
//! structure in the workspace, routed three ways — planned (calibrated
//! argmin), always-scan, and predicted-worst — with the differential gates
//! asserted on every run:
//!
//! * planned answers are bit-identical to the linear-scan baselines (and
//!   the scan baselines are themselves oracle-checked in the test suites);
//! * planned aggregate read IOs are strictly below always-scan *and*
//!   predicted-worst routing;
//! * per-query IO attribution sums exactly to the aggregate;
//! * calibration constants round-trip through a snapshot catalog with
//!   identical plan decisions (no re-probing on reopen), and the catalog
//!   holds one pages file per device (its size is the ungated
//!   `catalog/roundtrip` `catalog_kib` cell).
//!
//! Run with `--smoke` for the CI-sized variant (which also emits
//! `BENCH_exp_planner.json` for the read-IO regression gate).

use std::time::{Duration, Instant};

use lcrs_bench::{
    canon_answer, full_index_set, lifted_oracle, lifted_probes, pages_files, print_table,
    BenchReport,
};
use lcrs_engine::{IndexSet, Plan, PlanReport, Query, SnapshotCatalog};
use lcrs_extmem::{Device, DeviceConfig, TempDir};
use lcrs_workloads::{points2, points3, Dist2, Dist3};

const PAGE: usize = 1024;
// Smaller than either scan file, so the always-scan routing pays its real
// Θ(n/B) per query instead of serving a fully resident file.
const CACHE_PAGES: usize = 32;

fn class(q: &Query) -> &'static str {
    match q {
        Query::Halfplane { .. } => "halfplane",
        Query::Halfspace { .. } => "halfspace",
        Query::Knn { .. } => "knn",
        Query::Disk { .. } => "disk",
        Query::Count { .. } => "count",
        Query::Sum { .. } => "sum",
        Query::TopK { .. } => "topk",
    }
}

fn run_plan(set: &IndexSet, queries: &[Query], plan: &Plan) -> (PlanReport, f64) {
    let t = Instant::now();
    let report = set.execute_plan(queries, plan, true);
    let wall = t.elapsed().as_secs_f64();
    assert_eq!(report.attributed_total(), report.total, "per-query deltas must sum exactly");
    (report, wall)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n2, n3, counts) = if smoke {
        (4096, 2048, (180, 80, 60, 72, 72, 36))
    } else {
        (16384, 6144, (720, 320, 240, 288, 288, 144))
    };
    let total = counts.0 + counts.1 + counts.2 + counts.3 + counts.4 + counts.5;
    println!(
        "# EXP-PLANNER: planned vs always-scan vs worst routing on a mixed \
         six-class {total}-query workload, page={PAGE}B, cache={CACHE_PAGES} pages{}",
        if smoke { " (smoke)" } else { "" }
    );

    // One 2D and one 3D dataset; every structure in the workspace. The 2D
    // range stays inside the lift budget, so the lifted structure keeps
    // every point in its 3D structure and none in the exact-scan tail.
    let pts2 = points2(Dist2::Clustered, n2, 1000, 61);
    let pts3 = points3(Dist3::Uniform, n3, 1 << 16, 62);

    // The canonical eleven-structure fixture, shared with the planner
    // test suite (slot order is load-bearing for tie-breaking).
    let dev2 = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let dev3 = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let mut set = full_index_set(&dev2, &dev3, &pts2, &pts3);

    // The measured probe pass, on seeds disjoint from the workload; the
    // aggregate probes populate the dual calibration's aggregate side.
    let probes = lifted_probes(&pts2, &pts3, 81);
    let t = Instant::now();
    set.calibrate(&probes);
    let calibrate_ms = t.elapsed().as_secs_f64() * 1e3;

    let calib_table: Vec<Vec<String>> = (0..set.len())
        .map(|slot| {
            let hint = set.structure(slot).cost_hint();
            let c = set.calibration(slot);
            vec![
                set.structure(slot).name().to_string(),
                format!("{:?}", hint.shape),
                format!("{:.1}", hint.structural_reads()),
                format!("{:.3}", c.constant),
                format!("{}", c.probes),
            ]
        })
        .collect();
    print_table(
        &format!("Calibration ({} probes, {calibrate_ms:.1} ms)", probes.len()),
        &["structure", "shape", "structural", "constant", "probes"],
        &calib_table,
    );

    // The mixed workload, interleaved — the same oracle construction
    // (helper, class mix, seeds) as the planner test suite's, evaluated
    // here over this bench's larger datasets.
    let queries = lifted_oracle(&pts2, &pts3, counts, 71);

    let planned_plan = set.plan(&queries);
    let scan_plan = set.scan_plan(&queries);
    let worst_plan = set.worst_plan(&queries);
    assert_eq!(planned_plan.unrouted(), 0, "the set covers every query class");
    assert_eq!(scan_plan.unrouted(), 0, "scan + scan3 cover every query class");

    let (planned, planned_wall) = run_plan(&set, &queries, &planned_plan);
    let (scanned, scanned_wall) = run_plan(&set, &queries, &scan_plan);
    let (worst, worst_wall) = run_plan(&set, &queries, &worst_plan);

    // Differential gate: planned answers == the linear-scan baseline's.
    let planned_answers = planned.answers.as_ref().unwrap();
    let scanned_answers = scanned.answers.as_ref().unwrap();
    for (qi, q) in queries.iter().enumerate() {
        assert_eq!(
            canon_answer(q, planned_answers[qi].clone()),
            canon_answer(q, scanned_answers[qi].clone()),
            "q{qi} {q:?}: planned must match the scan baseline bit-identically"
        );
    }
    assert!(
        planned.reads() < scanned.reads(),
        "planned {} read IOs must strictly beat always-scan {}",
        planned.reads(),
        scanned.reads()
    );
    assert!(
        planned.reads() < worst.reads(),
        "planned {} read IOs must strictly beat worst routing {}",
        planned.reads(),
        worst.reads()
    );

    // Calibration round trip: a catalog-reopened set plans identically.
    // Its eleven entries live on two devices, so it holds two pages files.
    let dir = TempDir::new("lcrs-exp-planner");
    dev2.freeze();
    dev3.freeze();
    let mut cat = SnapshotCatalog::create(dir.path()).expect("catalog");
    for slot in 0..set.len() {
        cat.add(&format!("s{slot}"), set.structure(slot)).expect("catalog add");
    }
    set.save_calibration_to_catalog(&cat).expect("save calibration");
    assert_eq!(pages_files(dir.path()).len(), 2, "the catalog writes each store's pages once");
    let catalog_bytes: u64 = std::fs::read_dir(dir.path())
        .expect("catalog directory")
        .map(|e| e.expect("directory entry").metadata().expect("file metadata").len())
        .sum();
    let reopened = IndexSet::from_catalog(&cat, CACHE_PAGES).expect("reopen");
    let re_plan = reopened.plan(&queries);
    assert_eq!(
        planned_plan.assignments, re_plan.assignments,
        "a reopened catalog must plan identically without re-probing"
    );

    // Parallel composition: the planned routing under sharded execution.
    let t = Instant::now();
    let par = set.execute_parallel_plan(&queries, &planned_plan, 4, true);
    let par_wall = t.elapsed().as_secs_f64();
    assert_eq!(par.answers, planned.answers, "parallel plan execution must not change answers");
    assert_eq!(par.attributed_total(), par.total);

    let mut report = BenchReport::new("exp_planner", smoke);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (kind, rep, wall) in [
        ("planned", &planned, planned_wall),
        ("always-scan", &scanned, scanned_wall),
        ("worst", &worst, worst_wall),
        ("planned-par4", &par, par_wall),
    ] {
        let routing: Vec<String> =
            rep.per_index.iter().map(|r| format!("{}:{}", r.index, r.queries)).collect();
        rows.push(vec![
            kind.to_string(),
            format!("{}", queries.len()),
            format!("{}", rep.reads()),
            format!("{:.1}", wall * 1e3),
            routing.join(" "),
        ]);
        report
            .cell(format!("plan/{kind}"))
            .metric("queries", queries.len() as f64)
            .metric("read_ios", rep.reads() as f64)
            .metric("wall_s", wall)
            .report_wall(Duration::from_secs_f64(wall));
    }
    // Ungated: the catalog's size on disk, all files included.
    report.cell("catalog/roundtrip").metric("catalog_kib", (catalog_bytes / 1024) as f64);
    print_table(
        "Routing policies on the mixed workload (answers pinned identical)",
        &["policy", "queries", "reads", "wall_ms", "routing"],
        &rows,
    );

    // Per-class routing of the planned policy, for the table's readers.
    let mut by_class: Vec<(String, usize)> = Vec::new();
    for (qi, a) in planned_plan.assignments.iter().enumerate() {
        let name = set.structure(a.expect("routed")).name();
        let key = format!("{}->{}", class(&queries[qi]), name);
        match by_class.iter_mut().find(|(k, _)| *k == key) {
            Some((_, c)) => *c += 1,
            None => by_class.push((key, 1)),
        }
    }
    by_class.sort();
    println!("\nPlanned routing: {by_class:?}");
    println!(
        "\nGates: planned {} < always-scan {} and < worst {}; answers bit-identical to the \
         scan baseline on all {} queries; reopened catalog ({} KiB, 2 pages files) plans \
         identically.",
        planned.reads(),
        scanned.reads(),
        worst.reads(),
        queries.len(),
        catalog_bytes / 1024
    );
    if smoke {
        report.write_default();
    }
}
