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
//!   predicted-worst routing, and planned best-of-3 wall time is below
//!   always-scan's;
//! * per class, planned reads are at most 1.1× the fewest reads of any
//!   capable structure forced to answer that class (classes planned onto
//!   host-RAM answers that charge no reads are exempt);
//! * per-query IO attribution sums exactly to the aggregate;
//! * calibration constants round-trip through a snapshot catalog with
//!   identical plan decisions (no re-probing on reopen), and the catalog
//!   holds one pages file per device (its size is the ungated
//!   `catalog/roundtrip` `catalog_kib` cell).
//!
//! Ungated `calib/<structure>/<class>` cells record each (structure,
//! class) fit next to the mean reads measured when that structure is
//! forced to answer the class. The gated `adversarial/*` cells pin the
//! paper's §1.2 failure mode on the same fixture over points on a
//! diagonal: near-diagonal halfplanes with empty answers, and benign
//! oracle halfplanes, each planned and forced onto `hs2d` (Theorem 3.5).
//!
//! Run with `--smoke` for the CI-sized variant (which also emits
//! `BENCH_exp_planner.json` for the read-IO regression gate).

use std::time::{Duration, Instant};

use lcrs_bench::{
    brute_answer, canon_answer, full_index_set, lifted_oracle, lifted_probes, pages_files,
    print_table, BenchReport,
};
use lcrs_engine::{IndexSet, PlanReport, Query, QueryClass, SnapshotCatalog};
use lcrs_extmem::{Device, DeviceConfig, TempDir};
use lcrs_workloads::{points2, points3, Dist2, Dist3};

const PAGE: usize = 1024;
// Smaller than either scan file, so the always-scan routing pays its real
// Θ(n/B) per query instead of serving a fully resident file.
const CACHE_PAGES: usize = 32;
/// Per class, planned reads may exceed the best forced structure's by 10%.
const CLASS_SLACK: f64 = 1.1;
const CLASSES: usize = QueryClass::ALL.len();

/// Run a plan three times; the report of the fastest run and its wall.
/// Every run must read the same pages (each group starts on a cleared
/// cache) and attribute its IOs exactly.
fn best_of_3(mut run: impl FnMut() -> PlanReport) -> (PlanReport, f64) {
    let mut best: Option<(PlanReport, f64)> = None;
    for _ in 0..3 {
        let t = Instant::now();
        let report = run();
        let wall = t.elapsed().as_secs_f64();
        assert_eq!(report.attributed_total(), report.total, "per-query deltas must sum exactly");
        if let Some((first, best_wall)) = &best {
            assert_eq!(report.total, first.total, "repeated runs must read the same pages");
            if wall >= *best_wall {
                continue;
            }
        }
        best = Some((report, wall));
    }
    best.expect("three runs")
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

    // The measured probe pass, on seeds disjoint from the workload, with
    // probes of every class.
    let probes = lifted_probes(&pts2, &pts3, 81);
    let t = Instant::now();
    set.calibrate(&probes);
    let calibrate_ms = t.elapsed().as_secs_f64() * 1e3;

    // The mixed workload, interleaved — the same oracle construction
    // (helper, class mix, seeds) as the planner test suite's, evaluated
    // here over this bench's larger datasets.
    let queries = lifted_oracle(&pts2, &pts3, counts, 71);

    let planned_plan = set.plan(&queries);
    let scan_plan = set.scan_plan(&queries);
    let worst_plan = set.worst_plan(&queries);
    assert_eq!(planned_plan.unrouted(), 0, "the set covers every query class");
    assert_eq!(scan_plan.unrouted(), 0, "scan + scan3 cover every query class");

    let (planned, planned_wall) = best_of_3(|| set.execute_plan(&queries, &planned_plan, true));
    let (scanned, scanned_wall) = best_of_3(|| set.execute_plan(&queries, &scan_plan, true));
    let (worst, worst_wall) = best_of_3(|| set.execute_plan(&queries, &worst_plan, true));

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
    assert!(
        planned_wall < scanned_wall,
        "planned best-of-3 wall {:.1} ms must beat always-scan {:.1} ms",
        planned_wall * 1e3,
        scanned_wall * 1e3
    );

    // Each class's queries forced onto every structure that answers all
    // of them, as one batch: the per-class reference of the routing gate
    // and the measured side of the calibration table.
    let mut per_class: [Vec<Query>; CLASSES] = Default::default();
    for q in &queries {
        per_class[q.class() as usize].push(*q);
    }
    let capable = |slot: usize, class: QueryClass| {
        let of_class = &per_class[class as usize];
        !of_class.is_empty() && of_class.iter().all(|q| set.structure(slot).supports(q))
    };
    let forced: Vec<[u64; CLASSES]> = (0..set.len())
        .map(|slot| {
            QueryClass::ALL.map(|class| {
                if !capable(slot, class) {
                    return 0;
                }
                let batch = &per_class[class as usize];
                set.execute_plan(batch, &set.force_plan(slot, batch), false).reads()
            })
        })
        .collect();

    let mut report = BenchReport::new("exp_planner", smoke);
    let mut calib_rows: Vec<Vec<String>> = Vec::new();
    for slot in 0..set.len() {
        let index = set.structure(slot);
        for class in QueryClass::ALL.into_iter().filter(|&class| capable(slot, class)) {
            let fit = set.calibration(slot).class(class);
            let predicted = set.cost(slot, &per_class[class as usize][0]);
            let measured =
                forced[slot][class as usize] as f64 / per_class[class as usize].len() as f64;
            calib_rows.push(vec![
                index.name().to_string(),
                class.name().to_string(),
                format!("{}", fit.probes),
                format!("{:.3}", fit.constant),
                format!("{predicted:.1}"),
                format!("{measured:.1}"),
            ]);
            report
                .cell(format!("calib/{}/{}", index.name(), class.name()))
                .metric("probes", fit.probes as f64)
                .metric("constant", fit.constant)
                .metric("predicted_reads", predicted)
                .metric("measured_reads", measured);
        }
    }
    print_table(
        &format!(
            "Calibration per (structure, class) ({} probes, {calibrate_ms:.1} ms); measured = \
             mean reads per query with the structure forced onto the workload's class",
            probes.len()
        ),
        &["structure", "class", "probes", "constant", "predicted", "measured"],
        &calib_rows,
    );

    // The per-class routing gate.
    let mut planned_class = [0; CLASSES];
    for (q, o) in queries.iter().zip(&planned.outcomes) {
        planned_class[q.class() as usize] += o.io.reads;
    }
    let mut gate_rows: Vec<Vec<String>> = Vec::new();
    for class in QueryClass::ALL {
        let n = per_class[class as usize].len();
        if n == 0 {
            continue;
        }
        let mut routes: Vec<&str> = planned_plan
            .assignments
            .iter()
            .zip(&queries)
            .filter(|(_, q)| q.class() == class)
            .map(|(a, _)| set.structure(a.expect("routed")).name())
            .collect();
        routes.sort_unstable();
        routes.dedup();
        let got = planned_class[class as usize];
        let (best_slot, best) = (0..set.len())
            .filter(|&slot| capable(slot, class) && forced[slot][class as usize] > 0)
            .map(|slot| (slot, forced[slot][class as usize]))
            .min_by_key(|&(_, reads)| reads)
            .expect("a capable structure charges reads");
        let ratio = got as f64 / best as f64;
        // Host-RAM answers charge no reads; they are exempt until the
        // leveled core pages its disk and top-k answers.
        let exempt = got == 0;
        gate_rows.push(vec![
            class.name().to_string(),
            format!("{n}"),
            routes.join(" "),
            format!("{:.1}", got as f64 / n as f64),
            set.structure(best_slot).name().to_string(),
            format!("{:.1}", best as f64 / n as f64),
            if exempt { "exempt (0 reads)".to_string() } else { format!("{ratio:.3}") },
        ]);
        assert!(
            exempt || ratio <= CLASS_SLACK,
            "{}: planned {got} reads are {ratio:.2}× the best forced {} ({best})",
            class.name(),
            set.structure(best_slot).name()
        );
    }
    print_table(
        &format!("Per-class routing gate: planned reads ≤ {CLASS_SLACK}× the best forced"),
        &["class", "queries", "planned", "reads/q", "best forced", "reads/q", "ratio"],
        &gate_rows,
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
    let (par, par_wall) = best_of_3(|| set.execute_parallel_plan(&queries, &planned_plan, 4, true));
    assert_eq!(par.answers, planned.answers, "parallel plan execution must not change answers");

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
        "Routing policies on the mixed workload (answers pinned identical; best-of-3 wall)",
        &["policy", "queries", "reads", "wall_ms", "routing"],
        &rows,
    );
    println!(
        "\nGates: planned {} < always-scan {} and < worst {} reads; planned {:.1} ms < \
         always-scan {:.1} ms wall; answers bit-identical to the scan baseline on all {} \
         queries; reopened catalog ({} KiB, 2 pages files) plans identically.",
        planned.reads(),
        scanned.reads(),
        worst.reads(),
        planned_wall * 1e3,
        scanned_wall * 1e3,
        queries.len(),
        catalog_bytes / 1024
    );

    adversarial(n2, &pts3, &mut report);
    if smoke {
        report.write_default();
    }
}

/// The paper's §1.2 motivation on the planner's own fixture: points on a
/// diagonal, asked for the points below `y = x − c` (every answer empty),
/// plus benign oracle halfplanes over the same points. Each leg is
/// planned and forced onto `hs2d`, whose O(log_B n + t/B) bound holds on
/// any input; a heuristic structure the calibration favours on benign
/// queries degrades toward Θ(n/B) on the near-diagonal ones.
fn adversarial(n2: usize, pts3: &[(i64, i64, i64)], report: &mut BenchReport) {
    let pts2 = points2(Dist2::Diagonal, n2, 1 << 16, 3);
    let dev2 = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let dev3 = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let mut set = full_index_set(&dev2, &dev3, &pts2, pts3);
    set.calibrate(&lifted_probes(&pts2, pts3, 81));
    let hs2d = (0..set.len()).find(|&s| set.structure(s).name() == "hs2d").expect("hs2d slot");

    let near: Vec<Query> =
        (1..=64).map(|c| Query::Halfplane { m: 1, c: -c, inclusive: true }).collect();
    let oracle = lifted_oracle(&pts2, pts3, (200, 0, 0, 0, 0, 0), 71);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (leg, queries) in [("near-diagonal", &near), ("oracle", &oracle)] {
        let plan = set.plan(queries);
        for (kind, plan) in [("planned", plan), ("hs2d", set.force_plan(hs2d, queries))] {
            let rep = set.execute_plan(queries, &plan, true);
            assert_eq!(rep.attributed_total(), rep.total, "per-query deltas must sum exactly");
            for (qi, q) in queries.iter().enumerate() {
                assert_eq!(
                    canon_answer(q, rep.answers.as_ref().unwrap()[qi].clone()),
                    brute_answer(q, &pts2, pts3),
                    "{leg}/{kind} q{qi} {q:?}"
                );
            }
            let routing: Vec<String> =
                rep.per_index.iter().map(|r| format!("{}:{}", r.index, r.queries)).collect();
            rows.push(vec![
                format!("{leg}/{kind}"),
                format!("{}", queries.len()),
                format!("{}", rep.reads()),
                format!("{:.1}", rep.reads() as f64 / queries.len() as f64),
                routing.join(" "),
            ]);
            report
                .cell(format!("adversarial/{leg}/{kind}"))
                .metric("queries", queries.len() as f64)
                .metric("read_ios", rep.reads() as f64);
        }
    }
    print_table(
        &format!(
            "Paper §1.2 on the planner fixture: {n2} points on a diagonal, planned vs \
             forced onto hs2d (answers checked against brute force)"
        ),
        &["leg/routing", "queries", "reads", "reads/q", "routing"],
        &rows,
    );
}
