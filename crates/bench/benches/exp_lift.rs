//! EXP-LIFT — the lifted and annotated query classes (DESIGN.md §15):
//! what the reductions buy in read IOs over answering the same questions
//! from the flat 2D representation.
//!
//! Two comparisons, both differential (answers pinned bit-identical to the
//! exact host-side brute force before any IO number is reported):
//!
//! * **disk via lift vs 2D scan** — [`Query::Disk`] answered by the
//!   paraboloid-lifted 3D structure (the `knn` kind of `LiftedIndex`; its
//!   cell keeps the id `disk/lift-hs3d`) versus the Θ(n/B) 2D
//!   scan, cold cache per query, on the bounded-radius (output-sensitive)
//!   regime the lift targets: `disk_mixed` draws whose r² exceeds the
//!   sweep radius report a constant fraction of the dataset, where any
//!   structure degenerates to a leaf sweep, so they are dropped up front
//!   (the count is printed — nothing is excluded silently). The lift must
//!   cost strictly fewer total read IOs on what remains.
//! * **count/sum via annotation vs enumerate-then-count** — the same
//!   `(m, c, inclusive)` aggregates answered from the internal-node
//!   weight annotations ([`Query::Count`]/[`Query::Sum`]) versus running
//!   the full [`Query::Halfplane`] report and counting/summing host-side.
//!   Annotated must cost strictly fewer page reads. The k-d tree wins
//!   across the whole `aggregate_mixed` coverage range (subtree weights
//!   cut off every fully-below branch). The 2D halfspace structure pays
//!   a per-cluster annotation sidecar on top of its line pages, so its
//!   certificates only pay off once whole clusters are fully below —
//!   above ≈70% coverage on this fixture — and it is measured on a
//!   70–98% coverage sweep, the regime the aggregate classes target.
//!
//! Run with `--smoke` for the CI-sized variant (which also emits
//! `BENCH_exp_lift.json` for the read-IO regression gate).

use std::time::{Duration, Instant};

use lcrs_baselines::{ExternalKdTree, ExternalScan};
use lcrs_bench::{brute_answer, canon_answer, print_table, BenchReport};
use lcrs_engine::{decode_sum, BatchExecutor, LiftedIndex, Query, RangeIndex};
use lcrs_extmem::{Device, DeviceConfig};
use lcrs_halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs_workloads::{aggregate_mixed, disk_mixed, halfplane_with_selectivity, points2, Dist2};

const PAGE: usize = 4096;
const CACHE_PAGES: usize = 128;
const R_MAX: i64 = 200;

/// Cold-cache batch on one structure; answers kept for the differential
/// gates, per-query attribution asserted exact.
fn run_cold(index: &dyn RangeIndex, queries: &[Query]) -> (Vec<Vec<u64>>, u64, f64) {
    let ex = BatchExecutor::new(index).keep_answers(true);
    let t0 = Instant::now();
    let report = ex.run_cold(queries);
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.attributed_total(), report.total, "{}: attribution", index.name());
    assert_eq!(report.unsupported(), 0, "{}: all queries supported", index.name());
    let reads = report.reads();
    (report.answers.unwrap(), reads, wall)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n2, q_disk, q_agg) = if smoke { (16384, 80, 80) } else { (32768, 160, 160) };
    println!(
        "# EXP-LIFT: lifted disks vs 2D scan, annotated aggregates vs \
         enumerate-then-count, page={PAGE}B, cache={CACHE_PAGES} pages, cold per query{}",
        if smoke { " (smoke)" } else { "" }
    );

    let pts = points2(Dist2::Uniform, n2, 1000, 61);
    let mut report = BenchReport::new("exp_lift", smoke);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let cell = |report: &mut BenchReport,
                rows: &mut Vec<Vec<String>>,
                name: &str,
                queries: usize,
                reads: u64,
                wall: f64| {
        rows.push(vec![
            name.to_string(),
            format!("{queries}"),
            format!("{reads}"),
            format!("{:.1}", wall * 1e3),
        ]);
        report
            .cell(name)
            .metric("queries", queries as f64)
            .metric("read_ios", reads as f64)
            .metric("wall_s", wall)
            .report_wall(Duration::from_secs_f64(wall));
    };

    // ── Disk via lift vs 2D scan ────────────────────────────────────────
    let raw = disk_mixed(&pts, 3 * q_disk, R_MAX, 91);
    let dropped = raw.iter().filter(|&&(_, _, r2, _)| r2 > R_MAX * R_MAX).count();
    let disks: Vec<Query> = raw
        .into_iter()
        .filter(|&(_, _, r2, _)| r2 <= R_MAX * R_MAX)
        .take(q_disk)
        .map(|(x, y, r2, inclusive)| Query::Disk { x, y, r2, inclusive })
        .collect();
    assert_eq!(disks.len(), q_disk, "enough bounded-radius draws");
    println!(
        "disk workload: {q_disk} bounded-radius queries kept (r² ≤ {}); {dropped} of {} raw \
         draws were beyond the sweep radius and excluded",
        R_MAX * R_MAX,
        3 * q_disk
    );
    let dev_lift = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let dev_scan = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let lift = LiftedIndex::build(&dev_lift, &pts);
    let scan = ExternalScan::build(&dev_scan, &pts);

    let (lift_answers, lift_reads, lift_wall) = run_cold(&lift, &disks);
    let (scan_answers, scan_reads, scan_wall) = run_cold(&scan, &disks);
    for (qi, q) in disks.iter().enumerate() {
        let want = brute_answer(q, &pts, &[]);
        assert_eq!(canon_answer(q, lift_answers[qi].clone()), want, "q{qi} {q:?}: lift");
        assert_eq!(canon_answer(q, scan_answers[qi].clone()), want, "q{qi} {q:?}: scan");
    }
    assert!(
        lift_reads < scan_reads,
        "lifted disks {lift_reads} read IOs must strictly beat the 2D scan {scan_reads}"
    );
    cell(&mut report, &mut rows, "disk/lift-hs3d", disks.len(), lift_reads, lift_wall);
    cell(&mut report, &mut rows, "disk/scan2d", disks.len(), scan_reads, scan_wall);

    // ── Count/Sum via annotation vs enumerate-then-count ────────────────
    // The same (m, c, inclusive) triples, posed twice: as aggregates
    // (annotation-pruned) and as full halfplane reports whose ids are
    // counted/summed host-side.
    let devs: Vec<Device> =
        (0..4).map(|_| Device::new(DeviceConfig::new(PAGE, CACHE_PAGES))).collect();
    let hs_ann = HalfspaceRS2::build(&devs[0], &pts, Hs2dConfig::default());
    let hs_enum = HalfspaceRS2::build(&devs[1], &pts, Hs2dConfig::default());
    let kd_ann = ExternalKdTree::build(&devs[2], &pts);
    let kd_enum = ExternalKdTree::build(&devs[3], &pts);

    // Mixed coverage (t from 0 to n/2) for the k-d tree; a 70–98% coverage
    // sweep for the 2D halfspace structure, whose cluster certificates
    // only overtake the sidecar cost at high coverage.
    let mixed_params = aggregate_mixed(&pts, q_agg, 48, 92);
    let high_params: Vec<(i64, i64, bool, bool)> = (0..q_agg)
        .map(|i| {
            let t = n2 * 70 / 100 + i * (n2 * 28 / 100) / q_agg;
            let (m, c) = halfplane_with_selectivity(&pts, t, 48, 7700 + i as u64);
            (m, c, i % 3 != 0, i % 2 == 1)
        })
        .collect();

    let legs: [(&str, &str, &dyn RangeIndex, &dyn RangeIndex, &[(i64, i64, bool, bool)]); 2] = [
        ("agg-mixed", "kdtree", &kd_ann, &kd_enum, &mixed_params),
        ("agg-high", "hs2d", &hs_ann, &hs_enum, &high_params),
    ];
    for (regime, name, ann_index, enum_index, params) in legs {
        let aggs: Vec<Query> = params
            .iter()
            .map(|&(m, c, inclusive, sum)| {
                if sum {
                    Query::Sum { m, c, inclusive }
                } else {
                    Query::Count { m, c, inclusive }
                }
            })
            .collect();
        let reports: Vec<Query> = params
            .iter()
            .map(|&(m, c, inclusive, _)| Query::Halfplane { m, c, inclusive })
            .collect();

        let (ann_answers, ann_reads, ann_wall) = run_cold(ann_index, &aggs);
        let (enum_answers, enum_reads, enum_wall) = run_cold(enum_index, &reports);
        for (qi, q) in aggs.iter().enumerate() {
            assert_eq!(canon_answer(q, ann_answers[qi].clone()), brute_answer(q, &pts, &[]));
            let ids = &enum_answers[qi];
            let host = match *q {
                Query::Count { .. } => vec![ids.len() as u64],
                Query::Sum { .. } => lcrs_engine::encode_sum(
                    ids.iter()
                        .map(|&id| {
                            let (x, y) = pts[id as usize];
                            x as i128 + y as i128
                        })
                        .sum(),
                ),
                _ => unreachable!(),
            };
            assert_eq!(
                ann_answers[qi],
                host,
                "q{qi} {q:?} on {name}: annotation must agree with enumerate-then-count \
                 (decoded sum {:?})",
                decode_sum(&ann_answers[qi])
            );
        }
        assert!(
            ann_reads < enum_reads,
            "{regime}/{name}: annotated aggregates {ann_reads} page reads must be strictly \
             below enumerate-then-count {enum_reads}"
        );
        let ann_cell = format!("{regime}/{name}-annotated");
        let enum_cell = format!("{regime}/{name}-enumerate");
        cell(&mut report, &mut rows, &ann_cell, aggs.len(), ann_reads, ann_wall);
        cell(&mut report, &mut rows, &enum_cell, aggs.len(), enum_reads, enum_wall);
    }

    print_table(
        "Lifted and annotated classes vs flat execution (answers pinned to brute force)",
        &["cell", "queries", "reads", "wall_ms"],
        &rows,
    );
    println!(
        "\nGates: disk lift {lift_reads} < scan {scan_reads}; annotated aggregates strictly \
         below enumerate-then-count (kdtree on mixed coverage, hs2d on the 70-98% coverage \
         sweep); all answers bit-identical to brute force."
    );
    if smoke {
        report.write_default();
    }
}
