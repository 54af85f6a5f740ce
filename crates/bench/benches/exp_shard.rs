//! EXP-SHARD — space-partitioned scatter-gather serving (DESIGN.md §11):
//! the mixed oracle workload and the zipf/sweep halfplane batches over
//! `ShardedIndexSet` tiers at S ∈ {1, 2, 4, 8}, measuring read IOs and
//! the shards-touched (fan-out) histogram as S grows. Differential gates
//! asserted on every run:
//!
//! * sharded answers, as the gather emits them, are bit-identical to the
//!   unsharded `IndexSet`'s in canonical order at every S, and per-shard
//!   IO deltas sum exactly to the aggregate;
//! * S=1 reproduces the unsharded planner's read-IO total exactly
//!   (identity routing — one shard IS the unsharded set);
//! * on the zipf and sweep halfplane workloads the mean shards-touched
//!   at S=8 stays strictly below 8 — geometric routing actually prunes.
//!
//! Run with `--smoke` for the CI-sized variant (which also emits
//! `BENCH_exp_shard.json` for the read-IO regression gate).

use std::time::{Duration, Instant};

use lcrs_bench::{
    canon_answer, full_index_set, mixed_oracle, mixed_probes, print_table, BenchReport,
};
use lcrs_engine::{Query, ShardConfig, ShardedIndexSet, ShardedReport};
use lcrs_extmem::{Device, DeviceConfig};
use lcrs_workloads::{halfplane_batch, points2, points3, BatchShape, Dist2, Dist3};

const PAGE: usize = 1024;
const CACHE_PAGES: usize = 32;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const HP_SLOPE: i64 = 40;

/// Fan-out histogram of one run: `count[f]` queries touched `f` shards.
fn fanout_histogram(report: &ShardedReport, s: usize) -> Vec<usize> {
    let mut hist = vec![0usize; s + 1];
    for &f in &report.fanout {
        hist[f] += 1;
    }
    hist
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n2, n3, q_hp, q_hs, q_knn, batch_len) =
        if smoke { (3072, 1536, 300, 120, 80, 192) } else { (12288, 4096, 1200, 480, 320, 768) };
    println!(
        "# EXP-SHARD: scatter-gather over geometry-aware shards, S in {SHARD_COUNTS:?}, \
         page={PAGE}B, cache={CACHE_PAGES} pages/shard-device{}",
        if smoke { " (smoke)" } else { "" }
    );

    let pts2 = points2(Dist2::Clustered, n2, 1000, 61);
    let pts3 = points3(Dist3::Uniform, n3, 1 << 16, 62);
    let probes = mixed_probes(&pts2, &pts3, 81);

    // The unsharded reference: the same eleven-structure planner fixture.
    let dev2 = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let dev3 = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let mut unsharded = full_index_set(&dev2, &dev3, &pts2, &pts3);
    unsharded.calibrate(&probes);
    dev2.freeze();
    dev3.freeze();

    // The sharded tiers, one per S, each shard its own devices + planner.
    let cfg = DeviceConfig::new(PAGE, CACHE_PAGES);
    let t = Instant::now();
    let tiers: Vec<ShardedIndexSet> = SHARD_COUNTS
        .iter()
        .map(|&s| {
            let mut sharded = ShardedIndexSet::build(
                &pts2,
                &pts3,
                &ShardConfig { shards: s, device: cfg },
                full_index_set,
            );
            sharded.calibrate(&probes);
            sharded.freeze();
            sharded
        })
        .collect();
    println!("\nBuilt + calibrated 4 tiers in {:.1} s", t.elapsed().as_secs_f64());

    // The workloads: the mixed oracle plus the zipf/sweep halfplane
    // batches (the same constructions the batch/parallel experiments use).
    let mixed = mixed_oracle(&pts2, &pts3, (q_hp, q_hs, q_knn), 71);
    let to_queries = |batch: Vec<(i64, i64)>| -> Vec<Query> {
        batch.into_iter().map(|(m, c)| Query::Halfplane { m, c, inclusive: false }).collect()
    };
    let zipf = to_queries(halfplane_batch(
        &pts2,
        BatchShape::ZipfRepeat { distinct: 12, s: 1.1 },
        batch_len,
        HP_SLOPE,
        55,
    ));
    let sweep =
        to_queries(halfplane_batch(&pts2, BatchShape::SortedSweep, batch_len, HP_SLOPE, 56));

    let mut report = BenchReport::new("exp_shard", smoke);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (workload, queries) in [("mixed", &mixed), ("zipf", &zipf), ("sweep", &sweep)] {
        // The unsharded reference run for this workload: the answer oracle
        // for every S, and the exact IO target for S=1.
        let reference = unsharded.execute(queries, true);
        let reference_answers = reference.answers.as_ref().unwrap();
        for (ti, &s) in SHARD_COUNTS.iter().enumerate() {
            let sharded = &tiers[ti];
            let t = Instant::now();
            let run = sharded.execute_parallel(queries, 1, true);
            let wall = t.elapsed().as_secs_f64();
            assert_eq!(run.attributed_total(), run.total, "per-query deltas must sum exactly");
            assert_eq!(run.unsupported(), 0);

            // Differential gate: sharded answers == unsharded answers,
            // the sharded ones compared raw (the gather emits them in
            // canonical order).
            let answers = run.answers.as_ref().unwrap();
            for (qi, q) in queries.iter().enumerate() {
                assert_eq!(
                    answers[qi],
                    canon_answer(q, reference_answers[qi].clone()),
                    "{workload} S={s} q{qi} {q:?}"
                );
            }
            if s == 1 {
                assert_eq!(
                    run.total, reference.total,
                    "{workload}: S=1 must reproduce the unsharded IO total exactly"
                );
            }
            if workload != "mixed" && s == 8 {
                assert!(
                    run.mean_fanout() < 8.0,
                    "{workload}: routing must prune at S=8, mean fan-out {}",
                    run.mean_fanout()
                );
            }

            let hist = fanout_histogram(&run, s);
            rows.push(vec![
                format!("{workload}/S{s}"),
                format!("{}", queries.len()),
                format!("{}", run.reads()),
                format!("{:.2}", run.mean_fanout()),
                format!("{hist:?}"),
                format!("{:.1}", wall * 1e3),
            ]);
            report
                .cell(format!("{workload}/S{s}"))
                .metric("queries", queries.len() as f64)
                .metric("read_ios", run.reads() as f64)
                .metric("mean_fanout", run.mean_fanout())
                .metric("wall_s", wall)
                .report_wall(Duration::from_secs_f64(wall));
        }
    }
    print_table(
        "Scatter-gather vs shard count (answers pinned identical to unsharded)",
        &["workload/S", "queries", "reads", "mean_fanout", "fanout_histogram", "wall_ms"],
        &rows,
    );

    println!(
        "\nGates: answers bit-identical to the unsharded planner on all workloads and every S; \
         S=1 IO == unsharded on every workload; zipf/sweep mean fan-out at S=8 < 8; \
         per-shard deltas sum exactly."
    );
    if smoke {
        report.write_default();
    }
}
