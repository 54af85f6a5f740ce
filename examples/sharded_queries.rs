//! Space-partitioned serving: split one dataset into S geometry-aware
//! shards (recursive ham-sandwich cuts), give each shard its own devices
//! and calibrated `IndexSet`, route each query only to the shards whose
//! region it can intersect, and scatter-gather with every shard on its
//! own thread — then persist the whole sharded deployment to one
//! directory and reopen it cold with identical answers and IO counts.
//!
//! Run with: `cargo run --release --example sharded_queries`

use lcrs::engine::{Query, ShardConfig, ShardedIndexSet};
use lcrs::extmem::{DeviceConfig, TempDir};
use lcrs::workloads::{halfplane_narrow, points2, points3, Dist2, Dist3};
use lcrs_bench::{brute_answer, full_index_set, mixed_oracle, mixed_probes};

fn main() {
    let pts2 = points2(Dist2::Clustered, 6000, 1000, 1);
    let pts3 = points3(Dist3::Uniform, 3000, 1 << 16, 2);
    let cfg = ShardConfig { shards: 8, device: DeviceConfig::new(1024, 32) };

    println!(
        "partitioning {} 2D + {} 3D points into {} shards...",
        pts2.len(),
        pts3.len(),
        cfg.shards
    );
    // Each shard gets its own 2D + 3D device and the canonical
    // eleven-structure planner set over its sub-dataset.
    let mut sharded = ShardedIndexSet::build(&pts2, &pts3, &cfg, full_index_set);
    sharded.calibrate(&mixed_probes(&pts2, &pts3, 10));
    sharded.freeze(); // lock-free reads for the per-shard threads
    for s in 0..sharded.shards() {
        let (n2, n3) = sharded.shard_sizes(s);
        println!("  shard {s}: {n2} 2D + {n3} 3D points");
    }

    // Routing: a narrow constraint crosses few cells of the partition, a
    // broad one fans out everywhere — and the cost model prices exactly
    // that: (shards touched) x (per-shard calibrated cost).
    let narrow = halfplane_narrow(&pts2, 1, 40, 60, 7)
        .into_iter()
        .map(|(m, c, inclusive)| Query::Halfplane { m, c, inclusive })
        .next()
        .unwrap();
    let broad = Query::Halfplane { m: 0, c: 1 << 40, inclusive: false };
    println!("\nrouting:");
    for (tag, q) in [("narrow", &narrow), ("broad", &broad)] {
        println!(
            "  {tag} halfplane -> {} of {} shards, predicted {:.1} reads",
            sharded.fanout(q),
            sharded.shards(),
            sharded.predicted_reads(q)
        );
    }

    // Scatter-gather a mixed batch: one OS thread per routed shard,
    // answers merged back to canonical order, per-shard IO exact.
    let queries = mixed_oracle(&pts2, &pts3, (300, 120, 80), 42);
    let report = sharded.execute_parallel(&queries, 1, true);
    let answers = report.answers.as_ref().expect("answers kept");
    for (qi, q) in queries.iter().enumerate() {
        assert_eq!(answers[qi], brute_answer(q, &pts2, &pts3), "q{qi} {q:?}");
    }
    println!(
        "\n{} mixed queries (answers checked against brute force): {} read IOs, \
         mean fan-out {:.2} of {} shards",
        queries.len(),
        report.reads(),
        report.mean_fanout(),
        sharded.shards()
    );
    for sr in &report.per_shard {
        println!("  shard {}: {} queries, {} reads", sr.shard, sr.queries, sr.io.reads);
    }

    // Build once, serve many: the whole sharded deployment persists to
    // one directory (S sub-catalogs + a shard manifest) and reopens cold
    // with bit-identical answers and read counts.
    let dir = TempDir::new("lcrs-sharded-example");
    sharded.save_to_catalog(dir.path()).expect("save sharded catalog");
    let reopened = ShardedIndexSet::from_catalog(dir.path(), 32).expect("reopen");
    let re_report = reopened.execute_parallel(&queries, 1, true);
    assert_eq!(re_report.total, report.total);
    assert_eq!(re_report.answers, report.answers);
    println!(
        "\nreopened from {:?}: {} read IOs and answers (identical) across {} shards",
        dir.path().file_name().unwrap(),
        re_report.reads(),
        reopened.shards()
    );
}
