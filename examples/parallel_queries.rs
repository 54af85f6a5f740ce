//! Parallel query execution: freeze the storage layer after the build,
//! then serve a 1000-query batch cut into chunks across worker threads —
//! each with its own warm LRU and exactly attributed IO counters — and
//! check the answers against the one-thread run.
//!
//! Run with: `cargo run --release --example parallel_queries`

use lcrs::engine::{BatchExecutor, Query, RangeIndex};
use lcrs::extmem::{Device, DeviceConfig, IoDelta};
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs::workloads::{halfplane_batch, points2, BatchShape, Dist2};

fn main() {
    // Build phase: a mutable device, 4 KiB pages, a 512-page LRU budget
    // that each worker scope gets for itself.
    let dev = Device::new(DeviceConfig::new(4096, 512));
    let points = points2(Dist2::Uniform, 50_000, 1 << 29, 42);
    println!("building the Theorem 3.5 structure over {} points...", points.len());
    let index = HalfspaceRS2::build(&dev, &points, Hs2dConfig::default());
    println!("built: {} disk pages.", index.pages());

    // Read phase: freeze the store. Pages are now immutable, reads are
    // lock-free, and the index can fan out across threads.
    dev.freeze();
    println!("device frozen: {}", dev.is_frozen());

    let batch: Vec<Query> =
        halfplane_batch(&points, BatchShape::ZipfRepeat { distinct: 24, s: 1.1 }, 1000, 48, 7)
            .into_iter()
            .map(|(m, c)| Query::Halfplane { m, c, inclusive: false })
            .collect();

    // The one-thread reference: one chunk, one shared warm cache.
    let sequential = BatchExecutor::new(&index).keep_answers(true).run_batched(&batch);

    println!("\n{} queries against `{}`:", batch.len(), index.name());
    println!("  sequential batch: {:>6} read IOs on 1 thread", sequential.reads());
    for workers in [2usize, 4, 8] {
        let report =
            BatchExecutor::new(&index).workers(workers).keep_answers(true).run_batched(&batch);
        // Answers are bit-identical to the one-thread run, and the
        // per-chunk deltas sum exactly to the aggregate.
        assert_eq!(report.answers, sequential.answers);
        let worker_sum: IoDelta = report.per_worker.iter().map(|w| w.io).sum();
        assert_eq!(worker_sum, report.total);
        let detail: Vec<String> =
            report.per_worker.iter().map(|w| format!("{}q/{}r", w.queries, w.io.reads)).collect();
        println!(
            "  {workers} workers: {:>6} read IOs total, per worker [{}], answers identical",
            report.reads(),
            detail.join(", ")
        );
    }
    println!(
        "\nEach worker pays for warming its own cache, so chunked totals sit between\n\
         the 1-thread batch and the cold baseline — wall-clock, not IOs, is what\n\
         parallelism buys (see the exp_parallel experiment)."
    );
}
