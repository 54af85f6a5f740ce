//! The batch executor: locality ordering + warm cache + per-query IO
//! attribution, on the calling thread or cut into chunks run by the
//! engine's bounded thread pool (DESIGN.md §7, §8).
//!
//! It is the one executor: the planner, the sharded set and the query
//! server all run their batches through it. Answers never depend on how
//! the batch was chunked; chunking only changes which handle scope warms
//! which pages, and every chunk's IOs are measured and checked on its
//! own scope, so the per-query deltas sum exactly to the aggregate no
//! matter how many threads ran.
//!
//! `fan_out` is the engine's one fan-out: at most
//! [`std::thread::available_parallelism`] threads, the calling thread
//! one of them, claim items from a shared counter.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use lcrs_extmem::IoDelta;

use crate::query::{Query, RangeIndex};

/// How a [`BatchReport`] was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One-at-a-time: the cache is dropped before every query, so each one
    /// pays its full cold cost — the per-query model of the paper.
    Cold,
    /// The whole batch shares one LRU cache (dropped once up front),
    /// after reordering the queries for page locality.
    Batched,
}

/// Whether a query inside a batch produced an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// The index answered; `reported` counts its ids.
    Ok,
    /// The index does not support this query class
    /// ([`RangeIndex::try_execute`] declined). The batch keeps going; the
    /// outcome reports zero ids and the (cache-probe-free) IO delta.
    Unsupported,
}

/// Outcome of one query within a batch, in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Index of the query in the submitted batch.
    pub query: usize,
    /// Whether the index answered this query at all.
    pub status: QueryStatus,
    /// Number of ids reported.
    pub reported: usize,
    /// IOs attributed to exactly this query ([`lcrs_extmem::DeviceHandle::measure`]).
    pub io: IoDelta,
}

/// IO accounting of one chunk of the schedule.
#[derive(Debug, Clone, Copy)]
pub struct WorkerReport {
    /// Chunk index in `0..chunks`.
    pub worker: usize,
    /// Queries this chunk executed.
    pub queries: usize,
    /// IOs measured on the chunk's handle scope across the chunk.
    pub io: IoDelta,
}

/// Result of executing a batch of queries.
#[derive(Debug, Clone)]
pub struct BatchReport {
    pub mode: ExecMode,
    /// Per-query outcomes, in *submission* order regardless of the
    /// execution order the executor chose.
    pub outcomes: Vec<QueryOutcome>,
    /// Per-chunk IO totals, one per chunk the schedule was cut into
    /// (`min(workers, len)`; none for an empty batch). Deterministic for
    /// a fixed (batch, workers).
    pub per_worker: Vec<WorkerReport>,
    /// Aggregate IOs: the sum of the per-chunk totals, each measured by
    /// one snapshot pair around its chunk, independently of the per-query
    /// deltas.
    pub total: IoDelta,
    /// The answers, in submission order (kept only when requested; an
    /// unsupported query keeps an empty answer slot).
    pub answers: Option<Vec<Vec<u64>>>,
}

/// Sum of per-query deltas — shared by every report type.
pub(crate) fn sum_outcome_io(outcomes: &[QueryOutcome]) -> IoDelta {
    outcomes.iter().map(|o| o.io).sum()
}

/// Count of [`QueryStatus::Unsupported`] outcomes — shared by every
/// report type.
pub(crate) fn count_unsupported(outcomes: &[QueryOutcome]) -> usize {
    outcomes.iter().filter(|o| o.status == QueryStatus::Unsupported).count()
}

impl BatchReport {
    /// Sum of the per-query deltas. Each chunk's deltas are checked
    /// against its measured total at runtime, so this equals
    /// [`Self::total`] exactly — asserted again in the test suites.
    pub fn attributed_total(&self) -> IoDelta {
        sum_outcome_io(&self.outcomes)
    }

    /// Total read IOs (the cost the batch engine optimizes).
    pub fn reads(&self) -> u64 {
        self.total.reads
    }

    /// Queries the index declined ([`QueryStatus::Unsupported`]).
    pub fn unsupported(&self) -> usize {
        count_unsupported(&self.outcomes)
    }
}

/// The host's parallelism ([`std::thread::available_parallelism`], 1 when
/// unknown), read once per process: std re-reads `/proc` and the cgroup
/// files on every call.
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Run `f(0)..f(n)` on `min(n, cores())` threads, the calling thread one
/// of them, and return the results in index order. Each thread claims the
/// next unclaimed index until none is left, so items are started in index
/// order: a caller that wants its longest items started first lists them
/// first. No thread waits on another's item; a panicking item reaches the
/// caller with its payload once the other threads have run out of items.
/// The engine's one fan-out: under the executor's chunks and under both
/// halves of the sharded set's scatter-gather.
pub(crate) fn fan_out<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = n.min(cores());
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    // The counter only hands out indices; results travel back through
    // the joins, so it publishes nothing and `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(claim)).collect();
        let mut runs = vec![claim()];
        for helper in helpers {
            runs.push(helper.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        for (i, r) in runs.into_iter().flatten() {
            slots[i] = Some(r);
        }
    });
    slots.into_iter().map(|r| r.expect("every index is claimed exactly once")).collect()
}

/// `0..len` cut into exactly `min(parts, len)` contiguous ranges whose
/// sizes differ by at most one (the first `len % parts` ranges hold the
/// extra item).
pub(crate) fn even_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.min(len);
    if parts == 0 {
        return Vec::new();
    }
    let (base, extra) = (len / parts, len % parts);
    let mut start = 0;
    (0..parts)
        .map(|c| {
            let range = start..start + base + usize::from(c < extra);
            start = range.end;
            range
        })
        .collect()
}

/// `order` cut into [`even_ranges`] pieces.
fn cut(order: &[usize], parts: usize) -> Vec<Vec<usize>> {
    even_ranges(order.len(), parts).into_iter().map(|r| order[r].to_vec()).collect()
}

/// One chunk's run on one handle scope: outcomes in execution order,
/// their answers (when kept), and the scope's measured IO total.
struct ChunkRun {
    outcomes: Vec<QueryOutcome>,
    answers: Vec<Vec<u64>>,
    io: IoDelta,
}

fn run_chunk(
    index: &dyn RangeIndex,
    queries: &[Query],
    chunk: &[usize],
    mode: ExecMode,
    keep_answers: bool,
) -> ChunkRun {
    let dev = index.device();
    // Every chunk starts cold; Batched then lets the cache warm up across
    // the chunk, Cold drops it again before every query.
    dev.clear_cache();
    let mut outcomes = Vec::with_capacity(chunk.len());
    let mut answers = Vec::new();
    let ((), io) = dev.measure(|| {
        for &qi in chunk {
            if mode == ExecMode::Cold {
                dev.clear_cache();
            }
            let (result, io) = index.try_execute_measured(&queries[qi]);
            let (status, ids) = match result {
                Ok(ids) => (QueryStatus::Ok, ids),
                Err(_) => (QueryStatus::Unsupported, Vec::new()),
            };
            outcomes.push(QueryOutcome { query: qi, status, reported: ids.len(), io });
            if keep_answers {
                answers.push(ids);
            }
        }
    });
    // The attribution invariant, checked once where the deltas are
    // measured: every report above this one sums these checked parts.
    assert_eq!(
        sum_outcome_io(&outcomes),
        io,
        "{}: per-query deltas must sum to the chunk total",
        index.name()
    );
    ChunkRun { outcomes, answers, io }
}

/// Executes batches of queries against one [`RangeIndex`].
///
/// The executor never changes answers — only the order queries run in and
/// the cache state they observe. For savings, build the index on a device
/// with `cache_pages > 0`; with a cache-less device, batched and cold
/// costs coincide.
///
/// With [`Self::workers`] above 1 the schedule is cut into contiguous
/// near-even chunks (each keeps the locality the schedule created), and
/// every chunk runs in order on its own [`RangeIndex::fork_reader`] clone
/// — its own cold-started LRU, its own exactly attributed counters. The
/// chunks share the engine's bounded pool: at most
/// [`std::thread::available_parallelism`] threads, the calling thread
/// included, each claiming the next chunk. Chunk c runs on fork c
/// whichever thread claims it, so counts never depend on the core count.
/// A batch cut into one chunk runs on the calling thread against the
/// index's own handle: no thread, no fork.
pub struct BatchExecutor<'a> {
    index: &'a dyn RangeIndex,
    workers: usize,
    keep_answers: bool,
}

impl<'a> BatchExecutor<'a> {
    pub fn new(index: &'a dyn RangeIndex) -> Self {
        BatchExecutor { index, workers: 1, keep_answers: false }
    }

    /// Cut the schedule into up to `workers` chunks (at least 1; default
    /// 1), each on its own handle fork when there are two or more. The
    /// chunks run on at most `min(chunks, available_parallelism)` threads,
    /// the calling thread one of them, so `workers` sets how the batch is
    /// cut and never how many threads start.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Also collect every query's answer into the report (off by default:
    /// a 1k-query batch over a hot region can report millions of ids).
    pub fn keep_answers(mut self, keep: bool) -> Self {
        self.keep_answers = keep;
        self
    }

    /// The execution order for `queries`: indices sorted by locality key,
    /// ties broken by submission order (a stable schedule).
    pub fn schedule(&self, queries: &[Query]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_by_key(|&i| (queries[i].locality_key(), i));
        order
    }

    /// The chunks [`Self::run_batched`] executes: the schedule cut into
    /// exactly `min(workers, len)` contiguous pieces whose sizes differ by
    /// at most one. Deterministic in (queries, workers).
    pub fn chunks(&self, queries: &[Query]) -> Vec<Vec<usize>> {
        cut(&self.schedule(queries), self.workers)
    }

    /// Run the batch in locality order, each chunk on a warm cache.
    pub fn run_batched(&self, queries: &[Query]) -> BatchReport {
        self.run(queries, self.chunks(queries), ExecMode::Batched)
    }

    /// Run the batch one-at-a-time cold (cache dropped before each query),
    /// in submission order — the baseline batching is measured against.
    pub fn run_cold(&self, queries: &[Query]) -> BatchReport {
        let order: Vec<usize> = (0..queries.len()).collect();
        self.run(queries, cut(&order, self.workers), ExecMode::Cold)
    }

    fn run(&self, queries: &[Query], chunks: Vec<Vec<usize>>, mode: ExecMode) -> BatchReport {
        let index = self.index;
        // One reader fork per chunk when there are several, all created up
        // front on this thread: fork order never depends on scheduling.
        let forks: Vec<Box<dyn RangeIndex>> = if chunks.len() > 1 {
            chunks.iter().map(|_| index.fork_reader()).collect()
        } else {
            Vec::new()
        };
        for fork in &forks {
            assert!(
                fork.device().same_store(index.device()),
                "fork_reader must stay on the index's store"
            );
        }
        let runs = fan_out(chunks.len(), |c| {
            let reader = forks.get(c).map_or(index, |f| &**f);
            run_chunk(reader, queries, &chunks[c], mode, self.keep_answers)
        });

        let mut outcomes: Vec<Option<QueryOutcome>> = vec![None; queries.len()];
        let mut answers: Vec<Vec<u64>> =
            if self.keep_answers { vec![Vec::new(); queries.len()] } else { Vec::new() };
        let mut per_worker = Vec::with_capacity(runs.len());
        let mut total = IoDelta::default();
        for (worker, run) in runs.into_iter().enumerate() {
            per_worker.push(WorkerReport { worker, queries: run.outcomes.len(), io: run.io });
            total += run.io;
            for (o, ids) in run.outcomes.iter().zip(run.answers) {
                answers[o.query] = ids;
            }
            for o in run.outcomes {
                outcomes[o.query] = Some(o);
            }
        }
        BatchReport {
            mode,
            outcomes: outcomes.into_iter().map(|o| o.expect("every query ran")).collect(),
            per_worker,
            total,
            answers: self.keep_answers.then_some(answers),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread::{self, ThreadId};

    use super::{cores, fan_out};

    /// Item counts up to 64, so no run asks a one-thread-per-item fan-out
    /// for many threads.
    const SIZES: [usize; 6] = [0, 1, 2, 3, 17, 64];

    #[derive(Debug, PartialEq)]
    struct ItemPanic(usize);

    /// `fan_out(n, f)`, where `f` also learns whether it runs on the
    /// calling thread. On a pool of two or more threads, items on the
    /// calling thread wait until an item has started on another thread
    /// and vice versa, so both kinds of thread run items whatever the
    /// scheduler does. That cannot deadlock: the other threads hold at
    /// most `threads − 1 < n` items while they wait, so one is left for
    /// the caller, and the caller holds one while it waits.
    fn fan_out_both_sides<R: Send>(n: usize, f: impl Fn(usize, bool) -> R + Sync) -> Vec<R> {
        let caller = thread::current().id();
        let pooled = n.min(cores()) >= 2;
        let (on_caller, on_other) = (AtomicBool::new(false), AtomicBool::new(false));
        fan_out(n, |i| {
            let mine = thread::current().id() == caller;
            let (me, other) = if mine { (&on_caller, &on_other) } else { (&on_other, &on_caller) };
            me.store(true, Ordering::SeqCst);
            while pooled && !other.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            f(i, mine)
        })
    }

    #[test]
    fn fan_out_runs_every_item_once_in_index_order_on_at_most_cores_threads() {
        let available = thread::available_parallelism().map_or(1, |c| c.get());
        assert_eq!(cores(), available);
        for n in SIZES {
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = fan_out_both_sides(n, |i, _| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                (i, thread::current().id())
            });
            let order: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
            assert_eq!(order, (0..n).collect::<Vec<_>>(), "n={n}: results in index order");
            for (i, r) in runs.iter().enumerate() {
                assert_eq!(r.load(Ordering::Relaxed), 1, "n={n}: item {i} runs exactly once");
            }
            let threads: HashSet<ThreadId> = out.iter().map(|&(_, t)| t).collect();
            assert!(
                threads.len() <= n.min(available),
                "n={n}: {} threads on {available} cores",
                threads.len()
            );
            if n == 1 {
                assert_eq!(out[0].1, thread::current().id(), "a lone item runs on the caller");
            }
        }
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_with_its_payload() {
        for n in SIZES.into_iter().filter(|&n| n > 0) {
            // An item on the calling thread panics; then, where the pool
            // has other threads, one on another thread.
            for on_caller in [true, false].into_iter().take(if n.min(cores()) >= 2 { 2 } else { 1 })
            {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    fan_out_both_sides(n, |i, mine| {
                        if mine == on_caller {
                            panic_any(ItemPanic(i));
                        }
                        i
                    })
                }));
                let payload = caught.expect_err("the item's panic reaches the caller");
                assert!(
                    payload.downcast_ref::<ItemPanic>().is_some(),
                    "n={n} on_caller={on_caller}: the item's own payload"
                );
            }
        }
    }
}
