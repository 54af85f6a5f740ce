//! The batch executor: locality ordering + warm cache + per-query IO
//! attribution, on the calling thread or cut into chunks across worker
//! threads (DESIGN.md §7, §8).
//!
//! It is the one executor: the planner, the sharded set and the query
//! server all run their batches through it. Answers never depend on how
//! the batch was chunked; chunking only changes which handle scope warms
//! which pages, and every chunk's IOs are measured and checked on its
//! own scope, so the per-query deltas sum exactly to the aggregate no
//! matter how many threads ran.

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
#[derive(Debug, Clone, Copy)]
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

/// Run `f(0)..f(n)` and return the results in index order: a lone item
/// on the calling thread, two or more each on its own scoped thread. The
/// one fan-out under the executor's chunks and the sharded set's shards.
pub(crate) fn fan_out<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if n <= 1 {
        return (0..n).map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n).map(|i| scope.spawn(move || f(i))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

/// `order` cut into exactly `min(parts, len)` contiguous pieces whose
/// sizes differ by at most one (the first `len % parts` pieces hold the
/// extra query).
fn cut(order: &[usize], parts: usize) -> Vec<Vec<usize>> {
    let parts = parts.min(order.len());
    if parts == 0 {
        return Vec::new();
    }
    let (base, extra) = (order.len() / parts, order.len() % parts);
    let mut chunks = Vec::with_capacity(parts);
    let mut start = 0;
    for c in 0..parts {
        let len = base + usize::from(c < extra);
        chunks.push(order[start..start + len].to_vec());
        start += len;
    }
    chunks
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
/// — its own warm LRU, its own exactly attributed counters — on its own
/// thread. A batch cut into one chunk runs on the calling thread against
/// the index's own handle: no thread, no fork.
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
    /// 1), each run on its own thread when there are two or more.
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
