//! The query server: time-window batching with per-tenant IO quotas
//! (DESIGN.md §14).
//!
//! Everything below this module is a library call; this is the
//! long-running front end. A [`QueryServer`] owns a calibrated
//! [`IndexSet`] and consumes a deterministic stream of tenant-tagged
//! [`Arrival`]s (virtual-time-stamped, e.g. from
//! `lcrs_workloads::serve_trace`). Arrivals accumulate into a
//! time/size-bounded window ([`WindowPolicy`]); when the window closes it
//! runs as ONE planned batch through [`IndexSet::execute_parallel_plan`]
//! at the configured worker count — harvesting the locality wins the
//! batch engine already proves on stream traffic.
//!
//! * **Admission control.** Each tenant can carry an IO quota
//!   ([`QuotaConfig`]): a token bucket holding read-IO tokens, refilled on
//!   a virtual-time interval and debited with the *measured* read IOs the
//!   tenant's queries actually cost (exact per-query [`IoDelta`]
//!   attribution, the PR 3 invariant). An arrival finding the bucket empty
//!   gets a typed [`ServeStatus::Rejected`] outcome — never a panic, never
//!   a silent drop — and tenants without a quota are never throttled.
//!   Rejection changes *which* queries run, never what an admitted query
//!   answers: answers are cache-independent by construction.
//! * **Attribution.** Every outcome carries its exact [`IoDelta`]; the
//!   per-tenant sums equal the per-window sums equal the aggregate, which
//!   is built from the executor's runtime-checked chunk totals.
//! * **Metrics.** [`QueryServer::metrics`] is a pull-style snapshot:
//!   windows and queries served, rejections, read IOs per tenant, and
//!   p50/p99 measured window execution latency.
//! * **Determinism.** Window boundaries, admission decisions, plans, and
//!   IO totals depend only on (set, config, quotas, stream) — virtual
//!   time comes from the arrivals, not the wall clock — so a replayed
//!   trace reproduces byte-identical reports (`exp_serve` gates this).
//!   Only the *measured wall latencies* are real time.
//!
//! All window/quota arithmetic saturates instead of wrapping: quota
//! refills near `u64::MAX`, window deadlines at the end of virtual time,
//! and `Duration`→ns conversions are each pinned by unit tests.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use lcrs_extmem::IoDelta;

use crate::planner::IndexSet;
use crate::query::Query;

/// Client identity attached to every arrival (quota and attribution key).
pub type TenantId = u32;

/// One tenant-tagged query arrival in the deterministic input stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual arrival time in nanoseconds from stream start. The server
    /// treats time as monotone: an out-of-order timestamp is clamped up
    /// to the latest one seen (robustness — client input never panics).
    pub at_ns: u64,
    /// The issuing tenant.
    pub tenant: TenantId,
    /// The query itself.
    pub query: Query,
}

/// Why the server refused an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's quota bucket held no read-IO tokens at arrival time
    /// (next refill at the embedded virtual instant).
    QuotaExhausted {
        /// When the bucket refills next (virtual ns; `u64::MAX` when the
        /// quota never refills).
        retry_at_ns: u64,
    },
}

/// How one arrival fared, in stream order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeStatus {
    /// Admitted, planned, and answered inside its window.
    Ok,
    /// Admitted, but no structure in the set supports the query class
    /// (zero-IO outcome, like [`crate::QueryStatus::Unsupported`]).
    Unsupported,
    /// Refused at admission; the query never entered a window.
    Rejected(RejectReason),
}

/// Outcome of one arrival.
#[derive(Debug, Clone, Copy)]
pub struct ServeOutcome {
    /// Index of the arrival in the submitted stream.
    pub arrival: usize,
    /// The issuing tenant.
    pub tenant: TenantId,
    /// Admission/execution status. Typed, total: every arrival gets
    /// exactly one outcome.
    pub status: ServeStatus,
    /// Window sequence number the query executed in (`None` when
    /// rejected).
    pub window: Option<u64>,
    /// Number of ids reported.
    pub reported: usize,
    /// IOs attributed to exactly this query (zero when rejected).
    pub io: IoDelta,
}

/// When a pending window closes (both bounds active at once; whichever
/// trips first wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowPolicy {
    /// Time bound: the window closes `max_wait_ns` virtual ns after it
    /// opened (saturating — a deadline past the end of virtual time
    /// never trips).
    pub max_wait_ns: u64,
    /// Size bound: the window closes as soon as it holds this many
    /// admitted queries (at least 1).
    pub max_queries: usize,
}

impl Default for WindowPolicy {
    /// 1 ms windows of at most 256 queries — small enough for interactive
    /// latency, large enough that locality batching pays.
    fn default() -> Self {
        WindowPolicy { max_wait_ns: 1_000_000, max_queries: 256 }
    }
}

impl WindowPolicy {
    /// The virtual close deadline of a window opened at `open_ns`.
    /// Saturating: near the end of virtual time the deadline clamps to
    /// `u64::MAX` instead of wrapping to the past.
    pub fn deadline(&self, open_ns: u64) -> u64 {
        open_ns.saturating_add(self.max_wait_ns)
    }
}

/// A per-tenant IO quota: a token bucket in read-IO units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaConfig {
    /// Bucket capacity (and initial fill) in read-IO tokens.
    pub capacity: u64,
    /// Tokens added per elapsed `interval_ns` (clamped at `capacity`).
    pub refill: u64,
    /// Virtual refill interval in nanoseconds (> 0).
    pub interval_ns: u64,
}

/// Token-bucket state behind one tenant's [`QuotaConfig`].
#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    cfg: QuotaConfig,
    tokens: u64,
    /// Interval-aligned virtual time of the last refill.
    refilled_at_ns: u64,
}

impl TokenBucket {
    fn new(cfg: QuotaConfig) -> TokenBucket {
        assert!(cfg.interval_ns > 0, "quota refill interval must be positive");
        TokenBucket { cfg, tokens: cfg.capacity, refilled_at_ns: 0 }
    }

    /// Credit every whole refill interval elapsed up to `now_ns`.
    /// Saturating throughout: `intervals × refill` and `tokens + credit`
    /// near `u64::MAX` clamp instead of wrapping (then cap at capacity).
    fn refill_to(&mut self, now_ns: u64) {
        let intervals = now_ns.saturating_sub(self.refilled_at_ns) / self.cfg.interval_ns;
        if intervals == 0 {
            return;
        }
        let credit = intervals.saturating_mul(self.cfg.refill);
        self.tokens = self.tokens.saturating_add(credit).min(self.cfg.capacity);
        self.refilled_at_ns =
            self.refilled_at_ns.saturating_add(intervals.saturating_mul(self.cfg.interval_ns));
    }

    /// Charge measured cost; an over-budget query drains the bucket to
    /// zero (the *next* arrival is what gets rejected) rather than
    /// underflowing into a huge balance.
    fn debit(&mut self, reads: u64) {
        self.tokens = self.tokens.saturating_sub(reads);
    }

    /// Virtual instant of the next token credit (`u64::MAX` when the
    /// quota never refills).
    fn next_refill_ns(&self) -> u64 {
        if self.cfg.refill == 0 {
            u64::MAX
        } else {
            self.refilled_at_ns.saturating_add(self.cfg.interval_ns)
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Window close policy.
    pub policy: WindowPolicy,
    /// Worker threads per window execution: every routed group is cut
    /// into up to this many executor chunks
    /// ([`IndexSet::execute_parallel_plan`]); 1 keeps each window on the
    /// calling thread (answers bit-identical either way — pinned by the
    /// serve suite).
    pub workers: usize,
}

impl Default for ServeConfig {
    /// Thread-per-core windows under the default [`WindowPolicy`].
    fn default() -> Self {
        let workers = crate::batch::cores();
        ServeConfig { policy: WindowPolicy::default(), workers }
    }
}

/// Accounting of one executed window.
#[derive(Debug, Clone, Copy)]
pub struct WindowSummary {
    /// Window sequence number (0-based, in close order).
    pub seq: u64,
    /// Virtual time the window opened (first admitted arrival).
    pub open_ns: u64,
    /// Virtual time the window closed (deadline, size trip, or flush).
    pub close_ns: u64,
    /// Admitted queries executed in this window.
    pub queries: usize,
    /// Aggregate IOs of the window's planned batch.
    pub io: IoDelta,
    /// Measured wall-clock of the window's execution (saturating ns).
    pub wall_ns: u64,
}

/// Result of replaying one arrival stream through [`QueryServer::run_trace`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// One outcome per arrival, in stream order.
    pub outcomes: Vec<ServeOutcome>,
    /// Executed windows, in close order. Empty when every arrival was
    /// rejected (an all-rejected stream executes nothing).
    pub windows: Vec<WindowSummary>,
    /// Aggregate IOs across all windows.
    pub total: IoDelta,
    /// The answers, in stream order (kept only when requested; rejected
    /// and unsupported arrivals keep an empty slot).
    pub answers: Option<Vec<Vec<u64>>>,
}

impl ServeReport {
    /// Sum of the per-arrival deltas; equals [`Self::total`] exactly.
    pub fn attributed_total(&self) -> IoDelta {
        self.outcomes.iter().map(|o| o.io).sum()
    }

    /// Per-tenant attributed IOs (tenant → summed delta), ascending by
    /// tenant. Sums exactly to [`Self::total`].
    pub fn per_tenant_io(&self) -> Vec<(TenantId, IoDelta)> {
        let mut map: BTreeMap<TenantId, IoDelta> = BTreeMap::new();
        for o in &self.outcomes {
            *map.entry(o.tenant).or_default() += o.io;
        }
        map.into_iter().collect()
    }

    /// Total read IOs.
    pub fn reads(&self) -> u64 {
        self.total.reads
    }

    /// Arrivals refused at admission.
    pub fn rejected(&self) -> usize {
        self.outcomes.iter().filter(|o| matches!(o.status, ServeStatus::Rejected(_))).count()
    }
}

/// Cumulative per-tenant counters in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantMetrics {
    pub tenant: TenantId,
    /// Queries answered (incl. unsupported outcomes).
    pub queries: u64,
    /// Arrivals rejected at admission.
    pub rejected: u64,
    /// Read IOs attributed to this tenant.
    pub read_ios: u64,
}

/// A pull-style snapshot of the server's cumulative counters (across all
/// [`QueryServer::run_trace`] calls so far).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Windows executed.
    pub windows_served: u64,
    /// Queries answered inside windows.
    pub queries_served: u64,
    /// Arrivals rejected at admission.
    pub queries_rejected: u64,
    /// Aggregate read IOs.
    pub read_ios: u64,
    /// Median measured window execution latency over the latest 4096
    /// windows (ns; 0 with no windows).
    pub window_wall_p50_ns: u64,
    /// 99th-percentile measured window execution latency over the latest
    /// 4096 windows (ns).
    pub window_wall_p99_ns: u64,
    /// Per-tenant counters, ascending by tenant.
    pub tenants: Vec<TenantMetrics>,
}

/// `Duration` → whole nanoseconds, saturating at `u64::MAX` instead of
/// truncating high bits (a `Duration` can hold > 2^64 ns).
pub fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Window walls a [`QueryServer`] keeps for its latency percentiles: the
/// latest ones, in a fixed ring, so a long-lived server's memory and its
/// [`QueryServer::metrics`] cost stay bounded.
const WALL_SAMPLES: usize = 4096;

/// Percentile over sorted u64 samples: nearest-rank, the sample of rank
/// ⌈p/100 · n⌉ (at least 1).
fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    debug_assert!(sorted.is_sorted(), "samples must be sorted");
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A pending (admitted, not yet executed) arrival.
struct Pending {
    arrival: usize,
    tenant: TenantId,
    query: Query,
}

/// The serving front end. See the module docs.
pub struct QueryServer {
    set: IndexSet,
    cfg: ServeConfig,
    quotas: BTreeMap<TenantId, TokenBucket>,
    // Cumulative metrics state (survives across run_trace calls).
    windows_served: u64,
    queries_served: u64,
    queries_rejected: u64,
    read_ios: u64,
    /// The latest [`WALL_SAMPLES`] window walls, oldest first.
    window_walls: VecDeque<u64>,
    tenants: BTreeMap<TenantId, TenantMetrics>,
}

impl QueryServer {
    /// A server over a built (and ideally calibrated) set.
    pub fn new(set: IndexSet, cfg: ServeConfig) -> QueryServer {
        assert!(cfg.policy.max_queries >= 1, "window size bound must be at least 1");
        assert!(cfg.workers >= 1, "need at least one worker");
        QueryServer {
            set,
            cfg,
            quotas: BTreeMap::new(),
            windows_served: 0,
            queries_served: 0,
            queries_rejected: 0,
            read_ios: 0,
            window_walls: VecDeque::with_capacity(WALL_SAMPLES),
            tenants: BTreeMap::new(),
        }
    }

    /// The planner behind the server (e.g. to inspect calibration).
    pub fn index_set(&self) -> &IndexSet {
        &self.set
    }

    /// Attach (or replace) `tenant`'s IO quota. Tenants without a quota
    /// are never throttled.
    pub fn set_quota(&mut self, tenant: TenantId, quota: QuotaConfig) {
        self.quotas.insert(tenant, TokenBucket::new(quota));
    }

    /// Replay a virtual-time arrival stream through the windowed serving
    /// loop: admit or reject each arrival, close windows per the
    /// [`WindowPolicy`], execute each closed window as one planned batch,
    /// and return one typed outcome per arrival. Deterministic in
    /// (set, config, quotas, stream) except for the measured wall fields.
    pub fn run_trace(&mut self, arrivals: &[Arrival], keep_answers: bool) -> ServeReport {
        let mut outcomes: Vec<Option<ServeOutcome>> = (0..arrivals.len()).map(|_| None).collect();
        let mut answers: Vec<Vec<u64>> =
            if keep_answers { vec![Vec::new(); arrivals.len()] } else { Vec::new() };
        let mut windows: Vec<WindowSummary> = Vec::new();
        let mut total = IoDelta::default();
        let mut pending: Vec<Pending> = Vec::new();
        let mut window_open_ns = 0u64;
        let mut now_ns = 0u64;

        let close = |pending: &mut Vec<Pending>,
                     close_ns: u64,
                     open_ns: u64,
                     outcomes: &mut Vec<Option<ServeOutcome>>,
                     answers: &mut Vec<Vec<u64>>,
                     windows: &mut Vec<WindowSummary>,
                     total: &mut IoDelta,
                     this: &mut Self| {
            if pending.is_empty() {
                return;
            }
            let batch = std::mem::take(pending);
            let summary =
                this.execute_window(&batch, open_ns, close_ns, keep_answers, outcomes, answers);
            *total += summary.io;
            windows.push(summary);
        };

        for (i, a) in arrivals.iter().enumerate() {
            // Monotone virtual time: a timestamp going backwards clamps
            // up (malformed client input must never panic the loop).
            now_ns = now_ns.max(a.at_ns);

            // The time bound: an arrival past the open window's deadline
            // seals that window *before* joining the next one.
            if !pending.is_empty() && now_ns > self.cfg.policy.deadline(window_open_ns) {
                let deadline = self.cfg.policy.deadline(window_open_ns);
                close(
                    &mut pending,
                    deadline,
                    window_open_ns,
                    &mut outcomes,
                    &mut answers,
                    &mut windows,
                    &mut total,
                    self,
                );
            }

            // Admission: refill the tenant's bucket to now and reject on
            // an empty one (typed outcome, zero IO, no window).
            if let Some(bucket) = self.quotas.get_mut(&a.tenant) {
                bucket.refill_to(now_ns);
                if bucket.tokens == 0 {
                    let reason =
                        RejectReason::QuotaExhausted { retry_at_ns: bucket.next_refill_ns() };
                    outcomes[i] = Some(ServeOutcome {
                        arrival: i,
                        tenant: a.tenant,
                        status: ServeStatus::Rejected(reason),
                        window: None,
                        reported: 0,
                        io: IoDelta::default(),
                    });
                    self.queries_rejected += 1;
                    self.tenants.entry(a.tenant).or_default().rejected += 1;
                    continue;
                }
            }

            if pending.is_empty() {
                window_open_ns = now_ns;
            }
            pending.push(Pending { arrival: i, tenant: a.tenant, query: a.query });

            // The size bound: a full window executes immediately.
            if pending.len() >= self.cfg.policy.max_queries {
                close(
                    &mut pending,
                    now_ns,
                    window_open_ns,
                    &mut outcomes,
                    &mut answers,
                    &mut windows,
                    &mut total,
                    self,
                );
            }
        }
        // End of stream: flush the tail window.
        close(
            &mut pending,
            now_ns,
            window_open_ns,
            &mut outcomes,
            &mut answers,
            &mut windows,
            &mut total,
            self,
        );

        for (t, m) in &mut self.tenants {
            m.tenant = *t;
        }
        ServeReport {
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every arrival gets exactly one outcome"))
                .collect(),
            windows,
            total,
            answers: keep_answers.then_some(answers),
        }
    }

    /// A pull-style snapshot of the cumulative counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut walls: Vec<u64> = self.window_walls.iter().copied().collect();
        walls.sort_unstable();
        MetricsSnapshot {
            windows_served: self.windows_served,
            queries_served: self.queries_served,
            queries_rejected: self.queries_rejected,
            read_ios: self.read_ios,
            window_wall_p50_ns: percentile_ns(&walls, 50.0),
            window_wall_p99_ns: percentile_ns(&walls, 99.0),
            tenants: self.tenants.values().copied().collect(),
        }
    }

    /// Execute one closed window as a planned batch; record outcomes (in
    /// stream slots), debit quotas with measured reads, update metrics.
    /// A zero-query window produces a zeroed summary and touches nothing.
    fn execute_window(
        &mut self,
        batch: &[Pending],
        open_ns: u64,
        close_ns: u64,
        keep_answers: bool,
        outcomes: &mut [Option<ServeOutcome>],
        answers: &mut [Vec<u64>],
    ) -> WindowSummary {
        let seq = self.windows_served;
        if batch.is_empty() {
            return WindowSummary {
                seq,
                open_ns,
                close_ns,
                queries: 0,
                io: IoDelta::default(),
                wall_ns: 0,
            };
        }
        let queries: Vec<Query> = batch.iter().map(|p| p.query).collect();
        let plan = self.set.plan(&queries);
        let t0 = Instant::now();
        let rep = self.set.execute_parallel_plan(&queries, &plan, self.cfg.workers, keep_answers);
        let wall_ns = saturating_ns(t0.elapsed());

        for (slot, o) in rep.outcomes.iter().enumerate() {
            let p = &batch[slot];
            let status = match o.status {
                crate::QueryStatus::Ok => ServeStatus::Ok,
                crate::QueryStatus::Unsupported => ServeStatus::Unsupported,
            };
            outcomes[p.arrival] = Some(ServeOutcome {
                arrival: p.arrival,
                tenant: p.tenant,
                status,
                window: Some(seq),
                reported: o.reported,
                io: o.io,
            });
            if let Some(bucket) = self.quotas.get_mut(&p.tenant) {
                bucket.debit(o.io.reads);
            }
            let tm = self.tenants.entry(p.tenant).or_default();
            tm.queries += 1;
            tm.read_ios += o.io.reads;
        }
        if let Some(sub_answers) = rep.answers {
            for (slot, ids) in sub_answers.into_iter().enumerate() {
                answers[batch[slot].arrival] = ids;
            }
        }
        self.windows_served += 1;
        self.queries_served += batch.len() as u64;
        self.read_ios += rep.total.reads;
        if self.window_walls.len() == WALL_SAMPLES {
            self.window_walls.pop_front();
        }
        self.window_walls.push_back(wall_ns);
        WindowSummary { seq, open_ns, close_ns, queries: batch.len(), io: rep.total, wall_ns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_refill_saturates_near_u64_max() {
        // Satellite: `tokens + refill` and `intervals × refill` near
        // u64::MAX must clamp, never wrap (the PR 5 overflow class).
        let mut b = TokenBucket::new(QuotaConfig {
            capacity: u64::MAX,
            refill: u64::MAX / 2,
            interval_ns: 1,
        });
        b.tokens = u64::MAX - 3;
        b.refill_to(u64::MAX); // u64::MAX intervals × huge refill
        assert_eq!(b.tokens, u64::MAX, "refill must saturate at capacity, not wrap");
        assert_eq!(b.refilled_at_ns, u64::MAX, "refill clock must saturate too");
        // And the clamp at capacity still applies on a sane bucket.
        let mut b = TokenBucket::new(QuotaConfig { capacity: 10, refill: 4, interval_ns: 100 });
        b.tokens = 9;
        b.refill_to(250); // two whole intervals → +8, clamped at 10
        assert_eq!(b.tokens, 10);
        assert_eq!(b.refilled_at_ns, 200, "refill clock advances interval-aligned");
        b.refill_to(299); // partial interval: no credit
        assert_eq!((b.tokens, b.refilled_at_ns), (10, 200));
    }

    #[test]
    fn quota_debit_saturates_at_zero() {
        let mut b = TokenBucket::new(QuotaConfig { capacity: 5, refill: 1, interval_ns: 100 });
        b.debit(1_000_000); // one giant query drains, never underflows
        assert_eq!(b.tokens, 0);
        assert_eq!(b.next_refill_ns(), 100);
        let b = TokenBucket::new(QuotaConfig { capacity: 5, refill: 0, interval_ns: 100 });
        assert_eq!(b.next_refill_ns(), u64::MAX, "a never-refilling quota has no retry time");
    }

    #[test]
    fn window_deadline_saturates_at_end_of_virtual_time() {
        // Satellite: `open + interval` near u64::MAX must clamp to
        // u64::MAX (a deadline that never trips), not wrap to the past
        // (which would close every window instantly).
        let p = WindowPolicy { max_wait_ns: 1_000_000, max_queries: 64 };
        assert_eq!(p.deadline(u64::MAX - 10), u64::MAX);
        assert_eq!(p.deadline(0), 1_000_000);
    }

    #[test]
    fn wall_conversion_saturates_not_wraps() {
        // Satellite: Duration::as_nanos() is u128; the u64 metric must
        // clamp instead of truncating high bits.
        assert_eq!(saturating_ns(Duration::from_nanos(42)), 42);
        let huge = Duration::from_secs(u64::MAX); // ≫ 2^64 ns
        assert!(huge.as_nanos() > u128::from(u64::MAX));
        assert_eq!(saturating_ns(huge), u64::MAX);
    }

    #[test]
    fn window_walls_keep_the_latest_4096() {
        let dev = lcrs_extmem::Device::new(lcrs_extmem::DeviceConfig::new(4096, 0));
        let pts: Vec<(i64, i64)> = (0..64).map(|i| (i, 2 * i - 40)).collect();
        let mut set = IndexSet::new();
        set.add(Box::new(lcrs_baselines::ExternalScan::build(&dev, &pts)));
        let policy = WindowPolicy { max_wait_ns: 1_000_000, max_queries: 1 };
        let mut server = QueryServer::new(set, ServeConfig { policy, workers: 1 });
        let arrivals: Vec<Arrival> = (0..5000u64)
            .map(|i| Arrival {
                at_ns: i,
                tenant: 0,
                query: Query::Halfplane { m: 1, c: i as i64 % 50, inclusive: false },
            })
            .collect();
        server.run_trace(&arrivals, false);
        let m = server.metrics();
        assert_eq!(m.windows_served, 5000);
        assert_eq!(server.window_walls.len(), WALL_SAMPLES);
        assert!(m.window_wall_p50_ns <= m.window_wall_p99_ns, "{m:?}");
    }

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile_ns(&[], 99.0), 0);
        assert_eq!(percentile_ns(&[7], 50.0), 7);
        let s = [10, 20, 30, 40, 50];
        assert_eq!(percentile_ns(&s, 0.0), 10);
        assert_eq!(percentile_ns(&s, 50.0), 30);
        assert_eq!(percentile_ns(&s, 100.0), 50);
        // Nearest-rank on an even count: the p50 of two samples is the
        // lower one (rank ⌈0.5 · 2⌉ = 1), not the upper.
        assert_eq!(percentile_ns(&[10, 20], 50.0), 10);
        assert_eq!(percentile_ns(&[10, 20], 99.0), 20);
    }
}
