//! The cost-model query planner: an [`IndexSet`] facade over heterogeneous
//! [`RangeIndex`] structures (DESIGN.md §10).
//!
//! The source paper is a trade-off theorem: for each query/space budget
//! there is a *different* right structure. A production deployment
//! therefore holds several built structures at once — the optimal 2D
//! structure next to a partition tree next to a scan file — and the
//! planner's job is the paper's knob turned into code: route every query
//! of a mixed batch to the cheapest structure that can answer it.
//!
//! * **Capability** comes from [`RangeIndex::supports`]. Structures that
//!   support the same query class must be answer-equivalent (indexes over
//!   one logical dataset) — the cross-structure oracle suite is what makes
//!   that contract checkable.
//! * **Cost** comes from [`RangeIndex::cost_hint_for`] (the paper's
//!   asymptotic bound as a shape, flagged per query class — aggregate
//!   count/sum queries carry [`lcrs_halfspace::cost::CostHint::aggregate`])
//!   times a per-structure constant fitted by a measured probe pass
//!   ([`IndexSet::calibrate`], which fits the reporting and aggregate
//!   paths separately). Constants persist exactly through a
//!   [`SnapshotCatalog`] ([`IndexSet::save_calibration_to_catalog`]),
//!   so a reopened catalog plans identically without re-probing.
//! * **Execution** composes with the rest of the engine: each routed
//!   sub-batch runs through the [`crate::BatchExecutor`]'s locality
//!   schedule on a warm cache, on the calling thread
//!   ([`IndexSet::execute_plan`]) or cut into chunks on the engine's
//!   bounded pool ([`IndexSet::execute_parallel_plan`]), and per-query
//!   [`IoDelta`] attribution still sums exactly to the aggregate.
//!
//! Alternative routing policies — always-scan ([`IndexSet::scan_plan`]),
//! predicted-argmax ([`IndexSet::worst_plan`]), force-one-structure
//! ([`IndexSet::force_plan`]) — are first-class [`Plan`] values executed by
//! the same machinery, which is what lets the differential gates say
//! "planned answers are bit-identical to the scan baseline, and planned
//! read IOs strictly beat both always-scan and worst routing".
//!
//! One level up, [`crate::ShardedIndexSet`] holds one calibrated
//! `IndexSet` per geometric shard and scatter-gathers mixed batches over
//! them (DESIGN.md §11).

use std::path::{Path, PathBuf};

use lcrs_extmem::{IoDelta, MetaReader, MetaWriter, SnapshotError};

use crate::batch::{BatchExecutor, QueryOutcome, QueryStatus};
use crate::catalog::SnapshotCatalog;
use crate::cost::{calibrate_index, predicted_reads, Calibration};
use crate::query::{Query, RangeIndex};

/// File name of the persisted calibration constants inside a catalog
/// directory (next to the `__catalog.meta` manifest; uses the
/// engine-internal [`crate::catalog::RESERVED_PREFIX`], so it can never
/// collide with entry files).
pub const CALIBRATION_FILE: &str = "__planner.calib";

struct Entry {
    index: Box<dyn RangeIndex>,
    calib: Calibration,
}

/// A routing decision for one batch: which structure slot answers each
/// query (`None` = no structure in the set supports it), plus the
/// predicted cost the decision was based on.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Chosen slot per query, in submission order.
    pub assignments: Vec<Option<usize>>,
    /// Predicted (calibrated) reads of the chosen slot per query; `0.0`
    /// for unrouted queries.
    pub predicted: Vec<f64>,
}

impl Plan {
    /// How many queries this plan routes to `slot`.
    pub fn routed_to(&self, slot: usize) -> usize {
        self.assignments.iter().filter(|a| **a == Some(slot)).count()
    }

    /// Queries no structure in the set supports.
    pub fn unrouted(&self) -> usize {
        self.assignments.iter().filter(|a| a.is_none()).count()
    }
}

/// IO accounting of one structure's routed sub-batch.
#[derive(Debug, Clone, Copy)]
pub struct RoutedReport {
    /// Slot in the [`IndexSet`].
    pub slot: usize,
    /// [`RangeIndex::name`] of the structure.
    pub index: &'static str,
    /// Queries routed to this structure.
    pub queries: usize,
    /// Aggregate IOs of the sub-batch on this structure's handle scope.
    pub io: IoDelta,
}

/// Result of executing a [`Plan`].
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Per-query outcomes, in *submission* order (unrouted queries get a
    /// zero-IO [`QueryStatus::Unsupported`] outcome).
    pub outcomes: Vec<QueryOutcome>,
    /// Per-structure sub-batch totals, ascending by slot, non-empty
    /// sub-batches only.
    pub per_index: Vec<RoutedReport>,
    /// Aggregate IOs: the sum of the sub-batch totals (exact — each is a
    /// sum of the executor's measured and checked chunk totals).
    pub total: IoDelta,
    /// The answers, in submission order (kept only when requested; an
    /// unrouted query keeps an empty answer slot).
    pub answers: Option<Vec<Vec<u64>>>,
}

impl PlanReport {
    /// Sum of the per-query deltas; equals [`Self::total`] exactly.
    pub fn attributed_total(&self) -> IoDelta {
        crate::batch::sum_outcome_io(&self.outcomes)
    }

    /// Total read IOs (the cost the planner minimizes).
    pub fn reads(&self) -> u64 {
        self.total.reads
    }

    /// Queries nothing in the set could answer.
    pub fn unsupported(&self) -> usize {
        crate::batch::count_unsupported(&self.outcomes)
    }
}

/// A heterogeneous set of built structures plus a calibrated cost model —
/// the front door for mixed-batch traffic. See the module docs.
#[derive(Default)]
pub struct IndexSet {
    entries: Vec<Entry>,
}

impl IndexSet {
    /// An empty set.
    pub fn new() -> IndexSet {
        IndexSet::default()
    }

    /// Add a built structure; returns its slot. Uncalibrated until
    /// [`Self::calibrate`] or [`Self::load_calibration`] runs (the raw
    /// paper shapes still order structures meanwhile).
    pub fn add(&mut self, index: Box<dyn RangeIndex>) -> usize {
        self.entries.push(Entry { index, calib: Calibration::default() });
        self.entries.len() - 1
    }

    /// Reopen every entry of a catalog into a set (in catalog order), and
    /// load persisted calibration constants when the catalog has them —
    /// the serve-side of build-once/serve-many planning.
    pub fn from_catalog(
        cat: &SnapshotCatalog,
        cache_pages: usize,
    ) -> Result<IndexSet, SnapshotError> {
        let mut set = IndexSet::new();
        for index in cat.load_all(cache_pages)? {
            set.add(index);
        }
        let calib = Self::calibration_path(cat);
        if calib.exists() {
            set.load_calibration(&calib)?;
        }
        Ok(set)
    }

    /// Where a catalog keeps its calibration constants.
    pub fn calibration_path(cat: &SnapshotCatalog) -> PathBuf {
        cat.dir().join(CALIBRATION_FILE)
    }

    /// Number of structures in the set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The structure at `slot`.
    pub fn structure(&self, slot: usize) -> &dyn RangeIndex {
        &*self.entries[slot].index
    }

    /// The fitted calibration at `slot`.
    pub fn calibration(&self, slot: usize) -> Calibration {
        self.entries[slot].calib
    }

    /// Predicted (calibrated) reads of answering `q` at `slot`.
    pub fn cost(&self, slot: usize, q: &Query) -> f64 {
        let e = &self.entries[slot];
        predicted_reads(&e.index.cost_hint_for(q), &e.calib, q)
    }

    /// The measured probe pass: fit every structure's cost constant from
    /// the probes it supports, each executed against a cleared cache so
    /// the fit is cold, deterministic, and independent of probe order.
    /// Pass a deterministic sample of the expected traffic (a few dozen
    /// queries per class is plenty — the fit is a single constant).
    pub fn calibrate(&mut self, probes: &[Query]) {
        for e in &mut self.entries {
            e.calib = calibrate_index(&*e.index, probes);
        }
    }

    /// Persist the fitted constants (exact f64 bit patterns + entry names
    /// for validation) so a reopened set plans identically.
    pub fn save_calibration(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let mut w = MetaWriter::new();
        w.seq(self.entries.len());
        for e in &self.entries {
            w.str(e.index.name());
            e.calib.save(&mut w);
        }
        w.write_to_path(path.as_ref())
    }

    /// Inverse of [`Self::save_calibration`]; the file must describe
    /// exactly this set (same length, same structure names in order).
    pub fn load_calibration(&mut self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let mut r = MetaReader::open(path.as_ref())?;
        let n = r.seq()?;
        if n != self.entries.len() {
            return Err(r.error(format!(
                "calibration file describes {n} structures, the set has {}",
                self.entries.len()
            )));
        }
        let mut fitted = Vec::with_capacity(n);
        for e in &self.entries {
            let kind = r.str()?;
            if kind != e.index.name() {
                return Err(r.error(format!(
                    "calibration entry is for {kind:?}, the set has {:?} at that slot",
                    e.index.name()
                )));
            }
            fitted.push(Calibration::load(&mut r)?);
        }
        r.finish()?;
        for (e, calib) in self.entries.iter_mut().zip(fitted) {
            e.calib = calib;
        }
        Ok(())
    }

    /// [`Self::save_calibration`] into `cat`'s directory (the file
    /// [`Self::from_catalog`] auto-loads).
    pub fn save_calibration_to_catalog(&self, cat: &SnapshotCatalog) -> Result<(), SnapshotError> {
        self.save_calibration(Self::calibration_path(cat))
    }

    /// Build a plan by choosing per query among the capable slots with
    /// `pick` (candidates arrive ascending by slot, so `pick` controls
    /// tie-breaking by preferring earlier elements).
    fn plan_with(
        &self,
        queries: &[Query],
        mut pick: impl FnMut(&[(usize, f64)]) -> Option<(usize, f64)>,
    ) -> Plan {
        let mut assignments = Vec::with_capacity(queries.len());
        let mut predicted = Vec::with_capacity(queries.len());
        let mut candidates: Vec<(usize, f64)> = Vec::with_capacity(self.entries.len());
        for q in queries {
            candidates.clear();
            for (slot, e) in self.entries.iter().enumerate() {
                if e.index.supports(q) {
                    candidates
                        .push((slot, predicted_reads(&e.index.cost_hint_for(q), &e.calib, q)));
                }
            }
            match pick(&candidates) {
                Some((slot, cost)) => {
                    assignments.push(Some(slot));
                    predicted.push(cost);
                }
                None => {
                    assignments.push(None);
                    predicted.push(0.0);
                }
            }
        }
        Plan { assignments, predicted }
    }

    /// The planner's routing: cheapest capable slot per query (ties break
    /// to the earlier slot). Deterministic in (set, calibration, batch).
    pub fn plan(&self, queries: &[Query]) -> Plan {
        self.plan_with(queries, |c| {
            c.iter().copied().reduce(|best, cand| if cand.1 < best.1 { cand } else { best })
        })
    }

    /// Adversarial routing: the *most* expensive capable slot per query —
    /// the upper end of the trade-off the planner is measured against.
    pub fn worst_plan(&self, queries: &[Query]) -> Plan {
        self.plan_with(queries, |c| {
            c.iter().copied().reduce(|best, cand| if cand.1 > best.1 { cand } else { best })
        })
    }

    /// No-index routing: every query to a capable scan-class structure
    /// ([`lcrs_halfspace::cost::CostHint::is_scan`]) — the linear-scan
    /// reference of the differential gates. Queries with no capable scan
    /// in the set stay unrouted.
    pub fn scan_plan(&self, queries: &[Query]) -> Plan {
        self.plan_with(queries, |c| {
            c.iter()
                .copied()
                .filter(|&(slot, _)| self.entries[slot].index.cost_hint().is_scan())
                .reduce(|best, cand| if cand.1 < best.1 { cand } else { best })
        })
    }

    /// Single-structure routing: every query `slot` supports goes there,
    /// the rest stay unrouted — [`Self::execute_plan`] on the result must
    /// reproduce a direct [`BatchExecutor`] run on that structure
    /// bit-identically (pinned by the planner suite).
    pub fn force_plan(&self, slot: usize, queries: &[Query]) -> Plan {
        assert!(slot < self.entries.len(), "force_plan: no slot {slot}");
        self.plan_with(queries, |c| c.iter().copied().find(|&(s, _)| s == slot))
    }

    /// Plan and execute in one call (the common path).
    pub fn execute(&self, queries: &[Query], keep_answers: bool) -> PlanReport {
        self.execute_plan(queries, &self.plan(queries), keep_answers)
    }

    /// Execute `plan`: group queries per routed structure, run each group
    /// as one locality-ordered [`BatchExecutor`] sub-batch on the calling
    /// thread with a warm cache (cleared per group, so reports are
    /// deterministic and structure order does not leak state), and merge
    /// outcomes back into submission order. Per-query [`IoDelta`]s sum
    /// exactly to the aggregate.
    pub fn execute_plan(&self, queries: &[Query], plan: &Plan, keep_answers: bool) -> PlanReport {
        self.execute_parallel_plan(queries, plan, 1, keep_answers)
    }

    /// [`Self::execute_plan`] with each sub-batch cut into up to `workers`
    /// chunks of its locality schedule, each on its own handle fork
    /// ([`BatchExecutor::workers`]) — the full plan → locality order →
    /// chunks composition. A group's chunks run on the engine's bounded
    /// pool: at most `min(chunks, available_parallelism)` threads, the
    /// calling thread one of them. A group of one chunk runs on the
    /// calling thread.
    pub fn execute_parallel_plan(
        &self,
        queries: &[Query],
        plan: &Plan,
        workers: usize,
        keep_answers: bool,
    ) -> PlanReport {
        assert_eq!(plan.assignments.len(), queries.len(), "plan must cover the batch");
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.entries.len()];
        let mut outcomes: Vec<Option<QueryOutcome>> = vec![None; queries.len()];
        for (qi, a) in plan.assignments.iter().enumerate() {
            match *a {
                Some(slot) => {
                    assert!(
                        self.entries[slot].index.supports(&queries[qi]),
                        "plan routed query {qi} to {}, which does not support it",
                        self.entries[slot].index.name()
                    );
                    groups[slot].push(qi);
                }
                None => {
                    outcomes[qi] = Some(QueryOutcome {
                        query: qi,
                        status: QueryStatus::Unsupported,
                        reported: 0,
                        io: IoDelta::default(),
                    });
                }
            }
        }
        let mut answers: Vec<Vec<u64>> =
            if keep_answers { vec![Vec::new(); queries.len()] } else { Vec::new() };
        let mut per_index = Vec::new();
        let mut total = IoDelta::default();
        for (slot, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let sub: Vec<Query> = group.iter().map(|&qi| queries[qi]).collect();
            let index = &*self.entries[slot].index;
            let report = BatchExecutor::new(index)
                .workers(workers)
                .keep_answers(keep_answers)
                .run_batched(&sub);
            for o in report.outcomes {
                outcomes[group[o.query]] = Some(QueryOutcome { query: group[o.query], ..o });
            }
            if let Some(sub_answers) = report.answers {
                for (si, ids) in sub_answers.into_iter().enumerate() {
                    answers[group[si]] = ids;
                }
            }
            per_index.push(RoutedReport {
                slot,
                index: index.name(),
                queries: group.len(),
                io: report.total,
            });
            total += report.total;
        }
        PlanReport {
            outcomes: outcomes.into_iter().map(|o| o.expect("every query planned")).collect(),
            per_index,
            total,
            answers: keep_answers.then_some(answers),
        }
    }
}
