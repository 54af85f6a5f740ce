//! Acceptance suite for the space-partitioned `ShardedIndexSet` (ISSUE 6).
//!
//! The fixture mirrors the planner suite exactly — the same 2D + 3D
//! datasets, the canonical eleven-structure `full_index_set` per shard,
//! the same probe pass, and the same mixed six-class 500-query oracle
//! workload (halfplane, halfspace, k-NN, plus the DESIGN.md §15 disk /
//! count / sum / top-k classes) —
//! and adds sharded sets at S ∈ {1, 2, 4, 8} over the *same* logical
//! dataset.
//!
//! Pinned here:
//! * sharded answers are bit-identical to the unsharded `IndexSet` and to
//!   host-side brute force at every S, sequential and parallel, in-memory
//!   and reopened cold from a sharded catalog;
//! * S=1 reproduces the unsharded planner's IO totals *exactly* (identity
//!   routing — one shard is the unsharded set);
//! * per-shard `IoDelta`s sum exactly to the aggregate, which sums
//!   exactly over per-query deltas (the PR 3 attribution invariant);
//! * shard-level concurrency (the engine's bounded pool over shards and
//!   merge ranges, disjoint devices) never changes a report: answers,
//!   every outcome, per-shard totals, fan-out and the aggregate;
//! * geometric routing actually prunes: on the narrow shard-stressing
//!   workload the mean shards-touched at S=8 is strictly below 8, while a
//!   broad all-points query fans out to every shard;
//! * the fan-out cost model prices every supported query finitely and a
//!   fully pruned query at zero;
//! * a k-NN center beyond the lift's budget is refused by the lifted
//!   `knn` slot and answered exactly by the scan, unsharded and sharded,
//!   up to centers at the `i64` extremes, whose squared distances pass
//!   2^127.
//!
//! Sharded answers are compared raw, never re-sorted: the gather promises
//! the canonical order itself.

use std::sync::{Mutex, MutexGuard, OnceLock};

use lcrs::engine::{IndexSet, Query, QueryStatus, ShardConfig, ShardedIndexSet, ShardedReport};
use lcrs::extmem::{Device, DeviceConfig, IoDelta, TempDir};
use lcrs::workloads::{halfplane_narrow, points2, points3, Dist2, Dist3};
use lcrs_bench::{
    brute_answer, canon_answer, full_index_set, lifted_oracle, lifted_probes, pages_files,
};

const PAGE: usize = 1024;
const CACHE_PAGES: usize = 12;
const N2: usize = 1400;
const N3: usize = 700;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct State {
    /// Keeps the unsharded devices (and their page stores) alive.
    _devices: Vec<Device>,
    unsharded: IndexSet,
    /// Sharded sets over the same dataset, in [`SHARD_COUNTS`] order.
    tiers: Vec<ShardedIndexSet>,
    pts2: Vec<(i64, i64)>,
    queries: Vec<Query>,
    /// Brute-force reference answer per query (canonical form).
    reference: Vec<Vec<u64>>,
}

fn build_state() -> State {
    let pts2 = points2(Dist2::Clustered, N2, 1000, 61);
    let pts3 = points3(Dist3::Uniform, N3, 1 << 16, 62);
    let probes = lifted_probes(&pts2, &pts3, 81);

    let dev2 = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let dev3 = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let mut unsharded = full_index_set(&dev2, &dev3, &pts2, &pts3);
    unsharded.calibrate(&probes);
    dev2.freeze();
    dev3.freeze();

    let cfg = DeviceConfig::new(PAGE, CACHE_PAGES);
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

    let queries = lifted_oracle(&pts2, &pts3, (180, 80, 60, 72, 72, 36), 71);
    assert_eq!(queries.len(), 500);
    let reference: Vec<Vec<u64>> = queries.iter().map(|q| brute_answer(q, &pts2, &pts3)).collect();
    State { _devices: vec![dev2, dev3], unsharded, tiers, pts2, queries, reference }
}

/// The fixture is expensive (eleven structure builds × 16 shards) and IO
/// is measured on shared device scopes, so tests serialize on one mutex.
fn state() -> MutexGuard<'static, State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(build_state())).lock().unwrap()
}

/// Assert the full answer + attribution contract of one sharded run. The
/// answers must already be in canonical order.
fn check_report(st: &State, s: usize, report: &ShardedReport, tag: &str) {
    let answers = report.answers.as_ref().expect("answers kept");
    for (qi, q) in st.queries.iter().enumerate() {
        let want = &st.reference[qi];
        assert_eq!(&answers[qi], want, "{tag} S={s} q{qi} {q:?}");
        assert_eq!(report.outcomes[qi].status, QueryStatus::Ok, "{tag} S={s} q{qi}");
        assert_eq!(report.outcomes[qi].reported, want.len(), "{tag} S={s} q{qi}");
        assert!(report.fanout[qi] <= s, "{tag} S={s} q{qi}: fan-out beyond S");
    }
    // The PR 3 invariant, per shard and per query: deltas sum exactly.
    assert_eq!(report.attributed_total(), report.total, "{tag} S={s} per-query attribution");
    let shard_sum: IoDelta = report.per_shard.iter().map(|r| r.io).sum();
    assert_eq!(shard_sum, report.total, "{tag} S={s} per-shard attribution");
    assert_eq!(report.total.writes, 0, "{tag} S={s}: report queries never write");
    assert_eq!(report.unsupported(), 0, "{tag} S={s}: the set covers every class");
}

#[test]
fn sharded_answers_match_unsharded_and_brute_at_every_s() {
    let st = state();
    // The unsharded reference run (already pinned against brute force by
    // the planner suite; re-checked here so the comparison is airtight).
    let unsharded = st.unsharded.execute(&st.queries, true);
    let unsharded_answers = unsharded.answers.as_ref().unwrap();
    for (qi, q) in st.queries.iter().enumerate() {
        assert_eq!(&canon_answer(q, unsharded_answers[qi].clone()), &st.reference[qi]);
    }

    for (ti, &s) in SHARD_COUNTS.iter().enumerate() {
        let sharded = &st.tiers[ti];
        assert_eq!(sharded.shards(), s);
        let report = sharded.execute(&st.queries, true);
        check_report(&st, s, &report, "in-memory");
        if s == 1 {
            // Identity routing: one shard IS the unsharded set, so the IO
            // totals must reproduce the unsharded planner exactly.
            assert_eq!(report.total, unsharded.total, "S=1 must match unsharded IO exactly");
            assert!(report.fanout.iter().all(|&f| f == 1));
        }
    }
}

#[test]
fn parallel_scatter_gather_matches_sequential() {
    let st = state();
    for (ti, &s) in SHARD_COUNTS.iter().enumerate() {
        let sharded = &st.tiers[ti];
        let sequential = sharded.execute(&st.queries, true);
        // Shards and merge ranges on the pool, within-shard execution
        // sequential: shards live on disjoint devices, so the whole report
        // is identical, every per-query delta included.
        let concurrent = sharded.execute_parallel(&st.queries, 1, true);
        check_report(&st, s, &concurrent, "parallel");
        assert!(
            concurrent.per_shard.windows(2).all(|w| w[0].shard < w[1].shard),
            "S={s}: per_shard strictly ascending by shard"
        );
        assert_eq!(
            concurrent.outcomes, sequential.outcomes,
            "S={s}: (query, status, reported, io)"
        );
        assert_eq!(concurrent.per_shard, sequential.per_shard, "S={s}: per-shard reports");
        assert_eq!(concurrent.fanout, sequential.fanout, "S={s}: fan-out");
        assert_eq!(concurrent.total, sequential.total, "S={s}: shard concurrency is IO-neutral");
        assert_eq!(concurrent.answers, sequential.answers, "S={s}");
        // Within-shard parallel workers on top: answers still identical
        // (worker sharding may shift which fork pays which read, so only
        // the answer/attribution contract is pinned, as in PR 3).
        let nested = sharded.execute_parallel(&st.queries, 4, true);
        check_report(&st, s, &nested, "nested-parallel");
        assert_eq!(nested.answers, sequential.answers, "S={s} nested");
    }
}

#[test]
fn reopened_sharded_catalog_is_bit_identical() {
    let st = state();
    for (ti, &s) in SHARD_COUNTS.iter().enumerate() {
        let sharded = &st.tiers[ti];
        let dir = TempDir::new(&format!("lcrs-shard-catalog-{s}"));
        sharded.save_to_catalog(dir.path()).unwrap();
        for shard in 0..s {
            let files = pages_files(&dir.path().join(format!("shard{shard}")));
            assert_eq!(files.len(), 2, "S={s} shard {shard}: one pages file per store");
        }
        let reopened = ShardedIndexSet::from_catalog(dir.path(), CACHE_PAGES).unwrap();
        assert_eq!(reopened.shards(), s);
        for shard in 0..s {
            assert_eq!(reopened.shard_sizes(shard), sharded.shard_sizes(shard));
            for slot in 0..sharded.shard_set(shard).len() {
                assert_eq!(
                    reopened.shard_set(shard).calibration(slot).constant.to_bits(),
                    sharded.shard_set(shard).calibration(slot).constant.to_bits(),
                    "S={s} shard {shard} slot {slot}: calibration must round-trip bit-exactly"
                );
            }
        }
        let original = sharded.execute(&st.queries, true);
        let re_run = reopened.execute(&st.queries, true);
        check_report(&st, s, &re_run, "reopened");
        assert_eq!(re_run.answers, original.answers, "S={s} reopened answers");
        assert_eq!(re_run.total, original.total, "S={s}: persistence never moves the cost model");
        // And the parallel path over the reopened catalog too.
        let re_par = reopened.execute_parallel(&st.queries, 1, true);
        assert_eq!(re_par.answers, original.answers, "S={s} reopened parallel");
        assert_eq!(re_par.total, original.total, "S={s} reopened parallel IO");
    }
}

#[test]
fn shards_are_near_even_and_routing_prunes() {
    let st = state();
    for (ti, &s) in SHARD_COUNTS.iter().enumerate() {
        let sharded = &st.tiers[ti];
        let sizes2: Vec<usize> = (0..s).map(|i| sharded.shard_sizes(i).0).collect();
        let sizes3: Vec<usize> = (0..s).map(|i| sharded.shard_sizes(i).1).collect();
        assert_eq!(sizes2.iter().sum::<usize>(), N2);
        assert_eq!(sizes3.iter().sum::<usize>(), N3);
        for sizes in [&sizes2, &sizes3] {
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= s.max(2), "S={s}: near-even shards, saw {sizes:?}");
        }
    }

    // The shard-stressing workload: narrow halfplanes with diverse slopes
    // must not fan out to every shard at S=8.
    let s8 = &st.tiers[3];
    let narrow: Vec<Query> = halfplane_narrow(&st.pts2, 64, 40, 40, 93)
        .into_iter()
        .map(|(m, c, inclusive)| Query::Halfplane { m, c, inclusive })
        .collect();
    let report = s8.execute(&narrow, true);
    assert!(
        report.mean_fanout() < 8.0,
        "S=8 narrow workload must prune, mean fan-out {}",
        report.mean_fanout()
    );
    // Narrow answers still exact and in canonical order, of course.
    let answers = report.answers.as_ref().unwrap();
    for (qi, q) in narrow.iter().enumerate() {
        assert_eq!(answers[qi], brute_answer(q, &st.pts2, &[]), "narrow q{qi}");
    }

    // A broad query (every point below) fans out everywhere; k-NN always
    // fans out (no sound geometric pruning for nearest neighbors).
    let broad = Query::Halfplane { m: 0, c: i64::MAX / 4, inclusive: false };
    assert_eq!(s8.fanout(&broad), 8);
    assert_eq!(s8.fanout(&Query::Knn { x: 0, y: 0, k: 3 }), 8);
}

#[test]
fn fanout_cost_model_orders_tiers() {
    let st = state();
    for (ti, &s) in SHARD_COUNTS.iter().enumerate() {
        let sharded = &st.tiers[ti];
        for q in st.queries.iter().take(50) {
            let cost = sharded.predicted_reads(q);
            assert!(cost.is_finite() && cost >= 0.0, "S={s} {q:?}: cost {cost}");
            // Pricing is (shards touched) × (per-shard cheapest cost):
            // zero fan-out means zero predicted cost, never negative.
            if sharded.fanout(q) == 0 {
                assert_eq!(cost, 0.0);
            }
        }
    }
}

#[test]
fn far_center_knn_is_answered_by_scan_unsharded_and_sharded() {
    let st = state();
    let q = Query::Knn { x: 1 << 23, y: 0, k: 3 };
    let want = brute_answer(&q, &st.pts2, &[]);
    let set = &st.unsharded;
    let knn = (0..set.len()).map(|s| set.structure(s)).find(|s| s.name() == "knn").unwrap();
    assert!(!knn.supports(&q), "the center is beyond the lift's budget");
    assert!(knn.try_execute(&q).is_err());
    let slot = set.plan(&[q]).assignments[0].expect("the scan takes every k-NN");
    assert_eq!(set.structure(slot).name(), "scan");
    let report = set.execute(&[q], true);
    assert_eq!(report.outcomes[0].status, QueryStatus::Ok);
    assert_eq!(report.answers.unwrap()[0], want);

    let ti = SHARD_COUNTS.iter().position(|&s| s == 4).unwrap();
    let report = st.tiers[ti].execute(&[q], true);
    assert_eq!(report.outcomes[0].status, QueryStatus::Ok);
    assert_eq!(report.answers.unwrap()[0], want, "S=4");

    // Centers at the i64 extremes: squared distances pass 2^127, so the
    // merge must rank by the carry-aware distance, as the scan does. With
    // k = n the whole ranking is compared.
    let far = [
        Query::Knn { x: i64::MIN, y: i64::MIN, k: N2 },
        Query::Knn { x: i64::MIN, y: i64::MIN, k: 40 },
    ];
    let want: Vec<Vec<u64>> = far.iter().map(|q| brute_answer(q, &st.pts2, &[])).collect();
    let unsharded = set.execute(&far, true).answers.unwrap();
    assert_eq!(unsharded, want, "unsharded");
    for (ti, &s) in SHARD_COUNTS.iter().enumerate() {
        let report = st.tiers[ti].execute(&far, true);
        assert!(report.outcomes.iter().all(|o| o.status == QueryStatus::Ok), "S={s}");
        assert_eq!(report.answers.unwrap(), want, "S={s}");
    }
}
