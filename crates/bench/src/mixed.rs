//! The shared mixed-workload oracle: ONE definition of the planner's
//! mixed batch construction — [`mixed_oracle`] for the base
//! halfplane/halfspace/k-NN mix, [`lifted_oracle`] for the six-class mix
//! adding the derived disk/aggregate/top-k legs of DESIGN.md §15 — used
//! by the planner test suite (`tests/engine_planner.rs`), the gated
//! `exp_planner` / `exp_lift` experiments, and the `planned_queries` /
//! `lifted_queries` examples. The consumers pass their own datasets and
//! counts (so the concrete query coefficients differ with the points),
//! but the class mix, coefficient ranges, seed schedule, and interleave
//! order live here once and cannot drift apart (DESIGN.md §10).

use lcrs_baselines::{ExternalKdTree, ExternalScan, ExternalScan3, StrRTree};
use lcrs_engine::{encode_sum, IndexSet, LiftedIndex, Query};
use lcrs_extmem::DeviceHandle;
use lcrs_geom::lift;
use lcrs_geom::point::PointD;
use lcrs_halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs_halfspace::hs3d::{HalfspaceRS3, Hs3dConfig};
use lcrs_halfspace::ptree::{PTreeConfig, PartitionTree};
use lcrs_halfspace::tradeoff::{HybridConfig, HybridTree3, ShallowConfig, ShallowTree3};
use lcrs_halfspace::DynamicHalfspace2;
use lcrs_workloads::{
    aggregate_mixed, disk_mixed, halfplane_mixed, halfspace3_mixed, knn_mixed, topk_mixed,
};

/// Slope/offset range of the 2D halfplane leg (see
/// [`lcrs_workloads::halfplane_mixed`]).
const HP_SLOPE: i64 = 40;
/// Coefficient range of the 3D halfspace leg.
const HS_SLOPE: i64 = 24;
/// Upper bound on `k` for the k-NN leg.
const KNN_K_MAX: usize = 20;

/// The canonical mixed workload over one 2D + one 3D dataset:
/// `counts = (halfplane, halfspace, knn)` queries, legs seeded `seed`,
/// `seed + 1`, `seed + 2`, interleaved 3:1:1 on a fixed five-slot
/// schedule (legs that run dry fall back to the others, so the output
/// always holds exactly `counts.0 + counts.1 + counts.2` queries).
/// Deterministic in `(pts2, pts3, counts, seed)`.
pub fn mixed_oracle(
    pts2: &[(i64, i64)],
    pts3: &[(i64, i64, i64)],
    counts: (usize, usize, usize),
    seed: u64,
) -> Vec<Query> {
    let (n_hp, n_hs, n_knn) = counts;
    let hp = halfplane_mixed(pts2, n_hp, HP_SLOPE, seed)
        .into_iter()
        .map(|(m, c, inclusive)| Query::Halfplane { m, c, inclusive });
    let hs = halfspace3_mixed(pts3, n_hs, HS_SLOPE, seed + 1)
        .into_iter()
        .map(|(u, v, w, inclusive)| Query::Halfspace { u, v, w, inclusive });
    let kn = knn_mixed(pts2, n_knn, KNN_K_MAX, seed + 2).into_iter().map(|(x, y, k)| Query::Knn {
        x,
        y,
        k,
    });
    let (mut hp, mut hs, mut kn) = (hp.fuse(), hs.fuse(), kn.fuse());
    let mut out = Vec::with_capacity(n_hp + n_hs + n_knn);
    for i in 0.. {
        let q = match i % 5 {
            3 => hs.next().or_else(|| hp.next()).or_else(|| kn.next()),
            4 => kn.next().or_else(|| hp.next()).or_else(|| hs.next()),
            _ => hp.next().or_else(|| hs.next()).or_else(|| kn.next()),
        };
        match q {
            Some(q) => out.push(q),
            None => break,
        }
    }
    out
}

/// Radius bound of the disk leg (squared radii up to `LIFT_RMAX²`).
const LIFT_RMAX: i64 = 300;
/// Upper bound on `k` for the top-k leg.
const TOPK_K_MAX: usize = 16;

/// The *lifted* mixed workload of DESIGN.md §15: [`mixed_oracle`]'s three
/// base legs plus disk, count/sum, and top-k legs,
/// `counts = (halfplane, halfspace, knn, disk, aggregate, topk)`, the new
/// legs seeded `seed + 3`, `seed + 4`, `seed + 5` and spliced after the
/// base interleave on a fixed three-slot rotation (a dry leg falls back
/// to the others, so the output always holds exactly the requested total).
/// Deterministic in `(pts2, pts3, counts, seed)`.
pub fn lifted_oracle(
    pts2: &[(i64, i64)],
    pts3: &[(i64, i64, i64)],
    counts: (usize, usize, usize, usize, usize, usize),
    seed: u64,
) -> Vec<Query> {
    let (n_hp, n_hs, n_knn, n_disk, n_agg, n_topk) = counts;
    let base = mixed_oracle(pts2, pts3, (n_hp, n_hs, n_knn), seed);
    let dk = disk_mixed(pts2, n_disk, LIFT_RMAX, seed + 3)
        .into_iter()
        .map(|(x, y, r2, inclusive)| Query::Disk { x, y, r2, inclusive });
    let ag = aggregate_mixed(pts2, n_agg, HP_SLOPE, seed + 4).into_iter().map(
        |(m, c, inclusive, sum)| {
            if sum {
                Query::Sum { m, c, inclusive }
            } else {
                Query::Count { m, c, inclusive }
            }
        },
    );
    let tk = topk_mixed(pts2, n_topk, HP_SLOPE, TOPK_K_MAX, seed + 5)
        .into_iter()
        .map(|(m, c, k)| Query::TopK { m, c, k });
    let (mut dk, mut ag, mut tk) = (dk.fuse(), ag.fuse(), tk.fuse());
    let mut out = base;
    for i in 0.. {
        let q = match i % 3 {
            0 => dk.next().or_else(|| ag.next()).or_else(|| tk.next()),
            1 => ag.next().or_else(|| tk.next()).or_else(|| dk.next()),
            _ => tk.next().or_else(|| dk.next()).or_else(|| ag.next()),
        };
        match q {
            Some(q) => out.push(q),
            None => break,
        }
    }
    out
}

/// The measured probe sample paired with [`lifted_oracle`], mirroring
/// [`mixed_probes`] with all six legs present: at least 4 probes of each
/// of the seven query classes, so `IndexSet::calibrate` fits every class
/// a structure answers from that class's own probes.
pub fn lifted_probes(pts2: &[(i64, i64)], pts3: &[(i64, i64, i64)], seed: u64) -> Vec<Query> {
    lifted_oracle(pts2, pts3, (8, 4, 4, 8, 8, 8), seed)
}

/// The measured probe sample paired with [`mixed_oracle`]: a small
/// (16 + 8 + 8)-query batch for `IndexSet::calibrate`, at least 4 probes
/// of each of its three classes. Keep its `seed`
/// disjoint from the workload's so calibration never sees the gated
/// queries (probe *order* is immaterial — each probe runs cold).
pub fn mixed_probes(pts2: &[(i64, i64)], pts3: &[(i64, i64, i64)], seed: u64) -> Vec<Query> {
    mixed_oracle(pts2, pts3, (16, 8, 8), seed)
}

/// Every `RangeIndex` structure in the workspace over one 2D + one 3D
/// dataset — the canonical eleven-slot fixture shared by the planner,
/// shard and serve test suites, `exp_planner`/`exp_shard` and the
/// benchmark; the lifted `HalfspaceRS3` (`knn`) answers both k-NN and
/// disks. Slot order is load-bearing and must stay in one place:
/// `IndexSet::plan` breaks predicted-cost ties toward earlier slots, so
/// the scan-class structures sit last — a tie must never break toward a
/// scan. The dynamic structure inserts with tag = input index, keeping
/// its answers comparable to a brute-force reference.
pub fn full_index_set(
    h2: &DeviceHandle,
    h3: &DeviceHandle,
    pts2: &[(i64, i64)],
    pts3: &[(i64, i64, i64)],
) -> IndexSet {
    let mut set = IndexSet::new();
    set.add(Box::new(HalfspaceRS2::build(h2, pts2, Hs2dConfig::default())));
    let pd: Vec<PointD<2>> = pts2.iter().map(|&(x, y)| PointD::new([x, y])).collect();
    set.add(Box::new(PartitionTree::<2>::build(h2, &pd, PTreeConfig::default())));
    set.add(Box::new(ExternalKdTree::build(h2, pts2)));
    set.add(Box::new(StrRTree::build(h2, pts2)));
    let mut dynamic = DynamicHalfspace2::new(h2, Hs2dConfig::default());
    for (i, &(x, y)) in pts2.iter().enumerate() {
        dynamic.insert(x, y, i as u64);
    }
    set.add(Box::new(dynamic));
    set.add(Box::new(LiftedIndex::build(h2, pts2)));
    set.add(Box::new(HalfspaceRS3::build(h3, pts3, Hs3dConfig::default())));
    set.add(Box::new(HybridTree3::build(h3, pts3, HybridConfig::default())));
    set.add(Box::new(ShallowTree3::build(h3, pts3, ShallowConfig::default())));
    set.add(Box::new(ExternalScan::build(h2, pts2)));
    set.add(Box::new(ExternalScan3::build(h3, pts3)));
    set
}

/// Canonical answer form for cross-structure comparison: report queries
/// (halfplane, halfspace, disk) sort their id sets — structures report in
/// structure-specific order. Ranked answers (k-NN by distance, top-k by
/// `y − m·x`; ties by id) are already canonically ordered by every capable
/// structure, so their order is preserved and compared; aggregate answers
/// are scalars (count word, sum words), never sorted.
pub fn canon_answer(q: &Query, mut ids: Vec<u64>) -> Vec<u64> {
    if !(q.is_ranked() || q.is_aggregate()) {
        ids.sort_unstable();
    }
    ids
}

/// Host-side brute force in canonical form (ids ascending for reports,
/// `(distance, id)` order for k-NN), exact for every `i64` input: `i128`
/// widening for the linear predicates and the structures' own carry-aware
/// distance predicates ([`lift::dist2_carry`], [`lift::in_disk`]) for
/// k-NN and disks — ONE reference implementation shared by the planner
/// and sharding differential suites. Ids are input indices (2D for every
/// class but halfspace, 3D for halfspace).
pub fn brute_answer(q: &Query, pts2: &[(i64, i64)], pts3: &[(i64, i64, i64)]) -> Vec<u64> {
    match *q {
        Query::Halfplane { m, c, inclusive } => {
            below2(pts2, m, c, inclusive).map(|(i, _)| i as u64).collect()
        }
        Query::Halfspace { u, v, w, inclusive } => pts3
            .iter()
            .enumerate()
            .filter(|(_, &(x, y, z))| {
                let rhs = u as i128 * x as i128 + v as i128 * y as i128 + w as i128;
                if inclusive {
                    z as i128 <= rhs
                } else {
                    (z as i128) < rhs
                }
            })
            .map(|(i, _)| i as u64)
            .collect(),
        Query::Knn { x, y, k } => {
            let mut d: Vec<((bool, u128), u64)> = pts2
                .iter()
                .enumerate()
                .map(|(i, &(px, py))| (lift::dist2_carry(x, y, px, py), i as u64))
                .collect();
            d.sort_unstable();
            d.into_iter().take(k).map(|(_, i)| i).collect()
        }
        Query::Disk { x, y, r2, inclusive } => pts2
            .iter()
            .enumerate()
            .filter(|(_, &(px, py))| lift::in_disk(x, y, r2, px, py, inclusive))
            .map(|(i, _)| i as u64)
            .collect(),
        Query::Count { m, c, inclusive } => {
            vec![below2(pts2, m, c, inclusive).count() as u64]
        }
        Query::Sum { m, c, inclusive } => {
            encode_sum(below2(pts2, m, c, inclusive).map(|(_, (x, y))| x as i128 + y as i128).sum())
        }
        Query::TopK { m, c, k } => {
            let mut cand: Vec<(i128, u64)> = pts2
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| (y as i128 - m as i128 * x as i128, i as u64))
                .filter(|&(key, _)| key <= c as i128)
                .collect();
            cand.sort_unstable();
            cand.into_iter().take(k).map(|(_, i)| i).collect()
        }
    }
}

/// The 2D points below `y = m·x + c` with their input indices, in input
/// order — the one membership predicate the halfplane arms share.
fn below2(
    pts2: &[(i64, i64)],
    m: i64,
    c: i64,
    inclusive: bool,
) -> impl Iterator<Item = (usize, (i64, i64))> + '_ {
    pts2.iter()
        .enumerate()
        .filter(move |(_, &(x, y))| {
            let rhs = m as i128 * x as i128 + c as i128;
            if inclusive {
                y as i128 <= rhs
            } else {
                (y as i128) < rhs
            }
        })
        .map(|(i, &p)| (i, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrs_engine::QueryClass;
    use lcrs_workloads::{points2, points3, Dist2, Dist3};

    #[test]
    fn oracle_is_deterministic_and_complete() {
        let pts2 = points2(Dist2::Uniform, 200, 1000, 5);
        let pts3 = points3(Dist3::Uniform, 100, 1 << 12, 6);
        let a = mixed_oracle(&pts2, &pts3, (30, 12, 8), 71);
        let b = mixed_oracle(&pts2, &pts3, (30, 12, 8), 71);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        let n = |f: fn(&Query) -> bool| a.iter().filter(|q| f(q)).count();
        assert_eq!(n(|q| matches!(q, Query::Halfplane { .. })), 30);
        assert_eq!(n(|q| matches!(q, Query::Halfspace { .. })), 12);
        assert_eq!(n(|q| matches!(q, Query::Knn { .. })), 8);
        // The five-slot schedule interleaves from the start: the first five
        // queries hold all three classes.
        assert!(matches!(a[3], Query::Halfspace { .. }));
        assert!(matches!(a[4], Query::Knn { .. }));
    }

    #[test]
    fn probe_samples_hold_at_least_four_probes_per_class() {
        let pts2 = points2(Dist2::Uniform, 200, 1000, 5);
        let pts3 = points3(Dist3::Uniform, 100, 1 << 12, 6);
        let per_class = |probes: Vec<Query>| {
            QueryClass::ALL.map(|class| probes.iter().filter(|q| q.class() == class).count())
        };
        let lifted = per_class(lifted_probes(&pts2, &pts3, 81));
        assert!(lifted.iter().all(|&n| n >= 4), "{lifted:?}");
        let [halfplane, halfspace, knn, ..] = per_class(mixed_probes(&pts2, &pts3, 81));
        assert!(halfplane >= 4 && halfspace >= 4 && knn >= 4, "{halfplane} {halfspace} {knn}");
    }

    #[test]
    fn canon_sorts_reports_but_preserves_knn_order() {
        let report = Query::Halfplane { m: 1, c: 0, inclusive: false };
        assert_eq!(canon_answer(&report, vec![3, 1, 2]), vec![1, 2, 3]);
        let knn = Query::Knn { x: 0, y: 0, k: 3 };
        assert_eq!(canon_answer(&knn, vec![3, 1, 2]), vec![3, 1, 2]);
        // Derived classes: disks sort like reports, ranked and aggregate
        // answers are order-preserving (top-k rank, sum's word split).
        let disk = Query::Disk { x: 0, y: 0, r2: 4, inclusive: true };
        assert_eq!(canon_answer(&disk, vec![3, 1, 2]), vec![1, 2, 3]);
        let topk = Query::TopK { m: 0, c: 0, k: 3 };
        assert_eq!(canon_answer(&topk, vec![3, 1, 2]), vec![3, 1, 2]);
        let sum = Query::Sum { m: 0, c: 0, inclusive: true };
        assert_eq!(canon_answer(&sum, vec![7, 3]), vec![7, 3]);
    }

    #[test]
    fn lifted_oracle_is_deterministic_and_complete() {
        let pts2 = points2(Dist2::Uniform, 200, 1000, 5);
        let pts3 = points3(Dist3::Uniform, 100, 1 << 12, 6);
        let counts = (12, 6, 6, 10, 10, 6);
        let a = lifted_oracle(&pts2, &pts3, counts, 71);
        assert_eq!(a, lifted_oracle(&pts2, &pts3, counts, 71));
        assert_eq!(a.len(), 50);
        // The base interleave is exactly mixed_oracle's — the new legs
        // splice after it without disturbing pinned prefixes.
        assert_eq!(a[..24], mixed_oracle(&pts2, &pts3, (12, 6, 6), 71)[..]);
        let n = |f: fn(&Query) -> bool| a.iter().filter(|q| f(q)).count();
        assert_eq!(n(|q| matches!(q, Query::Disk { .. })), 10);
        assert_eq!(n(|q| q.is_aggregate()), 10);
        assert_eq!(n(|q| matches!(q, Query::TopK { .. })), 6);
        assert_eq!(n(|q| matches!(q, Query::Count { .. })), 5);
        assert_eq!(n(|q| matches!(q, Query::Sum { .. })), 5);
    }

    #[test]
    fn brute_answers_the_derived_classes_exactly() {
        let pts2 = vec![(0, 0), (3, 4), (0, 5), (-2, -2)];
        let disk = Query::Disk { x: 0, y: 0, r2: 25, inclusive: true };
        assert_eq!(brute_answer(&disk, &pts2, &[]), vec![0, 1, 2, 3]);
        let strict = Query::Disk { x: 0, y: 0, r2: 25, inclusive: false };
        assert_eq!(brute_answer(&strict, &pts2, &[]), vec![0, 3]);
        // Count/Sum below y <= 0·x + 0: points (0,0) and (-2,-2).
        let count = Query::Count { m: 0, c: 0, inclusive: true };
        assert_eq!(brute_answer(&count, &pts2, &[]), vec![2]);
        let sum = Query::Sum { m: 0, c: 0, inclusive: true };
        assert_eq!(brute_answer(&sum, &pts2, &[]), encode_sum(-4));
        // Top-k by key y − 0·x ≤ 5, two lowest: (-2,-2) key −4, (0,0) key 0.
        let topk = Query::TopK { m: 0, c: 5, k: 2 };
        assert_eq!(brute_answer(&topk, &pts2, &[]), vec![3, 0]);
    }

    #[test]
    fn brute_is_exact_at_the_i64_extremes() {
        // A difference of 2^64 − 1 squares past i128: the farther point
        // must not rank first, and a disk of r² = i64::MAX must not admit
        // a point (2^64 − 1)·√2 away.
        let knn = Query::Knn { x: i64::MAX, y: 0, k: 1 };
        assert_eq!(brute_answer(&knn, &[(i64::MIN, 0), (0, 0)], &[]), vec![1]);
        let disk = Query::Disk { x: i64::MAX, y: i64::MAX, r2: i64::MAX, inclusive: true };
        assert_eq!(brute_answer(&disk, &[(i64::MIN, i64::MIN)], &[]), Vec::<u64>::new());
    }
}
