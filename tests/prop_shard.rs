//! Property suite for the space partitioner behind `ShardedIndexSet`
//! (ISSUE 6): arbitrary point sets (duplicates, collinear runs, tiny
//! inputs) through `partition2`/`partition3` at S ∈ {1, 2, 4, 8}.
//!
//! Pinned properties:
//! * **near-even** — |max − min| shard size stays bounded (each
//!   ham-sandwich / median split is off by at most one per level);
//! * **disjoint cover** — the shard groups partition the input ids, and
//!   every input point's coordinates land in *exactly* the cells of the
//!   shards that hold a copy of that point (pure geometry: duplicates
//!   stay together, no point is claimed by a foreign cell);
//! * **no-false-negative routing** — for arbitrary halfplane/halfspace
//!   constraints, every shard holding a satisfying point passes the
//!   region's `may_intersect` test: routing never prunes an answer;
//! * **exact gather** — a `ShardedIndexSet` whose shards each hold a 2D
//!   and a 3D scan answers all seven query classes exactly as brute
//!   force does, in canonical order and without re-sorting, including
//!   k above n, centers at the `i64` extremes, empty and all-points
//!   halfplanes, and aggregates that routing prunes to zero shards; and
//!   `execute_parallel` reports exactly what `execute` does on prefixes
//!   of that batch, the empty one included.

use lcrs::baselines::{ExternalScan, ExternalScan3};
use lcrs::engine::{IndexSet, Query, QueryStatus, ShardConfig, ShardedIndexSet};
use lcrs::extmem::{DeviceConfig, DeviceHandle};
use lcrs::halfspace::{partition2, partition3};
use lcrs::workloads::{count_below2, count_below3};
use lcrs_bench::brute_answer;
use proptest::prelude::*;

/// Valid shard counts for `n` points: powers of two ≤ n.
fn shard_counts(n: usize) -> Vec<usize> {
    [1usize, 2, 4, 8].into_iter().filter(|&s| s <= n).collect()
}

fn satisfies2(p: (i64, i64), m: i64, c: i64, inclusive: bool) -> bool {
    let rhs = m as i128 * p.0 as i128 + c as i128;
    if inclusive {
        p.1 as i128 <= rhs
    } else {
        (p.1 as i128) < rhs
    }
}

fn satisfies3(p: (i64, i64, i64), u: i64, v: i64, w: i64, inclusive: bool) -> bool {
    let rhs = u as i128 * p.0 as i128 + v as i128 * p.1 as i128 + w as i128;
    if inclusive {
        p.2 as i128 <= rhs
    } else {
        (p.2 as i128) < rhs
    }
}

const C: std::ops::RangeInclusive<i64> = -20_000i64..=20_000;

/// A shard set of one 2D and one 3D scan: every class has exactly one
/// capable slot, so the sharded answer is the gather of the scans'.
fn scan_set(
    h2: &DeviceHandle,
    h3: &DeviceHandle,
    pts2: &[(i64, i64)],
    pts3: &[(i64, i64, i64)],
) -> IndexSet {
    let mut set = IndexSet::new();
    set.add(Box::new(ExternalScan::build(h2, pts2)));
    set.add(Box::new(ExternalScan3::build(h3, pts3)));
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn partition2_is_near_even_disjoint_and_covering(
        pts in prop::collection::vec((C, C), 1..300),
    ) {
        for s in shard_counts(pts.len()) {
            let p = partition2(&pts, s);
            prop_assert_eq!(p.groups.len(), s);
            prop_assert_eq!(p.regions.len(), s);

            // Disjoint cover of ids: every input index in exactly one group.
            let mut seen = vec![false; pts.len()];
            for g in &p.groups {
                for &i in g {
                    prop_assert!(!seen[i as usize], "id {} in two shards", i);
                    seen[i as usize] = true;
                }
            }
            prop_assert!(seen.iter().all(|&b| b), "some id unassigned");

            // Near-even: each split is off by at most one per level.
            let sizes: Vec<usize> = p.groups.iter().map(Vec::len).collect();
            let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
            prop_assert!(max - min <= s.max(2), "S={} sizes {:?}", s, sizes);

            // Geometric cover: a point's coordinates are contained in the
            // cell of every shard holding a copy of it, and (S>1) in no
            // other cell — cells are disjoint, duplicates stay together.
            for (si, g) in p.groups.iter().enumerate() {
                for &i in g {
                    prop_assert!(
                        p.regions[si].cell_contains(pts[i as usize]),
                        "S={} shard {} does not contain its own point {:?}",
                        s, si, pts[i as usize]
                    );
                    if s > 1 {
                        prop_assert_eq!(p.cell_of(pts[i as usize]), Some(si));
                    }
                }
            }
        }
    }

    #[test]
    fn partition2_routing_has_no_false_negatives(
        pts in prop::collection::vec((C, C), 1..300),
        m in -60i64..=60,
        c in -2_000_000i64..=2_000_000,
        inclusive in any::<bool>(),
    ) {
        for s in shard_counts(pts.len()) {
            let p = partition2(&pts, s);
            for (si, g) in p.groups.iter().enumerate() {
                let holds_answer = g.iter().any(|&i| satisfies2(pts[i as usize], m, c, inclusive));
                if holds_answer {
                    prop_assert!(
                        p.regions[si].may_intersect_halfplane(m, c, inclusive),
                        "S={} shard {} holds an answer but routing pruned it",
                        s, si
                    );
                }
            }
            // Sanity: the union over non-pruned shards reproduces the count.
            let routed: usize = p
                .groups
                .iter()
                .zip(&p.regions)
                .filter(|(_, r)| r.may_intersect_halfplane(m, c, inclusive))
                .map(|(g, _)| {
                    g.iter().filter(|&&i| satisfies2(pts[i as usize], m, c, inclusive)).count()
                })
                .sum();
            let strict: usize = pts.iter().filter(|&&q| satisfies2(q, m, c, inclusive)).count();
            prop_assert_eq!(routed, strict);
            if !inclusive {
                prop_assert_eq!(strict, count_below2(&pts, m, c));
            }
        }
    }

    #[test]
    fn partition3_covers_and_routes_soundly(
        pts in prop::collection::vec((C, C, C), 1..200),
        u in -40i64..=40,
        v in -40i64..=40,
        w in -2_000_000i64..=2_000_000,
        inclusive in any::<bool>(),
    ) {
        for s in shard_counts(pts.len()) {
            let p = partition3(&pts, s);
            let mut seen = vec![false; pts.len()];
            for (si, g) in p.groups.iter().enumerate() {
                for &i in g {
                    prop_assert!(!seen[i as usize]);
                    seen[i as usize] = true;
                    prop_assert!(p.regions[si].cell_contains(pts[i as usize]));
                    if s > 1 {
                        prop_assert_eq!(p.cell_of(pts[i as usize]), Some(si));
                    }
                }
            }
            prop_assert!(seen.iter().all(|&b| b));
            let sizes: Vec<usize> = p.groups.iter().map(Vec::len).collect();
            let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
            prop_assert!(max - min <= s.max(2), "S={} sizes {:?}", s, sizes);

            for (si, g) in p.groups.iter().enumerate() {
                if g.iter().any(|&i| satisfies3(pts[i as usize], u, v, w, inclusive)) {
                    prop_assert!(
                        p.regions[si].may_intersect_halfspace(u, v, w, inclusive),
                        "S={} shard {} holds an answer but routing pruned it",
                        s, si
                    );
                }
            }
            if !inclusive {
                let strict = pts.iter().filter(|&&q| satisfies3(q, u, v, w, inclusive)).count();
                prop_assert_eq!(strict, count_below3(&pts, u, v, w));
            }
        }
    }
    #[test]
    fn sharded_gather_matches_brute_force(
        pts2 in prop::collection::vec((C, C), 1..300),
        pts3 in prop::collection::vec((C, C, C), 1..300),
        (m, c, inclusive) in (-60i64..=60, -2_000_000i64..=2_000_000, any::<bool>()),
        (u, v, w) in (-40i64..=40, -40i64..=40, -2_000_000i64..=2_000_000),
        (x, y, r2) in (C, C, 0i64..=400_000_000),
        k in 0usize..=320,
    ) {
        let n = pts2.len();
        let queries = [
            Query::Halfplane { m, c, inclusive },
            Query::Halfplane { m: 0, c: i64::MIN, inclusive: false },
            Query::Halfplane { m: 0, c: i64::MAX, inclusive: true },
            Query::Halfspace { u, v, w, inclusive },
            Query::Knn { x, y, k },
            Query::Knn { x, y, k: n + 1 },
            Query::Knn { x: i64::MIN, y: i64::MIN, k },
            Query::Knn { x: i64::MAX, y: i64::MIN, k: n },
            Query::Disk { x, y, r2, inclusive },
            Query::Disk { x: i64::MIN, y: i64::MAX, r2: i64::MAX, inclusive: true },
            Query::Count { m, c, inclusive },
            Query::Sum { m, c, inclusive },
            Query::Count { m: 0, c: i64::MIN, inclusive: false },
            Query::Sum { m: 0, c: i64::MIN, inclusive: false },
            Query::TopK { m, c, k },
            Query::TopK { m, c: i64::MAX, k: n + 1 },
        ];
        let want: Vec<Vec<u64>> = queries.iter().map(|q| brute_answer(q, &pts2, &pts3)).collect();
        for s in shard_counts(n.min(pts3.len())) {
            let cfg = ShardConfig { shards: s, device: DeviceConfig::new(256, 0) };
            let sharded = ShardedIndexSet::build(&pts2, &pts3, &cfg, scan_set);
            if s > 1 {
                // Nothing lies below y = i64::MIN: routing prunes every
                // shard and the gather synthesizes the zero aggregate.
                prop_assert_eq!(sharded.fanout(&queries[12]), 0);
                prop_assert_eq!(sharded.fanout(&queries[13]), 0);
            }
            let report = sharded.execute(&queries, true);
            let answers = report.answers.as_ref().unwrap();
            for (qi, q) in queries.iter().enumerate() {
                prop_assert_eq!(&answers[qi], &want[qi], "S={} {:?}", s, q);
                prop_assert_eq!(report.outcomes[qi].status, QueryStatus::Ok);
                prop_assert_eq!(report.outcomes[qi].reported, want[qi].len());
            }
            // The pooled path on prefixes: merge ranges with no query, a
            // lone query, and fan-out-0 aggregates (queries 12 and 13).
            for len in [0, 1, 2, 15, 16] {
                let seq = sharded.execute(&queries[..len], true);
                let par = sharded.execute_parallel(&queries[..len], 1, true);
                prop_assert_eq!(&seq.answers.as_ref().unwrap()[..], &want[..len], "S={} len={}", s, len);
                prop_assert!(
                    par.per_shard.windows(2).all(|w| w[0].shard < w[1].shard),
                    "S={} len={}: per_shard strictly ascending", s, len
                );
                prop_assert_eq!(&par.outcomes, &seq.outcomes, "S={} len={}", s, len);
                prop_assert_eq!(&par.per_shard, &seq.per_shard, "S={} len={}", s, len);
                prop_assert_eq!(&par.fanout, &seq.fanout, "S={} len={}", s, len);
                prop_assert_eq!(par.total, seq.total, "S={} len={}", s, len);
                prop_assert_eq!(&par.answers, &seq.answers, "S={} len={}", s, len);
            }
        }
    }
}
