//! Property-based tests (proptest) on the core invariants:
//! * the 2D and 3D structures agree with brute force on arbitrary inputs,
//!   including duplicates and collinear/degenerate layouts;
//! * the bulk-loaded B+-tree answers `get`, `floor` and `range` like
//!   `BTreeMap` on arbitrary key sets;
//! * the greedy clustering respects the Lemma 3.2 bounds for arbitrary k;
//! * box classification agrees with corner enumeration in any dimension.

use lcrs::engine::{LiftedIndex, Query, RangeIndex};
use lcrs::extmem::btree::BPlusTree;
use lcrs::extmem::{Device, DeviceConfig};
use lcrs::geom::lift::MAX_DISK_CENTER;
use lcrs::geom::point::{BoxSide, HyperplaneD, PointD};
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs::halfspace::hs3d::{HalfspaceRS3, Hs3dConfig};
use proptest::prelude::*;

/// Promote ~half of `pts` to out-of-lift-budget coordinates — up to the
/// `i64` extremes — per the selector mask: the tail path of the lifted
/// index must stay exact for any representable point.
fn with_extremes(pts: &[(i64, i64)], mask: &[u8]) -> Vec<(i64, i64)> {
    pts.iter()
        .zip(mask.iter().chain(std::iter::repeat(&0)))
        .map(|(&(x, y), &m)| match m {
            4 => (i64::MAX, y),
            5 => (i64::MIN, y),
            6 => (x, 1 << 40),
            7 => (-(1 << 40), i64::MIN),
            _ => (x, y),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hs2d_matches_brute_force(
        pts in prop::collection::vec((-5000i64..5000, -5000i64..5000), 1..120),
        queries in prop::collection::vec((-50i64..50, -10_000i64..10_000, any::<bool>()), 1..8),
    ) {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        for (m, c, inclusive) in queries {
            let mut got = hs.query_below(m, c, inclusive);
            got.sort_unstable();
            let mut want: Vec<u32> = pts.iter().enumerate().filter(|(_, &(x, y))| {
                let rhs = m as i128 * x as i128 + c as i128;
                if inclusive { y as i128 <= rhs } else { (y as i128) < rhs }
            }).map(|(i, _)| i as u32).collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn hs3d_matches_brute_force(
        pts in prop::collection::vec((-2000i64..2000, -2000i64..2000, -2000i64..2000), 1..80),
        queries in prop::collection::vec((-30i64..30, -30i64..30, -5_000i64..5_000, any::<bool>()), 1..6),
    ) {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let hs = HalfspaceRS3::build(&dev, &pts, Hs3dConfig { copies: 1, ..Default::default() });
        for (u, v, w, inclusive) in queries {
            let mut got = hs.query_below(u, v, w, inclusive);
            got.sort_unstable();
            let mut want: Vec<u32> = pts.iter().enumerate().filter(|(_, &(x, y, z))| {
                let rhs = u as i128 * x as i128 + v as i128 * y as i128 + w as i128;
                if inclusive { z as i128 <= rhs } else { (z as i128) < rhs }
            }).map(|(i, _)| i as u32).collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn lifted_disk_matches_brute_force_including_extremes(
        base in prop::collection::vec((-3000i64..3000, -3000i64..3000), 1..60),
        mask in prop::collection::vec(0u8..8, 1..60),
        queries in prop::collection::vec(
            (
                -MAX_DISK_CENTER..=MAX_DISK_CENTER,
                -MAX_DISK_CENTER..=MAX_DISK_CENTER,
                -10i64..40_000_000,
                0u8..8,
                any::<bool>(),
            ),
            1..6,
        ),
    ) {
        // The lifted index must agree with exact i128 membership for any
        // representable points — out-of-budget ones ride the tail — and
        // any in-budget center, including negative and huge r².
        let pts = with_extremes(&base, &mask);
        let dev = Device::new(DeviceConfig::new(512, 0));
        let lifted = LiftedIndex::build(&dev, &pts);
        for &(x, y, r2_raw, r2_sel, inclusive) in &queries {
            let r2 = match r2_sel {
                6 => i64::MAX,
                7 => 1 << 62,
                _ => r2_raw,
            };
            let mut want: Vec<u64> = pts.iter().enumerate().filter(|(_, &(px, py))| {
                let (dx, dy) = (x as i128 - px as i128, y as i128 - py as i128);
                let d2 = dx * dx + dy * dy;
                if inclusive { d2 <= r2 as i128 } else { d2 < r2 as i128 }
            }).map(|(i, _)| i as u64).collect();
            want.sort_unstable();
            let mut got = lifted.disk_report(x, y, r2, inclusive);
            got.sort_unstable();
            prop_assert_eq!(&got, &want, "({}, {}, r2={}, inc={})", x, y, r2, inclusive);
        }
    }

    #[test]
    fn btree_matches_btreemap(
        entries in prop::collection::vec((-1000i64..1000, any::<i64>()), 0..301),
        probes in prop::collection::vec(-1100i64..1100, 0..40),
        lo in -1100i64..1100,
        span in 0i64..800,
    ) {
        // A strictly increasing set of 0 to 300 keys (a repeated key keeps
        // its last value); 256-byte pages give up to three levels.
        let model: std::collections::BTreeMap<i64, i64> = entries.into_iter().collect();
        let pairs: Vec<(i64, i64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        let dev = Device::new(DeviceConfig::new(256, 0));
        let tree = BPlusTree::bulk_load(&dev, &pairs);
        prop_assert_eq!(tree.len(), model.len());
        // Every key and its predecessor (a leaf's first key and the key
        // just before it), then the random probes.
        let keys = model.keys().flat_map(|&k| [k, k - 1]);
        for k in keys.chain(probes) {
            prop_assert_eq!(tree.get(&k), model.get(&k).copied());
            let floor = model.range(..=k).next_back().map(|(a, b)| (*a, *b));
            prop_assert_eq!(tree.floor(&k), floor);
        }
        let mut got = Vec::new();
        tree.range(&lo, &(lo + span), |k, v| got.push((*k, *v)));
        let want: Vec<(i64, i64)> = model.range(lo..=lo + span).map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
        let mut scanned = Vec::new();
        tree.range(&i64::MIN, &i64::MAX, |k, v| scanned.push((*k, *v)));
        prop_assert_eq!(scanned, pairs);
    }

    #[test]
    fn clustering_respects_lemma_3_2(
        seed in any::<u64>(),
        n in 8usize..80,
        k in 1usize..8,
    ) {
        use lcrs::geom::line2::Line2;
        use lcrs::halfspace::hs2d::cluster::greedy_clustering;
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as i64
        };
        let mut lines: Vec<Line2> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        while lines.len() < n {
            let l = Line2::new(next() % 512 - 256, next() % 65536 - 32768);
            if seen.insert((l.m, l.b)) {
                lines.push(l);
            }
        }
        prop_assume!(k < lines.len());
        let ids: Vec<u32> = (0..lines.len() as u32).collect();
        let c = greedy_clustering(&lines, &ids, k, 3);
        for cl in &c.clusters {
            prop_assert!(cl.len() <= 3 * k);
        }
        if c.clusters.len() > 1 {
            prop_assert!(c.clusters.len() <= n.div_ceil(k));
        }
    }

    #[test]
    fn box_classification_matches_corners_4d(
        coef in prop::array::uniform4(-20i64..20),
        lo in prop::array::uniform4(-50i64..50),
        ext in prop::array::uniform4(0i64..40),
    ) {
        let h: HyperplaneD<4> = HyperplaneD::new(coef);
        let hi: [i64; 4] = std::array::from_fn(|i| lo[i] + ext[i]);
        let b = lcrs::geom::point::Aabb { lo, hi };
        let mut any_below = false;
        let mut all_below = true;
        for mask in 0..16u32 {
            let p = PointD::new(std::array::from_fn(|i| {
                if mask & (1 << i) == 0 { lo[i] } else { hi[i] }
            }));
            if h.strictly_below(&p) { any_below = true; } else { all_below = false; }
        }
        let want = if all_below {
            BoxSide::FullyBelow
        } else if !any_below {
            BoxSide::FullyAbove
        } else {
            BoxSide::Crossing
        };
        prop_assert_eq!(h.classify_box(&b), want);
    }

    #[test]
    fn knn_matches_brute_force(
        base in prop::collection::vec((-3000i64..3000, -3000i64..3000), 1..60),
        mask in prop::collection::vec(0u8..8, 1..60),
        q in (-4000i64..4000, -4000i64..4000),
        k in 1usize..20,
    ) {
        // Any representable points — out-of-budget ones ride the tail —
        // ranked exactly by (distance², id) around an in-budget center.
        let pts = with_extremes(&base, &mask);
        let dev = Device::new(DeviceConfig::new(512, 0));
        let knn = LiftedIndex::build(&dev, &pts);
        let got = knn.execute(&Query::Knn { x: q.0, y: q.1, k });
        // With |center| ≤ 2^21 each squared difference stays below 2^127,
        // so the u128 sum is exact.
        let mut d: Vec<(u128, u64)> = pts.iter().enumerate().map(|(i, &(a, b))| {
            let dx = (q.0 as i128 - a as i128).unsigned_abs();
            let dy = (q.1 as i128 - b as i128).unsigned_abs();
            (dx * dx + dy * dy, i as u64)
        }).collect();
        d.sort_unstable();
        d.truncate(k);
        let want: Vec<u64> = d.into_iter().map(|(_, i)| i).collect();
        prop_assert_eq!(got, want);
    }
}
