//! Cross-structure equivalence: every index in the workspace must report
//! exactly the same point set for the same linear constraint, across
//! distributions, on shared datasets — the strongest end-to-end oracle we
//! have (any one structure being right makes all others checked).
//!
//! The `differential_oracle_*` tests extend this to the persistence layer
//! (ISSUE 4): every `RangeIndex` structure, in-memory *and* reopened from
//! a snapshot, is checked against a linear-scan reference on a seeded
//! random workload of 500 mixed queries — so a future snapshot-format
//! change can't silently corrupt answers.

use lcrs::baselines::{ExternalKdTree, ExternalScan, ExternalScan3, StrRTree};
use lcrs::engine::{load_index, LiftedIndex, Query, RangeIndex};
use lcrs::extmem::{Device, DeviceConfig, MetaReader, MetaWriter, TempDir};
use lcrs::geom::lift;
use lcrs::geom::point::{HyperplaneD, PointD};
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs::halfspace::hs3d::{HalfspaceRS3, Hs3dConfig};
use lcrs::halfspace::ptree::{PTreeConfig, PartitionTree, Partitioner};
use lcrs::halfspace::tradeoff::{HybridConfig, HybridTree3, ShallowConfig, ShallowTree3};
use lcrs::halfspace::DynamicHalfspace2;
use lcrs::workloads::{
    aggregate_mixed, disk_mixed, halfplane_mixed, halfplane_with_selectivity,
    halfspace3_with_selectivity, points2, points3, topk_mixed, Dist2, Dist3,
};
use lcrs_bench::brute_answer;

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

#[test]
fn all_2d_structures_agree() {
    for dist in
        [Dist2::Uniform, Dist2::Gaussianish, Dist2::Clustered, Dist2::Diagonal, Dist2::Circle]
    {
        let pts = points2(dist, 1200, 1 << 20, 7);
        let dev = Device::new(DeviceConfig::new(512, 0));
        let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        let kd = ExternalKdTree::build(&dev, &pts);
        let rt = StrRTree::build(&dev, &pts);
        let sc = ExternalScan::build(&dev, &pts);
        let ptpts: Vec<PointD<2>> = pts.iter().map(|&(x, y)| PointD::new([x, y])).collect();
        let pt = PartitionTree::build(&dev, &ptpts, PTreeConfig::default());
        let ph = PartitionTree::build(
            &dev,
            &ptpts,
            PTreeConfig { partitioner: Partitioner::HamSandwich, ..Default::default() },
        );
        for q in 0..8u64 {
            let t = [0usize, 5, 100, 600][q as usize % 4];
            let (m, c) = halfplane_with_selectivity(&pts, t, 40, q);
            for inclusive in [false, true] {
                let want = sorted(sc.query_below(m, c, inclusive));
                assert_eq!(sorted(hs.query_below(m, c, inclusive)), want, "{dist:?} hs2d");
                assert_eq!(sorted(kd.query_below(m, c, inclusive)), want, "{dist:?} kd");
                assert_eq!(sorted(rt.query_below(m, c, inclusive)), want, "{dist:?} rtree");
                let h = HyperplaneD::new([c, m]);
                assert_eq!(sorted(pt.query_halfspace(&h, inclusive)), want, "{dist:?} ptree");
                assert_eq!(sorted(ph.query_halfspace(&h, inclusive)), want, "{dist:?} ptree-hs");
            }
        }
    }
}

#[test]
fn all_3d_structures_agree() {
    for dist in [Dist3::Uniform, Dist3::Clustered, Dist3::Slab] {
        let pts = points3(dist, 900, 1 << 16, 11);
        let dev = Device::new(DeviceConfig::new(512, 0));
        let hs = HalfspaceRS3::build(&dev, &pts, Hs3dConfig::default());
        let hy = HybridTree3::build(&dev, &pts, HybridConfig::default());
        let sh = ShallowTree3::build(&dev, &pts, ShallowConfig::default());
        let s3 = ExternalScan3::build(&dev, &pts);
        let ptpts: Vec<PointD<3>> = pts.iter().map(|&(x, y, z)| PointD::new([x, y, z])).collect();
        let pt = PartitionTree::build(&dev, &ptpts, PTreeConfig::default());
        let brute = |u: i64, v: i64, w: i64, inc: bool| -> Vec<u32> {
            sorted(
                pts.iter()
                    .enumerate()
                    .filter(|(_, &(x, y, z))| {
                        let rhs = u as i128 * x as i128 + v as i128 * y as i128 + w as i128;
                        if inc {
                            z as i128 <= rhs
                        } else {
                            (z as i128) < rhs
                        }
                    })
                    .map(|(i, _)| i as u32)
                    .collect(),
            )
        };
        for q in 0..6u64 {
            let t = [0usize, 30, 450][q as usize % 3];
            let (u, v, w) = lcrs::workloads::halfspace3_with_selectivity(&pts, t, 24, q);
            for inclusive in [false, true] {
                let want = brute(u, v, w, inclusive);
                assert_eq!(sorted(hs.query_below(u, v, w, inclusive)), want, "{dist:?} hs3d");
                assert_eq!(sorted(hy.query_below(u, v, w, inclusive)), want, "{dist:?} hybrid");
                assert_eq!(sorted(sh.query_below(u, v, w, inclusive)), want, "{dist:?} shallow");
                assert_eq!(sorted(s3.query_below(u, v, w, inclusive)), want, "{dist:?} scan3");
                let h = HyperplaneD::new([w, u, v]);
                assert_eq!(sorted(pt.query_halfspace(&h, inclusive)), want, "{dist:?} ptree3");
            }
        }
    }
}

/// Persist every structure built on `dev` through one device snapshot and
/// per-structure metadata bytes, and reopen them all on a fresh
/// file-backed device — the "another process" half of the oracle.
fn reopen_all(
    dir: &TempDir,
    name: &str,
    dev: &Device,
    indexes: &[&dyn RangeIndex],
) -> Vec<Box<dyn RangeIndex>> {
    let path = dir.file(&format!("{name}.pages"));
    dev.freeze_to_path(&path).unwrap();
    let re_dev = Device::open_snapshot(&path, 0).unwrap();
    indexes
        .iter()
        .map(|index| {
            let mut w = MetaWriter::new();
            index.save_meta(&mut w);
            let mut r = MetaReader::from_bytes(w.into_bytes()).unwrap();
            let loaded = load_index(index.name(), &re_dev, &mut r).unwrap();
            r.finish().unwrap();
            loaded
        })
        .collect()
}

/// One oracle step: every index that supports `q` — in-memory and
/// reopened — must report exactly the reference id set.
fn check_against_reference(
    q: &Query,
    want: &[u64],
    in_memory: &[&dyn RangeIndex],
    reopened: &[Box<dyn RangeIndex>],
    ordered: bool,
    ctx: &str,
) {
    for (index, re) in in_memory.iter().zip(reopened) {
        assert_eq!(index.supports(q), re.supports(q), "{ctx}: support must survive reopen");
        if !index.supports(q) {
            continue;
        }
        for (variant, ids) in
            [("in-memory", index.try_execute(q).unwrap()), ("reopened", re.try_execute(q).unwrap())]
        {
            let got = if ordered {
                ids
            } else {
                let mut s = ids;
                s.sort_unstable();
                s
            };
            assert_eq!(
                got,
                want,
                "{ctx}: {} ({variant}) disagrees with the linear-scan reference on {q:?}",
                index.name()
            );
        }
    }
}

#[test]
fn differential_oracle_2d_500_mixed_queries() {
    // 2D leg of the 500-query oracle: 300 mixed halfplane queries over
    // every 2D RangeIndex structure, in-memory and reopened, against the
    // LinearScan baseline (itself cross-checked against brute force).
    let dir = TempDir::new("lcrs-oracle-2d");
    let pts = points2(Dist2::Clustered, 1000, 1 << 20, 17);
    let dev = Device::new(DeviceConfig::new(512, 0));
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    let kd = ExternalKdTree::build(&dev, &pts);
    let rt = StrRTree::build(&dev, &pts);
    let sc = ExternalScan::build(&dev, &pts);
    let ptpts: Vec<PointD<2>> = pts.iter().map(|&(x, y)| PointD::new([x, y])).collect();
    let pt = PartitionTree::<2>::build(&dev, &ptpts, PTreeConfig::default());
    let mut dy = DynamicHalfspace2::new(&dev, Hs2dConfig::default());
    for (i, &(x, y)) in pts.iter().enumerate() {
        dy.insert(x, y, i as u64); // tags = indices, comparable to the scan
    }
    let in_memory: Vec<&dyn RangeIndex> = vec![&hs, &kd, &rt, &sc, &pt, &dy];
    let reopened = reopen_all(&dir, "oracle2d", &dev, &in_memory);

    for (qi, (m, c, inclusive)) in halfplane_mixed(&pts, 300, 40, 18).into_iter().enumerate() {
        let q = Query::Halfplane { m, c, inclusive };
        // The linear-scan reference, cross-checked against brute force.
        let mut want: Vec<u64> =
            sc.query_below(m, c, inclusive).iter().map(|&i| i as u64).collect();
        want.sort_unstable();
        let brute: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| {
                let rhs = m as i128 * x as i128 + c as i128;
                if inclusive {
                    y as i128 <= rhs
                } else {
                    (y as i128) < rhs
                }
            })
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(want, brute, "query {qi}: the scan itself must match brute force");
        check_against_reference(&q, &want, &in_memory, &reopened, false, &format!("q{qi}"));
    }
}

#[test]
fn differential_oracle_3d_and_knn_200_mixed_queries() {
    // 3D + k-NN legs of the 500-query oracle: 120 mixed halfspace queries
    // and 80 k-NN queries, each structure in-memory and reopened, against
    // a host-side linear scan (there is no external 3D scan baseline),
    // plus 80 disk halfspaces over 3D points in convex position.
    let dir = TempDir::new("lcrs-oracle-3d");
    let pts3 = points3(Dist3::Uniform, 500, 1 << 16, 19);
    let dev3 = Device::new(DeviceConfig::new(512, 0));
    let hs = HalfspaceRS3::build(&dev3, &pts3, Hs3dConfig::default());
    let hy = HybridTree3::build(&dev3, &pts3, HybridConfig::default());
    let sh = ShallowTree3::build(&dev3, &pts3, ShallowConfig::default());
    let s3 = ExternalScan3::build(&dev3, &pts3);
    let in_memory3: Vec<&dyn RangeIndex> = vec![&hs, &hy, &sh, &s3];
    let reopened3 = reopen_all(&dir, "oracle3d", &dev3, &in_memory3);

    let mut s = 20u64;
    let mut next = move || {
        s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        s
    };
    for qi in 0..120usize {
        let t = (next() as usize) % (pts3.len() / 2 + 1);
        let (u, v, w) = halfspace3_with_selectivity(&pts3, t, 24, next());
        let inclusive = qi % 2 == 1;
        let q = Query::Halfspace { u, v, w, inclusive };
        let want: Vec<u64> = pts3
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
            .collect();
        check_against_reference(&q, &want, &in_memory3, &reopened3, false, &format!("3d-q{qi}"));
    }

    // The same 3D structures over points in convex position: the lifted
    // points `(px, py, px² + py²)` of an in-budget 2D set, asked the
    // halfspaces `(2x, 2y, r2 − x² − y²)` the lift turns disks into, so
    // each answer is also the disk's.
    let pts2l = points2(Dist2::Uniform, 400, lift::MAX_LIFT_COORD, 27);
    let ptsl: Vec<(i64, i64, i64)> =
        pts2l.iter().map(|&(px, py)| (px, py, lift::lift_z(px, py).unwrap())).collect();
    let devl = Device::new(DeviceConfig::new(512, 0));
    let hsl = HalfspaceRS3::build(&devl, &ptsl, Hs3dConfig::default());
    let hyl = HybridTree3::build(&devl, &ptsl, HybridConfig::default());
    let shl = ShallowTree3::build(&devl, &ptsl, ShallowConfig::default());
    let s3l = ExternalScan3::build(&devl, &ptsl);
    let in_memory_l: Vec<&dyn RangeIndex> = vec![&hsl, &hyl, &shl, &s3l];
    let reopened_l = reopen_all(&dir, "oraclelifted", &devl, &in_memory_l);
    for (qi, (x, y, r2, inclusive)) in disk_mixed(&pts2l, 80, 300, 28).into_iter().enumerate() {
        let (u, v, w) = lift::disk_to_halfspace(x, y, r2).expect("an in-budget, non-empty disk");
        let q = Query::Halfspace { u, v, w, inclusive };
        let want = brute_answer(&q, &[], &ptsl);
        let disk = Query::Disk { x, y, r2, inclusive };
        assert_eq!(want, brute_answer(&disk, &pts2l, &[]), "lifted-q{qi}: the lift keeps the disk");
        let ctx = format!("lifted-q{qi}");
        check_against_reference(&q, &want, &in_memory_l, &reopened_l, false, &ctx);
    }

    let ptsk = points2(Dist2::Uniform, 400, 1000, 21);
    let devk = Device::new(DeviceConfig::new(512, 0));
    let knn = LiftedIndex::build(&devk, &ptsk);
    // The 2D scan answers k-NN too (same reporting order), so it rides
    // along in the ordered leg of the oracle.
    let sck = ExternalScan::build(&devk, &ptsk);
    let in_memory_k: Vec<&dyn RangeIndex> = vec![&knn, &sck];
    let reopened_k = reopen_all(&dir, "oraclek", &devk, &in_memory_k);
    for qi in 0..80usize {
        let (x, y) = (next() as i64 % 1000, next() as i64 % 1000);
        let k = 1 + (next() as usize) % 20;
        let q = Query::Knn { x, y, k };
        // Linear-scan reference: distances sorted, ties by id — exactly
        // the structure's reporting order, so compare *ordered*.
        let mut d: Vec<(i128, u64)> = ptsk
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                let (dx, dy) = (x as i128 - a as i128, y as i128 - b as i128);
                (dx * dx + dy * dy, i as u64)
            })
            .collect();
        d.sort_unstable();
        let want: Vec<u64> = d.into_iter().take(k).map(|(_, i)| i).collect();
        check_against_reference(&q, &want, &in_memory_k, &reopened_k, true, &format!("knn-q{qi}"));
    }
}

#[test]
fn differential_oracle_derived_classes_500_mixed_queries() {
    // The DESIGN.md §15 leg of the oracle: 300 disk + 100 count/sum +
    // 100 top-k queries over every capable 2D structure — the annotated
    // hs2d/kd-tree, the scan, the dynamic tier, and the lifted `knn`
    // structure — in-memory and reopened from a snapshot, against
    // host-side brute force (exact for every `i64` input,
    // `lcrs_bench::brute_answer`).
    let dir = TempDir::new("lcrs-oracle-lift");
    let pts = points2(Dist2::Clustered, 900, 1000, 23);
    let dev = Device::new(DeviceConfig::new(512, 0));
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    let kd = ExternalKdTree::build(&dev, &pts);
    let sc = ExternalScan::build(&dev, &pts);
    let mut dy = DynamicHalfspace2::new(&dev, Hs2dConfig::default());
    for (i, &(x, y)) in pts.iter().enumerate() {
        dy.insert(x, y, i as u64); // tags = indices, comparable to brute
    }
    let knn = LiftedIndex::build(&dev, &pts);
    let in_memory: Vec<&dyn RangeIndex> = vec![&hs, &kd, &sc, &knn, &dy];
    let reopened = reopen_all(&dir, "oraclelift", &dev, &in_memory);

    let mut queries: Vec<Query> = Vec::with_capacity(500);
    queries.extend(
        disk_mixed(&pts, 300, 200, 24).into_iter().map(|(x, y, r2, inclusive)| Query::Disk {
            x,
            y,
            r2,
            inclusive,
        }),
    );
    queries.extend(aggregate_mixed(&pts, 100, 40, 25).into_iter().map(|(m, c, inclusive, sum)| {
        if sum {
            Query::Sum { m, c, inclusive }
        } else {
            Query::Count { m, c, inclusive }
        }
    }));
    queries.extend(topk_mixed(&pts, 100, 40, 16, 26).into_iter().map(|(m, c, k)| Query::TopK {
        m,
        c,
        k,
    }));
    assert_eq!(queries.len(), 500);

    let mut disks_on_lifted = 0usize;
    for (qi, q) in queries.iter().enumerate() {
        let want = brute_answer(q, &pts, &[]);
        // Ranked answers (top-k) and scalar encodings (count, sum words)
        // compare verbatim; disk reports compare as sorted id sets.
        let ordered = q.is_ranked() || q.is_aggregate();
        check_against_reference(q, &want, &in_memory, &reopened, ordered, &format!("lift-q{qi}"));
        if knn.supports(q) && matches!(q, Query::Disk { .. }) {
            disks_on_lifted += 1;
        }
    }
    // The lifted structure must actually participate: every disk query
    // here has an in-budget center, so none may fall back to scan-only
    // support.
    assert_eq!(disks_on_lifted, 300, "lifted index must cover the whole disk leg");
}

#[test]
fn structures_share_one_device_without_interference() {
    // Multiple structures on one device: page ranges must not collide.
    let dev = Device::new(DeviceConfig::new(256, 0));
    let pts = points2(Dist2::Uniform, 600, 1 << 18, 3);
    let hs1 = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    let pts_b = points2(Dist2::Clustered, 600, 1 << 18, 4);
    let hs2 = HalfspaceRS2::build(&dev, &pts_b, Hs2dConfig::default());
    let (m, c) = halfplane_with_selectivity(&pts, 37, 20, 9);
    assert_eq!(hs1.query_below(m, c, false).len(), 37);
    let (m2, c2) = halfplane_with_selectivity(&pts_b, 73, 20, 10);
    assert_eq!(hs2.query_below(m2, c2, false).len(), 73);
}
