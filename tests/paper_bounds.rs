//! Quantitative smoke checks of the paper's bounds (loose constants so the
//! suite stays deterministic and robust — the full curves live in the
//! benchmark harness and EXPERIMENTS.md).

use lcrs::baselines::ExternalKdTree;
use lcrs::engine::{LiftedIndex, Query, RangeIndex};
use lcrs::extmem::{Device, DeviceConfig};
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs::halfspace::hs3d::{HalfspaceRS3, Hs3dConfig};
use lcrs::workloads::{halfplane_with_selectivity, knn_mixed, points2, points3, Dist2, Dist3};

/// Theorem 3.5 space: O(n) blocks.
#[test]
fn hs2d_space_is_linear() {
    let page = 1024usize;
    let b = page / 20;
    for e in [12usize, 14] {
        let n_pts = 1usize << e;
        let pts = points2(Dist2::Uniform, n_pts, 1 << 29, e as u64);
        let dev = Device::new(DeviceConfig::new(page, 0));
        let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        let blocks = (n_pts.div_ceil(b)) as u64;
        assert!(
            hs.pages() <= 4 * blocks,
            "space {} pages vs n = {} blocks at N = {n_pts}",
            hs.pages(),
            blocks
        );
    }
}

/// Theorem 3.5 query: small-output queries must not scale with n.
#[test]
fn hs2d_small_queries_do_not_scale_with_n() {
    let page = 1024usize;
    let b = page / 20;
    let mut ios = Vec::new();
    for e in [12usize, 14] {
        let n_pts = 1usize << e;
        let pts = points2(Dist2::Uniform, n_pts, 1 << 29, 3);
        let dev = Device::new(DeviceConfig::new(page, 0));
        let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        let mut worst = 0u64;
        for q in 0..8u64 {
            let (m, c) = halfplane_with_selectivity(&pts, b, 40, q);
            let (res, io) = dev.measure(|| hs.query_below(m, c, false));
            assert_eq!(res.len(), b);
            worst = worst.max(io.total());
        }
        ios.push(worst);
    }
    // 4x the points must not even double the worst small-query cost.
    assert!(ios[1] <= 2 * ios[0] + 8, "IOs grew with n: {:?} (expected O(log_B n + 1))", ios);
}

/// `pages / (n log₂ n)` for `n = ⌈N/B⌉` blocks of 24-byte plane records:
/// the constant of the Theorem 4.4 space bound.
fn n_log_n_ratio(pages: u64, n_pts: usize, page: usize) -> f64 {
    let n = n_pts.div_ceil(page / 24) as f64;
    pages as f64 / (n * n.log2())
}

/// Theorem 4.4 space: O(n log₂ n) expected blocks on uniform 3D points
/// (measured ratio 9.6 at N = 2048, 4.6 at N = 8192).
#[test]
fn hs3d_space_is_n_log_n() {
    let page = 1024usize;
    for e in [11usize, 13] {
        let n_pts = 1usize << e;
        let dev = Device::new(DeviceConfig::new(page, 0));
        let pts = points3(Dist3::Uniform, n_pts, 1 << 16, e as u64);
        let _hs = HalfspaceRS3::build(&dev, &pts, Hs3dConfig::default());
        let ratio = n_log_n_ratio(dev.pages_allocated(), n_pts, page);
        assert!(ratio < 12.0, "pages / (n log₂ n) = {ratio:.2} at N = {n_pts}");
    }
}

/// The one lifted structure, the `knn` kind. Theorem 4.4 space on lifted
/// points, which are all in convex position, so every sample layer keeps
/// its whole envelope: a larger constant than on uniform input (measured
/// 30.0 at N = 2048, 26.0 at N = 8192). Theorem 4.3 queries, O(log_B n +
/// k/B) expected IOs: 4x the points must not even double the mean small-k
/// cost (measured 15.4 and 27.5 reads).
#[test]
fn lifted_knn_space_and_small_queries() {
    let page = 1024usize;
    let mut means = Vec::new();
    for e in [11usize, 13] {
        let n_pts = 1usize << e;
        let pts = points2(Dist2::Uniform, n_pts, 1000, e as u64);
        let dev = Device::new(DeviceConfig::new(page, 0));
        let knn = LiftedIndex::build(&dev, &pts);
        let ratio = n_log_n_ratio(dev.pages_allocated(), n_pts, page);
        assert!(ratio < 36.0, "pages / (n log₂ n) = {ratio:.2} at N = {n_pts}");
        let queries = knn_mixed(&pts, 48, 8, 7);
        let mut reads = 0u64;
        for &(x, y, k) in &queries {
            let (ids, io) = knn.execute_measured(&Query::Knn { x, y, k });
            assert_eq!(ids.len(), k);
            reads += io.reads;
        }
        means.push(reads as f64 / queries.len() as f64);
    }
    assert!(
        means[1] <= 2.0 * means[0] + 8.0,
        "mean k-NN reads grew with n: {means:?} (expected O(log_B n + k/B))"
    );
}

/// Section 1.2: the adversarial separation between Theorem 3.5 and a
/// kd-tree must be at least an order of magnitude at modest sizes.
#[test]
fn adversarial_separation_holds() {
    let page = 1024usize;
    let n_pts = 1usize << 14;
    let pts = points2(Dist2::Diagonal, n_pts, 1 << 29, 5);
    let dev = Device::new(DeviceConfig::new(page, 0));
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    let dev_kd = Device::new(DeviceConfig::new(page, 0));
    let kd = ExternalKdTree::build(&dev_kd, &pts);
    let (r1, s1) = dev.measure(|| hs.query_below(1, -1, false));
    let (r2, s2) = dev_kd.measure(|| kd.query_below(1, -1, false));
    assert!(r1.is_empty() && r2.is_empty());
    assert!(
        s1.total() * 10 <= s2.total(),
        "expected ≥10x separation, got hs2d {} vs kd {}",
        s1.total(),
        s2.total()
    );
}

/// The inclusive/strict boundary semantics: points exactly on the line.
#[test]
fn boundary_points_are_handled_exactly() {
    let pts: Vec<(i64, i64)> = (0..200).map(|i| (i, 2 * i)).collect(); // on y = 2x
    let dev = Device::new(DeviceConfig::new(512, 0));
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    assert_eq!(hs.query_below(2, 0, false).len(), 0);
    assert_eq!(hs.query_below(2, 0, true).len(), 200);
    assert_eq!(hs.query_below(2, 1, false).len(), 200);
    assert_eq!(hs.query_below(2, -1, true).len(), 0);
}
