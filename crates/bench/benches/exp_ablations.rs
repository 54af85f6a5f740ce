//! EXP-ABL — design-choice ablations called out in DESIGN.md:
//! (i) the 3k cluster factor of Lemma 3.2 vs 2k/4k;
//! (ii) the paper's three independent 3D copies vs one (tail IOs);
//! (iii) β = B·log_B n vs alternatives;
//! (iv) partition-tree fanout.

use lcrs_bench::{mean, percentile, print_table};
use lcrs_extmem::{Device, DeviceConfig};
use lcrs_geom::point::PointD;
use lcrs_halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs_halfspace::hs3d::{HalfspaceRS3, Hs3dConfig};
use lcrs_halfspace::ptree::{PTreeConfig, PartitionTree};
use lcrs_workloads::{
    halfplane_with_selectivity, halfspace3_with_selectivity, points2, points3, Dist2, Dist3,
};

fn main() {
    let page = 4096usize;
    println!("# EXP-ABL: ablations");
    let b2 = page / 20;

    // (i) cluster factor.
    let n_pts = 1usize << 15;
    let pts = points2(Dist2::Uniform, n_pts, 1 << 29, 1);
    let mut rows = Vec::new();
    for factor in [2usize, 3, 4] {
        let dev = Device::new(DeviceConfig::new(page, 0));
        let hs = HalfspaceRS2::build(
            &dev,
            &pts,
            Hs2dConfig { cluster_factor: factor, ..Default::default() },
        );
        let mut ios = Vec::new();
        for q in 0..12u64 {
            let (m, c) = halfplane_with_selectivity(&pts, b2, 64, q);
            ios.push(dev.measure(|| hs.query_below(m, c, false)).1.total() as f64);
        }
        rows.push(vec![
            format!("{factor}k"),
            format!("{}", hs.pages()),
            format!("{}", hs.num_clusterings()),
            format!("{:.1}", mean(&ios)),
        ]);
    }
    print_table(
        "(i) cluster size factor (paper: 3k)",
        &["factor", "space pages", "m", "avg IOs (T=B)"],
        &rows,
    );

    // (ii) copies: 1 vs 3.
    let b3 = page / 28;
    let pts3v = points3(Dist3::Uniform, 1 << 15, 1 << 19, 2);
    let mut rows = Vec::new();
    for copies in [1usize, 3] {
        let dev = Device::new(DeviceConfig::new(page, 0));
        let hs = HalfspaceRS3::build(&dev, &pts3v, Hs3dConfig { copies, ..Default::default() });
        let mut ios = Vec::new();
        for q in 0..30u64 {
            let (u, v, w) = halfspace3_with_selectivity(&pts3v, b3, 32, q);
            ios.push(dev.measure(|| hs.query_below(u, v, w, false)).1.total() as f64);
        }
        rows.push(vec![
            format!("{copies}"),
            format!("{}", hs.pages()),
            format!("{:.1}", mean(&ios)),
            format!("{:.0}", percentile(&ios, 95.0)),
        ]);
    }
    print_table(
        "(ii) independent copies (paper: 3 — bounds the failure tail)",
        &["copies", "space pages", "avg IOs", "p95 IOs"],
        &rows,
    );

    // (iii) beta.
    let mut rows = Vec::new();
    let blocks = n_pts.div_ceil(b2);
    let logb = (blocks as f64).ln() / (b2 as f64).ln();
    let beta_paper = (b2 as f64 * logb.max(1.0)).ceil() as usize;
    for (label, beta) in
        [("B", b2), ("B·log_B n (paper)", beta_paper), ("2·B·log_B n", 2 * beta_paper)]
    {
        let dev = Device::new(DeviceConfig::new(page, 0));
        let hs = HalfspaceRS2::build(
            &dev,
            &pts,
            Hs2dConfig { beta_override: beta, ..Default::default() },
        );
        let mut ios = Vec::new();
        for q in 0..12u64 {
            let (m, c) = halfplane_with_selectivity(&pts, b2, 64, 100 + q);
            ios.push(dev.measure(|| hs.query_below(m, c, false)).1.total() as f64);
        }
        rows.push(vec![
            label.into(),
            format!("{beta}"),
            format!("{}", hs.num_clusterings()),
            format!("{}", hs.pages()),
            format!("{:.1}", mean(&ios)),
        ]);
    }
    print_table(
        "(iii) β choice (paper: B·log_B n)",
        &["β", "value", "m", "space pages", "avg IOs"],
        &rows,
    );

    // (iv) partition-tree fanout.
    let ptpts: Vec<PointD<2>> = pts.iter().map(|&(x, y)| PointD::new([x, y])).collect();
    let mut rows = Vec::new();
    for fanout in [4usize, 16, 64, 256] {
        let dev = Device::new(DeviceConfig::new(page, 0));
        let t = PartitionTree::build(&dev, &ptpts, PTreeConfig { fanout, ..Default::default() });
        let mut ios = Vec::new();
        for q in 0..10u64 {
            let (m, c) = halfplane_with_selectivity(&pts, b2, 16, 200 + q);
            let h = lcrs_geom::point::HyperplaneD::new([c, m]);
            ios.push(dev.measure(|| t.query_halfspace(&h, false)).1.total() as f64);
        }
        rows.push(vec![
            format!("{fanout}"),
            format!("{}", t.num_nodes()),
            format!("{}", t.pages()),
            format!("{:.1}", mean(&ios)),
        ]);
    }
    print_table(
        "(iv) partition-tree fanout r (paper: min(cB, 2n_v))",
        &["fanout", "nodes", "space pages", "avg IOs"],
        &rows,
    );
}
