//! EXP-ADV — Section 1.2: heuristic spatial indexes degrade to Ω(n) IOs on
//! N points lying on a diagonal line when the query halfplane is bounded by
//! a slight perturbation of it, while the Theorem 3.5 structure stays at
//! O(log_B n + t).

use lcrs_baselines::{ExternalKdTree, ExternalScan, StrRTree};
use lcrs_bench::{mean, print_table};
use lcrs_extmem::{Device, DeviceConfig};
use lcrs_geom::point::{HyperplaneD, PointD};
use lcrs_halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs_halfspace::ptree::{PTreeConfig, PartitionTree, Partitioner};
use lcrs_workloads::{points2, Dist2};

fn main() {
    let page = 4096usize;
    let b = page / 20;
    println!("# EXP-ADV: adversarial diagonal input (paper §1.2), page={page}B");
    let mut rows = Vec::new();
    for e in [12usize, 13, 14, 15, 16] {
        let n_pts = 1usize << e;
        let pts = points2(Dist2::Diagonal, n_pts, 1 << 29, e as u64);
        let blocks = n_pts.div_ceil(b);
        // Queries: the paper's near-parallel perturbation of the diagonal
        // (empty output — pure structure overhead) and a generic query with
        // output T = B as a control.
        let (mq, cq) = lcrs_workloads::halfplane_with_selectivity(&pts, b, 64, e as u64);
        let qs = [(1i64, -1i64, 0usize), (mq, cq, b)];

        let dev = Device::new(DeviceConfig::new(page, 0));
        let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        let dev_kd = Device::new(DeviceConfig::new(page, 0));
        let kd = ExternalKdTree::build(&dev_kd, &pts);
        let dev_rt = Device::new(DeviceConfig::new(page, 0));
        let rt = StrRTree::build(&dev_rt, &pts);
        let dev_sc = Device::new(DeviceConfig::new(page, 0));
        let sc = ExternalScan::build(&dev_sc, &pts);
        let dev_pt = Device::new(DeviceConfig::new(page, 0));
        let ptpts: Vec<PointD<2>> = pts.iter().map(|&(x, y)| PointD::new([x, y])).collect();
        let pt = PartitionTree::build(&dev_pt, &ptpts, PTreeConfig::default());
        let dev_ph = Device::new(DeviceConfig::new(page, 0));
        let ph = PartitionTree::build(
            &dev_ph,
            &ptpts,
            PTreeConfig { partitioner: Partitioner::HamSandwich, ..Default::default() },
        );

        for &(m, c, t) in &qs {
            let mut cols = vec![format!("{n_pts}"), format!("{blocks}"), format!("{t}")];
            let h = HyperplaneD::new([c, m]);
            for (r, io) in [
                dev.measure(|| hs.query_below(m, c, false)),
                dev_kd.measure(|| kd.query_below(m, c, false)),
                dev_rt.measure(|| rt.query_below(m, c, false)),
                dev_sc.measure(|| sc.query_below(m, c, false)),
                dev_pt.measure(|| pt.query_halfspace(&h, false)),
                dev_ph.measure(|| ph.query_halfspace(&h, false)),
            ] {
                assert_eq!(r.len(), t);
                cols.push(format!("{}", io.total()));
            }
            rows.push(cols);
        }
    }
    print_table(
        "IOs on diagonal points, near-diagonal query (paper: heuristics Ω(n); Theorem 3.5 O(log_B n + t))",
        &["N", "n", "T", "hs2d", "kd-tree", "R-tree", "scan", "ptree-kd", "ptree-hs"],
        &rows,
    );

    // Sanity: the same structures on uniform data (no degradation there).
    let n_pts = 1usize << 15;
    let pts = points2(Dist2::Uniform, n_pts, 1 << 29, 99);
    let dev = Device::new(DeviceConfig::new(page, 0));
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    let dev_kd = Device::new(DeviceConfig::new(page, 0));
    let kd = ExternalKdTree::build(&dev_kd, &pts);
    let mut hs_ios = Vec::new();
    let mut kd_ios = Vec::new();
    for q in 0..10u64 {
        let (m, c) = lcrs_workloads::halfplane_with_selectivity(&pts, b, 64, q);
        hs_ios.push(dev.measure(|| hs.query_below(m, c, false)).1.total() as f64);
        kd_ios.push(dev_kd.measure(|| kd.query_below(m, c, false)).1.total() as f64);
    }
    print_table(
        "control: uniform input, T = B",
        &["structure", "avg IOs"],
        &[
            vec!["hs2d".into(), format!("{:.1}", mean(&hs_ios))],
            vec!["kd-tree".into(), format!("{:.1}", mean(&kd_ios))],
        ],
    );
}
