//! EXP-T1-3D — Table 1, rows d = 3: the Theorem 4.4 structure uses
//! O(n log₂ n) expected blocks and answers queries in O(log_B n + t)
//! *expected* IOs.

use lcrs_bench::{mean, percentile, print_table};
use lcrs_extmem::{Device, DeviceConfig};
use lcrs_halfspace::hs3d::{HalfspaceRS3, Hs3dConfig};
use lcrs_workloads::{halfspace3_with_selectivity, points3, Dist3};

fn query_ios(hs: &HalfspaceRS3, pts: &[(i64, i64, i64)], t: usize, trials: usize) -> Vec<f64> {
    let mut ios = Vec::new();
    for q in 0..trials {
        let (u, v, w) = halfspace3_with_selectivity(pts, t, 32, 500 + q as u64);
        let (res, io) = hs.device().measure(|| hs.query_below(u, v, w, false));
        assert_eq!(res.len(), t);
        ios.push(io.total() as f64);
    }
    ios
}

fn main() {
    let page = 4096usize;
    let b = page / 28; // ConfRec bytes
    println!("# EXP-T1-3D: Theorem 4.4 (3D structure), page={page}B, B={b} recs");

    let mut rows = Vec::new();
    for dist in [Dist3::Uniform, Dist3::Clustered] {
        for e in [12usize, 13, 14, 15, 16] {
            let n_pts = 1usize << e;
            let pts = points3(dist, n_pts, 1 << 19, e as u64);
            let dev = Device::new(DeviceConfig::new(page, 0));
            let hs = HalfspaceRS3::build(&dev, &pts, Hs3dConfig::default());
            let ios = query_ios(&hs, &pts, b, 12);
            let blocks = n_pts.div_ceil(b);
            let nlogn = blocks as f64 * (blocks.max(2) as f64).log2();
            rows.push(vec![
                format!("{dist:?}"),
                format!("{n_pts}"),
                format!("{blocks}"),
                format!("{:.1}", mean(&ios)),
                format!("{:.0}", percentile(&ios, 90.0)),
                format!("{}", hs.pages()),
                format!("{:.2}", hs.pages() as f64 / nlogn),
                format!("{}", hs.num_layers()),
            ]);
        }
    }
    print_table(
        "expected query IOs vs n at fixed T = B; space vs n·log2(n) (paper: O(log_B n + t) expected, O(n log2 n) blocks)",
        &["dist", "N", "n", "avg IOs", "p90 IOs", "space pages", "space/(n·lg n)", "layers"],
        &rows,
    );

    // IOs vs t.
    let n_pts = 1usize << 15;
    let pts = points3(Dist3::Uniform, n_pts, 1 << 19, 3);
    let dev = Device::new(DeviceConfig::new(page, 0));
    let hs = HalfspaceRS3::build(&dev, &pts, Hs3dConfig::default());
    let mut rows = Vec::new();
    for t in [0usize, b, 4 * b, 16 * b, 64 * b] {
        let ios = query_ios(&hs, &pts, t, 10);
        rows.push(vec![
            format!("{t}"),
            format!("{}", t.div_ceil(b)),
            format!("{:.1}", mean(&ios)),
            format!("{:.2}", if t >= b { mean(&ios) / (t as f64 / b as f64) } else { f64::NAN }),
        ]);
    }
    print_table(
        &format!("query IOs vs output at N = {n_pts} (expected O(log_B n + t))"),
        &["T", "t=T/B", "avg IOs", "IOs per t"],
        &rows,
    );
}
