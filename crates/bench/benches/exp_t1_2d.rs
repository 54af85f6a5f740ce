//! EXP-T1-2D — Table 1, row d = 2: the Theorem 3.5 structure uses O(n)
//! blocks and answers queries in O(log_B n + t) IOs, worst case.
//!
//! Reproduced shapes: (a) query IOs flat in n at fixed output T = B;
//! (b) IOs growing linearly in t = T/B with slope O(1); (c) space within a
//! small constant of the n = N/B lower bound — on uniform, bell-shaped and
//! the adversarial diagonal inputs alike.

use lcrs_bench::{loglog_slope, mean, print_table};
use lcrs_extmem::{Device, DeviceConfig};
use lcrs_halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs_workloads::{halfplane_with_selectivity, points2, Dist2};

fn avg_query_ios(hs: &HalfspaceRS2, pts: &[(i64, i64)], t: usize, trials: usize) -> (f64, f64) {
    let mut ios = Vec::new();
    let mut rep = Vec::new();
    for q in 0..trials {
        let (m, c) = halfplane_with_selectivity(pts, t, 64, 1000 + q as u64);
        let (res, io) = hs.device().measure(|| hs.query_below(m, c, false));
        assert_eq!(res.len(), t, "selectivity generator must be exact");
        ios.push(io.total() as f64);
        rep.push(res.len() as f64);
    }
    (mean(&ios), mean(&rep))
}

fn main() {
    let page = 4096usize;
    let rec = 20; // LineRec bytes
    let b = page / rec;
    println!("# EXP-T1-2D: Theorem 3.5 (optimal 2D structure), page={page}B, B={b} recs");

    // (a) IOs vs n at fixed T = B.
    let mut rows = Vec::new();
    for dist in [Dist2::Uniform, Dist2::Gaussianish, Dist2::Diagonal] {
        let mut ns = Vec::new();
        let mut qs = Vec::new();
        for e in [12usize, 13, 14, 15, 16] {
            let n_pts = 1usize << e;
            let pts = points2(dist, n_pts, 1 << 29, e as u64);
            let dev = Device::new(DeviceConfig::new(page, 0));
            let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
            let (io, _) = avg_query_ios(&hs, &pts, b, 12);
            let blocks = n_pts.div_ceil(b);
            rows.push(vec![
                format!("{dist:?}"),
                format!("{n_pts}"),
                format!("{blocks}"),
                format!("{:.1}", io),
                format!("{}", hs.pages()),
                format!("{:.2}", hs.pages() as f64 / blocks as f64),
                format!("{}", hs.num_clusterings()),
            ]);
            ns.push(blocks as f64);
            qs.push(io);
        }
        let slope = loglog_slope(&ns, &qs);
        rows.push(vec![
            format!("{dist:?}"),
            "slope".into(),
            "-".into(),
            format!("{:.3}", slope),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }
    print_table(
        "query IOs vs n at fixed T = B (paper: O(log_B n + 1) — near-flat slope)",
        &["dist", "N", "n=N/B", "avg IOs", "space pages", "space/n", "m"],
        &rows,
    );

    // (b) IOs vs t at fixed n.
    let n_pts = 1usize << 15;
    let mut rows = Vec::new();
    for dist in [Dist2::Uniform, Dist2::Diagonal] {
        let pts = points2(dist, n_pts, 1 << 29, 77);
        let dev = Device::new(DeviceConfig::new(page, 0));
        let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        let mut ts = Vec::new();
        let mut qs = Vec::new();
        for t in [0usize, b / 2, b, 4 * b, 16 * b, 64 * b, n_pts / 2] {
            let (io, _) = avg_query_ios(&hs, &pts, t, 10);
            rows.push(vec![
                format!("{dist:?}"),
                format!("{t}"),
                format!("{}", t.div_ceil(b)),
                format!("{:.1}", io),
                format!("{:.2}", if t >= b { io / (t as f64 / b as f64) } else { f64::NAN }),
            ]);
            if t > 0 {
                ts.push(t as f64 / b as f64);
                qs.push(io);
            }
        }
        rows.push(vec![
            format!("{dist:?}"),
            "slope".into(),
            "-".into(),
            format!("{:.3}", loglog_slope(&ts, &qs)),
            "-".into(),
        ]);
    }
    print_table(
        &format!(
            "query IOs vs output at N = {n_pts} (paper: O(log_B n + t) — slope ≈ 1, IOs/t = O(1))"
        ),
        &["dist", "T", "t=T/B", "avg IOs", "IOs per t"],
        &rows,
    );

    // (c) sensitivity to the block size B.
    let n_pts = 1usize << 15;
    let pts = points2(Dist2::Uniform, n_pts, 1 << 29, 55);
    let mut rows = Vec::new();
    for page in [1024usize, 2048, 4096, 8192] {
        let bb = page / rec;
        let dev = Device::new(DeviceConfig::new(page, 0));
        let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
        let (io_small, _) = avg_query_ios(&hs, &pts, bb, 10);
        let (io_big, _) = avg_query_ios(&hs, &pts, 32 * bb, 10);
        rows.push(vec![
            format!("{page}"),
            format!("{bb}"),
            format!("{}", n_pts.div_ceil(bb)),
            format!("{:.1}", io_small),
            format!("{:.1}", io_big),
            format!("{}", hs.pages()),
            format!("{}", hs.num_clusterings()),
        ]);
    }
    print_table(
        &format!("block-size sensitivity at N = {n_pts} (larger B ⇒ fewer IOs across the board)"),
        &["page bytes", "B", "n", "IOs (T=B)", "IOs (T=32B)", "space pages", "m"],
        &rows,
    );
}
