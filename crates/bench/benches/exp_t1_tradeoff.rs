//! EXP-T1-TRD — Table 1, 3D trade-off rows (Section 6): the hybrid tree
//! (Theorem 6.1, O(n log₂ B) space, O((n/B^{a-1})^{2/3+ε} + t) IOs) and the
//! shallow tree (Theorem 6.3, O(n log_B n) space, O(n^ε + t) IOs) sit
//! between the linear-space partition tree and the O(n log₂ n)-space
//! Theorem 4.4 structure on both axes.
//!
//! Run with `--smoke` to also emit `BENCH_exp_t1_tradeoff.json` (the run
//! is the same size): one cell per (structure, t) row with its query
//! count, read IOs summed over the row's queries, and pages, gated by
//! `bench_gate` in CI.

use std::time::Instant;

use lcrs_bench::{mean, print_table, BenchReport};
use lcrs_extmem::{Device, DeviceConfig};
use lcrs_geom::point::PointD;
use lcrs_halfspace::hs3d::{HalfspaceRS3, Hs3dConfig};
use lcrs_halfspace::ptree::{PTreeConfig, PartitionTree};
use lcrs_halfspace::tradeoff::{HybridConfig, HybridTree3, ShallowConfig, ShallowTree3};
use lcrs_workloads::{halfspace3_with_selectivity, points3, Dist3};

/// One structure's query: `(u, v, w)` to (points reported, read IOs).
type Query3 = Box<dyn FnMut(i64, i64, i64) -> (usize, u64)>;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let page = 4096usize;
    let n_pts = 1usize << 15;
    let b = page / 28;
    let blocks = n_pts.div_ceil(b);
    println!("# EXP-T1-TRD: Section 6 space/query trade-offs, N={n_pts}, page={page}B");

    let pts = points3(Dist3::Uniform, n_pts, 1 << 19, 9);
    let mut queries: Vec<(i64, i64, i64, usize)> = Vec::new();
    for &t in &[0usize, b, 8 * b, 64 * b] {
        for q in 0..6u64 {
            let (u, v, w) = halfspace3_with_selectivity(&pts, t, 32, 31 * q + t as u64);
            queries.push((u, v, w, t));
        }
    }

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut report = BenchReport::new("exp_t1_tradeoff", smoke);
    let mut run = |name: &str, id: &str, pages: u64, mut q: Query3| {
        for &t in &[0usize, b, 8 * b, 64 * b] {
            let mut ios = Vec::new();
            let start = Instant::now();
            for &(u, v, w, qt) in queries.iter().filter(|x| x.3 == t) {
                let (rep, io) = q(u, v, w);
                assert_eq!(rep, qt);
                ios.push(io as f64);
            }
            report
                .cell(format!("{id}/t{}", t / b.max(1)))
                .metric("queries", ios.len() as f64)
                .metric("read_ios", ios.iter().sum::<f64>())
                .metric("pages", pages as f64)
                .report_wall(start.elapsed());
            rows.push(vec![
                name.into(),
                format!("{pages}"),
                format!("{:.2}", pages as f64 / blocks as f64),
                format!("{}", t / b.max(1)),
                format!("{:.1}", mean(&ios)),
            ]);
        }
    };

    {
        let dev = Device::new(DeviceConfig::new(page, 0));
        let ptpts: Vec<PointD<3>> = pts.iter().map(|&(x, y, z)| PointD::new([x, y, z])).collect();
        let t = PartitionTree::build(&dev, &ptpts, PTreeConfig::default());
        let pages = t.pages();
        run(
            "ptree (O(n) space)",
            "ptree",
            pages,
            Box::new(move |u, v, w| {
                let h = lcrs_geom::point::HyperplaneD::new([w, u, v]);
                let (res, io) = dev.measure(|| t.query_halfspace(&h, false));
                (res.len(), io.total())
            }),
        );
    }
    for a in [1.25f64, 1.5, 2.0] {
        let dev = Device::new(DeviceConfig::new(page, 0));
        let t = HybridTree3::build(&dev, &pts, HybridConfig { a });
        let pages = t.pages();
        run(
            &format!("hybrid a={a}"),
            &format!("hybrid-a{a}"),
            pages,
            Box::new(move |u, v, w| {
                let (res, io) = dev.measure(|| t.query_below(u, v, w, false));
                (res.len(), io.total())
            }),
        );
    }
    {
        let dev = Device::new(DeviceConfig::new(page, 0));
        let t = ShallowTree3::build(&dev, &pts, ShallowConfig::default());
        let pages = t.pages();
        run(
            "shallow (O(n log_B n))",
            "shallow",
            pages,
            Box::new(move |u, v, w| {
                let (res, io) = dev.measure(|| t.query_below(u, v, w, false));
                (res.len(), io.total())
            }),
        );
    }
    {
        let dev = Device::new(DeviceConfig::new(page, 0));
        let t = HalfspaceRS3::build(&dev, &pts, Hs3dConfig::default());
        let pages = t.pages();
        run(
            "hs3d (O(n log2 n))",
            "hs3d",
            pages,
            Box::new(move |u, v, w| {
                let (res, io) = dev.measure(|| t.query_below(u, v, w, false));
                (res.len(), io.total())
            }),
        );
    }
    print_table(
        "space vs query IOs across the trade-off spectrum (paper Table 1, d=3 rows)",
        &["structure", "space pages", "space/n", "t", "avg IOs"],
        &rows,
    );
    if smoke {
        report.write_default();
    }
}
