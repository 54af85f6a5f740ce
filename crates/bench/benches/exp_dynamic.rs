//! EXP-DYN — Remark (iii): dynamization by partial reconstruction. Measures
//! amortized insertion cost, the number of static parts (must stay
//! O(log n)), and the query overhead versus a monolithic static build.

use lcrs_bench::{mean, print_table};
use lcrs_extmem::{Device, DeviceConfig};
use lcrs_halfspace::dynamic::DynamicHalfspace2;
use lcrs_halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs_workloads::{halfplane_with_selectivity, points2, Dist2};

fn main() {
    let page = 4096usize;
    let b = page / 20;
    println!("# EXP-DYN: dynamization (paper Remark (iii)), page={page}B");
    let mut rows = Vec::new();
    for e in [12usize, 13, 14] {
        let n_pts = 1usize << e;
        let pts = points2(Dist2::Uniform, n_pts, 1 << 29, e as u64);

        // Dynamic: insert everything one by one.
        let dev = Device::new(DeviceConfig::new(page, 0));
        let mut dynamic = DynamicHalfspace2::new(&dev, Hs2dConfig::default());
        let t0 = std::time::Instant::now();
        for (i, &(x, y)) in pts.iter().enumerate() {
            dynamic.insert(x, y, i as u64);
        }
        let insert_secs = t0.elapsed().as_secs_f64();
        let write_ios = dev.stats().writes;

        // Static reference.
        let dev_s = Device::new(DeviceConfig::new(page, 0));
        let fixed = HalfspaceRS2::build(&dev_s, &pts, Hs2dConfig::default());

        let mut dyn_ios = Vec::new();
        let mut stat_ios = Vec::new();
        for q in 0..10u64 {
            let (m, c) = halfplane_with_selectivity(&pts, b, 64, q);
            let (r, io) = dev.measure(|| dynamic.query_below(m, c, false));
            assert_eq!(r.len(), b);
            dyn_ios.push(io.reads as f64);
            stat_ios.push(dev_s.measure(|| fixed.query_below(m, c, false)).1.total() as f64);
        }
        rows.push(vec![
            format!("{n_pts}"),
            format!("{:.1}", insert_secs * 1e6 / n_pts as f64),
            format!("{:.2}", write_ios as f64 / n_pts as f64),
            format!("{}", dynamic.num_parts()),
            format!("{:.1}", mean(&dyn_ios)),
            format!("{:.1}", mean(&stat_ios)),
        ]);
    }
    print_table(
        "amortized insertion and query overhead (paper: O(log2 n · log_B n) amortized updates)",
        &[
            "N inserts",
            "µs/insert",
            "write IOs/insert",
            "parts",
            "dyn query IOs",
            "static query IOs",
        ],
        &rows,
    );

    // Mixed workload: deletes trigger compaction.
    let n_pts = 1usize << 13;
    let pts = points2(Dist2::Uniform, n_pts, 1 << 29, 5);
    let dev = Device::new(DeviceConfig::new(page, 0));
    let mut dynamic = DynamicHalfspace2::new(&dev, Hs2dConfig::default());
    for (i, &(x, y)) in pts.iter().enumerate() {
        dynamic.insert(x, y, i as u64);
    }
    for i in (0..n_pts as u64).step_by(2) {
        assert!(dynamic.remove(i));
    }
    let live: Vec<(i64, i64)> =
        pts.iter().enumerate().filter(|(i, _)| i % 2 == 1).map(|(_, p)| *p).collect();
    let (m, c) = halfplane_with_selectivity(&live, b, 64, 3);
    let got = dynamic.query_below(m, c, false);
    print_table(
        "after deleting half the points (tombstones + compaction)",
        &["live", "parts", "query matches"],
        &[vec![
            format!("{}", dynamic.len()),
            format!("{}", dynamic.num_parts()),
            format!("{}", got.len()),
        ]],
    );
}
