//! EXP-KNN — Theorem 4.3: k nearest neighbors in O(log_B n + k/B) expected
//! IOs via the lifting of Section 4.1 (the `knn` kind of `LiftedIndex`).

use lcrs_bench::{mean, print_table};
use lcrs_engine::{LiftedIndex, Query, RangeIndex};
use lcrs_extmem::{Device, DeviceConfig};
use lcrs_geom::lift::MAX_LIFT_COORD;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pseudo(n: usize, seed: u64) -> Vec<(i64, i64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(-MAX_LIFT_COORD..=MAX_LIFT_COORD),
                rng.gen_range(-MAX_LIFT_COORD..=MAX_LIFT_COORD),
            )
        })
        .collect()
}

fn main() {
    let page = 4096usize;
    let b = page / 28;
    println!("# EXP-KNN: Theorem 4.3 (k-NN by lifting), page={page}B");

    // IOs vs k at fixed n.
    let n_pts = 1usize << 15;
    let pts = pseudo(n_pts, 1);
    let dev = Device::new(DeviceConfig::new(page, 0));
    let knn = LiftedIndex::build(&dev, &pts);
    let mut rng = StdRng::seed_from_u64(9);
    let mut rows = Vec::new();
    for k in [1usize, 8, 64, b, 4 * b, 16 * b] {
        let mut ios = Vec::new();
        for _ in 0..10 {
            let (x, y) = (
                rng.gen_range(-MAX_LIFT_COORD..=MAX_LIFT_COORD),
                rng.gen_range(-MAX_LIFT_COORD..=MAX_LIFT_COORD),
            );
            let (res, io) = knn.execute_measured(&Query::Knn { x, y, k });
            assert_eq!(res.len(), k.min(n_pts));
            ios.push(io.total() as f64);
        }
        rows.push(vec![format!("{k}"), format!("{}", k.div_ceil(b)), format!("{:.1}", mean(&ios))]);
    }
    print_table(
        &format!("query IOs vs k at N = {n_pts} (paper: O(log_B n + k/B) expected)"),
        &["k", "k/B", "avg IOs"],
        &rows,
    );

    // IOs vs n at fixed k.
    let mut rows = Vec::new();
    for e in [12usize, 13, 14, 15, 16] {
        let n_pts = 1usize << e;
        let pts = pseudo(n_pts, e as u64);
        let dev = Device::new(DeviceConfig::new(page, 0));
        let knn = LiftedIndex::build(&dev, &pts);
        let mut ios = Vec::new();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..10 {
            let (x, y) = (
                rng.gen_range(-MAX_LIFT_COORD..=MAX_LIFT_COORD),
                rng.gen_range(-MAX_LIFT_COORD..=MAX_LIFT_COORD),
            );
            ios.push(knn.execute_measured(&Query::Knn { x, y, k: 32 }).1.total() as f64);
        }
        rows.push(vec![
            format!("{n_pts}"),
            format!("{:.1}", mean(&ios)),
            format!("{}", dev.pages_allocated()),
        ]);
    }
    print_table(
        "query IOs vs n at fixed k = 32 (near-flat: the log_B n term)",
        &["N", "avg IOs", "space pages"],
        &rows,
    );
}
