//! k-nearest-neighbor search via the lifting of Theorem 4.3: a store
//! locator over 2D points, answered in O(log_B n + k/B) expected IOs by the
//! `knn` kind of `LiftedIndex`.
//!
//! Run with: `cargo run --release --example nearest_neighbors`

use lcrs::engine::{LiftedIndex, Query, RangeIndex};
use lcrs::extmem::{Device, DeviceConfig};
use lcrs::geom::lift::MAX_LIFT_COORD;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n = 50_000usize;
    let mut rng = StdRng::seed_from_u64(11);
    let mut gen = || {
        (
            rng.gen_range(-MAX_LIFT_COORD..=MAX_LIFT_COORD),
            rng.gen_range(-MAX_LIFT_COORD..=MAX_LIFT_COORD),
        )
    };
    let stores: Vec<(i64, i64)> = (0..n).map(|_| gen()).collect();

    let dev = Device::new(DeviceConfig::new(4096, 0));
    println!("lifting {n} store locations to planes and building the 3D structure...");
    let t0 = std::time::Instant::now();
    let knn = LiftedIndex::build(&dev, &stores);
    println!("built in {:.2}s ({} pages).", t0.elapsed().as_secs_f64(), dev.pages_allocated());

    let me = (123i64, -456i64);
    for k in [1usize, 5, 25, 200] {
        let (ids, io) = knn.execute_measured(&Query::Knn { x: me.0, y: me.1, k });
        let furthest = ids.last().map(|&i| {
            let (x, y) = stores[i as usize];
            (((x - me.0).pow(2) + (y - me.1).pow(2)) as f64).sqrt()
        });
        println!(
            "k={k:>4}: {} neighbors in {:>4} IOs (furthest at distance {:.1})",
            ids.len(),
            io.total(),
            furthest.unwrap_or(0.0)
        );
        // Verify the closest one by brute force.
        let best = stores
            .iter()
            .enumerate()
            .min_by_key(|(_, &(x, y))| (x - me.0).pow(2) + (y - me.1).pow(2))
            .unwrap()
            .0;
        assert_eq!(ids[0] as usize, best);
    }
    println!("nearest neighbor verified against brute force.");
}
