//! GIS-style convex-region reporting with a d-dimensional partition tree:
//! report all sensor sites inside a triangular survey area (the paper's
//! simplex queries, Theorem 5.2 Remark (i)), and a 3D linear constraint
//! combining position and elevation.
//!
//! Run with: `cargo run --release --example gis_overlay`

use lcrs::extmem::{Device, DeviceConfig};
use lcrs::geom::point::{HyperplaneD, PointD, Simplex};
use lcrs::halfspace::ptree::{PTreeConfig, PartitionTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n = 150_000usize;
    let mut rng = StdRng::seed_from_u64(2024);
    // Sites: (easting, northing) in meters over a 100 km square.
    let sites: Vec<PointD<2>> = (0..n)
        .map(|_| PointD::new([rng.gen_range(0..100_000), rng.gen_range(0..100_000)]))
        .collect();

    let dev = Device::new(DeviceConfig::new(4096, 0));
    let tree = PartitionTree::build(&dev, &sites, PTreeConfig::default());
    println!("partition tree over {n} sites: {} pages (linear space)", tree.pages());

    // Survey triangle: x >= 20km, y >= 30km, x + y <= 90km.
    let survey: Simplex<2> =
        Simplex::new(vec![([-1, 0], -20_000), ([0, -1], -30_000), ([1, 1], 90_000)]);
    let (inside, io) = dev.measure(|| tree.query_simplex(&survey));
    println!("triangular survey area: {} sites inside, {} IOs", inside.len(), io.total());
    let brute = sites.iter().filter(|p| survey.contains_point(p)).count();
    assert_eq!(inside.len(), brute);

    // 3D: sites with elevation; constraint "elevation below the inclined
    // plane z = 0.5·x - 0.2·y + 1000" (scaled to integers ×10).
    let sites3: Vec<PointD<3>> =
        sites.iter().map(|p| PointD::new([p.c[0], p.c[1], rng.gen_range(0..30_000)])).collect();
    let dev3 = Device::new(DeviceConfig::new(4096, 0));
    let tree3 = PartitionTree::build(&dev3, &sites3, PTreeConfig::default());
    let plane: HyperplaneD<3> = HyperplaneD::new([10_000, 5, -2]); // 10·z = ...
    let (below, io3) = dev3.measure(|| tree3.query_halfspace(&plane, false));
    println!(
        "3D linear constraint: {} sites below the inclined plane, {} IOs",
        below.len(),
        io3.total()
    );
    let brute3 = sites3.iter().filter(|p| plane.strictly_below(p)).count();
    assert_eq!(below.len(), brute3);
    println!("both queries verified against full scans.");
}
