//! Quickstart: build the optimal 2D structure (Theorem 3.5) over a point
//! set and run a linear-constraint query, printing the measured IO cost.
//!
//! Run with: `cargo run --release --example quickstart`

use lcrs::extmem::{Device, DeviceConfig};
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs::workloads::{points2, Dist2};

fn main() {
    // A simulated disk with 4 KiB pages and no cache: every page access
    // costs one IO, exactly the model of the paper.
    let dev = Device::new(DeviceConfig::new(4096, 0));

    // 100k uniform points.
    let points = points2(Dist2::Uniform, 100_000, 1 << 29, 42);
    println!("building the Theorem 3.5 structure over {} points...", points.len());
    let t0 = std::time::Instant::now();
    let index = HalfspaceRS2::build(&dev, &points, Hs2dConfig::default());
    println!(
        "built in {:.2}s: {} clusterings, {} disk pages (linear space)",
        t0.elapsed().as_secs_f64(),
        index.num_clusterings(),
        index.pages()
    );

    // Query: report all points with y <= 3x - 1_000_000_000 (strictly below
    // the line y = 3x - 10^9).
    let (m, c) = (3i64, -1_000_000_000i64);
    let (result, io) = dev.measure(|| index.query_below(m, c, false));
    println!("query y < {m}·x + {c}: {} points reported in {} IOs", result.len(), io.total());

    // Verify against a scan.
    let brute =
        points.iter().filter(|&&(x, y)| (y as i128) < m as i128 * x as i128 + c as i128).count();
    assert_eq!(result.len(), brute);
    println!("verified against a full scan ({brute} matches).");
}
