//! The paper's Section 1.1 motivating example, end to end:
//!
//! ```sql
//! SELECT Name FROM Companies
//! WHERE (PricePerShare - 10 * EarningsPerShare < 0)
//! ```
//!
//! Interpreting each (EarningsPerShare, PricePerShare) row as a planar
//! point, the query asks for the points strictly below the line y = 10·x —
//! one halfspace range query. We compare the Theorem 3.5 index against the
//! full-table scan a row store would do.
//!
//! Run with: `cargo run --release --example companies`

use lcrs::baselines::ExternalScan;
use lcrs::extmem::{Device, DeviceConfig};
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // Synthesize a Companies relation: EPS in cents (can be negative),
    // price in cents, loosely correlated so the P/E < 10 band is selective.
    let n = 200_000usize;
    let mut rng = StdRng::seed_from_u64(7);
    let companies: Vec<(String, i64, i64)> = (0..n)
        .map(|i| {
            let eps = rng.gen_range(-2_000i64..20_000); // cents/share
            let price = (eps.max(100)) * rng.gen_range(8..120) + rng.gen_range(0..5_000);
            (format!("CO{i:06}"), eps, price)
        })
        .collect();

    // Points: (EarningsPerShare, PricePerShare).
    let points: Vec<(i64, i64)> = companies.iter().map(|r| (r.1, r.2)).collect();

    let dev = Device::new(DeviceConfig::new(4096, 0));
    let index = HalfspaceRS2::build(&dev, &points, Hs2dConfig::default());
    let dev_scan = Device::new(DeviceConfig::new(4096, 0));
    let table = ExternalScan::build(&dev_scan, &points);

    // WHERE PricePerShare - 10 * EarningsPerShare < 0  ⟺  y < 10·x.
    let (hits, io) = dev.measure(|| index.query_below(10, 0, false));
    let (scan_hits, scan_io) = dev_scan.measure(|| table.query_below(10, 0, false));
    assert_eq!(
        {
            let mut a = hits.clone();
            a.sort_unstable();
            a
        },
        scan_hits
    );

    println!("SELECT Name FROM Companies WHERE PricePerShare - 10*EarningsPerShare < 0;");
    println!("rows: {n}, matches: {}", hits.len());
    println!("  Theorem 3.5 index : {:>6} IOs", io.total());
    println!("  full table scan   : {:>6} IOs", scan_io.total());
    println!("sample answers:");
    for id in hits.iter().take(5) {
        let (name, eps, price) = &companies[*id as usize];
        println!(
            "  {name}: EPS = {:.2}, price = {:.2}, P/E = {:.2}",
            *eps as f64 / 100.0,
            *price as f64 / 100.0,
            *price as f64 / *eps as f64
        );
    }
}
