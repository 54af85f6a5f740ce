//! EXP-T1-PT — Table 1, rows "d": the linear-size partition tree answers
//! d-dimensional halfspace (and simplex) queries in O(n^{1-1/d+ε} + t) IOs.
//!
//! We report the measured log-log growth exponent of small-output query
//! IOs against the paper's 1 - 1/d, for d = 2, 3, 4, for both partitioners
//! (DESIGN.md §3.4), plus a simplex-query row (Remark (i)).

use lcrs_bench::{loglog_slope, mean, print_table};
use lcrs_extmem::{Device, DeviceConfig};
use lcrs_geom::point::{HyperplaneD, PointD, Simplex};
use lcrs_halfspace::ptree::{PTreeConfig, PartitionTree, Partitioner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pseudo<const D: usize>(n: usize, seed: u64, range: i64) -> Vec<PointD<D>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| PointD::new(std::array::from_fn(|_| rng.gen_range(-range..=range)))).collect()
}

/// A hyperplane with ~t points strictly below.
fn plane_with_t<const D: usize>(pts: &[PointD<D>], t: usize, seed: u64) -> HyperplaneD<D> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coef = [0i64; D];
    for c in coef.iter_mut().skip(1) {
        *c = rng.gen_range(-16..=16);
    }
    let mut vals: Vec<i128> = pts
        .iter()
        .map(|p| {
            let mut s = 0i128;
            for i in 0..D - 1 {
                s += coef[i + 1] as i128 * p.c[i] as i128;
            }
            p.c[D - 1] as i128 - s
        })
        .collect();
    vals.sort_unstable();
    let a0 = if t == 0 { vals[0] - 1 } else { vals[t.min(vals.len() - 1)] };
    coef[0] = i64::try_from(a0).unwrap();
    HyperplaneD::new(coef)
}

fn run_dim<const D: usize>(partitioner: Partitioner, rows: &mut Vec<Vec<String>>) {
    let page = 4096usize;
    let mut ns = Vec::new();
    let mut qs = Vec::new();
    // The ham-sandwich partitioner falls back to kd above its cutoff
    // (DESIGN.md §3.4), so its sweep stays below it.
    let exps: &[usize] = if partitioner == Partitioner::HamSandwich {
        &[11, 12, 13, 14, 15]
    } else {
        &[12, 13, 14, 15, 16, 17]
    };
    for &e in exps {
        let n_pts = 1usize << e;
        let pts = pseudo::<D>(n_pts, e as u64, 1 << 29);
        let dev = Device::new(DeviceConfig::new(page, 0));
        let cfg = PTreeConfig { partitioner, ..Default::default() };
        let t = PartitionTree::build(&dev, &pts, cfg);
        let b = page / (8 * D + 4);
        let mut ios = Vec::new();
        for q in 0..24 {
            let h = plane_with_t(&pts, b, 900 + q);
            ios.push(dev.measure(|| t.query_halfspace(&h, false)).1.total() as f64);
        }
        let blocks = n_pts.div_ceil(b);
        ns.push(blocks as f64);
        qs.push(mean(&ios));
        rows.push(vec![
            format!("{D}"),
            format!("{partitioner:?}"),
            format!("{n_pts}"),
            format!("{blocks}"),
            format!("{:.1}", mean(&ios)),
            format!("{}", t.pages()),
            format!("{:.2}", t.pages() as f64 / blocks as f64),
        ]);
    }
    rows.push(vec![
        format!("{D}"),
        format!("{partitioner:?}"),
        "exponent".into(),
        format!("paper {:.3}", 1.0 - 1.0 / D as f64),
        format!("{:.3}", loglog_slope(&ns, &qs)),
        "-".into(),
        "-".into(),
    ]);
}

fn main() {
    println!("# EXP-T1-PT: Theorem 5.2 (linear-size partition trees)");
    let mut rows = Vec::new();
    run_dim::<2>(Partitioner::KdMedian, &mut rows);
    run_dim::<2>(Partitioner::HamSandwich, &mut rows);
    run_dim::<3>(Partitioner::KdMedian, &mut rows);
    run_dim::<4>(Partitioner::KdMedian, &mut rows);
    print_table(
        "query IOs vs n, small output (paper: O(n^{1-1/d+ε} + t), space O(n))",
        &["d", "partitioner", "N", "n", "avg IOs", "space pages", "space/n"],
        &rows,
    );

    // Simplex queries (Remark (i)).
    let pts = pseudo::<2>(1 << 15, 5, 1 << 20);
    let dev = Device::new(DeviceConfig::new(4096, 0));
    let t = PartitionTree::build(&dev, &pts, PTreeConfig::default());
    let mut rows = Vec::new();
    for (label, half) in [("small", 1 << 16), ("medium", 1 << 18), ("large", 1 << 20)] {
        let tri: Simplex<2> = Simplex::new(vec![([-1, 0], half), ([0, -1], half), ([1, 1], half)]);
        let (res, io) = dev.measure(|| t.query_simplex(&tri));
        rows.push(vec![label.into(), format!("{}", res.len()), format!("{}", io.total())]);
    }
    print_table(
        "simplex (triangle) queries on the d=2 tree (Remark (i))",
        &["triangle", "reported", "IOs"],
        &rows,
    );
}
