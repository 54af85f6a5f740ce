//! # lcrs-bench — shared helpers for the experiment harness
//!
//! Each `benches/exp_*.rs` target (plain `main`, `harness = false`)
//! regenerates one table or figure of the paper; this crate holds the
//! common table printing and curve-fitting utilities, the shared
//! [`mixed`] oracle-workload definition, and the machine-readable
//! [`report`] layer (`BENCH_<name>.json` emission and the `bench_gate`
//! read-IO regression gate that ci.sh runs).

pub mod mixed;
pub mod report;

pub use mixed::{
    brute_answer, canon_answer, full_index_set, lifted_oracle, lifted_probes, mixed_oracle,
    mixed_probes,
};
pub use report::{BenchReport, Json};

/// Names of the `.pages` files in `dir`, sorted: the page snapshots a
/// snapshot catalog keeps there, one per store it persisted.
pub fn pages_files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("catalog directory is readable")
        .map(|e| e.expect("directory entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".pages"))
        .collect();
    names.sort();
    names
}

/// Render an aligned text table with a title.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let ncol = header.len();
    let mut w: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        assert_eq!(r.len(), ncol, "row arity");
        for (i, c) in r.iter().enumerate() {
            w[i] = w[i].max(c.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:>width$} |", c, width = w[i]));
        }
        println!("{s}");
    };
    line(header.iter().map(|s| s.to_string()).collect());
    println!("|{}|", w.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|"));
    for r in rows {
        line(r.clone());
    }
}

/// Least-squares slope of log(y) over log(x): the growth exponent of a
/// measured curve (used to check e.g. the n^{1-1/d} shape of Theorem 5.2).
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(x, y)| **x > 0.0 && **y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if n < 2.0 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Mean of a sample.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// p-th percentile (0..=100) of a sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((p / 100.0) * (s.len() - 1) as f64).round() as usize;
    s[idx.min(s.len() - 1)]
}

/// Wall-clock helper.
pub fn time_it<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_power_law_is_exponent() {
        let xs: Vec<f64> = (1..=10).map(|i| (i * i) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(0.5)).collect();
        assert!((loglog_slope(&xs, &ys) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_and_mean() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(mean(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
    }
}
