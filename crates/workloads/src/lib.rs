//! # lcrs-workloads — deterministic workload and query generators
//!
//! Point distributions and query generators used by the benchmark harness
//! (DESIGN.md §5). Everything is seeded, so every experiment is exactly
//! reproducible. The `diagonal` workload is the adversarial input of the
//! paper's Section 1.2: N points on a line, with queries bounded by a slight
//! perturbation of it, which drives quad-tree/kd-tree style indexes to
//! Ω(n) IOs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 2D point distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist2 {
    /// Uniform in `[-range, range]²`.
    Uniform,
    /// Sum of three uniforms per coordinate (bell-shaped).
    Gaussianish,
    /// 32 uniform cluster centers with tight uniform clouds.
    Clustered,
    /// Points on the main diagonal (the §1.2 adversarial input).
    Diagonal,
    /// Points on a circle (convex position — every point is extreme).
    Circle,
}

/// Generate `n` 2D points with |coordinate| ≤ `range`.
pub fn points2(dist: Dist2, n: usize, range: i64, seed: u64) -> Vec<(i64, i64)> {
    assert!(range > 4);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2d2d);
    let mut u = |r: i64| rng.gen_range(-r..=r);
    match dist {
        Dist2::Uniform => (0..n).map(|_| (u(range), u(range))).collect(),
        Dist2::Gaussianish => (0..n)
            .map(|_| {
                let mut g = || (u(range) + u(range) + u(range)) / 3;
                let x = g();
                let y = g();
                (x, y)
            })
            .collect(),
        Dist2::Clustered => {
            let centers: Vec<(i64, i64)> =
                (0..32).map(|_| (u(range * 9 / 10), u(range * 9 / 10))).collect();
            (0..n)
                .map(|i| {
                    let c = centers[i % centers.len()];
                    (c.0 + u(range / 50), c.1 + u(range / 50))
                })
                .collect()
        }
        Dist2::Diagonal => {
            // Distinct points marching up the diagonal.
            let step = ((2 * range) / (n.max(1) as i64 + 1)).max(1);
            (0..n)
                .map(|i| (-range + step * (i as i64 + 1), -range + step * (i as i64 + 1)))
                .collect()
        }
        Dist2::Circle => (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                let x = (t.cos() * range as f64 * 0.9) as i64;
                let y = (t.sin() * range as f64 * 0.9) as i64;
                (x, y)
            })
            .collect(),
    }
}

/// 3D point distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist3 {
    Uniform,
    Clustered,
    /// Points near the plane z = x + y (3D analogue of `Diagonal`).
    Slab,
}

/// Generate `n` 3D points with |x|,|y| ≤ `range` (and |z| ≤ 2·range).
pub fn points3(dist: Dist3, n: usize, range: i64, seed: u64) -> Vec<(i64, i64, i64)> {
    assert!(range > 4);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3d3d);
    let mut u = |r: i64| rng.gen_range(-r..=r);
    match dist {
        Dist3::Uniform => (0..n).map(|_| (u(range), u(range), u(range))).collect(),
        Dist3::Clustered => {
            let centers: Vec<(i64, i64, i64)> = (0..16)
                .map(|_| (u(range * 9 / 10), u(range * 9 / 10), u(range * 9 / 10)))
                .collect();
            (0..n)
                .map(|i| {
                    let c = centers[i % centers.len()];
                    (c.0 + u(range / 40), c.1 + u(range / 40), c.2 + u(range / 40))
                })
                .collect()
        }
        Dist3::Slab => (0..n)
            .map(|_| {
                let (x, y) = (u(range / 2), u(range / 2));
                (x, y, x + y + u(8))
            })
            .collect(),
    }
}

/// A halfplane query `y <= m·x + c` with exactly `t` points of `pts`
/// strictly below it (exact when the t-th projected value is unique).
/// Slope is drawn from `[-slope..slope]`.
pub fn halfplane_with_selectivity(
    pts: &[(i64, i64)],
    t: usize,
    slope: i64,
    seed: u64,
) -> (i64, i64) {
    assert!(t <= pts.len() && !pts.is_empty());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e11);
    let m = rng.gen_range(-slope..=slope);
    let mut vals: Vec<i128> = pts.iter().map(|&(x, y)| y as i128 - m as i128 * x as i128).collect();
    vals.sort_unstable();
    let c = if t == 0 {
        vals[0] - 1
    } else if t == pts.len() {
        vals[t - 1] + 1
    } else {
        vals[t]
    };
    (m, i64::try_from(c).expect("intercept fits i64"))
}

/// Number of points strictly below `y = m·x + c`.
pub fn count_below2(pts: &[(i64, i64)], m: i64, c: i64) -> usize {
    pts.iter().filter(|&&(x, y)| (y as i128) < m as i128 * x as i128 + c as i128).count()
}

/// A halfspace query `z <= u·x + v·y + w` with exactly-ish `t` points
/// strictly below.
pub fn halfspace3_with_selectivity(
    pts: &[(i64, i64, i64)],
    t: usize,
    slope: i64,
    seed: u64,
) -> (i64, i64, i64) {
    assert!(t <= pts.len() && !pts.is_empty());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e33);
    let (u, v) = (rng.gen_range(-slope..=slope), rng.gen_range(-slope..=slope));
    let mut vals: Vec<i128> = pts
        .iter()
        .map(|&(x, y, z)| z as i128 - u as i128 * x as i128 - v as i128 * y as i128)
        .collect();
    vals.sort_unstable();
    let w = if t == 0 {
        vals[0] - 1
    } else if t == pts.len() {
        vals[t - 1] + 1
    } else {
        vals[t]
    };
    (u, v, i64::try_from(w).expect("offset fits i64"))
}

/// Number of points strictly below `z = u·x + v·y + w`.
pub fn count_below3(pts: &[(i64, i64, i64)], u: i64, v: i64, w: i64) -> usize {
    pts.iter()
        .filter(|&&(x, y, z)| {
            (z as i128) < u as i128 * x as i128 + v as i128 * y as i128 + w as i128
        })
        .count()
}

/// Shape of a multi-query batch (DESIGN.md §7). Batches model production
/// traffic, where the interesting axis is how much page locality
/// consecutive queries share — the two shapes bracket it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchShape {
    /// `distinct` base queries sampled under a Zipf-like popularity law
    /// with exponent `s` (weight of the i-th base query ∝ 1/(i+1)^s):
    /// heavy repetition of a few hot queries, the cache-friendliest
    /// traffic a real workload produces.
    ZipfRepeat { distinct: usize, s: f64 },
    /// All-distinct parallel halfplanes with selectivities sweeping
    /// 0..=n in submission order — a sorted scan across the point set
    /// where consecutive queries share most of their output pages.
    SortedSweep,
}

/// Thresholds of a sorted-sweep batch over projected values: entry `j`
/// admits exactly `t = j·n/(len-1)` of the values strictly below it
/// (`vals` need not be sorted; endpoints over/undershoot by 1 like the
/// single-query selectivity generators).
fn sweep_thresholds(mut vals: Vec<i128>, len: usize) -> Vec<i128> {
    let n = vals.len();
    vals.sort_unstable();
    (0..len)
        .map(|j| {
            let t = if len <= 1 { 0 } else { j * n / (len - 1) };
            if t == 0 {
                vals[0] - 1
            } else if t == n {
                vals[t - 1] + 1
            } else {
                vals[t]
            }
        })
        .collect()
}

/// Sample `len` indices into `distinct` items under the Zipf(s) law.
fn zipf_indices(rng: &mut StdRng, distinct: usize, s: f64, len: usize) -> Vec<usize> {
    assert!(distinct > 0);
    let cum: Vec<f64> = (0..distinct)
        .scan(0.0f64, |acc, i| {
            *acc += 1.0 / ((i + 1) as f64).powf(s);
            Some(*acc)
        })
        .collect();
    let total = *cum.last().unwrap();
    (0..len)
        .map(|_| {
            let r = rng.gen_range(0.0..total);
            cum.partition_point(|&c| c <= r).min(distinct - 1)
        })
        .collect()
}

/// A batch of `len` halfplane queries `(m, c)` over `pts`, shaped by
/// `shape`. Deterministic in `(pts, shape, len, slope, seed)`.
pub fn halfplane_batch(
    pts: &[(i64, i64)],
    shape: BatchShape,
    len: usize,
    slope: i64,
    seed: u64,
) -> Vec<(i64, i64)> {
    assert!(!pts.is_empty());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c2);
    match shape {
        BatchShape::ZipfRepeat { distinct, s } => {
            let base: Vec<(i64, i64)> = (0..distinct)
                .map(|i| {
                    let t = (i + 1) * pts.len() / (distinct + 1);
                    halfplane_with_selectivity(pts, t, slope, seed ^ ((i as u64) << 8))
                })
                .collect();
            zipf_indices(&mut rng, distinct, s, len).into_iter().map(|i| base[i]).collect()
        }
        BatchShape::SortedSweep => {
            // One shared slope; intercepts at evenly spaced selectivities,
            // emitted in ascending order.
            let m = rng.gen_range(-slope..=slope);
            let vals: Vec<i128> =
                pts.iter().map(|&(x, y)| y as i128 - m as i128 * x as i128).collect();
            sweep_thresholds(vals, len)
                .into_iter()
                .map(|c| (m, i64::try_from(c).expect("intercept fits i64")))
                .collect()
        }
    }
}

/// A batch of `len` halfspace queries `(u, v, w)` over 3D `pts`, shaped by
/// `shape`. Deterministic in `(pts, shape, len, slope, seed)`.
pub fn halfspace3_batch(
    pts: &[(i64, i64, i64)],
    shape: BatchShape,
    len: usize,
    slope: i64,
    seed: u64,
) -> Vec<(i64, i64, i64)> {
    assert!(!pts.is_empty());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c3);
    match shape {
        BatchShape::ZipfRepeat { distinct, s } => {
            let base: Vec<(i64, i64, i64)> = (0..distinct)
                .map(|i| {
                    let t = (i + 1) * pts.len() / (distinct + 1);
                    halfspace3_with_selectivity(pts, t, slope, seed ^ ((i as u64) << 8))
                })
                .collect();
            zipf_indices(&mut rng, distinct, s, len).into_iter().map(|i| base[i]).collect()
        }
        BatchShape::SortedSweep => {
            let (u, v) = (rng.gen_range(-slope..=slope), rng.gen_range(-slope..=slope));
            let vals: Vec<i128> = pts
                .iter()
                .map(|&(x, y, z)| z as i128 - u as i128 * x as i128 - v as i128 * y as i128)
                .collect();
            sweep_thresholds(vals, len)
                .into_iter()
                .map(|w| (u, v, i64::try_from(w).expect("offset fits i64")))
                .collect()
        }
    }
}

/// A batch of `len` k-NN queries `(x, y, k)` over 2D `pts`, shaped by
/// `shape`. Centers come from the point set itself (so queries land where
/// the data lives); `k` is fixed per batch. Deterministic in
/// `(pts, shape, len, k, seed)`.
pub fn knn_batch(
    pts: &[(i64, i64)],
    shape: BatchShape,
    len: usize,
    k: usize,
    seed: u64,
) -> Vec<(i64, i64, usize)> {
    assert!(!pts.is_empty());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c4);
    match shape {
        BatchShape::ZipfRepeat { distinct, s } => {
            // `distinct` hot centers spread evenly through the x-sorted
            // point set, repeated under the Zipf law.
            let mut order: Vec<usize> = (0..pts.len()).collect();
            order.sort_by_key(|&i| pts[i]);
            let base: Vec<(i64, i64)> =
                (0..distinct).map(|i| pts[order[(i + 1) * pts.len() / (distinct + 1)]]).collect();
            zipf_indices(&mut rng, distinct, s, len)
                .into_iter()
                .map(|i| (base[i].0, base[i].1, k))
                .collect()
        }
        BatchShape::SortedSweep => {
            // All-distinct centers sweeping the point set in (x, y) order —
            // consecutive queries probe neighboring regions.
            let mut centers: Vec<(i64, i64)> = (0..len)
                .map(|j| {
                    let t = if len <= 1 { 0 } else { j * (pts.len() - 1) / (len - 1) };
                    pts[t]
                })
                .collect();
            centers.sort_unstable();
            centers.into_iter().map(|(x, y)| (x, y, k)).collect()
        }
    }
}

/// A seeded batch of `len` *mixed* halfplane queries `(m, c, inclusive)`:
/// slopes drawn from `[-slope..slope]`, selectivities spanning empty
/// through roughly half the input on a pseudo-random schedule, strict and
/// inclusive variants interleaved. This is the oracle workload of
/// `tests/cross_structure.rs` — diverse enough that a silent answer
/// corruption in any structure (in-memory or reopened from a snapshot)
/// collides with the linear-scan reference. Deterministic in
/// `(pts, len, slope, seed)`.
pub fn halfplane_mixed(
    pts: &[(i64, i64)],
    len: usize,
    slope: i64,
    seed: u64,
) -> Vec<(i64, i64, bool)> {
    assert!(!pts.is_empty());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c5);
    (0..len)
        .map(|i| {
            // Selectivity schedule: sprinkle exact edge cases among
            // random targets up to n/2.
            let t = match i % 8 {
                0 => 0,
                1 => 1,
                2 => pts.len().min(2),
                _ => rng.gen_range(0..=pts.len() / 2),
            };
            let (m, c) = halfplane_with_selectivity(pts, t, slope, seed ^ ((i as u64) << 7));
            (m, c, rng.gen_range(0u32..2) == 1)
        })
        .collect()
}

/// A seeded batch of `len` *mixed* halfspace queries `(u, v, w, inclusive)`
/// over 3D `pts` — the 3D leg of the oracle/planner workload, mirroring
/// [`halfplane_mixed`]: slopes from `[-slope..slope]`, selectivities from
/// exact edge cases up to roughly half the input, strictness interleaved.
/// Deterministic in `(pts, len, slope, seed)`.
pub fn halfspace3_mixed(
    pts: &[(i64, i64, i64)],
    len: usize,
    slope: i64,
    seed: u64,
) -> Vec<(i64, i64, i64, bool)> {
    assert!(!pts.is_empty());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c6);
    (0..len)
        .map(|i| {
            let t = match i % 8 {
                0 => 0,
                1 => 1,
                2 => pts.len().min(2),
                _ => rng.gen_range(0..=pts.len() / 2),
            };
            let (u, v, w) = halfspace3_with_selectivity(pts, t, slope, seed ^ ((i as u64) << 7));
            (u, v, w, rng.gen_range(0u32..2) == 1)
        })
        .collect()
}

/// A seeded batch of `len` *narrow* halfplane queries `(m, c, inclusive)`:
/// every query admits at most `max_t` points (selectivity drawn uniformly
/// from `0..=max_t`), slopes drawn independently from `[-slope..slope]`.
/// This is the shard-stressing workload of DESIGN.md §11 — narrow
/// constraints with diverse orientations cross few cells of a balanced
/// spatial partition, so geometric routing (`shards_intersecting`) should
/// prune most shards; broad-selectivity batches are the adversarial
/// opposite. Deterministic in `(pts, len, slope, max_t, seed)`.
pub fn halfplane_narrow(
    pts: &[(i64, i64)],
    len: usize,
    slope: i64,
    max_t: usize,
    seed: u64,
) -> Vec<(i64, i64, bool)> {
    assert!(!pts.is_empty() && max_t <= pts.len());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c8);
    (0..len)
        .map(|i| {
            let t = rng.gen_range(0..=max_t);
            let (m, c) = halfplane_with_selectivity(pts, t, slope, seed ^ ((i as u64) << 9));
            (m, c, rng.gen_range(0u32..2) == 1)
        })
        .collect()
}

/// A seeded batch of `len` *mixed* k-NN queries `(x, y, k)` over 2D `pts` —
/// the k-NN leg of the oracle/planner workload: centers jittered around
/// data points (queries land where the data lives, plus some that do not),
/// `k` spanning 1 up to `k_max`. Deterministic in `(pts, len, k_max, seed)`.
pub fn knn_mixed(
    pts: &[(i64, i64)],
    len: usize,
    k_max: usize,
    seed: u64,
) -> Vec<(i64, i64, usize)> {
    assert!(!pts.is_empty() && k_max >= 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c7);
    (0..len)
        .map(|_| {
            let (px, py) = pts[rng.gen_range(0..pts.len())];
            let jitter = 1 + k_max as i64;
            let x = px + rng.gen_range(-jitter..=jitter);
            let y = py + rng.gen_range(-jitter..=jitter);
            (x, y, 1 + rng.gen_range(0..k_max))
        })
        .collect()
}

/// A seeded batch of `len` *mixed* disk queries `(x, y, r2, inclusive)`
/// over 2D `pts` — the circular-range leg of the oracle workload
/// (DESIGN.md §15), mirroring [`halfplane_mixed`]'s diversity contract:
/// centers jittered around data points (queries land where the data
/// lives), squared radii spanning degenerate (`r2 = 0`, only an exact
/// center hit) through `r_max²`, with every 8th query's radius set to the
/// *exact* squared distance of a data point so the strict/inclusive
/// boundary distinction is exercised, strictness interleaved.
/// Deterministic and prefix-stable in `(pts, len, r_max, seed)`.
pub fn disk_mixed(
    pts: &[(i64, i64)],
    len: usize,
    r_max: i64,
    seed: u64,
) -> Vec<(i64, i64, i64, bool)> {
    assert!(!pts.is_empty() && (1..=1 << 30).contains(&r_max));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd15c);
    (0..len)
        .map(|i| {
            let (px, py) = pts[rng.gen_range(0..pts.len())];
            let jitter = r_max / 4 + 1;
            let x = px.saturating_add(rng.gen_range(-jitter..=jitter));
            let y = py.saturating_add(rng.gen_range(-jitter..=jitter));
            let r2 = match i % 8 {
                0 => 0,
                1 => {
                    // Boundary case: squared distance to a data point, so
                    // strict and inclusive variants genuinely differ.
                    let (qx, qy) = pts[rng.gen_range(0..pts.len())];
                    let (dx, dy) = (x as i128 - qx as i128, y as i128 - qy as i128);
                    i64::try_from(dx * dx + dy * dy).unwrap_or(r_max * r_max)
                }
                _ => {
                    let r = rng.gen_range(1..=r_max);
                    r * r
                }
            };
            (x, y, r2, rng.gen_range(0u32..2) == 1)
        })
        .collect()
}

/// A seeded batch of `len` *mixed* aggregate queries
/// `(m, c, inclusive, sum)` over 2D `pts` — the count/sum leg of the
/// oracle workload (DESIGN.md §15). The halfplane material mirrors
/// [`halfplane_mixed`] exactly (same selectivity schedule from empty
/// through half the input, strictness interleaved); the trailing flag
/// alternates deterministically between count (`false`) and weight-sum
/// (`true`) so both aggregate classes get equal coverage. Deterministic
/// and prefix-stable in `(pts, len, slope, seed)`.
pub fn aggregate_mixed(
    pts: &[(i64, i64)],
    len: usize,
    slope: i64,
    seed: u64,
) -> Vec<(i64, i64, bool, bool)> {
    assert!(!pts.is_empty());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa66a);
    (0..len)
        .map(|i| {
            let t = match i % 8 {
                0 => 0,
                1 => 1,
                2 => pts.len().min(2),
                _ => rng.gen_range(0..=pts.len() / 2),
            };
            let (m, c) = halfplane_with_selectivity(pts, t, slope, seed ^ ((i as u64) << 7));
            (m, c, rng.gen_range(0u32..2) == 1, i % 2 == 1)
        })
        .collect()
}

/// A seeded batch of `len` *mixed* top-k queries `(m, c, k)` over 2D
/// `pts` — the ranked-reporting leg of the oracle workload
/// (DESIGN.md §15): candidate thresholds follow the
/// [`halfplane_mixed`] selectivity schedule (so some queries admit no
/// candidate at all and some admit far more than `k`, exercising both
/// truncation and short answers), `k` drawn from `1..=k_max`.
/// Deterministic and prefix-stable in `(pts, len, slope, k_max, seed)`.
pub fn topk_mixed(
    pts: &[(i64, i64)],
    len: usize,
    slope: i64,
    k_max: usize,
    seed: u64,
) -> Vec<(i64, i64, usize)> {
    assert!(!pts.is_empty() && k_max >= 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x709b);
    (0..len)
        .map(|i| {
            let t = match i % 8 {
                0 => 0,
                1 => 1,
                2 => pts.len().min(2),
                _ => rng.gen_range(0..=pts.len() / 2),
            };
            let (m, c) = halfplane_with_selectivity(pts, t, slope, seed ^ ((i as u64) << 7));
            (m, c, 1 + rng.gen_range(0..k_max))
        })
        .collect()
}

/// A sequential *page-sweep* trace of `len` halfplane queries `(m, c)`:
/// one shared slope, selectivity climbing by a constant `stride` per query
/// from 0 (clamped at n), emitted in submission order. Consecutive answer
/// sets are nested prefixes growing `stride` records at a time, so an
/// index laid out in rank order reads its pages strictly front to back
/// across the batch — the most readahead-friendly traffic there is (the
/// `exp_reopen` sequential cells), the opposite extreme from the cold
/// random access of a wide [`BatchShape::ZipfRepeat`]. Differs from
/// [`BatchShape::SortedSweep`] in pacing: the sweep spreads `len` queries
/// over the whole selectivity range, the page sweep advances a fixed
/// number of *records* (hence pages) per query. Deterministic in
/// `(pts, len, stride, slope, seed)`.
pub fn halfplane_page_sweep(
    pts: &[(i64, i64)],
    len: usize,
    stride: usize,
    slope: i64,
    seed: u64,
) -> Vec<(i64, i64)> {
    assert!(!pts.is_empty() && stride > 0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c9);
    let m = rng.gen_range(-slope..=slope);
    let mut vals: Vec<i128> = pts.iter().map(|&(x, y)| y as i128 - m as i128 * x as i128).collect();
    vals.sort_unstable();
    let n = vals.len();
    (0..len)
        .map(|j| {
            let t = (j * stride).min(n);
            let c = if t == 0 {
                vals[0] - 1
            } else if t == n {
                vals[n - 1] + 1
            } else {
                vals[t]
            };
            (m, i64::try_from(c).expect("intercept fits i64"))
        })
        .collect()
}

/// One operation of a live-update trace (the workload of the engine's
/// `LiveIndex`: mutation and queries interleaved on one timeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Insert a point under a fresh tag (tags are assigned sequentially,
    /// so every insert in a trace carries a distinct one).
    Insert { x: i64, y: i64, tag: u64 },
    /// Delete a previously inserted, still-live tag.
    Delete { tag: u64 },
    /// Report all live points below `y = m·x + c`.
    Query { m: i64, c: i64, inclusive: bool },
}

/// Relative op weights of a [`live_trace`]. Weights need not sum to
/// anything particular; `inserts` must be positive (a delete drawn while
/// nothing is live falls back to an insert).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceMix {
    pub inserts: u32,
    pub deletes: u32,
    pub queries: u32,
}

impl Default for TraceMix {
    /// The serving mix the live-tier experiments run: mostly ingest, with
    /// enough deletes to exercise tombstones and enough queries to probe
    /// every intermediate state.
    fn default() -> Self {
        TraceMix { inserts: 5, deletes: 2, queries: 3 }
    }
}

/// A seeded interleaved insert/delete/query trace of `len` operations.
///
/// Inserts draw coordinates uniformly from `[-range, range]²` and tag
/// points `0, 1, 2, …` in insertion order; deletes target a uniformly
/// random *live* tag (never a missing or already-deleted one); queries
/// draw slopes from `[-slope..slope]` and intercepts wide enough to span
/// empty through everything, strictness interleaved. Deterministic in
/// `(mix, len, range, slope, seed)` — the pinning test keeps it that way,
/// so a trace name plus a seed fully identifies an experiment.
pub fn live_trace(mix: TraceMix, len: usize, range: i64, slope: i64, seed: u64) -> Vec<TraceOp> {
    assert!(range > 4 && slope >= 0 && mix.inserts > 0);
    let total = u64::from(mix.inserts) + u64::from(mix.deletes) + u64::from(mix.queries);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x117e);
    let mut live: Vec<u64> = Vec::new();
    let mut next_tag = 0u64;
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let roll = rng.gen_range(0..total);
        let op = if roll < u64::from(mix.inserts) + u64::from(mix.deletes) {
            let delete = roll >= u64::from(mix.inserts) && !live.is_empty();
            if delete {
                let i = rng.gen_range(0..live.len());
                TraceOp::Delete { tag: live.swap_remove(i) }
            } else {
                let (x, y) = (rng.gen_range(-range..=range), rng.gen_range(-range..=range));
                let tag = next_tag;
                next_tag += 1;
                live.push(tag);
                TraceOp::Insert { x, y, tag }
            }
        } else {
            let m = rng.gen_range(-slope..=slope);
            // Wide enough that some queries are empty and some catch
            // everything, whatever the slope tilted the values to.
            let spread = range * (m.abs() + 2);
            TraceOp::Query {
                m,
                c: rng.gen_range(-spread..=spread),
                inclusive: rng.gen_range(0u32..2) == 1,
            }
        };
        ops.push(op);
    }
    ops
}

/// One arrival of an open-loop serving trace (the workload of the
/// engine's `QueryServer`): a tenant-tagged halfplane query with a
/// virtual arrival timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOp {
    /// Virtual arrival time in nanoseconds from trace start; strictly
    /// increasing along the trace (the open-loop arrival process).
    pub at_ns: u64,
    /// Issuing tenant, in `0..tenants`.
    pub tenant: u32,
    /// Halfplane query `y <= m·x + c`.
    pub m: i64,
    pub c: i64,
    pub inclusive: bool,
}

/// A seeded open-loop serving trace of `len` tenant-tagged halfplane
/// arrivals over `pts`.
///
/// Arrival gaps are drawn uniformly from `1..=2·mean_gap_ns` (so
/// timestamps strictly increase and the mean inter-arrival time is about
/// `mean_gap_ns`); the issuing tenant is drawn uniformly per arrival.
/// Tenants split into two traffic classes, bracketing the locality a
/// window-batching server can harvest: *even* tenants replay a private
/// set of 8 hot queries under a square-law popularity bias (heavy
/// repetition — the cache-friendliest traffic), *odd* tenants walk a
/// private 64-rung selectivity ladder in ascending order (a sweep —
/// consecutive arrivals share most of their output pages). Deterministic
/// in `(pts, tenants, len, mean_gap_ns, slope, seed)`, and prefix-stable
/// like [`live_trace`]: the first `k` ops of one seed agree whatever the
/// requested length — the pinning test keeps it that way, so a trace
/// name plus a seed fully identifies a serving experiment.
pub fn serve_trace(
    pts: &[(i64, i64)],
    tenants: u32,
    len: usize,
    mean_gap_ns: u64,
    slope: i64,
    seed: u64,
) -> Vec<ServeOp> {
    assert!(!pts.is_empty() && tenants > 0 && mean_gap_ns > 0 && slope >= 0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
    // Per-tenant query material, derived from (pts, slope, seed, tenant)
    // only — never from the arrival rng — so prefixes stay stable.
    let hot: Vec<Vec<(i64, i64)>> = (0..tenants)
        .map(|t| {
            (0..8)
                .map(|i| {
                    let sel = (i + 1) * pts.len() / 9;
                    halfplane_with_selectivity(
                        pts,
                        sel,
                        slope,
                        seed ^ ((u64::from(t) << 16) | i as u64),
                    )
                })
                .collect()
        })
        .collect();
    let ladders: Vec<Vec<i128>> = (0..tenants)
        .map(|t| {
            let mut r = StdRng::seed_from_u64(seed ^ 0x5e7f ^ u64::from(t));
            let m = r.gen_range(-slope..=slope);
            let vals: Vec<i128> =
                pts.iter().map(|&(x, y)| y as i128 - m as i128 * x as i128).collect();
            let mut ladder = sweep_thresholds(vals, 64);
            ladder.insert(0, m as i128); // slot 0 carries the shared slope
            ladder
        })
        .collect();
    let mut cursors = vec![0usize; tenants as usize];
    let mut ops = Vec::with_capacity(len);
    let mut t_ns = 0u64;
    for _ in 0..len {
        t_ns = t_ns.saturating_add(rng.gen_range(1..=mean_gap_ns * 2));
        let tenant = rng.gen_range(0..tenants);
        let inclusive = rng.gen_range(0u32..2) == 1;
        let (m, c) = if tenant % 2 == 0 {
            // Hot tenant: square-law bias toward its first base queries.
            let r = rng.gen_range(0.0..1.0f64);
            hot[tenant as usize][((r * r * 8.0) as usize).min(7)]
        } else {
            // Sweep tenant: next rung of its private ascending ladder.
            let ladder = &ladders[tenant as usize];
            let cur = &mut cursors[tenant as usize];
            let c = ladder[1 + (*cur % 64)];
            *cur += 1;
            (ladder[0] as i64, i64::try_from(c).expect("intercept fits i64"))
        };
        ops.push(ServeOp { at_ns: t_ns, tenant, m, c, inclusive });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectivity_is_exact_2d() {
        let pts = points2(Dist2::Uniform, 500, 100_000, 1);
        for t in [0usize, 1, 10, 250, 499, 500] {
            let (m, c) = halfplane_with_selectivity(&pts, t, 50, t as u64);
            assert_eq!(count_below2(&pts, m, c), t, "t={t}");
        }
    }

    #[test]
    fn selectivity_is_exact_3d() {
        let pts = points3(Dist3::Uniform, 400, 50_000, 2);
        for t in [0usize, 5, 200, 400] {
            let (u, v, w) = halfspace3_with_selectivity(&pts, t, 30, t as u64);
            assert_eq!(count_below3(&pts, u, v, w), t, "t={t}");
        }
    }

    #[test]
    fn distributions_have_expected_shapes() {
        let d = points2(Dist2::Diagonal, 100, 1 << 20, 3);
        assert!(d.iter().all(|&(x, y)| x == y));
        let mut dd = d.clone();
        dd.dedup();
        assert_eq!(dd.len(), 100, "diagonal points must be distinct");
        let c = points2(Dist2::Circle, 64, 1 << 20, 4);
        assert_eq!(c.len(), 64);
        let s = points3(Dist3::Slab, 50, 10_000, 5);
        assert!(s.iter().all(|&(x, y, z)| (z - x - y).abs() <= 8));
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(points2(Dist2::Uniform, 50, 1000, 7), points2(Dist2::Uniform, 50, 1000, 7));
        assert_eq!(points3(Dist3::Clustered, 50, 1000, 7), points3(Dist3::Clustered, 50, 1000, 7));
    }

    #[test]
    fn zipf_batch_repeats_hot_queries() {
        let pts = points2(Dist2::Uniform, 400, 100_000, 6);
        let shape = BatchShape::ZipfRepeat { distinct: 8, s: 1.1 };
        let batch = halfplane_batch(&pts, shape, 200, 40, 99);
        assert_eq!(batch.len(), 200);
        let mut uniq = batch.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() <= 8, "at most `distinct` distinct queries");
        assert!(uniq.len() >= 2, "zipf must not degenerate to one query");
        // The hottest query dominates: it appears more often than 200/8.
        let top = uniq.iter().map(|u| batch.iter().filter(|&&q| q == *u).count()).max().unwrap();
        assert!(top > 25, "hot query should repeat heavily, saw {top}");
    }

    #[test]
    fn sweep_batch_is_sorted_and_spans_selectivities() {
        let pts = points2(Dist2::Uniform, 300, 100_000, 7);
        let batch = halfplane_batch(&pts, BatchShape::SortedSweep, 50, 40, 5);
        assert_eq!(batch.len(), 50);
        let m = batch[0].0;
        assert!(batch.iter().all(|&(bm, _)| bm == m), "sweep shares one slope");
        assert!(batch.windows(2).all(|w| w[0].1 <= w[1].1), "intercepts ascend");
        assert_eq!(count_below2(&pts, m, batch[0].1), 0);
        assert_eq!(count_below2(&pts, m, batch[49].1), pts.len());
    }

    #[test]
    fn batch3_generators_match_2d_contracts() {
        let pts = points3(Dist3::Uniform, 300, 50_000, 8);
        let zipf =
            halfspace3_batch(&pts, BatchShape::ZipfRepeat { distinct: 6, s: 1.0 }, 120, 30, 11);
        assert_eq!(zipf.len(), 120);
        let mut uniq = zipf.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() <= 6 && uniq.len() >= 2);
        let sweep = halfspace3_batch(&pts, BatchShape::SortedSweep, 40, 30, 12);
        assert!(sweep.windows(2).all(|w| w[0].2 <= w[1].2), "offsets ascend");
        let (u, v) = (sweep[0].0, sweep[0].1);
        assert_eq!(count_below3(&pts, u, v, sweep[0].2), 0);
        assert_eq!(count_below3(&pts, u, v, sweep[39].2), pts.len());
    }

    #[test]
    fn batch_generators_are_deterministic() {
        let pts = points2(Dist2::Clustered, 200, 100_000, 9);
        let shape = BatchShape::ZipfRepeat { distinct: 5, s: 0.9 };
        assert_eq!(
            halfplane_batch(&pts, shape, 64, 40, 13),
            halfplane_batch(&pts, shape, 64, 40, 13)
        );
        let pts3 = points3(Dist3::Slab, 200, 50_000, 10);
        assert_eq!(
            halfspace3_batch(&pts3, BatchShape::SortedSweep, 32, 30, 14),
            halfspace3_batch(&pts3, BatchShape::SortedSweep, 32, 30, 14)
        );
        assert_eq!(knn_batch(&pts, shape, 64, 8, 15), knn_batch(&pts, shape, 64, 8, 15));
    }

    #[test]
    fn knn_batch_matches_2d_contracts() {
        let pts = points2(Dist2::Uniform, 300, 1000, 11);
        let shape = BatchShape::ZipfRepeat { distinct: 6, s: 1.1 };
        let zipf = knn_batch(&pts, shape, 96, 8, 16);
        assert_eq!(zipf.len(), 96);
        assert!(zipf.iter().all(|&(_, _, k)| k == 8));
        // Few distinct hot centers, all drawn from the point set.
        let distinct: std::collections::HashSet<(i64, i64)> =
            zipf.iter().map(|&(x, y, _)| (x, y)).collect();
        assert!(distinct.len() <= 6);
        assert!(distinct.iter().all(|c| pts.contains(c)));
        // Sweep: all centers from the point set, emitted in sorted order.
        let sweep = knn_batch(&pts, BatchShape::SortedSweep, 40, 4, 17);
        assert_eq!(sweep.len(), 40);
        assert!(sweep.windows(2).all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)));
        assert!(sweep.iter().all(|&(x, y, _)| pts.contains(&(x, y))));
    }

    #[test]
    fn mixed_batch_is_deterministic_and_diverse() {
        let pts = points2(Dist2::Uniform, 400, 100_000, 12);
        let batch = halfplane_mixed(&pts, 64, 40, 21);
        assert_eq!(batch.len(), 64);
        assert_eq!(batch, halfplane_mixed(&pts, 64, 40, 21));
        // Both strictness variants present, selectivities span the range:
        // at least one empty query and one with a big answer.
        assert!(batch.iter().any(|&(_, _, inc)| inc));
        assert!(batch.iter().any(|&(_, _, inc)| !inc));
        let counts: Vec<usize> = batch.iter().map(|&(m, c, _)| count_below2(&pts, m, c)).collect();
        assert!(counts.contains(&0), "must include an empty-answer query");
        assert!(counts.iter().any(|&t| t >= 100), "must include a heavy query");
    }

    #[test]
    fn mixed_3d_batch_is_deterministic_and_diverse() {
        let pts = points3(Dist3::Uniform, 300, 50_000, 13);
        let batch = halfspace3_mixed(&pts, 64, 30, 22);
        assert_eq!(batch.len(), 64);
        assert_eq!(batch, halfspace3_mixed(&pts, 64, 30, 22));
        assert!(batch.iter().any(|&(_, _, _, inc)| inc));
        assert!(batch.iter().any(|&(_, _, _, inc)| !inc));
        let counts: Vec<usize> =
            batch.iter().map(|&(u, v, w, _)| count_below3(&pts, u, v, w)).collect();
        assert!(counts.contains(&0), "must include an empty-answer query");
        assert!(counts.iter().any(|&t| t >= 75), "must include a heavy query");
    }

    #[test]
    fn mixed_knn_batch_is_deterministic_and_diverse() {
        let pts = points2(Dist2::Clustered, 300, 1000, 14);
        let batch = knn_mixed(&pts, 64, 20, 23);
        assert_eq!(batch.len(), 64);
        assert_eq!(batch, knn_mixed(&pts, 64, 20, 23));
        assert!(batch.iter().all(|&(_, _, k)| (1..=20).contains(&k)));
        let ks: std::collections::HashSet<usize> = batch.iter().map(|&(_, _, k)| k).collect();
        assert!(ks.len() >= 5, "k must vary, saw {ks:?}");
        // Centers stay near the data (within the jitter of some point).
        assert!(batch.iter().all(|&(x, y, _)| pts
            .iter()
            .any(|&(px, py)| (x - px).abs() <= 21 && (y - py).abs() <= 21)));
    }

    #[test]
    fn disk_mixed_is_deterministic_and_diverse() {
        let pts = points2(Dist2::Uniform, 400, 1000, 18);
        let batch = disk_mixed(&pts, 64, 200, 24);
        assert_eq!(batch.len(), 64);
        assert_eq!(batch, disk_mixed(&pts, 64, 200, 24));
        assert_ne!(batch, disk_mixed(&pts, 64, 200, 25), "seed must matter");
        assert_eq!(&batch[..9], &disk_mixed(&pts, 9, 200, 24)[..], "prefix-stable");
        assert!(batch.iter().any(|&(_, _, _, inc)| inc));
        assert!(batch.iter().any(|&(_, _, _, inc)| !inc));
        assert!(batch.iter().all(|&(_, _, r2, _)| r2 >= 0));
        assert!(batch.iter().any(|&(_, _, r2, _)| r2 == 0), "degenerate disk present");
        // Boundary radii (i % 8 == 1) hit a data point's exact squared
        // distance, so some answers differ between strictness variants.
        let in_count = |&(x, y, r2, inc): &(i64, i64, i64, bool)| {
            pts.iter()
                .filter(|&&(px, py)| {
                    let (dx, dy) = (x as i128 - px as i128, y as i128 - py as i128);
                    let d2 = dx * dx + dy * dy;
                    if inc {
                        d2 <= r2 as i128
                    } else {
                        d2 < r2 as i128
                    }
                })
                .count()
        };
        assert!(
            batch
                .iter()
                .any(|&(x, y, r2, _)| in_count(&(x, y, r2, true)) != in_count(&(x, y, r2, false))),
            "some radius must land exactly on a point"
        );
        assert!(batch.iter().map(in_count).any(|t| t >= 3), "must include a heavy disk");
    }

    #[test]
    fn aggregate_mixed_is_deterministic_and_diverse() {
        let pts = points2(Dist2::Uniform, 400, 100_000, 19);
        let batch = aggregate_mixed(&pts, 64, 40, 26);
        assert_eq!(batch.len(), 64);
        assert_eq!(batch, aggregate_mixed(&pts, 64, 40, 26));
        assert_ne!(batch, aggregate_mixed(&pts, 64, 40, 27), "seed must matter");
        assert_eq!(&batch[..9], &aggregate_mixed(&pts, 9, 40, 26)[..], "prefix-stable");
        // Count and sum alternate exactly; both strictness variants occur.
        assert_eq!(batch.iter().filter(|&&(_, _, _, sum)| sum).count(), 32);
        assert!(batch.iter().any(|&(_, _, inc, _)| inc));
        assert!(batch.iter().any(|&(_, _, inc, _)| !inc));
        let counts: Vec<usize> =
            batch.iter().map(|&(m, c, _, _)| count_below2(&pts, m, c)).collect();
        assert!(counts.contains(&0), "must include an empty aggregate");
        assert!(counts.iter().any(|&t| t >= 100), "must include a heavy aggregate");
    }

    #[test]
    fn topk_mixed_is_deterministic_and_diverse() {
        let pts = points2(Dist2::Uniform, 400, 100_000, 20);
        let batch = topk_mixed(&pts, 64, 40, 12, 28);
        assert_eq!(batch.len(), 64);
        assert_eq!(batch, topk_mixed(&pts, 64, 40, 12, 28));
        assert_ne!(batch, topk_mixed(&pts, 64, 40, 12, 29), "seed must matter");
        assert_eq!(&batch[..9], &topk_mixed(&pts, 9, 40, 12, 28)[..], "prefix-stable");
        assert!(batch.iter().all(|&(_, _, k)| (1..=12).contains(&k)));
        let ks: std::collections::HashSet<usize> = batch.iter().map(|&(_, _, k)| k).collect();
        assert!(ks.len() >= 5, "k must vary, saw {ks:?}");
        // The selectivity schedule spans empty through far-more-than-k
        // candidate pools (truncation and short answers both exercised).
        let counts: Vec<usize> = batch.iter().map(|&(m, c, _)| count_below2(&pts, m, c)).collect();
        assert!(counts.contains(&0), "must include a no-candidate query");
        assert!(counts.iter().any(|&t| t >= 100), "must include a truncating query");
    }

    #[test]
    fn narrow_batch_is_deterministic_and_bounded() {
        let pts = points2(Dist2::Uniform, 400, 100_000, 15);
        let batch = halfplane_narrow(&pts, 64, 40, 20, 31);
        assert_eq!(batch.len(), 64);
        assert_eq!(batch, halfplane_narrow(&pts, 64, 40, 20, 31));
        // Every query is narrow: strictly-below count within the bound
        // (inclusive variants can pick up boundary ties on top).
        for &(m, c, _) in &batch {
            assert!(count_below2(&pts, m, c) <= 20, "query admits too much");
        }
        // Slopes vary — the point of the workload is diverse orientations.
        let slopes: std::collections::HashSet<i64> = batch.iter().map(|&(m, _, _)| m).collect();
        assert!(slopes.len() >= 8, "slopes must vary, saw {}", slopes.len());
        assert!(batch.iter().any(|&(_, _, inc)| inc));
        assert!(batch.iter().any(|&(_, _, inc)| !inc));
    }

    #[test]
    fn page_sweep_is_pinned_and_strictly_paced() {
        let pts = points2(Dist2::Uniform, 300, 100_000, 16);
        let batch = halfplane_page_sweep(&pts, 40, 10, 40, 33);
        assert_eq!(batch.len(), 40);
        assert_eq!(batch, halfplane_page_sweep(&pts, 40, 10, 40, 33), "deterministic");
        assert_ne!(batch, halfplane_page_sweep(&pts, 40, 10, 40, 34), "seed must matter");
        // One shared slope; intercepts never descend (nested prefixes).
        let m = batch[0].0;
        assert!(batch.iter().all(|&(bm, _)| bm == m), "page sweep shares one slope");
        assert!(batch.windows(2).all(|w| w[0].1 <= w[1].1), "intercepts ascend");
        // Exact pacing: query j admits exactly min(j·stride, n) points —
        // a constant number of fresh records (hence pages) per query.
        for (j, &(bm, c)) in batch.iter().enumerate() {
            assert_eq!(count_below2(&pts, bm, c), (j * 10).min(pts.len()), "query {j}");
        }
        // Prefixes of one seed agree whatever the length (the pinning
        // contract every trace generator keeps).
        assert_eq!(&batch[..5], &halfplane_page_sweep(&pts, 5, 10, 40, 33)[..]);
    }

    #[test]
    fn live_trace_is_pinned_and_well_formed() {
        let mix = TraceMix::default();
        let trace = live_trace(mix, 600, 1000, 8, 42);
        assert_eq!(trace.len(), 600);
        assert_eq!(trace, live_trace(mix, 600, 1000, 8, 42), "byte-for-byte deterministic");
        assert_ne!(trace, live_trace(mix, 600, 1000, 8, 43), "seed must matter");

        // Replay: deletes only ever target live tags, inserts never reuse
        // one, and the mix lands near its weights.
        let mut live = std::collections::HashSet::new();
        let (mut ni, mut nd, mut nq) = (0usize, 0usize, 0usize);
        for op in &trace {
            match *op {
                TraceOp::Insert { tag, .. } => {
                    assert!(live.insert(tag), "tag {tag} reused");
                    ni += 1;
                }
                TraceOp::Delete { tag } => {
                    assert!(live.remove(&tag), "delete of non-live tag {tag}");
                    nd += 1;
                }
                TraceOp::Query { .. } => nq += 1,
            }
        }
        assert!(ni >= 250 && nd >= 60 && nq >= 120, "mix degenerated: {ni}/{nd}/{nq}");

        // Pin the exact head of the default-mix trace: any change to the
        // generator's sampling order is a breaking change for recorded
        // experiment names and must be deliberate.
        assert_eq!(
            &trace[..3],
            &live_trace(TraceMix::default(), 3, 1000, 8, 42)[..],
            "prefixes of one seed agree whatever the length"
        );
    }

    #[test]
    fn serve_trace_is_pinned_and_well_formed() {
        let pts = points2(Dist2::Uniform, 400, 100_000, 17);
        let trace = serve_trace(&pts, 4, 500, 1000, 40, 55);
        assert_eq!(trace.len(), 500);
        assert_eq!(trace, serve_trace(&pts, 4, 500, 1000, 40, 55), "byte-for-byte deterministic");
        assert_ne!(trace, serve_trace(&pts, 4, 500, 1000, 40, 56), "seed must matter");
        assert_eq!(
            &trace[..20],
            &serve_trace(&pts, 4, 20, 1000, 40, 55)[..],
            "prefixes of one seed agree whatever the length"
        );

        // Open-loop arrival process: timestamps strictly increase, gaps
        // bounded by 2×mean, tenants in range, both strictness variants.
        assert!(trace.windows(2).all(|w| w[0].at_ns < w[1].at_ns), "timestamps ascend strictly");
        assert!(trace[0].at_ns >= 1 && trace[0].at_ns <= 2000);
        assert!(trace.windows(2).all(|w| w[1].at_ns - w[0].at_ns <= 2000), "gap bound");
        assert!(trace.iter().all(|op| op.tenant < 4));
        for t in 0..4u32 {
            assert!(trace.iter().filter(|op| op.tenant == t).count() >= 50, "tenant {t} starved");
        }
        assert!(trace.iter().any(|op| op.inclusive));
        assert!(trace.iter().any(|op| !op.inclusive));

        // Even tenants repeat few hot queries; odd tenants sweep ascending
        // intercepts on one shared slope.
        let hot: std::collections::HashSet<(i64, i64)> =
            trace.iter().filter(|op| op.tenant == 0).map(|op| (op.m, op.c)).collect();
        assert!(hot.len() <= 8, "hot tenant must replay at most 8 base queries");
        assert!(hot.len() >= 2, "hot tenant must not degenerate to one query");
        let sweep: Vec<(i64, i64)> =
            trace.iter().filter(|op| op.tenant == 1).map(|op| (op.m, op.c)).collect();
        assert!(sweep.len() >= 2);
        assert!(sweep.iter().all(|&(m, _)| m == sweep[0].0), "sweep tenant shares one slope");
        // Cursor walks the 64-rung ladder in ascending order per lap.
        assert!(
            sweep.windows(2).take(40).all(|w| w[0].1 <= w[1].1),
            "sweep intercepts ascend within the first lap"
        );
    }

    #[test]
    fn coordinates_respect_range() {
        for dist in [Dist2::Uniform, Dist2::Gaussianish, Dist2::Clustered, Dist2::Circle] {
            let pts = points2(dist, 300, 1 << 20, 9);
            assert!(pts.iter().all(|&(x, y)| x.abs() <= 1 << 20 && y.abs() <= 1 << 20));
        }
    }
}
