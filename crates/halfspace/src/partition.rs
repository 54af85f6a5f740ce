//! Space partitioner for sharded serving (DESIGN.md §11): split a point
//! set into S near-even shards whose regions are explicit convex cells.
//!
//! The 2D partitioner reuses the partition tree's discrete ham-sandwich
//! machinery ([`crate::ptree::hamsandwich`]): each binary split is a cut
//! line through two input points that simultaneously bisects the two
//! lexicographic halves of the current cell, so both sides end up with
//! ⌊m/2⌋ ± 1 points and the cell boundary has small integer coefficients
//! (every side test stays exact in `i128`). Degenerate inputs (duplicate
//! duals, vertical cuts) fall back to the best-balanced axis-aligned
//! split, exactly like the partition tree build itself. The 3D
//! partitioner uses axis-cycling median splits (the ham-sandwich cut is a
//! planar tool), so its cells are boxes — a special case of the same
//! constraint representation.
//!
//! A shard's [`ShardRegion2`]/[`ShardRegion3`] carries the cut
//! constraints (the convex cell, a *disjoint cover* of the input — every
//! point lies in exactly one cell, pinned by the property suite) plus the
//! bounding box of the shard's actual points. Routing uses the bbox: a
//! query may hit a shard only if its constraint can be satisfied somewhere
//! in the box, a conservative exact test with no false negatives — a
//! shard holding a reported answer is never pruned.

use lcrs_extmem::{MetaReader, MetaWriter, SnapshotError};

use crate::ptree::hamsandwich::{find_cut, strictly_below_cut};

/// One binary split of the 2D partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut2 {
    /// The (non-vertical) ham-sandwich cut line through input points `p`
    /// and `q`; the "below" side is `strictly_below_cut(p, q, ·)` (points
    /// on the line count as above, matching the ptree partitioner).
    Line { p: (i64, i64), q: (i64, i64) },
    /// Axis-aligned fallback split; the "below" side is
    /// `coord[axis] <= t`.
    Axis { axis: u8, t: i64 },
}

impl Cut2 {
    /// Exact side test: is `r` on the "below" side of this cut?
    pub fn below(&self, r: (i64, i64)) -> bool {
        match *self {
            Cut2::Line { p, q } => strictly_below_cut(p, q, r),
            Cut2::Axis { axis, t } => coord2(r, axis) <= t,
        }
    }

    fn save(&self, w: &mut MetaWriter) {
        match *self {
            Cut2::Line { p, q } => {
                w.bool(true);
                for v in [p.0, p.1, q.0, q.1] {
                    w.i64(v);
                }
            }
            Cut2::Axis { axis, t } => {
                w.bool(false);
                w.u64(axis as u64);
                w.i64(t);
            }
        }
    }

    fn load(r: &mut MetaReader) -> Result<Cut2, SnapshotError> {
        Ok(if r.bool()? {
            let p = (r.i64()?, r.i64()?);
            let q = (r.i64()?, r.i64()?);
            if p.0 == q.0 {
                return Err(r.error("vertical cut line in shard region"));
            }
            Cut2::Line { p, q }
        } else {
            let axis = r.u64()?;
            if axis > 1 {
                return Err(r.error(format!("2D cut axis {axis} out of range")));
            }
            Cut2::Axis { axis: axis as u8, t: r.i64()? }
        })
    }
}

fn coord2(p: (i64, i64), axis: u8) -> i64 {
    if axis == 0 {
        p.0
    } else {
        p.1
    }
}

/// One halfplane constraint of a shard's convex cell: the shard's points
/// all lie on the `below` side of `cut` (or all on the other side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellConstraint2 {
    pub cut: Cut2,
    /// Which side of the cut this cell keeps.
    pub below: bool,
}

impl CellConstraint2 {
    /// Does `r` satisfy this constraint?
    pub fn holds(&self, r: (i64, i64)) -> bool {
        self.cut.below(r) == self.below
    }
}

/// A 2D shard's region: the convex cell carved out by the recursive cuts
/// plus the bounding box of the shard's actual points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRegion2 {
    /// The cell constraints, outermost cut first. Cells of one partition
    /// are pairwise disjoint and cover the plane.
    pub constraints: Vec<CellConstraint2>,
    /// Bounding box (inclusive) of the shard's points — always a subset
    /// of the cell, and the tighter routing filter of the two.
    pub lo: (i64, i64),
    pub hi: (i64, i64),
}

impl ShardRegion2 {
    /// Exact cell membership (the constraints only — the cells of a
    /// partition assign every point of the plane to exactly one shard).
    pub fn cell_contains(&self, r: (i64, i64)) -> bool {
        self.constraints.iter().all(|c| c.holds(r))
    }

    /// Conservative routing test: can a point of this shard lie below
    /// `y = m·x + c`? Evaluates the maximum slack `m·x + c − y` over the
    /// bounding box in `i128` — exact, and never a false negative because
    /// every shard point lies inside the box.
    pub fn may_intersect_halfplane(&self, m: i64, c: i64, inclusive: bool) -> bool {
        let x = if m >= 0 { self.hi.0 } else { self.lo.0 };
        let slack = m as i128 * x as i128 + c as i128 - self.lo.1 as i128;
        if inclusive {
            slack >= 0
        } else {
            slack > 0
        }
    }

    /// Conservative routing test: can a point of this shard lie inside
    /// the disk of center `(x, y)` and squared radius `r2`? Clamps the
    /// center to the bounding box (the box point nearest the center) and
    /// compares the exact carry-aware squared distance
    /// ([`lcrs_geom::lift::dist2_carry`]) against `r2` — never a false
    /// negative because every shard point lies inside the box.
    pub fn may_intersect_disk(&self, x: i64, y: i64, r2: i64, inclusive: bool) -> bool {
        if r2 < 0 {
            return false;
        }
        let cx = x.clamp(self.lo.0, self.hi.0);
        let cy = y.clamp(self.lo.1, self.hi.1);
        let d2 = lcrs_geom::lift::dist2_carry(x, y, cx, cy);
        let r2 = (false, r2 as u128);
        if inclusive {
            d2 <= r2
        } else {
            d2 < r2
        }
    }

    fn save(&self, w: &mut MetaWriter) {
        w.seq(self.constraints.len());
        for c in &self.constraints {
            c.cut.save(w);
            w.bool(c.below);
        }
        for v in [self.lo.0, self.lo.1, self.hi.0, self.hi.1] {
            w.i64(v);
        }
    }

    fn load(r: &mut MetaReader) -> Result<ShardRegion2, SnapshotError> {
        let n = r.seq()?;
        let mut constraints = Vec::with_capacity(n);
        for _ in 0..n {
            let cut = Cut2::load(r)?;
            constraints.push(CellConstraint2 { cut, below: r.bool()? });
        }
        let lo = (r.i64()?, r.i64()?);
        let hi = (r.i64()?, r.i64()?);
        if lo.0 > hi.0 || lo.1 > hi.1 {
            return Err(r.error("shard region bbox is inverted"));
        }
        Ok(ShardRegion2 { constraints, lo, hi })
    }
}

/// A geometry-aware partition of a 2D point set into near-even shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition2 {
    /// Per shard: indices into the input, ascending. Non-empty, disjoint,
    /// and together covering `0..n`.
    pub groups: Vec<Vec<u32>>,
    /// Per shard: its region (same order as `groups`).
    pub regions: Vec<ShardRegion2>,
}

impl Partition2 {
    /// The shard whose cell contains `r` (every point of the plane lies
    /// in exactly one cell).
    pub fn cell_of(&self, r: (i64, i64)) -> Option<usize> {
        self.regions.iter().position(|reg| reg.cell_contains(r))
    }

    /// Persist groups + regions (the engine embeds this in its shard
    /// manifest).
    pub fn save(&self, w: &mut MetaWriter) {
        save_groups(w, &self.groups, &self.regions, ShardRegion2::save);
    }

    /// Inverse of [`Self::save`]. Groups that are not a disjoint cover of
    /// `0..n` are a typed error.
    pub fn load(r: &mut MetaReader) -> Result<Partition2, SnapshotError> {
        let (groups, regions) = load_groups(r, ShardRegion2::load)?;
        Ok(Partition2 { groups, regions })
    }
}

/// Write the shard groups of either partition, each followed by its region.
fn save_groups<R>(
    w: &mut MetaWriter,
    groups: &[Vec<u32>],
    regions: &[R],
    save_region: fn(&R, &mut MetaWriter),
) {
    w.seq(groups.len());
    for (group, region) in groups.iter().zip(regions) {
        w.seq(group.len());
        for &id in group {
            w.u32(id);
        }
        save_region(region, w);
    }
}

/// Inverse of [`save_groups`]. The groups must be non-empty and a disjoint
/// cover of `0..n`, `n` the sum of their lengths, or the load is a typed
/// error: the sharded gather sets bit `id` of an `n`-bit map for every
/// reported id, so each id must name exactly one point.
fn load_groups<R>(
    r: &mut MetaReader,
    load_region: fn(&mut MetaReader) -> Result<R, SnapshotError>,
) -> Result<(Vec<Vec<u32>>, Vec<R>), SnapshotError> {
    let s = r.seq()?;
    let mut groups = Vec::with_capacity(s);
    let mut regions = Vec::with_capacity(s);
    for _ in 0..s {
        let len = r.seq()?;
        if len == 0 {
            return Err(r.error("empty shard group"));
        }
        groups.push((0..len).map(|_| r.u32()).collect::<Result<Vec<u32>, _>>()?);
        regions.push(load_region(r)?);
    }
    let n: usize = groups.iter().map(Vec::len).sum();
    let mut seen = vec![false; n];
    for &id in groups.iter().flatten() {
        match seen.get_mut(id as usize) {
            Some(s) if !*s => *s = true,
            _ => return Err(r.error(format!("shard id {id} is repeated or not below {n}"))),
        }
    }
    Ok((groups, regions))
}

/// Split `pts` into `shards` (a power of two ≥ 1, at most `pts.len()`)
/// near-even groups by recursive ham-sandwich cuts, with best-balanced
/// axis-median fallbacks in degenerate position. Deterministic in `pts`.
///
/// With `shards == 1` the single group is the identity (input order, no
/// constraints) — a sharded deployment at S=1 behaves exactly like an
/// unsharded one.
///
/// # Panics
/// If `shards` is not a power of two, exceeds `pts.len()`, or a cell
/// degenerates to identical points that no cut can separate.
pub fn partition2(pts: &[(i64, i64)], shards: usize) -> Partition2 {
    assert!(shards >= 1 && shards.is_power_of_two(), "shard count must be a power of two");
    assert!(shards <= pts.len(), "cannot cut {} points into {shards} shards", pts.len());
    let mut groups = Vec::with_capacity(shards);
    let mut regions = Vec::with_capacity(shards);
    let all: Vec<u32> = (0..pts.len() as u32).collect();
    split2(pts, all, shards, Vec::new(), &mut groups, &mut regions);
    Partition2 { groups, regions }
}

fn split2(
    pts: &[(i64, i64)],
    mut idxs: Vec<u32>,
    shards: usize,
    constraints: Vec<CellConstraint2>,
    groups: &mut Vec<Vec<u32>>,
    regions: &mut Vec<ShardRegion2>,
) {
    if shards == 1 {
        idxs.sort_unstable();
        let xs = idxs.iter().map(|&i| pts[i as usize].0);
        let ys = idxs.iter().map(|&i| pts[i as usize].1);
        let lo = (xs.clone().min().unwrap(), ys.clone().min().unwrap());
        let hi = (xs.max().unwrap(), ys.max().unwrap());
        groups.push(idxs);
        regions.push(ShardRegion2 { constraints, lo, hi });
        return;
    }
    let cut = choose_cut2(pts, &idxs);
    let (mut below, mut above) = (Vec::new(), Vec::new());
    for &i in &idxs {
        if cut.below(pts[i as usize]) {
            below.push(i);
        } else {
            above.push(i);
        }
    }
    assert!(
        !below.is_empty() && !above.is_empty(),
        "degenerate cell: {} points no cut separates",
        idxs.len()
    );
    let mut c_below = constraints.clone();
    c_below.push(CellConstraint2 { cut, below: true });
    let mut c_above = constraints;
    c_above.push(CellConstraint2 { cut, below: false });
    split2(pts, below, shards / 2, c_below, groups, regions);
    split2(pts, above, shards / 2, c_above, groups, regions);
}

/// The cut for one cell: a ham-sandwich cut of the two lexicographic
/// halves when general position allows (both sides then hold ⌊m/2⌋ ± 1
/// points), otherwise the best-balanced axis-aligned split.
fn choose_cut2(pts: &[(i64, i64)], idxs: &[u32]) -> Cut2 {
    if idxs.len() >= 4 {
        let mut sorted: Vec<(i64, i64)> = idxs.iter().map(|&i| pts[i as usize]).collect();
        sorted.sort_unstable();
        let half = sorted.len() / 2;
        let (a, b) = sorted.split_at(half);
        if let Some((ia, ib)) = find_cut(a, b) {
            let (p, q) = (a[ia], b[ib]);
            if p.0 != q.0 {
                return Cut2::Line { p, q };
            }
        }
    }
    for axis in [0u8, 1] {
        if let Some(t) = axis_threshold(idxs.iter().map(|&i| coord2(pts[i as usize], axis))) {
            return Cut2::Axis { axis, t };
        }
    }
    panic!("degenerate cell: {} identical points cannot be split", idxs.len());
}

/// Best-balanced split threshold over a coordinate multiset: the distinct
/// value `t` whose below-count `|{v ≤ t}|` is closest to half (ties to the
/// smaller `t`), or `None` when all values are equal.
fn axis_threshold(values: impl Iterator<Item = i64>) -> Option<i64> {
    let mut vals: Vec<i64> = values.collect();
    vals.sort_unstable();
    let n = vals.len();
    let mut best: Option<(usize, i64)> = None; // (|below − half| distance ×2, t)
    let mut i = 0;
    while i < n {
        let t = vals[i];
        let below = vals.partition_point(|&v| v <= t);
        if below < n {
            let dist = (2 * below).abs_diff(n);
            if best.is_none_or(|(d, _)| dist < d) {
                best = Some((dist, t));
            }
        }
        i = below;
    }
    best.map(|(_, t)| t)
}

/// One axis-median split of the 3D partitioner; the "below" side is
/// `coord[axis] <= t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut3 {
    pub axis: u8,
    pub t: i64,
}

impl Cut3 {
    /// Exact side test.
    pub fn below(&self, r: (i64, i64, i64)) -> bool {
        coord3(r, self.axis) <= self.t
    }
}

fn coord3(p: (i64, i64, i64), axis: u8) -> i64 {
    match axis {
        0 => p.0,
        1 => p.1,
        _ => p.2,
    }
}

/// One box constraint of a 3D shard's cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellConstraint3 {
    pub cut: Cut3,
    pub below: bool,
}

impl CellConstraint3 {
    pub fn holds(&self, r: (i64, i64, i64)) -> bool {
        self.cut.below(r) == self.below
    }
}

/// A 3D shard's region: the (axis-aligned) cell plus the bounding box of
/// the shard's actual points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRegion3 {
    pub constraints: Vec<CellConstraint3>,
    pub lo: (i64, i64, i64),
    pub hi: (i64, i64, i64),
}

impl ShardRegion3 {
    /// Exact cell membership.
    pub fn cell_contains(&self, r: (i64, i64, i64)) -> bool {
        self.constraints.iter().all(|c| c.holds(r))
    }

    /// Conservative routing test: can a point of this shard lie below
    /// `z = u·x + v·y + w`? Maximum slack over the bounding box, exact
    /// in `i128`.
    pub fn may_intersect_halfspace(&self, u: i64, v: i64, w: i64, inclusive: bool) -> bool {
        let x = if u >= 0 { self.hi.0 } else { self.lo.0 };
        let y = if v >= 0 { self.hi.1 } else { self.lo.1 };
        let slack = u as i128 * x as i128 + v as i128 * y as i128 + w as i128 - self.lo.2 as i128;
        if inclusive {
            slack >= 0
        } else {
            slack > 0
        }
    }

    fn save(&self, w: &mut MetaWriter) {
        w.seq(self.constraints.len());
        for c in &self.constraints {
            w.u64(c.cut.axis as u64);
            w.i64(c.cut.t);
            w.bool(c.below);
        }
        for v in [self.lo.0, self.lo.1, self.lo.2, self.hi.0, self.hi.1, self.hi.2] {
            w.i64(v);
        }
    }

    fn load(r: &mut MetaReader) -> Result<ShardRegion3, SnapshotError> {
        let n = r.seq()?;
        let mut constraints = Vec::with_capacity(n);
        for _ in 0..n {
            let axis = r.u64()?;
            if axis > 2 {
                return Err(r.error(format!("3D cut axis {axis} out of range")));
            }
            let cut = Cut3 { axis: axis as u8, t: r.i64()? };
            constraints.push(CellConstraint3 { cut, below: r.bool()? });
        }
        let lo = (r.i64()?, r.i64()?, r.i64()?);
        let hi = (r.i64()?, r.i64()?, r.i64()?);
        if lo.0 > hi.0 || lo.1 > hi.1 || lo.2 > hi.2 {
            return Err(r.error("shard region bbox is inverted"));
        }
        Ok(ShardRegion3 { constraints, lo, hi })
    }
}

/// A partition of a 3D point set into near-even box shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition3 {
    /// Per shard: indices into the input, ascending. Non-empty, disjoint,
    /// and together covering `0..n`.
    pub groups: Vec<Vec<u32>>,
    pub regions: Vec<ShardRegion3>,
}

impl Partition3 {
    /// The shard whose cell contains `r`.
    pub fn cell_of(&self, r: (i64, i64, i64)) -> Option<usize> {
        self.regions.iter().position(|reg| reg.cell_contains(r))
    }

    /// Persist groups + regions.
    pub fn save(&self, w: &mut MetaWriter) {
        save_groups(w, &self.groups, &self.regions, ShardRegion3::save);
    }

    /// Inverse of [`Self::save`], with the same check as
    /// [`Partition2::load`].
    pub fn load(r: &mut MetaReader) -> Result<Partition3, SnapshotError> {
        let (groups, regions) = load_groups(r, ShardRegion3::load)?;
        Ok(Partition3 { groups, regions })
    }
}

/// Split 3D `pts` into `shards` near-even box cells by axis-cycling
/// best-balanced median splits. Same contract as [`partition2`]
/// (`shards` a power of two in `1..=pts.len()`, S=1 is the identity).
pub fn partition3(pts: &[(i64, i64, i64)], shards: usize) -> Partition3 {
    assert!(shards >= 1 && shards.is_power_of_two(), "shard count must be a power of two");
    assert!(shards <= pts.len(), "cannot cut {} points into {shards} shards", pts.len());
    let mut groups = Vec::with_capacity(shards);
    let mut regions = Vec::with_capacity(shards);
    let all: Vec<u32> = (0..pts.len() as u32).collect();
    split3(pts, all, shards, 0, Vec::new(), &mut groups, &mut regions);
    Partition3 { groups, regions }
}

fn split3(
    pts: &[(i64, i64, i64)],
    mut idxs: Vec<u32>,
    shards: usize,
    depth: usize,
    constraints: Vec<CellConstraint3>,
    groups: &mut Vec<Vec<u32>>,
    regions: &mut Vec<ShardRegion3>,
) {
    if shards == 1 {
        idxs.sort_unstable();
        let get = |axis| idxs.iter().map(move |&i| coord3(pts[i as usize], axis));
        let lo = (get(0).min().unwrap(), get(1).min().unwrap(), get(2).min().unwrap());
        let hi = (get(0).max().unwrap(), get(1).max().unwrap(), get(2).max().unwrap());
        groups.push(idxs);
        regions.push(ShardRegion3 { constraints, lo, hi });
        return;
    }
    // Cycle the split axis with depth; fall through to the next axis when
    // every point shares the preferred coordinate.
    let cut = (0..3u8)
        .map(|off| (depth as u8 + off) % 3)
        .find_map(|axis| {
            axis_threshold(idxs.iter().map(|&i| coord3(pts[i as usize], axis)))
                .map(|t| Cut3 { axis, t })
        })
        .unwrap_or_else(|| {
            panic!("degenerate cell: {} identical points cannot be split", idxs.len())
        });
    let (mut below, mut above) = (Vec::new(), Vec::new());
    for &i in &idxs {
        if cut.below(pts[i as usize]) {
            below.push(i);
        } else {
            above.push(i);
        }
    }
    let mut c_below = constraints.clone();
    c_below.push(CellConstraint3 { cut, below: true });
    let mut c_above = constraints;
    c_above.push(CellConstraint3 { cut, below: false });
    split3(pts, below, shards / 2, depth + 1, c_below, groups, regions);
    split3(pts, above, shards / 2, depth + 1, c_above, groups, regions);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo2(n: usize, seed: u64) -> Vec<(i64, i64)> {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as i64).rem_euclid(200_001) - 100_000
        };
        (0..n).map(|_| (next(), next())).collect()
    }

    fn pseudo3(n: usize, seed: u64) -> Vec<(i64, i64, i64)> {
        let mut s = seed ^ 0x5eed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as i64).rem_euclid(100_001) - 50_000
        };
        (0..n).map(|_| (next(), next(), next())).collect()
    }

    #[test]
    fn partition2_is_a_near_even_disjoint_cover() {
        for seed in [3u64, 17, 88] {
            let pts = pseudo2(503, seed);
            for shards in [1usize, 2, 4, 8] {
                let p = partition2(&pts, shards);
                assert_eq!(p.groups.len(), shards);
                let mut seen = vec![false; pts.len()];
                for (g, region) in p.groups.iter().zip(&p.regions) {
                    assert!(!g.is_empty());
                    assert!(g.windows(2).all(|w| w[0] < w[1]), "ids ascend");
                    for &i in g {
                        assert!(!seen[i as usize], "point {i} in two groups");
                        seen[i as usize] = true;
                        let pt = pts[i as usize];
                        assert!(region.cell_contains(pt), "point outside its own cell");
                        assert!(pt.0 >= region.lo.0 && pt.0 <= region.hi.0);
                        assert!(pt.1 >= region.lo.1 && pt.1 <= region.hi.1);
                    }
                }
                assert!(seen.iter().all(|&s| s), "groups must cover the input");
                let sizes: Vec<usize> = p.groups.iter().map(Vec::len).collect();
                let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
                assert!(max - min <= shards.max(2), "near-even: sizes {sizes:?} for S={shards}");
                // Cells are mutually exclusive for every input point.
                for &pt in &pts {
                    assert_eq!(
                        p.regions.iter().filter(|r| r.cell_contains(pt)).count(),
                        1,
                        "every point lies in exactly one cell"
                    );
                }
            }
        }
    }

    #[test]
    fn partition2_s1_is_identity() {
        let pts = pseudo2(40, 9);
        let p = partition2(&pts, 1);
        assert_eq!(p.groups, vec![(0..40u32).collect::<Vec<u32>>()]);
        assert!(p.regions[0].constraints.is_empty());
    }

    #[test]
    fn partition2_handles_collinear_and_duplicate_points() {
        // All on one vertical line (vertical ham-sandwich cuts are
        // degenerate) plus duplicates: the axis fallback must still split.
        let mut pts: Vec<(i64, i64)> = (0..32).map(|i| (7, i)).collect();
        pts.extend((0..8).map(|_| (7, 5)));
        let p = partition2(&pts, 4);
        assert_eq!(p.groups.iter().map(Vec::len).sum::<usize>(), pts.len());
        // Duplicates always land in the same cell.
        let cells: Vec<usize> = pts.iter().map(|&pt| p.cell_of(pt).expect("covered")).collect();
        for (i, &pt) in pts.iter().enumerate() {
            for (j, &qt) in pts.iter().enumerate() {
                if pt == qt {
                    assert_eq!(cells[i], cells[j]);
                }
            }
        }
    }

    #[test]
    fn routing_tests_have_no_false_negatives() {
        let pts = pseudo2(300, 21);
        let p = partition2(&pts, 8);
        for (m, c) in [(0i64, 0i64), (3, 1000), (-40, -77), (12, 100_000)] {
            for inclusive in [false, true] {
                for (g, region) in p.groups.iter().zip(&p.regions) {
                    let has_answer = g.iter().any(|&i| {
                        let (x, y) = pts[i as usize];
                        let rhs = m as i128 * x as i128 + c as i128;
                        if inclusive {
                            y as i128 <= rhs
                        } else {
                            (y as i128) < rhs
                        }
                    });
                    if has_answer {
                        assert!(
                            region.may_intersect_halfplane(m, c, inclusive),
                            "pruned a shard holding an answer (m={m} c={c})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn disk_routing_has_no_false_negatives() {
        let pts = pseudo2(300, 21);
        let p = partition2(&pts, 8);
        for (x, y, r2) in
            [(0i64, 0i64, 1_000_000i64), (500, -500, 250_000), (-3, 7, 0), (1000, 1000, -1)]
        {
            for inclusive in [false, true] {
                for (g, region) in p.groups.iter().zip(&p.regions) {
                    let has_answer = g.iter().any(|&i| {
                        let (px, py) = pts[i as usize];
                        lcrs_geom::lift::in_disk(x, y, r2, px, py, inclusive)
                    });
                    if has_answer {
                        assert!(
                            region.may_intersect_disk(x, y, r2, inclusive),
                            "pruned a shard holding an answer (disk ({x},{y},{r2}))"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partition3_covers_and_routes() {
        let pts = pseudo3(257, 5);
        let p = partition3(&pts, 8);
        assert_eq!(p.groups.len(), 8);
        assert_eq!(p.groups.iter().map(Vec::len).sum::<usize>(), pts.len());
        for &pt in &pts {
            assert_eq!(p.regions.iter().filter(|r| r.cell_contains(pt)).count(), 1);
        }
        let (u, v, w) = (3i64, -2, 500);
        for (g, region) in p.groups.iter().zip(&p.regions) {
            let has = g.iter().any(|&i| {
                let (x, y, z) = pts[i as usize];
                (z as i128) < u as i128 * x as i128 + v as i128 * y as i128 + w as i128
            });
            if has {
                assert!(region.may_intersect_halfspace(u, v, w, false));
            }
        }
    }

    #[test]
    fn partitions_roundtrip_through_meta() {
        let pts = pseudo2(120, 33);
        let p = partition2(&pts, 4);
        let mut w = MetaWriter::new();
        p.save(&mut w);
        let mut r = MetaReader::from_bytes(w.into_bytes()).unwrap();
        let q = Partition2::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(p, q);

        let pts3 = pseudo3(90, 34);
        let p3 = partition3(&pts3, 2);
        let mut w = MetaWriter::new();
        p3.save(&mut w);
        let mut r = MetaReader::from_bytes(w.into_bytes()).unwrap();
        let q3 = Partition3::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(p3, q3);
    }

    #[test]
    fn ham_sandwich_cuts_are_actually_used() {
        // In general position the first cut of a big partition must be a
        // Line cut (the whole point of reusing the ptree machinery).
        let pts = pseudo2(400, 44);
        let p = partition2(&pts, 2);
        assert!(
            matches!(p.regions[0].constraints[0].cut, Cut2::Line { .. }),
            "general position should use the ham-sandwich cut"
        );
    }
}
