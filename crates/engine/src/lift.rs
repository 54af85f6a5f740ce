//! [`LiftedIndex`]: disks and k-NN answered through the 3D halfspace
//! structure on the paraboloid lift — no new index (DESIGN.md §15).
//!
//! At build time every in-budget 2D point `(px, py)` (within
//! [`lcrs_geom::lift::MAX_LIFT_COORD`]) becomes the plane
//! `z = px² + py² − 2px·x − 2py·y` of one [`HalfspaceRS3`] (Theorem 4.4),
//! whose value at `(x, y)` is the squared distance to `(x, y)` minus
//! `x² + y²`. The k nearest neighbors of a center ([`Query::Knn`],
//! Theorem 4.3) are the k lowest planes along the vertical line there. A
//! [`Query::Disk`] of center `(x, y)` and squared radius `r2` — on lifted
//! points the halfspace `z ≤ 2x·px + 2y·py + (r2 − x² − y²)`
//! ([`lcrs_geom::lift::disk_to_halfspace`]) — is the set of planes below
//! the point `(x, y, r2 − x² − y²)`. Both classes share one center
//! budget, [`lcrs_geom::lift::MAX_DISK_CENTER`].
//!
//! Points *outside* the lift budget go to a tail file on the same device,
//! scanned with exact carry-aware `u128` distances
//! ([`lcrs_geom::lift::dist2_carry`]); a k-NN answer merges the tail with
//! the lifted candidates by `(distance², id)` — the lift accelerates the
//! dense in-budget mass without ever giving up exactness.
//!
//! All IOs — 3D-structure reads and tail pages — flow through the one
//! [`DeviceHandle`] scope the index was built on, so the engine's
//! per-query [`lcrs_extmem::IoDelta`] attribution sees the composite as a
//! single structure.

use lcrs_extmem::{DeviceHandle, MetaReader, MetaWriter, SnapshotError, VecFile};
use lcrs_geom::lift;
use lcrs_geom::plane3::Plane3;
use lcrs_halfspace::cost::CostHint;
use lcrs_halfspace::hs3d::Hs3dConfig;
use lcrs_halfspace::HalfspaceRS3;

use crate::query::{unsupported, Query, RangeIndex, Unsupported};

/// A 2D point set answering [`Query::Disk`] and [`Query::Knn`] via the
/// paraboloid lift (see the module docs); named `knn`. Built from
/// arbitrary `i64` points; only the in-budget ones ride the 3D structure,
/// the rest live in an exact-scan tail on the same device.
pub struct LiftedIndex {
    dev: DeviceHandle,
    hs: HalfspaceRS3,
    /// 3D-structure local id → original input id (in-budget points keep
    /// their build order inside the 3D structure).
    ids: Vec<u32>,
    /// Out-of-budget points `(x, y, original id)`.
    tail: VecFile<(i64, i64, u32)>,
    n: usize,
}

impl LiftedIndex {
    /// Lift `points` and build the 3D structure over the planes of the
    /// in-budget subset; the rest go to the tail file. Pays the 3D
    /// structure's build IOs plus one sequential write of the tail.
    pub fn build(dev: &DeviceHandle, points: &[(i64, i64)]) -> LiftedIndex {
        let mut planes: Vec<Plane3> = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        let mut tail_items: Vec<(i64, i64, u32)> = Vec::new();
        for (i, &(px, py)) in points.iter().enumerate() {
            match lift::lift_z(px, py) {
                Some(z) => {
                    planes.push(Plane3::new(-2 * px, -2 * py, z));
                    ids.push(i as u32);
                }
                None => tail_items.push((px, py, i as u32)),
            }
        }
        let hs = HalfspaceRS3::build_dual(dev, &planes, Hs3dConfig::default());
        let tail = VecFile::from_slice(dev, &tail_items);
        LiftedIndex { dev: dev.clone(), hs, ids, tail, n: points.len() }
    }

    /// Total points (in-budget plus tail).
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Points served by the exact-scan tail rather than the lift.
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// The same index viewed through `h` (own cache + stats, same pages).
    pub fn with_handle(&self, h: &DeviceHandle) -> LiftedIndex {
        LiftedIndex {
            dev: h.clone(),
            hs: self.hs.with_handle(h),
            ids: self.ids.clone(),
            tail: self.tail.with_handle(h),
            n: self.n,
        }
    }

    /// Reconstruct an index persisted through [`RangeIndex::save_meta`]
    /// (catalog kind `"knn"`).
    pub fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<LiftedIndex, SnapshotError> {
        let hs = HalfspaceRS3::load(h, r)?;
        let n_ids = r.seq()?;
        let mut ids = Vec::with_capacity(n_ids);
        for _ in 0..n_ids {
            ids.push(r.u32()?);
        }
        let tail = VecFile::load(h, r)?;
        let n = r.usize()?;
        // Every query maps the 3D structure's local ids through `ids`.
        if ids.len() != hs.len() {
            return Err(r.error("lifted id map must cover the 3D structure's points"));
        }
        if ids.len() + tail.len() != n {
            return Err(r.error("lifted id map + tail must cover every point"));
        }
        // Each mapped id must name its own point: a sharded gather indexes
        // its global-id table with them.
        let mut seen = vec![false; n];
        for &id in &ids {
            match seen.get_mut(id as usize) {
                Some(s) if !*s => *s = true,
                _ => return Err(r.error(format!("lifted id {id} is repeated or not below {n}"))),
            }
        }
        Ok(LiftedIndex { dev: h.clone(), hs, ids, tail, n })
    }

    /// Ids of points inside the disk: lifted halfspace over the in-budget
    /// mass, exact scan over the tail.
    pub fn disk_report(&self, x: i64, y: i64, r2: i64, inclusive: bool) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        if let Some((_, _, w)) = lift::disk_to_halfspace(x, y, r2) {
            // The plane build takes the center itself as the location.
            let local = self.hs.query_below(x, y, w, inclusive);
            out.extend(local.into_iter().map(|l| u64::from(self.ids[l as usize])));
        }
        // r2 < 0 (an empty disk) skips the lift but still scans nothing
        // from the tail: in_disk rejects every point.
        self.tail.scan_while(|_, (px, py, id)| {
            if lift::in_disk(x, y, r2, px, py, inclusive) {
                out.push(u64::from(id));
            }
            true
        });
        out
    }

    /// Ids of the `k` nearest points to an in-budget center `(x, y)`,
    /// closest first, ties by id: the k lowest lifted planes at the
    /// center, merged with the whole tail by exact `(distance², id)`.
    fn knn_report(&self, x: i64, y: i64, k: usize) -> Vec<u64> {
        // A plane's value at the center is distance² − (x² + y²).
        let shift = i128::from(x) * i128::from(x) + i128::from(y) * i128::from(y);
        let mut ranked: Vec<((bool, u128), u64)> = self
            .hs
            .k_lowest(x, y, k)
            .into_iter()
            .map(|(l, v)| ((false, (v + shift) as u128), u64::from(self.ids[l as usize])))
            .collect();
        self.tail.scan_while(|_, (px, py, id)| {
            ranked.push((lift::dist2_carry(x, y, px, py), u64::from(id)));
            true
        });
        ranked.sort_unstable();
        ranked.truncate(k);
        ranked.into_iter().map(|(_, id)| id).collect()
    }
}

impl RangeIndex for LiftedIndex {
    fn name(&self) -> &'static str {
        "knn"
    }

    fn device(&self) -> &DeviceHandle {
        &self.dev
    }

    /// Disks and k-NN whose center keeps the lifted plane exact
    /// ([`lcrs_geom::lift::MAX_DISK_CENTER`]); empty disks (`r2 < 0`)
    /// are supported and answer with nothing.
    fn supports(&self, q: &Query) -> bool {
        match *q {
            Query::Disk { x, y, .. } | Query::Knn { x, y, .. } => lift::center_in_budget(x, y),
            _ => false,
        }
    }

    /// The 3D structure's shape; every query also scans the tail, whose
    /// pages the calibrated constant absorbs.
    fn cost_hint(&self) -> CostHint {
        let mut hint = self.hs.cost_hint();
        hint.n = self.n as u64;
        hint
    }

    fn try_execute(&self, q: &Query) -> Result<Vec<u64>, Unsupported> {
        if !RangeIndex::supports(self, q) {
            return unsupported(RangeIndex::name(self), q);
        }
        match *q {
            Query::Disk { x, y, r2, inclusive } => Ok(self.disk_report(x, y, r2, inclusive)),
            Query::Knn { x, y, k } => Ok(self.knn_report(x, y, k)),
            _ => unsupported(RangeIndex::name(self), q),
        }
    }

    fn fork_reader(&self) -> Box<dyn RangeIndex> {
        Box::new(self.with_handle(&self.dev.fork()))
    }

    fn save_meta(&self, w: &mut MetaWriter) {
        self.hs.save(w);
        w.seq(self.ids.len());
        for &id in &self.ids {
            w.u32(id);
        }
        self.tail.save(w);
        w.usize(self.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrs_extmem::{Device, DeviceConfig};

    fn mixed_points(n: usize, seed: u64) -> Vec<(i64, i64)> {
        // Mostly in-budget points, with a sprinkle of extreme outliers
        // that must land in the tail.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s
        };
        (0..n)
            .map(|i| {
                if i % 17 == 13 {
                    let sign = if next() % 2 == 0 { 1 } else { -1 };
                    (sign * (next() % 1_000_000_000) as i64, (next() % 1_000_000_000) as i64)
                } else {
                    ((next() % 2049) as i64 - 1024, (next() % 2049) as i64 - 1024)
                }
            })
            .collect()
    }

    /// Pseudo-random coordinates inside the lift budget from the LCG
    /// `s → s·mul + inc`.
    fn budget_coords(seed: u64, mul: u64, inc: u64) -> impl FnMut() -> i64 {
        let mut s = seed;
        move || {
            s = s.wrapping_mul(mul).wrapping_add(inc);
            ((s >> 33) as i64).rem_euclid(2 * lift::MAX_LIFT_COORD) - lift::MAX_LIFT_COORD
        }
    }

    fn budget_points(n: usize, seed: u64) -> Vec<(i64, i64)> {
        let mut next = budget_coords(seed, 6364136223846793005, 1442695040888963407);
        (0..n).map(|_| (next(), next())).collect()
    }

    fn budget_centers(seed: u64) -> impl FnMut() -> i64 {
        budget_coords(seed, 2862933555777941757, 3037000493)
    }

    fn brute_disk(pts: &[(i64, i64)], x: i64, y: i64, r2: i64, inclusive: bool) -> Vec<u64> {
        pts.iter()
            .enumerate()
            .filter(|(_, &(px, py))| lift::in_disk(x, y, r2, px, py, inclusive))
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// The k nearest by exact `(distance², id)`, for any `i64` points.
    fn brute_knn(pts: &[(i64, i64)], x: i64, y: i64, k: usize) -> Vec<u64> {
        let mut d: Vec<((bool, u128), u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, &(px, py))| (lift::dist2_carry(x, y, px, py), i as u64))
            .collect();
        d.sort_unstable();
        d.into_iter().take(k).map(|(_, i)| i).collect()
    }

    #[test]
    fn disks_with_a_tail_match_brute_force() {
        let pts = mixed_points(500, 9);
        let dev = Device::new(DeviceConfig::new(512, 0));
        let idx = LiftedIndex::build(&dev, &pts);
        assert!(idx.tail_len() > 0, "outliers must populate the tail");
        for (x, y, r2) in [
            (0i64, 0i64, 400_000i64),
            (-500, 500, 90_000),
            (lift::MAX_DISK_CENTER, 0, 1 << 50),
            (3, -4, 0),
            (7, 7, -5),
        ] {
            for inclusive in [false, true] {
                let mut got = idx.disk_report(x, y, r2, inclusive);
                got.sort_unstable();
                let want = brute_disk(&pts, x, y, r2, inclusive);
                assert_eq!(got, want, "disk=({x},{y},{r2}) inclusive={inclusive}");
            }
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let pts = budget_points(400, 77);
        let knn = LiftedIndex::build(&dev, &pts);
        assert_eq!(knn.tail_len(), 0);
        let mut next = budget_centers(5);
        for _ in 0..25 {
            let (x, y) = (next(), next());
            for k in [1usize, 3, 10, 50] {
                // The lift breaks distance ties by plane id = input id, as
                // does brute force, so the ranked answers agree exactly.
                let got = knn.execute(&Query::Knn { x, y, k });
                assert_eq!(got, brute_knn(&pts, x, y, k), "k={k} at ({x},{y})");
            }
        }
    }

    #[test]
    fn knn_k_larger_than_n() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let pts = budget_points(20, 3);
        let knn = LiftedIndex::build(&dev, &pts);
        let got = knn.execute(&Query::Knn { x: 0, y: 0, k: 100 });
        assert_eq!(got.len(), 20);
        assert_eq!(got, brute_knn(&pts, 0, 0, 20));
    }

    #[test]
    fn knn_kind_disks_match_brute_force() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let pts = budget_points(300, 21);
        let knn = LiftedIndex::build(&dev, &pts);
        let mut next = budget_centers(3);
        for trial in 0..20 {
            let (x, y) = (next(), next());
            let r2 = (trial as i64 + 1) * 40_000;
            for inclusive in [false, true] {
                let mut got = knn.disk_report(x, y, r2, inclusive);
                got.sort_unstable();
                assert_eq!(got, brute_disk(&pts, x, y, r2, inclusive), "r2={r2} at ({x},{y})");
            }
        }
    }

    #[test]
    fn knn_merges_out_of_budget_points_from_the_tail() {
        // Points beyond the lift budget — one just past it, others at the
        // i64 extremes — are ranked exactly alongside the lifted ones.
        let dev = Device::new(DeviceConfig::new(512, 0));
        let mut pts = mixed_points(300, 41);
        pts.extend([(5000, 0), (lift::MAX_LIFT_COORD + 1, 3), (i64::MIN, i64::MAX), (0, 0)]);
        let knn = LiftedIndex::build(&dev, &pts);
        assert!(knn.tail_len() > 2, "outliers must populate the tail");
        for (x, y) in [(0i64, 0i64), (5000, 1), (-700, 900), (lift::MAX_DISK_CENTER, 0)] {
            for k in [1usize, 4, 30, 400] {
                let got = knn.execute(&Query::Knn { x, y, k });
                assert_eq!(got, brute_knn(&pts, x, y, k), "k={k} at ({x},{y})");
            }
        }
        // Near (5000, 0) the nearest point lives only in the tail.
        assert_eq!(knn.execute(&Query::Knn { x: 5000, y: 1, k: 1 }), vec![300]);
        // A tail point and a lifted point at one distance rank by id.
        let tie = LiftedIndex::build(&dev, &[(3025, 0), (975, 0)]);
        assert_eq!(tie.execute(&Query::Knn { x: 2000, y: 0, k: 2 }), vec![0, 1]);
    }

    #[test]
    fn supports_gates_on_center_budget() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let idx = LiftedIndex::build(&dev, &[(0, 0), (3, 4)]);
        let ok = Query::Disk { x: 0, y: 0, r2: 25, inclusive: true };
        let empty = Query::Disk { x: 0, y: 0, r2: -1, inclusive: true };
        let far = Query::Disk { x: lift::MAX_DISK_CENTER + 1, y: 0, r2: 25, inclusive: true };
        assert!(RangeIndex::supports(&idx, &ok));
        assert!(RangeIndex::supports(&idx, &empty), "empty disks are supported (answer: nothing)");
        assert!(!RangeIndex::supports(&idx, &far));
        let mut got = idx.execute(&ok);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1], "(0,0) and (3,4) both lie in the inclusive r²=25 disk");
        assert_eq!(idx.execute(&empty), Vec::<u64>::new());
        assert!(idx.try_execute(&far).is_err());

        // k-NN shares the center budget, and beyond it is refused rather
        // than handed to the 3D structure's location assertion.
        let edge = Query::Knn { x: lift::MAX_DISK_CENTER, y: lift::MAX_DISK_CENTER, k: 1 };
        assert!(RangeIndex::supports(&idx, &edge));
        assert_eq!(idx.execute(&edge), vec![1]);
        for far in [lift::MAX_DISK_CENTER + 1, 1 << 23, i64::MIN] {
            let q = Query::Knn { x: far, y: 0, k: 3 };
            assert!(!RangeIndex::supports(&idx, &q));
            assert!(idx.try_execute(&q).is_err());
        }
    }
}
