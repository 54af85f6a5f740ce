//! The trivial baselines: points in a flat file, every query scans it.
//!
//! [`ExternalScan`] holds 2D points and answers halfplane reports *and*
//! k-nearest-neighbor queries (a scan can compute anything — at Θ(n/B)
//! IOs per query, which is exactly why it is the reference the indexed
//! structures are measured against). [`ExternalScan3`] is its 3D sibling
//! for halfspace reports, completing the scan baseline across every query
//! class of the engine's query vocabulary (halfplane, halfspace, k-NN).

use lcrs_extmem::{DeviceHandle, MetaReader, MetaWriter, SnapshotError, VecFile};

/// Linear scan baseline: optimal space, Θ(n) IOs per query.
pub struct ExternalScan {
    dev: DeviceHandle,
    points: VecFile<(i64, i64, u32)>,
    pages_at_build_end: u64,
}

impl ExternalScan {
    pub fn build(dev: &DeviceHandle, points: &[(i64, i64)]) -> ExternalScan {
        let recs: Vec<(i64, i64, u32)> =
            points.iter().enumerate().map(|(i, &(x, y))| (x, y, i as u32)).collect();
        ExternalScan {
            dev: dev.clone(),
            points: VecFile::from_slice(dev, &recs),
            pages_at_build_end: dev.pages_allocated(),
        }
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn pages(&self) -> u64 {
        self.pages_at_build_end
    }

    /// Pages of the scanned point file itself (the per-query cold cost).
    pub fn data_pages(&self) -> u64 {
        self.points.pages() as u64
    }

    /// The device this structure lives on (for scoped IO measurement).
    pub fn device(&self) -> &DeviceHandle {
        &self.dev
    }

    /// The same on-disk structure viewed through `h` (own cache + stats).
    pub fn with_handle(&self, h: &DeviceHandle) -> ExternalScan {
        ExternalScan {
            dev: h.clone(),
            points: self.points.with_handle(h),
            pages_at_build_end: self.pages_at_build_end,
        }
    }

    /// A reader clone on a fresh handle scope over the same pages — each
    /// parallel worker calls this to get its own LRU and IO attribution.
    pub fn fork_reader(&self) -> ExternalScan {
        self.with_handle(&self.dev.fork())
    }

    /// Serialize the scan's metadata (the point file); page data is
    /// captured by [`lcrs_extmem::Device::freeze_to_path`].
    pub fn save(&self, w: &mut MetaWriter) {
        self.points.save(w);
        w.u64(self.pages_at_build_end);
    }

    /// Rebuild from metadata written by [`Self::save`].
    pub fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<ExternalScan, SnapshotError> {
        Ok(ExternalScan {
            dev: h.clone(),
            points: VecFile::load(h, r)?,
            pages_at_build_end: r.u64()?,
        })
    }

    /// Report points strictly below `y = m·x + c` (`inclusive` adds
    /// on-line points).
    pub fn query_below(&self, m: i64, c: i64, inclusive: bool) -> Vec<u32> {
        let mut out = Vec::new();
        self.points.scan_while(|_, (x, y, id)| {
            let rhs = m as i128 * x as i128 + c as i128;
            let hit = if inclusive { y as i128 <= rhs } else { (y as i128) < rhs };
            if hit {
                out.push(id);
            }
            true
        });
        out
    }

    /// The `k` nearest neighbors of `(x, y)` by full scan: Euclidean
    /// distances sorted, ties broken by id — the same reporting order as
    /// the engine's lifted `knn` structure, so the two are answer-identical.
    ///
    /// Exact for the full i64 coordinate range (the scan has no budget,
    /// unlike the lift's query centers): a coordinate delta spans up to
    /// 65 bits, its square up to 128, and the squared distance up to 129 —
    /// so the sum is kept as a (carry, u128) pair and compared as such.
    pub fn k_nearest(&self, x: i64, y: i64, k: usize) -> Vec<u32> {
        let mut d: Vec<((bool, u128), u32)> = Vec::with_capacity(self.len());
        self.points.scan_while(|_, (a, b, id)| {
            let dx = (x as i128 - a as i128).unsigned_abs();
            let dy = (y as i128 - b as i128).unsigned_abs();
            let (lo, carry) = (dx * dx).overflowing_add(dy * dy);
            d.push(((carry, lo), id));
            true
        });
        d.sort_unstable();
        d.into_iter().take(k).map(|(_, i)| i).collect()
    }

    /// Report points inside the disk of center `(x, y)` and squared
    /// radius `r2` (distance² < r2, or ≤ when `inclusive`). Exact for the
    /// full i64 range via the same (carry, u128) distance as
    /// [`Self::k_nearest`]; negative `r2` admits nothing. This is the
    /// oracle the lifted-index answers are differentially checked against.
    pub fn disk_report(&self, x: i64, y: i64, r2: i64, inclusive: bool) -> Vec<u32> {
        let mut out = Vec::new();
        if r2 >= 0 {
            let r2 = (false, r2 as u128);
            self.points.scan_while(|_, (a, b, id)| {
                let dx = (x as i128 - a as i128).unsigned_abs();
                let dy = (y as i128 - b as i128).unsigned_abs();
                let (lo, carry) = (dx * dx).overflowing_add(dy * dy);
                let hit = if inclusive { (carry, lo) <= r2 } else { (carry, lo) < r2 };
                if hit {
                    out.push(id);
                }
                true
            });
        }
        out
    }

    /// Count and weight-sum (weight of `(x, y)` is `x + y`) of points
    /// below `y = m·x + c` — enumerate-then-count at scan cost, the
    /// aggregate-path oracle.
    pub fn aggregate_below(&self, m: i64, c: i64, inclusive: bool) -> (u64, i128) {
        let (mut count, mut wsum) = (0u64, 0i128);
        self.points.scan_while(|_, (x, y, _)| {
            let rhs = m as i128 * x as i128 + c as i128;
            let hit = if inclusive { y as i128 <= rhs } else { (y as i128) < rhs };
            if hit {
                count += 1;
                wsum += x as i128 + y as i128;
            }
            true
        });
        (count, wsum)
    }

    /// The `k` points of lowest key `y − m·x` among those with
    /// `y − m·x ≤ c` (inclusive candidates), ordered by `(key, id)` — the
    /// ranked-reporting oracle.
    pub fn top_k(&self, m: i64, c: i64, k: usize) -> Vec<u32> {
        let mut cand: Vec<(i128, u32)> = Vec::new();
        self.points.scan_while(|_, (x, y, id)| {
            let key = y as i128 - m as i128 * x as i128;
            if key <= c as i128 {
                cand.push((key, id));
            }
            true
        });
        cand.sort_unstable();
        cand.truncate(k);
        cand.into_iter().map(|(_, id)| id).collect()
    }
}

/// Linear scan baseline over 3D points: optimal space, Θ(n) IOs per
/// halfspace query — the 3D sibling of [`ExternalScan`].
pub struct ExternalScan3 {
    dev: DeviceHandle,
    points: VecFile<(i64, i64, i64, u32)>,
    pages_at_build_end: u64,
}

impl ExternalScan3 {
    pub fn build(dev: &DeviceHandle, points: &[(i64, i64, i64)]) -> ExternalScan3 {
        let recs: Vec<(i64, i64, i64, u32)> =
            points.iter().enumerate().map(|(i, &(x, y, z))| (x, y, z, i as u32)).collect();
        ExternalScan3 {
            dev: dev.clone(),
            points: VecFile::from_slice(dev, &recs),
            pages_at_build_end: dev.pages_allocated(),
        }
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn pages(&self) -> u64 {
        self.pages_at_build_end
    }

    /// Pages of the scanned point file itself (the per-query cold cost).
    pub fn data_pages(&self) -> u64 {
        self.points.pages() as u64
    }

    /// The device this structure lives on (for scoped IO measurement).
    pub fn device(&self) -> &DeviceHandle {
        &self.dev
    }

    /// The same on-disk structure viewed through `h` (own cache + stats).
    pub fn with_handle(&self, h: &DeviceHandle) -> ExternalScan3 {
        ExternalScan3 {
            dev: h.clone(),
            points: self.points.with_handle(h),
            pages_at_build_end: self.pages_at_build_end,
        }
    }

    /// A reader clone on a fresh handle scope over the same pages — each
    /// parallel worker calls this to get its own LRU and IO attribution.
    pub fn fork_reader(&self) -> ExternalScan3 {
        self.with_handle(&self.dev.fork())
    }

    /// Serialize the scan's metadata (the point file); page data is
    /// captured by [`lcrs_extmem::Device::freeze_to_path`].
    pub fn save(&self, w: &mut MetaWriter) {
        self.points.save(w);
        w.u64(self.pages_at_build_end);
    }

    /// Rebuild from metadata written by [`Self::save`].
    pub fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<ExternalScan3, SnapshotError> {
        Ok(ExternalScan3 {
            dev: h.clone(),
            points: VecFile::load(h, r)?,
            pages_at_build_end: r.u64()?,
        })
    }

    /// Report points strictly below `z = u·x + v·y + w` (`inclusive` adds
    /// on-plane points).
    pub fn query_below(&self, u: i64, v: i64, w: i64, inclusive: bool) -> Vec<u32> {
        let mut out = Vec::new();
        self.points.scan_while(|_, (x, y, z, id)| {
            // `u·x + v·y + w` can span 129 bits at the i64 extremes, so
            // compare `z - w - v·y < u·x` instead: each side stays within
            // ±(2^126 + 2^64) and the comparison is exact in i128.
            let lhs = z as i128 - w as i128 - v as i128 * y as i128;
            let rhs = u as i128 * x as i128;
            let hit = if inclusive { lhs <= rhs } else { lhs < rhs };
            if hit {
                out.push(id);
            }
            true
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrs_extmem::{Device, DeviceConfig};

    #[test]
    fn k_nearest_survives_extreme_coordinates() {
        // The scan places no budget on coordinates (unlike the lift's
        // query centers), so the distance math must stay exact at the i64 corners:
        // the delta below spans 65 bits (subtraction would overflow i64)
        // and the squared distance spans 129 (its square overflows i128).
        let dev = Device::new(DeviceConfig::new(256, 0));
        let s = ExternalScan::build(&dev, &[(i64::MIN, i64::MIN), (0, 0), (i64::MAX, i64::MAX)]);
        assert_eq!(s.k_nearest(i64::MAX, i64::MAX, 3), vec![2, 1, 0]);
        assert_eq!(s.k_nearest(i64::MIN, i64::MIN, 3), vec![0, 1, 2]);
        assert_eq!(s.k_nearest(0, 0, 3), vec![1, 2, 0]); // |MIN| > |MAX| by one
    }

    #[test]
    fn scan3_survives_extreme_coefficients() {
        // `u·x + v·y + w` reaches 2^127 here — past i128::MAX — so the
        // halfspace test must be evaluated as a rearranged comparison.
        let dev = Device::new(DeviceConfig::new(256, 0));
        let s = ExternalScan3::build(&dev, &[(i64::MIN, i64::MIN, 0), (i64::MAX, i64::MAX, 0)]);
        // Plane z = MIN·x + MIN·y: at point 0 the plane sits at +2^127
        // (below it), at point 1 at about -2^127 (above it).
        assert_eq!(s.query_below(i64::MIN, i64::MIN, 0, false), vec![0]);
        assert_eq!(s.query_below(i64::MAX, i64::MAX, i64::MAX, false), vec![1]);
    }

    #[test]
    fn disk_aggregate_topk_scan_oracles() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let pts: Vec<(i64, i64)> =
            (0..300).map(|i| ((i * 13) % 101 - 50, (i * 7) % 97 - 48)).collect();
        let s = ExternalScan::build(&dev, &pts);
        // Disk: brute membership, strictness respected, r2 < 0 empty.
        for (x, y, r2) in [(0i64, 0i64, 900i64), (-50, -48, 0), (10, 10, -1)] {
            for inclusive in [false, true] {
                let got = s.disk_report(x, y, r2, inclusive);
                let want: Vec<u32> = pts
                    .iter()
                    .enumerate()
                    .filter(|(_, &(a, b))| {
                        r2 >= 0 && {
                            let d2 = (x - a) as i128 * (x - a) as i128
                                + (y - b) as i128 * (y - b) as i128;
                            if inclusive {
                                d2 <= r2 as i128
                            } else {
                                d2 < r2 as i128
                            }
                        }
                    })
                    .map(|(i, _)| i as u32)
                    .collect();
                assert_eq!(got, want, "disk ({x},{y},{r2}) inclusive={inclusive}");
            }
        }
        // Aggregate: count/sum of everything below.
        let (count, wsum) = s.aggregate_below(0, 1000, true);
        assert_eq!(count as usize, pts.len());
        assert_eq!(wsum, pts.iter().map(|&(x, y)| x as i128 + y as i128).sum::<i128>());
        assert_eq!(s.aggregate_below(0, -1000, false), (0, 0));
        // TopK: ordered by (key, id), truncated.
        let top = s.top_k(1, 1000, 5);
        assert_eq!(top.len(), 5);
        let key = |id: u32| {
            let (x, y) = pts[id as usize];
            y as i128 - x as i128
        };
        assert!(top.windows(2).all(|w| (key(w[0]), w[0]) < (key(w[1]), w[1])));
        assert_eq!(key(top[0]), pts.iter().map(|&(x, y)| y as i128 - x as i128).min().unwrap());
    }

    #[test]
    fn scan_reports_exactly_and_costs_n() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let pts: Vec<(i64, i64)> = (0..500).map(|i| (i, (i * 7) % 500)).collect();
        let s = ExternalScan::build(&dev, &pts);
        let (got, io) = dev.measure(|| s.query_below(1, 0, false));
        let want: Vec<u32> =
            pts.iter().enumerate().filter(|(_, &(x, y))| y < x).map(|(i, _)| i as u32).collect();
        assert_eq!(got, want);
        assert_eq!(io.total() as usize, s.points.pages());
    }
}
