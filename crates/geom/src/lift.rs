//! The paraboloid lift (Section 4.3): disks become halfspaces.
//!
//! A 2D point `p = (px, py)` lifts to the 3D point
//! `(px, py, px² + py²)` on the unit paraboloid. For a disk of center
//! `(x, y)` and squared radius `r2`,
//!
//! ```text
//! z − 2x·px − 2y·py − (r2 − x² − y²)
//!     = px² + py² − 2x·px − 2y·py − r2 + x² + y²
//!     = (px − x)² + (py − y)² − r2,
//! ```
//!
//! so `p` lies in the disk (distance² ≤ r2) exactly when the lifted point
//! lies below the plane `z = 2x·px + 2y·py + (r2 − x² − y²)` — a 3D
//! halfspace query the Section 4 structure already answers, strictness
//! preserved. This module holds the lift algebra and its overflow
//! analysis; the engine's `LiftedIndex` applies it to whole point sets.
//!
//! ## Overflow analysis
//!
//! * Build side: `|px|, |py| ≤ 2^10` ([`MAX_LIFT_COORD`]) keeps the
//!   lifted `z = px² + py² ≤ 2^21` inside the 3D build budget
//!   (`|a|,|b| ≤ 2^20`, `|c| ≤ 2^21` — see [`crate::MAX_COORD_3D`]).
//!   Points outside this budget cannot be lifted exactly into the 3D
//!   structures; callers keep them in an exact-scan tail instead
//!   ([`lift_z`] returns `None` for them).
//! * Query side: `|x|, |y| ≤ 2^21` ([`MAX_DISK_CENTER`]) keeps the plane
//!   gradient `(2x, 2y)` inside the 3D query budget (`|u|,|v| ≤ 2^22`)
//!   and `x² + y² ≤ 2^43` inside `i64`, so the offset
//!   `w = r2 − x² − y²` is exact for every `r2 ≥ 0` (`w ≤ r2` and
//!   `w ≥ −2^43`, both in range). Negative `r2` means an empty disk —
//!   [`disk_to_halfspace`] rejects it so callers can short-circuit.
//! * Membership tests that bypass the lift (scan tails, brute-force
//!   oracles) must still be exact at `i64` extremes: a squared distance
//!   reaches `2·(2^64)² = 2^129`, one bit past `u128`. Use
//!   [`dist2_carry`], which widens differences to `u128` and keeps the
//!   single possible carry bit explicit.

/// Maximum absolute 2D coordinate a point may have and still lift exactly
/// onto the paraboloid within the 3D coordinate budget (`px² + py²` must
/// fit `|z| ≤ 2^21`).
pub const MAX_LIFT_COORD: i64 = 1 << 10;

/// Maximum absolute disk-center coordinate for which the lifted query
/// plane is exact: the gradient `2x` must respect the 3D query budget
/// (`|u| ≤ 2^22`) and `x² + y²` must fit `i64`. The budget of k-NN
/// centers too, which the lifted structure locates at `(x, y)` itself.
pub const MAX_DISK_CENTER: i64 = 1 << 21;

/// The lifted third coordinate `px² + py²`, or `None` when `(px, py)` is
/// outside [`MAX_LIFT_COORD`] (the lift would leave the 3D budget).
pub fn lift_z(px: i64, py: i64) -> Option<i64> {
    if px.unsigned_abs() > MAX_LIFT_COORD as u64 || py.unsigned_abs() > MAX_LIFT_COORD as u64 {
        return None;
    }
    Some(px * px + py * py)
}

/// Whether a disk or k-NN center is within [`MAX_DISK_CENTER`], the one
/// budget under which the lifted query stays exact.
pub fn center_in_budget(x: i64, y: i64) -> bool {
    x.unsigned_abs() <= MAX_DISK_CENTER as u64 && y.unsigned_abs() <= MAX_DISK_CENTER as u64
}

/// The halfspace `z ≤ u·px + v·py + w` equivalent (on lifted points) to
/// the disk of center `(x, y)` and squared radius `r2`: returns
/// `(u, v, w) = (2x, 2y, r2 − x² − y²)`. `None` when the disk is empty
/// (`r2 < 0`) or the center exceeds [`MAX_DISK_CENTER`].
pub fn disk_to_halfspace(x: i64, y: i64, r2: i64) -> Option<(i64, i64, i64)> {
    if r2 < 0 || !center_in_budget(x, y) {
        return None;
    }
    Some((2 * x, 2 * y, r2 - x * x - y * y))
}

/// Exact squared distance between arbitrary `i64` points as
/// `(carry, low)`: the value is `carry·2^128 + low`. Compare
/// lexicographically — `(false, r2 as u128)` against a disk's radius.
pub fn dist2_carry(x: i64, y: i64, px: i64, py: i64) -> (bool, u128) {
    let dx = (x as i128 - px as i128).unsigned_abs();
    let dy = (y as i128 - py as i128).unsigned_abs();
    let (lo, carry) = (dx * dx).overflowing_add(dy * dy);
    (carry, lo)
}

/// Exact disk membership for arbitrary `i64` points: distance² ≤ `r2`
/// (`<` when `inclusive` is false). Negative `r2` admits nothing.
pub fn in_disk(x: i64, y: i64, r2: i64, px: i64, py: i64, inclusive: bool) -> bool {
    if r2 < 0 {
        return false;
    }
    let d2 = dist2_carry(x, y, px, py);
    let r2 = (false, r2 as u128);
    if inclusive {
        d2 <= r2
    } else {
        d2 < r2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lift_budget_is_exact() {
        assert_eq!(lift_z(0, 0), Some(0));
        assert_eq!(lift_z(MAX_LIFT_COORD, -MAX_LIFT_COORD), Some(1 << 21));
        assert_eq!(lift_z(MAX_LIFT_COORD + 1, 0), None);
        assert_eq!(lift_z(0, i64::MIN), None);
        // The extreme lift stays inside the 3D budget |z| <= 2^21.
        assert!(lift_z(MAX_LIFT_COORD, MAX_LIFT_COORD).unwrap() <= 2 * crate::MAX_COORD_3D);
    }

    #[test]
    fn disk_halfspace_matches_membership_on_lifted_points() {
        // For every in-budget point and every in-budget disk, the lifted
        // halfspace test must agree with the exact distance test.
        let pts = [(0i64, 0i64), (3, -4), (-1024, 1024), (1000, 999), (-7, 0)];
        let disks = [
            (0i64, 0i64, 25i64),
            (3, -4, 0),
            (-1024, 1024, 1),
            (2000, -2000, 9_000_000),
            (5, 5, 2),
        ];
        for &(px, py) in &pts {
            let z = lift_z(px, py).unwrap();
            for &(x, y, r2) in &disks {
                let (u, v, w) = disk_to_halfspace(x, y, r2).unwrap();
                for inclusive in [false, true] {
                    let val = u as i128 * px as i128 + v as i128 * py as i128 + w as i128;
                    let below = if inclusive { z as i128 <= val } else { (z as i128) < val };
                    assert_eq!(
                        below,
                        in_disk(x, y, r2, px, py, inclusive),
                        "p=({px},{py}) disk=({x},{y},{r2}) inclusive={inclusive}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_oversized_disks_are_rejected() {
        assert_eq!(disk_to_halfspace(0, 0, -1), None);
        assert_eq!(disk_to_halfspace(MAX_DISK_CENTER + 1, 0, 1), None);
        assert_eq!(disk_to_halfspace(0, i64::MIN, 1), None);
        // The extreme admissible center keeps every output coefficient
        // representable: u = 2^22, w = r2 − 2^43.
        let (u, v, w) = disk_to_halfspace(MAX_DISK_CENTER, -MAX_DISK_CENTER, 0).unwrap();
        assert_eq!((u, v), (1 << 22, -(1 << 22)));
        assert_eq!(w, -(1i64 << 43));
    }

    #[test]
    fn carry_distance_is_exact_at_i64_extremes() {
        // (MAX − MIN)² + (MAX − MIN)² overflows u128 by exactly one bit.
        let (carry, lo) = dist2_carry(i64::MAX, i64::MAX, i64::MIN, i64::MIN);
        assert!(carry);
        let d = (i64::MAX as i128 - i64::MIN as i128).unsigned_abs();
        let (want_lo, want_carry) = (d * d).overflowing_add(d * d);
        assert_eq!((carry, lo), (want_carry, want_lo));
        // No i64 radius ever admits that distance…
        assert!(!in_disk(i64::MAX, i64::MAX, i64::MAX, i64::MIN, i64::MIN, true));
        // …while a zero-distance pair at the extremes is admitted by r2=0.
        assert!(in_disk(i64::MIN, i64::MAX, 0, i64::MIN, i64::MAX, true));
        assert!(!in_disk(i64::MIN, i64::MAX, 0, i64::MIN, i64::MAX, false));
    }
}
