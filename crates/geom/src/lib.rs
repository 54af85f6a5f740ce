//! # lcrs-geom — exact integer computational geometry
//!
//! The geometric substrate of the reproduction (Section 2 of the paper):
//!
//! * [`rational`] — exact rational x-coordinates (i128) with ±∞, used for
//!   arrangement vertices;
//! * [`line2`] — lines `y = m·x + b` with integer coefficients and exact
//!   predicates (crossing order, above/below at a rational abscissa, and
//!   symbolic `x+ε` evaluation for degeneracy handling);
//! * [`dual`] — the point↔hyperplane duality of Lemma 2.1 in 2D and 3D;
//! * [`envelope`] — static lower/upper envelopes of lines;
//! * [`dyn_envelope`] — a dynamic "first ray hit" envelope (sqrt
//!   decomposition), the engine of the Edelsbrunner–Welzl level traversal;
//! * [`level`] — exact k-level computation of a line arrangement (walk +
//!   naive O(N²) oracle);
//! * [`plane3`]/[`hull3`] — planes in R³ and a randomized incremental lower
//!   convex hull (dual of the lower envelope of planes) with Clarkson–Shor
//!   conflict lists and prefix snapshots, powering Section 4;
//! * [`point`] — d-dimensional integer points, hyperplanes, boxes and
//!   simplices for the partition trees of Section 5;
//! * [`lift`] — the paraboloid lift turning disk queries into 3D
//!   halfspace queries, with exact carry-aware distance predicates.
//!
//! ## Coordinate budgets
//!
//! All predicates are exact in `i128` provided inputs respect:
//! * 2D points and query lines: `|coordinate| <= 2^30` ([`MAX_COORD_2D`]);
//! * 3D plane coefficients: `|a|,|b| <= 2^20`, `|c| <= 2^21`, and query
//!   points `|x|,|y| <= 2^22` ([`MAX_COORD_3D`]);
//! * paraboloid-lift inputs (the lifted k-NN and disk structure):
//!   `|x|,|y| <= 1024` ([`lift::MAX_LIFT_COORD`] — squares must fit the
//!   3D budget), disk centers `|x|,|y| <= 2^21`
//!   ([`lift::MAX_DISK_CENTER`]). Points and disks outside these budgets
//!   fall back to exact carry-aware `u128` scans ([`lift::dist2_carry`]).

pub mod arrangement;
pub mod dual;
pub mod dyn_envelope;
pub mod envelope;
pub mod hull3;
pub mod level;
pub mod lift;
pub mod line2;
pub mod plane3;
pub mod point;
pub mod rational;

/// Maximum absolute coordinate for 2D inputs (points, line slopes and
/// intercepts) for which all predicates are exact.
pub const MAX_COORD_2D: i64 = 1 << 30;

/// Maximum absolute value of 3D plane gradient coefficients `a`, `b`
/// (intercepts `c` may be up to twice this) for exact predicates.
pub const MAX_COORD_3D: i64 = 1 << 20;

pub use line2::Line2;
pub use plane3::Plane3;
pub use point::{Aabb, HyperplaneD, PointD, Simplex};
pub use rational::Rat;
