//! Asymptotic query-cost hints — the paper's IO bounds as data.
//!
//! The source paper is a menu of structures trading index size against
//! query IOs: Theorem 3.5 answers a 2D halfplane report in O(log_B n + t/B)
//! IOs from O(n/B) blocks, Theorem 5.2 pays O((n/B)^(1-1/d) + t/B) to keep
//! linear space in any dimension, and Section 6 interpolates between the
//! two for 3D halfspaces. A query planner choosing among built structures
//! (DESIGN.md §10) needs those bounds at runtime, so every structure
//! self-reports a [`CostHint`]: the *shape* of its asymptotic query cost
//! plus the instance parameters the shape is evaluated at.
//!
//! Shapes deliberately drop the output term `t/B`: every structure in the
//! workspace is output-sensitive with the *same* `t/B` reporting term, so
//! it cancels when costs are compared for one query. What remains is the
//! structural search cost, which is what separates a scan from a
//! logarithmic descent. Constant factors are *not* modeled here — the
//! engine fits them per structure and query class with a measured probe
//! pass (`lcrs-engine`'s calibration) and multiplies them onto
//! [`CostHint::structural_reads`]. One hint per structure serves every
//! class it answers; what differs between classes (an annotated count
//! that skips leaves, a k-NN against a disk on the same lifted structure)
//! lives in those per-class constants.

/// The asymptotic shape of one structure's per-query search cost, in page
/// reads, with the output term `t/B` omitted (common to all structures).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostShape {
    /// Θ(n/B): the query scans the whole data file. `data_pages` is the
    /// exact page count of that file, so the shape is not just
    /// asymptotic — it is the true cold cost.
    Scan {
        /// Pages of the scanned file.
        data_pages: u64,
    },
    /// O(log_B n + t/B): the optimal structures (2D Theorem 3.5, 3D
    /// Theorem 4.4, k-NN Theorem 4.3). Evaluated as ln(n + 2); the base
    /// conversion to log_B is a constant factor absorbed by calibration.
    Logarithmic,
    /// O((n/B)^(1-1/d) + t/B): the Theorem 5.2 linear-size partition
    /// tree in dimension `d` (and the kd-tree/R-tree baselines, which
    /// obey the same √n̅ envelope in 2D without the worst-case proof).
    RootD {
        /// The dimension of the partition (2 ⇒ √n̅ shape).
        d: u32,
    },
    /// O(n^(num/den) · polylog n + t/B): the Section 6 size/query
    /// trade-off structures, between [`CostShape::Logarithmic`] and a
    /// full [`CostShape::RootD`] search. Evaluated as n^(num/den).
    Tradeoff {
        /// Numerator of the query exponent.
        num: u32,
        /// Denominator of the query exponent.
        den: u32,
    },
    /// `parts` independent logarithmic searches: the Section 7
    /// logarithmic-method dynamization queries every live part.
    PartsLog {
        /// Number of live parts (≥ 1 effective).
        parts: u32,
    },
}

/// One structure's self-reported query-cost bound: a [`CostShape`] plus
/// the instance size it is evaluated at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostHint {
    /// The asymptotic shape of the structural search cost.
    pub shape: CostShape,
    /// Points in the structure (the `n` of the bounds).
    pub n: u64,
}

impl CostHint {
    /// Hint for a structure with cost `shape` over `n` points.
    pub fn new(shape: CostShape, n: usize) -> CostHint {
        CostHint { shape, n: n as u64 }
    }

    /// The structural (output-independent) search cost predicted by the
    /// paper bound, in unnormalized "reads" — comparable across
    /// structures only after a calibration constant is fitted per
    /// structure. Always ≥ 1: even an empty structure answers a query by
    /// at least looking.
    pub fn structural_reads(&self) -> f64 {
        let n = self.n as f64;
        let v = match self.shape {
            CostShape::Scan { data_pages } => data_pages as f64,
            CostShape::Logarithmic => (n + 2.0).ln(),
            CostShape::RootD { d } => n.powf(1.0 - 1.0 / f64::from(d.max(2))),
            CostShape::Tradeoff { num, den } => n.powf(f64::from(num) / f64::from(den.max(1))),
            CostShape::PartsLog { parts } => f64::from(parts.max(1)) * (n + 2.0).ln(),
        };
        v.max(1.0)
    }

    /// Whether this structure answers queries by scanning its whole file —
    /// the "no index" routing class planners measure themselves against.
    pub fn is_scan(&self) -> bool {
        matches!(self.shape, CostShape::Scan { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_order_as_the_paper_says() {
        // At production sizes: log < n^(1/3) < √n̅ < n^(2/3) = 3D-root < scan.
        let n = 1_000_000usize;
        let pages = (n / 50) as u64; // ~B = 50 records per page
        let log = CostHint::new(CostShape::Logarithmic, n).structural_reads();
        let t13 = CostHint::new(CostShape::Tradeoff { num: 1, den: 3 }, n).structural_reads();
        let t23 = CostHint::new(CostShape::Tradeoff { num: 2, den: 3 }, n).structural_reads();
        let root2 = CostHint::new(CostShape::RootD { d: 2 }, n).structural_reads();
        let root3 = CostHint::new(CostShape::RootD { d: 3 }, n).structural_reads();
        let scan = CostHint::new(CostShape::Scan { data_pages: pages }, n).structural_reads();
        assert!(
            log < t13 && t13 < root2 && root2 < t23 && t23 < scan,
            "{log} {t13} {root2} {t23} {scan}"
        );
        assert!((t23 - root3).abs() < 1e-6, "3D root == the 2/3 trade-off exponent");
    }

    #[test]
    fn parts_scale_the_logarithmic_cost() {
        let one = CostHint::new(CostShape::PartsLog { parts: 1 }, 1000).structural_reads();
        let five = CostHint::new(CostShape::PartsLog { parts: 5 }, 1000).structural_reads();
        assert!((five / one - 5.0).abs() < 1e-9);
        assert_eq!(one, CostHint::new(CostShape::Logarithmic, 1000).structural_reads());
    }

    #[test]
    fn costs_are_positive_even_degenerate() {
        for shape in [
            CostShape::Scan { data_pages: 0 },
            CostShape::Logarithmic,
            CostShape::RootD { d: 0 },
            CostShape::Tradeoff { num: 1, den: 0 },
            CostShape::PartsLog { parts: 0 },
        ] {
            assert!(CostHint::new(shape, 0).structural_reads() >= 1.0, "{shape:?}");
        }
    }

    #[test]
    fn scan_class_is_detectable() {
        assert!(CostHint::new(CostShape::Scan { data_pages: 7 }, 10).is_scan());
        assert!(!CostHint::new(CostShape::Logarithmic, 10).is_scan());
    }
}
