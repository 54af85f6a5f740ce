//! The planner's cost model: paper bounds × measured constants.
//!
//! Each structure self-reports its asymptotic query bound as a
//! [`CostHint`] ([`RangeIndex::cost_hint`]); this module turns that shape
//! into comparable per-query read estimates by fitting one multiplicative
//! constant per (structure, [`QueryClass`]) from a measured probe pass
//! ([`Calibration`]). The classes one structure answers share its shape
//! but not its constant: an annotated count skips the leaves a halfplane
//! report walks, and the lifted structure reads far more for a disk than
//! for a k-NN, so a constant pooled over them prices each class wrong
//! (DESIGN.md §10). The fitted constants serialize exactly (f64 bit
//! patterns through [`MetaWriter`]), so a catalog reopened in another
//! process makes *identical* plan decisions without re-probing — pinned
//! by the planner test suite.

use lcrs_extmem::{MetaReader, MetaWriter, SnapshotError};
use lcrs_halfspace::cost::CostHint;

use crate::query::{Query, QueryClass, RangeIndex};

/// One query class's fitted constant on one structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassFit {
    /// Multiplier on the structure's [`CostHint::structural_reads`] (> 0).
    pub constant: f64,
    /// Probes of this class the structure answered in the probe pass.
    pub probes: u64,
}

/// Fitted cost constants for one structure, one per [`QueryClass`].
///
/// A class's constant is the mean cold reads of its probes divided by the
/// structure's [`CostHint::structural_reads`]. Two cases take the constant
/// pooled over every probe the structure answered instead: a class with
/// no probes, and a class whose probes charged no reads at all (answered
/// from host RAM, which a fit of its own would price near zero). A
/// structure with no probes keeps `1.0` everywhere: the raw paper shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Per class, in [`QueryClass::ALL`] order.
    pub classes: [ClassFit; QueryClass::ALL.len()],
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration { classes: [ClassFit { constant: 1.0, probes: 0 }; QueryClass::ALL.len()] }
    }
}

impl Calibration {
    /// The fit queries of `class` are priced with.
    pub fn class(&self, class: QueryClass) -> ClassFit {
        self.classes[class as usize]
    }

    /// Exact serialization (bit pattern, not decimal) — plan decisions
    /// survive a save/load round trip bit-identically.
    pub fn save(&self, w: &mut MetaWriter) {
        w.seq(self.classes.len());
        for fit in &self.classes {
            w.u64(fit.constant.to_bits());
            w.u64(fit.probes);
        }
    }

    /// Inverse of [`Self::save`]: a table of another length or a constant
    /// that is not finite and positive is a typed error.
    pub fn load(r: &mut MetaReader) -> Result<Calibration, SnapshotError> {
        let n = r.seq()?;
        if n != QueryClass::ALL.len() {
            return Err(r.error(format!(
                "calibration table holds {n} classes, expected {}",
                QueryClass::ALL.len()
            )));
        }
        let mut calib = Calibration::default();
        for fit in &mut calib.classes {
            let constant = f64::from_bits(r.u64()?);
            if !(constant.is_finite() && constant > 0.0) {
                return Err(
                    r.error(format!("calibration constant {constant} must be finite positive"))
                );
            }
            *fit = ClassFit { constant, probes: r.u64()? };
        }
        Ok(calib)
    }
}

/// Fit a [`Calibration`] from one structure's probe pass: `tally` holds
/// (total cold reads, probes) per class in [`QueryClass::ALL`] order, and
/// the structure's shape predicts `structural` reads per query.
fn fit(tally: &[(u64, u64); QueryClass::ALL.len()], structural: f64) -> Calibration {
    // Structural shapes are >= 1 (see CostHint::structural_reads); a
    // pass that charged no reads still gets a small positive constant so
    // costs stay ordered by shape.
    let constant =
        |reads: u64, probes: u64| (reads as f64 / probes as f64 / structural.max(1.0)).max(1e-6);
    let (reads, probes) = tally.iter().fold((0, 0), |(r, p), &(cr, cp)| (r + cr, p + cp));
    let pooled = if probes == 0 { 1.0 } else { constant(reads, probes) };
    Calibration {
        classes: tally.map(|(reads, probes)| ClassFit {
            constant: if reads == 0 { pooled } else { constant(reads, probes) },
            probes,
        }),
    }
}

/// Predicted read cost of `q` on a structure answering with `hint` under
/// `calib`: the shape's structural term scaled by the constant of `q`'s
/// class.
///
/// The output term `t/B` is omitted on purpose: every structure reports
/// the same `t` ids for the same query at the same ~`t/B` page cost, so
/// the term cancels inside an argmin/argmax over capable structures
/// (DESIGN.md §10).
pub fn predicted_reads(hint: &CostHint, calib: &Calibration, q: &Query) -> f64 {
    calib.class(q.class()).constant * hint.structural_reads()
}

/// Run the measured probe pass for one structure: every supported query
/// in `probes`, each against a cleared cache so the measurement is cold,
/// deterministic, and independent of probe order, tallied per
/// [`QueryClass`]. Returns the fitted calibration (default if no probe
/// applies).
pub fn calibrate_index(index: &dyn RangeIndex, probes: &[Query]) -> Calibration {
    let mut tally = [(0u64, 0u64); QueryClass::ALL.len()];
    for q in probes.iter().filter(|q| index.supports(q)) {
        index.device().clear_cache();
        let (result, io) = index.try_execute_measured(q);
        debug_assert!(result.is_ok(), "supports() admitted the probe");
        let (reads, count) = &mut tally[q.class() as usize];
        *reads += io.reads;
        *count += 1;
    }
    fit(&tally, index.cost_hint().structural_reads())
}

#[cfg(test)]
mod tests {
    use lcrs_halfspace::cost::CostShape;

    use super::*;

    /// A tally with `(reads, probes)` for the listed classes, zero elsewhere.
    fn tally(of: &[(QueryClass, u64, u64)]) -> [(u64, u64); QueryClass::ALL.len()] {
        let mut t = [(0, 0); QueryClass::ALL.len()];
        for &(class, reads, probes) in of {
            t[class as usize] = (reads, probes);
        }
        t
    }

    #[test]
    fn a_class_constant_is_its_own_mean_over_the_shape() {
        let c = fit(&tally(&[(QueryClass::Knn, 300, 10), (QueryClass::Disk, 40, 8)]), 3.0);
        assert_eq!(c.class(QueryClass::Knn), ClassFit { constant: 10.0, probes: 10 });
        let disk = c.class(QueryClass::Disk);
        assert!((disk.constant - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(disk.probes, 8);
    }

    #[test]
    fn a_class_with_no_probes_uses_the_pooled_constant() {
        let c = fit(&tally(&[(QueryClass::Knn, 300, 10), (QueryClass::Disk, 60, 8)]), 4.0);
        let pooled = 360.0 / 18.0 / 4.0;
        for class in [QueryClass::Halfplane, QueryClass::Count, QueryClass::TopK] {
            assert_eq!(c.class(class), ClassFit { constant: pooled, probes: 0 }, "{class:?}");
        }
    }

    #[test]
    fn a_class_whose_probes_charged_no_reads_uses_the_pooled_constant() {
        let c = fit(
            &tally(&[
                (QueryClass::Halfplane, 240, 8),
                (QueryClass::Disk, 0, 8),
                (QueryClass::Count, 0, 4),
            ]),
            2.0,
        );
        let pooled = 240.0 / 20.0 / 2.0;
        assert_eq!(c.class(QueryClass::Halfplane).constant, 15.0);
        assert_eq!(c.class(QueryClass::Disk), ClassFit { constant: pooled, probes: 8 });
        assert_eq!(c.class(QueryClass::Count), ClassFit { constant: pooled, probes: 4 });
        // A structure none of whose probes charged reads still orders by
        // shape: its pooled constant stays positive.
        let host = fit(&tally(&[(QueryClass::Disk, 0, 5)]), 3.0);
        assert!(host.class(QueryClass::Disk).constant > 0.0);
    }

    #[test]
    fn a_structure_with_no_probes_stays_at_one() {
        assert_eq!(fit(&tally(&[]), 3.0), Calibration::default());
        assert!(Calibration::default().classes.iter().all(|f| f.constant == 1.0));
    }

    #[test]
    fn calibration_roundtrips_bit_exactly() {
        let mut c = Calibration::default();
        c.classes[0] = ClassFit { constant: 0.1 + 0.2, probes: 7 }; // a non-representable sum
        c.classes[6] = ClassFit { constant: 1.0 / 3.0, probes: 3 };
        let mut w = MetaWriter::new();
        c.save(&mut w);
        let mut r = MetaReader::from_bytes(w.into_bytes()).unwrap();
        let back = Calibration::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, c);
        assert_eq!(back.classes[0].constant.to_bits(), c.classes[0].constant.to_bits());
    }

    #[test]
    fn corrupt_constants_are_rejected() {
        for class in QueryClass::ALL {
            for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
                let mut c = Calibration::default();
                c.classes[class as usize].constant = bad;
                let mut w = MetaWriter::new();
                c.save(&mut w);
                let mut r = MetaReader::from_bytes(w.into_bytes()).unwrap();
                assert!(Calibration::load(&mut r).is_err(), "{class:?} {bad}");
            }
        }
    }

    #[test]
    fn predicted_reads_scales_the_shape_by_the_class_constant() {
        let hint = CostHint::new(CostShape::Logarithmic, 1000);
        let mut calib = Calibration::default();
        calib.classes[QueryClass::Halfplane as usize].constant = 2.5;
        calib.classes[QueryClass::Count as usize].constant = 0.5;
        let q = Query::Halfplane { m: 0, c: 0, inclusive: false };
        let got = predicted_reads(&hint, &calib, &q);
        assert!((got - 2.5 * hint.structural_reads()).abs() < 1e-12);
        let q_count = Query::Count { m: 0, c: 0, inclusive: false };
        let got_count = predicted_reads(&hint, &calib, &q_count);
        assert!((got_count - 0.5 * hint.structural_reads()).abs() < 1e-12);
    }
}
