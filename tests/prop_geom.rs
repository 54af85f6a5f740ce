//! Property-based tests of the geometric substrate: envelopes, the dynamic
//! first-hit structure, levels, duality, and the ham-sandwich cuts.

use lcrs::geom::dual::point2_to_line;
use lcrs::geom::dyn_envelope::{DynEnvelope, Side};
use lcrs::geom::envelope::LowerEnvelope;
use lcrs::geom::level::{count_strictly_below_at_plus, LevelWalk};
use lcrs::geom::line2::Line2;
use lcrs::geom::rational::Rat;
use proptest::prelude::*;

/// Distinct lines from arbitrary (slope, intercept) pairs.
fn distinct_lines(raw: Vec<(i64, i64)>) -> Vec<Line2> {
    let mut seen = std::collections::HashSet::new();
    raw.into_iter().filter(|p| seen.insert(*p)).map(|(m, b)| Line2::new(m, b)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn envelope_is_pointwise_minimum(
        raw in prop::collection::vec((-200i64..200, -100_000i64..100_000), 1..40),
        probes in prop::collection::vec(-500_000i64..500_000, 1..12),
    ) {
        let lines = distinct_lines(raw);
        let ids: Vec<u32> = (0..lines.len() as u32).collect();
        let env = LowerEnvelope::build(&lines, &ids);
        for x in probes {
            let x = Rat::int(x);
            let got = env.line_at_plus(x).unwrap();
            for (i, l) in lines.iter().enumerate() {
                // No line may be strictly below the envelope line at x+ε.
                prop_assert_ne!(
                    l.cmp_at_plus(&lines[got as usize], x),
                    std::cmp::Ordering::Less,
                    "line {} undercuts envelope at {:?}", i, x
                );
            }
        }
    }

    #[test]
    fn dyn_envelope_agrees_with_static_rebuild(
        raw in prop::collection::vec((-100i64..100, -10_000i64..10_000), 2..30),
        remove_mask in prop::collection::vec(any::<bool>(), 2..30),
    ) {
        let lines = distinct_lines(raw);
        prop_assume!(lines.len() >= 2);
        let ids: Vec<u32> = (0..lines.len() as u32).collect();
        let mut d = DynEnvelope::new(&lines, &ids, Side::Lower);
        let mut live: Vec<u32> = ids.clone();
        for (i, &rm) in remove_mask.iter().enumerate() {
            if rm && live.len() > 1 && i < lines.len() {
                let id = i as u32;
                if live.contains(&id) {
                    d.remove(id);
                    live.retain(|&x| x != id);
                }
            }
        }
        // A ray far below everything with a steep slope: the dynamic first
        // hit must match the static envelope's first hit on the live set.
        let ray = Line2::new(1000, -100_000_000);
        let x0 = Rat::int(-1000);
        prop_assume!(live.iter().all(|&id| ray.cmp_at_plus(&lines[id as usize], x0) == std::cmp::Ordering::Less));
        let env = LowerEnvelope::build(&lines, &live);
        let want = env.first_hit(&lines, ray, x0).map(|(x, _)| x);
        let got = d.first_hit(ray, x0).map(|(x, _)| x);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn level_walk_invariant_holds_everywhere(
        raw in prop::collection::vec((-50i64..50, -5_000i64..5_000), 3..24),
        kfrac in 0.0f64..1.0,
    ) {
        let lines = distinct_lines(raw);
        prop_assume!(lines.len() >= 3);
        let ids: Vec<u32> = (0..lines.len() as u32).collect();
        let k = ((lines.len() - 1) as f64 * kfrac) as usize;
        let mut walk = LevelWalk::new(&lines, &ids, k);
        prop_assert_eq!(
            count_strictly_below_at_plus(&lines, &ids, walk.current_line(), Rat::NegInf),
            k
        );
        let mut steps = 0;
        while let Some(v) = walk.step() {
            steps += 1;
            prop_assert!(steps <= lines.len() * lines.len());
            prop_assert_eq!(
                count_strictly_below_at_plus(&lines, &ids, walk.current_line(), v.x),
                k
            );
        }
    }

    #[test]
    fn duality_preserves_sidedness(
        px in -100_000i64..100_000,
        py in -100_000i64..100_000,
        m in -1_000i64..1_000,
        c in -100_000i64..100_000,
    ) {
        let h = Line2::new(m, c);
        let p_below_h = (py as i128) < h.eval(px);
        let pstar = point2_to_line(px, py);
        // h* = (m, c); p below h ⟺ p* below h*.
        let pstar_below = pstar.eval(m) < c as i128;
        prop_assert_eq!(p_below_h, pstar_below);
    }

    #[test]
    fn ham_sandwich_bisects(
        raw in prop::collection::vec((-50_000i64..50_000, -50_000i64..50_000), 8..60),
    ) {
        use lcrs::halfspace::ptree::hamsandwich::{find_cut, strictly_below_cut};
        let mut pts: Vec<(i64, i64)> = {
            let mut seen = std::collections::HashSet::new();
            raw.into_iter().filter(|p| seen.insert(*p)).collect()
        };
        prop_assume!(pts.len() >= 8);
        pts.sort();
        let half = pts.len() / 2;
        let (a, b) = pts.split_at(half);
        if let Some((ia, ib)) = find_cut(a, b) {
            let (p, q) = (a[ia], b[ib]);
            prop_assume!(p.0 != q.0);
            let below_a = a.iter().filter(|&&r| strictly_below_cut(p, q, r)).count();
            let below_b = b.iter().filter(|&&r| strictly_below_cut(p, q, r)).count();
            prop_assert_eq!(below_a, a.len() / 2);
            prop_assert_eq!(below_b, b.len() / 2);
        }
    }
}
