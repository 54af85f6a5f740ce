//! The lifted and aggregated query classes (DESIGN.md §15): disk reporting
//! via the paraboloid lift, count/sum via internal-node annotations, and
//! ranked top-k — all served through the same cost-model planner as the
//! original halfplane/halfspace/k-NN classes. Builds a mixed `IndexSet`,
//! calibrates it, routes a six-class workload, and prints the planner's
//! routing table: which structure answers which class, and why.
//!
//! Run with: `cargo run --release --example lifted_queries`

use lcrs::baselines::{ExternalKdTree, ExternalScan, ExternalScan3};
use lcrs::engine::{decode_sum, IndexSet, LiftedIndex, Query};
use lcrs::extmem::{Device, DeviceConfig};
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs::workloads::{disk_mixed, points2, points3, Dist2, Dist3};
use lcrs_bench::{lifted_oracle, lifted_probes};

fn main() {
    // Simulated disk: 4 KiB pages, 128-page cache.
    let dev = Device::new(DeviceConfig::new(4096, 128));
    let pts = points2(Dist2::Uniform, 16384, 1000, 1);
    let pts3 = points3(Dist3::Uniform, 2000, 1 << 16, 2);

    // The flat scans (answer everything in their dimension), the
    // annotated halfplane structures (count/sum without touching leaves),
    // and the paraboloid-lifted 3D structure, the `knn` kind
    // (output-sensitive disks, and k-NN by Theorem 4.3).
    let mut set = IndexSet::new();
    set.add(Box::new(HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default())));
    set.add(Box::new(ExternalKdTree::build(&dev, &pts)));
    set.add(Box::new(LiftedIndex::build(&dev, &pts)));
    set.add(Box::new(ExternalScan::build(&dev, &pts)));
    set.add(Box::new(ExternalScan3::build(&dev, &pts3)));
    println!("built {} structures over {} 2D + {} 3D points", set.len(), pts.len(), pts3.len());

    // Calibrate: the probe pass fits one constant per (structure, class),
    // since one structure costs each class differently (an annotated count
    // skips the leaves a halfplane report walks; the lift reads far more
    // for a disk than for a k-NN).
    set.calibrate(&lifted_probes(&pts, &pts3, 10));

    // With the canonical probe mix the planner sends disks to the flat
    // scan: one of the disk probes reports nearly the whole dataset, and
    // the cost model carries no output term, so that outlier inflates the
    // lift's disk constant past the scan's fixed Θ(n/B). Its k-NN constant
    // is fitted on the k-NN probes alone, so k-NN still goes to the lift.
    let sample_disk = Query::Disk { x: 120, y: -40, r2: 90 * 90, inclusive: true };
    let routed = |set: &IndexSet, q: &Query| -> &'static str {
        let plan = set.plan(std::slice::from_ref(q));
        set.structure(plan.assignments[0].expect("routed")).name()
    };
    println!("\ndisk routing, canonical probes:      {}", routed(&set, &sample_disk));

    // Re-calibrate with probes shaped like the traffic actually served —
    // bounded-radius disks — and the same planner flips the route to the
    // lift. Calibration is a statement about expected traffic, not a
    // property of the structure alone.
    let mut probes = lifted_probes(&pts, &pts3, 10);
    probes.retain(|p| !matches!(p, Query::Disk { .. }));
    probes.extend(
        disk_mixed(&pts, 60, 100, 1234)
            .into_iter()
            .filter(|&(_, _, r2, _)| r2 <= 100 * 100)
            .take(16)
            .map(|(x, y, r2, inclusive)| Query::Disk { x, y, r2, inclusive }),
    );
    set.calibrate(&probes);
    println!("disk routing, bounded-radius probes: {}", routed(&set, &sample_disk));

    // One of each derived class, answered through the planner.
    let samples = [
        Query::Disk { x: 120, y: -40, r2: 90 * 90, inclusive: true },
        Query::Count { m: 2, c: 50, inclusive: true },
        Query::Sum { m: 2, c: 50, inclusive: true },
        Query::TopK { m: 2, c: 50, k: 5 },
    ];
    println!("\nsample answers:");
    for q in &samples {
        let plan = set.plan(std::slice::from_ref(q));
        let routed = set.structure(plan.assignments[0].expect("routed")).name();
        let rep = set.execute_plan(std::slice::from_ref(q), &plan, true);
        let ans = &rep.answers.as_ref().unwrap()[0];
        let shown = match q {
            Query::Disk { .. } => format!("{} points in the disk", ans.len()),
            Query::Count { .. } => format!("count = {}", ans[0]),
            Query::Sum { .. } => format!("sum(x+y) = {}", decode_sum(ans)),
            Query::TopK { .. } => format!("ranked ids {ans:?}"),
            _ => unreachable!(),
        };
        println!("  {:>5} -> {:>9}: {}", q.class().name(), routed, shown);
    }

    // A six-class mixed workload through the same planner: the routing
    // table shows each class landing on its cheapest capable structure.
    let queries = lifted_oracle(&pts, &pts3, (120, 40, 40, 60, 60, 40), 20);
    let plan = set.plan(&queries);
    let mut table: Vec<(String, usize)> = Vec::new();
    for (qi, a) in plan.assignments.iter().enumerate() {
        let key = format!(
            "{:>5} -> {}",
            queries[qi].class().name(),
            set.structure(a.expect("routed")).name()
        );
        match table.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => table.push((key, 1)),
        }
    }
    table.sort();
    println!("\nplanner routing over {} mixed queries:", queries.len());
    for (route, n) in &table {
        println!("  {route:<20} {n:>4} queries");
    }

    // The lift has a center budget (|x|, |y| ≤ 2^21): beyond it the exact
    // u128 distance arithmetic of the flat scan is the only safe route —
    // supports() says so, and the planner falls back without being asked.
    let far = Query::Disk { x: 1 << 40, y: 0, r2: 1 << 30, inclusive: false };
    let far_plan = set.plan(std::slice::from_ref(&far));
    println!(
        "\nout-of-budget disk center (x = 2^40) routes to: {}",
        set.structure(far_plan.assignments[0].expect("routed")).name()
    );
}
