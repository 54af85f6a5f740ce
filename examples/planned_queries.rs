//! The cost-model query planner: hold every structure of the workspace in
//! one `IndexSet`, calibrate the paper's asymptotic bounds with a measured
//! probe pass, and serve a mixed halfplane/halfspace/k-NN batch with each
//! query routed to the cheapest capable structure — then compare against
//! always-scan and worst-case routing, and show the calibrated set
//! round-tripping through a snapshot catalog.
//!
//! Run with: `cargo run --release --example planned_queries`

use lcrs::baselines::{ExternalKdTree, ExternalScan, ExternalScan3};
use lcrs::engine::{IndexSet, LiftedIndex, Query, QueryClass, SnapshotCatalog};
use lcrs::extmem::{Device, DeviceConfig, TempDir};
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs::halfspace::hs3d::{HalfspaceRS3, Hs3dConfig};
use lcrs::workloads::{points2, points3, Dist2, Dist3};
use lcrs_bench::{mixed_oracle, mixed_probes};

fn main() {
    // Simulated disks with 1 KiB pages and a 32-page cache — small enough
    // that a scan cannot hide its Θ(n/B) cost in a resident file.
    let dev2 = Device::new(DeviceConfig::new(1024, 32));
    let dev3 = Device::new(DeviceConfig::new(1024, 32));
    let pts2 = points2(Dist2::Clustered, 8000, 1000, 1); // k-NN lift budget: |coord| ≤ ~1000
    let pts3 = points3(Dist3::Uniform, 4000, 1 << 16, 2);

    println!("building six structures over {} 2D + {} 3D points...", pts2.len(), pts3.len());
    let mut set = IndexSet::new();
    set.add(Box::new(HalfspaceRS2::build(&dev2, &pts2, Hs2dConfig::default())));
    set.add(Box::new(ExternalKdTree::build(&dev2, &pts2)));
    set.add(Box::new(LiftedIndex::build(&dev2, &pts2)));
    set.add(Box::new(HalfspaceRS3::build(&dev3, &pts3, Hs3dConfig::default())));
    set.add(Box::new(ExternalScan::build(&dev2, &pts2)));
    set.add(Box::new(ExternalScan3::build(&dev3, &pts3)));

    // Calibration: a measured probe pass fits one constant per (structure,
    // query class) onto the structure's paper bound (the shape it
    // self-reports); a class without probes takes the structure's
    // constant pooled over all of its probes.
    let probes: Vec<Query> = mixed_probes(&pts2, &pts3, 10);
    set.calibrate(&probes);
    println!("\ncalibrated cost model ({} probes):", probes.len());
    for slot in 0..set.len() {
        let index = set.structure(slot);
        for class in QueryClass::ALL {
            let fit = set.calibration(slot).class(class);
            if fit.probes > 0 {
                println!(
                    "  {:>8} {:>9}: shape {:?} x fitted constant {:.2} ({} probes)",
                    index.name(),
                    class.name(),
                    index.cost_hint().shape,
                    fit.constant,
                    fit.probes
                );
            }
        }
    }

    // Mixed traffic: 600 halfplane + 240 halfspace + 160 k-NN queries,
    // interleaved — the same oracle-workload construction the planner
    // test suite and exp_planner gate on.
    let queries = mixed_oracle(&pts2, &pts3, (600, 240, 160), 20);

    // Three routing policies, one executor.
    let planned = set.execute_plan(&queries, &set.plan(&queries), false);
    let scanned = set.execute_plan(&queries, &set.scan_plan(&queries), false);
    let worst = set.execute_plan(&queries, &set.worst_plan(&queries), false);
    println!("\n{} mixed queries:", queries.len());
    for (kind, rep) in [("planned", &planned), ("always-scan", &scanned), ("worst", &worst)] {
        let routing: Vec<String> =
            rep.per_index.iter().map(|r| format!("{}:{}", r.index, r.queries)).collect();
        println!("  {kind:>12}: {:>8} read IOs  [{}]", rep.reads(), routing.join(" "));
    }
    println!(
        "  planner saves {:.1}% of reads vs always-scan",
        100.0 * (1.0 - planned.reads() as f64 / scanned.reads() as f64)
    );

    // Build once, serve many: persist the indexes *and* the calibration,
    // reopen in a fresh (simulated) process, and plan identically.
    let dir = TempDir::new("lcrs-planned-example");
    dev2.freeze();
    dev3.freeze();
    let mut cat = SnapshotCatalog::create(dir.path()).expect("create catalog");
    for slot in 0..set.len() {
        cat.add(&format!("idx{slot}"), set.structure(slot)).expect("add entry");
    }
    set.save_calibration_to_catalog(&cat).expect("persist calibration");
    let reopened = IndexSet::from_catalog(&cat, 32).expect("reopen catalog");
    assert_eq!(reopened.plan(&queries).assignments, set.plan(&queries).assignments);
    println!(
        "\ncatalog round trip: {} entries reopened read-only, calibration loaded, \
         plan decisions identical — no re-probing.",
        reopened.len()
    );
}
