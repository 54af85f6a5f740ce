//! Acceptance suite for live-update serving (DESIGN.md §12): the
//! differential oracle over an interleaved insert/delete/query trace, and
//! the crash-consistency story of the checkpoint protocol.
//!
//! Pinned here:
//! * over a 600-op `live_trace`, every query's answer is bit-identical to
//!   a host-side scan of the live set — while the index is in-memory,
//!   after it attaches a directory mid-stream, after it is *reopened*
//!   from that directory mid-stream, and with background merges beginning
//!   and committing throughout;
//! * the same index fork answers identically when routed through
//!   [`IndexSet`] planning (sequential and parallel execution), with
//!   per-query IO attribution summing exactly to the aggregate;
//! * a torn merge — output level snapshotted, manifest swap never reached,
//!   plus a garbage `.tmp` beside the manifest — leaves a directory that
//!   reopens to exactly the last committed state, and a later checkpoint
//!   collects the orphan level;
//! * a truncated manifest fails with a typed error, never a wrong answer;
//! * the leveled core's one query dispatch answers all seven classes the
//!   same way as a `dynamic` structure, as a `LiveIndex` and as that
//!   index reopened, matching brute force, and every refusal names the
//!   outer index;
//! * the `dynamic` catalog meta, a `live-level` meta and `__live.meta` of a
//!   fixed trace keep their exact bytes, so existing directories reopen;
//! * a zero delta-buffer cap fails at construction.

use std::collections::BTreeMap;
use std::path::Path;

use lcrs::engine::{
    IndexSet, LiveIndex, LiveLevel, Query, RangeIndex, SnapshotCatalog, LIVE_MANIFEST,
};
use lcrs::extmem::snapshot::fnv1a64;
use lcrs::extmem::{Device, DeviceConfig, TempDir};
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs::halfspace::DynamicHalfspace2;
use lcrs::workloads::{live_trace, TraceMix, TraceOp};
use lcrs_bench::{brute_answer, canon_answer};

fn cfg() -> Hs2dConfig {
    Hs2dConfig { seed: 1998, ..Hs2dConfig::default() }
}

fn model_below(model: &BTreeMap<u64, (i64, i64)>, m: i64, c: i64, inclusive: bool) -> Vec<u64> {
    let mut out: Vec<u64> = model
        .iter()
        .filter(|(_, &(x, y))| {
            let rhs = m as i128 * x as i128 + c as i128;
            if inclusive {
                y as i128 <= rhs
            } else {
                (y as i128) < rhs
            }
        })
        .map(|(&tag, _)| tag)
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn live_trace_oracle_in_memory_reopened_and_planner_routed() {
    let trace = live_trace(TraceMix::default(), 600, 1200, 6, 2024);
    let dir = TempDir::new("lcrs-live-oracle");
    let mut live = LiveIndex::new(DeviceConfig::new(1024, 8), cfg(), Some(24));
    let mut model: BTreeMap<u64, (i64, i64)> = BTreeMap::new();
    let mut checked = 0usize;

    for (i, op) in trace.iter().enumerate() {
        // Phase changes: attach a directory a quarter in, then throw the
        // writer away and continue from the reopened copy at 400.
        if i == 150 {
            live.commit_merge().unwrap();
            live.save_to_dir(dir.path()).unwrap();
        }
        if i == 400 {
            live.commit_merge().unwrap();
            live = LiveIndex::open_dir(dir.path(), 8).unwrap();
        }
        // Background merges weave through all three phases.
        if i % 97 == 0 {
            live.begin_merge();
        }
        if i % 97 == 13 {
            live.commit_merge().unwrap();
        }
        match *op {
            TraceOp::Insert { x, y, tag } => {
                live.insert(x, y, tag).unwrap();
                assert!(model.insert(tag, (x, y)).is_none());
            }
            TraceOp::Delete { tag } => {
                assert!(live.remove(tag).unwrap(), "op {i}: delete of live tag {tag} missed");
                assert!(model.remove(&tag).is_some());
            }
            TraceOp::Query { m, c, inclusive } => {
                let mut got = live.query_below(m, c, inclusive);
                got.sort_unstable();
                assert_eq!(got, model_below(&model, m, c, inclusive), "op {i}: m={m} c={c}");
                checked += 1;
            }
        }
    }
    assert!(checked >= 120, "trace must probe plenty of intermediate states, saw {checked}");
    assert_eq!(live.len(), model.len());
    assert!(live.merge_epoch() > 0, "the trace must have merged");

    // Planner routing: a reader fork of the final state inside an
    // IndexSet answers the trace's queries identically, sequentially and
    // across parallel workers.
    let batch: Vec<Query> = trace
        .iter()
        .filter_map(|op| match *op {
            TraceOp::Query { m, c, inclusive } => Some(Query::Halfplane { m, c, inclusive }),
            _ => None,
        })
        .collect();
    let mut set = IndexSet::new();
    let slot = set.add(RangeIndex::fork_reader(&live));
    set.calibrate(&batch[..24.min(batch.len())]);
    let plan = set.plan(&batch);
    assert_eq!(plan.unrouted(), 0);
    assert_eq!(plan.routed_to(slot), batch.len());
    let seq = set.execute_plan(&batch, &plan, true);
    assert_eq!(seq.attributed_total(), seq.total);
    let par = set.execute_parallel_plan(&batch, &plan, 3, true);
    let (seq_answers, par_answers) = (seq.answers.unwrap(), par.answers.unwrap());
    for (qi, q) in batch.iter().enumerate() {
        let Query::Halfplane { m, c, inclusive } = *q else { unreachable!() };
        let want = model_below(&model, m, c, inclusive);
        let mut got = seq_answers[qi].clone();
        got.sort_unstable();
        assert_eq!(got, want, "routed q{qi}");
        let mut gotp = par_answers[qi].clone();
        gotp.sort_unstable();
        assert_eq!(gotp, want, "parallel-routed q{qi}");
    }
}

#[test]
fn torn_merge_serves_the_old_manifest_and_collects_the_orphan() {
    let dir = TempDir::new("lcrs-live-crash");
    let mut live = LiveIndex::new(DeviceConfig::new(512, 4), cfg(), Some(12));
    live.save_to_dir(dir.path()).unwrap();
    for i in 0..180u64 {
        let (x, y) = ((i as i64 * 53) % 701 - 350, (i as i64 * 29) % 503 - 250);
        live.insert(x, y, i).unwrap();
        if i % 9 == 5 {
            live.remove(i - 3).unwrap();
        }
    }
    let reference: Vec<Vec<u64>> = [(2i64, 60i64, false), (-3, -10, true), (0, 0, true)]
        .iter()
        .map(|&(m, c, inc)| {
            let mut a = live.query_below(m, c, inc);
            a.sort_unstable();
            a
        })
        .collect();
    let committed_len = live.len();
    drop(live);

    // Emulate a merge that crashed after snapshotting its output level
    // but before the manifest swap: an orphan `lv<seq>` entry the live
    // manifest never references...
    let mut cat = SnapshotCatalog::open(dir.path()).unwrap();
    let dev = Device::new(DeviceConfig::new(512, 4));
    let junk_coords: Vec<(i64, i64)> = (0..30).map(|i| (i * 11 - 160, i * 7 - 100)).collect();
    let hs = HalfspaceRS2::build(&dev, &junk_coords, cfg());
    dev.freeze();
    let junk_points: Vec<(i64, i64, u64)> =
        junk_coords.iter().enumerate().map(|(i, &(x, y))| (x, y, 9000 + i as u64)).collect();
    cat.add("lv999", &LiveLevel::new(hs, junk_points)).unwrap();
    drop(cat);
    // ...and a torn manifest rewrite beside the real one.
    std::fs::write(dir.path().join("__live.meta.tmp"), b"torn mid-rename").unwrap();

    let mut back = LiveIndex::open_dir(dir.path(), 4).unwrap();
    assert_eq!(back.len(), committed_len, "reopen serves the last committed state");
    for (j, &(m, c, inc)) in
        [(2i64, 60i64, false), (-3, -10, true), (0, 0, true)].iter().enumerate()
    {
        let mut a = back.query_below(m, c, inc);
        a.sort_unstable();
        assert_eq!(a, reference[j], "query {j} after the torn merge");
        assert!(!a.iter().any(|&t| t >= 9000), "orphan-level tags must stay invisible");
    }

    // The next checkpoint garbage-collects the orphan entry.
    assert!(back.checkpoint().unwrap());
    let cat = SnapshotCatalog::open(dir.path()).unwrap();
    assert!(
        !cat.entries().iter().any(|e| e.label == "lv999"),
        "checkpoint must collect unreferenced levels"
    );
    drop(back);

    // A truncated manifest is a typed failure, never a wrong answer.
    let manifest = dir.path().join(lcrs::engine::LIVE_MANIFEST);
    let bytes = std::fs::read(&manifest).unwrap();
    std::fs::write(&manifest, &bytes[..bytes.len() / 2]).unwrap();
    assert!(LiveIndex::open_dir(dir.path(), 4).is_err());
}

/// Apply the mutations of `trace` to a `dynamic` structure and a live
/// index alike, tracking the live set in `model`.
fn mutate_both(
    trace: &[TraceOp],
    dynamic: &mut DynamicHalfspace2,
    live: &mut LiveIndex,
    model: &mut BTreeMap<u64, (i64, i64)>,
) {
    for op in trace {
        match *op {
            TraceOp::Insert { x, y, tag } => {
                dynamic.insert(x, y, tag);
                live.insert(x, y, tag).unwrap();
                model.insert(tag, (x, y));
            }
            TraceOp::Delete { tag } => {
                assert!(dynamic.remove(tag));
                assert!(live.remove(tag).unwrap());
                model.remove(&tag);
            }
            TraceOp::Query { .. } => {}
        }
    }
}

/// Length and FNV-1a 64 of one file.
fn fingerprint(path: &Path) -> (usize, u64) {
    let bytes = std::fs::read(path).unwrap();
    (bytes.len(), fnv1a64(&bytes))
}

#[test]
fn leveled_state_bytes_are_pinned() {
    // The three metadata formats of the leveled core, written from one
    // fixed trace. The constants are the bytes older builds wrote, so a
    // change to any shared codec that would strand existing catalogs or
    // live directories fails here.
    let trace = live_trace(TraceMix::default(), 150, 1200, 6, 16);
    let dev = Device::new(DeviceConfig::new(256, 0));
    let mut dynamic = DynamicHalfspace2::new(&dev, cfg());
    let mut live = LiveIndex::new(DeviceConfig::new(256, 0), cfg(), Some(16));
    mutate_both(&trace, &mut dynamic, &mut live, &mut BTreeMap::new());
    let core = live.core();
    assert!(core.num_parts() > 1 && !core.delta().is_empty() && core.delta().dead_len() > 0);

    let dir = TempDir::new("lcrs-live-bytes");
    live.save_to_dir(dir.path().join("live")).unwrap();
    dev.freeze();
    let mut cat = SnapshotCatalog::create(dir.path().join("cat")).unwrap();
    cat.add("dyn", &dynamic).unwrap();

    assert_eq!(fingerprint(&dir.path().join("cat/dyn.meta")), (1744, 5253556448827689451));
    assert_eq!(fingerprint(&dir.path().join("live/lv1.meta")), (1041, 12557420911558784200));
    assert_eq!(
        fingerprint(&dir.path().join("live").join(LIVE_MANIFEST)),
        (721, 9966042216521701461)
    );
}

/// Queries of all seven classes over the trace's coordinate range.
fn seven_classes() -> Vec<Query> {
    let mut qs = Vec::new();
    for (m, c) in [(0i64, 0i64), (3, 900), (-2, -700), (6, 12_000), (1, -12_000)] {
        for inclusive in [false, true] {
            qs.push(Query::Halfplane { m, c, inclusive });
            qs.push(Query::Count { m, c, inclusive });
            qs.push(Query::Sum { m, c, inclusive });
        }
        for k in [1, 7, 1000] {
            qs.push(Query::TopK { m, c, k });
        }
    }
    for (x, y, r2) in [(0i64, 0i64, 360_000i64), (400, -300, 90_000), (0, 0, -1), (5000, 0, 1)] {
        for inclusive in [false, true] {
            qs.push(Query::Disk { x, y, r2, inclusive });
        }
    }
    qs.push(Query::Knn { x: 0, y: 0, k: 3 });
    qs.push(Query::Halfspace { u: 1, v: -1, w: 0, inclusive: false });
    qs
}

/// Every query through `supports` and `try_execute` on each index: the
/// indexes agree on what they support, answer it exactly like brute force
/// over `model`, and refuse the rest under their own name.
fn check_dispatch(indexes: &[&dyn RangeIndex], model: &BTreeMap<u64, (i64, i64)>, at: &str) {
    let tags: Vec<u64> = model.keys().copied().collect();
    let pts: Vec<(i64, i64)> = model.values().copied().collect();
    for q in seven_classes() {
        let supported = indexes[0].supports(&q);
        assert_eq!(
            supported,
            !matches!(q, Query::Knn { .. } | Query::Halfspace { .. }),
            "{at}: {q:?}"
        );
        let mut want = brute_answer(&q, &pts, &[]);
        if !q.is_aggregate() {
            want = want.into_iter().map(|i| tags[i as usize]).collect();
        }
        for idx in indexes {
            assert_eq!(idx.supports(&q), supported, "{at}: {} on {q:?}", idx.name());
            match idx.try_execute(&q) {
                Ok(got) => {
                    assert!(supported, "{at}: {} answered {q:?}", idx.name());
                    assert_eq!(canon_answer(&q, got), want, "{at}: {} on {q:?}", idx.name());
                }
                Err(e) => {
                    assert!(!supported, "{at}: {} refused {q:?}", idx.name());
                    assert_eq!((e.index, e.query), (idx.name(), q), "{at}");
                }
            }
        }
    }
}

#[test]
fn one_dispatch_answers_alike_for_dynamic_live_and_reopened() {
    let trace = live_trace(TraceMix::default(), 900, 1200, 6, 606);
    assert!(trace.iter().any(|op| matches!(op, TraceOp::Delete { .. })));
    let dev = Device::new(DeviceConfig::new(256, 4));
    let mut dynamic = DynamicHalfspace2::new(&dev, cfg());
    let mut live = LiveIndex::new(DeviceConfig::new(256, 4), cfg(), Some(16));
    let mut model = BTreeMap::new();
    for (i, part) in trace.chunks(300).enumerate() {
        mutate_both(part, &mut dynamic, &mut live, &mut model);
        check_dispatch(&[&dynamic, &live], &model, &format!("after chunk {i}"));
    }
    assert_eq!((RangeIndex::name(&dynamic), RangeIndex::name(&live)), ("dynamic", "live"));

    let dir = TempDir::new("lcrs-live-dispatch");
    live.save_to_dir(dir.path()).unwrap();
    let reopened = LiveIndex::open_dir(dir.path(), 4).unwrap();
    assert_eq!(reopened.len(), model.len());
    check_dispatch(&[&dynamic, &live, &reopened], &model, "reopened");
}

#[test]
#[should_panic(expected = "delta buffer cap must be at least 1")]
fn zero_buffer_cap_fails_at_construction() {
    LiveIndex::new(DeviceConfig::new(256, 0), cfg(), Some(0));
}
